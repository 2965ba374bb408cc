//! Transports: in-process pipes for deterministic tests, non-blocking
//! TCP for deployment, and a seeded fault wrapper for chaos runs.
//!
//! Everything speaks [`Wire`]: non-blocking `send`/`poll` over the
//! framed protocol in [`crate::proto`]. The daemon's service loop and
//! the load generator only ever see this trait, so the same code path
//! is exercised whether messages cross an in-process byte lane, a
//! socket, or a deliberately lossy [`FaultyWire`] — which is what makes
//! the fault-free daemon path bit-comparable to the in-process arbiter.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::rc::Rc;
use std::time::{Duration, Instant};

use simnode::faults::FaultWindow;

use crate::proto::{drain_frames, Msg, ProtoError, MAX_FRAME};

/// How long a [`TcpWire`] send may stall on a peer that does not read
/// before the peer is declared dead, in either mode.
const WRITE_TIMEOUT: Duration = Duration::from_millis(250);

/// Transport failure, as seen by one endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The peer is gone (socket closed, pipe dropped, partition treated
    /// as fatal by a higher layer).
    Disconnected,
    /// The byte stream is unparseable; the connection must be dropped.
    Corrupt(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Disconnected => write!(f, "peer disconnected"),
            WireError::Corrupt(why) => write!(f, "corrupt stream: {why}"),
        }
    }
}

impl std::error::Error for WireError {}

/// A non-blocking, framed, bidirectional message channel.
///
/// `Wire` does not require `Send`: the in-process [`PipeWire`] is
/// single-threaded by design, and a transport that must cross threads
/// (the daemon's [`TcpWire`]s) is `Send` on its own.
pub trait Wire {
    /// Queue `msg` for the peer. An error means the connection is dead.
    fn send(&mut self, msg: &Msg) -> Result<(), WireError>;
    /// One received message, or `None` when nothing is pending.
    fn poll(&mut self) -> Result<Option<Msg>, WireError>;
}

/// One direction of an in-process pipe: the encoded frames not yet
/// polled, back to back, and the offset of the next one.
///
/// Polled frames' bytes are given back when the lane drains, or, for a
/// consumer that stays behind, when a send finds more than half of the
/// buffer already read and moves the unread rest to the front. Memory
/// is bounded by the backlog either way, not by all traffic ever sent.
#[derive(Debug, Default)]
struct Lane {
    bytes: Vec<u8>,
    read: usize,
}

/// What a drained lane may keep: one singleton frame's worth. A lane
/// that carried batches frees its buffer instead, so thousands of idle
/// pipes do not each pin their largest burst.
const LANE_RETAIN: usize = MAX_FRAME + 4;

impl Lane {
    /// Append `msg`'s frame, whose length `len` the caller has checked.
    fn push(&mut self, msg: &Msg, len: usize) {
        if self.read > self.bytes.len() / 2 {
            self.bytes.drain(..self.read);
            self.read = 0;
        }
        self.bytes.reserve(len);
        msg.encode_into(&mut self.bytes);
    }

    /// The next frame's decode, advancing past it whether or not it
    /// decodes; `None` when the lane is empty.
    fn pop(&mut self) -> Option<Result<Msg, ProtoError>> {
        let at = self.read;
        let head = self.bytes.get(at..at + 4)?;
        let len = u32::from_le_bytes(head.try_into().expect("4-byte prefix")) as usize;
        let end = at + 4 + len;
        let msg = Msg::decode(&self.bytes[at + 4..end]);
        self.read = end;
        if end == self.bytes.len() {
            self.read = 0;
            if self.bytes.capacity() <= LANE_RETAIN {
                self.bytes.clear();
            } else {
                self.bytes = Vec::new();
            }
        }
        Some(msg)
    }
}

/// Both directions of one pipe and its liveness flag, shared by the two
/// endpoints on one thread. A lane is borrowed only for the length of
/// one `push` or `pop`, so the two endpoints never hold it at once.
#[derive(Debug)]
struct Pipe {
    lanes: [RefCell<Lane>; 2],
    alive: Cell<bool>,
}

/// In-process transport: two byte lanes and a liveness flag. Fully
/// deterministic — no threads, no clocks — which is what the snapshot
/// round-trip and chaos tests need to compare runs bit-for-bit.
///
/// Both endpoints share one `Rc`, so a pipe is not `Send`: it lives on
/// the thread that made it, and its lanes need no lock. A transport
/// that crosses threads is a [`TcpWire`].
///
/// ```compile_fail
/// let (a, _b) = arbiterd::PipeWire::pair();
/// std::thread::spawn(move || drop(a));
/// ```
///
/// A send encodes the frame straight onto the end of the peer's lane and
/// a poll decodes the frame at the lane's read offset. A drained lane
/// keeps up to one singleton frame's capacity ([`MAX_FRAME`] + 4 bytes),
/// so singleton traffic allocates only on a lane's first frame. A lane
/// whose consumer lags gives back the bytes already read once they are
/// more than half of it, so it holds only its backlog.
#[derive(Debug, Clone)]
pub struct PipeWire {
    pipe: Rc<Pipe>,
    /// The lane this endpoint sends on; it polls the other one.
    side: usize,
}

impl PipeWire {
    /// A connected pair of endpoints.
    pub fn pair() -> (PipeWire, PipeWire) {
        let pipe = Rc::new(Pipe {
            lanes: Default::default(),
            alive: Cell::new(true),
        });
        (
            PipeWire {
                pipe: pipe.clone(),
                side: 0,
            },
            PipeWire { pipe, side: 1 },
        )
    }

    /// Sever both directions: every later `send` on either endpoint, and
    /// every `poll` once the frames already queued to it are delivered,
    /// reports [`WireError::Disconnected`] (the daemon-crash primitive
    /// in the chaos tests).
    pub fn hang_up(&self) {
        self.pipe.alive.set(false);
    }
}

impl Wire for PipeWire {
    fn send(&mut self, msg: &Msg) -> Result<(), WireError> {
        if !self.pipe.alive.get() {
            return Err(WireError::Disconnected);
        }
        // Checked before borrowing the lane: a nested or oversized
        // message panics here, not mid-encode, so the lane is never left
        // holding a partial frame.
        let len = msg.checked_frame_len();
        self.pipe.lanes[self.side].borrow_mut().push(msg, len);
        Ok(())
    }

    fn poll(&mut self) -> Result<Option<Msg>, WireError> {
        let frame = self.pipe.lanes[1 - self.side].borrow_mut().pop();
        match frame {
            Some(Ok(msg)) => Ok(Some(msg)),
            Some(Err(e)) => Err(WireError::Corrupt(e.to_string())),
            None if !self.pipe.alive.get() => Err(WireError::Disconnected),
            None => Ok(None),
        }
    }
}

/// A framed wire over a [`TcpStream`], in one of two modes:
///
/// - **non-blocking** ([`TcpWire::new`]): `poll` drains whatever the
///   kernel has and returns immediately — the client side, where one
///   thread advances many connections;
/// - **blocking with timeouts** ([`TcpWire::new_blocking`]): `poll`
///   parks the thread in `read(2)` until bytes arrive or the read
///   timeout lapses — the daemon's reader threads, where an idle
///   connection must cost zero CPU instead of a 1 ms poll loop.
///
/// `SO_RCVTIMEO`/`SO_SNDTIMEO` live on the socket (shared across
/// `try_clone`d halves), so a connection split into a read half and a
/// write half keeps one consistent mode.
#[derive(Debug)]
pub struct TcpWire {
    stream: TcpStream,
    /// Bytes read but not yet framed.
    inbuf: Vec<u8>,
    /// Decoded messages waiting for `poll`.
    pending: VecDeque<Msg>,
    /// Blocking mode: reads park until the timeout, a blocked write is a
    /// dead peer (instead of a spin).
    blocking: bool,
}

impl TcpWire {
    /// Wrap a connected stream (switched to non-blocking mode here).
    pub fn new(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true).ok();
        Ok(Self {
            stream,
            inbuf: Vec::new(),
            pending: VecDeque::new(),
            blocking: false,
        })
    }

    /// Wrap a connected stream in blocking mode: `poll` parks in the
    /// kernel up to `read_timeout` (returning `Ok(None)` on a quiet
    /// interval), and a write stalled past `WRITE_TIMEOUT` (250 ms) is
    /// treated as a dead peer rather than a reason to block the daemon.
    /// Both timeouts apply to the underlying socket, so they are shared
    /// with any `try_clone`d half of the same connection.
    pub fn new_blocking(stream: TcpStream, read_timeout: Duration) -> std::io::Result<Self> {
        stream.set_nonblocking(false)?;
        stream.set_read_timeout(Some(read_timeout))?;
        stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
        stream.set_nodelay(true).ok();
        Ok(Self {
            stream,
            inbuf: Vec::new(),
            pending: VecDeque::new(),
            blocking: true,
        })
    }

    /// Give up on the peer after a failed send: shut the socket down
    /// both ways and report it gone. A consumer that stalled past the
    /// write timeout is as dead as a closed one, and dropping it beats
    /// blocking the tick loop.
    fn hang_up(&mut self) -> WireError {
        self.stream.shutdown(Shutdown::Both).ok();
        WireError::Disconnected
    }

    /// A second [`TcpWire`] over the same connection (shared file
    /// description, shared mode and timeouts), so one thread can own the
    /// read side while another owns the write side without contending on
    /// a lock.
    pub fn split(&self) -> std::io::Result<Self> {
        Ok(Self {
            stream: self.stream.try_clone()?,
            inbuf: Vec::new(),
            pending: VecDeque::new(),
            blocking: self.blocking,
        })
    }
}

impl Wire for TcpWire {
    /// A send that fails shuts the socket down, both directions: it may
    /// have stopped partway through the frame, and a later frame must
    /// not follow the torn bytes. The peer reads the whole frames sent
    /// before, then end of stream.
    fn send(&mut self, msg: &Msg) -> Result<(), WireError> {
        let frame = msg.encode();
        let mut at = 0;
        // Non-blocking mode: when the current stall gives up.
        let mut stall = None;
        while at < frame.len() {
            match self.stream.write(&frame[at..]) {
                Ok(n) if n > 0 => {
                    at += n;
                    stall = None;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                // A frame is one message: a singleton of at most
                // MAX_FRAME payload bytes or a batch of up to
                // MAX_BATCH_FRAME (1 MiB). The peer drains its socket as
                // it reads, so spin until the rest fits rather than
                // growing an unbounded outbound queue — for at most
                // WRITE_TIMEOUT, as a blocking write waits.
                Err(e) if !self.blocking && e.kind() == ErrorKind::WouldBlock => {
                    let deadline = *stall.get_or_insert_with(|| Instant::now() + WRITE_TIMEOUT);
                    if Instant::now() >= deadline {
                        return Err(self.hang_up());
                    }
                    std::thread::yield_now();
                }
                // A closed peer, or, in blocking mode, the write timeout
                // lapsing with the peer's socket buffer still full.
                _ => return Err(self.hang_up()),
            }
        }
        Ok(())
    }

    /// Frames that arrived before the peer closed are delivered first;
    /// the poll after the last of them reports
    /// [`WireError::Disconnected`], as a [`PipeWire`] does after a hang-up.
    fn poll(&mut self) -> Result<Option<Msg>, WireError> {
        if let Some(m) = self.pending.pop_front() {
            return Ok(Some(m));
        }
        let mut chunk = [0u8; 4096];
        // End of stream or a read error: deliver what is buffered first.
        let mut closed = false;
        if self.blocking {
            // One read, parked in the kernel up to the read timeout. A
            // quiet interval is Ok(None) — the caller re-checks its stop
            // flag and parks again — so idle connections cost no CPU.
            match self.stream.read(&mut chunk) {
                Ok(n) if n > 0 => self.inbuf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == ErrorKind::WouldBlock
                        || e.kind() == ErrorKind::TimedOut
                        || e.kind() == ErrorKind::Interrupted => {}
                _ => closed = true,
            }
        } else {
            loop {
                match self.stream.read(&mut chunk) {
                    Ok(n) if n > 0 => self.inbuf.extend_from_slice(&chunk[..n]),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    _ => {
                        closed = true;
                        break;
                    }
                }
            }
        }
        let msgs = drain_frames(&mut self.inbuf).map_err(|e| WireError::Corrupt(e.to_string()))?;
        self.pending.extend(msgs);
        match self.pending.pop_front() {
            Some(m) => Ok(Some(m)),
            None if closed => Err(WireError::Disconnected),
            None => Ok(None),
        }
    }
}

/// Seeded fault injection for a wrapped wire, reusing PR 1's
/// [`FaultWindow`] machinery with the wire's own poll counter as the
/// clock. Sends are dropped, duplicated, or delayed by whole polls;
/// partition windows silence the wire in both directions without
/// reporting a disconnect (the peer just looks dead, which is exactly
/// what a lease must handle).
#[derive(Debug, Clone)]
pub struct WireFaultPlan {
    /// SplitMix64 seed for the probabilistic faults.
    pub seed: u64,
    /// Per-message drop probability in `[0, 1]`.
    pub drop_prob: f64,
    /// Per-message duplication probability in `[0, 1]`.
    pub dup_prob: f64,
    /// Per-message delay probability in `[0, 1]`.
    pub delay_prob: f64,
    /// Maximum delay, in polls (a delayed message is held back a
    /// uniformly drawn `1..=max_delay_polls` polls).
    pub max_delay_polls: u64,
    /// Both-direction blackout windows over the poll counter.
    pub partitions: Vec<FaultWindow>,
}

impl WireFaultPlan {
    /// No faults at all (the wrapper becomes a pass-through).
    pub fn clean(seed: u64) -> Self {
        Self {
            seed,
            drop_prob: 0.0,
            dup_prob: 0.0,
            delay_prob: 0.0,
            max_delay_polls: 0,
            partitions: Vec::new(),
        }
    }

    /// A moderately hostile default used by the chaos tests: 5 % drops,
    /// 2 % duplicates, 10 % delays of up to 3 polls.
    pub fn hostile(seed: u64) -> Self {
        Self {
            seed,
            drop_prob: 0.05,
            dup_prob: 0.02,
            delay_prob: 0.10,
            max_delay_polls: 3,
            partitions: Vec::new(),
        }
    }

    /// Add a partition window over the poll counter.
    pub fn partition(mut self, window: FaultWindow) -> Self {
        self.partitions.push(window);
        self
    }
}

/// Counters of what the fault layer actually did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireFaultStats {
    /// Messages silently dropped.
    pub dropped: u64,
    /// Messages delivered twice.
    pub duplicated: u64,
    /// Messages held back at least one poll.
    pub delayed: u64,
    /// Sends swallowed by an active partition.
    pub partitioned: u64,
}

/// The fault-injecting wrapper. Faults apply on the send side (the
/// injected direction is the client's, mirroring how PR 1 faults the
/// MSR path the daemon reads through).
pub struct FaultyWire<W: Wire> {
    inner: W,
    plan: WireFaultPlan,
    rng: u64,
    /// Monotone fault clock: one tick per `poll` call.
    polls: u64,
    /// Messages held back until `release_at ≤ polls`.
    held: Vec<(u64, Msg)>,
    stats: WireFaultStats,
}

impl<W: Wire> FaultyWire<W> {
    /// Wrap `inner` under `plan`.
    pub fn new(inner: W, plan: WireFaultPlan) -> Self {
        Self {
            rng: plan.seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
            inner,
            plan,
            polls: 0,
            held: Vec::new(),
            stats: WireFaultStats::default(),
        }
    }

    /// Injection counters.
    pub fn stats(&self) -> WireFaultStats {
        self.stats
    }

    /// The wrapped wire.
    pub fn inner(&self) -> &W {
        &self.inner
    }

    fn draw(&mut self) -> f64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    fn hit(&mut self, prob: f64) -> bool {
        prob >= 1.0 || (prob > 0.0 && self.draw() < prob)
    }

    fn partitioned(&self) -> bool {
        self.plan.partitions.iter().any(|w| w.contains(self.polls))
    }
}

impl<W: Wire> Wire for FaultyWire<W> {
    fn send(&mut self, msg: &Msg) -> Result<(), WireError> {
        if self.partitioned() {
            self.stats.partitioned += 1;
            return Ok(()); // swallowed, not an error: the link looks alive
        }
        if self.hit(self.plan.drop_prob) {
            self.stats.dropped += 1;
            return Ok(());
        }
        if self.plan.max_delay_polls > 0 && self.hit(self.plan.delay_prob) {
            let hold = 1 + (self.draw() * self.plan.max_delay_polls as f64) as u64;
            self.stats.delayed += 1;
            self.held.push((self.polls + hold, msg.clone()));
            return Ok(());
        }
        self.inner.send(msg)?;
        if self.hit(self.plan.dup_prob) {
            self.stats.duplicated += 1;
            self.inner.send(msg)?;
        }
        Ok(())
    }

    fn poll(&mut self) -> Result<Option<Msg>, WireError> {
        self.polls += 1;
        // Flush messages whose delay expired (in original send order).
        if !self.held.is_empty() && !self.partitioned() {
            let due: Vec<Msg> = {
                let polls = self.polls;
                let mut due = Vec::new();
                self.held.retain(|(at, m)| {
                    if *at <= polls {
                        due.push(m.clone());
                        false
                    } else {
                        true
                    }
                });
                due
            };
            for m in due {
                self.inner.send(&m)?;
            }
        }
        if self.partitioned() {
            return Ok(None); // blackout: nothing arrives, no disconnect
        }
        self.inner.poll()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::MAX_BATCH_FRAME;
    use cluster::NodeTelemetry;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex};

    /// The pipe as first written: each direction a queue of whole encoded
    /// frames. The reference a [`PipeWire`] pair must match call for call.
    #[derive(Clone)]
    struct OraclePipe {
        tx: Arc<Mutex<VecDeque<Vec<u8>>>>,
        rx: Arc<Mutex<VecDeque<Vec<u8>>>>,
        alive: Arc<AtomicBool>,
    }

    impl OraclePipe {
        fn pair() -> (OraclePipe, OraclePipe) {
            let a = Arc::new(Mutex::new(VecDeque::new()));
            let b = Arc::new(Mutex::new(VecDeque::new()));
            let alive = Arc::new(AtomicBool::new(true));
            (
                OraclePipe {
                    tx: a.clone(),
                    rx: b.clone(),
                    alive: alive.clone(),
                },
                OraclePipe {
                    tx: b,
                    rx: a,
                    alive,
                },
            )
        }
    }

    impl Wire for OraclePipe {
        fn send(&mut self, msg: &Msg) -> Result<(), WireError> {
            if !self.alive.load(Ordering::SeqCst) {
                return Err(WireError::Disconnected);
            }
            self.tx.lock().unwrap().push_back(msg.encode());
            Ok(())
        }

        fn poll(&mut self) -> Result<Option<Msg>, WireError> {
            let frame = self.rx.lock().unwrap().pop_front();
            match frame {
                Some(f) => Msg::decode(&f[4..])
                    .map(Some)
                    .map_err(|e| WireError::Corrupt(e.to_string())),
                None if !self.alive.load(Ordering::SeqCst) => Err(WireError::Disconnected),
                None => Ok(None),
            }
        }
    }

    /// A poll result compared through its encoding (NaN-safe).
    fn polled(r: Result<Option<Msg>, WireError>) -> Result<Option<Vec<u8>>, WireError> {
        r.map(|m| m.map(|m| m.encode()))
    }

    fn telemetry(node: u32, seq: u64) -> Msg {
        let f = |r: u32| f64::from_bits(seq.rotate_left(r) ^ u64::from(node));
        Msg::Telemetry {
            node,
            seq,
            report: NodeTelemetry {
                compute_s: f(3),
                comm_s: f(17),
                slack_s: f(29),
                rate: f(41),
                power_w: f(53),
            },
        }
    }

    /// One step of a random interleaving: `(endpoint, op, size, bits)`.
    /// Ops: 0–3 send a singleton, 4 sends a batch of up to 512 members,
    /// 5–8 poll, 9 hangs up (rarely drawn, so most runs stay alive long).
    fn step(
        (end, op, size, bits): (u8, u8, u16, u64),
        real: &mut [PipeWire; 2],
        oracle: &mut [OraclePipe; 2],
    ) {
        let e = usize::from(end % 2);
        let msg = |size: u16| match bits % 4 {
            0 => Msg::Hello { node: bits as u32 },
            1 => telemetry(bits as u32, bits >> 3),
            2 => Msg::Grant {
                node: bits as u32,
                seq: bits >> 7,
                tick: u64::from(size),
                watts: f64::from_bits(bits.rotate_left(9)),
            },
            _ => Msg::Nack { seq: bits },
        };
        match op {
            0..=3 => {
                let m = msg(size);
                assert_eq!(real[e].send(&m), oracle[e].send(&m));
            }
            4 => {
                let n = u64::from(size % 513);
                let m = Msg::Batch(
                    (0..n)
                        .map(|j| match (bits + j) % 3 {
                            0 => telemetry(j as u32, bits),
                            1 => Msg::Grant {
                                node: j as u32,
                                seq: bits,
                                tick: j,
                                watts: j as f64 * 0.5,
                            },
                            _ => Msg::Heartbeat { node: j as u32 },
                        })
                        .collect(),
                );
                assert_eq!(real[e].send(&m), oracle[e].send(&m));
            }
            5..=8 => assert_eq!(polled(real[e].poll()), polled(oracle[e].poll())),
            _ if bits % 16 == 0 => {
                real[e].hang_up();
                oracle[e].alive.store(false, Ordering::SeqCst);
            }
            _ => assert_eq!(polled(real[e].poll()), polled(oracle[e].poll())),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

        /// A pipe delivers exactly what the frame-queue oracle delivers,
        /// error for error, across random sends, polls and hang-ups;
        /// draining both ends afterwards still agrees.
        #[test]
        fn pipe_matches_the_frame_queue_oracle(
            steps in prop::collection::vec((any::<u8>(), 0u8..10, any::<u16>(), any::<u64>()), 0..160),
        ) {
            let (a, b) = PipeWire::pair();
            let (oa, ob) = OraclePipe::pair();
            let mut real = [a, b];
            let mut oracle = [oa, ob];
            for &s in &steps {
                step(s, &mut real, &mut oracle);
                for lane in &real[0].pipe.lanes {
                    let lane = lane.borrow();
                    prop_assert!(lane.read < lane.bytes.len() || lane.bytes.is_empty());
                    if lane.bytes.is_empty() {
                        prop_assert!(lane.bytes.capacity() <= MAX_FRAME + 4, "drained lane kept {}", lane.bytes.capacity());
                    }
                }
            }
            for e in 0..2 {
                loop {
                    let (r, o) = (polled(real[e].poll()), polled(oracle[e].poll()));
                    prop_assert_eq!(&r, &o);
                    if !matches!(r, Ok(Some(_))) {
                        break;
                    }
                }
            }
        }
    }

    #[test]
    fn pipe_delivers_in_order_and_reports_hangup() {
        let (mut a, mut b) = PipeWire::pair();
        a.send(&Msg::Hello { node: 1 }).unwrap();
        a.send(&Msg::Heartbeat { node: 1 }).unwrap();
        assert_eq!(b.poll().unwrap(), Some(Msg::Hello { node: 1 }));
        assert_eq!(b.poll().unwrap(), Some(Msg::Heartbeat { node: 1 }));
        assert_eq!(b.poll().unwrap(), None);
        a.hang_up();
        assert_eq!(b.poll(), Err(WireError::Disconnected));
        assert_eq!(
            a.send(&Msg::Hello { node: 1 }),
            Err(WireError::Disconnected)
        );
    }

    #[test]
    fn a_send_that_panics_leaves_the_pipe_usable() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let member = Msg::Heartbeat { node: 3 };
        let oversized = Msg::Batch(vec![
            member.clone();
            MAX_BATCH_FRAME / member.frame_len() + 1
        ]);
        let nested = Msg::Batch(vec![Msg::Batch(Vec::new())]);
        let (mut a, mut b) = PipeWire::pair();
        a.send(&Msg::Hello { node: 1 }).unwrap();
        for bad in [&oversized, &nested] {
            assert!(catch_unwind(AssertUnwindSafe(|| a.send(bad))).is_err());
        }
        a.send(&Msg::Hello { node: 2 }).unwrap();
        assert_eq!(b.poll().unwrap(), Some(Msg::Hello { node: 1 }));
        assert_eq!(b.poll().unwrap(), Some(Msg::Hello { node: 2 }));
        assert_eq!(b.poll().unwrap(), None);
    }

    #[test]
    fn a_lagging_consumer_holds_only_its_backlog() {
        let (mut a, mut b) = PipeWire::pair();
        let m = Msg::Heartbeat { node: 7 };
        let frame = m.frame_len();
        a.send(&m).unwrap();
        // Always one frame behind: the lane never drains.
        for _ in 0..10_000 {
            a.send(&m).unwrap();
            assert_eq!(b.poll().unwrap(), Some(m.clone()));
            let lane = a.pipe.lanes[0].borrow();
            assert!(
                lane.bytes.len() <= 3 * frame,
                "lane grew to {}",
                lane.bytes.len()
            );
        }
        assert_eq!(b.poll().unwrap(), Some(m));
        assert_eq!(b.poll().unwrap(), None);
    }

    /// The daemon's acceptor hands each connection's write half to the
    /// ticker thread, and its read half to a reader thread: the one
    /// transport that must cross threads, now that [`Wire`] does not
    /// require it.
    #[test]
    fn tcp_wire_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<TcpWire>();
    }

    /// A connected pair over loopback: the accepted end and the dialler.
    fn tcp_pair() -> (TcpStream, TcpStream) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (server, client)
    }

    #[test]
    fn a_send_that_times_out_shuts_the_socket_instead_of_tearing_a_frame() {
        use std::time::Duration;
        let (server, mut client) = tcp_pair();
        let mut wire = TcpWire::new_blocking(server, Duration::from_millis(20)).unwrap();
        let grants = |tick: u64| {
            Msg::Batch(
                (0..(MAX_BATCH_FRAME / 40) as u32)
                    .map(|node| Msg::Grant {
                        node,
                        seq: 1,
                        tick,
                        watts: 1.0,
                    })
                    .collect(),
            )
        };
        // The client reads nothing, so the socket buffers fill and one
        // send times out, most likely partway through its frame.
        let mut whole = 0;
        while wire.send(&grants(whole)).is_ok() {
            whole += 1;
            assert!(whole < 1000, "the send never timed out");
        }
        // The client starts reading: a sender that kept the connection
        // would append the next frame to the torn bytes.
        let reader = std::thread::spawn(move || {
            let mut bytes = Vec::new();
            client.read_to_end(&mut bytes).ok();
            bytes
        });
        let grant = Msg::Grant {
            node: 0,
            seq: 2,
            tick: 0,
            watts: 1.0,
        };
        assert_eq!(
            wire.send(&grant),
            Err(WireError::Disconnected),
            "a send after a failed one must not reach the peer"
        );
        drop(wire);
        let mut bytes = reader.join().unwrap();
        let frames = drain_frames(&mut bytes).expect("whole frames, then the cut");
        assert_eq!(frames.len() as u64, whole, "every whole frame arrives");
        assert!(frames
            .iter()
            .enumerate()
            .all(|(t, f)| *f == grants(t as u64)));
    }

    #[test]
    fn a_non_blocking_send_to_a_peer_that_never_reads_gives_up() {
        use std::time::Duration;
        // The connection completes in the listener's backlog, but nothing
        // ever accepts it, so no byte is read and the buffers fill.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (done, outcome) = std::sync::mpsc::channel();
        let sender = std::thread::spawn(move || {
            let mut wire = TcpWire::new(stream).unwrap();
            let batch = Msg::Batch(
                (0..(MAX_BATCH_FRAME / 40) as u32)
                    .map(|node| Msg::Grant {
                        node,
                        seq: 1,
                        tick: 1,
                        watts: 1.0,
                    })
                    .collect(),
            );
            let failed = (0..1000).find_map(|_| wire.send(&batch).err());
            done.send(failed).ok();
        });
        let failed = outcome
            .recv_timeout(Duration::from_secs(5))
            .expect("the send still spins on a peer that never reads");
        assert_eq!(failed, Some(WireError::Disconnected));
        sender.join().unwrap();
        drop(listener);
    }

    #[test]
    fn frames_that_arrive_with_the_fin_are_delivered_before_the_disconnect() {
        use std::net::Shutdown;
        let (mut server, client) = tcp_pair();
        let grant = |seq: u64| Msg::Grant {
            node: 3,
            seq,
            tick: seq,
            watts: 50.0,
        };
        server.write_all(&grant(1).encode()).unwrap();
        server.write_all(&grant(2).encode()).unwrap();
        server.shutdown(Shutdown::Write).unwrap();
        // Let both frames and the FIN land before the first poll.
        std::thread::sleep(std::time::Duration::from_millis(50));
        let mut wire = TcpWire::new(client).unwrap();
        assert_eq!(wire.poll(), Ok(Some(grant(1))));
        assert_eq!(wire.poll(), Ok(Some(grant(2))));
        assert_eq!(wire.poll(), Err(WireError::Disconnected));
    }

    #[test]
    fn clean_fault_plan_is_a_pass_through() {
        let (a, mut b) = PipeWire::pair();
        let mut f = FaultyWire::new(a, WireFaultPlan::clean(9));
        for i in 0..50 {
            f.send(&Msg::Nack { seq: i }).unwrap();
        }
        for i in 0..50 {
            assert_eq!(b.poll().unwrap(), Some(Msg::Nack { seq: i }));
        }
        assert_eq!(f.stats(), WireFaultStats::default());
    }

    #[test]
    fn drops_and_dups_follow_the_seed() {
        let run = |seed: u64| {
            let (a, mut b) = PipeWire::pair();
            let mut f = FaultyWire::new(
                a,
                WireFaultPlan {
                    drop_prob: 0.3,
                    dup_prob: 0.2,
                    ..WireFaultPlan::clean(seed)
                },
            );
            for i in 0..200 {
                f.send(&Msg::Nack { seq: i }).unwrap();
            }
            let mut got = Vec::new();
            while let Ok(Some(m)) = b.poll() {
                got.push(m);
            }
            (got, f.stats())
        };
        let (got1, stats1) = run(7);
        let (got2, stats2) = run(7);
        assert_eq!(got1, got2, "same seed, same fault schedule");
        assert!(stats1.dropped > 20 && stats1.dropped < 120, "{stats1:?}");
        assert!(stats1.duplicated > 5, "{stats1:?}");
        assert_eq!(stats1, stats2);
        let (got3, _) = run(8);
        assert_ne!(got1, got3, "different seeds decorrelate");
    }

    #[test]
    fn partition_silences_without_disconnecting() {
        let (a, mut b) = PipeWire::pair();
        let mut f = FaultyWire::new(a, WireFaultPlan::clean(3).partition(FaultWindow::new(2, 5)));
        // Poll twice to enter the window at polls=2.
        assert_eq!(f.poll().unwrap(), None);
        assert_eq!(f.poll().unwrap(), None);
        f.send(&Msg::Hello { node: 4 }).unwrap();
        assert_eq!(b.poll().unwrap(), None, "send swallowed by partition");
        assert_eq!(f.stats().partitioned, 1);
        // The peer sends during the window: held invisible, no error.
        b.send(&Msg::Busy { retry_after: 1 }).unwrap();
        assert_eq!(f.poll().unwrap(), None);
        assert_eq!(f.poll().unwrap(), None);
        // Window over (polls = 5): traffic resumes.
        assert_eq!(f.poll().unwrap(), Some(Msg::Busy { retry_after: 1 }));
    }

    #[test]
    fn delayed_messages_arrive_later_in_order() {
        let (a, mut b) = PipeWire::pair();
        let mut f = FaultyWire::new(
            a,
            WireFaultPlan {
                delay_prob: 1.0,
                max_delay_polls: 2,
                ..WireFaultPlan::clean(1)
            },
        );
        f.send(&Msg::Nack { seq: 1 }).unwrap();
        f.send(&Msg::Nack { seq: 2 }).unwrap();
        assert_eq!(b.poll().unwrap(), None, "both held");
        let mut got = Vec::new();
        for _ in 0..6 {
            let _ = f.poll();
            while let Ok(Some(m)) = b.poll() {
                got.push(m);
            }
        }
        assert_eq!(got, vec![Msg::Nack { seq: 1 }, Msg::Nack { seq: 2 }]);
        assert_eq!(f.stats().delayed, 2);
    }
}
