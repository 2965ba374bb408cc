//! The long-running daemon: a [`ShardedService`] behind one TCP
//! listener per shard.
//!
//! Plain threads over `std::net`, no async runtime:
//! - one acceptor polls every listener; a connection accepted on
//!   `listeners[i]` speaks shard `i`'s shard-local node ids;
//! - one reader per connection parks on a *blocking* read (with a
//!   timeout so it can notice shutdown) and only stages what it reads
//!   into that connection's inbox;
//! - one ticker owns the service, every write half and the route table.
//!   Every `tick_period` it drains the inboxes, ingests the staged
//!   traffic (routing each Hello's node to its connection as it ingests
//!   that Hello), runs one [`ShardedService::tick`], and sends each
//!   connection its replies and grants as one frame, so a connection
//!   multiplexing many producers costs one syscall per tick.
//!
//! The ticker runs the lockstep tick itself, so the live daemon
//! re-splits the machine budget on the schedule the tests pin: every
//! `outer_period`-th tick, between `begin_tick` and `finish_tick`. The
//! threads are plumbing; every robustness property lives in the
//! deterministic core where the tests can reach it.
//!
//! [`Daemon::kill`] is deliberately abrupt — it drops the listeners and
//! lets connections die without any state flush — because the crash
//! story the chaos tests exercise is `kill -9`, not a polite shutdown:
//! durability must come from the write-ahead snapshots alone.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::proto::{Msg, MAX_BATCH_FRAME};
use crate::sharded::ShardedService;
use crate::wire::{TcpWire, Wire};

use nrm::Backoff;

/// How long a reader parks in `read(2)` before re-checking the stop
/// flag. Bounds shutdown latency; idle connections cost no CPU.
const READ_TIMEOUT: Duration = Duration::from_millis(20);

/// Per-connection staged-message cap; overflow drops the newest message
/// (producers resend telemetry every tick, so a drop heals on the next
/// report, exactly like a lost datagram).
const INBOX_DEPTH: usize = 8192;

/// Cap (in [`ACCEPT_QUANTUM`]s) for the acceptor's idle backoff.
const ACCEPT_BACKOFF_CAP: u32 = 8;

/// The acceptor sleeps `quantum × Backoff::record_failure()` after a
/// sweep that accepted nothing, so idle listeners decay toward ~4 ms
/// polls while a connect burst is drained at full speed after one
/// `reset`.
const ACCEPT_QUANTUM: Duration = Duration::from_micros(500);

/// Replies per outbound frame. A grant (33 bytes) is the largest reply
/// and a batch spends 5 payload bytes on its tag and count, so this
/// many always fit under [`MAX_BATCH_FRAME`]; a connection owed more
/// (a peer can send ~100k Hellos in one frame) gets several frames.
const REPLIES_PER_FRAME: usize = (MAX_BATCH_FRAME - 5) / 33;

/// One live connection: its shard, the write half the ticker replies
/// on, the inbox its reader stages into, the reader itself (which ends
/// with the connection), and the replies owed this tick.
struct Conn {
    /// Acceptance order; routes name connections by it.
    id: u64,
    shard: usize,
    wire: TcpWire,
    inbox: Arc<Mutex<Vec<Msg>>>,
    reader: JoinHandle<()>,
    out: Vec<Msg>,
    /// The reader ended or a send failed: the connection goes at the
    /// end of the tick.
    gone: bool,
}

impl Conn {
    /// Send the replies owed this tick, one frame per
    /// [`REPLIES_PER_FRAME`]: a lone reply goes as itself, several as a
    /// [`Msg::Batch`]. A failed send marks the connection dead; the wire
    /// has already shut the socket, so its reader leaves too, and the
    /// client reconnects and re-Hellos.
    fn flush(&mut self) {
        for chunk in self.out.chunks(REPLIES_PER_FRAME) {
            let sent = match chunk {
                [one] => self.wire.send(one),
                many => self.wire.send(&Msg::Batch(many.to_vec())),
            };
            if sent.is_err() {
                self.gone = true;
                break;
            }
        }
        self.out.clear();
    }
}

/// The ticker: the arbitration heartbeat, and the only thread that
/// touches the service, a write half or the route table.
/// `routes[shard][node]` is the id of the connection whose Hello for
/// shard-local `node` was ingested last; `conns` stay in id order.
fn run_ticker(
    mut service: ShardedService,
    accepted: &Mutex<Vec<Conn>>,
    stop: &AtomicBool,
    tick_period: Duration,
) -> ShardedService {
    let mut conns: Vec<Conn> = Vec::new();
    let mut routes: Vec<Vec<Option<u64>>> = service
        .spans()
        .iter()
        .map(|s| vec![None; s.len()])
        .collect();
    while !stop.load(Ordering::SeqCst) {
        std::thread::sleep(tick_period);
        conns.append(&mut accepted.lock().expect(UNPOISONED));
        for c in &mut conns {
            // Checked before the drain, so whatever a reader staged
            // before it ended is ingested before its connection goes.
            c.gone |= c.reader.is_finished();
            let msgs = std::mem::take(&mut *c.inbox.lock().expect(UNPOISONED));
            for msg in &msgs {
                register_hellos(msg, &mut routes[c.shard], c.id);
                service.ingest_into(c.shard, msg, &mut c.out);
            }
        }
        for (shard, grants) in service.tick().into_iter().enumerate() {
            for grant in grants {
                let Msg::Grant { node, .. } = grant else {
                    continue;
                };
                // A route outlives its connection until the node's next
                // Hello; a grant for it is dropped, as the client is gone.
                let Some(id) = routes[shard][node as usize] else {
                    continue;
                };
                if let Ok(i) = conns.binary_search_by_key(&id, |c| c.id) {
                    conns[i].out.push(grant);
                }
            }
        }
        for c in &mut conns {
            c.flush();
        }
        // A failed send shut the socket its reader reads, so that
        // reader is leaving too.
        for c in conns.extract_if(.., |c| c.gone) {
            c.reader.join().ok();
        }
    }
    // Each reader re-checks `stop` within READ_TIMEOUT.
    for c in conns {
        c.reader.join().ok();
    }
    service
}

/// Why a lock cannot be poisoned: no thread panics while holding an
/// inbox or the accepted list.
const UNPOISONED: &str = "no thread panics holding a daemon lock";

/// Point each Hello's node, batched or not, at connection `id`. Node
/// ids come off the wire: one outside the shard's span registers
/// nothing (the service NACKs its Hello).
fn register_hellos(msg: &Msg, routes: &mut [Option<u64>], id: u64) {
    let members = match msg {
        Msg::Batch(members) => members.as_slice(),
        m => std::slice::from_ref(m),
    };
    for m in members {
        if let Msg::Hello { node } = m {
            if let Some(route) = routes.get_mut(*node as usize) {
                *route = Some(id);
            }
        }
    }
}

/// A running daemon and its control handle.
pub struct Daemon {
    addrs: Vec<SocketAddr>,
    stop: Arc<AtomicBool>,
    dropped: Arc<AtomicU64>,
    /// Connections set up by the acceptor, not yet adopted by the
    /// ticker, in acceptance (id) order.
    accepted: Arc<Mutex<Vec<Conn>>>,
    acceptor: Option<JoinHandle<()>>,
    ticker: Option<JoinHandle<ShardedService>>,
}

impl Daemon {
    /// Serve `service`'s shard `i` on `listeners[i]`, ticking every
    /// `tick_period`. A one-shard service is the unsharded daemon.
    ///
    /// # Errors
    /// `InvalidInput` when the listener and shard counts differ, or the
    /// error of reading a listener's address or making it non-blocking.
    pub fn spawn(
        listeners: Vec<TcpListener>,
        service: ShardedService,
        tick_period: Duration,
    ) -> std::io::Result<Daemon> {
        let shards = service.spans().len();
        if listeners.len() != shards {
            let why = format!("{} listeners for {shards} shards", listeners.len());
            return Err(std::io::Error::new(std::io::ErrorKind::InvalidInput, why));
        }
        let mut addrs = Vec::with_capacity(listeners.len());
        for l in &listeners {
            addrs.push(l.local_addr()?);
            l.set_nonblocking(true)?;
        }
        let stop = Arc::new(AtomicBool::new(false));
        let accepted = Arc::new(Mutex::new(Vec::new()));
        let dropped = Arc::new(AtomicU64::new(0));

        let ticker = {
            let (stop, accepted) = (stop.clone(), accepted.clone());
            std::thread::spawn(move || run_ticker(service, &accepted, &stop, tick_period))
        };

        // Acceptor: one reader thread per connection, jittered
        // exponential backoff after a sweep that accepted nothing. An
        // accept error (`ECONNABORTED`, `EMFILE`, …) counts as nothing
        // pending: the listener is retried after the backoff.
        let acceptor = {
            let (stop, dropped) = (stop.clone(), dropped.clone());
            let accepted = accepted.clone();
            let mut backoff = Backoff::new(ACCEPT_BACKOFF_CAP, addrs[0].port() as u64);
            std::thread::spawn(move || {
                let mut next_id = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    let mut idle = true;
                    for (shard, listener) in listeners.iter().enumerate() {
                        if let Ok((stream, _)) = listener.accept() {
                            idle = false;
                            next_id += 1;
                            let conn = spawn_reader(stream, next_id, shard, &stop, &dropped);
                            // A connection whose reader could not start
                            // is dropped, and its client redials.
                            if let Ok(conn) = conn {
                                accepted.lock().expect(UNPOISONED).push(conn);
                            }
                        }
                    }
                    if idle {
                        std::thread::sleep(ACCEPT_QUANTUM * backoff.record_failure());
                    } else {
                        backoff.reset();
                    }
                }
            })
        };

        Ok(Daemon {
            addrs,
            stop,
            dropped,
            accepted,
            acceptor: Some(acceptor),
            ticker: Some(ticker),
        })
    }

    /// The bound addresses, in shard order (useful with port 0).
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// Messages dropped on inbox overflow since spawn.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::SeqCst)
    }

    /// Stop every thread and hand back the service as the last tick
    /// left it; `None` when the ticker panicked (for instance on the
    /// machine-wide Σ grants ≤ budget assertion).
    pub fn shutdown(mut self) -> Option<ShardedService> {
        self.halt()
    }

    /// Simulated `kill -9`: stop every thread without flushing anything
    /// beyond what the write-ahead snapshots already persisted.
    pub fn kill(self) {
        drop(self);
    }

    /// Stop and join every thread: the acceptor, then the ticker
    /// (which joins the readers it adopted), then the readers of the
    /// connections it had not adopted yet.
    fn halt(&mut self) -> Option<ShardedService> {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(a) = self.acceptor.take() {
            a.join().ok();
        }
        let service = self.ticker.take()?.join().ok();
        // `Drop` runs this, so a poisoned list is skipped, not a panic.
        if let Ok(mut unadopted) = self.accepted.lock() {
            for c in unadopted.drain(..) {
                c.reader.join().ok();
            }
        }
        service
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.halt();
    }
}

/// Start connection `id`'s reader: it exclusively owns the blocking
/// read half and stages what it reads into the inbox; the write half
/// goes to the ticker inside the returned [`Conn`]. Timeouts live on
/// the shared socket, so the split preserves them.
fn spawn_reader(
    stream: TcpStream,
    id: u64,
    shard: usize,
    stop: &Arc<AtomicBool>,
    dropped: &Arc<AtomicU64>,
) -> std::io::Result<Conn> {
    let mut rd = TcpWire::new_blocking(stream, READ_TIMEOUT)?;
    let wire = rd.split()?;
    let inbox = Arc::new(Mutex::new(Vec::new()));
    let reader = {
        let (stop, dropped) = (stop.clone(), dropped.clone());
        let inbox = inbox.clone();
        std::thread::Builder::new().spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                match rd.poll() {
                    Ok(Some(msg)) => {
                        let mut q = inbox.lock().expect(UNPOISONED);
                        if q.len() < INBOX_DEPTH {
                            q.push(msg);
                        } else {
                            dropped.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                    // Read timeout: nothing arrived, loop re-checks stop.
                    Ok(None) => {}
                    Err(_) => break,
                }
            }
        })?
    };
    Ok(Conn {
        id,
        shard,
        wire,
        inbox,
        reader,
        out: Vec::new(),
        gone: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Connector, GrantClient};
    use crate::service::{ArbiterService, ServiceConfig};
    use cluster::{ArbiterConfig, BudgetArbiter, NodeTelemetry, Policy, PowerArbiter};

    fn service(n: usize) -> ShardedService {
        let cfg = ArbiterConfig {
            budget_w: 100.0 * n as f64,
            min_cap_w: 40.0,
            max_cap_w: 130.0,
            policy: Policy::ProgressFeedback { gain: 1.0 },
        };
        ShardedService::new(&cfg, n, 1, 1, &mut |_, cfg, k| {
            let arbiter: Box<dyn BudgetArbiter> = Box::new(PowerArbiter::new(cfg, k));
            ArbiterService::new(
                arbiter,
                ServiceConfig {
                    snapshot_every: 0,
                    ..ServiceConfig::default()
                },
            )
        })
    }

    fn tcp_connector(addr: SocketAddr) -> Connector {
        crate::client::tcp_connector(addr, Duration::from_millis(250))
    }

    /// A raw non-blocking client connection to `addr`.
    fn raw(addr: SocketAddr) -> TcpWire {
        let stream =
            TcpStream::connect_timeout(&addr, Duration::from_millis(250)).expect("connect");
        TcpWire::new(stream).expect("wire")
    }

    /// Every message `wire` has ready, batches unpacked.
    fn drain(wire: &mut TcpWire) -> Vec<Msg> {
        let mut got = Vec::new();
        while let Ok(Some(msg)) = wire.poll() {
            match msg {
                Msg::Batch(ms) => got.extend(ms),
                m => got.push(m),
            }
        }
        got
    }

    fn telemetry(node: u32, seq: u64) -> Msg {
        Msg::Telemetry {
            node,
            seq,
            report: NodeTelemetry::compute_only(1.0 + node as f64, 1.0, 95.0),
        }
    }

    #[test]
    fn grants_flow_over_real_sockets() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let daemon = Daemon::spawn(vec![listener], service(2), Duration::from_millis(5)).unwrap();

        let mut clients: Vec<GrantClient> = (0..2u32)
            .map(|i| GrantClient::new(i, tcp_connector(daemon.addrs()[0]), 32, i as u64))
            .collect();

        // Everyone reports until a joint round funds the critical path
        // (node 1): one-shot sends can land in different ticks, so keep
        // the telemetry flowing.
        let times = [0.5, 2.0];
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            for (i, c) in clients.iter_mut().enumerate() {
                c.advance();
                c.send_report(&NodeTelemetry::compute_only(times[i], 1.0 / times[i], 95.0));
            }
            if let (Some(g0), Some(g1)) = (clients[0].last_grant(), clients[1].last_grant()) {
                if g1 > g0 {
                    assert!(g0 + g1 <= 200.0 + 1e-6);
                    break;
                }
            }
            assert!(
                std::time::Instant::now() < deadline,
                "critical node must be funded over the wire: {:?} vs {:?}",
                clients[0].last_grant(),
                clients[1].last_grant()
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        daemon.kill();
    }

    #[test]
    fn client_survives_a_daemon_kill_and_redials() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let daemon = Daemon::spawn(vec![listener], service(1), Duration::from_millis(5)).unwrap();
        let addr = daemon.addrs()[0];
        let mut c = GrantClient::new(0, tcp_connector(addr), 8, 3);
        c.send_report(&NodeTelemetry::compute_only(1.0, 1.0, 90.0));
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while c.last_grant().is_none() && std::time::Instant::now() < deadline {
            c.advance();
            c.send_report(&NodeTelemetry::compute_only(1.0, 1.0, 90.0));
            std::thread::sleep(Duration::from_millis(2));
        }
        let held = c.last_grant().expect("grant before the crash");

        daemon.kill();
        // The outage: sends fail, the grant holds.
        for _ in 0..20 {
            c.advance();
            c.send_report(&NodeTelemetry::compute_only(1.0, 1.0, 90.0));
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(c.last_grant(), Some(held), "hold-last-grant through crash");

        // Restart on the same port; the client redials through backoff.
        let listener = match TcpListener::bind(addr) {
            Ok(l) => l,
            // The OS may hold the port in TIME_WAIT; don't fail the test
            // on environment noise.
            Err(_) => return,
        };
        let daemon2 = Daemon::spawn(vec![listener], service(1), Duration::from_millis(5)).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !c.connected() && std::time::Instant::now() < deadline {
            c.advance();
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(c.connected(), "client must redial the restarted daemon");
        assert!(c.stats().connects >= 2);
        daemon2.kill();
    }

    #[test]
    fn one_connection_multiplexes_many_nodes_with_batched_grants() {
        // Four producers share one TCP connection: a batched Hello+
        // telemetry frame up, one batched grant frame back per tick.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let daemon = Daemon::spawn(vec![listener], service(4), Duration::from_millis(5)).unwrap();

        let stream = TcpStream::connect_timeout(&daemon.addrs()[0], Duration::from_millis(250))
            .expect("connect");
        let mut wire = TcpWire::new(stream).expect("wire");
        let hello = Msg::Batch((0..4).map(|node| Msg::Hello { node }).collect());
        wire.send(&hello).expect("hello batch");

        let mut grants = vec![None::<f64>; 4];
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let mut seq = 1;
        while grants.iter().any(Option::is_none) {
            let report = Msg::Batch(
                (0..4u32)
                    .map(|node| Msg::Telemetry {
                        node,
                        seq,
                        report: NodeTelemetry::compute_only(1.0 + node as f64, 1.0, 95.0),
                    })
                    .collect(),
            );
            seq += 1;
            wire.send(&report).ok();
            while let Ok(Some(msg)) = wire.poll() {
                let members = match msg {
                    Msg::Batch(ms) => ms,
                    m => vec![m],
                };
                for m in members {
                    if let Msg::Grant { node, watts, .. } = m {
                        grants[node as usize] = Some(watts);
                    }
                }
            }
            assert!(
                std::time::Instant::now() < deadline,
                "all multiplexed nodes must be granted: {grants:?}"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        let sum: f64 = grants.iter().map(|g| g.unwrap()).sum();
        assert!(sum <= 400.0 + 1e-6, "Σ grants {sum} over budget");
        daemon.kill();
    }

    #[test]
    fn a_reconnected_client_gets_its_grants_on_the_new_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let daemon = Daemon::spawn(vec![listener], service(2), Duration::from_millis(5)).unwrap();
        let addr = daemon.addrs()[0];
        let mut seq = 0;
        // Hello node 0 on a fresh connection, then report until a round
        // grant (seq > 0, not the Hello's seq-0 reply) comes back on it.
        let mut granted_on = |wire: &mut TcpWire| {
            wire.send(&Msg::Hello { node: 0 }).expect("hello");
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            loop {
                seq += 1;
                wire.send(&telemetry(0, seq)).expect("report");
                std::thread::sleep(Duration::from_millis(2));
                let round = drain(wire)
                    .into_iter()
                    .any(|m| matches!(m, Msg::Grant { node: 0, seq: s, .. } if s > 0));
                if round {
                    return;
                }
                assert!(
                    std::time::Instant::now() < deadline,
                    "node 0 must be granted on its newest connection"
                );
            }
        };
        let mut first = raw(addr);
        granted_on(&mut first);
        drop(first);
        let mut second = raw(addr);
        granted_on(&mut second);
        daemon.kill();
    }

    #[test]
    fn a_node_outside_the_span_is_nacked_and_the_ticker_keeps_serving() {
        // A 2-node shard. One connection claims nodes far outside it —
        // one frame of Hellos, answered by more NACKs (13 bytes each)
        // than one frame can carry — and reports for one of them;
        // another connection is a well-behaved node 1.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let daemon = Daemon::spawn(vec![listener], service(2), Duration::from_millis(5)).unwrap();
        let addr = daemon.addrs()[0];
        let hellos = 100_000;
        let mut rogue = raw(addr);
        let outside = (2..2 + hellos).map(|node| Msg::Hello { node });
        rogue
            .send(&Msg::Batch(outside.collect()))
            .expect("hello batch");
        rogue.send(&telemetry(u32::MAX, 7)).expect("report");

        let mut good = raw(addr);
        good.send(&Msg::Hello { node: 1 }).expect("hello");
        let (mut nacks, mut seven, mut round) = (0, false, false);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let mut seq = 0;
        while nacks < hellos || !seven || !round {
            seq += 1;
            good.send(&telemetry(1, seq)).expect("report");
            std::thread::sleep(Duration::from_millis(2));
            for m in drain(&mut rogue) {
                match m {
                    Msg::Nack { seq: 0 } => nacks += 1,
                    Msg::Nack { seq: 7 } => seven = true,
                    other => panic!("an out-of-span node got {other:?}"),
                }
            }
            round |= drain(&mut good)
                .into_iter()
                .any(|m| matches!(m, Msg::Grant { node: 1, seq: s, .. } if s > 0));
            assert!(
                std::time::Instant::now() < deadline,
                "{nacks} of {hellos} Hello NACKs, report NACK {seven}, node 1 granted {round}"
            );
        }
        assert_eq!(nacks, hellos, "one NACK per out-of-span Hello");
        daemon.kill();
    }
}
