//! The long-running daemon: an [`ArbiterService`] behind a TCP listener.
//!
//! Plain threads over `std::net`, no async runtime: an accept thread
//! spawns one reader per connection, every reader parks on a *blocking*
//! read (with a timeout so it can notice shutdown) and stages inbound
//! messages into its own per-connection inbox, and a ticker thread
//! drives [`ArbiterService::tick`] on a fixed period. The ticker is the
//! only thread that touches the service: it drains every inbox, takes
//! the service lock exactly once per tick, ingests the staged traffic,
//! ticks, and then routes the resulting grants back — grouped into one
//! [`Msg::Batch`] frame per connection, so a connection multiplexing
//! many producers costs one syscall per tick instead of one per node.
//! The service object is the single source of truth; the threads are
//! plumbing, so every robustness property lives in the deterministic
//! core where the tests can reach it.
//!
//! [`Daemon::kill`] is deliberately abrupt — it drops the listener and
//! lets connections die without any state flush — because the crash
//! story the chaos tests exercise is `kill -9`, not a polite shutdown:
//! durability must come from the write-ahead snapshots alone.

use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::proto::Msg;
use crate::service::{ArbiterService, ServiceStats};
use crate::wire::{TcpWire, Wire, WireError};

use nrm::Backoff;

/// Route table: node id → the write half of its most recent Hello.
type Routes = Arc<Mutex<HashMap<u32, Arc<Mutex<TcpWire>>>>>;

/// How long a reader parks in `read(2)` before re-checking the stop
/// flag. Bounds shutdown latency; idle connections cost no CPU.
const READ_TIMEOUT: Duration = Duration::from_millis(20);

/// How long a send may park before the peer is declared dead.
const WRITE_TIMEOUT: Duration = Duration::from_millis(250);

/// Per-connection staged-message cap; overflow drops the newest message
/// (producers resend telemetry every tick, so a drop heals on the next
/// report, exactly like a lost datagram).
const INBOX_DEPTH: usize = 8192;

/// Cap (in [`ACCEPT_QUANTUM`]s) for the acceptor's idle backoff.
const ACCEPT_BACKOFF_CAP: u32 = 8;

/// The acceptor sleeps `quantum × Backoff::record_failure()` when no
/// connection is pending, so an idle listener decays toward ~4 ms polls
/// while a connect burst is drained at full speed after one `reset`.
const ACCEPT_QUANTUM: Duration = Duration::from_micros(500);

/// One live connection as the ticker sees it: the write half for
/// replies, the staged inbound traffic, and a liveness flag the reader
/// clears on its way out.
struct Conn {
    wire: Arc<Mutex<TcpWire>>,
    inbox: Arc<Mutex<Vec<Msg>>>,
    alive: Arc<AtomicBool>,
}

type Conns = Arc<Mutex<Vec<Conn>>>;

/// A running daemon and its control handle.
pub struct Daemon {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    service: Arc<Mutex<ArbiterService>>,
    dropped: Arc<AtomicU64>,
    threads: Vec<JoinHandle<()>>,
}

impl Daemon {
    /// Serve `service` on `listener`, ticking every `tick_period`.
    pub fn spawn(
        listener: TcpListener,
        service: ArbiterService,
        tick_period: Duration,
    ) -> std::io::Result<Daemon> {
        Daemon::spawn_shared(listener, Arc::new(Mutex::new(service)), tick_period)
    }

    /// Serve an externally-owned service handle, ticking every
    /// `tick_period`. A sharded deployment uses this to keep the
    /// coordinator's grip on each shard's service while the daemon moves
    /// its bytes.
    pub fn spawn_shared(
        listener: TcpListener,
        service: Arc<Mutex<ArbiterService>>,
        tick_period: Duration,
    ) -> std::io::Result<Daemon> {
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let routes: Routes = Arc::new(Mutex::new(HashMap::new()));
        let conns: Conns = Arc::new(Mutex::new(Vec::new()));
        let dropped = Arc::new(AtomicU64::new(0));
        let mut threads = Vec::new();

        // Ticker: the arbitration heartbeat, and the only service user.
        {
            let stop = stop.clone();
            let service = service.clone();
            let routes = routes.clone();
            let conns = conns.clone();
            threads.push(std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    std::thread::sleep(tick_period);

                    // Stage: swap each connection's inbox out under its
                    // own tiny lock; prune connections whose reader left.
                    let mut staged: Vec<(Arc<Mutex<TcpWire>>, Vec<Msg>)> = Vec::new();
                    {
                        let mut table = conns.lock().unwrap();
                        table.retain(|c| c.alive.load(Ordering::SeqCst));
                        for c in table.iter() {
                            let msgs = std::mem::take(&mut *c.inbox.lock().unwrap());
                            if !msgs.is_empty() {
                                staged.push((c.wire.clone(), msgs));
                            }
                        }
                    }

                    // The service lock is taken once per tick, not once
                    // per message: readers never contend on it at all.
                    let mut immediate: Vec<(Arc<Mutex<TcpWire>>, Vec<Msg>)> = Vec::new();
                    let grants = {
                        let mut svc = service.lock().unwrap();
                        for (wire, msgs) in staged {
                            let mut replies = Vec::new();
                            for m in msgs {
                                replies.extend(svc.ingest(m));
                            }
                            if !replies.is_empty() {
                                immediate.push((wire, replies));
                            }
                        }
                        svc.tick()
                    };

                    for (wire, replies) in immediate {
                        send_batched(&wire, replies);
                    }
                    route_replies(&routes, &grants);
                }
            }));
        }

        // Acceptor: one reader thread per connection, jittered
        // exponential backoff while the queue is empty.
        {
            let stop = stop.clone();
            let routes = routes.clone();
            let conns = conns.clone();
            let dropped = dropped.clone();
            let mut backoff = Backoff::new(ACCEPT_BACKOFF_CAP, addr.port() as u64);
            threads.push(std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            backoff.reset();
                            spawn_reader(
                                stream,
                                stop.clone(),
                                routes.clone(),
                                conns.clone(),
                                dropped.clone(),
                            );
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => {
                            std::thread::sleep(ACCEPT_QUANTUM * backoff.record_failure());
                        }
                        Err(_) => break,
                    }
                }
            }));
        }

        Ok(Daemon {
            addr,
            stop,
            service,
            dropped,
            threads,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A point-in-time copy of the service counters.
    pub fn stats(&self) -> ServiceStats {
        self.service.lock().unwrap().stats()
    }

    /// Current grants, W.
    pub fn grants(&self) -> Vec<f64> {
        self.service.lock().unwrap().grants().to_vec()
    }

    /// Messages dropped on inbox overflow since spawn.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::SeqCst)
    }

    /// The shared service handle (a sharded coordinator holds its own
    /// clone; this one is for tests and tooling).
    pub fn service(&self) -> Arc<Mutex<ArbiterService>> {
        self.service.clone()
    }

    /// Simulated `kill -9`: stop every thread without flushing anything
    /// beyond what the write-ahead snapshots already persisted.
    pub fn kill(self) {
        drop(self);
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for t in self.threads.drain(..) {
            t.join().ok();
        }
    }
}

/// Send `replies` down one wire as a single frame: one message goes as
/// itself, several are wrapped in a [`Msg::Batch`]. Replies that are
/// already batches (the service folds a batched ingest's replies) are
/// flattened first — batches do not nest on the wire.
fn send_batched(wire: &Arc<Mutex<TcpWire>>, replies: Vec<Msg>) {
    let mut flat: Vec<Msg> = Vec::with_capacity(replies.len());
    for r in replies {
        match r {
            Msg::Batch(members) => flat.extend(members),
            m => flat.push(m),
        }
    }
    // A dead route is cleaned up by its reader thread; a failed send
    // here just means the client reconnects and re-Hellos.
    let mut w = wire.lock().unwrap();
    if flat.len() == 1 {
        w.send(&flat[0]).ok();
    } else if !flat.is_empty() {
        w.send(&Msg::Batch(flat)).ok();
    }
}

/// Deliver a tick's grants: group by destination wire, one batched
/// frame per connection.
fn route_replies(routes: &Routes, replies: &[Msg]) {
    if replies.is_empty() {
        return;
    }
    let mut order: Vec<Arc<Mutex<TcpWire>>> = Vec::new();
    let mut groups: HashMap<usize, Vec<Msg>> = HashMap::new();
    {
        let table = routes.lock().unwrap();
        for msg in replies {
            let Msg::Grant { node, .. } = msg else {
                continue;
            };
            let Some(wire) = table.get(node) else {
                continue;
            };
            let key = Arc::as_ptr(wire) as usize;
            groups
                .entry(key)
                .or_insert_with(|| {
                    order.push(wire.clone());
                    Vec::new()
                })
                .push(msg.clone());
        }
    }
    for wire in order {
        let key = Arc::as_ptr(&wire) as usize;
        if let Some(msgs) = groups.remove(&key) {
            send_batched(&wire, msgs);
        }
    }
}

fn spawn_reader(
    stream: TcpStream,
    stop: Arc<AtomicBool>,
    routes: Routes,
    conns: Conns,
    dropped: Arc<AtomicU64>,
) {
    // The reader exclusively owns the blocking read half; the write
    // half goes behind a mutex shared with the ticker. Timeouts live on
    // the shared socket, so the split preserves them.
    let Ok(mut rd) = TcpWire::new_blocking(stream, READ_TIMEOUT, WRITE_TIMEOUT) else {
        return;
    };
    let Ok(wr) = rd.split() else {
        return;
    };
    let wire = Arc::new(Mutex::new(wr));
    let inbox = Arc::new(Mutex::new(Vec::new()));
    let alive = Arc::new(AtomicBool::new(true));
    conns.lock().unwrap().push(Conn {
        wire: wire.clone(),
        inbox: inbox.clone(),
        alive: alive.clone(),
    });
    std::thread::spawn(move || {
        let mut my_nodes: Vec<u32> = Vec::new();
        while !stop.load(Ordering::SeqCst) {
            match rd.poll() {
                Ok(Some(msg)) => {
                    register_hellos(&msg, &routes, &wire, &mut my_nodes);
                    let mut q = inbox.lock().unwrap();
                    if q.len() < INBOX_DEPTH {
                        q.push(msg);
                    } else {
                        dropped.fetch_add(1, Ordering::SeqCst);
                    }
                }
                // Read timeout: nothing arrived, loop re-checks stop.
                Ok(None) => {}
                Err(WireError::Disconnected) | Err(WireError::Corrupt(_)) => break,
            }
        }
        alive.store(false, Ordering::SeqCst);
        // Drop our routes so grants stop chasing a dead socket.
        let mut table = routes.lock().unwrap();
        for node in my_nodes {
            if table.get(&node).is_some_and(|w| Arc::ptr_eq(w, &wire)) {
                table.remove(&node);
            }
        }
    });
}

/// Route registration happens on the reader (not the ticker) so a Hello
/// and the grants it provokes can never race: by the time the staged
/// Hello is ingested, its route already exists. Batched Hellos count.
fn register_hellos(
    msg: &Msg,
    routes: &Routes,
    wire: &Arc<Mutex<TcpWire>>,
    my_nodes: &mut Vec<u32>,
) {
    let mut register = |node: u32| {
        routes.lock().unwrap().insert(node, wire.clone());
        if !my_nodes.contains(&node) {
            my_nodes.push(node);
        }
    };
    match msg {
        Msg::Hello { node } => register(*node),
        Msg::Batch(members) => {
            for m in members {
                if let Msg::Hello { node } = m {
                    register(*node);
                }
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Connector, GrantClient};
    use crate::service::ServiceConfig;
    use cluster::{ArbiterConfig, BudgetArbiter, NodeTelemetry, Policy, PowerArbiter};

    fn service(n: usize) -> ArbiterService {
        let arbiter: Box<dyn BudgetArbiter> = Box::new(PowerArbiter::new(
            ArbiterConfig {
                budget_w: 100.0 * n as f64,
                min_cap_w: 40.0,
                max_cap_w: 130.0,
                policy: Policy::ProgressFeedback { gain: 1.0 },
            },
            n,
        ));
        ArbiterService::new(
            arbiter,
            ServiceConfig {
                snapshot_every: 0,
                ..ServiceConfig::default()
            },
        )
    }

    fn tcp_connector(addr: SocketAddr) -> Connector {
        crate::client::tcp_connector(addr, Duration::from_millis(250))
    }

    #[test]
    fn grants_flow_over_real_sockets() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let daemon = Daemon::spawn(listener, service(2), Duration::from_millis(5)).unwrap();

        let mut clients: Vec<GrantClient> = (0..2u32)
            .map(|i| GrantClient::new(i, tcp_connector(daemon.addr()), 32, i as u64))
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
        let daemon = Daemon::spawn(listener, service(1), Duration::from_millis(5)).unwrap();
        let addr = daemon.addr();
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
        let daemon2 = Daemon::spawn(listener, service(1), Duration::from_millis(5)).unwrap();
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
        let daemon = Daemon::spawn(listener, service(4), Duration::from_millis(5)).unwrap();

        let stream = TcpStream::connect_timeout(&daemon.addr(), Duration::from_millis(250))
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
}
