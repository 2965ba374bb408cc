//! The two arbiter-daemon workloads: the same layers used two ways.
//!
//! - `arbiterd_sharded_100k`: 100 000 producers across four
//!   `ShardedService` shards, 64 per `PipeWire` as one batched frame per
//!   tick, the machine budget re-split every second tick. Batching
//!   amortises the wire, so ingest, per-shard redistribution and the
//!   outer coordinator dominate. One op is one outer period (two ticks),
//!   so every op holds one re-split and its time is not a coin flip
//!   between ticks with and without one.
//! - `arbiterd_durable_4k`: 4 096 producers on one shard, one wire and
//!   one frame per producer, and a write-ahead snapshot every tick. Frame
//!   encode, decode and dispatch dominate beside the snapshot writes. One
//!   op is one tick.
//!
//! Both run a benchmark-side lockstep driver that makes the server-side
//! calls `arbiterd::loadgen::run_loadgen` makes on clean wires, so its
//! Σ-grant fingerprint over the first ticks must equal `run_loadgen`'s.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use arbiterd::loadgen::{run_loadgen, synth_telemetry, LoadgenConfig};
use arbiterd::{ArbiterService, Msg, PipeWire, ServiceConfig, ServiceStats, ShardedService, Wire};
use cluster::{ArbiterConfig, BudgetArbiter, Policy, PowerArbiter};

use super::{Settings, Tally, Workload, WorkloadId};
use crate::probe::{Layer, Probe, Tracer};

/// Ticks the Σ-grant fingerprint covers.
const FINGERPRINT_TICKS: u64 = 20;
/// Untimed ticks in set-up: the Hello handshake and the first grants.
const WARMUP_TICKS: u64 = 2;
/// Where durable runs keep their snapshots, relative to the working
/// directory.
const SCRATCH: &str = ".powerbench-tmp";

fn loadgen_config(
    id: WorkloadId,
    seed: u64,
    smoke: bool,
    snapshot: Option<PathBuf>,
) -> LoadgenConfig {
    let (clients, shards, batch) = match (id, smoke) {
        (WorkloadId::ArbiterdSharded100k, false) => (100_000, 4, 64),
        (WorkloadId::ArbiterdSharded100k, true) => (2_048, 4, 64),
        (_, false) => (4_096, 1, 1),
        (_, true) => (256, 1, 1),
    };
    LoadgenConfig {
        clients,
        shards,
        batch,
        outer_period: 2,
        ticks: FINGERPRINT_TICKS,
        seed,
        service: ServiceConfig {
            queue_depth: 32_768,
            snapshot_every: u64::from(snapshot.is_some()),
            ..ServiceConfig::default()
        },
        snapshot_path: snapshot,
        record_grants: false,
        ..LoadgenConfig::default()
    }
}

/// A fresh directory under [`SCRATCH`], removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new() -> Result<Self, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = PathBuf::from(SCRATCH).join(format!(
            "{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
        // Succeeds only once the last scratch directory is gone.
        std::fs::remove_dir(SCRATCH).ok();
    }
}

/// Encoded frame sizes, measured once from the real encoder; every frame
/// this driver sends has fixed-width fields, so a frame's size follows
/// from its shape without encoding it again.
struct FrameSizes {
    hello: usize,
    telemetry: usize,
    grant: usize,
    busy: usize,
    nack: usize,
    batch_header: usize,
}

impl FrameSizes {
    fn measure() -> Self {
        let hello = Msg::Hello { node: 0 }.encode().len();
        Self {
            hello,
            telemetry: Msg::Telemetry {
                node: 0,
                seq: 0,
                report: synth_telemetry(0, 0, 0),
            }
            .encode()
            .len(),
            grant: Msg::Grant {
                node: 0,
                seq: 0,
                tick: 0,
                watts: 0.0,
            }
            .encode()
            .len(),
            busy: Msg::Busy { retry_after: 0 }.encode().len(),
            nack: Msg::Nack { seq: 0 }.encode().len(),
            batch_header: Msg::Batch(vec![Msg::Hello { node: 0 }]).encode().len() - hello,
        }
    }

    fn len(&self, msg: &Msg) -> usize {
        match msg {
            Msg::Hello { .. } | Msg::Heartbeat { .. } => self.hello,
            Msg::Telemetry { .. } => self.telemetry,
            Msg::Grant { .. } => self.grant,
            Msg::Busy { .. } => self.busy,
            Msg::Nack { .. } => self.nack,
            Msg::Batch(ms) => self.batch_header + ms.iter().map(|m| self.len(m)).sum::<usize>(),
        }
    }
}

/// `count` producers multiplexed over one wire (or one producer when
/// frames are not batched).
struct Group {
    local: u32,
    global: usize,
    count: u32,
    wire: PipeWire,
    seq: u64,
    /// Whether this tick's telemetry went out.
    sent: bool,
}

fn send<T: Tracer>(tr: &mut T, wire: &mut PipeWire, msg: &Msg, sizes: &FrameSizes) -> bool {
    if tr.on() {
        tr.add(Layer::WireFrames, 1.0);
        tr.add(Layer::ProtoBytes, sizes.len(msg) as f64);
    }
    tr.time(Layer::WireSend, || wire.send(msg)).is_ok()
}

/// One connection's consecutive grants as one frame (a singleton, or a
/// batch), draining `run` for reuse.
fn flush<T: Tracer>(
    tr: &mut T,
    conns: &mut BTreeMap<u32, PipeWire>,
    key: u32,
    run: &mut Vec<Msg>,
    sizes: &FrameSizes,
) {
    if let Some(wire) = conns.get_mut(&key) {
        if run.len() == 1 {
            send(tr, wire, &run[0], sizes);
        } else {
            let frame = Msg::Batch(std::mem::take(run));
            send(tr, wire, &frame, sizes);
            if let Msg::Batch(v) = frame {
                *run = v;
            }
        }
    }
    run.clear();
}

fn fnv1a_fold(mut h: u64, bits: u64) -> u64 {
    for b in bits.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The workload's state: the sharded service, its producers and the
/// server ends of their wires.
pub struct Arbiterd {
    cfg: LoadgenConfig,
    ticks_per_op: u64,
    sharded: ShardedService,
    groups: Vec<Group>,
    /// Per shard: conn-id (first shard-local node) → server wire end.
    conns: Vec<BTreeMap<u32, PipeWire>>,
    budget_w: f64,
    /// Ticks run so far.
    ticks: u64,
    fingerprint: u64,
    telemetry_sent: u64,
    grants_received: u64,
    sizes: FrameSizes,
    scratch: Vec<Msg>,
    grant_run: Vec<Msg>,
    immediate: Vec<(u32, Vec<Msg>)>,
    /// Dropped last, after the service that writes into it.
    dir: Option<ScratchDir>,
}

fn machine(cfg: &LoadgenConfig) -> ArbiterConfig {
    ArbiterConfig {
        budget_w: cfg.budget_per_client_w * cfg.clients as f64,
        min_cap_w: cfg.min_cap_w,
        max_cap_w: cfg.max_cap_w,
        policy: Policy::ProgressFeedback { gain: 1.0 },
    }
}

/// One shard's service, exactly as the load generator builds it.
fn shard_service(
    cfg: &LoadgenConfig,
    i: usize,
    shard_cfg: ArbiterConfig,
    k: usize,
) -> ArbiterService {
    let arbiter: Box<dyn BudgetArbiter> =
        Box::new(PowerArbiter::new(shard_cfg, k).with_tracing(false));
    let svc = ArbiterService::new(arbiter, cfg.service.clone());
    match &cfg.snapshot_path {
        Some(p) if cfg.shards == 1 => svc.with_snapshot_path(p),
        Some(p) => svc.with_snapshot_path(format!("{}.s{i}", p.display())),
        None => svc,
    }
}

impl Arbiterd {
    /// One lockstep tick: producers send, the shards ingest and tick,
    /// grants route back, producers drain them. Returns the tick's
    /// messages and how many failed.
    fn tick<T: Tracer>(&mut self, tr: &mut T) -> Tally {
        self.ticks += 1;
        let seed = self.cfg.seed;
        let batched = self.cfg.batch > 1;
        let Self {
            sharded,
            groups,
            conns,
            sizes,
            scratch,
            grant_run,
            immediate,
            ..
        } = self;

        let mut sent = 0u64;
        tr.phase("clients.send", |tr| {
            for g in groups.iter_mut() {
                g.sent = false;
                let seq = g.seq + 1;
                let msg = tr.time(Layer::LoadgenProduce, || {
                    let report =
                        |j: u32| synth_telemetry(seed, (g.global + j as usize) as u32, seq);
                    if batched {
                        let mut members = std::mem::take(scratch);
                        members.clear();
                        members.extend((0..g.count).map(|j| Msg::Telemetry {
                            node: g.local + j,
                            seq,
                            report: report(j),
                        }));
                        Msg::Batch(members)
                    } else {
                        Msg::Telemetry {
                            node: g.local,
                            seq,
                            report: report(0),
                        }
                    }
                });
                if send(tr, &mut g.wire, &msg, sizes) {
                    g.seq = seq;
                    g.sent = true;
                    sent += u64::from(g.count);
                }
                if let Msg::Batch(v) = msg {
                    *scratch = v;
                }
            }
        });

        tr.phase("server.ingest", |tr| {
            for (shard, shard_conns) in conns.iter_mut().enumerate() {
                immediate.clear();
                for (&conn, wire) in shard_conns.iter_mut() {
                    while let Ok(Some(msg)) = tr.time(Layer::WirePoll, || wire.poll()) {
                        let replies = tr.time(Layer::ShardedIngest, || sharded.ingest(shard, msg));
                        tr.add(Layer::ShardedIngestCalls, 1.0);
                        if !replies.is_empty() {
                            immediate.push((conn, replies));
                        }
                    }
                }
                for (conn, replies) in immediate.drain(..) {
                    if let Some(wire) = shard_conns.get_mut(&conn) {
                        for r in &replies {
                            send(tr, wire, r, sizes);
                        }
                    }
                }
            }
        });

        let outer = self.cfg.shards > 1 && self.ticks.is_multiple_of(self.cfg.outer_period);
        let all_replies = tr.phase("sharded.tick", |tr| {
            let start = Instant::now();
            let replies = sharded.tick();
            let secs = start.elapsed().as_secs_f64();
            tr.add(Layer::ShardedTick, secs);
            let layer = if outer {
                Layer::ShardedTickOuter
            } else {
                Layer::ShardedTickInner
            };
            tr.sample(layer, secs);
            replies
        });

        let batch = self.cfg.batch;
        tr.phase("server.route", |tr| {
            for (shard, replies) in all_replies.into_iter().enumerate() {
                let mut run = std::mem::take(grant_run);
                let mut run_key = 0u32;
                for msg in replies {
                    let Msg::Grant { node, .. } = msg else {
                        continue;
                    };
                    let key = if batch <= 1 {
                        node
                    } else {
                        (node / batch as u32) * batch as u32
                    };
                    if key != run_key && !run.is_empty() {
                        flush(tr, &mut conns[shard], run_key, &mut run, sizes);
                    }
                    run_key = key;
                    run.push(msg);
                }
                if !run.is_empty() {
                    flush(tr, &mut conns[shard], run_key, &mut run, sizes);
                }
                *grant_run = run;
            }
        });

        let sum = sharded.sum_grants();
        if self.ticks <= FINGERPRINT_TICKS {
            self.fingerprint = fnv1a_fold(self.fingerprint, sum.to_bits());
        }
        let over_budget = sum > self.budget_w + 1e-6;

        let mut failed = 0u64;
        let mut grants = 0u64;
        tr.phase("clients.drain", |tr| {
            for g in groups.iter_mut() {
                let (mut matched, mut refused, mut lost) = (0u32, false, false);
                let mut absorb = |m: Msg| match m {
                    Msg::Grant { seq, .. } if seq > 0 => {
                        grants += 1;
                        matched += u32::from(g.sent && seq == g.seq);
                    }
                    Msg::Busy { .. } | Msg::Nack { .. } => refused = true,
                    _ => {}
                };
                loop {
                    match tr.time(Layer::WirePoll, || g.wire.poll()) {
                        Ok(Some(Msg::Batch(ms))) => ms.into_iter().for_each(&mut absorb),
                        Ok(Some(m)) => absorb(m),
                        Ok(None) => break,
                        Err(_) => {
                            lost = true;
                            break;
                        }
                    }
                }
                if g.sent {
                    failed += if refused || lost || over_budget {
                        u64::from(g.count)
                    } else {
                        u64::from(g.count - matched.min(g.count))
                    };
                }
            }
        });
        tr.add(Layer::ClientGrants, grants as f64);
        self.telemetry_sent += sent;
        self.grants_received += grants;
        Tally {
            work: sent as f64,
            attempted: sent,
            failed,
        }
    }

    fn run_ticks<T: Tracer>(&mut self, tr: &mut T, ticks: u64) -> Tally {
        let mut t = Tally::default();
        for _ in 0..ticks {
            t += self.tick(tr);
        }
        t
    }
}

fn stats_delta(before: ServiceStats, after: ServiceStats) -> [(Layer, u64); 7] {
    [
        (Layer::ServiceShed, after.shed - before.shed),
        (
            Layer::ServiceRateLimited,
            after.rate_limited - before.rate_limited,
        ),
        (Layer::ServiceNacked, after.nacked - before.nacked),
        (
            Layer::ServiceDuplicates,
            after.duplicates - before.duplicates,
        ),
        (
            Layer::ServiceLeasesExpired,
            after.leases_expired - before.leases_expired,
        ),
        (Layer::ServiceRounds, after.rounds - before.rounds),
        (Layer::ServiceSnapshots, after.snapshots - before.snapshots),
    ]
}

impl Workload for Arbiterd {
    const THREADS: usize = 1;

    fn setup(id: WorkloadId, s: &Settings) -> Result<Self, String> {
        let durable = id == WorkloadId::ArbiterdDurable4k;
        let dir = durable.then(ScratchDir::new).transpose()?;
        let snapshot = dir.as_ref().map(|d| d.0.join("shard.snap"));
        let cfg = loadgen_config(id, s.seed, s.smoke, snapshot);
        let machine = machine(&cfg);
        let sharded = ShardedService::new(
            &machine,
            cfg.clients,
            cfg.shards,
            cfg.outer_period,
            &mut |i, shard_cfg, k| shard_service(&cfg, i, shard_cfg, k),
        );

        // Producers introduce themselves before the first tick, as the
        // load generator's clients do on construction.
        let mut groups = Vec::new();
        let mut conns = vec![BTreeMap::new(); cfg.shards];
        for (shard, span) in sharded.spans().iter().enumerate() {
            let mut local = 0;
            while local < span.len() {
                let count = cfg.batch.min(span.len() - local);
                let (mut client, server) = PipeWire::pair();
                let hello = if cfg.batch > 1 {
                    Msg::Batch(
                        (local..local + count)
                            .map(|node| Msg::Hello { node: node as u32 })
                            .collect(),
                    )
                } else {
                    Msg::Hello { node: local as u32 }
                };
                client.send(&hello).map_err(|e| e.to_string())?;
                conns[shard].insert(local as u32, server);
                groups.push(Group {
                    local: local as u32,
                    global: span.start + local,
                    count: count as u32,
                    wire: client,
                    seq: 0,
                    sent: false,
                });
                local += count;
            }
        }

        let mut w = Self {
            ticks_per_op: if cfg.shards > 1 { cfg.outer_period } else { 1 },
            budget_w: machine.budget_w,
            sharded,
            groups,
            conns,
            ticks: 0,
            fingerprint: 0xcbf2_9ce4_8422_2325,
            telemetry_sent: 0,
            grants_received: 0,
            sizes: FrameSizes::measure(),
            scratch: Vec::new(),
            grant_run: Vec::new(),
            immediate: Vec::new(),
            cfg,
            dir,
        };
        let warm = w.run_ticks(&mut (), WARMUP_TICKS);
        if warm.failed > 0 || warm.attempted != WARMUP_TICKS * w.cfg.clients as u64 {
            return Err(format!(
                "warm-up: {} of {} producers hold no grant for their telemetry",
                warm.failed, w.cfg.clients
            ));
        }
        Ok(w)
    }

    fn op(&mut self, _: usize) -> Tally {
        self.run_ticks(&mut (), self.ticks_per_op)
    }

    fn traced_op(&mut self, probe: &mut Probe) -> Tally {
        let before = self.sharded.stats();
        let t = self.run_ticks(probe, self.ticks_per_op);
        for (layer, n) in stats_delta(before, self.sharded.stats()) {
            probe.acc().add(layer, n as f64);
        }
        let busy = probe.acc().busy();
        let own = probe.op_elapsed() - busy;
        probe.acc().add(Layer::ArbiterdDriverSelf, own);
        t
    }

    fn finish(&mut self, probe: Option<&mut Probe>) -> Vec<String> {
        let mut problems = Vec::new();
        // Short runs tick on until the fingerprint's prefix is complete.
        let mut extra = Tally::default();
        while self.ticks < FINGERPRINT_TICKS {
            extra += self.tick(&mut ());
        }
        if extra.failed > 0 {
            problems.push(format!(
                "{} of {} messages failed in the ticks completing the fingerprint",
                extra.failed, extra.attempted
            ));
        }
        let reference_dir = match self.dir.as_ref().map(|_| ScratchDir::new()).transpose() {
            Ok(d) => d,
            Err(e) => return vec![e],
        };
        let reference = run_loadgen(&LoadgenConfig {
            snapshot_path: reference_dir.as_ref().map(|d| d.0.join("shard.snap")),
            ..self.cfg.clone()
        });
        if !reference.invariant_ok || reference.sum_fingerprint != self.fingerprint {
            problems.push(format!(
                "Σ-grant fingerprint over {FINGERPRINT_TICKS} ticks: driver {:016x}, run_loadgen {:016x} (invariant {})",
                self.fingerprint, reference.sum_fingerprint, reference.invariant_ok
            ));
        }

        // A durable shard must restore bit for bit from its last snapshot.
        let mut restore_s = 0.0;
        if self.cfg.snapshot_path.is_some() {
            let machine = machine(&self.cfg);
            let shard_cfg = ArbiterConfig {
                budget_w: self.sharded.sub_budgets()[0],
                ..machine
            };
            let mut fresh = shard_service(&self.cfg, 0, shard_cfg, self.cfg.clients);
            let start = Instant::now();
            let adopted = fresh.restore();
            restore_s = start.elapsed().as_secs_f64();
            let live = self.sharded.shard(0).grants();
            let same = fresh.grants().len() == live.len()
                && fresh
                    .grants()
                    .iter()
                    .zip(live)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            if !adopted || !same {
                problems.push(format!(
                    "snapshot restore: adopted {adopted}, grants bit-identical {same}"
                ));
            }
        }
        if let Some(p) = probe {
            p.set(Layer::SnapshotRestore, restore_s);
            p.set(
                Layer::GrantRatio,
                self.grants_received as f64 / self.telemetry_sent.max(1) as f64,
            );
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::NodeTelemetry;

    #[test]
    fn frame_sizes_match_the_encoder() {
        let sizes = FrameSizes::measure();
        let report: NodeTelemetry = synth_telemetry(3, 4, 5);
        let msgs = [
            Msg::Heartbeat { node: 9 },
            Msg::Telemetry {
                node: 7,
                seq: 11,
                report,
            },
            Msg::Batch(vec![
                Msg::Grant {
                    node: 1,
                    seq: 2,
                    tick: 3,
                    watts: 97.5,
                },
                Msg::Hello { node: 2 },
                Msg::Telemetry {
                    node: 3,
                    seq: 1,
                    report,
                },
            ]),
            Msg::Busy { retry_after: 2 },
        ];
        for m in &msgs {
            assert_eq!(sizes.len(m), m.encode().len(), "{m:?}");
        }
    }
}
