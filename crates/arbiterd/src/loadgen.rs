//! Deterministic load generator: up to 100k simulated telemetry
//! producers against one or more [`ArbiterService`] shards, with seeded
//! transport faults and an optional mid-run daemon crash.
//!
//! Everything is in-process and lockstep — clients, "network", and
//! services advance one tick at a time over [`PipeWire`] pairs — so a
//! run is a pure function of its configuration: the same seed gives the
//! same sheds, the same reconnect schedule, the same grants, bit for
//! bit. That determinism is what lets the chaos acceptance test demand
//! *bitwise* equality between a crashed-and-recovered run and an
//! uncrashed reference instead of hand-waving tolerances.
//!
//! Two scale levers beyond the original single-service generator:
//!
//! - **Sharding** (`shards > 1`): producers split across N
//!   [`ShardedService`] shards, the machine budget re-split on
//!   `outer_period` by the rack-level solver. `shards = 1` takes the
//!   single-service path untouched (bit-identical to the pre-sharding
//!   generator).
//! - **Batching** (`batch > 1`): each [`GrantClient`] speaks for a group
//!   of producers over one wire, sending one [`Msg::Batch`] of telemetry
//!   per tick instead of one frame per producer. Grants return batched
//!   the same way. The service treats a batch exactly as its members
//!   (tested bitwise), so this only changes frame count, never grants.
//!
//! The crash model mirrors `kill -9` at a tick boundary: shard
//! `crash_shard`'s endpoints hang up, its service object is dropped on
//! the floor (no flush), and a fresh service restores from the
//! write-ahead snapshot while the other shards keep serving. Clients
//! notice only through their wires dying.
//!
//! [`run_concurrent_loadgen`] is the wall-clock sibling: the same client
//! groups over TCP, driven from a thread pool with seeded jitter against
//! a live [`Daemon`] ticking the same [`ShardedService`]. It measures
//! throughput and checks Σ ≤ budget, but makes no bitwise claims —
//! lockstep mode is the bitwise-reference path.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::net::TcpListener;
use std::ops::Range;
use std::path::PathBuf;
use std::rc::Rc;
use std::time::{Duration, Instant};

use cluster::{ArbiterConfig, BudgetArbiter, ConfigError, NodeTelemetry, Policy, PowerArbiter};

use crate::client::{tcp_connector, ClientStats, GrantClient};
use crate::daemon::Daemon;
use crate::proto::Msg;
use crate::service::{ArbiterService, ServiceConfig, ServiceStats};
use crate::sharded::ShardedService;
use crate::snapshot::slot_paths;
use crate::wire::{FaultyWire, PipeWire, Wire, WireFaultPlan};

/// Transport-fault knobs for the simulated cluster.
#[derive(Debug, Clone)]
pub struct FaultKnobs {
    /// Per-message drop probability.
    pub drop_prob: f64,
    /// Per-message duplication probability.
    pub dup_prob: f64,
    /// Per-message delay probability.
    pub delay_prob: f64,
    /// Maximum delay, polls.
    pub max_delay_polls: u64,
    /// Partition `(start_tick, end_tick)` applied to every `stride`-th
    /// client (`None` = no partitions).
    pub partition: Option<(u64, u64, usize)>,
}

impl FaultKnobs {
    /// The chaos-test default: drops, dups, delays, and a partition
    /// hitting every 7th client.
    pub fn hostile() -> Self {
        Self {
            drop_prob: 0.05,
            dup_prob: 0.02,
            delay_prob: 0.10,
            max_delay_polls: 3,
            partition: Some((20, 35, 7)),
        }
    }
}

/// The most producers a run accepts: 100× the largest shipped cohort
/// (100 k). The service keeps about 56 B of per-node state per shard,
/// so a mistyped count (`--clients 100000000`) would abort in the
/// allocator instead of failing validation.
pub const MAX_CLIENTS: usize = 10_000_000;

/// One load-generation scenario.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Simulated telemetry producers (= arbiter nodes, machine-wide).
    pub clients: usize,
    /// Arbiter shards the producers are spread across (contiguous
    /// near-equal spans; 1 = the single-service legacy path).
    pub shards: usize,
    /// Producers multiplexed per wire (1 = one connection per producer,
    /// the legacy shape; >1 sends one batched frame per group per tick).
    pub batch: usize,
    /// Ticks between machine-budget re-splits across shards (ignored
    /// when `shards` is 1).
    pub outer_period: u64,
    /// Lockstep ticks to run.
    pub ticks: u64,
    /// Master seed: telemetry content, fault schedules, backoff jitter.
    pub seed: u64,
    /// Cluster budget per client, W (total budget = `clients ×` this).
    pub budget_per_client_w: f64,
    /// Per-node grant floor, W.
    pub min_cap_w: f64,
    /// Per-node grant ceiling, W.
    pub max_cap_w: f64,
    /// Service tuning (queue depth, leases, snapshot cadence, …).
    pub service: ServiceConfig,
    /// Transport faults (`None` = clean wires).
    pub faults: Option<FaultKnobs>,
    /// Kill a daemon at the start of this tick and restore it from the
    /// snapshot.
    pub crash_at: Option<u64>,
    /// The shard `crash_at` kills (the others keep serving).
    pub crash_shard: usize,
    /// Snapshot location (required for `crash_at`; `None` disables
    /// snapshotting). With `shards > 1` each shard appends `.s<i>`.
    pub snapshot_path: Option<PathBuf>,
    /// Reconnect backoff cap, ticks.
    pub backoff_cap: u32,
    /// Use one shared jitter seed for every client's backoff so a
    /// crashed cohort reconnects in lockstep — required by the bitwise
    /// recovery comparison, unrealistic for throughput runs.
    pub lockstep_backoff: bool,
    /// Record every `(seq, grant-bits)` per node in the report's
    /// `grant_log`. The bitwise tests need it; throughput benches turn
    /// it off so they measure message handling, not test bookkeeping.
    pub record_grants: bool,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self {
            clients: 64,
            shards: 1,
            batch: 1,
            outer_period: 4,
            ticks: 60,
            seed: 1,
            budget_per_client_w: 100.0,
            min_cap_w: 40.0,
            max_cap_w: 130.0,
            service: ServiceConfig::default(),
            faults: None,
            crash_at: None,
            crash_shard: 0,
            snapshot_path: None,
            backoff_cap: 8,
            lockstep_backoff: false,
            record_grants: true,
        }
    }
}

impl LoadgenConfig {
    /// Check the scale knobs, with the constraint in the error message.
    /// The `repro` CLI maps a failure here to exit code 2.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.clients == 0 {
            return Err(ConfigError::new(
                "LoadgenConfig.clients",
                "need at least one client",
            ));
        }
        if self.clients > MAX_CLIENTS {
            return Err(ConfigError::new(
                "LoadgenConfig.clients",
                format!("{} clients exceed the limit of {MAX_CLIENTS}", self.clients),
            ));
        }
        if self.shards == 0 {
            return Err(ConfigError::new(
                "LoadgenConfig.shards",
                "need at least one shard",
            ));
        }
        if self.shards > self.clients {
            return Err(ConfigError::new(
                "LoadgenConfig.shards",
                format!(
                    "cannot spread {} clients over {} shards",
                    self.clients, self.shards
                ),
            ));
        }
        if self.batch == 0 {
            return Err(ConfigError::new(
                "LoadgenConfig.batch",
                "batch must be at least 1",
            ));
        }
        if self.outer_period == 0 {
            return Err(ConfigError::new(
                "LoadgenConfig.outer_period",
                "outer period must be positive",
            ));
        }
        if self.crash_shard >= self.shards {
            return Err(ConfigError::new(
                "LoadgenConfig.crash_shard",
                format!(
                    "shard {} does not exist (shards = {})",
                    self.crash_shard, self.shards
                ),
            ));
        }
        Ok(())
    }
}

/// What a run did, in aggregate and grant-for-grant.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Clients simulated.
    pub clients: usize,
    /// Shards the clients were spread across.
    pub shards: usize,
    /// Ticks executed.
    pub ticks: u64,
    /// Total budget, W.
    pub budget_w: f64,
    /// Σ grants ≤ budget held at every observed tick, machine-wide.
    pub invariant_ok: bool,
    /// Largest Σ grants observed, W.
    pub max_sum_grants_w: f64,
    /// FNV-1a over the per-tick machine-wide Σ-grants bits: one u64
    /// carrying the whole Σ trace, printable in a CSV cell so the soak
    /// harness can diff two runs bit-for-bit without shipping logs.
    pub sum_fingerprint: u64,
    /// Telemetry messages actually handed to a wire (batch members
    /// counted individually).
    pub telemetry_sent: u64,
    /// Service counters (summed across shards and crashes).
    pub service: ServiceStats,
    /// Σ successful client (re)connections beyond each client's first.
    pub reconnects: u64,
    /// Σ reports held back client-side (hold-last-grant ticks).
    pub held_reports: u64,
    /// Σ Busy sheds observed client-side.
    pub busy_seen: u64,
    /// Ticks from the crash until every crashed-span client held a
    /// fresh post-crash grant (`None`: no crash, or recovery incomplete
    /// at run end).
    pub recovery_ticks: Option<u64>,
    /// Times a disconnected client's held grant changed (must be 0).
    pub hold_violations: u64,
    /// Per-node grant log (global node order): seq → granted watts
    /// bits. The bitwise fingerprint recovery runs are compared on.
    pub grant_log: Vec<BTreeMap<u64, u64>>,
}

impl LoadgenReport {
    /// Largest seq granted to every node (0 when some node got none).
    pub fn min_granted_seq(&self) -> u64 {
        self.grant_log
            .iter()
            .map(|m| m.keys().next_back().copied().unwrap_or(0))
            .min()
            .unwrap_or(0)
    }
}

fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

fn fnv1a_fold(h: u64, bits: u64) -> u64 {
    let mut h = h;
    for b in bits.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Synthetic telemetry, a pure function of `(seed, node, seq)` — keyed
/// by the client's own sequence, *not* wall time, so a client that
/// paused through an outage resumes producing exactly the reports the
/// uncrashed reference produced under the same seqs. `node` is always
/// the *global* id, so re-sharding never changes the workload.
pub fn synth_telemetry(seed: u64, node: u32, seq: u64) -> NodeTelemetry {
    let h = mix(seed, ((node as u64) << 32) ^ seq);
    let compute_s = 0.5 + 2.0 * unit(h);
    NodeTelemetry {
        compute_s,
        comm_s: 0.2 * unit(mix(h, 1)),
        slack_s: 0.3 * unit(mix(h, 2)),
        rate: 1.0 / compute_s,
        power_w: 60.0 + 60.0 * unit(mix(h, 3)),
    }
}

/// Server ends waiting to be "accepted" by the driver. The key is the
/// connection's conn-id: its client's first shard-local node.
type Registry = Rc<RefCell<Vec<(u32, PipeWire)>>>;

fn machine_config(cfg: &LoadgenConfig) -> ArbiterConfig {
    ArbiterConfig {
        budget_w: cfg.budget_per_client_w * cfg.clients as f64,
        min_cap_w: cfg.min_cap_w,
        max_cap_w: cfg.max_cap_w,
        policy: Policy::ProgressFeedback { gain: 1.0 },
    }
}

/// The snapshot file for shard `i`: the configured path untouched for a
/// single shard (the legacy layout), `.s<i>`-suffixed otherwise.
fn shard_snapshot_path(cfg: &LoadgenConfig, i: usize) -> Option<PathBuf> {
    let base = cfg.snapshot_path.as_ref()?;
    if cfg.shards == 1 {
        Some(base.clone())
    } else {
        Some(PathBuf::from(format!("{}.s{i}", base.display())))
    }
}

fn make_shard_service(
    cfg: &LoadgenConfig,
    i: usize,
    shard_cfg: ArbiterConfig,
    k: usize,
) -> ArbiterService {
    // Tracing is observational (it never feeds back into grants); off,
    // so 100k-node runs don't pay for per-round history they never read.
    let arbiter: Box<dyn BudgetArbiter> =
        Box::new(PowerArbiter::new(shard_cfg, k).with_tracing(false));
    let svc = ArbiterService::new(arbiter, cfg.service.clone());
    match shard_snapshot_path(cfg, i) {
        Some(p) => svc.with_snapshot_path(p),
        None => svc,
    }
}

/// Build the seeded fault plan for a connection whose identity (for
/// fault purposes) is the *global* node id `global` — so moving a
/// producer between shards never re-rolls its faults.
fn fault_plan(cfg: &LoadgenConfig, global: u64, attempt: u64) -> WireFaultPlan {
    match &cfg.faults {
        None => WireFaultPlan::clean(0),
        Some(k) => {
            let mut plan = WireFaultPlan {
                seed: mix(cfg.seed, (global << 24) ^ attempt),
                drop_prob: k.drop_prob,
                dup_prob: k.dup_prob,
                delay_prob: k.delay_prob,
                max_delay_polls: k.max_delay_polls,
                partitions: Vec::new(),
            };
            if let Some((start, end, stride)) = k.partition {
                if stride > 0 && (global as usize).is_multiple_of(stride) {
                    plan = plan.partition(simnode::faults::FaultWindow::new(start, end));
                }
            }
            plan
        }
    }
}

/// The client for shard-local nodes `local.start..local.end`, whose
/// first global node is `global`. Faults and backoff jitter are keyed by
/// that node, so chaos drops or duplicates a group's batches at once.
fn make_client(
    cfg: &LoadgenConfig,
    local: Range<u32>,
    global: usize,
    registry: &Registry,
) -> GrantClient {
    let registry = registry.clone();
    let plan_cfg = cfg.clone();
    let mut attempt = 0u64;
    let first = local.start;
    let connector = Box::new(move || {
        attempt += 1;
        let (client_end, server_end) = PipeWire::pair();
        registry.borrow_mut().push((first, server_end));
        let plan = fault_plan(&plan_cfg, global as u64, attempt);
        Some(Box::new(FaultyWire::new(client_end, plan)) as Box<dyn Wire>)
    });
    let jitter_seed = if cfg.lockstep_backoff {
        cfg.seed
    } else {
        mix(cfg.seed, 0x00C1_1E47 ^ global as u64)
    };
    GrantClient::group(
        first,
        local.len() as u32,
        connector,
        cfg.backoff_cap,
        jitter_seed,
    )
}

/// Cut each shard's span into client groups of up to `batch`
/// consecutive nodes, in global node order: `(shard, shard-local
/// nodes, first global node)`.
fn client_groups(spans: &[Range<usize>], batch: usize) -> Vec<(usize, Range<u32>, usize)> {
    let mut groups = Vec::new();
    for (shard, span) in spans.iter().enumerate() {
        for local in (0..span.len()).step_by(batch) {
            let end = span.len().min(local + batch);
            groups.push((shard, local as u32..end as u32, span.start + local));
        }
    }
    groups
}

/// Send one connection's consecutive grants as a single frame (one
/// singleton, or one batch) on `wire`, if it is connected, draining
/// `run` for reuse.
fn flush_grants(wire: Option<&mut PipeWire>, run: &mut Vec<Msg>) {
    if let Some(wire) = wire {
        if run.len() == 1 {
            wire.send(&run[0]).ok();
        } else {
            // `send` borrows the frame, so the member Vec survives the
            // call and its allocation is handed back to `run` for the
            // next flush instead of growing from empty every time.
            let frame = Msg::Batch(std::mem::take(run));
            wire.send(&frame).ok();
            if let Msg::Batch(v) = frame {
                *run = v;
            }
        }
    }
    run.clear();
}

/// The conn-table slot of shard-local `node`'s connection. A conn-id is
/// its group's first node, a multiple of `batch`, so each conn-id has a
/// slot of its own and slots follow conn-id order.
fn conn_slot(node: u32, batch: usize) -> usize {
    node as usize / batch
}

/// Run the scenario to completion.
///
/// # Panics
/// Panics when the configuration fails [`LoadgenConfig::validate`],
/// when `crash_at` is set without a `snapshot_path`, or when the
/// post-crash snapshot cannot be restored — all harness bugs, not
/// operating conditions.
pub fn run_loadgen(cfg: &LoadgenConfig) -> LoadgenReport {
    cfg.validate().unwrap_or_else(|e| panic!("{e}"));
    assert!(
        cfg.crash_at.is_none() || cfg.snapshot_path.is_some(),
        "a crash scenario needs a snapshot path to recover from"
    );
    // A stale snapshot from a previous run must not leak into this one.
    for i in 0..cfg.shards {
        if let Some(p) = shard_snapshot_path(cfg, i) {
            for slot in slot_paths(&p) {
                std::fs::remove_file(slot).ok();
            }
        }
    }

    let machine = machine_config(cfg);
    let mut make =
        |i: usize, shard_cfg: ArbiterConfig, k: usize| make_shard_service(cfg, i, shard_cfg, k);
    let mut sharded = ShardedService::new(
        &machine,
        cfg.clients,
        cfg.shards,
        cfg.outer_period,
        &mut make,
    );
    let spans = sharded.spans().to_vec();

    let registries: Vec<Registry> = (0..cfg.shards).map(|_| Registry::default()).collect();
    // Per-shard conn table: one slot per client group, in conn-id order,
    // holding the server wire of its latest Hello.
    let mut conns: Vec<Vec<Option<PipeWire>>> = spans
        .iter()
        .map(|span| vec![None; span.len().div_ceil(cfg.batch)])
        .collect();

    // Producers: one client per group of `batch` nodes (batch = 1: one
    // per node, singleton frames), in global node order.
    let mut clients: Vec<GrantClient> = client_groups(&spans, cfg.batch)
        .into_iter()
        .map(|(shard, local, global)| make_client(cfg, local, global, &registries[shard]))
        .collect();

    let budget_w = machine.budget_w;
    let mut grant_log: Vec<BTreeMap<u64, u64>> = vec![BTreeMap::new(); cfg.clients];
    let mut invariant_ok = true;
    let mut max_sum = 0.0f64;
    let mut sum_fingerprint: u64 = 0xcbf2_9ce4_8422_2325;
    let mut telemetry_sent = 0u64;
    let mut pre_crash_stats = ServiceStats::default();
    let mut hold_violations = 0u64;
    let mut recovery_ticks = None;
    let mut awaiting_recovery: Vec<bool> = Vec::new();
    // Grant-run staging, kept across ticks so batch frames reuse one
    // allocation instead of re-growing from empty every tick.
    let mut grant_run: Vec<Msg> = Vec::new();

    for t in 1..=cfg.ticks {
        // kill -9 at the tick boundary: the victim shard's wires die,
        // its state lands on the floor, a fresh service adopts the
        // write-ahead snapshot. Other shards keep serving.
        if cfg.crash_at == Some(t) {
            let k = cfg.crash_shard;
            for wire in conns[k].iter_mut().filter_map(Option::take) {
                wire.hang_up();
            }
            for (_, wire) in registries[k].borrow_mut().drain(..) {
                wire.hang_up();
            }
            pre_crash_stats = sharded.shard(k).stats();
            let fresh = make_shard_service(
                cfg,
                k,
                ArbiterConfig {
                    budget_w: sharded.sub_budgets()[k],
                    ..machine
                },
                spans[k].len(),
            );
            assert!(
                sharded.replace_shard(k, fresh),
                "the write-ahead snapshot must be adoptable after a crash"
            );
            awaiting_recovery = vec![false; cfg.clients];
            awaiting_recovery[spans[k].clone()].fill(true);
        }

        // Accept pending connections (latest Hello wins the route).
        for (shard, registry) in registries.iter().enumerate() {
            for (conn_id, wire) in registry.borrow_mut().drain(..) {
                conns[shard][conn_slot(conn_id, cfg.batch)] = Some(wire);
            }
        }

        // Clients: drain inbound, run reconnect state machines, then
        // produce this tick's traffic.
        let mut global = 0usize;
        for c in clients.iter_mut() {
            // Down before and after its poll, a client touched no wire:
            // every member must still hold its grant.
            let held = (!c.connected()).then(|| c.grants().to_vec());
            c.advance();
            if held.is_some_and(|h| !c.connected() && h != c.grants()) {
                hold_violations += 1;
            }
            let sent = c.send_reports(|j, seq| {
                synth_telemetry(cfg.seed, (global + j as usize) as u32, seq)
            });
            let count = c.nodes().len();
            if sent.is_some() {
                telemetry_sent += count as u64;
            }
            global += count;
        }

        // Server: ingest everything that arrived, reply in place.
        for (shard, shard_conns) in conns.iter_mut().enumerate() {
            let mut immediate: Vec<(usize, Vec<Msg>)> = Vec::new();
            for (slot, wire) in shard_conns.iter_mut().enumerate() {
                let Some(wire) = wire else { continue };
                while let Ok(Some(msg)) = wire.poll() {
                    let replies = sharded.ingest(shard, msg);
                    if !replies.is_empty() {
                        immediate.push((slot, replies));
                    }
                }
            }
            for (slot, replies) in immediate {
                if let Some(wire) = shard_conns[slot].as_mut() {
                    for r in &replies {
                        wire.send(r).ok();
                    }
                }
            }
        }

        // The arbitration tick, then grant routing + logging. Grants
        // arrive in node order, so grants sharing a connection are
        // consecutive: coalesce each run into one batched frame (with
        // batch = 1 every run has length one — singleton frames, the
        // legacy shape).
        let all_replies = sharded.tick();
        for (shard, replies) in all_replies.into_iter().enumerate() {
            let mut run = std::mem::take(&mut grant_run);
            let mut run_slot = 0usize;
            for msg in replies {
                let Msg::Grant {
                    node, seq, watts, ..
                } = msg
                else {
                    continue;
                };
                let global = spans[shard].start + node as usize;
                if seq > 0 {
                    if cfg.record_grants {
                        grant_log[global].insert(seq, watts.to_bits());
                    }
                    if let Some(flag) = awaiting_recovery.get_mut(global) {
                        *flag = false;
                    }
                }
                let slot = conn_slot(node, cfg.batch);
                if slot != run_slot && !run.is_empty() {
                    flush_grants(conns[shard][run_slot].as_mut(), &mut run);
                }
                run_slot = slot;
                run.push(msg);
            }
            if !run.is_empty() {
                flush_grants(conns[shard][run_slot].as_mut(), &mut run);
            }
            grant_run = run;
        }

        // The headline invariant, observed from outside every tick, and
        // the Σ trace folded into one diffable fingerprint.
        let sum: f64 = sharded.sum_grants();
        max_sum = max_sum.max(sum);
        sum_fingerprint = fnv1a_fold(sum_fingerprint, sum.to_bits());
        if sum > budget_w + 1e-6 {
            invariant_ok = false;
        }

        if recovery_ticks.is_none()
            && cfg.crash_at.is_some_and(|c| t >= c)
            && !awaiting_recovery.is_empty()
            && awaiting_recovery.iter().all(|w| !w)
        {
            recovery_ticks = Some(t - cfg.crash_at.unwrap());
        }
    }

    let client_stats: ClientStats = clients.iter().map(GrantClient::stats).sum();

    LoadgenReport {
        clients: cfg.clients,
        shards: cfg.shards,
        ticks: cfg.ticks,
        budget_w,
        invariant_ok: invariant_ok && sharded.max_sum_grants_w() <= budget_w + 1e-6,
        max_sum_grants_w: max_sum,
        sum_fingerprint,
        telemetry_sent,
        service: pre_crash_stats + sharded.stats(),
        reconnects: client_stats.connects.saturating_sub(clients.len() as u64),
        held_reports: client_stats.held,
        busy_seen: client_stats.busy,
        recovery_ticks,
        hold_violations,
        grant_log,
    }
}

/// A wall-clock scenario for [`run_concurrent_loadgen`]: thread-pooled
/// TCP producer groups against a live [`Daemon`]'s sockets. The
/// budget, grant clamps and outer re-split period are
/// [`LoadgenConfig::default`]'s.
#[derive(Debug, Clone)]
pub struct ConcurrentConfig {
    /// Daemon shards (each on its own listener).
    pub shards: usize,
    /// Simulated producers, machine-wide.
    pub producers: usize,
    /// Producers multiplexed per TCP connection.
    pub batch: usize,
    /// Worker threads driving the connections.
    pub threads: usize,
    /// Telemetry rounds each group sends.
    pub rounds: u64,
}

impl Default for ConcurrentConfig {
    fn default() -> Self {
        Self {
            shards: 2,
            producers: 64,
            batch: 8,
            threads: 4,
            rounds: 20,
        }
    }
}

/// Daemon arbitration period of a concurrent run.
const CONCURRENT_TICK: Duration = Duration::from_millis(2);

/// Seed of the concurrent run's per-worker micro-sleep schedule.
const JITTER_SEED: u64 = 1;

/// What the concurrent run measured. No bitwise claims here — lockstep
/// mode is the reference path; this one exists to put real threads,
/// real sockets, and real contention on the daemon.
#[derive(Debug, Clone)]
pub struct ConcurrentReport {
    /// Telemetry messages sent (batch members counted individually).
    pub telemetry_sent: u64,
    /// Grant messages received across all workers.
    pub grants_seen: u64,
    /// Wall-clock duration of the send/receive phase.
    pub elapsed: Duration,
    /// `telemetry_sent / elapsed`.
    pub msgs_per_sec: f64,
    /// Every worker connected, and Σ grants ≤ budget held at every
    /// daemon tick.
    pub invariant_ok: bool,
    /// Largest Σ grants at any daemon tick, W (NaN if the ticker died).
    pub max_sum_grants_w: f64,
    /// Machine budget, W.
    pub budget_w: f64,
}

/// Drive genuinely concurrent TCP producers — `threads` workers, each
/// owning whole multiplexed connections, with a seeded per-worker
/// jitter schedule — against a live [`Daemon`].
///
/// # Panics
/// Panics on zero shards/producers/batch/threads, or when a listener
/// cannot bind.
pub fn run_concurrent_loadgen(cfg: &ConcurrentConfig) -> ConcurrentReport {
    assert!(
        cfg.shards > 0 && cfg.producers >= cfg.shards,
        "bad shard count"
    );
    assert!(
        cfg.batch > 0 && cfg.threads > 0 && cfg.rounds > 0,
        "bad scale knobs"
    );

    let defaults = LoadgenConfig::default();
    let machine = ArbiterConfig {
        budget_w: defaults.budget_per_client_w * cfg.producers as f64,
        min_cap_w: defaults.min_cap_w,
        max_cap_w: defaults.max_cap_w,
        policy: Policy::ProgressFeedback { gain: 1.0 },
    };
    // Generous service limits: this run measures transport throughput,
    // not shedding behaviour (which has its own lockstep scenarios).
    let service = ServiceConfig {
        queue_depth: (cfg.producers * 4).max(4096),
        rate_capacity: 1e9,
        rate_refill: 1e9,
        lease_ticks: 1 << 20,
        snapshot_every: 0,
        ..ServiceConfig::default()
    };
    let mut make = |_i: usize, shard_cfg: ArbiterConfig, k: usize| {
        let arbiter: Box<dyn BudgetArbiter> =
            Box::new(PowerArbiter::new(shard_cfg, k).with_tracing(false));
        ArbiterService::new(arbiter, service.clone())
    };
    let sharded = ShardedService::new(
        &machine,
        cfg.producers,
        cfg.shards,
        defaults.outer_period,
        &mut make,
    );
    // Client groups, dealt round-robin to the workers.
    let groups = client_groups(sharded.spans(), cfg.batch);
    let listeners = (0..cfg.shards)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<std::io::Result<_>>()
        .expect("shard listeners must bind");
    let daemon = Daemon::spawn(listeners, sharded, CONCURRENT_TICK).expect("daemon must spawn");
    let addrs = daemon.addrs().to_vec();
    let started = Instant::now();
    let mut workers = Vec::new();
    for w in 0..cfg.threads {
        let my_groups: Vec<(usize, Range<u32>, usize)> = groups
            .iter()
            .skip(w)
            .step_by(cfg.threads)
            .cloned()
            .collect();
        let addrs = addrs.clone();
        let rounds = cfg.rounds;
        let mut jitter = mix(JITTER_SEED, 0x7778_0000 ^ w as u64);
        workers.push(std::thread::spawn(move || {
            let mut clients: Vec<GrantClient> = my_groups
                .into_iter()
                .map(|(shard, local, global)| {
                    let connector = tcp_connector(addrs[shard], Duration::from_secs(2));
                    let seed = mix(jitter, global as u64);
                    GrantClient::group(local.start, local.len() as u32, connector, 8, seed)
                })
                .collect();
            let connected = clients.iter().all(GrantClient::connected);
            let mut sent = 0u64;
            for round in 1..=rounds {
                for c in clients.iter_mut() {
                    c.advance();
                    let first = c.nodes().start;
                    if c.send_reports(|j, seq| synth_telemetry(7, first + j, seq))
                        .is_some()
                    {
                        sent += c.nodes().len() as u64;
                    }
                }
                // Seeded jitter: workers drift apart instead of hammering
                // the daemons in lockstep.
                jitter = mix(jitter, round);
                std::thread::sleep(Duration::from_micros(100 + jitter % 400));
            }
            // Drain the tail so late grants still count.
            let deadline = Instant::now() + Duration::from_millis(50);
            while Instant::now() < deadline {
                for c in clients.iter_mut() {
                    c.advance();
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            let stats: ClientStats = clients.iter().map(GrantClient::stats).sum();
            (stats, sent, connected)
        }));
    }
    let (mut client_stats, mut sent, mut connect_ok) = (ClientStats::default(), 0, true);
    for wkr in workers {
        if let Ok((stats, n, ok)) = wkr.join() {
            client_stats = client_stats + stats;
            sent += n;
            connect_ok &= ok;
        }
    }
    let elapsed = started.elapsed();

    let max_sum = daemon.shutdown().map_or(f64::NAN, |s| s.max_sum_grants_w());
    ConcurrentReport {
        telemetry_sent: sent,
        grants_seen: client_stats.grants,
        elapsed,
        msgs_per_sec: sent as f64 / elapsed.as_secs_f64().max(1e-9),
        invariant_ok: max_sum <= machine.budget_w + 1e-6 && connect_ok,
        max_sum_grants_w: max_sum,
        budget_w: machine.budget_w,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(clients: usize, ticks: u64) -> LoadgenConfig {
        LoadgenConfig {
            clients,
            ticks,
            service: ServiceConfig {
                snapshot_every: 0,
                ..ServiceConfig::default()
            },
            ..LoadgenConfig::default()
        }
    }

    #[test]
    fn clean_run_grants_everyone_and_conserves_budget() {
        let r = run_loadgen(&quick(16, 20));
        assert!(r.invariant_ok);
        assert!(r.max_sum_grants_w <= r.budget_w + 1e-6);
        assert!(r.min_granted_seq() >= 15, "steady traffic grants steadily");
        assert_eq!(r.reconnects, 0);
        assert_eq!(r.hold_violations, 0);
        assert!(r.telemetry_sent > 0);
    }

    #[test]
    fn same_seed_same_run_bit_for_bit() {
        let cfg = LoadgenConfig {
            faults: Some(FaultKnobs::hostile()),
            ..quick(12, 30)
        };
        let a = run_loadgen(&cfg);
        let b = run_loadgen(&cfg);
        assert_eq!(a.grant_log, b.grant_log);
        assert_eq!(a.service, b.service);
        assert_eq!(a.sum_fingerprint, b.sum_fingerprint);
        let c = run_loadgen(&LoadgenConfig { seed: 2, ..cfg });
        assert_ne!(a.grant_log, c.grant_log, "seeds must matter");
    }

    #[test]
    fn faulty_wires_still_conserve_the_budget() {
        let r = run_loadgen(&LoadgenConfig {
            faults: Some(FaultKnobs::hostile()),
            ..quick(21, 50)
        });
        assert!(r.invariant_ok);
        assert_eq!(r.hold_violations, 0);
        // The partitioned clients went silent long enough to lose their
        // leases; expiry must have reclaimed watts, not leaked them.
        assert!(r.service.leases_expired > 0, "{:?}", r.service);
        assert!(r.max_sum_grants_w <= r.budget_w + 1e-6);
    }

    #[test]
    fn invalid_scale_knobs_are_config_errors() {
        for bad in [
            LoadgenConfig {
                clients: 0,
                ..LoadgenConfig::default()
            },
            LoadgenConfig {
                clients: MAX_CLIENTS + 1,
                ..LoadgenConfig::default()
            },
            LoadgenConfig {
                shards: 0,
                ..LoadgenConfig::default()
            },
            LoadgenConfig {
                shards: 65,
                ..LoadgenConfig::default()
            },
            LoadgenConfig {
                batch: 0,
                ..LoadgenConfig::default()
            },
            LoadgenConfig {
                outer_period: 0,
                ..LoadgenConfig::default()
            },
            LoadgenConfig {
                crash_shard: 1,
                ..LoadgenConfig::default()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} must be rejected");
        }
        assert!(LoadgenConfig::default().validate().is_ok());
        let largest = LoadgenConfig {
            clients: MAX_CLIENTS,
            shards: 4,
            ..LoadgenConfig::default()
        };
        assert!(largest.validate().is_ok(), "the limit itself is accepted");
    }

    #[test]
    fn batched_producers_grant_bitwise_like_singletons() {
        // Same seed, same workload; the only difference is 8 producers
        // per wire sending one batched frame per tick. The server-side
        // grant log must be bit-identical.
        let base = quick(24, 20);
        let singles = run_loadgen(&base);
        let batched = run_loadgen(&LoadgenConfig { batch: 8, ..base });
        assert!(batched.invariant_ok);
        assert_eq!(
            singles.grant_log, batched.grant_log,
            "batching must not change a single grant bit"
        );
        assert_eq!(singles.sum_fingerprint, batched.sum_fingerprint);
        assert_eq!(singles.telemetry_sent, batched.telemetry_sent);
    }

    #[test]
    fn sharded_run_conserves_budget_and_reproduces() {
        let cfg = LoadgenConfig {
            shards: 4,
            batch: 4,
            outer_period: 4,
            ..quick(32, 30)
        };
        let a = run_loadgen(&cfg);
        assert!(a.invariant_ok);
        assert!(a.max_sum_grants_w <= a.budget_w + 1e-6);
        assert_eq!(a.shards, 4);
        assert!(a.min_granted_seq() >= 25, "all shards grant steadily");
        let b = run_loadgen(&cfg);
        assert_eq!(a.sum_fingerprint, b.sum_fingerprint);
        assert_eq!(a.grant_log, b.grant_log);
    }

    #[test]
    fn concurrent_tcp_loadgen_smoke() {
        let r = run_concurrent_loadgen(&ConcurrentConfig {
            shards: 2,
            producers: 32,
            batch: 8,
            threads: 2,
            rounds: 10,
        });
        assert!(r.invariant_ok, "Σ ≤ budget over live sockets: {r:?}");
        assert_eq!(r.telemetry_sent, 32 * 10);
        assert!(r.grants_seen > 0, "grants must flow back: {r:?}");
        assert!(r.msgs_per_sec > 0.0);
    }
}
