//! Horizontal sharding: N arbiter shards under one budget coordinator.
//!
//! One `arbiterd` instance tops out at one machine's connection load.
//! This module splits the producer population across `N` shards — each
//! a full [`ArbiterService`] owning a contiguous span of nodes and a
//! rack-style *sub-budget* — and re-splits the machine budget across
//! the shards on an outer period with the rack tree's own
//! [`cluster::OuterSolver::epoch`]: telemetry sums flow up (each shard
//! drains its [`cluster::RackWindow`]), sub-budgets flow down, and a
//! silent shard keeps its sub-budget frozen exactly like a silent rack.
//!
//! Because the solver *is* the rack-level engine and each shard's
//! service redistributes exactly like a rack's child arbiter, a
//! lockstep sharded run is bit-identical to one [`cluster::RackArbiter`]
//! whose racks are the shard spans (`inner_period = 1`, same outer
//! period and policy) — the tests assert that, grant for grant.
//!
//! [`ShardedService`] is the deterministic core — lockstep ticks, no
//! threads, `N` services and the solver driven in a fixed order — and
//! the only one: the lockstep load generator drives it over in-process
//! pipes, and the TCP [`crate::daemon::Daemon`] ticks it on one thread,
//! shard `i` served on its own listener. A one-shard service is the
//! unsharded daemon, bit for bit.
//!
//! Node addressing: the wire always carries *shard-local* ids (shard
//! `s` numbers its nodes `0..span.len()`); [`ShardedService::locate`]
//! maps a global node id to its `(shard, local)` pair.

use std::ops::Range;

use cluster::{ArbiterConfig, OuterSolver};

use crate::proto::Msg;
use crate::service::{ArbiterService, ServiceStats};

/// Split `nodes` into `shards` contiguous, near-equal spans (the first
/// `nodes % shards` spans get one extra node), in global node order.
///
/// # Panics
/// Panics when `shards` is zero or exceeds `nodes`.
pub fn shard_spans(nodes: usize, shards: usize) -> Vec<Range<usize>> {
    assert!(shards > 0, "need at least one shard");
    assert!(
        shards <= nodes,
        "cannot spread {nodes} nodes over {shards} shards"
    );
    let base = nodes / shards;
    let extra = nodes % shards;
    let mut spans = Vec::with_capacity(shards);
    let mut start = 0;
    for s in 0..shards {
        let len = base + usize::from(s < extra);
        spans.push(start..start + len);
        start += len;
    }
    spans
}

/// Builds one shard's service from its position, its node count, and
/// its arbiter configuration (budget already set to the sub-budget).
pub type MakeShard<'a> = dyn FnMut(usize, ArbiterConfig, usize) -> ArbiterService + 'a;

/// The deterministic sharded core: `N` services plus the outer solver,
/// stepped in lockstep.
pub struct ShardedService {
    shards: Vec<ArbiterService>,
    spans: Vec<Range<usize>>,
    solver: OuterSolver,
    outer_period: u64,
    machine_budget_w: f64,
    tick: u64,
    max_sum_w: f64,
}

impl ShardedService {
    /// Split `nodes` producers across `shards` services. `cfg` is the
    /// *machine-level* configuration (`budget_w` = whole machine); each
    /// shard is built by `make` from an `ArbiterConfig` whose budget is
    /// its initial sub-budget — the same proportional-share waterfill
    /// [`cluster::RackArbiter::new`] seeds its racks with. `cfg.policy`
    /// divides at both levels.
    ///
    /// # Panics
    /// Panics on a zero/oversized shard count or a non-positive outer
    /// period.
    pub fn new(
        cfg: &ArbiterConfig,
        nodes: usize,
        shards: usize,
        outer_period: u64,
        make: &mut MakeShard,
    ) -> Self {
        assert!(outer_period > 0, "outer period must be positive");
        let spans = shard_spans(nodes, shards);
        let sizes: Vec<usize> = spans.iter().map(Range::len).collect();
        let solver = OuterSolver::new(cfg.policy, &sizes, None, cfg);
        let services: Vec<ArbiterService> = spans
            .iter()
            .zip(solver.sub_budgets())
            .enumerate()
            .map(|(i, (span, &b))| {
                make(
                    i,
                    ArbiterConfig {
                        budget_w: b,
                        ..*cfg
                    },
                    span.len(),
                )
            })
            .collect();
        Self {
            shards: services,
            spans,
            solver,
            outer_period,
            machine_budget_w: cfg.budget_w,
            tick: 0,
            max_sum_w: 0.0,
        }
    }

    /// Global-node span of each shard, in shard order.
    pub fn spans(&self) -> &[Range<usize>] {
        &self.spans
    }

    /// Map a global node id to `(shard, shard-local id)`.
    pub fn locate(&self, node: usize) -> (usize, u32) {
        let shard = self
            .spans
            .iter()
            .position(|s| s.contains(&node))
            .unwrap_or_else(|| panic!("node {node} outside every shard span"));
        (shard, (node - self.spans[shard].start) as u32)
    }

    /// The whole-machine budget being divided, W.
    pub fn machine_budget_w(&self) -> f64 {
        self.machine_budget_w
    }

    /// Current per-shard sub-budgets, W.
    pub fn sub_budgets(&self) -> &[f64] {
        self.solver.sub_budgets()
    }

    /// Borrow shard `i`'s service (tests, stats).
    pub fn shard(&self, i: usize) -> &ArbiterService {
        &self.shards[i]
    }

    /// Feed one message to shard `i`. The message carries shard-local
    /// node ids; replies come back the same way, at most one per message
    /// or batch member, folded into one batch when there are several
    /// (see [`ArbiterService::ingest`]).
    pub fn ingest(&mut self, shard: usize, msg: Msg) -> Vec<Msg> {
        self.shards[shard].ingest(msg)
    }

    /// [`ShardedService::ingest`] without the fold: append shard `i`'s
    /// replies to `replies` one by one.
    pub(crate) fn ingest_into(&mut self, shard: usize, msg: &Msg, replies: &mut Vec<Msg>) {
        self.shards[shard].ingest_into(msg, replies);
    }

    /// One lockstep machine tick: every shard runs the first half of
    /// its tick (fold telemetry, aggregate its window); on the outer
    /// period the coordinator runs one [`OuterSolver::epoch`] — drain
    /// all windows, re-split the machine budget, push sub-budgets down
    /// decreases first, assert the level — then every shard
    /// redistributes under its (possibly new) budget.
    /// Returns each shard's replies, in shard order, and asserts
    /// machine-wide Σ grants ≤ budget.
    pub fn tick(&mut self) -> Vec<Vec<Msg>> {
        self.tick += 1;
        for s in &mut self.shards {
            s.begin_tick();
        }
        // A single shard owns the whole budget: nothing to split, and
        // skipping the solve keeps the path bitwise-identical to an
        // unsharded service.
        if self.shards.len() > 1 && self.tick.is_multiple_of(self.outer_period) {
            self.solver.epoch(self.machine_budget_w, &mut self.shards);
        }
        let replies: Vec<Vec<Msg>> = self
            .shards
            .iter_mut()
            .map(ArbiterService::finish_tick)
            .collect();
        let sum = self.sum_grants();
        assert!(
            sum <= self.machine_budget_w + 1e-6,
            "machine-wide Σ grants {sum} W exceeds the {} W budget",
            self.machine_budget_w
        );
        if sum > self.max_sum_w {
            self.max_sum_w = sum;
        }
        replies
    }

    /// Machine-wide Σ of current grants, W.
    pub fn sum_grants(&self) -> f64 {
        self.shards.iter().map(ArbiterService::sum_grants).sum()
    }

    /// High-water mark of the per-tick machine-wide Σ grants, W.
    pub fn max_sum_grants_w(&self) -> f64 {
        self.max_sum_w
    }

    /// Concatenated grants in global node order, W.
    pub fn grants(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.spans.last().map_or(0, |s| s.end));
        for s in &self.shards {
            out.extend_from_slice(s.grants());
        }
        out
    }

    /// Summed service counters across the shards.
    pub fn stats(&self) -> ServiceStats {
        self.shards.iter().map(ArbiterService::stats).sum()
    }

    /// Crash-replace shard `i`: swap in a freshly built service (same
    /// shape, e.g. from the same `make` closure as construction) and
    /// let it adopt its write-ahead snapshot. The solver's only state
    /// across epochs is the shard sub-budget vector, which lives in the
    /// coordinator and survives the crash, so a restored shard resumes
    /// bit-identically.
    /// Returns whether a snapshot was adopted.
    pub fn replace_shard(&mut self, i: usize, mut fresh: ArbiterService) -> bool {
        let adopted = fresh.restore();
        self.shards[i] = fresh;
        adopted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use cluster::{
        BudgetArbiter, HierarchyConfig, NodeTelemetry, Policy, PowerArbiter, RackArbiter,
    };
    use std::time::Duration;

    fn machine_cfg(n: usize) -> ArbiterConfig {
        ArbiterConfig {
            budget_w: 100.0 * n as f64,
            min_cap_w: 40.0,
            max_cap_w: 130.0,
            policy: Policy::ProgressFeedback { gain: 1.0 },
        }
    }

    fn plain_make(
        svc_cfg: ServiceConfig,
    ) -> impl FnMut(usize, ArbiterConfig, usize) -> ArbiterService {
        move |_i, cfg, k| {
            let arb: Box<dyn BudgetArbiter> =
                Box::new(PowerArbiter::new(cfg, k).with_tracing(false));
            ArbiterService::new(arb, svc_cfg.clone())
        }
    }

    fn no_snap() -> ServiceConfig {
        ServiceConfig {
            snapshot_every: 0,
            ..ServiceConfig::default()
        }
    }

    fn synth(node: usize, tick: u64) -> NodeTelemetry {
        // Varying but validate-clean telemetry.
        let t = 0.5 + ((node as u64 * 7 + tick * 3) % 11) as f64 * 0.25;
        NodeTelemetry::compute_only(t, 1.0 / t, 90.0 + (node % 5) as f64)
    }

    #[test]
    fn spans_are_contiguous_and_near_equal() {
        assert_eq!(shard_spans(10, 4), vec![0..3, 3..6, 6..8, 8..10]);
        assert_eq!(shard_spans(4, 4), vec![0..1, 1..2, 2..3, 3..4]);
        assert_eq!(shard_spans(5, 1), vec![0..5]);
        let spans = shard_spans(100_000, 4);
        assert_eq!(spans.iter().map(|s| s.len()).sum::<usize>(), 100_000);
        assert!(spans.windows(2).all(|w| w[0].end == w[1].start));
    }

    #[test]
    fn lockstep_sharded_run_is_bitwise_identical_to_the_rack_tree() {
        // 3 shards over 12 nodes vs one RackArbiter whose racks are the
        // shard spans: same policy, inner period 1, same outer period.
        let n = 12;
        let shards = 3;
        let outer_period = 4u64;
        let cfg = machine_cfg(n);
        let mut sharded =
            ShardedService::new(&cfg, n, shards, outer_period, &mut plain_make(no_snap()));
        let mut tree = RackArbiter::new(
            cfg,
            HierarchyConfig {
                racks: sharded.spans().iter().map(Range::len).collect(),
                outer_period: outer_period as usize,
                inner_period: 1,
                rack_policy: cfg.policy,
                rack_clamps: None,
            },
        );
        for tick in 1..=13u64 {
            let mut reports = Vec::with_capacity(n);
            for node in 0..n {
                let r = synth(node, tick);
                reports.push(Some(r));
                let (shard, local) = sharded.locate(node);
                let replies = sharded.ingest(
                    shard,
                    Msg::Telemetry {
                        node: local,
                        seq: tick,
                        report: r,
                    },
                );
                assert!(replies.is_empty(), "clean telemetry is queued silently");
            }
            sharded.tick();
            let expect = tree.redistribute(&reports).unwrap().to_vec();
            let got = sharded.grants();
            for (node, (g, e)) in got.iter().zip(&expect).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    e.to_bits(),
                    "tick {tick} node {node}: sharded {g} vs tree {e}"
                );
            }
            assert!(sharded.sum_grants() <= sharded.machine_budget_w() + 1e-6);
        }
        // The outer split actually moved budgets (the workload is skewed).
        assert!(
            sharded
                .sub_budgets()
                .iter()
                .zip(shard_spans(n, shards))
                .any(|(&b, s)| (b - 100.0 * s.len() as f64).abs() > 1e-9),
            "outer epochs should have re-split the machine budget: {:?}",
            sharded.sub_budgets()
        );
    }

    #[test]
    fn single_shard_is_bitwise_transparent() {
        let n = 6;
        let cfg = machine_cfg(n);
        let mut sharded = ShardedService::new(&cfg, n, 1, 4, &mut plain_make(no_snap()));
        let arb: Box<dyn BudgetArbiter> = Box::new(PowerArbiter::new(cfg, n).with_tracing(false));
        let mut plain = ArbiterService::new(arb, no_snap());
        for tick in 1..=9u64 {
            for node in 0..n {
                let msg = Msg::Telemetry {
                    node: node as u32,
                    seq: tick,
                    report: synth(node, tick),
                };
                assert_eq!(sharded.ingest(0, msg.clone()), plain.ingest(msg));
            }
            let replies = sharded.tick();
            assert_eq!(replies.len(), 1);
            assert_eq!(replies[0], plain.tick());
            for (a, b) in sharded.grants().iter().zip(plain.grants()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn crashed_shard_restores_bitwise_mid_run() {
        let n = 8;
        let shards = 2;
        let outer_period = 3u64;
        let cfg = machine_cfg(n);
        let dir = std::env::temp_dir().join(format!("arbiterd-shard-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        let make_with_snaps = |dir: std::path::PathBuf, svc_cfg: ServiceConfig| {
            move |i: usize, cfg: ArbiterConfig, k: usize| {
                let arb: Box<dyn BudgetArbiter> =
                    Box::new(PowerArbiter::new(cfg, k).with_tracing(false));
                ArbiterService::new(arb, svc_cfg.clone())
                    .with_snapshot_path(dir.join(format!("shard{i}.snap")))
            }
        };
        let svc_cfg = ServiceConfig {
            snapshot_every: 1,
            ..ServiceConfig::default()
        };

        let drive = |svc: &mut ShardedService, tick: u64| {
            for node in 0..n {
                let (shard, local) = svc.locate(node);
                svc.ingest(
                    shard,
                    Msg::Telemetry {
                        node: local,
                        seq: tick,
                        report: synth(node, tick),
                    },
                );
            }
            svc.tick();
        };

        // Reference: no crash.
        let ref_dir = dir.join("ref");
        std::fs::create_dir_all(&ref_dir).unwrap();
        let mut reference = ShardedService::new(
            &cfg,
            n,
            shards,
            outer_period,
            &mut make_with_snaps(ref_dir.clone(), svc_cfg.clone()),
        );
        for tick in 1..=10u64 {
            drive(&mut reference, tick);
        }

        // Crashed run: shard 1 is replaced from its snapshot at tick 5.
        let crash_dir = dir.join("crash");
        std::fs::create_dir_all(&crash_dir).unwrap();
        let mut make = make_with_snaps(crash_dir.clone(), svc_cfg.clone());
        let mut crashed = ShardedService::new(&cfg, n, shards, outer_period, &mut make);
        for tick in 1..=10u64 {
            if tick == 5 {
                let k = crashed.spans()[1].len();
                let sub = crashed.sub_budgets()[1];
                let fresh = make(
                    1,
                    ArbiterConfig {
                        budget_w: sub,
                        ..cfg
                    },
                    k,
                );
                assert!(crashed.replace_shard(1, fresh), "snapshot must adopt");
            }
            drive(&mut crashed, tick);
        }

        for (node, (a, b)) in crashed.grants().iter().zip(reference.grants()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "node {node}: crashed {a} vs reference {b}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_daemons_grant_over_sockets_and_hold_the_invariant() {
        use crate::client::{tcp_connector, GrantClient};
        use crate::daemon::Daemon;
        use std::net::{SocketAddr, TcpListener};

        let n = 4;
        let cfg = machine_cfg(n);
        let listeners = (0..2)
            .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
            .collect();
        let daemon = Daemon::spawn(
            listeners,
            ShardedService::new(&cfg, n, 2, 2, &mut plain_make(no_snap())),
            Duration::from_millis(5),
        )
        .unwrap();

        let connector = |addr: SocketAddr| tcp_connector(addr, Duration::from_millis(250));
        // Two producers per shard, shard-local ids 0 and 1.
        let mut clients: Vec<GrantClient> = (0..n)
            .map(|g| {
                let shard = g / 2;
                GrantClient::new(
                    (g % 2) as u32,
                    connector(daemon.addrs()[shard]),
                    32,
                    g as u64,
                )
            })
            .collect();

        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let mut seq = 0u64;
        loop {
            seq += 1;
            for (g, c) in clients.iter_mut().enumerate() {
                c.advance();
                c.send_report(&synth(g, seq));
            }
            if clients.iter().all(|c| c.last_grant().is_some()) {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "all shards must grant over sockets: {:?}",
                clients
                    .iter()
                    .map(GrantClient::last_grant)
                    .collect::<Vec<_>>()
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        let service = daemon.shutdown().expect("the ticker held Σ ≤ budget");
        let sum = service.sum_grants();
        assert!(sum <= cfg.budget_w + 1e-6, "Σ {sum} over {}", cfg.budget_w);
        assert!(service.max_sum_grants_w() <= cfg.budget_w + 1e-6);
    }
}
