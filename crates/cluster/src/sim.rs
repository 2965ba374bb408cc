//! The cluster driver: sharded event-queue stepping over independent
//! members.
//!
//! [`run_cluster`] instantiates N independent members (heterogeneous
//! presets allowed) and advances them in compute-phase → exchange-phase
//! iterations: members compute their share in parallel, the comm model
//! ([`crate::comm`]) prices the exchange from the global view (message
//! sizes, topology contention, each node's power-dependent NIC drain
//! rate), and the barrier lands when the last flow does — faster ranks
//! spin (MPI-style polling, full power). A [`PowerArbiter`]
//! redistributes the global power budget at each barrier from the
//! telemetry the members report, which splits each iteration into
//! `compute_s` / `comm_s` / `slack_s` so a progress-aware policy can
//! distinguish "slow because capped" from "slow because waiting on the
//! wire". With [`CommConfig::none`] (or zero-byte messages) the exchange
//! generates no flows and the schedule is bit-identical to the PR-2
//! ideal barrier.
//!
//! Between barriers the members are stepped through `crate::shard`:
//! contiguous rank shards with preallocated telemetry buffers move
//! through the thread pool as coarse work items, and within a shard the
//! spin phase wakes only members short of the barrier, earliest event
//! first. The simulation is embarrassingly parallel within an epoch and
//! bitwise deterministic regardless of thread or shard count; the
//! exchange pricing is single-threaded pure arithmetic. The
//! pre-sharding bulk-synchronous loop survives as a test-only reference,
//! and the differential suite pins the two drivers bit-for-bit against
//! each other.

use rayon::prelude::*;

use progress::imbalance::{self, ImbalanceReport};
use simnode::config::NodeConfig;
use simnode::faults::FaultPlan;
use simnode::hw::BackendKind;
use simnode::node::WorkCounts;
use simnode::time::{secs, Nanos};
use simnode::NodeTables;
use std::sync::Arc;

use crate::arbiter::{ArbiterConfig, BudgetArbiter, GrantTrace, NodeTelemetry, PowerArbiter};
use crate::comm::{self, CommConfig};
use crate::error::{ensure, ClusterError, ConfigError};
use crate::hierarchy::{HierarchyConfig, RackArbiter};
use crate::member::ClusterNode;
use crate::shard::Shard;
use crate::workload::WorkloadShape;

/// Named node hardware variants (see [`simnode::presets`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Preset {
    /// The calibrated reference node.
    Reference,
    /// +pct% switched capacitance: hotter at every operating point.
    Leaky(f64),
    /// Top frequencies fused off at `fmax_mhz`.
    LowBin(u32),
    /// Thermal model with an undersized heatsink.
    PoorCooling,
}

impl Preset {
    fn config(self) -> NodeConfig {
        match self {
            Preset::Reference => simnode::presets::reference(),
            Preset::Leaky(pct) => simnode::presets::leaky(pct),
            Preset::LowBin(fmax) => simnode::presets::low_bin(fmax),
            Preset::PoorCooling => simnode::presets::poor_cooling(),
        }
    }

    /// The highest package power this preset's cooling can sustain
    /// without tripping PROCHOT, or `+∞` for presets without a thermal
    /// model (see [`simnode::thermal::ThermalConfig::sustainable_power_w`]).
    /// The arbiter clamps the node's grant ceiling here: watts granted
    /// above it would be clawed back by the throttle while still being
    /// charged against the cluster budget.
    pub fn thermal_ceiling_w(self) -> f64 {
        thermal_ceiling_w(&self.config())
    }
}

/// [`Preset::thermal_ceiling_w`] of the preset `cfg` was resolved from.
fn thermal_ceiling_w(cfg: &NodeConfig) -> f64 {
    cfg.thermal
        .as_ref()
        .map(|t| t.sustainable_power_w())
        .unwrap_or(f64::INFINITY)
}

/// The presets of a fleet, each resolved once into its validated node
/// configuration and the lookup tables every member of that hardware
/// shares, in order of first appearance.
struct Resolved {
    presets: Vec<(Preset, NodeConfig, Arc<NodeTables>)>,
    /// Each node's index into `presets`.
    of_node: Vec<usize>,
}

impl Resolved {
    /// # Panics
    /// Panics on an invalid preset (those validators live in `simnode`
    /// and still assert).
    fn new(nodes: &[NodeSpec]) -> Self {
        let mut presets: Vec<(Preset, NodeConfig, Arc<NodeTables>)> = Vec::new();
        let of_node = nodes
            .iter()
            .map(|spec| {
                // `Preset` compares its payload as `f64`: a NaN preset
                // matches nothing and is resolved on its own.
                presets
                    .iter()
                    .position(|(p, ..)| *p == spec.preset)
                    .unwrap_or_else(|| {
                        let cfg = spec.preset.config();
                        cfg.validate();
                        let tables = Arc::new(NodeTables::new(&cfg));
                        presets.push((spec.preset, cfg, tables));
                        presets.len() - 1
                    })
            })
            .collect();
        Self { presets, of_node }
    }
}

/// One node's place in the cluster: hardware variant, share of the
/// decomposition, and an optional injected fault plan.
#[derive(Debug, Clone)]
pub struct NodeSpec {
    /// Hardware variant.
    pub preset: Preset,
    /// Work multiplier for this rank.
    pub weight: f64,
    /// Fault plan for this node's MSR layer (PR-1 fault injection),
    /// `Arc`-shared so cloning a spec (or a whole sweep of them) never
    /// deep-copies the plan.
    pub faults: Option<Arc<FaultPlan>>,
    /// MSR backend tier behind this member's register file
    /// ([`BackendKind::Sim`] by default — bit-identical to the seed).
    pub backend: BackendKind,
}

impl NodeSpec {
    /// A healthy node of `preset` carrying `weight`.
    pub fn new(preset: Preset, weight: f64) -> Self {
        Self {
            preset,
            weight,
            faults: None,
            backend: BackendKind::default(),
        }
    }

    /// Attach a fault plan.
    pub fn with_faults(mut self, plan: impl Into<Arc<FaultPlan>>) -> Self {
        self.faults = Some(plan.into());
        self
    }

    /// Select the MSR backend tier for this member.
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }
}

/// Full cluster run description.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// The member nodes.
    pub nodes: Vec<NodeSpec>,
    /// Outer (barrier-to-barrier) iterations to run.
    pub iters: usize,
    /// Budget arbiter tuning.
    pub arbiter: ArbiterConfig,
    /// Kernel cost shape shared by all ranks.
    pub shape: WorkloadShape,
    /// Exchange-phase cost model ([`CommConfig::none`] for the ideal
    /// barrier).
    pub comm: CommConfig,
    /// NRM daemon control period on every member, ns.
    pub daemon_period: Nanos,
    /// Two-level (machine → rack → node) arbitration instead of the flat
    /// arbiter; `None` keeps the single global pot.
    pub hierarchy: Option<HierarchyConfig>,
}

impl ClusterConfig {
    /// Validate the composite configuration: a non-empty cluster, at
    /// least one iteration, and consistent arbiter / comm / hierarchy
    /// sub-configurations.
    ///
    /// # Panics
    /// Panics on an invalid node preset (those validators live in
    /// `simnode` and still assert).
    pub fn validate(&self) -> Result<(), ConfigError> {
        ensure(!self.nodes.is_empty(), "ClusterConfig.nodes", || {
            "cluster needs at least one node".into()
        })?;
        ensure(self.iters > 0, "ClusterConfig.iters", || {
            "need at least one iteration".into()
        })?;
        self.arbiter.validate()?;
        ensure(
            self.arbiter.budget_w >= self.arbiter.min_cap_w * self.nodes.len() as f64 - 1e-9,
            "ClusterConfig.arbiter",
            || {
                format!(
                    "budget {} W cannot fund {} nodes at the {} W floor",
                    self.arbiter.budget_w,
                    self.nodes.len(),
                    self.arbiter.min_cap_w
                )
            },
        )?;
        self.comm.validate()?;
        if let Some(h) = &self.hierarchy {
            h.validate(&self.arbiter, self.nodes.len())?;
        }
        for spec in &self.nodes {
            ensure(spec.backend.is_available(), "NodeSpec.backend", || {
                format!(
                    "backend {:?} requires this binary to be built with --features rapl",
                    spec.backend
                )
            })?;
        }
        Resolved::new(&self.nodes);
        Ok(())
    }
}

/// Per-iteration record: barrier time, per-node compute times, and the
/// imbalance analysis over them (critical rank = slowest node, wait
/// fraction = share of node-seconds burned at the barrier).
#[derive(Debug, Clone)]
pub struct IterationRecord {
    /// Iteration index.
    pub round: usize,
    /// Barrier time (when the last exchange flow landed), s from run
    /// start.
    pub barrier_at_s: f64,
    /// Per-node compute time this iteration, s.
    pub compute_s: Vec<f64>,
    /// Per-node exchange wire time this iteration, s (all zero under an
    /// ideal barrier).
    pub comm_s: Vec<f64>,
    /// Per-node barrier/rendezvous slack this iteration, s.
    pub slack_s: Vec<f64>,
    /// Bytes the exchange moved this iteration.
    pub bytes: f64,
    /// Imbalance analysis over `compute_s`.
    pub imbalance: ImbalanceReport,
    /// Which nodes delivered telemetry this iteration.
    pub reporting: Vec<bool>,
}

/// Everything a cluster run produced.
#[derive(Debug, Clone)]
pub struct ClusterOutcome {
    /// Wall-clock makespan: when the last member finished the last
    /// barrier, s.
    pub makespan_s: f64,
    /// Ground-truth total energy across all members, J.
    pub energy_j: f64,
    /// Per-iteration records.
    pub iterations: Vec<IterationRecord>,
    /// The (leaf-level) budget-conservation trace, one tick per barrier.
    pub grant_trace: GrantTrace,
    /// The rack-level conservation trace, one tick per outer epoch
    /// (`None` under flat arbitration).
    pub rack_trace: Option<GrantTrace>,
    /// Final grants in force, W.
    pub final_grants_w: Vec<f64>,
    /// The members' node work counts, summed (see
    /// [`Node::work_counts`](simnode::node::Node::work_counts)).
    pub node_work: WorkCounts,
}

impl ClusterOutcome {
    /// Mean across iterations of the per-iteration imbalance factor.
    pub fn mean_imbalance_factor(&self) -> f64 {
        mean(self.iterations.iter().map(|i| i.imbalance.imbalance_factor))
    }

    /// Mean across iterations of the barrier wait fraction.
    pub fn mean_wait_fraction(&self) -> f64 {
        mean(self.iterations.iter().map(|i| i.imbalance.wait_fraction))
    }

    /// Mean per-node compute-phase time per iteration, s.
    pub fn mean_compute_s(&self) -> f64 {
        mean(
            self.iterations
                .iter()
                .flat_map(|i| i.compute_s.iter().copied()),
        )
    }

    /// Mean per-node exchange wire time per iteration, s (0 under an
    /// ideal barrier).
    pub fn mean_comm_s(&self) -> f64 {
        mean(
            self.iterations
                .iter()
                .flat_map(|i| i.comm_s.iter().copied()),
        )
    }

    /// Mean per-node barrier/rendezvous slack per iteration, s.
    pub fn mean_slack_s(&self) -> f64 {
        mean(
            self.iterations
                .iter()
                .flat_map(|i| i.slack_s.iter().copied()),
        )
    }

    /// Total bytes the exchange phases moved across the run.
    pub fn total_bytes(&self) -> f64 {
        self.iterations.iter().map(|i| i.bytes).sum()
    }

    /// Smallest budget slack observed across the whole leaf trace, W
    /// (non-negative iff conservation held on every tick).
    pub fn min_budget_slack_w(&self) -> f64 {
        self.grant_trace.min_slack_w()
    }

    /// Node-ticks excluded from redistribution (telemetry dropouts).
    pub fn excluded_node_ticks(&self) -> usize {
        self.grant_trace
            .ticks()
            .iter()
            .map(|t| t.reporting.iter().filter(|r| !**r).count())
            .sum()
    }
}

fn mean(it: impl Iterator<Item = f64>) -> f64 {
    let (mut n, mut sum) = (0usize, 0.0);
    for v in it {
        n += 1;
        sum += v;
    }
    if n == 0 {
        f64::NAN
    } else {
        sum / n as f64
    }
}

/// Build the arbiter and the member fleet for a validated `cfg`.
fn setup(cfg: &ClusterConfig) -> (Box<dyn BudgetArbiter>, Vec<ClusterNode>) {
    let n = cfg.nodes.len();
    let resolved = Resolved::new(&cfg.nodes);
    let arbiter: Box<dyn BudgetArbiter> = match &cfg.hierarchy {
        Some(h) => Box::new(RackArbiter::new(cfg.arbiter, h.clone())),
        None => {
            // Thermal-headroom clamps: a node whose cooling cannot
            // dissipate the shared max cap gets its grant ceiling
            // tightened to what it can actually spend (∞ for presets
            // without a thermal model, which keeps thermally unconstrained
            // clusters bitwise unchanged). Flat arbitration only: the rack
            // tree's per-rack clamps scale with rack size, not per-node
            // cooling, so the hierarchy keeps the shared ceiling for now.
            let ceilings: Vec<f64> = resolved
                .of_node
                .iter()
                .map(|&p| thermal_ceiling_w(&resolved.presets[p].1))
                .collect();
            Box::new(PowerArbiter::new(cfg.arbiter, n).with_node_ceilings(&ceilings))
        }
    };
    // A flat cluster is one rack of every node.
    let rack_sizes = match &cfg.hierarchy {
        Some(h) => h.racks.as_slice(),
        None => std::slice::from_ref(&n),
    };
    assert_eq!(
        rack_sizes.iter().sum::<usize>(),
        n,
        "validate() pinned the rack sum to the node count"
    );
    let racks = rack_sizes
        .iter()
        .enumerate()
        .flat_map(|(r, &k)| std::iter::repeat_n(r, k));
    let members = cfg
        .nodes
        .iter()
        .zip(&resolved.of_node)
        .zip(racks)
        .enumerate()
        .map(|(id, ((spec, &p), rack))| {
            let (_, preset_cfg, tables) = &resolved.presets[p];
            let node_cfg = NodeConfig {
                faults: spec.faults.clone(),
                backend: spec.backend,
                ..preset_cfg.clone()
            };
            let mut m = ClusterNode::with_tables(
                id,
                node_cfg,
                Arc::clone(tables),
                spec.weight,
                cfg.shape,
                cfg.daemon_period,
            )
            .with_rack(rack);
            m.set_grant(arbiter.grants()[id]);
            m
        })
        .collect();
    (arbiter, members)
}

/// Run the cluster to completion under `cfg`.
///
/// Each iteration: all members compute their share in parallel (stepped
/// as contiguous `crate::shard` work items over the thread pool); the
/// comm model prices the exchange phase from the global view (rendezvous
/// starts, per-link contention, power-throttled NIC drain rates); the
/// barrier lands when the last flow does and everyone short of it spins
/// up to it (MPI-style polling), earliest next event first; members
/// report per-phase telemetry into reused shard buffers; the arbiter
/// redistributes and the new grants take effect for the next iteration
/// (bit-identical regrants skip the store — the daemon re-reads its cell
/// every control tick either way).
///
/// An invalid configuration, rejected telemetry, or a degenerate
/// imbalance analysis is reported as a [`ClusterError`] (the `repro` CLI
/// surfaces it as a clean exit-2 message); only genuine internal
/// invariant violations (Σ grants ≤ budget) still panic.
pub fn run_cluster(cfg: &ClusterConfig) -> Result<ClusterOutcome, ClusterError> {
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    run_cluster_sharded(cfg, threads)
}

/// [`run_cluster`] with an explicit shard count. Shard geometry is pure
/// scheduling — any count yields bitwise identical outcomes (the
/// differential suite sweeps this) — so the public entry point just
/// picks the thread count.
fn run_cluster_sharded(cfg: &ClusterConfig, want: usize) -> Result<ClusterOutcome, ClusterError> {
    cfg.validate()?;
    let n = cfg.nodes.len();
    let (mut arbiter, members) = setup(cfg);
    let mut shards = Shard::partition(members, want);
    let weights: Vec<f64> = cfg.nodes.iter().map(|s| s.weight).collect();

    // Rank-ordered gather buffers, allocated once and reused every
    // iteration (the per-iteration output records still own their data).
    let mut ready_s = vec![0.0; n];
    let mut drain = vec![0.0; n];
    let mut compute_s = vec![0.0; n];
    let mut reports: Vec<Option<NodeTelemetry>> = vec![None; n];

    let mut iterations = Vec::with_capacity(cfg.iters);
    for round in 0..cfg.iters {
        // Compute phase: shards advance their members independently.
        let coupling = cfg.comm.power_coupling;
        shards = shards
            .into_par_iter()
            .map(|mut s| {
                s.compute_phase(coupling);
                s
            })
            .collect();
        for s in &shards {
            let span = s.span();
            ready_s[span.clone()].copy_from_slice(&s.ready_s);
            drain[span.clone()].copy_from_slice(&s.drain);
            compute_s[span].copy_from_slice(&s.compute_s);
        }

        // Exchange phase: priced from the global view. The NIC drain
        // factors reflect each node's power state at the end of its
        // compute phase — a capped node feeds its injection queue slower.
        let exchange = comm::exchange(&cfg.comm, &ready_s, &weights, &drain);

        // Barrier: the last flow's landing gates everyone. With no flows
        // every `done_s` equals `ready_s` exactly, so this reduces to the
        // ideal barrier (max member clock) bit for bit; the max of
        // per-shard integer maxima is order-independent.
        let phases = &exchange.phases;
        let barrier_at = shards
            .iter()
            .map(|s| s.barrier_candidate(&phases[s.span()]))
            .fold(0, Nanos::max);

        // Spin + telemetry phase: each shard wakes only members short of
        // the barrier and files reports into its reused buffers.
        shards = shards
            .into_par_iter()
            .map(|mut s| {
                let span = s.span();
                s.finish_phase(barrier_at, &phases[span]);
                s
            })
            .collect();
        for s in &shards {
            reports[s.span()].copy_from_slice(&s.reports);
        }

        let imbalance = imbalance::analyze(&compute_s)
            .map_err(|e| ClusterError::Analysis(format!("iteration {round}: {e}")))?;
        let grants = arbiter.redistribute(&reports)?;
        for s in &mut shards {
            let span = s.span();
            for (m, &g) in s.members_mut().iter_mut().zip(&grants[span]) {
                m.set_grant_if_changed(g);
            }
        }

        iterations.push(IterationRecord {
            round,
            barrier_at_s: secs(barrier_at),
            compute_s: compute_s.clone(),
            comm_s: exchange.phases.iter().map(|p| p.comm_s).collect(),
            slack_s: exchange.phases.iter().map(|p| p.slack_s).collect(),
            bytes: exchange.total_bytes,
            imbalance,
            reporting: reports.iter().map(Option::is_some).collect(),
        });
    }

    let makespan_s = iterations.last().map(|i| i.barrier_at_s).unwrap_or(0.0);
    let members = || shards.iter().flat_map(|s| s.members().iter());
    let energy_j = members().map(ClusterNode::total_energy).sum();
    let node_work = members().map(|m| m.node().work_counts()).sum();
    Ok(ClusterOutcome {
        makespan_s,
        energy_j,
        node_work,
        iterations,
        final_grants_w: arbiter.grants().to_vec(),
        rack_trace: arbiter.rack_trace().cloned(),
        grant_trace: arbiter.trace().clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter::Policy;
    use crate::member::DEFAULT_DAEMON_PERIOD;
    use simnode::time::from_secs;

    fn small_cfg(policy: Policy) -> ClusterConfig {
        ClusterConfig {
            nodes: vec![
                NodeSpec::new(Preset::Reference, 1.0),
                NodeSpec::new(Preset::Reference, 1.5),
                NodeSpec::new(Preset::Reference, 2.0),
            ],
            iters: 3,
            arbiter: ArbiterConfig {
                budget_w: 240.0,
                min_cap_w: 40.0,
                max_cap_w: 130.0,
                policy,
            },
            shape: WorkloadShape::default(),
            comm: CommConfig::none(),
            daemon_period: DEFAULT_DAEMON_PERIOD,
            hierarchy: None,
        }
    }

    fn halo_comm(bytes_per_unit: f64) -> CommConfig {
        CommConfig {
            alpha_s: 2.0e-6,
            nic_bw: 12.5e9,
            power_coupling: 0.5,
            pattern: crate::comm::CommPattern::HaloExchange { bytes_per_unit },
            topology: crate::topology::Topology::FlatSwitch,
        }
    }

    #[test]
    fn barrier_couples_the_members() {
        let out = run_cluster(&small_cfg(Policy::UniformStatic)).unwrap();
        assert_eq!(out.iterations.len(), 3);
        for it in &out.iterations {
            // The heaviest rank is the critical path every iteration.
            assert_eq!(it.imbalance.critical_rank, 2);
            assert!(it.imbalance.wait_fraction > 0.05, "light ranks wait");
        }
        assert!(out.makespan_s > 0.0);
        assert!(out.energy_j > 0.0);
    }

    #[test]
    fn budget_is_conserved_on_every_tick() {
        let out = run_cluster(&small_cfg(Policy::ProgressFeedback { gain: 1.0 })).unwrap();
        assert_eq!(out.grant_trace.len(), 3);
        assert!(
            out.min_budget_slack_w() >= -1e-6,
            "slack {}",
            out.min_budget_slack_w()
        );
    }

    #[test]
    fn feedback_shifts_watts_toward_the_heavy_rank() {
        let out = run_cluster(&small_cfg(Policy::ProgressFeedback { gain: 1.0 })).unwrap();
        let g = &out.final_grants_w;
        assert!(
            g[2] > g[0] + 5.0,
            "critical rank must end with more watts: {g:?}"
        );
    }

    #[test]
    fn ideal_barrier_reports_zero_comm_everywhere() {
        let out = run_cluster(&small_cfg(Policy::UniformStatic)).unwrap();
        assert_eq!(out.mean_comm_s(), 0.0);
        assert_eq!(out.total_bytes(), 0.0);
        for it in &out.iterations {
            assert!(it.comm_s.iter().all(|&c| c == 0.0));
        }
    }

    #[test]
    fn halo_exchange_stretches_the_makespan_and_reports_phases() {
        let ideal = run_cluster(&small_cfg(Policy::UniformStatic)).unwrap();
        let mut cfg = small_cfg(Policy::UniformStatic);
        cfg.comm = halo_comm(64.0 * 1024.0 * 1024.0);
        let out = run_cluster(&cfg).unwrap();
        assert!(
            out.makespan_s > ideal.makespan_s,
            "paying for the wire must cost wall-clock: {:.3} vs {:.3}",
            out.makespan_s,
            ideal.makespan_s
        );
        assert!(out.mean_comm_s() > 0.0);
        assert!(out.total_bytes() > 0.0);
        // The phase split reaches the arbiter's trace.
        for tick in out.grant_trace.ticks() {
            for (i, &c) in tick.comm_s.iter().enumerate() {
                if tick.reporting[i] {
                    assert!(c > 0.0, "reporting node {i} must carry wire time");
                }
            }
        }
    }

    #[test]
    fn hierarchical_run_traces_both_levels_and_tags_racks() {
        let mut cfg = small_cfg(Policy::ProgressFeedback { gain: 1.0 });
        cfg.nodes.push(NodeSpec::new(Preset::Reference, 1.0));
        cfg.arbiter.budget_w = 320.0;
        cfg.hierarchy = Some(HierarchyConfig {
            racks: vec![2, 2],
            outer_period: 1,
            inner_period: 1,
            rack_policy: Policy::ProgressFeedback { gain: 1.0 },
            rack_clamps: None,
        });
        let out = run_cluster(&cfg).unwrap();
        assert_eq!(out.grant_trace.len(), 3, "one leaf tick per barrier");
        let rack = out.rack_trace.as_ref().expect("hierarchy traces racks");
        assert_eq!(rack.len(), 3, "outer period 1 fires every barrier");
        assert!(out.min_budget_slack_w() >= -1e-6, "leaf conservation");
        assert!(rack.min_slack_w() >= -1e-6, "rack conservation");
        // Flat runs leave the rack level untraced.
        let flat = run_cluster(&small_cfg(Policy::UniformStatic)).unwrap();
        assert!(flat.rack_trace.is_none());
    }

    #[test]
    fn poor_cooling_node_is_clamped_to_its_thermal_ceiling() {
        // A generous budget that would otherwise let every node saturate
        // at the 130 W shared max — but the PoorCooling node can only
        // dissipate ~115.6 W in steady state, so the arbiter must never
        // grant it more (PROCHOT would claw the excess back).
        let mut cfg = small_cfg(Policy::ProgressFeedback { gain: 1.0 });
        cfg.nodes[2] = NodeSpec::new(Preset::PoorCooling, 2.0);
        cfg.arbiter.budget_w = 390.0;
        let ceiling = Preset::PoorCooling.thermal_ceiling_w();
        assert!(
            ceiling < cfg.arbiter.max_cap_w,
            "preset must be thermally constrained: {ceiling} W"
        );
        let out = run_cluster(&cfg).unwrap();
        for tick in out.grant_trace.ticks() {
            assert!(
                tick.granted_w[2] <= ceiling + 1e-6,
                "round {}: grant {} W above the {ceiling:.1} W ceiling",
                tick.round,
                tick.granted_w[2]
            );
        }
        // The clamped-off watts fund the unconstrained nodes instead:
        // they end above the constrained node's ceiling.
        assert!(
            out.final_grants_w[0] > ceiling && out.final_grants_w[1] > ceiling,
            "freed headroom must reach the others: {:?}",
            out.final_grants_w
        );
        assert!(out.min_budget_slack_w() >= -1e-6);
    }

    #[test]
    fn members_of_one_preset_share_one_table_allocation() {
        let mut cfg = small_cfg(Policy::ProgressFeedback { gain: 1.0 });
        cfg.nodes = (0..64)
            .map(|i| {
                let preset = if i % 3 == 0 {
                    Preset::Leaky(15.0)
                } else {
                    Preset::Reference
                };
                NodeSpec::new(preset, 1.0 + 0.01 * i as f64)
            })
            .collect();
        cfg.arbiter.budget_w = 64.0 * 65.0;
        cfg.hierarchy = Some(HierarchyConfig {
            racks: vec![16; 4],
            outer_period: 2,
            inner_period: 1,
            rack_policy: Policy::ProgressFeedback { gain: 1.0 },
            rack_clamps: None,
        });
        cfg.validate().unwrap();
        let (_, members) = setup(&cfg);
        let mut allocations: Vec<(&Arc<NodeTables>, usize)> = Vec::new();
        // Each member's tables equal its own preset's bit for bit:
        // `Node::with_tables` asserts it in the debug builds tests run.
        for m in &members {
            let tables = m.node().tables();
            match allocations.iter_mut().find(|(t, _)| Arc::ptr_eq(t, tables)) {
                Some((_, count)) => *count += 1,
                None => allocations.push((tables, 1)),
            }
        }
        let counts: Vec<usize> = allocations.iter().map(|&(_, k)| k).collect();
        assert_eq!(counts, [22, 42], "one allocation per preset");
        for (tables, count) in allocations {
            assert_eq!(Arc::strong_count(tables), count, "no other holder");
        }
        assert_eq!(
            members.iter().map(ClusterNode::rack).collect::<Vec<_>>(),
            (0..64).map(|i| i / 16).collect::<Vec<_>>()
        );
    }

    #[test]
    fn reference_nodes_have_no_thermal_ceiling() {
        assert_eq!(Preset::Reference.thermal_ceiling_w(), f64::INFINITY);
        assert_eq!(Preset::Leaky(10.0).thermal_ceiling_w(), f64::INFINITY);
    }

    /// Every observable of the two outcomes, compared bitwise.
    fn assert_outcomes_bit_identical(a: &ClusterOutcome, b: &ClusterOutcome) {
        assert_eq!(a.makespan_s.to_bits(), b.makespan_s.to_bits(), "makespan");
        assert_eq!(a.energy_j.to_bits(), b.energy_j.to_bits(), "energy");
        assert_eq!(a.node_work, b.node_work, "node work counts");
        assert_eq!(a.final_grants_w.len(), b.final_grants_w.len());
        for (x, y) in a.final_grants_w.iter().zip(&b.final_grants_w) {
            assert_eq!(x.to_bits(), y.to_bits(), "final grants");
        }
        assert_eq!(a.iterations.len(), b.iterations.len());
        for (ia, ib) in a.iterations.iter().zip(&b.iterations) {
            assert_eq!(ia.barrier_at_s.to_bits(), ib.barrier_at_s.to_bits());
            assert_eq!(ia.reporting, ib.reporting);
            for (x, y) in ia.compute_s.iter().zip(&ib.compute_s) {
                assert_eq!(x.to_bits(), y.to_bits(), "compute_s");
            }
            for (x, y) in ia.comm_s.iter().zip(&ib.comm_s) {
                assert_eq!(x.to_bits(), y.to_bits(), "comm_s");
            }
        }
        assert_eq!(a.grant_trace.len(), b.grant_trace.len());
        for (ta, tb) in a.grant_trace.ticks().iter().zip(b.grant_trace.ticks()) {
            for (x, y) in ta.granted_w.iter().zip(&tb.granted_w) {
                assert_eq!(x.to_bits(), y.to_bits(), "leaf trace grants");
            }
        }
        match (&a.rack_trace, &b.rack_trace) {
            (None, None) => {}
            (Some(ra), Some(rb)) => {
                assert_eq!(ra.len(), rb.len());
                for (ta, tb) in ra.ticks().iter().zip(rb.ticks()) {
                    for (x, y) in ta.granted_w.iter().zip(&tb.granted_w) {
                        assert_eq!(x.to_bits(), y.to_bits(), "rack trace grants");
                    }
                }
            }
            _ => panic!("one outcome traced racks, the other did not"),
        }
    }

    /// The pre-sharding bulk-synchronous driver, kept as the executable
    /// specification for [`run_cluster`]: every member moves through its own
    /// parallel work item and telemetry is re-collected into fresh vectors
    /// each barrier. The two `sharded_*` tests below pin the sharded engine
    /// to this path bit for bit.
    fn run_cluster_reference(cfg: &ClusterConfig) -> Result<ClusterOutcome, ClusterError> {
        cfg.validate()?;
        let (mut arbiter, mut members) = setup(cfg);
        let weights: Vec<f64> = cfg.nodes.iter().map(|s| s.weight).collect();
        let mut iterations = Vec::with_capacity(cfg.iters);
        for round in 0..cfg.iters {
            // Compute phase: members advance independently in parallel.
            members = members
                .into_par_iter()
                .map(|mut m| {
                    m.compute_iteration();
                    m
                })
                .collect();

            // Exchange phase: priced from the global view. The NIC drain
            // factors reflect each node's power state at the end of its
            // compute phase — a capped node feeds its injection queue slower.
            let ready_ns: Vec<Nanos> = members.iter().map(ClusterNode::now).collect();
            let ready_s: Vec<f64> = ready_ns.iter().map(|&t| secs(t)).collect();
            let drain: Vec<f64> = members
                .iter()
                .map(|m| m.link_drain_factor(cfg.comm.power_coupling))
                .collect();
            let exchange = comm::exchange(&cfg.comm, &ready_s, &weights, &drain);

            // Barrier: the last flow's landing gates everyone. With no flows
            // every `done_s` equals `ready_s` exactly, so this reduces to the
            // ideal barrier (max member clock) bit for bit. Folding from 0
            // needs no nonempty-witness: clocks are non-negative, and
            // `validate()` pinned the cluster to at least one member anyway.
            let barrier_at = members
                .iter()
                .zip(&exchange.phases)
                .map(|(m, p)| m.now() + from_secs(p.done_s - p.ready_s))
                .fold(0, Nanos::max);
            members = members
                .into_par_iter()
                .map(|mut m| {
                    m.spin_until(barrier_at);
                    m
                })
                .collect();

            // Telemetry + redistribution.
            for (m, p) in members.iter_mut().zip(&exchange.phases) {
                m.set_phase(p.comm_s, p.slack_s);
            }
            let reports: Vec<Option<NodeTelemetry>> =
                members.iter_mut().map(ClusterNode::take_report).collect();
            let compute_s: Vec<f64> = members.iter().map(ClusterNode::last_compute_s).collect();
            let imbalance = imbalance::analyze(&compute_s)
                .map_err(|e| ClusterError::Analysis(format!("iteration {round}: {e}")))?;
            let grants = arbiter.redistribute(&reports)?.to_vec();
            for (m, &g) in members.iter_mut().zip(&grants) {
                m.set_grant(g);
            }

            iterations.push(IterationRecord {
                round,
                barrier_at_s: secs(barrier_at),
                compute_s,
                comm_s: exchange.phases.iter().map(|p| p.comm_s).collect(),
                slack_s: exchange.phases.iter().map(|p| p.slack_s).collect(),
                bytes: exchange.total_bytes,
                imbalance,
                reporting: reports.iter().map(Option::is_some).collect(),
            });
        }

        let makespan_s = iterations.last().map(|i| i.barrier_at_s).unwrap_or(0.0);
        let energy_j = members.iter().map(ClusterNode::total_energy).sum();
        let node_work = members.iter().map(|m| m.node().work_counts()).sum();
        Ok(ClusterOutcome {
            makespan_s,
            energy_j,
            node_work,
            iterations,
            final_grants_w: arbiter.grants().to_vec(),
            rack_trace: arbiter.rack_trace().cloned(),
            grant_trace: arbiter.trace().clone(),
        })
    }

    #[test]
    fn sharded_flat_run_matches_the_reference_bit_for_bit() {
        // The nastiest flat config the suite has: feedback policy, halo
        // comm, a thermally clamped node, and a telemetry-dropout fault.
        use simnode::faults::{FaultPlan, FaultWindow};
        use simnode::time::SEC;
        let mut cfg = small_cfg(Policy::ProgressFeedback { gain: 1.0 });
        cfg.nodes[2] = NodeSpec::new(Preset::PoorCooling, 2.0);
        cfg.nodes[1] = cfg.nodes[1]
            .clone()
            .with_faults(FaultPlan::new(7).telemetry_dropout(FaultWindow::new(SEC / 2, 3 * SEC)));
        cfg.comm = halo_comm(16.0 * 1024.0 * 1024.0);
        cfg.iters = 4;
        let sharded = run_cluster(&cfg).unwrap();
        let reference = run_cluster_reference(&cfg).unwrap();
        assert_outcomes_bit_identical(&sharded, &reference);
    }

    #[test]
    fn sharded_hierarchical_run_matches_the_reference_bit_for_bit() {
        let mut cfg = small_cfg(Policy::ProgressFeedback { gain: 1.0 });
        cfg.nodes.push(NodeSpec::new(Preset::Reference, 1.2));
        cfg.nodes.push(NodeSpec::new(Preset::Leaky(10.0), 0.8));
        cfg.nodes.push(NodeSpec::new(Preset::Reference, 1.7));
        cfg.arbiter.budget_w = 480.0;
        cfg.hierarchy = Some(HierarchyConfig {
            racks: vec![2, 2, 2],
            outer_period: 2,
            inner_period: 1,
            rack_policy: Policy::ProgressFeedback { gain: 0.8 },
            rack_clamps: None,
        });
        cfg.comm = halo_comm(8.0 * 1024.0 * 1024.0);
        cfg.iters = 4;
        let sharded = run_cluster(&cfg).unwrap();
        let reference = run_cluster_reference(&cfg).unwrap();
        assert_outcomes_bit_identical(&sharded, &reference);
    }

    #[test]
    fn shard_geometry_never_changes_the_bits() {
        // 6 members split 1 / 2 / 4 / 6 ways (uneven tail shards
        // included) must produce identical outcomes regardless of how
        // many threads the host machine happens to offer.
        let mut cfg = small_cfg(Policy::ProgressFeedback { gain: 1.0 });
        cfg.nodes.push(NodeSpec::new(Preset::Reference, 1.2));
        cfg.nodes.push(NodeSpec::new(Preset::Reference, 0.9));
        cfg.nodes.push(NodeSpec::new(Preset::Reference, 1.7));
        cfg.arbiter.budget_w = 480.0;
        cfg.comm = halo_comm(4.0 * 1024.0 * 1024.0);
        let one = run_cluster_sharded(&cfg, 1).unwrap();
        for want in [2, 4, 6] {
            let many = run_cluster_sharded(&cfg, want).unwrap();
            assert_outcomes_bit_identical(&one, &many);
        }
    }

    #[test]
    fn zero_byte_messages_reproduce_the_ideal_barrier_bit_for_bit() {
        let ideal = run_cluster(&small_cfg(Policy::ProgressFeedback { gain: 1.0 })).unwrap();
        let mut cfg = small_cfg(Policy::ProgressFeedback { gain: 1.0 });
        cfg.comm = halo_comm(0.0);
        let zero = run_cluster(&cfg).unwrap();
        assert_eq!(ideal.makespan_s.to_bits(), zero.makespan_s.to_bits());
        assert_eq!(ideal.energy_j.to_bits(), zero.energy_j.to_bits());
        for (a, b) in ideal
            .grant_trace
            .ticks()
            .iter()
            .zip(zero.grant_trace.ticks())
        {
            for (ga, gb) in a.granted_w.iter().zip(&b.granted_w) {
                assert_eq!(ga.to_bits(), gb.to_bits());
            }
        }
    }
}
