//! `cluster_hier_halo_4096`: one op is one `cluster::run_cluster` of
//! 4096 reference nodes carrying a seed-shuffled 1.0–2.6 weight ramp, a
//! 1 MiB-per-unit halo exchange over a 32-node rack tree, and
//! hierarchical progress feedback over 128 racks. This is where
//! macro-quantum member stepping, comm pricing and the rack arbiter's
//! incremental fill run at scale; the wire and service layers are
//! bypassed.

use std::ops::Range;
use std::time::Instant;

use cluster::{
    exchange, ramp_weights, run_cluster, ArbiterConfig, BudgetArbiter, ClusterConfig, ClusterNode,
    CommConfig, CommPattern, HierarchyConfig, NodePhase, NodeSpec, NodeTelemetry, Policy, Preset,
    RackArbiter, Topology, WorkloadShape,
};
use progress::imbalance;
use simnode::config::NodeConfig;
use simnode::time::{from_secs, secs, Nanos, MS};

use super::{Settings, Tally, Workload, WorkloadId};
use crate::probe::{Acc, Layer, Probe};
use crate::rng::shuffle;

/// Nodes per rack, matching the rack-tree topology.
const RACK: usize = 32;

fn config(seed: u64, smoke: bool) -> ClusterConfig {
    let (n, iters) = if smoke { (64, 3) } else { (4096, 10) };
    let mut weights = ramp_weights(n, 1.0, 2.6);
    shuffle(&mut weights, seed);
    ClusterConfig {
        nodes: weights
            .into_iter()
            .map(|w| NodeSpec::new(Preset::Reference, w))
            .collect(),
        iters,
        arbiter: ArbiterConfig {
            budget_w: 65.0 * n as f64,
            min_cap_w: 40.0,
            max_cap_w: 130.0,
            policy: Policy::ProgressFeedback { gain: 1.0 },
        },
        shape: WorkloadShape::default().scaled(0.1),
        comm: CommConfig {
            alpha_s: 2e-6,
            nic_bw: 12.5e9,
            power_coupling: 0.5,
            pattern: CommPattern::HaloExchange {
                bytes_per_unit: 1024.0 * 1024.0,
            },
            topology: Topology::RackTree {
                nodes_per_rack: RACK,
                uplink_bw: 25.0e9,
            },
        },
        daemon_period: 10 * MS,
        hierarchy: Some(HierarchyConfig {
            racks: vec![RACK; n / RACK],
            outer_period: 2,
            inner_period: 1,
            rack_policy: Policy::ProgressFeedback { gain: 1.0 },
            rack_clamps: None,
        }),
    }
}

/// What a run is checked on.
#[derive(Debug)]
struct Outcome {
    makespan_s: f64,
    energy_j: f64,
    final_grants_w: Vec<f64>,
    /// Smallest node- and rack-level budget slack over the run, W.
    min_slack_w: [f64; 2],
}

impl Outcome {
    fn bits(&self) -> (u64, u64, Vec<u64>) {
        (
            self.makespan_s.to_bits(),
            self.energy_j.to_bits(),
            self.final_grants_w.iter().map(|g| g.to_bits()).collect(),
        )
    }

    fn conserves(&self) -> bool {
        self.min_slack_w.iter().all(|&s| s >= -1e-6)
    }
}

/// The workload's state: its configuration and the warm-up's outcome.
pub struct Cluster {
    cfg: ClusterConfig,
    reference: Outcome,
}

fn untraced(cfg: &ClusterConfig) -> Result<Outcome, String> {
    let out = run_cluster(cfg).map_err(|e| e.to_string())?;
    Ok(Outcome {
        makespan_s: out.makespan_s,
        energy_j: out.energy_j,
        min_slack_w: [
            out.min_budget_slack_w(),
            out.rack_trace.as_ref().map_or(0.0, |t| t.min_slack_w()),
        ],
        final_grants_w: out.final_grants_w,
    })
}

impl Cluster {
    fn tally(&self, out: Result<Outcome, String>) -> Tally {
        let ok = out
            .as_ref()
            .is_ok_and(|o| o.conserves() && o.bits() == self.reference.bits());
        Tally {
            work: out
                .map(|o| o.makespan_s * self.cfg.nodes.len() as f64)
                .unwrap_or(0.0),
            attempted: 1,
            failed: u64::from(!ok),
        }
    }
}

impl Workload for Cluster {
    const THREADS: usize = 2;

    fn setup(_: WorkloadId, s: &Settings) -> Result<Self, String> {
        let cfg = config(s.seed, s.smoke);
        let reference = untraced(&cfg)?;
        if !reference.conserves() {
            return Err(format!(
                "warm-up run broke Σ grants ≤ budget: {reference:?}"
            ));
        }
        Ok(Self { cfg, reference })
    }

    fn op(&mut self, _: usize) -> Tally {
        self.tally(untraced(&self.cfg))
    }

    fn traced_op(&mut self, probe: &mut Probe) -> Tally {
        let out = traced(&self.cfg, probe);
        if let Ok(o) = &out {
            let sim = o.makespan_s * self.cfg.nodes.len() as f64;
            probe.acc().add(Layer::SimNodeSeconds, sim);
        }
        self.tally(out)
    }
}

/// One contiguous half of the ranks with reused per-iteration buffers,
/// stepped on its own thread.
struct Half {
    span: Range<usize>,
    members: Vec<ClusterNode>,
    acc: Acc,
    compute_s: Vec<f64>,
    ready_s: Vec<f64>,
    drain: Vec<f64>,
    reports: Vec<Option<NodeTelemetry>>,
    queue: Vec<(Nanos, usize)>,
}

impl Half {
    fn new(span: Range<usize>) -> Self {
        let n = span.len();
        Self {
            span,
            members: Vec::with_capacity(n),
            acc: Acc::default(),
            compute_s: vec![0.0; n],
            ready_s: vec![0.0; n],
            drain: vec![0.0; n],
            reports: vec![None; n],
            queue: Vec::with_capacity(n),
        }
    }
}

/// Run `f` on both halves, the upper one on a scoped thread; returns
/// when each half finished.
fn both(halves: &mut [Half; 2], f: impl Fn(&mut Half) + Sync) -> [Instant; 2] {
    let [lo, hi] = halves;
    std::thread::scope(|s| {
        let worker = s.spawn(|| {
            f(hi);
            Instant::now()
        });
        f(lo);
        let lo_end = Instant::now();
        [
            lo_end,
            worker.join().expect("cluster worker thread panicked"),
        ]
    })
}

/// A parallel phase: spans per thread, the faster half's wait at the
/// join, and the phase wall on the main thread.
fn parallel_phase(
    probe: &mut Probe,
    walls: &mut f64,
    name: &'static str,
    halves: &mut [Half; 2],
    f: impl Fn(&mut Half) + Sync,
) {
    let start = Instant::now();
    let ends = both(halves, f);
    for (thread, &end) in ends.iter().enumerate() {
        probe.span(name, thread, start, end);
    }
    let (first, last) = (ends[0].min(ends[1]), ends[0].max(ends[1]));
    probe
        .acc()
        .add(Layer::ClusterJoinWait, (last - first).as_secs_f64());
    *walls += (last - start).as_secs_f64();
}

/// A serial phase on the main thread, timed into `layer`.
fn serial_phase<R>(
    probe: &mut Probe,
    walls: &mut f64,
    name: &'static str,
    layer: Layer,
    f: impl FnOnce() -> R,
) -> R {
    let start = Instant::now();
    let r = f();
    let end = Instant::now();
    probe.span(name, 0, start, end);
    probe.acc().add(layer, (end - start).as_secs_f64());
    *walls += (end - start).as_secs_f64();
    r
}

/// A benchmark-side BSP driver making exactly the `ClusterNode` calls
/// `run_cluster`'s sharded engine makes, over two contiguous halves on
/// two threads, with the exchange, imbalance analysis and rack
/// arbitration called in between. Supports this workload's
/// configuration: reference nodes, no faults, hierarchical arbitration.
fn traced(cfg: &ClusterConfig, probe: &mut Probe) -> Result<Outcome, String> {
    let n = cfg.nodes.len();
    let h = cfg
        .hierarchy
        .as_ref()
        .ok_or("the traced driver needs racks")?;
    // Walls of the timed phases; the rest of the op wall, arbiter
    // construction included, is the driver's own.
    let mut walls = 0.0;

    let start = Instant::now();
    let mut arbiter = RackArbiter::new(cfg.arbiter, h.clone());
    probe.span("arbiter.new", 0, start, Instant::now());
    let initial = BudgetArbiter::grants(&arbiter).to_vec();
    let rack_of: Vec<usize> = h
        .racks
        .iter()
        .enumerate()
        .flat_map(|(r, &k)| std::iter::repeat_n(r, k))
        .collect();
    let mut halves = [Half::new(0..n / 2), Half::new(n / 2..n)];
    parallel_phase(probe, &mut walls, "member.new", &mut halves, |half| {
        for id in half.span.clone() {
            let spec = &cfg.nodes[id];
            let node_cfg = NodeConfig {
                faults: spec.faults.clone(),
                backend: spec.backend,
                ..simnode::presets::reference()
            };
            let mut m = half.acc.time(Layer::MemberSetup, || {
                ClusterNode::new(id, node_cfg, spec.weight, cfg.shape, cfg.daemon_period)
                    .with_rack(rack_of[id])
            });
            m.set_grant(initial[id]);
            half.members.push(m);
        }
    });

    let weights: Vec<f64> = cfg.nodes.iter().map(|s| s.weight).collect();
    let mut ready_s = vec![0.0; n];
    let mut drain = vec![0.0; n];
    let mut compute_s = vec![0.0; n];
    let mut reports: Vec<Option<NodeTelemetry>> = vec![None; n];
    let coupling = cfg.comm.power_coupling;
    let mut barrier_at: Nanos = 0;
    for round in 0..cfg.iters {
        parallel_phase(probe, &mut walls, "compute", &mut halves, |half| {
            for (i, m) in half.members.iter_mut().enumerate() {
                half.acc.time(Layer::MemberCompute, || {
                    half.compute_s[i] = m.compute_iteration();
                    half.ready_s[i] = secs(m.now());
                    half.drain[i] = m.link_drain_factor(coupling);
                });
            }
            half.acc
                .add(Layer::MemberComputeCalls, half.members.len() as f64);
        });
        for half in &halves {
            ready_s[half.span.clone()].copy_from_slice(&half.ready_s);
            drain[half.span.clone()].copy_from_slice(&half.drain);
            compute_s[half.span.clone()].copy_from_slice(&half.compute_s);
        }

        let ex = serial_phase(probe, &mut walls, "exchange", Layer::CommExchange, || {
            exchange(&cfg.comm, &ready_s, &weights, &drain)
        });
        probe.acc().add(Layer::CommBytes, ex.total_bytes);
        let phases: &[NodePhase] = &ex.phases;
        barrier_at = halves
            .iter()
            .flat_map(|half| half.members.iter().zip(&phases[half.span.clone()]))
            .map(|(m, p)| m.now() + from_secs(p.done_s - p.ready_s))
            .fold(0, Nanos::max);

        parallel_phase(probe, &mut walls, "spin", &mut halves, |half| {
            let Half {
                span,
                members,
                acc,
                reports,
                queue,
                ..
            } = half;
            acc.time(Layer::MemberSpin, || {
                queue.clear();
                for (i, m) in members.iter().enumerate() {
                    if m.now() < barrier_at {
                        queue.push((m.next_event(barrier_at), i));
                    }
                }
                queue.sort_unstable();
                for &(_, i) in queue.iter() {
                    members[i].spin_until(barrier_at);
                }
            });
            acc.add(Layer::MemberSpinCalls, queue.len() as f64);
            let phases = &phases[span.clone()];
            acc.time(Layer::MemberReport, || {
                for ((m, p), r) in members.iter_mut().zip(phases).zip(reports.iter_mut()) {
                    m.set_phase(p.comm_s, p.slack_s);
                    *r = m.take_report();
                }
            });
        });
        for half in &halves {
            reports[half.span.clone()].copy_from_slice(&half.reports);
        }

        serial_phase(
            probe,
            &mut walls,
            "analyze",
            Layer::ImbalanceAnalyze,
            || imbalance::analyze(&compute_s),
        )
        .map_err(|e| format!("iteration {round}: {e}"))?;
        let grants = serial_phase(
            probe,
            &mut walls,
            "redistribute",
            Layer::HierarchyRedistribute,
            || BudgetArbiter::redistribute(&mut arbiter, &reports).map(<[f64]>::to_vec),
        )
        .map_err(|e| e.to_string())?;
        probe.acc().add(Layer::HierarchyRedistributes, 1.0);
        let changed = serial_phase(probe, &mut walls, "grant", Layer::MemberGrant, || {
            let mut changed = 0usize;
            for half in &mut halves {
                for (m, &g) in half.members.iter_mut().zip(&grants[half.span.clone()]) {
                    changed += usize::from(m.set_grant_if_changed(g));
                }
            }
            changed
        });
        probe.acc().add(Layer::MemberGrantChanges, changed as f64);
    }

    for half in &halves {
        probe.acc().merge(&half.acc);
    }
    let self_s = probe.op_elapsed() - walls;
    probe.acc().add(Layer::ClusterDriverSelf, self_s);
    Ok(Outcome {
        makespan_s: secs(barrier_at),
        energy_j: halves
            .iter()
            .flat_map(|half| half.members.iter())
            .map(ClusterNode::total_energy)
            .sum(),
        final_grants_w: BudgetArbiter::grants(&arbiter).to_vec(),
        min_slack_w: [
            BudgetArbiter::trace(&arbiter).min_slack_w(),
            BudgetArbiter::rack_trace(&arbiter).map_or(0.0, |t| t.min_slack_w()),
        ],
    })
}
