//! Job-level power distribution over simulated nodes (paper §II).
//!
//! The paper places the NRM under a job manager that divides the job's
//! power budget across nodes "according to application characteristics
//! and node variability", and motivates progress monitoring so that
//! division can be done well. That divider is [`cluster::PowerArbiter`]:
//! [`run_job`] steps a fleet of [`SimNode`]s epoch by epoch and feeds
//! each epoch's telemetry back into it.
//!
//! - Equal split is [`Policy::UniformStatic`], the baseline an
//!   application-agnostic manager would use.
//! - Progress-aware split is [`Policy::ProgressFeedback`] with
//!   [`PowerArbiter::with_progress_weights`] set to `1 / baseline rate`:
//!   the feedback then equalizes *normalized* progress, pushing watts
//!   toward the node furthest behind its own uncapped rate. For a
//!   bulk-synchronous job the job's progress is the slowest node's
//!   (Rountree et al.'s variability argument, which the paper cites).
//!
//! Node variability is expressed through per-node [`NodeConfig`] deltas
//! (e.g. a leakier chip draws more watts for the same frequency).
//!
//! [`Policy::UniformStatic`]: cluster::Policy::UniformStatic
//! [`Policy::ProgressFeedback`]: cluster::Policy::ProgressFeedback

use cluster::{NodeTelemetry, PowerArbiter};
use progress::aggregator::ProgressAggregator;
use progress::bus::{BusConfig, ProgressBus};
use proxyapps::catalog::{build, AppId};
use proxyapps::runtime::Driver;
use simnode::config::NodeConfig;
use simnode::time::{Nanos, SEC};

/// One simulated node under job management.
pub struct SimNode {
    driver: Driver,
    agg: ProgressAggregator,
    baseline_rate: f64,
    epoch: Nanos,
    last_work: f64,
    last_energy: f64,
}

impl SimNode {
    /// Build a node running `app` on hardware `cfg`, with a measured
    /// uncapped `baseline_rate` (app units/s) for normalization.
    pub fn new(cfg: NodeConfig, app: AppId, seed: u64, baseline_rate: f64) -> Self {
        assert!(baseline_rate > 0.0);
        let bus = ProgressBus::new();
        let instance = build(app, &cfg, cfg.cores, seed);
        let node = simnode::node::Node::new(cfg);
        let channels = instance.channels();
        let driver = Driver::new(node, instance.programs, &bus, channels);
        let source = driver.channel_sources()[0];
        let agg = ProgressAggregator::new(bus.subscribe(BusConfig::lossless()), SEC, Some(source));
        Self {
            driver,
            agg,
            baseline_rate,
            epoch: SEC,
            last_work: 0.0,
            last_energy: 0.0,
        }
    }

    /// Use a longer epoch than the default 1 s (coarse reporters need a
    /// few reporting periods per epoch for a stable rate).
    pub fn with_epoch(mut self, epoch: Nanos) -> Self {
        assert!(epoch >= SEC);
        self.epoch = epoch;
        self
    }

    /// Measure an uncapped baseline rate for (cfg, app): helper for
    /// constructing fleets.
    pub fn measure_baseline(cfg: &NodeConfig, app: AppId, seed: u64, duration: Nanos) -> f64 {
        let mut rc = crate::runner::RunConfig::new(app, duration);
        rc.node = cfg.clone();
        rc.ranks = cfg.cores;
        rc.seed = seed;
        crate::runner::run_app(&rc).steady_rate()
    }

    /// The node's uncapped reference rate, app units/s.
    pub fn baseline_rate(&self) -> f64 {
        self.baseline_rate
    }

    /// Apply `cap_w` and advance one epoch of simulated time; return the
    /// epoch's telemetry. The node computes for the whole epoch, so
    /// `compute_s` is the epoch length and there is no exchange phase.
    pub fn run_epoch(&mut self, cap_w: f64) -> NodeTelemetry {
        // Best-effort: a failed cap write leaves the previous cap in force;
        // the arbiter observes the resulting power and compensates at the
        // next epoch rather than crashing the fleet.
        let _ = self.driver.node_mut().set_package_cap(Some(cap_w));
        let until = self.driver.node().now() + self.epoch;
        self.driver.run(until, &mut []);
        let now = self.driver.node().now();
        self.agg.poll(now);

        let total_work: f64 = self.agg.windows().iter().map(|w| w.sum).sum();
        let work = total_work - self.last_work;
        self.last_work = total_work;

        let total_energy = self.driver.node().total_energy();
        let energy = total_energy - self.last_energy;
        self.last_energy = total_energy;

        let epoch_s = self.epoch as f64 / 1e9;
        NodeTelemetry::compute_only(epoch_s, work / epoch_s, energy / epoch_s)
    }
}

/// Run `epochs` management epochs: every node runs one epoch at its
/// grant, then `arbiter` redistributes from the epoch's telemetry.
/// Returns each epoch's normalized progress (rate over baseline rate),
/// one value per node.
///
/// # Panics
/// Panics when `nodes` does not match the arbiter's node count.
pub fn run_job(arbiter: &mut PowerArbiter, nodes: &mut [SimNode], epochs: usize) -> Vec<Vec<f64>> {
    let mut trace = Vec::with_capacity(epochs);
    for _ in 0..epochs {
        let mut reports = Vec::with_capacity(nodes.len());
        let mut normalized = Vec::with_capacity(nodes.len());
        for (node, &cap) in nodes.iter_mut().zip(arbiter.grants()) {
            let t = node.run_epoch(cap);
            normalized.push(t.rate / node.baseline_rate);
            reports.push(Some(t));
        }
        arbiter
            .redistribute(&reports)
            .expect("one well-formed report per node");
        trace.push(normalized);
    }
    trace
}

/// The job's bulk-synchronous progress — the slowest node's normalized
/// progress — averaged over the trailing half of a [`run_job`] trace
/// (the settled view).
pub fn settled_job_progress(trace: &[Vec<f64>]) -> f64 {
    let tail = &trace[trace.len() / 2..];
    if tail.is_empty() {
        return 0.0;
    }
    let job = |epoch: &Vec<f64>| epoch.iter().copied().fold(f64::INFINITY, f64::min);
    tail.iter().map(job).sum::<f64>() / tail.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{ArbiterConfig, Policy};

    /// A leaky chip: +18% switched capacitance draws more power at every
    /// operating point (manufacturing variability).
    fn leaky(cfg: &NodeConfig) -> NodeConfig {
        let mut c = cfg.clone();
        c.core_power.c_dyn *= 1.18;
        c
    }

    /// Two normal nodes and a leaky one (index 2), all running LAMMPS.
    fn fleet(epoch: Nanos) -> Vec<SimNode> {
        let normal = NodeConfig::default();
        let bad = leaky(&normal);
        let baseline = SimNode::measure_baseline(&normal, AppId::Lammps, 1, 5 * SEC);
        let baseline_bad = SimNode::measure_baseline(&bad, AppId::Lammps, 1, 5 * SEC);
        vec![
            SimNode::new(normal.clone(), AppId::Lammps, 1, baseline).with_epoch(epoch),
            SimNode::new(normal.clone(), AppId::Lammps, 2, baseline).with_epoch(epoch),
            SimNode::new(bad, AppId::Lammps, 3, baseline_bad).with_epoch(epoch),
        ]
    }

    /// Run the fleet for 8 epochs under `policy`, with progress weights
    /// `1 / baseline` for the feedback policy; returns the settled job
    /// progress and the arbiter.
    fn run_policy(policy: Policy) -> (f64, PowerArbiter) {
        let mut nodes = fleet(2 * SEC);
        // 270 W for three nodes that want ~450 W uncapped.
        let cfg = ArbiterConfig {
            budget_w: 270.0,
            min_cap_w: 40.0,
            max_cap_w: 150.0,
            policy,
        };
        let weights = nodes.iter().map(|n| 1.0 / n.baseline_rate()).collect();
        let mut arbiter = PowerArbiter::new(cfg, nodes.len()).with_progress_weights(weights);
        let trace = run_job(&mut arbiter, &mut nodes, 8);
        (settled_job_progress(&trace), arbiter)
    }

    #[test]
    fn progress_aware_distribution_helps_a_heterogeneous_job() {
        let (equal, uniform) = run_policy(Policy::UniformStatic);
        let (aware, feedback) = run_policy(Policy::ProgressFeedback { gain: 1.5 });
        assert!(
            aware > equal,
            "progress-aware ({aware:.3}) must beat equal split ({equal:.3})"
        );
        assert!(equal > 0.3 && aware < 1.0, "sanity: {equal:.3}, {aware:.3}");
        // Equal split never moves a grant.
        assert_eq!(uniform.trace().len(), 8);
        for tick in uniform.trace().ticks() {
            assert_eq!(tick.granted_w, vec![90.0; 3], "round {}", tick.round);
        }
        // Weighted feedback ends with the leaky node holding the largest
        // grant, inside the budget.
        let g = feedback.grants();
        assert!(g[2] > g[0] && g[2] > g[1], "leaky node funded: {g:?}");
        assert!(feedback.trace().min_slack_w() >= -1e-6);
    }

    #[test]
    fn epochs_observe_plausible_power() {
        let mut nodes = fleet(2 * SEC);
        let t = nodes[0].run_epoch(90.0);
        assert!((30.0..110.0).contains(&t.power_w), "{}", t.power_w);
        assert!(t.rate > 0.0);
        assert_eq!(t.compute_s, 2.0);
    }

    #[test]
    fn settled_progress_is_the_slowest_node_over_the_trailing_half() {
        let trace = vec![vec![0.1, 0.2], vec![0.5, 0.9], vec![0.8, 0.7]];
        assert!((settled_job_progress(&trace) - 0.6).abs() < 1e-12);
        assert_eq!(settled_job_progress(&[]), 0.0);
    }
}
