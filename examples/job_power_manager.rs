//! Job-level power distribution (paper §II): the Argo hierarchy hands a
//! *job* a power budget; the job manager divides it across nodes
//! "according to application characteristics and node variability" — and
//! progress monitoring is what makes an informed division possible.
//!
//! Three simulated nodes run LAMMPS; one has a leakier chip
//! (manufacturing variability: +18% switched capacitance, so it needs
//! more watts for the same frequency). Under a tight job budget, an
//! application-agnostic equal split leaves the leaky node lagging — and
//! for a bulk-synchronous job the whole job runs at the slowest node's
//! pace. The divider is the cluster crate's `PowerArbiter`: equal split
//! is its uniform-static policy, and the progress-aware split is its
//! feedback policy weighted by `1 / baseline rate`, which equalizes
//! normalized progress by moving watts to the laggard.
//!
//! ```text
//! cargo run --release --example job_power_manager
//! ```

use cluster::{ArbiterConfig, Policy, PowerArbiter};
use powerprog::prelude::*;

fn build_fleet() -> Vec<SimNode> {
    let normal = NodeConfig::default();
    let mut leaky = normal.clone();
    leaky.core_power.c_dyn *= 1.18;

    println!("measuring per-node uncapped baselines...");
    let base_normal = SimNode::measure_baseline(&normal, AppId::Lammps, 1, 5 * SEC);
    let base_leaky = SimNode::measure_baseline(&leaky, AppId::Lammps, 1, 5 * SEC);
    println!("  normal chip: {base_normal:.0} katom-steps/s");
    println!("  leaky chip : {base_leaky:.0} katom-steps/s (same speed uncapped, more watts)\n");

    vec![
        SimNode::new(normal.clone(), AppId::Lammps, 11, base_normal).with_epoch(2 * SEC),
        SimNode::new(normal, AppId::Lammps, 12, base_normal).with_epoch(2 * SEC),
        SimNode::new(leaky, AppId::Lammps, 13, base_leaky).with_epoch(2 * SEC),
    ]
}

fn run(policy: Policy, label: &str) -> f64 {
    let mut nodes = build_fleet();
    // Three nodes wanting ~450 W get 270 W.
    let cfg = ArbiterConfig {
        budget_w: 270.0,
        min_cap_w: 40.0,
        max_cap_w: 150.0,
        policy,
    };
    let weights = nodes.iter().map(|n| 1.0 / n.baseline_rate()).collect();
    let mut arbiter = PowerArbiter::new(cfg, nodes.len()).with_progress_weights(weights);
    let trace = run_job(&mut arbiter, &mut nodes, 10);

    println!("--- {label} ---");
    println!(
        "{:>5} {:>22} {:>26} {:>8}",
        "epoch", "next caps (W)", "normalized progress", "job"
    );
    for (i, (norm, tick)) in trace.iter().zip(arbiter.trace().ticks()).enumerate() {
        let caps: Vec<String> = tick.granted_w.iter().map(|c| format!("{c:.0}")).collect();
        let job = norm.iter().copied().fold(f64::INFINITY, f64::min);
        let norm: Vec<String> = norm.iter().map(|p| format!("{p:.2}")).collect();
        println!(
            "{:>5} {:>22} {:>26} {:>8.2}",
            i,
            caps.join("/"),
            norm.join("/"),
            job
        );
    }
    let settled = settled_job_progress(&trace);
    println!("settled job progress: {settled:.3}\n");
    settled
}

fn main() {
    println!("Job budget: 270 W over 3 nodes (one leaky chip), LAMMPS everywhere.\n");
    let equal = run(Policy::UniformStatic, "equal split (application-agnostic)");
    let aware = run(
        Policy::ProgressFeedback { gain: 1.5 },
        "progress feedback (moves watts to the laggard)",
    );
    println!(
        "progress feedback improves bulk-synchronous job progress by {:.1}%",
        100.0 * (aware / equal - 1.0)
    );
    println!("— exactly why the paper wants progress to be monitorable online.");
}
