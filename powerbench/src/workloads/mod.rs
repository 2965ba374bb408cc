//! The four workloads and the timing loop they share.

use std::time::Instant;

use crate::calib::Calibrator;
use crate::cpu;
use crate::probe::Probe;
use crate::report::{Metric, RunResult};
use crate::rss;
use crate::stats::{mean, median, percentile, tail_percentile};

pub mod arbiterd;
pub mod cluster;
pub mod paper;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadId {
    /// 27 single-node `run_app` calls per op: the paper's reproduction
    /// path.
    PaperSingleNode,
    /// One 4096-node hierarchical `run_cluster` with halo exchange per
    /// op.
    ClusterHierHalo4096,
    /// 100 000 batched producers across four arbiter shards.
    ArbiterdSharded100k,
    /// 4 096 singleton producers on one shard, snapshotting every tick.
    ArbiterdDurable4k,
}

impl WorkloadId {
    /// All workloads, in run order.
    pub const ALL: [WorkloadId; 4] = [
        WorkloadId::PaperSingleNode,
        WorkloadId::ClusterHierHalo4096,
        WorkloadId::ArbiterdSharded100k,
        WorkloadId::ArbiterdDurable4k,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::PaperSingleNode => "paper_single_node",
            WorkloadId::ClusterHierHalo4096 => "cluster_hier_halo_4096",
            WorkloadId::ArbiterdSharded100k => "arbiterd_sharded_100k",
            WorkloadId::ArbiterdDurable4k => "arbiterd_durable_4k",
        }
    }

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How one invocation runs its workload.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Input seed.
    pub seed: u64,
    /// Measurement window, s.
    pub seconds: f64,
    /// Run the traced pass instead of the untraced one.
    pub trace: bool,
    /// Tiny inputs for tests.
    pub smoke: bool,
}

/// What an op did: work units advanced and checked units that passed or
/// failed their correctness gate.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Work units: simulated node-seconds, or telemetry messages.
    pub work: f64,
    /// Checked units attempted (runs or messages).
    pub attempted: u64,
    /// Checked units that failed.
    pub failed: u64,
}

impl std::ops::AddAssign for Tally {
    fn add_assign(&mut self, o: Tally) {
        self.work += o.work;
        self.attempted += o.attempted;
        self.failed += o.failed;
    }
}

/// A workload as the timing loop drives it.
pub trait Workload: Sized {
    /// Threads a traced op runs on.
    const THREADS: usize;

    /// Generate inputs from the seed, build long-lived state and run the
    /// warm-up op, whose outputs the timed ops are checked against.
    fn setup(id: WorkloadId, s: &Settings) -> Result<Self, String>;

    /// Parts an op splits into, each timed on its own.
    const PARTS: usize = 1;

    /// Part `part` of one op through the library's own entry points.
    fn op(&mut self, part: usize) -> Tally;

    /// One op through the benchmark-side mirror, timing each layer.
    fn traced_op(&mut self, probe: &mut Probe) -> Tally;

    /// Whole-run gates checked after timing; one line per failure.
    fn finish(&mut self, _probe: Option<&mut Probe>) -> Vec<String> {
        Vec::new()
    }
}

/// Set-ups per untraced run, whose median CPU time is `setup_s`: at least
/// `MIN_SETUPS`, and more, up to `MAX_SETUPS`, while they add up to less
/// than `SETUP_BUDGET_S` CPU seconds, so that a short set-up's median
/// rests on more samples.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET_S: f64 = 1.0;
/// Fewest timed ops per run, however long each takes.
const MIN_OPS: usize = 3;

/// Run workload `id`; also returns the probe of a traced run.
pub fn run(id: WorkloadId, s: &Settings) -> Result<(RunResult, Option<Probe>), String> {
    match id {
        WorkloadId::PaperSingleNode => measure::<paper::Paper>(id, s),
        WorkloadId::ClusterHierHalo4096 => measure::<cluster::Cluster>(id, s),
        WorkloadId::ArbiterdSharded100k | WorkloadId::ArbiterdDurable4k => {
            measure::<arbiterd::Arbiterd>(id, s)
        }
    }
}

fn measure<W: Workload>(
    id: WorkloadId,
    s: &Settings,
) -> Result<(RunResult, Option<Probe>), String> {
    // The untraced pass scales its timings by the host's speed; the kernel
    // is built before the peak-RSS reset, so its cells count in the base.
    let mut cal = (!s.trace).then(Calibrator::new);
    let rss_reset = rss::reset_peak();
    let mut setup_s: Vec<f64> = Vec::with_capacity(MAX_SETUPS);
    let mut built = None;
    let wanted = |done: &[f64]| {
        done.len() < MIN_SETUPS
            || (done.len() < MAX_SETUPS && done.iter().sum::<f64>() < SETUP_BUDGET_S)
    };
    while built.is_none() || (cal.is_some() && wanted(&setup_s)) {
        // The previous set-up's state is gone before the next starts, so
        // the peak RSS is that of one.
        drop(built.take());
        let (w, secs) = cpu::timed(|| W::setup(id, s));
        built = Some(w?);
        setup_s.push(secs);
        cal.iter_mut().for_each(Calibrator::tick);
    }
    let mut w = built.expect("at least one set-up");

    let mut tally = Tally::default();
    // Wall seconds per op, and CPU seconds of every thread together per
    // part of an op.
    let mut times = Vec::new();
    let mut part_cpu = vec![Vec::new(); W::PARTS];
    let mut probe = s.trace.then(|| Probe::new(W::THREADS));
    let start = Instant::now();
    while times.len() < MIN_OPS || start.elapsed().as_secs_f64() < s.seconds {
        let mut wall = 0.0;
        for (part, cpu_s) in part_cpu.iter_mut().enumerate() {
            cal.iter_mut().for_each(Calibrator::tick);
            let t = Instant::now();
            let (op, secs) = cpu::timed(|| w.op(part));
            wall += t.elapsed().as_secs_f64();
            tally += op;
            cpu_s.push(secs);
        }
        times.push(wall);
        // Traced ops alternate with untraced ones so both see the same
        // machine; the untraced median is the base of the overhead.
        if let Some(p) = probe.as_mut() {
            p.begin_op();
            tally += w.traced_op(p);
            p.end_op();
        }
    }
    cal.iter_mut().for_each(Calibrator::tick);
    // Read before the whole-run checks, which may build a second copy of
    // the workload's state beside the first. Absent, not 0, when the
    // watermark could not be reset.
    let peak_mib = rss::peak_mib().filter(|_| rss_reset);
    let problems = w.finish(probe.as_mut());

    let op_p50_s = median(&times);
    let metrics = match (&probe, cal.as_mut()) {
        (Some(p), _) => p.metrics(op_p50_s),
        (None, None) => unreachable!("the untraced pass calibrates"),
        (None, Some(cal)) => {
            if cal.runs() == 0 {
                cal.sample();
            }
            let scale = cal.scale();
            let op_cpu_s = scale * part_cpu.iter().map(|v| mean(v)).sum::<f64>();
            let mut m = vec![
                Metric {
                    name: "setup_s",
                    value: scale * median(&setup_s),
                    unit: "s",
                },
                Metric {
                    name: "op_cpu_s",
                    value: op_cpu_s,
                    unit: "s",
                },
                Metric {
                    name: "work_per_cpu_s",
                    value: tally.work / times.len() as f64 / op_cpu_s,
                    unit: "1/s",
                },
            ];
            if let Some(mib) = peak_mib {
                m.push(Metric {
                    name: "peak_rss_mb",
                    value: mib,
                    unit: "MiB",
                });
            }
            m
        }
    };
    let result = RunResult {
        workload: id.name(),
        seed: s.seed,
        trace: s.trace,
        attempted: tally.attempted,
        failed: tally.failed,
        problems,
        samples: times.len(),
        p50: op_p50_s,
        tail: tail_percentile(times.len()).map(|p| (p, percentile(&times, p))),
        metrics,
    };
    Ok((result, probe))
}
