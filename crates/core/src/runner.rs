//! Single-run orchestration: node + application + NRM daemon + monitors.

use std::sync::Arc;

use nrm::actuator::ActuatorKind;
use nrm::daemon::{DaemonSample, NrmDaemon};
use nrm::resilience::ResilienceConfig;
use nrm::scheme::{
    CapSchedule, ConstantCap, JaggedEdge, LinearDecay, PriorityPreemption, StepFunction, Uncapped,
};
use progress::aggregator::ProgressAggregator;
use progress::bus::{BusConfig, ProgressBus};
use progress::series::TimeSeries;
use proxyapps::catalog::{build, AppId, AppInstance};
use proxyapps::runtime::{Driver, RunRecord};
use proxyapps::trace::TelemetryAgent;
use simnode::agent::SimAgent;
use simnode::config::NodeConfig;
use simnode::counters::Counters;
use simnode::faults::FaultPlan;
use simnode::hw::{encode_perf_ctl, BackendKind, BusStats, IA32_PERF_CTL};
use simnode::node::Node;
use simnode::time::{Nanos, SEC};

/// A cloneable description of a cap schedule (trait objects aren't
/// `Clone`, sweeps need to rebuild them per run).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScheduleSpec {
    /// No cap.
    Uncapped,
    /// Constant cap from t = 0.
    Constant(f64),
    /// Uncapped lead-in, then constant cap — the shape used to measure the
    /// "change in progress when a power cap is applied from an uncapped
    /// state of execution" (paper §VI.2).
    StepAfter {
        /// Uncapped lead-in.
        lead_in: Nanos,
        /// Cap after the lead-in, W.
        cap_w: f64,
    },
    /// Paper's linearly decreasing scheme.
    LinearDecay {
        /// Uncapped lead-in.
        uncapped_for: Nanos,
        /// Ramp start, W.
        from_w: f64,
        /// Ramp end (floor), W.
        to_w: f64,
        /// Ramp duration.
        ramp: Nanos,
    },
    /// Paper's step-function scheme (uncapped high phase).
    Step {
        /// Low cap, W.
        low_w: f64,
        /// Full period.
        period: Nanos,
    },
    /// Paper's jagged-edge scheme.
    Jagged {
        /// Tooth top, W.
        high_w: f64,
        /// Tooth bottom, W.
        low_w: f64,
        /// Tooth duration.
        decay: Nanos,
    },
    /// The paper's second envisioned policy (§II): a hard immediate cap
    /// while a high-priority job runs elsewhere, lifted on its departure.
    Preemption {
        /// High-priority job arrival.
        preempt_at: Nanos,
        /// Hard cap while preempted, W.
        hard_cap_w: f64,
        /// High-priority job departure (`None` = never).
        release_at: Option<Nanos>,
    },
}

impl ScheduleSpec {
    /// Materialize the schedule.
    pub fn build(self) -> Box<dyn CapSchedule> {
        match self {
            ScheduleSpec::Uncapped => Box::new(Uncapped),
            ScheduleSpec::Constant(w) => Box::new(ConstantCap(w)),
            ScheduleSpec::StepAfter { lead_in, cap_w } => Box::new(LinearDecay {
                uncapped_for: lead_in,
                from_w: cap_w,
                to_w: cap_w,
                ramp: 1,
            }),
            ScheduleSpec::LinearDecay {
                uncapped_for,
                from_w,
                to_w,
                ramp,
            } => Box::new(LinearDecay {
                uncapped_for,
                from_w,
                to_w,
                ramp,
            }),
            ScheduleSpec::Step { low_w, period } => {
                Box::new(StepFunction::half_half(low_w, period))
            }
            ScheduleSpec::Jagged {
                high_w,
                low_w,
                decay,
            } => Box::new(JaggedEdge {
                high_w,
                low_w,
                decay,
            }),
            ScheduleSpec::Preemption {
                preempt_at,
                hard_cap_w,
                release_at,
            } => Box::new(PriorityPreemption {
                preempt_at,
                hard_cap_w,
                release_at,
            }),
        }
    }
}

/// Everything a single run needs.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Node hardware configuration.
    pub node: NodeConfig,
    /// Which application to run.
    pub app: AppId,
    /// Ranks (defaults to all cores).
    pub ranks: usize,
    /// Workload seed.
    pub seed: u64,
    /// The NRM cap schedule.
    pub schedule: ScheduleSpec,
    /// The NRM actuator.
    pub actuator: ActuatorKind,
    /// Simulated run length.
    pub duration: Nanos,
    /// Pin the requested frequency before the run (β measurement).
    pub fixed_mhz: Option<u32>,
    /// Progress aggregation window (paper: 1 s).
    pub window: Nanos,
    /// Optional lossy monitoring transport (capacity); `None` = lossless.
    pub lossy_capacity: Option<usize>,
    /// Deterministic fault-injection plan for the node's user-space MSR
    /// interface; `None` (the default) is bit-identical to the seed
    /// behaviour. `Arc`-shared: sweeps clone the `RunConfig` per run
    /// without deep-copying the plan.
    pub faults: Option<Arc<FaultPlan>>,
    /// Run the hardened control loop ([`NrmDaemon::hardened`]) with this
    /// tuning; `None` runs the paper's naive loop ([`NrmDaemon::new`]).
    pub resilience: Option<ResilienceConfig>,
    /// Which MSR backend tier the node runs on ([`BackendKind::Sim`] by
    /// default — bit-identical to the seed).
    pub backend: BackendKind,
}

impl RunConfig {
    /// An uncapped run of `app` for `duration`.
    pub fn new(app: AppId, duration: Nanos) -> Self {
        let node = NodeConfig::default();
        Self {
            ranks: node.cores,
            node,
            app,
            seed: 1,
            schedule: ScheduleSpec::Uncapped,
            actuator: ActuatorKind::Rapl,
            duration,
            fixed_mhz: None,
            window: SEC,
            lossy_capacity: None,
            faults: None,
            resilience: None,
            backend: BackendKind::default(),
        }
    }

    /// Set the cap schedule.
    pub fn with_schedule(mut self, s: ScheduleSpec) -> Self {
        self.schedule = s;
        self
    }

    /// Set the workload seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Pin a frequency (for β characterization runs).
    pub fn with_fixed_mhz(mut self, mhz: u32) -> Self {
        self.fixed_mhz = Some(mhz);
        self
    }

    /// Use a lossy monitoring transport with the given queue capacity.
    pub fn with_lossy_monitoring(mut self, capacity: usize) -> Self {
        self.lossy_capacity = Some(capacity);
        self
    }

    /// Inject faults at the node's user-space MSR boundary.
    pub fn with_faults(mut self, plan: impl Into<Arc<FaultPlan>>) -> Self {
        self.faults = Some(plan.into());
        self
    }

    /// Run the hardened control loop instead of the naive one.
    pub fn with_resilience(mut self, cfg: ResilienceConfig) -> Self {
        self.resilience = Some(cfg);
        self
    }

    /// Select the MSR backend tier the node runs on.
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }
}

/// Exact per-channel report statistics (lossless, application-side truth),
/// independent of the windowed monitoring view. Coarse reporters (OpenMC's
/// ~1 batch/s) alias against the 1 s windows, so rates for model work are
/// computed from these instead: `(sum − first)/(last − first)` spans whole
/// reporting periods exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ChannelStats {
    /// Total reports seen.
    pub events: u64,
    /// Sum of all report values.
    pub sum: f64,
    /// Value of the first report.
    pub first_value: f64,
    /// Time of the first report, ns.
    pub first_at: Nanos,
    /// Time of the last report, ns.
    pub last_at: Nanos,
}

impl ChannelStats {
    fn observe(&mut self, at: Nanos, value: f64) {
        if self.events == 0 {
            self.first_at = at;
            self.first_value = value;
        }
        self.events += 1;
        self.sum += value;
        self.last_at = at;
    }

    /// Exact mean rate between the first and last report (units/s), or
    /// `None` with fewer than 2 reports.
    pub fn exact_rate(&self) -> Option<f64> {
        if self.events < 2 || self.last_at <= self.first_at {
            return None;
        }
        let span = simnode::time::secs(self.last_at - self.first_at);
        Some((self.sum - self.first_value) / span)
    }
}

/// User-space MSR fault counters observed during a run (all zero when no
/// fault plan is installed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultSummary {
    /// User-space reads that returned an injected I/O error.
    pub reads_failed: u64,
    /// Energy-counter reads served a stale (stuck) value.
    pub reads_stuck: u64,
    /// User-space writes that returned an injected I/O error.
    pub writes_failed: u64,
    /// Cap writes silently deferred by the latch-delay fault.
    pub writes_delayed: u64,
}

/// All measurements from one run.
pub struct RunArtifacts {
    /// Progress rate series, one per channel, 1 sample per window.
    pub progress: Vec<TimeSeries>,
    /// Exact per-channel report statistics.
    pub channel_stats: Vec<ChannelStats>,
    /// Telemetry traces (power, frequency, bandwidth, cap).
    pub telemetry: TelemetryAgent,
    /// NRM daemon observations.
    pub daemon_samples: Vec<DaemonSample>,
    /// Hardware counters at end of run.
    pub counters: Counters,
    /// Driver record (phases, completion).
    pub record: RunRecord,
    /// Run length, seconds.
    pub duration_s: f64,
    /// Total package energy, joules.
    pub total_energy_j: f64,
    /// Events dropped by the monitoring transport (lossy mode).
    pub dropped_events: u64,
    /// Injected-fault counters at end of run.
    pub fault_summary: FaultSummary,
    /// Bus-occupancy accounting, when the backend models a bus
    /// (`None` on the closed-form [`BackendKind::Sim`] tier).
    pub bus_stats: Option<BusStats>,
}

impl RunArtifacts {
    /// MIPS over the whole run (paper Table I).
    pub fn mips(&self) -> f64 {
        self.counters.instructions / self.duration_s / 1e6
    }

    /// MPO over the whole run (paper Table VI).
    pub fn mpo(&self) -> f64 {
        powermodel::mpo::mpo(self.counters.l3_misses, self.counters.instructions)
    }

    /// Steady-state progress rate on channel 0: the exact report-span rate
    /// when at least two reports exist, else the trimmed window mean.
    pub fn steady_rate(&self) -> f64 {
        self.channel_stats[0]
            .exact_rate()
            .unwrap_or_else(|| self.progress[0].steady_mean(0.15))
    }

    /// Mean package power over the run, W.
    pub fn mean_power(&self) -> f64 {
        self.total_energy_j / self.duration_s
    }

    /// Mean package power over the second half of the run, W — excludes
    /// warm-up and the daemon's first-tick latency, i.e. the settled
    /// operating point under a constant cap.
    pub fn settled_power(&self) -> f64 {
        let half = self.duration_s / 2.0;
        let s: TimeSeries = self
            .telemetry
            .power
            .iter()
            .filter(|&(t, _)| t >= half)
            .collect();
        if s.is_empty() {
            self.mean_power()
        } else {
            s.mean()
        }
    }

    /// Daemon ticks on which actuation failed even after any retries and
    /// fallbacks the control loop attempted.
    pub fn actuation_failures(&self) -> usize {
        self.daemon_samples
            .iter()
            .filter(|s| s.actuation_failed)
            .count()
    }

    /// Daemon ticks served by a fallback actuator.
    pub fn fallback_ticks(&self) -> usize {
        self.daemon_samples
            .iter()
            .filter(|s| s.fallback_used)
            .count()
    }

    /// Daemon ticks spent with the safe-mode floor cap engaged.
    pub fn safe_mode_ticks(&self) -> usize {
        self.daemon_samples.iter().filter(|s| s.safe_mode).count()
    }

    /// Worst overshoot (W) of the ground-truth rolling power average over
    /// a requested budget, ignoring the first `skip` telemetry samples
    /// (the average lags one window behind a freshly applied cap). The
    /// comparison is against the budget the schedule *asked for* — not the
    /// latched hardware cap, which under injected faults may never have
    /// arrived (that silent gap is exactly the violation to measure).
    pub fn max_overshoot_w(&self, budget_w: f64, skip: usize) -> f64 {
        self.telemetry
            .avg_power
            .v
            .iter()
            .skip(skip)
            .map(|p| p - budget_w)
            .fold(0.0, f64::max)
    }
}

/// A monitor agent polling an aggregator once per window (the paper's
/// collection daemon: "these values are collected and averaged once every
/// second"), plus a lossless side-channel for exact statistics.
struct MonitorAgent {
    agg: ProgressAggregator,
    raw: progress::bus::Subscriber,
    stats: ChannelStats,
    source: progress::event::SourceId,
    window: Nanos,
}

impl MonitorAgent {
    fn drain_raw(&mut self) {
        for ev in self.raw.drain() {
            if ev.source == self.source {
                self.stats.observe(ev.at, ev.value);
            }
        }
    }
}

impl SimAgent for MonitorAgent {
    fn period(&self) -> Nanos {
        self.window
    }
    fn on_tick(&mut self, _node: &mut Node, now: Nanos) {
        self.agg.poll(now);
        self.drain_raw();
    }
}

/// Execute one run.
pub fn run_app(cfg: &RunConfig) -> RunArtifacts {
    let app = build(cfg.app, &cfg.node, cfg.ranks, cfg.seed);
    run_instance(cfg, app, &ProgressBus::new())
}

/// [`run_app`] on an application already built, publishing its progress
/// on `bus`; `cfg.app`, `cfg.ranks` and `cfg.seed` are not read again.
pub(crate) fn run_instance(cfg: &RunConfig, app: AppInstance, bus: &ProgressBus) -> RunArtifacts {
    let mut node_cfg = cfg.node.clone();
    if cfg.faults.is_some() {
        node_cfg.faults = cfg.faults.clone();
    }
    node_cfg.backend = cfg.backend;
    let mut node = Node::new(node_cfg);
    if let Some(mhz) = cfg.fixed_mhz {
        node.msr_mut()
            .write(IA32_PERF_CTL, encode_perf_ctl(mhz))
            .expect("PERF_CTL writable");
    }

    let channels = app.channels();

    let bus_cfg = match cfg.lossy_capacity {
        Some(cap) => BusConfig::lossy(cap, progress::bus::DropPolicy::DropNewest),
        None => BusConfig::lossless(),
    };

    let mut driver = Driver::new(node, app.programs, bus, channels);
    let sources = driver.channel_sources();
    let mut monitors: Vec<MonitorAgent> = sources
        .iter()
        .map(|&s| MonitorAgent {
            agg: ProgressAggregator::new(bus.subscribe(bus_cfg), cfg.window, Some(s)),
            raw: bus.subscribe(BusConfig::lossless()),
            stats: ChannelStats::default(),
            source: s,
            window: cfg.window,
        })
        .collect();

    let mut telemetry = TelemetryAgent::new(cfg.window);
    let mut daemon = match &cfg.resilience {
        Some(rc) => {
            NrmDaemon::hardened(cfg.schedule.build(), cfg.actuator, rc.clone()).with_history()
        }
        None => NrmDaemon::new(cfg.schedule.build(), cfg.actuator),
    };

    {
        let mut agents: Vec<&mut dyn SimAgent> = Vec::with_capacity(2 + monitors.len());
        agents.push(&mut daemon as &mut dyn SimAgent);
        agents.push(&mut telemetry as &mut dyn SimAgent);
        for m in &mut monitors {
            agents.push(m as &mut dyn SimAgent);
        }
        let record = driver.run(cfg.duration, &mut agents);
        let node = driver.node();
        let end = node.now();
        let fault_summary = node
            .msr()
            .fault_stats()
            .map(|fs| FaultSummary {
                reads_failed: fs.reads_failed(),
                reads_stuck: fs.reads_stuck(),
                writes_failed: fs.writes_failed(),
                writes_delayed: fs.writes_delayed(),
            })
            .unwrap_or_default();
        let bus_stats = node.msr().bus_stats();
        let mut progress = Vec::with_capacity(monitors.len());
        let mut channel_stats = Vec::with_capacity(monitors.len());
        for mut m in monitors {
            m.drain_raw();
            channel_stats.push(m.stats);
            progress.push(m.agg.finish(end));
        }
        RunArtifacts {
            progress,
            channel_stats,
            telemetry,
            daemon_samples: daemon.samples.clone(),
            counters: node.counters().clone(),
            duration_s: simnode::time::secs(end),
            total_energy_j: node.total_energy(),
            dropped_events: bus.dropped(),
            fault_summary,
            bus_stats,
            record,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnode::time::SEC;

    #[test]
    fn lammps_uncapped_runs_at_calibrated_rate() {
        let cfg = RunConfig::new(AppId::Lammps, 8 * SEC);
        let a = run_app(&cfg);
        let rate = a.steady_rate();
        // ~1080 katom-steps/s with a few % tolerance for scheduling
        // overheads at action boundaries.
        assert!(
            (1000.0..1120.0).contains(&rate),
            "LAMMPS steady rate {rate:.0} katom-steps/s"
        );
        assert!(a.mean_power() > 100.0, "power {:.0} W", a.mean_power());
    }

    #[test]
    fn capped_run_reduces_progress_and_power() {
        let base = run_app(&RunConfig::new(AppId::Lammps, 6 * SEC));
        let capped = run_app(
            &RunConfig::new(AppId::Lammps, 6 * SEC).with_schedule(ScheduleSpec::Constant(80.0)),
        );
        assert!(capped.mean_power() < base.mean_power() - 20.0);
        assert!(capped.steady_rate() < base.steady_rate() * 0.95);
    }

    #[test]
    fn fixed_frequency_slows_compute_bound_app_proportionally() {
        let fast = run_app(&RunConfig::new(AppId::Lammps, 6 * SEC));
        let slow = run_app(&RunConfig::new(AppId::Lammps, 6 * SEC).with_fixed_mhz(1600));
        let ratio = fast.steady_rate() / slow.steady_rate();
        // β ≈ 1 ⇒ rate ratio ≈ frequency ratio = 3300/1600 = 2.06.
        assert!(
            (1.85..2.25).contains(&ratio),
            "rate ratio {ratio:.2}, expected ~2.06"
        );
    }

    #[test]
    fn multi_channel_apps_produce_one_series_per_channel() {
        let cfg = RunConfig::new(AppId::Urban, 5 * SEC);
        let a = run_app(&cfg);
        assert_eq!(a.progress.len(), 2);
    }
}
