//! `paper_single_node`: the paper's reproduction path. One op runs all
//! nine applications uncapped, under a constant 80 W cap and under the
//! jagged-edge 150→60 W / 20 s schedule, 120 simulated seconds each —
//! 27 `core::runner::run_app` calls. It stresses event-horizon node
//! stepping beside the 1 Hz NRM daemon, telemetry and aggregator agents,
//! the proxy-app programs and the progress bus, and bypasses the
//! cluster, comm, arbiter and arbiterd layers entirely.

use std::time::Instant;

use nrm::daemon::NrmDaemon;
use powerprog_core::runner::{
    run_app, ChannelStats, FaultSummary, RunArtifacts, RunConfig, ScheduleSpec,
};
use progress::aggregator::ProgressAggregator;
use progress::bus::{BusConfig, ProgressBus, Subscriber};
use progress::event::SourceId;
use proxyapps::catalog::{build, AppId};
use proxyapps::runtime::Driver;
use proxyapps::trace::TelemetryAgent;
use simnode::agent::SimAgent;
use simnode::node::Node;
use simnode::time::{secs, Nanos, SEC};

use super::{Settings, Tally, Workload, WorkloadId};
use crate::probe::{Layer, Probe};
use crate::rng::shuffle;

const APPS: [AppId; 9] = [
    AppId::Lammps,
    AppId::Stream,
    AppId::Amg,
    AppId::Qmcpack,
    AppId::Openmc,
    AppId::Candle,
    AppId::Hacc,
    AppId::Nek5000,
    AppId::Urban,
];
/// Runs per op: every app under each of the three schedules.
const RUNS: usize = 3 * APPS.len();

/// The 27 runs of one op: every app under every schedule, each seeded
/// with `seed`, in a seed-shuffled order.
fn runs(seed: u64, smoke: bool) -> Vec<RunConfig> {
    let duration = if smoke { 4 * SEC } else { 120 * SEC };
    let schedules = [
        ScheduleSpec::Uncapped,
        ScheduleSpec::Constant(80.0),
        ScheduleSpec::Jagged {
            high_w: 150.0,
            low_w: 60.0,
            decay: 20 * SEC,
        },
    ];
    let mut runs: Vec<RunConfig> = APPS
        .iter()
        .flat_map(|&app| {
            schedules.iter().map(move |&s| {
                RunConfig::new(app, duration)
                    .with_schedule(s)
                    .with_seed(seed)
            })
        })
        .collect();
    shuffle(&mut runs, seed);
    runs
}

/// The outputs a run is checked on: energy and steady progress rate, as
/// bits.
fn bits(a: &RunArtifacts) -> (u64, u64) {
    (a.total_energy_j.to_bits(), a.steady_rate().to_bits())
}

/// The workload's state: its runs and the warm-up's outputs.
pub struct Paper {
    runs: Vec<RunConfig>,
    reference: Vec<(u64, u64)>,
}

impl Paper {
    /// Run `i` of the op, checked against the warm-up.
    fn check(&self, i: usize, run: impl FnOnce(&RunConfig) -> RunArtifacts) -> Tally {
        let a = run(&self.runs[i]);
        Tally {
            work: a.duration_s,
            attempted: 1,
            failed: u64::from(bits(&a) != self.reference[i]),
        }
    }
}

impl Workload for Paper {
    const THREADS: usize = 1;
    /// Each run is timed on its own.
    const PARTS: usize = RUNS;

    fn setup(_: WorkloadId, s: &Settings) -> Result<Self, String> {
        let runs = runs(s.seed, s.smoke);
        let reference = runs.iter().map(|c| bits(&run_app(c))).collect();
        Ok(Self { runs, reference })
    }

    fn op(&mut self, part: usize) -> Tally {
        self.check(part, run_app)
    }

    fn traced_op(&mut self, probe: &mut Probe) -> Tally {
        let mut t = Tally::default();
        for i in 0..RUNS {
            t += self.check(i, |cfg| mirror(cfg, probe));
        }
        t
    }
}

/// Times a wrapped agent's ticks.
struct Timed<'a, A: SimAgent> {
    inner: &'a mut A,
    secs: f64,
    ticks: u64,
}

impl<'a, A: SimAgent> Timed<'a, A> {
    fn new(inner: &'a mut A) -> Self {
        Self {
            inner,
            secs: 0.0,
            ticks: 0,
        }
    }
}

impl<A: SimAgent> SimAgent for Timed<'_, A> {
    fn period(&self) -> Nanos {
        self.inner.period()
    }

    fn phase(&self) -> Nanos {
        self.inner.phase()
    }

    fn on_tick(&mut self, node: &mut Node, now: Nanos) {
        let t = Instant::now();
        self.inner.on_tick(node, now);
        self.secs += t.elapsed().as_secs_f64();
        self.ticks += 1;
    }
}

/// The runner's per-channel monitor: a 1 Hz aggregator poll plus a
/// lossless side channel feeding exact report statistics.
struct Monitor {
    agg: ProgressAggregator,
    raw: Subscriber,
    stats: ChannelStats,
    source: SourceId,
    window: Nanos,
    events: u64,
}

impl Monitor {
    fn drain_raw(&mut self) {
        for ev in self.raw.drain() {
            if ev.source == self.source {
                let s = &mut self.stats;
                if s.events == 0 {
                    s.first_at = ev.at;
                    s.first_value = ev.value;
                }
                s.events += 1;
                s.sum += ev.value;
                s.last_at = ev.at;
                self.events += 1;
            }
        }
    }
}

impl SimAgent for Monitor {
    fn period(&self) -> Nanos {
        self.window
    }

    fn on_tick(&mut self, _node: &mut Node, now: Nanos) {
        self.agg.poll(now);
        self.drain_raw();
    }
}

/// `run_app` rebuilt from the public calls it makes, with each agent
/// behind a timing decorator. Supports the configurations this workload
/// uses: no fault plan, no pinned frequency, lossless monitoring and the
/// naive daemon.
fn mirror(cfg: &RunConfig, probe: &mut Probe) -> RunArtifacts {
    let t_setup = Instant::now();
    let mut node_cfg = cfg.node.clone();
    node_cfg.backend = cfg.backend;
    let node = Node::new(node_cfg);
    let bus = ProgressBus::new();
    let app = build(cfg.app, &cfg.node, cfg.ranks, cfg.seed);
    let channels = app.channels();
    let mut driver = Driver::new(node, app.programs, &bus, channels);
    let mut monitors: Vec<Monitor> = driver
        .channel_sources()
        .into_iter()
        .map(|s| Monitor {
            agg: ProgressAggregator::new(bus.subscribe(BusConfig::lossless()), cfg.window, Some(s)),
            raw: bus.subscribe(BusConfig::lossless()),
            stats: ChannelStats::default(),
            source: s,
            window: cfg.window,
            events: 0,
        })
        .collect();
    let mut telemetry = TelemetryAgent::new(cfg.window);
    let mut daemon = NrmDaemon::new(cfg.schedule.build(), cfg.actuator);
    let t_run = Instant::now();
    probe.span("runner.setup", 0, t_setup, t_run);
    probe
        .acc()
        .add(Layer::RunnerSetup, (t_run - t_setup).as_secs_f64());

    let (record, agent_s) = {
        let mut d = Timed::new(&mut daemon);
        let mut tel = Timed::new(&mut telemetry);
        let mut mons: Vec<Timed<Monitor>> = monitors.iter_mut().map(Timed::new).collect();
        let record = {
            // The runner's agent order: daemon, telemetry, monitors.
            let mut agents: Vec<&mut dyn SimAgent> = Vec::with_capacity(2 + mons.len());
            agents.push(&mut d);
            agents.push(&mut tel);
            for m in &mut mons {
                agents.push(m);
            }
            driver.run(cfg.duration, &mut agents)
        };
        let poll_s: f64 = mons.iter().map(|m| m.secs).sum();
        let acc = probe.acc();
        acc.add(Layer::DaemonTick, d.secs);
        acc.add(Layer::DaemonTicks, d.ticks as f64);
        acc.add(Layer::TraceTick, tel.secs);
        acc.add(Layer::AggregatorPoll, poll_s);
        (record, d.secs + tel.secs + poll_s)
    };
    let t_finish = Instant::now();
    probe.span("driver.run", 0, t_run, t_finish);
    probe.acc().add(
        Layer::RuntimeSelf,
        (t_finish - t_run).as_secs_f64() - agent_s,
    );

    let node = driver.node();
    let end = node.now();
    let mut progress = Vec::with_capacity(monitors.len());
    let mut channel_stats = Vec::with_capacity(monitors.len());
    let mut events = 0;
    for mut m in monitors {
        m.drain_raw();
        events += m.events;
        channel_stats.push(m.stats);
        progress.push(m.agg.finish(end));
    }
    let artifacts = RunArtifacts {
        progress,
        channel_stats,
        telemetry,
        daemon_samples: daemon.samples.clone(),
        counters: node.counters().clone(),
        duration_s: secs(end),
        total_energy_j: node.total_energy(),
        dropped_events: bus.dropped(),
        fault_summary: FaultSummary::default(),
        bus_stats: node.msr().bus_stats(),
        record,
    };
    let done = Instant::now();
    probe.span("runner.finish", 0, t_finish, done);
    let windows: usize = artifacts.progress.iter().map(|s| s.len()).sum();
    let acc = probe.acc();
    acc.add(Layer::RunnerFinish, (done - t_finish).as_secs_f64());
    acc.add(Layer::AggregatorWindows, windows as f64);
    acc.add(Layer::BusEvents, events as f64);
    acc.add(Layer::SimNodeSeconds, artifacts.duration_s);
    artifacts
}
