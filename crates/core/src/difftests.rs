//! Differential tests: the SPMD runtime's lockstep path versus its
//! per-rank path.
//!
//! When every rank's program is a replica of rank 0's and the ranks fill
//! the node, the [`proxyapps::runtime::Driver`] may call rank 0's program
//! alone and assign each of its actions to the whole node. Each test here
//! runs one configuration twice: once with the application's programs as
//! built, and once with every program behind [`PerRank`], a wrapper that
//! is never a replica, so the driver takes the per-rank path. Everything
//! the run measures must be equal bit for bit: energy, counters, progress
//! windows, [`ChannelStats`], telemetry, phases, barrier count, daemon
//! samples and every event on the bus. Of the runtime's work counts, only
//! the node's `run_searches` and the driver's `program_calls` may differ.
//!
//! The negative cases are applications whose programs are not replicas:
//! there the two runs must agree on the work counts too, which shows the
//! driver stayed on the per-rank path.

use nrm::daemon::DaemonSample;
use progress::bus::{BusConfig, ProgressBus};
use progress::series::TimeSeries;
use proxyapps::apps::lammps;
use proxyapps::catalog::{build, AppId, AppInstance};
use proxyapps::programs::{HangAfter, IterSegment, PhasedProgram};
use proxyapps::runtime::{Action, Program, RunRecord};
use simnode::hw::BackendKind;
use simnode::time::SEC;

use crate::runner::{run_instance, ChannelStats, RunConfig, ScheduleSpec};

/// Forwards to the program it wraps, but never claims to be a replica,
/// so a driver runs it on the per-rank path.
struct PerRank(Box<dyn Program>);

impl Program for PerRank {
    fn next_action(&mut self, rank: usize) -> Action {
        self.0.next_action(rank)
    }
}

fn per_rank(mut app: AppInstance) -> AppInstance {
    app.programs = (app.programs.into_iter())
        .map(|p| Box::new(PerRank(p)) as Box<dyn Program>)
        .collect();
    app
}

fn series_bits(s: &TimeSeries) -> (Vec<u64>, Vec<u64>) {
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect();
    (bits(&s.t), bits(&s.v))
}

fn stats_bits(s: &ChannelStats) -> [u64; 5] {
    [
        s.events,
        s.sum.to_bits(),
        s.first_value.to_bits(),
        s.first_at,
        s.last_at,
    ]
}

type SampleBits = (u64, Option<u64>, u64, bool, bool, u32, Option<bool>, bool);

fn sample_bits(s: &DaemonSample) -> SampleBits {
    (
        s.at,
        s.cap_w.map(f64::to_bits),
        s.avg_power_w.to_bits(),
        s.actuation_failed,
        s.fallback_used,
        s.retries,
        s.verified,
        s.safe_mode,
    )
}

/// Everything one run measured, floats as their bits.
struct Outputs {
    energy: u64,
    duration: u64,
    counters: [u64; 3],
    progress: Vec<(Vec<u64>, Vec<u64>)>,
    channel_stats: Vec<[u64; 5]>,
    telemetry: Vec<(Vec<u64>, Vec<u64>)>,
    daemon: Vec<SampleBits>,
    /// Every event on the bus: source, time and value bits.
    events: Vec<(u32, u64, u64)>,
    dropped: u64,
    bus_stats: Option<simnode::hw::BusStats>,
    record: RunRecord,
}

/// Runs `app` under `cfg`, recording every event its bus carried.
fn run(cfg: &RunConfig, app: AppInstance) -> Outputs {
    let bus = ProgressBus::new();
    let mut all = bus.subscribe(BusConfig::lossless());
    let a = run_instance(cfg, app, &bus);
    let t = &a.telemetry;
    Outputs {
        energy: a.total_energy_j.to_bits(),
        duration: a.duration_s.to_bits(),
        counters: [
            a.counters.instructions.to_bits(),
            a.counters.cycles.to_bits(),
            a.counters.l3_misses.to_bits(),
        ],
        progress: a.progress.iter().map(series_bits).collect(),
        channel_stats: a.channel_stats.iter().map(stats_bits).collect(),
        telemetry: [&t.power, &t.avg_power, &t.freq, &t.bandwidth, &t.cap]
            .into_iter()
            .map(series_bits)
            .collect(),
        daemon: a.daemon_samples.iter().map(sample_bits).collect(),
        events: (all.drain().iter())
            .map(|e| (e.source.0, e.at, e.value.to_bits()))
            .collect(),
        dropped: a.dropped_events,
        bus_stats: a.bus_stats,
        record: a.record,
    }
}

impl Outputs {
    /// The names of the outputs in which `self` and `o` differ.
    fn differences(&self, o: &Self) -> Vec<&'static str> {
        let mut differ = Vec::new();
        macro_rules! compare {
            ($($field:ident),*) => {
                $(if self.$field != o.$field {
                    differ.push(stringify!($field));
                })*
            };
        }
        compare!(
            energy,
            duration,
            counters,
            progress,
            channel_stats,
            telemetry,
            daemon,
            events,
            dropped,
            bus_stats,
            record
        );
        differ
    }
}

fn built(cfg: &RunConfig) -> AppInstance {
    build(cfg.app, &cfg.node, cfg.ranks, cfg.seed)
}

/// The runtime's own work counts, the only outputs the two paths may
/// disagree on: the node's run searches and the driver's program calls.
fn runtime_counts(o: &Outputs) -> [u64; 2] {
    [o.record.node_work.run_searches, o.record.program_calls]
}

/// Asserts the as-built run equals the per-rank run in every output but
/// the runtime's work counts, and returns the per-rank run's record.
fn assert_same_outputs(
    name: &str,
    cfg: &RunConfig,
    app: AppInstance,
    reference: AppInstance,
) -> RunRecord {
    let mut got = run(cfg, app);
    let mut want = run(cfg, reference);
    assert!(want.record.barriers > 0, "{name}: no barrier was exercised");
    for o in [&mut got, &mut want] {
        o.record.node_work.run_searches = 0;
        o.record.program_calls = 0;
    }
    let differ = got.differences(&want);
    assert!(
        differ.is_empty(),
        "{name}: lockstep and per-rank runs differ in {differ:?}\n{:?}\n{:?}",
        got.record,
        want.record
    );
    want.record
}

/// Asserts the as-built run equals the per-rank run in everything,
/// the runtime's work counts included, and that every rank pulled at
/// least one action per barrier: the driver stayed per-rank.
fn assert_per_rank(name: &str, cfg: &RunConfig, app: AppInstance, reference: AppInstance) {
    let got = run(cfg, app);
    let want = run(cfg, reference);
    assert_eq!(
        runtime_counts(&got),
        runtime_counts(&want),
        "{name}: took the lockstep path"
    );
    let r = &got.record;
    assert!(
        r.program_calls >= cfg.ranks as u64 * r.barriers.max(1),
        "{name}: {} program calls over {} barriers",
        r.program_calls,
        r.barriers
    );
    let differ = got.differences(&want);
    assert!(
        differ.is_empty(),
        "{name}: per-rank runs differ in {differ:?}"
    );
}

/// Long enough for HACC's IO sleep (every 10th step) and QMCPACK's first
/// phase change; the jagged schedule decays over half of it.
const SECONDS: u64 = 16;

fn schedules() -> [ScheduleSpec; 3] {
    [
        ScheduleSpec::Uncapped,
        ScheduleSpec::Constant(80.0),
        ScheduleSpec::Jagged {
            high_w: 150.0,
            low_w: 60.0,
            decay: SECONDS / 2 * SEC,
        },
    ]
}

#[test]
fn paper_apps_match_the_per_rank_path_bit_for_bit() {
    for app in AppId::PAPER {
        for schedule in schedules() {
            let cfg = RunConfig::new(app, SECONDS * SEC)
                .with_schedule(schedule)
                .with_seed(5);
            let name = format!("{app:?} {schedule:?}");
            assert_same_outputs(&name, &cfg, built(&cfg), per_rank(built(&cfg)));
        }
    }
}

#[test]
fn a_finished_run_and_the_emulated_backend_match_the_per_rank_path() {
    // CANDLE stops at its accuracy bound: every rank reaches `Done`.
    let cfg = RunConfig::new(AppId::Candle, 400 * SEC).with_seed(3);
    let record = assert_same_outputs("CANDLE", &cfg, built(&cfg), per_rank(built(&cfg)));
    assert!(record.all_done, "CANDLE did not converge");

    let cfg = RunConfig::new(AppId::Lammps, 3 * SEC)
        .with_schedule(ScheduleSpec::Constant(90.0))
        .with_backend(BackendKind::emulated());
    assert_same_outputs("LAMMPS emulated", &cfg, built(&cfg), per_rank(built(&cfg)));
}

#[test]
fn listing1_variants_stay_on_the_per_rank_path() {
    for app in [
        AppId::Listing1Unequal,
        AppId::Listing1PerRank,
        AppId::Listing1Equal,
    ] {
        let cfg = RunConfig::new(app, 8 * SEC);
        assert_per_rank(
            &format!("{app:?}"),
            &cfg,
            built(&cfg),
            per_rank(built(&cfg)),
        );
    }
}

#[test]
fn hung_ranks_mixed_seeds_and_spare_cores_stay_on_the_per_rank_path() {
    let cfg = RunConfig::new(AppId::Lammps, 4 * SEC);
    let hung = || {
        let seg = IterSegment::new(lammps::spec(cfg.ranks), 1_000_000, 40.0).with_noise(0.004);
        let mut app = built(&cfg);
        app.programs = (0..cfg.ranks)
            .map(|_| {
                let inner = PhasedProgram::new(&cfg.node, vec![seg.clone()], cfg.seed);
                Box::new(HangAfter::new(inner, 200)) as Box<dyn Program>
            })
            .collect();
        app
    };
    assert_per_rank("HangAfter", &cfg, hung(), per_rank(hung()));

    // Half the ranks draw their iteration noise from another seed.
    let mixed = || {
        let mut app = built(&cfg);
        let other = build(cfg.app, &cfg.node, cfg.ranks, cfg.seed + 1);
        let half = cfg.ranks / 2;
        app.programs.truncate(half);
        app.programs.extend(other.programs.into_iter().skip(half));
        app
    };
    assert_per_rank("mixed seeds", &cfg, mixed(), per_rank(mixed()));

    let mut spare = cfg.clone();
    spare.ranks = cfg.node.cores / 2;
    assert_per_rank(
        "ranks < cores",
        &spare,
        built(&spare),
        per_rank(built(&spare)),
    );
}
