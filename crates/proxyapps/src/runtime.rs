//! The simulated SPMD runtime.
//!
//! Mirrors the paper's single-node setup: one rank pinned per physical
//! core ("Pure MPI is used to parallelize the application using 24
//! processes ... MPI process pinning is enabled", §IV.B). Each rank runs a
//! [`Program`] — a state machine emitting [`Action`]s — and the [`Driver`]
//! co-schedules all ranks on a [`Node`], implements busy-wait barriers
//! (which is what inflates MIPS for imbalanced codes, Table I), publishes
//! progress reports to the bus, and invokes periodic control agents (the
//! NRM daemon, telemetry tracers).
//!
//! SPMD ranks usually run bit-identical programs. When every rank's
//! program is a replica of rank 0's ([`Program::is_replica_of`]) and the
//! ranks fill the node's cores, the driver runs in *lockstep*: it calls
//! rank 0's program alone and gives each of its blocking actions to the
//! whole node with one [`Node::assign_all`]. That is bit-identical to the
//! per-rank path. Replicas in one state take the same blocking action at
//! the same moment on every core; the node steps a run of identical cores
//! as one unit, so they all complete together; and `assign_all` equals an
//! [`Node::assign`] on each core in turn (simnode pins that with
//! `whole_node_assign_matches_per_core_assign`). Only the node's
//! `run_searches` count and the driver's own [`RunRecord::program_calls`]
//! go down.

use std::any::Any;

use progress::bus::{ProgressBus, Publisher};
use simnode::agent::SimAgent;
use simnode::node::{CoreWork, Node, WorkCounts, WorkPacket};
use simnode::time::Nanos;

/// What a rank does next.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Execute a work packet on this rank's core.
    Compute(WorkPacket),
    /// Wait until every live rank reaches the barrier (busy-wait).
    Barrier,
    /// Sleep for a duration (the paper's Listing-1 `usleep` work).
    Sleep(Nanos),
    /// Publish a progress report on channel `channel` (zero-duration).
    /// Multi-component applications use one channel per component; simple
    /// applications publish "a single value for the application" on
    /// channel 0 (§IV.B).
    Report {
        /// Progress channel index (one publisher per channel).
        channel: usize,
        /// Work amount in the channel's metric unit.
        value: f64,
    },
    /// Mark a named phase start (zero-duration; recorded with timestamp).
    Phase(&'static str),
    /// Rank finished.
    Done,
}

/// A per-rank program: called whenever the rank is ready for more work.
pub trait Program: Any + Send {
    /// Produce the rank's next action.
    fn next_action(&mut self, rank: usize) -> Action;

    /// True when this program is an exact replica of `other`: the same
    /// type in the same state, every field equal bit for bit, and a type
    /// whose actions depend on `rank` only in that rank 0 alone emits
    /// [`Action::Report`] and [`Action::Phase`]. Replicas take the same
    /// blocking actions at the same moments, so the [`Driver`] may run
    /// rank 0's program for all of them (see the module docs).
    ///
    /// The default, `false`, keeps a program on the per-rank path. A
    /// wrong `true` silently corrupts a run, so compare exactly; never
    /// hash.
    fn is_replica_of(&self, other: &dyn Program) -> bool {
        let _ = other;
        false
    }
}

/// Blanket impl so closures can be used as programs in tests.
impl<F: FnMut(usize) -> Action + Send + 'static> Program for F {
    fn next_action(&mut self, rank: usize) -> Action {
        self(rank)
    }
}

/// `other` as a `T`, when that is its type: the first step of an exact
/// [`Program::is_replica_of`].
pub(crate) fn downcast<T: Program>(other: &dyn Program) -> Option<&T> {
    (other as &dyn Any).downcast_ref()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RankStatus {
    Running,
    AtBarrier,
    Done,
}

/// Result of a driver run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Simulated end time.
    pub end: Nanos,
    /// Phase markers: (time, name).
    pub phases: Vec<(Nanos, &'static str)>,
    /// True when every rank reached `Done` (as opposed to a time limit).
    pub all_done: bool,
    /// Barriers released over the run.
    pub barriers: u64,
    /// Calls to the ranks' [`Program::next_action`] over the run: one
    /// rank's calls in lockstep, every rank's otherwise.
    pub program_calls: u64,
    /// The node's stage counts at the end of the run.
    pub node_work: WorkCounts,
}

/// Co-schedules rank programs on a node.
pub struct Driver {
    node: Node,
    /// One program per rank; in lockstep, rank 0's alone, standing for
    /// every core.
    programs: Vec<Box<dyn Program>>,
    status: Vec<RankStatus>,
    /// Ranks not yet `Done`.
    live: usize,
    /// Ranks waiting at the barrier.
    waiting: usize,
    /// Every action goes to the whole node (see [`Driver::new`]).
    lockstep: bool,
    publishers: Vec<Publisher>,
    phases: Vec<(Nanos, &'static str)>,
    barriers: u64,
    program_calls: u64,
}

impl Driver {
    /// Create a driver running `programs` (rank i pinned to core i),
    /// publishing on `channels` publishers registered on `bus`.
    ///
    /// When the ranks fill the node's cores and every rank's program is a
    /// replica of rank 0's ([`Program::is_replica_of`]), the driver keeps
    /// rank 0's program alone and runs in lockstep: one `next_action` call
    /// and one [`Node::assign_all`] per step, barrier and release, with
    /// outputs bit-identical to the per-rank path (see the module docs).
    /// Anything else runs per rank: Listing 1's unequal and per-rank
    /// variants, closures, wrapped programs such as `HangAfter`, programs
    /// with different seeds, and fewer ranks than cores.
    ///
    /// # Panics
    /// Panics if there are more ranks than cores, or no ranks, or zero
    /// channels.
    pub fn new(
        node: Node,
        mut programs: Vec<Box<dyn Program>>,
        bus: &ProgressBus,
        channels: usize,
    ) -> Self {
        assert!(!programs.is_empty(), "need at least one rank");
        assert!(
            programs.len() <= node.cores(),
            "more ranks ({}) than cores ({})",
            programs.len(),
            node.cores()
        );
        assert!(channels >= 1, "need at least one progress channel");
        let lockstep = programs.len() == node.cores()
            && programs[1..]
                .iter()
                .all(|p| p.is_replica_of(programs[0].as_ref()));
        if lockstep {
            programs.truncate(1);
        }
        let status = vec![RankStatus::Running; programs.len()];
        let publishers = (0..channels).map(|_| bus.publisher()).collect();
        Self {
            node,
            live: programs.len(),
            programs,
            status,
            waiting: 0,
            lockstep,
            publishers,
            phases: Vec::new(),
            barriers: 0,
            program_calls: 0,
        }
    }

    /// The underlying node (telemetry, counters, MSRs).
    pub fn node(&self) -> &Node {
        &self.node
    }

    /// Mutable node access (e.g. to program a cap before running).
    pub fn node_mut(&mut self) -> &mut Node {
        &mut self.node
    }

    /// Source ids of the progress channels, in channel order.
    pub fn channel_sources(&self) -> Vec<progress::event::SourceId> {
        self.publishers.iter().map(|p| p.source()).collect()
    }

    /// Run until every rank is done or simulated time reaches `until`.
    /// `agents` are invoked on their periods (phase-offset by
    /// [`SimAgent::phase`]). Can be called repeatedly to continue a run.
    ///
    /// Time advances via [`Node::step_until`]: the driver only needs
    /// control at its own horizons — the run limit, the earliest agent
    /// tick, and any core completion/wake (which is exactly when `feed`
    /// has something to do) — so event-free stretches are macro-stepped
    /// by the node in closed form.
    pub fn run(&mut self, until: Nanos, agents: &mut [&mut dyn SimAgent]) -> RunRecord {
        let mut next_tick: Vec<Nanos> =
            agents.iter().map(|a| self.node.now() + a.phase()).collect();

        loop {
            self.feed();
            let released = self.release_barrier_if_ready();

            if self.live == 0 {
                return self.record(true);
            }
            if self.node.now() >= until {
                return self.record(false);
            }

            // A just-released barrier leaves its cores idle until the next
            // quantum boundary (matching the fixed-quantum reference), so
            // force a single-quantum advance before feeding them again.
            let mut deadline = until;
            for next in &next_tick {
                deadline = deadline.min(*next);
            }
            if released {
                deadline = deadline.min(self.node.now() + 1);
            }
            let deadline = deadline.max(self.node.now() + 1);
            self.node.step_until(deadline);

            let now = self.node.now();
            for (agent, next) in agents.iter_mut().zip(next_tick.iter_mut()) {
                if now >= *next {
                    agent.on_tick(&mut self.node, now);
                    *next += agent.period();
                }
            }
        }
    }

    /// Pull actions for every rank whose core is free, until each hits a
    /// blocking action.
    fn feed(&mut self) {
        let now = self.node.now();
        for rank in 0..self.programs.len() {
            if self.status[rank] != RankStatus::Running || !self.node.is_available(rank) {
                continue;
            }
            let work = loop {
                self.program_calls += 1;
                match self.programs[rank].next_action(rank) {
                    Action::Compute(p) => break CoreWork::Compute(p.into()),
                    Action::Sleep(d) => break CoreWork::Sleep { until: now + d },
                    Action::Barrier => {
                        self.status[rank] = RankStatus::AtBarrier;
                        self.waiting += 1;
                        break CoreWork::Spin;
                    }
                    Action::Report { channel, value } => {
                        self.publishers
                            .get(channel)
                            .unwrap_or_else(|| panic!("no progress channel {channel}"))
                            .publish(now, value);
                    }
                    Action::Phase(name) => {
                        self.phases.push((now, name));
                    }
                    Action::Done => {
                        self.status[rank] = RankStatus::Done;
                        self.live -= 1;
                        break CoreWork::Idle;
                    }
                }
            };
            self.assign(rank, work);
        }
    }

    /// Give `work` to `rank`'s core, or in lockstep to every core.
    fn assign(&mut self, rank: usize, work: CoreWork) {
        if self.lockstep {
            self.node.assign_all(work);
        } else {
            self.node.assign(rank, work);
        }
    }

    /// Release the barrier when every live rank has arrived. Returns true
    /// if a release happened (the released cores sit idle until the next
    /// quantum boundary, so the run loop must not macro-skip past it).
    fn release_barrier_if_ready(&mut self) -> bool {
        if self.waiting == 0 || self.waiting != self.live {
            return false;
        }
        self.barriers += 1;
        self.waiting = 0;
        for rank in 0..self.status.len() {
            if self.status[rank] == RankStatus::AtBarrier {
                self.status[rank] = RankStatus::Running;
                self.assign(rank, CoreWork::Idle);
            }
        }
        true
    }

    fn record(&self, all_done: bool) -> RunRecord {
        RunRecord {
            end: self.node.now(),
            phases: self.phases.clone(),
            all_done,
            barriers: self.barriers,
            program_calls: self.program_calls,
            node_work: self.node.work_counts(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use progress::aggregator::ProgressAggregator;
    use progress::bus::BusConfig;
    use simnode::config::NodeConfig;
    use simnode::time::{MS, SEC};

    fn test_node() -> Node {
        Node::new(NodeConfig::default())
    }

    /// A program doing `iters` compute packets with a barrier + report.
    struct Simple {
        iters: usize,
        done: usize,
        pending: Vec<Action>,
    }

    impl Simple {
        fn new(iters: usize) -> Self {
            Self {
                iters,
                done: 0,
                pending: vec![],
            }
        }
    }

    impl Program for Simple {
        fn next_action(&mut self, rank: usize) -> Action {
            if let Some(a) = self.pending.pop() {
                return a;
            }
            if self.done >= self.iters {
                return Action::Done;
            }
            self.done += 1;
            if rank == 0 {
                self.pending.push(Action::Report {
                    channel: 0,
                    value: 1.0,
                });
            }
            self.pending.push(Action::Barrier);
            Action::Compute(WorkPacket {
                cycles: 3.3e9 * 0.01, // 10 ms at fmax
                misses: 0.0,
                instructions: 1e7,
                mlp: 1.0,
                mem_weight: 1.0,
            })
        }
    }

    #[test]
    fn all_ranks_complete_and_barriers_count() {
        let bus = ProgressBus::new();
        let programs: Vec<Box<dyn Program>> =
            (0..4).map(|_| Box::new(Simple::new(5)) as _).collect();
        let mut d = Driver::new(test_node(), programs, &bus, 1);
        let rec = d.run(10 * SEC, &mut []);
        assert!(rec.all_done);
        assert_eq!(rec.barriers, 5);
        // 5 iterations × ~10 ms each.
        assert!(rec.end > 45 * MS && rec.end < 120 * MS, "end={}", rec.end);
    }

    #[test]
    fn reports_reach_the_bus() {
        let bus = ProgressBus::new();
        let sub = bus.subscribe(BusConfig::lossless());
        let programs: Vec<Box<dyn Program>> =
            (0..2).map(|_| Box::new(Simple::new(3)) as _).collect();
        let mut d = Driver::new(test_node(), programs, &bus, 1);
        d.run(10 * SEC, &mut []);
        let mut agg = ProgressAggregator::new(sub, SEC, None);
        agg.poll(10 * SEC);
        let total: f64 = agg.windows().iter().map(|w| w.sum).sum();
        assert_eq!(total, 3.0, "3 iterations reported once each");
    }

    #[test]
    fn time_limit_stops_unfinished_runs() {
        let bus = ProgressBus::new();
        let programs: Vec<Box<dyn Program>> = vec![Box::new(Simple::new(1_000_000))];
        let mut d = Driver::new(test_node(), programs, &bus, 1);
        let rec = d.run(50 * MS, &mut []);
        assert!(!rec.all_done);
        assert!(rec.end >= 50 * MS);
    }

    #[test]
    fn imbalanced_ranks_spin_at_barrier() {
        // One rank sleeps 10 ms/iter, the other 50 ms: the fast rank spins,
        // inflating the instruction counter well beyond sleep-only levels.
        let bus = ProgressBus::new();
        let mk = |d_ms: u64| -> Box<dyn Program> {
            let mut n = 0;
            Box::new(move |_rank: usize| {
                n += 1;
                match n % 2 {
                    1 if n < 20 => Action::Sleep(d_ms * MS),
                    0 => Action::Barrier,
                    _ => Action::Done,
                }
            })
        };
        let programs = vec![mk(10), mk(50)];
        let mut d = Driver::new(test_node(), programs, &bus, 1);
        d.run(SEC, &mut []);
        let inst = d.node().counters().instructions;
        // ~9 barriers × 40 ms spin × 6.9e9 inst/s ≈ 2.5e9.
        assert!(inst > 1.0e9, "spin instructions missing: {inst:.2e}");
    }

    #[test]
    fn lockstep_only_when_replicas_fill_the_node() {
        use crate::catalog::{build, AppId};
        use crate::programs::{HangAfter, IterSegment, PhasedProgram};
        use crate::spec::KernelSpec;

        let cfg = NodeConfig::default();
        let bus = ProgressBus::new();
        let lockstep = |programs: Vec<Box<dyn Program>>| {
            let d = Driver::new(test_node(), programs, &bus, 24);
            assert_eq!(
                d.programs.len(),
                if d.lockstep { 1 } else { d.status.len() }
            );
            d.lockstep
        };
        let app = |id, ranks, seed| build(id, &cfg, ranks, seed).programs;
        for id in AppId::PAPER {
            assert!(lockstep(app(id, 24, 7)), "{id:?}");
            assert!(!lockstep(app(id, 23, 7)), "{id:?} on 23 of 24 cores");
            let mut mixed = app(id, 24, 7);
            mixed[5] = app(id, 24, 8).swap_remove(5);
            // HACC and URBAN do not read their seed.
            let seeded = !matches!(id, AppId::Hacc | AppId::Urban);
            assert_eq!(lockstep(mixed), !seeded, "{id:?} with one rank reseeded");
        }

        for id in [
            AppId::Listing1Equal,
            AppId::Listing1Unequal,
            AppId::Listing1PerRank,
        ] {
            assert!(!lockstep(app(id, 24, 1)), "{id:?}");
        }
        let closures = (0..24)
            .map(|_| Box::new(|_: usize| Action::Done) as _)
            .collect();
        assert!(!lockstep(closures));
        let seg = IterSegment::new(KernelSpec::new(0.8, 0.01, 1e-3, 24), 5, 1.0);
        let hung = (0..24)
            .map(|_| {
                Box::new(HangAfter::new(
                    PhasedProgram::new(&cfg, vec![seg.clone()], 1),
                    9,
                )) as _
            })
            .collect();
        assert!(!lockstep(hung));
        // One rank a step ahead of the others.
        let mut ahead = app(AppId::Lammps, 24, 7);
        ahead[23].next_action(23);
        assert!(!lockstep(ahead));
    }

    #[test]
    #[should_panic(expected = "more ranks")]
    fn too_many_ranks_rejected() {
        let bus = ProgressBus::new();
        let programs: Vec<Box<dyn Program>> =
            (0..25).map(|_| Box::new(Simple::new(1)) as _).collect();
        let _ = Driver::new(test_node(), programs, &bus, 1);
    }

    #[test]
    fn agents_tick_on_their_period() {
        struct Ticker {
            times: Vec<Nanos>,
        }
        impl SimAgent for Ticker {
            fn period(&self) -> Nanos {
                100 * MS
            }
            fn on_tick(&mut self, _n: &mut Node, now: Nanos) {
                self.times.push(now);
            }
        }
        let bus = ProgressBus::new();
        let programs: Vec<Box<dyn Program>> = vec![Box::new(Simple::new(200))];
        let mut d = Driver::new(test_node(), programs, &bus, 1);
        let mut t = Ticker { times: vec![] };
        d.run(SEC, &mut [&mut t]);
        assert!(
            (9..=11).contains(&t.times.len()),
            "expected ~10 ticks in 1 s, got {}",
            t.times.len()
        );
        for w in t.times.windows(2) {
            assert!(w[1] - w[0] >= 100 * MS);
        }
    }
}
