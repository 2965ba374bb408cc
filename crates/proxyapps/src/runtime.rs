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
pub trait Program: Send {
    /// Produce the rank's next action.
    fn next_action(&mut self, rank: usize) -> Action;
}

/// Blanket impl so closures can be used as programs in tests.
impl<F: FnMut(usize) -> Action + Send> Program for F {
    fn next_action(&mut self, rank: usize) -> Action {
        self(rank)
    }
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
    /// The node's stage counts at the end of the run.
    pub node_work: WorkCounts,
}

/// Co-schedules rank programs on a node.
pub struct Driver {
    node: Node,
    programs: Vec<Box<dyn Program>>,
    status: Vec<RankStatus>,
    publishers: Vec<Publisher>,
    phases: Vec<(Nanos, &'static str)>,
    barriers: u64,
}

impl Driver {
    /// Create a driver running `programs` (rank i pinned to core i),
    /// publishing on `channels` publishers registered on `bus`.
    ///
    /// # Panics
    /// Panics if there are more ranks than cores, or no ranks, or zero
    /// channels.
    pub fn new(
        node: Node,
        programs: Vec<Box<dyn Program>>,
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
        let status = vec![RankStatus::Running; programs.len()];
        let publishers = (0..channels).map(|_| bus.publisher()).collect();
        Self {
            node,
            programs,
            status,
            publishers,
            phases: Vec::new(),
            barriers: 0,
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

            if self.status.iter().all(|s| *s == RankStatus::Done) {
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
            loop {
                match self.programs[rank].next_action(rank) {
                    Action::Compute(p) => {
                        self.node.assign(rank, CoreWork::Compute(p.into()));
                        break;
                    }
                    Action::Sleep(d) => {
                        self.node.assign(rank, CoreWork::Sleep { until: now + d });
                        break;
                    }
                    Action::Barrier => {
                        self.status[rank] = RankStatus::AtBarrier;
                        self.node.assign(rank, CoreWork::Spin);
                        break;
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
                        self.node.assign(rank, CoreWork::Idle);
                        break;
                    }
                }
            }
        }
    }

    /// Release the barrier when every live rank has arrived. Returns true
    /// if a release happened (the released cores sit idle until the next
    /// quantum boundary, so the run loop must not macro-skip past it).
    fn release_barrier_if_ready(&mut self) -> bool {
        let live = self
            .status
            .iter()
            .filter(|s| **s != RankStatus::Done)
            .count();
        if live == 0 {
            return false;
        }
        let waiting = self
            .status
            .iter()
            .filter(|s| **s == RankStatus::AtBarrier)
            .count();
        if waiting != live {
            return false;
        }
        self.barriers += 1;
        for (rank, s) in self.status.iter_mut().enumerate() {
            if *s == RankStatus::AtBarrier {
                *s = RankStatus::Running;
                self.node.assign(rank, CoreWork::Idle);
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
