//! Reusable program shapes.
//!
//! All of the paper's applications are loop-based (§III.A); three shapes
//! cover them:
//!
//! - [`PhasedProgram`]: a sequence of iteration segments, each with its own
//!   calibration, iteration count, reporting value and noise — QMCPACK's
//!   VMC1/VMC2/DMC phases, OpenMC's inactive/active batches, AMG's
//!   setup+solve, and single-segment LAMMPS/STREAM;
//! - [`SleepBarrierProgram`]: the paper's Listing-1 microbenchmark, where
//!   "work" is `usleep` and imbalance shows up as barrier spin;
//! - [`ConvergenceProgram`]: CANDLE-style training that stops when a
//!   simulated accuracy crosses a bound, so the iteration count is not
//!   predictable in advance (§III.A).

use simnode::config::NodeConfig;
use simnode::node::WorkPacket;
use simnode::time::Nanos;

use crate::runtime::{downcast, Action, Program};
use crate::spec::{iteration_noise, KernelSpec};

/// Every field of `p` as bits: exact equality for replica checks.
pub(crate) fn packet_bits(p: &WorkPacket) -> [u64; 5] {
    [p.cycles, p.misses, p.instructions, p.mlp, p.mem_weight].map(f64::to_bits)
}

/// One segment of a phased program.
#[derive(Debug, Clone)]
pub struct IterSegment {
    /// Phase marker emitted (by rank 0) when the segment starts.
    pub phase: Option<&'static str>,
    /// Iterations in this segment.
    pub iters: u64,
    /// Per-iteration calibration.
    pub spec: KernelSpec,
    /// Work packets per iteration (e.g. STREAM's copy/scale/add/triad = 4);
    /// the iteration time is split evenly across them.
    pub subpackets: usize,
    /// Value rank 0 reports after each iteration's barrier.
    pub report_value: f64,
    /// Progress channel for the report.
    pub channel: usize,
    /// Iteration-cost noise amplitude (uniform, rank-symmetric).
    pub noise: f64,
}

impl IterSegment {
    /// A plain segment: one packet per iteration, reports on channel 0.
    pub fn new(spec: KernelSpec, iters: u64, report_value: f64) -> Self {
        Self {
            phase: None,
            iters,
            spec,
            subpackets: 1,
            report_value,
            channel: 0,
            noise: 0.0,
        }
    }

    /// Attach a phase marker.
    pub fn with_phase(mut self, name: &'static str) -> Self {
        self.phase = Some(name);
        self
    }

    /// Set iteration noise amplitude.
    pub fn with_noise(mut self, noise: f64) -> Self {
        self.noise = noise;
        self
    }

    /// Split each iteration into `n` packets.
    pub fn with_subpackets(mut self, n: usize) -> Self {
        assert!(n >= 1);
        self.subpackets = n;
        self
    }

    /// Report on a different channel.
    pub fn on_channel(mut self, channel: usize) -> Self {
        self.channel = channel;
        self
    }

    /// Suppress per-iteration reports (setup phases).
    pub fn silent(mut self) -> Self {
        self.report_value = 0.0;
        self
    }

    /// Every field equal, floats bit for bit.
    fn same_bits(&self, o: &Self) -> bool {
        self.phase == o.phase
            && self.iters == o.iters
            && self.spec.bits() == o.spec.bits()
            && self.subpackets == o.subpackets
            && self.report_value.to_bits() == o.report_value.to_bits()
            && self.channel == o.channel
            && self.noise.to_bits() == o.noise.to_bits()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    PhaseMark,
    Packet(usize),
    Barrier,
    Report,
}

/// A program running a sequence of [`IterSegment`]s.
pub struct PhasedProgram {
    segments: Vec<IterSegment>,
    /// Base packet per segment, precomputed.
    base_packets: Vec<WorkPacket>,
    seed: u64,
    seg: usize,
    iter: u64,
    /// Global iteration counter across segments (noise key).
    global_iter: u64,
    step: Step,
}

impl PhasedProgram {
    /// Build from segments; packets are synthesized against `cfg`.
    ///
    /// # Panics
    /// Panics if `segments` is empty.
    pub fn new(cfg: &NodeConfig, segments: Vec<IterSegment>, seed: u64) -> Self {
        assert!(!segments.is_empty(), "need at least one segment");
        let base_packets = segments
            .iter()
            .map(|s| s.spec.scaled_packet(cfg, 1.0 / s.subpackets as f64))
            .collect();
        Self {
            segments,
            base_packets,
            seed,
            seg: 0,
            iter: 0,
            global_iter: 0,
            step: Step::PhaseMark,
        }
    }

    fn scaled(&self, seg: usize) -> WorkPacket {
        let s = &self.segments[seg];
        let f = iteration_noise(self.seed, self.global_iter, s.noise);
        let p = self.base_packets[seg];
        WorkPacket {
            cycles: p.cycles * f,
            misses: p.misses * f,
            instructions: p.instructions * f,
            mlp: p.mlp,
            mem_weight: p.mem_weight,
        }
    }
}

impl Program for PhasedProgram {
    fn next_action(&mut self, rank: usize) -> Action {
        loop {
            if self.seg >= self.segments.len() {
                return Action::Done;
            }
            let seg = &self.segments[self.seg];
            match self.step {
                Step::PhaseMark => {
                    self.step = Step::Packet(0);
                    if let (0, Some(name)) = (rank, seg.phase) {
                        if self.iter == 0 {
                            return Action::Phase(name);
                        }
                    }
                }
                Step::Packet(i) => {
                    if i + 1 < seg.subpackets {
                        self.step = Step::Packet(i + 1);
                    } else {
                        self.step = Step::Barrier;
                    }
                    return Action::Compute(self.scaled(self.seg));
                }
                Step::Barrier => {
                    self.step = Step::Report;
                    return Action::Barrier;
                }
                Step::Report => {
                    let report = (rank == 0 && seg.report_value > 0.0).then_some(Action::Report {
                        channel: seg.channel,
                        value: seg.report_value,
                    });
                    self.iter += 1;
                    self.global_iter += 1;
                    if self.iter >= seg.iters {
                        self.seg += 1;
                        self.iter = 0;
                        self.step = Step::PhaseMark;
                    } else {
                        self.step = Step::PhaseMark;
                    }
                    if let Some(r) = report {
                        return r;
                    }
                }
            }
        }
    }

    fn is_replica_of(&self, other: &dyn Program) -> bool {
        downcast::<Self>(other).is_some_and(|o| {
            self.seed == o.seed
                && self.seg == o.seg
                && self.iter == o.iter
                && self.global_iter == o.global_iter
                && self.step == o.step
                && self.segments.len() == o.segments.len()
                && (self.segments.iter().zip(&o.segments)).all(|(a, b)| a.same_bits(b))
                && (self.base_packets.iter().map(packet_bits))
                    .eq(o.base_packets.iter().map(packet_bits))
        })
    }
}

/// The Listing-1 microbenchmark: `usleep`-as-work plus a barrier.
pub struct SleepBarrierProgram {
    /// Iterations of the outer loop (5 in the paper).
    iters: u64,
    /// This rank's per-iteration sleep duration.
    sleep: Nanos,
    /// Iterations/second channel report value (rank 0 only).
    iter_report: f64,
    /// Work-units channel report value (rank 0 only; whole-app units/iter).
    work_report: f64,
    /// Per-rank mode (the paper's future-work "per-processing-element"
    /// monitoring): report this rank's own work on channel
    /// `Some(channel)` instead of the aggregate rank-0 channels.
    own_channel: Option<usize>,
    /// This rank's own work units per iteration (per-rank mode).
    own_work: f64,
    done: u64,
    step: u8,
}

impl SleepBarrierProgram {
    /// Build for one rank (aggregate reporting from rank 0).
    pub fn new(iters: u64, sleep: Nanos, iter_report: f64, work_report: f64) -> Self {
        assert!(iters > 0 && sleep > 0);
        Self {
            iters,
            sleep,
            iter_report,
            work_report,
            own_channel: None,
            own_work: 0.0,
            done: 0,
            step: 0,
        }
    }

    /// Switch to per-rank reporting: this rank publishes `own_work` units
    /// per iteration on its own `channel`.
    pub fn per_rank(mut self, channel: usize, own_work: f64) -> Self {
        assert!(own_work >= 0.0);
        self.own_channel = Some(channel);
        self.own_work = own_work;
        self
    }
}

impl Program for SleepBarrierProgram {
    fn next_action(&mut self, rank: usize) -> Action {
        loop {
            if self.done >= self.iters {
                return Action::Done;
            }
            match self.step {
                0 => {
                    self.step = 1;
                    return Action::Sleep(self.sleep);
                }
                1 => {
                    self.step = 2;
                    return Action::Barrier;
                }
                2 => {
                    self.step = 3;
                    if let Some(ch) = self.own_channel {
                        return Action::Report {
                            channel: ch,
                            value: self.own_work,
                        };
                    }
                    if rank == 0 {
                        return Action::Report {
                            channel: 0,
                            value: self.iter_report,
                        };
                    }
                }
                _ => {
                    self.step = 0;
                    self.done += 1;
                    if self.own_channel.is_none() && rank == 0 {
                        return Action::Report {
                            channel: 1,
                            value: self.work_report,
                        };
                    }
                }
            }
        }
    }
}

/// CANDLE-style accuracy-bounded training: epochs repeat until the
/// (deterministic, seeded) accuracy curve crosses `target`.
pub struct ConvergenceProgram {
    packet: WorkPacket,
    seed: u64,
    target: f64,
    /// Asymptotic accuracy of the curve.
    a_inf: f64,
    /// Convergence rate per epoch.
    rate: f64,
    epoch: u64,
    step: u8,
}

impl ConvergenceProgram {
    /// Build one rank's program.
    pub fn new(cfg: &NodeConfig, spec: KernelSpec, seed: u64, target: f64) -> Self {
        assert!((0.0..1.0).contains(&target));
        // The convergence rate depends on the (seeded) initialization, so
        // different runs converge after different epoch counts — that is
        // the paper's point about accuracy-bounded training.
        let rate = 0.12 * iteration_noise(seed, 0xC0FF_EE00, 0.15);
        Self {
            packet: spec.packet(cfg),
            seed,
            target,
            a_inf: 0.97,
            rate,
            epoch: 0,
            step: 0,
        }
    }

    /// The simulated validation accuracy after `epoch` epochs: a saturating
    /// curve with small seeded noise; identical on every rank so all ranks
    /// stop together.
    pub fn accuracy(&self, epoch: u64) -> f64 {
        let base = self.a_inf * (1.0 - (-(self.rate) * epoch as f64).exp());
        let noise = (iteration_noise(self.seed, epoch, 0.01) - 1.0) * self.a_inf;
        (base + noise).clamp(0.0, 1.0)
    }
}

impl Program for ConvergenceProgram {
    fn next_action(&mut self, rank: usize) -> Action {
        loop {
            if self.epoch > 0 && self.accuracy(self.epoch) >= self.target {
                return Action::Done;
            }
            match self.step {
                0 => {
                    self.step = 1;
                    return Action::Compute(self.packet);
                }
                1 => {
                    self.step = 2;
                    return Action::Barrier;
                }
                _ => {
                    self.step = 0;
                    self.epoch += 1;
                    if rank == 0 {
                        return Action::Report {
                            channel: 0,
                            value: 1.0,
                        };
                    }
                }
            }
        }
    }

    fn is_replica_of(&self, other: &dyn Program) -> bool {
        downcast::<Self>(other).is_some_and(|o| {
            packet_bits(&self.packet) == packet_bits(&o.packet)
                && self.seed == o.seed
                && self.target.to_bits() == o.target.to_bits()
                && self.a_inf.to_bits() == o.a_inf.to_bits()
                && self.rate.to_bits() == o.rate.to_bits()
                && self.epoch == o.epoch
                && self.step == o.step
        })
    }
}

/// Fault injection: wraps any program and, after `healthy_actions` actions,
/// hangs the rank in a livelock — it spins at the barrier-polling IPC
/// forever, never reporting again. Hardware metrics (MIPS, IPC) stay
/// perfectly healthy while *progress* flatlines: exactly the failure class
/// the paper's online-progress metric catches and execution-time /
/// counter-based monitoring cannot (§II).
pub struct HangAfter<P> {
    inner: P,
    healthy_actions: u64,
    emitted: u64,
}

impl<P: Program> HangAfter<P> {
    /// Wrap `inner`, hanging after `healthy_actions` actions.
    pub fn new(inner: P, healthy_actions: u64) -> Self {
        Self {
            inner,
            healthy_actions,
            emitted: 0,
        }
    }
}

impl<P: Program> Program for HangAfter<P> {
    fn next_action(&mut self, rank: usize) -> Action {
        if self.emitted >= self.healthy_actions {
            // A livelock: spin forever. The driver never releases the
            // barrier because this rank never arrives at one.
            return Action::Compute(WorkPacket::new(f64::MAX / 1e3, 0.0, f64::MAX / 1e3));
        }
        self.emitted += 1;
        self.inner.next_action(rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> NodeConfig {
        NodeConfig::default()
    }

    fn spec() -> KernelSpec {
        KernelSpec::new(0.8, 0.01, 1e-3, 4)
    }

    fn drain_one_iteration(p: &mut dyn Program, rank: usize) -> Vec<&'static str> {
        let mut kinds = vec![];
        for _ in 0..10 {
            match p.next_action(rank) {
                Action::Compute(_) => kinds.push("compute"),
                Action::Barrier => {
                    kinds.push("barrier");
                    // Stop after the post-barrier report (or next compute).
                }
                Action::Report { .. } => {
                    kinds.push("report");
                    break;
                }
                Action::Phase(_) => kinds.push("phase"),
                Action::Sleep(_) => kinds.push("sleep"),
                Action::Done => {
                    kinds.push("done");
                    break;
                }
            }
            if kinds.ends_with(&["barrier"]) && rank != 0 {
                break;
            }
        }
        kinds
    }

    #[test]
    fn phased_program_emits_phase_compute_barrier_report() {
        let seg = IterSegment::new(spec(), 2, 5.0).with_phase("solve");
        let mut p = PhasedProgram::new(&cfg(), vec![seg], 1);
        let kinds = drain_one_iteration(&mut p, 0);
        assert_eq!(kinds, ["phase", "compute", "barrier", "report"]);
    }

    #[test]
    fn non_root_ranks_do_not_report_or_mark_phases() {
        let seg = IterSegment::new(spec(), 2, 5.0).with_phase("solve");
        let mut p = PhasedProgram::new(&cfg(), vec![seg], 1);
        let kinds = drain_one_iteration(&mut p, 3);
        assert_eq!(kinds, ["compute", "barrier"]);
    }

    #[test]
    fn program_finishes_after_all_segments() {
        let segs = vec![
            IterSegment::new(spec(), 2, 1.0),
            IterSegment::new(spec(), 3, 1.0),
        ];
        let mut p = PhasedProgram::new(&cfg(), segs, 1);
        let mut computes = 0;
        loop {
            match p.next_action(1) {
                Action::Compute(_) => computes += 1,
                Action::Done => break,
                _ => {}
            }
        }
        assert_eq!(computes, 5);
    }

    #[test]
    fn subpackets_split_the_iteration() {
        let seg = IterSegment::new(spec(), 1, 1.0).with_subpackets(4);
        let full = spec().packet(&cfg());
        let mut p = PhasedProgram::new(&cfg(), vec![seg], 1);
        let mut cycles = 0.0;
        let mut packets = 0;
        loop {
            match p.next_action(1) {
                Action::Compute(w) => {
                    cycles += w.cycles;
                    packets += 1;
                }
                Action::Done => break,
                _ => {}
            }
        }
        assert_eq!(packets, 4);
        assert!((cycles - full.cycles).abs() / full.cycles < 1e-9);
    }

    #[test]
    fn noise_perturbs_iterations_but_not_ranks() {
        let seg = IterSegment::new(spec(), 4, 1.0).with_noise(0.1);
        let collect = |rank: usize| -> Vec<f64> {
            let mut p = PhasedProgram::new(&cfg(), vec![seg.clone()], 9);
            let mut v = vec![];
            loop {
                match p.next_action(rank) {
                    Action::Compute(w) => v.push(w.cycles),
                    Action::Done => break,
                    _ => {}
                }
            }
            v
        };
        let r0 = collect(0);
        let r5 = collect(5);
        assert_eq!(r0, r5, "noise must be rank-symmetric");
        assert!(r0.windows(2).any(|w| w[0] != w[1]), "noise must vary");
    }

    #[test]
    fn hang_wrapper_livelocks_after_the_healthy_window() {
        let seg = IterSegment::new(spec(), 100, 1.0);
        let inner = PhasedProgram::new(&cfg(), vec![seg], 1);
        let mut hung = HangAfter::new(inner, 5);
        for _ in 0..5 {
            let a = hung.next_action(0);
            assert!(!matches!(a, Action::Done));
        }
        // From now on: endless compute, no reports, no barriers.
        for _ in 0..10 {
            match hung.next_action(0) {
                Action::Compute(w) => assert!(w.cycles > 1e30),
                other => panic!("expected livelock compute, got {other:?}"),
            }
        }
    }

    #[test]
    fn replica_checks_compare_every_field_bit_for_bit() {
        let seg = || IterSegment::new(spec(), 4, 1.0).with_noise(0.0);
        let phased = |seg: IterSegment, seed| PhasedProgram::new(&cfg(), vec![seg], seed);
        let a = phased(seg(), 9);
        assert!(a.is_replica_of(&phased(seg(), 9)));
        assert!(!a.is_replica_of(&phased(seg(), 10)));
        // -0.0 == 0.0, but the bits differ.
        assert!(!a.is_replica_of(&phased(seg().with_noise(-0.0), 9)));
        assert!(!a.is_replica_of(&phased(seg().with_phase("solve"), 9)));
        assert!(!a.is_replica_of(&phased(seg().on_channel(1), 9)));
        assert!(!a.is_replica_of(&HangAfter::new(phased(seg(), 9), 5)));
        let mut b = phased(seg(), 9);
        b.next_action(0);
        assert!(!a.is_replica_of(&b));

        let s = KernelSpec::new(0.9, 0.001, 1e-3, 2);
        let c = ConvergenceProgram::new(&cfg(), s, 7, 0.92);
        assert!(c.is_replica_of(&ConvergenceProgram::new(&cfg(), s, 7, 0.92)));
        assert!(!c.is_replica_of(&ConvergenceProgram::new(&cfg(), s, 7, 0.93)));
        assert!(!c.is_replica_of(&a));
        assert!(!SleepBarrierProgram::new(2, 1000, 1.0, 1.0)
            .is_replica_of(&SleepBarrierProgram::new(2, 1000, 1.0, 1.0)));
    }

    #[test]
    fn sleep_barrier_program_shape() {
        let mut p = SleepBarrierProgram::new(2, 1000, 1.0, 24e6);
        // Rank 0 sequence: sleep, barrier, report(iter), report(work), ...
        assert!(matches!(p.next_action(0), Action::Sleep(1000)));
        assert!(matches!(p.next_action(0), Action::Barrier));
        assert!(matches!(p.next_action(0), Action::Report { channel: 0, value } if value == 1.0));
        assert!(matches!(p.next_action(0), Action::Report { channel: 1, value } if value == 24e6));
        assert!(matches!(p.next_action(0), Action::Sleep(1000)));
    }

    #[test]
    fn convergence_program_stops_at_unpredictable_epoch() {
        let s = KernelSpec::new(0.9, 0.001, 1e-3, 2);
        let mut epochs = vec![];
        for seed in [1u64, 2, 3] {
            let mut p = ConvergenceProgram::new(&cfg(), s, seed, 0.92);
            let mut n = 0;
            loop {
                match p.next_action(1) {
                    Action::Compute(_) => n += 1,
                    Action::Done => break,
                    _ => {}
                }
            }
            epochs.push(n);
        }
        // All converge in a plausible band, not all at the same epoch.
        for &e in &epochs {
            assert!((10..60).contains(&e), "epochs={e}");
        }
        assert!(
            epochs.iter().any(|&e| e != epochs[0]),
            "different seeds should converge at different epochs: {epochs:?}"
        );
    }

    #[test]
    fn convergence_is_rank_symmetric() {
        let s = KernelSpec::new(0.9, 0.001, 1e-3, 2);
        let count = |rank: usize| {
            let mut p = ConvergenceProgram::new(&cfg(), s, 7, 0.92);
            let mut n = 0;
            loop {
                match p.next_action(rank) {
                    Action::Compute(_) => n += 1,
                    Action::Done => break,
                    _ => {}
                }
            }
            n
        };
        assert_eq!(count(0), count(3));
    }
}
