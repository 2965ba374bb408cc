//! Differential tests: the event-horizon macro-step fast path versus the
//! exact fixed-quantum reference.
//!
//! Every test here drives two nodes built from the *same* configuration
//! through identical segments — the fast one by [`Node::step_until`], the
//! exact one by `step_exact`, a [`Node::step`] loop — assigning identical
//! fresh work whenever a core completes or wakes. The contract under test:
//!
//! - event times (`now` at every non-empty outcome) and the outcomes
//!   themselves are **equal**;
//! - counters, energy and remaining per-core progress agree to ≤ 1e-9
//!   relative (the only permitted difference is floating-point summation
//!   order, and only when a macro-step actually fires);
//! - the integer MSR state (`IA32_APERF`, `IA32_MPERF`,
//!   `MSR_PKG_ENERGY_STATUS`) is **bit-identical** whenever the thermal
//!   model is off, and *everything* is bit-identical when no macro-step can
//!   fire (RAPL period == quantum caps every horizon at one quantum).

use std::sync::Arc;

use proptest::prelude::*;

use crate::config::NodeConfig;
use crate::faults::{FaultPlan, FaultWindow};
use crate::msr::{IA32_APERF, IA32_MPERF, MSR_PKG_ENERGY_STATUS};
use crate::node::{CoreWork, Node, StepOutcome, WorkPacket};
use crate::thermal::ThermalConfig;
use crate::time::{Nanos, MS, US};

/// SplitMix64 — a tiny deterministic stream for workload generation, kept
/// separate from proptest's own RNG so a case's work sequence depends only
/// on its `seed` input.
pub(crate) struct Mix(pub(crate) u64);

impl Mix {
    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    pub(crate) fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.unit() * (hi - lo)
    }
}

/// Draw a random work item: mostly compute packets across the whole
/// compute-bound/memory-bound spectrum, with occasional sleeps, spins and
/// idle stretches so every `CoreWork` arm of the step paths is exercised.
pub(crate) fn random_work(rng: &mut Mix, now: Nanos) -> CoreWork {
    match rng.next() % 8 {
        0 => CoreWork::Idle,
        1 => CoreWork::Spin,
        2 => CoreWork::Sleep {
            until: now + rng.range(50_000.0, 5_000_000.0) as Nanos,
        },
        _ => {
            let cycles = rng.range(2e5, 4e7);
            // Miss rate spans compute-bound (~0) to STREAM-like (heavy).
            let misses = cycles * rng.range(0.0, 2e-3);
            let instructions = cycles * rng.range(0.4, 2.4);
            CoreWork::Compute(
                WorkPacket {
                    cycles,
                    misses,
                    instructions,
                    mlp: rng.range(0.15, 1.0),
                    mem_weight: rng.range(0.0, 1.0),
                }
                .into(),
            )
        }
    }
}

/// The exact reference for [`Node::step_until`]: single quanta through
/// [`Node::step`] until `deadline` or the first non-empty outcome.
fn step_exact(node: &mut Node, deadline: Nanos) -> StepOutcome {
    while node.now() < deadline {
        let o = node.step();
        if !o.is_empty() {
            return o.clone();
        }
    }
    StepOutcome::default()
}

fn assert_rel_close(a: f64, b: f64, what: &str) {
    let scale = a.abs().max(b.abs()).max(1.0);
    assert!(
        (a - b).abs() <= 1e-9 * scale,
        "{what} diverged: exact={a} horizon={b}"
    );
}

/// Independent work per core: every finished core gets its own draw.
fn per_core_work(seed: u64) -> impl FnMut(&[usize], Nanos) -> Vec<(usize, CoreWork)> {
    let mut rng = Mix(seed);
    move |finished, now| {
        finished
            .iter()
            .map(|&c| (c, random_work(&mut rng, now)))
            .collect()
    }
}

/// SPMD-shaped work on `cores` cores: the cores are split into blocks of
/// 1–8 adjacent cores, and each block shares one draw, so runs of
/// bit-identical cores form. A block is refilled whole as soon as any of
/// its cores finishes (rejoining any split), or now and then left idle,
/// unassigned. On every call, even one with no finished core, a single
/// core may get a draw of its own mid-flight, splitting its block's run.
fn blocked_work(seed: u64, cores: usize) -> impl FnMut(&[usize], Nanos) -> Vec<(usize, CoreWork)> {
    let mut rng = Mix(seed);
    let mut block_of = Vec::with_capacity(cores);
    let mut blocks = Vec::new();
    while block_of.len() < cores {
        let start = block_of.len();
        let end = (start + 1 + (rng.next() % 8) as usize).min(cores);
        block_of.resize(end, blocks.len());
        blocks.push(start..end);
    }
    move |finished, now| {
        let mut out = Vec::new();
        let mut seen = Vec::new();
        for &c in finished {
            let b = block_of[c];
            if seen.contains(&b) {
                continue;
            }
            seen.push(b);
            if !rng.next().is_multiple_of(5) {
                let w = random_work(&mut rng, now);
                out.extend(blocks[b].clone().map(|o| (o, w)));
            }
        }
        if rng.next().is_multiple_of(3) {
            let c = (rng.next() % cores as u64) as usize;
            out.push((c, random_work(&mut rng, now)));
        }
        out
    }
}

/// Full-width SPMD work, the shape both simulator benchmarks run: every
/// refill gives all cores one shared non-`Idle` draw, so the node is one
/// run of bit-identical cores from start to finish. Cores finish
/// together; segment boundaries refill too, so a draw of spinners does
/// not spin for the rest of the case.
fn full_width_work(
    seed: u64,
    cores: usize,
) -> impl FnMut(&[usize], Nanos) -> Vec<(usize, CoreWork)> {
    let mut rng = Mix(seed);
    move |_, now| {
        let w = loop {
            let w = random_work(&mut rng, now);
            if w != CoreWork::Idle {
                break w;
            }
        };
        (0..cores).map(|c| (c, w)).collect()
    }
}

/// Drive `exact` and `fast` in lockstep for `total` sim-time, assigning
/// identical fresh work from `refill` at the start (every core), at every
/// segment boundary (no core) and on every completion/wake (the cores that
/// finished), changing the package cap at every segment boundary from
/// `caps`, and asserting the equivalence contract at every event and
/// every boundary.
fn run_lockstep(
    mut exact: Node,
    mut fast: Node,
    mut refill: impl FnMut(&[usize], Nanos) -> Vec<(usize, CoreWork)>,
    total: Nanos,
    segment: Nanos,
    caps: &[Option<f64>],
    bit_exact_msrs: bool,
) {
    let all: Vec<usize> = (0..exact.cores()).collect();
    for (c, w) in refill(&all, 0) {
        exact.assign(c, w);
        fast.assign(c, w);
    }
    let mut cap_idx = 0usize;
    while fast.now() < total {
        if !caps.is_empty() {
            let cap = caps[cap_idx % caps.len()];
            cap_idx += 1;
            // Under write-fault plans the set may fail; it must fail (or
            // succeed) identically on both nodes.
            let re = exact.set_package_cap(cap);
            let rf = fast.set_package_cap(cap);
            assert_eq!(re.is_ok(), rf.is_ok(), "cap write outcome diverged");
        }
        for (c, w) in refill(&[], fast.now()) {
            exact.assign(c, w);
            fast.assign(c, w);
        }
        let deadline = (fast.now() + segment).min(total);
        loop {
            let oe = step_exact(&mut exact, deadline);
            let of = fast.step_until(deadline).clone();
            assert_eq!(oe, of, "step outcomes diverged at t={}", exact.now());
            assert_eq!(exact.now(), fast.now(), "event times diverged");
            if oe.is_empty() {
                break;
            }
            let finished: Vec<usize> = oe.completed.iter().chain(&oe.woke).copied().collect();
            for (c, w) in refill(&finished, fast.now()) {
                exact.assign(c, w);
                fast.assign(c, w);
            }
        }
        // Deadlines need not be quantum-aligned; both nodes must land on
        // the same first quantum boundary at or past the deadline.
        assert!(exact.now() >= deadline);
        assert_eq!(exact.now(), fast.now());
        compare_nodes(&exact, &fast, bit_exact_msrs);
    }
}

/// Assert the two nodes agree: counters/energy/progress ≤ 1e-9 relative,
/// and (optionally) integer MSR state bit-for-bit.
fn compare_nodes(exact: &Node, fast: &Node, bit_exact_msrs: bool) {
    let ce = exact.counters();
    let cf = fast.counters();
    assert_rel_close(ce.instructions, cf.instructions, "instructions");
    assert_rel_close(ce.cycles, cf.cycles, "cycles");
    assert_rel_close(ce.l3_misses, cf.l3_misses, "l3_misses");
    assert_rel_close(exact.total_energy(), fast.total_energy(), "energy");
    for c in 0..exact.cores() {
        match (exact.work(c), fast.work(c)) {
            (CoreWork::Compute(a), CoreWork::Compute(b)) => {
                assert_rel_close(a.cycles_left, b.cycles_left, "cycles_left");
                assert_rel_close(a.misses_left, b.misses_left, "misses_left");
                assert_rel_close(a.inst_left, b.inst_left, "inst_left");
            }
            (a, b) => assert_eq!(a, b, "core {c} work state diverged"),
        }
    }
    if bit_exact_msrs {
        for addr in [IA32_APERF, IA32_MPERF, MSR_PKG_ENERGY_STATUS] {
            assert_eq!(
                exact.msr().hw_read(addr),
                fast.msr().hw_read(addr),
                "MSR {addr:#x} diverged bit-wise"
            );
        }
    }
}

/// Build the exact/fast node pair from one base configuration.
fn node_pair(cfg: NodeConfig) -> (Node, Node) {
    (Node::new(cfg.clone()), Node::new(cfg))
}

fn base_cfg(cores: usize, quantum: Nanos, rapl_period: Nanos) -> NodeConfig {
    NodeConfig {
        cores,
        quantum,
        rapl_period,
        rapl_window: rapl_period * 8,
        ..NodeConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Tentpole acceptance: random workloads, random quanta, random
    /// (possibly quantum-misaligned) RAPL periods, random caps. Integer
    /// MSR state must stay bit-identical (no thermal model here).
    #[test]
    fn step_until_matches_exact_on_random_workloads(
        seed in any::<u64>(),
        cores in 1usize..8,
        quantum_us in 20u64..200,
        rapl_mult in 1u64..24,
        rapl_skew_us in 0u64..100,
        cap in prop_oneof![Just(None), (45.0f64..140.0).prop_map(Some)],
    ) {
        let quantum = quantum_us * US;
        let rapl_period = quantum * rapl_mult + rapl_skew_us.min(quantum_us - 1) * US;
        let (exact, fast) = node_pair(base_cfg(cores, quantum, rapl_period));
        run_lockstep(exact, fast, per_core_work(seed), 40 * MS, 7 * MS, &[cap], true);
    }

    /// The same contract on SPMD-shaped work: blocks of adjacent cores
    /// share one draw, so the fast path evaluates runs of bit-identical
    /// cores, splits them when a single core is refilled and rejoins them
    /// when a block is. Segments are long, so many macro-steps run inside
    /// one `step_until` call between events.
    #[test]
    fn step_until_matches_exact_on_blocked_workloads(
        seed in any::<u64>(),
        rapl_mult in 2u64..16,
        cap in prop_oneof![Just(None), (45.0f64..140.0).prop_map(Some)],
    ) {
        let quantum = 100 * US;
        let (exact, fast) = node_pair(base_cfg(24, quantum, quantum * rapl_mult));
        run_lockstep(exact, fast, blocked_work(seed, 24), 80 * MS, 40 * MS, &[cap, None], true);
    }

    /// The same contract on the run shape the benchmarks use: all 24
    /// cores hold one shared draw, so every macro-step evaluates a single
    /// run of 24 and each of its sums gets that run's increments for all
    /// 24 cores at once.
    #[test]
    fn step_until_matches_exact_on_full_width_runs(
        seed in any::<u64>(),
        rapl_mult in 2u64..16,
        cap in prop_oneof![Just(None), (45.0f64..140.0).prop_map(Some)],
    ) {
        let quantum = 100 * US;
        let (exact, fast) = node_pair(base_cfg(24, quantum, quantum * rapl_mult));
        run_lockstep(exact, fast, full_width_work(seed, 24), 120 * MS, 30 * MS, &[cap, None], true);
    }

    /// Same contract under active fault plans: stuck/jumping energy
    /// counters, delayed cap latching, probabilistic read/write errors and
    /// telemetry dropouts, with cap writes landing inside the windows.
    #[test]
    fn step_until_matches_exact_under_fault_plans(
        seed in any::<u64>(),
        plan_seed in any::<u64>(),
        rapl_mult in 1u64..16,
        jump_to in any::<u32>(),
        latch_delay_us in 1u64..2_000,
    ) {
        let quantum = 100 * US;
        let plan = FaultPlan::new(plan_seed)
            .stuck_energy(FaultWindow::new(4 * MS, 9 * MS))
            .energy_jump(u64::from(jump_to), FaultWindow::new(12 * MS, 14 * MS))
            .delayed_cap_latch(latch_delay_us * US, FaultWindow::new(0, 20 * MS))
            .read_error(MSR_PKG_ENERGY_STATUS, 0.3, FaultWindow::new(6 * MS, 16 * MS))
            .write_error(crate::msr::MSR_PKG_POWER_LIMIT, 0.3, FaultWindow::new(0, 10 * MS))
            .telemetry_dropout(FaultWindow::new(17 * MS, 19 * MS));
        let mut cfg = base_cfg(4, quantum, quantum * rapl_mult);
        cfg.faults = Some(Arc::new(plan));
        let (exact, fast) = node_pair(cfg);
        run_lockstep(exact, fast, per_core_work(seed), 24 * MS, 3 * MS, &[Some(90.0), Some(60.0), None], true);
    }

    /// With the thermal model on, summation order inside a macro-step is
    /// not bit-preserved (dynamic and leakage sums are kept separate), so
    /// the contract relaxes to ≤ 1e-9 relative — but event times, PROCHOT
    /// flips and throttle truncation must still line up exactly.
    #[test]
    fn step_until_matches_exact_with_thermal_throttling(
        seed in any::<u64>(),
        throttle_c in 55.0f64..80.0,
        tau_s in 0.005f64..0.05,
    ) {
        let mut cfg = base_cfg(24, 100 * US, MS);
        cfg.thermal = Some(ThermalConfig {
            throttle_c,
            tau_s,
            ..ThermalConfig::default()
        });
        let (mut exact, mut fast) = node_pair(cfg);
        run_lockstep_thermal_check(&mut exact, &mut fast, seed);
    }
}

/// Thermal lockstep: besides the relaxed numeric contract, throttle state
/// must agree at every event and boundary (a PROCHOT flip one quantum off
/// would show up here before it shows up in the counters).
fn run_lockstep_thermal_check(exact: &mut Node, fast: &mut Node, seed: u64) {
    let cores = exact.cores();
    let mut rng = Mix(seed);
    for c in 0..cores {
        // Bias to compute so the package actually heats up.
        let w = match random_work(&mut rng, 0) {
            CoreWork::Idle => CoreWork::Spin,
            other => other,
        };
        exact.assign(c, w);
        fast.assign(c, w);
    }
    let total = 60 * MS;
    while fast.now() < total {
        let deadline = (fast.now() + 5 * MS).min(total);
        loop {
            let oe = step_exact(exact, deadline);
            let of = fast.step_until(deadline).clone();
            assert_eq!(oe, of, "thermal outcomes diverged at t={}", exact.now());
            assert_eq!(exact.now(), fast.now());
            assert_eq!(
                exact.thermal_throttling(),
                fast.thermal_throttling(),
                "PROCHOT state diverged at t={}",
                exact.now()
            );
            let (te, tf) = (
                exact.temperature_c().unwrap(),
                fast.temperature_c().unwrap(),
            );
            assert_rel_close(te, tf, "temperature");
            for &c in oe.completed.iter().chain(oe.woke.iter()) {
                let w = random_work(&mut rng, fast.now());
                exact.assign(c, w);
                fast.assign(c, w);
            }
            if oe.is_empty() {
                break;
            }
        }
        compare_nodes(exact, fast, false);
    }
}

/// When `rapl_period == quantum`, the RAPL horizon caps every macro-step at
/// a single quantum, so the fast path never fires and `step_until` must
/// be **bit-identical** to `step_exact` — registers, counters, energy, work
/// state, everything.
#[test]
fn bit_identical_when_no_macro_step_fires() {
    let quantum = 100 * US;
    let cfg = base_cfg(6, quantum, quantum);
    let (mut exact, mut fast) = node_pair(cfg);
    let mut rng = Mix(0xD1FF_7E57);
    for c in 0..6 {
        let w = random_work(&mut rng, 0);
        exact.assign(c, w);
        fast.assign(c, w);
    }
    exact.set_package_cap(Some(70.0)).unwrap();
    fast.set_package_cap(Some(70.0)).unwrap();
    let total = 20 * MS;
    while fast.now() < total {
        let oe = step_exact(&mut exact, total);
        let of = fast.step_until(total).clone();
        assert_eq!(oe, of);
        assert_eq!(exact.now(), fast.now());
        for &c in oe.completed.iter().chain(oe.woke.iter()) {
            let w = random_work(&mut rng, fast.now());
            exact.assign(c, w);
            fast.assign(c, w);
        }
    }
    let ce = exact.counters();
    let cf = fast.counters();
    assert_eq!(ce.instructions.to_bits(), cf.instructions.to_bits());
    assert_eq!(ce.cycles.to_bits(), cf.cycles.to_bits());
    assert_eq!(ce.l3_misses.to_bits(), cf.l3_misses.to_bits());
    assert_eq!(
        exact.total_energy().to_bits(),
        fast.total_energy().to_bits()
    );
    for addr in [IA32_APERF, IA32_MPERF, MSR_PKG_ENERGY_STATUS] {
        assert_eq!(exact.msr().hw_read(addr), fast.msr().hw_read(addr));
    }
    for c in 0..6 {
        assert_eq!(exact.work(c), fast.work(c));
    }
}

/// `step_until` honours its deadline exactly when nothing happens, and
/// returns early (at the completion quantum) when something does.
#[test]
fn step_until_deadline_and_early_return_semantics() {
    let cfg = base_cfg(2, 100 * US, MS);
    let mut node = Node::new(cfg);
    // Uneventful: idle cores, far deadline.
    let o = node.step_until(3 * MS).clone();
    assert!(o.is_empty());
    assert_eq!(node.now(), 3 * MS);
    // Eventful: a small packet completes long before the deadline.
    node.assign(
        0,
        CoreWork::Compute(WorkPacket::new(3.0e6, 0.0, 3.0e6).into()),
    );
    let o = node.step_until(100 * MS).clone();
    assert_eq!(o.completed, vec![0]);
    assert!(o.woke.is_empty());
    assert!(
        node.now() < 100 * MS,
        "returned at {} — did not stop early",
        node.now()
    );
    // Sleep horizon: the wake lands on the quantum whose end covers `until`.
    let wake_at = node.now() + 1_550 * US;
    node.assign(1, CoreWork::Sleep { until: wake_at });
    let o = node.step_until(100 * MS).clone();
    assert_eq!(o.woke, vec![1]);
    assert!(node.now() >= wake_at);
    assert!(node.now() - wake_at < 100 * US);
}
