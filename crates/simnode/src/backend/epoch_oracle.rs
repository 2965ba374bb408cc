//! Exactness of the node's register cache and counting fast path.
//!
//! A node keeps its decoded control registers until the backend's
//! [`MsrBackend::control_epoch`] moves, counts through
//! [`MsrBackend::hw_count`], and encodes a cap's time window once per
//! units value. [`TraitDefaults`] forwards every access to a real backend
//! but keeps the trait's defaults for those two methods: no epoch, so the
//! node re-reads every register on every step, and a counting step made
//! of `hw_read`/`hw_write` pairs. A node on it is the reference; the same
//! node on the backend itself must agree with it bit for bit, whatever
//! lands in the registers between steps.

use std::sync::Arc;

use proptest::prelude::*;

use crate::backend::{BusStats, Capabilities, EmulatedBackend, MsrBackend, SimBackend};
use crate::config::NodeConfig;
use crate::ddcm::DutyCycle;
use crate::difftests::{random_work, Mix};
use crate::faults::{FaultPlan, FaultStats, FaultWindow};
use crate::msr::{
    encode_perf_ctl, MsrDevice, MsrError, PowerLimit, RaplUnits, IA32_APERF, IA32_CLOCK_MODULATION,
    IA32_MPERF, IA32_PERF_CTL, MSR_PKG_ENERGY_STATUS, MSR_PKG_POWER_LIMIT, MSR_RAPL_POWER_UNIT,
};
use crate::node::Node;
use crate::power::NodeTables;
use crate::time::{Nanos, MS, US};

/// Forwards everything to `B` except `control_epoch` and `hw_count`,
/// which keep the trait defaults.
#[derive(Debug)]
struct TraitDefaults<B>(B);

impl<B: MsrBackend> MsrBackend for TraitDefaults<B> {
    fn read(&self, addr: u32) -> Result<u64, MsrError> {
        self.0.read(addr)
    }

    fn write(&mut self, addr: u32, value: u64) -> Result<(), MsrError> {
        self.0.write(addr, value)
    }

    fn advance_to(&mut self, now: Nanos) {
        self.0.advance_to(now);
    }

    fn next_event_hint(&self, now: Nanos) -> Option<Nanos> {
        self.0.next_event_hint(now)
    }

    fn capabilities(&self) -> Capabilities {
        self.0.capabilities()
    }

    fn hw_read(&self, addr: u32) -> u64 {
        self.0.hw_read(addr)
    }

    fn hw_write(&mut self, addr: u32, value: u64) {
        self.0.hw_write(addr, value);
    }

    fn fault_stats(&self) -> Option<&FaultStats> {
        self.0.fault_stats()
    }

    fn bus_stats(&self) -> Option<BusStats> {
        self.0.bus_stats()
    }
}

fn below(rng: &mut Mix, n: u64) -> u64 {
    rng.next() % n
}

/// A units register near Skylake's: power 2^-2..2^-5 W, energy
/// 2^-12..2^-16 J, time 2^-8..2^-12 s.
fn random_units(rng: &mut Mix) -> u64 {
    (2 + below(rng, 4)) | (12 + below(rng, 5)) << 8 | (8 + below(rng, 5)) << 16
}

fn random_cap(rng: &mut Mix) -> Option<f64> {
    (below(rng, 5) != 0).then(|| rng.range(30.0, 170.0))
}

/// One change made between two `step_until` calls, applied to both nodes.
fn poke(node: &mut Node, op: u64, rng: &mut Mix) {
    match op {
        0 => node.set_package_cap(random_cap(rng)).unwrap(),
        1 => {
            let mhz = [0, 1200, 1800, 2400, 3000][below(rng, 5) as usize];
            node.msr_mut()
                .write(IA32_PERF_CTL, encode_perf_ctl(mhz))
                .unwrap();
        }
        2 => {
            let duty = DutyCycle::new(1 + below(rng, 16) as u8);
            node.msr_mut()
                .write(IA32_CLOCK_MODULATION, duty.encode_msr())
                .unwrap();
        }
        3 => {
            let raw = random_units(rng);
            node.msr_mut().hw_write(MSR_RAPL_POWER_UNIT, raw);
        }
        4 => {
            let units = node.msr().units();
            let raw = PowerLimit {
                watts: random_cap(rng),
                window: (1 + below(rng, 40)) * MS,
            }
            .encode(units);
            node.msr_mut().hw_write(MSR_PKG_POWER_LIMIT, raw);
        }
        _ => {}
    }
}

fn assert_same(reference: &Node, fast: &Node, what: &str) {
    assert_eq!(reference.now(), fast.now(), "{what}: now");
    assert_eq!(
        reference.total_energy().to_bits(),
        fast.total_energy().to_bits(),
        "{what}: energy"
    );
    let (r, f) = (reference.counters(), fast.counters());
    for (name, a, b) in [
        ("instructions", r.instructions, f.instructions),
        ("cycles", r.cycles, f.cycles),
        ("l3_misses", r.l3_misses, f.l3_misses),
    ] {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: {name}");
    }
    for addr in [
        IA32_APERF,
        IA32_MPERF,
        MSR_PKG_ENERGY_STATUS,
        MSR_PKG_POWER_LIMIT,
    ] {
        assert_eq!(
            reference.msr().hw_read(addr),
            fast.msr().hw_read(addr),
            "{what}: register {addr:#x}"
        );
    }
    assert_eq!(reference.actuation(), fast.actuation(), "{what}: actuation");
    assert_eq!(
        reference.package_cap().map(f64::to_bits),
        fast.package_cap().map(f64::to_bits),
        "{what}: package cap"
    );
}

/// Races a node on `backend` against one on `TraitDefaults(backend)`
/// through `rounds` random pokes and `step_until` calls.
fn race<B: MsrBackend + 'static>(make: impl Fn() -> B, seed: u64, rounds: usize) {
    let cfg = NodeConfig {
        cores: 6,
        ..NodeConfig::default()
    };
    cfg.validate();
    let tables = Arc::new(NodeTables::new(&cfg));
    let mut fast = Node::with_msr(
        cfg.clone(),
        MsrDevice::from_backend(Box::new(make())),
        tables.clone(),
    );
    let mut reference = Node::with_msr(
        cfg,
        MsrDevice::from_backend(Box::new(TraitDefaults(make()))),
        tables,
    );
    let mut rng = Mix(seed);
    let mut finished: Vec<usize> = (0..fast.cores()).collect();
    for round in 0..rounds {
        let now = fast.now();
        for &c in &finished {
            let work = random_work(&mut rng, now);
            fast.assign(c, work);
            reference.assign(c, work);
        }
        for _ in 0..below(&mut rng, 3) {
            let op = below(&mut rng, 8);
            let state = rng.next();
            poke(&mut fast, op, &mut Mix(state));
            poke(&mut reference, op, &mut Mix(state));
        }
        let deadline = now + rng.range(0.3e6, 8e6) as Nanos;
        let out = fast.step_until(deadline).clone();
        assert_eq!(&out, reference.step_until(deadline), "round {round}");
        assert_same(&reference, &fast, &format!("seed {seed} round {round}"));
        finished = out.completed.into_iter().chain(out.woke).collect();
    }
}

/// Delayed cap latches over most of the run, so cap writes land inside
/// `step_until` calls through the fault layer too.
fn latch_plan(seed: u64) -> Arc<FaultPlan> {
    let start = (seed % 7) * MS;
    Arc::new(
        FaultPlan::new(seed)
            .delayed_cap_latch(1_300 * US, FaultWindow::new(start, start + 60 * MS))
            .delayed_cap_latch(3_700 * US, FaultWindow::new(90 * MS, 150 * MS)),
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn sim_backend_matches_the_trait_defaults(seed in any::<u64>()) {
        race(|| SimBackend::assemble(&[], &[], Some(latch_plan(seed))), seed, 60);
    }

    #[test]
    fn emulated_backend_matches_the_trait_defaults(seed in any::<u64>()) {
        race(
            || EmulatedBackend::new(
                SimBackend::assemble(&[], &[], Some(latch_plan(seed))),
                2 * MS,
                US,
            ),
            seed,
            60,
        );
    }
}

#[test]
fn cap_writes_are_encoded_exactly_as_power_limit_encode() {
    for seed in 0..16 {
        let mut rng = Mix(seed);
        let window = (1 + below(&mut rng, 60)) * MS;
        let mut node = Node::new(NodeConfig {
            rapl_window: window,
            ..NodeConfig::default()
        });
        for _ in 0..200 {
            if below(&mut rng, 4) == 0 {
                node.msr_mut()
                    .hw_write(MSR_RAPL_POWER_UNIT, random_units(&mut rng));
            }
            let watts = random_cap(&mut rng);
            node.set_package_cap(watts).unwrap();
            let units = RaplUnits::decode(node.msr().hw_read(MSR_RAPL_POWER_UNIT));
            assert_eq!(
                node.msr().hw_read(MSR_PKG_POWER_LIMIT),
                PowerLimit { watts, window }.encode(units),
                "seed {seed}: {watts:?} W over {window} ns"
            );
        }
    }
}

#[test]
fn sim_counting_matches_the_trait_default() {
    let mut rng = Mix(5);
    let mut fast = SimBackend::new();
    let mut reference = TraitDefaults(SimBackend::new());
    for _ in 0..1000 {
        let (e, a, m) = (
            below(&mut rng, 1 << 34),
            below(&mut rng, 1 << 40),
            below(&mut rng, 1 << 40),
        );
        fast.hw_count(e, a, m);
        reference.hw_count(e, a, m);
        for addr in [MSR_PKG_ENERGY_STATUS, IA32_APERF, IA32_MPERF] {
            assert_eq!(fast.hw_read(addr), reference.hw_read(addr), "{addr:#x}");
        }
    }
}

#[test]
fn the_epoch_moves_on_control_stores_only() {
    let mut b = SimBackend::assemble(
        &[],
        &[],
        Some(Arc::new(
            FaultPlan::new(1).delayed_cap_latch(MS, FaultWindow::ALWAYS),
        )),
    );
    let e0 = b.control_epoch().expect("the simulated file tracks stores");
    b.hw_count(7, 7, 7);
    for addr in [MSR_PKG_ENERGY_STATUS, IA32_APERF, IA32_MPERF] {
        b.hw_write(addr, 1);
    }
    b.advance_to(MS);
    assert_eq!(b.control_epoch(), Some(e0), "counters leave it alone");
    b.write(MSR_PKG_POWER_LIMIT, 0xCAFE).unwrap();
    assert_eq!(
        b.control_epoch(),
        Some(e0),
        "a deferred write has not landed"
    );
    b.advance_to(2 * MS);
    let e1 = b.control_epoch().unwrap();
    assert_ne!(e1, e0, "the latch landing moves it");
    b.write(IA32_PERF_CTL, 1).unwrap();
    let e2 = b.control_epoch().unwrap();
    assert_ne!(e2, e1, "a user write moves it");
    b.hw_write(0x1A4, 1);
    assert_ne!(b.control_epoch(), Some(e2), "so does any other register");
    assert_eq!(TraitDefaults(SimBackend::new()).control_epoch(), None);
}
