//! Bit-for-bit pins on the single-node path.
//!
//! The cluster path has golden CSVs; this file does the same for the
//! node itself. Every constant below is an `f64::to_bits()` (or a raw
//! register value) recorded before the node's hot loop was last
//! optimised, so any change to per-core summation order, to the uncore
//! service-rate arithmetic or to the register file shows up here as a
//! changed bit pattern, not as drift inside a tolerance.
//!
//! Beside the outputs, each case pins the node's [`WorkCounts`]: how often
//! each stage of stepping ran. Those counts are deterministic too, so a
//! change to how much work the node does shows up here as a count.
//!
//! A failure lists every mismatching quantity with the bits it produced,
//! so a deliberate model change can re-pin all of them in one pass.

use std::sync::Arc;

use powerprog::prelude::*;
use simnode::hw::{
    BackendKind, PowerLimit, IA32_APERF, IA32_MPERF, MSR_PKG_ENERGY_STATUS, MSR_PKG_POWER_LIMIT,
};
use simnode::thermal::ThermalConfig;
use simnode::WorkCounts;

/// Collects `(name, got, want)` triples and fails once with all of them.
#[derive(Default)]
struct Pins {
    mismatches: Vec<String>,
}

impl Pins {
    fn bits(&mut self, name: &str, got: u64, want: u64) {
        if got != want {
            self.mismatches
                .push(format!("{name}: got {got:#018x}, pinned {want:#018x}"));
        }
    }

    fn f64(&mut self, name: &str, got: f64, want: u64) {
        self.bits(name, got.to_bits(), want);
    }

    /// Pins `[rapl_ticks, capped_ticks, macro_steps, quanta, run_searches,
    /// run_evals, fit_probes, msr_calls]`.
    fn counts(&mut self, name: &str, got: WorkCounts, want: [u64; 8]) {
        let got = [
            got.rapl_ticks,
            got.capped_ticks,
            got.macro_steps,
            got.quanta,
            got.run_searches,
            got.run_evals,
            got.fit_probes,
            got.msr_calls,
        ];
        if got != want {
            self.mismatches
                .push(format!("{name} work counts: got {got:?}, pinned {want:?}"));
        }
    }

    fn finish(self) {
        assert!(
            self.mismatches.is_empty(),
            "{} pinned value(s) changed:\n{}",
            self.mismatches.len(),
            self.mismatches.join("\n")
        );
    }
}

/// `[total_energy_j, steady_rate, instructions, cycles, l3_misses]`, then
/// the node's work counts (see [`Pins::counts`]).
fn pin_run(pins: &mut Pins, name: &str, cfg: &RunConfig, want: [u64; 5], counts: [u64; 8]) {
    let run = run_app(cfg);
    pins.counts(name, run.record.node_work, counts);
    pins.f64(&format!("{name} energy"), run.total_energy_j, want[0]);
    pins.f64(&format!("{name} steady_rate"), run.steady_rate(), want[1]);
    pins.f64(
        &format!("{name} instructions"),
        run.counters.instructions,
        want[2],
    );
    pins.f64(&format!("{name} cycles"), run.counters.cycles, want[3]);
    pins.f64(
        &format!("{name} l3_misses"),
        run.counters.l3_misses,
        want[4],
    );
}

#[test]
fn run_app_outputs_are_pinned_bit_for_bit() {
    let mut pins = Pins::default();
    pin_run(
        &mut pins,
        "lammps uncapped",
        &RunConfig::new(AppId::Lammps, 3 * SEC),
        [
            0x407bbaea337eb2a7,
            0x4090d3f707dc78ca,
            0x42487526362ae3e0,
            0x424b8c8efbe34eb1,
            0x4190074e893e6ef4,
        ],
        [2999, 0, 3030, 259, 164, 3030, 0, 13181],
    );
    pin_run(
        &mut pins,
        "stream 80 W",
        &RunConfig::new(AppId::Stream, 3 * SEC).with_schedule(ScheduleSpec::Constant(80.0)),
        [
            0x407182981789bfc0,
            0x4024efc28a9a77e1,
            0x422c308227fc44c5,
            0x4246013777880872,
            0x41e6f51fdc920c9a,
        ],
        [2999, 2000, 3059, 307, 247, 3059, 8117, 13489],
    );
    pin_run(
        &mut pins,
        "amg jagged",
        &RunConfig::new(AppId::Amg, 4 * SEC).with_schedule(ScheduleSpec::Jagged {
            high_w: 150.0,
            low_w: 60.0,
            decay: 2 * SEC,
        }),
        [
            0x407f5b4310270412,
            0x4004162cf63ef5a3,
            0x42406e0ada53a2cc,
            0x4251867cfc364cc6,
            0x41e17f9b5126a635,
        ],
        [3999, 3000, 4003, 27, 18, 4003, 9047, 16153],
    );
    pin_run(
        &mut pins,
        "lammps emulated 90 W",
        &RunConfig::new(AppId::Lammps, 3 * SEC)
            .with_schedule(ScheduleSpec::Constant(90.0))
            .with_backend(BackendKind::emulated()),
        [
            0x40747ece45793055,
            0x408ce91bdab2cb1a,
            0x42450a201df63897,
            0x4247afb20e7ecff1,
            0x418b93b3cdd09ba2,
        ],
        [2999, 1998, 3034, 226, 146, 3034, 8531, 13065],
    );
    pins.finish();
}

/// A packet of `ms` milliseconds at fmax with `misses` L3 misses.
fn packet(ms: f64, misses: f64, mlp: f64) -> CoreWork {
    let cycles = 3.3e9 * ms / 1e3;
    CoreWork::Compute(
        WorkPacket {
            cycles,
            misses,
            instructions: cycles * 1.7,
            mlp,
            mem_weight: mlp,
        }
        .into(),
    )
}

/// Refill core `c` the way a runtime would: compute cores get a fresh
/// packet, sleepers go back to sleep.
fn refill(node: &mut Node, c: usize, round: u64) {
    let now = node.now();
    let work = match c % 4 {
        0 => packet(2.0 + (round % 5) as f64, 0.0, 1.0),
        1 => packet(1.5, 4.0e4 + 1.0e3 * (round % 7) as f64, 1.0),
        2 => packet(0.7, 2.0e4, 0.3),
        _ => CoreWork::Sleep {
            until: now + 3 * MS + (round % 3) * 250 * US,
        },
    };
    node.assign(c, work);
}

#[test]
fn direct_node_run_is_pinned_bit_for_bit() {
    let cfg = NodeConfig {
        thermal: Some(ThermalConfig::default()),
        ..NodeConfig::default()
    };
    let mut node = Node::new(cfg);
    node.set_package_cap(Some(95.0)).unwrap();
    // Cores 0..16 cycle through compute (compute-bound, streaming,
    // latency-bound) and sleep; 16..20 spin; the rest stay idle.
    for c in 0..16 {
        refill(&mut node, c, 0);
    }
    for c in 16..20 {
        node.assign(c, CoreWork::Spin);
    }
    let mut round = 0u64;
    let end = 400 * MS;
    while node.now() < end {
        if node.now() >= 200 * MS && node.package_cap() == Some(95.0) {
            node.set_package_cap(Some(70.0)).unwrap();
        }
        let deadline = (node.now() + 7 * MS).min(end);
        let out = node.step_until(deadline).clone();
        round += 1;
        for c in out.completed.into_iter().chain(out.woke) {
            refill(&mut node, c, round);
        }
    }

    let mut pins = Pins::default();
    pins.bits("now", node.now(), 0x17d78400);
    pins.f64("energy", node.total_energy(), 0x403fea13f1325fc6);
    pins.f64(
        "instructions",
        node.counters().instructions,
        0x421babd8b54d84dc,
    );
    pins.f64("cycles", node.counters().cycles, 0x4211392233df86ae);
    pins.f64("l3_misses", node.counters().l3_misses, 0x418c859d318d21fd);
    pins.f64(
        "temperature",
        node.temperature_c().unwrap(),
        0x4044951e0e26926b,
    );
    pins.bits(
        "IA32_APERF",
        node.msr().hw_read(IA32_APERF),
        0x0000_0004_4e48_8cf2,
    );
    pins.bits(
        "IA32_MPERF",
        node.msr().hw_read(IA32_MPERF),
        0x0000_0004_dcb8_a300,
    );
    pins.bits(
        "MSR_PKG_ENERGY_STATUS",
        node.msr().hw_read(MSR_PKG_ENERGY_STATUS),
        0x7_faa7,
    );
    pins.counts(
        "direct",
        node.work_counts(),
        [399, 399, 612, 1303, 1247, 11016, 1558, 8320],
    );
    pins.finish();
}

/// FNV-1a over 64-bit words.
fn fnv1a_fold(mut h: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

#[test]
fn blocked_node_run_is_pinned_bit_for_bit() {
    // The runtime's SPMD shape: adjacent cores hold bit-identical work.
    // Cores 0..8 and 8..16 are two blocks on different packets, 16..20
    // sleep to one wake time, 20..22 spin and 22..24 stay idle. Every few
    // rounds one core of the first block is refilled mid-flight with a
    // different packet (splitting the block), and the whole block is
    // refilled at once when its bulk completes (rejoining it).
    let mut node = Node::new(NodeConfig::default());
    let block_a = |round: u64| packet(3.0 + (round % 4) as f64, 2.0e3, 1.0);
    let block_b = |round: u64| packet(1.2, 3.0e4 + 2.0e3 * (round % 5) as f64, 0.8);
    let odd = |round: u64| packet(0.9 + 0.1 * (round % 3) as f64, 1.0e4, 0.5);
    let nap = |now: Nanos, round: u64| CoreWork::Sleep {
        until: now + 2 * MS + (round % 4) * 300 * US,
    };
    node.set_package_cap(Some(80.0)).unwrap();
    for c in 0..8 {
        node.assign(c, block_a(0));
    }
    for c in 8..16 {
        node.assign(c, block_b(0));
    }
    for c in 16..20 {
        node.assign(c, nap(0, 0));
    }
    for c in 20..22 {
        node.assign(c, CoreWork::Spin);
    }

    let units = node.msr().units();
    // Folds the time and cores of every completion and wake, so their
    // order is pinned as well as the totals.
    let mut order = 0xcbf2_9ce4_8422_2325u64;
    let mut round = 0u64;
    let end = 300 * MS;
    while node.now() < end {
        let now = node.now();
        if round % 9 == 4 {
            node.assign(3, odd(round));
        }
        if now >= 100 * MS && node.package_cap() == Some(80.0) {
            node.set_package_cap(Some(110.0)).unwrap();
        }
        // A longer averaging window moves the RAPL window start earlier;
        // the shorter one later restores it.
        if round == 30 || round == 60 {
            let window = if round == 30 { 35 * MS } else { 10 * MS };
            let raw = PowerLimit {
                watts: node.package_cap(),
                window,
            }
            .encode(units);
            node.msr_mut().write(MSR_PKG_POWER_LIMIT, raw).unwrap();
        }
        let deadline = (now + 5 * MS).min(end);
        let out = node.step_until(deadline).clone();
        round += 1;
        if !out.is_empty() {
            order = fnv1a_fold(order, node.now());
        }
        for &c in &out.completed {
            order = fnv1a_fold(order, c as u64);
        }
        for &c in &out.woke {
            order = fnv1a_fold(order, 0x100 | c as u64);
        }
        let now = node.now();
        if out.completed.contains(&0) {
            for c in 0..8 {
                node.assign(c, block_a(round));
            }
        } else if out.completed.contains(&3) {
            node.assign(3, odd(round));
        }
        if out.completed.iter().any(|c| (8..16).contains(c)) {
            for c in 8..16 {
                node.assign(c, block_b(round));
            }
        }
        if !out.woke.is_empty() {
            for c in 16..20 {
                node.assign(c, nap(now, round));
            }
        }
    }

    let mut pins = Pins::default();
    pins.bits("now", node.now(), 0x11e1a300);
    pins.bits("event order", order, 0xf7816d69e9a241a0);
    pins.f64("energy", node.total_energy(), 0x403dd887f14c57df);
    pins.f64(
        "avg power 10 ms",
        node.average_power(10 * MS),
        0x405b576b7ad659d6,
    );
    pins.f64(
        "instructions",
        node.counters().instructions,
        0x42179c4631366732,
    );
    pins.f64("cycles", node.counters().cycles, 0x420e8379edaf4aed);
    pins.f64("l3_misses", node.counters().l3_misses, 0x418689aa136ab993);
    pins.bits(
        "IA32_APERF",
        node.msr().hw_read(IA32_APERF),
        0x0000_0003_d06f_3db8,
    );
    pins.bits(
        "IA32_MPERF",
        node.msr().hw_read(IA32_MPERF),
        0x0000_0004_1432_889c,
    );
    pins.bits(
        "MSR_PKG_ENERGY_STATUS",
        node.msr().hw_read(MSR_PKG_ENERGY_STATUS),
        0x7_74da,
    );
    pins.counts(
        "blocked",
        node.work_counts(),
        [299, 299, 455, 662, 669, 2643, 1082, 5049],
    );
    pins.finish();
}

#[test]
fn latched_cap_node_run_is_pinned_bit_for_bit() {
    // The node's RAPL register decode under writes that land late: the
    // emulated backend latches every user write 2 ms after it returns,
    // and a delayed-latch fault window holds cap writes back further.
    // The cap and the averaging window change every few rounds, so raw
    // PKG_POWER_LIMIT changes land in the middle of `step_until` calls,
    // between RAPL ticks, while blocks of identical cores macro-step.
    let plan =
        FaultPlan::new(17).delayed_cap_latch(3_700 * US, FaultWindow::new(70 * MS, 190 * MS));
    let mut node = Node::new(NodeConfig {
        backend: BackendKind::emulated(),
        faults: Some(Arc::new(plan)),
        ..NodeConfig::default()
    });
    let block_a = |round: u64| packet(2.5 + (round % 3) as f64, 5.0e3, 0.9);
    let block_b = |round: u64| packet(1.4, 2.5e4 + 1.5e3 * (round % 4) as f64, 0.6);
    let nap = |now: Nanos, round: u64| CoreWork::Sleep {
        until: now + 1_700 * US + (round % 3) * 400 * US,
    };
    for c in 0..10 {
        node.assign(c, block_a(0));
    }
    for c in 10..18 {
        node.assign(c, block_b(0));
    }
    for c in 18..22 {
        node.assign(c, nap(0, 0));
    }
    node.assign(22, CoreWork::Spin);

    let units = node.msr().units();
    let caps = [Some(85.0), Some(60.0), None, Some(120.0), Some(70.0)];
    let windows = [10 * MS, 35 * MS, 4 * MS, 20 * MS];
    let mut order = 0xcbf2_9ce4_8422_2325u64;
    let mut round = 0u64;
    let end = 300 * MS;
    while node.now() < end {
        let now = node.now();
        if round % 5 == 2 {
            let raw = PowerLimit {
                watts: caps[(round / 5) as usize % caps.len()],
                window: windows[(round / 7) as usize % windows.len()],
            }
            .encode(units);
            node.msr_mut().write(MSR_PKG_POWER_LIMIT, raw).unwrap();
        }
        let deadline = (now + 6 * MS).min(end);
        let out = node.step_until(deadline).clone();
        round += 1;
        if !out.is_empty() {
            order = fnv1a_fold(order, node.now());
        }
        for &c in &out.completed {
            order = fnv1a_fold(order, c as u64);
        }
        for &c in &out.woke {
            order = fnv1a_fold(order, 0x100 | c as u64);
        }
        let now = node.now();
        if out.completed.iter().any(|c| (0..10).contains(c)) {
            for c in 0..10 {
                node.assign(c, block_a(round));
            }
        }
        if out.completed.iter().any(|c| (10..18).contains(c)) {
            for c in 10..18 {
                node.assign(c, block_b(round));
            }
        }
        if !out.woke.is_empty() {
            for c in 18..22 {
                node.assign(c, nap(now, round));
            }
        }
    }

    let mut pins = Pins::default();
    pins.bits("now", node.now(), 0x11e1a300);
    pins.bits("event order", order, 0xc2fe983d8d5df7d0);
    pins.f64("energy", node.total_energy(), 0x4039396ccbdad46e);
    pins.f64(
        "avg power 10 ms",
        node.average_power(10 * MS),
        0x405aad60cf829d79,
    );
    pins.f64(
        "instructions",
        node.counters().instructions,
        0x4215c6077af8848d,
    );
    pins.f64("cycles", node.counters().cycles, 0x420cbfbd4b9db7e8);
    pins.f64("l3_misses", node.counters().l3_misses, 0x417dc11377fdcc7b);
    pins.bits(
        "IA32_APERF",
        node.msr().hw_read(IA32_APERF),
        0x0000_0003_97f7_a970,
    );
    pins.bits(
        "IA32_MPERF",
        node.msr().hw_read(IA32_MPERF),
        0x0000_0004_506a_993e,
    );
    pins.bits(
        "MSR_PKG_ENERGY_STATUS",
        node.msr().hw_read(MSR_PKG_ENERGY_STATUS),
        0x6_4f28,
    );
    pins.bits(
        "MSR_PKG_POWER_LIMIT",
        node.msr().hw_read(MSR_PKG_POWER_LIMIT),
        0x5_8230,
    );
    pins.counts(
        "latched",
        node.work_counts(),
        [299, 225, 456, 489, 504, 2280, 946, 4103],
    );
    pins.finish();
}
