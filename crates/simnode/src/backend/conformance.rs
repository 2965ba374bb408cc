//! Backend conformance suite + the Sim-vs-old-path differential test.
//!
//! Two layers of pinning:
//!
//! 1. **Conformance** — every in-tree simulated backend tier must agree
//!    on the `msr-safe` contract: allow-list enforcement, RAPL
//!    time-window encode/decode round-trips through the device, 32-bit
//!    energy-counter wrap, and fault-layer pass-through. The emulated
//!    tier runs these with its latch queue engaged, so the suite also
//!    proves latching preserves the contract (writes still land, just
//!    later).
//! 2. **Differential** — [`SimBackend`] must be *bit-identical* to the
//!    pre-refactor `MsrDevice`. `ReferenceDevice` below is a frozen
//!    copy of the old implementation; a proptest drives both through
//!    random op sequences (user + hw access, clock advances, faults)
//!    and demands identical results and identical register files at
//!    every step.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;

use crate::backend::BackendKind;
use crate::faults::{FaultLayer, FaultPlan, FaultWindow};
use crate::msr::{
    MsrDevice, MsrError, Permission, PowerLimit, RaplUnits, IA32_APERF, IA32_CLOCK_MODULATION,
    IA32_MPERF, IA32_PERF_CTL, MSR_PKG_ENERGY_STATUS, MSR_PKG_POWER_LIMIT, MSR_RAPL_POWER_UNIT,
};
use crate::time::{Nanos, MS, SEC, US};

/// Every simulated backend tier, with an optional shared fault plan.
fn tiers(faults: Option<FaultPlan>) -> Vec<(&'static str, MsrDevice)> {
    let kinds: [(&'static str, BackendKind); 3] = [
        ("sim", BackendKind::Sim),
        (
            "emulated-instant",
            BackendKind::Emulated {
                write_latency: 0,
                access_cost: 0,
            },
        ),
        ("emulated-latched", BackendKind::emulated()),
    ];
    kinds
        .into_iter()
        .map(|(name, kind)| {
            let d = MsrDevice::builder()
                .backend(kind)
                .maybe_faults(faults.clone().map(Arc::new))
                .build()
                .expect("simulated tiers always build");
            (name, d)
        })
        .collect()
}

/// Advance far enough that any pending latch or deferred write applied.
fn settle(d: &mut MsrDevice, from: Nanos) -> Nanos {
    let settled = from + SEC;
    d.advance_to(settled);
    settled
}

#[test]
fn conformance_allowlist_enforcement() {
    for (name, mut d) in tiers(None) {
        assert_eq!(
            d.write(MSR_PKG_ENERGY_STATUS, 1),
            Err(MsrError::NotAllowed(MSR_PKG_ENERGY_STATUS)),
            "{name}: energy counter must be read-only"
        );
        assert_eq!(
            d.write(MSR_RAPL_POWER_UNIT, 1),
            Err(MsrError::NotAllowed(MSR_RAPL_POWER_UNIT)),
            "{name}: units must be read-only"
        );
        assert_eq!(
            d.read(0xDEAD),
            Err(MsrError::Unknown(0xDEAD)),
            "{name}: unknown register reads"
        );
        assert_eq!(
            d.write(0xDEAD, 1),
            Err(MsrError::Unknown(0xDEAD)),
            "{name}: unknown register writes"
        );
        for addr in [IA32_PERF_CTL, IA32_CLOCK_MODULATION, MSR_PKG_POWER_LIMIT] {
            assert_eq!(d.write(addr, 0), Ok(()), "{name}: {addr:#x} writable");
        }
        for addr in [IA32_APERF, IA32_MPERF, MSR_PKG_ENERGY_STATUS] {
            assert!(d.read(addr).is_ok(), "{name}: {addr:#x} readable");
        }
    }
}

#[test]
fn conformance_energy_counter_wraps_at_32_bits() {
    for (name, mut d) in tiers(None) {
        d.hw_write(MSR_PKG_ENERGY_STATUS, 0xFFFF_FFFE);
        d.hw_count(5, 0, 0);
        assert_eq!(d.hw_read(MSR_PKG_ENERGY_STATUS), 3, "{name}: wrap");
    }
}

#[test]
fn conformance_fault_layer_passes_through() {
    let plan = || {
        FaultPlan::new(9)
            .read_error(MSR_PKG_ENERGY_STATUS, 1.0, FaultWindow::new(MS, 2 * MS))
            .write_error(MSR_PKG_POWER_LIMIT, 1.0, FaultWindow::new(MS, 2 * MS))
    };
    for (name, mut d) in tiers(Some(plan())) {
        assert!(d.read(MSR_PKG_ENERGY_STATUS).is_ok(), "{name}: pre-window");
        assert!(
            d.write(MSR_PKG_POWER_LIMIT, 1).is_ok(),
            "{name}: pre-window"
        );
        d.advance_to(MS);
        assert_eq!(
            d.read(MSR_PKG_ENERGY_STATUS),
            Err(MsrError::Io(MSR_PKG_ENERGY_STATUS)),
            "{name}: read fault surfaces as Io"
        );
        assert_eq!(
            d.write(MSR_PKG_POWER_LIMIT, 2),
            Err(MsrError::Io(MSR_PKG_POWER_LIMIT)),
            "{name}: write fault surfaces as Io"
        );
        d.advance_to(2 * MS);
        assert!(d.read(MSR_PKG_ENERGY_STATUS).is_ok(), "{name}: post-window");
        let stats = d.fault_stats().expect("plan installed");
        assert_eq!(
            (stats.reads_failed(), stats.writes_failed()),
            (1, 1),
            "{name}: stats count through the stack"
        );
    }
}

#[test]
fn conformance_capabilities() {
    for (name, d) in tiers(None) {
        let caps = d.capabilities();
        assert!(caps.power_limit && caps.energy_status, "{name}");
        assert!(caps.perf_ctl && caps.clock_modulation, "{name}");
        assert!(caps.aperf_mperf && caps.fault_injection, "{name}");
        assert_eq!(caps.latched_writes, name == "emulated-latched", "{name}");
    }
}

proptest! {
    /// A cap programmed through any tier's user-space write decodes back
    /// (after settling) to the same quantized watts/window the encoding
    /// promises.
    #[test]
    fn conformance_time_window_roundtrip(
        watts in 1.0f64..4000.0,
        window_ms in 1u64..1000,
    ) {
        for (name, mut d) in tiers(None) {
            let units = d.units();
            let pl = PowerLimit { watts: Some(watts), window: window_ms * MS };
            d.write(MSR_PKG_POWER_LIMIT, pl.encode(units)).unwrap();
            settle(&mut d, 0);
            let back = PowerLimit::decode(d.hw_read(MSR_PKG_POWER_LIMIT), units);
            let got = back.watts.expect("enable bit survives the backend");
            prop_assert!(
                (got - watts).abs() <= units.power_w / 2.0 + 1e-9,
                "{name}: watts {got} vs {watts}"
            );
            let ratio = back.window as f64 / (window_ms * MS) as f64;
            prop_assert!((0.75..=1.25).contains(&ratio), "{name}: window ratio {ratio}");
        }
    }
}

// ---------------------------------------------------------------------
// Differential: SimBackend vs the frozen pre-refactor implementation.
// ---------------------------------------------------------------------

/// The pre-refactor `MsrDevice`, copied verbatim (modulo the rename) from
/// the seed's `simnode::msr` so the port has a fixed reference to agree
/// with. Do not "improve" this code: its whole value is being frozen.
#[derive(Debug, Clone)]
struct ReferenceDevice {
    regs: HashMap<u32, u64>,
    allowlist: HashMap<u32, Permission>,
    now: Nanos,
    faults: Option<FaultLayer>,
}

impl ReferenceDevice {
    fn new() -> Self {
        let mut allowlist = HashMap::new();
        allowlist.insert(MSR_RAPL_POWER_UNIT, Permission::RO);
        allowlist.insert(MSR_PKG_POWER_LIMIT, Permission::RW);
        allowlist.insert(MSR_PKG_ENERGY_STATUS, Permission::RO);
        allowlist.insert(IA32_PERF_CTL, Permission::RW);
        allowlist.insert(IA32_CLOCK_MODULATION, Permission::RW);
        allowlist.insert(IA32_MPERF, Permission::RO);
        allowlist.insert(IA32_APERF, Permission::RO);

        let mut regs = HashMap::new();
        regs.insert(MSR_RAPL_POWER_UNIT, RaplUnits::SKYLAKE_RAW);
        regs.insert(MSR_PKG_POWER_LIMIT, 0);
        regs.insert(MSR_PKG_ENERGY_STATUS, 0);
        regs.insert(IA32_PERF_CTL, 0);
        regs.insert(IA32_CLOCK_MODULATION, 0);
        regs.insert(IA32_MPERF, 0);
        regs.insert(IA32_APERF, 0);
        Self {
            regs,
            allowlist,
            now: 0,
            faults: None,
        }
    }

    fn install_faults(&mut self, plan: impl Into<Arc<FaultPlan>>) {
        self.faults = Some(FaultLayer::new(plan));
    }

    fn advance_to(&mut self, now: Nanos) {
        self.now = now;
        if let Some(fl) = &mut self.faults {
            let energy = *self.regs.get(&MSR_PKG_ENERGY_STATUS).unwrap_or(&0);
            let (jump_to, latched) = fl.advance_to(now, energy);
            if let Some(v) = jump_to {
                self.regs.insert(MSR_PKG_ENERGY_STATUS, v & 0xFFFF_FFFF);
            }
            if let Some(raw) = latched {
                self.regs.insert(MSR_PKG_POWER_LIMIT, raw);
            }
        }
    }

    fn read(&self, addr: u32) -> Result<u64, MsrError> {
        match self.allowlist.get(&addr) {
            None => Err(MsrError::Unknown(addr)),
            Some(p) if !p.read => Err(MsrError::NotAllowed(addr)),
            Some(_) => {
                if let Some(fl) = &self.faults {
                    if fl.read_fails(self.now, addr) {
                        return Err(MsrError::Io(addr));
                    }
                    if addr == MSR_PKG_ENERGY_STATUS {
                        if let Some(frozen) = fl.stuck_energy(self.now) {
                            return Ok(frozen);
                        }
                    }
                }
                Ok(*self.regs.get(&addr).unwrap_or(&0))
            }
        }
    }

    fn write(&mut self, addr: u32, value: u64) -> Result<(), MsrError> {
        match self.allowlist.get(&addr) {
            None => Err(MsrError::Unknown(addr)),
            Some(p) if !p.write => Err(MsrError::NotAllowed(addr)),
            Some(_) => {
                if let Some(fl) = &mut self.faults {
                    if fl.write_fails(self.now, addr) {
                        return Err(MsrError::Io(addr));
                    }
                    if addr == MSR_PKG_POWER_LIMIT && fl.defer_cap_write(self.now, value) {
                        return Ok(());
                    }
                }
                self.regs.insert(addr, value);
                Ok(())
            }
        }
    }

    fn hw_read(&self, addr: u32) -> u64 {
        *self.regs.get(&addr).unwrap_or(&0)
    }

    fn hw_write(&mut self, addr: u32, value: u64) {
        self.regs.insert(addr, value);
    }

    fn hw_add_energy_ticks(&mut self, ticks: u64) {
        let cur = self.hw_read(MSR_PKG_ENERGY_STATUS);
        self.hw_write(MSR_PKG_ENERGY_STATUS, (cur + ticks) & 0xFFFF_FFFF);
    }
}

/// One step of the differential op sequence.
#[derive(Debug, Clone, Copy)]
enum Op {
    Read(u32),
    Write(u32, u64),
    HwWrite(u32, u64),
    AddEnergyTicks(u64),
    Advance(Nanos),
}

const ADDRS: [u32; 8] = [
    MSR_RAPL_POWER_UNIT,
    MSR_PKG_POWER_LIMIT,
    MSR_PKG_ENERGY_STATUS,
    IA32_PERF_CTL,
    IA32_CLOCK_MODULATION,
    IA32_MPERF,
    IA32_APERF,
    0xDEAD, // deliberately outside the allow-list
];

fn op_strategy() -> impl Strategy<Value = Op> {
    let addr = (0usize..ADDRS.len()).prop_map(|i| ADDRS[i]);
    prop_oneof![
        addr.clone().prop_map(Op::Read),
        (addr.clone(), any::<u64>()).prop_map(|(a, v)| Op::Write(a, v)),
        (addr, any::<u64>()).prop_map(|(a, v)| Op::HwWrite(a, v)),
        (0u64..0x2_0000_0000).prop_map(Op::AddEnergyTicks),
        (1u64..20).prop_map(|k| Op::Advance(k * 500 * US)),
    ]
}

/// A fault plan exercising every fault family over the op timeline.
fn diff_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .read_error(
            MSR_PKG_ENERGY_STATUS,
            0.5,
            FaultWindow::new(2 * MS, 12 * MS),
        )
        .write_error(MSR_PKG_POWER_LIMIT, 0.5, FaultWindow::new(5 * MS, 15 * MS))
        .stuck_energy(FaultWindow::new(20 * MS, 30 * MS))
        .delayed_cap_latch(3 * MS, FaultWindow::new(35 * MS, 60 * MS))
}

proptest! {
    /// Bit-identity of the ported register file: identical results for
    /// every op and identical register state after every op, with and
    /// without an active fault plan.
    #[test]
    fn sim_backend_is_bit_identical_to_the_old_path(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        seed in 1u64..64,
        faulted in any::<bool>(),
    ) {
        let mut reference = ReferenceDevice::new();
        let mut ported = MsrDevice::builder().build().unwrap();
        if faulted {
            // The same Arc'd plan: the two fault layers then run the
            // same SplitMix64 stream from the same seed.
            let plan = Arc::new(diff_plan(seed));
            reference.install_faults(plan.clone());
            ported = MsrDevice::builder().faults(plan).build().unwrap();
        }
        let mut clock: Nanos = 0;
        for op in ops {
            match op {
                Op::Read(a) => prop_assert_eq!(reference.read(a), ported.read(a)),
                Op::Write(a, v) => prop_assert_eq!(reference.write(a, v), ported.write(a, v)),
                Op::HwWrite(a, v) => {
                    reference.hw_write(a, v);
                    ported.hw_write(a, v);
                }
                Op::AddEnergyTicks(t) => {
                    reference.hw_add_energy_ticks(t);
                    ported.hw_count(t, 0, 0);
                }
                Op::Advance(dt) => {
                    clock += dt;
                    reference.advance_to(clock);
                    ported.advance_to(clock);
                }
            }
            for a in ADDRS {
                prop_assert_eq!(
                    reference.hw_read(a),
                    ported.hw_read(a),
                    "register {:#x} diverged after {:?}",
                    a,
                    op
                );
            }
        }
    }
}
