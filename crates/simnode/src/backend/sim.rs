//! The closed-form simulated register file — the seed `MsrDevice`
//! behaviour behind [`MsrBackend`].
//!
//! Every access path here is bit-identical to the pre-trait device: the
//! conformance suite pins it against a frozen copy of the old
//! implementation, and `crates/core/tests/golden.rs` diffs the seeded
//! `repro all --quick` CSVs against the golden ones in
//! `tests/golden/all_quick`.

use std::sync::Arc;

use crate::backend::{default_permission, Capabilities, MsrBackend};
use crate::faults::{FaultLayer, FaultPlan, FaultStats};
use crate::msr::{
    MsrError, Permission, RaplUnits, IA32_APERF, IA32_CLOCK_MODULATION, IA32_MPERF, IA32_PERF_CTL,
    MSR_PKG_ENERGY_STATUS, MSR_PKG_POWER_LIMIT, MSR_RAPL_POWER_UNIT,
};
use crate::time::Nanos;

/// One register-file entry: the register's value and, when it is on the
/// allow-list, its user-space permission. A register only ever touched
/// through `hw_write` has a value but no permission, so user-space
/// accesses to it fail with [`MsrError::Unknown`].
#[derive(Debug, Clone, Copy)]
struct Reg {
    addr: u32,
    value: u64,
    perm: Option<Permission>,
}

/// The seven architected registers, in their fixed slots at the front of
/// [`SimBackend`]'s table. The three silicon-owned counters come first.
const ARCHITECTED: [u32; 7] = [
    MSR_PKG_ENERGY_STATUS,
    IA32_APERF,
    IA32_MPERF,
    MSR_RAPL_POWER_UNIT,
    MSR_PKG_POWER_LIMIT,
    IA32_PERF_CTL,
    IA32_CLOCK_MODULATION,
];
/// Slots of the counters [`MsrBackend::hw_count`] adds to.
const ENERGY: usize = 0;
const APERF: usize = 1;
const MPERF: usize = 2;
/// Slot of `MSR_PKG_POWER_LIMIT`, which a deferred cap write latches into.
const POWER_LIMIT: usize = 4;

/// Fixed slot of an architected register.
fn architected_slot(addr: u32) -> Option<usize> {
    match addr {
        MSR_PKG_ENERGY_STATUS => Some(ENERGY),
        IA32_APERF => Some(APERF),
        IA32_MPERF => Some(MPERF),
        MSR_RAPL_POWER_UNIT => Some(3),
        MSR_PKG_POWER_LIMIT => Some(POWER_LIMIT),
        IA32_PERF_CTL => Some(5),
        IA32_CLOCK_MODULATION => Some(6),
        _ => None,
    }
}

/// The simulated MSR register file (allow-list + registers + optional
/// fault layer).
#[derive(Debug, Clone)]
pub struct SimBackend {
    /// Registers and allow-list in one table: the seven architected
    /// registers at fixed slots (see [`ARCHITECTED`]), then any address a
    /// builder or `hw_write` added, found by a linear scan.
    regs: Vec<Reg>,
    /// Simulated time of the device, advanced by `advance_to`; only
    /// consulted by the fault layer.
    now: Nanos,
    /// Optional fault-injection layer ([`crate::faults`]). `None` (the
    /// default) leaves every access path untouched.
    faults: Option<FaultLayer>,
    /// Stores to registers other than the counters (see
    /// [`MsrBackend::control_epoch`]).
    epoch: u64,
}

impl SimBackend {
    /// A register file with the default RAPL/DVFS allow-list and
    /// power-on values.
    pub fn new() -> Self {
        let regs = ARCHITECTED
            .into_iter()
            .map(|addr| Reg {
                addr,
                value: if addr == MSR_RAPL_POWER_UNIT {
                    RaplUnits::SKYLAKE_RAW
                } else {
                    0
                },
                perm: Some(default_permission(addr).expect("default set")),
            })
            .collect();
        Self {
            regs,
            now: 0,
            faults: None,
            epoch: 0,
        }
    }

    fn slot(&self, addr: u32) -> Option<usize> {
        architected_slot(addr).or_else(|| {
            self.regs[ARCHITECTED.len()..]
                .iter()
                .position(|r| r.addr == addr)
                .map(|i| ARCHITECTED.len() + i)
        })
    }

    fn reg(&self, addr: u32) -> Option<&Reg> {
        self.slot(addr).map(|i| &self.regs[i])
    }

    /// The entry for `addr`, appended (value 0, not allow-listed) if the
    /// file has none yet.
    fn reg_mut(&mut self, addr: u32) -> &mut Reg {
        let i = self.slot(addr).unwrap_or_else(|| {
            self.regs.push(Reg {
                addr,
                value: 0,
                perm: None,
            });
            self.regs.len() - 1
        });
        &mut self.regs[i]
    }

    fn perm(&self, addr: u32) -> Option<Permission> {
        self.reg(addr).and_then(|r| r.perm)
    }

    /// Builder back end: the default file with allow-list overrides,
    /// register pokes, and an optional fault plan applied before the
    /// device is handed out.
    pub(crate) fn assemble(
        allow: &[(u32, Permission)],
        regs: &[(u32, u64)],
        faults: Option<Arc<FaultPlan>>,
    ) -> Self {
        let mut s = Self::new();
        for &(addr, perm) in allow {
            s.reg_mut(addr).perm = Some(perm);
        }
        for &(addr, value) in regs {
            s.hw_write(addr, value);
        }
        s.faults = faults.map(FaultLayer::new);
        s
    }

    /// Allow-list + fault-layer front half of a user write. `Ok(true)`
    /// means the caller should store the value; `Ok(false)` means the
    /// fault layer swallowed it (a deferred cap latch that will fire via
    /// [`MsrBackend::advance_to`]). Shared with [`super::EmulatedBackend`],
    /// whose bus engine stores through its own latch queue.
    pub(crate) fn user_write_gate(&mut self, addr: u32, value: u64) -> Result<bool, MsrError> {
        match self.perm(addr) {
            None => Err(MsrError::Unknown(addr)),
            Some(p) if !p.write => Err(MsrError::NotAllowed(addr)),
            Some(_) => {
                if let Some(fl) = &mut self.faults {
                    if fl.write_fails(self.now, addr) {
                        return Err(MsrError::Io(addr));
                    }
                    if addr == MSR_PKG_POWER_LIMIT && fl.defer_cap_write(self.now, value) {
                        // Reported as success: the sneaky failure mode that
                        // only read-back verification catches.
                        return Ok(false);
                    }
                }
                Ok(true)
            }
        }
    }
}

impl Default for SimBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl MsrBackend for SimBackend {
    fn read(&self, addr: u32) -> Result<u64, MsrError> {
        match self.perm(addr) {
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
                Ok(self.hw_read(addr))
            }
        }
    }

    fn write(&mut self, addr: u32, value: u64) -> Result<(), MsrError> {
        if self.user_write_gate(addr, value)? {
            self.hw_write(addr, value);
        }
        Ok(())
    }

    fn advance_to(&mut self, now: Nanos) {
        self.now = now;
        if let Some(fl) = &mut self.faults {
            // Slot access, not `hw_read`: `fl` borrows `self.faults`.
            let (jump_to, latched) = fl.advance_to(now, self.regs[ENERGY].value);
            if let Some(v) = jump_to {
                self.regs[ENERGY].value = v & 0xFFFF_FFFF;
            }
            if let Some(raw) = latched {
                self.regs[POWER_LIMIT].value = raw;
                self.epoch += 1;
            }
        }
    }

    fn next_event_hint(&self, now: Nanos) -> Option<Nanos> {
        self.faults
            .as_ref()
            .and_then(|fl| fl.next_boundary_after(now))
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::full_sim()
    }

    fn hw_read(&self, addr: u32) -> u64 {
        self.reg(addr).map_or(0, |r| r.value)
    }

    fn hw_write(&mut self, addr: u32, value: u64) {
        if !matches!(addr, MSR_PKG_ENERGY_STATUS | IA32_APERF | IA32_MPERF) {
            self.epoch += 1;
        }
        self.reg_mut(addr).value = value;
    }

    fn hw_count(&mut self, energy_ticks: u64, aperf: u64, mperf: u64) {
        let energy = &mut self.regs[ENERGY].value;
        *energy = (*energy + energy_ticks) & 0xFFFF_FFFF;
        self.regs[APERF].value += aperf;
        self.regs[MPERF].value += mperf;
    }

    fn control_epoch(&self) -> Option<u64> {
        Some(self.epoch)
    }

    fn fault_stats(&self) -> Option<&FaultStats> {
        self.faults.as_ref().map(|f| f.stats())
    }
}
