//! The emulated-bus tier: a small bus/register-file execution engine.
//!
//! Real MSR plumbing is not the instant, side-effect-free store the
//! closed-form simulation assumes. Three effects matter for control
//! fidelity (and are exactly what fidelity-ablation experiments want to
//! race against the closed form):
//!
//! - **latched writes** — a user write returns before the register
//!   changes; RAPL in particular takes on the order of milliseconds to
//!   act on a new `PKG_POWER_LIMIT`. Writes here sit in a latch queue
//!   for `write_latency` and apply on the next clock advance;
//! - **decode side effects** — registers implement only their
//!   architected bits; reserved bits are masked off on the way in, so a
//!   driver that round-trips a value reads back what the silicon kept;
//! - **per-access cost** — every user-space access occupies the bus for
//!   `access_cost`, accounted in [`BusStats`] (the `repro backends`
//!   experiment reports it; it does not warp simulated time).
//!
//! With `write_latency == 0` the engine degenerates to a pass-through
//! over [`SimBackend`] and is bit-identical to it — the conformance
//! suite asserts this, which pins the shared gate/fault plumbing.

use std::cell::Cell;

use crate::backend::{Capabilities, MsrBackend, SimBackend};
use crate::faults::FaultStats;
use crate::msr::{MsrError, IA32_CLOCK_MODULATION, IA32_PERF_CTL, MSR_PKG_POWER_LIMIT};
use crate::time::Nanos;

/// Architected-bit mask applied when a register decodes a write.
/// Everything our device model implements lives below these bits; real
/// silicon ignores reserved bits the same way.
fn decode_mask(addr: u32) -> u64 {
    match addr {
        // Limit #1: power(15) | enable | clamp | Y(5) | F(2).
        MSR_PKG_POWER_LIMIT => 0x00FF_FFFF,
        // Requested ratio lives in bits 8..16.
        IA32_PERF_CTL => 0xFF00,
        // Duty step in bits 0..4, enable in bit 4.
        IA32_CLOCK_MODULATION => 0x1F,
        _ => u64::MAX,
    }
}

/// A user write sitting in the latch queue.
#[derive(Debug, Clone, Copy)]
struct PendingWrite {
    apply_at: Nanos,
    addr: u32,
    value: u64,
}

/// The bus/register-file execution engine. Owns a [`SimBackend`] as its
/// register file (so allow-list and fault-layer semantics are shared,
/// not re-implemented) and adds the bus behaviours on top.
#[derive(Debug)]
pub struct EmulatedBackend {
    file: SimBackend,
    write_latency: Nanos,
    access_cost: Nanos,
    now: Nanos,
    /// Latch queue in issue order (bounded by the handful of control
    /// registers a daemon touches per tick).
    pending: Vec<PendingWrite>,
    reads: Cell<u64>,
    writes: u64,
    latched: u64,
    bus_ns: Cell<u64>,
}

impl EmulatedBackend {
    /// An engine over `file` with the given latch delay and per-access
    /// bus cost.
    pub fn new(file: SimBackend, write_latency: Nanos, access_cost: Nanos) -> Self {
        Self {
            file,
            write_latency,
            access_cost,
            now: 0,
            pending: Vec::new(),
            reads: Cell::new(0),
            writes: 0,
            latched: 0,
            bus_ns: Cell::new(0),
        }
    }
}

impl MsrBackend for EmulatedBackend {
    fn read(&self, addr: u32) -> Result<u64, MsrError> {
        self.reads.set(self.reads.get() + 1);
        self.bus_ns.set(self.bus_ns.get() + self.access_cost);
        // Reads see the register file, not the latch queue: a write that
        // has not latched yet is invisible to read-back — exactly the
        // failure mode the hardened NRM daemon's verification exists for.
        self.file.read(addr)
    }

    fn write(&mut self, addr: u32, value: u64) -> Result<(), MsrError> {
        self.writes += 1;
        self.bus_ns.set(self.bus_ns.get() + self.access_cost);
        if self.file.user_write_gate(addr, value)? {
            let value = value & decode_mask(addr);
            if self.write_latency == 0 {
                self.file.hw_write(addr, value);
            } else {
                self.latched += 1;
                self.pending.push(PendingWrite {
                    apply_at: self.now + self.write_latency,
                    addr,
                    value,
                });
            }
        }
        Ok(())
    }

    fn advance_to(&mut self, now: Nanos) {
        self.now = now;
        // Apply due latches in issue order (last write to a register
        // wins, as on hardware), then let the fault layer advance.
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].apply_at <= now {
                let p = self.pending.remove(i);
                self.file.hw_write(p.addr, p.value);
            } else {
                i += 1;
            }
        }
        self.file.advance_to(now);
    }

    fn next_event_hint(&self, now: Nanos) -> Option<Nanos> {
        // A pending latch is an event horizon exactly like a fault
        // boundary: the node must not macro-step across the instant a
        // cap takes hold.
        let latch = self.pending.iter().map(|p| p.apply_at.max(now + 1)).min();
        match (latch, self.file.next_event_hint(now)) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            latched_writes: self.write_latency > 0,
            ..Capabilities::full_sim()
        }
    }

    fn hw_read(&self, addr: u32) -> u64 {
        self.file.hw_read(addr)
    }

    fn hw_write(&mut self, addr: u32, value: u64) {
        self.file.hw_write(addr, value);
    }

    fn hw_count(&mut self, energy_ticks: u64, aperf: u64, mperf: u64) {
        self.file.hw_count(energy_ticks, aperf, mperf);
    }

    /// The file's epoch: latched writes land through its `hw_write`, so
    /// they move it when they apply, not when they are issued.
    fn control_epoch(&self) -> Option<u64> {
        self.file.control_epoch()
    }

    fn fault_stats(&self) -> Option<&FaultStats> {
        self.file.fault_stats()
    }

    fn bus_stats(&self) -> Option<BusStats> {
        Some(BusStats {
            reads: self.reads.get(),
            writes: self.writes,
            latched: self.latched,
            bus_ns: self.bus_ns.get(),
        })
    }
}

/// Bus-occupancy accounting snapshot for an [`EmulatedBackend`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BusStats {
    /// User-space reads issued.
    pub reads: u64,
    /// User-space writes issued.
    pub writes: u64,
    /// Writes that went through the latch queue.
    pub latched: u64,
    /// Total bus occupancy, ns.
    pub bus_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msr::MSR_PKG_ENERGY_STATUS;
    use crate::time::MS;

    #[test]
    fn latch_applies_after_the_delay_and_hints_the_horizon() {
        let mut b = EmulatedBackend::new(SimBackend::new(), 2 * MS, 0);
        b.advance_to(MS);
        b.write(MSR_PKG_POWER_LIMIT, 0xCAFE).unwrap();
        assert_eq!(b.hw_read(MSR_PKG_POWER_LIMIT), 0, "not latched yet");
        assert_eq!(b.read(MSR_PKG_POWER_LIMIT), Ok(0), "read-back sees old");
        assert_eq!(b.next_event_hint(MS), Some(3 * MS));
        b.advance_to(3 * MS);
        assert_eq!(b.hw_read(MSR_PKG_POWER_LIMIT), 0xCAFE);
        assert_eq!(b.next_event_hint(3 * MS), None, "queue drained");
        let s = b.bus_stats().unwrap();
        assert_eq!((s.writes, s.latched), (1, 1));
    }

    #[test]
    fn decode_masks_reserved_bits() {
        let mut b = EmulatedBackend::new(SimBackend::new(), 0, 0);
        b.write(IA32_PERF_CTL, 0xDEAD_BEEF).unwrap();
        assert_eq!(b.hw_read(IA32_PERF_CTL), 0xDEAD_BEEF & 0xFF00);
        b.write(IA32_CLOCK_MODULATION, 0xFF).unwrap();
        assert_eq!(b.hw_read(IA32_CLOCK_MODULATION), 0x1F);
    }

    #[test]
    fn last_write_wins_when_latches_collide() {
        let mut b = EmulatedBackend::new(SimBackend::new(), MS, 0);
        b.write(MSR_PKG_POWER_LIMIT, 0x1).unwrap();
        b.write(MSR_PKG_POWER_LIMIT, 0x2).unwrap();
        b.advance_to(MS);
        assert_eq!(b.hw_read(MSR_PKG_POWER_LIMIT), 0x2);
    }

    #[test]
    fn access_cost_accrues_into_bus_time() {
        let mut b = EmulatedBackend::new(SimBackend::new(), 0, 3);
        let _ = b.read(MSR_PKG_ENERGY_STATUS);
        let _ = b.write(MSR_PKG_POWER_LIMIT, 0);
        assert_eq!(b.bus_stats().unwrap().bus_ns, 6);
    }
}
