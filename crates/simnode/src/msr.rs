//! Model-specific registers (MSRs) with an `msr-safe`-style allow-list.
//!
//! The paper's power-policy daemon talks to hardware exclusively through
//! `libmsr` on top of the `msr-safe` kernel module, which exposes a
//! whitelisted subset of MSRs to non-root users. This module reproduces
//! that interface: [`MsrDevice`] is the user-facing door — an allow-list
//! with independent read/write permission and faithful RAPL register
//! encodings (`MSR_RAPL_POWER_UNIT`, `MSR_PKG_POWER_LIMIT` with the real
//! `(1 + F/4)·2^Y` time-window format, and the 32-bit wrapping
//! `MSR_PKG_ENERGY_STATUS` counter).
//!
//! The register file behind the door is pluggable: the device owns a
//! `Box<dyn `[`MsrBackend`]`>` (see [`crate::backend`]) — the closed-form
//! simulated file, the emulated bus engine, or (with `--features rapl`)
//! real Linux RAPL. Devices are constructed through [`MsrDevice::builder`].

use std::cell::Cell;

use crate::backend::{BusStats, Capabilities, MsrBackend, MsrDeviceBuilder};
use crate::faults::FaultStats;
use crate::time::{round_u64, Nanos};
use serde::{Deserialize, Serialize};

/// `MSR_RAPL_POWER_UNIT`: unit definitions for the RAPL registers.
pub const MSR_RAPL_POWER_UNIT: u32 = 0x606;
/// `MSR_PKG_POWER_LIMIT`: package power cap control.
pub const MSR_PKG_POWER_LIMIT: u32 = 0x610;
/// `MSR_PKG_ENERGY_STATUS`: wrapping package energy counter.
pub const MSR_PKG_ENERGY_STATUS: u32 = 0x611;
/// `IA32_PERF_CTL`: requested P-state (frequency / 100 MHz in bits 8..16).
pub const IA32_PERF_CTL: u32 = 0x199;
/// `IA32_CLOCK_MODULATION`: DDCM duty-cycle control.
pub const IA32_CLOCK_MODULATION: u32 = 0x19A;
/// `IA32_MPERF`: cycles at nominal frequency while unhalted.
pub const IA32_MPERF: u32 = 0xE7;
/// `IA32_APERF`: actual unhalted cycles; `APERF/MPERF` gives the effective
/// frequency ratio, which is how tools measure frequency under RAPL.
pub const IA32_APERF: u32 = 0xE8;

/// Pseudo-address used by [`MsrError::Unsupported`] when the *whole
/// backend* — not one register — is unavailable (feature compiled out,
/// package or `/dev/cpu/N/msr` missing, fault plan on real hardware).
pub const MSR_ANY: u32 = u32::MAX;

/// Errors surfaced by the MSR device, mirroring what `msr-safe` returns to
/// user space.
///
/// Marked `#[non_exhaustive]`: backends may grow new failure modes
/// (as [`MsrError::Unsupported`] did when real-hardware probing arrived),
/// and downstream matches must keep a wildcard arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum MsrError {
    /// The register exists but the allow-list denies this access.
    NotAllowed(u32),
    /// The register is not implemented by this model.
    Unknown(u32),
    /// The access failed at the driver level (EIO), as injected by the
    /// fault layer ([`crate::faults`]) or returned by a real MSR device.
    /// Transient or persistent depending on the fault plan.
    Io(u32),
    /// The backend cannot serve this register at all: the capability was
    /// probed absent on real hardware, or ([`MSR_ANY`]) the backend
    /// itself is unavailable in this build or on this machine. The
    /// hardened NRM daemon treats it like any other actuation failure and
    /// falls back.
    Unsupported(u32),
}

impl std::fmt::Display for MsrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MsrError::NotAllowed(a) => write!(f, "MSR {a:#x}: access denied by allow-list"),
            MsrError::Unknown(a) => write!(f, "MSR {a:#x}: not implemented"),
            MsrError::Io(a) => write!(f, "MSR {a:#x}: I/O error"),
            MsrError::Unsupported(a) if *a == MSR_ANY => {
                write!(
                    f,
                    "MSR backend: unavailable in this build or on this machine"
                )
            }
            MsrError::Unsupported(a) => write!(f, "MSR {a:#x}: unsupported by this backend"),
        }
    }
}

impl std::error::Error for MsrError {}

/// Per-register permissions, like an `msr-safe` whitelist entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Permission {
    /// Reads allowed.
    pub read: bool,
    /// Writes allowed.
    pub write: bool,
}

impl Permission {
    /// Read-only access.
    pub const RO: Permission = Permission {
        read: true,
        write: false,
    };
    /// Read-write access.
    pub const RW: Permission = Permission {
        read: true,
        write: true,
    };
}

/// The MSR device: the only door between control software and the
/// hardware (simulated or real) behind it.
///
/// This is a thin facade over an [`MsrBackend`]; every call delegates.
/// Construct one with [`MsrDevice::builder`] (or [`MsrDevice::default`]
/// for the plain simulated device the seed used).
#[derive(Debug)]
pub struct MsrDevice {
    backend: Box<dyn MsrBackend>,
    /// Register-file and clock calls forwarded to the backend (see
    /// [`MsrDevice::calls`]).
    calls: Cell<u64>,
}

impl MsrDevice {
    /// Start building a device: backend kind, allow-list entries,
    /// initial register values, fault plan.
    pub fn builder() -> MsrDeviceBuilder {
        MsrDeviceBuilder::new()
    }

    /// Wrap an already-constructed backend (the escape hatch for custom
    /// [`MsrBackend`] implementations outside this crate).
    pub fn from_backend(backend: Box<dyn MsrBackend>) -> Self {
        Self {
            backend,
            calls: Cell::new(0),
        }
    }

    /// How many register-file and clock calls the device has forwarded
    /// to its backend since it was built: every method below except the
    /// [`capabilities`](Self::capabilities), [`fault_stats`](Self::fault_stats)
    /// and [`bus_stats`](Self::bus_stats) reports and the read-only
    /// [`next_event_hint`](Self::next_event_hint) scheduling query, so a
    /// caller that only asks when the node next needs stepping moves no
    /// count. Each is a virtual call, so this counts the traffic across
    /// the hardware boundary.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// The backend, counting one forwarded call.
    fn backend(&self) -> &dyn MsrBackend {
        self.calls.set(self.calls.get() + 1);
        &*self.backend
    }

    /// [`backend`](Self::backend), mutably.
    fn backend_mut(&mut self) -> &mut dyn MsrBackend {
        self.calls.set(self.calls.get() + 1);
        &mut *self.backend
    }

    /// What the backend can do; see [`Capabilities`].
    pub fn capabilities(&self) -> Capabilities {
        self.backend.capabilities()
    }

    /// Earliest instant strictly after `now` at which the backend could
    /// change state on its own (fault window opening/closing, deferred or
    /// latched cap writes applying) — an event horizon for the node's
    /// macro-step fast path. `None` when nothing is pending.
    pub fn next_event_hint(&self, now: Nanos) -> Option<Nanos> {
        self.backend.next_event_hint(now)
    }

    /// Injection counters, when a fault plan is installed.
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        self.backend.fault_stats()
    }

    /// Bus-occupancy accounting, when the backend models access cost
    /// (the emulated tier does).
    pub fn bus_stats(&self) -> Option<BusStats> {
        self.backend.bus_stats()
    }

    /// Advance the device clock to `now`. The simulated node calls this
    /// once per quantum; simulated backends use it to fire fault onsets
    /// and apply deferred/latched writes whose delay has elapsed.
    pub fn advance_to(&mut self, now: Nanos) {
        self.backend_mut().advance_to(now);
    }

    /// User-space read through the allow-list (and the fault layer, when
    /// one is installed).
    pub fn read(&self, addr: u32) -> Result<u64, MsrError> {
        self.backend().read(addr)
    }

    /// User-space write through the allow-list (and the fault layer, when
    /// one is installed).
    pub fn write(&mut self, addr: u32, value: u64) -> Result<(), MsrError> {
        self.backend_mut().write(addr, value)
    }

    /// Privileged (hardware-side) read, bypassing the allow-list. Used by
    /// the simulated silicon itself.
    pub fn hw_read(&self, addr: u32) -> u64 {
        self.backend().hw_read(addr)
    }

    /// Privileged (hardware-side) write, bypassing the allow-list.
    pub fn hw_write(&mut self, addr: u32, value: u64) {
        self.backend_mut().hw_write(addr, value);
    }

    /// Privileged counting for one step: see [`MsrBackend::hw_count`].
    pub fn hw_count(&mut self, energy_ticks: u64, aperf: u64, mperf: u64) {
        self.backend_mut().hw_count(energy_ticks, aperf, mperf);
    }

    /// Changes whenever a register other than the energy, `APERF` and
    /// `MPERF` counters may have changed; `None` when the backend cannot
    /// tell. See [`MsrBackend::control_epoch`].
    pub fn control_epoch(&self) -> Option<u64> {
        self.backend().control_epoch()
    }

    /// Decode the RAPL unit register.
    pub fn units(&self) -> RaplUnits {
        RaplUnits::decode(self.hw_read(MSR_RAPL_POWER_UNIT))
    }
}

impl Default for MsrDevice {
    /// The plain simulated device: default allow-list, power-on values,
    /// no faults — the seed's `MsrDevice::new()`.
    fn default() -> Self {
        MsrDeviceBuilder::new()
            .build()
            .expect("the simulated backend is infallible")
    }
}

/// Decoded `MSR_RAPL_POWER_UNIT` fields.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RaplUnits {
    /// Power unit in watts (Skylake: 1/8 W).
    pub power_w: f64,
    /// Energy unit in joules (Skylake server: 2⁻¹⁴ J ≈ 61 µJ).
    pub energy_j: f64,
    /// Time unit in seconds (2⁻¹⁰ s ≈ 977 µs).
    pub time_s: f64,
}

impl RaplUnits {
    /// Raw Skylake-style value: PU=3, ESU=14, TU=10.
    pub const SKYLAKE_RAW: u64 = 3 | (14 << 8) | (10 << 16);

    /// Decode from the raw register value.
    pub fn decode(raw: u64) -> Self {
        let pu = raw & 0xF;
        let esu = (raw >> 8) & 0x1F;
        let tu = (raw >> 16) & 0xF;
        Self {
            power_w: (0.5f64).powi(pu as i32),
            energy_j: (0.5f64).powi(esu as i32),
            time_s: (0.5f64).powi(tu as i32),
        }
    }
}

/// Decoded `MSR_PKG_POWER_LIMIT` fields (power limit #1 only; the paper's
/// daemon programs a single limit).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerLimit {
    /// Cap in watts; `None` when the enable bit is clear (uncapped).
    pub watts: Option<f64>,
    /// Averaging time window in nanoseconds.
    pub window: Nanos,
}

impl PowerLimit {
    /// Encode into the raw register format: bits 0..15 power (in power
    /// units), bit 15 enable, bit 16 clamp, bits 17..22 window exponent
    /// `Y`, bits 22..24 window fraction `F`, window = `(1 + F/4)·2^Y`
    /// time-units. A disabled limit encodes as 0.
    pub fn encode(&self, units: RaplUnits) -> u64 {
        Self::encode_with_window(self.watts, Self::window_field(self.window, units), units)
    }

    /// The window bits (17..24) of [`encode`](Self::encode) for `window`.
    /// Finding them is a search over every `(Y, F)` pair, so a caller
    /// that programs one window over and over encodes it once and passes
    /// the bits to [`encode_with_window`](Self::encode_with_window).
    pub fn window_field(window: Nanos, units: RaplUnits) -> u64 {
        let (y, f) = encode_time_window(window, units);
        (y as u64) << 17 | (f as u64) << 22
    }

    /// [`encode`](Self::encode) with the window already encoded by
    /// [`window_field`](Self::window_field).
    pub fn encode_with_window(watts: Option<f64>, window_field: u64, units: RaplUnits) -> u64 {
        let Some(w) = watts else {
            return 0;
        };
        assert!(w > 0.0, "cap must be positive");
        let p = round_u64(w / units.power_w).min(0x7FFF);
        p | 1 << 15 | 1 << 16 | window_field // power | enable | clamp | window
    }

    /// Decode from the raw register format.
    pub fn decode(raw: u64, units: RaplUnits) -> Self {
        let enabled = raw & (1 << 15) != 0;
        let watts = if enabled {
            Some((raw & 0x7FFF) as f64 * units.power_w)
        } else {
            None
        };
        let y = (raw >> 17) & 0x1F;
        let f = (raw >> 22) & 0x3;
        let window_s = (1.0 + f as f64 / 4.0) * (2.0f64).powi(y as i32) * units.time_s;
        Self {
            watts,
            window: round_u64(window_s * 1e9),
        }
    }
}

/// Find the `(Y, F)` pair whose `(1 + F/4)·2^Y` time-units best
/// approximates `window`.
fn encode_time_window(window: Nanos, units: RaplUnits) -> (u8, u8) {
    let target = window as f64 / 1e9 / units.time_s;
    let mut best = (0u8, 0u8);
    let mut best_err = f64::INFINITY;
    for y in 0u8..32 {
        for f in 0u8..4 {
            let v = (1.0 + f as f64 / 4.0) * (2.0f64).powi(y as i32);
            let err = (v - target).abs();
            if err < best_err {
                best_err = err;
                best = (y, f);
            }
        }
    }
    best
}

/// Encode a requested frequency (MHz) into `IA32_PERF_CTL` format
/// (multiples of 100 MHz in bits 8..16).
pub fn encode_perf_ctl(mhz: u32) -> u64 {
    (u64::from(mhz) / 100) << 8
}

/// Decode an `IA32_PERF_CTL` value into a requested frequency in MHz.
/// Returns `None` for the power-on value 0 (no request).
pub fn decode_perf_ctl(raw: u64) -> Option<u32> {
    let ratio = (raw >> 8) & 0xFF;
    if ratio == 0 {
        None
    } else {
        Some(ratio as u32 * 100)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::MS;

    #[test]
    fn allowlist_blocks_energy_writes() {
        let mut d = MsrDevice::default();
        assert_eq!(
            d.write(MSR_PKG_ENERGY_STATUS, 1),
            Err(MsrError::NotAllowed(MSR_PKG_ENERGY_STATUS))
        );
        assert_eq!(d.read(0xDEAD), Err(MsrError::Unknown(0xDEAD)));
    }

    #[test]
    fn units_decode_skylake() {
        let u = RaplUnits::decode(RaplUnits::SKYLAKE_RAW);
        assert!((u.power_w - 0.125).abs() < 1e-12);
        assert!((u.energy_j - 6.103515625e-5).abs() < 1e-15);
        assert!((u.time_s - 9.765625e-4).abs() < 1e-12);
    }

    #[test]
    fn power_limit_roundtrip() {
        let u = RaplUnits::decode(RaplUnits::SKYLAKE_RAW);
        let pl = PowerLimit {
            watts: Some(95.0),
            window: 10 * MS,
        };
        let decoded = PowerLimit::decode(pl.encode(u), u);
        assert_eq!(decoded.watts, Some(95.0));
        // Window quantization: must land within 25% of the request.
        let w = decoded.window as f64;
        assert!((w - (10 * MS) as f64).abs() / (10 * MS) as f64 <= 0.25);
    }

    #[test]
    fn disabled_limit_decodes_to_uncapped() {
        let u = RaplUnits::decode(RaplUnits::SKYLAKE_RAW);
        let pl = PowerLimit {
            watts: None,
            window: 0,
        };
        assert_eq!(PowerLimit::decode(pl.encode(u), u).watts, None);
    }

    #[test]
    fn energy_counter_wraps_at_32_bits() {
        let mut d = MsrDevice::default();
        // Push the counter near the wrap point, then over it.
        d.hw_write(MSR_PKG_ENERGY_STATUS, 0xFFFF_FFFE);
        d.hw_count(5, 0, 0);
        assert_eq!(d.hw_read(MSR_PKG_ENERGY_STATUS), 3);
    }

    #[test]
    fn perf_ctl_roundtrip() {
        assert_eq!(decode_perf_ctl(encode_perf_ctl(2600)), Some(2600));
        assert_eq!(decode_perf_ctl(0), None);
    }

    #[test]
    fn fault_free_device_never_takes_fault_paths() {
        let mut d = MsrDevice::default();
        d.advance_to(5 * MS);
        assert_eq!(d.fault_stats().map(|s| s.reads_failed()), None);
        assert!(d.read(MSR_PKG_ENERGY_STATUS).is_ok());
        assert!(d.write(MSR_PKG_POWER_LIMIT, 0).is_ok());
    }

    #[test]
    fn injected_read_error_surfaces_as_io() {
        use crate::faults::{FaultPlan, FaultWindow};
        let mut d = MsrDevice::builder()
            .faults(FaultPlan::new(1).read_error(
                MSR_PKG_ENERGY_STATUS,
                1.0,
                FaultWindow::new(MS, 2 * MS),
            ))
            .build()
            .unwrap();
        assert!(d.read(MSR_PKG_ENERGY_STATUS).is_ok(), "before window");
        d.advance_to(MS);
        assert_eq!(
            d.read(MSR_PKG_ENERGY_STATUS),
            Err(MsrError::Io(MSR_PKG_ENERGY_STATUS))
        );
        assert!(d.read(MSR_PKG_POWER_LIMIT).is_ok(), "other regs fine");
        d.advance_to(2 * MS);
        assert!(d.read(MSR_PKG_ENERGY_STATUS).is_ok(), "after window");
        assert_eq!(d.fault_stats().unwrap().reads_failed(), 1);
    }

    #[test]
    fn stuck_counter_freezes_reads_but_not_hardware() {
        use crate::faults::{FaultPlan, FaultWindow};
        let mut d = MsrDevice::builder()
            .faults(FaultPlan::new(1).stuck_energy(FaultWindow::new(MS, 10 * MS)))
            .build()
            .unwrap();
        d.hw_write(MSR_PKG_ENERGY_STATUS, 1000);
        d.advance_to(MS);
        d.hw_count(500, 0, 0);
        assert_eq!(d.read(MSR_PKG_ENERGY_STATUS), Ok(1000), "frozen at onset");
        assert_eq!(d.hw_read(MSR_PKG_ENERGY_STATUS), 1500, "silicon truthful");
        d.advance_to(10 * MS);
        assert_eq!(d.read(MSR_PKG_ENERGY_STATUS), Ok(1500), "thawed");
    }

    #[test]
    fn delayed_cap_write_reports_success_but_latches_late() {
        use crate::faults::{FaultPlan, FaultWindow};
        let mut d = MsrDevice::builder()
            .faults(FaultPlan::new(1).delayed_cap_latch(5 * MS, FaultWindow::ALWAYS))
            .build()
            .unwrap();
        d.advance_to(MS);
        assert!(d.write(MSR_PKG_POWER_LIMIT, 0xCAFE).is_ok());
        assert_eq!(d.hw_read(MSR_PKG_POWER_LIMIT), 0, "not latched yet");
        assert_eq!(d.read(MSR_PKG_POWER_LIMIT), Ok(0), "read-back sees it");
        d.advance_to(6 * MS);
        assert_eq!(d.hw_read(MSR_PKG_POWER_LIMIT), 0xCAFE);
    }

    #[test]
    fn cap_quantized_to_eighth_watt() {
        let u = RaplUnits::decode(RaplUnits::SKYLAKE_RAW);
        let pl = PowerLimit {
            watts: Some(80.3),
            window: MS,
        };
        let d = PowerLimit::decode(pl.encode(u), u);
        assert!((d.watts.unwrap() - 80.25).abs() < 1e-9);
    }

    #[test]
    fn error_display_names_the_register_and_mode() {
        assert_eq!(
            MsrError::NotAllowed(MSR_PKG_ENERGY_STATUS).to_string(),
            "MSR 0x611: access denied by allow-list"
        );
        assert_eq!(
            MsrError::Unknown(0xDEAD).to_string(),
            "MSR 0xdead: not implemented"
        );
        assert_eq!(MsrError::Io(0x610).to_string(), "MSR 0x610: I/O error");
        assert_eq!(
            MsrError::Unsupported(IA32_CLOCK_MODULATION).to_string(),
            "MSR 0x19a: unsupported by this backend"
        );
        assert_eq!(
            MsrError::Unsupported(MSR_ANY).to_string(),
            "MSR backend: unavailable in this build or on this machine"
        );
    }
}
