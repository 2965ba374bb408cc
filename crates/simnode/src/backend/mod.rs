//! Pluggable hardware backends behind the MSR boundary.
//!
//! The paper's NRM talks to hardware exclusively through `libmsr` on top
//! of the `msr-safe` kernel module, and this repo mirrors that: the MSR
//! device is the *only* door between the control plane (daemons, arbiter,
//! scheduler) and "hardware". This module makes the door pluggable: the
//! object-safe [`MsrBackend`] trait abstracts the register file, and a
//! node picks its implementation per [`BackendKind`]:
//!
//! | backend | fidelity | availability |
//! |---|---|---|
//! | [`SimBackend`] | closed-form simulated registers (the seed path, bit-identical) | always |
//! | [`EmulatedBackend`] | bus/register-file engine: latched writes, decode side effects, per-access cost | always |
//! | `LinuxRaplBackend` | real `/dev/cpu/*/msr` + sysfs powercap topology | `--features rapl`, Linux, privileged |
//!
//! All three speak [`MsrError`] — the RAPL backend degrades missing
//! registers or privileges to [`MsrError::Unsupported`] instead of lying
//! — so the NRM's retry/fallback machinery (`nrm::resilience`) treats a
//! hole in real hardware exactly like an injected fault. Devices are
//! built through [`MsrDeviceBuilder`]; the old `MsrDevice::new()` +
//! mutate-after construction dance is gone.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::faults::{FaultPlan, FaultStats};
use crate::msr::{
    MsrDevice, MsrError, Permission, IA32_APERF, IA32_CLOCK_MODULATION, IA32_MPERF, IA32_PERF_CTL,
    MSR_ANY, MSR_PKG_ENERGY_STATUS, MSR_PKG_POWER_LIMIT, MSR_RAPL_POWER_UNIT,
};
use crate::time::{Nanos, MS, US};

pub mod emu;
#[cfg(feature = "rapl")]
pub mod rapl_linux;
pub mod sim;

#[cfg(test)]
mod conformance;
#[cfg(test)]
mod epoch_oracle;

pub use emu::{BusStats, EmulatedBackend};
#[cfg(feature = "rapl")]
pub use rapl_linux::{discover_packages, LinuxRaplBackend, PackageInfo};
pub use sim::SimBackend;

/// The hardware side of the MSR boundary.
///
/// Everything above this trait — [`MsrDevice`], the node, both daemons,
/// the cluster and scheduler layers — is backend-agnostic. The trait is
/// object-safe; devices own a `Box<dyn MsrBackend>`.
///
/// The first five methods are the user-space surface (`msr-safe`
/// semantics: allow-list, fault filtering, [`MsrError`] as the shared
/// error language). The `hw_*` methods are the privileged silicon-side
/// surface the simulated node itself drives; real-hardware backends map
/// them onto raw device access and drop writes the silicon owns
/// (counters accumulate on their own there). [`control_epoch`] lets the
/// node keep its decoded control registers across steps.
///
/// [`control_epoch`]: MsrBackend::control_epoch
pub trait MsrBackend: std::fmt::Debug + Send {
    /// User-space read through the allow-list (and fault layer, where
    /// supported).
    fn read(&self, addr: u32) -> Result<u64, MsrError>;

    /// User-space write through the allow-list (and fault layer, where
    /// supported).
    fn write(&mut self, addr: u32, value: u64) -> Result<(), MsrError>;

    /// Advance the backend clock to `now` (simulated backends latch
    /// deferred writes and fire fault onsets here; wall-clock backends
    /// ignore it).
    fn advance_to(&mut self, now: Nanos);

    /// Earliest instant strictly after `now` at which the backend could
    /// change state on its own (fault window edges, pending write
    /// latches). Feeds the node's event-horizon macro-stepping: a
    /// macro-step never leaps across a hint.
    fn next_event_hint(&self, now: Nanos) -> Option<Nanos>;

    /// What this backend can actually do; probed at build time for real
    /// hardware.
    fn capabilities(&self) -> Capabilities;

    /// Privileged (hardware-side) read, bypassing the allow-list.
    fn hw_read(&self, addr: u32) -> u64;

    /// Privileged (hardware-side) write, bypassing the allow-list.
    fn hw_write(&mut self, addr: u32, value: u64);

    /// The silicon's counting for one step, privileged: add
    /// `energy_ticks` to the 32-bit wrapping `MSR_PKG_ENERGY_STATUS`,
    /// and `aperf` and `mperf` to `IA32_APERF` and `IA32_MPERF`. The
    /// default reads and writes each counter through
    /// [`hw_read`](Self::hw_read) and [`hw_write`](Self::hw_write).
    fn hw_count(&mut self, energy_ticks: u64, aperf: u64, mperf: u64) {
        let energy = self.hw_read(MSR_PKG_ENERGY_STATUS);
        self.hw_write(MSR_PKG_ENERGY_STATUS, (energy + energy_ticks) & 0xFFFF_FFFF);
        let a = self.hw_read(IA32_APERF);
        self.hw_write(IA32_APERF, a + aperf);
        let m = self.hw_read(IA32_MPERF);
        self.hw_write(IA32_MPERF, m + mperf);
    }

    /// A value that changes whenever a register other than the three
    /// silicon-owned counters (`MSR_PKG_ENERGY_STATUS`, `IA32_APERF`,
    /// `IA32_MPERF`) may have changed, by any path: a user write, a
    /// privileged write, a latch or fault applying in
    /// [`advance_to`](Self::advance_to). While it holds still, a caller
    /// may keep what it decoded from those registers. `None` (the
    /// default) means the backend cannot tell, as on real hardware where
    /// other processes write the registers, and callers re-read every
    /// time.
    fn control_epoch(&self) -> Option<u64> {
        None
    }

    /// Fault-injection counters, when the backend carries a fault layer.
    fn fault_stats(&self) -> Option<&FaultStats> {
        None
    }

    /// Bus-occupancy accounting, for backends that model access cost.
    fn bus_stats(&self) -> Option<BusStats> {
        None
    }
}

/// What an MSR backend supports, register family by register family.
///
/// The simulated tiers support everything; a probed `LinuxRaplBackend`
/// reports only what the running kernel/hardware exposes (e.g. a
/// read-only `/dev/cpu/N/msr` yields `energy_status` without
/// `power_limit`). Accesses outside the mask surface as
/// [`MsrError::Unsupported`], which the NRM's fallback chain handles
/// like any other actuation failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Capabilities {
    /// `MSR_PKG_POWER_LIMIT` is writable (RAPL capping works).
    pub power_limit: bool,
    /// `MSR_PKG_ENERGY_STATUS` reads return live data.
    pub energy_status: bool,
    /// `IA32_PERF_CTL` is writable (software DVFS works).
    pub perf_ctl: bool,
    /// `IA32_CLOCK_MODULATION` is writable (DDCM works).
    pub clock_modulation: bool,
    /// `IA32_APERF`/`IA32_MPERF` read as a coherent pair.
    pub aperf_mperf: bool,
    /// The backend can host an injected [`FaultPlan`].
    pub fault_injection: bool,
    /// User writes latch after a delay instead of instantly.
    pub latched_writes: bool,
}

impl Capabilities {
    /// Everything the closed-form simulated register file offers.
    pub const fn full_sim() -> Self {
        Self {
            power_limit: true,
            energy_status: true,
            perf_ctl: true,
            clock_modulation: true,
            aperf_mperf: true,
            fault_injection: true,
            latched_writes: false,
        }
    }

    /// Nothing at all — the probe starting point.
    pub const fn none() -> Self {
        Self {
            power_limit: false,
            energy_status: false,
            perf_ctl: false,
            clock_modulation: false,
            aperf_mperf: false,
            fault_injection: false,
            latched_writes: false,
        }
    }

    /// Whether accesses to `addr` are within this capability mask.
    pub fn supports(&self, addr: u32) -> bool {
        match addr {
            MSR_RAPL_POWER_UNIT => self.power_limit || self.energy_status,
            MSR_PKG_POWER_LIMIT => self.power_limit,
            MSR_PKG_ENERGY_STATUS => self.energy_status,
            IA32_PERF_CTL => self.perf_ctl,
            IA32_CLOCK_MODULATION => self.clock_modulation,
            IA32_APERF | IA32_MPERF => self.aperf_mperf,
            _ => false,
        }
    }
}

/// The `msr-safe`-style whitelist entry for a register, shared by every
/// backend (the simulated tiers seed their allow-list from it; the RAPL
/// backend enforces it statically so user code cannot scribble on
/// arbitrary real MSRs).
pub fn default_permission(addr: u32) -> Option<Permission> {
    match addr {
        MSR_RAPL_POWER_UNIT | MSR_PKG_ENERGY_STATUS | IA32_MPERF | IA32_APERF => {
            Some(Permission::RO)
        }
        MSR_PKG_POWER_LIMIT | IA32_PERF_CTL | IA32_CLOCK_MODULATION => Some(Permission::RW),
        _ => None,
    }
}

/// Which backend a node's MSR device runs on. Carried by `NodeConfig`
/// and the cluster's `NodeSpec`, so one cluster can mix fidelity tiers
/// member by member.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum BackendKind {
    /// The closed-form simulated register file (the seed behaviour,
    /// bit-identical to the pre-trait `MsrDevice`).
    #[default]
    Sim,
    /// The bus/register-file execution engine: user writes latch
    /// `write_latency` after issue (0 = instant, bit-identical to
    /// [`BackendKind::Sim`]), reserved bits are masked on decode, and
    /// every access accrues `access_cost` of bus occupancy into
    /// [`BusStats`].
    Emulated {
        /// Delay between a user write returning and the register
        /// changing.
        write_latency: Nanos,
        /// Bus time accounted per user-space access.
        access_cost: Nanos,
    },
    /// Real Intel RAPL via `/dev/cpu/N/msr` for the first CPU of
    /// `package`, with sysfs powercap topology discovery and capability
    /// probing. Requires `--features rapl` (and, at run time, a Linux
    /// machine with the `msr` module loaded).
    LinuxRapl {
        /// Physical package (socket) to bind to.
        package: u32,
    },
}

impl BackendKind {
    /// The emulated tier at its default fidelity: a 2 ms cap-latch delay
    /// (the order real RAPL takes to act on a new limit) and 1 µs of bus
    /// time per access.
    pub const fn emulated() -> Self {
        BackendKind::Emulated {
            write_latency: 2 * MS,
            access_cost: US,
        }
    }

    /// Whether this build can construct the backend at all.
    /// `LinuxRapl` needs `--features rapl`; probing the actual machine
    /// happens later, in [`MsrDeviceBuilder::build`]. Config validators
    /// (`NodeConfig::validate`, the cluster's `ClusterConfig::validate`)
    /// reject unavailable kinds up front so `repro` surfaces a clean
    /// exit-2 message instead of a mid-run panic.
    pub fn is_available(self) -> bool {
        match self {
            BackendKind::Sim | BackendKind::Emulated { .. } => true,
            BackendKind::LinuxRapl { .. } => cfg!(feature = "rapl"),
        }
    }

    /// Short display label (table/CSV column friendly).
    pub fn label(self) -> String {
        match self {
            BackendKind::Sim => "sim".into(),
            BackendKind::Emulated { write_latency, .. } => {
                format!("emulated-{}us", write_latency / US)
            }
            BackendKind::LinuxRapl { package } => format!("linux-rapl-pkg{package}"),
        }
    }
}

/// Builder for [`MsrDevice`]: backend kind, allow-list overrides,
/// initial register values, and an optional fault plan, all settled
/// before the device exists.
///
/// ```
/// use simnode::hw::{BackendKind, MsrDevice, Permission};
///
/// let d = MsrDevice::builder()
///     .backend(BackendKind::emulated())
///     .allow(0x1A4, Permission::RW) // expose a prefetch-control MSR
///     .register(0x1A4, 0xF)
///     .build()
///     .expect("simulated backends always build");
/// assert_eq!(d.read(0x1A4), Ok(0xF));
/// ```
#[derive(Debug, Clone, Default)]
pub struct MsrDeviceBuilder {
    kind: BackendKind,
    allow: Vec<(u32, Permission)>,
    regs: Vec<(u32, u64)>,
    faults: Option<Arc<FaultPlan>>,
}

impl MsrDeviceBuilder {
    /// A builder for the default device: [`BackendKind::Sim`], the
    /// default RAPL/DVFS allow-list, power-on register values, no
    /// faults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Select the backend implementation.
    pub fn backend(mut self, kind: BackendKind) -> Self {
        self.kind = kind;
        self
    }

    /// Add (or override) an allow-list entry. Registers added here start
    /// at 0 unless also given a [`register`](Self::register) value.
    pub fn allow(mut self, addr: u32, perm: Permission) -> Self {
        self.allow.push((addr, perm));
        self
    }

    /// Override a register's power-on value.
    pub fn register(mut self, addr: u32, value: u64) -> Self {
        self.regs.push((addr, value));
        self
    }

    /// Install a fault-injection plan (a bare [`FaultPlan`] or a shared
    /// `Arc<FaultPlan>`). User-space accesses are filtered through it;
    /// hardware-side (`hw_*`) accesses never are. Only the simulated
    /// tiers support this; building a `LinuxRapl` device with a plan
    /// fails with [`MsrError::Unsupported`].
    pub fn faults(mut self, plan: impl Into<Arc<FaultPlan>>) -> Self {
        self.faults = Some(plan.into());
        self
    }

    /// [`faults`](Self::faults), but threading an `Option` through (the
    /// shape every config struct carries).
    pub fn maybe_faults(mut self, plan: Option<Arc<FaultPlan>>) -> Self {
        self.faults = plan;
        self
    }

    /// Construct the device.
    ///
    /// The simulated tiers are infallible. `LinuxRapl` probes the
    /// machine and fails with [`MsrError::Unsupported`] when the feature
    /// is compiled out, the package/device does not exist, the units
    /// register is unreadable, or a fault plan was requested (fault
    /// injection needs a simulated register file).
    pub fn build(self) -> Result<MsrDevice, MsrError> {
        let backend: Box<dyn MsrBackend> = match self.kind {
            BackendKind::Sim => {
                Box::new(SimBackend::assemble(&self.allow, &self.regs, self.faults))
            }
            BackendKind::Emulated {
                write_latency,
                access_cost,
            } => Box::new(EmulatedBackend::new(
                SimBackend::assemble(&self.allow, &self.regs, self.faults),
                write_latency,
                access_cost,
            )),
            BackendKind::LinuxRapl { package } => {
                #[cfg(feature = "rapl")]
                {
                    if self.faults.is_some() {
                        return Err(MsrError::Unsupported(MSR_ANY));
                    }
                    Box::new(LinuxRaplBackend::probe(package)?)
                }
                #[cfg(not(feature = "rapl"))]
                {
                    let _ = package;
                    return Err(MsrError::Unsupported(MSR_ANY));
                }
            }
        };
        Ok(MsrDevice::from_backend(backend))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_availability_tracks_the_feature_gate() {
        assert!(BackendKind::Sim.is_available());
        assert!(BackendKind::emulated().is_available());
        assert_eq!(
            BackendKind::LinuxRapl { package: 0 }.is_available(),
            cfg!(feature = "rapl")
        );
    }

    #[test]
    fn capability_mask_maps_registers() {
        let full = Capabilities::full_sim();
        for addr in [
            MSR_RAPL_POWER_UNIT,
            MSR_PKG_POWER_LIMIT,
            MSR_PKG_ENERGY_STATUS,
            IA32_PERF_CTL,
            IA32_CLOCK_MODULATION,
            IA32_APERF,
            IA32_MPERF,
        ] {
            assert!(full.supports(addr), "{addr:#x}");
        }
        assert!(!full.supports(0xDEAD));
        let none = Capabilities::none();
        assert!(!none.supports(MSR_PKG_POWER_LIMIT));
        let ro = Capabilities {
            energy_status: true,
            ..Capabilities::none()
        };
        assert!(ro.supports(MSR_RAPL_POWER_UNIT), "units follow telemetry");
        assert!(!ro.supports(MSR_PKG_POWER_LIMIT));
    }

    #[test]
    fn builder_customizes_allowlist_and_registers() {
        let d = MsrDevice::builder()
            .allow(0x1A4, Permission::RW)
            .register(0x1A4, 0xF)
            .build()
            .unwrap();
        assert_eq!(d.read(0x1A4), Ok(0xF));
        // Tightening a default entry works too.
        let d = MsrDevice::builder()
            .allow(MSR_PKG_POWER_LIMIT, Permission::RO)
            .build()
            .unwrap();
        assert_eq!(
            {
                let mut d = d;
                d.write(MSR_PKG_POWER_LIMIT, 1)
            },
            Err(MsrError::NotAllowed(MSR_PKG_POWER_LIMIT))
        );
    }

    #[cfg(not(feature = "rapl"))]
    #[test]
    fn linux_rapl_without_the_feature_is_a_clean_unsupported() {
        let err = MsrDevice::builder()
            .backend(BackendKind::LinuxRapl { package: 0 })
            .build()
            .unwrap_err();
        assert_eq!(err, MsrError::Unsupported(MSR_ANY));
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(BackendKind::Sim.label(), "sim");
        assert_eq!(BackendKind::emulated().label(), "emulated-2000us");
        assert_eq!(
            BackendKind::LinuxRapl { package: 1 }.label(),
            "linux-rapl-pkg1"
        );
    }
}
