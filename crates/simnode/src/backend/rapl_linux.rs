//! Real Intel RAPL over `/dev/cpu/N/msr` + sysfs powercap topology.
//!
//! Compiled only with `--features rapl`. The probe sequence follows the
//! standard Linux RAPL tooling idiom:
//!
//! 1. walk `/sys/bus/cpu/devices/cpu*/topology/physical_package_id` to
//!    map packages to their first CPU (the MSR device is per-CPU, the
//!    RAPL domain per-package);
//! 2. cross-reference `/sys/class/powercap/intel-rapl:*` for the
//!    package's powercap zone and its advertised `max_power_uw`;
//! 3. open `/dev/cpu/{cpu}/msr` read-write, degrading to read-only
//!    (telemetry without actuation) when the kernel denies writes;
//! 4. probe each register the NRM uses with a real read and record what
//!    answered in [`Capabilities`].
//!
//! Everything that fails probing degrades to [`MsrError::Unsupported`]
//! rather than erroring at access time with something opaque — the
//! hardened NRM daemon's fallback chain treats an unsupported knob exactly
//! like a faulted one and walks to the next actuator. No hardware is
//! required to *build* this backend (CI compiles and lints it); actually
//! constructing one needs a Linux machine with the `msr` module loaded
//! and enough privilege to read the device node.

use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::PathBuf;

use crate::backend::{default_permission, Capabilities, MsrBackend};
use crate::msr::{
    MsrError, IA32_APERF, IA32_CLOCK_MODULATION, IA32_MPERF, IA32_PERF_CTL, MSR_ANY,
    MSR_PKG_ENERGY_STATUS, MSR_PKG_POWER_LIMIT, MSR_RAPL_POWER_UNIT,
};
use crate::time::Nanos;

/// One physical package discovered from sysfs.
#[derive(Debug, Clone)]
pub struct PackageInfo {
    /// `physical_package_id`.
    pub package: u32,
    /// Lowest-numbered CPU in the package (whose MSR device we use).
    pub cpu: u32,
    /// The package's powercap zone, when the `intel-rapl` driver is
    /// bound (e.g. `/sys/class/powercap/intel-rapl:0`).
    pub powercap: Option<PathBuf>,
    /// The zone's `constraint_0_max_power_uw`, when advertised.
    pub max_power_uw: Option<u64>,
}

/// Enumerate physical packages via CPU topology, annotated with their
/// powercap zones. Returns an empty list (not an error) on machines
/// without the expected sysfs layout, so callers can report "package N
/// not found" uniformly.
pub fn discover_packages() -> Vec<PackageInfo> {
    let mut pkgs: Vec<PackageInfo> = Vec::new();
    let entries = match std::fs::read_dir("/sys/bus/cpu/devices") {
        Ok(e) => e,
        Err(_) => return pkgs,
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let Some(cpu) = name.strip_prefix("cpu").and_then(|n| n.parse::<u32>().ok()) else {
            continue;
        };
        let topo = entry.path().join("topology/physical_package_id");
        let Some(package) = std::fs::read_to_string(topo)
            .ok()
            .and_then(|s| s.trim().parse::<u32>().ok())
        else {
            continue;
        };
        match pkgs.iter_mut().find(|p| p.package == package) {
            Some(p) => p.cpu = p.cpu.min(cpu),
            None => pkgs.push(PackageInfo {
                package,
                cpu,
                powercap: None,
                max_power_uw: None,
            }),
        }
    }
    for p in &mut pkgs {
        // The intel-rapl driver names top-level zones "package-<id>".
        for k in 0..pkgs_zone_scan_limit() {
            let zone = PathBuf::from(format!("/sys/class/powercap/intel-rapl:{k}"));
            let Ok(name) = std::fs::read_to_string(zone.join("name")) else {
                continue;
            };
            if name.trim() == format!("package-{}", p.package) {
                p.max_power_uw = std::fs::read_to_string(zone.join("constraint_0_max_power_uw"))
                    .ok()
                    .and_then(|s| s.trim().parse().ok());
                p.powercap = Some(zone);
                break;
            }
        }
    }
    pkgs.sort_by_key(|p| p.package);
    pkgs
}

/// How many `intel-rapl:N` zones to scan for. Zones are dense from 0;
/// 64 packages is comfortably beyond any machine this targets.
fn pkgs_zone_scan_limit() -> u32 {
    64
}

/// The real-hardware backend: raw MSR access for one package, gated by
/// the same static allow-list the simulated tiers seed from, with
/// probed capabilities.
#[derive(Debug)]
pub struct LinuxRaplBackend {
    dev: File,
    package: u32,
    writable: bool,
    caps: Capabilities,
}

impl LinuxRaplBackend {
    /// Probe `package` and build a backend for it. Fails with
    /// [`MsrError::Unsupported`] when the package, the MSR device node,
    /// or the RAPL units register is missing; a read-only device node
    /// degrades write capabilities instead of failing.
    pub fn probe(package: u32) -> Result<Self, MsrError> {
        let pkgs = discover_packages();
        let pkg = pkgs
            .iter()
            .find(|p| p.package == package)
            .ok_or(MsrError::Unsupported(MSR_ANY))?;
        let path = format!("/dev/cpu/{}/msr", pkg.cpu);
        let (dev, writable) = match OpenOptions::new().read(true).write(true).open(&path) {
            Ok(f) => (f, true),
            Err(_) => (
                File::open(&path).map_err(|_| MsrError::Unsupported(MSR_ANY))?,
                false,
            ),
        };
        let mut b = Self {
            dev,
            package,
            writable,
            caps: Capabilities::none(),
        };
        // The units register is the keystone: without it no RAPL value
        // can be decoded, so its absence fails the whole probe.
        b.raw_read(MSR_RAPL_POWER_UNIT)
            .map_err(|_| MsrError::Unsupported(MSR_RAPL_POWER_UNIT))?;
        let readable = |b: &Self, addr: u32| b.raw_read(addr).is_ok();
        b.caps = Capabilities {
            power_limit: writable && readable(&b, MSR_PKG_POWER_LIMIT),
            energy_status: readable(&b, MSR_PKG_ENERGY_STATUS),
            perf_ctl: writable && readable(&b, IA32_PERF_CTL),
            clock_modulation: writable && readable(&b, IA32_CLOCK_MODULATION),
            aperf_mperf: readable(&b, IA32_APERF) && readable(&b, IA32_MPERF),
            fault_injection: false,
            latched_writes: true,
        };
        Ok(b)
    }

    /// The package this backend is bound to.
    pub fn package(&self) -> u32 {
        self.package
    }

    fn raw_read(&self, addr: u32) -> Result<u64, MsrError> {
        let mut buf = [0u8; 8];
        self.dev
            .read_exact_at(&mut buf, u64::from(addr))
            .map_err(|_| MsrError::Io(addr))?;
        Ok(u64::from_le_bytes(buf))
    }

    fn raw_write(&self, addr: u32, value: u64) -> Result<(), MsrError> {
        if !self.writable {
            return Err(MsrError::NotAllowed(addr));
        }
        self.dev
            .write_all_at(&value.to_le_bytes(), u64::from(addr))
            .map_err(|_| MsrError::Io(addr))
    }
}

impl MsrBackend for LinuxRaplBackend {
    fn read(&self, addr: u32) -> Result<u64, MsrError> {
        let perm = default_permission(addr).ok_or(MsrError::Unknown(addr))?;
        if !perm.read {
            return Err(MsrError::NotAllowed(addr));
        }
        if !self.caps.supports(addr) {
            return Err(MsrError::Unsupported(addr));
        }
        self.raw_read(addr)
    }

    fn write(&mut self, addr: u32, value: u64) -> Result<(), MsrError> {
        let perm = default_permission(addr).ok_or(MsrError::Unknown(addr))?;
        if !perm.write {
            return Err(MsrError::NotAllowed(addr));
        }
        if !self.caps.supports(addr) {
            return Err(MsrError::Unsupported(addr));
        }
        self.raw_write(addr, value)
    }

    /// Real hardware advances itself; the simulated clock is ignored.
    fn advance_to(&mut self, _now: Nanos) {}

    /// No simulated events: the device never needs to truncate a
    /// macro-step.
    fn next_event_hint(&self, _now: Nanos) -> Option<Nanos> {
        None
    }

    fn capabilities(&self) -> Capabilities {
        self.caps
    }

    fn hw_read(&self, addr: u32) -> u64 {
        self.raw_read(addr).unwrap_or(0)
    }

    /// Hardware-authoritative: the silicon owns its counters, so
    /// hw-side writes (the *simulated* silicon updating APERF/energy)
    /// are dropped silently when the device refuses them.
    fn hw_write(&mut self, addr: u32, value: u64) {
        let _ = self.raw_write(addr, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // These run wherever `--features rapl` tests run — usually a machine
    // with no MSR device at all — so they assert the *degradation*
    // contract, not live hardware behaviour.

    #[test]
    fn discovery_never_panics_and_is_sorted() {
        let pkgs = discover_packages();
        assert!(pkgs.windows(2).all(|w| w[0].package < w[1].package));
    }

    #[test]
    fn probe_degrades_to_unsupported_without_hardware() {
        match LinuxRaplBackend::probe(0) {
            Ok(b) => {
                // Live hardware: the keystone register answered, and the
                // capability mask must be internally consistent.
                assert!(b.capabilities().energy_status || b.capabilities().power_limit);
                assert!(!b.capabilities().fault_injection);
            }
            Err(e) => assert!(
                matches!(e, MsrError::Unsupported(_)),
                "probe must degrade cleanly, got {e}"
            ),
        }
    }

    #[test]
    fn real_registers_have_no_control_epoch() {
        // Other processes write real registers, so the node must re-read
        // them every step.
        let b = LinuxRaplBackend {
            dev: File::open("/dev/null").unwrap(),
            package: 0,
            writable: false,
            caps: Capabilities::none(),
        };
        assert_eq!(b.control_epoch(), None);
    }

    #[test]
    fn missing_package_is_unsupported() {
        // No machine has 10k sockets.
        assert!(matches!(
            LinuxRaplBackend::probe(10_000),
            Err(MsrError::Unsupported(_))
        ));
    }
}
