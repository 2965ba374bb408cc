//! Node configuration.
//!
//! All physical parameters of the simulated node live here. Defaults are
//! calibrated so that the package-level numbers line up with the paper's
//! testbed (a dual-socket Xeon Gold 6126 treated as one 24-core package
//! power domain; see DESIGN.md §1): a fully compute-bound 24-core workload
//! draws ~145 W uncapped, a streaming workload ~120 W with a large uncore
//! share, and caps in the paper's 40–140 W range are all enforceable.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::backend::BackendKind;
use crate::bandwidth::UncoreConfig;
use crate::faults::FaultPlan;
use crate::freq::FrequencyLadder;
use crate::power::CorePowerConfig;
use crate::thermal::ThermalConfig;
use crate::time::{Nanos, MS, US};

/// Complete physical + control configuration of a simulated node.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NodeConfig {
    /// Number of physical cores in the package power domain.
    ///
    /// The paper disables hyperthreading and uses all 24 physical cores of
    /// the dual-socket node as one pool.
    pub cores: usize,
    /// DVFS ladder available to the package.
    pub ladder: FrequencyLadder,
    /// Core power model parameters.
    pub core_power: CorePowerConfig,
    /// Uncore (memory subsystem) model parameters.
    pub uncore: UncoreConfig,
    /// Simulation quantum. Work execution, power integration and counter
    /// accumulation all advance in steps of this size.
    pub quantum: Nanos,
    /// RAPL control period (how often the controller re-evaluates its
    /// actuator settings). Real RAPL acts on the order of milliseconds.
    pub rapl_period: Nanos,
    /// RAPL rolling-average time window (the "time window" programmed into
    /// `PKG_POWER_LIMIT`); the controller holds the *average* power over
    /// this window at or below the cap.
    pub rapl_window: Nanos,
    /// Instructions per cycle retired by a busy-wait spin loop (MPI barrier
    /// polling). This is what inflates MIPS for load-imbalanced codes in
    /// Table I of the paper.
    pub spin_ipc: f64,
    /// Instructions per second issued by a core that is nominally sleeping
    /// (timer ticks, kernel housekeeping). Small but nonzero, so the
    /// balanced Listing-1 workload still reports a plausible MIPS floor.
    pub sleep_inst_per_sec: f64,
    /// Fraction of a core's dynamic power drawn while stalled on memory
    /// (the out-of-order engine is mostly idle but not gated).
    pub stall_dyn_frac: f64,
    /// Fraction of a core's *static* power drawn while in a sleep C-state.
    pub cstate_static_frac: f64,
    /// Optional package thermal model (temperature-dependent leakage +
    /// PROCHOT throttling). `None` (the default) disables it, leaving the
    /// calibrated experiments untouched.
    pub thermal: Option<ThermalConfig>,
    /// Optional fault-injection plan applied at the MSR boundary (see
    /// [`crate::faults`]). `None` (the default) leaves every access path
    /// untouched, so fault-free runs are bit-identical to a build without
    /// the framework. `Arc`-shared so cluster specs and multi-node sweeps
    /// reuse one allocation instead of deep-cloning the plan per member.
    pub faults: Option<Arc<FaultPlan>>,
    /// Which register-file backend sits behind the node's MSR boundary
    /// (see [`crate::backend`]). [`BackendKind::Sim`] (the default) is
    /// the seed's closed-form register file, bit-identical to the
    /// pre-trait device.
    pub backend: BackendKind,
}

impl NodeConfig {
    /// Convenient accessor: nominal maximum frequency in MHz.
    pub fn fmax_mhz(&self) -> u32 {
        self.ladder.fmax_mhz()
    }

    /// Validate internal consistency. Called by [`crate::node::Node::new`].
    ///
    /// # Panics
    /// Panics on configurations that cannot be simulated (zero cores,
    /// quantum larger than the control period, non-physical fractions).
    pub fn validate(&self) {
        assert!(self.cores > 0, "node must have at least one core");
        assert!(self.quantum >= US, "quantum below 1us is needlessly slow");
        assert!(
            self.rapl_period >= self.quantum,
            "RAPL cannot act faster than the simulation quantum"
        );
        assert!(
            self.rapl_window >= self.rapl_period,
            "RAPL averaging window shorter than its control period"
        );
        assert!(self.spin_ipc > 0.0 && self.spin_ipc < 8.0);
        assert!((0.0..=1.0).contains(&self.stall_dyn_frac));
        assert!((0.0..=1.0).contains(&self.cstate_static_frac));
        self.core_power.validate();
        self.uncore.validate();
        if let Some(t) = &self.thermal {
            t.validate();
        }
        if let Some(f) = &self.faults {
            f.validate();
        }
        assert!(
            self.backend.is_available(),
            "backend {:?} is not compiled into this build (rebuild with --features rapl)",
            self.backend
        );
    }
}

impl Default for NodeConfig {
    fn default() -> Self {
        Self {
            cores: 24,
            ladder: FrequencyLadder::default(),
            core_power: CorePowerConfig::default(),
            uncore: UncoreConfig::default(),
            quantum: 100 * US,
            rapl_period: MS,
            rapl_window: 10 * MS,
            spin_ipc: 2.1,
            sleep_inst_per_sec: 170.0e6,
            stall_dyn_frac: 0.45,
            cstate_static_frac: 0.30,
            thermal: None,
            faults: None,
            backend: BackendKind::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        NodeConfig::default().validate();
    }

    #[test]
    fn default_matches_paper_testbed_shape() {
        let c = NodeConfig::default();
        assert_eq!(c.cores, 24);
        assert_eq!(c.fmax_mhz(), 3300);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        let c = NodeConfig {
            cores: 0,
            ..NodeConfig::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "RAPL cannot act faster")]
    fn rapl_faster_than_quantum_rejected() {
        let c = NodeConfig {
            quantum: 2 * MS,
            ..NodeConfig::default()
        };
        c.validate();
    }
}
