//! Opt-in package thermal model.
//!
//! The paper's related work (Bhalachandra et al., which it cites for DDCM)
//! observes that "with power capping, non-optimal programs speed up with
//! frequency reduction due to an increase in overall thermal headroom to
//! the critical path". That effect needs a thermal state to exist at all:
//! this module adds a first-order RC junction model with
//! temperature-dependent leakage and a PROCHOT-style throttle.
//!
//! Disabled by default (`NodeConfig::thermal = None`), so the calibrated
//! experiments are unaffected; the thermal ablations opt in explicitly.

use serde::{Deserialize, Serialize};

/// Ambient / coolant temperature, °C.
const AMBIENT_C: f64 = 40.0;

/// Hysteresis below the trip point before throttling releases, °C.
const HYSTERESIS_C: f64 = 3.0;

/// Relative leakage increase per °C above [`LEAK_REF_C`] (+0.8 %/°C).
const LEAK_TEMP_COEFF: f64 = 0.008;

/// Reference temperature for the calibrated leakage value, °C.
const LEAK_REF_C: f64 = 70.0;

/// Thermal model parameters. The package sits in a 40 °C inlet, PROCHOT
/// releases 3 °C below its trip point, and leakage grows 0.8 %/°C above
/// the 70 °C it was calibrated at.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThermalConfig {
    /// Junction-to-ambient thermal resistance, °C per W (package level).
    pub r_th_c_per_w: f64,
    /// First-order thermal time constant, seconds.
    pub tau_s: f64,
    /// PROCHOT throttle trip point, °C.
    pub throttle_c: f64,
}

impl Default for ThermalConfig {
    /// A server-class package: 40 °C inlet, ~0.30 °C/W to ambient, ~8 s
    /// time constant, 95 °C PROCHOT.
    fn default() -> Self {
        Self {
            r_th_c_per_w: 0.30,
            tau_s: 8.0,
            throttle_c: 95.0,
        }
    }
}

impl ThermalConfig {
    /// Validate physical plausibility.
    ///
    /// # Panics
    /// Panics on non-physical parameters.
    pub fn validate(&self) {
        assert!(self.r_th_c_per_w > 0.0 && self.tau_s > 0.0);
        assert!(self.throttle_c > AMBIENT_C, "trip below ambient");
    }

    /// Steady-state junction temperature at constant package power.
    pub fn steady_state_c(&self, power_w: f64) -> f64 {
        AMBIENT_C + self.r_th_c_per_w * power_w
    }

    /// The highest package power this cooling solution can sustain
    /// without ever asserting PROCHOT: the power whose steady-state
    /// temperature sits at the bottom of the hysteresis band
    /// (3 °C below `throttle_c`). Granting a node more than this is
    /// wasted — the thermal throttle claws the excess back — which is
    /// why the cluster arbiter clamps a node's grant ceiling here.
    pub fn sustainable_power_w(&self) -> f64 {
        (self.throttle_c - HYSTERESIS_C - AMBIENT_C) / self.r_th_c_per_w
    }
}

/// Thermal state integrated by the node.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThermalState {
    cfg: ThermalConfig,
    /// Current junction temperature, °C.
    temp_c: f64,
    /// PROCHOT currently asserted.
    throttling: bool,
}

impl ThermalState {
    /// Start at ambient.
    pub fn new(cfg: ThermalConfig) -> Self {
        cfg.validate();
        Self {
            temp_c: AMBIENT_C,
            throttling: false,
            cfg,
        }
    }

    /// Current junction temperature, °C.
    pub fn temperature_c(&self) -> f64 {
        self.temp_c
    }

    /// Whether PROCHOT is asserted (the node forces its lowest P-state).
    pub fn throttling(&self) -> bool {
        self.throttling
    }

    /// Leakage multiplier at the current temperature.
    pub fn leak_factor(&self) -> f64 {
        1.0 + LEAK_TEMP_COEFF * (self.temp_c - LEAK_REF_C)
    }

    /// Integrate one step of `dt_s` seconds at package power `power_w`,
    /// updating temperature and the throttle latch.
    pub fn step(&mut self, power_w: f64, dt_s: f64) {
        let target = self.cfg.steady_state_c(power_w);
        let alpha = (dt_s / self.cfg.tau_s).min(1.0);
        self.temp_c += alpha * (target - self.temp_c);
        if self.temp_c >= self.cfg.throttle_c {
            self.throttling = true;
        } else if self.temp_c <= self.cfg.throttle_c - HYSTERESIS_C {
            self.throttling = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_to_steady(state: &mut ThermalState, power: f64, seconds: f64) {
        let dt = 1e-3;
        let steps = (seconds / dt) as usize;
        for _ in 0..steps {
            state.step(power, dt);
        }
    }

    #[test]
    fn temperature_converges_to_the_rc_steady_state() {
        let cfg = ThermalConfig::default();
        let expected = cfg.steady_state_c(150.0);
        let mut s = ThermalState::new(cfg);
        run_to_steady(&mut s, 150.0, 60.0);
        assert!(
            (s.temperature_c() - expected).abs() < 0.1,
            "T {} vs steady {expected}",
            s.temperature_c()
        );
    }

    #[test]
    fn capping_creates_thermal_headroom() {
        // The Bhalachandra observation: a capped package settles cooler,
        // which reduces leakage.
        let cfg = ThermalConfig::default();
        let mut hot = ThermalState::new(cfg.clone());
        let mut cool = ThermalState::new(cfg);
        run_to_steady(&mut hot, 150.0, 60.0);
        run_to_steady(&mut cool, 90.0, 60.0);
        assert!(cool.temperature_c() < hot.temperature_c() - 10.0);
        assert!(cool.leak_factor() < hot.leak_factor());
    }

    #[test]
    fn prochot_latches_with_hysteresis() {
        let cfg = ThermalConfig {
            r_th_c_per_w: 0.40,
            ..ThermalConfig::default()
        };
        let mut s = ThermalState::new(cfg);
        // 180 W × 0.40 + 40 = 112 °C steady → must trip.
        run_to_steady(&mut s, 180.0, 40.0);
        assert!(s.throttling(), "should trip at {:.1} °C", s.temperature_c());
        // Cooling to just below the trip point keeps the latch...
        while s.temperature_c() > 93.5 {
            s.step(20.0, 1e-3);
        }
        assert!(s.throttling(), "hysteresis holds the latch");
        // ...until the hysteresis band clears.
        run_to_steady(&mut s, 20.0, 40.0);
        assert!(!s.throttling());
    }

    #[test]
    fn leak_factor_is_one_at_reference() {
        let cfg = ThermalConfig::default();
        let mut s = ThermalState::new(cfg.clone());
        // Drive to the reference temperature exactly.
        let p = (LEAK_REF_C - AMBIENT_C) / cfg.r_th_c_per_w;
        run_to_steady(&mut s, p, 80.0);
        assert!((s.leak_factor() - 1.0).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "trip below ambient")]
    fn invalid_trip_point_rejected() {
        ThermalState::new(ThermalConfig {
            throttle_c: 20.0,
            ..ThermalConfig::default()
        });
    }
}
