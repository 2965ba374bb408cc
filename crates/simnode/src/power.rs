//! Core power model.
//!
//! Per-core power is the sum of a *dynamic* term `C · V(f)² · f` and a
//! *static* (leakage) term proportional to voltage. The voltage/frequency
//! curve is linear above a floor frequency and clamped at `v_min` below it.
//! This floor is what makes the effective exponent of `P ∝ f^α` drift:
//!
//! - near the top of the ladder, voltage scales with frequency, so power
//!   grows ~cubically (α ≈ 3);
//! - below the voltage floor, only `f` scales, so power grows linearly
//!   (α ≈ 1).
//!
//! The paper fixes α = 2 in its model and reports that the "true" value
//! drifts between 1 and 4 depending on the cap range (Section VI.3); this
//! model reproduces that drift mechanistically.

use serde::{Deserialize, Serialize};

#[cfg(doc)]
use crate::bandwidth::UncoreConfig;
use crate::bandwidth::UncoreLevel;
use crate::config::NodeConfig;
use crate::ddcm::DutyCycle;
use crate::freq::PState;

/// Parameters for the per-core power model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CorePowerConfig {
    /// Supply voltage at (and below) the voltage-floor frequency, in volts.
    pub v_min: f64,
    /// Supply voltage at the maximum ladder frequency, in volts.
    pub v_max: f64,
    /// Frequency (MHz) below which voltage stays at `v_min`.
    pub f_vfloor_mhz: f64,
    /// Maximum ladder frequency (MHz) at which `v_max` applies.
    pub f_vmax_mhz: f64,
    /// Convexity of the voltage/frequency curve: voltage follows
    /// `t^v_curve_exp` between the floor and `f_vmax`. Values above 1 make
    /// the top of the ladder voltage-hungry (effective alpha ~ 2.2-2.7
    /// there) while the floor region stays alpha ~ 1 — the drift the paper
    /// observes (alpha between 1 and 4 depending on the cap range).
    pub v_curve_exp: f64,
    /// Effective switched capacitance: dynamic W per (GHz · V²) per core at
    /// full activity.
    pub c_dyn: f64,
    /// Leakage coefficient: static W per volt per core.
    pub leak_per_volt: f64,
}

impl CorePowerConfig {
    /// Supply voltage at core frequency `f_mhz`.
    pub fn voltage(&self, f_mhz: f64) -> f64 {
        if f_mhz <= self.f_vfloor_mhz {
            self.v_min
        } else {
            let t = ((f_mhz - self.f_vfloor_mhz) / (self.f_vmax_mhz - self.f_vfloor_mhz))
                .clamp(0.0, 1.0);
            self.v_min + t.powf(self.v_curve_exp) * (self.v_max - self.v_min)
        }
    }

    /// Dynamic power of one fully active core at `f_mhz`, full duty, in W.
    pub fn dynamic_full(&self, f_mhz: f64) -> f64 {
        let v = self.voltage(f_mhz);
        self.c_dyn * v * v * (f_mhz * 1e-3)
    }

    /// Dynamic power of one core at `f_mhz` with duty cycle `duty` and
    /// activity factor `activity` in [0, 1].
    ///
    /// DDCM gates the clock, so dynamic power scales with the duty
    /// fraction; leakage (static) does not, which is exactly why duty
    /// cycling is a power-inefficient last resort for RAPL.
    pub fn dynamic(&self, f_mhz: f64, duty: DutyCycle, activity: f64) -> f64 {
        debug_assert!((0.0..=1.0).contains(&activity));
        self.dynamic_full(f_mhz) * duty.fraction() * activity
    }

    /// Static (leakage) power of one powered core at `f_mhz`, in W.
    pub fn static_power(&self, f_mhz: f64) -> f64 {
        self.leak_per_volt * self.voltage(f_mhz)
    }

    /// Total power of one core given its utilisation mix.
    ///
    /// `activity` is the effective dynamic-activity factor over the
    /// interval (1.0 for pure compute or spin, `stall_dyn_frac` while
    /// memory-stalled, 0 when idle); `cstate_frac` scales leakage when the
    /// core is sleeping.
    pub fn core_power(&self, f_mhz: f64, duty: DutyCycle, activity: f64, static_scale: f64) -> f64 {
        self.dynamic(f_mhz, duty, activity) + self.static_power(f_mhz) * static_scale
    }

    /// Local power-law exponent α of `P_dyn(f)` at `f_mhz`, estimated by a
    /// centred finite difference on the log-log curve. Exposed for the α
    /// drift ablation (the paper assumes α = 2 everywhere).
    pub fn local_alpha(&self, f_mhz: f64) -> f64 {
        let h = 25.0;
        let lo = (f_mhz - h).max(1.0);
        let hi = f_mhz + h;
        let p_lo = self.dynamic_full(lo);
        let p_hi = self.dynamic_full(hi);
        (p_hi / p_lo).ln() / (hi / lo).ln()
    }

    /// Validate physical plausibility.
    ///
    /// # Panics
    /// Panics on non-physical parameters.
    pub fn validate(&self) {
        assert!(self.v_min > 0.0 && self.v_max >= self.v_min, "bad voltages");
        assert!(
            self.f_vfloor_mhz > 0.0 && self.f_vmax_mhz > self.f_vfloor_mhz,
            "bad voltage-curve frequencies"
        );
        assert!(self.c_dyn > 0.0 && self.leak_per_volt >= 0.0);
        assert!(self.v_curve_exp > 0.0, "voltage curve exponent positive");
    }
}

/// The node's lookup tables: everything the step hot path and the RAPL
/// controller's rung searches would otherwise recompute from the
/// configuration every quantum or period.
///
/// - Per P-state: frequency as a float, full-duty/full-activity dynamic
///   power and static (leakage) power. The voltage curve behind
///   [`CorePowerConfig::dynamic_full`] and
///   [`CorePowerConfig::static_power`] costs a `powf` per evaluation.
/// - Per uncore level: the [`UncoreConfig`] bandwidth scale, total
///   bandwidth, `p_uf2·uf²` power term and per-core service ceiling, each
///   of which costs a division in [`UncoreConfig::ghz`].
///
/// The ladders are tiny and immutable, so each entry is evaluated once per
/// configuration, with the configuration's own methods, and nodes of one
/// configuration may share one copy (see
/// [`Node::with_tables`](crate::node::Node::with_tables)). Entries are
/// the exact `f64`s the direct computation produces, so reading the tables
/// is bit-neutral.
///
/// Every column is non-decreasing in its index, which the constructor
/// asserts: the controller's fit predicates are then monotone in the rung,
/// which is what lets it search the rungs instead of scanning them.
#[derive(Debug, Clone)]
pub struct NodeTables {
    mhz: Vec<f64>,
    dynamic_full: Vec<f64>,
    static_w: Vec<f64>,
    uncore_scale: Vec<f64>,
    total_bw: Vec<f64>,
    uncore_freq_w: Vec<f64>,
    service_cap: Vec<f64>,
    uncore_base_w: f64,
    uncore_w_per_gbs: f64,
}

impl NodeTables {
    /// Evaluate the power and uncore models at every rung of `cfg`.
    ///
    /// # Panics
    /// Panics if a column decreases from one rung to the next.
    pub fn new(cfg: &NodeConfig) -> Self {
        let (ladder, power, uncore) = (&cfg.ladder, &cfg.core_power, &cfg.uncore);
        let mhz: Vec<f64> = ladder.iter().map(|p| ladder.mhz(p) as f64).collect();
        let levels = || uncore.iter_levels();
        let tables = Self {
            dynamic_full: mhz.iter().map(|&f| power.dynamic_full(f)).collect(),
            static_w: mhz.iter().map(|&f| power.static_power(f)).collect(),
            mhz,
            uncore_scale: levels().map(|l| uncore.scale(l)).collect(),
            total_bw: levels().map(|l| uncore.total_bw(l)).collect(),
            uncore_freq_w: levels().map(|l| uncore.freq_power(l)).collect(),
            service_cap: levels().map(|l| uncore.service_cap(l)).collect(),
            uncore_base_w: uncore.p_base,
            uncore_w_per_gbs: uncore.p_per_gbs,
        };
        for (name, column) in [
            ("mhz", &tables.mhz),
            ("dynamic_full", &tables.dynamic_full),
            ("static_w", &tables.static_w),
            ("uncore_scale", &tables.uncore_scale),
            ("total_bw", &tables.total_bw),
            ("uncore_freq_w", &tables.uncore_freq_w),
            ("service_cap", &tables.service_cap),
        ] {
            assert!(
                column.windows(2).all(|w| w[0] <= w[1]),
                "node table column {name} must be non-decreasing: {column:?}"
            );
        }
        tables
    }

    /// Whether every entry holds the same bits as `other`'s.
    pub(crate) fn same_bits(&self, other: &Self) -> bool {
        let bits = |a: &[f64], b: &[f64]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        let Self {
            mhz,
            dynamic_full,
            static_w,
            uncore_scale,
            total_bw,
            uncore_freq_w,
            service_cap,
            uncore_base_w,
            uncore_w_per_gbs,
        } = self;
        bits(mhz, &other.mhz)
            && bits(dynamic_full, &other.dynamic_full)
            && bits(static_w, &other.static_w)
            && bits(uncore_scale, &other.uncore_scale)
            && bits(total_bw, &other.total_bw)
            && bits(uncore_freq_w, &other.uncore_freq_w)
            && bits(service_cap, &other.service_cap)
            && bits(
                &[*uncore_base_w, *uncore_w_per_gbs],
                &[other.uncore_base_w, other.uncore_w_per_gbs],
            )
    }

    /// Frequency of `p` in MHz, as `f64` (same value as
    /// `ladder.mhz(p) as f64`).
    pub fn mhz(&self, p: PState) -> f64 {
        self.mhz[p.0]
    }

    /// [`CorePowerConfig::dynamic_full`] at `p`.
    pub fn dynamic_full(&self, p: PState) -> f64 {
        self.dynamic_full[p.0]
    }

    /// [`CorePowerConfig::static_power`] at `p`.
    pub fn static_power(&self, p: PState) -> f64 {
        self.static_w[p.0]
    }

    /// [`UncoreConfig::scale`] at `level`.
    pub fn uncore_scale(&self, level: UncoreLevel) -> f64 {
        self.uncore_scale[level.0]
    }

    /// [`UncoreConfig::total_bw`] at `level`.
    pub fn total_bw(&self, level: UncoreLevel) -> f64 {
        self.total_bw[level.0]
    }

    /// [`UncoreConfig::power`] at `level` and `achieved_bw`, bit for bit.
    pub fn uncore_power(&self, level: UncoreLevel, achieved_bw: f64) -> f64 {
        self.uncore_base_w
            + self.uncore_w_per_gbs * achieved_bw * 1e-9
            + self.uncore_freq_w[level.0]
    }

    /// [`UncoreConfig::service_pipe`] at `level` and `pressure`, bit for
    /// bit.
    pub fn service_pipe(&self, level: UncoreLevel, pressure: f64) -> f64 {
        let share = self.total_bw[level.0] / pressure.max(1.0);
        share.min(self.service_cap[level.0])
    }
}

impl Default for CorePowerConfig {
    /// Calibrated so 24 fully active cores at 3300 MHz draw ≈ 133 W
    /// (dynamic + leakage), giving a ~145 W uncapped package for a
    /// compute-bound workload once the uncore floor is added.
    fn default() -> Self {
        Self {
            v_min: 0.67,
            v_max: 1.08,
            f_vfloor_mhz: 1400.0,
            f_vmax_mhz: 3300.0,
            v_curve_exp: 1.3,
            c_dyn: 1.27,
            leak_per_volt: 0.55,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> CorePowerConfig {
        CorePowerConfig::default()
    }

    #[test]
    fn voltage_curve_has_floor_and_is_monotone() {
        let c = cfg();
        assert_eq!(c.voltage(1200.0), c.v_min);
        assert_eq!(c.voltage(1400.0), c.v_min);
        assert!((c.voltage(3300.0) - c.v_max).abs() < 1e-12);
        let mut prev = 0.0;
        for f in (1200..=3300).step_by(100) {
            let v = c.voltage(f as f64);
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn alpha_drifts_from_one_to_about_three() {
        let c = cfg();
        let a_low = c.local_alpha(1250.0);
        let a_high = c.local_alpha(3200.0);
        assert!(
            (a_low - 1.0).abs() < 0.05,
            "below the voltage floor alpha ~= 1, got {a_low}"
        );
        assert!(
            a_high > 2.0 && a_high < 3.5,
            "near fmax alpha should be ~2.5-3, got {a_high}"
        );
    }

    #[test]
    fn duty_cycle_scales_dynamic_only() {
        let c = cfg();
        let full = c.core_power(3300.0, DutyCycle::FULL, 1.0, 1.0);
        let half = c.core_power(3300.0, DutyCycle::new(8), 1.0, 1.0);
        let stat = c.static_power(3300.0);
        assert!((half - (stat + (full - stat) * 0.5)).abs() < 1e-9);
    }

    #[test]
    fn package_scale_sanity() {
        // 24 fully active cores at fmax should land near 133 W.
        let c = cfg();
        let per_core = c.core_power(3300.0, DutyCycle::FULL, 1.0, 1.0);
        let pkg_cores = 24.0 * per_core;
        assert!(
            (120.0..150.0).contains(&pkg_cores),
            "24-core power at fmax = {pkg_cores:.1} W outside calibration band"
        );
    }

    #[test]
    fn tables_match_the_models_bit_for_bit() {
        let cfg = NodeConfig::default();
        let t = NodeTables::new(&cfg);
        for p in cfg.ladder.iter() {
            let f = cfg.ladder.mhz(p) as f64;
            assert_eq!(t.mhz(p).to_bits(), f.to_bits());
            assert_eq!(
                t.dynamic_full(p).to_bits(),
                cfg.core_power.dynamic_full(f).to_bits()
            );
            assert_eq!(
                t.static_power(p).to_bits(),
                cfg.core_power.static_power(f).to_bits()
            );
        }
        let u = &cfg.uncore;
        for l in u.iter_levels() {
            assert_eq!(t.uncore_scale(l).to_bits(), u.scale(l).to_bits());
            assert_eq!(t.total_bw(l).to_bits(), u.total_bw(l).to_bits());
            for bw in [0.0, 1.0, 3.3e9, 95.0e9, 1e12] {
                assert_eq!(t.uncore_power(l, bw).to_bits(), u.power(l, bw).to_bits());
            }
            for pressure in [0.0, 0.5, 1.0, 7.3, 24.0] {
                let want = u.service_pipe(l, pressure);
                assert_eq!(t.service_pipe(l, pressure).to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "must be non-decreasing")]
    fn tables_reject_a_decreasing_column() {
        let mut cfg = NodeConfig::default();
        // A voltage that falls with frequency makes leakage fall too.
        cfg.core_power.v_curve_exp = 1.0;
        cfg.core_power.v_max = 0.5;
        cfg.core_power.v_min = 0.67;
        NodeTables::new(&cfg);
    }

    #[test]
    fn idle_core_draws_only_leakage() {
        let c = cfg();
        let p = c.core_power(1200.0, DutyCycle::FULL, 0.0, 1.0);
        assert!((p - c.static_power(1200.0)).abs() < 1e-12);
    }
}
