//! The assembled progress-under-power-cap predictor.
//!
//! [`ProgressModel`] bundles an application's characterization (β, the
//! uncapped progress rate, the uncapped core power) with the model
//! parameter α, and answers the three questions the paper says the model
//! is for (§VI, opening bullets):
//!
//! 1. *predict* the impact of a package cap on progress (Eq. 7);
//! 2. *validate* assumptions about RAPL behaviour (via [`crate::fit`]);
//! 3. *decide the exact power budget* for a target progress rate — the
//!    inverse query, solved in closed form here.

use serde::{Deserialize, Serialize};

use crate::eqs::{eq4_progress_at_core_power, eq5_corecap, eq7_delta_progress};

/// The paper's fixed model exponent: "α is assumed to have a value of 2
/// for all model predictions" (§VI.2).
pub const PAPER_ALPHA: f64 = 2.0;

/// A characterized application + model parameters.
///
/// ```
/// use powermodel::predict::{ProgressModel, PAPER_ALPHA};
///
/// // QMCPACK-like: beta = 0.84, 148 W uncapped, 16 blocks/s.
/// let m = ProgressModel::from_uncapped_run(0.84, PAPER_ALPHA, 148.0, 16.0);
/// // Predict the progress under a 90 W package cap (Eqs. 5 + 4)...
/// let rate = m.predict_rate(90.0);
/// assert!(rate > 10.0 && rate < 16.0);
/// // ...and invert: which cap sustains 14 blocks/s?
/// let cap = m.required_cap_for_rate(14.0).unwrap();
/// assert!((m.predict_rate(cap) - 14.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProgressModel {
    /// Compute-boundedness β ∈ [0, 1].
    pub beta: f64,
    /// Core power-law exponent α.
    pub alpha: f64,
    /// Core power at `f_max`, watts — the paper estimates it as
    /// `β · P_package(uncapped)` consistent with its Eq. (5) assumption.
    pub p_coremax: f64,
    /// Uncapped progress rate `r(P_coremax)`, in the app's metric units/s.
    pub r_max: f64,
}

impl ProgressModel {
    /// Build a model, validating parameter ranges.
    ///
    /// # Panics
    /// Panics on non-physical parameters.
    pub fn new(beta: f64, alpha: f64, p_coremax: f64, r_max: f64) -> Self {
        assert!((0.0..=1.0).contains(&beta), "beta in [0,1]");
        assert!(alpha > 0.0, "alpha positive");
        assert!(p_coremax > 0.0, "p_coremax positive");
        assert!(r_max > 0.0, "r_max positive");
        Self {
            beta,
            alpha,
            p_coremax,
            r_max,
        }
    }

    /// Build from an uncapped characterization run: package power and
    /// progress rate, plus β. Uses the paper's `P_coremax = β · P_pkg`
    /// estimate (consistent with Eq. 5).
    pub fn from_uncapped_run(beta: f64, alpha: f64, pkg_power_uncapped: f64, r_max: f64) -> Self {
        Self::new(beta, alpha, (beta * pkg_power_uncapped).max(1e-6), r_max)
    }

    /// The effective core budget RAPL is assumed to allocate under a
    /// package cap (Eq. 5), clamped at `P_coremax` (caps above the
    /// uncapped draw change nothing).
    pub fn corecap(&self, p_cap: f64) -> f64 {
        eq5_corecap(self.beta, p_cap).min(self.p_coremax)
    }

    /// Predicted progress rate under a package cap (Eq. 4 after Eq. 5).
    pub fn predict_rate(&self, p_cap: f64) -> f64 {
        eq4_progress_at_core_power(
            self.r_max,
            self.beta,
            self.alpha,
            self.p_coremax,
            self.corecap(p_cap),
        )
    }

    /// Predicted progress rate at a given *core* power budget (Eq. 4).
    pub fn predict_rate_at_corecap(&self, p_corecap: f64) -> f64 {
        eq4_progress_at_core_power(
            self.r_max,
            self.beta,
            self.alpha,
            self.p_coremax,
            p_corecap.min(self.p_coremax),
        )
    }

    /// Predicted *change in progress* caused by applying a package cap
    /// from the uncapped state (Eq. 7).
    pub fn predict_delta(&self, p_cap: f64) -> f64 {
        eq7_delta_progress(
            self.r_max,
            self.beta,
            self.alpha,
            self.p_coremax,
            self.corecap(p_cap),
        )
    }

    /// Predicted change in progress at a given *core* budget (Eq. 7).
    pub fn predict_delta_at_corecap(&self, p_corecap: f64) -> f64 {
        eq7_delta_progress(
            self.r_max,
            self.beta,
            self.alpha,
            self.p_coremax,
            p_corecap.min(self.p_coremax),
        )
    }

    /// **Inverse query**: the smallest package cap that sustains a target
    /// progress rate, in watts — "be able to decide on the exact power
    /// budget to be employed given an expectation of online performance"
    /// (§VI). Returns `None` when the target exceeds `r_max` (no cap can
    /// speed the application up) and the uncapped-equivalent cap when the
    /// target equals `r_max`.
    ///
    /// Closed form: invert Eq. (4) for `P_corecap`, then Eq. (5) for
    /// `P_cap`. For β = 0 any cap works; the minimum cap is returned as 0.
    pub fn required_cap_for_rate(&self, target_rate: f64) -> Option<f64> {
        assert!(target_rate > 0.0, "target rate must be positive");
        if target_rate > self.r_max * (1.0 + 1e-12) {
            return None;
        }
        if self.beta == 0.0 {
            return Some(0.0);
        }
        // Eq. 4: r = r_max / (β((Pmax/Pc)^{1/α} − 1) + 1)
        // ⇒ (Pmax/Pc)^{1/α} = (r_max/r − 1)/β + 1
        let x = (self.r_max / target_rate - 1.0) / self.beta + 1.0;
        let p_corecap = self.p_coremax / x.powf(self.alpha);
        Some(p_corecap / self.beta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lammps_like() -> ProgressModel {
        // β = 1.0, uncapped package 155 W, 1.08e6 atom-steps/s.
        ProgressModel::from_uncapped_run(1.0, PAPER_ALPHA, 155.0, 1.08e6)
    }

    #[test]
    fn caps_above_uncapped_power_are_no_ops() {
        let m = lammps_like();
        assert!((m.predict_rate(200.0) - m.r_max).abs() < 1e-9);
        assert!(m.predict_delta(200.0).abs() < 1e-9);
    }

    /// The paper's chain from a package cap to progress: Eq. 5 splits
    /// the cap, Eq. 6 spends the core budget whole, Eq. 4 prices it.
    #[test]
    fn eq6_chain_reproduces_the_package_cap_prediction_bit_for_bit() {
        use crate::eqs::eq6_core_power;
        for x in [0.0, -0.0, 1e-300, 37.5, 155.0, f64::INFINITY] {
            assert_eq!(eq6_core_power(x).to_bits(), x.to_bits(), "Eq. 6 at {x}");
        }
        for (beta, pkg) in [(1.0, 155.0), (0.84, 148.0), (0.37, 120.0)] {
            let m = ProgressModel::from_uncapped_run(beta, PAPER_ALPHA, pkg, 16.0);
            for cap in [40.0, 60.0, 80.5, 100.0, 150.0, 400.0] {
                let chained = m.predict_rate_at_corecap(eq6_core_power(m.corecap(cap)));
                assert_eq!(
                    chained.to_bits(),
                    m.predict_rate(cap).to_bits(),
                    "{m:?} at {cap} W"
                );
            }
            for core_cap in [m.p_coremax, m.p_coremax * 1.5, f64::INFINITY] {
                assert_eq!(
                    m.predict_rate_at_corecap(core_cap).to_bits(),
                    m.r_max.to_bits()
                );
            }
        }
    }

    #[test]
    fn delta_grows_as_cap_shrinks() {
        let m = lammps_like();
        let mut prev = -1.0;
        for cap in [150.0, 120.0, 100.0, 80.0, 60.0, 40.0] {
            let d = m.predict_delta(cap);
            assert!(d > prev, "delta must grow as the cap tightens");
            prev = d;
        }
    }

    #[test]
    fn rate_plus_delta_equals_r_max() {
        let m = ProgressModel::new(0.84, 2.0, 120.0, 16.0);
        for cap in [60.0, 90.0, 130.0] {
            let s = m.predict_rate(cap) + m.predict_delta(cap);
            assert!((s - m.r_max).abs() < 1e-9);
        }
    }

    #[test]
    fn inverse_query_roundtrips() {
        let m = ProgressModel::new(0.84, 2.0, 120.0, 16.0);
        for cap in [50.0, 80.0, 110.0] {
            let rate = m.predict_rate(cap);
            let back = m.required_cap_for_rate(rate).unwrap();
            assert!(
                (back - cap).abs() < 1e-6,
                "cap {cap} → rate {rate} → cap {back}"
            );
        }
    }

    #[test]
    fn inverse_query_rejects_impossible_targets() {
        let m = lammps_like();
        assert!(m.required_cap_for_rate(m.r_max * 1.1).is_none());
    }

    #[test]
    fn memory_bound_inverse_query_is_zero_cap() {
        let m = ProgressModel::new(0.0, 2.0, 50.0, 10.0);
        assert_eq!(m.required_cap_for_rate(10.0), Some(0.0));
    }

    #[test]
    fn from_uncapped_run_applies_beta_split() {
        let m = ProgressModel::from_uncapped_run(0.37, 2.0, 119.0, 16.0);
        assert!((m.p_coremax - 0.37 * 119.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "beta in [0,1]")]
    fn invalid_beta_rejected() {
        ProgressModel::new(1.5, 2.0, 100.0, 1.0);
    }
}
