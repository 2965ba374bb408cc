//! The RAPL package power-cap controller.
//!
//! The paper treats RAPL as a black box and notes "no published work
//! accurately describes or models RAPL's internal behavior" (§V.A.1). This
//! module is our mechanistic stand-in, built to match the *observable*
//! behaviour the paper reports:
//!
//! 1. **Application-aware budget split** (paper Fig. 2): the package budget
//!    is divided between core and uncore in proportion to their *observed
//!    demand* — a compute-bound code gets nearly the whole budget as core
//!    power and hence a higher frequency than a memory-bound code under the
//!    same cap.
//! 2. **DVFS first**: the controller selects the highest P-state whose
//!    estimated core power fits the core budget.
//! 3. **DDCM fallback**: if even the lowest P-state exceeds the budget,
//!    clock modulation engages. This is disproportionately harmful to
//!    progress (leakage and uncore power remain), and is exactly the
//!    mechanism behind the paper's model *under*-estimating the impact of
//!    stringent caps (Fig. 4a, 4d).
//! 4. **Uncore frequency scaling**: the uncore budget selects an uncore
//!    level; throttling it cuts memory bandwidth, the second mechanism the
//!    paper's DVFS-only model cannot see (Fig. 5).
//! 5. **Averaging feedback**: a small integral term steers the rolling
//!    average over the programmed time window toward the cap, mirroring
//!    RAPL's "average power over the time window" contract.

use serde::{Deserialize, Serialize};

use crate::bandwidth::UncoreLevel;
use crate::config::NodeConfig;
use crate::ddcm::DutyCycle;
use crate::freq::PState;
use crate::msr::PowerLimit;
use crate::power::PStateTables;

/// Aggregate activity observed over the last control period, used by the
/// controller to estimate core/uncore power demand.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ActivitySnapshot {
    /// Sum over cores of the dynamic-activity factor (1.0 = fully active).
    pub compute_weight: f64,
    /// Sum over cores of the *busy* (unhalted) fraction — compute and
    /// memory-stall time both count. The controller budgets against this
    /// pessimistic weight: a stalled core is unhalted and can turn fully
    /// active within the averaging window, so the chosen P-state must be
    /// safe even then. This is what pushes memory-bound codes to lower
    /// frequencies than compute-bound ones under the same cap (Fig. 2).
    pub busy_weight: f64,
    /// Number of cores that are powered (not in a sleep C-state).
    pub powered_cores: f64,
    /// Achieved memory traffic over the period, bytes/s.
    pub achieved_bw: f64,
}

impl ActivitySnapshot {
    /// A snapshot representing a completely idle node.
    pub fn idle(cores: usize) -> Self {
        Self {
            compute_weight: 0.0,
            busy_weight: 0.0,
            powered_cores: cores as f64,
            achieved_bw: 0.0,
        }
    }
}

/// The actuator settings chosen by the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Actuation {
    /// Core P-state.
    pub pstate: PState,
    /// DDCM duty cycle.
    pub duty: DutyCycle,
    /// Uncore frequency level.
    pub uncore: UncoreLevel,
}

/// RAPL controller state.
#[derive(Debug, Clone)]
pub struct RaplController {
    /// Integral feedback correction, watts.
    bias_w: f64,
    /// Last decoded power limit (for introspection/tests).
    last_limit: Option<f64>,
    /// Uncore level programmed by the previous decision; used to scale
    /// *achieved* traffic back into a *demand* estimate (throttled traffic
    /// under-reports demand, which would otherwise starve the uncore
    /// through positive feedback).
    last_uncore: Option<UncoreLevel>,
}

impl RaplController {
    /// A freshly reset controller.
    pub fn new() -> Self {
        Self {
            bias_w: 0.0,
            last_limit: None,
            last_uncore: None,
        }
    }

    /// The cap in force at the last control decision, if any.
    pub fn last_limit(&self) -> Option<f64> {
        self.last_limit
    }

    /// Make a control decision for the next period.
    ///
    /// `limit` is the decoded `MSR_PKG_POWER_LIMIT` in force; `tables` must
    /// be built from `cfg`'s ladder and power model (the node owns one);
    /// `avg_power` is the measured rolling-average package power over the
    /// programmed RAPL window.
    pub fn control(
        &mut self,
        cfg: &NodeConfig,
        limit: PowerLimit,
        tables: &PStateTables,
        activity: &ActivitySnapshot,
        avg_power: f64,
    ) -> Actuation {
        self.last_limit = limit.watts;

        let Some(cap) = limit.watts else {
            // Uncapped: run everything flat out.
            self.bias_w = 0.0;
            self.last_uncore = Some(cfg.uncore.max_level());
            return Actuation {
                pstate: cfg.ladder.max_pstate(),
                duty: DutyCycle::FULL,
                uncore: cfg.uncore.max_level(),
            };
        };

        // Integral feedback on the rolling average. Gain and clamp are small:
        // the demand estimator does the heavy lifting, feedback only trims
        // estimation error.
        if avg_power > 0.0 {
            self.bias_w += 0.15 * (cap - avg_power);
            // Small clamp: RAPL is conservative — it reclaims headroom
            // cautiously, so estimator-driven undershoot (memory-bound
            // codes) largely persists rather than being fed back into
            // frequency.
            self.bias_w = self.bias_w.clamp(-0.10 * cap, 0.10 * cap);
        }
        let budget = (cap + self.bias_w).max(1.0);

        // Demand estimation at full throttle ("what would each domain draw
        // if unconstrained right now?").
        let core_demand =
            est_core_power(tables, cfg.ladder.max_pstate(), DutyCycle::FULL, activity);
        // Traffic achieved under a throttled uncore under-reports what the
        // cores would consume unthrottled; scale it back by the bandwidth
        // ratio of the level currently in force.
        let demand_bw = match self.last_uncore {
            Some(l) => (activity.achieved_bw / cfg.uncore.scale(l)).min(cfg.uncore.peak_bw),
            None => activity.achieved_bw,
        };
        let uncore_demand = cfg.uncore.power(cfg.uncore.max_level(), demand_bw);

        // Application-aware split (paper Fig. 2): the budget divides in
        // proportion to observed demand, so a compute-bound code pushes
        // nearly the whole cap into the core domain while a streaming code
        // cedes a large share to the uncore. Whatever the cores cannot use
        // (P-state quantization) flows back to the uncore.
        let total_demand = (core_demand + uncore_demand).max(1e-9);
        let core_budget = budget * core_demand / total_demand;
        let uncore_budget0 = budget - core_budget;

        // DVFS: highest P-state fitting the core budget.
        let mut pstate = cfg.ladder.min_pstate();
        let mut fits = false;
        for p in cfg.ladder.iter().rev() {
            if est_core_power(tables, p, DutyCycle::FULL, activity) <= core_budget {
                pstate = p;
                fits = true;
                break;
            }
        }

        // DDCM fallback at the lowest P-state.
        let duty = if fits {
            DutyCycle::FULL
        } else {
            DutyCycle::all()
                .rev()
                .find(|&d| {
                    est_core_power(tables, cfg.ladder.min_pstate(), d, activity) <= core_budget
                })
                .unwrap_or(DutyCycle::MIN)
        };

        // Core surplus (quantization slack) flows to the uncore.
        let core_est = est_core_power(tables, pstate, duty, activity);
        let uncore_budget = uncore_budget0 + (core_budget - core_est).max(0.0);

        // Uncore: highest level fitting the uncore budget, assuming traffic
        // saturates whatever bandwidth the level offers (worst case).
        let uncore = cfg
            .uncore
            .iter_levels()
            .rev()
            .find(|&l| {
                let bw = demand_bw.min(cfg.uncore.total_bw(l));
                cfg.uncore.power(l, bw) <= uncore_budget + 1e-9
            })
            .unwrap_or(cfg.uncore.min_level());
        self.last_uncore = Some(uncore);

        Actuation {
            pstate,
            duty,
            uncore,
        }
    }
}

/// Estimated aggregate core power at P-state `p` / duty `duty`.
/// Deliberately pessimistic: unhalted (busy) cores are budgeted at
/// full dynamic activity, because RAPL must hold the cap even if their
/// stall time turns into compute within the averaging window.
fn est_core_power(
    tables: &PStateTables,
    p: PState,
    duty: DutyCycle,
    activity: &ActivitySnapshot,
) -> f64 {
    let dyn_p = tables.dynamic_full(p) * duty.fraction() * activity.busy_weight;
    let static_p = tables.static_power(p) * activity.powered_cores;
    dyn_p + static_p
}

impl Default for RaplController {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::MS;

    fn power_limit(watts: Option<f64>) -> PowerLimit {
        PowerLimit {
            watts,
            window: 10 * MS,
        }
    }

    fn compute_bound(cores: usize) -> ActivitySnapshot {
        ActivitySnapshot {
            compute_weight: cores as f64,
            busy_weight: cores as f64,
            powered_cores: cores as f64,
            achieved_bw: 3.0e9,
        }
    }

    fn memory_bound(cores: usize) -> ActivitySnapshot {
        // Cores 100% busy (37% compute, 63% stall), pushing 95 GB/s.
        ActivitySnapshot {
            compute_weight: cores as f64 * 0.72,
            busy_weight: cores as f64,
            powered_cores: cores as f64,
            achieved_bw: 95.0e9,
        }
    }

    #[test]
    fn uncapped_runs_flat_out() {
        let cfg = NodeConfig::default();
        let tables = PStateTables::new(&cfg.ladder, &cfg.core_power);
        let mut r = RaplController::new();
        let a = r.control(&cfg, power_limit(None), &tables, &compute_bound(24), 150.0);
        assert_eq!(a.pstate, cfg.ladder.max_pstate());
        assert_eq!(a.duty, DutyCycle::FULL);
        assert_eq!(a.uncore, cfg.uncore.max_level());
    }

    #[test]
    fn application_aware_split_gives_compute_bound_higher_frequency() {
        // Paper Fig. 2: under the same cap, RAPL runs compute-bound codes at
        // a higher frequency than memory-bound ones.
        let cfg = NodeConfig::default();
        let tables = PStateTables::new(&cfg.ladder, &cfg.core_power);
        let limit = power_limit(Some(90.0));
        let mut r1 = RaplController::new();
        let mut r2 = RaplController::new();
        let a_compute = r1.control(&cfg, limit, &tables, &compute_bound(24), 90.0);
        let a_memory = r2.control(&cfg, limit, &tables, &memory_bound(24), 90.0);
        let f_c = cfg.ladder.mhz(a_compute.pstate);
        let f_m = cfg.ladder.mhz(a_memory.pstate);
        assert!(
            f_c > f_m,
            "compute-bound f={f_c} MHz should exceed memory-bound f={f_m} MHz"
        );
    }

    #[test]
    fn stringent_cap_engages_ddcm() {
        // Below ~25 W of core budget even f_min exceeds the allocation
        // (24 cores x ~1.05 W), so clock modulation must engage.
        let cfg = NodeConfig::default();
        let tables = PStateTables::new(&cfg.ladder, &cfg.core_power);
        let limit = power_limit(Some(25.0));
        let mut r = RaplController::new();
        let a = r.control(&cfg, limit, &tables, &compute_bound(24), 25.0);
        assert_eq!(a.pstate, cfg.ladder.min_pstate());
        assert!(!a.duty.is_full(), "expected duty cycling under a 25 W cap");
    }

    #[test]
    fn stringent_cap_throttles_uncore_for_streaming() {
        let cfg = NodeConfig::default();
        let tables = PStateTables::new(&cfg.ladder, &cfg.core_power);
        let limit = power_limit(Some(50.0));
        let mut r = RaplController::new();
        let a = r.control(&cfg, limit, &tables, &memory_bound(24), 50.0);
        assert!(
            a.uncore < cfg.uncore.max_level(),
            "expected uncore throttling for a streaming workload at 50 W"
        );
    }

    #[test]
    fn mild_cap_keeps_uncore_bandwidth_unconstraining_for_compute_bound() {
        // The proportional split may drop the uncore a rung or two for a
        // compute-bound code, but never so far that bandwidth becomes the
        // constraint for its tiny traffic.
        let cfg = NodeConfig::default();
        let tables = PStateTables::new(&cfg.ladder, &cfg.core_power);
        let limit = power_limit(Some(120.0));
        let mut r = RaplController::new();
        let act = compute_bound(24);
        let a = r.control(&cfg, limit, &tables, &act, 120.0);
        assert!(
            cfg.uncore.total_bw(a.uncore) > 4.0 * act.achieved_bw,
            "uncore bandwidth at level {:?} would constrain a 3 GB/s code",
            a.uncore
        );
        assert!(a.duty.is_full());
    }

    #[test]
    fn feedback_bias_pulls_budget_down_when_over_cap() {
        let cfg = NodeConfig::default();
        let tables = PStateTables::new(&cfg.ladder, &cfg.core_power);
        let limit = power_limit(Some(80.0));
        let mut r = RaplController::new();
        let a1 = r.control(&cfg, limit, &tables, &compute_bound(24), 80.0);
        // Report sustained overshoot; chosen frequency must not increase.
        let mut last = a1.pstate;
        for _ in 0..20 {
            let a = r.control(&cfg, limit, &tables, &compute_bound(24), 95.0);
            assert!(a.pstate <= last);
            last = a.pstate;
        }
        assert!(last < a1.pstate, "bias should have reduced the P-state");
    }
}
