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
use crate::power::NodeTables;
use crate::search::partition_from;

/// Aggregate activity observed over the last control period, used by the
/// controller to estimate core/uncore power demand.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ActivitySnapshot {
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

impl Actuation {
    /// Every actuator at its top rung: the decision with no cap in force.
    pub fn flat_out(cfg: &NodeConfig) -> Self {
        Self {
            pstate: cfg.ladder.max_pstate(),
            duty: DutyCycle::FULL,
            uncore: cfg.uncore.max_level(),
        }
    }
}

/// RAPL controller state.
#[derive(Debug, Clone)]
pub struct RaplController {
    /// Integral feedback correction, watts.
    bias_w: f64,
    /// Last decoded power limit (for introspection/tests).
    last_limit: Option<f64>,
    /// The previous decision. Its uncore level scales *achieved* traffic
    /// back into a *demand* estimate (throttled traffic under-reports
    /// demand, which would otherwise starve the uncore through positive
    /// feedback), and each of its rungs is where the next decision's
    /// search for that actuator starts.
    last: Option<Actuation>,
    /// Fit predicates evaluated by the rung searches so far.
    fit_probes: u64,
}

impl RaplController {
    /// A freshly reset controller.
    pub fn new() -> Self {
        Self {
            bias_w: 0.0,
            last_limit: None,
            last: None,
            fit_probes: 0,
        }
    }

    /// The cap in force at the last control decision, if any.
    pub fn last_limit(&self) -> Option<f64> {
        self.last_limit
    }

    /// Fit predicates the rung searches have evaluated: one per P-state,
    /// duty cycle or uncore level tested against its budget.
    pub fn fit_probes(&self) -> u64 {
        self.fit_probes
    }

    /// The decision with no cap in force: every actuator flat out and the
    /// feedback bias cleared. [`control`](Self::control) returns exactly
    /// this for a disabled limit without reading the activity or the
    /// average power, so a caller that knows the limit is off may skip
    /// measuring them.
    pub fn uncapped(&mut self, cfg: &NodeConfig) -> Actuation {
        let act = Actuation::flat_out(cfg);
        self.last_limit = None;
        self.bias_w = 0.0;
        self.last = Some(act);
        act
    }

    /// Make a control decision for the next period.
    ///
    /// `limit` is the decoded `MSR_PKG_POWER_LIMIT` in force; `tables` must
    /// be built from `cfg` (the node owns one); `avg_power` is the measured
    /// rolling-average package power over the programmed RAPL window.
    ///
    /// Each actuator is the highest rung whose estimated power fits its
    /// budget. The estimates are non-decreasing in the rung (see
    /// [`NodeTables`]), so the rungs that fit form a prefix and the search
    /// starts from the previous decision's rung instead of scanning from
    /// the top: a decision that repeats costs two probes per actuator.
    pub fn control(
        &mut self,
        cfg: &NodeConfig,
        limit: PowerLimit,
        tables: &NodeTables,
        activity: &ActivitySnapshot,
        avg_power: f64,
    ) -> Actuation {
        let Some(cap) = limit.watts else {
            return self.uncapped(cfg);
        };
        self.last_limit = Some(cap);

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
        let demand_bw = match self.last {
            Some(a) => {
                (activity.achieved_bw / tables.uncore_scale(a.uncore)).min(cfg.uncore.peak_bw)
            }
            None => activity.achieved_bw,
        };
        let uncore_demand = tables.uncore_power(cfg.uncore.max_level(), demand_bw);

        // Application-aware split (paper Fig. 2): the budget divides in
        // proportion to observed demand, so a compute-bound code pushes
        // nearly the whole cap into the core domain while a streaming code
        // cedes a large share to the uncore. Whatever the cores cannot use
        // (P-state quantization) flows back to the uncore.
        let total_demand = (core_demand + uncore_demand).max(1e-9);
        let core_budget = budget * core_demand / total_demand;
        let uncore_budget0 = budget - core_budget;

        // A fresh controller starts each search from the top rung.
        let last = self.last.unwrap_or(Actuation::flat_out(cfg));

        // DVFS: highest P-state fitting the core budget.
        let fit = self.highest_fit(cfg.ladder.len(), last.pstate.0, |i| {
            est_core_power(tables, PState(i), DutyCycle::FULL, activity) <= core_budget
        });
        let (pstate, duty) = match fit {
            Some(i) => (PState(i), DutyCycle::FULL),
            // DDCM fallback at the lowest P-state; duty `d` is index `d - 1`.
            None => {
                let p = cfg.ladder.min_pstate();
                let fit = self.highest_fit(
                    usize::from(DutyCycle::LEVELS),
                    usize::from(last.duty.sixteenths() - 1),
                    |i| est_core_power(tables, p, duty_at(i), activity) <= core_budget,
                );
                (p, fit.map_or(DutyCycle::MIN, duty_at))
            }
        };

        // Core surplus (quantization slack) flows to the uncore.
        let core_est = est_core_power(tables, pstate, duty, activity);
        let uncore_budget = uncore_budget0 + (core_budget - core_est).max(0.0);

        // Uncore: highest level fitting the uncore budget, assuming traffic
        // saturates whatever bandwidth the level offers (worst case).
        let fit = self.highest_fit(cfg.uncore.levels, last.uncore.0, |i| {
            let l = UncoreLevel(i);
            let bw = demand_bw.min(tables.total_bw(l));
            tables.uncore_power(l, bw) <= uncore_budget + 1e-9
        });
        let uncore = fit.map_or(cfg.uncore.min_level(), UncoreLevel);

        let act = Actuation {
            pstate,
            duty,
            uncore,
        };
        self.last = Some(act);
        act
    }

    /// The highest of `n` rungs at which `fits` holds, or `None`, searched
    /// outward from rung `hint`. `fits` must hold on every rung below one
    /// where it holds. A NaN estimate never fits, here as in a top-down
    /// scan.
    fn highest_fit(
        &mut self,
        n: usize,
        hint: usize,
        fits: impl Fn(usize) -> bool,
    ) -> Option<usize> {
        let probes = &mut self.fit_probes;
        let fitting = partition_from(n, hint, |i| {
            *probes += 1;
            fits(i)
        });
        fitting.checked_sub(1)
    }
}

/// The duty cycle at search index `i` (index 0 is [`DutyCycle::MIN`]).
fn duty_at(i: usize) -> DutyCycle {
    DutyCycle::new(i as u8 + 1)
}

/// Estimated aggregate core power at P-state `p` / duty `duty`.
/// Deliberately pessimistic: unhalted (busy) cores are budgeted at
/// full dynamic activity, because RAPL must hold the cap even if their
/// stall time turns into compute within the averaging window.
///
/// Non-decreasing in `p` and in `duty` for non-negative activity: both
/// terms are table entries that are non-decreasing in the rung, scaled by
/// non-negative factors, and rounding preserves the order.
fn est_core_power(
    tables: &NodeTables,
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
    use crate::freq::FrequencyLadder;
    use crate::time::MS;
    use proptest::prelude::*;

    fn power_limit(watts: Option<f64>) -> PowerLimit {
        PowerLimit {
            watts,
            window: 10 * MS,
        }
    }

    fn compute_bound(cores: usize) -> ActivitySnapshot {
        ActivitySnapshot {
            busy_weight: cores as f64,
            powered_cores: cores as f64,
            achieved_bw: 3.0e9,
        }
    }

    fn memory_bound(cores: usize) -> ActivitySnapshot {
        // Cores 100% busy (37% compute, 63% stall), pushing 95 GB/s.
        ActivitySnapshot {
            busy_weight: cores as f64,
            powered_cores: cores as f64,
            achieved_bw: 95.0e9,
        }
    }

    #[test]
    fn uncapped_runs_flat_out() {
        let cfg = NodeConfig::default();
        let tables = NodeTables::new(&cfg);
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
        let tables = NodeTables::new(&cfg);
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
        let tables = NodeTables::new(&cfg);
        let limit = power_limit(Some(25.0));
        let mut r = RaplController::new();
        let a = r.control(&cfg, limit, &tables, &compute_bound(24), 25.0);
        assert_eq!(a.pstate, cfg.ladder.min_pstate());
        assert!(!a.duty.is_full(), "expected duty cycling under a 25 W cap");
    }

    #[test]
    fn stringent_cap_throttles_uncore_for_streaming() {
        let cfg = NodeConfig::default();
        let tables = NodeTables::new(&cfg);
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
        let tables = NodeTables::new(&cfg);
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
        let tables = NodeTables::new(&cfg);
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

    /// The controller as it was before its rung searches, kept as the
    /// reference for them: every actuator scanned top-down, and every
    /// power and bandwidth computed from the configuration, not the
    /// tables.
    struct LinearScan {
        bias_w: f64,
        last_uncore: Option<UncoreLevel>,
    }

    impl LinearScan {
        fn new() -> Self {
            Self {
                bias_w: 0.0,
                last_uncore: None,
            }
        }

        fn core_power(cfg: &NodeConfig, p: PState, d: DutyCycle, a: &ActivitySnapshot) -> f64 {
            let f = cfg.ladder.mhz(p) as f64;
            let dyn_p = cfg.core_power.dynamic_full(f) * d.fraction() * a.busy_weight;
            dyn_p + cfg.core_power.static_power(f) * a.powered_cores
        }

        fn control(
            &mut self,
            cfg: &NodeConfig,
            limit: PowerLimit,
            a: &ActivitySnapshot,
            avg_power: f64,
        ) -> Actuation {
            let Some(cap) = limit.watts else {
                self.bias_w = 0.0;
                self.last_uncore = Some(cfg.uncore.max_level());
                return Actuation {
                    pstate: cfg.ladder.max_pstate(),
                    duty: DutyCycle::FULL,
                    uncore: cfg.uncore.max_level(),
                };
            };
            if avg_power > 0.0 {
                self.bias_w += 0.15 * (cap - avg_power);
                self.bias_w = self.bias_w.clamp(-0.10 * cap, 0.10 * cap);
            }
            let budget = (cap + self.bias_w).max(1.0);
            let core_demand = Self::core_power(cfg, cfg.ladder.max_pstate(), DutyCycle::FULL, a);
            let demand_bw = match self.last_uncore {
                Some(l) => (a.achieved_bw / cfg.uncore.scale(l)).min(cfg.uncore.peak_bw),
                None => a.achieved_bw,
            };
            let uncore_demand = cfg.uncore.power(cfg.uncore.max_level(), demand_bw);
            let total_demand = (core_demand + uncore_demand).max(1e-9);
            let core_budget = budget * core_demand / total_demand;
            let uncore_budget0 = budget - core_budget;

            let mut pstate = cfg.ladder.min_pstate();
            let mut fits = false;
            for p in cfg.ladder.iter().rev() {
                if Self::core_power(cfg, p, DutyCycle::FULL, a) <= core_budget {
                    pstate = p;
                    fits = true;
                    break;
                }
            }
            let duty = if fits {
                DutyCycle::FULL
            } else {
                DutyCycle::all()
                    .rev()
                    .find(|&d| Self::core_power(cfg, cfg.ladder.min_pstate(), d, a) <= core_budget)
                    .unwrap_or(DutyCycle::MIN)
            };
            let core_est = Self::core_power(cfg, pstate, duty, a);
            let uncore_budget = uncore_budget0 + (core_budget - core_est).max(0.0);
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

    /// SplitMix64: the oracle test's input stream.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
            lo + (self.next() >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn chance(&mut self, p: f64) -> bool {
            self.uniform(0.0, 1.0) < p
        }
    }

    /// A node configuration drawn from within `NodeConfig::validate`'s
    /// bounds: ladders of 1 to 40 rungs, 1 to 16 uncore levels, and power
    /// models from leakage-free to leakage-heavy.
    fn random_config(g: &mut Mix) -> NodeConfig {
        let mut cfg = NodeConfig {
            cores: 1 + g.below(64) as usize,
            ..NodeConfig::default()
        };
        let step = [25, 50, 100, 200][g.below(4) as usize];
        let fmin = 400 + 100 * g.below(12) as u32;
        cfg.ladder = FrequencyLadder::range_mhz(fmin, fmin + step * g.below(40) as u32, step);
        let c = &mut cfg.core_power;
        c.v_min = g.uniform(0.4, 1.0);
        c.v_max = c.v_min + g.uniform(0.0, 0.6);
        c.f_vfloor_mhz = g.uniform(300.0, 2500.0);
        c.f_vmax_mhz = c.f_vfloor_mhz + g.uniform(1.0, 3000.0);
        c.v_curve_exp = g.uniform(0.3, 3.0);
        c.c_dyn = g.uniform(0.1, 3.0);
        c.leak_per_volt = if g.chance(0.2) {
            0.0
        } else {
            g.uniform(0.0, 2.0)
        };
        let u = &mut cfg.uncore;
        u.levels = 1 + g.below(16) as usize;
        u.uf_min_ghz = g.uniform(0.5, 2.0);
        u.uf_max_ghz = u.uf_min_ghz + g.uniform(0.0, 2.0);
        u.peak_bw = g.uniform(10.0e9, 300.0e9);
        u.percore_peak_bw = g.uniform(1.0e9, 30.0e9);
        u.p_base = g.uniform(0.0, 30.0);
        u.p_per_gbs = g.uniform(0.0, 1.0);
        u.p_uf2 = g.uniform(0.0, 3.0);
        u.lat_flat = g.uniform(0.0, 1.0);
        cfg.validate();
        cfg
    }

    /// The next period's activity: idle, zero, NaN (every estimate is NaN,
    /// so no rung fits), a small drift from the last period, or a fresh
    /// draw anywhere in the node's range.
    fn next_activity(g: &mut Mix, cfg: &NodeConfig, last: ActivitySnapshot) -> ActivitySnapshot {
        let cores = cfg.cores as f64;
        match g.below(40) {
            39 => ActivitySnapshot {
                busy_weight: f64::NAN,
                ..last
            },
            0 => ActivitySnapshot::idle(cfg.cores),
            1 => ActivitySnapshot {
                busy_weight: 0.0,
                powered_cores: 0.0,
                achieved_bw: 0.0,
            },
            2..=19 => {
                let drift = |g: &mut Mix, x: f64, hi: f64| (x * g.uniform(0.97, 1.03)).min(hi);
                ActivitySnapshot {
                    busy_weight: drift(g, last.busy_weight, cores),
                    powered_cores: drift(g, last.powered_cores, cores),
                    achieved_bw: drift(g, last.achieved_bw, 1.5 * cfg.uncore.peak_bw),
                }
            }
            _ => {
                let busy = g.uniform(0.0, cores);
                ActivitySnapshot {
                    busy_weight: busy,
                    powered_cores: g.uniform(busy, cores),
                    achieved_bw: g.uniform(0.0, 1.5 * cfg.uncore.peak_bw),
                }
            }
        }
    }

    /// The next period's cap: mostly held, sometimes nudged, and sometimes
    /// jumping anywhere from deep DDCM range to above the top rung, or
    /// toggling between `None` and `Some`, so the previous decision lands
    /// far from the next answer.
    fn next_cap(g: &mut Mix, top_w: f64, last: Option<f64>) -> Option<f64> {
        match (g.below(10), last) {
            (0, _) => None,
            (1..=5, Some(w)) => Some(w),
            (6, Some(w)) => Some(w * g.uniform(0.95, 1.05)),
            _ => Some(g.uniform(1.0, 1.3 * top_w)),
        }
    }

    /// Runs `steps` control periods through both controllers and fails on
    /// the first decision or bias that differs; returns the decisions.
    fn race(g: &mut Mix, cfg: &NodeConfig, steps: usize) -> Vec<Actuation> {
        let tables = NodeTables::new(cfg);
        let full = ActivitySnapshot {
            busy_weight: cfg.cores as f64,
            powered_cores: cfg.cores as f64,
            achieved_bw: cfg.uncore.peak_bw,
        };
        let top_w = LinearScan::core_power(cfg, cfg.ladder.max_pstate(), DutyCycle::FULL, &full)
            + cfg.uncore.power(cfg.uncore.max_level(), cfg.uncore.peak_bw);
        let (mut fast, mut slow) = (RaplController::new(), LinearScan::new());
        let (mut cap, mut activity) = (None, full);
        let mut decisions = Vec::with_capacity(steps);
        for step in 0..steps {
            cap = next_cap(g, top_w, cap);
            activity = next_activity(g, cfg, activity);
            let avg = match (g.below(6), cap) {
                (0, _) | (_, None) => 0.0,
                (_, Some(w)) => w * g.uniform(0.7, 1.3),
            };
            let limit = power_limit(cap);
            let got = fast.control(cfg, limit, &tables, &activity, avg);
            let want = slow.control(cfg, limit, &activity, avg);
            let context = || format!("step {step}: cap {cap:?}, avg {avg}, {activity:?}");
            assert_eq!(got, want, "{}", context());
            assert_eq!(
                fast.bias_w.to_bits(),
                slow.bias_w.to_bits(),
                "{}",
                context()
            );
            assert_eq!(fast.last_limit(), cap, "{}", context());
            decisions.push(got);
        }
        decisions
    }

    #[test]
    fn searches_choose_what_the_top_down_scans_chose_on_the_default_node() {
        let cfg = NodeConfig::default();
        let mut g = Mix(7);
        let decisions = race(&mut g, &cfg, 20_000);
        // The sequence reaches every regime the searches must agree on.
        let top = cfg.ladder.max_pstate();
        assert!(
            decisions.iter().any(|a| !a.duty.is_full()),
            "no DDCM decision"
        );
        assert!(decisions.iter().any(|a| a.duty.is_full() && a.pstate < top));
        assert!(decisions
            .iter()
            .any(|a| a.pstate == top && a.uncore < cfg.uncore.max_level()));
        assert!(decisions.iter().any(|a| a.uncore == cfg.uncore.min_level()));
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn searches_choose_what_the_top_down_scans_chose(seed in any::<u64>()) {
            let mut g = Mix(seed);
            let cfg = random_config(&mut g);
            race(&mut g, &cfg, 400);
        }
    }
}
