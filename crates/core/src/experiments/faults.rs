//! **Faults** — hardened vs. naive control loop under injected MSR faults.
//!
//! The paper's `power-policy` daemon assumes the msr-safe interface always
//! works: every RAPL write latches, every energy read returns fresh data.
//! On production nodes neither holds — msr-safe accesses fail transiently,
//! PKG_ENERGY_STATUS counters stick or jump, and cap writes can latch
//! late. This experiment drives the same workload through three seeded
//! fault scenarios through the one NRM daemon, once built as the naive
//! 1 Hz loop ([`nrm::NrmDaemon::new`]) and once hardened
//! ([`nrm::NrmDaemon::hardened`]: retry, read-back verification, fallback
//! actuators, safe mode), and compares budget overshoot and progress.
//!
//! Scenarios:
//!
//! 1. **cap-write storm** — every user-space write to PKG_POWER_LIMIT
//!    fails for most of the run, covering the moment the budget arrives;
//! 2. **sneaky latch** — writes *appear* to succeed but the register does
//!    not change for five seconds (only read-back verification notices,
//!    and the naive loop's once-per-second rewrite keeps re-arming the
//!    delay, so its cap never lands at all);
//! 3. **telemetry dropout** — energy-counter reads fail, then the counter
//!    sticks; actuation is healthy throughout, so the right answer is to
//!    hold the cap and *not* panic into safe mode.

use proxyapps::catalog::AppId;
use simnode::faults::{FaultPlan, FaultWindow};
use simnode::hw::{MSR_PKG_ENERGY_STATUS, MSR_PKG_POWER_LIMIT};
use simnode::time::{Nanos, SEC};

use nrm::resilience::ResilienceConfig;

use crate::report::{f, TextTable};
use crate::runner::{run_app, RunConfig, ScheduleSpec};
use crate::sweep::par_map;

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Run length per (scenario, loop) cell.
    pub duration: Nanos,
    /// Power budget applied after the lead-in, W.
    pub budget_w: f64,
    /// Fault-plan seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            duration: 60 * SEC,
            budget_w: 80.0,
            seed: 7,
        }
    }
}

impl Config {
    /// Reduced-scale config for tests.
    pub fn quick() -> Self {
        Self {
            duration: 30 * SEC,
            ..Self::default()
        }
    }

    /// Uncapped lead-in before the budget arrives.
    fn lead_in(&self) -> Nanos {
        self.duration / 5
    }
}

/// The three fault scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// PKG_POWER_LIMIT writes fail outright for most of the run.
    CapWriteStorm,
    /// Cap writes return success but latch 5 s late (re-armed by every
    /// rewrite).
    SneakyLatch,
    /// Energy-counter reads fail, then the counter sticks.
    TelemetryDropout,
}

impl Scenario {
    /// All scenarios, in table order.
    pub fn all() -> [Scenario; 3] {
        [
            Scenario::CapWriteStorm,
            Scenario::SneakyLatch,
            Scenario::TelemetryDropout,
        ]
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Scenario::CapWriteStorm => "cap-write storm",
            Scenario::SneakyLatch => "sneaky latch",
            Scenario::TelemetryDropout => "telemetry dropout",
        }
    }

    /// The fault plan this scenario installs.
    pub fn plan(self, cfg: &Config) -> FaultPlan {
        let d = cfg.duration;
        match self {
            // The storm opens before the budget arrives (lead-in = d/5)
            // and lifts at 4/5 of the run, leaving room to observe
            // recovery back to the primary actuator.
            Scenario::CapWriteStorm => FaultPlan::new(cfg.seed).write_error(
                MSR_PKG_POWER_LIMIT,
                1.0,
                FaultWindow::new(d / 10, d * 4 / 5),
            ),
            Scenario::SneakyLatch => {
                FaultPlan::new(cfg.seed).delayed_cap_latch(5 * SEC, FaultWindow::ALWAYS)
            }
            Scenario::TelemetryDropout => FaultPlan::new(cfg.seed)
                .read_error(
                    MSR_PKG_ENERGY_STATUS,
                    1.0,
                    FaultWindow::new(d * 2 / 5, d * 3 / 5),
                )
                .stuck_energy(FaultWindow::new(d * 7 / 10, d * 4 / 5)),
        }
    }
}

/// One (scenario, control-loop) cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Scenario applied.
    pub scenario: &'static str,
    /// `true` for the hardened loop.
    pub hardened: bool,
    /// Worst budget overshoot after the settling window, W. The software
    /// fallback loops walk one P-state per tick, so compliance takes up to
    /// ~10 s after the budget arrives; this measures what happens *after*
    /// any well-behaved loop had time to converge.
    pub settled_overshoot_w: f64,
    /// Seconds from budget arrival to the first in-budget power sample
    /// (capped at the remaining run length if compliance never happens).
    pub compliance_delay_s: f64,
    /// Steady-state progress rate.
    pub steady_rate: f64,
    /// Mean package power over the settled second half, W.
    pub settled_power_w: f64,
    /// Ticks served by a fallback actuator.
    pub fallback_ticks: usize,
    /// Ticks in safe mode.
    pub safe_mode_ticks: usize,
    /// Ticks whose actuation failed outright.
    pub actuation_failures: usize,
    /// Injected user-space read failures.
    pub reads_failed: u64,
    /// Injected user-space write failures + silently deferred cap writes.
    pub writes_failed: u64,
}

fn cell(scenario: Scenario, hardened: bool, cfg: &Config) -> Cell {
    let schedule = ScheduleSpec::StepAfter {
        lead_in: cfg.lead_in(),
        cap_w: cfg.budget_w,
    };
    let mut rc = RunConfig::new(AppId::Lammps, cfg.duration)
        .with_schedule(schedule)
        .with_faults(scenario.plan(cfg));
    if hardened {
        rc = rc.with_resilience(ResilienceConfig::default());
    }
    let a = run_app(&rc);
    let lead_s = (cfg.lead_in() / SEC) as f64;
    let end_s = (cfg.duration / SEC) as f64;
    // Compliance tolerance: RAPL quantization plus controller slack.
    let tol = 2.0;
    let compliance_delay_s = a
        .telemetry
        .avg_power
        .t
        .iter()
        .zip(&a.telemetry.avg_power.v)
        .find(|&(&t, &v)| t > lead_s + 1.0 && v <= cfg.budget_w + tol)
        .map(|(&t, _)| t - lead_s)
        .unwrap_or(end_s - lead_s);
    // Settling window: the P-state ladder is ~20 steps walked at one per
    // tick, so allow 12 s from budget arrival before judging overshoot.
    let skip = (cfg.lead_in() / SEC) as usize + 12;
    Cell {
        scenario: scenario.name(),
        hardened,
        settled_overshoot_w: a.max_overshoot_w(cfg.budget_w, skip),
        compliance_delay_s,
        steady_rate: a.steady_rate(),
        settled_power_w: a.settled_power(),
        fallback_ticks: a.fallback_ticks(),
        safe_mode_ticks: a.safe_mode_ticks(),
        actuation_failures: a.actuation_failures(),
        reads_failed: a.fault_summary.reads_failed + a.fault_summary.reads_stuck,
        writes_failed: a.fault_summary.writes_failed + a.fault_summary.writes_delayed,
    }
}

/// The full grid, plus a fault-free purity check.
#[derive(Debug, Clone)]
pub struct Faults {
    /// One cell per (scenario, loop).
    pub cells: Vec<Cell>,
}

/// Run the experiment.
pub fn run(cfg: &Config) -> Faults {
    let mut jobs = Vec::new();
    for scenario in Scenario::all() {
        for hardened in [false, true] {
            jobs.push((scenario, hardened));
        }
    }
    let cfg2 = cfg.clone();
    let cells = par_map(jobs, move |(scenario, hardened)| {
        cell(scenario, hardened, &cfg2)
    });
    Faults { cells }
}

/// Run the same config fault-free through both code paths and return the
/// two total energies — they must be identical: an installed-but-empty
/// fault plan may not perturb the simulation.
pub fn purity_check(cfg: &Config) -> (f64, f64) {
    let base = RunConfig::new(AppId::Lammps, cfg.duration).with_schedule(ScheduleSpec::StepAfter {
        lead_in: cfg.lead_in(),
        cap_w: cfg.budget_w,
    });
    let plain = run_app(&base);
    let empty_plan = run_app(&base.clone().with_faults(FaultPlan::new(cfg.seed)));
    (plain.total_energy_j, empty_plan.total_energy_j)
}

impl Faults {
    /// Summary table.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(
            "Faults: hardened vs. naive control loop under injected MSR faults",
            &[
                "Scenario",
                "Loop",
                "overshoot (W)",
                "comply (s)",
                "rate",
                "settled (W)",
                "fallback",
                "safe-mode",
                "act-fail",
                "rd-fail",
                "wr-fail",
            ],
        );
        for c in &self.cells {
            t.row(vec![
                c.scenario.to_string(),
                if c.hardened { "hardened" } else { "naive" }.to_string(),
                f(c.settled_overshoot_w, 1),
                f(c.compliance_delay_s, 0),
                f(c.steady_rate, 0),
                f(c.settled_power_w, 1),
                c.fallback_ticks.to_string(),
                c.safe_mode_ticks.to_string(),
                c.actuation_failures.to_string(),
                c.reads_failed.to_string(),
                c.writes_failed.to_string(),
            ]);
        }
        t
    }

    /// Find a cell.
    pub fn cell(&self, scenario: &str, hardened: bool) -> Option<&Cell> {
        self.cells
            .iter()
            .find(|c| c.scenario == scenario && c.hardened == hardened)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hardened_loop_bounds_overshoot_where_naive_violates() {
        let r = run(&Config::quick());
        assert_eq!(r.cells.len(), 6);
        for scenario in ["cap-write storm", "sneaky latch"] {
            let naive = r.cell(scenario, false).unwrap();
            let hard = r.cell(scenario, true).unwrap();
            assert!(
                naive.settled_overshoot_w > 25.0,
                "{scenario}: naive loop should blow the budget, overshoot {:.1} W",
                naive.settled_overshoot_w
            );
            assert!(
                hard.settled_overshoot_w < 10.0,
                "{scenario}: hardened loop must hold the budget, overshoot {:.1} W",
                hard.settled_overshoot_w
            );
            assert!(
                hard.compliance_delay_s + 5.0 < naive.compliance_delay_s,
                "{scenario}: hardened should comply much sooner ({:.0} s vs {:.0} s)",
                hard.compliance_delay_s,
                naive.compliance_delay_s
            );
            assert!(
                hard.fallback_ticks > 0,
                "{scenario}: hardened loop should engage a fallback actuator"
            );
        }
    }

    #[test]
    fn telemetry_dropout_does_not_trip_safe_mode() {
        let r = run(&Config::quick());
        let hard = r.cell("telemetry dropout", true).unwrap();
        assert!(hard.reads_failed > 0, "dropout must actually fire");
        assert_eq!(
            hard.safe_mode_ticks, 0,
            "sensor loss with healthy actuation must not trip safe mode"
        );
        assert!(
            hard.settled_overshoot_w < 10.0,
            "cap must hold through the dropout, overshoot {:.1} W",
            hard.settled_overshoot_w
        );
        // Progress is preserved relative to the naive loop (which never
        // reads user-space energy and is immune to this scenario).
        let naive = r.cell("telemetry dropout", false).unwrap();
        assert!(
            hard.steady_rate > naive.steady_rate * 0.93,
            "hardened {:.0} vs naive {:.0}",
            hard.steady_rate,
            naive.steady_rate
        );
    }

    #[test]
    fn empty_fault_plan_is_bit_identical() {
        let (plain, empty) = purity_check(&Config::quick());
        assert_eq!(
            plain.to_bits(),
            empty.to_bits(),
            "fault machinery must be inert when no fault is active: {plain} vs {empty}"
        );
    }
}
