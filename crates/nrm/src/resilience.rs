//! Hardened NRM control loop: retry, read-back, fallback, safe mode.
//!
//! [`crate::daemon::NrmDaemon`] assumes the hardware always cooperates:
//! every MSR write lands, every cap latches instantly, the energy counter
//! always advances. Under injected faults (see [`simnode::faults`]) those
//! assumptions break and the naive loop silently loses control of the
//! power budget. [`ResilientDaemon`] is the hardened counterpart:
//!
//! - **retry with backoff** — failed knob writes are retried within the
//!   tick, and a repeatedly failing primary actuator is re-probed on an
//!   exponential tick schedule rather than hammered;
//! - **read-back verification** — after programming a RAPL cap, the
//!   daemon reads `MSR_PKG_POWER_LIMIT` back and checks the cap actually
//!   latched, catching writes that report success but are dropped or
//!   deferred;
//! - **fallback actuator chain** — when RAPL is unusable the daemon
//!   degrades to direct DVFS, then DDCM, recovering to the primary once
//!   the fault clears;
//! - **safe-mode floor** — sustained budget overshoot (every actuator
//!   failing, or caps not biting) engages a conservative floor cap below
//!   the scheduled budget until measurements come back in line;
//! - **MSR-based power sensing** — power is measured the way a real
//!   daemon measures it, from the wrapping `MSR_PKG_ENERGY_STATUS`
//!   counter, with wrap handling and plausibility filtering so stuck or
//!   jumping counters degrade the estimate instead of poisoning it.

use simnode::agent::SimAgent;
use simnode::hw::{
    PowerLimit, RaplUnits, MSR_PKG_ENERGY_STATUS, MSR_PKG_POWER_LIMIT, MSR_RAPL_POWER_UNIT,
};
use simnode::node::Node;
use simnode::time::{Nanos, SEC};

use crate::actuator::{Actuator, ActuatorKind};
use crate::daemon::DaemonSample;
use crate::scheme::CapSchedule;

/// Tuning for the hardened control loop.
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    /// Immediate write retries per actuator per tick.
    pub max_retries: u32,
    /// Verify RAPL cap writes by reading the register back.
    pub readback: bool,
    /// Actuators to fall back to, in order, after the primary.
    pub fallbacks: Vec<ActuatorKind>,
    /// Ceiling for the exponential primary re-probe interval, ticks.
    pub backoff_cap_ticks: u32,
    /// Measured power may exceed the budget by this much before a tick
    /// counts as an overshoot, W.
    pub overshoot_tolerance_w: f64,
    /// Consecutive overshoot ticks before safe mode engages.
    pub safe_mode_after: u32,
    /// Safe mode programs `budget - safe_margin_w` (floored at
    /// `min_floor_w`) instead of the scheduled cap.
    pub safe_margin_w: f64,
    /// Lowest cap safe mode will ever program, W.
    pub min_floor_w: f64,
    /// Consecutive in-budget ticks before safe mode disengages.
    pub recover_after: u32,
    /// Power readings above this are discarded as implausible (counter
    /// jumps), W.
    pub max_plausible_w: f64,
    /// Power readings below this are discarded as implausible (stuck
    /// counters; a powered package always burns static power), W.
    pub min_plausible_w: f64,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self {
            max_retries: 2,
            readback: true,
            fallbacks: vec![ActuatorKind::DirectDvfs, ActuatorKind::Ddcm],
            backoff_cap_ticks: 32,
            overshoot_tolerance_w: 5.0,
            safe_mode_after: 3,
            safe_margin_w: 10.0,
            min_floor_w: 30.0,
            recover_after: 5,
            max_plausible_w: 400.0,
            min_plausible_w: 1.0,
        }
    }
}

/// Package power measured the way user-space tooling measures it: from
/// the wrapping 32-bit `MSR_PKG_ENERGY_STATUS` counter.
#[derive(Debug, Clone, Default)]
pub struct MsrPowerSensor {
    /// Cached RAPL units (the unit register is read-only and constant;
    /// cached at first successful read so blackouts don't lose it).
    units: Option<RaplUnits>,
    /// Last good raw reading: (time, counter).
    last: Option<(Nanos, u64)>,
    /// Reads that failed at the MSR layer.
    pub read_errors: u64,
    /// Readings discarded by the plausibility filter.
    pub implausible: u64,
}

impl MsrPowerSensor {
    /// New sensor; units are fetched lazily through the allow-list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sample average power since the previous good sample, W. Returns
    /// `None` on the first call, on MSR read failure, or when the reading
    /// fails the `[min_plausible_w, max_plausible_w]` filter.
    pub fn sample(
        &mut self,
        node: &Node,
        now: Nanos,
        min_plausible_w: f64,
        max_plausible_w: f64,
    ) -> Option<f64> {
        if self.units.is_none() {
            match node.msr().read(MSR_RAPL_POWER_UNIT) {
                Ok(raw) => self.units = Some(RaplUnits::decode(raw)),
                Err(_) => {
                    self.read_errors += 1;
                    return None;
                }
            }
        }
        let units = self.units?;
        let cur = match node.msr().read(MSR_PKG_ENERGY_STATUS) {
            Ok(v) => v,
            Err(_) => {
                self.read_errors += 1;
                return None;
            }
        };
        let prev = self.last.replace((now, cur));
        let (t0, c0) = prev?;
        if now <= t0 {
            return None;
        }
        let dt_s = (now - t0) as f64 / 1e9;
        // 32-bit wrap-aware delta.
        let ticks = cur.wrapping_sub(c0) & 0xFFFF_FFFF;
        let watts = ticks as f64 * units.energy_j / dt_s;
        if !(min_plausible_w..=max_plausible_w).contains(&watts) {
            self.implausible += 1;
            return None;
        }
        Some(watts)
    }
}

/// The hardened 1 Hz control loop. Drop-in replacement for
/// [`crate::daemon::NrmDaemon`] as a [`SimAgent`].
pub struct ResilientDaemon {
    schedule: Box<dyn CapSchedule>,
    cfg: ResilienceConfig,
    /// `[primary, fallbacks...]` in engagement order.
    chain: Vec<Actuator>,
    /// Index of the actuator currently in charge.
    active: usize,
    /// Consecutive failed primary attempts (drives the backoff).
    primary_failures: u32,
    /// Ticks until the primary is probed again while a fallback is active.
    primary_probe_in: u32,
    overshoot_streak: u32,
    healthy_streak: u32,
    safe_mode: bool,
    /// Last plausible power measurement, carried across sensor outages.
    last_power_w: f64,
    sensor: MsrPowerSensor,
    period: Nanos,
    start: Option<Nanos>,
    /// Observations, one per tick.
    pub samples: Vec<DaemonSample>,
}

impl ResilientDaemon {
    /// A hardened daemon applying `schedule`, preferring `primary` and
    /// degrading along `cfg.fallbacks`.
    pub fn new(
        schedule: Box<dyn CapSchedule>,
        primary: ActuatorKind,
        cfg: ResilienceConfig,
    ) -> Self {
        let mut chain = vec![Actuator::new(primary)];
        chain.extend(
            cfg.fallbacks
                .iter()
                .filter(|&&k| k != primary)
                .map(|&k| Actuator::new(k)),
        );
        Self {
            schedule,
            cfg,
            chain,
            active: 0,
            primary_failures: 0,
            primary_probe_in: 0,
            overshoot_streak: 0,
            healthy_streak: 0,
            safe_mode: false,
            last_power_w: 0.0,
            sensor: MsrPowerSensor::new(),
            period: SEC,
            start: None,
            samples: Vec::new(),
        }
    }

    /// Override the control period (tests).
    pub fn with_period(mut self, period: Nanos) -> Self {
        assert!(period > 0);
        self.period = period;
        self
    }

    /// The actuator currently in charge.
    pub fn active_kind(&self) -> ActuatorKind {
        self.chain[self.active].kind()
    }

    /// Whether the safe-mode floor is currently engaged.
    pub fn in_safe_mode(&self) -> bool {
        self.safe_mode
    }

    /// The power sensor (exposes read-error / implausibility counters).
    pub fn sensor(&self) -> &MsrPowerSensor {
        &self.sensor
    }

    /// The most recent observation, if the daemon has ticked at all.
    pub fn last_sample(&self) -> Option<&DaemonSample> {
        self.samples.last()
    }

    /// Attempt `chain[idx]` with immediate retries; returns
    /// `(succeeded, retries_spent, readback_verdict)`.
    fn attempt(
        &mut self,
        idx: usize,
        node: &mut Node,
        target: Option<f64>,
    ) -> (bool, u32, Option<bool>) {
        let mut retries = 0;
        for attempt in 0..=self.cfg.max_retries {
            retries = attempt;
            if self.chain[idx].apply(node, target).is_err() {
                continue;
            }
            // Write landed (or claims to have). For RAPL, verify the cap
            // actually holds the requested value.
            if self.cfg.readback && self.chain[idx].kind() == ActuatorKind::Rapl {
                match self.readback_cap(node, target) {
                    Some(true) => return (true, retries, Some(true)),
                    Some(false) => continue, // latched wrong: retry, then fall back
                    None => return (true, retries, None), // unverifiable: accept
                }
            }
            return (true, retries, None);
        }
        // All attempts failed (or read-back kept refuting them).
        let verdict = if self.cfg.readback && self.chain[idx].kind() == ActuatorKind::Rapl {
            self.readback_cap(node, target)
        } else {
            None
        };
        (false, retries, verdict)
    }

    /// Read `MSR_PKG_POWER_LIMIT` back and compare against the requested
    /// cap. `None` when the register (or the unit register) is unreadable.
    fn readback_cap(&mut self, node: &Node, target: Option<f64>) -> Option<bool> {
        if self.sensor.units.is_none() {
            self.sensor.units = node
                .msr()
                .read(MSR_RAPL_POWER_UNIT)
                .ok()
                .map(RaplUnits::decode);
        }
        let units = self.sensor.units?;
        let raw = node.msr().read(MSR_PKG_POWER_LIMIT).ok()?;
        let latched = PowerLimit::decode(raw, units).watts;
        Some(match (target, latched) {
            (None, None) => true,
            // 1/8 W quantization tolerance.
            (Some(t), Some(l)) => (t - l).abs() <= 0.25,
            _ => false,
        })
    }
}

impl SimAgent for ResilientDaemon {
    fn period(&self) -> Nanos {
        self.period
    }

    fn on_tick(&mut self, node: &mut Node, now: Nanos) {
        let start = *self.start.get_or_insert(now);
        let elapsed = now - start;
        let budget = self.schedule.cap_at(elapsed);

        // Measure through the MSR path, like a real daemon. Hold the last
        // plausible value across outages so control keeps a basis.
        let measured = self.sensor.sample(
            node,
            now,
            self.cfg.min_plausible_w,
            self.cfg.max_plausible_w,
        );
        if let Some(w) = measured {
            self.last_power_w = w;
        }

        // Safe mode pulls the target below the scheduled budget.
        let target = if self.safe_mode {
            budget.map(|b| (b - self.cfg.safe_margin_w).max(self.cfg.min_floor_w))
        } else {
            budget
        };

        // Decide the engagement order: normally the active actuator and
        // everything after it; when the backoff timer expires, probe the
        // primary first again.
        let probe_primary = self.active > 0 && self.primary_probe_in == 0;
        if self.active > 0 && self.primary_probe_in > 0 {
            self.primary_probe_in -= 1;
        }
        let order = probe_primary
            .then_some(0)
            .into_iter()
            .chain(self.active..self.chain.len());

        let mut total_retries = 0;
        let mut verified = None;
        let mut succeeded_at = None;
        for idx in order {
            let (ok, retries, verdict) = self.attempt(idx, node, target);
            total_retries += retries;
            if verdict.is_some() {
                verified = verdict;
            }
            if idx == 0 {
                if ok {
                    self.primary_failures = 0;
                } else {
                    self.primary_failures += 1;
                    self.primary_probe_in = crate::backoff::delay_after(
                        self.primary_failures,
                        self.cfg.backoff_cap_ticks,
                    );
                }
            }
            if ok {
                succeeded_at = Some(idx);
                break;
            }
        }
        let actuation_failed = succeeded_at.is_none();
        if let Some(idx) = succeeded_at {
            self.active = idx;
        }
        let fallback_used = self.active > 0 && !actuation_failed;

        // Budget-overshoot bookkeeping on the measured (user-space) power.
        if let Some(b) = budget {
            let w = measured.unwrap_or(self.last_power_w);
            if w > b + self.cfg.overshoot_tolerance_w {
                self.overshoot_streak += 1;
                self.healthy_streak = 0;
            } else {
                self.healthy_streak += 1;
                self.overshoot_streak = 0;
            }
            if self.overshoot_streak >= self.cfg.safe_mode_after {
                self.safe_mode = true;
            }
            if self.safe_mode && self.healthy_streak >= self.cfg.recover_after {
                self.safe_mode = false;
            }
        } else {
            // No budget, nothing to overshoot.
            self.overshoot_streak = 0;
            self.healthy_streak = 0;
            self.safe_mode = false;
        }

        self.samples.push(DaemonSample {
            at: now,
            cap_w: target,
            avg_power_w: measured.unwrap_or(self.last_power_w),
            actuation_failed,
            fallback_used,
            retries: total_retries,
            verified,
            safe_mode: self.safe_mode,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::ConstantCap;
    use simnode::config::NodeConfig;
    use simnode::faults::{FaultPlan, FaultWindow};
    use simnode::hw::{IA32_CLOCK_MODULATION, IA32_PERF_CTL};
    use simnode::node::{CoreWork, Node, WorkPacket};

    fn busy_node(faults: Option<FaultPlan>) -> Node {
        let cfg = NodeConfig {
            faults: faults.map(std::sync::Arc::new),
            ..NodeConfig::default()
        };
        let mut node = Node::new(cfg);
        for c in 0..node.cores() {
            node.assign(
                c,
                CoreWork::Compute(
                    WorkPacket {
                        cycles: 3.3e9 * 600.0,
                        misses: 0.0,
                        instructions: 1e9,
                        mlp: 1.0,
                        mem_weight: 1.0,
                    }
                    .into(),
                ),
            );
        }
        node
    }

    fn run(daemon: &mut ResilientDaemon, node: &mut Node, seconds: u64) {
        let quanta = (SEC / node.config().quantum) as usize;
        for _ in 0..seconds {
            for _ in 0..quanta {
                node.step();
            }
            let now = node.now();
            daemon.on_tick(node, now);
        }
    }

    fn resilient(cap: f64) -> ResilientDaemon {
        ResilientDaemon::new(
            Box::new(ConstantCap(cap)),
            ActuatorKind::Rapl,
            ResilienceConfig::default(),
        )
    }

    #[test]
    fn fault_free_run_never_engages_the_machinery() {
        let mut node = busy_node(None);
        let mut d = resilient(90.0);
        run(&mut d, &mut node, 10);
        assert!(d.samples.iter().all(|s| !s.actuation_failed));
        assert!(d.samples.iter().all(|s| !s.fallback_used));
        assert!(d.samples.iter().all(|s| !s.safe_mode));
        assert!(d.samples.iter().all(|s| s.retries == 0));
        assert!(
            d.samples.iter().all(|s| s.verified != Some(false)),
            "read-back must confirm latched caps"
        );
        assert_eq!(d.active_kind(), ActuatorKind::Rapl);
        let p = node.average_power(2 * SEC);
        assert!((p - 90.0).abs() < 9.0, "settled near the cap, got {p:.1}");
    }

    #[test]
    fn write_failure_falls_back_to_dvfs_and_recovers() {
        // RAPL cap writes fail persistently between 2 s and 9 s.
        let plan = FaultPlan::new(3).write_error(
            MSR_PKG_POWER_LIMIT,
            1.0,
            FaultWindow::new(2 * SEC, 9 * SEC),
        );
        let mut node = busy_node(Some(plan));
        let mut d = resilient(90.0);
        run(&mut d, &mut node, 20);
        assert!(
            d.samples.iter().any(|s| s.fallback_used),
            "fallback actuator must engage during the fault"
        );
        assert!(
            d.samples.iter().any(|s| s.retries > 0),
            "failed writes must be retried"
        );
        // Well after the fault clears, the backoff probe restores RAPL.
        assert_eq!(d.active_kind(), ActuatorKind::Rapl, "primary recovered");
        let last = d.last_sample().expect("daemon ticked");
        assert!(!last.fallback_used && !last.actuation_failed);
    }

    #[test]
    fn delayed_latch_is_caught_by_readback() {
        // Cap writes report success but latch 10 s late: only read-back
        // verification can notice.
        let plan = FaultPlan::new(4).delayed_cap_latch(10 * SEC, FaultWindow::new(SEC, 6 * SEC));
        let mut node = busy_node(Some(plan));
        let mut d = resilient(90.0);
        run(&mut d, &mut node, 10);
        assert!(
            d.samples.iter().any(|s| s.verified == Some(false)),
            "read-back must detect the unlatched cap"
        );
        assert!(
            d.samples.iter().any(|s| s.fallback_used),
            "verification failure must drive fallback"
        );
    }

    #[test]
    fn all_actuators_dead_engages_safe_mode_then_recovers() {
        // Every knob write fails from 1 s to 8 s: power runs uncapped over
        // budget, safe mode must latch; after the fault clears, the floor
        // cap bites, measurements return to budget, safe mode disengages.
        let w = FaultWindow::new(SEC, 8 * SEC);
        let plan = FaultPlan::new(5)
            .write_error(MSR_PKG_POWER_LIMIT, 1.0, w)
            .write_error(IA32_PERF_CTL, 1.0, w)
            .write_error(IA32_CLOCK_MODULATION, 1.0, w);
        let mut node = busy_node(Some(plan));
        let mut d = resilient(80.0);
        run(&mut d, &mut node, 25);
        assert!(
            d.samples.iter().any(|s| s.actuation_failed),
            "ticks with every actuator dead must be recorded"
        );
        assert!(
            d.samples.iter().any(|s| s.safe_mode),
            "sustained overshoot must engage safe mode"
        );
        let last = d.last_sample().expect("daemon ticked");
        assert!(!last.safe_mode, "safe mode must disengage after recovery");
        assert_eq!(last.cap_w, Some(80.0), "scheduled cap restored");
        let p = node.average_power(2 * SEC);
        assert!(p < 90.0, "power back under control, got {p:.1}");
    }

    #[test]
    fn sensor_survives_counter_wrap_and_jump() {
        // Force an early 32-bit wrap mid-run: the wrap-aware delta must
        // not produce a plausibility spike for the natural wrap, and the
        // artificial jump must be filtered, not reported.
        let plan = FaultPlan::new(6).energy_jump(0xFFFF_FF00, FaultWindow::new(3 * SEC, 4 * SEC));
        let mut node = busy_node(Some(plan));
        let mut d = resilient(100.0);
        run(&mut d, &mut node, 12);
        assert!(d.sensor().implausible >= 1, "jump must be filtered");
        for s in &d.samples[1..] {
            assert!(
                s.avg_power_w < 400.0,
                "implausible power {:.0} W leaked into samples",
                s.avg_power_w
            );
        }
    }

    #[test]
    fn stuck_counter_holds_last_good_measurement() {
        let plan = FaultPlan::new(7).stuck_energy(FaultWindow::new(4 * SEC, 8 * SEC));
        let mut node = busy_node(Some(plan));
        let mut d = resilient(100.0);
        run(&mut d, &mut node, 12);
        // While stuck the delta is 0 ticks -> 0 W -> implausible.
        assert!(d.sensor().implausible >= 2, "stuck windows filtered");
        for s in &d.samples[2..] {
            assert!(
                s.avg_power_w > 20.0,
                "stuck counter must not read as ~0 W (got {:.1})",
                s.avg_power_w
            );
        }
        assert!(
            d.samples.iter().all(|s| !s.safe_mode),
            "a low-reading fault must not trip the overshoot logic"
        );
    }

    #[test]
    fn telemetry_dropout_does_not_destabilize_control() {
        let plan = FaultPlan::new(8).telemetry_dropout(FaultWindow::new(3 * SEC, 7 * SEC));
        let mut node = busy_node(Some(plan));
        let mut d = resilient(90.0);
        run(&mut d, &mut node, 14);
        assert!(d.sensor().read_errors > 0, "dropout must be visible");
        // Writes still work: the cap stays programmed and power capped.
        let p = node.average_power(2 * SEC);
        assert!((p - 90.0).abs() < 9.0, "cap held through dropout: {p:.1}");
        assert!(d.samples.iter().all(|s| !s.safe_mode));
    }
}
