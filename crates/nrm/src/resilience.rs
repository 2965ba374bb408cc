//! What hardens the NRM loop: its tuning ([`ResilienceConfig`]) and its
//! power sensor ([`MsrPowerSensor`]).
//!
//! The loop itself is [`NrmDaemon`]: the naive loop
//! ([`NrmDaemon::new`]) uses neither, the hardened one
//! ([`NrmDaemon::hardened`]) both. See the [`crate::daemon`] module docs
//! for what each mechanism does under injected faults.
//!
//! [`NrmDaemon`]: crate::daemon::NrmDaemon
//! [`NrmDaemon::new`]: crate::daemon::NrmDaemon::new
//! [`NrmDaemon::hardened`]: crate::daemon::NrmDaemon::hardened

use simnode::hw::{RaplUnits, MSR_PKG_ENERGY_STATUS, MSR_RAPL_POWER_UNIT};
use simnode::node::Node;
use simnode::time::Nanos;

use crate::actuator::ActuatorKind;

/// Tuning for the hardened control loop
/// ([`NrmDaemon::hardened`](crate::daemon::NrmDaemon::hardened)).
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    /// Immediate write retries per actuator per tick.
    pub max_retries: u32,
    /// Verify RAPL cap writes by reading the register back.
    pub readback: bool,
    /// Actuators to fall back to, in order, after the primary.
    pub fallbacks: Vec<ActuatorKind>,
    /// Measured power may exceed the budget by this much before a tick
    /// counts as an overshoot, W.
    pub overshoot_tolerance_w: f64,
    /// Consecutive overshoot ticks before safe mode engages.
    pub safe_mode_after: u32,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self {
            max_retries: 2,
            readback: true,
            fallbacks: vec![ActuatorKind::DirectDvfs, ActuatorKind::Ddcm],
            overshoot_tolerance_w: 5.0,
            safe_mode_after: 3,
        }
    }
}

/// Power readings below this are discarded as implausible (stuck
/// counters; a powered package always burns static power), W.
const MIN_PLAUSIBLE_W: f64 = 1.0;

/// Power readings above this are discarded as implausible (counter
/// jumps), W.
const MAX_PLAUSIBLE_W: f64 = 400.0;

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

    /// The RAPL units, read once through the allow-list and cached;
    /// `None` while `MSR_RAPL_POWER_UNIT` is unreadable.
    pub(crate) fn units(&mut self, node: &Node) -> Option<RaplUnits> {
        if self.units.is_none() {
            self.units = node
                .msr()
                .read(MSR_RAPL_POWER_UNIT)
                .ok()
                .map(RaplUnits::decode);
        }
        self.units
    }

    /// Sample average power since the previous good sample, W. Returns
    /// `None` on the first call, on MSR read failure, or when the reading
    /// falls outside the plausibility window, 1 W to 400 W inclusive.
    pub fn sample(&mut self, node: &Node, now: Nanos) -> Option<f64> {
        let Some(units) = self.units(node) else {
            self.read_errors += 1;
            return None;
        };
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
        if !(MIN_PLAUSIBLE_W..=MAX_PLAUSIBLE_W).contains(&watts) {
            self.implausible += 1;
            return None;
        }
        Some(watts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::NrmDaemon;
    use crate::scheme::ConstantCap;
    use simnode::agent::SimAgent;
    use simnode::config::NodeConfig;
    use simnode::faults::{FaultPlan, FaultWindow};
    use simnode::hw::{IA32_CLOCK_MODULATION, IA32_PERF_CTL, MSR_PKG_POWER_LIMIT};
    use simnode::node::{CoreWork, Node, WorkPacket};
    use simnode::time::SEC;

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

    fn run(daemon: &mut NrmDaemon, node: &mut Node, seconds: u64) {
        let quanta = (SEC / node.config().quantum) as usize;
        for _ in 0..seconds {
            for _ in 0..quanta {
                node.step();
            }
            let now = node.now();
            daemon.on_tick(node, now);
        }
    }

    fn resilient(cap: f64) -> NrmDaemon {
        NrmDaemon::hardened(
            Box::new(ConstantCap(cap)),
            ActuatorKind::Rapl,
            ResilienceConfig::default(),
        )
        .with_history()
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
    fn plausibility_window_bounds_are_inclusive() {
        // One energy tick is 2^-14 J, so over exactly 1 s a delta of
        // 400 * 2^14 ticks reads exactly 400 W and 2^14 ticks exactly 1 W.
        let mut node = Node::new(NodeConfig::default());
        let mut sensor = MsrPowerSensor::new();
        let mut counter = 0;
        // (ticks counted this second, reading, implausible so far)
        let seconds = [
            (0, None, 0), // baseline
            (400 << 14, Some(400.0), 0),
            ((400 << 14) + 1, None, 1), // one tick above 400 W
            (1 << 14, Some(1.0), 1),
            ((1 << 14) - 1, None, 2), // one tick below 1 W
        ];
        for (t, (ticks, reading, implausible)) in (0..).zip(seconds) {
            counter += ticks;
            node.msr_mut().hw_write(MSR_PKG_ENERGY_STATUS, counter);
            assert_eq!(sensor.sample(&node, t * SEC), reading, "second {t}");
            assert_eq!(sensor.implausible, implausible, "second {t}");
        }
        assert_eq!(sensor.read_errors, 0);
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
