//! The NRM daemon: a 1 Hz control loop.
//!
//! "The power-policy tool runs as a background daemon on the node. It
//! monitors power usage and applies the selected dynamic power-capping
//! scheme on the package domain once every second" (paper §V.B). The
//! daemon is a [`SimAgent`]; the SPMD driver ticks it alongside the
//! application, and it records what it observed (cap programmed, average
//! power measured, how actuation went) for the experiment harness.
//!
//! There is one loop, built two ways:
//!
//! - [`NrmDaemon::new`] is the paper's naive loop. It assumes the hardware
//!   always cooperates: one write per tick, no read-back, no fallback
//!   actuator, no safe mode, and power read from the node's own meter.
//!   Under injected faults (see [`simnode::faults`]) it silently loses
//!   control of the power budget.
//! - [`NrmDaemon::hardened`] adds, tuned by a [`ResilienceConfig`]:
//!   - **retry with backoff**: failed knob writes are retried within the
//!     tick, and a repeatedly failing primary actuator is re-probed on an
//!     exponential tick schedule rather than hammered;
//!   - **read-back verification**: after programming a RAPL cap, the
//!     daemon reads `MSR_PKG_POWER_LIMIT` back and checks the cap actually
//!     latched, catching writes that report success but are dropped or
//!     deferred;
//!   - **fallback actuator chain**: when RAPL is unusable the daemon
//!     degrades to direct DVFS, then DDCM, recovering to the primary once
//!     the fault clears;
//!   - **safe-mode floor**: sustained budget overshoot (every actuator
//!     failing, or caps not biting) engages a conservative floor cap below
//!     the scheduled budget until measurements come back in line;
//!   - **MSR-based power sensing**: power is measured the way a real
//!     daemon measures it, through an [`MsrPowerSensor`] on the wrapping
//!     `MSR_PKG_ENERGY_STATUS` counter, so stuck or jumping counters
//!     degrade the estimate instead of poisoning it.

use simnode::agent::SimAgent;
use simnode::hw::{PowerLimit, MSR_PKG_POWER_LIMIT};
use simnode::node::Node;
use simnode::time::{Nanos, SEC};

use crate::actuator::{Actuator, ActuatorKind};
use crate::resilience::{MsrPowerSensor, ResilienceConfig};
use crate::scheme::CapSchedule;

/// Ceiling for the exponential primary re-probe interval, ticks.
const BACKOFF_CAP_TICKS: u32 = 32;

/// Safe mode programs the budget less this margin, W, instead of the
/// scheduled cap.
const SAFE_MARGIN_W: f64 = 10.0;

/// Lowest cap safe mode will ever program, W.
const MIN_FLOOR_W: f64 = 30.0;

/// Consecutive in-budget ticks before safe mode disengages.
const RECOVER_AFTER: u32 = 5;

/// One daemon observation per tick, including per-tick health counters so
/// experiments can audit how the control loop coped with faults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DaemonSample {
    /// Tick time, ns.
    pub at: Nanos,
    /// Cap programmed at this tick (`None` = uncapped).
    pub cap_w: Option<f64>,
    /// Average package power over the preceding second, W.
    pub avg_power_w: f64,
    /// Health: every actuation attempt this tick failed (the knob was not
    /// moved).
    pub actuation_failed: bool,
    /// Health: a fallback actuator, not the primary, performed the
    /// actuation this tick.
    pub fallback_used: bool,
    /// Health: write retries spent this tick (0 for the naive loop,
    /// which never retries).
    pub retries: u32,
    /// Health: result of read-back verification of the programmed cap —
    /// `None` when not performed, `Some(false)` when the register did not
    /// hold the requested value.
    pub verified: Option<bool>,
    /// Health: the safe-mode floor cap was in force this tick.
    pub safe_mode: bool,
}

/// The node resource manager daemon.
pub struct NrmDaemon {
    schedule: Box<dyn CapSchedule>,
    cfg: ResilienceConfig,
    /// Built by [`NrmDaemon::hardened`]: power comes from `sensor`, and
    /// sustained overshoot engages safe mode. The naive loop reads the
    /// node's meter and never enters safe mode.
    hardened: bool,
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
    /// The latest observation, kept whether or not `samples` is.
    last: Option<DaemonSample>,
    /// Whether `samples` keeps every tick's observation.
    history: bool,
    /// Observations, one per tick, unless the daemon was built
    /// [`NrmDaemon::hardened`] without [`NrmDaemon::with_history`].
    pub samples: Vec<DaemonSample>,
}

impl NrmDaemon {
    /// The paper's naive loop, applying `schedule` through `actuator` once
    /// per second and keeping every tick in `samples`. It assumes
    /// actuation succeeds: a failed write is recorded, not retried.
    pub fn new(schedule: Box<dyn CapSchedule>, actuator: ActuatorKind) -> Self {
        let cfg = ResilienceConfig {
            max_retries: 0,
            readback: false,
            fallbacks: Vec::new(),
            ..ResilienceConfig::default()
        };
        Self {
            hardened: false,
            history: true,
            ..Self::hardened(schedule, actuator, cfg)
        }
    }

    /// The hardened loop, applying `schedule`, preferring `primary` and
    /// degrading along `cfg.fallbacks`. It keeps no history unless built
    /// [`NrmDaemon::with_history`].
    pub fn hardened(
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
            hardened: true,
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
            last: None,
            history: false,
            samples: Vec::new(),
        }
    }

    /// Keep every tick's observation in `samples`. Without it the hardened
    /// loop keeps only the latest ([`NrmDaemon::last_sample`]), so a long
    /// run holds no history that nobody reads.
    pub fn with_history(mut self) -> Self {
        self.history = true;
        self
    }

    /// Override the control period (1 s by default).
    pub fn with_period(mut self, period: Nanos) -> Self {
        assert!(period > 0);
        self.period = period;
        self
    }

    /// The actuator currently in charge.
    pub fn active_kind(&self) -> ActuatorKind {
        self.chain[self.active].kind()
    }

    /// The power sensor (exposes read-error / implausibility counters).
    pub fn sensor(&self) -> &MsrPowerSensor {
        &self.sensor
    }

    /// The most recent observation, if the daemon has ticked at all.
    pub fn last_sample(&self) -> Option<&DaemonSample> {
        self.last.as_ref()
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
        let units = self.sensor.units(node)?;
        let raw = node.msr().read(MSR_PKG_POWER_LIMIT).ok()?;
        let latched = PowerLimit::decode(raw, units).watts;
        Some(match (target, latched) {
            (None, None) => true,
            // 1/8 W quantization tolerance.
            (Some(t), Some(l)) => (t - l).abs() <= 0.25,
            _ => false,
        })
    }

    /// Track budget overshoot on the measured power `w` and engage or
    /// release the safe-mode floor.
    fn guard_budget(&mut self, budget: Option<f64>, w: f64) {
        let Some(b) = budget else {
            // No budget, nothing to overshoot.
            self.overshoot_streak = 0;
            self.healthy_streak = 0;
            self.safe_mode = false;
            return;
        };
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
        if self.safe_mode && self.healthy_streak >= RECOVER_AFTER {
            self.safe_mode = false;
        }
    }
}

impl SimAgent for NrmDaemon {
    fn period(&self) -> Nanos {
        self.period
    }

    fn on_tick(&mut self, node: &mut Node, now: Nanos) {
        let start = *self.start.get_or_insert(now);
        let elapsed = now - start;
        let budget = self.schedule.cap_at(elapsed);

        // The hardened loop measures through the MSR path, like a real
        // daemon, and holds the last plausible value across outages so
        // control keeps a basis. The naive loop reads the node's meter,
        // which no fault plan touches.
        let measured = if self.hardened {
            self.sensor.sample(node, now)
        } else {
            Some(node.average_power(self.period))
        };
        if let Some(w) = measured {
            self.last_power_w = w;
        }

        // Safe mode pulls the target below the scheduled budget.
        let target = if self.safe_mode {
            budget.map(|b| (b - SAFE_MARGIN_W).max(MIN_FLOOR_W))
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
                    self.primary_probe_in =
                        crate::backoff::delay_after(self.primary_failures, BACKOFF_CAP_TICKS);
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
        let avg_power_w = measured.unwrap_or(self.last_power_w);
        if self.hardened {
            self.guard_budget(budget, avg_power_w);
        }

        let sample = DaemonSample {
            at: now,
            cap_w: target,
            avg_power_w,
            actuation_failed,
            fallback_used,
            retries: total_retries,
            verified,
            safe_mode: self.safe_mode,
        };
        if self.history {
            self.samples.push(sample);
        }
        self.last = Some(sample);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{LinearDecay, StepFunction};
    use simnode::config::NodeConfig;
    use simnode::node::{CoreWork, WorkPacket};

    fn run_daemon(mut daemon: NrmDaemon, seconds: u64) -> NrmDaemon {
        let mut node = Node::new(NodeConfig::default());
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
        let quanta = (SEC / node.config().quantum) as usize;
        for _ in 0..seconds {
            for _ in 0..quanta {
                node.step();
            }
            let now = node.now();
            daemon.on_tick(&mut node, now);
        }
        daemon
    }

    #[test]
    fn daemon_programs_the_scheduled_caps() {
        let sched = StepFunction::half_half(70.0, 10 * SEC);
        let d = run_daemon(NrmDaemon::new(Box::new(sched), ActuatorKind::Rapl), 20);
        let caps: Vec<Option<f64>> = d.samples.iter().map(|s| s.cap_w).collect();
        // First 5 ticks: elapsed 0..5 s → uncapped; ticks at 5..15 s →
        // capped; back to uncapped.
        assert_eq!(caps[0], None);
        assert!(caps.contains(&Some(70.0)));
        let capped = caps.iter().filter(|c| c.is_some()).count();
        assert!(
            (8..=12).contains(&capped),
            "half the ticks capped: {capped}"
        );
    }

    #[test]
    fn measured_power_follows_a_linear_decay() {
        let sched = LinearDecay {
            uncapped_for: 3 * SEC,
            from_w: 140.0,
            to_w: 60.0,
            ramp: 10 * SEC,
        };
        let d = run_daemon(NrmDaemon::new(Box::new(sched), ActuatorKind::Rapl), 18);
        // Late samples should sit near the 60 W floor.
        let last = d.last_sample().expect("daemon ticked");
        assert!(
            (last.avg_power_w - 60.0).abs() < 8.0,
            "settled power {:.1} W",
            last.avg_power_w
        );
        // Power during the ramp must be decreasing overall.
        let early = d.samples[4].avg_power_w;
        let late = d.samples[14].avg_power_w;
        assert!(late < early - 20.0, "{early:.1} → {late:.1}");
    }

    #[test]
    fn daemon_period_defaults_to_one_second() {
        let d = NrmDaemon::new(Box::new(crate::scheme::Uncapped), ActuatorKind::Rapl);
        assert_eq!(SimAgent::period(&d), SEC);
    }
}
