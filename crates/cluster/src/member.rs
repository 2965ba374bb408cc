//! One cluster member: a simulated node, its NRM daemon, and its rank of
//! the bulk-synchronous proxy application.
//!
//! Each member owns a full per-node stack — [`simnode::node::Node`] with
//! optional fault plan and a per-member MSR backend tier (the
//! [`NodeSpec::backend`](crate::sim::NodeSpec::backend) selection rides
//! in on the member's [`NodeConfig`], so a cluster can mix closed-form
//! and emulated-bus register files), a hardened [`NrmDaemon`] applying
//! the arbiter's grant through the [`GrantSchedule`] channel, and an
//! [`MsrPowerSensor`] playing the role of the job manager's telemetry
//! collector (user-space MSR reads, so the fault layer can take it
//! out). The cluster driver calls [`ClusterNode::compute_iteration`] /
//! [`ClusterNode::spin_until`] to advance the member between barriers;
//! the daemon is ticked inline on its own control period, exactly like
//! the single-node SPMD driver does.

use nrm::actuator::ActuatorKind;
use nrm::daemon::NrmDaemon;
use nrm::resilience::{MsrPowerSensor, ResilienceConfig};
use simnode::agent::SimAgent;
use simnode::config::NodeConfig;
use simnode::node::{CoreWork, Node};
use simnode::time::{secs, Nanos, SEC};
use simnode::NodeTables;
use std::sync::Arc;

use crate::arbiter::NodeTelemetry;
use crate::grant::{GrantCell, GrantSchedule};
use crate::workload::WorkloadShape;

/// Resilience tuning for cluster daemons. Arbiter grants step at every
/// barrier, so a tick measured under the *previous* (higher) grant can
/// transiently read over the new budget; a wider tolerance and a longer
/// safe-mode fuse keep redistribution from tripping the overshoot logic.
fn cluster_resilience() -> ResilienceConfig {
    ResilienceConfig {
        overshoot_tolerance_w: 8.0,
        safe_mode_after: 8,
        ..ResilienceConfig::default()
    }
}

/// A node participating in the bulk-synchronous cluster.
pub struct ClusterNode {
    /// Cluster-wide rank of this member.
    pub id: usize,
    /// Which rack the member lives in (0 for a flat cluster; set by the
    /// driver from [`crate::hierarchy::HierarchyConfig`] when the
    /// arbitration is hierarchical).
    rack: usize,
    node: Node,
    daemon: NrmDaemon,
    grant: GrantCell,
    /// Next daemon tick, absolute node time.
    next_tick: Nanos,
    tick_period: Nanos,
    /// The job manager's own power telemetry (separate from the daemon's
    /// sensor: a real collector samples the MSR independently).
    sensor: MsrPowerSensor,
    /// Work multiplier for this rank (see [`crate::workload`]).
    weight: f64,
    shape: WorkloadShape,
    last_compute_s: f64,
    /// Exchange-phase wire time of the most recent iteration, s (set by
    /// the driver from the comm model; 0 under an ideal barrier).
    last_comm_s: f64,
    /// Barrier/rendezvous slack of the most recent iteration, s.
    last_slack_s: f64,
}

impl ClusterNode {
    /// Build a member with its daemon ticking every `daemon_period`.
    ///
    /// # Panics
    /// Panics when `daemon_period` is not a positive multiple of the node
    /// quantum (ticks must land on quantum boundaries).
    pub fn new(
        id: usize,
        cfg: NodeConfig,
        weight: f64,
        shape: WorkloadShape,
        daemon_period: Nanos,
    ) -> Self {
        let tables = Arc::new(NodeTables::new(&cfg));
        Self::with_tables(id, cfg, tables, weight, shape, daemon_period)
    }

    /// [`ClusterNode::new`] on `cfg`'s lookup tables, shared with the
    /// other members of the same hardware (see [`Node::with_tables`]).
    ///
    /// # Panics
    /// As [`ClusterNode::new`] and [`Node::with_tables`].
    pub fn with_tables(
        id: usize,
        cfg: NodeConfig,
        tables: Arc<NodeTables>,
        weight: f64,
        shape: WorkloadShape,
        daemon_period: Nanos,
    ) -> Self {
        assert!(
            daemon_period > 0 && daemon_period.is_multiple_of(cfg.quantum),
            "daemon period must be a positive multiple of the quantum"
        );
        let grant = GrantCell::default();
        let daemon = NrmDaemon::hardened(
            Box::new(GrantSchedule(grant.clone())),
            ActuatorKind::Rapl,
            cluster_resilience(),
        )
        .with_period(daemon_period);
        let node = Node::with_tables(cfg, tables);
        let mut member = Self {
            id,
            rack: 0,
            node,
            daemon,
            grant,
            // First tick lands on the first quantum after start, so the
            // initial grant is programmed as soon as the run begins rather
            // than a full control period in.
            next_tick: 0,
            tick_period: daemon_period,
            sensor: MsrPowerSensor::new(),
            weight,
            shape,
            last_compute_s: 0.0,
            last_comm_s: 0.0,
            last_slack_s: 0.0,
        };
        // Prime the collector: the first MSR sample only establishes the
        // (time, counter) baseline and never yields a power reading.
        let now = member.node.now();
        member.sensor.sample(&member.node, now);
        member
    }

    /// Place the member in a rack of the arbitration hierarchy.
    pub fn with_rack(mut self, rack: usize) -> Self {
        self.rack = rack;
        self
    }

    /// Which rack the member lives in (0 for a flat cluster).
    pub fn rack(&self) -> usize {
        self.rack
    }

    /// The member's local clock, ns.
    pub fn now(&self) -> Nanos {
        self.node.now()
    }

    /// Ground-truth energy consumed so far, J (meter, not MSR).
    pub fn total_energy(&self) -> f64 {
        self.node.total_energy()
    }

    /// Compute time of the most recent iteration, s.
    pub fn last_compute_s(&self) -> f64 {
        self.last_compute_s
    }

    /// Exchange-phase wire time of the most recent iteration, s.
    pub fn last_comm_s(&self) -> f64 {
        self.last_comm_s
    }

    /// Barrier/rendezvous slack of the most recent iteration, s.
    pub fn last_slack_s(&self) -> f64 {
        self.last_slack_s
    }

    /// Record this iteration's exchange-phase split (driver-computed from
    /// the cluster-wide comm model, which needs the global view).
    pub fn set_phase(&mut self, comm_s: f64, slack_s: f64) {
        debug_assert!(comm_s >= 0.0 && slack_s >= 0.0, "phases are durations");
        self.last_comm_s = comm_s;
        self.last_slack_s = slack_s;
    }

    /// This epoch's NIC drain factor in (0, 1]: how fast the node can
    /// feed its injection queue relative to full power. A power cap
    /// slows the cores (DVFS/DDCM) that post descriptors and the uncore
    /// that moves payload to the NIC, so the factor blends the effective
    /// core-frequency ratio with the uncore-frequency ratio; `coupling`
    /// in [0, 1] scales how much of that slowdown the NIC path feels.
    pub fn link_drain_factor(&self, coupling: f64) -> f64 {
        debug_assert!((0.0..=1.0).contains(&coupling), "coupling in [0,1]");
        let cfg = self.node.config();
        let f_ratio = self.node.telemetry().effective_mhz / cfg.fmax_mhz() as f64;
        let u_ratio = cfg.uncore.scale(self.node.actuation().uncore);
        let norm = (0.5 * f_ratio + 0.5 * u_ratio).clamp(0.05, 1.0);
        (1.0 - coupling) + coupling * norm
    }

    /// This rank's work multiplier.
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// The underlying node (read-only; the driver advances it through the
    /// iteration methods).
    pub fn node(&self) -> &Node {
        &self.node
    }

    /// Store the arbiter's latest grant; the daemon programs it at its
    /// next tick (grants propagate with control-period latency, as in a
    /// real NRM hierarchy).
    pub fn set_grant(&mut self, cap_w: f64) {
        self.grant.set(Some(cap_w));
    }

    /// Store the arbiter's latest grant only when it differs bitwise from
    /// the cell's current value; returns whether a store happened. The
    /// daemon re-reads the cell every control tick regardless, so
    /// skipping a bit-identical store is behaviorally invisible — it just
    /// spares the atomic write (and cache-line bounce) for the common
    /// steady-state case where the arbiter held the grant.
    pub fn set_grant_if_changed(&mut self, cap_w: f64) -> bool {
        if self.grant.get().map(f64::to_bits) == Some(cap_w.to_bits()) {
            return false;
        }
        self.grant.set(Some(cap_w));
        true
    }

    /// Absolute sim-time of this member's next actionable event, capped at
    /// `horizon`: its next daemon control tick or the node's own next
    /// scheduled event ([`Node::next_event_hint`]), whichever is first.
    /// The sharded driver parks members whose next event lies at or past
    /// the horizon instead of stepping them.
    pub fn next_event(&self, horizon: Nanos) -> Nanos {
        self.node
            .next_event_hint(horizon.min(self.next_tick))
            .max(self.node.now())
    }

    /// Advance toward `target` in one [`Node::step_until`] segment — to the
    /// earliest of `target`, the next daemon tick, or a core event — then
    /// tick the daemon if its period elapsed. Daemon ticks land on exactly
    /// the quantum boundaries the fixed-quantum reference put them on;
    /// between them the node macro-steps event-free stretches in closed
    /// form. Callers loop, re-examining node state after each segment.
    fn advance_toward(&mut self, target: Nanos) {
        let deadline = target.min(self.next_tick).max(self.node.now() + 1);
        self.node.step_until(deadline);
        let now = self.node.now();
        while now >= self.next_tick {
            self.daemon.on_tick(&mut self.node, now);
            self.next_tick += self.tick_period;
        }
    }

    /// Run one iteration of this rank's share of the kernel on every core;
    /// returns the compute time, s.
    pub fn compute_iteration(&mut self) -> f64 {
        let packet = self.shape.packet(self.weight);
        self.node.assign_all(CoreWork::Compute(packet.into()));
        let t0 = self.node.now();
        while !self.node.all_idle() {
            self.advance_toward(Nanos::MAX);
        }
        self.last_compute_s = secs(self.node.now() - t0);
        self.last_compute_s
    }

    /// Busy-wait at the barrier until the member's clock reaches
    /// `barrier_at` (MPI-style polling: full dynamic power, no progress).
    pub fn spin_until(&mut self, barrier_at: Nanos) {
        if self.node.now() >= barrier_at {
            return;
        }
        self.node.assign_all(CoreWork::Spin);
        while self.node.now() < barrier_at {
            self.advance_toward(barrier_at);
        }
        self.node.assign_all(CoreWork::Idle);
    }

    /// Report this epoch's telemetry to the arbiter, or `None` when the
    /// MSR power path is faulted (dropout, stuck/jumping counter): the
    /// member then keeps its last grant and sits out redistribution.
    pub fn take_report(&mut self) -> Option<NodeTelemetry> {
        let now = self.node.now();
        let power_w = self.sensor.sample(&self.node, now)?;
        if self.last_compute_s <= 0.0 {
            return None;
        }
        Some(NodeTelemetry {
            compute_s: self.last_compute_s,
            comm_s: self.last_comm_s,
            slack_s: self.last_slack_s,
            rate: self.weight / self.last_compute_s,
            power_w,
        })
    }
}

/// A second is a whole number of default daemon periods.
pub const DEFAULT_DAEMON_PERIOD: Nanos = SEC / 4;

#[cfg(test)]
mod tests {
    use super::*;
    use simnode::faults::{FaultPlan, FaultWindow};

    fn member(cfg: NodeConfig) -> ClusterNode {
        ClusterNode::new(0, cfg, 1.0, WorkloadShape::default(), DEFAULT_DAEMON_PERIOD)
    }

    #[test]
    fn iteration_runs_to_completion_and_times_it() {
        let mut m = member(simnode::presets::reference());
        m.set_grant(120.0);
        let t = m.compute_iteration();
        // ~120 ms of compute at fmax; capped at 120 W barely stretches it.
        assert!((0.1..0.5).contains(&t), "iteration took {t:.3} s");
        assert!(m.total_energy() > 0.0);
    }

    #[test]
    fn conditional_grant_store_skips_bit_identical_values() {
        let mut m = member(simnode::presets::reference());
        assert!(m.set_grant_if_changed(80.0), "first store must land");
        assert!(!m.set_grant_if_changed(80.0), "bit-identical regrant held");
        assert!(m.set_grant_if_changed(80.0 + 1e-9), "any bit change stores");
    }

    #[test]
    fn next_event_stays_between_now_and_the_horizon() {
        let mut m = member(simnode::presets::reference());
        m.set_grant(100.0);
        m.compute_iteration();
        let now = m.now();
        let horizon = now + SEC;
        let e = m.next_event(horizon);
        assert!(e >= now, "event in the past: {e} < {now}");
        assert!(e <= horizon, "event past the horizon: {e} > {horizon}");
        // A daemon tick is always due within one control period.
        assert!(e <= now + DEFAULT_DAEMON_PERIOD);
    }

    #[test]
    fn spin_burns_time_and_power_without_progress() {
        let mut m = member(simnode::presets::reference());
        m.set_grant(100.0);
        m.compute_iteration();
        let e0 = m.total_energy();
        let target = m.now() + SEC / 2;
        m.spin_until(target);
        assert!(m.now() >= target);
        assert!(m.total_energy() > e0, "spinning must burn energy");
    }

    #[test]
    fn grant_reaches_the_package_via_the_daemon() {
        let mut m = member(simnode::presets::reference());
        m.set_grant(70.0);
        m.compute_iteration();
        assert_eq!(
            m.node().package_cap(),
            Some(70.0),
            "daemon must program the granted cap"
        );
    }

    #[test]
    fn report_carries_power_and_rate() {
        let mut m = member(simnode::presets::reference());
        m.set_grant(90.0);
        m.compute_iteration();
        let rep = m.take_report().expect("healthy node reports");
        assert!(rep.power_w > 20.0 && rep.power_w < 160.0, "{rep:?}");
        assert!((rep.rate - 1.0 / rep.compute_s).abs() < 1e-9);
    }

    #[test]
    fn report_carries_the_phase_split() {
        let mut m = member(simnode::presets::reference());
        m.set_grant(90.0);
        m.compute_iteration();
        m.set_phase(0.025, 0.075);
        let rep = m.take_report().expect("healthy node reports");
        assert_eq!(rep.comm_s, 0.025);
        assert_eq!(rep.slack_s, 0.075);
        assert!(rep.compute_fraction() < 1.0);
    }

    #[test]
    fn capped_node_drains_its_nic_slower() {
        let run_at = |cap: f64| {
            let mut m = member(simnode::presets::reference());
            m.set_grant(cap);
            m.compute_iteration();
            m.link_drain_factor(1.0)
        };
        let full = run_at(130.0);
        let capped = run_at(45.0);
        assert!(
            capped < full - 0.05,
            "a 45 W node must drain slower than a 130 W one: {capped:.2} vs {full:.2}"
        );
        // With the coupling off, the NIC ignores the power state entirely.
        let mut m = member(simnode::presets::reference());
        m.set_grant(45.0);
        m.compute_iteration();
        assert_eq!(m.link_drain_factor(0.0), 1.0);
    }

    #[test]
    fn telemetry_dropout_suppresses_the_report() {
        let plan = FaultPlan::new(11).telemetry_dropout(FaultWindow::new(0, 3600 * SEC));
        let cfg = NodeConfig {
            faults: Some(std::sync::Arc::new(plan)),
            ..simnode::presets::reference()
        };
        let mut m = member(cfg);
        m.set_grant(90.0);
        m.compute_iteration();
        assert!(m.take_report().is_none(), "dropout must suppress telemetry");
    }
}
