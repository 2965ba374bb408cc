//! The power-budget arbiter API and its flat implementation.
//!
//! A cluster holds one fixed power budget (machine-room breaker, PUE
//! contract, job allocation) and must divide it across nodes. Medhat et
//! al. ("Power Redistribution for Optimizing Performance in MPI
//! Clusters") show that shifting a fixed budget toward critical-path
//! ranks recovers performance lost to imbalance; Cerf et al. argue the
//! actuation should be a feedback controller on an online progress
//! signal. The [`BudgetArbiter`] trait captures the contract every
//! budget divider satisfies — redistribute from telemetry, expose the
//! grants and the conservation trace, and accept a re-targeted budget
//! from a *parent* arbiter — so arbiters compose into trees: the flat
//! [`PowerArbiter`] here grants nodes directly, and
//! [`crate::hierarchy::RackArbiter`] nests flat arbiters under a
//! rack-level division of the same machine budget.
//!
//! Division policies (shared by every level through
//! [`crate::policy::Allocator`]):
//!
//! - [`Policy::UniformStatic`] — the application-agnostic baseline:
//!   `budget / n` once, never revisited;
//! - [`Policy::DemandProportional`] — each epoch, watts in proportion to
//!   each child's measured power draw (demand), so idle-ish children
//!   yield headroom;
//! - [`Policy::ProgressFeedback`] — a proportional controller on the
//!   per-child iteration times: children ahead of the barrier donate
//!   watts, the critical path receives them, equalizing arrival times.
//!
//! Two invariants hold after every redistribution, checked on every tick
//! and recorded in the [`GrantTrace`]: granted caps sum to at most the
//! budget, and every grant respects its `[min, max]` clamp. Children
//! whose telemetry dropped out (the PR-1 fault layer) keep their last
//! grant and are excluded from redistribution until they report again.

use serde::{Deserialize, Serialize};

use crate::error::{ensure, ConfigError, TelemetryError};
use crate::policy::{self, Allocator, RebalanceScratch};

/// Tolerance for floating-point invariant checks, W.
pub(crate) const EPS_W: f64 = 1e-6;

/// Budget-division policy (the serde-facing configuration enum; its
/// executable form is [`Policy::allocator`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Policy {
    /// `budget / n` for everyone, never redistributed.
    UniformStatic,
    /// Watts in proportion to each child's measured power draw.
    DemandProportional,
    /// Proportional feedback on per-child iteration times: steal watts
    /// from ahead-of-barrier children for the critical path. The error
    /// term is scaled by each child's compute fraction
    /// ([`NodeTelemetry::compute_fraction`]), so a rank that is slow
    /// because it is waiting on the wire — not because it is capped —
    /// stops being funded.
    ProgressFeedback {
        /// Controller gain: fraction of the relative time error converted
        /// into a relative cap adjustment per epoch (0.5–1.5 is sensible).
        gain: f64,
    },
}

impl Policy {
    /// Display name (table/CSV key).
    pub fn name(self) -> &'static str {
        match self {
            Policy::UniformStatic => "uniform-static",
            Policy::DemandProportional => "demand-proportional",
            Policy::ProgressFeedback { .. } => "progress-feedback",
        }
    }

    /// Validate the policy's parameters: a feedback gain must be
    /// non-negative and finite. Every level of the tree that takes a
    /// policy checks it here.
    pub fn validate(self) -> Result<(), ConfigError> {
        if let Policy::ProgressFeedback { gain } = self {
            ensure(
                gain.is_finite() && gain >= 0.0,
                "Policy::ProgressFeedback.gain",
                || format!("gain {gain} must be non-negative and finite"),
            )?;
        }
        Ok(())
    }
}

/// Arbiter tuning.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArbiterConfig {
    /// Budget to divide, W.
    pub budget_w: f64,
    /// Lowest cap the arbiter will ever grant a node, W (RAPL floors and
    /// safe-mode margins live below this).
    pub min_cap_w: f64,
    /// Highest cap the arbiter will ever grant a node, W.
    pub max_cap_w: f64,
    /// Division policy.
    pub policy: Policy,
}

impl ArbiterConfig {
    /// Validate internal consistency: a positive, finite budget, a
    /// non-empty `0 < min ≤ max` clamp range with a finite `max`, and a
    /// non-negative, finite feedback gain.
    pub fn validate(&self) -> Result<(), ConfigError> {
        ensure(
            self.budget_w.is_finite() && self.budget_w > 0.0,
            "ArbiterConfig.budget_w",
            || format!("budget {} W must be positive and finite", self.budget_w),
        )?;
        ensure(
            self.max_cap_w.is_finite(),
            "ArbiterConfig.max_cap_w",
            || format!("max cap {} W must be finite", self.max_cap_w),
        )?;
        ensure(
            self.min_cap_w > 0.0 && self.min_cap_w <= self.max_cap_w,
            "ArbiterConfig.min_cap_w",
            || {
                format!(
                    "need 0 < min_cap_w ({} W) <= max_cap_w ({} W)",
                    self.min_cap_w, self.max_cap_w
                )
            },
        )?;
        self.policy.validate()
    }
}

/// What one node's monitoring stack delivered for the last epoch.
/// A node that could not measure (telemetry dropout) reports `None`
/// instead and is excluded from redistribution. The same shape carries a
/// *rack's* aggregated epoch in the hierarchy (sums over its members).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeTelemetry {
    /// Compute-phase time this epoch (excluding exchange and wait), s.
    pub compute_s: f64,
    /// Exchange-phase wire time this epoch (see [`crate::comm`]), s.
    pub comm_s: f64,
    /// Time neither computing nor on the wire (barrier/rendezvous
    /// slack), s.
    pub slack_s: f64,
    /// Progress rate while computing, work units/s.
    pub rate: f64,
    /// Measured package power over the epoch (user-space MSR path), W.
    pub power_w: f64,
}

impl NodeTelemetry {
    /// Telemetry for an epoch with no exchange phase (the PR-2
    /// ideal-barrier shape: comm and slack are zero).
    pub fn compute_only(compute_s: f64, rate: f64, power_w: f64) -> Self {
        Self {
            compute_s,
            comm_s: 0.0,
            slack_s: 0.0,
            rate,
            power_w,
        }
    }

    /// Check every field is finite and non-negative — the domain the
    /// division policies assume. A report failing this is an *input*
    /// problem (a buggy or malicious client of the arbiter daemon, a
    /// corrupted frame), reported as a recoverable [`TelemetryError`]
    /// naming `node` rather than an abort.
    pub fn validate(&self, node: usize) -> Result<(), TelemetryError> {
        let fields = [
            ("compute_s", self.compute_s),
            ("comm_s", self.comm_s),
            ("slack_s", self.slack_s),
            ("rate", self.rate),
            ("power_w", self.power_w),
        ];
        for (field, value) in fields {
            if !value.is_finite() || value < 0.0 {
                return Err(TelemetryError::Malformed { node, field, value });
            }
        }
        Ok(())
    }

    /// Fraction of this node's busy time spent computing (1.0 when the
    /// epoch had no wire time). The feedback policy scales its error
    /// term by this: watts speed up compute, not the network, so a
    /// communication-bound rank earns proportionally less boost.
    pub fn compute_fraction(&self) -> f64 {
        let busy = self.compute_s + self.comm_s;
        if self.comm_s > 0.0 && busy > 0.0 {
            self.compute_s / busy
        } else {
            1.0
        }
    }
}

/// One row of the budget-conservation trace: the grants in force after a
/// redistribution round. The policy that produced the row lives on the
/// enclosing [`GrantTrace`], recorded once per trace rather than
/// duplicated per tick.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GrantTick {
    /// Redistribution round (0 = first barrier).
    pub round: usize,
    /// Cap granted to each child, W.
    pub granted_w: Vec<f64>,
    /// Whether each child's telemetry arrived this round.
    pub reporting: Vec<bool>,
    /// Sum of granted caps, W.
    pub total_w: f64,
    /// The budget being divided, W.
    pub budget_w: f64,
    /// Per-child compute-phase time reported this round, s (NaN for a
    /// silent child).
    pub compute_s: Vec<f64>,
    /// Per-child exchange-phase wire time reported this round, s (NaN
    /// for a silent child).
    pub comm_s: Vec<f64>,
}

impl GrantTick {
    /// Unallocated headroom, W (non-negative when the invariant holds).
    pub fn slack_w(&self) -> f64 {
        self.budget_w - self.total_w
    }
}

/// A budget-conservation trace: the policy name (once — every tick of a
/// trace is produced by the same policy) plus one [`GrantTick`] per
/// redistribution round.
#[derive(Debug, Clone, PartialEq)]
pub struct GrantTrace {
    policy: &'static str,
    ticks: Vec<GrantTick>,
}

impl GrantTrace {
    /// An empty trace for `policy`.
    pub fn new(policy: &'static str) -> Self {
        Self {
            policy,
            ticks: Vec::new(),
        }
    }

    /// The policy that produced every tick of this trace.
    pub fn policy(&self) -> &'static str {
        self.policy
    }

    /// The recorded ticks, in round order.
    pub fn ticks(&self) -> &[GrantTick] {
        &self.ticks
    }

    /// Number of recorded ticks.
    pub fn len(&self) -> usize {
        self.ticks.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.ticks.is_empty()
    }

    /// Smallest budget slack across the trace, W (non-negative iff
    /// conservation held on every tick; `+∞` for an empty trace).
    pub fn min_slack_w(&self) -> f64 {
        self.ticks
            .iter()
            .map(GrantTick::slack_w)
            .fold(f64::INFINITY, f64::min)
    }

    /// Append the tick for one redistribution round.
    pub(crate) fn record(
        &mut self,
        round: usize,
        grants: &[f64],
        reports: &[Option<NodeTelemetry>],
        budget_w: f64,
    ) {
        let phase = |f: fn(&NodeTelemetry) -> f64| -> Vec<f64> {
            reports
                .iter()
                .map(|r| r.as_ref().map(f).unwrap_or(f64::NAN))
                .collect()
        };
        self.ticks.push(GrantTick {
            round,
            granted_w: grants.to_vec(),
            reporting: reports.iter().map(|r| r.is_some()).collect(),
            total_w: grants.iter().sum(),
            budget_w,
            compute_s: phase(|t| t.compute_s),
            comm_s: phase(|t| t.comm_s),
        });
    }
}

/// Reject a report vector the arbiter cannot act on: wrong arity (a
/// grant for an unknown node id cannot exist) or a malformed field in
/// any present report. Shared by both arbiter levels so the rejection
/// rules cannot drift apart.
pub(crate) fn validate_reports(
    expected: usize,
    reports: &[Option<NodeTelemetry>],
) -> Result<(), TelemetryError> {
    if reports.len() != expected {
        return Err(TelemetryError::Arity {
            expected,
            got: reports.len(),
        });
    }
    for (node, report) in reports.iter().enumerate() {
        if let Some(t) = report {
            t.validate(node)?;
        }
    }
    Ok(())
}

/// The composable arbiter contract: anything that divides a (re-)settable
/// power budget across leaf nodes from their telemetry. Implemented by
/// the flat [`PowerArbiter`] and the hierarchical
/// [`crate::hierarchy::RackArbiter`]; because a parent can re-target a
/// child's budget each outer epoch via [`BudgetArbiter::set_budget`],
/// arbiters nest into trees of arbitrary fan-out. The contract is also
/// what the `arbiterd` daemon serves over a socket, which is why
/// malformed input is a recoverable [`TelemetryError`] (NACK one client,
/// keep serving) and why crash recovery ([`BudgetArbiter::restore_grants`])
/// and lease reclamation ([`BudgetArbiter::reclaim`]) are part of the
/// trait rather than daemon-private hacks.
pub trait BudgetArbiter: Send {
    /// Number of leaf nodes this arbiter grants to.
    fn node_count(&self) -> usize;

    /// Redistribute the budget from the latest telemetry; returns the new
    /// leaf grants. `reports[i] = None` means leaf `i`'s telemetry dropped
    /// out: it keeps its last grant and is excluded from this round.
    /// Malformed input (wrong arity, non-finite or negative fields) is
    /// rejected with the arbiter state untouched.
    fn redistribute(&mut self, reports: &[Option<NodeTelemetry>])
        -> Result<&[f64], TelemetryError>;

    /// [`BudgetArbiter::redistribute`] for callers that have *already*
    /// validated every report — the arbiter daemon NACKs malformed
    /// telemetry at ingress, so re-validating 100k reports per round
    /// inside the redistribution is pure overhead. Validation has no
    /// effect on the arithmetic, so the grants are bit-identical to the
    /// checked path. The default forwards to the checked path;
    /// implementations override it to skip the per-field scan (arity
    /// must still be rejected — it indexes the grant vectors).
    fn redistribute_trusted(
        &mut self,
        reports: &[Option<NodeTelemetry>],
    ) -> Result<&[f64], TelemetryError> {
        self.redistribute(reports)
    }

    /// Leaf caps currently in force, W.
    fn grants(&self) -> &[f64];

    /// The leaf-level budget-conservation trace, one tick per
    /// redistribution round.
    fn trace(&self) -> &GrantTrace;

    /// The budget this arbiter divides, W.
    fn budget(&self) -> f64;

    /// Re-target the arbiter at a new budget — the parent re-splitting
    /// this child's pot at an outer epoch. Grants in force are re-fitted
    /// into the new budget immediately (shrunk toward the floors or grown
    /// into clamp headroom); setting the current budget is a no-op, so a
    /// static parent never perturbs its children.
    fn set_budget(&mut self, budget_w: f64);

    /// The upper-level (rack) conservation trace, for arbiters that have
    /// one.
    fn rack_trace(&self) -> Option<&GrantTrace> {
        None
    }

    /// Reclaim a dead leaf's watts: drop its grant to the floor so the
    /// freed headroom re-funds the survivors at the next redistribution.
    /// The arbiter daemon calls this when a client's heartbeat lease
    /// expires — a *silent* client merely freezes (its report turns
    /// `None`), an *expired* one is defunded. Returns `false` when this
    /// arbiter cannot reclaim (the default), leaving state untouched.
    fn reclaim(&mut self, node: usize) -> bool {
        let _ = node;
        false
    }

    /// Overwrite the grants in force from a crash-recovery snapshot.
    /// Returns `false` (state untouched) when the arbiter cannot restore
    /// — wrong arity, a grant outside its clamps, Σ over budget, or an
    /// implementation whose internal state is richer than its grant
    /// vector (the default).
    fn restore_grants(&mut self, grants: &[f64]) -> bool {
        let _ = grants;
        false
    }
}

/// The flat budget arbiter: divides its budget across nodes directly.
#[derive(Debug, Clone)]
pub struct PowerArbiter {
    cfg: ArbiterConfig,
    grants: Vec<f64>,
    /// Per-node clamp floors/ceilings: uniform `[min_cap, max_cap]` from
    /// the config unless a node's ceiling was tightened below the shared
    /// one by [`PowerArbiter::with_node_ceilings`] (thermal headroom).
    min_v: Vec<f64>,
    max_v: Vec<f64>,
    /// Per-node useful-progress weights for the feedback policy (`None`
    /// keeps the bit-exact iteration-time mode).
    weights: Option<Vec<f64>>,
    alloc: Allocator,
    round: usize,
    trace: GrantTrace,
    /// Whether redistribution rounds are recorded into the trace. The
    /// rack tree's per-rack children run with this off: their traces
    /// duplicate the tree's own leaf trace, and at thousands of nodes the
    /// per-tick `Vec` clones are pure overhead.
    tracing: bool,
    /// Reusable redistribution working memory (see [`RebalanceScratch`]).
    scratch: RebalanceScratch,
}

impl PowerArbiter {
    /// An arbiter over `n` nodes, initially granting a uniform split
    /// (clamped to `[min, max]`) regardless of policy.
    ///
    /// # Panics
    /// Panics when the configuration is invalid, `n` is zero, or the
    /// budget cannot fund `n` nodes at `min_cap_w` (no feasible
    /// allocation exists).
    pub fn new(cfg: ArbiterConfig, n: usize) -> Self {
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
        assert!(n > 0, "need at least one node");
        assert!(
            cfg.budget_w >= cfg.min_cap_w * n as f64 - EPS_W,
            "budget {} W cannot fund {} nodes at the {} W floor",
            cfg.budget_w,
            n,
            cfg.min_cap_w
        );
        let uniform = (cfg.budget_w / n as f64).clamp(cfg.min_cap_w, cfg.max_cap_w);
        let arb = Self {
            grants: vec![uniform; n],
            min_v: vec![cfg.min_cap_w; n],
            max_v: vec![cfg.max_cap_w; n],
            weights: None,
            alloc: cfg.policy.allocator(),
            cfg,
            round: 0,
            trace: GrantTrace::new(cfg.policy.name()),
            tracing: true,
            scratch: RebalanceScratch::default(),
        };
        arb.assert_invariants();
        arb
    }

    /// Tighten individual nodes' grant ceilings below the shared
    /// `max_cap_w` — the thermal-headroom clamp: a node whose cooling can
    /// only dissipate `ceilings[i]` W in steady state (see
    /// [`simnode::thermal::ThermalConfig::sustainable_power_w`]) must not
    /// be granted more, because PROCHOT would claw the excess back while
    /// the watts stayed charged to this arbiter's budget. A ceiling at or
    /// above `max_cap_w` (or `+∞` for "no thermal limit") leaves that
    /// node's clamp — and therefore every grant downstream — bitwise
    /// untouched; a ceiling below the floor pins the node at the floor
    /// (the arbiter never grants below `min_cap_w`). Grants in force are
    /// re-fitted immediately, freeing clamped-off watts for the others.
    ///
    /// # Panics
    /// Panics on arity mismatch or a NaN ceiling.
    pub fn with_node_ceilings(mut self, ceilings: &[f64]) -> Self {
        assert_eq!(
            ceilings.len(),
            self.grants.len(),
            "one ceiling per node required"
        );
        let mut changed = false;
        for (i, &c) in ceilings.iter().enumerate() {
            assert!(!c.is_nan(), "node {i} ceiling must not be NaN");
            let tightened = c.clamp(self.cfg.min_cap_w, self.cfg.max_cap_w);
            if tightened < self.max_v[i] {
                self.max_v[i] = tightened;
                changed = true;
            }
        }
        if changed {
            let refit =
                policy::waterfill(&self.grants, self.cfg.budget_w, &self.min_v, &self.max_v);
            self.grants.copy_from_slice(&refit);
        }
        self.assert_invariants();
        self
    }

    /// Attach per-node useful-progress weights (see
    /// [`crate::policy::registry_progress_weights`]): the feedback policy
    /// then equalizes weighted science rates instead of raw iteration
    /// times. Without weights the time mode is preserved bit for bit.
    ///
    /// # Panics
    /// Panics on arity mismatch or a non-positive/non-finite weight.
    pub fn with_progress_weights(mut self, weights: Vec<f64>) -> Self {
        assert_eq!(
            weights.len(),
            self.grants.len(),
            "one weight per node required"
        );
        for (i, &w) in weights.iter().enumerate() {
            assert!(
                w.is_finite() && w > 0.0,
                "node {i} weight {w} must be positive and finite"
            );
        }
        self.weights = Some(weights);
        self
    }

    /// Disable (or re-enable) trace recording. Grants, invariants and the
    /// redistribution arithmetic are bitwise unaffected; only the
    /// per-round [`GrantTrace`] bookkeeping — four `Vec` clones per tick —
    /// is skipped. [`crate::hierarchy::RackArbiter`] builds its per-rack
    /// children with tracing off (the tree records its own leaf trace),
    /// and the scale benches run untraced.
    pub fn with_tracing(mut self, tracing: bool) -> Self {
        self.tracing = tracing;
        self
    }

    /// The arbiter configuration.
    pub fn config(&self) -> &ArbiterConfig {
        &self.cfg
    }

    /// Caps currently in force, W.
    pub fn grants(&self) -> &[f64] {
        &self.grants
    }

    /// The budget-conservation trace, one entry per redistribution round.
    pub fn trace(&self) -> &GrantTrace {
        &self.trace
    }

    /// Redistribute the budget from the latest telemetry; returns the new
    /// grants. `reports[i] = None` means node `i`'s telemetry dropped out:
    /// it keeps its last grant and is excluded from this round. Malformed
    /// input — wrong arity, a negative or non-finite field — is rejected
    /// with the grants untouched, so one bad report cannot kill a
    /// long-running arbiter service.
    ///
    /// # Panics
    /// Panics if an internal invariant (Σ grants ≤ budget, per-node
    /// clamps) breaks — a bug, not an operating condition.
    pub fn redistribute(
        &mut self,
        reports: &[Option<NodeTelemetry>],
    ) -> Result<&[f64], TelemetryError> {
        validate_reports(self.grants.len(), reports)?;
        Ok(self.rebalance_validated(reports))
    }

    /// The round itself, after input validation: rebalance, trace, and
    /// re-check the conservation invariants. Shared by the checked and
    /// trusted redistribution paths — validation never touches the
    /// arithmetic, so both produce bit-identical grants.
    fn rebalance_validated(&mut self, reports: &[Option<NodeTelemetry>]) -> &[f64] {
        policy::rebalance(
            self.alloc,
            self.cfg.budget_w,
            &mut self.grants,
            &self.min_v,
            &self.max_v,
            reports,
            self.weights.as_deref(),
            &mut self.scratch,
        );
        if self.tracing {
            self.trace
                .record(self.round, &self.grants, reports, self.cfg.budget_w);
        }
        self.round += 1;
        self.assert_invariants();
        &self.grants
    }

    /// Re-target the arbiter at `budget_w`, re-fitting the grants in
    /// force (see [`BudgetArbiter::set_budget`]).
    ///
    /// # Panics
    /// Panics when the new budget cannot fund the node count at the
    /// grant floor.
    pub fn set_budget(&mut self, budget_w: f64) {
        if budget_w.to_bits() == self.cfg.budget_w.to_bits() {
            return; // bit-exact no-op: a static parent never perturbs us
        }
        let n = self.grants.len();
        assert!(
            budget_w >= self.cfg.min_cap_w * n as f64 - EPS_W,
            "budget {} W cannot fund {} nodes at the {} W floor",
            budget_w,
            n,
            self.cfg.min_cap_w
        );
        self.cfg.budget_w = budget_w;
        let refit = policy::waterfill(&self.grants, budget_w, &self.min_v, &self.max_v);
        self.grants.copy_from_slice(&refit);
        self.assert_invariants();
    }

    /// The hard invariants: Σ grants ≤ budget and every grant inside its
    /// per-node clamp (which a thermal ceiling may have tightened below
    /// the shared `[min_cap, max_cap]`).
    fn assert_invariants(&self) {
        let total: f64 = self.grants.iter().sum();
        assert!(
            total <= self.cfg.budget_w + EPS_W,
            "granted {} W exceeds the {} W budget",
            total,
            self.cfg.budget_w
        );
        for (i, &g) in self.grants.iter().enumerate() {
            assert!(
                (self.min_v[i] - EPS_W..=self.max_v[i] + EPS_W).contains(&g),
                "node {i} grant {g} W outside [{}, {}] W",
                self.min_v[i],
                self.max_v[i]
            );
        }
    }
}

impl BudgetArbiter for PowerArbiter {
    fn node_count(&self) -> usize {
        self.grants.len()
    }

    fn redistribute(
        &mut self,
        reports: &[Option<NodeTelemetry>],
    ) -> Result<&[f64], TelemetryError> {
        PowerArbiter::redistribute(self, reports)
    }

    fn redistribute_trusted(
        &mut self,
        reports: &[Option<NodeTelemetry>],
    ) -> Result<&[f64], TelemetryError> {
        // Caller vouches for field validity (the daemon validated at
        // ingress); arity still gates, it indexes the grant vectors.
        if reports.len() != self.grants.len() {
            return Err(TelemetryError::Arity {
                expected: self.grants.len(),
                got: reports.len(),
            });
        }
        Ok(self.rebalance_validated(reports))
    }

    fn grants(&self) -> &[f64] {
        PowerArbiter::grants(self)
    }

    fn trace(&self) -> &GrantTrace {
        PowerArbiter::trace(self)
    }

    fn budget(&self) -> f64 {
        self.cfg.budget_w
    }

    fn set_budget(&mut self, budget_w: f64) {
        PowerArbiter::set_budget(self, budget_w)
    }

    fn reclaim(&mut self, node: usize) -> bool {
        if node >= self.grants.len() {
            return false;
        }
        // Dropping to the floor can only shrink the total, so Σ ≤ budget
        // is preserved by construction; the freed watts re-enter the pool
        // at the next redistribution.
        self.grants[node] = self.cfg.min_cap_w;
        self.assert_invariants();
        true
    }

    fn restore_grants(&mut self, grants: &[f64]) -> bool {
        if grants.len() != self.grants.len() {
            return false;
        }
        let total: f64 = grants.iter().sum();
        let clamped = grants
            .iter()
            .zip(self.min_v.iter().zip(&self.max_v))
            .all(|(g, (&lo, &hi))| (lo - EPS_W..=hi + EPS_W).contains(g));
        if total > self.cfg.budget_w + EPS_W || !clamped {
            return false;
        }
        self.grants.copy_from_slice(grants);
        self.assert_invariants();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(policy: Policy) -> ArbiterConfig {
        ArbiterConfig {
            budget_w: 400.0,
            min_cap_w: 40.0,
            max_cap_w: 120.0,
            policy,
        }
    }

    fn report(compute_s: f64, power_w: f64) -> Option<NodeTelemetry> {
        Some(NodeTelemetry::compute_only(
            compute_s,
            1.0 / compute_s,
            power_w,
        ))
    }

    fn report_with_comm(compute_s: f64, comm_s: f64, power_w: f64) -> Option<NodeTelemetry> {
        Some(NodeTelemetry {
            compute_s,
            comm_s,
            slack_s: 0.0,
            rate: 1.0 / compute_s,
            power_w,
        })
    }

    #[test]
    fn uniform_static_never_moves() {
        let mut a = PowerArbiter::new(cfg(Policy::UniformStatic), 4);
        let before = a.grants().to_vec();
        a.redistribute(&[
            report(1.0, 90.0),
            report(4.0, 100.0),
            report(0.5, 80.0),
            report(2.0, 95.0),
        ])
        .unwrap();
        assert_eq!(a.grants(), before.as_slice());
        assert_eq!(a.trace().len(), 1);
    }

    #[test]
    fn feedback_steals_from_ahead_for_the_critical_node() {
        let gain = Policy::ProgressFeedback { gain: 1.0 };
        let mut a = PowerArbiter::new(cfg(gain), 4);
        // Node 3 is far behind the barrier; node 0 far ahead.
        a.redistribute(&[
            report(0.5, 100.0),
            report(1.0, 100.0),
            report(1.0, 100.0),
            report(2.5, 100.0),
        ])
        .unwrap();
        let g = a.grants();
        assert!(g[3] > 100.0 + 1.0, "critical node must gain: {:?}", g);
        assert!(g[0] < 100.0 - 1.0, "ahead node must donate: {:?}", g);
        let total: f64 = g.iter().sum();
        assert!(total <= 400.0 + 1e-6);
    }

    #[test]
    fn feedback_damps_the_boost_for_communication_bound_ranks() {
        let gain = Policy::ProgressFeedback { gain: 1.0 };
        // A wide clamp range keeps the controller in its linear region;
        // with the default 120 W ceiling both boosts would saturate and
        // the damping would be invisible.
        let wide = ArbiterConfig {
            max_cap_w: 250.0,
            ..cfg(gain)
        };
        // Two arbiters, identical compute times for the slow rank — but
        // in `wire`, node 3 additionally spent 1.5 s on the exchange.
        let mut compute = PowerArbiter::new(wide, 4);
        compute
            .redistribute(&[
                report(1.0, 100.0),
                report(1.0, 100.0),
                report(1.0, 100.0),
                report(2.5, 100.0),
            ])
            .unwrap();
        let mut wire = PowerArbiter::new(wide, 4);
        wire.redistribute(&[
            report_with_comm(1.0, 0.0, 100.0),
            report_with_comm(1.0, 0.0, 100.0),
            report_with_comm(1.0, 0.0, 100.0),
            report_with_comm(2.5, 1.5, 100.0),
        ])
        .unwrap();
        // `analyze` sees the same compute times either way, but the
        // comm-bound rank earns a damped boost: watts cannot speed up the
        // wire.
        assert!(
            wire.grants()[3] < compute.grants()[3] - 1.0,
            "comm-bound rank must be funded less: {:?} vs {:?}",
            wire.grants(),
            compute.grants()
        );
        // The trace records the per-phase split for the policy analysis.
        assert_eq!(wire.trace().ticks()[0].comm_s[3], 1.5);
        assert_eq!(wire.trace().ticks()[0].compute_s[3], 2.5);
    }

    #[test]
    fn compute_only_telemetry_reproduces_the_ideal_barrier_controller() {
        let gain = Policy::ProgressFeedback { gain: 0.9 };
        let mut a = PowerArbiter::new(cfg(gain), 3);
        let mut b = PowerArbiter::new(cfg(gain), 3);
        for _ in 0..4 {
            a.redistribute(&[report(0.8, 90.0), report(1.1, 95.0), report(1.9, 99.0)])
                .unwrap();
            b.redistribute(&[
                report_with_comm(0.8, 0.0, 90.0),
                report_with_comm(1.1, 0.0, 95.0),
                report_with_comm(1.9, 0.0, 99.0),
            ])
            .unwrap();
        }
        for (ga, gb) in a.grants().iter().zip(b.grants()) {
            assert_eq!(ga.to_bits(), gb.to_bits(), "zero comm must be exact");
        }
    }

    #[test]
    fn demand_proportional_follows_measured_draw() {
        // A tight budget (well under 3·max) so proportionality is visible
        // instead of everyone saturating at the clamp ceiling.
        let tight = ArbiterConfig {
            budget_w: 240.0,
            ..cfg(Policy::DemandProportional)
        };
        let mut a = PowerArbiter::new(tight, 3);
        a.redistribute(&[report(1.0, 120.0), report(1.0, 60.0), report(1.0, 60.0)])
            .unwrap();
        let g = a.grants();
        assert!(g[0] > g[1] + 5.0, "double demand must earn more: {:?}", g);
        assert!((g[1] - g[2]).abs() < 1e-9, "equal demand, equal grant");
    }

    #[test]
    fn silent_node_keeps_its_grant_and_is_excluded() {
        let mut a = PowerArbiter::new(cfg(Policy::ProgressFeedback { gain: 1.0 }), 4);
        a.redistribute(&[
            report(1.0, 90.0),
            report(1.5, 90.0),
            report(1.0, 90.0),
            report(1.2, 90.0),
        ])
        .unwrap();
        let held = a.grants()[1];
        // Node 1 goes silent: its grant must not move.
        a.redistribute(&[
            report(1.0, 90.0),
            None,
            report(3.0, 90.0),
            report(1.2, 90.0),
        ])
        .unwrap();
        assert_eq!(a.grants()[1], held, "silent node's cap must freeze");
        assert!(!a.trace().ticks()[1].reporting[1]);
        let total: f64 = a.grants().iter().sum();
        assert!(total <= 400.0 + 1e-6);
    }

    #[test]
    fn all_silent_round_only_records_the_tick() {
        let mut a = PowerArbiter::new(cfg(Policy::DemandProportional), 2);
        let before = a.grants().to_vec();
        a.redistribute(&[None, None]).unwrap();
        assert_eq!(a.grants(), before.as_slice());
        assert_eq!(a.trace().len(), 1);
        assert!(a.trace().min_slack_w() >= -1e-6);
    }

    #[test]
    fn trace_records_the_policy_once() {
        let mut a = PowerArbiter::new(cfg(Policy::DemandProportional), 2);
        a.redistribute(&[report(1.0, 80.0), report(1.0, 90.0)])
            .unwrap();
        a.redistribute(&[report(1.0, 80.0), report(1.0, 90.0)])
            .unwrap();
        assert_eq!(a.trace().policy(), "demand-proportional");
        assert_eq!(a.trace().len(), 2);
    }

    #[test]
    fn untraced_arbiter_grants_are_bit_identical() {
        let gain = Policy::ProgressFeedback { gain: 1.0 };
        let mut traced = PowerArbiter::new(cfg(gain), 4);
        let mut silent = PowerArbiter::new(cfg(gain), 4).with_tracing(false);
        for _ in 0..3 {
            let r = [
                report(0.5, 100.0),
                report(1.0, 100.0),
                None,
                report(2.5, 100.0),
            ];
            traced.redistribute(&r).unwrap();
            silent.redistribute(&r).unwrap();
        }
        for (a, b) in traced.grants().iter().zip(silent.grants()) {
            assert_eq!(a.to_bits(), b.to_bits(), "tracing must not touch grants");
        }
        assert_eq!(traced.trace().len(), 3);
        assert_eq!(silent.trace().len(), 0, "untraced arbiter records nothing");
    }

    #[test]
    fn set_budget_refits_the_grants_and_same_budget_is_a_noop() {
        let mut a = PowerArbiter::new(cfg(Policy::ProgressFeedback { gain: 1.0 }), 4);
        a.redistribute(&[
            report(0.5, 100.0),
            report(1.0, 100.0),
            report(1.0, 100.0),
            report(2.5, 100.0),
        ])
        .unwrap();
        let before = a.grants().to_vec();
        a.set_budget(400.0); // bit-identical budget: nothing moves
        assert_eq!(a.grants(), before.as_slice());

        a.set_budget(200.0); // halved pot: grants shrink to fit
        let total: f64 = a.grants().iter().sum();
        assert!(total <= 200.0 + 1e-6, "refit must respect the new budget");
        for &g in a.grants() {
            assert!((40.0 - 1e-6..=120.0 + 1e-6).contains(&g));
        }
        assert_eq!(BudgetArbiter::budget(&a), 200.0);

        a.set_budget(480.0); // grown pot: grants expand into headroom
        let total: f64 = a.grants().iter().sum();
        assert!(total > 400.0, "refit should use the new headroom");
        assert!(total <= 480.0 + 1e-6);
    }

    #[test]
    fn validate_reports_the_offending_field() {
        let bad = ArbiterConfig {
            budget_w: -5.0,
            ..cfg(Policy::UniformStatic)
        };
        let e = bad.validate().unwrap_err();
        assert_eq!(e.what, "ArbiterConfig.budget_w");
        let bad = ArbiterConfig {
            min_cap_w: 150.0,
            ..cfg(Policy::UniformStatic)
        };
        assert!(bad.validate().is_err());
        let bad = cfg(Policy::ProgressFeedback { gain: -1.0 });
        assert_eq!(
            bad.validate().unwrap_err().what,
            "Policy::ProgressFeedback.gain"
        );
    }

    #[test]
    fn validate_rejects_non_finite_values() {
        for (bad, field) in [
            (
                ArbiterConfig {
                    budget_w: f64::INFINITY,
                    ..cfg(Policy::UniformStatic)
                },
                "ArbiterConfig.budget_w",
            ),
            (
                ArbiterConfig {
                    budget_w: f64::NAN,
                    ..cfg(Policy::UniformStatic)
                },
                "ArbiterConfig.budget_w",
            ),
            (
                ArbiterConfig {
                    max_cap_w: f64::INFINITY,
                    ..cfg(Policy::UniformStatic)
                },
                "ArbiterConfig.max_cap_w",
            ),
            (
                cfg(Policy::ProgressFeedback {
                    gain: f64::INFINITY,
                }),
                "Policy::ProgressFeedback.gain",
            ),
            (
                cfg(Policy::ProgressFeedback { gain: f64::NAN }),
                "Policy::ProgressFeedback.gain",
            ),
        ] {
            let e = bad.validate().expect_err(field);
            assert_eq!(e.what, field);
        }
    }

    #[test]
    #[should_panic(expected = "cannot fund")]
    fn infeasible_budget_rejected() {
        PowerArbiter::new(
            ArbiterConfig {
                budget_w: 100.0,
                min_cap_w: 40.0,
                max_cap_w: 120.0,
                policy: Policy::UniformStatic,
            },
            4,
        );
    }

    #[test]
    fn malformed_telemetry_is_nacked_without_state_change() {
        let gain = Policy::ProgressFeedback { gain: 1.0 };
        let mut a = PowerArbiter::new(cfg(gain), 4);
        let before = a.grants().to_vec();

        // Non-finite power: rejected, grants and trace untouched.
        let e = a
            .redistribute(&[
                report(1.0, f64::NAN),
                report(1.0, 100.0),
                report(1.0, 100.0),
                report(1.0, 100.0),
            ])
            .unwrap_err();
        assert!(matches!(
            e,
            TelemetryError::Malformed {
                node: 0,
                field: "power_w",
                ..
            }
        ));
        assert_eq!(a.grants(), before.as_slice());
        assert_eq!(a.trace().len(), 0, "a NACKed round must not be traced");

        // Negative compute time: same treatment.
        let e = a
            .redistribute(&[
                report(1.0, 100.0),
                Some(NodeTelemetry::compute_only(-2.0, 1.0, 100.0)),
                report(1.0, 100.0),
                report(1.0, 100.0),
            ])
            .unwrap_err();
        assert!(matches!(e, TelemetryError::Malformed { node: 1, .. }));

        // Wrong arity = a grant for an unknown node id cannot exist.
        let e = a
            .redistribute(&[report(1.0, 100.0), report(1.0, 100.0)])
            .unwrap_err();
        assert_eq!(
            e,
            TelemetryError::Arity {
                expected: 4,
                got: 2
            }
        );

        // The arbiter still works after NACKs: a clean round succeeds.
        a.redistribute(&[
            report(0.5, 100.0),
            report(1.0, 100.0),
            report(1.0, 100.0),
            report(2.5, 100.0),
        ])
        .unwrap();
        assert_eq!(a.trace().len(), 1);
    }

    #[test]
    fn reclaim_drops_an_expired_node_to_the_floor() {
        let mut a = PowerArbiter::new(cfg(Policy::ProgressFeedback { gain: 1.0 }), 4);
        a.redistribute(&[
            report(0.5, 100.0),
            report(1.0, 100.0),
            report(1.0, 100.0),
            report(2.5, 100.0),
        ])
        .unwrap();
        assert!(a.grants()[3] > 40.0);

        assert!(BudgetArbiter::reclaim(&mut a, 3));
        assert_eq!(a.grants()[3], 40.0, "reclaimed node sits at the floor");
        let total: f64 = a.grants().iter().sum();
        assert!(total <= 400.0 + EPS_W);
        assert!(!BudgetArbiter::reclaim(&mut a, 99), "unknown id is a no-op");
    }

    #[test]
    fn node_ceiling_caps_the_grant_and_frees_watts_for_the_others() {
        // A generous pool: without ceilings everyone would saturate at
        // the shared 120 W max.
        let rich = ArbiterConfig {
            budget_w: 480.0,
            ..cfg(Policy::ProgressFeedback { gain: 1.0 })
        };
        let mut a = PowerArbiter::new(rich, 4).with_node_ceilings(&[
            f64::INFINITY,
            90.0,
            f64::INFINITY,
            f64::INFINITY,
        ]);
        // Node 1 is the critical path — exactly the node the feedback
        // policy wants to boost — but its cooling caps it at 90 W.
        for _ in 0..5 {
            a.redistribute(&[
                report(1.0, 100.0),
                report(2.5, 90.0),
                report(1.0, 100.0),
                report(1.0, 100.0),
            ])
            .unwrap();
            assert!(
                a.grants()[1] <= 90.0 + EPS_W,
                "thermal ceiling must hold: {:?}",
                a.grants()
            );
        }
        // The clamped-off watts are not wasted: some other node sits
        // above the uniform split.
        assert!(
            a.grants().iter().any(|&g| g > 120.0 - 1.0),
            "{:?}",
            a.grants()
        );
        let total: f64 = a.grants().iter().sum();
        assert!(total <= 480.0 + EPS_W);
    }

    #[test]
    fn infinite_ceilings_change_nothing_bitwise() {
        let c = cfg(Policy::ProgressFeedback { gain: 1.0 });
        let mut plain = PowerArbiter::new(c, 4);
        let mut ceiled = PowerArbiter::new(c, 4).with_node_ceilings(&[f64::INFINITY; 4]);
        for _ in 0..3 {
            let r = [
                report(0.5, 100.0),
                report(1.0, 100.0),
                report(1.0, 100.0),
                report(2.5, 100.0),
            ];
            plain.redistribute(&r).unwrap();
            ceiled.redistribute(&r).unwrap();
        }
        for (a, b) in plain.grants().iter().zip(ceiled.grants()) {
            assert_eq!(a.to_bits(), b.to_bits(), "no-limit ceilings must be exact");
        }
    }

    #[test]
    fn ceiling_below_the_floor_pins_the_node_at_the_floor() {
        let mut a = PowerArbiter::new(cfg(Policy::DemandProportional), 4).with_node_ceilings(&[
            10.0,
            f64::INFINITY,
            f64::INFINITY,
            f64::INFINITY,
        ]);
        a.redistribute(&[
            report(1.0, 100.0),
            report(1.0, 100.0),
            report(1.0, 100.0),
            report(1.0, 100.0),
        ])
        .unwrap();
        assert_eq!(a.grants()[0], 40.0, "floor wins over the ceiling");
    }

    #[test]
    fn progress_weights_fund_the_low_yield_node() {
        // Four nodes, perfectly balanced iteration times and rates, but
        // running registry apps whose metrics carry different science
        // yield: LAMMPS (1.0), AMG (0.5), QMCPACK (1.0), URBAN (0.25).
        let w = crate::policy::registry_progress_weights(&["LAMMPS", "AMG", "QMCPACK", "URBAN"])
            .unwrap();
        // A tight pool (well under 4·max) keeps the controller in its
        // linear region; with a generous one every boosted node would
        // saturate at the shared ceiling and the ordering would vanish.
        let c = ArbiterConfig {
            budget_w: 280.0,
            ..cfg(Policy::ProgressFeedback { gain: 1.0 })
        };
        let balanced = [
            report(1.0, 100.0),
            report(1.0, 100.0),
            report(1.0, 100.0),
            report(1.0, 100.0),
        ];
        // Unweighted: balanced times mean nothing moves.
        let mut plain = PowerArbiter::new(c, 4);
        plain.redistribute(&balanced).unwrap();
        let g = plain.grants();
        assert!((g[0] - g[3]).abs() < 1e-9, "time mode holds: {g:?}");
        // Weighted: the lowest-yield node (URBAN) earns the most watts,
        // the full-yield nodes donate, and the ordering follows yield.
        let mut weighted = PowerArbiter::new(c, 4).with_progress_weights(w);
        weighted.redistribute(&balanced).unwrap();
        let g = weighted.grants();
        assert!(
            g[3] > g[1] && g[1] > g[0],
            "useful-progress mode funds low yield: {g:?}"
        );
        assert_eq!(g[0].to_bits(), g[2].to_bits(), "equal yield, equal grant");
        let total: f64 = g.iter().sum();
        assert!(total <= 280.0 + EPS_W);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn non_positive_weights_rejected() {
        let _ =
            PowerArbiter::new(cfg(Policy::UniformStatic), 2).with_progress_weights(vec![1.0, 0.0]);
    }

    #[test]
    fn restore_respects_tightened_ceilings() {
        let mut a = PowerArbiter::new(cfg(Policy::UniformStatic), 4).with_node_ceilings(&[
            90.0,
            f64::INFINITY,
            f64::INFINITY,
            f64::INFINITY,
        ]);
        // A snapshot putting node 0 above its thermal ceiling is refused
        // even though it is inside the shared clamp range.
        assert!(!BudgetArbiter::restore_grants(
            &mut a,
            &[110.0, 90.0, 90.0, 90.0]
        ));
        assert!(BudgetArbiter::restore_grants(
            &mut a,
            &[85.0, 105.0, 105.0, 105.0]
        ));
    }

    #[test]
    fn restore_grants_enforces_budget_and_clamps() {
        let mut a = PowerArbiter::new(cfg(Policy::UniformStatic), 4);
        let before = a.grants().to_vec();

        // Over budget: refused, state untouched.
        assert!(!BudgetArbiter::restore_grants(&mut a, &[120.0; 4]));
        assert_eq!(a.grants(), before.as_slice());
        // Below the floor: refused.
        assert!(!BudgetArbiter::restore_grants(
            &mut a,
            &[10.0, 100.0, 100.0, 100.0]
        ));
        // Wrong arity: refused.
        assert!(!BudgetArbiter::restore_grants(&mut a, &[100.0; 3]));

        // A conserving snapshot is adopted bitwise.
        let snap = [90.0, 110.0, 80.0, 120.0];
        assert!(BudgetArbiter::restore_grants(&mut a, &snap));
        assert_eq!(a.grants(), snap.as_slice());
    }
}
