//! Hierarchical power arbitration: a rack-tree of arbiters.
//!
//! The paper's NRM sits at the bottom of the Argo resource-management
//! stack; the level above it (the GRM) does not talk to every node — it
//! divides the machine budget across *enclaves* and lets each enclave
//! subdivide. [`RackArbiter`] reproduces that structure over this repo's
//! [`BudgetArbiter`] API, mirroring the 2-level
//! [`crate::topology::Topology::RackTree`]:
//!
//! - an **outer** (rack-level) loop re-splits the machine budget across
//!   racks every `outer_period` barriers, driven by each rack's
//!   telemetry aggregated upward (sums of `compute_s`/`comm_s`/`slack_s`
//!   /`power_w` over its members and the epoch window);
//! - an **inner** (node-level) loop — one flat [`PowerArbiter`] per rack
//!   — re-splits each rack's sub-budget across its nodes every
//!   `inner_period` barriers, exactly as the flat arbiter would.
//!
//! Budgets flow downward through [`BudgetArbiter::set_budget`]; the two
//! loops run at independent periods, which is the latency/stability
//! trade the flat arbiter cannot express: a fast outer loop chases noise
//! across racks, a slow one starves a rack whose imbalance moved. Both
//! levels share one redistribution engine ([`crate::policy`]), so the
//! sum-≤-budget and per-child clamp invariants hold at every level by
//! construction: Σ sub-budgets ≤ machine budget, and within each rack
//! Σ node grants ≤ its sub-budget.
//!
//! Degenerate shapes are exact: a tree of one rack containing every node
//! is grant-for-grant bit-identical to the flat [`PowerArbiter`]
//! (property-tested in `proptests`), and a rack whose members all went
//! silent keeps its sub-budget frozen, exactly as a silent node keeps
//! its grant.

use std::ops::Range;

use crate::arbiter::{
    validate_reports, ArbiterConfig, BudgetArbiter, GrantTrace, NodeTelemetry, Policy,
    PowerArbiter, EPS_W,
};
use crate::error::{ensure, ConfigError, TelemetryError};
use crate::policy::{self, Allocator, IncrementalFill, RebalanceScratch};

/// Tuning for the rack level of the tree.
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchyConfig {
    /// Nodes per rack, in rank order (rack `r` owns the next `racks[r]`
    /// ranks; the sum must equal the cluster size).
    pub racks: Vec<usize>,
    /// Outer control period: barriers between rack-level re-splits of
    /// the machine budget.
    pub outer_period: usize,
    /// Inner control period: barriers between node-level re-splits of
    /// each rack's sub-budget (1 = every barrier, the flat cadence).
    pub inner_period: usize,
    /// Rack-level division policy (the node level uses
    /// [`ArbiterConfig::policy`]).
    pub rack_policy: Policy,
    /// Optional per-rack `[min, max]` sub-budget clamps, W. `None`
    /// derives them from the node clamps: rack `r` gets
    /// `[racks[r]·min_cap_w, racks[r]·max_cap_w]`.
    pub rack_clamps: Option<Vec<(f64, f64)>>,
}

impl HierarchyConfig {
    /// `n_racks` equal racks of `nodes_per_rack`, inner loop every
    /// barrier, outer loop every 4 barriers, derived rack clamps.
    pub fn uniform(n_racks: usize, nodes_per_rack: usize, rack_policy: Policy) -> Self {
        Self {
            racks: vec![nodes_per_rack; n_racks],
            outer_period: 4,
            inner_period: 1,
            rack_policy,
            rack_clamps: None,
        }
    }

    /// Total leaf nodes across the racks.
    pub fn node_count(&self) -> usize {
        self.racks.iter().sum()
    }

    /// Validate against the node-level arbiter configuration and the
    /// cluster size `n`. A bad rack policy is reported as
    /// `HierarchyConfig.rack_policy`.
    pub fn validate(&self, arbiter: &ArbiterConfig, n: usize) -> Result<(), ConfigError> {
        self.rack_policy
            .validate()
            .map_err(|e| ConfigError::new("HierarchyConfig.rack_policy", e.why))?;
        ensure(!self.racks.is_empty(), "HierarchyConfig.racks", || {
            "need at least one rack".into()
        })?;
        ensure(
            self.racks.iter().all(|&k| k > 0),
            "HierarchyConfig.racks",
            || "every rack needs at least one node".into(),
        )?;
        ensure(self.node_count() == n, "HierarchyConfig.racks", || {
            format!(
                "racks hold {} nodes but the cluster has {n}",
                self.node_count()
            )
        })?;
        ensure(
            self.inner_period > 0,
            "HierarchyConfig.inner_period",
            || "inner period must be positive".into(),
        )?;
        ensure(
            self.outer_period > 0 && self.outer_period.is_multiple_of(self.inner_period),
            "HierarchyConfig.outer_period",
            || {
                format!(
                    "outer period {} must be a positive multiple of the inner period {}",
                    self.outer_period, self.inner_period
                )
            },
        )?;
        if let Some(clamps) = &self.rack_clamps {
            ensure(
                clamps.len() == self.racks.len(),
                "HierarchyConfig.rack_clamps",
                || {
                    format!(
                        "{} clamp pairs for {} racks",
                        clamps.len(),
                        self.racks.len()
                    )
                },
            )?;
            for (r, (&(lo, hi), &k)) in clamps.iter().zip(&self.racks).enumerate() {
                ensure(lo > 0.0 && lo <= hi, "HierarchyConfig.rack_clamps", || {
                    format!("rack {r}: need 0 < min ({lo} W) <= max ({hi} W)")
                })?;
                // A sub-budget below the rack's node floors would make the
                // child arbiter infeasible.
                ensure(
                    lo >= k as f64 * arbiter.min_cap_w - EPS_W,
                    "HierarchyConfig.rack_clamps",
                    || {
                        format!(
                            "rack {r}: min {lo} W cannot fund {k} nodes at the {} W floor",
                            arbiter.min_cap_w
                        )
                    },
                )?;
            }
        }
        let (rack_min, _) = self.resolved_clamps(arbiter);
        let floor: f64 = rack_min.iter().sum();
        ensure(
            arbiter.budget_w >= floor - EPS_W,
            "HierarchyConfig.rack_clamps",
            || {
                format!(
                    "budget {} W cannot fund the {} W sum of rack floors",
                    arbiter.budget_w, floor
                )
            },
        )?;
        Ok(())
    }

    /// The effective per-rack `[min, max]` clamp vectors.
    pub fn resolved_clamps(&self, arbiter: &ArbiterConfig) -> (Vec<f64>, Vec<f64>) {
        child_clamps(&self.racks, self.rack_clamps.as_deref(), arbiter)
    }
}

/// Per-child `[min, max]` clamp vectors: `clamps` when given, else
/// `[size·min_cap_w, size·max_cap_w]` from the node clamps.
fn child_clamps(
    sizes: &[usize],
    clamps: Option<&[(f64, f64)]>,
    cfg: &ArbiterConfig,
) -> (Vec<f64>, Vec<f64>) {
    match clamps {
        Some(clamps) => clamps.iter().copied().unzip(),
        None => sizes
            .iter()
            .map(|&k| (k as f64 * cfg.min_cap_w, k as f64 * cfg.max_cap_w))
            .unzip(),
    }
}

/// One rack's telemetry accumulator over an outer epoch window: sums of
/// every [`NodeTelemetry`] field across the rack's members and the
/// barriers since the last rack-level re-split.
///
/// Public because the window is also the unit of upward aggregation in
/// a *sharded* deployment: each `arbiterd` shard accumulates its
/// members' reports into one `RackWindow`, drains it on the outer
/// period, and ships the sums to the coordinator — bit-identically to
/// how [`RackArbiter`] aggregates in process.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RackWindow {
    compute_s: f64,
    comm_s: f64,
    slack_s: f64,
    rate: f64,
    power_w: f64,
    count: u64,
}

impl RackWindow {
    /// Fold one member report into the window. Addition order matters
    /// bitwise; callers that need cross-process reproducibility must
    /// fold in a deterministic (member-rank) order.
    pub fn add(&mut self, t: &NodeTelemetry) {
        self.compute_s += t.compute_s;
        self.comm_s += t.comm_s;
        self.slack_s += t.slack_s;
        self.rate += t.rate;
        self.power_w += t.power_w;
        self.count += 1;
    }

    /// Drain the window into a rack-level report: `None` when not a
    /// single member reported (the whole rack is silent and keeps its
    /// sub-budget, mirroring the node-level dropout rule).
    pub fn take(&mut self) -> Option<NodeTelemetry> {
        let drained = std::mem::take(self);
        (drained.count > 0).then_some(NodeTelemetry {
            compute_s: drained.compute_s,
            comm_s: drained.comm_s,
            slack_s: drained.slack_s,
            rate: drained.rate,
            power_w: drained.power_w,
        })
    }

    /// The raw field sums `[compute_s, comm_s, slack_s, rate, power_w]`,
    /// for bit-exact persistence (snapshots store the window so a
    /// restarted shard resumes mid-epoch without losing aggregation).
    pub fn sums(&self) -> [f64; 5] {
        [
            self.compute_s,
            self.comm_s,
            self.slack_s,
            self.rate,
            self.power_w,
        ]
    }

    /// Reports folded into the window so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Rebuild a window from persisted sums (the inverse of
    /// [`RackWindow::sums`] / [`RackWindow::count`]).
    pub fn from_parts(sums: [f64; 5], count: u64) -> Self {
        Self {
            compute_s: sums[0],
            comm_s: sums[1],
            slack_s: sums[2],
            rate: sums[3],
            power_w: sums[4],
            count,
        }
    }
}

/// The rack-level half of the tree, factored out of [`RackArbiter`] so a
/// *distributed* deployment can reuse it verbatim: a coordinator splitting
/// a machine budget across N `arbiterd` shards runs the exact code path —
/// same incremental waterfill, same silent-child freeze, same bit
/// patterns — as the in-process rack tree. One child here is one rack (or
/// one shard); leaves are somebody else's problem.
///
/// Holds the solver state that must survive across epochs for the
/// incremental path to stay bit-stable: current sub-budgets, each child's
/// last desired allocation, and the cached fill sums.
#[derive(Debug, Clone)]
pub struct OuterSolver {
    alloc: Allocator,
    min: Vec<f64>,
    max: Vec<f64>,
    /// Current per-child sub-budgets, W (Σ ≤ pool at every solve).
    sub_budgets: Vec<f64>,
    /// Incremental waterfill: caches each child's clamped desired
    /// sub-budget and the fill sums, re-solving from deltas.
    fill: IncrementalFill,
    /// Each child's last desired sub-budget (bitwise), so a child whose
    /// desire did not move is never re-clamped or re-summed. NaN until
    /// the first epoch marks every child dirty.
    last_desired: Vec<f64>,
    /// Fallback engine scratch for windows with silent children (the
    /// frozen semantics need the general reporting-subset path).
    scratch: RebalanceScratch,
    /// Reused per-epoch buffers (no per-epoch allocation).
    tel: Vec<NodeTelemetry>,
    fill_tmp: Vec<f64>,
    fill_desired: Vec<f64>,
}

impl OuterSolver {
    /// Build the solver over children of `sizes[i]` leaves each (racks,
    /// or shard spans), dividing the `cfg.budget_w` pool under `policy`.
    /// The pool is first shared in proportion to size, then waterfilled
    /// under the per-child `[min, max]` clamps: `clamps` when given, else
    /// `[size·min_cap_w, size·max_cap_w]` from `cfg`'s node clamps.
    ///
    /// # Panics
    /// Panics when `sizes` is empty or `clamps` disagrees with it in
    /// length.
    pub fn new(
        policy: Policy,
        sizes: &[usize],
        clamps: Option<&[(f64, f64)]>,
        cfg: &ArbiterConfig,
    ) -> Self {
        let (min, max) = child_clamps(sizes, clamps, cfg);
        assert!(
            !sizes.is_empty() && min.len() == sizes.len(),
            "OuterSolver needs matching, non-empty size/clamp vectors"
        );
        let n: usize = sizes.iter().sum();
        let shares: Vec<f64> = sizes
            .iter()
            .map(|&k| cfg.budget_w * (k as f64 / n as f64))
            .collect();
        let sub_budgets = policy::waterfill(&shares, cfg.budget_w, &min, &max);
        let n = min.len();
        Self {
            alloc: policy.allocator(),
            fill: IncrementalFill::new(&min, &max),
            last_desired: vec![f64::NAN; n],
            scratch: RebalanceScratch::default(),
            tel: Vec::with_capacity(n),
            fill_tmp: Vec::new(),
            fill_desired: Vec::new(),
            sub_budgets,
            min,
            max,
        }
    }

    /// Children under division.
    pub fn len(&self) -> usize {
        self.sub_budgets.len()
    }

    /// True when the solver has no children (unreachable via `new`).
    pub fn is_empty(&self) -> bool {
        self.sub_budgets.is_empty()
    }

    /// Current per-child sub-budgets, W.
    pub fn sub_budgets(&self) -> &[f64] {
        &self.sub_budgets
    }

    /// Per-child lower clamps, W.
    pub fn min(&self) -> &[f64] {
        &self.min
    }

    /// Per-child upper clamps, W.
    pub fn max(&self) -> &[f64] {
        &self.max
    }

    /// One outer-epoch solve: re-split `pool_w` across the children from
    /// their drained window reports (`None` = silent child, sub-budget
    /// frozen). When every child reported, the incremental fill re-solves
    /// from desire deltas — a child whose desired sub-budget did not move
    /// bitwise reuses its cached clamped desire and costs nothing beyond
    /// the comparison; any silent child falls back to the general engine,
    /// which owns the frozen-pool semantics.
    pub fn resolve(&mut self, pool_w: f64, reports: &[Option<NodeTelemetry>]) -> &[f64] {
        assert_eq!(
            reports.len(),
            self.sub_budgets.len(),
            "one window report per child"
        );
        if reports.iter().all(Option::is_some) {
            self.tel.clear();
            self.tel
                .extend(reports.iter().map(|r| r.expect("all report")));
            if self.alloc.desired_into(
                &self.sub_budgets,
                &self.tel,
                pool_w,
                None,
                &mut self.fill_tmp,
                &mut self.fill_desired,
            ) {
                for (r, &d) in self.fill_desired.iter().enumerate() {
                    if d.to_bits() != self.last_desired[r].to_bits() {
                        self.fill.update(r, d);
                        self.last_desired[r] = d;
                    }
                }
                self.sub_budgets.copy_from_slice(self.fill.solve(pool_w));
            }
        } else {
            policy::rebalance(
                self.alloc,
                pool_w,
                &mut self.sub_budgets,
                &self.min,
                &self.max,
                reports,
                None,
                &mut self.scratch,
            );
        }
        &self.sub_budgets
    }

    /// Re-fit the current sub-budgets into a new pool (the
    /// [`BudgetArbiter::set_budget`] cascade at this level): waterfill
    /// the existing split into `pool_w` under the clamps.
    pub fn refit(&mut self, pool_w: f64) -> &[f64] {
        let refit = policy::waterfill(&self.sub_budgets, pool_w, &self.min, &self.max);
        self.sub_budgets.copy_from_slice(&refit);
        &self.sub_budgets
    }
}

/// The two-level arbiter tree: rack-level division of the machine budget
/// over nested per-rack [`PowerArbiter`]s.
#[derive(Debug, Clone)]
pub struct RackArbiter {
    cfg: ArbiterConfig,
    h: HierarchyConfig,
    /// The rack-level division engine (shared with the sharded-daemon
    /// coordinator, which is why it is a separate type).
    outer: OuterSolver,
    /// One flat arbiter per rack, budgeted at its sub-budget.
    children: Vec<PowerArbiter>,
    /// Leaf index span of each rack (ranks are packed in rack order).
    spans: Vec<Range<usize>>,
    /// Telemetry aggregating upward over the current outer window.
    acc: Vec<RackWindow>,
    round: usize,
    /// Concatenated leaf grants across the racks, W.
    leaf_grants: Vec<f64>,
    leaf_trace: GrantTrace,
    rack_trace: GrantTrace,
    /// Reused outer-epoch report buffer (no per-epoch allocation).
    rack_reports: Vec<Option<NodeTelemetry>>,
    /// Which racks were re-split at the current barrier (reused).
    stepped: Vec<bool>,
    /// Inner-epoch child re-splits skipped because the rack subtree was
    /// clean (no member telemetry this barrier): the subtree reused its
    /// cached sub-budget split instead of re-solving.
    skipped_rack_steps: usize,
}

impl RackArbiter {
    /// Build the tree: the machine budget is first split across racks in
    /// proportion to their size (clamped per rack), then uniformly
    /// within each rack — so the initial leaf grants match the flat
    /// arbiter's uniform split whenever the rack clamps permit it.
    ///
    /// # Panics
    /// Panics when either configuration is invalid (see
    /// [`ArbiterConfig::validate`] / [`HierarchyConfig::validate`]).
    pub fn new(cfg: ArbiterConfig, hierarchy: HierarchyConfig) -> Self {
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
        let n = hierarchy.node_count();
        hierarchy
            .validate(&cfg, n)
            .unwrap_or_else(|e| panic!("{e}"));
        let outer = OuterSolver::new(
            hierarchy.rack_policy,
            &hierarchy.racks,
            hierarchy.rack_clamps.as_deref(),
            &cfg,
        );

        let mut spans = Vec::with_capacity(hierarchy.racks.len());
        let mut start = 0;
        for &k in &hierarchy.racks {
            spans.push(start..start + k);
            start += k;
        }
        // Children run untraced: the tree records the leaf trace itself,
        // and the duplicate per-rack traces were measurable overhead at
        // scale (four Vec clones per rack per barrier).
        let children: Vec<PowerArbiter> = hierarchy
            .racks
            .iter()
            .zip(outer.sub_budgets())
            .map(|(&k, &b)| {
                PowerArbiter::new(ArbiterConfig { budget_w: b, ..cfg }, k).with_tracing(false)
            })
            .collect();
        let mut leaf_grants = vec![0.0; n];
        for (child, span) in children.iter().zip(&spans) {
            leaf_grants[span.clone()].copy_from_slice(child.grants());
        }
        let n_racks = hierarchy.racks.len();
        let arb = Self {
            rack_reports: Vec::with_capacity(n_racks),
            stepped: vec![false; n_racks],
            skipped_rack_steps: 0,
            outer,
            children,
            spans,
            acc: vec![RackWindow::default(); n_racks],
            round: 0,
            leaf_grants,
            leaf_trace: GrantTrace::new(cfg.policy.name()),
            rack_trace: GrantTrace::new(hierarchy.rack_policy.name()),
            cfg,
            h: hierarchy,
        };
        arb.assert_rack_invariants();
        arb
    }

    /// The node-level arbiter configuration.
    pub fn config(&self) -> &ArbiterConfig {
        &self.cfg
    }

    /// The rack-level configuration.
    pub fn hierarchy(&self) -> &HierarchyConfig {
        &self.h
    }

    /// Current rack sub-budgets, W.
    pub fn sub_budgets(&self) -> &[f64] {
        self.outer.sub_budgets()
    }

    /// The rack-level conservation trace (one tick per outer epoch).
    pub fn rack_trace(&self) -> &GrantTrace {
        &self.rack_trace
    }

    /// One barrier's worth of arbitration: aggregate telemetry upward;
    /// on an outer-epoch boundary re-split the machine budget across
    /// racks and push sub-budgets down; on an inner-epoch boundary let
    /// each rack's arbiter re-split among its nodes. Returns the leaf
    /// grants (one tick is always recorded, so the leaf trace stays one
    /// row per barrier, like the flat arbiter's). Malformed input (wrong
    /// arity, non-finite or negative fields) is rejected with the tree
    /// untouched — nothing has aggregated upward yet when the check runs.
    ///
    /// # Panics
    /// Panics on an invariant violation at either level (a bug, not an
    /// operating condition).
    pub fn redistribute(
        &mut self,
        reports: &[Option<NodeTelemetry>],
    ) -> Result<&[f64], TelemetryError> {
        validate_reports(self.leaf_grants.len(), reports)?;
        // Telemetry aggregates upward into the outer window.
        for (acc, span) in self.acc.iter_mut().zip(&self.spans) {
            for r in reports[span.clone()].iter().flatten() {
                acc.add(r);
            }
        }
        self.round += 1;
        let barrier = self.round - 1;

        // Outer epoch: budgets flow downward.
        let outer = self.round.is_multiple_of(self.h.outer_period);
        if outer {
            self.rack_reports.clear();
            self.rack_reports
                .extend(self.acc.iter_mut().map(RackWindow::take));
            // The solver owns both epoch paths: every-rack-reported goes
            // incremental (desire-delta waterfill), any silent rack falls
            // back to the general engine's frozen semantics.
            self.outer.resolve(self.cfg.budget_w, &self.rack_reports);
            self.rack_trace.record(
                barrier,
                self.outer.sub_budgets(),
                &self.rack_reports,
                self.cfg.budget_w,
            );
            for (child, &b) in self.children.iter_mut().zip(self.outer.sub_budgets()) {
                child.set_budget(b);
            }
            self.assert_rack_invariants();
        }

        // Inner epoch: each *dirty* rack re-splits its sub-budget — a
        // rack none of whose members reported this barrier is clean and
        // reuses its cached split, bit-identically: with no reports the
        // engine would have held every grant anyway, and the child's
        // trace is off, so skipping the call is unobservable. The
        // per-rack slices were validated above, so child rejection is
        // impossible; `?` still propagates it rather than unwrapping,
        // keeping this path panic-free by construction.
        let inner = self.round.is_multiple_of(self.h.inner_period);
        self.stepped.iter_mut().for_each(|s| *s = false);
        if inner {
            for (r, (child, span)) in self.children.iter_mut().zip(&self.spans).enumerate() {
                let slice = &reports[span.clone()];
                if slice.iter().any(Option::is_some) {
                    child.redistribute(slice)?;
                    self.stepped[r] = true;
                } else {
                    self.skipped_rack_steps += 1;
                }
            }
        }

        // Leaf grants only move where a rack re-split (or an outer epoch
        // re-fitted child budgets); clean subtrees keep their cached span.
        for (r, (child, span)) in self.children.iter().zip(&self.spans).enumerate() {
            if outer || self.stepped[r] {
                self.leaf_grants[span.clone()].copy_from_slice(child.grants());
            }
        }
        self.leaf_trace
            .record(barrier, &self.leaf_grants, reports, self.cfg.budget_w);
        Ok(&self.leaf_grants)
    }

    /// Inner-epoch rack re-splits skipped so far because the subtree was
    /// clean (no member telemetry at that barrier).
    pub fn skipped_rack_steps(&self) -> usize {
        self.skipped_rack_steps
    }

    /// Rack-level invariants: Σ sub-budgets ≤ machine budget, every
    /// sub-budget inside its clamp, and every child budgeted at exactly
    /// its sub-budget (the node level asserts its own invariants).
    fn assert_rack_invariants(&self) {
        let subs = self.outer.sub_budgets();
        let total: f64 = subs.iter().sum();
        assert!(
            total <= self.cfg.budget_w + EPS_W,
            "rack sub-budgets {} W exceed the {} W machine budget",
            total,
            self.cfg.budget_w
        );
        for (r, &b) in subs.iter().enumerate() {
            assert!(
                (self.outer.min()[r] - EPS_W..=self.outer.max()[r] + EPS_W).contains(&b),
                "rack {r} sub-budget {b} W outside [{}, {}] W",
                self.outer.min()[r],
                self.outer.max()[r]
            );
            assert!(
                (self.children[r].config().budget_w - b).abs() <= EPS_W,
                "rack {r} child budget {} W drifted from its {} W sub-budget",
                self.children[r].config().budget_w,
                b
            );
        }
    }
}

impl BudgetArbiter for RackArbiter {
    fn node_count(&self) -> usize {
        self.leaf_grants.len()
    }

    fn redistribute(
        &mut self,
        reports: &[Option<NodeTelemetry>],
    ) -> Result<&[f64], TelemetryError> {
        RackArbiter::redistribute(self, reports)
    }

    fn grants(&self) -> &[f64] {
        &self.leaf_grants
    }

    fn trace(&self) -> &GrantTrace {
        &self.leaf_trace
    }

    fn budget(&self) -> f64 {
        self.cfg.budget_w
    }

    fn set_budget(&mut self, budget_w: f64) {
        if budget_w.to_bits() == self.cfg.budget_w.to_bits() {
            return;
        }
        let floor: f64 = self.outer.min().iter().sum();
        assert!(
            budget_w >= floor - EPS_W,
            "budget {} W cannot fund the {} W sum of rack floors",
            budget_w,
            floor
        );
        self.cfg.budget_w = budget_w;
        self.outer.refit(budget_w);
        for (child, &b) in self.children.iter_mut().zip(self.outer.sub_budgets()) {
            child.set_budget(b);
        }
        for (child, span) in self.children.iter().zip(&self.spans) {
            self.leaf_grants[span.clone()].copy_from_slice(child.grants());
        }
        self.assert_rack_invariants();
    }

    fn rack_trace(&self) -> Option<&GrantTrace> {
        Some(&self.rack_trace)
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

    #[test]
    fn single_rack_tree_matches_the_flat_arbiter_bit_for_bit() {
        let c = cfg(Policy::ProgressFeedback { gain: 1.0 });
        let mut flat = PowerArbiter::new(c, 4);
        let mut tree = RackArbiter::new(
            c,
            HierarchyConfig {
                racks: vec![4],
                outer_period: 2,
                inner_period: 1,
                rack_policy: Policy::DemandProportional,
                rack_clamps: None,
            },
        );
        let streams = [
            [
                report(0.5, 100.0),
                report(1.0, 95.0),
                report(1.5, 90.0),
                report(2.5, 99.0),
            ],
            [
                report(0.7, 100.0),
                None,
                report(1.4, 90.0),
                report(2.0, 99.0),
            ],
            [
                report(0.6, 100.0),
                report(1.1, 95.0),
                report(1.3, 90.0),
                report(1.9, 99.0),
            ],
            [None, None, None, None],
            [
                report(0.9, 100.0),
                report(1.0, 95.0),
                report(1.2, 90.0),
                report(1.8, 99.0),
            ],
        ];
        for (ga, gb) in flat.grants().iter().zip(BudgetArbiter::grants(&tree)) {
            assert_eq!(ga.to_bits(), gb.to_bits(), "initial grants must match");
        }
        for reports in &streams {
            let a = flat.redistribute(reports).unwrap().to_vec();
            let b = tree.redistribute(reports).unwrap().to_vec();
            for (ga, gb) in a.iter().zip(&b) {
                assert_eq!(ga.to_bits(), gb.to_bits(), "{a:?} vs {b:?}");
            }
        }
        assert_eq!(tree.rack_trace().len(), 2, "outer epochs fired");
        for tick in tree.rack_trace().ticks() {
            assert_eq!(
                tick.granted_w[0].to_bits(),
                400.0f64.to_bits(),
                "one rack owns the whole budget"
            );
        }
    }

    #[test]
    fn outer_epoch_moves_watts_toward_the_slow_rack() {
        // Rack 1 is uniformly twice as slow as rack 0: the rack-level
        // feedback must shift sub-budget toward it.
        let mut tree = RackArbiter::new(
            cfg(Policy::ProgressFeedback { gain: 1.0 }),
            HierarchyConfig {
                racks: vec![2, 2],
                outer_period: 2,
                inner_period: 1,
                rack_policy: Policy::ProgressFeedback { gain: 1.0 },
                rack_clamps: None,
            },
        );
        let initial = tree.sub_budgets().to_vec();
        assert!((initial[0] - 200.0).abs() < 1e-9);
        for _ in 0..4 {
            tree.redistribute(&[
                report(1.0, 90.0),
                report(1.0, 90.0),
                report(2.0, 95.0),
                report(2.0, 95.0),
            ])
            .unwrap();
        }
        let sub = tree.sub_budgets();
        assert!(
            sub[1] > sub[0] + 5.0,
            "slow rack must win sub-budget: {sub:?}"
        );
        let total: f64 = sub.iter().sum();
        assert!(total <= 400.0 + 1e-6);
        // The node level spends what its rack was granted, no more.
        let leaves = BudgetArbiter::grants(&tree);
        assert!(leaves[2..].iter().sum::<f64>() <= sub[1] + 1e-6);
        assert!(leaves[..2].iter().sum::<f64>() <= sub[0] + 1e-6);
    }

    #[test]
    fn a_silent_rack_keeps_its_sub_budget() {
        let mut tree = RackArbiter::new(
            cfg(Policy::ProgressFeedback { gain: 1.0 }),
            HierarchyConfig {
                racks: vec![2, 2],
                outer_period: 2,
                inner_period: 1,
                rack_policy: Policy::ProgressFeedback { gain: 1.0 },
                rack_clamps: None,
            },
        );
        let held = tree.sub_budgets()[1];
        // Rack 1 never reports (both members silent): however imbalanced
        // rack 0 looks, rack 1's pot must not move.
        for _ in 0..6 {
            tree.redistribute(&[report(0.5, 90.0), report(2.5, 95.0), None, None])
                .unwrap();
        }
        assert_eq!(
            tree.sub_budgets()[1].to_bits(),
            held.to_bits(),
            "silent rack's sub-budget must freeze"
        );
        assert_eq!(tree.rack_trace().len(), 3);
        for tick in tree.rack_trace().ticks() {
            assert!(!tick.reporting[1], "rack 1 must be recorded as silent");
            assert!(tick.slack_w() >= -1e-6);
        }
        // Rack 0 keeps rebalancing internally meanwhile.
        let leaves = BudgetArbiter::grants(&tree);
        assert!(leaves[1] > leaves[0] + 1.0, "rack 0 still rebalances");
    }

    #[test]
    fn clean_rack_subtrees_skip_the_inner_resolve_bit_identically() {
        let mut tree = RackArbiter::new(
            cfg(Policy::ProgressFeedback { gain: 1.0 }),
            HierarchyConfig {
                racks: vec![2, 2],
                outer_period: 2,
                inner_period: 1,
                rack_policy: Policy::ProgressFeedback { gain: 1.0 },
                rack_clamps: None,
            },
        );
        let frozen: Vec<u64> = BudgetArbiter::grants(&tree)[2..]
            .iter()
            .map(|g| g.to_bits())
            .collect();
        for _ in 0..6 {
            tree.redistribute(&[report(0.5, 90.0), report(2.5, 95.0), None, None])
                .unwrap();
        }
        // Every inner epoch the clean rack reuses its cached split
        // instead of re-solving, and a held grant holds bitwise: the
        // silent subtree's leaves never move off their initial split.
        assert_eq!(
            tree.skipped_rack_steps(),
            6,
            "rack 1 was clean at every barrier"
        );
        let after: Vec<u64> = BudgetArbiter::grants(&tree)[2..]
            .iter()
            .map(|g| g.to_bits())
            .collect();
        assert_eq!(after, frozen, "clean subtree's leaf grants must not move");
        // The barrier trace still records every round.
        assert_eq!(tree.trace().len(), 6);
    }

    #[test]
    fn incremental_outer_solve_matches_the_general_engine() {
        // All racks report every barrier, so the outer epochs take the
        // incremental-fill path. A shadow re-runs the same aggregates
        // through the full engine; sub-budgets must agree to ≤1e-9.
        let c = cfg(Policy::ProgressFeedback { gain: 1.0 });
        let h = HierarchyConfig {
            racks: vec![2, 2, 2],
            outer_period: 2,
            inner_period: 1,
            rack_policy: Policy::ProgressFeedback { gain: 0.8 },
            rack_clamps: None,
        };
        let mut tree = RackArbiter::new(c, h.clone());
        let (rack_min, rack_max) = h.resolved_clamps(&c);
        let mut shadow = tree.sub_budgets().to_vec();
        let mut scratch = RebalanceScratch::default();
        let mut accs = [
            RackWindow::default(),
            RackWindow::default(),
            RackWindow::default(),
        ];
        for round in 1..=8usize {
            let reports: Vec<Option<NodeTelemetry>> = (0..6)
                .map(|i| report(0.4 + 0.3 * ((i + round) % 5) as f64, 88.0 + i as f64))
                .collect();
            for (acc, pair) in accs.iter_mut().zip(reports.chunks(2)) {
                for r in pair.iter().flatten() {
                    acc.add(r);
                }
            }
            tree.redistribute(&reports).unwrap();
            if round.is_multiple_of(h.outer_period) {
                let rack_reports: Vec<Option<NodeTelemetry>> =
                    accs.iter_mut().map(RackWindow::take).collect();
                policy::rebalance(
                    h.rack_policy.allocator(),
                    c.budget_w,
                    &mut shadow,
                    &rack_min,
                    &rack_max,
                    &rack_reports,
                    None,
                    &mut scratch,
                );
                for (got, want) in tree.sub_budgets().iter().zip(&shadow) {
                    let rel = (got - want).abs() / want.abs().max(1.0);
                    assert!(rel <= 1e-9, "incremental {got} vs full {want}");
                }
            }
        }
        assert!(
            tree.sub_budgets()
                .iter()
                .any(|&b| (b - 400.0 / 3.0).abs() > 1.0),
            "the feedback policy must actually have moved watts"
        );
    }

    #[test]
    fn inner_period_holds_node_grants_between_epochs() {
        let mut tree = RackArbiter::new(
            cfg(Policy::ProgressFeedback { gain: 1.0 }),
            HierarchyConfig {
                racks: vec![4],
                outer_period: 4,
                inner_period: 2,
                rack_policy: Policy::UniformStatic,
                rack_clamps: None,
            },
        );
        let reports = [
            report(0.5, 100.0),
            report(1.0, 95.0),
            report(1.5, 90.0),
            report(2.5, 99.0),
        ];
        let g0 = tree.redistribute(&reports).unwrap().to_vec(); // round 1: holds
        let initial: Vec<f64> = vec![100.0; 4];
        assert_eq!(g0, initial, "round 1 is not an inner epoch");
        let g1 = tree.redistribute(&reports).unwrap().to_vec(); // round 2: fires
        assert_ne!(g1, initial, "round 2 must rebalance");
    }

    #[test]
    fn per_rack_clamps_cap_the_sub_budget() {
        let mut tree = RackArbiter::new(
            cfg(Policy::ProgressFeedback { gain: 1.0 }),
            HierarchyConfig {
                racks: vec![2, 2],
                outer_period: 1,
                inner_period: 1,
                rack_policy: Policy::ProgressFeedback { gain: 2.0 },
                rack_clamps: Some(vec![(80.0, 190.0), (80.0, 240.0)]),
            },
        );
        // Rack 0 is desperately slow, but its clamp holds it at 190 W.
        for _ in 0..6 {
            tree.redistribute(&[
                report(3.0, 95.0),
                report(3.0, 95.0),
                report(0.5, 90.0),
                report(0.5, 90.0),
            ])
            .unwrap();
        }
        assert!(
            tree.sub_budgets()[0] <= 190.0 + 1e-6,
            "clamp must hold: {:?}",
            tree.sub_budgets()
        );
    }

    #[test]
    fn set_budget_cascades_to_the_children() {
        let mut tree = RackArbiter::new(
            cfg(Policy::ProgressFeedback { gain: 1.0 }),
            HierarchyConfig::uniform(2, 2, Policy::ProgressFeedback { gain: 1.0 }),
        );
        BudgetArbiter::set_budget(&mut tree, 340.0);
        assert_eq!(BudgetArbiter::budget(&tree), 340.0);
        let total_sub: f64 = tree.sub_budgets().iter().sum();
        assert!(total_sub <= 340.0 + 1e-6);
        let total_leaf: f64 = BudgetArbiter::grants(&tree).iter().sum();
        assert!(total_leaf <= 340.0 + 1e-6);
    }

    #[test]
    fn validate_rejects_inconsistent_shapes() {
        let c = cfg(Policy::UniformStatic);
        let mut h = HierarchyConfig::uniform(2, 2, Policy::UniformStatic);
        assert!(h.validate(&c, 4).is_ok());
        assert!(h.validate(&c, 5).is_err(), "rack sum must match n");
        h.outer_period = 3;
        h.inner_period = 2;
        assert!(
            h.validate(&c, 4).is_err(),
            "outer must be multiple of inner"
        );
        h = HierarchyConfig::uniform(2, 2, Policy::UniformStatic);
        h.rack_clamps = Some(vec![(10.0, 50.0), (80.0, 240.0)]);
        assert!(
            h.validate(&c, 4).is_err(),
            "rack floor below node floors is infeasible"
        );
    }

    #[test]
    fn validate_rejects_a_bad_rack_gain() {
        let c = cfg(Policy::UniformStatic);
        for gain in [-0.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let h = HierarchyConfig::uniform(2, 2, Policy::ProgressFeedback { gain });
            let e = h.validate(&c, 4).expect_err("bad rack gain accepted");
            assert_eq!(e.what, "HierarchyConfig.rack_policy", "gain {gain}");
        }
        let h = HierarchyConfig::uniform(2, 2, Policy::ProgressFeedback { gain: 0.0 });
        assert!(h.validate(&c, 4).is_ok());
    }
}
