//! The budget-division strategies and the shared redistribution engine.
//!
//! [`Policy`] is both the serde-facing configuration enum and the
//! strategy: its crate-private `desired_into` computes each reporting
//! child's *desired* grant from the latest telemetry, and nothing else.
//! All the invariant-bearing machinery — freezing silent children,
//! clipping frozen grants to restore feasibility, clamping and
//! waterfilling the desired grants into the pool — lives in the
//! crate-private `rebalance` engine, which every level of the tree calls:
//! the flat [`crate::arbiter::PowerArbiter`] (children = nodes) and the
//! [`crate::hierarchy::OuterSolver`] (children = racks or `arbiterd`
//! shards). One engine, one solve per level: the sum-≤-budget and
//! per-child clamp invariants cannot drift apart between them.
//!
//! Clamps are per-child slices rather than scalars because the two levels
//! need different shapes: every node of a flat arbiter shares one
//! `[min, max]`, while a rack's sub-budget clamp scales with the rack's
//! size (and can be tightened per rack by the operator).

use crate::arbiter::{NodeTelemetry, Policy};
use crate::error::ConfigError;

/// One child's telemetry as `desired_into` reads it: a gathered report,
/// or a round's slot read where the caller left it, `None` for a silent
/// child.
pub(crate) trait Report {
    fn get(&self) -> Option<&NodeTelemetry>;
}

impl Report for NodeTelemetry {
    fn get(&self) -> Option<&NodeTelemetry> {
        Some(self)
    }
}

impl Report for Option<NodeTelemetry> {
    fn get(&self) -> Option<&NodeTelemetry> {
        self.as_ref()
    }
}

/// A report the first pass of `try_desired_into` has already found.
fn present<T: Report>(t: &T) -> &NodeTelemetry {
    t.get().expect("the first pass found every report")
}

/// A policy's first pass: `term(i, report)` for each report, pushed onto
/// `tmp` (cleared by the caller) and added up as it is made, or `None` at
/// the first silent child.
fn terms<T: Report>(
    telemetry: &[T],
    tmp: &mut Vec<f64>,
    mut term: impl FnMut(usize, &NodeTelemetry) -> f64,
) -> Option<f64> {
    tmp.reserve(telemetry.len());
    let mut total = SUM_START;
    for (i, t) in telemetry.iter().enumerate() {
        let v = term(i, t.get()?);
        total += v;
        tmp.push(v);
    }
    Some(total)
}

/// The start value of `Iterator::sum` over `f64`: a sum taken by hand in
/// the pass that makes its terms starts here too, so it keeps every bit,
/// the sign of an all-zero sum included.
const SUM_START: f64 = -0.0;

impl Policy {
    /// Desired grants for the reporting children, parallel to `grants`,
    /// written into `out` (cleared first). Returns `false` for "hold
    /// every grant exactly" (the immutable-by-design uniform-static
    /// policy); the engine then skips the waterfill entirely, so held
    /// grants are preserved bit for bit.
    ///
    /// `grants` and `telemetry` carry only the *reporting* children, in
    /// child order; `pool` is the watts available to them after frozen
    /// children kept theirs. `weights`, when present (parallel to
    /// `grants`), gives each child's useful-progress weight — how much
    /// science one unit of its reported `rate` is worth (see
    /// [`registry_progress_weights`]) — and switches the feedback policy
    /// from equalizing iteration *times* to equalizing weighted
    /// *useful-progress rates*. `tmp` is caller-owned scratch reused
    /// across calls, so the hot path allocates nothing.
    ///
    /// # Panics
    /// Panics when a report in `telemetry` is missing.
    pub(crate) fn desired_into<T: Report>(
        self,
        grants: &[f64],
        telemetry: &[T],
        pool: f64,
        weights: Option<&[f64]>,
        tmp: &mut Vec<f64>,
        out: &mut Vec<f64>,
    ) -> bool {
        self.try_desired_into(grants, telemetry, pool, weights, tmp, out)
            .expect("every child reported")
    }

    /// [`Policy::desired_into`], or `None` when the pass that reads the
    /// reports meets a silent child, so a round finds out whether every
    /// child reported without a pass of its own. The uniform-static
    /// policy reads no report and never returns `None`.
    pub(crate) fn try_desired_into<T: Report>(
        self,
        grants: &[f64],
        telemetry: &[T],
        pool: f64,
        weights: Option<&[f64]>,
        tmp: &mut Vec<f64>,
        out: &mut Vec<f64>,
    ) -> Option<bool> {
        debug_assert_eq!(grants.len(), telemetry.len(), "strategy input arity");
        tmp.clear();
        out.clear();
        match self {
            Policy::UniformStatic => Some(false),
            Policy::DemandProportional => {
                let total = terms(telemetry, tmp, |_, t| t.power_w.max(0.0))?;
                if total <= 0.0 {
                    out.resize(grants.len(), pool / grants.len() as f64);
                } else {
                    out.extend(tmp.iter().map(|d| pool * d / total));
                }
                Some(true)
            }
            Policy::ProgressFeedback { gain } if weights.is_some() => {
                // Useful-progress mode: the error term compares each
                // child's *science rate* u = rate × weight against the
                // mean, so a node running a low-yield workload (its rate
                // counts for less science) reads as behind and is funded
                // until yields equalize — the registry's "does the metric
                // relate to science?" semantics, not raw iteration time.
                let w = weights.expect("guarded by the match arm");
                debug_assert_eq!(w.len(), grants.len(), "weight arity");
                let mean_u = terms(telemetry, tmp, |i, t| t.rate * w[i])? / tmp.len() as f64;
                if mean_u <= 0.0 || !mean_u.is_finite() {
                    // Degenerate rates: hold the desires, let the
                    // waterfill renormalize them into the pool.
                    out.extend_from_slice(grants);
                    return Some(true);
                }
                out.extend(
                    grants
                        .iter()
                        .zip(tmp.iter())
                        .zip(telemetry)
                        .map(|((&g, &u), tel)| {
                            // Below the mean useful rate ⇒ positive error
                            // ⇒ more watts; above ⇒ donate. Same
                            // comm-aware damping as the time mode: watts
                            // cannot speed up the wire.
                            let err = (mean_u - u) / mean_u;
                            g * (1.0 + gain * err * present(tel).compute_fraction())
                        }),
                );
                Some(true)
            }
            Policy::ProgressFeedback { gain } => {
                // Per-child compute times under a shared barrier: the
                // critical child has the longest. `max` maps NaN to 0.
                let mean_t = terms(telemetry, tmp, |_, t| t.compute_s.max(0.0))? / tmp.len() as f64;
                if mean_t <= 0.0 {
                    // Degenerate telemetry (no usable times): keep the
                    // current grants as the desire and let the waterfill
                    // renormalize them into the pool.
                    out.extend_from_slice(grants);
                } else {
                    out.extend(grants.iter().zip(tmp.iter()).zip(telemetry).map(
                        |((&g, &t), tel)| {
                            // Behind the barrier mean (the critical path)
                            // ⇒ positive error ⇒ more watts; ahead ⇒
                            // donate. Comm-aware damping: a child that is
                            // slow because it is waiting on the wire
                            // cannot convert watts into barrier arrival
                            // time, so its error (boost *or* donation) is
                            // scaled by its compute fraction.
                            let err = (t - mean_t) / mean_t;
                            g * (1.0 + gain * err * present(tel).compute_fraction())
                        },
                    ));
                }
                Some(true)
            }
        }
    }
}

/// Reusable working memory for `rebalance`: the gather/scatter buffers
/// for the reporting subset plus the allocator's temporaries. One scratch
/// per arbiter, reused every round — after the first call the engine
/// allocates nothing, which is what keeps a 4096-node redistribution tick
/// flat in the profiler instead of dominated by `Vec` churn.
#[derive(Debug, Clone, Default)]
pub struct RebalanceScratch {
    reporting: Vec<usize>,
    cur: Vec<f64>,
    tel: Vec<NodeTelemetry>,
    r_w: Vec<f64>,
    r_min: Vec<f64>,
    r_max: Vec<f64>,
    desired: Vec<f64>,
    tmp: Vec<f64>,
    filled: Vec<f64>,
}

impl RebalanceScratch {
    /// Re-fit `grants` into `pool` under the per-child clamps, in place:
    /// the waterfill of the grants themselves, computed in the scratch's
    /// fill buffer so a budget change allocates nothing. Bit-identical to
    /// copying `waterfill(grants, pool, min, max)` back.
    pub(crate) fn refit(&mut self, grants: &mut [f64], pool: f64, min: &[f64], max: &[f64]) {
        waterfill_into(grants, pool, min, max, &mut self.filled);
        grants.copy_from_slice(&self.filled);
    }
}

/// One redistribution round over `grants.len()` children sharing
/// `budget`: freeze silent children at their last grant, clip frozen
/// grants toward their floors if feasibility demands it, ask `policy` for
/// the reporting children's desired grants, and waterfill those into the
/// remaining pool under the per-child `[min, max]` clamps.
///
/// Postcondition (the level-independent invariant): `Σ grants ≤ budget`
/// and `min[i] ≤ grants[i] ≤ max[i]` for every child, provided they held
/// on entry and `budget ≥ Σ min`.
// One slot per engine input; callers name every argument at the call
// site, so a params struct would add nothing but indirection.
#[allow(clippy::too_many_arguments)]
pub(crate) fn rebalance(
    policy: Policy,
    budget: f64,
    grants: &mut [f64],
    min: &[f64],
    max: &[f64],
    reports: &[Option<NodeTelemetry>],
    weights: Option<&[f64]>,
    scratch: &mut RebalanceScratch,
) {
    debug_assert_eq!(grants.len(), reports.len(), "engine input arity");
    debug_assert_eq!(grants.len(), min.len());
    debug_assert_eq!(grants.len(), max.len());
    let s = scratch;
    // Assume every child reported (or there is none): nothing is frozen
    // or clipped, and the reporting subset is every child, so the
    // engine's inputs, telemetry included, are used in place instead of
    // gathered, and the pool is the whole budget. The policy's own pass
    // over the reports finds a silent child; only the uniform-static
    // policy, which reads none, looks for one first.
    if !matches!(policy, Policy::UniformStatic) || reports.iter().all(Option::is_some) {
        let tried =
            policy.try_desired_into(grants, reports, budget, weights, &mut s.tmp, &mut s.desired);
        if let Some(moves) = tried {
            if moves {
                waterfill_into(&s.desired, budget, min, max, &mut s.filled);
                grants.copy_from_slice(&s.filled);
            }
            return;
        }
    }
    s.tel.clear();
    s.tel.extend(reports.iter().flatten());
    if s.tel.is_empty() {
        return;
    }
    s.reporting.clear();
    s.reporting
        .extend((0..reports.len()).filter(|&i| reports[i].is_some()));
    // The frozen (silent) set is the complement of the reporting set; one
    // linear pass over `reports` replaces the old per-child membership
    // probe, which made every redistribution tick O(n²) — ~16M probes per
    // tick at 4096 nodes.
    let frozen_sum = |grants: &[f64]| -> f64 {
        reports
            .iter()
            .zip(grants.iter())
            .filter(|(r, _)| r.is_none())
            .map(|(_, &g)| g)
            .sum()
    };
    let mut pool = budget - frozen_sum(grants);

    // A silent child keeps its grant only while the rest can still meet
    // their floors; otherwise frozen grants are clipped toward the floor
    // to restore feasibility.
    let need = s.reporting.iter().map(|&i| min[i]).sum::<f64>() - pool;
    if need > 0.0 {
        let available: f64 = reports
            .iter()
            .enumerate()
            .filter(|(_, r)| r.is_none())
            .map(|(i, _)| grants[i] - min[i])
            .sum();
        let scale = if available > 0.0 {
            (1.0 - need / available).max(0.0)
        } else {
            0.0
        };
        for (i, r) in reports.iter().enumerate() {
            if r.is_none() {
                grants[i] = min[i] + (grants[i] - min[i]) * scale;
            }
        }
        pool = budget - frozen_sum(grants);
    }

    s.cur.clear();
    s.cur.extend(s.reporting.iter().map(|&i| grants[i]));
    let r_w: Option<&[f64]> = match weights {
        Some(w) => {
            s.r_w.clear();
            s.r_w.extend(s.reporting.iter().map(|&i| w[i]));
            Some(&s.r_w)
        }
        None => None,
    };
    if !policy.desired_into(&s.cur, &s.tel, pool, r_w, &mut s.tmp, &mut s.desired) {
        return; // grants are immutable by design
    }
    s.r_min.clear();
    s.r_min.extend(s.reporting.iter().map(|&i| min[i]));
    s.r_max.clear();
    s.r_max.extend(s.reporting.iter().map(|&i| max[i]));
    waterfill_into(&s.desired, pool, &s.r_min, &s.r_max, &mut s.filled);
    for (&i, &g) in s.reporting.iter().zip(&s.filled) {
        grants[i] = g;
    }
}

/// Deterministic clamped proportional fill: clamp `desired` into the
/// per-child `[min, max]` ranges, then scale the above-floor portions
/// down to fit `pool`, or push leftover pool into the remaining headroom
/// (proportionally, so nobody exceeds its max). The result always
/// satisfies Σ ≤ pool and the per-child clamps, provided `pool ≥ Σ min`.
///
/// A single child is special-cased to receive exactly
/// `pool.clamp(min, max)`: the scaling algebra would only reconstruct
/// that value through rounding, and the exactness is what keeps a
/// one-rack arbiter tree bitwise identical to the flat arbiter.
pub(crate) fn waterfill(desired: &[f64], pool: f64, min: &[f64], max: &[f64]) -> Vec<f64> {
    let mut out = Vec::with_capacity(desired.len());
    waterfill_into(desired, pool, min, max, &mut out);
    out
}

/// Allocation-free form of `waterfill`: the result is written into
/// `out` (cleared first), bit-identical to the allocating form.
pub(crate) fn waterfill_into(
    desired: &[f64],
    pool: f64,
    min: &[f64],
    max: &[f64],
    out: &mut Vec<f64>,
) {
    debug_assert_eq!(desired.len(), min.len());
    debug_assert_eq!(desired.len(), max.len());
    out.clear();
    if let (&[_], &[lo], &[hi]) = (desired, min, max) {
        out.push(pool.clamp(lo, hi));
        return;
    }
    // The clamp pass adds up what the branches below read: the clamped
    // values, their amounts above the floor, and the floors.
    let (mut sum, mut above, mut floors) = (SUM_START, SUM_START, SUM_START);
    out.extend(
        desired
            .iter()
            .zip(min.iter().zip(max))
            .map(|(d, (&lo, &hi))| {
                let g = d.clamp(lo, hi);
                sum += g;
                above += g - lo;
                floors += lo;
                g
            }),
    );
    if sum > pool {
        // Scale the above-floor portion to exactly fit the pool.
        let target = (pool - floors).max(0.0);
        let s = if above > 0.0 { target / above } else { 0.0 };
        for (g, &lo) in out.iter_mut().zip(min) {
            *g = lo + (*g - lo) * s;
        }
    } else {
        // Distribute the leftover into headroom, proportionally.
        let leftover = pool - sum;
        let headroom: f64 = out.iter().zip(max).map(|(g, &hi)| hi - g).sum();
        if leftover > 0.0 && headroom > 0.0 {
            let s = (leftover / headroom).min(1.0);
            for (g, &hi) in out.iter_mut().zip(max) {
                *g += (hi - *g) * s;
            }
        }
    }
}

/// The useful-progress weight of one registry application: how much
/// science a unit of its online rate metric is worth, derived from the
/// paper's Table IV/V semantics. An app with no online metric at all
/// (the paper's category-3 applications) is worth 0.25 — its "rate" is a
/// proxy at best; an app whose metric does not relate to science (AMG's
/// CG iterations, CANDLE's epochs) is worth 0.5; an app whose metric is
/// the science (LAMMPS atom-steps, QMCPACK blocks) is worth 1.0.
pub fn progress_weight(rec: &progress::registry::AppRecord) -> f64 {
    if rec.metric.is_none() {
        0.25
    } else if rec.answers.relates_to_science == Some(true) {
        1.0
    } else {
        0.5
    }
}

/// Per-node useful-progress weights for a cluster running `apps` (one
/// registry application name per node, case-insensitive), for
/// [`crate::PowerArbiter::with_progress_weights`]. Unknown names are a
/// [`ConfigError`] naming the offending entry.
pub fn registry_progress_weights(apps: &[&str]) -> Result<Vec<f64>, ConfigError> {
    apps.iter()
        .map(|name| {
            progress::registry::lookup(name)
                .map(progress_weight)
                .ok_or_else(|| {
                    ConfigError::new(
                        "registry_progress_weights.apps",
                        format!("application {name:?} is not in the paper's registry"),
                    )
                })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn uniform(n: usize, v: f64) -> Vec<f64> {
        vec![v; n]
    }

    /// `rebalance` as first written, with every input gathered through
    /// the reporting index whether or not a child is silent: the
    /// reference the all-reporting fast path must equal bit for bit.
    #[allow(clippy::too_many_arguments)]
    fn rebalance_gathered(
        policy: Policy,
        budget: f64,
        grants: &mut [f64],
        min: &[f64],
        max: &[f64],
        reports: &[Option<NodeTelemetry>],
        weights: Option<&[f64]>,
    ) {
        let reporting: Vec<usize> = (0..reports.len())
            .filter(|&i| reports[i].is_some())
            .collect();
        if reporting.is_empty() {
            return;
        }
        let frozen_sum = |grants: &[f64]| -> f64 {
            reports
                .iter()
                .zip(grants.iter())
                .filter(|(r, _)| r.is_none())
                .map(|(_, &g)| g)
                .sum()
        };
        let mut pool = budget - frozen_sum(grants);
        let need = reporting.iter().map(|&i| min[i]).sum::<f64>() - pool;
        if need > 0.0 && reporting.len() < grants.len() {
            let available: f64 = reports
                .iter()
                .enumerate()
                .filter(|(_, r)| r.is_none())
                .map(|(i, _)| grants[i] - min[i])
                .sum();
            let scale = if available > 0.0 {
                (1.0 - need / available).max(0.0)
            } else {
                0.0
            };
            for (i, r) in reports.iter().enumerate() {
                if r.is_none() {
                    grants[i] = min[i] + (grants[i] - min[i]) * scale;
                }
            }
            pool = budget - frozen_sum(grants);
        }
        let cur: Vec<f64> = reporting.iter().map(|&i| grants[i]).collect();
        let tel: Vec<NodeTelemetry> = reporting.iter().map(|&i| reports[i].unwrap()).collect();
        let r_w: Option<Vec<f64>> = weights.map(|w| reporting.iter().map(|&i| w[i]).collect());
        let mut desired = Vec::new();
        if !policy.desired_into(
            &cur,
            &tel,
            pool,
            r_w.as_deref(),
            &mut Vec::new(),
            &mut desired,
        ) {
            return;
        }
        let r_min: Vec<f64> = reporting.iter().map(|&i| min[i]).collect();
        let r_max: Vec<f64> = reporting.iter().map(|&i| max[i]).collect();
        let filled = waterfill(&desired, pool, &r_min, &r_max);
        for (&i, &g) in reporting.iter().zip(&filled) {
            grants[i] = g;
        }
    }

    /// One child: `(floor, headroom, grant position, compute_s, rate,
    /// power_w, weight)`. Zeros are drawn often enough to reach every
    /// policy's degenerate branch.
    fn child() -> impl Strategy<Value = (f64, f64, f64, f64, f64, f64, f64)> {
        let time = prop_oneof![1 => Just(0.0f64), 6 => 0.01f64..4.0];
        let watts = prop_oneof![1 => Just(0.0f64), 6 => 1.0f64..200.0];
        (
            (20.0f64..60.0, 0.0f64..120.0, 0.0f64..=1.0),
            (time, 0.0f64..3.0, watts),
            0.1f64..2.0,
        )
            .prop_map(|((lo, span, at), (t, rate, w), weight)| (lo, span, at, t, rate, w, weight))
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// When every child reports, the engine's result is bit-identical
        /// to the gathered reference, for every policy, with and
        /// without weights, across pools from starved to slack.
        #[test]
        fn all_reporting_rebalance_equals_the_gathered_path(
            children in prop::collection::vec(child(), 1..40),
            kind in 0u8..3,
            gain in 0.1f64..2.0,
            weighted in any::<bool>(),
            slack in 0.0f64..=1.0,
        ) {
            let policy = match kind {
                0 => Policy::UniformStatic,
                1 => Policy::DemandProportional,
                _ => Policy::ProgressFeedback { gain },
            };
            let min: Vec<f64> = children.iter().map(|c| c.0).collect();
            let max: Vec<f64> = children.iter().map(|c| c.0 + c.1).collect();
            let grants: Vec<f64> = children.iter().map(|c| c.0 + c.1 * c.2).collect();
            let reports: Vec<Option<NodeTelemetry>> = children
                .iter()
                .map(|c| Some(NodeTelemetry::compute_only(c.3, c.4, c.5)))
                .collect();
            let weights: Vec<f64> = children.iter().map(|c| c.6).collect();
            let weights = weighted.then_some(&weights[..]);
            let (lo, hi) = (min.iter().sum::<f64>(), max.iter().sum::<f64>());
            let budget = lo + (hi - lo) * slack * 1.25;
            let mut fast = grants.clone();
            let mut reference = grants;
            let mut scratch = RebalanceScratch::default();
            // Twice through one scratch: reuse carries nothing over.
            for _ in 0..2 {
                rebalance(policy, budget, &mut fast, &min, &max, &reports, weights, &mut scratch);
                rebalance_gathered(policy, budget, &mut reference, &min, &max, &reports, weights);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&fast), bits(&reference));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// With some children silent (the first, the last or any), the
        /// engine's policy pass meets the silent one and falls back to
        /// the gathered path, bit for bit, for every policy, with and
        /// without weights, across pools from starved to slack.
        #[test]
        fn some_silent_rebalance_equals_the_gathered_path(
            children in prop::collection::vec((child(), any::<bool>()), 1..40),
            kind in 0u8..3,
            weighted in any::<bool>(),
            slack in 0.0f64..=1.0,
        ) {
            let policy = match kind {
                0 => Policy::UniformStatic,
                1 => Policy::DemandProportional,
                _ => Policy::ProgressFeedback { gain: 0.9 },
            };
            let min: Vec<f64> = children.iter().map(|(c, _)| c.0).collect();
            let max: Vec<f64> = children.iter().map(|(c, _)| c.0 + c.1).collect();
            let grants: Vec<f64> = children.iter().map(|(c, _)| c.0 + c.1 * c.2).collect();
            let reports: Vec<Option<NodeTelemetry>> = children
                .iter()
                .map(|(c, silent)| (!silent).then(|| NodeTelemetry::compute_only(c.3, c.4, c.5)))
                .collect();
            let weights: Vec<f64> = children.iter().map(|(c, _)| c.6).collect();
            let weights = weighted.then_some(&weights[..]);
            let (lo, hi) = (min.iter().sum::<f64>(), max.iter().sum::<f64>());
            let budget = lo + (hi - lo) * slack * 1.25;
            let mut fast = grants.clone();
            let mut reference = grants;
            let mut scratch = RebalanceScratch::default();
            for _ in 0..2 {
                rebalance(policy, budget, &mut fast, &min, &max, &reports, weights, &mut scratch);
                rebalance_gathered(policy, budget, &mut reference, &min, &max, &reports, weights);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&fast), bits(&reference));
            }
        }
    }

    /// `waterfill_into` as it was with one pass per sum: clamp, then add
    /// up the clamped values, then the amounts above the floor and the
    /// floors (or the headroom) each in a pass of its own. The reference
    /// the fused form must equal bit for bit.
    fn waterfill_multipass(desired: &[f64], pool: f64, min: &[f64], max: &[f64]) -> Vec<f64> {
        if let (&[_], &[lo], &[hi]) = (desired, min, max) {
            return vec![pool.clamp(lo, hi)];
        }
        let mut out: Vec<f64> = (desired.iter().zip(min.iter().zip(max)))
            .map(|(d, (&lo, &hi))| d.clamp(lo, hi))
            .collect();
        let sum: f64 = out.iter().sum();
        if sum > pool {
            let above: f64 = out.iter().zip(min).map(|(g, &lo)| g - lo).sum();
            let target = (pool - min.iter().sum::<f64>()).max(0.0);
            let s = if above > 0.0 { target / above } else { 0.0 };
            for (g, &lo) in out.iter_mut().zip(min) {
                *g = lo + (*g - lo) * s;
            }
        } else {
            let leftover = pool - sum;
            let headroom: f64 = out.iter().zip(max).map(|(g, &hi)| hi - g).sum();
            if leftover > 0.0 && headroom > 0.0 {
                let s = (leftover / headroom).min(1.0);
                for (g, &hi) in out.iter_mut().zip(max) {
                    *g += (hi - *g) * s;
                }
            }
        }
        out
    }

    /// `Policy::desired_into` as it was with the desires' sum taken in a
    /// pass after the one that wrote them: the reference for the fused
    /// arms.
    fn desired_multipass(
        policy: Policy,
        grants: &[f64],
        telemetry: &[NodeTelemetry],
        pool: f64,
        weights: Option<&[f64]>,
    ) -> Option<Vec<f64>> {
        match policy {
            Policy::UniformStatic => None,
            Policy::DemandProportional => {
                let tmp: Vec<f64> = telemetry.iter().map(|t| t.power_w.max(0.0)).collect();
                let total: f64 = tmp.iter().sum();
                Some(if total <= 0.0 {
                    vec![pool / grants.len() as f64; grants.len()]
                } else {
                    tmp.iter().map(|d| pool * d / total).collect()
                })
            }
            Policy::ProgressFeedback { gain } => {
                let tmp: Vec<f64> = match weights {
                    Some(w) => telemetry
                        .iter()
                        .zip(w)
                        .map(|(t, &wi)| t.rate * wi)
                        .collect(),
                    None => telemetry.iter().map(|t| t.compute_s.max(0.0)).collect(),
                };
                let mean = tmp.iter().sum::<f64>() / tmp.len() as f64;
                if mean <= 0.0 || (weights.is_some() && !mean.is_finite()) {
                    return Some(grants.to_vec());
                }
                Some(
                    (grants.iter().zip(&tmp).zip(telemetry))
                        .map(|((&g, &v), tel)| {
                            // Behind the mean earns watts: a short science
                            // rate, or a long iteration time.
                            let err = if weights.is_some() {
                                (mean - v) / mean
                            } else {
                                (v - mean) / mean
                            };
                            g * (1.0 + gain * err * tel.compute_fraction())
                        })
                        .collect(),
                )
            }
        }
    }

    /// A value from the edges the fused sums must carry exactly: ±0.0,
    /// subnormals, the smallest normal, and ordinary watts.
    fn edge() -> impl Strategy<Value = f64> {
        prop_oneof![
            1 => Just(0.0f64),
            1 => Just(-0.0f64),
            1 => (1u64..4096).prop_map(f64::from_bits),
            1 => (1u64..4096).prop_map(|b| -f64::from_bits(b)),
            1 => Just(f64::MIN_POSITIVE),
            4 => 0.0f64..200.0,
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// The fused waterfill equals the multi-pass reference bit for bit
        /// on ±0.0 and subnormal desires, all-at-floor inputs (the
        /// above-floor sum is 0), pools below Σ floors, between, and above
        /// Σ ceilings, and single children.
        #[test]
        fn fused_waterfill_equals_the_multipass_waterfill(
            children in prop::collection::vec((edge(), edge(), edge()), 1..9),
            at_floor in any::<bool>(),
            pool_at in (0u8..6, 0.0f64..=1.0),
        ) {
            // Floors and ceilings keep -0.0 (the sums' start value shows
            // only there), and a zero span makes a ceiling its floor.
            let min: Vec<f64> = children
                .iter()
                .map(|c| if c.1 < 0.0 { -c.1 } else { c.1 }.min(60.0))
                .collect();
            let max: Vec<f64> = (children.iter().zip(&min))
                .map(|(c, &lo)| if c.2 == 0.0 { lo } else { lo + c.2.abs() })
                .collect();
            let desired: Vec<f64> = if at_floor {
                children.iter().zip(&min).map(|(c, &lo)| lo - c.0.abs()).collect()
            } else {
                children.iter().map(|c| c.0).collect()
            };
            let (lo, hi) = (min.iter().sum::<f64>(), max.iter().sum::<f64>());
            let (mode, frac) = pool_at;
            let pool = match mode {
                0 => lo * frac,
                1 => lo + (hi - lo) * frac,
                2 => hi + 1.0 + 100.0 * frac,
                3 => lo,
                4 => -0.0,
                _ => hi,
            };
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(
                bits(&waterfill(&desired, pool, &min, &max)),
                bits(&waterfill_multipass(&desired, pool, &min, &max))
            );
        }

        /// Each arm of the fused `desired_into` equals the multi-pass
        /// reference bit for bit, with ±0.0, subnormal and zero powers,
        /// times and rates.
        #[test]
        fn fused_desires_equal_the_multipass_desires(
            children in prop::collection::vec((edge(), edge(), edge(), 0.1f64..2.0), 1..9),
            kind in 0u8..3,
            weighted in any::<bool>(),
        ) {
            let policy = match kind {
                0 => Policy::UniformStatic,
                1 => Policy::DemandProportional,
                _ => Policy::ProgressFeedback { gain: 0.8 },
            };
            let grants: Vec<f64> = children.iter().map(|c| 40.0 + c.3 * 50.0).collect();
            let tel: Vec<NodeTelemetry> = children
                .iter()
                .map(|c| NodeTelemetry::compute_only(c.0, c.1, c.2))
                .collect();
            let weights: Vec<f64> = children.iter().map(|c| c.3).collect();
            let weights = weighted.then_some(&weights[..]);
            let bits = |v: Option<Vec<f64>>| {
                v.map(|v| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
            };
            prop_assert_eq!(
                bits(desired(policy, &grants, &tel, 300.0, weights)),
                bits(desired_multipass(policy, &grants, &tel, 300.0, weights))
            );
        }
    }

    /// The allocating form of [`Policy::desired_into`]: `None` for
    /// "hold every grant".
    fn desired(
        policy: Policy,
        grants: &[f64],
        telemetry: &[NodeTelemetry],
        pool: f64,
        weights: Option<&[f64]>,
    ) -> Option<Vec<f64>> {
        let mut out = Vec::new();
        policy
            .desired_into(grants, telemetry, pool, weights, &mut Vec::new(), &mut out)
            .then_some(out)
    }

    /// The time-mode feedback arm as it was with
    /// `progress::imbalance::analyze` in front of it: the reference that
    /// shows dropping the call moves no output.
    fn feedback_with_analyze(gain: f64, grants: &[f64], telemetry: &[NodeTelemetry]) -> Vec<f64> {
        let times: Vec<f64> = telemetry.iter().map(|t| t.compute_s.max(0.0)).collect();
        let Ok(_) = progress::imbalance::analyze(&times) else {
            return grants.to_vec();
        };
        let mean_t = times.iter().sum::<f64>() / times.len() as f64;
        if mean_t <= 0.0 {
            return grants.to_vec();
        }
        (grants.iter().zip(&times).zip(telemetry))
            .map(|((&g, &t), tel)| {
                g * (1.0 + gain * ((t - mean_t) / mean_t) * tel.compute_fraction())
            })
            .collect()
    }

    #[test]
    fn feedback_without_analyze_is_unchanged_on_nan_signed_zero_and_infinity() {
        // NaN, -0.0 and +∞ compute times are what `analyze` could have
        // rejected; after `max(0.0)` it never does, so its error arm was
        // dead and the outputs, slot by slot or gathered, are the same.
        let policy = Policy::ProgressFeedback { gain: 0.7 };
        let same = |a: &[f64], b: &[f64]| {
            a.len() == b.len()
                && a.iter()
                    .zip(b)
                    .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
        };
        let odd = [f64::NAN, -0.0, 0.0, f64::INFINITY, 1.5, 0.25];
        let grants = [80.0, 100.0, 120.0];
        for a in odd {
            for b in odd {
                for c in odd {
                    let tel: Vec<NodeTelemetry> = [a, b, c]
                        .iter()
                        .enumerate()
                        .map(|(i, &t)| NodeTelemetry {
                            comm_s: 0.1 * i as f64,
                            ..NodeTelemetry::compute_only(t, 1.0, 90.0)
                        })
                        .collect();
                    let times: Vec<f64> = tel.iter().map(|t| t.compute_s.max(0.0)).collect();
                    assert!(progress::imbalance::analyze(&times).is_ok(), "{times:?}");
                    let want = feedback_with_analyze(0.7, &grants, &tel);
                    let got = desired(policy, &grants, &tel, 300.0, None).expect("moves");
                    assert!(same(&got, &want), "{a} {b} {c}: {got:?} vs {want:?}");
                    let slots: Vec<Option<NodeTelemetry>> = tel.into_iter().map(Some).collect();
                    let mut in_place = Vec::new();
                    assert!(policy.desired_into(
                        &grants,
                        &slots,
                        300.0,
                        None,
                        &mut Vec::new(),
                        &mut in_place
                    ));
                    assert!(same(&in_place, &want), "{a} {b} {c}: {in_place:?}");
                }
            }
        }
    }

    #[test]
    fn waterfill_fits_pool_and_clamps() {
        let out = waterfill(
            &[500.0, 10.0, 80.0],
            240.0,
            &uniform(3, 40.0),
            &uniform(3, 120.0),
        );
        let sum: f64 = out.iter().sum();
        assert!(sum <= 240.0 + 1e-9, "{out:?}");
        for g in &out {
            assert!((40.0..=120.0).contains(g), "{out:?}");
        }
        // The starved entry sits at the floor, the greedy one above it.
        assert!(out[0] > out[1]);
    }

    #[test]
    fn waterfill_spreads_leftover_without_exceeding_max() {
        let out = waterfill(&[50.0, 50.0], 400.0, &uniform(2, 40.0), &uniform(2, 120.0));
        for g in &out {
            assert!(*g <= 120.0 + 1e-9);
        }
        // Headroom is funded evenly from the oversized pool.
        assert!((out[0] - 120.0).abs() < 1e-9 && (out[1] - 120.0).abs() < 1e-9);
    }

    #[test]
    fn waterfill_honours_per_child_clamps() {
        // Child 1 has a private ceiling well under the shared one.
        let out = waterfill(&[200.0, 200.0], 260.0, &[40.0, 40.0], &[200.0, 60.0]);
        assert!(out[1] <= 60.0 + 1e-9, "{out:?}");
        assert!(out.iter().sum::<f64>() <= 260.0 + 1e-9);
    }

    #[test]
    fn single_child_takes_exactly_the_clamped_pool() {
        let out = waterfill(&[73.2], 500.0, &[40.0], &[130.0]);
        assert_eq!(out[0].to_bits(), 130.0f64.to_bits());
        let out = waterfill(&[999.0], 88.5, &[40.0], &[130.0]);
        assert_eq!(out[0].to_bits(), 88.5f64.to_bits());
    }

    #[test]
    fn hold_allocator_never_produces_desires() {
        let t = NodeTelemetry::compute_only(1.0, 1.0, 90.0);
        assert_eq!(
            desired(Policy::UniformStatic, &[80.0], &[t], 100.0, None),
            None
        );
    }

    #[test]
    fn demand_share_is_proportional_and_survives_zero_demand() {
        let policy = Policy::DemandProportional;
        let tel = [
            NodeTelemetry::compute_only(1.0, 1.0, 120.0),
            NodeTelemetry::compute_only(1.0, 1.0, 60.0),
        ];
        let d = desired(policy, &[80.0, 80.0], &tel, 180.0, None).expect("moves");
        assert!((d[0] - 120.0).abs() < 1e-9 && (d[1] - 60.0).abs() < 1e-9);
        let dark = [
            NodeTelemetry::compute_only(1.0, 1.0, 0.0),
            NodeTelemetry::compute_only(1.0, 1.0, 0.0),
        ];
        let d = desired(policy, &[80.0, 80.0], &dark, 180.0, None).expect("moves");
        assert_eq!(d, vec![90.0, 90.0]);
    }

    #[test]
    fn feedback_boosts_the_critical_child() {
        let policy = Policy::ProgressFeedback { gain: 1.0 };
        let tel = [
            NodeTelemetry::compute_only(0.5, 2.0, 90.0),
            NodeTelemetry::compute_only(1.5, 1.0 / 1.5, 90.0),
        ];
        let d = desired(policy, &[100.0, 100.0], &tel, 200.0, None).expect("moves");
        assert!(d[1] > 100.0 && d[0] < 100.0, "{d:?}");
    }

    #[test]
    fn weighted_feedback_funds_the_low_yield_child() {
        // Equal iteration times and rates: the time mode sees perfect
        // balance and holds. With weights, the 0.5-weight child's science
        // rate is half the mean, so it reads as behind and is funded.
        let policy = Policy::ProgressFeedback { gain: 1.0 };
        let tel = [
            NodeTelemetry::compute_only(1.0, 1.0, 90.0),
            NodeTelemetry::compute_only(1.0, 1.0, 90.0),
        ];
        let flat = desired(policy, &[100.0, 100.0], &tel, 200.0, None).expect("moves");
        assert!(
            (flat[0] - flat[1]).abs() < 1e-9,
            "time mode holds: {flat:?}"
        );
        let d = desired(policy, &[100.0, 100.0], &tel, 200.0, Some(&[1.0, 0.5])).expect("moves");
        assert!(d[1] > 100.0 && d[0] < 100.0, "{d:?}");
    }

    #[test]
    fn registry_weights_follow_the_table_iv_semantics() {
        // LAMMPS's metric is the science (1.0); AMG's CG iterations are
        // not (0.5); URBAN has no online metric at all (0.25).
        let w = registry_progress_weights(&["LAMMPS", "AMG", "QMCPACK", "URBAN"]).unwrap();
        assert_eq!(w, vec![1.0, 0.5, 1.0, 0.25]);
        let e = registry_progress_weights(&["NoSuchApp"]).unwrap_err();
        assert!(e.why.contains("NoSuchApp"), "{e}");
    }

    #[test]
    fn engine_freezes_silent_children_and_keeps_the_sum_bounded() {
        let mut grants = vec![100.0, 100.0, 100.0];
        let min = uniform(3, 40.0);
        let max = uniform(3, 130.0);
        let t = |s: f64| Some(NodeTelemetry::compute_only(s, 1.0 / s, 90.0));
        rebalance(
            Policy::ProgressFeedback { gain: 1.0 },
            300.0,
            &mut grants,
            &min,
            &max,
            &[t(1.0), None, t(2.0)],
            None,
            &mut RebalanceScratch::default(),
        );
        assert_eq!(grants[1], 100.0, "silent child must freeze");
        assert!(grants.iter().sum::<f64>() <= 300.0 + 1e-6);
        assert!(grants[2] > grants[0], "critical child earns more");
    }

    #[test]
    fn scratch_reuse_is_bit_identical_across_rounds() {
        // One shared scratch across rounds must give exactly the grants a
        // fresh scratch would: the buffers carry no state between calls.
        let t = |s: f64| Some(NodeTelemetry::compute_only(s, 1.0 / s, 90.0));
        let streams = [
            [t(1.0), t(2.0), None],
            [t(0.5), None, t(1.5)],
            [t(1.2), t(1.2), t(1.2)],
        ];
        let policy = Policy::ProgressFeedback { gain: 1.0 };
        let (min, max) = (uniform(3, 40.0), uniform(3, 130.0));
        let mut shared = vec![100.0; 3];
        let mut scratch = RebalanceScratch::default();
        let mut fresh = vec![100.0; 3];
        for reports in &streams {
            rebalance(
                policy,
                300.0,
                &mut shared,
                &min,
                &max,
                reports,
                None,
                &mut scratch,
            );
            rebalance(
                policy,
                300.0,
                &mut fresh,
                &min,
                &max,
                reports,
                None,
                &mut RebalanceScratch::default(),
            );
        }
        for (a, b) in shared.iter().zip(&fresh) {
            assert_eq!(a.to_bits(), b.to_bits(), "{shared:?} vs {fresh:?}");
        }
    }
}
