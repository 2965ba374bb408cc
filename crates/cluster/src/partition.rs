//! Multi-job machine partitioning: many arbiters under one envelope.
//!
//! The arbiter stack so far divides one budget across the nodes of one
//! job. A batch scheduler runs *many* jobs at once, each with its own
//! node set and its own intra-job arbiter, all under a single site power
//! envelope (the machine-room breaker the admission controller admits
//! against). [`MachinePartition`] is that layer: it owns one
//! [`BudgetArbiter`] per running job, keyed by job id, and enforces the
//! machine-level conservation invariant the scheduler's admission
//! decisions rely on — Σ(job budgets) ≤ envelope, and therefore
//! Σ(all leaf grants) ≤ envelope, re-asserted after every admission,
//! release and redistribution tick.
//!
//! Admission beyond the envelope is a recoverable [`ConfigError`] (the
//! admission controller treats "does not fit" as a scheduling outcome,
//! not a bug); a *violation* of the invariant by arbiters already
//! admitted is a panic, because it can only be an implementation bug.

use std::collections::BTreeMap;

use crate::arbiter::{BudgetArbiter, NodeTelemetry, EPS_W};
use crate::error::{ConfigError, TelemetryError};

/// A machine power envelope partitioned across per-job arbiters.
///
/// Jobs are keyed by an opaque `u32` id (the scheduler's job id). The
/// map is a `BTreeMap` so every iteration over jobs — sums, invariant
/// checks — is in deterministic id order regardless of admission order.
pub struct MachinePartition {
    envelope_w: f64,
    jobs: BTreeMap<u32, Box<dyn BudgetArbiter>>,
}

impl MachinePartition {
    /// An empty partition of `envelope_w` watts.
    ///
    /// # Errors
    /// The envelope must be positive and finite.
    pub fn new(envelope_w: f64) -> Result<Self, ConfigError> {
        if !(envelope_w.is_finite() && envelope_w > 0.0) {
            return Err(ConfigError::new(
                "MachinePartition.envelope_w",
                format!("envelope {envelope_w} W must be positive and finite"),
            ));
        }
        Ok(Self {
            envelope_w,
            jobs: BTreeMap::new(),
        })
    }

    /// The machine envelope, W.
    pub fn envelope_w(&self) -> f64 {
        self.envelope_w
    }

    /// Watts committed to running jobs: Σ over jobs of the arbiter's
    /// budget.
    pub fn committed_w(&self) -> f64 {
        self.jobs.values().map(|a| a.budget()).sum()
    }

    /// Watts actually granted to leaves right now: Σ over jobs of
    /// Σ(grants). Always ≤ [`Self::committed_w`], which is ≤ the
    /// envelope.
    pub fn granted_w(&self) -> f64 {
        self.jobs
            .values()
            .map(|a| a.grants().iter().sum::<f64>())
            .sum()
    }

    /// Envelope headroom not committed to any job, W.
    pub fn headroom_w(&self) -> f64 {
        self.envelope_w - self.committed_w()
    }

    /// Number of running jobs.
    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// Admit a job: hand its intra-job arbiter to the partition. Fails —
    /// with the partition untouched — when the id is already running or
    /// the arbiter's budget does not fit the remaining headroom; fitting
    /// is exactly what the scheduler's admission test must have
    /// established, so a refusal here surfaces a predictor/controller
    /// disagreement instead of silently over-subscribing the breaker.
    pub fn admit(&mut self, job: u32, arbiter: Box<dyn BudgetArbiter>) -> Result<(), ConfigError> {
        if self.jobs.contains_key(&job) {
            return Err(ConfigError::new(
                "MachinePartition.admit",
                format!("job {job} is already running"),
            ));
        }
        let budget = arbiter.budget();
        let committed = self.committed_w();
        if committed + budget > self.envelope_w + EPS_W {
            return Err(ConfigError::new(
                "MachinePartition.admit",
                format!(
                    "job {job} needs {budget} W but only {} W of the {} W envelope is free",
                    self.envelope_w - committed,
                    self.envelope_w
                ),
            ));
        }
        self.jobs.insert(job, arbiter);
        self.assert_envelope();
        Ok(())
    }

    /// Release a finished job, returning its arbiter (for trace
    /// inspection); `None` if the id is not running.
    pub fn release(&mut self, job: u32) -> Option<Box<dyn BudgetArbiter>> {
        let out = self.jobs.remove(&job);
        self.assert_envelope();
        out
    }

    /// One intra-job redistribution tick for `job` from its latest
    /// telemetry, re-asserting the machine invariant afterwards.
    ///
    /// # Errors
    /// [`TelemetryError::Arity`] with `expected = 0` when the job is not
    /// running (an id the partition cannot grant to), or whatever the
    /// job's arbiter rejects about the reports.
    pub fn redistribute(
        &mut self,
        job: u32,
        reports: &[Option<NodeTelemetry>],
    ) -> Result<&[f64], TelemetryError> {
        let Some(arb) = self.jobs.get_mut(&job) else {
            return Err(TelemetryError::Arity {
                expected: 0,
                got: reports.len(),
            });
        };
        arb.redistribute(reports)?;
        self.assert_envelope();
        Ok(self.jobs.get(&job).expect("present above").grants())
    }

    /// The machine-level conservation invariant, checked after every
    /// mutation: Σ(job budgets) ≤ envelope and Σ(all leaf grants) ≤
    /// envelope.
    ///
    /// # Panics
    /// Panics on a violation — arbiters already maintain Σ(grants) ≤
    /// budget internally, so breaking this is a bug, not an operating
    /// condition.
    pub fn assert_envelope(&self) {
        let committed = self.committed_w();
        assert!(
            committed <= self.envelope_w + EPS_W,
            "committed {} W exceeds the {} W envelope",
            committed,
            self.envelope_w
        );
        let granted = self.granted_w();
        assert!(
            granted <= self.envelope_w + EPS_W,
            "granted {} W exceeds the {} W envelope",
            granted,
            self.envelope_w
        );
    }
}

impl std::fmt::Debug for MachinePartition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MachinePartition")
            .field("envelope_w", &self.envelope_w)
            .field("jobs", &self.jobs.keys().collect::<Vec<_>>())
            .field("committed_w", &self.committed_w())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter::{ArbiterConfig, Policy, PowerArbiter};

    fn job_arbiter(budget_w: f64, nodes: usize) -> Box<dyn BudgetArbiter> {
        Box::new(PowerArbiter::new(
            ArbiterConfig {
                budget_w,
                min_cap_w: 40.0,
                max_cap_w: 130.0,
                policy: Policy::ProgressFeedback { gain: 1.0 },
            },
            nodes,
        ))
    }

    fn report(compute_s: f64) -> Option<NodeTelemetry> {
        Some(NodeTelemetry::compute_only(
            compute_s,
            1.0 / compute_s,
            80.0,
        ))
    }

    #[test]
    fn admission_is_bounded_by_the_envelope() {
        let mut p = MachinePartition::new(1000.0).unwrap();
        p.admit(1, job_arbiter(400.0, 4)).unwrap();
        p.admit(2, job_arbiter(500.0, 4)).unwrap();
        assert_eq!(p.job_count(), 2);
        assert!((p.headroom_w() - 100.0).abs() < 1e-9);
        // A third job over the headroom is refused, partition untouched.
        let e = p.admit(3, job_arbiter(200.0, 2)).unwrap_err();
        assert!(e.why.contains("100 W"), "{e}");
        assert_eq!(p.job_count(), 2);
        // Exactly fitting is fine.
        p.admit(3, job_arbiter(100.0, 2)).unwrap();
        assert!(p.headroom_w().abs() < 1e-9);
    }

    #[test]
    fn duplicate_ids_are_refused() {
        let mut p = MachinePartition::new(1000.0).unwrap();
        p.admit(7, job_arbiter(100.0, 2)).unwrap();
        assert!(p.admit(7, job_arbiter(100.0, 2)).is_err());
    }

    #[test]
    fn release_frees_headroom_for_the_next_tenant() {
        let mut p = MachinePartition::new(500.0).unwrap();
        p.admit(1, job_arbiter(300.0, 3)).unwrap();
        p.admit(2, job_arbiter(200.0, 2)).unwrap();
        assert!(p.admit(3, job_arbiter(250.0, 2)).is_err());
        let done = p.release(1).expect("job 1 was running");
        assert_eq!(done.node_count(), 3);
        p.admit(3, job_arbiter(250.0, 2)).unwrap();
        assert!(p.release(99).is_none(), "unknown id is a no-op");
    }

    #[test]
    fn redistribution_respects_the_envelope_every_tick() {
        let mut p = MachinePartition::new(700.0).unwrap();
        p.admit(1, job_arbiter(400.0, 4)).unwrap();
        p.admit(2, job_arbiter(300.0, 3)).unwrap();
        let mut g = Vec::new();
        for _ in 0..5 {
            g = p
                .redistribute(1, &[report(1.0), report(2.0), report(1.5), report(0.5)])
                .unwrap()
                .to_vec();
            p.redistribute(2, &[report(0.8), report(1.0), report(2.2)])
                .unwrap();
            assert!(p.granted_w() <= p.envelope_w() + 1e-6);
            assert!(p.headroom_w() >= -1e-6);
        }
        // Grants moved within each job (the intra-job feedback works
        // through the partition).
        assert!(g[1] > g[3], "critical node funded: {g:?}");
    }

    #[test]
    fn redistribute_unknown_job_is_a_recoverable_error() {
        let mut p = MachinePartition::new(700.0).unwrap();
        let e = p.redistribute(9, &[report(1.0)]).unwrap_err();
        assert!(matches!(e, TelemetryError::Arity { expected: 0, .. }));
    }

    #[test]
    fn invalid_envelope_is_rejected() {
        assert!(MachinePartition::new(0.0).is_err());
        assert!(MachinePartition::new(f64::NAN).is_err());
        assert!(MachinePartition::new(-10.0).is_err());
    }
}
