//! The discrete-event batch-scheduling engine.
//!
//! One simulation runs one seeded arrival trace against one machine
//! under one [`SchedPolicy`]. Time advances event to event (arrivals and
//! predicted completions, integer microseconds so the event order is
//! bit-deterministic); at every event the engine
//!
//! 1. integrates idle-node energy over the elapsed interval,
//! 2. applies the event (queue the arrival / release the completion),
//! 3. ticks every running job's intra-job [`cluster::BudgetArbiter`]
//!    through the [`cluster::MachinePartition`] with synthetic per-node
//!    telemetry — re-asserting Σ(job grants) ≤ envelope machine-wide,
//! 4. runs the power-aware EASY admission pass ([`crate::admission`]):
//!    start queue heads while they fit both free nodes and free watts,
//!    then backfill behind a two-dimensional head-of-queue reservation.
//!
//! Everything downstream — makespan, energy, bounded slowdown, Jain
//! fairness — comes out of the per-job records this loop produces.

use std::collections::{BTreeMap, BTreeSet};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use cluster::arbiter::{ArbiterConfig, NodeTelemetry, Policy, PowerArbiter};
use cluster::error::ConfigError;
use cluster::MachinePartition;

use crate::admission::{self, AdmitPlan, RunningSnapshot, EPS_W};
use crate::job::{JobId, JobSpec};
use crate::metrics::{JobRecord, ScheduleOutcome};
use crate::policy::SchedPolicy;
use crate::predictor::{PowerPredictor, PredictorConfig};
use crate::trace::TraceConfig;

/// The machine the queue is scheduled onto.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Nodes in the machine.
    pub nodes: usize,
    /// Site power envelope admission admits against, W. Sized well below
    /// `nodes × max_cap` so power — not node count — is the binding
    /// resource, which is the regime the paper studies.
    pub envelope_w: f64,
    /// Draw of an idle (unallocated) node, W — charged against the
    /// schedule's energy bill, so leaving nodes idle is not free.
    pub idle_node_w: f64,
    /// Intra-job progress-feedback gain for each job's arbiter.
    pub gain: f64,
    /// Seed for the synthetic per-node telemetry jitter (independent of
    /// the trace seed so workload and noise vary separately).
    pub telemetry_seed: u64,
}

impl Default for MachineConfig {
    /// A 64-node machine whose breaker supports ~75 W/node — roughly
    /// 58 % of the 130 W full cap, so admission is power-bound.
    fn default() -> Self {
        Self {
            nodes: 64,
            envelope_w: 4800.0,
            idle_node_w: 15.0,
            gain: 0.8,
            telemetry_seed: 101,
        }
    }
}

impl MachineConfig {
    /// Validate: positive node count and envelope, non-negative idle
    /// draw and gain.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.nodes == 0 {
            return Err(ConfigError::new(
                "MachineConfig.nodes",
                "machine needs at least one node",
            ));
        }
        if !(self.envelope_w.is_finite() && self.envelope_w > 0.0) {
            return Err(ConfigError::new(
                "MachineConfig.envelope_w",
                format!("envelope {} W must be positive and finite", self.envelope_w),
            ));
        }
        if !(self.idle_node_w.is_finite() && self.idle_node_w >= 0.0) {
            return Err(ConfigError::new(
                "MachineConfig.idle_node_w",
                format!("idle draw {} W must be non-negative", self.idle_node_w),
            ));
        }
        if !(self.gain.is_finite() && self.gain >= 0.0) {
            return Err(ConfigError::new(
                "MachineConfig.gain",
                format!("gain {} must be non-negative", self.gain),
            ));
        }
        Ok(())
    }
}

/// Everything one simulation needs: machine, workload, predictor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct SchedConfig {
    /// The machine.
    pub machine: MachineConfig,
    /// The arrival trace.
    pub trace: TraceConfig,
    /// The admission predictor.
    pub predictor: PredictorConfig,
}

impl SchedConfig {
    /// Validate each part and their compatibility: the largest possible
    /// job must fit an empty machine in both dimensions (nodes, and
    /// watts at the cap floor), else the queue can starve behind it.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.machine.validate()?;
        self.trace.validate()?;
        self.predictor.validate()?;
        if self.trace.nodes_max > self.machine.nodes {
            return Err(ConfigError::new(
                "SchedConfig.trace.nodes_max",
                format!(
                    "a {}-node job can never start on a {}-node machine",
                    self.trace.nodes_max, self.machine.nodes
                ),
            ));
        }
        let floor_w = self.trace.nodes_max as f64 * self.predictor.min_cap_w;
        if floor_w > self.machine.envelope_w + EPS_W {
            return Err(ConfigError::new(
                "SchedConfig.machine.envelope_w",
                format!(
                    "the largest job needs {} W even at the {} W cap floor, \
                     exceeding the {} W envelope",
                    floor_w, self.predictor.min_cap_w, self.machine.envelope_w
                ),
            ));
        }
        Ok(())
    }
}

/// Event kinds, ordered so a completion at time t frees its resources
/// before an arrival at the same t is considered.
const EV_COMPLETION: u8 = 0;
const EV_ARRIVAL: u8 = 1;

/// Seconds → integer microseconds (the engine's clock).
fn to_us(s: f64) -> u64 {
    (s * 1e6).round() as u64
}

/// Microseconds → seconds, for the outward-facing records.
fn to_s(us: u64) -> f64 {
    us as f64 / 1e6
}

/// One running job's engine-side state.
struct Running {
    spec: JobSpec,
    plan: AdmitPlan,
    /// Watts charged against the envelope (the arbiter budget — the
    /// plan's power, floored so the arbiter can fund every node).
    charged_w: f64,
    start_us: u64,
    end_us: u64,
    /// Per-job telemetry noise stream, seeded from the machine's
    /// telemetry seed and the job id so replays are bit-identical.
    rng: SmallRng,
}

/// Simulate `cfg`'s trace under `policy` and return the full outcome.
///
/// Deterministic: the same `(cfg, policy)` pair produces a bit-identical
/// [`ScheduleOutcome`] on every run and platform.
pub fn simulate(cfg: &SchedConfig, policy: SchedPolicy) -> Result<ScheduleOutcome, ConfigError> {
    cfg.validate()?;
    let specs = cfg.trace.generate()?;
    let predictor = PowerPredictor::new(cfg.predictor)?;
    let mut partition = MachinePartition::new(cfg.machine.envelope_w)?;

    // Event queue: (time µs, kind, job id); BTreeSet order is the event
    // order, completions before arrivals at the same instant.
    let mut events: BTreeSet<(u64, u8, JobId)> = specs
        .iter()
        .map(|s| (to_us(s.arrival_s), EV_ARRIVAL, s.id))
        .collect();
    let mut pending: Vec<JobId> = Vec::new();
    let mut running: BTreeMap<JobId, Running> = BTreeMap::new();
    let mut free_nodes = cfg.machine.nodes;
    let mut tenant_served_us: Vec<u64> = vec![0; cfg.trace.tenants];
    let mut records: Vec<JobRecord> = Vec::with_capacity(specs.len());
    let mut idle_energy_j = 0.0f64;
    let mut min_slack_w = cfg.machine.envelope_w;
    let mut last_us = 0u64;

    while let Some(&ev) = events.iter().next() {
        events.remove(&ev);
        let (now_us, kind, id) = ev;

        // Idle-node energy over the interval just elapsed.
        idle_energy_j += free_nodes as f64 * cfg.machine.idle_node_w * to_s(now_us - last_us);
        last_us = now_us;

        match kind {
            EV_COMPLETION => {
                let done = running.remove(&id).expect("completion for a running job");
                partition.release(id);
                free_nodes += done.spec.nodes;
                records.push(JobRecord {
                    id,
                    tenant: done.spec.tenant,
                    nodes: done.spec.nodes,
                    class: done.spec.class,
                    eco: done.spec.is_eco(),
                    cap_w: done.plan.cap_w,
                    power_w: done.charged_w,
                    runtime_est_s: done.spec.runtime_s,
                    // Quantized to the engine's µs clock so wait times
                    // (start − arrival) are exactly non-negative.
                    arrival_s: to_s(to_us(done.spec.arrival_s)),
                    start_s: to_s(done.start_us),
                    end_s: to_s(done.end_us),
                });
            }
            _ => pending.push(id),
        }

        // Intra-job redistribution tick: every running job's arbiter
        // chews on fresh synthetic telemetry; the partition re-asserts
        // Σ(grants) ≤ envelope after each.
        for (&jid, run) in running.iter_mut() {
            let reports: Vec<Option<NodeTelemetry>> = (0..run.spec.nodes)
                .map(|_| {
                    let jitter: f64 = run.rng.random_range(0.9..=1.1);
                    Some(NodeTelemetry::compute_only(
                        jitter,
                        1.0 / jitter,
                        run.plan.node_power_w,
                    ))
                })
                .collect();
            partition
                .redistribute(jid, &reports)
                .expect("running job accepts telemetry");
        }

        // Admission pass.
        schedule_pass(
            cfg,
            policy,
            &predictor,
            &specs,
            &mut pending,
            &mut running,
            &mut partition,
            &mut free_nodes,
            &mut tenant_served_us,
            &mut events,
            now_us,
        );

        min_slack_w = min_slack_w.min(partition.headroom_w());
    }

    assert!(pending.is_empty(), "EASY reservation must drain the queue");
    assert!(running.is_empty(), "all completions must have fired");
    records.sort_by_key(|r| r.id);
    Ok(ScheduleOutcome::from_records(
        policy,
        records,
        cfg.machine.nodes,
        cfg.trace.tenants,
        idle_energy_j,
        min_slack_w,
    ))
}

/// Order the pending queue per the policy: arrival order (job ids are
/// assigned in arrival order) for the FCFS-rooted policies, least-served
/// tenant first (arrival-stable within a tenant) for fair-share.
fn order_pending(pending: &mut [JobId], policy: SchedPolicy, specs: &[JobSpec], served: &[u64]) {
    pending.sort_by_key(|&id| {
        let spec = &specs[id as usize];
        if policy.fair_ordered() {
            (served[spec.tenant], id)
        } else {
            (0, id)
        }
    });
}

/// One admission pass at `now_us`: start queue heads while they fit,
/// then backfill behind the head's two-dimensional reservation.
#[allow(clippy::too_many_arguments)]
fn schedule_pass(
    cfg: &SchedConfig,
    policy: SchedPolicy,
    predictor: &PowerPredictor,
    specs: &[JobSpec],
    pending: &mut Vec<JobId>,
    running: &mut BTreeMap<JobId, Running>,
    partition: &mut MachinePartition,
    free_nodes: &mut usize,
    tenant_served_us: &mut [u64],
    events: &mut BTreeSet<(u64, u8, JobId)>,
    now_us: u64,
) {
    loop {
        if pending.is_empty() {
            return;
        }
        order_pending(pending, policy, specs, tenant_served_us);
        let head = pending[0];
        let spec = &specs[head as usize];
        let plan = admission::plan(spec, predictor, policy, partition.envelope_w());
        let charged_w = charged(spec, &plan, cfg);
        if spec.nodes <= *free_nodes && charged_w <= partition.headroom_w() + EPS_W {
            pending.remove(0);
            start_job(
                spec,
                plan,
                charged_w,
                cfg,
                running,
                partition,
                free_nodes,
                tenant_served_us,
                events,
                now_us,
            );
            continue; // the head changed; re-order and retry
        }

        // The head is blocked: reserve its start and backfill behind it.
        let mut snaps: Vec<RunningSnapshot> = running
            .values()
            .map(|r| RunningSnapshot {
                end_us: r.end_us,
                nodes: r.spec.nodes,
                power_w: r.charged_w,
            })
            .collect();
        snaps.sort_by_key(|s| s.end_us);
        let Some(mut resv) = admission::reserve(
            spec.nodes,
            charged_w,
            *free_nodes,
            partition.headroom_w(),
            &snaps,
        ) else {
            // Validated configs guarantee the head fits an empty machine,
            // so a missing reservation means a bookkeeping bug.
            unreachable!("job {} cannot ever fit the machine", spec.id)
        };

        let mut i = 1;
        while i < pending.len() {
            let cand = &specs[pending[i] as usize];
            let cplan = admission::plan(cand, predictor, policy, partition.envelope_w());
            let c_w = charged(cand, &cplan, cfg);
            let dur_us = to_us(cplan.duration_s);
            let fits_now = cand.nodes <= *free_nodes && c_w <= partition.headroom_w() + EPS_W;
            if fits_now && admission::may_backfill(now_us, dur_us, cand.nodes, c_w, &resv) {
                // A backfill outliving the shadow consumes the spare the
                // reservation left over.
                if now_us.saturating_add(dur_us) > resv.shadow_us {
                    resv.spare_nodes -= cand.nodes;
                    resv.spare_w -= c_w;
                }
                let id = pending.remove(i);
                let cspec = &specs[id as usize];
                start_job(
                    cspec,
                    cplan,
                    c_w,
                    cfg,
                    running,
                    partition,
                    free_nodes,
                    tenant_served_us,
                    events,
                    now_us,
                );
            } else {
                i += 1;
            }
        }
        return;
    }
}

/// Watts a job is charged against the envelope: the plan's predicted
/// draw, floored at `nodes × min_cap` so its arbiter can always fund
/// every node at the cap floor.
fn charged(spec: &JobSpec, plan: &AdmitPlan, cfg: &SchedConfig) -> f64 {
    plan.power_w
        .max(spec.nodes as f64 * cfg.predictor.min_cap_w)
}

/// Commit a job: build its intra-job arbiter, admit it into the
/// partition, consume nodes, and schedule its completion.
#[allow(clippy::too_many_arguments)]
fn start_job(
    spec: &JobSpec,
    plan: AdmitPlan,
    charged_w: f64,
    cfg: &SchedConfig,
    running: &mut BTreeMap<JobId, Running>,
    partition: &mut MachinePartition,
    free_nodes: &mut usize,
    tenant_served_us: &mut [u64],
    events: &mut BTreeSet<(u64, u8, JobId)>,
    now_us: u64,
) {
    let arbiter = PowerArbiter::new(
        ArbiterConfig {
            budget_w: charged_w,
            min_cap_w: cfg.predictor.min_cap_w,
            max_cap_w: plan.cap_w,
            policy: Policy::ProgressFeedback {
                gain: cfg.machine.gain,
            },
        },
        spec.nodes,
    );
    partition
        .admit(spec.id, Box::new(arbiter))
        .expect("admission test established fit");
    *free_nodes -= spec.nodes;
    let dur_us = to_us(plan.duration_s).max(1);
    let end_us = now_us + dur_us;
    tenant_served_us[spec.tenant] += spec.nodes as u64 * dur_us;
    events.insert((end_us, EV_COMPLETION, spec.id));
    running.insert(
        spec.id,
        Running {
            spec: *spec,
            plan,
            charged_w,
            start_us: now_us,
            end_us,
            rng: SmallRng::seed_from_u64(
                cfg.machine
                    .telemetry_seed
                    .wrapping_add((spec.id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            ),
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SchedConfig {
        SchedConfig::default()
    }

    #[test]
    fn every_job_completes_and_never_starts_before_arrival() {
        let out = simulate(&cfg(), SchedPolicy::FcfsBackfill).unwrap();
        assert_eq!(out.jobs.len(), cfg().trace.jobs);
        for j in &out.jobs {
            assert!(
                j.start_s >= j.arrival_s - 1e-9,
                "job {} time-travelled",
                j.id
            );
            assert!(j.end_s > j.start_s, "job {} has no runtime", j.id);
            assert!(j.power_w <= cfg().machine.envelope_w + 1e-6);
        }
        assert!(out.makespan_s > 0.0);
        assert!(out.utilization > 0.0 && out.utilization <= 1.0);
    }

    #[test]
    fn envelope_slack_never_goes_negative() {
        for policy in SchedPolicy::ALL {
            let out = simulate(&cfg(), policy).unwrap();
            assert!(
                out.min_envelope_slack_w >= -1e-6,
                "{}: admitted past the envelope by {} W",
                policy.name(),
                -out.min_envelope_slack_w
            );
        }
    }

    #[test]
    fn repeated_runs_are_bit_identical() {
        let a = simulate(&cfg(), SchedPolicy::EcoBackfill).unwrap();
        let b = simulate(&cfg(), SchedPolicy::EcoBackfill).unwrap();
        assert_eq!(a, b);
        // A different trace seed produces a different schedule.
        let mut alt = cfg();
        alt.trace.seed = 8;
        let c = simulate(&alt, SchedPolicy::EcoBackfill).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn eco_backfill_beats_fcfs_on_makespan_and_energy() {
        // The headline claim: honouring eco-mode slack declarations
        // shrinks admitted caps, packs more tenants under the envelope,
        // and finishes the same queue sooner on less energy.
        let fcfs = simulate(&cfg(), SchedPolicy::FcfsBackfill).unwrap();
        let eco = simulate(&cfg(), SchedPolicy::EcoBackfill).unwrap();
        assert!(
            eco.makespan_s < fcfs.makespan_s,
            "eco {} s vs fcfs {} s",
            eco.makespan_s,
            fcfs.makespan_s
        );
        assert!(
            eco.total_energy_j() < fcfs.total_energy_j(),
            "eco {} J vs fcfs {} J",
            eco.total_energy_j(),
            fcfs.total_energy_j()
        );
    }

    #[test]
    fn eco_jobs_run_below_the_full_cap_only_under_eco_policies() {
        let fcfs = simulate(&cfg(), SchedPolicy::FcfsBackfill).unwrap();
        let full_cap = cfg().predictor.max_cap_w;
        // Under FCFS the only cap reductions come from envelope
        // tightening (huge jobs), not slack declarations.
        let eco = simulate(&cfg(), SchedPolicy::EcoBackfill).unwrap();
        let shrunk = eco
            .jobs
            .iter()
            .filter(|j| j.eco && j.cap_w < full_cap - 1e-9)
            .count();
        assert!(shrunk > 0, "some eco job must run below the full cap");
        for (f, e) in fcfs.jobs.iter().zip(&eco.jobs) {
            assert_eq!(f.id, e.id);
            assert!(
                f.cap_w + 1e-9 >= e.cap_w,
                "job {}: eco policy must never raise the cap",
                f.id
            );
        }
    }

    #[test]
    fn fair_share_tracks_tenant_service() {
        let out = simulate(&cfg(), SchedPolicy::FairShare).unwrap();
        assert_eq!(out.jobs.len(), cfg().trace.jobs);
        assert!(out.jain_fairness > 0.0 && out.jain_fairness <= 1.0);
        assert!(out.min_envelope_slack_w >= -1e-6);
    }

    #[test]
    fn incompatible_configs_are_rejected() {
        let mut c = cfg();
        c.trace.nodes_max = c.machine.nodes + 1;
        assert_eq!(
            c.validate().unwrap_err().what,
            "SchedConfig.trace.nodes_max"
        );
        let mut c = cfg();
        c.machine.envelope_w = 100.0;
        assert_eq!(
            c.validate().unwrap_err().what,
            "SchedConfig.machine.envelope_w"
        );
    }
}
