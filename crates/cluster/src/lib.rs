//! Cluster-level power management over `simnode`.
//!
//! The paper studies how dynamic power capping perturbs *one* node's
//! application progress; the motivating scenario (its §I, and the Medhat
//! and Cerf lines of related work) is a *cluster*: a fixed machine-level
//! power budget that a job-level manager divides across nodes while a
//! bulk-synchronous application couples them at barriers. This crate
//! builds that layer out of the existing single-node pieces:
//!
//! - [`member::ClusterNode`] — a node + hardened NRM daemon + telemetry
//!   collector, advanced between barriers by the driver;
//! - [`grant`] — the atomic arbiter → daemon cap channel
//!   ([`grant::GrantCell`] / [`grant::GrantSchedule`]);
//! - [`arbiter::PowerArbiter`] — the global budget divider with three
//!   policies (uniform-static, demand-proportional, progress-feedback)
//!   and hard Σ ≤ budget / per-node clamp invariants, behind the
//!   [`arbiter::BudgetArbiter`] trait so arbiters compose into trees;
//! - [`hierarchy::RackArbiter`] — the two-level arbiter tree (machine →
//!   rack → node) with independent inner/outer control periods,
//!   upward-aggregated telemetry and downward-flowing sub-budgets; its
//!   rack level is one [`hierarchy::OuterSolver::epoch`] over
//!   [`hierarchy::Subtree`] children, the same epoch `arbiterd`'s shard
//!   coordinator runs;
//! - [`policy`] — the shared allocation engine (waterfill + clamps +
//!   dropout freezing): every level of the tree, node or rack, runs one
//!   `rebalance` solve through it per epoch; plus the registry-derived
//!   useful-progress weights;
//! - [`partition::MachinePartition`] — many per-job arbiters under one
//!   machine envelope (the batch scheduler's substrate), with
//!   Σ(job budgets) ≤ envelope asserted after every mutation;
//! - [`workload`] — per-rank iteration costs and the imbalanced ramp;
//! - [`comm`] / [`topology`] — the exchange-phase cost model: alpha-beta
//!   link pricing with per-link fair-share contention over a flat switch
//!   or 2-level rack tree, all-reduce and halo-exchange patterns, and a
//!   power-dependent NIC drain rate (a capped node drains its injection
//!   queue slower);
//! - [`sim::run_cluster`] — the compute-phase → exchange-phase driver
//!   producing makespan, ground-truth energy, per-phase timing
//!   (`compute_s`/`comm_s`/`slack_s`), per-iteration imbalance analysis
//!   (via [`progress::imbalance`]) and the budget-conservation trace.
//!
//! Everything is deterministic for a fixed configuration, including
//! across thread counts: members are independent simulations between
//! barriers, and the arbiter and exchange pricing are pure arithmetic
//! over ordered vectors.

pub mod arbiter;
pub mod comm;
pub mod error;
pub mod grant;
pub mod hierarchy;
pub mod member;
pub mod partition;
pub mod policy;
pub(crate) mod shard;
pub mod sim;
pub mod topology;
pub mod workload;

pub use arbiter::{
    ArbiterConfig, BudgetArbiter, GrantTick, GrantTrace, NodeTelemetry, Policy, PowerArbiter,
};
pub use comm::{exchange, CommConfig, CommPattern, ExchangeOutcome, Flow, NodePhase};
pub use error::{ClusterError, ConfigError, TelemetryError};
pub use grant::{GrantCell, GrantSchedule};
pub use hierarchy::{HierarchyConfig, OuterSolver, RackArbiter, RackWindow, Subtree};
pub use member::{ClusterNode, DEFAULT_DAEMON_PERIOD};
pub use partition::MachinePartition;
pub use policy::{progress_weight, registry_progress_weights};
pub use sim::{run_cluster, ClusterConfig, ClusterOutcome, IterationRecord, NodeSpec, Preset};
pub use topology::{LinkId, Route, Topology};
pub use workload::{ramp_weights, WorkloadShape};
