//! `arbiterd` — the power arbiter as a crash-tolerant service.
//!
//! The in-process [`cluster::BudgetArbiter`] assumes its callers never
//! crash, never flood it, and never lie. This crate drops that
//! assumption: it wraps any boxed arbiter in a long-running daemon that
//! serves telemetry → grant streams over a framed transport and
//! survives the failure modes a real facility deployment meets —
//! client crashes, telemetry floods, lossy links, and its own `kill -9`.
//!
//! The layering keeps every robustness property deterministic and
//! testable:
//!
//! - [`proto`] — the framed wire protocol. Watts travel as raw `f64`
//!   bits so the daemon path can be *bit-identical* to the in-process
//!   arbiter.
//! - [`wire`] — transports behind one [`wire::Wire`] trait: an
//!   in-process pipe for lockstep tests, non-blocking TCP for
//!   deployment, and a seeded fault wrapper (drop/duplicate/delay/
//!   partition) for chaos runs.
//! - [`service`] — the deterministic core: bounded ingress with
//!   load-shedding, per-client token buckets, heartbeat leases that
//!   reclaim a crashed client's watts, and write-ahead snapshots.
//! - [`snapshot`] — checksummed state captures written in place into
//!   two alternating slot files, so a torn write leaves the previous
//!   tick in the other; a restarted daemon adopts the newest valid slot
//!   and resumes with Σ grants ≤ budget intact and grants
//!   bitwise-unchanged.
//! - [`sharded`] — horizontal scale-out: N shards, each owning a span
//!   of producers and a rack-style sub-budget, under a coordinator
//!   that runs the in-process rack tree's own outer epoch
//!   ([`cluster::OuterSolver::epoch`], with each service a
//!   [`cluster::Subtree`]): one `rebalance` solve per epoch, the engine
//!   every node-level arbiter runs, so the machine budget splits exactly
//!   as the rack tree splits it and the same level invariants are
//!   asserted.
//! - [`daemon`] — the one TCP server: shard `i` of a
//!   [`sharded::ShardedService`] on listener `i`, blocking readers
//!   staging into per-connection inboxes, and one ticker thread that
//!   owns the service, every write half and the route table and runs
//!   the lockstep tick — so the live re-split lands on the same ticks
//!   the tests pin — with each connection's grants in one frame. A
//!   one-shard service is the unsharded daemon.
//! - [`client`] — the member side, one client per group of nodes
//!   sharing a connection: hold-last-grant degradation, jittered
//!   exponential reconnect backoff, shed-hint compliance.
//! - [`loadgen`] — a lockstep in-process load generator driving
//!   thousands of simulated producers through those clients, with
//!   seeded faults and a mid-run crash/restore, reproducible
//!   bit-for-bit, plus a concurrent TCP sibling.

pub mod client;
pub mod daemon;
pub mod loadgen;
pub mod proto;
pub mod service;
pub mod sharded;
pub mod snapshot;
pub mod wire;

pub use client::{ClientStats, GrantClient};
pub use daemon::Daemon;
pub use loadgen::{
    run_concurrent_loadgen, run_loadgen, ConcurrentConfig, ConcurrentReport, FaultKnobs,
    LoadgenConfig, LoadgenReport,
};
pub use proto::Msg;
pub use service::{ArbiterService, ServiceConfig, ServiceStats};
pub use sharded::{shard_spans, ShardedService};
pub use snapshot::Snapshot;
pub use wire::{FaultyWire, PipeWire, TcpWire, Wire, WireError, WireFaultPlan, WireFaultStats};
