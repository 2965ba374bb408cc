//! Sharded event-queue stepping for the cluster driver.
//!
//! The bulk-synchronous loop moves every [`ClusterNode`] through a
//! per-member work item twice per iteration, paying a queue slot and a
//! moved value per node per pass — fine at 16 ranks, ruinous at 4096. A
//! [`Shard`] instead owns a contiguous run of ranks plus preallocated
//! telemetry buffers reused across iterations, so a parallel pass moves
//! a handful of coarse items and telemetry is written in place rather
//! than collected into fresh `Vec`s every barrier (zero-copy batching).
//!
//! Within a shard the spin phase runs as a small event queue: members
//! already at the barrier are parked outright (the wake filter), and the
//! rest are stepped earliest-next-event first ([`ClusterNode::next_event`]
//! keys the queue on the member's next daemon tick, RAPL boundary, fault
//! edge, or core wake). Members are independent between barriers, so the
//! stepping order is a scheduling detail — any order produces identical
//! bits — which is exactly what lets shards run in parallel at all.
//!
//! Sharding is therefore a scheduling choice only: results are gathered
//! in rank order and outcomes are bitwise identical for any shard count.
//! The differential suite in [`crate::sim`] pins the sharded driver to
//! the test-only bulk-synchronous reference there.

use std::ops::Range;

use simnode::time::{secs, Nanos};

use crate::arbiter::NodeTelemetry;
use crate::comm::NodePhase;
use crate::member::ClusterNode;

/// A contiguous run of cluster ranks stepped as one parallel work item,
/// with per-shard buffers reused across iterations.
pub(crate) struct Shard {
    /// Global rank of `members[0]` (ranks are contiguous in a shard).
    base: usize,
    members: Vec<ClusterNode>,
    /// This barrier's telemetry, one slot per member (reused).
    pub reports: Vec<Option<NodeTelemetry>>,
    /// Compute-phase finish times, s (reused).
    pub ready_s: Vec<f64>,
    /// NIC drain factors at compute finish (reused).
    pub drain: Vec<f64>,
    /// Compute-phase durations, s (reused).
    pub compute_s: Vec<f64>,
    /// Spin-phase event queue: (next event, local index), reused.
    queue: Vec<(Nanos, usize)>,
}

impl Shard {
    /// Split `members` (already in rank order) into at most `want`
    /// contiguous shards of near-equal size.
    pub fn partition(members: Vec<ClusterNode>, want: usize) -> Vec<Shard> {
        let n = members.len();
        let per = n.div_ceil(want.clamp(1, n.max(1)));
        let mut out = Vec::with_capacity(n.div_ceil(per.max(1)));
        let mut it = members.into_iter();
        let mut base = 0;
        while base < n {
            let chunk: Vec<ClusterNode> = it.by_ref().take(per).collect();
            let len = chunk.len();
            out.push(Shard {
                base,
                members: chunk,
                reports: vec![None; len],
                ready_s: vec![0.0; len],
                drain: vec![0.0; len],
                compute_s: vec![0.0; len],
                queue: Vec::with_capacity(len),
            });
            base += len;
        }
        out
    }

    /// The global rank range this shard owns.
    pub fn span(&self) -> Range<usize> {
        self.base..self.base + self.members.len()
    }

    pub fn members(&self) -> &[ClusterNode] {
        &self.members
    }

    pub fn members_mut(&mut self) -> &mut [ClusterNode] {
        &mut self.members
    }

    /// Compute phase: every member advances through its share of the
    /// kernel; durations, ready times, and NIC drain factors land in the
    /// reused buffers.
    pub fn compute_phase(&mut self, power_coupling: f64) {
        for (i, m) in self.members.iter_mut().enumerate() {
            self.compute_s[i] = m.compute_iteration();
            self.ready_s[i] = secs(m.now());
            self.drain[i] = m.link_drain_factor(power_coupling);
        }
    }

    /// This shard's candidate for the global barrier: the latest flow
    /// landing among its members (`Nanos::MAX`-free integer max, so the
    /// fold order across shards cannot change the result).
    pub fn barrier_candidate(&self, phases: &[NodePhase]) -> Nanos {
        self.members
            .iter()
            .zip(phases)
            .map(|(m, p)| m.now() + simnode::time::from_secs(p.done_s - p.ready_s))
            .fold(0, Nanos::max)
    }

    /// Spin + telemetry phase; `phases` is this shard's slice of the
    /// exchange outcome. Members at (or past) the barrier are parked
    /// without a single step; the rest spin forward earliest-event
    /// first, then everyone files its phase split and telemetry into the
    /// shard buffers.
    pub fn finish_phase(&mut self, barrier_at: Nanos, phases: &[NodePhase]) {
        self.queue.clear();
        for (i, m) in self.members.iter().enumerate() {
            if m.now() < barrier_at {
                self.queue.push((m.next_event(barrier_at), i));
            }
        }
        // The local index breaks ties, making the order a deterministic
        // function of member state alone.
        self.queue.sort_unstable();
        for k in 0..self.queue.len() {
            let (_, i) = self.queue[k];
            self.members[i].spin_until(barrier_at);
        }
        for (i, m) in self.members.iter_mut().enumerate() {
            m.set_phase(phases[i].comm_s, phases[i].slack_s);
            self.reports[i] = m.take_report();
        }
    }
}
