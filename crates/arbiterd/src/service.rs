//! The daemon's deterministic core: ingress policing, leases, ticks,
//! and write-ahead snapshots around a wrapped [`BudgetArbiter`].
//!
//! [`ArbiterService`] is intentionally free of threads, sockets, and
//! clocks — the TCP daemon ([`crate::daemon`]) and the in-process load
//! generator ([`crate::loadgen`]) both drive this same object, so every
//! robustness property (bounded queues, shedding, lease expiry, crash
//! recovery) is testable bit-reproducibly without touching the network.
//!
//! Robustness posture, in ingest order:
//! 1. **unknown node id, or telemetry seq 0** → NACK (a grant for it
//!    cannot exist; seq 0 is reserved for grants outside a round);
//! 2. **duplicate/stale seq** → silently ignored (the fault layer
//!    duplicates and reorders; the service must be idempotent);
//! 3. **token bucket** per client → [`Msg::Busy`] with a retry hint;
//! 4. **bounded ingress queue** → shed with [`Msg::Busy`], never an
//!    unbounded buffer;
//! 5. **malformed telemetry** → [`Msg::Nack`] via the recoverable
//!    [`cluster::TelemetryError`] path — one bad client cannot abort
//!    the daemon.
//!
//! Σ grants ≤ budget stays a *hard assert* inside the arbiter: that
//! invariant breaking is a daemon bug, not an operating condition.

use std::path::PathBuf;

use cluster::{BudgetArbiter, NodeTelemetry, RackWindow, Subtree};

use crate::proto::Msg;
use crate::snapshot::{SnapshotRef, SnapshotSlots};

/// Service tuning knobs (see EXPERIMENTS.md for the operational guide).
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Ingress queue capacity, telemetry messages. Arrivals beyond this
    /// are shed with [`Msg::Busy`].
    pub queue_depth: usize,
    /// Token-bucket burst capacity per client, messages.
    pub rate_capacity: f64,
    /// Token refill per client per tick.
    pub rate_refill: f64,
    /// Lease length, ticks: a client silent for this long is expired
    /// and its watts reclaimed.
    pub lease_ticks: u64,
    /// Snapshot every N ticks (1 = write-ahead on every tick; 0
    /// disables snapshotting).
    pub snapshot_every: u64,
    /// Back-off hint carried by [`Msg::Busy`], ticks.
    pub retry_after: u32,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            queue_depth: 4096,
            rate_capacity: 4.0,
            rate_refill: 2.0,
            lease_ticks: 8,
            snapshot_every: 1,
            retry_after: 2,
        }
    }
}

/// What the service did so far (monotone counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Telemetry shed because the ingress queue was full.
    pub shed: u64,
    /// Telemetry rejected by the per-client token bucket.
    pub rate_limited: u64,
    /// Telemetry NACKed as malformed (or for an unknown node id).
    pub nacked: u64,
    /// Duplicate/stale messages silently dropped.
    pub duplicates: u64,
    /// Leases expired (watts reclaimed).
    pub leases_expired: u64,
    /// Redistribution rounds actually run.
    pub rounds: u64,
    /// Snapshots written.
    pub snapshots: u64,
}

impl std::ops::Add for ServiceStats {
    type Output = Self;

    fn add(self, o: Self) -> Self {
        Self {
            shed: self.shed + o.shed,
            rate_limited: self.rate_limited + o.rate_limited,
            nacked: self.nacked + o.nacked,
            duplicates: self.duplicates + o.duplicates,
            leases_expired: self.leases_expired + o.leases_expired,
            rounds: self.rounds + o.rounds,
            snapshots: self.snapshots + o.snapshots,
        }
    }
}

impl std::iter::Sum for ServiceStats {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::default(), |a, b| a + b)
    }
}

/// The daemon core: one wrapped arbiter plus all the service state.
pub struct ArbiterService {
    arbiter: Box<dyn BudgetArbiter>,
    cfg: ServiceConfig,
    /// Accepted-but-unprocessed telemetry this round. Reports fold
    /// straight into `fresh` at ingest (newest seq wins, so arrival
    /// order is irrelevant); this counter only enforces the bounded-
    /// ingress contract — arrivals past `queue_depth` shed with Busy.
    queued: usize,
    /// Per-client token buckets.
    buckets: Vec<f64>,
    /// Per-client lease expiry tick (`None` = not leased).
    leases: Vec<Option<u64>>,
    /// Highest telemetry seq accepted per client (duplicate filter; 0 =
    /// none yet, since seq 0 is never accepted). A report in `fresh`
    /// was accepted last, so this is also its seq.
    last_seq: Vec<u64>,
    /// Freshest report per client in the current round, in the shape
    /// [`BudgetArbiter::redistribute_trusted`] reads, so a round passes
    /// it as it stands.
    fresh: Vec<Option<NodeTelemetry>>,
    /// How many entries of `fresh` are `Some`: counted at ingest, so a
    /// round learns whether anyone reported without a scan.
    reporting: usize,
    /// Σ of the grants as the last [`ArbiterService::finish_tick`] left
    /// them, taken in its grant loop; `None` once they change outside a
    /// round (lease reclaim, a new budget, a restore).
    grant_sum: Option<f64>,
    /// Accumulated telemetry sums since the last
    /// [`Subtree::take_window`]: the upward half of a sharded
    /// deployment, where a coordinator drains each shard's window on the
    /// outer period exactly as [`cluster::RackArbiter`] drains its
    /// racks'.
    window: RackWindow,
    /// The clients whose leases lapsed this tick, reclaimed in one
    /// arbiter call (reused across ticks).
    expired: Vec<usize>,
    tick: u64,
    snapshots: Option<SnapshotSlots>,
    stats: ServiceStats,
}

impl ArbiterService {
    /// Wrap `arbiter` under `cfg`. Snapshotting is off until
    /// [`ArbiterService::with_snapshot_path`] supplies a location.
    pub fn new(arbiter: Box<dyn BudgetArbiter>, cfg: ServiceConfig) -> Self {
        let n = arbiter.node_count();
        Self {
            arbiter,
            buckets: vec![cfg.rate_capacity; n],
            leases: vec![None; n],
            last_seq: vec![0; n],
            fresh: vec![None; n],
            reporting: 0,
            grant_sum: None,
            cfg,
            queued: 0,
            window: RackWindow::default(),
            expired: Vec::new(),
            tick: 0,
            snapshots: None,
            stats: ServiceStats::default(),
        }
    }

    /// Persist state every `snapshot_every` ticks, write-ahead of grant
    /// release, into the two slot files `path` and `<path>.1` (see
    /// [`SnapshotSlots`]).
    pub fn with_snapshot_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.snapshots = Some(SnapshotSlots::new(path));
        self
    }

    /// Try to resume from the newest checksum-valid snapshot slot at the
    /// configured path. Returns `true` when it was adopted (tick counter,
    /// budget, grants — bitwise — and the lease table), and later
    /// snapshots continue in the other slot; `false` leaves the fresh
    /// state untouched, which is the cold-start path. A snapshot the
    /// arbiter refuses (see [`BudgetArbiter::restore`]) is a cold start
    /// too, never a panic.
    pub fn restore(&mut self) -> bool {
        let Some(slots) = &mut self.snapshots else {
            return false;
        };
        let Some((slot, snap)) = slots.newest() else {
            return false;
        };
        if !self.arbiter.restore(snap.budget_w, &snap.grants_w) {
            return false;
        }
        slots.adopt(slot);
        self.grant_sum = None;
        self.tick = snap.tick;
        self.leases = snap.leases;
        // Adopt the mid-epoch aggregation window (bit-exact), so a
        // restarted shard's upward sums match an uncrashed run's.
        self.window = match snap.window {
            Some((sums, count)) => RackWindow::from_parts(sums, count),
            None => RackWindow::default(),
        };
        true
    }

    /// Handle one inbound message, returning the immediate replies to
    /// send back on the same connection. Each message, and each member of
    /// a [`Msg::Batch`], gets at most one reply; a batch's replies fold
    /// into one batch when there are several. So batching is transparent
    /// to the service semantics (same state transitions, same reply
    /// contents) and costs one frame each way.
    pub fn ingest(&mut self, msg: Msg) -> Vec<Msg> {
        if !matches!(msg, Msg::Batch(_)) {
            // A lone reply gets a one-slot `Vec`, not the four slots
            // that growing an empty one reserves.
            return self.ingest_one(&msg).into_iter().collect();
        }
        let mut replies = Vec::new();
        self.ingest_into(&msg, &mut replies);
        if replies.len() > 1 {
            vec![Msg::Batch(replies)]
        } else {
            replies
        }
    }

    /// [`ArbiterService::ingest`] without the fold: append each reply to
    /// `replies` as it is made. Members are read where they lie, so a
    /// report is copied once, into the round.
    pub(crate) fn ingest_into(&mut self, msg: &Msg, replies: &mut Vec<Msg>) {
        match msg {
            // Nested batches never decode off the wire; one built in
            // process is a harness bug and is skipped.
            Msg::Batch(msgs) => replies.extend(msgs.iter().filter_map(|m| self.ingest_one(m))),
            other => replies.extend(self.ingest_one(other)),
        }
    }

    fn ingest_one(&mut self, msg: &Msg) -> Option<Msg> {
        match *msg {
            Msg::Hello { node } => {
                let Some(id) = self.known(node) else {
                    return Some(Msg::Nack { seq: 0 });
                };
                self.renew_lease(id);
                // Answer with the current grant so a reconnecting client
                // recovers its cap immediately.
                Some(Msg::Grant {
                    node,
                    seq: 0,
                    tick: self.tick,
                    watts: self.arbiter.grants()[id],
                })
            }
            Msg::Heartbeat { node } => {
                if let Some(id) = self.known(node) {
                    self.renew_lease(id);
                }
                None
            }
            Msg::Telemetry {
                node,
                seq,
                ref report,
            } => self.ingest_telemetry(node, seq, report),
            // Server-only messages arriving here mean a confused client;
            // ignore rather than die. Batches were unpacked by `ingest_into`.
            Msg::Grant { .. } | Msg::Busy { .. } | Msg::Nack { .. } | Msg::Batch(_) => None,
        }
    }

    fn ingest_telemetry(&mut self, node: u32, seq: u64, report: &NodeTelemetry) -> Option<Msg> {
        // Seq 0 is reserved for grants sent outside a telemetry round
        // (the Hello reply), so telemetry carrying it is malformed.
        let Some(id) = self.known(node).filter(|_| seq != 0) else {
            self.stats.nacked += 1;
            return Some(Msg::Nack { seq });
        };
        if seq <= self.last_seq[id] {
            self.stats.duplicates += 1;
            return None;
        }
        if self.buckets[id] < 1.0 {
            self.stats.rate_limited += 1;
            return Some(Msg::Busy {
                retry_after: self.cfg.retry_after,
            });
        }
        if self.queued >= self.cfg.queue_depth {
            self.stats.shed += 1;
            return Some(Msg::Busy {
                retry_after: self.cfg.retry_after,
            });
        }
        if report.validate(id).is_err() {
            self.stats.nacked += 1;
            return Some(Msg::Nack { seq });
        }
        self.buckets[id] -= 1.0;
        self.last_seq[id] = seq;
        self.renew_lease(id);
        self.queued += 1;
        // Fold into the round immediately: the duplicate filter above
        // lets through only seqs above every one accepted before, so the
        // newest seq always wins and arrival order is irrelevant.
        if self.fresh[id].replace(*report).is_none() {
            self.reporting += 1;
        }
        None
    }

    /// One arbitration tick: refill buckets, expire leases (reclaiming
    /// their watts), fold queued telemetry into the round, redistribute,
    /// snapshot (write-ahead), and emit the round's grants.
    ///
    /// Equivalent to [`ArbiterService::begin_tick`] +
    /// [`ArbiterService::finish_tick`]; the split exists so a sharding
    /// coordinator can drain windows and re-fit shard budgets *between*
    /// the two halves (telemetry up, sub-budget down, then redistribute
    /// under the new budget — the [`cluster::RackArbiter`] ordering).
    pub fn tick(&mut self) -> Vec<Msg> {
        self.begin_tick();
        self.finish_tick()
    }

    /// First half of a tick: advance the clock, refill buckets, expire
    /// leases, and fold queued telemetry into the round (and into the
    /// outer aggregation window). Must be followed by
    /// [`ArbiterService::finish_tick`].
    pub fn begin_tick(&mut self) {
        self.tick += 1;
        let now = self.tick;
        let (refill, capacity) = (self.cfg.rate_refill, self.cfg.rate_capacity);
        // One pass in node order. Telemetry already folded into `fresh`
        // at ingest (newest seq wins), and a report accepted this round
        // outlives its own lease's expiry.
        let nodes = self
            .buckets
            .iter_mut()
            .zip(&mut self.leases)
            .zip(&self.fresh);
        for (id, ((bucket, lease), report)) in nodes.enumerate() {
            *bucket = (*bucket + refill).min(capacity);
            // Lease expiry: the silent client's grant is dropped to the
            // floor below and the freed watts return to the pool at the
            // next redistribution. Σ ≤ budget can only improve here.
            if lease.is_some_and(|expiry| expiry <= now) {
                *lease = None;
                self.expired.push(id);
            }
            // Aggregate the round's accepted reports upward in node
            // order — the fold order RackArbiter uses over a rack span,
            // which keeps a sharded run's window sums bit-identical to
            // the in-process tree's.
            if let Some(report) = report {
                self.window.add(report);
            }
        }
        if !self.expired.is_empty() {
            self.arbiter.reclaim(&self.expired);
            self.grant_sum = None;
            self.stats.leases_expired += self.expired.len() as u64;
            self.expired.clear();
        }
        // Reset the bounded-ingress counter for the next round.
        self.queued = 0;
    }

    /// Second half of a tick: redistribute (when the round saw
    /// telemetry) from the round's reports where ingest left them,
    /// snapshot write-ahead, and emit the round's grants.
    pub fn finish_tick(&mut self) -> Vec<Msg> {
        // Redistribute only when the round saw telemetry: an idle tick
        // must not perturb grants (and bitwise-matches the in-process
        // arbiter, which is only called when reports exist).
        if self.reporting > 0 {
            // Ingest already validated every queued report, so the
            // trusted path skips the redundant per-field scan (grants
            // are bit-identical either way); an error here is
            // unreachable in practice; treat it as a dropped round
            // rather than a reason to die.
            match self.arbiter.redistribute_trusted(&self.fresh) {
                Ok(_) => self.stats.rounds += 1,
                Err(_) => self.stats.nacked += 1,
            }
        }

        // Write-ahead: persist the post-round state before any grant
        // leaves the process.
        if self.cfg.snapshot_every > 0 && self.tick.is_multiple_of(self.cfg.snapshot_every) {
            self.write_snapshot();
        }

        // One pass grants every reporter, empties the round and adds up
        // the grants in node order, as `Iterator::sum` would.
        let mut replies: Vec<Msg> = Vec::with_capacity(self.reporting);
        let grants = self.arbiter.grants();
        if self.reporting > 0 {
            let mut sum = -0.0;
            for (id, (report, &watts)) in self.fresh.iter_mut().zip(grants).enumerate() {
                sum += watts;
                if report.take().is_some() {
                    replies.push(Msg::Grant {
                        node: id as u32,
                        seq: self.last_seq[id],
                        tick: self.tick,
                        watts,
                    });
                }
            }
            self.reporting = 0;
            self.grant_sum = Some(sum);
        } else if self.grant_sum.is_none() {
            self.grant_sum = Some(grants.iter().sum());
        }
        replies
    }

    fn write_snapshot(&mut self) {
        let Some(slots) = &mut self.snapshots else {
            return;
        };
        let snap = SnapshotRef {
            tick: self.tick,
            budget_w: self.arbiter.budget(),
            grants_w: self.arbiter.grants(),
            leases: &self.leases,
            window: Some((self.window.sums(), self.window.count())),
        };
        // A failed write is survivable (the previous snapshot stays);
        // recovery fidelity degrades, the service does not.
        if slots.write_ref(snap).is_ok() {
            self.stats.snapshots += 1;
        }
    }

    /// `node` as an index, if the arbiter has it: the per-client tables
    /// are as long as the arbiter's node count, which never changes.
    fn known(&self, node: u32) -> Option<usize> {
        let id = node as usize;
        (id < self.last_seq.len()).then_some(id)
    }

    fn renew_lease(&mut self, id: usize) {
        self.leases[id] = Some(self.tick + self.cfg.lease_ticks);
    }

    /// Current per-node grants, W.
    pub fn grants(&self) -> &[f64] {
        self.arbiter.grants()
    }

    /// The budget being divided, W.
    pub fn budget(&self) -> f64 {
        self.arbiter.budget()
    }

    /// The service tick counter.
    pub fn now(&self) -> u64 {
        self.tick
    }

    /// Whether `node` currently holds a live lease.
    pub fn leased(&self, node: usize) -> bool {
        self.leases.get(node).is_some_and(Option::is_some)
    }

    /// Σ of the current grants, W: the total the last tick took, while
    /// the grants are still the ones it left.
    pub fn sum_grants(&self) -> f64 {
        self.grant_sum
            .unwrap_or_else(|| self.arbiter.grants().iter().sum())
    }

    /// Service counters.
    pub fn stats(&self) -> ServiceStats {
        self.stats
    }
}

/// A shard of a sharded deployment: the coordinator's
/// [`cluster::OuterSolver::epoch`] drains the window (telemetry up) and
/// re-budgets the wrapped arbiter (sub-budget down). A same-bits budget
/// is a no-op, so re-asserting an unchanged sub-budget never perturbs
/// grants; an empty window means the whole shard is silent and its
/// sub-budget freezes, mirroring the silent-rack rule.
impl Subtree for ArbiterService {
    fn budget(&self) -> f64 {
        self.arbiter.budget()
    }

    fn set_budget(&mut self, budget_w: f64) {
        self.arbiter.set_budget(budget_w);
        self.grant_sum = None;
    }

    fn take_window(&mut self) -> Option<NodeTelemetry> {
        self.window.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{slot_paths, Snapshot};
    use cluster::{ArbiterConfig, Policy, PowerArbiter};
    use proptest::prelude::*;

    fn arbiter(n: usize) -> Box<dyn BudgetArbiter> {
        Box::new(PowerArbiter::new(
            ArbiterConfig {
                budget_w: 100.0 * n as f64,
                min_cap_w: 40.0,
                max_cap_w: 130.0,
                policy: Policy::ProgressFeedback { gain: 1.0 },
            },
            n,
        ))
    }

    fn telemetry(node: u32, seq: u64, compute_s: f64) -> Msg {
        Msg::Telemetry {
            node,
            seq,
            report: NodeTelemetry::compute_only(compute_s, 1.0 / compute_s, 90.0),
        }
    }

    fn sum(grants: &[f64]) -> f64 {
        grants.iter().sum()
    }

    #[test]
    fn a_full_round_matches_the_bare_arbiter_bitwise() {
        let mut svc = ArbiterService::new(arbiter(4), ServiceConfig::default());
        let mut bare = PowerArbiter::new(
            ArbiterConfig {
                budget_w: 400.0,
                min_cap_w: 40.0,
                max_cap_w: 130.0,
                policy: Policy::ProgressFeedback { gain: 1.0 },
            },
            4,
        );
        let times = [0.5, 1.0, 1.5, 2.5];
        for (i, t) in times.iter().enumerate() {
            assert!(svc.ingest(telemetry(i as u32, 1, *t)).is_empty());
        }
        let replies = svc.tick();
        assert_eq!(replies.len(), 4);
        let reports: Vec<Option<NodeTelemetry>> = times
            .iter()
            .map(|t| Some(NodeTelemetry::compute_only(*t, 1.0 / t, 90.0)))
            .collect();
        let expect = bare.redistribute(&reports).unwrap();
        for r in &replies {
            let Msg::Grant { node, watts, .. } = r else {
                panic!("expected a grant, got {r:?}");
            };
            assert_eq!(
                watts.to_bits(),
                expect[*node as usize].to_bits(),
                "daemon grants must be bit-identical to the bare arbiter"
            );
        }
    }

    #[test]
    fn queue_overflow_sheds_with_retry_hint() {
        let cfg = ServiceConfig {
            queue_depth: 2,
            rate_capacity: 100.0,
            rate_refill: 100.0,
            ..ServiceConfig::default()
        };
        let mut svc = ArbiterService::new(arbiter(8), cfg);
        assert!(svc.ingest(telemetry(0, 1, 1.0)).is_empty());
        assert!(svc.ingest(telemetry(1, 1, 1.0)).is_empty());
        let reply = svc.ingest(telemetry(2, 1, 1.0));
        assert_eq!(reply, vec![Msg::Busy { retry_after: 2 }]);
        assert_eq!(svc.stats().shed, 1);
        // The shed round still redistributes what fit.
        let replies = svc.tick();
        assert_eq!(replies.len(), 2);
    }

    #[test]
    fn token_bucket_limits_a_chatty_client() {
        let cfg = ServiceConfig {
            rate_capacity: 2.0,
            rate_refill: 1.0,
            ..ServiceConfig::default()
        };
        let mut svc = ArbiterService::new(arbiter(2), cfg);
        assert!(svc.ingest(telemetry(0, 1, 1.0)).is_empty());
        assert!(svc.ingest(telemetry(0, 2, 1.0)).is_empty());
        let reply = svc.ingest(telemetry(0, 3, 1.0));
        assert_eq!(reply, vec![Msg::Busy { retry_after: 2 }]);
        assert_eq!(svc.stats().rate_limited, 1);
        // A tick refills one token; the client may speak again.
        svc.tick();
        assert!(svc.ingest(telemetry(0, 3, 1.0)).is_empty());
    }

    #[test]
    fn malformed_and_unknown_are_nacked_without_dying() {
        let mut svc = ArbiterService::new(arbiter(2), ServiceConfig::default());
        let bad = Msg::Telemetry {
            node: 0,
            seq: 1,
            report: NodeTelemetry::compute_only(1.0, 1.0, f64::NAN),
        };
        assert_eq!(svc.ingest(bad), vec![Msg::Nack { seq: 1 }]);
        assert_eq!(
            svc.ingest(telemetry(99, 5, 1.0)),
            vec![Msg::Nack { seq: 5 }]
        );
        assert_eq!(svc.stats().nacked, 2);
        // Healthy traffic still flows.
        assert!(svc.ingest(telemetry(0, 2, 1.0)).is_empty());
        assert!(svc.ingest(telemetry(1, 1, 1.0)).is_empty());
        assert_eq!(svc.tick().len(), 2);
    }

    #[test]
    fn duplicates_are_idempotent() {
        let mut svc = ArbiterService::new(arbiter(2), ServiceConfig::default());
        assert!(svc.ingest(telemetry(0, 1, 1.0)).is_empty());
        assert!(svc.ingest(telemetry(0, 1, 1.0)).is_empty(), "dup ignored");
        assert_eq!(svc.stats().duplicates, 1);
        assert!(svc.ingest(telemetry(1, 1, 2.0)).is_empty());
        let replies = svc.tick();
        assert_eq!(replies.len(), 2);
    }

    #[test]
    fn seq_zero_telemetry_is_nacked_not_accepted() {
        // Seq 0 is what a grant outside a telemetry round carries, so as
        // telemetry it is malformed: repeats of it spend no token, no
        // queue slot, renew no lease and draw no `Grant { seq: 0 }`.
        let mut svc = ArbiterService::new(arbiter(2), ServiceConfig::default());
        for _ in 0..3 {
            assert_eq!(svc.ingest(telemetry(0, 0, 1.0)), vec![Msg::Nack { seq: 0 }]);
        }
        assert!(!svc.leased(0), "a nacked report renews no lease");
        assert!(svc.ingest(telemetry(0, 1, 1.0)).is_empty());
        assert!(svc.ingest(telemetry(0, 1, 1.0)).is_empty(), "dup ignored");
        assert_eq!(svc.stats().nacked, 3);
        assert_eq!(svc.stats().duplicates, 1);
        let replies = svc.tick();
        assert!(
            matches!(
                replies[..],
                [Msg::Grant {
                    node: 0,
                    seq: 1,
                    ..
                }]
            ),
            "{replies:?}"
        );
    }

    #[test]
    fn lease_expiry_freezes_then_reclaims_the_silent_client() {
        let cfg = ServiceConfig {
            lease_ticks: 3,
            ..ServiceConfig::default()
        };
        let mut svc = ArbiterService::new(arbiter(3), cfg);
        let budget = svc.budget();
        // Round 1: everyone reports; node 2 is the critical path.
        for (i, t) in [0.5, 1.0, 2.5].iter().enumerate() {
            svc.ingest(telemetry(i as u32, 1, *t));
        }
        svc.tick();
        let boosted = svc.grants()[2];
        assert!(boosted > 100.0, "critical node funded: {boosted}");

        // Node 2 goes silent. While the lease lives, its grant freezes
        // bitwise (the PR-5 silent semantics).
        svc.ingest(telemetry(0, 2, 0.5));
        svc.ingest(telemetry(1, 2, 1.0));
        svc.tick();
        assert_eq!(svc.grants()[2].to_bits(), boosted.to_bits());
        assert!(svc.leased(2));

        // Lease expires: watts reclaimed to the floor, Σ ≤ budget holds.
        svc.ingest(telemetry(0, 3, 0.5));
        svc.ingest(telemetry(1, 3, 1.0));
        svc.tick();
        assert!(!svc.leased(2), "lease must expire");
        assert_eq!(svc.stats().leases_expired, 1);
        assert_eq!(svc.grants()[2], 40.0, "watts reclaimed to the floor");
        assert!(sum(svc.grants()) <= budget + 1e-6);

        // The freed watts fund the survivors at the next round.
        svc.ingest(telemetry(0, 4, 0.5));
        svc.ingest(telemetry(1, 4, 3.0));
        svc.tick();
        assert!(sum(svc.grants()) <= budget + 1e-6);
        assert!(
            svc.grants()[1] > 100.0,
            "reclaimed watts should fund the lagging survivor: {:?}",
            svc.grants()
        );
    }

    #[test]
    fn snapshot_restore_resumes_bitwise() {
        let dir = std::env::temp_dir().join(format!("arbiterd-svc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("svc.snap");

        let cfg = ServiceConfig::default();
        let mut svc = ArbiterService::new(arbiter(3), cfg.clone()).with_snapshot_path(path.clone());
        for round in 1..=3u64 {
            for (i, t) in [0.5, 1.0, 2.0].iter().enumerate() {
                svc.ingest(telemetry(i as u32, round, *t));
            }
            svc.tick();
        }
        let grants_before = svc.grants().to_vec();
        let tick_before = svc.now();
        drop(svc); // kill -9: no shutdown path runs

        let mut revived = ArbiterService::new(arbiter(3), cfg).with_snapshot_path(path.clone());
        assert!(revived.restore(), "snapshot must be adoptable");
        assert_eq!(revived.now(), tick_before);
        for (a, b) in revived.grants().iter().zip(&grants_before) {
            assert_eq!(a.to_bits(), b.to_bits(), "grants restore bitwise");
        }
        for node in 0..3 {
            assert!(revived.leased(node), "leases restore with the state");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A scratch directory per test, removed with every slot in it.
    struct Scratch(PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("arbiterd-slots-{}-{tag}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            Self(dir)
        }

        fn path(&self) -> PathBuf {
            self.0.join("svc.snap")
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.0).ok();
        }
    }

    /// What each slot file holds: `None` for a missing or invalid one.
    fn slots(path: &std::path::Path) -> [Option<Snapshot>; 2] {
        slot_paths(path).map(|p| Snapshot::from_bytes(&std::fs::read(p).ok()?))
    }

    /// A 3-node service snapshotting every `every` ticks into `path`.
    fn durable(path: &std::path::Path, every: u64) -> ArbiterService {
        let cfg = ServiceConfig {
            snapshot_every: every,
            ..ServiceConfig::default()
        };
        durable_with(path, cfg)
    }

    /// A 3-node service under `cfg` with its snapshot slots at `path`.
    fn durable_with(path: &std::path::Path, cfg: ServiceConfig) -> ArbiterService {
        ArbiterService::new(arbiter(3), cfg).with_snapshot_path(path)
    }

    /// One round of distinct reports from all three nodes.
    fn report_round(svc: &mut ArbiterService, round: u64) {
        for i in 0..3u32 {
            let t = 0.5 + f64::from(i) * 0.75 + round as f64 * 0.1;
            svc.ingest(telemetry(i, round, t));
        }
        svc.tick();
    }

    #[test]
    fn a_torn_newest_slot_restores_the_previous_tick() {
        for (name, damage) in [
            (
                "corrupt",
                (|b: &mut Vec<u8>| b[30] ^= 0x01) as fn(&mut Vec<u8>),
            ),
            ("truncated", |b: &mut Vec<u8>| b.truncate(b.len() / 2)),
        ] {
            let dir = Scratch::new(name);
            let path = dir.path();
            let mut svc = durable(&path, 1);
            let mut after = Vec::new();
            for round in 1..=3 {
                report_round(&mut svc, round);
                after.push(svc.grants().to_vec());
            }
            // Ticks 1 and 3 went to slot 0, tick 2 to slot 1.
            let [newest, _] = slot_paths(&path);
            let mut bytes = std::fs::read(&newest).unwrap();
            damage(&mut bytes);
            std::fs::write(&newest, bytes).unwrap();
            drop(svc);

            let mut revived = durable(&path, 1);
            assert!(revived.restore(), "{name}: the other slot is adoptable");
            assert_eq!(revived.now(), 2, "{name}");
            let bits = |g: &[f64]| g.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(revived.grants()), bits(&after[1]), "{name}");
            // The restored service continues in the slot it did not
            // adopt: tick 3 overwrites the damaged slot, tick 2 stays.
            report_round(&mut revived, 3);
            let ticks = slots(&path).map(|s| s.map(|s| s.tick));
            assert_eq!(ticks, [Some(3), Some(2)], "{name}");
        }
    }

    #[test]
    fn a_stale_higher_tick_slot_is_never_adopted_after_a_cold_start() {
        let dir = Scratch::new("stale");
        let path = dir.path();
        // An earlier run's slots, both far ahead of the new run.
        let stale = |tick| Snapshot {
            tick,
            budget_w: 300.0,
            grants_w: vec![100.0; 3],
            leases: vec![Some(tick + 8); 3],
            window: None,
        };
        let [first, second] = slot_paths(&path);
        std::fs::write(&first, stale(400).to_bytes()).unwrap();
        std::fs::write(&second, stale(500).to_bytes()).unwrap();

        let mut svc = durable(&path, 1);
        report_round(&mut svc, 1);
        let grants = svc.grants().to_vec();
        drop(svc); // kill -9 right after the first snapshot

        assert_eq!(
            slots(&path).map(|s| s.map(|s| s.tick)),
            [Some(1), None],
            "the cold start emptied slot 1 before writing slot 0"
        );
        let mut revived = durable(&path, 1);
        assert!(revived.restore());
        assert_eq!(revived.now(), 1, "the new run's state, not the stale one");
        for (a, b) in revived.grants().iter().zip(&grants) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn snapshots_alternate_slots_and_never_overwrite_the_newest() {
        let dir = Scratch::new("every2");
        let path = dir.path();
        let mut svc = durable(&path, 2);
        let mut before = slots(&path);
        for round in 1..=8 {
            report_round(&mut svc, round);
            let now = slots(&path);
            if round % 2 == 1 {
                assert_eq!(now, before, "tick {round} writes no snapshot");
                continue;
            }
            // Slot 0 first, then alternating: the slot holding the
            // newest state before this write is left as it was.
            let written = (round / 2 - 1) as usize % 2;
            let tick = now[written].as_ref().map(|s| s.tick);
            assert_eq!(tick, Some(round), "tick {round}");
            assert_eq!(now[1 - written], before[1 - written], "tick {round}");
            before = now;
        }
        assert_eq!(svc.stats().snapshots, 4);
    }

    /// A fresh 4-node, 400 W service (40 W floor) that restores from
    /// `snap`: whether it adopted it, and the service afterwards.
    fn restore_from(snap: &Snapshot, name: &str) -> (bool, ArbiterService) {
        let dir = std::env::temp_dir().join(format!("arbiterd-rst-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("svc.snap");
        std::fs::write(&path, snap.to_bytes()).unwrap();
        let mut svc =
            ArbiterService::new(arbiter(4), ServiceConfig::default()).with_snapshot_path(path);
        let adopted = svc.restore();
        std::fs::remove_dir_all(&dir).ok();
        (adopted, svc)
    }

    fn snapshot(budget_w: f64, grants_w: Vec<f64>) -> Snapshot {
        Snapshot {
            tick: 7,
            budget_w,
            leases: vec![Some(9); grants_w.len()],
            grants_w,
            window: None,
        }
    }

    #[test]
    fn restore_adopts_only_a_conserving_snapshot() {
        // Checksum-valid but unusable: grants over the snapshot's own
        // budget, a budget that cannot fund four 40 W floors, and a NaN
        // budget. Each is a cold start, never a panic or a half-restore.
        for (name, snap) in [
            ("over", snapshot(300.0, vec![100.0; 4])),
            ("infeasible", snapshot(100.0, vec![25.0; 4])),
            ("nan", snapshot(f64::NAN, vec![100.0; 4])),
        ] {
            let (adopted, svc) = restore_from(&snap, name);
            assert!(!adopted, "{name}: snapshot must be refused");
            assert_eq!(svc.budget().to_bits(), 400.0f64.to_bits(), "{name}");
            assert_eq!(svc.grants(), &[100.0; 4], "{name}: grants moved");
            assert_eq!(svc.now(), 0, "{name}: tick adopted");
            assert!(!svc.leased(0), "{name}: leases adopted");
        }
        // A conserving snapshot with its own budget is adopted bitwise.
        let grants = vec![95.0, f64::from_bits(0x4057_C000_0000_0001), 90.0, 100.0];
        let (adopted, svc) = restore_from(&snapshot(390.0, grants.clone()), "valid");
        assert!(adopted);
        assert_eq!(svc.budget().to_bits(), 390.0f64.to_bits());
        for (a, b) in svc.grants().iter().zip(&grants) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(svc.now(), 7);
        assert!(svc.leased(3));
    }

    #[test]
    fn batched_ingest_is_transparent() {
        // The same four reports, as singletons vs one batch: identical
        // state transitions, bit-identical grants, and the batched
        // replies are the singleton replies folded into one frame.
        let mut single = ArbiterService::new(arbiter(4), ServiceConfig::default());
        let mut batched = ArbiterService::new(arbiter(4), ServiceConfig::default());
        let times = [0.5, 1.0, 1.5, 2.5];
        let msgs: Vec<Msg> = times
            .iter()
            .enumerate()
            .map(|(i, t)| telemetry(i as u32, 1, *t))
            .collect();
        for m in &msgs {
            assert!(single.ingest(m.clone()).is_empty());
        }
        assert!(batched.ingest(Msg::Batch(msgs)).is_empty());
        let a = single.tick();
        let b = batched.tick();
        assert_eq!(a, b, "tick replies must match");
        for (ga, gb) in single.grants().iter().zip(batched.grants()) {
            assert_eq!(ga.to_bits(), gb.to_bits());
        }
        assert_eq!(single.stats(), batched.stats());

        // Replies fold into one batch when there are several (here: two
        // Hellos each answered with a grant).
        let replies = batched.ingest(Msg::Batch(vec![
            Msg::Hello { node: 0 },
            Msg::Hello { node: 1 },
        ]));
        assert_eq!(replies.len(), 1);
        let Msg::Batch(inner) = &replies[0] else {
            panic!("expected a batched reply, got {replies:?}");
        };
        assert_eq!(inner.len(), 2);
        assert!(inner.iter().all(|m| matches!(m, Msg::Grant { .. })));
    }

    #[test]
    fn window_accumulates_and_drains_like_a_rack() {
        // The service's window must equal folding the same accepted
        // reports into a bare RackWindow in node order.
        let mut svc = ArbiterService::new(arbiter(3), ServiceConfig::default());
        let mut shadow = cluster::RackWindow::default();
        for round in 1..=2u64 {
            let times = [0.5, 1.0, 2.0];
            for (i, t) in times.iter().enumerate() {
                svc.ingest(telemetry(i as u32, round, *t));
                shadow.add(&NodeTelemetry::compute_only(*t, 1.0 / t, 90.0));
            }
            svc.tick();
        }
        let got = svc.take_window().expect("window has reports");
        let want = shadow.take().expect("shadow has reports");
        for (a, b) in [
            (got.compute_s, want.compute_s),
            (got.comm_s, want.comm_s),
            (got.slack_s, want.slack_s),
            (got.rate, want.rate),
            (got.power_w, want.power_w),
        ] {
            assert_eq!(a.to_bits(), b.to_bits(), "window sums must be bitwise");
        }
        assert!(svc.take_window().is_none(), "drain empties the window");
    }

    /// The service as it staged a round before reports were kept in the
    /// arbiter's shape: a `(seq, report)` table where the newest seq
    /// wins, gathered into a fresh `Vec<Option<NodeTelemetry>>` for every
    /// redistribution. The oracle the in-place round must equal.
    struct Staged {
        arbiter: Box<dyn BudgetArbiter>,
        cfg: ServiceConfig,
        queued: usize,
        buckets: Vec<f64>,
        leases: Vec<Option<u64>>,
        last_seq: Vec<u64>,
        fresh: Vec<Option<(u64, NodeTelemetry)>>,
        window: RackWindow,
        tick: u64,
        stats: ServiceStats,
    }

    impl Staged {
        fn new(arbiter: Box<dyn BudgetArbiter>, cfg: ServiceConfig) -> Self {
            let n = arbiter.node_count();
            Self {
                arbiter,
                buckets: vec![cfg.rate_capacity; n],
                leases: vec![None; n],
                last_seq: vec![0; n],
                fresh: vec![None; n],
                cfg,
                queued: 0,
                window: RackWindow::default(),
                tick: 0,
                stats: ServiceStats::default(),
            }
        }

        fn ingest(&mut self, msg: Msg) -> Vec<Msg> {
            let Msg::Batch(msgs) = msg else {
                return self.ingest_one(msg);
            };
            let replies: Vec<Msg> = msgs.into_iter().flat_map(|m| self.ingest_one(m)).collect();
            if replies.len() > 1 {
                vec![Msg::Batch(replies)]
            } else {
                replies
            }
        }

        fn ingest_one(&mut self, msg: Msg) -> Vec<Msg> {
            let n = self.arbiter.node_count();
            match msg {
                Msg::Hello { node } if (node as usize) < n => {
                    self.leases[node as usize] = Some(self.tick + self.cfg.lease_ticks);
                    vec![Msg::Grant {
                        node,
                        seq: 0,
                        tick: self.tick,
                        watts: self.arbiter.grants()[node as usize],
                    }]
                }
                Msg::Hello { .. } => vec![Msg::Nack { seq: 0 }],
                Msg::Heartbeat { node } => {
                    if (node as usize) < n {
                        self.leases[node as usize] = Some(self.tick + self.cfg.lease_ticks);
                    }
                    Vec::new()
                }
                Msg::Telemetry { node, seq, report } => {
                    let id = node as usize;
                    if id >= n || seq == 0 {
                        self.stats.nacked += 1;
                        return vec![Msg::Nack { seq }];
                    }
                    if seq <= self.last_seq[id] && self.last_seq[id] != 0 {
                        self.stats.duplicates += 1;
                        return Vec::new();
                    }
                    let busy = vec![Msg::Busy {
                        retry_after: self.cfg.retry_after,
                    }];
                    if self.buckets[id] < 1.0 {
                        self.stats.rate_limited += 1;
                        return busy;
                    }
                    if self.queued >= self.cfg.queue_depth {
                        self.stats.shed += 1;
                        return busy;
                    }
                    if report.validate(id).is_err() {
                        self.stats.nacked += 1;
                        return vec![Msg::Nack { seq }];
                    }
                    self.buckets[id] -= 1.0;
                    self.last_seq[id] = seq;
                    self.leases[id] = Some(self.tick + self.cfg.lease_ticks);
                    self.queued += 1;
                    if self.fresh[id].as_ref().is_none_or(|(s, _)| *s < seq) {
                        self.fresh[id] = Some((seq, report));
                    }
                    Vec::new()
                }
                _ => Vec::new(),
            }
        }

        fn tick(&mut self) -> Vec<Msg> {
            self.tick += 1;
            for b in &mut self.buckets {
                *b = (*b + self.cfg.rate_refill).min(self.cfg.rate_capacity);
            }
            let expired: Vec<usize> = (0..self.leases.len())
                .filter(|&id| self.leases[id].is_some_and(|expiry| expiry <= self.tick))
                .collect();
            for &id in &expired {
                self.leases[id] = None;
            }
            self.arbiter.reclaim(&expired);
            self.stats.leases_expired += expired.len() as u64;
            self.queued = 0;
            for (_, report) in self.fresh.iter().flatten() {
                self.window.add(report);
            }
            if self.fresh.iter().any(Option::is_some) {
                let reports: Vec<Option<NodeTelemetry>> =
                    self.fresh.iter().map(|f| f.map(|(_, r)| r)).collect();
                match self.arbiter.redistribute_trusted(&reports) {
                    Ok(_) => self.stats.rounds += 1,
                    Err(_) => self.stats.nacked += 1,
                }
            }
            let grants = self.arbiter.grants();
            let replies = (self.fresh.iter().enumerate())
                .filter_map(|(id, f)| {
                    f.map(|(seq, _)| Msg::Grant {
                        node: id as u32,
                        seq,
                        tick: self.tick,
                        watts: grants[id],
                    })
                })
                .collect();
            self.fresh.fill(None);
            replies
        }
    }

    /// One client message: `(kind, node, seq, compute_s)`. Kinds 0–4 are
    /// well-formed telemetry, 5 telemetry with a NaN field, 6 a Hello and
    /// 7 a Heartbeat; nodes run one past the arbiter (unknown ids) and
    /// seqs start at 0 (NACKed), so duplicates and reordering are common.
    fn client_msg((kind, node, seq, t): (u8, u32, u64, f64)) -> Msg {
        match kind {
            0..=4 => telemetry(node, seq, t),
            5 => Msg::Telemetry {
                node,
                seq,
                report: NodeTelemetry::compute_only(t, f64::NAN, 90.0),
            },
            6 => Msg::Hello { node },
            _ => Msg::Heartbeat { node },
        }
    }

    fn window_bits(w: Option<NodeTelemetry>) -> Option<[u64; 5]> {
        w.map(|t| [t.compute_s, t.comm_s, t.slack_s, t.rate, t.power_w].map(f64::to_bits))
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// On random traffic (batches, duplicates, out-of-order and zero
        /// seqs, unknown nodes, malformed reports, Hellos, Heartbeats,
        /// rate limits, shedding and lease expiry), the in-place round
        /// gives the staged oracle's replies, grant bits, counters and
        /// window sums.
        #[test]
        fn the_in_place_round_equals_the_staged_round(
            n in 1u32..7,
            knobs in (1usize..12, 1.0f64..4.0, 0.25f64..2.0, 1u64..4),
            batch in 1usize..5,
            ticks in prop::collection::vec(
                (
                    prop::collection::vec((0u8..8, 0u32..8, 0u64..9, 0.05f64..3.0), 0..16),
                    any::<bool>(),
                ),
                1..=6,
            ),
        ) {
            let (queue_depth, rate_capacity, rate_refill, lease_ticks) = knobs;
            let cfg = ServiceConfig {
                queue_depth,
                rate_capacity,
                rate_refill,
                lease_ticks,
                ..ServiceConfig::default()
            };
            let mut svc = ArbiterService::new(arbiter(n as usize), cfg.clone());
            let mut oracle = Staged::new(arbiter(n as usize), cfg);
            let bits = |g: &[f64]| g.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
            for (msgs, drain) in ticks {
                let msgs: Vec<Msg> = msgs
                    .into_iter()
                    .map(|(k, node, seq, t)| client_msg((k, node % (n + 1), seq, t)))
                    .collect();
                for chunk in msgs.chunks(batch) {
                    let msg = match chunk {
                        [one] => one.clone(),
                        many => Msg::Batch(many.to_vec()),
                    };
                    prop_assert_eq!(svc.ingest(msg.clone()), oracle.ingest(msg));
                }
                prop_assert_eq!(svc.tick(), oracle.tick());
                prop_assert_eq!(bits(svc.grants()), bits(oracle.arbiter.grants()));
                prop_assert_eq!(svc.stats(), oracle.stats);
                if drain {
                    prop_assert_eq!(
                        window_bits(svc.take_window()),
                        window_bits(oracle.window.take())
                    );
                }
            }
        }
    }

    /// `ingest` as it was when every batch member moved through by value
    /// and each one returned a `Vec` of its own: the reference the
    /// by-reference ingest must equal.
    impl ArbiterService {
        fn ingest_by_value(&mut self, msg: Msg) -> Vec<Msg> {
            match msg {
                Msg::Batch(msgs) => {
                    let mut replies = Vec::new();
                    for m in msgs {
                        if matches!(m, Msg::Batch(_)) {
                            continue;
                        }
                        replies.extend(self.ingest_one_by_value(m));
                    }
                    if replies.len() > 1 {
                        vec![Msg::Batch(replies)]
                    } else {
                        replies
                    }
                }
                other => self.ingest_one_by_value(other),
            }
        }

        fn ingest_one_by_value(&mut self, msg: Msg) -> Vec<Msg> {
            match msg {
                Msg::Hello { node } => {
                    let Some(id) = self.known(node) else {
                        return vec![Msg::Nack { seq: 0 }];
                    };
                    self.renew_lease(id);
                    vec![Msg::Grant {
                        node,
                        seq: 0,
                        tick: self.tick,
                        watts: self.arbiter.grants()[id],
                    }]
                }
                Msg::Heartbeat { node } => {
                    if let Some(id) = self.known(node) {
                        self.renew_lease(id);
                    }
                    Vec::new()
                }
                Msg::Telemetry { node, seq, report } => {
                    let Some(id) = self.known(node).filter(|_| seq != 0) else {
                        self.stats.nacked += 1;
                        return vec![Msg::Nack { seq }];
                    };
                    if seq <= self.last_seq[id] {
                        self.stats.duplicates += 1;
                        return Vec::new();
                    }
                    let busy = vec![Msg::Busy {
                        retry_after: self.cfg.retry_after,
                    }];
                    if self.buckets[id] < 1.0 {
                        self.stats.rate_limited += 1;
                        return busy;
                    }
                    if self.queued >= self.cfg.queue_depth {
                        self.stats.shed += 1;
                        return busy;
                    }
                    if report.validate(id).is_err() {
                        self.stats.nacked += 1;
                        return vec![Msg::Nack { seq }];
                    }
                    self.buckets[id] -= 1.0;
                    self.last_seq[id] = seq;
                    self.renew_lease(id);
                    self.queued += 1;
                    if self.fresh[id].replace(report).is_none() {
                        self.reporting += 1;
                    }
                    Vec::new()
                }
                Msg::Grant { .. } | Msg::Busy { .. } | Msg::Nack { .. } | Msg::Batch(_) => {
                    Vec::new()
                }
            }
        }
    }

    /// One batch member: `(kind, node)`, `(seq, compute_s)` and `(field,
    /// odd)`. Kinds 0–3 are clean telemetry, 4 telemetry whose `field`-th
    /// field is `odd` (NaN, negative, ±∞ or -0.0, which is valid), 5 a
    /// Hello, 6 a Heartbeat, 7–9 the server-only Grant, Busy and Nack,
    /// and 10 a nested batch, which ingest skips.
    fn member(((kind, node), (seq, t), (field, odd)): ((u8, u32), (u64, f64), (usize, u8))) -> Msg {
        let odd = [f64::NAN, -1.0, f64::INFINITY, f64::NEG_INFINITY, -0.0][usize::from(odd)];
        match kind {
            0..=3 => telemetry(node, seq, t),
            4 => {
                let mut f = [t, 0.1, 0.0, 1.0 / t, 90.0];
                f[field] = odd;
                let [compute_s, comm_s, slack_s, rate, power_w] = f;
                Msg::Telemetry {
                    node,
                    seq,
                    report: NodeTelemetry {
                        compute_s,
                        comm_s,
                        slack_s,
                        rate,
                        power_w,
                    },
                }
            }
            5 => Msg::Hello { node },
            6 => Msg::Heartbeat { node },
            7 => Msg::Grant {
                node,
                seq,
                tick: seq,
                watts: t,
            },
            8 => Msg::Busy { retry_after: 1 },
            9 => Msg::Nack { seq },
            _ => Msg::Batch(vec![telemetry(node, seq, t), Msg::Hello { node }]),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// On random batches of every message kind (seq 0, duplicate and
        /// stale seqs, NaN, negative and infinite fields, nodes past the
        /// span, nested batches) under a small queue and bucket, so the
        /// Busy and shed paths fire, by-reference ingest gives the
        /// by-value reference's replies, counters and leases, and the
        /// tick after it the same grants and Σ, bit for bit.
        #[test]
        fn by_reference_ingest_equals_the_by_value_ingest(
            n in 1u32..7,
            knobs in (1usize..6, 1.0f64..3.0, 0.25f64..2.0, 1u64..4),
            batch in 1usize..6,
            ticks in prop::collection::vec(
                prop::collection::vec(
                    ((0u8..11, 0u32..9), (0u64..6, 0.05f64..3.0), (0usize..5, 0u8..5)),
                    0..24,
                ),
                1..=5,
            ),
        ) {
            let (queue_depth, rate_capacity, rate_refill, lease_ticks) = knobs;
            let cfg = ServiceConfig {
                queue_depth,
                rate_capacity,
                rate_refill,
                lease_ticks,
                ..ServiceConfig::default()
            };
            let mut svc = ArbiterService::new(arbiter(n as usize), cfg.clone());
            let mut oracle = ArbiterService::new(arbiter(n as usize), cfg);
            let bits = |g: &[f64]| g.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
            let leases = |s: &ArbiterService| {
                (0..n as usize + 2).map(|i| s.leased(i)).collect::<Vec<_>>()
            };
            for msgs in ticks {
                let msgs: Vec<Msg> = msgs
                    .into_iter()
                    .map(|((k, node), rest, odd)| member(((k, node % (n + 2)), rest, odd)))
                    .collect();
                for chunk in msgs.chunks(batch) {
                    let msg = match chunk {
                        [one] => one.clone(),
                        many => Msg::Batch(many.to_vec()),
                    };
                    prop_assert_eq!(svc.ingest(msg.clone()), oracle.ingest_by_value(msg));
                    prop_assert_eq!(svc.stats(), oracle.stats());
                    prop_assert_eq!(leases(&svc), leases(&oracle));
                }
                prop_assert_eq!(svc.tick(), oracle.tick());
                prop_assert_eq!(bits(svc.grants()), bits(oracle.grants()));
                prop_assert_eq!(svc.stats(), oracle.stats());
                prop_assert_eq!(
                    svc.sum_grants().to_bits(),
                    oracle.grants().iter().sum::<f64>().to_bits()
                );
            }
        }
    }

    #[test]
    fn sum_grants_follows_every_change_to_the_grants() {
        let dir = Scratch::new("sum");
        let cfg = ServiceConfig {
            lease_ticks: 3,
            ..ServiceConfig::default()
        };
        let mut svc = durable_with(&dir.path(), cfg.clone());
        let check = |svc: &ArbiterService, what: &str| {
            let direct: f64 = svc.grants().iter().sum();
            assert_eq!(svc.sum_grants().to_bits(), direct.to_bits(), "{what}");
        };
        check(&svc, "before any tick");
        for (i, t) in [0.5, 1.0, 2.5].iter().enumerate() {
            svc.ingest(telemetry(i as u32, 1, *t));
        }
        svc.tick();
        check(&svc, "after a round");
        // A new budget outside a round re-fits the grants.
        svc.set_budget(250.0);
        check(&svc, "after a new budget");
        svc.tick();
        check(&svc, "after an idle tick");
        // The leases lapse on the next idle tick: every grant drops to
        // the floor, and no round follows.
        svc.tick();
        assert_eq!(svc.stats().leases_expired, 3);
        check(&svc, "after the leases lapsed");
        // A service that has taken its own total (and writes no
        // snapshot) adopts those floor grants from the slot files.
        let quiet = ServiceConfig {
            snapshot_every: 0,
            ..cfg
        };
        let mut revived = durable_with(&dir.path(), quiet);
        revived.tick();
        check(&revived, "before the restore");
        assert!(revived.restore());
        assert_eq!(revived.grants(), &[40.0; 3]);
        check(&revived, "after a restore");
    }

    /// A flat arbiter that reclaims one node per call: the reference for
    /// the batched reclaim.
    struct OneByOne(PowerArbiter);

    impl BudgetArbiter for OneByOne {
        fn node_count(&self) -> usize {
            self.0.node_count()
        }

        fn redistribute(
            &mut self,
            reports: &[Option<NodeTelemetry>],
        ) -> Result<&[f64], cluster::TelemetryError> {
            self.0.redistribute(reports)
        }

        fn redistribute_trusted(
            &mut self,
            reports: &[Option<NodeTelemetry>],
        ) -> Result<&[f64], cluster::TelemetryError> {
            self.0.redistribute_trusted(reports)
        }

        fn grants(&self) -> &[f64] {
            BudgetArbiter::grants(&self.0)
        }

        fn trace(&self) -> &cluster::GrantTrace {
            BudgetArbiter::trace(&self.0)
        }

        fn budget(&self) -> f64 {
            BudgetArbiter::budget(&self.0)
        }

        fn set_budget(&mut self, budget_w: f64) {
            BudgetArbiter::set_budget(&mut self.0, budget_w)
        }

        fn reclaim(&mut self, nodes: &[usize]) -> bool {
            nodes
                .iter()
                .fold(false, |any, &node| self.0.reclaim(&[node]) | any)
        }

        fn restore(&mut self, budget_w: f64, grants: &[f64]) -> bool {
            self.0.restore(budget_w, grants)
        }
    }

    #[test]
    fn a_mass_lease_expiry_reclaims_like_one_node_at_a_time() {
        let n = 300;
        let cfg = ServiceConfig {
            lease_ticks: 3,
            ..ServiceConfig::default()
        };
        let flat = || {
            PowerArbiter::new(
                ArbiterConfig {
                    budget_w: 100.0 * n as f64,
                    min_cap_w: 40.0,
                    max_cap_w: 130.0,
                    policy: Policy::ProgressFeedback { gain: 1.0 },
                },
                n,
            )
        };
        let mut batched = ArbiterService::new(Box::new(flat()), cfg.clone());
        let mut single = ArbiterService::new(Box::new(OneByOne(flat())), cfg);
        let bits = |svc: &ArbiterService| -> Vec<u64> {
            svc.grants().iter().map(|g| g.to_bits()).collect()
        };
        for tick in 1..=8u64 {
            for svc in [&mut batched, &mut single] {
                // After the first round two clients in three fall silent,
                // so their leases lapse on one tick.
                for node in (0..n).filter(|node| tick == 1 || node % 3 == 0) {
                    let t = 0.5 + (node % 7) as f64 * 0.3;
                    svc.ingest(telemetry(node as u32, tick, t));
                }
                svc.tick();
            }
            assert_eq!(bits(&batched), bits(&single), "grants after tick {tick}");
            assert_eq!(
                batched.sum_grants().to_bits(),
                single.sum_grants().to_bits(),
                "Σ grants after tick {tick}"
            );
            assert_eq!(batched.stats(), single.stats(), "stats after tick {tick}");
        }
        assert_eq!(batched.stats().leases_expired, 200);
        assert!(batched
            .grants()
            .iter()
            .skip(1)
            .step_by(3)
            .all(|&g| g == 40.0));
    }

    #[test]
    fn idle_ticks_do_not_perturb_grants() {
        let mut svc = ArbiterService::new(arbiter(2), ServiceConfig::default());
        svc.ingest(telemetry(0, 1, 1.0));
        svc.ingest(telemetry(1, 1, 2.0));
        svc.tick();
        let grants = svc.grants().to_vec();
        for _ in 0..5 {
            assert!(svc.tick().is_empty(), "idle tick grants nothing");
        }
        assert_eq!(svc.grants(), grants.as_slice());
        assert_eq!(svc.stats().rounds, 1);
    }
}
