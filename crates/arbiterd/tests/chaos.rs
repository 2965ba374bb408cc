//! Chaos acceptance tests for the arbiter daemon.
//!
//! These are the PR's contract, executed: under seeded transport faults
//! plus a mid-run `kill -9`/restore, the load generator completes with
//! zero panics or deadlocks, Σ grants ≤ budget at every observed tick,
//! disconnected members degrade to hold-last-grant, and post-recovery
//! grants match an uncrashed reference run — while the fault-free
//! daemon path stays grant-for-grant *bit-identical* to the in-process
//! [`cluster::BudgetArbiter`].

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use arbiterd::loadgen::{run_loadgen, synth_telemetry, FaultKnobs, LoadgenConfig};
use arbiterd::{ArbiterService, Msg, ServiceConfig, Snapshot};
use cluster::{ArbiterConfig, NodeTelemetry, Policy, PowerArbiter};
use proptest::prelude::*;

/// A collision-free scratch path per call (the proptest cases all run in
/// one process, so the pid alone is not enough).
fn scratch(tag: &str) -> PathBuf {
    static NTH: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "arbiterd-chaos-{}-{}-{}.snap",
        std::process::id(),
        tag,
        NTH.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Remove both snapshot slot files under `path`: `<path>` and
/// `<path>.1`.
fn remove_slots(path: impl AsRef<Path>) {
    let path = path.as_ref();
    std::fs::remove_file(path).ok();
    std::fs::remove_file(format!("{}.1", path.display())).ok();
}

fn bare_arbiter(n: usize) -> PowerArbiter {
    PowerArbiter::new(
        ArbiterConfig {
            budget_w: 100.0 * n as f64,
            min_cap_w: 40.0,
            max_cap_w: 130.0,
            policy: Policy::ProgressFeedback { gain: 1.0 },
        },
        n,
    )
}

/// The determinism half of the contract: with clean wires the daemon is
/// a transparent shell — every grant it streams out is bit-identical to
/// what the in-process arbiter computes from the same telemetry.
#[test]
fn fault_free_daemon_is_bit_identical_to_the_bare_arbiter() {
    let cfg = LoadgenConfig {
        clients: 8,
        ticks: 25,
        seed: 42,
        service: ServiceConfig {
            snapshot_every: 0,
            ..ServiceConfig::default()
        },
        ..LoadgenConfig::default()
    };
    let run = run_loadgen(&cfg);
    assert!(run.invariant_ok);
    assert_eq!(run.reconnects, 0);
    assert_eq!(run.hold_violations, 0);

    let mut bare = bare_arbiter(cfg.clients);
    for seq in 1..=cfg.ticks {
        let reports: Vec<Option<NodeTelemetry>> = (0..cfg.clients)
            .map(|i| Some(synth_telemetry(cfg.seed, i as u32, seq)))
            .collect();
        let grants = bare.redistribute(&reports).unwrap().to_vec();
        for (node, log) in run.grant_log.iter().enumerate() {
            assert_eq!(
                log.get(&seq),
                Some(&grants[node].to_bits()),
                "node {node} seq {seq}: daemon grant must be bit-identical"
            );
        }
    }
}

/// The recovery half: kill the daemon mid-run, restore from the
/// write-ahead snapshot, and every grant the recovered daemon issues —
/// by telemetry seq — matches the run that never crashed, bit for bit.
#[test]
fn crash_recovery_matches_the_uncrashed_reference_bitwise() {
    let base = LoadgenConfig {
        clients: 6,
        ticks: 40,
        seed: 7,
        service: ServiceConfig {
            // Long leases: expiry during the short outage would
            // (correctly) reclaim watts and diverge from the reference;
            // lease expiry has its own tests.
            lease_ticks: 64,
            snapshot_every: 1,
            ..ServiceConfig::default()
        },
        backoff_cap: 4,
        lockstep_backoff: true,
        ..LoadgenConfig::default()
    };
    let reference = run_loadgen(&base.clone());

    let path = scratch("recovery");
    let crashed = run_loadgen(&LoadgenConfig {
        crash_at: Some(15),
        snapshot_path: Some(path.clone()),
        ..base
    });
    remove_slots(&path);

    assert!(
        crashed.invariant_ok,
        "Σ ≤ budget through crash and recovery"
    );
    assert_eq!(crashed.hold_violations, 0, "grants hold while disconnected");
    assert_eq!(crashed.reconnects, 6, "every client redials exactly once");
    let recovery = crashed.recovery_ticks.expect("recovery must complete");
    assert!(
        recovery <= 8,
        "recovery should be quick, took {recovery} ticks"
    );

    // Grant-for-grant: everything the crashed run issued, the reference
    // issued identically. (The crashed run grants fewer seqs — seqs
    // pause during the outage — but never *different* ones.)
    for (node, log) in crashed.grant_log.iter().enumerate() {
        assert!(!log.is_empty());
        for (seq, bits) in log {
            assert_eq!(
                reference.grant_log[node].get(seq),
                Some(bits),
                "node {node} seq {seq}: recovered grant diverged from reference"
            );
        }
    }
    // And recovery made real progress past the crash point.
    assert!(
        crashed.min_granted_seq() > 25,
        "post-recovery rounds must flow: min granted seq {}",
        crashed.min_granted_seq()
    );
}

/// The robustness half: hostile wires (drops, dups, delays, a long
/// partition) *plus* a mid-run crash. No panics, no invariant breach,
/// hold-last-grant everywhere, leases reclaim the partitioned clients'
/// watts, and the cluster still fully recovers.
#[test]
fn hostile_wires_plus_crash_keep_every_invariant() {
    let path = scratch("hostile");
    let run = run_loadgen(&LoadgenConfig {
        clients: 28,
        ticks: 90,
        seed: 11,
        faults: Some(FaultKnobs {
            // A partition long enough (in polls ≈ ticks) to outlive the
            // default 8-tick lease on every 5th client.
            partition: Some((10, 40, 5)),
            ..FaultKnobs::hostile()
        }),
        crash_at: Some(45),
        snapshot_path: Some(path.clone()),
        ..LoadgenConfig::default()
    });
    remove_slots(&path);

    assert!(run.invariant_ok, "Σ ≤ budget under faults + crash");
    assert_eq!(run.hold_violations, 0);
    assert!(run.max_sum_grants_w <= run.budget_w + 1e-6);
    assert!(
        run.service.leases_expired > 0,
        "partitioned clients must lose their leases: {:?}",
        run.service
    );
    assert!(
        run.reconnects >= run.clients as u64,
        "every client redials after the crash: {}",
        run.reconnects
    );
    assert!(
        run.recovery_ticks.is_some(),
        "the cluster must fully recover despite lossy wires"
    );
    // The wires were genuinely hostile and the service genuinely busy.
    assert!(run.service.duplicates > 0, "{:?}", run.service);
    assert!(run.service.rounds > 50, "{:?}", run.service);
}

/// Batched framing under fire: multiplexed producers send one
/// [`Msg::Batch`] per group per tick through hostile wires, so the
/// fault plan drops and duplicates *whole batches* at once — and a
/// mid-run crash lands on top. Every invariant must still hold, and
/// duplicate batches must be absorbed by per-member seq dedup.
#[test]
fn hostile_wires_drop_whole_batches_and_nothing_breaks() {
    let path = scratch("batch-hostile");
    let run = run_loadgen(&LoadgenConfig {
        clients: 24,
        batch: 6,
        ticks: 80,
        seed: 13,
        faults: Some(FaultKnobs {
            drop_prob: 0.08,
            dup_prob: 0.05,
            delay_prob: 0.10,
            max_delay_polls: 3,
            partition: Some((10, 40, 2)),
        }),
        crash_at: Some(45),
        snapshot_path: Some(path.clone()),
        ..LoadgenConfig::default()
    });
    remove_slots(&path);

    assert!(run.invariant_ok, "Σ ≤ budget under batch faults + crash");
    assert!(run.max_sum_grants_w <= run.budget_w + 1e-6);
    assert!(
        run.service.duplicates > 0,
        "duplicated batches must be deduped member-by-member: {:?}",
        run.service
    );
    assert!(
        run.service.leases_expired > 0,
        "partitioned groups lose whole leases at once: {:?}",
        run.service
    );
    assert!(
        run.recovery_ticks.is_some(),
        "the batched cluster must still fully recover"
    );
    assert!(run.min_granted_seq() > 0, "everyone got granted eventually");
}

/// Sharded recovery: kill exactly one of two daemons mid-run while its
/// peer keeps serving, restore it from its own snapshot. Before the
/// crash the run is bit-identical to a never-crashed sharded reference.
/// After it, grants may legitimately diverge — the crashed span's seqs
/// pause, so the next outer re-split sees different telemetry windows —
/// but the crashed run must stay fully deterministic, conserve the
/// machine budget at every tick, and recover completely.
#[test]
fn single_shard_crash_recovers_while_peers_keep_serving() {
    let crash_at = 15u64;
    let base = LoadgenConfig {
        clients: 12,
        shards: 2,
        outer_period: 4,
        ticks: 40,
        seed: 7,
        service: ServiceConfig {
            lease_ticks: 64,
            snapshot_every: 1,
            ..ServiceConfig::default()
        },
        backoff_cap: 4,
        lockstep_backoff: true,
        ..LoadgenConfig::default()
    };
    let ref_path = scratch("shard-ref");
    let reference = run_loadgen(&LoadgenConfig {
        snapshot_path: Some(ref_path.clone()),
        ..base.clone()
    });
    let crash_cfg = LoadgenConfig {
        crash_at: Some(crash_at),
        crash_shard: 1,
        snapshot_path: Some(scratch("shard-crash")),
        ..base
    };
    let crashed = run_loadgen(&crash_cfg);
    let replay = run_loadgen(&crash_cfg);
    for p in [&ref_path, crash_cfg.snapshot_path.as_ref().unwrap()] {
        for i in 0..2 {
            remove_slots(format!("{}.s{i}", p.display()));
        }
    }

    assert!(
        crashed.invariant_ok,
        "machine-wide Σ ≤ budget through the crash"
    );
    assert_eq!(crashed.hold_violations, 0);
    assert_eq!(
        crashed.reconnects, 6,
        "only the crashed shard's six clients redial"
    );
    assert!(crashed.recovery_ticks.is_some(), "shard 1 must recover");
    assert!(
        crashed.min_granted_seq() > 25,
        "post-recovery rounds must flow on both shards: min granted seq {}",
        crashed.min_granted_seq()
    );
    // Pre-crash prefix: bit-identical to the uncrashed reference on
    // every node of every shard.
    for (node, log) in crashed.grant_log.iter().enumerate() {
        for (seq, bits) in log.range(..crash_at) {
            assert_eq!(
                reference.grant_log[node].get(seq),
                Some(bits),
                "node {node} seq {seq}: pre-crash grants must match the reference"
            );
        }
    }
    // And the whole chaotic run — outage, redials, restore — replays
    // bit-for-bit from the same seed.
    assert_eq!(crashed.grant_log, replay.grant_log);
    assert_eq!(crashed.sum_fingerprint, replay.sum_fingerprint);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Snapshot serialization is bitwise-lossless for *any* f64 payload
    /// — including NaNs, infinities, and subnormals a policy bug might
    /// produce — and any lease table shape.
    #[test]
    fn snapshot_bytes_round_trip_bitwise(
        tick in any::<u64>(),
        budget_bits in any::<u64>(),
        cells in prop::collection::vec((any::<u64>(), any::<bool>(), 0u64..10_000), 1..48),
    ) {
        let snap = Snapshot {
            tick,
            budget_w: f64::from_bits(budget_bits),
            grants_w: cells.iter().map(|(b, _, _)| f64::from_bits(*b)).collect(),
            leases: cells.iter().map(|(_, live, at)| live.then_some(*at)).collect(),
            window: Some((
                [
                    f64::from_bits(budget_bits.rotate_left(7)),
                    f64::from_bits(budget_bits.rotate_left(13)),
                    f64::NAN,
                    f64::NEG_INFINITY,
                    5e-324,
                ],
                tick.wrapping_mul(3),
            )),
        };
        let back = Snapshot::from_bytes(&snap.to_bytes()).unwrap();
        prop_assert_eq!(back.tick, snap.tick);
        prop_assert_eq!(back.budget_w.to_bits(), snap.budget_w.to_bits());
        prop_assert_eq!(back.grants_w.len(), snap.grants_w.len());
        for (a, b) in back.grants_w.iter().zip(&snap.grants_w) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        prop_assert_eq!(back.leases, snap.leases);
        let (back_w, back_n) = back.window.expect("window must survive");
        let (snap_w, snap_n) = snap.window.unwrap();
        for (a, b) in back_w.iter().zip(&snap_w) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        prop_assert_eq!(back_n, snap_n);
    }

    /// Any truncation of a valid snapshot is rejected, never trusted —
    /// a torn write at the worst possible byte reads as "no snapshot".
    #[test]
    fn truncated_snapshots_are_rejected(
        cut_frac in 0.0f64..1.0,
        grants in prop::collection::vec(20.0f64..150.0, 1..16),
    ) {
        let n = grants.len();
        let snap = Snapshot {
            tick: 9,
            budget_w: 100.0 * n as f64,
            grants_w: grants,
            leases: vec![None; n],
            window: Some(([1.0, 2.0, 3.0, 4.0, 5.0], 9)),
        };
        let bytes = snap.to_bytes();
        let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
        prop_assert_eq!(Snapshot::from_bytes(&bytes[..cut]), None);
    }

    /// Crash/restore is grant-for-grant exact under arbitrary load
    /// shapes: run some rounds, kill the service, restore a fresh one
    /// from disk, and both the restored grants *and the next round's
    /// grants* are bit-identical to a service that never died.
    #[test]
    fn service_recovery_is_grant_for_grant_exact(
        times in prop::collection::vec(0.2f64..4.0, 2..9),
        rounds in 1u64..6,
    ) {
        let n = times.len();
        let cfg = ServiceConfig::default();
        let path = scratch("prop");

        let mut svc = ArbiterService::new(Box::new(bare_arbiter(n)), cfg.clone())
            .with_snapshot_path(path.clone());
        let mut witness = ArbiterService::new(Box::new(bare_arbiter(n)), cfg.clone());
        for round in 1..=rounds {
            for (i, t) in times.iter().enumerate() {
                let msg = Msg::Telemetry {
                    node: i as u32,
                    seq: round,
                    report: NodeTelemetry::compute_only(*t, 1.0 / t, 90.0),
                };
                svc.ingest(msg.clone());
                witness.ingest(msg);
            }
            svc.tick();
            witness.tick();
        }
        drop(svc); // kill -9: no shutdown path runs

        let mut revived = ArbiterService::new(Box::new(bare_arbiter(n)), cfg)
            .with_snapshot_path(path.clone());
        prop_assert!(revived.restore());
        for (a, b) in revived.grants().iter().zip(witness.grants()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        // One more round on both: recovery preserved the feedback state,
        // not just the surface numbers.
        for (i, t) in times.iter().enumerate() {
            let msg = Msg::Telemetry {
                node: i as u32,
                seq: rounds + 1,
                report: NodeTelemetry::compute_only(t * 1.5, 1.0 / (t * 1.5), 85.0),
            };
            revived.ingest(msg.clone());
            witness.ingest(msg);
        }
        revived.tick();
        witness.tick();
        for (a, b) in revived.grants().iter().zip(witness.grants()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        remove_slots(&path);
    }

    /// Whatever a client throws at the service — unknown nodes, replayed
    /// seqs, out-of-range power readings — the budget invariant holds
    /// and the service keeps answering.
    #[test]
    fn budget_holds_under_arbitrary_traffic(
        msgs in prop::collection::vec(
            (0u32..6, 1u64..20, 0.1f64..5.0, -50.0f64..400.0),
            0..60,
        ),
    ) {
        let mut svc = ArbiterService::new(Box::new(bare_arbiter(4)), ServiceConfig::default());
        let budget = svc.budget();
        for (k, (node, seq, compute, power)) in msgs.into_iter().enumerate() {
            svc.ingest(Msg::Telemetry {
                node,
                seq,
                report: NodeTelemetry::compute_only(compute, 1.0 / compute, power),
            });
            if k % 5 == 4 {
                svc.tick();
                let sum: f64 = svc.grants().iter().sum();
                prop_assert!(sum <= budget + 1e-6, "Σ {sum} > budget {budget}");
            }
        }
        svc.tick();
        let sum: f64 = svc.grants().iter().sum();
        prop_assert!(sum <= budget + 1e-6);
    }
}
