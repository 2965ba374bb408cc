//! Pins the lockstep load generator bit for bit.
//!
//! The other loadgen tests compare a run with another run of the same
//! code, so a change that shifts every run alike passes them. These
//! constants were recorded once and must never be re-recorded to make a
//! refactor pass: each case pins the Σ-grant fingerprint and an FNV-1a
//! digest over the whole per-node grant log plus every client- and
//! service-side counter the report carries.

use std::path::PathBuf;

use arbiterd::loadgen::{run_loadgen, FaultKnobs, LoadgenConfig, LoadgenReport};
use arbiterd::ServiceConfig;

fn fnv(h: u64, word: u64) -> u64 {
    let mut h = h;
    for b in word.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// FNV-1a over the grant log and every counter of the report.
fn digest(r: &LoadgenReport) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for log in &r.grant_log {
        h = fnv(h, log.len() as u64);
        for (&seq, &bits) in log {
            h = fnv(h, seq);
            h = fnv(h, bits);
        }
    }
    let s = &r.service;
    for word in [
        r.telemetry_sent,
        r.reconnects,
        r.held_reports,
        r.busy_seen,
        r.recovery_ticks.map_or(u64::MAX, |t| t),
        r.hold_violations,
        r.max_sum_grants_w.to_bits(),
        s.shed,
        s.rate_limited,
        s.nacked,
        s.duplicates,
        s.leases_expired,
        s.rounds,
        s.snapshots,
    ] {
        h = fnv(h, word);
    }
    h
}

/// A fresh snapshot location per case, removed (with any per-shard
/// suffixes) once the run is done.
struct SnapDir(PathBuf);

impl SnapDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "arbiterd-loadgen-bits-{}-{tag}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }

    fn path(&self) -> PathBuf {
        self.0.join("run.snap")
    }
}

impl Drop for SnapDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn no_snapshots() -> ServiceConfig {
    ServiceConfig {
        snapshot_every: 0,
        ..ServiceConfig::default()
    }
}

fn check(r: &LoadgenReport, sum_fingerprint: u64, report_digest: u64) {
    assert!(r.invariant_ok);
    assert_eq!(
        (r.sum_fingerprint, digest(r)),
        (sum_fingerprint, report_digest),
        "pinned bits moved: telemetry_sent {} reconnects {} held {} busy {} recovery {:?} service {:?}",
        r.telemetry_sent,
        r.reconnects,
        r.held_reports,
        r.busy_seen,
        r.recovery_ticks,
        r.service
    );
}

#[test]
fn singleton_producers_on_clean_wires_are_pinned() {
    let r = run_loadgen(&LoadgenConfig {
        clients: 24,
        ticks: 30,
        seed: 11,
        service: no_snapshots(),
        ..LoadgenConfig::default()
    });
    check(&r, 4831403791444611961, 12509472167464915480);
}

#[test]
fn batched_producers_on_clean_wires_are_pinned() {
    let r = run_loadgen(&LoadgenConfig {
        clients: 30,
        batch: 8,
        ticks: 30,
        seed: 13,
        service: no_snapshots(),
        ..LoadgenConfig::default()
    });
    check(&r, 5893867894670509257, 8733053800851841314);
}

#[test]
fn hostile_wires_and_a_crash_with_lockstep_backoff_are_pinned() {
    let dir = SnapDir::new("crash");
    let r = run_loadgen(&LoadgenConfig {
        clients: 12,
        ticks: 50,
        seed: 7,
        service: ServiceConfig {
            // Shallower than one tick's traffic: some reports shed Busy.
            queue_depth: 10,
            snapshot_every: 1,
            ..ServiceConfig::default()
        },
        faults: Some(FaultKnobs::hostile()),
        crash_at: Some(20),
        snapshot_path: Some(dir.path()),
        backoff_cap: 4,
        lockstep_backoff: true,
        ..LoadgenConfig::default()
    });
    check(&r, 2889269105504447270, 6304411948345804658);
}

#[test]
fn sharded_batched_hostile_run_with_one_shard_crashed_is_pinned() {
    let dir = SnapDir::new("sharded");
    let r = run_loadgen(&LoadgenConfig {
        clients: 34,
        shards: 4,
        batch: 4,
        outer_period: 4,
        ticks: 50,
        seed: 5,
        service: ServiceConfig {
            // Shallower than a shard's traffic: whole groups get muted.
            queue_depth: 6,
            snapshot_every: 1,
            ..ServiceConfig::default()
        },
        faults: Some(FaultKnobs::hostile()),
        crash_at: Some(20),
        crash_shard: 3,
        snapshot_path: Some(dir.path()),
        ..LoadgenConfig::default()
    });
    check(&r, 7841194417691462959, 11766525439830657635);
}

#[test]
fn durable_singleton_run_and_its_snapshot_file_are_pinned() {
    // The durable benchmark's shape: thousands of singleton producers on
    // one service, a write-ahead snapshot every tick. Pins the Σ-grant
    // fingerprint beside an FNV-1a digest of the snapshot file's bytes
    // as the last tick left it.
    let dir = SnapDir::new("durable");
    let r = run_loadgen(&LoadgenConfig {
        clients: 4096,
        ticks: 3,
        seed: 19,
        service: ServiceConfig {
            snapshot_every: 1,
            ..ServiceConfig::default()
        },
        snapshot_path: Some(dir.path()),
        record_grants: false,
        ..LoadgenConfig::default()
    });
    assert!(r.invariant_ok);
    let bytes = std::fs::read(dir.path()).expect("the run wrote a snapshot");
    let file = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    });
    assert_eq!(
        (r.sum_fingerprint, file, bytes.len()),
        (13434521073224662403, 3998581341647181386, 82110),
        "pinned bits moved: service {:?}",
        r.service
    );
}
