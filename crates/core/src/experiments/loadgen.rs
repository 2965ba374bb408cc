//! Daemon load generation: `repro loadgen`.
//!
//! Not a paper artefact — an operational stress harness for the
//! `arbiterd` daemon added alongside the cluster layer. Five scenarios
//! run the same simulated telemetry cohort through increasingly hostile
//! conditions and report what the service's robustness machinery did:
//!
//! | scenario  | wires                         | service                |
//! |-----------|-------------------------------|------------------------|
//! | clean     | lossless                      | defaults               |
//! | overload  | lossless                      | shallow queue + tight rate limit |
//! | hostile   | drops/dups/delays + partition | defaults               |
//! | crash     | hostile                       | defaults, `kill -9` mid-run + snapshot restore |
//! | sharded   | hostile, batched frames       | N shards under the outer coordinator, one shard `kill -9`'d mid-run |
//!
//! Every scenario must end with Σ grants ≤ budget and zero
//! hold-last-grant violations — the table's `invariant` column is a
//! hard pass/fail, not a statistic.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use arbiterd::loadgen::{run_loadgen, FaultKnobs, LoadgenConfig, LoadgenReport};
use arbiterd::ServiceConfig;
use cluster::ConfigError;

use crate::report::TextTable;

/// Load-generation scale knobs.
#[derive(Debug, Clone)]
pub struct Config {
    /// Simulated telemetry producers per scenario.
    pub clients: usize,
    /// Arbiter shards in the `sharded` scenario (the other scenarios
    /// always run the single-service legacy path).
    pub shards: usize,
    /// Lockstep ticks per scenario.
    pub ticks: u64,
    /// Master seed (telemetry, fault schedules, backoff jitter).
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            clients: 2000,
            shards: 4,
            ticks: 120,
            seed: 12,
        }
    }
}

impl Config {
    /// A scale suitable for tests and smoke runs.
    pub fn quick() -> Self {
        Self {
            clients: 64,
            shards: 4,
            ticks: 40,
            seed: 12,
        }
    }
}

/// One scenario's outcome.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Scenario name (see the module table).
    pub scenario: &'static str,
    /// The generator's full report.
    pub report: LoadgenReport,
}

impl Config {
    /// Check the scale knobs, delegating the cross-field constraints
    /// (`shards ≤ clients`, …) to [`LoadgenConfig::validate`]. The
    /// `repro` CLI maps a failure here to exit code 2.
    pub fn validate(&self) -> Result<(), ConfigError> {
        LoadgenConfig {
            clients: self.clients,
            shards: self.shards,
            ticks: self.ticks,
            seed: self.seed,
            ..LoadgenConfig::default()
        }
        .validate()
    }
}

/// All scenarios' outcomes.
#[derive(Debug, Clone)]
pub struct Loadgen {
    /// One row per scenario, in escalation order.
    pub cells: Vec<Cell>,
}

fn base(cfg: &Config) -> LoadgenConfig {
    LoadgenConfig {
        clients: cfg.clients,
        ticks: cfg.ticks,
        seed: cfg.seed,
        ..LoadgenConfig::default()
    }
}

fn hostile_faults(cfg: &Config) -> FaultKnobs {
    FaultKnobs {
        // Partition every 9th client for a window long enough to expire
        // its lease (poll units track ticks closely here).
        partition: Some((cfg.ticks / 4, cfg.ticks / 2, 9)),
        ..FaultKnobs::hostile()
    }
}

/// A snapshot directory private to one [`run`] call, removed with its
/// contents on drop. The pid alone is not enough: tests call `run`
/// concurrently in one process, and each run deletes its snapshots.
struct SnapshotDir(PathBuf);

impl SnapshotDir {
    fn new() -> Self {
        static NTH: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "arbiterd-loadgen-{}-{}",
            std::process::id(),
            NTH.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
        Self(dir)
    }
}

impl Drop for SnapshotDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Run the five scenarios.
pub fn run(cfg: &Config) -> Result<Loadgen, ConfigError> {
    cfg.validate()?;
    let snapshots = SnapshotDir::new();
    let cell = |scenario, lg: LoadgenConfig| Cell {
        scenario,
        report: run_loadgen(&lg),
    };
    let no_snapshots = ServiceConfig {
        snapshot_every: 0,
        ..ServiceConfig::default()
    };
    let cells = vec![
        cell(
            "clean",
            LoadgenConfig {
                service: no_snapshots.clone(),
                ..base(cfg)
            },
        ),
        cell(
            "overload",
            LoadgenConfig {
                service: ServiceConfig {
                    queue_depth: (cfg.clients / 4).max(1),
                    rate_capacity: 2.0,
                    rate_refill: 0.5,
                    ..no_snapshots.clone()
                },
                ..base(cfg)
            },
        ),
        cell(
            "hostile",
            LoadgenConfig {
                faults: Some(hostile_faults(cfg)),
                service: no_snapshots,
                ..base(cfg)
            },
        ),
        cell(
            "crash",
            LoadgenConfig {
                faults: Some(hostile_faults(cfg)),
                crash_at: Some((cfg.ticks / 2).max(1)),
                snapshot_path: Some(snapshots.0.join("crash.snap")),
                ..base(cfg)
            },
        ),
        // The horizontal topology: the cohort spread over `cfg.shards`
        // arbiter shards under the outer budget coordinator, telemetry
        // multiplexed 8 producers per wire, hostile faults dropping and
        // duplicating whole batches, and one shard kill -9'd mid-run
        // while its peers keep serving. Σ ≤ machine budget still holds
        // machine-wide at every tick.
        cell(
            "sharded",
            LoadgenConfig {
                shards: cfg.shards,
                batch: 8.min(cfg.clients / cfg.shards.max(1)).max(1),
                faults: Some(hostile_faults(cfg)),
                crash_at: Some((cfg.ticks / 2).max(1)),
                crash_shard: cfg.shards - 1,
                snapshot_path: Some(snapshots.0.join("sharded.snap")),
                ..base(cfg)
            },
        ),
    ];
    Ok(Loadgen { cells })
}

impl Loadgen {
    /// Render the scenario table (also the CSV emitted by `--out`).
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(
            "arbiterd load generation — robustness counters per scenario",
            &[
                "scenario",
                "clients",
                "shards",
                "ticks",
                "rounds",
                "shed",
                "rate_limited",
                "nacked",
                "leases_expired",
                "reconnects",
                "recovery_ticks",
                "max_sum_w",
                "budget_w",
                // FNV-1a over every tick's machine-wide Σ grants (raw
                // f64 bits): two runs agree here iff their whole Σ
                // traces agree, which is what the golden shard replay
                // diffs.
                "sum_fp",
                "invariant",
            ],
        );
        for c in &self.cells {
            let r = &c.report;
            t.row(vec![
                c.scenario.to_string(),
                r.clients.to_string(),
                r.shards.to_string(),
                r.ticks.to_string(),
                r.service.rounds.to_string(),
                r.service.shed.to_string(),
                r.service.rate_limited.to_string(),
                r.service.nacked.to_string(),
                r.service.leases_expired.to_string(),
                r.reconnects.to_string(),
                r.recovery_ticks
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| "-".to_string()),
                format!("{:.1}", r.max_sum_grants_w),
                format!("{:.1}", r.budget_w),
                format!("{:016x}", r.sum_fingerprint),
                if r.invariant_ok && r.hold_violations == 0 {
                    "ok".to_string()
                } else {
                    "VIOLATED".to_string()
                },
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_scenarios_hold_the_invariant_at_quick_scale() {
        let r = run(&Config::quick()).expect("quick config is valid");
        assert_eq!(r.cells.len(), 5);
        for c in &r.cells {
            assert!(c.report.invariant_ok, "{} broke Σ ≤ budget", c.scenario);
            assert_eq!(
                c.report.hold_violations, 0,
                "{} broke hold-last-grant",
                c.scenario
            );
        }
        let by_name = |n: &str| {
            &r.cells
                .iter()
                .find(|c| c.scenario == n)
                .expect("scenario present")
                .report
        };
        assert!(
            by_name("overload").service.shed + by_name("overload").service.rate_limited > 0,
            "the overload scenario must actually shed"
        );
        assert!(
            by_name("crash").recovery_ticks.is_some(),
            "the crash scenario must recover"
        );
        assert!(by_name("crash").reconnects >= 64);
        let sharded = by_name("sharded");
        assert_eq!(sharded.shards, Config::quick().shards);
        assert!(
            sharded.recovery_ticks.is_some(),
            "the killed shard must recover"
        );
        assert!(
            sharded.min_granted_seq() > 0,
            "every producer must get granted across shards"
        );
    }

    #[test]
    fn table_rows_match_scenarios() {
        let r = run(&Config::quick()).expect("quick config is valid");
        let t = r.table();
        assert_eq!(t.len(), 5);
        assert!(t.to_csv().contains("recovery_ticks"));
        assert!(t.to_csv().contains("sharded"));
    }

    #[test]
    fn zero_scale_knobs_are_config_errors() {
        let bad = Config {
            clients: 0,
            ..Config::quick()
        };
        assert!(run(&bad).is_err(), "clients = 0 must not panic");
        let bad = Config {
            shards: 0,
            ..Config::quick()
        };
        assert!(run(&bad).is_err(), "shards = 0 must not panic");
    }
}
