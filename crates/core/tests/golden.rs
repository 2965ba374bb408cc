//! The golden contract, run by plain `cargo test`.
//!
//! `tests/golden/all_quick/` holds every CSV `repro all --quick --out`
//! writes: the paper's tables and figures, the cluster, scheduler and
//! ablation artefacts. Any drift in any layer (node, NRM, monitoring,
//! arbiters, scheduler) shows up here as a changed file. The CSVs print
//! 2–6 decimals, so ulp-level drift is `tests/node_bits.rs`'s to catch.
//!
//! The scheduler's whole pipeline (trace, admission, arbiter ticks) and a
//! seeded 4-shard loadgen crash run must also replay bit for bit under a
//! fixed seed, and a `repro cluster` whose configuration is rejected must
//! leave its output directory empty.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// An empty directory for one run's CSVs under `CARGO_TARGET_TMPDIR`.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    if dir.exists() {
        fs::remove_dir_all(&dir).unwrap();
    }
    dir
}

/// Run `repro <args> --out <out>` and require it to succeed.
fn repro(args: &[&str], out: &Path) {
    let run = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .arg("--out")
        .arg(out)
        .stdout(Stdio::null())
        .output()
        .expect("repro runs");
    assert!(
        run.status.success(),
        "repro {args:?} exited with {}:\n{}",
        run.status,
        String::from_utf8_lossy(&run.stderr)
    );
}

/// The file names in `dir`, sorted.
fn names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()))
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

/// Require `got` to hold exactly `want`'s files, byte for byte, and name
/// every file that differs with its first differing line.
fn assert_same_files(want: &Path, got: &Path) {
    assert_eq!(
        names(want),
        names(got),
        "{} and {} hold different files",
        want.display(),
        got.display()
    );
    let mut diffs = Vec::new();
    for name in names(want) {
        let a = fs::read_to_string(want.join(&name)).unwrap();
        let b = fs::read_to_string(got.join(&name)).unwrap();
        if a == b {
            continue;
        }
        let (line, (x, y)) = a
            .lines()
            .zip(b.lines())
            .enumerate()
            .find(|(_, (x, y))| x != y)
            .unwrap_or((a.lines().count().min(b.lines().count()), ("<end>", "<end>")));
        diffs.push(format!("{name} line {}:\n  want {x}\n  got  {y}", line + 1));
    }
    assert!(
        diffs.is_empty(),
        "{} file(s) differ between {} and {}:\n{}",
        diffs.len(),
        want.display(),
        got.display(),
        diffs.join("\n")
    );
}

#[test]
fn repro_all_quick_matches_the_golden_csvs() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/all_quick");
    let out = fresh_dir("golden_all_quick");
    repro(&["all", "--quick"], &out);
    assert_same_files(&golden, &out);
}

#[test]
fn repro_sched_replays_bit_for_bit_under_a_fixed_seed() {
    let a = fresh_dir("sched_replay_a");
    let b = fresh_dir("sched_replay_b");
    repro(&["sched", "--quick", "--seed", "11"], &a);
    repro(&["sched", "--quick", "--seed", "11"], &b);
    assert!(!names(&a).is_empty(), "repro sched wrote no CSV");
    assert_same_files(&a, &b);
}

#[test]
fn repro_loadgen_shards_replay_bit_for_bit_under_a_fixed_seed() {
    // One seeded 4-shard chaos run, one shard daemon crashed and restored
    // from its snapshot mid-run. The CSV's sum_fp column fingerprints
    // every tick's machine-wide Σ grants, so the diff is a bit-for-bit
    // replay check of the whole run, not only of its summary counters.
    let args = ["loadgen", "--quick", "--shards", "4", "--seed", "7"];
    let a = fresh_dir("loadgen_shards_a");
    let b = fresh_dir("loadgen_shards_b");
    repro(&args, &a);
    repro(&args, &b);
    let csv = fs::read_to_string(a.join("loadgen.csv")).expect("repro loadgen wrote its CSV");
    assert!(!csv.contains("VIOLATED"), "an invariant broke:\n{csv}");
    assert_same_files(&a, &b);
}

#[test]
fn repro_cluster_rejects_a_bad_rack_width_before_any_run() {
    // 6 nodes make a valid flat cluster but not whole racks of 4, so the
    // hierarchy's check fails; it must fail before the flat runs print or
    // write anything.
    let out = fresh_dir("cluster_bad_nodes");
    let run = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["cluster", "--quick", "--nodes", "6", "--out"])
        .arg(&out)
        .output()
        .expect("repro runs");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(2), "stderr:\n{stderr}");
    assert!(stderr.contains("rack width"), "stderr:\n{stderr}");
    assert!(run.stdout.is_empty(), "printed a table before failing");
    assert_eq!(
        names(&out),
        Vec::<String>::new(),
        "wrote CSVs before failing"
    );
}
