//! Every workload at smoke scale, untraced and traced, through the real
//! binary: the result line must carry exactly the metrics
//! `BENCHMARK.json` names, each finite and in its unit, with every
//! correctness gate passed.

use std::collections::BTreeMap;
use std::process::Command;

use powerbench::json::{self, Value};
use powerbench::workloads::WorkloadId;

/// Metric name → unit, from one list of `BENCHMARK.json`.
fn spec_metrics(list: &str) -> BTreeMap<String, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    let spec = json::parse(&text).expect("BENCHMARK.json parses");
    spec.get(list)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(workload: WorkloadId, trace: &str) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_powerbench"))
        .args(["--workload", workload.name(), "--smoke", "--seconds", "0.2"])
        .args(["--trace", trace])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("powerbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{} --trace {trace}: {}\n{stdout}",
        workload.name(),
        String::from_utf8_lossy(&out.stderr)
    );
    json::parse(stdout.lines().last().expect("a result line")).expect("result line parses")
}

fn check(workload: WorkloadId, trace: &str, want: &BTreeMap<String, String>) -> Value {
    let line = run(workload, trace);
    let keys: Vec<&str> = line
        .as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(line.get("failed").and_then(Value::as_f64), Some(0.0));
    assert!(line.get("attempted").and_then(Value::as_f64) >= Some(1.0));
    let got: BTreeMap<String, (f64, String)> = line
        .get("metrics")
        .and_then(Value::as_obj)
        .expect("metrics")
        .iter()
        .map(|(k, m)| {
            let v = m.get("value").and_then(Value::as_f64);
            let unit = m.get("unit").and_then(Value::as_str).unwrap_or_default();
            let v = v.unwrap_or_else(|| panic!("{}: {k} is not a finite number", workload.name()));
            (k.clone(), (v, unit.to_string()))
        })
        .collect();
    assert!(
        got.keys().eq(want.keys()),
        "{} --trace {trace}: got {:?}, want {:?}",
        workload.name(),
        got.keys().collect::<Vec<_>>(),
        want.keys().collect::<Vec<_>>()
    );
    for (name, (v, unit)) in &got {
        assert!(v.is_finite(), "{name} = {v}");
        assert_eq!(unit, &want[name], "unit of {name}");
    }
    line
}

#[test]
fn untraced_runs_emit_every_end_to_end_metric() {
    let want = spec_metrics("end_to_end");
    for w in WorkloadId::ALL {
        let line = check(w, "0", &want);
        let m = line.get("metrics").expect("metrics");
        for name in want.keys() {
            let v = m
                .get(name)
                .and_then(|x| x.get("value"))
                .and_then(Value::as_f64);
            assert!(v > Some(0.0), "{}: {name} must be positive", w.name());
        }
    }
}

#[test]
fn traced_runs_emit_every_per_layer_metric_within_the_thread_budget() {
    let want = spec_metrics("per_layer");
    for w in WorkloadId::ALL {
        let line = check(w, "1", &want);
        let share = line
            .get("metrics")
            .and_then(|m| m.get("trace.busy_share"))
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64)
            .expect("trace.busy_share");
        // Busy time summed over threads never exceeds wall × threads.
        assert!(
            share > 0.0 && share <= 1.0,
            "{}: busy share {share}",
            w.name()
        );
    }
}

#[test]
fn operator_mistakes_exit_2() {
    for args in [
        &["--workload", "nope"][..],
        &["--seconds", "0"],
        &["--trace", "2"],
        &["--seed"],
        &["compare", "only-one.jsonl"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_powerbench"))
            .args(args)
            .output()
            .expect("powerbench runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
