//! `powerbench compare PARENT CHANGE`: per workload and end-to-end
//! metric, both sides' medians and quartiles, the metric's bound from
//! `BENCHMARK.json`, and a verdict.
//!
//! The rules: a change is *better* only when it wins at least nine tenths
//! of at least ten pairs (the i-th parent run against the i-th change
//! run; ties count for neither) and the medians differ by more than the
//! parent's interquartile range. Otherwise it is *unresolved* when the
//! parent's spread is wider than the bound (unless every change run
//! beats every parent run), *worse* when its median is worse than the
//! parent's by more than the bound, and *within bound* otherwise.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{self, Value};
use crate::stats::{median, quartiles};

/// A comparison's outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins the claim rule.
    Better,
    /// The change's median is worse by more than the bound.
    Worse,
    /// No regression beyond the bound, and no claimable gain.
    WithinBound,
    /// The parent's own spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Pairs needed before a gain can be claimed.
const MIN_PAIRS: usize = 10;

/// Judge `change` against `parent` (one value per run, in run order) for
/// a metric where `lower` values are better, with regression `bound` as
/// a share of the parent's median. Returns the verdict and the pairs won
/// out of the pairs formed.
pub fn verdict(parent: &[f64], change: &[f64], lower: bool, bound: f64) -> (Verdict, usize, usize) {
    let beats = |c: f64, p: f64| if lower { c < p } else { c > p };
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| beats(c, p))
        .count();
    let (mp, mc) = (median(parent), median(change));
    let iqr = quartiles(parent).map_or(f64::INFINITY, |[q1, _, q3]| q3 - q1);
    let gain = if lower { mp - mc } else { mc - mp };
    let all_beat = change.iter().all(|&c| parent.iter().all(|&p| beats(c, p)));
    let v = if pairs >= MIN_PAIRS && wins * 10 >= pairs * 9 && gain > iqr {
        Verdict::Better
    } else if iqr > bound * mp.abs() && !all_beat {
        Verdict::Unresolved
    } else if -gain > bound * mp.abs() {
        Verdict::Worse
    } else {
        Verdict::WithinBound
    };
    (v, wins, pairs)
}

/// One end-to-end metric's regression rule, from `BENCHMARK.json`.
struct Rule {
    name: String,
    lower: bool,
    bound: f64,
}

fn rules(spec: &Value) -> Result<Vec<Rule>, String> {
    let list = spec
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("spec has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("end_to_end entry lacks {k}"));
            Ok(Rule {
                name: field("name")?
                    .as_str()
                    .ok_or("name is not a string")?
                    .into(),
                lower: field("better")?.as_str() == Some("lower"),
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// Untraced records of a results file: workload → metric → values in run
/// order.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn runs(text: &str) -> Result<Runs, String> {
    let mut out = Runs::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if rec.get("trace").and_then(Value::as_f64) != Some(0.0) {
            continue;
        }
        let workload = rec
            .get("workload")
            .and_then(Value::as_str)
            .ok_or(format!("line {}: no workload", i + 1))?;
        let metrics = rec
            .get("metrics")
            .and_then(Value::as_obj)
            .ok_or(format!("line {}: no metrics", i + 1))?;
        let slot = out.entry(workload.into()).or_default();
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                slot.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(out)
}

fn summary(xs: &[f64]) -> String {
    match quartiles(xs) {
        Some([q1, _, q3]) => format!("{:.6} [{q1:.6}, {q3:.6}]", median(xs)),
        None => format!("{:.6}", median(xs)),
    }
}

/// The comparison table for two results files under `spec`; the flag is
/// true when no pairing came out worse.
pub fn compare(spec: &str, parent: &str, change: &str) -> Result<(String, bool), String> {
    let rules = rules(&json::parse(spec).map_err(|e| format!("spec: {e}"))?)?;
    let (a, b) = (runs(parent)?, runs(change)?);
    let mut out = String::new();
    let mut clean = true;
    for (workload, pm) in &a {
        let Some(cm) = b.get(workload) else {
            let _ = writeln!(out, "{workload}: no change runs");
            continue;
        };
        let _ = writeln!(out, "== {workload} ==");
        for r in &rules {
            let (Some(p), Some(c)) = (pm.get(&r.name), cm.get(&r.name)) else {
                let _ = writeln!(out, "  {:<12} missing on one side", r.name);
                clean = false;
                continue;
            };
            let (v, wins, pairs) = verdict(p, c, r.lower, r.bound);
            clean &= v != Verdict::Worse;
            let _ = writeln!(
                out,
                "  {:<12} parent {}  change {}  bound {:.0}%  won {wins}/{pairs}  {}",
                r.name,
                summary(p),
                summary(c),
                r.bound * 100.0,
                v.label()
            );
        }
    }
    Ok((out, clean))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| center * (1.0 + 0.002 * (i as f64 - n as f64 / 2.0)))
            .collect()
    }

    #[test]
    fn a_clear_win_over_ten_pairs_is_better() {
        let parent = around(1.0, 10);
        let change = around(0.9, 10);
        assert_eq!(
            verdict(&parent, &change, true, 0.1),
            (Verdict::Better, 10, 10)
        );
        // Higher-is-better metrics flip the direction.
        assert_eq!(verdict(&change, &parent, false, 0.1).0, Verdict::Better);
    }

    #[test]
    fn a_win_over_too_few_pairs_is_not_claimed() {
        let (v, wins, pairs) = verdict(&around(1.0, 5), &around(0.9, 5), true, 0.1);
        assert_eq!((v, wins, pairs), (Verdict::WithinBound, 5, 5));
    }

    #[test]
    fn eight_wins_in_ten_is_not_enough() {
        let parent = around(1.0, 10);
        let mut change = around(0.9, 10);
        change[0] = 2.0;
        change[1] = 2.0;
        assert_ne!(verdict(&parent, &change, true, 0.1).0, Verdict::Better);
    }

    #[test]
    fn a_regression_beyond_the_bound_is_worse() {
        let parent = around(1.0, 10);
        assert_eq!(
            verdict(&parent, &around(1.2, 10), true, 0.1).0,
            Verdict::Worse
        );
        assert_eq!(
            verdict(&parent, &around(1.05, 10), true, 0.1).0,
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(&parent, &around(0.8, 10), false, 0.1).0,
            Verdict::Worse
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let parent = [0.6, 1.4, 0.7, 1.3, 1.0, 0.8, 1.2, 0.9, 1.1, 1.0];
        let change = [1.05; 10];
        assert_eq!(verdict(&parent, &change, true, 0.1).0, Verdict::Unresolved);
        // ...unless every change run beats every parent run.
        assert_eq!(
            verdict(&parent, &[0.5; 3], true, 0.1).0,
            Verdict::WithinBound
        );
    }

    #[test]
    fn compare_reads_results_files_against_the_spec() {
        let spec = r#"{"end_to_end": [{"name": "op_cpu_s", "unit": "s", "better": "lower", "bound": 0.1}]}"#;
        let file = |v: f64| {
            (0..10)
                .map(|i| {
                    format!(
                        "{{\"workload\": \"w\", \"trace\": 0, \"metrics\": {{\"op_cpu_s\": {{\"value\": {}, \"unit\": \"s\"}}}}}}\n",
                        v + 0.001 * i as f64
                    )
                })
                .collect::<String>()
        };
        let (table, clean) = compare(spec, &file(1.0), &file(0.5)).unwrap();
        assert!(clean);
        assert!(table.contains("better"), "{table}");
        let (table, clean) = compare(spec, &file(1.0), &file(1.5)).unwrap();
        assert!(!clean);
        assert!(table.contains("worse"), "{table}");
    }
}
