//! One workload run's outcome and the three ways it is printed: a human
//! table, the one-line result a harness reads from the end of stdout,
//! and a results-file record for `powerbench compare`.

use std::fmt::Write as _;

use crate::json;

/// A named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit, e.g. `s` or `count`.
    pub unit: &'static str,
}

/// Everything one workload run produced.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Workload name.
    pub workload: &'static str,
    /// Input seed.
    pub seed: u64,
    /// Whether this was the traced pass.
    pub trace: bool,
    /// Checked units (runs or messages) attempted.
    pub attempted: u64,
    /// Checked units that failed their correctness gate.
    pub failed: u64,
    /// Whole-run gates that failed (fingerprints, restores), one line
    /// each.
    pub problems: Vec<String>,
    /// Timed ops behind the op-time statistics.
    pub samples: usize,
    /// Median op wall time, s.
    pub p50: f64,
    /// Tail percentile and its op wall time, when enough ops ran for one.
    pub tail: Option<(u32, f64)>,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// True when every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    fn metrics_json(&self) -> String {
        let mut out = String::from("{");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::string(m.name),
                json::number(m.value),
                json::string(m.unit)
            );
        }
        out.push('}');
        out
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            self.metrics_json()
        )
    }

    /// A results-file record: the result line plus the run's identity
    /// and sample statistics.
    pub fn record(&self) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!("{{\"pct\": {p}, \"value\": {}}}", json::number(v)),
            None => "null".into(),
        };
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"samples\": {}, \"op_p50_s\": {}, \"op_tail_s\": {tail}, \"metrics\": {}}}",
            json::string(self.workload),
            self.seed,
            u8::from(self.trace),
            self.correct(),
            self.attempted,
            self.failed,
            self.samples,
            json::number(self.p50),
            self.metrics_json()
        )
    }

    /// A human-readable table of the run.
    pub fn table(&self) -> String {
        let mut out = format!(
            "== {} (seed {}, {}) ==\n",
            self.workload,
            self.seed,
            if self.trace { "traced" } else { "untraced" }
        );
        let width = self.metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
        for m in &self.metrics {
            let _ = writeln!(out, "  {:width$}  {:>14.6}  {}", m.name, m.value, m.unit);
        }
        let _ = writeln!(out, "  ops timed: {}", self.samples);
        let _ = writeln!(out, "  op wall p50: {:.6} s", self.p50);
        if let Some((p, v)) = self.tail {
            let _ = writeln!(out, "  op wall p{p}: {v:.6} s");
        }
        let _ = writeln!(
            out,
            "  checks: {} of {} failed{}",
            self.failed,
            self.attempted,
            if self.problems.is_empty() { "" } else { ";" }
        );
        for p in &self.problems {
            let _ = writeln!(out, "    {p}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_four_keys() {
        let r = RunResult {
            workload: "w",
            seed: 1,
            trace: false,
            attempted: 10,
            failed: 0,
            problems: vec![],
            samples: 3,
            p50: 0.5,
            tail: None,
            metrics: vec![Metric {
                name: "setup_s",
                value: 0.25,
                unit: "s",
            }],
        };
        let v = json::parse(&r.result_line()).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = v.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(0.25));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("s"));
        assert!(json::parse(&r.record()).is_ok());
    }
}
