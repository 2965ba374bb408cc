//! Offline stand-in for `criterion`.
//!
//! Implements the API subset the `micro` bench uses — `benchmark_group`,
//! `throughput(Throughput::Elements)`, `bench_function`, `iter` and the
//! `criterion_group!`/`criterion_main!` macros — as a small wall-clock
//! harness: a fixed warm-up iteration, then `samples` timed iterations,
//! reporting median/mean/min per-iteration time. No statistics engine,
//! no HTML reports and no stored baseline: timing claims go through
//! powerbench, and this harness is for eyeballing a hot path.
//!
//! Given `--test` on the bench binary's command line (`cargo bench --
//! --test`), it runs each closure exactly once and prints `ok` instead
//! of timings, so a smoke run checks that every bench still runs.
//!
//! Environment knobs:
//!
//! - `CRITERION_SAMPLES` — timed samples per bench (default 3), so a
//!   profiling run (`scripts/profile.sh`) can sample a bench for longer;
//! - `CRITERION_FILTER` — run only the benches whose `group/id` name
//!   contains this substring.

use std::time::Instant;

/// Throughput annotation (printed alongside timing when set).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
}

/// Timing loop handle passed to bench closures.
pub struct Bencher {
    /// Timed samples; `None` runs the closure once, untimed (`--test`).
    samples: Option<usize>,
    /// Collected per-iteration seconds (filled by `iter`).
    last_per_iter_s: Vec<f64>,
}

impl Bencher {
    /// Run `f` once as warm-up, then `samples` timed times; in test mode
    /// run it once and time nothing.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        std::hint::black_box(f());
        self.last_per_iter_s.clear();
        for _ in 0..self.samples.unwrap_or(0) {
            let t0 = Instant::now();
            std::hint::black_box(f());
            self.last_per_iter_s.push(t0.elapsed().as_secs_f64());
        }
    }
}

/// Median of a sample set (mean of the middle pair for even counts); it
/// shrugs off the occasional scheduler hiccup that drags the mean.
fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::INFINITY;
    }
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        0.5 * (s[mid - 1] + s[mid])
    }
}

fn report(name: &str, b: &Bencher, throughput: Option<Throughput>) {
    if b.samples.is_none() {
        println!("bench {name} ... ok");
        return;
    }
    let n = b.last_per_iter_s.len().max(1) as f64;
    let mean = b.last_per_iter_s.iter().sum::<f64>() / n;
    let min = b
        .last_per_iter_s
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min);
    let med = median(&b.last_per_iter_s);
    let extra = match throughput {
        Some(Throughput::Elements(e)) if mean > 0.0 => {
            format!("  {:>12.0} elem/s", e as f64 / mean)
        }
        _ => String::new(),
    };
    println!(
        "bench {name:<48} median {:>11} mean {:>11} min {:>11}{extra}",
        fmt_s(med),
        fmt_s(mean),
        fmt_s(min)
    );
}

fn fmt_s(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.3} us", s * 1e6)
    } else {
        format!("{:.1} ns", s * 1e9)
    }
}

/// Whether `name` passes the `CRITERION_FILTER` substring filter (real
/// criterion takes the filter as a CLI argument; the stub reads the
/// environment so wrapper scripts can pass it through `cargo bench`
/// without argument plumbing). Empty/unset runs everything.
fn passes_filter(name: &str) -> bool {
    matches_filter(name, std::env::var("CRITERION_FILTER").ok().as_deref())
}

/// The pure predicate behind [`passes_filter`].
fn matches_filter(name: &str, filter: Option<&str>) -> bool {
    match filter {
        Some(f) if !f.is_empty() => name.contains(f),
        _ => true,
    }
}

/// The harness entry point.
pub struct Criterion {
    /// Timed samples per bench; `None` in test mode.
    samples: Option<usize>,
}

impl Default for Criterion {
    fn default() -> Self {
        if std::env::args().skip(1).any(|a| a == "--test") {
            return Self { samples: None };
        }
        // Keep runs quick; CRITERION_SAMPLES overrides.
        let samples = std::env::var("CRITERION_SAMPLES")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(3);
        Self {
            samples: Some(samples),
        }
    }
}

impl Criterion {
    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            c: self,
            name: name.into(),
            throughput: None,
        }
    }
}

/// A group of related benchmarks sharing a throughput setting.
pub struct BenchmarkGroup<'a> {
    c: &'a Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Annotate throughput for subsequent benchmarks.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Benchmark a closure.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        let name = format!("{}/{id}", self.name);
        if !passes_filter(&name) {
            return self;
        }
        let mut b = Bencher {
            samples: self.c.samples,
            last_per_iter_s: Vec::new(),
        };
        f(&mut b);
        report(&name, &b, self.throughput);
        self
    }

    /// Close the group.
    pub fn finish(self) {}
}

/// Collect bench functions into a named group runner.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Emit `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count_runs(c: &mut Criterion) -> u32 {
        let mut g = c.benchmark_group("t");
        g.throughput(Throughput::Elements(10));
        let mut runs = 0u32;
        g.bench_function("noop", |b| {
            b.iter(|| {
                runs += 1;
            })
        });
        g.finish();
        runs
    }

    #[test]
    fn group_runs_a_warm_up_and_every_sample() {
        let mut c = Criterion { samples: Some(2) };
        assert_eq!(count_runs(&mut c), 3, "one warm-up plus two samples");
    }

    #[test]
    fn test_mode_runs_each_closure_once() {
        let mut c = Criterion { samples: None };
        assert_eq!(count_runs(&mut c), 1);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), f64::INFINITY);
    }

    #[test]
    fn filter_skips_non_matching_benches() {
        // Exercise the pure predicate: mutating CRITERION_FILTER here
        // would race the other tests in this binary, which run benches.
        assert!(matches_filter("micro/cluster/member_phases_1024", None));
        assert!(matches_filter(
            "micro/cluster/member_phases_1024",
            Some("member_phases")
        ));
        assert!(!matches_filter(
            "micro/node/step_1s_24core_capped",
            Some("member_phases")
        ));
        assert!(
            matches_filter("micro/node/step_1s_24core_capped", Some("")),
            "empty runs all"
        );
    }
}
