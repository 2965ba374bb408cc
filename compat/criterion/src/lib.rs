//! Offline stand-in for `criterion`.
//!
//! Implements the API subset this workspace's benches use — groups,
//! `bench_function`, `bench_with_input`, `sample_size`, `throughput`,
//! `BenchmarkId`, the `criterion_group!`/`criterion_main!` macros — as a
//! small wall-clock harness: a fixed warm-up iteration, then `samples`
//! timed iterations, reporting median/mean/min per-iteration time. No
//! statistics engine, no HTML reports; enough to smoke-run every bench
//! and eyeball regressions offline.
//!
//! Environment knobs:
//!
//! - `CRITERION_SAMPLES` — timed samples per bench (default 3). When
//!   set it is authoritative: in-bench `sample_size` calls are ignored,
//!   so a profiling run (`scripts/profile.sh`) can raise the count past
//!   a group's smoke-run setting and sample the bench body for longer;
//! - `CRITERION_FILTER` — run only the benches whose `group/id` name
//!   contains this substring.

use std::fmt::Display;
use std::time::Instant;

/// Throughput annotation (printed alongside timing when set).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// A parameterized benchmark identifier.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `function_name/parameter` form.
    pub fn new(function: impl Display, parameter: impl Display) -> Self {
        Self {
            id: format!("{function}/{parameter}"),
        }
    }

    /// Parameter-only form (`from_parameter`).
    pub fn from_parameter(parameter: impl Display) -> Self {
        Self {
            id: parameter.to_string(),
        }
    }
}

/// Anything usable as a benchmark name.
pub trait IntoBenchmarkId {
    /// Render to the printed identifier.
    fn into_id(self) -> String;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_id(self) -> String {
        self.id
    }
}

impl IntoBenchmarkId for &str {
    fn into_id(self) -> String {
        self.to_string()
    }
}

impl IntoBenchmarkId for String {
    fn into_id(self) -> String {
        self
    }
}

/// Timing loop handle passed to bench closures.
pub struct Bencher {
    samples: usize,
    /// Collected per-iteration seconds (filled by `iter`).
    last_per_iter_s: Vec<f64>,
}

impl Bencher {
    /// Run `f` once as warm-up, then `samples` timed times.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        std::hint::black_box(f());
        self.last_per_iter_s.clear();
        for _ in 0..self.samples {
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

fn report(group: &str, id: &str, b: &Bencher, throughput: Option<Throughput>) {
    let n = b.last_per_iter_s.len().max(1) as f64;
    let mean = b.last_per_iter_s.iter().sum::<f64>() / n;
    let min = b
        .last_per_iter_s
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min);
    let med = median(&b.last_per_iter_s);
    let name = if group.is_empty() {
        id.to_string()
    } else {
        format!("{group}/{id}")
    };
    let extra = match throughput {
        Some(Throughput::Elements(e)) if mean > 0.0 => {
            format!("  {:>12.0} elem/s", e as f64 / mean)
        }
        Some(Throughput::Bytes(by)) if mean > 0.0 => {
            format!("  {:>12.0} B/s", by as f64 / mean)
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
    default_samples: usize,
    samples_forced: bool,
}

impl Default for Criterion {
    fn default() -> Self {
        // Keep smoke runs quick; CRITERION_SAMPLES overrides — and when
        // set it is authoritative, winning over in-bench `sample_size`
        // calls, so a profiling run can raise the sample count past a
        // group's smoke-run setting.
        let env = std::env::var("CRITERION_SAMPLES")
            .ok()
            .and_then(|s| s.parse().ok());
        Self {
            default_samples: env.unwrap_or(3),
            samples_forced: env.is_some(),
        }
    }
}

impl Criterion {
    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _c: self,
            name: name.into(),
            samples: self.default_samples,
            throughput: None,
        }
    }

    /// Benchmark a single function outside any group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl IntoBenchmarkId,
        mut f: F,
    ) -> &mut Self {
        let id = id.into_id();
        if !passes_filter(&id) {
            return self;
        }
        let mut b = Bencher {
            samples: self.default_samples,
            last_per_iter_s: Vec::new(),
        };
        f(&mut b);
        report("", &id, &b, None);
        self
    }
}

/// A group of related benchmarks sharing sample-count and throughput
/// settings.
pub struct BenchmarkGroup<'a> {
    _c: &'a Criterion,
    name: String,
    samples: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Set the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        // Criterion floors at 10; the stub keeps runs short instead, but
        // still scales down when callers ask for fewer samples. An
        // explicit CRITERION_SAMPLES wins outright.
        if !self._c.samples_forced {
            self.samples = n.min(self.samples.max(1)).max(1);
        }
        self
    }

    /// Annotate throughput for subsequent benchmarks.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Benchmark a closure.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl IntoBenchmarkId,
        mut f: F,
    ) -> &mut Self {
        let id = id.into_id();
        if !passes_filter(&format!("{}/{}", self.name, id)) {
            return self;
        }
        let mut b = Bencher {
            samples: self.samples,
            last_per_iter_s: Vec::new(),
        };
        f(&mut b);
        report(&self.name, &id, &b, self.throughput);
        self
    }

    /// Benchmark a closure against an explicit input.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        if !passes_filter(&format!("{}/{}", self.name, id.id)) {
            return self;
        }
        let mut b = Bencher {
            samples: self.samples,
            last_per_iter_s: Vec::new(),
        };
        f(&mut b, input);
        report(&self.name, &id.id, &b, self.throughput);
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

    #[test]
    fn group_runs_and_reports() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("t");
        g.sample_size(2).throughput(Throughput::Elements(10));
        let mut runs = 0u32;
        g.bench_function("noop", |b| {
            b.iter(|| {
                runs += 1;
            })
        });
        g.bench_with_input(BenchmarkId::from_parameter(7), &7u32, |b, &x| {
            b.iter(|| x * 2)
        });
        g.finish();
        assert!(runs >= 2, "closure must actually run");
    }

    #[test]
    fn bench_ids_render() {
        assert_eq!(BenchmarkId::new("f", 3).id, "f/3");
        assert_eq!(BenchmarkId::from_parameter("x").id, "x");
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
        assert!(matches_filter("cluster/hier_4096n_halo", None));
        assert!(matches_filter(
            "cluster/hier_4096n_halo",
            Some("hier_4096n")
        ));
        assert!(!matches_filter("cluster/flat_1024n", Some("hier_4096n")));
        assert!(
            matches_filter("cluster/flat_1024n", Some("")),
            "empty runs all"
        );
    }
}
