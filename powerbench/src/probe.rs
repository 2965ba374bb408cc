//! Outside-in tracing: the traced pass times calls into each layer's
//! public functions from the benchmark's own code and folds them into
//! per-op layer totals, plus one span per (op, phase) kept in memory and
//! written out at exit.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::json;
use crate::report::Metric;
use crate::stats::median;

/// How a layer's raw measurements fold into its reported value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Host seconds the layer spent working, summed per op, reported as
    /// the median op. Counts toward the op's busy time.
    Busy,
    /// Anything else summed per op (work done, time spent waiting),
    /// reported as the median op.
    Sum,
    /// Host seconds of single calls, reported as the median call.
    Sample,
    /// One value per run.
    Once,
}

macro_rules! layers {
    ($($variant:ident => $name:literal, $unit:literal, $kind:ident;)*) => {
        /// Every per-layer metric the traced pass reports. Each workload
        /// reports all of them; a layer it bypasses reads 0.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum Layer { $($variant),* }

        impl Layer {
            /// All layers, in report order.
            pub const ALL: &'static [Layer] = &[$(Layer::$variant),*];
            /// Number of layers.
            pub const COUNT: usize = Layer::ALL.len();

            /// Metric name: the module as the layer, then what is measured.
            pub fn name(self) -> &'static str {
                match self { $(Layer::$variant => $name),* }
            }

            /// Metric unit.
            pub fn unit(self) -> &'static str {
                match self { $(Layer::$variant => $unit),* }
            }

            /// How measurements fold into the reported value.
            pub fn kind(self) -> Kind {
                match self { $(Layer::$variant => Kind::$kind),* }
            }
        }
    };
}

layers! {
    // paper_single_node: a mirror of core::runner::run_app.
    RunnerSetup => "core.runner.setup_s", "s", Busy;
    RunnerFinish => "core.runner.finish_s", "s", Busy;
    RuntimeSelf => "proxyapps.runtime.self_s", "s", Busy;
    DaemonTick => "nrm.daemon.tick_s", "s", Busy;
    DaemonTicks => "nrm.daemon.ticks", "count", Sum;
    TraceTick => "proxyapps.trace.tick_s", "s", Busy;
    AggregatorPoll => "progress.aggregator.poll_s", "s", Busy;
    AggregatorWindows => "progress.aggregator.windows", "count", Sum;
    BusEvents => "progress.bus.events", "count", Sum;
    SimNodeSeconds => "simnode.sim_s", "node-s", Sum;
    // cluster_hier_halo_4096: a BSP driver over ClusterNode.
    MemberSetup => "cluster.member.setup_s", "s", Busy;
    MemberCompute => "cluster.member.compute_s", "s", Busy;
    MemberComputeCalls => "cluster.member.compute_calls", "count", Sum;
    MemberSpin => "cluster.member.spin_s", "s", Busy;
    MemberSpinCalls => "cluster.member.spin_calls", "count", Sum;
    MemberReport => "cluster.member.report_s", "s", Busy;
    MemberGrant => "cluster.member.grant_s", "s", Busy;
    MemberGrantChanges => "cluster.member.grant_changes", "count", Sum;
    CommExchange => "cluster.comm.exchange_s", "s", Busy;
    CommBytes => "cluster.comm.bytes", "B", Sum;
    ImbalanceAnalyze => "progress.imbalance.analyze_s", "s", Busy;
    HierarchyRedistribute => "cluster.hierarchy.redistribute_s", "s", Busy;
    HierarchyRedistributes => "cluster.hierarchy.redistributes", "count", Sum;
    ClusterDriverSelf => "cluster.driver.self_s", "s", Busy;
    ClusterJoinWait => "cluster.driver.join_wait_s", "s", Sum;
    // arbiterd_*: a lockstep driver over ShardedService and PipeWire.
    LoadgenProduce => "arbiterd.loadgen.produce_s", "s", Busy;
    WireSend => "arbiterd.wire.send_s", "s", Busy;
    WirePoll => "arbiterd.wire.poll_s", "s", Busy;
    WireFrames => "arbiterd.wire.frames", "count", Sum;
    ProtoBytes => "arbiterd.proto.bytes", "B", Sum;
    ShardedIngest => "arbiterd.sharded.ingest_s", "s", Busy;
    ShardedIngestCalls => "arbiterd.sharded.ingest_calls", "count", Sum;
    ShardedTick => "arbiterd.sharded.tick_s", "s", Busy;
    ShardedTickInner => "arbiterd.sharded.tick_inner_s", "s", Sample;
    ShardedTickOuter => "arbiterd.sharded.tick_outer_s", "s", Sample;
    ArbiterdDriverSelf => "arbiterd.driver.self_s", "s", Busy;
    ServiceShed => "arbiterd.service.shed", "count", Sum;
    ServiceRateLimited => "arbiterd.service.rate_limited", "count", Sum;
    ServiceNacked => "arbiterd.service.nacked", "count", Sum;
    ServiceDuplicates => "arbiterd.service.duplicates", "count", Sum;
    ServiceLeasesExpired => "arbiterd.service.leases_expired", "count", Sum;
    ServiceRounds => "arbiterd.service.rounds", "count", Sum;
    ServiceSnapshots => "arbiterd.service.snapshots", "count", Sum;
    ClientGrants => "arbiterd.client.grants", "count", Sum;
    GrantRatio => "arbiterd.grant_ratio", "ratio", Once;
    SnapshotRestore => "arbiterd.snapshot.restore_s", "s", Once;
    // Every workload: the traced pass itself.
    OpWall => "trace.op_wall_s", "s", Once;
    BusyShare => "trace.busy_share", "ratio", Once;
    Overhead => "trace.overhead", "ratio", Once;
}

/// Per-layer sums for one op (or one thread's share of it).
#[derive(Clone, Debug)]
pub struct Acc([f64; Layer::COUNT]);

impl Default for Acc {
    fn default() -> Self {
        Acc([0.0; Layer::COUNT])
    }
}

impl Acc {
    /// Add `v` to `layer`.
    pub fn add(&mut self, layer: Layer, v: f64) {
        self.0[layer as usize] += v;
    }

    /// Run `f`, adding its host time to `layer`.
    pub fn time<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.add(layer, t.elapsed().as_secs_f64());
        r
    }

    /// The sum so far for `layer`.
    pub fn get(&self, layer: Layer) -> f64 {
        self.0[layer as usize]
    }

    /// Fold another accumulator (a worker thread's) into this one.
    pub fn merge(&mut self, other: &Acc) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a += b;
        }
    }

    /// Host seconds of every [`Kind::Busy`] layer.
    pub fn busy(&self) -> f64 {
        Layer::ALL
            .iter()
            .filter(|l| l.kind() == Kind::Busy)
            .map(|&l| self.get(l))
            .sum()
    }
}

/// One (op, phase) interval.
struct Span {
    op: usize,
    name: &'static str,
    thread: usize,
    start_s: f64,
    dur_s: f64,
}

/// Spans kept in memory; at ~90 bytes a line this bounds the span file
/// well under 50 MB whatever the run length.
const MAX_SPANS: usize = 400_000;

/// The traced pass's recorder.
pub struct Probe {
    origin: Instant,
    threads: usize,
    op: Acc,
    op_start: Instant,
    /// Finished ops: wall time and per-layer sums.
    ops: Vec<(f64, Acc)>,
    samples: Vec<Vec<f64>>,
    once: Vec<Option<f64>>,
    spans: Vec<Span>,
}

impl Probe {
    /// A recorder for a workload whose ops run on up to `threads` threads.
    pub fn new(threads: usize) -> Self {
        let now = Instant::now();
        Self {
            origin: now,
            threads,
            op: Acc::default(),
            op_start: now,
            ops: Vec::new(),
            samples: vec![Vec::new(); Layer::COUNT],
            once: vec![None; Layer::COUNT],
            spans: Vec::new(),
        }
    }

    /// Start timing an op.
    pub fn begin_op(&mut self) {
        self.op = Acc::default();
        self.op_start = Instant::now();
    }

    /// Finish the op begun last; returns its wall time, s.
    pub fn end_op(&mut self) -> f64 {
        let wall = self.op_start.elapsed().as_secs_f64();
        self.ops.push((wall, std::mem::take(&mut self.op)));
        wall
    }

    /// The current op's accumulator.
    pub fn acc(&mut self) -> &mut Acc {
        &mut self.op
    }

    /// Host seconds since the current op began.
    pub fn op_elapsed(&self) -> f64 {
        self.op_start.elapsed().as_secs_f64()
    }

    /// Record one span of the current op.
    pub fn span(&mut self, name: &'static str, thread: usize, start: Instant, end: Instant) {
        if self.spans.len() < MAX_SPANS {
            self.spans.push(Span {
                op: self.ops.len(),
                name,
                thread,
                start_s: start.duration_since(self.origin).as_secs_f64(),
                dur_s: end.duration_since(start).as_secs_f64(),
            });
        }
    }

    /// Record one call of a [`Kind::Sample`] layer.
    pub fn sample(&mut self, layer: Layer, v: f64) {
        self.samples[layer as usize].push(v);
    }

    /// Set a [`Kind::Once`] layer.
    pub fn set(&mut self, layer: Layer, v: f64) {
        self.once[layer as usize] = Some(v);
    }

    /// Every layer's reported value. `untraced_p50_s` is the median op
    /// time of the untraced ops run alongside, the base of
    /// `trace.overhead`.
    pub fn metrics(&self, untraced_p50_s: f64) -> Vec<Metric> {
        let walls: Vec<f64> = self.ops.iter().map(|(w, _)| *w).collect();
        let wall_p50 = median(&walls);
        Layer::ALL
            .iter()
            .map(|&l| {
                let per_op = || {
                    let v: Vec<f64> = self.ops.iter().map(|(_, a)| a.get(l)).collect();
                    if v.is_empty() {
                        0.0
                    } else {
                        median(&v)
                    }
                };
                let value = match l {
                    Layer::OpWall => wall_p50,
                    Layer::BusyShare => self
                        .ops
                        .iter()
                        .map(|(w, a)| a.busy() / (w * self.threads as f64))
                        .fold(0.0, f64::max),
                    Layer::Overhead => wall_p50 / untraced_p50_s - 1.0,
                    _ => match l.kind() {
                        Kind::Busy | Kind::Sum => per_op(),
                        Kind::Sample => {
                            let s = &self.samples[l as usize];
                            if s.is_empty() {
                                0.0
                            } else {
                                median(s)
                            }
                        }
                        Kind::Once => self.once[l as usize].unwrap_or(0.0),
                    },
                };
                Metric {
                    name: l.name(),
                    value,
                    unit: l.unit(),
                }
            })
            .collect()
    }

    /// Append the spans, then each op's nonzero layer totals, to `path`
    /// as JSON lines tagged with `workload`.
    pub fn write_spans(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        let mut out = std::io::BufWriter::new(file);
        let w = json::string(workload);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"workload\":{w},\"op\":{},\"phase\":{},\"thread\":{},\"start_s\":{},\"dur_s\":{}}}",
                s.op,
                json::string(s.name),
                s.thread,
                json::number(s.start_s),
                json::number(s.dur_s)
            )?;
        }
        for (op, (wall, acc)) in self.ops.iter().enumerate() {
            writeln!(
                out,
                "{{\"workload\":{w},\"op\":{op},\"layer\":\"trace.op_wall_s\",\"total\":{}}}",
                json::number(*wall)
            )?;
            for &l in Layer::ALL {
                if acc.get(l) != 0.0 {
                    writeln!(
                        out,
                        "{{\"workload\":{w},\"op\":{op},\"layer\":{},\"total\":{}}}",
                        json::string(l.name()),
                        json::number(acc.get(l))
                    )?;
                }
            }
        }
        out.flush()
    }
}

/// Timing hooks for code shared by the traced and untraced ops. The
/// untraced op passes `()`, whose hooks compile to nothing.
pub trait Tracer {
    /// Run `f`, adding its host time to `layer`.
    fn time<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R;
    /// Add `v` to `layer`'s sum for the current op.
    fn add(&mut self, layer: Layer, v: f64);
    /// Run `f` as one named phase of the op, recorded as a span.
    fn phase<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R;
    /// Record one call of a [`Kind::Sample`] layer taking `secs`.
    fn sample(&mut self, layer: Layer, secs: f64);
    /// Whether hooks record anything (callers skip work done only to
    /// feed them).
    fn on(&self) -> bool;
}

impl Tracer for () {
    #[inline(always)]
    fn time<R>(&mut self, _: Layer, f: impl FnOnce() -> R) -> R {
        f()
    }
    #[inline(always)]
    fn add(&mut self, _: Layer, _: f64) {}
    #[inline(always)]
    fn phase<R>(&mut self, _: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        f(self)
    }
    #[inline(always)]
    fn sample(&mut self, _: Layer, _: f64) {}
    #[inline(always)]
    fn on(&self) -> bool {
        false
    }
}

impl Tracer for Probe {
    fn time<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        self.op.time(layer, f)
    }
    fn add(&mut self, layer: Layer, v: f64) {
        self.op.add(layer, v);
    }
    fn phase<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let start = Instant::now();
        let r = f(self);
        self.span(name, 0, start, Instant::now());
        r
    }
    fn sample(&mut self, layer: Layer, secs: f64) {
        Probe::sample(self, layer, secs);
    }
    fn on(&self) -> bool {
        true
    }
}
