//! Microbenchmarks of the hot paths: the node's per-quantum step and
//! macro-step, the RAPL control decision, the hardened daemon's control
//! tick, the progress bus, the 1 Hz aggregator, the Eq. 7 evaluation and
//! one cluster barrier's exchange pricing. These are what bound
//! full-experiment wall time, so regressions here matter directly for
//! `repro all`.

use cluster::{exchange, ramp_weights, CommConfig, CommPattern, Topology};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use nrm::resilience::{ResilienceConfig, ResilientDaemon};
use nrm::scheme::StepFunction;
use nrm::ActuatorKind;
use powermodel::predict::ProgressModel;
use progress::aggregator::ProgressAggregator;
use progress::bus::{BusConfig, ProgressBus};
use simnode::config::NodeConfig;
use simnode::hw::PowerLimit;
use simnode::node::{CoreWork, Node, WorkPacket};
use simnode::rapl::{ActivitySnapshot, RaplController};
use simnode::time::{MS, SEC};
use simnode::{NodeTables, SimAgent};
use std::hint::black_box;

fn busy_node() -> Node {
    let mut node = Node::new(NodeConfig::default());
    for c in 0..node.cores() {
        node.assign(
            c,
            CoreWork::Compute(WorkPacket::new(3.3e12, 1e9, 5e12).into()),
        );
    }
    node
}

fn bench_node_step(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro/node");
    // One simulated second = 10 000 quanta of 24-core execution.
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("step_1s_24core_uncapped", |b| {
        let mut node = busy_node();
        b.iter(|| {
            for _ in 0..10_000 {
                black_box(node.step());
            }
        })
    });
    g.bench_function("step_1s_24core_capped", |b| {
        let mut node = busy_node();
        node.set_package_cap(Some(90.0)).unwrap();
        b.iter(|| {
            for _ in 0..10_000 {
                black_box(node.step());
            }
        })
    });
    // `step_until` takes the macro-step path, whose per-RAPL-period cost
    // depends on how many distinct core states the node holds: the SPMD
    // best case (every core bit-identical) and the worst case (no two
    // cores alike), both at an 80 W cap.
    let capped_node = |packet: &dyn Fn(usize) -> WorkPacket| {
        let mut node = Node::new(NodeConfig::default());
        node.set_package_cap(Some(80.0)).unwrap();
        for c in 0..node.cores() {
            node.assign(c, CoreWork::Compute(packet(c).into()));
        }
        node
    };
    g.bench_function("step_until_1s_24core_identical", |b| {
        let mut node = capped_node(&|_| WorkPacket::new(3.3e15, 1e12, 5e15));
        b.iter(|| black_box(node.step_until(node.now() + SEC)).is_empty())
    });
    g.bench_function("step_until_1s_24core_distinct", |b| {
        let mut node = capped_node(&|c| {
            let s = 1.0 + 0.01 * c as f64;
            WorkPacket::new(3.3e15 * s, 1e12 / s, 5e15)
        });
        b.iter(|| black_box(node.step_until(node.now() + SEC)).is_empty())
    });
    g.finish();
}

/// The RAPL control decision on its own, which the node benches only
/// time inside a whole step.
fn bench_rapl(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro/rapl");
    let cfg = NodeConfig::default();
    let tables = NodeTables::new(&cfg);
    let limit = PowerLimit {
        watts: Some(80.0),
        window: 10 * MS,
    };
    let cores = cfg.cores as f64;
    let compute_bound = ActivitySnapshot {
        compute_weight: cores,
        busy_weight: cores,
        powered_cores: cores,
        achieved_bw: 3.0e9,
    };
    let streaming = ActivitySnapshot {
        compute_weight: 0.72 * cores,
        busy_weight: cores,
        powered_cores: cores,
        achieved_bw: 95.0e9,
    };
    // 1 000 decisions: 500 periods of each snapshot, with the measured
    // average sweeping 75..85 W around the cap so the feedback bias, and
    // with it the decision, keeps moving.
    g.throughput(Throughput::Elements(1_000));
    g.bench_function("control_80w", |b| {
        let mut compute = RaplController::new();
        let mut stream = RaplController::new();
        b.iter(|| {
            for i in 0..500 {
                let avg = 75.0 + (i % 21) as f64 * 0.5;
                black_box(compute.control(&cfg, limit, &tables, &compute_bound, avg));
                black_box(stream.control(&cfg, limit, &tables, &streaming, avg));
            }
        })
    });
    g.finish();
}

/// The hardened daemon's control tick on its own: measure, program the
/// cap (through the cap write and its read-back) and book-keep, as each
/// cluster member does every 10 ms. The grant alternates between two
/// caps, so every tick writes a new limit.
fn bench_nrm(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro/nrm");
    let period = 10 * MS;
    g.throughput(Throughput::Elements(1_000));
    g.bench_function("resilient_tick", |b| {
        let mut node = busy_node();
        node.set_package_cap(Some(90.0)).unwrap();
        let schedule = StepFunction {
            high_w: Some(90.0),
            low_w: 80.0,
            period: 2 * period,
            high_fraction: 0.5,
        };
        let mut daemon = ResilientDaemon::new(
            Box::new(schedule),
            ActuatorKind::Rapl,
            ResilienceConfig::default(),
        )
        .with_period(period);
        let mut now = 0;
        b.iter(|| {
            for _ in 0..1_000 {
                now += period;
                daemon.on_tick(&mut node, now);
            }
        })
    });
    g.finish();
}

fn bench_bus(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro/bus");
    g.throughput(Throughput::Elements(1_000));
    g.bench_function("publish_1k_lossless", |b| {
        let bus = ProgressBus::new();
        let mut sub = bus.subscribe(BusConfig::lossless());
        let p = bus.publisher();
        b.iter(|| {
            for i in 0..1_000u64 {
                p.publish(i, 1.0);
            }
            black_box(sub.drain().len())
        })
    });
    g.bench_function("publish_1k_lossy", |b| {
        let bus = ProgressBus::new();
        let mut sub = bus.subscribe(BusConfig::lossy(64, progress::bus::DropPolicy::DropOldest));
        let p = bus.publisher();
        b.iter(|| {
            for i in 0..1_000u64 {
                p.publish(i, 1.0);
            }
            black_box(sub.drain().len())
        })
    });
    g.finish();
}

fn bench_aggregator(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro/aggregator");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("window_10k_events", |b| {
        b.iter(|| {
            let bus = ProgressBus::new();
            let sub = bus.subscribe(BusConfig::lossless());
            let p = bus.publisher();
            let agg = ProgressAggregator::new(sub, SEC, None);
            for i in 0..10_000u64 {
                p.publish(i * 100_000, 1.0);
            }
            black_box(agg.finish(SEC * 2_000).len())
        })
    });
    g.finish();
}

fn bench_model(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro/model");
    let m = ProgressModel::new(0.84, 2.0, 124.0, 16.0);
    g.throughput(Throughput::Elements(1_000));
    g.bench_function("eq7_1k_evals", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for i in 0..1_000 {
                acc += m.predict_delta(black_box(40.0 + i as f64 * 0.1));
            }
            black_box(acc)
        })
    });
    g.finish();
}

/// Pricing one barrier's exchange at the `cluster_hier_halo_4096`
/// geometry: 4096 ramp-weighted ranks, a 1 MiB-per-unit halo (8192
/// flows) over racks of 32 with 25 GB/s uplinks.
fn bench_exchange(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro/cluster");
    let n = 4096;
    let cfg = CommConfig {
        alpha_s: 2e-6,
        nic_bw: 12.5e9,
        power_coupling: 0.5,
        pattern: CommPattern::HaloExchange {
            bytes_per_unit: 1024.0 * 1024.0,
        },
        topology: Topology::RackTree {
            nodes_per_rack: 32,
            uplink_bw: 25.0e9,
        },
    };
    let weights = ramp_weights(n, 1.0, 2.6);
    // Heavier ranks finish computing later and run more capped.
    let ready: Vec<f64> = weights.iter().map(|w| 0.1 * w).collect();
    let drain: Vec<f64> = weights.iter().map(|w| 1.2 - 0.2 * w).collect();
    g.throughput(Throughput::Elements(2 * n as u64));
    g.bench_function("exchange_4096n_racktree_halo", |b| {
        b.iter(|| black_box(exchange(&cfg, &ready, &weights, &drain)).barrier_s)
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_node_step,
    bench_rapl,
    bench_nrm,
    bench_bus,
    bench_aggregator,
    bench_model,
    bench_exchange
);
criterion_main!(benches);
