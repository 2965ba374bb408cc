//! Microbenchmarks of the hot paths: the node's per-quantum step and
//! macro-step, the RAPL control decision, the progress bus, the 1 Hz
//! aggregator and the Eq. 7 evaluation. These are what bound full-experiment wall time, so
//! regressions here matter directly for `repro all`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use powermodel::predict::ProgressModel;
use progress::aggregator::ProgressAggregator;
use progress::bus::{BusConfig, ProgressBus};
use simnode::config::NodeConfig;
use simnode::node::{CoreWork, Node, WorkPacket};
use simnode::time::SEC;
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

criterion_group!(
    benches,
    bench_node_step,
    bench_bus,
    bench_aggregator,
    bench_model
);
criterion_main!(benches);
