//! Microbenchmarks of the hot paths: the node's per-quantum step and
//! macro-step, the RAPL control decision, the hardened daemon's control
//! tick, the progress bus, the 1 Hz aggregator, the Eq. 7 evaluation,
//! one proxy-app run through the SPMD runtime, one cluster barrier's
//! exchange pricing, a pass over a thousand
//! cluster members, and the arbiter daemon's snapshot encoding and
//! writing, pipe transport, batch decoding, ingest and arbitration
//! round. These are what bound full-experiment wall time, so regressions
//! here matter directly for `repro all`.

use arbiterd::loadgen::synth_telemetry;
use arbiterd::snapshot::SnapshotSlots;
use arbiterd::{ArbiterService, Msg, PipeWire, ServiceConfig, Snapshot, Wire};
use cluster::{
    exchange, ramp_weights, ArbiterConfig, ClusterNode, CommConfig, CommPattern, NodeTelemetry,
    Policy, PowerArbiter, Topology, WorkloadShape,
};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use nrm::daemon::NrmDaemon;
use nrm::resilience::ResilienceConfig;
use nrm::scheme::StepFunction;
use nrm::ActuatorKind;
use powermodel::predict::ProgressModel;
use powerprog_core::runner::{run_app, RunConfig};
use progress::aggregator::ProgressAggregator;
use progress::bus::{BusConfig, ProgressBus};
use proxyapps::catalog::AppId;
use simnode::config::NodeConfig;
use simnode::hw::PowerLimit;
use simnode::node::{CoreWork, Node, WorkPacket};
use simnode::rapl::{ActivitySnapshot, RaplController};
use simnode::time::{MS, SEC};
use simnode::{NodeTables, SimAgent};
use std::hint::black_box;
use std::sync::Arc;

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
        busy_weight: cores,
        powered_cores: cores,
        achieved_bw: 3.0e9,
    };
    let streaming = ActivitySnapshot {
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
        let mut daemon = NrmDaemon::hardened(
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

/// One uncapped 10 s LAMMPS run, as `paper_single_node` makes 27 of:
/// the runtime feeding 24 replica ranks in lockstep beside the NRM
/// daemon, telemetry and monitor agents.
fn bench_proxyapps(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro/proxyapps");
    let cfg = RunConfig::new(AppId::Lammps, 10 * SEC);
    g.bench_function("run_app_lammps_10s", |b| {
        b.iter(|| black_box(run_app(&cfg)).total_energy_j)
    });
    g.finish();
}

/// Pricing one barrier's exchange at the `cluster_hier_halo_4096`
/// geometry: 4096 ramp-weighted ranks, a 1 MiB-per-unit halo (8192
/// flows) over racks of 32 with 25 GB/s uplinks; then the members'
/// phases.
fn bench_cluster(c: &mut Criterion) {
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

    // One compute phase and one barrier spin of each of 1024 reference
    // members in turn, at the `cluster_hier_halo_4096` member shape. The
    // node benches above step one node whose state stays in cache; here
    // every member's state is cold by the time its turn comes again. The
    // members share one copy of the reference node's tables, as
    // `run_cluster` builds them.
    let n = 1024;
    let cfg = simnode::presets::reference();
    let tables = Arc::new(NodeTables::new(&cfg));
    let mut members: Vec<ClusterNode> = ramp_weights(n, 1.0, 2.6)
        .into_iter()
        .enumerate()
        .map(|(id, w)| {
            let shape = WorkloadShape::default().scaled(0.1);
            let tables = Arc::clone(&tables);
            let mut m = ClusterNode::with_tables(id, cfg.clone(), tables, w, shape, 10 * MS);
            m.set_grant(65.0);
            m
        })
        .collect();
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("member_phases_1024", |b| {
        b.iter(|| {
            for m in &mut members {
                black_box(m.compute_iteration());
                m.spin_until(m.now() + 5 * MS);
            }
        })
    });
    g.finish();
}

/// The arbiter daemon's per-tick paths at the `arbiterd_durable_4k`
/// and `arbiterd_sharded_100k` shapes: one tick's write-ahead snapshot
/// of 4096 nodes, encoded alone and encoded, written and fsynced into
/// its slot file, one tick's 4096 singleton telemetry frames each over
/// its own pipe, one 64-member telemetry batch decoded, and one
/// 25 000-node shard's round (ingest and tick) and its ingest alone.
fn bench_arbiterd(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro/arbiterd");
    let n = 4096u32;
    let snap = Snapshot {
        tick: 1_000_003,
        budget_w: 100.0 * f64::from(n),
        grants_w: (0..n).map(|i| 40.0 + f64::from(i % 90) * 1.01).collect(),
        leases: (0..n)
            .map(|i| (i % 17 != 0).then_some(1_000_003 + u64::from(i % 5)))
            .collect(),
        window: Some(([1.5, 0.25, 0.125, 2.0, 190.5], 4096)),
    };
    g.throughput(Throughput::Elements(u64::from(n)));
    g.bench_function("snapshot_4k", |b| {
        b.iter(|| black_box(snap.to_bytes()).len())
    });
    let dir = std::env::temp_dir().join(format!("micro-snapshot-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut slots = SnapshotSlots::new(dir.join("bench.snap"));
    g.bench_function("snapshot_write_4k", |b| {
        b.iter(|| slots.write(&snap).expect("snapshot write"))
    });
    std::fs::remove_dir_all(&dir).ok();

    let telemetry = |node: u32, seq: u64| Msg::Telemetry {
        node,
        seq,
        report: synth_telemetry(71, node, seq),
    };
    let mut pipes: Vec<(PipeWire, PipeWire)> = (0..n).map(|_| PipeWire::pair()).collect();
    let mut seq = 0;
    g.bench_function("pipe_4k", |b| {
        b.iter(|| {
            seq += 1;
            for (node, (client, _)) in pipes.iter_mut().enumerate() {
                client.send(&telemetry(node as u32, seq)).unwrap();
            }
            let mut got = 0;
            for (_, server) in &mut pipes {
                while let Ok(Some(m)) = server.poll() {
                    got += usize::from(matches!(black_box(m), Msg::Telemetry { .. }));
                }
            }
            got
        })
    });

    let frame = Msg::Batch((0..64).map(|i| telemetry(i, 7)).collect()).encode();
    g.throughput(Throughput::Elements(64));
    g.bench_function("batch_decode_64", |b| {
        b.iter(|| match Msg::decode(black_box(&frame[4..])) {
            Ok(Msg::Batch(members)) => members.len(),
            other => panic!("not a batch: {other:?}"),
        })
    });

    // One arbitration round of one `arbiterd_sharded_100k` shard: a tick
    // of telemetry ingested as 64-member batches, then the tick itself.
    let n = 25_000u32;
    let arbiter = PowerArbiter::new(
        ArbiterConfig {
            budget_w: 100.0 * f64::from(n),
            min_cap_w: 40.0,
            max_cap_w: 130.0,
            policy: Policy::ProgressFeedback { gain: 1.0 },
        },
        n as usize,
    )
    .with_tracing(false);
    let cfg = ServiceConfig {
        queue_depth: 32_768,
        snapshot_every: 0,
        ..ServiceConfig::default()
    };
    let mut svc = ArbiterService::new(Box::new(arbiter), cfg);
    let reports: Vec<NodeTelemetry> = (0..n).map(|i| synth_telemetry(71, i, 1)).collect();
    let mut seq = 0;
    g.throughput(Throughput::Elements(u64::from(n)));
    g.bench_function("round_25k", |b| {
        b.iter(|| {
            seq += 1;
            for (first, chunk) in (0..n).step_by(64).zip(reports.chunks(64)) {
                let batch = (first..).zip(chunk).map(|(node, &report)| Msg::Telemetry {
                    node,
                    seq,
                    report,
                });
                assert!(svc.ingest(Msg::Batch(batch.collect())).is_empty());
            }
            black_box(svc.tick()).len()
        })
    });

    // The ingest half of that round alone: the same 64-member batches,
    // and no tick. Nothing refills the buckets or empties the queue
    // without one, so neither may run dry: every report is accepted.
    let unbounded = ServiceConfig {
        queue_depth: usize::MAX,
        rate_capacity: f64::INFINITY,
        snapshot_every: 0,
        ..ServiceConfig::default()
    };
    let arbiter = PowerArbiter::new(
        ArbiterConfig {
            budget_w: 100.0 * f64::from(n),
            min_cap_w: 40.0,
            max_cap_w: 130.0,
            policy: Policy::ProgressFeedback { gain: 1.0 },
        },
        n as usize,
    )
    .with_tracing(false);
    let mut svc = ArbiterService::new(Box::new(arbiter), unbounded);
    g.bench_function("ingest_25k", |b| {
        b.iter(|| {
            seq += 1;
            for (first, chunk) in (0..n).step_by(64).zip(reports.chunks(64)) {
                let batch = (first..).zip(chunk).map(|(node, &report)| Msg::Telemetry {
                    node,
                    seq,
                    report,
                });
                assert!(svc.ingest(Msg::Batch(batch.collect())).is_empty());
            }
            black_box(svc.stats()).shed
        })
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
    bench_proxyapps,
    bench_cluster,
    bench_arbiterd
);
criterion_main!(benches);
