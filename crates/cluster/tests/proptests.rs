//! Property tests for the power-budget arbiter: the invariants that make
//! it safe to wire into a machine-room breaker. For arbitrary (bounded)
//! budgets, clamps, telemetry and dropout patterns:
//!
//! - **budget conservation** — granted caps never sum above the budget;
//! - **clamp respect** — every grant stays inside `[min, max]`;
//! - **determinism** — identical inputs produce bitwise-identical grants,
//!   independent of history cloning or repetition (and, by construction,
//!   of worker thread count: redistribution is pure arithmetic over
//!   ordered vectors).
//!
//! And for the exchange-phase comm model, over arbitrary patterns,
//! topologies, rendezvous skews and NIC drain factors:
//!
//! - **non-negative, exhaustive phases** — `comm_s`/`slack_s` ≥ 0 and
//!   `ready + comm + slack` lands exactly on the barrier;
//! - **conservation of bytes** — NIC injection = NIC ejection = flow
//!   total on every link map;
//! - **purity/determinism** — re-pricing a scenario is bitwise identical
//!   (the property that keeps `run_cluster` deterministic under rayon);
//! - **monotonicity** — throttling a NIC never speeds anyone up.

use cluster::{
    exchange, ArbiterConfig, CommConfig, CommPattern, HierarchyConfig, LinkId, NodeTelemetry,
    Policy, PowerArbiter, RackArbiter, Topology,
};
use proptest::prelude::*;

/// Bounded arbitrary telemetry: `None` (~1 in 5) models a dropout, and
/// the per-phase split includes comm-free and comm-heavy epochs.
fn telemetry() -> impl Strategy<Value = Option<NodeTelemetry>> {
    prop_oneof![
        1 => Just(None),
        4 => (0.05f64..20.0, 0.0f64..5.0, 5.0f64..300.0).prop_map(
            |(compute_s, comm_s, power_w)| {
                Some(NodeTelemetry {
                    compute_s,
                    comm_s,
                    slack_s: 0.0,
                    rate: 1.0 / compute_s,
                    power_w,
                })
            }
        ),
    ]
}

fn policy() -> impl Strategy<Value = Policy> {
    prop_oneof![
        Just(Policy::UniformStatic),
        Just(Policy::DemandProportional),
        (0.1f64..2.0).prop_map(|gain| Policy::ProgressFeedback { gain }),
    ]
}

/// A feasible (budget ≥ n·min) arbiter config plus several rounds of
/// per-node reports.
fn scenario() -> impl Strategy<Value = (ArbiterConfig, Vec<Vec<Option<NodeTelemetry>>>)> {
    (2usize..9, policy()).prop_flat_map(|(n, policy)| {
        (
            (20.0f64..60.0, 60.0f64..180.0).prop_flat_map(move |(min_cap_w, max_cap_w)| {
                (min_cap_w * n as f64..max_cap_w * n as f64 * 1.2).prop_map(move |budget_w| {
                    ArbiterConfig {
                        budget_w,
                        min_cap_w,
                        max_cap_w,
                        policy,
                    }
                })
            }),
            prop::collection::vec(prop::collection::vec(telemetry(), n), 1..6),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        ..ProptestConfig::default()
    })]

    /// Σ grants ≤ budget after every redistribution, for every policy,
    /// through arbitrary dropout patterns.
    #[test]
    fn budget_is_conserved(scn in scenario()) {
        let (cfg, rounds) = scn;
        let n = rounds[0].len();
        let mut arb = PowerArbiter::new(cfg, n);
        for reports in &rounds {
            arb.redistribute(reports).unwrap();
        }
        for tick in arb.trace().ticks() {
            prop_assert!(
                tick.total_w <= tick.budget_w + 1e-6,
                "round {}: granted {} W over the {} W budget",
                tick.round, tick.total_w, tick.budget_w
            );
            let s: f64 = tick.granted_w.iter().sum();
            prop_assert!((s - tick.total_w).abs() < 1e-9, "trace self-consistency");
        }
    }

    /// Every grant, on every tick, respects the per-node clamp range.
    #[test]
    fn clamps_are_respected(scn in scenario()) {
        let (cfg, rounds) = scn;
        let n = rounds[0].len();
        let mut arb = PowerArbiter::new(cfg, n);
        for reports in &rounds {
            for &g in arb.redistribute(reports).unwrap() {
                prop_assert!(
                    g >= cfg.min_cap_w - 1e-6 && g <= cfg.max_cap_w + 1e-6,
                    "grant {g} W outside [{}, {}] W",
                    cfg.min_cap_w, cfg.max_cap_w
                );
            }
        }
    }

    /// Redistribution is a pure function of (config, history): replaying
    /// identical reports on a fresh arbiter, or continuing from a cloned
    /// arbiter, reproduces bitwise-identical grants.
    #[test]
    fn redistribution_is_deterministic(scn in scenario()) {
        let (cfg, rounds) = scn;
        let n = rounds[0].len();
        let mut a = PowerArbiter::new(cfg, n);
        let mut b = PowerArbiter::new(cfg, n);
        for reports in &rounds {
            // A cloned mid-stream arbiter must agree with both originals.
            let mut c = a.clone();
            let ga = a.redistribute(reports).unwrap().to_vec();
            let gb = b.redistribute(reports).unwrap().to_vec();
            let gc = c.redistribute(reports).unwrap().to_vec();
            for i in 0..n {
                prop_assert_eq!(ga[i].to_bits(), gb[i].to_bits(), "replay divergence");
                prop_assert_eq!(ga[i].to_bits(), gc[i].to_bits(), "clone divergence");
            }
        }
        prop_assert_eq!(a.trace().len(), rounds.len());
    }

    /// A silent node's grant is frozen verbatim while the cluster still
    /// has headroom to fund everyone's floor.
    #[test]
    fn dropout_freezes_the_grant(
        n in 3usize..8,
        silent in 0usize..3,
        gain in 0.2f64..1.5,
    ) {
        let silent = silent.min(n - 1);
        let cfg = ArbiterConfig {
            // Generous budget: freezing never needs the feasibility clip.
            budget_w: 120.0 * n as f64,
            min_cap_w: 40.0,
            max_cap_w: 160.0,
            policy: Policy::ProgressFeedback { gain },
        };
        let mut arb = PowerArbiter::new(cfg, n);
        let all: Vec<_> = (0..n)
            .map(|i| Some(NodeTelemetry::compute_only(
                1.0 + i as f64 * 0.3,
                1.0,
                100.0,
            )))
            .collect();
        arb.redistribute(&all).unwrap();
        let frozen = arb.grants()[silent];
        let mut partial = all;
        partial[silent] = None;
        arb.redistribute(&partial).unwrap();
        prop_assert_eq!(arb.grants()[silent].to_bits(), frozen.to_bits());
    }

    /// A tree of one rack holding every node is grant-for-grant bitwise
    /// identical to the flat arbiter under the same telemetry stream
    /// (the hierarchy degenerates exactly, for every policy, through
    /// arbitrary dropout patterns and outer periods).
    #[test]
    fn single_rack_tree_equals_the_flat_arbiter(
        scn in scenario(),
        outer_period in 1usize..5,
    ) {
        let (cfg, rounds) = scn;
        let n = rounds[0].len();
        // Stay inside the clamp-feasible band: past n·max both arbiters
        // saturate everyone, but through differently-rounded arithmetic.
        let cfg = ArbiterConfig {
            budget_w: cfg.budget_w.min(cfg.max_cap_w * n as f64),
            ..cfg
        };
        let mut flat = PowerArbiter::new(cfg, n);
        let mut tree = RackArbiter::new(cfg, HierarchyConfig {
            racks: vec![n],
            outer_period,
            inner_period: 1,
            rack_policy: cfg.policy,
            rack_clamps: None,
        });
        for (round, reports) in rounds.iter().enumerate() {
            let a = flat.redistribute(reports).unwrap().to_vec();
            let b = tree.redistribute(reports).unwrap().to_vec();
            for i in 0..n {
                prop_assert_eq!(
                    a[i].to_bits(), b[i].to_bits(),
                    "round {}: node {} diverges ({} vs {})",
                    round, i, a[i], b[i]
                );
            }
        }
    }

    /// Dropout behavior lifts to the rack level: a rack whose members
    /// all go silent keeps its sub-budget frozen verbatim, however the
    /// reporting racks are rebalanced around it.
    #[test]
    fn silent_rack_keeps_its_sub_budget(
        n_racks in 2usize..5,
        per_rack in 1usize..4,
        silent_pick in 0usize..5,
        gain in 0.2f64..1.5,
        rounds in 2usize..8,
    ) {
        let silent_rack = silent_pick % n_racks;
        let n = n_racks * per_rack;
        let cfg = ArbiterConfig {
            // Generous budget: freezing never needs the feasibility clip.
            budget_w: 120.0 * n as f64,
            min_cap_w: 40.0,
            max_cap_w: 160.0,
            policy: Policy::ProgressFeedback { gain },
        };
        let mut tree = RackArbiter::new(cfg, HierarchyConfig {
            racks: vec![per_rack; n_racks],
            outer_period: 2,
            inner_period: 1,
            rack_policy: Policy::ProgressFeedback { gain },
            rack_clamps: None,
        });
        let frozen = tree.sub_budgets()[silent_rack];
        for r in 0..rounds {
            let reports: Vec<_> = (0..n)
                .map(|i| {
                    (i / per_rack != silent_rack).then(|| NodeTelemetry::compute_only(
                        1.0 + (i + r) as f64 * 0.17,
                        1.0,
                        100.0,
                    ))
                })
                .collect();
            tree.redistribute(&reports).unwrap();
            prop_assert_eq!(
                tree.sub_budgets()[silent_rack].to_bits(),
                frozen.to_bits(),
                "round {}: silent rack's pot moved",
                r
            );
        }
    }
}

/// A bounded exchange scenario: pattern, topology, and per-node state.
fn comm_scenario() -> impl Strategy<
    Value = (
        CommConfig,
        Vec<f64>, // ready_s
        Vec<f64>, // weights
        Vec<f64>, // drain
    ),
> {
    let pattern = prop_oneof![
        Just(CommPattern::None),
        (0.0f64..256.0e6).prop_map(|payload_bytes| CommPattern::AllReduce { payload_bytes }),
        (0.0f64..256.0e6).prop_map(|bytes_per_unit| CommPattern::HaloExchange { bytes_per_unit }),
    ];
    let topology = prop_oneof![
        Just(Topology::FlatSwitch),
        (1usize..5, 1.0e9f64..50.0e9).prop_map(|(nodes_per_rack, uplink_bw)| {
            Topology::RackTree {
                nodes_per_rack,
                uplink_bw,
            }
        }),
    ];
    (1usize..10, pattern, topology).prop_flat_map(|(n, pattern, topology)| {
        (
            (0.0f64..1.0e-5, 1.0e9f64..100.0e9, 0.0f64..1.0).prop_map(
                move |(alpha_s, nic_bw, power_coupling)| CommConfig {
                    alpha_s,
                    nic_bw,
                    power_coupling,
                    pattern,
                    topology,
                },
            ),
            prop::collection::vec(0.0f64..10.0, n),
            prop::collection::vec(0.1f64..4.0, n),
            prop::collection::vec(0.05f64..1.0, n),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        ..ProptestConfig::default()
    })]

    /// Exchange times are non-negative, the phase split is exhaustive
    /// (ready + comm + slack = barrier for every node), and the barrier
    /// never lands before the slowest rank's compute clock.
    #[test]
    fn exchange_phases_are_nonnegative_and_exhaustive(scn in comm_scenario()) {
        let (cfg, ready, weights, drain) = scn;
        let out = exchange(&cfg, &ready, &weights, &drain);
        let max_ready = ready.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(out.barrier_s >= max_ready, "barrier before the last rank");
        for (i, p) in out.phases.iter().enumerate() {
            prop_assert!(p.comm_s >= 0.0, "node {i}: negative wire time");
            prop_assert!(p.slack_s >= 0.0, "node {i}: negative slack");
            prop_assert!(p.done_s >= p.ready_s, "node {i}: done before ready");
            let span = p.ready_s + p.comm_s + p.slack_s;
            prop_assert!(
                (span - out.barrier_s).abs() < 1e-6,
                "node {i}: phase split {span} != barrier {}",
                out.barrier_s
            );
        }
    }

    /// Conservation of bytes: what the NICs inject equals what the NICs
    /// eject equals the flow total, regardless of pattern and topology.
    #[test]
    fn exchange_bytes_are_conserved(scn in comm_scenario()) {
        let (cfg, ready, weights, drain) = scn;
        let out = exchange(&cfg, &ready, &weights, &drain);
        let sum_on = |f: fn(&LinkId) -> bool| -> f64 {
            out.link_bytes
                .iter()
                .filter(|(l, _)| f(l))
                .map(|(_, b)| b)
                .sum()
        };
        let tx = sum_on(|l| matches!(l, LinkId::NicTx(_)));
        let rx = sum_on(|l| matches!(l, LinkId::NicRx(_)));
        let tol = 1e-9 * out.total_bytes.max(1.0);
        prop_assert!((tx - out.total_bytes).abs() <= tol, "tx {tx} != {}", out.total_bytes);
        prop_assert!((rx - out.total_bytes).abs() <= tol, "rx {rx} != {}", out.total_bytes);
        // Rack links can only carry a subset of the total.
        let up = sum_on(|l| matches!(l, LinkId::RackUp(_)));
        prop_assert!(up <= out.total_bytes + tol);
    }

    /// The exchange pricing is a pure function: re-pricing the same
    /// scenario is bitwise identical (this, plus the members being
    /// independent between barriers, is what makes the whole cluster run
    /// deterministic under rayon).
    #[test]
    fn exchange_is_deterministic(scn in comm_scenario()) {
        let (cfg, ready, weights, drain) = scn;
        let a = exchange(&cfg, &ready, &weights, &drain);
        let b = exchange(&cfg, &ready, &weights, &drain);
        prop_assert_eq!(a.barrier_s.to_bits(), b.barrier_s.to_bits());
        for (pa, pb) in a.phases.iter().zip(&b.phases) {
            prop_assert_eq!(pa.comm_s.to_bits(), pb.comm_s.to_bits());
            prop_assert_eq!(pa.slack_s.to_bits(), pb.slack_s.to_bits());
            prop_assert_eq!(pa.done_s.to_bits(), pb.done_s.to_bits());
        }
        prop_assert_eq!(a.total_bytes.to_bits(), b.total_bytes.to_bits());
    }

    /// Throttling any single NIC never *speeds up* anyone's exchange:
    /// the fair-share model is monotone in link capacity.
    #[test]
    fn slower_nic_never_speeds_anyone_up(
        scn in comm_scenario(),
        victim_frac in 0.1f64..0.9,
    ) {
        let (cfg, ready, weights, drain) = scn;
        let full = exchange(&cfg, &ready, &weights, &drain);
        let victim = drain.len() / 2;
        let mut slower = drain.clone();
        slower[victim] *= victim_frac;
        let out = exchange(&cfg, &ready, &weights, &slower);
        for (i, (pf, ps)) in full.phases.iter().zip(&out.phases).enumerate() {
            prop_assert!(
                ps.comm_s >= pf.comm_s - 1e-12,
                "node {i} got faster when node {victim} was throttled"
            );
        }
    }
}
