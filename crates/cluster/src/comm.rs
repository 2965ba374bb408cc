//! The exchange-phase communication cost model.
//!
//! PR 2's cluster treated barriers as ideal: the slowest rank's compute
//! clock gated each iteration and exchange was free, so power policies
//! could only interact with compute time. This module prices the
//! exchange with a latency + bandwidth (alpha-beta) model plus per-link
//! contention over a [`Topology`]:
//!
//! - every message pays `alpha_s` injection latency per message;
//! - every byte crosses the links of its route at the flow's *fair-share
//!   rate* — the minimum over the route of `link_bw / concurrent_flows`,
//!   the standard single-pass approximation of max-min fair sharing;
//! - a node's NIC bandwidth scales with its power-dependent **drain
//!   factor**: a power-capped node runs its cores and uncore slower and
//!   drains its NIC injection queue slower, so capping a rank taxes its
//!   neighbours' exchanges too (cf. Medhat et al., where redistribution
//!   gains hinge on communication slack).
//!
//! Two coupling patterns are modelled:
//!
//! - [`CommPattern::AllReduce`] — a ring all-reduce in `2(n-1)` lockstep
//!   steps; the slowest link gates every step, so one capped NIC drags
//!   the whole collective;
//! - [`CommPattern::HaloExchange`] — nearest-neighbour exchange on a 1-D
//!   periodic rank ring; each flow starts when *both* endpoints have
//!   finished computing (rendezvous), so only the flows a rank actually
//!   touches couple it to its neighbours.
//!
//! Per node, the phase split is exact and non-overlapping:
//! `compute_s + comm_s + slack_s` spans the iteration, where `comm_s` is
//! pure wire time attributable to the node and `slack_s` is time spent
//! neither computing nor moving bytes (barrier wait). A pattern with
//! zero bytes generates no flows at all and reproduces the ideal-barrier
//! schedule bit for bit.

use serde::{Deserialize, Serialize};

use crate::error::{ensure, ConfigError};
use crate::topology::{LinkId, LinkIndex, Topology};

/// Exponent mapping a rank's work *volume* (its weight) to its halo
/// *surface*: a 3-D domain decomposition exchanges faces, so halo bytes
/// grow as `weight^(2/3)`.
pub const HALO_SURFACE_EXP: f64 = 2.0 / 3.0;

/// Which messages the application exchanges at each barrier.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CommPattern {
    /// No exchange: the PR-2 ideal barrier, preserved exactly.
    None,
    /// Ring all-reduce of a fixed payload (same reduction vector on every
    /// rank, so the size does not scale with rank weight).
    AllReduce {
        /// Reduction vector size, bytes.
        payload_bytes: f64,
    },
    /// Nearest-neighbour halo exchange on a periodic 1-D rank ring; each
    /// rank sends one face per neighbour, sized
    /// `bytes_per_unit · weight^(2/3)`.
    HaloExchange {
        /// Face bytes for a `weight = 1` rank.
        bytes_per_unit: f64,
    },
}

/// The exchange-phase model configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CommConfig {
    /// Per-message injection latency, s (the alpha of alpha-beta).
    pub alpha_s: f64,
    /// NIC injection/ejection bandwidth at full power, bytes/s (the
    /// reciprocal beta).
    pub nic_bw: f64,
    /// How strongly a node's power state throttles its NIC drain rate,
    /// in [0, 1]: 0 = network hardware is independent of the cap,
    /// 1 = drain rate follows the core/uncore slowdown in full.
    pub power_coupling: f64,
    /// The message pattern.
    pub pattern: CommPattern,
    /// The wiring.
    pub topology: Topology,
}

impl CommConfig {
    /// The ideal-barrier configuration: no messages, zero exchange cost.
    pub fn none() -> Self {
        Self {
            alpha_s: 0.0,
            nic_bw: 1.0,
            power_coupling: 0.0,
            pattern: CommPattern::None,
            topology: Topology::FlatSwitch,
        }
    }

    /// Validate the model parameters: non-negative latency, positive NIC
    /// bandwidth, a coupling in [0, 1], non-negative message sizes, and
    /// a valid topology.
    pub fn validate(&self) -> Result<(), ConfigError> {
        ensure(
            self.alpha_s.is_finite() && self.alpha_s >= 0.0,
            "CommConfig.alpha_s",
            || format!("latency {} s must be finite non-negative", self.alpha_s),
        )?;
        ensure(
            self.nic_bw.is_finite() && self.nic_bw > 0.0,
            "CommConfig.nic_bw",
            || format!("bandwidth {} bytes/s must be finite positive", self.nic_bw),
        )?;
        ensure(
            (0.0..=1.0).contains(&self.power_coupling),
            "CommConfig.power_coupling",
            || format!("coupling {} must be in [0, 1]", self.power_coupling),
        )?;
        match self.pattern {
            CommPattern::None => {}
            CommPattern::AllReduce { payload_bytes } => ensure(
                payload_bytes.is_finite() && payload_bytes >= 0.0,
                "CommPattern::AllReduce.payload_bytes",
                || format!("{payload_bytes} bytes must be finite non-negative"),
            )?,
            CommPattern::HaloExchange { bytes_per_unit } => ensure(
                bytes_per_unit.is_finite() && bytes_per_unit >= 0.0,
                "CommPattern::HaloExchange.bytes_per_unit",
                || format!("{bytes_per_unit} bytes must be finite non-negative"),
            )?,
        }
        self.topology.validate()
    }
}

/// One point-to-point transfer of the exchange.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Flow {
    /// Sending node.
    pub src: usize,
    /// Receiving node.
    pub dst: usize,
    /// Payload, bytes.
    pub bytes: f64,
    /// Messages the payload is packetized into (each pays `alpha_s`).
    pub msgs: usize,
}

/// One node's exchange-phase timing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodePhase {
    /// When the node finished computing, s (input, echoed back).
    pub ready_s: f64,
    /// When the node's last flow completed, s.
    pub done_s: f64,
    /// Pure wire time attributable to the node, s.
    pub comm_s: f64,
    /// Time neither computing nor on the wire before the barrier, s
    /// (waiting for rendezvous partners or for the barrier itself).
    pub slack_s: f64,
}

/// Everything one exchange produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ExchangeOutcome {
    /// Per-node phase timing.
    pub phases: Vec<NodePhase>,
    /// When the barrier released (max `done_s`), s.
    pub barrier_s: f64,
    /// Bytes charged to every link touched this exchange, in [`LinkId`]
    /// order.
    pub link_bytes: Vec<(LinkId, f64)>,
    /// Total bytes injected by all nodes.
    pub total_bytes: f64,
}

/// Generate the exchange's flows for the given per-rank weights.
///
/// Patterns with zero bytes (or a single node) generate no flows at all —
/// not even latency-only messages — which is what makes the zero-size
/// configuration bit-identical to the ideal barrier.
pub fn flows(pattern: CommPattern, weights: &[f64]) -> Vec<Flow> {
    let n = weights.len();
    match pattern {
        CommPattern::None => Vec::new(),
        CommPattern::AllReduce { payload_bytes } => {
            if n < 2 || payload_bytes <= 0.0 {
                return Vec::new();
            }
            // Ring all-reduce: 2(n-1) steps, each rank sends payload/n to
            // its right neighbour per step.
            let steps = 2 * (n - 1);
            let bytes = payload_bytes * steps as f64 / n as f64;
            (0..n)
                .map(|i| Flow {
                    src: i,
                    dst: (i + 1) % n,
                    bytes,
                    msgs: steps,
                })
                .collect()
        }
        CommPattern::HaloExchange { bytes_per_unit } => {
            if n < 2 || bytes_per_unit <= 0.0 {
                return Vec::new();
            }
            let mut out = Vec::with_capacity(2 * n);
            for (i, w) in weights.iter().enumerate() {
                let bytes = bytes_per_unit * w.powf(HALO_SURFACE_EXP);
                let right = (i + 1) % n;
                let left = (i + n - 1) % n;
                out.push(Flow {
                    src: i,
                    dst: right,
                    bytes,
                    msgs: 1,
                });
                if left != right {
                    // n = 2 collapses both neighbours onto one node; send
                    // a single face rather than the same face twice.
                    out.push(Flow {
                        src: i,
                        dst: left,
                        bytes,
                        msgs: 1,
                    });
                }
            }
            out
        }
    }
}

/// Per-flow durations and the bytes charged to each touched link.
type Pricing = (Vec<f64>, Vec<(LinkId, f64)>);

/// Fair-share duration of every flow: each flow runs at the minimum over
/// its route of `link_bw / concurrent_flows`, plus per-message latency.
/// Returns `(durations_s, bytes_per_link)`, the touched links in
/// [`LinkId`] order.
///
/// Flow counts and byte sums live in vectors over the dense
/// [`LinkIndex`]; every link's sum takes its `+=` in flow order, so the
/// result is the same bits an ordered map keyed by link would give.
fn flow_durations(cfg: &CommConfig, flows: &[Flow], drain: &[f64]) -> Pricing {
    let topo = &cfg.topology;
    let links = LinkIndex::new(topo, drain.len());
    let mut flows_on = vec![0u32; links.len()];
    let mut bytes_on = vec![0.0f64; links.len()];
    for f in flows {
        for &l in topo.path(f.src, f.dst).iter() {
            let i = links.of(l);
            flows_on[i] += 1;
            bytes_on[i] += f.bytes;
        }
    }
    // Each link's fair share, divided once rather than at every visit (an
    // untouched link's share is never read).
    let share: Vec<f64> = (0..links.len())
        .map(|i| topo.link_bw(links.link(i), cfg.nic_bw, drain) / flows_on[i] as f64)
        .collect();
    let durations = flows
        .iter()
        .map(|f| {
            let rate = topo
                .path(f.src, f.dst)
                .iter()
                .map(|&l| share[links.of(l)])
                .fold(f64::INFINITY, f64::min);
            let beta_time = if f.bytes > 0.0 { f.bytes / rate } else { 0.0 };
            cfg.alpha_s * f.msgs as f64 + beta_time
        })
        .collect();
    let link_bytes = (0..links.len())
        .filter(|&i| flows_on[i] > 0)
        .map(|i| (links.link(i), bytes_on[i]))
        .collect();
    (durations, link_bytes)
}

/// Price one exchange phase.
///
/// `ready_s[i]` is when node `i` finished its compute phase, `weights[i]`
/// its workload weight (sizes halo faces), and `drain[i] ∈ (0, 1]` its
/// power-dependent NIC drain factor for this epoch.
///
/// # Panics
/// Panics on an invalid configuration, mismatched slice lengths, or
/// non-positive drain factors.
pub fn exchange(
    cfg: &CommConfig,
    ready_s: &[f64],
    weights: &[f64],
    drain: &[f64],
) -> ExchangeOutcome {
    price_with(cfg, ready_s, weights, drain, flow_durations)
}

/// [`exchange`] with the flow pricing passed in, so a test can price the
/// same exchange with a reference implementation.
fn price_with(
    cfg: &CommConfig,
    ready_s: &[f64],
    weights: &[f64],
    drain: &[f64],
    durations_of: fn(&CommConfig, &[Flow], &[f64]) -> Pricing,
) -> ExchangeOutcome {
    cfg.validate().unwrap_or_else(|e| panic!("{e}"));
    let n = ready_s.len();
    assert_eq!(weights.len(), n, "weights arity mismatch");
    assert_eq!(drain.len(), n, "drain arity mismatch");
    for &d in drain {
        assert!(d.is_finite() && d > 0.0, "drain factors must be positive");
    }

    let flows = flows(cfg.pattern, weights);
    let (durations, link_bytes) = durations_of(cfg, &flows, drain);
    let total_bytes: f64 = flows.iter().map(|f| f.bytes).sum();

    let mut comm = vec![0.0f64; n];
    let mut done = ready_s.to_vec();
    match cfg.pattern {
        CommPattern::AllReduce { .. } if !flows.is_empty() => {
            // Lockstep collective: starts when the last rank arrives, and
            // every step is gated by the slowest ring flow.
            let start = ready_s.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let step = durations.iter().copied().fold(0.0f64, f64::max);
            for i in 0..n {
                comm[i] = step;
                done[i] = start + step;
            }
        }
        _ => {
            // Point-to-point rendezvous: a flow starts once both endpoints
            // are ready; a node is done when its last flow lands.
            for (f, &d) in flows.iter().zip(&durations) {
                let start = ready_s[f.src].max(ready_s[f.dst]);
                let end = start + d;
                for node in [f.src, f.dst] {
                    comm[node] = comm[node].max(d);
                    done[node] = done[node].max(end);
                }
            }
        }
    }

    let barrier_s = done.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let phases = (0..n)
        .map(|i| NodePhase {
            ready_s: ready_s[i],
            done_s: done[i],
            comm_s: comm[i],
            // done_i >= ready_i + comm_i by construction, so this is >= 0
            // up to float rounding; clamp the rounding away.
            slack_s: (barrier_s - ready_s[i] - comm[i]).max(0.0),
        })
        .collect();

    ExchangeOutcome {
        phases,
        barrier_s,
        link_bytes,
        total_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The reference pricing: per-link flow counts and byte sums in
    /// ordered maps keyed by [`LinkId`], each route collected into its own
    /// vector, and the fair share divided at every link visit.
    fn oracle_flow_durations(cfg: &CommConfig, flows: &[Flow], drain: &[f64]) -> Pricing {
        let mut flows_on: BTreeMap<LinkId, usize> = BTreeMap::new();
        let mut bytes_on: BTreeMap<LinkId, f64> = BTreeMap::new();
        let routes: Vec<Vec<LinkId>> = flows
            .iter()
            .map(|f| cfg.topology.path(f.src, f.dst).to_vec())
            .collect();
        for (f, route) in flows.iter().zip(&routes) {
            for &l in route {
                *flows_on.entry(l).or_insert(0) += 1;
                *bytes_on.entry(l).or_insert(0.0) += f.bytes;
            }
        }
        let durations = flows
            .iter()
            .zip(&routes)
            .map(|(f, route)| {
                let rate = route
                    .iter()
                    .map(|&l| cfg.topology.link_bw(l, cfg.nic_bw, drain) / flows_on[&l] as f64)
                    .fold(f64::INFINITY, f64::min);
                let beta_time = if f.bytes > 0.0 { f.bytes / rate } else { 0.0 };
                cfg.alpha_s * f.msgs as f64 + beta_time
            })
            .collect();
        (durations, bytes_on.into_iter().collect())
    }

    /// Any exchange scenario the model accepts: 1..=70 nodes (2 drawn
    /// often: both ring neighbours coincide), a flat switch or a rack tree
    /// whose last rack is usually partial, every pattern with sizes that
    /// are often zero, and random drain factors.
    fn scenario() -> impl Strategy<Value = (CommConfig, Vec<f64>, Vec<f64>, Vec<f64>)> {
        let nodes = prop_oneof![1 => Just(2usize), 4 => 1usize..=70];
        let bytes = prop_oneof![1 => Just(0.0f64), 3 => 0.0f64..64.0e6];
        (nodes, 0usize..3, 0usize..3, bytes).prop_flat_map(|(n, pattern, topo, size)| {
            let pattern = match pattern {
                0 => CommPattern::None,
                1 => CommPattern::AllReduce {
                    payload_bytes: size,
                },
                _ => CommPattern::HaloExchange {
                    bytes_per_unit: size,
                },
            };
            (
                (1usize..=9, 1.0e9f64..50.0e9, 0.0f64..1.0e-5).prop_map(
                    move |(nodes_per_rack, uplink_bw, alpha_s)| CommConfig {
                        alpha_s,
                        nic_bw: 12.5e9,
                        power_coupling: 0.5,
                        pattern,
                        topology: if topo == 0 {
                            Topology::FlatSwitch
                        } else {
                            Topology::RackTree {
                                nodes_per_rack,
                                uplink_bw,
                            }
                        },
                    },
                ),
                prop::collection::vec(0.0f64..10.0, n),
                prop::collection::vec(0.1f64..4.0, n),
                prop::collection::vec(0.05f64..1.0, n),
            )
        })
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 256,
            ..ProptestConfig::default()
        })]

        /// Dense-array pricing gives the reference pricing's bits: every
        /// flow duration, every node's phase, the barrier and each touched
        /// link's byte sum.
        #[test]
        fn dense_pricing_matches_the_ordered_map_oracle(scn in scenario()) {
            let (cfg, ready, weights, drain) = scn;
            let fl = flows(cfg.pattern, &weights);
            let (d_new, l_new) = flow_durations(&cfg, &fl, &drain);
            let (d_old, l_old) = oracle_flow_durations(&cfg, &fl, &drain);
            prop_assert_eq!(bits(&d_new), bits(&d_old));
            let link_bits = |l: &[(LinkId, f64)]| -> Vec<(LinkId, u64)> {
                l.iter().map(|&(id, b)| (id, b.to_bits())).collect()
            };
            prop_assert_eq!(link_bits(&l_new), link_bits(&l_old));

            let new = exchange(&cfg, &ready, &weights, &drain);
            let old = price_with(&cfg, &ready, &weights, &drain, oracle_flow_durations);
            prop_assert_eq!(new.barrier_s.to_bits(), old.barrier_s.to_bits());
            prop_assert_eq!(new.total_bytes.to_bits(), old.total_bytes.to_bits());
            prop_assert_eq!(link_bits(&new.link_bytes), link_bits(&old.link_bytes));
            for (a, b) in new.phases.iter().zip(&old.phases) {
                prop_assert_eq!(
                    bits(&[a.ready_s, a.done_s, a.comm_s, a.slack_s]),
                    bits(&[b.ready_s, b.done_s, b.comm_s, b.slack_s])
                );
            }
        }
    }

    fn halo_cfg(bytes_per_unit: f64) -> CommConfig {
        CommConfig {
            alpha_s: 2.0e-6,
            nic_bw: 10.0e9,
            power_coupling: 0.5,
            pattern: CommPattern::HaloExchange { bytes_per_unit },
            topology: Topology::FlatSwitch,
        }
    }

    #[test]
    fn zero_bytes_generate_no_flows_and_no_cost() {
        for pattern in [
            CommPattern::None,
            CommPattern::AllReduce { payload_bytes: 0.0 },
            CommPattern::HaloExchange {
                bytes_per_unit: 0.0,
            },
        ] {
            assert!(flows(pattern, &[1.0, 2.0, 3.0]).is_empty(), "{pattern:?}");
            let cfg = CommConfig {
                pattern,
                ..halo_cfg(0.0)
            };
            let out = exchange(&cfg, &[1.0, 3.0, 2.0], &[1.0; 3], &[1.0; 3]);
            assert_eq!(out.barrier_s, 3.0, "barrier = max ready, exactly");
            for p in &out.phases {
                assert_eq!(p.comm_s, 0.0);
                assert_eq!(p.done_s, p.ready_s);
            }
            assert_eq!(out.total_bytes, 0.0);
            assert!(out.link_bytes.is_empty());
        }
    }

    #[test]
    fn single_node_never_communicates() {
        let out = exchange(
            &halo_cfg(1.0e6),
            &[2.5],
            &[1.0],
            &[0.3], // even a heavily capped NIC: there is nobody to talk to
        );
        assert_eq!(out.barrier_s, 2.5);
        assert_eq!(out.phases[0].comm_s, 0.0);
        assert_eq!(out.total_bytes, 0.0);
    }

    #[test]
    fn halo_bytes_follow_the_surface_law() {
        let fl = flows(
            CommPattern::HaloExchange {
                bytes_per_unit: 1000.0,
            },
            &[1.0, 8.0, 1.0],
        );
        // 3 nodes × 2 neighbours.
        assert_eq!(fl.len(), 6);
        let b1: f64 = fl.iter().find(|f| f.src == 0).unwrap().bytes;
        let b8: f64 = fl.iter().find(|f| f.src == 1).unwrap().bytes;
        // 8× the volume → 4× the surface.
        assert!((b8 / b1 - 4.0).abs() < 1e-12);
    }

    #[test]
    fn two_node_ring_sends_one_face_each_way() {
        let fl = flows(
            CommPattern::HaloExchange {
                bytes_per_unit: 1.0e6,
            },
            &[1.0, 1.0],
        );
        assert_eq!(fl.len(), 2, "left and right neighbour coincide");
    }

    #[test]
    fn contention_slows_shared_links() {
        // 4 nodes on one ring: each NicTx carries 2 flows, each NicRx 2,
        // so fair share halves the rate vs. an uncontended transfer.
        let cfg = halo_cfg(1.0e9);
        let out = exchange(&cfg, &[0.0; 4], &[1.0; 4], &[1.0; 4]);
        let uncontended = 1.0e9 / 10.0e9;
        let p = &out.phases[0];
        assert!(
            p.comm_s > 1.9 * uncontended,
            "fair-share contention must roughly halve the rate: {:.4} s",
            p.comm_s
        );
    }

    #[test]
    fn capped_nic_drags_its_neighbours() {
        let cfg = halo_cfg(1.0e9);
        let full = exchange(&cfg, &[0.0; 4], &[1.0; 4], &[1.0; 4]);
        let mut drain = [1.0; 4];
        drain[2] = 0.25; // node 2 heavily power-capped
        let capped = exchange(&cfg, &[0.0; 4], &[1.0; 4], &drain);
        // Node 2's neighbours exchange with it through its slow NIC.
        for nbr in [1usize, 3] {
            assert!(
                capped.phases[nbr].comm_s > full.phases[nbr].comm_s * 2.0,
                "neighbour {nbr} must feel the capped NIC"
            );
        }
        // The far node's own wire time only degrades via shared links, and
        // on a flat switch node 0 never touches node 2's NIC.
        assert!((capped.phases[0].comm_s - full.phases[0].comm_s).abs() < 1e-9);
    }

    #[test]
    fn allreduce_is_gated_by_the_slowest_rank_and_link() {
        let cfg = CommConfig {
            pattern: CommPattern::AllReduce {
                payload_bytes: 64.0e6,
            },
            ..halo_cfg(0.0)
        };
        let ready = [0.0, 0.4, 0.1, 0.2];
        let out = exchange(&cfg, &ready, &[1.0; 4], &[1.0, 1.0, 0.5, 1.0]);
        // Everyone finishes together, after the last arrival.
        let d0 = out.phases[0].done_s;
        for p in &out.phases {
            assert_eq!(p.done_s, d0);
            assert_eq!(p.comm_s, out.phases[0].comm_s);
        }
        assert!(d0 > 0.4, "collective cannot start before the last rank");
        // The capped node's NIC gates the whole ring: slower than the
        // full-power collective.
        let full = exchange(&cfg, &ready, &[1.0; 4], &[1.0; 4]);
        assert!(out.phases[0].comm_s > full.phases[0].comm_s * 1.5);
    }

    #[test]
    fn rack_uplink_contention_taxes_inter_rack_flows() {
        // 4 nodes, racks of 2, skinny uplink: the ring's two inter-rack
        // flows each way squeeze through 1/10 of the NIC bandwidth.
        let cfg = CommConfig {
            topology: Topology::RackTree {
                nodes_per_rack: 2,
                uplink_bw: 1.0e9,
            },
            ..halo_cfg(1.0e9)
        };
        let flat = exchange(&halo_cfg(1.0e9), &[0.0; 4], &[1.0; 4], &[1.0; 4]);
        let tree = exchange(&cfg, &[0.0; 4], &[1.0; 4], &[1.0; 4]);
        // Nodes 1/2 and 3/0 talk across racks.
        assert!(tree.phases[0].comm_s > flat.phases[0].comm_s * 2.0);
        // Byte conservation: same flows, same totals, regardless of wiring.
        assert_eq!(tree.total_bytes, flat.total_bytes);
    }

    #[test]
    fn bytes_are_conserved_across_links() {
        let cfg = halo_cfg(3.0e8);
        let out = exchange(&cfg, &[0.0; 6], &[1.0, 1.3, 0.8, 2.0, 1.1, 0.5], &[1.0; 6]);
        let tx: f64 = out
            .link_bytes
            .iter()
            .filter(|(l, _)| matches!(l, LinkId::NicTx(_)))
            .map(|(_, b)| b)
            .sum();
        let rx: f64 = out
            .link_bytes
            .iter()
            .filter(|(l, _)| matches!(l, LinkId::NicRx(_)))
            .map(|(_, b)| b)
            .sum();
        assert!((tx - out.total_bytes).abs() < 1e-6);
        assert!((rx - out.total_bytes).abs() < 1e-6);
    }

    #[test]
    fn phase_split_is_exhaustive_and_non_negative() {
        let cfg = halo_cfg(5.0e8);
        let ready = [0.1, 0.9, 0.4, 0.6];
        let out = exchange(&cfg, &ready, &[1.0, 2.0, 1.5, 1.2], &[1.0, 0.6, 0.8, 1.0]);
        for p in &out.phases {
            assert!(p.comm_s >= 0.0 && p.slack_s >= 0.0);
            // ready + comm + slack lands exactly on the barrier.
            assert!((p.ready_s + p.comm_s + p.slack_s - out.barrier_s).abs() < 1e-9);
        }
    }
}
