//! URBAN proxy — coupled Nek5000 + EnergyPlus (Category 3).
//!
//! "Nek5000 and Energy Plus run at timescales that are orders of magnitude
//! apart. We could define the online performance of URBAN using an
//! arbitrary metric such as the number of buildings simulated per second.
//! This definition, however, has little meaning" (paper §III.A). The proxy
//! couples a fast CFD loop (channel 0) with a slow building-energy step
//! (channel 1): one EnergyPlus step per `CFD_PER_EP` CFD steps. A single
//! metric on either channel misrepresents the whole — the motivation for
//! the weighted-composition extension (`nrm::composition`).

use progress::event::MetricDesc;
use simnode::config::NodeConfig;
use simnode::node::WorkPacket;

use crate::catalog::AppInstance;
use crate::programs::packet_bits;
use crate::runtime::{downcast, Action, Program};
use crate::spec::KernelSpec;

/// CFD steps per EnergyPlus step (disparate timescales).
pub const CFD_PER_EP: u64 = 50;

/// Fast CFD kernel.
pub fn cfd_spec(ranks: usize) -> KernelSpec {
    KernelSpec::new(0.78, 0.25, 6.0e-3, ranks)
}

/// Slow building-energy kernel.
pub fn ep_spec(ranks: usize) -> KernelSpec {
    KernelSpec::new(0.55, 2.0, 12.0e-3, ranks)
}

struct UrbanProgram {
    cfd: WorkPacket,
    ep: WorkPacket,
    cfd_done_in_cycle: u64,
    in_ep: bool,
    step: u8,
}

impl Program for UrbanProgram {
    fn next_action(&mut self, rank: usize) -> Action {
        loop {
            match self.step {
                0 => {
                    self.step = 1;
                    return if self.in_ep {
                        Action::Compute(self.ep)
                    } else {
                        Action::Compute(self.cfd)
                    };
                }
                1 => {
                    self.step = 2;
                    return Action::Barrier;
                }
                _ => {
                    self.step = 0;
                    let report = if self.in_ep {
                        self.in_ep = false;
                        self.cfd_done_in_cycle = 0;
                        (rank == 0).then_some(Action::Report {
                            channel: 1,
                            value: 1.0,
                        })
                    } else {
                        self.cfd_done_in_cycle += 1;
                        if self.cfd_done_in_cycle >= CFD_PER_EP {
                            self.in_ep = true;
                        }
                        (rank == 0).then_some(Action::Report {
                            channel: 0,
                            value: 1.0,
                        })
                    };
                    if let Some(r) = report {
                        return r;
                    }
                }
            }
        }
    }

    fn is_replica_of(&self, other: &dyn Program) -> bool {
        downcast::<Self>(other).is_some_and(|o| {
            packet_bits(&self.cfd) == packet_bits(&o.cfd)
                && packet_bits(&self.ep) == packet_bits(&o.ep)
                && self.cfd_done_in_cycle == o.cfd_done_in_cycle
                && self.in_ep == o.in_ep
                && self.step == o.step
        })
    }
}

/// Build the proxy for `ranks` ranks.
pub fn instance(cfg: &NodeConfig, ranks: usize, _seed: u64) -> AppInstance {
    let cfd = cfd_spec(ranks).packet(cfg);
    let ep = ep_spec(ranks).packet(cfg);
    let programs: Vec<Box<dyn Program>> = (0..ranks)
        .map(|_| {
            Box::new(UrbanProgram {
                cfd,
                ep,
                cfd_done_in_cycle: 0,
                in_ep: false,
                step: 0,
            }) as _
        })
        .collect();
    AppInstance {
        name: "URBAN",
        metrics: vec![
            MetricDesc::new("CFD timesteps per second", "timesteps"),
            MetricDesc::new("building steps per second", "building steps"),
        ],
        programs,
        primary_spec: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timescales_are_orders_of_magnitude_apart() {
        // CFD ≈ 4 steps/s; EnergyPlus ≈ one step per 50·0.25 s + 2 s ≈
        // 0.07 steps/s: ~57× apart.
        let cfd_rate = 1.0 / 0.25;
        let ep_rate = 1.0 / (CFD_PER_EP as f64 * 0.25 + 2.0);
        assert!(cfd_rate / ep_rate > 30.0);
    }

    #[test]
    fn two_component_channels() {
        let app = instance(&NodeConfig::default(), 8, 0);
        assert_eq!(app.metrics.len(), 2);
        assert_eq!(app.channels(), 2);
    }
}
