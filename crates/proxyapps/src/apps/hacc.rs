//! HACC proxy — multi-component cosmology (Category 3, paper §III.A).
//!
//! HACC has "many individual components with distinct performance
//! characteristics": a compute-bound short-range force kernel every step,
//! a bandwidth-bound long-range (FFT) solve every few steps, and periodic
//! analysis/IO stalls. Timesteps therefore do *not* proceed at a uniform
//! rate — "the number of timesteps per second cannot be used to measure
//! online performance reliably" — which is exactly what makes HACC
//! Category 3 and motivates the per-component composition extension (see
//! `nrm::composition` consumers in the harness).

use progress::event::MetricDesc;
use simnode::config::NodeConfig;
use simnode::node::WorkPacket;
use simnode::time::{Nanos, MS};

use crate::catalog::AppInstance;
use crate::programs::packet_bits;
use crate::runtime::{downcast, Action, Program};
use crate::spec::KernelSpec;

/// Long-range solve period, in timesteps.
pub const LONG_RANGE_EVERY: u64 = 5;
/// Analysis/IO period, in timesteps.
pub const IO_EVERY: u64 = 10;
/// IO stall per occurrence.
pub const IO_STALL: Nanos = 800 * MS;

/// Short-range force kernel (compute bound).
pub fn short_spec(ranks: usize) -> KernelSpec {
    KernelSpec::new(0.97, 0.45, 0.4e-3, ranks)
}

/// Long-range FFT kernel (bandwidth bound).
pub fn long_spec(ranks: usize) -> KernelSpec {
    KernelSpec::new(0.45, 1.2, 25.0e-3, ranks)
}

#[derive(PartialEq)]
enum Step {
    Short,
    Long,
    Io,
    Barrier,
    Report,
}

struct HaccProgram {
    short: WorkPacket,
    long: WorkPacket,
    timestep: u64,
    max_steps: u64,
    step: Step,
}

impl Program for HaccProgram {
    fn next_action(&mut self, rank: usize) -> Action {
        loop {
            if self.timestep >= self.max_steps {
                return Action::Done;
            }
            match self.step {
                Step::Short => {
                    self.step = if (self.timestep + 1).is_multiple_of(LONG_RANGE_EVERY) {
                        Step::Long
                    } else if (self.timestep + 1).is_multiple_of(IO_EVERY) {
                        Step::Io
                    } else {
                        Step::Barrier
                    };
                    return Action::Compute(self.short);
                }
                Step::Long => {
                    self.step = if (self.timestep + 1).is_multiple_of(IO_EVERY) {
                        Step::Io
                    } else {
                        Step::Barrier
                    };
                    return Action::Compute(self.long);
                }
                Step::Io => {
                    self.step = Step::Barrier;
                    return Action::Sleep(IO_STALL);
                }
                Step::Barrier => {
                    self.step = Step::Report;
                    return Action::Barrier;
                }
                Step::Report => {
                    self.timestep += 1;
                    self.step = Step::Short;
                    if rank == 0 {
                        return Action::Report {
                            channel: 0,
                            value: 1.0,
                        };
                    }
                }
            }
        }
    }

    fn is_replica_of(&self, other: &dyn Program) -> bool {
        downcast::<Self>(other).is_some_and(|o| {
            packet_bits(&self.short) == packet_bits(&o.short)
                && packet_bits(&self.long) == packet_bits(&o.long)
                && self.timestep == o.timestep
                && self.max_steps == o.max_steps
                && self.step == o.step
        })
    }
}

/// Build the proxy for `ranks` ranks.
pub fn instance(cfg: &NodeConfig, ranks: usize, _seed: u64) -> AppInstance {
    let short = short_spec(ranks).packet(cfg);
    let long = long_spec(ranks).packet(cfg);
    let programs: Vec<Box<dyn Program>> = (0..ranks)
        .map(|_| {
            Box::new(HaccProgram {
                short,
                long,
                timestep: 0,
                max_steps: 1_000_000,
                step: Step::Short,
            }) as _
        })
        .collect();
    AppInstance {
        name: "HACC",
        metrics: vec![MetricDesc::new("timesteps per second", "timesteps")],
        programs,
        primary_spec: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestep_cost_is_non_uniform() {
        // Plain step ≈ 0.45 s; every 5th adds 1.2 s; every 10th adds 0.8 s
        // of IO: the per-step wall time varies by ~3–4×, defeating a
        // "timesteps per second" metric.
        let plain = 0.45;
        let with_long = 0.45 + 1.2;
        let with_all = 0.45 + 1.2 + 0.8;
        assert!(with_all / plain > 3.0);
        assert!(with_long / plain > 3.0);
    }

    #[test]
    fn components_have_opposite_boundedness() {
        assert!(short_spec(24).beta > 0.9);
        assert!(long_spec(24).beta < 0.5);
    }
}
