//! Property-based tests for workload calibration and program shapes.

#![cfg(test)]

use proptest::prelude::*;

use crate::catalog::{build, AppId};
use crate::programs::{IterSegment, PhasedProgram};
use crate::runtime::{Action, Program};
use crate::spec::{iteration_noise, KernelSpec};
use simnode::config::NodeConfig;

proptest! {
    /// The closed-form calibration reconstructs the requested iteration
    /// time at `f_max` for any (β, MPO, MLP, ranks) combination.
    #[test]
    fn packet_timing_reconstructs_for_any_spec(
        beta in 0.0f64..=1.0,
        iter_ms in 1.0f64..500.0,
        mpo in 0.0f64..0.1,
        mlp in 0.05f64..=1.0,
        ranks in 1usize..=24,
    ) {
        let cfg = NodeConfig::default();
        let spec = KernelSpec::new(beta, iter_ms * 1e-3, mpo, ranks).with_mlp(mlp);
        let p = spec.packet(&cfg);
        let t = p.cycles / (cfg.fmax_mhz() as f64 * 1e6)
            + p.misses * cfg.uncore.bytes_per_miss / spec.effective_bw(&cfg);
        prop_assert!(
            (t - iter_ms * 1e-3).abs() < 1e-9,
            "reconstructed {t}, wanted {}",
            iter_ms * 1e-3
        );
        // Counter mix lands on the MPO target whenever traffic exists.
        if p.misses > 0.0 && mpo > 0.0 {
            prop_assert!((p.misses / p.instructions - mpo).abs() / mpo < 1e-9);
        }
        // Packet pressure weight is consistent with the spec.
        prop_assert!((p.mem_weight - (1.0 - beta) * mlp).abs() < 1e-12);
    }

    /// A phased program emits exactly `iters × subpackets` compute actions
    /// and `iters` barriers per segment, then finishes, for any shape.
    #[test]
    fn phased_program_action_count_is_exact(
        iters in 1u64..20,
        subpackets in 1usize..6,
        noise in 0.0f64..0.3,
        rank in 0usize..8,
    ) {
        let cfg = NodeConfig::default();
        let spec = KernelSpec::new(0.8, 0.01, 1e-3, 8);
        let seg = IterSegment::new(spec, iters, 1.0)
            .with_subpackets(subpackets)
            .with_noise(noise);
        let mut p = PhasedProgram::new(&cfg, vec![seg], 42);
        let (mut computes, mut barriers, mut reports) = (0u64, 0u64, 0u64);
        loop {
            match p.next_action(rank) {
                Action::Compute(_) => computes += 1,
                Action::Barrier => barriers += 1,
                Action::Report { .. } => reports += 1,
                Action::Done => break,
                _ => {}
            }
        }
        prop_assert_eq!(computes, iters * subpackets as u64);
        prop_assert_eq!(barriers, iters);
        prop_assert_eq!(reports, if rank == 0 { iters } else { 0 });
    }

    /// Iteration noise is bounded, rank-symmetric, and mean-centred.
    #[test]
    fn iteration_noise_is_bounded_and_centred(seed in any::<u64>(), amp in 0.0f64..0.5) {
        let vals: Vec<f64> = (0..400).map(|i| iteration_noise(seed, i, amp)).collect();
        for &v in &vals {
            prop_assert!(v >= 1.0 - amp - 1e-12 && v <= 1.0 + amp + 1e-12);
        }
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        prop_assert!((mean - 1.0).abs() < amp * 0.25 + 1e-12, "mean {mean}");
    }

    /// Scaled packets preserve the MPO and MLP of the base packet.
    #[test]
    fn scaling_preserves_ratios(factor in 0.1f64..10.0) {
        let cfg = NodeConfig::default();
        let spec = KernelSpec::new(0.5, 0.02, 5e-3, 12).with_mlp(0.4);
        let base = spec.packet(&cfg);
        let scaled = spec.scaled_packet(&cfg, factor);
        prop_assert!(
            (scaled.misses / scaled.instructions - base.misses / base.instructions).abs() < 1e-12
        );
        prop_assert_eq!(scaled.mlp, base.mlp);
        prop_assert_eq!(scaled.mem_weight, base.mem_weight);
    }

    /// The replica contract the driver's lockstep path relies on: two
    /// replicas run as rank 0 and as any other rank take the same
    /// blocking actions, the other rank emits no report or phase, and
    /// they stay replicas after every blocking action.
    #[test]
    fn replicas_stay_replicas_on_every_rank(
        app in 0usize..AppId::PAPER.len(),
        seed in any::<u64>(),
        rank in 1usize..24,
    ) {
        let mut programs = build(AppId::PAPER[app], &NodeConfig::default(), 24, seed).programs;
        let mut other = programs.swap_remove(rank);
        let root = &mut programs[0];
        prop_assert!(other.is_replica_of(root.as_ref()));
        // Enough steps to cross QMCPACK's and OpenMC's phase changes.
        for _ in 0..1_500 {
            let blocking = loop {
                match root.next_action(0) {
                    Action::Report { .. } | Action::Phase(_) => {}
                    a => break a,
                }
            };
            prop_assert_eq!(other.next_action(rank), blocking.clone());
            prop_assert!(other.is_replica_of(root.as_ref()));
            if blocking == Action::Done {
                break;
            }
        }
    }
}
