//! Closed-form workload calibration.
//!
//! Under the simulator's overlap-free execution model, an iteration taking
//! `T` seconds at `f_max` with compute-boundedness β spends `β·T` on
//! compute and `(1−β)·T` on memory. Inverting:
//!
//! - `cycles = β·T·f_max`
//! - `misses = (1−β)·T · bw_eff / line`, where `bw_eff` is the per-core
//!   bandwidth with all ranks memory-active, scaled by the workload's
//!   memory-level parallelism (latency-bound codes like OpenMC have low
//!   MLP: each miss stalls longer while moving the same bytes);
//! - `instructions = misses / MPO` (so the measured MPO lands on the
//!   paper's Table VI value), with an IPC-based fallback when the workload
//!   generates no misses.
//!
//! The proxy applications in [`crate::apps`] are all built from these
//! specs; integration tests then *measure* β and MPO on the simulator and
//! check they come back at the Table VI values.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use simnode::config::NodeConfig;
use simnode::node::WorkPacket;

/// Calibration spec for one kernel (one iteration of one rank).
///
/// ```
/// use proxyapps::spec::KernelSpec;
/// use simnode::config::NodeConfig;
///
/// // A STREAM-like iteration: beta = 0.37, 62.5 ms at fmax, Table VI MPO.
/// let cfg = NodeConfig::default();
/// let spec = KernelSpec::new(0.37, 0.0625, 50.9e-3, 24);
/// let packet = spec.packet(&cfg);
/// // The packet's timing reconstructs the iteration time at fmax...
/// let t = packet.cycles / 3.3e9
///     + packet.misses * cfg.uncore.bytes_per_miss / spec.effective_bw(&cfg);
/// assert!((t - 0.0625).abs() < 1e-9);
/// // ...and its counter mix lands on the target MPO.
/// assert!((packet.misses / packet.instructions - 50.9e-3).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KernelSpec {
    /// Target compute-boundedness at `f_max` with all ranks active.
    pub beta: f64,
    /// Per-iteration wall time at `f_max`, seconds (balanced ranks).
    pub iter_seconds: f64,
    /// Target misses-per-operation (0 = no memory traffic).
    pub mpo: f64,
    /// Memory-level parallelism factor in (0, 1]: 1 = bandwidth-streaming,
    /// small values = dependent (latency-bound) misses.
    pub mlp: f64,
    /// Ranks that will run concurrently (determines contention).
    pub ranks: usize,
    /// Fallback IPC for computing instruction counts when `mpo == 0`.
    pub fallback_ipc: f64,
}

impl KernelSpec {
    /// A compute-dominated spec with sensible defaults.
    pub fn new(beta: f64, iter_seconds: f64, mpo: f64, ranks: usize) -> Self {
        assert!((0.0..=1.0).contains(&beta), "beta in [0,1]");
        assert!(iter_seconds > 0.0, "iteration time positive");
        assert!(mpo >= 0.0, "mpo non-negative");
        assert!(ranks >= 1, "at least one rank");
        Self {
            beta,
            iter_seconds,
            mpo,
            mlp: 1.0,
            ranks,
            fallback_ipc: 1.5,
        }
    }

    /// Set the memory-level-parallelism factor.
    ///
    /// # Panics
    /// Panics unless `0 < mlp <= 1`.
    pub fn with_mlp(mut self, mlp: f64) -> Self {
        assert!(mlp > 0.0 && mlp <= 1.0, "mlp in (0,1]");
        self.mlp = mlp;
        self
    }

    /// The aggregate memory pressure this workload generates: every rank
    /// spends `(1 − β)` of its time pulling from memory at its MLP.
    pub fn pressure(&self) -> f64 {
        self.ranks as f64 * (1.0 - self.beta) * self.mlp
    }

    /// Effective per-core memory service rate for this spec at the node's
    /// fastest uncore level, bytes/s (matches the node's queueing model).
    pub fn effective_bw(&self, cfg: &NodeConfig) -> f64 {
        cfg.uncore
            .service_rate(cfg.uncore.max_level(), self.pressure(), self.mlp)
    }

    /// Every field, floats as their bits: exact equality for replica
    /// checks.
    pub(crate) fn bits(&self) -> [u64; 6] {
        let f = f64::to_bits;
        [
            f(self.beta),
            f(self.iter_seconds),
            f(self.mpo),
            f(self.mlp),
            self.ranks as u64,
            f(self.fallback_ipc),
        ]
    }

    /// Synthesize the per-iteration work packet.
    pub fn packet(&self, cfg: &NodeConfig) -> WorkPacket {
        let fmax_hz = cfg.fmax_mhz() as f64 * 1e6;
        let t_comp = self.beta * self.iter_seconds;
        let t_mem = (1.0 - self.beta) * self.iter_seconds;
        let cycles = t_comp * fmax_hz;
        let misses = t_mem * self.effective_bw(cfg) / cfg.uncore.bytes_per_miss;
        let instructions = if misses > 0.0 && self.mpo > 0.0 {
            misses / self.mpo
        } else {
            cycles * self.fallback_ipc
        };
        WorkPacket {
            cycles,
            misses,
            instructions,
            mlp: self.mlp,
            mem_weight: ((1.0 - self.beta) * self.mlp).clamp(0.0, 1.0),
        }
    }

    /// The packet scaled by a factor (e.g. iteration-cost noise, or a
    /// partial iteration).
    pub fn scaled_packet(&self, cfg: &NodeConfig, factor: f64) -> WorkPacket {
        assert!(factor > 0.0, "scale factor must be positive");
        let p = self.packet(cfg);
        WorkPacket {
            cycles: p.cycles * factor,
            misses: p.misses * factor,
            instructions: p.instructions * factor,
            mlp: p.mlp,
            mem_weight: p.mem_weight,
        }
    }
}

/// Deterministic, rank-symmetric per-iteration noise: every rank computes
/// the same factor for the same iteration (the whole solver iteration is
/// cheaper or dearer, not one rank), so noise does not create imbalance.
///
/// Returns a factor uniform in `[1 − amplitude, 1 + amplitude]`.
pub fn iteration_noise(seed: u64, iteration: u64, amplitude: f64) -> f64 {
    assert!((0.0..1.0).contains(&amplitude), "amplitude in [0,1)");
    if amplitude == 0.0 {
        return 1.0;
    }
    // Mix seed and iteration through SplitMix-style avalanche into a
    // one-shot RNG; cheap and reproducible.
    let mut z = seed ^ iteration.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    let mut rng = SmallRng::seed_from_u64(z ^ (z >> 31));
    1.0 + rng.random_range(-amplitude..=amplitude)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> NodeConfig {
        NodeConfig::default()
    }

    #[test]
    fn packet_times_reconstruct_iteration_time() {
        // Execute the packet "by hand" with the simulator's timing formula
        // and check it lands on iter_seconds at fmax.
        let c = cfg();
        for &(beta, mpo, mlp) in &[(1.0, 0.0, 1.0), (0.52, 30.1e-3, 1.0), (0.93, 0.2e-3, 0.15)] {
            let spec = KernelSpec::new(beta, 0.05, mpo, 24).with_mlp(mlp);
            let p = spec.packet(&c);
            let t_comp = p.cycles / (c.fmax_mhz() as f64 * 1e6);
            let t_mem = p.misses * c.uncore.bytes_per_miss / spec.effective_bw(&c);
            let t = t_comp + t_mem;
            assert!(
                (t - 0.05).abs() < 1e-9,
                "β={beta}: reconstructed {t}, wanted 0.05"
            );
        }
    }

    #[test]
    fn mpo_of_packet_matches_target() {
        let c = cfg();
        let spec = KernelSpec::new(0.37, 0.0625, 50.9e-3, 24);
        let p = spec.packet(&c);
        let mpo = p.misses / p.instructions;
        assert!((mpo - 50.9e-3).abs() / 50.9e-3 < 1e-9);
    }

    #[test]
    fn pure_compute_uses_fallback_ipc() {
        let c = cfg();
        let spec = KernelSpec::new(1.0, 0.01, 0.0, 24);
        let p = spec.packet(&c);
        assert_eq!(p.misses, 0.0);
        assert!((p.instructions - p.cycles * 1.5).abs() < 1e-6);
    }

    #[test]
    fn low_mlp_means_fewer_misses_for_same_memory_time() {
        let c = cfg();
        let fast = KernelSpec::new(0.5, 0.01, 1e-3, 24).packet(&c);
        let slow = KernelSpec::new(0.5, 0.01, 1e-3, 24)
            .with_mlp(0.2)
            .packet(&c);
        assert!(
            slow.misses < fast.misses * 0.75,
            "dependent misses move fewer bytes per unit stall time: {} vs {}",
            slow.misses,
            fast.misses
        );
    }

    #[test]
    fn noise_is_rank_symmetric_and_bounded() {
        for it in 0..100u64 {
            let a = iteration_noise(42, it, 0.1);
            let b = iteration_noise(42, it, 0.1);
            assert_eq!(a, b, "same (seed, iteration) must agree across ranks");
            assert!((0.9..=1.1).contains(&a));
        }
        // Different iterations should differ (not all equal).
        let vals: Vec<f64> = (0..10).map(|i| iteration_noise(42, i, 0.1)).collect();
        assert!(vals.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn zero_amplitude_noise_is_exactly_one() {
        assert_eq!(iteration_noise(7, 3, 0.0), 1.0);
    }

    #[test]
    fn scaled_packet_scales_all_fields() {
        let c = cfg();
        let spec = KernelSpec::new(0.8, 0.02, 1e-3, 24);
        let p = spec.packet(&c);
        let s = spec.scaled_packet(&c, 1.5);
        assert!((s.cycles - 1.5 * p.cycles).abs() < 1e-6);
        assert!((s.misses - 1.5 * p.misses).abs() < 1e-6);
        assert!((s.instructions - 1.5 * p.instructions).abs() < 1e-3);
    }
}
