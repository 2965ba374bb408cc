//! Uncore / memory-subsystem model.
//!
//! The uncore runs its own frequency ladder (Skylake "uncore frequency
//! scaling"). Total memory bandwidth scales with uncore frequency and is
//! shared among memory-active cores, each additionally limited by a
//! per-core concurrency ceiling. Uncore power has a base floor, a term
//! proportional to achieved traffic, and a `uf²` term — so a streaming
//! workload pushes a large share of package power into the uncore, which is
//! what makes RAPL's demand-proportional budget split "application-aware"
//! (paper Fig. 2) and what the paper's DVFS-only model cannot see when the
//! uncore gets throttled (paper Fig. 4d / Fig. 5).

use serde::{Deserialize, Serialize};

/// Index into the uncore frequency ladder. Higher = faster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct UncoreLevel(pub usize);

/// Parameters of the uncore model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UncoreConfig {
    /// Uncore frequency at the lowest level, GHz.
    pub uf_min_ghz: f64,
    /// Uncore frequency at the highest level, GHz.
    pub uf_max_ghz: f64,
    /// Number of uncore frequency levels.
    pub levels: usize,
    /// Peak node memory bandwidth at `uf_max`, bytes/s.
    pub peak_bw: f64,
    /// Per-core concurrency-limited bandwidth ceiling at `uf_max`, bytes/s.
    pub percore_peak_bw: f64,
    /// Cache-line transfer size, bytes per L3 miss.
    pub bytes_per_miss: f64,
    /// Base uncore power (fabric, memory controllers idle), W.
    pub p_base: f64,
    /// Uncore power per achieved GB/s of traffic, W.
    pub p_per_gbs: f64,
    /// Uncore power coefficient on `uf²` (W per GHz²).
    pub p_uf2: f64,
    /// Latency flattening in [0, 1]: single-stream service speed scales as
    /// `lat_flat + (1 - lat_flat)·scale(level)` — DRAM timing dominates
    /// unloaded latency, so throttling the uncore cuts the *pipe* linearly
    /// but stretches per-miss latency only mildly.
    pub lat_flat: f64,
}

impl UncoreConfig {
    /// Fastest uncore level.
    pub fn max_level(&self) -> UncoreLevel {
        UncoreLevel(self.levels - 1)
    }

    /// Slowest uncore level.
    pub fn min_level(&self) -> UncoreLevel {
        UncoreLevel(0)
    }

    /// Iterate over levels from slowest to fastest.
    pub fn iter_levels(&self) -> impl DoubleEndedIterator<Item = UncoreLevel> {
        (0..self.levels).map(UncoreLevel)
    }

    /// Uncore frequency of `level` in GHz.
    pub fn ghz(&self, level: UncoreLevel) -> f64 {
        assert!(level.0 < self.levels, "uncore level out of range");
        if self.levels == 1 {
            return self.uf_max_ghz;
        }
        let t = level.0 as f64 / (self.levels - 1) as f64;
        self.uf_min_ghz + t * (self.uf_max_ghz - self.uf_min_ghz)
    }

    /// Frequency-scaling factor of `level` relative to the fastest level.
    pub fn scale(&self, level: UncoreLevel) -> f64 {
        self.ghz(level) / self.uf_max_ghz
    }

    /// Total node bandwidth available at `level`, bytes/s.
    pub fn total_bw(&self, level: UncoreLevel) -> f64 {
        self.peak_bw * self.scale(level)
    }

    /// Per-core concurrency ceiling on the service rate at `level`,
    /// bytes/s: the part of [`service_pipe`](Self::service_pipe) that does
    /// not depend on pressure.
    pub fn service_cap(&self, level: UncoreLevel) -> f64 {
        self.percore_peak_bw * self.latency_scale(level)
    }

    /// Latency-driven per-core service scale at `level` (see `lat_flat`).
    pub fn latency_scale(&self, level: UncoreLevel) -> f64 {
        self.lat_flat + (1.0 - self.lat_flat) * self.scale(level)
    }

    /// Service rate seen by a core *while it is pulling* from memory,
    /// bytes/s, given the node's aggregate memory `pressure` — the
    /// expected number of concurrently demanding cores, i.e. the sum over
    /// cores of (memory-time fraction × MLP). A core that spends 16% of
    /// its time on memory loads the pipe far less than a streaming core,
    /// so dividing the pipe by the raw count of cores *holding* misses
    /// would overstate contention badly.
    ///
    /// The rate is the fair pipe share at that pressure, capped by the
    /// per-core concurrency ceiling (which shrinks only mildly with uncore
    /// frequency — unloaded latency is DRAM-dominated); `mlp` scales the
    /// final rate for dependent-miss workloads.
    pub fn service_rate(&self, level: UncoreLevel, pressure: f64, mlp: f64) -> f64 {
        self.service_pipe(level, pressure) * mlp
    }

    /// The part of [`service_rate`](Self::service_rate) every core shares
    /// in a step: the fair pipe share at `pressure`, capped by the
    /// per-core ceiling, before a core's own MLP scales it. The node
    /// computes it once per step and multiplies by each core's `mlp`.
    pub fn service_pipe(&self, level: UncoreLevel, pressure: f64) -> f64 {
        let share = self.total_bw(level) / pressure.max(1.0);
        share.min(self.service_cap(level))
    }

    /// Back-compat shim used by tests: fair share among `n` always-pulling
    /// cores (pressure = n, MLP = 1).
    pub fn percore_bw(&self, level: UncoreLevel, n_mem_active: usize) -> f64 {
        self.service_rate(level, n_mem_active as f64, 1.0)
    }

    /// Time for one core to service `misses` L3 misses, seconds, at unit
    /// MLP under pressure `n_mem_active`.
    pub fn service_time(&self, level: UncoreLevel, n_mem_active: usize, misses: f64) -> f64 {
        misses * self.bytes_per_miss / self.percore_bw(level, n_mem_active)
    }

    /// Uncore power given achieved traffic (bytes/s) and frequency level.
    pub fn power(&self, level: UncoreLevel, achieved_bw: f64) -> f64 {
        self.p_base + self.p_per_gbs * achieved_bw * 1e-9 + self.freq_power(level)
    }

    /// The frequency term of [`power`](Self::power), `p_uf2·uf²`, W.
    pub fn freq_power(&self, level: UncoreLevel) -> f64 {
        let uf = self.ghz(level);
        self.p_uf2 * uf * uf
    }

    /// Validate physical plausibility.
    ///
    /// # Panics
    /// Panics on non-physical parameters.
    pub fn validate(&self) {
        assert!(self.levels >= 1);
        assert!(self.uf_min_ghz > 0.0 && self.uf_max_ghz >= self.uf_min_ghz);
        assert!(self.peak_bw > 0.0 && self.percore_peak_bw > 0.0);
        assert!(self.bytes_per_miss > 0.0);
        assert!(self.p_base >= 0.0 && self.p_per_gbs >= 0.0 && self.p_uf2 >= 0.0);
        assert!((0.0..=1.0).contains(&self.lat_flat), "lat_flat in [0,1]");
    }
}

impl Default for UncoreConfig {
    /// Calibrated for a 6-channel DDR4-2666-class node: ~100 GB/s peak,
    /// ~12 GB/s single-core ceiling, ~20 W idle uncore floor.
    fn default() -> Self {
        Self {
            uf_min_ghz: 1.0,
            uf_max_ghz: 2.4,
            levels: 8,
            peak_bw: 100.0e9,
            percore_peak_bw: 12.0e9,
            bytes_per_miss: 64.0,
            p_base: 12.0,
            p_per_gbs: 0.35,
            p_uf2: 0.8,
            lat_flat: 0.85,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> UncoreConfig {
        UncoreConfig::default()
    }

    #[test]
    fn level_frequencies_span_range() {
        let c = cfg();
        assert!((c.ghz(c.min_level()) - 1.0).abs() < 1e-12);
        assert!((c.ghz(c.max_level()) - 2.4).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_is_shared_until_percore_ceiling() {
        let c = cfg();
        let top = c.max_level();
        // One core: limited by per-core ceiling, not the node pipe.
        assert!((c.percore_bw(top, 1) - 12.0e9).abs() < 1.0);
        // 24 cores: fair share of the pipe.
        assert!((c.percore_bw(top, 24) - 100.0e9 / 24.0).abs() < 1.0);
    }

    #[test]
    fn throttling_uncore_scales_bandwidth() {
        let c = cfg();
        let lo = c.min_level();
        let ratio = c.total_bw(lo) / c.total_bw(c.max_level());
        assert!((ratio - 1.0 / 2.4).abs() < 1e-9);
    }

    #[test]
    fn service_time_inversely_proportional_to_bw() {
        let c = cfg();
        let t_fast = c.service_time(c.max_level(), 24, 1e6);
        let t_slow = c.service_time(c.min_level(), 24, 1e6);
        assert!(t_slow > t_fast * 2.0);
    }

    #[test]
    fn streaming_uncore_power_is_substantial() {
        let c = cfg();
        let p = c.power(c.max_level(), 95.0e9);
        assert!(
            (45.0..80.0).contains(&p),
            "streaming uncore power {p:.1} W outside calibration band"
        );
        let idle = c.power(c.max_level(), 0.0);
        assert!(idle < 25.0, "idle uncore power {idle:.1} W too high");
    }
}
