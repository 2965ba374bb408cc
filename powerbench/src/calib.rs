//! Host-speed calibration.
//!
//! On a shared host the CPU time of a fixed op still moves, by 30% and
//! more within minutes, because a neighbour on the same physical core or
//! memory channel slows every instruction the benchmark retires. A fixed
//! reference kernel, run between the timed ops, slows with it. The
//! end-to-end timings are the measured CPU times scaled by
//! `REFERENCE_S / mean kernel time`: CPU seconds on a host running the
//! kernel in `REFERENCE_S`.
//!
//! The kernel is shaped like the simulators it calibrates, since a busy
//! neighbour slows some code more than other: it steps a set of
//! heap-allocated cells through trait objects, coupling each to another
//! at random, with floating-point state updates and data-dependent
//! branches over about 1.3 MiB. The kernel belongs to the benchmark, so a
//! change to the repository's code cannot move it.

use std::hint::black_box;
use std::time::Instant;

use crate::cpu;

/// Cells the kernel steps.
const CELLS: usize = 16_384;
/// Sweeps over every cell per kernel run.
const SWEEPS: usize = 4;
/// The kernel's CPU time on the reference host, the unit the timings are
/// scaled to: a run whose kernel takes 1 ms reports CPU times unscaled.
pub const REFERENCE_S: f64 = 0.001;
/// Kernel runs per second of measurement. They are made up in the gaps
/// between ops, so that the kernel's mean weights every stretch of the run
/// as the op times do.
const RUNS_PER_S: f64 = 10.0;

trait Cell {
    fn step(&mut self, x: f64) -> f64;
}

struct Leaky([f64; 6]);

impl Cell for Leaky {
    fn step(&mut self, x: f64) -> f64 {
        let v = &mut self.0;
        v[0] += x * 0.01;
        v[1] = v[0].max(v[2]) * 0.99;
        v[2] += (v[1] - x).abs().sqrt() * 1e-3;
        v[3]
    }
}

struct Peak([f64; 6]);

impl Cell for Peak {
    fn step(&mut self, x: f64) -> f64 {
        let v = &mut self.0;
        if x > v[4] {
            v[4] = x;
        } else {
            v[5] += 1.0;
        }
        v[3] = v[4] - v[5] * 1e-6;
        v[0]
    }
}

/// The reference kernel and its timings over one run.
pub struct Calibrator {
    cells: Vec<Box<dyn Cell>>,
    rng: u64,
    samples: Vec<f64>,
    /// When the kernel last ran.
    last: Instant,
}

impl Default for Calibrator {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibrator {
    /// Builds the kernel's cells; no run is timed yet.
    pub fn new() -> Self {
        let cells = (0..CELLS)
            .map(|i| -> Box<dyn Cell> {
                if i % 3 == 0 {
                    Box::new(Leaky([1.0; 6]))
                } else {
                    Box::new(Peak([1.0; 6]))
                }
            })
            .collect();
        Self {
            cells,
            rng: 0x9e37_79b9_7f4a_7c15,
            samples: Vec::new(),
            last: Instant::now(),
        }
    }

    fn kernel(&mut self) -> f64 {
        let mut acc = 0.0;
        for _ in 0..SWEEPS {
            for i in 0..CELLS {
                // xorshift64
                self.rng ^= self.rng << 13;
                self.rng ^= self.rng >> 7;
                self.rng ^= self.rng << 17;
                let j = (self.rng % CELLS as u64) as usize;
                let c = self.cells[j].step(acc * 1e-9);
                acc += self.cells[i].step(c);
            }
        }
        acc
    }

    /// Times one kernel run.
    pub fn sample(&mut self) {
        let (acc, secs) = cpu::timed(|| self.kernel());
        black_box(acc);
        self.samples.push(secs);
    }

    /// Times one kernel run per tenth of a second passed since the last
    /// runs; call it between ops.
    pub fn tick(&mut self) {
        let runs = (self.last.elapsed().as_secs_f64() * RUNS_PER_S).floor() as usize;
        if runs > 0 {
            for _ in 0..runs {
                self.sample();
            }
            self.last = Instant::now();
        }
    }

    /// Kernel runs timed so far.
    pub fn runs(&self) -> usize {
        self.samples.len()
    }

    /// The factor taking this run's CPU times to the reference host's:
    /// `REFERENCE_S` over the mean kernel time, or NaN before any run.
    pub fn scale(&self) -> f64 {
        let mean = self.samples.iter().sum::<f64>() / self.samples.len() as f64;
        REFERENCE_S / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_run_the_kernel_once_per_tenth_of_a_second() {
        let mut c = Calibrator::new();
        assert!(c.scale().is_nan());
        c.tick();
        assert_eq!(c.runs(), 0);
        std::thread::sleep(std::time::Duration::from_millis(250));
        c.tick();
        assert!(c.runs() >= 2, "{} runs after 250 ms", c.runs());
        let scale = c.scale();
        assert!(scale.is_finite() && scale > 0.0, "scale {scale}");
    }
}
