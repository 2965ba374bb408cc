//! Package energy accounting and rolling-average power measurement.
//!
//! RAPL enforces an *average* power over a programmable time window, so the
//! controller needs the average package power over the last `W` nanoseconds.
//! [`EnergyMeter`] keeps cumulative energy samples in a ring and answers
//! that query in O(1) amortised.

use std::cell::Cell;
use std::collections::VecDeque;

use crate::time::{secs, Nanos};

/// Cumulative package energy with a bounded history for windowed averages.
#[derive(Debug, Clone)]
pub struct EnergyMeter {
    /// Total energy since construction, joules.
    total_j: f64,
    /// (time, cumulative joules) history, oldest first.
    history: VecDeque<(Nanos, f64)>,
    /// How much history to retain.
    retain: Nanos,
    /// Samples trimmed from the front so far: `history[i]` has absolute
    /// index `trimmed + i`.
    trimmed: usize,
    /// Absolute index of the segment end the last lookup found: the RAPL
    /// window slides forward with the samples, so the next lookup starts
    /// its search here.
    cursor: Cell<usize>,
}

impl EnergyMeter {
    /// Create a meter retaining at least `retain` nanoseconds of history.
    pub fn new(retain: Nanos) -> Self {
        let mut history = VecDeque::with_capacity(256);
        history.push_back((0, 0.0));
        Self {
            total_j: 0.0,
            history,
            retain,
            trimmed: 0,
            cursor: Cell::new(0),
        }
    }

    /// Record that `joules` were consumed by time `now`.
    ///
    /// # Panics
    /// Panics if `now` moves backwards.
    pub fn record(&mut self, now: Nanos, joules: f64) {
        let last_t = self.history.back().expect("never empty").0;
        assert!(now >= last_t, "energy recorded out of order");
        self.total_j += joules;
        self.history.push_back((now, self.total_j));
        // Trim history older than the retention window, but always keep one
        // sample at or before the window edge so interpolation has an anchor.
        while self.history.len() > 2 {
            let second = self.history[1].0;
            if now.saturating_sub(second) >= self.retain {
                self.history.pop_front();
                self.trimmed += 1;
            } else {
                break;
            }
        }
    }

    /// Total energy consumed so far, joules.
    pub fn total_joules(&self) -> f64 {
        self.total_j
    }

    /// Average power over the trailing `window` ending at the latest sample,
    /// in watts. Shorter-than-window histories average over what exists.
    pub fn average_power(&self, window: Nanos) -> f64 {
        let &(t_end, e_end) = self.history.back().expect("never empty");
        let t_start = t_end.saturating_sub(window);
        // Find the cumulative energy at t_start by linear interpolation.
        let e_start = self.energy_at(t_start);
        let dt = secs(t_end - t_start.min(t_end));
        if dt <= 0.0 {
            return 0.0;
        }
        (e_end - e_start) / dt
    }

    /// Cumulative energy at time `t` (linear interpolation, clamped).
    fn energy_at(&self, t: Nanos) -> f64 {
        let h = &self.history;
        if t <= h.front().expect("never empty").0 {
            return h.front().expect("never empty").1;
        }
        // The first sample later than `t` (the partition point of
        // `ht <= t`), found by galloping from the last answer and then
        // bisecting the bracket. The RAPL controller's window slides a
        // sample or two between queries, so it costs a few probes; a query
        // with another window (the NRM's 1 s average, or a reprogrammed
        // RAPL window) costs O(log distance), not a walk across the
        // history. `h[0]` is not later than `t` and index `n` stands for
        // "past the end", so both gallops stop.
        let n = h.len();
        let later = |i: usize| i == n || h[i].0 > t;
        let from = self.cursor.get().saturating_sub(self.trimmed).clamp(1, n);
        // Bracket the answer between `lo` (not later) and `hi` (later).
        let (mut lo, mut hi) = if later(from) {
            let (mut hi, mut step) = (from, 1);
            loop {
                let probe = hi.saturating_sub(step);
                if !later(probe) {
                    break (probe, hi);
                }
                hi = probe;
                step *= 2;
            }
        } else {
            let (mut lo, mut step) = (from, 1);
            loop {
                let probe = (lo + step).min(n);
                if later(probe) {
                    break (lo, probe);
                }
                lo = probe;
                step *= 2;
            }
        };
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if later(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        let idx = hi;
        self.cursor.set(self.trimmed + idx);
        if idx >= h.len() {
            return h.back().expect("never empty").1;
        }
        let (t0, e0) = h[idx - 1];
        let (t1, e1) = h[idx];
        if t1 == t0 {
            return e1;
        }
        let frac = (t - t0) as f64 / (t1 - t0) as f64;
        e0 + frac * (e1 - e0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{MS, SEC, US};
    use proptest::prelude::*;

    /// [`EnergyMeter::average_power`] with the segment found by scanning
    /// the whole history from the front.
    fn scanned_average(m: &EnergyMeter, window: Nanos) -> f64 {
        let h: Vec<(Nanos, f64)> = m.history.iter().copied().collect();
        let (t_end, e_end) = h[h.len() - 1];
        let t = t_end.saturating_sub(window);
        let e_start = if t <= h[0].0 {
            h[0].1
        } else {
            match h.iter().position(|&(ht, _)| ht > t) {
                None => e_end,
                Some(i) => {
                    let ((t0, e0), (t1, e1)) = (h[i - 1], h[i]);
                    if t1 == t0 {
                        e1
                    } else {
                        e0 + (t - t0) as f64 / (t1 - t0) as f64 * (e1 - e0)
                    }
                }
            }
        };
        let dt = secs(t_end - t.min(t_end));
        if dt <= 0.0 {
            0.0
        } else {
            (e_end - e_start) / dt
        }
    }

    proptest! {
        #[test]
        fn windowed_average_matches_a_full_scan_bit_for_bit(
            retain_ms in 1u64..30,
            // (time step in 500 us units, 0 = a repeated timestamp; joules;
            // two query windows), so windows grow and shrink between and
            // within records while the front of the history is trimmed.
            ops in prop::collection::vec(
                (0u64..4, 0.0f64..1.0, 0u64..80 * MS, 0u64..80 * MS),
                1..400,
            ),
        ) {
            let mut m = EnergyMeter::new(retain_ms * MS);
            let mut now = 0;
            for (step, joules, w1, w2) in ops {
                now += step * 500 * US;
                m.record(now, joules);
                for w in [w1, w2] {
                    let got = m.average_power(w);
                    let want = scanned_average(&m, w);
                    prop_assert_eq!(got.to_bits(), want.to_bits(), "window {} at {}", w, now);
                }
            }
        }
    }

    #[test]
    fn constant_power_measures_exactly() {
        let mut m = EnergyMeter::new(SEC);
        // 100 W for one second in 1 ms quanta.
        for i in 1..=1000u64 {
            m.record(i * MS, 0.1);
        }
        assert!((m.average_power(SEC) - 100.0).abs() < 1e-6);
        assert!((m.total_joules() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn window_sees_only_recent_power() {
        let mut m = EnergyMeter::new(2 * SEC);
        // 1 s at 50 W then 1 s at 150 W.
        for i in 1..=1000u64 {
            m.record(i * MS, 0.05);
        }
        for i in 1001..=2000u64 {
            m.record(i * MS, 0.15);
        }
        let recent = m.average_power(500 * MS);
        assert!((recent - 150.0).abs() < 1e-6, "recent avg = {recent}");
        let full = m.average_power(2 * SEC);
        assert!((full - 100.0).abs() < 1e-6, "full avg = {full}");
    }

    #[test]
    fn history_is_trimmed_but_average_stays_correct() {
        let mut m = EnergyMeter::new(100 * MS);
        for i in 1..=100_000u64 {
            m.record(i * MS, 0.2);
        }
        assert!(
            m.history.len() < 1000,
            "history grew unbounded: {}",
            m.history.len()
        );
        assert!((m.average_power(100 * MS) - 200.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn rejects_time_going_backwards() {
        let mut m = EnergyMeter::new(SEC);
        m.record(MS, 0.1);
        m.record(0, 0.1);
    }

    #[test]
    fn empty_meter_reports_zero() {
        let m = EnergyMeter::new(SEC);
        assert_eq!(m.average_power(SEC), 0.0);
        assert_eq!(m.total_joules(), 0.0);
    }
}
