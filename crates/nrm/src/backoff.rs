//! Exponential-backoff retry policy, shared by the per-node daemon and
//! the arbiter-daemon client.
//!
//! Two consumers, one curve. The hardened
//! [`NrmDaemon`](crate::daemon::NrmDaemon) re-probes a failed primary
//! actuator after `min(2^failures, cap)` control ticks — local,
//! deterministic, no jitter needed because each node probes its own
//! hardware. The `arbiterd` `GrantClient` reconnects to a *shared*
//! daemon, where a whole cluster retrying in lockstep after a daemon
//! restart is a thundering herd; [`Backoff`] therefore adds seeded
//! half-jitter on top of the same [`delay_after`] curve, so reconnect
//! storms decorrelate while every run stays bit-reproducible from its
//! seed.

/// The deterministic retry curve: the wait after the `failures`-th
/// consecutive failure, capped at `cap_ticks`.
///
/// Matches the hardened daemon's historical behaviour exactly:
/// `min(2^min(failures, 16), cap)`, so the doubling saturates before the
/// shift can overflow and the cap bounds the probe interval.
pub fn delay_after(failures: u32, cap_ticks: u32) -> u32 {
    (1u32 << failures.min(16)).min(cap_ticks)
}

/// Stateful jittered backoff for reconnect loops.
///
/// Tracks consecutive failures and draws the actual wait uniformly from
/// `[delay/2, delay]` (half-jitter) using a private SplitMix64 stream, so
/// two clients with different seeds never retry in lockstep but a given
/// seed always reproduces the same schedule.
#[derive(Debug, Clone)]
pub struct Backoff {
    cap_ticks: u32,
    failures: u32,
    rng: u64,
}

impl Backoff {
    /// A fresh policy. `cap_ticks` bounds the un-jittered delay;
    /// `seed` fixes the jitter stream (offset by a golden-ratio
    /// increment so seeds 0 and 1 diverge immediately).
    pub fn new(cap_ticks: u32, seed: u64) -> Self {
        assert!(cap_ticks > 0, "backoff cap must be positive");
        Self {
            cap_ticks,
            failures: 0,
            rng: seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
        }
    }

    /// Consecutive failures recorded since the last [`Backoff::reset`].
    pub fn failures(&self) -> u32 {
        self.failures
    }

    /// Record one more failure and return how long to wait before the
    /// next attempt, in ticks (always ≥ 1).
    pub fn record_failure(&mut self) -> u32 {
        self.failures = self.failures.saturating_add(1);
        let base = delay_after(self.failures, self.cap_ticks);
        let lo = (base / 2).max(1);
        lo + (self.next_u64() % (base - lo + 1) as u64) as u32
    }

    /// The attempt succeeded: the next failure starts the curve over.
    pub fn reset(&mut self) {
        self.failures = 0;
    }

    /// One SplitMix64 draw.
    fn next_u64(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_matches_the_resilient_daemon() {
        // The exact expression the hardened daemon used inline.
        for failures in [1u32, 2, 3, 5, 16, 17, 40] {
            for cap in [1u32, 8, 32, 1 << 20] {
                assert_eq!(
                    delay_after(failures, cap),
                    (1u32 << failures.min(16)).min(cap)
                );
            }
        }
        assert_eq!(delay_after(1, 32), 2);
        assert_eq!(delay_after(5, 32), 32);
        assert_eq!(delay_after(40, u32::MAX), 1 << 16, "shift saturates");
    }

    #[test]
    fn jittered_delay_stays_in_the_half_jitter_window() {
        let mut b = Backoff::new(64, 7);
        for _ in 0..200 {
            let f = b.failures() + 1;
            let d = b.record_failure();
            let base = delay_after(f, 64);
            assert!(d >= (base / 2).max(1) && d <= base, "{d} vs base {base}");
        }
    }

    #[test]
    fn reset_restarts_the_curve_and_seeds_reproduce() {
        let mut a = Backoff::new(32, 42);
        let first: Vec<u32> = (0..6).map(|_| a.record_failure()).collect();
        a.reset();
        assert_eq!(a.failures(), 0);

        // Same seed, same schedule (state continues the same stream).
        let mut b = Backoff::new(32, 42);
        let again: Vec<u32> = (0..6).map(|_| b.record_failure()).collect();
        assert_eq!(first, again);

        // Different seeds decorrelate somewhere in a short schedule.
        let mut c = Backoff::new(32, 43);
        let other: Vec<u32> = (0..6).map(|_| c.record_failure()).collect();
        assert_ne!(first, other);
    }
}
