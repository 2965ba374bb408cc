//! Simulated time.
//!
//! All simulation time is carried as integer nanoseconds ([`Nanos`]) to keep
//! event arithmetic exact; conversions to seconds happen only at measurement
//! boundaries.

/// Simulated time or duration in nanoseconds.
pub type Nanos = u64;

/// One microsecond in [`Nanos`].
pub const US: Nanos = 1_000;
/// One millisecond in [`Nanos`].
pub const MS: Nanos = 1_000_000;
/// One second in [`Nanos`].
pub const SEC: Nanos = 1_000_000_000;
/// Nanoseconds per second as a float divisor.
pub const NS_PER_SEC: f64 = 1e9;

/// Convert a nanosecond instant/duration into seconds.
#[inline]
pub fn secs(t: Nanos) -> f64 {
    t as f64 / NS_PER_SEC
}

/// Convert (fractional) seconds into nanoseconds, rounding to nearest.
///
/// Negative inputs saturate to zero; this is a modelling convenience so that
/// jitter distributions that stray below zero cannot produce time travel.
#[inline]
pub fn from_secs(s: f64) -> Nanos {
    if s <= 0.0 {
        0
    } else {
        round_u64(s * NS_PER_SEC)
    }
}

/// `x.round() as u64` (nearest, ties away from zero, saturating) without
/// calling `f64::round`.
///
/// The x86-64 baseline target has no SSE4.1 `roundsd`, so `f64::round`
/// compiles to a call into a software `round`; the node rounds several
/// counters every simulated period. Here the truncation `t` is exact and,
/// below 2^52, so is the fraction `x - t`; from 2^52 on every f64 is an
/// integer and the fraction is 0. Negatives and NaN truncate to 0 with a
/// fraction below one half; values from 2^64 on, and +∞, truncate to
/// `u64::MAX`, where the increment saturates. Each case lands where
/// `x.round() as u64` does.
#[inline]
pub fn round_u64(x: f64) -> u64 {
    let t = x as u64;
    t.saturating_add(u64::from(x - t as f64 >= 0.5))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn unit_constants_are_consistent() {
        assert_eq!(US * 1_000, MS);
        assert_eq!(MS * 1_000, SEC);
        assert_eq!(SEC as f64, NS_PER_SEC);
    }

    #[test]
    fn secs_roundtrip() {
        for &t in &[0u64, 1, 999, US, MS, SEC, 3 * SEC + 217] {
            let s = secs(t);
            assert_eq!(from_secs(s), t, "roundtrip failed for {t}");
        }
    }

    #[test]
    fn from_secs_saturates_negative() {
        assert_eq!(from_secs(-1.0), 0);
        assert_eq!(from_secs(0.0), 0);
    }

    /// What `round_u64` must equal.
    #[allow(clippy::disallowed_methods)]
    fn libm_round(x: f64) -> u64 {
        x.round() as u64
    }

    #[test]
    fn round_u64_matches_round_at_the_edges() {
        let p52 = 2f64.powi(52);
        let edges = [
            0.0,
            -0.0,
            0.49999999999999994,
            0.5,
            1.5,
            2.5,
            -0.5,
            -0.49999999999999994,
            -1.5,
            -1e300,
            p52 - 0.5,
            p52 + 0.5,
            p52 - 1.5,
            p52 + 1.0,
            2f64.powi(53),
            2f64.powi(53) - 1.0,
            2f64.powi(63),
            18_446_744_073_709_549_568.0, // 2^64 - 2048, the largest f64 below 2^64
            2f64.powi(64),
            1e300,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::MIN_POSITIVE,
            f64::from_bits(1),                     // the smallest subnormal
            f64::from_bits(0x000F_FFFF_FFFF_FFFF), // the largest subnormal
            -f64::from_bits(1),
        ];
        for x in edges {
            assert_eq!(round_u64(x), libm_round(x), "{x:e} ({:#x})", x.to_bits());
        }
        assert_eq!(round_u64(2.5), 3, "ties round away from zero");
        assert_eq!(round_u64(f64::INFINITY), u64::MAX);
        assert_eq!(round_u64(f64::NAN), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 100_000,
            ..ProptestConfig::default()
        })]

        /// Over random bit patterns (every exponent, sign and NaN payload
        /// alike) and over the counter range, where fractions matter.
        #[test]
        fn round_u64_matches_round_everywhere(
            bits in any::<u64>(),
            small in 0.0f64..1e7,
        ) {
            let x = f64::from_bits(bits);
            prop_assert_eq!(round_u64(x), libm_round(x), "{:#x}", bits);
            prop_assert_eq!(round_u64(small), libm_round(small), "{}", small);
        }
    }
}
