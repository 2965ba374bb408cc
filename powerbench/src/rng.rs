//! Seeded input generation: every workload input is a pure function of
//! the `--seed` argument.

/// SplitMix64: a tiny generator whose stream depends on the seed alone.
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`), by Lemire's multiply-shift; the bias
    /// is below 2^-32 for the slice lengths shuffled here.
    fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }
}

/// Fisher–Yates shuffle of `xs`, identical for identical seeds.
pub fn shuffle<T>(xs: &mut [T], seed: u64) {
    let mut rng = SplitMix64::new(seed);
    for i in (1..xs.len()).rev() {
        let j = rng.below(i + 1);
        xs.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_is_identical_for_a_seed_and_differs_across_seeds() {
        let base: Vec<u32> = (0..64).collect();
        let mut a = base.clone();
        let mut b = base.clone();
        shuffle(&mut a, 1);
        shuffle(&mut b, 1);
        assert_eq!(a, b, "same seed, same permutation");
        // Pinned: the permutation must not drift between builds either.
        let mut small: Vec<u32> = (0..8).collect();
        shuffle(&mut small, 1);
        assert_eq!(small, [0, 3, 7, 1, 2, 6, 5, 4]);
        let mut c = base.clone();
        shuffle(&mut c, 2);
        assert_ne!(a, c, "seeds must matter");
        a.sort_unstable();
        assert_eq!(a, base, "a permutation keeps every element");
    }
}
