//! Deterministic pseudo-random number generation.
//!
//! The SGL experiments must be exactly replayable from a single seed, so we
//! ship a small, well-tested generator instead of depending on an external
//! crate whose stream could change across versions: xoshiro256++ seeded via
//! splitmix64, with uniform, Gaussian (Box–Muller) and Rademacher sampling.

/// xoshiro256++ generator with convenience samplers.
///
/// # Example
/// ```
/// use sgl_linalg::rng::Rng;
/// let mut rng = Rng::seed_from_u64(42);
/// let u = rng.uniform();            // U[0,1)
/// let g = rng.standard_normal();    // N(0,1)
/// assert!((0.0..1.0).contains(&u));
/// assert!(g.is_finite());
/// ```
#[derive(Debug, Clone)]
pub struct Rng {
    state: [u64; 4],
    /// Cached second output of the Box–Muller pair.
    gauss_spare: Option<f64>,
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Create a generator from a 64-bit seed (any value is fine, including 0).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng {
            state,
            gauss_spare: None,
        }
    }

    /// Snapshot the full generator state for checkpointing: the four
    /// xoshiro256++ words plus the cached Box–Muller spare (its bit
    /// pattern, or `None`). [`Rng::from_state`] restores a generator
    /// whose stream continues bit-identically.
    pub fn state(&self) -> ([u64; 4], Option<u64>) {
        (self.state, self.gauss_spare.map(f64::to_bits))
    }

    /// Rebuild a generator from a [`Rng::state`] snapshot.
    pub fn from_state(state: [u64; 4], gauss_spare_bits: Option<u64>) -> Self {
        Rng {
            state,
            gauss_spare: gauss_spare_bits.map(f64::from_bits),
        }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn uniform_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below: n must be positive");
        // Rejection sampling to avoid modulo bias.
        let n64 = n as u64;
        let zone = u64::MAX - (u64::MAX % n64);
        loop {
            let v = self.next_u64();
            if v < zone {
                return (v % n64) as usize;
            }
        }
    }

    /// Standard normal sample via Box–Muller (pairs cached).
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.gauss_spare.take() {
            return z;
        }
        // u1 in (0,1] so that ln(u1) is finite.
        let u1 = 1.0 - self.uniform();
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.gauss_spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// ±1 with equal probability.
    #[inline]
    pub fn rademacher(&mut self) -> f64 {
        if self.next_u64() & 1 == 0 {
            1.0
        } else {
            -1.0
        }
    }

    /// Vector of i.i.d. standard normal samples.
    pub fn normal_vec(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.standard_normal()).collect()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i + 1);
            xs.swap(i, j);
        }
    }

    /// Sample `k` distinct indices from `[0, n)` (order not specified).
    ///
    /// # Panics
    /// Panics if `k > n`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "sample_indices: k must not exceed n");
        // Partial Fisher-Yates over an index array; fine for the sizes we use.
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.below(n - i);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Rng::seed_from_u64(7);
        let mut b = Rng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut rng = Rng::seed_from_u64(3);
        for _ in 0..10_000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = Rng::seed_from_u64(11);
        let n = 200_000;
        let xs = rng.normal_vec(n);
        let mean: f64 = xs.iter().sum::<f64>() / n as f64;
        let var: f64 = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut rng = Rng::seed_from_u64(5);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[rng.below(7)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn rademacher_is_balanced() {
        let mut rng = Rng::seed_from_u64(9);
        let s: f64 = (0..100_000).map(|_| rng.rademacher()).sum();
        assert!(s.abs() < 2_000.0);
    }

    #[test]
    fn sample_indices_distinct() {
        let mut rng = Rng::seed_from_u64(13);
        let mut idx = rng.sample_indices(50, 20);
        idx.sort_unstable();
        idx.dedup();
        assert_eq!(idx.len(), 20);
        assert!(idx.iter().all(|&i| i < 50));
    }

    #[test]
    fn state_round_trip_continues_bit_identically() {
        let mut a = Rng::seed_from_u64(23);
        // Burn an odd number of normals so the Box–Muller spare is live.
        for _ in 0..7 {
            a.standard_normal();
        }
        let (words, spare) = a.state();
        assert!(spare.is_some(), "odd draw count must leave a spare");
        let mut b = Rng::from_state(words, spare);
        for _ in 0..100 {
            assert_eq!(a.standard_normal().to_bits(), b.standard_normal().to_bits());
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Rng::seed_from_u64(17);
        let mut xs: Vec<usize> = (0..100).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }
}
