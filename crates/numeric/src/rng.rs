//! Tiny deterministic pseudo-random generation.
//!
//! The statistical process-variation experiments only need reproducible
//! uniform and gaussian draws — not cryptographic quality — so instead of
//! pulling `rand` from a registry (which breaks fully-offline builds) the
//! workspace carries this self-contained SplitMix64 generator. SplitMix64
//! (Steele, Lea & Flood, *Fast Splittable Pseudorandom Number Generators*,
//! OOPSLA 2014) passes BigCrush, needs eight bytes of state, and is fully
//! determined by its seed, which is exactly what seeded regression tests
//! want.

/// A source of uniformly distributed pseudo-random numbers.
///
/// The provided methods derive floating-point draws from
/// [`UniformRng::next_u64`], so any two implementations that produce the
/// same bit stream produce the same samples.
pub trait UniformRng {
    /// The next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// A uniform draw from `[0, 1)` with 53 bits of precision.
    fn next_f64(&mut self) -> f64 {
        // Keep the top 53 bits: an f64 in [0, 1) with a fully uniform mantissa.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform draw from `[lo, hi)`.
    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// A standard normal draw via the Box–Muller transform.
    fn gaussian(&mut self) -> f64 {
        // u1 must be strictly positive for the logarithm.
        let u1 = self.next_f64().max(f64::MIN_POSITIVE);
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

/// SplitMix64: a fast, small, seedable PRNG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator whose whole stream is determined by `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }
}

impl UniformRng for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_vector() {
        // First outputs for seed 1234567, from the public-domain reference
        // implementation (Vigna, prng.di.unimi.it/splitmix64.c).
        let mut rng = SplitMix64::new(1234567);
        assert_eq!(rng.next_u64(), 6457827717110365317);
        assert_eq!(rng.next_u64(), 3203168211198807973);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn uniform_respects_bounds_and_mean() {
        let mut rng = SplitMix64::new(11);
        let mut sum = 0.0;
        let n = 20_000;
        for _ in 0..n {
            let x = rng.uniform(3.0, 5.0);
            assert!((3.0..5.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 4.0).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = SplitMix64::new(99);
        let n = 50_000;
        let (mut sum, mut sq) = (0.0, 0.0);
        for _ in 0..n {
            let x = rng.gaussian();
            sum += x;
            sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
