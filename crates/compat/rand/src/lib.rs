//! Offline shim for the subset of `rand` 0.9 used by this workspace.
//!
//! Deterministic and dependency-free: `StdRng` is xoshiro256++ seeded via
//! SplitMix64, matching the real crate's API (`seed_from_u64`, `random`,
//! `random_range`, `random_bool`) but **not** its stream — synthetic data
//! generated with this shim is stable across runs of this repository, not
//! bit-identical to data generated with upstream `rand`.

#![forbid(unsafe_code)]

/// Seedable random number generators.
pub trait SeedableRng: Sized {
    /// Create a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types with a uniform-sampling implementation (mirrors rand's trait of
/// the same name; the single blanket [`SampleRange`] impl below is what
/// lets integer-literal ranges infer their type from the call site).
pub trait SampleUniform: Copy + PartialOrd {
    /// Uniform draw from `[start, end)` or `[start, end]`.
    fn sample_uniform(
        start: Self,
        end: Self,
        inclusive: bool,
        next: &mut dyn FnMut() -> u64,
    ) -> Self;
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_uniform(
                start: Self,
                end: Self,
                inclusive: bool,
                next: &mut dyn FnMut() -> u64,
            ) -> Self {
                let span = (end as i128 - start as i128) as u128 + inclusive as u128;
                assert!(span > 0, "empty range");
                let r = ((next() as u128) % span) as i128;
                (start as i128 + r) as $t
            }
        }
    )*};
}

impl_sample_uniform_int!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

impl SampleUniform for f64 {
    fn sample_uniform(
        start: Self,
        end: Self,
        _inclusive: bool,
        next: &mut dyn FnMut() -> u64,
    ) -> f64 {
        assert!(start < end, "empty range");
        let u = (next() >> 11) as f64 / (1u64 << 53) as f64;
        start + u * (end - start)
    }
}

/// Range types usable with [`Rng::random_range`].
pub trait SampleRange<T> {
    /// Draw a value in the range from 64 random bits supplied by `next`.
    fn sample(self, next: &mut dyn FnMut() -> u64) -> T;
}

impl<T: SampleUniform> SampleRange<T> for core::ops::Range<T> {
    fn sample(self, next: &mut dyn FnMut() -> u64) -> T {
        assert!(self.start < self.end, "empty range");
        T::sample_uniform(self.start, self.end, false, next)
    }
}

impl<T: SampleUniform> SampleRange<T> for core::ops::RangeInclusive<T> {
    fn sample(self, next: &mut dyn FnMut() -> u64) -> T {
        let (start, end) = self.into_inner();
        assert!(start <= end, "empty range");
        T::sample_uniform(start, end, true, next)
    }
}

/// Values producible by [`Rng::random`].
pub trait Standard: Sized {
    /// Build a value from 64 random bits.
    fn from_bits(bits: u64) -> Self;
}

impl Standard for f64 {
    fn from_bits(bits: u64) -> f64 {
        (bits >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl Standard for u64 {
    fn from_bits(bits: u64) -> u64 {
        bits
    }
}

impl Standard for bool {
    fn from_bits(bits: u64) -> bool {
        bits & 1 == 1
    }
}

/// The user-facing generator interface.
pub trait Rng {
    /// 64 fresh random bits.
    fn next_u64(&mut self) -> u64;

    /// A random value of an inferred type (`f64` in `[0, 1)`, `u64`, `bool`).
    fn random<T: Standard>(&mut self) -> T {
        T::from_bits(self.next_u64())
    }

    /// A uniform draw from `range`.
    fn random_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        let mut next = || self.next_u64();
        range.sample(&mut next)
    }

    /// `true` with probability `p`.
    fn random_bool(&mut self, p: f64) -> bool {
        self.random::<f64>() < p
    }
}

/// Generator implementations.
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// xoshiro256++ — the shim's stand-in for `rand::rngs::StdRng`.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion, as recommended by the xoshiro authors.
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_and_in_range() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x = a.random_range(0..100i64);
            assert_eq!(x, b.random_range(0..100i64));
            assert!((0..100).contains(&x));
            let f: f64 = a.random();
            let g: f64 = b.random();
            assert_eq!(f, g);
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn inclusive_range_hits_both_ends() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = [false; 3];
        for _ in 0..200 {
            seen[rng.random_range(0..=2usize)] = true;
        }
        assert_eq!(seen, [true; 3]);
    }
}
