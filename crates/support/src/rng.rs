//! Seeded, deterministic pseudo-random number generation.
//!
//! The generator is xoshiro256\*\* (Blackman & Vigna), seeded from a single
//! `u64` through a SplitMix64 expansion — the standard way to fill the
//! 256-bit state from a small seed without correlation artifacts. The API
//! mirrors the subset of `rand` 0.8 this workspace uses, so call sites only
//! change their `use` lines:
//!
//! ```
//! use entmatcher_support::rng::{Rng, SeedableRng, StdRng};
//!
//! let mut rng = StdRng::seed_from_u64(42);
//! let x: f32 = rng.gen();
//! let i = rng.gen_range(0..10usize);
//! assert!((0.0..1.0).contains(&x) && i < 10);
//! ```
//!
//! Determinism is a hard guarantee: a fixed seed yields a fixed sequence on
//! every platform (see the golden-value tests at the bottom of this file).

/// SplitMix64 step: advances `state` and returns the next output.
///
/// Used both for seed expansion and as a cheap secondary mixer by the
/// property-test harness.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Construction from a small seed, mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// Builds a generator whose full state is derived from `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// The xoshiro256\*\* generator. [`StdRng`] aliases this type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

/// The workspace's standard generator (an alias kept for `rand` API parity).
pub type StdRng = Xoshiro256StarStar;

impl SeedableRng for Xoshiro256StarStar {
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Xoshiro256StarStar { s }
    }
}

impl Rng for Xoshiro256StarStar {
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

/// Types producible uniformly by [`Rng::gen`] (the `rand` "standard"
/// distribution: floats in `[0, 1)`, integers over their full range).
pub trait Standard: Sized {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // 53 high bits -> [0, 1) with full double precision.
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // 24 high bits -> [0, 1) with full single precision.
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl Standard for u64 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for bool {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

/// Ranges accepted by [`Rng::gen_range`].
pub trait SampleRange {
    type Output;
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> Self::Output;
}

/// Uniform `u64` in `[0, bound)` by rejection sampling on the top bits, so
/// every bound is exactly uniform and the stream stays deterministic.
fn uniform_below<R: Rng + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    if bound.is_power_of_two() {
        return rng.next_u64() & (bound - 1);
    }
    // Widening-multiply trick (Lemire): map next_u64 into [0, bound) and
    // reject the biased sliver.
    let threshold = bound.wrapping_neg() % bound;
    loop {
        let m = (rng.next_u64() as u128) * (bound as u128);
        if (m as u64) >= threshold {
            return (m >> 64) as u64;
        }
    }
}

macro_rules! int_range_impls {
    ($($ty:ty),+) => {$(
        impl SampleRange for core::ops::Range<$ty> {
            type Output = $ty;
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $ty {
                assert!(self.start < self.end, "gen_range: empty range");
                // Two's-complement wrapping makes this span correct for
                // signed types as well.
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add(uniform_below(rng, span) as $ty)
            }
        }
        impl SampleRange for core::ops::RangeInclusive<$ty> {
            type Output = $ty;
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $ty {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi as u64).wrapping_sub(lo as u64);
                if span == u64::MAX {
                    return rng.next_u64() as $ty;
                }
                lo.wrapping_add(uniform_below(rng, span + 1) as $ty)
            }
        }
    )+};
}

int_range_impls!(usize, u64, u32, u8, i64, i32);

macro_rules! float_range_impls {
    ($($ty:ty),+) => {$(
        impl SampleRange for core::ops::Range<$ty> {
            type Output = $ty;
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $ty {
                assert!(self.start < self.end, "gen_range: empty range");
                let u: $ty = Standard::sample(rng);
                self.start + u * (self.end - self.start)
            }
        }
    )+};
}

float_range_impls!(f64, f32);

/// The generator interface, mirroring the used subset of `rand::Rng`.
pub trait Rng {
    /// The primitive output: the next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// A uniform sample of `T` ([0, 1) for floats, full range for ints).
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// A uniform sample from `range` (half-open or inclusive).
    fn gen_range<Rg: SampleRange>(&mut self, range: Rg) -> Rg::Output
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p out of [0, 1]");
        f64::sample(self) < p
    }

    /// A standard normal sample (mean 0, unit variance) via Box–Muller.
    fn gen_normal(&mut self) -> f64
    where
        Self: Sized,
    {
        // Uniforms in (0, 1]: shift avoids ln(0).
        let u1 = 1.0 - f64::sample(self);
        let u2 = f64::sample(self);
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Slice shuffling, mirroring `rand::seq::SliceRandom`.
pub trait SliceRandom {
    /// Uniform in-place Fisher–Yates shuffle.
    fn shuffle<R: Rng>(&mut self, rng: &mut R);
}

impl<T> SliceRandom for [T] {
    fn shuffle<R: Rng>(&mut self, rng: &mut R) {
        for i in (1..self.len()).rev() {
            let j = rng.gen_range(0..=i);
            self.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Golden values pin the exact output stream: any change to seeding or
    // the generator core is a breaking change to every seeded experiment.
    #[test]
    fn golden_sequence_seed_42() {
        let mut rng = StdRng::seed_from_u64(42);
        let first: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            first,
            [
                0x1578_0B2E_0C2E_C716,
                0x6104_D986_6D11_3A7E,
                0xAE17_5332_39E4_99A1,
                0xECB8_AD47_03B3_60A1,
            ]
        );
        let mut other = StdRng::seed_from_u64(43);
        assert_ne!(first[0], other.next_u64());
    }

    #[test]
    fn golden_sequence_seed_0_matches_reference() {
        // xoshiro256** seeded through SplitMix64 from 0 — the construction
        // used by the reference implementations, so these two outputs are a
        // cross-check against the published algorithm, not just ourselves.
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(rng.next_u64(), 0x99EC_5F36_CB75_F2B4);
        assert_eq!(rng.next_u64(), 0xBF6E_1F78_4956_452A);
    }

    #[test]
    fn golden_derived_draws() {
        // Pins the value-construction layer (floats, ranges) on top of the
        // raw stream.
        let mut rng = StdRng::seed_from_u64(42);
        assert_eq!(rng.gen::<f64>(), 0.083_862_971_059_882_16);
        assert_eq!(rng.gen::<f64>(), 0.378_980_250_662_668_6);
        let mut rng = StdRng::seed_from_u64(42);
        assert_eq!(rng.gen_range(0..100usize), 8);
        assert_eq!(rng.gen_range(0..100usize), 37);
        assert_eq!(rng.gen_range(0..=9usize), 6);
    }

    #[test]
    fn splitmix_reference_values() {
        // Published SplitMix64 test vector (state = 0).
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(&mut s), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(splitmix64(&mut s), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn floats_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x: f64 = rng.gen();
            let y: f32 = rng.gen();
            assert!((0.0..1.0).contains(&x));
            assert!((0.0..1.0).contains(&y));
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..1000 {
            assert!(rng.gen_range(3..17usize) < 17);
            assert!(rng.gen_range(3..17usize) >= 3);
            let v = rng.gen_range(5..=5usize);
            assert_eq!(v, 5);
            let f = rng.gen_range(-2.0f64..3.0);
            assert!((-2.0..3.0).contains(&f));
            let g = rng.gen_range(0.5f32..0.75);
            assert!((0.5..0.75).contains(&g));
        }
    }

    #[test]
    fn gen_range_is_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = [0usize; 10];
        for _ in 0..10_000 {
            counts[rng.gen_range(0..10usize)] += 1;
        }
        for &c in &counts {
            assert!((800..1200).contains(&c), "bucket count {c} far from 1000");
        }
    }

    #[test]
    fn gen_bool_matches_probability() {
        let mut rng = StdRng::seed_from_u64(5);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2200..2800).contains(&hits), "p=0.25 gave {hits}/10000");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut v: Vec<usize> = (0..100).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        // And a fixed seed shuffles identically.
        let mut w: Vec<usize> = (0..100).collect();
        w.shuffle(&mut StdRng::seed_from_u64(9));
        assert_eq!(v, w);
    }

    #[test]
    fn normal_has_plausible_moments() {
        let mut rng = StdRng::seed_from_u64(13);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.gen_normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean} far from 0");
        assert!((var - 1.0).abs() < 0.1, "variance {var} far from 1");
    }
}
