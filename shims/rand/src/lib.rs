//! Offline stand-in for the `rand` crate, exposing exactly the 0.8 API
//! subset dtrain uses: [`SmallRng`](rngs::SmallRng)/[`rngs::StdRng`] seeded
//! via [`SeedableRng::seed_from_u64`], [`Rng::gen`]/[`Rng::gen_range`], and
//! [`seq::SliceRandom`] shuffling. Beyond that subset, `SmallRng` exposes
//! its state and an exact jump ([`rngs::SmallRng::advance`]), which
//! `dtrain-data`'s generator lanes start from.
//!
//! The generator is xoshiro256++ seeded through SplitMix64 — deterministic
//! across platforms, which is all the simulator requires. The build
//! environment has no crates.io access, so the workspace points the `rand`
//! dependency at this crate by path.

/// Raw 64-bit generator, the only primitive everything else builds on.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;

    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// User-facing convenience methods, blanket-implemented for every
/// [`RngCore`] like in real `rand`.
pub trait Rng: RngCore {
    /// Sample a value from the "standard" distribution: floats uniform in
    /// `[0, 1)`, integers uniform over their whole domain.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample_standard(self)
    }

    /// Sample uniformly from a (half-open or inclusive) range.
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        Self: Sized,
        R: SampleRange<T>,
    {
        range.sample_single(self)
    }

    /// Bernoulli draw with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        self.gen::<f64>() < p
    }
}

impl<R: RngCore> Rng for R {}

/// Seeding; only the `seed_from_u64` entry point is provided (it is the
/// only one the workspace uses).
pub trait SeedableRng: Sized {
    fn seed_from_u64(state: u64) -> Self;
}

/// Types samplable by [`Rng::gen`].
pub trait Standard: Sized {
    fn sample_standard<R: RngCore>(rng: &mut R) -> Self;
}

impl Standard for f32 {
    fn sample_standard<R: RngCore>(rng: &mut R) -> Self {
        // 24 high-quality mantissa bits -> uniform in [0, 1).
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl Standard for f64 {
    fn sample_standard<R: RngCore>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for u64 {
    fn sample_standard<R: RngCore>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample_standard<R: RngCore>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for usize {
    fn sample_standard<R: RngCore>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl Standard for bool {
    fn sample_standard<R: RngCore>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Ranges [`Rng::gen_range`] accepts.
pub trait SampleRange<T> {
    fn sample_single<R: RngCore>(self, rng: &mut R) -> T;
}

macro_rules! int_range_impl {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_single<R: RngCore>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let v = ((rng.next_u64() as u128) % span) as i128;
                (self.start as i128 + v) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_single<R: RngCore>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range in gen_range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let v = ((rng.next_u64() as u128) % span) as i128;
                (lo as i128 + v) as $t
            }
        }
    )*};
}
int_range_impl!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_range_impl {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_single<R: RngCore>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                let unit = <$t as Standard>::sample_standard(rng);
                self.start + (self.end - self.start) * unit
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_single<R: RngCore>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range in gen_range");
                let unit = <$t as Standard>::sample_standard(rng);
                lo + (hi - lo) * unit
            }
        }
    )*};
}
float_range_impl!(f32, f64);

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++ — small, fast, deterministic. Stands in for rand's
    /// `SmallRng` (which is the same family on 64-bit targets).
    #[derive(Clone, Debug)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(state: u64) -> Self {
            let mut sm = state;
            let s = [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ];
            SmallRng { s }
        }
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
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
    }

    /// Low 256 coefficients (`x⁰` in bit 0 of word 0) of the characteristic
    /// polynomial `P(x) = x²⁵⁶ + …` of xoshiro256's state update, a linear
    /// map `T` over GF(2)²⁵⁶. `P(T) = 0`, so `Tⁿ = (xⁿ mod P)(T)`.
    const CHAR_POLY: [u64; 4] = [
        0x9d11_6f2b_b0f0_f001,
        0x0280_002b_cefd_1a5e,
        0x04b4_edcf_2625_9f85,
        0x0003_c03c_3f3e_cb19,
    ];

    /// `a · x mod P` for a polynomial of degree < 256.
    fn times_x(a: [u64; 4]) -> [u64; 4] {
        let carry = a[3] >> 63;
        let mut r = [
            a[0] << 1,
            (a[1] << 1) | (a[0] >> 63),
            (a[2] << 1) | (a[1] >> 63),
            (a[3] << 1) | (a[2] >> 63),
        ];
        if carry == 1 {
            for (w, p) in r.iter_mut().zip(CHAR_POLY) {
                *w ^= p;
            }
        }
        r
    }

    /// `a · b mod P`: shift-and-add over `b`'s coefficients.
    fn mul_mod(mut a: [u64; 4], b: [u64; 4]) -> [u64; 4] {
        let mut r = [0u64; 4];
        for bit in 0..256 {
            if (b[bit / 64] >> (bit % 64)) & 1 == 1 {
                for (w, x) in r.iter_mut().zip(a) {
                    *w ^= x;
                }
            }
            a = times_x(a);
        }
        r
    }

    impl SmallRng {
        /// Rebuild a generator from its four state words (see [`Self::state`]).
        pub fn from_state(s: [u64; 4]) -> Self {
            SmallRng { s }
        }

        /// The four state words; a generator rebuilt from them with
        /// [`Self::from_state`] continues the same stream.
        pub fn state(&self) -> [u64; 4] {
            self.s
        }

        /// Skip `n` outputs: afterwards the generator is where `n` calls to
        /// [`RngCore::next_u64`] would leave it, for any `n`. Computes
        /// `xⁿ mod P` by square-and-multiply and applies it to the state
        /// with 256 steps, so the cost grows only with `n`'s bit length.
        pub fn advance(&mut self, n: u64) {
            let mut poly = [1u64, 0, 0, 0];
            for bit in (0..u64::BITS - n.leading_zeros()).rev() {
                poly = mul_mod(poly, poly);
                if (n >> bit) & 1 == 1 {
                    poly = times_x(poly);
                }
            }
            let mut acc = [0u64; 4];
            for bit in 0..256 {
                if (poly[bit / 64] >> (bit % 64)) & 1 == 1 {
                    for (w, x) in acc.iter_mut().zip(self.s) {
                        *w ^= x;
                    }
                }
                self.next_u64();
            }
            self.s = acc;
        }
    }

    /// Alias for API parity; the deterministic small generator serves both.
    pub type StdRng = SmallRng;
}

pub mod seq {
    use super::{Rng, SampleRange as _};

    /// Slice shuffling/choosing (the `rand 0.8` trait of the same name).
    pub trait SliceRandom {
        type Item;

        fn shuffle<R: Rng>(&mut self, rng: &mut R);

        fn choose<R: Rng>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: Rng>(&mut self, rng: &mut R) {
            // Fisher-Yates, high-to-low like rand's implementation.
            for i in (1..self.len()).rev() {
                let j = (0..=i).sample_single(rng);
                self.swap(i, j);
            }
        }

        fn choose<R: Rng>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[(0..self.len()).sample_single(rng)])
            }
        }
    }
}

pub mod prelude {
    pub use super::rngs::{SmallRng, StdRng};
    pub use super::seq::SliceRandom;
    pub use super::{Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_across_instances() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    use super::RngCore;

    #[test]
    fn unit_floats_in_range() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..1000 {
            let f: f32 = rng.gen();
            assert!((0.0..1.0).contains(&f));
            let d: f64 = rng.gen();
            assert!((0.0..1.0).contains(&d));
        }
    }

    #[test]
    fn ranges_respected() {
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..1000 {
            let v = rng.gen_range(3usize..17);
            assert!((3..17).contains(&v));
            let f = rng.gen_range(-0.25f64..=0.25);
            assert!((-0.25..=0.25).contains(&f));
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut v: Vec<usize> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements should not shuffle to identity");
    }
}
