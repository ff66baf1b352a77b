//! Offline stand-in for `proptest`, implementing the subset of its surface
//! the workspace tests use: the `proptest!` macro (with
//! `#![proptest_config(...)]`), `prop_assert!`/`prop_assert_eq!`,
//! range/tuple strategies, `prop::collection::vec`, `prop_map`, and
//! `prop_flat_map`.
//!
//! Cases are generated from a deterministic per-test seed (hash of the
//! test name), so failures reproduce exactly. There is no shrinking: a
//! failing case reports its case index and message and panics.

pub mod test_runner {
    /// Per-`proptest!` block configuration; only `cases` is honoured.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    /// Why a single case did not pass.
    #[derive(Clone, Debug)]
    pub enum TestCaseError {
        Fail(String),
        Reject(String),
    }

    impl TestCaseError {
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError::Fail(msg.into())
        }

        pub fn reject(msg: impl Into<String>) -> Self {
            TestCaseError::Reject(msg.into())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                TestCaseError::Fail(m) => write!(f, "{m}"),
                TestCaseError::Reject(m) => write!(f, "rejected: {m}"),
            }
        }
    }

    pub type TestCaseResult = Result<(), TestCaseError>;

    /// SplitMix64 case generator: tiny, seedable, deterministic.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        pub fn seed_from_u64(state: u64) -> Self {
            TestRng { state }
        }

        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    /// FNV-1a over the test name: a stable per-test seed.
    pub fn seed_for(name: &str) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;

    /// A generator of values of `Self::Value`; the subset of proptest's
    /// `Strategy` the workspace relies on (no shrinking trees).
    pub trait Strategy {
        type Value;

        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S: Strategy,
            F: Fn(Self::Value) -> S,
        {
            FlatMap { inner: self, f }
        }

        fn prop_filter<F>(self, whence: &'static str, f: F) -> Filter<Self, F>
        where
            Self: Sized,
            F: Fn(&Self::Value) -> bool,
        {
            Filter {
                inner: self,
                f,
                whence,
            }
        }
    }

    /// Constant strategy.
    #[derive(Clone, Copy, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;

        fn sample(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.sample(rng))
        }
    }

    pub struct FlatMap<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S, S2, F> Strategy for FlatMap<S, F>
    where
        S: Strategy,
        S2: Strategy,
        F: Fn(S::Value) -> S2,
    {
        type Value = S2::Value;

        fn sample(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.inner.sample(rng)).sample(rng)
        }
    }

    pub struct Filter<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
        pub(crate) whence: &'static str,
    }

    impl<S, F> Strategy for Filter<S, F>
    where
        S: Strategy,
        F: Fn(&S::Value) -> bool,
    {
        type Value = S::Value;

        fn sample(&self, rng: &mut TestRng) -> S::Value {
            for _ in 0..1000 {
                let v = self.inner.sample(rng);
                if (self.f)(&v) {
                    return v;
                }
            }
            panic!(
                "prop_filter '{}' rejected 1000 consecutive samples",
                self.whence
            );
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;

        fn sample(&self, rng: &mut TestRng) -> S::Value {
            (**self).sample(rng)
        }
    }

    impl<S: Strategy + ?Sized> Strategy for Box<S> {
        type Value = S::Value;

        fn sample(&self, rng: &mut TestRng) -> S::Value {
            (**self).sample(rng)
        }
    }

    macro_rules! int_strategy_impl {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;

                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let v = ((rng.next_u64() as u128) % span) as i128;
                    (self.start as i128 + v) as $t
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;

                fn sample(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as i128 - lo as i128) as u128 + 1;
                    let v = ((rng.next_u64() as u128) % span) as i128;
                    (lo as i128 + v) as $t
                }
            }
        )*};
    }
    int_strategy_impl!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! float_strategy_impl {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;

                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    self.start + (self.end - self.start) * rng.unit_f64() as $t
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;

                fn sample(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    lo + (hi - lo) * rng.unit_f64() as $t
                }
            }
        )*};
    }
    float_strategy_impl!(f32, f64);

    macro_rules! tuple_strategy_impl {
        ($(($($s:ident . $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);

                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.sample(rng),)+)
                }
            }
        )*};
    }
    tuple_strategy_impl! {
        (A.0)
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
        (A.0, B.1, C.2, D.3, E.4, F.5)
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Number of elements for [`vec()`]: exact or a range.
    #[derive(Clone, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi_exclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                lo: n,
                hi_exclusive: n + 1,
            }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi_exclusive: r.end,
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi_exclusive: *r.end() + 1,
            }
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `prop::collection::vec(element, size)`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi_exclusive - self.size.lo) as u64;
            let len = self.size.lo + (rng.next_u64() % span.max(1)) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestCaseResult};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};

    /// Mirror of `proptest::prelude::prop`: module-style access to the
    /// strategy combinators (`prop::collection::vec(..)`).
    pub mod prop {
        pub use crate::collection;
    }
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: `{:?}` == `{:?}`", l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: `{:?}` == `{:?}`: {}", l, r, format!($($fmt)*)
        );
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l != r, "assertion failed: `{:?}` != `{:?}`", l, r);
    }};
}

#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::reject(
                stringify!($cond).to_string(),
            ));
        }
    };
}

/// The `proptest!` block macro: expands each `fn name(pat in strategy, ..)`
/// into a `#[test]`-style function that samples `cases` inputs from a
/// name-seeded deterministic RNG and runs the body against each.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ @cfg($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{
            @cfg($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (
        @cfg($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strat:expr),* $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            let seed = $crate::test_runner::seed_for(concat!(
                module_path!(), "::", stringify!($name)
            ));
            let mut case = 0u32;
            let mut attempts = 0u32;
            while case < config.cases {
                attempts += 1;
                assert!(
                    attempts < config.cases.saturating_mul(20).max(1000),
                    "proptest '{}': too many rejected cases",
                    stringify!($name),
                );
                let mut rng = $crate::test_runner::TestRng::seed_from_u64(
                    seed ^ (attempts as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                $(
                    let $pat = $crate::strategy::Strategy::sample(&($strat), &mut rng);
                )*
                #[allow(unreachable_code)]
                let outcome: ::core::result::Result<
                    (),
                    $crate::test_runner::TestCaseError,
                > = (|| { $body ::core::result::Result::Ok(()) })();
                match outcome {
                    Ok(()) => case += 1,
                    Err($crate::test_runner::TestCaseError::Reject(_)) => {}
                    Err($crate::test_runner::TestCaseError::Fail(msg)) => panic!(
                        "proptest '{}' failed at case {} (seed {:#x}): {}",
                        stringify!($name), case, seed, msg,
                    ),
                }
            }
        }
        $crate::__proptest_impl!{ @cfg($cfg) $($rest)* }
    };
    ( @cfg($cfg:expr) ) => {};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn pair() -> impl Strategy<Value = (usize, usize)> {
        (1usize..10, 1usize..10)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_in_bounds(a in 3usize..17, f in -1.0f32..1.0) {
            prop_assert!((3..17).contains(&a));
            prop_assert!((-1.0..1.0).contains(&f));
        }

        #[test]
        fn vec_and_map_compose(
            v in prop::collection::vec((0u64..100, 0usize..4), 1..8),
        ) {
            prop_assert!(!v.is_empty() && v.len() < 8);
            for (x, y) in &v {
                prop_assert!(*x < 100 && *y < 4);
            }
        }

        #[test]
        fn flat_map_and_tuple((a, b) in pair().prop_flat_map(|(a, b)| {
            (Just(a), prop::collection::vec(0usize..10, b))
        })) {
            prop_assert!(a >= 1);
            prop_assert_eq!(b.len(), b.len());
            return Ok(());
        }
    }

    #[test]
    fn determinism_same_seed_same_samples() {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;
        let s = prop::collection::vec(0u64..1_000_000, 5..20);
        let a = s.sample(&mut TestRng::seed_from_u64(99));
        let b = s.sample(&mut TestRng::seed_from_u64(99));
        assert_eq!(a, b);
    }
}
