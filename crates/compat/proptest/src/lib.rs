//! Offline shim for the subset of `proptest` used by this workspace.
//!
//! Provides deterministic random-input property testing with the upstream
//! surface the tests rely on — [`Strategy`] with `prop_map` /
//! `prop_flat_map`, range and tuple strategies, [`collection::vec`],
//! [`Just`], [`ProptestConfig`], and the [`proptest!`] / [`prop_assert!`]
//! macros. **No shrinking**: a failing case reports its index and seed so
//! it can be replayed, but is not minimized. Each test function derives
//! its RNG seed from its own name, so failures are reproducible run to
//! run.

#![forbid(unsafe_code)]

/// Deterministic generator (SplitMix64) used to drive strategies.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seed from an arbitrary string (the test name).
    pub fn from_name(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TestRng { state: h }
    }

    /// 64 fresh bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform f64 in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform usize in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A failed property-test assertion.
#[derive(Debug, Clone)]
pub struct TestCaseError {
    message: String,
}

impl TestCaseError {
    /// A failure with the given message.
    pub fn fail(message: impl Into<String>) -> Self {
        TestCaseError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

/// Run-time knobs, upstream-compatible field names.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases per test.
    pub cases: u32,
    /// Unused (no shrinking); present for struct-update compatibility.
    pub max_shrink_iters: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: 256,
            max_shrink_iters: 0,
        }
    }
}

/// The case count actually run: `configured`, capped by the
/// `SAFEBOUND_PROPTEST_CASES` environment variable when it is set to a
/// positive integer. The cap lets slow interpreters (Miri, sanitizer
/// builds) run the same property suites with a reduced budget without
/// touching each suite's explicit `ProptestConfig` — it is applied
/// inside the `proptest!` expansion, so explicitly configured suites
/// are capped too. Invalid or unset values leave `configured` as-is.
pub fn effective_cases(configured: u32) -> u32 {
    apply_case_cap(configured, std::env::var("SAFEBOUND_PROPTEST_CASES").ok())
}

fn apply_case_cap(configured: u32, cap: Option<String>) -> u32 {
    match cap.and_then(|v| v.trim().parse::<u32>().ok()) {
        Some(cap) if cap > 0 => configured.min(cap),
        _ => configured,
    }
}

/// A generator of random values of `Self::Value`.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draw one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Generate a value, then generate from the strategy it selects.
    fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }

    /// Type-erase this strategy (upstream `Strategy::boxed`), so
    /// conditional arms with different strategy types can unify.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased strategy (upstream `BoxedStrategy`).
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<S: Strategy + ?Sized> Strategy for Box<S> {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
    type Value = T::Value;
    fn generate(&self, rng: &mut TestRng) -> T::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// Full-range generation for the primitive types workspace tests draw
/// with upstream's `any::<T>()` (floats come from raw bits, so NaNs,
/// infinities, and both zeros all occur).
pub trait Arbitrary {
    /// Draw one unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        f64::from_bits(rng.next_u64())
    }
}

impl Arbitrary for f32 {
    fn arbitrary(rng: &mut TestRng) -> f32 {
        f32::from_bits(rng.next_u64() as u32)
    }
}

/// See [`any`].
pub struct AnyStrategy<T>(core::marker::PhantomData<T>);

/// Upstream `any::<T>()`: the unconstrained strategy for `T`.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(core::marker::PhantomData)
}

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Weighted choice between boxed strategies (the [`prop_oneof!`] target).
pub struct OneOf<T>(pub Vec<(u32, BoxedStrategy<T>)>);

impl<T> Strategy for OneOf<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let total: u32 = self.0.iter().map(|(w, _)| *w).sum();
        assert!(total > 0, "prop_oneof! needs a positive total weight");
        let mut pick = rng.below(total as usize) as u32;
        for (w, s) in &self.0 {
            if pick < *w {
                return s.generate(rng);
            }
            pick -= w;
        }
        unreachable!("weighted pick within total")
    }
}

/// Choose between strategies, optionally weighted (`w => strategy`).
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::OneOf(vec![$(($weight as u32, $crate::Strategy::boxed($strat))),+])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::OneOf(vec![$((1u32, $crate::Strategy::boxed($strat))),+])
    };
}

/// Skip the current case when its inputs don't satisfy a precondition.
/// The shim has no rejection accounting: the case simply passes.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Ok(());
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        $crate::prop_assume!($cond)
    };
}

/// Fixed-size array strategies (upstream `proptest::array`).
pub mod array {
    use super::{Strategy, TestRng};

    /// Strategy for `[S::Value; N]`, each element drawn independently.
    pub struct UniformArray<S, const N: usize>(S);

    impl<S: Strategy, const N: usize> Strategy for UniformArray<S, N> {
        type Value = [S::Value; N];
        fn generate(&self, rng: &mut TestRng) -> [S::Value; N] {
            [(); N].map(|()| self.0.generate(rng))
        }
    }

    /// Eight independent draws of `element`.
    pub fn uniform8<S: Strategy>(element: S) -> UniformArray<S, 8> {
        UniformArray(element)
    }

    /// Four independent draws of `element`.
    pub fn uniform4<S: Strategy>(element: S) -> UniformArray<S, 4> {
        UniformArray(element)
    }
}

/// Always produces a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let r = ((rng.next_u64() as u128) % span) as i128;
                (self.start as i128 + r) as $t
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty strategy range");
                let span = (end as i128 - start as i128) as u128 + 1;
                let r = ((rng.next_u64() as u128) % span) as i128;
                (start as i128 + r) as $t
            }
        }
    )*};
}

impl_int_strategy!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

impl Strategy for core::ops::Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty strategy range");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, G);

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};

    /// Acceptable length specifications for [`vec`](fn@vec).
    pub trait IntoSizeRange {
        /// Draw a concrete length.
        fn pick(&self, rng: &mut TestRng) -> usize;
    }

    impl IntoSizeRange for usize {
        fn pick(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl IntoSizeRange for core::ops::Range<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            assert!(self.start < self.end, "empty size range");
            self.start + rng.below(self.end - self.start)
        }
    }

    impl IntoSizeRange for core::ops::RangeInclusive<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            *self.start() + rng.below(self.end() - self.start() + 1)
        }
    }

    /// Strategy for `Vec`s whose elements come from `element`.
    pub fn vec<S: Strategy, R: IntoSizeRange>(element: S, size: R) -> VecStrategy<S, R> {
        VecStrategy { element, size }
    }

    /// See [`vec`](fn@vec).
    pub struct VecStrategy<S, R> {
        element: S,
        size: R,
    }

    impl<S: Strategy, R: IntoSizeRange> Strategy for VecStrategy<S, R> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// The customary wildcard import target.
pub mod prelude {
    pub use crate::{any, collection};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest, Arbitrary,
        BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError, TestRng,
    };
}

/// Assert inside a property test; failures abort the case with context.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Equality assertion inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, "assertion failed: {:?} != {:?}", a, b);
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, $($fmt)*);
    }};
}

/// Inequality assertion inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a != b, "assertion failed: {:?} == {:?}", a, b);
    }};
}

/// Define property tests: each function's arguments are drawn from the
/// given strategies for `config.cases` iterations.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr)
      $( $(#[$meta:meta])* fn $name:ident( $($pat:pat_param in $strat:expr),* $(,)? ) $body:block )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                // Environment cap (Miri / sanitizer runs): see
                // [`effective_cases`].
                let cases = $crate::effective_cases(config.cases);
                let mut rng = $crate::TestRng::from_name(concat!(module_path!(), "::", stringify!($name)));
                for case in 0..cases {
                    $( let $pat = $crate::Strategy::generate(&($strat), &mut rng); )*
                    let outcome: ::core::result::Result<(), $crate::TestCaseError> = (|| {
                        $body
                        ::core::result::Result::Ok(())
                    })();
                    if let ::core::result::Result::Err(e) = outcome {
                        panic!(
                            "property failed at case {}/{} of {}: {}",
                            case + 1,
                            cases,
                            stringify!($name),
                            e
                        );
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn small_vecs() -> impl Strategy<Value = Vec<u64>> {
        collection::vec(1u64..10, 1..6)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        #[test]
        fn vec_lengths_respect_range(v in small_vecs()) {
            prop_assert!((1..6).contains(&v.len()));
            prop_assert!(v.iter().all(|&x| (1..10).contains(&x)));
        }

        #[test]
        fn flat_map_threads_values(pair in (1usize..5).prop_flat_map(|n| {
            (Just(n), collection::vec(0i64..100, n))
        })) {
            let (n, v) = pair;
            prop_assert_eq!(v.len(), n);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = TestRng::from_name("x");
        let mut b = TestRng::from_name("x");
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn case_cap_caps_only_below_configured() {
        // Pure core of [`crate::effective_cases`], testable without
        // touching the process environment (other tests in this binary
        // run concurrently and read it through the macro expansion).
        let cap = |c, v: Option<&str>| crate::apply_case_cap(c, v.map(String::from));
        assert_eq!(cap(256, None), 256);
        assert_eq!(cap(256, Some("8")), 8);
        assert_eq!(cap(4, Some("8")), 4);
        assert_eq!(cap(256, Some(" 16 ")), 16);
        assert_eq!(cap(256, Some("0")), 256);
        assert_eq!(cap(256, Some("not-a-number")), 256);
    }
}
