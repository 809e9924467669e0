//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no network access to crates.io, so the
//! workspace vendors this minimal, dependency-free re-implementation of
//! the proptest API subset its tests use: `proptest!`, `prop_oneof!`,
//! `prop_assert*!`, `Strategy` with `prop_map`/`prop_flat_map`, `Just`,
//! `any`, ranges, tuples and `collection::vec`.
//!
//! Semantics differ from upstream in two deliberate ways:
//!
//! - generation is **deterministic**: case `i` of every test draws from
//!   a fixed per-case seed, so failures reproduce without a persistence
//!   file (no `proptest-regressions` file is read; a case worth keeping
//!   becomes a plain `#[test]`);
//! - shrinking is **minimal**: a failing case is shrunk greedily on the
//!   generated value itself — integers halve toward their range's low
//!   bound, vectors truncate, tuples and vector elements shrink one
//!   component at a time — and reported with its case seed. Values that
//!   pass through `prop_map`, `prop_flat_map` or `prop_oneof!` do not
//!   shrink (there is no value tree to map back through).

pub mod test_runner;

pub mod strategy {
    //! Value-generation strategies.

    use crate::test_runner::TestRng;
    use std::rc::Rc;

    /// A generator of values of type [`Strategy::Value`].
    pub trait Strategy: Clone {
        /// The type of generated values.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Simpler variants of a failing `value`, most aggressive first.
        /// The runner keeps the first variant that still fails and asks
        /// again. The default offers none.
        fn shrink(&self, _value: &Self::Value) -> Vec<Self::Value> {
            Vec::new()
        }

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            F: Fn(Self::Value) -> O + Clone,
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Generates a value, then generates from the strategy `f`
        /// returns for it.
        fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
        where
            S: Strategy,
            F: Fn(Self::Value) -> S + Clone,
            Self: Sized,
        {
            FlatMap { inner: self, f }
        }

        /// Erases the strategy type.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Rc::new(self))
        }
    }

    /// Object-safe view of a strategy, for [`BoxedStrategy`].
    trait DynStrategy {
        type Value;
        fn generate_dyn(&self, rng: &mut TestRng) -> Self::Value;
        fn shrink_dyn(&self, value: &Self::Value) -> Vec<Self::Value>;
    }

    impl<S: Strategy> DynStrategy for S {
        type Value = S::Value;
        fn generate_dyn(&self, rng: &mut TestRng) -> S::Value {
            self.generate(rng)
        }
        fn shrink_dyn(&self, value: &S::Value) -> Vec<S::Value> {
            self.shrink(value)
        }
    }

    /// A type-erased strategy (cheaply clonable).
    pub struct BoxedStrategy<V>(Rc<dyn DynStrategy<Value = V>>);

    impl<V> Clone for BoxedStrategy<V> {
        fn clone(&self) -> Self {
            Self(Rc::clone(&self.0))
        }
    }

    impl<V> Strategy for BoxedStrategy<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            self.0.generate_dyn(rng)
        }
        fn shrink(&self, value: &V) -> Vec<V> {
            self.0.shrink_dyn(value)
        }
    }

    /// Always yields a clone of its value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O + Clone,
    {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    #[derive(Clone)]
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S, S2, F> Strategy for FlatMap<S, F>
    where
        S: Strategy,
        S2: Strategy,
        F: Fn(S::Value) -> S2 + Clone,
    {
        type Value = S2::Value;
        fn generate(&self, rng: &mut TestRng) -> S2::Value {
            let next = (self.f)(self.inner.generate(rng));
            next.generate(rng)
        }
    }

    /// Uniform choice among type-erased alternatives — what
    /// [`prop_oneof!`](crate::prop_oneof) builds.
    pub struct Union<V> {
        options: Vec<BoxedStrategy<V>>,
    }

    impl<V> Clone for Union<V> {
        fn clone(&self) -> Self {
            Self {
                options: self.options.clone(),
            }
        }
    }

    impl<V> Union<V> {
        /// A union over the given alternatives.
        ///
        /// # Panics
        ///
        /// Panics if `options` is empty.
        pub fn new(options: Vec<BoxedStrategy<V>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            Self { options }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            let idx = rng.below(self.options.len() as u64) as usize;
            self.options[idx].generate(rng)
        }
    }

    /// Shrink candidates for an integer `v` drawn from a domain starting
    /// at `lo`: the bound itself, the midpoint, then one step down.
    macro_rules! halve_toward {
        ($lo:expr, $v:expr) => {{
            let (lo, v) = ($lo, $v);
            let mut out = Vec::new();
            if v > lo {
                let mid = lo + (v - lo) / 2;
                out.push(lo);
                if mid > lo {
                    out.push(mid);
                }
                if v - 1 > mid {
                    out.push(v - 1);
                }
            }
            out
        }};
    }
    pub(crate) use halve_toward;

    macro_rules! int_range_strategy {
        ($($ty:ty),*) => {$(
            impl Strategy for std::ops::Range<$ty> {
                type Value = $ty;
                fn generate(&self, rng: &mut TestRng) -> $ty {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end - self.start) as u64;
                    self.start + rng.below(span) as $ty
                }
                fn shrink(&self, value: &$ty) -> Vec<$ty> {
                    halve_toward!(self.start, *value)
                }
            }
            impl Strategy for std::ops::RangeInclusive<$ty> {
                type Value = $ty;
                fn generate(&self, rng: &mut TestRng) -> $ty {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi - lo) as u64;
                    if span == u64::MAX {
                        return rng.next_u64() as $ty;
                    }
                    lo + rng.below(span + 1) as $ty
                }
                fn shrink(&self, value: &$ty) -> Vec<$ty> {
                    halve_toward!(*self.start(), *value)
                }
            }
        )*};
    }

    int_range_strategy!(u8, u16, u32, u64, usize);

    macro_rules! tuple_strategy {
        ($(($($name:ident $idx:tt),+);)*) => {$(
            impl<$($name: Strategy),+> Strategy for ($($name,)+)
            where
                $($name::Value: Clone),+
            {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
                fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                    let mut out = Vec::new();
                    $(
                        for candidate in self.$idx.shrink(&value.$idx) {
                            let mut next = value.clone();
                            next.$idx = candidate;
                            out.push(next);
                        }
                    )+
                    out
                }
            }
        )*};
    }

    tuple_strategy! {
        (A 0);
        (A 0, B 1);
        (A 0, B 1, C 2);
        (A 0, B 1, C 2, D 3);
        (A 0, B 1, C 2, D 3, E 4);
    }
}

pub mod arbitrary {
    //! The `any::<T>()` entry point for full-domain strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Strategy over the whole domain of `T` — see [`any`].
    pub struct Any<T>(PhantomData<T>);

    impl<T> Clone for Any<T> {
        fn clone(&self) -> Self {
            Any(PhantomData)
        }
    }

    /// A strategy producing any value of `T`.
    pub fn any<T>() -> Any<T>
    where
        Any<T>: Strategy,
    {
        Any(PhantomData)
    }

    macro_rules! any_int {
        ($($ty:ty),*) => {$(
            impl Strategy for Any<$ty> {
                type Value = $ty;
                fn generate(&self, rng: &mut TestRng) -> $ty {
                    rng.next_u64() as $ty
                }
                fn shrink(&self, value: &$ty) -> Vec<$ty> {
                    crate::strategy::halve_toward!(0, *value)
                }
            }
        )*};
    }

    any_int!(u8, u16, u32, u64, usize);

    impl Strategy for Any<bool> {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
        fn shrink(&self, value: &bool) -> Vec<bool> {
            if *value {
                vec![false]
            } else {
                Vec::new()
            }
        }
    }
}

pub mod collection {
    //! Collection strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// A size specification for [`vec()`]: a fixed length or a range.
    pub trait SizeRange: Clone {
        /// Draws a length.
        fn pick(&self, rng: &mut TestRng) -> usize;

        /// The shortest length the range allows (shrinking stops here).
        fn min(&self) -> usize;
    }

    impl SizeRange for usize {
        fn pick(&self, _rng: &mut TestRng) -> usize {
            *self
        }
        fn min(&self) -> usize {
            *self
        }
    }

    impl SizeRange for std::ops::Range<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            assert!(self.start < self.end, "empty size range");
            self.start + rng.below((self.end - self.start) as u64) as usize
        }
        fn min(&self) -> usize {
            self.start
        }
    }

    impl SizeRange for std::ops::RangeInclusive<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            let (lo, hi) = (*self.start(), *self.end());
            assert!(lo <= hi, "empty size range");
            lo + rng.below((hi - lo + 1) as u64) as usize
        }
        fn min(&self) -> usize {
            *self.start()
        }
    }

    /// Strategy for `Vec<S::Value>` with a length drawn from `size`.
    #[derive(Clone)]
    pub struct VecStrategy<S, R> {
        element: S,
        size: R,
    }

    /// Generates vectors of values from `element`, sized by `size`.
    pub fn vec<S: Strategy, R: SizeRange>(element: S, size: R) -> VecStrategy<S, R> {
        VecStrategy { element, size }
    }

    impl<S: Strategy, R: SizeRange> Strategy for VecStrategy<S, R>
    where
        S::Value: Clone,
    {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.pick(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }

        /// Truncations first (to the minimum length, to half, minus the
        /// last element), then one element shrunk at a time.
        fn shrink(&self, value: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
            let (len, min) = (value.len(), self.size.min());
            let mut keeps = vec![min, (len / 2).max(min), len.saturating_sub(1)];
            keeps.retain(|&keep| keep < len);
            keeps.dedup();
            let mut out: Vec<Vec<S::Value>> = keeps
                .into_iter()
                .map(|keep| value[..keep].to_vec())
                .collect();
            for (i, element) in value.iter().enumerate() {
                for candidate in self.element.shrink(element) {
                    let mut next = value.clone();
                    next[i] = candidate;
                    out.push(next);
                }
            }
            out
        }
    }
}

/// Runner configuration: the subset of upstream's knobs the workspace
/// uses.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 256 }
    }
}

impl ProptestConfig {
    /// A configuration running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

pub mod prelude {
    //! The usual glob import, mirroring `proptest::prelude`.

    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::TestRng;
    pub use crate::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Defines `#[test]` functions whose arguments are drawn from
/// strategies, running each body over `config.cases` deterministic
/// cases. A failing case is shrunk and reported with its minimal input
/// and seed (see [`test_runner::run_case`]).
#[macro_export]
macro_rules! proptest {
    (@run ($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat_param in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let strategy = ($($strat,)+);
            for case in 0..config.cases {
                $crate::test_runner::run_case(&strategy, case, |($($arg,)+)| $body);
            }
        }
    )*};
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@run ($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@run ($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// Asserts a condition inside a property body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

/// Asserts equality inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_eq!($a, $b, $($fmt)+) };
}

/// Asserts inequality inside a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_ne!($a, $b, $($fmt)+) };
}

/// Uniform choice among strategies yielding the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Kind {
        A,
        B(u8),
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_respect_bounds(x in 3u64..10, y in 0usize..=4) {
            prop_assert!((3..10).contains(&x));
            prop_assert!(y <= 4, "y = {}", y);
        }

        #[test]
        fn combinators_compose(
            v in crate::collection::vec((0u32..5).prop_map(|n| n * 2), 1..8),
            k in prop_oneof![Just(Kind::A), any::<u8>().prop_map(Kind::B)],
            (a, b) in (0u8..4, 8u8..16).prop_flat_map(|(a, b)| (Just(a), b..=b)),
        ) {
            prop_assert!(!v.is_empty() && v.len() < 8);
            prop_assert!(v.iter().all(|n| n % 2 == 0 && *n < 10));
            match k {
                Kind::A | Kind::B(_) => {}
            }
            prop_assert!(a < 4 && (8..16).contains(&b));
        }
    }

    #[test]
    fn planted_failure_shrinks_to_minimal_input() {
        use crate::test_runner::run_case;
        // Fails whenever x >= 37 and the vec has at least two elements:
        // the unique minimal failing input is (37, [0, 0]).
        let strategy = (0u64..1000, crate::collection::vec(0u32..100, 0..10));
        let property = |(x, v): (u64, Vec<u32>)| assert!(x < 37 || v.len() < 2, "planted");
        let failing_case = (0..64)
            .find(|&case| std::panic::catch_unwind(|| run_case(&strategy, case, property)).is_err())
            .expect("the planted failure is reachable");
        let payload = std::panic::catch_unwind(|| run_case(&strategy, failing_case, property))
            .expect_err("the failing case fails again");
        let report = payload.downcast_ref::<String>().expect("formatted report");
        assert!(
            report.contains("minimal failing input: (37, [0, 0])"),
            "{report}"
        );
        assert!(
            report.contains(&format!("seed TestRng::deterministic({failing_case})")),
            "{report}"
        );
        assert!(report.contains("failure: planted"), "{report}");
    }

    #[test]
    fn integers_halve_toward_the_low_bound() {
        assert_eq!((10u32..100).shrink(&50), vec![10, 30, 49]);
        assert_eq!((10u32..100).shrink(&11), vec![10]);
        assert!((10u32..100).shrink(&10).is_empty());
        assert_eq!(
            crate::collection::vec(0u8..4, 1..9).shrink(&vec![0, 0, 0, 0]),
            vec![vec![0], vec![0, 0], vec![0, 0, 0]]
        );
    }

    #[test]
    fn deterministic_per_case() {
        let s = (0u64..1000, crate::collection::vec(0u32..9, 2..6));
        let mut r1 = TestRng::deterministic(7);
        let mut r2 = TestRng::deterministic(7);
        assert_eq!(s.generate(&mut r1), s.generate(&mut r2));
    }
}
