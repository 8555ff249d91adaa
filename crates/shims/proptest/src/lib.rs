//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no network access, so this crate implements the
//! small slice of proptest's API the workspace's property tests use:
//! [`Strategy`] with `prop_map`, integer-range strategies,
//! [`collection::vec`], [`option::of`], [`ProptestConfig::with_cases`], and
//! the [`proptest!`]/[`prop_assert!`]/[`prop_assert_eq!`] macros.
//!
//! Shrinking is intentionally not implemented: on failure the offending
//! inputs are reported unshrunk via the panic message. Generation is
//! deterministic per test (seeded from the test name), so failures are
//! reproducible.

#![forbid(unsafe_code)]

use std::fmt::Debug;
use std::ops::Range;

pub mod test_runner {
    //! The deterministic case generator behind [`crate::proptest!`].

    use rand::rngs::StdRng;
    use rand::{RngCore, RngExt, SeedableRng};

    /// The per-test RNG. Seeded from the test name so each property gets an
    /// independent but reproducible stream.
    #[derive(Debug, Clone)]
    pub struct TestRng(StdRng);

    impl TestRng {
        /// A generator seeded deterministically from `name`.
        pub fn deterministic(name: &str) -> TestRng {
            let mut seed = 0xcbf2_9ce4_8422_2325u64;
            for b in name.bytes() {
                seed ^= b as u64;
                seed = seed.wrapping_mul(0x100_0000_01b3);
            }
            TestRng(StdRng::seed_from_u64(seed))
        }

        /// The next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.0.next_u64()
        }

        /// Uniform draw from `[0, n)`.
        pub fn below(&mut self, n: u64) -> u64 {
            self.0.random_range(0..n.max(1))
        }
    }

    /// Configuration accepted by `#![proptest_config(...)]`.
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of random cases to run per property.
        pub cases: u32,
    }

    impl Config {
        /// A config running `cases` cases.
        pub fn with_cases(cases: u32) -> Config {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 256 }
        }
    }
}

pub use test_runner::Config as ProptestConfig;

/// A generator of values of an associated type, mirroring
/// `proptest::strategy::Strategy` (without shrinking).
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut test_runner::TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<B, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> B,
    {
        Map { inner: self, f }
    }
}

/// The strategy returned by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, B, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> B,
{
    type Value = B;

    fn sample(&self, rng: &mut test_runner::TestRng) -> B {
        (self.f)(self.inner.sample(rng))
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut test_runner::TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as i128 - self.start as i128) as u64;
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }
    )*};
}

int_range_strategy!(i64, i32, u64, u32, usize, u8);

/// Tuples of strategies are strategies over tuples of values, as in real
/// proptest (independent component draws).
macro_rules! tuple_strategy {
    ($(($($name:ident),+))*) => {$(
        #[allow(non_snake_case)]
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn sample(&self, rng: &mut test_runner::TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
            }
        }
    )*};
}

tuple_strategy!((A, B)(A, B, C)(A, B, C, D));

pub mod collection {
    //! Collection strategies, mirroring `proptest::collection`.

    use super::{test_runner::TestRng, Strategy};
    use std::ops::Range;

    /// Sizes accepted by [`vec()`]: an exact length or a half-open range.
    pub trait SizeRange {
        /// Draws a concrete length.
        fn pick(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for usize {
        fn pick(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl SizeRange for Range<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            assert!(self.start < self.end, "empty size range");
            self.start + rng.below((self.end - self.start) as u64) as usize
        }
    }

    /// A strategy for `Vec<S::Value>` with a length drawn from `size`.
    pub fn vec<S: Strategy, Z: SizeRange>(element: S, size: Z) -> VecStrategy<S, Z> {
        VecStrategy { element, size }
    }

    /// The strategy returned by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S, Z> {
        element: S,
        size: Z,
    }

    impl<S: Strategy, Z: SizeRange> Strategy for VecStrategy<S, Z> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.pick(rng);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod option {
    //! Option strategies, mirroring `proptest::option`.

    use super::{test_runner::TestRng, Strategy};

    /// A strategy producing `None` about a quarter of the time and `Some` of
    /// the inner strategy otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// The strategy returned by [`of`].
    #[derive(Debug, Clone)]
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.inner.sample(rng))
            }
        }
    }
}

/// Everything the property tests import, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::collection;
    pub use crate::option;
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::Strategy;
    pub use crate::{prop_assert, prop_assert_eq, proptest};
}

/// Fails the current case. The shim reports failures by panicking (there is
/// no shrinking phase to feed a structured error into).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond, "property assertion failed: {}", stringify!($cond));
    };
    ($cond:expr, $($fmt:tt)*) => {
        assert!($cond, $($fmt)*);
    };
}

/// Equality form of [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        assert_eq!($left, $right);
    };
    ($left:expr, $right:expr, $($fmt:tt)*) => {
        assert_eq!($left, $right, $($fmt)*);
    };
}

/// Declares property tests. Each `fn name(arg in strategy, ...) { body }`
/// expands to a `#[test]` that samples the strategies `cases` times and runs
/// the body on each sample.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@expand ($cfg); $($rest)*);
    };
    (@expand ($cfg:expr); $(
        $(#[doc = $doc:expr])*
        #[test]
        fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
    )*) => {
        $(
            $(#[doc = $doc])*
            #[test]
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::test_runner::TestRng::deterministic(stringify!($name));
                for _case in 0..config.cases {
                    $(let $arg = $crate::Strategy::sample(&$strat, &mut rng);)*
                    $body
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@expand ($crate::ProptestConfig::default()); $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_generate_in_bounds(v in 0i64..10) {
            prop_assert!((0..10).contains(&v));
        }

        #[test]
        fn vec_and_option_compose(items in collection::vec(option::of(0i64..4), 0..6)) {
            prop_assert!(items.len() < 6);
            for v in items.into_iter().flatten() {
                prop_assert!((0..4).contains(&v));
            }
        }

        #[test]
        fn prop_map_applies(doubled in (0i64..5).prop_map(|v| v * 2)) {
            prop_assert_eq!(doubled % 2, 0);
        }
    }

    #[test]
    fn generation_is_deterministic_per_name() {
        let strat = crate::collection::vec(0i64..100, 0..10);
        let mut a = crate::test_runner::TestRng::deterministic("x");
        let mut b = crate::test_runner::TestRng::deterministic("x");
        for _ in 0..10 {
            assert_eq!(strat.sample(&mut a), strat.sample(&mut b));
        }
    }
}
