//! Offline stand-in for the parts of `proptest` this workspace uses.
//!
//! The build environment has no crates.io access, so this crate
//! implements the subset the test suites rely on and nothing else: the
//! [`proptest!`] macro (with `#![proptest_config(...)]`), [`prop_assert!`]
//! and [`prop_assert_eq!`], [`strategy::Strategy`] with `prop_map`,
//! `any::<T>()` for `u8`, `u16`, `u64` and `bool`, integer and `f64` range
//! strategies, and `collection::vec`.
//!
//! Semantics: pure random sampling with a per-test deterministic seed.
//! There is **no shrinking** — a failing case reports its case index and
//! the assertion message instead of a minimized input. Failures are
//! reproducible because the seed is derived from the test's module path
//! and name.

#![forbid(unsafe_code)]

pub mod collection;
pub mod strategy;
pub mod test_runner;

pub mod prelude {
    //! One-stop imports, mirroring `proptest::prelude::*`.
    pub use crate::strategy::{any, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestCaseResult};
    pub use crate::{prop_assert, prop_assert_eq, proptest};
}

/// Fails the test case with a message unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// Fails the test case unless the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `left == right`\n  left: `{:?}`\n right: `{:?}`",
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(*left == *right, $($fmt)*);
    }};
}

/// Declares property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` that samples its strategies `cases` times.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests! { config = ($config); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests! {
            config = ($crate::test_runner::ProptestConfig::default());
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    (config = ($config:expr);) => {};
    (config = ($config:expr);
     $(#[$meta:meta])*
     fn $name:ident($($pat:pat in $strategy:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $config;
            let cases = config.effective_cases();
            let mut rng = $crate::test_runner::TestRng::from_name(
                concat!(module_path!(), "::", stringify!($name)),
            );
            for case in 0..cases {
                $(let $pat = $crate::strategy::Strategy::sample(&($strategy), &mut rng);)+
                let outcome: $crate::test_runner::TestCaseResult =
                    (|| { $body ::core::result::Result::Ok(()) })();
                if let ::core::result::Result::Err(err) = outcome {
                    panic!(
                        "proptest {} failed at case {}/{}: {}",
                        stringify!($name),
                        case + 1,
                        cases,
                        err
                    );
                }
            }
        }
        $crate::__proptest_tests! { config = ($config); $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_respect_bounds(x in 3u64..10, y in 0usize..=4, f in 0.25f64..0.75) {
            prop_assert!((3..10).contains(&x));
            prop_assert!(y <= 4);
            prop_assert!((0.25..0.75).contains(&f));
        }

        #[test]
        fn prop_map_applies(x in (0u8..10).prop_map(|v| v * 2)) {
            prop_assert_eq!(x % 2, 0);
            prop_assert!(x < 20);
        }

        #[test]
        fn vec_sizes(v in crate::collection::vec(any::<u8>(), 2..5),
                     w in crate::collection::vec(any::<bool>(), 3)) {
            prop_assert!(v.len() >= 2 && v.len() < 5);
            prop_assert_eq!(w.len(), 3);
        }
    }

    #[test]
    fn question_mark_propagates() {
        fn helper(ok: bool) -> TestCaseResult {
            prop_assert!(ok, "helper saw false");
            Ok(())
        }
        proptest! {
            fn inner(_b in any::<bool>()) {
                helper(true)?;
            }
        }
        inner();
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failing_property_panics() {
        proptest! {
            fn always_fails(x in 0u64..10) {
                prop_assert!(x > 100, "x was {}", x);
            }
        }
        always_fails();
    }
}
