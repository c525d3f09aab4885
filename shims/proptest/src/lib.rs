//! Minimal offline stand-in for `proptest`.
//!
//! Supports the subset this workspace's property suites use: the
//! [`Strategy`](strategy::Strategy) trait with `prop_map` / `prop_recursive` / `boxed`,
//! regex-literal string strategies (`"[a-z]{1,8}"` etc.), numeric range
//! strategies, tuple composition, `Just`, `any::<T>()`,
//! `prop::collection::{vec, btree_set}`, the `proptest!` test macro and
//! the `prop_assert*` / `prop_assume!` assertion macros.
//!
//! Design differences from the real crate, deliberate for CI:
//!
//! * **Deterministic by construction.** Every test case's RNG is seeded
//!   from a fixed base (overridable via `PROPTEST_SEED`), the test's
//!   module path + name, and the case index — reruns are bit-identical,
//!   with no persistence files needed. A failure report prints the seed
//!   and case number, which is sufficient to replay.
//! * **No shrinking.** Failing inputs are reported as generated.
//! * **Capped case counts.** Defaults to 32 cases (env `PROPTEST_CASES`
//!   overrides, and `ProptestConfig::with_cases` values are honored but
//!   clamped to 256) so full-workspace `cargo test -q` stays fast.

pub mod collection;
pub mod strategy;
pub mod string;
pub mod test_runner;

/// Mirrors `proptest::prelude`.
pub mod prelude {
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest};

    /// Mirrors the real prelude's `prop` module alias.
    pub mod prop {
        pub use crate::collection;
        pub use crate::strategy;
    }
}

/// Declares property tests. Each function is expanded to a `#[test]`
/// (the attribute comes from the user-written meta list) that runs the
/// body over `cases` generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::test_runner::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ( ($cfg:expr); $( $(#[$meta:meta])* fn $name:ident ( $( $arg:ident in $strat:expr ),+ $(,)? ) $body:block )* ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                let cases = config.effective_cases();
                let strat = ( $( $strat, )+ );
                let test_path = concat!(module_path!(), "::", stringify!($name));
                for case in 0..cases {
                    let mut rng = $crate::test_runner::TestRng::for_case(test_path, case);
                    let ( $( $arg, )+ ) =
                        $crate::strategy::Strategy::generate(&strat, &mut rng);
                    let outcome: ::core::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| { $body ::core::result::Result::Ok(()) })();
                    match outcome {
                        ::core::result::Result::Ok(()) => {}
                        ::core::result::Result::Err($crate::test_runner::TestCaseError::Reject(_)) => {}
                        ::core::result::Result::Err($crate::test_runner::TestCaseError::Fail(msg)) => {
                            panic!(
                                "proptest {} failed at case {}/{} (base seed {:#x}): {}",
                                test_path, case, cases,
                                $crate::test_runner::base_seed(), msg
                            );
                        }
                    }
                }
            }
        )*
    };
}

/// `prop_assert!(cond)` / `prop_assert!(cond, "fmt", args...)`.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// `prop_assert_eq!(left, right)` with optional context format args.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: `left == right`\n  left: {:?}\n right: {:?}", l, r)));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: `left == right`\n  left: {:?}\n right: {:?}\n {}",
                        l, r, format!($($fmt)+))));
        }
    }};
}

/// `prop_assert_ne!(left, right)` with optional context format args.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: `left != right`\n  both: {:?}", l)));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: `left != right`\n  both: {:?}\n {}",
                        l, format!($($fmt)+))));
        }
    }};
}

/// Skips the current case when its inputs don't satisfy a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::reject(stringify!($cond)));
        }
    };
}

/// Uniformly picks one of several strategies producing the same value
/// type. Weights (`w => strat`) are accepted and honored.
#[macro_export]
macro_rules! prop_oneof {
    ($( $weight:literal => $strat:expr ),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![
            $( ($weight as u32, $crate::strategy::Strategy::boxed($strat)) ),+
        ])
    };
    ($( $strat:expr ),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![
            $( (1u32, $crate::strategy::Strategy::boxed($strat)) ),+
        ])
    };
}
