//! Runtime invariant checking, compiled out of release benchmarks.
//!
//! The ARC-family caches and the City-Hunter reply buffers maintain size
//! invariants (|T1|+|T2| ≤ c, PB+FB ≤ reply budget, …) whose violation
//! would silently skew the reproduced hit rates rather than crash. The
//! [`ch_invariant!`] and [`debug_invariant!`] macros make those invariants
//! executable:
//!
//! * [`ch_invariant!`] is active when `debug_assertions` are on (so in
//!   `cargo test` and dev builds) **or** when the `debug-invariants`
//!   feature of `ch-sim` is enabled — letting a release build opt back in
//!   with `--features ch-sim/debug-invariants`. Otherwise the check
//!   compiles to a constant-false branch the optimizer removes.
//! * [`debug_invariant!`] is tied to `debug_assertions` only, for checks
//!   too hot even for an opt-in release run.
//!
//! Both report through [`violation`], which panics with a `file:line`
//! prefix in the same shape as `ch-lint` diagnostics.

/// `true` when [`ch_invariant!`] checks are compiled in.
#[must_use]
pub const fn checks_enabled() -> bool {
    cfg!(any(debug_assertions, feature = "debug-invariants"))
}

/// Reports an invariant violation. Panics; never returns.
///
/// # Panics
///
/// Always — that is its job.
#[cold]
#[track_caller]
pub fn violation(file: &str, line: u32, message: &str) -> ! {
    panic!("invariant violated at {file}:{line}: {message}");
}

/// Asserts a structural invariant; see the [module docs](self) for when
/// the check is compiled in.
///
/// ```
/// use ch_sim::ch_invariant;
/// let (t1, t2, cap) = (3usize, 4usize, 8usize);
/// ch_invariant!(t1 + t2 <= cap, "resident lists {}+{} exceed {}", t1, t2, cap);
/// ```
#[macro_export]
macro_rules! ch_invariant {
    ($cond:expr $(,)?) => {
        if $crate::invariant::checks_enabled() && !($cond) {
            $crate::invariant::violation(file!(), line!(), stringify!($cond));
        }
    };
    ($cond:expr, $($msg:tt)+) => {
        if $crate::invariant::checks_enabled() && !($cond) {
            $crate::invariant::violation(file!(), line!(), &format!($($msg)+));
        }
    };
}

/// Like [`ch_invariant!`] but only ever active under `debug_assertions`.
#[macro_export]
macro_rules! debug_invariant {
    ($cond:expr $(,)?) => {
        if cfg!(debug_assertions) && !($cond) {
            $crate::invariant::violation(file!(), line!(), stringify!($cond));
        }
    };
    ($cond:expr, $($msg:tt)+) => {
        if cfg!(debug_assertions) && !($cond) {
            $crate::invariant::violation(file!(), line!(), &format!($($msg)+));
        }
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn passing_invariants_are_silent() {
        ch_invariant!(1 + 1 == 2);
        ch_invariant!(true, "never printed {}", 0);
        debug_invariant!(!"".contains('x'));
    }

    #[test]
    fn failing_invariant_panics_with_location() {
        let err = std::panic::catch_unwind(|| {
            ch_invariant!(2 + 2 == 5, "arithmetic drifted: {}", 42);
        })
        .expect_err("must panic under debug_assertions");
        let msg = err
            .downcast_ref::<String>()
            .expect("panic payload is a formatted string");
        assert!(msg.contains("invariant violated at"), "{msg}");
        assert!(msg.contains("invariant.rs:"), "{msg}");
        assert!(msg.contains("arithmetic drifted: 42"), "{msg}");
    }

    #[test]
    fn failing_debug_invariant_panics_with_condition_text() {
        // `debug_invariant!` checks only under debug_assertions; a release
        // build compiles it out even with `debug-invariants` enabled.
        let result = std::panic::catch_unwind(|| {
            debug_invariant!(1 > 2);
        });
        if cfg!(debug_assertions) {
            let err = result.expect_err("must panic under debug_assertions");
            let msg = err
                .downcast_ref::<String>()
                .expect("panic payload is a formatted string");
            assert!(msg.contains("1 > 2"), "{msg}");
        } else {
            assert!(result.is_ok(), "compiled out without debug_assertions");
        }
    }

    #[test]
    fn checks_enabled_in_tests() {
        // Tests build with debug_assertions, so the opt-in layer must be on.
        assert!(super::checks_enabled());
    }
}
