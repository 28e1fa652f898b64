//! Typed, warn-and-default parsing for `S2S_*` environment knobs.
//!
//! Every knob in the workspace goes through these helpers so malformed
//! values behave uniformly: an *unset* variable silently takes its
//! default, but a set-and-unusable value (`S2S_THREADS=abc`,
//! `S2S_SNAPSHOT_BLOCK=0`) prints one warning to stderr and then takes the
//! default — it never panics, and it never silently does something other
//! than what the operator asked without saying so.
//!
//! The parsing cores are pure functions of `Option<&str>` so tests can
//! exercise every malformed shape without mutating the process
//! environment (tests run in parallel). The `var_*` wrappers read the
//! environment and print the warning.
//!
//! The consolidated knob table lives in `s2s_probe::env` (and README);
//! this module is just the shared mechanism, kept in `s2s-types` because
//! it is the one crate everything else already depends on.

use std::fmt::Display;
use std::str::FromStr;

/// Pure core: parses `raw` as a `T`, requiring `check` to pass.
///
/// * `None` (unset) → `(default, None)`: silent.
/// * parse failure or failed `check` → `(default, Some(warning))`.
/// * otherwise → `(value, None)`.
///
/// `requirement` describes what a valid value looks like, for the warning
/// text (e.g. `"a positive integer"`).
pub fn parse_checked<T: FromStr + Display + Copy>(
    name: &str,
    raw: Option<&str>,
    default: T,
    check: impl Fn(&T) -> bool,
    requirement: &str,
) -> (T, Option<String>) {
    let desc = format!("{default}");
    parse_checked_desc(name, raw, default, &desc, check, requirement)
}

/// [`parse_checked`] with an explicit description of the default for the
/// warning text — for knobs whose default value prints badly (e.g. a
/// `usize::MAX` meaning "unlimited").
pub fn parse_checked_desc<T: FromStr + Copy>(
    name: &str,
    raw: Option<&str>,
    default: T,
    default_desc: &str,
    check: impl Fn(&T) -> bool,
    requirement: &str,
) -> (T, Option<String>) {
    let Some(raw) = raw else { return (default, None) };
    match raw.trim().parse::<T>() {
        Ok(v) if check(&v) => (v, None),
        _ => (
            default,
            Some(format!(
                "warning: {name}={raw:?} is not {requirement}; using default {default_desc}"
            )),
        ),
    }
}

/// [`parse_checked`] with no constraint beyond parsing.
pub fn parse_or_default<T: FromStr + Display + Copy>(
    name: &str,
    raw: Option<&str>,
    default: T,
    requirement: &str,
) -> (T, Option<String>) {
    parse_checked(name, raw, default, |_| true, requirement)
}

/// Pure core for probability knobs: parses an `f64` and requires it to
/// land in `[0, 1]`.
pub fn parse_rate(name: &str, raw: Option<&str>, default: f64) -> (f64, Option<String>) {
    parse_checked(name, raw, default, |v| (0.0..=1.0).contains(v), "a probability in [0, 1]")
}

/// Pure core for boolean knobs: unset, empty, and `"0"` are false;
/// anything else is true. Never warns — every string is a valid flag.
pub fn parse_flag(raw: Option<&str>) -> bool {
    raw.map(|v| !v.trim().is_empty() && v.trim() != "0").unwrap_or(false)
}

fn emit(warning: Option<String>) {
    if let Some(w) = warning {
        eprintln!("{w}");
    }
}

/// Reads `name` from the environment as a `usize` (any value parses).
pub fn var_usize(name: &str, default: usize) -> usize {
    let raw = std::env::var(name).ok();
    let (v, w) = parse_or_default(name, raw.as_deref(), default, "an unsigned integer");
    emit(w);
    v
}

/// Reads `name` as a `usize` that must be at least `min` (so `=0` on a
/// knob where zero is meaningless warns instead of surprising).
pub fn var_usize_at_least(name: &str, default: usize, min: usize) -> usize {
    let raw = std::env::var(name).ok();
    let (v, w) = parse_checked(
        name,
        raw.as_deref(),
        default,
        |&v| v >= min,
        &format!("an integer >= {min}"),
    );
    emit(w);
    v
}

/// Reads `name` as a `u64`.
pub fn var_u64(name: &str, default: u64) -> u64 {
    let raw = std::env::var(name).ok();
    let (v, w) = parse_or_default(name, raw.as_deref(), default, "an unsigned integer");
    emit(w);
    v
}

/// Reads `name` as an `f64`.
pub fn var_f64(name: &str, default: f64) -> f64 {
    let raw = std::env::var(name).ok();
    let (v, w) = parse_or_default(name, raw.as_deref(), default, "a number");
    emit(w);
    v
}

/// Reads `name` as a probability in `[0, 1]`.
pub fn var_rate(name: &str, default: f64) -> f64 {
    let raw = std::env::var(name).ok();
    let (v, w) = parse_rate(name, raw.as_deref(), default);
    emit(w);
    v
}

/// Reads `name` as a boolean flag (unset / empty / `"0"` → false).
pub fn var_flag(name: &str) -> bool {
    parse_flag(std::env::var(name).ok().as_deref())
}

/// The raw string an operator set for `name`, if any — for `print-config`
/// style dumps that want to show both the raw and the resolved value.
pub fn var_raw(name: &str) -> Option<String> {
    std::env::var(name).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_is_silent_default() {
        let (v, w) = parse_or_default("S2S_X", None, 7usize, "an unsigned integer");
        assert_eq!(v, 7);
        assert!(w.is_none());
    }

    #[test]
    fn valid_value_is_silent() {
        let (v, w) = parse_or_default("S2S_X", Some(" 42 "), 7usize, "an unsigned integer");
        assert_eq!(v, 42);
        assert!(w.is_none());
    }

    #[test]
    fn garbage_warns_and_defaults() {
        for bad in ["abc", "", "1.5", "-3", "0x10"] {
            let (v, w) = parse_or_default("S2S_THREADS", Some(bad), 4usize, "an unsigned integer");
            assert_eq!(v, 4, "{bad:?} must fall back");
            let w = w.expect("malformed value must warn");
            assert!(w.contains("S2S_THREADS"), "{w}");
            assert!(w.contains("using default 4"), "{w}");
        }
    }

    #[test]
    fn minimum_is_enforced_with_warning() {
        let (v, w) =
            parse_checked("S2S_SNAPSHOT_BLOCK", Some("0"), 9usize, |&v| v >= 1, "an integer >= 1");
        assert_eq!(v, 9);
        assert!(w.unwrap().contains("S2S_SNAPSHOT_BLOCK=\"0\""));
        let (v, w) =
            parse_checked("S2S_SNAPSHOT_BLOCK", Some("3"), 9usize, |&v| v >= 1, "an integer >= 1");
        assert_eq!(v, 3);
        assert!(w.is_none());
    }

    #[test]
    fn rates_reject_out_of_range() {
        assert_eq!(parse_rate("S2S_FAULT_DROP", Some("0.25"), 0.0), (0.25, None));
        let (v, w) = parse_rate("S2S_FAULT_DROP", Some("1.5"), 0.0);
        assert_eq!(v, 0.0);
        assert!(w.unwrap().contains("probability"));
        let (v, w) = parse_rate("S2S_FAULT_DROP", Some("nope"), 0.125);
        assert_eq!(v, 0.125);
        assert!(w.is_some());
    }

    #[test]
    fn flags_treat_zero_and_empty_as_false() {
        assert!(!parse_flag(None));
        assert!(!parse_flag(Some("")));
        assert!(!parse_flag(Some(" 0 ")));
        assert!(parse_flag(Some("1")));
        assert!(parse_flag(Some("yes")));
    }
}
