//! Every `TANGO_*` environment variable: one table ([`VARS`]) and one
//! lookup ([`Var::raw`] for the text, [`Var::parse`] for the value) that
//! all readers in the workspace go through.
//!
//! An *unset* variable falls back cleanly; a variable set to something
//! unusable is an error naming the variable — silently ignoring a
//! typo'd `TANGO_JOBS=O8` or `TANGO_PRESET=papr` would hand the user a
//! run they did not ask for. The binaries parse every variable once at
//! start-up and exit 2 on the first error.

use crate::trace::Trace;
use std::fmt::Write as _;

/// Default per-thread ring capacity in events when `TANGO_TRACE_CAP` is
/// unset: large enough to hold a full paper-preset run, small enough
/// that an accidental always-on trace stays bounded.
pub const DEFAULT_EVENT_CAP: usize = 1 << 20;

/// What a set-but-unusable value does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bad {
    /// Usage error (exit 2): `"<NAME> must be <must_be>, got <raw>"`.
    Exit2 {
        /// What a valid value is, as the error message words it.
        must_be: &'static str,
    },
    /// Every UTF-8 value is accepted; the text says what an unexpected
    /// one does (the README cell).
    Lenient(&'static str),
}

/// One row of the environment table.
#[derive(Debug, PartialEq, Eq)]
pub struct Var {
    /// The variable's name.
    pub name: &'static str,
    /// What it controls (the README cell).
    pub meaning: &'static str,
    /// What a bad value does.
    pub bad: Bad,
}

const fn strict(name: &'static str, meaning: &'static str, must_be: &'static str) -> Var {
    Var {
        name,
        meaning,
        bad: Bad::Exit2 { must_be },
    }
}

const fn lenient(name: &'static str, meaning: &'static str, bad: &'static str) -> Var {
    Var {
        name,
        meaning,
        bad: Bad::Lenient(bad),
    }
}

/// `TANGO_PRESET`.
pub static PRESET: Var = strict(
    "TANGO_PRESET",
    "`paper` \\| `bench` (default) \\| `tiny` model scale",
    "paper, bench or tiny",
);
/// `TANGO_JOBS`.
pub static JOBS: Var = strict(
    "TANGO_JOBS",
    "worker threads for `repro_all` / `backends` / `fleet` (default: all cores)",
    "a positive worker count",
);
/// `TANGO_SERVE_WORKERS`.
pub static SERVE_WORKERS: Var = strict(
    "TANGO_SERVE_WORKERS",
    "workers for `serve_bench` batch-cost precompute (default: all cores)",
    "a positive worker count",
);
/// `TANGO_BENCH_SAMPLES`.
pub static BENCH_SAMPLES: Var = strict(
    "TANGO_BENCH_SAMPLES",
    "least timed passes per network in `bench_perf` (default 2)",
    "a positive sample count",
);
/// `TANGO_RESULTS_DIR`.
pub static RESULTS_DIR: Var = lenient("TANGO_RESULTS_DIR", "relocates `results/` (artifacts + store)", "—");
/// `TANGO_SIM_MEMO`.
pub static SIM_MEMO: Var = lenient(
    "TANGO_SIM_MEMO",
    "`0` disables exact launch memoization (byte-identical, slower; sampled at first use)",
    "enabled",
);
/// `TANGO_BACKENDS`.
pub static BACKENDS: Var = strict(
    "TANGO_BACKENDS",
    "`gpu`/`systolic`/`fpga` subset for `harness backends` (default `all`)",
    "`all` or a comma list of gpu/systolic/fpga",
);
/// `TANGO_FLEET_REQUESTS`.
pub static FLEET_REQUESTS: Var = strict(
    "TANGO_FLEET_REQUESTS",
    "trace size for `harness fleet` (defaults 400 / 120 smoke)",
    "a positive request count",
);
/// `TANGO_FLEET_SEED`.
pub static FLEET_SEED: Var = strict("TANGO_FLEET_SEED", "trace seed for `harness fleet`", "an unsigned integer");
/// `TANGO_TRACE`.
pub static TRACE: Var = strict(
    "TANGO_TRACE",
    "enables the flight recorder, names the Chrome-JSON output",
    "a trace output path",
);
/// `TANGO_TRACE_CAP`.
pub static TRACE_CAP: Var = strict(
    "TANGO_TRACE_CAP",
    "per-thread trace ring-buffer bound (default 2^20)",
    "a positive event count",
);
/// `TANGO_METRICS`.
pub static METRICS: Var = strict(
    "TANGO_METRICS",
    "`1` derives metrics registries in `harness fleet` / `serve_bench`",
    "0 or 1",
);
/// `TANGO_METRICS_WINDOW`.
pub static METRICS_WINDOW: Var = strict(
    "TANGO_METRICS_WINDOW",
    "overrides the metrics aggregation window width",
    "a positive window width",
);
/// `TANGO_DEBUG_HANG`.
pub static DEBUG_HANG: Var = lenient(
    "TANGO_DEBUG_HANG",
    "set: dumps per-SM warp states on long launches (sampled at first use)",
    "enabled",
);

/// Every variable the workspace reads, in README order.
pub static VARS: [&Var; 14] = [
    &PRESET,
    &JOBS,
    &SERVE_WORKERS,
    &BENCH_SAMPLES,
    &RESULTS_DIR,
    &SIM_MEMO,
    &BACKENDS,
    &FLEET_REQUESTS,
    &FLEET_SEED,
    &TRACE,
    &TRACE_CAP,
    &METRICS,
    &METRICS_WINDOW,
    &DEBUG_HANG,
];

impl Var {
    /// The variable's text in the process environment; unset is `None`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the variable when it is not UTF-8.
    pub fn raw(&self) -> Result<Option<String>, String> {
        match std::env::var(self.name) {
            Ok(raw) => Ok(Some(raw)),
            Err(std::env::VarError::NotPresent) => Ok(None),
            Err(std::env::VarError::NotUnicode(_)) => Err(format!("{} is set to a non-UTF-8 value", self.name)),
        }
    }

    /// Applies `parse` to a set value; `None` (unset) stays `None`.
    ///
    /// # Errors
    ///
    /// Returns `"<NAME> must be <what>, got <raw>"` when `parse` rejects
    /// the text.
    pub fn parse<T>(&self, raw: Option<&str>, parse: impl FnOnce(&str) -> Option<T>) -> Result<Option<T>, String> {
        let Some(raw) = raw else { return Ok(None) };
        let must_be = match self.bad {
            Bad::Exit2 { must_be } => must_be,
            Bad::Lenient(_) => "valid",
        };
        parse(raw)
            .map(Some)
            .ok_or_else(|| format!("{} must be {must_be}, got {raw:?}", self.name))
    }
}

/// Parser for counts and widths: an integer of at least 1.
pub fn positive<T: std::str::FromStr + PartialOrd + Default>(raw: &str) -> Option<T> {
    raw.trim().parse().ok().filter(|n| *n > T::default())
}

/// The README's environment table, rendered from [`VARS`].
pub fn render_table() -> String {
    let mut out = String::from("| Variable | Meaning | Bad value |\n|---|---|---|\n");
    for var in VARS {
        let bad = match var.bad {
            Bad::Exit2 { .. } => "exit 2",
            Bad::Lenient(text) => text,
        };
        let _ = writeln!(out, "| `{}` | {} | {bad} |", var.name, var.meaning);
    }
    out
}

/// Writes `trace` as Chrome trace-event JSON to `path`, creating parent
/// directories.
///
/// # Errors
///
/// Returns a message naming the path on I/O failure.
pub fn write_chrome_file(path: &std::path::Path, trace: &Trace) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| format!("creating {}: {e}", parent.display()))?;
        }
    }
    std::fs::write(path, trace.chrome_json()).map_err(|e| format!("writing {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positive_accepts_integers_from_one_up() {
        assert_eq!(positive::<usize>("4096"), Some(4096));
        assert_eq!(positive::<u32>(" 1 "), Some(1));
        for bad in ["", "0", "many", "-1", "2.5", "1e6"] {
            assert_eq!(positive::<u64>(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn errors_name_the_variable_and_quote_the_value() {
        assert_eq!(TRACE_CAP.parse(None, positive::<usize>), Ok(None));
        assert_eq!(TRACE_CAP.parse(Some("8"), positive::<usize>), Ok(Some(8)));
        let err = TRACE_CAP.parse(Some("many"), positive::<usize>).unwrap_err();
        assert_eq!(err, "TANGO_TRACE_CAP must be a positive event count, got \"many\"");
    }

    #[test]
    fn readme_table_is_the_rendered_table() {
        let readme = include_str!("../../../README.md");
        assert!(
            readme.contains(&render_table()),
            "README.md environment table is stale; paste this:\n{}",
            render_table()
        );
    }
}
