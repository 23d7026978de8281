//! The command layer: plumbing shared by the six binaries (`harness`,
//! `repro_all`, `serve_bench`, `bench_perf`, `ablations`, `summary`).
//!
//! Every binary has the same skeleton — `fn main() -> ExitCode {
//! tango_bench::main(run) }` around a `run() -> Result<ExitCode,
//! CliError>` that starts with [`Env::from_process`] — so the `TANGO_*`
//! environment is parsed strictly and once, `?` carries every failure
//! out, and one place decides the exit code. All binaries share one
//! process-wide [`RunStore`] (persisted under `results/store/`), so any
//! simulation one of them performs is a cache hit for every later one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::{Arc, OnceLock};
use tango::Characterizer;
use tango_backend::BackendKind;
use tango_harness::{results_root, worker_count, RunStore};
use tango_nets::Preset;
use tango_obs::env::{self, positive, Var};
use tango_sim::GpuConfig;

/// The deterministic seed every binary uses.
pub const SEED: u64 = 0x7A16_0201_9151;

/// Why a command stopped early.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// Bad arguments or environment: exit 2.
    Usage(String),
    /// The work itself failed: exit 1.
    Failure(String),
}

impl CliError {
    /// A [`CliError::Failure`] reading `"<what>: <cause>"`, for use
    /// with `map_err`.
    pub fn failed<E: std::fmt::Display>(what: &str) -> impl FnOnce(E) -> CliError + '_ {
        move |cause| CliError::Failure(format!("{what}: {cause}"))
    }
}

/// Library errors (simulation, serving, fleet, backend, I/O) are
/// failures; `?` converts them.
impl<E: std::error::Error> From<E> for CliError {
    fn from(e: E) -> Self {
        CliError::Failure(e.to_string())
    }
}

/// The one exit path: runs the command, prints `error: <message>` for
/// an early stop, and maps usage → 2, failure → 1.
pub fn main(run: impl FnOnce() -> Result<ExitCode, CliError>) -> ExitCode {
    let (message, code) = match run() {
        Ok(code) => return code,
        Err(CliError::Usage(message)) => (message, 2),
        Err(CliError::Failure(message)) => (message, 1),
    };
    eprintln!("error: {message}");
    ExitCode::from(code)
}

/// The `TANGO_*` environment, parsed once per process. Every strict
/// variable is validated whether or not the running command reads it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Env {
    /// `TANGO_PRESET`; `bench` when unset, the scale DESIGN.md documents
    /// for the timing/power experiments.
    pub preset: Preset,
    /// `TANGO_JOBS`; all cores when unset.
    pub jobs: usize,
    /// `TANGO_SERVE_WORKERS`; all cores when unset.
    pub serve_workers: usize,
    /// `TANGO_BENCH_SAMPLES`.
    pub bench_samples: Option<u32>,
    /// `TANGO_BACKENDS` in comparison-table order; every backend when
    /// unset or `all`.
    pub backends: Vec<BackendKind>,
    /// `TANGO_FLEET_REQUESTS`.
    pub fleet_requests: Option<usize>,
    /// `TANGO_FLEET_SEED`; [`SEED`] when unset.
    pub fleet_seed: u64,
    /// `TANGO_TRACE`: where to write the flight-recorder contents.
    pub trace: Option<PathBuf>,
    /// `TANGO_TRACE_CAP`; [`tango_obs::DEFAULT_EVENT_CAP`] when unset.
    pub trace_cap: usize,
    /// `TANGO_METRICS=1`.
    pub metrics: bool,
    /// `TANGO_METRICS_WINDOW`, in the producer's clock units.
    pub metrics_window: Option<u64>,
}

fn parse_backends(raw: &str) -> Option<Vec<BackendKind>> {
    if raw.trim().eq_ignore_ascii_case("all") {
        return Some(BackendKind::ALL.to_vec());
    }
    let wanted = raw.split(',').map(BackendKind::parse).collect::<Option<Vec<_>>>()?;
    Some(BackendKind::ALL.into_iter().filter(|k| wanted.contains(k)).collect())
}

impl Env {
    /// Parses the process environment.
    ///
    /// # Errors
    ///
    /// A [`CliError::Usage`] naming the first variable that is set to
    /// something unusable.
    pub fn from_process() -> Result<Env, CliError> {
        Env::from(Var::raw).map_err(CliError::Usage)
    }

    /// Parses the environment `read` presents.
    fn from<R: Fn(&Var) -> Result<Option<String>, String>>(read: R) -> Result<Env, String> {
        fn get<T>(
            read: impl Fn(&Var) -> Result<Option<String>, String>,
            var: &Var,
            parse: impl FnOnce(&str) -> Option<T>,
        ) -> Result<Option<T>, String> {
            var.parse(read(var)?.as_deref(), parse)
        }
        for var in env::VARS {
            read(var)?; // the lenient ones are read lazily elsewhere; they must still be UTF-8
        }
        let flag = |v: &str| match v.trim() {
            "0" => Some(false),
            "1" => Some(true),
            _ => None,
        };
        Ok(Env {
            preset: get(&read, &env::PRESET, |v| Preset::ALL.into_iter().find(|p| p.name() == v))?
                .unwrap_or(Preset::Bench),
            jobs: worker_count(&env::JOBS, read(&env::JOBS)?.as_deref())?,
            serve_workers: worker_count(&env::SERVE_WORKERS, read(&env::SERVE_WORKERS)?.as_deref())?,
            bench_samples: get(&read, &env::BENCH_SAMPLES, positive)?,
            backends: get(&read, &env::BACKENDS, parse_backends)?.unwrap_or(BackendKind::ALL.to_vec()),
            fleet_requests: get(&read, &env::FLEET_REQUESTS, positive)?,
            fleet_seed: get(&read, &env::FLEET_SEED, |v| v.trim().parse().ok())?.unwrap_or(SEED),
            trace: get(&read, &env::TRACE, |v| (!v.trim().is_empty()).then(|| PathBuf::from(v)))?,
            trace_cap: get(&read, &env::TRACE_CAP, positive)?.unwrap_or(tango_obs::DEFAULT_EVENT_CAP),
            metrics: get(&read, &env::METRICS, flag)?.unwrap_or(false),
            metrics_window: get(&read, &env::METRICS_WINDOW, positive)?,
        })
    }

    /// Turns the flight recorder on when `TANGO_TRACE` named an output.
    /// A command that supports tracing calls this before its work and
    /// [`finish_trace`](Self::finish_trace) after it.
    pub fn arm_trace(&self) {
        if self.trace.is_some() {
            tango_obs::enable(self.trace_cap);
        }
    }

    /// Drains the flight recorder into the `TANGO_TRACE` file and
    /// returns what was written; `None` when tracing is off.
    ///
    /// # Errors
    ///
    /// A [`CliError::Failure`] when the file cannot be written.
    pub fn finish_trace(&self, tag: &str) -> Result<Option<tango_obs::Trace>, CliError> {
        let Some(path) = &self.trace else { return Ok(None) };
        let trace = tango_obs::drain();
        tango_obs::write_chrome_file(path, &trace).map_err(CliError::Failure)?;
        eprintln!(
            "[{tag}] trace: wrote {} events to {} ({} dropped)",
            trace.len(),
            path.display(),
            trace.dropped
        );
        Ok(Some(trace))
    }
}

/// The process-wide persistent run store at the default location
/// (`results/store/`, or under `TANGO_RESULTS_DIR`).
pub fn store_handle() -> Arc<RunStore> {
    static STORE: OnceLock<Arc<RunStore>> = OnceLock::new();
    STORE.get_or_init(|| Arc::new(RunStore::open_default())).clone()
}

/// The characterizer the simulated figures use: GP102 at `preset`,
/// backed by the shared [`store_handle`] so repeated runs are served
/// from the store.
pub fn characterizer(preset: Preset) -> Characterizer {
    Characterizer::new(GpuConfig::gp102(), preset, SEED).with_source(store_handle())
}

/// Writes `content` verbatim to `results/<file>` and returns the path.
/// The directory is resolved via [`tango_harness::results_root`], so it
/// does not depend on the process working directory.
///
/// # Errors
///
/// A [`CliError::Failure`] naming the path.
pub fn write_artifact(file: &str, content: &str) -> Result<PathBuf, CliError> {
    let path = results_root().join(file);
    fs::create_dir_all(results_root())
        .and_then(|()| fs::write(&path, content))
        .map_err(CliError::failed(&format!("cannot write {}", path.display())))?;
    Ok(path)
}

/// Prints `content` as a line and writes it to `results/<file>`, so CI
/// can consume either stdout or the file.
///
/// # Errors
///
/// See [`write_artifact`].
pub fn emit(file: &str, content: &str) -> Result<(), CliError> {
    println!("{content}");
    write_artifact(file, content).map(drop)
}

/// Appends one line to `results/<file>`, creating the file if needed —
/// for append-only trajectory logs (`bench_history.jsonl`) that
/// accumulate one record per run instead of being overwritten.
///
/// # Errors
///
/// A [`CliError::Failure`] naming the file.
pub fn append_line(file: &str, line: &str) -> Result<(), CliError> {
    use std::io::Write;
    fs::create_dir_all(results_root())
        .and_then(|()| fs::OpenOptions::new().create(true).append(true).open(results_root().join(file)))
        .and_then(|mut f| writeln!(f, "{line}"))
        .map_err(CliError::failed(&format!("cannot append to results/{file}")))
}

/// A minimal flat JSON-object builder for the `BENCH_*.json` perf
/// baselines — insertion-ordered, strings escaped, and every number
/// guaranteed finite (non-finite values are clamped to `0`, so a
/// degenerate measurement can never produce `NaN`/`inf`, which are not
/// JSON).
#[derive(Debug, Clone, Default)]
pub struct JsonObject {
    fields: Vec<(String, String)>,
}

impl JsonObject {
    /// An empty object.
    pub fn new() -> Self {
        JsonObject::default()
    }

    fn push(&mut self, key: &str, rendered: String) {
        self.fields.push((key.to_string(), rendered));
    }

    /// Adds a string field (escaped).
    pub fn str(mut self, key: &str, value: &str) -> Self {
        let escaped: String = value
            .chars()
            .flat_map(|c| match c {
                '"' => "\\\"".chars().collect::<Vec<_>>(),
                '\\' => "\\\\".chars().collect(),
                '\n' => "\\n".chars().collect(),
                c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
                c => vec![c],
            })
            .collect();
        self.push(key, format!("\"{escaped}\""));
        self
    }

    /// Adds an integer field.
    pub fn int(mut self, key: &str, value: u64) -> Self {
        self.push(key, value.to_string());
        self
    }

    /// Adds a float field; non-finite values render as `0` so the output
    /// is always valid JSON.
    pub fn num(mut self, key: &str, value: f64) -> Self {
        let safe = if value.is_finite() { value } else { 0.0 };
        self.push(key, format!("{safe:.6}"));
        self
    }

    /// Returns the rendered value of `key`, if present — for composing
    /// derived records (the bench history line copies fields out of the
    /// per-leg objects).
    pub fn get(&self, key: &str) -> Option<&str> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// Adds an already-rendered field verbatim. Only pass values
    /// obtained from [`get`](Self::get) on another builder; arbitrary
    /// strings would break the valid-JSON guarantee.
    pub fn raw(mut self, key: &str, rendered: &str) -> Self {
        self.push(key, rendered.to_string());
        self
    }

    /// Renders the object as a single-line JSON string.
    pub fn render(&self) -> String {
        let body: Vec<String> = self.fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        format!("{{{}}}", body.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tango_obs::env::Bad;

    #[test]
    fn default_preset_is_bench() {
        let env = Env::from(|_| Ok(None)).expect("an empty environment is valid");
        let cores = worker_count(&env::JOBS, None).unwrap();
        let defaults = Env {
            preset: Preset::Bench,
            jobs: cores,
            serve_workers: cores,
            bench_samples: None,
            backends: BackendKind::ALL.to_vec(),
            fleet_requests: None,
            fleet_seed: SEED,
            trace: None,
            trace_cap: tango_obs::DEFAULT_EVENT_CAP,
            metrics: false,
            metrics_window: None,
        };
        assert_eq!(env, defaults);
    }

    /// The whole table, one variable set at a time.
    #[test]
    fn every_strict_variable_rejects_bad_values_by_name() {
        let with = |var: &'static Var, value: &'static str| {
            Env::from(move |v| Ok((v == var).then(|| value.to_string())))
        };
        // The strict variables that accept one of the probe values: any
        // text names a trace file, and zero is a seed and a flag.
        let accepts = |var: &Var, value: &str| match var.name {
            "TANGO_TRACE" => !value.is_empty(),
            "TANGO_FLEET_SEED" | "TANGO_METRICS" => value == "0",
            _ => false,
        };
        for var in env::VARS {
            for bad in ["", "0", "-1", "garbage"] {
                match (var.bad, with(var, bad)) {
                    (Bad::Lenient(_), got) => assert!(got.is_ok(), "{}={bad:?}: {got:?}", var.name),
                    (Bad::Exit2 { .. }, Ok(_)) => assert!(accepts(var, bad), "{}={bad:?} accepted", var.name),
                    (Bad::Exit2 { must_be }, Err(e)) => {
                        assert_eq!(e, format!("{} must be {must_be}, got {bad:?}", var.name));
                    }
                }
            }
            let not_utf8 = Env::from(|v| if v == var { Err("not UTF-8".into()) } else { Ok(None) });
            assert_eq!(not_utf8, Err("not UTF-8".to_string()), "{}", var.name);
        }
        assert_eq!(with(&env::PRESET, "tiny").unwrap().preset, Preset::Tiny);
        let subset = with(&env::BACKENDS, "FPGA, gpu,fpga").unwrap().backends;
        assert_eq!(subset, [BackendKind::Gpu, BackendKind::Fpga], "table order, deduplicated");
        assert_eq!(with(&env::BACKENDS, "All").unwrap().backends, BackendKind::ALL);
        assert_eq!(with(&env::TRACE, "t.json").unwrap().trace, Some(PathBuf::from("t.json")));
        assert!(with(&env::METRICS, "1").unwrap().metrics);
    }

    #[test]
    fn characterizer_uses_gp102_with_the_shared_store() {
        let ch = characterizer(Preset::Tiny);
        assert!(ch.config().name.contains("GP102"));
        assert!(ch.source().is_some(), "figures must route through the store");
    }

    #[test]
    fn store_handle_is_shared() {
        assert!(Arc::ptr_eq(&store_handle(), &store_handle()));
    }

    #[test]
    fn json_builder_emits_valid_escaped_json() {
        let obj = JsonObject::new()
            .str("bench", "sim")
            .str("tricky", "a\"b\\c\nd")
            .int("cycles", 123456)
            .num("wall_s", 0.25)
            .num("rate", f64::NAN)
            .render();
        tango_obs::json::validate(&obj).expect("builder output must be valid JSON");
        assert!(obj.starts_with("{\"bench\":\"sim\""), "insertion order preserved: {obj}");
        assert!(obj.contains("\"rate\":0.000000"), "non-finite must clamp to 0: {obj}");
    }
}
