//! Regenerates every experiment of `tango::experiments::EXPERIMENTS` (the
//! paper's tables and figures plus the suite summary) in one run, writing
//! each to `results/<id>.txt` and printing a progress line per experiment.
//! `repro_all --only <id>[,<id>…]` regenerates just those.
//!
//! Both go one way: the selected entries' needs are expanded up front by
//! [`tango_harness::plan`] (every run and build, deduplicated) and
//! executed across `TANGO_JOBS` worker threads against the shared
//! persistent [`RunStore`]; each entry then renders from the warm store,
//! in table order. A second invocation with the same preset therefore
//! performs zero simulations.
//!
//! Besides the per-experiment artifacts, a full run writes a per-phase
//! profile — wall-clock seconds plus store hit/miss/write deltas — to
//! `results/profile.txt`. The profile carries host timings and is the
//! one results file that is *not* byte-reproducible across runs.
//!
//! With `TANGO_TRACE=<path>` set the whole reproduction is recorded by
//! the flight recorder and exported as Chrome trace-event JSON on exit.
//!
//! `TANGO_PRESET=tiny repro_all` gives a fast smoke pass; the default
//! `bench` preset is what EXPERIMENTS.md records.

use std::process::ExitCode;
use std::time::Instant;
use tango::experiments::{find, Experiment, EXPERIMENTS};
use tango_bench::{characterizer, emit, store_handle, write_artifact, CliError, Env, SEED};
use tango_harness::{plan, RunStore};

/// The experiments `--only` selected, in table order, or `None` for a
/// full run.
fn parse_args() -> Result<Option<Vec<&'static Experiment>>, CliError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ids: Vec<&str> = match args.as_slice() {
        [] => return Ok(None),
        [flag, list] if flag == "--only" => list.split(',').collect(),
        _ => return Err(CliError::Usage("usage: repro_all [--only <id>[,<id>...]]".into())),
    };
    if let Some(id) = ids.iter().find(|id| find(id).is_none()) {
        let known = EXPERIMENTS.iter().map(|e| e.id).collect::<Vec<_>>().join(", ");
        return Err(CliError::Usage(format!("unknown experiment {id:?}; ids: {known}")));
    }
    Ok(Some(EXPERIMENTS.iter().filter(|e| ids.contains(&e.id)).collect()))
}

/// One profiled phase of the reproduction: wall-clock seconds and the
/// store-counter deltas it was responsible for.
struct PhaseRow {
    name: &'static str,
    secs: f64,
    hits: u64,
    misses: u64,
    writes: u64,
}

/// Accumulates [`PhaseRow`]s and renders the `results/profile.txt`
/// table. Timings are host wall-clock, so the rendered table is the one
/// results artifact that differs between otherwise-identical runs.
struct Profile {
    rows: Vec<PhaseRow>,
}

impl Profile {
    fn new() -> Self {
        Profile { rows: Vec::new() }
    }

    /// Runs `f` as a named phase: times it, attributes the store-counter
    /// movement to it, and (when tracing) wraps it in a host-clock span.
    fn phase<R>(&mut self, store: &RunStore, name: &'static str, f: impl FnOnce() -> R) -> R {
        let _span = tango_obs::is_enabled().then(|| tango_obs::hspan("repro.phase", name));
        let (h0, m0, w0) = (store.hits(), store.misses(), store.writes());
        let t = Instant::now();
        let out = f();
        self.rows.push(PhaseRow {
            name,
            secs: t.elapsed().as_secs_f64(),
            hits: store.hits() - h0,
            misses: store.misses() - m0,
            writes: store.writes() - w0,
        });
        out
    }

    fn render(&self, header: &str) -> String {
        let mut out = String::new();
        out.push_str(header);
        out.push('\n');
        out.push_str(&format!(
            "{:<10} {:>9} {:>8} {:>8} {:>8}\n",
            "phase", "seconds", "hits", "misses", "writes"
        ));
        let (mut secs, mut hits, mut misses, mut writes) = (0.0, 0, 0, 0);
        for row in &self.rows {
            secs += row.secs;
            hits += row.hits;
            misses += row.misses;
            writes += row.writes;
            out.push_str(&format!(
                "{:<10} {:>9.2} {:>8} {:>8} {:>8}\n",
                row.name, row.secs, row.hits, row.misses, row.writes
            ));
        }
        out.push_str(&format!(
            "{:<10} {:>9.2} {:>8} {:>8} {:>8}\n",
            "total", secs, hits, misses, writes
        ));
        out
    }
}

fn run() -> Result<ExitCode, CliError> {
    let env = Env::from_process()?;
    let only = parse_args()?;
    env.arm_trace();
    let store = store_handle();
    store.reset_counters();
    let (preset, workers) = (env.preset, env.jobs);
    let ch = characterizer(preset);
    eprintln!(
        "[repro] preset={preset} config={} seed={SEED:#x} jobs={workers}",
        ch.config().name
    );
    let mut profile = Profile::new();
    let full = only.is_none();
    let selected = only.unwrap_or_else(|| EXPERIMENTS.iter().collect());

    // Phase 1: run (or fetch) every simulation the selected experiments
    // need, in parallel, deduplicated by content-addressed key.
    let suite = plan(selected.iter().copied(), preset, SEED);
    let report = profile.phase(&store, "suite", || suite.execute(&store, workers))?;
    let secs = profile.rows[0].secs;
    eprintln!(
        "[repro] suite: {} jobs in {secs:.1}s  ({} store hits, {} simulated)",
        report.jobs, report.hits, report.misses,
    );

    // Phase 2: every experiment renders from the warm store.
    for e in selected {
        let text = profile.phase(&store, e.id, || e.inputs(&ch).map(|inputs| (e.render)(&inputs)))?;
        emit(&format!("{}.txt", e.id), &text)?;
        let row = profile.rows.last().expect("a phase just ran");
        eprintln!(
            "[repro] {:8} done in {:6.1}s  (store hits {}, misses {})",
            e.id, row.secs, row.hits, row.misses,
        );
    }

    // The profile carries wall-clock timings, so it bypasses `emit`
    // (whose stdout copy feeds deterministic-output comparisons); a
    // partial run leaves the full run's profile alone.
    if full {
        let header = format!("repro_all profile: preset={preset} jobs={workers}");
        let path = write_artifact("profile.txt", &profile.render(&header))?;
        eprintln!("[repro] phase profile written to {}", path.display());
    }

    eprintln!("[repro] experiments written to results/");
    // Machine-readable totals (ci.sh asserts misses=0 on a warm pass).
    eprintln!("[repro] store hits={} misses={}", store.hits(), store.misses());
    env.finish_trace("repro")?;
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    tango_bench::main(run)
}
