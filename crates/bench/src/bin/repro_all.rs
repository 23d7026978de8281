//! Regenerates every table and figure of the paper in one run, writing
//! each to `results/<id>.txt` and printing a progress line per experiment.
//! `repro_all --only <id>[,<id>…]` regenerates just those.
//!
//! The full experiment plan (every simulation any figure needs,
//! deduplicated) is expanded up front by [`tango_harness::repro_plan`]
//! and executed across `TANGO_JOBS` worker threads against the shared
//! persistent [`RunStore`]; the figure and table producers then read
//! exclusively from the warm store. A second invocation with the same
//! preset therefore performs zero simulations. `--only` skips that
//! prefetch, so it simulates only what the named producers fetch.
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
use tango::{figures, tables, Characterizer};
use tango_bench::{characterizer, emit, store_handle, write_artifact, CliError, Env, SEED};
use tango_harness::{repro_plan, RunStore};

/// Renders one table or figure from the store-backed characterizer.
type Producer = fn(&Characterizer) -> tango::Result<String>;

/// Every experiment, in the order a full run emits them. The producers
/// fetch their own inputs, so each also works alone (`--only`).
const PRODUCERS: [(&str, Producer); 20] = [
    ("table1", |_| Ok(tables::table1_models())),
    ("table2", |_| Ok(tables::table2_gpus())),
    ("table3", |ch| tables::table3_all(ch)),
    ("table4", |_| Ok(tables::table4_fpga())),
    ("fig01", |ch| Ok(figures::fig1_time_breakdown(&figures::run_default_suite(ch)?).to_string())),
    ("fig03", |ch| Ok(figures::fig3_peak_power(&figures::run_default_suite(ch)?).to_string())),
    ("fig04", |ch| Ok(figures::fig4_power_per_layer_type(&figures::run_default_suite(ch)?).to_string())),
    ("fig05", |ch| Ok(figures::fig5_power_components(&figures::run_default_suite(ch)?).to_string())),
    ("fig08", |ch| Ok(figures::fig8_op_breakdown(&figures::run_default_suite(ch)?).to_string())),
    ("fig09", |ch| Ok(figures::fig9_top_ops(&figures::run_default_suite(ch)?).to_string())),
    ("fig10", |ch| Ok(figures::fig10_dtype_over_layers(&figures::run_default_suite(ch)?).to_string())),
    ("fig02", |ch| Ok(figures::fig2_l1d_sensitivity(ch)?.to_string())),
    ("fig06", |ch| {
        let r = figures::fig6_tx1_vs_pynq(ch, tango_nets::Preset::Paper)?;
        Ok(format!("{}\n{}\n{}", r.normalized_energy, r.time_s, r.peak_power_w))
    }),
    ("fig07", |ch| Ok(figures::fig7_stall_breakdown(ch)?.to_string())),
    ("fig11", |ch| Ok(figures::fig11_memory_footprint(ch)?.to_string())),
    ("fig12", |ch| Ok(figures::fig12_register_usage(ch)?.to_string())),
    ("fig13", |ch| Ok(figures::fig13_l2_misses(&figures::run_cnns_no_l1(ch)?).to_string())),
    ("fig14", |ch| Ok(figures::fig14_l2_miss_ratio(&figures::run_cnns_no_l1(ch)?).to_string())),
    ("fig15", |ch| Ok(figures::fig15_scheduler_sensitivity(ch)?.to_string())),
    ("fig16", |ch| Ok(figures::fig16_alexnet_per_layer_scheduler(ch)?.to_string())),
];

/// The ids `--only` selected, or `None` for a full run.
fn parse_args() -> Result<Option<Vec<String>>, CliError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ids: Vec<String> = match args.as_slice() {
        [] => return Ok(None),
        [flag, list] if flag == "--only" => list.split(',').map(str::to_string).collect(),
        _ => return Err(CliError::Usage("usage: repro_all [--only <id>[,<id>...]]".into())),
    };
    let known = PRODUCERS.map(|(id, _)| id);
    match ids.iter().find(|id| !known.contains(&id.as_str())) {
        Some(id) => Err(CliError::Usage(format!("unknown experiment {id:?}; ids: {}", known.join(", ")))),
        None => Ok(Some(ids)),
    }
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

    // Phase 1: run (or fetch) every simulation any figure needs, in
    // parallel, deduplicated by content-addressed key.
    if only.is_none() {
        let suite = repro_plan(preset, SEED);
        let t = Instant::now();
        let report = profile.phase(&store, "suite", || suite.execute(&store, workers))?;
        eprintln!(
            "[repro] suite: {} jobs in {:.1}s  ({} store hits, {} simulated)",
            report.jobs,
            t.elapsed().as_secs_f64(),
            report.hits,
            report.misses,
        );
    }

    // Phase 2: after the prefetch every producer is served from the
    // warm store.
    for (id, produce) in PRODUCERS {
        if only.as_ref().is_some_and(|ids| !ids.iter().any(|want| want == id)) {
            continue;
        }
        let (h0, m0) = (store.hits(), store.misses());
        let t = Instant::now();
        let text = profile.phase(&store, id, || produce(&ch))?;
        emit(&format!("{id}.txt"), &text)?;
        eprintln!(
            "[repro] {id:8} done in {:6.1}s  (store hits {}, misses {})",
            t.elapsed().as_secs_f64(),
            store.hits() - h0,
            store.misses() - m0,
        );
    }

    // The profile carries wall-clock timings, so it bypasses `emit`
    // (whose stdout copy feeds deterministic-output comparisons); a
    // partial run leaves the full run's profile alone.
    if only.is_none() {
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
