//! Perf baseline: measures how fast the toolchain itself runs and
//! writes machine-readable artifacts for CI trend tracking.
//!
//! * `results/BENCH_sim.json` — raw simulator throughput
//!   (simulated-cycles per wall-clock second) for one CNN (CifarNet)
//!   and one RNN (GRU), measured over direct `simulate_run` calls. The
//!   first pass is reported separately as the *cold* leg (memo table
//!   empty — every launch fully simulated); the timed passes that
//!   follow replay from the launch-memo table when `TANGO_SIM_MEMO` is
//!   enabled, so the cold/warm ratio is the memoization speedup. A warm
//!   pass takes a millisecond or a few, so the timed passes repeat like
//!   the serve and fleet replays below, and never fewer than
//!   `timed_runs` times: `*_wall_s` is the wall per pass. The cold pass
//!   also records the simulator's issue-stage host work
//!   (`<network>_cold_<count>`, see `tango_sim::HostWork`): exact counts
//!   that repeat run to run.
//! * `results/BENCH_serve.json` — serve-engine throughput: requests per
//!   wall-clock second and per simulated megacycle for an open-loop
//!   trace at offered load 1.0, with batch costs precomputed through
//!   the store so the timed region is the engine itself.
//! * `results/BENCH_fleet.json` — fleet-engine throughput: requests per
//!   wall-clock second for each routing policy over a diurnal trace
//!   against three table-costed heterogeneous pools with autoscaling on,
//!   so the timed region is pure engine (no store, no simulator).
//!
//!   One serve or fleet replay takes a fraction of a millisecond, so
//!   each is repeated until [`MIN_LEG_WALL_S`] of wall has accumulated:
//!   `*_requests_per_sec` is requests over all repeats ÷ that wall,
//!   `*_wall_s` the wall per replay, `*_completed`/`*_shed` those of one
//!   replay (every repeat is the same deterministic replay).
//!   `report_bytes_per_request` and `trace_bytes_per_request` are the
//!   heap bytes one report owns and the heap bytes of the trace's words,
//!   per request, the largest over the leg's replays: exact counts that
//!   repeat run to run.
//! * `results/bench_history.jsonl` — one appended line per run with the
//!   headline rates, so the perf trajectory of the codebase is
//!   recorded over time instead of overwritten.
//!
//! Wall-clock numbers vary run to run (this is the one binary in the
//! suite whose output is *meant* to measure the host); the simulated
//! quantities embedded alongside them (total cycles, completed
//! requests) stay deterministic, so a regression in either axis is
//! attributable.
//!
//! `TANGO_BENCH_SAMPLES` overrides the least timed pass count (default 2);
//! like `TANGO_JOBS`, a set-but-unusable value exits with status 2.

use std::process::ExitCode;
use std::time::{Instant, SystemTime, UNIX_EPOCH};
use tango::{simulate_run, simulate_run_counted, RunSpec};
use tango_bench::{append_line, emit, store_handle, CliError, Env, JsonObject, SEED};
use tango_nets::{NetworkKind, Preset};
use tango_serve::{run_trace, ArrivalTrace, BatchPolicy, CostModel, ServeConfig, SimCostModel};
use tango_sim::{memo_env_enabled, memo_table_stats, GpuConfig, SimOptions};

/// Default least timed simulator passes per network (after the cold pass).
const DEFAULT_TIMED_RUNS: u32 = 2;
const DEVICES: usize = 2;
const DISTINCT_INPUTS: u32 = 4;
const REQUESTS: usize = 200;
const MAX_BATCH: u32 = 8;
/// Least wall a leg accumulates over its repeats: long enough that timer
/// and scheduler noise stay far under the 20 % gate of `harness perfdiff`.
const MIN_LEG_WALL_S: f64 = 0.25;

/// What the launch-memo layer does in this process (`TANGO_SIM_MEMO=0`
/// disables it).
fn memo_mode() -> &'static str {
    if memo_env_enabled() {
        "on"
    } else {
        "off"
    }
}

fn sim_leg(kinds: &[NetworkKind], preset: Preset, timed_runs: u32) -> tango::Result<JsonObject> {
    let mut obj = JsonObject::new()
        .str("bench", "sim")
        .str("preset", &preset.to_string())
        .str("seed", &format!("{SEED:#x}"))
        .str("memo", memo_mode())
        .int("timed_runs", timed_runs as u64);
    for &kind in kinds {
        let spec = RunSpec {
            config: GpuConfig::gp102(),
            preset,
            seed: SEED,
            kind,
            options: SimOptions::new(),
        };
        // Cold pass: nothing recorded yet for this network, so every
        // launch is fully simulated (and recorded when memo is on).
        let cold_start = Instant::now();
        let (cold, work) = simulate_run_counted(&spec)?;
        let cold_wall_s = cold_start.elapsed().as_secs_f64();
        let cycles = cold.report.total_cycles();
        let (_, wall_s) = timed_replays(timed_runs, || {
            simulate_run(&spec)
                .inspect(|run| assert_eq!(run.report.total_cycles(), cycles, "simulator must be deterministic"))
        })?;
        let key = kind.name().to_ascii_lowercase();
        obj = obj
            .int(&format!("{key}_total_cycles"), cycles)
            .num(&format!("{key}_cold_wall_s"), cold_wall_s)
            .num(&format!("{key}_cold_sim_cycles_per_sec"), cycles as f64 / cold_wall_s)
            .num(&format!("{key}_wall_s"), wall_s)
            .num(&format!("{key}_sim_cycles_per_sec"), cycles as f64 / wall_s);
        for (name, count) in work.fields() {
            obj = obj.int(&format!("{key}_cold_{name}"), count);
        }
    }
    let (memo_keys, memo_entries, memo_bytes) = memo_table_stats();
    Ok(obj
        .int("memo_table_keys", memo_keys as u64)
        .int("memo_table_entries", memo_entries as u64)
        .int("memo_table_bytes", memo_bytes as u64))
}

/// Repeats the deterministic `replay` until [`MIN_LEG_WALL_S`] has
/// accumulated, and at least `min_replays` times; returns one result and
/// the wall per replay.
fn timed_replays<T, E>(min_replays: u32, mut replay: impl FnMut() -> Result<T, E>) -> Result<(T, f64), E> {
    let start = Instant::now();
    let mut replays = 0u32;
    loop {
        let result = replay()?;
        replays += 1;
        let wall_s = start.elapsed().as_secs_f64();
        if wall_s >= MIN_LEG_WALL_S && replays >= min_replays {
            return Ok((result, wall_s / f64::from(replays)));
        }
    }
}

fn serve_leg(kinds: &[NetworkKind], preset: Preset, workers: usize) -> tango_serve::Result<JsonObject> {
    let cost = SimCostModel::new(store_handle(), GpuConfig::gp102(), preset, SEED, SimOptions::new());
    cost.precompute(kinds, MAX_BATCH, workers)?;

    let mut obj = JsonObject::new()
        .str("bench", "serve")
        .str("preset", &preset.to_string())
        .str("seed", &format!("{SEED:#x}"))
        .str("memo", memo_mode())
        .int("devices", DEVICES as u64)
        .int("requests", REQUESTS as u64)
        .int("max_batch", MAX_BATCH as u64);
    let mut footprint = Footprint::default();
    for &kind in kinds {
        let service_1 = cost.batch_cycles(kind, 1)?;
        let interarrival = (service_1 / DEVICES as u64).max(1);
        let trace = ArrivalTrace::open_loop(&[kind], REQUESTS, interarrival, DISTINCT_INPUTS, SEED);
        let config = ServeConfig {
            devices: DEVICES,
            queue_bound: 256,
            policy: BatchPolicy {
                max_batch: MAX_BATCH,
                max_delay_cycles: service_1 / 2,
            },
        };
        let (report, wall_s) = timed_replays(1, || run_trace(&trace, &config, &cost))?;
        footprint.add(report.heap_bytes(), trace.heap_bytes(), trace.len());
        let key = kind.name().to_ascii_lowercase();
        obj = obj
            .int(&format!("{key}_completed"), report.completed() as u64)
            .int(&format!("{key}_shed"), report.shed() as u64)
            .num(&format!("{key}_wall_s"), wall_s)
            .num(&format!("{key}_requests_per_sec"), report.completed() as f64 / wall_s)
            .num(&format!("{key}_req_per_mcycle"), report.throughput_per_mcycle());
    }
    Ok(footprint.write(obj))
}

/// The largest per-request footprint over a leg's replays.
#[derive(Default)]
struct Footprint {
    report: f64,
    trace: f64,
}

impl Footprint {
    fn add(&mut self, report_bytes: usize, trace_bytes: usize, requests: usize) {
        let per_request = |bytes: usize| bytes as f64 / requests.max(1) as f64;
        self.report = self.report.max(per_request(report_bytes));
        self.trace = self.trace.max(per_request(trace_bytes));
    }

    fn write(&self, obj: JsonObject) -> JsonObject {
        obj.num("report_bytes_per_request", self.report)
            .num("trace_bytes_per_request", self.trace)
    }
}

/// Fleet-engine throughput: the heterogeneous DES itself, timed over
/// table cost models so no store or simulator wall time leaks into the
/// measurement. Every policy replays the same diurnal trace; the
/// simulated quantities (completed/shed counts) stay deterministic
/// while the wall-clock rates measure the host.
fn fleet_leg() -> tango_serve::Result<JsonObject> {
    use tango_fleet::{
        run_fleet, AutoscaleConfig, ClassSpec, FleetConfig, FleetCost, FleetTrace, PoolSpec, RoutePolicy,
        TableFleetCost,
    };
    const FLEET_REQUESTS: usize = 2000;
    let kinds = [NetworkKind::Gru, NetworkKind::CifarNet];
    // Three synthetic device generations: a fast server part, a mid
    // part that can scale to zero, and a slow always-on edge part.
    let curve = |c: TableFleetCost| {
        c.with_kind(NetworkKind::Gru, 8_000, 400)
            .with_kind(NetworkKind::CifarNet, 20_000, 1_000)
    };
    let fast = curve(TableFleetCost::new(2.0));
    let mid = curve(TableFleetCost::new(1.0));
    let slow = curve(TableFleetCost::new(0.25));
    let costs: Vec<&dyn FleetCost> = vec![&fast, &mid, &slow];
    let classes = vec![ClassSpec::with_slo("interactive", 400_000), ClassSpec::best_effort("batch")];
    let trace = FleetTrace::diurnal(&kinds, &classes, FLEET_REQUESTS, 700, 200_000, 0.2, SEED);

    let mut obj = JsonObject::new()
        .str("bench", "fleet")
        .str("seed", &format!("{SEED:#x}"))
        .int("requests", FLEET_REQUESTS as u64)
        .int("pools", costs.len() as u64);
    let (mut total_completed, mut total_wall_s) = (0u64, 0.0f64);
    let mut footprint = Footprint::default();
    for policy in RoutePolicy::ALL {
        let config = FleetConfig {
            pools: vec![
                PoolSpec::elastic("fast", 2, 1, 4),
                PoolSpec::elastic("mid", 1, 0, 2),
                PoolSpec::fixed("slow", 1),
            ],
            classes: classes.clone(),
            queue_bound: 128,
            max_batch: 8,
            max_delay_ns: 2_000,
            policy,
            autoscale: Some(AutoscaleConfig {
                interval_ns: 4_000,
                high_queue_per_device: 3,
                low_queue_per_device: 1,
            }),
        };
        let (report, wall_s) = timed_replays(1, || run_fleet(&trace, &config, &costs))?;
        footprint.add(report.heap_bytes(), trace.heap_bytes(), trace.len());
        total_completed += report.completed() as u64;
        total_wall_s += wall_s;
        let key = policy.name();
        obj = obj
            .int(&format!("{key}_completed"), report.completed() as u64)
            .int(&format!("{key}_shed"), report.shed() as u64)
            .num(&format!("{key}_wall_s"), wall_s)
            .num(&format!("{key}_requests_per_sec"), report.completed() as f64 / wall_s);
    }
    Ok(footprint.write(obj.num("fleet_requests_per_sec", total_completed as f64 / total_wall_s)))
}

/// One `bench_history.jsonl` record: headline rates copied from the
/// per-leg objects plus enough context to interpret them later.
fn history_line(sim: &JsonObject, serve: &JsonObject, fleet: &JsonObject, preset: Preset, timed_runs: u32) -> String {
    let ts = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_secs());
    let mut hist = JsonObject::new()
        .int("ts_unix", ts)
        .str("preset", &preset.to_string())
        .str("seed", &format!("{SEED:#x}"))
        .str("memo", memo_mode())
        .int("timed_runs", timed_runs as u64);
    for key in [
        "cifarnet_cold_sim_cycles_per_sec",
        "cifarnet_sim_cycles_per_sec",
        "gru_cold_sim_cycles_per_sec",
        "gru_sim_cycles_per_sec",
    ] {
        if let Some(v) = sim.get(key) {
            hist = hist.raw(key, v);
        }
    }
    for key in ["cifarnet_requests_per_sec", "gru_requests_per_sec"] {
        if let Some(v) = serve.get(key) {
            hist = hist.raw(key, v);
        }
    }
    if let Some(v) = fleet.get("fleet_requests_per_sec") {
        hist = hist.raw("fleet_requests_per_sec", v);
    }
    hist.render()
}

fn run() -> Result<ExitCode, CliError> {
    let env = Env::from_process()?;
    let (preset, workers) = (env.preset, env.jobs);
    let timed_runs = env.bench_samples.unwrap_or(DEFAULT_TIMED_RUNS);
    let kinds = [NetworkKind::CifarNet, NetworkKind::Gru];

    eprintln!(
        "[perf] sim leg: 1 cold simulate_run pass per network, then at least {timed_runs} timed passes repeated for {MIN_LEG_WALL_S} s (memo {})",
        memo_mode()
    );
    let sim = sim_leg(&kinds, preset, timed_runs)?;
    emit("BENCH_sim.json", &sim.render())?;

    eprintln!("[perf] serve leg: {REQUESTS} requests per network, repeated for {MIN_LEG_WALL_S} s ({workers} precompute workers)");
    let serve = serve_leg(&kinds, preset, workers)?;
    emit("BENCH_serve.json", &serve.render())?;

    eprintln!("[perf] fleet leg: 3 policies over one diurnal trace, each repeated for {MIN_LEG_WALL_S} s (table costs, engine only)");
    let fleet = fleet_leg()?;
    emit("BENCH_fleet.json", &fleet.render())?;

    append_line("bench_history.jsonl", &history_line(&sim, &serve, &fleet, preset, timed_runs))?;
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    tango_bench::main(run)
}
