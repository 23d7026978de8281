//! Serving benchmark: sweeps arrival rate x batch policy through the
//! `tango-serve` virtual-time engine over store-backed simulated batch
//! costs, and emits a latency/throughput table to `results/serve_bench.txt`.
//!
//! Rates are expressed as offered load ρ relative to one device's
//! single-request service time (ρ = 1 saturates the pool with
//! `max_batch = 1`), so the sweep stresses the same operating points at
//! every preset. Everything is seeded and the engine is serial, so the
//! table is byte-identical across reruns and across
//! `TANGO_SERVE_WORKERS` settings (workers only parallelize cost-model
//! precomputation through the harness suite).
//!
//! `serve_bench --smoke` runs a bounded self-asserting configuration for
//! CI: zero sheds at low load, nonzero sheds past a tight queue bound at
//! overload, and p99 decreasing when `max_batch` is raised at high
//! arrival rates.

use std::process::ExitCode;
use tango_bench::{emit, store_handle, write_artifact, CliError, Env, SEED};
use tango_nets::{NetworkKind, Preset};
use tango_serve::{run_trace, ArrivalTrace, BatchPolicy, CostModel, ServeConfig, ServeReport, SimCostModel};
use tango_sim::{GpuConfig, SimOptions};

const DEVICES: usize = 2;
const DISTINCT_INPUTS: u64 = 4;

struct Row {
    kind: NetworkKind,
    rho: f64,
    max_batch: u32,
    report: ServeReport,
}

/// Mean inter-arrival cycles for offered load `rho` against `devices`
/// devices whose single-request service time is `service_1` cycles.
fn interarrival_for(service_1: u64, devices: usize, rho: f64) -> u64 {
    ((service_1 as f64 / (rho * devices as f64)).round() as u64).max(1)
}

fn sweep(
    cost: &SimCostModel,
    kinds: &[NetworkKind],
    rhos: &[f64],
    batches: &[u32],
    requests: usize,
    queue_bound: usize,
) -> tango_serve::Result<Vec<Row>> {
    let mut rows = Vec::new();
    for &kind in kinds {
        let service_1 = cost.batch_cycles(kind, 1)?;
        for &rho in rhos {
            let trace = ArrivalTrace::open_loop(
                &[kind],
                requests,
                interarrival_for(service_1, DEVICES, rho),
                DISTINCT_INPUTS,
                SEED,
            );
            for &max_batch in batches {
                // The delay bound scales with the service time so the
                // batcher has a real window at every preset.
                let config = ServeConfig {
                    devices: DEVICES,
                    queue_bound,
                    policy: BatchPolicy {
                        max_batch,
                        max_delay_cycles: service_1 / 2,
                    },
                };
                let report = run_trace(&trace, &config, cost)?;
                rows.push(Row {
                    kind,
                    rho,
                    max_batch,
                    report,
                });
            }
        }
    }
    Ok(rows)
}

fn render(rows: &[Row], preset: Preset, queue_bound: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "serve_bench: {DEVICES} devices, preset {preset}, seed {SEED:#x}, queue bound {queue_bound}\n"
    ));
    out.push_str("latencies in kilocycles (virtual time); rho = offered load at max_batch 1\n\n");
    out.push_str("network      rho  max_batch  completed  shed   p50_kc   p95_kc   p99_kc  mean_batch  req_per_mcycle\n");
    for row in rows {
        let r = &row.report;
        let s = r.latency_summary();
        let kc = |v: u64| v as f64 / 1000.0;
        out.push_str(&format!(
            "{:<10} {:>5.2}  {:>9}  {:>9}  {:>4}  {:>7.1}  {:>7.1}  {:>7.1}  {:>10.2}  {:>14.2}\n",
            row.kind.name(),
            row.rho,
            row.max_batch,
            r.completed(),
            r.shed(),
            s.map_or(0.0, |s| kc(s.p50)),
            s.map_or(0.0, |s| kc(s.p95)),
            s.map_or(0.0, |s| kc(s.p99)),
            r.mean_batch_size(),
            r.throughput_per_mcycle(),
        ));
    }
    out
}

fn smoke(cost: &SimCostModel) -> tango_serve::Result<ExitCode> {
    const KIND: NetworkKind = NetworkKind::Gru;
    cost.precompute(&[KIND], 8, 1)?;
    let service_1 = cost.batch_cycles(KIND, 1)?;

    // Low load, roomy queue: admission control must not fire.
    let low = sweep(cost, &[KIND], &[0.4], &[4], 60, 64)?;
    let low_sheds = low[0].report.shed();

    // Overload against a roomy queue: batching must cut the tail.
    let over = sweep(cost, &[KIND], &[3.0], &[1, 8], 120, 1 << 20)?;
    let p99_unbatched = over[0].report.latency_summary().expect("completions").p99;
    let p99_batched = over[1].report.latency_summary().expect("completions").p99;

    // Overload against a tight queue bound: sheds must appear.
    let bound = 4;
    let tight_trace = ArrivalTrace::open_loop(
        &[KIND],
        120,
        interarrival_for(service_1, DEVICES, 3.0),
        DISTINCT_INPUTS,
        SEED,
    );
    let tight = run_trace(
        &tight_trace,
        &ServeConfig {
            devices: DEVICES,
            queue_bound: bound,
            policy: BatchPolicy {
                max_batch: 1,
                max_delay_cycles: 0,
            },
        },
        cost,
    )?;

    println!("[smoke] low-load sheds: {low_sheds} (want 0)");
    println!("[smoke] overload p99: max_batch=1 {p99_unbatched} vs max_batch=8 {p99_batched} (want decrease)");
    println!("[smoke] overload sheds at queue bound {bound}: {} (want > 0)", tight.shed());

    let mut failed = false;
    if low_sheds != 0 {
        eprintln!("FAIL: low load shed {low_sheds} requests");
        failed = true;
    }
    if p99_batched >= p99_unbatched {
        eprintln!("FAIL: raising max_batch did not improve p99 at overload");
        failed = true;
    }
    if tight.shed() == 0 {
        eprintln!("FAIL: overload past the queue bound shed nothing");
        failed = true;
    }
    Ok(if failed { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

fn run() -> Result<ExitCode, CliError> {
    let env = Env::from_process()?;
    env.arm_trace();
    let smoke_mode = std::env::args().any(|a| a == "--smoke");
    // Smoke runs pin the tiny preset so CI stays bounded.
    let preset = if smoke_mode { Preset::Tiny } else { env.preset };
    let cost = SimCostModel::new(
        store_handle(),
        GpuConfig::gp102(),
        preset,
        SEED,
        SimOptions::new(),
    );
    if smoke_mode {
        let code = smoke(&cost)?;
        env.finish_trace("serve")?;
        return Ok(code);
    }

    let kinds = [NetworkKind::CifarNet, NetworkKind::Gru];
    let batches = [1u32, 2, 4, 8];
    let max_batch = *batches.last().expect("nonempty");
    eprintln!("[serve] precomputing batch costs ({} workers)", env.serve_workers);
    cost.precompute(&kinds, max_batch, env.serve_workers)?;
    let queue_bound = 256;
    let rows = sweep(&cost, &kinds, &[0.25, 0.5, 1.0, 2.0, 4.0], &batches, 400, queue_bound)?;
    emit("serve_bench.txt", &render(&rows, preset, queue_bound))?;
    if env.metrics {
        export_metrics(&rows, preset, max_batch, env.metrics_window)?;
    }
    eprintln!(
        "[serve] store hits={} misses={}",
        cost.store().hits(),
        cost.store().misses()
    );
    env.finish_trace("serve")?;
    Ok(ExitCode::SUCCESS)
}

/// Exports the highest-load operating point (ρ = 4, largest
/// `max_batch`) of every swept network as windowed metrics artifacts:
/// `results/metrics_serve.txt` (human table), `.jsonl` (snapshot
/// series), and `.prom` (Prometheus exposition, self-checked against
/// the in-tree grammar validator). Purely derived from the already
/// computed reports, so enabling it cannot change `serve_bench.txt`
/// or stdout.
fn export_metrics(rows: &[Row], preset: Preset, max_batch: u32, window_override: Option<u64>) -> Result<(), CliError> {
    let selected: Vec<&Row> = rows.iter().filter(|r| r.rho == 4.0 && r.max_batch == max_batch).collect();
    let max_makespan = selected.iter().map(|r| r.report.makespan).max().unwrap_or(0);
    let window = window_override.unwrap_or((max_makespan / 64).max(1));
    let mut registry = tango_obs::metrics::MetricsRegistry::new("cycles", window);
    for row in &selected {
        let m = tango_serve::serve_metrics(&row.report, window);
        registry.merge(&m).expect("per-kind registries share unit and window");
    }
    let title = format!("serve_bench preset {preset} rho 4.00 max_batch {max_batch}");
    let prom = registry.prometheus_text();
    tango_obs::metrics::validate_exposition(&prom)
        .map_err(CliError::failed("metrics_serve.prom failed exposition self-check"))?;
    write_artifact("metrics_serve.txt", &registry.render_text(&title))?;
    write_artifact("metrics_serve.jsonl", &registry.snapshot_jsonl("serve"))?;
    write_artifact("metrics_serve.prom", &prom)?;
    eprintln!("[serve] metrics: wrote results/metrics_serve.{{txt,jsonl,prom}} (window {window} cycles)");
    Ok(())
}

fn main() -> ExitCode {
    tango_bench::main(run)
}
