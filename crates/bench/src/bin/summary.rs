//! One-page characterization digest: per-network totals (cycles,
//! instructions, IPC, power, footprint) at the selected preset — the
//! quick health check before diving into the per-figure binaries.

use std::process::ExitCode;
use tango::figures;
use tango::report::{Matrix, Unit};
use tango_bench::{characterizer, emit, CliError, Env};

fn run() -> Result<ExitCode, CliError> {
    let preset = Env::from_process()?.preset;
    let ch = characterizer(preset);
    eprintln!("[summary] preset={preset} config={}", ch.config().name);
    let runs = figures::run_default_suite(&ch)?;

    let mut m = Matrix::new(
        format!("Suite summary ({}, {preset} preset)", ch.config().name),
        "Network",
        vec![
            "layers".into(),
            "cycles".into(),
            "warp instrs".into(),
            "IPC".into(),
            "peak W".into(),
            "energy J".into(),
            "footprint KB".into(),
        ],
        Unit::Ratio,
    );
    for run in &runs {
        let cycles = run.report.total_cycles();
        let instrs: u64 = run.report.records.iter().map(|r| r.stats.warp_instructions).sum();
        m.push_row(
            run.kind.name(),
            vec![
                run.report.records.len() as f64,
                cycles as f64,
                instrs as f64,
                instrs as f64 / cycles.max(1) as f64,
                run.report.peak_power_w(),
                run.report.total_energy_j(),
                run.footprint_bytes as f64 / 1024.0,
            ],
        );
    }
    emit("summary.txt", &m.to_string())?;
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    tango_bench::main(run)
}
