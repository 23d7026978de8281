//! Per-figure data producers — one function per figure of the paper's
//! evaluation section (Figures 1-16), each returning a [`Matrix`] (or a
//! small struct of them) that [`crate::experiments`] renders and the
//! integration tests assert shape properties on.
//!
//! Every producer is a pure function of the runs or builds its
//! experiment's `needs` lists, in that order; none fetches anything.

use crate::characterize::{BuildStats, NetworkRun};
use crate::report::{Matrix, Unit};
use crate::Result;
use std::collections::BTreeMap;
use tango_fpga::PynqZ1;
use tango_isa::{DType, Opcode};
use tango_nets::{build_network, LayerType, NetworkKind, Preset};
use tango_sim::{Gpu, GpuConfig, SchedulerPolicy, StallReason};

/// Figure 2's L1D sizes, bypassed first (the baseline each row is
/// normalized to).
pub const L1D_SIZES: [(&str, u32); 4] = [("No L1", 0), ("L1", 64 << 10), ("2xL1", 128 << 10), ("4xL1", 256 << 10)];

fn find(runs: &[NetworkRun], kind: NetworkKind) -> Option<&NetworkRun> {
    runs.iter().find(|r| r.kind == kind)
}

/// The four CNNs the paper plots per layer type, in `FIGURE_CNNS` order.
fn figure_cnns(runs: &[NetworkRun]) -> Vec<&NetworkRun> {
    NetworkKind::FIGURE_CNNS.iter().filter_map(|&k| find(runs, k)).collect()
}

/// Every `label` of the runs' layer types, in first-seen order.
fn layer_type_columns(runs: &[&NetworkRun], label: fn(LayerType) -> &'static str) -> Vec<&'static str> {
    let mut cols: Vec<&'static str> = Vec::new();
    for rec in runs.iter().flat_map(|run| &run.report.records) {
        let label = label(rec.layer_type);
        if !cols.contains(&label) {
            cols.push(label);
        }
    }
    cols
}

/// Figure 1: execution-time breakdown w.r.t. layer type for the four CNNs
/// the paper plots.
pub fn fig1_time_breakdown(runs: &[NetworkRun]) -> Matrix {
    let cnns = figure_cnns(runs);
    let cols = layer_type_columns(&cnns, LayerType::label);
    let mut m = Matrix::new(
        "Fig 1: Execution Time Breakdown w.r.t. Layer Type",
        "Network",
        cols.iter().map(|c| c.to_string()).collect(),
        Unit::Percent,
    );
    for run in cnns {
        let total: u64 = run.report.total_cycles().max(1);
        let mut by: BTreeMap<&str, u64> = BTreeMap::new();
        for rec in &run.report.records {
            *by.entry(rec.layer_type.label()).or_insert(0) += rec.stats.cycles;
        }
        let values = cols
            .iter()
            .map(|c| *by.get(*c).unwrap_or(&0) as f64 / total as f64)
            .collect();
        m.push_row(run.kind.name(), values);
    }
    m
}

/// One row per network of `sweep_len` consecutive runs, each run's
/// total cycles normalized to the first's.
fn normalized_sweeps(m: &mut Matrix, runs: &[NetworkRun], sweep_len: usize) {
    for sweep in runs.chunks(sweep_len) {
        let base = sweep[0].report.total_cycles().max(1);
        let row = sweep
            .iter()
            .map(|run| run.report.total_cycles().max(1) as f64 / base as f64)
            .collect();
        m.push_row(sweep[0].kind.name(), row);
    }
}

/// Figure 2: normalized execution time under [`L1D_SIZES`], normalized to
/// the bypassed run. `runs` holds each network's sweep in that order.
pub fn fig2_l1d_sensitivity(runs: &[NetworkRun]) -> Matrix {
    let mut m = Matrix::new(
        "Fig 2: Normalized Execution Time with Various L1D Sizes",
        "Network",
        L1D_SIZES.iter().map(|(n, _)| n.to_string()).collect(),
        Unit::Ratio,
    );
    normalized_sweeps(&mut m, runs, L1D_SIZES.len());
    m
}

/// Figure 3: peak power across layers per network, in watts.
pub fn fig3_peak_power(runs: &[NetworkRun]) -> Matrix {
    let mut m = Matrix::new(
        "Fig 3: Peak Power Consumption Across Layers (W)",
        "Network",
        vec!["Peak Power".into()],
        Unit::Watts,
    );
    for run in runs {
        m.push_row(run.kind.name(), vec![run.report.peak_power_w()]);
    }
    m
}

/// Figure 4: average power per layer type for the four CNNs, as shares of
/// the network's energy (the paper's stacked per-type power plot).
pub fn fig4_power_per_layer_type(runs: &[NetworkRun]) -> Matrix {
    let cnns = figure_cnns(runs);
    // Figure 4 merges fire squeeze/expand into "Fire".
    let cols = layer_type_columns(&cnns, LayerType::coarse_label);
    let mut m = Matrix::new(
        "Fig 4: Average Power Consumption per Layer Type",
        "Network",
        cols.iter().map(|c| c.to_string()).collect(),
        Unit::Percent,
    );
    for run in cnns {
        let mut by: BTreeMap<&str, f64> = BTreeMap::new();
        let mut total = 0.0;
        for rec in &run.report.records {
            // Energy shares reproduce the relative heights of the paper's
            // stacked per-type power bars.
            let e = rec.stats.energy.total();
            *by.entry(rec.layer_type.coarse_label()).or_insert(0.0) += e;
            total += e;
        }
        let values = cols
            .iter()
            .map(|c| by.get(*c).copied().unwrap_or(0.0) / total.max(f64::MIN_POSITIVE))
            .collect();
        m.push_row(run.kind.name(), values);
    }
    m
}

/// Figure 5: power breakdown w.r.t. hardware components per network.
pub fn fig5_power_components(runs: &[NetworkRun]) -> Matrix {
    use tango_sim::Component;
    let mut m = Matrix::new(
        "Fig 5: Breakdown of Average Power Consumption",
        "Network",
        Component::ALL.iter().map(|c| c.label().to_string()).collect(),
        Unit::Percent,
    );
    for run in runs {
        let mut energy = tango_sim::EnergyBreakdown::new();
        for rec in &run.report.records {
            energy.merge(&rec.stats.energy);
        }
        let values = Component::ALL.iter().map(|&c| energy.fraction(c)).collect();
        m.push_row(run.kind.name(), values);
    }
    m
}

/// Figure 6 result set: TX1-vs-PynQ comparison for CifarNet and
/// SqueezeNet.
#[derive(Debug, Clone)]
pub struct Fig6Report {
    /// Normalized energy (PynQ = 1.0), the paper's headline plot.
    pub normalized_energy: Matrix,
    /// Raw execution times.
    pub time_s: Matrix,
    /// Raw peak powers.
    pub peak_power_w: Matrix,
}

/// Figure 6: energy on the embedded GPU (TX1) vs the embedded FPGA
/// (PynQ), energy computed as peak power x execution time exactly as the
/// paper does. `tx1_runs` are the full-size (`Paper`) TX1 runs; the PynQ
/// side models the same networks built at `seed`.
///
/// # Errors
///
/// Propagates network-construction failures.
pub fn fig6_tx1_vs_pynq(tx1_runs: &[NetworkRun], seed: u64) -> Result<Fig6Report> {
    let board = PynqZ1::new();
    let cols = vec!["TX1".to_string(), "PynQ".to_string()];
    let mut energy = Matrix::new(
        "Fig 6: Energy on Embedded GPU (TX1) vs Embedded FPGA (PynQ), normalized to PynQ",
        "Network",
        cols.clone(),
        Unit::Ratio,
    );
    let mut time = Matrix::new("Fig 6 (detail): Execution Time", "Network", cols.clone(), Unit::Seconds);
    let mut power = Matrix::new("Fig 6 (detail): Peak Power", "Network", cols, Unit::Watts);
    for gpu_run in tx1_runs {
        let kind = gpu_run.kind;
        let gpu_time = gpu_run.report.total_time_s();
        let gpu_peak = gpu_run.report.peak_power_w();
        let gpu_energy = gpu_peak * gpu_time; // the paper's methodology

        let mut dev = Gpu::new(GpuConfig::tx1());
        let net = build_network(&mut dev, kind, Preset::Paper, seed)?;
        let fpga = board.run_network(&net);

        energy.push_row(kind.name(), vec![gpu_energy / fpga.energy_j, 1.0]);
        time.push_row(kind.name(), vec![gpu_time, fpga.time_s]);
        power.push_row(kind.name(), vec![gpu_peak, fpga.peak_power_w]);
    }
    Ok(Fig6Report {
        normalized_energy: energy,
        time_s: time,
        peak_power_w: power,
    })
}

/// Figure 7: stall-cycle breakdown per layer type of each network, plus
/// the cross-network per-type summary section, over `gk210_runs`: run on
/// the GK210 preset like the paper (which profiled its K80 with
/// `nvprof`).
pub fn fig7_stall_breakdown(gk210_runs: &[NetworkRun]) -> Matrix {
    let mut m = Matrix::new(
        "Fig 7: Breakdown of Stall Cycles (GK210)",
        "Network/Layer",
        StallReason::ALL.iter().map(|r| r.name().to_string()).collect(),
        Unit::Percent,
    );
    let mut summary: BTreeMap<&'static str, tango_sim::StallBreakdown> = BTreeMap::new();
    for run in gk210_runs {
        let mut by: BTreeMap<&'static str, tango_sim::StallBreakdown> = BTreeMap::new();
        for rec in &run.report.records {
            let label = rec.layer_type.coarse_label();
            by.entry(label).or_default().merge(&rec.stats.stalls);
            summary.entry(label).or_default().merge(&rec.stats.stalls);
        }
        for (label, stalls) in by {
            let values = StallReason::ALL.iter().map(|&r| stalls.fraction(r)).collect();
            m.push_row(format!("{} {}", run.kind.name(), label), values);
        }
    }
    for (label, stalls) in summary {
        let values = StallReason::ALL.iter().map(|&r| stalls.fraction(r)).collect();
        m.push_row(format!("Summary {label}"), values);
    }
    m
}

fn op_totals(run: &NetworkRun) -> (BTreeMap<Opcode, u64>, u64) {
    let mut ops: BTreeMap<Opcode, u64> = BTreeMap::new();
    let mut total = 0;
    for rec in &run.report.records {
        for (&op, &n) in &rec.stats.op_counts {
            *ops.entry(op).or_insert(0) += n;
            total += n;
        }
    }
    (ops, total)
}

/// Figure 8: operation-type breakdown per network over all 28 opcodes.
pub fn fig8_op_breakdown(runs: &[NetworkRun]) -> Matrix {
    let mut m = Matrix::new(
        "Fig 8: Operation Type Breakdown",
        "Network",
        Opcode::ALL.iter().map(|o| o.mnemonic().to_string()).collect(),
        Unit::Percent,
    );
    for run in runs {
        let (ops, total) = op_totals(run);
        let values = Opcode::ALL
            .iter()
            .map(|o| *ops.get(o).unwrap_or(&0) as f64 / total.max(1) as f64)
            .collect();
        m.push_row(run.kind.name(), values);
    }
    m
}

/// Figure 9: the total operation mix across all networks, top 10 plus an
/// "Others" residual (the paper's pie chart).
pub fn fig9_top_ops(runs: &[NetworkRun]) -> Matrix {
    let mut ops: BTreeMap<Opcode, u64> = BTreeMap::new();
    let mut total = 0u64;
    for run in runs {
        let (o, t) = op_totals(run);
        for (op, n) in o {
            *ops.entry(op).or_insert(0) += n;
        }
        total += t;
    }
    let mut sorted: Vec<(Opcode, u64)> = ops.into_iter().collect();
    sorted.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    let mut m = Matrix::new(
        "Fig 9: Total Operations Breakdown Used By All Networks",
        "Operation",
        vec!["Share".into()],
        Unit::Percent,
    );
    let mut top_sum = 0u64;
    for (op, n) in sorted.iter().take(10) {
        m.push_row(op.mnemonic(), vec![*n as f64 / total.max(1) as f64]);
        top_sum += n;
    }
    m.push_row("Others", vec![(total - top_sum) as f64 / total.max(1) as f64]);
    m
}

/// Figure 10: instruction data-type breakdown across ResNet's layers in
/// invocation order.
pub fn fig10_dtype_over_layers(runs: &[NetworkRun]) -> Matrix {
    let mut m = Matrix::new(
        "Fig 10: Instruction Type Breakdown Throughout Execution (ResNet)",
        "Layer",
        DType::ALL.iter().map(|d| d.suffix().to_string()).collect(),
        Unit::Percent,
    );
    let Some(run) = find(runs, NetworkKind::ResNet50) else {
        return m;
    };
    for rec in &run.report.records {
        let total: u64 = rec.stats.dtype_counts.values().sum();
        let values = DType::ALL
            .iter()
            .map(|d| *rec.stats.dtype_counts.get(d).unwrap_or(&0) as f64 / total.max(1) as f64)
            .collect();
        m.push_row(rec.name.clone(), values);
    }
    m
}

/// Figure 11: maximum device-memory usage per network in KB, on the
/// full-size (`Paper`) builds like the paper's TX1 measurement —
/// footprint is an allocation property, so no simulation.
pub fn fig11_memory_footprint(builds: &[(NetworkKind, BuildStats)]) -> Matrix {
    let mut m = Matrix::new(
        "Fig 11: Memory Footprint (full-size models, TX1)",
        "Network",
        vec!["Max Device Memory".into()],
        Unit::Kilobytes,
    );
    for (kind, build) in builds {
        m.push_row(kind.name(), vec![build.footprint_bytes as f64 / 1024.0]);
    }
    m
}

/// Figure 12: per-SM register-file usage per network in KB — maximum
/// allocated registers (compiler allocation x peak residency) vs maximum
/// live registers (dataflow liveness x peak residency), computed
/// statically on the full-size builds against the Pascal configuration.
pub fn fig12_register_usage(builds: &[(NetworkKind, BuildStats)]) -> Matrix {
    let config = GpuConfig::gp102();
    let mut m = Matrix::new(
        "Fig 12: Register File Usage per SM (Pascal, full-size models)",
        "Network",
        vec!["Max Allocated Registers".into(), "Max Live Registers".into()],
        Unit::Kilobytes,
    );
    for (kind, build) in builds {
        let mut alloc_max = 0u64;
        let mut live_max = 0u64;
        for layer in &build.layers {
            let threads = layer.block.count() as u32;
            let ctas = config
                .ctas_per_sm(threads, layer.regs, layer.smem_bytes)
                .min(layer.grid.count().min(u32::MAX as u64) as u32);
            let resident = (ctas * threads) as u64;
            alloc_max = alloc_max.max(layer.regs as u64 * resident * 4);
            live_max = live_max.max(layer.live_regs as u64 * resident * 4);
        }
        m.push_row(kind.name(), vec![alloc_max as f64 / 1024.0, live_max as f64 / 1024.0]);
    }
    m
}

fn l2_by_type(runs: &[NetworkRun], ratio: bool, title: &str, unit: Unit) -> Matrix {
    let cols = layer_type_columns(&runs.iter().collect::<Vec<_>>(), LayerType::coarse_label);
    let mut m = Matrix::new(title, "Network", cols.iter().map(|c| c.to_string()).collect(), unit);
    for run in runs {
        let mut misses: BTreeMap<&str, u64> = BTreeMap::new();
        let mut accesses: BTreeMap<&str, u64> = BTreeMap::new();
        for rec in &run.report.records {
            let label = rec.layer_type.coarse_label();
            *misses.entry(label).or_insert(0) += rec.stats.l2.misses;
            *accesses.entry(label).or_insert(0) += rec.stats.l2.accesses;
        }
        let values = cols
            .iter()
            .map(|c| {
                let miss = *misses.get(*c).unwrap_or(&0) as f64;
                if ratio {
                    miss / (*accesses.get(*c).unwrap_or(&0)).max(1) as f64
                } else {
                    miss
                }
            })
            .collect();
        m.push_row(run.kind.name(), values);
    }
    m
}

/// Figure 13: total L2 misses per layer type with the L1D bypassed.
pub fn fig13_l2_misses(no_l1_runs: &[NetworkRun]) -> Matrix {
    l2_by_type(
        no_l1_runs,
        false,
        "Fig 13: Total L2 Misses per Layer Type without L1D",
        Unit::Count,
    )
}

/// Figure 14: L2 miss ratio per layer type with the L1D bypassed.
pub fn fig14_l2_miss_ratio(no_l1_runs: &[NetworkRun]) -> Matrix {
    l2_by_type(
        no_l1_runs,
        true,
        "Fig 14: L2 Miss Ratio per Layer Type without L1D",
        Unit::Ratio,
    )
}

/// Figure 15: execution time under the GTO/LRR/TLV warp schedulers,
/// normalized to GTO. `runs` holds each network's sweep in
/// `SchedulerPolicy::ALL` order (GTO first).
pub fn fig15_scheduler_sensitivity(runs: &[NetworkRun]) -> Matrix {
    let mut m = Matrix::new(
        "Fig 15: Warp Scheduler Sensitivity (normalized to GTO)",
        "Network",
        SchedulerPolicy::ALL.iter().map(|p| p.name().to_uppercase()).collect(),
        Unit::Ratio,
    );
    normalized_sweeps(&mut m, runs, SchedulerPolicy::ALL.len());
    m
}

/// Figure 16: per-layer scheduler sensitivity of AlexNet, normalized to
/// GTO per layer. `runs` are AlexNet's in `SchedulerPolicy::ALL` order.
pub fn fig16_alexnet_per_layer_scheduler(runs: &[NetworkRun]) -> Matrix {
    let mut m = Matrix::new(
        "Fig 16: Per-Layer Warp Scheduler Sensitivity of AlexNet (normalized to GTO)",
        "Layer",
        SchedulerPolicy::ALL.iter().map(|p| p.name().to_uppercase()).collect(),
        Unit::Ratio,
    );
    let layer_count = runs[0].report.records.len();
    for i in 0..layer_count {
        let base = runs[0].report.records[i].stats.cycles.max(1);
        let name = runs[0].report.records[i].name.clone();
        let values = runs
            .iter()
            .map(|r| r.report.records[i].stats.cycles as f64 / base as f64)
            .collect();
        m.push_row(name, values);
    }
    m
}

/// The one-page suite digest: per-network totals (layers, cycles, warp
/// instructions, IPC, power, energy, footprint) of the GP102 default
/// suite at `preset`.
pub fn suite_summary(runs: &[NetworkRun], preset: Preset) -> Matrix {
    let mut m = Matrix::new(
        format!("Suite summary ({}, {preset} preset)", GpuConfig::gp102().name),
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
    for run in runs {
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
    m
}

/// Convenience: the layer type that dominates a network's time (used by
/// tests asserting the paper's Observation 1).
pub fn dominant_layer_type(run: &NetworkRun) -> (LayerType, f64) {
    let mut by: BTreeMap<LayerType, u64> = BTreeMap::new();
    for rec in &run.report.records {
        *by.entry(rec.layer_type).or_insert(0) += rec.stats.cycles;
    }
    let total: u64 = by.values().sum::<u64>().max(1);
    let (&ty, &cycles) = by.iter().max_by_key(|(_, &c)| c).expect("at least one layer");
    (ty, cycles as f64 / total as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{find, Inputs};
    use crate::Characterizer;

    fn tiny_ch() -> Characterizer {
        Characterizer::new(GpuConfig::gp102(), Preset::Tiny, 11)
    }

    fn inputs(id: &str, ch: &Characterizer) -> Inputs {
        find(id).unwrap().inputs(ch).unwrap()
    }

    #[test]
    fn fig1_rows_sum_to_one() {
        let runs = inputs("fig01", &tiny_ch()).runs;
        let m = fig1_time_breakdown(&runs);
        assert_eq!(m.rows.len(), 4);
        for (name, values) in &m.rows {
            let sum: f64 = values.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "{name} sums to {sum}");
        }
    }

    #[test]
    fn fig9_includes_others_and_sums_to_one() {
        let runs = inputs("fig09", &tiny_ch()).runs;
        let m = fig9_top_ops(&runs);
        assert_eq!(m.rows.len(), 11);
        let sum: f64 = m.rows.iter().map(|(_, v)| v[0]).sum();
        assert!((sum - 1.0).abs() < 1e-9);
        // The paper's Observation 7: top-10 ops cover ~95% of execution.
        let others = m.rows.last().unwrap().1[0];
        assert!(others < 0.10, "top-10 ops should dominate, others = {others}");
    }

    #[test]
    fn fig12_live_never_exceeds_allocated() {
        let builds = inputs("fig12", &Characterizer::new(GpuConfig::gp102(), Preset::Tiny, 5)).builds;
        let m = fig12_register_usage(&builds);
        for (name, v) in &m.rows {
            assert!(v[1] <= v[0], "{name}: live {} > allocated {}", v[1], v[0]);
        }
    }

    #[test]
    fn dominant_type_of_cifarnet_is_conv() {
        let ch = tiny_ch();
        let run = ch.run_network(NetworkKind::CifarNet, &ch.default_options()).unwrap();
        let (ty, share) = dominant_layer_type(&run);
        assert_eq!(ty, LayerType::Conv);
        assert!(share > 0.5, "conv share {share}");
    }
}
