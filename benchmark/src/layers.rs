//! The per-layer metrics and how each is read off the spans and counts
//! of a traced run. Layers are the crates; `BENCHMARK.json` lists the
//! same names and units (`tests/smoke.rs` checks that it does).
//!
//! A metric is computed from the workload's own traced reps when the
//! workload calls that layer (its *anchor* has spans or counts there)
//! and from the tour otherwise. Times and counts are per rep, so the
//! simulated counts repeat bit for bit whatever `--seconds` is.

use crate::span::Phase;
use crate::stats::{percentile, tail_percentile};

/// One metric of one layer.
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    /// Span or count stem that says which phase measured this layer.
    anchor: &'static str,
    eval: fn(&Phase) -> f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Host nanoseconds under span `stem` per unit of count `key`. A probe
/// counts its work under its span's own name.
fn ns_per(p: &Phase, stem: &str, key: &str) -> f64 {
    ratio(p.busy_s(stem) * 1e9, p.count(key))
}

/// The tail percentile reported for replay ops: the highest with ten
/// samples beyond it, or the maximum when there are too few for any.
fn replay_tail(p: &Phase) -> f64 {
    tail_percentile(p.durations_us("sim.memo.replay").len()).unwrap_or(100.0)
}

fn replay_percentile(p: &Phase, pct: f64) -> f64 {
    let ops = p.durations_us("sim.memo.replay");
    if ops.is_empty() {
        0.0
    } else {
        percentile(&ops, pct)
    }
}

macro_rules! m {
    ($name:literal, $unit:literal, $anchor:literal, $eval:expr) => {
        LayerMetric {
            name: $name,
            unit: $unit,
            anchor: $anchor,
            eval: $eval,
        }
    };
}

/// Every per-layer metric except the two of the benchmark itself
/// (`bench.*`), which `main` measures.
#[rustfmt::skip]
pub const LAYER_METRICS: &[LayerMetric] = &[
    // The four rates the workloads exist for (host rates of simulated work).
    m!("sim_winst_per_s", "1/s", "sim.infer", |p| ratio(p.count("sim.infer.winst"), p.count("sim.infer.op_s"))),
    m!("replay_launches_per_s", "1/s", "sim.memo.replay", |p| ratio(p.count("sim.memo.replay.launches"), p.count("sim.memo.replay.op_s"))),
    m!("des_requests_per_s", "1/s", "des", |p| ratio(p.count("des.requests"), p.count("des.stage_s"))),
    m!("metrics_requests_per_s", "1/s", "metrics", |p| ratio(p.count("metrics.requests"), p.count("metrics.stage_s"))),
    // sim: the cold path.
    m!("sim.infer.busy_s", "s", "sim.infer", |p| p.busy_s("sim.infer")),
    m!("sim.infer.launches", "count", "sim.infer", |p| p.count("sim.infer.launches")),
    m!("sim.infer.cycles", "count", "sim.infer", |p| p.count("sim.infer.cycles")),
    m!("sim.infer.winst", "count", "sim.infer", |p| p.count("sim.infer.winst")),
    m!("sim.infer.thread_inst", "count", "sim.infer", |p| p.count("sim.infer.thread_inst")),
    m!("sim.infer.ipc", "winst/cycle", "sim.infer", |p| ratio(p.count("sim.infer.winst"), p.count("sim.infer.cycles"))),
    m!("sim.infer.host_ns_per_cycle", "ns/cycle", "sim.infer", |p| ns_per(p, "sim.infer", "sim.infer.cycles")),
    m!("sim.infer.host_ns_per_winst", "ns/winst", "sim.infer", |p| ns_per(p, "sim.infer", "sim.infer.winst")),
    m!("sim.infer.cycles_per_s", "1/s", "sim.infer", |p| ratio(p.count("sim.infer.cycles"), p.busy_s("sim.infer"))),
    m!("sim.infer.l1d_accesses", "count", "sim.infer", |p| p.count("sim.infer.l1d_accesses")),
    m!("sim.infer.l1d_miss_frac", "frac", "sim.infer", |p| ratio(p.count("sim.infer.l1d_misses"), p.count("sim.infer.l1d_accesses"))),
    m!("sim.infer.l2_accesses", "count", "sim.infer", |p| p.count("sim.infer.l2_accesses")),
    m!("sim.infer.l2_miss_frac", "frac", "sim.infer", |p| ratio(p.count("sim.infer.l2_misses"), p.count("sim.infer.l2_accesses"))),
    m!("sim.infer.dram_accesses", "count", "sim.infer", |p| p.count("sim.infer.dram_accesses")),
    m!("sim.infer.host_ns_per_l2_access", "ns/access", "sim.infer", |p| ns_per(p, "sim.infer", "sim.infer.l2_accesses")),
    m!("sim.infer.stall_mem_frac", "frac", "sim.infer", |p| ratio(p.count("sim.infer.stalls_mem"), p.count("sim.infer.stalls"))),
    m!("sim.infer.ctas_simulated_frac", "frac", "sim.infer", |p| ratio(p.count("sim.infer.ctas_simulated"), p.count("sim.infer.ctas"))),
    m!("sim.gpu_new.busy_s", "s", "sim.gpu_new", |p| p.busy_s("sim.gpu_new")),
    // sim: the launch memo.
    m!("sim.memo.record.busy_s", "s", "sim.memo.record", |p| p.busy_s("sim.memo.record")),
    m!("sim.memo.replay.busy_s", "s", "sim.memo.replay", |p| p.busy_s("sim.memo.replay")),
    m!("sim.memo.replay.launches", "count", "sim.memo.replay", |p| p.count("sim.memo.replay.launches")),
    m!("sim.memo.replay.ns_per_launch", "ns/launch", "sim.memo.replay", |p| ns_per(p, "sim.memo.replay", "sim.memo.replay.launches")),
    m!("sim.memo.replay.op_p50_us", "us", "sim.memo.replay", |p| replay_percentile(p, 50.0)),
    m!("sim.memo.replay.op_tail_us", "us", "sim.memo.replay", |p| replay_percentile(p, replay_tail(p))),
    m!("sim.memo.replay.op_tail_pct", "%", "sim.memo.replay", replay_tail),
    m!("sim.memo.table_entries", "count", "sim.memo.record", |p| p.count("sim.memo.table_entries")),
    m!("sim.memo.table_bytes", "bytes", "sim.memo.record", |p| p.count("sim.memo.table_bytes")),
    m!("sim.memo.replay_new_entries", "count", "sim.memo.replay", |p| p.count("sim.memo.replay_new_entries")),
    m!("sim.memo.reuse_gpu_new_entries", "count", "sim.memo.reuse_gpu_new_entries", |p| p.count("sim.memo.reuse_gpu_new_entries")),
    // sim: guard rails.
    m!("sim.probe.l1_bypass.host_ratio", "ratio", "sim.probe.l1_bypass", |p| p.count("sim.probe.l1_bypass.host_ratio")),
    m!("sim.probe.sched_lrr.host_ns_per_winst", "ns/winst", "sim.probe.sched_lrr", |p| ns_per(p, "sim.probe.sched_lrr", "sim.probe.sched_lrr")),
    m!("sim.probe.sched_tlv.host_ns_per_winst", "ns/winst", "sim.probe.sched_tlv", |p| ns_per(p, "sim.probe.sched_tlv", "sim.probe.sched_tlv")),
    m!("sim.probe.cfg_gk210.host_ns_per_winst", "ns/winst", "sim.probe.cfg_gk210", |p| ns_per(p, "sim.probe.cfg_gk210", "sim.probe.cfg_gk210")),
    m!("sim.probe.cfg_tx1.host_ns_per_winst", "ns/winst", "sim.probe.cfg_tx1", |p| ns_per(p, "sim.probe.cfg_tx1", "sim.probe.cfg_tx1")),
    m!("sim.probe.batch8.host_ns_per_winst", "ns/winst", "sim.probe.batch8", |p| ns_per(p, "sim.probe.batch8", "sim.probe.batch8")),
    // nets (weight synthesis is part of build).
    m!("nets.build.busy_s", "s", "nets.build", |p| p.busy_s("nets.build")),
    m!("nets.build.count", "count", "nets.build", |p| p.calls("nets.build")),
    m!("nets.synthetic_input.busy_s", "s", "nets.synthetic_input", |p| p.busy_s("nets.synthetic_input")),
    m!("nets.probe.build_paper.busy_s", "s", "nets.probe.build_paper", |p| p.busy_s("nets.probe.build_paper")),
    m!("nets.probe.build_paper.weight_mb_per_s", "MB/s", "nets.probe.build_paper", |p| ratio(p.count("nets.probe.build_paper.weight_bytes") / 1e6, p.busy_s("nets.probe.build_paper"))),
    // kernels.
    m!("kernels.probe.codegen.busy_s", "s", "kernels.probe.codegen", |p| p.busy_s("kernels.probe.codegen")),
    m!("kernels.probe.conv.host_ns_per_winst", "ns/winst", "kernels.probe.conv", |p| ns_per(p, "kernels.probe.conv", "kernels.probe.conv")),
    m!("kernels.probe.fc.host_ns_per_winst", "ns/winst", "kernels.probe.fc", |p| ns_per(p, "kernels.probe.fc", "kernels.probe.fc")),
    m!("kernels.probe.pool.host_ns_per_winst", "ns/winst", "kernels.probe.pool", |p| ns_per(p, "kernels.probe.pool", "kernels.probe.pool")),
    m!("kernels.probe.gru_step.host_ns_per_winst", "ns/winst", "kernels.probe.gru_step", |p| ns_per(p, "kernels.probe.gru_step", "kernels.probe.gru_step")),
    // isa.
    m!("isa.probe.verify.busy_s", "s", "isa.probe.verify", |p| p.busy_s("isa.probe.verify")),
    m!("isa.probe.verify.programs", "count", "isa.probe.verify", |p| p.count("isa.probe.verify.programs")),
    m!("isa.probe.verify.ns_per_inst", "ns/inst", "isa.probe.verify", |p| ns_per(p, "isa.probe.verify", "isa.probe.verify.insts")),
    m!("isa.probe.verify.findings", "count", "isa.probe.verify", |p| p.count("isa.probe.verify.findings")),
    // backend and fpga.
    m!("backend.probe.lower.busy_s", "s", "backend.probe.lower", |p| p.busy_s("backend.probe.lower")),
    m!("backend.probe.systolic_run.busy_s", "s", "backend.probe.systolic_run", |p| p.busy_s("backend.probe.systolic_run")),
    m!("backend.probe.fpga_run.busy_s", "s", "backend.probe.fpga_run", |p| p.busy_s("backend.probe.fpga_run")),
    // core: the glue of simulate_run around its children.
    m!("core.simulate_run.busy_s", "s", "core.simulate_run", |p| p.busy_s("core.simulate_run")),
    m!("core.simulate_run.count", "count", "core.simulate_run", |p| p.calls("core.simulate_run")),
    // harness.
    m!("harness.probe.key.ns_per_hash", "ns", "harness.probe.key", |p| p.count("harness.probe.key.ns_per_hash")),
    m!("harness.probe.codec.encode_mb_per_s", "MB/s", "harness.probe.codec", |p| p.count("harness.probe.codec.encode_mb_per_s")),
    m!("harness.probe.codec.decode_mb_per_s", "MB/s", "harness.probe.codec", |p| p.count("harness.probe.codec.decode_mb_per_s")),
    m!("harness.probe.codec.record_bytes", "bytes", "harness.probe.codec", |p| p.count("harness.probe.codec.record_bytes")),
    m!("harness.probe.store.hit_mem_us", "us", "harness.probe.store", |p| p.count("harness.probe.store.hit_mem_us")),
    m!("harness.probe.store.hit_disk_us", "us", "harness.probe.store", |p| p.count("harness.probe.store.hit_disk_us")),
    m!("harness.probe.suite.w1.busy_s", "s", "harness.probe.suite", |p| p.busy_s("harness.probe.suite.w1")),
    m!("harness.probe.suite.w2.busy_s", "s", "harness.probe.suite", |p| p.busy_s("harness.probe.suite.w2")),
    m!("harness.probe.suite.parallel_eff", "frac", "harness.probe.suite", |p| p.count("harness.probe.suite.parallel_eff")),
    // serve.
    m!("serve.trace_gen.busy_s", "s", "serve.trace_gen", |p| p.busy_s("serve.trace_gen")),
    m!("serve.run_trace.busy_s", "s", "serve.run_trace", |p| p.busy_s("serve.run_trace")),
    m!("serve.run_trace.requests", "count", "serve.run_trace", |p| p.count("serve.run_trace.requests")),
    m!("serve.run_trace.ns_per_request", "ns/request", "serve.run_trace", |p| ns_per(p, "serve.run_trace", "serve.run_trace.requests")),
    m!("serve.run_trace.shed", "count", "serve.run_trace", |p| p.count("serve.run_trace.shed")),
    m!("serve.run_trace.mean_batch", "requests", "serve.run_trace", |p| ratio(p.count("serve.run_trace.completed"), p.count("serve.run_trace.batches"))),
    m!("serve.latency_summary.busy_s", "s", "serve.latency_summary", |p| p.busy_s("serve.latency_summary")),
    m!("serve.metrics.busy_s", "s", "serve.metrics", |p| p.busy_s("serve.metrics")),
    m!("serve.metrics.ns_per_request", "ns/request", "serve.metrics", |p| ns_per(p, "serve.metrics", "serve.metrics.requests")),
    // fleet.
    m!("fleet.trace_gen.busy_s", "s", "fleet.trace_gen", |p| p.busy_s("fleet.trace_gen")),
    m!("fleet.run_fleet.busy_s", "s", "fleet.run_fleet", |p| p.busy_s("fleet.run_fleet")),
    m!("fleet.run_fleet.requests", "count", "fleet.run_fleet", |p| p.count("fleet.run_fleet.requests")),
    m!("fleet.run_fleet.round_robin.ns_per_request", "ns/request", "fleet.run_fleet", |p| ns_per(p, "fleet.run_fleet.round_robin", "fleet.run_fleet.round_robin")),
    m!("fleet.run_fleet.least_queue.ns_per_request", "ns/request", "fleet.run_fleet", |p| ns_per(p, "fleet.run_fleet.least_queue", "fleet.run_fleet.least_queue")),
    m!("fleet.run_fleet.cost_aware.ns_per_request", "ns/request", "fleet.run_fleet", |p| ns_per(p, "fleet.run_fleet.cost_aware", "fleet.run_fleet.cost_aware")),
    m!("fleet.run_fleet.shed", "count", "fleet.run_fleet", |p| p.count("fleet.run_fleet.shed")),
    m!("fleet.class_latency.busy_s", "s", "fleet.class_latency", |p| p.busy_s("fleet.class_latency")),
    m!("fleet.metered.busy_s", "s", "fleet.metered", |p| p.busy_s("fleet.metered")),
    m!("fleet.metered.overhead_ratio", "ratio", "fleet.metered", |p| ratio(p.busy_s("fleet.metered"), p.busy_s("fleet.unmetered"))),
    m!("fleet.export.busy_s", "s", "fleet.export", |p| p.busy_s("fleet.export")),
    m!("fleet.export.bytes", "bytes", "fleet.export", |p| p.count("fleet.export.bytes")),
    // obs.
    m!("obs.probe.recorder.overhead_frac", "frac", "obs.probe", |p| p.count("obs.probe.recorder.overhead_frac")),
    m!("obs.probe.recorder.events", "count", "obs.probe", |p| p.count("obs.probe.recorder.events")),
    m!("obs.probe.recorder.dropped", "count", "obs.probe", |p| p.count("obs.probe.recorder.dropped")),
    m!("obs.probe.drain.busy_s", "s", "obs.probe.drain", |p| p.busy_s("obs.probe.drain")),
];

/// Names and units of the two metrics of the benchmark itself.
pub const BENCH_METRICS: [(&str, &str); 2] = [
    ("bench.trace_overhead_frac", "frac"),
    ("bench.spans", "count"),
];

/// Evaluates every layer metric over the workload's traced reps and the
/// tour. Values that do not exist (a ratio over nothing) read 0.
pub fn layer_metrics(workload: &Phase, tour: &Phase) -> Vec<(&'static str, &'static str, f64)> {
    LAYER_METRICS
        .iter()
        .map(|m| {
            let phase = if workload.has(m.anchor) {
                workload
            } else {
                tour
            };
            let value = (m.eval)(phase);
            (m.name, m.unit, if value.is_finite() { value } else { 0.0 })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Count, Span};

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = LAYER_METRICS.iter().map(|m| m.name).collect();
        names.extend(BENCH_METRICS.iter().map(|(n, _)| *n));
        assert!(names.len() <= 128);
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        for n in &names {
            assert!(n.len() <= 64 && n.chars().all(ok), "{n}");
        }
        for m in LAYER_METRICS {
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.unit
            );
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn a_layer_is_read_from_the_workload_when_it_calls_it_else_from_the_tour() {
        let phase = |busy_ns, requests| Phase {
            spans: vec![Span {
                name: "serve.run_trace",
                start_ns: 0,
                end_ns: busy_ns,
                parent: None,
                rep: 1,
            }],
            counts: vec![Count {
                key: "serve.run_trace.requests",
                rep: 1,
                value: requests,
            }],
        };
        let value = |w: &Phase, t: &Phase| {
            layer_metrics(w, t)
                .into_iter()
                .find(|(n, _, _)| *n == "serve.run_trace.ns_per_request")
                .map(|(_, _, v)| v)
        };
        let (warm, tour) = (phase(1_000, 10.0), phase(600, 2.0));
        assert_eq!(value(&warm, &tour), Some(100.0));
        assert_eq!(value(&Phase::default(), &tour), Some(300.0));
        assert_eq!(value(&Phase::default(), &Phase::default()), Some(0.0));
    }
}
