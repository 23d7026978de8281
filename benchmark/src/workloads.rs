//! The four workloads: their inputs, their ops and one rep of each.
//!
//! Every op is a call into a crate's public function, timed on the host
//! clock and then checked (see `digest`). A rep is one pass over a
//! workload's op list; its wall time is the sum of its ops' times, so
//! digesting and checking stay outside it.

use crate::digest::{fleet_digest, serve_digest, Checker, Hasher};
use crate::span::Tracer;
use std::time::Instant;
use tango::{simulate_run, NetworkRun, RunSpec};
use tango_fleet::{
    run_fleet, run_fleet_metered, AutoscaleConfig, ClassSpec, FleetConfig, FleetCost,
    FleetMetricsConfig, FleetTrace, PoolSpec, RoutePolicy, TableFleetCost,
};
use tango_nets::{build_network, synthetic_input, NetworkKind, Preset};
use tango_obs::metrics::{MetricKind, MetricsRegistry};
use tango_serve::{
    run_trace, serve_metrics, ArrivalTrace, BatchPolicy, ServeConfig, ServeReport, TableCostModel,
};
use tango_sim::{memo_table_stats, Gpu, GpuConfig, SimOptions, StallReason};

/// What a run carries through every op: the tracer and the checker.
pub struct Bench {
    pub tracer: Tracer,
    pub check: Checker,
    pub seed: u64,
}

/// How a simulated inference meets the launch memo.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Infer {
    /// Memo off: every launch is simulated.
    Cold,
    /// Memo on, first pass: simulated and recorded.
    Record,
    /// Memo on, recorded before: every launch must replay.
    Replay,
}

impl Infer {
    fn span(self) -> &'static str {
        match self {
            Infer::Cold => "sim.infer",
            Infer::Record => "sim.memo.record",
            Infer::Replay => "sim.memo.replay",
        }
    }
}

/// A `RunSpec` on `config` with the memo forced on or off, so that
/// `TANGO_SIM_MEMO` is never consulted.
pub fn spec(
    config: GpuConfig,
    kind: NetworkKind,
    preset: Preset,
    seed: u64,
    memo: bool,
    options: SimOptions,
) -> RunSpec {
    RunSpec {
        config,
        preset,
        seed,
        kind,
        options: options.with_memo(memo),
    }
}

/// Digest label of a simulated run: everything but the seed and the
/// memo switch, which must not change the result.
pub fn sim_label(spec: &RunSpec) -> String {
    let o = &spec.options;
    format!(
        "sim:{}@{}/{}/sched={}/l1d={}/batch={}",
        spec.kind.name(),
        spec.preset.name(),
        spec.config.name.replace(' ', "_"),
        o.scheduler.map_or("default", |s| s.name()),
        o.l1d_bytes.map_or("default".to_string(), |b| b.to_string()),
        o.batch,
    )
}

/// `simulate_run` as its four public calls, each in a span of its crate.
fn traced_simulate(t: &mut Tracer, spec: &RunSpec, how: Infer) -> tango::Result<NetworkRun> {
    t.span("core.simulate_run", |t| {
        let mut gpu = t.span("sim.gpu_new", |_| Gpu::new(spec.config.clone()));
        let net = t.span("nets.build", |_| {
            build_network(&mut gpu, spec.kind, spec.preset, spec.seed)
        })?;
        let input = t.span("nets.synthetic_input", |_| {
            synthetic_input(net.input_spec(), spec.seed ^ 0x1234_5678)
        });
        let report = t.span(how.span(), |_| net.infer(&mut gpu, &input, &spec.options))?;
        Ok(NetworkRun {
            kind: spec.kind,
            report,
            footprint_bytes: gpu.memory_footprint_bytes(),
        })
    })
}

fn count_sim(t: &mut Tracer, run: &NetworkRun, how: Infer, wall_s: f64) {
    if !t.is_on() {
        return;
    }
    let sum = |f: &dyn Fn(&tango_sim::KernelStats) -> u64| {
        run.report.records.iter().map(|r| f(&r.stats)).sum::<u64>() as f64
    };
    let launches = run.report.records.len() as f64;
    match how {
        Infer::Cold => {
            t.count("sim.infer.op_s", wall_s);
            t.count("sim.infer.launches", launches);
            t.count("sim.infer.cycles", sum(&|s| s.cycles));
            t.count("sim.infer.winst", sum(&|s| s.warp_instructions));
            t.count("sim.infer.thread_inst", sum(&|s| s.thread_instructions));
            t.count("sim.infer.l1d_accesses", sum(&|s| s.l1d.accesses));
            t.count("sim.infer.l1d_misses", sum(&|s| s.l1d.misses));
            t.count("sim.infer.l2_accesses", sum(&|s| s.l2.accesses));
            t.count("sim.infer.l2_misses", sum(&|s| s.l2.misses));
            t.count("sim.infer.dram_accesses", sum(&|s| s.dram_accesses));
            t.count("sim.infer.stalls", sum(&|s| s.stalls.total()));
            t.count(
                "sim.infer.stalls_mem",
                sum(&|s| {
                    s.stalls.count(StallReason::MemoryDependency)
                        + s.stalls.count(StallReason::MemoryThrottle)
                }),
            );
            t.count("sim.infer.ctas", sum(&|s| s.ctas_total));
            t.count("sim.infer.ctas_simulated", sum(&|s| s.ctas_simulated));
        }
        Infer::Record => t.count("sim.memo.record.launches", launches),
        Infer::Replay => {
            t.count("sim.memo.replay.op_s", wall_s);
            t.count("sim.memo.replay.launches", launches);
        }
    }
}

/// Runs and checks one simulated inference; returns its host seconds.
/// A replay that adds memo entries simulated a launch it should have
/// replayed, and fails.
pub fn sim_op(b: &mut Bench, spec: &RunSpec, how: Infer) -> f64 {
    let label = sim_label(spec);
    let entries = (how == Infer::Replay).then(|| memo_table_stats().1);
    let start = Instant::now();
    let result = if b.tracer.is_on() {
        traced_simulate(&mut b.tracer, spec, how)
    } else {
        simulate_run(spec)
    };
    let wall_s = start.elapsed().as_secs_f64();
    match result {
        Ok(run) => {
            b.check.check_run(&label, &run);
            count_sim(&mut b.tracer, &run, how, wall_s);
            if let Some(entries) = entries {
                let grown = memo_table_stats().1 - entries;
                b.tracer.count("sim.memo.replay_new_entries", grown as f64);
                if grown > 0 {
                    b.check
                        .fail(format!("{label}: replay added {grown} memo entries"));
                }
            }
        }
        Err(e) => b.check.errored(&label, &e),
    }
    wall_s
}

/// Times `f` in a span and returns its result with its host seconds.
fn timed<T>(t: &mut Tracer, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = t.span(name, |_| f());
    (out, start.elapsed().as_secs_f64())
}

/// How large a workload's ops are. `FULL` is what the benchmark
/// measures; `SMALL` is the same ops in milliseconds, for warming up,
/// for the tour and for `--smoke`.
#[derive(Debug)]
pub struct Scale {
    pub preset: Preset,
    /// Replay passes over the recorded networks in one warm rep.
    pub passes: u32,
    /// Requests in each serve and fleet trace of the `des` stage.
    pub des_requests: usize,
    /// Requests behind the `metrics` stage.
    pub metrics_requests: usize,
}

pub const FULL: Scale = Scale {
    preset: Preset::Bench,
    passes: 30,
    des_requests: 1_000_000,
    metrics_requests: 400_000,
};

pub const SMALL: Scale = Scale {
    preset: Preset::Tiny,
    passes: 2,
    des_requests: 40_000,
    metrics_requests: 20_000,
};

/// The three cold-simulator workloads and the warm stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdIssueBound,
    ColdStallBound,
    ColdL1Bypass,
    WarmStack,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ColdIssueBound,
        Workload::ColdStallBound,
        Workload::ColdL1Bypass,
        Workload::WarmStack,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdIssueBound => "cold_issue_bound",
            Workload::ColdStallBound => "cold_stall_bound",
            Workload::ColdL1Bypass => "cold_l1_bypass",
            Workload::WarmStack => "warm_stack",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The op list of one rep of a cold workload (empty for the warm
    /// stack): default `SimOptions` on the gp102 with the memo off, as
    /// `repro_plan` runs them.
    pub fn cold_specs(self, scale: &Scale, seed: u64) -> Vec<RunSpec> {
        let cold =
            |kind, options| spec(GpuConfig::gp102(), kind, scale.preset, seed, false, options);
        match self {
            Workload::ColdIssueBound => vec![cold(NetworkKind::AlexNet, SimOptions::new())],
            Workload::ColdStallBound => {
                let mut specs = vec![cold(NetworkKind::CifarNet, SimOptions::new())];
                for kind in [NetworkKind::Gru, NetworkKind::Lstm] {
                    specs.extend((0..10).map(|_| cold(kind, SimOptions::new())));
                }
                specs
            }
            Workload::ColdL1Bypass => vec![cold(
                NetworkKind::AlexNet,
                SimOptions::new().with_l1d_bytes(0),
            )],
            Workload::WarmStack => Vec::new(),
        }
    }
}

/// One rep of a cold workload; returns its host seconds.
pub fn cold_rep(b: &mut Bench, specs: &[RunSpec]) -> f64 {
    specs.iter().map(|s| sim_op(b, s, Infer::Cold)).sum()
}

// The table costs and fleet shape of `bench_perf`'s serve and fleet
// legs: two networks, three device generations, two classes.
const KINDS: [NetworkKind; 2] = [NetworkKind::Gru, NetworkKind::CifarNet];
const COSTS: [(NetworkKind, u64, u64); 2] = [
    (NetworkKind::Gru, 8_000, 400),
    (NetworkKind::CifarNet, 20_000, 1_000),
];
const SERVE_DEVICES: usize = 2;
/// Mean cycles of one unbatched request over `KINDS`.
const SERVE_MEAN_SERVICE: u64 = (8_400 + 21_000) / 2;
/// Window of `serve_metrics` in cycles and of the fleet metrics in ns:
/// a few thousand windows over a full-size trace.
const SERVE_METRICS_WINDOW: u64 = 200_000;
const FLEET_METRICS_WINDOW_NS: u64 = 200_000;

fn fleet_config(classes: &[ClassSpec], policy: RoutePolicy) -> FleetConfig {
    FleetConfig {
        pools: vec![
            PoolSpec::elastic("fast", 2, 1, 4),
            PoolSpec::elastic("mid", 1, 0, 2),
            PoolSpec::fixed("slow", 1),
        ],
        classes: classes.to_vec(),
        queue_bound: 128,
        max_batch: 8,
        max_delay_ns: 2_000,
        policy,
        autoscale: Some(AutoscaleConfig {
            interval_ns: 4_000,
            high_queue_per_device: 3,
            low_queue_per_device: 1,
        }),
    }
}

fn policy_span(policy: RoutePolicy) -> &'static str {
    match policy {
        RoutePolicy::RoundRobin => "fleet.run_fleet.round_robin",
        RoutePolicy::LeastQueue => "fleet.run_fleet.least_queue",
        RoutePolicy::CostAware => "fleet.run_fleet.cost_aware",
    }
}

fn registry_digest(reg: &MetricsRegistry) -> u64 {
    let mut h = Hasher::new();
    let (first, last) = reg.window_range().unwrap_or((0, 0));
    h.u64(first);
    h.u64(last);
    for name in reg.names() {
        h.bytes(name.as_bytes());
        match reg.kind(name) {
            Some(MetricKind::Counter) => h.u64(reg.counter_total(name).unwrap_or(0)),
            Some(MetricKind::Gauge) => h.u64(reg.gauge_last(name).unwrap_or(0) as u64),
            Some(MetricKind::Histogram) => {
                let (count, sum) = reg
                    .histogram_total(name)
                    .map_or((0, 0), |hist| (hist.count(), hist.sum()));
                h.u64(count);
                h.u64(sum);
            }
            None => {}
        }
    }
    h.finish()
}

/// Inputs of the warm stack, made from the seed before the first rep.
pub struct WarmStack {
    scale: &'static Scale,
    /// The recorded networks, memo on.
    specs: Vec<RunSpec>,
    serve_config: ServeConfig,
    serve_cost: TableCostModel,
    serve_traces: Vec<(&'static str, ArrivalTrace)>,
    classes: Vec<ClassSpec>,
    fleet_costs: Vec<TableFleetCost>,
    fleet_traces: Vec<(&'static str, FleetTrace)>,
    /// Finished replay `serve_metrics` summarises.
    metrics_report: ServeReport,
    /// Trace of the metered fleet run.
    metrics_trace: FleetTrace,
}

impl WarmStack {
    /// Generates every trace from `b.seed` and records the networks into
    /// the launch memo: all a rep must never do again.
    pub fn set_up(b: &mut Bench, scale: &'static Scale) -> WarmStack {
        let seed = b.seed;
        let specs: Vec<RunSpec> = [
            NetworkKind::CifarNet,
            NetworkKind::AlexNet,
            NetworkKind::ResNet50,
            NetworkKind::Gru,
        ]
        .into_iter()
        .map(|kind| {
            spec(
                GpuConfig::gp102(),
                kind,
                scale.preset,
                seed,
                true,
                SimOptions::new(),
            )
        })
        .collect();
        for s in &specs {
            sim_op(b, s, Infer::Record);
        }
        let (keys, entries, bytes) = memo_table_stats();
        b.tracer.count("sim.memo.table_keys", keys as f64);
        b.tracer.count("sim.memo.table_entries", entries as f64);
        b.tracer.count("sim.memo.table_bytes", bytes as f64);

        let serve_cost = COSTS
            .iter()
            .fold(TableCostModel::new(), |c, &(kind, base, per)| {
                c.with_kind(kind, base, per)
            });
        let serve_config = ServeConfig {
            devices: SERVE_DEVICES,
            queue_bound: 256,
            policy: BatchPolicy {
                max_batch: 8,
                max_delay_cycles: SERVE_MEAN_SERVICE / 4,
            },
        };
        // Offered load 0.7 of the unbatched capacity, and an overload
        // that even full batches cannot carry, so the queue bound sheds.
        let gap_rho07 = SERVE_MEAN_SERVICE * 10 / (SERVE_DEVICES as u64 * 7);
        let gap_overload = 1_000;
        let t = &mut b.tracer;
        let serve_traces = vec![
            ("serve.rho07", gap_rho07, seed),
            ("serve.overload", gap_overload, seed ^ 2),
        ]
        .into_iter()
        .map(|(name, gap, seed)| {
            let trace = t.span("serve.trace_gen", |_| {
                ArrivalTrace::open_loop(&KINDS, scale.des_requests, gap, 4, seed)
            });
            (name, trace)
        })
        .collect();

        let classes = vec![
            ClassSpec::with_slo("interactive", 400_000),
            ClassSpec::best_effort("batch"),
        ];
        let fleet_costs = [2.0, 1.0, 0.25]
            .into_iter()
            .map(|ghz| {
                COSTS
                    .iter()
                    .fold(TableFleetCost::new(ghz), |c, &(kind, base, per)| {
                        c.with_kind(kind, base, per)
                    })
            })
            .collect();
        let diurnal = |n| FleetTrace::diurnal(&KINDS, &classes, n, 700, 200_000, 0.2, seed);
        let bursty =
            |n| FleetTrace::bursty(&KINDS, &classes, n, 2_800, 100_000, 20_000, 6, seed ^ 1);
        let fleet_traces = vec![
            (
                "diurnal",
                t.span("fleet.trace_gen", |_| diurnal(scale.des_requests)),
            ),
            (
                "bursty",
                t.span("fleet.trace_gen", |_| bursty(scale.des_requests)),
            ),
        ];
        let metrics_trace = t.span("fleet.trace_gen", |_| bursty(scale.metrics_requests));
        let metrics_arrivals = t.span("serve.trace_gen", |_| {
            ArrivalTrace::open_loop(&KINDS, scale.metrics_requests, gap_overload, 4, seed ^ 3)
        });
        let metrics_report = run_trace(&metrics_arrivals, &serve_config, &serve_cost)
            .expect("table costs and a valid config cannot fail");

        WarmStack {
            scale,
            specs,
            serve_config,
            serve_cost,
            serve_traces,
            classes,
            fleet_costs,
            fleet_traces,
            metrics_report,
            metrics_trace,
        }
    }

    fn label(&self, op: &str, requests: usize) -> String {
        format!("des:{op}@{requests}")
    }

    /// Stage `replay`: every recorded network on a fresh `Gpu`, memo on.
    fn replay(&self, b: &mut Bench) -> f64 {
        (0..self.scale.passes)
            .flat_map(|_| &self.specs)
            .map(|s| sim_op(b, s, Infer::Replay))
            .sum()
    }

    /// Stage `des`: the two engines alone, over table costs.
    fn des(&self, b: &mut Bench) -> f64 {
        let n = self.scale.des_requests;
        let mut wall_s = 0.0;
        for (name, trace) in &self.serve_traces {
            let (result, run_s) = timed(&mut b.tracer, "serve.run_trace", || {
                run_trace(trace, &self.serve_config, &self.serve_cost)
            });
            wall_s += run_s;
            match result {
                Ok(report) => {
                    let (summary, summary_s) =
                        timed(&mut b.tracer, "serve.latency_summary", || {
                            report.latency_summary()
                        });
                    wall_s += summary_s;
                    b.check
                        .check(&self.label(name, n), None, serve_digest(&report, summary));
                    b.tracer
                        .count("serve.run_trace.requests", report.records.len() as f64);
                    b.tracer.count("serve.run_trace.shed", report.shed() as f64);
                    b.tracer
                        .count("serve.run_trace.completed", report.completed() as f64);
                    b.tracer
                        .count("serve.run_trace.batches", report.batches as f64);
                }
                Err(e) => b.check.errored(&self.label(name, n), &e),
            }
        }
        let costs: Vec<&dyn FleetCost> = self
            .fleet_costs
            .iter()
            .map(|c| c as &dyn FleetCost)
            .collect();
        for (trace_name, trace) in &self.fleet_traces {
            for policy in RoutePolicy::ALL {
                let config = fleet_config(&self.classes, policy);
                let label = self.label(&format!("fleet.{trace_name}.{}", policy.name()), n);
                let (result, run_s) = timed(&mut b.tracer, policy_span(policy), || {
                    run_fleet(trace, &config, &costs)
                });
                wall_s += run_s;
                match result {
                    Ok(report) => {
                        let (summaries, summary_s) =
                            timed(&mut b.tracer, "fleet.class_latency", || {
                                (0..self.classes.len())
                                    .map(|c| report.class_latency(c))
                                    .collect::<Vec<_>>()
                            });
                        wall_s += summary_s;
                        b.check
                            .check(&label, None, fleet_digest(&report, &summaries));
                        b.tracer
                            .count("fleet.run_fleet.requests", report.records.len() as f64);
                        b.tracer.count("fleet.run_fleet.shed", report.shed() as f64);
                        b.tracer
                            .count(policy_span(policy), report.records.len() as f64);
                    }
                    Err(e) => b.check.errored(&label, &e),
                }
            }
        }
        b.tracer.count(
            "des.requests",
            (n * (self.serve_traces.len() + 3 * self.fleet_traces.len())) as f64,
        );
        b.tracer.count("des.stage_s", wall_s);
        wall_s
    }

    /// Stage `metrics`: what observing a run costs on top of running it.
    fn metrics(&self, b: &mut Bench) -> f64 {
        let n = self.scale.metrics_requests;
        let (registry, mut wall_s) = timed(&mut b.tracer, "serve.metrics", || {
            serve_metrics(&self.metrics_report, SERVE_METRICS_WINDOW)
        });
        b.check.check(
            &self.label("serve.metrics", n),
            None,
            registry_digest(&registry),
        );
        b.tracer.count("serve.metrics.requests", n as f64);

        let costs: Vec<&dyn FleetCost> = self
            .fleet_costs
            .iter()
            .map(|c| c as &dyn FleetCost)
            .collect();
        let config = fleet_config(&self.classes, RoutePolicy::CostAware);
        let mcfg = FleetMetricsConfig::with_window(FLEET_METRICS_WINDOW_NS);
        let (plain, plain_s) = timed(&mut b.tracer, "fleet.unmetered", || {
            run_fleet(&self.metrics_trace, &config, &costs)
        });
        let (metered, metered_s) = timed(&mut b.tracer, "fleet.metered", || {
            run_fleet_metered(&self.metrics_trace, &config, &costs, &mcfg)
        });
        wall_s += plain_s + metered_s;
        let label = self.label("fleet.metered", n);
        match (plain, metered) {
            (Ok(plain), Ok((report, metrics))) => {
                let classes: Vec<_> = (0..self.classes.len())
                    .map(|c| report.class_latency(c))
                    .collect();
                b.check.check(&label, None, fleet_digest(&report, &classes));
                if report != plain {
                    b.check.fail(format!(
                        "{label}: the metered report differs from run_fleet's"
                    ));
                }
                let (texts, export_s) = timed(&mut b.tracer, "fleet.export", || {
                    [
                        metrics.render_text("warm_stack"),
                        metrics.snapshot_jsonl("warm_stack"),
                        metrics.prometheus_text(),
                    ]
                });
                wall_s += export_s;
                let mut h = Hasher::new();
                texts.iter().for_each(|t| h.bytes(t.as_bytes()));
                b.check
                    .check(&self.label("fleet.export", n), None, h.finish());
                b.tracer.count(
                    "fleet.export.bytes",
                    texts.iter().map(String::len).sum::<usize>() as f64,
                );
                b.tracer
                    .count("fleet.metered.alerts", metrics.alerts().len() as f64);
            }
            (Err(e), _) | (_, Err(e)) => b.check.errored(&label, &e),
        }
        b.tracer.count("metrics.requests", 2.0 * n as f64);
        b.tracer.count("metrics.stage_s", wall_s);
        wall_s
    }

    /// One rep: the three stages, back to back. Returns the host seconds
    /// of each.
    pub fn rep(&self, b: &mut Bench) -> [f64; 3] {
        [self.replay(b), self.des(b), self.metrics(b)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_ignore_seed_and_memo() {
        let a = spec(
            GpuConfig::gp102(),
            NetworkKind::AlexNet,
            Preset::Bench,
            1,
            false,
            SimOptions::new(),
        );
        let b = spec(
            GpuConfig::gp102(),
            NetworkKind::AlexNet,
            Preset::Bench,
            2,
            true,
            SimOptions::new(),
        );
        assert_eq!(sim_label(&a), sim_label(&b));
        let c = spec(
            GpuConfig::gp102(),
            NetworkKind::AlexNet,
            Preset::Bench,
            1,
            false,
            SimOptions::new().with_l1d_bytes(0),
        );
        assert_ne!(sim_label(&a), sim_label(&c));
        assert!(!sim_label(&a).contains(' '));
    }

    #[test]
    fn op_lists_have_the_sizes_the_readme_states() {
        assert_eq!(Workload::ColdIssueBound.cold_specs(&FULL, 1).len(), 1);
        assert_eq!(Workload::ColdStallBound.cold_specs(&FULL, 1).len(), 21);
        let bypass = Workload::ColdL1Bypass.cold_specs(&FULL, 1);
        assert_eq!(bypass[0].options.l1d_bytes, Some(0));
        assert!(bypass[0].options.memo == Some(false));
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
    }
}
