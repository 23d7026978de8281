//! The tour: the `probes` pass of a traced run.
//!
//! A fixed, seeded sequence of calls that visits every crate once at a
//! small size, so that every per-layer metric is measured in every
//! traced run: the workload's own traced reps give a layer's metrics
//! where the workload calls that layer, and the tour gives them where
//! it does not. The `*.probe.*` metrics come from here only; they guard
//! paths no workload times (other schedulers and device configs,
//! batching, single kernels, the verifier, the backends, the store).
//!
//! The obs probe runs last: `tango_obs::enable` is process-global and
//! forces the launch memo off.

use crate::digest::{digest_bytes, Hasher};
use crate::stats::median;
use crate::workloads::{sim_label, sim_op, spec, Bench, Infer, WarmStack, SMALL};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use tango::{measure_build, simulate_run, BuildSpec, NetworkRun, RunSpec};
use tango_backend::{
    lower::LoweredNet, run_backend, BackendJob, BackendRunSpec, BackendSpec, Precision,
    SystolicConfig,
};
use tango_harness::{decode_run, encode_run, RunKey, RunStore, Suite};
use tango_isa::verify::{verify_launch, LaunchSpec};
use tango_isa::Dim3;
use tango_kernels::{Conv2d, DeviceTensor, FullyConnected, GruDeviceWeights, GruStep, MaxPool2d};
use tango_nets::{build_network, synthetic_input, NetworkKind, Preset};
use tango_sim::{memo_table_stats, Gpu, GpuConfig, KernelStats, SchedulerPolicy, SimOptions};
use tango_tensor::{Shape, SplitMix64, Tensor};

fn winst(run: &NetworkRun) -> f64 {
    run.report
        .records
        .iter()
        .map(|r| r.stats.warp_instructions)
        .sum::<u64>() as f64
}

/// `passes` cold runs of `spec` in one span; returns the host seconds.
fn sim_probe(b: &mut Bench, span: &'static str, spec: &RunSpec, passes: u32) -> f64 {
    let label = sim_label(spec);
    let start = Instant::now();
    let runs = b.tracer.span(span, |_| {
        (0..passes).map(|_| simulate_run(spec)).collect::<Vec<_>>()
    });
    let wall_s = start.elapsed().as_secs_f64();
    for run in runs {
        match run {
            Ok(run) => {
                b.check.check_run(&label, &run);
                b.tracer.count(span, winst(&run));
            }
            Err(e) => b.check.errored(&label, &e),
        }
    }
    wall_s
}

fn sim_probes(b: &mut Bench) {
    let seed = b.seed;
    let cold = |config, kind, preset, options| spec(config, kind, preset, seed, false, options);
    let gp102 = GpuConfig::gp102;

    let l1_on = cold(
        gp102(),
        NetworkKind::AlexNet,
        Preset::Tiny,
        SimOptions::new(),
    );
    // The cold path once, as the cold workloads trace it.
    sim_op(b, &l1_on, Infer::Cold);

    let l1_off = cold(
        gp102(),
        NetworkKind::AlexNet,
        Preset::Tiny,
        SimOptions::new().with_l1d_bytes(0),
    );
    let on_s = sim_probe(b, "sim.probe.l1_default", &l1_on, 1);
    let off_s = sim_probe(b, "sim.probe.l1_bypass", &l1_off, 1);
    b.tracer
        .count("sim.probe.l1_bypass.host_ratio", off_s / on_s);

    let mobile = |config, options| cold(config, NetworkKind::MobileNet, Preset::Tiny, options);
    let probes = [
        (
            "sim.probe.sched_lrr",
            mobile(
                gp102(),
                SimOptions::new().with_scheduler(SchedulerPolicy::Lrr),
            ),
            3,
        ),
        (
            "sim.probe.sched_tlv",
            mobile(
                gp102(),
                SimOptions::new().with_scheduler(SchedulerPolicy::Tlv),
            ),
            3,
        ),
        (
            "sim.probe.cfg_gk210",
            mobile(GpuConfig::gk210(), SimOptions::new()),
            3,
        ),
        (
            "sim.probe.cfg_tx1",
            mobile(GpuConfig::tx1(), SimOptions::new()),
            3,
        ),
        (
            "sim.probe.batch8",
            cold(
                gp102(),
                NetworkKind::Gru,
                Preset::Bench,
                SimOptions::new().with_batch(8),
            ),
            1,
        ),
    ];
    for (span, spec, passes) in &probes {
        sim_probe(b, span, spec, *passes);
    }
}

/// The warm stack at its small scale, then a second `infer` on the same
/// `Gpu`, as `serve::Service` workers do: how many launches miss the
/// memo although the first `infer` recorded them.
fn memo_probes(b: &mut Bench) {
    let warm = WarmStack::set_up(b, &SMALL);
    warm.rep(b);

    let s = spec(
        GpuConfig::gp102(),
        NetworkKind::Gru,
        Preset::Tiny,
        b.seed,
        true,
        SimOptions::new(),
    );
    let label = format!("{}#same-gpu", sim_label(&s));
    let mut gpu = Gpu::new(s.config.clone());
    let outcome = (|| {
        let net = build_network(&mut gpu, s.kind, s.preset, s.seed)?;
        let input = synthetic_input(net.input_spec(), s.seed ^ 0x1234_5678);
        let first = net.infer(&mut gpu, &input, &s.options)?;
        let entries = memo_table_stats().1;
        let second = net.infer(&mut gpu, &input, &s.options)?;
        Ok::<_, tango_nets::NetError>((
            first.output == second.output,
            memo_table_stats().1 - entries,
        ))
    })();
    match outcome {
        Ok((same_output, grown)) => {
            b.check.check(&label, None, u64::from(same_output));
            b.tracer
                .count("sim.memo.reuse_gpu_new_entries", grown as f64);
        }
        Err(e) => b.check.errored(&label, &e),
    }
}

fn nets_probe(b: &mut Bench) {
    let build = BuildSpec {
        preset: Preset::Paper,
        seed: b.seed,
        kind: NetworkKind::AlexNet,
    };
    match b
        .tracer
        .span("nets.probe.build_paper", |_| measure_build(&build))
    {
        Ok(stats) => {
            let mut h = Hasher::new();
            h.u64(stats.footprint_bytes);
            h.u64(stats.weight_bytes);
            h.u64(stats.layers.len() as u64);
            let d = h.finish();
            b.check.check("build:AlexNet@paper", Some(d), d);
            b.tracer.count(
                "nets.probe.build_paper.weight_bytes",
                stats.weight_bytes as f64,
            );
        }
        Err(e) => b.check.errored("build:AlexNet@paper", &e),
    }
}

fn check_kernel(b: &mut Bench, label: &str, span: &'static str, stats: &KernelStats) {
    let mut h = Hasher::new();
    h.u64(stats.cycles);
    h.u64(stats.warp_instructions);
    h.u64(stats.thread_instructions);
    let d = h.finish();
    b.check.check(label, Some(d), d);
    b.tracer.count(span, stats.warp_instructions as f64);
}

/// Standalone launches of one kernel per family, as
/// `crates/bench/benches/kernels.rs` makes them, memo off. Their data is
/// seeded by constants: a kernel probe does not depend on `--seed`.
fn kernel_probes(b: &mut Bench) {
    let opts = SimOptions::new().with_memo(false);
    let built = b.tracer.span("kernels.probe.codegen", |_| {
        (
            Conv2d::new(8, 16, 16, 16, 3, 3, 1, 1, true),
            MaxPool2d::new(16, 16, 16, 2, 2),
            FullyConnected::new(1, 1, 256, 64, 1, false),
            GruStep::new(1, 64, Dim3::xy(8, 8)),
        )
    });
    let (Ok(conv), Ok(pool), Ok(fc), Ok(gru)) = built else {
        b.check
            .errored("kernel:codegen", &"a probe kernel failed to build");
        return;
    };
    let uniform = |seed, shape, lo, hi| Tensor::uniform(shape, lo, hi, &mut SplitMix64::new(seed));

    let input = uniform(1, Shape::nchw(1, 8, 16, 16), -1.0, 1.0);
    let weights = uniform(2, Shape::new(&[16, 8, 3, 3]), -0.5, 0.5);
    let bias = uniform(3, Shape::vector(16), -0.1, 0.1);
    let stats = b.tracer.span("kernels.probe.conv", |_| {
        let mut gpu = Gpu::new(GpuConfig::gp102());
        let d_in = DeviceTensor::upload(&mut gpu, &input, 1).expect("probe tensor fits the device");
        let (d_w, d_b) = (
            gpu.upload_f32s(weights.as_slice()),
            gpu.upload_f32s(bias.as_slice()),
        );
        let d_out = DeviceTensor::alloc(&mut gpu, 16, conv.h_out(), conv.w_out(), 0);
        conv.launch(&mut gpu, &d_in, d_w, d_b, &d_out, &opts)
    });
    check_kernel(
        b,
        "kernel:conv3x3_8to16_16x16",
        "kernels.probe.conv",
        &stats,
    );

    let input = uniform(4, Shape::nchw(1, 16, 16, 16), -1.0, 1.0);
    let stats = b.tracer.span("kernels.probe.pool", |_| {
        let mut gpu = Gpu::new(GpuConfig::gp102());
        let d_in = DeviceTensor::upload(&mut gpu, &input, 0).expect("probe tensor fits the device");
        let d_out = DeviceTensor::alloc(&mut gpu, 16, pool.h_out(), pool.w_out(), 0);
        pool.launch(&mut gpu, &d_in, &d_out, &opts)
    });
    check_kernel(
        b,
        "kernel:maxpool2x2_16ch_16x16",
        "kernels.probe.pool",
        &stats,
    );

    let input = uniform(5, Shape::vector(256), -1.0, 1.0);
    let weights = uniform(6, Shape::matrix(64, 256), -0.3, 0.3);
    let bias = uniform(7, Shape::vector(64), -0.1, 0.1);
    let stats = b.tracer.span("kernels.probe.fc", |_| {
        let mut gpu = Gpu::new(GpuConfig::gp102());
        let d_in = DeviceTensor::upload(&mut gpu, &input, 0).expect("probe tensor fits the device");
        let (d_w, d_b) = (
            gpu.upload_f32s(weights.as_slice()),
            gpu.upload_f32s(bias.as_slice()),
        );
        let d_out = DeviceTensor::alloc_vector(&mut gpu, 64);
        fc.launch(&mut gpu, &d_in, d_w, d_b, &d_out, &opts)
    });
    check_kernel(b, "kernel:fc_256to64", "kernels.probe.fc", &stats);

    let stats = b.tracer.span("kernels.probe.gru_step", |_| {
        let mut gpu = Gpu::new(GpuConfig::gp102());
        let mut rng = SplitMix64::new(8);
        let mut buf = |gpu: &mut Gpu, n: usize| {
            let values: Vec<f32> = (0..n).map(|_| rng.uniform(-0.2, 0.2)).collect();
            gpu.upload_f32s(&values)
        };
        let weights = GruDeviceWeights {
            w_r: buf(&mut gpu, 64),
            u_r: buf(&mut gpu, 64 * 64),
            b_r: buf(&mut gpu, 64),
            w_z: buf(&mut gpu, 64),
            u_z: buf(&mut gpu, 64 * 64),
            b_z: buf(&mut gpu, 64),
            w_h: buf(&mut gpu, 64),
            u_h: buf(&mut gpu, 64 * 64),
            b_h: buf(&mut gpu, 64),
        };
        let x = DeviceTensor::alloc_vector(&mut gpu, 1);
        let h0 = DeviceTensor::alloc_vector(&mut gpu, 64);
        let h1 = DeviceTensor::alloc_vector(&mut gpu, 64);
        gru.launch(&mut gpu, &x, &h0, &h1, &weights, &opts)
    });
    check_kernel(b, "kernel:gru_step_h64", "kernels.probe.gru_step", &stats);
}

/// The static verifier over every distinct kernel of the eight networks.
fn isa_probe(b: &mut Bench) {
    let (mut programs, mut insts, mut findings) = (0u64, 0u64, 0u64);
    for kind in NetworkKind::EXTENDED {
        let mut gpu = Gpu::new(GpuConfig::gp102());
        let net = match build_network(&mut gpu, kind, Preset::Bench, b.seed) {
            Ok(net) => net,
            Err(e) => {
                b.check.errored("isa:verify", &e);
                return;
            }
        };
        let mut seen = std::collections::HashSet::new();
        for layer in net.layers() {
            let k = layer.kernel();
            if !seen.insert(k.program().name().to_string()) {
                continue;
            }
            // 256-byte parameter alignment is the device allocator's
            // guarantee, as `harness lint` assumes it.
            let launch = LaunchSpec {
                grid: k.grid(),
                block: k.block(),
                params: None,
                param_align: 256,
                mem_bytes: None,
            };
            let report = b
                .tracer
                .span("isa.probe.verify", |_| verify_launch(k.program(), &launch));
            programs += 1;
            insts += k.program().instructions().len() as u64;
            findings += report.diagnostics.len() as u64;
        }
    }
    let mut h = Hasher::new();
    h.u64(programs);
    h.u64(insts);
    h.u64(findings);
    let d = h.finish();
    b.check.check("isa:verify@bench", Some(d), d);
    b.tracer.count("isa.probe.verify.programs", programs as f64);
    b.tracer.count("isa.probe.verify.insts", insts as f64);
    b.tracer.count("isa.probe.verify.findings", findings as f64);
}

fn backend_probes(b: &mut Bench) {
    let (kind, preset, seed) = (NetworkKind::AlexNet, Preset::Bench, b.seed);
    match b.tracer.span("backend.probe.lower", |_| {
        LoweredNet::build(kind, preset, seed)
    }) {
        Ok(net) => {
            let d = digest_bytes(&net.total_macs().to_le_bytes());
            b.check.check("backend:lower.AlexNet@bench", Some(d), d);
        }
        Err(e) => b.check.errored("backend:lower.AlexNet@bench", &e),
    }
    let job = BackendJob {
        kind,
        preset,
        seed,
        batch: 1,
        precision: Precision::Fp32,
    };
    let targets = [
        (
            "backend.probe.systolic_run",
            "backend:systolic.AlexNet@bench",
            BackendSpec::Systolic(SystolicConfig::tpu_v1()),
        ),
        (
            "backend.probe.fpga_run",
            "backend:fpga.AlexNet@bench",
            BackendSpec::Fpga(tango_fpga::PynqConfig::pynq_z1()),
        ),
    ];
    for (span, label, spec) in targets {
        match b
            .tracer
            .span(span, |_| run_backend(&BackendRunSpec { spec, job }))
        {
            Ok(run) => {
                let mut h = Hasher::new();
                h.u64(run.total_cycles());
                h.u64(run.total_macs());
                h.u64(run.total_stall_cycles());
                let d = h.finish();
                b.check.check(label, Some(d), d);
            }
            Err(e) => b.check.errored(label, &e),
        }
    }
}

/// Store keys, the record codec, store hits from memory and from disk,
/// and the suite scheduler on one and two workers. Stores live under
/// `scratch` and are removed afterwards.
fn harness_probes(b: &mut Bench, scratch: &Path) {
    let seed = b.seed;
    let tiny = |config, kind| spec(config, kind, Preset::Tiny, seed, false, SimOptions::new());
    let alex = tiny(GpuConfig::gp102(), NetworkKind::AlexNet);

    const HASHES: u32 = 20_000;
    let start = Instant::now();
    let mut acc = 0u64;
    for _ in 0..HASHES {
        acc ^= RunKey::for_run(black_box(&alex)).digest;
    }
    black_box(acc);
    b.tracer.count(
        "harness.probe.key.ns_per_hash",
        start.elapsed().as_nanos() as f64 / f64::from(HASHES),
    );

    let store_dir = scratch.join("store");
    let store = RunStore::at(&store_dir);
    let label = format!("{}#store", sim_label(&alex));
    let run = match store.fetch_run(&alex) {
        Ok((run, _)) => run,
        Err(e) => return b.check.errored(&label, &e),
    };
    const CODEC_PASSES: u32 = 200;
    let bytes = encode_run(&run);
    let start = Instant::now();
    for _ in 0..CODEC_PASSES {
        black_box(encode_run(black_box(&run)));
    }
    let encode_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let mut decoded_ok = true;
    for _ in 0..CODEC_PASSES {
        decoded_ok &= decode_run(black_box(&bytes)).is_ok_and(|r| r == run);
    }
    let decode_s = start.elapsed().as_secs_f64();
    let mb = bytes.len() as f64 * f64::from(CODEC_PASSES) / 1e6;
    b.tracer
        .count("harness.probe.codec.encode_mb_per_s", mb / encode_s);
    b.tracer
        .count("harness.probe.codec.decode_mb_per_s", mb / decode_s);
    b.tracer
        .count("harness.probe.codec.record_bytes", bytes.len() as f64);
    b.check.check(
        &format!("{}#codec", sim_label(&alex)),
        None,
        u64::from(decoded_ok),
    );

    const MEM_HITS: u32 = 2_000;
    const DISK_HITS: u32 = 50;
    let start = Instant::now();
    let mut hits_ok = true;
    for _ in 0..MEM_HITS {
        hits_ok &= store.fetch_run(&alex).is_ok_and(|(r, hit)| hit && r == run);
    }
    b.tracer.count(
        "harness.probe.store.hit_mem_us",
        start.elapsed().as_secs_f64() * 1e6 / f64::from(MEM_HITS),
    );
    let start = Instant::now();
    for _ in 0..DISK_HITS {
        hits_ok &= RunStore::at(&store_dir)
            .fetch_run(&alex)
            .is_ok_and(|(r, hit)| hit && r == run);
    }
    b.tracer.count(
        "harness.probe.store.hit_disk_us",
        start.elapsed().as_secs_f64() * 1e6 / f64::from(DISK_HITS),
    );
    b.check.check(&label, None, u64::from(hits_ok));

    let mut suite = Suite::new();
    for config in [GpuConfig::gp102(), GpuConfig::gk210()] {
        for kind in [
            NetworkKind::CifarNet,
            NetworkKind::MobileNet,
            NetworkKind::Gru,
            NetworkKind::Lstm,
        ] {
            suite.add_run(tiny(config.clone(), kind));
        }
    }
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    let mut walls = [0.0; 2];
    for (i, (span, dir, n)) in [
        ("harness.probe.suite.w1", "suite-w1", 1),
        ("harness.probe.suite.w2", "suite-w2", workers),
    ]
    .into_iter()
    .enumerate()
    {
        let store = Arc::new(RunStore::at(scratch.join(dir)));
        let start = Instant::now();
        let report = b.tracer.span(span, |_| suite.execute(&store, n));
        walls[i] = start.elapsed().as_secs_f64();
        match report {
            Ok(r) => b.check.check("harness:suite.8-tiny-jobs", None, r.misses),
            Err(e) => b.check.errored("harness:suite.8-tiny-jobs", &e),
        }
    }
    b.tracer
        .count("harness.probe.suite.workers", workers as f64);
    b.tracer.count(
        "harness.probe.suite.parallel_eff",
        walls[0] / (walls[1] * workers as f64),
    );
}

/// What the obs recorder costs a cold run when it is on, and a drain.
fn obs_probe(b: &mut Bench) {
    const PASSES: usize = 3;
    let s = spec(
        GpuConfig::gp102(),
        NetworkKind::Gru,
        Preset::Bench,
        b.seed,
        false,
        SimOptions::new(),
    );
    let label = sim_label(&s);
    let time_passes = |b: &mut Bench| {
        let mut walls = Vec::with_capacity(PASSES);
        for _ in 0..PASSES {
            let start = Instant::now();
            let run = simulate_run(&s);
            walls.push(start.elapsed().as_secs_f64());
            match run {
                Ok(run) => b.check.check_run(&label, &run),
                Err(e) => b.check.errored(&label, &e),
            }
        }
        median(&walls)
    };
    let off_s = time_passes(b);
    tango_obs::enable(tango_obs::DEFAULT_EVENT_CAP);
    let on_s = time_passes(b);
    tango_obs::disable();
    let trace = b.tracer.span("obs.probe.drain", |_| tango_obs::drain());
    b.tracer
        .count("obs.probe.recorder.overhead_frac", on_s / off_s - 1.0);
    b.tracer
        .count("obs.probe.recorder.events", trace.events.len() as f64);
    b.tracer
        .count("obs.probe.recorder.dropped", trace.dropped as f64);
}

/// Runs every probe; `scratch` is a directory of the benchmark's own.
pub fn tour(b: &mut Bench, scratch: &Path) {
    sim_probes(b);
    memo_probes(b);
    nets_probe(b);
    kernel_probes(b);
    isa_probe(b);
    backend_probes(b);
    harness_probes(b, scratch);
    obs_probe(b);
}
