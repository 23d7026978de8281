//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! * the GTO/TLV queue-management (requeue) penalty — the mechanism
//!   producing the paper's Figure 15 LRR advantage;
//! * the MSHR budget — the mechanism behind FC memory throttling (Fig 7);
//! * CTA sampling — simulated-cycle stability across sampling factors.

use std::process::ExitCode;
use tango::report::{Matrix, Unit};
use tango_bench::{emit, CliError, Env, SEED};
use tango_nets::{build_network, synthetic_input, NetworkKind, Preset};
use tango_sim::{Gpu, GpuConfig, SchedulerPolicy, SimOptions, StallReason};

fn total_cycles(config: GpuConfig, opts: &SimOptions) -> u64 {
    let mut gpu = Gpu::new(config);
    let net = build_network(&mut gpu, NetworkKind::AlexNet, Preset::Tiny, SEED).expect("build");
    let input = synthetic_input(net.input_spec(), SEED);
    let report = net.infer(&mut gpu, &input, opts).expect("infer");
    report.total_cycles()
}

fn requeue_ablation() -> Matrix {
    let mut m = Matrix::new(
        "Ablation: GTO/TLV requeue penalty vs scheduler ranking (AlexNet tiny)",
        "Penalty",
        SchedulerPolicy::ALL.iter().map(|p| p.name().to_uppercase()).collect(),
        Unit::Ratio,
    );
    for penalty in [0u32, 2, 6, 10] {
        let mut cfg = GpuConfig::gp102();
        cfg.requeue_penalty = penalty;
        let mut row = Vec::new();
        let mut base = 0u64;
        for policy in SchedulerPolicy::ALL {
            let cycles = total_cycles(cfg.clone(), &SimOptions::new().with_scheduler(policy));
            if policy == SchedulerPolicy::Gto {
                base = cycles;
            }
            row.push(cycles as f64 / base.max(1) as f64);
        }
        m.push_row(format!("penalty={penalty}"), row);
    }
    m
}

fn mshr_ablation() -> Matrix {
    let mut m = Matrix::new(
        "Ablation: MSHR budget vs memory throttling (AlexNet tiny)",
        "MSHRs",
        vec!["cycles".into(), "memory_throttle fraction".into()],
        Unit::Ratio,
    );
    let mut base = 0u64;
    for mshrs in [4u32, 8, 16, 24, 48] {
        let mut cfg = GpuConfig::gp102();
        cfg.mshrs_per_sm = mshrs;
        let mut gpu = Gpu::new(cfg);
        let net = build_network(&mut gpu, NetworkKind::AlexNet, Preset::Tiny, SEED).expect("build");
        let input = synthetic_input(net.input_spec(), SEED);
        let report = net.infer(&mut gpu, &input, &SimOptions::new()).expect("infer");
        let cycles = report.total_cycles();
        if base == 0 {
            base = cycles;
        }
        let mut stalls = tango_sim::StallBreakdown::new();
        for r in &report.records {
            stalls.merge(&r.stats.stalls);
        }
        m.push_row(
            format!("mshrs={mshrs}"),
            vec![cycles as f64 / base as f64, stalls.fraction(StallReason::MemoryThrottle)],
        );
    }
    m
}

fn sampling_ablation() -> Matrix {
    let mut m = Matrix::new(
        "Ablation: CTA sampling factor vs extrapolated cycles (AlexNet tiny)",
        "Sample limit",
        vec!["normalized cycles".into()],
        Unit::Ratio,
    );
    let mut base = 0u64;
    for (label, limit) in [("full", None), ("96", Some(96u64)), ("48", Some(48)), ("24", Some(24))] {
        let cycles = total_cycles(
            GpuConfig::gp102(),
            &SimOptions::new().with_cta_sample_limit(limit),
        );
        if base == 0 {
            base = cycles;
        }
        m.push_row(label, vec![cycles as f64 / base as f64]);
    }
    m
}

fn quantization_ablation() -> Matrix {
    use tango_kernels::{Conv2d, DeviceTensor, QuantizedConv2d};
    use tango_tensor::{Shape, SplitMix64, Tensor};
    let mut m = Matrix::new(
        "Ablation: W16 weight quantization vs fp32 (conv 16ch 16x16, k3)",
        "Kernel",
        vec!["normalized cycles".into(), "DRAM lines".into()],
        Unit::Ratio,
    );
    let mut rng = SplitMix64::new(SEED);
    let input = Tensor::uniform(Shape::nchw(1, 16, 16, 16), -1.0, 1.0, &mut rng);
    let filter = Tensor::uniform(Shape::new(&[16, 16, 3, 3]), -0.5, 0.5, &mut rng);
    let bias = Tensor::uniform(Shape::vector(16), -0.1, 0.1, &mut rng);
    let opts = SimOptions::new().with_cta_sample_limit(None).with_l1d_bytes(0);

    let mut gpu = Gpu::new(GpuConfig::gp102());
    let conv = Conv2d::new(16, 16, 16, 16, 3, 3, 1, 1, false).expect("conv");
    let d_in = DeviceTensor::upload(&mut gpu, &input, 1).expect("upload");
    let w = gpu.upload_f32s(filter.as_slice());
    let b = gpu.upload_f32s(bias.as_slice());
    let d_out = DeviceTensor::alloc(&mut gpu, 16, 16, 16, 0);
    let fp32 = conv.launch(&mut gpu, &d_in, w, b, &d_out, &opts);

    let mut gpu2 = Gpu::new(GpuConfig::gp102());
    let qconv = QuantizedConv2d::new(16, 16, 16, 16, 3, 1, 1, false).expect("qconv");
    let d_in2 = DeviceTensor::upload(&mut gpu2, &input, 1).expect("upload");
    let (wq, bq, scale) = qconv.prepare(&mut gpu2, &filter, &bias);
    let d_out2 = DeviceTensor::alloc(&mut gpu2, 16, 16, 16, 0);
    let w16 = qconv.launch(&mut gpu2, &d_in2, wq, bq, scale, &d_out2, &opts);

    m.push_row("fp32", vec![1.0, fp32.dram_accesses as f64]);
    m.push_row(
        "w16",
        vec![w16.cycles as f64 / fp32.cycles.max(1) as f64, w16.dram_accesses as f64],
    );
    m
}

fn run() -> Result<ExitCode, CliError> {
    Env::from_process()?;
    let text = format!(
        "{}\n{}\n{}\n{}",
        requeue_ablation(),
        mshr_ablation(),
        sampling_ablation(),
        quantization_ablation()
    );
    emit("ablations.txt", &text)?;
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    tango_bench::main(run)
}
