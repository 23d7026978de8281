//! Table producers: the paper's Tables I-IV as printable text.

use crate::BuildStats;
use std::fmt::Write as _;
use tango_fpga::PynqConfig;
use tango_nets::{model_info, NetworkKind};
use tango_sim::GpuConfig;

/// Table I: input data, pre-trained models (and this reproduction's
/// substitutions), and outputs per network.
pub fn table1_models() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# Table I: Input/Output and Pre-trained Models used by networks");
    for kind in NetworkKind::ALL {
        let info = model_info(kind);
        let _ = writeln!(out, "{}", info.kind.name());
        let _ = writeln!(out, "  input      : {}", info.input);
        let _ = writeln!(out, "  paper model: {}", info.paper_model);
        let _ = writeln!(out, "  substitute : {}", info.substitute);
        let _ = writeln!(out, "  output     : {}", info.output);
    }
    out
}

fn describe_gpu(cfg: &GpuConfig) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{}", cfg.name);
    let _ = writeln!(out, "  SMs x warp size       : {} x {}", cfg.num_sms, cfg.warp_size);
    let _ = writeln!(out, "  registers per SM      : {}", cfg.registers_per_sm);
    let _ = writeln!(out, "  shared memory per SM  : {} KB", cfg.shared_mem_per_sm / 1024);
    let _ = match cfg.l1d {
        Some(g) => writeln!(
            out,
            "  L1D                   : {} KB, {}-way, {} B lines",
            g.size_bytes / 1024,
            g.assoc,
            g.line_bytes
        ),
        None => writeln!(out, "  L1D                   : disabled"),
    };
    let _ = writeln!(out, "  L2                    : {} KB", cfg.l2.size_bytes / 1024);
    let _ = writeln!(out, "  clock                 : {:.3} GHz", cfg.clock_ghz);
    let _ = writeln!(out, "  warp scheduler        : {} (default; lrr, tlv selectable)", cfg.scheduler);
    out
}

/// Table II: the GPU architectures used for evaluation.
pub fn table2_gpus() -> String {
    let mut out = String::from("# Table II: GPU architectures used for evaluation\n");
    for cfg in [GpuConfig::gk210(), GpuConfig::tx1(), GpuConfig::gp102()] {
        out.push_str(&describe_gpu(&cfg));
    }
    out
}

/// Table III: per-layer kernel configuration (gridDim, blockDim, regs,
/// smem, cmem) for one network, from its full-size (`Paper`) build.
pub fn table3_network(kind: NetworkKind, build: &BuildStats) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# Table III ({}): Network Configuration and SRAM Usage", kind.name());
    let _ = writeln!(
        out,
        "{:<24} {:>16} {:>14} {:>5} {:>6} {:>6}",
        "Layer", "gridDim", "blockDim", "regs", "smem", "cmem"
    );
    for layer in &build.layers {
        let _ = writeln!(
            out,
            "{:<24} {:>16} {:>14} {:>5} {:>6} {:>6}",
            layer.name,
            layer.grid.to_string(),
            layer.block.to_string(),
            layer.regs,
            layer.smem_bytes,
            layer.cmem_bytes
        );
    }
    out
}

/// Table III for every build, concatenated.
pub fn table3_all(builds: &[(NetworkKind, BuildStats)]) -> String {
    let mut out = String::new();
    for (kind, build) in builds {
        out.push_str(&table3_network(*kind, build));
        out.push('\n');
    }
    out
}

/// Table IV: the FPGA platform used for evaluation.
pub fn table4_fpga() -> String {
    let cfg = PynqConfig::pynq_z1();
    let mut out = String::from("# Table IV: FPGA platform used for evaluation\n");
    let _ = writeln!(out, "Xilinx PynQ-Z1 (Zynq Z7020)");
    let _ = writeln!(out, "  processor          : Dual-core ARM Cortex-A9 @ 650 MHz");
    let _ = writeln!(
        out,
        "  memory             : 512 MB DDR3 ({:.2} GB/s effective)",
        cfg.ddr_bytes_per_s / 1e9
    );
    let _ = writeln!(out, "  BRAM               : {} KB", cfg.bram_bytes / 1024);
    let _ = writeln!(out, "  fabric clock       : {} MHz", cfg.fabric_mhz);
    let _ = writeln!(out, "  fp32 MAC units     : {}", cfg.mac_units);
    let _ = writeln!(
        out,
        "  board power        : {:.1} W active / {:.1} W idle",
        cfg.active_power_w, cfg.idle_power_w
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_covers_all_networks() {
        let t = table1_models();
        for kind in NetworkKind::ALL {
            assert!(t.contains(kind.name()), "{} missing", kind.name());
        }
        assert!(t.contains("bitcoin-price-prediction"));
    }

    #[test]
    fn table2_lists_three_gpus() {
        let t = table2_gpus();
        assert!(t.contains("GK210"));
        assert!(t.contains("Tegra X1"));
        assert!(t.contains("GP102"));
    }

    #[test]
    fn table3_cifarnet_matches_paper_geometry() {
        let spec = crate::BuildSpec {
            preset: tango_nets::Preset::Paper,
            seed: 3,
            kind: NetworkKind::CifarNet,
        };
        let t = table3_network(spec.kind, &crate::measure_build(&spec).unwrap());
        // The paper's CifarNet conv kernels: (1,1,1) grids of (32,32,1).
        assert!(t.contains("conv1"), "{t}");
        assert!(t.contains("(1, 1, 1)"));
        assert!(t.contains("(32, 32, 1)"));
    }

    #[test]
    fn table4_mentions_the_board() {
        let t = table4_fpga();
        assert!(t.contains("PynQ-Z1"));
        assert!(t.contains("630 KB"));
    }
}
