//! End-to-end smoke over the whole characterization surface: every table
//! and every figure producer runs at tiny scale and emits well-formed,
//! non-degenerate data.

use tango::experiments::{find, Inputs};
use tango::figures;
use tango::tables;
use tango::{BuildSpec, Characterizer};
use tango_nets::{NetworkKind, Preset};
use tango_sim::GpuConfig;

fn tiny_ch() -> Characterizer {
    Characterizer::new(GpuConfig::gp102(), Preset::Tiny, 0x7A16_0201_9151)
}

/// The fetched needs of experiment `id`.
fn inputs(ch: &Characterizer, id: &str) -> Inputs {
    find(id).unwrap().inputs(ch).unwrap()
}

#[test]
fn every_table_renders() {
    assert!(tables::table1_models().contains("CifarNet"));
    assert!(tables::table2_gpus().contains("GP102"));
    // Full Table III builds every paper-size model (VGG-16 alone holds
    // 138M synthetic weights) — covered by the repro binary; here check
    // the cheapest two networks render with the right columns.
    for kind in [NetworkKind::CifarNet, NetworkKind::Gru] {
        let spec = BuildSpec {
            preset: Preset::Paper,
            seed: tiny_ch().seed(),
            kind,
        };
        let t = tables::table3_network(kind, &tiny_ch().fetch_build(&spec).unwrap());
        assert!(t.contains("gridDim"), "{t}");
        assert!(t.contains("regs"));
    }
    assert!(tables::table4_fpga().contains("PynQ"));
}

#[test]
fn every_simulated_figure_produces_rows() {
    let runs = inputs(&tiny_ch(), "fig01").runs;
    assert_eq!(runs.len(), 7);

    let fig1 = figures::fig1_time_breakdown(&runs);
    assert_eq!(fig1.rows.len(), 4);

    let fig3 = figures::fig3_peak_power(&runs);
    assert_eq!(fig3.rows.len(), 7);
    assert!(fig3.rows.iter().all(|(_, v)| v[0] > 0.0));

    let fig4 = figures::fig4_power_per_layer_type(&runs);
    assert_eq!(fig4.rows.len(), 4);
    for (name, v) in &fig4.rows {
        let sum: f64 = v.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "{name} power shares sum to {sum}");
    }

    let fig5 = figures::fig5_power_components(&runs);
    assert_eq!(fig5.rows.len(), 7);
    for (name, v) in &fig5.rows {
        let sum: f64 = v.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "{name} component shares sum to {sum}");
        // The register file must be a real consumer (paper: RF is a key
        // power consumer). At tiny scale the idle machine dominates
        // single-block nets, so only require a nonzero RF share here;
        // the bench-scale shape test covers the magnitude.
        let rf = fig5.get(name, "RFP").unwrap();
        assert!(rf > 0.0, "{name}: RF share {rf}");
    }

    let fig8 = figures::fig8_op_breakdown(&runs);
    for (name, v) in &fig8.rows {
        let sum: f64 = v.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "{name} op shares sum to {sum}");
    }

    let fig10 = figures::fig10_dtype_over_layers(&runs);
    assert!(fig10.rows.len() > 10, "ResNet should contribute many layers");
}

#[test]
fn sweep_figures_produce_normalized_baselines() {
    let ch = tiny_ch();
    let fig2 = figures::fig2_l1d_sensitivity(&inputs(&ch, "fig02").runs);
    assert_eq!(fig2.rows.len(), 7);
    for (name, v) in &fig2.rows {
        assert!((v[0] - 1.0).abs() < 1e-9, "{name}: No-L1 baseline must be 1.0");
        assert!(v.iter().all(|&x| x > 0.0));
    }

    let fig15 = figures::fig15_scheduler_sensitivity(&inputs(&ch, "fig15").runs);
    for (name, v) in &fig15.rows {
        assert!((v[0] - 1.0).abs() < 1e-9, "{name}: GTO baseline must be 1.0");
    }

    let fig16 = figures::fig16_alexnet_per_layer_scheduler(&inputs(&ch, "fig16").runs);
    assert!(fig16.rows.len() > 10, "AlexNet has many layers");
    for (_, v) in &fig16.rows {
        assert!((v[0] - 1.0).abs() < 1e-9);
    }
}

#[test]
fn stall_figure_covers_all_networks_and_sums_to_one() {
    let fig7 = figures::fig7_stall_breakdown(&inputs(&tiny_ch(), "fig07").runs);
    for kind in NetworkKind::ALL {
        assert!(
            fig7.rows.iter().any(|(name, _)| name.starts_with(kind.name())),
            "{} missing from fig7",
            kind.name()
        );
    }
    assert!(fig7.rows.iter().any(|(name, _)| name.starts_with("Summary")));
    for (name, v) in &fig7.rows {
        let sum: f64 = v.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "{name}: stall shares sum to {sum}");
    }
}

#[test]
fn l2_figures_share_runs_and_are_consistent() {
    let runs = inputs(&tiny_ch(), "fig13").runs;
    let misses = figures::fig13_l2_misses(&runs);
    let ratios = figures::fig14_l2_miss_ratio(&runs);
    assert_eq!(misses.rows.len(), 4);
    assert_eq!(ratios.rows.len(), 4);
    for (_, v) in &ratios.rows {
        assert!(v.iter().all(|&r| (0.0..=1.0).contains(&r)));
    }
    // Conv must be among the heaviest L2 users (Observation 11's first half).
    let conv = misses.get("AlexNet", "Conv").unwrap();
    let pool = misses.get("AlexNet", "Pool").unwrap();
    assert!(conv > pool, "conv misses {conv} should exceed pool {pool}");
}

#[test]
fn every_layer_kernel_round_trips_through_the_assembler() {
    // Disassemble and re-parse every kernel of every network (including
    // the MobileNet extension): the assembler must reproduce the exact
    // program, or the dump-edit-rerun workflow is broken.
    let mut gpu = tango_sim::Gpu::new(GpuConfig::gp102());
    for kind in NetworkKind::EXTENDED {
        let net = tango_nets::build_network(&mut gpu, kind, Preset::Tiny, 1).unwrap();
        for layer in net.layers() {
            let program = layer.kernel().program();
            let text = program.disassemble();
            let reparsed = tango_isa::parse_program(&text)
                .unwrap_or_else(|e| panic!("{kind}/{}: {e}\n{text}", layer.name()));
            assert_eq!(program, &reparsed, "{kind}/{} changed in round trip", layer.name());
        }
    }
}

#[test]
fn matrices_render_and_lookup() {
    let runs = inputs(&tiny_ch(), "fig01").runs;
    let m = figures::fig1_time_breakdown(&runs);
    let text = m.to_string();
    assert!(text.contains("Fig 1"));
    assert!(text.contains("CifarNet"));
    assert!(m.get("CifarNet", "Conv").is_some());
    assert!(m.row("AlexNet").is_some());
}
