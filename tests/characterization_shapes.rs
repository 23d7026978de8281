//! Shape assertions over the reproduced experiments: the qualitative
//! claims of the paper's Observations 1-12 that must survive the
//! simulation substitution (see DESIGN.md section 5 for the list).
//!
//! These run at `Bench` preset where the claim needs realistic scale and
//! `Tiny` where the claim is scale-free, keeping the test suite's
//! simulation budget to roughly a minute.

use tango::experiments::{find, Inputs};
use tango::figures;
use tango::Characterizer;
use tango_nets::{NetworkKind, Preset};
use tango_sim::{GpuConfig, StallReason};

fn bench_ch() -> Characterizer {
    Characterizer::new(GpuConfig::gp102(), Preset::Bench, 0x7A16_0201_9151)
}

/// The fetched needs of experiment `id` at the bench preset.
fn bench_inputs(id: &str) -> Inputs {
    find(id).unwrap().inputs(&bench_ch()).unwrap()
}

#[test]
fn observation1_conv_dominates_cifarnet_and_resnet() {
    let ch = bench_ch();
    for kind in [NetworkKind::CifarNet, NetworkKind::ResNet50] {
        let run = ch.run_network(kind, &ch.default_options()).unwrap();
        let (ty, share) = figures::dominant_layer_type(&run);
        assert_eq!(ty, tango_nets::LayerType::Conv, "{kind}");
        assert!(share > 0.5, "{kind}: conv share only {share:.2}");
    }
}

#[test]
fn observation2_l1d_helps_cnns_much_more_than_rnns() {
    let ch = bench_ch();
    let speedup = |kind: NetworkKind| {
        let no_l1 = ch
            .run_network(kind, &ch.default_options().with_l1d_bytes(0))
            .unwrap()
            .report
            .total_cycles();
        let with_l1 = ch
            .run_network(kind, &ch.default_options().with_l1d_bytes(64 << 10))
            .unwrap()
            .report
            .total_cycles();
        no_l1 as f64 / with_l1.max(1) as f64
    };
    let cnn = speedup(NetworkKind::AlexNet);
    let rnn = speedup(NetworkKind::Gru);
    assert!(cnn > 2.0, "AlexNet speedup with L1D should be ~2x+, got {cnn:.2}");
    assert!(rnn < 1.6, "GRU should be nearly L1D-insensitive, got {rnn:.2}");
    assert!(cnn > rnn + 0.5, "CNN must benefit far more than RNN ({cnn:.2} vs {rnn:.2})");
}

#[test]
fn observation3_peak_power_tracks_layer_size() {
    let ch = bench_ch();
    let peak = |kind: NetworkKind| {
        ch.run_network(kind, &ch.default_options())
            .unwrap()
            .report
            .peak_power_w()
    };
    let cifar = peak(NetworkKind::CifarNet);
    let alex = peak(NetworkKind::AlexNet);
    let gru = peak(NetworkKind::Gru);
    // AlexNet's 100x-larger layers keep the whole machine busy; CifarNet
    // runs one block at a time (paper: ~5x difference).
    assert!(
        alex > 2.5 * cifar,
        "AlexNet peak {alex:.0} W should dwarf CifarNet {cifar:.0} W"
    );
    assert!(gru <= cifar * 1.25, "RNN peak {gru:.0} W should be lowest");
}

#[test]
fn observation4_rf_l2_and_idle_are_key_power_consumers() {
    use tango_sim::Component;
    let ch = bench_ch();
    let run = ch.run_network(NetworkKind::AlexNet, &ch.default_options()).unwrap();
    let mut energy = tango_sim::EnergyBreakdown::new();
    for rec in &run.report.records {
        energy.merge(&rec.stats.energy);
    }
    // The paper's key consumers: register file, L2, idle-core power.
    assert!(energy.fraction(Component::Rfp) > 0.05, "RF share {}", energy.fraction(Component::Rfp));
    let l2ish = energy.fraction(Component::L2cp)
        + energy.fraction(Component::Mcp)
        + energy.fraction(Component::Nocp)
        + energy.fraction(Component::Dramp);
    // Bench-scale AlexNet is more L1-resident than the paper's full-size
    // run, so the L2/DRAM share is smaller; require it to be a visible
    // consumer rather than a major one.
    assert!(l2ish > 0.02, "memory-path share {l2ish}");
    let idle = energy.fraction(Component::IdleCorep) + energy.fraction(Component::ConstDynamicp);
    assert!(idle > 0.05, "idle/baseline share {idle}");
}

#[test]
fn observation5_stall_patterns_differentiate_layer_types() {
    // Pooling layers stall on data dependencies more than FC layers do;
    // FC layers stall on memory more than pooling layers do.
    let ch = bench_ch();
    let run = ch.run_network(NetworkKind::AlexNet, &ch.default_options()).unwrap();
    let mut pool = tango_sim::StallBreakdown::new();
    let mut fc = tango_sim::StallBreakdown::new();
    for rec in &run.report.records {
        match rec.layer_type {
            tango_nets::LayerType::Pool => pool.merge(&rec.stats.stalls),
            tango_nets::LayerType::Fc => fc.merge(&rec.stats.stalls),
            _ => {}
        }
    }
    assert!(
        pool.fraction(StallReason::ExecDependency) > fc.fraction(StallReason::ExecDependency),
        "pooling should be the data-dependency-bound type"
    );
    let mem = |s: &tango_sim::StallBreakdown| {
        s.fraction(StallReason::MemoryDependency) + s.fraction(StallReason::MemoryThrottle)
    };
    assert!(mem(&fc) > mem(&pool), "FC should be the memory-bound type");
}

#[test]
fn observations6_7_op_mix_is_integer_heavy_and_concentrated() {
    let runs = bench_inputs("fig09").runs;
    let m = figures::fig9_top_ops(&runs);
    // Observation 7: the top-10 ops cover ~95% of all execution.
    let others = m.rows.last().unwrap().1[0];
    assert!(others < 0.08, "top-10 ops cover too little: others = {others:.3}");
    // add is the single hottest op, as in the paper's Figure 9.
    assert_eq!(m.rows[0].0, "add", "hottest op should be add, got {}", m.rows[0].0);

    // Observation 8: integer dtypes dominate even in fp32 networks.
    let dt = figures::fig10_dtype_over_layers(&runs);
    for (layer, values) in &dt.rows {
        let f32_share = values[0]; // DType::ALL starts with f32
        assert!(f32_share < 0.5, "{layer}: f32 share {f32_share:.2} should be a minority");
    }
}

#[test]
fn observation11_conv_has_high_locality_fc_low() {
    let m = figures::fig14_l2_miss_ratio(&bench_inputs("fig14").runs);
    let conv = m.get("AlexNet", "Conv").unwrap();
    let fc = m.get("AlexNet", "FC").unwrap();
    assert!(
        fc > 3.0 * conv,
        "FC miss ratio ({fc:.3}) should be several times conv's ({conv:.3})"
    );
}

#[test]
fn observation12_lrr_wins_on_alexnet_rnns_insensitive() {
    let ch = bench_ch();
    let ratio = |kind: NetworkKind, policy: tango_sim::SchedulerPolicy| {
        let gto = ch
            .run_network(kind, &ch.default_options().with_scheduler(tango_sim::SchedulerPolicy::Gto))
            .unwrap()
            .report
            .total_cycles();
        let other = ch
            .run_network(kind, &ch.default_options().with_scheduler(policy))
            .unwrap()
            .report
            .total_cycles();
        other as f64 / gto.max(1) as f64
    };
    let alex_lrr = ratio(NetworkKind::AlexNet, tango_sim::SchedulerPolicy::Lrr);
    assert!(alex_lrr < 1.0, "LRR should beat GTO on AlexNet, got {alex_lrr:.3}");
    let gru_lrr = ratio(NetworkKind::Gru, tango_sim::SchedulerPolicy::Lrr);
    assert!(
        (gru_lrr - 1.0).abs() < 0.05,
        "RNNs should be scheduler-insensitive, got {gru_lrr:.3}"
    );
}

#[test]
fn fig6_shape_tx1_beats_pynq_on_time_loses_on_energy() {
    let inputs = bench_inputs("fig06");
    let report = figures::fig6_tx1_vs_pynq(&inputs.runs, inputs.seed).unwrap();
    for net in ["CifarNet", "SqueezeNet"] {
        let tx1_t = report.time_s.get(net, "TX1").unwrap();
        let pynq_t = report.time_s.get(net, "PynQ").unwrap();
        assert!(tx1_t < pynq_t, "{net}: TX1 should be faster ({tx1_t:.4} vs {pynq_t:.4})");
        let tx1_p = report.peak_power_w.get(net, "TX1").unwrap();
        let pynq_p = report.peak_power_w.get(net, "PynQ").unwrap();
        assert!(tx1_p > 1.5 * pynq_p, "{net}: TX1 should burn much more power");
        let tx1_e = report.normalized_energy.get(net, "TX1").unwrap();
        assert!(tx1_e > 1.0, "{net}: TX1 energy should exceed PynQ's, got {tx1_e:.2}");
    }
}

#[test]
fn fig12_shape_big_nets_use_large_register_files_rnns_tiny() {
    let m = figures::fig12_register_usage(&bench_inputs("fig12").builds);
    let alex = m.get("AlexNet", "Max Allocated Registers").unwrap();
    let gru = m.get("GRU", "Max Allocated Registers").unwrap();
    // Pascal: 256 KB register file per SM; AlexNet/ResNet exceed half.
    assert!(alex > 128.0, "AlexNet should use >128 KB of RF, got {alex:.0}");
    assert!(gru < 32.0, "GRU should use a tiny RF slice, got {gru:.0}");
}
