//! The experiment table: every table and figure the reproduction writes,
//! one const entry each — its id, the runs and builds it reads
//! ([`Experiment::needs`]), and how it renders them.
//!
//! The table is the one description of what the reproduction simulates.
//! `tango_harness::repro_plan` is the deduplicated union of every
//! entry's needs, and `repro_all --only` prefetches the union of the
//! selected entries'. A renderer sees only the [`Inputs`] fetched for its
//! own needs; it holds no [`Characterizer`], so it cannot ask for a run
//! its entry did not list.

use crate::characterize::{BuildSpec, BuildStats, Characterizer, NetworkRun, RunSpec};
use crate::figures::{self, L1D_SIZES};
use crate::{tables, Result};
use tango_nets::{NetworkKind, Preset};
use tango_sim::{GpuConfig, SchedulerPolicy, SimOptions};

/// The runs and builds an experiment reads, each list in the order its
/// renderer expects them.
#[derive(Debug, Default)]
pub struct Needs {
    /// Simulated inference runs.
    pub runs: Vec<RunSpec>,
    /// Build-only measurements.
    pub builds: Vec<BuildSpec>,
}

/// An experiment's fetched [`Needs`], in the same order.
#[derive(Debug)]
pub struct Inputs {
    /// The preset the needs were expanded at.
    pub preset: Preset,
    /// The seed the needs were expanded at.
    pub seed: u64,
    /// One run per [`Needs::runs`] entry.
    pub runs: Vec<NetworkRun>,
    /// One build per [`Needs::builds`] entry, with the network it built.
    pub builds: Vec<(NetworkKind, BuildStats)>,
}

/// One table or figure of the reproduction.
#[derive(Debug)]
pub struct Experiment {
    /// The artifact id: the experiment is written to `results/<id>.txt`.
    pub id: &'static str,
    /// Every run and build the experiment reads at (preset, seed), in the
    /// order `render` expects them.
    pub needs: fn(Preset, u64) -> Needs,
    /// The experiment's text, from its fetched needs.
    pub render: fn(&Inputs) -> String,
}

impl Experiment {
    /// Fetches this experiment's needs at `ch`'s preset and seed, through
    /// `ch`'s run source when one is attached.
    ///
    /// # Errors
    ///
    /// Propagates the first failed run or build.
    pub fn inputs(&self, ch: &Characterizer) -> Result<Inputs> {
        let (preset, seed) = (ch.preset(), ch.seed());
        let needs = (self.needs)(preset, seed);
        let runs = needs.runs.iter().map(|spec| ch.fetch_run(spec));
        let builds = needs.builds.iter().map(|spec| Ok((spec.kind, ch.fetch_build(spec)?)));
        Ok(Inputs {
            preset,
            seed,
            runs: runs.collect::<Result<_>>()?,
            builds: builds.collect::<Result<_>>()?,
        })
    }
}

/// The experiment named `id`.
pub fn find(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.id == id)
}

/// Every experiment, in the order a full reproduction writes them.
#[rustfmt::skip]
pub static EXPERIMENTS: [Experiment; 21] = [
    Experiment { id: "table1", needs: nothing, render: |_| tables::table1_models() },
    Experiment { id: "table2", needs: nothing, render: |_| tables::table2_gpus() },
    Experiment { id: "table3", needs: paper_builds, render: |i| tables::table3_all(&i.builds) },
    Experiment { id: "table4", needs: nothing, render: |_| tables::table4_fpga() },
    Experiment { id: "fig01", needs: default_suite, render: |i| figures::fig1_time_breakdown(&i.runs).to_string() },
    Experiment { id: "fig03", needs: default_suite, render: |i| figures::fig3_peak_power(&i.runs).to_string() },
    Experiment {
        id: "fig04",
        needs: default_suite,
        render: |i| figures::fig4_power_per_layer_type(&i.runs).to_string(),
    },
    Experiment { id: "fig05", needs: default_suite, render: |i| figures::fig5_power_components(&i.runs).to_string() },
    Experiment { id: "fig08", needs: default_suite, render: |i| figures::fig8_op_breakdown(&i.runs).to_string() },
    Experiment { id: "fig09", needs: default_suite, render: |i| figures::fig9_top_ops(&i.runs).to_string() },
    Experiment { id: "fig10", needs: default_suite, render: |i| figures::fig10_dtype_over_layers(&i.runs).to_string() },
    Experiment {
        id: "fig02",
        needs: |preset, seed| {
            let sizes = L1D_SIZES.map(|(_, bytes)| SimOptions::new().with_l1d_bytes(bytes));
            sweep(&GpuConfig::gp102(), preset, seed, &NetworkKind::ALL, &sizes)
        },
        render: |i| figures::fig2_l1d_sensitivity(&i.runs).to_string(),
    },
    Experiment {
        id: "fig06",
        // The embedded comparison is meaningful at published model sizes
        // (layer-count-driven FPGA overheads do not shrink with channel
        // scaling); CTA sampling keeps the TX1 side tractable.
        needs: |_, seed| {
            let kinds = [NetworkKind::CifarNet, NetworkKind::SqueezeNet];
            let sampled = SimOptions::new().with_cta_sample_limit(Some(48));
            sweep(&GpuConfig::tx1(), Preset::Paper, seed, &kinds, &[sampled])
        },
        render: |i| {
            let r = figures::fig6_tx1_vs_pynq(&i.runs, i.seed).expect("the TX1 runs built these networks");
            format!("{}\n{}\n{}", r.normalized_energy, r.time_s, r.peak_power_w)
        },
    },
    Experiment {
        id: "fig07",
        needs: |preset, seed| sweep(&GpuConfig::gk210(), preset, seed, &NetworkKind::ALL, &[SimOptions::new()]),
        render: |i| figures::fig7_stall_breakdown(&i.runs).to_string(),
    },
    Experiment {
        id: "fig11",
        needs: paper_builds,
        render: |i| figures::fig11_memory_footprint(&i.builds).to_string(),
    },
    Experiment { id: "fig12", needs: paper_builds, render: |i| figures::fig12_register_usage(&i.builds).to_string() },
    Experiment { id: "fig13", needs: cnns_no_l1, render: |i| figures::fig13_l2_misses(&i.runs).to_string() },
    Experiment { id: "fig14", needs: cnns_no_l1, render: |i| figures::fig14_l2_miss_ratio(&i.runs).to_string() },
    Experiment {
        id: "fig15",
        needs: |preset, seed| scheduler_sweep(preset, seed, &NetworkKind::ALL),
        render: |i| figures::fig15_scheduler_sensitivity(&i.runs).to_string(),
    },
    Experiment {
        id: "fig16",
        needs: |preset, seed| scheduler_sweep(preset, seed, &[NetworkKind::AlexNet]),
        render: |i| figures::fig16_alexnet_per_layer_scheduler(&i.runs).to_string(),
    },
    Experiment {
        id: "summary",
        needs: default_suite,
        render: |i| figures::suite_summary(&i.runs, i.preset).to_string(),
    },
];

/// Every network of `kinds` on `config` under each of `options`,
/// network-major.
fn sweep(config: &GpuConfig, preset: Preset, seed: u64, kinds: &[NetworkKind], options: &[SimOptions]) -> Needs {
    let run = |kind, options: &SimOptions| RunSpec {
        config: config.clone(),
        preset,
        seed,
        kind,
        options: options.clone(),
    };
    let runs = kinds.iter().flat_map(|&kind| options.iter().map(move |o| run(kind, o)));
    Needs {
        runs: runs.collect(),
        builds: Vec::new(),
    }
}

fn nothing(_: Preset, _: u64) -> Needs {
    Needs::default()
}

/// All seven networks on GP102 with default options: the shared input of
/// Figures 1, 3, 4, 5, 8, 9, 10 and the summary.
fn default_suite(preset: Preset, seed: u64) -> Needs {
    let options = [SimOptions::new()];
    sweep(&GpuConfig::gp102(), preset, seed, &NetworkKind::ALL, &options)
}

/// The four CNNs on GP102 with the L1D bypassed (Figures 13/14).
fn cnns_no_l1(preset: Preset, seed: u64) -> Needs {
    let bypassed = [SimOptions::new().with_l1d_bytes(0)];
    sweep(&GpuConfig::gp102(), preset, seed, &NetworkKind::FIGURE_CNNS, &bypassed)
}

/// `kinds` on GP102 under each warp scheduler, GTO first.
fn scheduler_sweep(preset: Preset, seed: u64, kinds: &[NetworkKind]) -> Needs {
    let policies = SchedulerPolicy::ALL.map(|p| SimOptions::new().with_scheduler(p));
    sweep(&GpuConfig::gp102(), preset, seed, kinds, &policies)
}

/// Every network built at published size (Figures 11/12, Table III).
fn paper_builds(_: Preset, seed: u64) -> Needs {
    let build = |kind| BuildSpec {
        preset: Preset::Paper,
        seed,
        kind,
    };
    Needs {
        runs: Vec::new(),
        builds: NetworkKind::ALL.map(build).into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique() {
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert!(EXPERIMENTS[..i].iter().all(|o| o.id != e.id), "{} listed twice", e.id);
            assert!(std::ptr::eq(find(e.id).unwrap(), e));
        }
        assert!(find("nope").is_none());
    }
}
