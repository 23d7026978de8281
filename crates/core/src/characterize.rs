//! The characterization driver: builds networks, runs simulated
//! inference, and routes every run through a pluggable [`RunSource`] so
//! results can be cached instead of re-simulated.
//!
//! A bare [`Characterizer`] simulates directly (via [`simulate_run`] /
//! [`measure_build`]). Attach a source with
//! [`Characterizer::with_source`] — the `tango-harness` crate provides
//! `RunStore`, a persistent content-addressed store keyed by the full
//! run description — and repeated requests for the same
//! (network, GPU config, options, preset, seed) combination are served
//! from the store instead of re-running the cycle-level simulator.

use crate::Result;
use std::fmt;
use std::sync::Arc;
use tango_isa::{max_live_registers, Dim3};
use tango_nets::{build_network, synthetic_input, InferenceReport, NetworkKind, Preset};
use tango_sim::{Gpu, GpuConfig, HostWork, SimOptions};

/// Reproducible driver for one (GPU config, preset, seed) combination.
///
/// # Example
///
/// ```
/// use tango::Characterizer;
/// use tango_nets::{NetworkKind, Preset};
/// use tango_sim::GpuConfig;
///
/// # fn main() -> Result<(), tango::TangoError> {
/// let ch = Characterizer::new(GpuConfig::gp102(), Preset::Tiny, 42);
/// let run = ch.run_network(NetworkKind::CifarNet, &ch.default_options())?;
/// assert!(run.report.total_cycles() > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct Characterizer {
    config: GpuConfig,
    preset: Preset,
    seed: u64,
    source: Option<Arc<dyn RunSource>>,
}

impl fmt::Debug for Characterizer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Characterizer")
            .field("config", &self.config.name)
            .field("preset", &self.preset)
            .field("seed", &self.seed)
            .field("source", &self.source.as_ref().map(|_| "attached"))
            .finish()
    }
}

/// One network's simulated inference plus device-level observations.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkRun {
    /// Which network ran.
    pub kind: NetworkKind,
    /// Per-layer statistics and the output.
    pub report: InferenceReport,
    /// Peak device-memory usage (weights + activations), Figure 11's
    /// metric.
    pub footprint_bytes: u64,
}

/// The complete description of one simulated inference run — everything
/// that determines its outcome, and therefore everything a cache key
/// must cover.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// The simulated device.
    pub config: GpuConfig,
    /// Network scale preset.
    pub preset: Preset,
    /// Weight/input seed.
    pub seed: u64,
    /// Which network to run.
    pub kind: NetworkKind,
    /// Per-launch simulation options.
    pub options: SimOptions,
}

/// The description of one network *build* (no simulation): what the
/// build-only producers (Figures 11/12, Table III) depend on.
///
/// Network construction never consults the GPU configuration — kernel
/// geometry, register allocation, and the allocator high-water mark are
/// properties of (network, preset, seed) alone — so no config field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildSpec {
    /// Network scale preset.
    pub preset: Preset,
    /// Weight seed.
    pub seed: u64,
    /// Which network to build.
    pub kind: NetworkKind,
}

/// Static per-layer kernel facts captured at build time (Table III's
/// columns plus the liveness analysis Figure 12 needs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerBuildStats {
    /// Layer name (e.g. `conv2_1`).
    pub name: String,
    /// Launch grid (`gridDim`).
    pub grid: Dim3,
    /// Launch block (`blockDim`).
    pub block: Dim3,
    /// Registers per thread (compiler allocation).
    pub regs: u32,
    /// Peak live registers per thread (dataflow liveness).
    pub live_regs: u32,
    /// Declared shared memory per CTA in bytes.
    pub smem_bytes: u32,
    /// Constant-memory footprint in bytes.
    pub cmem_bytes: u32,
}

/// Everything the build-only experiments read off a constructed network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildStats {
    /// Peak device-memory usage (weights + activations) in bytes.
    pub footprint_bytes: u64,
    /// Total weight bytes.
    pub weight_bytes: u64,
    /// Per-layer kernel facts, in execution order.
    pub layers: Vec<LayerBuildStats>,
}

/// Where a [`Characterizer`] gets its runs from.
///
/// The default (no source attached) simulates every request from
/// scratch. The `tango-harness` crate implements this trait on its
/// `RunStore`, serving cached results when the key matches and falling
/// back to [`simulate_run`] / [`measure_build`] on a miss.
pub trait RunSource: Send + Sync {
    /// Produces (or retrieves) the run described by `spec`.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    fn network_run(&self, spec: &RunSpec) -> Result<NetworkRun>;

    /// Produces (or retrieves) the build stats described by `spec`.
    ///
    /// # Errors
    ///
    /// Propagates network-construction failures.
    fn build_stats(&self, spec: &BuildSpec) -> Result<BuildStats>;
}

/// Builds and simulates one network end to end on a fresh device —
/// the uncached ground truth every [`RunSource`] ultimately calls.
///
/// # Errors
///
/// Propagates network-construction and input errors.
pub fn simulate_run(spec: &RunSpec) -> Result<NetworkRun> {
    simulate_run_counted(spec).map(|(run, _)| run)
}

/// [`simulate_run`], also returning what the simulator did to produce
/// the run: the device's issue-stage [`HostWork`] counts, which repeat
/// exactly run to run (launches the memo replays add nothing).
///
/// # Errors
///
/// Propagates network-construction and input errors.
pub fn simulate_run_counted(spec: &RunSpec) -> Result<(NetworkRun, HostWork)> {
    let mut gpu = Gpu::new(spec.config.clone());
    let net = build_network(&mut gpu, spec.kind, spec.preset, spec.seed)?;
    let input = synthetic_input(net.input_spec(), spec.seed ^ 0x1234_5678);
    let report = net.infer(&mut gpu, &input, &spec.options)?;
    let run = NetworkRun {
        kind: spec.kind,
        report,
        footprint_bytes: gpu.memory_footprint_bytes(),
    };
    Ok((run, gpu.host_work()))
}

/// Builds one network (no simulation) and captures the static facts the
/// build-only experiments need.
///
/// # Errors
///
/// Propagates network-construction errors.
pub fn measure_build(spec: &BuildSpec) -> Result<BuildStats> {
    let mut gpu = Gpu::new(GpuConfig::gp102());
    let net = build_network(&mut gpu, spec.kind, spec.preset, spec.seed)?;
    let layers = net
        .layers()
        .iter()
        .map(|layer| {
            let k = layer.kernel();
            LayerBuildStats {
                name: layer.name().to_string(),
                grid: k.grid(),
                block: k.block(),
                regs: k.regs(),
                live_regs: max_live_registers(k.program()),
                smem_bytes: k.smem_bytes(),
                cmem_bytes: k.cmem_bytes(),
            }
        })
        .collect();
    Ok(BuildStats {
        footprint_bytes: gpu.memory_footprint_bytes(),
        weight_bytes: net.weight_bytes(),
        layers,
    })
}

impl Characterizer {
    /// Creates a driver with no run source (every request simulates).
    pub fn new(config: GpuConfig, preset: Preset, seed: u64) -> Self {
        Characterizer {
            config,
            preset,
            seed,
            source: None,
        }
    }

    /// The configuration the paper's detailed statistics use: the Pascal
    /// GP102 simulator config at bench scale, with a fixed suite seed.
    pub fn bench_default() -> Self {
        Characterizer::new(GpuConfig::gp102(), Preset::Bench, SEED)
    }

    /// Attaches a run source (e.g. `tango-harness`'s `RunStore`); all
    /// subsequent [`run_network`](Self::run_network) /
    /// [`build_stats`](Self::build_stats) calls route through it.
    pub fn with_source(mut self, source: Arc<dyn RunSource>) -> Self {
        self.source = Some(source);
        self
    }

    /// The attached run source, if any.
    pub fn source(&self) -> Option<&Arc<dyn RunSource>> {
        self.source.as_ref()
    }

    /// The device configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// The network preset.
    pub fn preset(&self) -> Preset {
        self.preset
    }

    /// The weight/input seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Default simulation options for this driver.
    pub fn default_options(&self) -> SimOptions {
        SimOptions::new()
    }

    /// The full run description for `kind` under `opts`.
    pub fn run_spec(&self, kind: NetworkKind, opts: &SimOptions) -> RunSpec {
        RunSpec {
            config: self.config.clone(),
            preset: self.preset,
            seed: self.seed,
            kind,
            options: opts.clone(),
        }
    }

    /// Builds and runs one network end to end, through the attached
    /// source when present.
    ///
    /// # Errors
    ///
    /// Propagates network-construction and input errors.
    pub fn run_network(&self, kind: NetworkKind, opts: &SimOptions) -> Result<NetworkRun> {
        self.fetch_run(&self.run_spec(kind, opts))
    }

    /// The run `spec` describes, through the attached source when
    /// present. `spec` carries its own config, preset and seed.
    ///
    /// # Errors
    ///
    /// Propagates network-construction and input errors.
    pub fn fetch_run(&self, spec: &RunSpec) -> Result<NetworkRun> {
        match &self.source {
            Some(src) => src.network_run(spec),
            None => simulate_run(spec),
        }
    }

    /// The build stats `spec` describes (no simulation), through the
    /// attached source when present.
    ///
    /// # Errors
    ///
    /// Propagates network-construction errors.
    pub fn fetch_build(&self, spec: &BuildSpec) -> Result<BuildStats> {
        match &self.source {
            Some(src) => src.build_stats(spec),
            None => measure_build(spec),
        }
    }
}

/// Deterministic suite seed, stable across releases.
const SEED: u64 = 0x7A16_0201_9151;

impl Default for Characterizer {
    fn default() -> Self {
        Characterizer::bench_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn tiny_characterization_round_trip() {
        let ch = Characterizer::new(GpuConfig::gp102(), Preset::Tiny, 3);
        let run = ch.run_network(NetworkKind::Gru, &ch.default_options()).unwrap();
        assert_eq!(run.kind, NetworkKind::Gru);
        assert!(run.footprint_bytes > 0);
    }

    #[test]
    fn runs_are_deterministic() {
        let ch = Characterizer::new(GpuConfig::gp102(), Preset::Tiny, 4);
        let a = ch.run_network(NetworkKind::CifarNet, &ch.default_options()).unwrap();
        let b = ch.run_network(NetworkKind::CifarNet, &ch.default_options()).unwrap();
        assert_eq!(a.report.output, b.report.output);
        assert_eq!(a.report.total_cycles(), b.report.total_cycles());
    }

    #[test]
    fn build_stats_capture_table3_facts() {
        let ch = Characterizer::new(GpuConfig::gp102(), Preset::Tiny, 5);
        let spec = BuildSpec {
            preset: Preset::Tiny,
            seed: 5,
            kind: NetworkKind::CifarNet,
        };
        let b = ch.fetch_build(&spec).unwrap();
        assert!(b.footprint_bytes > 0);
        assert!(!b.layers.is_empty());
        for layer in &b.layers {
            assert!(layer.regs >= layer.live_regs, "{}: live > allocated", layer.name);
        }
    }

    struct CountingSource(AtomicUsize);

    impl RunSource for CountingSource {
        fn network_run(&self, spec: &RunSpec) -> Result<NetworkRun> {
            self.0.fetch_add(1, Ordering::Relaxed);
            simulate_run(spec)
        }
        fn build_stats(&self, spec: &BuildSpec) -> Result<BuildStats> {
            self.0.fetch_add(1, Ordering::Relaxed);
            measure_build(spec)
        }
    }

    #[test]
    fn attached_source_intercepts_requests() {
        let src = Arc::new(CountingSource(AtomicUsize::new(0)));
        let ch = Characterizer::new(GpuConfig::gp102(), Preset::Tiny, 6).with_source(src.clone());
        ch.run_network(NetworkKind::Gru, &ch.default_options()).unwrap();
        let build = BuildSpec {
            preset: Preset::Tiny,
            seed: 6,
            kind: NetworkKind::Gru,
        };
        ch.fetch_build(&build).unwrap();
        assert_eq!(src.0.load(Ordering::Relaxed), 2);
        // A spec on another config still goes through the source.
        let spec = RunSpec {
            config: GpuConfig::tx1(),
            ..ch.run_spec(NetworkKind::Gru, &ch.default_options())
        };
        ch.fetch_run(&spec).unwrap();
        assert_eq!(src.0.load(Ordering::Relaxed), 3);
    }
}
