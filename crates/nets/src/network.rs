//! The built-network type and its inference runner.

use crate::layer::{Layer, LayerRecord};
use crate::{NetError, Result};
use std::fmt;
use tango_kernels::DeviceTensor;
use tango_sim::{Gpu, SimOptions};
use tango_tensor::Tensor;

/// Which of the suite's seven networks a [`Network`] instance is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetworkKind {
    /// 3-conv/2-fc CIFAR-style net (traffic-signal model in the paper).
    CifarNet,
    /// 5-conv/3-fc ImageNet classifier (grouped convolutions).
    AlexNet,
    /// Fire-module ImageNet classifier.
    SqueezeNet,
    /// 50-layer residual ImageNet classifier.
    ResNet50,
    /// 16-layer VGG ImageNet classifier.
    VggNet16,
    /// Gated recurrent unit price forecaster.
    Gru,
    /// Long short-term memory price forecaster.
    Lstm,
    /// MobileNet v1 — the suite extension the paper announces
    /// ("we are currently developing more networks such as MobileNet").
    /// Not part of [`NetworkKind::ALL`] (the paper's seven evaluated
    /// networks); see [`NetworkKind::EXTENDED`].
    MobileNet,
}

impl NetworkKind {
    /// All seven networks, CNNs first, in the paper's ordering.
    pub const ALL: [NetworkKind; 7] = [
        NetworkKind::CifarNet,
        NetworkKind::AlexNet,
        NetworkKind::SqueezeNet,
        NetworkKind::ResNet50,
        NetworkKind::VggNet16,
        NetworkKind::Gru,
        NetworkKind::Lstm,
    ];

    /// The paper's seven networks plus the implemented extensions.
    pub const EXTENDED: [NetworkKind; 8] = [
        NetworkKind::CifarNet,
        NetworkKind::AlexNet,
        NetworkKind::SqueezeNet,
        NetworkKind::ResNet50,
        NetworkKind::VggNet16,
        NetworkKind::Gru,
        NetworkKind::Lstm,
        NetworkKind::MobileNet,
    ];

    /// The four CNNs most per-layer-type figures plot.
    pub const FIGURE_CNNS: [NetworkKind; 4] = [
        NetworkKind::CifarNet,
        NetworkKind::AlexNet,
        NetworkKind::SqueezeNet,
        NetworkKind::ResNet50,
    ];

    /// Display name as the paper writes it.
    pub fn name(self) -> &'static str {
        match self {
            NetworkKind::CifarNet => "CifarNet",
            NetworkKind::AlexNet => "AlexNet",
            NetworkKind::SqueezeNet => "SqueezeNet",
            NetworkKind::ResNet50 => "ResNet",
            NetworkKind::VggNet16 => "VGGNet",
            NetworkKind::Gru => "GRU",
            NetworkKind::Lstm => "LSTM",
            NetworkKind::MobileNet => "MobileNet",
        }
    }

    /// Whether this is one of the two recurrent networks.
    pub fn is_rnn(self) -> bool {
        matches!(self, NetworkKind::Gru | NetworkKind::Lstm)
    }
}

impl fmt::Display for NetworkKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Size preset a network is built at.
///
/// `Paper` reproduces the exact published architectures (the right preset
/// for static/footprint experiments: Table III, Figures 11-12). `Bench`
/// keeps every layer and its type/order but scales channel counts and
/// input resolution down so cycle-level simulation of the full suite
/// completes in seconds (the timing/power experiments; see DESIGN.md on
/// why shapes survive scaling). `Tiny` is a minimal variant for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Preset {
    /// Exact published dimensions.
    Paper,
    /// Structure-preserving reduction for cycle-level runs.
    #[default]
    Bench,
    /// Miniature variant for fast tests.
    Tiny,
}

impl Preset {
    /// All presets.
    pub const ALL: [Preset; 3] = [Preset::Paper, Preset::Bench, Preset::Tiny];

    /// Lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            Preset::Paper => "paper",
            Preset::Bench => "bench",
            Preset::Tiny => "tiny",
        }
    }
}

impl fmt::Display for Preset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What a network consumes per inference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputSpec {
    /// A `c x h x w` image.
    Image {
        /// Channels.
        c: u32,
        /// Height.
        h: u32,
        /// Width.
        w: u32,
    },
    /// A sequence of `len` vectors of `dim` values.
    Sequence {
        /// Sequence length.
        len: u32,
        /// Vector width per step.
        dim: u32,
    },
}

/// Host-side inference input.
#[derive(Debug, Clone, PartialEq)]
pub enum NetworkInput {
    /// Image input (`1 x c x h x w` tensor).
    Image(Tensor),
    /// Sequence input (one vector per time step).
    Sequence(Vec<Tensor>),
}

pub(crate) enum InputSlot {
    Image(DeviceTensor),
    Sequence(Vec<DeviceTensor>),
}

/// A fully-built network: device-resident weights plus an ordered list of
/// layer kernels.
pub struct Network {
    pub(crate) kind: NetworkKind,
    pub(crate) preset: Preset,
    pub(crate) layers: Vec<Layer>,
    pub(crate) input_slot: InputSlot,
    pub(crate) input_spec: InputSpec,
    pub(crate) output: DeviceTensor,
    pub(crate) weight_bytes: u64,
}

impl Network {
    /// Which network this is.
    pub fn kind(&self) -> NetworkKind {
        self.kind
    }

    /// The preset it was built at.
    pub fn preset(&self) -> Preset {
        self.preset
    }

    /// The layers in execution order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// What one inference consumes.
    pub fn input_spec(&self) -> InputSpec {
        self.input_spec
    }

    /// Total bytes of weights/statistics resident on the device — the
    /// model-size component of the paper's Figure 11.
    pub fn weight_bytes(&self) -> u64 {
        self.weight_bytes
    }

    /// Runs one inference, simulating every layer kernel, and returns the
    /// output plus the per-layer statistics.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::BadInput`] if `input` does not match
    /// [`input_spec`](Self::input_spec).
    pub fn infer(&self, gpu: &mut Gpu, input: &NetworkInput, opts: &SimOptions) -> Result<InferenceReport> {
        self.bind_input(gpu, input)?;
        self.run_layers(gpu, opts)
    }

    /// Runs one batched inference: `inputs.len()` requests simulated as a
    /// single device pass with [`SimOptions::batch`] set to the batch size
    /// (CTA-level grid replication — see `tango_sim::LaunchFrame`).
    ///
    /// The simulator binds one logical copy of the input, so a batch must
    /// be homogeneous: every element identical to the first. This is
    /// exactly the shape a serving coalescer produces (identical requests
    /// folded into one batch); heterogeneous batching would need
    /// per-replica device buffers, which the kernels do not address yet.
    /// The returned report's output and per-layer outputs are identical to
    /// an unbatched run; its cycle counts are the batched cost.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::BadInput`] if `inputs` is empty, any element
    /// differs from the first, or the first does not match
    /// [`input_spec`](Self::input_spec).
    pub fn infer_batch(&self, gpu: &mut Gpu, inputs: &[NetworkInput], opts: &SimOptions) -> Result<InferenceReport> {
        let name = self.kind.name();
        let first = inputs
            .first()
            .ok_or_else(|| NetError::bad_input(name, "batch must contain at least one input"))?;
        if let Some(pos) = inputs.iter().position(|i| i != first) {
            return Err(NetError::bad_input(
                name,
                format!("batch must be homogeneous; input {pos} differs from input 0"),
            ));
        }
        self.bind_input(gpu, first)?;
        self.run_layers(gpu, &opts.clone().with_batch(inputs.len() as u32))
    }

    /// Uploads `input` into the network's device-resident input slot.
    fn bind_input(&self, gpu: &mut Gpu, input: &NetworkInput) -> Result<()> {
        let name = self.kind.name();
        match (&self.input_slot, input) {
            (InputSlot::Image(slot), NetworkInput::Image(host)) => {
                slot.overwrite(gpu, host)
                    .map_err(|e| NetError::bad_input("network", e.to_string()))?;
            }
            (InputSlot::Sequence(slots), NetworkInput::Sequence(steps)) => {
                if slots.len() != steps.len() {
                    return Err(NetError::bad_input(
                        name,
                        format!("expected {} time steps, got {}", slots.len(), steps.len()),
                    ));
                }
                for (slot, host) in slots.iter().zip(steps) {
                    slot.overwrite(gpu, host)
                        .map_err(|e| NetError::bad_input("network", e.to_string()))?;
                }
            }
            (InputSlot::Image(_), _) => {
                return Err(NetError::bad_input(name, "expected an image input"));
            }
            (InputSlot::Sequence(_), _) => {
                return Err(NetError::bad_input(name, "expected a sequence input"));
            }
        }
        Ok(())
    }

    /// Simulates every layer kernel under `opts` and assembles the report.
    fn run_layers(&self, gpu: &mut Gpu, opts: &SimOptions) -> Result<InferenceReport> {
        let _infer_span = tango_obs::vspan("net.infer", self.kind.name());
        let mut records = Vec::with_capacity(self.layers.len());
        for layer in &self.layers {
            let _layer_span = tango_obs::vspan("net.layer", &layer.name);
            let stats = layer.run(gpu, opts);
            records.push(LayerRecord {
                name: layer.name.clone(),
                layer_type: layer.layer_type,
                stats,
            });
        }
        Ok(InferenceReport {
            output: self.output.download(gpu),
            records,
        })
    }
}

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Network")
            .field("kind", &self.kind)
            .field("preset", &self.preset)
            .field("layers", &self.layers.len())
            .field("weight_bytes", &self.weight_bytes)
            .finish()
    }
}

/// Output and statistics of one simulated inference.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceReport {
    /// The network output (class scores/probabilities or the forecast).
    pub output: Tensor,
    /// Per-layer statistics, in execution order.
    pub records: Vec<LayerRecord>,
}

impl InferenceReport {
    /// Total simulated cycles across layers.
    pub fn total_cycles(&self) -> u64 {
        self.records.iter().map(|r| r.stats.cycles).sum()
    }

    /// Total simulated kernel time in seconds.
    pub fn total_time_s(&self) -> f64 {
        self.records.iter().map(|r| r.stats.time_s).sum()
    }

    /// Total energy in joules.
    pub fn total_energy_j(&self) -> f64 {
        self.records.iter().map(|r| r.stats.energy.total()).sum()
    }

    /// Maximum windowed power across all layers — the paper's "peak power
    /// ever measured during network execution" (Figure 3).
    pub fn peak_power_w(&self) -> f64 {
        self.records.iter().map(|r| r.stats.peak_power_w).fold(0.0, f64::max)
    }
}
