//! GPUWattch-style component-level power model.
//!
//! Dynamic energy is charged per micro-architectural event (register-file
//! access, cache access, executed warp-instruction, DRAM transaction);
//! static power is charged per cycle per SM (idle or active) plus a
//! constant board baseline. A windowed trace reproduces what a physical
//! power meter samples, which is how the paper's "peak power" (Figure 3)
//! is defined.

use crate::config::PowerConstants;
use std::fmt;

/// Hardware components of the power breakdown — exactly the legend of the
/// paper's Figure 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Component {
    /// Instruction buffer.
    Ibp,
    /// Instruction cache.
    Icp,
    /// L1 data cache.
    Dcp,
    /// Texture cache.
    Tcp,
    /// Constant cache.
    Ccp,
    /// Shared memory.
    Shrdp,
    /// Register file.
    Rfp,
    /// SP (integer/simple ALU) pipelines.
    Spp,
    /// Special-function units.
    Sfup,
    /// FP32 pipelines.
    Fpup,
    /// Warp schedulers.
    Schedp,
    /// L2 cache.
    L2cp,
    /// Memory controllers.
    Mcp,
    /// On-chip interconnect.
    Nocp,
    /// DRAM devices.
    Dramp,
    /// Pipeline registers / result buses.
    Pipep,
    /// Static power of idle cores.
    IdleCorep,
    /// Constant baseline (board, fans, leakage floor).
    ConstDynamicp,
}

impl Component {
    /// All components in the stacking order of Figure 5.
    pub const ALL: [Component; 18] = [
        Component::Ibp,
        Component::Icp,
        Component::Dcp,
        Component::Tcp,
        Component::Ccp,
        Component::Shrdp,
        Component::Rfp,
        Component::Spp,
        Component::Sfup,
        Component::Fpup,
        Component::Schedp,
        Component::L2cp,
        Component::Mcp,
        Component::Nocp,
        Component::Dramp,
        Component::Pipep,
        Component::IdleCorep,
        Component::ConstDynamicp,
    ];

    /// The GPUWattch-style label the paper uses (`RFP`, `L2CP`, ...).
    pub fn label(self) -> &'static str {
        match self {
            Component::Ibp => "IBP",
            Component::Icp => "ICP",
            Component::Dcp => "DCP",
            Component::Tcp => "TCP",
            Component::Ccp => "CCP",
            Component::Shrdp => "SHRDP",
            Component::Rfp => "RFP",
            Component::Spp => "SPP",
            Component::Sfup => "SFUP",
            Component::Fpup => "FPUP",
            Component::Schedp => "SCHEDP",
            Component::L2cp => "L2CP",
            Component::Mcp => "MCP",
            Component::Nocp => "NOCP",
            Component::Dramp => "DRAMP",
            Component::Pipep => "PIPEP",
            Component::IdleCorep => "IDLE_COREP",
            Component::ConstDynamicp => "CONST_DYNAMICP",
        }
    }

    /// Position in [`ALL`](Self::ALL), which lists the variants in
    /// declaration order (pinned by a test in `decode.rs`).
    fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Energy in joules, by component.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EnergyBreakdown {
    joules: [f64; 18],
}

impl EnergyBreakdown {
    /// An empty breakdown.
    pub fn new() -> Self {
        EnergyBreakdown::default()
    }

    /// Adds `joules` to `component`.
    pub fn add(&mut self, component: Component, joules: f64) {
        self.joules[component.index()] += joules;
    }

    /// Energy attributed to one component.
    pub fn get(&self, component: Component) -> f64 {
        self.joules[component.index()]
    }

    /// Total energy.
    pub fn total(&self) -> f64 {
        self.joules.iter().sum()
    }

    /// Fraction of the total attributed to `component` (0 if empty).
    pub fn fraction(&self, component: Component) -> f64 {
        let t = self.total();
        if t == 0.0 {
            0.0
        } else {
            self.get(component) / t
        }
    }

    /// Adds another breakdown into this one.
    pub fn merge(&mut self, other: &EnergyBreakdown) {
        for i in 0..self.joules.len() {
            self.joules[i] += other.joules[i];
        }
    }

    /// Scales every component by `factor`.
    pub fn scale(&mut self, factor: f64) {
        for j in &mut self.joules {
            *j *= factor;
        }
    }

    /// Iterates `(component, joules)` pairs in Figure 5 order.
    pub fn iter(&self) -> impl Iterator<Item = (Component, f64)> + '_ {
        Component::ALL.iter().map(|&c| (c, self.get(c)))
    }
}

/// Accumulates energy during a launch and maintains the windowed power
/// trace whose maximum is the reported peak power.
#[derive(Debug, Clone)]
pub struct PowerMeter {
    constants: PowerConstants,
    cycle_time_s: f64,
    window_cycles: u64,
    total: EnergyBreakdown,
    window_joules: f64,
    window_start: u64,
    window_span: u64,
    peak_power_w: f64,
    trace: Vec<f64>,
}

impl PowerMeter {
    /// Creates a meter for a device with the given constants and clock.
    pub fn new(constants: PowerConstants, clock_ghz: f64, window_cycles: u64) -> Self {
        PowerMeter {
            constants,
            cycle_time_s: 1e-9 / clock_ghz,
            window_cycles: window_cycles.max(1),
            total: EnergyBreakdown::new(),
            window_joules: 0.0,
            window_start: 0,
            window_span: 0,
            peak_power_w: 0.0,
            trace: Vec::new(),
        }
    }

    /// The model's constants.
    pub fn constants(&self) -> &PowerConstants {
        &self.constants
    }

    /// Charges `nanojoules` of dynamic energy to `component`.
    pub fn charge_nj(&mut self, component: Component, nanojoules: f64) {
        let j = nanojoules * 1e-9;
        self.total.add(component, j);
        self.window_joules += j;
    }

    /// Charges the per-cycle static power for `idle_sms` idle SMs,
    /// `active_sms` SMs with resident work, and the board baseline. Call
    /// once per simulated cycle.
    pub fn charge_static_cycle(&mut self, cycle: u64, idle_sms: u32, active_sms: u32) {
        self.charge_static_span(cycle, 1, idle_sms, active_sms);
    }

    /// Bulk variant of [`charge_static_cycle`](Self::charge_static_cycle):
    /// charges `span` cycles at once (the event-skipping launch loop jumps
    /// over stalled stretches and settles the static power here).
    pub fn charge_static_span(&mut self, cycle: u64, span: u64, idle_sms: u32, active_sms: u32) {
        if cycle >= self.window_start + self.window_cycles {
            self.close_window();
            self.window_start = cycle;
        }
        self.window_span += span;
        let t = self.cycle_time_s * span as f64;
        let w = self.constants.idle_sm_w * idle_sms as f64
            + self.constants.active_sm_w * active_sms as f64;
        let j = w * t;
        self.total.add(Component::IdleCorep, self.constants.idle_sm_w * idle_sms as f64 * t);
        self.total.add(
            Component::ConstDynamicp,
            (self.constants.const_w + self.constants.active_sm_w * active_sms as f64) * t,
        );
        self.window_joules += j + self.constants.const_w * t;
    }

    fn close_window(&mut self) {
        // Divide by the cycles the window actually covered: event
        // skipping stretches windows past their nominal width, and the
        // final window of a short launch covers less.
        let covered = self.window_span.max(1);
        let window_time = covered as f64 * self.cycle_time_s;
        if window_time > 0.0 && self.window_joules > 0.0 {
            let w = self.window_joules / window_time;
            self.trace.push(w);
            if w > self.peak_power_w {
                self.peak_power_w = w;
            }
        }
        self.window_joules = 0.0;
        self.window_span = 0;
    }

    /// Finalizes the trace and returns `(energy, peak_power_w, trace)`.
    pub fn finish(mut self) -> (EnergyBreakdown, f64, Vec<f64>) {
        self.close_window();
        (self.total, self.peak_power_w, self.trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn components_cover_figure5_legend() {
        assert_eq!(Component::ALL.len(), 18);
        assert_eq!(Component::Rfp.label(), "RFP");
        assert_eq!(Component::IdleCorep.label(), "IDLE_COREP");
    }

    #[test]
    fn breakdown_accumulates_and_fractions() {
        let mut e = EnergyBreakdown::new();
        e.add(Component::Rfp, 3.0);
        e.add(Component::L2cp, 1.0);
        assert_eq!(e.total(), 4.0);
        assert!((e.fraction(Component::Rfp) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn meter_peak_is_max_window() {
        let mut m = PowerMeter::new(PowerConstants::server(), 1.0, 10);
        // Quiet first window.
        for c in 0..10 {
            m.charge_static_cycle(c, 1, 0);
        }
        // Hot second window.
        for c in 10..20 {
            m.charge_nj(Component::Rfp, 50.0);
            m.charge_static_cycle(c, 0, 1);
        }
        let (energy, peak, trace) = m.finish();
        assert!(energy.total() > 0.0);
        assert_eq!(trace.len(), 2);
        assert!(trace[1] > trace[0], "hot window should be hotter: {trace:?}");
        assert!((peak - trace[1]).abs() < 1e-9);
    }

    #[test]
    fn static_power_includes_baseline() {
        let mut m = PowerMeter::new(PowerConstants::server(), 1.0, 4);
        for c in 0..8 {
            m.charge_static_cycle(c, 4, 0);
        }
        let (_, peak, _) = m.finish();
        let c = PowerConstants::server();
        let expect = 4.0 * c.idle_sm_w + c.const_w;
        assert!((peak - expect).abs() < 0.5, "peak {peak} vs {expect}");
    }

    #[test]
    fn scale_scales_everything() {
        let mut e = EnergyBreakdown::new();
        e.add(Component::Dramp, 2.0);
        e.scale(0.5);
        assert_eq!(e.get(Component::Dramp), 1.0);
    }
}
