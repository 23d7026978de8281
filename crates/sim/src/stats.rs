//! Statistics collected per kernel launch.
//!
//! The categories deliberately mirror the paper's figures: stall reasons
//! use the `nvprof` taxonomy of Figure 7, power components use the
//! GPUWattch legend of Figure 5, and operation/data-type histograms feed
//! Figures 8-10.

use crate::power::EnergyBreakdown;
use std::collections::BTreeMap;
use std::fmt;
use tango_isa::{DType, Opcode};

/// Why a resident warp could not issue in a given cycle (the `nvprof`
/// stall-reason taxonomy of the paper's Figure 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StallReason {
    /// Next instruction not yet fetched (branch redirect bubble).
    InstFetch,
    /// Waiting on the result of an arithmetic instruction.
    ExecDependency,
    /// Waiting on the result of a memory load.
    MemoryDependency,
    /// Waiting on the texture unit (unused by these kernels).
    Texture,
    /// Waiting at a block-wide barrier.
    Sync,
    /// Miscellaneous (e.g. drained warp slots at kernel tail).
    Other,
    /// Waiting on a constant-cache fill.
    ConstantMemoryDependency,
    /// Required functional-unit issue port is full this cycle.
    PipeBusy,
    /// Memory subsystem cannot accept more requests (MSHRs full).
    MemoryThrottle,
    /// Warp was ready but the scheduler issued other warps.
    NotSelected,
}

impl StallReason {
    /// All reasons in the stacking order of the paper's Figure 7.
    pub const ALL: [StallReason; 10] = [
        StallReason::InstFetch,
        StallReason::ExecDependency,
        StallReason::MemoryDependency,
        StallReason::Texture,
        StallReason::Sync,
        StallReason::Other,
        StallReason::ConstantMemoryDependency,
        StallReason::PipeBusy,
        StallReason::MemoryThrottle,
        StallReason::NotSelected,
    ];

    /// The `nvprof` metric suffix (`inst_fetch`, `memory_throttle`, ...).
    pub fn name(self) -> &'static str {
        match self {
            StallReason::InstFetch => "inst_fetch",
            StallReason::ExecDependency => "exec_dependency",
            StallReason::MemoryDependency => "memory_dependency",
            StallReason::Texture => "texture",
            StallReason::Sync => "sync",
            StallReason::Other => "other",
            StallReason::ConstantMemoryDependency => "constant_memory_dependency",
            StallReason::PipeBusy => "pipe_busy",
            StallReason::MemoryThrottle => "memory_throttle",
            StallReason::NotSelected => "not_selected",
        }
    }
}

impl fmt::Display for StallReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-reason stall-cycle sample counts.
///
/// One sample is recorded per resident, unissued warp per cycle, matching
/// how `nvprof` derives its `stall_*` percentages from warp-state sampling.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    counts: [u64; 10],
}

impl StallBreakdown {
    /// An empty breakdown.
    pub fn new() -> Self {
        StallBreakdown::default()
    }

    /// Records one sample.
    pub fn record(&mut self, reason: StallReason) {
        self.counts[Self::index(reason)] += 1;
    }

    /// Records `n` samples of the same reason (weighted sampling under
    /// event skipping).
    pub fn record_n(&mut self, reason: StallReason, n: u64) {
        self.counts[Self::index(reason)] += n;
    }

    /// Sample count for one reason.
    pub fn count(&self, reason: StallReason) -> u64 {
        self.counts[Self::index(reason)]
    }

    /// Total samples across all reasons.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fraction of samples attributed to `reason` (0 when no samples).
    pub fn fraction(&self, reason: StallReason) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.count(reason) as f64 / total as f64
        }
    }

    /// Adds another breakdown into this one.
    pub fn merge(&mut self, other: &StallBreakdown) {
        for i in 0..self.counts.len() {
            self.counts[i] += other.counts[i];
        }
    }

    /// Adds `other` into this breakdown `weight` times over: a per-reason
    /// warp census sampled with a weight of `weight` cycles.
    pub(crate) fn merge_weighted(&mut self, other: &StallBreakdown, weight: u64) {
        for i in 0..self.counts.len() {
            self.counts[i] += other.counts[i] * weight;
        }
    }

    /// Scales all counts by `factor` (CTA sampling extrapolation).
    pub fn scale(&mut self, factor: f64) {
        for c in &mut self.counts {
            *c = (*c as f64 * factor).round() as u64;
        }
    }

    /// Iterates `(reason, count)` pairs in Figure 7 order.
    pub fn iter(&self) -> impl Iterator<Item = (StallReason, u64)> + '_ {
        StallReason::ALL.iter().map(|&r| (r, self.count(r)))
    }

    /// Position in [`StallReason::ALL`], which lists the variants in
    /// declaration order (pinned by a test in `decode.rs`).
    fn index(reason: StallReason) -> usize {
        reason as usize
    }
}

/// Hit/miss counters for one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total line accesses.
    pub accesses: u64,
    /// Line hits.
    pub hits: u64,
    /// Line misses.
    pub misses: u64,
}

impl CacheStats {
    /// Miss ratio (0 when the cache saw no traffic).
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Adds another counter set into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.accesses += other.accesses;
        self.hits += other.hits;
        self.misses += other.misses;
    }

    /// Scales all counters by `factor`.
    pub fn scale(&mut self, factor: f64) {
        self.accesses = (self.accesses as f64 * factor).round() as u64;
        self.hits = (self.hits as f64 * factor).round() as u64;
        self.misses = (self.misses as f64 * factor).round() as u64;
    }
}

/// Everything measured about one kernel launch.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelStats {
    /// Kernel name.
    pub name: String,
    /// Simulated core cycles from launch to completion.
    pub cycles: u64,
    /// Warp-instructions issued.
    pub warp_instructions: u64,
    /// Thread-instructions executed (warp-instructions weighted by active
    /// lanes) — the counts Figures 8-10 break down.
    pub thread_instructions: u64,
    /// Dynamic opcode histogram (thread-instruction granularity).
    pub op_counts: BTreeMap<Opcode, u64>,
    /// Dynamic data-type histogram (thread-instruction granularity).
    pub dtype_counts: BTreeMap<DType, u64>,
    /// Warp stall-reason samples.
    pub stalls: StallBreakdown,
    /// L1D counters (zeroed when the L1D is bypassed).
    pub l1d: CacheStats,
    /// L2 counters.
    pub l2: CacheStats,
    /// DRAM line transactions.
    pub dram_accesses: u64,
    /// Constant-cache accesses.
    pub const_accesses: u64,
    /// Shared-memory accesses.
    pub shared_accesses: u64,
    /// Registers per thread (compiler allocation, Table III).
    pub regs_per_thread: u32,
    /// Peak live registers per thread (dataflow analysis, Figure 12).
    pub live_regs_per_thread: u32,
    /// Peak resident threads observed on any SM.
    pub max_resident_threads: u32,
    /// Declared shared memory per CTA in bytes.
    pub smem_bytes: u32,
    /// Constant memory footprint in bytes.
    pub cmem_bytes: u32,
    /// Energy by hardware component.
    pub energy: EnergyBreakdown,
    /// Maximum windowed average power in watts.
    pub peak_power_w: f64,
    /// Whole-kernel average power in watts.
    pub avg_power_w: f64,
    /// Wall-clock kernel time in seconds at the configured core clock.
    pub time_s: f64,
    /// CTAs the launch comprised.
    pub ctas_total: u64,
    /// CTAs simulated in detail (< `ctas_total` under CTA sampling).
    pub ctas_simulated: u64,
}

impl KernelStats {
    /// Allocated register-file bytes per SM at peak residency
    /// (Figure 12's "Max Allocated Registers").
    pub fn allocated_reg_bytes_per_sm(&self) -> u64 {
        self.regs_per_thread as u64 * self.max_resident_threads as u64 * 4
    }

    /// Live register-file bytes per SM at peak residency
    /// (Figure 12's "Max Live Registers").
    pub fn live_reg_bytes_per_sm(&self) -> u64 {
        self.live_regs_per_thread as u64 * self.max_resident_threads as u64 * 4
    }

    /// Instructions per cycle (warp granularity).
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.warp_instructions as f64 / self.cycles as f64
        }
    }

    /// Scales the extensive statistics by `factor` — used to extrapolate
    /// CTA-sampled launches to the full grid. Intensive statistics
    /// (ratios, per-thread register counts, peak power) are left alone.
    pub fn scale(&mut self, factor: f64) {
        self.scale_split(factor, factor);
    }

    /// Extrapolates a CTA-sampled launch with separate factors for event
    /// counts (`count_factor` = total/simulated CTAs) and for time
    /// (`cycle_factor` = machine-wave ratio): a grid that still fits the
    /// machine's residency does not take proportionally longer, it runs
    /// wider.
    pub fn scale_split(&mut self, count_factor: f64, cycle_factor: f64) {
        let factor = count_factor;
        if (factor - 1.0).abs() < f64::EPSILON && (cycle_factor - 1.0).abs() < f64::EPSILON {
            return;
        }
        self.cycles = (self.cycles as f64 * cycle_factor).round() as u64;
        self.warp_instructions = (self.warp_instructions as f64 * factor).round() as u64;
        self.thread_instructions = (self.thread_instructions as f64 * factor).round() as u64;
        for v in self.op_counts.values_mut() {
            *v = (*v as f64 * factor).round() as u64;
        }
        for v in self.dtype_counts.values_mut() {
            *v = (*v as f64 * factor).round() as u64;
        }
        self.stalls.scale(factor);
        self.l1d.scale(factor);
        self.l2.scale(factor);
        self.dram_accesses = (self.dram_accesses as f64 * factor).round() as u64;
        self.const_accesses = (self.const_accesses as f64 * factor).round() as u64;
        self.shared_accesses = (self.shared_accesses as f64 * factor).round() as u64;
        self.energy.scale(factor);
        self.time_s *= cycle_factor;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_breakdown_records_and_fractions() {
        let mut s = StallBreakdown::new();
        s.record(StallReason::PipeBusy);
        s.record(StallReason::PipeBusy);
        s.record(StallReason::MemoryThrottle);
        assert_eq!(s.total(), 3);
        assert_eq!(s.count(StallReason::PipeBusy), 2);
        assert!((s.fraction(StallReason::PipeBusy) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.fraction(StallReason::Sync), 0.0);
    }

    #[test]
    fn stall_iter_covers_all_reasons() {
        let s = StallBreakdown::new();
        assert_eq!(s.iter().count(), 10);
    }

    #[test]
    fn merge_and_scale() {
        let mut a = StallBreakdown::new();
        a.record(StallReason::Sync);
        let mut b = StallBreakdown::new();
        b.record(StallReason::Sync);
        b.record(StallReason::Other);
        a.merge(&b);
        assert_eq!(a.count(StallReason::Sync), 2);
        a.scale(3.0);
        assert_eq!(a.count(StallReason::Sync), 6);
        assert_eq!(a.count(StallReason::Other), 3);
    }

    #[test]
    fn cache_miss_ratio() {
        let c = CacheStats {
            accesses: 10,
            hits: 9,
            misses: 1,
        };
        assert!((c.miss_ratio() - 0.1).abs() < 1e-12);
        assert_eq!(CacheStats::default().miss_ratio(), 0.0);
    }

    #[test]
    fn empty_breakdown_has_zero_fraction_everywhere() {
        let s = StallBreakdown::new();
        for r in StallReason::ALL {
            assert_eq!(s.fraction(r), 0.0);
        }
    }
}
