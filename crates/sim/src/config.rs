//! GPU configurations (the paper's Table II) and per-run simulation options.

use std::fmt;

/// Warp scheduler policy (the paper's Figure 15/16 experiment).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedulerPolicy {
    /// Greedy-then-oldest: keep issuing the same warp until it stalls, then
    /// pick the oldest ready warp. GPGPU-Sim's (and the paper's) default.
    #[default]
    Gto,
    /// Loose round-robin over ready warps.
    Lrr,
    /// Two-level: a small active set scheduled round-robin; warps that hit a
    /// long-latency stall are swapped out for pending warps.
    Tlv,
}

impl SchedulerPolicy {
    /// All policies in the order the paper plots them.
    pub const ALL: [SchedulerPolicy; 3] = [SchedulerPolicy::Gto, SchedulerPolicy::Lrr, SchedulerPolicy::Tlv];

    /// Lower-case name as used in GPGPU-Sim configs (`gto`, `lrr`, `tlv`).
    pub fn name(self) -> &'static str {
        match self {
            SchedulerPolicy::Gto => "gto",
            SchedulerPolicy::Lrr => "lrr",
            SchedulerPolicy::Tlv => "tlv",
        }
    }
}

impl fmt::Display for SchedulerPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Geometry of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub size_bytes: u32,
    /// Line size in bytes.
    pub line_bytes: u32,
    /// Set associativity.
    pub assoc: u32,
}

impl CacheGeometry {
    /// Creates a geometry.
    ///
    /// # Panics
    ///
    /// Panics if any field is zero, if a line is shorter than 2 bytes, or
    /// if the capacity is not divisible into whole sets. Lines of 2 bytes
    /// or more keep every line address below `u32::MAX`, which the cache
    /// model uses as its empty-way marker.
    pub fn new(size_bytes: u32, line_bytes: u32, assoc: u32) -> Self {
        assert!(size_bytes > 0 && line_bytes > 0 && assoc > 0, "cache geometry fields must be positive");
        assert!(line_bytes >= 2, "cache lines must be at least 2 bytes");
        assert_eq!(
            size_bytes % (line_bytes * assoc),
            0,
            "cache size must be a whole number of sets"
        );
        CacheGeometry {
            size_bytes,
            line_bytes,
            assoc,
        }
    }

    /// Number of sets.
    pub fn num_sets(&self) -> u32 {
        self.size_bytes / (self.line_bytes * self.assoc)
    }
}

/// Full architectural configuration of a simulated GPU.
///
/// Presets mirror the paper's Table II: a Pascal GP102 (the GPGPU-Sim
/// configuration the detailed statistics use), a Kepler GK210 server GPU,
/// and a Maxwell Tegra X1 mobile GPU.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Marketing/architecture name, used in reports.
    pub name: String,
    /// Number of streaming multiprocessors.
    pub num_sms: u32,
    /// SIMD width of a warp.
    pub warp_size: u32,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Maximum resident thread blocks per SM.
    pub max_ctas_per_sm: u32,
    /// 32-bit registers per SM.
    pub registers_per_sm: u32,
    /// Shared memory per SM in bytes.
    pub shared_mem_per_sm: u32,
    /// Warp-instructions the SM can issue per cycle (total across its
    /// schedulers).
    pub issue_width: u32,
    /// SP/ALU warp-instructions accepted per cycle.
    pub sp_width: u32,
    /// SFU warp-instructions accepted per cycle.
    pub sfu_width: u32,
    /// Load/store warp-instructions accepted per cycle.
    pub ldst_width: u32,
    /// ALU result latency in cycles.
    pub alu_latency: u32,
    /// SFU result latency in cycles.
    pub sfu_latency: u32,
    /// Shared-memory load latency in cycles.
    pub shared_latency: u32,
    /// Constant-cache hit latency in cycles.
    pub const_latency: u32,
    /// L1D hit latency in cycles.
    pub l1_latency: u32,
    /// L2 hit latency in cycles (from the SM, including interconnect).
    pub l2_latency: u32,
    /// DRAM access latency in cycles (on top of L2).
    pub dram_latency: u32,
    /// DRAM bandwidth in bytes per core cycle.
    pub dram_bytes_per_cycle: u32,
    /// Outstanding-miss registers (MSHRs) per SM.
    pub mshrs_per_sm: u32,
    /// Default per-SM L1 data cache (`None` disables the L1D entirely,
    /// the paper's "No L1" configuration).
    pub l1d: Option<CacheGeometry>,
    /// Shared L2 cache.
    pub l2: CacheGeometry,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Default warp scheduler.
    pub scheduler: SchedulerPolicy,
    /// Extra cycles charged when GTO/TLV move a warp between the ready and
    /// pending queues on a long-latency stall. The paper's Observation 12
    /// attributes LRR's advantage on convolution layers to exactly this
    /// queue-management overhead; `bench/ablations` sweeps it.
    pub requeue_penalty: u32,
    /// Branch redirect (instruction fetch) bubble in cycles.
    pub fetch_bubble: u32,
    /// Board-level power constants for this device class.
    pub power: PowerConstants,
}

impl GpuConfig {
    /// Pascal GP102 — the architecture simulator configuration
    /// (GPGPU-Sim development branch, Table II "Simulator" column).
    pub fn gp102() -> Self {
        GpuConfig {
            name: "Pascal GP102 (simulator)".into(),
            num_sms: 28,
            warp_size: 32,
            max_threads_per_sm: 2048,
            max_ctas_per_sm: 32,
            registers_per_sm: 65536,
            shared_mem_per_sm: 96 * 1024,
            issue_width: 4,
            sp_width: 2,
            sfu_width: 1,
            ldst_width: 4,
            alu_latency: 6,
            sfu_latency: 18,
            shared_latency: 24,
            const_latency: 8,
            l1_latency: 28,
            l2_latency: 190,
            dram_latency: 350,
            dram_bytes_per_cycle: 320,
            mshrs_per_sm: 24,
            l1d: Some(CacheGeometry::new(64 * 1024, 128, 8)),
            l2: CacheGeometry::new(3 * 1024 * 1024, 128, 16),
            clock_ghz: 1.48,
            scheduler: SchedulerPolicy::Gto,
            requeue_penalty: 6,
            fetch_bubble: 2,
            power: PowerConstants::server(),
        }
    }

    /// Kepler GK210 — the server GPU (one die of a Tesla K80).
    pub fn gk210() -> Self {
        GpuConfig {
            name: "Kepler GK210".into(),
            num_sms: 15,
            warp_size: 32,
            max_threads_per_sm: 2048,
            max_ctas_per_sm: 16,
            registers_per_sm: 65536,
            shared_mem_per_sm: 128 * 1024,
            issue_width: 4,
            sp_width: 3,
            sfu_width: 1,
            ldst_width: 2,
            alu_latency: 9,
            sfu_latency: 24,
            shared_latency: 28,
            const_latency: 8,
            l1_latency: 32,
            l2_latency: 210,
            dram_latency: 380,
            dram_bytes_per_cycle: 340,
            mshrs_per_sm: 16,
            l1d: Some(CacheGeometry::new(128 * 1024, 128, 8)),
            l2: CacheGeometry::new(1536 * 1024, 128, 16),
            clock_ghz: 0.745,
            scheduler: SchedulerPolicy::Gto,
            requeue_penalty: 6,
            fetch_bubble: 2,
            power: PowerConstants::server(),
        }
    }

    /// Maxwell Tegra X1 — the mobile GPU (Jetson TX1).
    pub fn tx1() -> Self {
        GpuConfig {
            name: "Maxwell Tegra X1".into(),
            num_sms: 2,
            warp_size: 32,
            max_threads_per_sm: 2048,
            max_ctas_per_sm: 32,
            registers_per_sm: 32768,
            shared_mem_per_sm: 48 * 1024,
            issue_width: 4,
            sp_width: 2,
            sfu_width: 1,
            ldst_width: 2,
            alu_latency: 6,
            sfu_latency: 20,
            shared_latency: 24,
            const_latency: 8,
            l1_latency: 28,
            l2_latency: 160,
            dram_latency: 300,
            dram_bytes_per_cycle: 26,
            mshrs_per_sm: 16,
            l1d: Some(CacheGeometry::new(48 * 1024, 128, 6)),
            l2: CacheGeometry::new(256 * 1024, 128, 16),
            clock_ghz: 0.998,
            scheduler: SchedulerPolicy::Gto,
            requeue_penalty: 6,
            fetch_bubble: 2,
            power: PowerConstants::mobile(),
        }
    }

    /// Maximum warps per CTA of `threads` threads.
    pub fn warps_per_cta(&self, cta_threads: u32) -> u32 {
        cta_threads.div_ceil(self.warp_size)
    }

    /// How many CTAs of the given shape fit on one SM, limited by the CTA
    /// slot count, thread count, register file, and shared memory.
    pub fn ctas_per_sm(&self, cta_threads: u32, regs_per_thread: u32, smem_bytes: u32) -> u32 {
        let by_slots = self.max_ctas_per_sm;
        let by_threads = self.max_threads_per_sm / cta_threads.max(1);
        let by_regs = if regs_per_thread == 0 {
            u32::MAX
        } else {
            self.registers_per_sm / (regs_per_thread * cta_threads).max(1)
        };
        let by_smem = self
            .shared_mem_per_sm
            .checked_div(smem_bytes)
            .unwrap_or(u32::MAX);
        by_slots.min(by_threads).min(by_regs).min(by_smem).max(1)
    }
}

/// Energy/power constants for the component-level power model
/// (GPUWattch-style; see `power.rs` for how they are applied).
///
/// All dynamic energies are in nanojoules per event; static powers in watts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerConstants {
    /// Register-file energy per 32-lane operand access.
    pub rf_access_nj: f64,
    /// Instruction-buffer energy per issued warp-instruction.
    pub ibp_nj: f64,
    /// Instruction-cache energy per issued warp-instruction.
    pub icp_nj: f64,
    /// Scheduler energy per issued warp-instruction.
    pub sched_nj: f64,
    /// Pipeline (register staging, result bus) energy per issued
    /// warp-instruction.
    pub pipe_nj: f64,
    /// Integer/simple-ALU execution energy per warp-instruction.
    pub sp_nj: f64,
    /// FP32 execution energy per warp-instruction.
    pub fpu_nj: f64,
    /// SFU execution energy per warp-instruction.
    pub sfu_nj: f64,
    /// L1D energy per line access.
    pub l1_nj: f64,
    /// Texture-cache energy per access (unused by these kernels but kept
    /// for the Figure 5 legend).
    pub tex_nj: f64,
    /// Constant-cache energy per access.
    pub const_nj: f64,
    /// Shared-memory energy per access.
    pub shared_nj: f64,
    /// L2 energy per line access.
    pub l2_nj: f64,
    /// Memory-controller energy per DRAM transaction.
    pub mc_nj: f64,
    /// Interconnect energy per DRAM transaction.
    pub noc_nj: f64,
    /// DRAM energy per line transferred.
    pub dram_nj: f64,
    /// Static power of one idle SM, in watts.
    pub idle_sm_w: f64,
    /// Leakage overhead of one *active* SM beyond its dynamic energy.
    pub active_sm_w: f64,
    /// Constant board/baseline power in watts.
    pub const_w: f64,
}

impl PowerConstants {
    /// Server-class constants (Kepler/Pascal discrete boards). Calibrated
    /// so the suite's peak power lands in the paper's 50-250 W band.
    pub fn server() -> Self {
        PowerConstants {
            rf_access_nj: 0.30,
            ibp_nj: 0.07,
            icp_nj: 0.07,
            sched_nj: 0.09,
            pipe_nj: 0.16,
            sp_nj: 0.16,
            fpu_nj: 0.28,
            sfu_nj: 0.65,
            l1_nj: 0.22,
            tex_nj: 0.22,
            const_nj: 0.05,
            shared_nj: 0.16,
            l2_nj: 2.2,
            mc_nj: 1.6,
            noc_nj: 1.2,
            dram_nj: 26.0,
            idle_sm_w: 1.0,
            active_sm_w: 1.2,
            const_w: 6.0,
        }
    }

    /// Mobile-class constants (Tegra X1).
    pub fn mobile() -> Self {
        PowerConstants {
            rf_access_nj: 0.12,
            ibp_nj: 0.035,
            icp_nj: 0.035,
            sched_nj: 0.045,
            pipe_nj: 0.08,
            sp_nj: 0.08,
            fpu_nj: 0.14,
            sfu_nj: 0.33,
            l1_nj: 0.11,
            tex_nj: 0.11,
            const_nj: 0.025,
            shared_nj: 0.08,
            l2_nj: 0.9,
            mc_nj: 0.65,
            noc_nj: 0.5,
            dram_nj: 10.0,
            idle_sm_w: 0.45,
            active_sm_w: 0.8,
            const_w: 2.2,
        }
    }
}

/// Per-launch simulation options.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOptions {
    /// Scheduler override (`None` uses the config default).
    pub scheduler: Option<SchedulerPolicy>,
    /// L1D capacity override in bytes. `None` keeps the config default;
    /// `Some(0)` bypasses the L1D (the paper's "No L1" bar).
    pub l1d_bytes: Option<u32>,
    /// If set, at most this many CTAs per kernel are simulated in detail
    /// and all statistics are scaled by `total/simulated`. Sound for the
    /// suite's kernels because every CTA of a layer runs the identical
    /// program over a shifted data window (see DESIGN.md).
    pub cta_sample_limit: Option<u64>,
    /// Width of the power-trace window in cycles (peak power is the
    /// maximum windowed average, mirroring a physical power meter's
    /// sampling).
    pub power_window: u64,
    /// Batch replication factor (default 1). Every kernel launch is
    /// simulated as `batch` concurrent copies of its grid: replica CTAs
    /// map to the coordinates of their base CTA, so they execute the
    /// identical program over the identical data (outputs are unchanged)
    /// while the device sees `batch`x the CTAs in flight. Small grids
    /// therefore batch almost for free (they fill otherwise-idle SMs);
    /// grids beyond one machine wave scale linearly — the cost shape a
    /// batched inference server schedules against.
    pub batch: u32,
    /// Launch-memoization override. `None` (the default) defers to the
    /// `TANGO_SIM_MEMO` environment variable (enabled unless set to `0`);
    /// `Some(v)` forces the memo on or off for this launch regardless of
    /// the environment. The memo is exact — identical `KernelStats` and
    /// memory contents either way (see DESIGN.md section 13) — so this
    /// only trades wall-clock time, never results. Excluded from launch
    /// signatures and store keys for the same reason.
    pub memo: Option<bool>,
}

impl SimOptions {
    /// Defaults: config scheduler, config L1D, detailed simulation of at
    /// most 96 CTAs per kernel, 4096-cycle power windows, batch 1.
    pub fn new() -> Self {
        SimOptions {
            scheduler: None,
            l1d_bytes: None,
            cta_sample_limit: Some(96),
            power_window: 4096,
            batch: 1,
            memo: None,
        }
    }

    /// Sets the scheduler policy.
    pub fn with_scheduler(mut self, policy: SchedulerPolicy) -> Self {
        self.scheduler = Some(policy);
        self
    }

    /// Sets (or disables, with 0) the L1D capacity.
    pub fn with_l1d_bytes(mut self, bytes: u32) -> Self {
        self.l1d_bytes = Some(bytes);
        self
    }

    /// Sets the CTA sampling limit (`None` simulates every CTA).
    pub fn with_cta_sample_limit(mut self, limit: Option<u64>) -> Self {
        self.cta_sample_limit = limit;
        self
    }

    /// Sets the batch replication factor.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn with_batch(mut self, batch: u32) -> Self {
        assert!(batch >= 1, "batch replication factor must be at least 1");
        self.batch = batch;
        self
    }

    /// Forces launch memoization on or off, overriding `TANGO_SIM_MEMO`.
    /// Tests use this to compare both paths race-free within one process.
    pub fn with_memo(mut self, memo: bool) -> Self {
        self.memo = Some(memo);
        self
    }
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_table_ii() {
        let gp = GpuConfig::gp102();
        assert_eq!(gp.l1d.unwrap().size_bytes, 64 * 1024); // "64KB (default)"
        assert_eq!(gp.registers_per_sm, 65536);
        let tx1 = GpuConfig::tx1();
        assert_eq!(tx1.registers_per_sm, 32768);
        assert_eq!(tx1.shared_mem_per_sm, 48 * 1024);
        let gk = GpuConfig::gk210();
        assert_eq!(gk.num_sms * 192, 2880); // Table II: 2880 CUDA cores
    }

    #[test]
    fn occupancy_is_limited_by_each_resource() {
        let cfg = GpuConfig::gp102();
        // Thread-limited: 1024-thread CTAs, tiny regs -> 2 CTAs.
        assert_eq!(cfg.ctas_per_sm(1024, 16, 0), 2);
        // Register-limited: 256 threads x 64 regs = 16384 regs -> 4 CTAs.
        assert_eq!(cfg.ctas_per_sm(256, 64, 0), 4);
        // Slot-limited: tiny CTAs -> max_ctas_per_sm.
        assert_eq!(cfg.ctas_per_sm(1, 8, 0), 32);
        // Shared-memory-limited.
        assert_eq!(cfg.ctas_per_sm(32, 8, 48 * 1024), 2);
    }

    #[test]
    fn ctas_per_sm_never_returns_zero() {
        let cfg = GpuConfig::gp102();
        assert_eq!(cfg.ctas_per_sm(2048, 255, 1024 * 1024), 1);
    }

    #[test]
    fn cache_geometry_validates() {
        let g = CacheGeometry::new(64 * 1024, 128, 8);
        assert_eq!(g.num_sets(), 64);
    }

    #[test]
    #[should_panic(expected = "whole number of sets")]
    fn bad_geometry_panics() {
        CacheGeometry::new(1000, 128, 8);
    }

    #[test]
    #[should_panic(expected = "at least 2 bytes")]
    fn one_byte_lines_panic() {
        CacheGeometry::new(64, 1, 4);
    }

    #[test]
    fn scheduler_names() {
        assert_eq!(SchedulerPolicy::Gto.to_string(), "gto");
        assert_eq!(SchedulerPolicy::ALL.len(), 3);
    }

    #[test]
    fn options_builder_chains() {
        let o = SimOptions::new()
            .with_scheduler(SchedulerPolicy::Lrr)
            .with_l1d_bytes(0)
            .with_cta_sample_limit(None)
            .with_batch(4);
        assert_eq!(o.scheduler, Some(SchedulerPolicy::Lrr));
        assert_eq!(o.l1d_bytes, Some(0));
        assert_eq!(o.cta_sample_limit, None);
        assert_eq!(o.batch, 4);
        assert_eq!(SimOptions::new().batch, 1);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_batch_is_rejected() {
        let _ = SimOptions::new().with_batch(0);
    }
}
