//! The simulated GPU device: owns device memory, the shared L2/DRAM, and
//! runs kernel launches to completion.

use crate::config::{CacheGeometry, GpuConfig, SchedulerPolicy, SimOptions};
use crate::decode::{decode_program, DecodedInst};
use crate::exec::{self, Row};
use crate::mem::GlobalMemory;
use crate::memo::{self, MemoRecorder};
use crate::memsys::{Hierarchy, MemorySystem};
use crate::power::PowerMeter;
use crate::sched::Scheduler;
use crate::sm::{LaunchAgg, Sm, SmEnv};
use crate::stats::KernelStats;
use std::sync::OnceLock;
use tango_isa::{max_live_registers, Dim3, KernelProgram};

/// Safety valve: a single launch exceeding this many cycles is a simulator
/// deadlock, not a slow kernel.
const MAX_CYCLES: u64 = 50_000_000_000;

/// Minimum virtual cycles between live occupancy gauge samples when
/// tracing: dense enough to see ramp-up and drain, sparse enough that a
/// long kernel does not flood the ring.
const GAUGE_INTERVAL: u64 = 8192;

/// A simulated GPU.
///
/// Mirrors the host-side view of a CUDA device: allocate buffers, copy data
/// in, launch kernels, copy data out. Each launch returns a full
/// [`KernelStats`] record.
///
/// # Example
///
/// ```
/// use tango_isa::{DType, Dim3, KernelBuilder, Operand};
/// use tango_sim::{Gpu, GpuConfig, SimOptions};
///
/// // out[tid] = 3 * tid
/// let mut b = KernelBuilder::new("triple");
/// let tid = b.global_tid_x();
/// let addr = b.reg();
/// let v = b.reg();
/// let base = b.load_param(0);
/// b.mul(DType::U32, v, tid.into(), Operand::imm_u32(3));
/// b.shl(DType::U32, addr, tid.into(), Operand::imm_u32(2));
/// b.add(DType::U32, addr, addr.into(), base.into());
/// b.st_global(DType::U32, addr, 0, v);
/// b.exit();
/// let program = b.build().expect("valid program");
///
/// let mut gpu = Gpu::new(GpuConfig::gp102());
/// let out = gpu.alloc_bytes(64 * 4);
/// let stats = gpu.launch(&program, Dim3::x(2), Dim3::x(32), &[out], 0, &SimOptions::new());
/// assert!(stats.cycles > 0);
/// assert_eq!(gpu.memory().read_u32(out + 10 * 4), 30);
/// ```
#[derive(Debug)]
pub struct Gpu {
    config: GpuConfig,
    /// `config`'s share of every launch key (the config never changes).
    config_sig: u64,
    mem: GlobalMemory,
    memsys: Hierarchy,
}

impl Gpu {
    /// Creates a device with the given configuration.
    pub fn new(config: GpuConfig) -> Self {
        let memsys = Hierarchy::Owned(MemorySystem::new(&config));
        Gpu {
            config_sig: memo::config_signature(&config),
            config,
            mem: GlobalMemory::new(),
            memsys,
        }
    }

    /// The device configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// Read-only view of device memory.
    pub fn memory(&self) -> &GlobalMemory {
        &self.mem
    }

    /// Mutable view of device memory (host-side uploads).
    pub fn memory_mut(&mut self) -> &mut GlobalMemory {
        &mut self.mem
    }

    /// Allocates `bytes` of device memory.
    pub fn alloc_bytes(&mut self, bytes: u32) -> u32 {
        self.mem.alloc(bytes)
    }

    /// Allocates and uploads a float buffer, returning its device address.
    pub fn upload_f32s(&mut self, values: &[f32]) -> u32 {
        let addr = self.mem.alloc((values.len() * 4) as u32);
        self.mem.write_f32s(addr, values);
        addr
    }

    /// Reads `len` floats from device memory.
    pub fn download_f32s(&self, addr: u32, len: usize) -> Vec<f32> {
        self.mem.read_f32s(addr, len)
    }

    /// Peak device-memory usage so far in bytes (the paper's Figure 11
    /// metric).
    pub fn memory_footprint_bytes(&self) -> u64 {
        self.mem.high_water_bytes()
    }

    /// Statically verifies a launch without running it: structural CFG
    /// checks, dataflow lints, and the thread-affine access analysis from
    /// [`tango_isa::verify`], evaluated against this device's actual
    /// memory size and the concrete parameter words.
    ///
    /// The launch memo layer consults the same analysis: when it proves
    /// every global access is an aligned 32-bit word
    /// ([`Report::aligned_certified`](tango_isa::verify::Report)), the
    /// recorder skips its per-access width/alignment poison probes. That
    /// only elides a check the proof says cannot fire — replayed results
    /// stay byte-identical.
    pub fn verify_launch(
        &self,
        program: &KernelProgram,
        grid: Dim3,
        block: Dim3,
        params: &[u32],
    ) -> tango_isa::verify::Report {
        let spec = tango_isa::verify::LaunchSpec {
            grid,
            block,
            params: Some(params),
            param_align: 1,
            mem_bytes: Some(self.mem.size_bytes() as u64),
        };
        tango_isa::verify::verify_launch(program, &spec)
    }

    /// Launches `program` over `grid` x `block` threads with the given
    /// 32-bit parameters (typically buffer addresses and layer dimensions)
    /// and `smem_bytes` of per-CTA shared memory (raised to what the
    /// program itself declares, if that is more).
    ///
    /// Runs the launch to completion under `opts` and returns its
    /// statistics. With CTA sampling enabled (the default), only a prefix
    /// of the grid executes and extensive statistics are extrapolated —
    /// see [`SimOptions::cta_sample_limit`]. With
    /// [`SimOptions::batch`] > 1 the grid is replicated at the CTA level
    /// (see [`LaunchFrame`]).
    ///
    /// Equivalent to [`begin_launch`](Self::begin_launch) followed by
    /// [`LaunchFrame::finish`]; use the frame API directly to interleave
    /// or pace long launches.
    ///
    /// # Panics
    ///
    /// Panics if the program expects more parameters than provided, or if
    /// a kernel accesses device memory out of bounds (a generated-kernel
    /// bug).
    pub fn launch(
        &mut self,
        program: &KernelProgram,
        grid: Dim3,
        block: Dim3,
        params: &[u32],
        smem_bytes: u32,
        opts: &SimOptions,
    ) -> KernelStats {
        self.begin_launch(program, grid, block, params, smem_bytes, opts).finish()
    }

    /// Starts a launch without running it, returning a resumable
    /// [`LaunchFrame`] that executes the kernel in caller-controlled
    /// cycle slices. This is the step-wise device API a serving scheduler
    /// needs: a long launch can be advanced a quantum at a time, checked
    /// for progress, and interleaved with bookkeeping, and the final
    /// statistics are byte-identical to a one-shot [`launch`](Self::launch)
    /// (slicing only chunks the same deterministic loop).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`launch`](Self::launch).
    pub fn begin_launch<'a>(
        &'a mut self,
        program: &'a KernelProgram,
        grid: Dim3,
        block: Dim3,
        params: &[u32],
        smem_bytes: u32,
        opts: &SimOptions,
    ) -> LaunchFrame<'a> {
        assert!(
            params.len() as u32 >= program.param_count(),
            "kernel {} expects {} params, got {}",
            program.name(),
            program.param_count(),
            params.len()
        );
        // A CTA gets, and occupancy is limited by, what the statistics
        // report: the larger of the request and the program's own need.
        let smem_bytes = program.smem_bytes().max(smem_bytes);
        let cta_threads = block.count() as u32;
        assert!(
            cta_threads <= 1024,
            "kernel {}: {} threads per block exceeds the 1024-thread CUDA limit",
            program.name(),
            cta_threads
        );

        let policy = opts.scheduler.unwrap_or(self.config.scheduler);
        let l1_geometry: Option<CacheGeometry> = match opts.l1d_bytes {
            None => self.config.l1d,
            Some(0) => None,
            Some(bytes) => Some(CacheGeometry::new(bytes, self.config.l2.line_bytes, 8)),
        };
        let line_bytes = self.config.l2.line_bytes;

        // Batch replication: `batch` copies of the grid are dispatched
        // replica-major, each replica CTA mapping to its base coordinates
        // (identical program, identical data, identical — idempotent —
        // writes). The first `grid.count()` CTAs are therefore exactly the
        // unbatched launch, so outputs never depend on the batch factor.
        let base_ctas = grid.count();
        let total_ctas = base_ctas * opts.batch.max(1) as u64;
        let sim_ctas = total_ctas.min(opts.cta_sample_limit.unwrap_or(u64::MAX)).max(1);

        let regs_per_thread = program.register_count().max(1);
        let ctas_per_sm = self
            .config
            .ctas_per_sm(cta_threads, regs_per_thread, smem_bytes)
            .min(self.config.max_ctas_per_sm);
        let warps_per_cta = self.config.warps_per_cta(cta_threads);

        let meter = PowerMeter::new(self.config.power, self.config.clock_ghz, opts.power_window);

        // Launch memoization (DESIGN.md section 14): a launch is a pure
        // function of its static description plus the device state it
        // reads, so an identical earlier launch can be replayed exactly —
        // write log applied, recorded post-hierarchy installed, recorded
        // stats returned — instead of simulated.
        let mut replayed = None;
        let mut recorder = None;
        if memo::enabled(opts.memo) {
            let key = memo::static_key(program, grid, block, params, smem_bytes, self.config_sig, opts);
            match memo::lookup(key, self.memsys.state_tag(), &mut self.mem) {
                Some((stats, post_memsys)) => {
                    // The recorded state itself, counters and all: the
                    // device shares it with the table and copies nothing.
                    self.memsys = Hierarchy::Shared(post_memsys);
                    replayed = Some(stats);
                }
                None => {
                    let mut rec = MemoRecorder::new(key, self.memsys.state_tag(), self.mem.size_bytes());
                    // One static verification per static key: a proof that
                    // every global access is an aligned word lets the
                    // recorder drop its per-access poison probes.
                    if memo::certification(key, || {
                        self.verify_launch(program, grid, block, params).aligned_certified
                    }) {
                        rec.certify();
                    }
                    recorder = Some(rec);
                }
            }
        }
        let done = replayed.is_some();
        if !done {
            // A live launch mutates the hierarchy, so the device must own
            // it: the one place a state shared with the memo table is
            // copied. Then stamp a fresh tag *before* simulation mutates
            // anything, so an abandoned frame can never leave a stale tag
            // describing a state that no longer exists.
            let memsys = self.memsys.make_owned();
            memsys.reset_stats();
            memsys.refresh_tag();
        }
        debug_assert!(
            done || matches!(self.memsys, Hierarchy::Owned(_)),
            "kernel {}: a live launch is starting on a hierarchy the memo table can still reach",
            program.name()
        );
        let cycle = replayed.as_ref().map_or(0, |s| s.cycles);
        let next_cta = if done { sim_ctas } else { 0 };

        // A replayed launch never cycles, so it decodes nothing (and, like
        // any launch, builds an SM only when a CTA is dispatched to it).
        let (decoded, tid_rows) = if done {
            (Vec::new(), Vec::new())
        } else {
            (decode_program(program, grid, block), exec::tid_rows(block))
        };

        // Launch span: opened here at the thread's virtual cursor, closed
        // by `finish` at cursor + (extrapolated) cycles, so launch spans
        // tile the inference timeline and sum to the reported total.
        let vbase = tango_obs::virtual_now();
        tango_obs::vspan_begin("sim.launch", program.name());

        LaunchFrame {
            gpu: self,
            program,
            params: params.to_vec(),
            grid,
            block,
            smem_bytes,
            sms: Vec::new(),
            l1_geometry,
            warps_per_cta,
            policy,
            decoded,
            tid_rows,
            meter,
            agg: LaunchAgg::default(),
            line_bytes,
            base_ctas,
            total_ctas,
            sim_ctas,
            ctas_per_sm,
            regs_per_thread,
            next_cta,
            cycle,
            weight: 1,
            done,
            recorder,
            replayed,
            vbase,
            last_gauge: 0,
        }
    }
}

/// Whether `TANGO_DEBUG_HANG` is set, sampled at first use: the launch
/// loop asks once per step.
fn debug_hang() -> bool {
    static FLAG: OnceLock<bool> = OnceLock::new();
    *FLAG.get_or_init(|| !matches!(tango_obs::env::DEBUG_HANG.raw(), Ok(None)))
}

/// Whether a [`LaunchFrame`] still has work left.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepStatus {
    /// The launch has not retired every CTA yet.
    Running,
    /// The launch is complete; call [`LaunchFrame::finish`].
    Done,
}

/// An in-flight kernel launch that can be advanced incrementally.
///
/// Created by [`Gpu::begin_launch`]; holds the full mid-launch machine
/// state (SM pipelines, power meter, aggregation counters, the CTA
/// dispatch cursor and the virtual-cycle clock), so execution can stop at
/// any cycle boundary and resume later with no observable difference.
/// Dropping a frame abandons the launch (device memory keeps whatever the
/// executed prefix wrote).
///
/// # Example
///
/// ```
/// use tango_isa::{DType, Dim3, KernelBuilder, Operand};
/// use tango_sim::{Gpu, GpuConfig, SimOptions, StepStatus};
///
/// let mut b = KernelBuilder::new("fill");
/// let tid = b.global_tid_x();
/// let addr = b.reg();
/// let base = b.load_param(0);
/// b.shl(DType::U32, addr, tid.into(), Operand::imm_u32(2));
/// b.add(DType::U32, addr, addr.into(), base.into());
/// b.st_global(DType::U32, addr, 0, tid);
/// b.exit();
/// let program = b.build().expect("valid program");
///
/// let mut gpu = Gpu::new(GpuConfig::gp102());
/// let out = gpu.alloc_bytes(64 * 4);
/// let mut frame = gpu.begin_launch(&program, Dim3::x(2), Dim3::x(32), &[out], 0, &SimOptions::new());
/// while frame.step(8) == StepStatus::Running {}
/// let stats = frame.finish();
/// assert!(stats.cycles > 0);
/// ```
pub struct LaunchFrame<'a> {
    gpu: &'a mut Gpu,
    program: &'a KernelProgram,
    params: Vec<u32>,
    grid: Dim3,
    block: Dim3,
    smem_bytes: u32,
    /// The SMs that have been given a CTA, in SM-index order: a launch
    /// that fills four SMs builds four.
    sms: Vec<Sm>,
    l1_geometry: Option<CacheGeometry>,
    warps_per_cta: u32,
    policy: SchedulerPolicy,
    /// The program as micro-ops for this launch's geometry, indexed by pc.
    decoded: Vec<DecodedInst>,
    /// `tid.{x,y,z}` lane vectors of each warp of a CTA.
    tid_rows: Vec<[Row; 3]>,
    meter: PowerMeter,
    agg: LaunchAgg,
    line_bytes: u32,
    base_ctas: u64,
    total_ctas: u64,
    sim_ctas: u64,
    ctas_per_sm: u32,
    regs_per_thread: u32,
    next_cta: u64,
    cycle: u64,
    weight: u64,
    done: bool,
    /// Memo recorder for a live launch that is being recorded.
    recorder: Option<MemoRecorder>,
    /// Recorded stats installed by a memo hit; returned by `finish`.
    replayed: Option<KernelStats>,
    vbase: u64,
    last_gauge: u64,
}

impl LaunchFrame<'_> {
    /// The launch's current virtual cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// CTAs dispatched so far (of [`ctas_to_simulate`](Self::ctas_to_simulate)).
    pub fn ctas_dispatched(&self) -> u64 {
        self.next_cta
    }

    /// CTAs this launch will simulate in detail (after sampling).
    pub fn ctas_to_simulate(&self) -> u64 {
        self.sim_ctas
    }

    /// Whether the launch has completed.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// One iteration of the launch loop: dispatch pending CTAs, cycle
    /// every SM once, advance the clock (event-skipping dead spans).
    fn step_once(&mut self) {
        let Gpu { config, mem, memsys, .. } = &mut *self.gpu;
        let memsys = memsys.owned_mut();

        // Dispatch pending CTAs round-robin across SMs (one per SM per
        // pass, like the hardware work distributor) so partial grids
        // spread over the whole machine instead of packing a few SMs.
        while self.next_cta < self.sim_ctas {
            let mut placed = false;
            for i in 0..config.num_sms as usize {
                if self.next_cta >= self.sim_ctas {
                    break;
                }
                if i == self.sms.len() {
                    self.sms.push(Sm::new(
                        config,
                        self.l1_geometry,
                        self.ctas_per_sm,
                        self.warps_per_cta,
                        self.params.len(),
                        Scheduler::new(self.policy, 6),
                    ));
                }
                let sm = &mut self.sms[i];
                if sm.has_room() {
                    let id = self.next_cta % self.base_ctas;
                    let x = (id % self.grid.x as u64) as u32;
                    let y = ((id / self.grid.x as u64) % self.grid.y as u64) as u32;
                    let z = (id / (self.grid.x as u64 * self.grid.y as u64)) as u32;
                    sm.accept_cta([x, y, z], self.program, self.block, self.smem_bytes);
                    self.next_cta += 1;
                    placed = true;
                }
            }
            if !placed {
                break;
            }
        }

        let mut any_active = false;
        let mut active_sms = 0u32;
        let mut next_event = u64::MAX;
        let mut env = SmEnv {
            cycle: self.cycle,
            weight: self.weight,
            mem,
            memsys,
            meter: &mut self.meter,
            agg: &mut self.agg,
            decoded: &self.decoded,
            params: &self.params,
            tid_rows: &self.tid_rows,
            line_bytes: self.line_bytes,
            rec: self.recorder.as_mut(),
        };
        // In SM-index order: the shared L2/DRAM sees accesses in the order
        // the SMs are visited. An SM without a resident warp has nothing
        // to do and nothing to report.
        for sm in self.sms.iter_mut().filter(|sm| sm.is_active()) {
            let (active, hint) = sm.cycle(&mut env);
            any_active |= active;
            if active {
                active_sms += 1;
            }
            next_event = next_event.min(hint);
        }
        self.meter
            .charge_static_span(self.cycle, self.weight, config.num_sms - active_sms, active_sms);

        // Live occupancy gauge: how many SMs did work this cycle,
        // sampled sparsely so ramp-up and tail drain show in the trace.
        if tango_obs::is_enabled() && self.cycle >= self.last_gauge.saturating_add(GAUGE_INTERVAL) {
            self.last_gauge = self.cycle;
            tango_obs::vcounter_at(self.vbase + self.cycle, "sim.sm", "active_sms", active_sms as i64);
        }

        if !any_active && self.next_cta >= self.sim_ctas {
            self.done = true;
            return;
        }
        // Event skip: when every SM is stalled on a known future time,
        // jump straight to it instead of ticking the dead cycles.
        // Stall samples and static power for the skipped span are
        // charged via `weight` on the next iteration.
        let target = next_event.clamp(self.cycle + 1, self.cycle + 1_000_000);
        self.weight = target - self.cycle;
        self.cycle = target;
        if debug_hang() && self.cycle > 5_000 && self.cycle % 2048 < self.weight {
            for (i, sm) in self.sms.iter().enumerate() {
                if sm.is_active() {
                    eprintln!("[hang] cycle {} sm {i}: {}", self.cycle, sm.debug_state(self.cycle, self.program));
                }
            }
        }
        assert!(
            self.cycle < MAX_CYCLES,
            "kernel {} exceeded the cycle safety valve",
            self.program.name()
        );
    }

    /// Advances the launch by at least `budget` virtual cycles (the last
    /// event skip may overshoot) or to completion, whichever is first.
    pub fn step(&mut self, budget: u64) -> StepStatus {
        let target = self.cycle.saturating_add(budget.max(1));
        while !self.done && self.cycle < target {
            self.step_once();
        }
        if self.done {
            StepStatus::Done
        } else {
            StepStatus::Running
        }
    }

    /// Runs any remaining work to completion and assembles the launch
    /// statistics (identical to what a one-shot [`Gpu::launch`] returns).
    pub fn finish(mut self) -> KernelStats {
        // A memo hit already produced the launch's exact statistics (and
        // applied its memory effects) at `begin_launch`.
        if let Some(stats) = self.replayed.take() {
            return stats;
        }
        while !self.done {
            self.step_once();
        }

        let mut l1d = crate::stats::CacheStats::default();
        let mut max_resident_threads = 0;
        for sm in &self.sms {
            if let Some(c) = &sm.l1d {
                l1d.merge(&c.stats());
            }
            max_resident_threads = max_resident_threads.max(sm.peak_threads);
        }
        let (energy, peak_power_w, _trace) = self.meter.finish();

        let mut stats = KernelStats {
            name: self.program.name().to_string(),
            cycles: self.cycle.max(1),
            warp_instructions: self.agg.warp_instructions,
            thread_instructions: self.agg.thread_instructions,
            op_counts: self.agg.op_counts_map(),
            dtype_counts: self.agg.dtype_counts_map(),
            stalls: self.agg.stalls,
            l1d,
            l2: self.gpu.memsys.l2_stats(),
            dram_accesses: self.gpu.memsys.dram_accesses(),
            const_accesses: self.agg.const_accesses,
            shared_accesses: self.agg.shared_accesses,
            regs_per_thread: self.regs_per_thread,
            live_regs_per_thread: max_live_registers(self.program),
            max_resident_threads,
            smem_bytes: self.smem_bytes,
            cmem_bytes: self.program.cmem_bytes(),
            energy,
            peak_power_w,
            avg_power_w: 0.0,
            time_s: self.cycle.max(1) as f64 / (self.gpu.config.clock_ghz * 1e9),
            ctas_total: self.total_ctas,
            ctas_simulated: self.sim_ctas,
        };
        if self.total_ctas > self.sim_ctas {
            // Counts extrapolate linearly with CTAs; time extrapolates by
            // machine waves (a grid that still fits residency runs wider,
            // not longer).
            let capacity = (self.gpu.config.num_sms as u64 * self.ctas_per_sm as u64).max(1) as f64;
            let waves_total = (self.total_ctas as f64 / capacity).max(1.0);
            let waves_sim = (self.sim_ctas as f64 / capacity).max(1.0);
            stats.scale_split(self.total_ctas as f64 / self.sim_ctas as f64, waves_total / waves_sim);
        }
        stats.avg_power_w = if stats.time_s > 0.0 {
            stats.energy.total() / stats.time_s
        } else {
            0.0
        };
        // Wave-based extrapolation can raise the full-grid average above
        // the sampled-prefix peak (more CTAs in flight in the same waves);
        // the peak is by definition at least the average.
        stats.peak_power_w = stats.peak_power_w.max(stats.avg_power_w);

        if let Some(rec) = self.recorder.take() {
            memo::record(rec, &mut self.gpu.memsys, &stats);
        }

        if tango_obs::is_enabled() {
            // Close the launch span at the extrapolated end and surface
            // the run's cache, stall, and occupancy totals as trace
            // counters at that instant.
            let end = self.vbase + stats.cycles;
            tango_obs::vcounter_at(end, "sim.cache", "l1d_hits", stats.l1d.hits as i64);
            tango_obs::vcounter_at(end, "sim.cache", "l1d_misses", stats.l1d.misses as i64);
            tango_obs::vcounter_at(end, "sim.cache", "l2_hits", stats.l2.hits as i64);
            tango_obs::vcounter_at(end, "sim.cache", "l2_misses", stats.l2.misses as i64);
            tango_obs::vcounter_at(end, "sim.cache", "dram_accesses", stats.dram_accesses as i64);
            tango_obs::vcounter_at(end, "sim.inst", "warp_instructions", stats.warp_instructions as i64);
            tango_obs::vcounter_at(end, "sim.inst", "thread_instructions", stats.thread_instructions as i64);
            for (reason, count) in stats.stalls.iter() {
                if count > 0 {
                    tango_obs::vcounter_at(end, "sim.stall", reason.name(), count as i64);
                }
            }
            for (i, sm) in self.sms.iter().enumerate() {
                if sm.peak_threads > 0 {
                    let name = format!("sm{i}_peak_threads");
                    tango_obs::vcounter_at(end, "sim.occupancy", &name, sm.peak_threads as i64);
                }
            }
            tango_obs::vspan_end_at(end, "sim.launch", self.program.name());
            tango_obs::advance_virtual(stats.cycles);
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchedulerPolicy;
    use crate::stats::StallReason;
    use tango_isa::{CmpOp, DType, KernelBuilder, Operand, Special};

    fn saxpy_program() -> KernelProgram {
        // y[tid] = a * x[tid] + y[tid]
        let mut b = KernelBuilder::new("saxpy");
        let tid = b.global_tid_x();
        let off = b.reg();
        let xa = b.reg();
        let ya = b.reg();
        let xv = b.reg();
        let yv = b.reg();
        let x_base = b.load_param(0);
        let y_base = b.load_param(1);
        let a_bits = b.load_param(2);
        b.shl(DType::U32, off, tid.into(), Operand::imm_u32(2));
        b.add(DType::U32, xa, off.into(), x_base.into());
        b.add(DType::U32, ya, off.into(), y_base.into());
        b.ld_global(DType::F32, xv, xa, 0);
        b.ld_global(DType::F32, yv, ya, 0);
        b.mad(DType::F32, yv, a_bits.into(), xv.into(), yv.into());
        b.st_global(DType::F32, ya, 0, yv);
        b.exit();
        b.build().unwrap()
    }

    #[test]
    fn saxpy_computes_correctly_end_to_end() {
        let mut gpu = Gpu::new(GpuConfig::gp102());
        let n = 256;
        let x: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let y: Vec<f32> = (0..n).map(|i| (i * 2) as f32).collect();
        let x_addr = gpu.upload_f32s(&x);
        let y_addr = gpu.upload_f32s(&y);
        let params = [x_addr, y_addr, 0.5f32.to_bits()];
        let stats = gpu.launch(
            &saxpy_program(),
            Dim3::x(n as u32 / 64),
            Dim3::x(64),
            &params,
            0,
            &SimOptions::new(),
        );
        let out = gpu.download_f32s(y_addr, n);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, 0.5 * i as f32 + (i * 2) as f32, "element {i}");
        }
        assert!(stats.cycles > 0);
        assert!(stats.warp_instructions > 0);
        assert_eq!(stats.ctas_total, 4);
        assert!(stats.energy.total() > 0.0);
        assert!(stats.peak_power_w > 0.0);
    }

    #[test]
    fn multi_cta_grid_covers_all_blocks() {
        let mut gpu = Gpu::new(GpuConfig::tx1());
        let n = 1024usize;
        let x_addr = gpu.upload_f32s(&vec![1.0; n]);
        let y_addr = gpu.upload_f32s(&vec![0.0; n]);
        let params = [x_addr, y_addr, 2.0f32.to_bits()];
        gpu.launch(
            &saxpy_program(),
            Dim3::x(n as u32 / 32),
            Dim3::x(32),
            &params,
            0,
            &SimOptions::new().with_cta_sample_limit(None),
        );
        let out = gpu.download_f32s(y_addr, n);
        assert!(out.iter().all(|&v| v == 2.0));
    }

    #[test]
    fn cta_sampling_scales_statistics() {
        let mut gpu = Gpu::new(GpuConfig::gp102());
        let n = 4096usize;
        let x_addr = gpu.upload_f32s(&vec![1.0; n]);
        let y_addr = gpu.upload_f32s(&vec![0.0; n]);
        let params = [x_addr, y_addr, 2.0f32.to_bits()];
        let full = gpu.launch(
            &saxpy_program(),
            Dim3::x(128),
            Dim3::x(32),
            &params,
            0,
            &SimOptions::new().with_cta_sample_limit(None),
        );
        let mut gpu2 = Gpu::new(GpuConfig::gp102());
        let x2 = gpu2.upload_f32s(&vec![1.0; n]);
        let y2 = gpu2.upload_f32s(&vec![0.0; n]);
        let params2 = [x2, y2, 2.0f32.to_bits()];
        let sampled = gpu2.launch(
            &saxpy_program(),
            Dim3::x(128),
            Dim3::x(32),
            &params2,
            0,
            &SimOptions::new().with_cta_sample_limit(Some(32)),
        );
        assert_eq!(sampled.ctas_simulated, 32);
        assert_eq!(sampled.ctas_total, 128);
        // Extrapolated instruction count matches the full run exactly
        // (every CTA executes the identical program).
        assert_eq!(sampled.warp_instructions, full.warp_instructions);
    }

    fn reuse_program(iters: u32) -> KernelProgram {
        // Every thread reads the SAME `iters` floats: extreme reuse.
        let mut b = KernelBuilder::new("reuse");
        let i = b.reg();
        let acc = b.reg();
        let addr = b.reg();
        let v = b.reg();
        let p = b.pred();
        let base = b.load_param(0);
        b.mov(DType::U32, i, Operand::imm_u32(0));
        b.mov(DType::F32, acc, Operand::imm_f32(0.0));
        let top = b.place_new_label();
        b.shl(DType::U32, addr, i.into(), Operand::imm_u32(2));
        b.add(DType::U32, addr, addr.into(), base.into());
        b.ld_global(DType::F32, v, addr, 0);
        b.add(DType::F32, acc, acc.into(), v.into());
        b.add(DType::U32, i, i.into(), Operand::imm_u32(1));
        b.set(CmpOp::Lt, DType::U32, p, i.into(), Operand::imm_u32(iters));
        b.bra_if(p, true, top);
        b.exit();
        b.build().unwrap()
    }

    #[test]
    fn l1_disabled_pushes_traffic_to_l2() {
        let mut with_l1 = Gpu::new(GpuConfig::gp102());
        let buf = with_l1.upload_f32s(&vec![1.0; 512]);
        let s1 = with_l1.launch(&reuse_program(512), Dim3::x(4), Dim3::x(128), &[buf], 0, &SimOptions::new());
        let mut no_l1 = Gpu::new(GpuConfig::gp102());
        let buf2 = no_l1.upload_f32s(&vec![1.0; 512]);
        let s2 = no_l1.launch(
            &reuse_program(512),
            Dim3::x(4),
            Dim3::x(128),
            &[buf2],
            0,
            &SimOptions::new().with_l1d_bytes(0),
        );
        assert!(s1.l1d.accesses > 0);
        assert_eq!(s2.l1d.accesses, 0);
        assert!(s2.l2.accesses > s1.l2.accesses * 5, "L2 should absorb the reuse traffic");
        assert!(s2.cycles > s1.cycles, "no-L1 run should be slower");
    }

    #[test]
    fn schedulers_all_complete_with_same_results() {
        let n = 512usize;
        let mut outputs = Vec::new();
        for policy in SchedulerPolicy::ALL {
            let mut gpu = Gpu::new(GpuConfig::gp102());
            let x_addr = gpu.upload_f32s(&(0..n).map(|i| i as f32).collect::<Vec<_>>());
            let y_addr = gpu.upload_f32s(&vec![1.0; n]);
            let params = [x_addr, y_addr, 3.0f32.to_bits()];
            let stats = gpu.launch(
                &saxpy_program(),
                Dim3::x(8),
                Dim3::x(64),
                &params,
                0,
                &SimOptions::new().with_scheduler(policy),
            );
            assert!(stats.cycles > 0, "{policy} should complete");
            outputs.push(gpu.download_f32s(y_addr, n));
        }
        assert_eq!(outputs[0], outputs[1]);
        assert_eq!(outputs[1], outputs[2]);
    }

    #[test]
    fn stall_samples_are_collected() {
        let mut gpu = Gpu::new(GpuConfig::gp102());
        let n = 2048usize;
        let x_addr = gpu.upload_f32s(&vec![1.0; n]);
        let y_addr = gpu.upload_f32s(&vec![0.0; n]);
        let params = [x_addr, y_addr, 1.0f32.to_bits()];
        let stats = gpu.launch(&saxpy_program(), Dim3::x(16), Dim3::x(128), &params, 0, &SimOptions::new());
        assert!(stats.stalls.total() > 0);
        // A streaming kernel must show memory-related stalls.
        let memish = stats.stalls.count(StallReason::MemoryDependency)
            + stats.stalls.count(StallReason::MemoryThrottle);
        assert!(memish > 0);
    }

    #[test]
    fn footprint_tracks_uploads() {
        let mut gpu = Gpu::new(GpuConfig::gp102());
        assert_eq!(gpu.memory_footprint_bytes(), 0);
        let _ = gpu.upload_f32s(&vec![0.0; 1000]);
        assert!(gpu.memory_footprint_bytes() >= 4000);
    }

    #[test]
    #[should_panic(expected = "expects")]
    fn missing_params_panic() {
        let mut gpu = Gpu::new(GpuConfig::gp102());
        gpu.launch(&saxpy_program(), Dim3::x(1), Dim3::x(32), &[], 0, &SimOptions::new());
    }

    fn scale_program() -> KernelProgram {
        // out[tid] = 2 * x[tid] — pure (output disjoint from input), so
        // replica CTAs write identical values and batching is idempotent.
        let mut b = KernelBuilder::new("scale");
        let tid = b.global_tid_x();
        let off = b.reg();
        let xa = b.reg();
        let oa = b.reg();
        let v = b.reg();
        let x_base = b.load_param(0);
        let o_base = b.load_param(1);
        b.shl(DType::U32, off, tid.into(), Operand::imm_u32(2));
        b.add(DType::U32, xa, off.into(), x_base.into());
        b.add(DType::U32, oa, off.into(), o_base.into());
        b.ld_global(DType::F32, v, xa, 0);
        b.add(DType::F32, v, v.into(), v.into());
        b.st_global(DType::F32, oa, 0, v);
        b.exit();
        b.build().unwrap()
    }

    fn smem_bar_program() -> KernelProgram {
        // out[gt] = x[gt] + x[neighbour]: stage through shared memory, so
        // every warp parks at the barrier until its CTA's last warp arrives.
        let mut b = KernelBuilder::new("smem_bar");
        b.set_smem_bytes(128 * 4);
        let tid = b.reg();
        b.tid_x(tid);
        let gt = b.global_tid_x();
        let x_base = b.load_param(0);
        let o_base = b.load_param(1);
        let soff = b.reg();
        let ga = b.reg();
        let v = b.reg();
        let w = b.reg();
        b.shl(DType::U32, soff, tid.into(), Operand::imm_u32(2));
        b.mad_lo(DType::U32, ga, gt, Operand::imm_u32(4), x_base.into());
        b.ld_global(DType::F32, v, ga, 0);
        b.st_shared(DType::F32, soff, 0, v);
        b.bar();
        b.add(DType::U32, soff, soff.into(), Operand::imm_u32(4));
        b.and(DType::U32, soff, soff.into(), Operand::imm_u32(127 * 4));
        b.ld_shared(DType::F32, w, soff, 0);
        b.add(DType::F32, w, w.into(), v.into());
        b.mad_lo(DType::U32, ga, gt, Operand::imm_u32(4), o_base.into());
        b.st_global(DType::F32, ga, 0, w);
        b.exit();
        b.build().unwrap()
    }

    #[test]
    fn declared_shared_memory_is_allocated_whatever_the_launch_asks_for() {
        // `launch(.., 0, ..)` of a kernel that declares shared memory used
        // to size the CTA's array (and occupancy) from the 0.
        let program = smem_bar_program();
        let run = |smem_bytes: u32| {
            let n = 40 * 128;
            let mut gpu = Gpu::new(GpuConfig::tx1());
            let x = gpu.upload_f32s(&(0..n).map(|i| (i % 97) as f32).collect::<Vec<_>>());
            let y = gpu.upload_f32s(&vec![1.0; n]);
            let opts = SimOptions::new().with_cta_sample_limit(None).with_memo(false);
            let stats = gpu.launch(&program, Dim3::x(40), Dim3::x(128), &[x, y], smem_bytes, &opts);
            (format!("{stats:?}"), gpu.download_f32s(y, n))
        };
        let declared = run(program.smem_bytes());
        assert_eq!(run(0), declared);
        assert_eq!(run(program.smem_bytes() / 2), declared);
    }

    fn diverge2d_program() -> KernelProgram {
        // 2-D block. The last four threads leave through a guarded `exit`;
        // the rest split inside an `ssy` region (`rcp` on one side, `ex2`
        // on the other), reconverge, round-trip a value through `u16`, and
        // store under a predicate written by `set`.
        let mut b = KernelBuilder::new("diverge2d");
        let tx = b.reg();
        let ty = b.reg();
        let lin = b.reg();
        let bid = b.reg();
        let cta_threads = b.reg();
        let gt = b.reg();
        let xa = b.reg();
        let ya = b.reg();
        let v = b.reg();
        let w = b.reg();
        let k = b.reg();
        let p_exit = b.pred();
        let p_side = b.pred();
        let p_store = b.pred();
        b.tid_x(tx);
        b.tid_y(ty);
        b.mad_lo(DType::U32, lin, ty, Special::NTidX.into(), tx.into());
        b.ctaid_x(bid);
        b.mul(DType::U32, cta_threads, Special::NTidX.into(), Special::NTidY.into());
        b.mad_lo(DType::U32, gt, bid, cta_threads.into(), lin.into());
        let x_base = b.load_param(0);
        let y_base = b.load_param(1);
        let scale = b.load_param(2);
        b.mad_lo(DType::U32, xa, gt, Operand::imm_u32(4), x_base.into());
        b.mad_lo(DType::U32, ya, gt, Operand::imm_u32(4), y_base.into());
        b.ld_global(DType::F32, v, xa, 0);
        b.set(CmpOp::Ge, DType::U32, p_exit, lin.into(), Operand::imm_u32(124));
        b.exit();
        b.guard_last(p_exit, true);
        let l_else = b.label();
        let l_join = b.label();
        b.ssy(l_join);
        b.set(CmpOp::Lt, DType::U32, p_side, tx.into(), Operand::imm_u32(5));
        b.bra_if(p_side, true, l_else);
        b.add(DType::F32, w, v.into(), Operand::imm_f32(1.0));
        b.rcp(w, w.into());
        b.bra(l_join);
        b.place(l_else);
        b.mul(DType::F32, w, v.into(), Operand::imm_f32(0.125));
        b.ex2(w, w.into());
        b.place(l_join);
        b.mul(DType::F32, k, v.into(), Operand::imm_f32(1000.0));
        b.cvt(DType::U16, DType::F32, k, k.into());
        b.cvt(DType::F32, DType::U16, k, k.into());
        b.mad(DType::F32, w, k.into(), scale.into(), w.into());
        b.set(CmpOp::Gt, DType::F32, p_store, v.into(), Operand::imm_f32(40.0));
        b.st_global(DType::F32, ya, 0, w);
        b.guard_last(p_store, true);
        b.exit();
        b.build().unwrap()
    }

    /// The issue-stage exactness matrix: {GTO, LRR, TLV} x {L1D default,
    /// bypassed} x {streaming saxpy, the `reuse` loop, shared memory +
    /// `bar`, divergence in a 2-D block} on a TX1 (32 resident CTAs of 128
    /// threads) with grids past residency, so warp slots are recycled
    /// mid-launch. `run` drives each frame to its statistics; a row is
    /// (cell label, stats, output buffer).
    fn issue_matrix(mut run: impl FnMut(LaunchFrame<'_>) -> KernelStats) -> Vec<(String, KernelStats, Vec<f32>)> {
        let kernels: [(&str, KernelProgram, u32, Dim3); 4] = [
            ("saxpy", saxpy_program(), 80, Dim3::x(128)),
            ("reuse", reuse_program(48), 40, Dim3::x(128)),
            ("smem_bar", smem_bar_program(), 80, Dim3::x(128)),
            ("diverge2d", diverge2d_program(), 80, Dim3::xy(16, 8)),
        ];
        let mut out = Vec::new();
        for policy in SchedulerPolicy::ALL {
            for l1_bypass in [false, true] {
                for (name, program, grid, block) in &kernels {
                    let n = (*grid * 128) as usize;
                    let mut gpu = Gpu::new(GpuConfig::tx1());
                    let x = gpu.upload_f32s(&(0..n).map(|i| (i % 97) as f32).collect::<Vec<_>>());
                    let y = gpu.upload_f32s(&vec![1.0; n]);
                    let params = [x, y, 0.5f32.to_bits()];
                    let mut opts = SimOptions::new()
                        .with_scheduler(policy)
                        .with_cta_sample_limit(None)
                        .with_memo(false);
                    if l1_bypass {
                        opts = opts.with_l1d_bytes(0);
                    }
                    let frame = gpu.begin_launch(program, Dim3::x(*grid), *block, &params, program.smem_bytes(), &opts);
                    let stats = run(frame);
                    let label = format!("{policy}/{}/{name}", if l1_bypass { "no_l1" } else { "l1" });
                    out.push((label, stats, gpu.download_f32s(y, n)));
                }
            }
        }
        out
    }

    fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
        bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
    }

    #[test]
    fn issue_stage_statistics_match_the_recorded_goldens() {
        // FNV-1a of `format!("{stats:?}")`. The first three kernels of each
        // cell were recorded at the commit before the issue stage became
        // event-driven (stall cache + per-SM sleep), `diverge2d` (and the
        // FNV-1a of its output buffer's bits) at the commit before the
        // interpreter moved to decoded micro-ops. Every counter, the cycle
        // count, and every energy/peak-power float must match to the bit.
        const GOLDEN: [u64; 18] = [
            0x5f33ca1780801c41, 0x942b41823754d51a, 0x31fc35a3f5efeb2c, 0x810edac97c2a08fe, 0xda7b586f1ec44a52,
            0x302d166615066af8, 0x0e37f8defced5410, 0x0fce67d38c5ae5b7, 0x9ecfc10ac5c910f4, 0xf5c3c148511a1dd2,
            0x640e3d842c9d8512, 0xa68f5c673f9cc87c, 0x84f7a957ed00437b, 0x714d100c9c45f743, 0x6559e8abbab025dc,
            0xc19f8b242f88a820, 0x54c9f0f8b45a45e2, 0x50664d7dee74b656,
        ];
        const GOLDEN_DIVERGE2D: [u64; 6] = [
            0xec611062bd9464ec, 0xf5ffcc76aed2b952, 0x6b1832f210b4a6b3, 0x08620f9513cf0d33, 0xf0400be8ce66aec0,
            0x880c5b3f79dc430f,
        ];
        const GOLDEN_DIVERGE2D_OUTPUT: u64 = 0x5d610f5b0a31700d;
        let rows = issue_matrix(|frame| frame.finish());
        assert_eq!(rows.len(), GOLDEN.len() + GOLDEN_DIVERGE2D.len());
        let got: Vec<u64> = rows.iter().map(|(_, stats, _)| fnv1a(format!("{stats:?}").bytes())).collect();
        for (i, (label, stats, output)) in rows.iter().enumerate() {
            let (cell, kernel) = (i / 4, i % 4);
            let want = if kernel < 3 { GOLDEN[cell * 3 + kernel] } else { GOLDEN_DIVERGE2D[cell] };
            assert_eq!(got[i], want, "{label} diverged: {stats:?}\nall digests now: {got:#018x?}");
            if kernel == 3 {
                let out_digest = fnv1a(output.iter().flat_map(|v| v.to_bits().to_le_bytes()));
                assert_eq!(out_digest, GOLDEN_DIVERGE2D_OUTPUT, "{label} output diverged: {out_digest:#018x}");
                assert!(output.iter().any(|&v| v != 1.0) && output.contains(&1.0), "{label}: the guarded store must hit some lanes only");
            }
        }
    }

    #[test]
    fn stepwise_launch_matches_one_shot() {
        // `step(budget)` slices land inside event skips and SM sleeps;
        // slicing must only chunk the same deterministic loop.
        let one_shot = issue_matrix(|frame| frame.finish());
        let stepped = issue_matrix(|mut frame| {
            let mut steps = 0u32;
            while frame.step(7) == StepStatus::Running {
                steps += 1;
                assert!(steps < 10_000_000, "frame never completed");
            }
            assert!(frame.is_done());
            frame.finish()
        });
        for ((label, a, out_a), (_, b, out_b)) in one_shot.iter().zip(&stepped) {
            assert_eq!(out_a, out_b, "{label}");
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "{label}");
        }
    }

    #[test]
    fn interleaved_frames_on_two_devices_match_serial() {
        let n = 512usize;
        let serial = |dim: u32| {
            let mut gpu = Gpu::new(GpuConfig::gp102());
            let x_addr = gpu.upload_f32s(&vec![1.5; n]);
            let o_addr = gpu.alloc_bytes(n as u32 * 4);
            let stats = gpu.launch(&scale_program(), Dim3::x(dim), Dim3::x(64), &[x_addr, o_addr], 0, &SimOptions::new());
            stats.cycles
        };
        let (a_cycles, b_cycles) = (serial(8), serial(4));

        let mut gpu_a = Gpu::new(GpuConfig::gp102());
        let mut gpu_b = Gpu::new(GpuConfig::gp102());
        let xa = gpu_a.upload_f32s(&vec![1.5; n]);
        let oa = gpu_a.alloc_bytes(n as u32 * 4);
        let xb = gpu_b.upload_f32s(&vec![1.5; n]);
        let ob = gpu_b.alloc_bytes(n as u32 * 4);
        let pa = scale_program();
        let pb = scale_program();
        let opts = SimOptions::new();
        let mut fa = gpu_a.begin_launch(&pa, Dim3::x(8), Dim3::x(64), &[xa, oa], 0, &opts);
        let mut fb = gpu_b.begin_launch(&pb, Dim3::x(4), Dim3::x(64), &[xb, ob], 0, &opts);
        // Ping-pong between the two devices a quantum at a time.
        loop {
            let sa = fa.step(16);
            let sb = fb.step(16);
            if sa == StepStatus::Done && sb == StepStatus::Done {
                break;
            }
        }
        assert_eq!(fa.finish().cycles, a_cycles);
        assert_eq!(fb.finish().cycles, b_cycles);
    }

    #[test]
    fn batched_launch_preserves_outputs() {
        let n = 256usize;
        let run = |batch: u32| {
            let mut gpu = Gpu::new(GpuConfig::gp102());
            let x_addr = gpu.upload_f32s(&(0..n).map(|i| i as f32 * 0.25).collect::<Vec<_>>());
            let o_addr = gpu.alloc_bytes(n as u32 * 4);
            let stats = gpu.launch(
                &scale_program(),
                Dim3::x(4),
                Dim3::x(64),
                &[x_addr, o_addr],
                0,
                &SimOptions::new().with_batch(batch),
            );
            (stats, gpu.download_f32s(o_addr, n))
        };
        let (s1, out1) = run(1);
        let (s8, out8) = run(8);
        assert_eq!(out1, out8, "batch replication must not change outputs");
        assert_eq!(s1.ctas_total, 4);
        assert_eq!(s8.ctas_total, 32);
        // A 4-CTA grid nowhere near fills a GP102; batching it 8x mostly
        // fills idle SMs, so the cost grows sublinearly. (It can even come
        // in *under* the unbatched run: replica CTAs touch identical cache
        // lines, so their requests merge in the MSHRs.)
        assert!(s8.cycles < 8 * s1.cycles, "small grids must batch sublinearly");
    }

    #[test]
    fn batched_launch_scales_sampled_grids() {
        // A grid already past the sample limit: batching multiplies
        // ctas_total and extrapolated work linearly.
        let n = 64 * 256usize;
        let mut gpu = Gpu::new(GpuConfig::gp102());
        let x_addr = gpu.upload_f32s(&vec![1.0; n]);
        let o_addr = gpu.alloc_bytes(n as u32 * 4);
        let opts = SimOptions::new().with_cta_sample_limit(Some(16));
        let s1 = gpu.launch(&scale_program(), Dim3::x(256), Dim3::x(64), &[x_addr, o_addr], 0, &opts);
        let s4 = gpu.launch(
            &scale_program(),
            Dim3::x(256),
            Dim3::x(64),
            &[x_addr, o_addr],
            0,
            &opts.clone().with_batch(4),
        );
        assert_eq!(s1.ctas_total, 256);
        assert_eq!(s4.ctas_total, 1024);
        assert_eq!(s4.ctas_simulated, 16);
        assert!(s4.warp_instructions > 3 * s1.warp_instructions);
    }

    #[test]
    fn register_stats_are_populated() {
        let mut gpu = Gpu::new(GpuConfig::gp102());
        let n = 128usize;
        let x_addr = gpu.upload_f32s(&vec![1.0; n]);
        let y_addr = gpu.upload_f32s(&vec![0.0; n]);
        let params = [x_addr, y_addr, 1.0f32.to_bits()];
        let stats = gpu.launch(&saxpy_program(), Dim3::x(2), Dim3::x(64), &params, 0, &SimOptions::new());
        assert!(stats.regs_per_thread >= 6);
        assert!(stats.live_regs_per_thread <= stats.regs_per_thread);
        assert!(stats.max_resident_threads >= 64);
        assert!(stats.allocated_reg_bytes_per_sm() >= stats.live_reg_bytes_per_sm());
    }
}
