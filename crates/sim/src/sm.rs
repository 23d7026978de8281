//! The streaming-multiprocessor (SM) model: per-cycle issue, scoreboard,
//! functional-unit ports, L1D, MSHRs, barrier handling, stall attribution,
//! and per-event energy charging.

use crate::cache::Cache;
use crate::config::{CacheGeometry, GpuConfig, PowerConstants};
use crate::decode::{DecodedInst, DTYPE_ORDER};
use crate::exec::{self, ExecCtx, Ids, PendKind, Row, Warp};
use crate::mem::GlobalMemory;
use crate::memo::MemoRecorder;
use crate::memsys::MemorySystem;
use crate::power::{Component, PowerMeter};
use crate::sched::Scheduler;
use crate::stats::{StallBreakdown, StallReason};
use std::collections::BTreeMap;
use tango_isa::{AddrSpace, DType, Dim3, FuncUnit, KernelProgram, Opcode};

/// Resident thread-block bookkeeping.
#[derive(Debug)]
struct CtaRt {
    coords: [u32; 3],
    smem: Vec<u8>,
    threads: u32,
    warps_total: u32,
    warps_done: u32,
    barrier_arrived: u32,
}

/// Statistics accumulated across the launch (shared by all SMs).
///
/// Per-opcode/dtype counters are flat arrays indexed by discriminant (the
/// hot path increments one slot per issue instead of probing a map) and
/// fold back into the `KernelStats` `BTreeMap`s at launch finish — the
/// map iteration order is the discriminant order either way, so reports
/// are byte-identical.
#[derive(Debug, Default)]
pub(crate) struct LaunchAgg {
    pub warp_instructions: u64,
    pub thread_instructions: u64,
    pub op_counts: [u64; Opcode::ALL.len()],
    pub dtype_counts: [u64; DTYPE_ORDER.len()],
    pub stalls: StallBreakdown,
    pub const_accesses: u64,
    pub shared_accesses: u64,
}

impl LaunchAgg {
    /// Folds the flat opcode counters into the reporting map (zero entries
    /// omitted, exactly as the entry-API accumulation used to).
    pub fn op_counts_map(&self) -> BTreeMap<Opcode, u64> {
        Opcode::ALL
            .iter()
            .zip(self.op_counts.iter())
            .filter(|(_, &n)| n > 0)
            .map(|(&op, &n)| (op, n))
            .collect()
    }

    /// Folds the flat dtype counters into the reporting map.
    pub fn dtype_counts_map(&self) -> BTreeMap<DType, u64> {
        DTYPE_ORDER
            .iter()
            .zip(self.dtype_counts.iter())
            .filter(|(_, &n)| n > 0)
            .map(|(&t, &n)| (t, n))
            .collect()
    }
}

/// Everything an SM needs from the outside during one cycle.
pub(crate) struct SmEnv<'a> {
    pub cycle: u64,
    /// Machine cycles this call represents (>= 1; larger after a skip).
    pub weight: u64,
    pub mem: &'a mut GlobalMemory,
    pub memsys: &'a mut MemorySystem,
    pub meter: &'a mut PowerMeter,
    pub agg: &'a mut LaunchAgg,
    /// The launch's program as micro-ops, indexed by pc.
    pub decoded: &'a [DecodedInst],
    pub params: &'a [u32],
    /// `exec::tid_rows` of the launch's block.
    pub tid_rows: &'a [[Row; 3]],
    pub line_bytes: u32,
    /// Launch memo recorder, when this launch is being recorded.
    pub rec: Option<&'a mut MemoRecorder>,
}

/// One streaming multiprocessor.
pub(crate) struct Sm {
    cfg: SmCfg,
    power: PowerConstants,
    pub(crate) l1d: Option<Cache>,
    warps: Vec<Option<Warp>>,
    ctas: Vec<Option<CtaRt>>,
    mshr: Vec<u64>,
    /// Smallest entry of `mshr` (`u64::MAX` when empty): nothing retires
    /// before it, so the per-visit retain and the throttle hint are O(1).
    mshr_min: u64,
    sched: Scheduler,
    sched_block_until: u64,
    /// Per warp slot, the scoreboard stall last computed for its resident
    /// warp (see [`Sm::check_issue`]); `NO_STALL` when none is known.
    stall_cache: Vec<(StallReason, u64)>,
    /// Set by a zero-issue visit that proved nothing can change for a
    /// while; until `wake`, [`Sm::cycle`] returns without touching a warp.
    sleep: Option<Sleep>,
    const_warm: Vec<bool>,
    resident_threads: u32,
    pub(crate) peak_threads: u32,
    /// TLV's candidate order of the current visit (GTO and LRR are walked
    /// off the two lists below).
    order_scratch: Vec<usize>,
    /// Reused buffer for the slots that issued in the current visit.
    issued_scratch: Vec<usize>,
    /// Occupied warp slots, oldest-first (ages are monotone, so accepts
    /// append and finishes remove — no sorting in the hot loop).
    age_order: Vec<usize>,
    /// Occupied warp slots in ascending slot order (LRR's rotation base).
    slot_asc: Vec<usize>,
    /// Cycles of stall samples owed since the last sampling pass.
    sample_debt: u64,
    /// Live warp count (`is_active` in O(1)).
    resident_warps: u32,
    /// The lines the interpreter's last global memory op touched.
    line_scratch: Vec<u32>,
}

/// An all-stalled SM between two events (DESIGN.md section 14).
#[derive(Debug)]
struct Sleep {
    /// Cycle of the zero-issue visit that recorded this sleep.
    from: u64,
    /// First cycle at which some warp's classification can change.
    wake: u64,
    /// Resident warps per stall reason, as classified at `from`. Every
    /// skipped visit would have recorded exactly these.
    census: StallBreakdown,
}

/// Empty stall-cache entry: no cycle is below its ready cycle.
const NO_STALL: (StallReason, u64) = (StallReason::Other, 0);

/// How often (in weighted cycles) the stall sampler classifies every
/// resident warp. Zero-issue cycles always sample (their classification
/// doubles as the event-skip hint), so only dense issue regions are
/// decimated — fractions are preserved via sample weights.
const SAMPLE_PERIOD: u64 = 16;

/// The scalar knobs an SM consults every cycle (copied out of `GpuConfig`
/// so the env borrow stays small).
#[derive(Debug, Clone, Copy)]
struct SmCfg {
    issue_width: u32,
    sp_width: u32,
    sfu_width: u32,
    ldst_width: u32,
    alu_latency: u32,
    sfu_latency: u32,
    shared_latency: u32,
    const_latency: u32,
    l1_latency: u32,
    l2_latency: u32,
    mshrs: usize,
    fetch_bubble: u32,
    requeue_penalty: u32,
}

impl Sm {
    pub fn new(
        config: &GpuConfig,
        l1_geometry: Option<CacheGeometry>,
        cta_slots: u32,
        warps_per_cta: u32,
        param_count: usize,
        scheduler: Scheduler,
    ) -> Self {
        let warp_slots = (cta_slots * warps_per_cta) as usize;
        Sm {
            cfg: SmCfg {
                issue_width: config.issue_width,
                sp_width: config.sp_width,
                sfu_width: config.sfu_width,
                ldst_width: config.ldst_width,
                alu_latency: config.alu_latency,
                sfu_latency: config.sfu_latency,
                shared_latency: config.shared_latency,
                const_latency: config.const_latency,
                l1_latency: config.l1_latency,
                l2_latency: config.l2_latency,
                mshrs: config.mshrs_per_sm as usize,
                fetch_bubble: config.fetch_bubble,
                requeue_penalty: config.requeue_penalty,
            },
            power: config.power,
            l1d: l1_geometry.map(|g| Cache::new(g, false)),
            warps: (0..warp_slots).map(|_| None).collect(),
            ctas: (0..cta_slots as usize).map(|_| None).collect(),
            mshr: Vec::new(),
            mshr_min: u64::MAX,
            sched: scheduler,
            sched_block_until: 0,
            stall_cache: vec![NO_STALL; warp_slots],
            sleep: None,
            const_warm: vec![false; param_count],
            resident_threads: 0,
            peak_threads: 0,
            order_scratch: Vec::new(),
            issued_scratch: Vec::new(),
            age_order: Vec::new(),
            slot_asc: Vec::new(),
            sample_debt: 0,
            resident_warps: 0,
            line_scratch: Vec::new(),
        }
    }

    /// Whether a CTA slot is free.
    pub fn has_room(&self) -> bool {
        self.ctas.iter().any(Option::is_none)
    }

    /// Whether any warp is resident.
    pub fn is_active(&self) -> bool {
        self.resident_warps > 0
    }

    /// Installs a CTA and its warps.
    ///
    /// # Panics
    ///
    /// Panics if no CTA slot is free (callers check [`has_room`](Self::has_room)).
    pub fn accept_cta(&mut self, coords: [u32; 3], program: &KernelProgram, block: Dim3, smem_bytes: u32) {
        let cta_slot = self
            .ctas
            .iter()
            .position(Option::is_none)
            .expect("accept_cta requires a free slot");
        let threads = block.count() as u32;
        let warps_total = threads.div_ceil(32);
        self.ctas[cta_slot] = Some(CtaRt {
            coords,
            smem: vec![0; smem_bytes.max(4) as usize],
            threads,
            warps_total,
            warps_done: 0,
            barrier_arrived: 0,
        });
        let reg_count = program.register_count().max(1);
        let pred_count = program.pred_count().max(1);
        for w in 0..warps_total {
            let warp = Warp::new(cta_slot, w, block, reg_count, pred_count);
            let slot = self
                .warps
                .iter()
                .position(Option::is_none)
                .expect("warp slots sized for max residency");
            self.warps[slot] = Some(warp);
            self.stall_cache[slot] = NO_STALL;
            self.resident_warps += 1;
            self.age_order.push(slot); // ages are monotone: stays sorted
            let at = self.slot_asc.partition_point(|&s| s < slot);
            self.slot_asc.insert(at, slot);
        }
        self.resident_threads += threads;
        self.peak_threads = self.peak_threads.max(self.resident_threads);
        // New warps are new events: the next visit must be a real one (it
        // still settles the skipped span against the old census first).
        if let Some(sleep) = self.sleep.as_mut() {
            sleep.wake = 0;
        }
    }

    fn classify_pend(kind: PendKind) -> StallReason {
        match kind {
            PendKind::Mem | PendKind::Shared => StallReason::MemoryDependency,
            PendKind::Const => StallReason::ConstantMemoryDependency,
            _ => StallReason::ExecDependency,
        }
    }

    /// The pure scoreboard prefix of the issue check: fetch bubble, guard,
    /// source, destination and predicate-destination readiness, first
    /// failure wins. It reads only the warp's own state, which only the
    /// warp's own issue changes, and every condition is `ready > cycle`
    /// against a fixed `ready` — so a failing `(reason, ready)` stays the
    /// answer for every cycle below `ready`.
    fn scoreboard(warp: &Warp, d: &DecodedInst, cycle: u64) -> Option<(StallReason, u64)> {
        if warp.fetch_ready > cycle {
            return Some((StallReason::InstFetch, warp.fetch_ready));
        }
        if let Some((p, _)) = d.guard {
            let ready = warp.pred_ready[p as usize];
            if ready > cycle {
                return Some((StallReason::ExecDependency, ready));
            }
        }
        for &r in &d.reads[..d.nreads as usize] {
            let ready = warp.reg_ready[r as usize];
            if ready > cycle {
                return Some((Self::classify_pend(warp.reg_pend[r as usize]), ready));
            }
        }
        if let Some(dr) = d.dst {
            let ready = warp.reg_ready[dr as usize];
            if ready > cycle {
                return Some((Self::classify_pend(warp.reg_pend[dr as usize]), ready));
            }
        }
        if let Some(p) = d.pdst {
            let ready = warp.pred_ready[p as usize];
            if ready > cycle {
                return Some((StallReason::ExecDependency, ready));
            }
        }
        None
    }

    /// The structural tail of the issue check: functional-unit ports and
    /// MSHRs. Never cached — `ports` differs between the issue loop and the
    /// sampling pass of one cycle, and MSHRs fill as other warps issue.
    fn structural(&self, d: &DecodedInst, cycle: u64, ports: &Ports) -> Option<(StallReason, u64)> {
        let busy = match d.unit {
            FuncUnit::Sp => ports.sp >= self.cfg.sp_width,
            FuncUnit::Sfu => ports.sfu >= self.cfg.sfu_width,
            FuncUnit::LdSt => ports.ldst >= self.cfg.ldst_width,
            FuncUnit::Ctrl => false,
        };
        if busy {
            return Some((StallReason::PipeBusy, cycle + 1));
        }
        if d.is_global_mem && self.mshr.len() >= self.cfg.mshrs {
            return Some((StallReason::MemoryThrottle, self.mshr_min));
        }
        None
    }

    /// Scoreboard + structural check. `None` means the warp can issue now;
    /// otherwise returns the stall reason plus the earliest cycle at which
    /// the blocking condition can clear (`u64::MAX` for event-driven
    /// conditions like barriers, whose release is another warp's progress).
    ///
    /// A scoreboard stall is stored per slot and answered from the store
    /// until its ready cycle, before the warp itself is looked at;
    /// [`issue`](Self::issue) and [`accept_cta`](Self::accept_cta) clear
    /// it. A warp reaches a barrier by issuing `bar` and stores nothing
    /// while it waits there, so a live entry is never a parked warp's.
    #[inline(always)]
    fn check_issue(&mut self, slot: usize, env: &SmEnv<'_>, ports: &Ports) -> Option<(StallReason, u64)> {
        let cached = self.stall_cache[slot];
        if env.cycle < cached.1 {
            debug_assert_eq!(
                self.check_issue_uncached(slot, env, &Ports::default()),
                Some(cached),
                "stale stall cache, slot {slot}"
            );
            return Some(cached);
        }
        self.check_issue_fresh(slot, env, ports)
    }

    /// [`check_issue`](Self::check_issue) past the stall store: looks at
    /// the warp, and stores the scoreboard stall it finds.
    fn check_issue_fresh(&mut self, slot: usize, env: &SmEnv<'_>, ports: &Ports) -> Option<(StallReason, u64)> {
        let warp = self.warps[slot].as_ref().expect("checked occupied");
        if warp.at_barrier {
            return Some((StallReason::Sync, u64::MAX));
        }
        let d = &env.decoded[warp.pc() as usize];
        if let Some(stall) = Self::scoreboard(warp, d, env.cycle) {
            self.stall_cache[slot] = stall;
            return Some(stall);
        }
        self.structural(d, env.cycle, ports)
    }

    /// [`check_issue`](Self::check_issue) without the stall cache: the
    /// reference the debug-build sleep oracle classifies against.
    fn check_issue_uncached(&self, slot: usize, env: &SmEnv<'_>, ports: &Ports) -> Option<(StallReason, u64)> {
        let warp = self.warps[slot].as_ref().expect("checked occupied");
        if warp.at_barrier {
            return Some((StallReason::Sync, u64::MAX));
        }
        let d = &env.decoded[warp.pc() as usize];
        Self::scoreboard(warp, d, env.cycle).or_else(|| self.structural(d, env.cycle, ports))
    }

    /// Issues one warp-instruction: functional execution, timing update,
    /// cache traffic, and energy charges.
    ///
    /// The warp is worked on where it lives; its slot is vacated only when
    /// it finishes.
    fn issue(&mut self, slot: usize, env: &mut SmEnv<'_>, ports: &mut Ports) {
        let warp = self.warps[slot].as_mut().expect("checked occupied");
        self.stall_cache[slot] = NO_STALL;
        let decoded = env.decoded;
        let d = &decoded[warp.pc() as usize];
        let op = d.op;
        let dtype = d.dtype;
        let unit = d.unit;
        let dst = d.dst;
        let pdst = d.pdst;
        let reg_srcs = d.nreads as u32;
        let const_param_index = d.const_param_index;

        let cta_slot = warp.cta_slot;
        let out = {
            let cta = self.ctas[cta_slot].as_mut().expect("warp's CTA is resident");
            let mut ectx = ExecCtx {
                mem: env.mem,
                smem: &mut cta.smem,
                params: env.params,
                ids: Ids {
                    tid: &env.tid_rows[warp.warp_in_cta as usize],
                    cta: cta.coords,
                },
                line_bytes: env.line_bytes,
                lines: &mut self.line_scratch,
                rec: env.rec.as_deref_mut(),
            };
            exec::execute(warp, d, &mut ectx)
        };

        // Port usage.
        match unit {
            FuncUnit::Sp => ports.sp += 1,
            FuncUnit::Sfu => ports.sfu += 1,
            FuncUnit::LdSt => ports.ldst += 1,
            FuncUnit::Ctrl => {}
        }

        // Instruction counters.
        let lanes = out.exec_lanes.max(1) as u64;
        env.agg.warp_instructions += 1;
        env.agg.thread_instructions += lanes;
        env.agg.op_counts[op as usize] += lanes;
        env.agg.dtype_counts[dtype as usize] += lanes;

        // Per-issue energy.
        let p = &self.power;
        let lane_frac = (lanes as f64 / 32.0).max(1.0 / 32.0);
        env.meter.charge_nj(Component::Ibp, p.ibp_nj);
        env.meter.charge_nj(Component::Icp, p.icp_nj);
        env.meter.charge_nj(Component::Schedp, p.sched_nj);
        env.meter.charge_nj(Component::Pipep, p.pipe_nj);
        let rf_accesses = (reg_srcs + dst.map(|_| 1).unwrap_or(0)) as f64;
        if rf_accesses > 0.0 {
            env.meter.charge_nj(Component::Rfp, p.rf_access_nj * rf_accesses * lane_frac);
        }
        match unit {
            FuncUnit::Sp => {
                if dtype.is_float() {
                    env.meter.charge_nj(Component::Fpup, p.fpu_nj * lane_frac);
                } else {
                    env.meter.charge_nj(Component::Spp, p.sp_nj * lane_frac);
                }
            }
            FuncUnit::Sfu => env.meter.charge_nj(Component::Sfup, p.sfu_nj * lane_frac),
            _ => {}
        }

        // Timing.
        match op {
            Opcode::Ld | Opcode::St => match d.space.expect("validated memory op") {
                AddrSpace::Global => {
                    let is_store = op == Opcode::St;
                    let mut completion = env.cycle + self.cfg.l1_latency as u64;
                    for &line in &self.line_scratch {
                        let l1_hit = match self.l1d.as_mut() {
                            Some(l1) => {
                                env.meter.charge_nj(Component::Dcp, p.l1_nj);
                                l1.access(line, is_store)
                            }
                            None => false,
                        };
                        if l1_hit && !is_store {
                            completion = completion.max(env.cycle + self.cfg.l1_latency as u64);
                        } else {
                            let resp = env.memsys.access(env.cycle, line, is_store);
                            env.meter.charge_nj(Component::L2cp, p.l2_nj);
                            if !resp.l2_hit {
                                env.meter.charge_nj(Component::Mcp, p.mc_nj);
                                env.meter.charge_nj(Component::Nocp, p.noc_nj);
                                env.meter.charge_nj(Component::Dramp, p.dram_nj);
                            }
                            completion = completion.max(resp.completion_cycle);
                            self.mshr.push(resp.completion_cycle);
                            self.mshr_min = self.mshr_min.min(resp.completion_cycle);
                        }
                    }
                    if let Some(dr) = dst {
                        warp.reg_ready[dr as usize] = completion;
                        warp.reg_pend[dr as usize] = PendKind::Mem;
                    }
                }
                AddrSpace::Shared => {
                    env.agg.shared_accesses += out.shared_accesses as u64;
                    env.meter
                        .charge_nj(Component::Shrdp, p.shared_nj * out.shared_accesses as f64 / 8.0);
                    if let Some(dr) = dst {
                        warp.reg_ready[dr as usize] = env.cycle + self.cfg.shared_latency as u64;
                        warp.reg_pend[dr as usize] = PendKind::Shared;
                    }
                }
                AddrSpace::Const => {
                    env.agg.const_accesses += 1;
                    env.meter.charge_nj(Component::Ccp, p.const_nj);
                    let warm = const_param_index
                        .map(|i| {
                            let i = i as usize;
                            let w = self.const_warm.get(i).copied().unwrap_or(true);
                            if let Some(flag) = self.const_warm.get_mut(i) {
                                *flag = true;
                            }
                            w
                        })
                        .unwrap_or(true);
                    let lat = if warm { self.cfg.const_latency } else { self.cfg.l2_latency };
                    if let Some(dr) = dst {
                        warp.reg_ready[dr as usize] = env.cycle + lat as u64;
                        warp.reg_pend[dr as usize] = PendKind::Const;
                    }
                }
            },
            _ => {
                let lat = match unit {
                    FuncUnit::Sfu => self.cfg.sfu_latency,
                    _ => self.cfg.alu_latency,
                };
                if let Some(dr) = dst {
                    warp.reg_ready[dr as usize] = env.cycle + lat as u64;
                    warp.reg_pend[dr as usize] = PendKind::Alu;
                }
                if let Some(pr) = pdst {
                    warp.pred_ready[pr as usize] = env.cycle + lat as u64;
                }
            }
        }

        if out.redirect {
            warp.fetch_ready = env.cycle + self.cfg.fetch_bubble as u64;
        }

        let finished = out.warp_finished;
        if finished {
            self.sched.note_warp_finished(slot);
            self.resident_warps -= 1;
            self.age_order.retain(|&s| s != slot);
            self.slot_asc.retain(|&s| s != slot);
            self.warps[slot] = None;
        }

        if out.did_barrier || finished {
            let cta = self.ctas[cta_slot].as_mut().expect("cta resident");
            if out.did_barrier {
                cta.barrier_arrived += 1;
            }
            if finished {
                cta.warps_done += 1;
            }
            self.maybe_release_barrier(cta_slot);
            let cta_done = {
                let cta = self.ctas[cta_slot].as_ref().expect("cta resident");
                cta.warps_done == cta.warps_total
            };
            if cta_done {
                let cta = self.ctas[cta_slot].take().expect("cta resident");
                self.resident_threads -= cta.threads;
            }
        }
    }

    fn maybe_release_barrier(&mut self, cta_slot: usize) {
        let Some(cta) = self.ctas[cta_slot].as_mut() else {
            return;
        };
        let live = cta.warps_total - cta.warps_done;
        if live > 0 && cta.barrier_arrived >= live {
            cta.barrier_arrived = 0;
            for w in self.warps.iter_mut().flatten() {
                if w.cta_slot == cta_slot {
                    w.at_barrier = false;
                }
            }
        }
    }

    /// Drops the MSHR entries that completed by `cycle`; O(1) when none did.
    fn retire_mshrs(&mut self, cycle: u64) {
        if self.mshr_min <= cycle {
            self.mshr.retain(|&c| c > cycle);
            self.mshr_min = self.mshr.iter().copied().min().unwrap_or(u64::MAX);
        }
        debug_assert_eq!(self.mshr_min, self.mshr.iter().copied().min().unwrap_or(u64::MAX));
    }

    /// Runs one cycle. `env.weight` is the number of machine cycles this
    /// call represents (1 in dense regions; more after an event skip) and
    /// weights the stall-sampling counters.
    ///
    /// Returns `(still_active, next_event_cycle)`: the earliest future
    /// cycle at which this SM's state can change. When no SM can issue,
    /// the launch loop jumps straight to the minimum of these hints
    /// instead of ticking every stalled cycle.
    ///
    /// The launch clock follows the *minimum* hint over all SMs, so an SM
    /// whose own hint is far off is still visited on every other SM's
    /// events. A zero-issue visit therefore records a [`Sleep`]; visits
    /// before its wake cycle return here in O(1), and the waking visit
    /// settles what they would have sampled.
    pub fn cycle(&mut self, env: &mut SmEnv<'_>) -> (bool, u64) {
        if !self.is_active() {
            return (false, u64::MAX);
        }
        let cycle = env.cycle;
        self.retire_mshrs(cycle);

        if let Some(sleep) = &self.sleep {
            if cycle < sleep.wake {
                // What the skipped visit would have returned: every warp's
                // own hint is at or past `wake`, and a requeue penalty that
                // the sleeping visit itself started still bounds the hint.
                let hint = if cycle < self.sched_block_until {
                    sleep.wake.min(self.sched_block_until)
                } else {
                    sleep.wake
                };
                if cfg!(debug_assertions) {
                    self.assert_sleep_is_exact(env, sleep, hint);
                }
                return (true, hint);
            }
        }
        if let Some(sleep) = self.sleep.take() {
            // Each skipped visit sampled the census with its own weight;
            // the weights tile (from, previous visited cycle]. This step's
            // `env.weight` belongs to the classification made below.
            let skipped = (cycle - env.weight) - sleep.from;
            env.agg.stalls.merge_weighted(&sleep.census, skipped);
        }

        let mut ports = Ports::default();
        let mut issued_slots = std::mem::take(&mut self.issued_scratch);
        issued_slots.clear();
        let mut next_event = u64::MAX;

        if cycle >= self.sched_block_until {
            let mut walk = self.sched.walk(&self.age_order, &self.slot_asc, &mut self.order_scratch);
            // Debug-build oracle: the walk visits the copied order, less
            // the warps that finished under it.
            let mut expected = Vec::new();
            if cfg!(debug_assertions) {
                self.sched.order_into(&self.age_order, &self.slot_asc, &mut expected);
                expected.reverse();
            }
            while issued_slots.len() < self.cfg.issue_width as usize {
                let Some(slot) = walk.next(&self.age_order, &self.slot_asc, &self.order_scratch) else {
                    break;
                };
                // A vacant slot holds `NO_STALL`, so the stored-stall test
                // (which comes first in `check_issue`) cannot speak for it.
                if cycle >= self.stall_cache[slot].1 && self.warps[slot].is_none() {
                    continue; // named by TLV's copied order or as GTO's greedy slot
                }
                if cfg!(debug_assertions) {
                    let copied = std::iter::from_fn(|| expected.pop()).find(|&s| self.warps[s].is_some());
                    assert_eq!(copied, Some(slot), "in-place walk left the scheduler's order at cycle {cycle}");
                }
                match self.check_issue(slot, env, &ports) {
                    None => {
                        self.issue(slot, env, &mut ports);
                        if self.warps[slot].is_none() {
                            walk.note_warp_finished();
                        }
                        issued_slots.push(slot);
                        self.sched.note_issue(slot);
                    }
                    Some((reason, _hint)) => {
                        // Long-latency stalls (memory, barriers) force GTO/
                        // TLV to move the warp between queues; barriers in
                        // particular MUST leave TLV's active set or the
                        // releasing warps would never be scheduled.
                        if is_long_latency(reason) && self.sched.note_memory_stall(slot) {
                            self.sched_block_until = cycle + self.cfg.requeue_penalty as u64;
                        }
                        self.sched.note_blocked(slot);
                    }
                }
            }
        } else {
            next_event = next_event.min(self.sched_block_until);
        }

        // Warp-state sampling (Figure 7) and event hints for the skip
        // logic. Zero-issue cycles must classify every warp to find the
        // next event; dense regions sample every SAMPLE_PERIOD weighted
        // cycles and carry the debt in the sample weights.
        self.sample_debt += env.weight;
        let need_hints = issued_slots.is_empty();
        if need_hints || self.sample_debt >= SAMPLE_PERIOD {
            let weight = self.sample_debt;
            self.sample_debt = 0;
            let mut census = StallBreakdown::new();
            for i in 0..self.age_order.len() {
                let slot = self.age_order[i];
                if issued_slots.contains(&slot) {
                    continue;
                }
                let (reason, hint) = self
                    .check_issue(slot, env, &ports)
                    .unwrap_or((StallReason::NotSelected, cycle + 1));
                census.record(reason);
                next_event = next_event.min(hint.max(cycle + 1));
            }
            env.agg.stalls.merge_weighted(&census, weight);
            // Nothing issued and nothing can before `next_event`: the
            // visits in between would repeat this one. Only a scheduler
            // whose all-stalled walk is a no-op may skip them.
            if need_hints && next_event > cycle + 1 && self.sched.stalled_walk_is_idempotent() {
                self.sleep = Some(Sleep {
                    from: cycle,
                    wake: next_event,
                    census,
                });
            }
        }

        if !issued_slots.is_empty() {
            next_event = cycle + 1;
        }
        self.issued_scratch = issued_slots;
        (self.is_active(), next_event)
    }

    /// Debug-build oracle for a slept visit: classifying every resident
    /// warp without the stall cache must reproduce the stored census and
    /// the returned hint, and the issue walk the visit skipped must leave
    /// the scheduler exactly as it is.
    fn assert_sleep_is_exact(&self, env: &SmEnv<'_>, sleep: &Sleep, hint: u64) {
        let cycle = env.cycle;
        let ports = Ports::default();
        let mut census = StallBreakdown::new();
        let mut next_event = if cycle < self.sched_block_until {
            self.sched_block_until
        } else {
            u64::MAX
        };
        for &slot in &self.age_order {
            let (reason, warp_hint) = self
                .check_issue_uncached(slot, env, &ports)
                .unwrap_or_else(|| panic!("slot {slot} can issue at cycle {cycle} inside a sleep"));
            census.record(reason);
            next_event = next_event.min(warp_hint.max(cycle + 1));
        }
        assert_eq!(census, sleep.census, "sleep census drifted at cycle {cycle}");
        assert_eq!(next_event, hint, "sleep hint drifted at cycle {cycle}");
        if cycle >= self.sched_block_until {
            let mut sched = self.sched.clone();
            let mut order = Vec::new();
            sched.order_into(&self.age_order, &self.slot_asc, &mut order);
            for &slot in &order {
                let (reason, _) = self.check_issue_uncached(slot, env, &ports).expect("classified above");
                assert!(
                    !(is_long_latency(reason) && sched.note_memory_stall(slot)),
                    "skipped walk would start a requeue penalty at cycle {cycle}"
                );
                sched.note_blocked(slot);
            }
            assert_eq!(sched, self.sched, "skipped walk would move the scheduler at cycle {cycle}");
        }
    }
}

/// Stalls that make GTO/TLV requeue the warp.
fn is_long_latency(reason: StallReason) -> bool {
    matches!(
        reason,
        StallReason::MemoryDependency | StallReason::MemoryThrottle | StallReason::Sync
    )
}

impl Sm {
    /// Hang diagnosis helper (enabled by TANGO_DEBUG_HANG).
    pub fn debug_state(&self, cycle: u64, program: &KernelProgram) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(out, "age_order={:?} {} block_until={} ", self.age_order, self.sched.debug_tlv(), self.sched_block_until);
        for (slot, w) in self.warps.iter().enumerate() {
            if let Some(w) = w.as_ref() {
                let pc = w.pc() as usize;
                let _ = write!(
                    out,
                    "[w{} pc={} {} bar={} mask={:x} fr={}] ",
                    slot,
                    pc,
                    program.instructions()[pc].op,
                    w.at_barrier,
                    w.mask_debug(),
                    w.fetch_ready.saturating_sub(cycle),
                );
            }
        }
        out
    }
}

#[derive(Debug, Default)]
struct Ports {
    sp: u32,
    sfu: u32,
    ldst: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchedulerPolicy;
    use crate::decode::decode_program;
    use tango_isa::KernelBuilder;

    /// One visit of `sm` at `cycle` representing `weight` machine cycles.
    fn visit(sm: &mut Sm, world: &mut World, cycle: u64, weight: u64) -> (bool, u64) {
        let mut env = SmEnv {
            cycle,
            weight,
            mem: &mut world.mem,
            memsys: &mut world.memsys,
            meter: &mut world.meter,
            agg: &mut world.agg,
            decoded: &world.decoded,
            params: &world.params,
            tid_rows: &world.tid_rows,
            line_bytes: 128,
            rec: None,
        };
        sm.cycle(&mut env)
    }

    struct World {
        mem: GlobalMemory,
        memsys: MemorySystem,
        meter: PowerMeter,
        agg: LaunchAgg,
        program: KernelProgram,
        decoded: Vec<DecodedInst>,
        tid_rows: Vec<[Row; 3]>,
        params: Vec<u32>,
    }

    /// A kernel whose first use of its parameter waits out a cold
    /// constant-cache fill: a long stall with a single resident warp.
    fn world(config: &GpuConfig) -> World {
        let mut b = KernelBuilder::new("param_use");
        let base = b.load_param(0);
        b.st_global(DType::U32, base, 0, base);
        b.exit();
        let program = b.build().unwrap();
        let mut mem = GlobalMemory::new();
        let buf = mem.alloc(128);
        World {
            mem,
            memsys: MemorySystem::new(config),
            meter: PowerMeter::new(config.power, config.clock_ghz, 4096),
            agg: LaunchAgg::default(),
            decoded: decode_program(&program, Dim3::x(2), Dim3::x(32)),
            tid_rows: exec::tid_rows(Dim3::x(32)),
            program,
            params: vec![buf],
        }
    }

    #[test]
    fn accept_cta_wakes_a_sleeping_sm_and_settles_the_skipped_span() {
        let config = GpuConfig::gp102();
        let mut world = world(&config);
        let mut sm = Sm::new(&config, config.l1d, 2, 1, 1, Scheduler::new(SchedulerPolicy::Gto, 6));
        sm.stall_cache[1] = (StallReason::ExecDependency, u64::MAX); // stale entry of an earlier tenant
        sm.accept_cta([0, 0, 0], &world.program, Dim3::x(32), 0);

        // Tick until the lone warp waits on its parameter and the SM sleeps.
        let mut cycle = 0;
        while sm.sleep.is_none() {
            visit(&mut sm, &mut world, cycle, 1);
            cycle += 1;
            assert!(cycle < 100, "the cold parameter load never put the SM to sleep");
        }
        let from = cycle - 1;
        let wake = sm.sleep.as_ref().unwrap().wake;
        assert!(wake > from + 100, "a cold constant fill is a long sleep, got {from}..{wake}");
        let const_dep = |w: &World| w.agg.stalls.count(StallReason::ConstantMemoryDependency);
        let (before, issued) = (const_dep(&world), world.agg.warp_instructions);

        // A visit inside the sleep touches nothing and repeats the hint.
        assert_eq!(visit(&mut sm, &mut world, from + 3, 3), (true, wake));
        assert_eq!((const_dep(&world), world.agg.warp_instructions), (before, issued));

        // A new CTA is an event: its slot's stale stall is dropped, the
        // next visit is a real one, and the 3 skipped cycles are charged to
        // the sleeping warp's reason (this visit's 2 go to the sample debt,
        // because the new warp issues).
        sm.accept_cta([1, 0, 0], &world.program, Dim3::x(32), 0);
        assert_eq!(sm.stall_cache[1], NO_STALL);
        let (_, hint) = visit(&mut sm, &mut world, from + 5, 2);
        assert_eq!(hint, from + 6);
        assert!(sm.sleep.is_none());
        assert_eq!(world.agg.warp_instructions, issued + 1);
        assert_eq!(const_dep(&world), before + 3);
    }
}
