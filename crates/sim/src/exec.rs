//! Warp state and the functional interpreter.
//!
//! The simulator is execution-driven: when the SM issues a warp-instruction
//! the interpreter here actually performs it (reads simulated device memory,
//! does the arithmetic across the 32 lanes, writes results), so the output
//! of a simulated kernel is bit-comparable against the `tango-tensor`
//! reference operators. Timing (latencies, cache behaviour) is layered on
//! top by `sm.rs`.
//!
//! [`execute`] reads one decoded micro-op, matches its [`LaneKernel`] once,
//! and runs a lane loop that holds no per-lane dispatch: source operands
//! are gathered into 32-lane rows up front, and each arithmetic kernel is
//! its own monomorphised loop over those rows. [`alu`] is the one
//! definition of what every `(op, dtype)` pair computes: the loop for the
//! pairs without a kernel of their own, and the reference the others are
//! checked against (per lane in debug builds, exhaustively in the tests).

use crate::decode::{DecodedInst, LaneKernel, Src};
use crate::mem::GlobalMemory;
use crate::memo::MemoRecorder;
use tango_isa::{CmpOp, DType, Dim3, Opcode};

/// Reconvergence value meaning "no reconvergence point" (the base stack
/// entry).
const NO_RECONV: u32 = u32::MAX;

/// One value per lane of a warp.
pub(crate) type Row = [u32; 32];

/// The special registers a lane can read that are not launch-uniform.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Ids<'a> {
    /// Each lane's `tid.x`, `tid.y`, `tid.z` (the warp's entry of
    /// [`tid_rows`]).
    pub tid: &'a [Row; 3],
    /// `ctaid.{x,y,z}` of the warp's CTA.
    pub cta: [u32; 3],
}

/// What kind of result a pending register write is waiting on, for stall
/// classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum PendKind {
    /// Nothing pending.
    #[default]
    None,
    /// Arithmetic pipeline result.
    Alu,
    /// Global/local memory load.
    Mem,
    /// Constant-cache load.
    Const,
    /// Shared-memory load.
    Shared,
}

/// One SIMT reconvergence stack entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StackEntry {
    pub mask: u32,
    pub pc: u32,
    pub reconv: u32,
}

/// Per-warp architectural and micro-architectural state.
#[derive(Debug, Clone)]
pub(crate) struct Warp {
    /// Slot of the owning CTA within the SM.
    pub cta_slot: usize,
    /// Warp index within the CTA.
    pub warp_in_cta: u32,
    /// SIMT stack; the last entry is active.
    pub stack: Vec<StackEntry>,
    /// Reconvergence point armed by the most recent `ssy`.
    pub pending_reconv: u32,
    /// Register values, `reg * 32 + lane`.
    pub regs: Vec<u32>,
    /// Predicate registers, one 32-lane mask each.
    pub preds: Vec<u32>,
    /// Cycle at which each register's pending write completes.
    pub reg_ready: Vec<u64>,
    /// What the pending write (if any) is waiting on.
    pub reg_pend: Vec<PendKind>,
    /// Cycle at which each predicate's pending write completes.
    pub pred_ready: Vec<u64>,
    /// Cycle at which the next instruction is available (branch bubble).
    pub fetch_ready: u64,
    /// Waiting at a block barrier.
    pub at_barrier: bool,
    /// All lanes exited.
    pub done: bool,
}

impl Warp {
    /// Creates warp `warp_in_cta` of a CTA of `block` threads; its initial
    /// mask covers the lanes that fall inside the block.
    pub fn new(cta_slot: usize, warp_in_cta: u32, block: Dim3, reg_count: u32, pred_count: u32) -> Self {
        let active_lanes = (block.count() as u32 - warp_in_cta * 32).min(32);
        let mask = if active_lanes >= 32 {
            u32::MAX
        } else {
            (1u32 << active_lanes) - 1
        };
        Warp {
            cta_slot,
            warp_in_cta,
            stack: vec![StackEntry {
                mask,
                pc: 0,
                reconv: NO_RECONV,
            }],
            pending_reconv: NO_RECONV,
            regs: vec![0; (reg_count as usize) * 32],
            preds: vec![0; pred_count as usize],
            reg_ready: vec![0; reg_count as usize],
            reg_pend: vec![PendKind::None; reg_count as usize],
            pred_ready: vec![0; pred_count as usize],
            fetch_ready: 0,
            at_barrier: false,
            done: false,
        }
    }

    /// The active stack entry.
    pub fn top(&self) -> &StackEntry {
        self.stack.last().expect("warp stack never empty while running")
    }

    /// Current program counter.
    pub fn pc(&self) -> u32 {
        self.top().pc
    }

    /// Debug helper: current active mask.
    pub fn mask_debug(&self) -> u32 {
        self.top().mask
    }

    fn top_mut(&mut self) -> &mut StackEntry {
        self.stack.last_mut().expect("warp stack never empty while running")
    }

    /// Pops entries whose pc reached their reconvergence point.
    fn reconverge(&mut self) {
        while self.stack.len() > 1 {
            let top = *self.top();
            if top.pc == top.reconv || top.mask == 0 {
                self.stack.pop();
            } else {
                break;
            }
        }
    }

    /// The 32 lanes of register row `base` (`reg * 32`).
    fn row_mut(&mut self, base: usize) -> &mut Row {
        (&mut self.regs[base..base + 32]).try_into().expect("a register row is 32 lanes")
    }

    /// Gathers one source operand for all 32 lanes.
    #[inline(always)]
    fn row(&self, src: Src, ids: Ids<'_>) -> Row {
        match src {
            Src::Reg(base) => {
                let base = usize::from(base);
                self.regs[base..base + 32].try_into().expect("a register row is 32 lanes")
            }
            Src::Imm(v) => [v; 32],
            Src::Tid(axis) => ids.tid[usize::from(axis)],
            Src::CtaId(axis) => [ids.cta[usize::from(axis)]; 32],
        }
    }
}

/// Per-CTA execution context handed to the interpreter.
pub(crate) struct ExecCtx<'a> {
    pub mem: &'a mut GlobalMemory,
    pub smem: &'a mut [u8],
    pub params: &'a [u32],
    pub ids: Ids<'a>,
    pub line_bytes: u32,
    /// Receives the unique global-memory line addresses a global `ld`/`st`
    /// touches, in order of first appearance (the SM's reused buffer).
    pub lines: &'a mut Vec<u32>,
    /// Launch memo recorder, when this launch is being recorded.
    pub rec: Option<&'a mut MemoRecorder>,
}

/// Micro-architecturally relevant facts about one executed warp-instruction.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ExecOutcome {
    /// Lanes that actually executed (after guard masking).
    pub exec_lanes: u32,
    /// Shared-memory accesses performed (lane granularity).
    pub shared_accesses: u32,
    /// Whether the pc was redirected (taken branch — costs a fetch bubble).
    pub redirect: bool,
    /// Whether the warp arrived at a barrier.
    pub did_barrier: bool,
    /// Whether the warp fully exited.
    pub warp_finished: bool,
}

fn lane_thread_coords(warp_in_cta: u32, lane: u32, block: Dim3) -> (u32, u32, u32) {
    let linear = warp_in_cta * 32 + lane;
    let tx = linear % block.x;
    let ty = (linear / block.x) % block.y;
    let tz = linear / (block.x * block.y);
    (tx, ty, tz)
}

/// The `tid.{x,y,z}` lane vectors of every warp of a CTA of `block`
/// threads, indexed by `warp_in_cta`: computed once per launch, so reading
/// `tid.*` costs no divisions.
pub(crate) fn tid_rows(block: Dim3) -> Vec<[Row; 3]> {
    let warps = (block.count() as u32).div_ceil(32);
    (0..warps)
        .map(|warp_in_cta| {
            let mut tid = [[0; 32]; 3];
            for lane in 0..32 {
                let (x, y, z) = lane_thread_coords(warp_in_cta, lane, block);
                for (row, coord) in tid.iter_mut().zip([x, y, z]) {
                    row[lane as usize] = coord;
                }
            }
            tid
        })
        .collect()
}

/// Calls `f` for each lane set in `mask`, in ascending lane order. A full
/// mask is a plain counted loop, which is what lets the arithmetic kernels
/// vectorise.
#[inline(always)]
fn for_lanes(mask: u32, mut f: impl FnMut(usize)) {
    if mask == u32::MAX {
        for lane in 0..32 {
            f(lane);
        }
    } else {
        let mut m = mask;
        while m != 0 {
            f(m.trailing_zeros() as usize);
            m &= m - 1;
        }
    }
}

/// ALU evaluation of one lane. `bits` inputs are raw register contents.
fn alu(op: Opcode, dtype: DType, a: u32, b: u32, c: u32, cmp: Option<CmpOp>, src_dtype: Option<DType>) -> u32 {
    use DType::*;
    let fa = f32::from_bits(a);
    let fb = f32::from_bits(b);
    let fc = f32::from_bits(c);
    let narrow = |v: u32| -> u32 {
        match dtype {
            U16 => v & 0xFFFF,
            S16 => ((v as i32) << 16 >> 16) as u32,
            _ => v,
        }
    };
    match op {
        Opcode::Mov => narrow(a),
        Opcode::Add => match dtype {
            F32 => (fa + fb).to_bits(),
            _ => narrow(a.wrapping_add(b)),
        },
        Opcode::Sub => match dtype {
            F32 => (fa - fb).to_bits(),
            _ => narrow(a.wrapping_sub(b)),
        },
        Opcode::Mul => match dtype {
            F32 => (fa * fb).to_bits(),
            _ => narrow(a.wrapping_mul(b)),
        },
        Opcode::Mad | Opcode::Mad24 => match dtype {
            F32 => (fa * fb + fc).to_bits(),
            _ => narrow(a.wrapping_mul(b).wrapping_add(c)),
        },
        Opcode::Min => match dtype {
            F32 => fa.min(fb).to_bits(),
            S32 | S16 => ((a as i32).min(b as i32)) as u32,
            _ => a.min(b),
        },
        Opcode::Max => match dtype {
            F32 => fa.max(fb).to_bits(),
            S32 | S16 => ((a as i32).max(b as i32)) as u32,
            _ => a.max(b),
        },
        Opcode::Abs => match dtype {
            F32 => fa.abs().to_bits(),
            S32 | S16 => ((a as i32).wrapping_abs()) as u32,
            _ => a,
        },
        Opcode::And => a & b,
        Opcode::Or => a | b,
        Opcode::Xor => a ^ b,
        Opcode::Shl => narrow(a.wrapping_shl(b & 31)),
        Opcode::Shr => match dtype {
            S32 | S16 => ((a as i32) >> (b & 31)) as u32,
            _ => a.wrapping_shr(b & 31),
        },
        Opcode::Rcp => (1.0 / fa).to_bits(),
        Opcode::Rsqrt => (1.0 / fa.sqrt()).to_bits(),
        Opcode::Ex2 => fa.exp2().to_bits(),
        Opcode::Cvt => {
            let src = src_dtype.expect("validated cvt has src dtype");
            // Decode source value to a canonical f64, then encode to dest.
            let val: f64 = match src {
                F32 => f32::from_bits(a) as f64,
                S32 => (a as i32) as f64,
                U32 => a as f64,
                U16 => (a & 0xFFFF) as f64,
                S16 => (((a as i32) << 16) >> 16) as f64,
                Pred => (a != 0) as u32 as f64,
            };
            match dtype {
                F32 => (val as f32).to_bits(),
                S32 => (val as i32) as u32,
                U32 => val as u32,
                U16 => (val as u32) & 0xFFFF,
                S16 => (((val as i32) << 16) >> 16) as u32,
                Pred => (val != 0.0) as u32,
            }
        }
        Opcode::Set => {
            let cmp = cmp.expect("validated set has cmp");
            let t = match dtype {
                F32 => cmp.eval_f32(fa, fb),
                S32 | S16 => cmp.eval_s32(a as i32, b as i32),
                _ => cmp.eval_u32(a, b),
            };
            t as u32
        }
        _ => 0,
    }
}

/// The lane loop of a value-producing micro-op: `dst[lane] = f(a, b, c)`
/// over the lanes in `mask`. In debug builds every lane is checked against
/// [`alu`].
#[inline(always)]
fn lanes(warp: &mut Warp, d: &DecodedInst, mask: u32, ids: Ids<'_>, f: impl Fn(u32, u32, u32) -> u32) {
    let (a, b, c) = (warp.row(d.srcs[0], ids), warp.row(d.srcs[1], ids), warp.row(d.srcs[2], ids));
    let dst = warp.row_mut(d.dst_base().expect("value-producing micro-op has a destination"));
    for_lanes(mask, |lane| {
        let v = f(a[lane], b[lane], c[lane]);
        debug_assert_eq!(
            v,
            alu(d.op, d.dtype, a[lane], b[lane], c[lane], d.cmp, d.src_dtype),
            "{:?} kernel of {}.{} diverged from alu in lane {lane}",
            d.kernel,
            d.op,
            d.dtype
        );
        dst[lane] = v;
    });
}

/// [`lanes`] for an integer expression, narrowed as `alu` narrows: `u16`
/// keeps the low half, `s16` sign-extends it, every other type is 32 bits.
macro_rules! int_lanes {
    ($warp:expr, $d:expr, $mask:expr, $ids:expr, |$a:ident, $b:ident, $c:ident| $value:expr) => {
        match $d.dtype {
            DType::U16 => lanes($warp, $d, $mask, $ids, |$a, $b, $c| $value & 0xFFFF),
            DType::S16 => lanes($warp, $d, $mask, $ids, |$a, $b, $c| (($value as i32) << 16 >> 16) as u32),
            _ => lanes($warp, $d, $mask, $ids, |$a, $b, $c| $value),
        }
    };
}

/// The lane loop of `set` for one comparison `test`: writes the 0/1 result
/// to the destination register and/or the lane's bit of the destination
/// predicate.
#[inline(always)]
fn set_lanes(warp: &mut Warp, d: &DecodedInst, mask: u32, ids: Ids<'_>, test: impl Fn(u32, u32) -> bool) {
    let (a, b) = (warp.row(d.srcs[0], ids), warp.row(d.srcs[1], ids));
    let mut hit: Row = [0; 32];
    for_lanes(mask, |lane| {
        hit[lane] = test(a[lane], b[lane]) as u32;
        debug_assert_eq!(
            hit[lane],
            alu(Opcode::Set, d.dtype, a[lane], b[lane], 0, d.cmp, None),
            "set.{:?}.{} diverged from alu in lane {lane}",
            d.cmp,
            d.dtype
        );
    });
    if let Some(base) = d.dst_base() {
        let dst = warp.row_mut(base);
        for_lanes(mask, |lane| dst[lane] = hit[lane]);
    }
    if let Some(p) = d.pdst {
        let bits = hit.iter().enumerate().fold(0, |bits, (lane, &h)| bits | h << lane);
        let pred = &mut warp.preds[p as usize];
        *pred = (*pred & !mask) | bits;
    }
}

/// [`set_lanes`] with operands viewed as `T`, one loop per comparison.
#[inline(always)]
fn set_as<T: PartialOrd>(warp: &mut Warp, d: &DecodedInst, mask: u32, ids: Ids<'_>, view: impl Fn(u32) -> T) {
    match d.cmp.expect("validated set has cmp") {
        CmpOp::Lt => set_lanes(warp, d, mask, ids, |a, b| view(a) < view(b)),
        CmpOp::Le => set_lanes(warp, d, mask, ids, |a, b| view(a) <= view(b)),
        CmpOp::Gt => set_lanes(warp, d, mask, ids, |a, b| view(a) > view(b)),
        CmpOp::Ge => set_lanes(warp, d, mask, ids, |a, b| view(a) >= view(b)),
        CmpOp::Eq => set_lanes(warp, d, mask, ids, |a, b| view(a) == view(b)),
        CmpOp::Ne => set_lanes(warp, d, mask, ids, |a, b| view(a) != view(b)),
    }
}

/// Each lane's `ld`/`st` address: the address operand plus the offset.
#[inline(always)]
fn addr_row(warp: &Warp, d: &DecodedInst, ids: Ids<'_>) -> Row {
    let mut addrs = warp.row(d.srcs[0], ids);
    for addr in &mut addrs {
        *addr = addr.wrapping_add(d.offset);
    }
    addrs
}

/// Whether one bounds test covers every lane of a global access, so its
/// lanes can skip theirs. When it does not, the access takes the checked
/// accessors and dies in the first offending lane exactly as it always has.
fn global_access_in_bounds(mem: &GlobalMemory, addrs: &Row, mask: u32, wide: bool) -> bool {
    let bytes = if wide { 4 } else { 2 };
    let (mut lo, mut hi) = (u32::MAX, 0);
    for_lanes(mask, |lane| {
        lo = lo.min(addrs[lane]);
        hi = hi.max(addrs[lane]);
    });
    let covered = mem.in_bounds(lo, hi, bytes);
    if cfg!(debug_assertions) && mask != 0 {
        let mut each = true;
        for_lanes(mask, |lane| each &= mem.in_bounds(addrs[lane], addrs[lane], bytes));
        assert_eq!(covered, each, "warp bounds test [{lo:#x}, {hi:#x}] disagrees with the per-lane checks");
    }
    covered
}

/// The unique lines of one global access, in order of first appearance
/// (which is the order the caches see them).
struct LineSet<'a> {
    lines: &'a mut Vec<u32>,
    line_bytes: u32,
    /// First byte and length of the line touched last (empty before any).
    last_start: u32,
    last_len: u32,
}

impl<'a> LineSet<'a> {
    fn new(lines: &'a mut Vec<u32>, line_bytes: u32) -> Self {
        lines.clear();
        LineSet {
            lines,
            line_bytes,
            last_start: 0,
            last_len: 0,
        }
    }

    /// Coalesced lanes fall in the line the previous lane touched; only a
    /// lane that leaves it pays the division and the scan.
    #[inline(always)]
    fn touch(&mut self, addr: u32) {
        if addr.wrapping_sub(self.last_start) < self.last_len {
            return;
        }
        let line = addr / self.line_bytes;
        if !self.lines.contains(&line) {
            self.lines.push(line);
        }
        self.last_start = line * self.line_bytes;
        self.last_len = self.line_bytes;
    }
}

#[inline(always)]
fn ld_global(warp: &mut Warp, d: &DecodedInst, mask: u32, addrs: &Row, ctx: &mut ExecCtx<'_>, read: impl Fn(&GlobalMemory, u32) -> u32) {
    let mut lines = LineSet::new(ctx.lines, ctx.line_bytes);
    let dst = warp.row_mut(d.dst_base().expect("validated ld has dst"));
    for_lanes(mask, |lane| {
        let addr = addrs[lane];
        let v = read(ctx.mem, addr);
        if let Some(r) = ctx.rec.as_deref_mut() {
            r.on_global_read(addr, d.wide, v);
        }
        dst[lane] = v;
        lines.touch(addr);
    });
}

#[inline(always)]
fn st_global(d: &DecodedInst, mask: u32, addrs: &Row, values: &Row, ctx: &mut ExecCtx<'_>, write: impl Fn(&mut GlobalMemory, u32, u32)) {
    let mut lines = LineSet::new(ctx.lines, ctx.line_bytes);
    for_lanes(mask, |lane| {
        let (addr, value) = (addrs[lane], values[lane]);
        write(ctx.mem, addr, value);
        if let Some(r) = ctx.rec.as_deref_mut() {
            r.on_global_write(addr, d.wide, value);
        }
        lines.touch(addr);
    });
}

/// Executes one warp-instruction functionally and updates the warp's
/// control state. Returns the outcome facts the SM needs for timing,
/// caching, and power accounting; a global `ld`/`st` also leaves the lines
/// it touched in `ctx.lines`.
///
/// # Panics
///
/// Panics if a lane computes a global address outside every allocation —
/// that is a generated-kernel bug and aborting with the kernel state is the
/// most debuggable behaviour.
pub(crate) fn execute(warp: &mut Warp, d: &DecodedInst, ctx: &mut ExecCtx<'_>) -> ExecOutcome {
    let top = *warp.top();
    let pc = top.pc;
    let ids = ctx.ids;
    let mut out = ExecOutcome::default();

    // Guard evaluation (for non-branch ops it masks lanes; for branches it
    // is the branch condition).
    let guard_mask = match d.guard {
        None => top.mask,
        Some((p, sense)) => {
            let bits = warp.preds[p as usize];
            let m = if sense { bits } else { !bits };
            top.mask & m
        }
    };
    out.exec_lanes = guard_mask.count_ones();
    let mut next_pc = Some(pc + 1);

    match d.kernel {
        LaneKernel::Bra => {
            let taken = guard_mask;
            out.exec_lanes = top.mask.count_ones();
            if taken == 0 {
                // Falls through.
            } else if taken == top.mask {
                next_pc = Some(d.target);
                out.redirect = true;
            } else {
                // Divergence: split into fall-through and taken paths that
                // reconverge at the innermost `ssy` point.
                let reconv = warp.pending_reconv;
                let fall = top.mask & !taken;
                warp.top_mut().pc = reconv; // base resumes at reconvergence
                warp.stack.push(StackEntry {
                    mask: fall,
                    pc: pc + 1,
                    reconv,
                });
                warp.stack.push(StackEntry {
                    mask: taken,
                    pc: d.target,
                    reconv,
                });
                next_pc = None;
                out.redirect = true;
            }
        }
        LaneKernel::Ssy => {
            warp.pending_reconv = d.target;
            out.exec_lanes = top.mask.count_ones();
        }
        LaneKernel::Bar => {
            warp.at_barrier = true;
            out.did_barrier = true;
            out.exec_lanes = top.mask.count_ones();
        }
        LaneKernel::Exit => {
            let exited = guard_mask;
            for entry in &mut warp.stack {
                entry.mask &= !exited;
            }
            if d.guard.is_none() || guard_mask == top.mask {
                // Whole active path exited; unwind to a live entry.
                next_pc = None;
                while warp.stack.len() > 1 && warp.top().mask == 0 {
                    warp.stack.pop();
                }
            }
            if warp.stack.iter().all(|e| e.mask == 0) {
                warp.done = true;
                out.warp_finished = true;
            }
        }
        LaneKernel::Nop => out.exec_lanes = guard_mask.count_ones().max(1),
        LaneKernel::NoDst => {}
        LaneKernel::LdConst => {
            let addrs = addr_row(warp, d, ids);
            let dst = warp.row_mut(d.dst_base().expect("validated ld has dst"));
            for_lanes(guard_mask, |lane| {
                dst[lane] = ctx.params.get((addrs[lane] / 4) as usize).copied().unwrap_or(0);
            });
        }
        LaneKernel::LdShared => {
            let addrs = addr_row(warp, d, ids);
            let dst = warp.row_mut(d.dst_base().expect("validated ld has dst"));
            let smem = &*ctx.smem;
            if d.wide {
                for_lanes(guard_mask, |lane| {
                    let at = addrs[lane] as usize;
                    dst[lane] = u32::from_le_bytes([smem[at], smem[at + 1], smem[at + 2], smem[at + 3]]);
                });
            } else {
                for_lanes(guard_mask, |lane| {
                    let at = addrs[lane] as usize;
                    dst[lane] = u16::from_le_bytes([smem[at], smem[at + 1]]) as u32;
                });
            }
            out.shared_accesses = out.exec_lanes;
        }
        LaneKernel::LdGlobal => {
            let addrs = addr_row(warp, d, ids);
            match (global_access_in_bounds(ctx.mem, &addrs, guard_mask, d.wide), d.wide) {
                (true, true) => ld_global(warp, d, guard_mask, &addrs, ctx, GlobalMemory::load_u32),
                (true, false) => ld_global(warp, d, guard_mask, &addrs, ctx, |m, a| m.load_u16(a) as u32),
                (false, true) => ld_global(warp, d, guard_mask, &addrs, ctx, GlobalMemory::read_u32),
                (false, false) => ld_global(warp, d, guard_mask, &addrs, ctx, |m, a| m.read_u16(a) as u32),
            }
        }
        LaneKernel::StShared => {
            let addrs = addr_row(warp, d, ids);
            let values = warp.row(d.srcs[1], ids);
            let smem = &mut *ctx.smem;
            if d.wide {
                for_lanes(guard_mask, |lane| {
                    let at = addrs[lane] as usize;
                    smem[at..at + 4].copy_from_slice(&values[lane].to_le_bytes());
                });
            } else {
                for_lanes(guard_mask, |lane| {
                    let at = addrs[lane] as usize;
                    smem[at..at + 2].copy_from_slice(&(values[lane] as u16).to_le_bytes());
                });
            }
            out.shared_accesses = out.exec_lanes;
        }
        LaneKernel::StGlobal => {
            let addrs = addr_row(warp, d, ids);
            let values = warp.row(d.srcs[1], ids);
            match (global_access_in_bounds(ctx.mem, &addrs, guard_mask, d.wide), d.wide) {
                (true, true) => st_global(d, guard_mask, &addrs, &values, ctx, GlobalMemory::store_u32),
                (true, false) => st_global(d, guard_mask, &addrs, &values, ctx, |m, a, v| m.store_u16(a, v as u16)),
                (false, true) => st_global(d, guard_mask, &addrs, &values, ctx, GlobalMemory::write_u32),
                (false, false) => st_global(d, guard_mask, &addrs, &values, ctx, |m, a, v| m.write_u16(a, v as u16)),
            }
        }
        LaneKernel::StConst => panic!("stores to constant memory are not representable"),
        LaneKernel::Set => match d.dtype {
            DType::F32 => set_as(warp, d, guard_mask, ids, f32::from_bits),
            DType::S32 | DType::S16 => set_as(warp, d, guard_mask, ids, |v| v as i32),
            _ => set_as(warp, d, guard_mask, ids, |v| v),
        },
        LaneKernel::Mov => int_lanes!(warp, d, guard_mask, ids, |a, _b, _c| a),
        LaneKernel::AddInt => int_lanes!(warp, d, guard_mask, ids, |a, b, _c| a.wrapping_add(b)),
        LaneKernel::SubInt => int_lanes!(warp, d, guard_mask, ids, |a, b, _c| a.wrapping_sub(b)),
        LaneKernel::MulInt => int_lanes!(warp, d, guard_mask, ids, |a, b, _c| a.wrapping_mul(b)),
        LaneKernel::MadInt => int_lanes!(warp, d, guard_mask, ids, |a, b, c| a.wrapping_mul(b).wrapping_add(c)),
        LaneKernel::ShlInt => int_lanes!(warp, d, guard_mask, ids, |a, b, _c| a.wrapping_shl(b & 31)),
        LaneKernel::AddF32 => lanes(warp, d, guard_mask, ids, |a, b, _| (f32::from_bits(a) + f32::from_bits(b)).to_bits()),
        LaneKernel::SubF32 => lanes(warp, d, guard_mask, ids, |a, b, _| (f32::from_bits(a) - f32::from_bits(b)).to_bits()),
        LaneKernel::MulF32 => lanes(warp, d, guard_mask, ids, |a, b, _| (f32::from_bits(a) * f32::from_bits(b)).to_bits()),
        LaneKernel::MadF32 => lanes(warp, d, guard_mask, ids, |a, b, c| {
            (f32::from_bits(a) * f32::from_bits(b) + f32::from_bits(c)).to_bits()
        }),
        LaneKernel::Alu => lanes(warp, d, guard_mask, ids, |a, b, c| alu(d.op, d.dtype, a, b, c, d.cmp, d.src_dtype)),
    }

    if let Some(next) = next_pc {
        warp.top_mut().pc = next;
    }
    warp.reconverge();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::decode_program;
    use tango_isa::{CmpOp, KernelBuilder, KernelProgram, Operand};

    fn ctx<'a>(
        mem: &'a mut GlobalMemory,
        smem: &'a mut [u8],
        params: &'a [u32],
        scratch: &'a mut Vec<u32>,
    ) -> ExecCtx<'a> {
        ExecCtx {
            mem,
            smem,
            params,
            ids: ids(Dim3::x(32), 0, [0; 3]),
            line_bytes: 128,
            lines: scratch,
            rec: None,
        }
    }

    /// The special registers of warp `warp_in_cta` of CTA `cta`.
    fn ids(block: Dim3, warp_in_cta: u32, cta: [u32; 3]) -> Ids<'static> {
        let tid = Box::leak(Box::new(tid_rows(block)[warp_in_cta as usize]));
        Ids { tid, cta }
    }

    /// One warp-instruction of `program`, launched as one 32-thread CTA.
    fn step(warp: &mut Warp, program: &KernelProgram, ctx: &mut ExecCtx<'_>) -> ExecOutcome {
        let decoded = decode_program(program, Dim3::x(1), Dim3::x(32));
        execute(warp, &decoded[warp.pc() as usize], ctx)
    }

    fn run_to_completion(warp: &mut Warp, program: &KernelProgram, ctx: &mut ExecCtx<'_>) -> u32 {
        let mut steps = 0;
        while !warp.done {
            step(warp, program, ctx);
            steps += 1;
            assert!(steps < 100_000, "kernel did not terminate");
        }
        steps
    }

    #[test]
    fn lane_arithmetic_uses_tid() {
        // out[tid] = tid * 2
        let mut b = KernelBuilder::new("t");
        let tid = b.reg();
        let addr = b.reg();
        let v = b.reg();
        b.tid_x(tid);
        let base = b.load_param(0);
        b.shl(DType::U32, v, tid.into(), Operand::imm_u32(1));
        b.shl(DType::U32, addr, tid.into(), Operand::imm_u32(2));
        b.add(DType::U32, addr, addr.into(), base.into());
        b.st_global(DType::U32, addr, 0, v);
        b.exit();
        let p = b.build().unwrap();

        let mut mem = GlobalMemory::new();
        let out_buf = mem.alloc(32 * 4);
        let params = [out_buf];
        let mut smem = [];
        let mut scratch = Vec::new();
        let mut c = ctx(&mut mem, &mut smem, &params, &mut scratch);
        let mut w = Warp::new(0, 0, Dim3::x(32), p.register_count(), 1.max(p.pred_count()));
        run_to_completion(&mut w, &p, &mut c);
        for lane in 0..32u32 {
            assert_eq!(mem.read_u32(out_buf + lane * 4), lane * 2);
        }
    }

    #[test]
    fn uniform_loop_terminates_with_correct_sum() {
        // acc = sum(0..10) stored to out[tid].
        let mut b = KernelBuilder::new("loop");
        let i = b.reg();
        let acc = b.reg();
        let p = b.pred();
        b.mov(DType::U32, i, Operand::imm_u32(0));
        b.mov(DType::U32, acc, Operand::imm_u32(0));
        let top = b.place_new_label();
        b.add(DType::U32, acc, acc.into(), i.into());
        b.add(DType::U32, i, i.into(), Operand::imm_u32(1));
        b.set(CmpOp::Lt, DType::U32, p, i.into(), Operand::imm_u32(10));
        b.bra_if(p, true, top);
        let tid = b.reg();
        let addr = b.reg();
        b.tid_x(tid);
        let base = b.load_param(0);
        b.shl(DType::U32, addr, tid.into(), Operand::imm_u32(2));
        b.add(DType::U32, addr, addr.into(), base.into());
        b.st_global(DType::U32, addr, 0, acc);
        b.exit();
        let prog = b.build().unwrap();

        let mut mem = GlobalMemory::new();
        let out = mem.alloc(32 * 4);
        let params = [out];
        let mut smem = [];
        let mut scratch = Vec::new();
        let mut c = ctx(&mut mem, &mut smem, &params, &mut scratch);
        let mut w = Warp::new(0, 0, Dim3::x(32), prog.register_count(), prog.pred_count().max(1));
        run_to_completion(&mut w, &prog, &mut c);
        assert_eq!(mem.read_u32(out), 45);
        assert_eq!(mem.read_u32(out + 31 * 4), 45);
    }

    #[test]
    fn divergent_branch_reconverges() {
        // if (tid < 16) out = 1 else out = 2; then out += 10 for everyone.
        let mut b = KernelBuilder::new("div");
        let tid = b.reg();
        let v = b.reg();
        let addr = b.reg();
        let p = b.pred();
        b.tid_x(tid);
        let base = b.load_param(0);
        let l_else = b.label();
        let l_join = b.label();
        b.ssy(l_join);
        b.set(CmpOp::Ge, DType::U32, p, tid.into(), Operand::imm_u32(16));
        b.bra_if(p, true, l_else);
        b.mov(DType::U32, v, Operand::imm_u32(1));
        b.bra(l_join);
        b.place(l_else);
        b.mov(DType::U32, v, Operand::imm_u32(2));
        b.place(l_join);
        b.add(DType::U32, v, v.into(), Operand::imm_u32(10));
        b.shl(DType::U32, addr, tid.into(), Operand::imm_u32(2));
        b.add(DType::U32, addr, addr.into(), base.into());
        b.st_global(DType::U32, addr, 0, v);
        b.exit();
        let prog = b.build().unwrap();

        let mut mem = GlobalMemory::new();
        let out = mem.alloc(32 * 4);
        let params = [out];
        let mut smem = [];
        let mut scratch = Vec::new();
        let mut c = ctx(&mut mem, &mut smem, &params, &mut scratch);
        let mut w = Warp::new(0, 0, Dim3::x(32), prog.register_count(), prog.pred_count().max(1));
        run_to_completion(&mut w, &prog, &mut c);
        for lane in 0..32u32 {
            let expect = if lane < 16 { 11 } else { 12 };
            assert_eq!(mem.read_u32(out + lane * 4), expect, "lane {lane}");
        }
    }

    #[test]
    fn partial_warp_masks_high_lanes() {
        let mut b = KernelBuilder::new("partial");
        let tid = b.reg();
        let addr = b.reg();
        b.tid_x(tid);
        let base = b.load_param(0);
        b.shl(DType::U32, addr, tid.into(), Operand::imm_u32(2));
        b.add(DType::U32, addr, addr.into(), base.into());
        let one = b.reg();
        b.mov(DType::U32, one, Operand::imm_u32(1));
        b.st_global(DType::U32, addr, 0, one);
        b.exit();
        let prog = b.build().unwrap();

        let mut mem = GlobalMemory::new();
        let out = mem.alloc(32 * 4);
        let params = [out];
        let mut smem = [];
        let mut scratch = Vec::new();
        let mut c = ctx(&mut mem, &mut smem, &params, &mut scratch);
        // Only 10 active lanes.
        let mut w = Warp::new(0, 0, Dim3::x(10), prog.register_count(), prog.pred_count().max(1));
        run_to_completion(&mut w, &prog, &mut c);
        for lane in 0..32u32 {
            let expect = if lane < 10 { 1 } else { 0 };
            assert_eq!(mem.read_u32(out + lane * 4), expect);
        }
    }

    #[test]
    fn coalesced_loads_touch_one_line() {
        // 32 lanes load out[tid] -> 32 consecutive words = one 128 B line.
        let mut b = KernelBuilder::new("coal");
        let tid = b.reg();
        let addr = b.reg();
        let v = b.reg();
        b.tid_x(tid);
        let base = b.load_param(0);
        b.shl(DType::U32, addr, tid.into(), Operand::imm_u32(2));
        b.add(DType::U32, addr, addr.into(), base.into());
        b.ld_global(DType::F32, v, addr, 0);
        b.exit();
        let prog = b.build().unwrap();

        let mut mem = GlobalMemory::new();
        let buf = mem.alloc(32 * 4);
        let params = [buf];
        let mut smem = [];
        let mut scratch = Vec::new();
        let mut c = ctx(&mut mem, &mut smem, &params, &mut scratch);
        let mut w = Warp::new(0, 0, Dim3::x(32), prog.register_count(), prog.pred_count().max(1));
        // Step to the load.
        while !w.done {
            step(&mut w, &prog, &mut c);
        }
        // The load is the last global access; its lines stay in the buffer.
        assert_eq!(c.lines.len(), 1, "aligned consecutive words coalesce into one line");
    }

    #[test]
    fn strided_loads_touch_many_lines() {
        // lane loads base + tid * 128 -> every lane a different line.
        let mut b = KernelBuilder::new("stride");
        let tid = b.reg();
        let addr = b.reg();
        let v = b.reg();
        b.tid_x(tid);
        let base = b.load_param(0);
        b.shl(DType::U32, addr, tid.into(), Operand::imm_u32(7));
        b.add(DType::U32, addr, addr.into(), base.into());
        b.ld_global(DType::F32, v, addr, 0);
        b.exit();
        let prog = b.build().unwrap();

        let mut mem = GlobalMemory::new();
        let buf = mem.alloc(32 * 128);
        let params = [buf];
        let mut smem = [];
        let mut scratch = Vec::new();
        let mut c = ctx(&mut mem, &mut smem, &params, &mut scratch);
        let mut w = Warp::new(0, 0, Dim3::x(32), prog.register_count(), prog.pred_count().max(1));
        while !w.done {
            step(&mut w, &prog, &mut c);
        }
        assert_eq!(c.lines.len(), 32);
    }

    #[test]
    #[should_panic(expected = "device memory access out of bounds: addr 0x200 len 4 (allocated 0x200)")]
    fn out_of_bounds_lane_is_reported_as_the_per_lane_check_reports_it() {
        // Lanes 0..16 fit the 256-byte allocation, lane 16 is the first
        // past it: the warp-wide test fails, and the access dies there.
        let mut b = KernelBuilder::new("oob");
        let tid = b.reg();
        let addr = b.reg();
        b.tid_x(tid);
        let base = b.load_param(0);
        b.shl(DType::U32, addr, tid.into(), Operand::imm_u32(4));
        b.add(DType::U32, addr, addr.into(), base.into());
        b.st_global(DType::U32, addr, 0, tid);
        b.exit();
        let prog = b.build().unwrap();

        let mut mem = GlobalMemory::new();
        let buf = mem.alloc(256);
        let params = [buf];
        let mut smem = [];
        let mut scratch = Vec::new();
        let mut c = ctx(&mut mem, &mut smem, &params, &mut scratch);
        let mut w = Warp::new(0, 0, Dim3::x(32), prog.register_count(), 1);
        run_to_completion(&mut w, &prog, &mut c);
    }

    #[test]
    fn f32_mad_matches_reference() {
        let mut b = KernelBuilder::new("mad");
        let acc = b.reg();
        b.mov(DType::F32, acc, Operand::imm_f32(1.5));
        b.mad(DType::F32, acc, acc.into(), Operand::imm_f32(2.0), Operand::imm_f32(0.25));
        b.exit();
        let prog = b.build().unwrap();
        let mut mem = GlobalMemory::new();
        let _ = mem.alloc(64);
        let params = [];
        let mut smem = [];
        let mut scratch = Vec::new();
        let mut c = ctx(&mut mem, &mut smem, &params, &mut scratch);
        let mut w = Warp::new(0, 0, Dim3::x(32), prog.register_count(), 1);
        run_to_completion(&mut w, &prog, &mut c);
        assert_eq!(f32::from_bits(w.regs[0]), 1.5 * 2.0 + 0.25);
    }

    #[test]
    fn u16_arithmetic_wraps_at_16_bits() {
        let mut b = KernelBuilder::new("u16");
        let r = b.reg();
        b.mov(DType::U32, r, Operand::imm_u32(0xFFFF));
        b.add(DType::U16, r, r.into(), Operand::imm_u32(1));
        b.exit();
        let prog = b.build().unwrap();
        let mut mem = GlobalMemory::new();
        let _ = mem.alloc(64);
        let params = [];
        let mut smem = [];
        let mut scratch = Vec::new();
        let mut c = ctx(&mut mem, &mut smem, &params, &mut scratch);
        let mut w = Warp::new(0, 0, Dim3::x(32), prog.register_count(), 1);
        run_to_completion(&mut w, &prog, &mut c);
        assert_eq!(w.regs[0], 0);
    }

    #[test]
    fn shared_memory_round_trip() {
        let mut b = KernelBuilder::new("smem");
        b.set_smem_bytes(256);
        let tid = b.reg();
        let addr = b.reg();
        let v = b.reg();
        b.tid_x(tid);
        b.shl(DType::U32, addr, tid.into(), Operand::imm_u32(2));
        b.st_shared(DType::U32, addr, 0, tid);
        b.bar();
        b.ld_shared(DType::U32, v, addr, 0);
        b.exit();
        let prog = b.build().unwrap();
        let mut mem = GlobalMemory::new();
        let _ = mem.alloc(64);
        let params = [];
        let mut smem = vec![0u8; 256];
        let mut scratch = Vec::new();
        let mut c = ctx(&mut mem, &mut smem, &params, &mut scratch);
        let mut w = Warp::new(0, 0, Dim3::x(32), prog.register_count(), 1);
        while !w.done {
            let o = step(&mut w, &prog, &mut c);
            if o.did_barrier {
                w.at_barrier = false; // single-warp CTA: release immediately
            }
        }
        for lane in 0..32usize {
            assert_eq!(w.regs[v.0 as usize * 32 + lane], lane as u32);
        }
    }

    #[test]
    fn const_params_are_readable() {
        let mut b = KernelBuilder::new("cmem");
        let p0 = b.load_param(0);
        let p1 = b.load_param(1);
        let sum = b.reg();
        b.add(DType::U32, sum, p0.into(), p1.into());
        b.exit();
        let prog = b.build().unwrap();
        let mut mem = GlobalMemory::new();
        let _ = mem.alloc(64);
        let params = [40, 2];
        let mut smem = [];
        let mut scratch = Vec::new();
        let mut c = ctx(&mut mem, &mut smem, &params, &mut scratch);
        let mut w = Warp::new(0, 0, Dim3::x(32), prog.register_count(), 1);
        run_to_completion(&mut w, &prog, &mut c);
        assert_eq!(w.regs[sum.0 as usize * 32], 42);
    }

    /// Operand bit patterns worth a lane each: +-0, denormals, +-1, +-inf,
    /// `i32::MIN`, shift counts around 32, and the 16-bit narrowing edges.
    const EDGES: [u32; 20] = [
        0,
        0x8000_0000,
        1,
        0x007f_ffff,
        0x8000_0001,
        0x3f80_0000,
        0xbf80_0000,
        0x7f80_0000,
        0xff80_0000,
        31,
        32,
        33,
        0x7fff,
        0x8000,
        0xffff,
        0x1_0000,
        0xffff_8000,
        0x7fff_ffff,
        0x4f00_0000,
        0xcf00_0001,
    ];
    /// NaNs with payloads (quiet, negative, signalling).
    const NANS: [u32; 3] = [0x7fc1_2345, 0xffc0_0001, 0x7f80_0001];

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// A register value: an edge, a NaN, or noise.
    fn pick(state: &mut u64) -> u32 {
        let r = xorshift(state);
        match r % 8 {
            0..=3 => EDGES[(r >> 8) as usize % EDGES.len()],
            4 => NANS[(r >> 8) as usize % NANS.len()],
            _ => (r >> 16) as u32,
        }
    }

    #[test]
    fn every_op_dtype_pair_matches_alu_lane_by_lane() {
        use tango_isa::{FuncUnit, Instruction, PredReg, Reg, Special};
        let is_nan = |v: u32| f32::from_bits(v).is_nan();
        let (r0, r1, r2) = (Operand::Reg(Reg(0)), Operand::Reg(Reg(1)), Operand::Reg(Reg(2)));
        let special = |s: Special| Operand::Special(s);
        // Placeholder immediates are replaced by drawn values per round.
        let imm = Operand::Imm(0);
        let forms: [[Operand; 3]; 8] = [
            [r0, r1, r2],
            [r0, imm, r2],
            [imm, r1, imm],
            [special(Special::TidX), r1, special(Special::TidY)],
            [r0, special(Special::TidZ), special(Special::CtaIdX)],
            [special(Special::CtaIdY), special(Special::NTidX), special(Special::CtaIdZ)],
            [special(Special::NTidY), special(Special::NTidZ), special(Special::NCtaIdX)],
            [r0, special(Special::NCtaIdY), special(Special::NCtaIdZ)],
        ];
        let blocks = [Dim3::x(64), Dim3::xy(8, 6), Dim3::xyz(4, 3, 5), Dim3::x(10)];
        let tids = blocks.map(tid_rows);
        let grid = Dim3::xyz(5, 4, 3);
        let cta = [3, 1, 2];
        // No guard, then guards leaving no lane, one lane, and two
        // divergent halves (one through the negated sense).
        let guards = [None, Some((0, true)), Some((1 << 17, true)), Some((0xa5a5_5a5a, true)), Some((0x0f0f_f0f0, false))];
        let cmps = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq, CmpOp::Ne];

        let mut rng = 0x7a16_0201_9151_u64;
        let mut kernels_seen = Vec::new();
        // Control and memory ops compute no lane values; everything else does.
        let value_ops = Opcode::ALL.into_iter().filter(|op| !matches!(op.func_unit(), FuncUnit::Ctrl | FuncUnit::LdSt));
        for op in value_ops {
            for dtype in crate::decode::DTYPE_ORDER {
                let variants: Vec<(Option<CmpOp>, Option<DType>)> = match op {
                    Opcode::Set => cmps.iter().map(|&c| (Some(c), None)).collect(),
                    Opcode::Cvt => crate::decode::DTYPE_ORDER.iter().map(|&t| (None, Some(t))).collect(),
                    _ => vec![(None, None)],
                };
                for (cmp, src_dtype) in variants {
                    for round in 0..forms.len() * blocks.len() {
                        let block = blocks[round % blocks.len()];
                        let warp_in_cta = if block.count() > 32 { round as u32 / 4 % 2 } else { 0 };
                        let srcs = forms[round % forms.len()].map(|o| match o {
                            // The one NaN a lane may hold is the registers' to bring.
                            Operand::Imm(_) => Operand::Imm(loop {
                                let v = EDGES[xorshift(&mut rng) as usize % EDGES.len()];
                                if !is_nan(v) {
                                    break v;
                                }
                            }),
                            o => o,
                        });
                        // Odd rounds overwrite a source, as accumulators do.
                        let dst = if round % 2 == 1 { Reg(0) } else { Reg(3) };
                        for guard in guards {
                            let mut inst = Instruction::new(op, dtype);
                            // `set` takes exactly two operands.
                            inst.srcs = srcs[..if op == Opcode::Set { 2 } else { 3 }].to_vec();
                            inst.cmp = cmp;
                            inst.src_dtype = src_dtype;
                            inst.guard = guard.map(|(_, sense)| (PredReg(1), sense));
                            if op == Opcode::Set {
                                inst.pdst = Some(PredReg(0));
                                inst.dst = (round % 4 < 2).then_some(dst);
                            } else {
                                inst.dst = Some(dst);
                            }
                            let mut b = KernelBuilder::new("pair");
                            for _ in 0..4 {
                                b.reg();
                            }
                            b.pred();
                            b.pred();
                            b.push_raw(inst);
                            b.exit();
                            let program = b.build().unwrap();
                            let d = decode_program(&program, grid, block)[0];
                            if !kernels_seen.contains(&d.kernel) {
                                kernels_seen.push(d.kernel);
                            }

                            let mut warp = Warp::new(0, warp_in_cta, block, 4, 2);
                            for v in &mut warp.regs {
                                *v = pick(&mut rng);
                            }
                            warp.preds = vec![xorshift(&mut rng) as u32, guard.map_or(0, |(bits, _)| bits)];
                            let operand = |regs: &[u32], k: usize, lane: usize| match srcs[k] {
                                Operand::Reg(r) => regs[r.0 as usize * 32 + lane],
                                Operand::Imm(v) => v,
                                Operand::Special(s) => {
                                    let (tx, ty, tz) = lane_thread_coords(warp_in_cta, lane as u32, block);
                                    match s {
                                        Special::TidX => tx,
                                        Special::TidY => ty,
                                        Special::TidZ => tz,
                                        Special::CtaIdX => cta[0],
                                        Special::CtaIdY => cta[1],
                                        Special::CtaIdZ => cta[2],
                                        Special::NTidX => block.x,
                                        Special::NTidY => block.y,
                                        Special::NTidZ => block.z,
                                        Special::NCtaIdX => grid.x,
                                        Special::NCtaIdY => grid.y,
                                        Special::NCtaIdZ => grid.z,
                                    }
                                }
                            };
                            // Which of two NaN operands x86 propagates depends on the
                            // operand order the compiler picked, which `alu` and a
                            // vectorised kernel need not share. Keep one NaN a lane,
                            // and no NaN addend beside an invalid product.
                            for lane in 0..32 {
                                let mut nans = 0;
                                for k in 0..3 {
                                    let v = operand(&warp.regs, k, lane);
                                    let invalid_product = k == 2 && {
                                        let (a, b) = (operand(&warp.regs, 0, lane), operand(&warp.regs, 1, lane));
                                        (f32::from_bits(a) * f32::from_bits(b)).is_nan()
                                    };
                                    if is_nan(v) && (nans > 0 || invalid_product) {
                                        warp.regs[k * 32 + lane] = 1.5f32.to_bits();
                                    } else if is_nan(v) {
                                        nans += 1;
                                    }
                                }
                            }

                            let before = warp.clone();
                            let mut mem = GlobalMemory::new();
                            let mut scratch = Vec::new();
                            let mut c = ctx(&mut mem, &mut [], &[], &mut scratch);
                            c.ids = Ids { tid: &tids[round % blocks.len()][warp_in_cta as usize], cta };
                            let out = execute(&mut warp, &d, &mut c);

                            let top = before.top().mask;
                            let mask = match guard {
                                None => top,
                                Some((bits, true)) => top & bits,
                                Some((bits, false)) => top & !bits,
                            };
                            let mut want = before.clone();
                            let mut pred_bits = 0;
                            for lane in (0..32).filter(|lane| mask >> lane & 1 == 1) {
                                let [a, b, c] = [0, 1, 2].map(|k| operand(&before.regs, k, lane));
                                let v = alu(op, dtype, a, b, c, cmp, src_dtype);
                                if let Some(dst) = d.dst {
                                    want.regs[dst as usize * 32 + lane] = v;
                                }
                                pred_bits |= (v & 1) << lane;
                            }
                            if op == Opcode::Set {
                                want.preds[0] = (before.preds[0] & !mask) | pred_bits;
                            }
                            let what = format!(
                                "{op}.{dtype} cmp {cmp:?} from {src_dtype:?}, {srcs:?} -> {dst}, block {block} warp {warp_in_cta}, guard {guard:x?}"
                            );
                            assert_eq!(warp.regs, want.regs, "{what}");
                            assert_eq!(warp.preds, want.preds, "{what}");
                            assert_eq!(out.exec_lanes, mask.count_ones(), "{what}");
                            assert_eq!(warp.pc(), 1, "{what}");
                        }
                    }
                }
            }
        }
        // The table reaches every arithmetic kernel, not only the fallback.
        for kernel in [
            LaneKernel::Set,
            LaneKernel::Mov,
            LaneKernel::AddInt,
            LaneKernel::SubInt,
            LaneKernel::MulInt,
            LaneKernel::MadInt,
            LaneKernel::ShlInt,
            LaneKernel::AddF32,
            LaneKernel::SubF32,
            LaneKernel::MulF32,
            LaneKernel::MadF32,
            LaneKernel::Alu,
        ] {
            assert!(kernels_seen.contains(&kernel), "{kernel:?} never ran");
        }
    }
}
