//! The decoded micro-op: the one instruction form the SM reads.
//!
//! `Instruction` is the builder-facing form: `Option`s, a `Vec` of enum
//! operands, and iterator-based dependence queries. `begin_launch` lowers a
//! program once per simulated launch into this fixed-size form, and from
//! then on both halves of the issue stage read nothing else: the
//! scoreboard and the timing/energy accounting in `sm.rs` (source
//! registers in operand order, duplicates kept so register-file access
//! counts are unchanged; destination indices; the functional unit; the
//! constant-bank slot of `ld.const`), and the functional interpreter in
//! `exec.rs` (operands resolved against the launch's `grid`/`block`, the
//! destination row, the memory offset and width, and a [`LaneKernel`]
//! chosen from `(op, dtype)` that `execute` matches once per
//! warp-instruction).

use tango_isa::{AddrSpace, CmpOp, DType, Dim3, FuncUnit, Instruction, KernelProgram, Opcode, Operand, Special};

/// All data types in declaration (discriminant) order, so an array counter
/// indexed by `dtype as usize` can be folded back to the enum.
pub(crate) const DTYPE_ORDER: [DType; 6] = [
    DType::F32,
    DType::S32,
    DType::U32,
    DType::U16,
    DType::S16,
    DType::Pred,
];

/// A source operand with everything launch-uniform folded away: `ntid.*`
/// and `nctaid.*` are immediates, and a missing operand reads as zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Src {
    /// Register row; the payload is `reg * 32`, its offset in `Warp::regs`.
    Reg(u16),
    /// Warp-uniform constant.
    Imm(u32),
    /// `tid.{x,y,z}` by axis: a per-warp lane vector.
    Tid(u8),
    /// `ctaid.{x,y,z}` by axis: uniform over the CTA.
    CtaId(u8),
}

impl Src {
    fn resolve(op: Option<&Operand>, grid: Dim3, block: Dim3) -> Self {
        match op {
            None => Src::Imm(0),
            Some(Operand::Reg(r)) => Src::Reg(u16::from(r.0) * 32),
            Some(Operand::Imm(bits)) => Src::Imm(*bits),
            Some(Operand::Special(s)) => match s {
                Special::TidX => Src::Tid(0),
                Special::TidY => Src::Tid(1),
                Special::TidZ => Src::Tid(2),
                Special::CtaIdX => Src::CtaId(0),
                Special::CtaIdY => Src::CtaId(1),
                Special::CtaIdZ => Src::CtaId(2),
                Special::NTidX => Src::Imm(block.x),
                Special::NTidY => Src::Imm(block.y),
                Special::NTidZ => Src::Imm(block.z),
                Special::NCtaIdX => Src::Imm(grid.x),
                Special::NCtaIdY => Src::Imm(grid.y),
                Special::NCtaIdZ => Src::Imm(grid.z),
            },
        }
    }
}

/// Which lane loop of `exec::execute` runs a micro-op. The arithmetic
/// kernels each name one Rust scalar expression; integer ones are further
/// narrowed by `dtype` (`u16`/`s16` wrap at 16 bits). [`LaneKernel::Alu`]
/// is every other value-producing `(op, dtype)` pair, run through the
/// reference `exec::alu`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LaneKernel {
    Bra,
    Ssy,
    Bar,
    Exit,
    /// `nop`/`callp`/`retp`.
    Nop,
    /// An arithmetic op with no destination register: counted, not run.
    NoDst,
    LdConst,
    LdShared,
    LdGlobal,
    StShared,
    StGlobal,
    /// Rejected when it issues, as the interpreter always has.
    StConst,
    Set,
    Mov,
    AddInt,
    SubInt,
    MulInt,
    MadInt,
    ShlInt,
    AddF32,
    SubF32,
    MulF32,
    MadF32,
    Alu,
}

impl LaneKernel {
    fn select(inst: &Instruction) -> Self {
        use LaneKernel::*;
        let float = inst.dtype == DType::F32;
        match inst.op {
            Opcode::Bra => Bra,
            Opcode::Ssy => Ssy,
            Opcode::Bar => Bar,
            Opcode::Exit => Exit,
            Opcode::Nop | Opcode::Callp | Opcode::Retp => Nop,
            Opcode::Ld => match inst.space.expect("validated ld has space") {
                AddrSpace::Const => LdConst,
                AddrSpace::Shared => LdShared,
                AddrSpace::Global => LdGlobal,
            },
            Opcode::St => match inst.space.expect("validated st has space") {
                AddrSpace::Const => StConst,
                AddrSpace::Shared => StShared,
                AddrSpace::Global => StGlobal,
            },
            Opcode::Set => Set,
            _ if inst.dst.is_none() => NoDst,
            Opcode::Mov => Mov,
            Opcode::Add if float => AddF32,
            Opcode::Add => AddInt,
            Opcode::Sub if float => SubF32,
            Opcode::Sub => SubInt,
            Opcode::Mul if float => MulF32,
            Opcode::Mul => MulInt,
            Opcode::Mad | Opcode::Mad24 if float => MadF32,
            Opcode::Mad | Opcode::Mad24 => MadInt,
            Opcode::Shl => ShlInt,
            _ => Alu,
        }
    }
}

/// One micro-op: everything `check_issue`, `issue` and `execute` consult,
/// flattened to plain scalars.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DecodedInst {
    pub op: Opcode,
    pub dtype: DType,
    pub unit: FuncUnit,
    pub kernel: LaneKernel,
    /// Destination register, if the op writes one.
    pub dst: Option<u8>,
    /// Destination predicate (for `set`).
    pub pdst: Option<u8>,
    /// Guard predicate index and the sense it must have, if guarded.
    pub guard: Option<(u8, bool)>,
    /// Source registers in operand order (duplicates preserved).
    pub reads: [u8; 3],
    pub nreads: u8,
    /// Source operands in operand order; absent ones read as zero.
    pub srcs: [Src; 3],
    /// `ld`/`st` to global memory (the MSHR-throttled class).
    pub is_global_mem: bool,
    pub space: Option<AddrSpace>,
    /// Byte offset added to the address operand of `ld`/`st` (wrapping).
    pub offset: u32,
    /// `ld`/`st` moves a 32-bit word (else a 16-bit half).
    pub wide: bool,
    /// Constant-bank word index of an immediate-addressed `ld.const`.
    pub const_param_index: Option<u32>,
    /// Branch or reconvergence target of `bra`/`ssy`.
    pub target: u32,
    pub cmp: Option<CmpOp>,
    pub src_dtype: Option<DType>,
}

impl DecodedInst {
    fn from_inst(inst: &Instruction, grid: Dim3, block: Dim3) -> Self {
        let mut reads = [0u8; 3];
        let mut nreads = 0u8;
        for s in &inst.srcs {
            if let Operand::Reg(r) = s {
                reads[nreads as usize] = r.0;
                nreads += 1;
            }
        }
        let const_param_index = if inst.op == Opcode::Ld && inst.space == Some(AddrSpace::Const) {
            match inst.srcs.first() {
                Some(Operand::Imm(off)) => Some(*off / 4),
                _ => None,
            }
        } else {
            None
        };
        DecodedInst {
            op: inst.op,
            dtype: inst.dtype,
            unit: inst.op.func_unit(),
            kernel: LaneKernel::select(inst),
            dst: inst.dst.map(|r| r.0),
            pdst: inst.pdst.map(|p| p.0),
            guard: inst.guard.map(|(p, sense)| (p.0, sense)),
            reads,
            nreads,
            srcs: [0, 1, 2].map(|i| Src::resolve(inst.srcs.get(i), grid, block)),
            is_global_mem: inst.op.is_memory() && inst.space == Some(AddrSpace::Global),
            space: inst.space,
            offset: inst.offset as u32,
            wide: inst.dtype.byte_width() != 2,
            const_param_index,
            target: inst.target.unwrap_or(u32::MAX),
            cmp: inst.cmp,
            src_dtype: inst.src_dtype,
        }
    }

    /// Offset in `Warp::regs` of the destination row.
    pub fn dst_base(&self) -> Option<usize> {
        self.dst.map(|r| r as usize * 32)
    }
}

/// Lowers a validated program for one launch geometry. Index `i` decodes
/// `program.instructions()[i]`.
pub(crate) fn decode_program(program: &KernelProgram, grid: Dim3, block: Dim3) -> Vec<DecodedInst> {
    program
        .instructions()
        .iter()
        .map(|inst| DecodedInst::from_inst(inst, grid, block))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tango_isa::{CmpOp, KernelBuilder};

    #[test]
    fn dtype_order_matches_discriminants() {
        for (i, &t) in DTYPE_ORDER.iter().enumerate() {
            assert_eq!(t as usize, i, "{t:?} discriminant moved");
        }
    }

    #[test]
    fn opcode_all_matches_discriminants() {
        // Array counters index by `op as usize` and fold back via ALL.
        for (i, &op) in Opcode::ALL.iter().enumerate() {
            assert_eq!(op as usize, i, "{op:?} discriminant moved");
        }
    }

    #[test]
    fn component_and_stall_reason_all_match_discriminants() {
        // `EnergyBreakdown` and `StallBreakdown` index by `x as usize` and
        // iterate via ALL.
        for (i, &c) in crate::power::Component::ALL.iter().enumerate() {
            assert_eq!(c as usize, i, "{c:?} discriminant moved");
        }
        for (i, &r) in crate::stats::StallReason::ALL.iter().enumerate() {
            assert_eq!(r as usize, i, "{r:?} discriminant moved");
        }
    }

    #[test]
    fn decode_preserves_scoreboard_facts() {
        let mut b = KernelBuilder::new("dec");
        let tid = b.reg();
        let addr = b.reg();
        let v = b.reg();
        let p = b.pred();
        b.tid_x(tid);
        let base = b.load_param(0);
        b.set(CmpOp::Lt, DType::U32, p, tid.into(), Operand::imm_u32(8));
        b.shl(DType::U32, addr, tid.into(), Operand::imm_u32(2));
        b.add(DType::U32, addr, addr.into(), base.into());
        b.ld_global(DType::F32, v, addr, 0);
        b.st_global(DType::F32, addr, 0, v);
        b.exit();
        let prog = b.build().unwrap();
        let dec = decode_program(&prog, Dim3::x(1), Dim3::x(32));
        assert_eq!(dec.len(), prog.instructions().len());
        for (d, inst) in dec.iter().zip(prog.instructions()) {
            assert_eq!(d.op, inst.op);
            assert_eq!(d.unit, inst.op.func_unit());
            assert_eq!(d.dst.map(u32::from), inst.dst.map(|r| u32::from(r.0)));
            assert_eq!(d.nreads as usize, inst.reads().count());
            let regs: Vec<u8> = inst.reads().map(|r| r.0).collect();
            assert_eq!(&d.reads[..d.nreads as usize], &regs[..]);
            assert_eq!(
                d.is_global_mem,
                inst.op.is_memory() && inst.space == Some(AddrSpace::Global)
            );
        }
    }

    #[test]
    fn decode_folds_launch_uniform_operands() {
        let mut b = KernelBuilder::new("fold");
        let r = b.reg();
        b.mad_lo(DType::U32, r, r, Special::NTidY.into(), Special::TidZ.into());
        b.add(DType::U16, r, Special::CtaIdY.into(), Special::NCtaIdX.into());
        b.rcp(r, r.into());
        b.exit();
        let prog = b.build().unwrap();
        let dec = decode_program(&prog, Dim3::xy(7, 3), Dim3::xyz(4, 5, 6));
        assert_eq!(dec[0].srcs, [Src::Reg(u16::from(r.0) * 32), Src::Imm(5), Src::Tid(2)]);
        assert_eq!(dec[0].kernel, LaneKernel::MadInt);
        assert_eq!(dec[1].srcs, [Src::CtaId(1), Src::Imm(7), Src::Imm(0)]);
        assert_eq!((dec[1].kernel, dec[1].dtype), (LaneKernel::AddInt, DType::U16));
        assert_eq!(dec[2].kernel, LaneKernel::Alu);
        assert_eq!(dec[3].kernel, LaneKernel::Exit);
    }
}
