//! Flat pre-decoded instruction form for the SM issue stage.
//!
//! `Instruction` is the builder-facing form: `Option`s, a `Vec` of enum
//! operands, and iterator-based dependence queries. The issue stage walks
//! it every cycle for every resident warp, so `begin_launch` lowers the
//! program once into this fixed-size, branch-light form. Decoding carries
//! no semantics of its own — the functional interpreter in `exec.rs` still
//! executes the original `Instruction` — it only precomputes what the
//! scoreboard and the timing/energy accounting ask per issue attempt:
//! source registers (in operand order, duplicates kept so register-file
//! access counts are unchanged), destination indices, the functional unit,
//! and the constant-bank slot of `ld.const` instructions.

use tango_isa::{AddrSpace, DType, FuncUnit, Instruction, KernelProgram, Opcode, Operand};

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

/// One pre-decoded instruction: everything `check_issue`/`issue` consult,
/// flattened to plain scalars.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DecodedInst {
    pub op: Opcode,
    pub dtype: DType,
    pub unit: FuncUnit,
    /// Destination register, if the op writes one.
    pub dst: Option<u8>,
    /// Destination predicate (for `set`).
    pub pdst: Option<u8>,
    /// Guard predicate index, if guarded.
    pub guard: Option<u8>,
    /// Source registers in operand order (duplicates preserved).
    pub reads: [u8; 3],
    pub nreads: u8,
    /// `ld`/`st` to global memory (the MSHR-throttled class).
    pub is_global_mem: bool,
    pub space: Option<AddrSpace>,
    /// Constant-bank word index of an immediate-addressed `ld.const`.
    pub const_param_index: Option<usize>,
}

impl DecodedInst {
    fn from_inst(inst: &Instruction) -> Self {
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
                Some(Operand::Imm(off)) => Some((*off / 4) as usize),
                _ => None,
            }
        } else {
            None
        };
        DecodedInst {
            op: inst.op,
            dtype: inst.dtype,
            unit: inst.op.func_unit(),
            dst: inst.dst.map(|r| r.0),
            pdst: inst.pdst.map(|p| p.0),
            guard: inst.guard.map(|(p, _)| p.0),
            reads,
            nreads,
            is_global_mem: inst.op.is_memory() && inst.space == Some(AddrSpace::Global),
            space: inst.space,
            const_param_index,
        }
    }
}

/// Lowers a validated program into its flat issue-stage form. Index `i`
/// decodes `program.instructions()[i]`.
pub(crate) fn decode_program(program: &KernelProgram) -> Vec<DecodedInst> {
    program.instructions().iter().map(DecodedInst::from_inst).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tango_isa::{CmpOp, Dim3, KernelBuilder};

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
        let dec = decode_program(&prog);
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
        let _ = Dim3::x(1);
    }
}
