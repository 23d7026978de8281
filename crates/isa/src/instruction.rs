use crate::{AddrSpace, DType, Opcode, Operand, PredReg, Reg};
use std::fmt;

/// Comparison operators used by `set` instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // Standard comparison mnemonics.
pub enum CmpOp {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

impl CmpOp {
    /// The PTX-style mnemonic (`lt`, `ge`, ...).
    pub fn mnemonic(self) -> &'static str {
        match self {
            CmpOp::Lt => "lt",
            CmpOp::Le => "le",
            CmpOp::Gt => "gt",
            CmpOp::Ge => "ge",
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
        }
    }

    /// Evaluates the comparison on unsigned 32-bit operands.
    pub fn eval_u32(self, a: u32, b: u32) -> bool {
        match self {
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
        }
    }

    /// Evaluates the comparison on signed 32-bit operands.
    pub fn eval_s32(self, a: i32, b: i32) -> bool {
        match self {
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
        }
    }

    /// Evaluates the comparison on 32-bit floats.
    pub fn eval_f32(self, a: f32, b: f32) -> bool {
        match self {
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// One decoded instruction.
///
/// Fields are public in the "compound passive data" sense: the builder
/// produces them, the simulator consumes them, and `KernelProgram::validate`
/// enforces well-formedness before execution.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Instruction {
    /// Operation.
    pub op: Opcode,
    /// Data type the operation computes in (and tallies under, for Fig 10).
    pub dtype: DType,
    /// Destination register, if the op writes one.
    pub dst: Option<Reg>,
    /// Destination predicate, for `set`.
    pub pdst: Option<PredReg>,
    /// Source operands, in order. At most three.
    pub srcs: Vec<Operand>,
    /// Guard predicate: `Some((p, true))` executes when `p` is set,
    /// `Some((p, false))` when clear (PTX `@p` / `@!p`).
    pub guard: Option<(PredReg, bool)>,
    /// Comparison, for `set`.
    pub cmp: Option<CmpOp>,
    /// Memory space, for `ld`/`st`.
    pub space: Option<AddrSpace>,
    /// Byte offset added to the address register, for `ld`/`st`.
    pub offset: i32,
    /// Branch / reconvergence target (program counter), for `bra`/`ssy`.
    pub target: Option<u32>,
    /// Source data type, for `cvt`.
    pub src_dtype: Option<DType>,
}

impl Instruction {
    /// A minimal instruction with the given opcode and type; other fields
    /// default to empty.
    pub fn new(op: Opcode, dtype: DType) -> Self {
        Instruction {
            op,
            dtype,
            dst: None,
            pdst: None,
            srcs: Vec::new(),
            guard: None,
            cmp: None,
            space: None,
            offset: 0,
            target: None,
            src_dtype: None,
        }
    }

    /// All register operands this instruction reads (sources plus address
    /// registers), for dependence analysis.
    pub fn reads(&self) -> impl Iterator<Item = Reg> + '_ {
        self.srcs.iter().filter_map(|s| match s {
            Operand::Reg(r) => Some(*r),
            _ => None,
        })
    }

    /// The register this instruction writes, if any.
    pub fn writes(&self) -> Option<Reg> {
        self.dst
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some((p, sense)) = self.guard {
            write!(f, "@{}{} ", if sense { "" } else { "!" }, p)?;
        }
        write!(f, "{}", self.op)?;
        if let Some(cmp) = self.cmp {
            write!(f, ".{cmp}")?;
        }
        if let Some(space) = self.space {
            write!(f, ".{space}")?;
        }
        if self.op != Opcode::Bra && self.op != Opcode::Ssy && self.op != Opcode::Bar {
            write!(f, ".{}", self.dtype)?;
        }
        if let Some(src) = self.src_dtype {
            write!(f, ".{src}")?;
        }
        let mut first = true;
        let mut sep = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            if first {
                first = false;
                write!(f, " ")
            } else {
                write!(f, ", ")
            }
        };
        if let Some(p) = self.pdst {
            sep(f)?;
            write!(f, "{p}")?;
        }
        if let Some(d) = self.dst {
            sep(f)?;
            write!(f, "{d}")?;
        }
        match self.op {
            Opcode::Ld => {
                // ld dst, [addr+off] — the address may be a register or an
                // immediate (constant-bank loads).
                match self.srcs.first() {
                    Some(Operand::Reg(addr)) => {
                        sep(f)?;
                        write!(f, "[{}{:+}]", addr, self.offset)?;
                    }
                    Some(Operand::Imm(bits)) => {
                        sep(f)?;
                        write!(f, "[{}{:+}]", bits, self.offset)?;
                    }
                    _ => {}
                }
            }
            Opcode::St => {
                // st [addr+off], value
                if let Some(Operand::Reg(addr)) = self.srcs.first() {
                    sep(f)?;
                    write!(f, "[{}{:+}]", addr, self.offset)?;
                }
                if let Some(v) = self.srcs.get(1) {
                    sep(f)?;
                    write!(f, "{}", v.display(self.dtype))?;
                }
            }
            _ => {
                for s in &self.srcs {
                    sep(f)?;
                    write!(f, "{}", s.display(self.dtype))?;
                }
            }
        }
        if let Some(t) = self.target {
            sep(f)?;
            write!(f, "L{t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_eval_signedness_matters() {
        assert!(CmpOp::Lt.eval_s32(-1, 0));
        assert!(!CmpOp::Lt.eval_u32((-1i32) as u32, 0));
    }

    #[test]
    fn display_formats_alu_ops() {
        let mut i = Instruction::new(Opcode::Add, DType::F32);
        i.dst = Some(Reg(3));
        i.srcs = vec![Reg(1).into(), Operand::imm_f32(1.0)];
        assert_eq!(i.to_string(), "add.f32 %r3, %r1, 1.0");
    }

    #[test]
    fn display_formats_loads() {
        let mut i = Instruction::new(Opcode::Ld, DType::F32);
        i.dst = Some(Reg(2));
        i.srcs = vec![Reg(1).into()];
        i.space = Some(AddrSpace::Global);
        i.offset = 8;
        assert_eq!(i.to_string(), "ld.global.f32 %r2, [%r1+8]");
    }

    #[test]
    fn display_formats_guarded_branch() {
        let mut i = Instruction::new(Opcode::Bra, DType::U32);
        i.guard = Some((PredReg(0), false));
        i.target = Some(12);
        assert_eq!(i.to_string(), "@!%p0 bra L12");
    }

    #[test]
    fn display_formats_set() {
        let mut i = Instruction::new(Opcode::Set, DType::U32);
        i.pdst = Some(PredReg(1));
        i.cmp = Some(CmpOp::Lt);
        i.srcs = vec![Reg(0).into(), Operand::imm_u32(55)];
        assert_eq!(i.to_string(), "set.lt.u32 %p1, %r0, 55");
    }

    #[test]
    fn reads_and_writes() {
        let mut i = Instruction::new(Opcode::Mad, DType::U32);
        i.dst = Some(Reg(5));
        i.srcs = vec![Reg(1).into(), Operand::imm_u32(4), Reg(2).into()];
        let reads: Vec<Reg> = i.reads().collect();
        assert_eq!(reads, vec![Reg(1), Reg(2)]);
        assert_eq!(i.writes(), Some(Reg(5)));
    }

    #[test]
    fn float_compare_handles_nan() {
        assert!(!CmpOp::Eq.eval_f32(f32::NAN, f32::NAN));
        assert!(CmpOp::Ne.eval_f32(f32::NAN, 0.0));
    }
}
