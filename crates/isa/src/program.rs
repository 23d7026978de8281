use crate::{DType, Instruction, IsaError, Opcode, Operand, Result};
use std::fmt;
use std::hash::{Hash, Hasher};

/// Three-dimensional launch extent (CUDA `dim3`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dim3 {
    /// Extent in x.
    pub x: u32,
    /// Extent in y.
    pub y: u32,
    /// Extent in z.
    pub z: u32,
}

impl Dim3 {
    /// A 1-D extent.
    pub fn x(x: u32) -> Self {
        Dim3 { x, y: 1, z: 1 }
    }

    /// A 2-D extent.
    pub fn xy(x: u32, y: u32) -> Self {
        Dim3 { x, y, z: 1 }
    }

    /// A 3-D extent.
    pub fn xyz(x: u32, y: u32, z: u32) -> Self {
        Dim3 { x, y, z }
    }

    /// Total element count.
    pub fn count(&self) -> u64 {
        self.x as u64 * self.y as u64 * self.z as u64
    }
}

impl Default for Dim3 {
    fn default() -> Self {
        Dim3::x(1)
    }
}

impl fmt::Display for Dim3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.x, self.y, self.z)
    }
}

/// The in-process content hash behind [`KernelProgram::digest`]: FNV-1a
/// over whole fields with a SplitMix64 finisher. A derived `Hash` feeds a
/// hasher a field at a time, which costs this one a multiply each and the
/// standard library's default a SipHash round or more.
struct DigestHasher(u64);

impl DigestHasher {
    fn new() -> Self {
        DigestHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for DigestHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn write_u8(&mut self, v: u8) {
        self.write_u64(v as u64);
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    fn write_i32(&mut self, v: i32) {
        self.write_u64(v as u32 as u64);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn write_isize(&mut self, v: isize) {
        self.write_u64(v as u64);
    }

    fn finish(&self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// A validated kernel program: the instruction stream plus its static
/// resource requirements.
///
/// Produced by [`KernelBuilder::build`](crate::KernelBuilder::build); the
/// fields that drive the paper's Table III (register count, shared-memory
/// and constant-memory usage) are computed here.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelProgram {
    name: String,
    instructions: Vec<Instruction>,
    param_count: u32,
    smem_bytes: u32,
    register_count: u32,
    pred_count: u32,
    digest: u64,
}

impl KernelProgram {
    pub(crate) fn from_parts(
        name: String,
        instructions: Vec<Instruction>,
        param_count: u32,
        smem_bytes: u32,
    ) -> Result<Self> {
        let mut register_count = 0u32;
        let mut pred_count = 0u32;
        for inst in &instructions {
            if let Some(d) = inst.dst {
                register_count = register_count.max(d.0 as u32 + 1);
            }
            if let Some(p) = inst.pdst {
                pred_count = pred_count.max(p.0 as u32 + 1);
            }
            if let Some((p, _)) = inst.guard {
                pred_count = pred_count.max(p.0 as u32 + 1);
            }
            for s in &inst.srcs {
                if let Operand::Reg(r) = s {
                    register_count = register_count.max(r.0 as u32 + 1);
                }
            }
        }
        // Everything above is derived from these four, so they are the
        // whole content.
        let mut hasher = DigestHasher::new();
        (&name, &instructions, param_count, smem_bytes).hash(&mut hasher);
        let program = KernelProgram {
            name,
            instructions,
            param_count,
            smem_bytes,
            register_count,
            pred_count,
            digest: hasher.finish(),
        };
        program.validate()?;
        Ok(program)
    }

    /// Kernel name (also the label used in reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The instruction stream.
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// Number of kernel parameters (each a 32-bit word in constant memory).
    pub fn param_count(&self) -> u32 {
        self.param_count
    }

    /// Constant-memory footprint in bytes: parameters plus the launch
    /// header, mirroring how `nvcc` reports `cmem` usage.
    pub fn cmem_bytes(&self) -> u32 {
        self.param_count * 4
    }

    /// Declared shared-memory usage in bytes.
    pub fn smem_bytes(&self) -> u32 {
        self.smem_bytes
    }

    /// Number of general-purpose registers per thread (max index used + 1),
    /// the value the paper's Table III lists per layer.
    pub fn register_count(&self) -> u32 {
        self.register_count
    }

    /// Number of predicate registers per thread.
    pub fn pred_count(&self) -> u32 {
        self.pred_count
    }

    /// A 64-bit digest of the program's whole content — name, every field
    /// of every instruction, parameter count and shared-memory size —
    /// computed once at construction. Equal programs have equal digests
    /// however they were built; it is stable within a process only, so it
    /// keys in-memory tables (the simulator's launch memo), never files.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Checks structural invariants. Called by the builder; also usable on
    /// deserialized or hand-assembled programs.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError`] if any branch target is out of range, a memory
    /// op lacks an address space, a `set` lacks a comparison, or the program
    /// cannot terminate.
    pub fn validate(&self) -> Result<()> {
        if !self.instructions.iter().any(|i| i.op == Opcode::Exit) {
            return Err(IsaError::NoExit);
        }
        for (pc, inst) in self.instructions.iter().enumerate() {
            let malformed = |message: &str| IsaError::MalformedInstruction {
                pc,
                message: message.to_string(),
            };
            match inst.op {
                Opcode::Bra | Opcode::Ssy => {
                    let t = inst.target.ok_or_else(|| malformed("missing branch target"))?;
                    if t as usize >= self.instructions.len() {
                        return Err(IsaError::BranchOutOfRange {
                            pc,
                            target: t,
                            len: self.instructions.len(),
                        });
                    }
                }
                Opcode::Ld => {
                    if inst.space.is_none() {
                        return Err(malformed("ld requires an address space"));
                    }
                    if inst.dst.is_none() {
                        return Err(malformed("ld requires a destination"));
                    }
                    if !matches!(inst.srcs.first(), Some(Operand::Reg(_)) | Some(Operand::Imm(_))) {
                        return Err(malformed("ld requires an address operand"));
                    }
                }
                Opcode::St => {
                    if inst.space.is_none() {
                        return Err(malformed("st requires an address space"));
                    }
                    if inst.srcs.len() != 2 {
                        return Err(malformed("st requires address and value operands"));
                    }
                }
                Opcode::Set => {
                    if inst.cmp.is_none() {
                        return Err(malformed("set requires a comparison"));
                    }
                    if inst.pdst.is_none() && inst.dst.is_none() {
                        return Err(malformed("set requires a destination"));
                    }
                    if inst.srcs.len() != 2 {
                        return Err(malformed("set requires two source operands"));
                    }
                }
                Opcode::Cvt
                    if inst.src_dtype.is_none() => {
                        return Err(malformed("cvt requires a source data type"));
                    }
                _ => {}
            }
        }
        Ok(())
    }

    /// Renders the program as PTX-like assembly, one instruction per line,
    /// prefixed with its pc. Useful for debugging generated kernels.
    pub fn disassemble(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "// kernel {} : {} regs, {} preds, {} params, {} B smem\n",
            self.name,
            self.register_count,
            self.pred_count,
            self.param_count,
            self.smem_bytes
        ));
        for (pc, inst) in self.instructions.iter().enumerate() {
            out.push_str(&format!("L{pc:<4} {inst}\n"));
        }
        out
    }

    /// Static histogram of opcodes (not weighted by execution count).
    pub fn static_op_counts(&self) -> std::collections::BTreeMap<Opcode, u64> {
        let mut map = std::collections::BTreeMap::new();
        for inst in &self.instructions {
            *map.entry(inst.op).or_insert(0) += 1;
        }
        map
    }

    /// Static histogram of instruction data types.
    pub fn static_dtype_counts(&self) -> std::collections::BTreeMap<DType, u64> {
        let mut map = std::collections::BTreeMap::new();
        for inst in &self.instructions {
            *map.entry(inst.dtype).or_insert(0) += 1;
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KernelBuilder, Reg};

    fn trivial() -> KernelProgram {
        let mut b = KernelBuilder::new("t");
        b.exit();
        b.build().unwrap()
    }

    #[test]
    fn dim3_counts() {
        assert_eq!(Dim3::xy(32, 32).count(), 1024);
        assert_eq!(Dim3::xyz(2, 3, 4).count(), 24);
        assert_eq!(Dim3::default().count(), 1);
    }

    #[test]
    fn register_count_is_max_plus_one() {
        let mut b = KernelBuilder::new("r");
        let r = b.reg();
        b.mov(DType::U32, r, Operand::imm_u32(0));
        b.exit();
        let p = b.build().unwrap();
        assert_eq!(p.register_count(), r.0 as u32 + 1);
    }

    #[test]
    fn missing_exit_is_rejected() {
        let p = KernelProgram::from_parts("x".into(), vec![Instruction::new(Opcode::Nop, DType::U32)], 0, 0);
        assert!(matches!(p, Err(IsaError::NoExit)));
    }

    #[test]
    fn branch_target_past_end_is_rejected() {
        let mut bra = Instruction::new(Opcode::Bra, DType::U32);
        bra.target = Some(2); // == len: one past the last valid pc
        let exit = Instruction::new(Opcode::Exit, DType::U32);
        let p = KernelProgram::from_parts("x".into(), vec![bra, exit], 0, 0);
        assert!(matches!(
            p,
            Err(IsaError::BranchOutOfRange { pc: 0, target: 2, len: 2 })
        ));
    }

    #[test]
    fn branch_target_at_last_instruction_is_accepted() {
        let mut bra = Instruction::new(Opcode::Bra, DType::U32);
        bra.target = Some(1);
        let exit = Instruction::new(Opcode::Exit, DType::U32);
        assert!(KernelProgram::from_parts("x".into(), vec![bra, exit], 0, 0).is_ok());
    }

    #[test]
    fn set_without_cmp_is_rejected() {
        let mut bad = Instruction::new(Opcode::Set, DType::U32);
        bad.pdst = Some(crate::PredReg(0));
        bad.srcs = vec![Reg(0).into(), Reg(1).into()];
        let exit = Instruction::new(Opcode::Exit, DType::U32);
        let p = KernelProgram::from_parts("x".into(), vec![bad, exit], 0, 0);
        assert!(matches!(p, Err(IsaError::MalformedInstruction { .. })));
    }

    #[test]
    fn disassembly_mentions_every_instruction() {
        let p = trivial();
        let text = p.disassemble();
        assert!(text.contains("exit"));
        assert!(text.contains("kernel t"));
    }

    #[test]
    fn digest_follows_content_not_construction() {
        let build = |name: &str, imm: u32| {
            let mut b = KernelBuilder::new(name);
            let r = b.reg();
            b.mov(DType::U32, r, Operand::imm_u32(imm));
            b.exit();
            b.build().unwrap()
        };
        let p = build("d", 7);
        assert_eq!(p.digest(), build("d", 7).digest());
        assert_eq!(p.digest(), crate::parse_program(&p.disassemble()).unwrap().digest());
        assert_ne!(p.digest(), build("d", 8).digest());
        assert_ne!(p.digest(), build("e", 7).digest());
    }

    #[test]
    fn cmem_counts_params() {
        let mut b = KernelBuilder::new("p");
        let _ = b.load_param(0);
        let _ = b.load_param(3);
        b.exit();
        let p = b.build().unwrap();
        assert_eq!(p.param_count(), 4);
        assert_eq!(p.cmem_bytes(), 16);
    }
}
