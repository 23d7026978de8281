//! Exact launch-level memoization.
//!
//! Tango's one-thread-per-neuron kernels make the same launches over and
//! over: every repeated inference of a network replays the identical
//! sequence of (program, grid, params, data) launches. A launch is a pure
//! function of its static description plus the device state it reads, so
//! its outcome can be content-hashed and replayed the way the harness
//! `RunStore` replays whole runs — but *in process* and at launch
//! granularity, which also accelerates the first, store-cold run of a
//! repeated workload (warmup vs. timed benchmark passes, repeated RNN
//! steps with identical buffers).
//!
//! The memo is **exact**, never approximate — that is what keeps `Stats`
//! byte-identical with the escape hatch (`TANGO_SIM_MEMO=0`) off or on:
//!
//! * The static key mixes the program's content digest, grid/block,
//!   parameter words, shared-memory size, the device's config signature,
//!   and every simulation option.
//! * The dynamic part of the input is the device state the launch read:
//!   every *clean first read* of a global word is recorded (address order
//!   and a running value digest) and re-verified against current memory
//!   before a replay; any mismatch falls back to full simulation.
//! * The L2/DRAM pre-state is tracked by a state tag
//!   ([`MemorySystem::state_tag`]): equal tags guarantee equal hierarchy
//!   state, unequal tags fall back to full simulation.
//! * Launches that perform sub-word (`u16`) or unaligned global accesses
//!   poison their recording and are simply never memoized.
//!
//! A hit replays the ordered global-write log, hands the device the
//! recorded post-launch memory hierarchy to share (see
//! [`Hierarchy`]: nothing is copied until that device simulates
//! again), and returns a clone of the recorded [`KernelStats`] —
//! bit-for-bit what full simulation would produce.
//!
//! Tracing (`tango_obs`) disables the memo wholesale: traced runs must
//! emit their full span/counter streams, and because the memo is exact,
//! the traced-vs-untraced byte-identity gate in ci.sh still holds.

use crate::config::{CacheGeometry, GpuConfig, PowerConstants, SimOptions};
use crate::mem::GlobalMemory;
use crate::memsys::{Hierarchy, MemorySystem};
use crate::stats::KernelStats;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use tango_isa::{Dim3, KernelProgram};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over words with a SplitMix64 finisher — the same construction as
/// the harness `RunStore` key hasher, but in-process only (signatures are
/// never persisted, so they owe no cross-version stability).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SigHasher(u64);

impl SigHasher {
    pub fn new() -> Self {
        SigHasher(FNV_OFFSET)
    }

    #[inline]
    pub fn write_u8(&mut self, v: u8) {
        self.0 = (self.0 ^ v as u64).wrapping_mul(FNV_PRIME);
    }

    #[inline]
    pub fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(FNV_PRIME);
    }

    /// Presence, then the value: `None` and `Some(0)` differ.
    pub fn write_opt(&mut self, v: Option<u64>) {
        match v {
            None => self.write_u8(0),
            Some(v) => {
                self.write_u8(1);
                self.write_u64(v);
            }
        }
    }

    pub fn finish(self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Whether `TANGO_SIM_MEMO` enables the memo (anything but `"0"` does),
/// sampled at first use.
pub fn env_enabled() -> bool {
    static FLAG: OnceLock<bool> = OnceLock::new();
    *FLAG.get_or_init(|| tango_obs::env::SIM_MEMO.raw().map_or(true, |v| v.as_deref() != Some("0")))
}

/// Resolves whether a launch may use the memo: the per-launch option wins
/// over the environment, and tracing always wins over both (a traced run
/// must really execute to emit its spans; exactness keeps its *outputs*
/// identical either way).
pub(crate) fn enabled(opt: Option<bool>) -> bool {
    !tango_obs::is_enabled() && opt.unwrap_or_else(env_enabled)
}

/// A device configuration's share of every launch key, hashed once per
/// device ([`crate::Gpu::new`]). Both structs are destructured in full, so
/// a field added to either does not compile until it is hashed here.
pub(crate) fn config_signature(config: &GpuConfig) -> u64 {
    let GpuConfig {
        name,
        num_sms,
        warp_size,
        max_threads_per_sm,
        max_ctas_per_sm,
        registers_per_sm,
        shared_mem_per_sm,
        issue_width,
        sp_width,
        sfu_width,
        ldst_width,
        alu_latency,
        sfu_latency,
        shared_latency,
        const_latency,
        l1_latency,
        l2_latency,
        dram_latency,
        dram_bytes_per_cycle,
        mshrs_per_sm,
        l1d,
        l2,
        clock_ghz,
        scheduler,
        requeue_penalty,
        fetch_bubble,
        power,
    } = config;
    let PowerConstants {
        rf_access_nj,
        ibp_nj,
        icp_nj,
        sched_nj,
        pipe_nj,
        sp_nj,
        fpu_nj,
        sfu_nj,
        l1_nj,
        tex_nj,
        const_nj,
        shared_nj,
        l2_nj,
        mc_nj,
        noc_nj,
        dram_nj,
        idle_sm_w,
        active_sm_w,
        const_w,
    } = power;
    let mut h = SigHasher::new();
    h.write_u64(name.len() as u64);
    for &b in name.as_bytes() {
        h.write_u8(b);
    }
    for word in [
        num_sms,
        warp_size,
        max_threads_per_sm,
        max_ctas_per_sm,
        registers_per_sm,
        shared_mem_per_sm,
        issue_width,
        sp_width,
        sfu_width,
        ldst_width,
        alu_latency,
        sfu_latency,
        shared_latency,
        const_latency,
        l1_latency,
        l2_latency,
        dram_latency,
        dram_bytes_per_cycle,
        mshrs_per_sm,
        requeue_penalty,
        fetch_bubble,
    ] {
        h.write_u32(*word);
    }
    h.write_u8(l1d.is_some() as u8);
    for CacheGeometry {
        size_bytes,
        line_bytes,
        assoc,
    } in l1d.iter().chain([l2])
    {
        h.write_u32(*size_bytes);
        h.write_u32(*line_bytes);
        h.write_u32(*assoc);
    }
    h.write_u8(*scheduler as u8);
    for value in [
        clock_ghz,
        rf_access_nj,
        ibp_nj,
        icp_nj,
        sched_nj,
        pipe_nj,
        sp_nj,
        fpu_nj,
        sfu_nj,
        l1_nj,
        tex_nj,
        const_nj,
        shared_nj,
        l2_nj,
        mc_nj,
        noc_nj,
        dram_nj,
        idle_sm_w,
        active_sm_w,
        const_w,
    ] {
        h.write_u64(value.to_bits());
    }
    h.finish()
}

/// The static half of a launch signature: everything known before the
/// first cycle. Two launches with equal static keys run the same program
/// over the same dimensions, parameters, device model, and options — they
/// can still differ in the device *data* they read, which the per-entry
/// probes verify.
///
/// Runs on every launch, hit or miss, so it mixes digests made earlier —
/// [`KernelProgram::digest`] at construction, [`config_signature`] at
/// `Gpu::new` — with the launch's own words and formats nothing.
pub(crate) fn static_key(
    program: &KernelProgram,
    grid: Dim3,
    block: Dim3,
    params: &[u32],
    smem_bytes: u32,
    config_sig: u64,
    opts: &SimOptions,
) -> u64 {
    // Destructured in full so that a new option is either hashed here or
    // left out by name, as `memo` is: it selects the execution strategy,
    // never the result.
    let SimOptions {
        scheduler,
        l1d_bytes,
        cta_sample_limit,
        power_window,
        batch,
        memo: _,
    } = *opts;
    let mut h = SigHasher::new();
    h.write_u64(program.digest());
    h.write_u64(config_sig);
    for d in [grid, block] {
        h.write_u32(d.x);
        h.write_u32(d.y);
        h.write_u32(d.z);
    }
    h.write_u64(params.len() as u64);
    for &p in params {
        h.write_u32(p);
    }
    h.write_u32(smem_bytes);
    h.write_opt(scheduler.map(|s| s as u64));
    h.write_opt(l1d_bytes.map(u64::from));
    h.write_opt(cta_sample_limit);
    h.write_u64(power_window);
    h.write_u32(batch);
    h.finish()
}

/// Records the dynamic inputs (clean global reads) and outputs (ordered
/// global writes) of one live launch. Created on a memo miss, threaded
/// through the interpreter, and turned into a [`MemoEntry`] at `finish`.
#[derive(Debug)]
pub(crate) struct MemoRecorder {
    key: u64,
    pre_tag: u64,
    poisoned: bool,
    /// Statically certified: the verifier proved every global access in
    /// this launch is a 4-byte aligned word, so the per-access poison
    /// probe below is skipped (it could never fire).
    certified: bool,
    /// Bitmap over 4-byte device words: read-or-written already.
    seen: Vec<u64>,
    /// Byte addresses of clean first reads, in simulation order.
    probes: Vec<u32>,
    /// Running digest of the values those probes observed.
    read_hash: SigHasher,
    /// Ordered log of global writes.
    writes: Vec<(u32, u32)>,
    /// One past the highest written byte (replay bounds check).
    max_write_end: u32,
}

impl MemoRecorder {
    pub fn new(key: u64, pre_tag: u64, mem_bytes: usize) -> Self {
        let words = mem_bytes / 4;
        MemoRecorder {
            key,
            pre_tag,
            poisoned: false,
            certified: false,
            seen: vec![0u64; words / 64 + 1],
            probes: Vec::new(),
            read_hash: SigHasher::new(),
            writes: Vec::new(),
            max_write_end: 0,
        }
    }

    /// Marks the launch as statically certified (see
    /// [`crate::Gpu::verify_launch`]): the width/alignment poison probes
    /// are elided because the verifier proved they cannot trigger. The
    /// recording itself is unchanged — replay stays byte-identical.
    pub fn certify(&mut self) {
        self.certified = true;
    }

    /// Drops the recording buffers: a poisoned launch keeps simulating but
    /// stops paying for memory it will never use.
    fn poison(&mut self) {
        self.poisoned = true;
        self.seen = Vec::new();
        self.probes = Vec::new();
        self.writes = Vec::new();
    }

    /// Observes one global load. Only aligned 32-bit accesses are
    /// memoizable; anything narrower would need byte-granular dependence
    /// tracking, so it poisons the recording instead (full simulation is
    /// always correct).
    #[inline]
    pub fn on_global_read(&mut self, addr: u32, wide: bool, value: u32) {
        if self.poisoned {
            return;
        }
        debug_assert!(
            !self.certified || (wide && addr & 3 == 0),
            "certified kernel made a narrow or unaligned read at {addr:#x}"
        );
        if !self.certified && (!wide || addr & 3 != 0) {
            self.poison();
            return;
        }
        let w = (addr >> 2) as usize;
        let (idx, bit) = (w >> 6, 1u64 << (w & 63));
        if self.seen[idx] & bit == 0 {
            self.seen[idx] |= bit;
            self.probes.push(addr);
            self.read_hash.write_u32(value);
        }
    }

    /// Observes one global store.
    #[inline]
    pub fn on_global_write(&mut self, addr: u32, wide: bool, value: u32) {
        if self.poisoned {
            return;
        }
        debug_assert!(
            !self.certified || (wide && addr & 3 == 0),
            "certified kernel made a narrow or unaligned write at {addr:#x}"
        );
        if !self.certified && (!wide || addr & 3 != 0) {
            self.poison();
            return;
        }
        let w = (addr >> 2) as usize;
        self.seen[w >> 6] |= 1u64 << (w & 63);
        self.writes.push((addr, value));
        self.max_write_end = self.max_write_end.max(addr.saturating_add(4));
    }
}

/// One recorded launch under a static key.
struct MemoEntry {
    /// Memory-hierarchy state tag the recording started from.
    pre_tag: u64,
    probes: Vec<u32>,
    read_hash: u64,
    writes: Vec<(u32, u32)>,
    max_write_end: u32,
    /// Exact post-launch L2/DRAM state (carries its own post-launch tag),
    /// shared with every device that holds it.
    post_memsys: Arc<MemorySystem>,
    stats: KernelStats,
}

/// Process-wide memo table. Entries from one `Gpu` serve every other
/// device with the same configuration (probes + tags re-verify state), so
/// a warmup pass accelerates every later run in the process.
fn table() -> &'static Mutex<HashMap<u64, Vec<MemoEntry>>> {
    static TABLE: OnceLock<Mutex<HashMap<u64, Vec<MemoEntry>>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(HashMap::new()))
}

static TABLE_BYTES: AtomicUsize = AtomicUsize::new(0);
/// Hard ceiling on memo memory; beyond it new recordings are dropped
/// (lookups keep working — the table just stops growing).
const MAX_TABLE_BYTES: usize = 512 << 20;
/// Per-entry ceiling: a launch touching this much unique data would bloat
/// the table for a replay that saves relatively little.
const MAX_ENTRY_BYTES: usize = 48 << 20;

/// Looks for a recorded launch matching `key` whose pre-state matches the
/// current device. On a hit, applies the write log to `mem` and returns
/// the recorded stats plus the post-launch memory hierarchy to install.
pub(crate) fn lookup(key: u64, pre_tag: u64, mem: &mut GlobalMemory) -> Option<(KernelStats, Arc<MemorySystem>)> {
    let guard = table().lock().unwrap_or_else(|e| e.into_inner());
    let entries = guard.get(&key)?;
    for entry in entries {
        if entry.pre_tag != pre_tag || entry.max_write_end as usize > mem.size_bytes() {
            continue;
        }
        let mut h = SigHasher::new();
        let mut ok = true;
        for &addr in &entry.probes {
            match mem.try_read_u32(addr) {
                Some(v) => h.write_u32(v),
                None => {
                    ok = false;
                    break;
                }
            }
        }
        if !ok || h.finish() != entry.read_hash {
            continue;
        }
        for &(addr, value) in &entry.writes {
            mem.write_u32(addr, value);
        }
        return Some((entry.stats.clone(), Arc::clone(&entry.post_memsys)));
    }
    None
}

/// Files a completed recording, sharing the post-launch hierarchy the
/// device holds instead of copying it. No-op for poisoned recordings or
/// when the table budget is exhausted.
///
/// The budget counts what the table keeps alive: a snapshot is counted
/// once, in the entry that recorded it, however many devices share it.
pub(crate) fn record(rec: MemoRecorder, post_memsys: &mut Hierarchy, stats: &KernelStats) {
    if rec.poisoned {
        return;
    }
    let bytes = rec.probes.len() * 4 + rec.writes.len() * 8 + post_memsys.snapshot_bytes() + 4096;
    if bytes > MAX_ENTRY_BYTES {
        return;
    }
    if TABLE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes > MAX_TABLE_BYTES {
        TABLE_BYTES.fetch_sub(bytes, Ordering::Relaxed);
        return;
    }
    let entry = MemoEntry {
        pre_tag: rec.pre_tag,
        probes: rec.probes,
        read_hash: rec.read_hash.finish(),
        writes: rec.writes,
        max_write_end: rec.max_write_end,
        post_memsys: post_memsys.share(),
        stats: stats.clone(),
    };
    table()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .entry(rec.key)
        .or_default()
        .push(entry);
}

/// Per-static-key verification verdicts, so a kernel relaunched with the
/// same static description is verified once per process, not once per
/// launch.
fn cert_table() -> &'static Mutex<HashMap<u64, bool>> {
    static CERTS: OnceLock<Mutex<HashMap<u64, bool>>> = OnceLock::new();
    CERTS.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Returns the cached certification verdict for `key`, computing and
/// caching it with `compute` on first sight.
pub(crate) fn certification(key: u64, compute: impl FnOnce() -> bool) -> bool {
    if let Some(&c) = cert_table().lock().unwrap_or_else(|e| e.into_inner()).get(&key) {
        return c;
    }
    let c = compute();
    cert_table()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(key, c);
    c
}

/// Memo table occupancy: `(static keys, entries, approximate bytes)`.
/// Exposed for diagnostics and benchmarks.
pub fn table_stats() -> (usize, usize, usize) {
    let guard = table().lock().unwrap_or_else(|e| e.into_inner());
    let keys = guard.len();
    let entries = guard.values().map(Vec::len).sum();
    (keys, entries, TABLE_BYTES.load(Ordering::Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hasher_distinguishes_order_and_values() {
        let mut a = SigHasher::new();
        a.write_u32(1);
        a.write_u32(2);
        let mut b = SigHasher::new();
        b.write_u32(2);
        b.write_u32(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn recorder_poisons_on_narrow_access() {
        let mut r = MemoRecorder::new(1, 1, 4096);
        r.on_global_read(256, true, 7);
        assert_eq!(r.probes.len(), 1);
        r.on_global_read(260, false, 7); // u16 load
        assert!(r.poisoned);
        assert!(r.probes.is_empty(), "poisoning releases buffers");
    }

    #[test]
    fn recorder_probes_each_clean_word_once() {
        let mut r = MemoRecorder::new(1, 1, 4096);
        r.on_global_read(256, true, 7);
        r.on_global_read(256, true, 7);
        assert_eq!(r.probes.len(), 1);
        // A write makes the word internal: later reads need no probe.
        r.on_global_write(512, true, 9);
        r.on_global_read(512, true, 9);
        assert_eq!(r.probes.len(), 1);
        assert_eq!(r.writes.len(), 1);
        assert_eq!(r.max_write_end, 516);
    }

    #[test]
    fn recorder_probes_word_read_before_write() {
        let mut r = MemoRecorder::new(1, 1, 4096);
        r.on_global_read(256, true, 3);
        r.on_global_write(256, true, 4);
        assert_eq!(r.probes, vec![256]);
        assert_eq!(r.writes, vec![(256, 4)]);
    }

    // ---- launch-key sensitivity ------------------------------------------
    //
    // The contract `static_key` must meet however it is derived: every
    // field of a launch description that can change the outcome changes
    // the key, equal descriptions built apart agree, and `memo` (which
    // selects the execution strategy, never the result) is ignored.

    use crate::config::SchedulerPolicy;
    use tango_isa::{AddrSpace, CmpOp, DType, Instruction, KernelBuilder, Opcode, Operand, PredReg, Reg, Special};

    const KEY_SEED: u64 = 0x7a16_0201_9151;

    /// The `i`-th draw of the test's seeded stream.
    fn draw(i: u64) -> u64 {
        let mut h = SigHasher::new();
        h.write_u64(KEY_SEED);
        h.write_u64(i);
        h.finish()
    }

    /// One instruction of each shape the ISA has a field for.
    fn base_instructions() -> Vec<Instruction> {
        let inst = |op, dtype, f: &dyn Fn(&mut Instruction)| {
            let mut i = Instruction::new(op, dtype);
            f(&mut i);
            i
        };
        vec![
            inst(Opcode::Mov, DType::U32, &|i| {
                i.dst = Some(Reg(0));
                i.srcs = vec![Special::TidX.into()];
            }),
            inst(Opcode::Set, DType::U32, &|i| {
                i.pdst = Some(PredReg(0));
                i.cmp = Some(CmpOp::Lt);
                i.srcs = vec![Reg(0).into(), Operand::imm_u32(55)];
            }),
            inst(Opcode::Add, DType::F32, &|i| {
                i.dst = Some(Reg(1));
                i.guard = Some((PredReg(0), true));
                i.srcs = vec![Reg(0).into(), Operand::imm_f32(1.5)];
            }),
            inst(Opcode::Ld, DType::F32, &|i| {
                i.dst = Some(Reg(2));
                i.space = Some(AddrSpace::Global);
                i.offset = 8;
                i.srcs = vec![Reg(1).into()];
            }),
            inst(Opcode::Cvt, DType::F32, &|i| {
                i.dst = Some(Reg(3));
                i.src_dtype = Some(DType::U32);
                i.srcs = vec![Reg(2).into()];
            }),
            inst(Opcode::St, DType::F32, &|i| {
                i.space = Some(AddrSpace::Global);
                i.offset = 4;
                i.srcs = vec![Reg(1).into(), Reg(3).into()];
            }),
            inst(Opcode::Bra, DType::U32, &|i| {
                i.guard = Some((PredReg(0), false));
                i.target = Some(8);
            }),
            inst(Opcode::Mad, DType::U32, &|i| {
                i.dst = Some(Reg(4));
                i.srcs = vec![Reg(0).into(), Operand::imm_u32(4), Reg(1).into()];
            }),
            inst(Opcode::Exit, DType::U32, &|_| {}),
        ]
    }

    fn program_of(name: &str, smem_bytes: u32, instructions: Vec<Instruction>) -> KernelProgram {
        let mut b = KernelBuilder::new(name);
        b.set_smem_bytes(smem_bytes);
        for inst in instructions {
            b.push_raw(inst);
        }
        b.build().expect("mutated program stays well-formed")
    }

    /// A whole launch description; `key` is what `begin_launch` computes.
    #[derive(Clone)]
    struct Launch {
        name: String,
        program_smem: u32,
        instructions: Vec<Instruction>,
        grid: Dim3,
        block: Dim3,
        params: Vec<u32>,
        smem_bytes: u32,
        config: GpuConfig,
        opts: SimOptions,
    }

    impl Launch {
        fn base() -> Self {
            Launch {
                name: "key_probe".to_string(),
                program_smem: 64,
                instructions: base_instructions(),
                grid: Dim3::xyz(5, 3, 2),
                block: Dim3::xyz(32, 2, 2),
                params: vec![256, 512, 7],
                smem_bytes: 128,
                config: GpuConfig::gp102(),
                opts: SimOptions::new(),
            }
        }

        fn key(&self) -> u64 {
            let program = program_of(&self.name, self.program_smem, self.instructions.clone());
            static_key(
                &program,
                self.grid,
                self.block,
                &self.params,
                self.smem_bytes,
                config_signature(&self.config),
                &self.opts,
            )
        }
    }

    /// A labelled single-field change to a launch description.
    type Mutation<'a> = (&'a str, &'a dyn Fn(&mut Launch));

    /// Asserts that each mutation, applied alone to the base launch,
    /// changes the key.
    fn assert_each_changes_key(what: &str, mutations: &[Mutation]) {
        let base = Launch::base().key();
        for (label, mutate) in mutations {
            let mut launch = Launch::base();
            mutate(&mut launch);
            assert_ne!(launch.key(), base, "{what}: changing {label} left the key unchanged");
        }
    }

    #[test]
    fn every_instruction_field_changes_the_key() {
        assert_each_changes_key(
            "instruction",
            &[
                ("opcode", &|l| l.instructions[2].op = Opcode::Sub),
                ("dtype", &|l| l.instructions[7].dtype = DType::S32),
                ("dst", &|l| l.instructions[2].dst = Some(Reg(5))),
                ("dst presence", &|l| l.instructions[7].dst = None),
                ("pdst", &|l| l.instructions[1].pdst = Some(PredReg(1))),
                ("guard register", &|l| l.instructions[2].guard = Some((PredReg(1), true))),
                ("guard sense", &|l| l.instructions[2].guard = Some((PredReg(0), false))),
                ("guard presence", &|l| l.instructions[2].guard = None),
                ("operand kind reg -> imm", &|l| l.instructions[7].srcs[0] = Operand::imm_u32(0)),
                ("operand kind reg -> special", &|l| l.instructions[7].srcs[0] = Special::TidX.into()),
                ("operand kind imm -> reg", &|l| l.instructions[7].srcs[1] = Reg(4).into()),
                ("register operand", &|l| l.instructions[7].srcs[2] = Reg(2).into()),
                ("integer immediate", &|l| l.instructions[7].srcs[1] = Operand::imm_u32(5)),
                ("float immediate", &|l| l.instructions[2].srcs[1] = Operand::imm_f32(2.5)),
                ("special operand", &|l| l.instructions[0].srcs[0] = Special::TidY.into()),
                ("operand count", &|l| {
                    l.instructions[7].srcs.pop();
                }),
                ("operand order", &|l| l.instructions[7].srcs.swap(0, 2)),
                ("load offset", &|l| l.instructions[3].offset = 12),
                ("store offset", &|l| l.instructions[5].offset = -4),
                ("load address space", &|l| l.instructions[3].space = Some(AddrSpace::Shared)),
                ("store address space", &|l| l.instructions[5].space = Some(AddrSpace::Shared)),
                ("cmp", &|l| l.instructions[1].cmp = Some(CmpOp::Le)),
                ("target", &|l| l.instructions[6].target = Some(7)),
                ("source dtype", &|l| l.instructions[4].src_dtype = Some(DType::S32)),
                ("instruction order", &|l| l.instructions.swap(3, 4)),
                ("instruction count", &|l| l.instructions.insert(7, Instruction::new(Opcode::Nop, DType::U32))),
                ("program name", &|l| l.name.push('2')),
                ("program smem_bytes", &|l| l.program_smem += 4),
            ],
        );

        // Seeded sweep: a drawn numeric field of a drawn instruction takes
        // a drawn value.
        let base = Launch::base();
        let base_key = base.key();
        for case in 0..200u64 {
            let mut launch = base.clone();
            let (pick, value) = (draw(2 * case), draw(2 * case + 1));
            let at = |choices: &[usize]| choices[(pick / 5) as usize % choices.len()];
            let what = match pick % 5 {
                0 => {
                    launch.instructions[at(&[0, 2, 3, 4, 7])].dst = Some(Reg(value as u8));
                    "dst"
                }
                1 => {
                    launch.instructions[7].srcs[1] = Operand::imm_u32(value as u32);
                    "integer immediate"
                }
                2 => {
                    launch.instructions[at(&[3, 5])].offset = value as i32 & !3;
                    "offset"
                }
                3 => {
                    launch.instructions[6].target = Some((value % 9) as u32);
                    "target"
                }
                _ => {
                    launch.instructions[at(&[1, 2, 4, 7])].srcs[0] = Reg(value as u8).into();
                    "register operand"
                }
            };
            if launch.instructions != base.instructions {
                assert_ne!(launch.key(), base_key, "case {case}: drawn {what} left the key unchanged");
            }
        }
    }

    #[test]
    fn every_launch_dimension_and_option_changes_the_key() {
        assert_each_changes_key(
            "launch",
            &[
                ("grid.x", &|l| l.grid.x += 1),
                ("grid.y", &|l| l.grid.y += 1),
                ("grid.z", &|l| l.grid.z += 1),
                ("block.x", &|l| l.block.x += 1),
                ("block.y", &|l| l.block.y += 1),
                ("block.z", &|l| l.block.z += 1),
                ("grid <-> block", &|l| std::mem::swap(&mut l.grid, &mut l.block)),
                ("param 0", &|l| l.params[0] ^= 1 << 31),
                ("param 1", &|l| l.params[1] += 4),
                ("param 2", &|l| l.params[2] = draw(1000) as u32),
                ("param order", &|l| l.params.swap(0, 1)),
                ("param count (appended zero)", &|l| l.params.push(0)),
                ("param count (dropped)", &|l| {
                    l.params.pop();
                }),
                ("smem_bytes", &|l| l.smem_bytes += 4),
                ("scheduler set", &|l| l.opts.scheduler = Some(SchedulerPolicy::Gto)),
                ("scheduler policy", &|l| l.opts.scheduler = Some(SchedulerPolicy::Lrr)),
                ("l1d_bytes bypass", &|l| l.opts.l1d_bytes = Some(0)),
                ("l1d_bytes size", &|l| l.opts.l1d_bytes = Some(16 * 1024)),
                ("cta_sample_limit off", &|l| l.opts.cta_sample_limit = None),
                ("cta_sample_limit value", &|l| l.opts.cta_sample_limit = Some(95)),
                ("power_window", &|l| l.opts.power_window += 1),
                ("batch", &|l| l.opts.batch = 2),
            ],
        );
        // Options that differ from each other, not only from the default.
        let with = |f: &dyn Fn(&mut SimOptions)| {
            let mut l = Launch::base();
            f(&mut l.opts);
            l.key()
        };
        assert_ne!(
            with(&|o| o.scheduler = Some(SchedulerPolicy::Lrr)),
            with(&|o| o.scheduler = Some(SchedulerPolicy::Tlv))
        );
        assert_ne!(with(&|o| o.l1d_bytes = Some(0)), with(&|o| o.cta_sample_limit = Some(0)));
        assert_ne!(with(&|o| o.power_window = 2), with(&|o| o.batch = 2));
    }

    #[test]
    fn every_gpu_config_field_changes_the_key() {
        assert_each_changes_key(
            "config",
            &[
                ("name", &|l| l.config.name.push('x')),
                ("num_sms", &|l| l.config.num_sms += 1),
                ("warp_size", &|l| l.config.warp_size += 1),
                ("max_threads_per_sm", &|l| l.config.max_threads_per_sm += 1),
                ("max_ctas_per_sm", &|l| l.config.max_ctas_per_sm += 1),
                ("registers_per_sm", &|l| l.config.registers_per_sm += 1),
                ("shared_mem_per_sm", &|l| l.config.shared_mem_per_sm += 1),
                ("issue_width", &|l| l.config.issue_width += 1),
                ("sp_width", &|l| l.config.sp_width += 1),
                ("sfu_width", &|l| l.config.sfu_width += 1),
                ("ldst_width", &|l| l.config.ldst_width += 1),
                ("alu_latency", &|l| l.config.alu_latency += 1),
                ("sfu_latency", &|l| l.config.sfu_latency += 1),
                ("shared_latency", &|l| l.config.shared_latency += 1),
                ("const_latency", &|l| l.config.const_latency += 1),
                ("l1_latency", &|l| l.config.l1_latency += 1),
                ("l2_latency", &|l| l.config.l2_latency += 1),
                ("dram_latency", &|l| l.config.dram_latency += 1),
                ("dram_bytes_per_cycle", &|l| l.config.dram_bytes_per_cycle += 1),
                ("mshrs_per_sm", &|l| l.config.mshrs_per_sm += 1),
                ("l1d", &|l| l.config.l1d = None),
                ("l1d.size_bytes", &|l| l.config.l1d.as_mut().unwrap().size_bytes *= 2),
                ("l1d.line_bytes", &|l| l.config.l1d.as_mut().unwrap().line_bytes /= 2),
                ("l1d.assoc", &|l| l.config.l1d.as_mut().unwrap().assoc /= 2),
                ("l2.size_bytes", &|l| l.config.l2.size_bytes *= 2),
                ("l2.line_bytes", &|l| l.config.l2.line_bytes /= 2),
                ("l2.assoc", &|l| l.config.l2.assoc /= 2),
                ("clock_ghz", &|l| l.config.clock_ghz += 0.001),
                ("scheduler", &|l| l.config.scheduler = SchedulerPolicy::Tlv),
                ("requeue_penalty", &|l| l.config.requeue_penalty += 1),
                ("fetch_bubble", &|l| l.config.fetch_bubble += 1),
                ("power.rf_access_nj", &|l| l.config.power.rf_access_nj += 0.01),
                ("power.ibp_nj", &|l| l.config.power.ibp_nj += 0.01),
                ("power.icp_nj", &|l| l.config.power.icp_nj += 0.01),
                ("power.sched_nj", &|l| l.config.power.sched_nj += 0.01),
                ("power.pipe_nj", &|l| l.config.power.pipe_nj += 0.01),
                ("power.sp_nj", &|l| l.config.power.sp_nj += 0.01),
                ("power.fpu_nj", &|l| l.config.power.fpu_nj += 0.01),
                ("power.sfu_nj", &|l| l.config.power.sfu_nj += 0.01),
                ("power.l1_nj", &|l| l.config.power.l1_nj += 0.01),
                ("power.tex_nj", &|l| l.config.power.tex_nj += 0.01),
                ("power.const_nj", &|l| l.config.power.const_nj += 0.01),
                ("power.shared_nj", &|l| l.config.power.shared_nj += 0.01),
                ("power.l2_nj", &|l| l.config.power.l2_nj += 0.01),
                ("power.mc_nj", &|l| l.config.power.mc_nj += 0.01),
                ("power.noc_nj", &|l| l.config.power.noc_nj += 0.01),
                ("power.dram_nj", &|l| l.config.power.dram_nj += 0.01),
                ("power.idle_sm_w", &|l| l.config.power.idle_sm_w += 0.01),
                ("power.active_sm_w", &|l| l.config.power.active_sm_w += 0.01),
                ("power.const_w", &|l| l.config.power.const_w += 0.01),
            ],
        );
        // Two power constants that swap values are still two configs.
        let mut swapped = Launch::base();
        let p = &mut swapped.config.power;
        std::mem::swap(&mut p.ibp_nj, &mut p.sched_nj);
        assert_ne!(swapped.key(), Launch::base().key());
    }

    #[test]
    fn equal_descriptions_built_apart_share_a_key_and_memo_is_ignored() {
        assert_eq!(Launch::base().key(), Launch::base().key());
        for memo in [Some(true), Some(false)] {
            let mut launch = Launch::base();
            launch.opts.memo = memo;
            assert_eq!(launch.key(), Launch::base().key(), "memo = {memo:?} changed the key");
        }
    }
}
