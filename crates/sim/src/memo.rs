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
//! * The static key hashes the program text, grid/block, parameter words,
//!   shared-memory size, the device config, and every simulation option.
//! * The dynamic part of the input is the device state the launch read:
//!   every *clean first read* of a global word is recorded (address order
//!   and a running value digest) and re-verified against current memory
//!   before a replay; any mismatch falls back to full simulation.
//! * The L2/DRAM pre-state is tracked by a cheap state tag
//!   ([`MemorySystem::state_tag`]): equal tags guarantee equal hierarchy
//!   state, unequal tags fall back to full simulation.
//! * Launches that perform sub-word (`u16`) or unaligned global accesses
//!   poison their recording and are simply never memoized.
//!
//! A hit replays the ordered global-write log, restores the recorded
//! post-launch memory hierarchy, and returns a clone of the recorded
//! [`KernelStats`] — bit-for-bit what full simulation would produce.
//!
//! Tracing (`tango_obs`) disables the memo wholesale: traced runs must
//! emit their full span/counter streams, and because the memo is exact,
//! the traced-vs-untraced byte-identity gate in ci.sh still holds.

use crate::mem::GlobalMemory;
use crate::memsys::MemorySystem;
use crate::stats::KernelStats;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
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

    pub fn write_str(&mut self, s: &str) {
        for &b in s.as_bytes() {
            self.write_u8(b);
        }
        self.write_u8(0xFF); // length delimiter
    }

    pub fn finish(self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

impl std::fmt::Write for SigHasher {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &b in s.as_bytes() {
            self.write_u8(b);
        }
        Ok(())
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

/// The static half of a launch signature: everything known before the
/// first cycle. Two launches with equal static keys run the same program
/// over the same dimensions, parameters, device model, and options — they
/// can still differ in the device *data* they read, which the per-entry
/// probes verify.
pub(crate) fn static_key(
    program: &KernelProgram,
    grid: Dim3,
    block: Dim3,
    params: &[u32],
    smem_bytes: u32,
    config_debug: &str,
    opts_debug: &str,
) -> u64 {
    let mut h = SigHasher::new();
    h.write_str(program.name());
    h.write_u32(program.register_count());
    h.write_u32(program.pred_count());
    h.write_u32(program.smem_bytes());
    for inst in program.instructions() {
        let _ = write!(h, "{inst};");
    }
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
    h.write_str(config_debug);
    h.write_str(opts_debug);
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
    /// Exact post-launch L2/DRAM state (carries its own post-launch tag).
    post_memsys: MemorySystem,
    stats: KernelStats,
}

impl MemoEntry {
    fn approx_bytes(&self) -> usize {
        self.probes.len() * 4 + self.writes.len() * 8 + self.post_memsys.approx_clone_bytes() + 4096
    }
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
pub(crate) fn lookup(key: u64, pre_tag: u64, mem: &mut GlobalMemory) -> Option<(KernelStats, MemorySystem)> {
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
        return Some((entry.stats.clone(), entry.post_memsys.clone()));
    }
    None
}

/// Files a completed recording. No-op for poisoned recordings or when the
/// table budget is exhausted.
pub(crate) fn record(rec: MemoRecorder, post_memsys: &MemorySystem, stats: &KernelStats) {
    if rec.poisoned {
        return;
    }
    let entry = MemoEntry {
        pre_tag: rec.pre_tag,
        probes: rec.probes,
        read_hash: rec.read_hash.finish(),
        writes: rec.writes,
        max_write_end: rec.max_write_end,
        post_memsys: post_memsys.clone(),
        stats: stats.clone(),
    };
    let bytes = entry.approx_bytes();
    if bytes > MAX_ENTRY_BYTES {
        return;
    }
    if TABLE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes > MAX_TABLE_BYTES {
        TABLE_BYTES.fetch_sub(bytes, Ordering::Relaxed);
        return;
    }
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
}
