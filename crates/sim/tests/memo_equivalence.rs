//! Launch memoization must be invisible: byte-identical `KernelStats` and
//! memory contents whether a launch is fully simulated or replayed from
//! the process-global memo table, across every device preset and in
//! composition with CTA sampling and batch replication.
//!
//! Every test forces the path explicitly via `SimOptions::with_memo`
//! instead of the `TANGO_SIM_MEMO` environment variable, so the two paths
//! can be compared race-free inside one test process.

use std::sync::Barrier;
use tango_isa::{DType, Dim3, KernelBuilder, KernelProgram, Operand};
use tango_sim::{Gpu, GpuConfig, SimOptions, StepStatus};

/// y[tid] = a * x[tid] + y[tid] — the canonical streaming kernel.
fn saxpy() -> KernelProgram {
    saxpy_named("memo_saxpy")
}

/// [`saxpy`] under a name of the caller's: the name is part of the memo
/// key, so a test that counts hits keeps its entries to itself.
fn saxpy_named(name: &str) -> KernelProgram {
    let mut b = KernelBuilder::new(name);
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

/// out[tid] = x[tid] + x[tid] — pure, output disjoint from input.
fn double() -> KernelProgram {
    double_named("memo_double")
}

fn double_named(name: &str) -> KernelProgram {
    let mut b = KernelBuilder::new(name);
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

/// Runs the two-kernel "network" (double feeding saxpy) `reps` times on a
/// fresh device and returns every launch's debug-formatted stats plus the
/// final output buffer. Repetitions after the first re-launch identical
/// work over identical data — exactly the shape the memo accelerates.
fn run_sequence(config: GpuConfig, opts: &SimOptions, reps: usize, n: usize) -> (Vec<String>, Vec<f32>) {
    let mut gpu = Gpu::new(config);
    let x: Vec<f32> = (0..n).map(|i| i as f32 * 0.5).collect();
    let x_addr = gpu.upload_f32s(&x);
    let mid_addr = gpu.alloc_bytes(n as u32 * 4);
    let y_addr = gpu.upload_f32s(&vec![1.0; n]);
    let grid = Dim3::x((n as u32).div_ceil(64));
    let block = Dim3::x(64);
    let (p_double, p_saxpy) = (double(), saxpy());
    let mut stats = Vec::new();
    for _ in 0..reps {
        // Reset y so every repetition computes over identical data.
        gpu.memory_mut().write_f32s(y_addr, &vec![1.0; n]);
        let s1 = gpu.launch(&p_double, grid, block, &[x_addr, mid_addr], 0, opts);
        let s2 = gpu.launch(&p_saxpy, grid, block, &[mid_addr, y_addr, 0.25f32.to_bits()], 0, opts);
        stats.push(format!("{s1:?}"));
        stats.push(format!("{s2:?}"));
    }
    (stats, gpu.download_f32s(y_addr, n))
}

#[test]
fn memoized_stats_identical_across_presets() {
    for config in [GpuConfig::gk210(), GpuConfig::tx1(), GpuConfig::gp102()] {
        let full = run_sequence(config.clone(), &SimOptions::new().with_memo(false), 3, 512);
        // First memoized pass records the launch chain; the second, on a
        // fresh identically-configured device, replays it end to end.
        let memo1 = run_sequence(config.clone(), &SimOptions::new().with_memo(true), 3, 512);
        let memo2 = run_sequence(config.clone(), &SimOptions::new().with_memo(true), 3, 512);
        assert_eq!(full.1, memo1.1, "outputs diverged on {:?}", config.name);
        assert_eq!(full.1, memo2.1, "replayed outputs diverged on {:?}", config.name);
        assert_eq!(full.0.len(), memo1.0.len());
        for (i, f) in full.0.iter().enumerate() {
            assert_eq!(f, &memo1.0[i], "launch {i} stats diverged on {:?}", config.name);
            assert_eq!(f, &memo2.0[i], "launch {i} replayed stats diverged on {:?}", config.name);
        }
    }
}

#[test]
fn memo_composes_with_sampling_and_batching() {
    // Property sweep: every (cta_sample_limit, batch) cell must agree
    // between the memoized and full paths — the memo key covers both
    // options, so replay never crosses cells.
    for limit in [None, Some(8), Some(32)] {
        for batch in [1u32, 4] {
            let opts = SimOptions::new().with_cta_sample_limit(limit).with_batch(batch);
            let full = run_sequence(GpuConfig::gp102(), &opts.clone().with_memo(false), 2, 2048);
            let memo = run_sequence(GpuConfig::gp102(), &opts.clone().with_memo(true), 2, 2048);
            let replay = run_sequence(GpuConfig::gp102(), &opts.clone().with_memo(true), 2, 2048);
            assert_eq!(full.1, memo.1, "outputs diverged at limit={limit:?} batch={batch}");
            assert_eq!(full.0, memo.0, "stats diverged at limit={limit:?} batch={batch}");
            assert_eq!(full.0, replay.0, "replayed stats diverged at limit={limit:?} batch={batch}");
            assert_eq!(full.1, replay.1, "replayed outputs diverged at limit={limit:?} batch={batch}");
        }
    }
}

#[test]
fn memo_falls_back_when_input_data_changes() {
    // Same program, same addresses, different buffer contents: the probe
    // digest must miss and the launch must re-simulate with the new data.
    // Replays happen across fresh identically-configured devices (the tag
    // chain starts from the shared pristine tag), so each scenario runs on
    // its own device.
    let n = 256usize;
    let run = |memo: bool, fill: f32| {
        let mut gpu = Gpu::new(GpuConfig::gp102());
        let x_addr = gpu.upload_f32s(&vec![fill; n]);
        let o_addr = gpu.alloc_bytes(n as u32 * 4);
        let s = gpu.launch(
            &double(),
            Dim3::x(4),
            Dim3::x(64),
            &[x_addr, o_addr],
            0,
            &SimOptions::new().with_memo(memo),
        );
        (format!("{s:?}"), gpu.download_f32s(o_addr, n))
    };
    let (s1, out1) = run(true, 1.0); // records
    let (s2, out2) = run(true, 1.0); // replays
    assert_eq!(s1, s2);
    assert_eq!(out1, vec![2.0; n]);
    assert_eq!(out2, vec![2.0; n]);
    // Divergence: identical static signature and pre-state tag, different
    // input data — the probes must reject the entry.
    let (s3, out3) = run(true, 3.0);
    assert_eq!(out3, vec![6.0; n], "stale replay served after input change");
    let (s3_full, _) = run(false, 3.0);
    assert_eq!(s3, s3_full, "fallback path diverged from full simulation");
}

#[test]
fn narrow_accesses_poison_but_stay_correct() {
    // A kernel doing u16 global traffic is never memoizable (sub-word
    // writes defeat word-granular dependence tracking); it must silently
    // fall back to full simulation every time and stay correct.
    let mut b = KernelBuilder::new("memo_u16");
    let tid = b.global_tid_x();
    let off = b.reg();
    let xa = b.reg();
    let oa = b.reg();
    let v = b.reg();
    let x_base = b.load_param(0);
    let o_base = b.load_param(1);
    b.shl(DType::U32, off, tid.into(), Operand::imm_u32(1));
    b.add(DType::U32, xa, off.into(), x_base.into());
    b.add(DType::U32, oa, off.into(), o_base.into());
    b.ld_global(DType::U16, v, xa, 0);
    b.add(DType::U16, v, v.into(), Operand::imm_u32(1));
    b.st_global(DType::U16, oa, 0, v);
    b.exit();
    let p = b.build().unwrap();

    let run = |memo: bool, base: u16| {
        let mut gpu = Gpu::new(GpuConfig::gp102());
        let x_addr = gpu.alloc_bytes(64 * 2);
        let o_addr = gpu.alloc_bytes(64 * 2);
        for i in 0..64u32 {
            gpu.memory_mut().write_u16(x_addr + i * 2, base + i as u16);
        }
        let s = gpu.launch(
            &p,
            Dim3::x(2),
            Dim3::x(32),
            &[x_addr, o_addr],
            0,
            &SimOptions::new().with_memo(memo),
        );
        let out: Vec<u16> = (0..64u32).map(|i| gpu.memory().read_u16(o_addr + i * 2)).collect();
        (format!("{s:?}"), out)
    };
    // Two memo-on runs with different inputs: a stale replay would freeze
    // the first run's outputs; poisoning must keep both fully simulated.
    let (sa, out_a) = run(true, 0);
    let (sb, out_b) = run(true, 100);
    assert_eq!(out_a, (0..64u16).map(|i| i + 1).collect::<Vec<_>>());
    assert_eq!(out_b, (0..64u16).map(|i| i + 101).collect::<Vec<_>>());
    // And each matches the memo-off path byte for byte.
    assert_eq!(sa, run(false, 0).0);
    assert_eq!(sb, run(false, 100).0);
}

#[test]
fn memo_replays_across_devices_with_shared_table() {
    // The table is process-global: a launch recorded on one device must
    // replay on a second identically-configured device with identical
    // stats — the serving fleet case (N workers, same model).
    let n = 512usize;
    let run = |memo: bool| {
        let mut gpu = Gpu::new(GpuConfig::tx1());
        let x_addr = gpu.upload_f32s(&(0..n).map(|i| (i % 7) as f32).collect::<Vec<_>>());
        let o_addr = gpu.alloc_bytes(n as u32 * 4);
        let s = gpu.launch(
            &double(),
            Dim3::x(8),
            Dim3::x(64),
            &[x_addr, o_addr],
            0,
            &SimOptions::new().with_memo(memo),
        );
        (format!("{s:?}"), gpu.download_f32s(o_addr, n))
    };
    let baseline = run(false);
    let first = run(true); // records (or replays a prior test's entry)
    let second = run(true); // replays
    assert_eq!(baseline.0, first.0);
    assert_eq!(baseline.0, second.0);
    assert_eq!(baseline.1, second.1);
}

// ---- shared hierarchy state ---------------------------------------------
//
// A memo hit leaves the device holding the recorded post-launch L2/DRAM
// state itself, shared with the table and with every other device that
// replayed the launch. A device that goes on to simulate must copy it
// first: nothing it does may reach the entry or another device.

/// A fresh device with the chain's buffers: `first` doubles `x` into
/// `mid`, `second` is saxpy over (`mid`, `y`), and `other` doubles `x`
/// into a scratch buffer neither of them touches.
struct Chain {
    gpu: Gpu,
    first: KernelProgram,
    second: KernelProgram,
    x: u32,
    mid: u32,
    y: u32,
    scratch: u32,
}

const CHAIN_N: usize = 4096;

impl Chain {
    /// `tag` names the kernels, so each test owns its memo entries.
    fn new(tag: &str) -> Chain {
        let mut gpu = Gpu::new(GpuConfig::gp102());
        let x = gpu.upload_f32s(&(0..CHAIN_N).map(|i| (i % 13) as f32).collect::<Vec<_>>());
        let mid = gpu.alloc_bytes(CHAIN_N as u32 * 4);
        let y = gpu.upload_f32s(&vec![1.0; CHAIN_N]);
        let scratch = gpu.alloc_bytes(CHAIN_N as u32 * 4);
        Chain {
            gpu,
            first: double_named(&format!("{tag}_double")),
            second: saxpy_named(&format!("{tag}_saxpy")),
            x,
            mid,
            y,
            scratch,
        }
    }

    fn first(&mut self, memo: bool) -> (bool, String) {
        observed_launch(&mut self.gpu, &self.first, &[self.x, self.mid], memo)
    }

    fn second(&mut self, memo: bool) -> (bool, String) {
        observed_launch(&mut self.gpu, &self.second, &[self.mid, self.y, 0.25f32.to_bits()], memo)
    }

    /// A launch no test records ahead of time: live on first sight.
    fn other(&mut self, memo: bool) -> (bool, String) {
        observed_launch(&mut self.gpu, &self.first, &[self.x, self.scratch], memo)
    }

    fn output(&self) -> Vec<f32> {
        self.gpu.download_f32s(self.y, CHAIN_N)
    }
}

/// Launches `program` over the chain's geometry and returns whether the
/// memo served it — a replayed frame is done before its first step — with
/// its stats.
fn observed_launch(gpu: &mut Gpu, program: &KernelProgram, params: &[u32], memo: bool) -> (bool, String) {
    let opts = SimOptions::new().with_memo(memo);
    let frame = gpu.begin_launch(program, Dim3::x(CHAIN_N as u32 / 64), Dim3::x(64), params, 0, &opts);
    let hit = frame.is_done();
    (hit, format!("{:?}", frame.finish()))
}

/// The chain fully simulated: what every memoized variant must equal.
fn chain_reference(tag: &str) -> (String, String, Vec<f32>) {
    let mut full = Chain::new(tag);
    let (_, s1) = full.first(false);
    let (_, s2) = full.second(false);
    (s1, s2, full.output())
}

#[test]
fn a_live_launch_after_a_replay_leaves_the_entry_as_recorded() {
    let tag = "share_live_after_replay";
    let (ref_first, ref_second, ref_out) = chain_reference(tag);

    let mut recorder = Chain::new(tag);
    assert_eq!(recorder.first(true), (false, ref_first.clone()));

    // Replays, then simulates on: the second launch runs live (memo off)
    // on this device's private copy of the recorded state.
    let mut replayer = Chain::new(tag);
    assert_eq!(replayer.first(true), (true, ref_first.clone()));
    assert!(!replayer.other(true).0);
    assert_eq!(replayer.second(false), (false, ref_second.clone()));

    // A fresh device still replays the first launch, and what it is handed
    // is still the exact post-launch state: a live second launch on top of
    // it counts the same L2 hits and misses as the fully simulated chain.
    let mut fresh = Chain::new(tag);
    assert_eq!(fresh.first(true), (true, ref_first));
    assert_eq!(fresh.second(false), (false, ref_second));
    assert_eq!(fresh.output(), ref_out);
}

#[test]
fn devices_sharing_an_entry_do_not_see_each_others_simulation() {
    let tag = "share_two_devices";
    let (ref_first, ref_second, ref_out) = chain_reference(tag);

    let mut recorder = Chain::new(tag);
    assert!(!recorder.first(true).0);
    assert!(!recorder.second(true).0);

    let mut a = Chain::new(tag);
    let mut b = Chain::new(tag);
    assert_eq!(a.first(true), (true, ref_first.clone()));
    assert_eq!(b.first(true), (true, ref_first));
    // `a` simulates something else on top of the state both hold...
    assert!(!a.other(true).0);
    // ...and `b` is still exactly where the recording left off: its next
    // launch finds its pre-state tag and replays.
    assert_eq!(b.second(true), (true, ref_second));
    assert_eq!(b.output(), ref_out);
}

#[test]
fn a_frame_dropped_after_a_replay_leaves_the_entry_and_a_fresh_tag() {
    let tag = "share_dropped_frame";
    let (ref_first, ref_second, ref_out) = chain_reference(tag);

    let mut recorder = Chain::new(tag);
    assert!(!recorder.first(true).0);
    assert!(!recorder.second(true).0);

    let mut abandoner = Chain::new(tag);
    assert!(abandoner.first(true).0);
    {
        let opts = SimOptions::new().with_memo(true);
        let params = [abandoner.x, abandoner.scratch];
        let mut frame =
            abandoner
                .gpu
                .begin_launch(&abandoner.first, Dim3::x(CHAIN_N as u32 / 64), Dim3::x(64), &params, 0, &opts);
        assert_eq!(frame.step(8), StepStatus::Running, "the launch must still be in flight when dropped");
    }
    // The abandoned launch mutated the device's own copy under a fresh
    // tag, so the recorded second launch no longer matches this device:
    // it simulates (correctly) instead of replaying a stale entry.
    let (hit, _) = abandoner.second(true);
    assert!(!hit, "a device left mid-launch must not replay from its old tag");
    assert_eq!(abandoner.output(), ref_out);

    // The entries themselves are untouched: a third device replays both.
    let mut third = Chain::new(tag);
    assert_eq!(third.first(true), (true, ref_first));
    assert_eq!(third.second(true), (true, ref_second));
    assert_eq!(third.output(), ref_out);
}

#[test]
fn another_threads_recording_leaves_the_memo_on_here() {
    // Tracing turns the memo off only on the thread that records: while
    // another thread holds a recording, this one still records and
    // replays launches.
    let tag = "memo_beside_a_recording";
    let (armed, done) = (Barrier::new(2), Barrier::new(2));
    let (recorded, replayed) = std::thread::scope(|s| {
        s.spawn(|| {
            tango_obs::enable(64);
            armed.wait();
            done.wait();
            tango_obs::disable();
        });
        armed.wait();
        let recorded = Chain::new(tag).first(true).0;
        let replayed = Chain::new(tag).first(true).0;
        done.wait();
        (recorded, replayed)
    });
    assert!(!recorded, "first launch must simulate");
    assert!(replayed, "second launch must replay");
}
