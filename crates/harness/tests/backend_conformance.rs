//! Trait-level conformance suite for the accelerator backends.
//!
//! Every [`tango_backend::Backend`] implementation — GPU adapter,
//! systolic array, FPGA — must satisfy the same contract:
//!
//! 1. **Determinism** — the same [`BackendRunSpec`] yields an identical
//!    [`BackendRun`], layer by layer, across repeated invocations.
//! 2. **Observability** — with tracing armed, the `backend.launch`
//!    virtual spans sum *exactly* to the reported total cycles, so the
//!    obs timeline and the report can never disagree.
//! 3. **Store round-trip** — a backend-tagged record survives the
//!    store: cold run, memory hit, and a disk replay through a fresh
//!    store all compare equal, and a warm store performs zero model
//!    evaluations.
//! 4. **Schema migration** — records from an older store schema are
//!    rejected with a clear error (never misread), treated as cache
//!    misses, and collectable by `gc`.

use std::fs;
use tango_backend::{
    run_backend, BackendJob, BackendKind, BackendRun, BackendRunSpec, BackendSpec, Precision, SystolicConfig,
};
use tango_fpga::PynqConfig;
use tango_harness::{decode_backend, RunKey, RunStore};
use tango_nets::{NetworkKind, Preset};
use tango_sim::GpuConfig;

fn spec_for(kind: BackendKind, net: NetworkKind, precision: Precision) -> BackendRunSpec {
    let spec = match kind {
        BackendKind::Gpu => BackendSpec::Gpu(GpuConfig::gp102()),
        BackendKind::Systolic => BackendSpec::Systolic(SystolicConfig::edge()),
        BackendKind::Fpga => BackendSpec::Fpga(PynqConfig::pynq_z1()),
    };
    BackendRunSpec {
        spec,
        job: BackendJob {
            kind: net,
            preset: Preset::Tiny,
            seed: 0x7A16_0201_9151,
            batch: 1,
            precision,
        },
    }
}

/// Runs `spec` in a fresh recording on this thread and returns the run
/// plus the cycles its `backend.launch` spans cover.
fn traced(spec: &BackendRunSpec) -> (BackendRun, u64) {
    tango_obs::enable(1 << 20);
    let run = run_backend(spec).expect("backend run succeeds");
    tango_obs::disable();
    let trace = tango_obs::drain();
    trace.check_nesting().expect("span tree nests");
    (run, trace.span_cycles("backend.launch"))
}

#[test]
fn backends_are_deterministic_and_spans_cover_every_cycle() {
    let nets = [NetworkKind::CifarNet, NetworkKind::Gru];
    for kind in BackendKind::ALL {
        for net in nets {
            let spec = spec_for(kind, net, Precision::Fp32);
            let (first, first_span_cycles) = traced(&spec);
            let (second, second_span_cycles) = traced(&spec);
            assert_eq!(first, second, "{kind} {net:?}: reruns diverged");
            assert!(first.total_cycles() > 0, "{kind} {net:?}: empty run");
            assert_eq!(
                first_span_cycles,
                first.total_cycles(),
                "{kind} {net:?}: backend.launch spans must sum exactly to reported cycles"
            );
            assert_eq!(first_span_cycles, second_span_cycles);
        }
    }
}

#[test]
fn store_round_trips_backend_records_for_every_backend() {
    let root = std::env::temp_dir().join(format!("tango-conform-store-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    let store = RunStore::at(&root);
    for kind in BackendKind::ALL {
        let spec = spec_for(kind, NetworkKind::Gru, Precision::Fp32);
        let (cold, hit) = store.fetch_backend(&spec).expect("cold fetch");
        assert!(!hit, "{kind}: first fetch must miss");
        let (warm, hit) = store.fetch_backend(&spec).expect("warm fetch");
        assert!(hit, "{kind}: second fetch must hit memory");
        assert_eq!(warm, cold);
        // A fresh store over the same directory replays from disk —
        // from the `.acc` record (systolic, FPGA) or, for the GPU
        // adapter, from the underlying `.run` record.
        let reopened = RunStore::at(&root);
        let (replayed, hit) = reopened.fetch_backend(&spec).expect("disk fetch");
        assert!(hit, "{kind}: fresh store must replay the persisted record");
        assert_eq!(replayed, cold, "{kind}: disk replay must be bit-faithful");
        assert_eq!(reopened.misses(), 0, "{kind}: warm store must run zero models");
    }
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn stale_schema_records_are_rejected_with_a_clear_error() {
    let root = std::env::temp_dir().join(format!("tango-conform-schema-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    let store = RunStore::at(&root);
    let spec = spec_for(BackendKind::Systolic, NetworkKind::Gru, Precision::Int8);
    let (fresh, _) = store.fetch_backend(&spec).expect("populate store");

    // Rewind the persisted record's schema version to the previous one
    // (bytes 4..8 are the little-endian version right after the magic).
    let path = root.join(RunKey::for_backend(&spec).file_name());
    let mut bytes = fs::read(&path).expect("record exists on disk");
    bytes[4..8].copy_from_slice(&2u32.to_le_bytes());
    fs::write(&path, &bytes).expect("rewrite record");

    // Decoding names the schema mismatch rather than misreading.
    let err = decode_backend(&bytes).expect_err("stale version must not decode");
    assert!(err.contains("schema version"), "unclear decode error: {err}");

    // A fresh store treats the stale record as a miss and repairs it.
    let reopened = RunStore::at(&root);
    let (rebuilt, hit) = reopened.fetch_backend(&spec).expect("re-fetch");
    assert!(!hit, "stale record must be a cache miss");
    assert_eq!(rebuilt, fresh, "repair must reproduce the same run");
    let (_, hit) = reopened.fetch_backend(&spec).expect("warm fetch");
    assert!(hit, "repaired record must serve hits again");

    // A stale record that is never re-fetched shows up as garbage and
    // is collected.
    bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
    let orphan = root.join("00deadbeef.acc");
    fs::write(&orphan, &bytes).expect("plant orphan");
    let stats = RunStore::at(&root).disk_stats().expect("disk stats");
    assert!(stats.stale_records >= 1, "orphaned stale record must be counted");
    let report = RunStore::at(&root).gc().expect("gc");
    assert!(report.removed_records >= 1, "gc must remove stale records");
    assert!(!orphan.exists(), "gc must delete the orphan file");
    let _ = fs::remove_dir_all(&root);
}
