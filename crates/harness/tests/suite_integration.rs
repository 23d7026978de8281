//! Integration tests over the store + suite pair: a warmed store must
//! serve a repeated suite with zero simulations, and parallel execution
//! must leave the store bit-identical to serial execution.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use tango::{Characterizer, RunSource};
use tango_harness::{encode_run, RunKey, RunStore, Suite};
use tango_nets::{NetworkKind, Preset};
use tango_sim::{GpuConfig, SimOptions};

const SEED: u64 = 0x7A16_0201_9151;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tango-suite-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A suite exercising both job kinds and both target networks of the
/// parallel-determinism acceptance check (one CNN, one RNN).
fn tiny_suite() -> Suite {
    let ch = Characterizer::new(GpuConfig::gp102(), Preset::Tiny, SEED);
    let mut suite = Suite::new();
    for kind in [NetworkKind::CifarNet, NetworkKind::Gru] {
        suite.add_run(ch.run_spec(kind, &SimOptions::new()));
        suite.add_run(ch.run_spec(kind, &SimOptions::new().with_l1d_bytes(0)));
        suite.add_build(tango::BuildSpec {
            preset: Preset::Tiny,
            seed: SEED,
            kind,
        });
    }
    suite
}

#[test]
fn warm_suite_rerun_performs_zero_simulations() {
    let dir = scratch_dir("warm");
    let suite = tiny_suite();

    let cold = RunStore::at(&dir);
    let first = suite.execute(&cold, 2).expect("cold pass");
    assert_eq!(first.jobs, suite.len());
    assert_eq!(first.misses, suite.len() as u64, "cold store must simulate everything");

    // A fresh handle on the same directory has an empty memory cache, so
    // every hit below is a disk hit — proving persistence, not memory.
    let warm = RunStore::at(&dir);
    let second = suite.execute(&warm, 2).expect("warm pass");
    assert_eq!(second.hits, suite.len() as u64, "warm store must hit on every job");
    assert_eq!(second.misses, 0, "warm store must not simulate");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn parallel_execution_is_bit_identical_to_serial() {
    let serial_dir = scratch_dir("serial");
    let parallel_dir = scratch_dir("parallel");
    let suite = tiny_suite();

    let serial = RunStore::at(&serial_dir);
    suite.execute(&serial, 1).expect("serial pass");
    let parallel = RunStore::at(&parallel_dir);
    suite.execute(&parallel, 4).expect("parallel pass");

    // Every persisted record must be byte-identical across the two
    // stores, both on disk and as fetched values.
    for job in suite.jobs() {
        let file = job.key().file_name();
        let a = std::fs::read(serial_dir.join(&file)).expect("serial record");
        let b = std::fs::read(parallel_dir.join(&file)).expect("parallel record");
        assert_eq!(a, b, "{file} differs between serial and parallel stores");
    }

    // And the figure producers see identical runs through either store.
    let mk = |store: RunStore| {
        Characterizer::new(GpuConfig::gp102(), Preset::Tiny, SEED).with_source(Arc::new(store))
    };
    let ch_a = mk(RunStore::at(&serial_dir));
    let ch_b = mk(RunStore::at(&parallel_dir));
    for kind in [NetworkKind::CifarNet, NetworkKind::Gru] {
        let a = ch_a.run_network(kind, &SimOptions::new()).unwrap();
        let b = ch_b.run_network(kind, &SimOptions::new()).unwrap();
        assert_eq!(a, b, "{kind}: fetched runs differ");
        assert_eq!(encode_run(&a), encode_run(&b), "{kind}: encodings differ");
    }

    let _ = std::fs::remove_dir_all(&serial_dir);
    let _ = std::fs::remove_dir_all(&parallel_dir);
}

#[test]
fn store_serves_characterizer_without_resimulating() {
    let dir = scratch_dir("source");
    let store = Arc::new(RunStore::at(&dir));
    let ch = Characterizer::new(GpuConfig::gp102(), Preset::Tiny, SEED).with_source(store.clone());

    let first = ch.run_network(NetworkKind::Gru, &SimOptions::new()).unwrap();
    assert_eq!(store.misses(), 1);
    let again = ch.run_network(NetworkKind::Gru, &SimOptions::new()).unwrap();
    assert_eq!(store.hits(), 1, "second request must be a store hit");
    assert_eq!(first, again);

    // The same spec resolves to the same record through the raw trait.
    let spec = ch.run_spec(NetworkKind::Gru, &SimOptions::new());
    let via_trait = store.network_run(&spec).unwrap();
    assert_eq!(via_trait, first);
    assert!(dir.join(RunKey::for_run(&spec).file_name()).exists());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn suite_workers_record_into_the_callers_recording() {
    let mut suite = Suite::new();
    for kind in [NetworkKind::CifarNet, NetworkKind::Gru] {
        suite.add_build(tango::BuildSpec {
            preset: Preset::Tiny,
            seed: SEED,
            kind,
        });
    }
    let (traced_dir, stranger_dir) = (scratch_dir("traced"), scratch_dir("stranger"));
    let start = Barrier::new(2);
    // The same suite runs at the same time on a thread that records
    // nothing: its workers must not reach this thread's recording.
    let (traced, stranger) = std::thread::scope(|s| {
        let stranger = s.spawn(|| {
            start.wait();
            suite.execute(&RunStore::at(&stranger_dir), 2).expect("untraced pass");
            tango_obs::drain()
        });
        tango_obs::enable(1 << 16);
        start.wait();
        suite.execute(&RunStore::at(&traced_dir), 2).expect("traced pass");
        tango_obs::disable();
        (tango_obs::drain(), stranger.join().expect("stranger thread"))
    });
    assert!(stranger.is_empty(), "{:?}", stranger.events);
    traced.check_nesting().expect("span tree nests");
    let tids = |cat: &str| -> Vec<u32> { traced.events.iter().filter(|e| e.cat == cat).map(|e| e.tid).collect() };
    assert_eq!(tids("harness.suite"), [1, 1]);
    let workers = tids("harness.worker");
    assert_eq!(workers.len(), 4, "one span per worker: {:?}", traced.events);
    let tracks: BTreeSet<u32> = workers.into_iter().collect();
    assert_eq!(tracks.len(), 2);
    assert!(!tracks.contains(&1), "workers record on tracks of their own");
    assert_eq!(tids("harness.job").len(), 2 * suite.len());

    let _ = std::fs::remove_dir_all(&traced_dir);
    let _ = std::fs::remove_dir_all(&stranger_dir);
}
