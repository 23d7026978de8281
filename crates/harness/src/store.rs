//! The persistent, content-addressed run store.
//!
//! A [`RunStore`] memoizes simulation results at two levels: an
//! in-process map (shared across threads) and an on-disk directory of
//! records named by [`RunKey`]. A fetch checks memory, then disk, then
//! simulates and persists. Disk writes go through a temp file and an
//! atomic rename, so concurrent processes sharing one store directory
//! can only ever observe complete records; unreadable or stale records
//! are treated as misses and rewritten.
//!
//! The store implements [`RunSource`], so plugging it into a
//! `Characterizer` (`ch.with_source(store)`) makes every figure and
//! table producer cache-aware without further changes.

use crate::codec::{
    decode_backend, decode_build, decode_run, encode_backend, encode_build, encode_run, probe_backend_code,
    probe_record, DecodeError,
};
use crate::key::{RecordKind, RunKey, STORE_SCHEMA_VERSION};
use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use tango::{measure_build, simulate_run, BuildSpec, BuildStats, NetworkRun, Result, RunSource, RunSpec};
use tango_backend::{
    lower::LoweredNet, run_backend, BackendError, BackendKind, BackendRun, BackendRunSpec, BackendSpec, Precision,
};
use tango_sim::SimOptions;

/// The workspace-level `results/` directory: `TANGO_RESULTS_DIR` when
/// set, otherwise `<workspace root>/results` (resolved at compile time
/// from this crate's manifest location, so it does not depend on the
/// process working directory).
pub fn results_root() -> PathBuf {
    if let Ok(Some(dir)) = tango_obs::env::RESULTS_DIR.raw() {
        return PathBuf::from(dir);
    }
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crate lives two levels below the workspace root")
        .join("results")
}

/// A persistent, content-addressed cache of simulation results.
pub struct RunStore {
    root: PathBuf,
    runs: Mutex<HashMap<u64, NetworkRun>>,
    builds: Mutex<HashMap<u64, BuildStats>>,
    backends: Mutex<HashMap<u64, BackendRun>>,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
}

impl std::fmt::Debug for RunStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunStore")
            .field("root", &self.root)
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("writes", &self.writes())
            .finish()
    }
}

impl RunStore {
    /// A store rooted at `root` (created on first write).
    pub fn at(root: impl Into<PathBuf>) -> Self {
        RunStore {
            root: root.into(),
            runs: Mutex::new(HashMap::new()),
            builds: Mutex::new(HashMap::new()),
            backends: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
        }
    }

    /// The default on-disk location, `results/store/` at the workspace
    /// root (see [`results_root`]).
    pub fn open_default() -> Self {
        RunStore::at(results_root().join("store"))
    }

    /// The store's directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Fetches served without simulating (memory or disk).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Fetches that had to simulate.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Records persisted to disk (one per successfully written miss).
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    /// Resets the hit/miss/write counters (e.g. between a warm-up pass
    /// and a measured pass).
    pub fn reset_counters(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.writes.store(0, Ordering::Relaxed);
    }

    /// Bumps `counter` and surfaces the new running total as a
    /// host-clock trace counter.
    fn count(&self, counter: &AtomicU64, name: &'static str) {
        let total = counter.fetch_add(1, Ordering::Relaxed) + 1;
        tango_obs::hcounter("harness.store", name, total as i64);
    }

    fn path_for(&self, key: &RunKey) -> PathBuf {
        self.root.join(key.file_name())
    }

    /// Best-effort persist: a cache that cannot write is slow, not
    /// broken, so I/O failures are swallowed.
    fn persist(&self, key: &RunKey, bytes: &[u8]) {
        if fs::create_dir_all(&self.root).is_err() {
            return;
        }
        let tmp = self.root.join(format!(".{}.tmp.{}", key.file_name(), std::process::id()));
        if fs::write(&tmp, bytes).is_ok() {
            if fs::rename(&tmp, self.path_for(key)).is_ok() {
                self.count(&self.writes, "writes");
            } else {
                let _ = fs::remove_file(&tmp);
            }
        }
    }

    fn load(&self, key: &RunKey) -> Option<Vec<u8>> {
        fs::read(self.path_for(key)).ok()
    }

    /// A memory-cache hit for `digest`, counted.
    fn cached<T: Clone>(&self, cache: &Mutex<HashMap<u64, T>>, digest: u64) -> Option<T> {
        let hit = cache.lock().expect("store lock").get(&digest).cloned();
        if hit.is_some() {
            self.count(&self.hits, "hits");
        }
        hit
    }

    /// The fetch ladder shared by every record kind: memory, then disk
    /// (an undecodable record is a miss), then `compute`, whose result
    /// is persisted and cached. The flag is `true` on a cache hit.
    fn fetch<T: Clone, E>(
        &self,
        cache: &Mutex<HashMap<u64, T>>,
        key: &RunKey,
        decode: impl FnOnce(&[u8]) -> std::result::Result<T, DecodeError>,
        encode: impl FnOnce(&T) -> Vec<u8>,
        compute: impl FnOnce() -> std::result::Result<T, E>,
    ) -> std::result::Result<(T, bool), E> {
        if let Some(value) = self.cached(cache, key.digest) {
            return Ok((value, true));
        }
        let (value, was_hit) = match self.load(key).and_then(|bytes| decode(&bytes).ok()) {
            Some(value) => {
                self.count(&self.hits, "hits");
                (value, true)
            }
            None => {
                self.count(&self.misses, "misses");
                let value = compute()?;
                self.persist(key, &encode(&value));
                (value, false)
            }
        };
        cache.lock().expect("store lock").insert(key.digest, value.clone());
        Ok((value, was_hit))
    }

    /// Fetches (or simulates and caches) the run for `spec`. The flag is
    /// `true` when the result came from the cache.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures; cache I/O never fails a fetch.
    pub fn fetch_run(&self, spec: &RunSpec) -> Result<(NetworkRun, bool)> {
        let key = RunKey::for_run(spec);
        debug_assert_eq!(key.record, RecordKind::Run);
        self.fetch(&self.runs, &key, decode_run, encode_run, || simulate_run(spec))
    }

    /// Fetches (or measures and caches) the build stats for `spec`. The
    /// flag is `true` when the result came from the cache.
    ///
    /// # Errors
    ///
    /// Propagates network-construction failures; cache I/O never fails a
    /// fetch.
    pub fn fetch_build(&self, spec: &BuildSpec) -> Result<(BuildStats, bool)> {
        let key = RunKey::for_build(spec);
        debug_assert_eq!(key.record, RecordKind::Build);
        self.fetch(&self.builds, &key, decode_build, encode_build, || measure_build(spec))
    }

    /// Fetches (or executes and caches) the backend run for `spec`. The
    /// flag is `true` when the result came from the cache.
    ///
    /// GPU-backend requests are special-cased: the heavy payload is the
    /// simulator's `NetworkRun`, which [`fetch_run`](Self::fetch_run)
    /// already caches as a `.run` record, so the GPU path converts from
    /// that cache instead of persisting a second on-disk copy. Systolic
    /// and FPGA runs persist native `.acc` records.
    ///
    /// # Errors
    ///
    /// Propagates backend execution failures (unsupported precision,
    /// simulation errors); cache I/O never fails a fetch.
    pub fn fetch_backend(&self, spec: &BackendRunSpec) -> std::result::Result<(BackendRun, bool), BackendError> {
        let key = RunKey::for_backend(spec);
        debug_assert_eq!(key.record, RecordKind::Backend);
        let BackendSpec::Gpu(config) = &spec.spec else {
            return self.fetch(&self.backends, &key, decode_backend, encode_backend, || run_backend(spec));
        };
        if let Some(run) = self.cached(&self.backends, key.digest) {
            return Ok((run, true));
        }
        if spec.job.precision != Precision::Fp32 {
            return Err(BackendError::Unsupported {
                backend: BackendKind::Gpu,
                reason: format!("{} weights (the SIMT kernel pipeline is fp32-only)", spec.job.precision),
            });
        }
        let run_spec = RunSpec {
            config: config.clone(),
            preset: spec.job.preset,
            seed: spec.job.seed,
            kind: spec.job.kind,
            options: SimOptions::new().with_batch(spec.job.batch.max(1)),
        };
        // fetch_run does its own hit/miss accounting and `.run`
        // persistence; the conversion below is deterministic, so the
        // derived BackendRun inherits the cache's replayability.
        let (net_run, was_hit) = self.fetch_run(&run_spec).map_err(BackendError::Tango)?;
        let lowered = LoweredNet::build(spec.job.kind, spec.job.preset, spec.job.seed)?;
        let run = tango_backend::convert_gpu_run(&net_run, config, &lowered, spec.job.batch);
        self.backends.lock().expect("store lock").insert(key.digest, run.clone());
        Ok((run, was_hit))
    }
}

/// What `RunStore::disk_stats` found on disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Run records at the current schema version.
    pub run_records: u64,
    /// Build records at the current schema version.
    pub build_records: u64,
    /// Backend (`.acc`) records at the current schema version, counted
    /// per backend family and indexed by `BackendKind::code()`.
    pub backend_records: [u64; 3],
    /// Records written under an older (or newer) schema version, or
    /// current-version backend records with an unknown family code.
    pub stale_records: u64,
    /// Files in the store directory that are not Tango records (foreign
    /// files, leftover temp files).
    pub other_files: u64,
    /// Total bytes across all of the above.
    pub total_bytes: u64,
}

impl StoreStats {
    /// Records at the current schema version.
    pub fn live_records(&self) -> u64 {
        self.run_records + self.build_records + self.backend_records.iter().sum::<u64>()
    }

    /// Backend records for one family.
    pub fn backend_records_for(&self, kind: BackendKind) -> u64 {
        self.backend_records[usize::from(kind.code())]
    }
}

/// What `RunStore::gc` deleted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Stale-version records deleted.
    pub removed_records: u64,
    /// Bytes those records occupied.
    pub removed_bytes: u64,
    /// Records kept (current schema version).
    pub kept_records: u64,
}

impl RunStore {
    /// Scans the store directory and classifies every file by its record
    /// header (see `probe_record`). A missing directory is an empty
    /// store, not an error.
    ///
    /// # Errors
    ///
    /// Returns any I/O error other than the directory not existing.
    pub fn disk_stats(&self) -> std::io::Result<StoreStats> {
        let mut stats = StoreStats::default();
        let entries = match fs::read_dir(&self.root) {
            Ok(entries) => entries,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(stats),
            Err(e) => return Err(e),
        };
        for entry in entries {
            let entry = entry?;
            if !entry.file_type()?.is_file() {
                continue;
            }
            let bytes = fs::read(entry.path())?;
            stats.total_bytes += bytes.len() as u64;
            match probe_record(&bytes) {
                Some((RecordKind::Run, STORE_SCHEMA_VERSION)) => stats.run_records += 1,
                Some((RecordKind::Build, STORE_SCHEMA_VERSION)) => stats.build_records += 1,
                Some((RecordKind::Backend, STORE_SCHEMA_VERSION)) => {
                    match probe_backend_code(&bytes).and_then(BackendKind::from_code) {
                        Some(kind) => stats.backend_records[usize::from(kind.code())] += 1,
                        // A current-version record claiming an unknown
                        // family can never decode: treat it as stale.
                        None => stats.stale_records += 1,
                    }
                }
                Some(_) => stats.stale_records += 1,
                None => stats.other_files += 1,
            }
        }
        Ok(stats)
    }

    /// Deletes records written under a schema version other than
    /// [`STORE_SCHEMA_VERSION`]. They can never be looked up again (the
    /// version is part of the key digest), so they are pure dead weight.
    /// Files that are not Tango records are left untouched.
    ///
    /// # Errors
    ///
    /// Returns any I/O error other than the directory not existing.
    pub fn gc(&self) -> std::io::Result<GcReport> {
        let mut report = GcReport::default();
        let entries = match fs::read_dir(&self.root) {
            Ok(entries) => entries,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(report),
            Err(e) => return Err(e),
        };
        for entry in entries {
            let entry = entry?;
            if !entry.file_type()?.is_file() {
                continue;
            }
            let bytes = fs::read(entry.path())?;
            match probe_record(&bytes) {
                Some((_, STORE_SCHEMA_VERSION)) => report.kept_records += 1,
                Some(_) => {
                    fs::remove_file(entry.path())?;
                    report.removed_records += 1;
                    report.removed_bytes += bytes.len() as u64;
                }
                None => {}
            }
        }
        Ok(report)
    }
}

impl RunSource for RunStore {
    fn network_run(&self, spec: &RunSpec) -> Result<NetworkRun> {
        self.fetch_run(spec).map(|(run, _)| run)
    }

    fn build_stats(&self, spec: &BuildSpec) -> Result<BuildStats> {
        self.fetch_build(spec).map(|(build, _)| build)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tango_nets::{NetworkKind, Preset};
    use tango_sim::{GpuConfig, SimOptions};

    fn scratch(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("tango-store-{tag}-{}", std::process::id()))
    }

    fn spec() -> RunSpec {
        RunSpec {
            config: GpuConfig::gp102(),
            preset: Preset::Tiny,
            seed: 21,
            kind: NetworkKind::Gru,
            options: SimOptions::new(),
        }
    }

    #[test]
    fn memory_then_disk_then_simulate() {
        let root = scratch("mem-disk");
        let _ = fs::remove_dir_all(&root);
        let store = RunStore::at(&root);
        let (cold, was_hit) = store.fetch_run(&spec()).unwrap();
        assert!(!was_hit);
        assert_eq!((store.hits(), store.misses()), (0, 1));

        let (warm, was_hit) = store.fetch_run(&spec()).unwrap();
        assert!(was_hit, "second fetch must hit memory");
        assert_eq!(warm, cold);

        // A fresh store over the same directory must hit disk.
        let reopened = RunStore::at(&root);
        let (from_disk, was_hit) = reopened.fetch_run(&spec()).unwrap();
        assert!(was_hit, "fresh store must hit the persisted record");
        assert_eq!(from_disk, cold);
        assert_eq!((reopened.hits(), reopened.misses()), (1, 0));
        let _ = fs::remove_dir_all(&root);
    }

    /// Overwrites the record behind `key` with garbage, then checks that
    /// a fresh store recomputes `good` as a miss and rewrites the record
    /// so the store after that hits.
    fn corrupt_then_recover<T: PartialEq + std::fmt::Debug>(
        root: &Path,
        key: RunKey,
        good: T,
        fetch: impl Fn(&RunStore) -> (T, bool),
    ) {
        fs::write(root.join(key.file_name()), b"TNGRgarbage").unwrap();
        let (recovered, was_hit) = fetch(&RunStore::at(root));
        assert!(!was_hit, "corrupt {} must count as a miss", key.file_name());
        assert_eq!(recovered, good);
        let (again, was_hit) = fetch(&RunStore::at(root));
        assert!(was_hit, "{} was not rewritten", key.file_name());
        assert_eq!(again, good);
    }

    #[test]
    fn corrupt_records_fall_back_to_simulation() {
        use tango_backend::{BackendJob, SystolicConfig};
        let root = scratch("corrupt");
        let _ = fs::remove_dir_all(&root);
        let store = RunStore::at(&root);
        let run = store.fetch_run(&spec()).unwrap().0;
        corrupt_then_recover(&root, RunKey::for_run(&spec()), run, |s| s.fetch_run(&spec()).unwrap());

        let bspec = BuildSpec {
            preset: Preset::Tiny,
            seed: 21,
            kind: NetworkKind::Gru,
        };
        let build = store.fetch_build(&bspec).unwrap().0;
        corrupt_then_recover(&root, RunKey::for_build(&bspec), build, |s| s.fetch_build(&bspec).unwrap());

        let aspec = BackendRunSpec {
            spec: BackendSpec::Systolic(SystolicConfig::edge()),
            job: BackendJob {
                kind: NetworkKind::Gru,
                preset: Preset::Tiny,
                seed: 21,
                batch: 1,
                precision: Precision::Int8,
            },
        };
        let acc = store.fetch_backend(&aspec).unwrap().0;
        corrupt_then_recover(&root, RunKey::for_backend(&aspec), acc, |s| s.fetch_backend(&aspec).unwrap());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn disk_stats_and_gc_classify_records() {
        let root = scratch("stats-gc");
        let _ = fs::remove_dir_all(&root);
        let store = RunStore::at(&root);
        // Empty (missing) directory: all zeros, no error.
        assert_eq!(store.disk_stats().unwrap(), StoreStats::default());
        assert_eq!(store.gc().unwrap(), GcReport::default());

        store.fetch_run(&spec()).unwrap();
        store
            .fetch_build(&BuildSpec {
                preset: Preset::Tiny,
                seed: 21,
                kind: NetworkKind::Gru,
            })
            .unwrap();
        // A record from a previous schema version, and a foreign file.
        let mut stale = b"TNGR".to_vec();
        stale.extend_from_slice(&1u32.to_le_bytes());
        stale.extend_from_slice(b"old payload");
        fs::write(root.join("gru-00000000deadbeef.run"), &stale).unwrap();
        fs::write(root.join("README.txt"), b"not a record").unwrap();

        let stats = store.disk_stats().unwrap();
        assert_eq!(stats.run_records, 1);
        assert_eq!(stats.build_records, 1);
        assert_eq!(stats.stale_records, 1);
        assert_eq!(stats.other_files, 1);
        assert!(stats.total_bytes > stale.len() as u64);
        assert_eq!(stats.live_records(), 2);

        let report = store.gc().unwrap();
        assert_eq!(report.removed_records, 1);
        assert_eq!(report.removed_bytes, stale.len() as u64);
        assert_eq!(report.kept_records, 2);
        // Live records and foreign files survive; the stale record is gone.
        let after = store.disk_stats().unwrap();
        assert_eq!(after.stale_records, 0);
        assert_eq!(after.live_records(), 2);
        assert_eq!(after.other_files, 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn backend_runs_are_cached_and_replayable() {
        use tango_backend::{BackendJob, SystolicConfig};
        let root = scratch("backend");
        let _ = fs::remove_dir_all(&root);
        let store = RunStore::at(&root);
        let bspec = BackendRunSpec {
            spec: BackendSpec::Systolic(SystolicConfig::edge()),
            job: BackendJob {
                kind: NetworkKind::Gru,
                preset: Preset::Tiny,
                seed: 21,
                batch: 1,
                precision: Precision::Int8,
            },
        };
        let (cold, was_hit) = store.fetch_backend(&bspec).unwrap();
        assert!(!was_hit);
        let (warm, was_hit) = store.fetch_backend(&bspec).unwrap();
        assert!(was_hit, "second fetch must hit memory");
        assert_eq!(warm, cold);
        // A fresh store over the same directory replays from the `.acc`
        // record without re-running the model.
        let reopened = RunStore::at(&root);
        let (from_disk, was_hit) = reopened.fetch_backend(&bspec).unwrap();
        assert!(was_hit, "fresh store must hit the persisted record");
        assert_eq!(from_disk, cold);
        assert_eq!((reopened.hits(), reopened.misses()), (1, 0));

        // GPU-backend fetches ride the `.run` cache: a warm rerun in a
        // fresh store is a hit even though no `.acc` file exists.
        let gspec = BackendRunSpec {
            spec: BackendSpec::Gpu(tango_sim::GpuConfig::gp102()),
            job: BackendJob {
                kind: NetworkKind::Gru,
                preset: Preset::Tiny,
                seed: 21,
                batch: 1,
                precision: Precision::Fp32,
            },
        };
        let (gcold, was_hit) = store.fetch_backend(&gspec).unwrap();
        assert!(!was_hit);
        let (gwarm, was_hit) = RunStore::at(&root).fetch_backend(&gspec).unwrap();
        assert!(was_hit, "GPU backend must replay from the .run record");
        assert_eq!(gwarm, gcold);

        let stats = store.disk_stats().unwrap();
        assert_eq!(stats.backend_records_for(BackendKind::Systolic), 1);
        assert_eq!(stats.backend_records_for(BackendKind::Gpu), 0, "GPU backend persists no .acc");
        assert_eq!(stats.run_records, 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn builds_are_cached_separately() {
        let root = scratch("builds");
        let _ = fs::remove_dir_all(&root);
        let store = RunStore::at(&root);
        let bspec = BuildSpec {
            preset: Preset::Tiny,
            seed: 21,
            kind: NetworkKind::Gru,
        };
        let (cold, was_hit) = store.fetch_build(&bspec).unwrap();
        assert!(!was_hit);
        let (warm, was_hit) = store.fetch_build(&bspec).unwrap();
        assert!(was_hit);
        assert_eq!(warm, cold);
        let (from_disk, was_hit) = RunStore::at(&root).fetch_build(&bspec).unwrap();
        assert!(was_hit);
        assert_eq!(from_disk, cold);
        let _ = fs::remove_dir_all(&root);
    }
}
