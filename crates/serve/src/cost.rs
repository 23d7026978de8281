use crate::error::Result;
use std::collections::BTreeMap;
use std::sync::Arc;
use tango::{RunSpec, TangoError};
use tango_backend::{BackendJob, BackendRunSpec, BackendSpec, Precision};
use tango_harness::{RunStore, Suite};
use tango_nets::{NetworkKind, Preset};
use tango_sim::{GpuConfig, SimOptions};

/// How long a device takes to execute one batch.
///
/// The engine asks only this question, so it can schedule against a
/// table (fast unit tests, analytical what-ifs) or against the full
/// cycle-level simulator via the run store. Implementations must be
/// deterministic: the same `(kind, batch)` always returns the same
/// cycle count.
pub trait CostModel {
    /// Cycles for one dispatch of `batch` coalesced requests to `kind`.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures (a table model never fails).
    fn batch_cycles(&self, kind: NetworkKind, batch: u32) -> Result<u64>;
}

/// The full cost of one batch on a modelled device.
///
/// The serve engine only needs [`cycles`](BatchCost::cycles) — one pool
/// of identical devices shares one clock, so cycles order events
/// completely. A *fleet* of heterogeneous pools does not: a gk210 cycle
/// and a gp102 cycle are different lengths of wall time, so cross-pool
/// scheduling happens in [`ns`](BatchCost::ns), cycles divided by the
/// device clock in GHz (cycles per nanosecond). Energy rides along for
/// joules-per-request accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchCost {
    /// Device cycles for the batch (device-local clock).
    pub cycles: u64,
    /// Wall-normalized duration: `ceil(cycles / clock_ghz)` nanoseconds.
    pub ns: u64,
    /// Energy the batch consumes, in joules.
    pub energy_j: f64,
}

impl BatchCost {
    /// Normalizes `cycles` on a `clock_ghz` device into a cost. GHz is
    /// cycles-per-nanosecond, so `ns = ceil(cycles / clock_ghz)`,
    /// floored at 1 so a dispatched batch always occupies the device.
    pub fn from_cycles(cycles: u64, clock_ghz: f64, energy_j: f64) -> Self {
        assert!(clock_ghz > 0.0, "device clock must be positive");
        let ns = ((cycles as f64 / clock_ghz).ceil() as u64).max(1);
        BatchCost {
            cycles: cycles.max(1),
            ns,
            energy_j,
        }
    }
}

/// An affine cost table: `base + per_request * batch` cycles, settable
/// per network. The `base` term is what makes batching pay — it is
/// amortized over the whole batch.
#[derive(Debug, Clone, Default)]
pub struct TableCostModel {
    entries: BTreeMap<&'static str, (u64, u64)>,
}

impl TableCostModel {
    /// An empty table.
    pub fn new() -> Self {
        TableCostModel::default()
    }

    /// Sets `kind`'s cost to `base + per_request * batch`.
    pub fn with_kind(mut self, kind: NetworkKind, base: u64, per_request: u64) -> Self {
        self.entries.insert(kind.name(), (base, per_request));
        self
    }
}

impl CostModel for TableCostModel {
    fn batch_cycles(&self, kind: NetworkKind, batch: u32) -> Result<u64> {
        let (base, per_request) = self.entries.get(kind.name()).copied().unwrap_or((1000, 100));
        Ok(base + per_request * batch as u64)
    }
}

/// The real thing: batch cost measured by running the network on a
/// modelled accelerator, fetched through a [`RunStore`] so repeated
/// identical batches — the common case under a steady workload — are
/// store hits rather than re-simulations.
///
/// By default the device is the SIMT GPU simulator (with
/// [`SimOptions::batch`] set per query). [`with_backend`] retargets the
/// model onto any [`BackendSpec`] — systolic array, FPGA — and
/// [`with_precision`] additionally narrows the weights on backends that
/// support it, so serve experiments can compare accelerators under the
/// same arrival trace.
///
/// [`with_backend`]: SimCostModel::with_backend
/// [`with_precision`]: SimCostModel::with_precision
#[derive(Debug, Clone)]
pub struct SimCostModel {
    store: Arc<RunStore>,
    config: GpuConfig,
    preset: Preset,
    seed: u64,
    options: SimOptions,
    backend: Option<BackendSpec>,
    precision: Precision,
}

impl SimCostModel {
    /// A model simulating on `config` at `preset`/`seed` under the base
    /// `options` (its `batch` field is overridden per query).
    pub fn new(store: Arc<RunStore>, config: GpuConfig, preset: Preset, seed: u64, options: SimOptions) -> Self {
        SimCostModel {
            store,
            config,
            preset,
            seed,
            options,
            backend: None,
            precision: Precision::Fp32,
        }
    }

    /// Retargets the model onto `spec` instead of the default GPU
    /// simulator path. The base `SimOptions` no longer apply (backends
    /// have their own hardware descriptions).
    pub fn with_backend(mut self, spec: BackendSpec) -> Self {
        self.backend = Some(spec);
        self
    }

    /// Sets the weight precision for backend queries (only meaningful
    /// with [`with_backend`](Self::with_backend); the plain GPU path is
    /// fp32-only and ignores it).
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    fn spec(&self, kind: NetworkKind, batch: u32) -> RunSpec {
        RunSpec {
            config: self.config.clone(),
            preset: self.preset,
            seed: self.seed,
            kind,
            options: self.options.clone().with_batch(batch.max(1)),
        }
    }

    fn backend_spec(&self, backend: &BackendSpec, kind: NetworkKind, batch: u32) -> BackendRunSpec {
        BackendRunSpec {
            spec: backend.clone(),
            job: BackendJob {
                kind,
                preset: self.preset,
                seed: self.seed,
                batch: batch.max(1),
                precision: self.precision,
            },
        }
    }

    /// Simulates every `(kind, batch ≤ max_batch)` combination the
    /// engine can ask for, in parallel across `workers` threads via a
    /// harness [`Suite`]. This is the only parallel stage in a serve
    /// run — the engine itself is serial — so worker count can never
    /// change results, only wall-clock time.
    ///
    /// # Errors
    ///
    /// Propagates the first simulation failure.
    pub fn precompute(&self, kinds: &[NetworkKind], max_batch: u32, workers: usize) -> Result<()> {
        let mut suite = Suite::new();
        for &kind in kinds {
            for batch in 1..=max_batch.max(1) {
                match &self.backend {
                    None => suite.add_run(self.spec(kind, batch)),
                    Some(backend) => suite.add_backend(self.backend_spec(backend, kind, batch)),
                };
            }
        }
        suite.execute(&self.store, workers)?;
        Ok(())
    }

    /// The backing store (hit/miss counters tell how much re-simulation
    /// the workload actually caused).
    pub fn store(&self) -> &RunStore {
        &self.store
    }

    /// The full `(cycles, ns, energy)` cost of one `batch`-request
    /// dispatch to `kind` — what a heterogeneous fleet schedules on.
    ///
    /// A **cold miss** (the store holds no record for this `(kind,
    /// batch)`) simulates inline, exactly as [`precompute`] would have:
    /// the store keys on the run spec alone, so a cold query, a
    /// 1-worker precompute, and an N-worker precompute all converge on
    /// byte-identical records. Worker count changes wall time, never
    /// results.
    ///
    /// [`precompute`]: SimCostModel::precompute
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn batch_cost(&self, kind: NetworkKind, batch: u32) -> Result<BatchCost> {
        match &self.backend {
            None => {
                let (run, _hit) = self.store.fetch_run(&self.spec(kind, batch))?;
                Ok(BatchCost::from_cycles(
                    run.report.total_cycles(),
                    self.config.clock_ghz,
                    run.report.total_energy_j(),
                ))
            }
            Some(backend) => {
                let (run, _hit) = self
                    .store
                    .fetch_backend(&self.backend_spec(backend, kind, batch))
                    .map_err(TangoError::from)?;
                Ok(BatchCost::from_cycles(
                    run.total_cycles(),
                    run.clock_ghz,
                    run.total_energy_j(),
                ))
            }
        }
    }
}

impl CostModel for SimCostModel {
    fn batch_cycles(&self, kind: NetworkKind, batch: u32) -> Result<u64> {
        match &self.backend {
            None => {
                let (run, _hit) = self.store.fetch_run(&self.spec(kind, batch))?;
                Ok(run.report.total_cycles().max(1))
            }
            Some(backend) => {
                let (run, _hit) = self
                    .store
                    .fetch_backend(&self.backend_spec(backend, kind, batch))
                    .map_err(TangoError::from)?;
                Ok(run.total_cycles().max(1))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_model_is_affine_in_batch() {
        let m = TableCostModel::new().with_kind(NetworkKind::Gru, 1000, 10);
        assert_eq!(m.batch_cycles(NetworkKind::Gru, 1).unwrap(), 1010);
        assert_eq!(m.batch_cycles(NetworkKind::Gru, 8).unwrap(), 1080);
        // Unlisted kinds get the default curve rather than panicking.
        assert!(m.batch_cycles(NetworkKind::Lstm, 1).unwrap() > 0);
    }

    #[test]
    fn sim_model_caches_repeat_queries() {
        let root = std::env::temp_dir().join(format!("tango-serve-cost-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let store = Arc::new(RunStore::at(&root));
        let m = SimCostModel::new(store.clone(), GpuConfig::gp102(), Preset::Tiny, 7, SimOptions::new());
        let c1 = m.batch_cycles(NetworkKind::Gru, 2).unwrap();
        let misses = store.misses();
        let c2 = m.batch_cycles(NetworkKind::Gru, 2).unwrap();
        assert_eq!(c1, c2);
        assert_eq!(store.misses(), misses, "second query must be a store hit");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn cold_miss_matches_precompute_at_any_worker_count() {
        // Satellite: a cold store must never diverge from a warmed one.
        // Three fresh stores — (a) queried cold with no precompute,
        // (b) precomputed with 1 worker, (c) precomputed with 4 workers
        // — must agree on every (kind, batch) cost, cycles and energy
        // both. The store keys on the run spec alone, so the only thing
        // worker count may change is wall time.
        let kinds = [NetworkKind::Gru];
        let model_at = |tag: &str| {
            let root = std::env::temp_dir().join(format!("tango-serve-cold-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&root);
            (
                SimCostModel::new(
                    Arc::new(RunStore::at(&root)),
                    GpuConfig::gp102(),
                    Preset::Tiny,
                    7,
                    SimOptions::new(),
                ),
                root,
            )
        };
        let (cold, cold_root) = model_at("a");
        let (one, one_root) = model_at("b");
        let (four, four_root) = model_at("c");
        assert_eq!(cold.store().misses(), 0, "store must start empty");
        one.precompute(&kinds, 2, 1).unwrap();
        four.precompute(&kinds, 2, 4).unwrap();
        for batch in 1..=2u32 {
            let a = cold.batch_cost(NetworkKind::Gru, batch).unwrap();
            let b = one.batch_cost(NetworkKind::Gru, batch).unwrap();
            let c = four.batch_cost(NetworkKind::Gru, batch).unwrap();
            assert_eq!(a, b, "cold miss diverged from 1-worker precompute at batch {batch}");
            assert_eq!(b, c, "worker count changed precomputed cost at batch {batch}");
            assert_eq!(a.cycles, cold.batch_cycles(NetworkKind::Gru, batch).unwrap());
            // gp102 clocks above 1 GHz, so wall time compresses below
            // the cycle count.
            assert!(
                a.ns <= a.cycles,
                "1.48 GHz device: ns {} must not exceed cycles {}",
                a.ns,
                a.cycles
            );
        }
        assert!(cold.store().misses() > 0, "cold queries must have simulated inline");
        for root in [cold_root, one_root, four_root] {
            let _ = std::fs::remove_dir_all(&root);
        }
    }

    #[test]
    fn cold_miss_is_repeatable() {
        // The same cold query answered twice from two fresh stores is
        // byte-identical — a cold path that "precomputes
        // deterministically" rather than failing or drifting.
        let query = |tag: &str| {
            let root = std::env::temp_dir().join(format!("tango-serve-coldrep-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&root);
            let m = SimCostModel::new(
                Arc::new(RunStore::at(&root)),
                GpuConfig::gk210(),
                Preset::Tiny,
                11,
                SimOptions::new(),
            );
            let cost = m.batch_cost(NetworkKind::Gru, 3).unwrap();
            let _ = std::fs::remove_dir_all(&root);
            cost
        };
        let (a, b) = (query("x"), query("y"));
        assert_eq!(a, b);
        assert!(a.energy_j > 0.0, "a simulated batch consumes energy");
        // gk210 clocks at 0.745 GHz: each cycle is > 1 ns, so the
        // wall-normalized duration must exceed the cycle count.
        assert!(
            a.ns > a.cycles,
            "sub-GHz device: ns {} must exceed cycles {}",
            a.ns,
            a.cycles
        );
    }

    #[test]
    fn batch_cost_normalizes_by_clock() {
        let c = BatchCost::from_cycles(1000, 2.0, 0.5);
        assert_eq!(c.cycles, 1000);
        assert_eq!(c.ns, 500);
        let sub_ghz = BatchCost::from_cycles(1000, 0.5, 0.5);
        assert_eq!(sub_ghz.ns, 2000);
        // Ceil, never floor-to-zero.
        assert_eq!(BatchCost::from_cycles(1, 2.0, 0.0).ns, 1);
        assert_eq!(BatchCost::from_cycles(0, 1.0, 0.0).cycles, 1);
    }

    #[test]
    fn backend_model_caches_and_batches_amortize() {
        use tango_backend::SystolicConfig;
        let root = std::env::temp_dir().join(format!("tango-serve-cost-acc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let store = Arc::new(RunStore::at(&root));
        let m = SimCostModel::new(store.clone(), GpuConfig::gp102(), Preset::Tiny, 7, SimOptions::new())
            .with_backend(BackendSpec::Systolic(SystolicConfig::edge()))
            .with_precision(Precision::Int8);

        m.precompute(&[NetworkKind::Gru], 4, 2).unwrap();
        let misses = store.misses();
        let c1 = m.batch_cycles(NetworkKind::Gru, 1).unwrap();
        let c4 = m.batch_cycles(NetworkKind::Gru, 4).unwrap();
        assert_eq!(store.misses(), misses, "precomputed batches must all be hits");
        assert!(c4 < 4 * c1, "weight-stationary batching must amortize: {c4} vs 4x{c1}");
        assert_eq!(c1, m.batch_cycles(NetworkKind::Gru, 1).unwrap());
        let _ = std::fs::remove_dir_all(&root);
    }
}
