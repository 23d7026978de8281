//! The suite scheduler: expands an experiment plan into deduplicated
//! jobs and executes them across worker threads against a shared
//! [`RunStore`].
//!
//! Figures share runs heavily (Figures 1/3/4/5/8/9/10 all read the same
//! default suite; Figure 16's AlexNet scheduler sweeps are a subset of
//! Figure 15's; Figures 13/14's no-L1 runs are a subset of Figure 2's
//! L1-sweep). Jobs are therefore keyed by [`RunKey`] digest and added at
//! most once, so the plan's job count is the number of *distinct*
//! simulations the whole suite needs.

use crate::key::RunKey;
use crate::store::RunStore;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use tango::{BuildSpec, Result, RunSpec, TangoError};
use tango_backend::BackendRunSpec;
use tango_nets::{NetworkKind, Preset};
use tango_obs::env::{positive, Var};
use tango_sim::{GpuConfig, SchedulerPolicy, SimOptions};

/// One unit of work: a full simulated run, a build-only measurement, or
/// an accelerator-backend execution.
#[derive(Debug, Clone)]
pub enum Job {
    /// Simulate a full inference.
    Run(RunSpec),
    /// Build a network and capture static stats.
    Build(BuildSpec),
    /// Run a network on an accelerator backend.
    Backend(BackendRunSpec),
}

impl Job {
    /// The job's store key.
    pub fn key(&self) -> RunKey {
        match self {
            Job::Run(spec) => RunKey::for_run(spec),
            Job::Build(spec) => RunKey::for_build(spec),
            Job::Backend(spec) => RunKey::for_backend(spec),
        }
    }

    /// Human label for progress and trace spans, e.g. `run AlexNet@bench`.
    pub fn label(&self) -> String {
        match self {
            Job::Run(spec) => format!("run {}@{}", spec.kind.name(), spec.preset.name()),
            Job::Build(spec) => format!("build {}@{}", spec.kind.name(), spec.preset.name()),
            Job::Backend(spec) => format!(
                "backend {} {}@{}",
                spec.spec.kind().name(),
                spec.job.kind.name(),
                spec.job.preset.name()
            ),
        }
    }
}

/// What [`Suite::execute`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuiteReport {
    /// Distinct jobs executed.
    pub jobs: usize,
    /// Jobs served from the store (memory or disk).
    pub hits: u64,
    /// Jobs that had to simulate.
    pub misses: u64,
}

/// A deduplicated batch of jobs.
#[derive(Debug, Default)]
pub struct Suite {
    jobs: Vec<Job>,
    seen: HashSet<u64>,
}

impl Suite {
    /// An empty suite.
    pub fn new() -> Self {
        Suite::default()
    }

    /// Queues a run job; returns `false` (and drops it) when an
    /// identical job is already queued.
    pub fn add_run(&mut self, spec: RunSpec) -> bool {
        let key = RunKey::for_run(&spec);
        self.seen.insert(key.digest) && {
            self.jobs.push(Job::Run(spec));
            true
        }
    }

    /// Queues a build job; returns `false` when already queued.
    pub fn add_build(&mut self, spec: BuildSpec) -> bool {
        let key = RunKey::for_build(&spec);
        self.seen.insert(key.digest) && {
            self.jobs.push(Job::Build(spec));
            true
        }
    }

    /// Queues a backend job; returns `false` when already queued.
    pub fn add_backend(&mut self, spec: BackendRunSpec) -> bool {
        let key = RunKey::for_backend(&spec);
        self.seen.insert(key.digest) && {
            self.jobs.push(Job::Backend(spec));
            true
        }
    }

    /// Number of distinct jobs queued.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the suite is empty.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// The queued jobs.
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Executes every job against `store` on `workers` threads (clamped
    /// to at least 1). Results land in the store's caches; callers then
    /// read them back through a `Characterizer` attached to the same
    /// store, where every request is a memory hit.
    ///
    /// Workers pull jobs off a shared index, so a long job (VGG) does
    /// not serialize the queue behind it. The store itself is the only
    /// shared state, which is what makes parallel execution produce
    /// bit-identical results to serial: each job is an independent,
    /// deterministic simulation.
    ///
    /// # Errors
    ///
    /// Returns the first job failure (remaining jobs still run).
    pub fn execute(&self, store: &RunStore, workers: usize) -> Result<SuiteReport> {
        let hits_before = store.hits();
        let misses_before = store.misses();
        let next = AtomicUsize::new(0);
        let first_error: Mutex<Option<TangoError>> = Mutex::new(None);
        let workers = workers.max(1).min(self.jobs.len().max(1));
        // Trace spans are host-clock: suite wall time, each worker's
        // busy window (per-worker utilization), and each job within it.
        // The `is_enabled` gates keep the dynamic labels free when off.
        let _suite_span = tango_obs::is_enabled()
            .then(|| tango_obs::hspan("harness.suite", &format!("execute {} jobs x{} workers", self.jobs.len(), workers)));

        // Workers record into this thread's recording, if it has one.
        let recording = tango_obs::current_recording();

        std::thread::scope(|scope| {
            for w in 0..workers {
                let (next, first_error, recording) = (&next, &first_error, &recording);
                scope.spawn(move || {
                    if let Some(recording) = recording.clone() {
                        recording.join();
                    }
                    let _worker_span =
                        tango_obs::is_enabled().then(|| tango_obs::hspan("harness.worker", &format!("worker{w}")));
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = self.jobs.get(i) else { break };
                        let _job_span =
                            tango_obs::is_enabled().then(|| tango_obs::hspan("harness.job", &job.label()));
                        let outcome = match job {
                            Job::Run(spec) => store.fetch_run(spec).map(|_| ()),
                            Job::Build(spec) => store.fetch_build(spec).map(|_| ()),
                            Job::Backend(spec) => {
                                store.fetch_backend(spec).map(|_| ()).map_err(TangoError::from)
                            }
                        };
                        if let Err(e) = outcome {
                            let mut slot = first_error.lock().expect("error lock");
                            slot.get_or_insert(e);
                        }
                    }
                });
            }
        });

        if let Some(e) = first_error.into_inner().expect("error lock") {
            return Err(e);
        }
        Ok(SuiteReport {
            jobs: self.jobs.len(),
            hits: store.hits() - hits_before,
            misses: store.misses() - misses_before,
        })
    }
}

/// Worker count from `raw`, the text of `var` (`TANGO_JOBS` or
/// `TANGO_SERVE_WORKERS`): unset means the machine's available
/// parallelism (at least 1).
///
/// # Errors
///
/// A value that is present but unusable (`0`, `-1`, `lots`, an empty
/// string) is an error naming the variable — a typo'd `TANGO_JOBS=O8`
/// should stop the run, not quietly serialize it.
pub fn worker_count(var: &Var, raw: Option<&str>) -> std::result::Result<usize, String> {
    let all_cores = || std::thread::available_parallelism().map_or(1, |n| n.get());
    Ok(var.parse(raw, positive)?.unwrap_or_else(all_cores))
}

/// The full experiment plan behind `repro_all`: every distinct
/// simulation and build that the 16 figures and 4 tables request at
/// `preset`/`seed`, deduplicated.
///
/// The plan mirrors the producers exactly — a spec here that drifts from
/// what a producer requests would cold-simulate inside the producer
/// instead, which the warm-pass tests would catch as a miss.
pub fn repro_plan(preset: Preset, seed: u64) -> Suite {
    let gp102 = GpuConfig::gp102();
    let mut suite = Suite::new();
    let run = |config: &GpuConfig, kind: NetworkKind, options: SimOptions| RunSpec {
        config: config.clone(),
        preset,
        seed,
        kind,
        options,
    };

    // Figures 1, 3, 4, 5, 8, 9, 10: the shared default suite on GP102.
    for kind in NetworkKind::ALL {
        suite.add_run(run(&gp102, kind, SimOptions::new()));
    }
    // Figure 2: the L1D sweep ({bypassed, 64K, 128K, 256K}); the bypassed
    // runs double as Figures 13/14's inputs.
    for kind in NetworkKind::ALL {
        for bytes in [0u32, 64 << 10, 128 << 10, 256 << 10] {
            suite.add_run(run(&gp102, kind, SimOptions::new().with_l1d_bytes(bytes)));
        }
    }
    // Figure 7: stall breakdown on the GK210.
    let gk210 = GpuConfig::gk210();
    for kind in NetworkKind::ALL {
        suite.add_run(run(&gk210, kind, SimOptions::new()));
    }
    // Figures 15/16: the scheduler sweep (16's AlexNet runs dedup into 15's).
    for kind in NetworkKind::ALL {
        for policy in SchedulerPolicy::ALL {
            suite.add_run(run(&gp102, kind, SimOptions::new().with_scheduler(policy)));
        }
    }
    // Figure 6: TX1 side of the embedded comparison, always at published
    // model sizes with CTA sampling (see `fig6_tx1_vs_pynq`).
    let tx1 = GpuConfig::tx1();
    for kind in [NetworkKind::CifarNet, NetworkKind::SqueezeNet] {
        suite.add_run(RunSpec {
            config: tx1.clone(),
            preset: Preset::Paper,
            seed,
            kind,
            options: SimOptions::new().with_cta_sample_limit(Some(48)),
        });
    }
    // Figures 11/12 and Table III: build-only stats at published sizes.
    for kind in NetworkKind::ALL {
        suite.add_build(BuildSpec {
            preset: Preset::Paper,
            seed,
            kind,
        });
    }
    suite
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_run(seed: u64, kind: NetworkKind) -> RunSpec {
        RunSpec {
            config: GpuConfig::gp102(),
            preset: Preset::Tiny,
            seed,
            kind,
            options: SimOptions::new(),
        }
    }

    #[test]
    fn duplicate_jobs_are_dropped() {
        let mut suite = Suite::new();
        assert!(suite.add_run(tiny_run(1, NetworkKind::Gru)));
        assert!(!suite.add_run(tiny_run(1, NetworkKind::Gru)));
        assert!(suite.add_run(tiny_run(2, NetworkKind::Gru)));
        assert_eq!(suite.len(), 2);
    }

    #[test]
    fn plan_covers_every_figure_without_duplicates() {
        let suite = repro_plan(Preset::Tiny, 7);
        // 7 default + 28 L1-sweep + 7 GK210 + 21 scheduler + 2 TX1 + 7 builds.
        assert_eq!(suite.len(), 72);
        let runs = suite.jobs().iter().filter(|j| matches!(j, Job::Run(_))).count();
        assert_eq!(runs, 65);
    }

    #[test]
    fn plan_scheduler_sweep_subsumes_fig16() {
        let suite = repro_plan(Preset::Tiny, 7);
        let mut digests = HashSet::new();
        for job in suite.jobs() {
            assert!(digests.insert(job.key().digest), "plan contains a duplicate");
        }
        // Figure 16's request: AlexNet under each scheduler at the plan's
        // preset/seed must already be in the plan.
        for policy in SchedulerPolicy::ALL {
            let spec = RunSpec {
                config: GpuConfig::gp102(),
                preset: Preset::Tiny,
                seed: 7,
                kind: NetworkKind::AlexNet,
                options: SimOptions::new().with_scheduler(policy),
            };
            assert!(digests.contains(&RunKey::for_run(&spec).digest));
        }
    }

    #[test]
    fn worker_count_parsing_rejects_zero_and_garbage() {
        use tango_obs::env::{JOBS, SERVE_WORKERS};
        assert_eq!(worker_count(&JOBS, Some("4")), Ok(4));
        assert_eq!(worker_count(&JOBS, Some(" 8 ")), Ok(8));
        for bad in ["0", "", "lots", "-1", "3.5", "O8"] {
            let err = worker_count(&SERVE_WORKERS, Some(bad)).unwrap_err();
            assert!(err.contains("TANGO_SERVE_WORKERS"), "{err}");
            assert!(err.contains(&format!("{bad:?}")), "{err}");
        }
        // Unset means available parallelism.
        assert!(worker_count(&JOBS, None).unwrap() >= 1);
    }
}
