//! Tango harness: the parallel suite orchestrator.
//!
//! Sitting between the core characterization API (`tango`) and the
//! reproduction binaries (`tango-bench`), this crate provides:
//!
//! * [`RunStore`] — a persistent, content-addressed cache of simulation
//!   results under `results/store/`, keyed by a stable digest
//!   ([`RunKey`]) over the complete run description. It implements
//!   `tango::RunSource`, so a `Characterizer` attached to a store serves
//!   repeated runs from cache instead of re-simulating.
//! * [`Suite`] — a deduplicating job scheduler that expands the needs of
//!   the `tango::experiments` table ([`plan`]; [`repro_plan`] covers
//!   every entry) and executes them across `TANGO_JOBS` worker threads
//!   ([`worker_count`]) against a shared store.
//!
//! Because every simulation is deterministic, parallel execution is
//! purely a wall-clock optimization: the figures produced from a store
//! filled by N workers are bit-identical to the serial ones, and a
//! second `repro_all` invocation over a warm store performs zero
//! simulations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod hash;
mod key;
/// Perf-diff attribution between benchmark baselines.
pub mod perfdiff;
mod store;
mod suite;

pub use codec::{decode_backend, decode_build, decode_run, encode_backend, encode_build, encode_run, DecodeError};
pub use hash::StableHasher;
pub use key::{network_kind_code, network_kind_from_code, RecordKind, RunKey, STORE_SCHEMA_VERSION};
pub use store::{results_root, GcReport, RunStore, StoreStats};
pub use suite::{plan, repro_plan, worker_count, Job, Suite, SuiteReport};
