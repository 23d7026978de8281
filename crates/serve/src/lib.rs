//! Tango serve: a batched, multi-device inference service over
//! simulated GPUs.
//!
//! The paper characterizes networks one inference at a time; a
//! datacenter runs them behind queues. This crate turns the simulated
//! device pool into that shared resource, in two complementary forms:
//!
//! * [`engine::run_trace`] — a **virtual-time discrete-event engine**: a
//!   pre-generated [`ArrivalTrace`] flows through bounded per-network
//!   queues, a time/size-bounded dynamic batcher ([`BatchPolicy`]:
//!   flush at `max_batch` or `max_delay_cycles`), and a pool of
//!   [`CostModel`]-costed devices. Every queue wait, batch-assembly
//!   delay, and execution span is accounted in virtual cycles, so
//!   p50/p95/p99 and throughput ([`ServeReport`]) are byte-reproducible
//!   across runs, hosts, and worker counts.
//! * [`Service`] — a **live, thread-backed service**: worker threads
//!   each own a `tango_sim::Gpu` with the configured networks built on
//!   it, coalesce identical requests from concurrent clients into
//!   batched launches (`Network::infer_batch`), and apply the same
//!   bounded-queue admission control with explicit [`ServeError::Shed`]
//!   rejections.
//!
//! Batch *cost* comes from the simulator's CTA-level grid replication
//! (`SimOptions::batch`): small layer grids batch almost for free
//! (replica CTAs fill idle SMs), large ones scale linearly — exactly
//! the concave cost curve that makes dynamic batching a latency win at
//! high arrival rates. [`SimCostModel`] fetches those measurements
//! through the harness `RunStore`, so repeated identical batches are
//! cache hits, and its `precompute` fans the distinct `(kind, batch)`
//! simulations out across `TANGO_SERVE_WORKERS` threads — the only
//! parallel stage, which is why worker count can never change results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Cost models mapping `(network, batch size)` to device cycles.
pub mod cost;
/// The virtual-time discrete-event serving engine.
pub mod engine;
mod error;
mod metrics;
mod policy;
/// Deterministic device pools with drain-aware grow/shrink.
pub mod pool;
mod service;
mod tables;
mod trace;

pub use cost::{BatchCost, CostModel, SimCostModel, TableCostModel};
pub use engine::{run_trace, Outcome, RequestLog, RequestRecord, ServeReport};
pub use error::{Result, ServeError};
pub use metrics::{percentile, serve_metrics, LatencySummary};
pub use policy::{BatchPolicy, ServeConfig};
pub use pool::DeviceSet;
pub use service::{InferenceReply, Service, ServiceConfig, Ticket};
pub use tables::{CostTable, KindIndex};
pub use trace::{Arrival, ArrivalTrace};
