//! Tango fleet: heterogeneous device pools, cost-model routing, and
//! SLO-driven autoscaling over trace-driven load.
//!
//! The serve crate answers "what does a pool of identical simulated
//! devices do under load?". A datacenter is not that: it mixes server
//! GPUs, mobile parts, and FPGAs — the paper's whole device spectrum —
//! behind one front door. This crate simulates that front door on the
//! serve engine's virtual-time foundations:
//!
//! * **Pools** ([`PoolSpec`] + a [`FleetCost`] per pool) — each pool is
//!   a [`tango_serve::DeviceSet`] of devices sharing one cost model,
//!   typically a store-backed [`tango_serve::SimCostModel`] retargeted
//!   per accelerator. Clocks differ across pools, so the fleet's
//!   timeline is wall-normalized virtual *nanoseconds*
//!   ([`tango_serve::BatchCost::ns`]), not device cycles.
//! * **Routing** ([`Router`], [`RoutePolicy`]) — round-robin,
//!   least-queue, or cost-aware placement (predicted batch cost x queue
//!   depth), with priority classes ([`ClassSpec`]) whose latency SLOs
//!   gate admission: an SLO-infeasible request is shed explicitly
//!   ([`ShedReason::SloInfeasible`]), never silently dropped.
//! * **Autoscaling** ([`Autoscaler`], [`AutoscaleConfig`]) — periodic,
//!   hysteretic grow/shrink of each pool within its bounds, drain-aware
//!   (a shrunk device finishes its in-flight batch first), exercised by
//!   seeded diurnal and bursty traces ([`FleetTrace`]).
//! * **Reporting** ([`FleetReport`], [`render_comparison`]) — per-class
//!   latency percentiles, shed accounting by reason, per-pool
//!   utilization and energy per request, rendered byte-stably.
//!
//! Everything is deterministic: the engine is one serial event loop
//! over pre-generated traces, every tie breaks on an explicit total
//! order, and repeated runs are byte-identical across hosts and worker
//! counts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The periodic autoscaler.
pub mod autoscale;
/// Fleet topology and policy configuration.
pub mod config;
/// Per-pool cost models.
pub mod cost;
/// The fleet event loop.
pub mod engine;
/// Windowed metrics and SLO burn-rate monitoring.
pub mod metrics;
/// Byte-stable result rendering.
pub mod report;
/// Request placement.
pub mod router;
/// Replayable synthetic load.
pub mod trace;

pub use autoscale::{Autoscaler, ScaleAction, ScaleView};
pub use config::{AutoscaleConfig, ClassSpec, FleetConfig, PoolSpec, RoutePolicy};
pub use cost::{FleetCost, TableFleetCost};
pub use engine::{run_fleet, run_fleet_metered, ClassOutcomes, FleetReport, PoolStats};
pub use metrics::{FleetMetrics, FleetMetricsConfig, FleetMetricsReport, SLO_TRACK};
pub use report::{render_comparison, render_policy};
pub use router::{Placement, PoolView, Router, ShedReason};
pub use trace::{FleetRequest, FleetTrace};
