//! Tango: a deep neural network benchmark suite for simulated
//! accelerators — the facade crate.
//!
//! This crate ties the workspace together: the seven networks
//! (`tango-nets`) running on the SIMT GPU simulator (`tango-sim`) and the
//! PynQ FPGA model (`tango-fpga`), plus the characterization API that
//! regenerates every table and figure of the ISPASS 2019 paper
//! *"Tango: A Deep Neural Network Benchmark Suite for Various
//! Accelerators"*.
//!
//! # Quick start
//!
//! ```
//! use tango::Characterizer;
//! use tango_nets::{NetworkKind, Preset};
//! use tango_sim::GpuConfig;
//!
//! # fn main() -> Result<(), tango::TangoError> {
//! let ch = Characterizer::new(GpuConfig::gp102(), Preset::Tiny, 7);
//! let run = ch.run_network(NetworkKind::CifarNet, &ch.default_options())?;
//! println!(
//!     "CifarNet: {} layers, {} cycles, peak {:.1} W",
//!     run.report.records.len(),
//!     run.report.total_cycles(),
//!     run.report.peak_power_w()
//! );
//! # Ok(())
//! # }
//! ```
//!
//! [`experiments`] lists every table and figure once: the runs and
//! builds it needs and how [`figures`] and [`tables`] render them. The
//! `tango-harness` crate schedules the union of those needs against a
//! persistent result store, and `tango-bench`'s `repro_all` writes each
//! experiment from it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod characterize;
mod error;
pub mod experiments;
pub mod figures;
pub mod report;
pub mod tables;

pub use characterize::{
    measure_build, simulate_run, simulate_run_counted, BuildSpec, BuildStats, Characterizer, LayerBuildStats,
    NetworkRun, RunSource, RunSpec,
};
pub use error::TangoError;
pub use report::{Matrix, Unit};

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, TangoError>;
