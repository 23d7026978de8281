//! An execution-driven SIMT GPU architecture simulator.
//!
//! This crate is the reproduction's stand-in for GPGPU-Sim (plus the real
//! GK210/TX1 boards) in the Tango paper: it runs kernel programs written in
//! the [`tango_isa`] virtual ISA on a cycle-level model of a GPU —
//! streaming multiprocessors with scoreboarded in-order warps, GTO/LRR/TLV
//! warp schedulers, a SIMT divergence stack, per-SM L1D caches with MSHRs,
//! a shared L2, a bandwidth-limited DRAM channel, nvprof-style stall
//! attribution, and a GPUWattch-style component power model.
//!
//! The simulator is *execution-driven*: issued instructions really execute
//! (device memory is read and written, the arithmetic happens), so kernel
//! outputs are checked against the `tango-tensor` reference operators while
//! timing and power statistics are collected from the very same run.
//!
//! # Example
//!
//! ```
//! use tango_isa::{DType, Dim3, KernelBuilder, Operand};
//! use tango_sim::{Gpu, GpuConfig, SimOptions};
//!
//! // A kernel that doubles a buffer in place.
//! let mut b = KernelBuilder::new("double");
//! let tid = b.global_tid_x();
//! let addr = b.reg();
//! let v = b.reg();
//! let base = b.load_param(0);
//! b.shl(DType::U32, addr, tid.into(), Operand::imm_u32(2));
//! b.add(DType::U32, addr, addr.into(), base.into());
//! b.ld_global(DType::F32, v, addr, 0);
//! b.add(DType::F32, v, v.into(), v.into());
//! b.st_global(DType::F32, addr, 0, v);
//! b.exit();
//! let program = b.build()?;
//!
//! let mut gpu = Gpu::new(GpuConfig::gp102());
//! let buf = gpu.upload_f32s(&[1.0, 2.0, 3.0, 4.0]);
//! let stats = gpu.launch(&program, Dim3::x(1), Dim3::x(4), &[buf], 0, &SimOptions::new());
//! assert_eq!(gpu.download_f32s(buf, 4), vec![2.0, 4.0, 6.0, 8.0]);
//! assert!(stats.ipc() > 0.0);
//! # Ok::<(), tango_isa::IsaError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod config;
mod decode;
mod exec;
mod gpu;
mod mem;
mod memo;
mod memsys;
mod power;
mod sched;
mod sm;
mod stats;

pub use cache::Cache;
pub use config::{CacheGeometry, GpuConfig, PowerConstants, SchedulerPolicy, SimOptions};
pub use gpu::{Gpu, LaunchFrame, StepStatus};
pub use mem::GlobalMemory;
pub use memo::{env_enabled as memo_env_enabled, table_stats as memo_table_stats};
pub use memsys::{MemResponse, MemorySystem};
pub use power::{Component, EnergyBreakdown, PowerMeter};
pub use stats::{CacheStats, HostWork, KernelStats, StallBreakdown, StallReason};
