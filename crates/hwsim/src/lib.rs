//! Hardware platform performance models (paper Table II).
//!
//! Two model families share one interface ([`Platform::evaluate`] over a
//! [`drec_trace::RunTrace`]):
//!
//! * [`CpuModel`] — a trace-driven core model that composes the
//!   `drec-uarch` simulators (caches, fetch/DSB, branch predictor, port
//!   scheduler, DRAM) into TopDown pipeline-slot accounting. It produces
//!   every CPU counter the paper plots: TopDown category fractions
//!   (Fig 8), AVX instruction share (Fig 9), backend core:memory split and
//!   functional-unit histograms (Fig 10), retired instructions (Fig 11),
//!   i-cache MPKI (Fig 12), DSB/MITE-limited cycles (Fig 13), DRAM
//!   bandwidth congestion (Fig 14), and branch mispredicts (Fig 15).
//! * [`GpuModel`] — a calibrated roofline with batch-dependent kernel
//!   efficiency, per-launch overhead, and a PCIe transfer model; it
//!   produces end-to-end times (Fig 3/5) and data-communication fractions
//!   (Fig 4).
//!
//! Both also price a run as it is traced, one operator at a time
//! ([`CpuSim::step`] / [`GpuModel::step`], then `finish`), by the same
//! code and in the same order as a collected trace, so a streamed run
//! (`drec_models::RecModel::run_streamed`) is priced to the bit without
//! ever being held whole.
//!
//! The four studied platforms are available as constructors:
//! [`Platform::broadwell`], [`Platform::cascade_lake`],
//! [`Platform::gtx_1080_ti`], and [`Platform::t4`].

mod cpu;
mod dispatch;
mod energy;
mod gpu;
mod isa;
mod platform;
mod report;

pub use cpu::{CpuModel, CpuSim, CpuTally};
pub use dispatch::DispatchOracle;
pub use energy::{energy, EnergyReport};
pub use gpu::{GpuModel, GpuTally};
pub use isa::{synthesize_instructions, InstCounts};
pub use platform::{Platform, PlatformKind};
pub use report::{CpuCounters, GpuCounters, PlatformReport, TopDown};
