//! Trace vocabulary shared between the operator library and the hardware
//! models.
//!
//! The cross-stack methodology of the paper needs one layer to *observe*
//! another: operators (algorithms/software level) emit evidence of the work
//! they perform, and the microarchitecture simulators (`drec-uarch`,
//! `drec-hwsim`) consume that evidence. This crate defines the evidence:
//!
//! * `MemEvent` / [`SampledMemTrace`] — the (sampled) stream of data
//!   addresses an operator actually touched during functional execution,
//! * [`WorkVector`] — ISA-independent counts of arithmetic and memory work,
//! * [`BranchProfile`] — branch counts split by predictability class,
//! * [`CodeFootprint`] — how much instruction memory a kernel occupies and
//!   how it loops, which drives the i-cache and decoder (DSB/MITE) models,
//! * [`OpTrace`] / [`RunTrace`] — the per-operator and per-inference
//!   containers,
//! * [`AddressSpace`] — the virtual address allocator that gives tensors and
//!   kernels stable, disjoint addresses.
//!
//! # Example
//!
//! ```
//! use drec_trace::{AccessKind, AddressSpace, SampledMemTrace};
//!
//! let mut space = AddressSpace::new();
//! let table = space.alloc_data(4096);
//! let mut trace = SampledMemTrace::with_period(1);
//! trace.record(table, 256, AccessKind::Read);
//! assert_eq!(trace.total_events(), 1);
//! ```

mod alloc;
mod code;
mod mem;
mod optrace;
mod summary;
mod work;

pub use alloc::AddressSpace;
pub use code::{CodeFootprint, CodeRegion};
pub use mem::{AccessKind, SampledMemTrace};
pub use optrace::{KernelClass, OpTrace, RunTrace};
pub use work::{BranchProfile, WorkVector};
