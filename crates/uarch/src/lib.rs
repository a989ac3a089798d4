//! Microarchitecture component simulators.
//!
//! These are the measurement instruments of the study's bottom layer: each
//! component consumes evidence recorded by the operator library
//! (`drec-trace`) and produces the counters the paper reads off real PMUs:
//!
//! * [`CacheSim`] / [`CacheHierarchy`] — set-associative LRU caches with
//!   set-sampling; data-side hit/miss counters (Fig 8/10 memory-bound
//!   attribution, Fig 14 DRAM traffic),
//! * [`FetchSim`] — instruction-fetch stream synthesis from code
//!   footprints, driving an L1-I cache (Fig 12 i-MPKI) and the
//!   `DsbSim` decoded-μop cache (Fig 13 DSB vs MITE),
//! * `GsharePredictor` / [`BranchSynth`] — branch predictor simulation
//!   over synthesized per-site outcome streams (Fig 15, bad speculation in
//!   Fig 8),
//! * [`PortScheduler`] — execution-port/functional-unit contention and the
//!   per-cycle busy-unit histogram (Fig 10),
//! * [`StridePrefetcher`] — page-based stream detection; decides how much
//!   miss latency each op's access pattern lets the hardware hide,
//! * [`DramModel`] — bandwidth/occupancy accounting, including the >70%
//!   offcore-queue-occupancy congestion rule the paper quotes from Intel
//!   (Fig 14).
//!
//! Every component is configured by plain structs so `drec-hwsim` can
//! instantiate Broadwell- and Cascade-Lake-shaped instances from Table II.

mod branch;
mod cache;
mod dram;
mod dsb;
mod fetch;
mod ports;
mod prefetch;
mod tlb;

pub use branch::{BranchSynth, GshareConfig};
pub use cache::{CacheConfig, CacheHierarchy, CacheSim, HierarchyConfig, InclusionPolicy};
pub use dram::{DramConfig, DramModel};
pub use dsb::DsbConfig;
pub(crate) use dsb::DsbSim;
pub use fetch::FetchSim;
pub use ports::{PortConfig, PortScheduler, PortStats, UopMix};
pub use prefetch::{PrefetcherConfig, StridePrefetcher};
pub use tlb::{TlbConfig, TlbSim};
