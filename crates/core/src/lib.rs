//! The cross-stack characterization harness — the paper's primary
//! contribution, as a library.
//!
//! One call spans all three stack levels the paper studies:
//!
//! ```text
//! model (algorithms) ──run_traced──▶ RunTrace ──Platform::evaluate──▶
//!     latency + operator breakdown (software) + CPU/GPU counters (μarch)
//! ```
//!
//! * [`Characterizer`] — traces a model at a batch size and evaluates the
//!   trace on any [`drec_hwsim::Platform`], producing a
//!   [`CharacterizationReport`],
//! * [`sweep`] — grids over models × batches × platforms (Fig 3/4/5),
//! * [`fig16`] — the linear model tying architecture features to pipeline
//!   bottlenecks (Fig 16),
//! * [`serving`] — SLA-driven platform/batch selection and queueing built
//!   on sweeps,
//! * [`fleet`] — heterogeneous CPU+GPU fleet scheduling (DeepRecSys-style),
//! * [`PAPER_BATCH_GRID`] — the batch sizes the paper sweeps (1…16384).
//!
//! # Example
//!
//! ```
//! use drec_core::{CharacterizeOptions, Characterizer};
//! use drec_hwsim::Platform;
//! use drec_models::{ModelId, ModelScale};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut model = ModelId::Rm1.build(ModelScale::Tiny, 7)?;
//! let characterizer = Characterizer::new(CharacterizeOptions::fast());
//! let report = characterizer.characterize(&mut model, 4, &Platform::broadwell())?;
//! assert!(report.latency_seconds > 0.0);
//! assert!(report.breakdown.total_seconds() > 0.0);
//! # Ok(())
//! # }
//! ```

mod characterize;
pub mod fig16;
pub mod fleet;
mod options;
pub mod serving;
pub mod sweep;

pub use characterize::{CharacterizationReport, Characterizer};
pub use options::CharacterizeOptions;
pub use sweep::{OptimalCell, SweepCell, SweepResult, PAPER_BATCH_GRID};
