//! The eight industry-representative deep recommendation models (paper
//! Table I), built from scratch on the `drec-ops` operator library.
//!
//! | Model | Domain | Architectural signature |
//! |---|---|---|
//! | [`ModelId::Ncf`]   | Movies (MovieLens) | four small embedding tables + MLP/GMF |
//! | [`ModelId::Rm1`]   | Social media       | DLRM, 8 tables × 80 lookups |
//! | [`ModelId::Rm2`]   | Social media       | DLRM, 32 tables × 120 lookups |
//! | [`ModelId::Rm3`]   | Social media       | DLRM, large FC stacks, few lookups |
//! | [`ModelId::Wnd`]   | App store          | one-hot tables + large deep FC stack |
//! | [`ModelId::MtWnd`] | Video              | WnD + parallel multi-task heads |
//! | [`ModelId::Din`]   | E-commerce         | per-position local activation units (attention) |
//! | [`ModelId::Dien`]  | E-commerce         | two-layer GRU interest evolution |
//!
//! Every model is *untrained* (as in the paper, which studies inference
//! compute only) and parameterised by a [`ModelScale`]: `Paper` mirrors the
//! published shapes (with table row counts virtualised — see
//! `drec_ops::EmbeddingTable`), `Tiny` is a miniature for unit tests.
//!
//! # Example
//!
//! ```
//! use drec_models::{ModelId, ModelScale};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let model = ModelId::Ncf.build(ModelScale::Tiny, 42)?;
//! assert_eq!(model.meta().num_tables, 4);
//! # Ok(())
//! # }
//! ```

mod builders;
mod custom;
mod features;
mod meta;
mod model;
mod spec;

pub use custom::CustomDlrm;
pub use features::ArchFeatures;
pub(crate) use meta::ModelMeta;
pub use model::{store_namespace, ModelId, ModelScale, RecModel, StoreBinding};
pub use spec::{InputSlot, InputSpec};
