//! User-defined DLRM-style models.
//!
//! The eight published models cover the paper's study, but the harness is
//! most useful when practitioners can characterize *their own*
//! architecture point. `CustomDlrm` exposes the DLRM skeleton (bottom MLP
//! → pooled embeddings → pairwise interaction → top MLP) with every knob
//! the paper's analysis keys on.
//!
//! # Example
//!
//! ```
//! use drec_models::CustomDlrm;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let model = CustomDlrm::new("MyRM")
//!     .dense_features(32)
//!     .bottom_mlp(&[32, 8])
//!     .top_mlp(&[16, 1])
//!     .tables(4, 10_000, 8)
//!     .lookups_per_table(12)
//!     .build(42)?;
//! assert_eq!(model.meta().num_tables, 4);
//! # Ok(())
//! # }
//! ```

use drec_graph::GraphError;

use crate::builders::{dlrm, DlrmShape};
use crate::{store_namespace, ModelId, ModelMeta, ModelScale, RecModel};

/// Builder for a custom DLRM-style recommendation model.
#[derive(Debug, Clone)]
pub struct CustomDlrm {
    name: &'static str,
    dense: usize,
    bottom: Vec<usize>,
    top: Vec<usize>,
    tables: usize,
    rows: usize,
    dim: usize,
    lookups: usize,
}

impl CustomDlrm {
    /// Starts a builder with small-but-sane defaults.
    pub fn new(name: &'static str) -> Self {
        CustomDlrm {
            name,
            dense: 64,
            bottom: vec![64, 32],
            top: vec![64, 1],
            tables: 4,
            rows: 100_000,
            dim: 32,
            lookups: 16,
        }
    }

    /// Continuous-feature width.
    pub fn dense_features(mut self, width: usize) -> Self {
        self.dense = width;
        self
    }

    /// Bottom MLP widths; the last width becomes the latent dimension.
    pub fn bottom_mlp(mut self, widths: &[usize]) -> Self {
        self.bottom = widths.to_vec();
        self
    }

    /// Top MLP widths (last is typically 1 for CTR).
    pub fn top_mlp(mut self, widths: &[usize]) -> Self {
        self.top = widths.to_vec();
        self
    }

    /// Embedding table count, (virtual) rows per table, and latent dim.
    pub fn tables(mut self, count: usize, rows: usize, dim: usize) -> Self {
        self.tables = count;
        self.rows = rows;
        self.dim = dim;
        self
    }

    /// Pooled lookups per table per sample.
    pub fn lookups_per_table(mut self, lookups: usize) -> Self {
        self.lookups = lookups;
        self
    }

    /// Builds the model.
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] if the configuration is internally
    /// inconsistent (e.g. an empty bottom MLP).
    ///
    /// # Panics
    ///
    /// Panics if `bottom_mlp` is empty or its final width differs from the
    /// configured latent dim when tables are present — the interaction
    /// layer requires matching vector widths.
    pub fn build(self, seed: u64) -> Result<RecModel, GraphError> {
        assert!(
            !self.bottom.is_empty(),
            "bottom MLP must have at least one layer"
        );
        let latent = *self.bottom.last().expect("non-empty");
        assert!(
            self.tables == 0 || latent == self.dim,
            "bottom MLP must end at the latent dim ({}) to interact with \
             embeddings, got {latent}",
            self.dim
        );
        let shape = DlrmShape {
            dense: self.dense,
            bottom: &self.bottom,
            top: &self.top,
            tables: self.tables,
            rows: self.rows,
            dim: self.dim,
            lookups: self.lookups,
        };
        let meta = ModelMeta {
            name: self.name,
            domain: "Custom",
            dataset: "Synthetic",
            use_case: "User-defined architecture point",
            insight: "Custom DLRM configuration",
            ..ModelMeta::default()
        };
        // A custom shape has no scale: it takes Tiny RM1's namespace.
        let namespace = store_namespace(ModelId::Rm1, ModelScale::Tiny, seed);
        dlrm(ModelId::Rm1, &shape, meta, seed, (namespace, None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn custom_model_builds_and_runs() {
        use drec_ops::{IdList, Value};
        use drec_tensor::ParamInit;
        let mut model = CustomDlrm::new("X")
            .dense_features(8)
            .bottom_mlp(&[8, 4])
            .top_mlp(&[8, 1])
            .tables(2, 1_000, 4)
            .lookups_per_table(3)
            .build(1)
            .unwrap();
        let mut rng = ParamInit::new(9);
        let mut inputs = vec![Value::dense(rng.uniform(&[2, 8], -1.0, 1.0))];
        for _ in 0..2 {
            let ids: Vec<u32> = (0..6).map(|_| rng.next_index(1_000) as u32).collect();
            inputs.push(Value::ids(IdList::new(ids, vec![3, 3])));
        }
        let out = model.run(inputs).unwrap();
        assert_eq!(out[0].as_dense().unwrap().dims(), &[2, 1]);
        assert_eq!(model.meta().name, "X");
        assert!(model.meta().fc_param_bytes > 0);
    }

    #[test]
    #[should_panic(expected = "latent dim")]
    fn mismatched_latent_dim_panics() {
        let _ = CustomDlrm::new("bad")
            .bottom_mlp(&[16, 8])
            .tables(2, 100, 4)
            .build(1);
    }

    #[test]
    fn zero_tables_makes_a_pure_mlp_model() {
        let model = CustomDlrm::new("mlp-only")
            .dense_features(8)
            .bottom_mlp(&[8, 4])
            .top_mlp(&[4, 1])
            .tables(0, 1, 1)
            .build(1)
            .unwrap();
        assert_eq!(model.meta().num_tables, 0);
        assert_eq!(model.meta().emb_param_bytes, 0);
    }
}
