//! Fixtures shared by the unit tests of the store modules.

use std::sync::Arc;

use drec_tier::TierConfig;

use crate::{EmbeddingStore, StoreConfig};

pub(crate) fn filled(rows: usize, dim: usize) -> Vec<f32> {
    (0..rows * dim).map(|i| (i as f32) * 0.01 - 3.0).collect()
}

pub(crate) fn store(cfg: StoreConfig) -> Arc<EmbeddingStore> {
    Arc::new(EmbeddingStore::new(cfg))
}

pub(crate) fn tiered_cfg(budget: usize) -> StoreConfig {
    use drec_tier::{ColdReadModel, Pacing};
    StoreConfig {
        tier: Some(TierConfig {
            dram_budget_rows: budget,
            cold_read: ColdReadModel {
                pacing: Pacing::Charge,
                seed: 9,
                ..ColdReadModel::default()
            },
            prefetch: true,
            admit_after: 1,
            combine: None,
        }),
        ..StoreConfig::default()
    }
}
