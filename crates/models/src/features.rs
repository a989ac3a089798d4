use crate::ModelMeta;

/// Quantitative model-architecture features — the regressors of the
/// paper's Fig 16 linear model tying algorithmic properties to pipeline
/// bottlenecks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArchFeatures {
    /// `log10(FC parameter bytes / embedding parameter bytes)`.
    pub log_fc_to_emb_ratio: f64,
    /// Fraction of FC weights above the feature-interaction point.
    pub(crate) top_fc_weight_fraction: f64,
    /// Average lookups per embedding table.
    pub(crate) lookups_per_table: f64,
    /// Number of embedding tables.
    pub(crate) num_tables: f64,
    /// Embedding latent dimension.
    pub(crate) latent_dim: f64,
    /// 1.0 if the model implements attention, else 0.0.
    pub(crate) attention: f64,
    /// Behaviour sequence length (0 for non-sequential models).
    pub(crate) seq_len: f64,
}

impl ArchFeatures {
    /// Feature names, aligned with [`ArchFeatures::to_vec`].
    pub const NAMES: [&'static str; 7] = [
        "log(FC:Emb weights)",
        "Top-heavy FC fraction",
        "Lookups per table",
        "Num tables",
        "Latent dim",
        "Attention",
        "Sequence length",
    ];

    /// Extracts features from model metadata.
    pub fn from_meta(meta: &ModelMeta) -> Self {
        let ratio = meta.fc_to_emb_ratio();
        ArchFeatures {
            log_fc_to_emb_ratio: if ratio.is_finite() && ratio > 0.0 {
                ratio.log10()
            } else {
                0.0
            },
            top_fc_weight_fraction: meta.top_fc_weight_fraction,
            lookups_per_table: meta.lookups_per_table,
            num_tables: meta.num_tables as f64,
            latent_dim: meta.latent_dim as f64,
            attention: if meta.has_attention { 1.0 } else { 0.0 },
            seq_len: meta.seq_len as f64,
        }
    }

    /// Features as a vector in [`ArchFeatures::NAMES`] order.
    pub fn to_vec(&self) -> Vec<f64> {
        vec![
            self.log_fc_to_emb_ratio,
            self.top_fc_weight_fraction,
            self.lookups_per_table,
            self.num_tables,
            self.latent_dim,
            self.attention,
            self.seq_len,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ModelId, ModelScale};

    #[test]
    fn features_align_with_names() {
        let model = ModelId::Rm1.build(ModelScale::Tiny, 1).unwrap();
        let f = ArchFeatures::from_meta(model.meta());
        assert_eq!(f.to_vec().len(), ArchFeatures::NAMES.len());
    }

    #[test]
    fn attention_flag_set_for_din_and_dien() {
        for (id, expect) in [
            (ModelId::Din, 1.0),
            (ModelId::Dien, 1.0),
            (ModelId::Ncf, 0.0),
        ] {
            let m = id.build(ModelScale::Tiny, 1).unwrap();
            assert_eq!(ArchFeatures::from_meta(m.meta()).attention, expect);
        }
    }
}
