/// Model-architecture metadata: the Table I row for a model plus the
/// quantitative features the Fig 16 regression consumes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ModelMeta {
    /// Short model name (e.g. `"RM2"`).
    pub name: &'static str,
    /// Application domain from Table I (e.g. `"Social Media"`).
    pub domain: &'static str,
    /// Evaluation dataset/origin from Table I.
    pub dataset: &'static str,
    /// Unique requirement / use case from Table I.
    pub(crate) use_case: &'static str,
    /// Model-architecture insight from Table I.
    pub insight: &'static str,
    /// Number of embedding tables.
    pub num_tables: usize,
    /// Average lookups per embedding table per sample.
    pub lookups_per_table: f64,
    /// Embedding latent dimension.
    pub latent_dim: usize,
    /// Bytes of FC-family parameters (FC + GRU weights).
    pub fc_param_bytes: u64,
    /// Bytes of embedding parameters at virtual (production) size.
    pub emb_param_bytes: u64,
    /// Fraction of FC parameters located *above* the feature-interaction
    /// point (the "top-heaviness" of the FC weight distribution, a Fig 16
    /// feature).
    pub top_fc_weight_fraction: f64,
    /// Whether the model implements an attention mechanism.
    pub(crate) has_attention: bool,
    /// Behaviour sequence length (0 for non-sequential models).
    pub seq_len: usize,
}

impl ModelMeta {
    /// Ratio of FC to embedding parameter bytes (a Fig 16 feature; high for
    /// compute-dominated models like RM3, low for RM2).
    pub fn fc_to_emb_ratio(&self) -> f64 {
        if self.emb_param_bytes == 0 {
            return f64::INFINITY;
        }
        self.fc_param_bytes as f64 / self.emb_param_bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_handles_zero_embeddings() {
        let meta = ModelMeta {
            name: "X",
            domain: "",
            dataset: "",
            use_case: "",
            insight: "",
            num_tables: 0,
            lookups_per_table: 0.0,
            latent_dim: 0,
            fc_param_bytes: 10,
            emb_param_bytes: 0,
            top_fc_weight_fraction: 0.0,
            has_attention: false,
            seq_len: 0,
        };
        assert!(meta.fc_to_emb_ratio().is_infinite());
    }
}
