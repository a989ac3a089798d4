/// Shape of one external graph input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InputSlot {
    /// Dense continuous features of the given width per sample.
    Dense {
        /// Feature width.
        width: usize,
    },
    /// Sparse categorical ids.
    Ids {
        /// Lookups per sample (segment length).
        lookups: usize,
        /// Id space to sample from (the table's virtual row count).
        id_space: usize,
    },
}

/// Ordered description of a model's external inputs — the contract between
/// a model and the `drec-workload` query generator.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct InputSpec {
    slots: Vec<(String, InputSlot)>,
}

impl InputSpec {
    /// Creates an empty spec.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Appends a slot.
    pub(crate) fn push(&mut self, name: impl Into<String>, slot: InputSlot) {
        self.slots.push((name.into(), slot));
    }

    /// The slots in graph-input order.
    pub fn slots(&self) -> &[(String, InputSlot)] {
        &self.slots
    }

    /// Number of input slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if the spec has no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Bytes of model input per sample (dense f32 features plus u32 ids and
    /// per-sample segment lengths) — what a GPU deployment must move over
    /// PCIe for each inference.
    pub fn bytes_per_sample(&self) -> u64 {
        self.slots
            .iter()
            .map(|(_, s)| match s {
                InputSlot::Dense { width } => (*width * 4) as u64,
                InputSlot::Ids { lookups, .. } => (*lookups * 4 + 4) as u64,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_per_sample_counts_both_kinds() {
        let mut spec = InputSpec::new();
        spec.push("dense", InputSlot::Dense { width: 8 });
        spec.push(
            "ids",
            InputSlot::Ids {
                lookups: 3,
                id_space: 100,
            },
        );
        assert_eq!(spec.bytes_per_sample(), 8 * 4 + 3 * 4 + 4);
        assert_eq!(spec.len(), 2);
    }
}
