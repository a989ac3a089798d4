use drec_models::{InputSlot, InputSpec};
use drec_ops::{IdList, Value};
use drec_tensor::ParamInit;

use crate::CategoricalDist;

/// Deterministic batch generator conforming to a model's [`InputSpec`].
#[derive(Debug, Clone)]
pub struct QueryGen {
    rng: ParamInit,
    dist: CategoricalDist,
}

impl QueryGen {
    /// Generator with uniform categorical sampling.
    pub fn uniform(seed: u64) -> Self {
        QueryGen {
            rng: ParamInit::new(seed),
            dist: CategoricalDist::Uniform,
        }
    }

    /// Generator with Zipf(`s`) categorical sampling — skewed traffic
    /// where small ids are hot, matching published production embedding
    /// traces (`s ≈ 0.8–1.2`). This is what drives hot-row cache hits in
    /// a store-backed serving runtime.
    pub fn zipf(seed: u64, s: f64) -> Self {
        Self::with_dist(seed, CategoricalDist::Zipf { s })
    }

    /// Generator with the given categorical distribution.
    pub fn with_dist(seed: u64, dist: CategoricalDist) -> Self {
        QueryGen {
            rng: ParamInit::new(seed),
            dist,
        }
    }

    /// Produces one batch of `batch` samples matching `spec`, in graph
    /// input order.
    pub fn batch(&mut self, spec: &InputSpec, batch: usize) -> Vec<Value> {
        spec.slots()
            .iter()
            .map(|(_, slot)| match slot {
                InputSlot::Dense { width } => {
                    Value::dense(self.rng.uniform(&[batch, *width], -1.0, 1.0))
                }
                InputSlot::Ids { lookups, id_space } => {
                    let ids: Vec<u32> = (0..batch * lookups)
                        .map(|_| self.dist.sample(&mut self.rng, *id_space))
                        .collect();
                    Value::ids(IdList::new(ids, vec![*lookups as u32; batch]))
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drec_models::{ModelId, ModelScale};

    #[test]
    fn batches_conform_to_spec() {
        let model = ModelId::Din.build(ModelScale::Tiny, 1).unwrap();
        let mut gen = QueryGen::uniform(3);
        let batch = gen.batch(model.spec(), 5);
        assert_eq!(batch.len(), model.spec().len());
        for (value, (_, slot)) in batch.iter().zip(model.spec().slots()) {
            match slot {
                InputSlot::Dense { width } => {
                    assert_eq!(value.as_dense().unwrap().dims(), &[5, *width]);
                }
                InputSlot::Ids { lookups, id_space } => {
                    let ids = value.ids_ref("test").unwrap();
                    assert_eq!(ids.batch(), 5);
                    assert_eq!(ids.total_lookups(), 5 * lookups);
                    assert!(ids.ids.iter().all(|&i| (i as usize) < *id_space));
                }
            }
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let model = ModelId::Rm1.build(ModelScale::Tiny, 1).unwrap();
        let a = QueryGen::uniform(7).batch(model.spec(), 3);
        let b = QueryGen::uniform(7).batch(model.spec(), 3);
        assert_eq!(a, b);
        let c = QueryGen::uniform(8).batch(model.spec(), 3);
        assert_ne!(a, c);
    }

    #[test]
    fn generated_batches_run_on_all_models() {
        for id in ModelId::ALL {
            let mut model = id.build(ModelScale::Tiny, 2).unwrap();
            let mut gen = QueryGen::uniform(4);
            let inputs = gen.batch(model.spec(), 2);
            model.run(inputs).unwrap_or_else(|e| panic!("{id}: {e}"));
        }
    }
}
