//! End-to-end build-and-run tests for all eight models at `Tiny` scale.

use drec_models::{ArchFeatures, InputSlot, ModelId, ModelScale, RecModel};
use drec_ops::{IdList, Value};
use drec_tensor::{ParamInit, Tensor};
use drec_trace::KernelClass;

/// Generates spec-conforming inputs for `batch` samples.
fn make_inputs(model: &RecModel, batch: usize, seed: u64) -> Vec<Value> {
    let mut rng = ParamInit::new(seed);
    model
        .spec()
        .slots()
        .iter()
        .map(|(_, slot)| match slot {
            InputSlot::Dense { width } => Value::dense(rng.uniform(&[batch, *width], -1.0, 1.0)),
            InputSlot::Ids { lookups, id_space } => {
                let ids: Vec<u32> = (0..batch * lookups)
                    .map(|_| rng.next_index(*id_space) as u32)
                    .collect();
                Value::ids(IdList::new(ids, vec![*lookups as u32; batch]))
            }
        })
        .collect()
}

#[test]
fn all_models_build_and_infer() {
    for id in ModelId::ALL {
        let mut model = id.build(ModelScale::Tiny, 7).unwrap();
        let batch = 3;
        let inputs = make_inputs(&model, batch, 11);
        let outputs = model.run(inputs).expect("inference should succeed");
        assert!(!outputs.is_empty(), "{id} produced no outputs");
        for out in &outputs {
            let t = out.as_dense().unwrap();
            assert_eq!(t.dims()[0], batch, "{id} batch dimension");
            assert!(
                t.as_slice().iter().all(|v| (0.0..=1.0).contains(v)),
                "{id} outputs should be probabilities"
            );
        }
    }
}

#[test]
fn all_models_trace_and_expose_work() {
    for id in ModelId::ALL {
        let mut model = id.build(ModelScale::Tiny, 7).unwrap();
        let batch = 2;
        let inputs = make_inputs(&model, batch, 5);
        let (_, trace) = model.run_traced(inputs, batch).unwrap();
        assert_eq!(trace.batch, batch);
        assert!(trace.total_flops() > 0.0, "{id} should do fp work");
        assert!(trace.input_bytes > 0, "{id} input bytes");
        assert_eq!(trace.ops.len(), model.graph().len(), "{id} op count");
    }
}

#[test]
fn traced_run_is_repeatable() {
    let mut model = ModelId::Rm1.build(ModelScale::Tiny, 3).unwrap();
    let a = {
        let inputs = make_inputs(&model, 2, 9);
        model.run(inputs).unwrap()
    };
    let b = {
        let inputs = make_inputs(&model, 2, 9);
        model.run(inputs).unwrap()
    };
    assert_eq!(
        a[0].as_dense().unwrap().as_slice(),
        b[0].as_dense().unwrap().as_slice()
    );
}

#[test]
fn embedding_models_emit_gathers() {
    for id in [ModelId::Rm1, ModelId::Rm2, ModelId::Din, ModelId::Dien] {
        let mut model = id.build(ModelScale::Tiny, 7).unwrap();
        let inputs = make_inputs(&model, 2, 5);
        let (_, trace) = model.run_traced(inputs, 2).unwrap();
        assert!(
            trace.total_gather_rows() > 0.0,
            "{id} should gather embedding rows"
        );
    }
}

#[test]
fn din_has_many_small_ops_dien_few_large() {
    let din = ModelId::Din.build(ModelScale::Tiny, 7).unwrap();
    let dien = ModelId::Dien.build(ModelScale::Tiny, 7).unwrap();
    assert!(
        din.graph().len() > 3 * dien.graph().len(),
        "DIN ({}) should have many more nodes than DIEN ({})",
        din.graph().len(),
        dien.graph().len()
    );
    assert!(dien.graph().count_kind(drec_ops::OpKind::RecurrentNetwork) >= 2);
    assert_eq!(
        din.graph().count_kind(drec_ops::OpKind::RecurrentNetwork),
        0
    );
}

#[test]
fn dien_trace_contains_recurrent_class() {
    let mut model = ModelId::Dien.build(ModelScale::Tiny, 7).unwrap();
    let inputs = make_inputs(&model, 2, 5);
    let (_, trace) = model.run_traced(inputs, 2).unwrap();
    assert!(trace.count_class(KernelClass::Recurrent) >= 2);
}

#[test]
fn mt_wnd_emits_multiple_objectives() {
    let mut model = ModelId::MtWnd.build(ModelScale::Tiny, 7).unwrap();
    let inputs = make_inputs(&model, 2, 5);
    let outputs = model.run(inputs).unwrap();
    assert!(outputs.len() >= 2, "MT-WnD should have multiple heads");
}

#[test]
fn meta_matches_table_one_shape() {
    let checks: [(ModelId, usize); 4] = [
        (ModelId::Ncf, 4),
        (ModelId::Rm1, 3),
        (ModelId::Rm2, 4),
        (ModelId::Din, 4),
    ];
    for (id, tables) in checks {
        let m = id.build(ModelScale::Tiny, 7).unwrap();
        assert_eq!(m.meta().num_tables, tables, "{id} table count");
        assert!(m.meta().fc_param_bytes > 0);
        assert!(m.meta().emb_param_bytes > 0);
        assert!(
            (0.0..=1.0).contains(&m.meta().top_fc_weight_fraction),
            "{id} top fraction"
        );
    }
}

#[test]
fn paper_scale_rm2_is_embedding_dominated() {
    let m = ModelId::Rm2.build(ModelScale::Paper, 7).unwrap();
    let f = ArchFeatures::from_meta(m.meta());
    assert!(
        f.log_fc_to_emb_ratio < -2.0,
        "RM2 FC:Emb ratio should be tiny"
    );
    let rm3 = ModelId::Rm3.build(ModelScale::Paper, 7).unwrap();
    let f3 = ArchFeatures::from_meta(rm3.meta());
    assert!(
        f3.log_fc_to_emb_ratio > f.log_fc_to_emb_ratio,
        "RM3 should be more FC-heavy than RM2"
    );
}

#[test]
fn wrong_inputs_are_rejected() {
    let mut model = ModelId::Ncf.build(ModelScale::Tiny, 7).unwrap();
    // NCF expects two id inputs; give it a dense tensor.
    let bad = vec![
        Value::dense(Tensor::zeros(&[2, 4])),
        Value::dense(Tensor::zeros(&[2, 4])),
    ];
    assert!(model.run(bad).is_err());
    // And the wrong input count.
    assert!(model.run(vec![]).is_err());
}

/// A build that finds its tables already in the store skips their draws
/// instead of making them; everything drawn afterwards (the FC weights),
/// and so every output, must be what a build into an empty store gets.
#[test]
fn a_build_onto_registered_tables_equals_a_fresh_store_build() {
    use drec_store::{EmbeddingStore, RowEncoding, StoreConfig};
    use std::sync::Arc;
    let int8 = || {
        Arc::new(EmbeddingStore::new(StoreConfig {
            encoding: RowEncoding::Int8,
            ..StoreConfig::default()
        }))
    };
    let bits = |values: &[Value]| -> Vec<Vec<u32>> {
        let dense = values.iter().map(|v| v.as_dense().unwrap().as_slice());
        dense
            .map(|t| t.iter().map(|f| f.to_bits()).collect())
            .collect()
    };
    let shared = int8();
    for id in ModelId::ALL {
        let mut first = id
            .build_with_store(ModelScale::Tiny, 7, Arc::clone(&shared))
            .unwrap();
        let tables = shared.stats().tables;
        let mut replica = id
            .build_with_store(ModelScale::Tiny, 7, Arc::clone(&shared))
            .unwrap();
        assert_eq!(shared.stats().tables, tables, "{id} registered twice");
        let mut fresh = id.build_with_store(ModelScale::Tiny, 7, int8()).unwrap();
        assert_eq!(
            replica.capture_fc_weights(),
            fresh.capture_fc_weights(),
            "{id}: FC weights drawn after a skipped table differ"
        );
        let inputs = make_inputs(&fresh, 3, 23);
        let want = bits(&fresh.run(inputs.clone()).unwrap());
        assert_eq!(bits(&replica.run(inputs.clone()).unwrap()), want, "{id}");
        assert_eq!(bits(&first.run(inputs).unwrap()), want, "{id}");
    }
}
