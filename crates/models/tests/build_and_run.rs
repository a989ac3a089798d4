//! End-to-end build-and-run tests for all eight models at `Tiny` scale,
//! and views of them.

use std::sync::Arc;

use drec_models::{ArchFeatures, CustomDlrm, InputSlot, ModelId, ModelScale, RecModel};
use drec_ops::{FcParams, IdList, Value};
use drec_par::ParPool;
use drec_store::{EmbeddingStore, RowEncoding, StoreConfig};
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

/// The bits of every output.
fn bits(values: &[Value]) -> Vec<Vec<u32>> {
    let dense = values.iter().map(|v| v.as_dense().unwrap().as_slice());
    dense
        .map(|t| t.iter().map(|f| f.to_bits()).collect())
        .collect()
}

fn int8() -> Arc<EmbeddingStore> {
    Arc::new(EmbeddingStore::new(StoreConfig {
        encoding: RowEncoding::Int8,
        ..StoreConfig::default()
    }))
}

/// A Tiny build of `id` with dense tables, or into an int8 store of its
/// own.
fn build(id: ModelId, stored: bool) -> RecModel {
    match stored {
        true => id.build_with_store(ModelScale::Tiny, 7, int8()),
        false => id.build(ModelScale::Tiny, 7),
    }
    .unwrap()
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

/// `CustomDlrm` is the published DLRM skeleton: set to RM1's Tiny shape
/// and seed, it builds RM1 — the same outputs to the bit and the same
/// parameter budgets.
#[test]
fn a_custom_dlrm_with_rm1s_tiny_shape_is_rm1() {
    let mut rm1 = build(ModelId::Rm1, false);
    let mut custom = CustomDlrm::new("RM1")
        .dense_features(16)
        .bottom_mlp(&[16, 8])
        .top_mlp(&[16, 1])
        .tables(3, 1_000, 8)
        .lookups_per_table(4)
        .build(7)
        .unwrap();
    for batch in [1, 5] {
        let inputs = make_inputs(&rm1, batch, 11);
        let expected = bits(&rm1.run(inputs.clone()).unwrap());
        assert_eq!(
            bits(&custom.run(inputs).unwrap()),
            expected,
            "batch {batch}"
        );
    }
    assert_eq!(custom.meta().fc_param_bytes, rm1.meta().fc_param_bytes);
    assert_eq!(custom.meta().emb_param_bytes, rm1.meta().emb_param_bytes);
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
        let mut fresh = build(id, true);
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

#[test]
fn views_are_bit_identical_to_their_source_and_a_fresh_build() {
    for id in ModelId::ALL {
        for stored in [false, true] {
            let inputs = make_inputs(&build(id, stored), 3, 31);
            let want = bits(&build(id, stored).run_reference(inputs.clone()).unwrap());
            let mut source = build(id, stored);
            let mut view = source.view();
            source.compile_plan();
            view.compile_plan();
            for threads in [1, 2] {
                let pool = ParPool::new(threads);
                let run = |m: &mut RecModel| {
                    let outputs = drec_par::with_pool(&pool, || m.run(inputs.clone()));
                    bits(&outputs.unwrap())
                };
                let what = format!("{id} stored={stored} @ {threads} threads");
                assert_eq!(run(&mut view), want, "{what}: view");
                assert_eq!(run(&mut source), want, "{what}: source");
            }
        }
    }
}

#[test]
fn a_view_shares_every_fc_handle() {
    for id in ModelId::ALL {
        for stored in [false, true] {
            let source = build(id, stored);
            let view = source.view();
            let of_view = view.view();
            let held = source.fc_params();
            assert!(!held.is_empty(), "{id}: no FC layers");
            for other in [view.fc_params(), of_view.fc_params()] {
                assert_eq!(other.len(), held.len(), "{id}");
                let shared = held.iter().zip(&other).all(|(a, b)| Arc::ptr_eq(a, b));
                assert!(shared, "{id} stored={stored}: a view copied an FC set");
            }
        }
    }
}

#[test]
fn a_view_of_a_fresh_build_records_its_trace() {
    for id in ModelId::ALL {
        for stored in [false, true] {
            let mut source = build(id, stored);
            let mut view = source.view();
            let batch = 2;
            let inputs = make_inputs(&source, batch, 5);
            let (_, want) = source.run_traced(inputs.clone(), batch).unwrap();
            let (_, got) = view.run_traced(inputs, batch).unwrap();
            assert_eq!(got.summary(), want.summary(), "{id} stored={stored}");
            // Address for address: the view's process is the source's.
            assert_eq!(got.ops.len(), want.ops.len(), "{id} stored={stored}");
            for (g, w) in got.ops.iter().zip(&want.ops) {
                let what = format!("{id} stored={stored} {}", w.name);
                assert_eq!((&g.name, &g.code), (&w.name, &w.code), "{what}");
                assert_eq!(g.mem, w.mem, "{what}: memory stream");
            }
        }
    }
}

#[test]
fn an_install_on_a_view_or_its_source_reaches_only_that_model() {
    let perturbed = |m: &RecModel| -> Vec<Arc<FcParams>> {
        let scaled = |p: &Arc<FcParams>| {
            Arc::new(FcParams {
                weights: p.weights.map(|v| v * 1.5 + 0.125),
                bias: p.bias.map(|v| v - 0.25),
            })
        };
        m.fc_params().iter().map(scaled).collect()
    };
    for id in ModelId::ALL {
        for stored in [false, true] {
            let what = format!("{id} stored={stored}");
            let mut source = build(id, stored);
            source.compile_plan();
            let inputs = make_inputs(&source, 2, 13);
            let before = bits(&source.run(inputs.clone()).unwrap());
            for install_on_view in [true, false] {
                let mut view = source.view();
                view.compile_plan();
                let (target, other) = match install_on_view {
                    true => (&mut view, &mut source),
                    false => (&mut source, &mut view),
                };
                let set = perturbed(target);
                target.install_fc_params(&set).unwrap();
                let installed = target.fc_params();
                assert!(installed.iter().zip(&set).all(|(a, b)| Arc::ptr_eq(a, b)));
                let changed = bits(&target.run(inputs.clone()).unwrap());
                assert_ne!(changed, before, "{what}: the set did not reach the plan");
                assert_eq!(
                    bits(&other.run(inputs.clone()).unwrap()),
                    before,
                    "{what}: an install on one model reached the other"
                );
                if !install_on_view {
                    // Back to where the next case starts.
                    let original = view.fc_params();
                    source.install_fc_params(&original).unwrap();
                    assert_eq!(bits(&source.run(inputs.clone()).unwrap()), before);
                }
            }
        }
    }
}
