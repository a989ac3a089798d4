//! Compiled-plan correctness properties over all eight models:
//!
//! * plan execution (fusion + waves) is bit-identical to the sequential
//!   reference executor at every thread count,
//! * compilation is deterministic — repeated compiles produce the same
//!   fusion decisions and wave schedule,
//! * a plan only serves: a compiled model's traced run walks the graph,
//!   so its trace is the uncompiled model's record for record.

use drec_graph::{ExecPlan, PlanOptions};
use drec_models::{InputSlot, ModelId, ModelScale, RecModel};
use drec_ops::{IdList, Value};
use drec_par::ParPool;
use drec_tensor::ParamInit;

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

fn assert_bits_eq(id: ModelId, a: &[Value], b: &[Value], what: &str) {
    assert_eq!(a.len(), b.len(), "{id} {what}: output count");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        let (xt, yt) = (x.as_dense().unwrap(), y.as_dense().unwrap());
        assert_eq!(xt.dims(), yt.dims(), "{id} {what}: output {i} shape");
        for (j, (p, q)) in xt.as_slice().iter().zip(yt.as_slice()).enumerate() {
            assert_eq!(
                p.to_bits(),
                q.to_bits(),
                "{id} {what}: output {i} element {j}: {p} vs {q}"
            );
        }
    }
}

#[test]
fn plans_are_bit_identical_to_reference_at_all_thread_counts() {
    for id in ModelId::ALL {
        let mut model = id.build(ModelScale::Tiny, 7).unwrap();
        let batch = 3;
        let want = model.run_reference(make_inputs(&model, batch, 11)).unwrap();
        model.compile_plan();
        for threads in [1, 2, 8] {
            let pool = ParPool::new(threads);
            let got =
                drec_par::with_pool(&pool, || model.run(make_inputs(&model, batch, 11)).unwrap());
            assert_bits_eq(id, &want, &got, &format!("plan @ {threads} threads"));
        }
    }
}

/// RM3 at Paper scale is the model whose FC stacks are wide enough for
/// every GEMM partition: batches 1–9 cross each row remainder of the
/// register block and, on two threads, both the column-tile and the
/// row-chunk split. None of it may move a bit.
#[test]
fn rm3_paper_is_bit_identical_to_reference_at_serving_batch_sizes() {
    let id = ModelId::Rm3;
    let mut model = id.build(ModelScale::Paper, 7).unwrap();
    let wants: Vec<_> = (1..=9)
        .map(|batch| model.run_reference(make_inputs(&model, batch, 11)).unwrap())
        .collect();
    model.compile_plan();
    for threads in [1, 2] {
        let pool = ParPool::new(threads);
        for (batch, want) in (1..=9).zip(&wants) {
            let got =
                drec_par::with_pool(&pool, || model.run(make_inputs(&model, batch, 11)).unwrap());
            let what = format!("batch {batch} @ {threads} threads");
            assert_bits_eq(id, want, &got, &what);
        }
    }
}

#[test]
fn fusion_only_plans_match_reference() {
    for id in ModelId::ALL {
        let mut model = id.build(ModelScale::Tiny, 5).unwrap();
        let batch = 2;
        let want = model.run_reference(make_inputs(&model, batch, 3)).unwrap();
        model.compile_plan_with(PlanOptions { waves: false });
        let got = model.run(make_inputs(&model, batch, 3)).unwrap();
        assert_bits_eq(id, &want, &got, "fusion-only plan");
    }
}

#[test]
fn fusion_rewrites_fire_on_the_expected_models() {
    // Every model has FC→activation chains; the multi-table rewrite needs
    // several SLS nodes feeding one concat (WnD, MT-WnD).
    for id in ModelId::ALL {
        let mut model = id.build(ModelScale::Tiny, 7).unwrap();
        let stats = model.compile_plan().clone();
        assert!(stats.fused_fc > 0, "{id}: no FC chains fused");
        assert!(
            stats.ops_after < stats.ops_before,
            "{id}: fusion did not shrink the graph"
        );
        assert!(stats.max_wave_width >= 1, "{id}: empty wave schedule");
    }
    for id in [ModelId::Wnd, ModelId::MtWnd] {
        let mut model = id.build(ModelScale::Tiny, 7).unwrap();
        let stats = model.compile_plan();
        assert!(
            stats.fused_tables >= 2,
            "{id}: expected a multi-table SLS rewrite, stats {stats:?}"
        );
    }
}

#[test]
fn repeated_compiles_produce_identical_schedules() {
    for id in ModelId::ALL {
        let model = id.build(ModelScale::Tiny, 7).unwrap();
        let a = ExecPlan::compile(model.graph(), PlanOptions::default());
        let b = ExecPlan::compile(model.graph(), PlanOptions::default());
        assert_eq!(a.wave_layout(), b.wave_layout(), "{id} schedule");
        assert_eq!(a.stats().fused_fc, b.stats().fused_fc, "{id} fc fusions");
        assert_eq!(
            a.stats().fused_tables,
            b.stats().fused_tables,
            "{id} table fusions"
        );
    }
}

#[test]
fn a_compiled_model_traces_its_graph() {
    for id in ModelId::ALL {
        let batch = 2;
        let mut uncompiled = id.build(ModelScale::Tiny, 7).unwrap();
        let (_, want) = uncompiled
            .run_traced(make_inputs(&uncompiled, batch, 5), batch)
            .unwrap();

        let mut compiled = id.build(ModelScale::Tiny, 7).unwrap();
        compiled.compile_plan();
        let (_, got) = compiled
            .run_traced(make_inputs(&compiled, batch, 5), batch)
            .unwrap();

        assert_eq!(got.ops.len(), want.ops.len(), "{id} record count");
        for (i, (g, w)) in got.ops.iter().zip(&want.ops).enumerate() {
            assert_eq!(g.name, w.name, "{id} record {i}: name");
            assert_eq!(g.code, w.code, "{id} record {i} ({}): code", w.name);
            assert_eq!(g.mem, w.mem, "{id} record {i} ({}): mem", w.name);
        }
    }
}

#[test]
fn fc_weight_swap_reaches_compiled_plans_and_round_trips() {
    for id in [ModelId::Rm1, ModelId::Wnd] {
        let mut model = id.build(ModelScale::Tiny, 7).unwrap();
        model.compile_plan();
        let baseline = model.run(make_inputs(&model, 2, 11)).unwrap();
        let original = model.capture_fc_weights();
        assert!(!original.is_empty(), "{id}: no FC layers captured");

        // Install a perturbed set: the compiled (possibly fused) plan
        // must compute from the new weights.
        let perturbed: Vec<_> = original
            .iter()
            .map(|(w, b)| (w.map(|v| v * 1.5 + 0.125), b.map(|v| v - 0.25)))
            .collect();
        model.install_fc_weights(&perturbed).unwrap();
        let swapped = model.run(make_inputs(&model, 2, 11)).unwrap();
        let differs = baseline.iter().zip(&swapped).any(|(a, b)| {
            a.as_dense()
                .unwrap()
                .as_slice()
                .iter()
                .zip(b.as_dense().unwrap().as_slice())
                .any(|(x, y)| x.to_bits() != y.to_bits())
        });
        assert!(differs, "{id}: swapped weights did not reach the plan");

        // Restoring the captured set is bit-identical to the baseline.
        model.install_fc_weights(&original).unwrap();
        let restored = model.run(make_inputs(&model, 2, 11)).unwrap();
        assert_bits_eq(id, &baseline, &restored, "restored weight set");

        // A mismatched set is a typed error and leaves the model alone.
        assert!(model
            .install_fc_weights(&original[..original.len() - 1])
            .is_err());
        let after_reject = model.run(make_inputs(&model, 2, 11)).unwrap();
        assert_bits_eq(id, &baseline, &after_reject, "rejected weight set");
    }
}
