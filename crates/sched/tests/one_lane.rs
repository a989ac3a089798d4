//! Both runtimes are the same lane pool; with one lane, no accelerator
//! and no tuner, co-location adds nothing that may touch a result.

use std::time::Duration;

use drec_models::ModelId;
use drec_sched::{ModelSlo, MultiServeRuntime, SchedConfig};
use drec_serve::{RowEncoding, ServeConfig, ServeRuntime, StoreConfig};

fn bits(outputs: &[drec_ops::Value]) -> Vec<Vec<u32>> {
    outputs
        .iter()
        .map(|v| {
            let dense = v.as_dense().expect("dense output");
            dense.as_slice().iter().map(|f| f.to_bits()).collect()
        })
        .collect()
}

/// Same model, seed and store configuration, the same 64 requests: the
/// outputs must agree to the bit.
#[test]
fn one_lane_scheduler_matches_the_single_model_runtime_bit_for_bit() {
    let store = StoreConfig {
        encoding: RowEncoding::Int8,
        cache_capacity_rows: 64,
        ..StoreConfig::default()
    };
    let mut single_cfg = ServeConfig::tiny(ModelId::Rm1);
    single_cfg.workers = 1;
    single_cfg.store = Some(store.clone());
    let mut sched_cfg =
        SchedConfig::tiny(vec![ModelSlo::new(ModelId::Rm1, Duration::from_millis(50))]);
    sched_cfg.cpu_workers = 1;
    sched_cfg.gpu = None;
    sched_cfg.tuner = None;
    sched_cfg.store = Some(store);
    assert_eq!(
        (single_cfg.scale, single_cfg.seed),
        (sched_cfg.scale, sched_cfg.seed)
    );

    let single = ServeRuntime::start(single_cfg).unwrap();
    let sched = MultiServeRuntime::start(sched_cfg).unwrap();
    let (single_handle, sched_handle) = (single.handle(), sched.handle());
    let mut gen = drec_workload::QueryGen::zipf(41, 1.0);
    for i in 0..64 {
        let inputs = gen.batch(single.spec(), 1);
        let a = single_handle.submit(inputs.clone()).unwrap();
        let b = sched_handle.submit(ModelId::Rm1, inputs).unwrap();
        let (a, b) = (a.wait().unwrap(), b.wait().unwrap());
        assert_eq!(bits(&a.outputs), bits(&b.outputs), "request {i} differs");
    }
    assert_eq!(single.shutdown().completed, 64);
    assert_eq!(sched.shutdown().snapshot.completed, 64);
}
