//! Both runtimes are the same lane pool; with one lane and no
//! accelerator, co-location adds nothing that may touch a result.

use std::time::Duration;

use drec_models::ModelId;
use drec_sched::{GpuSchedConfig, ModelSlo, MultiServeRuntime, SchedConfig};
use drec_serve::{
    LatencyHistogram, RowEncoding, ServeConfig, ServeError, ServeRuntime, StoreConfig,
};

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

/// A lane over its queue budget sheds the arrival as the queue refused
/// it, in both runtimes, with or without an accelerator: each lane has
/// one queue and there is nowhere else for the arrival to go.
#[test]
fn a_full_lane_sheds_overloaded_in_both_runtimes() {
    // max_batch above queue_capacity and a 60 s max_wait: the queue never
    // releases a batch, so the fifth arrival meets a full queue.
    let mut single_cfg = ServeConfig::tiny(ModelId::Ncf);
    single_cfg.queue_capacity = 4;
    single_cfg.max_wait = Duration::from_secs(60);
    single_cfg.max_batch = 64;
    let mut sched_cfg =
        SchedConfig::tiny(vec![ModelSlo::new(ModelId::Ncf, Duration::from_millis(50))]);
    sched_cfg.queue_capacity = 4;
    sched_cfg.max_wait = Duration::from_secs(60);
    sched_cfg.max_batch = 64;
    sched_cfg.gpu = None;
    let mut accelerated_cfg = sched_cfg.clone();
    accelerated_cfg.gpu = Some(GpuSchedConfig::default());

    let single = ServeRuntime::start(single_cfg).unwrap();
    let sched = MultiServeRuntime::start(sched_cfg).unwrap();
    let accelerated = MultiServeRuntime::start(accelerated_cfg).unwrap();
    let single_handle = single.handle();
    let (sched_handle, accelerated_handle) = (sched.handle(), accelerated.handle());
    let mut gen = drec_workload::QueryGen::uniform(3);
    let mut accepted = Vec::new();
    for _ in 0..4 {
        let inputs = gen.batch(single.spec(), 1);
        accepted.push(single_handle.submit(inputs.clone()).unwrap());
        accepted.push(sched_handle.submit(ModelId::Ncf, inputs.clone()).unwrap());
        accepted.push(accelerated_handle.submit(ModelId::Ncf, inputs).unwrap());
    }
    let inputs = gen.batch(single.spec(), 1);
    let errs = [
        single_handle.submit(inputs.clone()).unwrap_err(),
        sched_handle
            .submit(ModelId::Ncf, inputs.clone())
            .unwrap_err(),
        accelerated_handle.submit(ModelId::Ncf, inputs).unwrap_err(),
    ];
    for err in errs {
        assert!(
            matches!(err, ServeError::Overloaded { depth: 4, .. }),
            "{err}"
        );
    }
    // Shutdown drains the queues: every accepted request is answered.
    single.shutdown();
    sched.shutdown();
    accelerated.shutdown();
    for pending in accepted {
        pending.wait().unwrap();
    }
}

/// With one lane, every pool-wide per-request figure is that lane's, in
/// both runtimes: the lane holds the only record of each request, and
/// the latency it records is the one its response reports.
#[test]
fn a_sole_lane_figures_are_the_pool_figures_in_both_runtimes() {
    // Four queue slots and a coalescing wait no test outlasts: four of
    // six arrivals are admitted, two shed, and shutdown's drain answers
    // the four.
    let mut single_cfg = ServeConfig::tiny(ModelId::Ncf);
    single_cfg.queue_capacity = 4;
    single_cfg.max_wait = Duration::from_secs(60);
    let mut sched_cfg =
        SchedConfig::tiny(vec![ModelSlo::new(ModelId::Ncf, Duration::from_millis(50))]);
    sched_cfg.queue_capacity = 4;
    sched_cfg.max_wait = Duration::from_secs(60);
    sched_cfg.gpu = None;

    let single = ServeRuntime::start(single_cfg).unwrap();
    let sched = MultiServeRuntime::start(sched_cfg).unwrap();
    let (single_handle, sched_handle) = (single.handle(), sched.handle());
    let mut gen = drec_workload::QueryGen::uniform(9);
    let (mut single_pending, mut sched_pending) = (Vec::new(), Vec::new());
    let mut shed = [0u64; 2];
    for _ in 0..6 {
        let inputs = gen.batch(single.spec(), 1);
        match single_handle.submit(inputs.clone()) {
            Ok(pending) => single_pending.push(pending),
            Err(err) => {
                assert!(matches!(err, ServeError::Overloaded { .. }), "{err}");
                shed[0] += 1;
            }
        }
        match sched_handle.submit(ModelId::Ncf, inputs) {
            Ok(pending) => sched_pending.push(pending),
            Err(err) => {
                assert!(matches!(err, ServeError::Overloaded { .. }), "{err}");
                shed[1] += 1;
            }
        }
    }
    let snapshots = [single.shutdown(), sched.shutdown().snapshot];
    let latency = [LatencyHistogram::default(), LatencyHistogram::default()];
    for (pendings, latency) in [single_pending, sched_pending].into_iter().zip(&latency) {
        for pending in pendings {
            latency.record_seconds(pending.wait().expect("served").wall_seconds);
        }
    }
    let bits = |x: f64| x.to_bits();
    for ((s, shed), latency) in snapshots.iter().zip(shed).zip(&latency) {
        assert_eq!(shed, 2, "{s:?}");
        let [lane] = s.models.as_slice() else {
            panic!("one lane, one channel: {s:?}")
        };
        assert_eq!(lane.name, ModelId::Ncf.name());
        assert_eq!((lane.completed, lane.shed), (4, shed), "{s:?}");
        assert_eq!((s.completed, s.shed), (lane.completed, lane.shed));
        assert_eq!(s.overload_level, lane.overload_level);
        assert_eq!(bits(s.p50_seconds), bits(lane.p50_seconds));
        assert_eq!(bits(s.p95_seconds), bits(lane.p95_seconds));
        assert_eq!(bits(s.p99_seconds), bits(lane.p99_seconds));
        assert_eq!(bits(s.p99_seconds), bits(latency.quantile_seconds(0.99)));
        assert_eq!(bits(s.mean_latency_seconds), bits(latency.mean_seconds()));
    }
}
