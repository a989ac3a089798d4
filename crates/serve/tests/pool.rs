//! The lane pool with more than one lane under injected panics: the
//! recovery design `faults.rs`/`drain.rs` exercise through the one-lane
//! `ServeRuntime` — self-supervising workers on a shared restart budget
//! — holds across lanes, and a spent budget closes every lane with typed
//! errors instead of hanging anyone.

use std::sync::Arc;
use std::time::Duration;

use drec_core::serving::LatencyCurve;
use drec_models::{ModelId, ModelScale};
use drec_serve::{
    DegradeConfig, FaultHook, FaultPlan, Inline, LanePool, LaneSpec, PendingResponse, PoolConfig,
    ServeError, SubmitOptions, SupervisorConfig,
};
use drec_workload::QueryGen;

const MODELS: [ModelId; 2] = [ModelId::Ncf, ModelId::Wnd];
const ANSWER_BOUND: Duration = Duration::from_secs(30);

fn two_lane_pool(
    panic_every: u64,
    supervisor: SupervisorConfig,
    max_batch: usize,
    max_wait: Duration,
) -> LanePool {
    let lane = |model| LaneSpec {
        model,
        curve: LatencyCurve::from_points(vec![(1, 1e-4), (1024, 1e-2)]),
        built: None,
    };
    LanePool::start(PoolConfig {
        lanes: MODELS.map(lane).into(),
        scale: ModelScale::Tiny,
        seed: 7,
        workers: 2,
        worker_name: "pool-test-worker",
        extra_workers: 0,
        max_batch,
        max_wait,
        queue_capacity: 1024,
        delay_budget: Duration::from_secs(60),
        degrade: DegradeConfig::default(),
        store: None,
        par_pool: drec_par::current(),
        supervisor,
        faults: FaultHook::from_plan(&FaultPlan {
            panic_every_n_batches: Some(panic_every),
            ..FaultPlan::quiet(0x2_1A4E5)
        }),
        placement: Arc::new(Inline),
    })
    .expect("pool starts")
}

/// Submits `count` requests to `lane`.
fn submit(pool: &LanePool, lane: usize, count: usize) -> Vec<PendingResponse> {
    let handle = pool.handle();
    let mut gen = QueryGen::uniform(3 + lane as u64);
    (0..count)
        .map(|_| {
            let inputs = gen.batch(&handle.lanes[lane].spec, 1);
            let pending = handle.submit(lane, inputs, SubmitOptions::default());
            pending.expect("admitted")
        })
        .collect()
}

#[test]
fn injected_panics_on_two_lanes_are_survived_and_engines_restart() {
    let mut pool = two_lane_pool(4, SupervisorConfig::default(), 4, Duration::ZERO);
    let mut pendings = submit(&pool, 0, 40);
    pendings.extend(submit(&pool, 1, 40));
    for pending in pendings {
        pending
            .wait_timeout(ANSWER_BOUND)
            .expect("request hung across an injected panic")
            .ok();
    }
    pool.join_workers();
    pool.drain_lanes();
    let stats = pool.metrics.snapshot();
    assert_eq!(stats.accepted, 80);
    assert!(stats.worker_panics > 0, "schedule must fire: {stats:?}");
    assert!(
        stats.worker_restarts > 0,
        "panicked workers rebuild their engines: {stats:?}"
    );
    assert_eq!(
        stats.worker_panics as usize,
        stats.panic_reasons.len(),
        "every panic leaves its reason in the metrics"
    );
    for model in &stats.models {
        assert!(model.completed > 0, "lane {} served nothing", model.name);
    }
}

#[test]
fn spent_restart_budget_closes_every_lane_with_typed_errors() {
    // Every batch panics and nothing may be restarted: each worker dies
    // on its first batch, and the last one out sweeps both lanes. A far
    // coalescing deadline parks 15 requests per lane until lane 0's 16th
    // fills its batch, so all 31 are admitted before any worker can die.
    let no_restarts = SupervisorConfig {
        max_restarts: 0,
        ..SupervisorConfig::default()
    };
    let pool = two_lane_pool(1, no_restarts, 16, Duration::from_secs(60));
    let mut pendings = submit(&pool, 1, 15);
    pendings.extend(submit(&pool, 0, 16));
    for pending in pendings {
        match pending.wait_timeout(ANSWER_BOUND) {
            Some(Err(ServeError::WorkerFailed { .. })) => {}
            Some(other) => panic!("expected WorkerFailed, got {other:?}"),
            None => panic!("request hung on a pool with no live workers"),
        }
    }
    // The sweep that answered the queued requests ran after the lanes
    // closed, so by now admission is shut on both.
    let handle = pool.handle();
    let mut gen = QueryGen::uniform(5);
    for lane in 0..MODELS.len() {
        let inputs = gen.batch(&handle.lanes[lane].spec, 1);
        let err = handle
            .submit(lane, inputs, SubmitOptions::default())
            .unwrap_err();
        assert!(
            matches!(err, ServeError::ShuttingDown),
            "lane {lane}: {err}"
        );
    }
    let stats = pool.metrics.snapshot();
    assert_eq!(stats.worker_restarts, 0);
    assert!(stats.worker_panics >= 1, "{stats:?}");
    assert_eq!(stats.completed, 0);
    assert_eq!(stats.failed, 31, "every admitted request failed: {stats:?}");
    drop(pool); // joins the (already exited) workers; must not hang
}
