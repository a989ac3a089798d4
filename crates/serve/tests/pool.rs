//! The lane pool with more than one lane: under injected panics the
//! recovery design `faults.rs`/`drain.rs` exercise through the one-lane
//! `ServeRuntime` — self-supervising workers on a shared restart budget
//! — holds across lanes, and a spent budget closes every lane with typed
//! errors instead of hanging anyone; and the pool-wide snapshot is the
//! merge of its lanes' channels.

use std::sync::Arc;
use std::time::Duration;

use drec_core::serving::LatencyCurve;
use drec_faultsim::{FaultHook, FaultPlan};
use drec_models::{ModelId, ModelScale};
use drec_serve::{
    DegradeConfig, Inline, LanePool, LaneSpec, LatencyHistogram, PendingResponse, PoolConfig,
    ServeError, SubmitOptions, SupervisorConfig,
};
use drec_workload::QueryGen;

const MODELS: [ModelId; 2] = [ModelId::Ncf, ModelId::Wnd];
const ANSWER_BOUND: Duration = Duration::from_secs(30);

/// Two lanes, two workers, no faults; tests override what they need.
fn two_lanes() -> PoolConfig {
    let lane = |model: ModelId| LaneSpec {
        built: model.build(ModelScale::Tiny, 7).expect("model builds"),
        curve: LatencyCurve::from_points(vec![(1, 1e-4), (1024, 1e-2)]),
    };
    PoolConfig {
        lanes: MODELS.map(lane).into(),
        scale: ModelScale::Tiny,
        seed: 7,
        workers: 2,
        worker_name: "pool-test-worker",
        extra_workers: 0,
        max_batch: 16,
        max_wait: Duration::ZERO,
        queue_capacity: 1024,
        delay_budget: Duration::from_secs(60),
        degrade: DegradeConfig::default(),
        store: None,
        par_pool: drec_par::current(),
        supervisor: SupervisorConfig::default(),
        faults: FaultHook::disabled(),
        placement: Arc::new(Inline),
    }
}

fn two_lane_pool(
    panic_every: u64,
    supervisor: SupervisorConfig,
    max_batch: usize,
    max_wait: Duration,
) -> LanePool {
    LanePool::start(PoolConfig {
        max_batch,
        max_wait,
        supervisor,
        faults: FaultHook::from_plan(&FaultPlan {
            panic_every_n_batches: Some(panic_every),
            ..FaultPlan::quiet(0x2_1A4E5)
        }),
        ..two_lanes()
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

#[test]
fn pool_wide_figures_are_the_merge_of_the_lanes() {
    // Four queue slots per lane and a coalescing wait far longer than a
    // burst of submits: each burst of eight per lane fills both queues
    // and the rest of it is shed.
    let mut pool = LanePool::start(PoolConfig {
        queue_capacity: 4,
        max_wait: Duration::from_millis(200),
        ..two_lanes()
    })
    .expect("pool starts");
    let handle = pool.handle();
    let mut gens = [QueryGen::uniform(11), QueryGen::uniform(12)];
    let latency = LatencyHistogram::new();
    let (mut answered, mut shed) = (0, 0);
    for _ in 0..3 {
        let mut burst = Vec::new();
        for i in 0..16 {
            let lane = i % 2;
            let inputs = gens[lane].batch(&handle.lanes[lane].spec, 1);
            match handle.submit(lane, inputs, SubmitOptions::default()) {
                Ok(pending) => burst.push(pending),
                Err(ServeError::Overloaded { .. }) => shed += 1,
                Err(other) => panic!("unexpected admission error {other}"),
            }
        }
        for pending in burst {
            let response = pending.wait_timeout(ANSWER_BOUND).expect("answered");
            latency.record_seconds(response.expect("served").wall_seconds);
            answered += 1;
        }
    }
    pool.join_workers();
    pool.drain_lanes();
    let s = pool.metrics.snapshot();
    assert!(shed > 0, "the bursts must overflow four slots: {s:?}");
    assert_eq!(s.shed, shed);
    assert_eq!(s.completed, answered);
    assert_eq!(s.shed, s.models.iter().map(|m| m.shed).sum::<u64>());
    assert_eq!(
        s.completed,
        s.models.iter().map(|m| m.completed).sum::<u64>()
    );
    assert!(s.models.iter().all(|m| m.completed > 0), "{s:?}");
    let bits = |x: f64| x.to_bits();
    assert_eq!(bits(s.mean_latency_seconds), bits(latency.mean_seconds()));
    assert_eq!(bits(s.p50_seconds), bits(latency.quantile_seconds(0.50)));
    assert_eq!(bits(s.p95_seconds), bits(latency.quantile_seconds(0.95)));
    assert_eq!(bits(s.p99_seconds), bits(latency.quantile_seconds(0.99)));
}
