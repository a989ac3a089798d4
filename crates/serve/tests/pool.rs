//! The lane pool with more than one lane: under injected panics the
//! recovery design `faults.rs`/`drain.rs` exercise through the one-lane
//! `ServeRuntime` — self-supervising workers on a shared restart budget
//! — holds across lanes, and a spent budget closes every lane with typed
//! errors instead of hanging anyone; each lane keeps its own requests'
//! records and the pool-wide snapshot is their merge; a worker with a
//! size rule takes only the batches its placement allows it; and a
//! pool's store is its lanes', so lanes built against two stores, or a
//! store-backed lane beside a dense one, are refused.

use std::sync::Arc;
use std::time::Duration;

use drec_core::serving::LatencyCurve;
use drec_faultsim::{FaultHook, FaultPlan};
use drec_models::{ModelId, ModelScale};
use drec_serve::{
    DegradeConfig, EmbeddingStore, Inline, LaneSpec, LatencyHistogram, OverloadLevel,
    PendingResponse, Placement, PoolConfig, ServeError, ServeRuntime, StoreConfig, SubmitOptions,
    SupervisorConfig,
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
        workers: 2,
        worker_name: "pool-test-worker",
        max_batch: 16,
        max_wait: Duration::ZERO,
        queue_capacity: 1024,
        delay_budget: Duration::from_secs(60),
        degrade: DegradeConfig::default(),
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
) -> ServeRuntime {
    ServeRuntime::start_pool(PoolConfig {
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
fn submit(pool: &ServeRuntime, lane: usize, count: usize) -> Vec<PendingResponse> {
    let handles = pool.handles();
    let mut gen = QueryGen::uniform(3 + lane as u64);
    (0..count)
        .map(|_| {
            let inputs = gen.batch(handles[lane].spec(), 1);
            let pending = handles[lane].submit_with(inputs, SubmitOptions::default());
            pending.expect("admitted")
        })
        .collect()
}

#[test]
fn injected_panics_on_two_lanes_are_survived_and_engines_restart() {
    let pool = two_lane_pool(4, SupervisorConfig::default(), 4, Duration::ZERO);
    let mut pendings = submit(&pool, 0, 40);
    pendings.extend(submit(&pool, 1, 40));
    for pending in pendings {
        pending
            .wait_timeout(ANSWER_BOUND)
            .expect("request hung across an injected panic")
            .ok();
    }
    let stats = pool.shutdown();
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
    let handles = pool.handles();
    let mut gen = QueryGen::uniform(5);
    for (lane, handle) in handles.iter().enumerate() {
        let inputs = gen.batch(handle.spec(), 1);
        let err = handle
            .submit_with(inputs, SubmitOptions::default())
            .unwrap_err();
        assert!(
            matches!(err, ServeError::ShuttingDown),
            "lane {lane}: {err}"
        );
    }
    let stats = pool.snapshot();
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
    let pool = ServeRuntime::start_pool(PoolConfig {
        queue_capacity: 4,
        max_wait: Duration::from_millis(200),
        ..two_lanes()
    })
    .expect("pool starts");
    let handles = pool.handles();
    let mut gens = [QueryGen::uniform(11), QueryGen::uniform(12)];
    let latency = LatencyHistogram::default();
    let (mut answered, mut shed) = (0, 0);
    for _ in 0..3 {
        let mut burst = Vec::new();
        for i in 0..16 {
            let lane = i % 2;
            let inputs = gens[lane].batch(handles[lane].spec(), 1);
            match handles[lane].submit_with(inputs, SubmitOptions::default()) {
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
    let s = pool.shutdown();
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

#[test]
fn each_lane_keeps_its_records_and_the_registry_its_counters() {
    // Four slots per lane and a coalescing wait no test outlasts: the
    // queues release nothing until teardown drains them. Lane 0 gets six
    // arrivals and sheds two; lane 1 gets three and sheds none.
    let pool = ServeRuntime::start_pool(PoolConfig {
        queue_capacity: 4,
        max_wait: Duration::from_secs(60),
        ..two_lanes()
    })
    .expect("pool starts");
    let handles = pool.handles();
    let mut gen = QueryGen::uniform(13);
    let (mut pendings, mut shed) = (Vec::new(), [0u64; 2]);
    for (lane, arrivals) in [(0, 6), (1, 3)] {
        for _ in 0..arrivals {
            let inputs = gen.batch(handles[lane].spec(), 1);
            match handles[lane].submit_with(inputs, SubmitOptions::default()) {
                Ok(pending) => pendings.push(pending),
                Err(ServeError::Overloaded { .. }) => shed[lane] += 1,
                Err(other) => panic!("unexpected admission error {other}"),
            }
        }
    }
    // A malformed payload is the registry's to count, and no lane's.
    let err = handles[0].submit_with(Vec::new(), SubmitOptions::default());
    assert!(matches!(err, Err(ServeError::InvalidInput { .. })));
    let s = pool.shutdown();
    for pending in pendings {
        let response = pending.wait_timeout(ANSWER_BOUND).expect("answered");
        response.expect("served by the draining workers");
    }
    assert_eq!(shed, [2, 0]);
    let names: Vec<&str> = s.models.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(names, MODELS.map(|m| m.name()), "lanes in lane order");
    let per_lane: Vec<(u64, u64)> = s.models.iter().map(|m| (m.completed, m.shed)).collect();
    assert_eq!(per_lane, [(4, 2), (3, 0)]);
    assert_eq!((s.completed, s.shed), (7, 2));
    // The registry's own counters.
    assert_eq!((s.accepted, s.rejected_invalid), (7, 1));
    assert!((s.shed_rate() - 2.0 / 9.0).abs() < 1e-12);
    assert!(s.batches >= 2, "one batch per lane at least: {s:?}");
    assert_eq!(s.mean_batch, s.completed as f64 / s.batches as f64);
    assert_eq!(s.worker_utilization.len(), 2);
    assert!(s.worker_utilization.iter().any(|&u| u > 0.0), "{s:?}");
    // Co-located lanes have no pool-wide ladder: the pool reports Normal.
    assert_eq!(s.overload_level, OverloadLevel::Normal);
}

/// The worker it names takes batches of at least 4 from lane 0 and none
/// from lane 1; every other worker takes any batch.
#[derive(Debug)]
struct SizeRuled(usize);

impl Placement for SizeRuled {
    fn min_batch(&self, worker: usize, lane: usize) -> usize {
        match (worker == self.0, lane) {
            (false, _) => 1,
            (true, 0) => 4,
            (true, _) => usize::MAX,
        }
    }
}

#[test]
fn a_size_ruled_worker_takes_only_batches_at_its_minimum() {
    let pool = ServeRuntime::start_pool(PoolConfig {
        max_batch: 8,
        placement: Arc::new(SizeRuled(1)),
        ..two_lanes()
    })
    .expect("pool starts");
    let mut pendings = Vec::new();
    for _ in 0..10 {
        pendings.extend(submit(&pool, 0, 8).into_iter().map(|p| (0, p)));
        pendings.extend(submit(&pool, 1, 3).into_iter().map(|p| (1, p)));
    }
    for (lane, pending) in pendings {
        let response = pending.wait_timeout(ANSWER_BOUND).expect("answered");
        let response = response.expect("served");
        if response.worker == 1 {
            assert_eq!(lane, 0, "worker 1 takes nothing from lane 1");
            assert!(
                response.batch >= 4,
                "worker 1 ran a batch of {}",
                response.batch
            );
        }
    }
    assert_eq!(pool.shutdown().completed, 110);
}

#[test]
fn a_lone_worker_drops_its_size_rule() {
    // The only worker may take nothing from lane 1 by its rule; alone, it
    // serves both lanes anyway.
    let pool = ServeRuntime::start_pool(PoolConfig {
        workers: 1,
        placement: Arc::new(SizeRuled(0)),
        ..two_lanes()
    })
    .expect("pool starts");
    let pendings = submit(&pool, 1, 5);
    for pending in pendings {
        let Some(response) = pending.wait_timeout(ANSWER_BOUND) else {
            // Its worker would never leave: leak the pool, don't join it.
            std::mem::forget(pool);
            panic!("a lone worker left lane 1 unserved");
        };
        assert_eq!(response.expect("served").worker, 0);
    }
    pool.shutdown();
}

/// `two_lanes` with each listed lane rebuilt against its store.
fn on_store(lanes: &[(usize, &Arc<EmbeddingStore>)]) -> PoolConfig {
    let mut cfg = two_lanes();
    for &(lane, store) in lanes {
        let built = MODELS[lane].build_with_store(ModelScale::Tiny, 7, Arc::clone(store));
        cfg.lanes[lane].built = built.expect("model builds");
    }
    cfg
}

#[test]
#[should_panic(expected = "built against one store")]
fn lanes_built_against_two_stores_are_refused() {
    let stores = [(); 2].map(|()| Arc::new(EmbeddingStore::new(StoreConfig::default())));
    let _ = ServeRuntime::start_pool(on_store(&[(0, &stores[0]), (1, &stores[1])]));
}

#[test]
#[should_panic(expected = "built against one store")]
fn a_store_backed_lane_beside_a_dense_one_is_refused() {
    let store = Arc::new(EmbeddingStore::new(StoreConfig::default()));
    let _ = ServeRuntime::start_pool(on_store(&[(1, &store)]));
}

#[test]
fn lanes_on_one_store_serve_through_it() {
    let store = Arc::new(EmbeddingStore::new(StoreConfig::default()));
    let pool = ServeRuntime::start_pool(on_store(&[(0, &store), (1, &store)]));
    let pool = pool.expect("pool starts");
    for handle in pool.handles() {
        let channel_store = handle.update_channel().store();
        assert!(channel_store.is_some_and(|s| Arc::ptr_eq(s, &store)));
    }
    let answered = submit(&pool, 0, 2).into_iter().chain(submit(&pool, 1, 2));
    for pending in answered {
        let response = pending.wait_timeout(ANSWER_BOUND).expect("answered");
        response.expect("served");
    }
    let stats = pool.shutdown();
    let store_stats = stats
        .store
        .as_ref()
        .expect("the snapshot reports the store");
    assert!(store_stats.lookups > 0, "{stats:?}");
}
