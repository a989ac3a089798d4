//! The stream prefetcher inside a live runtime: a closed loop of eight
//! outstanding RM1 requests over a tiered int8 store whose DRAM budget
//! holds not quite three requests' rows. Admission runs eight ahead of
//! the workers, so a prefetcher that fills everything it is handed evicts
//! most of its own fills before their request runs; the paced one wastes
//! next to none — and, paced or off, prefetching never changes an output
//! bit. Lanes that prefetch on one shared tier split its window: together
//! they run no further ahead than one lane alone.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use drec_core::serving::LatencyCurve;
use drec_models::{InputSlot, ModelId, ModelScale};
use drec_ops::{IdList, Value};
use drec_serve::{
    DegradeConfig, EmbeddingStore, FaultHook, Inline, LaneSpec, MetricsSnapshot, PoolConfig,
    RowEncoding, ServeConfig, ServeRuntime, StoreConfig, StoreStats, SubmitOptions,
    SupervisorConfig,
};
use drec_store::TierConfig;
use drec_workload::QueryGen;

/// RM1 `Tiny` reads 12 rows per request: the tier holds not quite three
/// requests' rows, admission runs eight ahead.
const DRAM_BUDGET_ROWS: usize = 32;
const REQUESTS: usize = 200;
const OUTSTANDING: usize = 8;
const ANSWER_BOUND: Duration = Duration::from_secs(30);

/// Serves the fixed request stream and returns every output's bits, in
/// request order, with the final metrics.
fn serve(prefetch: bool) -> (Vec<Vec<u32>>, MetricsSnapshot) {
    let mut tier = TierConfig::new(DRAM_BUDGET_ROWS);
    tier.prefetch = prefetch;
    // Demand reads of these uniform ids promote next to nothing, so what
    // evicts a prefetched row is another prefetched row.
    tier.admit_after = 2;
    let runtime = ServeRuntime::start(ServeConfig {
        store: Some(StoreConfig {
            encoding: RowEncoding::Int8,
            tier: Some(tier),
            ..StoreConfig::default()
        }),
        ..ServeConfig::tiny(ModelId::Rm1)
    })
    .expect("runtime starts");
    let handle = runtime.handle();
    let mut gen = QueryGen::uniform(41);
    let mut pending = VecDeque::new();
    let mut bits = Vec::with_capacity(REQUESTS);
    for sent in 0..REQUESTS + OUTSTANDING {
        if sent < REQUESTS {
            let inputs = gen.batch(runtime.spec(), 1);
            pending.push_back(handle.submit(inputs).expect("admitted"));
        }
        if sent + 1 >= OUTSTANDING {
            let Some(oldest) = pending.pop_front() else {
                break;
            };
            let response = oldest
                .wait_timeout(ANSWER_BOUND)
                .expect("request hung")
                .expect("request served");
            let heads = response.outputs.iter();
            let values = heads.flat_map(|v| v.as_dense().expect("dense output").as_slice());
            bits.push(values.map(|f| f.to_bits()).collect());
        }
    }
    assert_eq!(bits.len(), REQUESTS);
    // Shutdown joins the prefetch thread, whatever it has queued.
    (bits, runtime.shutdown())
}

fn store_stats(snapshot: &MetricsSnapshot) -> &StoreStats {
    snapshot.store.as_ref().expect("the runtime serves a store")
}

#[test]
fn paced_prefetch_wastes_little_and_changes_no_output_bit() {
    let (with_prefetch, snapshot) = serve(true);
    let stats = store_stats(&snapshot);
    assert!(
        stats.prefetch_fills > 0,
        "nothing was prefetched: {stats:?}"
    );
    assert!(
        stats.prefetch_wasted <= stats.prefetch_fills / 4,
        "the prefetcher evicted its own fills: {stats:?}"
    );

    let (without, snapshot) = serve(false);
    let stats = store_stats(&snapshot);
    assert_eq!(
        (stats.prefetch_fills, snapshot.prefetch_rows_dropped),
        (0, 0)
    );
    assert_eq!(with_prefetch, without, "prefetching changed an output");
}

/// Two lanes on one prefetching tier of `SHARED_BUDGET_ROWS` rows, with
/// requests that no worker takes: each lane coalesces for a minute. RM1
/// reads 12 distinct rows a request and RM2 24, so each lane's share of
/// the window (`SHARED_BUDGET_ROWS / 2 / 4` = 48 rows) fills exactly.
const SHARED_BUDGET_ROWS: usize = 384;

/// Request `k`'s inputs for `spec`: dense features from `gen`, and ids
/// `k × lookups ..` in every table, so no two requests share a row.
fn distinct_rows(gen: &mut QueryGen, spec: &drec_models::InputSpec, k: u32) -> Vec<Value> {
    let mut inputs = gen.batch(spec, 1);
    for (value, (_, slot)) in inputs.iter_mut().zip(spec.slots()) {
        if let InputSlot::Ids { lookups, .. } = *slot {
            let lookups = lookups as u32;
            let ids = (k * lookups..(k + 1) * lookups).collect();
            *value = Value::ids(IdList::new(ids, vec![lookups]));
        }
    }
    inputs
}

#[test]
fn lanes_on_one_tier_split_its_prefetch_window() {
    let mut tier = TierConfig::new(SHARED_BUDGET_ROWS);
    tier.prefetch = true;
    let store = Arc::new(EmbeddingStore::new(StoreConfig {
        tier: Some(tier),
        ..StoreConfig::default()
    }));
    let lane = |model: ModelId| LaneSpec {
        built: model
            .build_with_store(ModelScale::Tiny, 7, Arc::clone(&store))
            .expect("model builds"),
        curve: LatencyCurve::from_points(vec![(1, 1e-4), (1024, 1e-2)]),
    };
    let pool = ServeRuntime::start_pool(PoolConfig {
        lanes: vec![lane(ModelId::Rm1), lane(ModelId::Rm2)],
        workers: 1,
        worker_name: "prefetch-split-worker",
        max_batch: 64,
        max_wait: Duration::from_secs(60),
        queue_capacity: 1024,
        delay_budget: Duration::from_secs(600),
        degrade: DegradeConfig::default(),
        par_pool: drec_par::current(),
        supervisor: SupervisorConfig::default(),
        faults: FaultHook::disabled(),
        placement: Arc::new(Inline),
    })
    .expect("pool starts");
    let handles = pool.handles();
    let mut gen = QueryGen::uniform(5);
    let mut pending = Vec::new();
    for k in 0..12 {
        for handle in handles {
            let inputs = distinct_rows(&mut gen, handle.spec(), k);
            let submitted = handle.submit_with(inputs, SubmitOptions::default());
            pending.push(submitted.expect("admitted"));
        }
    }

    // Both windows fill; then nothing more may, however long we look.
    let limit = SHARED_BUDGET_ROWS as u64 / 4;
    let deadline = Instant::now() + Duration::from_secs(30);
    while store.stats().prefetch_fills < limit {
        assert!(Instant::now() < deadline, "the windows never filled");
        std::thread::sleep(Duration::from_millis(1));
    }
    std::thread::sleep(Duration::from_millis(200));
    let stats = store.stats();
    assert_eq!(
        stats.prefetch_fills, limit,
        "two lanes held more than a quarter of the shared tier ahead: {stats:?}"
    );

    drop(pool);
    for answer in pending {
        let answer = answer.wait_timeout(ANSWER_BOUND).expect("request hung");
        answer.expect("request served");
    }
}
