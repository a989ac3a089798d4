//! The stream prefetcher inside a live runtime: a closed loop of eight
//! outstanding RM1 requests over a tiered int8 store whose DRAM budget
//! holds not quite three requests' rows. Admission runs eight ahead of
//! the workers, so a prefetcher that fills everything it is handed evicts
//! most of its own fills before their request runs; the paced one wastes
//! next to none — and, paced or off, prefetching never changes an output
//! bit.

use std::collections::VecDeque;
use std::time::Duration;

use drec_models::ModelId;
use drec_serve::{
    MetricsSnapshot, RowEncoding, ServeConfig, ServeRuntime, StoreConfig, StoreStats,
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
