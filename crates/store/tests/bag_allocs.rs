//! A bag read allocates nothing: on a warmed store with every residency
//! layer on — the hot-row key set, a tier with its admission filter, a
//! table cut into three shards — one `sum_rows` and one `read_rows` of
//! 120 rows each leave the heap's live figure and its high-water mark
//! where they were. The shard guards a bag holds sit on its stack. Nor
//! does a read of a namespace's published version: on a store of two
//! namespaces, `namespace_version` is a lookup and a load.
//!
//! A test binary of its own: the counting `#[global_allocator]` must see
//! this test's heap and no other's.

use std::sync::Arc;

use drec_check::CountingAlloc;
use drec_store::{ColdReadModel, EmbeddingStore, Pacing, RowEncoding, StoreConfig, TierConfig};

#[global_allocator]
static HEAP: CountingAlloc = CountingAlloc::new();

const ROWS: usize = 600;
const DIM: usize = 32;
const BAG: usize = 120;

#[test]
fn a_warmed_bag_allocates_nothing() {
    let store = Arc::new(EmbeddingStore::new(StoreConfig {
        encoding: RowEncoding::Int8,
        shards_per_table: 3,
        cache_capacity_rows: 64,
        tier: Some(TierConfig {
            admit_after: 2,
            cold_read: ColdReadModel {
                pacing: Pacing::Charge,
                ..ColdReadModel::default()
            },
            ..TierConfig::new(ROWS / 4)
        }),
    }));
    let data: Vec<f32> = (0..ROWS * DIM).map(|i| (i % 97) as f32 / 97.0).collect();
    let pin = store.pin(store.register(1, 0, ROWS, DIM, &data).unwrap());
    store.register(2, 0, ROWS, DIM, &data).unwrap();
    // A skewed bag: three rows in four from a hot head of 32, the rest
    // from the whole table.
    let mut x = 12_345u32;
    let rows: [u32; BAG] = std::array::from_fn(|_| {
        x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        let row = (x >> 8) % ROWS as u32;
        if x >> 30 == 0 {
            row
        } else {
            row % 32
        }
    });
    assert!(
        (0..3).all(|s| rows.iter().any(|&r| r as usize / (ROWS / 3) == s)),
        "the bag reaches every shard"
    );
    let mut acc = vec![0.0f32; DIM];
    let mut dst = vec![0.0f32; BAG * DIM];
    for _ in 0..3 {
        pin.sum_rows(rows, &mut acc);
        pin.read_rows(rows, &mut dst);
    }

    let live = HEAP.live_bytes();
    HEAP.reset_peak();
    pin.sum_rows(rows, &mut acc);
    pin.read_rows(rows, &mut dst);
    assert_eq!(
        (HEAP.live_bytes(), HEAP.peak_bytes()),
        (live, live),
        "(live, peak) heap bytes after a sum and a copy of {BAG} rows"
    );
    let stats = store.stats();
    assert_eq!(stats.lookups, 8 * BAG as u64);
    assert!(stats.cache_hits > 0 && stats.tier_dram_hits > 0 && stats.tier_cold_demand_reads > 0);

    let versions = || [1, 2].map(|ns| store.namespace_version(ns));
    assert_eq!(versions(), [0, 0]);
    let live = HEAP.live_bytes();
    HEAP.reset_peak();
    assert_eq!(versions(), [0, 0]);
    assert_eq!(
        (HEAP.live_bytes(), HEAP.peak_bytes()),
        (live, live),
        "(live, peak) heap bytes after reading two namespaces' versions"
    );
}
