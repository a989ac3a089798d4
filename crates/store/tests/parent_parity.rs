//! Parity with the decoded-row cache this store had before the hot-row
//! cache became a key set (commit 317944b).
//!
//! The key set decides *which* rows are hot exactly as the decoded-row
//! cache did — same placement, same LRU victims, same invalidations —
//! so on one fixed stream of bags, row updates, prefetches and a
//! cache-only window, every `StoreStats` field must equal what that
//! commit counted and every output bit must match. The one thing that
//! moves is the decode tally: a hot hit now decodes from the shard, so
//! `decode_vector + decode_scalar` is the old value plus the old
//! `cache_hits`. `PARENT` below was printed by this same driver on a
//! checkout of that commit.

use std::sync::Arc;

use drec_store::{
    ColdReadModel, EmbeddingStore, Pacing, PinnedTable, RowEncoding, StoreConfig, StoreStats,
    TierConfig,
};

const TABLES: [(usize, usize); 2] = [(512, 32), (320, 16)];
const OPS: usize = 600;
/// Ops during which the store is in cache-only degraded mode.
const CACHE_ONLY: std::ops::Range<usize> = 300..360;

/// xorshift64*: the stream must not depend on the platform or on a
/// float library, so everything below is integer arithmetic.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Zipf (s = 1) over `0..rows` by inverse CDF on integer weights
/// `2^32 / (rank + 1)`.
struct Zipf(Vec<u64>);

impl Zipf {
    fn new(rows: usize) -> Zipf {
        let mut total = 0u64;
        Zipf(
            (0..rows as u64)
                .map(|rank| {
                    total += (1u64 << 32) / (rank + 1);
                    total
                })
                .collect(),
        )
    }

    fn draw(&self, rng: &mut Rng) -> u32 {
        let u = rng.next() % self.0.last().expect("a table has rows");
        // Scatter the ranks so hot rows are not neighbours in a shard.
        let rank = self.0.partition_point(|&c| c <= u);
        (rank * 167 % self.0.len()) as u32
    }
}

fn config(encoding: RowEncoding, tiered: bool) -> StoreConfig {
    StoreConfig {
        encoding,
        cache_capacity_rows: 64,
        tier: tiered.then(|| TierConfig {
            admit_after: 2,
            cold_read: ColdReadModel {
                pacing: Pacing::Charge,
                seed: 16,
                ..ColdReadModel::default()
            },
            ..TierConfig::new(96)
        }),
        ..StoreConfig::default()
    }
}

fn fnv(hash: &mut u64, values: &[f32]) {
    for v in values {
        *hash = (*hash ^ u64::from(v.to_bits())).wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Drives the fixed stream and returns the final stats and a hash of
/// every output bit produced along the way.
fn drive(encoding: RowEncoding, tiered: bool) -> (StoreStats, u64) {
    let store = Arc::new(EmbeddingStore::new(config(encoding, tiered)));
    let pins: Vec<PinnedTable> = TABLES
        .iter()
        .enumerate()
        .map(|(ordinal, &(rows, dim))| {
            let data: Vec<f32> = (0..rows * dim)
                .map(|i| ((i * 37 % 1013) as f32) * 0.004 - 2.0)
                .collect();
            store.pin(
                store
                    .register(7, ordinal as u32, rows, dim, &data)
                    .expect("register"),
            )
        })
        .collect();
    let zipfs: Vec<Zipf> = TABLES.iter().map(|&(rows, _)| Zipf::new(rows)).collect();
    let mut rng = Rng(0x5EED_0016);
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for op in 0..OPS {
        if op == CACHE_ONLY.start || op == CACHE_ONLY.end {
            store.set_cache_only(op == CACHE_ONLY.start);
        }
        let t = (rng.next() % 2) as usize;
        let (pin, zipf, dim) = (&pins[t], &zipfs[t], TABLES[t].1);
        let bag: Vec<u32> = (0..1 + rng.next() % 24)
            .map(|_| zipf.draw(&mut rng))
            .collect();
        if op % 37 == 36 {
            let row = bag[0];
            let values: Vec<f32> = (0..dim).map(|d| (op + d) as f32 * 0.125 - 9.0).collect();
            pin.update_row(row, &values).expect("update_row");
        }
        if op % 11 == 10 {
            // 317944b chose the rows to fill before filling any (its
            // intent pass), so a row the list's own fills evict is not
            // filled again.
            let mut ahead: Vec<u32> = (0..8).map(|_| zipf.draw(&mut rng)).collect();
            ahead.retain(|&row| !pin.is_resident(row));
            pin.prefetch_rows(&ahead);
        }
        if op % 3 == 0 {
            let mut out = vec![0.5f32; bag.len() * dim];
            pin.read_rows(bag.iter().copied(), &mut out);
            fnv(&mut hash, &out);
        } else {
            let mut acc = vec![0.25f32; dim];
            pin.sum_rows(bag.iter().copied(), &mut acc);
            fnv(&mut hash, &acc);
        }
    }
    (store.stats(), hash)
}

const PARENT_CACHE_HITS: u64 = 3582;
const PARENT_DECODES: u64 = 3506;

/// What 317944b counted, with the two decode tallies (compared apart,
/// as a sum) zeroed. Only `resident_bytes` depends on the encoding and
/// only the tier and prefetch counters on the tier; the update-batch
/// counters are not exercised. A struct literal, so a new
/// `StoreStats` field is a compile error here, not an unchecked
/// counter.
fn parent_stats(resident_bytes: u64, tiered: bool) -> StoreStats {
    let tier = |count: u64| if tiered { count } else { 0 };
    StoreStats {
        tables: 2,
        rows: 832,
        resident_bytes,
        f32_bytes: 86016,
        lookups: 7489,
        cache_hits: PARENT_CACHE_HITS,
        cache_misses: 3907,
        cache_evictions: 3436,
        cache_resident_rows: 64,
        cache_capacity_rows: 64,
        cache_only_skips: 401,
        decode_vector: 0,
        decode_scalar: 0,
        tier_dram_budget_rows: tier(96),
        tier_dram_resident_rows: tier(96),
        tier_dram_hits: tier(1114),
        tier_cold_demand_reads: tier(2392),
        tier_promotions: tier(467),
        tier_evictions: tier(360),
        tier_demand_wait_nanos: tier(26_303_135),
        tier_prefetch_wait_nanos: tier(1_748_762),
        prefetch_issued: tier(159),
        prefetch_fills: tier(159),
        prefetch_hits: tier(73),
        prefetch_wasted: tier(74),
        prefetch_aborted_stale: 0,
        tier_invalidations: tier(11),
        update_batches_applied: 0,
        update_rows_applied: 0,
        update_rows_retired: 0,
        update_rollbacks: 0,
        update_duplicates_rejected: 0,
        update_publish_delays: 0,
    }
}

/// Encoding, the parent's `resident_bytes`, the parent's output hash.
const LEGS: [(RowEncoding, u64, u64); 3] = [
    (RowEncoding::F32, 86016, 0x350F_1A13_2C1A_52FF),
    (RowEncoding::F16, 43008, 0xEB5B_E71F_D5D2_D919),
    (RowEncoding::Int8, 28160, 0x8AA8_1BD1_B1E1_5544),
];

#[test]
fn every_counter_and_output_bit_matches_the_decoded_row_cache() {
    for (encoding, resident_bytes, parent_hash) in LEGS {
        for tiered in [false, true] {
            let (mut stats, hash) = drive(encoding, tiered);
            let leg = format!("{encoding} tiered={tiered}");
            assert_eq!(
                stats.decode_vector + stats.decode_scalar,
                PARENT_DECODES + PARENT_CACHE_HITS,
                "{leg}: decodes must be the parent's plus one per hot hit"
            );
            (stats.decode_vector, stats.decode_scalar) = (0, 0);
            assert_eq!(
                stats,
                parent_stats(resident_bytes, tiered),
                "{leg}: a counter moved"
            );
            assert_eq!(hash, parent_hash, "{leg}: an output bit moved");
        }
    }
}
