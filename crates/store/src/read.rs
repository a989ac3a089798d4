//! The read path: [`PinnedTable`] and the one row-read routine,
//! `read_bag` — a residency phase (on a tiered store under one tier
//! session), then a decode phase under one guard per shard and no tier
//! lock — with its per-bag counter tally, plus the prefetch fills.

use std::sync::Arc;

use drec_faultsim::ReadFault;
use drec_sync::atomic::Ordering;
use drec_tensor::simd;
use drec_tier::TierSession;

use crate::encoding::{EncodedRow, RowData};
use crate::registry::{row_key, EmbeddingStore, StoreError, StoredTable, TableHandle, MAX_SHARDS};

/// A pinned reference to one table in a store — the hot-path lookup API.
#[derive(Debug, Clone)]
pub struct PinnedTable {
    pub(crate) store: Arc<EmbeddingStore>,
    pub(crate) table: Arc<StoredTable>,
    pub(crate) handle: TableHandle,
}

impl PinnedTable {
    /// Row width of the pinned table.
    pub fn dim(&self) -> usize {
        self.table.dim
    }

    /// Copies row `row` straight from its shard into `dst`, bypassing
    /// the hot-row key set, the tier model, fault injection, and every
    /// counter — the quiet path the updater uses to capture pre-update
    /// rows for its quiescence oracle.
    ///
    /// # Errors
    ///
    /// [`StoreError::RowOutOfRange`] or [`StoreError::DataSizeMismatch`].
    pub fn read_row_raw(&self, row: u32, dst: &mut [f32]) -> Result<(), StoreError> {
        self.table.check_row(row)?;
        if dst.len() != self.table.dim {
            return Err(StoreError::DataSizeMismatch {
                expected: self.table.dim,
                actual: dst.len(),
            });
        }
        let (s, r) = self.table.locate(row);
        let shard = self.table.shards[s].read();
        shard.decode_into(r, self.table.dim, dst);
        Ok(())
    }

    /// Captures row `row`'s resident bytes, as quietly as
    /// [`PinnedTable::read_row_raw`] — what the updater keeps so its
    /// final version can put every perturbed row back byte for byte
    /// ([`EmbeddingStore::apply_restore`]).
    ///
    /// # Errors
    ///
    /// [`StoreError::RowOutOfRange`].
    pub fn read_row_encoded(&self, row: u32) -> Result<EncodedRow, StoreError> {
        self.table.check_row(row)?;
        let (s, r) = self.table.locate(row);
        Ok(self.table.shards[s].read().copy_row(r, self.table.dim))
    }

    /// Cache key for a row of this table.
    pub(crate) fn key(&self, row: u32) -> u64 {
        row_key(self.handle.0, row)
    }

    /// The one row-read routine: reads `rows` in order as a single
    /// **bag transaction**, in two phases.
    ///
    /// *Residency* for every row first, what a one-row read always did
    /// before its decode and in the same order: the hot-row key probe;
    /// for a row that is not hot the fault hook and the cache-only
    /// check (in that degraded mode the row is skipped — it adds
    /// nothing to a sum, reads as zeros in a copy — and counted as a
    /// quality-loss skip), the tier demand access (a resident row is
    /// free, a cold row pays the configured cold-read latency and gets
    /// promoted) and the key insert. A tiered store runs the phase
    /// under one tier session, taken at the first row that is not hot
    /// and released when the phase ends, or before an injected delay
    /// sleeps.
    ///
    /// Then the *decodes*, hot or not, with no tier lock held, under one
    /// read guard per shard the rows live in, taken in ascending order and
    /// held to the bag's end (DESIGN.md §12 has the lock order). The iterator
    /// is walked once per phase; the second walk needs from the first
    /// only those shards and the positions cache-only mode skipped —
    /// none outside that mode, so no bag allocates. Residency
    /// never depends on a row's bytes and a decode never touches
    /// residency, so values and every `StoreStats` counter come out as
    /// from that many one-row calls; `lookups`, the hit and the decode
    /// tallies are bumped once per bag.
    ///
    /// At row `i` each phase hints row `i + PREFETCH_AHEAD` on its way
    /// (its tier record once the session is open, then its encoded
    /// bytes): a hint changes no value and no counter.
    ///
    /// `op` says where a row goes: summed into the whole of `out`, or
    /// copied to the row's own `dim`-wide cell of `out`.
    fn read_bag(&self, rows: impl Iterator<Item = u32> + Clone, out: &mut [f32], op: BagOp) {
        let store = &*self.store;
        let table = &*self.table;
        let dim = table.dim;
        let mut tally = BagTally::new(store);
        let mut skipped: Vec<usize> = Vec::new();
        // Bit `s`: shard `s` holds a row of the bag.
        let mut touched = 0u64;
        {
            let mut tier: Option<TierSession<'_>> = None;
            let mut ahead = rows.clone().skip(PREFETCH_AHEAD).map(|row| self.key(row));
            for (i, row) in rows.clone().enumerate() {
                debug_assert!((row as usize) < table.rows);
                touched |= 1 << table.locate(row).0;
                if let Some(record) = ahead.next().and_then(|key| tier.as_ref()?.record(key)) {
                    simd::prefetch(record);
                }
                tally.lookups += 1;
                let key = self.key(row);
                // A hot row is DRAM by definition: the tier is not consulted.
                if store.cache.touch(key) {
                    tally.cache_hits += 1;
                    continue;
                }
                match store.faults.on_read() {
                    ReadFault::None => {}
                    ReadFault::Poison { read } => panic!(
                        "faultsim: poisoned read {read} (table {}, row {row})",
                        self.handle.0
                    ),
                    // The tier lock is never held across a sleep.
                    ReadFault::Delay(d) => {
                        tier = None;
                        std::thread::sleep(d);
                    }
                }
                if store.cache_only.load(Ordering::Relaxed) {
                    tally.cache_only_skips += 1;
                    skipped.push(i);
                    continue;
                }
                if let Some(engine) = &store.tier {
                    tier.get_or_insert_with(|| engine.session())
                        .demand_access(key);
                }
                store.cache.insert(key);
            }
        }
        let mut shards = HeldShards {
            held: 0,
            guards: [const { std::mem::MaybeUninit::uninit() }; MAX_SHARDS],
        };
        while shards.held != touched {
            let s = (touched & !shards.held).trailing_zeros() as usize;
            shards.guards[s].write(table.shards[s].read());
            shards.held |= 1 << s;
        }
        let mut ahead = rows.clone().skip(PREFETCH_AHEAD);
        let mut skipped = skipped.into_iter();
        let mut next_skip = skipped.next();
        for (i, row) in rows.enumerate() {
            if let Some((data, r)) = ahead.next().and_then(|next| shards.row(table.locate(next))) {
                data.prefetch(r, dim);
            }
            let cell = i * dim..(i + 1) * dim;
            if next_skip == Some(i) {
                next_skip = skipped.next();
                if op == BagOp::Copy {
                    out[cell].fill(0.0);
                }
                continue;
            }
            let (data, r) = shards.row(table.locate(row)).expect("its shard is held");
            match op {
                BagOp::Sum => data.sum_into(r, dim, out),
                BagOp::Copy => data.decode_into(r, dim, &mut out[cell]),
            }
            tally.decodes += 1;
        }
    }

    /// Adds every row of the bag `rows` element-wise into `acc`, in
    /// order (`acc[i] += row[i]`, left to right — the identical
    /// reduction a dense-tensor lookup performs, so the `F32` encoding
    /// is bit-identical to the direct path). One residency transaction
    /// for the whole bag; values and counters equal those of one
    /// [`PinnedTable::sum_row`] call per row. In cache-only degraded mode
    /// the contribution of a row that is not hot is dropped.
    ///
    /// # Panics
    ///
    /// Debug-asserts every `row < rows` and `acc.len() == dim`; callers
    /// validate indices before reaching the hot path.
    pub fn sum_rows(&self, rows: impl IntoIterator<Item = u32, IntoIter: Clone>, acc: &mut [f32]) {
        debug_assert_eq!(acc.len(), self.table.dim);
        self.read_bag(rows.into_iter(), acc, BagOp::Sum);
    }

    /// [`PinnedTable::sum_rows`] for a bag of one row.
    pub fn sum_row(&self, row: u32, acc: &mut [f32]) {
        self.sum_rows([row], acc);
    }

    /// Copies the bag `rows` into `dst`, row `i` to
    /// `dst[i * dim..(i + 1) * dim]`, as one residency transaction. In
    /// cache-only degraded mode a row that is not hot reads as zeros.
    ///
    /// # Panics
    ///
    /// If `rows` yields more rows than `dst` has `dim`-wide cells;
    /// debug-asserts every `row < rows`.
    pub fn read_rows(&self, rows: impl IntoIterator<Item = u32, IntoIter: Clone>, dst: &mut [f32]) {
        debug_assert!(dst.len().is_multiple_of(self.table.dim));
        self.read_bag(rows.into_iter(), dst, BagOp::Copy);
    }

    /// [`PinnedTable::read_rows`] for a bag of one row (`dst` of length
    /// `dim`).
    pub fn read_row(&self, row: u32, dst: &mut [f32]) {
        debug_assert_eq!(dst.len(), self.table.dim);
        self.read_rows([row], dst);
    }

    /// Prefetches `rows` under one tier lock: each fill pays the
    /// cold-read latency *off* the request critical path and promotes
    /// its row into the DRAM tier. A fill moves only the
    /// prefetch counters — it is not a demand decode
    /// (`decodes` stays put, the hot-row key set is
    /// untouched) because a tier promotion moves encoded bytes and
    /// decodes nothing. Rows out of range or already resident are
    /// skipped — so is a row named twice, by the first fill's insert;
    /// no-op without tiering. Returns how many rows it made resident.
    pub fn prefetch_rows(&self, rows: &[u32]) -> usize {
        let Some(tier) = &self.store.tier else {
            return 0;
        };
        let table = &self.table;
        let mut session = tier.session();
        let mut filled = 0;
        for &row in rows.iter().filter(|&&row| (row as usize) < table.rows) {
            // Capture the table's write stamp before the fill and
            // re-verify it under the tier lock: a row update that lands
            // between capture and fill bumps the stamp first, so the
            // fill aborts instead of parking the row's pre-update state
            // as resident (and the update's own invalidation cannot race
            // past an already-parked stale fill, because the verify and
            // the invalidation serialize on the same lock). The session
            // holds that lock from the capture on, except while a
            // `Pacing::Sleep` fill sleeps — the window the verify covers.
            let stamp = table.write_stamp.load(Ordering::Acquire);
            filled += usize::from(session.prefetch_fill_if(self.key(row), || {
                table.write_stamp.load(Ordering::Acquire) == stamp
            }));
        }
        filled
    }

    /// [`PinnedTable::prefetch_rows`] for one row.
    pub fn prefetch_row(&self, row: u32) {
        self.prefetch_rows(&[row]);
    }

    /// Whether `row` is currently DRAM-resident (always `true` without
    /// tiering).
    pub fn is_resident(&self, row: u32) -> bool {
        match &self.store.tier {
            Some(tier) => tier.is_resident(self.key(row)),
            None => true,
        }
    }
}

/// How far ahead of its row each phase of [`PinnedTable::read_bag`] hints.
const PREFETCH_AHEAD: usize = 8;

/// A bag's shard read guards, on its stack: `guards[s]` is live while
/// bit `s` of `held` is set.
struct HeldShards<G> {
    held: u64,
    guards: [std::mem::MaybeUninit<G>; MAX_SHARDS],
}

impl<G: std::ops::Deref<Target = RowData>> HeldShards<G> {
    /// Shard `s`'s rows and `r`, if its guard is held.
    fn row(&self, (s, r): (usize, usize)) -> Option<(&RowData, usize)> {
        // SAFETY: a set bit marks a guard written and not yet dropped.
        (s < MAX_SHARDS && self.held >> s & 1 == 1)
            .then(|| (&**unsafe { self.guards[s].assume_init_ref() }, r))
    }
}

impl<G> Drop for HeldShards<G> {
    fn drop(&mut self) {
        while self.held != 0 {
            let s = self.held.trailing_zeros() as usize;
            self.held &= self.held - 1;
            // SAFETY: as in `row`; the bit is cleared first.
            unsafe { self.guards[s].assume_init_drop() };
        }
    }
}

/// Where [`PinnedTable::read_bag`] puts each row it reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BagOp {
    /// `out[i] += row[i]` for every row: a pooled lookup.
    Sum,
    /// Row `k` of the bag is copied to `out[k * dim..(k + 1) * dim]`.
    Copy,
}

/// A bag's counter deltas, added to the store's shared (cache-line
/// padded, contended) atomics once when the bag ends — also when it
/// ends by unwinding out of an injected poisoned read, having counted
/// the lookup and decoded nothing. Misses and the decodes' backend are
/// worked out when a snapshot is taken ([`EmbeddingStore::stats`]).
struct BagTally<'a> {
    store: &'a EmbeddingStore,
    lookups: u64,
    cache_hits: u64,
    decodes: u64,
    cache_only_skips: u64,
}

impl<'a> BagTally<'a> {
    fn new(store: &'a EmbeddingStore) -> Self {
        BagTally {
            store,
            lookups: 0,
            cache_hits: 0,
            decodes: 0,
            cache_only_skips: 0,
        }
    }
}

impl Drop for BagTally<'_> {
    fn drop(&mut self) {
        for (counter, delta) in [
            (&*self.store.lookups, self.lookups),
            (&*self.store.cache_hits, self.cache_hits),
            (&*self.store.decodes, self.decodes),
            (&self.store.cache_only_skips, self.cache_only_skips),
        ] {
            if delta > 0 {
                counter.fetch_add(delta, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{filled, store, tiered_cfg};
    use crate::{RowEncoding, StoreConfig};

    #[test]
    fn f32_sum_row_is_bit_identical_to_manual_add() {
        let s = store(StoreConfig {
            // Eight ways a set: the three rows cannot evict one another.
            cache_capacity_rows: 128,
            ..StoreConfig::default()
        });
        let data = filled(100, 8);
        let h = s.register(1, 0, 100, 8, &data).unwrap();
        let pin = s.pin(h);
        for pass in 0..2 {
            // Pass 0 makes the rows hot, pass 1 hits them — both must be
            // bit-identical to the direct add.
            for row in [0u32, 37, 99] {
                let mut acc = vec![0.125f32; 8];
                let mut expect = acc.clone();
                pin.sum_row(row, &mut acc);
                for (a, &v) in expect
                    .iter_mut()
                    .zip(&data[row as usize * 8..(row as usize + 1) * 8])
                {
                    *a += v;
                }
                assert_eq!(acc, expect, "pass {pass} row {row}");
            }
        }
        assert!(s.stats().cache_hits >= 3);
    }

    #[test]
    fn rows_span_shards_correctly() {
        // 100 rows over 8 shards → 13 rows/shard; exercise boundaries.
        let s = store(StoreConfig::default());
        let data = filled(100, 4);
        let h = s.register(1, 0, 100, 4, &data).unwrap();
        let pin = s.pin(h);
        let mut out = vec![0.0f32; 4];
        for row in [0u32, 12, 13, 25, 26, 64, 65, 99] {
            pin.read_row(row, &mut out);
            assert_eq!(out, &data[row as usize * 4..(row as usize + 1) * 4]);
        }
    }

    #[test]
    fn int8_store_compresses_and_stays_within_bound() {
        let s = store(StoreConfig {
            encoding: RowEncoding::Int8,
            ..StoreConfig::default()
        });
        let dim = 32;
        let data = filled(64, dim);
        let h = s.register(1, 0, 64, dim, &data).unwrap();
        let stats = s.stats();
        assert!(
            stats.compression() >= 3.0,
            "compression {} < 3.0",
            stats.compression()
        );
        assert_eq!(stats.bytes_saved(), stats.f32_bytes - stats.resident_bytes);
        let pin = s.pin(h);
        let mut out = vec![0.0f32; dim];
        for row in 0..64u32 {
            let src = &data[row as usize * dim..(row as usize + 1) * dim];
            let bound = RowEncoding::Int8.error_bound(src);
            pin.read_row(row, &mut out);
            for (o, x) in out.iter().zip(src) {
                assert!((o - x).abs() <= bound);
            }
        }
    }

    #[test]
    fn cache_only_mode_serves_hits_and_skips_cold_shards() {
        let s = store(StoreConfig {
            cache_capacity_rows: 8,
            ..StoreConfig::default()
        });
        let data = filled(10, 4);
        let h = s.register(1, 0, 10, 4, &data).unwrap();
        let pin = s.pin(h);
        let mut out = vec![0.0f32; 4];
        pin.read_row(3, &mut out); // warm row 3
        s.set_cache_only(true);
        assert!(s.cache_only());

        // Warm row: still served, bit-identical.
        pin.read_row(3, &mut out);
        assert_eq!(out, &data[12..16]);
        // Cold copy: zero-filled, counted as a quality-loss skip.
        pin.read_row(7, &mut out);
        assert_eq!(out, [0.0; 4]);
        // Cold pooled sum: contribution dropped, accumulator unchanged.
        let mut acc = vec![1.0f32; 4];
        pin.sum_row(8, &mut acc);
        assert_eq!(acc, [1.0; 4]);
        assert_eq!(s.stats().cache_only_skips, 2);

        // Leaving degraded mode restores full service.
        s.set_cache_only(false);
        pin.read_row(7, &mut out);
        assert_eq!(out, &data[28..32]);
        assert_eq!(s.stats().cache_only_skips, 2);
    }

    #[test]
    fn poisoned_read_panics_on_schedule_and_store_recovers() {
        use drec_faultsim::{FaultHook, FaultPlan};
        let plan = FaultPlan {
            poison_every_n_reads: Some(1), // every read panics
            ..FaultPlan::quiet(5)
        };
        let s = Arc::new(EmbeddingStore::with_faults(
            StoreConfig::default(),
            FaultHook::from_plan(&plan),
        ));
        let h = s.register(1, 0, 10, 4, &filled(10, 4)).unwrap();
        let pin = s.pin(h);
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut out = vec![0.0f32; 4];
            pin.read_row(0, &mut out);
        }));
        let msg = *res.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("faultsim: poisoned read"), "{msg}");
        // The panic fired before any lock was taken: stats still work.
        let stats = s.stats();
        assert_eq!(stats.tables, 1);
        // The bag unwound after its lookup and before any decode: the
        // two counts differ, so neither is worked out from the other.
        assert_eq!(stats.lookups, 1);
        assert_eq!(stats.decode_vector + stats.decode_scalar, 0);
    }

    #[test]
    fn tiered_lookups_are_bit_identical_and_charge_cold_waits() {
        let data = filled(100, 8);
        let plain = store(StoreConfig::default());
        let tiered = store(tiered_cfg(10));
        let hp = plain.register(1, 0, 100, 8, &data).unwrap();
        let ht = tiered.register(1, 0, 100, 8, &data).unwrap();
        let (pp, pt) = (plain.pin(hp), tiered.pin(ht));
        let mut a = vec![0.5f32; 8];
        let mut b = vec![0.5f32; 8];
        for row in [0u32, 7, 7, 42, 99, 7] {
            pp.sum_row(row, &mut a);
            pt.sum_row(row, &mut b);
        }
        assert_eq!(a, b, "tier residency must never change values");
        let s = tiered.stats();
        // 4 distinct rows cold, 2 repeats resident.
        assert_eq!(s.tier_cold_demand_reads, 4);
        assert_eq!(s.tier_dram_hits, 2);
        assert_eq!(s.tier_promotions, 4);
        assert!(s.tier_demand_wait_nanos > 0);
        assert!((s.combined_dram_hit_rate() - 2.0 / 6.0).abs() < 1e-12);
        assert_eq!(plain.stats().tier_cold_demand_reads, 0);
        assert!((plain.stats().combined_dram_hit_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn prefetch_fills_convert_demand_misses_without_decoding() {
        let s = store(tiered_cfg(50));
        let h = s.register(1, 0, 100, 4, &filled(100, 4)).unwrap();
        let pin = s.pin(h);
        for row in [3u32, 4, 5] {
            pin.prefetch_row(row);
            assert!(pin.is_resident(row));
        }
        let after_fill = s.stats();
        assert_eq!(after_fill.prefetch_fills, 3);
        assert_eq!(
            after_fill.decode_vector + after_fill.decode_scalar,
            0,
            "a prefetch fill moves encoded bytes, not a demand decode"
        );
        assert!(after_fill.tier_prefetch_wait_nanos > 0);
        assert_eq!(after_fill.tier_demand_wait_nanos, 0);
        let mut acc = vec![0.0f32; 4];
        for row in [3u32, 4, 5] {
            pin.sum_row(row, &mut acc);
        }
        let s2 = s.stats();
        assert_eq!(s2.prefetch_hits, 3);
        assert_eq!(s2.tier_cold_demand_reads, 0);
        assert!((s2.prefetch_conversion() - 1.0).abs() < 1e-12);
        // The demand decodes still happened (kernel work is real).
        assert_eq!(s2.decode_vector + s2.decode_scalar, 3);
    }

    #[test]
    fn read_row_raw_bypasses_cache_and_counters() {
        let s = store(StoreConfig {
            cache_capacity_rows: 8,
            ..StoreConfig::default()
        });
        let data = filled(4, 2);
        let h = s.register(7, 0, 4, 2, &data).unwrap();
        let pin = s.pin(h);
        let mut out = vec![0.0f32; 2];
        pin.read_row_raw(2, &mut out).unwrap();
        assert_eq!(out, &data[4..6]);
        let stats = s.stats();
        assert_eq!((stats.lookups, stats.cache_misses), (0, 0));
        assert_eq!(
            pin.read_row_raw(9, &mut out),
            Err(StoreError::RowOutOfRange { row: 9, rows: 4 })
        );
        let mut short = vec![0.0f32; 1];
        assert_eq!(
            pin.read_row_raw(0, &mut short),
            Err(StoreError::DataSizeMismatch {
                expected: 2,
                actual: 1
            })
        );
    }
}
