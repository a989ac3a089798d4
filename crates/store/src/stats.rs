//! [`StoreStats`]: the point-in-time counter and gauge snapshot of an
//! [`EmbeddingStore`], and the ratios derived from it.

use drec_sync::atomic::Ordering;
use drec_tensor::simd::{active_backend, KernelBackend};

use crate::registry::EmbeddingStore;

impl EmbeddingStore {
    /// Point-in-time counters and gauges.
    pub fn stats(&self) -> StoreStats {
        let registry = self.registry.read();
        let mut rows = 0u64;
        let mut resident_bytes = 0u64;
        let mut f32_bytes = 0u64;
        for t in &registry.tables {
            rows += t.rows as u64;
            resident_bytes += t.resident_bytes();
            f32_bytes += (t.rows * t.dim * 4) as u64;
        }
        let tier = self.tier.as_ref().map(|t| t.stats()).unwrap_or_default();
        let lookups = self.lookups.load(Ordering::Relaxed);
        let cache_hits = self.cache_hits.load(Ordering::Relaxed);
        // With a key set, every lookup that was not a hit was a miss. The
        // two loads are not one read: a bag that commits between them
        // can leave the snapshot more hits than lookups.
        let cache_misses = if self.cache.enabled() {
            lookups.saturating_sub(cache_hits)
        } else {
            0
        };
        // Every decode ran on the process's one backend.
        let decodes = self.decodes.load(Ordering::Relaxed);
        let (decode_vector, decode_scalar) = match active_backend() {
            KernelBackend::Avx2Fma => (decodes, 0),
            KernelBackend::Scalar => (0, decodes),
        };
        let update_rows_applied = self.update_rows_applied.load(Ordering::Relaxed);
        StoreStats {
            tables: registry.tables.len(),
            rows,
            resident_bytes,
            f32_bytes,
            lookups,
            cache_hits,
            cache_misses,
            cache_evictions: self.cache.evictions(),
            cache_resident_rows: self.cache.resident_rows(),
            cache_capacity_rows: self.cache.capacity_rows() as u64,
            cache_only_skips: self.cache_only_skips.load(Ordering::Relaxed),
            decode_vector,
            decode_scalar,
            tier_dram_budget_rows: tier.dram_budget_rows,
            tier_dram_resident_rows: tier.dram_resident_rows,
            tier_dram_hits: tier.dram_hits,
            tier_cold_demand_reads: tier.cold_demand_reads,
            tier_promotions: tier.promotions,
            tier_evictions: tier.evictions,
            tier_demand_wait_nanos: tier.demand_wait_nanos,
            tier_prefetch_wait_nanos: tier.prefetch_wait_nanos,
            prefetch_issued: tier.prefetch_issued,
            prefetch_fills: tier.prefetch_fills,
            prefetch_hits: tier.prefetch_hits,
            prefetch_wasted: tier.prefetch_wasted,
            prefetch_aborted_stale: tier.prefetch_aborted_stale,
            tier_invalidations: tier.invalidations,
            update_batches_applied: self.update_batches_applied.load(Ordering::Relaxed),
            update_rows_applied,
            update_rows_retired: update_rows_applied,
            update_rollbacks: self.update_rollbacks.load(Ordering::Relaxed),
            update_duplicates_rejected: self.update_duplicates_rejected.load(Ordering::Relaxed),
            update_publish_delays: self.update_publish_delays.load(Ordering::Relaxed),
            update_synchronizations: self.epoch.synchronizations(),
            pinned_readers: self.epoch.pinned_readers(),
        }
    }
}

/// Counters and gauges snapshot for an [`EmbeddingStore`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreStats {
    /// Registered tables.
    pub tables: usize,
    /// Total rows across all tables.
    pub rows: u64,
    /// Bytes resident in the configured encoding.
    pub resident_bytes: u64,
    /// Bytes the same tables would occupy in plain f32.
    pub f32_bytes: u64,
    /// Row lookups served (sum + copy).
    pub lookups: u64,
    /// Lookups that found their row in the hot-row key set.
    pub cache_hits: u64,
    /// Lookups that did not, while the key set is enabled (0 when it is
    /// disabled): `lookups − cache_hits`, worked out at the snapshot.
    pub cache_misses: u64,
    /// Keys evicted from the hot-row key set.
    pub cache_evictions: u64,
    /// Keys currently in the hot-row key set.
    pub cache_resident_rows: u64,
    /// Capacity of the hot-row key set.
    pub cache_capacity_rows: u64,
    /// Reads of rows that were not hot, skipped while in cache-only
    /// degraded mode — the store's quality-loss counter: each skip
    /// dropped one row's contribution from a pooled lookup (or
    /// zero-filled a copy).
    pub cache_only_skips: u64,
    /// Row decodes served by the vector (AVX2/FMA) kernels. Every row
    /// read that is not skipped is one decode, hot or not. The store
    /// counts decodes once; all of them land here when the process's
    /// [`active_backend`] is `Avx2Fma`, and in `decode_scalar` otherwise.
    pub decode_vector: u64,
    /// Row decodes served by the portable scalar kernels.
    pub decode_scalar: u64,
    /// Configured DRAM hot-tier budget, rows (0 without tiering).
    pub tier_dram_budget_rows: u64,
    /// Rows currently DRAM-resident in the tier (gauge).
    pub tier_dram_resident_rows: u64,
    /// Demand accesses that found their row DRAM-resident.
    pub tier_dram_hits: u64,
    /// Demand accesses that paid a simulated cold-tier (SSD) read —
    /// counted separately from `decode_vector`/`decode_scalar`: a cold
    /// *read* is the modelled byte transfer, a *decode* is the kernel
    /// work, and one access can involve both, either, or neither.
    pub tier_cold_demand_reads: u64,
    /// Rows promoted into the DRAM tier (demand + prefetch).
    pub tier_promotions: u64,
    /// Rows evicted from the DRAM tier.
    pub tier_evictions: u64,
    /// Cold-read nanoseconds charged on the demand (request-critical)
    /// path.
    pub tier_demand_wait_nanos: u64,
    /// Cold-read nanoseconds charged to prefetch fills (overlapped).
    pub tier_prefetch_wait_nanos: u64,
    /// Prefetch fills started on a row that was not DRAM-resident.
    pub prefetch_issued: u64,
    /// Prefetch fills that promoted a row — never counted as demand
    /// decodes (a fill moves encoded bytes between tiers, no kernel
    /// runs).
    pub prefetch_fills: u64,
    /// Demand accesses served by a still-unused prefetched row.
    pub prefetch_hits: u64,
    /// Prefetched rows evicted before any demand use.
    pub prefetch_wasted: u64,
    /// Prefetch fills that parked nothing because, while the read was
    /// under way, the row was rewritten (each such abort is a stale
    /// parking the update/prefetch race would otherwise have caused) or
    /// became resident. Every issued fill is a fill or one of these.
    pub prefetch_aborted_stale: u64,
    /// Tier residency invalidations from row updates.
    pub tier_invalidations: u64,
    /// Update batches applied and published ([`EmbeddingStore::apply_update`]).
    pub update_batches_applied: u64,
    /// Rows rewritten by applied update batches.
    pub update_rows_applied: u64,
    /// Equal to `update_rows_applied`: kept under its old name. Rows
    /// are rewritten in place, and no copy of one is retired later.
    pub update_rows_retired: u64,
    /// Update batches aborted whole, before any row moved (injected
    /// crash mid-batch).
    pub update_rollbacks: u64,
    /// Duplicate (already-published) update batches rejected.
    pub update_duplicates_rejected: u64,
    /// Injected publish delays honored mid-update.
    pub update_publish_delays: u64,
    /// Epoch synchronizations completed: a serving updater's, one per
    /// version posted. The store's own write path makes none.
    pub update_synchronizations: u64,
    /// Readers currently pinned into the update epoch (gauge; racy).
    pub pinned_readers: u64,
}

impl StoreStats {
    /// Counter deltas since `base` (gauges — table/row/byte totals and
    /// cache occupancy — keep their current values).
    pub fn since(&self, base: &StoreStats) -> StoreStats {
        StoreStats {
            lookups: self.lookups.saturating_sub(base.lookups),
            cache_hits: self.cache_hits.saturating_sub(base.cache_hits),
            cache_misses: self.cache_misses.saturating_sub(base.cache_misses),
            cache_evictions: self.cache_evictions.saturating_sub(base.cache_evictions),
            cache_only_skips: self.cache_only_skips.saturating_sub(base.cache_only_skips),
            decode_vector: self.decode_vector.saturating_sub(base.decode_vector),
            decode_scalar: self.decode_scalar.saturating_sub(base.decode_scalar),
            tier_dram_hits: self.tier_dram_hits.saturating_sub(base.tier_dram_hits),
            tier_cold_demand_reads: self
                .tier_cold_demand_reads
                .saturating_sub(base.tier_cold_demand_reads),
            tier_promotions: self.tier_promotions.saturating_sub(base.tier_promotions),
            tier_evictions: self.tier_evictions.saturating_sub(base.tier_evictions),
            tier_demand_wait_nanos: self
                .tier_demand_wait_nanos
                .saturating_sub(base.tier_demand_wait_nanos),
            tier_prefetch_wait_nanos: self
                .tier_prefetch_wait_nanos
                .saturating_sub(base.tier_prefetch_wait_nanos),
            prefetch_issued: self.prefetch_issued.saturating_sub(base.prefetch_issued),
            prefetch_fills: self.prefetch_fills.saturating_sub(base.prefetch_fills),
            prefetch_hits: self.prefetch_hits.saturating_sub(base.prefetch_hits),
            prefetch_wasted: self.prefetch_wasted.saturating_sub(base.prefetch_wasted),
            prefetch_aborted_stale: self
                .prefetch_aborted_stale
                .saturating_sub(base.prefetch_aborted_stale),
            tier_invalidations: self
                .tier_invalidations
                .saturating_sub(base.tier_invalidations),
            update_batches_applied: self
                .update_batches_applied
                .saturating_sub(base.update_batches_applied),
            update_rows_applied: self
                .update_rows_applied
                .saturating_sub(base.update_rows_applied),
            update_rows_retired: self
                .update_rows_retired
                .saturating_sub(base.update_rows_retired),
            update_rollbacks: self.update_rollbacks.saturating_sub(base.update_rollbacks),
            update_duplicates_rejected: self
                .update_duplicates_rejected
                .saturating_sub(base.update_duplicates_rejected),
            update_publish_delays: self
                .update_publish_delays
                .saturating_sub(base.update_publish_delays),
            update_synchronizations: self
                .update_synchronizations
                .saturating_sub(base.update_synchronizations),
            ..self.clone()
        }
    }

    /// Fraction of row decodes that ran on the vector kernels
    /// (0 when nothing was decoded) — the kernel-backend mix for a run.
    pub fn vector_decode_fraction(&self) -> f64 {
        let total = self.decode_vector + self.decode_scalar;
        if total == 0 {
            0.0
        } else {
            self.decode_vector as f64 / total as f64
        }
    }

    /// Hot-row hit rate over the accesses in this snapshot (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Bytes saved versus plain f32 storage.
    pub fn bytes_saved(&self) -> u64 {
        self.f32_bytes.saturating_sub(self.resident_bytes)
    }

    /// f32 bytes over resident bytes (1.0 for an empty store).
    pub fn compression(&self) -> f64 {
        if self.resident_bytes == 0 {
            1.0
        } else {
            self.f32_bytes as f64 / self.resident_bytes as f64
        }
    }

    /// Combined DRAM hit rate: the fraction of all row lookups served
    /// without a cold-tier read — hot-row hits and tier-resident decodes
    /// both count as DRAM. 1.0 without tiering (everything is DRAM) or
    /// when idle.
    pub fn combined_dram_hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            1.0
        } else {
            1.0 - self.tier_cold_demand_reads as f64 / self.lookups as f64
        }
    }

    /// Fraction of would-be cold demand misses the prefetcher converted
    /// into DRAM hits: `prefetch_hits / (prefetch_hits +
    /// tier_cold_demand_reads)`. 0 when neither moved.
    pub fn prefetch_conversion(&self) -> f64 {
        let total = self.prefetch_hits + self.tier_cold_demand_reads;
        if total == 0 {
            0.0
        } else {
            self.prefetch_hits as f64 / total as f64
        }
    }

    /// Always 0: the share of lookups the table-combining cache saved,
    /// when the store had one. `perf_bench` reports it as
    /// `tier.combined_lookup_cut`; it is here until the next `benchmark`
    /// issue drops that row.
    pub fn combined_lookup_cut(&self) -> f64 {
        0.0
    }

    /// Mean cold-read wait charged per lookup on the demand path,
    /// nanoseconds (0 when idle).
    pub fn mean_demand_wait_nanos(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.tier_demand_wait_nanos as f64 / self.lookups as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::test_support::{filled, store};
    use crate::StoreConfig;

    #[test]
    fn stats_since_subtracts_counters_keeps_gauges() {
        let s = store(StoreConfig {
            cache_capacity_rows: 4,
            ..StoreConfig::default()
        });
        let h = s.register(1, 0, 10, 4, &filled(10, 4)).unwrap();
        let pin = s.pin(h);
        let mut acc = vec![0.0f32; 4];
        pin.sum_row(1, &mut acc);
        let base = s.stats();
        pin.sum_row(1, &mut acc); // hit
        pin.sum_row(2, &mut acc); // miss
        let delta = s.stats().since(&base);
        assert_eq!(delta.lookups, 2);
        assert_eq!(delta.cache_hits, 1);
        assert_eq!(delta.cache_misses, 1);
        assert_eq!(delta.rows, 10); // gauge: absolute, not delta
        assert!((delta.hit_rate() - 0.5).abs() < 1e-12);
    }
}
