//! The table registry: store configuration and errors, the row-range
//! shards of one table, and the handle-based `(namespace, ordinal)`
//! registry with its pin, lookup and namespace queries.

use std::collections::HashMap;
use std::sync::Arc;

use drec_faultsim::FaultHook;
use drec_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use drec_sync::{CachePadded, EpochGc, EpochGuard, Mutex, RwLock};
use drec_tensor::Divisor;
use drec_tier::{TierConfig, TierEngine};

use crate::cache::HotRowCache;
use crate::encoding::{EncodedRow, RowData, RowEncoding};
use crate::read::PinnedTable;
use crate::update::RowWrite;

/// Configuration for an [`EmbeddingStore`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// How rows are stored resident.
    pub encoding: RowEncoding,
    /// Row-range shards per table (each behind its own lock), at most
    /// 64: a larger count is clamped to it.
    pub shards_per_table: usize,
    /// Hot-row key set capacity in rows (0 disables it).
    pub cache_capacity_rows: usize,
    /// DRAM/SSD tiering (see [`drec_tier`]); `None` keeps the whole
    /// store DRAM-resident. Residency only decides latency charging and
    /// counters — values always decode from the same encoded shards, so
    /// outputs are bit-identical with tiering on or off.
    pub tier: Option<TierConfig>,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            encoding: RowEncoding::F32,
            shards_per_table: 8,
            cache_capacity_rows: 0,
            tier: None,
        }
    }
}

/// Lock shards inside the hot-row key set.
const CACHE_SHARDS: usize = 16;

/// Most shards a table is cut into: a bag's shards are one `u64` of bits.
pub(crate) const MAX_SHARDS: usize = 64;

/// Errors from store registration and row access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// A table must have at least one row and one column.
    EmptyTable {
        /// Requested row count.
        rows: usize,
        /// Requested row width.
        dim: usize,
    },
    /// The initial data slice doesn't match `rows * dim`.
    DataSizeMismatch {
        /// `rows * dim`.
        expected: usize,
        /// `data.len()` as provided.
        actual: usize,
    },
    /// A `(namespace, ordinal)` pair was re-registered with a different
    /// shape than the existing table.
    ShapeMismatch {
        /// Registration namespace.
        namespace: u64,
        /// Table ordinal within the namespace.
        ordinal: u32,
        /// Shape already registered, as `(rows, dim)`.
        existing: (usize, usize),
        /// Shape requested now, as `(rows, dim)`.
        requested: (usize, usize),
    },
    /// A row index past the end of the table.
    RowOutOfRange {
        /// Offending row index.
        row: u32,
        /// Table row count.
        rows: usize,
    },
    /// A `TableHandle` that does not name a registered table (stale or
    /// fabricated).
    UnknownTable {
        /// The offending handle's slot.
        handle: usize,
        /// Tables currently registered.
        tables: usize,
    },
    /// An update (or lookup) referenced a `(namespace, ordinal)` pair
    /// with no registered table.
    TableNotRegistered {
        /// Requested namespace.
        namespace: u64,
        /// Requested ordinal.
        ordinal: u32,
    },
    /// An update batch's target version is not `current + 1`: a replayed
    /// (duplicate) batch when `target <= current`, a gap otherwise.
    /// Either way the batch is rejected whole; the published state is
    /// untouched.
    VersionConflict {
        /// Update namespace.
        namespace: u64,
        /// Version currently published for the namespace.
        current: u64,
        /// Version the rejected batch targeted.
        target: u64,
    },
    /// An injected crash fired mid-batch: every row the batch had
    /// already rewritten was rolled back to its pre-batch value and the
    /// namespace version was left unchanged — the failed update is
    /// invisible.
    UpdateAborted {
        /// Update namespace.
        namespace: u64,
        /// Version the aborted batch targeted.
        target: u64,
        /// Rows that had been applied and were rolled back.
        rows_rolled_back: usize,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::EmptyTable { rows, dim } => {
                write!(f, "table shape {rows}x{dim} has a zero dimension")
            }
            StoreError::DataSizeMismatch { expected, actual } => {
                write!(f, "table data has {actual} elements, expected {expected}")
            }
            StoreError::ShapeMismatch {
                namespace,
                ordinal,
                existing,
                requested,
            } => write!(
                f,
                "table ({namespace:#x}, {ordinal}) already registered as \
                 {}x{}, requested {}x{}",
                existing.0, existing.1, requested.0, requested.1
            ),
            StoreError::RowOutOfRange { row, rows } => {
                write!(f, "row {row} out of range for table of {rows} rows")
            }
            StoreError::UnknownTable { handle, tables } => {
                write!(f, "handle {handle} does not name one of {tables} tables")
            }
            StoreError::TableNotRegistered { namespace, ordinal } => {
                write!(f, "no table registered for ({namespace:#x}, {ordinal})")
            }
            StoreError::VersionConflict {
                namespace,
                current,
                target,
            } => write!(
                f,
                "update for namespace {namespace:#x} targets v{target} but \
                 v{current} is published (want v{})",
                current + 1
            ),
            StoreError::UpdateAborted {
                namespace,
                target,
                rows_rolled_back,
            } => write!(
                f,
                "update to v{target} for namespace {namespace:#x} aborted; \
                 {rows_rolled_back} rows rolled back"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

/// Opaque handle to a registered table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TableHandle(pub usize);

/// One table: row-range shards, each independently lockable so a row
/// update never stalls readers of other shards.
#[derive(Debug)]
pub(crate) struct StoredTable {
    pub(crate) rows: usize,
    pub(crate) dim: usize,
    /// Rows per shard, the divisor of [`StoredTable::locate`].
    rows_per_shard: Divisor,
    pub(crate) shards: Vec<RwLock<RowData>>,
    /// Snapshot version last published for this table (batches advance
    /// it; a freshly registered table is v0).
    pub(crate) version: AtomicU64,
    /// Bumped on every row write, *before* the shard lock is taken. The
    /// prefetcher captures it when a fill starts and re-verifies under
    /// the residency lock, so a fill racing an update can never park
    /// pre-update state as resident (see `PinnedTable::prefetch_row`).
    pub(crate) write_stamp: AtomicU64,
}

impl StoredTable {
    fn new(
        encoding: RowEncoding,
        rows: usize,
        dim: usize,
        data: &[f32],
        shard_count: usize,
    ) -> Self {
        let shard_count = shard_count.clamp(1, MAX_SHARDS).min(rows);
        let rows_per_shard = rows.div_ceil(shard_count);
        // Whole shards of `rows_per_shard` rows and a shorter last one:
        // `div_ceil` can leave fewer shards than asked for.
        let shards = data
            .chunks(rows_per_shard * dim)
            .map(|rows| RwLock::new(RowData::encode(encoding, rows, dim)))
            .collect();
        StoredTable {
            rows,
            dim,
            rows_per_shard: Divisor::from(rows_per_shard),
            shards,
            version: AtomicU64::new(0),
            write_stamp: AtomicU64::new(0),
        }
    }

    /// [`StoreError::RowOutOfRange`] unless `row` is a row of this table.
    pub(crate) fn check_row(&self, row: u32) -> Result<(), StoreError> {
        if (row as usize) < self.rows {
            Ok(())
        } else {
            Err(StoreError::RowOutOfRange {
                row,
                rows: self.rows,
            })
        }
    }

    /// (shard index, row offset within shard) for a validated row.
    pub(crate) fn locate(&self, row: u32) -> (usize, usize) {
        let d = self.rows_per_shard;
        ((row / d) as usize, (row % d) as usize)
    }

    /// Rewrites `row` per `write` under the shard's write lock, then
    /// bumps the write stamp.
    pub(crate) fn write_row(&self, row: u32, write: RowWrite<'_>) {
        // Write first, stamp after. The order matters: a prefetch fill
        // captures the stamp, reads the row, and re-verifies the stamp
        // under the residency lock. Bumping *before* the write would let
        // a fill capture the post-bump stamp, read the pre-update bytes,
        // and pass its verify — parking stale state that the caller's
        // subsequent invalidation cannot reach if it runs before the
        // fill's insert (an interleaving the loom model
        // `prefetch_fill_verify_never_parks_stale_bytes` exhibits).
        // Write-then-bump closes it: a fill that read stale bytes either
        // sees the bump at verify time and aborts, or verified before
        // the bump — in which case the caller's invalidation (ordered
        // after this bump, under the same residency lock) removes it.
        let (s, r) = self.locate(row);
        {
            let mut shard = self.shards[s].write();
            match write {
                RowWrite::Values(values) => shard.write_row(r, self.dim, values),
                RowWrite::Encoded(encoded) => {
                    let restored = shard.restore_row(r, self.dim, encoded);
                    debug_assert!(restored, "encoding and width are validated by the caller");
                }
            }
        }
        self.write_stamp.fetch_add(1, Ordering::Release);
    }

    pub(crate) fn read_encoded(&self, row: u32) -> EncodedRow {
        let (s, r) = self.locate(row);
        self.shards[s].read().copy_row(r, self.dim)
    }

    pub(crate) fn resident_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.read().resident_bytes()).sum()
    }
}

/// The embedding parameter store. One instance is shared by every serving
/// worker; tables are registered once per `(namespace, ordinal)` and
/// deduplicated across workers, so N replicas of a model hold one copy of
/// the embedding parameters instead of N.
#[derive(Debug)]
pub struct EmbeddingStore {
    pub(crate) cfg: StoreConfig,
    pub(crate) tables: RwLock<Vec<Arc<StoredTable>>>,
    pub(crate) index: Mutex<HashMap<(u64, u32), usize>>,
    pub(crate) cache: HotRowCache,
    /// Hot counters live on their own cache lines: every worker bumps
    /// `lookups` on every embedding access, and unpadded neighbors would
    /// bounce a shared line between cores (see `drec_sync::CachePadded`).
    pub(crate) lookups: CachePadded<AtomicU64>,
    /// Lookups that found their row in the hot-row key set (none when
    /// the set is disabled); every other lookup with the set on was a
    /// miss, so misses are worked out when a snapshot is taken.
    pub(crate) cache_hits: CachePadded<AtomicU64>,
    /// Shard decodes. Every row read that is not skipped is one decode,
    /// hot or not: the shard holds the only copy. A snapshot attributes
    /// them to the process's kernel backend.
    pub(crate) decodes: CachePadded<AtomicU64>,
    pub(crate) faults: FaultHook,
    /// Degraded mode: serve only hot rows, skipping every other read
    /// (see [`EmbeddingStore::set_cache_only`]).
    pub(crate) cache_only: AtomicBool,
    pub(crate) cache_only_skips: AtomicU64,
    /// DRAM/SSD residency model (`StoreConfig::tier`).
    pub(crate) tier: Option<TierEngine>,
    /// Epoch cell the live-update protocol pins readers with. Readers
    /// pin once per coalesced batch; `apply_update` synchronizes against
    /// it before it reports the batch applied, so every reader that began
    /// before the publish has ended (DESIGN.md §14).
    pub(crate) epoch: EpochGc,
    /// Update batches applied and published.
    pub(crate) update_batches_applied: AtomicU64,
    /// Rows rewritten by applied update batches.
    pub(crate) update_rows_applied: AtomicU64,
    /// Update batches rolled back whole after an injected crash.
    pub(crate) update_rollbacks: AtomicU64,
    /// Duplicate (already-published) update batches rejected.
    pub(crate) update_duplicates_rejected: AtomicU64,
    /// Injected publish delays honored inside `apply_update`.
    pub(crate) update_publish_delays: AtomicU64,
}

impl EmbeddingStore {
    /// An empty store with the given configuration.
    pub fn new(cfg: StoreConfig) -> EmbeddingStore {
        Self::with_faults(cfg, FaultHook::disabled())
    }

    /// Like [`EmbeddingStore::new`] but threading a fault-injection hook
    /// through the row-read path: poisoned reads panic (as a genuinely
    /// poisoned shard lock would) and delayed reads stall — both before
    /// the shard lock is touched, so the store's real state stays
    /// consistent. With [`FaultHook::disabled`] this is identical to
    /// [`EmbeddingStore::new`].
    pub fn with_faults(cfg: StoreConfig, faults: FaultHook) -> EmbeddingStore {
        let cache = HotRowCache::new(cfg.cache_capacity_rows, CACHE_SHARDS);
        let tier = cfg.tier.as_ref().map(TierEngine::new);
        EmbeddingStore {
            cfg,
            tables: RwLock::new(Vec::new()),
            index: Mutex::new(HashMap::new()),
            cache,
            lookups: CachePadded::new(AtomicU64::new(0)),
            cache_hits: CachePadded::new(AtomicU64::new(0)),
            decodes: CachePadded::new(AtomicU64::new(0)),
            faults,
            cache_only: AtomicBool::new(false),
            cache_only_skips: AtomicU64::new(0),
            tier,
            epoch: EpochGc::new(),
            update_batches_applied: AtomicU64::new(0),
            update_rows_applied: AtomicU64::new(0),
            update_rollbacks: AtomicU64::new(0),
            update_duplicates_rejected: AtomicU64::new(0),
            update_publish_delays: AtomicU64::new(0),
        }
    }

    /// Enters or leaves cache-only degraded mode. While degraded, lookups
    /// of rows that are not in the hot-row key set are *skipped*: pooled
    /// sums simply omit the row's contribution and copies return zeros.
    /// Output quality degrades (every skip is counted in
    /// [`crate::StoreStats::cache_only_skips`]) but a lookup costs at
    /// most a probe and a DRAM decode — the overload ladder uses this as
    /// the last step before shedding. No-op when the key set is disabled
    /// (there would be nothing left to serve).
    pub fn set_cache_only(&self, degraded: bool) {
        if self.cache.enabled() {
            self.cache_only.store(degraded, Ordering::Relaxed);
        }
    }

    /// Whether the store is in cache-only degraded mode.
    pub fn cache_only(&self) -> bool {
        self.cache_only.load(Ordering::Relaxed)
    }

    /// Registers a `rows × dim` table under `(namespace, ordinal)`,
    /// encoding `data` into the store's row encoding. If the pair is
    /// already registered with the same shape the existing table's handle
    /// is returned and `data` is ignored — this is the dedup path that
    /// lets N identically seeded worker models share one parameter copy.
    ///
    /// # Errors
    ///
    /// [`StoreError::EmptyTable`], [`StoreError::DataSizeMismatch`], or
    /// [`StoreError::ShapeMismatch`] on a dedup hit with a different
    /// shape.
    pub fn register(
        &self,
        namespace: u64,
        ordinal: u32,
        rows: usize,
        dim: usize,
        data: &[f32],
    ) -> Result<TableHandle, StoreError> {
        if rows == 0 || dim == 0 {
            return Err(StoreError::EmptyTable { rows, dim });
        }
        if data.len() != rows * dim {
            return Err(StoreError::DataSizeMismatch {
                expected: rows * dim,
                actual: data.len(),
            });
        }
        // Hold the index lock across check-and-insert so two workers
        // registering the same table race to one winner. Poisoned locks
        // are recovered (not propagated): registration must keep working
        // after a worker panic so the supervisor can rebuild engines.
        let mut index = self.index.lock();
        if let Some(handle) = self.existing(&index, namespace, ordinal, rows, dim)? {
            return Ok(handle);
        }
        let table = Arc::new(StoredTable::new(
            self.cfg.encoding,
            rows,
            dim,
            data,
            self.cfg.shards_per_table,
        ));
        let mut tables = self.tables.write();
        let slot = tables.len();
        tables.push(table);
        index.insert((namespace, ordinal), slot);
        // The tier keeps one record per row; size them with the registry
        // locks released (the tier lock nests inside nothing).
        drop(tables);
        drop(index);
        if let Some(tier) = &self.tier {
            tier.register_table(slot, rows);
        }
        Ok(TableHandle(slot))
    }

    /// The dedup check: the handle `(namespace, ordinal)` is registered
    /// under, `None` when it is not, a [`StoreError::ShapeMismatch`] when
    /// it is with another shape than `rows × dim`.
    fn existing(
        &self,
        index: &HashMap<(u64, u32), usize>,
        namespace: u64,
        ordinal: u32,
        rows: usize,
        dim: usize,
    ) -> Result<Option<TableHandle>, StoreError> {
        let Some(&slot) = index.get(&(namespace, ordinal)) else {
            return Ok(None);
        };
        let existing = &self.tables.read()[slot];
        if existing.rows != rows || existing.dim != dim {
            return Err(StoreError::ShapeMismatch {
                namespace,
                ordinal,
                existing: (existing.rows, existing.dim),
                requested: (rows, dim),
            });
        }
        Ok(Some(TableHandle(slot)))
    }

    /// What [`EmbeddingStore::register`] would answer on a dedup hit,
    /// without the data: the handle of the `rows × dim` table already
    /// registered under `(namespace, ordinal)`, or `None` when the pair is
    /// free. A builder asks this first so that a replica build neither
    /// draws nor allocates a table only to have it ignored.
    ///
    /// # Errors
    ///
    /// [`StoreError::ShapeMismatch`] when the pair is registered with a
    /// different shape.
    pub fn registered(
        &self,
        namespace: u64,
        ordinal: u32,
        rows: usize,
        dim: usize,
    ) -> Result<Option<TableHandle>, StoreError> {
        self.existing(&self.index.lock(), namespace, ordinal, rows, dim)
    }

    /// A cheap, cloneable accessor pinning `handle`'s table so lookups
    /// skip the registry lock entirely.
    ///
    /// # Panics
    ///
    /// On a handle that does not name a registered table. Fallible
    /// callers (anything fed externally supplied handles) use
    /// [`EmbeddingStore::try_pin`] instead.
    pub fn pin(self: &Arc<Self>, handle: TableHandle) -> PinnedTable {
        self.try_pin(handle).unwrap_or_else(|e| panic!("pin: {e}"))
    }

    /// Fallible [`EmbeddingStore::pin`]: a typed
    /// [`StoreError::UnknownTable`] instead of a panic when `handle`
    /// does not name a registered table.
    pub fn try_pin(self: &Arc<Self>, handle: TableHandle) -> Result<PinnedTable, StoreError> {
        let tables = self.tables.read();
        let table = tables
            .get(handle.0)
            .cloned()
            .ok_or(StoreError::UnknownTable {
                handle: handle.0,
                tables: tables.len(),
            })?;
        drop(tables);
        Ok(PinnedTable {
            store: Arc::clone(self),
            table,
            handle,
        })
    }

    /// Resolves a `(namespace, ordinal)` pair to its handle, or a typed
    /// [`StoreError::TableNotRegistered`].
    pub fn lookup(&self, namespace: u64, ordinal: u32) -> Result<TableHandle, StoreError> {
        self.index
            .lock()
            .get(&(namespace, ordinal))
            .map(|&slot| TableHandle(slot))
            .ok_or(StoreError::TableNotRegistered { namespace, ordinal })
    }

    /// Pins the calling thread into the current update epoch. Readers
    /// (the serving engines) hold the guard across one coalesced batch;
    /// [`EmbeddingStore::apply_update`] waits out every reader pinned
    /// before its publish. Never blocks.
    ///
    /// A thread must **not** call `apply_update` while holding its own
    /// epoch guard — the wait would be for the caller itself.
    pub fn pin_epoch(&self) -> EpochGuard<'_> {
        self.epoch.pin()
    }

    /// The snapshot version currently published for `namespace`: the
    /// minimum across its tables (batches publish all of them together,
    /// so the minimum only lags mid-publish). 0 for an unknown or empty
    /// namespace — freshly registered tables start at v0.
    pub fn namespace_version(&self, namespace: u64) -> u64 {
        let slots: Vec<usize> = {
            let index = self.index.lock();
            index
                .iter()
                .filter(|((ns, _), _)| *ns == namespace)
                .map(|(_, &slot)| slot)
                .collect()
        };
        let tables = self.tables.read();
        slots
            .iter()
            .map(|&s| tables[s].version.load(Ordering::Acquire))
            .min()
            .unwrap_or(0)
    }

    /// Enumerates the tables registered under `namespace` as
    /// `(ordinal, rows, dim)` triples, sorted by ordinal — how a live
    /// updater discovers what it can rewrite without holding a model's
    /// binding list.
    pub fn namespace_tables(&self, namespace: u64) -> Vec<(u32, usize, usize)> {
        let slots: Vec<(u32, usize)> = {
            let index = self.index.lock();
            index
                .iter()
                .filter(|((ns, _), _)| *ns == namespace)
                .map(|((_, ordinal), &slot)| (*ordinal, slot))
                .collect()
        };
        let tables = self.tables.read();
        let mut out: Vec<(u32, usize, usize)> = slots
            .into_iter()
            .map(|(ordinal, slot)| (ordinal, tables[slot].rows, tables[slot].dim))
            .collect();
        out.sort_unstable_by_key(|&(ordinal, _, _)| ordinal);
        out
    }

    /// Whether the serving runtime should stream-prefetch for this store
    /// (tiering on and its prefetch flag set).
    pub fn prefetch_enabled(&self) -> bool {
        self.tier.as_ref().is_some_and(|t| t.prefetch_enabled())
    }

    /// Heap bytes of the tier's per-row records (0 untiered): a probe.
    #[doc(hidden)]
    pub fn tier_index_bytes(&self) -> usize {
        self.tier.as_ref().map_or(0, TierEngine::index_bytes)
    }

    /// `(DRAM-resident rows, total rows)` across the tables registered
    /// under `namespace` — the per-model residency report (a model's
    /// tables all share its namespace). Without tiering everything is
    /// resident. O(resident set) per call; reporting path only.
    pub fn namespace_residency(&self, namespace: u64) -> (u64, u64) {
        let handles: Vec<u64> = {
            let index = self.index.lock();
            index
                .iter()
                .filter(|((ns, _), _)| *ns == namespace)
                .map(|(_, &slot)| slot as u64)
                .collect()
        };
        let total: u64 = {
            let tables = self.tables.read();
            handles
                .iter()
                .map(|&h| tables[h as usize].rows as u64)
                .sum()
        };
        match &self.tier {
            Some(tier) => {
                let resident = tier.count_resident(|key| handles.contains(&(key >> 32))) as u64;
                (resident, total)
            }
            None => (total, total),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{filled, store, tiered_cfg};

    #[test]
    fn register_validates_shape_and_data() {
        let s = store(StoreConfig::default());
        assert_eq!(
            s.register(1, 0, 0, 4, &[]),
            Err(StoreError::EmptyTable { rows: 0, dim: 4 })
        );
        assert_eq!(
            s.register(1, 0, 2, 4, &[0.0; 7]),
            Err(StoreError::DataSizeMismatch {
                expected: 8,
                actual: 7
            })
        );
    }

    #[test]
    fn register_dedupes_by_namespace_and_ordinal() {
        let s = store(StoreConfig::default());
        let data = filled(10, 4);
        let h1 = s.register(42, 0, 10, 4, &data).unwrap();
        let h2 = s.register(42, 0, 10, 4, &data).unwrap();
        assert_eq!(h1, h2);
        assert_eq!(s.stats().tables, 1);
        // Different ordinal or namespace gets a fresh table.
        let h3 = s.register(42, 1, 10, 4, &data).unwrap();
        let h4 = s.register(43, 0, 10, 4, &data).unwrap();
        assert_ne!(h1, h3);
        assert_ne!(h1, h4);
        assert_eq!(s.stats().tables, 3);
        // Dedup hit with a different shape is an error.
        assert!(matches!(
            s.register(42, 0, 10, 8, &filled(10, 8)),
            Err(StoreError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn cache_only_is_refused_without_a_cache() {
        // With no hot rows to serve from, degrading would zero every
        // lookup — the store refuses rather than serving garbage.
        let s = store(StoreConfig {
            cache_capacity_rows: 0,
            ..StoreConfig::default()
        });
        s.set_cache_only(true);
        assert!(!s.cache_only());
    }

    #[test]
    fn namespace_residency_tracks_tiered_tables() {
        let s = store(tiered_cfg(5));
        let h1 = s.register(10, 0, 8, 2, &filled(8, 2)).unwrap();
        let _h2 = s.register(20, 0, 8, 2, &filled(8, 2)).unwrap();
        let pin = s.pin(h1);
        let mut acc = vec![0.0f32; 2];
        for row in 0..3u32 {
            pin.sum_row(row, &mut acc);
        }
        assert_eq!(s.namespace_residency(10), (3, 8));
        assert_eq!(s.namespace_residency(20), (0, 8));
        // Without tiering everything is resident.
        let flat = store(StoreConfig::default());
        flat.register(10, 0, 8, 2, &filled(8, 2)).unwrap();
        assert_eq!(flat.namespace_residency(10), (8, 8));
    }

    #[test]
    fn register_sizes_the_tier_records_and_only_for_a_tiered_store() {
        let s = store(tiered_cfg(5));
        assert_eq!(s.tier_index_bytes(), 0);
        let h = s.register(10, 0, 100, 2, &filled(100, 2)).unwrap();
        let sized = s.tier_index_bytes();
        assert!((100 * 8..100 * 8 + 256).contains(&sized), "{sized} bytes");
        // Reading every row finds its record in place.
        let pin = s.pin(h);
        let mut acc = vec![0.0f32; 2];
        pin.sum_rows(0..100, &mut acc);
        assert_eq!(s.tier_index_bytes(), sized);
        // A dedup hit registers nothing new.
        s.register(10, 0, 100, 2, &filled(100, 2)).unwrap();
        assert_eq!(s.tier_index_bytes(), sized);
        // No tier, no records.
        let flat = store(StoreConfig::default());
        flat.register(10, 0, 100, 2, &filled(100, 2)).unwrap();
        assert!(flat.tier.is_none());
        assert_eq!(flat.tier_index_bytes(), 0);
    }

    #[test]
    fn try_pin_and_lookup_return_typed_errors() {
        let s = store(StoreConfig::default());
        let h = s.register(7, 0, 4, 2, &filled(4, 2)).unwrap();
        assert!(s.try_pin(h).is_ok());
        assert_eq!(
            s.try_pin(TableHandle(5)).err(),
            Some(StoreError::UnknownTable {
                handle: 5,
                tables: 1
            })
        );
        assert_eq!(s.lookup(7, 0), Ok(h));
        assert_eq!(
            s.lookup(7, 1),
            Err(StoreError::TableNotRegistered {
                namespace: 7,
                ordinal: 1
            })
        );
    }
}
