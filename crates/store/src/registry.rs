//! The table registry: store configuration and errors, the row-range
//! shards of one table, and the handle-based `(namespace, ordinal)`
//! registry — every table and one record per namespace, behind one lock —
//! with its pin, lookup and namespace queries.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use drec_faultsim::FaultHook;
use drec_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use drec_sync::{CachePadded, EpochGc, EpochGuard, RwLock};
use drec_tensor::Divisor;
use drec_tier::{TierConfig, TierEngine};

use crate::cache::HotRowCache;
use crate::encoding::{RowData, RowEncoding};
use crate::read::PinnedTable;

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
    /// An injected crash aborted the batch. The store checks for it
    /// before any row moves, so no row was written and the namespace
    /// version is unchanged — no reader ever saw the failed update.
    UpdateAborted {
        /// Update namespace.
        namespace: u64,
        /// Version the aborted batch targeted.
        target: u64,
        /// Where in the batch the injected crash fell: half its rows.
        /// None of them was written.
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
                "update to v{target} for namespace {namespace:#x} aborted at \
                 row {rows_rolled_back}; no row was written"
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
    /// Bumped once per row write, *after* the write and its shard guard
    /// are done with and before the row is invalidated. The prefetcher
    /// captures it when a fill starts and re-verifies under the
    /// residency lock, so a fill racing an update can never park
    /// pre-update state as resident (see `PinnedTable::prefetch_rows`).
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

    pub(crate) fn resident_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.read().resident_bytes()).sum()
    }
}

/// The key a row goes by outside its shard, in the hot-row key set and
/// the tier: its table's slot in the high 32 bits, the row in the low.
pub(crate) fn row_key(slot: usize, row: u32) -> u64 {
    ((slot as u64) << 32) | u64::from(row)
}

/// What the registry lock guards: every table, indexed by handle, and
/// one record per namespace.
#[derive(Debug, Default)]
pub(crate) struct Registry {
    pub(crate) tables: Vec<Arc<StoredTable>>,
    pub(crate) namespaces: HashMap<u64, Namespace>,
}

/// One namespace: its tables and the one snapshot version they are all
/// published at. A batch publishes a whole namespace, so the version
/// lives here, once.
#[derive(Debug, Default)]
pub(crate) struct Namespace {
    /// Table ordinal → handle slot, in ordinal order.
    pub(crate) ordinals: BTreeMap<u32, usize>,
    /// The published snapshot version (0 until the first batch; a table
    /// registered later joins at the current one). Stored by a publish
    /// under a read guard, so it is an atomic.
    pub(crate) version: AtomicU64,
}

impl Registry {
    /// The table registered under `(namespace, ordinal)`, as its slot.
    fn slot(&self, namespace: u64, ordinal: u32) -> Option<usize> {
        let ns = self.namespaces.get(&namespace)?;
        ns.ordinals.get(&ordinal).copied()
    }

    /// The dedup check: the handle `(namespace, ordinal)` is registered
    /// under, `None` when it is not, a [`StoreError::ShapeMismatch`] when
    /// it is with another shape than `rows × dim`.
    fn existing(
        &self,
        namespace: u64,
        ordinal: u32,
        rows: usize,
        dim: usize,
    ) -> Result<Option<TableHandle>, StoreError> {
        let Some(slot) = self.slot(namespace, ordinal) else {
            return Ok(None);
        };
        let existing = &self.tables[slot];
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
}

/// The embedding parameter store. One instance is shared by every serving
/// worker; tables are registered once per `(namespace, ordinal)` and
/// deduplicated across workers, so N replicas of a model hold one copy of
/// the embedding parameters instead of N.
#[derive(Debug)]
pub struct EmbeddingStore {
    pub(crate) cfg: StoreConfig,
    /// The registry: taken for reading by every query, pin and update
    /// batch, for writing only by a registration.
    pub(crate) registry: RwLock<Registry>,
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
    /// An epoch cell a caller may pin ([`EmbeddingStore::pin_epoch`]).
    /// Nothing waits on it: the store's write path never does, and a
    /// serving lane waits out its batches on its update channel's own
    /// epoch (DESIGN.md §14).
    pub(crate) epoch: EpochGc,
    /// Update batches applied and published.
    pub(crate) update_batches_applied: AtomicU64,
    /// Rows rewritten by applied update batches.
    pub(crate) update_rows_applied: AtomicU64,
    /// Update batches aborted whole by an injected crash.
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
            registry: RwLock::new(Registry::default()),
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

    /// The fault hook the store was built with.
    pub fn faults(&self) -> &FaultHook {
        &self.faults
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
        // Hold the write guard across check-and-insert so two workers
        // registering the same table race to one winner. Poisoned locks
        // are recovered (not propagated): registration must keep working
        // after a worker panic so the supervisor can rebuild engines.
        let mut registry = self.registry.write();
        if let Some(handle) = registry.existing(namespace, ordinal, rows, dim)? {
            return Ok(handle);
        }
        let table = Arc::new(StoredTable::new(
            self.cfg.encoding,
            rows,
            dim,
            data,
            self.cfg.shards_per_table,
        ));
        let slot = registry.tables.len();
        registry.tables.push(table);
        let ns = registry.namespaces.entry(namespace).or_default();
        ns.ordinals.insert(ordinal, slot);
        // The tier keeps one record per row; size them with the registry
        // released, so a registration holds it only for the insert.
        drop(registry);
        if let Some(tier) = &self.tier {
            tier.register_table(slot, rows);
        }
        Ok(TableHandle(slot))
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
        self.registry.read().existing(namespace, ordinal, rows, dim)
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
        let registry = self.registry.read();
        let table = registry
            .tables
            .get(handle.0)
            .cloned()
            .ok_or(StoreError::UnknownTable {
                handle: handle.0,
                tables: registry.tables.len(),
            })?;
        drop(registry);
        Ok(PinnedTable {
            store: Arc::clone(self),
            table,
            handle,
        })
    }

    /// Resolves a `(namespace, ordinal)` pair to its handle, or a typed
    /// [`StoreError::TableNotRegistered`].
    pub fn lookup(&self, namespace: u64, ordinal: u32) -> Result<TableHandle, StoreError> {
        self.registry
            .read()
            .slot(namespace, ordinal)
            .map(TableHandle)
            .ok_or(StoreError::TableNotRegistered { namespace, ordinal })
    }

    /// Pins the calling thread into the store's epoch. Never blocks,
    /// and nothing waits on the pin: the write path publishes without
    /// waiting for readers, and a serving lane pins its update
    /// channel's epoch instead, an `EpochGc` like this one, so a pin
    /// here costs what a batch's pin costs.
    pub fn pin_epoch(&self) -> EpochGuard<'_> {
        self.epoch.pin()
    }

    /// The snapshot version currently published for `namespace`: every
    /// table of a namespace is at its version, which a batch publishes
    /// with one store. 0 for an unknown namespace — and for a registered
    /// one until its first batch.
    pub fn namespace_version(&self, namespace: u64) -> u64 {
        self.registry
            .read()
            .namespaces
            .get(&namespace)
            .map_or(0, |ns| ns.version.load(Ordering::Acquire))
    }

    /// Enumerates the tables registered under `namespace` as
    /// `(ordinal, rows, dim)` triples, sorted by ordinal — how a live
    /// updater discovers what it can rewrite without holding a model's
    /// binding list.
    pub fn namespace_tables(&self, namespace: u64) -> Vec<(u32, usize, usize)> {
        let registry = self.registry.read();
        let Some(ns) = registry.namespaces.get(&namespace) else {
            return Vec::new();
        };
        ns.ordinals
            .iter()
            .map(|(&ordinal, &slot)| {
                let table = &registry.tables[slot];
                (ordinal, table.rows, table.dim)
            })
            .collect()
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
        let registry = self.registry.read();
        let Some(ns) = registry.namespaces.get(&namespace) else {
            return (0, 0);
        };
        let slots = ns.ordinals.values();
        let total: u64 = slots
            .clone()
            .map(|&slot| registry.tables[slot].rows as u64)
            .sum();
        match &self.tier {
            Some(tier) => {
                let mine = |key: u64| slots.clone().any(|&slot| slot as u64 == key >> 32);
                (tier.count_resident(mine) as u64, total)
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
