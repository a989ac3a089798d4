//! `drec-store`: sharded, quantized embedding parameter store with a
//! hot-row key set.
//!
//! Deep recommendation models (the paper's RM1/RM2/DIN class) are
//! dominated by irregular `SparseLengthsSum` reads over huge embedding
//! tables, and the access pattern follows a power law — a small hot set
//! of rows absorbs most lookups. This crate turns the repo's bare
//! dense-tensor tables into a proper parameter store:
//!
//! * **Handle-based registry** ([`EmbeddingStore::register`]) — tables
//!   are keyed by `(namespace, ordinal)` and deduplicated, so N serving
//!   workers built from one seed share a single parameter copy. One
//!   lock guards the table list and one record per namespace (its
//!   ordinals and its snapshot version); only a registration writes it.
//! * **Row-range shards** with per-shard interior locks — readers on
//!   different shards never contend, and [`PinnedTable::update_row`] can
//!   rewrite one row without stalling the rest of the table.
//! * **Pluggable row encodings** ([`RowEncoding`]) — `f32` (bit-identical
//!   to a dense tensor), `f16`, and `int8` with per-row scale/bias. Every
//!   lossy encoding documents an exact maximum absolute dequantization
//!   error ([`RowEncoding::error_bound`]), enforced by tests.
//! * **Bag-granular reads** ([`PinnedTable::sum_rows`] /
//!   [`PinnedTable::read_rows`]) — a pooled bag of rows is read as one
//!   residency transaction: same per-row hot-set and tier operations as
//!   one-row reads, in the same order, with the counters and the tier
//!   lock handled once per bag — and the tier lock released before the
//!   bag's rows are decoded.
//! * **Hot-row key set** ([`HotRowCache`]) — a capacity-bounded LRU set
//!   of hot row *keys* in front of the shards: a hot row skips the tier
//!   charge and survives cache-only degraded mode, but every read
//!   decodes from the one encoded copy in its shard. Atomic
//!   hit/miss/evict counters are surfaced through
//!   [`EmbeddingStore::stats`].
//! * **DRAM/SSD tiering** ([`StoreConfig::tier`], via [`drec_tier`]) —
//!   a budget-bounded CLOCK resident set models which rows are in DRAM;
//!   cold rows charge a seeded, queue-depth-aware read latency and get
//!   promoted. [`PinnedTable::prefetch_rows`] lets the serving runtime
//!   stream rows into DRAM ahead of batch drain.
//! * **Versioned live updates** ([`EmbeddingStore::apply_update`]) —
//!   a batch of row deltas ([`UpdateBatch`]) writes its rows and
//!   publishes its namespace's one snapshot version with one store
//!   ([`EmbeddingStore::namespace_version`] reads it back) under the
//!   write guards of every shard it touches, so a bag reads all of its
//!   rows, published, or none, and an injected crash aborts it before
//!   any row moves. Readers take shard read guards, as for any read,
//!   and pin an epoch ([`EmbeddingStore::pin_epoch`]) per coalesced
//!   batch. The write path never waits on them: a serving lane's
//!   updater waits them out once per version, after it posts the
//!   version's weight set (DESIGN.md §14).
//!
//! Determinism guarantees: decoding is a pure function of the stored
//! bytes, and the shard holds the only copy of them — so the hot set
//! (including evictions and cross-worker races), tier residency and
//! prefetch timing can never change a model's output, and the `F32`
//! encoding reproduces the direct dense-tensor path bit for bit.

mod cache;
mod encoding;
mod read;
mod registry;
mod stats;
#[cfg(test)]
mod test_support;
mod update;

pub use cache::HotRowCache;
pub use drec_tier::{ColdReadModel, CombineConfig, Pacing, TierConfig};
pub use encoding::{f32_to_f16_bits, quantize_row, EncodedRow, RowEncoding};
pub use read::PinnedTable;
pub use registry::{EmbeddingStore, StoreConfig, StoreError};
pub use stats::StoreStats;
pub use update::{RestoreBatch, RowDelta, RowRestore, UpdateBatch, UpdateReport};
