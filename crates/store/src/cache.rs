//! Capacity-bounded hot-row cache in front of the cold shards.
//!
//! Decoded rows are cached keyed by `(table, row)`. Because decoding is
//! deterministic, a cache hit returns exactly the bytes a cold decode
//! would have produced — the cache can never change a model's output,
//! only skip decode work for the hot head of a skewed (Zipf) access
//! distribution.
//!
//! # Concurrency layout
//!
//! The cache is a sharded, set-associative table. Each shard owns
//! `sets × ways` fixed slots; a key hashes to one shard and one set
//! within it, and may live in any of that set's `ways` slots (at most 8,
//! so a lookup is a short scan of per-slot atomic keys). The hit path
//! takes **no shard-wide lock**: a reader matches the slot's atomic key,
//! acquires that slot's `RwLock` in read mode (contended only by an
//! eviction targeting the same slot), re-verifies the key, and bumps the
//! recency/frequency atomics. Writers (insert, invalidate) serialize per
//! shard on a small mutex and touch only the victim slot's write lock,
//! so inserts in one shard never stall hits in another — and hits in the
//! *same* shard only stall if they race the victim slot itself.
//!
//! Hit/miss counters are per-shard and cache-line padded
//! ([`drec_sync::CachePadded`]): under multi-threaded serving the
//! previous single shared counter pair turned every lookup into a
//! false-sharing broadcast; `queue_bench` quantifies the difference.
//!
//! Recency/frequency bookkeeping uses a single global atomic logical
//! clock; eviction scans the victim's set (≤ 8 slots), so choosing a
//! victim is O(ways) regardless of cache size. Capacity is rounded up to
//! whole sets: [`HotRowCache::capacity_rows`] reports the physical slot
//! count the cache will actually hold.

use drec_sync::atomic::{AtomicU64, Ordering};
use drec_sync::{CachePadded, Mutex, RwLock};

/// Which victim the cache evicts when a shard is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CachePolicy {
    /// Evict the least-recently-used row (smallest access stamp).
    Lru,
    /// Evict the least-frequently-used row, ties broken by recency.
    Lfu,
}

impl CachePolicy {
    /// Short lowercase name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            CachePolicy::Lru => "lru",
            CachePolicy::Lfu => "lfu",
        }
    }
}

/// Sentinel for a vacant slot. Row keys are `(table << 32) | row`, and a
/// table id of `u32::MAX` would need 4 billion embedding tables, so the
/// sentinel cannot collide with a real key.
const EMPTY: u64 = u64::MAX;

/// Largest set associativity. Eight ways keeps the victim scan short
/// while staying close to full-LRU hit rates on Zipf traffic.
const MAX_WAYS: usize = 8;

/// One shard's slots, held as parallel arrays indexed `set * ways + way`
/// so that probing a set reads its (at most 8) keys from one or two
/// cache lines rather than one line per slot, and picking a victim
/// reads only the stamps. `keys[i]` is slot `i`'s atomic presence
/// marker: readers match it before and after taking `rows[i]`'s lock,
/// and writers blank it while the payload is inconsistent, so a reader
/// can never observe another key's row bytes.
#[derive(Debug)]
struct Shard {
    keys: Box<[AtomicU64]>,
    /// Logical time of each slot's last access (from the global clock).
    stamps: Box<[AtomicU64]>,
    /// Each slot's access count since insertion.
    uses: Box<[AtomicU64]>,
    rows: Box<[RwLock<Box<[f32]>>]>,
    /// Serializes inserts and invalidations within the shard; the hit
    /// path never takes it.
    write: Mutex<()>,
    hits: CachePadded<AtomicU64>,
    misses: CachePadded<AtomicU64>,
}

/// A sharded, set-associative, capacity-bounded cache of decoded hot
/// rows (see the module docs for the concurrency layout).
#[derive(Debug)]
pub struct HotRowCache {
    shards: Vec<Shard>,
    sets: usize,
    ways: usize,
    policy: CachePolicy,
    clock: AtomicU64,
    evictions: AtomicU64,
    resident: AtomicU64,
}

impl HotRowCache {
    /// A cache holding at least `capacity_rows` rows across `shard_count`
    /// shards (rounded up to whole sets — see
    /// [`HotRowCache::capacity_rows`]). `capacity_rows == 0` disables the
    /// cache entirely ([`HotRowCache::enabled`] returns false and lookups
    /// bypass it).
    pub fn new(capacity_rows: usize, shard_count: usize, policy: CachePolicy) -> HotRowCache {
        let shard_count = shard_count.max(1).min(capacity_rows.max(1));
        let per_shard_capacity = capacity_rows.div_ceil(shard_count);
        let ways = per_shard_capacity.min(MAX_WAYS);
        let sets = if ways == 0 {
            0
        } else {
            per_shard_capacity.div_ceil(ways)
        };
        let atomics = |init: u64| (0..sets * ways).map(|_| AtomicU64::new(init)).collect();
        HotRowCache {
            shards: (0..shard_count)
                .map(|_| Shard {
                    keys: atomics(EMPTY),
                    stamps: atomics(0),
                    uses: atomics(0),
                    rows: (0..sets * ways)
                        .map(|_| RwLock::new(Box::default()))
                        .collect(),
                    write: Mutex::new(()),
                    hits: CachePadded::new(AtomicU64::new(0)),
                    misses: CachePadded::new(AtomicU64::new(0)),
                })
                .collect(),
            sets,
            ways,
            policy,
            clock: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            resident: AtomicU64::new(0),
        }
    }

    /// Whether this cache stores anything at all.
    pub fn enabled(&self) -> bool {
        self.sets > 0
    }

    /// The shard a key lives in and the slot range of its set. The shard
    /// comes from the high bits of the Fibonacci-mixed key and the set
    /// from the low bits, so sequential row ids spread across both
    /// dimensions independently.
    fn place(&self, key: u64) -> (&Shard, std::ops::Range<usize>) {
        let mixed = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let shard = &self.shards[((mixed >> 32) as usize) % self.shards.len()];
        let base = (mixed as u32 as usize) % self.sets * self.ways;
        (shard, base..base + self.ways)
    }

    /// Runs `f` on the cached row for `key` if present (bumping its
    /// recency/frequency and counting a hit); counts a miss and returns
    /// `None` otherwise.
    pub fn with_row<R>(&self, key: u64, f: impl FnOnce(&[f32]) -> R) -> Option<R> {
        if !self.enabled() {
            return None;
        }
        let (shard, set) = self.place(key);
        for slot in set {
            if shard.keys[slot].load(Ordering::Acquire) != key {
                continue;
            }
            let row = shard.rows[slot].read();
            // Re-verify under the slot lock: an eviction may have blanked
            // or repurposed the slot between the match and the lock.
            if shard.keys[slot].load(Ordering::Acquire) != key {
                continue;
            }
            shard.stamps[slot].store(
                self.clock.fetch_add(1, Ordering::Relaxed),
                Ordering::Relaxed,
            );
            shard.uses[slot].fetch_add(1, Ordering::Relaxed);
            shard.hits.fetch_add(1, Ordering::Relaxed);
            return Some(f(&row));
        }
        shard.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Inserts `key`, evicting the set's policy victim if every way is
    /// occupied, and has `fill` write the decoded row into the slot's own
    /// `dim`-wide buffer — the victim's buffer is refilled in place, so a
    /// miss costs no allocation once a slot has held a row of this
    /// width. Returns whether `fill` ran: a concurrent insert of the
    /// same key wins silently and the caller keeps its own copy.
    ///
    /// Readers stay safe exactly as they did when the buffer was swapped
    /// for a fresh one: the key is blanked before the slot's write lock
    /// is taken, the buffer is only written under that lock, and the new
    /// key is published after — a reader that matched the old key either
    /// holds the read lock (the refill waits for it) or re-verifies
    /// under it and misses.
    pub fn insert_with(&self, key: u64, dim: usize, fill: impl FnOnce(&mut [f32])) -> bool {
        if !self.enabled() {
            return false;
        }
        let (shard, set) = self.place(key);
        let _writer = shard.write.lock();
        let mut vacant = None;
        for slot in set.clone() {
            match shard.keys[slot].load(Ordering::Acquire) {
                k if k == key => return false, // raced with another worker decoding the same row
                EMPTY if vacant.is_none() => vacant = Some(slot),
                _ => {}
            }
        }
        let victim = vacant.unwrap_or_else(|| {
            self.evictions.fetch_add(1, Ordering::Relaxed);
            let stamp = |slot: &usize| shard.stamps[*slot].load(Ordering::Relaxed);
            match self.policy {
                CachePolicy::Lru => set.min_by_key(stamp),
                CachePolicy::Lfu => {
                    set.min_by_key(|slot| (shard.uses[*slot].load(Ordering::Relaxed), stamp(slot)))
                }
            }
            .expect("ways >= 1")
        });
        // Blank the key before touching the payload so a racing reader
        // that matched the old key re-verifies and misses.
        shard.keys[victim].store(EMPTY, Ordering::Release);
        {
            let mut row = shard.rows[victim].write();
            if row.len() != dim {
                *row = vec![0.0; dim].into_boxed_slice();
            }
            fill(&mut row);
        }
        shard.stamps[victim].store(
            self.clock.fetch_add(1, Ordering::Relaxed),
            Ordering::Relaxed,
        );
        shard.uses[victim].store(1, Ordering::Relaxed);
        shard.keys[victim].store(key, Ordering::Release);
        if vacant.is_some() {
            // An eviction replaces a resident row: the gauge stands.
            self.resident.fetch_add(1, Ordering::Relaxed);
        }
        true
    }

    /// Drops `key` if cached (used when a row is rewritten in the store).
    /// The slot keeps its buffer for the next refill; taking the write
    /// lock waits out a reader still copying the superseded row.
    pub fn invalidate(&self, key: u64) {
        if !self.enabled() {
            return;
        }
        let (shard, set) = self.place(key);
        let _writer = shard.write.lock();
        for slot in set {
            if shard.keys[slot].load(Ordering::Acquire) == key {
                shard.keys[slot].store(EMPTY, Ordering::Release);
                drop(shard.rows[slot].write());
                self.resident.fetch_sub(1, Ordering::Relaxed);
                return;
            }
        }
    }

    /// Total cache hits so far (summed over the padded shard counters).
    pub fn hits(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.hits.load(Ordering::Relaxed))
            .sum()
    }

    /// Total cache misses so far (summed over the padded shard counters).
    pub fn misses(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.misses.load(Ordering::Relaxed))
            .sum()
    }

    /// Total evictions so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Rows currently resident.
    pub fn resident_rows(&self) -> u64 {
        self.resident.load(Ordering::Relaxed)
    }

    /// Physical capacity in rows (0 when disabled): the configured
    /// capacity rounded up to whole sets per shard.
    pub fn capacity_rows(&self) -> usize {
        self.shards.len() * self.sets * self.ways
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Inserts a 4-wide row of `v`s.
    fn insert(cache: &HotRowCache, key: u64, v: f32) -> bool {
        cache.insert_with(key, 4, |buf| buf.fill(v))
    }

    #[test]
    fn disabled_cache_is_a_no_op() {
        let cache = HotRowCache::new(0, 8, CachePolicy::Lru);
        assert!(!cache.enabled());
        insert(&cache, 1, 1.0);
        assert_eq!(cache.with_row(1, |_| ()), None);
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 0);
        assert_eq!(cache.resident_rows(), 0);
        assert_eq!(cache.capacity_rows(), 0);
    }

    #[test]
    fn hit_miss_counters_track_accesses() {
        let cache = HotRowCache::new(8, 1, CachePolicy::Lru);
        assert_eq!(cache.with_row(5, |_| ()), None);
        insert(&cache, 5, 5.0);
        assert_eq!(cache.with_row(5, |r| r[0]), Some(5.0));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.resident_rows(), 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = HotRowCache::new(2, 1, CachePolicy::Lru);
        insert(&cache, 1, 1.0);
        insert(&cache, 2, 2.0);
        // Touch 1 so 2 is the LRU victim.
        assert!(cache.with_row(1, |_| ()).is_some());
        insert(&cache, 3, 3.0);
        assert_eq!(cache.evictions(), 1);
        assert!(cache.with_row(2, |_| ()).is_none(), "2 should be evicted");
        assert!(cache.with_row(1, |_| ()).is_some());
        assert!(cache.with_row(3, |_| ()).is_some());
        assert_eq!(cache.resident_rows(), 2);
    }

    #[test]
    fn lfu_evicts_least_frequently_used() {
        let cache = HotRowCache::new(2, 1, CachePolicy::Lfu);
        insert(&cache, 1, 1.0);
        insert(&cache, 2, 2.0);
        // 1 gets 3 uses total, 2 stays at its insertion count.
        assert!(cache.with_row(1, |_| ()).is_some());
        assert!(cache.with_row(1, |_| ()).is_some());
        insert(&cache, 3, 3.0);
        assert!(cache.with_row(2, |_| ()).is_none(), "2 should be evicted");
        assert!(cache.with_row(1, |_| ()).is_some());
    }

    #[test]
    fn insert_with_skips_fill_when_present_and_resizes_on_width_change() {
        let cache = HotRowCache::new(1, 1, CachePolicy::Lru);
        assert!(insert(&cache, 1, 1.0));
        assert!(
            !cache.insert_with(1, 4, |_| panic!("fill ran for a resident key")),
            "a resident key must report that the caller's fill did not run"
        );
        // The single slot is refilled for a row of another width.
        assert!(cache.insert_with(2, 2, |buf| buf.copy_from_slice(&[8.0, 9.0])));
        assert_eq!(cache.with_row(2, |r| r.to_vec()), Some(vec![8.0, 9.0]));
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn invalidate_removes_entry() {
        let cache = HotRowCache::new(4, 2, CachePolicy::Lru);
        insert(&cache, 7, 7.0);
        assert!(cache.with_row(7, |_| ()).is_some());
        cache.invalidate(7);
        assert!(cache.with_row(7, |_| ()).is_none());
        assert_eq!(cache.resident_rows(), 0);
    }

    #[test]
    fn capacity_is_bounded_across_shards() {
        let cache = HotRowCache::new(16, 4, CachePolicy::Lru);
        for k in 0..200u64 {
            insert(&cache, k, k as f32);
        }
        assert!(
            cache.resident_rows() <= cache.capacity_rows() as u64,
            "resident {} > capacity {}",
            cache.resident_rows(),
            cache.capacity_rows()
        );
        assert!(cache.evictions() > 0);
    }

    #[test]
    fn concurrent_hits_and_inserts_never_mix_rows() {
        // Readers must only ever observe the row bytes matching the key
        // they asked for, even while inserts recycle slots under them.
        use std::sync::Arc;
        let cache = Arc::new(HotRowCache::new(32, 4, CachePolicy::Lru));
        let writers: Vec<_> = (0..2)
            .map(|w| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..2_000u64 {
                        let key = (w * 1000 + i) % 200;
                        insert(&cache, key, key as f32);
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..2_000u64 {
                        let key = i % 200;
                        if let Some(v) = cache.with_row(key, |r| r[0]) {
                            assert_eq!(v, key as f32, "row bytes must match the key");
                        }
                    }
                })
            })
            .collect();
        for t in writers.into_iter().chain(readers) {
            t.join().unwrap();
        }
    }
}
