//! Capacity-bounded set of hot row keys in front of the table shards.
//!
//! The set answers one question — *is `(table, row)` hot?* — and holds
//! no row contents: every read, hot or not, decodes from the one
//! encoded copy in the row's shard. A hot row skips the tier charge
//! (the hot head of a Zipf distribution is DRAM by definition) and is
//! what cache-only degraded mode keeps serving. With no payload there
//! is nothing that can go stale or tear: a key that outlives a rewrite
//! of its row still names the row, and the read decodes the new bytes.
//!
//! # Concurrency layout
//!
//! The set is sharded and set-associative. Each shard owns `sets ×
//! ways` fixed slots; a key hashes to one shard and one set within it,
//! and may live in any of that set's `ways` slots (at most 8, so a probe
//! is a short scan of per-slot atomic keys). The probe takes **no
//! lock**: it matches the slot's atomic key and stamps the slot's
//! recency. Writers (insert, invalidate) serialize per shard on a small
//! mutex, so inserts in one shard never stall probes anywhere.
//!
//! The set counts evictions and residents, which only writers move;
//! hits and misses are the caller's to count (the store tallies them
//! per bag), so a probe writes nothing but the clock and the slot's
//! recency stamp.
//!
//! Recency bookkeeping uses a single global atomic logical clock;
//! eviction scans the victim's set (≤ 8 slots), so choosing the
//! least-recently-used victim is O(ways) regardless of capacity.
//! Capacity is rounded up to whole sets:
//! [`HotRowCache::capacity_rows`] reports the physical slot count the
//! set will actually hold.

use drec_sync::atomic::{AtomicU64, Ordering};
use drec_sync::Mutex;

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
/// reads only the stamps.
#[derive(Debug)]
struct Shard {
    keys: Box<[AtomicU64]>,
    /// Logical time of each slot's last access (from the global clock).
    stamps: Box<[AtomicU64]>,
    /// Serializes inserts and invalidations within the shard; the probe
    /// never takes it.
    write: Mutex<()>,
}

/// A sharded, set-associative, capacity-bounded LRU set of hot row keys
/// (see the module docs for the concurrency layout).
#[derive(Debug)]
pub struct HotRowCache {
    shards: Vec<Shard>,
    sets: usize,
    ways: usize,
    clock: AtomicU64,
    evictions: AtomicU64,
    resident: AtomicU64,
}

impl HotRowCache {
    /// A set holding at least `capacity_rows` keys across `shard_count`
    /// shards (rounded up to whole sets — see
    /// `HotRowCache::capacity_rows`). `capacity_rows == 0` disables it
    /// entirely (`HotRowCache::enabled` returns false and no key is
    /// ever hot).
    pub fn new(capacity_rows: usize, shard_count: usize) -> HotRowCache {
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
                    write: Mutex::new(()),
                })
                .collect(),
            sets,
            ways,
            clock: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            resident: AtomicU64::new(0),
        }
    }

    /// Whether this set holds anything at all.
    pub(crate) fn enabled(&self) -> bool {
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

    /// The next recency stamp. A load and a store, not a `fetch_add`: two
    /// racing probes may take the same stamp, which only makes them tie
    /// for recency, and a probe stays free of locked instructions.
    fn tick(&self) -> u64 {
        let now = self.clock.load(Ordering::Relaxed);
        self.clock.store(now + 1, Ordering::Relaxed);
        now
    }

    /// Whether `key` is hot; a hit bumps the key's recency.
    pub fn touch(&self, key: u64) -> bool {
        if !self.enabled() {
            return false;
        }
        let (shard, set) = self.place(key);
        for slot in set {
            if shard.keys[slot].load(Ordering::Acquire) == key {
                shard.stamps[slot].store(self.tick(), Ordering::Relaxed);
                return true;
            }
        }
        false
    }

    /// Makes `key` hot, evicting its set's least-recently-used key if
    /// every way is occupied. A key that is already hot (another worker
    /// read the same row meanwhile) is left as it is.
    pub fn insert(&self, key: u64) {
        if !self.enabled() {
            return;
        }
        let (shard, set) = self.place(key);
        let _writer = shard.write.lock();
        let mut vacant = None;
        for slot in set.clone() {
            match shard.keys[slot].load(Ordering::Acquire) {
                k if k == key => return,
                EMPTY if vacant.is_none() => vacant = Some(slot),
                _ => {}
            }
        }
        let victim = vacant.unwrap_or_else(|| {
            self.evictions.fetch_add(1, Ordering::Relaxed);
            set.min_by_key(|slot| shard.stamps[*slot].load(Ordering::Relaxed))
                .expect("ways >= 1")
        });
        shard.stamps[victim].store(self.tick(), Ordering::Relaxed);
        shard.keys[victim].store(key, Ordering::Release);
        if vacant.is_some() {
            // An eviction replaces a resident key: the gauge stands.
            self.resident.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drops `key` if hot (used when a row is rewritten in the store, so
    /// the new row re-earns its place).
    pub fn invalidate(&self, key: u64) {
        if !self.enabled() {
            return;
        }
        let (shard, set) = self.place(key);
        let _writer = shard.write.lock();
        for slot in set {
            if shard.keys[slot].load(Ordering::Acquire) == key {
                shard.keys[slot].store(EMPTY, Ordering::Release);
                self.resident.fetch_sub(1, Ordering::Relaxed);
                return;
            }
        }
    }

    /// Total evictions so far.
    pub(crate) fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Keys currently resident.
    pub(crate) fn resident_rows(&self) -> u64 {
        self.resident.load(Ordering::Relaxed)
    }

    /// Physical capacity in rows (0 when disabled): the configured
    /// capacity rounded up to whole sets per shard.
    pub(crate) fn capacity_rows(&self) -> usize {
        self.shards.len() * self.sets * self.ways
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_cache_is_a_no_op() {
        let cache = HotRowCache::new(0, 8);
        assert!(!cache.enabled());
        cache.insert(1);
        assert!(!cache.touch(1));
        assert_eq!(cache.resident_rows(), 0);
        assert_eq!(cache.capacity_rows(), 0);
    }

    #[test]
    fn a_key_is_hot_once_inserted() {
        let cache = HotRowCache::new(8, 1);
        assert!(!cache.touch(5));
        cache.insert(5);
        assert!(cache.touch(5));
        assert_eq!(cache.resident_rows(), 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = HotRowCache::new(2, 1);
        cache.insert(1);
        cache.insert(2);
        // Touch 1 so 2 is the LRU victim.
        assert!(cache.touch(1));
        cache.insert(3);
        assert_eq!(cache.evictions(), 1);
        assert!(!cache.touch(2), "2 should be evicted");
        assert!(cache.touch(1));
        assert!(cache.touch(3));
        assert_eq!(cache.resident_rows(), 2);
    }

    #[test]
    fn inserting_a_resident_key_changes_nothing() {
        let cache = HotRowCache::new(1, 1);
        cache.insert(1);
        cache.insert(1);
        assert_eq!((cache.resident_rows(), cache.evictions()), (1, 0));
        // The single slot goes to the next key.
        cache.insert(2);
        assert!(cache.touch(2) && !cache.touch(1));
        assert_eq!((cache.resident_rows(), cache.evictions()), (1, 1));
    }

    #[test]
    fn invalidate_removes_entry() {
        let cache = HotRowCache::new(4, 2);
        cache.insert(7);
        assert!(cache.touch(7));
        cache.invalidate(7);
        assert!(!cache.touch(7));
        assert_eq!(cache.resident_rows(), 0);
    }

    #[test]
    fn capacity_is_bounded_across_shards() {
        let cache = HotRowCache::new(16, 4);
        for k in 0..200u64 {
            cache.insert(k);
        }
        assert!(
            cache.resident_rows() <= cache.capacity_rows() as u64,
            "resident {} > capacity {}",
            cache.resident_rows(),
            cache.capacity_rows()
        );
        assert!(cache.evictions() > 0);
    }
}
