//! The store-facing tier engine: demand accesses, prefetch fills, and
//! the counter set behind `StoreStats`' tier fields.
//!
//! All of it is one [`TierState`] behind one lock. What the state knows
//! about a row — resident or not, how often demanded — lives in that
//! row's record in the clock's direct-indexed `RowIndex`, so an
//! operation reads one record per row it names and the engine owns no
//! map of its own.

use std::time::Duration;

use drec_sync::{Mutex, MutexGuard};

use crate::clock::{ResidencyClock, Touch, EPOCHS};
use crate::latency::{ColdReadModel, Pacing};

/// Placeholder for the configuration of the table-combining cache this
/// crate used to have. Nothing reads it; it is here until the next
/// `benchmark` issue drops the literal `perf_bench` builds.
#[derive(Debug, Clone, Copy, Default)]
pub struct CombineConfig {}

/// Configuration for a [`TierEngine`] (carried by the store's config as
/// `StoreConfig::tier`).
#[derive(Debug, Clone)]
pub struct TierConfig {
    /// DRAM hot-tier capacity in rows. Rows past the budget live on the
    /// simulated SSD cold tier and pay [`TierConfig::cold_read`] on
    /// demand.
    pub dram_budget_rows: usize,
    /// Latency model for one cold-tier read.
    pub cold_read: ColdReadModel,
    /// Whether the serving runtime should run the stream prefetcher for
    /// this store. The prefetch *API* works regardless; this flag only
    /// gates the admission-time hook in `drec-serve`.
    pub prefetch: bool,
    /// Demand touches a row needs before it can be promoted into DRAM,
    /// enabling TinyLFU-style frequency admission. `1` promotes on
    /// first touch — plain CLOCK, which degenerates to LRU-class hit
    /// rates under heavy-tail traffic because one-touch tail rows keep
    /// evicting hot rows. At `2` or more, every demand access also
    /// bumps a bounded frequency sketch, and a cold row is promoted
    /// only when (a) it has at least this many lifetime touches and
    /// (b) its touch count strictly exceeds the CLOCK victim's — a
    /// colder-or-equal challenger never displaces a resident, so the
    /// resident set converges on the true frequency head instead of
    /// churning. Prefetch fills always bypass this filter: an admitted
    /// query is explicit evidence the row is about to be used.
    pub admit_after: u32,
    /// Ignored; here until the next `benchmark` issue drops the literal
    /// `perf_bench` builds.
    pub combine: Option<CombineConfig>,
}

impl TierConfig {
    /// Tiering with the default cold-read model and prefetch enabled.
    pub fn new(dram_budget_rows: usize) -> TierConfig {
        TierConfig {
            dram_budget_rows,
            cold_read: ColdReadModel::default(),
            prefetch: true,
            admit_after: 1,
            combine: None,
        }
    }
}

/// What one demand access cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierAccess {
    /// The row was DRAM-resident; no cold latency charged.
    DramHit,
    /// The row was cold; `wait` was charged (and slept under
    /// [`Pacing::Sleep`]) and the row is now resident.
    ColdMiss {
        /// Latency charged to this read.
        wait: Duration,
    },
}

/// Point-in-time tier counters (all cumulative except the residency
/// gauges).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Configured DRAM budget, rows.
    pub dram_budget_rows: u64,
    /// Rows currently DRAM-resident.
    pub dram_resident_rows: u64,
    /// Demand accesses that found their row DRAM-resident.
    pub dram_hits: u64,
    /// Demand accesses that paid a cold-tier read.
    pub cold_demand_reads: u64,
    /// Rows promoted into DRAM (demand + prefetch).
    pub promotions: u64,
    /// Rows evicted from DRAM.
    pub evictions: u64,
    /// Nanoseconds of cold latency charged to demand reads (on the
    /// request critical path).
    pub demand_wait_nanos: u64,
    /// Nanoseconds of cold latency charged to prefetch fills (overlapped
    /// with other work, off the critical path).
    pub prefetch_wait_nanos: u64,
    /// Prefetch fills started on a row that was not resident.
    pub prefetch_issued: u64,
    /// Prefetch fills that promoted a row.
    pub prefetch_fills: u64,
    /// Demand accesses served from a still-unused prefetched row — the
    /// prefetch did its job.
    pub prefetch_hits: u64,
    /// Prefetched rows evicted before any demand access used them.
    pub prefetch_wasted: u64,
    /// Prefetch fills aborted because the row was rewritten between the
    /// fill's start and its residency insert — parking the pre-update
    /// bytes as resident would have served a retired row for free.
    pub prefetch_aborted_stale: u64,
    /// Row-update invalidations that dropped a resident row.
    pub invalidations: u64,
}

/// Everything the tier mutates, behind the engine's one lock.
#[derive(Debug)]
struct TierState {
    /// The resident set, and with it the per-row records
    /// (`clock.rows`): a row's CLOCK slot and its touch count sit in one
    /// record, so each operation below reads one place per row it names.
    clock: ResidencyClock,
    /// The admission epoch, below [`EPOCHS`]. A record's touch count is
    /// worth its value only while the record carries this number, so
    /// bumping it is the frequency sketch's wholesale reset (TinyLFU-style
    /// aging, which keeps the filter deterministic and lets it re-learn a
    /// shifted head) without a walk over the records. When it wraps, the
    /// counts of the epoch about to be reused are zeroed for real.
    epoch: u32,
    /// Rows with a non-zero touch count in this epoch. Bounded: at
    /// `admission_capacity` the epoch ends.
    tracked: usize,
    /// Global cold-read index driving the jitter sequence.
    reads: u64,
    /// Cold reads currently in service (queue depth for the model).
    inflight: u64,
    /// The cumulative counters; the residency gauges and `evictions`
    /// are filled in from `clock` by [`TierEngine::stats`].
    stats: TierStats,
}

impl TierState {
    /// Counts one demand touch of `key` into the admission sketch that
    /// drives [`TierConfig::admit_after`], ending the epoch once
    /// `capacity` rows are tracked. The touch that fills the sketch is
    /// reset with the rest: the row it counted starts the new epoch at
    /// zero.
    fn count_touch(&mut self, key: u64, capacity: usize) {
        self.tracked += usize::from(self.clock.rows.entry(key).count_touch(self.epoch));
        if self.tracked >= capacity {
            self.tracked = 0;
            self.epoch = (self.epoch + 1) % EPOCHS;
            if self.epoch == 0 {
                self.clock.rows.clear_touches();
            }
        }
    }

    /// `key`'s demand touches in the current admission epoch.
    fn touches(&self, key: u64) -> u32 {
        let row = self.clock.rows.get(key);
        row.map_or(0, |row| row.touches_in(self.epoch))
    }
}

/// The tier engine one [`EmbeddingStore`](../drec_store) owns when
/// tiering is configured.
///
/// Keys are `(table << 32) | row` with `table` below 2^30, and the engine
/// keeps one eight-byte record per row of every table it has seen, beside
/// one eight-byte CLOCK slot per row of its DRAM budget. The store fixes a
/// table's records with [`TierEngine::register_table`]. For a table nobody
/// registered (callers that make up their own keys) an access to a row
/// past the table's end grows its records to reach it — there memory
/// follows the largest table id and row accessed, so such keys must be
/// dense.
///
/// Thread-safe: the resident set, the per-row records and the counters
/// sit behind **one** mutex, taken once per [`TierSession`] — the store
/// opens one session for the residency phase of a pooled bag, the
/// prefetcher one per row list — instead of several times per row.
/// Lock order: only a hot-key-set shard lock is ever taken inside a
/// session; table shard locks are taken with no tier lock held, by
/// readers (which decode after their session ends) and by writers
/// (which invalidate after releasing the shard; DESIGN.md §12).
/// Residency decides latency charging only — never values — so
/// concurrent interleavings may shift counters but can never change
/// model output bits.
#[derive(Debug)]
pub struct TierEngine {
    model: ColdReadModel,
    prefetch_enabled: bool,
    admit_after: u32,
    admission_capacity: usize,
    state: Mutex<TierState>,
}

/// One residency transaction: the tier lock, held across as many
/// accesses as the caller has (the rows of a bag that are not hot, a
/// prefetch list) and dropped before the caller reads any row.
/// A [`Pacing::Sleep`] cold read drops the lock for the duration of its
/// sleep and retakes it, so a session never sleeps holding it.
#[derive(Debug)]
pub struct TierSession<'a> {
    engine: &'a TierEngine,
    /// `None` only while a cold read sleeps.
    state: Option<MutexGuard<'a, TierState>>,
}

impl TierEngine {
    /// A fresh engine for `cfg`. An empty DRAM tier: the first access to
    /// every row is a cold read (benches warm the tier explicitly).
    ///
    /// # Panics
    ///
    /// If `cfg.dram_budget_rows` is 2^24 (16 777 216) or more, which a
    /// record's slot field cannot index.
    pub fn new(cfg: &TierConfig) -> TierEngine {
        TierEngine {
            model: cfg.cold_read,
            prefetch_enabled: cfg.prefetch,
            admit_after: cfg.admit_after.max(1),
            admission_capacity: (cfg.dram_budget_rows * 8).max(1024),
            state: Mutex::new(TierState {
                clock: ResidencyClock::new(cfg.dram_budget_rows),
                epoch: 0,
                tracked: 0,
                reads: 0,
                inflight: 0,
                stats: TierStats::default(),
            }),
        }
    }

    /// Whether the serving runtime should prefetch for this store.
    pub fn prefetch_enabled(&self) -> bool {
        self.prefetch_enabled
    }

    /// Fixes the per-row records of table `table` (the high half of its
    /// rows' keys) at rows `0..rows`: no access to them grows anything,
    /// and an access or fill that names a row past them panics
    /// instead of allocating up to it (asking whether such a row is
    /// resident, or invalidating it, answers `false`). The store calls
    /// this as it registers a table.
    pub fn register_table(&self, table: usize, rows: usize) {
        self.state.lock().clock.rows.register(table, rows);
    }

    /// Heap bytes of the per-row records — a probe for tests, not part
    /// of the supported API.
    #[doc(hidden)]
    pub fn index_bytes(&self) -> usize {
        self.state.lock().clock.rows.bytes()
    }

    /// Takes the tier lock for a run of accesses.
    pub fn session(&self) -> TierSession<'_> {
        TierSession {
            engine: self,
            state: Some(self.state.lock()),
        }
    }

    /// One demand access in a session of its own (see
    /// [`TierSession::demand_access`]).
    pub fn demand_access(&self, key: u64) -> TierAccess {
        self.session().demand_access(key)
    }

    /// Drops `key` from the tier on a row update: the DRAM-resident copy
    /// (if any) is superseded. Returns whether the row was resident.
    pub fn invalidate(&self, key: u64) -> bool {
        let mut st = self.state.lock();
        let resident = st.clock.remove(key);
        st.stats.invalidations += u64::from(resident);
        resident
    }

    /// Whether `key` is currently DRAM-resident (no side effects).
    pub fn is_resident(&self, key: u64) -> bool {
        self.state.lock().clock.contains(key)
    }

    /// Counts resident rows whose key satisfies `pred` — the reporting
    /// path for per-table/per-model residency. O(resident).
    pub fn count_resident(&self, pred: impl FnMut(u64) -> bool) -> usize {
        self.state.lock().clock.count_resident(pred)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> TierStats {
        let st = self.state.lock();
        TierStats {
            dram_budget_rows: st.clock.budget() as u64,
            dram_resident_rows: st.clock.resident() as u64,
            evictions: st.clock.evictions(),
            ..st.stats
        }
    }
}

impl TierSession<'_> {
    fn st(&mut self) -> &mut TierState {
        self.state
            .as_mut()
            .expect("the tier lock is held outside a cold-read sleep")
    }

    /// Computes, charges, and (under [`Pacing::Sleep`]) serves one cold
    /// read's latency, returning the charged duration. The sleep runs
    /// with the tier lock released.
    fn charge_cold_read(&mut self, demand: bool) -> Duration {
        let model = self.engine.model;
        let st = self.st();
        let wait = model.delay_for(st.reads, st.inflight);
        st.reads += 1;
        st.inflight += 1;
        let nanos = wait.as_nanos() as u64;
        if demand {
            st.stats.demand_wait_nanos += nanos;
        } else {
            st.stats.prefetch_wait_nanos += nanos;
        }
        if model.pacing == Pacing::Sleep && !wait.is_zero() {
            self.state = None;
            std::thread::sleep(wait);
            self.state = Some(self.engine.state.lock());
        }
        self.st().inflight -= 1;
        wait
    }

    /// Promotes `key` after a cold demand read, subject to the
    /// frequency-admission filter: below the `admit_after` touch
    /// threshold nothing happens, and at capacity the challenger must
    /// beat the CLOCK victim's touch count to displace it.
    fn promote_demand(&mut self, key: u64) {
        let admit_after = self.engine.admit_after;
        let st = self.st();
        if admit_after > 1 {
            let challenger = st.touches(key);
            if challenger < admit_after {
                return;
            }
            if let Some(victim) = st.clock.victim_key() {
                // Strictly greater: a tie keeps the resident row, so
                // equal-count boundary rows don't thrash each other.
                if challenger <= st.touches(victim) {
                    return;
                }
            }
        }
        // Under `Pacing::Sleep` another access may have made the row
        // resident while this one slept: then nothing is promoted.
        if let Some(inserted) = st.clock.insert(key, false) {
            st.stats.promotions += 1;
            st.stats.prefetch_wasted += u64::from(inserted.evicted_prefetched_unused);
        }
    }

    /// `key`'s record, opaque, for a caller to prefetch a few accesses
    /// ahead of [`TierSession::demand_access`] (`None`: no record yet).
    #[inline]
    pub fn record(&self, key: u64) -> Option<&impl Sized> {
        self.state.as_ref()?.clock.rows.get(key)
    }

    /// One demand access to `key` (the store calls this for every row
    /// that missed the hot-row cache). Resident rows are free; cold rows
    /// charge the latency model and get promoted.
    pub fn demand_access(&mut self, key: u64) -> TierAccess {
        let (admit_after, admission_capacity) =
            (self.engine.admit_after, self.engine.admission_capacity);
        let st = self.st();
        if admit_after > 1 {
            st.count_touch(key, admission_capacity);
        }
        if let Touch::Resident {
            was_prefetched_unused,
        } = st.clock.touch(key)
        {
            st.stats.dram_hits += 1;
            st.stats.prefetch_hits += u64::from(was_prefetched_unused);
            return TierAccess::DramHit;
        }
        st.stats.cold_demand_reads += 1;
        let wait = self.charge_cold_read(true);
        self.promote_demand(key);
        TierAccess::ColdMiss { wait }
    }

    /// One prefetch fill: pays the cold latency off the critical path and
    /// promotes the row flagged prefetched-unused. No-op when the row is
    /// already resident (a demand read, or an earlier fill, got there
    /// first); under [`Pacing::Sleep`] it also fills nothing if the row
    /// became resident while the fill slept, though the read was issued
    /// and charged.
    ///
    /// `verify` is the staleness re-check: it runs *under the tier lock*
    /// immediately before the insert, and a `false` abandons the fill
    /// (counted `prefetch_aborted_stale`) instead of parking the row.
    /// The store passes a closure comparing the owning table's write
    /// stamp against the value captured when the fill began. Because the
    /// update path bumps the stamp before calling
    /// [`TierEngine::invalidate`] — which takes the same lock — the two
    /// linearize: either the fill sees the bumped stamp and aborts, or
    /// it inserts first and the update's invalidate removes it. A stale
    /// pre-update fill can never survive as resident.
    ///
    /// Returns whether this call made the row resident.
    pub fn prefetch_fill_if(&mut self, key: u64, verify: impl FnOnce() -> bool) -> bool {
        let st = self.st();
        if st.clock.contains(key) {
            return false;
        }
        st.stats.prefetch_issued += 1;
        self.charge_cold_read(false);
        let st = self.st();
        if !verify() {
            st.stats.prefetch_aborted_stale += 1;
            return false;
        }
        // As in `promote_demand`: a row made resident while this fill
        // slept is not filled again.
        let Some(inserted) = st.clock.insert(key, true) else {
            return false;
        };
        st.stats.promotions += 1;
        st.stats.prefetch_fills += 1;
        st.stats.prefetch_wasted += u64::from(inserted.evicted_prefetched_unused);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn charge_only(budget: usize) -> TierEngine {
        TierEngine::new(&TierConfig {
            dram_budget_rows: budget,
            cold_read: ColdReadModel {
                base: Duration::from_micros(10),
                jitter: Duration::from_micros(1),
                per_inflight: Duration::ZERO,
                seed: 3,
                pacing: Pacing::Charge,
            },
            prefetch: true,
            admit_after: 1,
            combine: None,
        })
    }

    #[test]
    fn cold_then_hot_and_wait_is_charged() {
        let t = charge_only(4);
        let TierAccess::ColdMiss { wait } = t.demand_access(7) else {
            panic!("first access must be cold");
        };
        assert!(wait >= Duration::from_micros(10));
        assert_eq!(t.demand_access(7), TierAccess::DramHit);
        let s = t.stats();
        assert_eq!(s.cold_demand_reads, 1);
        assert_eq!(s.dram_hits, 1);
        assert_eq!(s.demand_wait_nanos, wait.as_nanos() as u64);
        assert_eq!(s.prefetch_wait_nanos, 0);
    }

    #[test]
    fn prefetch_fill_makes_demand_free_and_counts_a_hit() {
        let t = charge_only(4);
        assert!(t.session().prefetch_fill_if(9, || true), "the fill parks 9");
        assert!(!t.session().prefetch_fill_if(9, || true), "9 is resident");
        assert_eq!(t.demand_access(9), TierAccess::DramHit);
        let s = t.stats();
        assert_eq!(s.prefetch_issued, 1);
        assert_eq!(s.prefetch_fills, 1);
        assert_eq!(s.prefetch_hits, 1);
        assert_eq!(s.cold_demand_reads, 0);
        assert_eq!(s.demand_wait_nanos, 0);
        assert!(s.prefetch_wait_nanos > 0, "fill latency charged off-path");
    }

    #[test]
    fn a_fill_behind_its_demand_read_is_a_no_op() {
        let t = charge_only(4);
        // Demand arrives before the fill and pays the cold read itself.
        assert!(matches!(t.demand_access(5), TierAccess::ColdMiss { .. }));
        // Resident now; the fill starts nothing.
        assert!(!t.session().prefetch_fill_if(5, || true));
        let s = t.stats();
        assert_eq!(s.cold_demand_reads, 1);
        assert_eq!((s.prefetch_issued, s.prefetch_fills), (0, 0));
        assert_eq!(s.prefetch_wait_nanos, 0);
    }

    /// An engine whose cold reads sleep with the tier lock released:
    /// 100 ms, and 100 ms more for each read already in service.
    fn sleeping(budget: usize) -> TierEngine {
        TierEngine::new(&TierConfig {
            dram_budget_rows: budget,
            cold_read: ColdReadModel {
                base: Duration::from_millis(100),
                jitter: Duration::ZERO,
                per_inflight: Duration::from_millis(100),
                seed: 3,
                pacing: Pacing::Sleep,
            },
            prefetch: true,
            admit_after: 1,
            combine: None,
        })
    }

    /// Returns once a demand read is asleep: its cold read is counted
    /// under the lock it drops to sleep. A second read started now is
    /// charged 200 ms, so it wakes after the first has promoted its row.
    fn once_asleep(t: &TierEngine) {
        while t.stats().cold_demand_reads == 0 {
            std::thread::yield_now();
        }
    }

    #[test]
    fn two_demands_that_overlap_a_sleep_promote_the_row_once() {
        let t = sleeping(4);
        std::thread::scope(|s| {
            s.spawn(|| t.demand_access(7));
            once_asleep(&t);
            // 7 is not resident yet: this read is cold too, and wakes
            // after the first has promoted the row.
            assert!(matches!(t.demand_access(7), TierAccess::ColdMiss { .. }));
        });
        let s = t.stats();
        assert_eq!(s.cold_demand_reads, 2, "the two reads did not overlap");
        assert_eq!((s.promotions, s.dram_resident_rows), (1, 1), "{s:?}");
    }

    #[test]
    fn a_fill_that_overlaps_a_demand_sleep_fills_nothing() {
        let t = sleeping(4);
        std::thread::scope(|s| {
            s.spawn(|| t.demand_access(7));
            once_asleep(&t);
            assert!(
                !t.session().prefetch_fill_if(7, || true),
                "the demand read made 7 resident while the fill slept"
            );
        });
        let s = t.stats();
        assert_eq!(s.prefetch_issued, 1, "the fill did not overlap");
        assert_eq!((s.promotions, s.prefetch_fills), (1, 0), "{s:?}");
        assert_eq!(s.dram_resident_rows, 1);
    }

    #[test]
    fn wasted_prefetch_is_counted_on_eviction() {
        let t = charge_only(1);
        t.session().prefetch_fill_if(1, || true);
        // Budget 1: promoting key 2 evicts the never-used prefetched 1.
        assert!(matches!(t.demand_access(2), TierAccess::ColdMiss { .. }));
        // One sweep clears 1's bit, the next insert takes it.
        assert!(matches!(t.demand_access(3), TierAccess::ColdMiss { .. }));
        assert!(t.stats().prefetch_wasted >= 1, "{:?}", t.stats());
    }

    #[test]
    fn admission_filter_needs_repeat_touches_but_prefetch_bypasses() {
        let mut cfg = TierConfig::new(4);
        cfg.cold_read = ColdReadModel {
            pacing: Pacing::Charge,
            ..ColdReadModel::default()
        };
        cfg.admit_after = 2;
        let t = TierEngine::new(&cfg);
        // First demand touch: cold, below the threshold — not promoted.
        assert!(matches!(t.demand_access(7), TierAccess::ColdMiss { .. }));
        assert!(!t.is_resident(7), "one touch must not admit");
        // Second touch crosses the threshold: still cold, now promoted.
        assert!(matches!(t.demand_access(7), TierAccess::ColdMiss { .. }));
        assert!(t.is_resident(7));
        assert_eq!(t.demand_access(7), TierAccess::DramHit);
        // A prefetch fill skips the filter entirely.
        t.session().prefetch_fill_if(9, || true);
        assert!(t.is_resident(9), "prefetch fill bypasses admission");
        let s = t.stats();
        assert_eq!(s.cold_demand_reads, 2);
        assert_eq!(s.promotions, 2);
    }

    #[test]
    fn invalidate_drops_residency() {
        let t = charge_only(4);
        t.demand_access(7); // resident by demand
        t.session().prefetch_fill_if(8, || true); // resident by fill
        assert!(t.invalidate(7));
        assert!(t.invalidate(8));
        assert!(!t.invalidate(9), "unknown key is a no-op");
        assert!(!t.invalidate(7), "nothing left to drop");
        assert!(!t.is_resident(7) && !t.is_resident(8));
        assert_eq!(t.stats().invalidations, 2);
    }

    #[test]
    fn stale_fill_aborts_instead_of_parking_retired_bytes() {
        // The satellite-2 interleaving, driven deterministically: a fill
        // captures the table's write stamp, the row is updated (stamp
        // bump + invalidate) mid-fill, and the fill's verify must abort.
        let t = charge_only(4);
        let stamp = AtomicU64::new(0);
        let observed = stamp.load(Ordering::Acquire); // fill begins
        stamp.fetch_add(1, Ordering::AcqRel); // update lands mid-fill
        t.invalidate(5);
        let parked = t
            .session()
            .prefetch_fill_if(5, || stamp.load(Ordering::Acquire) == observed);
        assert!(
            !parked && !t.is_resident(5),
            "a fill that raced a row update parked stale bytes as resident"
        );
        let s = t.stats();
        assert_eq!(s.prefetch_aborted_stale, 1);
        assert_eq!(s.prefetch_fills, 0);
        // The same fill with an unchanged stamp parks normally.
        let observed = stamp.load(Ordering::Acquire);
        t.session()
            .prefetch_fill_if(5, || stamp.load(Ordering::Acquire) == observed);
        assert!(t.is_resident(5));
        assert_eq!(t.stats().prefetch_fills, 1);
    }

    #[test]
    fn residency_gauges_and_predicate_counting() {
        let t = charge_only(8);
        for key in [1u64, 2, (1 << 32) | 3] {
            t.demand_access(key);
        }
        let s = t.stats();
        assert_eq!(s.dram_budget_rows, 8);
        assert_eq!(s.dram_resident_rows, 3);
        assert_eq!(t.count_resident(|k| (k >> 32) == 0), 2);
        assert_eq!(t.count_resident(|k| (k >> 32) == 1), 1);
        assert!(t.is_resident(2) && !t.is_resident(4));
    }

    #[test]
    fn asking_about_unseen_rows_does_not_grow_the_index() {
        let t = charge_only(4);
        t.register_table(0, 16);
        t.demand_access(3);
        let bytes = t.index_bytes();
        assert!(bytes >= 16 * 8);
        for i in 0..10_000u64 {
            // Rows past table 0's end, and tables never registered.
            let key = ((i % 7) << 32) | (16 + i);
            assert!(!t.invalidate(key));
            assert!(!t.is_resident(key));
        }
        assert_eq!(t.count_resident(|key| key >= 16), 0);
        assert_eq!(t.index_bytes(), bytes);
        // A touch grows it, in a table nobody registered.
        t.demand_access((1 << 32) | 16);
        assert!(t.index_bytes() > bytes);
    }

    #[test]
    fn a_registered_table_never_grows_past_its_rows() {
        let t = charge_only(4);
        t.register_table(0, 16);
        let bytes = t.index_bytes();
        assert!(!t.is_resident(16) && !t.invalidate(u64::from(u32::MAX)));
        let touched = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.demand_access(u64::from(u32::MAX))
        }));
        let msg = *touched.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("past the end of table 0"), "{msg}");
        assert_eq!(t.index_bytes(), bytes, "the stray row allocated");
        // The engine is intact: the table's last row goes cold, then hot.
        assert!(matches!(t.demand_access(15), TierAccess::ColdMiss { .. }));
        assert_eq!(t.demand_access(15), TierAccess::DramHit);
        assert_eq!(t.stats().dram_resident_rows, 1);
    }

    #[test]
    fn admission_survives_the_epoch_counter_wrapping() {
        let mut cfg = TierConfig::new(1);
        cfg.cold_read.pacing = Pacing::Charge;
        cfg.admit_after = 2;
        let t = TierEngine::new(&cfg);
        // Row 5 is touched once in epoch 0, then the counter is put one
        // reset short of coming back round to 0.
        t.demand_access(5);
        t.state.lock().epoch = EPOCHS - 1;
        // 1024 fresh rows fill the sketch: the epoch wraps to 0.
        for key in 100..100 + 1024 {
            t.demand_access(key);
        }
        assert_eq!(t.state.lock().epoch, 0);
        // Row 5's touch from the first epoch 0 must not count in this
        // one: one more touch is its first, not its admitting second.
        t.demand_access(5);
        assert!(
            !t.is_resident(5),
            "a touch from {EPOCHS} resets ago counted"
        );
        t.demand_access(5);
        assert!(t.is_resident(5));
    }

    #[test]
    fn the_budget_stops_one_row_short_of_what_a_slot_field_indexes() {
        let limit = crate::clock::BUDGET_LIMIT;
        assert_eq!(limit, 1 << 24);
        let below = TierEngine::new(&TierConfig::new(limit - 1));
        assert_eq!(below.stats().dram_budget_rows, limit as u64 - 1);
        drop(below);
        let at = std::panic::catch_unwind(|| TierEngine::new(&TierConfig::new(limit)));
        let msg = *at.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("not below 16777216"), "{msg}");
    }
}
