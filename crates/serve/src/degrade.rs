//! Graceful degradation: the overload ladder.
//!
//! Under sustained queue pressure the runtime does not jump straight to
//! shedding. It walks a ladder of progressively cheaper service modes,
//! trading batch latency and then embedding fidelity for throughput:
//!
//! | level | name               | effect                                    |
//! |-------|--------------------|-------------------------------------------|
//! | 0     | Normal             | full batches, full-fidelity lookups       |
//! | 1     | UpdateBackpressure | live parameter updates throttled — reads  |
//! |       |                    | never are (the cheapest capacity to shed  |
//! |       |                    | is background delta application)          |
//! | 2     | ReducedBatch       | max batch halved → shorter coalesce waits |
//! | 3     | CacheOnly          | embedding reads from hot-row cache only;  |
//! |       |                    | cold shards skipped (counted quality loss)|
//!
//! Shedding ([`crate::ServeError::Overloaded`]) remains the backstop
//! above the ladder, and priority-aware eviction runs underneath it.
//!
//! Transitions are driven by queue depth as a fraction of capacity, with
//! hysteresis so the ladder does not flap: a level entered at fraction
//! `t` is only left once depth falls below `t * exit_hysteresis`. Every
//! transition increments an atomic counter, exported through
//! [`crate::MetricsRegistry`] snapshots, so degradation is observable
//! rather than silent.

use std::sync::Arc;

use drec_store::EmbeddingStore;
use drec_sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// Thresholds and floors for the overload ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradeConfig {
    /// Queue-depth fraction (of `queue_capacity`) at which the ladder
    /// steps to [`OverloadLevel::UpdateBackpressure`] — live parameter
    /// update application is throttled before any read-path degradation.
    pub update_backpressure_at: f64,
    /// Queue-depth fraction (of `queue_capacity`) at which the ladder
    /// steps to [`OverloadLevel::ReducedBatch`].
    pub reduce_batch_at: f64,
    /// Queue-depth fraction at which the ladder steps to
    /// [`OverloadLevel::CacheOnly`].
    pub cache_only_at: f64,
    /// A level entered at fraction `t` is left once depth falls below
    /// `t * exit_hysteresis` (must be in `(0, 1]`; 1 disables
    /// hysteresis).
    pub exit_hysteresis: f64,
    /// Smallest batch the ladder will shrink to at `ReducedBatch`.
    pub min_batch: usize,
}

impl Default for DegradeConfig {
    fn default() -> Self {
        DegradeConfig {
            update_backpressure_at: 0.3,
            reduce_batch_at: 0.5,
            cache_only_at: 0.8,
            exit_hysteresis: 0.5,
            min_batch: 1,
        }
    }
}

/// The rung of the overload ladder the runtime currently stands on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OverloadLevel {
    /// Full-fidelity service.
    Normal,
    /// Live parameter update application is throttled (the updater
    /// pauses between delta batches). Reads are **never** throttled by
    /// this rung — background write capacity is the cheapest thing to
    /// shed, so it goes first.
    UpdateBackpressure,
    /// Max batch size halved (floored at `min_batch`) so coalesce waits
    /// shrink and queue drain accelerates.
    ReducedBatch,
    /// Embedding lookups served from the hot-row cache only; cold-shard
    /// reads are skipped and counted as quality loss.
    CacheOnly,
}

impl OverloadLevel {
    fn from_u8(v: u8) -> OverloadLevel {
        match v {
            0 => OverloadLevel::Normal,
            1 => OverloadLevel::UpdateBackpressure,
            2 => OverloadLevel::ReducedBatch,
            _ => OverloadLevel::CacheOnly,
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            OverloadLevel::Normal => 0,
            OverloadLevel::UpdateBackpressure => 1,
            OverloadLevel::ReducedBatch => 2,
            OverloadLevel::CacheOnly => 3,
        }
    }
}

impl std::fmt::Display for OverloadLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            OverloadLevel::Normal => "normal",
            OverloadLevel::UpdateBackpressure => "update-backpressure",
            OverloadLevel::ReducedBatch => "reduced-batch",
            OverloadLevel::CacheOnly => "cache-only",
        })
    }
}

/// Shared overload-ladder state. Producers call [`observe`] on every
/// admission attempt; workers consult `max_batch`; the live-update
/// path consults `updates_throttled`; the store is toggled in and out
/// of cache-only mode at the level-3 boundary.
///
/// [`observe`]: OverloadLadder::observe
#[derive(Debug)]
pub struct OverloadLadder {
    cfg: DegradeConfig,
    capacity: usize,
    level: AtomicU8,
    /// Ladder steps up (toward degradation), by destination level.
    steps_up: [AtomicU64; 3],
    /// Ladder steps down (toward recovery), by origin level.
    steps_down: [AtomicU64; 3],
    store: Option<Arc<EmbeddingStore>>,
}

impl OverloadLadder {
    /// Builds a ladder over a queue of `capacity` slots. When `store` is
    /// given and has a hot-row cache, level 3 toggles it into cache-only
    /// mode; otherwise level 3 only shrinks batches further (the store
    /// refuses cache-only without a cache — see
    /// [`EmbeddingStore::set_cache_only`]).
    pub fn new(cfg: DegradeConfig, capacity: usize, store: Option<Arc<EmbeddingStore>>) -> Self {
        OverloadLadder {
            cfg,
            capacity: capacity.max(1),
            level: AtomicU8::new(0),
            steps_up: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
            steps_down: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
            store,
        }
    }

    /// Current level.
    pub fn level(&self) -> OverloadLevel {
        OverloadLevel::from_u8(self.level.load(Ordering::Acquire))
    }

    /// Observes the instantaneous queue depth and walks the ladder one
    /// rung at a time. Called under the queue lock, so transitions are
    /// serialized; the atomics exist for lock-free *readers*.
    pub fn observe(&self, depth: usize) {
        let fraction = depth as f64 / self.capacity as f64;
        loop {
            let level = self.level();
            let target = self.target_for(level, fraction);
            if target == level {
                return;
            }
            // Step one rung toward the target.
            let next = if target > level {
                OverloadLevel::from_u8(level.as_u8() + 1)
            } else {
                OverloadLevel::from_u8(level.as_u8() - 1)
            };
            if self
                .level
                .compare_exchange(
                    level.as_u8(),
                    next.as_u8(),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_err()
            {
                // Lost a race with another observer; re-read and retry.
                continue;
            }
            self.on_transition(level, next);
        }
    }

    /// Where the ladder should stand for `fraction`, honouring
    /// hysteresis relative to the current `level`.
    fn target_for(&self, level: OverloadLevel, fraction: f64) -> OverloadLevel {
        let h = self.cfg.exit_hysteresis.clamp(0.0, 1.0);
        // Enter thresholds.
        let enter = if fraction >= self.cfg.cache_only_at {
            OverloadLevel::CacheOnly
        } else if fraction >= self.cfg.reduce_batch_at {
            OverloadLevel::ReducedBatch
        } else if fraction >= self.cfg.update_backpressure_at {
            OverloadLevel::UpdateBackpressure
        } else {
            OverloadLevel::Normal
        };
        if enter >= level {
            return enter;
        }
        // Stepping down: only once depth falls below the *exit* threshold
        // of the current level.
        let exit_threshold = match level {
            OverloadLevel::CacheOnly => self.cfg.cache_only_at * h,
            OverloadLevel::ReducedBatch => self.cfg.reduce_batch_at * h,
            OverloadLevel::UpdateBackpressure => self.cfg.update_backpressure_at * h,
            OverloadLevel::Normal => return OverloadLevel::Normal,
        };
        if fraction < exit_threshold {
            enter
        } else {
            level
        }
    }

    fn on_transition(&self, from: OverloadLevel, to: OverloadLevel) {
        if to > from {
            self.steps_up[(to.as_u8() - 1) as usize].fetch_add(1, Ordering::Relaxed);
        } else {
            self.steps_down[(from.as_u8() - 1) as usize].fetch_add(1, Ordering::Relaxed);
        }
        if let Some(store) = &self.store {
            match (from, to) {
                (_, OverloadLevel::CacheOnly) => store.set_cache_only(true),
                (OverloadLevel::CacheOnly, _) => store.set_cache_only(false),
                _ => {}
            }
        }
    }

    /// The batch cap workers should honour right now: `configured` at
    /// levels 0–1 (update backpressure never touches the read path),
    /// halved (floored at `min_batch`) at levels 2 and 3.
    pub(crate) fn max_batch(&self, configured: usize) -> usize {
        match self.level() {
            OverloadLevel::Normal | OverloadLevel::UpdateBackpressure => configured,
            OverloadLevel::ReducedBatch | OverloadLevel::CacheOnly => {
                (configured / 2).max(self.cfg.min_batch).max(1)
            }
        }
    }

    /// Whether live parameter update application should pause right now.
    /// True at every rung from [`OverloadLevel::UpdateBackpressure`] up —
    /// once the queue is deep enough to shed *any* capacity, background
    /// delta application is the first thing to go and the last to return.
    pub(crate) fn updates_throttled(&self) -> bool {
        self.level() >= OverloadLevel::UpdateBackpressure
    }

    /// `(entered_update_backpressure, entered_reduced_batch, entered_cache_only,
    /// recovered_from_update_backpressure, recovered_from_reduced_batch,
    /// recovered_from_cache_only)` transition counts.
    pub fn transition_counts(&self) -> (u64, u64, u64, u64, u64, u64) {
        (
            self.steps_up[0].load(Ordering::Relaxed),
            self.steps_up[1].load(Ordering::Relaxed),
            self.steps_up[2].load(Ordering::Relaxed),
            self.steps_down[0].load(Ordering::Relaxed),
            self.steps_down[1].load(Ordering::Relaxed),
            self.steps_down[2].load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ladder(capacity: usize) -> OverloadLadder {
        OverloadLadder::new(DegradeConfig::default(), capacity, None)
    }

    #[test]
    fn ladder_steps_up_and_down_with_hysteresis() {
        let l = ladder(100);
        assert_eq!(l.level(), OverloadLevel::Normal);
        l.observe(50);
        assert_eq!(l.level(), OverloadLevel::ReducedBatch);
        l.observe(80);
        assert_eq!(l.level(), OverloadLevel::CacheOnly);
        // Above the exit threshold (0.8 * 0.5 = 0.4): stay degraded.
        l.observe(45);
        assert_eq!(l.level(), OverloadLevel::CacheOnly);
        // Below 0.4: step down one rung. 0.3 still holds ReducedBatch
        // (its exit is 0.5 * 0.5 = 0.25).
        l.observe(30);
        assert_eq!(l.level(), OverloadLevel::ReducedBatch);
        // ...and below every exit threshold, all the way back to normal.
        l.observe(10);
        assert_eq!(l.level(), OverloadLevel::Normal);
        assert_eq!(l.transition_counts(), (1, 1, 1, 1, 1, 1));
    }

    #[test]
    fn deep_queue_walks_multiple_rungs_in_one_observation() {
        let l = ladder(10);
        l.observe(9);
        assert_eq!(l.level(), OverloadLevel::CacheOnly);
        assert_eq!(l.transition_counts(), (1, 1, 1, 0, 0, 0));
    }

    #[test]
    fn transitions_fire_exactly_at_threshold() {
        // Thresholds are inclusive: fraction >= update_backpressure_at enters.
        let l = ladder(100);
        l.observe(29);
        assert_eq!(l.level(), OverloadLevel::Normal);
        l.observe(30); // exactly 0.3
        assert_eq!(l.level(), OverloadLevel::UpdateBackpressure);
        l.observe(49);
        assert_eq!(l.level(), OverloadLevel::UpdateBackpressure);
        l.observe(50); // exactly 0.5
        assert_eq!(l.level(), OverloadLevel::ReducedBatch);
        l.observe(79);
        assert_eq!(l.level(), OverloadLevel::ReducedBatch);
        l.observe(80); // exactly 0.8
        assert_eq!(l.level(), OverloadLevel::CacheOnly);
        // Exactly at the exit threshold (0.8 * 0.5 = 0.4) is NOT below
        // it: the ladder holds. One sample under, it steps down.
        l.observe(40);
        assert_eq!(l.level(), OverloadLevel::CacheOnly);
        l.observe(39);
        assert_eq!(l.level(), OverloadLevel::ReducedBatch);
    }

    #[test]
    fn oscillation_inside_hysteresis_band_does_not_flap() {
        let l = ladder(100);
        l.observe(50);
        assert_eq!(l.level(), OverloadLevel::ReducedBatch);
        // ReducedBatch holds for any depth in [0.25, 0.5): oscillating
        // across the band must not generate transitions in either
        // direction.
        for depth in [49, 26, 45, 30, 49, 25, 40] {
            l.observe(depth);
            assert_eq!(l.level(), OverloadLevel::ReducedBatch, "depth {depth}");
        }
        assert_eq!(l.transition_counts(), (1, 1, 0, 0, 0, 0));
    }

    #[test]
    fn recovery_steps_down_one_rung_at_a_time() {
        let l = ladder(100);
        l.observe(90);
        assert_eq!(l.level(), OverloadLevel::CacheOnly);
        // An empty queue still walks CacheOnly→ReducedBatch→
        // UpdateBackpressure→Normal: every rung is traversed (counted),
        // never skipped, even in one observation.
        l.observe(0);
        assert_eq!(l.level(), OverloadLevel::Normal);
        let (up_ub, up_rb, up_co, down_ub, down_rb, down_co) = l.transition_counts();
        assert_eq!((up_ub, up_rb, up_co), (1, 1, 1));
        assert_eq!(
            (down_ub, down_rb, down_co),
            (1, 1, 1),
            "recovery must pass through every rung, not jump to Normal"
        );
    }

    #[test]
    fn update_backpressure_throttles_updates_but_never_reads() {
        let l = ladder(10);
        assert!(!l.updates_throttled());
        l.observe(3); // exactly 0.3: first rung
        assert_eq!(l.level(), OverloadLevel::UpdateBackpressure);
        assert!(l.updates_throttled());
        // The read path is untouched at this rung: full batches.
        assert_eq!(l.max_batch(16), 16);
        // 0.2 is above the exit threshold (0.3 * 0.5 = 0.15): hold.
        l.observe(2);
        assert_eq!(l.level(), OverloadLevel::UpdateBackpressure);
        // Below 0.15: recover, updates flow again.
        l.observe(1);
        assert_eq!(l.level(), OverloadLevel::Normal);
        assert!(!l.updates_throttled());
        assert_eq!(l.transition_counts(), (1, 0, 0, 1, 0, 0));
    }

    #[test]
    fn deeper_rungs_also_throttle_updates() {
        let l = ladder(10);
        l.observe(9);
        assert_eq!(l.level(), OverloadLevel::CacheOnly);
        assert!(
            l.updates_throttled(),
            "updates shed first, so they stay shed at every deeper rung"
        );
    }

    #[test]
    fn cache_only_store_toggles_follow_recovery_ordering() {
        use drec_store::StoreConfig;
        let store = Arc::new(EmbeddingStore::new(StoreConfig {
            cache_capacity_rows: 16,
            ..StoreConfig::default()
        }));
        let l = OverloadLadder::new(DegradeConfig::default(), 100, Some(Arc::clone(&store)));
        l.observe(90);
        assert!(
            store.cache_only(),
            "level 2 must put the store in cache-only"
        );
        // Stepping down out of CacheOnly restores full-fidelity reads
        // even while the ladder still sits at ReducedBatch.
        l.observe(39);
        assert_eq!(l.level(), OverloadLevel::ReducedBatch);
        assert!(!store.cache_only());
        l.observe(0);
        assert_eq!(l.level(), OverloadLevel::Normal);
        assert!(!store.cache_only());
    }

    #[test]
    fn max_batch_halves_under_degradation() {
        let l = ladder(10);
        assert_eq!(l.max_batch(16), 16);
        l.observe(6);
        assert_eq!(l.level(), OverloadLevel::ReducedBatch);
        assert_eq!(l.max_batch(16), 8);
        assert_eq!(l.max_batch(1), 1);
    }
}
