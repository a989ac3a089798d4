//! `drec-faultsim` — deterministic, seeded fault injection for the
//! serving stack.
//!
//! Production failures (a worker segfault, a slow shard, a corrupted
//! request) are rare and non-reproducible; robustness code guarding
//! against them rots untested. This crate makes every failure path in
//! `drec-serve`/`drec-store` *drivable*: a [`FaultPlan`] describes a
//! schedule of injected faults (panic on every nth executed batch,
//! latency spikes and read poisoning on every nth store-shard access,
//! malformed-tensor corruption on every nth batch), and a [`FaultHook`]
//! threads that schedule through the engine and embedding store.
//!
//! Two properties are load-bearing:
//!
//! * **Determinism.** The schedule is a pure function of the plan (seed
//!   and periods) and the global access counters — no wall clock, no OS
//!   randomness. Two runs of the same workload under the same plan
//!   inject the same faults at the same points, so a chaos run that
//!   found a hang is replayable.
//! * **Zero cost when disabled.** A disabled hook is an `Option` that is
//!   `None`; every injection site is a single predictable
//!   branch-on-None with no atomics touched. Production builds pass
//!   [`FaultHook::disabled`] and pay nothing.
//!
//! The seed perturbs each fault's *phase* within its period, so plans
//! with equal periods but different seeds trip at different batch
//! indices — useful for sweeping crash alignment against batch
//! boundaries without changing rates.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A deterministic schedule of injected faults.
///
/// Each fault is `None` (never fires) or `Some(n)` (fires once every `n`
/// events, at a seed-derived phase within the period). "Events" are
/// executed batches for [`FaultPlan::panic_every_n_batches`] and
/// [`FaultPlan::corrupt_every_n_batches`], and store row lookups for
/// [`FaultPlan::poison_every_n_reads`] and
/// [`FaultPlan::delay_every_n_reads`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Perturbs the phase of every periodic fault.
    pub seed: u64,
    /// Panic the executing worker on every nth batch (exercises
    /// `catch_unwind` isolation and supervisor restarts).
    pub panic_every_n_batches: Option<u64>,
    /// Corrupt the coalesced input tensors of every nth batch so graph
    /// execution fails with a typed error (exercises the
    /// `WorkerFailed` + retry path without killing the worker).
    pub corrupt_every_n_batches: Option<u64>,
    /// Poison every nth store row read: the read panics as if the
    /// shard's lock had been poisoned (exercises the panic path *inside*
    /// an operator, mid-batch).
    pub poison_every_n_reads: Option<u64>,
    /// Stall every nth store row read by [`FaultPlan::read_delay`]
    /// (models a per-op latency spike — a slow shard, a page fault on a
    /// cold embedding region).
    pub delay_every_n_reads: Option<u64>,
    /// Duration of an injected read stall.
    pub read_delay: Duration,
    /// Crash every nth update delta batch mid-application (exercises the
    /// store's atomic rollback to the prior version).
    pub update_crash_every_n_batches: Option<u64>,
    /// Delay every nth update batch's version publish by
    /// [`FaultPlan::update_publish_delay`] (widens the window in which
    /// readers legitimately serve version N−1).
    pub update_delay_every_n_batches: Option<u64>,
    /// Duration of an injected publish delay.
    pub update_publish_delay: Duration,
    /// Re-submit every nth update delta batch a second time (exercises
    /// the store's typed duplicate/version-conflict rejection).
    pub update_duplicate_every_n_batches: Option<u64>,
}

impl FaultPlan {
    /// A plan that injects nothing (equivalent to a disabled hook, but
    /// still counts events — useful for overhead measurement).
    pub fn quiet(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            panic_every_n_batches: None,
            corrupt_every_n_batches: None,
            poison_every_n_reads: None,
            delay_every_n_reads: None,
            read_delay: Duration::ZERO,
            update_crash_every_n_batches: None,
            update_delay_every_n_batches: None,
            update_publish_delay: Duration::ZERO,
            update_duplicate_every_n_batches: None,
        }
    }
}

/// What the engine should do with the batch it is about to execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchFault {
    /// Execute normally.
    None,
    /// Panic before executing (the event index is in the payload so the
    /// panic message identifies the injection).
    Panic {
        /// Global batch index the panic was scheduled at.
        batch: u64,
    },
    /// Corrupt the batch's coalesced inputs so execution fails with a
    /// typed error.
    Corrupt {
        /// Global batch index the corruption was scheduled at.
        batch: u64,
    },
}

/// What a store row read should do before touching its shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadFault {
    /// Read normally.
    None,
    /// Panic as if the shard lock were poisoned.
    Poison {
        /// Global read index the poisoning was scheduled at.
        read: u64,
    },
    /// Sleep for the plan's read delay, then read normally.
    Delay(Duration),
}

/// What the updater should do with the delta batch it is about to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateFault {
    /// Apply normally.
    None,
    /// The store crashes mid-application: half the deltas land, then the
    /// batch rolls back atomically to the prior version and the caller
    /// sees a typed abort.
    CrashMidBatch {
        /// Global update-batch index the crash was scheduled at.
        batch: u64,
    },
    /// Apply all deltas, then stall for the given duration before
    /// publishing the new version.
    DelayPublish(Duration),
    /// Apply normally, then re-submit the identical batch (same target
    /// version); the second submission must be rejected with a typed
    /// version conflict, not applied twice.
    DuplicateDelta {
        /// Global update-batch index the duplicate was scheduled at.
        batch: u64,
    },
}

/// Counts of faults actually injected so far (for reports and gates).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Batches executed through the hook.
    pub(crate) batches: u64,
    /// Row reads observed by the hook.
    pub(crate) reads: u64,
    /// Injected worker panics.
    pub(crate) panics: u64,
    /// Injected input corruptions.
    pub(crate) corruptions: u64,
    /// Injected poisoned reads.
    pub(crate) poisons: u64,
    /// Injected read delays.
    pub(crate) delays: u64,
    /// Update delta batches observed by the hook.
    pub update_batches: u64,
    /// Injected mid-batch update crashes (each rolls back atomically).
    pub update_crashes: u64,
    /// Injected publish delays on update batches.
    pub update_publish_delays: u64,
    /// Injected duplicate delta submissions.
    pub update_duplicates: u64,
}

#[derive(Debug)]
struct Periodic {
    period: u64,
    phase: u64,
    fired: AtomicU64,
}

impl Periodic {
    fn new(period: Option<u64>, seed: u64, tag: u64) -> Option<Periodic> {
        let period = period?.max(1);
        Some(Periodic {
            period,
            phase: splitmix(seed ^ tag) % period,
            fired: AtomicU64::new(0),
        })
    }

    /// Whether event number `event` (0-based) is an injection point.
    fn fires_at(&self, event: u64) -> bool {
        let hit = event % self.period == self.phase;
        if hit {
            self.fired.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    fn fired(&self) -> u64 {
        self.fired.load(Ordering::Relaxed)
    }
}

/// SplitMix64 finalizer — the deterministic seed-mixing primitive behind
/// every schedule in this crate. Public so other simulated-fault layers
/// (e.g. `drec-tier`'s cold-read latency jitter) derive their per-event
/// randomness from the same well-tested mixer instead of growing their
/// own.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Crate-internal alias kept so existing call sites read unchanged.
fn splitmix(z: u64) -> u64 {
    splitmix64(z)
}

#[derive(Debug)]
struct FaultState {
    batches: AtomicU64,
    reads: AtomicU64,
    panic: Option<Periodic>,
    corrupt: Option<Periodic>,
    poison: Option<Periodic>,
    delay: Option<Periodic>,
    read_delay: Duration,
    update_batches: AtomicU64,
    update_crash: Option<Periodic>,
    update_delay: Option<Periodic>,
    update_publish_delay: Duration,
    update_duplicate: Option<Periodic>,
}

/// A cheap, cloneable handle to a shared fault schedule, threaded
/// through `drec-serve`'s engine and `drec-store`'s lookup path.
///
/// All clones share one set of event counters, so "every nth batch"
/// means the nth batch *across the whole runtime*, regardless of which
/// worker executes it — that keeps total injection counts deterministic
/// under concurrency even though which worker trips a fault may vary.
#[derive(Debug, Clone, Default)]
pub struct FaultHook {
    state: Option<Arc<FaultState>>,
}

impl FaultHook {
    /// The production hook: injects nothing, costs one branch per site.
    pub fn disabled() -> FaultHook {
        FaultHook { state: None }
    }

    /// A hook driving `plan`'s schedule.
    pub fn from_plan(plan: &FaultPlan) -> FaultHook {
        FaultHook {
            state: Some(Arc::new(FaultState {
                batches: AtomicU64::new(0),
                reads: AtomicU64::new(0),
                panic: Periodic::new(plan.panic_every_n_batches, plan.seed, 0x70),
                corrupt: Periodic::new(plan.corrupt_every_n_batches, plan.seed, 0xC0),
                poison: Periodic::new(plan.poison_every_n_reads, plan.seed, 0x90),
                delay: Periodic::new(plan.delay_every_n_reads, plan.seed, 0xD0),
                read_delay: plan.read_delay,
                update_batches: AtomicU64::new(0),
                update_crash: Periodic::new(plan.update_crash_every_n_batches, plan.seed, 0x5C),
                update_delay: Periodic::new(plan.update_delay_every_n_batches, plan.seed, 0x5D),
                update_publish_delay: plan.update_publish_delay,
                update_duplicate: Periodic::new(
                    plan.update_duplicate_every_n_batches,
                    plan.seed,
                    0x5E,
                ),
            })),
        }
    }

    /// Called by the engine once per batch, *before* execution. Panics
    /// take precedence over corruptions when both are scheduled for the
    /// same batch.
    #[inline]
    pub fn on_batch(&self) -> BatchFault {
        let Some(state) = &self.state else {
            return BatchFault::None;
        };
        let batch = state.batches.fetch_add(1, Ordering::Relaxed);
        if state.panic.as_ref().is_some_and(|p| p.fires_at(batch)) {
            return BatchFault::Panic { batch };
        }
        if state.corrupt.as_ref().is_some_and(|p| p.fires_at(batch)) {
            return BatchFault::Corrupt { batch };
        }
        BatchFault::None
    }

    /// Called by the store once per read of a row that is not hot — a
    /// hit in the hot-row key set is served without consulting the hook —
    /// during the bag's residency phase, before any shard of the bag is
    /// touched. Poisoning takes precedence over delays.
    #[inline]
    pub fn on_read(&self) -> ReadFault {
        let Some(state) = &self.state else {
            return ReadFault::None;
        };
        let read = state.reads.fetch_add(1, Ordering::Relaxed);
        if state.poison.as_ref().is_some_and(|p| p.fires_at(read)) {
            return ReadFault::Poison { read };
        }
        if state.delay.as_ref().is_some_and(|p| p.fires_at(read)) {
            return ReadFault::Delay(state.read_delay);
        }
        ReadFault::None
    }

    /// Called by the updater once per delta batch, before handing it to
    /// the store. Crashes take precedence over publish delays, which
    /// take precedence over duplicates, when several are scheduled for
    /// the same batch.
    #[inline]
    pub fn on_update(&self) -> UpdateFault {
        let Some(state) = &self.state else {
            return UpdateFault::None;
        };
        let batch = state.update_batches.fetch_add(1, Ordering::Relaxed);
        if state
            .update_crash
            .as_ref()
            .is_some_and(|p| p.fires_at(batch))
        {
            return UpdateFault::CrashMidBatch { batch };
        }
        if state
            .update_delay
            .as_ref()
            .is_some_and(|p| p.fires_at(batch))
        {
            return UpdateFault::DelayPublish(state.update_publish_delay);
        }
        if state
            .update_duplicate
            .as_ref()
            .is_some_and(|p| p.fires_at(batch))
        {
            return UpdateFault::DuplicateDelta { batch };
        }
        UpdateFault::None
    }

    /// Events observed and faults injected so far (all zero for a
    /// disabled hook).
    pub fn counts(&self) -> FaultCounts {
        match &self.state {
            None => FaultCounts::default(),
            Some(s) => FaultCounts {
                batches: s.batches.load(Ordering::Relaxed),
                reads: s.reads.load(Ordering::Relaxed),
                panics: s.panic.as_ref().map_or(0, Periodic::fired),
                corruptions: s.corrupt.as_ref().map_or(0, Periodic::fired),
                poisons: s.poison.as_ref().map_or(0, Periodic::fired),
                delays: s.delay.as_ref().map_or(0, Periodic::fired),
                update_batches: s.update_batches.load(Ordering::Relaxed),
                update_crashes: s.update_crash.as_ref().map_or(0, Periodic::fired),
                update_publish_delays: s.update_delay.as_ref().map_or(0, Periodic::fired),
                update_duplicates: s.update_duplicate.as_ref().map_or(0, Periodic::fired),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_batches(hook: &FaultHook, n: u64) -> Vec<BatchFault> {
        (0..n).map(|_| hook.on_batch()).collect()
    }

    #[test]
    fn disabled_hook_injects_nothing_and_counts_nothing() {
        let hook = FaultHook::disabled();
        assert!(hook.state.is_none());
        for _ in 0..100 {
            assert_eq!(hook.on_batch(), BatchFault::None);
            assert_eq!(hook.on_read(), ReadFault::None);
        }
        assert_eq!(hook.counts(), FaultCounts::default());
    }

    #[test]
    fn panic_period_fires_once_per_period_deterministically() {
        let plan = FaultPlan {
            panic_every_n_batches: Some(5),
            ..FaultPlan::quiet(42)
        };
        let a = drain_batches(&FaultHook::from_plan(&plan), 50);
        let b = drain_batches(&FaultHook::from_plan(&plan), 50);
        assert_eq!(a, b, "same plan must give the same schedule");
        let panics = a
            .iter()
            .filter(|f| matches!(f, BatchFault::Panic { .. }))
            .count();
        assert_eq!(panics, 10, "one panic per period of 5 over 50 batches");
        let hook = FaultHook::from_plan(&plan);
        drain_batches(&hook, 50);
        assert_eq!(hook.counts().panics, 10);
        assert_eq!(hook.counts().batches, 50);
    }

    #[test]
    fn seed_changes_phase_not_rate() {
        let mk = |seed| FaultPlan {
            panic_every_n_batches: Some(7),
            ..FaultPlan::quiet(seed)
        };
        let schedules: Vec<Vec<BatchFault>> = (0..8u64)
            .map(|s| drain_batches(&FaultHook::from_plan(&mk(s)), 70))
            .collect();
        for s in &schedules {
            let panics = s
                .iter()
                .filter(|f| matches!(f, BatchFault::Panic { .. }))
                .count();
            assert_eq!(panics, 10);
        }
        // At least two of the eight seeds produce different phases.
        assert!(
            schedules.iter().any(|s| s != &schedules[0]),
            "all seeds produced the identical phase"
        );
    }

    #[test]
    fn panic_shadows_corrupt_on_collision() {
        // Same period and (forced) same phase: every firing batch must
        // be a panic, never a corrupt.
        let plan = FaultPlan {
            panic_every_n_batches: Some(1),
            corrupt_every_n_batches: Some(1),
            ..FaultPlan::quiet(3)
        };
        let hook = FaultHook::from_plan(&plan);
        for _ in 0..10 {
            assert!(matches!(hook.on_batch(), BatchFault::Panic { .. }));
        }
        assert_eq!(hook.counts().corruptions, 0);
    }

    #[test]
    fn read_faults_fire_on_schedule() {
        let plan = FaultPlan {
            poison_every_n_reads: Some(10),
            delay_every_n_reads: Some(3),
            read_delay: Duration::from_micros(1),
            ..FaultPlan::quiet(9)
        };
        let hook = FaultHook::from_plan(&plan);
        let faults: Vec<ReadFault> = (0..30).map(|_| hook.on_read()).collect();
        let poisons = faults
            .iter()
            .filter(|f| matches!(f, ReadFault::Poison { .. }))
            .count();
        let delays = faults
            .iter()
            .filter(|f| matches!(f, ReadFault::Delay(_)))
            .count();
        assert_eq!(poisons, 3);
        assert!(delays >= 9, "10 scheduled minus up to 1 shadowed: {delays}");
        assert_eq!(hook.counts().reads, 30);
    }

    #[test]
    fn update_faults_fire_on_schedule_with_crash_precedence() {
        let plan = FaultPlan {
            update_crash_every_n_batches: Some(4),
            update_delay_every_n_batches: Some(4),
            update_publish_delay: Duration::from_micros(5),
            update_duplicate_every_n_batches: Some(3),
            ..FaultPlan::quiet(11)
        };
        let hook = FaultHook::from_plan(&plan);
        let a: Vec<UpdateFault> = (0..24).map(|_| hook.on_update()).collect();
        let b: Vec<UpdateFault> = (0..24)
            .map(|_| FaultHook::from_plan(&plan).on_update())
            .collect();
        drop(b); // each fresh hook sees batch 0 — determinism is checked below
        let again: Vec<UpdateFault> = {
            let h = FaultHook::from_plan(&plan);
            (0..24).map(|_| h.on_update()).collect()
        };
        assert_eq!(a, again, "same plan must give the same update schedule");
        let crashes = a
            .iter()
            .filter(|f| matches!(f, UpdateFault::CrashMidBatch { .. }))
            .count();
        assert_eq!(crashes, 6, "one crash per period of 4 over 24 batches");
        let delays = a
            .iter()
            .filter(|f| matches!(f, UpdateFault::DelayPublish(_)))
            .count();
        // Crash and delay share period 4; whenever their phases collide
        // the crash shadows the delay entirely.
        assert!(delays <= 6);
        let counts = hook.counts();
        assert_eq!(counts.update_batches, 24);
        assert_eq!(counts.update_crashes, 6);
        assert!(counts.update_duplicates <= 8);
        // A disabled hook never injects update faults.
        assert_eq!(FaultHook::disabled().on_update(), UpdateFault::None);
    }

    #[test]
    fn clones_share_counters() {
        let plan = FaultPlan {
            panic_every_n_batches: Some(2),
            ..FaultPlan::quiet(1)
        };
        let hook = FaultHook::from_plan(&plan);
        let clone = hook.clone();
        drain_batches(&hook, 5);
        drain_batches(&clone, 5);
        assert_eq!(hook.counts().batches, 10);
        assert_eq!(hook.counts(), clone.counts());
        assert_eq!(hook.counts().panics, 5);
    }
}
