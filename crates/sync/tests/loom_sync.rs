//! Model-checked interleaving tests for the `drec-sync` primitives.
//!
//! This whole file is compiled out of plain builds: without `--cfg loom`
//! the primitives are transparent `std` wrappers with no schedule
//! points, so the explorer would see a single schedule and learn
//! nothing. CI runs this suite with
//! `RUSTFLAGS="--cfg loom" cargo test -p drec-sync --test loom_sync`.
//!
//! Every test keeps thread counts at 2-3 and operation counts tiny: the
//! explorer enumerates *every* interleaving of instrumented operations
//! under the preemption bound, so state-space size is the budget.
#![cfg(loom)]

use std::sync::Arc;

use drec_sync::atomic::{AtomicBool, AtomicU64};
use drec_sync::model::model;
use drec_sync::thread::{spawn, yield_now};
use drec_sync::{Condvar, EventCount, EvictPush, EvictRing, Mutex, Ordering};

/// Two threads doing read-modify-write through a `Mutex` must never lose
/// an update, in any interleaving.
#[test]
fn mutex_rmw_is_atomic_under_all_schedules() {
    model(|| {
        let value = Arc::new(Mutex::new(0u64));
        let v2 = Arc::clone(&value);
        let t = spawn(move || {
            let mut g = v2.lock();
            *g += 1;
        });
        {
            let mut g = value.lock();
            *g += 1;
        }
        t.join().unwrap();
        assert_eq!(*value.lock(), 2, "one increment was lost");
    });
}

/// The flag-under-mutex + condvar pattern (the prefetcher's job-queue
/// handoff in `drec-serve` uses exactly this shape): the waiter must see
/// the flag no matter where the notify lands, including *before* the
/// waiter first takes the lock.
#[test]
fn condvar_flag_handoff_never_misses_the_wakeup() {
    model(|| {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p = Arc::clone(&pair);
        let t = spawn(move || {
            *p.0.lock() = true;
            p.1.notify_one();
        });
        let (lock, cv) = &*pair;
        let mut done = lock.lock();
        while !*done {
            done = cv.wait(done);
        }
        t.join().unwrap();
    });
}

/// EventCount's generation protocol: a waiter that read `seen` *before*
/// the producer's `advance` must not sleep past it — the wake side
/// carries no payload, so a lost pulse would stall a dispatcher until
/// its housekeeping timeout. The explorer drives the pulse into every
/// position relative to the wait.
#[test]
fn event_count_pulse_between_read_and_wait_is_not_lost() {
    model(|| {
        let events = Arc::new(EventCount::new());
        let ready = Arc::new(AtomicBool::new(false));
        let (e2, r2) = (Arc::clone(&events), Arc::clone(&ready));
        let t = spawn(move || {
            r2.store(true, Ordering::SeqCst);
            e2.advance();
        });
        let mut seen = events.generation();
        while !ready.load(Ordering::SeqCst) {
            // Deadline None = housekeeping timeout; under the model a
            // timed wait is a nondeterministic branch, so this loop
            // terminates in every schedule, but a *correct* EventCount
            // must also wake promptly via the generation check.
            seen = events.wait_until(seen, None);
        }
        t.join().unwrap();
    });
}

/// Two producers, one consumer: every pushed value pops exactly once,
/// FIFO per producer, no value invented or lost — in every interleaving
/// of the ring's atomics.
#[test]
fn evict_ring_mpsc_delivers_each_value_exactly_once() {
    model(|| {
        let ring = Arc::new(EvictRing::with_capacity(4));
        let producers: Vec<_> = (0..2u64)
            .map(|p| {
                let ring = Arc::clone(&ring);
                spawn(move || ring.push(p, 1, p).is_ok())
            })
            .collect();
        let mut got = Vec::new();
        while got.len() < 2 {
            match ring.pop() {
                Some(v) => got.push(v),
                None => yield_now(),
            }
        }
        for t in producers {
            assert!(t.join().unwrap(), "capacity-4 ring rejected a push");
        }
        got.sort_unstable();
        assert_eq!(got, vec![0, 1], "values lost or duplicated");
        assert!(ring.pop().is_none(), "ring conjured an extra value");
    });
}

/// A full ring of low-priority work plus one concurrent high-priority
/// `push_or_evict` racing a consumer: the arrival must land (by
/// eviction or by a pop having made room) and the total number of
/// values flowing through the ring must balance.
#[test]
fn evict_ring_eviction_racing_pop_conserves_values() {
    model(|| {
        let ring = Arc::new(EvictRing::with_capacity(2));
        let cap = ring.capacity();
        for i in 0..cap as u64 {
            ring.push(i, 0, i).unwrap();
        }
        let r2 = Arc::clone(&ring);
        let consumer = spawn(move || r2.pop().expect("full ring had nothing to pop"));
        let evicted = match ring.push_or_evict(100, 2, 100) {
            EvictPush::Evicted(victim) => Some(victim),
            EvictPush::NoVictim(mut value) => {
                // The scan is best-effort under concurrency: the racing
                // pop can hide every candidate. The consumer's pop frees
                // a slot, so a plain push must eventually land.
                loop {
                    match ring.push(value, 2, 100) {
                        Ok(()) => break,
                        Err(back) => {
                            value = back;
                            yield_now();
                        }
                    }
                }
                None
            }
        };
        let popped = consumer.join().unwrap();
        let mut remaining = Vec::new();
        while let Some(v) = ring.pop() {
            remaining.push(v);
        }
        let mut all: Vec<u64> = remaining;
        all.push(popped);
        all.extend(evicted);
        all.sort_unstable();
        let mut expected: Vec<u64> = (0..cap as u64).collect();
        expected.push(100);
        assert_eq!(all, expected, "a value was lost or duplicated");
    });
}

/// `len()` beside a push and a pop of the only value: the ring never
/// holds more than one, so no snapshot may read more. Reading `enqueue`
/// before `dequeue` fails this with one preemption — the pop lands
/// between the two loads, `dequeue` comes out one past `enqueue`, and
/// the wrapped difference is clamped to `capacity`.
#[test]
fn evict_ring_len_never_exceeds_the_values_pushed() {
    model(|| {
        let ring = Arc::new(EvictRing::with_capacity(2));
        let r2 = Arc::clone(&ring);
        let mover = spawn(move || {
            r2.push(7u64, 0, 0).unwrap();
            assert_eq!(r2.pop(), Some(7));
        });
        let len = ring.len();
        assert!(len <= 1, "one value pushed, len() read {len}");
        mover.join().unwrap();
        assert_eq!(ring.len(), 0);
    });
}

/// Seed-style smoke that the explorer really explores: contention on one
/// atomic yields more than one schedule (sanity for the suite above —
/// if this fails the other tests are vacuously passing on one path).
#[test]
fn explorer_visits_multiple_schedules() {
    use std::sync::atomic::AtomicUsize as StdAtomicUsize;
    let runs = Arc::new(StdAtomicUsize::new(0));
    let r = Arc::clone(&runs);
    model(move || {
        r.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let counter = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&counter);
        let t = spawn(move || c.fetch_add(1, Ordering::SeqCst));
        counter.fetch_add(1, Ordering::SeqCst);
        t.join().unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 2);
    });
    assert!(
        runs.load(std::sync::atomic::Ordering::Relaxed) > 1,
        "explorer saw a single schedule for contended atomics"
    );
}

/// The epoch flip race, model-checked: a reader pinning concurrently
/// with `synchronize` either lands in the old bank (and the writer
/// waits for it — but it unpins immediately here, so the wait ends) or
/// migrates to the new bank (and the writer returns without waiting).
/// In every interleaving, `synchronize` terminates and the counters
/// balance back to zero.
#[test]
fn epoch_pin_racing_synchronize_never_wedges_or_leaks() {
    use drec_sync::EpochGc;
    model(|| {
        let gc = Arc::new(EpochGc::new());
        let reader = {
            let gc = Arc::clone(&gc);
            spawn(move || {
                let guard = gc.pin();
                drop(guard);
            })
        };
        gc.synchronize();
        reader.join().unwrap();
        assert_eq!(gc.pinned_readers(), 0, "a pin leaked through the flip");
        assert_eq!(gc.synchronizations(), 1);
    });
}

/// The retirement guarantee epoch-based reclamation leans on: a writer
/// that rewrites a value and then `synchronize`s must observe every
/// pre-flip reader's side effects before retiring. The reader here
/// copies the shared value into a "cache" slot while pinned (modelling
/// a stale cache insert); after synchronize the writer clears
/// the slot — and in no interleaving can the stale copy survive, because
/// any pinned reader's insert happens-before its unpin, which
/// happens-before synchronize returns.
#[test]
fn epoch_synchronize_orders_reader_side_effects_before_retirement() {
    use drec_sync::EpochGc;
    model(|| {
        let gc = Arc::new(EpochGc::new());
        let value = Arc::new(AtomicU64::new(1));
        let cache = Arc::new(AtomicU64::new(0));
        let reader = {
            let gc = Arc::clone(&gc);
            let value = Arc::clone(&value);
            let cache = Arc::clone(&cache);
            spawn(move || {
                let guard = gc.pin();
                // Read whatever version is current and "cache" it.
                let seen = value.load(Ordering::SeqCst);
                cache.store(seen, Ordering::SeqCst);
                drop(guard);
            })
        };
        // Writer: publish version 2, wait out pre-flip readers, then
        // invalidate the cache (a writer that retires what its readers
        // may have cached).
        value.store(2, Ordering::SeqCst);
        gc.synchronize();
        cache.store(0, Ordering::SeqCst);
        reader.join().unwrap();
        let cached = cache.load(Ordering::SeqCst);
        assert!(
            cached == 0 || cached == 2,
            "a retired (stale) value survived the post-synchronize \
             invalidate: cache = {cached}"
        );
    });
}
