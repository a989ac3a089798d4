//! Event-count parking: the lock-free replacement for the
//! generation-counter-under-a-mutex + condvar-broadcast idiom.
//!
//! Producers call [`EventCount::advance`] after publishing work; it is a
//! single `fetch_add` plus one atomic load when no one is parked — the
//! common case on a busy system, where the old design paid a mutex
//! acquisition and a condvar broadcast per pulse. Consumers read
//! [`EventCount::generation`], re-check their queues, and park with
//! [`EventCount::wait_until`]; the register-then-recheck protocol below
//! makes the park immune to the missed-wakeup race.
//!
//! # Why no wake-up is lost
//!
//! The waiter (1) increments the parked-waiter count, (2) acquires the
//! park mutex, (3) re-reads the generation, and only then (4) releases
//! the mutex inside `Condvar::wait_timeout`. The notifier bumps the
//! generation *before* loading the waiter count, and notifies while
//! holding the park mutex. All generation and waiter-count accesses are
//! `SeqCst`, so either the waiter's re-read at (3) sees the bump and it
//! never parks, or the waiter-count load sees the registration and the
//! notifier takes the mutex — which it cannot acquire until the waiter
//! is safely inside `wait_timeout`, where the notification must reach
//! it. This handshake is exercised exhaustively by the loom suite
//! (`crates/sync/tests/loom_sync.rs`).

use std::time::{Duration, Instant};

use crate::atomic::{AtomicU64, AtomicUsize, Ordering};
use crate::{Condvar, Mutex};

/// Bounded park when the caller passes no deadline, so shutdown is
/// never missed by a lost wake-up race.
const HOUSEKEEPING: Duration = Duration::from_millis(50);

/// A generation counter consumers can park on (see module docs).
#[derive(Debug, Default)]
pub struct EventCount {
    generation: AtomicU64,
    /// Number of threads at or past step (1) of the waiter protocol.
    parked: AtomicUsize,
    park: Mutex<()>,
    wake: Condvar,
}

impl EventCount {
    /// A fresh event count at generation 0.
    pub fn new() -> EventCount {
        EventCount {
            generation: AtomicU64::new(0),
            parked: AtomicUsize::new(0),
            park: Mutex::new(()),
            wake: Condvar::new(),
        }
    }

    /// The current generation; any [`EventCount::advance`] after this
    /// read will wake a [`EventCount::wait_until`] that saw it.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    /// Advances the generation and wakes every parked waiter. Lock-free
    /// when nobody is parked.
    pub fn advance(&self) {
        self.generation.fetch_add(1, Ordering::SeqCst);
        if self.parked.load(Ordering::SeqCst) > 0 {
            // Taking the park mutex (even empty) fences against a waiter
            // between its generation re-check and its wait: the waiter
            // holds the mutex across that window.
            drop(self.park.lock());
            self.wake.notify_all();
        }
    }

    /// Blocks until the generation moves past `seen`, `deadline` passes,
    /// or (with no deadline) a housekeeping timeout elapses. Returns the
    /// generation observed on wake-up.
    pub fn wait_until(&self, seen: u64, deadline: Option<Instant>) -> u64 {
        loop {
            let current = self.generation.load(Ordering::SeqCst);
            if current != seen {
                return current;
            }
            self.parked.fetch_add(1, Ordering::SeqCst);
            let guard = self.park.lock();
            let current = self.generation.load(Ordering::SeqCst);
            if current != seen {
                drop(guard);
                self.parked.fetch_sub(1, Ordering::SeqCst);
                return current;
            }
            let now = Instant::now();
            let timeout = match deadline {
                Some(d) if d <= now => {
                    drop(guard);
                    self.parked.fetch_sub(1, Ordering::SeqCst);
                    return current;
                }
                Some(d) => d - now,
                None => HOUSEKEEPING,
            };
            let (guard, outcome) = self.wake.wait_timeout(guard, timeout);
            drop(guard);
            self.parked.fetch_sub(1, Ordering::SeqCst);
            if outcome.timed_out() {
                return self.generation.load(Ordering::SeqCst);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn advance_moves_generation() {
        let ec = EventCount::new();
        let g0 = ec.generation();
        ec.advance();
        assert_eq!(ec.generation(), g0 + 1);
    }

    #[test]
    fn stale_generation_returns_immediately() {
        let ec = EventCount::new();
        ec.advance();
        let woke = ec.wait_until(0, Some(Instant::now() + Duration::from_secs(5)));
        assert_ne!(woke, 0);
    }

    #[test]
    fn deadline_bounds_the_wait() {
        let ec = EventCount::new();
        let seen = ec.generation();
        let start = Instant::now();
        let woke = ec.wait_until(seen, Some(start + Duration::from_millis(20)));
        assert_eq!(woke, seen);
        assert!(start.elapsed() >= Duration::from_millis(15));
    }

    #[test]
    fn housekeeping_timeout_returns_without_a_pulse() {
        let ec = EventCount::new();
        let seen = ec.generation();
        // No deadline: returns after the bounded housekeeping park.
        let woke = ec.wait_until(seen, None);
        assert_eq!(woke, seen);
    }

    #[test]
    fn concurrent_advance_wakes_parked_waiter() {
        let ec = Arc::new(EventCount::new());
        let seen = ec.generation();
        let pulser = {
            let ec = Arc::clone(&ec);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                ec.advance();
            })
        };
        let woke = ec.wait_until(seen, Some(Instant::now() + Duration::from_secs(10)));
        pulser.join().unwrap();
        assert_eq!(woke, seen + 1);
    }
}
