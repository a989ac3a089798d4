//! `drec-sync`: the hot-path synchronization layer.
//!
//! The serving stack's tail latency is dominated by queueing and
//! synchronization, not kernel time (Hsia et al., IISWC 2020; Gupta et
//! al., ISCA 2020 make the same observation at datacenter scale), so the
//! primitives on the request path get their own crate with three jobs:
//!
//! 1. **One cfg switch for model checking.** [`Mutex`], [`RwLock`],
//!    [`Condvar`] and the [`atomic`] types compile to transparent `std`
//!    wrappers normally, and to instrumented versions under
//!    `--cfg loom`, following the tokio-rs/loom idiom. Because the real
//!    loom crate cannot be vendored into this offline build, the checker
//!    itself is in-tree ([`model()`], `src/model.rs`): a schedule explorer
//!    that serializes real threads and enumerates interleavings
//!    depth-first under a preemption bound.
//! 2. **Lock-free building blocks.** [`EventCount`] (pulse-gated parking
//!    that replaces condvar broadcast) is what the batcher's workers
//!    park on; [`EpochGc`] is the epoch-based-reclamation cell the
//!    parameter store's live-update protocol pins readers with (no locks
//!    on the read hot path). [`EvictRing`] (a bounded MPMC ring with
//!    priority swap-eviction) was the batcher's lock-free queue until
//!    PR 24 made the mutex queue the only one; it has no caller left in
//!    the workspace, is kept only because `perf_bench` times it as
//!    `sync.ring_push_pop_ns`, and leaves with ROADMAP item 10(c).
//! 3. **Shared policy helpers.** [`CachePadded`] kills false sharing
//!    between hot counters, and [`lock_recover`]/[`read_recover`]/
//!    [`write_recover`] centralize the repo's poison-recovery policy for
//!    call sites that still hold plain `std` locks.

#![warn(missing_docs)]

pub mod model;
mod primitives;

mod epoch;
mod event;
mod ring;

pub use epoch::{EpochGc, EpochGuard};
pub use event::EventCount;
pub use primitives::{
    atomic, spin_loop, Condvar, Mutex, MutexGuard, Ordering, RwLock, WaitOutcome,
};
pub use primitives::{RwLockReadGuard, RwLockWriteGuard};
pub use ring::{EvictPush, EvictRing};

/// Model-checking-aware thread spawn/join/yield (plain `std` threads
/// outside a [`model::model`] execution).
pub mod thread {
    pub use crate::model::{spawn, yield_now, JoinHandle};
}

pub use model::model;

/// Pads and aligns a value to a 64-byte cache line so adjacent hot
/// atomics (per-worker counters, ring cursors) never share a line —
/// cross-core increments to neighbors would otherwise bounce the line
/// between caches on every write (false sharing). Derefs to the inner
/// value, so `CachePadded<AtomicU64>` is a drop-in field type.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wraps `value` in its own cache line.
    pub const fn new(value: T) -> CachePadded<T> {
        CachePadded { value }
    }

    /// Consumes the wrapper, returning the inner value.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> std::ops::DerefMut for CachePadded<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

/// Acquires a plain `std` mutex, recovering the guard if a panicking
/// thread poisoned it. The repo-wide policy: no structure guarded this
/// way holds an invariant a panic can break mid-update, and refusing to
/// serve after one poisoned lock would turn an isolated worker failure
/// into a full outage.
pub fn lock_recover<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Acquires a plain `std` rwlock for reading, recovering from
/// poisoning (see [`lock_recover`] for the policy).
pub fn read_recover<T>(l: &std::sync::RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Acquires a plain `std` rwlock for writing, recovering from
/// poisoning (see [`lock_recover`] for the policy).
pub fn write_recover<T>(l: &std::sync::RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_padded_is_a_full_line() {
        assert_eq!(std::mem::align_of::<CachePadded<u8>>(), 64);
        assert!(std::mem::size_of::<CachePadded<u8>>() >= 64);
        let c = CachePadded::new(atomic::AtomicU64::new(1));
        c.fetch_add(1, Ordering::Relaxed);
        assert_eq!(c.load(Ordering::Relaxed), 2);
        assert_eq!(
            CachePadded::new(7u32).into_inner(),
            7,
            "into_inner returns the wrapped value"
        );
    }

    #[test]
    fn recover_helpers_survive_poison() {
        let m = std::sync::Arc::new(std::sync::Mutex::new(1u32));
        let m2 = std::sync::Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock().unwrap();
            panic!("poison it");
        })
        .join();
        assert!(m.is_poisoned());
        assert_eq!(*lock_recover(&m), 1);

        let l = std::sync::Arc::new(std::sync::RwLock::new(2u32));
        let l2 = std::sync::Arc::clone(&l);
        let _ = std::thread::spawn(move || {
            let _guard = l2.write().unwrap();
            panic!("poison it");
        })
        .join();
        assert_eq!(*read_recover(&l), 2);
        *write_recover(&l) = 3;
        assert_eq!(*read_recover(&l), 3);
    }
}
