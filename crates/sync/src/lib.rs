//! `drec-sync`: the hot-path synchronization layer.
//!
//! The serving stack's tail latency is dominated by queueing and
//! synchronization, not kernel time (Hsia et al., IISWC 2020; Gupta et
//! al., ISCA 2020 make the same observation at datacenter scale), so the
//! primitives on the request path get their own crate with three jobs:
//!
//! 1. **One cfg switch for model checking.** [`Mutex`], [`RwLock`],
//!    [`Condvar`] and the [`atomic`] types have one definition each, a
//!    wrapper over `std` instrumented under `--cfg loom` (the
//!    tokio-rs/loom idiom), so the models check the code that ships.
//!    Because the real loom crate cannot be vendored into this offline
//!    build, the checker itself is in-tree ([`model::model`],
//!    `src/model.rs`): a schedule explorer that serializes real threads
//!    and enumerates interleavings depth-first under a preemption bound.
//! 2. **Lock-free building blocks.** [`EventCount`] (pulse-gated parking
//!    that replaces condvar broadcast) is what the batcher's workers
//!    and `drec-par`'s workers and scope owners park on; [`EpochGc`] is
//!    the epoch-based-reclamation cell the parameter store's live-update
//!    protocol pins readers with (no locks on the read hot path). [`EvictRing`] (a bounded MPMC ring with
//!    priority swap-eviction) was the batcher's lock-free queue until
//!    PR 24 made the mutex queue the only one; it has no caller left in
//!    the workspace, is kept only because `perf_bench` times it as
//!    `sync.ring_push_pop_ns`, and leaves after the next `benchmark` issue.
//! 3. **Cache-line padding.** [`CachePadded`] keeps hot counters that
//!    different threads bump (a lane's latency histogram and `shed`
//!    counter, the registry's `accepted`) on lines of their own, so
//!    their writes do not ping-pong one shared line between cores.

#![warn(missing_docs)]

pub mod model;
mod primitives;

mod epoch;
mod event;
mod ring;

pub use epoch::{EpochGc, EpochGuard};
pub use event::EventCount;
pub(crate) use primitives::spin_loop;
pub use primitives::{atomic, Condvar, Mutex, MutexGuard, Ordering, RwLock};
pub use ring::{EvictPush, EvictRing};

/// Model-checking-aware thread spawn/join/yield (plain `std` threads
/// outside a [`model::model`] execution).
pub mod thread {
    pub use crate::model::{spawn, yield_now};
}

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
    }
}
