//! The model-checked primitive types: one definition each, instrumented
//! under the cfg.
//!
//! Every type here wraps its `std::sync` counterpart, and a normal build
//! (`--cfg loom` absent) is that `std` call, `#[inline]`, with one
//! behavioral difference: lock poisoning is recovered instead of
//! propagated, so call sites get guards back directly instead of
//! `LockResult`s. The repo-wide policy: no structure guarded this way
//! holds an invariant a panic can break mid-update, and refusing to
//! serve after one poisoned lock would turn an isolated worker failure
//! into a full outage.
//!
//! Under `--cfg loom` the same definitions are instrumented for the
//! in-tree model checker ([`crate::model`]); `#[cfg(loom)]` marks only
//! what it adds. On a model thread every operation is a schedule point
//! and a blocking operation parks the thread inside the modeled
//! scheduler; each lock has a resource id for its wait queue, and each
//! guard a last field that wakes the modeled waiters once the `std`
//! guard before it has released the lock. A non-model thread (for
//! example an ordinary unit test compiled with `--cfg loom`) runs the
//! `std` path, so the cfg is safe to apply workspace-wide.

pub use std::sync::atomic::Ordering;
use std::time::Duration;

#[cfg(loom)]
use crate::model::{self, Execution, ResourceId};
#[cfg(loom)]
use std::sync::{Arc, OnceLock, TryLockError, TryLockResult};

/// Result of a [`Condvar::wait_timeout`]: whether the wait ended by
/// timeout rather than a notification.
#[derive(Debug, Clone, Copy)]
pub struct WaitOutcome {
    timed_out: bool,
}

impl WaitOutcome {
    /// True when the wait ended because the timeout elapsed.
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// Spin-loop hint. In a normal build this is [`std::hint::spin_loop`];
/// under the model checker it is a mandatory yield to another runnable
/// thread, which is what makes modeled spin-waits terminate.
#[inline]
pub fn spin_loop() {
    #[cfg(loom)]
    if let Some((exec, me)) = model::current() {
        return exec.yield_point(me);
    }
    std::hint::spin_loop();
}

/// A schedule point if the calling thread is a model thread; nothing in
/// a normal build.
#[inline(always)]
fn trace_op() {
    #[cfg(loom)]
    if let Some((exec, me)) = model::current() {
        exec.schedule_point(me);
    }
}

/// An instrumented object's wait queue in the model checker, allocated
/// on first use.
#[cfg(loom)]
#[derive(Debug, Default)]
struct Res(OnceLock<ResourceId>);

#[cfg(loom)]
impl Res {
    const fn new() -> Res {
        Res(OnceLock::new())
    }

    fn id(&self) -> ResourceId {
        *self.0.get_or_init(model::new_resource_id)
    }
}

/// A lock whose release wakes the model threads blocked on it.
#[cfg(loom)]
trait Modeled {
    fn wake(&self, exec: &Arc<Execution>);
}

/// A guard's last field: dropped after the `std` guard, so the lock is
/// free when the woken waiters retry it.
#[cfg(loom)]
#[derive(Debug)]
struct Wake<'a, L: Modeled>(&'a L);

#[cfg(loom)]
impl<L: Modeled> Drop for Wake<'_, L> {
    fn drop(&mut self) {
        if let Some((exec, _me)) = model::current() {
            self.0.wake(&exec);
        }
    }
}

/// A model thread's blocking acquire: a schedule point, then `try_acquire`
/// unless `blocked` says it must wait, parking on `res` until woken.
#[cfg(loom)]
fn acquire<G>(
    (exec, me): (Arc<Execution>, usize),
    res: &Res,
    blocked: impl Fn() -> bool,
    try_acquire: impl Fn() -> TryLockResult<G>,
) -> G {
    loop {
        exec.schedule_point(me);
        if !blocked() {
            match try_acquire() {
                Ok(guard) => return guard,
                Err(TryLockError::Poisoned(p)) => return p.into_inner(),
                Err(TryLockError::WouldBlock) => {}
            }
        }
        exec.block_on(me, res.id(), false);
    }
}

/// Mutual exclusion with poison recovery (see module docs).
#[derive(Debug, Default)]
pub struct Mutex<T> {
    inner: std::sync::Mutex<T>,
    #[cfg(loom)]
    res: Res,
}

/// Guard for [`Mutex`]; releases the lock on drop.
#[derive(Debug)]
pub struct MutexGuard<'a, T> {
    inner: std::sync::MutexGuard<'a, T>,
    #[cfg(loom)]
    wake: Wake<'a, Mutex<T>>,
}

impl<T> Mutex<T> {
    /// A new unlocked mutex holding `value`.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(value),
            #[cfg(loom)]
            res: Res::new(),
        }
    }

    /// Acquires the lock, recovering from poisoning.
    #[inline]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(loom)]
        if let Some(thread) = model::current() {
            let inner = acquire(thread, &self.res, || false, || self.inner.try_lock());
            return MutexGuard {
                inner,
                wake: Wake(self),
            };
        }
        MutexGuard {
            inner: self.inner.lock().unwrap_or_else(|p| p.into_inner()),
            #[cfg(loom)]
            wake: Wake(self),
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|p| p.into_inner())
    }
}

#[cfg(loom)]
impl<T> Modeled for Mutex<T> {
    fn wake(&self, exec: &Arc<Execution>) {
        exec.wake_one(self.res.id());
    }
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// Condition variable paired with [`Mutex`].
#[derive(Debug, Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
    #[cfg(loom)]
    res: Res,
}

impl Condvar {
    /// A new condition variable.
    pub const fn new() -> Self {
        Condvar {
            inner: std::sync::Condvar::new(),
            #[cfg(loom)]
            res: Res::new(),
        }
    }

    /// A model thread's wait: releases `guard`, parks on this condvar
    /// and relocks. Serialized execution makes unlock-then-park atomic
    /// with respect to other model threads: no schedule point between.
    #[cfg(loom)]
    fn wait_modeled<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        (exec, me): (Arc<Execution>, usize),
        timed: bool,
    ) -> (MutexGuard<'a, T>, WaitOutcome) {
        let mutex = guard.wake.0;
        drop(guard);
        let timed_out = exec.block_on(me, self.res.id(), timed);
        (mutex.lock(), WaitOutcome { timed_out })
    }

    /// Releases `guard` and blocks until notified.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        #[cfg(loom)]
        if let Some(thread) = model::current() {
            return self.wait_modeled(guard, thread, false).0;
        }
        let MutexGuard {
            inner,
            #[cfg(loom)]
            wake,
        } = guard;
        MutexGuard {
            inner: self.inner.wait(inner).unwrap_or_else(|p| p.into_inner()),
            #[cfg(loom)]
            wake,
        }
    }

    /// Releases `guard` and blocks until notified or `timeout` elapses.
    /// On a model thread the timeout is a nondeterministic choice: the
    /// checker explores both the immediate-timeout and the notified path
    /// (plus a forced timeout if the system would otherwise deadlock).
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: Duration,
    ) -> (MutexGuard<'a, T>, WaitOutcome) {
        #[cfg(loom)]
        if let Some((exec, me)) = model::current() {
            if !exec.nondet_bool(me) {
                return self.wait_modeled(guard, (exec, me), true);
            }
            // The timeout fires before any notification. Force a switch
            // to another runnable thread so a wait_timeout retry loop
            // cannot livelock the explorer by always taking the
            // cost-free "keep running" branch.
            let mutex = guard.wake.0;
            drop(guard);
            exec.yield_point(me);
            return (mutex.lock(), WaitOutcome { timed_out: true });
        }
        let MutexGuard {
            inner,
            #[cfg(loom)]
            wake,
        } = guard;
        let (inner, result) = self
            .inner
            .wait_timeout(inner, timeout)
            .unwrap_or_else(|p| p.into_inner());
        (
            MutexGuard {
                inner,
                #[cfg(loom)]
                wake,
            },
            WaitOutcome {
                timed_out: result.timed_out(),
            },
        )
    }

    /// Wakes one waiter.
    #[inline]
    pub fn notify_one(&self) {
        #[cfg(loom)]
        if let Some((exec, me)) = model::current() {
            exec.schedule_point(me);
            return exec.wake_one(self.res.id());
        }
        self.inner.notify_one();
    }

    /// Wakes every waiter.
    #[inline]
    pub fn notify_all(&self) {
        #[cfg(loom)]
        if let Some((exec, me)) = model::current() {
            exec.schedule_point(me);
            return exec.wake_all(self.res.id());
        }
        self.inner.notify_all();
    }
}

/// Reader-writer lock with poison recovery. On a model thread a new
/// reader waits while a writer waits, as std's allows and does on Linux.
#[derive(Debug, Default)]
pub struct RwLock<T> {
    inner: std::sync::RwLock<T>,
    #[cfg(loom)]
    res: Res,
    /// Model threads blocked in `write`.
    #[cfg(loom)]
    writers_waiting: std::sync::atomic::AtomicUsize,
}

/// Shared guard for [`RwLock`].
#[derive(Debug)]
pub struct RwLockReadGuard<'a, T> {
    inner: std::sync::RwLockReadGuard<'a, T>,
    #[cfg(loom)]
    _wake: Wake<'a, RwLock<T>>,
}

/// Exclusive guard for [`RwLock`].
#[derive(Debug)]
pub struct RwLockWriteGuard<'a, T> {
    inner: std::sync::RwLockWriteGuard<'a, T>,
    #[cfg(loom)]
    _wake: Wake<'a, RwLock<T>>,
}

impl<T> RwLock<T> {
    /// A new unlocked rwlock holding `value`.
    pub const fn new(value: T) -> Self {
        RwLock {
            inner: std::sync::RwLock::new(value),
            #[cfg(loom)]
            res: Res::new(),
            #[cfg(loom)]
            writers_waiting: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    /// Acquires a shared read guard, recovering from poisoning.
    #[inline]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        #[cfg(loom)]
        if let Some(thread) = model::current() {
            let writer_waits = || self.writers_waiting.load(Ordering::Relaxed) > 0;
            let inner = acquire(thread, &self.res, writer_waits, || self.inner.try_read());
            return RwLockReadGuard {
                inner,
                _wake: Wake(self),
            };
        }
        RwLockReadGuard {
            inner: self.inner.read().unwrap_or_else(|p| p.into_inner()),
            #[cfg(loom)]
            _wake: Wake(self),
        }
    }

    /// Acquires the exclusive write guard, recovering from poisoning.
    #[inline]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        #[cfg(loom)]
        if let Some((exec, me)) = model::current() {
            let inner = loop {
                exec.schedule_point(me);
                match self.inner.try_write() {
                    Ok(guard) => break guard,
                    Err(TryLockError::Poisoned(p)) => break p.into_inner(),
                    Err(TryLockError::WouldBlock) => {
                        self.writers_waiting.fetch_add(1, Ordering::Relaxed);
                        exec.block_on(me, self.res.id(), false);
                        self.writers_waiting.fetch_sub(1, Ordering::Relaxed);
                    }
                }
            };
            return RwLockWriteGuard {
                inner,
                _wake: Wake(self),
            };
        }
        RwLockWriteGuard {
            inner: self.inner.write().unwrap_or_else(|p| p.into_inner()),
            #[cfg(loom)]
            _wake: Wake(self),
        }
    }
}

#[cfg(loom)]
impl<T> Modeled for RwLock<T> {
    fn wake(&self, exec: &Arc<Execution>) {
        exec.wake_all(self.res.id());
    }
}

impl<T> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// One atomic type over its `std` namesake; the `integer` arm adds the
/// read-modify-write operations `AtomicBool` does not offer here.
macro_rules! atomic_type {
    ($name:ident, $value:ty) => {
        /// An atomic whose every operation is a schedule point on a
        /// model thread.
        #[derive(Debug, Default)]
        pub struct $name(std::sync::atomic::$name);

        impl $name {
            /// A new atomic initialized to `value`.
            pub const fn new(value: $value) -> Self {
                Self(std::sync::atomic::$name::new(value))
            }

            /// Atomic load.
            #[inline]
            pub fn load(&self, order: Ordering) -> $value {
                trace_op();
                self.0.load(order)
            }

            /// Atomic store.
            #[inline]
            pub fn store(&self, value: $value, order: Ordering) {
                trace_op();
                self.0.store(value, order)
            }

            /// Atomic swap, returning the previous value.
            #[inline]
            pub fn swap(&self, value: $value, order: Ordering) -> $value {
                trace_op();
                self.0.swap(value, order)
            }
        }
    };
    ($name:ident, $value:ty, integer) => {
        atomic_type!($name, $value);

        impl $name {
            /// Atomic add, returning the previous value.
            #[inline]
            pub fn fetch_add(&self, value: $value, order: Ordering) -> $value {
                trace_op();
                self.0.fetch_add(value, order)
            }

            /// Atomic subtract, returning the previous value.
            #[inline]
            pub fn fetch_sub(&self, value: $value, order: Ordering) -> $value {
                trace_op();
                self.0.fetch_sub(value, order)
            }

            /// Atomic max, returning the previous value.
            #[inline]
            pub fn fetch_max(&self, value: $value, order: Ordering) -> $value {
                trace_op();
                self.0.fetch_max(value, order)
            }

            /// Atomic compare-and-exchange.
            #[inline]
            pub fn compare_exchange(
                &self,
                current: $value,
                new: $value,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$value, $value> {
                trace_op();
                self.0.compare_exchange(current, new, success, failure)
            }

            /// Atomic compare-and-exchange, allowed to fail spuriously.
            /// A model thread's is strong: a spurious failure is a
            /// hardware artifact, not a schedule.
            #[inline]
            pub fn compare_exchange_weak(
                &self,
                current: $value,
                new: $value,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$value, $value> {
                trace_op();
                #[cfg(loom)]
                if model::current().is_some() {
                    return self.0.compare_exchange(current, new, success, failure);
                }
                self.0.compare_exchange_weak(current, new, success, failure)
            }
        }
    };
}

/// The model-checked atomic types.
pub mod atomic {
    use super::trace_op;
    #[cfg(loom)]
    use crate::model;
    pub use std::sync::atomic::Ordering;

    atomic_type!(AtomicBool, bool);
    atomic_type!(AtomicU8, u8, integer);
    atomic_type!(AtomicU32, u32, integer);
    atomic_type!(AtomicU64, u64, integer);
    atomic_type!(AtomicUsize, usize, integer);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn primitives_are_send_and_sync() {
        fn check<T: Send + Sync>() {}
        check::<Mutex<u8>>();
        check::<Condvar>();
        check::<RwLock<u8>>();
        check::<atomic::AtomicU64>();
        check::<atomic::AtomicBool>();
    }

    #[test]
    fn mutex_and_condvar_round_trip() {
        let m = Mutex::new(1u32);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        let cv = Condvar::new();
        let guard = m.lock();
        let (guard, outcome) = cv.wait_timeout(guard, Duration::from_millis(1));
        assert!(outcome.timed_out());
        drop(guard);
        cv.notify_all();
    }

    #[test]
    fn rwlock_round_trip() {
        let l = RwLock::new(5u32);
        assert_eq!(*l.read(), 5);
        *l.write() = 6;
        assert_eq!(*l.read(), 6);
    }

    #[test]
    fn a_panic_holding_both_locks_leaves_its_writes_readable() {
        let m = Mutex::new(0u32);
        let l = RwLock::new(0u32);
        std::thread::scope(|s| {
            let poisoner = s.spawn(|| {
                let (mut a, mut b) = (m.lock(), l.write());
                *a = 7;
                *b = 9;
                panic!("panicking with both guards held");
            });
            assert!(poisoner.join().is_err());
        });
        assert_eq!(*m.lock(), 7);
        assert_eq!(*l.read(), 9);
        assert_eq!(*l.write(), 9);
        let (guard, outcome) = Condvar::new().wait_timeout(m.lock(), Duration::from_millis(1));
        assert!(outcome.timed_out());
        assert_eq!(*guard, 7);
        drop(guard);
        assert_eq!(m.into_inner(), 7);
    }
}
