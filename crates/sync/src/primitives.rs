//! The loom-switched primitive types.
//!
//! In a normal build (`--cfg loom` absent) every type here is a
//! zero-cost, `#[inline]` newtype over its `std::sync` counterpart with
//! one behavioral difference: lock poisoning is recovered instead of
//! propagated, so call sites get guards back directly instead of
//! `LockResult`s. The repo-wide policy: no structure guarded this way
//! holds an invariant a panic can break mid-update, and refusing to
//! serve after one poisoned lock would turn an isolated worker failure
//! into a full outage.
//!
//! Under `--cfg loom` the same API is instrumented: every operation is a
//! schedule point for the in-tree model checker ([`crate::model`]), and
//! blocking operations park the thread inside the modeled scheduler.
//! Code running on a non-model thread (for example ordinary unit tests
//! compiled with `--cfg loom`) transparently falls back to the plain
//! `std` behavior, so the cfg is safe to apply workspace-wide.

pub use std::sync::atomic::Ordering;

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
    {
        if let Some((exec, me)) = crate::model::current() {
            exec.yield_point(me);
            return;
        }
    }
    std::hint::spin_loop();
}

// ---------------------------------------------------------------------------
// Plain (non-loom) build: transparent std wrappers.
// ---------------------------------------------------------------------------

#[cfg(not(loom))]
mod imp {
    use super::WaitOutcome;
    use std::time::Duration;

    /// Mutual exclusion with poison recovery (see module docs).
    #[derive(Debug, Default)]
    pub struct Mutex<T>(std::sync::Mutex<T>);

    /// Guard for [`Mutex`]; releases the lock on drop.
    #[derive(Debug)]
    pub struct MutexGuard<'a, T>(std::sync::MutexGuard<'a, T>);

    impl<T> Mutex<T> {
        /// A new unlocked mutex holding `value`.
        pub const fn new(value: T) -> Self {
            Mutex(std::sync::Mutex::new(value))
        }

        /// Acquires the lock, recovering from poisoning.
        #[inline]
        pub fn lock(&self) -> MutexGuard<'_, T> {
            MutexGuard(self.0.lock().unwrap_or_else(|p| p.into_inner()))
        }

        /// Consumes the mutex, returning the inner value.
        pub fn into_inner(self) -> T {
            self.0.into_inner().unwrap_or_else(|p| p.into_inner())
        }
    }

    impl<T> std::ops::Deref for MutexGuard<'_, T> {
        type Target = T;
        #[inline]
        fn deref(&self) -> &T {
            &self.0
        }
    }

    impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
        #[inline]
        fn deref_mut(&mut self) -> &mut T {
            &mut self.0
        }
    }

    /// Condition variable paired with [`Mutex`].
    #[derive(Debug, Default)]
    pub struct Condvar(std::sync::Condvar);

    impl Condvar {
        /// A new condition variable.
        pub const fn new() -> Self {
            Condvar(std::sync::Condvar::new())
        }

        /// Releases `guard` and blocks until notified.
        pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
            MutexGuard(self.0.wait(guard.0).unwrap_or_else(|p| p.into_inner()))
        }

        /// Releases `guard` and blocks until notified or `timeout`
        /// elapses.
        pub fn wait_timeout<'a, T>(
            &self,
            guard: MutexGuard<'a, T>,
            timeout: Duration,
        ) -> (MutexGuard<'a, T>, WaitOutcome) {
            let (inner, result) = self
                .0
                .wait_timeout(guard.0, timeout)
                .unwrap_or_else(|p| p.into_inner());
            (
                MutexGuard(inner),
                WaitOutcome {
                    timed_out: result.timed_out(),
                },
            )
        }

        /// Wakes one waiter.
        #[inline]
        pub fn notify_one(&self) {
            self.0.notify_one();
        }

        /// Wakes every waiter.
        #[inline]
        pub fn notify_all(&self) {
            self.0.notify_all();
        }
    }

    /// Reader-writer lock with poison recovery.
    #[derive(Debug, Default)]
    pub struct RwLock<T>(std::sync::RwLock<T>);

    impl<T> RwLock<T> {
        /// A new unlocked rwlock holding `value`.
        pub const fn new(value: T) -> Self {
            RwLock(std::sync::RwLock::new(value))
        }

        /// Acquires a shared read guard, recovering from poisoning.
        #[inline]
        pub fn read(&self) -> std::sync::RwLockReadGuard<'_, T> {
            self.0.read().unwrap_or_else(|p| p.into_inner())
        }

        /// Acquires the exclusive write guard, recovering from poisoning.
        #[inline]
        pub fn write(&self) -> std::sync::RwLockWriteGuard<'_, T> {
            self.0.write().unwrap_or_else(|p| p.into_inner())
        }
    }

    macro_rules! plain_atomic {
        ($name:ident, $std:ty, $int:ty) => {
            /// Loom-switched atomic (plain `std` passthrough here).
            #[derive(Debug, Default)]
            pub struct $name($std);

            impl $name {
                /// A new atomic initialized to `value`.
                pub const fn new(value: $int) -> Self {
                    Self(<$std>::new(value))
                }

                /// Atomic load.
                #[inline]
                pub fn load(&self, order: super::Ordering) -> $int {
                    self.0.load(order)
                }

                /// Atomic store.
                #[inline]
                pub fn store(&self, value: $int, order: super::Ordering) {
                    self.0.store(value, order)
                }

                /// Atomic add, returning the previous value.
                #[inline]
                pub fn fetch_add(&self, value: $int, order: super::Ordering) -> $int {
                    self.0.fetch_add(value, order)
                }

                /// Atomic subtract, returning the previous value.
                #[inline]
                pub fn fetch_sub(&self, value: $int, order: super::Ordering) -> $int {
                    self.0.fetch_sub(value, order)
                }

                /// Atomic max, returning the previous value.
                #[inline]
                pub fn fetch_max(&self, value: $int, order: super::Ordering) -> $int {
                    self.0.fetch_max(value, order)
                }

                /// Atomic swap, returning the previous value.
                #[inline]
                pub fn swap(&self, value: $int, order: super::Ordering) -> $int {
                    self.0.swap(value, order)
                }

                /// Atomic compare-and-exchange.
                #[inline]
                pub fn compare_exchange(
                    &self,
                    current: $int,
                    new: $int,
                    success: super::Ordering,
                    failure: super::Ordering,
                ) -> Result<$int, $int> {
                    self.0.compare_exchange(current, new, success, failure)
                }

                /// Atomic compare-and-exchange, allowed to fail
                /// spuriously.
                #[inline]
                pub fn compare_exchange_weak(
                    &self,
                    current: $int,
                    new: $int,
                    success: super::Ordering,
                    failure: super::Ordering,
                ) -> Result<$int, $int> {
                    self.0.compare_exchange_weak(current, new, success, failure)
                }
            }
        };
    }

    plain_atomic!(AtomicU8, std::sync::atomic::AtomicU8, u8);
    plain_atomic!(AtomicU32, std::sync::atomic::AtomicU32, u32);
    plain_atomic!(AtomicU64, std::sync::atomic::AtomicU64, u64);
    plain_atomic!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);

    /// Loom-switched atomic bool (plain `std` passthrough here).
    #[derive(Debug, Default)]
    pub struct AtomicBool(std::sync::atomic::AtomicBool);

    impl AtomicBool {
        /// A new atomic initialized to `value`.
        pub const fn new(value: bool) -> Self {
            Self(std::sync::atomic::AtomicBool::new(value))
        }

        /// Atomic load.
        #[inline]
        pub fn load(&self, order: super::Ordering) -> bool {
            self.0.load(order)
        }

        /// Atomic store.
        #[inline]
        pub fn store(&self, value: bool, order: super::Ordering) {
            self.0.store(value, order)
        }

        /// Atomic swap, returning the previous value.
        #[inline]
        pub fn swap(&self, value: bool, order: super::Ordering) -> bool {
            self.0.swap(value, order)
        }
    }
}

// ---------------------------------------------------------------------------
// Loom build: every operation is a schedule point for the model checker.
// ---------------------------------------------------------------------------

#[cfg(loom)]
mod imp {
    use super::WaitOutcome;
    use crate::model::{self, Execution, ResourceId};
    use std::sync::Arc;
    use std::time::Duration;

    /// A schedule point if the calling thread is a model thread.
    #[inline]
    fn trace_op() -> Option<(Arc<Execution>, usize)> {
        let ctx = model::current();
        if let Some((exec, me)) = &ctx {
            exec.schedule_point(*me);
        }
        ctx
    }

    /// Mutual exclusion, instrumented for the model checker.
    #[derive(Debug, Default)]
    pub struct Mutex<T> {
        inner: std::sync::Mutex<T>,
        res: std::sync::OnceLock<ResourceId>,
    }

    /// Guard for [`Mutex`]; releases the lock (and wakes one modeled
    /// waiter) on drop.
    pub struct MutexGuard<'a, T> {
        inner: std::mem::ManuallyDrop<std::sync::MutexGuard<'a, T>>,
        lock: &'a Mutex<T>,
    }

    impl<T: std::fmt::Debug> std::fmt::Debug for MutexGuard<'_, T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            (**self).fmt(f)
        }
    }

    impl<T> Mutex<T> {
        /// A new unlocked mutex holding `value`.
        pub const fn new(value: T) -> Self {
            Mutex {
                inner: std::sync::Mutex::new(value),
                res: std::sync::OnceLock::new(),
            }
        }

        fn res(&self) -> ResourceId {
            *self.res.get_or_init(model::new_resource_id)
        }

        /// Acquires the lock: a modeled blocking point on model threads,
        /// a plain poison-recovering `std` lock otherwise.
        pub fn lock(&self) -> MutexGuard<'_, T> {
            match model::current() {
                None => MutexGuard {
                    inner: std::mem::ManuallyDrop::new(
                        self.inner.lock().unwrap_or_else(|p| p.into_inner()),
                    ),
                    lock: self,
                },
                Some((exec, me)) => loop {
                    exec.schedule_point(me);
                    match self.inner.try_lock() {
                        Ok(guard) => {
                            return MutexGuard {
                                inner: std::mem::ManuallyDrop::new(guard),
                                lock: self,
                            }
                        }
                        Err(std::sync::TryLockError::Poisoned(p)) => {
                            return MutexGuard {
                                inner: std::mem::ManuallyDrop::new(p.into_inner()),
                                lock: self,
                            }
                        }
                        Err(std::sync::TryLockError::WouldBlock) => {
                            exec.block_on(me, self.res(), false);
                        }
                    }
                },
            }
        }

        /// Consumes the mutex, returning the inner value.
        pub fn into_inner(self) -> T {
            self.inner.into_inner().unwrap_or_else(|p| p.into_inner())
        }
    }

    impl<T> Drop for MutexGuard<'_, T> {
        fn drop(&mut self) {
            // Release the OS lock first, then wake a modeled waiter so
            // its try_lock can succeed.
            unsafe { std::mem::ManuallyDrop::drop(&mut self.inner) };
            if let Some((exec, _me)) = model::current() {
                exec.wake_one(self.lock.res());
            }
        }
    }

    impl<T> std::ops::Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.inner
        }
    }

    impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.inner
        }
    }

    /// Condition variable, instrumented for the model checker.
    #[derive(Debug, Default)]
    pub struct Condvar {
        inner: std::sync::Condvar,
        res: std::sync::OnceLock<ResourceId>,
    }

    impl Condvar {
        /// A new condition variable.
        pub const fn new() -> Self {
            Condvar {
                inner: std::sync::Condvar::new(),
                res: std::sync::OnceLock::new(),
            }
        }

        fn res(&self) -> ResourceId {
            *self.res.get_or_init(model::new_resource_id)
        }

        fn wait_model<'a, T>(
            &self,
            guard: MutexGuard<'a, T>,
            exec: &Arc<Execution>,
            me: usize,
            timed: bool,
        ) -> (MutexGuard<'a, T>, WaitOutcome) {
            let mutex = guard.lock;
            // Serialized execution makes unlock-then-block atomic with
            // respect to other model threads: no schedule point between.
            drop(guard);
            let timed_out = exec.block_on(me, self.res(), timed);
            (mutex.lock(), WaitOutcome { timed_out })
        }

        /// Releases `guard` and blocks until notified.
        pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
            match model::current() {
                None => {
                    let lock = guard.lock;
                    let mut inner =
                        std::mem::ManuallyDrop::into_inner(unsafe { std::ptr::read(&guard.inner) });
                    std::mem::forget(guard);
                    inner = self.inner.wait(inner).unwrap_or_else(|p| p.into_inner());
                    MutexGuard {
                        inner: std::mem::ManuallyDrop::new(inner),
                        lock,
                    }
                }
                Some((exec, me)) => self.wait_model(guard, &exec, me, false).0,
            }
        }

        /// Releases `guard` and blocks until notified or `timeout`
        /// elapses. On a model thread the timeout is a nondeterministic
        /// choice: the checker explores both the immediate-timeout and
        /// the notified path (plus a forced timeout if the system would
        /// otherwise deadlock).
        pub fn wait_timeout<'a, T>(
            &self,
            guard: MutexGuard<'a, T>,
            timeout: Duration,
        ) -> (MutexGuard<'a, T>, WaitOutcome) {
            match model::current() {
                None => {
                    let lock = guard.lock;
                    let inner =
                        std::mem::ManuallyDrop::into_inner(unsafe { std::ptr::read(&guard.inner) });
                    std::mem::forget(guard);
                    let (inner, result) = self
                        .inner
                        .wait_timeout(inner, timeout)
                        .unwrap_or_else(|p| p.into_inner());
                    (
                        MutexGuard {
                            inner: std::mem::ManuallyDrop::new(inner),
                            lock,
                        },
                        WaitOutcome {
                            timed_out: result.timed_out(),
                        },
                    )
                }
                Some((exec, me)) => {
                    if exec.nondet_bool(me) {
                        // The timeout fires before any notification. Force a
                        // switch to another runnable thread so a wait_timeout
                        // retry loop cannot livelock the explorer by always
                        // taking the cost-free "keep running" branch.
                        let mutex = guard.lock;
                        drop(guard);
                        exec.yield_point(me);
                        (mutex.lock(), WaitOutcome { timed_out: true })
                    } else {
                        self.wait_model(guard, &exec, me, true)
                    }
                }
            }
        }

        /// Wakes one waiter.
        pub fn notify_one(&self) {
            match model::current() {
                None => self.inner.notify_one(),
                Some((exec, me)) => {
                    exec.schedule_point(me);
                    exec.wake_one(self.res());
                }
            }
        }

        /// Wakes every waiter.
        pub fn notify_all(&self) {
            match model::current() {
                None => self.inner.notify_all(),
                Some((exec, me)) => {
                    exec.schedule_point(me);
                    exec.wake_all(self.res());
                }
            }
        }
    }

    /// Reader-writer lock, instrumented for the model checker. A new
    /// reader waits while a writer waits, as std's allows and does on Linux.
    #[derive(Debug, Default)]
    pub struct RwLock<T> {
        inner: std::sync::RwLock<T>,
        res: std::sync::OnceLock<ResourceId>,
        /// Model threads blocked in `write`.
        writers_waiting: std::sync::atomic::AtomicUsize,
    }

    impl<T> RwLock<T> {
        /// A new unlocked rwlock holding `value`.
        pub const fn new(value: T) -> Self {
            RwLock {
                inner: std::sync::RwLock::new(value),
                res: std::sync::OnceLock::new(),
                writers_waiting: std::sync::atomic::AtomicUsize::new(0),
            }
        }

        fn res(&self) -> ResourceId {
            *self.res.get_or_init(model::new_resource_id)
        }

        /// Acquires a shared read guard.
        pub fn read(&self) -> RwLockReadGuard<'_, T> {
            match model::current() {
                None => RwLockReadGuard {
                    inner: std::mem::ManuallyDrop::new(
                        self.inner.read().unwrap_or_else(|p| p.into_inner()),
                    ),
                    lock: self,
                },
                Some((exec, me)) => loop {
                    exec.schedule_point(me);
                    if self.writers_waiting.load(super::Ordering::Relaxed) > 0 {
                        exec.block_on(me, self.res(), false);
                        continue;
                    }
                    match self.inner.try_read() {
                        Ok(guard) => {
                            return RwLockReadGuard {
                                inner: std::mem::ManuallyDrop::new(guard),
                                lock: self,
                            }
                        }
                        Err(std::sync::TryLockError::Poisoned(p)) => {
                            return RwLockReadGuard {
                                inner: std::mem::ManuallyDrop::new(p.into_inner()),
                                lock: self,
                            }
                        }
                        Err(std::sync::TryLockError::WouldBlock) => {
                            exec.block_on(me, self.res(), false);
                        }
                    }
                },
            }
        }

        /// Acquires the exclusive write guard.
        pub fn write(&self) -> RwLockWriteGuard<'_, T> {
            match model::current() {
                None => RwLockWriteGuard {
                    inner: std::mem::ManuallyDrop::new(
                        self.inner.write().unwrap_or_else(|p| p.into_inner()),
                    ),
                    lock: self,
                },
                Some((exec, me)) => loop {
                    exec.schedule_point(me);
                    match self.inner.try_write() {
                        Ok(guard) => {
                            return RwLockWriteGuard {
                                inner: std::mem::ManuallyDrop::new(guard),
                                lock: self,
                            }
                        }
                        Err(std::sync::TryLockError::Poisoned(p)) => {
                            return RwLockWriteGuard {
                                inner: std::mem::ManuallyDrop::new(p.into_inner()),
                                lock: self,
                            }
                        }
                        Err(std::sync::TryLockError::WouldBlock) => {
                            self.writers_waiting.fetch_add(1, super::Ordering::Relaxed);
                            exec.block_on(me, self.res(), false);
                            self.writers_waiting.fetch_sub(1, super::Ordering::Relaxed);
                        }
                    }
                },
            }
        }
    }

    /// Shared guard for [`RwLock`].
    pub struct RwLockReadGuard<'a, T> {
        inner: std::mem::ManuallyDrop<std::sync::RwLockReadGuard<'a, T>>,
        lock: &'a RwLock<T>,
    }

    /// Exclusive guard for [`RwLock`].
    pub struct RwLockWriteGuard<'a, T> {
        inner: std::mem::ManuallyDrop<std::sync::RwLockWriteGuard<'a, T>>,
        lock: &'a RwLock<T>,
    }

    impl<T> Drop for RwLockReadGuard<'_, T> {
        fn drop(&mut self) {
            unsafe { std::mem::ManuallyDrop::drop(&mut self.inner) };
            if let Some((exec, _me)) = model::current() {
                exec.wake_all(self.lock.res());
            }
        }
    }

    impl<T> Drop for RwLockWriteGuard<'_, T> {
        fn drop(&mut self) {
            unsafe { std::mem::ManuallyDrop::drop(&mut self.inner) };
            if let Some((exec, _me)) = model::current() {
                exec.wake_all(self.lock.res());
            }
        }
    }

    impl<T> std::ops::Deref for RwLockReadGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.inner
        }
    }

    impl<T> std::ops::Deref for RwLockWriteGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.inner
        }
    }

    impl<T> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.inner
        }
    }

    macro_rules! loom_atomic {
        ($name:ident, $std:ty, $int:ty) => {
            /// Loom-switched atomic (instrumented: every op is a
            /// schedule point).
            #[derive(Debug, Default)]
            pub struct $name($std);

            impl $name {
                /// A new atomic initialized to `value`.
                pub const fn new(value: $int) -> Self {
                    Self(<$std>::new(value))
                }

                /// Atomic load.
                pub fn load(&self, order: super::Ordering) -> $int {
                    trace_op();
                    self.0.load(order)
                }

                /// Atomic store.
                pub fn store(&self, value: $int, order: super::Ordering) {
                    trace_op();
                    self.0.store(value, order)
                }

                /// Atomic add, returning the previous value.
                pub fn fetch_add(&self, value: $int, order: super::Ordering) -> $int {
                    trace_op();
                    self.0.fetch_add(value, order)
                }

                /// Atomic subtract, returning the previous value.
                pub fn fetch_sub(&self, value: $int, order: super::Ordering) -> $int {
                    trace_op();
                    self.0.fetch_sub(value, order)
                }

                /// Atomic max, returning the previous value.
                pub fn fetch_max(&self, value: $int, order: super::Ordering) -> $int {
                    trace_op();
                    self.0.fetch_max(value, order)
                }

                /// Atomic swap, returning the previous value.
                pub fn swap(&self, value: $int, order: super::Ordering) -> $int {
                    trace_op();
                    self.0.swap(value, order)
                }

                /// Atomic compare-and-exchange.
                pub fn compare_exchange(
                    &self,
                    current: $int,
                    new: $int,
                    success: super::Ordering,
                    failure: super::Ordering,
                ) -> Result<$int, $int> {
                    trace_op();
                    self.0.compare_exchange(current, new, success, failure)
                }

                /// Atomic compare-and-exchange; under the model checker
                /// the strong variant is used (spurious failures are a
                /// hardware artifact, not a schedule).
                pub fn compare_exchange_weak(
                    &self,
                    current: $int,
                    new: $int,
                    success: super::Ordering,
                    failure: super::Ordering,
                ) -> Result<$int, $int> {
                    trace_op();
                    self.0.compare_exchange(current, new, success, failure)
                }
            }
        };
    }

    loom_atomic!(AtomicU8, std::sync::atomic::AtomicU8, u8);
    loom_atomic!(AtomicU32, std::sync::atomic::AtomicU32, u32);
    loom_atomic!(AtomicU64, std::sync::atomic::AtomicU64, u64);
    loom_atomic!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);

    /// Loom-switched atomic bool (instrumented).
    #[derive(Debug, Default)]
    pub struct AtomicBool(std::sync::atomic::AtomicBool);

    impl AtomicBool {
        /// A new atomic initialized to `value`.
        pub const fn new(value: bool) -> Self {
            Self(std::sync::atomic::AtomicBool::new(value))
        }

        /// Atomic load.
        pub fn load(&self, order: super::Ordering) -> bool {
            trace_op();
            self.0.load(order)
        }

        /// Atomic store.
        pub fn store(&self, value: bool, order: super::Ordering) {
            trace_op();
            self.0.store(value, order)
        }

        /// Atomic swap, returning the previous value.
        pub fn swap(&self, value: bool, order: super::Ordering) -> bool {
            trace_op();
            self.0.swap(value, order)
        }
    }
}

pub use imp::{Condvar, Mutex, MutexGuard, RwLock};

/// The loom-switched atomic types.
pub mod atomic {
    pub use super::imp::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize};
    pub use super::Ordering;
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
}
