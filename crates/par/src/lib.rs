//! `drec-par` — a dependency-free scoped thread pool for intra-operator
//! parallelism.
//!
//! The offline build environment has no access to `rayon`, so this crate
//! supplies the small slice of it the kernels actually need (in the same
//! spirit as `drec-check` standing in for `proptest`):
//!
//! * [`ParPool`] — a fixed-size pool of worker threads sharing one task
//!   queue, which spin for [`SPIN`] after their last task and then park,
//! * [`ParPool::scope`] — structured spawning of closures that borrow the
//!   caller's stack (the scope does not return until every spawned task
//!   finished; panics propagate to the caller),
//! * [`ParPool::for_each_chunk`] — data-parallel iteration over index
//!   chunks, load-balanced through an atomic work counter,
//! * [`ParPool::for_each_chunk_mut`] — the same over disjoint mutable
//!   sub-slices of an output buffer (how the GEMM and embedding kernels
//!   write rows in parallel without `unsafe` at the call site),
//! * [`ParPool::for_each_column_tile_mut`] — the same over disjoint column
//!   strips of a row-major matrix (how a GEMM with fewer row blocks than
//!   threads still gives every thread its own slice of the weights).
//!
//! # Determinism
//!
//! Chunk *boundaries* are a pure function of `(len, chunk)` — never of the
//! thread count — and every chunk is processed by the same code path
//! regardless of which thread runs it. A kernel whose chunks write
//! disjoint outputs with a fixed intra-chunk reduction order therefore
//! produces bit-identical results for any pool size, including the
//! sequential fallback. `DREC_THREADS=1` forces the [`global`] pool to one
//! thread, turning every parallel region into plain in-order execution.
//!
//! # Deadlock freedom
//!
//! The thread that opens a scope *helps*: after the scope body returns, it
//! drains tasks from the shared queue itself until its own scope has no
//! pending work, and only then (after [`SPIN`] of watching) parks on a
//! completion condvar. A scope's
//! tasks are thus always executed by somebody — there is no configuration
//! in which all threads wait while runnable work sits queued.
//!
//! # Example
//!
//! ```
//! use std::sync::atomic::{AtomicUsize, Ordering};
//!
//! let pool = drec_par::ParPool::new(4);
//! let hits = AtomicUsize::new(0);
//! pool.for_each_chunk(100, 7, |range| {
//!     hits.fetch_add(range.len(), Ordering::Relaxed);
//! });
//! assert_eq!(hits.load(Ordering::Relaxed), 100);
//! ```

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use drec_sync::CachePadded;

/// Environment variable forcing the [`global`] pool's thread count.
///
/// `DREC_THREADS=1` yields deterministic single-thread execution with no
/// worker threads at all; unset or invalid values fall back to
/// `std::thread::available_parallelism()`.
pub const THREADS_ENV: &str = "DREC_THREADS";

/// How long a thread with nothing to run watches for work before it
/// parks: a worker watches the queue's task count, a scope owner whose
/// last tasks run elsewhere watches its scope's pending count and the
/// queue (and runs what appears there).
///
/// A thread spins only while the pool's workers plus the threads inside
/// its scopes (at least one) are no more than the host's cores, so a
/// spinner never holds a core that a working thread waits for: a pool
/// wider than the host never spins, and a pool as wide as the host stops
/// spinning while a second thread, such as another serving worker, has
/// a scope open on it.
///
/// A wake and a join cost a parked fan-out 17–27 µs on the 2-core x86_64
/// benchmark host, a spinning one about 2 µs, so the consecutive products
/// of one batch (an FC stack's layers, a plan's waves, a GRU's steps)
/// should find the helper awake. At 200 µs, `perf_bench`'s
/// `dense_small_batch` (RM3 at batch 2–4 on a 2-thread pool) read
/// `setup_s` 0.57 s against 0.77 s parked at once (medians of ten 20 s
/// pairs) at the same CPU per request; 20, 50 and 100 µs bought less.
/// With the owner count it read 0.51 against 0.71 s, again at the same
/// CPU; in the host's slow spells, when its second core comes and goes,
/// 0.62 against 0.93 s and 1.03 against 1.23 s, at 2–5 % more CPU.
pub const SPIN: Duration = Duration::from_micros(200);

type Task = Box<dyn FnOnce() + Send + 'static>;

/// Cumulative execution counters of a [`ParPool`], all monotone.
///
/// `busy` sums wall-clock time spent inside tasks across *all* executing
/// threads (workers plus scope owners helping), so
/// `busy / (threads × elapsed)` estimates pool utilization over an
/// interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Logical thread count of the pool (workers + the helping caller).
    pub threads: usize,
    /// Tasks taken for execution; every task of a scope that has
    /// returned is counted (for_each_chunk grabbers count once per
    /// grabber, not per chunk).
    pub tasks: u64,
    /// Parallel chunks processed by [`ParPool::for_each_chunk`] /
    /// [`ParPool::for_each_chunk_mut`], and column tiles by
    /// [`ParPool::for_each_column_tile_mut`].
    pub(crate) chunks: u64,
    /// Total nanoseconds spent executing tasks, summed across threads.
    /// Added when a task ends, so the last task of a scope that has just
    /// returned may not be in it yet.
    pub(crate) busy_nanos: u64,
}

impl PoolStats {
    /// Counter-wise difference `self - earlier` (threads kept from self).
    pub fn since(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            threads: self.threads,
            tasks: self.tasks.saturating_sub(earlier.tasks),
            chunks: self.chunks.saturating_sub(earlier.chunks),
            busy_nanos: self.busy_nanos.saturating_sub(earlier.busy_nanos),
        }
    }

    /// Busy time as seconds.
    pub(crate) fn busy_seconds(&self) -> f64 {
        self.busy_nanos as f64 / 1e9
    }

    /// Mean busy fraction per thread over `elapsed` wall-clock seconds.
    pub fn utilization(&self, elapsed_seconds: f64) -> f64 {
        if elapsed_seconds <= 0.0 || self.threads == 0 {
            return 0.0;
        }
        (self.busy_seconds() / (self.threads as f64 * elapsed_seconds)).min(1.0)
    }
}

struct QueueState {
    tasks: VecDeque<Task>,
    shutdown: bool,
    /// Workers parked on `work_cv`; a push notifies only when one is.
    parked: usize,
}

impl std::fmt::Debug for ParPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParPool")
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

struct Shared {
    queue: Mutex<QueueState>,
    /// `queue.tasks.len()`, stored under the lock: what a spinning
    /// worker watches without taking it.
    queued: CachePadded<AtomicUsize>,
    /// Threads inside one of the pool's scopes, counted once per thread
    /// (not for a nested scope, nor for the pool's own workers).
    owners: CachePadded<AtomicUsize>,
    /// The most `owners` at which idle threads still spin: the host's
    /// cores (read once, at creation) less the workers; 0 when the pool
    /// has no workers or more threads than cores, so it never spins.
    spin_owners: usize,
    work_cv: Condvar,
    // Every executing thread bumps all three counters per task; padding
    // keeps a worker's increment from bouncing its neighbors' lines.
    tasks: CachePadded<AtomicU64>,
    chunks: CachePadded<AtomicU64>,
    busy_nanos: CachePadded<AtomicU64>,
}

impl Shared {
    fn run_task(&self, task: Task) {
        // Counted before it runs: a scoped task ends by releasing its
        // scope's owner (`ScopeState::complete`), so an increment after
        // `task()` could land after `scope` has returned. The `Release`
        // there and the owner's `Acquire` load of `pending` order this one
        // ahead of the return.
        self.tasks.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        task();
        // The time is not known until the task is over, so `busy_nanos`
        // may still trail a scope that has returned.
        self.busy_nanos.fetch_add(
            start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64,
            Ordering::Relaxed,
        );
    }

    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.queue.lock().expect("pool queue poisoned")
    }

    fn pop(&self, queue: &mut QueueState) -> Option<Task> {
        let task = queue.tasks.pop_front();
        self.queued.store(queue.tasks.len(), Ordering::Relaxed);
        task
    }

    fn try_pop(&self) -> Option<Task> {
        self.pop(&mut self.lock())
    }

    /// Polls `done` until it holds, [`SPIN`] has passed or more threads
    /// than `spin_owners` have a scope open.
    fn spin_until(&self, done: impl Fn() -> bool) {
        let start = Instant::now();
        while self.owners.load(Ordering::Relaxed).max(1) <= self.spin_owners
            && start.elapsed() < SPIN
        {
            for _ in 0..64 {
                if done() {
                    return;
                }
                std::hint::spin_loop();
            }
        }
    }
}

/// A fixed-size thread pool executing scoped tasks.
///
/// A pool of `threads == 1` spawns no workers: every parallel API runs its
/// work inline on the calling thread, in submission order. Larger pools
/// spawn `threads - 1` parked workers; the thread that opens a scope acts
/// as the remaining executor.
pub struct ParPool {
    shared: Arc<Shared>,
    threads: usize,
    workers: Vec<JoinHandle<()>>,
}

impl ParPool {
    /// Creates a pool with `threads` logical threads (clamped to ≥ 1).
    pub fn new(threads: usize) -> Arc<ParPool> {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState {
                tasks: VecDeque::new(),
                shutdown: false,
                parked: 0,
            }),
            queued: CachePadded::new(AtomicUsize::new(0)),
            owners: CachePadded::new(AtomicUsize::new(0)),
            spin_owners: match std::thread::available_parallelism() {
                Ok(cores) if threads > 1 => (cores.get() + 1).saturating_sub(threads),
                _ => 0,
            },
            work_cv: Condvar::new(),
            tasks: CachePadded::new(AtomicU64::new(0)),
            chunks: CachePadded::new(AtomicU64::new(0)),
            busy_nanos: CachePadded::new(AtomicU64::new(0)),
        });
        let workers = (1..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("drec-par-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        Arc::new(ParPool {
            shared,
            threads,
            workers,
        })
    }

    /// Logical thread count (workers + the helping scope owner).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            threads: self.threads,
            tasks: self.shared.tasks.load(Ordering::Relaxed),
            chunks: self.shared.chunks.load(Ordering::Relaxed),
            busy_nanos: self.shared.busy_nanos.load(Ordering::Relaxed),
        }
    }

    /// Runs `f` with a [`Scope`] on which tasks borrowing the caller's
    /// stack can be spawned. Returns once every spawned task completed.
    ///
    /// # Panics
    ///
    /// If a spawned task panicked, the first panic payload is re-raised
    /// here (after all tasks finished, so borrowed data is never observed
    /// by a still-running task). A panic in `f` itself propagates the same
    /// way.
    pub fn scope<'env, R>(&self, f: impl FnOnce(&Scope<'_, 'env>) -> R) -> R {
        let pool = Arc::as_ptr(&self.shared) as usize;
        let outer = WORKS_FOR.replace(pool);
        if outer != pool {
            self.shared.owners.fetch_add(1, Ordering::Relaxed);
        }
        let state = Arc::new(ScopeState::default());
        let scope = Scope {
            pool: self,
            state: Arc::clone(&state),
            _env: PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        self.run_until_complete(&state);
        WORKS_FOR.set(outer);
        if outer != pool {
            self.shared.owners.fetch_sub(1, Ordering::Relaxed);
        }
        if let Some(payload) = state.take_panic() {
            resume_unwind(payload);
        }
        match result {
            Ok(r) => r,
            Err(payload) => resume_unwind(payload),
        }
    }

    /// Calls `f` once per chunk of `0..len`, chunks of `chunk` indices
    /// (the last may be shorter), distributed over the pool through an
    /// atomic work counter.
    ///
    /// Every index is covered exactly once. Chunk boundaries depend only
    /// on `(len, chunk)`, so kernels with disjoint chunk outputs are
    /// bit-identical across pool sizes. With one thread (or a single
    /// chunk) the chunks run inline, in order.
    pub fn for_each_chunk<F>(&self, len: usize, chunk: usize, f: F)
    where
        F: Fn(Range<usize>) + Sync,
    {
        let chunk = chunk.max(1);
        if len == 0 {
            return;
        }
        let nchunks = len.div_ceil(chunk);
        self.shared
            .chunks
            .fetch_add(nchunks as u64, Ordering::Relaxed);
        if self.threads == 1 || nchunks == 1 {
            for c in 0..nchunks {
                f(c * chunk..((c + 1) * chunk).min(len));
            }
            return;
        }
        let next = AtomicUsize::new(0);
        let grabbers = self.threads.min(nchunks);
        self.scope(|s| {
            for _ in 0..grabbers {
                s.spawn(|| loop {
                    let c = next.fetch_add(1, Ordering::Relaxed);
                    if c >= nchunks {
                        break;
                    }
                    f(c * chunk..((c + 1) * chunk).min(len));
                });
            }
        });
    }

    /// Splits `data` into consecutive chunks of `chunk` elements and calls
    /// `f(offset, sub_slice)` for each, in parallel. Offsets are element
    /// indices of each chunk's start within `data`.
    ///
    /// This is the mutable-output counterpart of [`Self::for_each_chunk`]:
    /// the borrow checker guarantees the sub-slices are disjoint, so
    /// kernels need no `unsafe` to write rows concurrently.
    pub fn for_each_chunk_mut<T, F>(&self, data: &mut [T], chunk: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let chunk = chunk.max(1);
        if data.is_empty() {
            return;
        }
        let nchunks = data.len().div_ceil(chunk);
        self.shared
            .chunks
            .fetch_add(nchunks as u64, Ordering::Relaxed);
        if self.threads == 1 || nchunks == 1 {
            for (c, sub) in data.chunks_mut(chunk).enumerate() {
                f(c * chunk, sub);
            }
            return;
        }
        let f = &f;
        self.scope(|s| {
            for (c, sub) in data.chunks_mut(chunk).enumerate() {
                s.spawn(move || f(c * chunk, sub));
            }
        });
    }

    /// Splits a row-major matrix of `cols`-wide rows into column tiles of
    /// `tile_cols` columns (the last may be narrower) and calls
    /// `f(col0, rows)` for each, in parallel: `rows[i]` is row `i`'s
    /// columns `col0..col0 + rows[i].len()`.
    ///
    /// The column counterpart of [`Self::for_each_chunk_mut`], for outputs
    /// with too few rows to give every thread one: each task owns a
    /// vertical strip of every row. The strips are carved with
    /// `chunks_mut`, so the borrow checker proves them disjoint. Tile
    /// boundaries depend only on `(cols, tile_cols)`.
    ///
    /// # Panics
    ///
    /// Panics if `cols` is zero or `data.len()` is not a multiple of it.
    pub fn for_each_column_tile_mut<T, F>(
        &self,
        data: &mut [T],
        cols: usize,
        tile_cols: usize,
        f: F,
    ) where
        T: Send,
        F: Fn(usize, &mut [&mut [T]]) + Sync,
    {
        if data.is_empty() {
            return;
        }
        assert_eq!(data.len() % cols, 0, "matrix is whole rows");
        let tile_cols = tile_cols.max(1);
        let ntiles = cols.div_ceil(tile_cols);
        let rows = data.len() / cols;
        let mut tiles: Vec<Vec<&mut [T]>> = (0..ntiles).map(|_| Vec::with_capacity(rows)).collect();
        for row in data.chunks_mut(cols) {
            for (tile, strip) in tiles.iter_mut().zip(row.chunks_mut(tile_cols)) {
                tile.push(strip);
            }
        }
        self.shared
            .chunks
            .fetch_add(ntiles as u64, Ordering::Relaxed);
        if self.threads == 1 || ntiles == 1 {
            for (t, tile) in tiles.iter_mut().enumerate() {
                f(t * tile_cols, tile);
            }
            return;
        }
        let f = &f;
        self.scope(|s| {
            for (t, mut tile) in tiles.into_iter().enumerate() {
                s.spawn(move || f(t * tile_cols, &mut tile));
            }
        });
    }

    fn push(&self, task: Task) {
        let mut queue = self.shared.lock();
        queue.tasks.push_back(task);
        self.shared
            .queued
            .store(queue.tasks.len(), Ordering::Relaxed);
        let parked = queue.parked > 0;
        drop(queue);
        if parked {
            self.shared.work_cv.notify_one();
        }
    }

    /// Executes queued tasks on the calling thread until `state` has no
    /// pending work. When the queue is empty (this scope's remaining
    /// tasks are already running on other threads) it watches `pending`
    /// and the queue for [`SPIN`], runs a task that appears there (a
    /// nested scope's, say), and otherwise parks on the completion condvar.
    fn run_until_complete(&self, state: &ScopeState) {
        let mut spun = false;
        while state.pending.load(Ordering::Acquire) > 0 {
            match self.shared.try_pop() {
                Some(task) => {
                    self.shared.run_task(task);
                    spun = false;
                }
                None if !spun => {
                    self.shared.spin_until(|| {
                        state.pending.load(Ordering::Acquire) == 0
                            || self.shared.queued.load(Ordering::Relaxed) > 0
                    });
                    spun = true;
                }
                None => {
                    let mut parked = state.done_mx.lock().expect("scope lock poisoned");
                    if state.pending.load(Ordering::Acquire) == 0 {
                        break;
                    }
                    *parked = true;
                    // Completion is signalled under `done_mx`, so this wait
                    // cannot miss it; the timeout is pure defence in depth.
                    let (mut parked, _) = state
                        .done_cv
                        .wait_timeout(parked, Duration::from_millis(10))
                        .expect("scope lock poisoned");
                    *parked = false;
                }
            }
        }
    }
}

impl Drop for ParPool {
    fn drop(&mut self) {
        {
            let mut queue = self.shared.lock();
            queue.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Runs queued tasks until shutdown. A worker that finds the queue empty
/// watches `queued` for [`SPIN`] off the lock, then looks once more under
/// it before parking: a push stores `queued` and notifies under the same
/// lock, so the park cannot miss it.
fn worker_loop(shared: &Shared) {
    WORKS_FOR.set(shared as *const Shared as usize);
    loop {
        let task = {
            let mut queue = shared.lock();
            let mut spun = false;
            loop {
                if let Some(task) = shared.pop(&mut queue) {
                    break task;
                }
                if queue.shutdown {
                    return;
                }
                if spun {
                    queue.parked += 1;
                    queue = shared.work_cv.wait(queue).expect("pool queue poisoned");
                    queue.parked -= 1;
                } else {
                    drop(queue);
                    shared.spin_until(|| shared.queued.load(Ordering::Relaxed) > 0);
                    spun = true;
                    queue = shared.lock();
                }
            }
        };
        shared.run_task(task);
    }
}

#[derive(Default)]
struct ScopeState {
    pending: AtomicUsize,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Whether the owner is parked on `done_cv`.
    done_mx: Mutex<bool>,
    done_cv: Condvar,
}

impl ScopeState {
    fn complete(&self) {
        // Decrement under the lock so a waiter that saw `pending > 0`
        // while holding it is guaranteed to receive the notification.
        let parked = self.done_mx.lock().expect("scope lock poisoned");
        self.pending.fetch_sub(1, Ordering::Release);
        if *parked {
            self.done_cv.notify_all();
        }
    }

    fn record_panic(&self, payload: Box<dyn Any + Send>) {
        let mut slot = self.panic.lock().expect("scope panic lock poisoned");
        if slot.is_none() {
            *slot = Some(payload);
        }
    }

    fn take_panic(&self) -> Option<Box<dyn Any + Send>> {
        self.panic.lock().expect("scope panic lock poisoned").take()
    }
}

/// Handle for spawning borrowed tasks inside [`ParPool::scope`].
///
/// The `'env` lifetime is invariant: spawned closures may borrow anything
/// that outlives the `scope` call, and the scope joins them all before
/// returning, so those borrows never dangle.
pub struct Scope<'pool, 'env> {
    pool: &'pool ParPool,
    state: Arc<ScopeState>,
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'_, 'env> {
    /// Spawns `f` onto the pool. Panics inside `f` are captured and
    /// re-raised by the enclosing [`ParPool::scope`] call after all tasks
    /// finish.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        self.state.pending.fetch_add(1, Ordering::AcqRel);
        let state = Arc::clone(&self.state);
        let task: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                state.record_panic(payload);
            }
            state.complete();
        });
        // SAFETY: the task only borrows data living at least `'env`, and
        // `ParPool::scope` does not return (even on panic) until `pending`
        // reaches zero, i.e. until this closure has run to completion. The
        // lifetime is therefore never observed expired.
        let task: Task =
            unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Task>(task) };
        self.pool.push(task);
    }
}

static GLOBAL: OnceLock<Arc<ParPool>> = OnceLock::new();

thread_local! {
    /// The pool (its `Shared`'s address) this thread works for: the one
    /// it is a worker of, or the one whose scope it has open; 0 for none.
    static WORKS_FOR: Cell<usize> = const { Cell::new(0) };
    static POOL_OVERRIDE: RefCell<Vec<Arc<ParPool>>> = const { RefCell::new(Vec::new()) };
}

/// The process-wide pool, created on first use with [`THREADS_ENV`]
/// threads (falling back to `available_parallelism`).
pub fn global() -> Arc<ParPool> {
    Arc::clone(GLOBAL.get_or_init(|| {
        let threads = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        ParPool::new(threads)
    }))
}

/// The pool kernels should use on this thread: the innermost active
/// [`with_pool`] override, else the [`global`] pool.
pub fn current() -> Arc<ParPool> {
    POOL_OVERRIDE
        .with(|stack| stack.borrow().last().cloned())
        .unwrap_or_else(global)
}

/// Runs `f` with `pool` as this thread's [`current`] pool (nestable;
/// restored on exit, including on panic).
///
/// This is how the serving engine pins a batch execution to its pool, and
/// how benchmarks/tests sweep thread counts inside one process.
pub fn with_pool<R>(pool: &Arc<ParPool>, f: impl FnOnce() -> R) -> R {
    POOL_OVERRIDE.with(|stack| stack.borrow_mut().push(Arc::clone(pool)));
    let result = catch_unwind(AssertUnwindSafe(f));
    POOL_OVERRIDE.with(|stack| {
        stack.borrow_mut().pop();
    });
    match result {
        Ok(r) => r,
        Err(payload) => resume_unwind(payload),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn single_thread_pool_runs_inline_in_order() {
        let pool = ParPool::new(1);
        let order = Mutex::new(Vec::new());
        pool.for_each_chunk(10, 3, |range| {
            order.lock().unwrap().push(range.start);
        });
        assert_eq!(*order.lock().unwrap(), vec![0, 3, 6, 9]);
    }

    #[test]
    fn scope_joins_all_tasks() {
        let pool = ParPool::new(4);
        let counter = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..32 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn chunk_mut_offsets_tile_the_slice() {
        let pool = ParPool::new(3);
        let mut data = vec![0usize; 100];
        pool.for_each_chunk_mut(&mut data, 7, |offset, sub| {
            for (i, v) in sub.iter_mut().enumerate() {
                *v = offset + i;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i);
        }
    }

    #[test]
    fn a_thread_counts_once_as_an_owner_and_a_worker_never() {
        let pool = ParPool::new(2);
        let owners = || pool.shared.owners.load(Ordering::Relaxed);
        let seen = Mutex::new(Vec::new());
        pool.scope(|s| {
            seen.lock().unwrap().push(owners());
            pool.scope(|_| seen.lock().unwrap().push(owners()));
            for _ in 0..8 {
                // On the worker or on this thread, a nested scope.
                s.spawn(|| pool.scope(|_| seen.lock().unwrap().push(owners())));
            }
        });
        assert!(seen.lock().unwrap().iter().all(|&n| n == 1));
        assert_eq!(owners(), 0);
        // Two threads with scopes open at once are two owners.
        let both_open = std::sync::Barrier::new(2);
        std::thread::scope(|t| {
            for _ in 0..2 {
                t.spawn(|| {
                    pool.scope(|_| {
                        both_open.wait();
                        seen.lock().unwrap().push(owners());
                        both_open.wait();
                    })
                });
            }
        });
        assert_eq!(seen.lock().unwrap()[10..], [2, 2]);
        assert_eq!(owners(), 0);
    }

    #[test]
    fn stats_count_busy_time_and_chunks() {
        let pool = ParPool::new(2);
        let before = pool.stats();
        pool.for_each_chunk(64, 8, |range| {
            std::hint::black_box(range.len());
        });
        let delta = pool.stats().since(&before);
        assert_eq!(delta.chunks, 8);
        assert!(delta.tasks >= 1);
        assert_eq!(delta.threads, 2);
    }

    #[test]
    fn a_returned_scope_has_counted_every_task() {
        let pool = ParPool::new(4);
        for round in 0..2_000 {
            let before = pool.stats();
            pool.scope(|s| {
                for _ in 0..3 {
                    // Long enough that a woken worker finishes one last:
                    // a count taken after `task()` is short 1 round in 10.
                    s.spawn(|| {
                        std::hint::black_box((0..200u64).fold(0, |a, b| a ^ b));
                    });
                }
            });
            let delta = pool.stats().since(&before);
            assert_eq!(delta.tasks, 3, "round {round}");
        }
    }

    #[test]
    fn with_pool_overrides_current() {
        let pool = ParPool::new(3);
        let seen = with_pool(&pool, || current().threads());
        assert_eq!(seen, 3);
        // Restored afterwards: current() is the global (or outer) pool.
        assert!(!Arc::ptr_eq(&current(), &pool));
    }

    #[test]
    fn env_name_is_stable() {
        // The serving docs and CI reference this exact variable.
        assert_eq!(THREADS_ENV, "DREC_THREADS");
    }
}
