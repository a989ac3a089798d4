//! An in-tree model checker behind the loom `model()` API.
//!
//! The container this repo builds in has no network access, so the real
//! `loom` crate cannot be vendored; this module implements the same
//! contract with a shuttle-style explorer: every instrumented operation
//! (see [`crate::Mutex`], [`crate::Condvar`], [`crate::atomic`]) is a
//! *schedule point*, real OS threads are serialized so exactly one runs
//! between points, and [`model`] re-runs the closure once per distinct
//! schedule, enumerating schedules depth-first under a preemption bound.
//!
//! What this checks: every interleaving of instrumented operations at
//! sequential consistency, up to `LOOM_MAX_PREEMPTIONS` involuntary
//! context switches per execution (loom's own default exploration is
//! similarly bounded). Deadlocks (all live threads blocked with no timed
//! waiter) and panics on any thread fail the check and report the
//! iteration count.
//!
//! What this does not check: weak-memory reorderings (all atomics are
//! explored as SC), real time (timed waits are modeled as a
//! nondeterministic notified-or-timed-out choice, so checked code must
//! not branch on `Instant::now()` arithmetic), and schedules beyond the
//! preemption bound.
//!
//! Knobs (environment variables, read once per [`model`] call):
//!
//! * `LOOM_MAX_PREEMPTIONS` — preemption bound per execution (default 2),
//! * `LOOM_MAX_ITERATIONS` — executions before the check aborts as too
//!   large (default 250 000),
//! * `LOOM_MAX_TRACE` — schedule points per execution before the check
//!   aborts as a livelock (default 20 000).

use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;

/// Identifies one instrumented sync object (mutex, rwlock, condvar,
/// join) inside an execution's wait tables. Allocated from a process
/// global so ids never collide across objects or executions.
pub(crate) type ResourceId = usize;

// Only referenced by the `cfg(loom)` instrumented primitives.
#[cfg_attr(not(loom), allow(dead_code))]
static NEXT_RESOURCE: AtomicUsize = AtomicUsize::new(0);

/// A fresh id for an instrumented object's wait queue.
#[cfg_attr(not(loom), allow(dead_code))]
pub(crate) fn new_resource_id() -> ResourceId {
    NEXT_RESOURCE.fetch_add(1, Ordering::Relaxed)
}

/// One recorded decision: which of `num_options` branches ran, which of
/// them would have cost a preemption, and the preemption count before
/// this point (so [`next_prefix`] can honor the bound when branching).
#[derive(Clone)]
struct ChoiceRecord {
    num_options: usize,
    chosen: usize,
    costs: Vec<bool>,
    preemptions_before: usize,
}

struct ThreadState {
    /// Eligible to be scheduled (false while blocked or finished).
    runnable: bool,
    finished: bool,
    /// Blocked in a wait that a real clock would eventually end, so the
    /// scheduler may force-wake it instead of declaring a deadlock.
    timed: bool,
    /// Set by a forced wake so the blocked operation reports a timeout
    /// rather than a notification.
    woke_by_timeout: bool,
}

struct SchedState {
    threads: Vec<ThreadState>,
    /// The one thread allowed to run right now.
    active: usize,
    trace: Vec<ChoiceRecord>,
    /// Forced decisions replayed from the previous execution's trace;
    /// `(chosen, num_options)` so replay divergence is detected.
    prefix: Vec<(usize, usize)>,
    preemptions: usize,
    max_trace: usize,
    /// First failure (deadlock, livelock, replay divergence) — set once,
    /// then every parked thread aborts.
    failed: Option<String>,
    /// Payload of the first panicking thread, rethrown by [`model`].
    panic_payload: Option<Box<dyn std::any::Any + Send>>,
    /// Blocked threads per resource, in block order.
    waiters: HashMap<ResourceId, Vec<usize>>,
    /// Real handles of spawned threads, joined after the execution.
    os_handles: Vec<thread::JoinHandle<()>>,
    live: usize,
}

pub(crate) struct Execution {
    sched: Mutex<SchedState>,
    cv: Condvar,
}

thread_local! {
    static CURRENT: RefCell<Option<(Arc<Execution>, usize)>> = const { RefCell::new(None) };
}

/// The calling thread's execution context, if it is a model thread.
/// Instrumented primitives fall back to plain `std` behavior when this
/// is `None`, so `--cfg loom` builds still run ordinary tests.
pub(crate) fn current() -> Option<(Arc<Execution>, usize)> {
    CURRENT.with(|c| c.borrow().clone())
}

fn lock_sched(exec: &Execution) -> MutexGuard<'_, SchedState> {
    // A panicking model thread poisons the scheduler lock; recovery is
    // safe because every mutation leaves the state consistent.
    exec.sched.lock().unwrap_or_else(|p| p.into_inner())
}

impl Execution {
    fn new(prefix: Vec<(usize, usize)>, max_trace: usize) -> Execution {
        Execution {
            sched: Mutex::new(SchedState {
                threads: Vec::new(),
                active: 0,
                trace: Vec::new(),
                prefix,
                preemptions: 0,
                max_trace,
                failed: None,
                panic_payload: None,
                waiters: HashMap::new(),
                os_handles: Vec::new(),
                live: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// Fails the execution and wakes everyone so parked threads abort.
    fn fail(&self, st: &mut SchedState, why: String) -> ! {
        if st.failed.is_none() {
            st.failed = Some(why.clone());
        }
        self.cv.notify_all();
        panic!("model check failed: {why}");
    }

    /// Records a decision among `costs.len()` options (`costs[i]` = does
    /// picking `i` spend a preemption) and returns the chosen index:
    /// replayed from the prefix, or the first free option by default.
    fn decide(&self, st: &mut SchedState, costs: Vec<bool>) -> usize {
        if st.trace.len() >= st.max_trace {
            self.fail(
                st,
                format!(
                    "execution exceeded LOOM_MAX_TRACE={} schedule points (livelock?)",
                    st.max_trace
                ),
            );
        }
        let idx = st.trace.len();
        let chosen = if idx < st.prefix.len() {
            let (chosen, expect_options) = st.prefix[idx];
            if expect_options != costs.len() {
                self.fail(
                    st,
                    format!(
                        "nondeterministic replay at point {idx}: expected {expect_options} \
                         options, saw {} (does the checked code branch on real time?)",
                        costs.len()
                    ),
                );
            }
            chosen
        } else {
            costs.iter().position(|&c| !c).unwrap_or(0)
        };
        st.trace.push(ChoiceRecord {
            num_options: costs.len(),
            chosen,
            costs,
            preemptions_before: st.preemptions,
        });
        chosen
    }

    /// Picks the next thread to run. `current_blocked` means `me` cannot
    /// continue (it is blocking or finishing), so switching is free;
    /// otherwise running any thread but `me` costs one preemption.
    fn pick_next(&self, st: &mut SchedState, me: usize, current_blocked: bool) {
        let mut candidates: Vec<usize> = Vec::new();
        if !current_blocked && st.threads[me].runnable {
            candidates.push(me);
        }
        for (tid, t) in st.threads.iter().enumerate() {
            if tid != me && t.runnable && !t.finished {
                candidates.push(tid);
            }
        }
        if candidates.is_empty() {
            // Before declaring deadlock, force-expire timed waiters: a
            // real clock would end those waits.
            let mut timed: Vec<usize> = Vec::new();
            for (tid, t) in st.threads.iter().enumerate() {
                if t.timed && !t.finished && !t.runnable {
                    timed.push(tid);
                }
            }
            if timed.is_empty() {
                if st.live == 0 {
                    // Everything finished; nothing to schedule.
                    self.cv.notify_all();
                    return;
                }
                self.fail(st, "deadlock: every live thread is blocked".to_string());
            }
            for &tid in &timed {
                st.threads[tid].runnable = true;
                st.threads[tid].timed = false;
                st.threads[tid].woke_by_timeout = true;
            }
            for queue in st.waiters.values_mut() {
                queue.retain(|t| !timed.contains(t));
            }
            candidates = timed;
        }
        let costs: Vec<bool> = candidates
            .iter()
            .map(|&tid| !current_blocked && tid != me)
            .collect();
        let chosen = self.decide(st, costs.clone());
        if costs[chosen] {
            st.preemptions += 1;
        }
        st.active = candidates[chosen];
        self.cv.notify_all();
    }

    /// Parks the calling OS thread until the scheduler hands it the
    /// token (or the execution fails).
    fn wait_for_turn<'a>(
        &'a self,
        mut st: MutexGuard<'a, SchedState>,
        me: usize,
    ) -> MutexGuard<'a, SchedState> {
        loop {
            if st.failed.is_some() {
                drop(st);
                panic!("model execution aborted");
            }
            if st.active == me {
                return st;
            }
            st = self
                .cv
                .wait(st)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    /// A preemption point: every instrumented operation calls this
    /// before acting, giving the explorer a chance to switch threads.
    pub(crate) fn schedule_point(self: &Arc<Self>, me: usize) {
        let mut st = lock_sched(self);
        self.pick_next(&mut st, me, false);
        let _st = self.wait_for_turn(st, me);
    }

    /// A voluntary yield (spin-loop hint): if any other thread can run,
    /// one of them must — this is what makes model-checked spin waits
    /// terminate instead of exploring unbounded self-schedules.
    pub(crate) fn yield_point(self: &Arc<Self>, me: usize) {
        let mut st = lock_sched(self);
        let others: Vec<usize> = st
            .threads
            .iter()
            .enumerate()
            .filter(|&(tid, t)| tid != me && t.runnable && !t.finished)
            .map(|(tid, _)| tid)
            .collect();
        if others.is_empty() {
            return;
        }
        let costs = vec![false; others.len()];
        let chosen = self.decide(&mut st, costs);
        st.active = others[chosen];
        self.cv.notify_all();
        let _st = self.wait_for_turn(st, me);
    }

    /// A two-way nondeterministic choice (used for timed waits); does
    /// not switch threads and costs no preemption.
    // Only reached from the `cfg(loom)` instrumented primitives.
    #[cfg_attr(not(loom), allow(dead_code))]
    pub(crate) fn nondet_bool(self: &Arc<Self>, _me: usize) -> bool {
        let mut st = lock_sched(self);
        self.decide(&mut st, vec![false, false]) == 1
    }

    /// Blocks the calling thread on `res` until a wake (or, when `timed`,
    /// a forced expiry). Returns true if the wake was a forced timeout.
    pub(crate) fn block_on(self: &Arc<Self>, me: usize, res: ResourceId, timed: bool) -> bool {
        let mut st = lock_sched(self);
        st.threads[me].runnable = false;
        st.threads[me].timed = timed;
        st.threads[me].woke_by_timeout = false;
        st.waiters.entry(res).or_default().push(me);
        self.pick_next(&mut st, me, true);
        let mut st = self.wait_for_turn(st, me);
        st.threads[me].timed = false;
        let timed_out = st.threads[me].woke_by_timeout;
        st.threads[me].woke_by_timeout = false;
        timed_out
    }

    /// Makes the oldest waiter on `res` runnable again (it re-contends
    /// from its blocking loop). Does not switch threads — a notify runs
    /// to its own next schedule point first, exactly like the real API.
    #[cfg_attr(not(loom), allow(dead_code))]
    pub(crate) fn wake_one(self: &Arc<Self>, res: ResourceId) {
        let mut st = lock_sched(self);
        if let Some(queue) = st.waiters.get_mut(&res) {
            if !queue.is_empty() {
                let tid = queue.remove(0);
                st.threads[tid].runnable = true;
                st.threads[tid].timed = false;
            }
        }
    }

    /// Makes every waiter on `res` runnable again.
    #[cfg_attr(not(loom), allow(dead_code))]
    pub(crate) fn wake_all(self: &Arc<Self>, res: ResourceId) {
        let mut st = lock_sched(self);
        if let Some(queue) = st.waiters.remove(&res) {
            for tid in queue {
                st.threads[tid].runnable = true;
                st.threads[tid].timed = false;
            }
        }
    }

    /// Registers a new model thread and returns its id.
    fn register_thread(&self) -> usize {
        let mut st = lock_sched(self);
        st.threads.push(ThreadState {
            runnable: true,
            finished: false,
            timed: false,
            woke_by_timeout: false,
        });
        st.live += 1;
        st.threads.len() - 1
    }

    /// Marks `me` finished, wakes joiners, hands the token on, and
    /// records a panic payload if the thread unwound.
    fn finish_thread(
        self: &Arc<Self>,
        me: usize,
        panic_payload: Option<Box<dyn std::any::Any + Send>>,
    ) {
        let mut st = lock_sched(self);
        st.threads[me].finished = true;
        st.threads[me].runnable = false;
        st.live -= 1;
        if let Some(queue) = st.waiters.remove(&join_resource(me)) {
            for tid in queue {
                st.threads[tid].runnable = true;
                st.threads[tid].timed = false;
            }
        }
        if let Some(payload) = panic_payload {
            if st.failed.is_none() {
                st.failed = Some("a model thread panicked".to_string());
                st.panic_payload = Some(payload);
            }
            self.cv.notify_all();
            return;
        }
        if st.failed.is_none() {
            self.pick_next(&mut st, me, true);
        } else {
            self.cv.notify_all();
        }
    }
}

/// Join waits use a per-thread pseudo-resource carved from the top of
/// the id space so they never collide with object ids.
fn join_resource(tid: usize) -> ResourceId {
    usize::MAX - tid
}

/// Handle to a thread spawned inside (or outside) a model execution.
/// Outside a model this is a thin wrapper over [`std::thread::spawn`].
pub struct JoinHandle<T> {
    inner: JoinInner<T>,
}

enum JoinInner<T> {
    Os(thread::JoinHandle<T>),
    Model {
        exec: Arc<Execution>,
        tid: usize,
        result: Arc<Mutex<Option<T>>>,
    },
}

impl<T> JoinHandle<T> {
    /// Blocks until the thread finishes, returning its result. Inside a
    /// model this is a modeled blocking point; a panic on the child is
    /// reported through the execution, so `Err` is only seen outside.
    pub fn join(self) -> thread::Result<T> {
        match self.inner {
            JoinInner::Os(handle) => handle.join(),
            JoinInner::Model { exec, tid, result } => {
                let me = current().expect("model join outside model thread").1;
                loop {
                    {
                        let st = lock_sched(&exec);
                        if st.threads[tid].finished {
                            break;
                        }
                    }
                    exec.block_on(me, join_resource(tid), false);
                }
                exec.schedule_point(me);
                let value = result
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .take()
                    .expect("joined model thread left no result (it panicked)");
                Ok(value)
            }
        }
    }
}

/// Spawns a thread. Inside a model execution the child becomes a model
/// thread — serialized with the rest and visible to the explorer;
/// outside it is a plain OS thread.
pub fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    match current() {
        None => JoinHandle {
            inner: JoinInner::Os(thread::spawn(f)),
        },
        Some((exec, _me)) => {
            let tid = exec.register_thread();
            let result = Arc::new(Mutex::new(None));
            let result_slot = Arc::clone(&result);
            let child_exec = Arc::clone(&exec);
            let os = thread::Builder::new()
                .name(format!("model-{tid}"))
                .spawn(move || {
                    CURRENT.with(|c| *c.borrow_mut() = Some((Arc::clone(&child_exec), tid)));
                    {
                        let st = lock_sched(&child_exec);
                        let _st = child_exec.wait_for_turn(st, tid);
                    }
                    let outcome = panic::catch_unwind(AssertUnwindSafe(f));
                    CURRENT.with(|c| *c.borrow_mut() = None);
                    match outcome {
                        Ok(value) => {
                            *result_slot.lock().unwrap_or_else(|p| p.into_inner()) = Some(value);
                            child_exec.finish_thread(tid, None);
                        }
                        Err(payload) => child_exec.finish_thread(tid, Some(payload)),
                    }
                })
                .expect("spawn model thread");
            lock_sched(&exec).os_handles.push(os);
            JoinHandle {
                inner: JoinInner::Model { exec, tid, result },
            }
        }
    }
}

/// Yields inside a model execution (forcing the scheduler to consider a
/// thread switch here); outside, a plain [`std::thread::yield_now`].
pub fn yield_now() {
    match current() {
        Some((exec, me)) => exec.yield_point(me),
        None => thread::yield_now(),
    }
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

/// Computes the forced prefix for the next unexplored schedule, or
/// `None` when the space (under the preemption bound) is exhausted.
fn next_prefix(trace: &[ChoiceRecord], max_preemptions: usize) -> Option<Vec<(usize, usize)>> {
    for i in (0..trace.len()).rev() {
        let point = &trace[i];
        for alt in (point.chosen + 1)..point.num_options {
            let cost = usize::from(point.costs[alt]);
            if point.preemptions_before + cost <= max_preemptions {
                let mut prefix: Vec<(usize, usize)> = trace[..i]
                    .iter()
                    .map(|c| (c.chosen, c.num_options))
                    .collect();
                prefix.push((alt, point.num_options));
                return Some(prefix);
            }
        }
    }
    None
}

/// Runs `f` once per schedule and returns the recorded trace.
fn run_one<F>(f: &Arc<F>, prefix: Vec<(usize, usize)>, max_trace: usize) -> Vec<ChoiceRecord>
where
    F: Fn() + Send + Sync + 'static,
{
    let exec = Arc::new(Execution::new(prefix, max_trace));
    let root = exec.register_thread();
    debug_assert_eq!(root, 0);
    let root_exec = Arc::clone(&exec);
    let root_f = Arc::clone(f);
    let os = thread::Builder::new()
        .name("model-0".to_string())
        .spawn(move || {
            CURRENT.with(|c| *c.borrow_mut() = Some((Arc::clone(&root_exec), 0)));
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| root_f()));
            CURRENT.with(|c| *c.borrow_mut() = None);
            match outcome {
                Ok(()) => root_exec.finish_thread(0, None),
                Err(payload) => root_exec.finish_thread(0, Some(payload)),
            }
        })
        .expect("spawn model root thread");

    // Wait for the execution to finish (all threads done) or fail.
    {
        let mut st = lock_sched(&exec);
        loop {
            if st.failed.is_some() || st.live == 0 {
                break;
            }
            st = exec
                .cv
                .wait(st)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }
    let _ = os.join();
    let handles = std::mem::take(&mut lock_sched(&exec).os_handles);
    for handle in handles {
        // Secondary "model execution aborted" panics are expected after
        // a failure; the primary payload is rethrown below.
        let _ = handle.join();
    }
    let mut st = lock_sched(&exec);
    if let Some(payload) = st.panic_payload.take() {
        panic::resume_unwind(payload);
    }
    if let Some(why) = st.failed.take() {
        panic!("model check failed: {why}");
    }
    std::mem::take(&mut st.trace)
}

/// Explores every schedule of `f` under the preemption bound, re-running
/// it once per distinct interleaving of instrumented operations. Panics
/// (with the offending thread's payload) if any schedule fails.
pub fn model<F>(f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    let max_preemptions = env_usize("LOOM_MAX_PREEMPTIONS", 2);
    let max_iterations = env_usize("LOOM_MAX_ITERATIONS", 250_000);
    let max_trace = env_usize("LOOM_MAX_TRACE", 20_000);
    let f = Arc::new(f);
    let mut prefix: Vec<(usize, usize)> = Vec::new();
    let mut iterations = 0usize;
    loop {
        iterations += 1;
        if iterations > max_iterations {
            panic!(
                "model exceeded LOOM_MAX_ITERATIONS={max_iterations} executions; \
                 shrink the test or raise the cap"
            );
        }
        let trace = run_one(&f, prefix, max_trace);
        match next_prefix(&trace, max_preemptions) {
            Some(next) => prefix = next,
            None => break,
        }
    }
    if std::env::var_os("LOOM_LOG").is_some() {
        eprintln!("model: explored {iterations} executions (preemption bound {max_preemptions})");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn model_runs_single_threaded_closure_once_per_schedule() {
        let runs = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&runs);
        model(move || {
            r.fetch_add(1, Ordering::Relaxed);
        });
        // No instrumented ops → exactly one schedule.
        assert_eq!(runs.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn model_join_returns_child_value() {
        model(|| {
            let handle = spawn(|| 41 + 1);
            assert_eq!(handle.join().unwrap(), 42);
        });
    }

    // The three tests below rely on the primitives being *instrumented*,
    // which is only true under `--cfg loom`: in a plain build the wrappers
    // are transparent std types with no schedule points, so the explorer
    // sees a single schedule and model threads only run when joined.
    // Broader exploration coverage lives in `tests/loom_sync.rs`.
    #[cfg(loom)]
    #[test]
    fn model_explores_more_than_one_schedule_with_contention() {
        // Two threads each doing an instrumented increment: the explorer
        // must try more than one order.
        let runs = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&runs);
        model(move || {
            r.fetch_add(1, Ordering::Relaxed);
            let counter = Arc::new(crate::atomic::AtomicU64::new(0));
            let c = Arc::clone(&counter);
            let t = spawn(move || {
                c.fetch_add(1, crate::Ordering::SeqCst);
            });
            counter.fetch_add(1, crate::Ordering::SeqCst);
            t.join().unwrap();
            assert_eq!(counter.load(crate::Ordering::SeqCst), 2);
        });
        assert!(
            runs.load(Ordering::Relaxed) > 1,
            "expected multiple explored schedules, got {}",
            runs.load(Ordering::Relaxed)
        );
    }

    #[cfg(loom)]
    #[test]
    #[should_panic(expected = "model check failed")]
    fn model_detects_deadlock() {
        model(|| {
            let a = Arc::new(crate::Mutex::new(()));
            let b = Arc::new(crate::Mutex::new(()));
            let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
            let t = spawn(move || {
                let _ga = a2.lock();
                let _gb = b2.lock();
            });
            let _gb = b.lock();
            let _ga = a.lock();
            drop((_gb, _ga));
            let _ = t.join();
        });
    }

    /// A reader that reads again while a writer waits deadlocks, as on
    /// std's writer-preferring lock: the second read queues behind the
    /// writer, which waits for the first.
    #[cfg(loom)]
    #[test]
    #[should_panic(expected = "model check failed")]
    fn model_blocks_a_new_reader_while_a_writer_waits() {
        model(|| {
            let lock = Arc::new(crate::RwLock::new(0));
            let writer = {
                let lock = Arc::clone(&lock);
                spawn(move || *lock.write() += 1)
            };
            let first = lock.read();
            let second = lock.read();
            drop((first, second));
            let _ = writer.join();
        });
    }

    #[cfg(loom)]
    #[test]
    fn model_finds_missed_wakeup_bugs() {
        // A deliberately broken flag+condvar pair: the waiter re-checks
        // the flag *without* holding the lock across the check-then-wait
        // window only in the buggy schedule; the checker must find the
        // interleaving where the notify lands between check and wait —
        // which here is saved by the timed fallback, proving timed waits
        // cannot deadlock the model.
        model(|| {
            let pair = Arc::new((crate::Mutex::new(false), crate::Condvar::new()));
            let p = Arc::clone(&pair);
            let t = spawn(move || {
                // Buggy notify: sets the flag but notifies before any
                // waiter may have registered.
                *p.0.lock() = true;
                p.1.notify_one();
            });
            let (lock, cv) = &*pair;
            let mut done = lock.lock();
            while !*done {
                let (guard, _timed_out) =
                    cv.wait_timeout(done, std::time::Duration::from_millis(1));
                done = guard;
            }
            t.join().unwrap();
        });
    }
}
