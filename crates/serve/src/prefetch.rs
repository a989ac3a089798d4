//! Stream-driven tier prefetcher, paced by the DRAM tier it fills.
//!
//! When the shared [`drec_store::EmbeddingStore`] is tiered with prefetch
//! enabled, the runtime watches the stream of *admitted but not yet
//! executed* queries. At admission the submit path only extracts the
//! embedding rows the query will touch (via the model's
//! [`drec_models::StoreBinding`]s) and queues them under the request's
//! id; it never takes the tier lock. A background thread pulls those rows
//! into DRAM ahead of batch drain, one tier session per table, and the
//! tier itself skips the rows that are already resident.
//!
//! The thread runs only as far ahead of the workers as the DRAM tier can
//! hold ([`PrefetchWindow`]): it takes the next job while the rows it has
//! filled for requests no worker has taken yet are below
//! `dram_budget_rows / WINDOW_DIVISOR`, where `dram_budget_rows` is the
//! lane's share of the tier: co-located lanes that prefetch on one store
//! split its budget evenly, so together they hold no more rows ahead than
//! one lane alone would. A worker that takes a batch
//! retires every request up to the batch's highest id — filled jobs leave
//! the window, jobs not yet filled are dropped unfilled (their request is
//! already reading) and counted in `prefetch_rows_dropped`.
//!
//! A prefetch fill moves encoded bytes into the resident set but never
//! decodes and never changes a value — the later demand lookup just skips
//! the cold-read charge. Effectiveness is visible in the store's
//! `prefetch_{issued,fills,hits,wasted}` counters.

use std::collections::VecDeque;
use std::sync::Arc;
use std::thread::JoinHandle;

use drec_sync::{Condvar, Mutex};

use drec_models::StoreBinding;
use drec_ops::Value;

use crate::error::{Result, ServeError};

/// The prefetch thread may hold `dram_budget_rows / WINDOW_DIVISOR` filled
/// rows ahead of the workers. Measured on `sparse_zipf` (EXPERIMENTS.md
/// "PR 20"): with the whole budget 0.6 of the fills are evicted unused,
/// at ½ 0.2, at ¼ 0.03 and at ⅛ none, and cold demand reads are lowest
/// at ½–¼. Filled rows share the tier with the rows demand reads promote,
/// so the window has to leave most of it to them.
const WINDOW_DIVISOR: usize = 4;

#[derive(Debug)]
struct WindowState<J> {
    /// `(request id, rows, job)`: admitted and not yet filled.
    queue: VecDeque<(u64, usize, J)>,
    /// `(request id, rows filled)` of the jobs filled for requests no
    /// worker has taken yet. The window count is the sum of the rows.
    ahead: VecDeque<(u64, usize)>,
    /// Every request below this id has been taken by a worker.
    live_from: u64,
    closed: bool,
}

impl<J> WindowState<J> {
    fn ahead_rows(&self) -> usize {
        self.ahead.iter().map(|&(_, rows)| rows).sum()
    }
}

/// The queue between admission and the prefetch thread, and the pacing
/// rule over it: [`PrefetchWindow::next`] hands out a job only while the
/// rows filled for requests that have not started are below the limit.
/// With nothing filled ahead there is always room, so a job larger than
/// the limit still fills. Request ids are pool-wide and start at 0; a
/// lane's jobs carry the ids of its own requests.
///
/// `J` is whatever the fill needs; the window looks only at a job's id
/// and row count. Public so that `loom_serve` can model-check the
/// wake-up protocol on the type the runtime runs.
#[derive(Debug)]
pub struct PrefetchWindow<J> {
    state: Mutex<WindowState<J>>,
    wake: Condvar,
    limit_rows: usize,
}

impl<J> PrefetchWindow<J> {
    /// A window that lets at most one job past `limit_rows` filled rows.
    pub fn new(limit_rows: usize) -> Self {
        PrefetchWindow {
            state: Mutex::new(WindowState {
                queue: VecDeque::new(),
                ahead: VecDeque::new(),
                live_from: 0,
                closed: false,
            }),
            wake: Condvar::new(),
            limit_rows: limit_rows.max(1),
        }
    }

    fn has_room(&self, st: &WindowState<J>) -> bool {
        st.ahead_rows() < self.limit_rows
    }

    /// Queues `job` of `rows` rows for request `id`. Returns the rows it
    /// dropped: all of them when a worker has already taken the request.
    pub fn enqueue(&self, id: u64, rows: usize, job: J) -> usize {
        let mut st = self.state.lock();
        if st.closed {
            return 0;
        }
        if id < st.live_from {
            return rows;
        }
        // The thread is parked with room only on an empty queue; on a
        // full window it is `retire_through` that wakes it.
        let wake = st.queue.is_empty() && self.has_room(&st);
        st.queue.push_back((id, rows, job));
        drop(st);
        if wake {
            self.wake.notify_one();
        }
        0
    }

    /// A worker took a batch whose highest request id is `id`: filled
    /// jobs up to it leave the window, and queued ones are dropped. A
    /// request that is requeued, evicted or expired needs no call of its
    /// own: a later id retires it. Returns the rows dropped unfilled.
    pub fn retire_through(&self, id: u64) -> usize {
        let mut st = self.state.lock();
        if id < st.live_from {
            return 0;
        }
        st.live_from = id.saturating_add(1);
        st.ahead.retain(|&(ahead, _)| ahead > id);
        let late = st.queue.iter().filter(|&&(queued, ..)| queued <= id);
        let dropped = late.map(|&(_, rows, _)| rows).sum();
        st.queue.retain(|&(queued, ..)| queued > id);
        let wake = !st.queue.is_empty() && self.has_room(&st);
        drop(st);
        if wake {
            self.wake.notify_one();
        }
        dropped
    }

    /// Blocks until the window has room and a job is queued, and takes
    /// the oldest; `None` once the window is closed, whatever is queued.
    pub fn next(&self) -> Option<(u64, J)> {
        let mut st = self.state.lock();
        loop {
            if st.closed {
                return None;
            }
            if self.has_room(&st) {
                if let Some((id, _, job)) = st.queue.pop_front() {
                    return Some((id, job));
                }
            }
            st = self.wake.wait(st);
        }
    }

    /// The job of request `id` made `rows` rows resident. They count
    /// against the window until the request is retired — not at all when
    /// it was retired while the fill ran.
    pub fn filled(&self, id: u64, rows: usize) {
        let mut st = self.state.lock();
        if rows > 0 && id >= st.live_from {
            st.ahead.push_back((id, rows));
        }
    }

    /// Rows filled for requests no worker has taken yet.
    pub fn ahead_rows(&self) -> usize {
        self.state.lock().ahead_rows()
    }

    /// Makes [`PrefetchWindow::next`] return `None` from now on and wakes
    /// the thread parked in it.
    pub fn close(&self) {
        self.state.lock().closed = true;
        self.wake.notify_all();
    }
}

/// Rows one admitted query will touch, as one run per store binding in
/// binding order — `[n, row × n]`, `n = 0` for a binding the query has
/// no ids for — in a single allocation.
type Job = Vec<u32>;

/// Owns the prefetch thread and the window feeding it.
#[derive(Debug)]
pub(crate) struct Prefetcher {
    window: Arc<PrefetchWindow<Job>>,
    bindings: Arc<Vec<StoreBinding>>,
    worker: Mutex<Option<JoinHandle<()>>>,
}

impl Prefetcher {
    /// Spawns the prefetch thread over the model's store bindings, paced
    /// against `dram_budget_rows` rows of the DRAM tier (the lane's
    /// share).
    pub(crate) fn start(bindings: Vec<StoreBinding>, dram_budget_rows: u64) -> Result<Prefetcher> {
        let bindings = Arc::new(bindings);
        let budget = usize::try_from(dram_budget_rows).unwrap_or(usize::MAX);
        let window = Arc::new(PrefetchWindow::new(budget / WINDOW_DIVISOR));
        let worker = {
            let window = Arc::clone(&window);
            let bindings = Arc::clone(&bindings);
            std::thread::Builder::new()
                .name("drec-serve-prefetch".to_string())
                .spawn(move || prefetch_loop(&window, &bindings))
                .map_err(|e| ServeError::SpawnFailed {
                    reason: e.to_string(),
                })?
        };
        Ok(Prefetcher {
            window,
            bindings,
            worker: Mutex::new(Some(worker)),
        })
    }

    /// Pure extraction of the rows `inputs` will touch; `None` when there
    /// are none. Called before the request is moved into the queue.
    pub(crate) fn collect_rows(&self, inputs: &[Value]) -> Option<Job> {
        let ids_of = |binding: &StoreBinding| {
            let ids = inputs.get(binding.input_index)?.ids_ref("prefetch").ok()?;
            // The run's length has to fit its `u32` header.
            u32::try_from(ids.ids.len()).is_ok().then_some(&ids.ids[..])
        };
        let rows: usize = self
            .bindings
            .iter()
            .filter_map(ids_of)
            .map(<[u32]>::len)
            .sum();
        if rows == 0 {
            return None;
        }
        let mut job = Job::with_capacity(self.bindings.len() + rows);
        for binding in self.bindings.iter() {
            let ids = ids_of(binding).unwrap_or_default();
            job.push(ids.len() as u32);
            job.extend(ids.iter().map(|id| id % binding.physical_rows));
        }
        Some(job)
    }

    /// Queues the rows of admitted request `id` for the prefetch thread.
    /// Called only after admission — a shed request never reaches the
    /// tier. Returns the rows dropped (see [`PrefetchWindow::enqueue`]).
    pub(crate) fn enqueue(&self, id: u64, job: Job) -> usize {
        let rows = job.len() - self.bindings.len();
        self.window.enqueue(id, rows, job)
    }

    /// See [`PrefetchWindow::retire_through`].
    pub(crate) fn retire_through(&self, id: u64) -> usize {
        self.window.retire_through(id)
    }

    /// Stops the thread — it fills nothing more, whatever is queued and
    /// however full the window is — and joins it.
    pub(crate) fn shutdown(&self) {
        self.window.close();
        let handle = {
            let mut slot = self.worker.lock();
            slot.take()
        };
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }
}

impl Drop for Prefetcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The runs of `job`, each with the binding its rows belong to.
fn runs<'a>(
    job: &'a [u32],
    bindings: &'a [StoreBinding],
) -> impl Iterator<Item = (&'a StoreBinding, &'a [u32])> {
    let mut rest = job;
    bindings.iter().map_while(move |binding| {
        let (&n, tail) = rest.split_first()?;
        let (rows, tail) = tail.split_at(n as usize);
        rest = tail;
        Some((binding, rows))
    })
}

fn prefetch_loop(window: &PrefetchWindow<Job>, bindings: &[StoreBinding]) {
    while let Some((id, job)) = window.next() {
        // Fills run outside the window lock: a cold-read model with real
        // sleeps must never block admission or a worker's retire. One
        // tier session per table; the tier skips what is resident.
        let filled = runs(&job, bindings)
            .filter(|(_, rows)| !rows.is_empty())
            .map(|(binding, rows)| binding.pin.prefetch_rows(rows))
            .sum();
        window.filled(id, filled);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drec_models::{ModelId, ModelScale};
    use drec_store::{EmbeddingStore, StoreConfig, StoreStats, TierConfig};
    use std::time::{Duration, Instant};

    fn tiered_store() -> Arc<EmbeddingStore> {
        let mut tier = TierConfig::new(64);
        tier.prefetch = true;
        Arc::new(EmbeddingStore::new(StoreConfig {
            tier: Some(tier),
            ..StoreConfig::default()
        }))
    }

    /// Waits (bounded) until the prefetch thread has made exactly `fills`
    /// rows resident; it must never be seen past that.
    fn wait_for_fills(store: &EmbeddingStore, fills: u64) -> StoreStats {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let stats = store.stats();
            assert!(stats.prefetch_fills <= fills, "ran past {fills}: {stats:?}");
            if stats.prefetch_fills == fills {
                return stats;
            }
            assert!(Instant::now() < deadline, "fill {fills} never completed");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn prefetcher_fills_rows_for_admitted_ids() {
        let store = tiered_store();
        let model = ModelId::Rm1
            .build_with_store(ModelScale::Tiny, 3, Arc::clone(&store))
            .unwrap();
        let bindings = model.store_bindings();
        assert!(!bindings.is_empty(), "RM1 must expose store bindings");
        let prefetcher = Prefetcher::start(bindings, 64).unwrap();
        let inputs = drec_workload::QueryGen::uniform(5).batch(model.spec(), 1);
        let job = prefetcher
            .collect_rows(&inputs)
            .expect("a query must touch embedding rows");
        assert_eq!(prefetcher.enqueue(0, job.clone()), 0);
        let deadline = Instant::now() + Duration::from_secs(5);
        let runs: Vec<_> = runs(&job, &prefetcher.bindings).collect();
        assert_eq!(runs.len(), prefetcher.bindings.len(), "one run each");
        for (binding, rows) in runs {
            while !rows.iter().all(|&row| binding.pin.is_resident(row)) {
                assert!(Instant::now() < deadline, "prefetch never completed");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        prefetcher.shutdown();
        let stats = store.stats();
        assert!(stats.prefetch_fills > 0, "fills not counted: {stats:?}");
        assert_eq!(
            stats.decode_vector + stats.decode_scalar,
            0,
            "a prefetch fill must not decode"
        );
    }

    /// One 256-row table on a 64-row tier: the window is 16 rows. Job `k`
    /// is the six rows `6k..6k + 6`, so three jobs fill it (12 < 16 ≤ 18).
    #[test]
    fn prefetch_thread_stays_inside_its_window() {
        const JOB_ROWS: u32 = 6;
        let store = tiered_store();
        let handle = store.register(1, 0, 256, 4, &[0.5; 256 * 4]).unwrap();
        let pin = store.pin(handle);
        let prefetcher = Prefetcher::start(
            vec![StoreBinding {
                input_index: 0,
                pin: pin.clone(),
                physical_rows: 256,
            }],
            store.stats().tier_dram_budget_rows,
        )
        .unwrap();
        let rows_of = |k: u64| k as u32 * JOB_ROWS..(k as u32 + 1) * JOB_ROWS;
        let enqueue = |k: u64| {
            let job = std::iter::once(JOB_ROWS).chain(rows_of(k)).collect();
            prefetcher.enqueue(k, job)
        };
        let resident = |k: u64| rows_of(k).filter(|&row| pin.is_resident(row)).count();
        let queued = || prefetcher.window.state.lock().queue.len();

        // Jobs 0..=7: 0, 1 and 2 fill — request id 0 among them — and the
        // window is full with one job past its limit.
        for k in 0..=7 {
            assert_eq!(enqueue(k), 0);
        }
        wait_for_fills(&store, 18);
        assert_eq!(resident(0), 6, "request id 0 was never filled");
        assert_eq!((prefetcher.window.ahead_rows(), queued()), (18, 5));

        // Request 0 starts: 12 rows ahead, so job 3 fills and no more.
        assert_eq!(prefetcher.retire_through(0), 0);
        wait_for_fills(&store, 24);
        assert_eq!((prefetcher.window.ahead_rows(), queued()), (18, 4));

        // Requests through 4 start: job 4 never had its turn and is
        // dropped untouched; 5, 6 and 7 fill.
        assert_eq!(prefetcher.retire_through(4), JOB_ROWS as usize);
        let stats = wait_for_fills(&store, 42);
        assert_eq!(resident(4), 0, "a dropped job must not be filled");
        assert_eq!(stats.prefetch_issued, 42);
        assert_eq!((prefetcher.window.ahead_rows(), queued()), (18, 0));

        // Quiescence: everything retired, nothing counted; a job that
        // arrives after its request started is dropped at the door.
        assert_eq!(prefetcher.retire_through(7), 0);
        assert_eq!(prefetcher.window.ahead_rows(), 0);
        assert_eq!(enqueue(5), JOB_ROWS as usize);
        assert_eq!(queued(), 0);

        // Shutdown with the window full and jobs queued returns, and
        // fills nothing more.
        for k in 8..=12 {
            assert_eq!(enqueue(k), 0);
        }
        wait_for_fills(&store, 60);
        prefetcher.shutdown();
        assert_eq!((prefetcher.window.ahead_rows(), queued()), (18, 2));
        let stats = store.stats();
        assert_eq!((stats.prefetch_issued, stats.prefetch_fills), (60, 60));
        assert_eq!(resident(11) + resident(12), 0);
        assert_eq!(stats.decode_vector + stats.decode_scalar, 0);
    }
}
