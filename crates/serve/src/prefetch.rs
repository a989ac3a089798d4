//! Stream-driven tier prefetcher.
//!
//! When the shared [`drec_store::EmbeddingStore`] is tiered with prefetch
//! enabled, the runtime watches the stream of *admitted but not yet
//! executed* queries: at admission the submit path extracts every
//! embedding row the query will touch (via the model's
//! [`drec_models::StoreBinding`]s), registers intent with the tier, and
//! hands the rows to a background thread that pulls them into DRAM ahead
//! of batch drain. A prefetch fill moves encoded bytes into the resident
//! set but never decodes and never changes a value — the later demand
//! lookup just skips the cold-read charge. Effectiveness is visible in
//! the store's `prefetch_{issued,fills,hits,late,wasted}` counters.

use std::collections::VecDeque;
use std::sync::Arc;
use std::thread::JoinHandle;

use drec_sync::{Condvar, Mutex};

use drec_models::StoreBinding;
use drec_ops::Value;

use crate::error::{Result, ServeError};

/// Rows one admitted query will touch: per store binding it has ids
/// for, `(binding index, physical rows in id order)` — one list per
/// table, so the tier lock is taken once per list rather than per row.
type Job = Vec<(usize, Vec<u32>)>;

#[derive(Debug, Default)]
struct JobQueue {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// Owns the prefetch thread and the queue feeding it.
#[derive(Debug)]
pub(crate) struct Prefetcher {
    shared: Arc<(Mutex<JobQueue>, Condvar)>,
    bindings: Arc<Vec<StoreBinding>>,
    worker: Mutex<Option<JoinHandle<()>>>,
}

impl Prefetcher {
    /// Spawns the prefetch thread over the model's store bindings.
    pub(crate) fn start(bindings: Vec<StoreBinding>) -> Result<Prefetcher> {
        let bindings = Arc::new(bindings);
        let shared = Arc::new((Mutex::new(JobQueue::default()), Condvar::new()));
        let worker = {
            let shared = Arc::clone(&shared);
            let bindings = Arc::clone(&bindings);
            std::thread::Builder::new()
                .name("drec-serve-prefetch".to_string())
                .spawn(move || prefetch_loop(&shared, &bindings))
                .map_err(|e| ServeError::SpawnFailed {
                    reason: e.to_string(),
                })?
        };
        Ok(Prefetcher {
            shared,
            bindings,
            worker: Mutex::new(Some(worker)),
        })
    }

    /// Pure extraction of the rows `inputs` will touch, in binding order.
    /// Called before the request is moved into the queue.
    pub(crate) fn collect_rows(&self, inputs: &[Value]) -> Job {
        let mut job = Job::with_capacity(self.bindings.len());
        for (bi, binding) in self.bindings.iter().enumerate() {
            let Some(value) = inputs.get(binding.input_index) else {
                continue;
            };
            let Ok(ids) = value.ids_ref("prefetch") else {
                continue;
            };
            if !ids.ids.is_empty() {
                let rows = ids.ids.iter().map(|id| id % binding.physical_rows);
                job.push((bi, rows.collect()));
            }
        }
        job
    }

    /// Registers intent for `rows` with the tier and queues the ones that
    /// actually need a fill (not resident, not already pending). Called
    /// only after the request was admitted — shed requests never reach
    /// the tier's pending set, so they can't show up as `prefetch_late`.
    pub(crate) fn enqueue(&self, mut job: Job) {
        job.retain_mut(|(bi, rows)| {
            self.bindings[*bi].pin.note_prefetch_intents(rows);
            !rows.is_empty()
        });
        if job.is_empty() {
            return;
        }
        let (queue, cv) = &*self.shared;
        let mut q = queue.lock();
        if q.closed {
            return;
        }
        q.jobs.push_back(job);
        drop(q);
        cv.notify_one();
    }

    /// Stops the thread after draining queued jobs and joins it.
    pub(crate) fn shutdown(&self) {
        let (queue, cv) = &*self.shared;
        {
            let mut q = queue.lock();
            q.closed = true;
        }
        cv.notify_all();
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

fn prefetch_loop(shared: &(Mutex<JobQueue>, Condvar), bindings: &[StoreBinding]) {
    let (queue, cv) = shared;
    loop {
        let job = {
            let mut q = queue.lock();
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    break job;
                }
                if q.closed {
                    return;
                }
                q = cv.wait(q);
            }
        };
        // Fills run outside the queue lock: a cold-read model with real
        // sleeps must never block admission.
        for (bi, rows) in job {
            bindings[bi].pin.prefetch_rows(&rows);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drec_models::{ModelId, ModelScale};
    use drec_store::{EmbeddingStore, StoreConfig, TierConfig};
    use std::time::{Duration, Instant};

    fn tiered_store() -> Arc<EmbeddingStore> {
        let mut tier = TierConfig::new(64);
        tier.prefetch = true;
        Arc::new(EmbeddingStore::new(StoreConfig {
            tier: Some(tier),
            ..StoreConfig::default()
        }))
    }

    #[test]
    fn prefetcher_fills_rows_for_admitted_ids() {
        let store = tiered_store();
        let model = ModelId::Rm1
            .build_with_store(ModelScale::Tiny, 3, Arc::clone(&store))
            .unwrap();
        let bindings = model.store_bindings();
        assert!(!bindings.is_empty(), "RM1 must expose store bindings");
        let prefetcher = Prefetcher::start(bindings).unwrap();
        let inputs = drec_workload::QueryGen::uniform(5).batch(model.spec(), 1);
        let job = prefetcher.collect_rows(&inputs);
        assert!(!job.is_empty(), "a query must touch embedding rows");
        prefetcher.enqueue(job.clone());
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let filled = job.iter().all(|(bi, rows)| {
                let pin = &prefetcher.bindings[*bi].pin;
                rows.iter().all(|&row| pin.is_resident(row))
            });
            if filled {
                break;
            }
            assert!(Instant::now() < deadline, "prefetch never completed");
            std::thread::sleep(Duration::from_millis(1));
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
}
