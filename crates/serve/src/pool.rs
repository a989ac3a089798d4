//! The lanes and workers of the one serving runtime, [`crate::ServeRuntime`].
//!
//! ```text
//!                  ┌─ lane 0: SharedQueue ─┐   poll    ┌─ worker 0..N ── one Engine per lane
//!  ServeHandle ───▶│  lane 1: SharedQueue  │◀──────────┤   take a batch ≥ Placement::min_batch
//!  (one per lane)  │  …                    │           │   → expire → execute inline
//!      │           └─ lane L: SharedQueue ─┘           └─  (catch_unwind, retry once, self-supervise)
//!      │ Overloaded           ▲   every queue advances
//!      ▼                      └── one EventCount (the dispatch signal)
//!    shed
//! ```
//!
//! A *lane* is one model's serving state: its [`SharedQueue`] (its own
//! admission control, deadlines, priorities and overload ladder, so
//! degradation composes per model), its per-request records (a latency
//! histogram and a shed counter: the only place a request is counted),
//! live-update mailbox and, when the store is tiered with prefetch on,
//! stream prefetcher. A [`crate::ServeHandle`] is bound to one lane.
//! [`crate::ServeRuntime::start`] serves one model on one lane; `drec-sched`
//! builds a [`PoolConfig`] with one lane per model and one more worker,
//! the accelerator, whose [`Placement`] lets it take only the batches
//! large enough to pay for offload.
//!
//! There is no dispatcher thread and no supervisor thread: every worker
//! is both (DESIGN.md §9 has the failure matrix). It holds one [`Engine`]
//! per lane, parks on the pool's dispatch signal (an [`EventCount`]),
//! polls every lane, and executes what it takes inline — no cross-thread
//! hand-off. A worker takes from a lane only batches of at least its
//! [`Placement::min_batch`] for that lane (1 unless the placement says
//! otherwise), and the last worker left takes any. Each batch runs
//! under `catch_unwind`: a failing batch
//! is re-enqueued once, then surfaced as [`ServeError::WorkerFailed`].
//! After a panic the engine is suspect, so the worker records the
//! reason, claims one restart from the pool-wide [`SupervisorConfig`]
//! budget, sleeps the shared exponential backoff, rebuilds the engine
//! and keeps serving. A worker that finds the budget spent exits; the
//! last one out closes every lane and answers all queued work with a
//! typed error, so nothing ever hangs.
//!
//! Each lane's model arrives built in its [`LaneSpec`] (the caller built
//! it in lane order, so a table's slot in a shared store is fixed) and
//! becomes worker 0's engine; the pool reads its store and each lane's
//! update namespace off the lanes' models. The lane keeps a view of it
//! ([`RecModel::view`]): every other engine — the other workers', a
//! replacement after a panic — is a view of that, made without building
//! anything, so it shares every parameter of the lane (tables, GRU and FC
//! weights) and owns only its plan, scratch and arena. The lane's update
//! channel holds the built model's FC handles as its baseline. A lane
//! holds one parameter set however many engines it has.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use drec_core::serving::LatencyCurve;
use drec_faultsim::FaultHook;
use drec_models::{RecModel, StoreBinding};
use drec_ops::Value;
use drec_par::ParPool;
use drec_store::EmbeddingStore;
use drec_sync::{CachePadded, EventCount};

use crate::batcher::{BatchPoll, BatcherConfig, SharedQueue};
use crate::degrade::{DegradeConfig, OverloadLadder};
use crate::engine::{BatchExecution, Engine};
use crate::error::{Result, ServeError};
use crate::metrics::{LatencyHistogram, MetricsRegistry};
use crate::prefetch::Prefetcher;
use crate::request::{validate_single, Request, Response, SubmitOptions};
use crate::runtime::PendingResponse;
use crate::update::ModelUpdateChannel;

/// Worker-supervision parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Engine restarts the pool performs over its lifetime; a worker
    /// that panics with the budget spent exits instead.
    pub max_restarts: u32,
    /// Delay before the first restart; doubles per restart pool-wide.
    pub backoff: Duration,
    /// Upper bound on the restart delay.
    pub backoff_cap: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            max_restarts: 32,
            backoff: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(200),
        }
    }
}

/// Which batches a worker takes and what a batch is priced at. Every
/// method defaults to the single-backend behaviour; no hook touches an
/// engine, so every batch runs on the pool's [`PoolConfig::par_pool`].
pub trait Placement: std::fmt::Debug + Send + Sync {
    /// The smallest batch `worker` takes from `lane` (`usize::MAX`: none).
    /// Asked once per worker and lane at start; the lane's queue wakes
    /// the workers when a push brings it to that size.
    fn min_batch(&self, _worker: usize, _lane: usize) -> usize {
        1
    }

    /// `worker` ran a batch of `batch` requests of `lane`; may re-price
    /// `exec.modelled_seconds` before it reaches the responses.
    fn executed(&self, _worker: usize, _lane: usize, _batch: usize, _exec: &mut BatchExecution) {}
}

/// The trivial placement: every worker takes every batch.
#[derive(Debug, Clone, Copy, Default)]
pub struct Inline;

impl Placement for Inline {}

/// One lane of a [`PoolConfig`].
#[derive(Debug)]
pub struct LaneSpec {
    /// The model the lane serves: worker 0's engine, and what every other
    /// engine of the lane is a view of. The pool reads its store and
    /// namespace off it; every lane is built on one store, or none is.
    pub built: RecModel,
    /// The latency curve that prices its modelled batch timings and
    /// admission-delay estimate.
    pub curve: LatencyCurve,
}

/// Configuration for [`crate::ServeRuntime::start_pool`].
#[derive(Debug)]
pub struct PoolConfig {
    /// The lanes, one model each. Non-empty.
    pub lanes: Vec<LaneSpec>,
    /// Worker threads polling the lanes.
    pub workers: usize,
    /// Thread-name prefix of those workers (`{worker_name}-{index}`).
    pub worker_name: &'static str,
    /// Largest coalesced batch per lane.
    pub max_batch: usize,
    /// Longest the oldest queued request waits for co-travellers.
    pub max_wait: Duration,
    /// Per-lane queue depth above which arrivals are shed.
    pub queue_capacity: usize,
    /// Per-lane admission budget on estimated queueing delay.
    pub delay_budget: Duration,
    /// Per-lane overload-ladder thresholds.
    pub degrade: DegradeConfig,
    /// The intra-op pool engines are built on.
    pub par_pool: Arc<ParPool>,
    /// Restart budget and backoff.
    pub supervisor: SupervisorConfig,
    /// Fault-injection hook installed on every engine; one that schedules
    /// store read faults must be the hook the lanes' store was built with.
    pub faults: FaultHook,
    /// Batch placement; [`Inline`] for a single backend.
    pub placement: Arc<dyn Placement>,
}

/// One model's serving state inside a pool (shared, so read-only but
/// for atomics), and the one home of its requests' records: an answered
/// request is one [`LatencyHistogram`] record (2 RMWs; the histogram's
/// bucket total is the lane's completions), a shed one counter bump.
#[derive(Debug)]
pub(crate) struct Lane {
    /// The lane's admission queue.
    pub(crate) queue: SharedQueue,
    /// The lane's live-update mailbox: rolling weight swaps post here,
    /// every engine of the lane polls it between batches, and update
    /// throttling rides the lane's own overload ladder.
    pub(crate) update: Arc<ModelUpdateChannel>,
    // Workers write `latency`, producers `shed`: a cache line each, so
    // the two sides never write one line (`queue_bench`'s
    // `counter_false_sharing` measures what sharing costs).
    /// End-to-end wall latency of the lane's answered requests.
    pub(crate) latency: CachePadded<LatencyHistogram>,
    /// Requests shed at admission (refused or evicted).
    pub(crate) shed: CachePadded<AtomicU64>,
    /// The ladder the queue and the update channel share.
    pub(crate) ladder: Arc<OverloadLadder>,
    /// A view of the model worker 0 serves: what every other engine of
    /// the lane is a view of, and the lane's model and input contract.
    pub(crate) source: RecModel,
    curve: LatencyCurve,
    prefetcher: Option<Prefetcher>,
}

/// A pool's shared state: every [`crate::ServeHandle`] and worker holds
/// it, and its runtime tears it down.
#[derive(Debug)]
pub(crate) struct LaneSet {
    /// The lanes, in configuration order.
    pub(crate) lanes: Vec<Lane>,
    /// The pool-wide counters; the per-request records are the lanes'.
    pub(crate) metrics: MetricsRegistry,
    /// The start-up configuration (its `lanes` moved into the field above).
    cfg: PoolConfig,
    signal: Arc<EventCount>,
    next_id: AtomicU64,
    /// Restarts claimed so far against `cfg.supervisor.max_restarts`.
    restarts: AtomicU32,
    /// Lane-polling workers still running.
    live: AtomicUsize,
}

impl LaneSet {
    /// Makes the lanes, each with its queue, ladder, update channel and
    /// prefetcher (see the module docs), and returns them with the lanes'
    /// built models, in lane order: worker 0's engines.
    pub(crate) fn new(mut cfg: PoolConfig) -> Result<(Arc<LaneSet>, Vec<RecModel>)> {
        assert!(!cfg.lanes.is_empty(), "need at least one lane");
        assert!(cfg.workers >= 1, "need at least one worker");
        assert!(cfg.max_batch >= 1, "max_batch must be at least 1");
        let lane_cfgs = std::mem::take(&mut cfg.lanes);
        // The pool's store is its lanes': the one they were built against.
        let store = lane_cfgs[0].built.store().cloned();
        let ptr = |s: Option<&Arc<EmbeddingStore>>| s.map(Arc::as_ptr);
        assert!(
            lane_cfgs
                .iter()
                .all(|l| ptr(l.built.store()) == ptr(store.as_ref())),
            "every lane's model must be built against one store, or every one dense"
        );
        let store_faults = store.as_deref().map(EmbeddingStore::faults);
        assert!(
            cfg.faults.reads_reach(store_faults),
            "the fault plan schedules store read faults the lanes' store was not built with"
        );
        let mut set = LaneSet {
            lanes: Vec::with_capacity(lane_cfgs.len()),
            signal: Arc::default(),
            metrics: MetricsRegistry::new(cfg.workers, Arc::clone(&cfg.par_pool), store.clone()),
            next_id: AtomicU64::new(0),
            restarts: AtomicU32::new(0),
            live: AtomicUsize::new(cfg.workers),
            cfg,
        };
        // A pool serving one model owns its store: that lane's ladder
        // drives the store's cache-only rung (and the snapshot reports
        // it as the pool-wide overload level). Co-located lanes share
        // the store, so none of their ladders may flip it for the others.
        let sole_lane = lane_cfgs.len() == 1;
        // Stream prefetch: only when the shared store is tiered with
        // prefetch on, and only for the lanes whose model exposes store
        // bindings. Those lanes split the tier's budget evenly, so
        // together they fill no further ahead than one lane alone would.
        let prefetch_budget = store.as_ref().filter(|s| s.prefetch_enabled());
        let prefetch_budget = prefetch_budget.map(|s| s.stats().tier_dram_budget_rows);
        let lane_bindings: Vec<Vec<StoreBinding>> =
            lane_cfgs.iter().map(|l| l.built.store_bindings()).collect();
        let prefetching = lane_bindings.iter().filter(|b| !b.is_empty()).count() as u64;
        // Each lane's built model: worker 0's engine.
        let mut built_models = Vec::with_capacity(lane_cfgs.len());
        for (lane, (LaneSpec { built, curve }, bindings)) in
            lane_cfgs.into_iter().zip(lane_bindings).enumerate()
        {
            let cfg = &set.cfg;
            let min_batches = (0..cfg.workers).map(|w| cfg.placement.min_batch(w, lane));
            let ladder = Arc::new(OverloadLadder::new(
                cfg.degrade,
                cfg.queue_capacity,
                store.clone().filter(|_| sole_lane),
            ));
            let queue = SharedQueue::with_signal(
                BatcherConfig {
                    max_batch: cfg.max_batch,
                    max_wait: cfg.max_wait,
                    queue_capacity: cfg.queue_capacity,
                    delay_budget: cfg.delay_budget,
                    per_query_service_estimate: curve.eval(cfg.max_batch) / cfg.max_batch as f64,
                },
                Arc::clone(&ladder),
                Arc::clone(&set.signal),
            )
            .waking_at(min_batches.filter(|&m| m > 1).collect());
            // One live-update channel per lane: every engine of the lane
            // pins its epoch per batch and starts from the built model's
            // FC set; the updater (if the deployment runs one) respects
            // the lane ladder's backpressure rung.
            let update = Arc::new(ModelUpdateChannel::new(
                built.id().name(),
                built.namespace(),
                store.clone(),
                built.fc_params(),
                Some(Arc::clone(&ladder)),
            ));
            let prefetcher = match prefetch_budget {
                Some(budget) if !bindings.is_empty() => {
                    Some(Prefetcher::start(bindings, budget / prefetching)?)
                }
                _ => None,
            };
            set.lanes.push(Lane {
                queue,
                update,
                latency: CachePadded::new(LatencyHistogram::default()),
                shed: CachePadded::new(AtomicU64::new(0)),
                ladder,
                source: built.view(),
                curve,
                prefetcher,
            });
            built_models.push(built);
        }
        Ok((Arc::new(set), built_models))
    }

    /// Starts the workers: worker 0 on the lanes' `built` models, every
    /// other on views of them. Each thread lands in `threads` as it
    /// starts, so that on an error the caller's teardown joins those
    /// already running.
    pub(crate) fn start_workers(
        self: &Arc<Self>,
        built: Vec<RecModel>,
        threads: &mut Vec<JoinHandle<()>>,
    ) -> Result<()> {
        let mut built = Some(built);
        for index in 0..self.cfg.workers {
            let engines = match built.take() {
                Some(models) => {
                    let lanes = self.lanes.iter().zip(models);
                    lanes.map(|(l, m)| self.engine(l, m)).collect()
                }
                None => self.views(0..self.lanes.len()),
            };
            let placement = &self.cfg.placement;
            let mut worker = Worker {
                index,
                engines,
                min_batch: (0..self.lanes.len())
                    .map(|l| placement.min_batch(index, l))
                    .collect(),
                core: Arc::clone(self),
            };
            let thread = std::thread::Builder::new()
                .name(format!("{}-{index}", self.cfg.worker_name))
                .spawn(move || worker.run())
                .map_err(|e| ServeError::SpawnFailed {
                    reason: e.to_string(),
                })?;
            threads.push(thread);
        }
        Ok(())
    }

    /// The one teardown: stop admission on every lane, let the workers
    /// drain all queued work, join them and the prefetch threads, then
    /// answer whatever is left (nothing can requeue any more) with a
    /// typed error. Idempotent.
    pub(crate) fn tear_down(&self, threads: Vec<JoinHandle<()>>) {
        self.close_lanes();
        for thread in threads {
            let _ = thread.join();
        }
        for lane in &self.lanes {
            if let Some(prefetcher) = &lane.prefetcher {
                prefetcher.shutdown();
            }
        }
        self.drain_lanes();
    }

    /// The one engine maker: `model` is the lane's built model (worker 0
    /// at start) or a view of it.
    fn engine(&self, lane: &Lane, model: RecModel) -> Engine {
        let cfg = &self.cfg;
        let pool = Arc::clone(&cfg.par_pool);
        let store = model.store().cloned();
        let mut engine = Engine::with_store(model, lane.curve.clone(), pool, store);
        engine.set_fault_hook(cfg.faults.clone());
        engine.set_update_channel(Arc::clone(&lane.update));
        engine
    }

    /// New engines for `lanes`, each a view of its lane's model.
    fn views(&self, lanes: Range<usize>) -> Vec<Engine> {
        let lanes = self.lanes[lanes].iter();
        lanes.map(|l| self.engine(l, l.source.view())).collect()
    }

    /// The one admission path: validates one sample (batch-dimension-1
    /// inputs in graph input order), builds the request, pushes it on
    /// lane `lane_idx`, books accepted / shed / evicted victim, and
    /// queues its rows for the prefetcher.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidInput`] (payload doesn't match the lane's
    /// input contract; not counted as shed load),
    /// [`ServeError::Overloaded`] (the lane is over its queue budget),
    /// [`ServeError::ShuttingDown`] (the lane is closed).
    pub(crate) fn submit(
        &self,
        lane_idx: usize,
        inputs: Vec<Value>,
        opts: SubmitOptions,
    ) -> Result<PendingResponse> {
        let lane = &self.lanes[lane_idx];
        if let Err(e) = validate_single(lane.source.spec(), &inputs) {
            self.metrics.record_invalid();
            return Err(e);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (request, rx) = Request::new(id, inputs, opts);
        // Extracted before the request moves into the queue; handed to
        // the tier prefetcher only if admission succeeds.
        let prefetch_rows = lane
            .prefetcher
            .as_ref()
            .and_then(|p| p.collect_rows(&request.inputs));
        match lane.queue.try_push(request) {
            Ok(victim) => {
                if let (Some(p), Some(rows)) = (&lane.prefetcher, prefetch_rows) {
                    self.metrics
                        .record_prefetch_rows_dropped(p.enqueue(id, rows));
                }
                if let Some((victim, err)) = victim {
                    // The evicted lower-priority request is shed on its
                    // own reply channel; its waiter sees Overloaded.
                    lane.shed.fetch_add(1, Ordering::Relaxed);
                    victim.respond(Err(err));
                }
            }
            Err((_request, err)) => {
                lane.shed.fetch_add(1, Ordering::Relaxed);
                return Err(err);
            }
        }
        self.metrics.record_accepted();
        if self.live.load(Ordering::SeqCst) == 0 {
            // The last worker left (and swept the lanes) while this push
            // was in flight; nobody else will answer it.
            self.drain_lanes();
        }
        Ok(PendingResponse::new(id, rx))
    }

    /// Answers every expired request with [`ServeError::DeadlineExceeded`].
    fn expire(&self, expired: Vec<Request>) {
        let now = Instant::now();
        for request in expired {
            let late_seconds = request
                .deadline
                .map(|d| now.saturating_duration_since(d).as_secs_f64())
                .unwrap_or(0.0);
            self.metrics.record_deadline_exceeded();
            request.respond(Err(ServeError::DeadlineExceeded { late_seconds }));
        }
    }

    /// Fans a failed batch out: first-failure requests are re-enqueued
    /// on their lane for one more attempt; repeat failures surface
    /// [`ServeError::WorkerFailed`].
    fn retry_or_fail(&self, lane: usize, requests: Vec<Request>, reason: &str) {
        for mut request in requests {
            if request.attempts == 0 {
                request.attempts = 1;
                self.metrics.record_retry();
                self.lanes[lane].queue.requeue(request);
            } else {
                self.metrics.record_failed();
                request.respond(Err(ServeError::WorkerFailed {
                    reason: reason.to_string(),
                }));
            }
        }
    }

    fn close_lanes(&self) {
        for lane in &self.lanes {
            lane.queue.close();
        }
    }

    /// Answers whatever is still queued with a typed error: no worker is
    /// left to run it. The last step of teardown, once nothing can
    /// requeue any more; idempotent.
    fn drain_lanes(&self) {
        for lane in &self.lanes {
            for request in lane.queue.drain_all() {
                self.metrics.record_failed();
                request.respond(Err(ServeError::WorkerFailed {
                    reason: "no live workers: restart budget exhausted or pool shut down"
                        .to_string(),
                }));
            }
        }
    }
}

/// Renders a caught panic payload into a human-readable reason.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked with a non-string payload".to_string()
    }
}

/// One worker's engines (one per lane), its size rule, and the
/// execute-and-recover logic every batch goes through.
#[derive(Debug)]
struct Worker {
    index: usize,
    engines: Vec<Engine>,
    /// Per lane, the smallest batch this worker takes
    /// ([`Placement::min_batch`]).
    min_batch: Vec<usize>,
    core: Arc<LaneSet>,
}

impl Worker {
    /// Runs one batch of `lane` on this worker's engine, delivering
    /// responses, metrics and retries. Returns `false` when the engine
    /// panicked and the restart budget is spent: the worker must stop.
    fn execute(&mut self, lane_idx: usize, requests: Vec<Request>) -> bool {
        let core: &LaneSet = &self.core;
        let lane = &core.lanes[lane_idx];
        let metrics = &core.metrics;
        let engine = &mut self.engines[lane_idx];
        if let Some(prefetcher) = &lane.prefetcher {
            // These requests read their rows now: what was filled for
            // them leaves the prefetch window, the rest is too late.
            if let Some(newest) = requests.iter().map(|r| r.id).max() {
                metrics.record_prefetch_rows_dropped(prefetcher.retire_through(newest));
            }
        }
        let started = Instant::now();
        match catch_unwind(AssertUnwindSafe(|| engine.run_batch(&requests))) {
            Ok(Ok(mut exec)) => {
                // The batch's second and last clock read.
                let done = Instant::now();
                let batch = requests.len();
                let placement = &core.cfg.placement;
                placement.executed(self.index, lane_idx, batch, &mut exec);
                metrics.record_batch(self.index, done - started);
                for (request, outputs) in requests.into_iter().zip(exec.per_request_outputs) {
                    let wall = (done - request.submitted_at).as_secs_f64();
                    // The request's one record, of the figure its
                    // response reports: the snapshot's pool-wide count
                    // and quantiles are derived from the lanes'.
                    lane.latency.record_seconds(wall);
                    request.respond(Ok(Response {
                        id: request.id,
                        outputs,
                        batch,
                        wall_seconds: wall,
                        modelled_seconds: exec.modelled_seconds,
                        worker: self.index,
                    }));
                }
                true
            }
            Ok(Err(err)) => {
                // Typed failure: the engine is still sound, keep serving.
                metrics.record_batch(self.index, started.elapsed());
                core.retry_or_fail(lane_idx, requests, &err.to_string());
                true
            }
            Err(payload) => {
                // Panic: the engine (and any partial execution state) is
                // suspect. Fail the batch, then replace the engine.
                let reason = panic_message(payload.as_ref());
                metrics.record_batch(self.index, started.elapsed());
                metrics.record_worker_panic(&reason);
                core.retry_or_fail(lane_idx, requests, &format!("worker panicked: {reason}"));
                self.recover(lane_idx..lane_idx + 1)
            }
        }
    }

    /// Self-supervision: claims one restart from the pool-wide budget,
    /// sleeps its backoff (doubling per restart, capped), and replaces
    /// the engines of `lanes` with fresh views of their lanes' models.
    /// Returns `false` once the budget is spent.
    fn recover(&mut self, lanes: Range<usize>) -> bool {
        let core = Arc::clone(&self.core);
        let cfg = core.cfg.supervisor;
        let claimed = core
            .restarts
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < cfg.max_restarts).then_some(n + 1)
            });
        let Ok(n) = claimed else { return false };
        let doubling = 1u32.checked_shl(n).unwrap_or(u32::MAX);
        std::thread::sleep(cfg.backoff.saturating_mul(doubling).min(cfg.backoff_cap));
        for (lane, engine) in lanes.clone().zip(core.views(lanes)) {
            self.engines[lane] = engine;
        }
        core.metrics.record_worker_restart();
        true
    }

    /// Lane-worker thread body.
    fn run(&mut self) {
        // `serve_lanes` catches per-batch panics itself; this outer guard
        // covers panics outside batch execution (queue or metrics code),
        // which recover under the same budget with every engine rebuilt.
        while let Err(payload) = catch_unwind(AssertUnwindSafe(|| self.serve_lanes())) {
            let core = Arc::clone(&self.core);
            core.metrics
                .record_worker_panic(&panic_message(payload.as_ref()));
            if !self.recover(0..core.lanes.len()) {
                break;
            }
        }
        let core = &self.core;
        if core.live.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Last worker out: either a normal drain-complete shutdown
            // (lanes closed and empty — the sweep is a no-op) or an
            // unrecoverable pool. Both ways, nothing may be left hanging.
            core.close_lanes();
            core.drain_lanes();
        } else {
            // A worker left alone drops its size rule: wake it to re-poll.
            core.signal.advance();
        }
    }

    /// Park on the signal; on wake, poll every lane (from a per-worker
    /// offset, so the hottest lane has no permanent priority) for
    /// batches of at least this worker's minimum, answer expired
    /// requests and execute each batch inline. Returns when every lane is
    /// closed and drained, or the restart budget is spent. A failure
    /// during a worker's own drain pass is requeued for whichever worker
    /// is still looping (worst case, the teardown sweep answers it).
    fn serve_lanes(&mut self) {
        let core = Arc::clone(&self.core);
        let lanes = &core.lanes;
        loop {
            let seen = core.signal.generation();
            // The last worker left takes any batch: no lane may strand.
            let alone = core.live.load(Ordering::SeqCst) == 1;
            let mut earliest: Option<Instant> = None;
            let mut dispatched = false;
            let mut all_closed = true;
            for offset in 0..lanes.len() {
                let idx = (self.index + offset) % lanes.len();
                let min = if alone { 1 } else { self.min_batch[idx] };
                loop {
                    match lanes[idx].queue.try_next_batch_at_least(min) {
                        BatchPoll::Ready(batch) => {
                            all_closed = false;
                            dispatched = true;
                            core.expire(batch.expired);
                            if !batch.requests.is_empty() && !self.execute(idx, batch.requests) {
                                return;
                            }
                        }
                        BatchPoll::Coalescing(deadline) => {
                            all_closed = false;
                            earliest = Some(earliest.map_or(deadline, |e| e.min(deadline)));
                            break;
                        }
                        BatchPoll::Idle => {
                            all_closed = false;
                            break;
                        }
                        BatchPoll::Closed => break,
                    }
                }
            }
            if all_closed {
                return;
            }
            if !dispatched {
                core.signal.wait_until(seen, earliest);
            }
        }
    }
}
