//! The lane pool: the one serving-runtime core.
//!
//! ```text
//!                  ┌─ lane 0: SharedQueue ─┐   poll    ┌─ worker 0..N ── one Engine per lane
//!  Arc<LaneSet> ──▶│  lane 1: SharedQueue  │◀──────────┤   expire → route → execute inline
//!   submit(lane)   │  …                    │           │   (catch_unwind, retry once, self-supervise)
//!      │           └─ lane L: SharedQueue ─┘           └─▶ Placement::route may take a batch elsewhere
//!      │ Overloaded           ▲   every queue pulses
//!      ▼                      └── one DispatchSignal
//!  Placement::overflow (default: shed)
//! ```
//!
//! A *lane* is one model's serving state: its [`SharedQueue`] (its own
//! admission control, deadlines, priorities and overload ladder, so
//! degradation composes per model), metrics channel, live-update mailbox
//! and, when the store is tiered with prefetch on, stream prefetcher.
//! [`crate::ServeRuntime`] is a pool with one lane; `drec-sched`'s
//! co-location runtime is a pool with one lane per model plus a
//! [`Placement`] that routes batches between CPU and accelerator.
//!
//! There is no dispatcher thread and no supervisor thread: every worker
//! is both (DESIGN.md §9 has the failure matrix). It holds one [`Engine`]
//! per lane, parks on the pool's [`DispatchSignal`], polls every lane
//! with [`SharedQueue::try_next_batch`], and executes what
//! [`Placement::route`] leaves it inline — no cross-thread hand-off on
//! the fast path. Each batch runs under `catch_unwind`: a failing batch
//! is re-enqueued once, then surfaced as [`ServeError::WorkerFailed`].
//! After a panic the engine is suspect, so the worker records the
//! reason, claims one restart from the pool-wide [`SupervisorConfig`]
//! budget, sleeps the shared exponential backoff, rebuilds the engine
//! and keeps serving. A worker that finds the budget spent exits; the
//! last one out closes every lane and answers all queued work with a
//! typed error, so nothing ever hangs.
//!
//! Start builds each lane's model once, in lane order on the calling
//! thread (registration order is a table's slot in a shared store) — or
//! takes it built from its [`LaneSpec`] — and it becomes worker 0's
//! engine. All engines are finished on a [`crew`]: worker 0's compile
//! their plans while the other workers' replicas build, finding their
//! tables registered and drawing only FC weights — which each replica
//! drops again when it registers on the lane's update channel and installs
//! the handles worker 0's engine was built with: a lane holds one FC set
//! however many engines it has.

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use drec_core::serving::LatencyCurve;
use drec_faultsim::FaultHook;
use drec_models::{InputSpec, ModelId, ModelScale, RecModel};
use drec_ops::Value;
use drec_par::ParPool;
use drec_store::EmbeddingStore;

use crate::batcher::{BatchPoll, BatcherConfig, DispatchSignal, SharedQueue};
use crate::degrade::{DegradeConfig, OverloadLadder};
use crate::engine::{BatchExecution, Engine};
use crate::error::{Result, ServeError};
use crate::metrics::{MetricsRegistry, ModelChannelMetrics};
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

/// Where a batch runs and what happens to an arrival its lane cannot
/// queue. Every method defaults to the single-backend behaviour.
pub trait Placement: std::fmt::Debug + Send + Sync {
    /// `lane`'s queue refused `request` as `Overloaded` (`err`). `Ok`: it
    /// was taken on elsewhere and counts as accepted; `Err`: what the
    /// caller sees.
    fn overflow(
        &self,
        _lane: usize,
        _request: Request,
        err: ServeError,
    ) -> std::result::Result<(), ServeError> {
        Err(err)
    }

    /// A worker released `requests` from `lane`: the batch for it to
    /// execute inline, or `None` when another backend took them.
    fn route(&self, _lane: usize, requests: Vec<Request>) -> Option<Vec<Request>> {
        Some(requests)
    }

    /// Called just before `engine` runs a batch of `lane`.
    fn prepare(&self, _lane: usize, _engine: &mut Engine) {}

    /// `worker` ran `requests` of `lane`; may re-price
    /// `exec.modelled_seconds` before it reaches metrics and responses.
    fn executed(
        &self,
        _worker: usize,
        _lane: usize,
        _requests: &[Request],
        _exec: &mut BatchExecution,
    ) {
    }
}

/// The trivial placement: batches run where they were taken, over-budget
/// arrivals are shed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Inline;

impl Placement for Inline {}

/// One lane of a [`PoolConfig`].
#[derive(Debug)]
pub struct LaneSpec {
    /// The model the lane serves.
    pub model: ModelId,
    /// The latency curve that prices its modelled batch timings and
    /// admission-delay estimate.
    pub curve: LatencyCurve,
    /// That model already built (at the pool's scale and seed, against its
    /// store) by a caller that needed it first — the scheduler calibrates
    /// `curve` on it. It becomes worker 0's engine; `None` has the pool
    /// build it. All lanes of one pool agree.
    pub built: Option<RecModel>,
}

/// Configuration for [`LanePool::start`].
#[derive(Debug)]
pub struct PoolConfig {
    /// The lanes, one model each. Non-empty.
    pub lanes: Vec<LaneSpec>,
    /// Scale every model is built at.
    pub scale: ModelScale,
    /// Parameter seed shared by all engines (replicas agree).
    pub seed: u64,
    /// Worker threads polling the lanes.
    pub workers: usize,
    /// Thread-name prefix of those workers (`{worker_name}-{index}`).
    pub worker_name: &'static str,
    /// Metrics slots past `workers`, one per [`LanePool::worker`].
    pub extra_workers: usize,
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
    /// The shared parameter store; `None` keeps per-engine dense tables.
    pub store: Option<Arc<EmbeddingStore>>,
    /// The intra-op pool engines are built on.
    pub par_pool: Arc<ParPool>,
    /// Restart budget and backoff.
    pub supervisor: SupervisorConfig,
    /// Fault-injection hook installed on every engine.
    pub faults: FaultHook,
    /// Batch placement; [`Inline`] for a single backend.
    pub placement: Arc<dyn Placement>,
}

/// Runs `work` over the jobs `source` yields; results in source order.
/// `source` is driven on the calling thread, so what it does to make a job
/// (building a model against a shared store) happens serially and in
/// order, while `min(available_parallelism, jobs) - 1` scoped helpers —
/// and the caller, once the source is exhausted — take jobs as they
/// appear. One job, or one core, spawns nothing. Helpers run under the
/// caller's [`drec_par::current`] pool; a panic of `work` resumes on the
/// caller.
pub fn crew<T: Send, R: Send>(
    source: impl ExactSizeIterator<Item = T>,
    work: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let helpers = cores.min(source.len()).saturating_sub(1);
    let (tx, rx) = mpsc::channel::<(usize, T)>();
    let rx = Mutex::new(rx);
    let drain = || {
        let mut done = Vec::new();
        loop {
            // The guard drops at the end of this statement, before `work`.
            let job = rx.lock().expect("nothing panics holding it").recv();
            let Ok((index, job)) = job else { return done };
            done.push((index, work(job)));
        }
    };
    let par = drec_par::current();
    let mut done = std::thread::scope(|scope| {
        let helpers: Vec<_> = (0..helpers)
            .map(|_| scope.spawn(|| drec_par::with_pool(&par, drain)))
            .collect();
        // Owned by this closure, so that a panic of `source` still hangs
        // up on the helpers the scope then waits for.
        let tx = tx;
        for job in source.enumerate() {
            tx.send(job).expect("the receiver outlives the scope");
        }
        drop(tx);
        let mut done = drain();
        for helper in helpers {
            done.extend(helper.join().unwrap_or_else(|p| resume_unwind(p)));
        }
        done
    });
    done.sort_unstable_by_key(|&(index, _)| index);
    done.into_iter().map(|(_, result)| result).collect()
}

/// One model's serving state inside a pool (shared, so read-only).
#[derive(Debug)]
pub struct Lane {
    /// The model this lane serves.
    pub model: ModelId,
    /// The model's input contract.
    pub spec: InputSpec,
    /// The lane's admission queue.
    pub queue: Arc<SharedQueue>,
    /// The lane's per-model metrics channel.
    pub channel: Arc<ModelChannelMetrics>,
    /// The lane's live-update mailbox: rolling weight swaps post here,
    /// every engine of the lane polls it between batches, and update
    /// throttling rides the lane's own overload ladder.
    pub update: Arc<ModelUpdateChannel>,
    curve: LatencyCurve,
    prefetcher: Option<Prefetcher>,
}

/// A pool's shared state. An `Arc<LaneSet>` *is* the cloneable client
/// handle; workers and the owning [`LanePool`] hold the same thing.
#[derive(Debug)]
pub struct LaneSet {
    /// The lanes, in configuration order.
    pub lanes: Vec<Lane>,
    /// The live metrics registry (per-model channels included).
    pub metrics: MetricsRegistry,
    /// The start-up configuration (its `lanes` moved into the field above).
    cfg: PoolConfig,
    signal: Arc<DispatchSignal>,
    next_id: AtomicU64,
    /// Restarts claimed so far against `cfg.supervisor.max_restarts`.
    restarts: AtomicU32,
    /// Lane-polling workers still running.
    live: AtomicUsize,
}

impl LaneSet {
    fn build_model(&self, model: ModelId) -> Result<RecModel> {
        let cfg = &self.cfg;
        match &cfg.store {
            Some(s) => model.build_with_store(cfg.scale, cfg.seed, Arc::clone(s)),
            None => model.build(cfg.scale, cfg.seed),
        }
        .map_err(|e| ServeError::WorkerFailed {
            reason: format!("model build failed: {e}"),
        })
    }

    /// The one engine builder — at start, and when a worker replaces an
    /// engine that panicked — around `built`, or a fresh build of the
    /// lane's model: same model, same seed, so replicas agree.
    fn build_engine(&self, lane: &Lane, built: Option<RecModel>) -> Result<Engine> {
        let cfg = &self.cfg;
        let model = match built {
            Some(model) => model,
            None => self.build_model(lane.model)?,
        };
        let pool = Arc::clone(&cfg.par_pool);
        let mut engine = Engine::with_store(model, lane.curve.clone(), pool, cfg.store.clone());
        engine.set_fault_hook(cfg.faults.clone());
        engine.set_update_channel(Arc::clone(&lane.update));
        Ok(engine)
    }

    /// Fresh engines for `lanes`, built side by side when there are several.
    fn build_engines(&self, lanes: Range<usize>) -> Result<Vec<Engine>> {
        let engines = crew(self.lanes[lanes].iter(), |l| self.build_engine(l, None));
        engines.into_iter().collect()
    }

    /// The one admission path: validates one sample (batch-dimension-1
    /// inputs in graph input order), builds the request, pushes it on
    /// lane `lane_idx` (out of range panics), books accepted / shed /
    /// evicted victim, and queues its rows for the prefetcher.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidInput`] (payload doesn't match the lane's
    /// input contract; not counted as shed load),
    /// [`ServeError::Overloaded`] or whatever [`Placement::overflow`]
    /// makes of it, [`ServeError::ShuttingDown`] (the lane is closed).
    pub fn submit(
        &self,
        lane_idx: usize,
        inputs: Vec<Value>,
        opts: SubmitOptions,
    ) -> Result<PendingResponse> {
        let lane = &self.lanes[lane_idx];
        if let Err(e) = validate_single(&lane.spec, &inputs) {
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
        let admitted = match lane.queue.try_push(request) {
            Ok(victim) => {
                if let (Some(p), Some(rows)) = (&lane.prefetcher, prefetch_rows) {
                    self.metrics
                        .record_prefetch_rows_dropped(p.enqueue(id, rows));
                }
                if let Some((victim, err)) = victim {
                    // The evicted lower-priority request is shed on its
                    // own reply channel; its waiter sees Overloaded.
                    self.record_shed(lane);
                    victim.respond(Err(err));
                }
                Ok(())
            }
            Err((request, err @ ServeError::Overloaded { .. })) => {
                self.cfg.placement.overflow(lane_idx, request, err)
            }
            Err((_request, err)) => Err(err),
        };
        if let Err(err) = admitted {
            self.record_shed(lane);
            return Err(err);
        }
        self.metrics.record_accepted();
        if self.live.load(Ordering::SeqCst) == 0 {
            // The last worker left (and swept the lanes) while this push
            // was in flight; nobody else will answer it.
            self.drain_lanes();
        }
        Ok(PendingResponse::new(id, rx))
    }

    fn record_shed(&self, lane: &Lane) {
        self.metrics.record_shed();
        lane.channel.record_shed();
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
    pub fn retry_or_fail(&self, lane: usize, requests: Vec<Request>, reason: &str) {
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
    pub fn drain_lanes(&self) {
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

/// One worker's engines (one per lane) plus the execute-and-recover
/// logic every batch goes through, whichever thread runs it.
#[derive(Debug)]
pub struct Worker {
    index: usize,
    engines: Vec<Engine>,
    core: Arc<LaneSet>,
}

impl Worker {
    /// Runs one batch of `lane` on this worker's engine, delivering
    /// responses, metrics and retries. Returns `false` when the engine
    /// panicked and the restart budget is spent: the worker must stop.
    pub fn execute(&mut self, lane_idx: usize, requests: Vec<Request>) -> bool {
        let core: &LaneSet = &self.core;
        let lane = &core.lanes[lane_idx];
        let metrics = &core.metrics;
        let engine = &mut self.engines[lane_idx];
        core.cfg.placement.prepare(lane_idx, engine);
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
                let busy = started.elapsed();
                let done = Instant::now();
                let batch = requests.len();
                let placement = &core.cfg.placement;
                placement.executed(self.index, lane_idx, &requests, &mut exec);
                metrics.record_batch(self.index, batch, busy);
                metrics.modelled.record_seconds(exec.modelled_seconds);
                for (request, outputs) in requests.into_iter().zip(exec.per_request_outputs) {
                    let wall = (done - request.submitted_at).as_secs_f64();
                    metrics.latency.record_seconds(wall);
                    lane.channel
                        .record_completed(Duration::from_secs_f64(wall.max(0.0)));
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
                metrics.record_batch(self.index, 0, started.elapsed());
                core.retry_or_fail(lane_idx, requests, &err.to_string());
                true
            }
            Err(payload) => {
                // Panic: the engine (and any partial execution state) is
                // suspect. Fail the batch, then replace the engine.
                let reason = panic_message(payload.as_ref());
                metrics.record_batch(self.index, 0, started.elapsed());
                metrics.record_worker_panic(&reason);
                core.retry_or_fail(lane_idx, requests, &format!("worker panicked: {reason}"));
                self.recover(lane_idx..lane_idx + 1)
            }
        }
    }

    /// The pool this worker belongs to.
    pub fn pool(&self) -> &LaneSet {
        &self.core
    }

    /// Self-supervision: claims one restart from the pool-wide budget,
    /// sleeps its backoff (doubling per restart, capped), and rebuilds
    /// the engines of `lanes`. Returns `false` once the budget is spent.
    fn recover(&mut self, lanes: Range<usize>) -> bool {
        let core = Arc::clone(&self.core);
        let cfg = core.cfg.supervisor;
        loop {
            let claimed = core
                .restarts
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                    (n < cfg.max_restarts).then_some(n + 1)
                });
            let Ok(n) = claimed else { return false };
            let doubling = 1u32.checked_shl(n).unwrap_or(u32::MAX);
            std::thread::sleep(cfg.backoff.saturating_mul(doubling).min(cfg.backoff_cap));
            match core.build_engines(lanes.clone()) {
                Ok(engines) => {
                    for (lane, engine) in lanes.zip(engines) {
                        self.engines[lane] = engine;
                    }
                    core.metrics.record_worker_restart();
                    return true;
                }
                Err(e) => core
                    .metrics
                    .record_worker_panic(&format!("restart failed: {e}")),
            }
        }
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
        }
    }

    /// Park on the signal; on wake, poll every lane (from a per-worker
    /// offset, so the hottest lane has no permanent priority), answer
    /// expired requests, route each released batch and execute what
    /// stays inline. Returns when every lane is closed and drained, or
    /// the restart budget is spent. A failure during a worker's own
    /// drain pass is requeued for whichever worker is still looping
    /// (worst case, the teardown sweep answers it).
    fn serve_lanes(&mut self) {
        let core = Arc::clone(&self.core);
        let lanes = &core.lanes;
        loop {
            let seen = core.signal.generation();
            let mut earliest: Option<Instant> = None;
            let mut dispatched = false;
            let mut all_closed = true;
            for offset in 0..lanes.len() {
                let idx = (self.index + offset) % lanes.len();
                loop {
                    match lanes[idx].queue.try_next_batch() {
                        BatchPoll::Ready(batch) => {
                            all_closed = false;
                            dispatched = true;
                            core.expire(batch.expired);
                            if batch.requests.is_empty() {
                                continue;
                            }
                            if let Some(requests) = core.cfg.placement.route(idx, batch.requests) {
                                if !self.execute(idx, requests) {
                                    return;
                                }
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
                core.signal.wait(seen, earliest);
            }
        }
    }
}

/// A running lane pool: the shared [`LaneSet`] (which it derefs to) plus
/// the worker threads. Dropping it tears the pool down.
#[derive(Debug)]
pub struct LanePool {
    core: Arc<LaneSet>,
    threads: Vec<JoinHandle<()>>,
}

impl std::ops::Deref for LanePool {
    type Target = LaneSet;

    fn deref(&self) -> &LaneSet {
        &self.core
    }
}

impl LanePool {
    /// Builds the lanes and one engine per lane and worker (see the
    /// module docs for the order), and starts the workers.
    ///
    /// # Errors
    ///
    /// [`ServeError::WorkerFailed`] when a model fails to build,
    /// [`ServeError::SpawnFailed`] when a thread cannot be spawned.
    ///
    /// # Panics
    ///
    /// Panics on an empty lane list, zero workers or a zero `max_batch`.
    pub fn start(mut cfg: PoolConfig) -> Result<LanePool> {
        assert!(!cfg.lanes.is_empty(), "need at least one lane");
        assert!(cfg.workers >= 1, "need at least one worker");
        assert!(cfg.max_batch >= 1, "max_batch must be at least 1");
        let lane_cfgs = std::mem::take(&mut cfg.lanes);
        let mut set = LaneSet {
            lanes: Vec::with_capacity(lane_cfgs.len()),
            signal: Arc::default(),
            metrics: MetricsRegistry::with_pool_and_store(
                cfg.workers + cfg.extra_workers,
                Arc::clone(&cfg.par_pool),
                cfg.store.clone(),
            ),
            next_id: AtomicU64::new(0),
            restarts: AtomicU32::new(0),
            live: AtomicUsize::new(cfg.workers),
            cfg,
        };
        // A pool serving one model owns its store: that lane's ladder
        // drives the store's cache-only rung and is the pool-wide
        // overload level. Co-located lanes share the store, so none of
        // their ladders may flip it for the others.
        let sole_lane = lane_cfgs.len() == 1;
        // Each lane's model: the source of its input contract and store
        // bindings, then worker 0's engine.
        let mut models = Vec::with_capacity(lane_cfgs.len());
        for spec in lane_cfgs {
            let (model, curve) = (spec.model, spec.curve);
            let cfg = &set.cfg;
            let store = cfg.store.clone();
            let ladder = Arc::new(OverloadLadder::new(
                cfg.degrade,
                cfg.queue_capacity,
                store.clone().filter(|_| sole_lane),
            ));
            if sole_lane {
                set.metrics.set_ladder(Arc::clone(&ladder));
            }
            let queue = Arc::new(SharedQueue::with_signal(
                BatcherConfig {
                    max_batch: cfg.max_batch,
                    max_wait: cfg.max_wait,
                    queue_capacity: cfg.queue_capacity,
                    delay_budget: cfg.delay_budget,
                    per_query_service_estimate: curve.eval(cfg.max_batch) / cfg.max_batch as f64,
                },
                Arc::clone(&ladder),
                Arc::clone(&set.signal),
            ));
            // One live-update channel per lane: every engine of the lane
            // registers as a weight reader and computes from the FC set
            // the channel holds; the updater (if the deployment runs one)
            // respects the lane ladder's backpressure rung.
            let namespace = drec_models::store_namespace(model, cfg.scale, cfg.seed);
            let update = Arc::new(ModelUpdateChannel::new(model.name(), namespace, store));
            update.set_ladder(Arc::clone(&ladder));
            let channel = set.metrics.register_model(
                model.name(),
                Some(Arc::clone(&queue)),
                Some(ladder),
                Some(Arc::clone(&update)),
            );
            let built = match spec.built {
                Some(built) => built,
                None => set.build_model(model)?,
            };
            // Stream prefetch: only when the shared store is tiered with
            // prefetch on and the model exposes store bindings.
            let prefetcher = match &set.cfg.store {
                Some(s) if s.prefetch_enabled() => {
                    let bindings = built.store_bindings();
                    let budget = s.stats().tier_dram_budget_rows;
                    (!bindings.is_empty())
                        .then(|| Prefetcher::start(bindings, budget))
                        .transpose()?
                }
                _ => None,
            };
            let spec = built.spec().clone();
            models.push(Some(built));
            set.lanes.push(Lane {
                model,
                spec,
                queue,
                channel,
                update,
                curve,
                prefetcher,
            });
        }
        // From here on an early return drops `pool`, which closes the
        // lanes and joins the workers already running.
        let mut pool = LanePool {
            core: Arc::new(set),
            threads: Vec::new(),
        };
        // One engine per lane and worker, worker-major: worker 0's hold
        // the models above, the rest are replica builds.
        let lanes = &pool.core.lanes;
        models.resize_with(lanes.len() * pool.cfg.workers, || None);
        let engines = crew(models.into_iter().enumerate(), |(i, built)| {
            pool.build_engine(&lanes[i % lanes.len()], built)
        });
        let mut engines = engines.into_iter();
        for index in 0..pool.cfg.workers {
            let mut worker = Worker {
                index,
                engines: engines.by_ref().take(lanes.len()).collect::<Result<_>>()?,
                core: Arc::clone(&pool.core),
            };
            let thread = std::thread::Builder::new()
                .name(format!("{}-{index}", pool.cfg.worker_name))
                .spawn(move || worker.run())
                .map_err(|e| ServeError::SpawnFailed {
                    reason: e.to_string(),
                })?;
            pool.threads.push(thread);
        }
        Ok(pool)
    }

    /// Builds a [`Worker`] (one fresh engine per lane) reporting under
    /// metrics slot `index`, for a backend the [`Placement`] drives on
    /// its own thread: it shares the restart budget but polls no lanes.
    ///
    /// # Errors
    ///
    /// [`ServeError::WorkerFailed`] when a model fails to build.
    pub fn worker(&self, index: usize) -> Result<Worker> {
        Ok(Worker {
            index,
            engines: self.build_engines(0..self.lanes.len())?,
            core: Arc::clone(&self.core),
        })
    }

    /// A cloneable submission handle.
    pub fn handle(&self) -> Arc<LaneSet> {
        Arc::clone(&self.core)
    }

    /// Teardown up to its last step: stop admission on every lane, let
    /// the workers drain all queued work, and join them. Finish with
    /// [`LaneSet::drain_lanes`] once nothing can requeue. Idempotent.
    pub fn join_workers(&mut self) {
        self.core.close_lanes();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
        for lane in &self.core.lanes {
            if let Some(prefetcher) = &lane.prefetcher {
                prefetcher.shutdown();
            }
        }
    }
}

impl Drop for LanePool {
    fn drop(&mut self) {
        // No-op when the owner already tore the pool down.
        self.join_workers();
        self.drain_lanes();
    }
}
