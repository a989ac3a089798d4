//! The single-model serving runtime: a [`LanePool`] with one lane.
//!
//! ```text
//! ServeHandle::submit ──try_push──▶ SharedQueue ──try_next_batch──▶ worker 0..N
//!        │ (shed: Overloaded)          │  (the pool's one lane)     │ catch_unwind
//!        ▼                             ▼                            ▼
//!   PendingResponse ◀──per-request mpsc reply── Engine::run_batch
//!                                                                   │ panic
//!                                                                   ▼
//!                              same worker: backoff, fresh Engine, keep serving
//! ```
//!
//! Every worker owns a full [`crate::Engine`]: worker 0 the model built
//! here, the others views of it, so all of them share one parameter set;
//! requests are delivered back on per-request channels, which keeps the
//! runtime lock-free outside the single batcher queue. Worker loop, admission, retry, supervision
//! and teardown are the pool's (see [`LanePool`]); this module only
//! maps [`ServeConfig`] onto a one-lane [`PoolConfig`] with the trivial
//! [`Inline`] placement.

use std::sync::{mpsc, Arc};
use std::time::Duration;

use drec_core::serving::LatencyCurve;
use drec_faultsim::{FaultHook, FaultPlan};
use drec_models::{InputSpec, ModelId, ModelScale};
use drec_ops::Value;
use drec_store::{EmbeddingStore, StoreConfig};

use crate::degrade::DegradeConfig;
use crate::error::{Result, ServeError};
use crate::metrics::MetricsSnapshot;
use crate::pool::{Inline, LanePool, LaneSet, LaneSpec, PoolConfig, SupervisorConfig};
use crate::request::{RequestId, Response, SubmitOptions};
use crate::update::ModelUpdateChannel;

/// Configuration for [`ServeRuntime::start`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Which model every worker serves.
    pub model: ModelId,
    /// Scale to build the model at.
    pub scale: ModelScale,
    /// Parameter seed.
    pub seed: u64,
    /// Number of worker threads.
    pub workers: usize,
    /// Largest coalesced batch.
    pub max_batch: usize,
    /// Longest the oldest queued request waits for co-travellers.
    pub max_wait: Duration,
    /// Queue depth above which arrivals are shed.
    pub queue_capacity: usize,
    /// Estimated-queueing-delay budget above which arrivals are shed.
    pub delay_budget: Duration,
    /// Latency curve used for modelled batch timings and the
    /// admission-delay estimate.
    pub curve: LatencyCurve,
    /// When set, all workers resolve embedding lookups through one shared
    /// [`EmbeddingStore`] with this configuration (optional quantization,
    /// hot-row caching and tiering); `None` keeps dense tables, which the
    /// workers share as they share every other parameter.
    pub store: Option<StoreConfig>,
    /// Overload-ladder thresholds (see [`crate::OverloadLadder`]).
    pub degrade: DegradeConfig,
    /// Worker-restart policy.
    pub supervisor: SupervisorConfig,
    /// Deterministic fault injection; `None` (the default) installs
    /// disabled hooks that cost one branch per batch / per cold read.
    pub faults: Option<FaultPlan>,
}

impl ServeConfig {
    /// A small, fast default suitable for tests: tiny model, 2 workers.
    pub fn tiny(model: ModelId) -> Self {
        ServeConfig {
            model,
            scale: ModelScale::Tiny,
            seed: 7,
            workers: 2,
            max_batch: 16,
            max_wait: Duration::ZERO,
            queue_capacity: 1024,
            delay_budget: Duration::from_secs(60),
            curve: LatencyCurve::from_points(vec![(1, 1e-4), (1024, 1e-2)]),
            store: None,
            degrade: DegradeConfig::default(),
            supervisor: SupervisorConfig::default(),
            faults: None,
        }
    }
}

/// A running serving runtime. Dropping it without calling
/// [`ServeRuntime::shutdown`] still drains accepted work and joins the
/// workers.
#[derive(Debug)]
pub struct ServeRuntime {
    pool: LanePool,
}

impl ServeRuntime {
    /// Builds the model, makes `cfg.workers` engines over it and starts
    /// the worker pool.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::WorkerFailed`] if model construction fails,
    /// or [`ServeError::SpawnFailed`] if a thread cannot be spawned.
    pub fn start(cfg: ServeConfig) -> Result<ServeRuntime> {
        let faults = match &cfg.faults {
            Some(plan) => FaultHook::from_plan(plan),
            None => FaultHook::disabled(),
        };
        let store = cfg
            .store
            .map(|sc| Arc::new(EmbeddingStore::with_faults(sc, faults.clone())));
        let built = match &store {
            Some(s) => cfg
                .model
                .build_with_store(cfg.scale, cfg.seed, Arc::clone(s)),
            None => cfg.model.build(cfg.scale, cfg.seed),
        }
        .map_err(|e| ServeError::WorkerFailed {
            reason: format!("model build failed: {e}"),
        })?;
        let pool = LanePool::start(PoolConfig {
            lanes: vec![LaneSpec {
                built,
                curve: cfg.curve,
            }],
            scale: cfg.scale,
            seed: cfg.seed,
            workers: cfg.workers,
            worker_name: "drec-serve-worker",
            max_batch: cfg.max_batch,
            max_wait: cfg.max_wait,
            queue_capacity: cfg.queue_capacity,
            delay_budget: cfg.delay_budget,
            degrade: cfg.degrade,
            store,
            // One intra-op pool shared by every worker engine; snapshots
            // report its task counts and utilization alongside the
            // worker metrics.
            par_pool: drec_par::current(),
            supervisor: cfg.supervisor,
            faults,
            placement: Arc::new(Inline),
        })?;
        Ok(ServeRuntime { pool })
    }

    /// The model's live-update channel — hand it to an
    /// [`crate::Updater`] (on its own thread) to stream versioned
    /// parameter updates through the running workers.
    pub fn update_channel(&self) -> &Arc<ModelUpdateChannel> {
        &self.pool.lanes[0].update
    }

    /// A cloneable submission handle.
    pub fn handle(&self) -> ServeHandle {
        ServeHandle {
            pool: self.pool.handle(),
        }
    }

    /// Point-in-time metrics summary.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.pool.snapshot()
    }

    /// The served model's input contract.
    pub fn spec(&self) -> &InputSpec {
        &self.pool.lanes[0].spec
    }

    /// Current queue depth (racy; for observation only).
    pub fn queue_depth(&self) -> usize {
        self.pool.lanes[0].queue.depth()
    }

    /// Graceful shutdown: stop admission, let workers drain every
    /// accepted request, join the pool, and return the final metrics —
    /// including any worker panic reasons caught along the way (see
    /// [`MetricsSnapshot::panic_reasons`]).
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.pool.join_workers();
        self.pool.drain_lanes();
        self.pool.snapshot()
    }
}

/// Cloneable client handle for submitting requests.
#[derive(Debug, Clone)]
pub struct ServeHandle {
    pool: Arc<LaneSet>,
}

impl ServeHandle {
    /// Validates and submits one sample (batch-dimension-1 inputs in
    /// graph input order) at normal priority with no deadline. Returns a
    /// [`PendingResponse`] to wait on.
    ///
    /// # Errors
    ///
    /// * [`ServeError::InvalidInput`] — the payload doesn't match the
    ///   model's input contract (not counted as shed load),
    /// * [`ServeError::Overloaded`] — shed by admission control,
    /// * [`ServeError::ShuttingDown`] — the runtime is draining.
    pub fn submit(&self, inputs: Vec<Value>) -> Result<PendingResponse> {
        self.submit_with(inputs, SubmitOptions::default())
    }

    /// Like [`ServeHandle::submit`] with an explicit deadline budget and
    /// priority class. A request past its deadline is dropped by the
    /// batcher with [`ServeError::DeadlineExceeded`] instead of
    /// executing; under queue pressure higher-priority arrivals evict
    /// queued lower-priority requests before being shed themselves.
    pub fn submit_with(&self, inputs: Vec<Value>, opts: SubmitOptions) -> Result<PendingResponse> {
        self.pool.submit(0, inputs, opts)
    }

    /// The served model's input contract.
    pub fn spec(&self) -> &InputSpec {
        &self.pool.lanes[0].spec
    }

    /// Live metrics snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.pool.snapshot()
    }
}

/// A submitted request waiting for its response.
#[derive(Debug)]
pub struct PendingResponse {
    id: RequestId,
    rx: mpsc::Receiver<Result<Response>>,
}

impl PendingResponse {
    pub(crate) fn new(id: RequestId, rx: mpsc::Receiver<Result<Response>>) -> Self {
        PendingResponse { id, rx }
    }

    /// The id assigned at submission.
    pub fn id(&self) -> RequestId {
        self.id
    }

    /// Blocks until the response arrives.
    ///
    /// # Errors
    ///
    /// Propagates the worker-side error, or [`ServeError::Disconnected`]
    /// if the runtime was torn down without draining.
    pub fn wait(self) -> Result<Response> {
        match self.rx.recv() {
            Ok(result) => result,
            Err(_) => Err(ServeError::Disconnected),
        }
    }

    /// Blocks until the response arrives or `timeout` elapses. `None`
    /// means the request is still in flight — used by the chaos harness
    /// to prove no admitted request hangs.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<Response>> {
        match self.rx.recv_timeout(timeout) {
            Ok(result) => Some(result),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => Some(Err(ServeError::Disconnected)),
        }
    }

    /// Non-blocking poll: `None` while the request is in flight.
    pub fn try_wait(&self) -> Option<Result<Response>> {
        match self.rx.try_recv() {
            Ok(result) => Some(result),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(ServeError::Disconnected)),
        }
    }
}
