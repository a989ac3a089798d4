//! The one serving runtime: [`ServeRuntime`] owns a pool's lanes and
//! workers (the `pool` module has the worker loop, admission, retry and
//! supervision), and a [`ServeHandle`] submits to one of its lanes.
//!
//! ```text
//! ServeHandle::submit ──try_push──▶ SharedQueue ──try_next_batch──▶ worker 0..N
//!        │ (shed: Overloaded)          │  (the handle's lane)       │ catch_unwind
//!        ▼                             ▼                            ▼
//!   PendingResponse ◀──per-request mpsc reply── Engine::run_batch
//! ```
//!
//! [`ServeRuntime::start_pool`] serves any number of lanes under any
//! [`crate::Placement`]; [`ServeRuntime::start`] serves one model on one
//! lane with the trivial [`Inline`] placement. A pool's store is the one
//! its lanes' models were built against, and a fault plan with store read
//! faults that store was not built with is refused. Teardown is written
//! once, in `Drop`, and [`ServeRuntime::shutdown`] is that plus the final
//! metrics.

use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

use drec_core::serving::LatencyCurve;
use drec_faultsim::{FaultHook, FaultPlan};
use drec_models::{InputSpec, ModelId, ModelScale};
use drec_ops::Value;
use drec_store::{EmbeddingStore, StoreConfig};

use crate::degrade::DegradeConfig;
use crate::error::{Result, ServeError};
use crate::metrics::MetricsSnapshot;
use crate::pool::{Inline, Lane, LaneSet, LaneSpec, PoolConfig, SupervisorConfig};
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

/// A running serving runtime: its lanes, one [`ServeHandle`] each, and
/// the worker threads. Dropping it without calling
/// [`ServeRuntime::shutdown`] still drains accepted work and joins the
/// workers.
#[derive(Debug)]
pub struct ServeRuntime {
    /// One per lane, in lane order.
    handles: Vec<ServeHandle>,
    threads: Vec<JoinHandle<()>>,
}

impl ServeRuntime {
    /// Builds the model and starts a one-lane pool of `cfg.workers`
    /// engines over it.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::WorkerFailed`] if model construction fails,
    /// or [`ServeError::SpawnFailed`] if a thread cannot be spawned.
    ///
    /// # Panics
    ///
    /// As [`ServeRuntime::start_pool`]: store read faults with no `store`.
    pub fn start(config: ServeConfig) -> Result<ServeRuntime> {
        let faults = config.faults.as_ref();
        let faults = faults.map_or_else(FaultHook::disabled, FaultHook::from_plan);
        let (model, scale, seed) = (config.model, config.scale, config.seed);
        let built = match config.store {
            Some(sc) => {
                let store = Arc::new(EmbeddingStore::with_faults(sc, faults.clone()));
                model.build_with_store(scale, seed, store)
            }
            None => model.build(scale, seed),
        }
        .map_err(|e| ServeError::WorkerFailed {
            reason: format!("model build failed: {e}"),
        })?;
        ServeRuntime::start_pool(PoolConfig {
            lanes: vec![LaneSpec {
                built,
                curve: config.curve,
            }],
            workers: config.workers,
            worker_name: "drec-serve-worker",
            max_batch: config.max_batch,
            max_wait: config.max_wait,
            queue_capacity: config.queue_capacity,
            delay_budget: config.delay_budget,
            degrade: config.degrade,
            // One intra-op pool shared by every worker engine; snapshots
            // report its task counts and utilization alongside the
            // worker metrics.
            par_pool: drec_par::current(),
            supervisor: config.supervisor,
            faults,
            placement: Arc::new(Inline),
        })
    }

    /// Makes the lanes and one engine per lane and worker, and starts the
    /// workers (see the `pool` module docs).
    ///
    /// # Errors
    ///
    /// [`ServeError::SpawnFailed`] when a thread cannot be spawned.
    ///
    /// # Panics
    ///
    /// Panics on an empty lane list, zero workers or a zero `max_batch`;
    /// on lanes built against different stores (or some dense); and on
    /// `faults` that schedule store read faults (`poison_every_n_reads`,
    /// `delay_every_n_reads`) the lanes' store was not built with.
    pub fn start_pool(cfg: PoolConfig) -> Result<ServeRuntime> {
        let (core, built) = LaneSet::new(cfg)?;
        let handles = (0..core.lanes.len()).map(|lane| ServeHandle {
            core: Arc::clone(&core),
            lane,
        });
        // From here on an early return drops the runtime, whose teardown
        // joins the workers already running.
        let mut runtime = ServeRuntime {
            handles: handles.collect(),
            threads: Vec::new(),
        };
        core.start_workers(built, &mut runtime.threads)?;
        Ok(runtime)
    }

    /// The first lane's live-update channel — hand it to an
    /// [`crate::Updater`] (on its own thread) to stream versioned
    /// parameter updates through the running workers.
    pub fn update_channel(&self) -> &Arc<ModelUpdateChannel> {
        self.handles[0].update_channel()
    }

    /// A cloneable submission handle to the first lane.
    pub fn handle(&self) -> ServeHandle {
        self.handles[0].clone()
    }

    /// One submission handle per lane, in lane order.
    pub fn handles(&self) -> &[ServeHandle] {
        &self.handles
    }

    /// Point-in-time metrics summary.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.handles[0].snapshot()
    }

    /// The first lane's input contract.
    pub fn spec(&self) -> &InputSpec {
        self.handles[0].spec()
    }

    /// The first lane's queue depth (racy; for observation only).
    pub fn queue_depth(&self) -> usize {
        self.handles[0].lane().queue.depth()
    }

    /// Graceful shutdown: stop admission, let workers drain every
    /// accepted request, join them, and return the final metrics —
    /// including any worker panic reasons caught along the way (see
    /// [`MetricsSnapshot::panic_reasons`]).
    pub fn shutdown(self) -> MetricsSnapshot {
        let handle = self.handle();
        drop(self);
        handle.snapshot()
    }
}

impl Drop for ServeRuntime {
    fn drop(&mut self) {
        let threads = std::mem::take(&mut self.threads);
        self.handles[0].core.tear_down(threads);
    }
}

/// Cloneable client handle bound to one lane of a runtime.
#[derive(Debug, Clone)]
pub struct ServeHandle {
    core: Arc<LaneSet>,
    lane: usize,
}

impl ServeHandle {
    fn lane(&self) -> &Lane {
        &self.core.lanes[self.lane]
    }

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
        self.core.submit(self.lane, inputs, opts)
    }

    /// Counts a submission for `model`, which no lane of this runtime
    /// serves, as invalid input and returns its error: what a caller
    /// routing by model over [`ServeRuntime::handles`] answers when none
    /// matches.
    pub fn reject_unknown(&self, model: ModelId) -> ServeError {
        self.core.metrics.record_invalid();
        ServeError::InvalidInput {
            slot: usize::MAX,
            expected: "a served model".to_string(),
            got: model.name().to_string(),
        }
    }

    /// The lane's model.
    pub fn model(&self) -> ModelId {
        self.lane().source.id()
    }

    /// The lane's input contract.
    pub fn spec(&self) -> &InputSpec {
        self.lane().source.spec()
    }

    /// The lane's live-update channel.
    pub fn update_channel(&self) -> &Arc<ModelUpdateChannel> {
        &self.lane().update
    }

    /// Live metrics snapshot of the whole runtime: the registry's
    /// counters, every lane's records, and their pool-wide merge.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.core.metrics.snapshot(&self.core.lanes)
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
