//! The multi-model co-location runtime: what co-location adds to the
//! serving core.
//!
//! ```text
//!                      ┌─ lane NCF  ─┐   poll    ┌─ CPU worker 0..W  (drec_serve::LanePool:
//!  MultiServeHandle ──▶│  lane RM1   │◀──────────┤   admission, worker loop, retry, recovery,
//!   (model → lane)     │  …          │           │   teardown)
//!        │             └─ lane DIEN ─┘           └─ Placement::route ─┐ batch ≥ crossover
//!        │ lane over budget                                          ▼
//!        └── Placement::overflow ── spill ──────────────▶ accelerator worker (functional
//!            (NoBackendAvailable when the backlog is full)  execution, roofline-modelled latency)
//! ```
//!
//! Lanes, admission, the worker loop, retry, self-supervised recovery
//! and teardown all belong to [`drec_serve::LanePool`] — the same core
//! the single-model `ServeRuntime` runs with one lane. This module
//! supplies the [`Placement`] hook and the two threads only co-location
//! needs. Each released batch is routed to the backend chosen by the
//! model's calibrated [`ModelProfile`]: batches at or past the CPU/GPU
//! crossover are forwarded to the simulated accelerator, the rest
//! execute inline on the CPU worker that took them.
//!
//! The accelerator worker executes batches *functionally* (same kernels,
//! same arithmetic — results stay bit-identical to a single-model
//! engine) while its latency is *modelled* by the roofline dispatch
//! oracle, the same two-clock discipline `drec-serve` uses for CPU
//! workers. When a model's CPU queue is over budget, admission spills
//! the arrival directly to the accelerator backlog instead of shedding;
//! only when that backlog is also full does the caller see the typed
//! [`ServeError::NoBackendAvailable`] — shed, never hung.
//!
//! Start builds each model once: on the calling thread, in lane order (so
//! the shared store gives every table the slot it always had), handing
//! each to the start crew, which calibrates the [`ModelProfile`]s
//! concurrently on one simulator per calibrating thread — a profile
//! depends only on the model's parameters and the calibration seed, so
//! this is the serial result. The calibrated
//! model travels to the pool in its [`LaneSpec`] and is the one the lane's
//! first engine serves; every other engine of the lane, the accelerator's
//! included, is a view of it.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use drec_hwsim::{GpuModel, Platform};
use drec_models::{InputSpec, ModelId, ModelScale};
use drec_ops::Value;
use drec_par::ParPool;
use drec_serve::{
    BatchExecution, DegradeConfig, EmbeddingStore, Engine, FaultHook, Lane, LanePool, LaneSet,
    LaneSpec, MetricsSnapshot, ModelUpdateChannel, PendingResponse, Placement, PoolConfig, Request,
    Result, ServeError, StoreConfig, SubmitOptions, SupervisorConfig, Worker,
};

use crate::crew::crew;
use crate::profile::{ModelProfile, ProfileConfig};
use crate::tuner::{ModelTuner, TunerConfig, TunerStep};

/// Which backend a batch executed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// The shared CPU worker pool (real execution on this machine).
    Cpu,
    /// The simulated accelerator: functional execution on the dedicated
    /// GPU worker, latency modelled by the roofline dispatch oracle.
    Gpu,
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Backend::Cpu => "cpu",
            Backend::Gpu => "gpu",
        })
    }
}

/// Number of power-of-two batch-size buckets in decision histograms
/// (bucket `i` covers batches `[2^i, 2^(i+1))`).
const DECISION_BUCKETS: usize = 16;

/// Lock-free per-model counters of the scheduler's routing decisions.
#[derive(Debug, Default)]
struct DecisionStats {
    cpu_batches: AtomicU64,
    cpu_queries: AtomicU64,
    gpu_batches: AtomicU64,
    gpu_queries: AtomicU64,
    gpu_spills: AtomicU64,
    cpu_hist: [AtomicU64; DECISION_BUCKETS],
    gpu_hist: [AtomicU64; DECISION_BUCKETS],
}

fn size_bucket(batch: usize) -> usize {
    ((usize::BITS - 1 - batch.max(1).leading_zeros()) as usize).min(DECISION_BUCKETS - 1)
}

impl DecisionStats {
    fn record(&self, backend: Backend, batch: usize) {
        let bucket = size_bucket(batch);
        match backend {
            Backend::Cpu => {
                self.cpu_batches.fetch_add(1, Ordering::Relaxed);
                self.cpu_queries.fetch_add(batch as u64, Ordering::Relaxed);
                self.cpu_hist[bucket].fetch_add(1, Ordering::Relaxed);
            }
            Backend::Gpu => {
                self.gpu_batches.fetch_add(1, Ordering::Relaxed);
                self.gpu_queries.fetch_add(batch as u64, Ordering::Relaxed);
                self.gpu_hist[bucket].fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn record_spill(&self) {
        self.gpu_spills.fetch_add(1, Ordering::Relaxed);
        // A spill is a batch-of-1 GPU dispatch.
        self.record(Backend::Gpu, 1);
    }
}

/// Point-in-time copy of one model's routing decisions.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionSnapshot {
    /// Model name.
    pub model: String,
    /// The model's calibrated CPU/GPU crossover batch (`None`: CPU
    /// always wins, or offload disabled).
    pub crossover: Option<usize>,
    /// Batches routed to the CPU pool.
    pub cpu_batches: u64,
    /// Queries inside those batches.
    pub cpu_queries: u64,
    /// Batches dispatched to the accelerator (including spills).
    pub gpu_batches: u64,
    /// Queries inside those batches.
    pub(crate) gpu_queries: u64,
    /// Overflow queries spilled to the accelerator at admission because
    /// the CPU queue was over budget.
    pub gpu_spills: u64,
    /// Power-of-two batch-size histogram of CPU routings (bucket `i`
    /// counts batches in `[2^i, 2^(i+1))`).
    pub cpu_size_hist: Vec<u64>,
    /// Same histogram for accelerator dispatches.
    pub gpu_size_hist: Vec<u64>,
}

impl DecisionSnapshot {
    /// Human label for histogram bucket `i` ("1", "2-3", "4-7", …).
    pub fn bucket_label(i: usize) -> String {
        let lo = 1usize << i;
        if i == 0 {
            "1".to_string()
        } else {
            format!("{}-{}", lo, (lo << 1) - 1)
        }
    }
}

/// One model to co-locate, with its SLO target.
#[derive(Debug, Clone, Copy)]
pub struct ModelSlo {
    /// The model.
    pub id: ModelId,
    /// p99 end-to-end latency budget the tuner defends.
    pub(crate) slo: Duration,
}

impl ModelSlo {
    /// Convenience constructor.
    pub fn new(id: ModelId, slo: Duration) -> Self {
        ModelSlo { id, slo }
    }
}

/// Accelerator configuration for the scheduler.
#[derive(Debug, Clone)]
pub struct GpuSchedConfig {
    /// The GPU the dispatch oracle prices offloads on.
    pub gpu: GpuModel,
    /// Extra fixed per-dispatch PCIe transfer cost, seconds (see
    /// [`drec_hwsim::DispatchOracle`]).
    pub pcie_extra_s: f64,
    /// Admission-spill backlog cap: queries the accelerator path will
    /// hold beyond what the dispatcher routes. Past it, saturated models
    /// shed with [`ServeError::NoBackendAvailable`].
    pub backlog_capacity: usize,
}

impl Default for GpuSchedConfig {
    fn default() -> Self {
        GpuSchedConfig {
            gpu: GpuModel::t4(),
            pcie_extra_s: 20e-6,
            backlog_capacity: 256,
        }
    }
}

/// Configuration for [`MultiServeRuntime::start`].
#[derive(Debug, Clone)]
pub struct SchedConfig {
    /// The co-located models and their SLOs. Must be non-empty with
    /// unique model ids.
    pub models: Vec<ModelSlo>,
    /// Scale every model is built at.
    pub scale: ModelScale,
    /// Parameter seed every model is built with.
    pub seed: u64,
    /// CPU worker threads shared by all models.
    pub cpu_workers: usize,
    /// Largest coalesced batch per model.
    pub max_batch: usize,
    /// Longest the oldest queued request waits for co-travellers.
    pub max_wait: Duration,
    /// Per-model queue capacity.
    pub queue_capacity: usize,
    /// Per-model admission budget on estimated queueing delay.
    pub delay_budget: Duration,
    /// Per-model overload-ladder thresholds.
    pub degrade: DegradeConfig,
    /// Accelerator path; `None` pins everything to the CPU pool.
    pub gpu: Option<GpuSchedConfig>,
    /// CPU platform model the placement calibration prices CPU costs on
    /// (a [`Platform::Cpu`]).
    pub cpu_platform: Platform,
    /// Batch sizes traced per model at calibration.
    pub calibration_batches: Vec<usize>,
    /// Hill-climbing tuner; `None` leaves caps and pool tiers fixed.
    pub tuner: Option<TunerConfig>,
    /// When set, every model's embedding tables register in one shared
    /// [`EmbeddingStore`] with this configuration — deduplicated
    /// parameters across models and workers, optional quantization,
    /// hot-row caching, and DRAM/SSD tiering. `None` keeps per-engine
    /// dense tables.
    pub store: Option<StoreConfig>,
    /// Record every executed batch's inputs and outputs for bit-identity
    /// replay (see [`crate::replay_records`]). Costs memory; benches and
    /// tests only.
    pub record_batches: bool,
}

impl SchedConfig {
    /// The calibration inputs start derives from this configuration:
    /// what [`ModelProfile::calibrate`] needs to reproduce a lane's
    /// profile outside the runtime.
    pub fn profile_config(&self) -> ProfileConfig {
        ProfileConfig {
            calibration_batches: self.calibration_batches.clone(),
            seed: self.seed ^ 0x5EED_CA11,
            cpu: self.cpu_platform.clone(),
            gpu: self.gpu.as_ref().map(|g| g.gpu),
            pcie_extra_s: self.gpu.as_ref().map_or(0.0, |g| g.pcie_extra_s),
            max_batch: self.max_batch,
        }
    }

    /// A small, fast configuration for tests: tiny models, 2 CPU
    /// workers, accelerator enabled, tuner on.
    pub fn tiny(models: Vec<ModelSlo>) -> Self {
        SchedConfig {
            models,
            scale: ModelScale::Tiny,
            seed: 7,
            cpu_workers: 2,
            max_batch: 16,
            max_wait: Duration::ZERO,
            queue_capacity: 1024,
            delay_budget: Duration::from_secs(60),
            degrade: DegradeConfig::default(),
            gpu: Some(GpuSchedConfig::default()),
            cpu_platform: Platform::broadwell(),
            calibration_batches: vec![1, 8],
            tuner: Some(TunerConfig::default()),
            store: None,
            record_batches: false,
        }
    }
}

/// One recorded batch execution, for offline bit-identity replay.
#[derive(Debug, Clone)]
pub struct BatchRecord {
    /// The model the batch belonged to.
    pub(crate) model: ModelId,
    /// Where it ran.
    pub(crate) backend: Backend,
    /// Per-request inputs, in batch order.
    pub(crate) inputs: Vec<Vec<Value>>,
    /// Per-request outputs the runtime returned, in batch order.
    pub(crate) outputs: Vec<Vec<Value>>,
}

/// Everything [`MultiServeRuntime::shutdown`] returns.
#[derive(Debug)]
pub struct SchedReport {
    /// Final pool-wide and per-model metrics.
    pub snapshot: MetricsSnapshot,
    /// Per-model routing decisions.
    pub decisions: Vec<DecisionSnapshot>,
    /// Recorded batches (empty unless [`SchedConfig::record_batches`]).
    pub records: Vec<BatchRecord>,
}

/// What co-location keeps per lane beside the pool's own lane state.
#[derive(Debug)]
struct ColoLane {
    model: ModelId,
    profile: ModelProfile,
    decisions: DecisionStats,
    pool_tier: AtomicUsize,
}

/// One coalesced batch bound for the accelerator.
#[derive(Debug)]
struct WorkItem {
    lane: usize,
    requests: Vec<Request>,
}

/// The accelerator path: its channel (`None` is the stop message) and
/// the gauge its backlog cap is enforced on.
#[derive(Debug)]
struct Accelerator {
    tx: mpsc::Sender<Option<WorkItem>>,
    backlog: AtomicUsize,
    backlog_capacity: usize,
    /// Metrics slot of the accelerator worker (past the CPU workers).
    worker: usize,
}

impl Accelerator {
    /// Enqueues `item`, or hands it back when the backlog is full or
    /// the accelerator worker is gone. Producers (overflow) and CPU
    /// workers (route) offer concurrently, so the slot is claimed in one
    /// read-modify-write: a check then an increment lets two offers both
    /// pass at `capacity - 1`.
    fn offer(&self, item: WorkItem) -> std::result::Result<(), WorkItem> {
        let cap = self.backlog_capacity;
        let claimed = self
            .backlog
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < cap).then_some(n + 1)
            });
        if claimed.is_err() {
            return Err(item);
        }
        self.tx.send(Some(item)).map_err(|mpsc::SendError(item)| {
            self.backlog.fetch_sub(1, Ordering::Relaxed);
            item.expect("only work items are offered")
        })
    }
}

/// The [`Placement`] hook: CPU/GPU routing and spill, the tuner's pool
/// tier, modelled-latency pricing, decision counters and batch records.
#[derive(Debug)]
struct Colocation {
    lanes: Vec<ColoLane>,
    pools: Vec<Arc<ParPool>>,
    accelerator: Option<Accelerator>,
    records: Option<Mutex<Vec<BatchRecord>>>,
    /// Set at teardown; the tuner watches it.
    shutting_down: AtomicBool,
}

impl Colocation {
    fn backend_of(&self, worker: usize) -> Backend {
        match &self.accelerator {
            Some(acc) if acc.worker == worker => Backend::Gpu,
            _ => Backend::Cpu,
        }
    }
}

impl Placement for Colocation {
    /// CPU queue over budget: spill to the accelerator backlog when one
    /// exists and has room.
    fn overflow(
        &self,
        lane_idx: usize,
        request: Request,
        err: ServeError,
    ) -> std::result::Result<(), ServeError> {
        let ServeError::Overloaded { depth, .. } = err else {
            return Err(err);
        };
        let lane = &self.lanes[lane_idx];
        let mut gpu_depth = 0;
        if let Some(acc) = &self.accelerator {
            gpu_depth = acc.backlog.load(Ordering::Relaxed);
            let item = WorkItem {
                lane: lane_idx,
                requests: vec![request],
            };
            if acc.offer(item).is_ok() {
                lane.decisions.record_spill();
                return Ok(());
            }
        }
        Err(ServeError::NoBackendAvailable {
            model: lane.model.name().to_string(),
            cpu_depth: depth,
            gpu_depth,
        })
    }

    /// Batches past the crossover go to the accelerator; the rest — and
    /// whatever it refuses — stay with the calling CPU worker.
    fn route(&self, lane_idx: usize, requests: Vec<Request>) -> Option<Vec<Request>> {
        let lane = &self.lanes[lane_idx];
        let batch = requests.len();
        let mut item = WorkItem {
            lane: lane_idx,
            requests,
        };
        if let (Backend::Gpu, Some(acc)) = (lane.profile.backend_for(batch), &self.accelerator) {
            // A saturated (or dead) device pushes work back onto the CPU
            // pool rather than queueing unboundedly.
            match acc.offer(item) {
                Ok(()) => {
                    lane.decisions.record(Backend::Gpu, batch);
                    return None;
                }
                Err(refused) => item = refused,
            }
        }
        lane.decisions.record(Backend::Cpu, batch);
        Some(item.requests)
    }

    /// Applies the tuner's intra-op width choice for this model.
    fn prepare(&self, lane: usize, engine: &mut Engine) {
        let tier = self.lanes[lane]
            .pool_tier
            .load(Ordering::Relaxed)
            .min(self.pools.len() - 1);
        if !Arc::ptr_eq(engine.pool(), &self.pools[tier]) {
            engine.set_pool(Arc::clone(&self.pools[tier]));
        }
    }

    /// Prices the batch on the backend it ran on and, when recording,
    /// keeps its inputs and outputs.
    fn executed(
        &self,
        worker: usize,
        lane: usize,
        requests: &[Request],
        exec: &mut BatchExecution,
    ) {
        let lane = &self.lanes[lane];
        let backend = self.backend_of(worker);
        exec.modelled_seconds = lane.profile.modelled_seconds(backend, requests.len());
        if let Some(records) = &self.records {
            records
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .push(BatchRecord {
                    model: lane.model,
                    backend,
                    inputs: requests.iter().map(|r| r.inputs.clone()).collect(),
                    outputs: exec.per_request_outputs.clone(),
                });
        }
    }
}

/// The running co-location scheduler.
#[derive(Debug)]
pub struct MultiServeRuntime {
    pool: LanePool,
    colo: Arc<Colocation>,
    /// The accelerator worker and the tuner.
    threads: Vec<JoinHandle<()>>,
}

impl MultiServeRuntime {
    /// Builds every model and calibrates its placement profile (see the
    /// module docs for the order), then starts the lane pool on those
    /// models, the accelerator worker, and the tuner.
    ///
    /// # Errors
    ///
    /// [`ServeError::WorkerFailed`] when a model fails to build,
    /// [`ServeError::SpawnFailed`] when a thread cannot be spawned.
    ///
    /// # Panics
    ///
    /// Panics on an empty or duplicate model list, zero workers, or a
    /// `cpu_platform` that is not a CPU.
    pub fn start(cfg: SchedConfig) -> Result<MultiServeRuntime> {
        assert!(!cfg.models.is_empty(), "need at least one model");
        for (i, m) in cfg.models.iter().enumerate() {
            assert!(
                !cfg.models[..i].iter().any(|other| other.id == m.id),
                "duplicate model {} in SchedConfig",
                m.id.name()
            );
        }

        let tuner_cfg = cfg.tuner.clone().unwrap_or_default();
        let pools: Vec<Arc<ParPool>> = if tuner_cfg.pool_widths.is_empty() {
            vec![ParPool::new(1)]
        } else {
            tuner_cfg
                .pool_widths
                .iter()
                .map(|&w| ParPool::new(w))
                .collect()
        };

        // One parameter store shared by every lane and worker: all
        // engines of one model dedupe to a single copy, and co-located
        // models share the tier budget and its counters.
        let store = cfg
            .store
            .clone()
            .map(|sc| Arc::new(EmbeddingStore::new(sc)));

        let profile_cfg = cfg.profile_config();
        // Built here in lane order, calibrated on the crew as they appear,
        // each on its thread's one simulator: each model is then the one
        // its lane's first engine serves.
        let build = |slo: &ModelSlo| match &store {
            Some(s) => slo.id.build_with_store(cfg.scale, cfg.seed, Arc::clone(s)),
            None => slo.id.build(cfg.scale, cfg.seed),
        };
        let sim = || profile_cfg.cpu_sim();
        let calibrated = crew(cfg.models.iter().map(build), sim, |sim, built| {
            built.map(|model| {
                let profile = ModelProfile::calibrate_on(&model, &profile_cfg, sim);
                (model, profile)
            })
        });
        let mut lanes = Vec::with_capacity(cfg.models.len());
        let mut specs = Vec::with_capacity(cfg.models.len());
        for (slo, calibrated) in cfg.models.iter().zip(calibrated) {
            let (model, profile) = calibrated.map_err(|e| ServeError::WorkerFailed {
                reason: format!("model build failed: {e}"),
            })?;
            specs.push(LaneSpec {
                built: model,
                curve: profile.cpu_curve.clone(),
            });
            lanes.push(ColoLane {
                model: slo.id,
                profile,
                decisions: DecisionStats::default(),
                pool_tier: AtomicUsize::new(0),
            });
        }

        let (gpu_tx, gpu_rx) = mpsc::channel();
        let colo = Arc::new(Colocation {
            lanes,
            pools,
            accelerator: cfg.gpu.as_ref().map(|gcfg| Accelerator {
                tx: gpu_tx,
                backlog: AtomicUsize::new(0),
                backlog_capacity: gcfg.backlog_capacity,
                worker: cfg.cpu_workers,
            }),
            records: cfg.record_batches.then(|| Mutex::new(Vec::new())),
            shutting_down: AtomicBool::new(false),
        });

        // The CPU pool: the serving core, one lane per model, each
        // priced by its calibrated CPU curve.
        let pool = LanePool::start(PoolConfig {
            lanes: specs,
            scale: cfg.scale,
            seed: cfg.seed,
            workers: cfg.cpu_workers,
            worker_name: "drec-sched-cpu",
            extra_workers: usize::from(colo.accelerator.is_some()),
            max_batch: cfg.max_batch,
            max_wait: cfg.max_wait,
            queue_capacity: cfg.queue_capacity,
            delay_budget: cfg.delay_budget,
            degrade: cfg.degrade,
            store,
            par_pool: Arc::clone(&colo.pools[0]),
            supervisor: SupervisorConfig::default(),
            faults: FaultHook::disabled(),
            placement: Arc::clone(&colo) as Arc<dyn Placement>,
        })?;

        // From here on an early return drops `runtime`, whose teardown
        // stops and joins whatever is already running.
        let mut runtime = MultiServeRuntime {
            pool,
            colo,
            threads: Vec::new(),
        };
        // The accelerator: one dedicated worker draining its own channel.
        if let Some(acc) = &runtime.colo.accelerator {
            let worker = runtime.pool.worker(acc.worker);
            let colo = Arc::clone(&runtime.colo);
            let body = move || accelerator_loop(worker, &gpu_rx, &colo);
            runtime.threads.push(spawn_thread("drec-sched-gpu", body)?);
        }
        if let Some(tcfg) = cfg.tuner {
            let (pool, colo) = (runtime.pool.handle(), Arc::clone(&runtime.colo));
            let slos: Vec<f64> = cfg.models.iter().map(|m| m.slo.as_secs_f64()).collect();
            let body = move || tuner_loop(&tcfg, &pool, &colo, &slos, cfg.max_batch);
            runtime
                .threads
                .push(spawn_thread("drec-sched-tuner", body)?);
        }
        Ok(runtime)
    }

    /// The shared embedding store all lanes resolve lookups through,
    /// when [`SchedConfig::store`] was set. Reporting code combines this
    /// with [`drec_models::store_namespace`] for per-model tier
    /// residency.
    pub fn store(&self) -> Option<&Arc<EmbeddingStore>> {
        self.pool.lanes[0].update.store()
    }

    /// The live-update mailbox of `model`, when co-located here. A
    /// rolling updater posts weight sets and embedding deltas through
    /// it; every engine replica of the lane polls it between batches.
    pub fn update_channel(&self, model: ModelId) -> Option<&Arc<ModelUpdateChannel>> {
        lane_of(&self.pool, model).map(|(_, lane)| &lane.update)
    }

    /// Every lane's live-update mailbox, in co-location order — the
    /// rolling-update chaos gate walks these one model at a time.
    pub fn update_channels(&self) -> Vec<Arc<ModelUpdateChannel>> {
        let lanes = self.pool.lanes.iter();
        lanes.map(|l| Arc::clone(&l.update)).collect()
    }

    /// A cloneable submission handle.
    pub fn handle(&self) -> MultiServeHandle {
        MultiServeHandle {
            pool: self.pool.handle(),
        }
    }

    /// Point-in-time metrics summary.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.pool.metrics.snapshot()
    }

    /// Point-in-time routing-decision summary, one entry per model.
    pub fn decisions(&self) -> Vec<DecisionSnapshot> {
        self.colo.lanes.iter().map(snapshot_decisions).collect()
    }

    /// The input contract of `model`, when co-located here.
    pub fn spec(&self, model: ModelId) -> Option<&InputSpec> {
        lane_of(&self.pool, model).map(|(_, lane)| &lane.spec)
    }

    /// The placement profile `model` was calibrated to at start, when
    /// co-located here.
    pub fn profile(&self, model: ModelId) -> Option<&ModelProfile> {
        let lane = self.colo.lanes.iter().find(|lane| lane.model == model);
        lane.map(|lane| &lane.profile)
    }

    /// Graceful shutdown: stop admission on every lane, drain all queued
    /// work through the pool, join every thread, and report final
    /// metrics, decisions, and (when recording) executed batches.
    pub fn shutdown(mut self) -> SchedReport {
        self.teardown();
        let records = self.colo.records.as_ref().map(|r| {
            std::mem::take(&mut *r.lock().unwrap_or_else(|poisoned| poisoned.into_inner()))
        });
        SchedReport {
            snapshot: self.snapshot(),
            decisions: self.decisions(),
            records: records.unwrap_or_default(),
        }
    }

    /// The pool's teardown with the accelerator in the middle: once the
    /// CPU workers have left nothing routes to it any more, so the stop
    /// message lands behind every real item; and only once it is gone
    /// can nothing requeue, which is when the final sweep may run.
    fn teardown(&mut self) {
        self.colo.shutting_down.store(true, Ordering::SeqCst);
        self.pool.join_workers();
        if let Some(acc) = &self.colo.accelerator {
            // The accelerator may already be gone (restart budget spent).
            let _ = acc.tx.send(None);
        }
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
        self.pool.drain_lanes();
    }
}

impl Drop for MultiServeRuntime {
    fn drop(&mut self) {
        // No-op when shutdown() already ran.
        self.teardown();
    }
}

/// `model`'s lane index and lane, when co-located in `pool`.
fn lane_of(pool: &LaneSet, model: ModelId) -> Option<(usize, &Lane)> {
    let mut lanes = pool.lanes.iter().enumerate();
    lanes.find(|(_, lane)| lane.model == model)
}

fn snapshot_decisions(lane: &ColoLane) -> DecisionSnapshot {
    let d = &lane.decisions;
    DecisionSnapshot {
        model: lane.model.name().to_string(),
        crossover: lane.profile.crossover,
        cpu_batches: d.cpu_batches.load(Ordering::Relaxed),
        cpu_queries: d.cpu_queries.load(Ordering::Relaxed),
        gpu_batches: d.gpu_batches.load(Ordering::Relaxed),
        gpu_queries: d.gpu_queries.load(Ordering::Relaxed),
        gpu_spills: d.gpu_spills.load(Ordering::Relaxed),
        cpu_size_hist: d
            .cpu_hist
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect(),
        gpu_size_hist: d
            .gpu_hist
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect(),
    }
}

fn spawn_thread(name: &str, body: impl FnOnce() + Send + 'static) -> Result<JoinHandle<()>> {
    std::thread::Builder::new()
        .name(name.to_string())
        .spawn(body)
        .map_err(|e| ServeError::SpawnFailed {
            reason: e.to_string(),
        })
}

/// Cloneable client handle: submit requests to any co-located model.
#[derive(Debug, Clone)]
pub struct MultiServeHandle {
    pool: Arc<LaneSet>,
}

impl MultiServeHandle {
    /// Validates and submits one sample for `model` with default
    /// options.
    ///
    /// # Errors
    ///
    /// See `MultiServeHandle::submit_with`.
    pub fn submit(&self, model: ModelId, inputs: Vec<Value>) -> Result<PendingResponse> {
        self.submit_with(model, inputs, SubmitOptions::default())
    }

    /// Validates and submits one sample for `model` with an explicit
    /// deadline budget and priority class.
    ///
    /// # Errors
    ///
    /// * [`ServeError::InvalidInput`] — model not co-located here, or
    ///   payload mismatch,
    /// * [`ServeError::NoBackendAvailable`] — the model's CPU queue is
    ///   over budget *and* the accelerator backlog (if any) is full,
    /// * [`ServeError::ShuttingDown`] — the runtime is draining.
    pub(crate) fn submit_with(
        &self,
        model: ModelId,
        inputs: Vec<Value>,
        opts: SubmitOptions,
    ) -> Result<PendingResponse> {
        let Some((lane, _)) = lane_of(&self.pool, model) else {
            self.pool.metrics.record_invalid();
            return Err(ServeError::InvalidInput {
                slot: usize::MAX,
                expected: "a co-located model".to_string(),
                got: model.name().to_string(),
            });
        };
        self.pool.submit(lane, inputs, opts)
    }

    /// The input contract of `model`, when co-located here.
    pub fn spec(&self, model: ModelId) -> Option<&InputSpec> {
        lane_of(&self.pool, model).map(|(_, lane)| &lane.spec)
    }
}

/// Accelerator worker body: drains its channel on its own engines until
/// the stop message. If a panic finds the restart budget spent it leaves
/// early, handing what is still queued back to the lanes; later offers
/// then fail and the CPU workers keep those batches.
fn accelerator_loop(mut worker: Worker, rx: &mpsc::Receiver<Option<WorkItem>>, colo: &Colocation) {
    let backlog = &colo.accelerator.as_ref().expect("accelerator path").backlog;
    while let Ok(Some(item)) = rx.recv() {
        let alive = worker.execute(item.lane, item.requests);
        backlog.fetch_sub(1, Ordering::Relaxed);
        if !alive {
            for item in rx.try_iter().flatten() {
                backlog.fetch_sub(1, Ordering::Relaxed);
                let pool = worker.pool();
                pool.retry_or_fail(item.lane, item.requests, "accelerator worker is gone");
            }
            return;
        }
    }
}

/// Tuner body: every interval, read each model's windowed p99 and walk
/// its hill-climber one step, applying cap changes to the model's queue
/// and width changes to its pool tier.
fn tuner_loop(
    cfg: &TunerConfig,
    pool: &LaneSet,
    colo: &Colocation,
    slos: &[f64],
    max_batch: usize,
) {
    let lanes = &pool.lanes;
    let mut tuners: Vec<ModelTuner> = slos
        .iter()
        .map(|&slo| ModelTuner::new(slo, max_batch))
        .collect();
    let mut baselines: Vec<Vec<u64>> = lanes
        .iter()
        .map(|lane| lane.channel.latency.bucket_counts())
        .collect();
    let interval = Duration::from_secs_f64(cfg.interval_s.max(1e-3));
    while !colo.shutting_down.load(Ordering::SeqCst) {
        std::thread::sleep(interval);
        for (i, (tuner, baseline)) in tuners.iter_mut().zip(&mut baselines).enumerate() {
            let latency = &lanes[i].channel.latency;
            let counts = latency.bucket_counts();
            let samples: u64 = counts
                .iter()
                .zip(baseline.iter())
                .map(|(now, prev)| now.saturating_sub(*prev))
                .sum();
            let p99 = latency.quantile_seconds_since(baseline, 0.99);
            *baseline = counts;
            match tuner.step(cfg, p99, samples) {
                TunerStep::Hold => {}
                TunerStep::BatchCap(cap) => lanes[i].queue.set_batch_cap(cap),
                TunerStep::PoolTier(tier) => {
                    colo.lanes[i].pool_tier.store(tier, Ordering::Relaxed);
                }
            }
        }
    }
}

/// Replays recorded batches against fresh single-model engines (same
/// scale and seed as the runtime that produced them) and verifies every
/// output is **bit-identical**: offload placement and co-location must
/// never change results, only where and when they were computed.
///
/// Returns the number of batches verified.
///
/// # Errors
///
/// A human-readable description of the first mismatch or build failure.
pub fn replay_records(
    scale: ModelScale,
    seed: u64,
    records: &[BatchRecord],
) -> std::result::Result<usize, String> {
    use std::collections::HashMap;
    let mut engines: HashMap<ModelId, Engine> = HashMap::new();
    for (i, record) in records.iter().enumerate() {
        let engine = match engines.entry(record.model) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(v) => {
                let model = record
                    .model
                    .build(scale, seed)
                    .map_err(|e| format!("replay build failed for {}: {e}", record.model.name()))?;
                let curve = drec_core::serving::LatencyCurve::from_points(vec![(1, 1e-6)]);
                v.insert(Engine::new(model, curve))
            }
        };
        let requests: Vec<Request> = record
            .inputs
            .iter()
            .enumerate()
            .map(|(j, inputs)| Request::new(j as u64, inputs.clone(), SubmitOptions::default()).0)
            .collect();
        let exec = engine
            .run_batch(&requests)
            .map_err(|e| format!("replay batch {i} failed: {e}"))?;
        if exec.per_request_outputs != record.outputs {
            return Err(format!(
                "batch {i} ({} on {}, {} requests): outputs differ from standalone engine",
                record.model.name(),
                record.backend,
                record.inputs.len(),
            ));
        }
    }
    Ok(records.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn concurrent_offers_never_overfill_the_backlog() {
        const THREADS: usize = 4;
        for round in 0..1_000 {
            // Nothing drains the channel: every accepted offer stays in
            // the backlog, so a capacity of 1 admits exactly one.
            let (tx, _rx) = mpsc::channel();
            let acc = Accelerator {
                tx,
                backlog: AtomicUsize::new(0),
                backlog_capacity: 1,
                worker: 0,
            };
            let barrier = Barrier::new(THREADS);
            let accepted: usize = std::thread::scope(|scope| {
                let offers: Vec<_> = (0..THREADS)
                    .map(|_| {
                        scope.spawn(|| {
                            barrier.wait();
                            let item = WorkItem {
                                lane: 0,
                                requests: Vec::new(),
                            };
                            usize::from(acc.offer(item).is_ok())
                        })
                    })
                    .collect();
                offers.into_iter().map(|t| t.join().unwrap()).sum()
            });
            assert_eq!(accepted, 1, "round {round}");
            assert_eq!(acc.backlog.load(Ordering::Relaxed), 1, "round {round}");
        }
    }
}
