//! The multi-model co-location runtime: what co-location adds to the
//! serving core.
//!
//! ```text
//!                      ┌─ lane NCF  ─┐   poll any batch   ┌─ CPU worker 0..W   (drec_serve::LanePool:
//!  MultiServeHandle ──▶│  lane RM1   │◀───────────────────┤   admission, worker loop, retry,
//!   (model → lane)     │  …          │◀───────────────────┤   recovery, teardown)
//!        │             └─ lane DIEN ─┘  poll batches ≥ b* └─ accelerator worker W (functional
//!        │ lane over budget             of lanes with a b*    execution, roofline-modelled latency)
//!        ▼
//!   shed Overloaded
//! ```
//!
//! Lanes, admission, the worker loop, retry, self-supervised recovery
//! and teardown all belong to [`drec_serve::LanePool`] — the same core
//! the single-model `ServeRuntime` runs with one lane. This module
//! supplies the [`Placement`] hook and owns no thread: every thread of a
//! co-located runtime is the pool's. It adds no intra-op parallelism of
//! its own either — every lane runs on one width-1 pool, since the lanes
//! already share the workers.
//!
//! Each lane has one queue. With an accelerator configured, the pool has
//! one worker more than [`SchedConfig::cpu_workers`]: the accelerator,
//! which runs the same loop as the CPU workers under one size rule from
//! the model's calibrated [`ModelProfile`]. It takes a batch from a lane
//! only when the batch reaches that lane's CPU/GPU crossover `b*`, and
//! never from a lane with no crossover; CPU workers take any batch. So a
//! deep queue makes large batches, the accelerator drains them, and an
//! arrival past the lane's budget is shed `Overloaded`, as in
//! `ServeRuntime`.
//!
//! The accelerator worker executes batches *functionally* (same kernels,
//! same arithmetic — results stay bit-identical to a single-model
//! engine) while its latency is *modelled* by the roofline dispatch
//! oracle, the same two-clock discipline `drec-serve` uses for CPU
//! workers.
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

use std::convert::Infallible;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use drec_hwsim::{GpuModel, Platform};
use drec_models::{InputSpec, ModelId, ModelScale};
use drec_ops::Value;
use drec_par::ParPool;
use drec_serve::{
    BatchExecution, DegradeConfig, EmbeddingStore, FaultHook, Lane, LanePool, LaneSet, LaneSpec,
    MetricsSnapshot, ModelUpdateChannel, PendingResponse, Placement, PoolConfig, Result,
    ServeError, StoreConfig, SubmitOptions, SupervisorConfig,
};

use crate::crew::crew;
use crate::profile::{ModelProfile, ProfileConfig};

/// Which backend a batch executed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// The shared CPU worker pool (real execution on this machine).
    Cpu,
    /// The simulated accelerator: functional execution on the
    /// accelerator worker, latency modelled by the roofline dispatch
    /// oracle.
    Gpu,
}

/// Number of power-of-two batch-size buckets in decision histograms
/// (bucket `i` covers batches `[2^i, 2^(i+1))`).
const DECISION_BUCKETS: usize = 16;

/// Lock-free per-model counters of the batches each backend ran.
#[derive(Debug, Default)]
struct DecisionStats {
    cpu_batches: AtomicU64,
    cpu_queries: AtomicU64,
    gpu_batches: AtomicU64,
    gpu_queries: AtomicU64,
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
}

/// Point-in-time copy of the batches each backend ran for one model.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionSnapshot {
    /// Model name.
    pub model: String,
    /// The model's calibrated CPU/GPU crossover batch (`None`: CPU
    /// always wins, or offload disabled).
    pub crossover: Option<usize>,
    /// Batches the CPU workers ran.
    pub cpu_batches: u64,
    /// Queries inside those batches.
    pub cpu_queries: u64,
    /// Batches the accelerator worker ran: each at least `crossover`
    /// while a CPU worker is alive (the pool's last worker takes any).
    pub gpu_batches: u64,
    /// Queries inside those batches.
    pub(crate) gpu_queries: u64,
    /// Power-of-two batch-size histogram of CPU batches (bucket `i`
    /// counts batches in `[2^i, 2^(i+1))`).
    pub cpu_size_hist: Vec<u64>,
    /// Same histogram for accelerator batches.
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
    /// The p99 end-to-end latency target the caller holds the lane to.
    /// The runtime does not act on it: the overload ladder's
    /// `ReducedBatch` rung, driven by queue depth, is the one rule that
    /// shrinks a batch.
    pub slo: Duration,
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
}

impl Default for GpuSchedConfig {
    fn default() -> Self {
        GpuSchedConfig {
            gpu: GpuModel::t4(),
            pcie_extra_s: 20e-6,
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
    /// CPU worker threads shared by all models (the accelerator, when
    /// configured, is one worker more).
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
    /// The accelerator worker; `None` pins everything to the CPU workers.
    pub gpu: Option<GpuSchedConfig>,
    /// Always `None`: there is no batch-size tuner. Kept while
    /// `perf_bench` still writes `tuner: None`.
    pub tuner: Option<Infallible>,
    /// When set, every model's embedding tables register in one shared
    /// [`EmbeddingStore`] with this configuration — deduplicated
    /// parameters across models and workers, optional quantization,
    /// hot-row caching, and DRAM/SSD tiering. `None` keeps per-engine
    /// dense tables.
    pub store: Option<StoreConfig>,
}

impl SchedConfig {
    /// The calibration inputs start derives from this configuration:
    /// what [`ModelProfile::calibrate`] needs to reproduce a lane's
    /// profile outside the runtime. Every lane is traced at batches 1 and
    /// 8 and priced on Broadwell.
    pub fn profile_config(&self) -> ProfileConfig {
        ProfileConfig {
            calibration_batches: vec![1, 8],
            seed: self.seed ^ 0x5EED_CA11,
            cpu: Platform::broadwell(),
            gpu: self.gpu.as_ref().map(|g| g.gpu),
            pcie_extra_s: self.gpu.as_ref().map_or(0.0, |g| g.pcie_extra_s),
            max_batch: self.max_batch,
        }
    }

    /// A small, fast configuration for tests: tiny models, 2 CPU
    /// workers, accelerator enabled.
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
            tuner: None,
            store: None,
        }
    }
}

/// Everything [`MultiServeRuntime::shutdown`] returns.
#[derive(Debug)]
pub struct SchedReport {
    /// Final pool-wide and per-model metrics.
    pub snapshot: MetricsSnapshot,
    /// Per-model batches by backend.
    pub decisions: Vec<DecisionSnapshot>,
}

/// What co-location keeps per lane beside the pool's own lane state.
#[derive(Debug)]
struct ColoLane {
    model: ModelId,
    profile: ModelProfile,
    decisions: DecisionStats,
}

/// The [`Placement`] hook: the accelerator worker's size rule, its
/// pricing, and the per-backend batch counters.
#[derive(Debug)]
struct Colocation {
    lanes: Vec<ColoLane>,
    /// The accelerator's worker index (past the CPU workers).
    accelerator: Option<usize>,
}

impl Placement for Colocation {
    /// CPU workers take any batch; the accelerator only batches at or
    /// past the lane's crossover, and none from a lane without one.
    fn min_batch(&self, worker: usize, lane: usize) -> usize {
        if self.accelerator == Some(worker) {
            self.lanes[lane].profile.crossover.unwrap_or(usize::MAX)
        } else {
            1
        }
    }

    /// Counts the batch under its backend and prices an accelerator
    /// batch on the GPU dispatch oracle; a CPU batch keeps the engine's
    /// price, its curve being the profile's CPU curve.
    fn executed(&self, worker: usize, lane: usize, batch: usize, exec: &mut BatchExecution) {
        let lane = &self.lanes[lane];
        if self.accelerator == Some(worker) {
            exec.modelled_seconds = lane.profile.modelled_seconds(Backend::Gpu, batch);
            lane.decisions.record(Backend::Gpu, batch);
        } else {
            lane.decisions.record(Backend::Cpu, batch);
        }
    }
}

/// The running co-location scheduler. Dropping it without calling
/// [`MultiServeRuntime::shutdown`] still drains accepted work and joins
/// the workers (the pool's own teardown).
#[derive(Debug)]
pub struct MultiServeRuntime {
    pool: LanePool,
    colo: Arc<Colocation>,
}

impl MultiServeRuntime {
    /// Builds every model and calibrates its placement profile (see the
    /// module docs for the order), then starts the lane pool on those
    /// models (the accelerator is its last worker). A model's
    /// [`ModelSlo::slo`] is not read.
    ///
    /// # Errors
    ///
    /// [`ServeError::WorkerFailed`] when a model fails to build,
    /// [`ServeError::SpawnFailed`] when a thread cannot be spawned.
    ///
    /// # Panics
    ///
    /// Panics on an empty or duplicate model list or zero CPU workers.
    pub fn start(cfg: SchedConfig) -> Result<MultiServeRuntime> {
        assert!(!cfg.models.is_empty(), "need at least one model");
        assert!(cfg.cpu_workers >= 1, "need at least one CPU worker");
        for (i, m) in cfg.models.iter().enumerate() {
            assert!(
                !cfg.models[..i].iter().any(|other| other.id == m.id),
                "duplicate model {} in SchedConfig",
                m.id.name()
            );
        }

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
            });
        }

        let colo = Arc::new(Colocation {
            lanes,
            accelerator: cfg.gpu.as_ref().map(|_| cfg.cpu_workers),
        });

        // The serving core: one lane per model, each priced by its
        // calibrated CPU curve, and the accelerator as one more worker.
        let pool = LanePool::start(PoolConfig {
            lanes: specs,
            scale: cfg.scale,
            seed: cfg.seed,
            workers: cfg.cpu_workers + usize::from(cfg.gpu.is_some()),
            worker_name: "drec-sched-cpu",
            max_batch: cfg.max_batch,
            max_wait: cfg.max_wait,
            queue_capacity: cfg.queue_capacity,
            delay_budget: cfg.delay_budget,
            degrade: cfg.degrade,
            store,
            // Width 1: co-located lanes share the CPU workers, so one
            // batch does not fan out over them too.
            par_pool: ParPool::new(1),
            supervisor: SupervisorConfig::default(),
            faults: FaultHook::disabled(),
            placement: Arc::clone(&colo) as Arc<dyn Placement>,
        })?;
        Ok(MultiServeRuntime { pool, colo })
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
        self.pool.snapshot()
    }

    /// Point-in-time batches by backend, one entry per model.
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
    /// metrics and decisions.
    pub fn shutdown(mut self) -> SchedReport {
        self.pool.join_workers();
        self.pool.drain_lanes();
        SchedReport {
            snapshot: self.snapshot(),
            decisions: self.decisions(),
        }
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
    /// * [`ServeError::Overloaded`] — the model's queue is over budget,
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
