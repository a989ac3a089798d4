//! Co-location as a placement: [`Colocation::calibrate`] builds and
//! calibrates every model and returns the [`Placement`] and the
//! [`PoolConfig`] that [`ServeRuntime::start_pool`] serves them with.
//!
//! ```text
//!                      ┌─ lane NCF  ─┐   poll any batch   ┌─ CPU worker 0..W
//!  ServeHandle ───────▶│  lane RM1   │◀───────────────────┤
//!   (one per lane)     │  …          │◀───────────────────┤
//!                      └─ lane DIEN ─┘  poll batches ≥ b* └─ accelerator worker W
//! ```
//!
//! Lanes, admission, the worker loop, retry, recovery and teardown
//! belong to [`ServeRuntime`]; this module owns no thread. Every lane
//! runs on one width-1 intra-op pool, since the lanes already share the
//! workers. The returned [`PoolConfig`] has the default supervisor and
//! no faults; a caller that wants others sets them before starting it.
//! The shared store has no fault hook (calibration reads through it):
//! [`ServeRuntime::start_pool`] refuses a plan with store read faults.
//!
//! With an accelerator configured, the pool has one worker more than
//! [`SchedConfig::cpu_workers`]: the accelerator. It takes a batch from a
//! lane only at or past that lane's CPU/GPU crossover `b*` (from the
//! model's calibrated [`ModelProfile`]), and never from a lane with no
//! crossover; CPU workers take any batch. It executes batches
//! *functionally* (same kernels, so results stay bit-identical) while
//! their latency is *modelled* by the roofline dispatch oracle.
//!
//! Calibration builds each model once, on the calling thread in lane
//! order (so the shared store gives every table the slot it always had),
//! and hands each to the start crew, which calibrates the profiles on one
//! simulator per thread — a profile depends only on the model's
//! parameters and the calibration seed, so this is the serial result.
//! The calibrated model travels to the pool in its [`LaneSpec`]; every
//! other engine of the lane, the accelerator's included, is a view of it.
//!
//! [`MultiServeRuntime`] and [`MultiServeHandle`] are that runtime and
//! its handles addressed by model.

use std::convert::Infallible;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use drec_hwsim::{GpuModel, Platform};
use drec_models::{InputSpec, ModelId, ModelScale};
use drec_ops::Value;
use drec_par::ParPool;
use drec_serve::{
    BatchExecution, DegradeConfig, EmbeddingStore, FaultHook, LaneSpec, MetricsSnapshot,
    ModelUpdateChannel, PendingResponse, Placement, PoolConfig, Result, ServeError, ServeHandle,
    ServeRuntime, StoreConfig, SupervisorConfig,
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

/// Lock-free per-model counters of the batches each backend ran,
/// indexed by `Backend as usize`: a batch is one query-count add and one
/// size-bucket bump, and a backend's batch count is its histogram's total.
#[derive(Debug, Default)]
struct DecisionStats {
    queries: [AtomicU64; 2],
    hist: [[AtomicU64; DECISION_BUCKETS]; 2],
}

fn size_bucket(batch: usize) -> usize {
    ((usize::BITS - 1 - batch.max(1).leading_zeros()) as usize).min(DECISION_BUCKETS - 1)
}

impl DecisionStats {
    fn record(&self, backend: Backend, batch: usize) {
        let b = backend as usize;
        self.queries[b].fetch_add(batch as u64, Ordering::Relaxed);
        self.hist[b][size_bucket(batch)].fetch_add(1, Ordering::Relaxed);
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

/// Configuration for [`Colocation::calibrate`] and [`MultiServeRuntime::start`].
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

/// The [`Placement`] hook of co-located lanes: the accelerator worker's
/// size rule, its pricing, and the per-backend batch counters.
#[derive(Debug)]
pub struct Colocation {
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

impl Colocation {
    /// Builds every model of `cfg` and calibrates its placement profile
    /// (see the module docs for the order). Returns the placement and the
    /// pool to start on it: one lane per model in `cfg` order, each
    /// priced by its calibrated CPU curve, `cfg.cpu_workers` CPU workers
    /// and the accelerator, when configured, as the last worker, one
    /// width-1 intra-op pool, the default supervisor and no faults. A
    /// model's [`ModelSlo::slo`] is not read.
    ///
    /// # Errors
    ///
    /// [`ServeError::WorkerFailed`] when a model fails to build.
    ///
    /// # Panics
    ///
    /// Panics on an empty or duplicate model list or zero CPU workers.
    pub fn calibrate(cfg: &SchedConfig) -> Result<(Arc<Colocation>, PoolConfig)> {
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
        let pool = PoolConfig {
            lanes: specs,
            workers: cfg.cpu_workers + usize::from(cfg.gpu.is_some()),
            worker_name: "drec-sched-cpu",
            max_batch: cfg.max_batch,
            max_wait: cfg.max_wait,
            queue_capacity: cfg.queue_capacity,
            delay_budget: cfg.delay_budget,
            degrade: cfg.degrade,
            // Width 1: co-located lanes share the CPU workers, so one
            // batch does not fan out over them too.
            par_pool: ParPool::new(1),
            supervisor: SupervisorConfig::default(),
            faults: FaultHook::disabled(),
            placement: Arc::clone(&colo) as Arc<dyn Placement>,
        };
        Ok((colo, pool))
    }

    /// Point-in-time batches by backend, one entry per model.
    pub fn decisions(&self) -> Vec<DecisionSnapshot> {
        self.lanes.iter().map(ColoLane::decisions).collect()
    }

    /// The placement profile `model` was calibrated to, when co-located.
    pub fn profile(&self, model: ModelId) -> Option<&ModelProfile> {
        let lane = self.lanes.iter().find(|lane| lane.model == model);
        lane.map(|lane| &lane.profile)
    }
}

impl ColoLane {
    fn decisions(&self) -> DecisionSnapshot {
        let d = &self.decisions;
        let queries = |b: Backend| d.queries[b as usize].load(Ordering::Relaxed);
        let hist = |b: Backend| -> Vec<u64> {
            let buckets = &d.hist[b as usize];
            buckets.iter().map(|n| n.load(Ordering::Relaxed)).collect()
        };
        let (cpu_size_hist, gpu_size_hist) = (hist(Backend::Cpu), hist(Backend::Gpu));
        DecisionSnapshot {
            model: self.model.name().to_string(),
            crossover: self.profile.crossover,
            cpu_batches: cpu_size_hist.iter().sum(),
            cpu_queries: queries(Backend::Cpu),
            gpu_batches: gpu_size_hist.iter().sum(),
            gpu_queries: queries(Backend::Gpu),
            cpu_size_hist,
            gpu_size_hist,
        }
    }
}

/// The lane of `model` among `handles`, when one serves it.
fn by_model(handles: &[ServeHandle], model: ModelId) -> Option<&ServeHandle> {
    handles.iter().find(|h| h.model() == model)
}

/// The running co-location scheduler: the one runtime on a
/// [`Colocation`] placement, addressed by model. Dropping it tears the
/// runtime down as [`MultiServeRuntime::shutdown`] does.
#[derive(Debug)]
pub struct MultiServeRuntime {
    runtime: ServeRuntime,
    colo: Arc<Colocation>,
}

impl MultiServeRuntime {
    /// [`Colocation::calibrate`], then [`ServeRuntime::start_pool`] on
    /// the pool it returns: errors and panics are theirs.
    ///
    /// # Errors
    ///
    /// As [`Colocation::calibrate`] and [`ServeRuntime::start_pool`].
    pub fn start(cfg: SchedConfig) -> Result<MultiServeRuntime> {
        let (colo, pool) = Colocation::calibrate(&cfg)?;
        let runtime = ServeRuntime::start_pool(pool)?;
        Ok(MultiServeRuntime { runtime, colo })
    }

    /// The shared embedding store all lanes resolve lookups through,
    /// when [`SchedConfig::store`] was set.
    pub fn store(&self) -> Option<&Arc<EmbeddingStore>> {
        self.runtime.update_channel().store()
    }

    /// The live-update mailbox of `model`, when co-located here.
    pub fn update_channel(&self, model: ModelId) -> Option<&Arc<ModelUpdateChannel>> {
        by_model(self.runtime.handles(), model).map(ServeHandle::update_channel)
    }

    /// A cloneable submission handle.
    pub fn handle(&self) -> MultiServeHandle {
        MultiServeHandle {
            lanes: self.runtime.handles().to_vec(),
        }
    }

    /// Point-in-time metrics summary.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.runtime.snapshot()
    }

    /// Point-in-time batches by backend, one entry per model.
    pub fn decisions(&self) -> Vec<DecisionSnapshot> {
        self.colo.decisions()
    }

    /// The input contract of `model`, when co-located here.
    pub fn spec(&self, model: ModelId) -> Option<&InputSpec> {
        by_model(self.runtime.handles(), model).map(ServeHandle::spec)
    }

    /// The placement profile `model` was calibrated to at start, when
    /// co-located here.
    pub fn profile(&self, model: ModelId) -> Option<&ModelProfile> {
        self.colo.profile(model)
    }

    /// Graceful shutdown: the runtime's, then the final decisions.
    pub fn shutdown(self) -> SchedReport {
        SchedReport {
            snapshot: self.runtime.shutdown(),
            decisions: self.colo.decisions(),
        }
    }
}

/// Cloneable client handle: submit requests to any co-located model.
#[derive(Debug, Clone)]
pub struct MultiServeHandle {
    /// One per lane, in lane order.
    lanes: Vec<ServeHandle>,
}

impl MultiServeHandle {
    /// Validates and submits one sample for `model` with default
    /// options.
    ///
    /// # Errors
    ///
    /// * [`ServeError::InvalidInput`] — model not co-located here, or
    ///   payload mismatch,
    /// * [`ServeError::Overloaded`] — the model's queue is over budget,
    /// * [`ServeError::ShuttingDown`] — the runtime is draining.
    pub fn submit(&self, model: ModelId, inputs: Vec<Value>) -> Result<PendingResponse> {
        match by_model(&self.lanes, model) {
            Some(lane) => lane.submit(inputs),
            None => Err(self.lanes[0].reject_unknown(model)),
        }
    }

    /// The input contract of `model`, when co-located here.
    pub fn spec(&self, model: ModelId) -> Option<&InputSpec> {
        by_model(&self.lanes, model).map(ServeHandle::spec)
    }
}
