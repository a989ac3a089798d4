//! The per-worker inference engine: owns a compiled model plus the
//! platform latency curve, executes coalesced batches, and prices each
//! one on the curve. It reads no clock: the worker that calls it times
//! the batch.

use std::sync::Arc;

use drec_core::serving::LatencyCurve;
use drec_faultsim::{BatchFault, FaultHook};
use drec_models::{InputSpec, RecModel};
use drec_ops::Value;
use drec_par::ParPool;
use drec_store::EmbeddingStore;

use crate::error::{Result, ServeError};
use crate::request::{coalesce_inputs, split_outputs, Request};
use crate::update::ModelUpdateChannel;

/// Per-engine live-update state: the channel, this engine's reader slot
/// in it, and the weight version currently installed in the model.
#[derive(Debug)]
struct UpdateState {
    channel: Arc<ModelUpdateChannel>,
    reader: usize,
    weight_version: u64,
}

impl Drop for UpdateState {
    fn drop(&mut self) {
        // A dying engine (worker panic → supervisor replacement) must
        // not pin the channel's min-installed version forever.
        self.channel.retire_reader(self.reader);
    }
}

/// Outputs and modelled time of one executed batch.
#[derive(Debug)]
pub struct BatchExecution {
    /// Per-request output rows, in the batch's request order.
    pub per_request_outputs: Vec<Vec<Value>>,
    /// Modelled per-platform execution time from the latency curve,
    /// seconds.
    pub modelled_seconds: f64,
}

/// One worker's engine: a functionally-executing model and the modelled
/// latency curve for the platform being emulated.
#[derive(Debug)]
pub struct Engine {
    model: RecModel,
    curve: LatencyCurve,
    pool: Arc<ParPool>,
    store: Option<Arc<EmbeddingStore>>,
    faults: FaultHook,
    update: Option<UpdateState>,
}

impl Engine {
    /// Wraps a built model and its platform latency curve. Batches run on
    /// the [`drec_par::current`] pool at construction time (the process
    /// pool unless the caller has an override installed).
    pub fn new(model: RecModel, curve: LatencyCurve) -> Self {
        Self::with_pool(model, curve, drec_par::current())
    }

    /// Like [`Engine::new`] but pinning batch execution to an explicit
    /// pool — how the serving runtime shares one intra-op pool across all
    /// worker engines.
    pub fn with_pool(model: RecModel, curve: LatencyCurve, pool: Arc<ParPool>) -> Self {
        Self::with_store(model, curve, pool, None)
    }

    /// Like [`Engine::with_pool`], additionally holding a reference to
    /// the shared [`EmbeddingStore`] the model was built against (if
    /// any), so callers can reach its stats from the engine.
    ///
    /// Construction compiles the model's execution plan (operator
    /// fusion and wave scheduling) once; every batch then reuses the
    /// plan and its scratch buffers instead of re-running liveness
    /// analysis per request.
    pub fn with_store(
        mut model: RecModel,
        curve: LatencyCurve,
        pool: Arc<ParPool>,
        store: Option<Arc<EmbeddingStore>>,
    ) -> Self {
        model.compile_plan();
        Engine {
            model,
            curve,
            pool,
            store,
            faults: FaultHook::disabled(),
            update: None,
        }
    }

    /// Subscribes this engine to a live-update channel: it registers as
    /// a weight reader, offers its FC parameter handles as the channel's
    /// restore baseline, and from the next batch on polls the mailbox at
    /// batch boundaries (so weight swaps land between batches, never
    /// mid-inference) and reports per-batch staleness.
    ///
    /// The engine then computes from the baseline the channel holds: a
    /// replica (a lane's second worker, an extra backend's engine, a
    /// rebuild after a panic) installs the first engine's handles and its
    /// own identical draw drops, so the lane keeps one FC set at rest.
    pub fn set_update_channel(&mut self, channel: Arc<ModelUpdateChannel>) {
        let reader = channel.register_reader();
        let baseline = channel.offer_baseline(|| self.model.fc_params());
        debug_assert_eq!(
            *baseline,
            self.model.fc_params(),
            "engines of one channel are built bit-identical"
        );
        // Only an engine of some other model could be refused here; it
        // keeps the set it was built with.
        let shared = self.model.install_fc_params(&baseline);
        debug_assert!(shared.is_ok(), "{shared:?}");
        self.update = Some(UpdateState {
            channel,
            reader,
            weight_version: 0,
        });
    }

    /// The live-update channel this engine polls, if subscribed.
    pub fn update_channel(&self) -> Option<&Arc<ModelUpdateChannel>> {
        self.update.as_ref().map(|u| &u.channel)
    }

    /// The weight version currently installed in this engine's model.
    pub fn weight_version(&self) -> u64 {
        self.update.as_ref().map_or(0, |u| u.weight_version)
    }

    /// Polls the update mailbox and installs a newer weight set if one
    /// is posted. Runs at batch boundaries.
    fn poll_updates(&mut self) -> Result<()> {
        let state = match &mut self.update {
            Some(s) => s,
            None => return Ok(()),
        };
        if let Some(ws) = state.channel.poll_weights(state.weight_version) {
            self.model
                .install_fc_params(&ws.layers)
                .map_err(|e| ServeError::WorkerFailed {
                    reason: format!("weight-set install for v{}: {e}", ws.version),
                })?;
            state.weight_version = ws.version;
            state.channel.note_install(state.reader, ws.version);
        }
        Ok(())
    }

    /// Installs a fault-injection hook on this engine's batch path.
    /// Disabled hooks cost one branch per batch; see [`drec_faultsim`].
    pub fn set_fault_hook(&mut self, faults: FaultHook) {
        self.faults = faults;
    }

    /// The shared embedding store this engine's model resolves lookups
    /// through, when store-backed.
    pub fn store(&self) -> Option<&Arc<EmbeddingStore>> {
        self.store.as_ref()
    }

    /// The model's input contract.
    pub fn spec(&self) -> &InputSpec {
        self.model.spec()
    }

    /// Store-backed sparse-lookup bindings of the served model (empty
    /// for dense builds) — what the stream prefetcher needs.
    pub fn store_bindings(&self) -> Vec<drec_models::StoreBinding> {
        self.model.store_bindings()
    }

    /// The latency curve used for modelled timings.
    pub fn curve(&self) -> &LatencyCurve {
        &self.curve
    }

    /// The intra-op pool batches execute on.
    pub fn pool(&self) -> &Arc<ParPool> {
        &self.pool
    }

    /// Repoints batch execution at a different intra-op pool — the knob
    /// a scheduler's tuner turns to adjust one model's intra-op
    /// parallelism while traffic flows. Takes effect on the next batch.
    pub fn set_pool(&mut self, pool: Arc<ParPool>) {
        self.pool = pool;
    }

    /// Compile stats of the model's cached execution plan (always present
    /// — construction compiles it).
    pub fn plan_stats(&self) -> Option<&drec_graph::PlanStats> {
        self.model.plan_stats()
    }

    /// Coalesces `requests` into one batch, runs it through the model,
    /// and splits the outputs back per request.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::WorkerFailed`] when graph execution fails;
    /// the caller is responsible for fanning the error out to every
    /// request in the batch.
    ///
    /// # Panics
    ///
    /// Panics when an installed fault hook schedules a panic for this
    /// batch — the worker's `catch_unwind` isolation is the intended
    /// recovery path.
    pub fn run_batch(&mut self, requests: &[Request]) -> Result<BatchExecution> {
        let batch = requests.len();
        self.poll_updates()?;
        // Pin the store's reclamation epoch for the whole batch: one
        // fetch_add per batch (not per row) keeps the read-path overhead
        // inside the perf gate, and guarantees no row this batch reads
        // is retired out from under it by a concurrent update publish.
        let _epoch = self.store.as_ref().map(|s| s.pin_epoch());
        // The embedding snapshot this batch serves from: captured before
        // execution so a publish landing mid-batch counts as staleness 1
        // (the allowed bound), never more.
        let embed_version = match (&self.update, &self.store) {
            (Some(state), Some(store)) => Some(store.namespace_version(state.channel.namespace())),
            _ => None,
        };
        let mut inputs = coalesce_inputs(self.model.spec(), requests);
        match self.faults.on_batch() {
            BatchFault::None => {}
            BatchFault::Panic { batch } => {
                panic!("faultsim: injected panic on batch {batch}")
            }
            BatchFault::Corrupt { .. } => {
                // Malform the coalesced tensor set: dropping one input
                // makes the executor reject the batch with a typed
                // input-count error, modelling a corrupted request batch
                // that fails *cleanly* rather than crashing the worker.
                inputs.pop();
            }
        }
        let outputs = drec_par::with_pool(&self.pool, || self.model.run(inputs)).map_err(|e| {
            ServeError::WorkerFailed {
                reason: e.to_string(),
            }
        })?;
        if let Some(state) = &self.update {
            let weights = state.weight_version;
            let served = embed_version.map_or(weights, |rows| rows.min(weights));
            state.channel.record_staleness(served);
        }
        Ok(BatchExecution {
            per_request_outputs: split_outputs(&outputs, batch),
            modelled_seconds: self.curve.eval(batch),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drec_models::{ModelId, ModelScale};
    use drec_workload::QueryGen;
    use std::sync::mpsc;
    use std::time::Instant;

    fn engine() -> Engine {
        let model = ModelId::Ncf.build(ModelScale::Tiny, 1).unwrap();
        let curve = LatencyCurve::from_points(vec![(1, 1e-3), (64, 8e-3)]);
        Engine::new(model, curve)
    }

    fn requests(n: usize, spec: &InputSpec) -> Vec<Request> {
        (0..n)
            .map(|i| {
                let (tx, _rx) = mpsc::channel();
                Request {
                    id: i as u64,
                    inputs: QueryGen::uniform(i as u64).batch(spec, 1),
                    submitted_at: Instant::now(),
                    deadline: None,
                    priority: crate::request::Priority::default(),
                    attempts: 0,
                    reply: tx,
                }
            })
            .collect()
    }

    #[test]
    fn run_batch_reports_modelled_time() {
        let mut e = engine();
        let reqs = requests(4, &e.spec().clone());
        let exec = e.run_batch(&reqs).unwrap();
        assert_eq!(exec.per_request_outputs.len(), 4);
        // Modelled time comes from the curve: batch 4 interpolates
        // between the knots at 1 and 64.
        assert!(exec.modelled_seconds > 1e-3 && exec.modelled_seconds < 8e-3);
    }

    #[test]
    fn corrupt_fault_surfaces_as_typed_error_not_panic() {
        let mut e = engine();
        let plan = drec_faultsim::FaultPlan {
            corrupt_every_n_batches: Some(1),
            ..drec_faultsim::FaultPlan::quiet(11)
        };
        e.set_fault_hook(FaultHook::from_plan(&plan));
        let reqs = requests(2, &e.spec().clone());
        let err = e.run_batch(&reqs).unwrap_err();
        assert!(matches!(err, ServeError::WorkerFailed { .. }), "{err}");
    }

    #[test]
    fn panic_fault_fires_on_schedule() {
        let plan = drec_faultsim::FaultPlan {
            panic_every_n_batches: Some(1),
            ..drec_faultsim::FaultPlan::quiet(11)
        };
        let mut e = engine();
        e.set_fault_hook(FaultHook::from_plan(&plan));
        let reqs = requests(1, &e.spec().clone());
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = e.run_batch(&reqs);
        }));
        assert!(caught.is_err(), "injected panic should unwind");
    }

    #[test]
    fn engines_of_one_channel_share_every_installed_set() {
        use crate::update::{FcLayers, WeightSet};
        use drec_ops::FcParams;
        use drec_tensor::Tensor;

        fn holds(engine: &Engine, set: &FcLayers) -> bool {
            let installed = engine.model.fc_params();
            installed.len() == set.len()
                && installed.iter().zip(set).all(|(a, b)| Arc::ptr_eq(a, b))
        }
        let channel = Arc::new(ModelUpdateChannel::new("ncf", 1, None));
        let (mut first, mut replica) = (engine(), engine());
        let built_with = first.model.fc_params();
        first.set_update_channel(Arc::clone(&channel));
        replica.set_update_channel(Arc::clone(&channel));
        let baseline = channel.baseline().expect("the first engine offered one");
        assert!(holds(&first, &built_with), "the baseline is what it had");
        assert!(holds(&first, &baseline) && holds(&replica, &baseline));

        let post = |version, layers| channel.post_weights(Arc::new(WeightSet { version, layers }));
        let scaled = |p: &Arc<FcParams>| {
            Arc::new(FcParams {
                weights: p.weights.map(|v| v * 1.5),
                bias: p.bias.clone(),
            })
        };
        let perturbed: FcLayers = baseline.iter().map(scaled).collect();
        post(1, perturbed.clone());
        first.poll_updates().unwrap();
        assert!(holds(&first, &perturbed) && holds(&replica, &baseline));
        replica.poll_updates().unwrap();
        assert!(holds(&replica, &perturbed));
        assert_eq!(channel.min_installed(), 1);

        // One layer of the wrong shape: refused whole, by both.
        let mut misfit = FcLayers::clone(&baseline);
        *misfit.last_mut().unwrap() = Arc::new(FcParams {
            weights: Tensor::zeros(&[1, 1]),
            bias: Tensor::zeros(&[1]),
        });
        post(2, misfit);
        assert!(first.poll_updates().is_err() && replica.poll_updates().is_err());
        assert!(holds(&first, &perturbed) && holds(&replica, &perturbed));
        assert_eq!((first.weight_version(), channel.min_installed()), (1, 1));

        post(3, FcLayers::clone(&baseline));
        first.poll_updates().unwrap();
        replica.poll_updates().unwrap();
        assert!(holds(&first, &baseline) && holds(&replica, &baseline));
        assert_eq!(channel.min_installed(), 3);
    }
}
