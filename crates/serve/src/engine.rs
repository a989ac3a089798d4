//! The per-worker inference engine: owns a compiled model plus the
//! platform latency curve, executes coalesced batches, and prices each
//! one on the curve. It reads no clock: the worker that calls it times
//! the batch.
//!
//! In a serving lane the model is the lane's built model (worker 0) or a
//! view of it ([`RecModel::view`]: every other worker, an extra backend,
//! a replacement after a panic), so all of a lane's engines compute from
//! one set of parameters. A weight install swaps FC nodes in this
//! engine's model only and recompiles its plan; the other engines install
//! the same handles when they next poll.

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
    /// Wraps a built model and its platform latency curve, pinning batch
    /// execution to `pool` — how the serving runtime shares one intra-op
    /// pool across all worker engines — and holding the shared
    /// [`EmbeddingStore`] the model was built against (if any), whose
    /// reclamation epoch every batch pins.
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
    /// a weight reader and from the next batch on polls the mailbox at
    /// batch boundaries (so weight swaps land between batches, never
    /// mid-inference) and reports per-batch staleness. The engine's model
    /// must hold the channel's baseline, as the lane's model and its views
    /// do.
    pub(crate) fn set_update_channel(&mut self, channel: Arc<ModelUpdateChannel>) {
        let reader = channel.register_reader();
        self.update = Some(UpdateState {
            channel,
            reader,
            weight_version: 0,
        });
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
    pub(crate) fn set_fault_hook(&mut self, faults: FaultHook) {
        self.faults = faults;
    }

    /// The model's input contract.
    pub fn spec(&self) -> &InputSpec {
        self.model.spec()
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
        Engine::with_store(model, curve, drec_par::current(), None)
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
    fn views_on_one_channel_share_every_installed_set() {
        use crate::update::{FcLayers, WeightSet};
        use drec_ops::FcParams;
        use drec_tensor::Tensor;

        fn holds(engine: &Engine, set: &FcLayers) -> bool {
            let installed = engine.model.fc_params();
            installed.len() == set.len()
                && installed.iter().zip(set).all(|(a, b)| Arc::ptr_eq(a, b))
        }
        let mut first = engine();
        let baseline = first.model.fc_params();
        let channel = ModelUpdateChannel::new("ncf", 1, None, baseline.clone(), None);
        let channel = Arc::new(channel);
        let view = first.model.view();
        let mut replica = Engine::with_store(view, first.curve.clone(), drec_par::current(), None);
        first.set_update_channel(Arc::clone(&channel));
        replica.set_update_channel(Arc::clone(&channel));
        assert!(holds(&first, &baseline) && holds(&replica, &baseline));
        // Output bits straight from the model: `run_batch` would poll
        // first.
        let reqs = requests(3, &first.spec().clone());
        let outputs = |e: &mut Engine| -> Vec<Vec<u32>> {
            let inputs = coalesce_inputs(e.model.spec(), &reqs);
            let outputs = e.model.run(inputs).unwrap();
            let bits = |v: &Value| {
                v.as_dense()
                    .unwrap()
                    .as_slice()
                    .iter()
                    .map(|x| x.to_bits())
                    .collect()
            };
            outputs.iter().map(bits).collect()
        };
        let served = outputs(&mut first);
        assert_eq!(outputs(&mut replica), served);

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
        // An install in one engine is not seen by the engine it shares
        // the rest of its model with.
        assert_ne!(outputs(&mut first), served);
        assert_eq!(outputs(&mut replica), served);
        replica.poll_updates().unwrap();
        assert!(holds(&replica, &perturbed));
        assert_eq!(outputs(&mut replica), outputs(&mut first));
        assert_eq!(channel.min_installed(), 1);

        // One layer of the wrong shape: refused whole, by both.
        let mut misfit = baseline.clone();
        *misfit.last_mut().unwrap() = Arc::new(FcParams {
            weights: Tensor::zeros(&[1, 1]),
            bias: Tensor::zeros(&[1]),
        });
        post(2, misfit);
        assert!(first.poll_updates().is_err() && replica.poll_updates().is_err());
        assert!(holds(&first, &perturbed) && holds(&replica, &perturbed));
        assert_eq!(channel.min_installed(), 1);

        post(3, baseline.clone());
        first.poll_updates().unwrap();
        replica.poll_updates().unwrap();
        assert!(holds(&first, &baseline) && holds(&replica, &baseline));
        assert_eq!(outputs(&mut first), served);
        assert_eq!(channel.min_installed(), 3);
    }
}
