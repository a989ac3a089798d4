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
//! the same handles at the start of their next batch.

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
    faults: FaultHook,
    /// The lane's live-update channel, once subscribed: its epoch is the
    /// one every batch pins, and its mailbox is polled inside that pin.
    update: Option<Arc<ModelUpdateChannel>>,
    /// The weight version installed in the model (0: the baseline).
    weight_version: u64,
}

impl Engine {
    /// Wraps a built model and its platform latency curve, pinning batch
    /// execution to `pool` — how the serving runtime shares one intra-op
    /// pool across all worker engines. `store` names the shared
    /// [`EmbeddingStore`] the model was built against (if any); the
    /// engine reads it off the model.
    ///
    /// Construction compiles the model's execution plan (operator
    /// fusion and wave scheduling) once; every batch then reuses the
    /// plan and its scratch buffers instead of re-running liveness
    /// analysis per request.
    ///
    /// # Panics
    ///
    /// Panics if `store` is not the store the model was built against
    /// ([`RecModel::store`]; both `None` for a dense build).
    pub fn with_store(
        mut model: RecModel,
        curve: LatencyCurve,
        pool: Arc<ParPool>,
        store: Option<Arc<EmbeddingStore>>,
    ) -> Self {
        assert!(
            model.store().map(Arc::as_ptr) == store.as_ref().map(Arc::as_ptr),
            "an engine's store must be its model's"
        );
        model.compile_plan();
        Engine {
            model,
            curve,
            pool,
            faults: FaultHook::disabled(),
            update: None,
            weight_version: 0,
        }
    }

    /// Subscribes this engine to a live-update channel: from the next
    /// batch on it pins the channel's epoch, polls the mailbox inside that
    /// pin (so weight swaps land before a batch runs, never
    /// mid-inference) and reports per-batch staleness. The engine's model
    /// must hold the channel's baseline, as the lane's model and its views
    /// do.
    ///
    /// # Panics
    ///
    /// Panics if the channel's store is not the engine's: the one pin a
    /// batch takes must cover its rows.
    pub(crate) fn set_update_channel(&mut self, channel: Arc<ModelUpdateChannel>) {
        assert!(
            channel.store().map(Arc::as_ptr) == self.model.store().map(Arc::as_ptr),
            "an update channel's store must be its engine's"
        );
        self.update = Some(channel);
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
        // One epoch pin for the whole batch, taken before anything else:
        // one fetch_add per batch (not per row) keeps the read-path
        // overhead inside the perf gate. An updater that posts a weight
        // set and synchronizes waits until this batch ends or has polled
        // after the post.
        let _epoch = self.update.as_ref().map(|channel| channel.epoch().pin());
        let newer = self
            .update
            .as_ref()
            .and_then(|c| c.poll_weights(self.weight_version));
        if let Some(ws) = newer {
            self.model
                .install_fc_params(&ws.layers)
                .map_err(|e| ServeError::WorkerFailed {
                    reason: format!("weight-set install for v{}: {e}", ws.version),
                })?;
            self.weight_version = ws.version;
        }
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
        if let Some(channel) = &self.update {
            // The batch serves the version of the set it installed: the
            // updater publishes a version's rows before it posts its set
            // and is its namespace's only writer, so no row read here is
            // older than that set.
            channel.record_staleness(self.weight_version);
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
    #[should_panic(expected = "must be its model's")]
    fn an_engine_refuses_a_store_its_model_was_not_built_against() {
        let store = || Arc::new(EmbeddingStore::new(drec_store::StoreConfig::default()));
        let model = ModelId::Ncf
            .build_with_store(ModelScale::Tiny, 1, store())
            .unwrap();
        let curve = LatencyCurve::from_points(vec![(1, 1e-3)]);
        Engine::with_store(model, curve, drec_par::current(), Some(store()));
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
        // Output bits straight from the model: `run_batch` installs
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
        first.run_batch(&reqs).unwrap();
        assert!(holds(&first, &perturbed) && holds(&replica, &baseline));
        // An install in one engine is not seen by the engine it shares
        // the rest of its model with.
        assert_ne!(outputs(&mut first), served);
        assert_eq!(outputs(&mut replica), served);
        replica.run_batch(&reqs).unwrap();
        assert!(holds(&replica, &perturbed));
        assert_eq!(outputs(&mut replica), outputs(&mut first));

        // One layer of the wrong shape: refused whole, by both.
        let mut misfit = baseline.clone();
        *misfit.last_mut().unwrap() = Arc::new(FcParams {
            weights: Tensor::zeros(&[1, 1]),
            bias: Tensor::zeros(&[1]),
        });
        post(2, misfit);
        assert!(first.run_batch(&reqs).is_err() && replica.run_batch(&reqs).is_err());
        assert!(holds(&first, &perturbed) && holds(&replica, &perturbed));

        post(3, baseline.clone());
        first.run_batch(&reqs).unwrap();
        replica.run_batch(&reqs).unwrap();
        assert!(holds(&first, &baseline) && holds(&replica, &baseline));
        assert_eq!(outputs(&mut first), served);
    }

    #[test]
    fn every_plan_on_a_channel_installs_its_weight_sets() {
        use crate::update::{UpdatePlan, Updater};
        let mut engine = engine();
        let baseline = engine.model.fc_params();
        let channel = Arc::new(ModelUpdateChannel::new("ncf", 1, None, baseline, None));
        engine.set_update_channel(Arc::clone(&channel));
        let reqs = requests(1, &engine.spec().clone());
        let mut installed = Vec::new();
        for versions in [3, 2] {
            let plan = UpdatePlan {
                versions,
                ..UpdatePlan::default()
            };
            Updater::new(Arc::clone(&channel), plan).run().unwrap();
            engine.run_batch(&reqs).unwrap();
            installed.push(engine.weight_version);
        }
        // The second plan numbers on from the first: its sets are newer
        // than the one the engine holds.
        assert_eq!(installed, [3, 5]);
        assert_eq!(channel.current_version(), 5);
    }
}
