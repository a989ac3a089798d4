use drec_graph::{
    execute, execute_streamed, execute_traced, ExecPlan, Graph, GraphError, PlanOptions,
    PlanScratch, PlanStats,
};
use drec_ops::{ExecContext, FcParams, Value};
use drec_tensor::Tensor;
use drec_trace::{OpTrace, RunTrace};
use std::sync::Arc;

use crate::builders;
use crate::{InputSpec, ModelMeta};

/// Identifier of one of the eight studied models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelId {
    /// Neural Collaborative Filtering.
    Ncf,
    /// DLRM variant 1 — small, 80 lookups/table.
    Rm1,
    /// DLRM variant 2 — large, 32 tables × 120 lookups.
    Rm2,
    /// DLRM variant 3 — large FC stacks, continuous-feature heavy.
    Rm3,
    /// Wide & Deep.
    Wnd,
    /// Multi-Task Wide & Deep.
    MtWnd,
    /// Deep Interest Network (attention via local activation units).
    Din,
    /// Deep Interest Evolution Network (GRU-based interest evolution).
    Dien,
}

impl ModelId {
    /// All eight models in Table I order.
    pub const ALL: [ModelId; 8] = [
        ModelId::Ncf,
        ModelId::Rm1,
        ModelId::Rm2,
        ModelId::Rm3,
        ModelId::Wnd,
        ModelId::MtWnd,
        ModelId::Din,
        ModelId::Dien,
    ];

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            ModelId::Ncf => "NCF",
            ModelId::Rm1 => "RM1",
            ModelId::Rm2 => "RM2",
            ModelId::Rm3 => "RM3",
            ModelId::Wnd => "WnD",
            ModelId::MtWnd => "MT-WnD",
            ModelId::Din => "DIN",
            ModelId::Dien => "DIEN",
        }
    }

    /// Builds the model at the given scale with a deterministic seed.
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] if graph construction fails (which would
    /// indicate a bug in the builder, not user error).
    pub fn build(self, scale: ModelScale, seed: u64) -> Result<RecModel, GraphError> {
        builders::build(self, scale, seed, None)
    }

    /// Like [`ModelId::build`], but embedding tables register in `store`
    /// instead of owning dense tensors. Identically configured builds
    /// (same model, scale, and seed) share one parameter copy — the
    /// registration namespace is derived from all three — while any
    /// differing build gets its own tables. With the store's `f32`
    /// encoding the model's outputs are bit-identical to a plain
    /// [`ModelId::build`].
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] if graph construction or store
    /// registration fails.
    pub fn build_with_store(
        self,
        scale: ModelScale,
        seed: u64,
        store: Arc<drec_store::EmbeddingStore>,
    ) -> Result<RecModel, GraphError> {
        builders::build(self, scale, seed, Some(store))
    }
}

/// FNV-1a over the build identity (model name, scale discriminant, seed):
/// one registration namespace per distinct build configuration. This is
/// the namespace [`ModelId::build_with_store`] registers tables under and
/// every build records ([`RecModel::namespace`]), so reporting code can
/// ask the store per-model questions (e.g.
/// `EmbeddingStore::namespace_residency`) for any build it can name.
pub fn store_namespace(id: ModelId, scale: ModelScale, seed: u64) -> u64 {
    let scale = match scale {
        ModelScale::Tiny => 1,
        ModelScale::Paper => 2,
    };
    let bytes = id.name().bytes().chain([scale]).chain(seed.to_le_bytes());
    let eat = |h: u64, byte: u8| (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    bytes.fold(0xcbf2_9ce4_8422_2325, eat)
}

impl std::fmt::Display for ModelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How large to build a model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelScale {
    /// Miniature configuration for fast unit tests.
    Tiny,
    /// The published shapes (embedding row counts virtualised, the largest
    /// FC stacks moderately reduced — see DESIGN.md §5 for the table).
    Paper,
}

/// One sparse-lookup op whose ids come straight from a graph input and
/// whose table lives in a shared [`drec_store::EmbeddingStore`]: the
/// contract the serving runtime needs to stream-prefetch rows for a query
/// it has admitted but not yet executed.
#[derive(Debug, Clone)]
pub struct StoreBinding {
    /// Index into the model's input vector where this lookup's ids arrive.
    pub input_index: usize,
    /// The pinned store table those ids resolve against.
    pub pin: drec_store::PinnedTable,
    /// Physical row count — virtual ids reduce modulo this before any
    /// store access, so prefetch must apply the same reduction.
    pub physical_rows: u32,
}

/// A built recommendation model: its operator graph, the simulated process
/// it lives in, its input contract, and its Table I metadata.
#[derive(Debug)]
pub struct RecModel {
    pub(crate) id: ModelId,
    pub(crate) namespace: u64,
    pub(crate) store: Option<Arc<drec_store::EmbeddingStore>>,
    pub(crate) graph: Graph,
    pub(crate) ctx: ExecContext,
    pub(crate) spec: InputSpec,
    pub(crate) meta: ModelMeta,
    pub(crate) plan: Option<ExecPlan>,
    pub(crate) scratch: PlanScratch,
}

impl RecModel {
    /// The model identifier.
    pub fn id(&self) -> ModelId {
        self.id
    }

    /// The build's registration namespace, [`store_namespace`] of its
    /// model, scale and seed (dense builds and views included).
    pub fn namespace(&self) -> u64 {
        self.namespace
    }

    /// The store the build's tables registered in; `None` when dense.
    pub fn store(&self) -> Option<&Arc<drec_store::EmbeddingStore>> {
        self.store.as_ref()
    }

    /// The operator graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The input contract for the workload generator.
    pub fn spec(&self) -> &InputSpec {
        &self.spec
    }

    /// Table I metadata and Fig 16 features.
    pub fn meta(&self) -> &ModelMeta {
        &self.meta
    }

    /// Store-backed sparse-lookup bindings: every `SparseLengthsSum` or
    /// `EmbeddingGather` whose ids input is a graph input and whose table
    /// resolves through an [`drec_store::EmbeddingStore`]. Empty for
    /// dense builds. Ops sharing one `(input, table)` pair are reported
    /// once — prefetching a row twice is a no-op but costs a lock.
    pub fn store_bindings(&self) -> Vec<StoreBinding> {
        use drec_ops::{EmbeddingGather, EmbeddingTable, SparseLengthsSum};

        let input_ids = self.graph.input_ids();
        let mut seen: Vec<(usize, *const EmbeddingTable)> = Vec::new();
        let mut bindings = Vec::new();
        for node in self.graph.nodes() {
            let Some(any) = node.op().as_any() else {
                continue;
            };
            let table: &Arc<EmbeddingTable> =
                if let Some(sls) = any.downcast_ref::<SparseLengthsSum>() {
                    sls.table()
                } else if let Some(gather) = any.downcast_ref::<EmbeddingGather>() {
                    gather.table()
                } else {
                    continue;
                };
            let Some(pin) = table.store_pin() else {
                continue;
            };
            let Some(&ids_vid) = node.inputs().first() else {
                continue;
            };
            let Some(input_index) = input_ids.iter().position(|&v| v == ids_vid) else {
                continue;
            };
            let dedup_key = (input_index, Arc::as_ptr(table));
            if seen.contains(&dedup_key) {
                continue;
            }
            seen.push(dedup_key);
            bindings.push(StoreBinding {
                input_index,
                pin: pin.clone(),
                physical_rows: table.physical_rows() as u32,
            });
        }
        bindings
    }

    /// The model's fully-connected nodes with their node indices, in
    /// graph node order — the order every FC weight set is in.
    fn fc_nodes(&self) -> impl Iterator<Item = (usize, &drec_ops::FullyConnected)> {
        let nodes = self.graph.nodes().iter().enumerate();
        nodes.filter_map(|(i, node)| Some((i, node.op().as_any()?.downcast_ref()?)))
    }

    /// Every fully-connected layer's parameter set, in graph node order —
    /// the MLP half of a versioned model snapshot, as shared handles: no
    /// `f32` is copied, and the set stays alive for as long as any holder
    /// keeps its handles. The order is stable for a given model build, so
    /// a set taken here round-trips through [`RecModel::install_fc_params`]
    /// on any identically built model.
    pub fn fc_params(&self) -> Vec<Arc<FcParams>> {
        self.fc_nodes()
            .map(|(_, fc)| Arc::clone(fc.params()))
            .collect()
    }

    /// A second model over this one's parameters: the graph's node list
    /// cloned, so every operator — embedding tables, GRU weights, FC
    /// handles — is shared, in an [`ExecContext::fork`] of this model's
    /// process, with no plan compiled and an empty scratch. Nothing a view
    /// does reaches its source: operators never change once built, and
    /// [`RecModel::install_fc_params`] swaps graph nodes, not weights.
    pub fn view(&self) -> RecModel {
        RecModel {
            id: self.id,
            namespace: self.namespace,
            store: self.store.clone(),
            graph: self.graph.clone(),
            ctx: self.ctx.fork(),
            spec: self.spec.clone(),
            meta: self.meta.clone(),
            plan: None,
            scratch: PlanScratch::new(),
        }
    }

    /// Installs a weight set — the rolling-update path for the model's
    /// MLP half. `layers` must hold one handle per FC layer in the graph
    /// node order [`RecModel::fc_params`] uses; each FC node is replaced by
    /// a layer computing from that handle, which the model then *shares*
    /// with the caller (and with every other model the same handles were
    /// installed in). The layers replaced are not touched, so views of
    /// this model keep theirs. A cached plan is recompiled with the options
    /// it was compiled with.
    ///
    /// # Errors
    ///
    /// [`drec_ops::OpError::InvalidInput`] on a layer-count or shape
    /// mismatch. Every layer is made before any node is replaced, so a
    /// rejected set leaves the model untouched.
    pub fn install_fc_params(&mut self, layers: &[Arc<FcParams>]) -> Result<(), drec_ops::OpError> {
        let fcs: Vec<_> = self.fc_nodes().collect();
        if fcs.len() != layers.len() {
            return Err(drec_ops::OpError::InvalidInput {
                op: "FC",
                message: format!(
                    "weight-set has {} layers, model has {} FC nodes",
                    layers.len(),
                    fcs.len()
                ),
            });
        }
        let swapped = fcs.into_iter().zip(layers).map(|((node, fc), params)| {
            let op: Arc<dyn drec_ops::Operator> = Arc::new(fc.with_params(Arc::clone(params))?);
            Ok((node, op))
        });
        let swapped: Vec<_> = swapped.collect::<Result<_, drec_ops::OpError>>()?;
        for (node, op) in swapped {
            self.graph.replace_op(node, op);
        }
        if let Some(opts) = self.plan.as_ref().map(ExecPlan::options) {
            self.compile_plan_with(opts);
        }
        Ok(())
    }

    /// An owned copy of [`RecModel::fc_params`]: `(weights, bias)` per FC
    /// layer, every tensor cloned. A convenience for tests and offline
    /// tools that want tensors to edit; serving passes handles and never
    /// calls this.
    pub fn capture_fc_weights(&self) -> Vec<(Tensor, Tensor)> {
        let owned = |p: Arc<FcParams>| (p.weights.clone(), p.bias.clone());
        self.fc_params().into_iter().map(owned).collect()
    }

    /// [`RecModel::install_fc_params`] for owned `(weights, bias)` pairs:
    /// clones each pair into a fresh allocation, then installs those. Same
    /// order, same all-or-nothing contract; serving never calls this.
    ///
    /// # Errors
    ///
    /// As [`RecModel::install_fc_params`].
    pub fn install_fc_weights(
        &mut self,
        layers: &[(Tensor, Tensor)],
    ) -> Result<(), drec_ops::OpError> {
        let shared = |(weights, bias): &(Tensor, Tensor)| {
            Arc::new(FcParams {
                weights: weights.clone(),
                bias: bias.clone(),
            })
        };
        self.install_fc_params(&layers.iter().map(shared).collect::<Vec<_>>())
    }

    /// Sets the per-op retained-memory-event target for traced runs.
    pub fn set_trace_target(&mut self, target_events_per_op: usize) {
        self.ctx.set_trace_target(target_events_per_op);
    }

    /// Compiles an execution plan with default options (fusion + wave
    /// scheduling) and caches it; subsequent [`RecModel::run`] calls use
    /// the plan. [`RecModel::run_traced`] never does: a plan only serves.
    /// Returns the compile stats. Recompiling replaces the cached plan.
    pub fn compile_plan(&mut self) -> &PlanStats {
        self.compile_plan_with(PlanOptions::default())
    }

    /// Like [`RecModel::compile_plan`] with explicit pass selection.
    pub fn compile_plan_with(&mut self, opts: PlanOptions) -> &PlanStats {
        self.plan = Some(ExecPlan::compile(&self.graph, opts));
        self.plan_stats().expect("plan was just compiled")
    }

    /// Stats of the cached plan, if one was compiled.
    pub fn plan_stats(&self) -> Option<&PlanStats> {
        self.plan.as_ref().map(ExecPlan::stats)
    }

    /// Runs one inference without tracing, through the compiled plan when
    /// one is cached (bit-identical to the reference executor) or the
    /// reference executor otherwise.
    ///
    /// # Errors
    ///
    /// Propagates graph-execution errors (e.g. inputs that do not match
    /// [`RecModel::spec`]).
    pub fn run(&mut self, inputs: Vec<Value>) -> Result<Vec<Value>, GraphError> {
        self.ctx.set_tracing(false);
        match &self.plan {
            Some(plan) => plan.execute(&mut self.ctx, &mut self.scratch, inputs),
            None => execute(&self.graph, &mut self.ctx, inputs),
        }
    }

    /// Runs one inference through the sequential reference executor,
    /// ignoring any compiled plan — the bit-identity oracle for plan
    /// verification.
    ///
    /// # Errors
    ///
    /// Propagates graph-execution errors.
    pub fn run_reference(&mut self, inputs: Vec<Value>) -> Result<Vec<Value>, GraphError> {
        self.ctx.set_tracing(false);
        execute(&self.graph, &mut self.ctx, inputs)
    }

    /// Runs one inference with tracing through the reference executor,
    /// handing `sink` one record per graph node, in node order, as each
    /// node finishes, whether or not a plan is compiled.
    ///
    /// # Errors
    ///
    /// Propagates graph-execution errors.
    pub fn run_streamed(
        &mut self,
        inputs: Vec<Value>,
        sink: impl FnMut(OpTrace),
    ) -> Result<Vec<Value>, GraphError> {
        self.ctx.set_tracing(true);
        let result = execute_streamed(&self.graph, &mut self.ctx, inputs, sink);
        self.ctx.set_tracing(false);
        result
    }

    /// [`RecModel::run_streamed`] with the stream collected: returns the
    /// outputs and the captured [`RunTrace`].
    ///
    /// # Errors
    ///
    /// Propagates graph-execution errors.
    pub fn run_traced(
        &mut self,
        inputs: Vec<Value>,
        batch: usize,
    ) -> Result<(Vec<Value>, RunTrace), GraphError> {
        self.ctx.set_tracing(true);
        let result = execute_traced(&self.graph, &mut self.ctx, inputs, batch);
        self.ctx.set_tracing(false);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every build records `store_namespace` of its identity, the one an
    /// updater's draws are seeded from (`plan.seed ^ namespace`): a dense
    /// build, a store build and a view of each.
    #[test]
    fn a_build_and_its_views_record_the_namespace_of_its_identity() {
        let store = Arc::new(drec_store::EmbeddingStore::new(Default::default()));
        for (id, scale, seed) in [
            (ModelId::Rm1, ModelScale::Tiny, 7),
            (ModelId::Din, ModelScale::Tiny, 11),
            (ModelId::Ncf, ModelScale::Paper, 3),
        ] {
            let expected = store_namespace(id, scale, seed);
            let dense = id.build(scale, seed).unwrap();
            let stored = id.build_with_store(scale, seed, Arc::clone(&store));
            let stored = stored.unwrap();
            for model in [&dense, &dense.view(), &stored, &stored.view()] {
                assert_eq!(model.namespace(), expected, "{id} {scale:?} {seed}");
            }
            assert!(dense.store().is_none() && dense.view().store().is_none());
            for model in [&stored, &stored.view()] {
                assert!(Arc::ptr_eq(model.store().unwrap(), &store), "{id}");
            }
        }
        // The value `store_namespace` gave before builds recorded it.
        let rm1 = store_namespace(ModelId::Rm1, ModelScale::Tiny, 7);
        assert_eq!(rm1, 0x048f_5668_6434_6b29);
    }
}
