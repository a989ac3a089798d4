//! Compiled execution plans: operator fusion, inter-op wave scheduling,
//! and precomputed value lifetimes.
//!
//! [`crate::execute`] is the sequential reference oracle: it walks nodes
//! one at a time and recomputes value liveness on every request.
//! [`ExecPlan::compile`] does that analysis once per model instead:
//!
//! * **Fusion** — `FC → activation` chains collapse into
//!   [`drec_ops::FusedFc`], and fans of per-table `SparseLengthsSum` nodes
//!   feeding one `Concat` merge into [`drec_ops::MultiTableSls`]. Both
//!   rewrites preserve the exact floating-point operation order, so plan
//!   outputs are bit-identical to the reference executor.
//! * **Wave scheduling** — nodes are grouped into topological *waves* of
//!   mutually data-independent nodes (e.g. RM2's 32 parallel embedding
//!   lookups, DIN's per-position attention units). Wide waves execute
//!   concurrently on the [`drec_par`] pool with intra-op parallelism
//!   turned off inside each worker; single-node waves (big FC layers)
//!   keep full intra-op parallelism. Every op is bit-identical across
//!   thread counts, so the schedule never changes results.
//! * **Precomputed lifetimes** — each wave carries the list of values
//!   whose last consumer it contains, and the reusable
//!   [`PlanScratch`] value table replaces the per-request `values`
//!   allocation.
//!
//! A plan only serves: it calls [`Operator::run`] on each node and never
//! opens a trace record. Traced runs walk the graph through
//! [`crate::execute_traced`], whose per-node [`Operator::execute`] bracket
//! no operator overrides, so a trace is always that of the unfused graph
//! in node order.

use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use drec_ops::{
    ExecContext, FusedConcatInput, FusedFc, MultiTableSls, Operator, SparseLengthsSum, Value,
};
use drec_par::ParPool;

use crate::{Graph, GraphError, Result};

/// Which optional plan-compiler passes to enable. Fusion always runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanOptions {
    /// Execute data-independent waves concurrently on the
    /// [`drec_par::current`] pool (sequential per-node waves otherwise).
    pub waves: bool,
}

impl Default for PlanOptions {
    fn default() -> Self {
        PlanOptions { waves: true }
    }
}

/// What the plan compiler did to a graph.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanStats {
    /// Graph nodes before fusion.
    pub ops_before: usize,
    /// Plan nodes after fusion.
    pub ops_after: usize,
    /// `FC → activation` pairs rewritten into [`drec_ops::FusedFc`].
    pub fused_fc: usize,
    /// `SparseLengthsSum` nodes absorbed into
    /// [`drec_ops::MultiTableSls`] lookups.
    pub fused_tables: usize,
    /// Scheduled waves (equals `ops_after` when wave scheduling is off).
    pub waves: usize,
    /// Widest wave (data-independent nodes that can run concurrently).
    pub max_wave_width: usize,
    /// Wall-clock compile time, seconds.
    pub compile_seconds: f64,
}

/// One scheduled operator: an original graph op or a fused rewrite,
/// addressing values by dense index.
#[derive(Debug)]
struct PlanNode {
    name: String,
    op: Arc<dyn Operator>,
    inputs: Vec<usize>,
    output: usize,
}

/// Reusable per-model execution state: the value table, per-group scratch
/// contexts for parallel waves, and the serial pool installed inside wave
/// workers (intra-op parallelism off while inter-op is on).
///
/// Holding this outside [`ExecPlan`] keeps the plan immutable and shared
/// while requests reuse the scratch across calls — the per-request
/// `values` allocation and liveness pass of the reference executor are
/// gone.
#[derive(Debug, Default)]
pub struct PlanScratch {
    values: Vec<Option<Value>>,
    /// Which arena produced each live value: 0 = the caller's context,
    /// `g + 1` = `group_ctxs[g]`. Dead values return to their producer's
    /// arena so every arena reaches buffer-reuse steady state.
    owner: Vec<usize>,
    group_ctxs: Vec<ExecContext>,
    serial_pool: Option<Arc<ParPool>>,
}

impl PlanScratch {
    /// Creates empty scratch state; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure(&mut self, n_values: usize, groups: usize) {
        if self.values.len() < n_values {
            self.values.resize_with(n_values, || None);
        }
        if self.owner.len() < n_values {
            self.owner.resize(n_values, 0);
        }
        while self.group_ctxs.len() < groups {
            self.group_ctxs.push(ExecContext::new());
        }
        if groups > 0 && self.serial_pool.is_none() {
            self.serial_pool = Some(ParPool::new(1));
        }
    }

    /// Recycles a dead value into the arena that produced it.
    fn recycle_to_owner(&mut self, ctx: &mut ExecContext, v: usize, dead: Value) {
        match self.owner[v] {
            0 => ctx.recycle_value(dead),
            g => self.group_ctxs[g - 1].recycle_value(dead),
        }
    }
}

/// A compiled, cached execution plan for one [`Graph`].
///
/// Compile once with [`ExecPlan::compile`], then call
/// [`ExecPlan::execute`] per request with a reusable [`PlanScratch`].
/// Results are bit-identical to [`crate::execute`] at every thread count.
#[derive(Debug)]
pub struct ExecPlan {
    nodes: Vec<PlanNode>,
    /// Contiguous ranges into `nodes`, one per wave, in execution order.
    waves: Vec<Range<usize>>,
    /// Values whose last consumer sits in wave `i` — recycled after it.
    wave_dead: Vec<Vec<usize>>,
    input_ids: Vec<usize>,
    outputs: Vec<usize>,
    n_values: usize,
    opts: PlanOptions,
    stats: PlanStats,
}

impl ExecPlan {
    /// Compiles `graph` into a cached plan. Deterministic: the same graph
    /// and options always yield the same fusion decisions and wave
    /// assignment (only `compile_seconds` varies).
    pub fn compile(graph: &Graph, opts: PlanOptions) -> ExecPlan {
        let started = Instant::now();
        let n = graph.nodes.len();

        let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); graph.n_values];
        let mut producer: Vec<Option<usize>> = vec![None; graph.n_values];
        for (i, node) in graph.nodes.iter().enumerate() {
            for v in &node.inputs {
                consumers[v.0].push(i);
            }
            producer[node.output.0] = Some(i);
        }
        let mut is_output = vec![false; graph.n_values];
        for o in &graph.outputs {
            is_output[o.0] = true;
        }

        // ---- fusion pass ----
        let mut absorbed = vec![false; n];
        let mut replacement: Vec<Option<PlanNode>> = (0..n).map(|_| None).collect();
        let mut fused_fc = 0usize;
        let mut fused_tables = 0usize;
        // FC → activation: the FC's output has exactly one consumer,
        // is not a graph output, and that consumer is an activation.
        for i in 0..n {
            let fc_node = &graph.nodes[i];
            let out = fc_node.output.0;
            if is_output[out] || consumers[out].len() != 1 {
                continue;
            }
            let j = consumers[out][0];
            let act_node = &graph.nodes[j];
            if absorbed[i] || absorbed[j] || replacement[j].is_some() {
                continue;
            }
            if let Some(op) = FusedFc::fuse(Arc::clone(&fc_node.op), &act_node.op) {
                absorbed[i] = true;
                replacement[j] = Some(PlanNode {
                    name: format!("{}+{}", fc_node.name, act_node.name),
                    op: Arc::new(op),
                    inputs: fc_node.inputs.iter().map(|v| v.0).collect(),
                    output: act_node.output.0,
                });
                fused_fc += 1;
            }
        }
        // SLS fan-in → concat: every concat input produced by an SLS
        // with no other consumer is absorbed; other inputs pass
        // through. At least two tables must merge.
        for c in 0..n {
            if absorbed[c] || replacement[c].is_some() {
                continue;
            }
            let cat = &graph.nodes[c];
            let mut sources = Vec::with_capacity(cat.inputs.len());
            let mut plan_inputs = Vec::with_capacity(cat.inputs.len());
            let mut pooled_nodes = Vec::new();
            for v in &cat.inputs {
                let fusable_producer = producer[v.0].filter(|&p| {
                    let pn = &graph.nodes[p];
                    !absorbed[p]
                        && replacement[p].is_none()
                        && consumers[v.0].len() == 1
                        && !is_output[v.0]
                        && pn.op.as_any().is_some_and(|a| a.is::<SparseLengthsSum>())
                });
                match fusable_producer {
                    Some(p) => {
                        let pn = &graph.nodes[p];
                        sources.push(FusedConcatInput::Pooled {
                            op: Arc::clone(&pn.op),
                        });
                        plan_inputs.push(pn.inputs[0].0);
                        pooled_nodes.push(p);
                    }
                    None => {
                        sources.push(FusedConcatInput::Pass);
                        plan_inputs.push(v.0);
                    }
                }
            }
            if pooled_nodes.len() < 2 {
                continue;
            }
            let name = format!("{}+{}xSLS", cat.name, pooled_nodes.len());
            if let Some(op) = MultiTableSls::fuse(sources, &cat.op) {
                for &p in &pooled_nodes {
                    absorbed[p] = true;
                }
                fused_tables += pooled_nodes.len();
                replacement[c] = Some(PlanNode {
                    name,
                    op: Arc::new(op),
                    inputs: plan_inputs,
                    output: cat.output.0,
                });
            }
        }

        // Emit plan nodes in original order, each fused node at its last
        // constituent's position (its inputs are produced strictly
        // earlier, so the order stays topological).
        let mut nodes: Vec<PlanNode> = Vec::with_capacity(n);
        for i in 0..n {
            if absorbed[i] {
                continue;
            }
            match replacement[i].take() {
                Some(fused) => nodes.push(fused),
                None => {
                    let g = &graph.nodes[i];
                    nodes.push(PlanNode {
                        name: g.name.clone(),
                        op: Arc::clone(&g.op),
                        inputs: g.inputs.iter().map(|v| v.0).collect(),
                        output: g.output.0,
                    });
                }
            }
        }

        // ---- wave schedule ----
        // Topological levels: a node's level is one past the deepest
        // producer feeding it; external inputs sit at level zero. Nodes of
        // equal level are mutually data-independent.
        let (nodes, waves) = if opts.waves {
            let mut value_level = vec![0usize; graph.n_values];
            let mut node_level = Vec::with_capacity(nodes.len());
            for node in &nodes {
                let lvl = 1 + node
                    .inputs
                    .iter()
                    .map(|&v| value_level[v])
                    .max()
                    .unwrap_or(0);
                node_level.push(lvl);
                value_level[node.output] = lvl;
            }
            let max_level = node_level.iter().copied().max().unwrap_or(0);
            let mut slots: Vec<Option<PlanNode>> = nodes.into_iter().map(Some).collect();
            let mut ordered = Vec::with_capacity(slots.len());
            let mut waves = Vec::with_capacity(max_level);
            for lvl in 1..=max_level {
                let start = ordered.len();
                for (i, slot) in slots.iter_mut().enumerate() {
                    if node_level[i] == lvl {
                        ordered.push(slot.take().expect("each node scheduled exactly once"));
                    }
                }
                waves.push(start..ordered.len());
            }
            (ordered, waves)
        } else {
            let waves = (0..nodes.len()).map(|i| i..i + 1).collect();
            (nodes, waves)
        };

        // ---- precomputed lifetimes ----
        let mut wave_of_node = vec![0usize; nodes.len()];
        for (w, range) in waves.iter().enumerate() {
            for i in range.clone() {
                wave_of_node[i] = w;
            }
        }
        let mut last_wave: Vec<Option<usize>> = vec![None; graph.n_values];
        for (i, node) in nodes.iter().enumerate() {
            let w = wave_of_node[i];
            for &v in &node.inputs {
                last_wave[v] = Some(last_wave[v].map_or(w, |lw| lw.max(w)));
            }
        }
        let mut wave_dead: Vec<Vec<usize>> = vec![Vec::new(); waves.len()];
        for v in 0..graph.n_values {
            if is_output[v] {
                continue;
            }
            if let Some(w) = last_wave[v] {
                wave_dead[w].push(v);
            }
        }

        let stats = PlanStats {
            ops_before: n,
            ops_after: nodes.len(),
            fused_fc,
            fused_tables,
            waves: waves.len(),
            max_wave_width: waves.iter().map(Range::len).max().unwrap_or(0),
            compile_seconds: started.elapsed().as_secs_f64(),
        };
        ExecPlan {
            nodes,
            waves,
            wave_dead,
            input_ids: graph.input_ids.iter().map(|v| v.0).collect(),
            outputs: graph.outputs.iter().map(|v| v.0).collect(),
            n_values: graph.n_values,
            opts,
            stats,
        }
    }

    /// What the compiler did (fusion counts, wave shape, compile time).
    pub fn stats(&self) -> &PlanStats {
        &self.stats
    }

    /// The passes this plan was compiled with.
    pub fn options(&self) -> PlanOptions {
        self.opts
    }

    /// Scheduled node count.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the plan has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Node names per wave, in execution order — the full schedule, used
    /// by determinism tests.
    pub fn wave_layout(&self) -> Vec<Vec<&str>> {
        self.waves
            .iter()
            .map(|range| {
                self.nodes[range.clone()]
                    .iter()
                    .map(|n| n.name.as_str())
                    .collect()
            })
            .collect()
    }

    /// Executes the plan, reusing `scratch` across requests. Waves with
    /// two or more nodes fan out over the [`drec_par::current`] pool (if
    /// the plan was compiled with `waves` and the pool has threads to
    /// spare).
    ///
    /// Plans do not trace: nodes run through [`Operator::run`], so `ctx`
    /// records nothing even when its tracing is on. A trace comes from
    /// [`crate::execute_traced`] over the graph.
    ///
    /// # Errors
    ///
    /// Same contract as [`crate::execute`]: [`GraphError::InputCount`],
    /// [`GraphError::ValueNotReady`], or [`GraphError::Op`].
    pub fn execute(
        &self,
        ctx: &mut ExecContext,
        scratch: &mut PlanScratch,
        inputs: Vec<Value>,
    ) -> Result<Vec<Value>> {
        if inputs.len() != self.input_ids.len() {
            return Err(GraphError::InputCount {
                expected: self.input_ids.len(),
                actual: inputs.len(),
            });
        }
        let pool = drec_par::current();
        let groups = if self.opts.waves { pool.threads() } else { 0 };
        scratch.ensure(self.n_values, groups);
        // Defensive sweep: a prior errored run may have left values behind.
        for v in 0..scratch.values.len() {
            if let Some(dead) = scratch.values[v].take() {
                scratch.recycle_to_owner(ctx, v, dead);
            }
        }
        for (&slot, input) in self.input_ids.iter().zip(inputs) {
            scratch.values[slot] = Some(ctx.external_input(input));
            scratch.owner[slot] = 0;
        }

        for (w, wave) in self.waves.iter().enumerate() {
            let wave_nodes = &self.nodes[wave.clone()];
            let use_parallel = groups >= 2 && wave_nodes.len() >= 2;
            if use_parallel {
                Self::run_wave_parallel(
                    wave_nodes,
                    &mut scratch.values,
                    &mut scratch.owner,
                    &mut scratch.group_ctxs,
                    scratch
                        .serial_pool
                        .as_ref()
                        .expect("ensure() created the serial pool"),
                    &pool,
                )?;
            } else {
                for node in wave_nodes {
                    let out = Self::run_node(node, ctx, &scratch.values)?;
                    scratch.values[node.output] = Some(out);
                    scratch.owner[node.output] = 0;
                }
            }
            for &v in &self.wave_dead[w] {
                if let Some(dead) = scratch.values[v].take() {
                    scratch.recycle_to_owner(ctx, v, dead);
                }
            }
        }

        let mut outputs = Vec::with_capacity(self.outputs.len());
        for &o in &self.outputs {
            match scratch.values[o].take() {
                Some(v) => outputs.push(v),
                None => return Err(GraphError::UnknownValue { id: o }),
            }
        }
        // Final sweep so never-consumed intermediates don't pin storage
        // and the next request starts from an empty table.
        for v in 0..scratch.values.len() {
            if let Some(dead) = scratch.values[v].take() {
                scratch.recycle_to_owner(ctx, v, dead);
            }
        }
        Ok(outputs)
    }

    fn run_node(node: &PlanNode, ctx: &mut ExecContext, values: &[Option<Value>]) -> Result<Value> {
        let mut refs = Vec::with_capacity(node.inputs.len());
        for &v in &node.inputs {
            match values[v].as_ref() {
                Some(val) => refs.push(val),
                None => {
                    return Err(GraphError::ValueNotReady {
                        node: node.name.clone(),
                        id: v,
                    })
                }
            }
        }
        node.op.run(ctx, &refs).map_err(|source| GraphError::Op {
            node: node.name.clone(),
            source,
        })
    }

    /// Runs one wave's nodes concurrently: the wave splits into
    /// contiguous per-thread groups, each with its own scratch context
    /// and intra-op parallelism disabled (the wave *is* the parallelism).
    /// Each node still computes from the same inputs with the same serial
    /// kernel order, so outputs are bit-identical to sequential
    /// execution; on errors, the first in node order wins.
    fn run_wave_parallel(
        nodes: &[PlanNode],
        values: &mut [Option<Value>],
        owner: &mut [usize],
        group_ctxs: &mut [ExecContext],
        serial: &Arc<ParPool>,
        pool: &Arc<ParPool>,
    ) -> Result<()> {
        let groups = pool.threads().min(nodes.len()).min(group_ctxs.len());
        let per = nodes.len().div_ceil(groups);
        let mut results: Vec<Vec<(usize, Result<Value>)>> =
            (0..groups).map(|_| Vec::new()).collect();
        {
            let values_ref: &[Option<Value>] = values;
            pool.scope(|s| {
                for ((chunk, res), gctx) in nodes
                    .chunks(per)
                    .zip(results.iter_mut())
                    .zip(group_ctxs.iter_mut())
                {
                    let serial = Arc::clone(serial);
                    s.spawn(move || {
                        drec_par::with_pool(&serial, || {
                            for node in chunk {
                                res.push((node.output, Self::run_node(node, gctx, values_ref)));
                            }
                        });
                    });
                }
            });
        }
        // Chunks are contiguous in node order, so flattening group
        // results yields node order — deterministic error selection.
        for (g, group) in results.into_iter().enumerate() {
            for (out, result) in group {
                values[out] = Some(result?);
                owner[out] = g + 1;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{execute, GraphBuilder};
    use drec_ops::{EmbeddingTable, IdList, OpKind, PoolMode, SparseLengthsSum};
    use drec_tensor::{ParamInit, Tensor};

    fn assert_bits_eq(a: &[Value], b: &[Value]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            let (xt, yt) = (x.as_dense().unwrap(), y.as_dense().unwrap());
            assert_eq!(xt.dims(), yt.dims());
            for (p, q) in xt.as_slice().iter().zip(yt.as_slice()) {
                assert_eq!(p.to_bits(), q.to_bits());
            }
        }
    }

    fn mlp_graph(ctx: &mut ExecContext) -> Graph {
        let mut init = ParamInit::new(5);
        let mut b = GraphBuilder::new();
        let x = b.input("x");
        let (h, _) = b.mlp(ctx, &mut init, "bot", x, 6, &[8, 4], false).unwrap();
        let y = b.fc(ctx, &mut init, "head", h, 4, 1).unwrap();
        let p = b.sigmoid(ctx, "prob", y);
        b.mark_output(p);
        b.finish()
    }

    #[test]
    fn fc_chains_fuse_and_match_reference() {
        let mut ctx = ExecContext::new();
        let g = mlp_graph(&mut ctx);
        let plan = ExecPlan::compile(&g, PlanOptions::default());
        // bot_fc0+relu0, bot_fc1+relu1, head+prob → 3 nodes from 6.
        assert_eq!(plan.stats().ops_before, 6);
        assert_eq!(plan.stats().ops_after, 3);
        assert_eq!(plan.stats().fused_fc, 3);

        let input = || vec![Value::dense(Tensor::filled(&[3, 6], 0.25))];
        let want = execute(&g, &mut ctx, input()).unwrap();
        let mut scratch = PlanScratch::new();
        let got = plan.execute(&mut ctx, &mut scratch, input()).unwrap();
        assert_bits_eq(&want, &got);
    }

    fn sls_fan_graph(ctx: &mut ExecContext) -> Graph {
        let mut init = ParamInit::new(9);
        let mut b = GraphBuilder::new();
        let dense = b.input("dense");
        let mut cat_in = Vec::new();
        for t in 0..3 {
            let ids = b.input(format!("ids{t}"));
            let table = EmbeddingTable::new(30, 4, 30, ctx, &mut init).unwrap();
            cat_in.push(
                b.sparse_lengths_sum(ctx, &format!("emb{t}"), table, ids)
                    .unwrap(),
            );
        }
        cat_in.push(dense);
        let c = b.concat(ctx, "cat", &cat_in).unwrap();
        let y = b.fc(ctx, &mut init, "top", c, 14, 1).unwrap();
        b.mark_output(y);
        b.finish()
    }

    fn sls_fan_inputs() -> Vec<Value> {
        vec![
            Value::dense(Tensor::filled(&[2, 2], 0.5)),
            Value::ids(IdList::new(vec![1, 2, 3], vec![2, 1])),
            Value::ids(IdList::new(vec![4, 5], vec![1, 1])),
            Value::ids(IdList::new(vec![6, 7, 8, 9], vec![2, 2])),
        ]
    }

    #[test]
    fn sls_fan_fuses_into_multi_table_lookup() {
        let mut ctx = ExecContext::new();
        let g = sls_fan_graph(&mut ctx);
        let plan = ExecPlan::compile(&g, PlanOptions::default());
        // 3 SLS + concat collapse into one node: 5 nodes → 2.
        assert_eq!(plan.stats().ops_before, 5);
        assert_eq!(plan.stats().ops_after, 2);
        assert_eq!(plan.stats().fused_tables, 3);

        let want = execute(&g, &mut ctx, sls_fan_inputs()).unwrap();
        let mut scratch = PlanScratch::new();
        let got = plan
            .execute(&mut ctx, &mut scratch, sls_fan_inputs())
            .unwrap();
        assert_bits_eq(&want, &got);
    }

    #[test]
    fn independent_nodes_share_a_wave() {
        let mut ctx = ExecContext::new();
        let mut init = ParamInit::new(2);
        let mut b = GraphBuilder::new();
        let x = b.input("x");
        // Two independent linear branches off x, then a join.
        let a = b.fc(&mut ctx, &mut init, "a", x, 4, 4).unwrap();
        let c = b.fc(&mut ctx, &mut init, "c", x, 4, 4).unwrap();
        let j = b.concat(&mut ctx, "join", &[a, c]).unwrap();
        b.mark_output(j);
        let g = b.finish();
        let plan = ExecPlan::compile(&g, PlanOptions::default());
        let layout = plan.wave_layout();
        assert_eq!(layout, vec![vec!["a", "c"], vec!["join"]]);
        assert_eq!(plan.stats().max_wave_width, 2);

        // Parallel wave execution matches the reference bit for bit.
        let input = || vec![Value::dense(Tensor::filled(&[5, 4], 1.5))];
        let want = execute(&g, &mut ctx, input()).unwrap();
        let pool = ParPool::new(4);
        let mut scratch = PlanScratch::new();
        let got =
            drec_par::with_pool(&pool, || plan.execute(&mut ctx, &mut scratch, input())).unwrap();
        assert_bits_eq(&want, &got);
    }

    #[test]
    fn compile_is_deterministic() {
        let mut ctx = ExecContext::new();
        let g = sls_fan_graph(&mut ctx);
        let a = ExecPlan::compile(&g, PlanOptions::default());
        let b = ExecPlan::compile(&g, PlanOptions::default());
        assert_eq!(a.wave_layout(), b.wave_layout());
        let (mut sa, mut sb) = (a.stats().clone(), b.stats().clone());
        sa.compile_seconds = 0.0;
        sb.compile_seconds = 0.0;
        assert_eq!(sa, sb);
    }

    #[test]
    fn output_producing_activation_still_fuses() {
        // `prob` is a graph output; the FC feeding it is internal, so the
        // pair fuses and the fused node's output is the graph output.
        let mut ctx = ExecContext::new();
        let mut init = ParamInit::new(4);
        let mut b = GraphBuilder::new();
        let x = b.input("x");
        let y = b.fc(&mut ctx, &mut init, "head", x, 4, 1).unwrap();
        let p = b.sigmoid(&mut ctx, "prob", y);
        b.mark_output(p);
        let g = b.finish();
        let plan = ExecPlan::compile(&g, PlanOptions::default());
        assert_eq!(plan.stats().fused_fc, 1);
        assert_eq!(plan.stats().ops_after, 1);
    }

    #[test]
    fn fc_output_used_twice_does_not_fuse() {
        let mut ctx = ExecContext::new();
        let mut init = ParamInit::new(4);
        let mut b = GraphBuilder::new();
        let x = b.input("x");
        let y = b.fc(&mut ctx, &mut init, "shared", x, 4, 4).unwrap();
        let r = b.relu(&mut ctx, "r", y);
        let j = b.concat(&mut ctx, "join", &[y, r]).unwrap();
        b.mark_output(j);
        let g = b.finish();
        let plan = ExecPlan::compile(&g, PlanOptions::default());
        assert_eq!(plan.stats().fused_fc, 0);
        assert_eq!(plan.stats().ops_after, 3);
        let input = || vec![Value::dense(Tensor::filled(&[2, 4], 0.3))];
        let want = execute(&g, &mut ctx, input()).unwrap();
        let mut scratch = PlanScratch::new();
        let got = plan.execute(&mut ctx, &mut scratch, input()).unwrap();
        assert_bits_eq(&want, &got);
    }

    #[test]
    fn sls_with_mean_mode_fuses_and_matches() {
        let mut ctx = ExecContext::new();
        let mut init = ParamInit::new(3);
        let mut b = GraphBuilder::new();
        let i0 = b.input("i0");
        let i1 = b.input("i1");
        let t0 = EmbeddingTable::new(16, 3, 16, &mut ctx, &mut init).unwrap();
        let t1 = EmbeddingTable::new(16, 5, 16, &mut ctx, &mut init).unwrap();
        let e0 = b
            .add(
                "mean0",
                Box::new(SparseLengthsSum::with_mode(t0, PoolMode::Mean, &mut ctx)),
                &[i0],
            )
            .unwrap();
        let e1 = b
            .add("sum1", Box::new(SparseLengthsSum::new(t1, &mut ctx)), &[i1])
            .unwrap();
        let c = b.concat(&mut ctx, "cat", &[e0, e1]).unwrap();
        b.mark_output(c);
        let g = b.finish();
        let plan = ExecPlan::compile(&g, PlanOptions::default());
        assert_eq!(plan.stats().fused_tables, 2);
        let inputs = || {
            vec![
                Value::ids(IdList::new(vec![1, 2, 3], vec![2, 1])),
                Value::ids(IdList::new(vec![4, 5], vec![0, 2])),
            ]
        };
        let want = execute(&g, &mut ctx, inputs()).unwrap();
        let mut scratch = PlanScratch::new();
        let got = plan.execute(&mut ctx, &mut scratch, inputs()).unwrap();
        assert_bits_eq(&want, &got);
    }

    #[test]
    fn wrong_input_count_is_typed_error() {
        let mut ctx = ExecContext::new();
        let g = mlp_graph(&mut ctx);
        let plan = ExecPlan::compile(&g, PlanOptions::default());
        let mut scratch = PlanScratch::new();
        assert!(matches!(
            plan.execute(&mut ctx, &mut scratch, vec![]),
            Err(GraphError::InputCount {
                expected: 1,
                actual: 0
            })
        ));
    }

    #[test]
    fn scratch_reuse_across_requests() {
        let mut ctx = ExecContext::new();
        let g = mlp_graph(&mut ctx);
        let plan = ExecPlan::compile(&g, PlanOptions::default());
        let mut scratch = PlanScratch::new();
        let input = || vec![Value::dense(Tensor::filled(&[2, 6], 0.1))];
        // Two warm-up requests populate the free lists (the caller keeps
        // each request's output buffer, so sizes rebalance once).
        let first = plan.execute(&mut ctx, &mut scratch, input()).unwrap();
        let again = plan.execute(&mut ctx, &mut scratch, input()).unwrap();
        assert_bits_eq(&first, &again);
        let warm_misses = ctx.arena_stats().misses;
        for _ in 0..5 {
            let again = plan.execute(&mut ctx, &mut scratch, input()).unwrap();
            assert_bits_eq(&first, &again);
        }
        // Steady state: no new buffer allocations once the arena warmed.
        assert_eq!(ctx.arena_stats().misses, warm_misses);
    }

    #[test]
    fn op_error_keeps_node_name() {
        let mut ctx = ExecContext::new();
        let g = mlp_graph(&mut ctx);
        let plan = ExecPlan::compile(&g, PlanOptions::default());
        let mut scratch = PlanScratch::new();
        // Wrong feature width → typed op error from the fused FC node.
        let err = plan
            .execute(
                &mut ctx,
                &mut scratch,
                vec![Value::dense(Tensor::zeros(&[2, 7]))],
            )
            .unwrap_err();
        match err {
            GraphError::Op { node, .. } => assert!(node.contains("bot_fc0")),
            other => panic!("expected op error, got {other:?}"),
        }
    }

    #[test]
    fn plan_preserves_kind_counts_via_fused_kinds() {
        // Fused ops report the dominant constituent kind, so dispatch
        // accounting still sees FC/SLS work.
        let mut ctx = ExecContext::new();
        let g = sls_fan_graph(&mut ctx);
        let plan = ExecPlan::compile(&g, PlanOptions::default());
        let kinds: Vec<OpKind> = plan.nodes.iter().map(|n| n.op.kind()).collect();
        assert!(kinds.contains(&OpKind::SparseLengthsSum));
    }
}
