//! Constructors for the eight Table I models.
//!
//! Each builder assembles an operator graph from `drec-ops` primitives at
//! either scale:
//!
//! * [`ModelScale::Paper`] mirrors the published shapes. Embedding row
//!   counts are *virtual* (production-sized for address-trace purposes,
//!   capped physically — see `drec_ops::EmbeddingTable` and DESIGN.md §5)
//!   so the Table I parameter budgets are reproduced exactly while the
//!   functional arrays stay small.
//! * [`ModelScale::Tiny`] preserves every model's topology (table counts,
//!   attention structure, GRU stacking, multi-task heads) at unit-test
//!   sizes.
//!
//! The shared [`BuildCtx`] accumulates the input contract and embedding
//! byte budget while the graph is built, then stamps the authoritative
//! parameter byte counts (measured from the finished graph, not hand
//! computed) into the model's [`ModelMeta`].

use std::sync::Arc;

use drec_graph::{GraphBuilder, GraphError, ValueId};
use drec_ops::{
    EmbeddingGather, EmbeddingTable, ExecContext, GatherMode, Gru, Mul, OpKind, PairwiseDot,
    SequenceDot, Softmax, Sum, WeightedSum,
};
use drec_store::EmbeddingStore;
use drec_tensor::ParamInit;

use crate::{InputSlot, InputSpec, ModelId, ModelMeta, ModelScale, RecModel};

/// The build's registration namespace (dense builds have one too) and
/// its optional shared store: `None` builds dense tables, `Some` registers
/// them in the store under the namespace. The model records both.
pub(crate) type StoreBinding = (u64, Option<Arc<EmbeddingStore>>);

/// Physical row cap for embedding tables (DESIGN.md §5): lookups address
/// the virtual row space for trace realism but share this many physical
/// rows of storage.
const PHYSICAL_ROW_CAP: usize = 4096;

/// Entry point used by [`ModelId::build`] and
/// [`ModelId::build_with_store`].
pub(crate) fn build(
    id: ModelId,
    scale: ModelScale,
    seed: u64,
    store: Option<Arc<EmbeddingStore>>,
) -> Result<RecModel, GraphError> {
    let store = (crate::store_namespace(id, scale, seed), store);
    match id {
        ModelId::Ncf => ncf(scale, seed, store),
        ModelId::Rm1 => rm1(scale, seed, store),
        ModelId::Rm2 => rm2(scale, seed, store),
        ModelId::Rm3 => rm3(scale, seed, store),
        ModelId::Wnd => wnd(scale, seed, store),
        ModelId::MtWnd => mt_wnd(scale, seed, store),
        ModelId::Din => din(scale, seed, store),
        ModelId::Dien => dien(scale, seed, store),
    }
}

/// Shared builder state: graph, simulated process, parameter RNG, input
/// contract, and the accumulated (virtual) embedding byte budget.
struct BuildCtx {
    /// Graph under construction.
    b: GraphBuilder,
    /// The simulated process the model lives in (address space, trace
    /// control, code regions).
    ctx: ExecContext,
    /// Deterministic parameter initialiser.
    init: ParamInit,
    spec: InputSpec,
    emb_bytes: u64,
    store: StoreBinding,
    next_ordinal: u32,
}

impl BuildCtx {
    fn new(seed: u64, store: StoreBinding) -> Self {
        BuildCtx {
            b: GraphBuilder::new(),
            ctx: ExecContext::new(),
            init: ParamInit::new(seed),
            spec: InputSpec::new(),
            emb_bytes: 0,
            store,
            next_ordinal: 0,
        }
    }

    /// Declares a dense continuous input of `width` features per sample.
    fn dense_input(&mut self, name: &str, width: usize) -> ValueId {
        self.spec.push(name, InputSlot::Dense { width });
        self.b.input(name)
    }

    /// Declares a sparse id-list input: `lookups` ids per sample drawn
    /// from `id_space`.
    fn ids_input(&mut self, name: &str, lookups: usize, id_space: usize) -> ValueId {
        self.spec.push(name, InputSlot::Ids { lookups, id_space });
        self.b.input(name)
    }

    /// Creates an embedding table with `rows` virtual rows (physically
    /// capped) and accounts its virtual bytes toward `emb_param_bytes`.
    /// With a store binding, the table registers in the shared store as
    /// ordinal N (tables are created in a deterministic order, so the
    /// ordinal identifies the same table across identically seeded
    /// builds); otherwise it owns a dense tensor.
    fn table(&mut self, rows: usize, dim: usize) -> Result<Arc<EmbeddingTable>, GraphError> {
        let ordinal = self.next_ordinal;
        self.next_ordinal += 1;
        let (namespace, store) = &self.store;
        let table = match store {
            Some(store) => EmbeddingTable::new_in_store(
                rows,
                dim,
                PHYSICAL_ROW_CAP,
                &mut self.ctx,
                &mut self.init,
                store,
                *namespace,
                ordinal,
            ),
            None => EmbeddingTable::new(rows, dim, PHYSICAL_ROW_CAP, &mut self.ctx, &mut self.init),
        }
        .map_err(|source| GraphError::Op {
            node: format!("table{ordinal}"),
            source,
        })?;
        self.emb_bytes += table.virtual_bytes();
        Ok(table)
    }

    /// Bytes of parameters in an MLP of the given widths (weights plus
    /// biases, f32), for `top_fc_weight_fraction` bookkeeping.
    fn mlp_param_bytes(in_features: usize, widths: &[usize]) -> u64 {
        let mut total = 0u64;
        let mut prev = in_features;
        for &w in widths {
            total += (prev * w + w) as u64;
            prev = w;
        }
        total * 4
    }

    /// Finalises the graph and stamps measured parameter budgets into the
    /// meta: `fc_param_bytes` comes from the finished graph (FC + GRU
    /// nodes), `emb_param_bytes` from the tables created via
    /// [`BuildCtx::table`].
    fn finish(self, id: ModelId, meta: ModelMeta) -> RecModel {
        let graph = self.b.finish();
        let fc_param_bytes = graph.param_bytes_of_kind(OpKind::Fc)
            + graph.param_bytes_of_kind(OpKind::RecurrentNetwork);
        RecModel {
            id,
            namespace: self.store.0,
            store: self.store.1,
            graph,
            ctx: self.ctx,
            spec: self.spec,
            meta: ModelMeta {
                fc_param_bytes,
                emb_param_bytes: self.emb_bytes,
                ..meta
            },
            plan: None,
            scratch: drec_graph::PlanScratch::new(),
        }
    }
}

// ---------------------------------------------------------------------------
// NCF — Neural Collaborative Filtering (MovieLens).
// ---------------------------------------------------------------------------

/// NCF: four embedding tables (user/item × MLP/GMF towers). The MLP tower
/// concatenates user and item vectors through an FC stack; the GMF tower
/// is an elementwise product; a final FC merges both into one logit.
fn ncf(scale: ModelScale, seed: u64, store: StoreBinding) -> Result<RecModel, GraphError> {
    let (user_rows, item_rows, dim, tower): (usize, usize, usize, &[usize]) = match scale {
        ModelScale::Paper => (131_072, 32_768, 64, &[448, 128, 64]),
        ModelScale::Tiny => (500, 200, 16, &[32, 16]),
    };
    let mut bc = BuildCtx::new(seed, store);

    let user_ids = bc.ids_input("user", 1, user_rows);
    let item_ids = bc.ids_input("item", 1, item_rows);

    let t_user_mlp = bc.table(user_rows, dim)?;
    let t_item_mlp = bc.table(item_rows, dim)?;
    let t_user_gmf = bc.table(user_rows, dim)?;
    let t_item_gmf = bc.table(item_rows, dim)?;

    let u_mlp =
        bc.b.sparse_lengths_sum(&mut bc.ctx, "emb_user_mlp", t_user_mlp, user_ids)?;
    let i_mlp =
        bc.b.sparse_lengths_sum(&mut bc.ctx, "emb_item_mlp", t_item_mlp, item_ids)?;
    let u_gmf =
        bc.b.sparse_lengths_sum(&mut bc.ctx, "emb_user_gmf", t_user_gmf, user_ids)?;
    let i_gmf =
        bc.b.sparse_lengths_sum(&mut bc.ctx, "emb_item_gmf", t_item_gmf, item_ids)?;

    // MLP tower over the concatenated pair; ends back at the latent dim.
    let mlp_in = bc.b.concat(&mut bc.ctx, "mlp_cat", &[u_mlp, i_mlp])?;
    let (mlp_out, mlp_w) = bc.b.mlp(
        &mut bc.ctx,
        &mut bc.init,
        "mlp",
        mlp_in,
        2 * dim,
        tower,
        false,
    )?;

    // GMF tower: elementwise product of the latent vectors.
    let gmf =
        bc.b.add("gmf", Box::new(Mul::new(&mut bc.ctx)), &[u_gmf, i_gmf])?;

    let merged = bc.b.concat(&mut bc.ctx, "neumf_cat", &[mlp_out, gmf])?;
    let logit =
        bc.b.fc(&mut bc.ctx, &mut bc.init, "predict", merged, mlp_w + dim, 1)?;
    let prob = bc.b.sigmoid(&mut bc.ctx, "prob", logit);
    bc.b.mark_output(prob);

    let meta = ModelMeta {
        name: "NCF",
        domain: "Movies",
        dataset: "MovieLens",
        use_case: "Explicit user-item interaction ranking",
        insight: "Small model with only four embedding tables",
        num_tables: 4,
        lookups_per_table: 1.0,
        latent_dim: dim,
        // Every FC sits above the embedding merge points.
        top_fc_weight_fraction: 1.0,
        has_attention: false,
        seq_len: 0,
        ..ModelMeta::default()
    };
    Ok(bc.finish(ModelId::Ncf, meta))
}

// ---------------------------------------------------------------------------
// RM1 / RM2 / RM3 — the three Facebook DLRM configurations.
// ---------------------------------------------------------------------------

/// Shape knobs for one DLRM configuration.
pub(crate) struct DlrmShape<'a> {
    pub(crate) dense: usize,
    pub(crate) bottom: &'a [usize],
    pub(crate) top: &'a [usize],
    pub(crate) tables: usize,
    pub(crate) rows: usize,
    pub(crate) dim: usize,
    pub(crate) lookups: usize,
}

/// DLRM skeleton shared by RM1–RM3 and [`crate::CustomDlrm`]: dense
/// features → bottom MLP, pooled embedding lookups, pairwise-dot feature
/// interaction, top MLP → sigmoid.
pub(crate) fn dlrm(
    id: ModelId,
    shape: &DlrmShape,
    meta: ModelMeta,
    seed: u64,
    store: StoreBinding,
) -> Result<RecModel, GraphError> {
    let latent = *shape.bottom.last().expect("non-empty bottom MLP");
    debug_assert!(
        shape.tables == 0 || latent == shape.dim,
        "bottom MLP must end at the latent dim"
    );
    let mut bc = BuildCtx::new(seed, store);

    let dense = bc.dense_input("dense", shape.dense);
    let (bottom_out, _) = bc.b.mlp(
        &mut bc.ctx,
        &mut bc.init,
        "bot",
        dense,
        shape.dense,
        shape.bottom,
        false,
    )?;

    let mut features: Vec<ValueId> = Vec::with_capacity(shape.tables + 1);
    for t in 0..shape.tables {
        let ids = bc.ids_input(&format!("ids_t{t}"), shape.lookups, shape.rows);
        let table = bc.table(shape.rows, shape.dim)?;
        let emb =
            bc.b.sparse_lengths_sum(&mut bc.ctx, &format!("emb_t{t}"), table, ids)?;
        features.push(emb);
    }
    features.push(bottom_out);

    let n = features.len();
    let pairs = n * (n - 1) / 2;
    let interact = bc.b.add(
        "interact",
        Box::new(PairwiseDot::new(&mut bc.ctx)),
        &features,
    )?;
    let top_in =
        bc.b.concat(&mut bc.ctx, "top_cat", &[interact, bottom_out])?;
    let (logit, _) = bc.b.mlp(
        &mut bc.ctx,
        &mut bc.init,
        "top",
        top_in,
        pairs + latent,
        shape.top,
        true,
    )?;
    let prob = bc.b.sigmoid(&mut bc.ctx, "prob", logit);
    bc.b.mark_output(prob);

    let bottom_bytes = BuildCtx::mlp_param_bytes(shape.dense, shape.bottom);
    let top_bytes = BuildCtx::mlp_param_bytes(pairs + latent, shape.top);
    let meta = ModelMeta {
        num_tables: shape.tables,
        lookups_per_table: shape.lookups as f64,
        latent_dim: shape.dim,
        top_fc_weight_fraction: top_bytes as f64 / (top_bytes + bottom_bytes) as f64,
        has_attention: false,
        seq_len: 0,
        ..meta
    };
    Ok(bc.finish(id, meta))
}

/// RM1: small DLRM, 8 tables × 80 lookups — embedding-lookup pressure
/// from pooling, modest FC stacks.
fn rm1(scale: ModelScale, seed: u64, store: StoreBinding) -> Result<RecModel, GraphError> {
    let shape = match scale {
        ModelScale::Paper => DlrmShape {
            // The dense path is deliberately wide relative to the tiny
            // latent dim: at batch 4 the FC weight streaming dominates,
            // flipping to SLS-dominated by batch 64 (paper Fig 6).
            dense: 352,
            bottom: &[256, 128, 32],
            top: &[96, 32, 1],
            tables: 8,
            rows: 1_000_000,
            dim: 32,
            lookups: 80,
        },
        ModelScale::Tiny => DlrmShape {
            dense: 16,
            bottom: &[16, 8],
            top: &[16, 1],
            tables: 3,
            rows: 1_000,
            dim: 8,
            lookups: 4,
        },
    };
    let meta = ModelMeta {
        name: "RM1",
        domain: "Social Media",
        dataset: "Facebook",
        use_case: "Lightweight content-feed filtering",
        insight: "Small model with medium amount (80) of lookups per embedding table",
        ..ModelMeta::default()
    };
    dlrm(ModelId::Rm1, &shape, meta, seed, store)
}

/// RM2: large DLRM, 32 tables × 120 lookups — the suite's heaviest
/// irregular-memory workload.
fn rm2(scale: ModelScale, seed: u64, store: StoreBinding) -> Result<RecModel, GraphError> {
    let shape = match scale {
        ModelScale::Paper => DlrmShape {
            dense: 256,
            bottom: &[512, 256, 64],
            top: &[256, 128, 1],
            tables: 32,
            rows: 1_000_000,
            dim: 64,
            lookups: 120,
        },
        ModelScale::Tiny => DlrmShape {
            dense: 16,
            bottom: &[16, 8],
            top: &[16, 1],
            tables: 4,
            rows: 1_000,
            dim: 8,
            lookups: 6,
        },
    };
    let meta = ModelMeta {
        name: "RM2",
        domain: "Social Media",
        dataset: "Facebook",
        use_case: "Heavyweight content-feed ranking",
        insight: "Large model with large amount (120) of lookups per embedding table",
        ..ModelMeta::default()
    };
    dlrm(ModelId::Rm2, &shape, meta, seed, store)
}

/// RM3: DLRM with the suite's largest FC stacks and few lookups —
/// compute-dominated, immediate continuous input processing.
fn rm3(scale: ModelScale, seed: u64, store: StoreBinding) -> Result<RecModel, GraphError> {
    let shape = match scale {
        ModelScale::Paper => DlrmShape {
            dense: 512,
            bottom: &[1024, 512, 64],
            top: &[1700, 1024, 512, 1],
            tables: 10,
            rows: 1_000_000,
            dim: 64,
            lookups: 20,
        },
        ModelScale::Tiny => DlrmShape {
            dense: 32,
            bottom: &[32, 8],
            top: &[32, 16, 1],
            tables: 10,
            rows: 1_000,
            dim: 8,
            lookups: 2,
        },
    };
    let meta = ModelMeta {
        name: "RM3",
        domain: "Social Media",
        dataset: "Facebook",
        use_case: "Ranking with rich continuous features",
        insight: "Large model with large FC stacks and immediate continuous input processing",
        ..ModelMeta::default()
    };
    dlrm(ModelId::Rm3, &shape, meta, seed, store)
}

// ---------------------------------------------------------------------------
// WnD / MT-WnD — Wide & Deep and its multi-task extension.
// ---------------------------------------------------------------------------

/// Shape knobs shared by WnD and MT-WnD.
struct WndShape {
    dense: usize,
    tables: usize,
    rows: usize,
    dim: usize,
    deep: &'static [usize],
}

fn wnd_shape(
    scale: ModelScale,
    deep_paper: &'static [usize],
    deep_tiny: &'static [usize],
) -> WndShape {
    match scale {
        ModelScale::Paper => WndShape {
            dense: 256,
            tables: 26,
            rows: 100_000,
            dim: 32,
            deep: deep_paper,
        },
        ModelScale::Tiny => WndShape {
            dense: 16,
            tables: 26,
            rows: 500,
            dim: 8,
            deep: deep_tiny,
        },
    }
}

/// Builds the common WnD trunk: dense input, one-lookup embedding tables,
/// the wide linear logit, and the concatenated deep-stack input. Returns
/// `(wide_logit, deep_in, deep_in_width)`.
fn wnd_trunk(bc: &mut BuildCtx, shape: &WndShape) -> Result<(ValueId, ValueId, usize), GraphError> {
    let dense = bc.dense_input("dense", shape.dense);

    let mut deep_feats: Vec<ValueId> = Vec::with_capacity(shape.tables + 1);
    for t in 0..shape.tables {
        let ids = bc.ids_input(&format!("cat_t{t}"), 1, shape.rows);
        let table = bc.table(shape.rows, shape.dim)?;
        let emb =
            bc.b.sparse_lengths_sum(&mut bc.ctx, &format!("emb_t{t}"), table, ids)?;
        deep_feats.push(emb);
    }
    deep_feats.push(dense);

    // Wide component: a single linear layer over the dense features
    // (stands in for the cross-product transform of the paper).
    let wide_logit =
        bc.b.fc(&mut bc.ctx, &mut bc.init, "wide", dense, shape.dense, 1)?;

    let deep_in = bc.b.concat(&mut bc.ctx, "deep_cat", &deep_feats)?;
    let deep_w = shape.tables * shape.dim + shape.dense;
    Ok((wide_logit, deep_in, deep_w))
}

/// WnD: 26 one-lookup tables feeding a large deep FC stack, summed with a
/// wide linear logit (Google Play Store app ranking).
fn wnd(scale: ModelScale, seed: u64, store: StoreBinding) -> Result<RecModel, GraphError> {
    let shape = wnd_shape(scale, &[896, 512, 256, 1], &[32, 16, 1]);
    let mut bc = BuildCtx::new(seed, store);

    let (wide_logit, deep_in, deep_w) = wnd_trunk(&mut bc, &shape)?;
    let (deep_logit, _) = bc.b.mlp(
        &mut bc.ctx,
        &mut bc.init,
        "deep",
        deep_in,
        deep_w,
        shape.deep,
        true,
    )?;
    let logit = bc.b.add(
        "wide_deep_sum",
        Box::new(Sum::new(&mut bc.ctx)),
        &[deep_logit, wide_logit],
    )?;
    let prob = bc.b.sigmoid(&mut bc.ctx, "prob", logit);
    bc.b.mark_output(prob);

    let meta = ModelMeta {
        name: "WnD",
        domain: "Smartphone Applications",
        dataset: "Google Play Store",
        use_case: "App-store recommendation with memorization + generalization",
        insight: "Medium model with large FC stacks",
        num_tables: shape.tables,
        lookups_per_table: 1.0,
        latent_dim: shape.dim,
        // The whole deep stack sits above the embedding concat.
        top_fc_weight_fraction: 1.0,
        has_attention: false,
        seq_len: 0,
        ..ModelMeta::default()
    };
    Ok(bc.finish(ModelId::Wnd, meta))
}

/// MT-WnD: the WnD trunk with a shared deep stack fanning out into
/// parallel per-objective FC heads (YouTube multi-task ranking), one
/// graph output per objective.
fn mt_wnd(scale: ModelScale, seed: u64, store: StoreBinding) -> Result<RecModel, GraphError> {
    let shape = wnd_shape(scale, &[896, 512, 256], &[32, 16]);
    let (heads, head): (usize, &[usize]) = match scale {
        ModelScale::Paper => (7, &[256, 128, 32, 1]),
        ModelScale::Tiny => (2, &[8, 1]),
    };
    let mut bc = BuildCtx::new(seed, store);

    let (wide_logit, deep_in, deep_w) = wnd_trunk(&mut bc, &shape)?;
    let (shared, shared_w) = bc.b.mlp(
        &mut bc.ctx,
        &mut bc.init,
        "deep",
        deep_in,
        deep_w,
        shape.deep,
        false,
    )?;

    // One output per objective: each head's logit is summed with the
    // shared wide logit and squashed independently.
    for h in 0..heads {
        let (head_logit, _) = bc.b.mlp(
            &mut bc.ctx,
            &mut bc.init,
            &format!("head{h}"),
            shared,
            shared_w,
            head,
            true,
        )?;
        let merged = bc.b.add(
            format!("head{h}_sum"),
            Box::new(Sum::new(&mut bc.ctx)),
            &[head_logit, wide_logit],
        )?;
        let prob = bc.b.sigmoid(&mut bc.ctx, &format!("head{h}_prob"), merged);
        bc.b.mark_output(prob);
    }

    let meta = ModelMeta {
        name: "MT-WnD",
        domain: "Video",
        dataset: "YouTube",
        use_case: "Multi-objective video ranking (engagement + satisfaction)",
        insight: "Large model with multiple parallel FC stacks on top of WnD",
        num_tables: shape.tables,
        lookups_per_table: 1.0,
        latent_dim: shape.dim,
        top_fc_weight_fraction: 1.0,
        has_attention: false,
        seq_len: 0,
        ..ModelMeta::default()
    };
    Ok(bc.finish(ModelId::MtWnd, meta))
}

// ---------------------------------------------------------------------------
// DIN / DIEN — Alibaba's attention-based behaviour-sequence models.
// ---------------------------------------------------------------------------

/// DIN: a behaviour sequence of goods ids is matched against the
/// candidate item by per-position *local activation units* (small
/// two-layer MLPs on `[h_t, cand, h_t·cand]`), whose softmaxed scores
/// weight the sequence into one interest vector. Hundreds of distinct
/// small operator instances is exactly what gives DIN the suite's worst
/// instruction-cache behaviour.
fn din(scale: ModelScale, seed: u64, store: StoreBinding) -> Result<RecModel, GraphError> {
    let (rows, dim, seq_len, att_hidden, top): (usize, usize, usize, usize, &[usize]) = match scale
    {
        ModelScale::Paper => (400_000, 32, 192, 16, &[960, 256, 1]),
        ModelScale::Tiny => (1_000, 8, 8, 4, &[16, 1]),
    };
    let mut bc = BuildCtx::new(seed, store);

    // Inputs: the behaviour sequence, the candidate item, plus
    // single-lookup profile/context features.
    let behaviour = bc.ids_input("behaviour", seq_len, rows);
    let candidate = bc.ids_input("candidate", 1, rows);
    let profile_names: &[&str] = match scale {
        ModelScale::Paper => &["user", "shop", "cate", "context"],
        ModelScale::Tiny => &["user", "cate"],
    };
    let profile_ids: Vec<ValueId> = profile_names
        .iter()
        .map(|n| bc.ids_input(n, 1, rows))
        .collect();

    let t_seq = bc.table(rows, dim)?;
    let t_cand = bc.table(rows, dim)?;
    // The candidate is a single-position gather from its goods table.
    let cand_emb = bc.b.add(
        "emb_cand",
        Box::new(EmbeddingGather::new(
            t_cand,
            GatherMode::Position(0),
            &mut bc.ctx,
        )),
        &[candidate],
    )?;
    let mut profile_embs: Vec<ValueId> = Vec::with_capacity(profile_names.len());
    for (name, ids) in profile_names.iter().zip(&profile_ids) {
        let table = bc.table(rows, dim)?;
        let emb =
            bc.b.sparse_lengths_sum(&mut bc.ctx, &format!("emb_{name}"), table, *ids)?;
        profile_embs.push(emb);
    }

    // One local activation unit per sequence position: distinct operator
    // instances, as a framework would dispatch them. Faithful to the DIN
    // paper, the activation weights are used *without* softmax
    // normalisation: each position's embedding is scaled by its unit's
    // score and the scaled vectors are summed into the interest vector.
    let mut scaled: Vec<ValueId> = Vec::with_capacity(seq_len);
    for t in 0..seq_len {
        let h_t = bc.b.add(
            format!("att{t}_h"),
            Box::new(EmbeddingGather::new(
                Arc::clone(&t_seq),
                GatherMode::Position(t),
                &mut bc.ctx,
            )),
            &[behaviour],
        )?;
        let cross = bc.b.add(
            format!("att{t}_x"),
            Box::new(Mul::new(&mut bc.ctx)),
            &[h_t, cand_emb],
        )?;
        let unit_in =
            bc.b.concat(&mut bc.ctx, &format!("att{t}_cat"), &[h_t, cand_emb, cross])?;
        let hid = bc.b.fc(
            &mut bc.ctx,
            &mut bc.init,
            &format!("att{t}_fc1"),
            unit_in,
            3 * dim,
            att_hidden,
        )?;
        let act = bc.b.relu(&mut bc.ctx, &format!("att{t}_relu"), hid);
        let score = bc.b.fc(
            &mut bc.ctx,
            &mut bc.init,
            &format!("att{t}_fc2"),
            act,
            att_hidden,
            1,
        )?;
        let weighted = bc.b.add(
            format!("att{t}_scale"),
            Box::new(Mul::new(&mut bc.ctx)),
            &[h_t, score],
        )?;
        scaled.push(weighted);
    }

    let pooled =
        bc.b.add("interest", Box::new(Sum::new(&mut bc.ctx)), &scaled)?;

    let mut top_feats = vec![pooled, cand_emb];
    top_feats.extend(&profile_embs);
    let top_in = bc.b.concat(&mut bc.ctx, "top_cat", &top_feats)?;
    let top_w = (2 + profile_embs.len()) * dim;
    let (logit, _) =
        bc.b.mlp(&mut bc.ctx, &mut bc.init, "top", top_in, top_w, top, true)?;
    let prob = bc.b.sigmoid(&mut bc.ctx, "prob", logit);
    bc.b.mark_output(prob);

    let tables = 2 + profile_names.len();
    let unit_bytes = (seq_len as u64)
        * (BuildCtx::mlp_param_bytes(3 * dim, &[att_hidden])
            + BuildCtx::mlp_param_bytes(att_hidden, &[1]));
    let top_bytes = BuildCtx::mlp_param_bytes(top_w, top);
    let meta = ModelMeta {
        name: "DIN",
        domain: "E-Commerce",
        dataset: "Alibaba",
        use_case: "Click-through prediction over user behaviour sequences",
        insight:
            "Large model with local activation weights for a large amount of behaviour lookups",
        num_tables: tables,
        lookups_per_table: (seq_len + 1 + profile_names.len()) as f64 / tables as f64,
        latent_dim: dim,
        // The activation units *are* the interaction; only the top MLP
        // sits above it.
        top_fc_weight_fraction: top_bytes as f64 / (top_bytes + unit_bytes) as f64,
        has_attention: true,
        seq_len,
        ..ModelMeta::default()
    };
    Ok(bc.finish(ModelId::Din, meta))
}

/// DIEN: replaces DIN's per-position activation units with two stacked
/// GRUs over the behaviour sequence (interest extraction + evolution),
/// attention-pooled against the candidate item.
fn dien(scale: ModelScale, seed: u64, store: StoreBinding) -> Result<RecModel, GraphError> {
    // The GRU hidden state is wider than the embedding dim: interest
    // evolution carries more state than one item embedding, and the gate
    // matmuls are what make DIEN compute- rather than dispatch-bound
    // (keeping its i-cache MPKI well below DIN's despite the per-timestep
    // RecurrentNetwork dispatch).
    let (rows, dim, hidden, seq_len, top): (usize, usize, usize, usize, &[usize]) = match scale {
        ModelScale::Paper => (550_000, 32, 96, 49, &[64, 1]),
        ModelScale::Tiny => (1_000, 8, 8, 6, &[16, 1]),
    };
    let mut bc = BuildCtx::new(seed, store);

    let behaviour = bc.ids_input("behaviour", seq_len, rows);
    let candidate = bc.ids_input("candidate", 1, rows);
    let user = bc.ids_input("user", 1, rows);
    let context = bc.ids_input("context", 1, rows);

    let t_seq = bc.table(rows, dim)?;
    let t_cand = bc.table(rows, dim)?;
    let t_user = bc.table(rows, dim)?;
    let t_ctx = bc.table(rows, dim)?;

    let cand_emb =
        bc.b.sparse_lengths_sum(&mut bc.ctx, "emb_cand", t_cand, candidate)?;
    let user_emb =
        bc.b.sparse_lengths_sum(&mut bc.ctx, "emb_user", t_user, user)?;
    let ctx_emb =
        bc.b.sparse_lengths_sum(&mut bc.ctx, "emb_ctx", t_ctx, context)?;

    let seq_emb = bc.b.add(
        "seq_emb",
        Box::new(EmbeddingGather::new(
            t_seq,
            GatherMode::FullSequence,
            &mut bc.ctx,
        )),
        &[behaviour],
    )?;

    // Interest extraction + interest evolution layers.
    let gru1 = bc.b.add(
        "gru_extract",
        Box::new(Gru::new(dim, hidden, true, &mut bc.ctx, &mut bc.init)),
        &[seq_emb],
    )?;
    let gru2 = bc.b.add(
        "gru_evolve",
        Box::new(Gru::new(hidden, hidden, true, &mut bc.ctx, &mut bc.init)),
        &[gru1],
    )?;

    // Attention of evolved interests against the candidate, projected
    // into the GRU state space.
    let query = bc.b.fc(
        &mut bc.ctx,
        &mut bc.init,
        "att_query",
        cand_emb,
        dim,
        hidden,
    )?;
    let att = bc.b.add(
        "att_dot",
        Box::new(SequenceDot::new(&mut bc.ctx)),
        &[gru2, query],
    )?;
    let weights =
        bc.b.add("att_softmax", Box::new(Softmax::new(&mut bc.ctx)), &[att])?;
    let pooled = bc.b.add(
        "interest",
        Box::new(WeightedSum::new(&mut bc.ctx)),
        &[gru2, weights],
    )?;

    let top_in = bc.b.concat(
        &mut bc.ctx,
        "top_cat",
        &[pooled, cand_emb, user_emb, ctx_emb],
    )?;
    let top_w = hidden + 3 * dim;
    let (logit, _) =
        bc.b.mlp(&mut bc.ctx, &mut bc.init, "top", top_in, top_w, top, true)?;
    let prob = bc.b.sigmoid(&mut bc.ctx, "prob", logit);
    bc.b.mark_output(prob);

    // GRU weights: W [3h,in] + U [3h,h] + bias [3h] per layer, f32. The
    // query projection belongs to the interaction, like the GRUs.
    let gru_bytes = ((3 * hidden * dim + 3 * hidden * hidden + 3 * hidden)
        + (3 * hidden * hidden + 3 * hidden * hidden + 3 * hidden)) as u64
        * 4
        + BuildCtx::mlp_param_bytes(dim, &[hidden]);
    let top_bytes = BuildCtx::mlp_param_bytes(top_w, top);
    let meta = ModelMeta {
        name: "DIEN",
        domain: "E-Commerce",
        dataset: "Alibaba - Taobao",
        use_case: "Click-through prediction with evolving interest modelling",
        insight: "Medium model with interaction GRUs replacing DIN's many lookups",
        num_tables: 4,
        lookups_per_table: (seq_len + 3) as f64 / 4.0,
        latent_dim: dim,
        top_fc_weight_fraction: top_bytes as f64 / (top_bytes + gru_bytes) as f64,
        has_attention: true,
        seq_len,
        ..ModelMeta::default()
    };
    Ok(bc.finish(ModelId::Dien, meta))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelId;
    use drec_ops::{IdList, Value};

    /// Generates batch-2 inputs matching `spec` (the workload crate's
    /// generator sits above this crate in the dependency graph).
    fn inputs_for(spec: &InputSpec, batch: usize) -> Vec<Value> {
        let mut rng = ParamInit::new(13);
        spec.slots()
            .iter()
            .map(|(_, slot)| match slot {
                InputSlot::Dense { width } => {
                    Value::dense(rng.uniform(&[batch, *width], -1.0, 1.0))
                }
                InputSlot::Ids { lookups, id_space } => {
                    let ids: Vec<u32> = (0..batch * lookups)
                        .map(|_| rng.next_index(*id_space) as u32)
                        .collect();
                    Value::ids(IdList::new(ids, vec![*lookups as u32; batch]))
                }
            })
            .collect()
    }

    #[test]
    fn all_models_build_and_run_at_tiny() {
        for id in ModelId::ALL {
            let mut model = id.build(ModelScale::Tiny, 11).unwrap();
            let inputs = inputs_for(&model.spec().clone(), 2);
            let out = model.run(inputs).unwrap();
            let dims = out[0].as_dense().unwrap().dims().to_vec();
            assert_eq!(dims[0], 2, "{id}: batch dim");
            assert!(model.meta().fc_param_bytes > 0, "{id}: fc bytes");
            assert!(model.meta().emb_param_bytes > 0, "{id}: emb bytes");
        }
    }

    #[test]
    fn paper_scale_matches_table1_budgets() {
        // (model, fc MB, emb MB) as published in results/table1.txt; fc to
        // one decimal, emb to the nearest MB.
        let expected: [(ModelId, f64, f64); 8] = [
            (ModelId::Ncf, 0.5, 84.0),
            (ModelId::Rm1, 0.5, 1024.0),
            (ModelId::Rm2, 1.9, 8192.0),
            (ModelId::Rm3, 14.2, 2560.0),
            (ModelId::Wnd, 6.3, 333.0),
            (ModelId::MtWnd, 9.1, 333.0),
            (ModelId::Din, 2.9, 307.0),
            (ModelId::Dien, 0.4, 282.0),
        ];
        for (id, fc_mb, emb_mb) in expected {
            let model = id.build(ModelScale::Paper, 1).unwrap();
            let meta = model.meta();
            let fc = (meta.fc_param_bytes as f64 / 1e6 * 10.0).round() / 10.0;
            let emb = (meta.emb_param_bytes as f64 / 1e6).round();
            assert!((fc - fc_mb).abs() < 1e-9, "{id}: fc {fc} != {fc_mb}");
            assert!((emb - emb_mb).abs() < 1e-9, "{id}: emb {emb} != {emb_mb}");
        }
    }

    #[test]
    fn table_counts_and_flags_match_table1() {
        let cases: [(ModelId, usize, usize, bool, usize); 8] = [
            (ModelId::Ncf, 4, 64, false, 0),
            (ModelId::Rm1, 8, 32, false, 0),
            (ModelId::Rm2, 32, 64, false, 0),
            (ModelId::Rm3, 10, 64, false, 0),
            (ModelId::Wnd, 26, 32, false, 0),
            (ModelId::MtWnd, 26, 32, false, 0),
            (ModelId::Din, 6, 32, true, 192),
            (ModelId::Dien, 4, 32, true, 49),
        ];
        for (id, tables, dim, attention, seq) in cases {
            let model = id.build(ModelScale::Paper, 1).unwrap();
            let meta = model.meta();
            assert_eq!(meta.num_tables, tables, "{id}: tables");
            assert_eq!(meta.latent_dim, dim, "{id}: dim");
            assert_eq!(meta.has_attention, attention, "{id}: attention");
            assert_eq!(meta.seq_len, seq, "{id}: seq_len");
        }
    }

    #[test]
    fn din_has_hundreds_of_operator_nodes_at_paper_scale() {
        let model = ModelId::Din.build(ModelScale::Paper, 1).unwrap();
        assert!(
            model.graph().len() > 1000,
            "DIN needs per-position activation units for its icache \
             footprint, got {} nodes",
            model.graph().len()
        );
    }

    #[test]
    fn rm3_has_largest_fc_budget_among_dlrms() {
        let rm1 = ModelId::Rm1.build(ModelScale::Paper, 1).unwrap();
        let rm2 = ModelId::Rm2.build(ModelScale::Paper, 1).unwrap();
        let rm3 = ModelId::Rm3.build(ModelScale::Paper, 1).unwrap();
        assert!(rm3.meta().fc_param_bytes > 5 * rm1.meta().fc_param_bytes);
        assert!(rm3.meta().fc_param_bytes > 5 * rm2.meta().fc_param_bytes);
    }

    #[test]
    fn builds_are_deterministic_per_seed() {
        let a = ModelId::Rm1.build(ModelScale::Tiny, 5).unwrap();
        let b = ModelId::Rm1.build(ModelScale::Tiny, 5).unwrap();
        assert_eq!(a.meta(), b.meta());
        assert_eq!(a.graph().len(), b.graph().len());
    }

    #[test]
    fn store_backed_f32_build_matches_plain_build_bit_for_bit() {
        use drec_store::{EmbeddingStore, RowEncoding, StoreConfig};

        let store = Arc::new(EmbeddingStore::new(StoreConfig {
            encoding: RowEncoding::F32,
            cache_capacity_rows: 512,
            ..StoreConfig::default()
        }));
        let mut plain = ModelId::Rm1.build(ModelScale::Tiny, 9).unwrap();
        let mut stored = ModelId::Rm1
            .build_with_store(ModelScale::Tiny, 9, Arc::clone(&store))
            .unwrap();
        assert_eq!(plain.meta(), stored.meta());

        let spec = plain.spec().clone();
        for round in 0..2 {
            let out_p = plain.run(inputs_for(&spec, 4)).unwrap();
            let out_s = stored.run(inputs_for(&spec, 4)).unwrap();
            let (p, s) = (
                out_p[0].as_dense().unwrap().as_slice(),
                out_s[0].as_dense().unwrap().as_slice(),
            );
            for (a, b) in p.iter().zip(s) {
                assert_eq!(a.to_bits(), b.to_bits(), "round {round}");
            }
        }
    }

    #[test]
    fn identically_seeded_store_builds_share_tables() {
        use drec_store::{EmbeddingStore, StoreConfig};

        let store = Arc::new(EmbeddingStore::new(StoreConfig::default()));
        let a = ModelId::Rm1
            .build_with_store(ModelScale::Tiny, 5, Arc::clone(&store))
            .unwrap();
        let _b = ModelId::Rm1
            .build_with_store(ModelScale::Tiny, 5, Arc::clone(&store))
            .unwrap();
        // Worker replicas dedupe to one parameter copy...
        assert_eq!(store.stats().tables, a.meta().num_tables);
        // ...while a different seed registers fresh tables.
        let _c = ModelId::Rm1
            .build_with_store(ModelScale::Tiny, 6, Arc::clone(&store))
            .unwrap();
        assert_eq!(store.stats().tables, 2 * a.meta().num_tables);
    }
}
