//! Fused operators produced by the `drec-graph` plan compiler.
//!
//! Fusion here is *strictly* a scheduling rewrite: each fused op performs
//! the exact floating-point operations of its constituents in the exact
//! order the unfused graph would, so outputs are bit-identical to the
//! reference executor. Under tracing the fused ops delegate to the
//! constituent operators they wrap (with the original node names), so
//! per-kernel trace totals — the paper's Fig 6/7 breakdowns — are
//! unchanged by fusion.

use std::sync::Arc;

use drec_tensor::Tensor;

use crate::elementwise::ActivationKind;
use crate::embedding::{check_ids_in_range, pool_segment, sample_chunk_elems, segment_starts};
use crate::op::check_arity;
use crate::{
    Activation, Concat, ExecContext, FullyConnected, OpError, OpKind, Operator, Result,
    SparseLengthsSum, Value,
};

/// `FC → activation` collapsed into one pass: the bias add and the
/// non-linearity are applied in the same loop over the GEMM output, saving
/// one full stream over the activation tensor plus an operator dispatch.
///
/// Bit-identity: the unfused pair computes `y = act(x·Wᵀ + b)` with the
/// intermediate stored to an `f32` buffer between the two ops; storing and
/// reloading an `f32` is exact, so `act(v + b)` applied in-loop produces
/// the same bits.
#[derive(Debug)]
pub struct FusedFc {
    fc: Arc<dyn Operator>,
    act: Arc<dyn Operator>,
    fc_name: String,
    act_name: String,
    act_kind: ActivationKind,
}

impl FusedFc {
    /// Fuses an [`FullyConnected`] op with the [`Activation`] consuming
    /// it. Returns `None` when either op is not of the required concrete
    /// type (the plan compiler probes arbitrary node pairs).
    pub fn fuse(
        fc: Arc<dyn Operator>,
        act: Arc<dyn Operator>,
        fc_name: impl Into<String>,
        act_name: impl Into<String>,
    ) -> Option<Self> {
        fc.as_any()?.downcast_ref::<FullyConnected>()?;
        let act_kind = act
            .as_any()?
            .downcast_ref::<Activation>()?
            .activation_kind();
        Some(FusedFc {
            fc,
            act,
            fc_name: fc_name.into(),
            act_name: act_name.into(),
            act_kind,
        })
    }

    /// Names of the constituent graph nodes `(fc, activation)`.
    pub fn constituent_names(&self) -> (&str, &str) {
        (&self.fc_name, &self.act_name)
    }

    fn fc_ref(&self) -> &FullyConnected {
        self.fc
            .as_any()
            .and_then(|a| a.downcast_ref::<FullyConnected>())
            .expect("concrete type verified in FusedFc::fuse")
    }
}

impl Operator for FusedFc {
    fn kind(&self) -> OpKind {
        OpKind::Fc
    }

    fn param_bytes(&self) -> u64 {
        self.fc.param_bytes()
    }

    fn run(&self, ctx: &mut ExecContext, inputs: &[&Value]) -> Result<Value> {
        check_arity("FusedFC", inputs, 1)?;
        let fc = self.fc_ref();
        let x = inputs[0].dense_ref("FusedFC")?;
        let (batch, in_f) = x.shape().as_matrix()?;
        if in_f != fc.in_features() {
            return Err(OpError::InvalidInput {
                op: "FusedFC",
                message: format!(
                    "input features {in_f} != layer in_features {}",
                    fc.in_features()
                ),
            });
        }
        let out_f = fc.out_features();
        let mut buf = ctx.take_buffer(batch * out_f);
        // Shares the constituent FC's swappable parameter handle, so a
        // live weight swap reaches the fused op too.
        let params = fc.params();
        x.matmul_transposed_into(&params.weights, &mut buf)?;
        let bias = params.bias.as_slice();
        for row in buf.chunks_mut(out_f.max(1)) {
            for (v, b) in row.iter_mut().zip(bias) {
                *v = self.act_kind.apply(*v + b);
            }
        }
        let mut out = Value::dense(Tensor::from_pooled(buf, &[batch, out_f]));
        out.addr = ctx.alloc_activation((batch * out_f * 4) as u64);
        Ok(out)
    }

    fn execute(&self, ctx: &mut ExecContext, _name: &str, inputs: &[&Value]) -> Result<Value> {
        if ctx.tracing_enabled() {
            // Constituent attribution: run the original ops under their
            // original node names so the trace is that of the unfused
            // graph.
            let mid = self.fc.execute(ctx, &self.fc_name, inputs)?;
            let out = self.act.execute(ctx, &self.act_name, &[&mid])?;
            ctx.recycle_value(mid);
            Ok(out)
        } else {
            self.run(ctx, inputs)
        }
    }
}

/// One position of a [`MultiTableSls`]'s output layout.
#[derive(Debug)]
pub enum FusedConcatInput {
    /// A [`SparseLengthsSum`] absorbed into the fused lookup. The fused
    /// node's input at this position is the SLS's id list.
    Pooled {
        /// The absorbed pooled-lookup operator.
        op: Arc<dyn Operator>,
        /// Its original graph node name (trace attribution).
        name: String,
    },
    /// A dense value forwarded to the concat output unchanged; the fused
    /// node's input at this position is that value.
    Pass,
}

/// N per-table `SparseLengthsSum` nodes feeding one `Concat`, merged into
/// a single batched multi-table lookup that pools each table's rows
/// directly into its slice of the concatenated output (non-SLS concat
/// inputs are copied through like the original concat).
///
/// Bit-identity: per sample and per table the row additions happen in the
/// unfused order into a zeroed segment, exactly as the standalone SLS
/// pooled into a zeroed buffer that the concat then copied.
#[derive(Debug)]
pub struct MultiTableSls {
    sources: Vec<FusedConcatInput>,
    concat: Arc<dyn Operator>,
    concat_name: String,
}

impl MultiTableSls {
    /// Fuses `sources` (at least two of them pooled lookups) with the
    /// `concat` consuming them. Returns `None` when the ops are not of
    /// the required concrete types.
    pub fn fuse(
        sources: Vec<FusedConcatInput>,
        concat: Arc<dyn Operator>,
        concat_name: impl Into<String>,
    ) -> Option<Self> {
        concat.as_any()?.downcast_ref::<Concat>()?;
        let mut pooled = 0usize;
        for s in &sources {
            if let FusedConcatInput::Pooled { op, .. } = s {
                op.as_any()?.downcast_ref::<SparseLengthsSum>()?;
                pooled += 1;
            }
        }
        if pooled < 2 || sources.len() < 2 {
            return None;
        }
        Some(MultiTableSls {
            sources,
            concat,
            concat_name: concat_name.into(),
        })
    }

    /// Number of embedding tables merged into this lookup.
    pub fn table_count(&self) -> usize {
        self.sources
            .iter()
            .filter(|s| matches!(s, FusedConcatInput::Pooled { .. }))
            .count()
    }

    fn sls_ref(op: &Arc<dyn Operator>) -> &SparseLengthsSum {
        op.as_any()
            .and_then(|a| a.downcast_ref::<SparseLengthsSum>())
            .expect("concrete type verified in MultiTableSls::fuse")
    }

    fn check_input_count(&self, inputs: &[&Value]) -> Result<()> {
        if inputs.len() != self.sources.len() {
            return Err(OpError::ArityMismatch {
                op: "MultiTableSLS",
                expected: self.sources.len(),
                actual: inputs.len(),
            });
        }
        Ok(())
    }
}

/// Per-position gather state for the fused lookup loop.
#[derive(Debug)]
enum Segment<'a> {
    Pooled {
        sls: &'a SparseLengthsSum,
        ids: &'a crate::IdList,
        starts: Vec<usize>,
    },
    Pass {
        data: &'a [f32],
    },
}

impl Operator for MultiTableSls {
    fn kind(&self) -> OpKind {
        OpKind::SparseLengthsSum
    }

    fn param_bytes(&self) -> u64 {
        self.sources
            .iter()
            .map(|s| match s {
                FusedConcatInput::Pooled { op, .. } => op.param_bytes(),
                FusedConcatInput::Pass => 0,
            })
            .sum()
    }

    fn run(&self, ctx: &mut ExecContext, inputs: &[&Value]) -> Result<Value> {
        self.check_input_count(inputs)?;
        let mut batch: Option<usize> = None;
        let mut widths = Vec::with_capacity(self.sources.len());
        let mut segments = Vec::with_capacity(self.sources.len());
        for (src, input) in self.sources.iter().zip(inputs) {
            let (rows, width, seg) = match src {
                FusedConcatInput::Pooled { op, .. } => {
                    let sls = Self::sls_ref(op);
                    let ids = input.ids_ref("SparseLengthsSum")?;
                    check_ids_in_range("SparseLengthsSum", &ids.ids, sls.table())?;
                    let seg = Segment::Pooled {
                        sls,
                        ids,
                        starts: segment_starts(&ids.lengths),
                    };
                    (ids.batch(), sls.table().dim(), seg)
                }
                FusedConcatInput::Pass => {
                    let t = input.dense_ref("Concat")?;
                    let (rows, cols) = t.shape().as_matrix()?;
                    (rows, cols, Segment::Pass { data: t.as_slice() })
                }
            };
            match batch {
                None => batch = Some(rows),
                Some(b) if b != rows => {
                    return Err(OpError::InvalidInput {
                        op: "MultiTableSLS",
                        message: format!("row mismatch: {b} vs {rows}"),
                    })
                }
                _ => {}
            }
            widths.push(width);
            segments.push(seg);
        }
        let batch = batch.unwrap_or(0);
        let total: usize = widths.iter().sum();
        let mut offsets = Vec::with_capacity(widths.len());
        let mut off = 0usize;
        for &w in &widths {
            offsets.push(off);
            off += w;
        }

        let mut out = Tensor::from_pooled(ctx.take_buffer(batch * total), &[batch, total]);
        if total > 0 && batch > 0 {
            // Samples are independent: fan out over the pool in
            // sample-aligned chunks, keeping per-sample accumulation order
            // unchanged — bit-identical to the serial unfused path.
            let pool = drec_par::current();
            let chunk = sample_chunk_elems(batch, total, pool.threads());
            pool.for_each_chunk_mut(out.as_mut_slice(), chunk, |offset, block| {
                let first = offset / total;
                for (s, row) in block.chunks_mut(total).enumerate() {
                    let sample = first + s;
                    for (i, segment) in segments.iter().enumerate() {
                        let (off, w) = (offsets[i], widths[i]);
                        let dst = &mut row[off..off + w];
                        match segment {
                            Segment::Pooled { sls, ids, starts } => {
                                let len = ids.lengths[sample];
                                let start = starts[sample];
                                sls.table()
                                    .sum_rows(&ids.ids[start..start + len as usize], dst);
                                pool_segment(dst, sls.mode(), len);
                            }
                            Segment::Pass { data } => {
                                dst.copy_from_slice(&data[sample * w..(sample + 1) * w]);
                            }
                        }
                    }
                }
            });
        }
        let mut v = Value::dense(out);
        v.addr = ctx.alloc_activation((batch * total * 4) as u64);
        Ok(v)
    }

    fn execute(&self, ctx: &mut ExecContext, _name: &str, inputs: &[&Value]) -> Result<Value> {
        if !ctx.tracing_enabled() {
            return self.run(ctx, inputs);
        }
        // Constituent attribution: run each absorbed SLS and the original
        // concat under their original node names.
        self.check_input_count(inputs)?;
        let mut pooled_vals: Vec<Option<Value>> = Vec::with_capacity(self.sources.len());
        for (src, input) in self.sources.iter().zip(inputs) {
            match src {
                FusedConcatInput::Pooled { op, name } => {
                    pooled_vals.push(Some(op.execute(ctx, name, &[input])?));
                }
                FusedConcatInput::Pass => pooled_vals.push(None),
            }
        }
        let refs: Vec<&Value> = pooled_vals
            .iter()
            .zip(inputs)
            .map(|(pooled, &input)| pooled.as_ref().unwrap_or(input))
            .collect();
        let out = self.concat.execute(ctx, &self.concat_name, &refs)?;
        drop(refs);
        for v in pooled_vals.into_iter().flatten() {
            ctx.recycle_value(v);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EmbeddingTable, IdList, PoolMode};
    use drec_tensor::ParamInit;

    fn setup() -> (ExecContext, ParamInit) {
        (ExecContext::with_tracing(1 << 16), ParamInit::new(11))
    }

    fn arc(op: impl Operator + 'static) -> Arc<dyn Operator> {
        Arc::new(op)
    }

    #[test]
    fn fused_fc_matches_fc_then_activation_bitwise() {
        for kind in [
            ActivationKind::Relu,
            ActivationKind::Sigmoid,
            ActivationKind::Tanh,
        ] {
            let (mut ctx, mut init) = setup();
            ctx.set_tracing(false);
            let fc = arc(FullyConnected::new(6, 5, &mut ctx, &mut init));
            let act = arc(Activation::new(kind, &mut ctx));
            let x = ctx.external_input(Value::dense(init.uniform(&[4, 6], -2.0, 2.0)));

            let mid = fc.run(&mut ctx, &[&x]).unwrap();
            let want = act.run(&mut ctx, &[&mid]).unwrap();

            let fused = FusedFc::fuse(fc, act, "fc", "act").unwrap();
            let got = fused.run(&mut ctx, &[&x]).unwrap();
            for (a, b) in want
                .as_dense()
                .unwrap()
                .as_slice()
                .iter()
                .zip(got.as_dense().unwrap().as_slice())
            {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn fused_fc_traced_emits_constituent_records() {
        let (mut ctx, mut init) = setup();
        let fc = arc(FullyConnected::new(4, 3, &mut ctx, &mut init));
        let act = arc(Activation::new(ActivationKind::Relu, &mut ctx));
        let fused = FusedFc::fuse(fc, act, "mlp_fc0", "mlp_relu0").unwrap();
        let x = ctx.external_input(Value::dense(Tensor::zeros(&[2, 4])));
        fused.execute(&mut ctx, "mlp_fc0+mlp_relu0", &[&x]).unwrap();
        let run = ctx.take_run_trace(2, 0);
        let names: Vec<_> = run.ops.iter().map(|o| o.name.as_str()).collect();
        assert_eq!(names, vec!["mlp_fc0", "mlp_relu0"]);
        assert_eq!(run.ops[0].op_type, "FC");
        assert_eq!(run.ops[1].op_type, "Relu");
    }

    #[test]
    fn fuse_rejects_wrong_concrete_types() {
        let (mut ctx, mut init) = setup();
        let fc = arc(FullyConnected::new(4, 3, &mut ctx, &mut init));
        let act = arc(Activation::new(ActivationKind::Relu, &mut ctx));
        let cat = arc(Concat::new(&mut ctx));
        assert!(FusedFc::fuse(Arc::clone(&cat), act, "a", "b").is_none());
        assert!(FusedFc::fuse(fc, cat, "a", "b").is_none());
    }

    #[test]
    fn fused_fc_rejects_wrong_width() {
        let (mut ctx, mut init) = setup();
        let fc = arc(FullyConnected::new(4, 3, &mut ctx, &mut init));
        let act = arc(Activation::new(ActivationKind::Relu, &mut ctx));
        let fused = FusedFc::fuse(fc, act, "fc", "act").unwrap();
        let x = ctx.external_input(Value::dense(Tensor::zeros(&[2, 5])));
        assert!(fused.run(&mut ctx, &[&x]).is_err());
    }

    fn multi_table_setup(
        modes: &[PoolMode],
        ctx: &mut ExecContext,
        init: &mut ParamInit,
    ) -> Vec<Arc<dyn Operator>> {
        modes
            .iter()
            .map(|&mode| {
                let table = EmbeddingTable::new(20, 4, 20, ctx, init).unwrap();
                arc(SparseLengthsSum::with_mode(table, mode, ctx))
            })
            .collect()
    }

    #[test]
    fn multi_table_matches_sls_plus_concat_bitwise() {
        let (mut ctx, mut init) = setup();
        ctx.set_tracing(false);
        let sls = multi_table_setup(&[PoolMode::Sum, PoolMode::Mean], &mut ctx, &mut init);
        let cat = arc(Concat::new(&mut ctx));
        let dense = ctx.external_input(Value::dense(init.uniform(&[3, 2], -1.0, 1.0)));
        let ids0 = ctx.external_input(Value::ids(IdList::new(vec![1, 2, 3, 4, 5], vec![2, 2, 1])));
        let ids1 = ctx.external_input(Value::ids(IdList::new(vec![7, 8, 9], vec![1, 0, 2])));

        let p0 = sls[0].run(&mut ctx, &[&ids0]).unwrap();
        let p1 = sls[1].run(&mut ctx, &[&ids1]).unwrap();
        let want = cat.run(&mut ctx, &[&p0, &p1, &dense]).unwrap();

        let fused = MultiTableSls::fuse(
            vec![
                FusedConcatInput::Pooled {
                    op: Arc::clone(&sls[0]),
                    name: "emb0".into(),
                },
                FusedConcatInput::Pooled {
                    op: Arc::clone(&sls[1]),
                    name: "emb1".into(),
                },
                FusedConcatInput::Pass,
            ],
            cat,
            "cat",
        )
        .unwrap();
        assert_eq!(fused.table_count(), 2);
        let got = fused.run(&mut ctx, &[&ids0, &ids1, &dense]).unwrap();
        assert_eq!(
            want.as_dense().unwrap().dims(),
            got.as_dense().unwrap().dims()
        );
        for (a, b) in want
            .as_dense()
            .unwrap()
            .as_slice()
            .iter()
            .zip(got.as_dense().unwrap().as_slice())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn multi_table_traced_emits_constituent_records() {
        let (mut ctx, mut init) = setup();
        let sls = multi_table_setup(&[PoolMode::Sum, PoolMode::Sum], &mut ctx, &mut init);
        let cat = arc(Concat::new(&mut ctx));
        let fused = MultiTableSls::fuse(
            vec![
                FusedConcatInput::Pooled {
                    op: Arc::clone(&sls[0]),
                    name: "emb_t0".into(),
                },
                FusedConcatInput::Pooled {
                    op: Arc::clone(&sls[1]),
                    name: "emb_t1".into(),
                },
            ],
            cat,
            "deep_cat",
        )
        .unwrap();
        let ids0 = ctx.external_input(Value::ids(IdList::new(vec![1, 2], vec![1, 1])));
        let ids1 = ctx.external_input(Value::ids(IdList::new(vec![3, 4], vec![1, 1])));
        fused.execute(&mut ctx, "fused", &[&ids0, &ids1]).unwrap();
        let run = ctx.take_run_trace(2, 0);
        let names: Vec<_> = run.ops.iter().map(|o| o.name.as_str()).collect();
        assert_eq!(names, vec!["emb_t0", "emb_t1", "deep_cat"]);
        assert_eq!(run.ops[2].op_type, "Concat");
    }

    #[test]
    fn multi_table_requires_two_pooled_inputs() {
        let (mut ctx, mut init) = setup();
        let sls = multi_table_setup(&[PoolMode::Sum], &mut ctx, &mut init);
        let cat = arc(Concat::new(&mut ctx));
        assert!(MultiTableSls::fuse(
            vec![
                FusedConcatInput::Pooled {
                    op: Arc::clone(&sls[0]),
                    name: "emb".into(),
                },
                FusedConcatInput::Pass,
            ],
            cat,
            "cat",
        )
        .is_none());
    }

    #[test]
    fn multi_table_out_of_range_id_is_typed_error() {
        let (mut ctx, mut init) = setup();
        ctx.set_tracing(false);
        let sls = multi_table_setup(&[PoolMode::Sum, PoolMode::Sum], &mut ctx, &mut init);
        let cat = arc(Concat::new(&mut ctx));
        let fused = MultiTableSls::fuse(
            vec![
                FusedConcatInput::Pooled {
                    op: Arc::clone(&sls[0]),
                    name: "a".into(),
                },
                FusedConcatInput::Pooled {
                    op: Arc::clone(&sls[1]),
                    name: "b".into(),
                },
            ],
            cat,
            "cat",
        )
        .unwrap();
        let ids0 = ctx.external_input(Value::ids(IdList::new(vec![99], vec![1])));
        let ids1 = ctx.external_input(Value::ids(IdList::new(vec![1], vec![1])));
        assert!(matches!(
            fused.run(&mut ctx, &[&ids0, &ids1]).unwrap_err(),
            OpError::IndexOutOfRange { id: 99, .. }
        ));
    }

    #[test]
    fn multi_table_row_mismatch_is_typed_error() {
        let (mut ctx, mut init) = setup();
        ctx.set_tracing(false);
        let sls = multi_table_setup(&[PoolMode::Sum, PoolMode::Sum], &mut ctx, &mut init);
        let cat = arc(Concat::new(&mut ctx));
        let fused = MultiTableSls::fuse(
            vec![
                FusedConcatInput::Pooled {
                    op: Arc::clone(&sls[0]),
                    name: "a".into(),
                },
                FusedConcatInput::Pooled {
                    op: Arc::clone(&sls[1]),
                    name: "b".into(),
                },
            ],
            cat,
            "cat",
        )
        .unwrap();
        let ids0 = ctx.external_input(Value::ids(IdList::new(vec![1, 2], vec![1, 1])));
        let ids1 = ctx.external_input(Value::ids(IdList::new(vec![1], vec![1])));
        assert!(fused.run(&mut ctx, &[&ids0, &ids1]).is_err());
    }

    #[test]
    fn multi_table_store_ignores_the_combine_field() {
        use drec_store::{CombineConfig, EmbeddingStore, StoreConfig, StoreStats, TierConfig};

        // Dense reference: the store-backed builds below consume the
        // identical parameter stream from a fresh RNG at the same seed.
        let (mut rctx, mut rinit) = setup();
        rctx.set_tracing(false);
        let r = multi_table_setup(&[PoolMode::Sum, PoolMode::Mean], &mut rctx, &mut rinit);
        let rcat = arc(Concat::new(&mut rctx));
        // Every sample leads with the pair (1, 7), the pattern a
        // table-combining cache would have served with one lookup.
        let ids0 = rctx.external_input(Value::ids(IdList::new(vec![1, 2, 1, 5, 1, 2], vec![2; 3])));
        let ids1 = rctx.external_input(Value::ids(IdList::new(vec![7, 8, 7, 9, 7, 8], vec![2; 3])));
        let p0 = r[0].run(&mut rctx, &[&ids0]).unwrap();
        let p1 = r[1].run(&mut rctx, &[&ids1]).unwrap();
        let want = rcat.run(&mut rctx, &[&p0, &p1]).unwrap();

        // Two store-backed tables fused, three runs: bit-identical to the
        // dense unfused reference every time.
        let serve = |combine: Option<CombineConfig>| -> StoreStats {
            let (mut ctx, mut init) = setup();
            ctx.set_tracing(false);
            let store = Arc::new(EmbeddingStore::new(StoreConfig {
                tier: Some(TierConfig {
                    combine,
                    ..TierConfig::new(64)
                }),
                ..StoreConfig::default()
            }));
            let t0 =
                EmbeddingTable::new_in_store(20, 4, 20, &mut ctx, &mut init, &store, 7, 0).unwrap();
            let t1 =
                EmbeddingTable::new_in_store(20, 4, 20, &mut ctx, &mut init, &store, 7, 1).unwrap();
            let s0 = arc(SparseLengthsSum::with_mode(t0, PoolMode::Sum, &mut ctx));
            let s1 = arc(SparseLengthsSum::with_mode(t1, PoolMode::Mean, &mut ctx));
            let cat = arc(Concat::new(&mut ctx));
            let fused = MultiTableSls::fuse(
                vec![
                    FusedConcatInput::Pooled {
                        op: s0,
                        name: "emb0".into(),
                    },
                    FusedConcatInput::Pooled {
                        op: s1,
                        name: "emb1".into(),
                    },
                ],
                cat,
                "cat",
            )
            .unwrap();
            for _ in 0..3 {
                let got = fused.run(&mut ctx, &[&ids0, &ids1]).unwrap();
                for (a, b) in want
                    .as_dense()
                    .unwrap()
                    .as_slice()
                    .iter()
                    .zip(got.as_dense().unwrap().as_slice())
                {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
            store.stats()
        };

        // `TierConfig::combine` is ignored: every id read is one lookup,
        // and no counter tells the two stores apart.
        let stats = serve(Some(CombineConfig::default()));
        assert_eq!(stats.lookups, 36, "3 runs x 2 tables x 6 ids");
        assert_eq!(stats, serve(None));
    }
}
