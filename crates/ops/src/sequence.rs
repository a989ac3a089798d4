use drec_tensor::Tensor;
use drec_trace::{BranchProfile, CodeFootprint, CodeRegion, WorkVector};

use crate::op::check_arity;
use crate::{kind_cost, ExecContext, OpError, OpKind, Operator, Result, Value};

fn infer_seq_len(op: &'static str, seq_cols: usize, unit: usize) -> Result<usize> {
    if unit == 0 || !seq_cols.is_multiple_of(unit) {
        return Err(OpError::InvalidInput {
            op,
            message: format!("sequence width {seq_cols} not a multiple of unit width {unit}"),
        });
    }
    Ok(seq_cols / unit)
}

/// The trace record of one `BatchMatMul`-kind operator (the two sequence
/// ops here and [`crate::PairwiseDot`]): reads of every input, the output
/// write, `macs` multiply-adds over `loads` / `stores` contiguous
/// elements, and the kind's loop and code footprint.
#[allow(clippy::too_many_arguments)]
pub(crate) fn emit_batch_matmul_trace(
    ctx: &mut ExecContext,
    dispatch: CodeRegion,
    kernel: CodeRegion,
    inputs: &[&Value],
    out_addr: u64,
    out_bytes: u64,
    macs: f64,
    loads: f64,
    stores: f64,
) {
    let est = inputs.iter().map(|v| v.byte_size() / 64).sum::<u64>() + out_bytes / 64 + 2;
    ctx.reserve_mem_events(est);
    for v in inputs {
        ctx.record_read(v.addr, v.byte_size());
    }
    ctx.record_write(out_addr, out_bytes);
    ctx.add_work(WorkVector {
        fma_flops: 2.0 * macs,
        other_flops: 0.0,
        int_ops: macs / 16.0,
        contig_load_elems: loads,
        contig_store_elems: stores,
        gather_rows: 0.0,
        gather_row_bytes: 0.0,
        vectorizable: 0.95,
    });
    let cost = kind_cost(OpKind::BatchMatMul);
    let iterations = macs / cost.elems_per_iter;
    ctx.add_branches(BranchProfile {
        loop_branches: iterations,
        data_branches: 0.0,
        data_taken_rate: 0.0,
        indirect_branches: 4.0,
    });
    ctx.set_code(CodeFootprint {
        dispatch,
        kernel,
        hot_bytes: cost.hot_loop_bytes,
        invocations: 1,
        iterations,
    });
}

/// Attention scores over a sequence (Caffe2 `BatchMatMul`): given hidden
/// states `[batch, seq·hidden]` and a query `[batch, hidden]`, computes
/// `scores[b][t] = h_t · q` → `[batch, seq]`.
#[derive(Debug)]
pub struct SequenceDot {
    dispatch: CodeRegion,
    kernel: CodeRegion,
}

impl SequenceDot {
    /// Creates a sequence-dot op.
    pub fn new(ctx: &mut ExecContext) -> Self {
        SequenceDot {
            dispatch: ctx.alloc_dispatch(OpKind::BatchMatMul),
            kernel: ctx.kernel_region(OpKind::BatchMatMul),
        }
    }
}

impl Operator for SequenceDot {
    fn kind(&self) -> OpKind {
        OpKind::BatchMatMul
    }

    fn run(&self, ctx: &mut ExecContext, inputs: &[&Value]) -> Result<Value> {
        check_arity("BatchMatMul", inputs, 2)?;
        let seq = inputs[0].dense_ref("BatchMatMul")?;
        let q = inputs[1].dense_ref("BatchMatMul")?;
        let (batch, seq_cols) = seq.shape().as_matrix()?;
        let (qb, hidden) = q.shape().as_matrix()?;
        if qb != batch {
            return Err(OpError::InvalidInput {
                op: "BatchMatMul",
                message: format!("batch mismatch: {batch} vs {qb}"),
            });
        }
        let seq_len = infer_seq_len("BatchMatMul", seq_cols, hidden)?;
        let mut out = Tensor::zeros(&[batch, seq_len]);
        for b in 0..batch {
            let qrow = &q.as_slice()[b * hidden..(b + 1) * hidden];
            for t in 0..seq_len {
                let h = &seq.as_slice()[b * seq_cols + t * hidden..b * seq_cols + (t + 1) * hidden];
                let mut acc = 0.0f32;
                for (&x, &y) in h.iter().zip(qrow) {
                    acc += x * y;
                }
                out.as_mut_slice()[b * seq_len + t] = acc;
            }
        }
        let out_bytes = (out.numel() * 4) as u64;
        let out_addr = ctx.alloc_activation(out_bytes);
        if ctx.tracing_enabled() {
            let macs = (batch * seq_len * hidden) as f64;
            emit_batch_matmul_trace(
                ctx,
                self.dispatch,
                self.kernel,
                inputs,
                out_addr,
                out_bytes,
                macs,
                (batch * (seq_cols + hidden)) as f64,
                (batch * seq_len) as f64,
            );
        }
        let mut v = Value::dense(out);
        v.addr = out_addr;
        Ok(v)
    }
}

/// Attention-weighted pooling (Caffe2 `BatchMatMul`): given hidden states
/// `[batch, seq·hidden]` and weights `[batch, seq]`, computes
/// `out[b] = Σ_t w_t · h_t` → `[batch, hidden]`.
#[derive(Debug)]
pub struct WeightedSum {
    dispatch: CodeRegion,
    kernel: CodeRegion,
}

impl WeightedSum {
    /// Creates a weighted-sum op.
    pub fn new(ctx: &mut ExecContext) -> Self {
        WeightedSum {
            dispatch: ctx.alloc_dispatch(OpKind::BatchMatMul),
            kernel: ctx.kernel_region(OpKind::BatchMatMul),
        }
    }
}

impl Operator for WeightedSum {
    fn kind(&self) -> OpKind {
        OpKind::BatchMatMul
    }

    fn run(&self, ctx: &mut ExecContext, inputs: &[&Value]) -> Result<Value> {
        check_arity("BatchMatMul", inputs, 2)?;
        let seq = inputs[0].dense_ref("BatchMatMul")?;
        let w = inputs[1].dense_ref("BatchMatMul")?;
        let (batch, seq_cols) = seq.shape().as_matrix()?;
        let (wb, seq_len) = w.shape().as_matrix()?;
        if wb != batch {
            return Err(OpError::InvalidInput {
                op: "BatchMatMul",
                message: format!("batch mismatch: {batch} vs {wb}"),
            });
        }
        let hidden = infer_seq_len("BatchMatMul", seq_cols, seq_len)?;
        let mut out = Tensor::zeros(&[batch, hidden]);
        for b in 0..batch {
            let acc = &mut out.as_mut_slice()[b * hidden..(b + 1) * hidden];
            for t in 0..seq_len {
                let weight = w.as_slice()[b * seq_len + t];
                let h = &seq.as_slice()[b * seq_cols + t * hidden..b * seq_cols + (t + 1) * hidden];
                for (a, &x) in acc.iter_mut().zip(h) {
                    *a += weight * x;
                }
            }
        }
        let out_bytes = (out.numel() * 4) as u64;
        let out_addr = ctx.alloc_activation(out_bytes);
        if ctx.tracing_enabled() {
            let macs = (batch * seq_len * hidden) as f64;
            emit_batch_matmul_trace(
                ctx,
                self.dispatch,
                self.kernel,
                inputs,
                out_addr,
                out_bytes,
                macs,
                (batch * (seq_cols + seq_len)) as f64,
                (batch * hidden) as f64,
            );
        }
        let mut v = Value::dense(out);
        v.addr = out_addr;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_dot_scores() {
        let mut ctx = ExecContext::new();
        let op = SequenceDot::new(&mut ctx);
        // One sample, seq 2, hidden 2: h0=(1,0), h1=(0,2); q=(3,4).
        let seq = ctx.external_input(Value::dense(
            Tensor::from_vec(vec![1.0, 0.0, 0.0, 2.0], &[1, 4]).unwrap(),
        ));
        let q = ctx.external_input(Value::dense(
            Tensor::from_vec(vec![3.0, 4.0], &[1, 2]).unwrap(),
        ));
        let y = op.run(&mut ctx, &[&seq, &q]).unwrap();
        assert_eq!(y.as_dense().unwrap().as_slice(), &[3.0, 8.0]);
    }

    #[test]
    fn weighted_sum_pools() {
        let mut ctx = ExecContext::new();
        let op = WeightedSum::new(&mut ctx);
        let seq = ctx.external_input(Value::dense(
            Tensor::from_vec(vec![1.0, 0.0, 0.0, 2.0], &[1, 4]).unwrap(),
        ));
        let w = ctx.external_input(Value::dense(
            Tensor::from_vec(vec![0.5, 2.0], &[1, 2]).unwrap(),
        ));
        let y = op.run(&mut ctx, &[&seq, &w]).unwrap();
        assert_eq!(y.as_dense().unwrap().as_slice(), &[0.5, 4.0]);
    }

    #[test]
    fn rejects_non_divisible_widths() {
        let mut ctx = ExecContext::new();
        let op = SequenceDot::new(&mut ctx);
        let seq = ctx.external_input(Value::dense(Tensor::zeros(&[1, 5])));
        let q = ctx.external_input(Value::dense(Tensor::zeros(&[1, 2])));
        assert!(op.run(&mut ctx, &[&seq, &q]).is_err());
    }

    #[test]
    fn rejects_batch_mismatch() {
        let mut ctx = ExecContext::new();
        let op = WeightedSum::new(&mut ctx);
        let seq = ctx.external_input(Value::dense(Tensor::zeros(&[2, 4])));
        let w = ctx.external_input(Value::dense(Tensor::zeros(&[3, 2])));
        assert!(op.run(&mut ctx, &[&seq, &w]).is_err());
    }
}
