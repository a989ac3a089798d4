use drec_tensor::Tensor;
use drec_trace::CodeRegion;

use crate::sequence::emit_batch_matmul_trace;
use crate::{ExecContext, OpError, OpKind, Operator, Result, Value};

/// DLRM-style pairwise-dot feature interaction (Caffe2 `BatchMatMul`).
///
/// Takes `n ≥ 2` feature vectors of identical shape `[batch, dim]` and
/// emits, per sample, the inner products of all distinct pairs —
/// `[batch, n·(n−1)/2]`. This is the interaction layer the DLRM-based
/// models (RM1/RM2/RM3) place between embedding outputs and the top MLP.
#[derive(Debug)]
pub struct PairwiseDot {
    dispatch: CodeRegion,
    kernel: CodeRegion,
}

impl PairwiseDot {
    /// Creates a pairwise-dot interaction op.
    pub fn new(ctx: &mut ExecContext) -> Self {
        PairwiseDot {
            dispatch: ctx.alloc_dispatch(OpKind::BatchMatMul),
            kernel: ctx.kernel_region(OpKind::BatchMatMul),
        }
    }
}

impl Operator for PairwiseDot {
    fn kind(&self) -> OpKind {
        OpKind::BatchMatMul
    }

    fn run(&self, ctx: &mut ExecContext, inputs: &[&Value]) -> Result<Value> {
        if inputs.len() < 2 {
            return Err(OpError::ArityMismatch {
                op: "BatchMatMul",
                expected: 2,
                actual: inputs.len(),
            });
        }
        let first = inputs[0].dense_ref("BatchMatMul")?;
        let (batch, dim) = first.shape().as_matrix()?;
        for v in &inputs[1..] {
            let t = v.dense_ref("BatchMatMul")?;
            if t.dims() != first.dims() {
                return Err(OpError::InvalidInput {
                    op: "BatchMatMul",
                    message: format!(
                        "all interaction inputs must be {:?}, got {:?}",
                        first.dims(),
                        t.dims()
                    ),
                });
            }
        }
        let n = inputs.len();
        let pairs = n * (n - 1) / 2;
        let mut out = Tensor::zeros(&[batch, pairs]);
        for b in 0..batch {
            let mut p = 0usize;
            for i in 0..n {
                let ti = inputs[i].dense_ref("BatchMatMul")?;
                let ri = &ti.as_slice()[b * dim..(b + 1) * dim];
                for vj in inputs.iter().skip(i + 1) {
                    let tj = vj.dense_ref("BatchMatMul")?;
                    let rj = &tj.as_slice()[b * dim..(b + 1) * dim];
                    let mut acc = 0.0f32;
                    for (&x, &y) in ri.iter().zip(rj) {
                        acc += x * y;
                    }
                    out.as_mut_slice()[b * pairs + p] = acc;
                    p += 1;
                }
            }
        }
        let bytes = (out.numel() * 4) as u64;
        let out_addr = ctx.alloc_activation(bytes);
        if ctx.tracing_enabled() {
            emit_batch_matmul_trace(
                ctx,
                self.dispatch,
                self.kernel,
                inputs,
                out_addr,
                bytes,
                (batch * pairs * dim) as f64,
                (batch * n * dim) as f64,
                (batch * pairs) as f64,
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
    fn pairwise_dot_two_vectors() {
        let mut ctx = ExecContext::new();
        let op = PairwiseDot::new(&mut ctx);
        let a = ctx.external_input(Value::dense(
            Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap(),
        ));
        let b = ctx.external_input(Value::dense(
            Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]).unwrap(),
        ));
        let y = op.run(&mut ctx, &[&a, &b]).unwrap();
        let t = y.as_dense().unwrap();
        assert_eq!(t.dims(), &[2, 1]);
        assert_eq!(t.as_slice(), &[17.0, 53.0]);
    }

    #[test]
    fn pair_count_grows_quadratically() {
        let mut ctx = ExecContext::new();
        let op = PairwiseDot::new(&mut ctx);
        let vs: Vec<Value> = (0..4)
            .map(|_| ctx.external_input(Value::dense(Tensor::filled(&[1, 3], 1.0))))
            .collect();
        let refs: Vec<&Value> = vs.iter().collect();
        let y = op.run(&mut ctx, &refs).unwrap();
        assert_eq!(y.as_dense().unwrap().dims(), &[1, 6]);
        // All-ones vectors of dim 3 → every dot is 3.
        assert!(y.as_dense().unwrap().as_slice().iter().all(|&v| v == 3.0));
    }

    #[test]
    fn rejects_mismatched_shapes() {
        let mut ctx = ExecContext::new();
        let op = PairwiseDot::new(&mut ctx);
        let a = ctx.external_input(Value::dense(Tensor::zeros(&[2, 3])));
        let b = ctx.external_input(Value::dense(Tensor::zeros(&[2, 4])));
        assert!(op.run(&mut ctx, &[&a, &b]).is_err());
    }
}
