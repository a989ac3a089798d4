use std::sync::Arc;

use drec_tensor::{ParamInit, Tensor};
use drec_trace::{BranchProfile, CodeFootprint, CodeRegion, WorkVector};

use crate::op::check_arity;
use crate::{kind_cost, ExecContext, OpError, OpKind, Operator, Result, Value};

/// Number of input rows processed per weight-streaming block in the
/// simulated GEMM kernel. Each block re-reads the full weight matrix, which
/// is what makes large FC stacks L2/L3/DRAM-sensitive at large batch.
const GEMM_BLOCK_ROWS: usize = 32;

/// The parameter set of one [`FullyConnected`] layer: weights
/// `[out_features, in_features]` plus bias `[out_features]`. Held as one
/// `Arc` so a weight-set install replaces both tensors together — a batch
/// never sees new weights with the old bias — and so that layers of views
/// of one model share one allocation: a set is immutable once published,
/// and every engine of a serving lane holds the same handle.
#[derive(Debug, Clone, PartialEq)]
pub struct FcParams {
    /// Weight matrix, `[out_features, in_features]` (Caffe2 layout).
    pub weights: Tensor,
    /// Bias vector, `[out_features]`.
    pub bias: Tensor,
}

/// Fully-connected layer: `Y = X·Wᵀ + b` (Caffe2 `FC`).
///
/// Weights are stored `[out_features, in_features]`, matching Caffe2's
/// layout, behind an [`FcParams`] handle. The layer never changes once
/// built: a live weight update makes a new layer with
/// [`FullyConnected::with_params`] and swaps the graph node.
#[derive(Debug)]
pub struct FullyConnected {
    params: Arc<FcParams>,
    in_features: usize,
    out_features: usize,
    w_addr: u64,
    b_addr: u64,
    dispatch: CodeRegion,
    kernel: CodeRegion,
}

impl FullyConnected {
    /// Creates a layer with Xavier-initialised weights.
    pub fn new(
        in_features: usize,
        out_features: usize,
        ctx: &mut ExecContext,
        init: &mut ParamInit,
    ) -> Self {
        let weights = init.xavier(&[out_features, in_features], in_features, out_features);
        let bias = init.uniform(&[out_features], -0.01, 0.01);
        let w_addr = ctx.alloc_param((out_features * in_features * 4) as u64);
        let b_addr = ctx.alloc_param((out_features * 4) as u64);
        FullyConnected {
            params: Arc::new(FcParams { weights, bias }),
            in_features,
            out_features,
            w_addr,
            b_addr,
            dispatch: ctx.alloc_dispatch(OpKind::Fc),
            kernel: ctx.kernel_region(OpKind::Fc),
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// The layer's parameter set.
    pub fn params(&self) -> &Arc<FcParams> {
        &self.params
    }

    /// This layer computing from `params` instead: same shape, same
    /// simulated addresses and code regions, so its trace is this layer's.
    /// `self` is left as it was.
    ///
    /// # Errors
    ///
    /// [`OpError::InvalidInput`] when the shapes do not match this
    /// layer's `[out_features, in_features]` / `[out_features]`.
    pub fn with_params(&self, params: Arc<FcParams>) -> Result<Self> {
        if params.weights.dims() != [self.out_features, self.in_features]
            || params.bias.dims() != [self.out_features]
        {
            return Err(OpError::InvalidInput {
                op: "FC",
                message: format!(
                    "weight-set shape {:?}/{:?} does not fit layer {}x{}",
                    params.weights.dims(),
                    params.bias.dims(),
                    self.out_features,
                    self.in_features
                ),
            });
        }
        Ok(FullyConnected { params, ..*self })
    }
}

impl Operator for FullyConnected {
    fn kind(&self) -> OpKind {
        OpKind::Fc
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn param_bytes(&self) -> u64 {
        ((self.out_features * self.in_features + self.out_features) * 4) as u64
    }

    fn run(&self, ctx: &mut ExecContext, inputs: &[&Value]) -> Result<Value> {
        check_arity("FC", inputs, 1)?;
        let x = inputs[0].dense_ref("FC")?;
        let (batch, in_f) = x.shape().as_matrix()?;
        if in_f != self.in_features() {
            return Err(OpError::InvalidInput {
                op: "FC",
                message: format!(
                    "input features {in_f} != layer in_features {}",
                    self.in_features()
                ),
            });
        }
        let out_f = self.out_features();

        let params = &self.params;

        // Functional compute, into an arena buffer so repeated FC layers
        // reuse activation storage instead of allocating.
        let mut buf = ctx.take_buffer(batch * out_f);
        x.matmul_transposed_into(&params.weights, &mut buf)?;
        for row in buf.chunks_mut(out_f.max(1)) {
            for (v, b) in row.iter_mut().zip(params.bias.as_slice()) {
                *v += b;
            }
        }
        let y = Tensor::from_pooled(buf, &[batch, out_f]);
        let out_addr = ctx.alloc_activation((batch * out_f * 4) as u64);

        // Trace emission.
        if ctx.tracing_enabled() {
            let w_bytes = (params.weights.numel() * 4) as u64;
            let blocks = batch.div_ceil(GEMM_BLOCK_ROWS) as u64;
            let est_lines = (batch * in_f * 4) as u64 / 64
                + blocks * w_bytes / 64
                + (batch * out_f * 4) as u64 / 64
                + 2;
            ctx.reserve_mem_events(est_lines.max(4));
            ctx.record_read(inputs[0].addr, (batch * in_f * 4) as u64);
            for _ in 0..blocks {
                ctx.record_read(self.w_addr, w_bytes);
            }
            ctx.record_read(self.b_addr, (out_f * 4) as u64);
            ctx.record_write(out_addr, (batch * out_f * 4) as u64);

            let macs = (batch * in_f * out_f) as f64;
            // Skinny GEMMs (fewer rows than the microkernel's register
            // tile) fall off the fully vectorized fast path.
            let vectorizable = (0.55 + 0.027 * batch as f64).min(0.98);
            ctx.add_work(WorkVector {
                fma_flops: 2.0 * macs,
                other_flops: (batch * out_f) as f64,
                int_ops: macs / 64.0,
                contig_load_elems: (batch * in_f) as f64
                    + blocks as f64 * params.weights.numel() as f64
                    + out_f as f64,
                contig_store_elems: (batch * out_f) as f64,
                gather_rows: 0.0,
                gather_row_bytes: 0.0,
                vectorizable,
            });
            let elems_per_iter = kind_cost(OpKind::Fc).elems_per_iter;
            let iterations = macs / elems_per_iter;
            ctx.add_branches(BranchProfile {
                loop_branches: iterations + (batch * out_f) as f64 / elems_per_iter,
                data_branches: 0.0,
                data_taken_rate: 0.0,
                indirect_branches: 4.0,
            });
            ctx.set_code(CodeFootprint {
                dispatch: self.dispatch,
                kernel: self.kernel,
                hot_bytes: kind_cost(OpKind::Fc).hot_loop_bytes,
                invocations: 1,
                iterations,
            });
        }

        let mut out = Value::dense(y);
        out.addr = out_addr;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (ExecContext, ParamInit) {
        (ExecContext::with_tracing(1 << 16), ParamInit::new(42))
    }

    #[test]
    fn fc_computes_affine_transform() {
        let (mut ctx, mut init) = setup();
        let fc = FullyConnected::new(3, 2, &mut ctx, &mut init);
        let x = ctx.external_input(Value::dense(
            Tensor::from_vec(vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0], &[2, 3]).unwrap(),
        ));
        let y = fc.execute(&mut ctx, "fc", &[&x]).unwrap();
        let yt = y.as_dense().unwrap();
        assert_eq!(yt.dims(), &[2, 2]);
        // Row 0 = W[:,0] + b; row 1 = W[:,1] + b.
        let params = fc.params();
        for j in 0..2 {
            let expected0 = params.weights.get(&[j, 0]).unwrap() + params.bias.get(&[j]).unwrap();
            assert!((yt.get(&[0, j]).unwrap() - expected0).abs() < 1e-6);
        }
    }

    #[test]
    fn with_params_changes_output_and_validates_shape() {
        let (mut ctx, mut init) = setup();
        let fc = FullyConnected::new(2, 2, &mut ctx, &mut init);
        let original = Arc::clone(fc.params());
        ctx.set_tracing(false);
        let x = ctx.external_input(Value::dense(
            Tensor::from_vec(vec![1.0, 1.0], &[1, 2]).unwrap(),
        ));
        let before = fc.run(&mut ctx, &[&x]).unwrap();
        let swapped = Arc::new(FcParams {
            weights: Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]).unwrap(),
            bias: Tensor::from_vec(vec![0.5, -0.5], &[2]).unwrap(),
        });
        let other = fc.with_params(Arc::clone(&swapped)).unwrap();
        let after = other.run(&mut ctx, &[&x]).unwrap();
        assert_eq!(after.as_dense().unwrap().as_slice(), &[1.5, 0.5]);
        assert!(Arc::ptr_eq(other.params(), &swapped));
        assert_eq!((other.w_addr, other.b_addr), (fc.w_addr, fc.b_addr));
        // The original layer still computes from its own set.
        assert!(Arc::ptr_eq(fc.params(), &original));
        let again = fc.run(&mut ctx, &[&x]).unwrap();
        assert_eq!(
            before.as_dense().unwrap().as_slice(),
            again.as_dense().unwrap().as_slice()
        );
        // Wrong shapes are typed errors, and make no layer.
        for (w, b) in [([3, 2], [2]), ([2, 2], [3])] {
            let misfit = Arc::new(FcParams {
                weights: Tensor::zeros(&w),
                bias: Tensor::zeros(&b),
            });
            let err = fc.with_params(misfit).unwrap_err();
            assert!(
                matches!(err, OpError::InvalidInput { op: "FC", .. }),
                "{err}"
            );
        }
        assert!(Arc::ptr_eq(fc.params(), &original));
    }

    #[test]
    fn fc_rejects_wrong_width() {
        let (mut ctx, mut init) = setup();
        let fc = FullyConnected::new(3, 2, &mut ctx, &mut init);
        let x = ctx.external_input(Value::dense(Tensor::zeros(&[2, 4])));
        assert!(fc.run(&mut ctx, &[&x]).is_err());
    }

    #[test]
    fn fc_rejects_ids_input() {
        let (mut ctx, mut init) = setup();
        let fc = FullyConnected::new(3, 2, &mut ctx, &mut init);
        let ids = ctx.external_input(Value::ids(crate::IdList::new(vec![1], vec![1])));
        assert!(fc.run(&mut ctx, &[&ids]).is_err());
    }

    #[test]
    fn fc_trace_has_matmul_work() {
        let (mut ctx, mut init) = setup();
        let fc = FullyConnected::new(8, 4, &mut ctx, &mut init);
        let x = ctx.external_input(Value::dense(Tensor::zeros(&[2, 8])));
        fc.execute(&mut ctx, "fc", &[&x]).unwrap();
        let ops: Vec<_> = ctx.drain_ops().collect();
        assert_eq!(ops.len(), 1);
        let t = &ops[0];
        assert_eq!(t.op_type, "FC");
        assert_eq!(t.work.fma_flops, 2.0 * 2.0 * 8.0 * 4.0);
        assert!(t.mem.total_events() > 0);
        assert!(!t.code.is_empty());
        assert_eq!(t.work.gather_rows, 0.0);
    }

    #[test]
    fn fc_param_bytes() {
        let (mut ctx, mut init) = setup();
        let fc = FullyConnected::new(8, 4, &mut ctx, &mut init);
        assert_eq!(fc.param_bytes(), (8 * 4 + 4) * 4);
    }

    #[test]
    fn fc_weight_rereads_scale_with_batch() {
        let (mut ctx, mut init) = setup();
        let fc = FullyConnected::new(4, 4, &mut ctx, &mut init);
        let small = ctx.external_input(Value::dense(Tensor::zeros(&[4, 4])));
        fc.execute(&mut ctx, "s", &[&small]).unwrap();
        let big = ctx.external_input(Value::dense(Tensor::zeros(&[128, 4])));
        fc.execute(&mut ctx, "b", &[&big]).unwrap();
        let ops: Vec<_> = ctx.drain_ops().collect();
        let small_loads = ops[0].work.contig_load_elems;
        let big_loads = ops[1].work.contig_load_elems;
        assert!(big_loads > small_loads * 4.0);
    }
}
