use drec_trace::{BranchProfile, CodeFootprint, CodeRegion, WorkVector};

use crate::op::check_arity;
use crate::{kind_cost, ExecContext, OpError, OpKind, Operator, Result, Value};

/// Shared trace-emission helper for streaming (elementwise/data-movement)
/// kernels: unit-stride reads and writes, loop-dominated branch behaviour.
pub(crate) struct StreamEmit<'a> {
    pub(crate) kind: OpKind,
    pub(crate) dispatch: CodeRegion,
    pub(crate) kernel: CodeRegion,
    /// `(addr, bytes)` regions read once.
    pub(crate) reads: &'a [(u64, u64)],
    /// `(addr, bytes)` regions written once.
    pub(crate) writes: &'a [(u64, u64)],
    pub(crate) work: WorkVector,
}

pub(crate) fn emit_stream(ctx: &mut ExecContext, e: StreamEmit<'_>) {
    let read_bytes: u64 = e.reads.iter().map(|r| r.1).sum();
    let write_bytes: u64 = e.writes.iter().map(|w| w.1).sum();
    ctx.reserve_mem_events((read_bytes + write_bytes) / 64 + 2);
    for &(addr, bytes) in e.reads {
        ctx.record_read(addr, bytes);
    }
    for &(addr, bytes) in e.writes {
        ctx.record_write(addr, bytes);
    }
    let cost = kind_cost(e.kind);
    let elems = (read_bytes + write_bytes) as f64 / 4.0;
    let iterations = elems / cost.elems_per_iter;
    ctx.add_work(e.work);
    ctx.add_branches(BranchProfile {
        loop_branches: iterations,
        data_branches: 0.0,
        data_taken_rate: 0.0,
        indirect_branches: 3.0,
    });
    ctx.set_code(CodeFootprint {
        dispatch: e.dispatch,
        kernel: e.kernel,
        hot_bytes: cost.hot_loop_bytes,
        invocations: 1,
        iterations,
    });
}

/// The non-linearity an [`Activation`] op applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActivationKind {
    /// `max(0, x)`.
    Relu,
    /// `1 / (1 + e^(-x))`.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

impl ActivationKind {
    fn op_kind(self) -> OpKind {
        match self {
            ActivationKind::Relu => OpKind::Relu,
            ActivationKind::Sigmoid => OpKind::Sigmoid,
            ActivationKind::Tanh => OpKind::Tanh,
        }
    }

    pub(crate) fn apply(self, x: f32) -> f32 {
        match self {
            ActivationKind::Relu => x.max(0.0),
            ActivationKind::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            ActivationKind::Tanh => x.tanh(),
        }
    }

    /// Floating-point operations per element (transcendentals expand into
    /// polynomial sequences).
    fn flops_per_elem(self) -> f64 {
        match self {
            ActivationKind::Relu => 1.0,
            ActivationKind::Sigmoid => 10.0,
            ActivationKind::Tanh => 12.0,
        }
    }
}

/// Elementwise non-linearity (Caffe2 `Relu`/`Sigmoid`/`Tanh`).
#[derive(Debug)]
pub struct Activation {
    kind: ActivationKind,
    dispatch: CodeRegion,
    kernel: CodeRegion,
}

impl Activation {
    /// Creates an activation op of `kind`.
    pub fn new(kind: ActivationKind, ctx: &mut ExecContext) -> Self {
        let op_kind = kind.op_kind();
        Activation {
            kind,
            dispatch: ctx.alloc_dispatch(op_kind),
            kernel: ctx.kernel_region(op_kind),
        }
    }

    /// The non-linearity this op applies (fused-op access).
    pub(crate) fn activation_kind(&self) -> ActivationKind {
        self.kind
    }
}

impl Operator for Activation {
    fn kind(&self) -> OpKind {
        self.kind.op_kind()
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn run(&self, ctx: &mut ExecContext, inputs: &[&Value]) -> Result<Value> {
        check_arity(self.kind().caffe2_name(), inputs, 1)?;
        let x = inputs[0].dense_ref("Activation")?;
        let y = x.map(|v| self.kind.apply(v));
        let bytes = (y.numel() * 4) as u64;
        let out_addr = ctx.alloc_activation(bytes);
        if ctx.tracing_enabled() {
            let n = x.numel() as f64;
            emit_stream(
                ctx,
                StreamEmit {
                    kind: self.kind(),
                    dispatch: self.dispatch,
                    kernel: self.kernel,
                    reads: &[(inputs[0].addr, bytes)],
                    writes: &[(out_addr, bytes)],
                    work: WorkVector {
                        fma_flops: 0.0,
                        other_flops: n * self.kind.flops_per_elem(),
                        int_ops: n / 16.0,
                        contig_load_elems: n,
                        contig_store_elems: n,
                        gather_rows: 0.0,
                        gather_row_bytes: 0.0,
                        vectorizable: 0.95,
                    },
                },
            );
        }
        let mut v = Value::dense(y);
        v.addr = out_addr;
        Ok(v)
    }
}

/// Elementwise product (Caffe2 `Mul`), broadcasting a `[batch, 1]` right
/// operand across features (used for attention weighting).
#[derive(Debug)]
pub struct Mul {
    dispatch: CodeRegion,
    kernel: CodeRegion,
}

impl Mul {
    /// Creates a multiply op.
    pub fn new(ctx: &mut ExecContext) -> Self {
        Mul {
            dispatch: ctx.alloc_dispatch(OpKind::Mul),
            kernel: ctx.kernel_region(OpKind::Mul),
        }
    }
}

impl Operator for Mul {
    fn kind(&self) -> OpKind {
        OpKind::Mul
    }

    fn run(&self, ctx: &mut ExecContext, inputs: &[&Value]) -> Result<Value> {
        check_arity("Mul", inputs, 2)?;
        let a = inputs[0].dense_ref("Mul")?;
        let b = inputs[1].dense_ref("Mul")?;
        let (rows_a, cols_a) = a.shape().as_matrix()?;
        let (rows_b, cols_b) = b.shape().as_matrix()?;
        let y = if a.dims() == b.dims() {
            a.mul(b)?
        } else if rows_a == rows_b && cols_b == 1 {
            // Broadcast b across features.
            let mut y = a.clone();
            for r in 0..rows_a {
                let scale = b.as_slice()[r];
                for v in &mut y.as_mut_slice()[r * cols_a..(r + 1) * cols_a] {
                    *v *= scale;
                }
            }
            y
        } else {
            return Err(OpError::InvalidInput {
                op: "Mul",
                message: format!(
                    "shapes {:?} and {:?} are neither equal nor row-broadcastable",
                    a.dims(),
                    b.dims()
                ),
            });
        };
        let bytes = (y.numel() * 4) as u64;
        let out_addr = ctx.alloc_activation(bytes);
        if ctx.tracing_enabled() {
            let n = y.numel() as f64;
            emit_stream(
                ctx,
                StreamEmit {
                    kind: OpKind::Mul,
                    dispatch: self.dispatch,
                    kernel: self.kernel,
                    reads: &[
                        (inputs[0].addr, (a.numel() * 4) as u64),
                        (inputs[1].addr, (b.numel() * 4) as u64),
                    ],
                    writes: &[(out_addr, bytes)],
                    work: WorkVector {
                        fma_flops: 0.0,
                        other_flops: n,
                        int_ops: n / 16.0,
                        contig_load_elems: (a.numel() + b.numel()) as f64,
                        contig_store_elems: n,
                        gather_rows: 0.0,
                        gather_row_bytes: 0.0,
                        vectorizable: 0.95,
                    },
                },
            );
        }
        let mut v = Value::dense(y);
        v.addr = out_addr;
        Ok(v)
    }
}

/// N-ary elementwise sum (Caffe2 `Sum`).
#[derive(Debug)]
pub struct Sum {
    dispatch: CodeRegion,
    kernel: CodeRegion,
}

impl Sum {
    /// Creates a sum op.
    pub fn new(ctx: &mut ExecContext) -> Self {
        Sum {
            dispatch: ctx.alloc_dispatch(OpKind::Sum),
            kernel: ctx.kernel_region(OpKind::Sum),
        }
    }
}

impl Operator for Sum {
    fn kind(&self) -> OpKind {
        OpKind::Sum
    }

    fn run(&self, ctx: &mut ExecContext, inputs: &[&Value]) -> Result<Value> {
        if inputs.is_empty() {
            return Err(OpError::ArityMismatch {
                op: "Sum",
                expected: 1,
                actual: 0,
            });
        }
        let first = inputs[0].dense_ref("Sum")?;
        let mut y = first.clone();
        for v in &inputs[1..] {
            let t = v.dense_ref("Sum")?;
            y = y.add(t)?;
        }
        let bytes = (y.numel() * 4) as u64;
        let out_addr = ctx.alloc_activation(bytes);
        if ctx.tracing_enabled() {
            let reads: Vec<(u64, u64)> = inputs.iter().map(|v| (v.addr, v.byte_size())).collect();
            let n = y.numel() as f64;
            let terms = inputs.len() as f64;
            emit_stream(
                ctx,
                StreamEmit {
                    kind: OpKind::Sum,
                    dispatch: self.dispatch,
                    kernel: self.kernel,
                    reads: &reads,
                    writes: &[(out_addr, bytes)],
                    work: WorkVector {
                        fma_flops: 0.0,
                        other_flops: n * (terms - 1.0).max(1.0),
                        int_ops: n / 16.0,
                        contig_load_elems: n * terms,
                        contig_store_elems: n,
                        gather_rows: 0.0,
                        gather_row_bytes: 0.0,
                        vectorizable: 0.95,
                    },
                },
            );
        }
        let mut v = Value::dense(y);
        v.addr = out_addr;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drec_tensor::Tensor;

    fn ctx() -> ExecContext {
        ExecContext::with_tracing(1 << 12)
    }

    #[test]
    fn relu_clamps_negatives() {
        let mut ctx = ctx();
        let relu = Activation::new(ActivationKind::Relu, &mut ctx);
        let x = ctx.external_input(Value::dense(
            Tensor::from_vec(vec![-2.0, 3.0], &[1, 2]).unwrap(),
        ));
        let y = relu.execute(&mut ctx, "relu", &[&x]).unwrap();
        assert_eq!(y.as_dense().unwrap().as_slice(), &[0.0, 3.0]);
    }

    #[test]
    fn sigmoid_range_and_midpoint() {
        let mut ctx = ctx();
        let sig = Activation::new(ActivationKind::Sigmoid, &mut ctx);
        let x = ctx.external_input(Value::dense(
            Tensor::from_vec(vec![0.0, 100.0, -100.0], &[1, 3]).unwrap(),
        ));
        let y = sig.execute(&mut ctx, "sig", &[&x]).unwrap();
        let s = y.as_dense().unwrap().as_slice().to_vec();
        assert!((s[0] - 0.5).abs() < 1e-6);
        assert!(s[1] > 0.999 && s[2] < 0.001);
    }

    #[test]
    fn tanh_is_odd() {
        let mut ctx = ctx();
        let op = Activation::new(ActivationKind::Tanh, &mut ctx);
        let x = ctx.external_input(Value::dense(
            Tensor::from_vec(vec![1.5, -1.5], &[1, 2]).unwrap(),
        ));
        let y = op.execute(&mut ctx, "t", &[&x]).unwrap();
        let s = y.as_dense().unwrap().as_slice().to_vec();
        assert!((s[0] + s[1]).abs() < 1e-6);
    }

    #[test]
    fn mul_same_shape_and_broadcast() {
        let mut ctx = ctx();
        let mul = Mul::new(&mut ctx);
        let a = ctx.external_input(Value::dense(
            Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap(),
        ));
        let b = ctx.external_input(Value::dense(
            Tensor::from_vec(vec![2.0, 0.5], &[2, 1]).unwrap(),
        ));
        let y = mul.execute(&mut ctx, "m", &[&a, &b]).unwrap();
        assert_eq!(y.as_dense().unwrap().as_slice(), &[2.0, 4.0, 1.5, 2.0]);
    }

    #[test]
    fn mul_rejects_incompatible() {
        let mut ctx = ctx();
        let mul = Mul::new(&mut ctx);
        let a = ctx.external_input(Value::dense(Tensor::zeros(&[2, 2])));
        let b = ctx.external_input(Value::dense(Tensor::zeros(&[3, 1])));
        assert!(mul.run(&mut ctx, &[&a, &b]).is_err());
    }

    #[test]
    fn sum_nary() {
        let mut ctx = ctx();
        let sum = Sum::new(&mut ctx);
        let a = ctx.external_input(Value::dense(Tensor::filled(&[1, 2], 1.0)));
        let b = ctx.external_input(Value::dense(Tensor::filled(&[1, 2], 2.0)));
        let c = ctx.external_input(Value::dense(Tensor::filled(&[1, 2], 3.0)));
        let y = sum.execute(&mut ctx, "s", &[&a, &b, &c]).unwrap();
        assert_eq!(y.as_dense().unwrap().as_slice(), &[6.0, 6.0]);
    }

    #[test]
    fn sum_requires_inputs() {
        let mut ctx = ctx();
        let sum = Sum::new(&mut ctx);
        assert!(sum.run(&mut ctx, &[]).is_err());
    }

    #[test]
    fn sigmoid_costs_more_flops_than_relu() {
        let mut ctx = ctx();
        let relu = Activation::new(ActivationKind::Relu, &mut ctx);
        let sig = Activation::new(ActivationKind::Sigmoid, &mut ctx);
        let x = ctx.external_input(Value::dense(Tensor::zeros(&[4, 8])));
        relu.execute(&mut ctx, "r", &[&x]).unwrap();
        sig.execute(&mut ctx, "s", &[&x]).unwrap();
        let ops: Vec<_> = ctx.drain_ops().collect();
        assert!(ops[1].work.other_flops > ops[0].work.other_flops * 5.0);
    }
}
