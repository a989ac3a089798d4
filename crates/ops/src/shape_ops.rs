use drec_tensor::Tensor;
use drec_trace::{CodeRegion, WorkVector};

use crate::elementwise::{emit_stream, StreamEmit};
use crate::{ExecContext, OpError, OpKind, Operator, Result, Value};

/// Feature-axis concatenation (Caffe2 `Concat`).
///
/// All inputs must share the same batch (row) count; outputs are laid out
/// `[batch, sum-of-feature-widths]`. The paper highlights that DIN's
/// attention implementation leans on *hundreds* of these small concats,
/// which is costly on GPUs (kernel-launch bound) and thrashes the CPU
/// i-cache (Fig 3 and Fig 12 discussions).
#[derive(Debug)]
pub struct Concat {
    dispatch: CodeRegion,
    kernel: CodeRegion,
}

impl Concat {
    /// Creates a concat op.
    pub fn new(ctx: &mut ExecContext) -> Self {
        Concat {
            dispatch: ctx.alloc_dispatch(OpKind::Concat),
            kernel: ctx.kernel_region(OpKind::Concat),
        }
    }
}

impl Operator for Concat {
    fn kind(&self) -> OpKind {
        OpKind::Concat
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn run(&self, ctx: &mut ExecContext, inputs: &[&Value]) -> Result<Value> {
        if inputs.len() < 2 {
            return Err(OpError::ArityMismatch {
                op: "Concat",
                expected: 2,
                actual: inputs.len(),
            });
        }
        let mut batch = None;
        let mut widths = Vec::with_capacity(inputs.len());
        for v in inputs {
            let t = v.dense_ref("Concat")?;
            let (rows, cols) = t.shape().as_matrix()?;
            match batch {
                None => batch = Some(rows),
                Some(b) if b != rows => {
                    return Err(OpError::InvalidInput {
                        op: "Concat",
                        message: format!("row mismatch: {b} vs {rows}"),
                    })
                }
                _ => {}
            }
            widths.push(cols);
        }
        let batch = batch.unwrap_or(0);
        let total_width: usize = widths.iter().sum();
        let mut out = Tensor::zeros(&[batch, total_width]);
        for r in 0..batch {
            let mut off = 0usize;
            for (v, &w) in inputs.iter().zip(&widths) {
                let t = v.dense_ref("Concat")?;
                out.as_mut_slice()[r * total_width + off..r * total_width + off + w]
                    .copy_from_slice(&t.as_slice()[r * w..(r + 1) * w]);
                off += w;
            }
        }
        let bytes = (out.numel() * 4) as u64;
        let out_addr = ctx.alloc_activation(bytes);
        if ctx.tracing_enabled() {
            let reads: Vec<(u64, u64)> = inputs.iter().map(|v| (v.addr, v.byte_size())).collect();
            let n = out.numel() as f64;
            emit_stream(
                ctx,
                StreamEmit {
                    kind: OpKind::Concat,
                    dispatch: self.dispatch,
                    kernel: self.kernel,
                    reads: &reads,
                    writes: &[(out_addr, bytes)],
                    work: WorkVector {
                        fma_flops: 0.0,
                        other_flops: 0.0,
                        // Per-row copies need offset bookkeeping.
                        int_ops: n / 4.0 + (batch * inputs.len()) as f64 * 4.0,
                        contig_load_elems: n,
                        contig_store_elems: n,
                        gather_rows: 0.0,
                        gather_row_bytes: 0.0,
                        vectorizable: 0.9,
                    },
                },
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
    fn concat_two_inputs() {
        let mut ctx = ExecContext::with_tracing(1 << 12);
        let cat = Concat::new(&mut ctx);
        let a = ctx.external_input(Value::dense(
            Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap(),
        ));
        let b = ctx.external_input(Value::dense(
            Tensor::from_vec(vec![5.0, 6.0], &[2, 1]).unwrap(),
        ));
        let y = cat.execute(&mut ctx, "cat", &[&a, &b]).unwrap();
        let t = y.as_dense().unwrap();
        assert_eq!(t.dims(), &[2, 3]);
        assert_eq!(t.as_slice(), &[1.0, 2.0, 5.0, 3.0, 4.0, 6.0]);
    }

    #[test]
    fn concat_requires_matching_rows() {
        let mut ctx = ExecContext::new();
        let cat = Concat::new(&mut ctx);
        let a = ctx.external_input(Value::dense(Tensor::zeros(&[2, 2])));
        let b = ctx.external_input(Value::dense(Tensor::zeros(&[3, 2])));
        assert!(cat.run(&mut ctx, &[&a, &b]).is_err());
    }

    #[test]
    fn concat_requires_two_inputs() {
        let mut ctx = ExecContext::new();
        let cat = Concat::new(&mut ctx);
        let a = ctx.external_input(Value::dense(Tensor::zeros(&[2, 2])));
        assert!(cat.run(&mut ctx, &[&a]).is_err());
    }

    #[test]
    fn concat_trace_is_data_movement_only() {
        let mut ctx = ExecContext::with_tracing(1 << 12);
        let cat = Concat::new(&mut ctx);
        let a = ctx.external_input(Value::dense(Tensor::zeros(&[4, 8])));
        let b = ctx.external_input(Value::dense(Tensor::zeros(&[4, 8])));
        cat.execute(&mut ctx, "cat", &[&a, &b]).unwrap();
        let ops: Vec<_> = ctx.drain_ops().collect();
        let t = &ops[0];
        assert_eq!(t.work.total_flops(), 0.0);
        assert!(t.work.contig_store_elems > 0.0);
        assert_eq!(t.class, drec_trace::KernelClass::DataMovement);
    }
}
