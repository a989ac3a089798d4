use drec_tensor::{gemm_transposed, ParamInit, Tensor};
use drec_trace::{BranchProfile, CodeFootprint, CodeRegion, WorkVector};

use crate::embedding::sample_chunk_elems;
use crate::op::check_arity;
use crate::{kind_cost, ExecContext, OpError, OpKind, Operator, Result, Value};

/// Multi-timestep gated recurrent unit layer (Caffe2 `RecurrentNetwork`).
///
/// Consumes a flattened sequence `[batch, seq_len·input_dim]` and produces
/// either the full hidden sequence `[batch, seq_len·hidden]` or the final
/// state `[batch, hidden]`. DIEN stacks two of these to model interest
/// evolution; the paper notes that GRUs "translate to matrix
/// multiplications that perform well on GPUs" and produce cache-friendly
/// loops on CPUs (Fig 12 discussion) — both properties emerge here because
/// the hidden-to-gate weights are re-read every timestep (high temporal
/// locality) and the work is dense MACs. The input-to-gate projection has
/// no recurrence in it and is one product over all timesteps; the analytic
/// trace still models Caffe2's per-step kernel.
#[derive(Debug)]
pub struct Gru {
    /// Input-to-gate weights `[3·hidden, input_dim]` (z, r, candidate).
    w: Tensor,
    /// Hidden-to-gate weights `[3·hidden, hidden]`.
    u: Tensor,
    /// Gate biases `[3·hidden]`.
    bias: Tensor,
    input_dim: usize,
    hidden: usize,
    return_sequence: bool,
    w_addr: u64,
    u_addr: u64,
    dispatch: CodeRegion,
    kernel: CodeRegion,
}

impl Gru {
    /// Creates a GRU layer.
    pub fn new(
        input_dim: usize,
        hidden: usize,
        return_sequence: bool,
        ctx: &mut ExecContext,
        init: &mut ParamInit,
    ) -> Self {
        let w = init.xavier(&[3 * hidden, input_dim], input_dim, hidden);
        let u = init.xavier(&[3 * hidden, hidden], hidden, hidden);
        let bias = init.uniform(&[3 * hidden], -0.01, 0.01);
        let w_addr = ctx.alloc_param((3 * hidden * input_dim * 4) as u64);
        let u_addr = ctx.alloc_param((3 * hidden * hidden * 4) as u64);
        Gru {
            w,
            u,
            bias,
            input_dim,
            hidden,
            return_sequence,
            w_addr,
            u_addr,
            dispatch: ctx.alloc_dispatch(OpKind::RecurrentNetwork),
            kernel: ctx.kernel_region(OpKind::RecurrentNetwork),
        }
    }

    /// Hidden state width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }
}

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

impl Operator for Gru {
    fn kind(&self) -> OpKind {
        OpKind::RecurrentNetwork
    }

    fn param_bytes(&self) -> u64 {
        ((self.w.numel() + self.u.numel() + self.bias.numel()) * 4) as u64
    }

    fn run(&self, ctx: &mut ExecContext, inputs: &[&Value]) -> Result<Value> {
        check_arity("RecurrentNetwork", inputs, 1)?;
        let x = inputs[0].dense_ref("RecurrentNetwork")?;
        let (batch, cols) = x.shape().as_matrix()?;
        if self.input_dim == 0 || cols % self.input_dim != 0 {
            return Err(OpError::InvalidInput {
                op: "RecurrentNetwork",
                message: format!(
                    "input width {cols} is not a multiple of input_dim {}",
                    self.input_dim
                ),
            });
        }
        let seq_len = cols / self.input_dim;
        let hidden = self.hidden;
        let in_dim = self.input_dim;
        let h3 = 3 * hidden;

        // All scratch comes from the context arena (and is recycled for
        // later ops), so the recurrence allocates nothing in steady state.
        let mut gx = ctx.take_buffer(batch * seq_len * h3);
        let mut gh = ctx.take_buffer(batch * h3);
        let mut h = ctx.take_buffer(batch * hidden);
        let mut new_h = ctx.take_buffer(batch * hidden);
        let mut seq_out = if self.return_sequence {
            Some(ctx.take_buffer(batch * seq_len * hidden))
        } else {
            None
        };

        // The input projection does not depend on the recurrence, and `x`
        // is already `[batch·seq_len, in_dim]` row-major: one product gives
        // x_t·Wᵀ for every timestep (row `b·seq_len + t`), one pass over W
        // instead of `seq_len`.
        let steps = batch * seq_len;
        gemm_transposed(x.as_slice(), self.w.as_slice(), steps, in_dim, h3, &mut gx);

        let bias = self.bias.as_slice();
        let pool = drec_par::current();
        let gate_chunk = sample_chunk_elems(batch, hidden, pool.threads());
        for t in 0..seq_len {
            // Hidden-state gate pre-activations h·Uᵀ, [batch, 3·hidden].
            gemm_transposed(&h, self.u.as_slice(), batch, hidden, h3, &mut gh);
            // Gate math is independent per sample: fan it out over the
            // pool in sample-aligned chunks (per-sample order unchanged,
            // so outputs stay bit-identical to the serial loop).
            let (gx_r, gh_r, h_r) = (&gx[..], &gh[..], &h[..]);
            pool.for_each_chunk_mut(&mut new_h, gate_chunk, |offset, block| {
                let first = offset / hidden;
                for (s, row) in block.chunks_mut(hidden).enumerate() {
                    let b = first + s;
                    let gxr = &gx_r[(b * seq_len + t) * h3..(b * seq_len + t + 1) * h3];
                    let ghr = &gh_r[b * h3..(b + 1) * h3];
                    let prev = &h_r[b * hidden..(b + 1) * hidden];
                    for j in 0..hidden {
                        let z = sigmoid(gxr[j] + ghr[j] + bias[j]);
                        let r = sigmoid(gxr[hidden + j] + ghr[hidden + j] + bias[hidden + j]);
                        let cand =
                            (gxr[2 * hidden + j] + r * ghr[2 * hidden + j] + bias[2 * hidden + j])
                                .tanh();
                        row[j] = (1.0 - z) * prev[j] + z * cand;
                    }
                }
            });
            std::mem::swap(&mut h, &mut new_h);
            if let Some(seq) = &mut seq_out {
                for b in 0..batch {
                    let dst_off = b * seq_len * hidden + t * hidden;
                    seq[dst_off..dst_off + hidden]
                        .copy_from_slice(&h[b * hidden..(b + 1) * hidden]);
                }
            }
        }

        ctx.recycle_buffer(gx);
        ctx.recycle_buffer(gh);
        ctx.recycle_buffer(new_h);
        let out = match seq_out {
            Some(seq) => {
                ctx.recycle_buffer(h);
                Tensor::from_pooled(seq, &[batch, seq_len * hidden])
            }
            None => Tensor::from_pooled(h, &[batch, hidden]),
        };
        let out_bytes = (out.numel() * 4) as u64;
        let out_addr = ctx.alloc_activation(out_bytes);

        if ctx.tracing_enabled() {
            let w_bytes = (self.w.numel() * 4) as u64;
            let u_bytes = (self.u.numel() * 4) as u64;
            let h_bytes = (batch * self.hidden * 4) as u64;
            let x_bytes = (batch * cols * 4) as u64;
            let t = seq_len as u64;
            ctx.reserve_mem_events(
                x_bytes / 64 + t * (w_bytes + u_bytes + 2 * h_bytes) / 64 + out_bytes / 64 + 4,
            );
            ctx.record_read(inputs[0].addr, x_bytes);
            for _ in 0..seq_len {
                ctx.record_read(self.w_addr, w_bytes);
                ctx.record_read(self.u_addr, u_bytes);
            }
            ctx.record_write(out_addr, out_bytes);

            let macs = (batch * seq_len * (h3 * self.input_dim + h3 * self.hidden)) as f64;
            let gate_elems = (batch * seq_len * self.hidden) as f64;
            ctx.add_work(WorkVector {
                fma_flops: 2.0 * macs,
                // z/r sigmoids (≈10 flops each), tanh (≈12), blend (≈4).
                other_flops: gate_elems * 36.0,
                int_ops: macs / 16.0,
                contig_load_elems: (batch * cols) as f64
                    + seq_len as f64 * ((self.w.numel() + self.u.numel()) as f64),
                contig_store_elems: out.numel() as f64 + gate_elems,
                gather_rows: 0.0,
                gather_row_bytes: 0.0,
                vectorizable: 0.95,
            });
            let cost = kind_cost(OpKind::RecurrentNetwork);
            let iterations = macs / cost.elems_per_iter;
            ctx.add_branches(BranchProfile {
                loop_branches: iterations + seq_len as f64,
                data_branches: 0.0,
                data_taken_rate: 0.0,
                indirect_branches: 4.0 + seq_len as f64,
            });
            ctx.set_code(CodeFootprint {
                dispatch: self.dispatch,
                kernel: self.kernel,
                hot_bytes: cost.hot_loop_bytes,
                invocations: seq_len as u64,
                iterations: iterations / seq_len as f64,
            });
        }

        let mut v = Value::dense(out);
        v.addr = out_addr;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (ExecContext, ParamInit) {
        (ExecContext::with_tracing(1 << 14), ParamInit::new(9))
    }

    #[test]
    fn final_state_shape() {
        let (mut ctx, mut init) = setup();
        let gru = Gru::new(4, 6, false, &mut ctx, &mut init);
        let x = ctx.external_input(Value::dense(Tensor::zeros(&[3, 20]))); // seq 5
        let y = gru.execute(&mut ctx, "gru", &[&x]).unwrap();
        assert_eq!(y.as_dense().unwrap().dims(), &[3, 6]);
    }

    #[test]
    fn sequence_output_shape() {
        let (mut ctx, mut init) = setup();
        let gru = Gru::new(4, 6, true, &mut ctx, &mut init);
        let x = ctx.external_input(Value::dense(Tensor::zeros(&[2, 12]))); // seq 3
        let y = gru.execute(&mut ctx, "gru", &[&x]).unwrap();
        assert_eq!(y.as_dense().unwrap().dims(), &[2, 18]);
    }

    #[test]
    fn zero_input_keeps_bounded_state() {
        let (mut ctx, mut init) = setup();
        let gru = Gru::new(2, 3, false, &mut ctx, &mut init);
        let x = ctx.external_input(Value::dense(Tensor::zeros(&[1, 20])));
        let y = gru.execute(&mut ctx, "gru", &[&x]).unwrap();
        assert!(y
            .as_dense()
            .unwrap()
            .as_slice()
            .iter()
            .all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn last_sequence_step_equals_final_state() {
        let (mut ctx, mut init) = setup();
        let mut init2 = ParamInit::new(9);
        let seq_gru = Gru::new(3, 4, true, &mut ctx, &mut init);
        let fin_gru = Gru::new(3, 4, false, &mut ctx, &mut init2);
        let xt = ParamInit::new(77).uniform(&[2, 9], -1.0, 1.0); // seq 3
        let x = ctx.external_input(Value::dense(xt));
        let seq = seq_gru.execute(&mut ctx, "a", &[&x]).unwrap();
        let fin = fin_gru.execute(&mut ctx, "b", &[&x]).unwrap();
        let seq_t = seq.as_dense().unwrap();
        let fin_t = fin.as_dense().unwrap();
        for b in 0..2 {
            for j in 0..4 {
                let last = seq_t.get(&[b, 2 * 4 + j]).unwrap();
                let f = fin_t.get(&[b, j]).unwrap();
                assert!((last - f).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn rejects_non_divisible_input() {
        let (mut ctx, mut init) = setup();
        let gru = Gru::new(4, 6, false, &mut ctx, &mut init);
        let x = ctx.external_input(Value::dense(Tensor::zeros(&[1, 10])));
        assert!(gru.run(&mut ctx, &[&x]).is_err());
    }

    #[test]
    fn trace_is_matmul_dominated() {
        let (mut ctx, mut init) = setup();
        let gru = Gru::new(8, 16, false, &mut ctx, &mut init);
        let x = ctx.external_input(Value::dense(Tensor::zeros(&[4, 40]))); // seq 5
        gru.execute(&mut ctx, "gru", &[&x]).unwrap();
        let ops: Vec<_> = ctx.drain_ops().collect();
        let t = &ops[0];
        assert!(t.work.fma_flops > t.work.other_flops);
        assert_eq!(t.work.gather_rows, 0.0);
        assert_eq!(t.class, drec_trace::KernelClass::Recurrent);
    }
}
