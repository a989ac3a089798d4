use crate::{ExecContext, OpKind, Result, Value};

/// A deep-learning operator: functional compute plus trace emission.
///
/// Implementations compute real outputs in [`Operator::run`] and, when the
/// context records traces, describe the work they performed through the
/// context's `add_work` / `record_read` / … methods.
///
/// [`Operator::execute`] is the traced bracket the graph executor
/// (`drec_graph::execute`) runs each node through: it wraps `run` in the
/// per-op trace record so the emitted evidence lands in a
/// [`drec_trace::OpTrace`]. No operator overrides it. Compiled plans,
/// which do not trace, call `run` directly.
///
/// Operators are `Send + Sync` so whole models can move across threads
/// (the parallel sweep in `drec-core` runs one model per worker).
pub trait Operator: std::fmt::Debug + Send + Sync {
    /// The framework-level operator kind.
    fn kind(&self) -> OpKind;

    /// Concrete-type access for graph-level rewrite passes (the plan
    /// compiler's fusion rules downcast through this). Operators that can
    /// participate in fusion return `Some(self)`; the default opts out.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }

    /// Performs the computation, emitting trace evidence into `ctx`.
    ///
    /// # Errors
    ///
    /// Returns an [`crate::OpError`] on arity/shape/value-kind mismatches.
    fn run(&self, ctx: &mut ExecContext, inputs: &[&Value]) -> Result<Value>;

    /// Bytes of trainable parameters this operator owns (FC weights,
    /// embedding tables). Used for model-architecture feature extraction
    /// (paper Fig 16).
    fn param_bytes(&self) -> u64 {
        0
    }

    /// Runs the operator as a named node, capturing a per-op trace record.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`Operator::run`].
    fn execute(&self, ctx: &mut ExecContext, name: &str, inputs: &[&Value]) -> Result<Value> {
        let kind = self.kind();
        ctx.begin_op(name, kind.caffe2_name(), kind.kernel_class());
        let result = self.run(ctx, inputs);
        match result {
            Ok(out) => {
                let bytes_in: u64 = inputs.iter().map(|v| v.byte_size()).sum();
                // Gather-class ops report their (virtual) table size as
                // params; their actually-touched bytes live in the work
                // vector, so the trace records dense weights only.
                let params = match kind.kernel_class() {
                    drec_trace::KernelClass::Gather => 0,
                    _ => self.param_bytes(),
                };
                ctx.end_op(bytes_in, out.byte_size(), params);
                Ok(out)
            }
            Err(e) => {
                ctx.end_op(0, 0, 0);
                Err(e)
            }
        }
    }
}

/// Checks input arity, returning an [`crate::OpError::ArityMismatch`]
/// otherwise.
pub(crate) fn check_arity(op: &'static str, inputs: &[&Value], expected: usize) -> Result<()> {
    if inputs.len() != expected {
        return Err(crate::OpError::ArityMismatch {
            op,
            expected,
            actual: inputs.len(),
        });
    }
    Ok(())
}
