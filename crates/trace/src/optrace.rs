use crate::{BranchProfile, CodeFootprint, SampledMemTrace, WorkVector};

/// Coarse hardware-behaviour class of a kernel.
///
/// The platform models key their efficiency/latency heuristics on this
/// class rather than on the (framework-specific) operator name, mirroring
/// how the paper reasons about operator families ("matrix operations",
/// "embedding operations", "concatenation", "recurrent layers").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelClass {
    /// Dense matrix multiplication (FC layers, GRU gates, batched matmul).
    DenseMatmul,
    /// Irregular row gathers plus pooling (embedding lookups).
    Gather,
    /// Elementwise arithmetic or activation functions.
    Elementwise,
    /// Pure data movement (concat, split, flatten).
    DataMovement,
    /// Reductions (sums, softmax normalisation).
    Reduction,
    /// Sequential recurrent computation (GRU time loop control).
    Recurrent,
}

impl KernelClass {
    /// All classes, for iteration in reports.
    pub(crate) const ALL: [KernelClass; 6] = [
        KernelClass::DenseMatmul,
        KernelClass::Gather,
        KernelClass::Elementwise,
        KernelClass::DataMovement,
        KernelClass::Reduction,
        KernelClass::Recurrent,
    ];
}

/// Everything one operator execution left behind.
#[derive(Debug, Clone)]
pub struct OpTrace {
    /// Graph node name (unique within a run).
    pub name: String,
    /// Framework operator type in the Caffe2 dialect (e.g. `"FC"`,
    /// `"SparseLengthsSum"`). Dialect translation happens in `drec-graph`.
    pub op_type: String,
    /// Hardware-behaviour class.
    pub class: KernelClass,
    /// Arithmetic/memory work performed.
    pub work: WorkVector,
    /// Branch behaviour.
    pub branches: BranchProfile,
    /// Instruction-memory footprint.
    pub code: CodeFootprint,
    /// Sampled data-address stream.
    pub mem: SampledMemTrace,
    /// Bytes of input activations consumed.
    pub bytes_in: u64,
    /// Bytes of output activations produced.
    pub bytes_out: u64,
    /// Bytes of parameters read (weights/biases; excludes embedding
    /// tables, whose actually-touched rows are in `work.gather_*`).
    pub param_bytes: u64,
}

impl OpTrace {
    /// Total floating-point operations.
    pub(crate) fn flops(&self) -> f64 {
        self.work.total_flops()
    }
}

/// The complete trace of one model inference at one batch size.
#[derive(Debug, Clone)]
pub struct RunTrace {
    /// Per-operator traces in execution order.
    pub ops: Vec<OpTrace>,
    /// Inference batch size.
    pub batch: usize,
    /// Bytes of model input (continuous features + categorical indices)
    /// that a discrete accelerator would have to transfer over PCIe.
    pub input_bytes: u64,
}

impl RunTrace {
    /// Total flops across all operators.
    pub fn total_flops(&self) -> f64 {
        self.ops.iter().map(OpTrace::flops).sum()
    }

    /// Total gathered rows across all operators.
    pub fn total_gather_rows(&self) -> f64 {
        self.ops.iter().map(|o| o.work.gather_rows).sum()
    }

    /// Number of operator executions of a given class.
    pub fn count_class(&self, class: KernelClass) -> usize {
        self.ops.iter().filter(|o| o.class == class).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_op(name: &str, class: KernelClass, flops: f64) -> OpTrace {
        OpTrace {
            name: name.to_string(),
            op_type: "FC".to_string(),
            class,
            work: WorkVector {
                fma_flops: flops,
                ..WorkVector::default()
            },
            branches: BranchProfile::default(),
            code: CodeFootprint::empty(),
            mem: SampledMemTrace::with_period(1),
            bytes_in: 0,
            bytes_out: 0,
            param_bytes: 0,
        }
    }

    #[test]
    fn run_trace_totals() {
        let run = RunTrace {
            ops: vec![
                dummy_op("a", KernelClass::DenseMatmul, 100.0),
                dummy_op("b", KernelClass::Gather, 8.0),
            ],
            batch: 4,
            input_bytes: 1024,
        };
        assert_eq!(run.total_flops(), 108.0);
        assert_eq!(run.count_class(KernelClass::Gather), 1);
        assert_eq!(run.count_class(KernelClass::Recurrent), 0);
    }
}
