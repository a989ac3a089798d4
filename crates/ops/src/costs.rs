//! Static cost constants per operator kind.
//!
//! These model the *code* side of each kernel: how many bytes of
//! instruction memory the shared kernel occupies, how large its hot inner
//! loop is, and how much per-instance dispatch code the framework adds
//! around every operator node. Values are order-of-magnitude estimates of
//! Caffe2 + MKL-style kernels (a packed GEMM with microkernels is tens of
//! KB; an elementwise loop is under a KB) and are *calibration* parameters
//! of the study, not measurements — see DESIGN.md §5.

use crate::OpKind;

/// Instruction-memory cost constants for one operator kind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct KindCost {
    /// Shared kernel code bytes (one region per kind per graph).
    pub(crate) kernel_bytes: u64,
    /// Hot inner-loop bytes within the kernel.
    pub(crate) hot_loop_bytes: u64,
    /// Per-instance dispatch/marshalling code bytes.
    pub(crate) dispatch_bytes: u64,
    /// Elements processed per hot-loop iteration (vector-unrolled kernels
    /// chew through more elements per trip).
    pub(crate) elems_per_iter: f64,
}

/// Framework overhead executed per operator invocation, in instructions
/// (argument checks, tensor metadata, allocator calls). This is what makes
/// tiny-batch inference overhead-bound on every platform.
pub const FRAMEWORK_OVERHEAD_INSTRS: f64 = 2_500.0;

/// Returns the cost constants for an operator kind.
pub(crate) fn kind_cost(kind: OpKind) -> KindCost {
    match kind {
        OpKind::Fc => KindCost {
            kernel_bytes: 14 * 1024,
            hot_loop_bytes: 384,
            dispatch_bytes: 5 * 1024,
            elems_per_iter: 32.0,
        },
        OpKind::BatchMatMul => KindCost {
            kernel_bytes: 6 * 1024,
            hot_loop_bytes: 256,
            dispatch_bytes: 6 * 1024,
            elems_per_iter: 16.0,
        },
        OpKind::SparseLengthsSum | OpKind::SparseLengthsMean => KindCost {
            kernel_bytes: 2_048,
            hot_loop_bytes: 192,
            dispatch_bytes: 7 * 1024,
            elems_per_iter: 16.0,
        },
        OpKind::Gather => KindCost {
            kernel_bytes: 1_536,
            hot_loop_bytes: 128,
            dispatch_bytes: 4 * 1024,
            elems_per_iter: 16.0,
        },
        OpKind::Concat => KindCost {
            kernel_bytes: 1_024,
            hot_loop_bytes: 96,
            dispatch_bytes: 4 * 1024,
            elems_per_iter: 32.0,
        },
        OpKind::Relu => KindCost {
            kernel_bytes: 768,
            hot_loop_bytes: 64,
            dispatch_bytes: 3 * 1024,
            elems_per_iter: 32.0,
        },
        OpKind::Sigmoid | OpKind::Tanh => KindCost {
            // exp() polynomial expansion inflates the loop body.
            kernel_bytes: 1_536,
            hot_loop_bytes: 224,
            dispatch_bytes: 3 * 1024,
            elems_per_iter: 8.0,
        },
        OpKind::Mul => KindCost {
            kernel_bytes: 768,
            hot_loop_bytes: 64,
            dispatch_bytes: 3 * 1024,
            elems_per_iter: 32.0,
        },
        OpKind::Sum => KindCost {
            kernel_bytes: 896,
            hot_loop_bytes: 80,
            dispatch_bytes: 3 * 1024,
            elems_per_iter: 32.0,
        },
        OpKind::Softmax => KindCost {
            kernel_bytes: 2_048,
            hot_loop_bytes: 208,
            dispatch_bytes: 3 * 1024,
            elems_per_iter: 8.0,
        },
        OpKind::RecurrentNetwork => KindCost {
            // Gate matmuls + elementwise fusion + per-timestep subnet
            // dispatch: Caffe2's RecurrentNetwork steps a full sub-net
            // through the framework every timestep.
            kernel_bytes: 18 * 1024,
            hot_loop_bytes: 448,
            dispatch_bytes: 24 * 1024,
            elems_per_iter: 16.0,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_has_costs() {
        for kind in OpKind::ALL {
            let c = kind_cost(kind);
            assert!(c.kernel_bytes > 0, "{kind} kernel");
            assert!(c.hot_loop_bytes > 0, "{kind} hot loop");
            assert!(c.hot_loop_bytes <= c.kernel_bytes, "{kind} loop <= kernel");
            assert!(c.dispatch_bytes > 0, "{kind} dispatch");
            assert!(c.elems_per_iter > 0.0, "{kind} elems/iter");
        }
    }

    #[test]
    fn gemm_kernel_is_largest() {
        let fc = kind_cost(OpKind::Fc).kernel_bytes;
        for kind in [OpKind::Relu, OpKind::Mul, OpKind::Concat, OpKind::Gather] {
            assert!(kind_cost(kind).kernel_bytes < fc);
        }
    }
}
