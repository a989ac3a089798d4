//! Deep-learning operator library with functional execution and trace
//! emission — the suite's stand-in for Caffe2's operator set.
//!
//! Every operator the eight recommendation models need is implemented here
//! from scratch:
//!
//! | Operator | Caffe2 type | Role |
//! |---|---|---|
//! | [`FullyConnected`] | `FC` | MLP layers |
//! | [`SparseLengthsSum`] | `SparseLengthsSum` | pooled embedding lookups |
//! | [`EmbeddingGather`] | `Gather` | unpooled per-position lookups (DIN/DIEN) |
//! | [`Concat`] | `Concat` | feature aggregation |
//! | [`Activation`] | `Relu`/`Sigmoid`/`Tanh` | non-linearities |
//! | [`Mul`] | `Mul` | elementwise products (GMF, attention scaling) |
//! | [`Sum`] | `Sum` | n-ary elementwise sums |
//! | [`Softmax`] | `Softmax` | attention normalisation |
//! | [`PairwiseDot`] | `BatchMatMul` | DLRM feature interaction |
//! | [`Gru`] | `RecurrentNetwork` | DIEN interest evolution |
//! | [`SequenceDot`] | `BatchMatMul` | attention scores over a sequence |
//! | [`WeightedSum`] | `BatchMatMul` | attention-weighted pooling |
//!
//! Operators do two things at once: they compute real `f32` outputs, and —
//! when the [`ExecContext`] has tracing enabled — they record the evidence
//! (`drec-trace`) that the hardware models consume: sampled data addresses,
//! work vectors, branch profiles, and code footprints.
//!
//! # Example
//!
//! ```
//! use drec_ops::{Activation, ActivationKind, ExecContext, Operator, Value};
//! use drec_tensor::Tensor;
//!
//! # fn main() -> Result<(), drec_ops::OpError> {
//! let mut ctx = ExecContext::with_tracing(1 << 20);
//! let relu = Activation::new(ActivationKind::Relu, &mut ctx);
//! let x = ctx.external_input(Value::dense(
//!     Tensor::from_vec(vec![-1.0, 2.0], &[1, 2]).unwrap(),
//! ));
//! let y = relu.run(&mut ctx, &[&x])?;
//! assert_eq!(y.as_dense()?.as_slice(), &[0.0, 2.0]);
//! # Ok(())
//! # }
//! ```

mod context;
mod costs;
mod elementwise;
mod embedding;
mod error;
mod fc;
mod fused;
mod gru;
mod interaction;
mod kind;
mod op;
mod sequence;
mod shape_ops;
mod softmax;
mod value;

pub use context::ExecContext;
pub(crate) use costs::kind_cost;
pub use costs::FRAMEWORK_OVERHEAD_INSTRS;
pub use elementwise::{Activation, ActivationKind, Mul, Sum};
pub use embedding::{EmbeddingGather, EmbeddingTable, GatherMode, PoolMode, SparseLengthsSum};
pub use error::OpError;
pub use fc::{FcParams, FullyConnected};
pub use fused::{FusedConcatInput, FusedFc, MultiTableSls};
pub use gru::Gru;
pub use interaction::PairwiseDot;
pub use kind::OpKind;
pub use op::Operator;
pub use sequence::{SequenceDot, WeightedSum};
pub use shape_ops::Concat;
pub use softmax::Softmax;
pub use value::{IdList, Value, ValuePayload};

/// Convenience result alias for operator execution.
pub(crate) type Result<T> = std::result::Result<T, OpError>;
