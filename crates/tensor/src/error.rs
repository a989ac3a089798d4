use std::error::Error;
use std::fmt;

/// Error type for tensor construction and arithmetic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// The data length does not match the product of the shape dimensions.
    ShapeDataMismatch {
        /// Number of elements implied by the shape.
        expected: usize,
        /// Number of elements actually provided.
        actual: usize,
    },
    /// Two operands have incompatible shapes for the attempted operation.
    ShapeMismatch {
        /// Human-readable name of the operation (e.g. `"matmul"`).
        op: &'static str,
        /// Shape of the left operand.
        lhs: Vec<usize>,
        /// Shape of the right operand.
        rhs: Vec<usize>,
    },
    /// An index was out of bounds for the tensor's shape.
    IndexOutOfBounds {
        /// The offending index.
        index: Vec<usize>,
        /// The tensor shape.
        shape: Vec<usize>,
    },
    /// The operation requires a tensor of a different rank.
    RankMismatch {
        /// Human-readable name of the operation.
        op: &'static str,
        /// Rank required by the operation.
        expected: usize,
        /// Rank of the provided tensor.
        actual: usize,
    },
    /// A reshape target has a different element count than the source.
    ReshapeMismatch {
        /// Element count of the source tensor.
        from: usize,
        /// Element count implied by the requested shape.
        to: usize,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeDataMismatch { expected, actual } => write!(
                f,
                "shape implies {expected} elements but {actual} were provided"
            ),
            TensorError::ShapeMismatch { op, lhs, rhs } => {
                write!(f, "incompatible shapes for {op}: {lhs:?} vs {rhs:?}")
            }
            TensorError::IndexOutOfBounds { index, shape } => {
                write!(f, "index {index:?} out of bounds for shape {shape:?}")
            }
            TensorError::RankMismatch {
                op,
                expected,
                actual,
            } => write!(f, "{op} requires rank {expected}, got rank {actual}"),
            TensorError::ReshapeMismatch { from, to } => {
                write!(f, "cannot reshape {from} elements into {to} elements")
            }
        }
    }
}

impl Error for TensorError {}
