//! Dense `f32` tensor substrate for the DeepRec characterization suite.
//!
//! This crate provides the numerical foundation that the operator library
//! (`drec-ops`) is built on: a row-major dense [`Tensor`] type, shape
//! arithmetic, register-blocked parallel matrix multiplication (see
//! [`gemm_transposed`]), and deterministic parameter initialisation.
//!
//! The tensor type is deliberately small and self-contained. The matrix
//! kernels are register-blocked micro-kernels parallelized over the
//! `drec-par` pool, with a determinism guarantee: outputs are bit-identical
//! for every thread count, so traces and characterization results never
//! depend on `DREC_THREADS`.
//!
//! The [`simd`] module adds runtime-dispatched AVX2/FMA kernels for the
//! quantized-row hot loops and the GEMM dot cell, with portable scalar
//! oracles and a `DREC_FORCE_SCALAR=1` override; see its docs for the
//! bit-identity contracts.
//!
//! # Example
//!
//! ```
//! use drec_tensor::Tensor;
//!
//! # fn main() -> Result<(), drec_tensor::TensorError> {
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b)?;
//! assert_eq!(c.as_slice(), a.as_slice());
//! # Ok(())
//! # }
//! ```

mod error;
mod init;
mod linalg;
mod shape;
pub mod simd;
mod tensor;

pub use error::TensorError;
pub use init::ParamInit;
pub use linalg::{gemm_transposed, gemm_transposed_scalar};
pub(crate) use shape::Shape;
pub use tensor::Tensor;

/// Convenience result alias used across this crate.
pub(crate) type Result<T> = std::result::Result<T, TensorError>;
