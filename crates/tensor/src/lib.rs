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

/// A divisor fixed at construction (`from(0)` panics): `u32` `/` and `%`
/// by it without a `div`, as `q = ⌊magic · n / 2⁶⁴⌋`, `magic = ⌈2⁶⁴ /
/// d⌉`, `r = n − q·d`. Exact for every `n` (Lemire, Kaser and Kurz 2019:
/// `magic · d` overshoots `2⁶⁴` by less than `d ≤ 2³²`; past it, q = 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Divisor {
    d: u64,
    magic: u128,
}

impl From<usize> for Divisor {
    fn from(d: usize) -> Divisor {
        let d = d as u64;
        let magic = u128::from(u64::MAX / d) + 1;
        Divisor { d, magic }
    }
}

impl std::ops::Div<Divisor> for u32 {
    type Output = u32;
    #[inline]
    fn div(self, d: Divisor) -> u32 {
        ((d.magic * u128::from(self)) >> 64) as u32
    }
}

impl std::ops::Rem<Divisor> for u32 {
    type Output = u32;
    #[inline]
    fn rem(self, d: Divisor) -> u32 {
        (u64::from(self) - u64::from(self / d) * d.d) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::Divisor;

    fn check(d: usize, n: u32) {
        let (div, wide) = (Divisor::from(d), d as u64);
        let expected = (u64::from(n) / wide, u64::from(n) % wide);
        assert_eq!(
            (n / div, n % div),
            (expected.0 as u32, expected.1 as u32),
            "{n} / {d}"
        );
    }

    #[test]
    fn a_divisor_equals_the_operators_at_the_edges() {
        for d in [1u32, 2, 3, 7, 103, 512, 4096, 1 << 31, u32::MAX] {
            for n in [
                0,
                d - 1,
                d,
                d.saturating_add(1),
                u32::MAX / 2,
                u32::MAX - 1,
                u32::MAX,
            ] {
                check(d as usize, n);
            }
        }
        for d in [1usize << 32, (1 << 32) + 1, usize::MAX] {
            for n in [0, 1, u32::MAX] {
                check(d, n);
            }
        }
    }

    #[test]
    fn a_divisor_equals_the_operators_on_a_sweep() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..2_000 {
            let d = (next() >> (32 + next() % 32)).max(1) as usize;
            for _ in 0..50 {
                check(d, next() as u32);
            }
        }
    }
}
