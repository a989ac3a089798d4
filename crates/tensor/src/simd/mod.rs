//! Runtime-dispatched SIMD kernels for the quantized hot loops.
//!
//! The paper's two dominant CPU kernels — pooled embedding lookups
//! (`SparseLengthsSum`) and FC GEMMs — both spend their cycles in tiny
//! inner loops over contiguous rows, which is exactly the shape wide
//! vector units want. This module provides `std::arch` x86_64 AVX2/FMA
//! implementations of those loops behind a *single* runtime dispatch
//! decision, with a portable scalar fallback that doubles as the
//! bit-identity oracle.
//!
//! # Dispatch
//!
//! [`active_backend`] resolves once per process (first call) from
//! `is_x86_feature_detected!`:
//!
//! | condition                                   | backend        |
//! |---------------------------------------------|----------------|
//! | `DREC_FORCE_SCALAR=1` in the environment    | `Scalar`       |
//! | x86_64 with AVX2 **and** FMA                | `Avx2Fma`      |
//! | anything else                               | `Scalar`       |
//!
//! So the path a kernel call takes is the process's backend: every
//! dispatched kernel runs its vector form exactly when the backend is
//! `Avx2Fma`, and none reports which ran. A caller that splits work
//! into vector and scalar counts one total and attributes it to
//! [`active_backend`] (as the store's decode counters do).
//!
//! The quantized row kernels are bit-identical to their scalar oracles
//! by construction; the FMA GEMM (see [`gemm_fma_enabled`]) contracts
//! multiplies into fused multiply-adds and widens the reduction to 8
//! lanes, so bit-level agreement with the scalar GEMM
//! ([`crate::gemm_transposed_scalar`]) takes `DREC_FORCE_SCALAR=1`.
//!
//! # The reduction-order contract
//!
//! Every dispatched row kernel is **bit-identical** to its scalar oracle
//! in [`scalar`], for all inputs including f16 subnormals, saturated
//! values, infinities and NaNs:
//!
//! * **f32** — `acc[i] += row[i]`: element `i` of the accumulator only
//!   ever combines with element `i` of the row, one IEEE add per
//!   element. Lane width cannot change the result.
//! * **f16** — binary16→binary32 conversion is *exact* (every binary16
//!   value is representable), so both paths produce identical bits; the
//!   accumulate is then the f32 contract. The vector path converts with
//!   an integer unpack plus one exact power-of-two multiply
//!   (see `x86::decode8_f16`), the scalar path with
//!   [`f16_bits_to_f32`] — same bits either way.
//! * **int8** — the quantized byte is widened `u8 → i32` (exact, the
//!   "accumulate in i32 lanes" step), converted `i32 → f32` (exact:
//!   `q ≤ 255 ≪ 2²⁴`), and scale/bias are applied with a **single fused
//!   multiply-add** `scale.mul_add(q, bias)` — one rounding per element.
//!   The scalar oracle uses `f32::mul_add`, the vector path
//!   `_mm256_fmadd_ps`; both are IEEE-754 `fusedMultiplyAdd`, so the
//!   results are bit-identical. Scale and bias are splat into registers
//!   once per row — the seed kernel's per-element `f64` widen/multiply/
//!   narrow round-trip is gone.
//!
//! * **int8 encode** — the quotient `(x − bias) / scale` is computed in
//!   f64 by the same three correctly rounded operations on both paths
//!   (widen, subtract, divide; `vdivpd` rounds as `divsd` does). The
//!   oracle rounds with `f64::round`; the vector path with
//!   `floor(t) + (t − floor(t) ≥ 0.5)`, exact because a double's
//!   fractional part is, and equal to `f64::round` for every `t ≥ 0` — all
//!   there are, since the bias is the row minimum. The clamp to
//!   `[0, 255]` is a pair of saturating packs, which also send a NaN to
//!   0 as `NaN as u8` does. Bias and scale come from the same scalar
//!   expressions; a vector min/max only finds the extremes, and a zero
//!   minimum is re-read by the scalar loop so its sign bit is that loop's.
//!
//! Row tails (`dim % 8 != 0`) fall back to the identical scalar
//! per-element expression, so odd dims, `dim == 1`, and empty rows are
//! covered by the same contract.
//!
//! The FMA GEMM kernel does *not* share bit-identity with the scalar
//! blocked GEMM (different lane count, contracted multiplies); its
//! accuracy contract is a documented ULP-style bound checked in tests:
//! `|fma − scalar| ≤ 2·(k + 8)·ε · Σ|aₗ·bₗ|` per output cell. It *is*
//! bit-identical across batch sizes, partitions and thread counts: every
//! cell reduces through `dot_fma`'s sequence whichever `R×4` register
//! block, row chunk or column tile computes it (see `linalg`'s docs).

pub mod scalar;
#[cfg(target_arch = "x86_64")]
pub(crate) mod x86;

use std::sync::OnceLock;

/// Which kernel implementation the process dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelBackend {
    /// Portable scalar kernels (the bit-identity oracles).
    Scalar,
    /// x86_64 AVX2 + FMA vector kernels.
    Avx2Fma,
}

impl KernelBackend {
    /// Short lowercase name for reports (`"scalar"` / `"avx2-fma"`).
    pub(crate) fn name(&self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Avx2Fma => "avx2-fma",
        }
    }
}

impl std::fmt::Display for KernelBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Pure dispatch decision, separated from environment/CPU probing so the
/// table in the module docs is unit-testable.
pub(crate) fn resolve_backend(force_scalar: bool, have_avx2_fma: bool) -> KernelBackend {
    if force_scalar || !have_avx2_fma {
        KernelBackend::Scalar
    } else {
        KernelBackend::Avx2Fma
    }
}

fn env_flag(name: &str) -> bool {
    std::env::var(name).is_ok_and(|v| v == "1" || v.eq_ignore_ascii_case("true"))
}

fn have_avx2_fma() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The backend this process dispatches to, resolved once on first call
/// (CPU feature probe + `DREC_FORCE_SCALAR` override) and cached.
pub fn active_backend() -> KernelBackend {
    static BACKEND: OnceLock<KernelBackend> = OnceLock::new();
    *BACKEND.get_or_init(|| resolve_backend(env_flag("DREC_FORCE_SCALAR"), have_avx2_fma()))
}

/// Whether GEMM dot cells use the FMA micro-kernel: exactly when the
/// backend is `Avx2Fma`.
pub fn gemm_fma_enabled() -> bool {
    active_backend() == KernelBackend::Avx2Fma
}

/// Label of the kernel configuration for metrics snapshots and bench
/// reports: `KernelBackend::name` of the [`active_backend`]
/// (`"avx2-fma"` or `"scalar"`).
pub fn backend_label() -> &'static str {
    active_backend().name()
}

/// Starts fetching the cache lines that hold `data` (one `prefetcht0`
/// a line), so a read a few steps later finds them on their way. A hint
/// cannot fault and changes no value; a no-op off x86_64.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub fn prefetch<T: ?Sized>(data: &T) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let start = std::ptr::from_ref(data).cast::<i8>();
        // The offset from `start` of the line that holds the last byte.
        let last = (start as usize % 64 + std::mem::size_of_val(data).max(1) - 1) & !63;
        for offset in (0..=last).step_by(64) {
            // SAFETY: SSE is baseline on x86_64; a prefetch reads nothing.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(start.wrapping_add(offset)) };
        }
    }
}

/// `acc[i] += row[i]` element-wise; bit-identical on every backend.
///
/// # Panics
///
/// Panics if the slice lengths differ.
#[inline]
pub fn sum_f32_into(row: &[f32], acc: &mut [f32]) {
    assert_eq!(row.len(), acc.len(), "sum_f32_into length mismatch");
    #[cfg(target_arch = "x86_64")]
    if active_backend() == KernelBackend::Avx2Fma {
        // SAFETY: AVX2 presence was verified by the dispatch probe.
        unsafe { x86::sum_f32_into(row, acc) };
        return;
    }
    scalar::sum_f32_into(row, acc);
}

/// Decodes binary16 bits into `dst` (exact conversion; bit-identical on
/// every backend).
///
/// # Panics
///
/// Panics if the slice lengths differ.
#[inline]
pub fn decode_f16_into(bits: &[u16], dst: &mut [f32]) {
    assert_eq!(bits.len(), dst.len(), "decode_f16_into length mismatch");
    #[cfg(target_arch = "x86_64")]
    if active_backend() == KernelBackend::Avx2Fma {
        // SAFETY: AVX2 presence was verified by the dispatch probe.
        unsafe { x86::decode_f16_into(bits, dst) };
        return;
    }
    scalar::decode_f16_into(bits, dst);
}

/// `acc[i] += decode(bits[i])` element-wise (bit-identical on every
/// backend).
///
/// # Panics
///
/// Panics if the slice lengths differ.
#[inline]
pub fn sum_f16_into(bits: &[u16], acc: &mut [f32]) {
    assert_eq!(bits.len(), acc.len(), "sum_f16_into length mismatch");
    #[cfg(target_arch = "x86_64")]
    if active_backend() == KernelBackend::Avx2Fma {
        // SAFETY: AVX2 presence was verified by the dispatch probe.
        unsafe { x86::sum_f16_into(bits, acc) };
        return;
    }
    scalar::sum_f16_into(bits, acc);
}

/// Dequantizes one int8 row into `dst`:
/// `dst[i] = scale.mul_add(q[i] as f32, bias)` (bit-identical on every
/// backend — see the module docs for why the fused form is the contract).
///
/// # Panics
///
/// Panics if the slice lengths differ.
#[inline]
pub fn decode_i8_into(q: &[u8], scale: f32, bias: f32, dst: &mut [f32]) {
    assert_eq!(q.len(), dst.len(), "decode_i8_into length mismatch");
    #[cfg(target_arch = "x86_64")]
    if active_backend() == KernelBackend::Avx2Fma {
        // SAFETY: AVX2+FMA presence was verified by the dispatch probe.
        unsafe { x86::decode_i8_into(q, scale, bias, dst) };
        return;
    }
    scalar::decode_i8_into(q, scale, bias, dst);
}

/// `acc[i] += scale.mul_add(q[i] as f32, bias)` element-wise
/// (bit-identical on every backend).
///
/// # Panics
///
/// Panics if the slice lengths differ.
#[inline]
pub fn sum_i8_into(q: &[u8], scale: f32, bias: f32, acc: &mut [f32]) {
    assert_eq!(q.len(), acc.len(), "sum_i8_into length mismatch");
    #[cfg(target_arch = "x86_64")]
    if active_backend() == KernelBackend::Avx2Fma {
        // SAFETY: AVX2+FMA presence was verified by the dispatch probe.
        unsafe { x86::sum_i8_into(q, scale, bias, acc) };
        return;
    }
    scalar::sum_i8_into(q, scale, bias, acc);
}

/// Quantizes one row to int8 — `q[i] = round((row[i] - bias) / scale)`
/// clamped to `[0, 255]`, `bias` the row minimum, `scale = (max - min) /
/// 255` — and returns `(scale, bias)`. Byte-identical on every backend to
/// [`scalar::quantize_i8_row`], the oracle (see "int8 encode" in the
/// module docs).
///
/// # Panics
///
/// Panics if the slice lengths differ.
#[inline]
pub fn quantize_i8_row(row: &[f32], q: &mut [u8]) -> (f32, f32) {
    assert_eq!(row.len(), q.len(), "quantize_i8_row length mismatch");
    #[cfg(target_arch = "x86_64")]
    if active_backend() == KernelBackend::Avx2Fma {
        // SAFETY: AVX2 presence was verified by the dispatch probe.
        return unsafe { x86::quantize_i8_row(row, q) };
    }
    scalar::quantize_i8_row(row, q)
}

/// Converts an `f32` to IEEE 754 binary16 bits with round-to-nearest-even,
/// saturating overflow to ±65504 (no infinities are produced for finite
/// inputs). Infinities and NaNs propagate.
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let frac = bits & 0x007f_ffff;
    if exp == 0xff {
        // Inf / NaN propagate.
        return sign | 0x7c00 | u16::from(frac != 0) << 9;
    }
    let exp16 = exp - 127 + 15;
    if exp16 >= 0x1f {
        // Overflow: saturate to the largest finite binary16 (±65504).
        return sign | 0x7bff;
    }
    if exp16 <= 0 {
        // Subnormal (or underflow to zero) in binary16.
        if exp16 < -10 {
            return sign;
        }
        let frac = frac | 0x0080_0000; // restore the implicit leading 1
        let shift = (14 - exp16) as u32;
        let val = frac >> shift;
        let rem = frac & ((1u32 << shift) - 1);
        let half = 1u32 << (shift - 1);
        let round_up = rem > half || (rem == half && val & 1 == 1);
        return sign | (val + u32::from(round_up)) as u16;
    }
    // Normal: drop 13 mantissa bits with round-to-nearest-even. A mantissa
    // carry propagates into the exponent field, which is exactly the
    // correct behaviour — except at the very top, where it would produce
    // an infinity; saturate there instead.
    let val = ((exp16 as u32) << 10) | (frac >> 13);
    let rem = frac & 0x1fff;
    let round_up = rem > 0x1000 || (rem == 0x1000 && val & 1 == 1);
    let val = val + u32::from(round_up);
    if val >= 0x7c00 {
        sign | 0x7bff
    } else {
        sign | val as u16
    }
}

/// Converts IEEE 754 binary16 bits back to `f32` (exact — every binary16
/// value is representable in binary32). This is the scalar side of the
/// f16 conversion contract; `x86::decode8_f16` produces identical bits.
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = u32::from(h & 0x8000) << 16;
    let exp = (h >> 10) & 0x1f;
    let frac = u32::from(h & 0x3ff);
    let bits = if exp == 0 {
        if frac == 0 {
            sign // ±0
        } else {
            // Subnormal: renormalize into the binary32 exponent range.
            let mut exp32 = 113u32; // 127 - 15 + 1
            let mut frac32 = frac;
            while frac32 & 0x400 == 0 {
                frac32 <<= 1;
                exp32 -= 1;
            }
            sign | (exp32 << 23) | ((frac32 & 0x3ff) << 13)
        }
    } else if exp == 0x1f {
        sign | 0x7f80_0000 | (frac << 13) // Inf / NaN
    } else {
        sign | ((u32::from(exp) + 127 - 15) << 23) | (frac << 13)
    };
    f32::from_bits(bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_backend_covers_dispatch_table() {
        assert_eq!(resolve_backend(true, true), KernelBackend::Scalar);
        assert_eq!(resolve_backend(true, false), KernelBackend::Scalar);
        assert_eq!(resolve_backend(false, false), KernelBackend::Scalar);
        assert_eq!(resolve_backend(false, true), KernelBackend::Avx2Fma);
    }

    #[test]
    fn active_backend_honours_force_scalar_env() {
        // The real cached probe: when the CI leg sets DREC_FORCE_SCALAR=1
        // the process must dispatch scalar everywhere; otherwise it must
        // match the CPU probe.
        let forced = std::env::var("DREC_FORCE_SCALAR").is_ok_and(|v| v == "1");
        if forced {
            assert_eq!(active_backend(), KernelBackend::Scalar);
            assert!(!gemm_fma_enabled());
            assert_eq!(backend_label(), "scalar");
        } else {
            assert_eq!(active_backend(), resolve_backend(false, have_avx2_fma()),);
        }
    }

    #[test]
    fn backend_names_are_stable() {
        assert_eq!(KernelBackend::Scalar.name(), "scalar");
        assert_eq!(KernelBackend::Avx2Fma.name(), "avx2-fma");
        assert_eq!(KernelBackend::Avx2Fma.to_string(), "avx2-fma");
    }

    #[test]
    fn dispatched_kernels_match_scalar_oracles() {
        // Whatever backend is active, dispatched output must be
        // bit-identical to the scalar oracle (on the scalar backend this
        // is trivially true; on AVX2 it exercises the vector kernels).
        let dims = [0usize, 1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 33, 64, 100];
        for &dim in &dims {
            let row: Vec<f32> = (0..dim).map(|i| (i as f32) * 0.37 - 3.1).collect();
            let bits: Vec<u16> = row.iter().map(|&v| f32_to_f16_bits(v)).collect();
            let q: Vec<u8> = (0..dim).map(|i| (i * 37 % 256) as u8).collect();
            let (scale, bias) = (0.0173f32, -1.25f32);

            let mut a = vec![0.5f32; dim];
            let mut b = a.clone();
            sum_f32_into(&row, &mut a);
            scalar::sum_f32_into(&row, &mut b);
            assert_eq!(a, b, "sum_f32 dim {dim}");

            let mut a = vec![0.0f32; dim];
            let mut b = a.clone();
            decode_f16_into(&bits, &mut a);
            scalar::decode_f16_into(&bits, &mut b);
            assert_eq!(a, b, "decode_f16 dim {dim}");

            let mut a = vec![0.25f32; dim];
            let mut b = a.clone();
            sum_f16_into(&bits, &mut a);
            scalar::sum_f16_into(&bits, &mut b);
            assert_eq!(a, b, "sum_f16 dim {dim}");

            let mut a = vec![0.0f32; dim];
            let mut b = a.clone();
            decode_i8_into(&q, scale, bias, &mut a);
            scalar::decode_i8_into(&q, scale, bias, &mut b);
            assert_eq!(a, b, "decode_i8 dim {dim}");

            let mut a = vec![-0.125f32; dim];
            let mut b = a.clone();
            sum_i8_into(&q, scale, bias, &mut a);
            scalar::sum_i8_into(&q, scale, bias, &mut b);
            assert_eq!(a, b, "sum_i8 dim {dim}");
        }
    }

    #[test]
    fn f16_roundtrips_and_saturates() {
        for v in [0.0f32, -0.0, 1.0, -1.0, 0.5, 65504.0, 2f32.powi(-14)] {
            let rt = f16_bits_to_f32(f32_to_f16_bits(v));
            assert_eq!(rt.to_bits(), v.to_bits(), "{v} -> {rt}");
        }
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(1e6)), 65504.0);
        let tiny = 2f32.powi(-24);
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(tiny)), tiny);
    }

    #[test]
    fn f16_crafted_bit_patterns_decode_exactly_on_both_paths() {
        // Edge encodings by hand: zeros, the subnormal range boundaries,
        // normal range boundaries, and the exp==0x1f specials. Expected
        // values are the mathematically exact f32 representations.
        let finite: [(u16, f32); 10] = [
            (0x0000, 0.0),
            (0x8000, -0.0),
            (0x0001, 2f32.powi(-24)),          // smallest subnormal
            (0x03ff, 1023.0 * 2f32.powi(-24)), // largest subnormal
            (0x0400, 2f32.powi(-14)),          // smallest normal
            (0x7bff, 65504.0),                 // largest normal
            (0x3c00, 1.0),
            (0xc000, -2.0),
            (0x7c00, f32::INFINITY),
            (0xfc00, f32::NEG_INFINITY),
        ];
        // Repeat the table so the batch spans full SIMD lanes plus a tail.
        let bits: Vec<u16> = finite.iter().cycle().take(23).map(|&(h, _)| h).collect();
        let want: Vec<f32> = finite.iter().cycle().take(23).map(|&(_, v)| v).collect();
        let mut dispatched = vec![0.0f32; bits.len()];
        let mut oracle = vec![0.0f32; bits.len()];
        decode_f16_into(&bits, &mut dispatched);
        scalar::decode_f16_into(&bits, &mut oracle);
        for i in 0..bits.len() {
            assert_eq!(
                dispatched[i].to_bits(),
                want[i].to_bits(),
                "bits {:#06x}: got {}, want {}",
                bits[i],
                dispatched[i],
                want[i]
            );
            assert_eq!(dispatched[i].to_bits(), oracle[i].to_bits());
        }

        // NaNs: any exp==0x1f with a nonzero fraction must stay NaN with
        // the payload carried into the f32 fraction (frac << 13).
        let nans = [0x7c01u16, 0x7e00, 0xfdab, 0x7fff];
        let bits: Vec<u16> = nans.iter().cycle().take(16).copied().collect();
        let mut dispatched = vec![0.0f32; bits.len()];
        let mut oracle = vec![0.0f32; bits.len()];
        decode_f16_into(&bits, &mut dispatched);
        scalar::decode_f16_into(&bits, &mut oracle);
        for (i, &h) in bits.iter().enumerate() {
            let sign = u32::from(h & 0x8000) << 16;
            let expect = sign | 0x7f80_0000 | (u32::from(h & 0x03ff) << 13);
            assert!(dispatched[i].is_nan(), "bits {h:#06x} lost NaN");
            assert_eq!(dispatched[i].to_bits(), expect, "bits {h:#06x} payload");
            assert_eq!(dispatched[i].to_bits(), oracle[i].to_bits());
        }
    }
}
