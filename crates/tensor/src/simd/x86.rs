//! AVX2/FMA vector kernels (x86_64 only).
//!
//! Every function here carries `#[target_feature(enable = "avx2",
//! enable = "fma")]` and must only be reached through the dispatch
//! wrappers in [`super`], which verify the features once per process.
//! Row kernels are bit-identical to the [`super::scalar`] oracles; the
//! GEMM kernel follows the fixed-reduction-order design of
//! `linalg::dot_cell` at 8-lane width (see the module docs in [`super`]
//! for the exact contracts). It is one function, [`gemm_block_fma`]: an
//! `R×4` register block for any `R` in `1..=4` rows, so the driver in
//! `linalg` never meets a row count it has to serve one row at a time.

#![allow(unsafe_op_in_unsafe_fn)]

use std::arch::x86_64::*;

const LANES: usize = 8;

/// `acc[i] += row[i]` at 8 lanes per iteration; the tail runs the scalar
/// expression. Per-element IEEE adds, so bit-identical to the oracle.
///
/// # Safety
///
/// Caller must ensure AVX2 is available and `row.len() == acc.len()`.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn sum_f32_into(row: &[f32], acc: &mut [f32]) {
    let n = row.len();
    let vec_n = n - n % LANES;
    let rp = row.as_ptr();
    let ap = acc.as_mut_ptr();
    let mut i = 0;
    while i < vec_n {
        let r = _mm256_loadu_ps(rp.add(i));
        let a = _mm256_loadu_ps(ap.add(i));
        _mm256_storeu_ps(ap.add(i), _mm256_add_ps(a, r));
        i += LANES;
    }
    for j in vec_n..n {
        acc[j] += row[j];
    }
}

/// Decodes 8 binary16 values to binary32 bits without F16C.
///
/// The exponent+mantissa field is shifted into binary32 position and
/// scaled by the exact power of two `2¹¹²` (bits `0x7780_0000`), which
/// fixes up the exponent bias for normals *and* renormalizes binary16
/// subnormals in the same multiply — both cases are exact, so the result
/// is bit-identical to [`super::f16_bits_to_f32`]. Inf/NaN inputs
/// (`exp == 0x1f`) would be mangled by the multiply, so they are patched
/// in with a compare/blend: `0x7f80_0000 | (frac << 13)` preserves the
/// NaN payload exactly as the scalar conversion does. The sign bit is
/// OR-ed back at the end.
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn decode8_f16(h: __m128i) -> __m256 {
    let w = _mm256_cvtepu16_epi32(h);
    let sign = _mm256_slli_epi32(_mm256_and_si256(w, _mm256_set1_epi32(0x8000)), 16);
    let em = _mm256_slli_epi32(_mm256_and_si256(w, _mm256_set1_epi32(0x7fff)), 13);
    let magic = _mm256_set1_ps(f32::from_bits(0x7780_0000)); // 2^112, exact scale
    let val = _mm256_castps_si256(_mm256_mul_ps(_mm256_castsi256_ps(em), magic));
    // exp == 0x1f ⇒ Inf/NaN: em already holds (0x1f << 23) | (frac << 13),
    // so OR-ing 0x7000_0000 yields 0x7f80_0000 | (frac << 13).
    let exp_mask = _mm256_set1_epi32(0x7c00);
    let is_special = _mm256_cmpeq_epi32(_mm256_and_si256(w, exp_mask), exp_mask);
    let special = _mm256_or_si256(em, _mm256_set1_epi32(0x7000_0000));
    let merged = _mm256_blendv_epi8(val, special, is_special);
    _mm256_castsi256_ps(_mm256_or_si256(merged, sign))
}

/// `dst[i] = decode(bits[i])`, 8 lanes at a time.
///
/// # Safety
///
/// Caller must ensure AVX2 is available and `bits.len() == dst.len()`.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn decode_f16_into(bits: &[u16], dst: &mut [f32]) {
    let n = bits.len();
    let vec_n = n - n % LANES;
    let bp = bits.as_ptr();
    let dp = dst.as_mut_ptr();
    let mut i = 0;
    while i < vec_n {
        let h = _mm_loadu_si128(bp.add(i).cast());
        _mm256_storeu_ps(dp.add(i), decode8_f16(h));
        i += LANES;
    }
    for j in vec_n..n {
        dst[j] = super::f16_bits_to_f32(bits[j]);
    }
}

/// `acc[i] += decode(bits[i])`, 8 lanes at a time.
///
/// # Safety
///
/// Caller must ensure AVX2 is available and `bits.len() == acc.len()`.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn sum_f16_into(bits: &[u16], acc: &mut [f32]) {
    let n = bits.len();
    let vec_n = n - n % LANES;
    let bp = bits.as_ptr();
    let ap = acc.as_mut_ptr();
    let mut i = 0;
    while i < vec_n {
        let h = _mm_loadu_si128(bp.add(i).cast());
        let a = _mm256_loadu_ps(ap.add(i));
        _mm256_storeu_ps(ap.add(i), _mm256_add_ps(a, decode8_f16(h)));
        i += LANES;
    }
    for j in vec_n..n {
        acc[j] += super::f16_bits_to_f32(bits[j]);
    }
}

/// Widens 8 quantized bytes to i32 lanes and converts to f32 — both
/// steps exact (`q ≤ 255 ≪ 2²⁴`). This is the "accumulate in i32 lanes"
/// half of the int8 contract; the caller applies scale/bias with one
/// fused multiply-add per element.
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn widen8_u8(q: __m128i) -> __m256 {
    _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(q))
}

/// `dst[i] = scale.mul_add(q[i] as f32, bias)`, 8 lanes at a time. The
/// scale/bias registers are splat once per call (once per row).
///
/// # Safety
///
/// Caller must ensure AVX2+FMA are available and `q.len() == dst.len()`.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn decode_i8_into(q: &[u8], scale: f32, bias: f32, dst: &mut [f32]) {
    let n = q.len();
    let vec_n = n - n % LANES;
    let qp = q.as_ptr();
    let dp = dst.as_mut_ptr();
    let sv = _mm256_set1_ps(scale);
    let bv = _mm256_set1_ps(bias);
    let mut i = 0;
    while i < vec_n {
        let qf = widen8_u8(_mm_loadl_epi64(qp.add(i).cast()));
        _mm256_storeu_ps(dp.add(i), _mm256_fmadd_ps(sv, qf, bv));
        i += LANES;
    }
    for j in vec_n..n {
        dst[j] = scale.mul_add(f32::from(q[j]), bias);
    }
}

/// `acc[i] += scale.mul_add(q[i] as f32, bias)`, 8 lanes at a time.
///
/// # Safety
///
/// Caller must ensure AVX2+FMA are available and `q.len() == acc.len()`.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn sum_i8_into(q: &[u8], scale: f32, bias: f32, acc: &mut [f32]) {
    let n = q.len();
    let vec_n = n - n % LANES;
    let qp = q.as_ptr();
    let ap = acc.as_mut_ptr();
    let sv = _mm256_set1_ps(scale);
    let bv = _mm256_set1_ps(bias);
    let mut i = 0;
    while i < vec_n {
        let qf = widen8_u8(_mm_loadl_epi64(qp.add(i).cast()));
        let dec = _mm256_fmadd_ps(sv, qf, bv);
        let a = _mm256_loadu_ps(ap.add(i));
        _mm256_storeu_ps(ap.add(i), _mm256_add_ps(a, dec));
        i += LANES;
    }
    for j in vec_n..n {
        acc[j] += scale.mul_add(f32::from(q[j]), bias);
    }
}

/// `(min, max)` over the row's non-NaN elements, numerically equal to
/// [`super::scalar::min_max_f32`] (`(+inf, -inf)` when there are none).
/// `vminps`/`vmaxps` return their second operand when either is NaN, so
/// with the running extreme second a NaN element is skipped exactly as
/// `f32::min` skips it. Only the sign of a zero result is unspecified —
/// equal extremes compare equal, so the lane order cannot matter
/// otherwise.
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn min_max_f32(row: &[f32]) -> (f32, f32) {
    let n = row.len();
    let vec_n = n - n % LANES;
    let rp = row.as_ptr();
    let mut vmin = _mm256_set1_ps(f32::INFINITY);
    let mut vmax = _mm256_set1_ps(f32::NEG_INFINITY);
    let mut i = 0;
    while i < vec_n {
        let v = _mm256_loadu_ps(rp.add(i));
        vmin = _mm256_min_ps(v, vmin);
        vmax = _mm256_max_ps(v, vmax);
        i += LANES;
    }
    // No lane is NaN, so the halves fold with plain min/max.
    let lo = _mm_min_ps(_mm256_castps256_ps128(vmin), _mm256_extractf128_ps(vmin, 1));
    let hi = _mm_max_ps(_mm256_castps256_ps128(vmax), _mm256_extractf128_ps(vmax, 1));
    let lo = _mm_min_ps(lo, _mm_movehl_ps(lo, lo));
    let hi = _mm_max_ps(hi, _mm_movehl_ps(hi, hi));
    let mut min = _mm_cvtss_f32(_mm_min_ss(lo, _mm_shuffle_ps(lo, lo, 1)));
    let mut max = _mm_cvtss_f32(_mm_max_ss(hi, _mm_shuffle_ps(hi, hi, 1)));
    for &v in &row[vec_n..] {
        min = min.min(v);
        max = max.max(v);
    }
    (min, max)
}

/// Rounds four non-negative (or NaN) quotients half away from zero and
/// converts them to i32 lanes. `floor(x) + (x - floor(x) >= 0.5)`: the
/// fractional part of a double is exact, so the compare sees the true
/// fraction and the result is `f64::round`'s for every `x >= 0` —
/// including `0.49999999999999994`, which `floor(x + 0.5)` gets wrong. A
/// NaN stays NaN and converts to `i32::MIN`.
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn round4_to_i32(x: __m256d) -> __m128i {
    let floor = _mm256_floor_pd(x);
    let up = _mm256_cmp_pd::<_CMP_GE_OQ>(_mm256_sub_pd(x, floor), _mm256_set1_pd(0.5));
    let rounded = _mm256_add_pd(floor, _mm256_and_pd(up, _mm256_set1_pd(1.0)));
    _mm256_cvttpd_epi32(rounded)
}

/// The int8 row encoder, byte-identical to
/// [`super::scalar::quantize_i8_row`] in `q`, scale and bias.
///
/// The extremes come from [`min_max_f32`]; when the minimum is a zero the
/// scalar loop is re-run for its sign, which is the bias bits. The step
/// and the constant-row rule are the scalar function's own. Elements then
/// go eight at a time through the scalar expression's operations in the
/// same order and precision — widen to f64 (exact), subtract, `vdivpd`
/// (correctly rounded, as scalar division is), [`round4_to_i32`] — and
/// the clamp is the two saturating packs: i32 → i16 keeps every possible
/// quotient (at most 382, reached with a one-denormal step), i16 → u8
/// clamps to `[0, 255]` and sends a NaN's `i32::MIN` to 0, the value of
/// `NaN as u8`. Quotients are never negative: the bias is the minimum of
/// the non-NaN elements.
///
/// # Safety
///
/// Caller must ensure AVX2 is available and `row.len() == q.len()`.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn quantize_i8_row(row: &[f32], q: &mut [u8]) -> (f32, f32) {
    let (mut min, mut max) = min_max_f32(row);
    if min == 0.0 || min > max {
        (min, max) = super::scalar::min_max_f32(row);
    }
    let Some(scale) = super::scalar::i8_step(min, max) else {
        q.fill(0);
        return (0.0, min);
    };
    let n = row.len();
    let vec_n = n - n % LANES;
    let rp = row.as_ptr();
    let qp = q.as_mut_ptr();
    let sv = _mm256_set1_pd(f64::from(scale));
    let bv = _mm256_set1_pd(f64::from(min));
    let mut i = 0;
    while i < vec_n {
        let lo = _mm256_cvtps_pd(_mm_loadu_ps(rp.add(i)));
        let hi = _mm256_cvtps_pd(_mm_loadu_ps(rp.add(i + 4)));
        let lo = round4_to_i32(_mm256_div_pd(_mm256_sub_pd(lo, bv), sv));
        let hi = round4_to_i32(_mm256_div_pd(_mm256_sub_pd(hi, bv), sv));
        let words = _mm_packs_epi32(lo, hi);
        _mm_storel_epi64(qp.add(i).cast(), _mm_packus_epi16(words, words));
        i += LANES;
    }
    super::scalar::quantize_i8_into(&row[vec_n..], scale, min, &mut q[vec_n..]);
    (scale, min)
}

/// Fixed-order horizontal sum of 8 lanes: the 128-bit halves are added
/// lane-wise (`l + l+4`), then `movehl`/`shuffle` fold pairs. Every GEMM
/// output cell reduces through this exact sequence, which is what makes
/// the FMA GEMM bit-identical across blocking and thread count.
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn hsum8(v: __m256) -> f32 {
    let lo = _mm256_castps256_ps128(v);
    let hi = _mm256_extractf128_ps(v, 1);
    let s = _mm_add_ps(lo, hi);
    let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
    let s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
    _mm_cvtss_f32(s)
}

/// 8-lane FMA dot product: one `vfmaddps` accumulator over the body,
/// [`hsum8`] combine, plain multiply-add scalar tail. This is the single
/// reduction sequence every cell of the FMA GEMM uses.
///
/// # Safety
///
/// Caller must ensure AVX2+FMA are available and `a.len() == b.len()`.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn dot_fma(a: &[f32], b: &[f32]) -> f32 {
    let k = a.len();
    let kc = k - k % LANES;
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    let mut acc = _mm256_setzero_ps();
    let mut p = 0;
    while p < kc {
        let av = _mm256_loadu_ps(ap.add(p));
        let bv = _mm256_loadu_ps(bp.add(p));
        acc = _mm256_fmadd_ps(av, bv, acc);
        p += LANES;
    }
    let mut sum = hsum8(acc);
    for q in kc..k {
        sum += a[q] * b[q];
    }
    sum
}

/// One register block of the FMA GEMM: `out[i][j] = ar[i] · B[c0 + j]`
/// for `R ≤ 4` rows of A against the `out[0].len()` rows of `b` (row-major
/// `[n, k]`) that start at row `c0`.
///
/// Columns go four at a time through an `R×4` block of ymm accumulators:
/// each 8-float chunk of a B row is loaded once and multiplied into all
/// `R` A rows, so `R` rows cost one pass over B whatever `R` is. Every
/// cell still reduces through [`dot_fma`]'s sequence — its own FMA chain
/// over the 8-lane body in `p` order, [`hsum8`], scalar k-tail — and the
/// columns past the last full four call [`dot_fma`] itself. A cell's bits
/// therefore depend on its A row and B row alone, not on `R`, `c0`, or
/// which block, chunk or thread computed it.
///
/// # Safety
///
/// Caller must ensure AVX2+FMA are available.
///
/// # Panics
///
/// Panics if the A rows differ in length, an output row is shorter than
/// the first, or `b` ends before row `c0 + out[0].len()`.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn gemm_block_fma<const R: usize>(
    ar: [&[f32]; R],
    b: &[f32],
    c0: usize,
    out: &mut [&mut [f32]; R],
) {
    const NR: usize = 4;
    let k = ar[0].len();
    // The loads below read `k - k % 8` floats through raw pointers.
    assert!(ar.iter().all(|row| row.len() == k), "A rows share one k");
    let cols = out[0].len();
    let kc = k - k % LANES;
    let mut j = 0;
    while j + NR <= cols {
        let c = c0 + j;
        let br: [&[f32]; NR] = [
            &b[c * k..(c + 1) * k],
            &b[(c + 1) * k..(c + 2) * k],
            &b[(c + 2) * k..(c + 3) * k],
            &b[(c + 3) * k..(c + 4) * k],
        ];
        let mut acc = [[_mm256_setzero_ps(); NR]; R];
        let mut p = 0;
        while p < kc {
            let bv = [
                _mm256_loadu_ps(br[0].as_ptr().add(p)),
                _mm256_loadu_ps(br[1].as_ptr().add(p)),
                _mm256_loadu_ps(br[2].as_ptr().add(p)),
                _mm256_loadu_ps(br[3].as_ptr().add(p)),
            ];
            for (di, arow) in ar.iter().enumerate() {
                let av = _mm256_loadu_ps(arow.as_ptr().add(p));
                for (dj, &bvj) in bv.iter().enumerate() {
                    acc[di][dj] = _mm256_fmadd_ps(av, bvj, acc[di][dj]);
                }
            }
            p += LANES;
        }
        for (di, arow) in ar.iter().enumerate() {
            for (dj, brow) in br.iter().enumerate() {
                let mut sum = hsum8(acc[di][dj]);
                for q in kc..k {
                    sum += arow[q] * brow[q];
                }
                out[di][j + dj] = sum;
            }
        }
        j += NR;
    }
    while j < cols {
        let brow = &b[(c0 + j) * k..(c0 + j + 1) * k];
        for (arow, out_row) in ar.iter().zip(out.iter_mut()) {
            out_row[j] = dot_fma(arow, brow);
        }
        j += 1;
    }
}
