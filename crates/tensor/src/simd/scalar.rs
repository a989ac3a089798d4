//! Portable scalar kernels — the bit-identity oracles.
//!
//! These are the reference implementations every vector kernel in
//! `super::x86` must match bit-for-bit (see the reduction-order
//! contract in the [module docs](super)). They are also the dispatch
//! target on non-x86_64 hosts and under `DREC_FORCE_SCALAR=1`.
//!
//! Keep these loops boring: one IEEE operation per element in index
//! order, no compiler-visible reassociation, scale/bias applied with a
//! single `f32::mul_add` so the fused-rounding contract is shared with
//! the AVX2 `vfmadd` path.

use super::f16_bits_to_f32;

/// `acc[i] += row[i]`, one IEEE add per element.
pub fn sum_f32_into(row: &[f32], acc: &mut [f32]) {
    for (a, &v) in acc.iter_mut().zip(row) {
        *a += v;
    }
}

/// `dst[i] = decode(bits[i])` — exact binary16→binary32 conversion.
pub fn decode_f16_into(bits: &[u16], dst: &mut [f32]) {
    for (d, &h) in dst.iter_mut().zip(bits) {
        *d = f16_bits_to_f32(h);
    }
}

/// `acc[i] += decode(bits[i])`.
pub fn sum_f16_into(bits: &[u16], acc: &mut [f32]) {
    for (a, &h) in acc.iter_mut().zip(bits) {
        *a += f16_bits_to_f32(h);
    }
}

/// `dst[i] = scale.mul_add(q[i] as f32, bias)` — the fused form is the
/// contract: a single rounding per element, matching `_mm256_fmadd_ps`.
pub fn decode_i8_into(q: &[u8], scale: f32, bias: f32, dst: &mut [f32]) {
    for (d, &qv) in dst.iter_mut().zip(q) {
        *d = scale.mul_add(f32::from(qv), bias);
    }
}

/// `acc[i] += scale.mul_add(q[i] as f32, bias)`.
pub fn sum_i8_into(q: &[u8], scale: f32, bias: f32, acc: &mut [f32]) {
    for (a, &qv) in acc.iter_mut().zip(q) {
        *a += scale.mul_add(f32::from(qv), bias);
    }
}

/// `(min, max)` of a row, NaNs ignored; `(0, 0)` for an empty or all-NaN
/// row.
pub fn min_max_f32(row: &[f32]) -> (f32, f32) {
    let mut min = f32::INFINITY;
    let mut max = f32::NEG_INFINITY;
    for &v in row {
        min = min.min(v);
        max = max.max(v);
    }
    if min > max {
        (0.0, 0.0)
    } else {
        (min, max)
    }
}

/// The int8 quantization step `(max - min) / 255` of a row spanning
/// `[min, max]`, or `None` when the row has no finite positive range: it
/// is constant (its bias carries the value exactly) or overflows, and
/// quantizes to all-zero bytes with scale 0.
pub(super) fn i8_step(min: f32, max: f32) -> Option<f32> {
    let scale = (max - min) / 255.0;
    (scale > 0.0 && scale.is_finite()).then_some(scale)
}

/// `q[i] = round((row[i] - bias) / scale)` clamped to `[0, 255]`: f64
/// arithmetic, round-half-away-from-zero, a NaN element quantizes to 0.
pub(super) fn quantize_i8_into(row: &[f32], scale: f32, bias: f32, q: &mut [u8]) {
    let (s, b) = (f64::from(scale), f64::from(bias));
    for (qv, &x) in q.iter_mut().zip(row) {
        *qv = ((f64::from(x) - b) / s).round().clamp(0.0, 255.0) as u8;
    }
}

/// Quantizes one row into `q`, returning `(scale, bias)` with `bias` the
/// row minimum. The arithmetic runs in f64 so the only significant error
/// sources are the half-step rounding and the decode-side fused
/// multiply-add.
pub fn quantize_i8_row(row: &[f32], q: &mut [u8]) -> (f32, f32) {
    let (min, max) = min_max_f32(row);
    let Some(scale) = i8_step(min, max) else {
        q.fill(0);
        return (0.0, min);
    };
    quantize_i8_into(row, scale, min, q);
    (scale, min)
}
