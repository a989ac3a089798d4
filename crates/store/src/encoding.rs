//! Row encodings: how an embedding row is laid out in resident memory.
//!
//! The store keeps every table in one of three encodings. `F32` is the
//! identity layout (lookups are bit-identical to a dense tensor). `F16`
//! halves resident bytes with IEEE 754 binary16 rounding (converted in
//! software — the build is dependency-free). `Int8` stores one byte per
//! element plus a per-row `(scale, bias)` pair, cutting a `dim`-wide f32
//! row from `4·dim` bytes to `dim + 8` — 3.2× at the paper's common
//! `dim = 32`.
//!
//! Every encoding carries an *exact, tested* dequantization error bound
//! ([`RowEncoding::error_bound`]): the error-bound unit tests encode and
//! decode adversarial rows and assert the measured max absolute error
//! never exceeds the documented bound.
//!
//! Decode, pooled-sum and int8 encode run through the runtime-dispatched
//! kernels in [`drec_tensor::simd`] — AVX2/FMA on capable x86_64 hosts, the portable
//! scalar oracles otherwise (or under `DREC_FORCE_SCALAR=1`). Both paths
//! are bit-identical by contract (see that module's docs). Which path a
//! call takes is the process's backend, so the store counts decodes once
//! and attributes them to [`drec_tensor::simd::active_backend`].

use drec_tensor::simd;

/// How rows are stored in resident memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowEncoding {
    /// Full-precision rows; lookups are bit-identical to a dense tensor.
    F32,
    /// IEEE 754 binary16 (round-to-nearest-even, saturating at ±65504).
    F16,
    /// 8-bit linear quantization with per-row `scale`/`bias` (asymmetric,
    /// zero-point-free: `value ≈ bias + q · scale`, `q ∈ [0, 255]`).
    Int8,
}

impl RowEncoding {
    /// Short lowercase name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            RowEncoding::F32 => "f32",
            RowEncoding::F16 => "f16",
            RowEncoding::Int8 => "int8",
        }
    }

    /// Resident bytes one `dim`-wide row occupies in this encoding.
    pub fn bytes_per_row(&self, dim: usize) -> usize {
        match self {
            RowEncoding::F32 => dim * 4,
            RowEncoding::F16 => dim * 2,
            // dim quantized bytes + f32 scale + f32 bias.
            RowEncoding::Int8 => dim + 8,
        }
    }

    /// The documented maximum absolute dequantization error for `row`
    /// (finite values; `F16` additionally assumes `|x| ≤ 65504`, the
    /// binary16 saturation point).
    ///
    /// * `F32` — exactly 0 (identity).
    /// * `F16` — `max|x| · 2⁻¹¹ + 2⁻²⁴`: half-ulp relative rounding for
    ///   normals plus the subnormal quantum.
    /// * `Int8` — `scale/2 + max|x| · 2⁻²³` where
    ///   `scale = (max − min)/255`: half a quantization step (the
    ///   rounding in f64 at encode time is exact to well below this)
    ///   plus one f32 ulp for the decode. The decode contract is a
    ///   single fused multiply-add `scale.mul_add(q, bias)` — *one*
    ///   rounding of the exact product-sum, which is strictly tighter
    ///   than the seed's f64-compute-then-cast path, so the bound is
    ///   unchanged.
    pub fn error_bound(&self, row: &[f32]) -> f32 {
        match self {
            RowEncoding::F32 => 0.0,
            RowEncoding::F16 => {
                let max_abs = row.iter().fold(0.0f32, |m, v| m.max(v.abs()));
                max_abs * (1.0 / 2048.0) + 5.97e-8
            }
            RowEncoding::Int8 => {
                let (min, max) = simd::scalar::min_max_f32(row);
                let scale = (max - min) / 255.0;
                let max_abs = max.abs().max(min.abs());
                0.5 * scale + max_abs * 1.2e-7 + f32::MIN_POSITIVE
            }
        }
    }
}

impl std::fmt::Display for RowEncoding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

// The software binary16 conversion lives next to its SIMD counterpart in
// `drec_tensor::simd` (the vector decode must match it bit-for-bit, so it
// lives in one place); re-exported here for this crate's callers.
pub use drec_tensor::simd::f32_to_f16_bits;

/// Quantizes one row into `q`, returning `(scale, bias)`: the dispatched
/// kernel (AVX2 on capable hosts, byte-identical to its scalar oracle)
/// that every int8 row the store encodes — at registration and on a live
/// update — goes through. The arithmetic runs in f64, so the only
/// significant error sources are the half-step rounding and the
/// decode-side fused multiply-add, both covered by
/// [`RowEncoding::error_bound`]. Public so benchmarks can build raw
/// quantized buffers without going through a store.
pub use drec_tensor::simd::quantize_i8_row as quantize_row;

/// What one row write puts in its shard.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RowWrite<'a> {
    /// Values, re-encoded into the store's encoding.
    Values(&'a [f32]),
    /// Captured bytes, copied back as they are.
    Encoded(&'a EncodedRow),
}

/// The resident storage for one shard's rows in a chosen encoding.
///
/// Rows are dense within the shard: row `r` of a `dim`-wide shard lives at
/// element offset `r * dim`. Decoding is deterministic — the same stored
/// bytes always decode to the same `f32` values, so a row reads the same
/// however often and through whichever kernel it is decoded: the shard
/// holds the only copy, and the hot-row key set beside it holds keys.
#[derive(Debug)]
pub(crate) enum RowData {
    /// Identity storage.
    F32(Box<[f32]>),
    /// binary16 bits.
    F16(Box<[u16]>),
    /// Per-row linear quantization.
    Int8 {
        /// `rows * dim` quantized bytes.
        q: Box<[u8]>,
        /// One scale per row.
        scale: Box<[f32]>,
        /// One bias (the row minimum) per row.
        bias: Box<[f32]>,
    },
}

impl RowData {
    /// Encodes `rows` (a dense `len/dim × dim` block) into `encoding`.
    pub(crate) fn encode(encoding: RowEncoding, data: &[f32], dim: usize) -> RowData {
        debug_assert!(dim > 0 && data.len().is_multiple_of(dim));
        match encoding {
            RowEncoding::F32 => RowData::F32(data.into()),
            RowEncoding::F16 => RowData::F16(data.iter().map(|&v| f32_to_f16_bits(v)).collect()),
            RowEncoding::Int8 => {
                let rows = data.len() / dim;
                let mut q = vec![0u8; data.len()].into_boxed_slice();
                let mut scale = vec![0f32; rows].into_boxed_slice();
                let mut bias = vec![0f32; rows].into_boxed_slice();
                for r in 0..rows {
                    let row = &data[r * dim..(r + 1) * dim];
                    let (s, b) = quantize_row(row, &mut q[r * dim..(r + 1) * dim]);
                    scale[r] = s;
                    bias[r] = b;
                }
                RowData::Int8 { q, scale, bias }
            }
        }
    }

    /// Decodes row `r` into `dst` (length `dim`).
    pub(crate) fn decode_into(&self, r: usize, dim: usize, dst: &mut [f32]) {
        match self {
            RowData::F32(data) => dst.copy_from_slice(&data[r * dim..(r + 1) * dim]),
            RowData::F16(data) => simd::decode_f16_into(&data[r * dim..(r + 1) * dim], dst),
            RowData::Int8 { q, scale, bias } => {
                simd::decode_i8_into(&q[r * dim..(r + 1) * dim], scale[r], bias[r], dst)
            }
        }
    }

    /// Adds the decoded row `r` element-wise into `acc` without a
    /// temporary (`acc[i] += decode(row)[i]`, element `i` only ever
    /// combining with element `i` — the same reduction a dense-tensor
    /// lookup performs, so the `F32` encoding stays bit-identical to the
    /// direct path, and the vector/scalar kernels stay bit-identical to
    /// each other). For `Int8`, scale/bias are fetched once per row and
    /// applied with one fused multiply-add per element (the seed decoded
    /// through a per-element f64 round-trip); see
    /// [`drec_tensor::simd`] for the full contract.
    pub(crate) fn sum_into(&self, r: usize, dim: usize, acc: &mut [f32]) {
        match self {
            RowData::F32(data) => simd::sum_f32_into(&data[r * dim..(r + 1) * dim], acc),
            RowData::F16(data) => simd::sum_f16_into(&data[r * dim..(r + 1) * dim], acc),
            RowData::Int8 { q, scale, bias } => {
                simd::sum_i8_into(&q[r * dim..(r + 1) * dim], scale[r], bias[r], acc)
            }
        }
    }

    /// Hints row `r`'s bytes (and int8 scale and bias) on their way.
    pub(crate) fn prefetch(&self, r: usize, dim: usize) {
        match self {
            RowData::F32(data) => simd::prefetch(&data[r * dim..(r + 1) * dim]),
            RowData::F16(data) => simd::prefetch(&data[r * dim..(r + 1) * dim]),
            RowData::Int8 { q, scale, bias } => {
                simd::prefetch(&q[r * dim..(r + 1) * dim]);
                simd::prefetch(&scale[r]);
                simd::prefetch(&bias[r]);
            }
        }
    }

    /// Captures row `r`'s resident bytes.
    pub(crate) fn copy_row(&self, r: usize, dim: usize) -> EncodedRow {
        EncodedRow(match self {
            RowData::F32(data) => Captured::F32(data[r * dim..(r + 1) * dim].into()),
            RowData::F16(data) => Captured::F16(data[r * dim..(r + 1) * dim].into()),
            RowData::Int8 { q, scale, bias } => Captured::Int8 {
                q: q[r * dim..(r + 1) * dim].into(),
                scale: scale[r],
                bias: bias[r],
            },
        })
    }

    /// Rewrites row `r` (of a `dim`-wide shard) per `write`: values are
    /// re-encoded, captured bytes copied back unchanged — no re-encode, so
    /// a restored row is exactly what it was when captured.
    ///
    /// # Panics
    ///
    /// On a captured row of another encoding or width, which every writer
    /// rejects before it takes a shard lock.
    pub(crate) fn write(&mut self, r: usize, dim: usize, write: RowWrite<'_>) {
        let cells = r * dim..(r + 1) * dim;
        match (self, write) {
            (RowData::F32(data), RowWrite::Values(values)) => data[cells].copy_from_slice(values),
            (RowData::F16(data), RowWrite::Values(values)) => {
                for (h, &v) in data[cells].iter_mut().zip(values) {
                    *h = f32_to_f16_bits(v);
                }
            }
            (RowData::Int8 { q, scale, bias }, RowWrite::Values(values)) => {
                (scale[r], bias[r]) = quantize_row(values, &mut q[cells]);
            }
            (RowData::F32(data), RowWrite::Encoded(EncodedRow(Captured::F32(row)))) => {
                data[cells].copy_from_slice(row)
            }
            (RowData::F16(data), RowWrite::Encoded(EncodedRow(Captured::F16(row)))) => {
                data[cells].copy_from_slice(row)
            }
            (
                RowData::Int8 { q, scale, bias },
                RowWrite::Encoded(EncodedRow(Captured::Int8 {
                    q: row,
                    scale: s,
                    bias: b,
                })),
            ) => {
                q[cells].copy_from_slice(row);
                (scale[r], bias[r]) = (*s, *b);
            }
            _ => panic!("a captured row of another encoding than its shard's"),
        }
    }

    /// Bytes this shard's rows occupy resident (payload only; allocator
    /// overhead excluded).
    pub(crate) fn resident_bytes(&self) -> u64 {
        match self {
            RowData::F32(data) => data.len() as u64 * 4,
            RowData::F16(data) => data.len() as u64 * 2,
            RowData::Int8 { q, scale, bias } => {
                q.len() as u64 + scale.len() as u64 * 4 + bias.len() as u64 * 4
            }
        }
    }
}

/// One row's resident bytes in a store's encoding, captured by
/// `PinnedTable::read_row_encoded`. Writing decoded values back
/// re-quantizes them, which for `Int8` does not always reproduce the
/// original scale and bytes (the decoded maximum is itself rounded, and
/// `scale = (max - min) / 255` inherits the rounding); restoring an
/// `EncodedRow` (`EmbeddingStore::apply_restore`) copies the bytes back
/// unchanged.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedRow(Captured);

#[derive(Debug, Clone, PartialEq)]
enum Captured {
    F32(Box<[f32]>),
    F16(Box<[u16]>),
    Int8 { q: Box<[u8]>, scale: f32, bias: f32 },
}

impl EncodedRow {
    /// The encoding the row was captured in.
    pub(crate) fn encoding(&self) -> RowEncoding {
        match &self.0 {
            Captured::F32(_) => RowEncoding::F32,
            Captured::F16(_) => RowEncoding::F16,
            Captured::Int8 { .. } => RowEncoding::Int8,
        }
    }

    /// Elements in the row.
    pub(crate) fn dim(&self) -> usize {
        match &self.0 {
            Captured::F32(row) => row.len(),
            Captured::F16(row) => row.len(),
            Captured::Int8 { q, .. } => q.len(),
        }
    }

    /// The row's decoded values — exactly what a lookup of the captured
    /// row returned.
    pub fn decode(&self) -> Vec<f32> {
        let mut values = vec![0.0f32; self.dim()];
        match &self.0 {
            Captured::F32(row) => values.copy_from_slice(row),
            Captured::F16(row) => simd::decode_f16_into(row, &mut values),
            Captured::Int8 { q, scale, bias } => {
                simd::decode_i8_into(q, *scale, *bias, &mut values)
            }
        }
        values
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drec_tensor::simd::f16_bits_to_f32;

    /// Tiny xorshift for adversarial test rows (the store crate is
    /// dependency-free, so no `ParamInit` here).
    struct Rng(u64);
    impl Rng {
        fn next_f32(&mut self, lo: f32, hi: f32) -> f32 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            lo + (hi - lo) * ((self.0 >> 40) as f32 / (1u64 << 24) as f32)
        }
    }

    #[test]
    fn f16_roundtrips_exactly_representable_values() {
        for v in [
            0.0f32,
            -0.0,
            1.0,
            -1.0,
            0.5,
            2.0,
            65504.0,
            -65504.0,
            2f32.powi(-14),
        ] {
            let rt = f16_bits_to_f32(f32_to_f16_bits(v));
            assert_eq!(rt.to_bits(), v.to_bits(), "{v} -> {rt}");
        }
    }

    #[test]
    fn f16_handles_subnormals_and_saturation() {
        // Smallest binary16 subnormal is 2^-24.
        let tiny = 2f32.powi(-24);
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(tiny)), tiny);
        // Below half the smallest subnormal rounds to zero.
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(2f32.powi(-26))), 0.0);
        // Finite overflow saturates rather than producing an infinity.
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(1e6)), 65504.0);
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(-1e6)), -65504.0);
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(65520.1)), 65504.0);
        // Infinities still propagate.
        assert_eq!(
            f16_bits_to_f32(f32_to_f16_bits(f32::INFINITY)),
            f32::INFINITY
        );
    }

    #[test]
    fn f16_error_within_documented_bound() {
        let mut rng = Rng(0xF16);
        for (lo, hi) in [(-0.05f32, 0.05f32), (-10.0, 10.0), (-60000.0, 60000.0)] {
            let row: Vec<f32> = (0..256).map(|_| rng.next_f32(lo, hi)).collect();
            let bound = RowEncoding::F16.error_bound(&row);
            for &v in &row {
                let err = (f16_bits_to_f32(f32_to_f16_bits(v)) - v).abs();
                assert!(err <= bound, "f16 err {err} > bound {bound} at {v}");
            }
        }
    }

    #[test]
    fn int8_error_within_documented_bound() {
        let mut rng = Rng(0x1278);
        let dim = 64;
        for (lo, hi) in [(-0.05f32, 0.05f32), (-10.0, 10.0), (0.0, 1.0)] {
            let data: Vec<f32> = (0..8 * dim).map(|_| rng.next_f32(lo, hi)).collect();
            let enc = RowData::encode(RowEncoding::Int8, &data, dim);
            let mut out = vec![0.0f32; dim];
            for r in 0..8 {
                let row = &data[r * dim..(r + 1) * dim];
                let bound = RowEncoding::Int8.error_bound(row);
                enc.decode_into(r, dim, &mut out);
                for (o, x) in out.iter().zip(row) {
                    let err = (o - x).abs();
                    assert!(err <= bound, "int8 err {err} > bound {bound} at {x}");
                }
            }
        }
    }

    #[test]
    fn int8_constant_row_is_exact() {
        let data = vec![0.037f32; 32];
        let enc = RowData::encode(RowEncoding::Int8, &data, 32);
        let mut out = vec![0.0f32; 32];
        enc.decode_into(0, 32, &mut out);
        assert!(out.iter().all(|&v| v == 0.037));
    }

    #[test]
    fn f32_encoding_is_identity_and_sum_matches_direct_add() {
        let mut rng = Rng(0xF32);
        let dim = 16;
        let data: Vec<f32> = (0..4 * dim).map(|_| rng.next_f32(-1.0, 1.0)).collect();
        let enc = RowData::encode(RowEncoding::F32, &data, dim);
        let mut acc = vec![0.1f32; dim];
        let mut expect = acc.clone();
        enc.sum_into(2, dim, &mut acc);
        for (a, &v) in expect.iter_mut().zip(&data[2 * dim..3 * dim]) {
            *a += v;
        }
        assert_eq!(acc, expect, "f32 sum_into must be bit-identical");
        assert_eq!(RowEncoding::F32.error_bound(&data), 0.0);
    }

    #[test]
    fn write_row_reencodes_in_place() {
        for encoding in [RowEncoding::F32, RowEncoding::F16, RowEncoding::Int8] {
            let dim = 8;
            let mut enc = RowData::encode(encoding, &vec![0.25f32; 3 * dim], dim);
            let new_row = vec![0.5f32; dim];
            enc.write(1, dim, RowWrite::Values(&new_row));
            let mut out = vec![0.0f32; dim];
            enc.decode_into(1, dim, &mut out);
            // 0.5 is exactly representable in every encoding (for int8 the
            // row is constant, so bias carries it exactly).
            assert_eq!(out, new_row, "{encoding}");
            enc.decode_into(0, dim, &mut out);
            assert!(
                out.iter().all(|&v| v == 0.25),
                "{encoding}: neighbour row clobbered"
            );
        }
    }

    #[test]
    fn bytes_per_row_matches_resident_accounting() {
        let dim = 32;
        let data = vec![0.5f32; 10 * dim];
        for encoding in [RowEncoding::F32, RowEncoding::F16, RowEncoding::Int8] {
            let enc = RowData::encode(encoding, &data, dim);
            assert_eq!(
                enc.resident_bytes(),
                (10 * encoding.bytes_per_row(dim)) as u64,
                "{encoding}"
            );
        }
        // int8 at dim 32: 40 bytes vs 128 — the ≥3x compression claim.
        assert!(
            RowEncoding::F32.bytes_per_row(dim) as f64
                / RowEncoding::Int8.bytes_per_row(dim) as f64
                >= 3.0
        );
    }
}
