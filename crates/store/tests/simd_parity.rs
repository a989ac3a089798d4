//! SIMD/scalar parity for store-side decode paths.
//!
//! The store's `sum_row`/`read_row` go through the dispatched kernels in
//! `drec_tensor::simd`; these tests recompute every lookup with the
//! `simd::scalar` oracles over independently re-encoded rows and require
//! bitwise equality, whatever backend the process resolved. They also pin
//! the decode-counter bookkeeping: counters land on the side matching the
//! active backend, and hot-row-cache hits move neither counter.
//!
//! The encode side has the same contract: `quantize_row` (dispatched) must
//! produce the bytes, scale and bias of `simd::scalar::quantize_i8_row` on
//! a grid of awkward rows, and on every table of the eight Paper-scale
//! models.

use std::sync::Arc;

use drec_models::{store_namespace, ModelId, ModelScale};
use drec_store::{
    f32_to_f16_bits, quantize_row, EmbeddingStore, RowEncoding, StoreConfig, StoreStats, TierConfig,
};
use drec_tensor::simd::{self, KernelBackend};

/// Deterministic pseudo-random row data with awkward values mixed in.
fn table_data(rows: usize, dim: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..rows * dim)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            match i % 17 {
                0 => 0.0,
                1 => -0.0,
                2 => 1e-30,
                _ => ((state >> 40) as f32 / (1 << 24) as f32) * 4.0 - 2.0,
            }
        })
        .collect()
}

fn store_with(encoding: RowEncoding) -> EmbeddingStore {
    EmbeddingStore::new(StoreConfig {
        encoding,
        shards_per_table: 4,
        cache_capacity_rows: 0,
        tier: None,
    })
}

/// Oracle: re-encode row `r` of `data` exactly as the store does, then decode
/// with the pure-scalar kernels.
fn oracle_sum(encoding: RowEncoding, data: &[f32], dim: usize, r: usize, acc: &mut [f32]) {
    let row = &data[r * dim..(r + 1) * dim];
    match encoding {
        RowEncoding::F32 => simd::scalar::sum_f32_into(row, acc),
        RowEncoding::F16 => {
            let bits: Vec<u16> = row.iter().map(|&x| f32_to_f16_bits(x)).collect();
            simd::scalar::sum_f16_into(&bits, acc);
        }
        RowEncoding::Int8 => {
            let mut q = vec![0u8; dim];
            let (scale, bias) = simd::scalar::quantize_i8_row(row, &mut q);
            simd::scalar::sum_i8_into(&q, scale, bias, acc);
        }
    }
}

#[test]
fn store_lookups_match_scalar_oracle_bitwise_for_every_encoding() {
    // Dims cover SIMD tails: below one lane, exactly one/two lanes, ragged.
    for &dim in &[1usize, 7, 8, 9, 16, 33] {
        let rows = 64;
        let data = table_data(rows, dim, dim as u64 + 3);
        for encoding in [RowEncoding::F32, RowEncoding::F16, RowEncoding::Int8] {
            let store = Arc::new(store_with(encoding));
            let handle = store.register(1, 0, rows, dim, &data).unwrap();
            let table = store.pin(handle);
            for r in 0..rows {
                let mut got = vec![0.25f32; dim];
                let mut want = vec![0.25f32; dim];
                table.sum_row(r as u32, &mut got);
                oracle_sum(encoding, &data, dim, r, &mut want);
                for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "{encoding:?} dim {dim} row {r} col {i}: {g} vs {w}"
                    );
                }
            }
        }
    }
}

#[test]
fn decode_counters_land_on_the_active_backend_side() {
    for encoding in [RowEncoding::F32, RowEncoding::F16, RowEncoding::Int8] {
        let store = Arc::new(store_with(encoding));
        let handle = store
            .register(2, 0, 32, 16, &table_data(32, 16, 11))
            .unwrap();
        let table = store.pin(handle);
        let base = store.stats();
        let mut acc = vec![0.0f32; 16];
        for r in 0..32u32 {
            table.sum_row(r, &mut acc);
        }
        let delta = store.stats().since(&base);
        match simd::active_backend() {
            KernelBackend::Avx2Fma => {
                assert_eq!(delta.decode_vector, 32, "{encoding:?}");
                assert_eq!(delta.decode_scalar, 0, "{encoding:?}");
            }
            KernelBackend::Scalar => {
                assert_eq!(delta.decode_vector, 0, "{encoding:?}");
                assert_eq!(delta.decode_scalar, 32, "{encoding:?}");
            }
        }
    }
}

#[test]
fn a_hot_hit_is_one_decode_and_no_tier_access() {
    // Key set large enough to hold the whole table: after one pass every
    // row is hot, and a hot hit still decodes from its shard — on the
    // active backend — while the tier is not consulted.
    let store = Arc::new(EmbeddingStore::new(StoreConfig {
        encoding: RowEncoding::Int8,
        cache_capacity_rows: 1024,
        tier: Some(TierConfig::new(4)),
        ..StoreConfig::default()
    }));
    let handle = store.register(3, 0, 16, 8, &table_data(16, 8, 7)).unwrap();
    let table = store.pin(handle);
    let mut acc = vec![0.0f32; 8];
    for r in 0..16u32 {
        table.sum_row(r, &mut acc);
    }
    let warm_base = store.stats();
    assert_eq!(warm_base.decode_vector + warm_base.decode_scalar, 16);
    assert_eq!(
        warm_base.tier_dram_hits + warm_base.tier_cold_demand_reads,
        16
    );
    for _ in 0..4 {
        for r in 0..16u32 {
            table.sum_row(r, &mut acc);
        }
    }
    let mut dst = vec![0.0f32; 8];
    table.read_row(5, &mut dst);
    let delta = store.stats().since(&warm_base);
    let hits = 4 * 16 + 1;
    assert_eq!((delta.cache_hits, delta.cache_misses), (hits, 0));
    let decodes = match simd::active_backend() {
        KernelBackend::Avx2Fma => (hits, 0),
        KernelBackend::Scalar => (0, hits),
    };
    assert_eq!((delta.decode_vector, delta.decode_scalar), decodes);
    let tier = |s: &StoreStats| {
        (
            s.tier_dram_hits,
            s.tier_cold_demand_reads,
            s.tier_promotions,
            s.tier_evictions,
            s.tier_demand_wait_nanos,
        )
    };
    assert_eq!(tier(&delta), (0, 0, 0, 0, 0), "a hot hit charged the tier");
}

#[test]
fn force_scalar_env_is_honored() {
    // The backend is resolved once per process, so this test asserts
    // whichever leg it runs under: CI runs the suite twice, with and
    // without DREC_FORCE_SCALAR=1.
    let forced = std::env::var("DREC_FORCE_SCALAR")
        .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
        .unwrap_or(false);
    if forced {
        assert_eq!(simd::active_backend(), KernelBackend::Scalar);
        assert_eq!(simd::backend_label(), "scalar");
    }
    #[cfg(target_arch = "x86_64")]
    if !forced && std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma") {
        assert_eq!(simd::active_backend(), KernelBackend::Avx2Fma);
    }
}

/// Rows the int8 encoder must not get wrong, at width `dim`: each kind
/// fills the row by cycling its pattern from a dim-dependent offset, so
/// the awkward elements land in vector lanes and in the scalar tail.
fn encoder_rows(dim: usize) -> Vec<(&'static str, Vec<f32>)> {
    let cycle = |pattern: &[f32]| -> Vec<f32> {
        (0..dim)
            .map(|i| pattern[(i + dim) % pattern.len()])
            .collect()
    };
    let tiny = f32::from_bits(1); // the smallest denormal
    let halves: Vec<f32> = (0..=255).map(|k| k as f32 + 0.5).collect();
    let mut rows = vec![
        ("constant", vec![0.037f32; dim]),
        ("zeros, -0 first", cycle(&[-0.0, 0.0, 0.0])),
        ("zeros, +0 first", cycle(&[0.0, -0.0, -0.0])),
        ("-0 minimum", cycle(&[-0.0, 0.0, 0.25, 1.0])),
        ("+0 minimum", cycle(&[0.0, -0.0, 0.25, 1.0])),
        ("0 maximum", cycle(&[-1.0, -0.0, 0.0, -0.5])),
        // Steps of one denormal: spans of 127 units quantize to a
        // constant row, 128 is the first that does not, and from 256 up
        // the quotient passes 255 and must clamp (382 is the largest).
        (
            "denormal span 127",
            cycle(&[tiny, tiny * 128.0, tiny * 64.0]),
        ),
        (
            "denormal span 128",
            cycle(&[tiny, tiny * 129.0, tiny * 64.0]),
        ),
        (
            "denormal span 382",
            cycle(&[0.0, tiny * 382.0, tiny * 300.0, tiny]),
        ),
        (
            "denormal span 383",
            cycle(&[0.0, tiny * 383.0, tiny * 300.0, tiny]),
        ),
        (
            "denormals about 0",
            cycle(&[-tiny * 9.0, tiny * 40.0, -0.0, tiny]),
        ),
        ("+inf", cycle(&[1.0, f32::INFINITY, -2.0])),
        ("-inf", cycle(&[1.0, f32::NEG_INFINITY, -2.0])),
        ("both inf", cycle(&[f32::NEG_INFINITY, 0.5, f32::INFINITY])),
        ("all NaN", vec![f32::NAN; dim]),
        (
            "NaN among finite",
            cycle(&[f32::NAN, -1.0, 0.3, f32::NAN, 2.0]),
        ),
        ("NaN first", cycle(&[0.3, 2.0, -1.0, f32::NAN])),
        ("overflowing span", cycle(&[f32::MAX, f32::MIN, 0.0])),
        ("1 ulp", cycle(&[1.0, 1.0f32.next_up()])),
        ("1 ulp at -0.05", cycle(&[-0.05, (-0.05f32).next_up()])),
        (
            "2 ulp",
            cycle(&[3.0, 3.0f32.next_up().next_up(), 3.0f32.next_up()]),
        ),
        // min 0, max 255: the step is exactly 1, so x is its own quotient.
        ("k + 0.5", cycle(&[&[0.0, 255.0][..], &halves].concat())),
        (
            "k + 0.5 -+ 1 ulp",
            cycle(
                &halves
                    .iter()
                    .flat_map(|h| [h.next_down(), h.next_up()])
                    .chain([0.0, 255.0])
                    .collect::<Vec<_>>(),
            ),
        ),
        // min 2^-53, max 510: the step is exactly 2, and 1.0 quantizes
        // through (1 - 2^-53) / 2, the double just below one half.
        ("below half", cycle(&[2f32.powi(-53), 1.0, 510.0, 3.0])),
    ];
    for (i, (lo, hi)) in [
        (-0.05f32, 0.05f32),
        (-10.0, 10.0),
        (0.0, 1.0),
        (-3e38, 3e38),
    ]
    .into_iter()
    .enumerate()
    {
        let unit = table_data(1, dim, (dim * 4 + i) as u64);
        let row = unit.iter().map(|u| lo + (u + 2.0) / 4.0 * (hi - lo));
        rows.push(("random", row.collect()));
    }
    rows
}

#[test]
fn dispatched_encoder_matches_the_scalar_oracle_on_every_byte() {
    assert_eq!(
        (1.0f64 - 2f64.powi(-53)) / 2.0,
        0.499_999_999_999_999_94,
        "the `below half` row reaches the quotient floor(x + 0.5) rounds wrong"
    );
    for dim in 1..=70usize {
        for (kind, row) in encoder_rows(dim) {
            let (mut got, mut want) = (vec![0xAAu8; dim], vec![0x55u8; dim]);
            let (scale, bias) = quantize_row(&row, &mut got);
            let (want_scale, want_bias) = simd::scalar::quantize_i8_row(&row, &mut want);
            assert_eq!(got, want, "{kind}, dim {dim}: q of {row:?}");
            assert_eq!(
                (scale.to_bits(), bias.to_bits()),
                (want_scale.to_bits(), want_bias.to_bits()),
                "{kind}, dim {dim}: ({scale}, {bias}) vs ({want_scale}, {want_bias}) of {row:?}"
            );
        }
    }
}

/// FNV-1a over little-endian words.
fn fnv(hash: &mut u64, words: impl IntoIterator<Item = u32>) {
    for byte in words.into_iter().flat_map(u32::to_le_bytes) {
        *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Every table of the eight Paper-scale models, encoded by the store
/// (dispatched encoder) from the same rows an f32 store holds verbatim:
/// each stored row must decode to what the scalar oracle's encoding of the
/// f32 row decodes to, and the whole int8 state must hash to the value it
/// had before the vector encoder existed — so both CI legs, and the commit
/// before this kernel, hold the same bytes.
#[test]
fn paper_scale_tables_encode_identically_on_both_backends() {
    const SEED: u64 = 7;
    let config = |encoding| StoreConfig {
        encoding,
        cache_capacity_rows: 0,
        tier: None,
        ..StoreConfig::default()
    };
    let exact = Arc::new(EmbeddingStore::new(config(RowEncoding::F32)));
    let int8 = Arc::new(EmbeddingStore::new(config(RowEncoding::Int8)));
    let (mut tables, mut rows_total, mut elements) = (0usize, 0u64, 0u64);
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for id in ModelId::ALL {
        for store in [&exact, &int8] {
            id.build_with_store(ModelScale::Paper, SEED, Arc::clone(store))
                .expect("model builds");
        }
        let namespace = store_namespace(id, ModelScale::Paper, SEED);
        for (ordinal, rows, dim) in int8.namespace_tables(namespace) {
            let source = exact.pin(exact.lookup(namespace, ordinal).unwrap());
            let stored = int8.pin(int8.lookup(namespace, ordinal).unwrap());
            let (mut row, mut got, mut want) = (vec![0f32; dim], vec![0f32; dim], vec![0f32; dim]);
            let mut q = vec![0u8; dim];
            for r in 0..rows as u32 {
                source.read_row_raw(r, &mut row).unwrap();
                let (scale, bias) = simd::scalar::quantize_i8_row(&row, &mut q);
                simd::scalar::decode_i8_into(&q, scale, bias, &mut want);
                stored.read_row_raw(r, &mut got).unwrap();
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "{id} table {ordinal} row {r}");
                assert_eq!(stored.read_row_encoded(r).unwrap().decode(), got);
                fnv(&mut digest, q.iter().map(|&b| u32::from(b)));
                fnv(&mut digest, [scale.to_bits(), bias.to_bits()]);
            }
            tables += 1;
            rows_total += rows as u64;
            elements += (rows * dim) as u64;
        }
    }
    let stats = int8.stats();
    assert_eq!(
        (
            stats.tables,
            stats.rows,
            stats.resident_bytes,
            stats.f32_bytes
        ),
        (tables, rows_total, elements + 8 * rows_total, 4 * elements)
    );
    assert_eq!((tables, rows_total), (116, 116 * 4096));
    assert_eq!(digest, PAPER_INT8_DIGEST, "digest {digest:#018x}");
}

/// [`fnv`] over `(q, scale, bias)` of every row of the eight Paper-scale
/// models at seed 7, in `ModelId::ALL` and ordinal order, as the scalar
/// encoder produces them.
const PAPER_INT8_DIGEST: u64 = 0x8fbc_f061_c253_45ac;
