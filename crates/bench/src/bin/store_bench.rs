//! Benchmarks and acceptance gates for the `drec-store` embedding
//! parameter store: direct-tensor vs store-backed bit-identity across
//! thread counts, hot-row cache hit rates across encoding × cache
//! capacity × Zipf skew, and quantization error against the documented
//! per-encoding bounds. Writes `BENCH_store.json`.
//!
//! Flags:
//!
//! * `--smoke` — tiny shapes, correctness gates only (CI mode),
//! * `--quick` — fewer lookups per sweep cell.
//!
//! Gates (asserted in both modes unless noted):
//!
//! * store-backed f32 RM1 outputs are bit-identical to the plain dense
//!   build at every pool size and batch, cold and warm cache,
//! * int8 cuts resident bytes ≥ 3× vs f32 at dim 32,
//! * every decoded row stays within its encoding's documented error
//!   bound,
//! * hot-row cache hit rate ≥ 60% at Zipf s = 1.0 with the cache sized
//!   to 10% of rows (full mode; smoke asserts a nonzero hit rate),
//! * the store's cold-decode path (runtime-dispatched SIMD kernels,
//!   cache off) beats a raw scalar-oracle loop over the same encoded
//!   bytes by ≥1.3× for int8 on AVX2+FMA hosts (auto-skip with a logged
//!   notice elsewhere), and the vector/scalar decode counters account
//!   for every cold decode on the active backend,
//! * tiered DRAM/SSD legs under Zipf s = 1.0 with the DRAM budget at
//!   25% of rows (virtual cold-read charging, so deterministic in both
//!   modes): combined DRAM hit rate ≥ 80%, tiering alone ≥ 5× the
//!   DRAM-only mean lookup while stream prefetch pulls it back ≤ 2×
//!   and converts ≥ 50% of would-be cold demand misses, and the
//!   table-combining cache cuts lookups ≥ 15% on correlated two-table
//!   traffic,
//! * the read-path cost table — ns/row for {no cache, cache hit, cache
//!   miss, tier hit, tier cold, tier with frequency admission} read
//!   with one-row calls and as bags of 120: the bag costs no more than
//!   the one-row calls on every leg (a leg whose difference is inside
//!   its own run-to-run spread logs a skip instead), and residency
//!   bookkeeping has a per-row budget as a multiple of the `no_cache`
//!   leg — the hot-row key set 1.3× on a hit and 3× on a miss, the tier
//!   1.6× on a DRAM hit and 2.6× on a cold read (same skip rule).

use drec_bench::json_f64;
use std::sync::Arc;
use std::time::Instant;

use drec_models::{ModelId, ModelScale};
use drec_par::ParPool;
use drec_store::{
    quantize_row, CombineConfig, EmbeddingStore, RowEncoding, StoreConfig, TierConfig,
};
use drec_tensor::simd::{self, KernelBackend};
use drec_tensor::ParamInit;
use drec_workload::{CategoricalDist, QueryGen};

/// Required hot-row cache hit rate at Zipf s = 1.0 with the cache sized
/// to 10% of rows (full mode only).
const HIT_RATE_GATE: f64 = 0.60;
/// Required resident-bytes compression of int8 vs f32 at dim 32.
const COMPRESSION_GATE: f64 = 3.0;
/// Required int8 cold-decode speedup of the store's dispatched path over
/// the raw scalar-oracle loop on AVX2+FMA hosts. Deliberately lower than
/// kernel_bench's raw-kernel gate: the store path pays shard locks and
/// counter atomics the oracle loop doesn't.
const DECODE_SPEEDUP_GATE: f64 = 1.3;
/// Required combined (cache + tier) DRAM hit rate under Zipf s = 1.0
/// with the DRAM budget at 25% of rows. Asserted in smoke too: the
/// cold-read model charges virtual nanoseconds, so the tiered gates are
/// deterministic.
const TIER_HIT_RATE_GATE: f64 = 0.80;
/// Required fraction of would-be cold demand misses the stream
/// prefetcher converts into DRAM hits.
const PREFETCH_CONVERSION_GATE: f64 = 0.50;
/// Required lookup-count reduction from the table-combining cache on
/// correlated two-table traffic.
const COMBINE_CUT_GATE: f64 = 0.15;
/// Tiering without prefetch must be at least this many times slower than
/// DRAM-only per mean lookup — i.e. the cold tier genuinely hurts.
const TIERED_SLOWDOWN_FLOOR: f64 = 5.0;
/// With stream prefetch the mean lookup must stay within this factor of
/// DRAM-only — i.e. prefetch genuinely hides the cold-read latency.
const PREFETCH_SLOWDOWN_CEILING: f64 = 2.0;
/// Nominal DRAM lookup cost the tiered latency model charges against
/// (the virtual-time baseline every tiered mean adds demand waits to).
const NOMINAL_DRAM_NS: f64 = 100.0;

struct Args {
    smoke: bool,
    quick: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        quick: false,
    };
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => args.smoke = true,
            "--quick" => args.quick = true,
            other => eprintln!("warning: unknown argument '{other}' (supported: --smoke --quick)"),
        }
    }
    args
}

struct IdentityRow {
    threads: usize,
    batch: usize,
    identical: bool,
}

/// Runs RM1 with plain dense tables and with a store-backed f32 build on
/// the same Zipf input stream, across pool sizes, twice per
/// configuration so the second pass hits a warm hot-row cache. Outputs
/// must match bit for bit every time.
fn check_bit_identity(scale: ModelScale, batches: &[usize]) -> (Vec<IdentityRow>, f64) {
    let seed = 11;
    let mut dense = ModelId::Rm1.build(scale, seed).expect("dense build");
    let store = Arc::new(EmbeddingStore::new(StoreConfig {
        encoding: RowEncoding::F32,
        cache_capacity_rows: 2048,
        ..StoreConfig::default()
    }));
    let mut stored = ModelId::Rm1
        .build_with_store(scale, seed, Arc::clone(&store))
        .expect("store-backed build");

    let mut gen = QueryGen::zipf(0xD1CE, 1.0);
    let baseline_pool = ParPool::new(1);
    let mut rows = Vec::new();
    for &batch in batches {
        let inputs = gen.batch(dense.spec(), batch);
        let reference =
            drec_par::with_pool(&baseline_pool, || dense.run(inputs.clone())).expect("dense run");
        for threads in [1usize, 2, 4] {
            let pool = ParPool::new(threads);
            // Two passes: cold cache, then warm — cache state must never
            // change outputs.
            for _pass in 0..2 {
                let got = drec_par::with_pool(&pool, || stored.run(inputs.clone()))
                    .expect("store-backed run");
                let identical = reference.len() == got.len()
                    && reference.iter().zip(&got).all(|(a, b)| {
                        let a = a.as_dense().expect("dense output").as_slice();
                        let b = b.as_dense().expect("dense output").as_slice();
                        a.len() == b.len()
                            && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
                    });
                assert!(
                    identical,
                    "store-backed f32 RM1 differs from dense at {threads} thread(s), batch {batch}"
                );
                rows.push(IdentityRow {
                    threads,
                    batch,
                    identical,
                });
            }
        }
    }
    (rows, store.stats().hit_rate())
}

struct SweepRow {
    encoding: RowEncoding,
    cache_frac: f64,
    zipf_s: f64,
    hit_rate: f64,
    compression: f64,
    resident_bytes: u64,
    f32_bytes: u64,
    lookups_per_sec: f64,
}

/// Standalone store driven by Zipf row traffic: one cell per encoding ×
/// cache-capacity fraction × skew exponent.
#[allow(clippy::too_many_arguments)]
fn sweep_cell(
    rows: usize,
    dim: usize,
    data: &[f32],
    encoding: RowEncoding,
    cache_frac: f64,
    zipf_s: f64,
    warm: usize,
    measure: usize,
) -> SweepRow {
    let store = Arc::new(EmbeddingStore::new(StoreConfig {
        encoding,
        cache_capacity_rows: (rows as f64 * cache_frac) as usize,
        ..StoreConfig::default()
    }));
    let handle = store.register(1, 0, rows, dim, data).expect("register");
    let pinned = store.pin(handle);
    let dist = CategoricalDist::Zipf { s: zipf_s };
    let mut rng = ParamInit::new(0xACE);
    let mut acc = vec![0.0f32; dim];
    for _ in 0..warm {
        pinned.sum_row(dist.sample(&mut rng, rows), &mut acc);
    }
    let baseline = store.stats();
    let start = Instant::now();
    for _ in 0..measure {
        pinned.sum_row(dist.sample(&mut rng, rows), &mut acc);
    }
    let elapsed = start.elapsed().as_secs_f64();
    std::hint::black_box(&acc);
    let delta = store.stats().since(&baseline);
    let totals = store.stats();
    SweepRow {
        encoding,
        cache_frac,
        zipf_s,
        hit_rate: delta.hit_rate(),
        compression: totals.compression(),
        resident_bytes: totals.resident_bytes,
        f32_bytes: totals.f32_bytes,
        lookups_per_sec: measure as f64 / elapsed,
    }
}

struct DecodeRow {
    encoding: RowEncoding,
    store_gb_s: f64,
    oracle_gb_s: f64,
    speedup: f64,
    decode_vector: u64,
    decode_scalar: u64,
}

/// Cold-decode bandwidth: the store's dispatched pooled-sum path (cache
/// disabled, so every lookup decodes from a shard) against a raw
/// scalar-oracle loop over the same encoded bytes — the "what would this
/// cost without the SIMD kernels" baseline. Also checks the store's
/// vector/scalar decode counters account for exactly the measured
/// lookups on the side matching the active backend.
fn bench_decode_bandwidth(rows: usize, dim: usize, data: &[f32], lookups: usize) -> Vec<DecodeRow> {
    let mut state = 0xDEC0_u64;
    let ids: Vec<u32> = (0..lookups)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % rows as u64) as u32
        })
        .collect();
    let mut acc = vec![0.0f32; dim];
    [RowEncoding::F32, RowEncoding::F16, RowEncoding::Int8]
        .into_iter()
        .map(|encoding| {
            let store = Arc::new(EmbeddingStore::new(StoreConfig {
                encoding,
                cache_capacity_rows: 0,
                ..StoreConfig::default()
            }));
            let handle = store.register(1, 0, rows, dim, data).expect("register");
            let pinned = store.pin(handle);
            // Warm pass (page in the shards), then measure.
            acc.fill(0.0);
            for &id in &ids {
                pinned.sum_row(id, &mut acc);
            }
            let base = store.stats();
            acc.fill(0.0);
            let start = Instant::now();
            for &id in &ids {
                pinned.sum_row(id, &mut acc);
            }
            let store_seconds = start.elapsed().as_secs_f64();
            std::hint::black_box(&acc);
            let delta = store.stats().since(&base);
            let decoded = delta.decode_vector + delta.decode_scalar;
            assert_eq!(
                decoded as usize,
                ids.len(),
                "{encoding}: every cache-off lookup must tally exactly one decode"
            );
            let wrong_side = match simd::active_backend() {
                KernelBackend::Avx2Fma => delta.decode_scalar,
                KernelBackend::Scalar => delta.decode_vector,
            };
            assert_eq!(
                wrong_side, 0,
                "{encoding}: decode counters disagree with the active backend ({delta:?})"
            );

            // Raw scalar-oracle loop over the same encoded bytes.
            let oracle_seconds = match encoding {
                RowEncoding::F32 => {
                    acc.fill(0.0);
                    let start = Instant::now();
                    for &id in &ids {
                        let r = id as usize;
                        simd::scalar::sum_f32_into(&data[r * dim..(r + 1) * dim], &mut acc);
                    }
                    start.elapsed().as_secs_f64()
                }
                RowEncoding::F16 => {
                    let bits: Vec<u16> = data
                        .iter()
                        .map(|&v| drec_store::f32_to_f16_bits(v))
                        .collect();
                    acc.fill(0.0);
                    let start = Instant::now();
                    for &id in &ids {
                        let r = id as usize;
                        simd::scalar::sum_f16_into(&bits[r * dim..(r + 1) * dim], &mut acc);
                    }
                    start.elapsed().as_secs_f64()
                }
                RowEncoding::Int8 => {
                    let mut q = vec![0u8; rows * dim];
                    let mut scale = vec![0f32; rows];
                    let mut bias = vec![0f32; rows];
                    for r in 0..rows {
                        let (s, b) = quantize_row(
                            &data[r * dim..(r + 1) * dim],
                            &mut q[r * dim..(r + 1) * dim],
                        );
                        scale[r] = s;
                        bias[r] = b;
                    }
                    acc.fill(0.0);
                    let start = Instant::now();
                    for &id in &ids {
                        let r = id as usize;
                        simd::scalar::sum_i8_into(
                            &q[r * dim..(r + 1) * dim],
                            scale[r],
                            bias[r],
                            &mut acc,
                        );
                    }
                    start.elapsed().as_secs_f64()
                }
            };
            std::hint::black_box(&acc);
            let bytes = (ids.len() * encoding.bytes_per_row(dim)) as f64;
            DecodeRow {
                encoding,
                store_gb_s: bytes / store_seconds / 1e9,
                oracle_gb_s: bytes / oracle_seconds / 1e9,
                speedup: oracle_seconds / store_seconds,
                decode_vector: delta.decode_vector,
                decode_scalar: delta.decode_scalar,
            }
        })
        .collect()
}

struct ErrorRow {
    encoding: RowEncoding,
    max_abs_err: f32,
    max_bound: f32,
}

/// Decodes every row of a quantized store back to f32 and checks the
/// worst absolute error against the encoding's documented bound. The
/// data mixes uniform rows with adversarial ones: a constant row (int8
/// must be exact) and a wide-range row (stresses the scale).
fn check_dequant_error(dim: usize) -> Vec<ErrorRow> {
    let rows = 256;
    let mut init = ParamInit::new(0xE44);
    let mut data = init.uniform(&[rows, dim], -0.05, 0.05).as_slice().to_vec();
    for v in &mut data[..dim] {
        *v = 0.037; // constant row: int8 quantizes exactly
    }
    for v in &mut data[dim..2 * dim] {
        *v *= 200.0; // wide-range row: large scale, coarse int8 steps
    }
    [RowEncoding::F16, RowEncoding::Int8]
        .into_iter()
        .map(|encoding| {
            let store = Arc::new(EmbeddingStore::new(StoreConfig {
                encoding,
                cache_capacity_rows: 0,
                ..StoreConfig::default()
            }));
            let handle = store.register(1, 0, rows, dim, &data).expect("register");
            let pinned = store.pin(handle);
            let mut decoded = vec![0.0f32; dim];
            let mut max_abs_err = 0.0f32;
            let mut max_bound = 0.0f32;
            for r in 0..rows {
                let original = &data[r * dim..(r + 1) * dim];
                pinned.read_row(r as u32, &mut decoded);
                let err = original
                    .iter()
                    .zip(&decoded)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0f32, f32::max);
                let bound = encoding.error_bound(original);
                assert!(
                    err <= bound,
                    "{encoding}: row {r} decode error {err:e} exceeds documented bound {bound:e}"
                );
                max_abs_err = max_abs_err.max(err);
                max_bound = max_bound.max(bound);
            }
            ErrorRow {
                encoding,
                max_abs_err,
                max_bound,
            }
        })
        .collect()
}

struct TierRow {
    leg: &'static str,
    dram_hit_rate: f64,
    cold_demand_reads: u64,
    prefetch_issued: u64,
    prefetch_conversion: f64,
    combined_cut: f64,
    mean_lookup_ns: f64,
    slowdown: f64,
}

/// Tiered DRAM/SSD legs over identical Zipf s = 1.0 traffic with the
/// DRAM budget at 25% of rows (plus the usual 10% hot-row cache):
///
/// * `dram_only` — no tier, the latency baseline (`NOMINAL_DRAM_NS`),
/// * `tiered` — demand misses pay the simulated cold read,
/// * `tiered_prefetch` — a 64-query stream window issues
///   intent + fill before the demand lookups, modelling the serve-side
///   prefetcher with perfect lookahead,
/// * `tiered_combined` — two tables in one combining store driven by
///   correlated pair traffic through `sum_row_pair`.
///
/// The cold-read model charges *virtual* nanoseconds
/// ([`drec_store::Pacing::Charge`]), so every number here is
/// deterministic: mean lookup latency is `NOMINAL_DRAM_NS` plus the
/// charged demand wait per lookup. Prefetch waits land on the separate
/// overlapped counter — that asymmetry *is* the benefit being measured.
fn bench_tiered(
    rows: usize,
    dim: usize,
    data: &[f32],
    warm: usize,
    measure: usize,
) -> Vec<TierRow> {
    let budget = rows / 4;
    // Hot-row cache off: DRAM is exactly the 25% tier budget, and the
    // tier sees the full access stream (a hot-row key set in front
    // would starve the CLOCK of recency signal for the hottest rows).
    let cache_rows = 0;
    let dist = CategoricalDist::Zipf { s: 1.0 };
    // Frequency admission needs the head of the distribution to earn
    // its touch counts before measuring: size the warm phase so the
    // boundary row (rank = budget) sees a few touches.
    let warm = warm.max(25 * budget);
    let mut rng = ParamInit::new(0x71E4);
    let ids: Vec<u32> = (0..warm + measure)
        .map(|_| dist.sample(&mut rng, rows))
        .collect();
    let mut acc = vec![0.0f32; dim];
    let mut out = Vec::new();

    let make_store = |tier: Option<TierConfig>| {
        Arc::new(EmbeddingStore::new(StoreConfig {
            cache_capacity_rows: cache_rows,
            tier,
            ..StoreConfig::default()
        }))
    };
    let row_for = |leg: &'static str, delta: &drec_store::StoreStats, mean_ns: f64| TierRow {
        leg,
        dram_hit_rate: delta.combined_dram_hit_rate(),
        cold_demand_reads: delta.tier_cold_demand_reads,
        prefetch_issued: delta.prefetch_issued,
        prefetch_conversion: delta.prefetch_conversion(),
        combined_cut: delta.combined_lookup_cut(),
        mean_lookup_ns: mean_ns,
        slowdown: mean_ns / NOMINAL_DRAM_NS,
    };

    // Leg 1: DRAM-only baseline — every lookup costs the nominal DRAM
    // charge, nothing else.
    {
        let store = make_store(None);
        let handle = store.register(1, 0, rows, dim, data).expect("register");
        let pinned = store.pin(handle);
        for &id in &ids[..warm] {
            pinned.sum_row(id, &mut acc);
        }
        let base = store.stats();
        for &id in &ids[warm..] {
            pinned.sum_row(id, &mut acc);
        }
        let delta = store.stats().since(&base);
        out.push(row_for("dram_only", &delta, NOMINAL_DRAM_NS));
    }

    // Leg 2: tiered, demand-only — cold misses stall the lookup. The
    // 2-touch admission filter keeps one-visit tail rows from churning
    // the hot set (plain CLOCK converges to LRU-class ~75% here).
    {
        let mut tier = TierConfig::new(budget);
        tier.admit_after = 2;
        let store = make_store(Some(tier));
        let handle = store.register(1, 0, rows, dim, data).expect("register");
        let pinned = store.pin(handle);
        for &id in &ids[..warm] {
            pinned.sum_row(id, &mut acc);
        }
        let base = store.stats();
        for &id in &ids[warm..] {
            pinned.sum_row(id, &mut acc);
        }
        let delta = store.stats().since(&base);
        let mean = NOMINAL_DRAM_NS + delta.mean_demand_wait_nanos();
        out.push(row_for("tiered", &delta, mean));
    }

    // Leg 3: tiered + stream prefetch — a 64-query window registers
    // intent and fills ahead of the demand pass, the way the serve
    // runtime's prefetch thread runs ahead of batch drain.
    {
        let mut tier = TierConfig::new(budget);
        tier.prefetch = true;
        tier.admit_after = 2;
        let store = make_store(Some(tier));
        let handle = store.register(1, 0, rows, dim, data).expect("register");
        let pinned = store.pin(handle);
        let run = |stream: &[u32], acc: &mut [f32]| {
            for window in stream.chunks(64) {
                for &id in window {
                    if pinned.note_prefetch_intent(id) {
                        pinned.prefetch_row(id);
                    }
                }
                for &id in window {
                    pinned.sum_row(id, acc);
                }
            }
        };
        run(&ids[..warm], &mut acc);
        let base = store.stats();
        run(&ids[warm..], &mut acc);
        let delta = store.stats().since(&base);
        let mean = NOMINAL_DRAM_NS + delta.mean_demand_wait_nanos();
        out.push(row_for("tiered_prefetch", &delta, mean));
    }

    // Leg 4: tiered + table combining — two tables in one store, 70% of
    // queries hitting a correlated (a, perm(a)) pair, the co-occurrence
    // structure MicroRec-style combining exploits.
    {
        let half = rows / 2;
        let mut tier = TierConfig::new(budget);
        tier.admit_after = 2;
        tier.combine = Some(CombineConfig::default());
        let store = make_store(Some(tier));
        let ha = store
            .register(1, 0, half, dim, &data[..half * dim])
            .expect("register a");
        let hb = store
            .register(1, 1, half, dim, &data[half * dim..2 * half * dim])
            .expect("register b");
        let (pa, pb) = (store.pin(ha), store.pin(hb));
        let mut rng = ParamInit::new(0xC0B1);
        let mut coin = 0xC01Du64;
        let mut acc_b = vec![0.0f32; dim];
        let mut run = |n: usize, acc: &mut [f32], acc_b: &mut [f32]| {
            for _ in 0..n {
                let a = dist.sample(&mut rng, half);
                coin ^= coin << 13;
                coin ^= coin >> 7;
                coin ^= coin << 17;
                let b = if coin % 10 < 7 {
                    ((u64::from(a) * 0x9E37_79B1 + 7) % half as u64) as u32
                } else {
                    dist.sample(&mut rng, half)
                };
                pa.sum_row_pair(a, acc, &pb, b, acc_b);
            }
        };
        run(warm, &mut acc, &mut acc_b);
        let base = store.stats();
        run(measure, &mut acc, &mut acc_b);
        let delta = store.stats().since(&base);
        let mean = NOMINAL_DRAM_NS + delta.mean_demand_wait_nanos();
        out.push(row_for("tiered_combined", &delta, mean));
    }
    std::hint::black_box(&acc);
    out
}

/// Ids per pooled bag in the read-path table (RM2's pooling factor).
const BAG: usize = 120;
/// Timed repeats per read-path cell; the fastest is reported.
const READ_PATH_REPEATS: usize = 7;

struct ReadPathRow {
    leg: &'static str,
    /// Fastest and median repeat, ns per row, through one-row calls.
    one_row_ns: (f64, f64),
    /// The same through bags of [`BAG`].
    bag_ns: (f64, f64),
}

/// What residency bookkeeping may cost per row of a bag, as a multiple
/// of the `no_cache` leg: `(leg, ceiling)`. A key-set hit adds a
/// lock-free probe to the decode; a miss adds the probe, the shard's
/// writer lock, a victim scan and an eviction, on two more cache lines
/// (keys, stamps) — more than one decode's worth: 2.2–2.6x measured at
/// smoke and at full size. A tier DRAM hit adds the row's record and
/// its CLOCK slot (two cache lines, 1.4x); a cold read adds the victim's
/// record and the latency model's hash on top (2.3x). With three hash
/// maps in place of the record the tier legs measured 1.85x and 2.98x.
const RESIDENCY_CEILINGS: [(&str, f64); 4] = [
    ("cache_hit", 1.3),
    ("cache_miss", 3.0),
    ("tier_hit", 1.6),
    ("tier_cold", 2.6),
];

/// `Some(ns <= limit)` when that is resolved; `None` when `ns` is above
/// the limit taken at the reference leg's fastest repeat but not at its
/// median — a difference inside the reference's own run-to-run spread.
fn within(ns: f64, (fastest, median): (f64, f64)) -> Option<bool> {
    if ns <= fastest {
        Some(true)
    } else if ns <= median {
        None
    } else {
        Some(false)
    }
}

impl ReadPathRow {
    /// Whether a bag costs no more per row than one-row calls.
    fn bag_no_slower(&self) -> Option<bool> {
        within(self.bag_ns.0, self.one_row_ns)
    }

    /// Whether a bag on this leg costs at most `ceiling` times a bag on
    /// `base`.
    fn bag_within(&self, ceiling: f64, base: &ReadPathRow) -> Option<bool> {
        within(
            self.bag_ns.0,
            (ceiling * base.bag_ns.0, ceiling * base.bag_ns.1),
        )
    }
}

/// The read-path cost table: what one row read costs on each residency
/// outcome, through one-row calls and through bags of [`BAG`] — the
/// measurement every retained residency structure has to point at.
/// Int8 tables of `rows` rows x `dim`; every leg reads `tables * rows`
/// rows per pass, a bag at a time per table, and is set up so that
/// every read takes the leg's path (asserted on the store's counters,
/// to within 1 % for the set-associative cache):
///
/// * `no_cache` — no hot-row key set, no tier: lock, decode, tally,
/// * `cache_hit` — one eighth of each table read eight times over, with
///   a warmed key set sixteen times that size (a fuller one loses keys
///   to set conflicts): the probe, then the same decode,
/// * `cache_miss` — key set of 1/16 of the rows under a cyclic sweep, so
///   every read probes, evicts a key and inserts one before the decode,
/// * `tier_hit` — no cache, DRAM budget as large as the store, warmed,
/// * `tier_cold` — no cache, budget of 1/16 of the rows under the same
///   sweep, promote on first touch: every read is a (virtually charged)
///   cold read and a CLOCK eviction,
/// * `tier_admit` — no cache, budget of 1/4 of the rows with
///   `admit_after: 2` under Zipf (s = 1) ids: the tier configuration
///   `perf_bench`'s tiered workloads run, and the one leg on which the
///   touch counts and the challenger-against-victim comparison do any
///   work. A mix of hits and cold reads, so it has no ceiling of its
///   own; it is there to be compared between commits.
fn bench_read_path(tables: usize, rows: usize, dim: usize) -> Vec<ReadPathRow> {
    let total = tables * rows;
    let data = ParamInit::new(0xBA6)
        .uniform(&[rows, dim], -0.05, 0.05)
        .as_slice()
        .to_vec();
    let tiered = |budget: usize| {
        Some(TierConfig {
            prefetch: false,
            ..TierConfig::new(budget)
        })
    };
    // (leg, cache rows, tier, expected share of reads hitting the cache,
    //  expected share of tier accesses that are DRAM hits — `None` for
    //  a mix of both)
    type Leg = (&'static str, usize, Option<TierConfig>, f64, Option<f64>);
    let legs: [Leg; 6] = [
        ("no_cache", 0, None, 0.0, None),
        ("cache_hit", 2 * total, None, 1.0, None),
        ("cache_miss", total / 16, None, 0.0, None),
        ("tier_hit", 0, tiered(total), 0.0, Some(1.0)),
        ("tier_cold", 0, tiered(total / 16), 0.0, Some(0.0)),
        (
            "tier_admit",
            0,
            tiered(total / 4).map(|tier| TierConfig {
                admit_after: 2,
                ..tier
            }),
            0.0,
            None,
        ),
    ];
    // One pass: every table's rows in a fixed scrambled order (a unit
    // stride would flatter the hardware prefetcher), bag by bag.
    let sweep: Vec<u32> = (0..rows as u64)
        .map(|i| ((i * 2_654_435_761) % rows as u64) as u32)
        .collect();
    let hot: Vec<u32> = sweep.iter().map(|row| row % (rows / 8) as u32).collect();
    // Zipf ranks, scattered over the table like the sweep.
    let mut rng = ParamInit::new(0x21BF);
    let zipf: Vec<u32> = (0..rows)
        .map(|_| sweep[CategoricalDist::Zipf { s: 1.0 }.sample(&mut rng, rows) as usize])
        .collect();
    let mut acc = vec![0.0f32; dim];
    let mut out = Vec::new();
    for (leg, cache_rows, tier, cache_hits, dram_hits) in legs {
        let order = match leg {
            "cache_hit" => &hot,
            "tier_admit" => &zipf,
            _ => &sweep,
        };
        let mut cell = |bagged: bool| {
            let store = Arc::new(EmbeddingStore::new(StoreConfig {
                encoding: RowEncoding::Int8,
                cache_capacity_rows: cache_rows,
                tier: tier.clone(),
                ..StoreConfig::default()
            }));
            let pins: Vec<_> = (0..tables)
                .map(|t| {
                    let handle = store.register(1, t as u32, rows, dim, &data);
                    store.pin(handle.expect("register"))
                })
                .collect();
            let pass = |acc: &mut [f32]| {
                for bag in order.chunks(BAG) {
                    for pin in &pins {
                        if bagged {
                            pin.sum_rows(bag.iter().copied(), acc);
                        } else {
                            bag.iter().for_each(|&row| pin.sum_row(row, acc));
                        }
                    }
                }
            };
            pass(&mut acc); // warm: fills the cache / the tier
            let base = store.stats();
            let mut ns: Vec<f64> = (0..READ_PATH_REPEATS)
                .map(|_| {
                    let start = Instant::now();
                    pass(&mut acc);
                    start.elapsed().as_secs_f64() * 1e9 / total as f64
                })
                .collect();
            let delta = store.stats().since(&base);
            assert_eq!(delta.lookups as usize, READ_PATH_REPEATS * total);
            if cache_rows > 0 {
                assert!(
                    (delta.hit_rate() - cache_hits).abs() <= 0.01,
                    "{leg}: {delta:?}"
                );
            }
            if tier.is_some() {
                let accesses = delta.tier_dram_hits + delta.tier_cold_demand_reads;
                assert_eq!(accesses as usize, READ_PATH_REPEATS * total);
                let share = delta.tier_dram_hits as f64 / accesses as f64;
                match dram_hits {
                    Some(expected) => assert_eq!(share, expected, "{leg}: {delta:?}"),
                    // The admitted head serves most of a Zipf stream,
                    // the tail keeps going cold.
                    None => assert!((0.5..0.95).contains(&share), "{leg}: {delta:?}"),
                }
            }
            ns.sort_by(f64::total_cmp);
            (ns[0], ns[READ_PATH_REPEATS / 2])
        };
        out.push(ReadPathRow {
            leg,
            one_row_ns: cell(false),
            bag_ns: cell(true),
        });
    }
    std::hint::black_box(&acc);
    out
}

#[allow(clippy::too_many_arguments)]
fn write_json(
    path: &str,
    smoke: bool,
    scale: ModelScale,
    sweep_rows_count: usize,
    identity: &[IdentityRow],
    identity_hit_rate: f64,
    sweep: &[SweepRow],
    decode: &[DecodeRow],
    errors: &[ErrorRow],
    tiered: &[TierRow],
    read_path: &[ReadPathRow],
    gate_hit_rate: Option<f64>,
    gate_compression: f64,
) {
    let mut s = String::from("{\n");
    s.push_str(&format!(
        "  \"mode\": \"{}\",\n  \"model_scale\": \"{scale:?}\",\n  \"sweep_table_rows\": {sweep_rows_count},\n  \"kernel_backend\": \"{}\",\n",
        if smoke { "smoke" } else { "full" },
        simd::backend_label()
    ));
    s.push_str("  \"f32_bit_identity\": [\n");
    for (i, r) in identity.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"threads\": {}, \"batch\": {}, \"identical\": {}}}{}\n",
            r.threads,
            r.batch,
            r.identical,
            if i + 1 < identity.len() { "," } else { "" }
        ));
    }
    s.push_str(&format!(
        "  ],\n  \"identity_run_hit_rate\": {},\n  \"cache_sweep\": [\n",
        json_f64(identity_hit_rate)
    ));
    for (i, r) in sweep.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"encoding\": \"{}\", \"cache_frac\": {}, \"zipf_s\": {}, \"hit_rate\": {}, \"compression\": {}, \"resident_bytes\": {}, \"f32_bytes\": {}, \"lookups_per_sec\": {}}}{}\n",
            r.encoding.name(),
            json_f64(r.cache_frac),
            json_f64(r.zipf_s),
            json_f64(r.hit_rate),
            json_f64(r.compression),
            r.resident_bytes,
            r.f32_bytes,
            json_f64(r.lookups_per_sec),
            if i + 1 < sweep.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"decode_bandwidth\": [\n");
    for (i, r) in decode.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"encoding\": \"{}\", \"store_gb_per_s\": {}, \"scalar_oracle_gb_per_s\": {}, \"speedup\": {}, \"decode_vector\": {}, \"decode_scalar\": {}}}{}\n",
            r.encoding.name(),
            json_f64(r.store_gb_s),
            json_f64(r.oracle_gb_s),
            json_f64(r.speedup),
            r.decode_vector,
            r.decode_scalar,
            if i + 1 < decode.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"dequant_error\": [\n");
    for (i, r) in errors.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"encoding\": \"{}\", \"max_abs_err\": {}, \"max_bound\": {}}}{}\n",
            r.encoding.name(),
            json_f64(f64::from(r.max_abs_err)),
            json_f64(f64::from(r.max_bound)),
            if i + 1 < errors.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"tiered\": [\n");
    for (i, r) in tiered.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"leg\": \"{}\", \"dram_hit_rate\": {}, \"cold_demand_reads\": {}, \"prefetch_issued\": {}, \"prefetch_conversion\": {}, \"combined_lookup_cut\": {}, \"mean_lookup_ns\": {}, \"slowdown_vs_dram\": {}}}{}\n",
            r.leg,
            json_f64(r.dram_hit_rate),
            r.cold_demand_reads,
            r.prefetch_issued,
            json_f64(r.prefetch_conversion),
            json_f64(r.combined_cut),
            json_f64(r.mean_lookup_ns),
            json_f64(r.slowdown),
            if i + 1 < tiered.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"read_path_ns_per_row\": [\n");
    for (i, r) in read_path.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"leg\": \"{}\", \"one_row_calls\": {}, \"one_row_calls_median\": {}, \"bag_of_120\": {}, \"bag_of_120_median\": {}, \"bag_no_slower\": {}}}{}\n",
            r.leg,
            json_f64(r.one_row_ns.0),
            json_f64(r.one_row_ns.1),
            json_f64(r.bag_ns.0),
            json_f64(r.bag_ns.1),
            r.bag_no_slower()
                .map_or("null".to_string(), |ok| ok.to_string()),
            if i + 1 < read_path.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"checks\": {\n");
    s.push_str("    \"f32_bit_identical\": true,\n    \"dequant_within_bounds\": true,\n");
    s.push_str(&format!(
        "    \"hot_cache_hit_rate_at_10pct_s1\": {},\n    \"hit_rate_gate\": {HIT_RATE_GATE},\n",
        gate_hit_rate.map_or("null".to_string(), json_f64)
    ));
    s.push_str(&format!(
        "    \"int8_compression\": {},\n    \"compression_gate\": {COMPRESSION_GATE},\n",
        json_f64(gate_compression)
    ));
    let vector_gates = simd::active_backend() == KernelBackend::Avx2Fma;
    s.push_str(&format!(
        "    \"int8_decode_speedup\": {},\n    \"decode_speedup_gate\": {},\n",
        decode
            .iter()
            .find(|r| r.encoding == RowEncoding::Int8)
            .map_or("null".to_string(), |r| json_f64(r.speedup)),
        if vector_gates {
            DECODE_SPEEDUP_GATE.to_string()
        } else {
            "null".to_string()
        }
    ));
    let path_leg = |leg: &str| read_path.iter().find(|r| r.leg == leg);
    for (leg, ceiling) in RESIDENCY_CEILINGS {
        let (ratio, holds) = match (path_leg(leg), path_leg("no_cache")) {
            (Some(hot), Some(base)) => (
                json_f64(hot.bag_ns.0 / base.bag_ns.0),
                hot.bag_within(ceiling, base),
            ),
            _ => ("null".to_string(), None),
        };
        s.push_str(&format!(
            "    \"{leg}_over_no_cache\": {ratio},\n    \"{leg}_ceiling\": {ceiling},\n    \"{leg}_within_ceiling\": {},\n",
            holds.map_or("null".to_string(), |ok| ok.to_string())
        ));
    }
    let tier_leg = |leg: &str| tiered.iter().find(|r| r.leg == leg);
    s.push_str(&format!(
        "    \"tier_dram_hit_rate\": {},\n    \"tier_hit_rate_gate\": {TIER_HIT_RATE_GATE},\n",
        tier_leg("tiered").map_or("null".to_string(), |r| json_f64(r.dram_hit_rate))
    ));
    s.push_str(&format!(
        "    \"prefetch_conversion\": {},\n    \"prefetch_conversion_gate\": {PREFETCH_CONVERSION_GATE},\n",
        tier_leg("tiered_prefetch").map_or("null".to_string(), |r| json_f64(r.prefetch_conversion))
    ));
    s.push_str(&format!(
        "    \"combined_lookup_cut\": {},\n    \"combine_cut_gate\": {COMBINE_CUT_GATE},\n",
        tier_leg("tiered_combined").map_or("null".to_string(), |r| json_f64(r.combined_cut))
    ));
    s.push_str(&format!(
        "    \"tiered_slowdown\": {},\n    \"tiered_slowdown_floor\": {TIERED_SLOWDOWN_FLOOR},\n",
        tier_leg("tiered").map_or("null".to_string(), |r| json_f64(r.slowdown))
    ));
    s.push_str(&format!(
        "    \"prefetch_slowdown\": {},\n    \"prefetch_slowdown_ceiling\": {PREFETCH_SLOWDOWN_CEILING}\n",
        tier_leg("tiered_prefetch").map_or("null".to_string(), |r| json_f64(r.slowdown))
    ));
    s.push_str("  }\n}\n");
    std::fs::write(path, s).expect("write BENCH_store.json");
}

fn main() {
    let args = parse_args();
    let scale = if args.smoke {
        ModelScale::Tiny
    } else {
        ModelScale::Paper
    };
    println!(
        "store_bench: {} mode, {scale:?} model scale",
        if args.smoke { "smoke" } else { "full" }
    );

    let identity_batches: &[usize] = if args.smoke { &[1, 16] } else { &[1, 16, 64] };
    println!("Dense vs store-backed RM1 (f32), Zipf s=1.0 traffic, pools 1/2/4, cold+warm cache:");
    let (identity, identity_hit_rate) = check_bit_identity(scale, identity_batches);
    println!(
        "  bit-identical in all {} runs (hot-row hit rate over the store-backed runs: {:.0}%)",
        identity.len(),
        identity_hit_rate * 100.0
    );

    let (rows, dim) = if args.smoke {
        (4_096, 32)
    } else {
        (50_000, 32)
    };
    let (warm, measure) = match (args.smoke, args.quick) {
        (true, _) => (5_000, 20_000),
        (false, true) => (30_000, 50_000),
        (false, false) => (150_000, 200_000),
    };
    let encodings = [RowEncoding::F32, RowEncoding::F16, RowEncoding::Int8];
    let fracs: &[f64] = if args.smoke {
        &[0.10]
    } else {
        &[0.01, 0.10, 0.25]
    };
    let exps: &[f64] = if args.smoke {
        &[0.6, 1.0]
    } else {
        &[0.6, 1.0, 1.4]
    };
    let data = ParamInit::new(0x5EED)
        .uniform(&[rows, dim], -0.05, 0.05)
        .as_slice()
        .to_vec();
    println!("Hot-row cache sweep ({rows} rows x dim {dim}, {measure} measured lookups/cell):");
    let mut sweep = Vec::new();
    for &encoding in &encodings {
        for &frac in fracs {
            for &s in exps {
                let row = sweep_cell(rows, dim, &data, encoding, frac, s, warm, measure);
                println!(
                    "  {:<4} cache {:>4.0}% zipf {s:.1}: hit rate {:>5.1}%, {:.2}x compression, {:.1}M lookups/s",
                    encoding.name(),
                    frac * 100.0,
                    row.hit_rate * 100.0,
                    row.compression,
                    row.lookups_per_sec / 1e6
                );
                sweep.push(row);
            }
        }
    }

    let decode_lookups = if args.smoke || args.quick {
        50_000
    } else {
        200_000
    };
    println!(
        "Cold-decode bandwidth (cache off, {decode_lookups} lookups, store dispatched path vs scalar oracle, backend {}):",
        simd::backend_label()
    );
    let decode = bench_decode_bandwidth(rows, dim, &data, decode_lookups);
    for r in &decode {
        println!(
            "  {:<4} store {:.2} GB/s vs oracle {:.2} GB/s ({:.2}x); decodes: {} vector / {} scalar",
            r.encoding.name(),
            r.store_gb_s,
            r.oracle_gb_s,
            r.speedup,
            r.decode_vector,
            r.decode_scalar
        );
    }

    println!("Dequantization error vs documented bounds (adversarial rows included):");
    let errors = check_dequant_error(dim);
    for r in &errors {
        println!(
            "  {:<4}: max |err| {:.3e} <= max bound {:.3e}",
            r.encoding.name(),
            r.max_abs_err,
            r.max_bound
        );
    }

    println!(
        "Tiered DRAM/SSD legs (Zipf s=1.0, DRAM budget {} rows = 25%, no hot-row cache, virtual cold-read charging):",
        rows / 4
    );
    let tiered = bench_tiered(rows, dim, &data, warm, measure);
    for r in &tiered {
        println!(
            "  {:<16} DRAM hit {:>5.1}%, cold demand {:>6}, prefetch issued {:>6} (conv {:>5.1}%), combine cut {:>5.1}%, mean lookup {:>8.0} ns ({:.2}x DRAM-only)",
            r.leg,
            r.dram_hit_rate * 100.0,
            r.cold_demand_reads,
            r.prefetch_issued,
            r.prefetch_conversion * 100.0,
            r.combined_cut * 100.0,
            r.mean_lookup_ns,
            r.slowdown
        );
    }

    let (path_tables, path_rows, path_dim) = if args.smoke {
        (4, 1024, 64)
    } else {
        (32, 4096, 64)
    };
    println!(
        "Read-path cost ({path_tables} int8 tables x {path_rows} rows x dim {path_dim}, fastest of {READ_PATH_REPEATS} passes, ns/row):"
    );
    let read_path = bench_read_path(path_tables, path_rows, path_dim);
    for r in &read_path {
        println!(
            "  {:<10} one-row calls {:>6.1} (median {:>6.1})   bag of {BAG} {:>6.1} (median {:>6.1})   bag/one-row {:.2}",
            r.leg,
            r.one_row_ns.0,
            r.one_row_ns.1,
            r.bag_ns.0,
            r.bag_ns.1,
            r.bag_ns.0 / r.one_row_ns.0
        );
    }

    let gate_hit_rate = sweep
        .iter()
        .find(|r| {
            r.encoding == RowEncoding::Int8 && (r.cache_frac - 0.10).abs() < 1e-9 && r.zipf_s == 1.0
        })
        .map(|r| r.hit_rate);
    let gate_compression = sweep
        .iter()
        .find(|r| r.encoding == RowEncoding::Int8)
        .map(|r| r.compression)
        .expect("int8 sweep rows present");

    write_json(
        "BENCH_store.json",
        args.smoke,
        scale,
        rows,
        &identity,
        identity_hit_rate,
        &sweep,
        &decode,
        &errors,
        &tiered,
        &read_path,
        gate_hit_rate,
        gate_compression,
    );
    println!("Wrote BENCH_store.json");

    if simd::active_backend() == KernelBackend::Avx2Fma {
        let int8 = decode
            .iter()
            .find(|r| r.encoding == RowEncoding::Int8)
            .expect("int8 decode row present");
        assert!(
            int8.speedup >= DECODE_SPEEDUP_GATE,
            "int8 store cold-decode speedup {:.2}x over the scalar oracle below the {DECODE_SPEEDUP_GATE}x gate",
            int8.speedup
        );
        println!(
            "Gate: int8 store cold-decode {:.2}x >= {DECODE_SPEEDUP_GATE}x over the scalar oracle — ok",
            int8.speedup
        );
    } else {
        println!(
            "Note: kernel backend is {} (no AVX2+FMA vector path active); decode speedup gate skipped",
            simd::backend_label()
        );
    }

    assert!(
        gate_compression >= COMPRESSION_GATE,
        "int8 resident-bytes compression {gate_compression:.2}x below the {COMPRESSION_GATE}x gate"
    );
    println!("Gate: int8 compression {gate_compression:.2}x >= {COMPRESSION_GATE}x — ok");
    let hit = gate_hit_rate.expect("10%-cache s=1.0 cell present");
    if args.smoke {
        assert!(
            hit > 0.0,
            "hot-row cache saw no hits under Zipf traffic (hit rate {hit:.3})"
        );
        println!(
            "Gate: nonzero hot-cache hit rate under Zipf traffic ({:.1}%) — ok",
            hit * 100.0
        );
    } else {
        assert!(
            hit >= HIT_RATE_GATE,
            "hit rate {hit:.3} at 10% cache, Zipf s=1.0 below the {HIT_RATE_GATE} gate"
        );
        println!(
            "Gate: hit rate {:.1}% >= {:.0}% at 10% cache, Zipf s=1.0 — ok",
            hit * 100.0,
            HIT_RATE_GATE * 100.0
        );
    }
    // Tiered gates: the cold-read model charges virtual nanoseconds, so
    // these are deterministic and hold in smoke mode too.
    let tier_leg = |leg: &str| {
        tiered
            .iter()
            .find(|r| r.leg == leg)
            .unwrap_or_else(|| panic!("tiered leg '{leg}' present"))
    };
    let t = tier_leg("tiered");
    assert!(
        t.dram_hit_rate >= TIER_HIT_RATE_GATE,
        "combined DRAM hit rate {:.3} at 25% budget, Zipf s=1.0 below the {TIER_HIT_RATE_GATE} gate",
        t.dram_hit_rate
    );
    assert!(
        t.slowdown >= TIERED_SLOWDOWN_FLOOR,
        "tiering alone only {:.2}x slower than DRAM-only — cold tier not biting (floor {TIERED_SLOWDOWN_FLOOR}x)",
        t.slowdown
    );
    let p = tier_leg("tiered_prefetch");
    assert!(
        p.prefetch_conversion >= PREFETCH_CONVERSION_GATE,
        "prefetch converted only {:.3} of would-be cold demand misses (gate {PREFETCH_CONVERSION_GATE})",
        p.prefetch_conversion
    );
    assert!(
        p.slowdown <= PREFETCH_SLOWDOWN_CEILING,
        "mean lookup with prefetch {:.2}x DRAM-only exceeds the {PREFETCH_SLOWDOWN_CEILING}x ceiling",
        p.slowdown
    );
    let c = tier_leg("tiered_combined");
    assert!(
        c.combined_cut >= COMBINE_CUT_GATE,
        "table combining cut lookups by only {:.3} on correlated pair traffic (gate {COMBINE_CUT_GATE})",
        c.combined_cut
    );
    println!(
        "Gate: tier DRAM hit {:.1}% >= {:.0}%, tiered-alone {:.1}x >= {TIERED_SLOWDOWN_FLOOR}x, prefetch conv {:.1}% >= {:.0}% at {:.2}x <= {PREFETCH_SLOWDOWN_CEILING}x, combine cut {:.1}% >= {:.0}% — ok",
        t.dram_hit_rate * 100.0,
        TIER_HIT_RATE_GATE * 100.0,
        t.slowdown,
        p.prefetch_conversion * 100.0,
        PREFETCH_CONVERSION_GATE * 100.0,
        p.slowdown,
        c.combined_cut * 100.0,
        COMBINE_CUT_GATE * 100.0
    );
    // Read-path gate: a bag may not cost more per row than one-row calls.
    for r in &read_path {
        match r.bag_no_slower() {
            Some(true) => {}
            Some(false) => panic!(
                "read path, {}: a bag of {BAG} costs {:.1} ns/row, one-row calls {:.1} (median {:.1})",
                r.leg, r.bag_ns.0, r.one_row_ns.0, r.one_row_ns.1
            ),
            None => println!(
                "Note: read path, {}: bag {:.1} ns/row is between the one-row calls' fastest {:.1} and median {:.1} — inside their run-to-run spread; bag <= one-row gate skipped for this leg",
                r.leg, r.bag_ns.0, r.one_row_ns.0, r.one_row_ns.1
            ),
        }
    }
    let path_leg = |leg: &str| {
        read_path
            .iter()
            .find(|r| r.leg == leg)
            .unwrap_or_else(|| panic!("read-path leg '{leg}' present"))
    };
    println!("Gate: bag of {BAG} <= one-row calls on every resolved read-path leg — ok");
    // Residency gate: the key set and the tier sit in front of every
    // read, so a probe, an insert or a tier access may cost only so
    // much on top of the decode that follows either way.
    let base = path_leg("no_cache");
    for (leg, ceiling) in RESIDENCY_CEILINGS {
        let hot = path_leg(leg);
        let ratio = hot.bag_ns.0 / base.bag_ns.0;
        match hot.bag_within(ceiling, base) {
            Some(true) => println!(
                "Gate: {leg} {:.1} ns/row = {ratio:.2}x no_cache {:.1} <= {ceiling}x — ok",
                hot.bag_ns.0, base.bag_ns.0
            ),
            Some(false) => panic!(
                "read path, {leg}: {:.1} ns/row is {ratio:.2}x no_cache ({:.1}, median {:.1}), over the {ceiling}x ceiling",
                hot.bag_ns.0, base.bag_ns.0, base.bag_ns.1
            ),
            None => println!(
                "Gate: {leg} <= {ceiling}x no_cache — skipped: {:.1} ns/row is over {ceiling}x no_cache's fastest {:.1} but not its median {:.1}, inside that leg's run-to-run spread",
                hot.bag_ns.0, base.bag_ns.0, base.bag_ns.1
            ),
        }
    }
    println!("All checks passed.");
}
