//! Benchmarks and acceptance gates for the `drec-store` embedding
//! parameter store: direct-tensor vs store-backed bit-identity across
//! thread counts, hot-row cache hit rates across encoding × cache
//! capacity × Zipf skew, and quantization error against the documented
//! per-encoding bounds. Reports as `BENCH_store.json` (shape in the
//! `drec_bench` crate docs).
//!
//! Flags:
//!
//! * `--smoke` — tiny shapes, correctness gates only (CI mode),
//! * `--quick` — fewer lookups per sweep cell.
//!
//! Every decoded row must stay within its encoding's documented error
//! bound, and the vector/scalar decode counters must account for every
//! cold decode on the active backend (a violation panics).
//!
//! Gates (both modes unless noted):
//!
//! * `f32_bit_identical_to_dense` — store-backed f32 RM1 outputs are
//!   bit-identical to the plain dense build at every pool size and batch,
//!   cold and warm cache,
//! * `int8_compression` — int8 cuts resident bytes ≥ 3× vs f32 at dim 32,
//! * `hot_cache_hit_rate` — hot-row cache hit rate ≥ 60% at Zipf s = 1.0
//!   with the cache sized to 10% of rows (smoke: at least one hit),
//! * `int8_decode_speedup` — the store's cold-decode path
//!   (runtime-dispatched SIMD kernels, cache off) beats a raw
//!   scalar-oracle loop over the same encoded bytes by ≥1.3× for int8
//!   (skipped off AVX2+FMA),
//! * `tier_dram_hit_rate`, `tiered_slowdown`, `prefetch_conversion`,
//!   `prefetch_slowdown` — tiered DRAM/SSD legs under Zipf s = 1.0 with
//!   the DRAM budget at 25% of rows (virtual cold-read charging, so
//!   deterministic in both modes): combined DRAM hit rate ≥ 80%, tiering
//!   alone ≥ 5× the DRAM-only mean lookup while stream prefetch pulls it
//!   back ≤ 2× and converts ≥ 50% of would-be cold demand misses,
//! * `<leg>_bag_over_one_row`, `<leg>_over_no_cache` — the read-path cost
//!   table, ns/row for {no cache, cache hit, cache miss, tier hit, tier
//!   cold, tier with frequency admission} read with one-row calls and as
//!   bags of 120: the bag costs no more than the one-row calls on every
//!   leg (a leg whose difference is inside its own run-to-run spread is
//!   skipped instead), and residency bookkeeping has a per-row budget as
//!   a multiple of the `no_cache` leg — the hot-row key set 1.3× on a hit
//!   and 3× on a miss, the tier 1.6× on a DRAM hit and 2.6× on a cold
//!   read (same skip rule).

use drec_bench::report::Limit::{AtLeast, AtMost};
use drec_bench::report::{Gate, Json, Report};
use drec_bench::{output_bits, row};
use std::sync::Arc;
use std::time::Instant;

use drec_models::{ModelId, ModelScale};
use drec_par::ParPool;
use drec_store::{quantize_row, EmbeddingStore, RowEncoding, StoreConfig, TierConfig};
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
/// Tiering without prefetch must be at least this many times slower than
/// DRAM-only per mean lookup — i.e. the cold tier genuinely hurts.
const TIERED_SLOWDOWN_FLOOR: f64 = 5.0;
/// With stream prefetch the mean lookup must stay within this factor of
/// DRAM-only — i.e. prefetch genuinely hides the cold-read latency.
const PREFETCH_SLOWDOWN_CEILING: f64 = 2.0;
/// Nominal DRAM lookup cost the tiered latency model charges against
/// (the virtual-time baseline every tiered mean adds demand waits to).
const NOMINAL_DRAM_NS: f64 = 100.0;

/// Runs RM1 with plain dense tables and with a store-backed f32 build on
/// the same Zipf input stream, across pool sizes, twice per
/// configuration so the second pass hits a warm hot-row cache.
fn check_bit_identity(scale: ModelScale, batches: &[usize]) -> (Vec<Json>, f64) {
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
                let identical = output_bits(&reference) == output_bits(&got);
                rows.push(row! {"threads": threads, "batch": batch, "identical": identical});
            }
        }
    }
    (rows, store.stats().hit_rate())
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
) -> Json {
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
    println!(
        "  {:<4} cache {:>4.0}% zipf {zipf_s:.1}: hit rate {:>5.1}%, {:.2}x compression, {:.1}M lookups/s",
        encoding.name(),
        cache_frac * 100.0,
        delta.hit_rate() * 100.0,
        totals.compression(),
        measure as f64 / elapsed / 1e6
    );
    row! {
        "encoding": encoding.name(),
        "cache_frac": cache_frac,
        "zipf_s": zipf_s,
        "hit_rate": delta.hit_rate(),
        "compression": totals.compression(),
        "resident_bytes": totals.resident_bytes,
        "f32_bytes": totals.f32_bytes,
        "lookups_per_sec": measure as f64 / elapsed,
    }
}

/// Cold-decode bandwidth: the store's dispatched pooled-sum path (cache
/// disabled, so every lookup decodes from a shard) against a raw
/// scalar-oracle loop over the same encoded bytes — the "what would this
/// cost without the SIMD kernels" baseline. Also checks the store's
/// vector/scalar decode counters account for exactly the measured
/// lookups on the side matching the active backend.
fn bench_decode_bandwidth(rows: usize, dim: usize, data: &[f32], lookups: usize) -> Vec<Json> {
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
            let (store_gb_s, oracle_gb_s) = (bytes / store_seconds / 1e9, bytes / oracle_seconds / 1e9);
            println!(
                "  {:<4} store {store_gb_s:.2} GB/s vs oracle {oracle_gb_s:.2} GB/s ({:.2}x); decodes: {} vector / {} scalar",
                encoding.name(),
                oracle_seconds / store_seconds,
                delta.decode_vector,
                delta.decode_scalar
            );
            row! {
                "encoding": encoding.name(),
                "store_gb_per_s": store_gb_s,
                "scalar_oracle_gb_per_s": oracle_gb_s,
                "speedup": oracle_seconds / store_seconds,
                "decode_vector": delta.decode_vector,
                "decode_scalar": delta.decode_scalar,
            }
        })
        .collect()
}

/// Decodes every row of a quantized store back to f32 and checks the
/// worst absolute error against the encoding's documented bound. The
/// data mixes uniform rows with adversarial ones: a constant row (int8
/// must be exact) and a wide-range row (stresses the scale).
fn check_dequant_error(dim: usize) -> Vec<Json> {
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
            println!(
                "  {:<4}: max |err| {max_abs_err:.3e} <= max bound {max_bound:.3e}",
                encoding.name()
            );
            row! {"encoding": encoding.name(), "max_abs_err": max_abs_err, "max_bound": max_bound}
        })
        .collect()
}

/// Tiered DRAM/SSD legs over identical Zipf s = 1.0 traffic with the
/// DRAM budget at 25% of rows (plus the usual 10% hot-row cache):
///
/// * `dram_only` — no tier, the latency baseline (`NOMINAL_DRAM_NS`),
/// * `tiered` — demand misses pay the simulated cold read,
/// * `tiered_prefetch` — a 64-query stream window is filled before its
///   demand lookups, modelling the serve-side prefetcher with perfect
///   lookahead.
///
/// The cold-read model charges *virtual* nanoseconds
/// ([`drec_store::Pacing::Charge`]), so every number here is
/// deterministic: mean lookup latency is `NOMINAL_DRAM_NS` plus the
/// charged demand wait per lookup. Prefetch waits land on the separate
/// overlapped counter — that asymmetry *is* the benefit being measured.
fn bench_tiered(rows: usize, dim: usize, data: &[f32], warm: usize, measure: usize) -> Vec<Json> {
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
    let row_for = |leg: &'static str, delta: &drec_store::StoreStats, mean_ns: f64| {
        println!(
            "  {leg:<16} DRAM hit {:>5.1}%, cold demand {:>6}, prefetch issued {:>6} (conv {:>5.1}%), mean lookup {mean_ns:>8.0} ns ({:.2}x DRAM-only)",
            delta.combined_dram_hit_rate() * 100.0,
            delta.tier_cold_demand_reads,
            delta.prefetch_issued,
            delta.prefetch_conversion() * 100.0,
            mean_ns / NOMINAL_DRAM_NS
        );
        row! {
            "leg": leg,
            "dram_hit_rate": delta.combined_dram_hit_rate(),
            "cold_demand_reads": delta.tier_cold_demand_reads,
            "prefetch_issued": delta.prefetch_issued,
            "prefetch_conversion": delta.prefetch_conversion(),
            "mean_lookup_ns": mean_ns,
            "slowdown_vs_dram": mean_ns / NOMINAL_DRAM_NS,
        }
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

    // Leg 3: tiered + stream prefetch — a 64-query window is filled
    // ahead of its demand pass, the way the serve runtime's prefetch
    // thread runs ahead of batch drain.
    {
        let mut tier = TierConfig::new(budget);
        tier.prefetch = true;
        tier.admit_after = 2;
        let store = make_store(Some(tier));
        let handle = store.register(1, 0, rows, dim, data).expect("register");
        let pinned = store.pin(handle);
        let run = |stream: &[u32], acc: &mut [f32]| {
            for window in stream.chunks(64) {
                pinned.prefetch_rows(window);
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
    fn json(&self) -> Json {
        row! {
            "leg": self.leg,
            "one_row_calls": self.one_row_ns.0,
            "one_row_calls_median": self.one_row_ns.1,
            "bag_of_120": self.bag_ns.0,
            "bag_of_120_median": self.bag_ns.1,
            "bag_no_slower": self.bag_no_slower(),
        }
    }

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

fn main() {
    let mut report = Report::start("store", &["--smoke", "--quick"]);
    let (smoke, quick) = (report.flags.smoke, report.flags.quick);
    let scale = report.flags.scale();

    let identity_batches: &[usize] = if smoke { &[1, 16] } else { &[1, 16, 64] };
    println!("Dense vs store-backed RM1 (f32), Zipf s=1.0 traffic, pools 1/2/4, cold+warm cache:");
    let (identity, identity_hit_rate) = check_bit_identity(scale, identity_batches);
    println!(
        "  {} runs (hot-row hit rate over the store-backed runs: {:.0}%)",
        identity.len(),
        identity_hit_rate * 100.0
    );

    let (rows, dim) = if smoke { (4_096, 32) } else { (50_000, 32) };
    let (warm, measure) = match (smoke, quick) {
        (true, _) => (5_000, 20_000),
        (false, true) => (30_000, 50_000),
        (false, false) => (150_000, 200_000),
    };
    let encodings = [RowEncoding::F32, RowEncoding::F16, RowEncoding::Int8];
    let fracs: &[f64] = if smoke { &[0.10] } else { &[0.01, 0.10, 0.25] };
    let exps: &[f64] = if smoke { &[0.6, 1.0] } else { &[0.6, 1.0, 1.4] };
    let data = ParamInit::new(0x5EED)
        .uniform(&[rows, dim], -0.05, 0.05)
        .as_slice()
        .to_vec();
    println!("Hot-row cache sweep ({rows} rows x dim {dim}, {measure} measured lookups/cell):");
    let mut sweep = Vec::new();
    for &encoding in &encodings {
        for &frac in fracs {
            for &s in exps {
                sweep.push(sweep_cell(
                    rows, dim, &data, encoding, frac, s, warm, measure,
                ));
            }
        }
    }

    let decode_lookups = if smoke || quick { 50_000 } else { 200_000 };
    println!(
        "Cold-decode bandwidth (cache off, {decode_lookups} lookups, store dispatched path vs scalar oracle, backend {}):",
        simd::backend_label()
    );
    let decode = bench_decode_bandwidth(rows, dim, &data, decode_lookups);

    println!("Dequantization error vs documented bounds (adversarial rows included):");
    let errors = check_dequant_error(dim);

    println!(
        "Tiered DRAM/SSD legs (Zipf s=1.0, DRAM budget {} rows = 25%, no hot-row cache, virtual cold-read charging):",
        rows / 4
    );
    let tiered = bench_tiered(rows, dim, &data, warm, measure);

    let (path_tables, path_rows, path_dim) = if smoke { (4, 1024, 64) } else { (32, 4096, 64) };
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

    report.gate(Gate::all(
        "f32_bit_identical_to_dense",
        &identity,
        |r| r.flag("identical"),
        |r| r.render(false),
    ));
    let int8 = |r: &&Json| r.text("encoding") == "int8";
    let compression = sweep.iter().find(int8).expect("int8 sweep rows present");
    report.gate(
        Gate::new(
            "int8_compression",
            compression.num("compression"),
            AtLeast(COMPRESSION_GATE),
        )
        .at(format!("dim {dim}")),
    );
    let hit = sweep
        .iter()
        .filter(int8)
        .find(|r| (r.num("cache_frac") - 0.10).abs() < 1e-9 && r.num("zipf_s") == 1.0)
        .expect("10%-cache s=1.0 cell present");
    // Smoke only asks that the cache hits at all: one hit in the cell.
    let hit_floor = if smoke {
        1.0 / measure as f64
    } else {
        HIT_RATE_GATE
    };
    report.gate(
        Gate::new(
            "hot_cache_hit_rate",
            hit.num("hit_rate"),
            AtLeast(hit_floor),
        )
        .at("int8, 10% cache, Zipf s=1.0"),
    );
    let int8_decode = decode.iter().find(int8).expect("int8 decode row present");
    report.gate(
        Gate::new(
            "int8_decode_speedup",
            int8_decode.num("speedup"),
            AtLeast(DECODE_SPEEDUP_GATE),
        )
        .at("store cold decode over the scalar oracle")
        .skip_if((simd::active_backend() != KernelBackend::Avx2Fma).then(|| {
            format!(
                "kernel backend is {}: no vector path to gate",
                simd::backend_label()
            )
        })),
    );
    // Tiered gates: the cold-read model charges virtual nanoseconds, so
    // these are deterministic and hold in smoke mode too.
    let tier = |leg: &str, key: &str| {
        let row = tiered.iter().find(|r| r.text("leg") == leg);
        row.unwrap_or_else(|| panic!("tiered leg '{leg}' present"))
            .num(key)
    };
    report.gate(
        Gate::new(
            "tier_dram_hit_rate",
            tier("tiered", "dram_hit_rate"),
            AtLeast(TIER_HIT_RATE_GATE),
        )
        .at("25% DRAM budget, Zipf s=1.0"),
    );
    report.gate(
        Gate::new(
            "tiered_slowdown",
            tier("tiered", "slowdown_vs_dram"),
            AtLeast(TIERED_SLOWDOWN_FLOOR),
        )
        .at("tiering alone over DRAM-only: the cold tier must bite"),
    );
    let conversion = tier("tiered_prefetch", "prefetch_conversion");
    report.gate(
        Gate::new(
            "prefetch_conversion",
            conversion,
            AtLeast(PREFETCH_CONVERSION_GATE),
        )
        .at("would-be cold demand misses converted"),
    );
    let prefetch_slowdown = tier("tiered_prefetch", "slowdown_vs_dram");
    report.gate(
        Gate::new(
            "prefetch_slowdown",
            prefetch_slowdown,
            AtMost(PREFETCH_SLOWDOWN_CEILING),
        )
        .at("mean lookup with prefetch over DRAM-only"),
    );
    // Read-path gates: a bag may not cost more per row than one-row calls.
    let in_spread = |resolved: Option<bool>, whose: &str| {
        resolved.is_none().then(|| {
            format!("over the limit at {whose} fastest repeat but not at its median, inside its run-to-run spread")
        })
    };
    for r in &read_path {
        report.gate(
            Gate::new(
                format!("{}_bag_over_one_row", r.leg),
                r.bag_ns.0 / r.one_row_ns.0,
                AtMost(1.0),
            )
            .at(format!(
                "bag of {BAG} {:.1} ns/row, one-row calls {:.1} (median {:.1})",
                r.bag_ns.0, r.one_row_ns.0, r.one_row_ns.1
            ))
            .skip_if(in_spread(r.bag_no_slower(), "the one-row calls'")),
        );
    }
    // Residency gates: the key set and the tier sit in front of every
    // read, so a probe, an insert or a tier access may cost only so
    // much on top of the decode that follows either way.
    let path_leg = |leg: &str| {
        let row = read_path.iter().find(|r| r.leg == leg);
        row.unwrap_or_else(|| panic!("read-path leg '{leg}' present"))
    };
    let base = path_leg("no_cache");
    for (leg, ceiling) in RESIDENCY_CEILINGS {
        let hot = path_leg(leg);
        report.gate(
            Gate::new(
                format!("{leg}_over_no_cache"),
                hot.bag_ns.0 / base.bag_ns.0,
                AtMost(ceiling),
            )
            .at(format!(
                "{:.1} ns/row vs no_cache {:.1} (median {:.1})",
                hot.bag_ns.0, base.bag_ns.0, base.bag_ns.1
            ))
            .skip_if(in_spread(hot.bag_within(ceiling, base), "no_cache's")),
        );
    }

    report.section("model_scale", format!("{scale:?}"));
    report.section("sweep_table_rows", rows);
    report.section("f32_bit_identity", identity);
    report.section("identity_run_hit_rate", identity_hit_rate);
    report.section("cache_sweep", sweep);
    report.section("decode_bandwidth", decode);
    report.section("dequant_error", errors);
    report.section("tiered", tiered);
    report.rows("read_path_ns_per_row", &read_path, ReadPathRow::json);
    report.finish();
}
