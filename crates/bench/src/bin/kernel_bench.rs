//! Old-vs-new kernel benchmarks for the intra-op parallelism stack:
//! register-blocked GEMM against the seed scalar kernels, the SIMD
//! quantized SparseLengthsSum and FMA GEMM kernels against their scalar
//! oracles, embedding pooling, and end-to-end RM2/DIEN forward passes
//! across batch sizes, plus the determinism contracts (parallel output
//! bit-identical to sequential; vector row kernels bit-identical to
//! scalar; FMA GEMM within its documented ULP bound — a violation of any
//! of these panics). Reports as `BENCH_kernels.json` (shape in the
//! `drec_bench` crate docs).
//!
//! Flags:
//!
//! * `--smoke` — tiny shapes, correctness assertions plus the SIMD
//!   speedup gates (CI mode),
//! * `--tiny` — tiny model scale for the end-to-end section,
//! * `--quick` — fewer timing repeats.
//!
//! SIMD gates (smoke *and* full mode; `skipped: <reason>` off AVX2+FMA,
//! e.g. on the forced-scalar leg): `int8_sls_vector_speedup`, the int8
//! pooled-sum vector path ≥2× scalar at dim 64; `gemm_fma_speedup`, FMA
//! GEMM ≥1.5× the scalar blocked kernel; and
//! `quantize_i8_dispatched_3x_scalar`, the int8 row encoder
//! (`quantize_i8`, ns per element at dims 32 and 64) ≥3× its scalar
//! oracle. The legacy full-mode gates stay (skipped in smoke mode):
//! `gemm_512_blocked_speedup`, the blocked transposed GEMM must beat the
//! seed scalar kernel by ≥3× at 512³ on one thread, and
//! `gemm_4_thread_speedup`, `DREC_THREADS=4` must add further speedup when
//! the host actually has four cores (skipped below that).
//!
//! Skinny sweep (smoke and full mode, both kernel backends): the two FC
//! layers that dominate serving — RM3's 1700→1024 and RM1's 352→256 — at
//! every batch size a coalescing batcher produces, m ∈ {1,2,3,4,5,7,8,16},
//! on one and two threads. Gates: `gemm_skinny_no_cliff`, `t(m) ≤ 1.25 ×
//! t(4·⌈m/4⌉)` on one thread (a batch of 3 may not cost more than a batch
//! of 4 by more than noise), and `gemm_skinny_two_threads_never_lose`,
//! `t(2 threads) ≤ 1.05 × t(1)` at every shape (skipped on a host whose
//! second core is a time-share of the first).

use drec_bench::report::Limit::{AtLeast, AtMost};
use drec_bench::report::{Gate, Json, Report, Timed};
use drec_bench::timing::{fmt_secs, paired, sample, time, Spread};
use drec_bench::{row, XorShift64};
use std::sync::Arc;

use drec_models::{ModelId, ModelScale};
use drec_ops::{EmbeddingTable, ExecContext, IdList, Operator, SparseLengthsSum, Value};
use drec_par::ParPool;
use drec_tensor::simd::{self, KernelBackend};
use drec_tensor::{gemm_transposed, gemm_transposed_scalar, ParamInit};
use drec_workload::QueryGen;

/// Required single-thread speedup of the blocked transposed GEMM over the
/// seed scalar kernel at 512³ (full mode only).
const GEMM_SPEEDUP_GATE: f64 = 3.0;
/// Required vector-over-scalar speedup of the int8 pooled sum at dim 64
/// on AVX2+FMA hosts (smoke and full mode).
const INT8_SLS_SPEEDUP_GATE: f64 = 2.0;
/// Required FMA-over-scalar-blocked GEMM speedup on AVX2+FMA hosts
/// (smoke and full mode).
const GEMM_FMA_SPEEDUP_GATE: f64 = 1.5;
/// The dispatched int8 row encoder may take at most this share of the
/// scalar oracle's time (a 3× speedup) at every benchmarked dim.
const QUANTIZE_GATE: f64 = 1.0 / 3.0;
/// Row widths of the encoder benchmark: the Paper-scale embedding dims.
const QUANTIZE_DIMS: [usize; 2] = [32, 64];
/// Skinny-sweep gate: `t(m)` may exceed `t` at the next multiple of four
/// by at most this factor (one thread).
const SKINNY_CLIFF_GATE: f64 = 1.25;
/// Skinny-sweep gate: two threads may cost at most this factor of one.
const SKINNY_TWO_THREAD_GATE: f64 = 1.05;
/// Required speedup of a four-thread pool over one thread at 512³ on a
/// host with four cores (full mode only).
const THREADS4_SPEEDUP_GATE: f64 = 1.2;
/// Two spinning threads must do at least this multiple of one thread's
/// work for the host to count as having a second core.
const SECOND_CORE_FLOOR: f64 = 1.5;
/// Batch sizes of the skinny sweep.
const SKINNY_M: [usize; 8] = [1, 2, 3, 4, 5, 7, 8, 16];
/// `(label, k, n)` of the skinny sweep's FC layers at Paper scale.
const SKINNY_LAYERS: [(&str, usize, usize); 2] =
    [("rm3_1700x1024", 1700, 1024), ("rm1_352x256", 352, 256)];
/// Row width for the quantized pooled-sum gate (the paper's common
/// embedding dim is 32–64; 64 is where the vector path's advantage is
/// representative).
const SLS_GATE_DIM: usize = 64;

/// One square GEMM size: times the seed scalar kernels against the blocked
/// kernels on a single-thread pool; the comparison is the transposed pair.
fn bench_gemm(size: usize, repeats: usize) -> (Json, Timed) {
    let mut init = ParamInit::new(0x6E_u64 + size as u64);
    let a = init.uniform(&[size, size], -1.0, 1.0);
    let b = init.uniform(&[size, size], -1.0, 1.0);
    let single = ParPool::new(1);
    drec_par::with_pool(&single, || {
        let (seed, blocked) = paired(
            repeats,
            || time(|| a.matmul_transposed_reference(&b).unwrap()),
            || time(|| a.matmul_transposed(&b).unwrap()),
        );
        let (ref_mm, blocked_mm) = paired(
            repeats,
            || time(|| a.matmul_reference(&b).unwrap()),
            || time(|| a.matmul(&b).unwrap()),
        );
        let (ref_t, blocked_t) = (seed.fastest, blocked.fastest);
        let (ref_mm, blocked_mm) = (ref_mm.fastest, blocked_mm.fastest);
        println!(
            "  {size:>4}³ transposed: seed {} -> blocked {} ({:.2}x); matmul: seed {} -> blocked {} ({:.2}x)",
            fmt_secs(ref_t),
            fmt_secs(blocked_t),
            ref_t / blocked_t,
            fmt_secs(ref_mm),
            fmt_secs(blocked_mm),
            ref_mm / blocked_mm,
        );
        let row = row! {
            "size": size,
            "transposed_ref_seconds": ref_t,
            "transposed_blocked_seconds": blocked_t,
            "transposed_speedup": ref_t / blocked_t,
            "matmul_ref_seconds": ref_mm,
            "matmul_blocked_seconds": blocked_mm,
            "matmul_speedup": ref_mm / blocked_mm,
        };
        let at =
            format!("blocked transposed GEMM over the seed scalar kernel, {size}³, one thread");
        let timed = Timed::new(blocked, ("the seed scalar kernel", seed), at);
        (row, timed)
    })
}

/// Blocked transposed GEMM wall time at `size`³ on a pool of `threads`.
fn bench_gemm_threads(size: usize, threads: usize, repeats: usize) -> Spread {
    let mut init = ParamInit::new(0x7E);
    let a = init.uniform(&[size, size], -1.0, 1.0);
    let b = init.uniform(&[size, size], -1.0, 1.0);
    let pool = ParPool::new(threads);
    drec_par::with_pool(&pool, || {
        sample(repeats, || time(|| a.matmul_transposed(&b).unwrap()))
    })
}

/// Asserts the blocked kernels produce bit-identical output on pools of
/// every size (the determinism contract), on shapes that exercise the
/// register-block edge paths.
fn check_gemm_determinism() {
    let shapes = [
        (1usize, 1usize, 1usize),
        (3, 129, 5),
        (257, 63, 33),
        (64, 64, 64),
    ];
    for &(m, k, n) in &shapes {
        let mut init = ParamInit::new((m * 1000 + k * 10 + n) as u64);
        let a = init.uniform(&[m, k], -1.0, 1.0);
        let bt = init.uniform(&[n, k], -1.0, 1.0);
        let b = init.uniform(&[k, n], -1.0, 1.0);
        let base_t = drec_par::with_pool(&ParPool::new(1), || a.matmul_transposed(&bt).unwrap());
        let base_mm = drec_par::with_pool(&ParPool::new(1), || a.matmul(&b).unwrap());
        for threads in [2usize, 4, 8] {
            let pool = ParPool::new(threads);
            let (par_t, par_mm) = drec_par::with_pool(&pool, || {
                (a.matmul_transposed(&bt).unwrap(), a.matmul(&b).unwrap())
            });
            assert_eq!(
                base_t.as_slice(),
                par_t.as_slice(),
                "matmul_transposed {m}x{k}x{n} differs at {threads} threads"
            );
            assert_eq!(
                base_mm.as_slice(),
                par_mm.as_slice(),
                "matmul {m}x{k}x{n} differs at {threads} threads"
            );
        }
    }
}

/// Times pooled sums over raw encoded rows — the store's cold-decode hot
/// loop with the shard locks and cache peeled away, so the measurement
/// is the kernel itself: per encoding, the dispatched kernel (vector on
/// AVX2 hosts) against the scalar oracle over the same raw row buffers.
/// Asserts the dispatched accumulator is bit-identical to the scalar
/// oracle's before timing.
fn bench_quantized_sls(
    dim: usize,
    rows: usize,
    pool_ids: usize,
    repeats: usize,
) -> Vec<(Json, Timed)> {
    let mut init = ParamInit::new(0x51D);
    let dense = init.uniform(&[rows, dim], -1.0, 1.0);
    let data = dense.as_slice();
    let f16: Vec<u16> = data
        .iter()
        .map(|&v| drec_store::f32_to_f16_bits(v))
        .collect();
    let mut q = vec![0u8; rows * dim];
    let mut scale = vec![0f32; rows];
    let mut bias = vec![0f32; rows];
    for r in 0..rows {
        let (s, b) = drec_store::quantize_row(
            &data[r * dim..(r + 1) * dim],
            &mut q[r * dim..(r + 1) * dim],
        );
        scale[r] = s;
        bias[r] = b;
    }
    let mut rng = XorShift64(0xBA7);
    let ids: Vec<usize> = (0..pool_ids)
        .map(|_| (rng.next_u64() % rows as u64) as usize)
        .collect();

    let (mut acc, mut acc_oracle) = (vec![0.0f32; dim], vec![0.0f32; dim]);
    let mut rows_out = Vec::new();
    // (encoding, bytes per row, dispatched pass, scalar-oracle pass)
    type Pass<'a> = Box<dyn Fn(usize, &mut [f32]) + 'a>;
    let pool = |row_sum: &Pass, acc: &mut [f32]| {
        acc.fill(0.0);
        for &r in &ids {
            row_sum(r, acc);
        }
        acc[0]
    };
    let passes: Vec<(&'static str, usize, Pass, Pass)> = vec![
        (
            "f32",
            dim * 4,
            Box::new(|r, acc: &mut [f32]| {
                simd::sum_f32_into(&data[r * dim..(r + 1) * dim], acc);
            }),
            Box::new(|r, acc: &mut [f32]| {
                simd::scalar::sum_f32_into(&data[r * dim..(r + 1) * dim], acc);
            }),
        ),
        (
            "f16",
            dim * 2,
            Box::new(|r, acc: &mut [f32]| {
                simd::sum_f16_into(&f16[r * dim..(r + 1) * dim], acc);
            }),
            Box::new(|r, acc: &mut [f32]| {
                simd::scalar::sum_f16_into(&f16[r * dim..(r + 1) * dim], acc);
            }),
        ),
        (
            "int8",
            dim + 8,
            Box::new(|r, acc: &mut [f32]| {
                simd::sum_i8_into(&q[r * dim..(r + 1) * dim], scale[r], bias[r], acc);
            }),
            Box::new(|r, acc: &mut [f32]| {
                simd::scalar::sum_i8_into(&q[r * dim..(r + 1) * dim], scale[r], bias[r], acc);
            }),
        ),
    ];
    for (encoding, bytes_per_row, dispatched, oracle) in &passes {
        // Bit-identity first: one full pooled pass per path must agree
        // exactly (this is the kernel contract the store relies on).
        pool(dispatched, &mut acc);
        pool(oracle, &mut acc_oracle);
        assert_eq!(
            acc, acc_oracle,
            "{encoding} dispatched pooled sum is not bit-identical to the scalar oracle"
        );

        let (vector, scalar) = paired(
            repeats,
            || time(|| pool(dispatched, &mut acc)),
            || time(|| pool(oracle, &mut acc_oracle)),
        );
        let (vector_seconds, scalar_seconds) = (vector.fastest, scalar.fastest);
        let bytes = (ids.len() * bytes_per_row) as f64;
        let (scalar_gb_s, vector_gb_s) =
            (bytes / scalar_seconds / 1e9, bytes / vector_seconds / 1e9);
        let speedup = scalar_seconds / vector_seconds;
        println!(
            "  {encoding:<4} scalar {scalar_gb_s:.2} GB/s -> dispatched {vector_gb_s:.2} GB/s ({speedup:.2}x)"
        );
        let row = row! {
            "encoding": *encoding,
            "dim": dim,
            "scalar_gb_per_s": scalar_gb_s,
            "vector_gb_per_s": vector_gb_s,
            "speedup": speedup,
        };
        let at = format!("dim {dim}");
        rows_out.push((row, Timed::new(vector, ("the scalar oracle", scalar), at)));
    }
    rows_out
}

/// The int8 row encoder at one row width, nanoseconds per element for the
/// scalar oracle and the dispatched kernel: times encoding one Paper-scale
/// table (4096 rows, the store's registration loop without the store) and
/// asserts the two encoders agree on every byte, scale and bias first.
fn bench_quantize_i8(dim: usize, repeats: usize) -> (Json, Timed) {
    const ROWS: usize = 4096;
    let table = ParamInit::new(0x0_18 + dim as u64).uniform(&[ROWS, dim], -0.05, 0.05);
    let data = table.as_slice();
    let encode = |quantize: fn(&[f32], &mut [u8]) -> (f32, f32), q: &mut [u8]| -> Vec<(f32, f32)> {
        let rows = data.chunks_exact(dim).zip(q.chunks_exact_mut(dim));
        rows.map(|(row, q)| quantize(row, q)).collect()
    };
    let (mut q, mut q_oracle) = (vec![0u8; ROWS * dim], vec![0u8; ROWS * dim]);
    let params = encode(simd::quantize_i8_row, &mut q);
    let params_oracle = encode(simd::scalar::quantize_i8_row, &mut q_oracle);
    assert!(
        q == q_oracle && params == params_oracle,
        "dispatched int8 encoder is not byte-identical to the scalar oracle at dim {dim}"
    );
    let elements = (ROWS * dim) as f64;
    let (scalar, dispatched) = paired(
        repeats,
        || time(|| encode(simd::scalar::quantize_i8_row, &mut q_oracle)) / elements,
        || time(|| encode(simd::quantize_i8_row, &mut q)) / elements,
    );
    let (scalar_ns, dispatched_ns) = (scalar.fastest * 1e9, dispatched.fastest * 1e9);
    let speedup = scalar_ns / dispatched_ns;
    println!(
        "  dim {dim:<3} scalar {scalar_ns:.2} -> dispatched {dispatched_ns:.2} ({speedup:.2}x)"
    );
    let row = row! {
        "dim": dim,
        "scalar_ns_per_element": scalar_ns,
        "dispatched_ns_per_element": dispatched_ns,
        "speedup": speedup,
    };
    let at = format!("t(dispatched) / t(scalar), dim {dim}");
    let timed = Timed::new(dispatched, ("the scalar oracle", scalar), at);
    (row, timed)
}

/// One square-size comparison of the dispatched GEMM (FMA dot cells on
/// AVX2 hosts) against the scalar blocked kernel.
fn bench_gemm_fma(size: usize, repeats: usize) -> (Json, Timed) {
    let mut init = ParamInit::new(0xF3A_u64 + size as u64);
    let a = init.uniform(&[size, size], -1.0, 1.0);
    let b = init.uniform(&[size, size], -1.0, 1.0);
    let (mut out, mut out_scalar) = (vec![0.0f32; size * size], vec![0.0f32; size * size]);
    let single = ParPool::new(1);
    let flops = 2.0 * (size as f64).powi(3);
    drec_par::with_pool(&single, || {
        type Gemm = fn(&[f32], &[f32], usize, usize, usize, &mut [f32]);
        let product = |gemm: Gemm, out: &mut [f32]| {
            gemm(a.as_slice(), b.as_slice(), size, size, size, out);
            out[0]
        };
        let (scalar, fma) = paired(
            repeats,
            || time(|| product(gemm_transposed_scalar, &mut out_scalar)),
            || time(|| product(gemm_transposed, &mut out)),
        );
        let (scalar_gflops, fma_gflops) = (flops / scalar.fastest / 1e9, flops / fma.fastest / 1e9);
        let speedup = scalar.fastest / fma.fastest;
        println!(
            "  {size:>4}³ scalar {scalar_gflops:.2} GFLOP/s -> dispatched {fma_gflops:.2} GFLOP/s ({speedup:.2}x)"
        );
        let row = row! {
            "size": size,
            "scalar_gflop_per_s": scalar_gflops,
            "fma_gflop_per_s": fma_gflops,
            "speedup": speedup,
        };
        let at = format!("{size}³, one thread");
        let timed = Timed::new(fma, ("the scalar blocked kernel", scalar), at);
        (row, timed)
    })
}

/// One `(layer, m)` point of the skinny sweep: seconds per product on a
/// one-thread and a two-thread pool.
struct SkinnyRow {
    layer: &'static str,
    k: usize,
    n: usize,
    m: usize,
    one_thread: Spread,
    two_threads: Spread,
}

impl SkinnyRow {
    fn json(&self) -> Json {
        row! {
            "layer": self.layer,
            "k": self.k,
            "n": self.n,
            "m": self.m,
            "us_1_thread": self.one_thread.fastest * 1e6,
            "us_2_threads": self.two_threads.fastest * 1e6,
        }
    }
}

/// Times `A[m, k] · W[n, k]ᵀ` through the dispatched GEMM for every
/// `m` in [`SKINNY_M`]. A sample is a loop of about a millisecond (20 M
/// multiply-adds; shorter ones read 10 % apart on identical code here),
/// and the one- and two-thread samples alternate.
fn bench_gemm_skinny(repeats: usize) -> Vec<SkinnyRow> {
    let one = ParPool::new(1);
    let two = ParPool::new(2);
    let mut rows = Vec::new();
    for &(layer, k, n) in &SKINNY_LAYERS {
        let mut init = ParamInit::new(0x5C1 + k as u64);
        let w = init.uniform(&[n, k], -1.0, 1.0);
        let a = init.uniform(&[16, k], -1.0, 1.0);
        let (mut out_one, mut out_two) = (vec![0.0f32; 16 * n], vec![0.0f32; 16 * n]);
        for &m in &SKINNY_M {
            let iters = (20_000_000 / (m * k * n)).max(1);
            let lap = |pool: &Arc<ParPool>, out: &mut [f32]| {
                let products = || {
                    for _ in 0..iters {
                        gemm_transposed(&a.as_slice()[..m * k], w.as_slice(), m, k, n, out);
                        std::hint::black_box(&mut *out);
                    }
                };
                drec_par::with_pool(pool, || time(products)) / iters as f64
            };
            let (one_thread, two_threads) = paired(
                repeats,
                || lap(&one, &mut out_one[..m * n]),
                || lap(&two, &mut out_two[..m * n]),
            );
            rows.push(SkinnyRow {
                layer,
                k,
                n,
                m,
                one_thread,
                two_threads,
            });
        }
    }
    rows
}

/// Checks the dispatched GEMM against the scalar blocked kernel on
/// register-block edge shapes: bit-identical when FMA is disabled
/// (forced scalar / no AVX2), otherwise within the
/// documented per-cell bound `2·(k+8)·ε·Σ|aᵢₗ·bⱼₗ| + f32::MIN_POSITIVE`
/// (see DESIGN.md §11).
fn check_gemm_fma_accuracy() {
    let fma = simd::gemm_fma_enabled();
    for &(m, k, n) in &[
        (1usize, 1usize, 1usize),
        (5, 257, 9),
        (33, 129, 17),
        (64, 64, 64),
    ] {
        let mut init = ParamInit::new((m * 7919 + k * 131 + n) as u64);
        let a = init.uniform(&[m, k], -1.0, 1.0);
        let b = init.uniform(&[n, k], -1.0, 1.0);
        let mut scalar_out = vec![0.0f32; m * n];
        let mut dispatched = vec![0.0f32; m * n];
        gemm_transposed_scalar(a.as_slice(), b.as_slice(), m, k, n, &mut scalar_out);
        gemm_transposed(a.as_slice(), b.as_slice(), m, k, n, &mut dispatched);
        if !fma {
            assert_eq!(
                scalar_out, dispatched,
                "GEMM {m}x{k}x{n}: the scalar backend must be bit-identical"
            );
            continue;
        }
        let (av, bv) = (a.as_slice(), b.as_slice());
        for i in 0..m {
            for j in 0..n {
                let abs_dot: f64 = (0..k)
                    .map(|l| f64::from(av[i * k + l] * bv[j * k + l]).abs())
                    .sum();
                let bound = 2.0 * (k as f64 + 8.0) * f64::from(f32::EPSILON) * abs_dot
                    + f64::from(f32::MIN_POSITIVE);
                let diff = f64::from(scalar_out[i * n + j] - dispatched[i * n + j]).abs();
                assert!(
                    diff <= bound,
                    "GEMM {m}x{k}x{n} cell ({i},{j}): |fma - scalar| {diff:e} > ULP bound {bound:e}"
                );
            }
        }
    }
}

/// Deterministic id stream for the pooling benchmark.
fn pooled_ids(batch: usize, lookups_per_sample: usize, rows: u32, seed: u64) -> IdList {
    let mut rng = XorShift64(seed | 1);
    let ids = (0..batch * lookups_per_sample)
        .map(|_| (rng.next_u64() % u64::from(rows)) as u32)
        .collect();
    IdList::new(ids, vec![lookups_per_sample as u32; batch])
}

/// Times pooled embedding lookups (SparseLengthsSum, tracing off) at one
/// and four pool threads, and asserts both produce identical output.
fn bench_embedding(batches: &[usize], dim: usize, lookups: usize, repeats: usize) -> Vec<Json> {
    let mut ctx = ExecContext::new();
    let mut init = ParamInit::new(0xE_5);
    let table = EmbeddingTable::new(1_000_000, dim, 65_536, &mut ctx, &mut init).unwrap();
    let sls = SparseLengthsSum::new(Arc::clone(&table), &mut ctx);
    let one = ParPool::new(1);
    let four = ParPool::new(4);
    batches
        .iter()
        .map(|&batch| {
            let ids = ctx.external_input(Value::ids(pooled_ids(batch, lookups, 999_983, 0xBA7)));
            let out_1t = drec_par::with_pool(&one, || sls.run(&mut ctx, &[&ids]).unwrap());
            let out_4t = drec_par::with_pool(&four, || sls.run(&mut ctx, &[&ids]).unwrap());
            assert_eq!(
                out_1t.as_dense().unwrap().as_slice(),
                out_4t.as_dense().unwrap().as_slice(),
                "pooled embedding batch {batch} differs across pool sizes"
            );
            let mut lap = || time(|| sls.run(&mut ctx, &[&ids]));
            let seconds_1t = drec_par::with_pool(&one, || sample(repeats, &mut lap)).fastest;
            let seconds_4t = drec_par::with_pool(&four, || sample(repeats, &mut lap)).fastest;
            println!(
                "  batch {batch:>5}: 1 thread {}, 4 threads {}",
                fmt_secs(seconds_1t),
                fmt_secs(seconds_4t)
            );
            row! {"batch": batch, "seconds_1_thread": seconds_1t, "seconds_4_threads": seconds_4t}
        })
        .collect()
}

/// Times end-to-end forward passes and asserts outputs are bit-identical
/// across pool sizes.
fn bench_models(
    models: &[ModelId],
    scale: ModelScale,
    batches: &[usize],
    repeats: usize,
) -> Vec<Json> {
    let one = ParPool::new(1);
    let four = ParPool::new(4);
    let mut rows = Vec::new();
    for &id in models {
        let mut model = id.build(scale, 11).expect("model builds");
        let mut gen = QueryGen::uniform(0xD1E);
        for &batch in batches {
            let inputs = gen.batch(model.spec(), batch);
            let out_1t = drec_par::with_pool(&one, || model.run(inputs.clone()).unwrap());
            let out_4t = drec_par::with_pool(&four, || model.run(inputs.clone()).unwrap());
            for (a, b) in out_1t.iter().zip(&out_4t) {
                assert_eq!(
                    a.as_dense().unwrap().as_slice(),
                    b.as_dense().unwrap().as_slice(),
                    "{} batch {batch} output differs across pool sizes",
                    id.name()
                );
            }
            let seconds = sample(repeats, || time(|| model.run(inputs.clone()).unwrap())).fastest;
            println!("  {:<5} batch {batch:>5}: {}", id.name(), fmt_secs(seconds));
            rows.push(row! {"model": id.name(), "batch": batch, "seconds": seconds});
        }
    }
    rows
}

fn main() {
    let mut report = Report::start("kernels", &["--smoke", "--tiny", "--quick"]);
    let (smoke, fast) = (report.flags.smoke, report.flags.smoke || report.flags.quick);
    let host_parallelism = report.host.parallelism;
    let scale = report.flags.scale();
    let no_vector_path = (simd::active_backend() != KernelBackend::Avx2Fma).then(|| {
        format!(
            "kernel backend is {}: the dispatched kernel is the scalar oracle",
            simd::backend_label()
        )
    });

    println!("Checking parallel == sequential (bit-identical) on GEMM edge shapes...");
    check_gemm_determinism();
    println!("  ok");

    println!("Checking dispatched GEMM vs scalar blocked kernel (ULP bound / scalar identity)...");
    check_gemm_fma_accuracy();
    println!("  ok");

    let (sls_rows, sls_ids, sls_repeats) = if fast {
        (1024usize, 16_384usize, 3usize)
    } else {
        (4096, 65_536, 7)
    };
    println!(
        "Quantized pooled sums at dim {SLS_GATE_DIM} ({sls_ids} lookups over {sls_rows} rows, dispatched vs scalar oracle):"
    );
    let (quant_sls, sls_timed): (Vec<Json>, Vec<Timed>) =
        bench_quantized_sls(SLS_GATE_DIM, sls_rows, sls_ids, sls_repeats)
            .into_iter()
            .unzip();
    let int8 = quant_sls.iter().position(|r| r.text("encoding") == "int8");
    let int8 = sls_timed[int8.expect("int8 row present")].clone();
    report.gate(
        Gate::timed(
            "int8_sls_vector_speedup",
            AtLeast(INT8_SLS_SPEEDUP_GATE),
            [int8],
        )
        .skip_if(no_vector_path.clone()),
    );

    println!("Int8 row encoder, one 4096-row table (dispatched vs scalar oracle, ns per element):");
    let (quantize, quantize_timed): (Vec<Json>, Vec<Timed>) = QUANTIZE_DIMS
        .iter()
        .map(|&dim| bench_quantize_i8(dim, if fast { 20 } else { 50 }))
        .unzip();
    report.gate(
        Gate::timed(
            "quantize_i8_dispatched_3x_scalar",
            AtMost(QUANTIZE_GATE),
            quantize_timed,
        )
        .skip_if(no_vector_path.clone()),
    );

    let fma_sizes: &[usize] = if smoke { &[128] } else { &[128, 256, 512] };
    let fma_repeats = if fast { 3 } else { 5 };
    println!("GEMM dispatched (FMA) vs scalar blocked, single thread:");
    let (gemm_fma, gemm_fma_timed): (Vec<Json>, Vec<Timed>) = fma_sizes
        .iter()
        .map(|&size| bench_gemm_fma(size, fma_repeats))
        .unzip();
    report.gate(
        Gate::timed(
            "gemm_fma_speedup",
            AtLeast(GEMM_FMA_SPEEDUP_GATE),
            gemm_fma_timed,
        )
        .skip_if(no_vector_path),
    );

    // Calibrated on both sides of the sweep: on a shared host the second
    // core can leave while it runs.
    report.second_core();
    let skinny_repeats = if fast { 100 } else { 200 };
    println!("GEMM skinny sweep (serving batch sizes at two FC layers, µs per product):");
    let skinny = bench_gemm_skinny(skinny_repeats);
    let second_core = report.second_core();
    for &(layer, _, _) in &SKINNY_LAYERS {
        for (label, pick) in [
            ("1 thread ", (|r| r.one_thread) as fn(&SkinnyRow) -> Spread),
            ("2 threads", |r| r.two_threads),
        ] {
            let cells: Vec<String> = skinny
                .iter()
                .filter(|r| r.layer == layer)
                .map(|r| format!("m={} {:.1}", r.m, pick(r).fastest * 1e6))
                .collect();
            println!("  {layer:<14} {label}: {}", cells.join("  "));
        }
    }
    let cliffs = skinny.iter().map(|r| {
        let full = skinny
            .iter()
            .find(|q| q.layer == r.layer && q.m == r.m.div_ceil(4) * 4);
        let full = full.expect("the sweep holds every multiple of four it rounds up to");
        let at = format!(
            "t(m) / t(4*ceil(m/4)) on one thread, {} m={} vs m={}",
            r.layer, r.m, full.m
        );
        Timed::new(
            r.one_thread,
            (format!("t(m={})", full.m), full.one_thread),
            at,
        )
    });
    report.gate(Gate::timed(
        "gemm_skinny_no_cliff",
        AtMost(SKINNY_CLIFF_GATE),
        cliffs,
    ));
    let no_second_core = if host_parallelism == 1 {
        Some("single core".to_string())
    } else if second_core < SECOND_CORE_FLOOR {
        Some(format!(
            "single core (two spinning threads did {second_core:.2}x the work of one)"
        ))
    } else {
        None
    };
    let two_threads = skinny.iter().map(|r| {
        let at = format!("t(2 threads) / t(1 thread), {} m={}", r.layer, r.m);
        Timed::new(r.two_threads, ("one thread", r.one_thread), at)
    });
    report.gate(
        Gate::timed(
            "gemm_skinny_two_threads_never_lose",
            AtMost(SKINNY_TWO_THREAD_GATE),
            two_threads,
        )
        .skip_if(no_second_core),
    );

    let gemm_sizes: &[usize] = if smoke { &[48] } else { &[128, 512] };
    let gemm_repeats = if fast { 2 } else { 5 };
    println!("GEMM old-vs-new, single thread:");
    let (gemm, gemm_timed): (Vec<Json>, Vec<Timed>) = gemm_sizes
        .iter()
        .map(|&size| bench_gemm(size, gemm_repeats))
        .unzip();
    let full_only = smoke.then(|| "smoke mode runs no 512³ product".to_string());
    let gemm_512 = gemm_sizes
        .iter()
        .zip(gemm_timed)
        .filter(|(&size, _)| size == 512);
    report.gate(
        Gate::timed(
            "gemm_512_blocked_speedup",
            AtLeast(GEMM_SPEEDUP_GATE),
            gemm_512.map(|(_, timed)| timed),
        )
        .skip_if(full_only.clone()),
    );

    let sweep_size = if smoke { 64 } else { 512 };
    println!("GEMM thread sweep at {sweep_size}³ (blocked transposed kernel):");
    let threads_sweep: Vec<(usize, Spread)> = [1usize, 2, 4]
        .iter()
        .map(|&threads| {
            let seconds = bench_gemm_threads(sweep_size, threads, gemm_repeats);
            println!("  {threads} thread(s): {}", fmt_secs(seconds.fastest));
            (threads, seconds)
        })
        .collect();
    let too_few_cores =
        (host_parallelism < 4).then(|| format!("host has {host_parallelism} core(s) < 4"));
    let (one, four) = (threads_sweep[0].1, threads_sweep[2].1);
    let at = format!("{sweep_size}³, 4 threads over 1");
    report.gate(
        Gate::timed(
            "gemm_4_thread_speedup",
            AtLeast(THREADS4_SPEEDUP_GATE),
            [Timed::new(four, ("one thread", one), at)],
        )
        .skip_if(full_only.or(too_few_cores)),
    );

    let (dim, lookups, embed_batches): (usize, usize, Vec<usize>) = if smoke {
        (16, 8, vec![1, 16])
    } else {
        (64, 40, vec![1, 64, 1024])
    };
    let embed_repeats = if fast { 2 } else { 5 };
    println!("Pooled embedding lookups (dim {dim}, {lookups} lookups/sample):");
    let embedding = bench_embedding(&embed_batches, dim, lookups, embed_repeats);

    let model_batches: Vec<usize> = if smoke {
        vec![1, 16]
    } else {
        vec![1, 64, 1024]
    };
    let model_repeats = if fast { 1 } else { 3 };
    println!("End-to-end forward passes ({scale:?} scale):");
    let models = bench_models(
        &[ModelId::Rm2, ModelId::Dien],
        scale,
        &model_batches,
        model_repeats,
    );

    report.section("model_scale", format!("{scale:?}"));
    report.section("quantized_sls", quant_sls);
    report.section("quantize_i8", quantize);
    report.section("gemm_fma", gemm_fma);
    report.rows("gemm_skinny", &skinny, SkinnyRow::json);
    report.section("gemm_single_thread", gemm);
    report.rows("gemm_thread_sweep", &threads_sweep, |(threads, seconds)| {
        row! {"threads": *threads, "seconds": seconds.fastest}
    });
    report.section("embedding_pooling", embedding);
    report.section("end_to_end", models);
    report.finish();
}
