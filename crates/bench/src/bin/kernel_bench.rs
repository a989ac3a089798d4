//! Old-vs-new kernel benchmarks for the intra-op parallelism stack:
//! register-blocked GEMM against the seed scalar kernels, the SIMD
//! quantized SparseLengthsSum and FMA GEMM kernels against their scalar
//! oracles, embedding pooling, and end-to-end RM2/DIEN forward passes
//! across batch sizes, plus the determinism contracts (parallel output
//! bit-identical to sequential; vector row kernels bit-identical to
//! scalar; FMA GEMM within its documented ULP bound). Writes
//! `BENCH_kernels.json`.
//!
//! Flags:
//!
//! * `--smoke` — tiny shapes, correctness assertions plus the SIMD
//!   speedup gates (CI mode),
//! * `--tiny` — tiny model scale for the end-to-end section,
//! * `--quick` — fewer timing repeats.
//!
//! SIMD gates (smoke *and* full mode, AVX2+FMA hosts only — auto-skip
//! with a logged notice elsewhere): int8 pooled-sum vector path ≥2×
//! scalar at dim 64, FMA GEMM ≥1.5× the scalar blocked kernel, and the
//! int8 row encoder (`quantize_i8`, ns per element at dims 32 and 64) ≥3×
//! its scalar oracle — that one with its verdict at the top level of the
//! JSON, `skipped: <reason>` on the forced-scalar leg. The
//! legacy full-mode gates stay: the blocked transposed GEMM must beat
//! the seed scalar kernel by ≥3× at 512³ on one thread, and
//! `DREC_THREADS=4` must add further speedup when the host actually has
//! multiple cores (on a single-core host the multi-thread gate is
//! reported but not enforced).
//!
//! Skinny sweep (smoke and full mode, both kernel backends): the two FC
//! layers that dominate serving — RM3's 1700→1024 and RM1's 352→256 — at
//! every batch size a coalescing batcher produces, m ∈ {1,2,3,4,5,7,8,16},
//! on one and two threads. Gates: *no cliff*, `t(m) ≤ 1.25 × t(4·⌈m/4⌉)`
//! on one thread (a batch of 3 may not cost more than a batch of 4 by more
//! than noise), and *the pool never loses*, `t(2 threads) ≤ 1.05 × t(1)`
//! at every shape (skipped, and said so at the top level of the JSON, on a
//! single-core host).

use drec_bench::{json_f64, second_core_throughput};
use std::sync::Arc;
use std::time::Instant;

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

struct Args {
    smoke: bool,
    tiny: bool,
    quick: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        tiny: false,
        quick: false,
    };
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => args.smoke = true,
            "--tiny" => args.tiny = true,
            "--quick" => args.quick = true,
            other => {
                eprintln!("warning: unknown argument '{other}' (supported: --smoke --tiny --quick)")
            }
        }
    }
    args
}

/// Fastest of `repeats` runs, seconds.
fn time_min<T>(repeats: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..repeats.max(1) {
        let start = Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{:.1} µs", s * 1e6)
    }
}

/// One square GEMM size: times the seed scalar kernels against the blocked
/// kernels on a single-thread pool and checks the results agree.
struct GemmRow {
    size: usize,
    ref_t_seconds: f64,
    blocked_t_seconds: f64,
    t_speedup: f64,
    ref_mm_seconds: f64,
    blocked_mm_seconds: f64,
    mm_speedup: f64,
}

fn bench_gemm(size: usize, repeats: usize) -> GemmRow {
    let mut init = ParamInit::new(0x6E_u64 + size as u64);
    let a = init.uniform(&[size, size], -1.0, 1.0);
    let b = init.uniform(&[size, size], -1.0, 1.0);
    let single = ParPool::new(1);
    drec_par::with_pool(&single, || {
        let ref_t_seconds = time_min(repeats, || a.matmul_transposed_reference(&b).unwrap());
        let blocked_t_seconds = time_min(repeats, || a.matmul_transposed(&b).unwrap());
        let ref_mm_seconds = time_min(repeats, || a.matmul_reference(&b).unwrap());
        let blocked_mm_seconds = time_min(repeats, || a.matmul(&b).unwrap());
        GemmRow {
            size,
            ref_t_seconds,
            blocked_t_seconds,
            t_speedup: ref_t_seconds / blocked_t_seconds,
            ref_mm_seconds,
            blocked_mm_seconds,
            mm_speedup: ref_mm_seconds / blocked_mm_seconds,
        }
    })
}

/// Blocked transposed GEMM wall time at `size`³ on a pool of `threads`.
fn bench_gemm_threads(size: usize, threads: usize, repeats: usize) -> f64 {
    let mut init = ParamInit::new(0x7E);
    let a = init.uniform(&[size, size], -1.0, 1.0);
    let b = init.uniform(&[size, size], -1.0, 1.0);
    let pool = ParPool::new(threads);
    drec_par::with_pool(&pool, || {
        time_min(repeats, || a.matmul_transposed(&b).unwrap())
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

/// One encoding's pooled-sum timing: the dispatched kernel (vector on
/// AVX2 hosts) against the scalar oracle over the same raw row buffers.
struct QuantSlsRow {
    encoding: &'static str,
    dim: usize,
    scalar_gb_s: f64,
    vector_gb_s: f64,
    speedup: f64,
}

/// Times pooled sums over raw encoded rows — the store's cold-decode hot
/// loop with the shard locks and cache peeled away, so the measurement
/// is the kernel itself. Asserts the dispatched accumulator is
/// bit-identical to the scalar oracle's before timing.
fn bench_quantized_sls(
    dim: usize,
    rows: usize,
    pool_ids: usize,
    repeats: usize,
) -> Vec<QuantSlsRow> {
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
    let mut state = 0xBA7_u64;
    let ids: Vec<usize> = (0..pool_ids)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % rows as u64) as usize
        })
        .collect();

    let mut acc = vec![0.0f32; dim];
    let mut rows_out = Vec::new();
    // (encoding, bytes per row, dispatched pass, scalar-oracle pass)
    type Pass<'a> = Box<dyn Fn(usize, &mut [f32]) + 'a>;
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
        acc.fill(0.0);
        for &r in &ids {
            dispatched(r, &mut acc);
        }
        let got = acc.clone();
        acc.fill(0.0);
        for &r in &ids {
            oracle(r, &mut acc);
        }
        assert_eq!(
            got, acc,
            "{encoding} dispatched pooled sum is not bit-identical to the scalar oracle"
        );

        let vector_seconds = time_min(repeats, || {
            acc.fill(0.0);
            for &r in &ids {
                dispatched(r, &mut acc);
            }
            acc[0]
        });
        let scalar_seconds = time_min(repeats, || {
            acc.fill(0.0);
            for &r in &ids {
                oracle(r, &mut acc);
            }
            acc[0]
        });
        let bytes = (ids.len() * bytes_per_row) as f64;
        rows_out.push(QuantSlsRow {
            encoding,
            dim,
            scalar_gb_s: bytes / scalar_seconds / 1e9,
            vector_gb_s: bytes / vector_seconds / 1e9,
            speedup: scalar_seconds / vector_seconds,
        });
    }
    rows_out
}

/// The int8 row encoder at one row width: nanoseconds per element for
/// the scalar oracle and the dispatched kernel.
struct QuantizeRow {
    dim: usize,
    scalar_ns: f64,
    dispatched_ns: f64,
}

/// Times encoding one Paper-scale table (4096 rows, the store's
/// registration loop without the store) and asserts the two encoders
/// agree on every byte, scale and bias first.
fn bench_quantize_i8(dim: usize, repeats: usize) -> QuantizeRow {
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
    // Alternating samples, fastest kept: both sides see the same host.
    let (mut scalar_ns, mut dispatched_ns) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..repeats {
        let scalar = time_min(1, || encode(simd::scalar::quantize_i8_row, &mut q_oracle));
        let dispatched = time_min(1, || encode(simd::quantize_i8_row, &mut q));
        scalar_ns = scalar_ns.min(scalar * 1e9 / elements);
        dispatched_ns = dispatched_ns.min(dispatched * 1e9 / elements);
    }
    QuantizeRow {
        dim,
        scalar_ns,
        dispatched_ns,
    }
}

/// One square-size comparison of the dispatched GEMM (FMA dot cells on
/// AVX2 hosts) against the scalar blocked kernel.
struct GemmFmaRow {
    size: usize,
    scalar_gflops: f64,
    fma_gflops: f64,
    speedup: f64,
}

fn bench_gemm_fma(size: usize, repeats: usize) -> GemmFmaRow {
    let mut init = ParamInit::new(0xF3A_u64 + size as u64);
    let a = init.uniform(&[size, size], -1.0, 1.0);
    let b = init.uniform(&[size, size], -1.0, 1.0);
    let mut out = vec![0.0f32; size * size];
    let single = ParPool::new(1);
    let flops = 2.0 * (size as f64).powi(3);
    drec_par::with_pool(&single, || {
        let scalar_seconds = time_min(repeats, || {
            gemm_transposed_scalar(a.as_slice(), b.as_slice(), size, size, size, &mut out);
            out[0]
        });
        let fma_seconds = time_min(repeats, || {
            gemm_transposed(a.as_slice(), b.as_slice(), size, size, size, &mut out);
            out[0]
        });
        GemmFmaRow {
            size,
            scalar_gflops: flops / scalar_seconds / 1e9,
            fma_gflops: flops / fma_seconds / 1e9,
            speedup: scalar_seconds / fma_seconds,
        }
    })
}

/// One `(layer, m)` point of the skinny sweep: seconds per product on a
/// one-thread and a two-thread pool.
struct SkinnyRow {
    layer: &'static str,
    k: usize,
    n: usize,
    m: usize,
    seconds_1t: f64,
    seconds_2t: f64,
}

/// Times `A[m, k] · W[n, k]ᵀ` through the dispatched GEMM for every
/// `m` in [`SKINNY_M`]. A sample is a loop of about a millisecond (20 M
/// multiply-adds; shorter ones read 10 % apart on identical code here),
/// the one- and two-thread samples alternate so both see the same host,
/// and the figure kept is the fastest sample.
fn bench_gemm_skinny(repeats: usize) -> Vec<SkinnyRow> {
    let one = ParPool::new(1);
    let two = ParPool::new(2);
    let mut rows = Vec::new();
    for &(layer, k, n) in &SKINNY_LAYERS {
        let mut init = ParamInit::new(0x5C1 + k as u64);
        let w = init.uniform(&[n, k], -1.0, 1.0);
        let a = init.uniform(&[16, k], -1.0, 1.0);
        let mut out = vec![0.0f32; 16 * n];
        for &m in &SKINNY_M {
            let iters = (20_000_000 / (m * k * n)).max(1);
            let mut sample = |pool: &Arc<ParPool>| {
                drec_par::with_pool(pool, || {
                    time_min(1, || {
                        for _ in 0..iters {
                            gemm_transposed(
                                &a.as_slice()[..m * k],
                                w.as_slice(),
                                m,
                                k,
                                n,
                                &mut out[..m * n],
                            );
                            std::hint::black_box(&mut out);
                        }
                    }) / iters as f64
                })
            };
            let (mut seconds_1t, mut seconds_2t) = (f64::INFINITY, f64::INFINITY);
            for _ in 0..repeats {
                seconds_1t = seconds_1t.min(sample(&one));
                seconds_2t = seconds_2t.min(sample(&two));
            }
            rows.push(SkinnyRow {
                layer,
                k,
                n,
                m,
                seconds_1t,
                seconds_2t,
            });
        }
    }
    rows
}

/// Worst `t(m) / t(4·⌈m/4⌉)` on one thread and worst `t(2) / t(1)` over
/// the sweep, each with the point it occurs at.
fn skinny_worst(rows: &[SkinnyRow]) -> ((f64, String), (f64, String)) {
    let mut cliff = (0.0f64, String::new());
    let mut two = (0.0f64, String::new());
    for r in rows {
        let full = rows
            .iter()
            .find(|q| q.layer == r.layer && q.m == r.m.div_ceil(4) * 4)
            .expect("the sweep holds every multiple of four it rounds up to");
        let ratio = r.seconds_1t / full.seconds_1t;
        if ratio > cliff.0 {
            cliff = (ratio, format!("{} m={} vs m={}", r.layer, r.m, full.m));
        }
        let ratio = r.seconds_2t / r.seconds_1t;
        if ratio > two.0 {
            two = (ratio, format!("{} m={}", r.layer, r.m));
        }
    }
    (cliff, two)
}

/// One top-level gate: the worst ratio found, where, and the limit it
/// must stay under — or the reason it cannot be judged here.
struct Gate {
    name: &'static str,
    what: &'static str,
    worst: (f64, String),
    limit: f64,
    skipped: Option<String>,
}

impl Gate {
    /// `"ok"`, `"FAILED: …"` or `"skipped: <reason>"`.
    fn verdict(&self) -> String {
        match &self.skipped {
            Some(reason) => format!("skipped: {reason}"),
            None if self.worst.0 <= self.limit => "ok".to_string(),
            None => format!(
                "FAILED: {:.2}x > {:.2}x at {}",
                self.worst.0, self.limit, self.worst.1
            ),
        }
    }
}

/// Checks the dispatched GEMM against the scalar blocked kernel on
/// register-block edge shapes: bit-identical when FMA is disabled
/// (strict mode / forced scalar / no AVX2), otherwise within the
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
                "GEMM {m}x{k}x{n}: strict/scalar mode must be bit-identical"
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
    let mut state = seed | 1;
    let ids = (0..batch * lookups_per_sample)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % u64::from(rows)) as u32
        })
        .collect();
    IdList::new(ids, vec![lookups_per_sample as u32; batch])
}

struct EmbedRow {
    batch: usize,
    seconds_1t: f64,
    seconds_4t: f64,
}

/// Times pooled embedding lookups (SparseLengthsSum, tracing off) at one
/// and four pool threads, and asserts both produce identical output.
fn bench_embedding(batches: &[usize], dim: usize, lookups: usize, repeats: usize) -> Vec<EmbedRow> {
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
            let seconds_1t =
                drec_par::with_pool(&one, || time_min(repeats, || sls.run(&mut ctx, &[&ids])));
            let seconds_4t =
                drec_par::with_pool(&four, || time_min(repeats, || sls.run(&mut ctx, &[&ids])));
            EmbedRow {
                batch,
                seconds_1t,
                seconds_4t,
            }
        })
        .collect()
}

struct ModelRow {
    model: &'static str,
    batch: usize,
    seconds: f64,
}

/// Times end-to-end forward passes and asserts outputs are bit-identical
/// across pool sizes.
fn bench_models(
    models: &[ModelId],
    scale: ModelScale,
    batches: &[usize],
    repeats: usize,
) -> Vec<ModelRow> {
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
            let seconds = time_min(repeats, || model.run(inputs.clone()).unwrap());
            println!("  {:<5} batch {batch:>5}: {}", id.name(), fmt_secs(seconds));
            rows.push(ModelRow {
                model: id.name(),
                batch,
                seconds,
            });
        }
    }
    rows
}

#[allow(clippy::too_many_arguments)]
fn write_json(
    path: &str,
    host_parallelism: usize,
    second_core: f64,
    smoke: bool,
    scale: ModelScale,
    gemm: &[GemmRow],
    quant_sls: &[QuantSlsRow],
    gemm_fma: &[GemmFmaRow],
    skinny: &[SkinnyRow],
    gates: &[Gate],
    quantize: &[QuantizeRow],
    threads_sweep: &[(usize, f64)],
    embedding: &[EmbedRow],
    models: &[ModelRow],
    gate_speedup: Option<f64>,
    threads4_speedup: Option<f64>,
) {
    let mut s = String::from("{\n");
    s.push_str(&format!(
        "  \"host\": {{\"parallelism\": {host_parallelism}, \"second_core_throughput\": {}}},\n  \"mode\": \"{}\",\n  \"model_scale\": \"{scale:?}\",\n  \"kernel_backend\": \"{}\",\n",
        json_f64(second_core),
        if smoke { "smoke" } else { "full" },
        simd::backend_label()
    ));
    // Gate verdicts sit at the top level so a skipped gate cannot hide in
    // a nested null: each is "ok", "FAILED: …" or "skipped: <reason>".
    s.push_str("  \"gates\": {");
    for (i, gate) in gates.iter().enumerate() {
        s.push_str(&format!(
            "{}\"{}\": \"{}\"",
            if i == 0 { "" } else { ", " },
            gate.name,
            gate.verdict()
        ));
    }
    s.push_str("},\n");
    s.push_str("  \"quantized_sls\": [\n");
    for (i, r) in quant_sls.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"encoding\": \"{}\", \"dim\": {}, \"scalar_gb_per_s\": {}, \"vector_gb_per_s\": {}, \"speedup\": {}}}{}\n",
            r.encoding,
            r.dim,
            json_f64(r.scalar_gb_s),
            json_f64(r.vector_gb_s),
            json_f64(r.speedup),
            if i + 1 < quant_sls.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"quantize_i8\": [\n");
    for (i, r) in quantize.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"dim\": {}, \"scalar_ns_per_element\": {}, \"dispatched_ns_per_element\": {}, \"speedup\": {}}}{}\n",
            r.dim,
            json_f64(r.scalar_ns),
            json_f64(r.dispatched_ns),
            json_f64(r.scalar_ns / r.dispatched_ns),
            if i + 1 < quantize.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"gemm_fma\": [\n");
    for (i, r) in gemm_fma.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"size\": {}, \"scalar_gflop_per_s\": {}, \"fma_gflop_per_s\": {}, \"speedup\": {}}}{}\n",
            r.size,
            json_f64(r.scalar_gflops),
            json_f64(r.fma_gflops),
            json_f64(r.speedup),
            if i + 1 < gemm_fma.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"gemm_skinny\": [\n");
    for (i, r) in skinny.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"layer\": \"{}\", \"k\": {}, \"n\": {}, \"m\": {}, \"us_1_thread\": {}, \"us_2_threads\": {}}}{}\n",
            r.layer,
            r.k,
            r.n,
            r.m,
            json_f64(r.seconds_1t * 1e6),
            json_f64(r.seconds_2t * 1e6),
            if i + 1 < skinny.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"gemm_single_thread\": [\n");
    for (i, r) in gemm.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"size\": {}, \"transposed_ref_seconds\": {}, \"transposed_blocked_seconds\": {}, \"transposed_speedup\": {}, \"matmul_ref_seconds\": {}, \"matmul_blocked_seconds\": {}, \"matmul_speedup\": {}}}{}\n",
            r.size,
            json_f64(r.ref_t_seconds),
            json_f64(r.blocked_t_seconds),
            json_f64(r.t_speedup),
            json_f64(r.ref_mm_seconds),
            json_f64(r.blocked_mm_seconds),
            json_f64(r.mm_speedup),
            if i + 1 < gemm.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"gemm_thread_sweep\": [\n");
    for (i, (threads, seconds)) in threads_sweep.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"threads\": {threads}, \"seconds\": {}}}{}\n",
            json_f64(*seconds),
            if i + 1 < threads_sweep.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"embedding_pooling\": [\n");
    for (i, r) in embedding.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"batch\": {}, \"seconds_1_thread\": {}, \"seconds_4_threads\": {}}}{}\n",
            r.batch,
            json_f64(r.seconds_1t),
            json_f64(r.seconds_4t),
            if i + 1 < embedding.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, r) in models.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"model\": \"{}\", \"batch\": {}, \"seconds\": {}}}{}\n",
            r.model,
            r.batch,
            json_f64(r.seconds),
            if i + 1 < models.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"checks\": {\n");
    s.push_str("    \"parallel_bit_identical\": true,\n");
    s.push_str("    \"quantized_vector_bit_identical\": true,\n");
    s.push_str("    \"gemm_fma_within_ulp_bound\": true,\n");
    let vector_gates = simd::active_backend() == KernelBackend::Avx2Fma;
    s.push_str(&format!(
        "    \"int8_sls_dim64_speedup\": {},\n    \"int8_sls_speedup_gate\": {},\n",
        quant_sls
            .iter()
            .find(|r| r.encoding == "int8" && r.dim == SLS_GATE_DIM)
            .map_or("null".to_string(), |r| json_f64(r.speedup)),
        if vector_gates {
            INT8_SLS_SPEEDUP_GATE.to_string()
        } else {
            "null".to_string()
        }
    ));
    s.push_str(&format!(
        "    \"gemm_fma_speedup\": {},\n    \"gemm_fma_speedup_gate\": {},\n",
        gemm_fma
            .last()
            .map_or("null".to_string(), |r| json_f64(r.speedup)),
        if vector_gates {
            GEMM_FMA_SPEEDUP_GATE.to_string()
        } else {
            "null".to_string()
        }
    ));
    s.push_str(&format!(
        "    \"gemm_512_single_thread_speedup\": {},\n",
        gate_speedup.map_or("null".to_string(), json_f64)
    ));
    s.push_str(&format!(
        "    \"gemm_512_speedup_gate\": {GEMM_SPEEDUP_GATE},\n    \"threads4_speedup\": {}\n",
        threads4_speedup.map_or("null".to_string(), json_f64)
    ));
    s.push_str("  }\n}\n");
    std::fs::write(path, s).expect("write BENCH_kernels.json");
}

fn main() {
    let args = parse_args();
    let host_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let scale = if args.tiny || args.smoke {
        ModelScale::Tiny
    } else {
        ModelScale::Paper
    };
    println!(
        "kernel_bench: host parallelism {host_parallelism}, {} mode, {scale:?} model scale, kernel backend {}",
        if args.smoke { "smoke" } else { "full" },
        simd::backend_label()
    );

    println!("Checking parallel == sequential (bit-identical) on GEMM edge shapes...");
    check_gemm_determinism();
    println!("  ok");

    println!("Checking dispatched GEMM vs scalar blocked kernel (ULP bound / strict identity)...");
    check_gemm_fma_accuracy();
    println!("  ok");

    let (sls_rows, sls_ids, sls_repeats) = if args.smoke || args.quick {
        (1024usize, 16_384usize, 3usize)
    } else {
        (4096, 65_536, 7)
    };
    println!(
        "Quantized pooled sums at dim {SLS_GATE_DIM} ({sls_ids} lookups over {sls_rows} rows, dispatched vs scalar oracle):"
    );
    let quant_sls = bench_quantized_sls(SLS_GATE_DIM, sls_rows, sls_ids, sls_repeats);
    for r in &quant_sls {
        println!(
            "  {:<4} scalar {:.2} GB/s -> dispatched {:.2} GB/s ({:.2}x)",
            r.encoding, r.scalar_gb_s, r.vector_gb_s, r.speedup
        );
    }

    println!("Int8 row encoder, one 4096-row table (dispatched vs scalar oracle, ns per element):");
    let quantize: Vec<QuantizeRow> = QUANTIZE_DIMS
        .iter()
        .map(|&dim| bench_quantize_i8(dim, if args.smoke || args.quick { 20 } else { 50 }))
        .collect();
    for r in &quantize {
        println!(
            "  dim {:<3} scalar {:.2} -> dispatched {:.2} ({:.2}x)",
            r.dim,
            r.scalar_ns,
            r.dispatched_ns,
            r.scalar_ns / r.dispatched_ns
        );
    }
    let slowest = quantize
        .iter()
        .max_by(|a, b| (a.dispatched_ns / a.scalar_ns).total_cmp(&(b.dispatched_ns / b.scalar_ns)))
        .expect("two dims");
    let quantize_gate = Gate {
        name: "quantize_i8_dispatched_3x_scalar",
        what: "int8 encoder t(dispatched) / t(scalar)",
        worst: (
            slowest.dispatched_ns / slowest.scalar_ns,
            format!("dim {}", slowest.dim),
        ),
        limit: QUANTIZE_GATE,
        skipped: (simd::active_backend() != KernelBackend::Avx2Fma).then(|| {
            format!(
                "kernel backend is {}: the dispatched encoder is the scalar oracle",
                simd::backend_label()
            )
        }),
    };

    let fma_sizes: &[usize] = if args.smoke { &[128] } else { &[128, 256, 512] };
    let fma_repeats = if args.smoke || args.quick { 3 } else { 5 };
    println!("GEMM dispatched (FMA) vs scalar blocked, single thread:");
    let gemm_fma: Vec<GemmFmaRow> = fma_sizes
        .iter()
        .map(|&size| {
            let row = bench_gemm_fma(size, fma_repeats);
            println!(
                "  {size:>4}³ scalar {:.2} GFLOP/s -> dispatched {:.2} GFLOP/s ({:.2}x)",
                row.scalar_gflops, row.fma_gflops, row.speedup
            );
            row
        })
        .collect();

    if simd::active_backend() == KernelBackend::Avx2Fma {
        let int8 = quant_sls
            .iter()
            .find(|r| r.encoding == "int8")
            .expect("int8 row present");
        assert!(
            int8.speedup >= INT8_SLS_SPEEDUP_GATE,
            "int8 pooled-sum vector speedup {:.2}x at dim {SLS_GATE_DIM} below the {INT8_SLS_SPEEDUP_GATE}x gate",
            int8.speedup
        );
        println!(
            "Gate: int8 pooled-sum vector {:.2}x >= {INT8_SLS_SPEEDUP_GATE}x at dim {SLS_GATE_DIM} — ok",
            int8.speedup
        );
        let worst_fma = gemm_fma
            .iter()
            .map(|r| r.speedup)
            .fold(f64::INFINITY, f64::min);
        assert!(
            worst_fma >= GEMM_FMA_SPEEDUP_GATE,
            "FMA GEMM speedup {worst_fma:.2}x below the {GEMM_FMA_SPEEDUP_GATE}x gate"
        );
        println!("Gate: FMA GEMM {worst_fma:.2}x >= {GEMM_FMA_SPEEDUP_GATE}x — ok");
    } else {
        println!(
            "Note: kernel backend is {} (no AVX2+FMA vector path active); SIMD speedup gates skipped",
            simd::backend_label()
        );
    }

    // Calibrated on both sides of the sweep: on a shared host the second
    // core can leave while it runs.
    let second_core_before = second_core_throughput();
    let skinny_repeats = if args.smoke || args.quick { 100 } else { 200 };
    println!("GEMM skinny sweep (serving batch sizes at two FC layers, µs per product):");
    let skinny = bench_gemm_skinny(skinny_repeats);
    let second_core = second_core_before.min(second_core_throughput());
    for &(layer, _, _) in &SKINNY_LAYERS {
        for (label, pick) in [
            ("1 thread ", (|r| r.seconds_1t) as fn(&SkinnyRow) -> f64),
            ("2 threads", |r| r.seconds_2t),
        ] {
            let cells: Vec<String> = skinny
                .iter()
                .filter(|r| r.layer == layer)
                .map(|r| format!("m={} {:.1}", r.m, pick(r) * 1e6))
                .collect();
            println!("  {layer:<14} {label}: {}", cells.join("  "));
        }
    }
    let (cliff, two) = skinny_worst(&skinny);
    let gates = [
        quantize_gate,
        Gate {
            name: "gemm_skinny_no_cliff",
            what: "skinny GEMM t(m) / t(4*ceil(m/4)) on one thread",
            worst: cliff,
            limit: SKINNY_CLIFF_GATE,
            skipped: None,
        },
        Gate {
            name: "gemm_skinny_two_threads_never_lose",
            what: "skinny GEMM t(2 threads) / t(1 thread)",
            worst: two,
            limit: SKINNY_TWO_THREAD_GATE,
            skipped: if host_parallelism == 1 {
                Some("single core".to_string())
            } else if second_core < SECOND_CORE_FLOOR {
                Some(format!(
                    "single core (two spinning threads did {second_core:.2}x the work of one)"
                ))
            } else {
                None
            },
        },
    ];

    let gemm_sizes: &[usize] = if args.smoke { &[48] } else { &[128, 512] };
    let gemm_repeats = if args.smoke || args.quick { 2 } else { 5 };
    println!("GEMM old-vs-new, single thread:");
    let gemm: Vec<GemmRow> = gemm_sizes
        .iter()
        .map(|&size| {
            let row = bench_gemm(size, gemm_repeats);
            println!(
                "  {size:>4}³ transposed: seed {} -> blocked {} ({:.2}x); matmul: seed {} -> blocked {} ({:.2}x)",
                fmt_secs(row.ref_t_seconds),
                fmt_secs(row.blocked_t_seconds),
                row.t_speedup,
                fmt_secs(row.ref_mm_seconds),
                fmt_secs(row.blocked_mm_seconds),
                row.mm_speedup,
            );
            row
        })
        .collect();

    let sweep_size = if args.smoke { 64 } else { 512 };
    println!("GEMM thread sweep at {sweep_size}³ (blocked transposed kernel):");
    let threads_sweep: Vec<(usize, f64)> = [1usize, 2, 4]
        .iter()
        .map(|&threads| {
            let seconds = bench_gemm_threads(sweep_size, threads, gemm_repeats);
            println!("  {threads} thread(s): {}", fmt_secs(seconds));
            (threads, seconds)
        })
        .collect();
    let threads4_speedup = Some(threads_sweep[0].1 / threads_sweep[2].1);

    let (dim, lookups, embed_batches): (usize, usize, Vec<usize>) = if args.smoke {
        (16, 8, vec![1, 16])
    } else {
        (64, 40, vec![1, 64, 1024])
    };
    let embed_repeats = if args.smoke || args.quick { 2 } else { 5 };
    println!("Pooled embedding lookups (dim {dim}, {lookups} lookups/sample):");
    let embedding = bench_embedding(&embed_batches, dim, lookups, embed_repeats);
    for r in &embedding {
        println!(
            "  batch {:>5}: 1 thread {}, 4 threads {}",
            r.batch,
            fmt_secs(r.seconds_1t),
            fmt_secs(r.seconds_4t)
        );
    }

    let model_batches: Vec<usize> = if args.smoke {
        vec![1, 16]
    } else {
        vec![1, 64, 1024]
    };
    let model_repeats = if args.smoke || args.quick { 1 } else { 3 };
    println!("End-to-end forward passes ({scale:?} scale):");
    let models = bench_models(
        &[ModelId::Rm2, ModelId::Dien],
        scale,
        &model_batches,
        model_repeats,
    );

    let gate_speedup = gemm.iter().find(|r| r.size == 512).map(|r| r.t_speedup);
    write_json(
        "BENCH_kernels.json",
        host_parallelism,
        second_core,
        args.smoke,
        scale,
        &gemm,
        &quant_sls,
        &gemm_fma,
        &skinny,
        &gates,
        &quantize,
        &threads_sweep,
        &embedding,
        &models,
        gate_speedup,
        threads4_speedup,
    );
    println!("Wrote BENCH_kernels.json");

    for gate in &gates {
        let verdict = gate.verdict();
        assert!(
            !verdict.starts_with("FAILED"),
            "Gate {}: {verdict}",
            gate.name
        );
        println!(
            "Gate: worst {} {:.2}x <= {:.2}x ({}) — {verdict}",
            gate.what, gate.worst.0, gate.limit, gate.worst.1
        );
    }

    if !args.smoke {
        let speedup = gate_speedup.expect("512-size row present in full mode");
        assert!(
            speedup >= GEMM_SPEEDUP_GATE,
            "blocked transposed GEMM speedup {speedup:.2}x at 512³ below the {GEMM_SPEEDUP_GATE}x gate"
        );
        println!(
            "Gate: blocked transposed GEMM {speedup:.2}x >= {GEMM_SPEEDUP_GATE}x at 512³ — ok"
        );
        if let Some(t4) = threads4_speedup {
            if host_parallelism >= 4 {
                assert!(
                    t4 > 1.2,
                    "4-thread pool adds no speedup ({t4:.2}x) on a {host_parallelism}-way host"
                );
                println!("Gate: 4-thread speedup {t4:.2}x — ok");
            } else {
                println!(
                    "Note: host has {host_parallelism} core(s); 4-thread speedup {t4:.2}x reported, gate not enforced"
                );
            }
        }
    }
    println!("All checks passed.");
}
