//! The GEMM's bit-identity contract, cell by cell: whatever the batch size,
//! the register block a row lands in, the partition (inline, row chunks,
//! column tiles) and the pool size, every output cell is bit for bit the
//! product of its A row and its B row alone — the 1×k·k×1 product, which
//! runs nothing but the kernel's single-cell reduction (`dot_fma` on the
//! FMA leg, `dot_cell` on the scalar leg and under `DREC_FORCE_SCALAR=1`).

use drec_par::ParPool;
use drec_tensor::{gemm_transposed, gemm_transposed_scalar, ParamInit};

type Gemm = fn(&[f32], &[f32], usize, usize, usize, &mut [f32]);

const M_MAX: usize = 13;
const NS: [usize; 7] = [1, 3, 4, 5, 31, 33, 1024];
const KS: [usize; 6] = [1, 7, 8, 9, 119, 1700];

/// Checks `gemm` over the whole grid m ∈ 1..=13 × [`NS`] × [`KS`] × 1–4
/// threads. The output starts as NaN, so a cell no task wrote fails too.
fn every_cell_is_its_own_product(name: &str, gemm: Gemm) {
    let pools: Vec<_> = (1..=4).map(ParPool::new).collect();
    for k in KS {
        for n in NS {
            let mut init = ParamInit::new((k * 4099 + n) as u64);
            let a = init.uniform(&[M_MAX, k], -2.0, 2.0);
            let b = init.uniform(&[n, k], -2.0, 2.0);
            let (a, b) = (a.as_slice(), b.as_slice());
            let mut want = vec![0.0f32; M_MAX * n];
            for (i, row) in want.chunks_mut(n).enumerate() {
                for (j, cell) in row.iter_mut().enumerate() {
                    let (arow, brow) = (&a[i * k..(i + 1) * k], &b[j * k..(j + 1) * k]);
                    gemm(arow, brow, 1, k, 1, std::slice::from_mut(cell));
                }
            }
            for pool in &pools {
                for m in 1..=M_MAX {
                    let mut got = vec![f32::NAN; m * n];
                    drec_par::with_pool(pool, || gemm(&a[..m * k], b, m, k, n, &mut got));
                    for (c, (g, w)) in got.iter().zip(&want).enumerate() {
                        assert_eq!(
                            g.to_bits(),
                            w.to_bits(),
                            "{name} {m}x{k}x{n} @ {} threads: cell ({}, {}) is {g}, its own product is {w}",
                            pool.threads(),
                            c / n,
                            c % n
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn dispatched_gemm_cells_equal_the_single_cell_product() {
    every_cell_is_its_own_product("gemm_transposed", gemm_transposed);
}

#[test]
fn scalar_gemm_cells_equal_the_single_cell_product() {
    every_cell_is_its_own_product("gemm_transposed_scalar", gemm_transposed_scalar);
}

/// Pool tasks one `m×k×n` product queues on a 4-thread pool.
fn tasks_queued(m: usize, k: usize, n: usize) -> u64 {
    let pool = ParPool::new(4);
    let mut init = ParamInit::new(5);
    let a = init.uniform(&[m, k], -1.0, 1.0);
    let b = init.uniform(&[n, k], -1.0, 1.0);
    let mut out = vec![0.0f32; m * n];
    let before = pool.stats().tasks;
    drec_par::with_pool(&pool, || {
        gemm_transposed(a.as_slice(), b.as_slice(), m, k, n, &mut out);
    });
    pool.stats().tasks - before
}

/// 16×64×33 is 33 792 multiply-adds — a few microseconds of arithmetic,
/// less than one wake. It must run on the caller.
#[test]
fn a_product_below_the_fan_out_floor_never_reaches_the_pool() {
    assert_eq!(tasks_queued(16, 64, 33), 0, "no task may be queued");
}

/// RM3's 1700→1024 layer at batch 1 has one row and 7 MB of weights: the
/// only way to the other threads is by columns, and it must take it.
#[test]
fn rm3_batch_one_product_splits_over_the_pool() {
    assert_eq!(tasks_queued(1, 1700, 1024), 4, "one column tile per thread");
}
