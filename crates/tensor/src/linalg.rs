//! Linear-algebra kernels on [`Tensor`]: matrix multiply and reductions.
//!
//! # Blocking
//!
//! Every product is `A · Bᵀ` with both operands row-major along the
//! reduction dimension (`matmul` packs `Bᵀ` first). The output is computed
//! in register blocks of `R×4` cells, `R` in `1..=4` rows of A against four
//! rows of B: each loaded chunk of a B row is shared by all `R` A rows, so
//! a block of `R` output rows costs **one** pass over B whatever `R` is.
//! `R = 4` is the steady state; the last `m % 4` rows are the same block at
//! a smaller `R`, not a row-at-a-time loop — at serving batch sizes the
//! weights are the traffic, and a batch of 3 must not stream them three
//! times. The block exists twice, with the same shape: [`gemm_block`]
//! (scalar, four partial sums per cell, `chunks_exact`-style so LLVM
//! vectorizes without reassociation licence) and the 8-lane FMA
//! `simd::x86::gemm_block_fma`, which replaces it wholesale on AVX2+FMA
//! hosts. [`gemm_transposed_scalar`] and `DREC_GEMM_STRICT=1` pin the
//! scalar one.
//!
//! # Partition
//!
//! [`partition`] decides once per product, from `(m, k, n, threads)` alone:
//!
//! * **inline** when the pool has one thread or the product cannot give
//!   two tasks [`MIN_TASK_MACS`] multiply-adds each (a partial row block
//!   counted as a full one: it streams the same weights) — a fan-out costs
//!   a queue push, a condvar wake and a join, and below that floor they
//!   cost more than the second thread saves;
//! * **row chunks**, whole row quads, when there are at least as many
//!   quads as threads (`m ≥ 4 · threads`) — each task streams all of B
//!   into its own rows;
//! * **column tiles**, multiples of four columns, otherwise — each task
//!   streams its own slice of B into its own columns of every row, which
//!   is how a batch of 1–4 reaches the second core at all.
//!
//! Row chunks are disjoint `chunks_mut` sub-slices and column tiles are
//! `drec_par`'s disjoint column strips, so no task can touch another's
//! cells and there is no `unsafe` in the partition.
//!
//! # Why the bits cannot change
//!
//! Each output cell is reduced by one fixed instruction sequence over its
//! own A row and B row: [`dot_cell`] for the scalar kernel (four lanes in
//! `p` order, `(l0 + l1) + (l2 + l3)`, scalar k-tail), `dot_fma` for the
//! FMA kernel (one 8-lane FMA chain, `hsum8`, scalar k-tail). The register
//! block keeps one private accumulator per cell and feeds it in the same
//! order; only the loads are shared. `R`, the column a tile starts at,
//! chunk boundaries and the thread that runs a task select *which* cells a
//! call computes, never *how* — so results are bit-identical for every
//! batch size, partition and thread count, and `DREC_THREADS=1` is plain
//! in-order execution of the same cells.
//!
//! The seed scalar kernels are kept as [`Tensor::matmul_reference`] /
//! [`Tensor::matmul_transposed_reference`]: they are the oracle for
//! property tests and the "old" side of `kernel_bench`'s old-vs-new
//! timings. (The seed `matmul` additionally skipped `a == 0.0`
//! contributions, which silently dropped `0 × NaN`/`0 × ∞` terms; the
//! blocked kernel performs the full IEEE computation.)

use crate::{Result, Tensor, TensorError};

/// Most rows per register block (output rows computed together).
const MR: usize = 4;
/// Columns per register block (output columns computed together).
const NR: usize = 4;
/// Partial-sum lanes along the reduction dimension.
const KU: usize = 4;
/// Fewest multiply-adds a pool task must carry for a fan-out to pay,
/// counting every register block as a full one (see [`partition`]).
///
/// Handing work to a parked worker costs a queue push, a futex wake and a
/// join: about 20 µs on the benchmark host, most of it the wake. The FMA
/// kernel retires about 25 multiply-adds per nanosecond at best, so a task
/// of 2²⁰ is 40 µs or more of arithmetic, twice what it costs to call.
const MIN_TASK_MACS: usize = 1 << 20;
/// Target row chunks per pool thread (slack for load balancing).
const CHUNKS_PER_THREAD: usize = 4;

/// Four-lane dot product with a fixed combine order.
///
/// Every output cell of the scalar GEMM — inside a register block or in
/// an edge column — reduces through this exact sequence, which is what
/// makes results independent of blocking and thread count.
#[inline]
fn dot_cell(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0.0f32; KU];
    let a_chunks = a.chunks_exact(KU);
    let b_chunks = b.chunks_exact(KU);
    let a_tail = a_chunks.remainder();
    let b_tail = b_chunks.remainder();
    for (ca, cb) in a_chunks.zip(b_chunks) {
        for l in 0..KU {
            acc[l] += ca[l] * cb[l];
        }
    }
    let mut sum = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for (x, y) in a_tail.iter().zip(b_tail) {
        sum += x * y;
    }
    sum
}

/// Computes the `R×4` output block `out[i][j] = aᵢ · bⱼ` for `R` A rows and
/// four B rows, sharing each loaded reduction chunk across all `4·R`
/// cells.
///
/// Cell-for-cell identical to [`dot_cell`] (same lane split, same combine
/// order, same tail) — only the load scheduling differs.
#[inline]
fn micro_rx4<const R: usize>(ar: [&[f32]; R], br: [&[f32]; NR], k: usize) -> [[f32; NR]; R] {
    let kc = k - k % KU;
    let acc = lanes_rx4(ar, br, kc);
    let mut out = [[0.0f32; NR]; R];
    for i in 0..R {
        for j in 0..NR {
            let lanes = acc[i][j];
            let mut sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
            for q in kc..k {
                sum += ar[i][q] * br[j][q];
            }
            out[i][j] = sum;
        }
    }
    out
}

/// The lane accumulators of an `R×4` block over the first `kc` (a multiple
/// of [`KU`]) reduction steps.
///
/// Out of line on purpose: compiled alone, the only stores the vectorizer
/// sees are whole lane arrays, so it packs each cell's four lanes into one
/// register. Inlined next to the combine, it packs *across* the four cells
/// of a row instead and pays a transpose per load for every `R` but 4.
#[inline(never)]
fn lanes_rx4<const R: usize>(ar: [&[f32]; R], br: [&[f32]; NR], kc: usize) -> [[[f32; KU]; NR]; R] {
    let mut acc = [[[0.0f32; KU]; NR]; R];
    let mut p = 0;
    while p < kc {
        let b: [&[f32; KU]; NR] = [
            br[0][p..p + KU].try_into().expect("chunk"),
            br[1][p..p + KU].try_into().expect("chunk"),
            br[2][p..p + KU].try_into().expect("chunk"),
            br[3][p..p + KU].try_into().expect("chunk"),
        ];
        for (acc_row, arow) in acc.iter_mut().zip(&ar) {
            let a: &[f32; KU] = arow[p..p + KU].try_into().expect("chunk");
            for j in 0..NR {
                for l in 0..KU {
                    acc_row[j][l] += a[l] * b[j][l];
                }
            }
        }
        p += KU;
    }
    acc
}

/// One register block of the scalar GEMM: `out[i][j] = ar[i] · B[c0 + j]`
/// for `R ≤ 4` rows of A against the `out[0].len()` rows of `b` (row-major
/// `[n, k]`) that start at row `c0`.
///
/// Columns go four at a time through [`micro_rx4`]; the columns past the
/// last full four call [`dot_cell`] itself.
fn gemm_block<const R: usize>(ar: [&[f32]; R], b: &[f32], c0: usize, out: &mut [&mut [f32]; R]) {
    let k = ar[0].len();
    let cols = out[0].len();
    let mut j = 0;
    while j + NR <= cols {
        let c = c0 + j;
        let br: [&[f32]; NR] = [
            &b[c * k..(c + 1) * k],
            &b[(c + 1) * k..(c + 2) * k],
            &b[(c + 2) * k..(c + 3) * k],
            &b[(c + 3) * k..(c + 4) * k],
        ];
        let block = micro_rx4(ar, br, k);
        for (out_row, cells) in out.iter_mut().zip(&block) {
            out_row[j..j + NR].copy_from_slice(cells);
        }
        j += NR;
    }
    while j < cols {
        let brow = &b[(c0 + j) * k..(c0 + j + 1) * k];
        for (arow, out_row) in ar.iter().zip(out.iter_mut()) {
            out_row[j] = dot_cell(arow, brow);
        }
        j += 1;
    }
}

/// The operands of one product and the kernel chosen for it — resolved
/// once per product (see [`crate::simd::gemm_fma_enabled`]), so there is
/// no per-cell branch.
#[derive(Clone, Copy)]
struct Product<'a> {
    a: &'a [f32],
    b: &'a [f32],
    k: usize,
    use_fma: bool,
}

impl Product<'_> {
    /// `out[i][j] = A[r0 + i] · B[c0 + j]` for any number of output rows:
    /// register blocks of [`MR`] rows, then one block of the remainder.
    fn rows(&self, r0: usize, c0: usize, out: &mut [&mut [f32]]) {
        for (q, block) in out.chunks_mut(MR).enumerate() {
            let r = r0 + q * MR;
            match block.len() {
                1 => self.block::<1>(r, c0, block),
                2 => self.block::<2>(r, c0, block),
                3 => self.block::<3>(r, c0, block),
                _ => self.block::<MR>(r, c0, block),
            }
        }
    }

    fn block<const R: usize>(&self, r0: usize, c0: usize, out: &mut [&mut [f32]]) {
        let k = self.k;
        let ar: [&[f32]; R] = std::array::from_fn(|i| &self.a[(r0 + i) * k..(r0 + i + 1) * k]);
        let out: &mut [&mut [f32]; R] = out.try_into().expect("a block of R rows");
        #[cfg(target_arch = "x86_64")]
        if self.use_fma {
            // SAFETY: `use_fma` is only true when the runtime probe
            // confirmed AVX2+FMA.
            unsafe { crate::simd::x86::gemm_block_fma(ar, self.b, c0, out) };
            return;
        }
        gemm_block(ar, self.b, c0, out);
    }

    /// Rows `r0..r0 + out_rows.len() / n` of the product, all `n` columns,
    /// into a contiguous run of whole output rows.
    fn row_chunk(&self, n: usize, r0: usize, out_rows: &mut [f32]) {
        for (q, quad) in out_rows.chunks_mut(MR * n).enumerate() {
            let mut rows: [&mut [f32]; MR] = Default::default();
            let mut count = 0;
            for (slot, row) in rows.iter_mut().zip(quad.chunks_mut(n)) {
                *slot = row;
                count += 1;
            }
            self.rows(r0 + q * MR, 0, &mut rows[..count]);
        }
    }
}

/// How one product is spread over the pool; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Partition {
    /// Run on the calling thread.
    Inline,
    /// Chunks of this many whole output rows (a multiple of [`MR`]).
    Rows(usize),
    /// Tiles of this many output columns (a multiple of [`NR`]).
    Cols(usize),
}

fn partition(m: usize, k: usize, n: usize, threads: usize) -> Partition {
    let quads = m.div_ceil(MR);
    // A block of one to three rows streams B exactly as a block of four
    // does and takes about as long, so work is counted in whole blocks.
    let work = (quads * MR).saturating_mul(k).saturating_mul(n);
    let fundable = work / MIN_TASK_MACS;
    if threads.min(fundable) < 2 {
        return Partition::Inline;
    }
    if quads >= threads {
        let chunks = (threads * CHUNKS_PER_THREAD).min(fundable);
        Partition::Rows(quads.div_ceil(chunks) * MR)
    } else {
        Partition::Cols(n.div_ceil(NR).div_ceil(threads.min(fundable)) * NR)
    }
}

fn gemm_transposed_impl(
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
    use_fma: bool,
) {
    assert_eq!(a.len(), m * k, "lhs buffer size");
    assert_eq!(b.len(), n * k, "rhs buffer size");
    assert_eq!(out.len(), m * n, "output buffer size");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        return;
    }
    let product = Product { a, b, k, use_fma };
    let pool = drec_par::current();
    match partition(m, k, n, pool.threads()) {
        Partition::Inline => product.row_chunk(n, 0, out),
        Partition::Rows(rows) => pool.for_each_chunk_mut(out, rows * n, |offset, out_rows| {
            product.row_chunk(n, offset / n, out_rows);
        }),
        Partition::Cols(cols) => pool.for_each_column_tile_mut(out, n, cols, |c0, tile| {
            product.rows(0, c0, tile);
        }),
    }
}

/// `out = A · Bᵀ` on raw row-major buffers: `a` is `[m, k]`, `b` is
/// `[n, k]`, `out` is `[m, n]`.
///
/// Row chunks or column tiles are distributed over the current
/// [`drec_par`] pool; results are bit-identical for every batch size and
/// thread count (see the module docs). On
/// AVX2+FMA hosts the dot cells run the 8-lane FMA micro-kernel (see
/// [`crate::simd`]) unless `DREC_FORCE_SCALAR=1` or `DREC_GEMM_STRICT=1`
/// pins the scalar blocked kernel. This free-function form exists so
/// operators can run repeated products into arena-recycled buffers
/// without constructing intermediate tensors.
///
/// # Panics
///
/// Panics if the slice lengths disagree with `m`, `k`, `n`.
pub fn gemm_transposed(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    gemm_transposed_impl(a, b, m, k, n, out, crate::simd::gemm_fma_enabled());
}

/// [`gemm_transposed`] pinned to the scalar blocked kernel regardless of
/// the dispatch probe — the accuracy oracle for the FMA GEMM's ULP gate
/// and the "scalar" side of `kernel_bench`'s speedup measurement. Output
/// is bit-identical to [`gemm_transposed`] under `DREC_GEMM_STRICT=1`
/// (or on non-AVX2 hosts).
///
/// # Panics
///
/// Panics if the slice lengths disagree with `m`, `k`, `n`.
pub fn gemm_transposed_scalar(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    gemm_transposed_impl(a, b, m, k, n, out, false);
}

impl Tensor {
    /// Matrix product `self · other` for rank-2 (or rank-1-as-row)
    /// tensors.
    ///
    /// Packs `other` into a transposed tile and runs the register-blocked
    /// kernel of [`Tensor::matmul_transposed`], so both products share
    /// one micro-kernel and one parallel path.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the inner dimensions
    /// disagree, or a rank error for tensors that are not matrices.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor> {
        let (m, k) = self.shape().as_matrix()?;
        let (k2, n) = other.shape().as_matrix()?;
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
            });
        }
        let b = other.as_slice();
        // Pack Bᵀ (cache-blocked transpose) so the reduction dimension is
        // contiguous for both operands.
        const T: usize = 32;
        let mut bt = vec![0.0f32; k * n];
        for j0 in (0..n).step_by(T) {
            let j1 = (j0 + T).min(n);
            for k0 in (0..k).step_by(T) {
                let k1 = (k0 + T).min(k);
                for j in j0..j1 {
                    for kk in k0..k1 {
                        bt[j * k + kk] = b[kk * n + j];
                    }
                }
            }
        }
        let mut out = vec![0.0f32; m * n];
        gemm_transposed(self.as_slice(), &bt, m, k, n, &mut out);
        Tensor::from_vec(out, &[m, n])
    }

    /// `self · otherᵀ` — the natural layout for fully-connected layers
    /// whose weights are stored `[out_features, in_features]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the feature dimensions
    /// disagree.
    pub fn matmul_transposed(&self, other: &Tensor) -> Result<Tensor> {
        let (m, k) = self.shape().as_matrix()?;
        let n = self.check_transposed_shapes("matmul_transposed", other)?;
        let mut out = vec![0.0f32; m * n];
        gemm_transposed(self.as_slice(), other.as_slice(), m, k, n, &mut out);
        Tensor::from_vec(out, &[m, n])
    }

    /// `self · otherᵀ` written into a caller-supplied buffer of `m·n`
    /// elements — the arena-friendly form used by FC and GRU, which draw
    /// `out` from the [`ExecContext`] buffer pool instead of allocating.
    ///
    /// [`ExecContext`]: ../drec_ops/struct.ExecContext.html
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the feature dimensions
    /// disagree or `out` has the wrong length.
    pub fn matmul_transposed_into(&self, other: &Tensor, out: &mut [f32]) -> Result<()> {
        let (m, k) = self.shape().as_matrix()?;
        let n = self.check_transposed_shapes("matmul_transposed_into", other)?;
        if out.len() != m * n {
            return Err(TensorError::ShapeDataMismatch {
                expected: m * n,
                actual: out.len(),
            });
        }
        gemm_transposed(self.as_slice(), other.as_slice(), m, k, n, out);
        Ok(())
    }

    /// Validates `self · otherᵀ` shapes and returns the output column
    /// count `n`.
    fn check_transposed_shapes(&self, op: &'static str, other: &Tensor) -> Result<usize> {
        let (_, k) = self.shape().as_matrix()?;
        let (n, k2) = other.shape().as_matrix()?;
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
            });
        }
        Ok(n)
    }

    /// The seed scalar `matmul` kernel (i-k-j loop, one running sum per
    /// cell, no zero-skipping): the reference oracle for property tests
    /// and the baseline side of `kernel_bench`.
    ///
    /// # Errors
    ///
    /// Same contract as [`Tensor::matmul`].
    pub fn matmul_reference(&self, other: &Tensor) -> Result<Tensor> {
        let (m, k) = self.shape().as_matrix()?;
        let (k2, n) = other.shape().as_matrix()?;
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_reference",
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
            });
        }
        let a = self.as_slice();
        let b = other.as_slice();
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for kk in 0..k {
                let av = a[i * k + kk];
                let brow = &b[kk * n..(kk + 1) * n];
                let orow = &mut out[i * n..(i + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
        Tensor::from_vec(out, &[m, n])
    }

    /// The seed scalar `matmul_transposed` kernel (single-accumulator dot
    /// per cell): reference oracle and `kernel_bench` baseline.
    ///
    /// # Errors
    ///
    /// Same contract as [`Tensor::matmul_transposed`].
    pub fn matmul_transposed_reference(&self, other: &Tensor) -> Result<Tensor> {
        let (m, k) = self.shape().as_matrix()?;
        let n = self.check_transposed_shapes("matmul_transposed_reference", other)?;
        let a = self.as_slice();
        let b = other.as_slice();
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            for j in 0..n {
                let brow = &b[j * k..(j + 1) * k];
                let mut acc = 0.0f32;
                for (&av, &bv) in arow.iter().zip(brow) {
                    acc += av * bv;
                }
                out[i * n + j] = acc;
            }
        }
        Tensor::from_vec(out, &[m, n])
    }

    /// Dot product of two rank-1 tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if lengths differ.
    pub fn dot(&self, other: &Tensor) -> Result<f32> {
        if self.dims() != other.dims() {
            return Err(TensorError::ShapeMismatch {
                op: "dot",
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
            });
        }
        Ok(self
            .as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(&a, &b)| a * b)
            .sum())
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.as_slice().iter().sum()
    }

    /// Maximum absolute element (0.0 for an empty tensor).
    pub fn max_abs(&self) -> f32 {
        self.as_slice().iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let i = Tensor::eye(3);
        assert_eq!(a.matmul(&i).unwrap(), a);
    }

    #[test]
    fn matmul_known_result() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rejects_bad_inner_dim() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn matmul_transposed_matches_matmul() {
        let a = Tensor::from_vec((0..12).map(|v| v as f32).collect(), &[3, 4]).unwrap();
        let w = Tensor::from_vec((0..8).map(|v| (v as f32) * 0.5).collect(), &[2, 4]).unwrap();
        // Build wᵀ explicitly and compare.
        let mut wt = Tensor::zeros(&[4, 2]);
        for r in 0..2 {
            for c in 0..4 {
                wt.set(&[c, r], w.get(&[r, c]).unwrap()).unwrap();
            }
        }
        let direct = a.matmul(&wt).unwrap();
        let fused = a.matmul_transposed(&w).unwrap();
        for (x, y) in direct.as_slice().iter().zip(fused.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn matmul_blocked_matches_naive_on_odd_sizes() {
        // Sizes straddling the register-block boundary exercise the edge
        // row/column paths.
        let m = 33;
        let k = 65;
        let n = 17;
        let a = Tensor::from_vec(
            (0..m * k).map(|v| ((v % 7) as f32) - 3.0).collect(),
            &[m, k],
        )
        .unwrap();
        let b = Tensor::from_vec(
            (0..k * n).map(|v| ((v % 5) as f32) - 2.0).collect(),
            &[k, n],
        )
        .unwrap();
        let c = a.matmul(&b).unwrap();
        let reference = a.matmul_reference(&b).unwrap();
        for (x, y) in c.as_slice().iter().zip(reference.as_slice()) {
            assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn matmul_propagates_nan_through_zero_lhs() {
        // The seed kernel skipped `a == 0.0` contributions, silently
        // turning 0 × NaN into 0. IEEE says the product is NaN.
        let a = Tensor::from_vec(vec![0.0, 1.0], &[1, 2]).unwrap();
        let b = Tensor::from_vec(vec![f32::NAN, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert!(c.as_slice()[0].is_nan(), "0 × NaN must poison the sum");
        assert_eq!(c.as_slice()[1], 4.0);
        // Same through an infinity: 0 × ∞ is NaN, not 0.
        let binf = Tensor::from_vec(vec![f32::INFINITY, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        assert!(a.matmul(&binf).unwrap().as_slice()[0].is_nan());
    }

    #[test]
    fn matmul_transposed_into_writes_buffer() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let w = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]).unwrap();
        let mut out = vec![7.0f32; 4];
        a.matmul_transposed_into(&w, &mut out).unwrap();
        assert_eq!(out, vec![1.0, 2.0, 3.0, 4.0]);
        let mut wrong = vec![0.0f32; 3];
        assert!(a.matmul_transposed_into(&w, &mut wrong).is_err());
    }

    #[test]
    fn partition_follows_the_documented_rule() {
        use Partition::{Cols, Inline, Rows};
        // Below the floor, or nobody to share with: the caller runs it.
        assert_eq!(partition(16, 64, 33, 4), Inline);
        assert_eq!(partition(8, 352, 256, 2), Inline);
        assert_eq!(partition(64, 1700, 1024, 1), Inline);
        // Fewer row quads than threads: columns, in multiples of four.
        assert_eq!(partition(1, 1700, 1024, 2), Cols(512));
        assert_eq!(partition(4, 1700, 1024, 2), Cols(512));
        assert_eq!(partition(9, 1700, 1024, 4), Cols(256));
        assert_eq!(partition(2, 1700, 1022, 4), Cols(256));
        // ...and no more tiles than the work can fund.
        assert_eq!(partition(3, 512, 1024, 4), Cols(512));
        // A quad for every thread: whole-quad row chunks.
        assert_eq!(partition(5, 1700, 1024, 2), Rows(4));
        assert_eq!(partition(64, 1700, 1024, 2), Rows(8));
    }

    #[test]
    fn gemm_transposed_handles_degenerate_dims() {
        let mut out = vec![1.0f32; 3];
        gemm_transposed(&[], &[], 3, 0, 1, &mut out[..3]);
        assert_eq!(out, vec![0.0; 3]);
    }

    #[test]
    fn dot_and_sum() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        let b = Tensor::from_vec(vec![4.0, 5.0, 6.0], &[3]).unwrap();
        assert_eq!(a.dot(&b).unwrap(), 32.0);
        assert_eq!(a.sum(), 6.0);
        assert_eq!(a.max_abs(), 3.0);
    }

    #[test]
    fn vector_times_matrix() {
        let v = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let m = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]).unwrap();
        let r = v.matmul(&m).unwrap();
        assert_eq!(r.dims(), &[1, 2]);
        assert_eq!(r.as_slice(), &[1.0, 2.0]);
    }
}
