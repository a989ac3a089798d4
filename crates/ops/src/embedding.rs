use std::sync::Arc;

use drec_store::{EmbeddingStore, PinnedTable};
use drec_tensor::{ParamInit, Tensor};
use drec_trace::{BranchProfile, CodeFootprint, CodeRegion, WorkVector};

use crate::op::check_arity;
use crate::{kind_cost, ExecContext, OpError, OpKind, Operator, Result, Value};

/// Rate at which the per-lookup validity/segment-boundary branch inside a
/// sparse gather kernel is taken. Mostly-taken but irregular: predictors
/// without a per-site bias table (Broadwell's, in this model) stay
/// under-trained across the scattered history contexts and mispredict
/// heavily — the bad-speculation slots on RM1/RM2 in Fig 8/15.
const GATHER_BRANCH_TAKEN_RATE: f64 = 0.7;

/// Minimum `f32` elements a parallel chunk of batch samples should carry;
/// below this the spawn overhead outweighs the gather work.
const MIN_CHUNK_ELEMS: usize = 1 << 10;

/// Chunk size (in output elements) for parallelizing a gather over batch
/// samples of `dim` elements each: sample-aligned, sized for roughly four
/// chunks per pool thread, floored at [`MIN_CHUNK_ELEMS`]. Depends only on
/// the workload shape and thread count via chunk *count*, while per-sample
/// math stays sequential — so results are bit-identical to the serial loop.
pub(crate) fn sample_chunk_elems(batch: usize, dim: usize, threads: usize) -> usize {
    let samples = batch
        .div_ceil(threads * 4)
        .max(MIN_CHUNK_ELEMS / dim.max(1))
        .max(1);
    samples * dim
}

/// Applies a segment's pooling epilogue (mean normalisation) in place.
pub(crate) fn pool_segment(acc: &mut [f32], mode: PoolMode, len: u32) {
    if mode == PoolMode::Mean && len > 0 {
        let inv = 1.0 / len as f32;
        for a in acc.iter_mut() {
            *a *= inv;
        }
    }
}

/// Start offset of each sample's segment in the flat id list.
pub(crate) fn segment_starts(lengths: &[u32]) -> Vec<usize> {
    let mut starts = Vec::with_capacity(lengths.len());
    let mut pos = 0usize;
    for &len in lengths {
        starts.push(pos);
        pos += len as usize;
    }
    starts
}

/// Where an [`EmbeddingTable`]'s physical rows live.
#[derive(Debug)]
enum Backing {
    /// A dense tensor owned by the table (the original direct path).
    Dense(Tensor),
    /// A pinned table inside a shared [`EmbeddingStore`] (sharded,
    /// possibly quantized, possibly hot-row cached).
    Store(PinnedTable),
}

/// An embedding table with a production-sized *virtual* row space backed by
/// a truncated physical buffer.
///
/// The paper's tables reach GBs; allocating them physically would be
/// wasteful since the study never trains. `EmbeddingTable` allocates
/// `physical_rows = min(virtual_rows, physical_cap)` rows of real storage
/// while reserving address space for all `virtual_rows`. Functional lookups
/// read row `id % physical_rows`; the *trace* records the untruncated
/// virtual address, so cache simulators see production-sized, irregular
/// footprints. This substitution is documented in DESIGN.md.
///
/// Physical rows live either in a dense tensor owned by the table
/// ([`EmbeddingTable::new`]) or in a shared [`EmbeddingStore`]
/// ([`EmbeddingTable::new_in_store`]) — the trace contract is identical in
/// both cases, and the store's `f32` encoding reproduces the dense path
/// bit for bit.
#[derive(Debug)]
pub struct EmbeddingTable {
    backing: Backing,
    physical_rows: usize,
    virtual_rows: usize,
    dim: usize,
    base: u64,
}

impl EmbeddingTable {
    fn validate(virtual_rows: usize, dim: usize, physical_cap: usize) -> Result<()> {
        if virtual_rows == 0 || dim == 0 || physical_cap == 0 {
            return Err(OpError::InvalidInput {
                op: "EmbeddingTable",
                message: format!(
                    "table shape must be non-zero, got virtual_rows={virtual_rows} \
                     dim={dim} physical_cap={physical_cap}"
                ),
            });
        }
        Ok(())
    }

    /// Creates a table of `virtual_rows × dim`, physically capped at
    /// `physical_cap` rows, owning its rows as a dense tensor.
    ///
    /// # Errors
    ///
    /// [`OpError::InvalidInput`] if `virtual_rows`, `dim`, or
    /// `physical_cap` is zero.
    pub fn new(
        virtual_rows: usize,
        dim: usize,
        physical_cap: usize,
        ctx: &mut ExecContext,
        init: &mut ParamInit,
    ) -> Result<Arc<Self>> {
        Self::validate(virtual_rows, dim, physical_cap)?;
        let physical_rows = virtual_rows.min(physical_cap);
        let data = init.uniform(&[physical_rows, dim], -0.05, 0.05);
        let base = ctx.alloc_param((virtual_rows * dim * 4) as u64);
        Ok(Arc::new(EmbeddingTable {
            backing: Backing::Dense(data),
            physical_rows,
            virtual_rows,
            dim,
            base,
        }))
    }

    /// Like [`EmbeddingTable::new`], but registers the physical rows in
    /// `store` under `(namespace, ordinal)` instead of owning them. If
    /// the pair is already registered (another worker built the same
    /// model from the same seed) the existing rows are shared.
    ///
    /// The parameter RNG always advances by exactly one table draw, so a
    /// store-backed build consumes the same `init` stream as a dense
    /// build and every downstream parameter (FC weights, further tables)
    /// stays bit-identical. On the dedup path the draw is skipped over
    /// ([`ParamInit::skip`]), not made: nothing is generated or allocated
    /// for a table the store already holds.
    ///
    /// # Errors
    ///
    /// [`OpError::InvalidInput`] on a zero dimension or a store
    /// registration conflict.
    #[allow(clippy::too_many_arguments)]
    pub fn new_in_store(
        virtual_rows: usize,
        dim: usize,
        physical_cap: usize,
        ctx: &mut ExecContext,
        init: &mut ParamInit,
        store: &Arc<EmbeddingStore>,
        namespace: u64,
        ordinal: u32,
    ) -> Result<Arc<Self>> {
        Self::validate(virtual_rows, dim, physical_cap)?;
        let physical_rows = virtual_rows.min(physical_cap);
        let registered = store.registered(namespace, ordinal, physical_rows, dim);
        let handle = registered.and_then(|hit| match hit {
            Some(handle) => {
                init.skip(physical_rows * dim);
                Ok(handle)
            }
            None => {
                let data = init.uniform(&[physical_rows, dim], -0.05, 0.05);
                store.register(namespace, ordinal, physical_rows, dim, data.as_slice())
            }
        });
        let handle = handle.map_err(|e| OpError::InvalidInput {
            op: "EmbeddingTable",
            message: e.to_string(),
        })?;
        let base = ctx.alloc_param((virtual_rows * dim * 4) as u64);
        Ok(Arc::new(EmbeddingTable {
            backing: Backing::Store(store.pin(handle)),
            physical_rows,
            virtual_rows,
            dim,
            base,
        }))
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Virtual (logical) row count — what ids are sampled against.
    pub fn virtual_rows(&self) -> usize {
        self.virtual_rows
    }

    /// Physically allocated row count.
    pub fn physical_rows(&self) -> usize {
        self.physical_rows
    }

    /// Whether rows resolve through a shared [`EmbeddingStore`].
    pub fn store_backed(&self) -> bool {
        matches!(self.backing, Backing::Store(_))
    }

    /// The store pin backing this table, when store-backed.
    pub fn store_pin(&self) -> Option<&PinnedTable> {
        match &self.backing {
            Backing::Store(pin) => Some(pin),
            Backing::Dense(_) => None,
        }
    }

    /// The physical row a virtual `id` resolves to.
    pub fn physical_row(&self, id: u32) -> u32 {
        ((id as usize) % self.physical_rows) as u32
    }

    /// Bytes of parameters at the *virtual* size (what a production
    /// deployment would hold).
    pub fn virtual_bytes(&self) -> u64 {
        (self.virtual_rows * self.dim * 4) as u64
    }

    /// Adds row `id`'s contents into `acc` (`acc[i] += row[i]`, element
    /// `i` combining only with element `i`). Both backings run through
    /// the same runtime-dispatched kernels ([`drec_tensor::simd`], AVX2
    /// on capable hosts) whose vector and scalar paths are bit-identical
    /// by contract, so the store's `f32` encoding matches the dense path
    /// bit for bit on every backend and thread count.
    pub(crate) fn sum_row(&self, id: u32, acc: &mut [f32]) {
        let phys = (id as usize) % self.physical_rows;
        match &self.backing {
            Backing::Dense(data) => {
                let row = &data.as_slice()[phys * self.dim..(phys + 1) * self.dim];
                drec_tensor::simd::sum_f32_into(row, acc);
            }
            Backing::Store(pin) => pin.sum_row(phys as u32, acc),
        }
    }

    /// Adds the rows of the bag `ids` into `acc`, first id first — one
    /// sample's pooled lookup. Bit-identical to one
    /// [`EmbeddingTable::sum_row`] per id; a store-backed table reads
    /// the whole bag as one residency transaction
    /// ([`PinnedTable::sum_rows`]).
    pub(crate) fn sum_rows(&self, ids: &[u32], acc: &mut [f32]) {
        match &self.backing {
            Backing::Dense(_) => ids.iter().for_each(|&id| self.sum_row(id, acc)),
            Backing::Store(pin) => {
                pin.sum_rows(ids.iter().map(|&id| self.physical_row(id)), acc);
            }
        }
    }

    /// Copies the rows of `ids` into `dst`, id `t` to
    /// `dst[t * dim..(t + 1) * dim]` — one sample's full-sequence
    /// gather, one residency transaction on a store-backed table.
    fn copy_rows(&self, ids: &[u32], dst: &mut [f32]) {
        match &self.backing {
            Backing::Dense(_) => {
                for (&id, cell) in ids.iter().zip(dst.chunks_mut(self.dim)) {
                    self.copy_row(id, cell);
                }
            }
            Backing::Store(pin) => {
                pin.read_rows(ids.iter().map(|&id| self.physical_row(id)), dst);
            }
        }
    }

    /// Copies row `id`'s contents into `dst` (length `dim`).
    fn copy_row(&self, id: u32, dst: &mut [f32]) {
        let phys = (id as usize) % self.physical_rows;
        match &self.backing {
            Backing::Dense(data) => {
                dst.copy_from_slice(&data.as_slice()[phys * self.dim..(phys + 1) * self.dim]);
            }
            Backing::Store(pin) => pin.read_row(phys as u32, dst),
        }
    }

    /// Row contents for `id` (wrapped into the physical buffer).
    /// Dense-backed tables only; tests use it for expected values.
    #[cfg(test)]
    fn row(&self, id: u32) -> &[f32] {
        let phys = (id as usize) % self.physical_rows;
        match &self.backing {
            Backing::Dense(data) => &data.as_slice()[phys * self.dim..(phys + 1) * self.dim],
            Backing::Store(_) => panic!("row() is for dense-backed tables"),
        }
    }

    /// Virtual address of row `id`.
    fn row_addr(&self, id: u32) -> u64 {
        self.base + (id as u64 % self.virtual_rows as u64) * (self.dim as u64 * 4)
    }
}

/// Returns the first id in `ids` past `table`'s virtual row space as a
/// typed error, so malformed requests shed instead of silently wrapping
/// (or, in a serving worker, panicking).
pub(crate) fn check_ids_in_range(
    op: &'static str,
    ids: &[u32],
    table: &EmbeddingTable,
) -> Result<()> {
    let space = table.virtual_rows();
    match ids.iter().find(|&&id| (id as usize) >= space) {
        Some(&id) => Err(OpError::IndexOutOfRange { op, id, space }),
        None => Ok(()),
    }
}

/// Opens the gather-side trace record: reserves the sampler and records
/// the id-list read. The caller records the row reads next
/// ([`record_row_reads`]), then closes with [`finish_gather_trace`].
#[allow(clippy::too_many_arguments)]
fn begin_gather_trace(
    ctx: &mut ExecContext,
    table: &EmbeddingTable,
    expected_lookups: u64,
    ids_addr: u64,
    ids_bytes: u64,
    out_bytes: u64,
) {
    let row_bytes = (table.dim() * 4) as u64;
    let lines_per_row = row_bytes.div_ceil(64);
    ctx.reserve_mem_events(expected_lookups * lines_per_row + ids_bytes / 64 + out_bytes / 64 + 2);
    ctx.record_read(ids_addr, ids_bytes);
}

/// Records one row read per id, in id order. Values are gathered by the
/// one (parallel, bag-at-a-time) path whether or not a trace is taken;
/// the trace only needs the addresses, and those depend on the ids alone.
fn record_row_reads(
    ctx: &mut ExecContext,
    table: &EmbeddingTable,
    ids: impl IntoIterator<Item = u32>,
) {
    let row_bytes = (table.dim() * 4) as u64;
    for id in ids {
        ctx.record_read(table.row_addr(id), row_bytes);
    }
}

/// Closes the gather-side trace record with the aggregate work evidence.
#[allow(clippy::too_many_arguments)]
fn finish_gather_trace(
    ctx: &mut ExecContext,
    kind: OpKind,
    dispatch: CodeRegion,
    kernel: CodeRegion,
    table: &EmbeddingTable,
    lookups: f64,
    ids_bytes: u64,
    out_addr: u64,
    out_bytes: u64,
    pooled: bool,
) {
    let dim = table.dim();
    let row_bytes = (dim * 4) as u64;
    ctx.record_write(out_addr, out_bytes);

    let pool_flops = if pooled { lookups * dim as f64 } else { 0.0 };
    ctx.add_work(WorkVector {
        fma_flops: 0.0,
        other_flops: pool_flops,
        int_ops: lookups * 4.0,
        contig_load_elems: ids_bytes as f64 / 4.0,
        contig_store_elems: out_bytes as f64 / 4.0,
        gather_rows: lookups,
        gather_row_bytes: row_bytes as f64,
        vectorizable: 0.9,
    });
    let cost = kind_cost(kind);
    let iterations = lookups * dim as f64 / cost.elems_per_iter;
    ctx.add_branches(BranchProfile {
        loop_branches: iterations,
        data_branches: lookups,
        data_taken_rate: GATHER_BRANCH_TAKEN_RATE,
        indirect_branches: 4.0,
    });
    ctx.set_code(CodeFootprint {
        dispatch,
        kernel,
        hot_bytes: cost.hot_loop_bytes,
        invocations: 1,
        iterations,
    });
}

/// How a pooled lookup combines a sample's gathered rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolMode {
    /// Elementwise sum (Caffe2 `SparseLengthsSum`).
    Sum,
    /// Elementwise mean (Caffe2 `SparseLengthsMean`); empty segments pool
    /// to zeros.
    Mean,
}

/// Pooled embedding lookup (Caffe2 `SparseLengthsSum` /
/// `SparseLengthsMean`): for each sample, gathers its ids' rows and pools
/// them into one `dim`-wide vector.
#[derive(Debug)]
pub struct SparseLengthsSum {
    table: Arc<EmbeddingTable>,
    mode: PoolMode,
    dispatch: CodeRegion,
    kernel: CodeRegion,
}

impl SparseLengthsSum {
    /// Creates a sum-pooled lookup over `table`.
    pub fn new(table: Arc<EmbeddingTable>, ctx: &mut ExecContext) -> Self {
        Self::with_mode(table, PoolMode::Sum, ctx)
    }

    /// Creates a pooled lookup with an explicit [`PoolMode`].
    pub fn with_mode(table: Arc<EmbeddingTable>, mode: PoolMode, ctx: &mut ExecContext) -> Self {
        let kind = match mode {
            PoolMode::Sum => OpKind::SparseLengthsSum,
            PoolMode::Mean => OpKind::SparseLengthsMean,
        };
        SparseLengthsSum {
            table,
            mode,
            dispatch: ctx.alloc_dispatch(kind),
            kernel: ctx.kernel_region(kind),
        }
    }

    /// The table this op reads.
    pub fn table(&self) -> &Arc<EmbeddingTable> {
        &self.table
    }

    /// The pooling mode.
    pub fn mode(&self) -> PoolMode {
        self.mode
    }
}

impl Operator for SparseLengthsSum {
    fn kind(&self) -> OpKind {
        match self.mode {
            PoolMode::Sum => OpKind::SparseLengthsSum,
            PoolMode::Mean => OpKind::SparseLengthsMean,
        }
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn param_bytes(&self) -> u64 {
        self.table.virtual_bytes()
    }

    fn run(&self, ctx: &mut ExecContext, inputs: &[&Value]) -> Result<Value> {
        check_arity("SparseLengthsSum", inputs, 1)?;
        let ids = inputs[0].ids_ref("SparseLengthsSum")?;
        check_ids_in_range("SparseLengthsSum", &ids.ids, &self.table)?;
        let batch = ids.batch();
        let dim = self.table.dim();
        let tracing = ctx.tracing_enabled();
        let out_bytes = (batch * dim * 4) as u64;
        let lookups = ids.total_lookups() as u64;

        if tracing {
            begin_gather_trace(
                ctx,
                &self.table,
                lookups,
                inputs[0].addr,
                inputs[0].byte_size(),
                out_bytes,
            );
            record_row_reads(ctx, &self.table, ids.ids.iter().copied());
        }
        // Output drawn from the context arena (handed out zeroed).
        let mut out = Tensor::from_pooled(ctx.take_buffer(batch * dim), &[batch, dim]);
        // Samples are independent, so the bag loop fans out over the pool
        // in sample-aligned chunks. Per-sample accumulation order is
        // unchanged — bit-identical to serial.
        let starts = segment_starts(&ids.lengths);
        let pool = drec_par::current();
        let chunk = sample_chunk_elems(batch, dim, pool.threads());
        pool.for_each_chunk_mut(out.as_mut_slice(), chunk, |offset, block| {
            let first = offset / dim;
            for (s, acc) in block.chunks_mut(dim).enumerate() {
                let sample = first + s;
                let len = ids.lengths[sample];
                let start = starts[sample];
                self.table
                    .sum_rows(&ids.ids[start..start + len as usize], acc);
                pool_segment(acc, self.mode, len);
            }
        });
        let out_addr = ctx.alloc_activation(out_bytes);
        if tracing {
            if self.mode == PoolMode::Mean {
                // The normalisation pass adds one multiply per element.
                ctx.add_work(WorkVector {
                    other_flops: (batch * dim) as f64,
                    vectorizable: 0.95,
                    ..WorkVector::default()
                });
            }
            finish_gather_trace(
                ctx,
                self.kind(),
                self.dispatch,
                self.kernel,
                &self.table,
                lookups as f64,
                inputs[0].byte_size(),
                out_addr,
                out_bytes,
                true,
            );
        }
        let mut v = Value::dense(out);
        v.addr = out_addr;
        Ok(v)
    }
}

/// Which ids an [`EmbeddingGather`] extracts from each sample's segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GatherMode {
    /// One id per sample: the segment entry at this position.
    Position(usize),
    /// All ids per sample, which must have uniform segment length; output
    /// is the concatenated `[batch, seq_len * dim]` sequence.
    FullSequence,
}

/// Unpooled embedding lookup (Caffe2 `Gather`) used by the attention-based
/// models (DIN fetches one behaviour position per local activation unit;
/// DIEN fetches the full behaviour sequence for its GRUs).
#[derive(Debug)]
pub struct EmbeddingGather {
    table: Arc<EmbeddingTable>,
    mode: GatherMode,
    dispatch: CodeRegion,
    kernel: CodeRegion,
}

impl EmbeddingGather {
    /// Creates a gather of `mode` over `table`.
    pub fn new(table: Arc<EmbeddingTable>, mode: GatherMode, ctx: &mut ExecContext) -> Self {
        EmbeddingGather {
            table,
            mode,
            dispatch: ctx.alloc_dispatch(OpKind::Gather),
            kernel: ctx.kernel_region(OpKind::Gather),
        }
    }

    /// The table gathered from.
    pub fn table(&self) -> &Arc<EmbeddingTable> {
        &self.table
    }
}

impl Operator for EmbeddingGather {
    fn kind(&self) -> OpKind {
        OpKind::Gather
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn param_bytes(&self) -> u64 {
        // The table is owned (reported) by whichever op was registered
        // first in the graph; gathers sharing a table report 0 to avoid
        // double counting. Graph-level accounting uses table identity.
        0
    }

    fn run(&self, ctx: &mut ExecContext, inputs: &[&Value]) -> Result<Value> {
        check_arity("Gather", inputs, 1)?;
        let ids = inputs[0].ids_ref("Gather")?;
        check_ids_in_range("Gather", &ids.ids, &self.table)?;
        let batch = ids.batch();
        let dim = self.table.dim();
        let tracing = ctx.tracing_enabled();
        let row_bytes = (dim * 4) as u64;

        let lookups = match self.mode {
            GatherMode::Position(_) => batch as u64,
            GatherMode::FullSequence => ids.total_lookups() as u64,
        };
        if tracing {
            begin_gather_trace(
                ctx,
                &self.table,
                lookups,
                inputs[0].addr,
                inputs[0].byte_size(),
                lookups * row_bytes,
            );
        }

        let out = match self.mode {
            GatherMode::Position(p) => {
                // Validate every segment up front so the copy loop is
                // infallible.
                if let Some((_, &len)) = ids
                    .lengths
                    .iter()
                    .enumerate()
                    .find(|&(_, &len)| (len as usize) <= p)
                {
                    return Err(OpError::InvalidInput {
                        op: "Gather",
                        message: format!("position {p} out of range for segment of length {len}"),
                    });
                }
                let starts = segment_starts(&ids.lengths);
                if tracing {
                    let picked = starts.iter().map(|&start| ids.ids[start + p]);
                    record_row_reads(ctx, &self.table, picked);
                }
                let mut out = Tensor::from_pooled(ctx.take_buffer(batch * dim), &[batch, dim]);
                let pool = drec_par::current();
                let chunk = sample_chunk_elems(batch, dim, pool.threads());
                pool.for_each_chunk_mut(out.as_mut_slice(), chunk, |offset, block| {
                    let first = offset / dim;
                    for (s, dst) in block.chunks_mut(dim).enumerate() {
                        let id = ids.ids[starts[first + s] + p];
                        self.table.copy_row(id, dst);
                    }
                });
                out
            }
            GatherMode::FullSequence => {
                let seq_len = ids.lengths.first().copied().unwrap_or(0) as usize;
                if ids.lengths.iter().any(|&l| l as usize != seq_len) {
                    return Err(OpError::InvalidInput {
                        op: "Gather",
                        message: "full-sequence gather requires uniform segment lengths"
                            .to_string(),
                    });
                }
                if tracing {
                    record_row_reads(ctx, &self.table, ids.ids.iter().copied());
                }
                let sample_elems = seq_len * dim;
                let mut out = Tensor::from_pooled(
                    ctx.take_buffer(batch * sample_elems),
                    &[batch, sample_elems],
                );
                if sample_elems > 0 {
                    let pool = drec_par::current();
                    let chunk = sample_chunk_elems(batch, sample_elems, pool.threads());
                    pool.for_each_chunk_mut(out.as_mut_slice(), chunk, |offset, block| {
                        let first = offset / sample_elems;
                        for (s, dst) in block.chunks_mut(sample_elems).enumerate() {
                            let pos = (first + s) * seq_len;
                            self.table.copy_rows(&ids.ids[pos..pos + seq_len], dst);
                        }
                    });
                }
                out
            }
        };

        let out_bytes = (out.numel() * 4) as u64;
        let out_addr = ctx.alloc_activation(out_bytes);
        if tracing {
            finish_gather_trace(
                ctx,
                OpKind::Gather,
                self.dispatch,
                self.kernel,
                &self.table,
                lookups as f64,
                inputs[0].byte_size(),
                out_addr,
                out_bytes,
                false,
            );
        }
        let mut v = Value::dense(out);
        v.addr = out_addr;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IdList;

    fn setup() -> (ExecContext, ParamInit) {
        (ExecContext::with_tracing(1 << 16), ParamInit::new(1))
    }

    #[test]
    fn sls_pools_rows() {
        let (mut ctx, mut init) = setup();
        let table = EmbeddingTable::new(10, 4, 10, &mut ctx, &mut init).unwrap();
        let sls = SparseLengthsSum::new(Arc::clone(&table), &mut ctx);
        let ids = ctx.external_input(Value::ids(IdList::new(vec![1, 2, 3], vec![2, 1])));
        let out = sls.execute(&mut ctx, "sls", &[&ids]).unwrap();
        let t = out.as_dense().unwrap();
        assert_eq!(t.dims(), &[2, 4]);
        // Sample 0 = row1 + row2; sample 1 = row3.
        for d in 0..4 {
            let expect = table.row(1)[d] + table.row(2)[d];
            assert!((t.get(&[0, d]).unwrap() - expect).abs() < 1e-6);
            assert!((t.get(&[1, d]).unwrap() - table.row(3)[d]).abs() < 1e-6);
        }
    }

    #[test]
    fn sls_trace_records_gathers() {
        let (mut ctx, mut init) = setup();
        let table = EmbeddingTable::new(1000, 16, 100, &mut ctx, &mut init).unwrap();
        let sls = SparseLengthsSum::new(table, &mut ctx);
        let ids = ctx.external_input(Value::ids(IdList::new(
            (0..40).map(|i| i * 13 % 1000).collect(),
            vec![10, 10, 10, 10],
        )));
        sls.execute(&mut ctx, "sls", &[&ids]).unwrap();
        let run = ctx.take_run_trace(4, 0);
        let t = &run.ops[0];
        assert_eq!(t.work.gather_rows, 40.0);
        assert_eq!(t.work.gather_row_bytes, 64.0);
        assert_eq!(t.branches.data_branches, 40.0);
    }

    #[test]
    fn mean_pooling_averages_rows() {
        let (mut ctx, mut init) = setup();
        let table = EmbeddingTable::new(10, 4, 10, &mut ctx, &mut init).unwrap();
        let mean = SparseLengthsSum::with_mode(Arc::clone(&table), PoolMode::Mean, &mut ctx);
        let ids = ctx.external_input(Value::ids(IdList::new(vec![1, 3], vec![2])));
        let out = mean.execute(&mut ctx, "mean", &[&ids]).unwrap();
        let t = out.as_dense().unwrap();
        for d in 0..4 {
            let expect = (table.row(1)[d] + table.row(3)[d]) / 2.0;
            assert!((t.get(&[0, d]).unwrap() - expect).abs() < 1e-6);
        }
        assert_eq!(mean.kind(), OpKind::SparseLengthsMean);
    }

    #[test]
    fn mean_pooling_empty_segment_is_zero() {
        let (mut ctx, mut init) = setup();
        let table = EmbeddingTable::new(10, 4, 10, &mut ctx, &mut init).unwrap();
        let mean = SparseLengthsSum::with_mode(table, PoolMode::Mean, &mut ctx);
        let ids = ctx.external_input(Value::ids(IdList::new(vec![2], vec![0, 1])));
        let out = mean.execute(&mut ctx, "mean", &[&ids]).unwrap();
        let t = out.as_dense().unwrap();
        assert!(t.row(0).unwrap().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn virtual_rows_exceed_physical() {
        let (mut ctx, mut init) = setup();
        let table = EmbeddingTable::new(1_000_000, 8, 64, &mut ctx, &mut init).unwrap();
        assert_eq!(table.physical_rows(), 64);
        assert_eq!(table.virtual_rows(), 1_000_000);
        // Distinct virtual ids mapping to the same physical row still get
        // distinct trace addresses.
        assert_ne!(table.row_addr(0), table.row_addr(64));
        assert_eq!(table.row(0), table.row(64));
    }

    #[test]
    fn gather_position_extracts_single_id() {
        let (mut ctx, mut init) = setup();
        let table = EmbeddingTable::new(10, 4, 10, &mut ctx, &mut init).unwrap();
        let g = EmbeddingGather::new(Arc::clone(&table), GatherMode::Position(1), &mut ctx);
        let ids = ctx.external_input(Value::ids(IdList::new(vec![5, 7, 2, 9], vec![2, 2])));
        let out = g.execute(&mut ctx, "g", &[&ids]).unwrap();
        let t = out.as_dense().unwrap();
        assert_eq!(t.dims(), &[2, 4]);
        assert_eq!(&t.as_slice()[0..4], table.row(7));
        assert_eq!(&t.as_slice()[4..8], table.row(9));
    }

    #[test]
    fn gather_position_out_of_range_errors() {
        let (mut ctx, mut init) = setup();
        let table = EmbeddingTable::new(10, 4, 10, &mut ctx, &mut init).unwrap();
        let g = EmbeddingGather::new(table, GatherMode::Position(5), &mut ctx);
        let ids = ctx.external_input(Value::ids(IdList::new(vec![1, 2], vec![2])));
        assert!(g.run(&mut ctx, &[&ids]).is_err());
    }

    #[test]
    fn gather_full_sequence_layout() {
        let (mut ctx, mut init) = setup();
        let table = EmbeddingTable::new(10, 3, 10, &mut ctx, &mut init).unwrap();
        let g = EmbeddingGather::new(Arc::clone(&table), GatherMode::FullSequence, &mut ctx);
        let ids = ctx.external_input(Value::ids(IdList::new(vec![1, 2, 3, 4], vec![2, 2])));
        let out = g.execute(&mut ctx, "g", &[&ids]).unwrap();
        let t = out.as_dense().unwrap();
        assert_eq!(t.dims(), &[2, 6]);
        assert_eq!(&t.as_slice()[3..6], table.row(2));
    }

    #[test]
    fn gather_full_sequence_requires_uniform_lengths() {
        let (mut ctx, mut init) = setup();
        let table = EmbeddingTable::new(10, 3, 10, &mut ctx, &mut init).unwrap();
        let g = EmbeddingGather::new(table, GatherMode::FullSequence, &mut ctx);
        let ids = ctx.external_input(Value::ids(IdList::new(vec![1, 2, 3], vec![2, 1])));
        assert!(g.run(&mut ctx, &[&ids]).is_err());
    }

    #[test]
    fn zero_sized_table_is_a_typed_error() {
        let (mut ctx, mut init) = setup();
        for (rows, dim, cap) in [(0, 4, 10), (10, 0, 10), (10, 4, 0)] {
            let err = EmbeddingTable::new(rows, dim, cap, &mut ctx, &mut init).unwrap_err();
            assert!(matches!(
                err,
                OpError::InvalidInput {
                    op: "EmbeddingTable",
                    ..
                }
            ));
        }
    }

    #[test]
    fn out_of_range_id_is_a_typed_error_not_a_wrap() {
        let (mut ctx, mut init) = setup();
        let table = EmbeddingTable::new(10, 4, 10, &mut ctx, &mut init).unwrap();
        let sls = SparseLengthsSum::new(Arc::clone(&table), &mut ctx);
        let ids = ctx.external_input(Value::ids(IdList::new(vec![1, 10], vec![2])));
        assert_eq!(
            sls.run(&mut ctx, &[&ids]).unwrap_err(),
            OpError::IndexOutOfRange {
                op: "SparseLengthsSum",
                id: 10,
                space: 10
            }
        );
        let g = EmbeddingGather::new(table, GatherMode::Position(0), &mut ctx);
        let ids = ctx.external_input(Value::ids(IdList::new(vec![u32::MAX], vec![1])));
        assert_eq!(
            g.run(&mut ctx, &[&ids]).unwrap_err(),
            OpError::IndexOutOfRange {
                op: "Gather",
                id: u32::MAX,
                space: 10
            }
        );
    }

    fn store_with(
        encoding: drec_store::RowEncoding,
        cache_capacity_rows: usize,
    ) -> Arc<EmbeddingStore> {
        Arc::new(EmbeddingStore::new(drec_store::StoreConfig {
            encoding,
            cache_capacity_rows,
            ..drec_store::StoreConfig::default()
        }))
    }

    #[test]
    fn store_backed_f32_sls_is_bit_identical_to_dense() {
        let (mut ctx, mut init) = setup();
        let dense = EmbeddingTable::new(50, 8, 50, &mut ctx, &mut init).unwrap();
        let (mut sctx, mut sinit) = setup();
        let store = store_with(drec_store::RowEncoding::F32, 16);
        let stored =
            EmbeddingTable::new_in_store(50, 8, 50, &mut sctx, &mut sinit, &store, 1, 0).unwrap();
        assert!(stored.store_backed() && !dense.store_backed());

        let sls_d = SparseLengthsSum::new(dense, &mut ctx);
        let sls_s = SparseLengthsSum::new(stored, &mut sctx);
        let id_list = IdList::new(vec![3, 7, 7, 49, 0, 12], vec![2, 3, 1]);
        // Two passes so the second one runs against a warm hot-row cache.
        for pass in 0..2 {
            let ids_d = ctx.external_input(Value::ids(id_list.clone()));
            let ids_s = sctx.external_input(Value::ids(id_list.clone()));
            let out_d = sls_d.run(&mut ctx, &[&ids_d]).unwrap();
            let out_s = sls_s.run(&mut sctx, &[&ids_s]).unwrap();
            let (d, s) = (out_d.as_dense().unwrap(), out_s.as_dense().unwrap());
            for (a, b) in d.as_slice().iter().zip(s.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "pass {pass}");
            }
        }
        assert!(store.stats().cache_hits > 0);
    }

    #[test]
    fn store_backed_int8_sls_stays_within_dequant_bound() {
        let (mut ctx, mut init) = setup();
        let dense = EmbeddingTable::new(50, 8, 50, &mut ctx, &mut init).unwrap();
        let (mut sctx, mut sinit) = setup();
        let store = store_with(drec_store::RowEncoding::Int8, 0);
        let stored =
            EmbeddingTable::new_in_store(50, 8, 50, &mut sctx, &mut sinit, &store, 1, 0).unwrap();

        let sls_d = SparseLengthsSum::new(Arc::clone(&dense), &mut ctx);
        let sls_s = SparseLengthsSum::new(stored, &mut sctx);
        let id_list = IdList::new(vec![3, 7, 49, 0], vec![2, 2]);
        let ids_d = ctx.external_input(Value::ids(id_list.clone()));
        let ids_s = sctx.external_input(Value::ids(id_list.clone()));
        let out_d = sls_d.run(&mut ctx, &[&ids_d]).unwrap();
        let out_s = sls_s.run(&mut sctx, &[&ids_s]).unwrap();
        let (d, s) = (out_d.as_dense().unwrap(), out_s.as_dense().unwrap());
        // Each output sums 2 rows, so the pooled error is at most 2x the
        // worst per-row bound (plus accumulation noise, far below it).
        let bound: f32 = (0..50)
            .map(|r| drec_store::RowEncoding::Int8.error_bound(dense.row(r)))
            .fold(0.0, f32::max)
            * 2.5;
        for (a, b) in d.as_slice().iter().zip(s.as_slice()) {
            assert!((a - b).abs() <= bound, "{a} vs {b} (bound {bound})");
        }
    }
}
