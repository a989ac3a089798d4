use std::collections::HashMap;

use drec_trace::{
    AccessKind, AddressSpace, BranchProfile, CodeFootprint, CodeRegion, KernelClass, OpTrace,
    SampledMemTrace, WorkVector,
};

use crate::{kind_cost, OpKind, Value, ValuePayload};

/// Counters describing the context's reusable buffer arena.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// `take_buffer` calls satisfied from the free list.
    pub(crate) hits: u64,
    /// `take_buffer` calls that had to allocate fresh storage.
    pub misses: u64,
    /// Buffers returned to the free list over the context's lifetime.
    pub(crate) recycled: u64,
    /// Buffers currently parked on the free list.
    pub(crate) free_buffers: usize,
    /// Total capacity (in `f32` elements) parked on the free list.
    pub(crate) free_elems: usize,
}

/// Free list of activation buffers, reused across operator invocations so
/// steady-state inference does not allocate per output.
///
/// Buffers are handed out zeroed (`clear` + `resize`), matched best-fit by
/// capacity, and the list is capped so a single outsized batch cannot pin
/// memory forever.
#[derive(Debug, Default)]
struct BufferArena {
    free: Vec<Vec<f32>>,
    hits: u64,
    misses: u64,
    recycled: u64,
}

/// Upper bound on parked buffers; beyond this, recycles displace the
/// smallest parked buffer or are dropped.
const ARENA_MAX_FREE: usize = 32;

impl BufferArena {
    fn take(&mut self, len: usize) -> Vec<f32> {
        // Best fit: the smallest parked buffer whose capacity covers len.
        let mut best: Option<(usize, usize)> = None;
        for (i, buf) in self.free.iter().enumerate() {
            let cap = buf.capacity();
            if cap >= len && best.is_none_or(|(_, c)| cap < c) {
                best = Some((i, cap));
            }
        }
        match best {
            Some((i, _)) => {
                self.hits += 1;
                let mut buf = self.free.swap_remove(i);
                buf.clear();
                buf.resize(len, 0.0);
                buf
            }
            None => {
                self.misses += 1;
                vec![0.0; len]
            }
        }
    }

    fn recycle(&mut self, buf: Vec<f32>) {
        if buf.capacity() == 0 {
            return;
        }
        self.recycled += 1;
        if self.free.len() < ARENA_MAX_FREE {
            self.free.push(buf);
            return;
        }
        // Full: keep the largest ARENA_MAX_FREE buffers.
        if let Some((i, cap)) = self
            .free
            .iter()
            .enumerate()
            .map(|(i, b)| (i, b.capacity()))
            .min_by_key(|&(_, c)| c)
        {
            if buf.capacity() > cap {
                self.free[i] = buf;
            }
        }
    }

    fn stats(&self) -> ArenaStats {
        ArenaStats {
            hits: self.hits,
            misses: self.misses,
            recycled: self.recycled,
            free_buffers: self.free.len(),
            free_elems: self.free.iter().map(Vec::capacity).sum(),
        }
    }
}

/// Tracing configuration for an execution context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TraceOptions {
    /// Upper bound on retained memory events per operator; operators whose
    /// access streams are larger are systematically sampled down to this.
    pub(crate) target_events_per_op: usize,
}

impl Default for TraceOptions {
    fn default() -> Self {
        TraceOptions {
            target_events_per_op: 1 << 18,
        }
    }
}

/// The simulated process an inference runs inside: address space, shared
/// kernel code regions, and (optionally) the trace being recorded.
///
/// An `ExecContext` lives as long as the model: operator constructors
/// allocate parameter buffers and dispatch code regions from it, and every
/// traced inference records its op records into it until they are
/// drained ([`ExecContext::drain_ops`]). Execute operators through
/// [`crate::Operator::execute`] to capture per-op traces; calling
/// [`crate::Operator::run`] directly performs the functional computation
/// only.
#[derive(Debug)]
pub struct ExecContext {
    space: AddressSpace,
    kernel_regions: HashMap<OpKind, CodeRegion>,
    trace: Option<TraceState>,
    opts: TraceOptions,
    arena: BufferArena,
}

#[derive(Debug)]
struct TraceState {
    /// Closed records not yet drained.
    ops: Vec<OpTrace>,
    current: Option<CurrentOp>,
}

#[derive(Debug)]
struct CurrentOp {
    name: String,
    op_type: String,
    class: KernelClass,
    work: WorkVector,
    branches: BranchProfile,
    code: CodeFootprint,
    mem: SampledMemTrace,
    bytes_in: u64,
    bytes_out: u64,
}

impl Default for ExecContext {
    fn default() -> Self {
        Self::new()
    }
}

impl ExecContext {
    /// Context with tracing disabled (pure functional execution).
    pub fn new() -> Self {
        ExecContext {
            space: AddressSpace::new(),
            kernel_regions: HashMap::new(),
            trace: None,
            opts: TraceOptions::default(),
            arena: BufferArena::default(),
        }
    }

    /// Context that records traces, retaining at most
    /// `target_events_per_op` memory events per operator.
    pub fn with_tracing(target_events_per_op: usize) -> Self {
        let mut ctx = Self::new();
        ctx.opts = TraceOptions {
            target_events_per_op: target_events_per_op.max(1),
        };
        ctx.trace = Some(TraceState {
            ops: Vec::new(),
            current: None,
        });
        ctx
    }

    /// A second process image of the same model: the same address space
    /// (so activations allocated from here on never alias a parameter)
    /// and kernel code regions, an empty buffer arena and no trace.
    pub fn fork(&self) -> Self {
        ExecContext {
            space: self.space.clone(),
            kernel_regions: self.kernel_regions.clone(),
            trace: None,
            opts: self.opts,
            arena: BufferArena::default(),
        }
    }

    /// Enables or disables trace recording without resetting the address
    /// space (useful for warm-up runs).
    pub fn set_tracing(&mut self, enabled: bool) {
        if enabled && self.trace.is_none() {
            self.trace = Some(TraceState {
                ops: Vec::new(),
                current: None,
            });
        } else if !enabled {
            self.trace = None;
        }
    }

    /// True if a trace is being recorded.
    pub(crate) fn tracing_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// Sets the per-op retained-memory-event target used by the sampler.
    pub fn set_trace_target(&mut self, target_events_per_op: usize) {
        self.opts.target_events_per_op = target_events_per_op.max(1);
    }

    /// Allocates a parameter buffer (weights, embedding tables).
    pub(crate) fn alloc_param(&mut self, bytes: u64) -> u64 {
        self.space.alloc_data(bytes)
    }

    /// Allocates an activation buffer for an operator output.
    pub(crate) fn alloc_activation(&mut self, bytes: u64) -> u64 {
        self.space.alloc_data(bytes)
    }

    /// Allocates the per-instance dispatch code region for a new operator
    /// node of `kind`.
    pub(crate) fn alloc_dispatch(&mut self, kind: OpKind) -> CodeRegion {
        self.space.alloc_code(kind_cost(kind).dispatch_bytes)
    }

    /// The shared kernel code region for `kind`, allocated on first use.
    pub(crate) fn kernel_region(&mut self, kind: OpKind) -> CodeRegion {
        if let Some(&r) = self.kernel_regions.get(&kind) {
            return r;
        }
        let r = self.space.alloc_code(kind_cost(kind).kernel_bytes);
        self.kernel_regions.insert(kind, r);
        r
    }

    /// Assigns a fresh buffer address to an externally produced value
    /// (model inputs copied in by the data loader).
    pub fn external_input(&mut self, mut value: Value) -> Value {
        value.addr = self.space.alloc_data(value.byte_size());
        value
    }

    // ---- buffer arena ----

    /// Hands out a zeroed buffer of `len` elements, reusing recycled
    /// storage when a parked buffer is large enough.
    ///
    /// Pair with [`ExecContext::recycle_buffer`] (or construct the output
    /// with [`drec_tensor::Tensor::from_pooled`] and recycle it later via
    /// [`ExecContext::recycle_value`]) so steady-state inference reuses
    /// activations instead of allocating.
    pub(crate) fn take_buffer(&mut self, len: usize) -> Vec<f32> {
        self.arena.take(len)
    }

    /// Returns a scratch or activation buffer to the arena free list.
    pub(crate) fn recycle_buffer(&mut self, buf: Vec<f32>) {
        self.arena.recycle(buf);
    }

    /// Recycles the storage of a dead dense value (graph intermediates
    /// past their last use). Id-list values carry no `f32` storage and are
    /// simply dropped.
    pub fn recycle_value(&mut self, value: Value) {
        if let ValuePayload::Dense(t) = value.payload {
            self.arena.recycle(t.into_vec());
        }
    }

    /// Current arena counters (hit/miss/recycle totals and parked bytes).
    pub fn arena_stats(&self) -> ArenaStats {
        self.arena.stats()
    }

    // ---- trace recording (no-ops when tracing is off) ----

    /// Opens a per-operator trace record. Called by
    /// [`crate::Operator::execute`].
    pub(crate) fn begin_op(&mut self, name: &str, op_type: &str, class: KernelClass) {
        if let Some(t) = &mut self.trace {
            debug_assert!(t.current.is_none(), "begin_op while op in progress");
            t.current = Some(CurrentOp {
                name: name.to_string(),
                op_type: op_type.to_string(),
                class,
                work: WorkVector::default(),
                branches: BranchProfile::default(),
                code: CodeFootprint::empty(),
                mem: SampledMemTrace::with_period(1),
                bytes_in: 0,
                bytes_out: 0,
            });
        }
    }

    /// Declares the expected number of memory events for the current op so
    /// the sampler can pick a period. Must precede the first record call.
    pub(crate) fn reserve_mem_events(&mut self, estimated: u64) {
        let target = self.opts.target_events_per_op as u64;
        if let Some(cur) = self.current_mut() {
            let period = estimated.div_ceil(target).max(1);
            cur.mem = SampledMemTrace::with_period(period);
        }
    }

    /// Adds arithmetic/memory work to the current op.
    pub(crate) fn add_work(&mut self, work: WorkVector) {
        if let Some(cur) = self.current_mut() {
            cur.work = cur.work.combine(&work);
        }
    }

    /// Adds branch behaviour to the current op.
    pub(crate) fn add_branches(&mut self, branches: BranchProfile) {
        if let Some(cur) = self.current_mut() {
            cur.branches = cur.branches.combine(&branches);
        }
    }

    /// Sets the code footprint of the current op.
    pub(crate) fn set_code(&mut self, code: CodeFootprint) {
        if let Some(cur) = self.current_mut() {
            cur.code = code;
        }
    }

    /// Records a read of `bytes` starting at `addr` (line-granular).
    pub(crate) fn record_read(&mut self, addr: u64, bytes: u64) {
        if let Some(cur) = self.current_mut() {
            cur.mem.record_range(addr, bytes, AccessKind::Read);
        }
    }

    /// Records a write of `bytes` starting at `addr` (line-granular).
    pub(crate) fn record_write(&mut self, addr: u64, bytes: u64) {
        if let Some(cur) = self.current_mut() {
            cur.mem.record_range(addr, bytes, AccessKind::Write);
        }
    }

    /// Closes the current op record with its I/O and parameter byte
    /// counts.
    pub(crate) fn end_op(&mut self, bytes_in: u64, bytes_out: u64, param_bytes: u64) {
        if let Some(t) = &mut self.trace {
            if let Some(mut cur) = t.current.take() {
                cur.bytes_in = bytes_in;
                cur.bytes_out = bytes_out;
                t.ops.push(OpTrace {
                    param_bytes,
                    name: cur.name,
                    op_type: cur.op_type,
                    class: cur.class,
                    work: cur.work,
                    branches: cur.branches,
                    code: cur.code,
                    mem: cur.mem,
                    bytes_in: cur.bytes_in,
                    bytes_out: cur.bytes_out,
                });
            }
        }
    }

    /// Hands over the op records closed since the last drain, oldest
    /// first. The graph executor drains after every node, so a traced run
    /// holds at most one closed record at a time (none when tracing is
    /// off).
    pub fn drain_ops(&mut self) -> impl Iterator<Item = OpTrace> + '_ {
        self.trace.iter_mut().flat_map(|t| t.ops.drain(..))
    }

    fn current_mut(&mut self) -> Option<&mut CurrentOp> {
        self.trace.as_mut().and_then(|t| t.current.as_mut())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracing_off_records_nothing() {
        let mut ctx = ExecContext::new();
        ctx.begin_op("x", "FC", KernelClass::DenseMatmul);
        ctx.record_read(0, 64);
        ctx.end_op(0, 0, 0);
        let ops: Vec<_> = ctx.drain_ops().collect();
        assert!(ops.is_empty());
    }

    #[test]
    fn tracing_captures_op() {
        let mut ctx = ExecContext::with_tracing(1 << 10);
        ctx.begin_op("fc1", "FC", KernelClass::DenseMatmul);
        ctx.reserve_mem_events(10);
        ctx.add_work(WorkVector {
            fma_flops: 100.0,
            ..WorkVector::default()
        });
        ctx.record_read(4096, 256);
        ctx.end_op(16, 32, 8);
        let ops: Vec<_> = ctx.drain_ops().collect();
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].name, "fc1");
        assert_eq!(ops[0].work.fma_flops, 100.0);
        assert_eq!(ops[0].mem.events().len(), 4);
        assert_eq!(ops[0].bytes_in, 16);
    }

    #[test]
    fn sampler_respects_target() {
        let mut ctx = ExecContext::with_tracing(16);
        ctx.begin_op("big", "Gather", KernelClass::Gather);
        ctx.reserve_mem_events(1_000);
        for i in 0..1_000u64 {
            ctx.record_read(i * 64, 64);
        }
        ctx.end_op(0, 0, 0);
        let ops: Vec<_> = ctx.drain_ops().collect();
        let mem = &ops[0].mem;
        assert!(mem.events().len() <= 16);
        assert_eq!(mem.total_events(), 1_000);
    }

    #[test]
    fn arena_reuses_recycled_buffers() {
        let mut ctx = ExecContext::new();
        let buf = ctx.take_buffer(128);
        assert_eq!(buf.len(), 128);
        assert_eq!(ctx.arena_stats().misses, 1);
        ctx.recycle_buffer(buf);
        assert_eq!(ctx.arena_stats().free_buffers, 1);
        // A smaller request reuses the parked buffer, zeroed.
        let mut b2 = ctx.take_buffer(64);
        assert_eq!(b2.len(), 64);
        assert!(b2.iter().all(|&v| v == 0.0));
        assert_eq!(ctx.arena_stats().hits, 1);
        b2[0] = 3.0;
        ctx.recycle_buffer(b2);
        // Recycling a dense value parks its storage too.
        use drec_tensor::Tensor;
        ctx.recycle_value(Value::dense(Tensor::zeros(&[4, 4])));
        assert_eq!(ctx.arena_stats().free_buffers, 2);
        assert_eq!(ctx.arena_stats().recycled, 3);
    }

    #[test]
    fn arena_free_list_is_bounded() {
        let mut ctx = ExecContext::new();
        for _ in 0..100 {
            let buf = ctx.take_buffer(16);
            ctx.recycle_buffer(buf);
        }
        // One buffer ping-pongs; park many distinct ones.
        let bufs: Vec<_> = (0..100).map(|_| vec![0.0f32; 8]).collect();
        for b in bufs {
            ctx.recycle_buffer(b);
        }
        assert!(ctx.arena_stats().free_buffers <= 32);
    }

    #[test]
    fn kernel_region_shared_per_kind() {
        let mut ctx = ExecContext::new();
        let a = ctx.kernel_region(OpKind::Fc);
        let b = ctx.kernel_region(OpKind::Fc);
        let c = ctx.kernel_region(OpKind::Relu);
        assert_eq!(a, b);
        assert_ne!(a.base, c.base);
    }

    #[test]
    fn dispatch_regions_unique_per_instance() {
        let mut ctx = ExecContext::new();
        let a = ctx.alloc_dispatch(OpKind::Fc);
        let b = ctx.alloc_dispatch(OpKind::Fc);
        assert_ne!(a.base, b.base);
    }
}
