//! The layer replay of the traced run: recorded requests go through each
//! layer's public functions directly, on the benchmark thread, under
//! nested spans, so a request's time can be split by layer.
//!
//! `engine.run_batch` is the parent. Its children cannot be timed nested
//! inside it from outside the crate, so each is replayed separately on
//! the same inputs right after it; self time is the parent minus the sum
//! of its children. A replayed child reads rows its parent just read, so
//! it sees a hot-row cache at least as warm as the parent did.

use std::sync::Arc;
use std::time::{Duration, Instant};

use drec_core::serving::LatencyCurve;
use drec_models::{ModelId, ModelScale, RecModel};
use drec_ops::Value;
use drec_serve::{
    coalesce_inputs, split_outputs, BatcherConfig, DegradeConfig, EmbeddingStore, Engine,
    OverloadLadder, Request, RowDelta, RowEncoding, SharedQueue, StoreConfig, SubmitOptions,
    UpdateBatch, UpdateFault,
};
use drec_sync::EvictRing;
use drec_tier::{TierConfig, TierEngine};

use crate::report::Metrics;
use crate::stats::median;
use crate::trace::{self_time, SpanId, Tracer};
use crate::workloads::{model_key, MODEL_SEED};

/// Median seconds of each layer at one `(model, batch)` point.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTimes {
    pub run_batch: f64,
    pub coalesce: f64,
    pub plan: f64,
    pub split: f64,
    pub reference: f64,
    pub gather: f64,
    pub gemm: f64,
    /// Embedding rows one batch reads through the store.
    pub rows: usize,
    /// Floating-point operations of one batch's FC products.
    pub flops: f64,
}

/// A private engine plus a second, identically built model whose plan
/// and reference executor are called directly.
pub struct Replay {
    model_id: ModelId,
    engine: Engine,
    model: RecModel,
    /// Weights of every FC layer, `[out_features, in_features]`.
    fc_weights: Vec<drec_tensor::Tensor>,
}

fn build(id: ModelId, store: Option<&Arc<EmbeddingStore>>) -> RecModel {
    match store {
        // Same namespace as the runtime's engines: the build dedups to
        // the tables, cache and tier state the runtime just served from.
        Some(s) => id.build_with_store(ModelScale::Paper, MODEL_SEED, Arc::clone(s)),
        None => id.build(ModelScale::Paper, MODEL_SEED),
    }
    .expect("model builds")
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, Instant, Instant) {
    let start = Instant::now();
    let result = f();
    (result, start, Instant::now())
}

impl Replay {
    pub fn new(id: ModelId, store: Option<&Arc<EmbeddingStore>>) -> Replay {
        let curve = LatencyCurve::from_points(vec![(1, 1e-3), (64, 1e-2)]);
        let engine =
            Engine::with_store(build(id, store), curve, drec_par::current(), store.cloned());
        let mut model = build(id, store);
        model.compile_plan();
        let fc_weights = model
            .capture_fc_weights()
            .into_iter()
            .map(|(weights, _bias)| weights)
            .collect();
        Replay {
            model_id: id,
            engine,
            model,
            fc_weights,
        }
    }

    pub fn plan_stats(&self) -> (usize, usize, f64) {
        let s = self.model.plan_stats().expect("plan compiled in new");
        (s.ops_after, s.waves, s.compile_seconds)
    }

    /// Times every layer at batch size `batch` on consecutive slices of
    /// `pool` until `budget` is spent (at least `min_reps` times), and
    /// returns the medians. With `children` off only `engine.run_batch`
    /// is timed.
    pub fn measure(
        &mut self,
        pool: &[Vec<Value>],
        batch: usize,
        budget: Duration,
        min_reps: usize,
        children: bool,
        tracer: &mut Tracer,
    ) -> LayerTimes {
        let started = Instant::now();
        let mut samples: [Vec<f64>; 7] = Default::default();
        let mut out = LayerTimes::default();
        let mut rep = 0usize;
        while rep < min_reps || (started.elapsed() < budget && rep < 400) {
            let requests: Vec<Request> = (0..batch)
                .map(|i| {
                    let inputs = pool[(rep * batch + i) % pool.len()].clone();
                    Request::new(i as u64, inputs, SubmitOptions::default()).0
                })
                .collect();
            let mut push = |slot: usize, name, parent, start: Instant, end: Instant| -> SpanId {
                samples[slot].push((end - start).as_secs_f64());
                let id = tracer.record(name, parent, None, start, end);
                let span = tracer.span_mut(id);
                span.model = model_key(self.model_id);
                span.batch = batch;
                span.replayed = parent.is_some();
                id
            };
            let (exec, s, e) = timed(|| self.engine.run_batch(&requests));
            exec.expect("replayed batch executes");
            let root = push(0, "engine.run_batch", None, s, e);
            rep += 1;
            if !children {
                continue;
            }
            let spec = self.engine.spec().clone();
            let (inputs, s, e) = timed(|| coalesce_inputs(&spec, &requests));
            push(1, "engine.coalesce", Some(root), s, e);
            let (outputs, s, e) = timed(|| self.model.run(inputs.clone()));
            let outputs = outputs.expect("replayed plan executes");
            let plan = push(2, "graph.plan_execute", Some(root), s, e);
            let (_, s, e) = timed(|| split_outputs(&outputs, batch));
            push(3, "engine.split", Some(root), s, e);
            let (reference, s, e) = timed(|| self.model.run_reference(inputs.clone()));
            reference.expect("reference executor runs");
            push(4, "graph.reference", None, s, e);
            let (rows, s, e) = timed(|| self.gather(&inputs));
            out.rows = rows;
            if rows > 0 {
                push(5, "store.gather", Some(plan), s, e);
            }
            let (flops, s, e) = timed(|| self.gemm(batch));
            out.flops = flops;
            push(6, "tensor.gemm", Some(plan), s, e);
        }
        let [run_batch, coalesce, plan, split, reference, gather, gemm] =
            samples.map(|v| median(&v));
        LayerTimes {
            run_batch,
            coalesce,
            plan,
            split,
            reference,
            gather,
            gemm,
            ..out
        }
    }

    /// The batch's ids through `PinnedTable::sum_row`, as the pooled
    /// lookups read them. Returns the rows read (0 for dense builds).
    fn gather(&self, inputs: &[Value]) -> usize {
        let mut rows = 0;
        for binding in self.model.store_bindings() {
            let ids = inputs[binding.input_index]
                .ids_ref("replay")
                .expect("binding points at an ids input");
            let mut acc = vec![0.0f32; binding.pin.dim()];
            for &id in &ids.ids {
                binding.pin.sum_row(id % binding.physical_rows, &mut acc);
            }
            std::hint::black_box(&acc);
            rows += ids.ids.len();
        }
        rows
    }

    /// `gemm_transposed` at every FC layer's shape with `batch` rows.
    /// Returns the floating-point operations done.
    fn gemm(&self, batch: usize) -> f64 {
        let mut flops = 0.0;
        for weights in &self.fc_weights {
            let (n, k) = (weights.dims()[0], weights.dims()[1]);
            let a = vec![0.5f32; batch * k];
            let mut out = vec![0.0f32; batch * n];
            drec_tensor::gemm_transposed(&a, weights.as_slice(), batch, k, n, &mut out);
            std::hint::black_box(&out);
            flops += 2.0 * (batch * k * n) as f64;
        }
        flops
    }
}

/// The batch sizes that carried the most requests, with their share of
/// the requests among those chosen.
pub fn top_batches(hist: &[u64], keep: usize) -> Vec<(usize, f64)> {
    let mut sizes: Vec<(usize, u64)> = hist
        .iter()
        .enumerate()
        .filter(|&(size, &n)| size > 0 && n > 0)
        .map(|(size, &n)| (size, n))
        .collect();
    sizes.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    sizes.truncate(keep);
    let total: u64 = sizes.iter().map(|s| s.1).sum();
    sizes
        .into_iter()
        .map(|(size, n)| (size, n as f64 / total as f64))
        .collect()
}

/// What a lane's replay found beside the times it added to the metrics.
pub struct LaneReplay {
    /// Some children exceeded their parent by more than 10 %.
    pub flagged: bool,
    /// This lane's share of the FC floating-point operations a request costs.
    pub flops_per_req: f64,
    /// This lane's share of the embedding rows a request reads.
    pub rows_per_req: f64,
}

/// Replays one lane at the batch sizes it was observed at and adds its
/// `share` of the workload's per-request layer times to `m`.
pub fn replay_lane(
    replay: &mut Replay,
    pool: &[Vec<Value>],
    hist: &[u64],
    share: f64,
    budget: Duration,
    tracer: &mut Tracer,
    m: &mut Metrics,
) -> LaneReplay {
    let points = top_batches(hist, 3);
    let mut flagged = false;
    let (mut flops_per_req, mut rows_per_req) = (0.0, 0.0);
    for &(batch, weight) in &points {
        let t = replay.measure(pool, batch, budget / points.len() as u32, 5, true, tracer);
        let per_req = |seconds: f64| seconds * 1e6 / batch as f64 * weight * share;
        let (engine_self, over_engine) = self_time(t.run_batch, &[t.coalesce, t.plan, t.split]);
        let (graph_self, over_graph) = self_time(t.plan, &[t.gather, t.gemm]);
        flagged |= over_engine || over_graph;
        m.add("engine.us_per_req", per_req(t.run_batch));
        m.add("engine.coalesce_us_per_req", per_req(t.coalesce));
        m.add("engine.split_us_per_req", per_req(t.split));
        m.add("engine.self_us_per_req", per_req(engine_self));
        m.add("graph.plan_execute_us_per_req", per_req(t.plan));
        m.add("graph.reference_us_per_req", per_req(t.reference));
        m.add("graph.self_us_per_req", per_req(graph_self));
        m.add("store.gather_us_per_req", per_req(t.gather));
        m.add("tensor.gemm_us_per_req", per_req(t.gemm));
        flops_per_req += t.flops / batch as f64 * weight * share;
        rows_per_req += t.rows as f64 / batch as f64 * weight * share;
    }
    // The fixed grid, so runs with different observed batches compare.
    for (batch, name) in [
        (1, "engine.us_per_req.b1"),
        (8, "engine.us_per_req.b8"),
        (64, "engine.us_per_req.b64"),
    ] {
        let t = replay.measure(pool, batch, budget / 8, 2, false, tracer);
        m.add(name, t.run_batch * 1e6 / batch as f64 * share);
    }
    let (ops, waves, compile_seconds) = replay.plan_stats();
    m.add("graph.plan_ops", ops as f64 * share);
    m.add("graph.plan_waves", waves as f64 * share);
    m.add("graph.compile_us", compile_seconds * 1e6 * share);
    LaneReplay {
        flagged,
        flops_per_req,
        rows_per_req,
    }
}

/// Median nanoseconds per item of `f`, which does `items` items a call.
fn ns_per_item(items: usize, mut f: impl FnMut()) -> f64 {
    let budget = Duration::from_millis(40);
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || (started.elapsed() < budget && samples.len() < 2000) {
        let ((), s, e) = timed(&mut f);
        samples.push((e - s).as_secs_f64() * 1e9 / items as f64);
    }
    median(&samples)
}

/// Times the primitives under the serving path on private instances:
/// a layer whose primitive gets slower shows here before it shows in a
/// request.
pub fn micro(m: &mut Metrics) {
    // Batcher queue: admit 64 requests, then take them back as batches.
    let ladder = Arc::new(OverloadLadder::new(DegradeConfig::default(), 4096, None));
    let queue = SharedQueue::new(
        BatcherConfig {
            max_batch: 64,
            max_wait: Duration::ZERO,
            queue_capacity: 4096,
            delay_budget: Duration::from_secs(3600),
            per_query_service_estimate: 1e-4,
        },
        ladder,
    );
    let mut samples = Vec::new();
    for _ in 0..200 {
        let requests: Vec<Request> = (0..64)
            .map(|i| Request::new(i, Vec::new(), SubmitOptions::default()).0)
            .collect();
        let (taken, s, e) = timed(|| {
            for r in requests {
                assert!(queue.try_push(r).is_ok(), "private queue admits");
            }
            queue.try_next_batch()
        });
        samples.push((e - s).as_secs_f64() * 1e9 / 64.0);
        drop(taken);
    }
    m.set("batcher.push_pop_ns_per_req", median(&samples));

    // Intra-op pool: one empty parallel loop, four chunks per thread.
    let pool = drec_par::current();
    let chunks = pool.threads() * 4;
    m.set(
        "par.dispatch_us",
        ns_per_item(1, || {
            pool.for_each_chunk(chunks, 1, |r| {
                std::hint::black_box(r);
            })
        }) / 1e3,
    );

    // Store: versioned update of 64 int8 rows, and the epoch pin a
    // batch takes.
    let (rows, dim) = (4096usize, 64usize);
    let store = Arc::new(EmbeddingStore::new(StoreConfig {
        encoding: RowEncoding::Int8,
        ..StoreConfig::default()
    }));
    let data: Vec<f32> = (0..rows * dim)
        .map(|i| (i % 251) as f32 * 0.01 - 1.0)
        .collect();
    store
        .register(1, 0, rows, dim, &data)
        .expect("table registers");
    let mut version = 0u64;
    m.set(
        "store.apply_update_us_per_row",
        ns_per_item(64, || {
            version += 1;
            let deltas = (0..64u32)
                .map(|r| RowDelta {
                    ordinal: 0,
                    row: (r * 61 + version as u32) % rows as u32,
                    values: vec![version as f32 * 0.001; dim],
                })
                .collect();
            let batch = UpdateBatch {
                namespace: 1,
                target_version: version,
                deltas,
            };
            store
                .apply_update(&batch, UpdateFault::None)
                .expect("update applies");
        }) / 1e3,
    );
    m.set(
        "sync.epoch_pin_ns",
        ns_per_item(256, || (0..256).for_each(|_| drop(store.pin_epoch()))),
    );

    // Tier: demand accesses over four times the DRAM budget.
    let tier = TierEngine::new(&TierConfig::new(1024));
    let mut key = 1u64;
    m.set(
        "tier.demand_access_ns",
        ns_per_item(1024, || {
            for _ in 0..1024 {
                key = key
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                std::hint::black_box(tier.demand_access((key >> 33) % 4096));
            }
        }),
    );

    // Lock-free ring under the batcher queue: one push and one pop.
    let ring: EvictRing<u64> = EvictRing::with_capacity(1024);
    m.set(
        "sync.ring_push_pop_ns",
        ns_per_item(512, || {
            for i in 0..512u64 {
                assert!(ring.push(i, 1, i).is_ok(), "ring has room");
                std::hint::black_box(ring.pop());
            }
        }),
    );

    // Int8 pooled-sum kernel on 64-wide rows.
    let quantized: Vec<u8> = (0..rows * dim).map(|i| (i * 31 % 256) as u8).collect();
    let mut acc = vec![0.0f32; dim];
    m.set(
        "tensor.sum_i8_ns_per_row",
        ns_per_item(rows, || {
            for row in quantized.chunks_exact(dim) {
                drec_tensor::simd::sum_i8_into(row, 0.01, -1.0, &mut acc);
            }
            std::hint::black_box(&acc);
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_batches_weigh_sizes_by_the_requests_they_carried() {
        // Index = batch size; size 0 never occurs and is skipped.
        let hist = [9, 10, 0, 30, 60, 1];
        assert_eq!(
            top_batches(&hist, 2),
            vec![(4, 60.0 / 90.0), (3, 30.0 / 90.0)]
        );
        assert_eq!(top_batches(&hist, 9).len(), 4);
        assert!(top_batches(&[], 3).is_empty());
    }
}
