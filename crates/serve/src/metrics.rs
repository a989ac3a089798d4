//! Lock-light live metrics for the serving runtime.
//!
//! Everything on the hot path is an atomic: counters are single
//! `fetch_add`s and latencies land in a log-bucketed histogram (4 buckets
//! per octave starting at 1 µs), so workers and producers never contend
//! on a lock to record an observation. Reads are snapshots with relaxed
//! ordering — monotonic but not mutually consistent, which is fine for
//! monitoring.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use drec_par::{ParPool, PoolStats};
use drec_store::{EmbeddingStore, StoreStats};
use drec_sync::atomic::{AtomicU64, Ordering};
use drec_sync::{CachePadded, Mutex};

use crate::batcher::SharedQueue;
use crate::degrade::{OverloadLadder, OverloadLevel};
use crate::update::ModelUpdateChannel;

/// Cap on retained worker panic reasons: a bounded ring keeping the
/// *last* 64. A long-running deployment's early panics are in the logs
/// already; what a live snapshot needs is what is failing *now*.
const MAX_PANIC_REASONS: usize = 64;

/// Number of histogram buckets: 4 per octave × 26 octaves covers
/// 1 µs … ~67 s end-to-end latencies.
const BUCKETS: usize = 104;
const BUCKETS_PER_OCTAVE: f64 = 4.0;
const BASE_NANOS: f64 = 1_000.0; // 1 µs

/// A log-bucketed latency histogram with atomic buckets.
///
/// Bucket `i` covers `[1µs · 2^(i/4), 1µs · 2^((i+1)/4))`; quantile
/// queries return the geometric midpoint of the bucket holding the
/// requested rank, so reported quantiles carry at most ~9% relative
/// bucketing error.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_nanos: AtomicU64,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: [(); BUCKETS].map(|()| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
        }
    }

    fn index(nanos: u64) -> usize {
        if (nanos as f64) < BASE_NANOS {
            return 0;
        }
        let idx = ((nanos as f64 / BASE_NANOS).log2() * BUCKETS_PER_OCTAVE) as usize;
        idx.min(BUCKETS - 1)
    }

    /// Records one observation.
    pub fn record(&self, latency: Duration) {
        let nanos = latency.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.buckets[Self::index(nanos)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Records an observation given in seconds.
    pub fn record_seconds(&self, seconds: f64) {
        self.record(Duration::from_secs_f64(seconds.max(0.0)));
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean latency in seconds (0 when empty).
    pub fn mean_seconds(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        self.sum_nanos.load(Ordering::Relaxed) as f64 / n as f64 / 1e9
    }

    /// The `q`-quantile (`0.0..=1.0`) in seconds, from bucket midpoints.
    /// Returns 0 when empty.
    pub fn quantile_seconds(&self, q: f64) -> f64 {
        self.quantile_seconds_since(&[], q)
    }

    /// A copy of the raw bucket counts. Keep one and pass it to
    /// [`LatencyHistogram::quantile_seconds_since`] later to compute
    /// quantiles over just the observations recorded in between — how
    /// the scheduler's tuner reads a *windowed* per-model p99 from the
    /// cumulative histogram.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// The `q`-quantile over observations recorded since `baseline` was
    /// captured with [`LatencyHistogram::bucket_counts`]. An empty
    /// baseline means "since the beginning". Returns 0 when the window
    /// holds no observations.
    pub fn quantile_seconds_since(&self, baseline: &[u64], q: f64) -> f64 {
        let deltas: Vec<u64> = self
            .buckets
            .iter()
            .enumerate()
            .map(|(i, b)| {
                let prev = baseline.get(i).copied().unwrap_or(0);
                b.load(Ordering::Relaxed).saturating_sub(prev)
            })
            .collect();
        let total: u64 = deltas.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = ((total as f64 * q.clamp(0.0, 1.0)).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, delta) in deltas.iter().enumerate() {
            seen += delta;
            if seen >= rank {
                // Geometric midpoint of bucket i.
                let lo = BASE_NANOS * 2f64.powf(i as f64 / BUCKETS_PER_OCTAVE);
                let hi = BASE_NANOS * 2f64.powf((i + 1) as f64 / BUCKETS_PER_OCTAVE);
                return (lo * hi).sqrt() / 1e9;
            }
        }
        // Unreachable with a consistent count, but stay total.
        BASE_NANOS * 2f64.powf(BUCKETS as f64 / BUCKETS_PER_OCTAVE) / 1e9
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Live metrics for one model's serving channel in a multi-model
/// runtime: its own latency histogram, completion/shed counters, and
/// (optionally) the model's queue, overload ladder and update channel so
/// snapshots can report queue depth, degradation level and the size of
/// one FC weight set keyed by model name.
///
/// Channels are registered on a [`MetricsRegistry`] with
/// [`MetricsRegistry::register_model`]; single-model runtimes register
/// exactly one channel so the per-model table in snapshots is uniform
/// across deployment shapes.
#[derive(Debug)]
pub struct ModelChannelMetrics {
    name: String,
    /// End-to-end wall latency for this model's requests.
    pub latency: LatencyHistogram,
    completed: AtomicU64,
    shed: AtomicU64,
    queue: Option<Arc<SharedQueue>>,
    ladder: Option<Arc<OverloadLadder>>,
    update: Option<Arc<ModelUpdateChannel>>,
}

impl ModelChannelMetrics {
    /// A fresh channel for `name`. `queue`, `ladder` and `update` are
    /// optional observers: when present, snapshots report live queue
    /// depth, degradation level and FC weight-set bytes for this model.
    pub fn new(
        name: impl Into<String>,
        queue: Option<Arc<SharedQueue>>,
        ladder: Option<Arc<OverloadLadder>>,
        update: Option<Arc<ModelUpdateChannel>>,
    ) -> Self {
        ModelChannelMetrics {
            name: name.into(),
            latency: LatencyHistogram::new(),
            completed: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            queue,
            ladder,
            update,
        }
    }

    /// The model name this channel is keyed by.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Records one completed request with its end-to-end latency.
    pub fn record_completed(&self, latency: Duration) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.latency.record(latency);
    }

    /// Counts one request shed at admission for this model.
    pub fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time copy of this channel.
    pub fn snapshot(&self) -> ModelChannelSnapshot {
        ModelChannelSnapshot {
            name: self.name.clone(),
            completed: self.completed.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            queue_depth: self.queue.as_ref().map_or(0, |q| q.depth()),
            overload_level: self
                .ladder
                .as_ref()
                .map_or(OverloadLevel::Normal, |l| l.level()),
            mean_latency_seconds: self.latency.mean_seconds(),
            p50_seconds: self.latency.quantile_seconds(0.50),
            p95_seconds: self.latency.quantile_seconds(0.95),
            p99_seconds: self.latency.quantile_seconds(0.99),
            fc_param_bytes: self.update.as_ref().map_or(0, |u| u.fc_param_bytes()),
        }
    }
}

/// A point-in-time copy of one model's serving channel.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelChannelSnapshot {
    /// Model name the channel is keyed by.
    pub name: String,
    /// Requests completed for this model.
    pub completed: u64,
    /// Requests shed at admission for this model.
    pub shed: u64,
    /// Live queue depth at snapshot time (0 when no queue is attached).
    pub queue_depth: usize,
    /// This model's current degradation rung (Normal when no ladder is
    /// attached).
    pub overload_level: OverloadLevel,
    /// Mean end-to-end latency, seconds.
    pub mean_latency_seconds: f64,
    /// Median end-to-end latency, seconds.
    pub p50_seconds: f64,
    /// 95th-percentile end-to-end latency, seconds.
    pub p95_seconds: f64,
    /// 99th-percentile end-to-end latency, seconds.
    pub p99_seconds: f64,
    /// Bytes of `f32` in one FC weight set of this model: what all of the
    /// lane's engines share at rest (0 when no update channel is
    /// attached).
    pub fc_param_bytes: usize,
}

/// Per-worker execution accounting.
#[derive(Debug, Default)]
pub struct WorkerMetrics {
    busy_nanos: AtomicU64,
    batches: AtomicU64,
    samples: AtomicU64,
}

impl WorkerMetrics {
    /// Records one executed batch of `batch` samples taking `busy`.
    pub fn record_batch(&self, batch: usize, busy: Duration) {
        self.busy_nanos.fetch_add(
            busy.as_nanos().min(u128::from(u64::MAX)) as u64,
            Ordering::Relaxed,
        );
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.samples.fetch_add(batch as u64, Ordering::Relaxed);
    }
}

/// The runtime's metrics registry, shared by producers, workers, and
/// observers.
#[derive(Debug)]
pub struct MetricsRegistry {
    // The three per-request hot counters live on their own cache lines:
    // producers bump `accepted`/`shed` while workers bump `completed`,
    // and padding keeps those writes from ping-ponging one shared line
    // (measured in `queue_bench`'s counter experiment).
    accepted: CachePadded<AtomicU64>,
    shed: CachePadded<AtomicU64>,
    completed: CachePadded<AtomicU64>,
    rejected_invalid: AtomicU64,
    deadline_exceeded: AtomicU64,
    retried: AtomicU64,
    failed: AtomicU64,
    worker_panics: AtomicU64,
    worker_restarts: AtomicU64,
    prefetch_rows_dropped: AtomicU64,
    panic_reasons: Mutex<VecDeque<String>>,
    ladder: Option<Arc<OverloadLadder>>,
    models: Vec<Arc<ModelChannelMetrics>>,
    /// End-to-end wall latency (admission → response).
    pub latency: LatencyHistogram,
    /// Modelled per-platform batch execution time from the latency curve.
    pub modelled: LatencyHistogram,
    workers: Vec<WorkerMetrics>,
    started_at: Instant,
    pool: Arc<ParPool>,
    pool_baseline: PoolStats,
    /// The shared embedding store (when the runtime uses one) plus its
    /// stats at construction; snapshot counters are deltas from there.
    store: Option<(Arc<EmbeddingStore>, StoreStats)>,
}

impl MetricsRegistry {
    /// A fresh registry for `workers` worker threads, observing the
    /// [`drec_par::current`] intra-op pool.
    pub fn new(workers: usize) -> Self {
        Self::with_pool(workers, drec_par::current())
    }

    /// Like [`MetricsRegistry::new`] but observing an explicit intra-op
    /// pool (the one the runtime's engines execute on). Pool counters in
    /// snapshots are deltas from this construction point.
    pub fn with_pool(workers: usize, pool: Arc<ParPool>) -> Self {
        Self::with_pool_and_store(workers, pool, None)
    }

    /// Like [`MetricsRegistry::with_pool`], additionally observing a
    /// shared [`EmbeddingStore`]. Store counters in snapshots (lookups,
    /// cache hits/misses/evictions) are deltas from this construction
    /// point; byte and occupancy gauges are absolute.
    pub fn with_pool_and_store(
        workers: usize,
        pool: Arc<ParPool>,
        store: Option<Arc<EmbeddingStore>>,
    ) -> Self {
        let pool_baseline = pool.stats();
        let store = store.map(|s| {
            let baseline = s.stats();
            (s, baseline)
        });
        MetricsRegistry {
            accepted: CachePadded::new(AtomicU64::new(0)),
            shed: CachePadded::new(AtomicU64::new(0)),
            completed: CachePadded::new(AtomicU64::new(0)),
            rejected_invalid: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
            retried: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            worker_restarts: AtomicU64::new(0),
            prefetch_rows_dropped: AtomicU64::new(0),
            panic_reasons: Mutex::new(VecDeque::new()),
            ladder: None,
            models: Vec::new(),
            latency: LatencyHistogram::new(),
            modelled: LatencyHistogram::new(),
            workers: (0..workers).map(|_| WorkerMetrics::default()).collect(),
            started_at: Instant::now(),
            pool,
            pool_baseline,
            store,
        }
    }

    /// Attaches the runtime's overload ladder so snapshots report the
    /// current degradation level and transition counts. Called once at
    /// runtime construction, before the registry is shared.
    pub(crate) fn set_ladder(&mut self, ladder: Arc<OverloadLadder>) {
        self.ladder = Some(ladder);
    }

    /// Registers a per-model serving channel and returns its handle.
    /// Called at runtime construction, before the registry is shared;
    /// channels appear in [`MetricsSnapshot::models`] in registration
    /// order.
    pub fn register_model(
        &mut self,
        name: impl Into<String>,
        queue: Option<Arc<SharedQueue>>,
        ladder: Option<Arc<OverloadLadder>>,
        update: Option<Arc<ModelUpdateChannel>>,
    ) -> Arc<ModelChannelMetrics> {
        let channel = Arc::new(ModelChannelMetrics::new(name, queue, ladder, update));
        self.models.push(Arc::clone(&channel));
        channel
    }

    /// The channel registered under `name`, if any.
    pub fn model_channel(&self, name: &str) -> Option<&Arc<ModelChannelMetrics>> {
        self.models.iter().find(|c| c.name() == name)
    }

    /// Counts one admitted request.
    pub fn record_accepted(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one request dropped past its deadline without executing.
    pub fn record_deadline_exceeded(&self) {
        self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one request re-enqueued after its batch failed.
    pub fn record_retry(&self) {
        self.retried.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one request answered with [`crate::ServeError::WorkerFailed`].
    pub fn record_failed(&self) {
        self.failed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a worker panic with its rendered reason. The reason list
    /// is a bounded ring of the *last* `MAX_PANIC_REASONS` (64) — older
    /// reasons roll off so a live snapshot shows what is failing now;
    /// the count is unbounded.
    pub fn record_worker_panic(&self, reason: &str) {
        self.worker_panics.fetch_add(1, Ordering::Relaxed);
        let mut reasons = self.panic_reasons.lock();
        if reasons.len() == MAX_PANIC_REASONS {
            reasons.pop_front();
        }
        reasons.push_back(reason.to_string());
    }

    /// Counts one supervisor-driven worker restart.
    pub fn record_worker_restart(&self) {
        self.worker_restarts.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts `rows` embedding rows the stream prefetcher dropped
    /// unfilled because their request was already executing.
    pub(crate) fn record_prefetch_rows_dropped(&self, rows: usize) {
        if rows > 0 {
            self.prefetch_rows_dropped
                .fetch_add(rows as u64, Ordering::Relaxed);
        }
    }

    /// Counts one shed (overloaded or shutting-down) request.
    pub fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one request rejected for a malformed payload.
    pub fn record_invalid(&self) {
        self.rejected_invalid.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a completed batch: per-worker busy time plus per-request
    /// end-to-end latencies.
    pub fn record_batch(&self, worker: usize, batch: usize, busy: Duration) {
        self.completed.fetch_add(batch as u64, Ordering::Relaxed);
        if let Some(w) = self.workers.get(worker) {
            w.record_batch(batch, busy);
        }
    }

    /// Point-in-time summary of everything the registry tracks.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let elapsed = self.started_at.elapsed().as_secs_f64().max(1e-9);
        let batches: u64 = self
            .workers
            .iter()
            .map(|w| w.batches.load(Ordering::Relaxed))
            .sum();
        let samples: u64 = self
            .workers
            .iter()
            .map(|w| w.samples.load(Ordering::Relaxed))
            .sum();
        let pool_delta = self.pool.stats().since(&self.pool_baseline);
        let (
            entered_update_backpressure,
            entered_reduced_batch,
            entered_cache_only,
            recovered_update_backpressure,
            recovered_reduced_batch,
            recovered_cache_only,
        ) = self
            .ladder
            .as_ref()
            .map(|l| l.transition_counts())
            .unwrap_or((0, 0, 0, 0, 0, 0));
        MetricsSnapshot {
            accepted: self.accepted.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            rejected_invalid: self.rejected_invalid.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            retried: self.retried.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            worker_restarts: self.worker_restarts.load(Ordering::Relaxed),
            prefetch_rows_dropped: self.prefetch_rows_dropped.load(Ordering::Relaxed),
            panic_reasons: self.panic_reasons.lock().iter().cloned().collect(),
            overload_level: self
                .ladder
                .as_ref()
                .map_or(OverloadLevel::Normal, |l| l.level()),
            entered_update_backpressure,
            entered_reduced_batch,
            entered_cache_only,
            recovered_update_backpressure,
            recovered_reduced_batch,
            recovered_cache_only,
            batches,
            mean_batch: if batches == 0 {
                0.0
            } else {
                samples as f64 / batches as f64
            },
            mean_latency_seconds: self.latency.mean_seconds(),
            p50_seconds: self.latency.quantile_seconds(0.50),
            p95_seconds: self.latency.quantile_seconds(0.95),
            p99_seconds: self.latency.quantile_seconds(0.99),
            modelled_p99_seconds: self.modelled.quantile_seconds(0.99),
            worker_utilization: self
                .workers
                .iter()
                .map(|w| (w.busy_nanos.load(Ordering::Relaxed) as f64 / 1e9 / elapsed).min(1.0))
                .collect(),
            pool_threads: pool_delta.threads,
            pool_tasks: pool_delta.tasks,
            pool_utilization: pool_delta.utilization(elapsed),
            store: self
                .store
                .as_ref()
                .map(|(s, baseline)| s.stats().since(baseline)),
            models: self.models.iter().map(|c| c.snapshot()).collect(),
            kernel_backend: drec_tensor::simd::backend_label(),
            uptime_seconds: elapsed,
        }
    }
}

/// A point-in-time copy of the registry, safe to print or assert on.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Requests admitted past load shedding.
    pub accepted: u64,
    /// Requests shed at admission (overload or shutdown).
    pub shed: u64,
    /// Requests rejected for malformed payloads.
    pub rejected_invalid: u64,
    /// Requests whose response was produced.
    pub completed: u64,
    /// Requests dropped past their deadline without executing.
    pub deadline_exceeded: u64,
    /// Requests re-enqueued once after a transient batch failure.
    pub retried: u64,
    /// Requests answered with [`crate::ServeError::WorkerFailed`].
    pub failed: u64,
    /// Worker panics caught (injected or organic).
    pub worker_panics: u64,
    /// Workers restarted by the supervisor.
    pub worker_restarts: u64,
    /// Embedding rows the stream prefetcher queued at admission and
    /// dropped unfilled because a worker took their request first — the
    /// prefetcher running late.
    pub prefetch_rows_dropped: u64,
    /// Rendered panic messages: the last `MAX_PANIC_REASONS` (64), in
    /// order of occurrence (older reasons roll off).
    pub panic_reasons: Vec<String>,
    /// Current rung of the overload ladder.
    pub overload_level: OverloadLevel,
    /// Ladder transitions into update-backpressure mode.
    pub entered_update_backpressure: u64,
    /// Ladder transitions into reduced-batch mode.
    pub entered_reduced_batch: u64,
    /// Ladder transitions into cache-only mode.
    pub entered_cache_only: u64,
    /// Ladder recoveries out of update-backpressure mode.
    pub recovered_update_backpressure: u64,
    /// Ladder recoveries out of reduced-batch mode.
    pub recovered_reduced_batch: u64,
    /// Ladder recoveries out of cache-only mode.
    pub recovered_cache_only: u64,
    /// Batches executed across all workers.
    pub batches: u64,
    /// Mean coalesced batch size.
    pub mean_batch: f64,
    /// Mean end-to-end latency, seconds.
    pub mean_latency_seconds: f64,
    /// Median end-to-end latency, seconds.
    pub p50_seconds: f64,
    /// 95th-percentile end-to-end latency, seconds.
    pub p95_seconds: f64,
    /// 99th-percentile end-to-end latency, seconds.
    pub p99_seconds: f64,
    /// 99th-percentile modelled batch execution time, seconds.
    pub modelled_p99_seconds: f64,
    /// Busy fraction per worker since the registry was created.
    pub worker_utilization: Vec<f64>,
    /// Threads in the intra-op parallel pool the engines execute on.
    pub pool_threads: usize,
    /// Intra-op pool tasks executed since the registry was created.
    pub pool_tasks: u64,
    /// Mean busy fraction per pool thread since the registry was created.
    pub pool_utilization: f64,
    /// Embedding-store stats (hit rate, resident bytes, bytes saved by
    /// quantization) when the runtime serves through a shared store;
    /// counters are deltas since the registry was created.
    pub store: Option<StoreStats>,
    /// Per-model serving channels (latency, queue depth, degradation
    /// level keyed by model name), in registration order. Empty when the
    /// runtime registered no channels.
    pub models: Vec<ModelChannelSnapshot>,
    /// The process-wide kernel backend the engines dispatch to
    /// ([`drec_tensor::simd::backend_label`]): `"avx2-fma"`,
    /// `"avx2-fma+strict-gemm"`, or `"scalar"`.
    pub kernel_backend: &'static str,
    /// Seconds since the registry was created.
    pub uptime_seconds: f64,
}

impl MetricsSnapshot {
    /// Fraction of arrivals shed, in `[0, 1]`.
    pub fn shed_rate(&self) -> f64 {
        let arrivals = self.accepted + self.shed;
        if arrivals == 0 {
            0.0
        } else {
            self.shed as f64 / arrivals as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_observations() {
        let h = LatencyHistogram::new();
        for _ in 0..1000 {
            h.record(Duration::from_micros(100));
        }
        let p50 = h.quantile_seconds(0.5);
        // Bucketing error is bounded by one bucket ratio (2^(1/4) ≈ 1.19).
        assert!(p50 > 80e-6 && p50 < 125e-6, "{p50}");
        assert_eq!(h.count(), 1000);
        assert!((h.mean_seconds() - 100e-6).abs() < 5e-6);
    }

    #[test]
    fn histogram_orders_quantiles() {
        let h = LatencyHistogram::new();
        for i in 1..=1000u64 {
            h.record(Duration::from_micros(i));
        }
        let p50 = h.quantile_seconds(0.50);
        let p95 = h.quantile_seconds(0.95);
        let p99 = h.quantile_seconds(0.99);
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        assert!(p99 < 1.3e-3, "{p99}");
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile_seconds(0.99), 0.0);
        assert_eq!(h.mean_seconds(), 0.0);
    }

    #[test]
    fn windowed_quantile_ignores_baseline_observations() {
        let h = LatencyHistogram::new();
        for _ in 0..100 {
            h.record(Duration::from_micros(10));
        }
        let baseline = h.bucket_counts();
        // Cumulative p99 is dominated by the 10 µs mass…
        assert!(h.quantile_seconds(0.99) < 20e-6);
        for _ in 0..100 {
            h.record(Duration::from_millis(5));
        }
        // …but the windowed quantile sees only the new 5 ms mass.
        let windowed = h.quantile_seconds_since(&baseline, 0.5);
        assert!(windowed > 4e-3 && windowed < 7e-3, "{windowed}");
        assert_eq!(h.quantile_seconds_since(&h.bucket_counts(), 0.99), 0.0);
    }

    #[test]
    fn model_channels_key_metrics_by_name() {
        let mut m = MetricsRegistry::new(1);
        let ncf = m.register_model("ncf", None, None, None);
        let din = m.register_model("din", None, None, None);
        ncf.record_completed(Duration::from_micros(100));
        ncf.record_completed(Duration::from_micros(100));
        din.record_shed();
        let s = m.snapshot();
        assert_eq!(s.models.len(), 2);
        assert_eq!(s.models[0].name, "ncf");
        assert_eq!(s.models[0].completed, 2);
        assert_eq!(s.models[0].shed, 0);
        assert!(s.models[0].p99_seconds > 0.0);
        assert_eq!(s.models[1].name, "din");
        assert_eq!(s.models[1].shed, 1);
        assert_eq!(s.models[1].completed, 0);
        assert_eq!(m.model_channel("din").unwrap().name(), "din");
        assert!(m.model_channel("rm1").is_none());
    }

    #[test]
    fn panic_reasons_keep_the_most_recent_64() {
        let m = MetricsRegistry::new(1);
        for i in 0..100 {
            m.record_worker_panic(&format!("panic {i}"));
        }
        let s = m.snapshot();
        assert_eq!(s.worker_panics, 100);
        assert_eq!(s.panic_reasons.len(), 64);
        // The ring holds the LAST 64 (36..=99), oldest first.
        assert_eq!(s.panic_reasons.first().unwrap(), "panic 36");
        assert_eq!(s.panic_reasons.last().unwrap(), "panic 99");
    }

    #[test]
    fn snapshot_aggregates_counters() {
        let m = MetricsRegistry::new(2);
        m.record_accepted();
        m.record_accepted();
        m.record_shed();
        m.record_batch(0, 2, Duration::from_millis(1));
        m.latency.record(Duration::from_millis(2));
        m.latency.record(Duration::from_millis(2));
        let s = m.snapshot();
        assert_eq!(s.accepted, 2);
        assert_eq!(s.shed, 1);
        assert_eq!(s.completed, 2);
        assert_eq!(s.batches, 1);
        assert!((s.mean_batch - 2.0).abs() < 1e-9);
        assert!((s.shed_rate() - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(s.worker_utilization.len(), 2);
        assert!(s.worker_utilization[1] == 0.0);
    }
}
