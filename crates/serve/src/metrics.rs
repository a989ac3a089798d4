//! Lock-light live metrics for the serving runtime.
//!
//! Everything on the hot path is an atomic: counters are single
//! `fetch_add`s and latencies land in a log-bucketed histogram (4 buckets
//! per octave starting at 1 µs), so workers and producers never contend
//! on a lock to record an observation. Reads are snapshots with relaxed
//! ordering — monotonic but not mutually consistent, which is fine for
//! monitoring.
//!
//! A per-request observation has one home, its [`Lane`]: an answered
//! request is one record in the lane's [`LatencyHistogram`] (whose
//! bucket total is the lane's completions), a shed one bump of the
//! lane's shed counter. The [`MetricsRegistry`] keeps only pool-wide
//! counters; a [`MetricsSnapshot`]'s per-request figures are read off
//! the lanes, never stored twice.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use drec_par::{ParPool, PoolStats};
use drec_store::{EmbeddingStore, StoreStats};
use drec_sync::atomic::{AtomicU64, Ordering};
use drec_sync::{CachePadded, Mutex};

use crate::degrade::OverloadLevel;
use crate::pool::Lane;

/// Cap on retained worker panic reasons: a bounded ring keeping the
/// *last* 64. A long-running deployment's early panics are in the logs
/// already; what a live snapshot needs is what is failing *now*.
const MAX_PANIC_REASONS: usize = 64;

/// Number of histogram buckets: 4 per octave × 26 octaves covers
/// 1 µs … ~67 s end-to-end latencies.
const BUCKETS: usize = 104;
const BUCKETS_PER_OCTAVE: f64 = 4.0;
const BASE_NANOS: f64 = 1_000.0; // 1 µs

/// Mean of `count` observations summing to `sum_nanos`, in seconds (0
/// when empty).
fn mean_of(count: u64, sum_nanos: u64) -> f64 {
    if count == 0 {
        return 0.0;
    }
    sum_nanos as f64 / count as f64 / 1e9
}

/// The `q`-quantile of histogram bucket counts, in seconds: the geometric
/// midpoint of the bucket holding rank `⌈total · q⌉` (0 when empty). One
/// histogram's counts and several channels' summed counts both walk
/// here, so a merged quantile is bit-identical to that of one histogram
/// fed every observation.
fn quantile_of(counts: &[u64], q: f64) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let rank = ((total as f64 * q.clamp(0.0, 1.0)).ceil() as u64).max(1);
    let mut seen = 0u64;
    for (i, count) in counts.iter().enumerate() {
        seen += count;
        if seen >= rank {
            let lo = BASE_NANOS * 2f64.powf(i as f64 / BUCKETS_PER_OCTAVE);
            let hi = BASE_NANOS * 2f64.powf((i + 1) as f64 / BUCKETS_PER_OCTAVE);
            return (lo * hi).sqrt() / 1e9;
        }
    }
    // Unreachable with a consistent count, but stay total.
    BASE_NANOS * 2f64.powf(BUCKETS as f64 / BUCKETS_PER_OCTAVE) / 1e9
}

/// A log-bucketed latency histogram with atomic buckets.
///
/// Bucket `i` covers `[1µs · 2^(i/4), 1µs · 2^((i+1)/4))`; quantile
/// queries return the geometric midpoint of the bucket holding the
/// requested rank, so reported quantiles carry at most ~9% relative
/// bucketing error. It keeps no count: the number of observations is
/// the sum of the buckets.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    sum_nanos: AtomicU64,
}

impl LatencyHistogram {
    fn index(nanos: u64) -> usize {
        if (nanos as f64) < BASE_NANOS {
            return 0;
        }
        let idx = ((nanos as f64 / BASE_NANOS).log2() * BUCKETS_PER_OCTAVE) as usize;
        idx.min(BUCKETS - 1)
    }

    /// Records one observation: two RMWs (bucket, sum).
    pub(crate) fn record(&self, latency: Duration) {
        let nanos = latency.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.buckets[Self::index(nanos)].fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Records an observation given in seconds.
    pub fn record_seconds(&self, seconds: f64) {
        self.record(Duration::from_secs_f64(seconds.max(0.0)));
    }

    /// Each bucket's count, loaded once.
    fn counts(&self) -> [u64; BUCKETS] {
        self.buckets.each_ref().map(|b| b.load(Ordering::Relaxed))
    }

    /// Number of recorded observations: the buckets' total.
    pub(crate) fn count(&self) -> u64 {
        self.counts().iter().sum()
    }

    /// Mean latency in seconds (0 when empty).
    pub fn mean_seconds(&self) -> f64 {
        mean_of(self.count(), self.sum_nanos.load(Ordering::Relaxed))
    }

    /// The `q`-quantile (`0.0..=1.0`) in seconds, from bucket midpoints.
    /// Returns 0 when empty.
    pub fn quantile_seconds(&self, q: f64) -> f64 {
        quantile_of(&self.counts(), q)
    }
}

impl Default for LatencyHistogram {
    /// An empty histogram.
    fn default() -> Self {
        LatencyHistogram {
            buckets: [(); BUCKETS].map(|()| AtomicU64::new(0)),
            sum_nanos: AtomicU64::new(0),
        }
    }
}

/// A point-in-time copy of one lane: its model's serving channel.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelChannelSnapshot {
    /// Model name the channel is keyed by.
    pub name: String,
    /// Requests completed for this model.
    pub completed: u64,
    /// Requests shed at admission for this model.
    pub shed: u64,
    /// Live queue depth at snapshot time.
    pub queue_depth: usize,
    /// This model's current degradation rung.
    pub overload_level: OverloadLevel,
    /// Median end-to-end latency, seconds.
    pub p50_seconds: f64,
    /// 95th-percentile end-to-end latency, seconds.
    pub p95_seconds: f64,
    /// 99th-percentile end-to-end latency, seconds.
    pub p99_seconds: f64,
    /// Bytes of `f32` in one FC weight set of this model: what all of the
    /// lane's engines share at rest.
    pub fc_param_bytes: usize,
}

impl ModelChannelSnapshot {
    /// Point-in-time copy of `lane`'s records and gauges, `counts` being
    /// its latency buckets as loaded once for the snapshot.
    fn of(lane: &Lane, counts: &[u64]) -> Self {
        ModelChannelSnapshot {
            name: lane.source.id().name().to_string(),
            completed: counts.iter().sum(),
            shed: lane.shed.load(Ordering::Relaxed),
            queue_depth: lane.queue.depth(),
            overload_level: lane.ladder.level(),
            p50_seconds: quantile_of(counts, 0.50),
            p95_seconds: quantile_of(counts, 0.95),
            p99_seconds: quantile_of(counts, 0.99),
            fc_param_bytes: lane.update.fc_param_bytes(),
        }
    }
}

/// Per-worker execution accounting.
#[derive(Debug, Default)]
struct WorkerMetrics {
    busy_nanos: AtomicU64,
    batches: AtomicU64,
}

/// The runtime's pool-wide counters, shared by producers, workers, and
/// observers. It holds nothing per lane: [`crate::ServeHandle::snapshot`]
/// hands it the lanes to read.
#[derive(Debug)]
pub(crate) struct MetricsRegistry {
    // Producers bump `accepted` on every admission; its own cache line
    // keeps those writes off the lines workers write.
    accepted: CachePadded<AtomicU64>,
    rejected_invalid: AtomicU64,
    deadline_exceeded: AtomicU64,
    retried: AtomicU64,
    failed: AtomicU64,
    worker_panics: AtomicU64,
    worker_restarts: AtomicU64,
    prefetch_rows_dropped: AtomicU64,
    panic_reasons: Mutex<VecDeque<String>>,
    workers: Vec<WorkerMetrics>,
    started_at: Instant,
    pool: Arc<ParPool>,
    pool_baseline: PoolStats,
    /// The shared embedding store (when the runtime uses one) plus its
    /// stats at construction; snapshot counters are deltas from there.
    store: Option<(Arc<EmbeddingStore>, StoreStats)>,
}

impl MetricsRegistry {
    /// A fresh registry for `workers` workers, observing the engines'
    /// intra-op `pool` and the shared `store`, if any. Their counters in
    /// snapshots are deltas from here; byte and occupancy gauges are
    /// absolute.
    pub(crate) fn new(
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
            rejected_invalid: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
            retried: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            worker_restarts: AtomicU64::new(0),
            prefetch_rows_dropped: AtomicU64::new(0),
            panic_reasons: Mutex::new(VecDeque::new()),
            workers: (0..workers).map(|_| WorkerMetrics::default()).collect(),
            started_at: Instant::now(),
            pool,
            pool_baseline,
            store,
        }
    }

    /// Counts one admitted request.
    pub(crate) fn record_accepted(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one request dropped past its deadline without executing.
    pub(crate) fn record_deadline_exceeded(&self) {
        self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one request re-enqueued after its batch failed.
    pub(crate) fn record_retry(&self) {
        self.retried.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one request answered with [`crate::ServeError::WorkerFailed`].
    pub(crate) fn record_failed(&self) {
        self.failed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a worker panic with its rendered reason. The reason list
    /// is a bounded ring of the *last* `MAX_PANIC_REASONS` (64) — older
    /// reasons roll off so a live snapshot shows what is failing now;
    /// the count is unbounded.
    pub(crate) fn record_worker_panic(&self, reason: &str) {
        self.worker_panics.fetch_add(1, Ordering::Relaxed);
        let mut reasons = self.panic_reasons.lock();
        if reasons.len() == MAX_PANIC_REASONS {
            reasons.pop_front();
        }
        reasons.push_back(reason.to_string());
    }

    /// Counts one supervisor-driven worker restart.
    pub(crate) fn record_worker_restart(&self) {
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

    /// Counts one request rejected for a malformed payload.
    pub(crate) fn record_invalid(&self) {
        self.rejected_invalid.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one batch `worker` executed, busy for `busy`: two RMWs.
    /// Its requests are recorded on their lane.
    pub(crate) fn record_batch(&self, worker: usize, busy: Duration) {
        if let Some(w) = self.workers.get(worker) {
            let nanos = busy.as_nanos().min(u128::from(u64::MAX)) as u64;
            w.busy_nanos.fetch_add(nanos, Ordering::Relaxed);
            w.batches.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Point-in-time summary of the registry's counters and `lanes`'
    /// records.
    pub(crate) fn snapshot(&self, lanes: &[Lane]) -> MetricsSnapshot {
        let elapsed = self.started_at.elapsed().as_secs_f64().max(1e-9);
        let batches: u64 = self
            .workers
            .iter()
            .map(|w| w.batches.load(Ordering::Relaxed))
            .sum();
        // The per-request figures are the lanes': each lane's buckets
        // loaded once, then merged, and counts summed.
        let mut sum_nanos = 0;
        let mut buckets = [0u64; BUCKETS];
        let models: Vec<_> = lanes
            .iter()
            .map(|lane| {
                let counts = lane.latency.counts();
                sum_nanos += lane.latency.sum_nanos.load(Ordering::Relaxed);
                for (sum, count) in buckets.iter_mut().zip(counts) {
                    *sum += count;
                }
                ModelChannelSnapshot::of(lane, &counts)
            })
            .collect();
        let completed: u64 = models.iter().map(|m| m.completed).sum();
        let shed: u64 = models.iter().map(|m| m.shed).sum();
        // A sole lane's ladder is the pool's; co-located lanes share no
        // pool-wide level.
        let ladder = match lanes {
            [sole] => Some(&sole.ladder),
            _ => None,
        };
        let (
            entered_update_backpressure,
            entered_reduced_batch,
            entered_cache_only,
            recovered_update_backpressure,
            recovered_reduced_batch,
            recovered_cache_only,
        ) = ladder.map_or((0, 0, 0, 0, 0, 0), |l| l.transition_counts());
        let pool_delta = self.pool.stats().since(&self.pool_baseline);
        MetricsSnapshot {
            accepted: self.accepted.load(Ordering::Relaxed),
            shed,
            rejected_invalid: self.rejected_invalid.load(Ordering::Relaxed),
            completed,
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            retried: self.retried.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            worker_restarts: self.worker_restarts.load(Ordering::Relaxed),
            prefetch_rows_dropped: self.prefetch_rows_dropped.load(Ordering::Relaxed),
            panic_reasons: self.panic_reasons.lock().iter().cloned().collect(),
            overload_level: ladder.map_or(OverloadLevel::Normal, |l| l.level()),
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
                completed as f64 / batches as f64
            },
            mean_latency_seconds: mean_of(completed, sum_nanos),
            p50_seconds: quantile_of(&buckets, 0.50),
            p95_seconds: quantile_of(&buckets, 0.95),
            p99_seconds: quantile_of(&buckets, 0.99),
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
            models,
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
    /// level keyed by model name), one per lane in lane order.
    pub models: Vec<ModelChannelSnapshot>,
    /// The process-wide kernel backend the engines dispatch to
    /// ([`drec_tensor::simd::backend_label`]): `"avx2-fma"` or
    /// `"scalar"`.
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

    fn registry(workers: usize) -> MetricsRegistry {
        MetricsRegistry::new(workers, drec_par::current(), None)
    }

    #[test]
    fn histogram_quantiles_bracket_observations() {
        let h = LatencyHistogram::default();
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
        let h = LatencyHistogram::default();
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
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile_seconds(0.99), 0.0);
        assert_eq!(h.mean_seconds(), 0.0);
    }

    #[test]
    fn merged_counts_quantile_like_one_histogram_fed_both_streams() {
        let (fast, slow, both) = (
            LatencyHistogram::default(),
            LatencyHistogram::default(),
            LatencyHistogram::default(),
        );
        for i in 1..=700u64 {
            let d = Duration::from_micros(3 * i);
            fast.record(d);
            both.record(d);
        }
        for i in 1..=300u64 {
            let d = Duration::from_micros(40 * i + 7);
            slow.record(d);
            both.record(d);
        }
        let count = |b: &AtomicU64| b.load(Ordering::Relaxed);
        let merged: Vec<u64> = fast
            .buckets
            .iter()
            .zip(&slow.buckets)
            .map(|(a, b)| count(a) + count(b))
            .collect();
        for q in [0.0, 0.25, 0.5, 0.7, 0.95, 0.99, 1.0] {
            let got = quantile_of(&merged, q);
            assert_eq!(got.to_bits(), both.quantile_seconds(q).to_bits(), "q {q}");
        }
        let sum = |h: &LatencyHistogram| h.sum_nanos.load(Ordering::Relaxed);
        let mean = mean_of(fast.count() + slow.count(), sum(&fast) + sum(&slow));
        assert_eq!(mean.to_bits(), both.mean_seconds().to_bits());
    }

    #[test]
    fn panic_reasons_keep_the_most_recent_64() {
        let m = registry(1);
        for i in 0..100 {
            m.record_worker_panic(&format!("panic {i}"));
        }
        let s = m.snapshot(&[]);
        assert_eq!(s.worker_panics, 100);
        assert_eq!(s.panic_reasons.len(), 64);
        // The ring holds the LAST 64 (36..=99), oldest first.
        assert_eq!(s.panic_reasons.first().unwrap(), "panic 36");
        assert_eq!(s.panic_reasons.last().unwrap(), "panic 99");
    }
}
