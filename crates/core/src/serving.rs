//! SLA-driven serving analysis.
//!
//! The paper frames batch-size choice as an SLA problem: "recommendation
//! in datacenters runs with batch sizes from tens to thousands to meet
//! different SLA targets" (§IV). Given a latency-vs-batch sweep, this
//! module answers the deployment question directly: for a latency target,
//! which platform serves the most queries per second, and at what batch?

use drec_models::ModelId;

use crate::SweepResult;

/// The best serving configuration of one platform under an SLA.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingPoint {
    /// Platform name.
    pub platform: String,
    /// Largest batch whose latency meets the SLA (None: even batch-1
    /// misses it).
    pub batch: Option<usize>,
    /// Achieved latency at that batch, seconds.
    pub(crate) latency_seconds: f64,
    /// Throughput in queries (samples) per second.
    pub qps: f64,
}

/// Computes, for every platform present in `sweep`, the largest batch that
/// meets `sla_seconds` for `model` and the throughput it sustains.
///
/// Assumes a single engine running batches back to back (the paper's
/// single-threaded inference setting); platforms that cannot meet the SLA
/// at any swept batch report `batch: None` and zero throughput.
pub fn serving_points(sweep: &SweepResult, model: ModelId, sla_seconds: f64) -> Vec<ServingPoint> {
    let mut platforms: Vec<String> = sweep
        .cells
        .iter()
        .filter(|c| c.model == model)
        .map(|c| c.platform.clone())
        .collect();
    platforms.sort();
    platforms.dedup();

    platforms
        .into_iter()
        .map(|platform| {
            let best = sweep
                .cells
                .iter()
                .filter(|c| c.model == model && c.platform == platform && c.seconds <= sla_seconds)
                .max_by_key(|c| c.batch);
            match best {
                Some(cell) => ServingPoint {
                    platform,
                    batch: Some(cell.batch),
                    latency_seconds: cell.seconds,
                    qps: cell.batch as f64 / cell.seconds,
                },
                None => ServingPoint {
                    platform,
                    batch: None,
                    latency_seconds: f64::INFINITY,
                    qps: 0.0,
                },
            }
        })
        .collect()
}

/// The platform with the highest SLA-compliant throughput, if any meets
/// the target. QPS ties break on the lexicographically first platform
/// name, so the winner never depends on sweep-cell order.
pub fn best_server(sweep: &SweepResult, model: ModelId, sla_seconds: f64) -> Option<ServingPoint> {
    serving_points(sweep, model, sla_seconds)
        .into_iter()
        .filter(|p| p.batch.is_some())
        .max_by(|a, b| {
            a.qps
                .partial_cmp(&b.qps)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| b.platform.cmp(&a.platform))
        })
}

/// A latency-vs-batch curve interpolated from sweep data (log-log
/// piecewise linear between swept points, clamped at the ends).
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyCurve {
    /// `(batch, seconds)` knots sorted by batch.
    knots: Vec<(usize, f64)>,
}

impl LatencyCurve {
    /// Extracts the curve for `(model, platform)` from a sweep.
    ///
    /// Returns `None` if the sweep holds no cells for that pair.
    pub fn from_sweep(sweep: &SweepResult, model: ModelId, platform: &str) -> Option<Self> {
        let mut knots: Vec<(usize, f64)> = sweep
            .cells
            .iter()
            .filter(|c| c.model == model && c.platform == platform)
            .map(|c| (c.batch, c.seconds))
            .collect();
        if knots.is_empty() {
            return None;
        }
        knots.sort_by_key(|k| k.0);
        knots.dedup_by_key(|k| k.0);
        Some(LatencyCurve { knots })
    }

    /// Builds a curve directly from `(batch, seconds)` points. Duplicate
    /// batch knots collapse to the first given (the sort is stable) —
    /// without the dedup, equal neighbouring knots make the log-log
    /// interpolation divide by `ln(b) - ln(b) = 0`.
    ///
    /// # Panics
    ///
    /// Panics if `knots` is empty.
    pub fn from_points(mut knots: Vec<(usize, f64)>) -> Self {
        assert!(!knots.is_empty(), "latency curve needs at least one point");
        knots.sort_by_key(|k| k.0);
        knots.dedup_by_key(|k| k.0);
        LatencyCurve { knots }
    }

    /// Interpolated latency at `batch` (log-log, clamped to the knot
    /// range).
    pub fn eval(&self, batch: usize) -> f64 {
        let batch = batch.max(1);
        let first = self.knots[0];
        let last = *self.knots.last().expect("non-empty");
        if batch <= first.0 {
            return first.1;
        }
        if batch >= last.0 {
            return last.1;
        }
        let idx = self
            .knots
            .windows(2)
            .position(|w| w[0].0 <= batch && batch <= w[1].0)
            .expect("batch within knot range");
        let (b0, t0) = self.knots[idx];
        let (b1, t1) = self.knots[idx + 1];
        let frac = ((batch as f64).ln() - (b0 as f64).ln()) / ((b1 as f64).ln() - (b0 as f64).ln());
        (t0.ln() + frac * (t1.ln() - t0.ln())).exp()
    }
}

/// Configuration for the batching-queue simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueSimConfig {
    /// Poisson arrival rate in queries per second.
    pub arrival_qps: f64,
    /// Maximum batch the engine will coalesce.
    pub max_batch: usize,
    /// Number of queries to simulate.
    pub queries: usize,
    /// RNG seed for the arrival process.
    pub seed: u64,
}

/// Tail-latency statistics from a queue simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueStats {
    /// Mean end-to-end query latency, seconds.
    pub(crate) mean_latency: f64,
    /// Median latency.
    pub p50: f64,
    /// 95th-percentile latency.
    pub p95: f64,
    /// 99th-percentile latency.
    pub p99: f64,
    /// Average coalesced batch size.
    pub mean_batch: f64,
    /// Sustained throughput over the simulation, queries/second.
    pub(crate) throughput_qps: f64,
}

/// Simulates a single engine serving Poisson arrivals with greedy
/// batching: whenever the engine is free it takes everything queued (up
/// to `max_batch`) and runs one inference whose duration comes from the
/// latency curve. This is the serving loop DeepRecSys-style schedulers
/// optimise; it turns the paper's latency-vs-batch data into tail
/// latencies under load.
pub fn simulate_queue(curve: &LatencyCurve, cfg: QueueSimConfig) -> QueueStats {
    assert!(cfg.arrival_qps > 0.0, "arrival rate must be positive");
    assert!(cfg.max_batch >= 1, "max_batch must be at least 1");
    let n = cfg.queries.max(1);

    // Poisson arrivals.
    let mut state = cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next_u = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        ((state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64)
            .clamp(1e-12, 1.0 - 1e-12)
    };
    let mut arrivals = Vec::with_capacity(n);
    let mut t = 0.0f64;
    for _ in 0..n {
        t += -next_u().ln() / cfg.arrival_qps;
        arrivals.push(t);
    }

    let mut latencies = Vec::with_capacity(n);
    let mut engine_free = 0.0f64;
    let mut batches = 0usize;
    let mut next_query = 0usize;
    while next_query < n {
        // The engine starts when it is free and at least one query waits.
        let start = engine_free.max(arrivals[next_query]);
        let mut batch_end = next_query;
        while batch_end < n
            && batch_end - next_query < cfg.max_batch
            && arrivals[batch_end] <= start
        {
            batch_end += 1;
        }
        let batch = (batch_end - next_query).max(1);
        let done = start + curve.eval(batch);
        for arrival in &arrivals[next_query..next_query + batch] {
            latencies.push(done - arrival);
        }
        engine_free = done;
        batches += 1;
        next_query += batch;
    }

    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let pct = |p: f64| latencies[(((latencies.len() - 1) as f64) * p) as usize];
    let total_time = engine_free.max(arrivals[n - 1]);
    QueueStats {
        mean_latency: latencies.iter().sum::<f64>() / latencies.len() as f64,
        p50: pct(0.50),
        p95: pct(0.95),
        p99: pct(0.99),
        mean_batch: n as f64 / batches as f64,
        throughput_qps: n as f64 / total_time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::SweepCell;

    fn sweep_with(cells: Vec<(ModelId, usize, &str, f64)>) -> SweepResult {
        SweepResult {
            cells: cells
                .into_iter()
                .map(|(model, batch, platform, seconds)| SweepCell {
                    model,
                    batch,
                    platform: platform.to_string(),
                    seconds,
                    data_comm_fraction: None,
                })
                .collect(),
        }
    }

    #[test]
    fn picks_largest_batch_within_sla() {
        let sweep = sweep_with(vec![
            (ModelId::Ncf, 1, "CPU", 0.001),
            (ModelId::Ncf, 16, "CPU", 0.004),
            (ModelId::Ncf, 256, "CPU", 0.060),
        ]);
        let points = serving_points(&sweep, ModelId::Ncf, 0.005);
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].batch, Some(16));
        assert!((points[0].qps - 4000.0).abs() < 1e-9);
    }

    #[test]
    fn unreachable_sla_reports_none() {
        let sweep = sweep_with(vec![(ModelId::Ncf, 1, "GPU", 0.010)]);
        let points = serving_points(&sweep, ModelId::Ncf, 0.001);
        assert_eq!(points[0].batch, None);
        assert_eq!(points[0].qps, 0.0);
        assert!(best_server(&sweep, ModelId::Ncf, 0.001).is_none());
    }

    #[test]
    fn best_server_maximises_qps() {
        let sweep = sweep_with(vec![
            (ModelId::Rm1, 64, "CPU", 0.004),  // 16k qps
            (ModelId::Rm1, 256, "GPU", 0.008), // 32k qps
        ]);
        let best = best_server(&sweep, ModelId::Rm1, 0.010).unwrap();
        assert_eq!(best.platform, "GPU");
        assert_eq!(best.batch, Some(256));
    }

    #[test]
    fn best_server_breaks_qps_ties_on_platform_name() {
        // Two platforms hit identical SLA-compliant qps; the winner must
        // be the lexicographically first name regardless of cell order.
        let cells = vec![
            (ModelId::Rm1, 64, "t4-gpu", 0.004),
            (ModelId::Rm1, 64, "broadwell", 0.004),
        ];
        let forward = sweep_with(cells.clone());
        let mut reversed_cells = cells;
        reversed_cells.reverse();
        let reversed = sweep_with(reversed_cells);
        let a = best_server(&forward, ModelId::Rm1, 0.010).unwrap();
        let b = best_server(&reversed, ModelId::Rm1, 0.010).unwrap();
        assert_eq!(a.platform, "broadwell");
        assert_eq!(b.platform, "broadwell");
    }

    #[test]
    fn duplicate_batch_knots_do_not_poison_the_curve() {
        // Regression: duplicate batch values used to survive from_points
        // (only from_sweep deduped), making eval divide by ln(b)-ln(b)=0.
        let curve = LatencyCurve::from_points(vec![(16, 2e-3), (1, 1e-3), (16, 5e-3), (64, 8e-3)]);
        for batch in [1, 2, 4, 8, 16, 32, 64, 128] {
            let t = curve.eval(batch);
            assert!(t.is_finite() && t > 0.0, "batch {batch} gave {t}");
        }
        // Stable sort + dedup keeps the first knot given for a batch.
        assert!((curve.eval(16) - 2e-3).abs() < 1e-12);
    }

    #[test]
    fn latency_curve_interpolates_log_log() {
        let curve = LatencyCurve::from_points(vec![(1, 1e-3), (256, 16e-3)]);
        assert_eq!(curve.eval(1), 1e-3);
        assert_eq!(curve.eval(256), 16e-3);
        assert_eq!(curve.eval(100_000), 16e-3); // clamped
                                                // Geometric midpoint: batch 16 → sqrt(1e-3 * 16e-3) = 4e-3.
        assert!((curve.eval(16) - 4e-3).abs() < 1e-5);
    }

    #[test]
    fn light_load_has_near_service_latency() {
        // Service takes 1 ms; arrivals every 100 ms: no queueing.
        let curve = LatencyCurve::from_points(vec![(1, 1e-3), (64, 1e-3)]);
        let stats = simulate_queue(
            &curve,
            QueueSimConfig {
                arrival_qps: 10.0,
                max_batch: 64,
                queries: 2_000,
                seed: 3,
            },
        );
        assert!(stats.mean_batch < 1.2, "{stats:?}");
        assert!(stats.p99 < 3e-3, "{stats:?}");
    }

    #[test]
    fn heavy_load_batches_up_and_queues() {
        // Service 1 ms regardless of batch; arrivals at 5k qps: the engine
        // must coalesce ~5 queries per run to keep up.
        let curve = LatencyCurve::from_points(vec![(1, 1e-3), (512, 1e-3)]);
        let stats = simulate_queue(
            &curve,
            QueueSimConfig {
                arrival_qps: 5_000.0,
                max_batch: 512,
                queries: 20_000,
                seed: 3,
            },
        );
        assert!(stats.mean_batch > 3.0, "{stats:?}");
        assert!(stats.throughput_qps > 4_500.0, "{stats:?}");
        assert!(stats.p99 > stats.p50, "{stats:?}");
    }

    #[test]
    fn overload_explodes_tail_latency() {
        // Service 1 ms, max batch 1, arrivals at 2k qps: unstable queue.
        let curve = LatencyCurve::from_points(vec![(1, 1e-3)]);
        let stats = simulate_queue(
            &curve,
            QueueSimConfig {
                arrival_qps: 2_000.0,
                max_batch: 1,
                queries: 5_000,
                seed: 4,
            },
        );
        assert!(stats.p99 > 0.5, "queue should blow up: {stats:?}");
        assert!(stats.throughput_qps < 1_100.0);
    }

    #[test]
    fn tight_sla_flips_winner_to_cpu() {
        // The paper's heterogeneity story: GPUs win loose SLAs (big
        // batches), CPUs win tight ones.
        let sweep = sweep_with(vec![
            (ModelId::Rm1, 1, "CPU", 0.0005),
            (ModelId::Rm1, 64, "CPU", 0.004),
            (ModelId::Rm1, 1, "GPU", 0.002),
            (ModelId::Rm1, 256, "GPU", 0.008),
        ]);
        let tight = best_server(&sweep, ModelId::Rm1, 0.001).unwrap();
        assert_eq!(tight.platform, "CPU");
        let loose = best_server(&sweep, ModelId::Rm1, 0.020).unwrap();
        assert_eq!(loose.platform, "GPU");
    }
}
