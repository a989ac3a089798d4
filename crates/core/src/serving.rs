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
        let knots: Vec<(usize, f64)> = sweep
            .cells
            .iter()
            .filter(|c| c.model == model && c.platform == platform)
            .map(|c| (c.batch, c.seconds))
            .collect();
        (!knots.is_empty()).then(|| Self::from_points(knots))
    }

    /// Builds a curve directly from `(batch, seconds)` points. Duplicate
    /// batch knots collapse to the first given (the sort is stable) —
    /// without the dedup, equal neighbouring knots make the log-log
    /// interpolation divide by `ln(b) - ln(b) = 0`.
    ///
    /// # Panics
    ///
    /// Panics if `knots` is empty, or if a knot's seconds is not finite
    /// and positive: [`LatencyCurve::eval`] interpolates in log space, so
    /// such a knot would price batches at `NaN`.
    pub fn from_points(mut knots: Vec<(usize, f64)>) -> Self {
        assert!(!knots.is_empty(), "latency curve needs at least one point");
        let positive = knots.iter().all(|&(_, s)| s.is_finite() && s > 0.0);
        assert!(positive, "knots need finite, positive seconds: {knots:?}");
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
    #[should_panic(expected = "finite, positive")]
    fn a_zero_knot_is_refused() {
        // Log-log interpolation from 0 s reads NaN at batch 8.
        LatencyCurve::from_points(vec![(1, 0.0), (64, 1e-2)]);
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
