//! The roofline as a dispatch-cost oracle.
//!
//! A multi-model scheduler deciding *where* to run a batch needs the
//! GPU model answered as a function of one variable — "what would this
//! model's batch of size `b` cost on the accelerator, end to end?" —
//! without re-tracing the model at every queue drain. [`DispatchOracle`]
//! closes that gap: it is calibrated once per model from a handful of
//! traced batch sizes run through [`GpuModel::simulate`] (so the full
//! roofline — kernel efficiency curves, launch overheads, PCIe input
//! transfer — is baked into the samples), then answers arbitrary batch
//! sizes by log-log interpolation between calibration points, the same
//! technique `drec-core`'s `LatencyCurve` uses for measured CPU
//! latencies.
//!
//! On top of the roofline the oracle charges `pcie_extra_s` per
//! dispatch: the host-side cost of shipping a coalesced batch across the
//! bus and getting results back that the per-inference
//! [`GpuModel::pcie_latency_s`] does not cover (staging copies, doorbell
//! write, completion interrupt). Making it explicit and configurable
//! keeps CPU/GPU crossover decisions principled rather than hardcoded:
//! raising it pushes the crossover batch up, zeroing it recovers the raw
//! roofline.

use drec_trace::RunTrace;

use crate::GpuModel;

/// A per-model GPU dispatch-cost curve calibrated from roofline runs.
///
/// Build one per (model, GPU) pair with [`DispatchOracle::calibrate`];
/// query it with [`DispatchOracle::dispatch_seconds`] (whole batch) or
/// [`DispatchOracle::per_query_seconds`] (amortized). Both are pure
/// functions of the calibration inputs, so two oracles calibrated from
/// the same traces answer identically — which is what makes scheduler
/// CPU/GPU split decisions deterministic for a fixed seed.
#[derive(Debug, Clone)]
pub struct DispatchOracle {
    /// `(ln batch, ln seconds)` calibration points, sorted by batch.
    points: Vec<(f64, f64)>,
    pcie_extra_s: f64,
}

impl DispatchOracle {
    /// Calibrates an oracle from traced batches: each sample pairs a
    /// batch size with the [`RunTrace`] of the model executing that
    /// batch, and is priced through `gpu.simulate` (roofline + launch
    /// overheads + input PCIe). `pcie_extra_s` is an additional fixed
    /// per-dispatch transfer cost charged on every query (see module
    /// docs).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or contains a zero batch size.
    pub fn calibrate(gpu: &GpuModel, pcie_extra_s: f64, samples: &[(usize, RunTrace)]) -> Self {
        let seconds = |(batch, trace): &(usize, RunTrace)| (*batch, gpu.simulate(trace).seconds);
        let points: Vec<(usize, f64)> = samples.iter().map(seconds).collect();
        Self::from_points(pcie_extra_s, &points)
    }

    /// An oracle from pre-measured `(batch, seconds)` pairs — used in
    /// tests and by callers that already hold modelled timings.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or contains a zero batch size.
    pub fn from_points(pcie_extra_s: f64, samples: &[(usize, f64)]) -> Self {
        assert!(!samples.is_empty(), "need at least one calibration sample");
        let mut points: Vec<(f64, f64)> = samples
            .iter()
            .map(|(batch, seconds)| {
                assert!(*batch >= 1, "batch sizes start at 1");
                ((*batch as f64).ln(), seconds.max(1e-12).ln())
            })
            .collect();
        points.sort_by(|a, b| a.0.total_cmp(&b.0));
        points.dedup_by(|a, b| a.0 == b.0);
        DispatchOracle {
            points,
            pcie_extra_s: pcie_extra_s.max(0.0),
        }
    }

    /// The configured extra per-dispatch PCIe cost, seconds.
    pub fn pcie_extra_seconds(&self) -> f64 {
        self.pcie_extra_s
    }

    /// Modelled end-to-end seconds to dispatch one batch of `batch`
    /// queries to the GPU: roofline execution (log-log interpolated
    /// between calibration points, slope-extrapolated beyond them) plus
    /// the extra PCIe transfer cost.
    pub fn dispatch_seconds(&self, batch: usize) -> f64 {
        let x = (batch.max(1) as f64).ln();
        let pts = &self.points;
        let roofline = if pts.len() == 1 {
            // One point: assume linear scaling in batch (slope 1 in
            // log-log space), the conservative choice for rooflines.
            (pts[0].1 + (x - pts[0].0)).exp()
        } else {
            // Clamp to the end segments' slopes outside the range.
            let seg = match pts.iter().position(|p| p.0 >= x) {
                Some(0) => 0,
                Some(i) => i - 1,
                None => pts.len() - 2,
            };
            let (x0, y0) = pts[seg];
            let (x1, y1) = pts[seg + 1];
            let t = (x - x0) / (x1 - x0);
            (y0 + t * (y1 - y0)).exp()
        };
        roofline + self.pcie_extra_s
    }

    /// Amortized per-query dispatch cost at `batch`:
    /// `dispatch_seconds(batch) / batch`. The scheduler compares this
    /// against the CPU per-query cost to place a batch.
    pub fn per_query_seconds(&self, batch: usize) -> f64 {
        let batch = batch.max(1);
        self.dispatch_seconds(batch) / batch as f64
    }

    /// The smallest batch in `1..=max_batch` at which the GPU's
    /// per-query cost drops below the CPU's (given by `cpu_per_query`,
    /// a per-query seconds function of batch size), or `None` when the
    /// CPU wins everywhere in range. Fixed-overhead amortization makes
    /// per-query GPU cost monotone decreasing, so everything at or above
    /// the crossover offloads and everything below stays on CPU — the
    /// paper's "large batches offload, small stay" rule derived from the
    /// model rather than a constant.
    pub fn crossover_batch(
        &self,
        max_batch: usize,
        mut cpu_per_query: impl FnMut(usize) -> f64,
    ) -> Option<usize> {
        (1..=max_batch.max(1)).find(|&b| self.per_query_seconds(b) < cpu_per_query(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drec_trace::{
        BranchProfile, CodeFootprint, KernelClass, OpTrace, SampledMemTrace, WorkVector,
    };

    fn traced_batch(batch: usize) -> RunTrace {
        RunTrace {
            ops: vec![OpTrace {
                name: "fc".to_string(),
                op_type: "FC".to_string(),
                class: KernelClass::DenseMatmul,
                work: WorkVector {
                    fma_flops: 1e6 * batch as f64,
                    vectorizable: 1.0,
                    ..WorkVector::default()
                },
                branches: BranchProfile::default(),
                code: CodeFootprint {
                    invocations: 1,
                    ..CodeFootprint::empty()
                },
                mem: SampledMemTrace::with_period(1),
                bytes_in: 0,
                bytes_out: 0,
                param_bytes: 0,
            }],
            batch,
            input_bytes: 512 * batch as u64,
        }
    }

    #[test]
    fn interpolates_between_calibration_points() {
        let gpu = GpuModel::t4();
        let samples: Vec<(usize, RunTrace)> =
            [1, 16, 256].iter().map(|&b| (b, traced_batch(b))).collect();
        let oracle = DispatchOracle::calibrate(&gpu, 0.0, &samples);
        let at_16 = oracle.dispatch_seconds(16);
        let direct = gpu.simulate(&traced_batch(16)).seconds;
        assert!(
            (at_16 - direct).abs() / direct < 1e-9,
            "{at_16} vs {direct}"
        );
        // Interpolated values stay between the bracketing samples.
        let mid = oracle.dispatch_seconds(64);
        assert!(mid > at_16 && mid < oracle.dispatch_seconds(256));
    }

    #[test]
    fn per_query_cost_amortizes_with_batch() {
        let gpu = GpuModel::t4();
        let samples: Vec<(usize, RunTrace)> = [1, 8, 64, 512]
            .iter()
            .map(|&b| (b, traced_batch(b)))
            .collect();
        let oracle = DispatchOracle::calibrate(&gpu, 20e-6, &samples);
        // Launch overheads + PCIe dominate tiny batches; per-query cost
        // must fall as the batch grows.
        assert!(oracle.per_query_seconds(1) > oracle.per_query_seconds(64));
        assert!(oracle.per_query_seconds(64) > oracle.per_query_seconds(512));
    }

    #[test]
    fn pcie_extra_pushes_crossover_up() {
        // CPU: flat 30 µs per query. GPU: 100 µs fixed + 5 µs per query.
        let points: Vec<(usize, f64)> = [1usize, 4, 16, 64, 256]
            .iter()
            .map(|&b| (b, 100e-6 + 5e-6 * b as f64))
            .collect();
        let cheap = DispatchOracle::from_points(0.0, &points);
        let costly = DispatchOracle::from_points(400e-6, &points);
        let cpu = |_b: usize| 30e-6;
        let cheap_cross = cheap.crossover_batch(256, cpu).expect("gpu should win");
        let costly_cross = costly.crossover_batch(256, cpu).expect("gpu should win");
        assert!(
            cheap_cross < costly_cross,
            "extra PCIe cost must raise the crossover batch \
             ({cheap_cross} vs {costly_cross})"
        );
        // And a CPU that is always cheaper never crosses over.
        assert_eq!(cheap.crossover_batch(256, |_| 1e-9), None);
    }

    #[test]
    fn identical_calibration_is_deterministic() {
        let gpu = GpuModel::gtx_1080_ti();
        let samples: Vec<(usize, RunTrace)> =
            [1, 32, 128].iter().map(|&b| (b, traced_batch(b))).collect();
        let a = DispatchOracle::calibrate(&gpu, 15e-6, &samples);
        let b = DispatchOracle::calibrate(&gpu, 15e-6, &samples);
        for batch in [1usize, 2, 7, 32, 100, 128, 500] {
            assert_eq!(a.dispatch_seconds(batch), b.dispatch_seconds(batch));
        }
    }
}
