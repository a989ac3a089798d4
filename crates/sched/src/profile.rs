//! Per-model latency profiles and the CPU/GPU split table.
//!
//! Placement must be *principled and deterministic*: for a fixed
//! parameter seed, two schedulers must make identical CPU/GPU decisions.
//! Wall-clock measurements cannot give that, so both sides of the
//! comparison come from the hardware models. At startup each co-located
//! model is traced once per calibration batch size
//! ([`drec_models::RecModel::run_traced`] with seeded generator inputs),
//! and each trace is priced on both platforms before the next is taken
//! (so calibration holds one trace, not one per batch size):
//!
//! * CPU: the microarchitectural simulation of the configured CPU
//!   platform, folded into a log-log [`LatencyCurve`] over batch size.
//! * GPU: the roofline via [`drec_hwsim::DispatchOracle`], which adds
//!   launch overheads, the input PCIe transfer, and the configured extra
//!   per-dispatch PCIe cost.
//!
//! The *crossover batch* `b*` is the smallest batch where the GPU's
//! amortized per-query cost undercuts the CPU's. Batches of `b*` or more
//! offload; smaller ones stay on CPU — the paper's observation that
//! accelerators only pay off once batching amortizes their fixed costs,
//! derived per model from the cost models instead of hardcoded.

use drec_core::serving::LatencyCurve;
use drec_hwsim::{DispatchOracle, GpuModel, Platform};
use drec_models::RecModel;
use drec_workload::QueryGen;

use crate::runtime::Backend;

/// Calibration inputs for one model's profile.
#[derive(Debug, Clone)]
pub struct ProfileConfig {
    /// Batch sizes traced at calibration (each becomes a knot on both
    /// cost curves). Must be non-empty.
    pub calibration_batches: Vec<usize>,
    /// Seed for the calibration input generator (independent of the
    /// model's parameter seed so calibration never perturbs traffic).
    pub seed: u64,
    /// CPU platform the CPU-side cost is modelled on.
    pub cpu: Platform,
    /// GPU the oracle prices dispatches on; `None` disables offload for
    /// this model (the split table answers [`Backend::Cpu`] always).
    pub gpu: Option<GpuModel>,
    /// Extra fixed per-dispatch PCIe cost charged by the oracle,
    /// seconds.
    pub pcie_extra_s: f64,
    /// Largest batch the crossover search considers (the runtime's max
    /// batch).
    pub max_batch: usize,
}

impl Default for ProfileConfig {
    fn default() -> Self {
        ProfileConfig {
            calibration_batches: vec![1, 8, 32],
            seed: 0x5EED_CA11,
            cpu: Platform::broadwell(),
            gpu: Some(GpuModel::t4()),
            pcie_extra_s: 20e-6,
            max_batch: 256,
        }
    }
}

/// One model's calibrated dispatch-cost profile.
#[derive(Debug, Clone)]
pub struct ModelProfile {
    /// Modelled CPU batch latency over batch size.
    pub cpu_curve: LatencyCurve,
    /// Roofline dispatch oracle (absent when offload is disabled).
    pub oracle: Option<DispatchOracle>,
    /// Smallest batch at which GPU dispatch undercuts CPU per-query
    /// cost; `None` means the CPU wins at every batch size in range (or
    /// offload is disabled).
    pub crossover: Option<usize>,
}

impl ModelProfile {
    /// Traces `model` at each calibration batch size and prices the
    /// traces on both platforms (see module docs). Deterministic for
    /// fixed `(model parameters, cfg)`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.calibration_batches` is empty or tracing fails
    /// (calibration runs the same executor the runtime serves with, so a
    /// failure here would fail every batch anyway).
    pub fn calibrate(model: &mut RecModel, cfg: &ProfileConfig) -> ModelProfile {
        assert!(
            !cfg.calibration_batches.is_empty(),
            "need at least one calibration batch size"
        );
        let mut gen = QueryGen::uniform(cfg.seed);
        let spec = model.spec().clone();
        // One trace alive at a time: each is priced on both platforms as
        // soon as it is taken, then dropped.
        let mut cpu_points = Vec::with_capacity(cfg.calibration_batches.len());
        let mut gpu_points = Vec::with_capacity(cfg.calibration_batches.len());
        for &batch in &cfg.calibration_batches {
            let batch = batch.max(1);
            let inputs = gen.batch(&spec, batch);
            let (_, trace) = model
                .run_traced(inputs, batch)
                .expect("calibration trace must execute");
            cpu_points.push((batch, cfg.cpu.evaluate(&trace).seconds));
            if let Some(gpu) = &cfg.gpu {
                gpu_points.push((batch, gpu.simulate(&trace).seconds));
            }
        }
        let cpu_curve = LatencyCurve::from_points(cpu_points);
        let oracle = cfg
            .gpu
            .as_ref()
            .map(|_| DispatchOracle::from_points(cfg.pcie_extra_s, &gpu_points));
        let crossover = oracle.as_ref().and_then(|oracle| {
            oracle.crossover_batch(cfg.max_batch, |b| cpu_curve.eval(b) / b as f64)
        });
        ModelProfile {
            cpu_curve,
            oracle,
            crossover,
        }
    }

    /// Where a coalesced batch of `batch` queries should run: GPU at or
    /// above the crossover, CPU below it (or always CPU when no
    /// crossover exists). A pure function of the profile — the property
    /// the determinism gate asserts.
    pub fn backend_for(&self, batch: usize) -> Backend {
        match self.crossover {
            Some(b_star) if batch >= b_star => Backend::Gpu,
            _ => Backend::Cpu,
        }
    }

    /// Modelled seconds for a batch on the chosen backend.
    pub fn modelled_seconds(&self, backend: Backend, batch: usize) -> f64 {
        match (backend, &self.oracle) {
            (Backend::Gpu, Some(oracle)) => oracle.dispatch_seconds(batch),
            _ => self.cpu_curve.eval(batch),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drec_models::{ModelId, ModelScale};

    fn profile(id: ModelId, cfg: &ProfileConfig) -> ModelProfile {
        let mut model = id.build(ModelScale::Tiny, 7).unwrap();
        ModelProfile::calibrate(&mut model, cfg)
    }

    #[test]
    fn calibration_is_deterministic() {
        let cfg = ProfileConfig {
            calibration_batches: vec![1, 8],
            max_batch: 64,
            ..ProfileConfig::default()
        };
        let a = profile(ModelId::Ncf, &cfg);
        let b = profile(ModelId::Ncf, &cfg);
        assert_eq!(a.crossover, b.crossover);
        for batch in 1..=64 {
            assert_eq!(a.backend_for(batch), b.backend_for(batch));
            assert_eq!(
                a.modelled_seconds(a.backend_for(batch), batch),
                b.modelled_seconds(b.backend_for(batch), batch),
            );
        }
    }

    #[test]
    fn disabled_gpu_pins_everything_to_cpu() {
        let cfg = ProfileConfig {
            calibration_batches: vec![1, 8],
            gpu: None,
            max_batch: 64,
            ..ProfileConfig::default()
        };
        let p = profile(ModelId::Rm1, &cfg);
        assert!(p.oracle.is_none());
        assert_eq!(p.crossover, None);
        for batch in [1, 8, 64] {
            assert_eq!(p.backend_for(batch), Backend::Cpu);
        }
    }

    #[test]
    fn split_is_monotone_small_cpu_large_gpu() {
        let cfg = ProfileConfig {
            calibration_batches: vec![1, 8, 32],
            max_batch: 256,
            ..ProfileConfig::default()
        };
        let p = profile(ModelId::Wnd, &cfg);
        if let Some(b_star) = p.crossover {
            for batch in 1..b_star {
                assert_eq!(p.backend_for(batch), Backend::Cpu);
            }
            for batch in b_star..=256 {
                assert_eq!(p.backend_for(batch), Backend::Gpu);
            }
        }
    }
}
