//! Per-model latency profiles and the CPU/GPU split table.
//!
//! Placement must be *principled and deterministic*: for a fixed
//! parameter seed, two schedulers must make identical CPU/GPU decisions.
//! Wall-clock measurements cannot give that, so both sides of the
//! comparison come from the hardware models. At startup each co-located
//! model is traced once per calibration batch size
//! ([`drec_models::RecModel::run_streamed`] with seeded generator
//! inputs), and each operator is priced on both platforms as it is traced
//! (so calibration never holds a whole trace):
//!
//! * CPU: the microarchitectural simulation of the configured CPU
//!   platform ([`CpuSim::step`], on a simulator reset before each run),
//!   folded into a log-log [`LatencyCurve`] over batch size.
//! * GPU: the roofline ([`GpuModel::step`]) via
//!   [`drec_hwsim::DispatchOracle`], which adds launch overheads, the
//!   input PCIe transfer, and the configured extra per-dispatch PCIe cost.
//!
//! The *crossover batch* `b*` is the smallest batch where the GPU's
//! amortized per-query cost undercuts the CPU's. Batches of `b*` or more
//! offload; smaller ones stay on CPU — the paper's observation that
//! accelerators only pay off once batching amortizes their fixed costs,
//! derived per model from the cost models instead of hardcoded.

use drec_core::serving::LatencyCurve;
use drec_hwsim::{CpuSim, DispatchOracle, GpuModel, GpuTally, Platform};
use drec_models::RecModel;
use drec_ops::Value;
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
    /// CPU platform the CPU-side cost is modelled on (a
    /// [`Platform::Cpu`]).
    pub cpu: Platform,
    /// GPU the oracle prices dispatches on; `None` disables offload for
    /// this model (the split table answers `Backend::Cpu` always).
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

impl ProfileConfig {
    /// A fresh simulator of [`ProfileConfig::cpu`], for
    /// [`ModelProfile::calibrate_on`].
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is not a CPU platform.
    pub fn cpu_sim(&self) -> CpuSim {
        match &self.cpu {
            Platform::Cpu(model) => CpuSim::new(model.clone()),
            Platform::Gpu(gpu) => panic!("{} is not a CPU platform", gpu.name),
        }
    }
}

/// One model's calibrated dispatch-cost profile.
#[derive(Debug, Clone)]
pub struct ModelProfile {
    /// Modelled CPU batch latency over batch size.
    pub cpu_curve: LatencyCurve,
    /// Roofline dispatch oracle (absent when offload is disabled).
    pub(crate) oracle: Option<DispatchOracle>,
    /// Smallest batch at which GPU dispatch undercuts CPU per-query
    /// cost; `None` means the CPU wins at every batch size in range (or
    /// offload is disabled).
    pub crossover: Option<usize>,
}

impl ModelProfile {
    /// Traces `model` at each calibration batch size and prices the
    /// traces on both platforms (see module docs), on a simulator of its
    /// own: [`ModelProfile::calibrate_on`] a fresh
    /// [`ProfileConfig::cpu_sim`]. Deterministic for fixed `(model
    /// parameters, cfg)`.
    ///
    /// # Panics
    ///
    /// As [`ModelProfile::calibrate_on`], and if `cfg.cpu` is not a CPU
    /// platform.
    pub fn calibrate(model: &RecModel, cfg: &ProfileConfig) -> ModelProfile {
        Self::calibrate_on(model, cfg, &mut cfg.cpu_sim())
    }

    /// [`ModelProfile::calibrate`] on `sim`, a simulator of `cfg.cpu`,
    /// reset before each run: the profile is bit-identical to a fresh
    /// simulator's, whatever `sim` simulated before, and a caller
    /// calibrating many models allocates one simulator, not one per run.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.calibration_batches` is empty or tracing fails
    /// (calibration runs the same executor the runtime serves with, so a
    /// failure here would fail every batch anyway).
    pub fn calibrate_on(model: &RecModel, cfg: &ProfileConfig, sim: &mut CpuSim) -> ModelProfile {
        assert!(
            !cfg.calibration_batches.is_empty(),
            "need at least one calibration batch size"
        );
        debug_assert!(
            matches!(&cfg.cpu, Platform::Cpu(cpu) if cpu == sim.model()),
            "the simulator must simulate cfg.cpu"
        );
        let mut gen = QueryGen::uniform(cfg.seed);
        // The traces run on a view, dropped on return with every activation
        // buffer they left in its arena; `model` is not touched. No trace
        // is held: each operator is priced on both platforms as soon as it
        // is traced, then dropped.
        let mut view = model.view();
        let spec = model.spec();
        let mut cpu_points = Vec::with_capacity(cfg.calibration_batches.len());
        let mut gpu_points = Vec::with_capacity(cfg.calibration_batches.len());
        for &batch in &cfg.calibration_batches {
            let batch = batch.max(1);
            let inputs = gen.batch(spec, batch);
            let input_bytes = inputs.iter().map(Value::byte_size).sum();
            sim.reset();
            let mut cpu_tally = sim.tally();
            let mut gpu_tally = GpuTally::default();
            view.run_streamed(inputs, |op| {
                sim.step(&mut cpu_tally, &op);
                if let Some(gpu) = &cfg.gpu {
                    gpu.step(&mut gpu_tally, &op);
                }
            })
            .expect("calibration trace must execute");
            cpu_points.push((batch, sim.finish(cpu_tally).seconds));
            if let Some(gpu) = &cfg.gpu {
                gpu_points.push((batch, gpu.finish(gpu_tally, input_bytes).seconds));
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
        let model = id.build(ModelScale::Tiny, 7).unwrap();
        ModelProfile::calibrate(&model, cfg)
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
    fn a_simulator_that_calibrated_other_models_calibrates_as_a_fresh_one() {
        let cfg = ProfileConfig {
            calibration_batches: vec![1, 8],
            max_batch: 64,
            ..ProfileConfig::default()
        };
        let mut sim = cfg.cpu_sim();
        for id in [ModelId::Din, ModelId::Rm2, ModelId::Ncf] {
            let model = id.build(ModelScale::Tiny, 7).unwrap();
            let reused = ModelProfile::calibrate_on(&model, &cfg, &mut sim);
            let fresh = profile(id, &cfg);
            assert_eq!(reused.cpu_curve, fresh.cpu_curve, "{id}");
            assert_eq!(reused.crossover, fresh.crossover, "{id}");
            for batch in 1..=64 {
                let gpu = |p: &ModelProfile| p.modelled_seconds(Backend::Gpu, batch).to_bits();
                assert_eq!(gpu(&reused), gpu(&fresh), "{id}, batch {batch}");
            }
        }
    }

    #[test]
    fn a_calibrated_model_calibrates_as_it_did_before() {
        let cfg = ProfileConfig {
            calibration_batches: vec![1, 8],
            max_batch: 64,
            ..ProfileConfig::default()
        };
        for id in ModelId::ALL {
            let model = id.build(ModelScale::Tiny, 7).unwrap();
            let first = ModelProfile::calibrate(&model, &cfg);
            let second = ModelProfile::calibrate(&model, &cfg);
            assert_eq!(second.cpu_curve, first.cpu_curve, "{id}");
            assert_eq!(second.crossover, first.crossover, "{id}");
            for batch in 1..=64 {
                let gpu = |p: &ModelProfile| p.modelled_seconds(Backend::Gpu, batch).to_bits();
                assert_eq!(gpu(&second), gpu(&first), "{id}, batch {batch}");
            }
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
