use drec_graph::{dialect_entries, Breakdown, Framework, GraphError};
use drec_hwsim::{CpuCounters, GpuCounters, Platform};
use drec_models::RecModel;
use drec_trace::RunTrace;
use drec_workload::QueryGen;

use crate::CharacterizeOptions;

/// The cross-stack result of characterizing one (model, batch, platform)
/// point.
#[derive(Debug, Clone, PartialEq)]
pub struct CharacterizationReport {
    /// Model name.
    pub model: String,
    /// Platform name.
    pub platform: String,
    /// Inference batch size.
    pub batch: usize,
    /// End-to-end modelled latency (systems level).
    pub latency_seconds: f64,
    /// Per-operator-type time shares in the Caffe2 dialect (software
    /// level, Fig 6).
    pub breakdown: Breakdown,
    /// CPU microarchitectural counters (μarch level, Fig 8–15); present
    /// for CPU platforms.
    pub cpu: Option<CpuCounters>,
    /// GPU counters (Fig 4); present for GPU platforms.
    pub gpu: Option<GpuCounters>,
}

impl CharacterizationReport {
    /// Rebuilds the operator breakdown under a framework dialect (Fig 7).
    pub fn breakdown_in(&self, framework: Framework) -> Breakdown {
        let op_seconds: &[(String, String, f64)] = if let Some(cpu) = &self.cpu {
            &cpu.op_seconds
        } else if let Some(gpu) = &self.gpu {
            &gpu.op_seconds
        } else {
            &[]
        };
        Breakdown::from_entries(op_seconds.iter().flat_map(|(_, op_type, secs)| {
            dialect_entries(op_type, framework)
                .into_iter()
                .map(move |(name, frac)| (name, frac * secs))
        }))
    }
}

/// The characterization harness: traces models and evaluates the traces on
/// platform models.
#[derive(Debug, Clone)]
pub struct Characterizer {
    opts: CharacterizeOptions,
}

impl Characterizer {
    /// Creates a harness with the given fidelity options.
    pub fn new(opts: CharacterizeOptions) -> Self {
        Characterizer { opts }
    }

    /// The configured options.
    pub fn options(&self) -> CharacterizeOptions {
        self.opts
    }

    /// Runs one traced inference of `model` at `batch` with a generated
    /// workload and returns the captured trace.
    ///
    /// # Errors
    ///
    /// Propagates graph-execution errors.
    pub fn trace(&self, model: &mut RecModel, batch: usize) -> Result<RunTrace, GraphError> {
        model.set_trace_target(self.opts.trace_events_per_op);
        // Seed varies with batch so different sweep points see different
        // queries, while staying reproducible.
        let mut gen = QueryGen::uniform(self.opts.seed ^ (batch as u64).wrapping_mul(0x9E37));
        let inputs = gen.batch(model.spec(), batch);
        let (_, trace) = model.run_traced(inputs, batch)?;
        Ok(trace)
    }

    /// Evaluates an existing trace on a platform (reusing one functional
    /// run across several platforms).
    pub fn report_from_trace(
        &self,
        model_name: &str,
        trace: &RunTrace,
        platform: &Platform,
    ) -> CharacterizationReport {
        let platform = self.apply_options(platform.clone());
        let report = platform.evaluate(trace);
        let breakdown = Breakdown::from_entries(
            report
                .op_seconds()
                .iter()
                .map(|(_, op_type, secs)| (op_type.clone(), *secs)),
        );
        CharacterizationReport {
            model: model_name.to_string(),
            platform: report.platform.clone(),
            batch: trace.batch,
            latency_seconds: report.seconds,
            breakdown,
            cpu: report.cpu,
            gpu: report.gpu,
        }
    }

    /// Traces `model` at `batch` and evaluates it on `platform`.
    ///
    /// # Errors
    ///
    /// Propagates graph-execution errors.
    pub fn characterize(
        &self,
        model: &mut RecModel,
        batch: usize,
        platform: &Platform,
    ) -> Result<CharacterizationReport, GraphError> {
        let trace = self.trace(model, batch)?;
        let name = model.id().name().to_string();
        Ok(self.report_from_trace(&name, &trace, platform))
    }

    fn apply_options(&self, platform: Platform) -> Platform {
        match platform {
            Platform::Cpu(model) => {
                Platform::Cpu(model.with_set_sampling(self.opts.cache_set_sampling))
            }
            gpu => gpu,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drec_models::{ModelId, ModelScale};

    fn harness() -> Characterizer {
        Characterizer::new(CharacterizeOptions::fast())
    }

    #[test]
    fn cpu_report_has_counters_and_breakdown() {
        let mut model = ModelId::Rm1.build(ModelScale::Tiny, 7).unwrap();
        let report = harness()
            .characterize(&mut model, 4, &Platform::broadwell())
            .unwrap();
        assert_eq!(report.model, "RM1");
        assert_eq!(report.platform, "Broadwell");
        assert!(report.latency_seconds > 0.0);
        assert!(report.cpu.is_some());
        assert!(report.gpu.is_none());
        let td = report.cpu.as_ref().unwrap().topdown;
        assert!((td.total() - 1.0).abs() < 1e-6);
        assert!(report.breakdown.share("SparseLengthsSum") > 0.0);
    }

    #[test]
    fn gpu_report_has_data_comm() {
        let mut model = ModelId::Ncf.build(ModelScale::Tiny, 7).unwrap();
        let report = harness()
            .characterize(&mut model, 16, &Platform::t4())
            .unwrap();
        let gpu = report.gpu.as_ref().unwrap();
        assert!(gpu.data_comm_seconds > 0.0);
        assert!(gpu.data_comm_fraction() <= 1.0);
    }

    #[test]
    fn one_trace_serves_many_platforms() {
        let mut model = ModelId::Wnd.build(ModelScale::Tiny, 7).unwrap();
        let h = harness();
        let trace = h.trace(&mut model, 8).unwrap();
        let reports: Vec<_> = Platform::all()
            .iter()
            .map(|p| h.report_from_trace("WnD", &trace, p))
            .collect();
        assert_eq!(reports.len(), 4);
        assert!(reports.iter().all(|r| r.latency_seconds > 0.0));
        // Cascade Lake should beat Broadwell.
        assert!(reports[1].latency_seconds < reports[0].latency_seconds);
    }

    #[test]
    fn tf_dialect_splits_sls() {
        let mut model = ModelId::Rm2.build(ModelScale::Tiny, 7).unwrap();
        let report = harness()
            .characterize(&mut model, 8, &Platform::broadwell())
            .unwrap();
        let tf = report.breakdown_in(Framework::TensorFlow);
        assert!(tf.share("ResourceGather") > 0.0);
        assert!(tf.share("SparseLengthsSum") == 0.0);
        assert!((tf.total_seconds() - report.breakdown.total_seconds()).abs() < 1e-12);
    }
}
