use drec_trace::RunTrace;

use crate::{CpuModel, CpuSim, GpuModel, PlatformReport};

/// One of the studied hardware platforms (Table II).
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)] // CpuModel is big but Platform is cloned rarely
pub enum Platform {
    /// A CPU platform model.
    Cpu(CpuModel),
    /// A GPU platform model.
    Gpu(GpuModel),
}

impl Platform {
    /// Intel Xeon E5-2697A v4.
    pub fn broadwell() -> Self {
        Platform::Cpu(CpuModel::broadwell())
    }

    /// Intel Xeon Gold 6242.
    pub fn cascade_lake() -> Self {
        Platform::Cpu(CpuModel::cascade_lake())
    }

    /// NVIDIA GTX 1080 Ti.
    pub fn gtx_1080_ti() -> Self {
        Platform::Gpu(GpuModel::gtx_1080_ti())
    }

    /// NVIDIA T4.
    pub fn t4() -> Self {
        Platform::Gpu(GpuModel::t4())
    }

    /// All four platforms in Table II order.
    pub fn all() -> Vec<Platform> {
        vec![
            Self::broadwell(),
            Self::cascade_lake(),
            Self::gtx_1080_ti(),
            Self::t4(),
        ]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Platform::Cpu(m) => m.name,
            Platform::Gpu(m) => m.name,
        }
    }

    /// Evaluates one inference run trace on this platform.
    ///
    /// CPU platforms run the full microarchitectural simulation (fresh
    /// cache/predictor state per run); GPU platforms apply the roofline
    /// and PCIe models.
    pub fn evaluate(&self, run: &RunTrace) -> PlatformReport {
        match self {
            Platform::Cpu(model) => {
                let counters = CpuSim::new(model.clone()).simulate(run);
                PlatformReport {
                    platform: model.name.to_string(),
                    seconds: counters.seconds,
                    cpu: Some(counters),
                    gpu: None,
                }
            }
            Platform::Gpu(model) => {
                let counters = model.simulate(run);
                PlatformReport {
                    platform: model.name.to_string(),
                    seconds: counters.seconds,
                    cpu: None,
                    gpu: Some(counters),
                }
            }
        }
    }
}

impl std::fmt::Display for Platform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_platforms_match_table_two() {
        let all = Platform::all();
        assert_eq!(all.len(), 4);
        let names: Vec<_> = all.iter().map(Platform::name).collect();
        assert_eq!(
            names,
            vec!["Broadwell", "Cascade Lake", "GTX 1080 Ti", "T4"]
        );
        assert!(matches!(all[0], Platform::Cpu(_)));
        assert!(matches!(all[3], Platform::Gpu(_)));
    }

    #[test]
    fn evaluate_empty_run_is_cheap_but_nonzero_on_gpu() {
        let run = RunTrace {
            ops: vec![],
            batch: 1,
            input_bytes: 1024,
        };
        let gpu = Platform::t4().evaluate(&run);
        assert!(gpu.seconds > 0.0, "PCIe latency applies");
        assert!(gpu.gpu.is_some());
        let cpu = Platform::broadwell().evaluate(&run);
        assert!(cpu.cpu.is_some());
    }
}
