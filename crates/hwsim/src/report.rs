/// TopDown pipeline-slot breakdown (Yasin, ISPASS'14), the unit of the
/// paper's Fig 8.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TopDown {
    /// Slots that retired useful μops.
    pub retiring: f64,
    /// Slots lost to frontend fetch/decode starvation.
    pub frontend: f64,
    /// Slots wasted on mispredicted paths and recovery.
    pub bad_speculation: f64,
    /// Backend slots stalled on execution resources (functional units).
    pub backend_core: f64,
    /// Backend slots stalled on the memory subsystem.
    pub backend_memory: f64,
}

impl TopDown {
    /// Total backend-bound fraction.
    pub(crate) fn backend(&self) -> f64 {
        self.backend_core + self.backend_memory
    }

    /// Core-to-memory backend-bound ratio (Fig 10, top).
    pub fn core_memory_ratio(&self) -> f64 {
        if self.backend_memory > 0.0 {
            self.backend_core / self.backend_memory
        } else if self.backend_core > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    }

    /// Sum of all categories (≈1 after normalisation).
    pub fn total(&self) -> f64 {
        self.retiring + self.frontend + self.bad_speculation + self.backend()
    }
}

/// CPU performance counters for one inference run — everything the paper's
/// microarchitectural figures read.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuCounters {
    /// Total core cycles.
    pub cycles: f64,
    /// End-to-end seconds (cycles / frequency).
    pub seconds: f64,
    /// Retired instructions (Fig 11).
    pub retired_instructions: f64,
    /// Retired vector instructions.
    pub avx_instructions: f64,
    /// Issued μops.
    pub uops: f64,
    /// TopDown fractions (Fig 8).
    pub topdown: TopDown,
    /// L1-I misses per kilo-instruction (Fig 12).
    pub icache_mpki: f64,
    /// Data-TLB page walks per kilo-instruction (extension counter; the
    /// hugepage ablation reads this).
    pub tlb_walk_mpki: f64,
    /// Branch mispredicts per kilo-instruction (Fig 15).
    pub branch_mpki: f64,
    /// Fraction of cycles limited by the DSB (Fig 13).
    pub dsb_limited_frac: f64,
    /// Fraction of cycles limited by MITE (Fig 13).
    pub mite_limited_frac: f64,
    /// `fu_hist[k]` = fraction of cycles with exactly `k` busy functional
    /// units (Fig 10, bottom).
    pub fu_hist: Vec<f64>,
    /// Fraction of cycles in DRAM-bandwidth-congested ops (Fig 14).
    pub dram_congested_frac: f64,
    /// Data-cache level hits: `[l1, l2, l3, dram]` accesses (scaled).
    pub mem_level_hits: [f64; 4],
    /// Per-op modelled seconds `(node name, op type, seconds)` — the Fig 6
    /// operator-breakdown input.
    pub op_seconds: Vec<(String, String, f64)>,
}

impl CpuCounters {
    /// AVX share of retired instructions (Fig 9).
    pub fn avx_fraction(&self) -> f64 {
        if self.retired_instructions > 0.0 {
            self.avx_instructions / self.retired_instructions
        } else {
            0.0
        }
    }

    /// Fraction of cycles with at least `k` busy functional units.
    pub fn fu_frac_at_least(&self, k: usize) -> f64 {
        self.fu_hist.iter().skip(k).sum()
    }
}

/// GPU performance counters for one inference run.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuCounters {
    /// End-to-end seconds including data communication.
    pub seconds: f64,
    /// Seconds spent on PCIe input transfer (Fig 4 numerator).
    pub data_comm_seconds: f64,
    /// Kernel compute seconds.
    pub(crate) compute_seconds: f64,
    /// Kernel launch overhead seconds.
    pub(crate) launch_seconds: f64,
    /// Total kernel launches.
    pub(crate) kernel_launches: f64,
    /// Per-op modelled seconds `(node name, op type, seconds)`.
    pub op_seconds: Vec<(String, String, f64)>,
}

impl GpuCounters {
    /// Data-communication share of end-to-end time (Fig 4).
    pub fn data_comm_fraction(&self) -> f64 {
        if self.seconds > 0.0 {
            self.data_comm_seconds / self.seconds
        } else {
            0.0
        }
    }
}

/// The result of evaluating one run trace on one platform.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformReport {
    /// Platform display name.
    pub platform: String,
    /// End-to-end modelled seconds.
    pub seconds: f64,
    /// CPU counters (present for CPU platforms).
    pub cpu: Option<CpuCounters>,
    /// GPU counters (present for GPU platforms).
    pub gpu: Option<GpuCounters>,
}

impl PlatformReport {
    /// Per-op `(name, op type, seconds)` pairs regardless of platform kind.
    pub fn op_seconds(&self) -> &[(String, String, f64)] {
        if let Some(cpu) = &self.cpu {
            &cpu.op_seconds
        } else if let Some(gpu) = &self.gpu {
            &gpu.op_seconds
        } else {
            &[]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topdown_ratio() {
        let td = TopDown {
            backend_core: 0.3,
            backend_memory: 0.15,
            ..TopDown::default()
        };
        assert!((td.core_memory_ratio() - 2.0).abs() < 1e-12);
        assert!((td.backend() - 0.45).abs() < 1e-12);
    }

    #[test]
    fn topdown_ratio_degenerate_cases() {
        assert_eq!(TopDown::default().core_memory_ratio(), 0.0);
        let core_only = TopDown {
            backend_core: 0.2,
            ..TopDown::default()
        };
        assert!(core_only.core_memory_ratio().is_infinite());
    }
}
