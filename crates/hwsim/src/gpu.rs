use drec_trace::{KernelClass, OpTrace, RunTrace};

use crate::GpuCounters;

/// Configuration of a GPU platform model (Table II plus calibrated
/// efficiency curves; DESIGN.md §4.3).
///
/// The model is a per-kernel roofline: a kernel's time is the maximum of
/// its compute time (at a work-dependent fraction of peak FLOPS) and its
/// memory time (at a stream- or random-access fraction of peak bandwidth),
/// plus a fixed launch overhead per kernel. Inputs additionally pay a
/// PCIe 3.0 transfer — the data-communication overhead of Fig 4.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuModel {
    /// Display name.
    pub name: &'static str,
    /// Peak fp32 throughput in flops/s.
    pub peak_flops: f64,
    /// Peak memory bandwidth in bytes/s.
    pub mem_bw: f64,
    /// Streaming multiprocessor count (reported; throughput effects are
    /// folded into the efficiency curve).
    pub sm_count: usize,
    /// Fixed overhead per kernel launch, seconds.
    pub launch_overhead_s: f64,
    /// Host-to-device PCIe bandwidth in bytes/s.
    pub pcie_bw: f64,
    /// Fixed PCIe transfer latency per inference, seconds.
    pub pcie_latency_s: f64,
    /// Max fraction of peak FLOPS achievable by large dense kernels.
    pub(crate) eff_max: f64,
    /// Flops at which dense-kernel efficiency reaches half of `eff_max`.
    pub(crate) eff_half_work: f64,
    /// Fraction of peak bandwidth achieved by random-access gathers.
    pub(crate) random_bw_frac: f64,
    /// Fraction of peak bandwidth achieved by streaming kernels.
    pub(crate) stream_bw_frac: f64,
    /// Minimum execution time of any kernel, seconds (occupancy ramp and
    /// tail effects keep even tiny kernels from finishing faster).
    pub min_kernel_s: f64,
    /// Efficiency multiplier for recurrent kernels (sequential timestep
    /// dependences prevent full-device occupancy).
    pub(crate) recurrent_eff: f64,
    /// Bandwidth fraction (of `stream_bw_frac`) achieved by concatenation
    /// kernels: many short, unaligned row copies coalesce poorly — the
    /// reason the paper's DIN "performs poorly on GPUs" (Fig 3).
    pub(crate) concat_bw_frac: f64,
    /// On-board DRAM capacity in bytes (Table II). Models whose parameters
    /// exceed it cannot be deployed resident and fall back to host paging.
    pub(crate) dram_capacity_bytes: u64,
}

impl GpuModel {
    /// NVIDIA GTX 1080 Ti (Pascal) per Table II.
    pub fn gtx_1080_ti() -> Self {
        GpuModel {
            name: "GTX 1080 Ti",
            peak_flops: 11.3e12,
            mem_bw: 484.4e9,
            sm_count: 28,
            launch_overhead_s: 4.0e-6,
            pcie_bw: 12.0e9,
            pcie_latency_s: 10.0e-6,
            eff_max: 0.55,
            eff_half_work: 3.0e7,
            random_bw_frac: 0.08,
            stream_bw_frac: 0.75,
            min_kernel_s: 4.0e-6,
            recurrent_eff: 0.15,
            concat_bw_frac: 0.08,
            dram_capacity_bytes: 11 * 1024 * 1024 * 1024,
        }
    }

    /// NVIDIA T4 (Turing) per Table II.
    pub fn t4() -> Self {
        GpuModel {
            name: "T4",
            peak_flops: 8.1e12,
            mem_bw: 320.0e9,
            sm_count: 40,
            launch_overhead_s: 5.0e-6,
            pcie_bw: 12.0e9,
            pcie_latency_s: 10.0e-6,
            eff_max: 0.85,
            eff_half_work: 8.0e7,
            random_bw_frac: 0.14,
            stream_bw_frac: 0.75,
            min_kernel_s: 4.0e-6,
            recurrent_eff: 0.18,
            concat_bw_frac: 0.1,
            dram_capacity_bytes: 16 * 1024 * 1024 * 1024,
        }
    }

    /// Dense-kernel efficiency for a kernel doing `flops` of work.
    pub(crate) fn dense_efficiency(&self, flops: f64) -> f64 {
        self.eff_max * flops / (flops + self.eff_half_work)
    }

    /// Kernel launches an op issues.
    fn launches(op: &OpTrace) -> f64 {
        match op.class {
            // One launch per gate-group per timestep.
            KernelClass::Recurrent => (op.code.invocations.max(1) * 4) as f64,
            _ => op.code.invocations.max(1) as f64,
        }
    }

    /// Modelled execution seconds for one op (excluding PCIe).
    pub(crate) fn op_seconds(&self, op: &OpTrace) -> f64 {
        let flops = op.work.total_flops();
        let load_bytes = op.work.contig_load_elems * 4.0;
        let store_bytes = op.work.contig_store_elems * 4.0;
        let gather_bytes = op.work.gather_bytes();
        let launch = Self::launches(op) * self.launch_overhead_s;

        let launches_n = Self::launches(op);
        let dense_bytes = op.bytes_in as f64 + op.bytes_out as f64 + op.param_bytes as f64;
        let (compute, memory) = match op.class {
            KernelClass::DenseMatmul => {
                let eff = self.dense_efficiency(flops).max(1e-4);
                (
                    flops / (self.peak_flops * eff),
                    dense_bytes / (self.mem_bw * self.stream_bw_frac),
                )
            }
            KernelClass::Recurrent => {
                // Efficiency is set by the work of one timestep kernel;
                // the sequential dependence chain caps occupancy.
                let per_launch = flops / launches_n.max(1.0);
                let eff = (self.dense_efficiency(per_launch) * self.recurrent_eff).max(1e-4);
                (
                    flops / (self.peak_flops * eff),
                    dense_bytes / (self.mem_bw * self.stream_bw_frac),
                )
            }
            KernelClass::Gather => (
                flops / (self.peak_flops * 0.05),
                gather_bytes / (self.mem_bw * self.random_bw_frac)
                    + (load_bytes + store_bytes) / (self.mem_bw * self.stream_bw_frac),
            ),
            KernelClass::DataMovement => (
                flops / (self.peak_flops * 0.1),
                (load_bytes + store_bytes)
                    / (self.mem_bw * self.stream_bw_frac * self.concat_bw_frac),
            ),
            KernelClass::Elementwise | KernelClass::Reduction => (
                flops / (self.peak_flops * 0.1),
                (load_bytes + store_bytes + gather_bytes) / (self.mem_bw * self.stream_bw_frac),
            ),
        };
        compute.max(memory).max(launches_n * self.min_kernel_s) + launch
    }

    /// Evaluates a full inference run, including the input PCIe transfer:
    /// [`GpuModel::step`] over its operators, then [`GpuModel::finish`].
    pub fn simulate(&self, run: &RunTrace) -> GpuCounters {
        let mut tally = GpuTally::default();
        for op in &run.ops {
            self.step(&mut tally, op);
        }
        self.finish(tally, run.input_bytes)
    }

    /// Prices the run's next operator into `tally`.
    pub fn step(&self, tally: &mut GpuTally, op: &OpTrace) {
        let secs = self.op_seconds(op);
        let l = Self::launches(op);
        tally.launches += l;
        tally.launch += l * self.launch_overhead_s;
        tally.compute += secs - l * self.launch_overhead_s;
        let op_seconds = (op.name.clone(), op.op_type.clone(), secs);
        tally.op_seconds.push(op_seconds);
    }

    /// The counters of the run `tally` stepped through, whose inputs were
    /// `input_bytes` (the PCIe transfer).
    pub fn finish(&self, tally: GpuTally, input_bytes: u64) -> GpuCounters {
        let data_comm = input_bytes as f64 / self.pcie_bw + self.pcie_latency_s;
        GpuCounters {
            seconds: data_comm + tally.compute + tally.launch,
            data_comm_seconds: data_comm,
            compute_seconds: tally.compute,
            launch_seconds: tally.launch,
            kernel_launches: tally.launches,
            op_seconds: tally.op_seconds,
        }
    }
}

/// What [`GpuModel::step`] accumulates over one run's operators and
/// [`GpuModel::finish`] turns into [`GpuCounters`].
#[derive(Debug, Default)]
pub struct GpuTally {
    compute: f64,
    launch: f64,
    launches: f64,
    op_seconds: Vec<(String, String, f64)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use drec_trace::{BranchProfile, CodeFootprint, SampledMemTrace, WorkVector};

    fn op(class: KernelClass, work: WorkVector) -> OpTrace {
        OpTrace {
            name: "op".to_string(),
            op_type: "FC".to_string(),
            class,
            work,
            branches: BranchProfile::default(),
            code: CodeFootprint {
                invocations: 1,
                ..CodeFootprint::empty()
            },
            mem: SampledMemTrace::with_period(1),
            bytes_in: 0,
            bytes_out: 0,
            param_bytes: 0,
        }
    }

    #[test]
    fn efficiency_saturates_with_work() {
        let gpu = GpuModel::gtx_1080_ti();
        assert!(gpu.dense_efficiency(1e5) < 0.01);
        assert!(gpu.dense_efficiency(1e10) > 0.5);
    }

    #[test]
    fn big_matmul_beats_small_matmul_per_flop() {
        let gpu = GpuModel::t4();
        let small = op(
            KernelClass::DenseMatmul,
            WorkVector {
                fma_flops: 1e6,
                vectorizable: 1.0,
                ..WorkVector::default()
            },
        );
        let big = op(
            KernelClass::DenseMatmul,
            WorkVector {
                fma_flops: 1e9,
                vectorizable: 1.0,
                ..WorkVector::default()
            },
        );
        let t_small = gpu.op_seconds(&small) / 1e6;
        let t_big = gpu.op_seconds(&big) / 1e9;
        assert!(t_big < t_small / 10.0);
    }

    #[test]
    fn gathers_are_bandwidth_bound_at_low_efficiency() {
        let gpu = GpuModel::gtx_1080_ti();
        let g = op(
            KernelClass::Gather,
            WorkVector {
                gather_rows: 1e6,
                gather_row_bytes: 256.0,
                other_flops: 6.4e7,
                ..WorkVector::default()
            },
        );
        let secs = gpu.op_seconds(&g);
        let ideal = 2.56e8 / gpu.mem_bw;
        assert!(secs > ideal * 5.0, "gathers should be far from peak bw");
    }

    #[test]
    fn data_comm_fraction_grows_with_batch() {
        let gpu = GpuModel::t4();
        let mk_run = |batch: u64| RunTrace {
            ops: vec![op(
                KernelClass::DenseMatmul,
                WorkVector {
                    fma_flops: 1e6 * batch as f64,
                    vectorizable: 1.0,
                    ..WorkVector::default()
                },
            )],
            batch: batch as usize,
            input_bytes: 4_096 * batch,
        };
        let small = gpu.simulate(&mk_run(1));
        let large = gpu.simulate(&mk_run(4_096));
        assert!(large.data_comm_fraction() > small.data_comm_fraction());
    }

    #[test]
    fn recurrent_ops_pay_per_timestep_launches() {
        let gpu = GpuModel::t4();
        let mut gru = op(
            KernelClass::Recurrent,
            WorkVector {
                fma_flops: 1e6,
                vectorizable: 1.0,
                ..WorkVector::default()
            },
        );
        gru.code.invocations = 48;
        let counters = gpu.simulate(&RunTrace {
            ops: vec![gru],
            batch: 1,
            input_bytes: 64,
        });
        assert_eq!(counters.kernel_launches, 192.0);
        assert!(counters.launch_seconds > 1e-4 * 9.0);
    }
}
