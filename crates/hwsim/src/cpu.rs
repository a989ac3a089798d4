use drec_trace::{KernelClass, OpTrace, RunTrace};
use drec_uarch::{
    BranchSynth, CacheConfig, CacheHierarchy, DramConfig, DramModel, DsbConfig, FetchSim,
    GshareConfig, HierarchyConfig, InclusionPolicy, PortConfig, PortScheduler, PortStats,
    PrefetcherConfig, StridePrefetcher, TlbConfig, TlbSim,
};

use crate::{synthesize_instructions, CpuCounters, InstCounts, TopDown};

/// Full configuration of a CPU platform model (Table II plus published
/// microarchitectural parameters; see DESIGN.md §5 on calibration).
#[derive(Debug, Clone, PartialEq)]
pub struct CpuModel {
    /// Display name.
    pub name: &'static str,
    /// Core frequency in Hz.
    pub freq_hz: f64,
    /// f32 SIMD lanes (8 = AVX2, 16 = AVX-512).
    pub simd_lanes: f64,
    /// Data-cache hierarchy geometry.
    pub hierarchy: HierarchyConfig,
    /// L1 instruction cache geometry.
    pub icache: CacheConfig,
    /// Decoded-μop cache geometry.
    pub dsb: DsbConfig,
    /// Branch predictor geometry.
    pub(crate) gshare: GshareConfig,
    /// Execution-port file.
    pub ports: PortConfig,
    /// DRAM bandwidth/latency/queue.
    pub dram: DramConfig,
    /// L2 hit latency (cycles).
    pub(crate) l2_latency: f64,
    /// L3 hit latency (cycles).
    pub(crate) l3_latency: f64,
    /// L1-I miss penalty (cycles; code mostly hits L2).
    pub(crate) icache_miss_penalty: f64,
    /// Pipeline flush penalty per branch mispredict (cycles).
    pub(crate) flush_penalty: f64,
    /// Extra frontend cycles per MITE-decoded 32-byte window relative to
    /// DSB delivery.
    pub(crate) mite_extra_per_window: f64,
    /// Cycles lost per DSB↔MITE switch.
    pub(crate) dsb_switch_penalty: f64,
    /// Frontend refill cycles charged to the DSB per branch mispredict
    /// (the BPU→DSB interaction the paper describes in Fig 13).
    pub(crate) dsb_refill_per_mispredict: f64,
    /// Fraction of a *covered* access's miss latency the prefetcher hides
    /// (coverage itself is measured per op by the [`StridePrefetcher`]).
    pub(crate) prefetch_efficiency: f64,
    /// Stride-prefetcher geometry.
    pub(crate) prefetcher: PrefetcherConfig,
    /// Data-TLB geometry (page size is the hugepage ablation knob).
    pub tlb: TlbConfig,
    /// Memory-level parallelism for contiguous streams.
    pub(crate) mlp_contig: f64,
    /// Memory-level parallelism for gathers.
    pub mlp_gather: f64,
    /// Sustained L3 read bandwidth in bytes per core cycle; streams that
    /// outrun it stall the backend on memory even when every access hits
    /// L3 (the Cascade-Lake FC-model story in Fig 10).
    pub(crate) l3_bw_bytes_per_cycle: f64,
}

impl CpuModel {
    /// Intel Xeon E5-2697A v4 (Broadwell) per Table II.
    pub fn broadwell() -> Self {
        CpuModel {
            name: "Broadwell",
            freq_hz: 2.6e9,
            simd_lanes: 8.0,
            hierarchy: HierarchyConfig {
                l1: CacheConfig {
                    bytes: 32 * 1024,
                    ways: 8,
                    line: 64,
                },
                l2: CacheConfig {
                    bytes: 256 * 1024,
                    ways: 8,
                    line: 64,
                },
                l3: CacheConfig {
                    bytes: 40 * 1024 * 1024,
                    ways: 20,
                    line: 64,
                },
                set_sample_ratio: 1,
                policy: InclusionPolicy::Inclusive,
            },
            icache: CacheConfig {
                bytes: 32 * 1024,
                ways: 8,
                line: 64,
            },
            dsb: DsbConfig::default(),
            gshare: GshareConfig {
                table_bits: 13,
                history_bits: 12,
                bimodal_fallback: false,
            },
            ports: PortConfig {
                issue_width: 4,
                alu_ports: 4,
                vec_ports: 2,
                load_ports: 2,
                store_ports: 1,
                branch_ports: 1,
                gather_load_cycles: 4.0,
                total_units: 8,
            },
            dram: DramConfig {
                bandwidth_bytes_per_sec: 77e9,
                latency_cycles: 220.0,
                queue_entries: 26.0,
                core_freq_hz: 2.6e9,
            },
            l2_latency: 12.0,
            l3_latency: 40.0,
            icache_miss_penalty: 14.0,
            flush_penalty: 17.0,
            mite_extra_per_window: 1.0,
            dsb_switch_penalty: 2.0,
            dsb_refill_per_mispredict: 4.0,
            prefetch_efficiency: 0.93,
            prefetcher: PrefetcherConfig {
                streams: 16,
                trigger: 2,
            },
            tlb: TlbConfig::default(),
            mlp_contig: 10.0,
            mlp_gather: 8.0,
            l3_bw_bytes_per_cycle: 15.0,
        }
    }

    /// Intel Xeon Gold 6242 (Cascade Lake) per Table II.
    pub fn cascade_lake() -> Self {
        CpuModel {
            name: "Cascade Lake",
            freq_hz: 2.8e9,
            simd_lanes: 16.0,
            hierarchy: HierarchyConfig {
                l1: CacheConfig {
                    bytes: 32 * 1024,
                    ways: 8,
                    line: 64,
                },
                l2: CacheConfig {
                    bytes: 1024 * 1024,
                    ways: 16,
                    line: 64,
                },
                l3: CacheConfig {
                    bytes: 22 * 1024 * 1024,
                    ways: 11,
                    line: 64,
                },
                set_sample_ratio: 1,
                policy: InclusionPolicy::Exclusive,
            },
            icache: CacheConfig {
                bytes: 32 * 1024,
                ways: 8,
                line: 64,
            },
            dsb: DsbConfig::default(),
            gshare: GshareConfig {
                table_bits: 15,
                history_bits: 16,
                bimodal_fallback: true,
            },
            ports: PortConfig {
                issue_width: 4,
                alu_ports: 4,
                vec_ports: 2,
                load_ports: 2,
                store_ports: 1,
                branch_ports: 1,
                gather_load_cycles: 2.0,
                total_units: 8,
            },
            dram: DramConfig {
                bandwidth_bytes_per_sec: 131e9,
                latency_cycles: 210.0,
                queue_entries: 40.0,
                core_freq_hz: 2.8e9,
            },
            l2_latency: 14.0,
            l3_latency: 44.0,
            icache_miss_penalty: 14.0,
            flush_penalty: 15.0,
            mite_extra_per_window: 1.0,
            dsb_switch_penalty: 2.0,
            dsb_refill_per_mispredict: 3.0,
            prefetch_efficiency: 0.94,
            prefetcher: PrefetcherConfig {
                streams: 24,
                trigger: 2,
            },
            tlb: TlbConfig::default(),
            mlp_contig: 10.0,
            mlp_gather: 12.0,
            l3_bw_bytes_per_cycle: 13.0,
        }
    }

    /// Set-sampling ratio to apply to the data hierarchy (speed knob).
    pub fn with_set_sampling(mut self, ratio: u64) -> Self {
        self.hierarchy.set_sample_ratio = ratio;
        self
    }
}

/// Stateful CPU simulation over one run trace.
///
/// Owns the uarch component simulators; cache, DSB, and predictor contents
/// persist across the ops of a run (and across runs if reused, unless
/// [`CpuSim::reset`] is called in between), capturing inter-operator
/// locality.
#[derive(Debug)]
pub struct CpuSim {
    model: CpuModel,
    hierarchy: CacheHierarchy,
    fetch: FetchSim,
    branches: BranchSynth,
    scheduler: PortScheduler,
    dram: DramModel,
    prefetcher: StridePrefetcher,
    tlb: TlbSim,
}

/// What [`CpuSim::step`] accumulates over one run's operators and
/// [`CpuSim::finish`] turns into [`CpuCounters`].
#[derive(Debug, Default)]
pub struct CpuTally {
    /// Operators stepped so far (the next one's index).
    ops: u64,
    total: InstCounts,
    cycles_total: f64,
    retire_cyc_total: f64,
    core_cyc_total: f64,
    mem_cyc_total: f64,
    fe_cyc_total: f64,
    bs_cyc_total: f64,
    icache_misses: f64,
    tlb_walks: f64,
    mispredicts: f64,
    dsb_limited: f64,
    mite_limited: f64,
    congested_cycles: f64,
    mem_hits: [f64; 4],
    fu: PortStats,
    op_seconds: Vec<(String, String, f64)>,
}

impl CpuSim {
    /// Creates a fresh simulation for `model`.
    pub fn new(model: CpuModel) -> Self {
        CpuSim {
            hierarchy: CacheHierarchy::new(model.hierarchy),
            fetch: FetchSim::new(model.icache, model.dsb),
            branches: BranchSynth::new(model.gshare),
            scheduler: PortScheduler::new(model.ports),
            dram: DramModel::new(model.dram),
            prefetcher: StridePrefetcher::new(model.prefetcher),
            tlb: TlbSim::new(model.tlb),
            model,
        }
    }

    /// Returns the simulation to [`CpuSim::new`]'s state — cold caches,
    /// DSB, TLB, prefetcher and predictor — without reallocating any of
    /// them.
    pub fn reset(&mut self) {
        self.hierarchy.clear();
        self.fetch.clear();
        self.branches.clear();
        self.prefetcher.clear();
        self.tlb.clear();
    }

    /// The model configuration.
    pub fn model(&self) -> &CpuModel {
        &self.model
    }

    /// Simulates one inference run and produces the full counter set:
    /// [`CpuSim::step`] over its operators, then [`CpuSim::finish`].
    pub fn simulate(&mut self, run: &RunTrace) -> CpuCounters {
        let mut tally = self.tally();
        for op in &run.ops {
            self.step(&mut tally, op);
        }
        self.finish(tally)
    }

    /// An empty tally for a run on this simulation.
    pub fn tally(&self) -> CpuTally {
        CpuTally {
            fu: PortStats::empty(self.model.ports.total_units),
            ..CpuTally::default()
        }
    }

    /// Simulates the run's next operator into `tally`.
    pub fn step(&mut self, tally: &mut CpuTally, op: &OpTrace) {
        let (op_cycles, parts) = self.simulate_op(op, tally.ops, &mut tally.total, &mut tally.fu);
        tally.ops += 1;
        tally.cycles_total += op_cycles;
        tally.retire_cyc_total += parts.retire;
        tally.core_cyc_total += parts.core;
        tally.mem_cyc_total += parts.mem;
        tally.fe_cyc_total += parts.frontend;
        tally.bs_cyc_total += parts.bad_spec;
        tally.icache_misses += parts.icache_misses;
        tally.tlb_walks += parts.tlb_walks;
        tally.mispredicts += parts.mispredicts;
        tally.dsb_limited += parts.dsb_limited;
        tally.mite_limited += parts.mite_limited;
        if parts.congested {
            tally.congested_cycles += op_cycles;
        }
        for (a, b) in tally.mem_hits.iter_mut().zip(parts.mem_hits) {
            *a += b;
        }
        let seconds = op_cycles / self.model.freq_hz;
        let op_seconds = (op.name.clone(), op.op_type.clone(), seconds);
        tally.op_seconds.push(op_seconds);
    }

    /// The counters of the run the tally `t` stepped through.
    pub fn finish(&self, t: CpuTally) -> CpuCounters {
        let freq_hz = self.model.freq_hz;
        let cycles = t.cycles_total.max(1.0);
        // Stall cycles appear in the FU histogram as idle cycles.
        let sim_port_cycles: f64 = t.fu.busy_hist.iter().sum();
        let stall_cycles = (cycles - sim_port_cycles).max(0.0);
        let mut fu_hist = t.fu.busy_hist;
        if !fu_hist.is_empty() {
            fu_hist[0] += stall_cycles * 0.6;
            fu_hist[1] += stall_cycles * 0.4;
        }
        let hist_total: f64 = fu_hist.iter().sum();
        let fu_hist: Vec<f64> = fu_hist
            .iter()
            .map(|h| {
                if hist_total > 0.0 {
                    h / hist_total
                } else {
                    0.0
                }
            })
            .collect();

        let kilo_instructions = (t.total.instructions / 1_000.0).max(1e-9);
        CpuCounters {
            cycles,
            seconds: cycles / freq_hz,
            retired_instructions: t.total.instructions,
            avx_instructions: t.total.vector_instructions,
            uops: t.total.total_uops(),
            topdown: TopDown {
                retiring: t.retire_cyc_total / cycles,
                frontend: t.fe_cyc_total / cycles,
                bad_speculation: t.bs_cyc_total / cycles,
                backend_core: t.core_cyc_total / cycles,
                backend_memory: t.mem_cyc_total / cycles,
            },
            icache_mpki: t.icache_misses / kilo_instructions,
            tlb_walk_mpki: t.tlb_walks / kilo_instructions,
            branch_mpki: t.mispredicts / kilo_instructions,
            dsb_limited_frac: t.dsb_limited / cycles,
            mite_limited_frac: t.mite_limited / cycles,
            fu_hist,
            dram_congested_frac: t.congested_cycles / cycles,
            mem_level_hits: t.mem_hits,
            op_seconds: t.op_seconds,
        }
    }

    fn simulate_op(
        &mut self,
        op: &OpTrace,
        idx: u64,
        total: &mut InstCounts,
        fu: &mut PortStats,
    ) -> (f64, OpParts) {
        let m = &self.model;
        let inst = synthesize_instructions(&op.work, op.branches.total(), m.simd_lanes);
        total.add(&inst);

        let ports = self.scheduler.run_op(&inst.uops);
        fu.add(&ports);
        let retire = inst.total_uops() / m.ports.issue_width as f64;
        let core = (ports.cycles - retire).max(0.0);

        // Data-side memory stalls. Prefetch coverage is *measured* from
        // the op's actual access pattern rather than assumed per class.
        let mem_stats = self.hierarchy.run_trace(&op.mem);
        let coverage = self.prefetcher.run_trace(&op.mem).coverage();
        let tlb_stats = self.tlb.run_trace(&op.mem);
        let is_gather = op.class == KernelClass::Gather;
        let mlp = if is_gather {
            m.mlp_gather
        } else {
            m.mlp_contig
        };
        let pf = coverage * m.prefetch_efficiency;
        // A gathered row spans several adjacent lines that fetch under one
        // latency; latency-type stalls are charged per row, bandwidth per
        // line.
        let row_factor = if is_gather && op.work.gather_row_bytes > 64.0 {
            64.0 / op.work.gather_row_bytes.min(256.0)
        } else {
            1.0
        };
        let cache_stall = (mem_stats.l2_hits * m.l2_latency + mem_stats.l3_hits * m.l3_latency)
            * (1.0 - pf)
            * row_factor
            / mlp;
        let dram_stats = self.dram.run_op(mem_stats.dram_accesses, retire + core);
        // DRAM time is bounded below by bandwidth and above by exposed
        // latency; taking the max keeps the model monotone across the
        // latency/bandwidth regime boundary (the `congested` flag is the
        // Fig 14 classification, not a different cost model).
        let dram_latency_stall = self
            .dram
            .latency_stall_cycles(mem_stats.dram_accesses * row_factor, mlp)
            * (1.0 - pf);
        let dram_stall = dram_stats.bandwidth_cycles.max(dram_latency_stall);
        // Page walks overlap with the op's other outstanding misses (and
        // sequential-page streams have prefetch-covered, PTE-cached walks).
        let tlb_stall = tlb_stats.walks * m.tlb.walk_latency * (1.0 - pf) / mlp;
        // L3 bandwidth: streaming demand beyond what the ring sustains
        // stalls even on hits (visible once wide SIMD shrinks the compute
        // cycles it can hide behind).
        let l3_bytes = (mem_stats.l3_hits + mem_stats.dram_accesses) * 64.0;
        let l3_bw_stall = (l3_bytes / m.l3_bw_bytes_per_cycle - (retire + core)).max(0.0);
        let mem = cache_stall + dram_stall + l3_bw_stall + tlb_stall;

        // Frontend.
        let fe_stats = self.fetch.run_op(&op.code);
        let branch_stats = self.branches.run_op(&op.branches, idx);
        let fe_latency = fe_stats.icache_misses * m.icache_miss_penalty;
        let mite_cycles = fe_stats.mite_windows * m.mite_extra_per_window;
        let dsb_cycles = fe_stats.dsb_switches * m.dsb_switch_penalty
            + branch_stats.mispredicts * m.dsb_refill_per_mispredict;
        let frontend = fe_latency + mite_cycles + dsb_cycles;

        // Bad speculation.
        let bad_spec = branch_stats.mispredicts * m.flush_penalty;

        let op_cycles = retire + core + mem + frontend + bad_spec;
        (
            op_cycles,
            OpParts {
                retire,
                core,
                mem,
                frontend,
                bad_spec,
                tlb_walks: tlb_stats.walks,
                icache_misses: fe_stats.icache_misses,
                mispredicts: branch_stats.mispredicts,
                dsb_limited: dsb_cycles,
                mite_limited: fe_latency + mite_cycles,
                congested: dram_stats.congested,
                mem_hits: [
                    mem_stats.l1_hits,
                    mem_stats.l2_hits,
                    mem_stats.l3_hits,
                    mem_stats.dram_accesses,
                ],
            },
        )
    }
}

struct OpParts {
    retire: f64,
    tlb_walks: f64,
    core: f64,
    mem: f64,
    frontend: f64,
    bad_spec: f64,
    icache_misses: f64,
    mispredicts: f64,
    dsb_limited: f64,
    mite_limited: f64,
    congested: bool,
    mem_hits: [f64; 4],
}

#[cfg(test)]
mod tests {
    use super::*;
    use drec_trace::{BranchProfile, CodeFootprint, CodeRegion, SampledMemTrace, WorkVector};

    fn fc_like_op(name: &str, macs: f64) -> OpTrace {
        let mut mem = SampledMemTrace::with_period(1);
        for i in 0..256u64 {
            mem.record(0x10000 + i * 64, 64, drec_trace::AccessKind::Read);
        }
        OpTrace {
            name: name.to_string(),
            op_type: "FC".to_string(),
            class: KernelClass::DenseMatmul,
            work: WorkVector {
                fma_flops: 2.0 * macs,
                other_flops: macs / 100.0,
                int_ops: macs / 16.0,
                contig_load_elems: macs / 10.0,
                contig_store_elems: macs / 100.0,
                vectorizable: 0.98,
                ..WorkVector::default()
            },
            branches: BranchProfile {
                loop_branches: macs / 32.0,
                indirect_branches: 4.0,
                ..BranchProfile::default()
            },
            code: CodeFootprint {
                dispatch: CodeRegion {
                    base: 0x7f00_0000,
                    bytes: 640,
                },
                kernel: CodeRegion {
                    base: 0x7f01_0000,
                    bytes: 14 * 1024,
                },
                hot_bytes: 384,
                invocations: 1,
                iterations: macs / 32.0,
            },
            mem,
            bytes_in: 4096,
            bytes_out: 4096,
            param_bytes: 0,
        }
    }

    fn run_of(ops: Vec<OpTrace>) -> RunTrace {
        RunTrace {
            ops,
            batch: 16,
            input_bytes: 4096,
        }
    }

    #[test]
    fn fc_run_is_mostly_retiring_or_core_bound() {
        let mut sim = CpuSim::new(CpuModel::broadwell());
        let counters = sim.simulate(&run_of(vec![fc_like_op("fc", 1e7)]));
        let td = counters.topdown;
        assert!(
            td.retiring + td.backend_core > 0.6,
            "FC should be compute-dominated: {td:?}"
        );
        assert!(counters.avx_fraction() > 0.4, "{}", counters.avx_fraction());
    }

    #[test]
    fn cascade_lake_is_faster_and_retires_fewer_instructions() {
        let run = run_of(vec![fc_like_op("fc", 1e7)]);
        let bdw = CpuSim::new(CpuModel::broadwell()).simulate(&run);
        let clx = CpuSim::new(CpuModel::cascade_lake()).simulate(&run);
        assert!(
            clx.seconds < bdw.seconds,
            "{} vs {}",
            clx.seconds,
            bdw.seconds
        );
        assert!(clx.retired_instructions < bdw.retired_instructions);
    }

    #[test]
    fn topdown_fractions_sum_to_one() {
        let mut sim = CpuSim::new(CpuModel::broadwell());
        let counters = sim.simulate(&run_of(vec![fc_like_op("a", 1e6), fc_like_op("b", 1e5)]));
        assert!((counters.topdown.total() - 1.0).abs() < 1e-6);
        let hist_sum: f64 = counters.fu_hist.iter().sum();
        assert!((hist_sum - 1.0).abs() < 1e-6);
    }

    #[test]
    fn per_op_seconds_sum_to_total() {
        let mut sim = CpuSim::new(CpuModel::broadwell());
        let counters = sim.simulate(&run_of(vec![fc_like_op("a", 1e6), fc_like_op("b", 2e6)]));
        let sum: f64 = counters.op_seconds.iter().map(|o| o.2).sum();
        assert!((sum - counters.seconds).abs() / counters.seconds < 1e-9);
    }

    #[test]
    fn gather_op_stresses_memory_and_speculation() {
        let mut mem = SampledMemTrace::with_period(1);
        let mut state = 0x5u64;
        for _ in 0..200_000u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(11);
            mem.record((state >> 10) % (4 << 30), 64, drec_trace::AccessKind::Read);
        }
        let gather = OpTrace {
            name: "sls".to_string(),
            op_type: "SparseLengthsSum".to_string(),
            class: KernelClass::Gather,
            work: WorkVector {
                other_flops: 200_000.0 * 16.0,
                int_ops: 200_000.0 * 4.0,
                gather_rows: 200_000.0,
                gather_row_bytes: 64.0,
                contig_load_elems: 200_000.0,
                contig_store_elems: 16_000.0,
                vectorizable: 0.9,
                ..WorkVector::default()
            },
            branches: BranchProfile {
                loop_branches: 400_000.0,
                data_branches: 200_000.0,
                data_taken_rate: 0.3,
                indirect_branches: 4.0,
            },
            code: CodeFootprint {
                dispatch: CodeRegion {
                    base: 0x7f20_0000,
                    bytes: 704,
                },
                kernel: CodeRegion {
                    base: 0x7f21_0000,
                    bytes: 2048,
                },
                hot_bytes: 192,
                invocations: 1,
                iterations: 400_000.0,
            },
            mem,
            bytes_in: 800_000,
            bytes_out: 64_000,
            param_bytes: 0,
        };
        let mut sim = CpuSim::new(CpuModel::broadwell());
        let counters = sim.simulate(&run_of(vec![gather]));
        let td = counters.topdown;
        assert!(
            td.backend_memory + td.bad_speculation + td.frontend > 0.4,
            "gathers should stall: {td:?}"
        );
        assert!(counters.branch_mpki > 1.0, "{}", counters.branch_mpki);
    }
}
