//! Work-vector → instruction/μop synthesis for a given SIMD width.
//!
//! This conversion is where ISA differences become visible: the same
//! [`WorkVector`] becomes fewer (wider) instructions on AVX-512 Cascade
//! Lake than on AVX2 Broadwell — the paper's Fig 9/11 effect.

use drec_ops::FRAMEWORK_OVERHEAD_INSTRS;
use drec_trace::WorkVector;
use drec_uarch::UopMix;

/// Instruction-level view of one op on one ISA.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct InstCounts {
    /// Retired instructions.
    pub(crate) instructions: f64,
    /// Retired vector (AVX) instructions.
    pub(crate) vector_instructions: f64,
    /// Issued μops by port class.
    pub(crate) uops: UopMix,
}

impl InstCounts {
    /// Total μops.
    pub(crate) fn total_uops(&self) -> f64 {
        self.uops.total()
    }

    /// Accumulates another op.
    pub(crate) fn add(&mut self, other: &InstCounts) {
        self.instructions += other.instructions;
        self.vector_instructions += other.vector_instructions;
        self.uops.add(&other.uops);
    }
}

/// Elements per vector load/store at the given lane width (f32 lanes).
fn mem_lanes(simd_lanes: f64) -> f64 {
    simd_lanes
}

/// Converts an op's work vector into instruction and μop counts for a CPU
/// with `simd_lanes` f32 lanes (8 for AVX2, 16 for AVX-512) plus the
/// per-op framework dispatch overhead.
///
/// FMA-capable flops retire 2 flops per (vector) instruction lane; the
/// `vectorizable` fraction of fp work uses vector instructions, the rest
/// scalar. Gathered rows become one microcoded gather group per
/// `simd_lanes × 4` bytes of row data plus index arithmetic.
pub(crate) fn synthesize_instructions(
    work: &WorkVector,
    branches_total: f64,
    simd_lanes: f64,
) -> InstCounts {
    let vec_frac = work.vectorizable.clamp(0.0, 1.0);

    // Arithmetic.
    let fma_vec = work.fma_flops * vec_frac / (2.0 * simd_lanes);
    let fma_scalar = work.fma_flops * (1.0 - vec_frac) / 2.0;
    let other_vec = work.other_flops * vec_frac / simd_lanes;
    let other_scalar = work.other_flops * (1.0 - vec_frac);
    let vec_fp_instrs = fma_vec + other_vec;
    let scalar_fp_instrs = fma_scalar + other_scalar;

    // Memory.
    let lanes = mem_lanes(simd_lanes);
    let vec_loads = work.contig_load_elems * vec_frac / lanes;
    let scalar_loads = work.contig_load_elems * (1.0 - vec_frac);
    let vec_stores = work.contig_store_elems * vec_frac / lanes;
    let scalar_stores = work.contig_store_elems * (1.0 - vec_frac);
    let loads = vec_loads + scalar_loads;
    let stores = vec_stores + scalar_stores;

    // Gathers: one microcoded group per vector-register-width of row data.
    let bytes_per_group = simd_lanes * 4.0;
    let gather_groups = if work.gather_rows > 0.0 {
        work.gather_rows * (work.gather_row_bytes / bytes_per_group).max(1.0)
    } else {
        0.0
    };

    let int_instrs = work.int_ops + work.gather_rows * 2.0;
    let overhead = FRAMEWORK_OVERHEAD_INSTRS;

    let instructions = vec_fp_instrs
        + scalar_fp_instrs
        + loads
        + stores
        + gather_groups
        + int_instrs
        + branches_total
        + overhead;
    let vector_instructions = vec_fp_instrs + vec_loads + vec_stores + gather_groups;

    InstCounts {
        instructions,
        vector_instructions,
        uops: UopMix {
            scalar_int: int_instrs + overhead * 0.7,
            scalar_fp: scalar_fp_instrs,
            vec_fp: vec_fp_instrs,
            loads: loads + overhead * 0.2,
            stores,
            gathers: gather_groups,
            branches: branches_total + overhead * 0.1,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fc_work() -> WorkVector {
        WorkVector {
            fma_flops: 1_000_000.0,
            other_flops: 10_000.0,
            int_ops: 15_000.0,
            contig_load_elems: 200_000.0,
            contig_store_elems: 20_000.0,
            gather_rows: 0.0,
            gather_row_bytes: 0.0,
            vectorizable: 0.98,
        }
    }

    #[test]
    fn avx512_retires_fewer_instructions() {
        let avx2 = synthesize_instructions(&fc_work(), 30_000.0, 8.0);
        let avx512 = synthesize_instructions(&fc_work(), 30_000.0, 16.0);
        assert!(avx512.instructions < avx2.instructions);
        // Roughly half the vector instruction count.
        let ratio = avx512.vector_instructions / avx2.vector_instructions;
        assert!((0.45..0.6).contains(&ratio), "{ratio}");
    }

    #[test]
    fn fc_is_avx_dominated() {
        let c = synthesize_instructions(&fc_work(), 30_000.0, 8.0);
        let avx_fraction = c.vector_instructions / c.instructions;
        assert!(avx_fraction > 0.5, "{avx_fraction}");
    }

    #[test]
    fn gathers_become_microcoded_groups() {
        let work = WorkVector {
            gather_rows: 1_000.0,
            gather_row_bytes: 128.0,
            other_flops: 32_000.0,
            vectorizable: 0.9,
            ..WorkVector::default()
        };
        let c = synthesize_instructions(&work, 1_000.0, 8.0);
        // 128B rows / 32B groups = 4 groups per row.
        assert_eq!(c.uops.gathers, 4_000.0);
        // Wider registers need fewer groups.
        let c512 = synthesize_instructions(&work, 1_000.0, 16.0);
        assert_eq!(c512.uops.gathers, 2_000.0);
    }

    #[test]
    fn framework_overhead_floors_instruction_count() {
        let c = synthesize_instructions(&WorkVector::default(), 0.0, 8.0);
        assert!(c.instructions >= FRAMEWORK_OVERHEAD_INSTRS);
        assert_eq!(c.vector_instructions, 0.0);
    }

    #[test]
    fn scalar_work_is_not_vectorized() {
        let work = WorkVector {
            other_flops: 10_000.0,
            vectorizable: 0.0,
            ..WorkVector::default()
        };
        let c = synthesize_instructions(&work, 0.0, 8.0);
        assert_eq!(c.vector_instructions, 0.0);
        assert_eq!(c.uops.scalar_fp, 10_000.0);
    }
}
