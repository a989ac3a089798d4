use std::fmt;

use crate::{KernelClass, RunTrace};

/// Aggregated work totals for one kernel class within a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClassTotals {
    /// Number of operator executions.
    pub ops: usize,
    /// Floating-point operations.
    pub(crate) flops: f64,
    /// Bytes moved by contiguous loads/stores.
    pub(crate) stream_bytes: f64,
    /// Bytes moved by irregular gathers.
    pub gather_bytes: f64,
    /// Branches executed.
    pub(crate) branches: f64,
}

/// A per-class digest of a [`RunTrace`] — the quick look a practitioner
/// takes before deciding which stack level to drill into.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Batch size of the summarised run.
    pub(crate) batch: usize,
    /// Totals per kernel class, in [`KernelClass::ALL`] order (classes
    /// with no ops are included with zeroed totals).
    pub(crate) per_class: Vec<(KernelClass, ClassTotals)>,
}

impl RunSummary {
    /// Totals for one class.
    pub fn class(&self, class: KernelClass) -> ClassTotals {
        self.per_class
            .iter()
            .find(|(c, _)| *c == class)
            .map(|(_, t)| *t)
            .unwrap_or_default()
    }

    /// The class doing the most floating-point work, if any work exists.
    pub fn dominant_compute_class(&self) -> Option<KernelClass> {
        self.per_class
            .iter()
            .filter(|(_, t)| t.flops > 0.0)
            .max_by(|a, b| a.1.flops.partial_cmp(&b.1.flops).unwrap())
            .map(|(c, _)| *c)
    }
}

impl RunTrace {
    /// Builds the per-class digest of this run.
    pub fn summary(&self) -> RunSummary {
        let mut per_class: Vec<(KernelClass, ClassTotals)> = KernelClass::ALL
            .iter()
            .map(|&c| (c, ClassTotals::default()))
            .collect();
        for op in &self.ops {
            let slot = per_class
                .iter_mut()
                .find(|(c, _)| *c == op.class)
                .expect("every class is pre-seeded");
            slot.1.ops += 1;
            slot.1.flops += op.work.total_flops();
            slot.1.stream_bytes += (op.work.contig_load_elems + op.work.contig_store_elems) * 4.0;
            slot.1.gather_bytes += op.work.gather_bytes();
            slot.1.branches += op.branches.total();
        }
        RunSummary {
            batch: self.batch,
            per_class,
        }
    }
}

impl fmt::Display for RunSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "run summary (batch {}):", self.batch)?;
        for (class, t) in &self.per_class {
            if t.ops == 0 {
                continue;
            }
            writeln!(
                f,
                "  {class:?}: {} ops, {:.2e} flops, {:.2e} stream B, {:.2e} gather B",
                t.ops, t.flops, t.stream_bytes, t.gather_bytes
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BranchProfile, CodeFootprint, OpTrace, SampledMemTrace, WorkVector};

    fn op(class: KernelClass, flops: f64, gather_rows: f64) -> OpTrace {
        OpTrace {
            name: "o".into(),
            op_type: "FC".into(),
            class,
            work: WorkVector {
                fma_flops: flops,
                gather_rows,
                gather_row_bytes: 128.0,
                contig_load_elems: 10.0,
                ..WorkVector::default()
            },
            branches: BranchProfile {
                loop_branches: 5.0,
                ..BranchProfile::default()
            },
            code: CodeFootprint::empty(),
            mem: SampledMemTrace::with_period(1),
            bytes_in: 0,
            bytes_out: 0,
            param_bytes: 0,
        }
    }

    #[test]
    fn summary_aggregates_by_class() {
        let run = RunTrace {
            ops: vec![
                op(KernelClass::DenseMatmul, 100.0, 0.0),
                op(KernelClass::DenseMatmul, 50.0, 0.0),
                op(KernelClass::Gather, 1.0, 20.0),
            ],
            batch: 8,
            input_bytes: 0,
        };
        let s = run.summary();
        assert_eq!(s.class(KernelClass::DenseMatmul).ops, 2);
        assert_eq!(s.class(KernelClass::DenseMatmul).flops, 150.0);
        assert_eq!(s.class(KernelClass::Gather).gather_bytes, 20.0 * 128.0);
        assert_eq!(s.class(KernelClass::Recurrent).ops, 0);
        assert_eq!(s.dominant_compute_class(), Some(KernelClass::DenseMatmul));
    }

    #[test]
    fn display_lists_only_active_classes() {
        let run = RunTrace {
            ops: vec![op(KernelClass::Gather, 1.0, 4.0)],
            batch: 2,
            input_bytes: 0,
        };
        let text = run.summary().to_string();
        assert!(text.contains("Gather"));
        assert!(!text.contains("Recurrent"));
    }

    #[test]
    fn empty_run_summary_is_quiet() {
        let run = RunTrace {
            ops: vec![],
            batch: 1,
            input_bytes: 0,
        };
        let s = run.summary();
        assert_eq!(s.dominant_compute_class(), None);
    }
}
