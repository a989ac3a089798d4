//! Model × batch × platform sweeps (the systems-level evaluation,
//! Fig 3/4/5).

use drec_graph::GraphError;
use drec_hwsim::Platform;
use drec_models::{ModelId, ModelScale};

use crate::{CharacterizeOptions, Characterizer};

/// The batch sizes the paper sweeps (1 to 16384).
pub const PAPER_BATCH_GRID: [usize; 8] = [1, 4, 16, 64, 256, 1024, 4096, 16384];

/// One (model, batch, platform) sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// Model identifier.
    pub(crate) model: ModelId,
    /// Batch size.
    pub(crate) batch: usize,
    /// Platform name.
    pub(crate) platform: String,
    /// End-to-end modelled seconds.
    pub(crate) seconds: f64,
    /// Data-communication fraction (GPU platforms only).
    pub data_comm_fraction: Option<f64>,
}

/// The optimal platform choice for one (model, batch) point (Fig 5).
#[derive(Debug, Clone, PartialEq)]
pub struct OptimalCell {
    /// Model identifier.
    pub model: ModelId,
    /// Batch size.
    pub batch: usize,
    /// Name of the fastest platform.
    pub best_platform: String,
    /// Speedup of the best platform over the baseline platform.
    pub speedup: f64,
}

/// Results of a full sweep.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepResult {
    /// All evaluated cells.
    pub cells: Vec<SweepCell>,
}

impl SweepResult {
    /// Looks up one cell.
    pub fn get(&self, model: ModelId, batch: usize, platform: &str) -> Option<&SweepCell> {
        self.cells
            .iter()
            .find(|c| c.model == model && c.batch == batch && c.platform == platform)
    }

    /// Speedup of `platform` over `baseline` at a sweep point (Fig 3).
    pub fn speedup(
        &self,
        model: ModelId,
        batch: usize,
        platform: &str,
        baseline: &str,
    ) -> Option<f64> {
        let base = self.get(model, batch, baseline)?.seconds;
        let target = self.get(model, batch, platform)?.seconds;
        if target > 0.0 {
            Some(base / target)
        } else {
            None
        }
    }

    /// The optimal-platform grid (Fig 5): for every (model, batch) point,
    /// the fastest platform and its speedup over `baseline`.
    pub fn optimal_grid(&self, baseline: &str) -> Vec<OptimalCell> {
        let mut points: Vec<(ModelId, usize)> =
            self.cells.iter().map(|c| (c.model, c.batch)).collect();
        points.sort_by_key(|(m, b)| (m.name(), *b));
        points.dedup();
        points
            .into_iter()
            .filter_map(|(model, batch)| {
                let base = self
                    .cells
                    .iter()
                    .find(|c| c.model == model && c.batch == batch && c.platform == baseline)?
                    .seconds;
                let best = self
                    .cells
                    .iter()
                    .filter(|c| c.model == model && c.batch == batch)
                    .min_by(|a, b| a.seconds.partial_cmp(&b.seconds).unwrap())?;
                Some(OptimalCell {
                    model,
                    batch,
                    best_platform: best.platform.clone(),
                    speedup: base / best.seconds,
                })
            })
            .collect()
    }
}

/// Sweeps `models` × `batches` × `platforms`, sharing one functional trace
/// per (model, batch) across all platforms. Each model runs on its own OS
/// thread; generation seeds depend only on `(model, batch)`, so the cells
/// come out in `models` order and do not depend on the threads.
///
/// # Errors
///
/// Propagates the first model's build/execution error, in `models` order.
pub fn sweep(
    models: &[ModelId],
    batches: &[usize],
    platforms: &[Platform],
    scale: ModelScale,
    opts: CharacterizeOptions,
) -> Result<SweepResult, GraphError> {
    let model_cells = |model_id: ModelId| -> Result<Vec<SweepCell>, GraphError> {
        let characterizer = Characterizer::new(opts);
        let mut model = model_id.build(scale, opts.seed)?;
        let mut cells = Vec::new();
        for &batch in batches {
            let trace = characterizer.trace(&mut model, batch)?;
            for platform in platforms {
                let report = characterizer.report_from_trace(model_id.name(), &trace, platform);
                cells.push(SweepCell {
                    model: model_id,
                    batch,
                    platform: report.platform.clone(),
                    seconds: report.latency_seconds,
                    data_comm_fraction: report.gpu.as_ref().map(|gpu| gpu.data_comm_fraction()),
                });
            }
        }
        Ok(cells)
    };
    let outcomes: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = models
            .iter()
            .map(|&model_id| scope.spawn(move || model_cells(model_id)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    });
    let mut result = SweepResult::default();
    for outcome in outcomes {
        result.cells.extend(outcome?);
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_grid_and_exposes_speedups() {
        let result = sweep(
            &[ModelId::Ncf, ModelId::Rm1],
            &[1, 16],
            &Platform::all(),
            ModelScale::Tiny,
            CharacterizeOptions::fast(),
        )
        .unwrap();
        assert_eq!(result.cells.len(), 2 * 2 * 4);
        let s = result
            .speedup(ModelId::Ncf, 16, "Cascade Lake", "Broadwell")
            .unwrap();
        assert!(s > 1.0, "Cascade Lake should beat Broadwell: {s}");
        assert!(result.get(ModelId::Rm1, 16, "T4").is_some());
        assert!(result
            .get(ModelId::Rm1, 16, "T4")
            .unwrap()
            .data_comm_fraction
            .is_some());
    }

    #[test]
    fn optimal_grid_has_one_entry_per_point() {
        let result = sweep(
            &[ModelId::Ncf],
            &[1, 4, 16],
            &Platform::all(),
            ModelScale::Tiny,
            CharacterizeOptions::fast(),
        )
        .unwrap();
        let grid = result.optimal_grid("Broadwell");
        assert_eq!(grid.len(), 3);
        assert!(grid.iter().all(|c| c.speedup >= 1.0));
    }
}
