//! The Fig 16 linear model: regressing CPU pipeline bottlenecks on model
//! architecture features.
//!
//! Data points are (model, batch) pairs; features are the normalised
//! [`ArchFeatures`] plus `log2(batch)`; targets are the four non-retiring
//! TopDown fractions. The paper's headline observation — no single
//! dominant architectural component behind any bottleneck — is checked by
//! the benches via the weight spread.

use drec_graph::GraphError;
use drec_hwsim::Platform;
use drec_models::{ArchFeatures, ModelId, ModelScale};

use drec_analysis::{ols, zscore_columns, OlsFit};

use crate::{CharacterizeOptions, Characterizer};

/// Names of the regression targets (pipeline bottlenecks).
pub(crate) const TARGETS: [&str; 4] = [
    "Frontend bound",
    "Bad speculation",
    "Backend core bound",
    "Backend memory bound",
];

/// The fitted linear models, one per pipeline bottleneck.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig16Result {
    /// Feature names aligned with each fit's weights.
    pub feature_names: Vec<String>,
    /// `(target name, fit)` pairs in `TARGETS` order.
    pub fits: Vec<(String, OlsFit)>,
    /// Number of data points used.
    pub samples: usize,
}

/// Runs the Fig 16 study: characterizes `models` at `batches` on the CPU
/// `platform` and fits one OLS model per bottleneck.
///
/// # Errors
///
/// Propagates model build/execution errors; non-CPU platforms yield no
/// data points and an empty result.
pub fn run(
    models: &[ModelId],
    batches: &[usize],
    platform: &Platform,
    scale: ModelScale,
    opts: CharacterizeOptions,
) -> Result<Fig16Result, GraphError> {
    let characterizer = Characterizer::new(opts);
    let mut features: Vec<Vec<f64>> = Vec::new();
    let mut targets: Vec<[f64; 4]> = Vec::new();

    for &model_id in models {
        let mut model = model_id.build(scale, opts.seed)?;
        let arch = ArchFeatures::from_meta(model.meta());
        for &batch in batches {
            let report = characterizer.characterize(&mut model, batch, platform)?;
            let Some(cpu) = report.cpu else { continue };
            let mut row = arch.to_vec();
            row.push((batch as f64).log2());
            features.push(row);
            let td = cpu.topdown;
            targets.push([
                td.frontend,
                td.bad_speculation,
                td.backend_core,
                td.backend_memory,
            ]);
        }
    }

    let mut feature_names: Vec<String> =
        ArchFeatures::NAMES.iter().map(|s| s.to_string()).collect();
    feature_names.push("log2(batch)".to_string());

    if features.is_empty() {
        return Ok(Fig16Result {
            feature_names,
            fits: Vec::new(),
            samples: 0,
        });
    }

    let (normalised, _, _) = zscore_columns(&features);
    let mut fits = Vec::with_capacity(4);
    for (t_idx, target_name) in TARGETS.iter().enumerate() {
        let y: Vec<f64> = targets.iter().map(|t| t[t_idx]).collect();
        let fit = ols(&normalised, &y).map_err(|_| GraphError::InputCount {
            expected: normalised.len(),
            actual: 0,
        })?;
        fits.push((target_name.to_string(), fit));
    }
    Ok(Fig16Result {
        feature_names,
        fits,
        samples: features.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_all_four_targets() {
        let result = run(
            &ModelId::ALL,
            &[1, 16],
            &Platform::broadwell(),
            ModelScale::Tiny,
            CharacterizeOptions::fast(),
        )
        .unwrap();
        assert_eq!(result.fits.len(), 4);
        assert_eq!(result.samples, 16);
        assert_eq!(result.feature_names.len(), ArchFeatures::NAMES.len() + 1);
        for (_, fit) in &result.fits {
            assert_eq!(fit.weights.len(), result.feature_names.len());
            assert!(fit.weights.iter().all(|w| w.is_finite()));
        }
        assert!(result.fits.iter().any(|(t, _)| t == "Bad speculation"));
        assert!(result
            .feature_names
            .iter()
            .any(|n| n == "Lookups per table"));
    }

    #[test]
    fn gpu_platform_yields_empty_result() {
        let result = run(
            &[ModelId::Ncf],
            &[4],
            &Platform::t4(),
            ModelScale::Tiny,
            CharacterizeOptions::fast(),
        )
        .unwrap();
        assert_eq!(result.samples, 0);
        assert!(result.fits.is_empty());
    }
}
