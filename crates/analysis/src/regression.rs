use crate::{Matrix, MatrixError};

/// The result of an ordinary-least-squares fit.
#[derive(Debug, Clone, PartialEq)]
pub struct OlsFit {
    /// Per-feature weights.
    pub weights: Vec<f64>,
    /// Intercept term.
    pub intercept: f64,
    /// Coefficient of determination on the training data.
    pub r2: f64,
}

/// Z-score normalises each column of `x`; returns the normalised data and
/// per-column `(mean, std)`. Zero-variance columns are left centred with a
/// std of 1 so the fit stays well-conditioned.
pub fn zscore_columns(x: &[Vec<f64>]) -> (Vec<Vec<f64>>, Vec<f64>, Vec<f64>) {
    if x.is_empty() {
        return (Vec::new(), Vec::new(), Vec::new());
    }
    let cols = x[0].len();
    let n = x.len() as f64;
    let mut means = vec![0.0; cols];
    for row in x {
        for (m, v) in means.iter_mut().zip(row) {
            *m += v / n;
        }
    }
    let mut stds = vec![0.0; cols];
    for row in x {
        for ((s, v), m) in stds.iter_mut().zip(row).zip(&means) {
            *s += (v - m).powi(2) / n;
        }
    }
    for s in &mut stds {
        *s = s.sqrt();
        if *s < 1e-12 {
            *s = 1.0;
        }
    }
    let normalised = x
        .iter()
        .map(|row| {
            row.iter()
                .zip(&means)
                .zip(&stds)
                .map(|((v, m), s)| (v - m) / s)
                .collect()
        })
        .collect();
    (normalised, means, stds)
}

/// Ordinary least squares with an intercept, solved through the normal
/// equations with a small ridge term for conditioning.
///
/// # Errors
///
/// Returns a `MatrixError` if the design matrix is degenerate beyond
/// what the ridge term can repair, or if `x` and `y` lengths disagree.
pub fn ols(x: &[Vec<f64>], y: &[f64]) -> Result<OlsFit, MatrixError> {
    if x.len() != y.len() || x.is_empty() {
        return Err(MatrixError::DimensionMismatch { op: "ols" });
    }
    let n = x.len();
    let k = x[0].len();
    // Design matrix with intercept column.
    let mut design = Matrix::zeros(n, k + 1);
    for (r, row) in x.iter().enumerate() {
        design.set(r, 0, 1.0);
        for (c, &v) in row.iter().enumerate() {
            design.set(r, c + 1, v);
        }
    }
    let mut gram = design.gram();
    let ridge = 1e-8;
    for i in 0..(k + 1) {
        gram.set(i, i, gram.get(i, i) + ridge);
    }
    let rhs = design.t_mul_vec(y)?;
    let beta = gram.solve(&rhs)?;

    let y_mean = y.iter().sum::<f64>() / n as f64;
    let mut ss_res = 0.0;
    let mut ss_tot = 0.0;
    for (row, &yv) in x.iter().zip(y) {
        let pred = beta[0]
            + row
                .iter()
                .enumerate()
                .map(|(c, &v)| beta[c + 1] * v)
                .sum::<f64>();
        ss_res += (yv - pred).powi(2);
        ss_tot += (yv - y_mean).powi(2);
    }
    let r2 = if ss_tot > 0.0 {
        1.0 - ss_res / ss_tot
    } else {
        1.0
    };
    Ok(OlsFit {
        weights: beta[1..].to_vec(),
        intercept: beta[0],
        r2,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_exact_linear_model() {
        // y = 3 + 2a - b.
        let x: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![i as f64, (i * i % 7) as f64])
            .collect();
        let y: Vec<f64> = x.iter().map(|r| 3.0 + 2.0 * r[0] - r[1]).collect();
        let fit = ols(&x, &y).unwrap();
        assert!((fit.weights[0] - 2.0).abs() < 1e-6);
        assert!((fit.weights[1] + 1.0).abs() < 1e-6);
        assert!((fit.intercept - 3.0).abs() < 1e-5);
        assert!(fit.r2 > 0.9999);
    }

    #[test]
    fn zscore_centres_and_scales() {
        let x = vec![vec![1.0, 10.0], vec![3.0, 10.0], vec![5.0, 10.0]];
        let (n, means, stds) = zscore_columns(&x);
        assert!((means[0] - 3.0).abs() < 1e-12);
        // Constant column: std forced to 1, values centred to 0.
        assert_eq!(stds[1], 1.0);
        assert!(n.iter().all(|r| r[1].abs() < 1e-12));
        let col0: f64 = n.iter().map(|r| r[0]).sum();
        assert!(col0.abs() < 1e-12);
    }

    #[test]
    fn mismatched_lengths_error() {
        assert!(ols(&[vec![1.0]], &[1.0, 2.0]).is_err());
        assert!(ols(&[], &[]).is_err());
    }

    #[test]
    fn noisy_fit_has_partial_r2() {
        let x: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = x
            .iter()
            .enumerate()
            .map(|(i, r)| r[0] + if i % 2 == 0 { 10.0 } else { -10.0 })
            .collect();
        let fit = ols(&x, &y).unwrap();
        assert!(fit.r2 > 0.3 && fit.r2 < 0.99);
    }
}
