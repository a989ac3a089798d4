//! Statistical analysis and report rendering.
//!
//! Implements everything the paper's quantitative post-processing needs,
//! from scratch:
//!
//! * [`Matrix`] — a small dense `f64` matrix with Gaussian-elimination
//!   solving (enough for normal equations),
//! * [`ols`] / [`zscore_columns`] — ordinary least squares on normalised
//!   features, the Fig 16 linear model,
//! * [`stats`] — means, standard deviations, geometric means, Pearson
//!   correlation,
//! * [`Table`] — aligned ASCII tables for regenerating the paper's tables
//!   and figure data in a terminal.
//!
//! # Example
//!
//! ```
//! use drec_analysis::{ols, zscore_columns};
//!
//! // y = 2·x0 - x1 (x1 irrelevant noise-free).
//! let x = vec![
//!     vec![1.0, 0.0],
//!     vec![2.0, 1.0],
//!     vec![3.0, 0.5],
//!     vec![4.0, 2.0],
//! ];
//! let y = [2.0, 3.0, 5.5, 6.0];
//! let (xn, _, _) = zscore_columns(&x);
//! let fit = ols(&xn, &y).unwrap();
//! assert!(fit.r2 > 0.9);
//! ```

mod matrix;
mod regression;
pub mod stats;
mod table;

pub use matrix::Matrix;
pub(crate) use matrix::MatrixError;
pub use regression::{ols, zscore_columns, OlsFit};
pub use table::{fmt_seconds, Table};
