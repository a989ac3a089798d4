use std::error::Error;
use std::fmt;

/// Error type for matrix operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatrixError {
    /// Dimensions incompatible for the operation.
    DimensionMismatch {
        /// Description of the operation.
        op: &'static str,
    },
    /// The system is singular (or numerically near-singular).
    Singular,
}

impl fmt::Display for MatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatrixError::DimensionMismatch { op } => {
                write!(f, "dimension mismatch in {op}")
            }
            MatrixError::Singular => write!(f, "matrix is singular"),
        }
    }
}

impl Error for MatrixError {}

/// Small dense row-major `f64` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix of the given size.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Element access.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] = v;
    }

    /// `selfᵀ · self` (Gram matrix).
    pub(crate) fn gram(&self) -> Matrix {
        let mut g = Matrix::zeros(self.cols, self.cols);
        for i in 0..self.cols {
            for j in i..self.cols {
                let mut acc = 0.0;
                for r in 0..self.rows {
                    acc += self.get(r, i) * self.get(r, j);
                }
                g.set(i, j, acc);
                g.set(j, i, acc);
            }
        }
        g
    }

    /// `selfᵀ · v` for a vector with `rows` entries.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::DimensionMismatch`] when lengths disagree.
    #[allow(clippy::needless_range_loop)]
    pub(crate) fn t_mul_vec(&self, v: &[f64]) -> Result<Vec<f64>, MatrixError> {
        if v.len() != self.rows {
            return Err(MatrixError::DimensionMismatch { op: "t_mul_vec" });
        }
        let mut out = vec![0.0; self.cols];
        for (r, &val) in v.iter().enumerate() {
            for c in 0..self.cols {
                out[c] += self.get(r, c) * val;
            }
        }
        Ok(out)
    }

    /// Solves `self · x = b` via Gaussian elimination with partial
    /// pivoting. `self` must be square.
    ///
    /// # Errors
    ///
    /// Returns `MatrixError::DimensionMismatch` for non-square systems
    /// and `MatrixError::Singular` when no unique solution exists.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, MatrixError> {
        if self.rows != self.cols || b.len() != self.rows {
            return Err(MatrixError::DimensionMismatch { op: "solve" });
        }
        let n = self.rows;
        let mut a = self.data.clone();
        let mut x = b.to_vec();
        for col in 0..n {
            // Partial pivot.
            let mut pivot = col;
            let mut best = a[col * n + col].abs();
            for r in (col + 1)..n {
                let v = a[r * n + col].abs();
                if v > best {
                    best = v;
                    pivot = r;
                }
            }
            if best < 1e-12 {
                return Err(MatrixError::Singular);
            }
            if pivot != col {
                for c in 0..n {
                    a.swap(col * n + c, pivot * n + c);
                }
                x.swap(col, pivot);
            }
            // Eliminate below.
            for r in (col + 1)..n {
                let factor = a[r * n + col] / a[col * n + col];
                if factor == 0.0 {
                    continue;
                }
                for c in col..n {
                    a[r * n + c] -= factor * a[col * n + c];
                }
                x[r] -= factor * x[col];
            }
        }
        // Back substitution.
        for col in (0..n).rev() {
            let mut acc = x[col];
            for c in (col + 1)..n {
                acc -= a[col * n + c] * x[c];
            }
            x[col] = acc / a[col * n + col];
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds from row-major data.
    fn from_rows(rows: usize, cols: usize, data: Vec<f64>) -> Matrix {
        assert_eq!(data.len(), rows * cols, "matrix data length");
        Matrix { rows, cols, data }
    }

    #[test]
    fn solve_identity() {
        let mut m = Matrix::zeros(3, 3);
        for i in 0..3 {
            m.set(i, i, 1.0);
        }
        let x = m.solve(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(x, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn solve_known_system() {
        // 2x + y = 5; x + 3y = 10 → x = 1, y = 3.
        let m = from_rows(2, 2, vec![2.0, 1.0, 1.0, 3.0]);
        let x = m.solve(&[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solve_needs_pivoting() {
        // Leading zero forces a row swap.
        let m = from_rows(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let x = m.solve(&[2.0, 3.0]).unwrap();
        assert_eq!(x, vec![3.0, 2.0]);
    }

    #[test]
    fn singular_detected() {
        let m = from_rows(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        assert_eq!(m.solve(&[1.0, 2.0]), Err(MatrixError::Singular));
    }

    #[test]
    fn gram_is_symmetric_psd_diagonal() {
        let m = from_rows(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let g = m.gram();
        assert_eq!(g.get(0, 1), g.get(1, 0));
        assert!(g.get(0, 0) > 0.0 && g.get(1, 1) > 0.0);
        assert_eq!(g.get(0, 0), 1.0 + 9.0 + 25.0);
    }

    #[test]
    fn t_mul_vec_checks_len() {
        let m = Matrix::zeros(3, 2);
        assert!(m.t_mul_vec(&[1.0, 2.0]).is_err());
        assert_eq!(m.t_mul_vec(&[0.0; 3]).unwrap(), vec![0.0, 0.0]);
    }
}
