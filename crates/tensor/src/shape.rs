use std::fmt;

use crate::{Result, TensorError};

/// The dimensions of a [`crate::Tensor`], row-major.
///
/// A `Shape` is an inexpensive value type: cloning copies a small `Vec`.
/// Rank-0 (scalar) shapes are permitted and have `numel() == 1`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Creates a shape from a dimension list.
    pub(crate) fn new(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }

    /// The dimensions as a slice.
    pub(crate) fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Number of dimensions.
    pub(crate) fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements (product of dimensions; 1 for a scalar).
    pub(crate) fn numel(&self) -> usize {
        self.0.iter().product()
    }

    /// Row-major strides, in elements.
    pub(crate) fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1; self.0.len()];
        for i in (0..self.0.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.0[i + 1];
        }
        strides
    }

    /// Flattens a multi-dimensional index into a linear offset.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if the index rank differs
    /// from the shape rank or any coordinate is out of range.
    pub(crate) fn offset(&self, index: &[usize]) -> Result<usize> {
        if index.len() != self.rank() || index.iter().zip(&self.0).any(|(i, d)| i >= d) {
            return Err(TensorError::IndexOutOfBounds {
                index: index.to_vec(),
                shape: self.0.clone(),
            });
        }
        Ok(index.iter().zip(self.strides()).map(|(i, s)| i * s).sum())
    }

    /// Interprets the shape as a matrix `(rows, cols)`.
    ///
    /// Rank-1 shapes are treated as a single row.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for rank 0 or rank > 2.
    pub fn as_matrix(&self) -> Result<(usize, usize)> {
        match self.0.as_slice() {
            [cols] => Ok((1, *cols)),
            [rows, cols] => Ok((*rows, *cols)),
            _ => Err(TensorError::RankMismatch {
                op: "as_matrix",
                expected: 2,
                actual: self.rank(),
            }),
        }
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_and_rank() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.numel(), 24);
        assert_eq!(s.rank(), 3);
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::new(&[]);
        assert_eq!(s.numel(), 1);
        assert_eq!(s.rank(), 0);
    }

    #[test]
    fn strides_row_major() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
    }

    #[test]
    fn offset_valid_and_invalid() {
        let s = Shape::new(&[2, 3]);
        assert_eq!(s.offset(&[1, 2]).unwrap(), 5);
        assert!(s.offset(&[2, 0]).is_err());
        assert!(s.offset(&[0]).is_err());
    }

    #[test]
    fn as_matrix_variants() {
        assert_eq!(Shape::new(&[5]).as_matrix().unwrap(), (1, 5));
        assert_eq!(Shape::new(&[3, 5]).as_matrix().unwrap(), (3, 5));
        assert!(Shape::new(&[1, 2, 3]).as_matrix().is_err());
    }

    #[test]
    fn display_format() {
        assert_eq!(Shape::new(&[2, 3]).to_string(), "[2x3]");
    }
}
