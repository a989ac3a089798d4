use std::fmt;

use crate::{Result, Shape, TensorError};

/// A dense, row-major `f32` tensor.
///
/// `Tensor` owns its storage. All operator kernels in the suite consume and
/// produce `Tensor`s; shape errors are reported eagerly via
/// [`TensorError`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor from existing data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] if `data.len()` differs
    /// from the element count implied by `dims`.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self> {
        let shape = Shape::new(dims);
        if shape.numel() != data.len() {
            return Err(TensorError::ShapeDataMismatch {
                expected: shape.numel(),
                actual: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a tensor from a recycled buffer, resizing it to fit.
    ///
    /// Unlike [`Tensor::from_vec`] this never fails: the buffer is
    /// truncated or zero-extended to the element count of `dims`, reusing
    /// its existing capacity. Operators use this with buffers drawn from
    /// the execution context's arena so steady-state inference does not
    /// allocate per output.
    pub fn from_pooled(mut data: Vec<f32>, dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        data.resize(shape.numel(), 0.0);
        Tensor { shape, data }
    }

    /// Creates a tensor filled with zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let data = vec![0.0; shape.numel()];
        Tensor { shape, data }
    }

    /// Creates a tensor filled with `value`.
    pub fn filled(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let data = vec![value; shape.numel()];
        Tensor { shape, data }
    }

    /// Creates an identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The dimensions as a slice (shorthand for `shape().dims()`).
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Immutable view of the underlying row-major storage.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its storage.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Reads the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for invalid indices.
    pub fn get(&self, index: &[usize]) -> Result<f32> {
        Ok(self.data[self.shape.offset(index)?])
    }

    /// Writes the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for invalid indices.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let off = self.shape.offset(index)?;
        self.data[off] = value;
        Ok(())
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ReshapeMismatch`] if element counts differ.
    pub fn reshape(&self, dims: &[usize]) -> Result<Self> {
        let shape = Shape::new(dims);
        if shape.numel() != self.numel() {
            return Err(TensorError::ReshapeMismatch {
                from: self.numel(),
                to: shape.numel(),
            });
        }
        Ok(Tensor {
            shape,
            data: self.data.clone(),
        })
    }

    /// Borrows row `r` of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns an error for non-matrix tensors or out-of-range rows.
    pub fn row(&self, r: usize) -> Result<&[f32]> {
        let (rows, cols) = self.shape.as_matrix()?;
        if r >= rows {
            return Err(TensorError::IndexOutOfBounds {
                index: vec![r],
                shape: self.dims().to_vec(),
            });
        }
        Ok(&self.data[r * cols..(r + 1) * cols])
    }

    /// Applies `f` elementwise, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().copied().map(f).collect(),
        }
    }

    /// Combines two same-shaped tensors elementwise.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub(crate) fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Self> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op: "zip_map",
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
            });
        }
        Ok(Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    /// Elementwise sum of two same-shaped tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Self> {
        self.zip_map(other, |a, b| a + b)
    }

    /// Elementwise product of two same-shaped tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Self> {
        self.zip_map(other, |a, b| a * b)
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} ", self.shape)?;
        let preview: Vec<String> = self
            .data
            .iter()
            .take(8)
            .map(|v| format!("{v:.4}"))
            .collect();
        write!(
            f,
            "[{}{}]",
            preview.join(", "),
            if self.numel() > 8 { ", …" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_len() {
        assert!(Tensor::from_vec(vec![1.0; 6], &[2, 3]).is_ok());
        assert!(Tensor::from_vec(vec![1.0; 5], &[2, 3]).is_err());
    }

    #[test]
    fn get_set_roundtrip() {
        let mut t = Tensor::zeros(&[2, 3]);
        t.set(&[1, 2], 7.5).unwrap();
        assert_eq!(t.get(&[1, 2]).unwrap(), 7.5);
        assert_eq!(t.get(&[0, 0]).unwrap(), 0.0);
        assert!(t.get(&[2, 0]).is_err());
    }

    #[test]
    fn eye_is_identity() {
        let i = Tensor::eye(3);
        for r in 0..3 {
            for c in 0..3 {
                let expected = if r == c { 1.0 } else { 0.0 };
                assert_eq!(i.get(&[r, c]).unwrap(), expected);
            }
        }
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let r = t.reshape(&[4]).unwrap();
        assert_eq!(r.as_slice(), t.as_slice());
        assert!(t.reshape(&[3]).is_err());
    }

    #[test]
    fn row_borrow() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        assert_eq!(t.row(1).unwrap(), &[4.0, 5.0, 6.0]);
        assert!(t.row(2).is_err());
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap();
        assert_eq!(a.add(&b).unwrap().as_slice(), &[4.0, 6.0]);
        assert_eq!(a.mul(&b).unwrap().as_slice(), &[3.0, 8.0]);
        let c = Tensor::zeros(&[3]);
        assert!(a.add(&c).is_err());
    }

    #[test]
    fn map_applies_function() {
        let t = Tensor::from_vec(vec![-1.0, 2.0], &[2]).unwrap();
        let r = t.map(|v| v.max(0.0));
        assert_eq!(r.as_slice(), &[0.0, 2.0]);
    }

    #[test]
    fn display_is_nonempty() {
        let t = Tensor::zeros(&[2, 2]);
        assert!(!t.to_string().is_empty());
    }
}
