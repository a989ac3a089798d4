use drec_tensor::Tensor;

use crate::{OpError, Result};

/// Sparse id input for embedding operators: a flat id list segmented per
/// batch sample.
///
/// `lengths[i]` ids belong to sample `i`; `ids.len()` equals the sum of
/// `lengths`. Ids index a *virtual* table row space that may exceed the
/// physically allocated rows (see [`crate::EmbeddingTable`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IdList {
    /// Flat lookup ids across the whole batch.
    pub ids: Vec<u32>,
    /// Ids per batch sample.
    pub lengths: Vec<u32>,
}

impl IdList {
    /// Creates an id list, checking that lengths sum to `ids.len()`.
    ///
    /// # Panics
    ///
    /// Panics if the segment lengths do not cover `ids` exactly.
    pub fn new(ids: Vec<u32>, lengths: Vec<u32>) -> Self {
        let covered: usize = lengths.iter().map(|&l| l as usize).sum();
        assert_eq!(covered, ids.len(), "segment lengths must cover all ids");
        IdList { ids, lengths }
    }

    /// Batch size (number of segments).
    pub fn batch(&self) -> usize {
        self.lengths.len()
    }

    /// Total number of lookups across the batch.
    pub fn total_lookups(&self) -> usize {
        self.ids.len()
    }

    /// Bytes this id list occupies as model input (ids + lengths as u32).
    pub(crate) fn input_bytes(&self) -> u64 {
        ((self.ids.len() + self.lengths.len()) * 4) as u64
    }
}

/// The payload flowing along a graph edge: dense activations or sparse ids.
#[derive(Debug, Clone, PartialEq)]
pub enum ValuePayload {
    /// Dense `f32` activations.
    Dense(Tensor),
    /// Sparse lookup ids.
    Ids(IdList),
}

/// A payload plus its simulated virtual address.
///
/// The address lets downstream operators record *reads of this exact
/// buffer* into their memory traces, so producer/consumer reuse is visible
/// to the cache simulators.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    /// The data.
    pub payload: ValuePayload,
    /// Base address of the buffer in the simulated address space
    /// (0 until the executor assigns one).
    pub(crate) addr: u64,
}

impl Value {
    /// Wraps a dense tensor with an unassigned address.
    pub fn dense(t: Tensor) -> Self {
        Value {
            payload: ValuePayload::Dense(t),
            addr: 0,
        }
    }

    /// Wraps an id list with an unassigned address.
    pub fn ids(ids: IdList) -> Self {
        Value {
            payload: ValuePayload::Ids(ids),
            addr: 0,
        }
    }

    /// Borrows the dense tensor.
    ///
    /// # Errors
    ///
    /// Returns [`OpError::WrongValueKind`] if the payload holds ids.
    pub(crate) fn dense_ref(&self, op: &'static str) -> Result<&Tensor> {
        match &self.payload {
            ValuePayload::Dense(t) => Ok(t),
            ValuePayload::Ids(_) => Err(OpError::WrongValueKind {
                op,
                expected: "dense",
            }),
        }
    }

    /// Borrows the dense tensor (anonymous-op convenience for tests and
    /// examples).
    ///
    /// # Errors
    ///
    /// Returns [`OpError::WrongValueKind`] if the payload holds ids.
    pub fn as_dense(&self) -> Result<&Tensor> {
        self.dense_ref("value")
    }

    /// Borrows the id list.
    ///
    /// # Errors
    ///
    /// Returns [`OpError::WrongValueKind`] if the payload holds a tensor.
    pub fn ids_ref(&self, op: &'static str) -> Result<&IdList> {
        match &self.payload {
            ValuePayload::Ids(ids) => Ok(ids),
            ValuePayload::Dense(_) => Err(OpError::WrongValueKind {
                op,
                expected: "ids",
            }),
        }
    }

    /// Size of this value's buffer in bytes.
    pub fn byte_size(&self) -> u64 {
        match &self.payload {
            ValuePayload::Dense(t) => (t.numel() * 4) as u64,
            ValuePayload::Ids(ids) => ids.input_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_list_segments() {
        let ids = IdList::new(vec![1, 2, 3, 4, 5], vec![2, 0, 3]);
        assert_eq!(ids.batch(), 3);
        assert_eq!(ids.total_lookups(), 5);
    }

    #[test]
    #[should_panic(expected = "segment lengths")]
    fn id_list_rejects_bad_lengths() {
        let _ = IdList::new(vec![1, 2, 3], vec![1, 1]);
    }

    #[test]
    fn value_kind_checks() {
        let d = Value::dense(Tensor::zeros(&[2, 2]));
        assert!(d.as_dense().is_ok());
        assert!(d.ids_ref("test").is_err());
        let i = Value::ids(IdList::new(vec![1], vec![1]));
        assert!(i.ids_ref("test").is_ok());
        assert!(i.as_dense().is_err());
        assert_eq!(d.byte_size(), 16);
        assert_eq!(i.byte_size(), 8);
    }
}
