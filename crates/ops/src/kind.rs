use drec_trace::KernelClass;

/// Framework-level operator kind, named after the Caffe2 operator set the
/// paper profiles (Fig 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Fully-connected layer (`FC`).
    Fc,
    /// Sum-pooled embedding lookup (`SparseLengthsSum`).
    SparseLengthsSum,
    /// Mean-pooled embedding lookup (`SparseLengthsMean`).
    SparseLengthsMean,
    /// Unpooled embedding lookup (`Gather`).
    Gather,
    /// Concatenation along the feature axis (`Concat`).
    Concat,
    /// Rectified linear unit (`Relu`).
    Relu,
    /// Logistic sigmoid (`Sigmoid`).
    Sigmoid,
    /// Hyperbolic tangent (`Tanh`).
    Tanh,
    /// Elementwise product (`Mul`).
    Mul,
    /// N-ary elementwise sum (`Sum`).
    Sum,
    /// Row-wise softmax (`Softmax`).
    Softmax,
    /// Batched matrix product used for feature interaction and attention
    /// scores (`BatchMatMul`).
    BatchMatMul,
    /// Gated recurrent unit network (`RecurrentNetwork`).
    RecurrentNetwork,
}

impl OpKind {
    /// The Caffe2 operator type string (the names on the Fig 6 legend).
    pub fn caffe2_name(&self) -> &'static str {
        match self {
            OpKind::Fc => "FC",
            OpKind::SparseLengthsSum => "SparseLengthsSum",
            OpKind::SparseLengthsMean => "SparseLengthsMean",
            OpKind::Gather => "Gather",
            OpKind::Concat => "Concat",
            OpKind::Relu => "Relu",
            OpKind::Sigmoid => "Sigmoid",
            OpKind::Tanh => "Tanh",
            OpKind::Mul => "Mul",
            OpKind::Sum => "Sum",
            OpKind::Softmax => "Softmax",
            OpKind::BatchMatMul => "BatchMatMul",
            OpKind::RecurrentNetwork => "RecurrentNetwork",
        }
    }

    /// The hardware-behaviour class the platform models key on.
    pub(crate) fn kernel_class(&self) -> KernelClass {
        match self {
            OpKind::Fc | OpKind::BatchMatMul => KernelClass::DenseMatmul,
            OpKind::SparseLengthsSum | OpKind::SparseLengthsMean | OpKind::Gather => {
                KernelClass::Gather
            }
            OpKind::Relu | OpKind::Sigmoid | OpKind::Tanh | OpKind::Mul => KernelClass::Elementwise,
            OpKind::Concat => KernelClass::DataMovement,
            OpKind::Sum | OpKind::Softmax => KernelClass::Reduction,
            OpKind::RecurrentNetwork => KernelClass::Recurrent,
        }
    }

    /// All kinds, for the tests that cover every kind.
    #[cfg(test)]
    pub(crate) const ALL: [OpKind; 13] = [
        OpKind::Fc,
        OpKind::SparseLengthsSum,
        OpKind::SparseLengthsMean,
        OpKind::Gather,
        OpKind::Concat,
        OpKind::Relu,
        OpKind::Sigmoid,
        OpKind::Tanh,
        OpKind::Mul,
        OpKind::Sum,
        OpKind::Softmax,
        OpKind::BatchMatMul,
        OpKind::RecurrentNetwork,
    ];
}

impl std::fmt::Display for OpKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.caffe2_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = OpKind::ALL.iter().map(|k| k.caffe2_name()).collect();
        names.sort_unstable();
        // BatchMatMul appears once; SequenceDot/WeightedSum ops share it at
        // the op level but the kind itself is unique.
        names.dedup();
        assert_eq!(names.len(), OpKind::ALL.len());
    }

    #[test]
    fn classes_cover_embedding_vs_dense() {
        assert_eq!(OpKind::Fc.kernel_class(), KernelClass::DenseMatmul);
        assert_eq!(OpKind::SparseLengthsSum.kernel_class(), KernelClass::Gather);
        assert_eq!(
            OpKind::RecurrentNetwork.kernel_class(),
            KernelClass::Recurrent
        );
    }
}
