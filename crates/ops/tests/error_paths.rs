//! Systematic error-path coverage: every operator rejects malformed
//! inputs with a typed error instead of panicking.

use drec_ops::{
    Activation, ActivationKind, Concat, EmbeddingGather, EmbeddingTable, ExecContext,
    FullyConnected, GatherMode, Gru, IdList, Mul, OpError, Operator, PairwiseDot, SequenceDot,
    Softmax, SparseLengthsSum, Sum, Value, WeightedSum,
};
use drec_tensor::{ParamInit, Tensor};

fn ctx() -> (ExecContext, ParamInit) {
    (ExecContext::new(), ParamInit::new(1))
}

fn dense(ctx: &mut ExecContext, rows: usize, cols: usize) -> Value {
    ctx.external_input(Value::dense(Tensor::zeros(&[rows, cols])))
}

fn ids(ctx: &mut ExecContext, per_sample: usize, batch: usize) -> Value {
    ctx.external_input(Value::ids(IdList::new(
        vec![1; per_sample * batch],
        vec![per_sample as u32; batch],
    )))
}

#[test]
fn every_unary_op_rejects_wrong_arity() {
    let (mut c, mut init) = ctx();
    let x = dense(&mut c, 2, 4);
    let y = dense(&mut c, 2, 4);

    let fc = FullyConnected::new(4, 2, &mut c, &mut init);
    assert!(matches!(
        fc.run(&mut c, &[&x, &y]),
        Err(OpError::ArityMismatch { .. })
    ));
    let relu = Activation::new(ActivationKind::Relu, &mut c);
    assert!(relu.run(&mut c, &[]).is_err());
    let softmax = Softmax::new(&mut c);
    assert!(softmax.run(&mut c, &[&x, &y]).is_err());
    let gru = Gru::new(4, 2, false, &mut c, &mut init);
    assert!(gru.run(&mut c, &[&x, &y]).is_err());
}

#[test]
fn binary_ops_reject_wrong_arity() {
    let (mut c, _) = ctx();
    let x = dense(&mut c, 2, 4);
    let mul = Mul::new(&mut c);
    assert!(mul.run(&mut c, &[&x]).is_err());
    let sdot = SequenceDot::new(&mut c);
    assert!(sdot.run(&mut c, &[&x]).is_err());
    let wsum = WeightedSum::new(&mut c);
    assert!(wsum.run(&mut c, &[&x]).is_err());
    let cat = Concat::new(&mut c);
    assert!(cat.run(&mut c, &[&x]).is_err());
    let pd = PairwiseDot::new(&mut c);
    assert!(pd.run(&mut c, &[&x]).is_err());
    let sum = Sum::new(&mut c);
    assert!(sum.run(&mut c, &[]).is_err());
}

#[test]
fn value_kind_mismatches_are_typed_errors() {
    let (mut c, mut init) = ctx();
    let x = dense(&mut c, 2, 4);
    let sparse = ids(&mut c, 3, 2);

    // Dense ops fed ids.
    let fc = FullyConnected::new(4, 2, &mut c, &mut init);
    assert!(matches!(
        fc.run(&mut c, &[&sparse]),
        Err(OpError::WrongValueKind { .. })
    ));
    let relu = Activation::new(ActivationKind::Relu, &mut c);
    assert!(relu.run(&mut c, &[&sparse]).is_err());

    // Sparse ops fed dense.
    let table = EmbeddingTable::new(100, 4, 100, &mut c, &mut init).unwrap();
    let sls = SparseLengthsSum::new(std::sync::Arc::clone(&table), &mut c);
    assert!(matches!(
        sls.run(&mut c, &[&x]),
        Err(OpError::WrongValueKind { .. })
    ));
    let gather = EmbeddingGather::new(table, GatherMode::Position(0), &mut c);
    assert!(gather.run(&mut c, &[&x]).is_err());
}

#[test]
fn errors_render_human_readable_messages() {
    let (mut c, mut init) = ctx();
    let fc = FullyConnected::new(4, 2, &mut c, &mut init);
    let wrong_width = dense(&mut c, 2, 5);
    let err = fc.run(&mut c, &[&wrong_width]).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("FC"), "{msg}");
    assert!(!msg.is_empty());
    // Error chain terminates cleanly.
    assert!(std::error::Error::source(&err).is_none());
}

#[test]
fn failed_execute_does_not_poison_the_trace() {
    let mut c = ExecContext::with_tracing(1 << 10);
    let mut init = ParamInit::new(1);
    let fc = FullyConnected::new(4, 2, &mut c, &mut init);
    let bad = c.external_input(Value::dense(Tensor::zeros(&[2, 5])));
    assert!(fc.execute(&mut c, "bad", &[&bad]).is_err());
    // A subsequent good op still records normally.
    let good = c.external_input(Value::dense(Tensor::zeros(&[2, 4])));
    fc.execute(&mut c, "good", &[&good]).unwrap();
    let ops: Vec<_> = c.drain_ops().collect();
    assert_eq!(ops.len(), 2);
    assert_eq!(ops[1].name, "good");
    assert!(ops[1].work.fma_flops > 0.0);
}

#[test]
fn gru_rejects_bad_sequence_widths() {
    let (mut c, mut init) = ctx();
    let gru = Gru::new(3, 4, true, &mut c, &mut init);
    let x = dense(&mut c, 2, 10); // 10 % 3 != 0
    assert!(matches!(
        gru.run(&mut c, &[&x]),
        Err(OpError::InvalidInput { .. })
    ));
}
