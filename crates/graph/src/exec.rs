use drec_ops::{ExecContext, Value};
use drec_trace::{OpTrace, RunTrace};

use crate::{Graph, GraphError, Result};

/// Executes `graph` on `inputs`, returning the marked output values.
///
/// Inputs are assigned fresh buffer addresses (modelling the data loader
/// copying a batch in) and intermediate values are dropped after their last
/// consumer to bound peak memory. Keeps no trace: a tracing `ctx`'s op
/// records are dropped (see [`execute_streamed`]).
///
/// # Errors
///
/// Returns [`GraphError::InputCount`] if the input count differs from the
/// graph's declared inputs, or [`GraphError::Op`] when a node fails.
pub fn execute(graph: &Graph, ctx: &mut ExecContext, inputs: Vec<Value>) -> Result<Vec<Value>> {
    execute_streamed(graph, ctx, inputs, |_| {})
}

/// [`execute`], handing each node's closed [`OpTrace`] to `sink` as soon
/// as the node finishes, in node order: a traced run never holds more
/// than one record. `ctx` must record traces for there to be any.
///
/// # Errors
///
/// As [`execute`]; the records of the nodes before a failing one have
/// reached `sink`.
pub fn execute_streamed(
    graph: &Graph,
    ctx: &mut ExecContext,
    inputs: Vec<Value>,
    mut sink: impl FnMut(OpTrace),
) -> Result<Vec<Value>> {
    if inputs.len() != graph.input_names.len() {
        return Err(GraphError::InputCount {
            expected: graph.input_names.len(),
            actual: inputs.len(),
        });
    }

    // Last-use pass so big activations are freed eagerly.
    let mut last_use = vec![usize::MAX; graph.n_values];
    for (i, node) in graph.nodes.iter().enumerate() {
        for v in &node.inputs {
            last_use[v.0] = i;
        }
    }
    for out in &graph.outputs {
        last_use[out.0] = usize::MAX; // outputs survive the whole run
    }

    let mut values: Vec<Option<Value>> = vec![None; graph.n_values];
    for (slot, input) in graph.input_ids.iter().zip(inputs) {
        values[slot.0] = Some(ctx.external_input(input));
    }

    for (i, node) in graph.nodes.iter().enumerate() {
        let mut refs = Vec::with_capacity(node.inputs.len());
        for v in &node.inputs {
            match values[v.0].as_ref() {
                Some(val) => refs.push(val),
                None => {
                    return Err(GraphError::ValueNotReady {
                        node: node.name.clone(),
                        id: v.0,
                    })
                }
            }
        }
        // SAFETY of the double borrow: `refs` borrows `values` immutably
        // while the op only mutates `ctx`. We clone the references out of
        // the borrow by collecting first.
        let out = {
            let refs: Vec<&Value> = refs;
            node.op
                .execute(ctx, &node.name, &refs)
                .map_err(|source| GraphError::Op {
                    node: node.name.clone(),
                    source,
                })?
        };
        values[node.output.0] = Some(out);
        ctx.drain_ops().for_each(&mut sink);
        // Recycle values whose last consumer was this node: their storage
        // returns to the context arena for later activations.
        for v in &node.inputs {
            if last_use[v.0] == i {
                if let Some(dead) = values[v.0].take() {
                    ctx.recycle_value(dead);
                }
            }
        }
    }

    let mut outputs = Vec::with_capacity(graph.outputs.len());
    for out in &graph.outputs {
        match values[out.0].take() {
            Some(v) => outputs.push(v),
            None => return Err(GraphError::UnknownValue { id: out.0 }),
        }
    }
    Ok(outputs)
}

/// [`execute_streamed`] with the stream collected: returns the outputs
/// and the captured [`RunTrace`], which `batch` annotates.
///
/// `ctx` must have been created with tracing (or had it enabled).
///
/// # Errors
///
/// Propagates [`execute`] errors.
pub fn execute_traced(
    graph: &Graph,
    ctx: &mut ExecContext,
    inputs: Vec<Value>,
    batch: usize,
) -> Result<(Vec<Value>, RunTrace)> {
    let input_bytes: u64 = inputs.iter().map(Value::byte_size).sum();
    let mut ops = Vec::new();
    let outputs = execute_streamed(graph, ctx, inputs, |op| ops.push(op))?;
    let trace = RunTrace {
        ops,
        batch,
        input_bytes,
    };
    Ok((outputs, trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;
    use drec_tensor::{ParamInit, Tensor};

    fn simple_graph(ctx: &mut ExecContext) -> Graph {
        let mut init = ParamInit::new(3);
        let mut b = GraphBuilder::new();
        let x = b.input("x");
        let h = b.fc(ctx, &mut init, "fc1", x, 4, 8).unwrap();
        let r = b.relu(ctx, "relu1", h);
        let y = b.fc(ctx, &mut init, "fc2", r, 8, 1).unwrap();
        let p = b.sigmoid(ctx, "prob", y);
        b.mark_output(p);
        b.finish()
    }

    #[test]
    fn executes_mlp_end_to_end() {
        let mut ctx = ExecContext::new();
        let g = simple_graph(&mut ctx);
        let out = execute(&g, &mut ctx, vec![Value::dense(Tensor::zeros(&[3, 4]))]).unwrap();
        assert_eq!(out.len(), 1);
        let t = out[0].as_dense().unwrap();
        assert_eq!(t.dims(), &[3, 1]);
        // Sigmoid output in (0, 1).
        assert!(t.as_slice().iter().all(|&v| v > 0.0 && v < 1.0));
    }

    #[test]
    fn rejects_wrong_input_count() {
        let mut ctx = ExecContext::new();
        let g = simple_graph(&mut ctx);
        assert!(matches!(
            execute(&g, &mut ctx, vec![]),
            Err(GraphError::InputCount {
                expected: 1,
                actual: 0
            })
        ));
    }

    #[test]
    fn traced_execution_captures_all_nodes() {
        let mut ctx = ExecContext::with_tracing(1 << 14);
        let g = simple_graph(&mut ctx);
        let (_, trace) =
            execute_traced(&g, &mut ctx, vec![Value::dense(Tensor::zeros(&[2, 4]))], 2).unwrap();
        assert_eq!(trace.ops.len(), 4);
        assert_eq!(trace.batch, 2);
        assert_eq!(trace.input_bytes, 2 * 4 * 4);
        let names: Vec<_> = trace.ops.iter().map(|o| o.name.as_str()).collect();
        assert_eq!(names, vec!["fc1", "relu1", "fc2", "prob"]);
    }

    #[test]
    fn a_streamed_run_hands_over_one_record_per_node_in_order() {
        let mut ctx = ExecContext::with_tracing(1 << 14);
        let g = simple_graph(&mut ctx);
        let mut names = Vec::new();
        let inputs = vec![Value::dense(Tensor::zeros(&[2, 4]))];
        execute_streamed(&g, &mut ctx, inputs, |op| names.push(op.name)).unwrap();
        assert_eq!(names, vec!["fc1", "relu1", "fc2", "prob"]);
        assert_eq!(ctx.drain_ops().count(), 0, "nothing is left behind");
    }

    #[test]
    fn deterministic_outputs_across_runs() {
        let mut ctx = ExecContext::new();
        let g = simple_graph(&mut ctx);
        let input = Tensor::from_vec(vec![0.1, 0.2, 0.3, 0.4], &[1, 4]).unwrap();
        let a = execute(&g, &mut ctx, vec![Value::dense(input.clone())]).unwrap();
        let b = execute(&g, &mut ctx, vec![Value::dense(input)]).unwrap();
        assert_eq!(
            a[0].as_dense().unwrap().as_slice(),
            b[0].as_dense().unwrap().as_slice()
        );
    }
}
