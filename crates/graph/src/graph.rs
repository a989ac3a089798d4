use std::sync::Arc;

use drec_ops::{OpKind, Operator};

/// Identifier of a value (edge) in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ValueId(pub(crate) usize);

impl ValueId {
    /// The underlying dense index (stable within one graph).
    pub(crate) fn index(&self) -> usize {
        self.0
    }
}

/// One operator node: a named operator with input and output edges.
///
/// Operators are held behind `Arc` so a compiled [`crate::ExecPlan`] can
/// share them (fused plan ops wrap the constituent graph operators), and
/// so can a clone of the graph.
#[derive(Debug, Clone)]
pub struct Node {
    pub(crate) name: String,
    pub(crate) op: Arc<dyn Operator>,
    pub(crate) inputs: Vec<ValueId>,
    pub(crate) output: ValueId,
}

impl Node {
    /// The node's unique name.
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// The node's operator.
    pub fn op(&self) -> &dyn Operator {
        self.op.as_ref()
    }

    /// Input value ids.
    pub fn inputs(&self) -> &[ValueId] {
        &self.inputs
    }

    /// Output value id.
    pub(crate) fn output(&self) -> ValueId {
        self.output
    }
}

/// A static, topologically ordered operator DAG.
///
/// Nodes hold their operators (and therefore the model parameters) behind
/// `Arc`s, which a clone shares. Build with [`crate::GraphBuilder`]; the
/// builder's add-order *is* the execution order, and it enforces that
/// every consumed value already exists.
#[derive(Debug, Clone)]
pub struct Graph {
    pub(crate) nodes: Vec<Node>,
    pub(crate) input_names: Vec<String>,
    pub(crate) input_ids: Vec<ValueId>,
    pub(crate) outputs: Vec<ValueId>,
    pub(crate) n_values: usize,
}

impl Graph {
    /// Nodes in execution order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of operator nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Names of the external inputs, in the order `execute` expects them.
    pub fn input_names(&self) -> &[String] {
        &self.input_names
    }

    /// Output value ids.
    pub fn outputs(&self) -> &[ValueId] {
        &self.outputs
    }

    /// Value ids of the external inputs, aligned with
    /// [`Graph::input_names`].
    pub fn input_ids(&self) -> &[ValueId] {
        &self.input_ids
    }

    /// Puts `op` in node `index`'s place, with the node's inputs and
    /// output. The operator it held is not touched, so a clone of this
    /// graph that shares it keeps computing from it.
    ///
    /// # Panics
    ///
    /// Panics when `index` is not a node of this graph.
    pub fn replace_op(&mut self, index: usize, op: Arc<dyn Operator>) {
        self.nodes[index].op = op;
    }

    /// Total parameter bytes held by operators of the given kind.
    ///
    /// Embedding tables shared across several gather nodes are reported by
    /// the pooled op that owns them; model-level accounting in
    /// `drec-models` uses the model configuration instead.
    pub fn param_bytes_of_kind(&self, kind: OpKind) -> u64 {
        self.nodes
            .iter()
            .filter(|n| n.op.kind() == kind)
            .map(|n| n.op.param_bytes())
            .sum()
    }

    /// Number of nodes of the given kind.
    pub fn count_kind(&self, kind: OpKind) -> usize {
        self.nodes.iter().filter(|n| n.op.kind() == kind).count()
    }
}
