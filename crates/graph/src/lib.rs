//! Operator graphs: construction, execution, profiling, and framework
//! dialects — the suite's stand-in for Caffe2's `NetDef` layer.
//!
//! * [`Graph`] / [`GraphBuilder`] — a static, topologically ordered operator
//!   DAG whose nodes own their operators (and parameters),
//! * [`execute`] / [`execute_streamed`] / [`execute_traced`] — reference
//!   execution with value lifetime management, optionally handing each
//!   node's [`drec_trace::OpTrace`] to a sink as the node finishes
//!   (`execute_traced` collects them into a [`drec_trace::RunTrace`]):
//!   each node runs through [`drec_ops::Operator::execute`], the traced
//!   bracket no operator overrides, so this is the only traced path,
//! * [`ExecPlan`] — compiled execution plans: operator fusion, inter-op
//!   wave scheduling, and precomputed value lifetimes, bit-identical to
//!   the reference executor; a plan only serves and never traces,
//! * [`Breakdown`] — per-operator-type time shares (paper Fig 6),
//! * [`Framework`] / [`dialect_entries`] — Caffe2 ↔ TensorFlow operator
//!   naming so the Fig 7 comparison can be regenerated,
//! * [`dot`] — Graphviz export for visualising model structure.
//!
//! # Example
//!
//! ```
//! use drec_graph::GraphBuilder;
//! use drec_ops::{ExecContext, Value};
//! use drec_tensor::{ParamInit, Tensor};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut ctx = ExecContext::new();
//! let mut init = ParamInit::new(7);
//! let mut b = GraphBuilder::new();
//! let x = b.input("x");
//! let h = b.fc(&mut ctx, &mut init, "fc1", x, 4, 8)?;
//! let y = b.relu(&mut ctx, "relu1", h);
//! b.mark_output(y);
//! let graph = b.finish();
//!
//! let out = drec_graph::execute(
//!     &graph,
//!     &mut ctx,
//!     vec![Value::dense(Tensor::zeros(&[2, 4]))],
//! )?;
//! assert_eq!(out[0].as_dense()?.dims(), &[2, 8]);
//! # Ok(())
//! # }
//! ```

mod breakdown;
mod build;
mod dialect;
pub mod dot;
mod error;
mod exec;
mod graph;
mod plan;

pub use breakdown::Breakdown;
pub use build::GraphBuilder;
pub use dialect::{dialect_entries, Framework};
pub use error::GraphError;
pub use exec::{execute, execute_streamed, execute_traced};
pub use graph::{Graph, Node, NodeId, ValueId};
pub use plan::{ExecPlan, PlanOptions, PlanScratch, PlanStats};

/// Convenience result alias for graph operations.
pub type Result<T> = std::result::Result<T, GraphError>;
