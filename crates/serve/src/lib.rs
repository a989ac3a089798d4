//! `drec-serve` — a real concurrent inference serving runtime.
//!
//! The rest of the workspace *models* serving: `drec-core::serving`
//! interpolates latency curves and simulates a batching queue
//! analytically. This crate closes the loop by actually running one: real
//! requests (built from [`drec_workload::QueryGen`] samples) flow through
//! an MPSC submission path into a dynamic batcher, get coalesced into
//! model batches, and execute functionally on a pool of worker threads,
//! each owning a compiled model. The paper's SLA framing (§IV: batch
//! sizes from tens to thousands to meet different SLA targets) becomes an
//! operational system: admission control sheds load with a typed
//! [`ServeError::Overloaded`] before queues blow the tail, and a
//! lock-light metrics registry exposes p50/p95/p99, shed rate, mean
//! coalesced batch, and per-worker utilization while traffic flows.
//!
//! Both clocks are recorded: the worker times each batch and each
//! request's *real* end-to-end wall time, and the engine prices the batch
//! at its *modelled* per-platform time from the same
//! [`drec_core::serving::LatencyCurve`] the analytical queue simulation
//! uses — which is what lets `serve_loadgen` cross-validate
//! [`drec_core::serving::simulate_queue`] against measured tails.
//!
//! # Example
//!
//! ```
//! use drec_models::ModelId;
//! use drec_serve::{ServeConfig, ServeRuntime};
//! use drec_workload::QueryGen;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let runtime = ServeRuntime::start(ServeConfig::tiny(ModelId::Ncf))?;
//! let handle = runtime.handle();
//! let mut gen = QueryGen::uniform(1);
//! let pending = handle.submit(gen.batch(runtime.spec(), 1))?;
//! let response = pending.wait()?;
//! assert_eq!(response.outputs.len(), 1);
//! let stats = runtime.shutdown();
//! assert_eq!(stats.completed, 1);
//! # Ok(())
//! # }
//! ```

mod batcher;
mod degrade;
mod engine;
mod error;
mod metrics;
mod pool;
mod prefetch;
mod request;
mod runtime;
mod update;

pub use batcher::{BatchPoll, BatcherConfig, DispatchSignal, QueueKind, SharedQueue};
pub use degrade::{DegradeConfig, OverloadLadder, OverloadLevel};
pub use engine::{BatchExecution, Engine};
pub use error::{Result, ServeError};
pub use metrics::{LatencyHistogram, MetricsSnapshot, ModelChannelSnapshot};
pub use pool::{
    Inline, Lane, LanePool, LaneSet, LaneSpec, Placement, PoolConfig, SupervisorConfig, Worker,
};
pub use prefetch::PrefetchWindow;
pub use request::{coalesce_inputs, split_outputs, Priority, Request, Response, SubmitOptions};
pub use runtime::{PendingResponse, ServeConfig, ServeHandle, ServeRuntime};
pub use update::{ModelUpdateChannel, UpdatePlan, Updater, UpdaterStats, WeightSet};

// Second import paths, kept only while a caller names them here: the
// store types for `perf_bench`; `FaultHook` / `FaultPlan` for `drec-sched`,
// which does not depend on `drec-faultsim`, and the root package's
// `tier_determinism` test.
pub use drec_faultsim::{FaultHook, FaultPlan, UpdateFault};
pub use drec_store::{EmbeddingStore, RowDelta, RowEncoding, StoreConfig, StoreStats, UpdateBatch};
