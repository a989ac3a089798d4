use std::fmt;

/// Errors surfaced to clients of the serving runtime.
#[derive(Debug)]
pub enum ServeError {
    /// The request was shed at admission: the queue is over its depth or
    /// estimated-delay budget. Clients should back off and retry.
    Overloaded {
        /// Queue depth observed at admission time.
        depth: usize,
        /// Estimated queueing delay (seconds) a new arrival would see,
        /// from the runtime's latency curve.
        estimated_delay_seconds: f64,
    },
    /// The runtime is draining and no longer accepts new work.
    ShuttingDown,
    /// The submitted inputs do not match the model's input contract.
    InvalidInput {
        /// Index of the offending input slot (or `usize::MAX` for a
        /// slot-count mismatch).
        slot: usize,
        /// What the model's [`drec_models::InputSpec`] expects.
        expected: String,
        /// What the request carried.
        got: String,
    },
    /// The worker executing this request's batch failed.
    WorkerFailed {
        /// Human-readable failure description (the underlying
        /// [`drec_graph::GraphError`] rendered per batch, or a caught
        /// worker panic message).
        reason: String,
    },
    /// The request's deadline passed before a worker picked it up; the
    /// batcher dropped it without executing.
    DeadlineExceeded {
        /// How far past the deadline the request was when dropped,
        /// seconds.
        late_seconds: f64,
    },
    /// A worker thread could not be spawned (at construction or during a
    /// supervisor restart).
    SpawnFailed {
        /// The OS error rendered.
        reason: String,
    },
    /// The response channel was dropped without a reply (a worker panic
    /// or a runtime torn down without drain).
    Disconnected,
    /// A live parameter update could not be applied and was not
    /// recoverable by the updater's retry policy (an unexpected store
    /// rejection, or a rollback that failed to recover). The serving
    /// path is unaffected — reads continue on the last published
    /// version.
    UpdateFailed {
        /// The update channel (model) being rolled.
        channel: String,
        /// The snapshot version the failed batch targeted.
        target_version: u64,
        /// The underlying store error, rendered.
        reason: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded {
                depth,
                estimated_delay_seconds,
            } => write!(
                f,
                "overloaded: queue depth {depth}, estimated delay {:.3} ms",
                estimated_delay_seconds * 1e3
            ),
            ServeError::ShuttingDown => write!(f, "runtime is shutting down"),
            ServeError::InvalidInput {
                slot,
                expected,
                got,
            } => write!(
                f,
                "invalid input at slot {slot}: expected {expected}, got {got}"
            ),
            ServeError::WorkerFailed { reason } => write!(f, "worker failed: {reason}"),
            ServeError::DeadlineExceeded { late_seconds } => write!(
                f,
                "deadline exceeded: dropped {:.3} ms past deadline without executing",
                late_seconds * 1e3
            ),
            ServeError::SpawnFailed { reason } => {
                write!(f, "failed to spawn worker thread: {reason}")
            }
            ServeError::Disconnected => write!(f, "response channel disconnected"),
            ServeError::UpdateFailed {
                channel,
                target_version,
                reason,
            } => write!(
                f,
                "live update for {channel} to v{target_version} failed: {reason}"
            ),
        }
    }
}

impl std::error::Error for ServeError {}

/// Convenience alias for runtime results.
pub type Result<T> = std::result::Result<T, ServeError>;
