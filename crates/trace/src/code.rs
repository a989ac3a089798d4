/// A contiguous region of (virtual) instruction memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodeRegion {
    /// First byte of the region.
    pub base: u64,
    /// Region size in bytes.
    pub bytes: u64,
}

impl CodeRegion {
    /// An empty region at address 0 (used for ops with no kernel code).
    pub(crate) const EMPTY: CodeRegion = CodeRegion { base: 0, bytes: 0 };

    /// True if the region covers no bytes.
    pub(crate) fn is_empty(&self) -> bool {
        self.bytes == 0
    }
}

/// How a kernel occupies and revisits instruction memory.
///
/// The frontend models synthesize an instruction-fetch stream from this:
/// each *invocation* first walks the instance-specific `dispatch` region
/// (framework operator dispatch, shape checks, argument marshalling), then
/// the shared `kernel` region once (prologue, packing, epilogue), then loops
/// over the `hot_bytes` inner-loop body `iterations` times.
///
/// Kernel regions are shared between all instances of an operator kind —
/// every `FC` node jumps into the same GEMM code. Dispatch regions are
/// *per-instance*: each operator node carries its own argument blocks and
/// call sites. Models that instantiate hundreds of small operators (DIN's
/// local activation units) therefore accumulate a large total dispatch
/// footprint, which is exactly the mechanism behind the paper's i-cache
/// observation: "a large number of instructions with unique reference
/// locations" (Fig 12 discussion).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodeFootprint {
    /// Instance-specific dispatch/marshalling code.
    pub dispatch: CodeRegion,
    /// Shared kernel code region for this operator kind.
    pub kernel: CodeRegion,
    /// Bytes of the hot inner loop body (subset of `kernel`).
    pub hot_bytes: u64,
    /// Number of kernel invocations in this trace.
    pub invocations: u64,
    /// Inner-loop iterations per invocation.
    pub iterations: f64,
}

impl CodeFootprint {
    /// A footprint representing no code (e.g. zero-cost reshape).
    pub fn empty() -> Self {
        CodeFootprint {
            dispatch: CodeRegion::EMPTY,
            kernel: CodeRegion::EMPTY,
            hot_bytes: 0,
            invocations: 0,
            iterations: 0.0,
        }
    }

    /// True if the kernel executes no instructions.
    pub fn is_empty(&self) -> bool {
        self.invocations == 0 || (self.kernel.is_empty() && self.dispatch.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_footprint() {
        let f = CodeFootprint::empty();
        assert!(f.is_empty());
    }

    #[test]
    fn dispatch_only_footprint_is_not_empty() {
        let f = CodeFootprint {
            dispatch: CodeRegion {
                base: 0x2000,
                bytes: 256,
            },
            kernel: CodeRegion::EMPTY,
            hot_bytes: 0,
            invocations: 1,
            iterations: 0.0,
        };
        assert!(!f.is_empty());
    }
}
