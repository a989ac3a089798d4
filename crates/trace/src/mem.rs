/// Whether a memory event reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Data load.
    Read,
    /// Data store.
    Write,
}

/// One data-memory access observed during functional execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemEvent {
    /// Virtual byte address of the first byte touched.
    pub addr: u64,
    /// Number of bytes touched (a cache-line-granular emitter uses 64).
    pub(crate) bytes: u32,
    /// Load or store.
    pub(crate) kind: AccessKind,
}

/// A systematically sampled stream of `MemEvent`s.
///
/// Operators on large batches can touch hundreds of millions of cache lines;
/// recording every access would dominate memory. `SampledMemTrace` keeps
/// every `period`-th event and remembers the total number of events it
/// represents, so downstream consumers (the cache simulators) can scale
/// their counts by [`SampledMemTrace::scale`].
///
/// Sampling is *systematic* (fixed stride). For the irregular gather
/// streams that dominate embedding-heavy models this is statistically
/// equivalent to random sampling; for regular streams the cache simulators
/// additionally apply set-sampling, so stride aliasing does not bias miss
/// rates in practice (see `drec-uarch` tests).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SampledMemTrace {
    events: Vec<MemEvent>,
    period: u64,
    cursor: u64,
    total: u64,
}

impl SampledMemTrace {
    /// Creates a trace that keeps every `period`-th event.
    ///
    /// # Panics
    ///
    /// Panics if `period == 0`.
    pub fn with_period(period: u64) -> Self {
        assert!(period > 0, "sample period must be at least 1");
        SampledMemTrace {
            events: Vec::new(),
            period,
            cursor: 0,
            total: 0,
        }
    }

    /// Records one access; keeps it if the sampler selects it.
    pub fn record(&mut self, addr: u64, bytes: u32, kind: AccessKind) {
        if self.cursor.is_multiple_of(self.period) {
            self.events.push(MemEvent { addr, bytes, kind });
        }
        self.cursor += 1;
        self.total += 1;
    }

    /// Records `count` accesses of a contiguous region starting at `addr`,
    /// emitting one sampled event per 64-byte line.
    pub fn record_range(&mut self, addr: u64, bytes: u64, kind: AccessKind) {
        let first_line = addr / 64;
        let last_line = (addr + bytes.max(1) - 1) / 64;
        for line in first_line..=last_line {
            self.record(line * 64, 64, kind);
        }
    }

    /// The retained (sampled) events.
    pub fn events(&self) -> &[MemEvent] {
        &self.events
    }

    /// Total number of events represented (sampled and skipped).
    pub fn total_events(&self) -> u64 {
        self.total
    }

    /// Multiplier to convert sampled counts into estimated true counts.
    pub fn scale(&self) -> f64 {
        if self.events.is_empty() {
            1.0
        } else {
            self.total as f64 / self.events.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn period_one_keeps_everything() {
        let mut t = SampledMemTrace::with_period(1);
        for i in 0..10 {
            t.record(i * 64, 64, AccessKind::Read);
        }
        assert_eq!(t.events().len(), 10);
        assert_eq!(t.total_events(), 10);
        assert_eq!(t.scale(), 1.0);
    }

    #[test]
    fn period_n_subsamples() {
        let mut t = SampledMemTrace::with_period(4);
        for i in 0..100 {
            t.record(i, 4, AccessKind::Write);
        }
        assert_eq!(t.events().len(), 25);
        assert_eq!(t.total_events(), 100);
        assert_eq!(t.scale(), 4.0);
    }

    #[test]
    #[should_panic(expected = "sample period")]
    fn zero_period_panics() {
        let _ = SampledMemTrace::with_period(0);
    }

    #[test]
    fn record_range_line_granular() {
        let mut t = SampledMemTrace::with_period(1);
        // 200 bytes starting mid-line spans 4 lines.
        t.record_range(32, 200, AccessKind::Read);
        assert_eq!(t.events().len(), 4);
        assert!(t.events().iter().all(|e| e.addr % 64 == 0));
    }

    #[test]
    fn estimated_bytes_scales() {
        let mut t = SampledMemTrace::with_period(2);
        for i in 0..10 {
            t.record(i * 64, 64, AccessKind::Read);
        }
        let sampled: u64 = t.events().iter().map(|e| e.bytes as u64).sum();
        assert!((sampled as f64 * t.scale() - 640.0).abs() < 1e-9);
    }
}
