use drec_trace::SampledMemTrace;

/// Configuration of the L2 stride prefetcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetcherConfig {
    /// Concurrent stream trackers (per-4KiB-page slots).
    pub streams: usize,
    /// Consecutive equal strides required before the stream is confident.
    pub trigger: u32,
}

impl Default for PrefetcherConfig {
    fn default() -> Self {
        PrefetcherConfig {
            streams: 16,
            trigger: 2,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Stream {
    page: u64,
    last_line: i64,
    stride: i64,
    confidence: u32,
    lru: u64,
}

/// Per-window prefetch statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PrefetchStats {
    /// Demand accesses observed.
    pub(crate) observed: f64,
    /// Accesses whose line a confident stream had already predicted.
    pub(crate) covered: f64,
}

impl PrefetchStats {
    /// Fraction of accesses covered by prefetches (0 when idle).
    pub fn coverage(&self) -> f64 {
        if self.observed > 0.0 {
            self.covered / self.observed
        } else {
            0.0
        }
    }
}

/// A page-based stride-stream prefetcher (the shape of Intel's L2
/// streamer).
///
/// Each 4 KiB page gets a tracker; two consecutive accesses with the same
/// line stride make the stream *confident*, after which accesses that
/// continue the stride count as prefetch-covered — their miss latency is
/// (mostly) hidden. Unit-stride weight streams in FC layers reach ~100%
/// coverage; uniform-random embedding gathers reach ~0%, which is why the
/// paper's embedding-heavy models expose raw DRAM latency. Systematic
/// trace sampling preserves stride constancy (every `P`-th line of a
/// stream is still a constant stride), so coverage survives sampling.
#[derive(Debug, Clone)]
pub struct StridePrefetcher {
    config: PrefetcherConfig,
    streams: Vec<Stream>,
    /// Index of the stream the last access matched: a stream is several
    /// accesses to one page, so it is usually the next one's too.
    last: usize,
    clock: u64,
}

impl StridePrefetcher {
    /// Creates an idle prefetcher.
    pub fn new(config: PrefetcherConfig) -> Self {
        StridePrefetcher {
            config,
            streams: Vec::with_capacity(config.streams),
            last: 0,
            clock: 0,
        }
    }

    /// Drops every tracker: [`StridePrefetcher::new`]'s state.
    pub fn clear(&mut self) {
        self.streams.clear();
        self.last = 0;
        self.clock = 0;
    }

    /// Observes one demand access; returns `true` if it was covered.
    pub fn observe(&mut self, addr: u64) -> bool {
        self.clock += 1;
        let line = (addr / 64) as i64;
        let page = addr >> 12;
        // Pages are unique among the trackers, so whichever order finds
        // the match finds the same one.
        let found = match self.streams.get(self.last) {
            Some(s) if s.page == page => Some(self.last),
            _ => self.streams.iter().position(|s| s.page == page),
        };
        if let Some(idx) = found {
            self.last = idx;
            let stream = &mut self.streams[idx];
            stream.lru = self.clock;
            let stride = line - stream.last_line;
            let covered;
            if stride == 0 {
                // Same line: trivially covered (it is resident anyway).
                covered = stream.confidence >= self.config.trigger;
            } else if stride == stream.stride {
                stream.confidence = stream.confidence.saturating_add(1);
                covered = stream.confidence >= self.config.trigger;
            } else {
                stream.stride = stride;
                stream.confidence = 1;
                covered = false;
            }
            stream.last_line = line;
            return covered;
        }
        // Allocate (evicting the LRU stream if full).
        if self.streams.len() == self.config.streams {
            if let Some((idx, _)) = self.streams.iter().enumerate().min_by_key(|(_, s)| s.lru) {
                self.streams.swap_remove(idx);
            }
        }
        self.last = self.streams.len();
        self.streams.push(Stream {
            page,
            last_line: line,
            stride: 0,
            confidence: 0,
            lru: self.clock,
        });
        false
    }

    /// Runs a sampled trace through the prefetcher and reports coverage.
    pub fn run_trace(&mut self, trace: &SampledMemTrace) -> PrefetchStats {
        let weight = trace.scale();
        let mut stats = PrefetchStats::default();
        for e in trace.events() {
            stats.observed += weight;
            if self.observe(e.addr) {
                stats.covered += weight;
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drec_trace::AccessKind;

    #[test]
    fn unit_stride_stream_reaches_high_coverage() {
        let mut pf = StridePrefetcher::new(PrefetcherConfig::default());
        let mut t = SampledMemTrace::with_period(1);
        for i in 0..64u64 {
            t.record(i * 64, 64, AccessKind::Read);
        }
        // One 4KiB page = 64 lines; stream confident after 2 strides.
        let stats = pf.run_trace(&t);
        assert!(stats.coverage() > 0.9, "{}", stats.coverage());
    }

    #[test]
    fn random_accesses_get_no_coverage() {
        let mut pf = StridePrefetcher::new(PrefetcherConfig::default());
        let mut t = SampledMemTrace::with_period(1);
        let mut state = 7u64;
        for _ in 0..2_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            t.record((state >> 10) % (1 << 32), 64, AccessKind::Read);
        }
        let stats = pf.run_trace(&t);
        assert!(stats.coverage() < 0.05, "{}", stats.coverage());
    }

    #[test]
    fn sampled_streams_keep_constant_stride_coverage() {
        // Period-8 sampling of a unit-stride stream = stride-8 stream.
        let mut pf = StridePrefetcher::new(PrefetcherConfig::default());
        let mut covered = 0;
        let total = 64;
        for i in 0..total {
            // Stay within one page per 8 accesses; pages advance with i.
            if pf.observe(i * 8 * 64) {
                covered += 1;
            }
        }
        // Stride-8 lines cross 4KiB pages every 8 accesses; allocation
        // resets per page, so coverage is partial but well above random.
        let _ = covered; // stride 8*64 = 512B → 8 lines/page boundary
        let mut pf2 = StridePrefetcher::new(PrefetcherConfig::default());
        let mut covered2 = 0.0;
        for i in 0..256u64 {
            if pf2.observe(i * 128) {
                covered2 += 1.0;
            }
        }
        assert!(covered2 / 256.0 > 0.7, "{}", covered2 / 256.0);
    }

    #[test]
    fn stream_table_capacity_is_bounded() {
        let cfg = PrefetcherConfig {
            streams: 4,
            trigger: 2,
        };
        let mut pf = StridePrefetcher::new(cfg);
        // Touch 100 distinct pages; the table must not grow past 4.
        for p in 0..100u64 {
            pf.observe(p << 12);
        }
        assert!(pf.streams.len() <= 4);
    }

    #[test]
    fn interleaved_streams_both_tracked() {
        let mut pf = StridePrefetcher::new(PrefetcherConfig::default());
        let mut covered = 0.0;
        let mut total = 0.0;
        for i in 0..32u64 {
            total += 2.0;
            if pf.observe(i * 64) {
                covered += 1.0;
            }
            if pf.observe(0x10_0000 + i * 64) {
                covered += 1.0;
            }
        }
        assert!(covered / total > 0.8, "{}", covered / total);
    }
}
