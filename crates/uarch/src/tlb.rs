use drec_trace::SampledMemTrace;

use crate::{CacheConfig, CacheSim};

/// Geometry of a two-level data TLB.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TlbConfig {
    /// Page size in bytes (4 KiB default; 2 MiB models hugepage
    /// deployments).
    pub(crate) page_bytes: u64,
    /// First-level DTLB entries.
    pub(crate) l1_entries: usize,
    /// Second-level (shared) TLB entries.
    pub(crate) l2_entries: usize,
    /// Page-walk latency in cycles on an STLB miss.
    pub walk_latency: f64,
}

impl Default for TlbConfig {
    fn default() -> Self {
        // Broadwell/Skylake-class: 64-entry 4-way DTLB, ~1536-entry STLB.
        TlbConfig {
            page_bytes: 4096,
            l1_entries: 64,
            l2_entries: 1536,
            walk_latency: 35.0,
        }
    }
}

impl TlbConfig {
    /// The same TLB backed by 2 MiB huge pages.
    pub fn huge_pages(mut self) -> Self {
        self.page_bytes = 2 * 1024 * 1024;
        self
    }
}

/// Per-window TLB statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TlbStats {
    /// Translations requested.
    pub(crate) accesses: f64,
    /// First-level misses.
    pub(crate) l1_misses: f64,
    /// Misses that also missed the STLB (page walks).
    pub walks: f64,
}

impl TlbStats {
    /// Accumulates another window.
    pub(crate) fn add(&mut self, other: &TlbStats) {
        self.accesses += other.accesses;
        self.l1_misses += other.l1_misses;
        self.walks += other.walks;
    }
}

/// Two-level data-TLB simulator.
///
/// Embedding gathers touch one ~random page per lookup once tables reach
/// GBs; with 4 KiB pages the translations alone thrash both TLB levels —
/// the reason production DLRM deployments pin tables on huge pages. The
/// `ablate_hugepages` bench quantifies the effect; the paper itself does
/// not plot TLB counters, so this is an extension counter
/// (`CpuCounters::tlb_walk_mpki`).
#[derive(Debug, Clone)]
pub struct TlbSim {
    config: TlbConfig,
    l1: CacheSim,
    l2: CacheSim,
}

impl TlbSim {
    /// Creates an empty TLB.
    pub fn new(config: TlbConfig) -> Self {
        // Model TLB levels as fully-indexed caches with "line" = one page
        // table entry (8 bytes) and set counts chosen to hit the entry
        // budget at 4-way/8-way associativity.
        let l1 = CacheConfig {
            bytes: config.l1_entries as u64 * 8,
            ways: 4,
            line: 8,
        };
        let l2 = CacheConfig {
            bytes: config.l2_entries as u64 * 8,
            ways: 8,
            line: 8,
        };
        TlbSim {
            config,
            l1: CacheSim::new(l1),
            l2: CacheSim::new(l2),
        }
    }

    /// Empties both levels: [`TlbSim::new`]'s state.
    pub fn clear(&mut self) {
        self.l1.clear();
        self.l2.clear();
    }

    /// Translates one address (weight-scaled).
    pub(crate) fn translate(&mut self, addr: u64, weight: f64) -> TlbStats {
        let page = addr / self.config.page_bytes;
        let key = page * 8; // synthetic PTE address
        let mut stats = TlbStats {
            accesses: weight,
            ..TlbStats::default()
        };
        if !self.l1.access(key, weight) {
            stats.l1_misses = weight;
            if !self.l2.access(key, weight) {
                stats.walks = weight;
            }
        }
        stats
    }

    /// Runs one op's sampled trace through the TLB.
    pub fn run_trace(&mut self, trace: &SampledMemTrace) -> TlbStats {
        let weight = trace.scale();
        let mut stats = TlbStats::default();
        for e in trace.events() {
            stats.add(&self.translate(e.addr, weight));
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drec_trace::AccessKind;

    impl TlbStats {
        /// Page walks per kilo-access.
        fn walk_rate(&self) -> f64 {
            if self.accesses > 0.0 {
                self.walks / self.accesses
            } else {
                0.0
            }
        }
    }

    fn random_trace(n: usize, span: u64) -> SampledMemTrace {
        let mut t = SampledMemTrace::with_period(1);
        let mut state = 0x1234u64;
        for _ in 0..n {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            t.record((state >> 8) % span, 64, AccessKind::Read);
        }
        t
    }

    #[test]
    fn small_working_set_has_no_walks() {
        let mut tlb = TlbSim::new(TlbConfig::default());
        // 32 pages touched repeatedly: fits the 64-entry DTLB.
        let mut t = SampledMemTrace::with_period(1);
        for pass in 0..4 {
            let _ = pass;
            for p in 0..32u64 {
                t.record(p * 4096, 64, AccessKind::Read);
            }
        }
        let stats = tlb.run_trace(&t);
        assert!(stats.walks < 33.0, "{stats:?}"); // only cold misses
    }

    #[test]
    fn giant_random_footprint_walks_constantly() {
        let mut tlb = TlbSim::new(TlbConfig::default());
        // Random pages over 8 GiB: far beyond 1536 STLB entries.
        let stats = tlb.run_trace(&random_trace(20_000, 8 << 30));
        assert!(stats.walk_rate() > 0.8, "{}", stats.walk_rate());
    }

    #[test]
    fn huge_pages_collapse_the_footprint() {
        let mut small = TlbSim::new(TlbConfig::default());
        let mut huge = TlbSim::new(TlbConfig::default().huge_pages());
        // 2 GiB footprint = 1024 huge pages (fits the 1536-entry STLB)
        // versus 512Ki small pages (thrashes it).
        let trace = random_trace(20_000, 2 << 30);
        let s = small.run_trace(&trace);
        let h = huge.run_trace(&trace);
        assert!(h.walks < s.walks / 4.0, "{} vs {}", h.walks, s.walks);
    }
}
