use drec_trace::SampledMemTrace;

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub bytes: u64,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Line size in bytes (64 on every platform studied).
    pub line: u64,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> usize {
        (self.bytes / (self.line * self.ways as u64)).max(1) as usize
    }
}

/// A divisor fixed at construction: shift and mask when it is a power of
/// two (every line size and set count of both platforms' caches), `/` and
/// `%` otherwise (the 192-set STLB, odd sampling ratios).
#[derive(Debug, Clone, Copy)]
struct Divisor {
    value: u64,
    /// `log2(value)` when `value` is a power of two.
    shift: Option<u32>,
}

impl Divisor {
    fn new(value: u64) -> Self {
        Divisor {
            value,
            shift: value.is_power_of_two().then(|| value.trailing_zeros()),
        }
    }

    /// `(x / value, x % value)`.
    #[inline]
    fn div_rem(self, x: u64) -> (u64, u64) {
        match self.shift {
            Some(shift) => (x >> shift, x & (self.value - 1)),
            None => (x / self.value, x % self.value),
        }
    }
}

/// Where an address lands: its simulated set, and what to store there.
struct Slot {
    /// Index of the simulated set (the set index over the sampling ratio).
    index: usize,
    /// Set index in the full, unsampled cache (victim addresses need it).
    set: u64,
    tag: u64,
}

/// A set-associative, true-LRU cache simulator with optional set-sampling.
///
/// With `set_sample_ratio = k`, only addresses mapping to every `k`-th set
/// are simulated and all counters are scaled by `k` — the standard
/// unbiased-for-large-footprints technique that keeps full-model traces
/// affordable.
///
/// All simulated sets share one tag array, `ways` tags per set in LRU
/// order (front = MRU), of which the first `occupancy[set]` are valid. It
/// is allocated zeroed in one piece, so the sets of a 40 MB LLC that a
/// trace never reaches are never faulted in.
#[derive(Debug, Clone)]
pub struct CacheSim {
    config: CacheConfig,
    tags: Vec<u64>,
    occupancy: Vec<u32>,
    line: Divisor,
    sets: Divisor,
    sample: Divisor,
    accesses: f64,
    misses: f64,
}

impl CacheSim {
    /// Creates a simulator over the full set space.
    pub fn new(config: CacheConfig) -> Self {
        Self::with_set_sampling(config, 1)
    }

    /// Creates a simulator that models one in `ratio` sets.
    ///
    /// # Panics
    ///
    /// Panics if `ratio`, `config.ways` or `config.line` is zero.
    pub fn with_set_sampling(config: CacheConfig, ratio: u64) -> Self {
        assert!(ratio > 0, "set sample ratio must be positive");
        assert!(config.ways >= 1, "a cache needs at least one way");
        assert!(config.line >= 1, "a cache line is at least one byte");
        let n_sets = config.sets() as u64;
        let simulated = n_sets.div_ceil(ratio) as usize;
        CacheSim {
            config,
            tags: vec![0; simulated * config.ways],
            occupancy: vec![0; simulated],
            line: Divisor::new(config.line),
            sets: Divisor::new(n_sets),
            sample: Divisor::new(ratio),
            accesses: 0.0,
            misses: 0.0,
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// The slot `addr` maps to, or `None` when set sampling skips its set.
    #[inline(always)]
    fn locate(&self, addr: u64) -> Option<Slot> {
        let (line_addr, _) = self.line.div_rem(addr);
        let (tag, set) = self.sets.div_rem(line_addr);
        let (index, skipped) = self.sample.div_rem(set);
        (skipped == 0).then_some(Slot {
            index: index as usize,
            set,
            tag,
        })
    }

    /// The tags of simulated set `index`, valid or not, MRU first.
    #[inline(always)]
    fn set_mut(&mut self, index: usize) -> &mut [u64] {
        let ways = self.config.ways;
        &mut self.tags[index * ways..(index + 1) * ways]
    }

    /// Position of `tag` among the valid tags of simulated set `index`.
    #[inline(always)]
    fn position(&self, index: usize, tag: u64) -> Option<usize> {
        let first = index * self.config.ways;
        let valid = &self.tags[first..first + self.occupancy[index] as usize];
        valid.iter().position(|&t| t == tag)
    }

    /// Puts `tag` at the front of simulated set `index`, sliding the `len`
    /// tags ahead of its old place (or of the end) one step towards LRU.
    #[inline(always)]
    fn push_front(&mut self, index: usize, tag: u64, len: usize) {
        let set = self.set_mut(index);
        set.copy_within(0..len, 1);
        set[0] = tag;
    }

    /// Puts a `tag` the set does not hold at its front; returns the LRU
    /// tag this pushed out, if the set was full.
    #[inline(always)]
    fn fill(&mut self, index: usize, tag: u64) -> Option<u64> {
        let ways = self.config.ways;
        let len = self.occupancy[index] as usize;
        let evicted = if len == ways {
            Some(self.tags[(index + 1) * ways - 1])
        } else {
            self.occupancy[index] += 1;
            None
        };
        self.push_front(index, tag, len.min(ways - 1));
        evicted
    }

    /// Simulates one access of weight `weight` (trace sampling scale).
    /// Returns `true` on hit. Accesses to non-sampled sets return `true`
    /// and count nothing.
    pub fn access(&mut self, addr: u64, weight: f64) -> bool {
        self.access_with_victim(addr, weight).0
    }

    /// Like [`CacheSim::access`], but also returns the line address of the
    /// LRU victim a miss evicted (for exclusive-hierarchy victim fills).
    pub fn access_with_victim(&mut self, addr: u64, weight: f64) -> (bool, Option<u64>) {
        let Some(slot) = self.locate(addr) else {
            return (true, None);
        };
        let scaled = weight * self.sample.value as f64;
        self.accesses += scaled;
        if let Some(pos) = self.position(slot.index, slot.tag) {
            self.push_front(slot.index, slot.tag, pos);
            return (true, None);
        }
        self.misses += scaled;
        let evicted = self.fill(slot.index, slot.tag);
        let victim = evicted.map(|lru| (lru * self.sets.value + slot.set) * self.config.line);
        (false, victim)
    }

    /// Removes a line if present (exclusive-hierarchy promotion).
    /// Returns `true` if the line was resident.
    pub fn invalidate(&mut self, addr: u64) -> bool {
        let Some(slot) = self.locate(addr) else {
            return false;
        };
        let Some(pos) = self.position(slot.index, slot.tag) else {
            return false;
        };
        let len = self.occupancy[slot.index] as usize;
        self.set_mut(slot.index).copy_within(pos + 1..len, pos);
        self.occupancy[slot.index] -= 1;
        true
    }

    /// Inserts a line as MRU without counting an access (victim fill).
    pub fn insert(&mut self, addr: u64) {
        let Some(slot) = self.locate(addr) else {
            return;
        };
        match self.position(slot.index, slot.tag) {
            Some(pos) => self.push_front(slot.index, slot.tag, pos),
            None => {
                self.fill(slot.index, slot.tag);
            }
        }
    }

    /// Whether a line is currently resident (no LRU update, no counting).
    pub fn probe(&self, addr: u64) -> bool {
        self.locate(addr)
            .is_some_and(|slot| self.position(slot.index, slot.tag).is_some())
    }

    /// Estimated total accesses (scaled).
    pub fn accesses(&self) -> f64 {
        self.accesses
    }

    /// Estimated total misses (scaled).
    pub fn misses(&self) -> f64 {
        self.misses
    }

    /// Miss ratio (0 when no accesses were simulated).
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses > 0.0 {
            self.misses / self.accesses
        } else {
            0.0
        }
    }

    /// Clears counters but keeps cache contents (for per-op windows).
    pub fn reset_counters(&mut self) {
        self.accesses = 0.0;
        self.misses = 0.0;
    }
}

/// Last-level-cache inclusion policy (Table II lists Broadwell as
/// inclusive and Cascade Lake as exclusive).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InclusionPolicy {
    /// The L3 holds a superset of L1/L2: every fill populates all levels.
    Inclusive,
    /// The L3 is a victim cache: lines enter it only on L2 eviction, and
    /// an L3 hit promotes the line out of the L3 into L1/L2.
    Exclusive,
}

/// Geometry of a three-level data hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 data cache.
    pub l1: CacheConfig,
    /// Unified L2.
    pub l2: CacheConfig,
    /// Shared L3 (per-core slice capacity times cores, or the slice the
    /// single-threaded study effectively owns).
    pub l3: CacheConfig,
    /// Set-sampling ratio applied to every level.
    pub set_sample_ratio: u64,
    /// L3 inclusion policy.
    pub policy: InclusionPolicy,
}

/// Per-window hit/miss statistics for a [`CacheHierarchy`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HierarchyStats {
    /// Total (scaled) accesses.
    pub accesses: f64,
    /// Hits in L1.
    pub l1_hits: f64,
    /// Hits in L2.
    pub l2_hits: f64,
    /// Hits in L3.
    pub l3_hits: f64,
    /// Accesses that went to DRAM.
    pub dram_accesses: f64,
}

impl HierarchyStats {
    /// L1 miss ratio.
    pub fn l1_miss_ratio(&self) -> f64 {
        if self.accesses > 0.0 {
            1.0 - self.l1_hits / self.accesses
        } else {
            0.0
        }
    }

    /// Bytes fetched from DRAM (64-byte lines).
    pub fn dram_bytes(&self) -> f64 {
        self.dram_accesses * 64.0
    }

    /// Accumulates another window's stats.
    pub fn add(&mut self, other: &HierarchyStats) {
        self.accesses += other.accesses;
        self.l1_hits += other.l1_hits;
        self.l2_hits += other.l2_hits;
        self.l3_hits += other.l3_hits;
        self.dram_accesses += other.dram_accesses;
    }
}

/// Three-level data-cache hierarchy with a configurable LLC inclusion
/// policy.
///
/// Under [`InclusionPolicy::Inclusive`] (Broadwell), misses propagate
/// downward and fill every level. Under [`InclusionPolicy::Exclusive`]
/// (Cascade Lake), the L3 acts as a victim cache of the L2: DRAM fills
/// bypass the L3, L2 victims are written into it, and an L3 hit moves the
/// line back up — giving the core close to L2+L3 of distinct capacity.
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    l1: CacheSim,
    l2: CacheSim,
    l3: CacheSim,
    policy: InclusionPolicy,
}

impl CacheHierarchy {
    /// Builds the hierarchy from a config.
    pub fn new(config: HierarchyConfig) -> Self {
        CacheHierarchy {
            l1: CacheSim::with_set_sampling(config.l1, config.set_sample_ratio),
            l2: CacheSim::with_set_sampling(config.l2, config.set_sample_ratio),
            l3: CacheSim::with_set_sampling(config.l3, config.set_sample_ratio),
            policy: config.policy,
        }
    }

    /// The configured inclusion policy.
    pub fn policy(&self) -> InclusionPolicy {
        self.policy
    }

    /// Runs one op's sampled memory trace through the hierarchy and returns
    /// this window's statistics. Cache *contents* persist across calls, so
    /// producer→consumer reuse between ops is captured.
    pub fn run_trace(&mut self, trace: &SampledMemTrace) -> HierarchyStats {
        let weight = trace.scale();
        let mut stats = HierarchyStats::default();
        // Reads and writes are treated identically (write-allocate: store
        // misses fetch the line before modifying it).
        for e in trace.events() {
            stats.accesses += weight;
            if self.l1.access(e.addr, weight) {
                stats.l1_hits += weight;
                continue;
            }
            let (l2_hit, l2_victim) = self.l2.access_with_victim(e.addr, weight);
            if l2_hit {
                stats.l2_hits += weight;
                continue;
            }
            match self.policy {
                InclusionPolicy::Inclusive => {
                    if self.l3.access(e.addr, weight) {
                        stats.l3_hits += weight;
                    } else {
                        stats.dram_accesses += weight;
                    }
                }
                InclusionPolicy::Exclusive => {
                    // The L2 victim moves into the L3 regardless of where
                    // the demand line comes from.
                    if let Some(v) = l2_victim {
                        self.l3.insert(v);
                    }
                    let (l3_hit, _) = self.l3.access_with_victim(e.addr, weight);
                    if l3_hit {
                        // Promotion: the line leaves the (exclusive) L3.
                        self.l3.invalidate(e.addr);
                        stats.l3_hits += weight;
                    } else {
                        // DRAM fill goes straight to L1/L2; undo the
                        // allocation the probe made.
                        self.l3.invalidate(e.addr);
                        stats.dram_accesses += weight;
                    }
                }
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drec_trace::AccessKind;

    const SMALL: CacheConfig = CacheConfig {
        bytes: 4096,
        ways: 4,
        line: 64,
    };

    #[test]
    fn repeated_access_hits() {
        let mut c = CacheSim::new(SMALL);
        assert!(!c.access(0x1000, 1.0));
        assert!(c.access(0x1000, 1.0));
        assert!(c.access(0x1010, 1.0), "same line");
        assert_eq!(c.misses(), 1.0);
        assert_eq!(c.accesses(), 3.0);
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let mut c = CacheSim::new(SMALL);
        // 8 KiB working set in a 4 KiB cache, streamed twice.
        for _ in 0..2 {
            for i in 0..128u64 {
                c.access(i * 64, 1.0);
            }
        }
        assert!(
            c.miss_ratio() > 0.9,
            "streaming should thrash: {}",
            c.miss_ratio()
        );
    }

    #[test]
    fn working_set_smaller_than_cache_hits_on_second_pass() {
        let mut c = CacheSim::new(SMALL);
        for pass in 0..2 {
            for i in 0..32u64 {
                let hit = c.access(i * 64, 1.0);
                if pass == 1 {
                    assert!(hit, "second pass over 2 KiB should hit");
                }
            }
        }
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 1 set, 2 ways.
        let cfg = CacheConfig {
            bytes: 128,
            ways: 2,
            line: 64,
        };
        let mut c = CacheSim::new(cfg);
        c.access(0, 1.0); // A miss
        c.access(64, 1.0); // B miss (set 1? No: sets = 1) -- both map set 0
                           // Wait: sets = 128/(64*2) = 1, so A and B share the set.
        c.access(0, 1.0); // A hit, MRU = A
        c.access(128, 1.0); // C miss, evicts B
        assert!(c.access(0, 1.0), "A should survive");
        assert!(!c.access(64, 1.0), "B was evicted");
    }

    #[test]
    fn set_sampling_estimates_unsampled_rate() {
        // Large uniform-random working set: miss rate should be ~100%
        // whether sampled or not, and scaled counts should be comparable.
        let cfg = CacheConfig {
            bytes: 32 * 1024,
            ways: 8,
            line: 64,
        };
        let mut full = CacheSim::new(cfg);
        let mut sampled = CacheSim::with_set_sampling(cfg, 4);
        let mut state = 0x12345u64;
        for _ in 0..40_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let addr = (state >> 16) % (64 << 20);
            full.access(addr, 1.0);
            sampled.access(addr, 1.0);
        }
        let ratio = sampled.misses() / full.misses();
        assert!((0.9..1.1).contains(&ratio), "scaled miss ratio {ratio}");
    }

    #[test]
    fn hierarchy_promotes_and_counts() {
        let cfg = HierarchyConfig {
            l1: SMALL,
            l2: CacheConfig {
                bytes: 16 * 1024,
                ways: 8,
                line: 64,
            },
            l3: CacheConfig {
                bytes: 256 * 1024,
                ways: 16,
                line: 64,
            },
            set_sample_ratio: 1,
            policy: InclusionPolicy::Inclusive,
        };
        let mut h = CacheHierarchy::new(cfg);
        let mut t = SampledMemTrace::with_period(1);
        // 8 KiB working set: misses L1 (4 KiB) but fits L2.
        for pass in 0..4 {
            let _ = pass;
            for i in 0..128u64 {
                t.record(i * 64, 64, AccessKind::Read);
            }
        }
        let stats = h.run_trace(&t);
        assert_eq!(stats.accesses, 512.0);
        assert!(stats.l2_hits > 100.0, "L2 should capture reuse");
        assert!(stats.dram_accesses <= 128.0, "only cold misses reach DRAM");
    }

    #[test]
    fn exclusive_llc_extends_effective_capacity() {
        // Working set larger than L2 alone but within L2+L3 combined:
        // the exclusive hierarchy keeps re-hitting (L3 victim cache),
        // the inclusive one keeps a duplicate copy and thrashes earlier.
        let mk = |policy| {
            CacheHierarchy::new(HierarchyConfig {
                l1: CacheConfig {
                    bytes: 1024,
                    ways: 2,
                    line: 64,
                },
                l2: CacheConfig {
                    bytes: 4 * 1024,
                    ways: 4,
                    line: 64,
                },
                l3: CacheConfig {
                    bytes: 4 * 1024,
                    ways: 4,
                    line: 64,
                },
                set_sample_ratio: 1,
                policy,
            })
        };
        // 7 KiB working set: > 4 KiB L2, < 8 KiB L2+L3.
        let mut t = SampledMemTrace::with_period(1);
        for pass in 0..6 {
            let _ = pass;
            for i in 0..112u64 {
                t.record(i * 64, 64, drec_trace::AccessKind::Read);
            }
        }
        let mut inclusive = mk(InclusionPolicy::Inclusive);
        let mut exclusive = mk(InclusionPolicy::Exclusive);
        let inc = inclusive.run_trace(&t);
        let exc = exclusive.run_trace(&t);
        assert!(
            exc.dram_accesses < inc.dram_accesses,
            "exclusive {} vs inclusive {}",
            exc.dram_accesses,
            inc.dram_accesses
        );
    }

    #[test]
    fn exclusive_hit_promotes_line_out_of_l3() {
        let mut h = CacheHierarchy::new(HierarchyConfig {
            l1: CacheConfig {
                bytes: 128,
                ways: 2,
                line: 64,
            },
            l2: CacheConfig {
                bytes: 128,
                ways: 2,
                line: 64,
            },
            l3: CacheConfig {
                bytes: 1024,
                ways: 4,
                line: 64,
            },
            set_sample_ratio: 1,
            policy: InclusionPolicy::Exclusive,
        });
        // Touch A, then flush it out of L1/L2 with B/C/D; A's victims land
        // in L3; touching A again must be an L3 hit (not DRAM).
        let mut warm = SampledMemTrace::with_period(1);
        for addr in [0u64, 4096, 8192, 12288, 16384] {
            warm.record(addr, 64, drec_trace::AccessKind::Read);
        }
        h.run_trace(&warm);
        let mut again = SampledMemTrace::with_period(1);
        again.record(0, 64, drec_trace::AccessKind::Read);
        let stats = h.run_trace(&again);
        assert_eq!(stats.l3_hits, 1.0, "{stats:?}");
    }

    #[test]
    fn victim_reporting_and_insert_probe_roundtrip() {
        let cfg = CacheConfig {
            bytes: 128,
            ways: 2,
            line: 64,
        };
        let mut c = CacheSim::new(cfg);
        assert_eq!(c.access_with_victim(0, 1.0), (false, None));
        assert_eq!(c.access_with_victim(64, 1.0), (false, None));
        // Third distinct line in a 2-way single-set cache evicts line 0.
        let (hit, victim) = c.access_with_victim(128, 1.0);
        assert!(!hit);
        assert_eq!(victim, Some(0));
        assert!(!c.probe(0));
        c.insert(0);
        assert!(c.probe(0));
        assert!(c.invalidate(0));
        assert!(!c.invalidate(0));
    }

    #[test]
    fn hierarchy_stats_accumulate() {
        let mut a = HierarchyStats {
            accesses: 10.0,
            l1_hits: 5.0,
            ..HierarchyStats::default()
        };
        a.add(&HierarchyStats {
            accesses: 10.0,
            l1_hits: 10.0,
            ..HierarchyStats::default()
        });
        assert_eq!(a.accesses, 20.0);
        assert!((a.l1_miss_ratio() - 0.25).abs() < 1e-12);
    }
}
