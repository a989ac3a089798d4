use crate::{CacheConfig, CacheSim};

/// Geometry of the Decoded Stream Buffer (DSB, the decoded-μop cache).
///
/// Broadwell and Cascade Lake both implement ~1.5K μops as 32 sets × 8 ways
/// of 32-byte code windows; the default mirrors that.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DsbConfig {
    /// Number of sets.
    pub sets: usize,
    /// Ways per set.
    pub ways: usize,
    /// Code window bytes mapped per entry.
    pub window: u64,
}

impl Default for DsbConfig {
    fn default() -> Self {
        DsbConfig {
            sets: 32,
            ways: 8,
            window: 32,
        }
    }
}

/// Decoded-μop-cache simulator with DSB↔MITE switch counting.
///
/// Each fetched code window either hits the DSB (μops delivered from the
/// decoded cache) or falls back to the legacy MITE decode pipeline (and is
/// then inserted). Transitions between the two sources cost pipeline
/// bubbles that the TopDown frontend-bandwidth category observes (Fig 13).
#[derive(Debug, Clone)]
pub struct DsbSim {
    cache: CacheSim,
    last_was_dsb: Option<bool>,
    switches: f64,
}

impl DsbSim {
    /// Creates a DSB simulator.
    pub fn new(config: DsbConfig) -> Self {
        let cache_cfg = CacheConfig {
            bytes: config.sets as u64 * config.ways as u64 * config.window,
            ways: config.ways,
            line: config.window,
        };
        DsbSim {
            cache: CacheSim::new(cache_cfg),
            last_was_dsb: None,
            switches: 0.0,
        }
    }

    /// Fetches one code window; returns `true` if μops came from the DSB.
    pub fn fetch_window(&mut self, addr: u64, weight: f64) -> bool {
        let hit = self.cache.access(addr, weight);
        if let Some(last) = self.last_was_dsb {
            if last != hit {
                self.switches += weight;
            }
        }
        self.last_was_dsb = Some(hit);
        hit
    }

    /// Total DSB↔MITE transitions observed (weighted).
    pub fn switches(&self) -> f64 {
        self.switches
    }

    /// Fraction of windows served from the DSB.
    pub fn dsb_hit_ratio(&self) -> f64 {
        1.0 - self.cache.miss_ratio()
    }

    /// Clears the switch counter (per-op windows) while keeping contents.
    pub fn reset_counters(&mut self) {
        self.switches = 0.0;
        self.cache.reset_counters();
    }

    /// Empties the DSB and forgets the last fetch source: [`DsbSim::new`]'s
    /// state.
    pub fn clear(&mut self) {
        self.cache.clear();
        self.last_was_dsb = None;
        self.switches = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_loop_becomes_dsb_resident() {
        let mut dsb = DsbSim::new(DsbConfig::default());
        // A 128-byte loop = 4 windows, looped 10 times.
        let mut hits = 0;
        for pass in 0..10 {
            for w in 0..4u64 {
                if dsb.fetch_window(0x1000 + w * 32, 1.0) {
                    hits += 1;
                } else {
                    assert_eq!(pass, 0, "misses only on the first pass");
                }
            }
        }
        assert_eq!(hits, 36);
    }

    #[test]
    fn footprint_larger_than_capacity_streams_from_mite() {
        let cfg = DsbConfig::default();
        let capacity_windows = (cfg.sets * cfg.ways) as u64;
        let mut dsb = DsbSim::new(cfg);
        // Walk 4x the capacity repeatedly: every access misses.
        for _ in 0..3 {
            for w in 0..(4 * capacity_windows) {
                dsb.fetch_window(w * 32, 1.0);
            }
        }
        assert!(dsb.dsb_hit_ratio() < 0.05);
    }

    #[test]
    fn switches_counted_on_source_change() {
        let mut dsb = DsbSim::new(DsbConfig::default());
        dsb.fetch_window(0, 1.0); // miss (MITE)
        dsb.fetch_window(0, 1.0); // hit (DSB) -> switch
        dsb.fetch_window(0, 1.0); // hit -> no switch
        dsb.fetch_window(4096 * 32, 1.0); // miss -> switch
        assert_eq!(dsb.switches(), 2.0);
    }
}
