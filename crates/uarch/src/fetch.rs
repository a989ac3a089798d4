use drec_trace::CodeFootprint;

use crate::{CacheConfig, CacheSim, DsbConfig, DsbSim};

/// Maximum hot-loop passes simulated before extrapolating steady state.
const MAX_SIM_PASSES: u64 = 3;

/// Per-op frontend statistics produced by [`FetchSim`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FrontendStats {
    /// Instruction cache lines fetched (weighted).
    pub fetch_lines: f64,
    /// L1-I misses (weighted).
    pub icache_misses: f64,
    /// Code windows served from the DSB.
    pub dsb_windows: f64,
    /// Code windows decoded through MITE.
    pub mite_windows: f64,
    /// DSB↔MITE source switches.
    pub dsb_switches: f64,
}

impl FrontendStats {
    /// Fraction of fetched windows served by the DSB (1.0 when nothing was
    /// fetched).
    pub fn dsb_fraction(&self) -> f64 {
        let total = self.dsb_windows + self.mite_windows;
        if total > 0.0 {
            self.dsb_windows / total
        } else {
            1.0
        }
    }

    /// Accumulates another op's stats.
    pub fn add(&mut self, other: &FrontendStats) {
        self.fetch_lines += other.fetch_lines;
        self.icache_misses += other.icache_misses;
        self.dsb_windows += other.dsb_windows;
        self.mite_windows += other.mite_windows;
        self.dsb_switches += other.dsb_switches;
    }
}

/// Instruction-fetch stream synthesiser.
///
/// Walks each operator's [`CodeFootprint`] — dispatch region once, kernel
/// region once, then the hot loop body `iterations` times — feeding every
/// 64-byte line to an L1-I cache simulator and every 32-byte window to the
/// [`DsbSim`]. Loop passes are simulated until both structures reach
/// steady state (at most `MAX_SIM_PASSES`), after which the remaining
/// passes are extrapolated analytically. Cache/DSB contents persist across
/// ops, so a graph with hundreds of distinct small operators (DIN) keeps
/// evicting its own code — the Fig 12 mechanism.
#[derive(Debug, Clone)]
pub struct FetchSim {
    icache: CacheSim,
    dsb: DsbSim,
}

impl FetchSim {
    /// Creates a fetch simulator with the given L1-I geometry and DSB.
    pub fn new(icache: CacheConfig, dsb: DsbConfig) -> Self {
        FetchSim {
            icache: CacheSim::new(icache),
            dsb: DsbSim::new(dsb),
        }
    }

    /// Empties the L1-I and the DSB: [`FetchSim::new`]'s state.
    pub fn clear(&mut self) {
        self.icache.clear();
        self.dsb.clear();
    }

    /// Simulates one op's instruction fetch; returns its frontend stats.
    pub fn run_op(&mut self, code: &CodeFootprint) -> FrontendStats {
        let mut stats = FrontendStats::default();
        if code.is_empty() {
            return stats;
        }
        // Simulate the first invocations individually, then extrapolate the
        // rest from the last simulated one (steady state): with hundreds of
        // other ops between re-invocations the first walk is cold, later
        // ones depend on what survived in cache.
        const MAX_SIM_INVOCATIONS: u64 = 3;
        let sim_invocations = code.invocations.min(MAX_SIM_INVOCATIONS);
        let mut last_invocation = FrontendStats::default();
        for _ in 0..sim_invocations {
            last_invocation = self.run_invocation(code);
            stats.add(&last_invocation);
        }
        let remaining = (code.invocations - sim_invocations) as f64;
        if remaining > 0.0 {
            stats.fetch_lines += last_invocation.fetch_lines * remaining;
            stats.icache_misses += last_invocation.icache_misses * remaining;
            stats.dsb_windows += last_invocation.dsb_windows * remaining;
            stats.mite_windows += last_invocation.mite_windows * remaining;
            stats.dsb_switches += last_invocation.dsb_switches * remaining;
        }
        stats
    }

    fn run_invocation(&mut self, code: &CodeFootprint) -> FrontendStats {
        let mut stats = FrontendStats::default();
        // Cold walk: dispatch then kernel prologue/body.
        self.walk_region(code.dispatch.base, code.dispatch.bytes, 1.0, &mut stats);
        self.walk_region(code.kernel.base, code.kernel.bytes, 1.0, &mut stats);

        // Hot loop passes with steady-state extrapolation. The hot loop
        // sits at the start of the kernel region.
        let hot = code.hot_bytes.min(code.kernel.bytes);
        if hot == 0 || code.iterations < 1.0 {
            return stats;
        }
        let total_passes = code.iterations.max(1.0);
        let mut simulated = 0u64;
        let mut last_pass = FrontendStats::default();
        while (simulated as f64) < total_passes && simulated < MAX_SIM_PASSES {
            last_pass = FrontendStats::default();
            self.walk_region(code.kernel.base, hot, 1.0, &mut last_pass);
            stats.add(&last_pass);
            simulated += 1;
        }
        let remaining = (total_passes - simulated as f64).max(0.0);
        if remaining > 0.0 {
            // Steady state: repeat the last simulated pass's behaviour.
            stats.fetch_lines += last_pass.fetch_lines * remaining;
            stats.icache_misses += last_pass.icache_misses * remaining;
            stats.dsb_windows += last_pass.dsb_windows * remaining;
            stats.mite_windows += last_pass.mite_windows * remaining;
            stats.dsb_switches += last_pass.dsb_switches * remaining;
        }
        stats
    }

    fn walk_region(&mut self, base: u64, bytes: u64, weight: f64, stats: &mut FrontendStats) {
        if bytes == 0 {
            return;
        }
        let first_line = base / 64;
        let last_line = (base + bytes - 1) / 64;
        for line in first_line..=last_line {
            stats.fetch_lines += weight;
            if !self.icache.access(line * 64, weight) {
                stats.icache_misses += weight;
            }
        }
        let first_win = base / 32;
        let last_win = (base + bytes - 1) / 32;
        for win in first_win..=last_win {
            if self.dsb.fetch_window(win * 32, weight) {
                stats.dsb_windows += weight;
            } else {
                stats.mite_windows += weight;
            }
        }
        stats.dsb_switches += self.dsb.switches();
        self.dsb.reset_counters();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drec_trace::CodeRegion;

    fn icache_32k() -> CacheConfig {
        CacheConfig {
            bytes: 32 * 1024,
            ways: 8,
            line: 64,
        }
    }

    fn footprint(base: u64, kernel: u64, hot: u64, iters: f64) -> CodeFootprint {
        CodeFootprint {
            dispatch: CodeRegion {
                base: base + 0x10_0000,
                bytes: 512,
            },
            kernel: CodeRegion {
                base,
                bytes: kernel,
            },
            hot_bytes: hot,
            invocations: 1,
            iterations: iters,
        }
    }

    #[test]
    fn long_loop_has_negligible_miss_rate() {
        let mut sim = FetchSim::new(icache_32k(), DsbConfig::default());
        let stats = sim.run_op(&footprint(0x7f00_0000, 4096, 256, 1_000_000.0));
        let mpkf = stats.icache_misses / stats.fetch_lines;
        assert!(mpkf < 1e-3, "hot loop should hit: {mpkf}");
        assert!(stats.dsb_fraction() > 0.99);
    }

    #[test]
    fn many_distinct_small_ops_thrash_icache() {
        let mut sim = FetchSim::new(icache_32k(), DsbConfig::default());
        let mut total = FrontendStats::default();
        // 200 ops × (512B dispatch + 2KB kernel), few iterations, repeated
        // twice (two inference passes): footprint ~500KB >> 32KB L1-I.
        for pass in 0..2 {
            let _ = pass;
            for op in 0..200u64 {
                let code = footprint(0x7f00_0000 + op * 0x4000, 2048, 128, 4.0);
                total.add(&sim.run_op(&code));
            }
        }
        assert!(
            total.icache_misses / total.fetch_lines > 0.2,
            "distinct regions should thrash: {}",
            total.icache_misses / total.fetch_lines
        );
    }

    #[test]
    fn steady_state_extrapolation_matches_full_simulation() {
        // Small loop simulated fully vs with shortcut must agree closely.
        let code = footprint(0x7f00_0000, 1024, 192, 50.0);
        let mut sim = FetchSim::new(icache_32k(), DsbConfig::default());
        let fast = sim.run_op(&code);
        // Manual full walk.
        let mut slow_sim = FetchSim::new(icache_32k(), DsbConfig::default());
        let mut slow = FrontendStats::default();
        slow.add(&slow_sim.run_op(&CodeFootprint {
            iterations: 3.0, // only the simulated passes
            ..code
        }));
        // fetch_lines: fast should equal slow + 47 extra steady passes.
        let hot_lines = 3.0; // 192B at line 64 → 3 lines
        assert!((fast.fetch_lines - (slow.fetch_lines + 47.0 * hot_lines)).abs() < 1.0);
        assert!(fast.icache_misses <= slow.icache_misses + 1e-9);
    }

    #[test]
    fn empty_footprint_is_free() {
        let mut sim = FetchSim::new(icache_32k(), DsbConfig::default());
        let stats = sim.run_op(&CodeFootprint::empty());
        assert_eq!(stats, FrontendStats::default());
    }
}
