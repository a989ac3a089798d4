/// DRAM subsystem parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramConfig {
    /// Peak sustained bandwidth in bytes/second.
    pub bandwidth_bytes_per_sec: f64,
    /// Average memory latency in core cycles.
    pub latency_cycles: f64,
    /// Offcore request queue entries (line-fill buffers + super queue).
    pub queue_entries: f64,
    /// Core frequency in Hz (to convert bandwidth into bytes/cycle).
    pub core_freq_hz: f64,
}

impl DramConfig {
    /// Bandwidth in bytes per core cycle.
    pub(crate) fn bytes_per_cycle(&self) -> f64 {
        self.bandwidth_bytes_per_sec / self.core_freq_hz
    }
}

/// Occupancy threshold above which Intel classifies stalls as DRAM
/// *bandwidth* congestion rather than latency (quoted in the paper's
/// Fig 14 discussion).
pub(crate) const CONGESTION_OCCUPANCY: f64 = 0.7;

/// Per-op DRAM accounting results.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DramStats {
    /// Cycles the op needs for its DRAM traffic at peak bandwidth.
    pub bandwidth_cycles: f64,
    /// Average offcore queue occupancy (entries) implied by Little's law.
    pub(crate) avg_occupancy: f64,
    /// Occupancy as a fraction of the queue capacity.
    pub(crate) occupancy_fraction: f64,
    /// True if the op ran in the congested regime (>70% occupancy).
    pub congested: bool,
}

/// Bandwidth/occupancy model of the offcore memory path.
///
/// For each op we know its DRAM line count (from the cache hierarchy) and
/// an execution-cycle estimate; Little's law (`outstanding = rate ×
/// latency`) gives the average offcore queue occupancy, and the >70%
/// occupancy rule classifies bandwidth congestion (Fig 14) versus latency
/// boundedness.
#[derive(Debug, Clone, Copy)]
pub struct DramModel {
    config: DramConfig,
}

impl DramModel {
    /// Creates a model.
    pub fn new(config: DramConfig) -> Self {
        DramModel { config }
    }

    /// Accounts one op's DRAM behaviour.
    ///
    /// * `dram_lines` — 64-byte lines that missed all caches,
    /// * `op_cycles` — the op's execution cycles *before* DRAM stalls.
    pub fn run_op(&self, dram_lines: f64, op_cycles: f64) -> DramStats {
        let bytes = dram_lines * 64.0;
        let bandwidth_cycles = bytes / self.config.bytes_per_cycle();
        // Demand rate if the op ran without bandwidth stalls.
        let cycles = op_cycles.max(bandwidth_cycles).max(1.0);
        let rate = dram_lines / cycles; // requests per cycle
        let avg_occupancy = rate * self.config.latency_cycles;
        let occupancy_fraction = (avg_occupancy / self.config.queue_entries).min(1.0);
        DramStats {
            bandwidth_cycles,
            avg_occupancy,
            occupancy_fraction,
            congested: occupancy_fraction > CONGESTION_OCCUPANCY,
        }
    }

    /// Latency-bound stall cycles for `dram_lines` misses overlapped with
    /// memory-level parallelism `mlp`.
    pub fn latency_stall_cycles(&self, dram_lines: f64, mlp: f64) -> f64 {
        dram_lines * self.config.latency_cycles / mlp.max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DramConfig {
        DramConfig {
            bandwidth_bytes_per_sec: 77e9,
            latency_cycles: 200.0,
            queue_entries: 26.0,
            core_freq_hz: 2.6e9,
        }
    }

    #[test]
    fn bytes_per_cycle() {
        let c = cfg();
        assert!((c.bytes_per_cycle() - 77.0 / 2.6).abs() < 1e-9);
    }

    #[test]
    fn heavy_traffic_congests() {
        let m = DramModel::new(cfg());
        // 1M lines over 2M cycles: rate 0.5 lines/cyc × 200 cyc latency
        // = 100 outstanding >> 26 entries.
        let stats = m.run_op(1_000_000.0, 2_000_000.0);
        assert!(stats.congested);
        assert_eq!(stats.occupancy_fraction, 1.0);
    }

    #[test]
    fn light_traffic_stays_latency_bound() {
        let m = DramModel::new(cfg());
        // 100 lines over 1M cycles: negligible occupancy.
        let stats = m.run_op(100.0, 1_000_000.0);
        assert!(!stats.congested);
        assert!(stats.avg_occupancy < 1.0);
    }

    #[test]
    fn bandwidth_cycles_scale_with_traffic() {
        let m = DramModel::new(cfg());
        let a = m.run_op(1_000.0, 10.0);
        let b = m.run_op(2_000.0, 10.0);
        assert!((b.bandwidth_cycles / a.bandwidth_cycles - 2.0).abs() < 1e-9);
    }

    #[test]
    fn mlp_divides_latency_stalls() {
        let m = DramModel::new(cfg());
        let serial = m.latency_stall_cycles(100.0, 1.0);
        let parallel = m.latency_stall_cycles(100.0, 8.0);
        assert!((serial / parallel - 8.0).abs() < 1e-9);
    }
}
