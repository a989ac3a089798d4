//! The simulated cold-read latency model.

use std::time::Duration;

use drec_faultsim::splitmix64;

/// How a computed cold-read delay is applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pacing {
    /// Really sleep for the delay — the same semantics as
    /// `drec-faultsim`'s `ReadFault::Delay` seam. Use for chaos and
    /// determinism tests that must exercise real prefetch/demand races.
    Sleep,
    /// Only charge the delay to the wait-nanosecond counters. Use for
    /// benches and serving runs: the accounting is exact and
    /// reproducible, free of the ~50 µs granularity and scheduling noise
    /// of real `thread::sleep`.
    Charge,
}

/// Latency model for one simulated SSD read:
///
/// ```text
/// delay = base + jitter(seed, read_index) + per_inflight × queue_depth
/// ```
///
/// The jitter term is a pure function of the model seed and the global
/// cold-read index (via [`drec_faultsim::splitmix64`]), uniformly spread
/// over `[0, jitter]` — two runs of the same access sequence charge
/// identical delays. The queue-depth term models device contention:
/// every read already in service adds `per_inflight`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColdReadModel {
    /// Fixed service time of one cold read.
    pub base: Duration,
    /// Maximum seeded jitter added on top of `base`.
    pub jitter: Duration,
    /// Extra delay per read already in flight when this one starts.
    pub per_inflight: Duration,
    /// Seed perturbing the per-read jitter sequence.
    pub seed: u64,
    /// Sleep for real or only charge the counters.
    pub pacing: Pacing,
}

impl Default for ColdReadModel {
    /// A mid-range NVMe-class read: 10 µs base, up to 2 µs jitter,
    /// 500 ns per queued neighbour, charged virtually.
    fn default() -> Self {
        ColdReadModel {
            base: Duration::from_micros(10),
            jitter: Duration::from_micros(2),
            per_inflight: Duration::from_nanos(500),
            seed: 0,
            pacing: Pacing::Charge,
        }
    }
}

impl ColdReadModel {
    /// The delay charged to cold read number `read_index` with
    /// `inflight` reads already in service. Deterministic for a fixed
    /// model.
    pub(crate) fn delay_for(&self, read_index: u64, inflight: u64) -> Duration {
        let jitter_nanos = self.jitter.as_nanos() as u64;
        let jitter = if jitter_nanos == 0 {
            0
        } else {
            splitmix64(self.seed ^ read_index.wrapping_mul(0x9E37_79B9_7F4A_7C15)) % jitter_nanos
        };
        self.base
            + Duration::from_nanos(jitter)
            + self
                .per_inflight
                .saturating_mul(inflight.min(u64::from(u32::MAX)) as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_is_deterministic_and_bounded() {
        let m = ColdReadModel {
            seed: 42,
            ..ColdReadModel::default()
        };
        for i in 0..1000u64 {
            let d = m.delay_for(i, 0);
            assert_eq!(d, m.delay_for(i, 0), "read {i} not reproducible");
            assert!(d >= m.base && d < m.base + m.jitter, "read {i}: {d:?}");
        }
    }

    #[test]
    fn different_seeds_give_different_jitter_sequences() {
        let a = ColdReadModel {
            seed: 1,
            ..ColdReadModel::default()
        };
        let b = ColdReadModel {
            seed: 2,
            ..ColdReadModel::default()
        };
        let diverged = (0..64).any(|i| a.delay_for(i, 0) != b.delay_for(i, 0));
        assert!(diverged, "seeds 1 and 2 produced identical jitter");
    }

    #[test]
    fn queue_depth_adds_linear_penalty() {
        let m = ColdReadModel::default();
        let base = m.delay_for(7, 0);
        assert_eq!(m.delay_for(7, 4), base + Duration::from_nanos(2000));
    }

    #[test]
    fn zero_jitter_is_exact() {
        let m = ColdReadModel {
            jitter: Duration::ZERO,
            ..ColdReadModel::default()
        };
        assert_eq!(m.delay_for(9, 0), m.base);
    }
}
