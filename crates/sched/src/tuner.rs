//! Hill-climbing per-model tuner: batch size against an SLO.
//!
//! Every tick the tuner reads each model's *windowed* p99 (latency
//! observations since its previous tick, via
//! [`drec_serve::LatencyHistogram::quantile_seconds_since`]) and walks
//! one step:
//!
//! * **Over SLO** — halve the model's tuned batch cap (smaller batches
//!   leave the queue sooner, cutting coalescing and service delay). At
//!   the floor it holds: co-located lanes share the CPU workers on one
//!   width-1 intra-op pool, so there is no other knob to turn.
//! * **Comfortably under SLO** (below `recover_ratio × SLO`) — after a
//!   cooldown, double the batch cap back toward the configured maximum
//!   (bigger batches amortize better, and make GPU offload reachable
//!   again).
//!
//! One step per tick, a cooldown on the growth direction, and hysteresis
//! between the two thresholds keep the climb from oscillating — the same
//! damping discipline as the serving runtime's overload ladder.

/// Tuner parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TunerConfig {
    /// Seconds between tuner ticks.
    pub(crate) interval_s: f64,
    /// Minimum observations in a window before the tuner acts on it.
    pub(crate) min_samples: u64,
    /// Growth steps are only taken when the windowed p99 is below
    /// `recover_ratio × SLO` (must be `< 1` for hysteresis).
    pub(crate) recover_ratio: f64,
    /// Ticks to wait after any change before growing again.
    pub(crate) cooldown_ticks: u32,
    /// Smallest tuned batch cap.
    pub(crate) min_batch: usize,
}

impl Default for TunerConfig {
    fn default() -> Self {
        TunerConfig {
            interval_s: 0.02,
            min_samples: 16,
            recover_ratio: 0.7,
            cooldown_ticks: 3,
            min_batch: 1,
        }
    }
}

/// One step's outcome, applied by the caller to the model's queue
/// ([`drec_serve::SharedQueue::set_batch_cap`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TunerStep {
    /// Nothing to do (within band, cooling down, at a bound, or too few
    /// samples).
    Hold,
    /// Batch cap changed to the contained value.
    BatchCap(usize),
}

/// Per-model hill-climbing state.
#[derive(Debug, Clone)]
pub(crate) struct ModelTuner {
    /// The model's p99 SLO target, seconds.
    slo_s: f64,
    /// Configured (hard) max batch the cap can grow back to.
    max_batch: usize,
    /// Current tuned cap.
    cap: usize,
    /// Ticks remaining before the next growth step is allowed.
    cooldown: u32,
}

impl ModelTuner {
    /// Fresh state: cap at the configured max.
    pub(crate) fn new(slo_s: f64, max_batch: usize) -> Self {
        ModelTuner {
            slo_s,
            max_batch: max_batch.max(1),
            cap: max_batch.max(1),
            cooldown: 0,
        }
    }

    /// Advances one tick with the window's p99 and sample count.
    /// Mutates internal state and returns the knob to apply.
    pub(crate) fn step(
        &mut self,
        cfg: &TunerConfig,
        window_p99_s: f64,
        window_samples: u64,
    ) -> TunerStep {
        if window_samples < cfg.min_samples.max(1) {
            return TunerStep::Hold;
        }
        let floor = cfg.min_batch.max(1);
        if window_p99_s > self.slo_s {
            // Climbing down: shed latency. Any corrective step also
            // restarts the growth cooldown.
            self.cooldown = cfg.cooldown_ticks;
            if self.cap > floor {
                self.cap = (self.cap / 2).max(floor);
                return TunerStep::BatchCap(self.cap);
            }
            return TunerStep::Hold;
        }
        if window_p99_s < self.slo_s * cfg.recover_ratio.clamp(0.0, 1.0) {
            if self.cooldown > 0 {
                self.cooldown -= 1;
                return TunerStep::Hold;
            }
            self.cooldown = cfg.cooldown_ticks;
            if self.cap < self.max_batch {
                self.cap = (self.cap * 2).min(self.max_batch);
                return TunerStep::BatchCap(self.cap);
            }
        }
        TunerStep::Hold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TunerConfig {
        TunerConfig {
            min_samples: 1,
            cooldown_ticks: 2,
            ..TunerConfig::default()
        }
    }

    #[test]
    fn over_slo_halves_cap_to_the_floor_then_holds() {
        let cfg = cfg();
        let mut t = ModelTuner::new(10e-3, 16);
        assert_eq!(t.step(&cfg, 20e-3, 100), TunerStep::BatchCap(8));
        assert_eq!(t.step(&cfg, 20e-3, 100), TunerStep::BatchCap(4));
        assert_eq!(t.step(&cfg, 20e-3, 100), TunerStep::BatchCap(2));
        assert_eq!(t.step(&cfg, 20e-3, 100), TunerStep::BatchCap(1));
        // At the floor: hold rather than thrash.
        for _ in 0..4 {
            assert_eq!(t.step(&cfg, 20e-3, 100), TunerStep::Hold);
        }
        assert_eq!(t.cap, 1);
    }

    #[test]
    fn recovery_waits_out_cooldown_then_reverses_order() {
        let cfg = cfg();
        let mut t = ModelTuner::new(10e-3, 16);
        t.step(&cfg, 20e-3, 100); // cap 8, cooldown armed
        assert_eq!(t.step(&cfg, 1e-3, 100), TunerStep::Hold, "cooling down");
        assert_eq!(t.step(&cfg, 1e-3, 100), TunerStep::Hold, "cooling down");
        assert_eq!(t.step(&cfg, 1e-3, 100), TunerStep::BatchCap(16));
    }

    #[test]
    fn band_between_thresholds_holds() {
        let cfg = cfg();
        let mut t = ModelTuner::new(10e-3, 16);
        // 8 ms is under the 10 ms SLO but above 0.7 × SLO: hysteresis
        // band, no action in either direction.
        for _ in 0..10 {
            assert_eq!(t.step(&cfg, 8e-3, 100), TunerStep::Hold);
        }
        assert_eq!(t.cap, 16);
    }

    #[test]
    fn thin_windows_are_ignored() {
        let cfg = TunerConfig {
            min_samples: 50,
            ..TunerConfig::default()
        };
        let mut t = ModelTuner::new(10e-3, 16);
        assert_eq!(t.step(&cfg, 1.0, 10), TunerStep::Hold);
        assert_eq!(t.cap, 16);
    }
}
