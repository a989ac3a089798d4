//! Open-loop phases of the traced `colocated_mix` run: requests arrive
//! on a seeded Poisson schedule whether or not earlier ones have
//! completed, so queueing and admission control show. Each request is
//! timed from when it was *due*, which counts the wait a stall imposes
//! on later arrivals, and the generator's own lateness is reported.
//!
//! These are diagnostics, not gates: on this host identical open-loop
//! runs disagreed by more than any usable bound (see the README).

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use drec_serve::PendingResponse;

use crate::loadgen::{Handle, Lane};
use crate::stats::{percentile, sort};

/// What one open-loop phase saw.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct OpenPhase {
    pub lag_ms_p99: f64,
    pub latency_p50_ms: f64,
    pub latency_p99_ms: f64,
    pub shed_share: f64,
    pub goodput_qps: f64,
}

/// xorshift64* uniform in `[0, 1)`.
struct Rng(u64);

impl Rng {
    fn next_f64(&mut self) -> f64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Folds the recorded samples of a phase into its metrics. `sent`
/// counts every arrival; a refused or failed one is shed load.
pub fn summarize(
    mut lag_ms: Vec<f64>,
    mut latency_ms: Vec<f64>,
    sent: u64,
    seconds: f64,
    limit_ms: f64,
) -> OpenPhase {
    sort(&mut lag_ms);
    sort(&mut latency_ms);
    let within = latency_ms.iter().filter(|&&l| l <= limit_ms).count();
    OpenPhase {
        lag_ms_p99: percentile(&lag_ms, 0.99),
        latency_p50_ms: percentile(&latency_ms, 0.50),
        latency_p99_ms: percentile(&latency_ms, 0.99),
        shed_share: if sent == 0 {
            0.0
        } else {
            1.0 - latency_ms.len() as f64 / sent as f64
        },
        goodput_qps: within as f64 / seconds.max(1e-9),
    }
}

/// Drives `rate_qps` Poisson arrivals for `duration`, lanes in rotation
/// (the closed-loop mix serves its lanes at equal rates too), then
/// waits for what is outstanding.
pub fn run_phase(
    handle: &Handle,
    lanes: &[Lane],
    rate_qps: f64,
    duration: Duration,
    seed: u64,
    limit_ms: f64,
) -> OpenPhase {
    let mut rng = Rng(seed | 1);
    let mut outstanding: Vec<VecDeque<(PendingResponse, Instant)>> =
        lanes.iter().map(|_| VecDeque::new()).collect();
    let (mut lag_ms, mut latency_ms) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let end = start + duration;
    let drain_until = end + Duration::from_secs(5);
    let mut due = start;
    let mut sent = 0u64;
    loop {
        let now = Instant::now();
        let open = due < end;
        if open && now >= due {
            let lane = &lanes[sent as usize % lanes.len()];
            let inputs = lane.pool[(sent as usize / lanes.len()) % lane.pool.len()].clone();
            lag_ms.push((now - due).as_secs_f64() * 1e3);
            if let Ok(pending) = handle.submit(lane.model, inputs) {
                outstanding[sent as usize % lanes.len()].push_back((pending, due));
            }
            sent += 1;
            due += Duration::from_secs_f64(-(1.0 - rng.next_f64()).ln() / rate_qps);
            continue;
        }
        // A lane answers in order, so only its oldest request can be done.
        let mut progressed = false;
        for lane in &mut outstanding {
            while let Some(result) = lane.front().and_then(|(p, _)| p.try_wait()) {
                let (_, was_due) = lane.pop_front().expect("front exists");
                if result.is_ok() {
                    latency_ms.push((Instant::now() - was_due).as_secs_f64() * 1e3);
                }
                progressed = true;
            }
        }
        let idle = outstanding.iter().all(VecDeque::is_empty);
        if (!open && idle) || now >= drain_until {
            break;
        }
        if !progressed {
            // Never spin: the serving worker needs the other core.
            let nap = Duration::from_micros(200);
            std::thread::sleep(if open {
                nap.min(due.saturating_duration_since(now))
            } else {
                nap
            });
        }
    }
    summarize(lag_ms, latency_ms, sent, duration.as_secs_f64(), limit_ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refused_and_failed_arrivals_are_shed_load() {
        let latency: Vec<f64> = (1..=8).map(f64::from).collect();
        let phase = summarize(vec![0.1, 0.3, 0.2], latency, 10, 2.0, 6.0);
        assert_eq!(
            phase,
            OpenPhase {
                lag_ms_p99: 0.3,
                latency_p50_ms: 4.0,
                latency_p99_ms: 8.0,
                shed_share: 1.0 - 8.0 / 10.0,
                goodput_qps: 3.0,
            }
        );
        assert_eq!(summarize(vec![], vec![], 0, 1.0, 1.0), OpenPhase::default());
    }

    #[test]
    fn arrival_gaps_are_seeded_and_in_range() {
        let (mut a, mut b) = (Rng(42), Rng(42));
        for _ in 0..1000 {
            let x = a.next_f64();
            assert_eq!(x, b.next_f64());
            assert!((0.0..1.0).contains(&x));
        }
    }
}
