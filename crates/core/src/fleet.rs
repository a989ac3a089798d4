//! Heterogeneous fleet scheduling — the DeepRecSys-style follow-on to the
//! paper's heterogeneity observation.
//!
//! The paper shows the optimal platform depends on batch size (Fig 5);
//! DeepRecSys (the source of the model suite) exploits that by scheduling
//! queries across CPUs *and* GPUs. This module simulates such a fleet: a
//! set of engines, each with its own latency-vs-batch curve and batching
//! cap, served from one Poisson arrival queue under a configurable
//! dispatch policy. With one engine it is the greedy batching queue
//! behind the paper's SLA analysis: `queue_tails` turns modelled
//! latency-vs-batch curves into tail latencies under load with it, and
//! `serve_loadgen` predicts the live runtime's tails.

use crate::serving::LatencyCurve;

/// One inference engine in the fleet.
#[derive(Debug, Clone)]
pub struct Engine {
    /// Display name (e.g. `"Cascade Lake #0"`).
    pub name: String,
    /// Modelled latency as a function of batch size.
    pub curve: LatencyCurve,
    /// Largest batch this engine will coalesce.
    pub max_batch: usize,
}

/// How the dispatcher assigns waiting queries to free engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchPolicy {
    /// Rotate through engines regardless of their speed.
    RoundRobin,
    /// Give the work to whichever free engine finishes it soonest
    /// (DeepRecSys-flavoured latency-aware dispatch).
    FastestCompletion,
}

/// Configuration of a fleet simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetSimConfig {
    /// Poisson arrival rate in queries per second.
    pub arrival_qps: f64,
    /// Number of queries to simulate.
    pub queries: usize,
    /// RNG seed for the arrival process.
    pub seed: u64,
    /// Dispatch policy.
    pub policy: DispatchPolicy,
}

/// Results of a fleet simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetStats {
    /// Mean query latency, seconds.
    pub mean_latency: f64,
    /// Median query latency, seconds.
    pub p50: f64,
    /// 95th-percentile query latency, seconds.
    pub p95: f64,
    /// 99th-percentile query latency, seconds.
    pub p99: f64,
    /// Average coalesced batch size over all engines.
    pub mean_batch: f64,
    /// Sustained throughput, queries/second.
    pub throughput_qps: f64,
    /// Queries served per engine, aligned with the engine list.
    pub per_engine_queries: Vec<usize>,
}

/// Simulates the fleet.
///
/// Event loop: queries arrive (Poisson); whenever an engine is free and
/// queries wait, the dispatcher picks an engine per the policy and hands
/// it everything queued up to the engine's `max_batch`.
///
/// # Panics
///
/// Panics if `engines` is empty, an engine's `max_batch` is 0, or
/// `arrival_qps <= 0`.
pub fn simulate_fleet(engines: &[Engine], cfg: FleetSimConfig) -> FleetStats {
    assert!(!engines.is_empty(), "fleet needs at least one engine");
    assert!(
        engines.iter().all(|e| e.max_batch >= 1),
        "max_batch must be at least 1"
    );
    assert!(cfg.arrival_qps > 0.0, "arrival rate must be positive");
    let n = cfg.queries.max(1);

    let mut state = cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next_u = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        ((state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64)
            .clamp(1e-12, 1.0 - 1e-12)
    };
    let mut arrivals = Vec::with_capacity(n);
    let mut t = 0.0;
    for _ in 0..n {
        t += -next_u().ln() / cfg.arrival_qps;
        arrivals.push(t);
    }

    let mut free_at = vec![0.0f64; engines.len()];
    let mut served = vec![0usize; engines.len()];
    let mut latencies = Vec::with_capacity(n);
    let mut next_query = 0usize;
    let mut batches = 0usize;
    let mut rr_cursor = 0usize;

    while next_query < n {
        let engine_idx = match cfg.policy {
            DispatchPolicy::RoundRobin => {
                let idx = rr_cursor % engines.len();
                rr_cursor += 1;
                idx
            }
            DispatchPolicy::FastestCompletion => {
                // Tentatively size the batch against each engine's start
                // time and pick the earliest completion.
                (0..engines.len())
                    .min_by(|&a, &b| {
                        let fa = next_batch(&engines[a], free_at[a], &arrivals, next_query).1;
                        let fb = next_batch(&engines[b], free_at[b], &arrivals, next_query).1;
                        fa.partial_cmp(&fb).expect("finite times")
                    })
                    .expect("non-empty fleet")
            }
        };
        let (batch, done) = next_batch(
            &engines[engine_idx],
            free_at[engine_idx],
            &arrivals,
            next_query,
        );
        for arrival in &arrivals[next_query..next_query + batch] {
            latencies.push(done - arrival);
        }
        free_at[engine_idx] = done;
        served[engine_idx] += batch;
        batches += 1;
        next_query += batch;
    }

    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let pct = |p: f64| latencies[(((latencies.len() - 1) as f64) * p) as usize];
    let total_time = free_at.iter().cloned().fold(arrivals[n - 1], f64::max);
    FleetStats {
        mean_latency: latencies.iter().sum::<f64>() / latencies.len() as f64,
        p50: pct(0.50),
        p95: pct(0.95),
        p99: pct(0.99),
        mean_batch: n as f64 / batches as f64,
        throughput_qps: n as f64 / total_time,
        per_engine_queries: served,
    }
}

/// The batch `engine` takes from the head query `next` on, and when it
/// finishes: it starts once it is free and the head has arrived, and
/// takes every query arrived by then, up to its `max_batch`.
fn next_batch(engine: &Engine, free_at: f64, arrivals: &[f64], next: usize) -> (usize, f64) {
    let start = free_at.max(arrivals[next]);
    let mut end = next;
    while end < arrivals.len() && end - next < engine.max_batch && arrivals[end] <= start {
        end += 1;
    }
    let batch = (end - next).max(1);
    (batch, start + engine.curve.eval(batch))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat_engine(name: &str, secs: f64, max_batch: usize) -> Engine {
        Engine {
            name: name.to_string(),
            curve: LatencyCurve::from_points(vec![(1, secs), (max_batch.max(2), secs)]),
            max_batch,
        }
    }

    fn cfg(qps: f64, policy: DispatchPolicy) -> FleetSimConfig {
        FleetSimConfig {
            arrival_qps: qps,
            queries: 10_000,
            seed: 5,
            policy,
        }
    }

    #[test]
    fn two_engines_double_single_engine_throughput_under_saturation() {
        let one = simulate_fleet(
            &[flat_engine("a", 1e-3, 1)],
            cfg(5_000.0, DispatchPolicy::RoundRobin),
        );
        let two = simulate_fleet(
            &[flat_engine("a", 1e-3, 1), flat_engine("b", 1e-3, 1)],
            cfg(5_000.0, DispatchPolicy::RoundRobin),
        );
        assert!(two.throughput_qps > one.throughput_qps * 1.7);
    }

    #[test]
    fn fastest_completion_prefers_the_fast_engine() {
        let engines = [flat_engine("fast", 1e-4, 8), flat_engine("slow", 1e-2, 8)];
        let stats = simulate_fleet(&engines, cfg(2_000.0, DispatchPolicy::FastestCompletion));
        assert!(
            stats.per_engine_queries[0] > stats.per_engine_queries[1] * 3,
            "{:?}",
            stats.per_engine_queries
        );
    }

    #[test]
    fn round_robin_splits_evenly_at_light_load() {
        let engines = [flat_engine("a", 1e-4, 4), flat_engine("b", 1e-4, 4)];
        let stats = simulate_fleet(&engines, cfg(100.0, DispatchPolicy::RoundRobin));
        let (a, b) = (
            stats.per_engine_queries[0] as f64,
            stats.per_engine_queries[1] as f64,
        );
        assert!((a / b - 1.0).abs() < 0.1, "{a} vs {b}");
    }

    #[test]
    fn latency_aware_dispatch_beats_round_robin_on_heterogeneous_fleets() {
        let engines = [
            flat_engine("cpu", 5e-4, 2),
            flat_engine("gpu-ish", 5e-3, 64),
        ];
        let rr = simulate_fleet(&engines, cfg(1_500.0, DispatchPolicy::RoundRobin));
        let smart = simulate_fleet(&engines, cfg(1_500.0, DispatchPolicy::FastestCompletion));
        assert!(smart.p99 <= rr.p99, "smart {} vs rr {}", smart.p99, rr.p99);
    }

    #[test]
    #[should_panic(expected = "at least one engine")]
    fn empty_fleet_panics() {
        let _ = simulate_fleet(&[], cfg(1.0, DispatchPolicy::RoundRobin));
    }

    #[test]
    #[should_panic(expected = "max_batch must be at least 1")]
    fn zero_max_batch_panics() {
        let engines = [flat_engine("a", 1e-3, 1), flat_engine("b", 1e-3, 0)];
        let _ = simulate_fleet(&engines, cfg(1.0, DispatchPolicy::RoundRobin));
    }

    /// One engine is the single-queue simulator `drec_core::serving` had
    /// before it was folded into this one (`simulate_queue`, at 7822c43).
    /// `PARENT` holds that simulator's stats as f64 bits — mean latency,
    /// p50, p95, p99, mean batch, throughput — for its three unit tests'
    /// configurations and for one `queue_tails --tiny --quick` cell (RM1 on
    /// T4 at 200 000 qps; the curve's knots are the bits that sweep gives).
    /// They were recorded by printing `simulate_queue`'s stats from a unit
    /// test in a checkout of 7822c43 and running `cargo test --release -p
    /// drec-core --lib` there.
    #[test]
    fn one_engine_reproduces_the_single_queue_simulator_bit_for_bit() {
        let t4_rm1 = [
            (1, 0x3f20_a5c2_74b2_067c),
            (16, 0x3f22_58c9_e5b8_236d),
            (256, 0x3f25_d645_97bc_150e),
            (4096, 0x3f30_53be_d6de_2473),
        ];
        // (knots, max_batch, arrival qps, queries, seed)
        let cases = [
            // Light load: service 1 ms, arrivals every 100 ms.
            (vec![(1, 1e-3), (64, 1e-3)], 64, 10.0, 2_000, 3),
            // Heavy load: ~5 queries must coalesce per run to keep up.
            (vec![(1, 1e-3), (512, 1e-3)], 512, 5_000.0, 20_000, 3),
            // Overload: max batch 1 at twice the service rate.
            (vec![(1, 1e-3)], 1, 2_000.0, 5_000, 4),
            (
                t4_rm1.map(|(b, t)| (b, f64::from_bits(t))).to_vec(),
                4_096,
                200_000.0,
                50_000,
                0xD5EC,
            ),
        ];
        const PARENT: [[u64; 6]; 4] = [
            [
                0x3f50_7946_225e_bbb3,
                0x3f50_624d_d2f2_0000,
                0x3f50_624d_d2f2_0000,
                0x3f52_1e83_924c_0000,
                0x3ff0_0000_0000_0000,
                0x4023_86e3_87b4_efce,
            ],
            [
                0x3f58_8cbb_2a8e_a24b,
                0x3f58_8f63_4848_7800,
                0x3f5f_fa87_aa05_f000,
                0x3f60_506b_c595_5c00,
                0x4013_d112_f5ea_d1e6,
                0x40b3_51d5_07ba_08a8,
            ],
            [
                0x3ff4_a2ed_7fcf_87e7,
                0x3ff4_b816_c550_13e5,
                0x4003_9cad_d174_38d2,
                0x4004_84d2_b49d_3175,
                0x3ff0_0000_0000_0000,
                0x408f_3e6f_a1a3_96a3,
            ],
            [
                0x3f2c_9413_3858_5fc2,
                0x3f2c_9993_40a7_2c00,
                0x3f32_9165_9c68_a100,
                0x3f32_ff98_1623_3000,
                0x403d_04e7_2ffd_9f6d,
                0x4108_6791_2450_2b4f,
            ],
        ];
        for ((knots, max_batch, arrival_qps, queries, seed), parent) in
            cases.into_iter().zip(PARENT)
        {
            let engine = Engine {
                name: "one".into(),
                curve: LatencyCurve::from_points(knots),
                max_batch,
            };
            let s = simulate_fleet(
                &[engine],
                FleetSimConfig {
                    arrival_qps,
                    queries,
                    seed,
                    policy: DispatchPolicy::RoundRobin,
                },
            );
            let got = [
                s.mean_latency,
                s.p50,
                s.p95,
                s.p99,
                s.mean_batch,
                s.throughput_qps,
            ];
            assert_eq!(got.map(f64::to_bits), parent, "{arrival_qps} qps: {s:?}");
        }
    }
}
