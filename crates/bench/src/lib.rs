//! Shared plumbing for the figure/table regeneration binaries.
//!
//! Every binary regenerates one table or figure from the paper; run them
//! with `cargo run --release -p drec-bench --bin <name>`. All binaries
//! accept:
//!
//! * `--tiny` — use the miniature model scale (smoke-test the harness),
//! * `--quick` — a reduced batch grid for faster turnaround.

use drec_core::{CharacterizeOptions, PAPER_BATCH_GRID};
use drec_models::{ModelId, ModelScale};

/// Parsed command-line options shared by all binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchArgs {
    /// Model scale to build.
    pub scale: ModelScale,
    /// Use a reduced batch grid.
    pub quick: bool,
}

impl BenchArgs {
    /// Parses `std::env::args`.
    pub fn parse() -> Self {
        let mut args = BenchArgs {
            scale: ModelScale::Paper,
            quick: false,
        };
        for arg in std::env::args().skip(1) {
            match arg.as_str() {
                "--tiny" => args.scale = ModelScale::Tiny,
                "--quick" => args.quick = true,
                other => {
                    eprintln!("warning: unknown argument '{other}' (supported: --tiny --quick)");
                }
            }
        }
        args
    }

    /// The batch grid to sweep (Fig 3/4/5 x-axis).
    pub fn batch_grid(&self) -> Vec<usize> {
        if self.quick {
            vec![1, 16, 256, 4096]
        } else {
            PAPER_BATCH_GRID.to_vec()
        }
    }

    /// The batch sizes Fig 6 plots.
    pub fn fig6_batches(&self) -> Vec<usize> {
        if self.quick {
            vec![4, 1024]
        } else {
            vec![4, 64, 1024, 16384]
        }
    }

    /// Characterization fidelity to use.
    pub fn options(&self) -> CharacterizeOptions {
        match self.scale {
            ModelScale::Tiny => CharacterizeOptions::fast(),
            ModelScale::Paper => CharacterizeOptions::paper(),
        }
    }

    /// All eight models.
    pub fn models(&self) -> Vec<ModelId> {
        ModelId::ALL.to_vec()
    }
}

impl Default for BenchArgs {
    fn default() -> Self {
        BenchArgs {
            scale: ModelScale::Paper,
            quick: false,
        }
    }
}

/// Minimal wall-clock benchmark runner used by the `benches/` targets.
///
/// Criterion is unavailable in the offline build environment, so the bench
/// targets (`harness = false`) time closures directly: warm up briefly,
/// then run until a time budget or iteration cap is hit and report
/// min/median/mean per iteration.
pub mod timing {
    use std::time::{Duration, Instant};

    /// Runs and reports one named benchmark.
    pub fn bench<T>(name: &str, mut f: impl FnMut() -> T) {
        // Warm-up: a few iterations so lazily-initialised state settles.
        let warm_start = Instant::now();
        let mut warm_iters = 0u32;
        while warm_iters < 3
            || (warm_start.elapsed() < Duration::from_millis(50) && warm_iters < 50)
        {
            std::hint::black_box(f());
            warm_iters += 1;
        }

        let budget = Duration::from_millis(500);
        let start = Instant::now();
        let mut samples_ns: Vec<u128> = Vec::new();
        while start.elapsed() < budget && samples_ns.len() < 1_000 {
            let t0 = Instant::now();
            std::hint::black_box(f());
            samples_ns.push(t0.elapsed().as_nanos());
        }
        samples_ns.sort_unstable();
        let min = samples_ns[0];
        let median = samples_ns[samples_ns.len() / 2];
        let mean = samples_ns.iter().sum::<u128>() / samples_ns.len() as u128;
        println!(
            "{name:<40} {:>5} iters  min {}  median {}  mean {}",
            samples_ns.len(),
            fmt_ns(min),
            fmt_ns(median),
            fmt_ns(mean)
        );
    }

    fn fmt_ns(ns: u128) -> String {
        if ns >= 1_000_000_000 {
            format!("{:.2} s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            format!("{:.2} ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            format!("{:.2} µs", ns as f64 / 1e3)
        } else {
            format!("{ns} ns")
        }
    }
}

/// Formats a speedup for grid cells.
pub fn fmt_speedup(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}x")
    } else if s >= 10.0 {
        format!("{s:.1}x")
    } else {
        format!("{s:.2}x")
    }
}

/// Formats a fraction as a percentage.
pub fn fmt_pct(f: f64) -> String {
    format!("{:.1}%", f * 100.0)
}

/// Renders a float for the `BENCH_*.json` files: nine decimals, and
/// `null` for a value JSON has no number for (NaN, ±∞ — a skipped or
/// failed measurement).
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.9}")
    } else {
        "null".to_string()
    }
}

/// Combined throughput of two spinning threads over that of one, each
/// counting loop iterations for 50 ms: ≈ 2 on two free cores, ≈ 1 when the
/// second "core" is a time-share of the first (a throttled container, an
/// oversubscribed hypervisor). `available_parallelism` cannot tell these
/// apart, and a two-thread timing gate means nothing on the latter.
pub fn second_core_throughput() -> f64 {
    fn spin() -> u64 {
        let start = std::time::Instant::now();
        let mut n = 0u64;
        while start.elapsed().as_millis() < 50 {
            for _ in 0..1000 {
                n = std::hint::black_box(n + 1);
            }
        }
        n
    }
    let alone = spin();
    let (a, b) = std::thread::scope(|s| {
        let other = s.spawn(spin);
        (spin(), other.join().expect("spin thread"))
    });
    (a + b) as f64 / alone as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_grid_matches_paper() {
        let args = BenchArgs::default();
        assert_eq!(args.batch_grid(), PAPER_BATCH_GRID.to_vec());
        assert_eq!(args.models().len(), 8);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_speedup(123.4), "123x");
        assert_eq!(fmt_speedup(12.34), "12.3x");
        assert_eq!(fmt_speedup(1.234), "1.23x");
        assert_eq!(fmt_pct(0.1234), "12.3%");
    }
}
