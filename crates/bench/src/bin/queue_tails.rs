//! Queueing extension: tail latency under Poisson load with greedy
//! batching, driven by the modelled latency-vs-batch curves.

use drec_analysis::Table;
use drec_bench::BenchArgs;
use drec_core::fleet::{simulate_fleet, DispatchPolicy, Engine, FleetSimConfig};
use drec_core::serving::LatencyCurve;
use drec_core::sweep::sweep;
use drec_hwsim::Platform;
use drec_models::ModelId;

fn main() {
    let args = BenchArgs::parse();
    let batches = args.batch_grid();
    let model = ModelId::Rm1;
    let result = sweep(
        &[model],
        &batches,
        &Platform::all(),
        args.scale,
        args.options(),
    )
    .expect("sweep succeeds");

    let mut table = Table::new(vec![
        "Platform".into(),
        "Load (QPS)".into(),
        "Mean batch".into(),
        "p50".into(),
        "p99".into(),
    ]);
    for platform in ["Broadwell", "Cascade Lake", "GTX 1080 Ti", "T4"] {
        let Some(curve) = LatencyCurve::from_sweep(&result, model, platform) else {
            continue;
        };
        let engine = [Engine {
            name: platform.to_string(),
            curve,
            max_batch: 4_096,
        }];
        for qps in [1_000.0, 20_000.0, 200_000.0] {
            let stats = simulate_fleet(
                &engine,
                FleetSimConfig {
                    arrival_qps: qps,
                    queries: 50_000,
                    seed: 0xD5EC,
                    policy: DispatchPolicy::RoundRobin,
                },
            );
            table.row(vec![
                platform.to_string(),
                format!("{qps:.0}"),
                format!("{:.1}", stats.mean_batch),
                format!("{:.2} ms", stats.p50 * 1e3),
                format!("{:.2} ms", stats.p99 * 1e3),
            ]);
        }
    }
    println!("Queueing simulation for {model}: Poisson arrivals, greedy batching");
    println!("{}", table.render());
    println!("CPUs hold tight tails at low load; GPUs absorb high load by");
    println!("batching up — at the cost of per-query latency.");
}
