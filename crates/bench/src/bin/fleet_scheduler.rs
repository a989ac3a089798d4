//! Fleet extension: serve one model's Poisson query stream from a
//! heterogeneous CPU+GPU fleet under different dispatch policies — the
//! DeepRecSys follow-on to the paper's Fig 5 heterogeneity result.

use drec_analysis::Table;
use drec_bench::BenchArgs;
use drec_core::fleet::{simulate_fleet, DispatchPolicy, Engine, FleetSimConfig};
use drec_core::serving::LatencyCurve;
use drec_core::sweep::sweep;
use drec_hwsim::Platform;
use drec_models::ModelId;

fn main() {
    let args = BenchArgs::parse();
    let model = ModelId::Rm1;
    let batches = args.batch_grid();
    let result = sweep(
        &[model],
        &batches,
        &Platform::all(),
        args.scale,
        args.options(),
    )
    .expect("sweep succeeds");

    let engine = |platform: &str, max_batch: usize| Engine {
        name: platform.to_string(),
        curve: LatencyCurve::from_sweep(&result, model, platform).expect("curve"),
        max_batch,
    };
    // Two Cascade Lake sockets plus one T4: the kind of mixed pool the
    // paper's datacenter context implies.
    let engines = vec![
        engine("Cascade Lake", 64),
        engine("Cascade Lake", 64),
        engine("T4", 4096),
    ];

    let mut table = Table::new(vec![
        "Load (QPS)".into(),
        "Policy".into(),
        "p99".into(),
        "Throughput".into(),
        "CLX#0 / CLX#1 / T4 share".into(),
    ]);
    for qps in [5_000.0, 50_000.0, 400_000.0] {
        for (policy, label) in [
            (DispatchPolicy::RoundRobin, "round-robin"),
            (DispatchPolicy::FastestCompletion, "fastest-completion"),
        ] {
            let stats = simulate_fleet(
                &engines,
                FleetSimConfig {
                    arrival_qps: qps,
                    queries: 60_000,
                    seed: 0xD5EC,
                    policy,
                },
            );
            let total: usize = stats.per_engine_queries.iter().sum();
            let shares: Vec<String> = stats
                .per_engine_queries
                .iter()
                .map(|&q| format!("{:.0}%", 100.0 * q as f64 / total as f64))
                .collect();
            table.row(vec![
                format!("{qps:.0}"),
                label.to_string(),
                format!("{:.2} ms", stats.p99 * 1e3),
                format!("{:.0} qps", stats.throughput_qps),
                shares.join(" / "),
            ]);
        }
    }
    println!("Fleet scheduling for {model}: 2× Cascade Lake + 1× T4");
    println!("{}", table.render());
    println!("Latency-aware dispatch keeps queries on CPUs until load forces");
    println!("the GPU's batch capacity into play — the DeepRecSys insight on");
    println!("top of this paper's characterization data.");
}
