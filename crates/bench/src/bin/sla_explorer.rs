//! SLA explorer: which platform serves the most QPS under each latency
//! target? (Extension of the paper's §IV batching discussion.)

use drec_analysis::Table;
use drec_bench::BenchArgs;
use drec_core::serving::serving_points;
use drec_core::sweep::sweep;
use drec_hwsim::Platform;
use drec_models::ModelId;

fn main() {
    let args = BenchArgs::parse();
    let batches = args.batch_grid();
    let models = [ModelId::Rm1, ModelId::Rm3, ModelId::Din];
    let result = sweep(
        &models,
        &batches,
        &Platform::all(),
        args.scale,
        args.options(),
    )
    .expect("sweep succeeds");

    for model in models {
        let mut table = Table::new(vec![
            "SLA".into(),
            "Best platform".into(),
            "Batch".into(),
            "QPS".into(),
        ]);
        for sla_ms in [1.0, 5.0, 20.0, 100.0] {
            let points = serving_points(&result, model, sla_ms / 1e3);
            let best = points
                .iter()
                .filter(|p| p.batch.is_some())
                .max_by(|a, b| a.qps.partial_cmp(&b.qps).unwrap());
            match best {
                Some(p) => table.row(vec![
                    format!("{sla_ms} ms"),
                    p.platform.clone(),
                    p.batch.unwrap().to_string(),
                    format!("{:.0}", p.qps),
                ]),
                None => table.row(vec![
                    format!("{sla_ms} ms"),
                    "(none meets SLA)".into(),
                    "-".into(),
                    "0".into(),
                ]),
            }
        }
        println!("\nSLA-constrained serving for {model}:");
        println!("{}", table.render());
    }
    println!("Tight SLAs favour CPUs at small batch; loose SLAs let GPUs batch up.");
}
