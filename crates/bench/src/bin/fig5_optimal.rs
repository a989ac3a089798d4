//! Regenerates Fig 5: the optimal hardware platform per (model, batch)
//! cell, with its speedup over Broadwell.

use drec_analysis::Table;
use drec_bench::{fmt_speedup, BenchArgs};
use drec_core::sweep::sweep;
use drec_hwsim::Platform;

fn main() {
    let args = BenchArgs::parse();
    let batches = args.batch_grid();
    let result = sweep(
        &args.models(),
        &batches,
        &Platform::all(),
        args.scale,
        args.options(),
    )
    .expect("sweep succeeds");
    let grid = result.optimal_grid("Broadwell");

    let mut table = Table::new(
        std::iter::once("Model".to_string())
            .chain(batches.iter().map(|b| b.to_string()))
            .collect(),
    );
    for model in args.models() {
        let mut row = vec![model.name().to_string()];
        for &batch in &batches {
            let cell = grid
                .iter()
                .find(|c| c.model == model && c.batch == batch)
                .expect("cell present");
            let short = match cell.best_platform.as_str() {
                "Broadwell" => "BDW",
                "Cascade Lake" => "CLX",
                "GTX 1080 Ti" => "1080Ti",
                "T4" => "T4",
                other => other,
            };
            row.push(format!("{short} {}", fmt_speedup(cell.speedup)));
        }
        table.row(row);
    }
    println!("Fig 5: optimal platform and its speedup over Broadwell (columns: batch)");
    println!("{}", table.render());
}
