//! Regenerates Fig 4: GPU data-communication overhead as a percentage of
//! total execution time.

use drec_analysis::Table;
use drec_bench::{fmt_pct, BenchArgs};
use drec_core::sweep::sweep;
use drec_hwsim::Platform;

fn main() {
    let args = BenchArgs::parse();
    let batches = args.batch_grid();
    let result = sweep(
        &args.models(),
        &batches,
        &[Platform::gtx_1080_ti(), Platform::t4()],
        args.scale,
        args.options(),
    )
    .expect("sweep succeeds");

    for platform in ["GTX 1080 Ti", "T4"] {
        let mut table = Table::new(
            std::iter::once("Model".to_string())
                .chain(batches.iter().map(|b| b.to_string()))
                .collect(),
        );
        for model in args.models() {
            let mut row = vec![model.name().to_string()];
            for &batch in &batches {
                let frac = result
                    .get(model, batch, platform)
                    .and_then(|c| c.data_comm_fraction)
                    .unwrap_or(f64::NAN);
                row.push(fmt_pct(frac));
            }
            table.row(row);
        }
        println!("\nFig 4 ({platform}): data communication as % of total time (columns: batch)");
        println!("{}", table.render());
    }
}
