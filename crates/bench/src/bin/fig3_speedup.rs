//! Regenerates Fig 3: speedup over the Broadwell CPU across models,
//! batch sizes, and platforms.

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

    println!("Fig 3: speedup over Broadwell (rows: batch size)");
    for model in args.models() {
        let mut table = Table::new(vec![
            "Batch".into(),
            "Cascade Lake".into(),
            "GTX 1080 Ti".into(),
            "T4".into(),
        ]);
        for &batch in &batches {
            let mut row = vec![batch.to_string()];
            for platform in ["Cascade Lake", "GTX 1080 Ti", "T4"] {
                let s = result
                    .speedup(model, batch, platform, "Broadwell")
                    .unwrap_or(f64::NAN);
                row.push(fmt_speedup(s));
            }
            table.row(row);
        }
        println!("\n== {model} ==");
        println!("{}", table.render());
    }
}
