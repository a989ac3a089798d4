//! Benchmarks and acceptance gates for `drec-graph` compiled execution
//! plans: bit-identity of fused/wave-scheduled plans against the
//! sequential reference executor, per-model latency across plan variants
//! (sequential, fused, fused+waves), and the inter-op speedup gate on
//! the wave-friendly models. Reports as `BENCH_graph.json` (shape in the
//! `drec_bench` crate docs).
//!
//! Flags:
//!
//! * `--smoke` — tiny identity sweep plus the speedup gate only (CI mode),
//! * `--quick` — fewer timing repeats per cell.
//!
//! Plan outputs must be bit-identical to the reference executor for all
//! eight models at 1/2/8 pool threads (both modes; a mismatch panics).
//!
//! Gate:
//!
//! * `fused_waves_speedup` — fused+waves beats the sequential reference by
//!   ≥ 1.3× on DIN or RM2 at Paper scale, batch 64 (skipped when the pool
//!   has < 2 threads).

use drec_bench::report::Limit::AtLeast;
use drec_bench::report::{Gate, Json, Report};
use drec_bench::{output_bits, row};
use std::time::Instant;

use drec_graph::PlanOptions;
use drec_models::{ModelId, ModelScale, RecModel};
use drec_ops::Value;
use drec_par::ParPool;
use drec_workload::QueryGen;

/// Required fused+waves speedup over the sequential reference on the
/// better of DIN / RM2 at Paper scale, batch 64.
const SPEEDUP_GATE: f64 = 1.3;
/// Models the speedup gate is evaluated on: DIN's ~1300 tiny attention
/// ops and RM2's 32 independent embedding lookups are the paper's two
/// inter-op parallelism showcases.
const GATE_MODELS: [ModelId; 2] = [ModelId::Din, ModelId::Rm2];
const GATE_BATCH: usize = 64;

/// Bit-identity of the compiled plan against the reference executor for
/// every model at several pool sizes. Panics on any mismatch.
fn check_identity(batch: usize) -> usize {
    let mut runs = 0;
    for id in ModelId::ALL {
        let mut model = id.build(ModelScale::Tiny, 7).expect("build");
        let inputs = QueryGen::uniform(21).batch(model.spec(), batch);
        let want = model.run_reference(inputs.clone()).expect("reference run");
        model.compile_plan();
        for threads in [1usize, 2, 8] {
            let pool = ParPool::new(threads);
            let got = drec_par::with_pool(&pool, || model.run(inputs.clone())).expect("plan run");
            assert!(
                output_bits(&want) == output_bits(&got),
                "{id} plan @ {threads} threads: outputs differ bitwise from the reference"
            );
            runs += 1;
        }
    }
    runs
}

/// Best-of-`repeats` wall seconds for one configured model.
fn measure(model: &mut RecModel, inputs: &[Value], reference: bool, repeats: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..repeats.max(1) {
        let batch_inputs = inputs.to_vec();
        let start = Instant::now();
        let out = if reference {
            model.run_reference(batch_inputs)
        } else {
            model.run(batch_inputs)
        }
        .expect("inference");
        best = best.min(start.elapsed().as_secs_f64());
        std::hint::black_box(&out);
    }
    best
}

/// Times the three execution strategies for one model across batch sizes:
/// the reference executor (per-node sequential, per-request liveness), the
/// compiled plan with fusion only, and with fusion and inter-op wave
/// scheduling — three rows per batch, in that order. The same built model
/// serves every variant (recompiling the plan in place), so parameters
/// and inputs are held fixed.
fn bench_model(id: ModelId, scale: ModelScale, batches: &[usize], repeats: usize) -> Vec<Json> {
    let mut model = id.build(scale, 7).expect("build");
    let mut gen = QueryGen::uniform(33);
    let mut rows = Vec::new();
    for &batch in batches {
        let inputs = gen.batch(model.spec(), batch);
        let seq = measure(&mut model, &inputs, true, repeats);
        let fused_stats = model
            .compile_plan_with(PlanOptions { waves: false })
            .clone();
        let fused = measure(&mut model, &inputs, false, repeats);
        let wave_stats = model.compile_plan().clone();
        let waves = measure(&mut model, &inputs, false, repeats);
        for (variant, seconds, stats) in [
            ("sequential", seq, None),
            ("fused", fused, Some(&fused_stats)),
            ("fused+waves", waves, Some(&wave_stats)),
        ] {
            rows.push(row! {
                "model": id.name(),
                "batch": batch,
                "variant": variant,
                "seconds": seconds,
                "speedup": seq / seconds,
                "ops_before": stats.map_or(model.graph().len(), |s| s.ops_before),
                "ops_after": stats.map_or(model.graph().len(), |s| s.ops_after),
                "waves": stats.map_or(model.graph().len(), |s| s.waves),
                "max_wave_width": stats.map_or(1, |s| s.max_wave_width),
            });
        }
        println!(
            "  {:<6} batch {batch:>4}: seq {:>8.3}ms, fused {:>8.3}ms ({:.2}x), fused+waves {:>8.3}ms ({:.2}x)  [{} -> {} ops, {} waves]",
            id.name(),
            seq * 1e3,
            fused * 1e3,
            seq / fused,
            waves * 1e3,
            seq / waves,
            wave_stats.ops_before,
            wave_stats.ops_after,
            wave_stats.waves,
        );
    }
    rows
}

fn main() {
    let mut report = Report::start("graph", &["--smoke", "--quick"]);
    let (smoke, quick) = (report.flags.smoke, report.flags.quick);
    let scale = report.flags.scale();
    let threads = report.host.pool_threads;

    println!("Plan vs reference bit-identity (all models, Tiny, pools 1/2/8):");
    let identity_runs = check_identity(3);
    println!("  bit-identical in all {identity_runs} runs");

    let repeats = if smoke || quick { 3 } else { 5 };
    // Full mode sweeps the batch sizes the serving workloads form (1-17),
    // and 64 as the point the speedup gate is taken at.
    let batches: &[usize] = if smoke {
        &[4]
    } else if quick {
        &[1, 64]
    } else {
        &[1, 4, 8, 16, 64]
    };
    println!("Latency sweep ({scale:?} scale, best of {repeats}):");
    let mut rows = Vec::new();
    for id in ModelId::ALL {
        rows.extend(bench_model(id, scale, batches, repeats));
    }

    // The speedup gate always runs at Paper scale, batch 64: inter-op
    // waves only pay off once per-node work and node count are realistic.
    let mut best = (f64::NAN, "");
    if threads >= 2 {
        println!("Speedup gate (Paper scale, batch {GATE_BATCH}, best of 3):");
        for id in GATE_MODELS {
            let rows = bench_model(id, ModelScale::Paper, &[GATE_BATCH], 3);
            let waves = rows.last().expect("fused+waves is a batch's last row");
            let speedup = waves.num("speedup");
            if best.0.is_nan() || speedup > best.0 {
                best = (speedup, id.name());
            }
        }
    }

    report.section("model_scale", format!("{scale:?}"));
    report.section("identity_runs", identity_runs);
    report.section("plan_bit_identical", true);
    report.section("latency", rows);
    report.gate(
        Gate::new("fused_waves_speedup", best.0, AtLeast(SPEEDUP_GATE))
            .at(format!("{} batch {GATE_BATCH}", best.1))
            .skip_if(
                (threads < 2)
                    .then(|| format!("pool has {threads} thread(s); inter-op waves need >= 2")),
            ),
    );
    report.finish();
}
