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
use drec_bench::report::{Gate, Json, Report, Timed};
use drec_bench::timing::{sample, time, Spread};
use drec_bench::{output_bits, row};

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
/// Timed runs of each variant behind the speedup gate.
const GATE_REPEATS: usize = 7;

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

/// Wall seconds of one configured model, the inputs copied off the clock.
fn measure(model: &mut RecModel, inputs: &[Value], reference: bool, repeats: usize) -> Spread {
    sample(repeats, || {
        let inputs = inputs.to_vec();
        time(|| {
            let out = match reference {
                true => model.run_reference(inputs),
                false => model.run(inputs),
            };
            out.expect("inference")
        })
    })
}

/// Times the three execution strategies for one model across batch sizes:
/// the reference executor (per-node sequential, per-request liveness), the
/// compiled plan with fusion only, and with fusion and inter-op wave
/// scheduling — three rows per batch, in that order — and returns, per
/// batch, fused+waves' speedup and its comparison with the reference. The
/// same built model serves every variant (recompiling the plan in place),
/// so parameters and inputs are held fixed.
fn bench_model(
    id: ModelId,
    scale: ModelScale,
    batches: &[usize],
    repeats: usize,
) -> (Vec<Json>, Vec<(f64, Timed)>) {
    let mut model = id.build(scale, 7).expect("build");
    let mut gen = QueryGen::uniform(33);
    let (mut rows, mut speedups) = (Vec::new(), Vec::new());
    for &batch in batches {
        let inputs = gen.batch(model.spec(), batch);
        let sequential = measure(&mut model, &inputs, true, repeats);
        let fused_stats = model
            .compile_plan_with(PlanOptions { waves: false })
            .clone();
        let fused = measure(&mut model, &inputs, false, repeats).fastest;
        let wave_stats = model.compile_plan().clone();
        let fused_waves = measure(&mut model, &inputs, false, repeats);
        let (seq, waves) = (sequential.fastest, fused_waves.fastest);
        let at = format!("{} batch {batch}", id.name());
        let timed = Timed::new(fused_waves, ("sequential", sequential), at);
        speedups.push((seq / waves, timed));
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
    (rows, speedups)
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
    println!("Latency sweep ({scale:?} scale, fastest of {repeats}):");
    let mut rows = Vec::new();
    for id in ModelId::ALL {
        rows.extend(bench_model(id, scale, batches, repeats).0);
    }

    // The speedup gate always runs at Paper scale, batch 64: inter-op
    // waves only pay off once per-node work and node count are realistic.
    let mut speedups = Vec::new();
    if threads >= 2 {
        println!("Speedup gate (Paper scale, batch {GATE_BATCH}, fastest of {GATE_REPEATS}):");
        for id in GATE_MODELS {
            speedups.extend(bench_model(id, ModelScale::Paper, &[GATE_BATCH], GATE_REPEATS).1);
        }
    }

    report.section("model_scale", format!("{scale:?}"));
    report.section("identity_runs", identity_runs);
    report.section("plan_bit_identical", true);
    report.section("latency", rows);
    // Judged on the model that gains more.
    let best = speedups.into_iter().max_by(|a, b| a.0.total_cmp(&b.0));
    report.gate(
        Gate::timed(
            "fused_waves_speedup",
            AtLeast(SPEEDUP_GATE),
            best.map(|(_, timed)| timed),
        )
        .skip_if(
            (threads < 2)
                .then(|| format!("pool has {threads} thread(s); inter-op waves need >= 2")),
        ),
    );
    report.finish();
}
