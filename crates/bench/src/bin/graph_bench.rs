//! Benchmarks and acceptance gates for `drec-graph` compiled execution
//! plans: bit-identity of fused/wave-scheduled plans against the
//! sequential reference executor, per-model latency across plan variants
//! (sequential, fused, fused+waves), and the inter-op speedup gate on
//! the wave-friendly models. Writes `BENCH_graph.json`.
//!
//! Flags:
//!
//! * `--smoke` — tiny identity sweep plus the speedup gate only (CI mode),
//! * `--quick` — fewer timing repeats per cell.
//!
//! Gates:
//!
//! * plan outputs are bit-identical to the reference executor for all
//!   eight models at 1/2/8 pool threads (both modes),
//! * fused+waves beats the sequential reference by ≥ 1.3× on DIN or RM2
//!   at Paper scale, batch 64 (skipped when the pool has < 2 threads).

use drec_bench::json_f64;
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

struct Args {
    smoke: bool,
    quick: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        quick: false,
    };
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => args.smoke = true,
            "--quick" => args.quick = true,
            other => eprintln!("warning: unknown argument '{other}' (supported: --smoke --quick)"),
        }
    }
    args
}

/// The three execution strategies compared per model × batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Variant {
    /// Reference executor: per-node sequential, per-request liveness.
    Sequential,
    /// Compiled plan with fusion only (waves off).
    Fused,
    /// Compiled plan with fusion and inter-op wave scheduling.
    FusedWaves,
}

impl Variant {
    fn name(self) -> &'static str {
        match self {
            Variant::Sequential => "sequential",
            Variant::Fused => "fused",
            Variant::FusedWaves => "fused+waves",
        }
    }
}

fn assert_bits_eq(id: ModelId, a: &[Value], b: &[Value], what: &str) {
    assert_eq!(a.len(), b.len(), "{id} {what}: output count");
    for (x, y) in a.iter().zip(b) {
        let (xt, yt) = (
            x.as_dense().expect("dense output"),
            y.as_dense().expect("dense output"),
        );
        assert_eq!(xt.dims(), yt.dims(), "{id} {what}: output shape");
        assert!(
            xt.as_slice()
                .iter()
                .zip(yt.as_slice())
                .all(|(p, q)| p.to_bits() == q.to_bits()),
            "{id} {what}: outputs differ bitwise"
        );
    }
}

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
            assert_bits_eq(id, &want, &got, &format!("plan @ {threads} threads"));
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

struct Row {
    model: &'static str,
    batch: usize,
    variant: Variant,
    seconds: f64,
    speedup: f64,
    ops_before: usize,
    ops_after: usize,
    waves: usize,
    max_wave_width: usize,
}

/// Times all three variants for one model across batch sizes. The same
/// built model serves every variant (recompiling the plan in place), so
/// parameters and inputs are held fixed.
fn bench_model(id: ModelId, scale: ModelScale, batches: &[usize], repeats: usize) -> Vec<Row> {
    let mut model = id.build(scale, 7).expect("build");
    let mut gen = QueryGen::uniform(33);
    let mut rows = Vec::new();
    for &batch in batches {
        let inputs = gen.batch(model.spec(), batch);
        let seq = measure(&mut model, &inputs, true, repeats);
        let fused_stats = model
            .compile_plan_with(PlanOptions {
                fuse: true,
                waves: false,
            })
            .clone();
        let fused = measure(&mut model, &inputs, false, repeats);
        let wave_stats = model.compile_plan().clone();
        let waves = measure(&mut model, &inputs, false, repeats);
        for (variant, seconds, stats) in [
            (Variant::Sequential, seq, None),
            (Variant::Fused, fused, Some(&fused_stats)),
            (Variant::FusedWaves, waves, Some(&wave_stats)),
        ] {
            rows.push(Row {
                model: id.name(),
                batch,
                variant,
                seconds,
                speedup: seq / seconds,
                ops_before: stats.map_or(model.graph().len(), |s| s.ops_before),
                ops_after: stats.map_or(model.graph().len(), |s| s.ops_after),
                waves: stats.map_or(model.graph().len(), |s| s.waves),
                max_wave_width: stats.map_or(1, |s| s.max_wave_width),
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

fn write_json(
    path: &str,
    smoke: bool,
    scale: ModelScale,
    threads: usize,
    identity_runs: usize,
    rows: &[Row],
    gate: Option<(&'static str, f64)>,
) {
    let mut s = String::from("{\n");
    s.push_str(&format!(
        "  \"mode\": \"{}\",\n  \"model_scale\": \"{scale:?}\",\n  \"pool_threads\": {threads},\n",
        if smoke { "smoke" } else { "full" }
    ));
    s.push_str(&format!(
        "  \"identity_runs\": {identity_runs},\n  \"plan_bit_identical\": true,\n"
    ));
    s.push_str("  \"latency\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"model\": \"{}\", \"batch\": {}, \"variant\": \"{}\", \"seconds\": {}, \"speedup\": {}, \"ops_before\": {}, \"ops_after\": {}, \"waves\": {}, \"max_wave_width\": {}}}{}\n",
            r.model,
            r.batch,
            r.variant.name(),
            json_f64(r.seconds),
            json_f64(r.speedup),
            r.ops_before,
            r.ops_after,
            r.waves,
            r.max_wave_width,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"gate\": {\n");
    match gate {
        Some((model, speedup)) => {
            s.push_str(&format!(
                "    \"evaluated\": true,\n    \"model\": \"{model}\",\n    \"batch\": {GATE_BATCH},\n    \"speedup\": {},\n    \"required\": {SPEEDUP_GATE}\n",
                json_f64(speedup)
            ));
        }
        None => {
            s.push_str(&format!(
                "    \"evaluated\": false,\n    \"reason\": \"pool has {threads} thread(s); inter-op waves need >= 2\"\n"
            ));
        }
    }
    s.push_str("  }\n}\n");
    std::fs::write(path, s).expect("write BENCH_graph.json");
}

fn main() {
    let args = parse_args();
    let scale = if args.smoke {
        ModelScale::Tiny
    } else {
        ModelScale::Paper
    };
    let threads = drec_par::global().threads();
    println!(
        "graph_bench: {} mode, {scale:?} latency scale, {threads}-thread pool",
        if args.smoke { "smoke" } else { "full" }
    );

    println!("Plan vs reference bit-identity (all models, Tiny, pools 1/2/8):");
    let identity_runs = check_identity(3);
    println!("  bit-identical in all {identity_runs} runs");

    let repeats = if args.smoke || args.quick { 3 } else { 5 };
    let batches: &[usize] = if args.smoke {
        &[4]
    } else if args.quick {
        &[1, 64]
    } else {
        &[1, 16, 64, 128]
    };
    println!("Latency sweep ({scale:?} scale, best of {repeats}):");
    let mut rows = Vec::new();
    for id in ModelId::ALL {
        rows.extend(bench_model(id, scale, batches, repeats));
    }

    // The speedup gate always runs at Paper scale, batch 64: inter-op
    // waves only pay off once per-node work and node count are realistic.
    let gate = if threads >= 2 {
        println!("Speedup gate (Paper scale, batch {GATE_BATCH}, best of 3):");
        let mut best: Option<(&'static str, f64)> = None;
        for id in GATE_MODELS {
            let rows = bench_model(id, ModelScale::Paper, &[GATE_BATCH], 3);
            let speedup = rows
                .iter()
                .find(|r| r.variant == Variant::FusedWaves)
                .expect("fused+waves row present")
                .speedup;
            if best.is_none_or(|(_, s)| speedup > s) {
                best = Some((id.name(), speedup));
            }
        }
        best
    } else {
        println!("Speedup gate skipped: pool has {threads} thread(s)");
        None
    };

    write_json(
        "BENCH_graph.json",
        args.smoke,
        scale,
        threads,
        identity_runs,
        &rows,
        gate,
    );
    println!("Wrote BENCH_graph.json");

    if let Some((model, speedup)) = gate {
        assert!(
            speedup >= SPEEDUP_GATE,
            "fused+waves speedup {speedup:.2}x on {model} (batch {GATE_BATCH}) below the {SPEEDUP_GATE}x gate"
        );
        println!("Gate: fused+waves {speedup:.2}x on {model} >= {SPEEDUP_GATE}x — ok");
    }
    println!("All checks passed.");
}
