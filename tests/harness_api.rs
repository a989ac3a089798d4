//! Cross-crate API integration tests at `Tiny` scale: the serving, energy,
//! summary, and parallel-sweep extensions working together.

use deeprec::core::fleet::{simulate_fleet, DispatchPolicy, Engine, FleetSimConfig};
use deeprec::core::serving::{best_server, serving_points, LatencyCurve};
use deeprec::core::sweep::sweep;
use deeprec::core::{CharacterizeOptions, Characterizer};
use deeprec::hwsim::{energy, Platform, PlatformReport};
use deeprec::models::{ModelId, ModelScale};
use deeprec::serve::{ServeConfig, ServeRuntime};
use deeprec::trace::KernelClass;
use deeprec::workload::QueryGen;

#[test]
fn serving_analysis_over_a_real_sweep() {
    let result = sweep(
        &[ModelId::Rm1],
        &[1, 16, 256],
        &Platform::all(),
        ModelScale::Tiny,
        CharacterizeOptions::fast(),
    )
    .expect("sweep");
    // A generous SLA admits every platform at the largest batch.
    let generous = serving_points(&result, ModelId::Rm1, 10.0);
    assert_eq!(generous.len(), 4);
    assert!(generous.iter().all(|p| p.batch == Some(256)));
    // Throughput ordering is well-defined.
    let best = best_server(&result, ModelId::Rm1, 10.0).expect("some platform qualifies");
    assert!(generous.iter().all(|p| p.qps <= best.qps));
    // An impossible SLA admits nobody.
    assert!(best_server(&result, ModelId::Rm1, 1e-12).is_none());
}

#[test]
fn serving_runtime_executes_sweep_backed_traffic() {
    // The modelled curve from a real sweep prices the runtime's admission
    // control, closing the loop between analytics and execution.
    let result = sweep(
        &[ModelId::Rm1],
        &[1, 16, 256],
        &Platform::all(),
        ModelScale::Tiny,
        CharacterizeOptions::fast(),
    )
    .expect("sweep");
    let curve = LatencyCurve::from_sweep(&result, ModelId::Rm1, "Cascade Lake").expect("curve");
    let mut cfg = ServeConfig::tiny(ModelId::Rm1);
    cfg.curve = curve;
    let runtime = ServeRuntime::start(cfg).expect("runtime starts");
    let handle = runtime.handle();
    let mut gen = QueryGen::uniform(3);
    let pendings: Vec<_> = (0..20)
        .map(|_| {
            handle
                .submit(gen.batch(runtime.spec(), 1))
                .expect("admitted")
        })
        .collect();
    for pending in pendings {
        let response = pending.wait().expect("answered");
        assert!(response.modelled_seconds > 0.0);
        assert!(response.wall_seconds > 0.0);
    }
    let stats = runtime.shutdown();
    assert_eq!(stats.completed, 20);
    assert_eq!(stats.shed, 0);
}

#[test]
fn fleet_scheduler_runs_on_real_latency_curves() {
    let result = sweep(
        &[ModelId::Ncf],
        &[1, 16, 256],
        &Platform::all(),
        ModelScale::Tiny,
        CharacterizeOptions::fast(),
    )
    .expect("sweep");
    let engines: Vec<Engine> = ["Cascade Lake", "T4"]
        .iter()
        .map(|p| Engine {
            name: p.to_string(),
            curve: LatencyCurve::from_sweep(&result, ModelId::Ncf, p).expect("curve"),
            max_batch: 256,
        })
        .collect();
    let stats = simulate_fleet(
        &engines,
        FleetSimConfig {
            arrival_qps: 10_000.0,
            queries: 20_000,
            seed: 9,
            policy: DispatchPolicy::FastestCompletion,
        },
    );
    assert!(stats.throughput_qps > 0.0);
    assert!(stats.p99 >= stats.mean_latency * 0.5);
    assert_eq!(stats.per_engine_queries.iter().sum::<usize>(), 20_000);
}

#[test]
fn energy_ranks_follow_tdp_and_latency() {
    let characterizer = Characterizer::new(CharacterizeOptions::fast());
    let mut model = ModelId::Wnd.build(ModelScale::Tiny, 7).expect("build");
    let trace = characterizer.trace(&mut model, 64).expect("trace");
    let mut per_platform = Vec::new();
    for platform in Platform::all() {
        let report = characterizer.report_from_trace("WnD", &trace, &platform);
        let plain = PlatformReport {
            platform: report.platform.clone(),
            seconds: report.latency_seconds,
            cpu: None,
            gpu: None,
        };
        per_platform.push((platform.name(), energy(&platform, &plain, 64)));
    }
    for (name, e) in &per_platform {
        assert!(e.joules > 0.0, "{name}");
        assert!(e.inferences_per_joule > 0.0, "{name}");
    }
    // Between the two CPUs, faster Cascade Lake with ~equal TDP must be
    // more efficient.
    let bdw = per_platform.iter().find(|p| p.0 == "Broadwell").unwrap().1;
    let clx = per_platform
        .iter()
        .find(|p| p.0 == "Cascade Lake")
        .unwrap()
        .1;
    assert!(clx.inferences_per_joule > bdw.inferences_per_joule);
}

#[test]
fn run_summary_reflects_model_structure() {
    let characterizer = Characterizer::new(CharacterizeOptions::fast());
    let mut dien = ModelId::Dien.build(ModelScale::Tiny, 7).expect("build");
    let trace = characterizer.trace(&mut dien, 4).expect("trace");
    let summary = trace.summary();
    assert!(summary.class(KernelClass::Recurrent).ops >= 2);
    assert!(summary.class(KernelClass::Gather).gather_bytes > 0.0);
    assert_eq!(
        summary.dominant_compute_class(),
        Some(KernelClass::Recurrent),
        "{summary}"
    );

    let mut rm3 = ModelId::Rm3.build(ModelScale::Tiny, 7).expect("build");
    let trace = characterizer.trace(&mut rm3, 4).expect("trace");
    assert_eq!(
        trace.summary().dominant_compute_class(),
        Some(KernelClass::DenseMatmul)
    );
}

#[test]
fn cpu_simulation_is_deterministic() {
    let characterizer = Characterizer::new(CharacterizeOptions::fast());
    let mut model = ModelId::Rm1.build(ModelScale::Tiny, 7).expect("build");
    let trace = characterizer.trace(&mut model, 8).expect("trace");
    let a = characterizer.report_from_trace("RM1", &trace, &Platform::broadwell());
    let b = characterizer.report_from_trace("RM1", &trace, &Platform::broadwell());
    assert_eq!(a.latency_seconds, b.latency_seconds);
    assert_eq!(a.cpu.unwrap().topdown, b.cpu.unwrap().topdown);
}

#[test]
fn custom_platform_variants_evaluate() {
    // Users can define hypothetical hardware (the paper's conclusion).
    let mut tuned = deeprec::hwsim::CpuModel::cascade_lake();
    tuned.name = "Custom";
    tuned.ports.load_ports = 4;
    tuned.ports.gather_load_cycles = 1.0;
    tuned.mlp_gather = 24.0;
    let characterizer = Characterizer::new(CharacterizeOptions::fast());
    let mut model = ModelId::Rm2.build(ModelScale::Tiny, 7).expect("build");
    let trace = characterizer.trace(&mut model, 16).expect("trace");
    let stock = characterizer.report_from_trace("RM2", &trace, &Platform::cascade_lake());
    let custom = characterizer.report_from_trace("RM2", &trace, &Platform::Cpu(tuned));
    assert_eq!(custom.platform, "Custom");
    assert!(custom.latency_seconds <= stock.latency_seconds);
}
