//! A co-located pool under injected panics, started through the one
//! runtime: `Colocation::calibrate` builds the placement and its pool,
//! the caller sets a fault plan and a supervisor on that pool, and
//! `ServeRuntime::start_pool` serves it. Every admitted request is
//! answered or fails typed within a bound, every panic within the budget
//! is one restart, the accelerator worker answers some requests, and
//! every answer carries the bits of its sample run alone. When the CPU
//! worker dies, the accelerator, left alone, serves every lane. A plan
//! that schedules store read faults is refused: the shared store is
//! built without a fault hook, so they would never fire.

use std::time::Duration;

use drec_hwsim::GpuModel;
use drec_models::ModelId;
use drec_sched::{Colocation, GpuSchedConfig, ModelSlo, SchedConfig};
use drec_serve::{FaultHook, FaultPlan, ServeError, ServeRuntime, StoreConfig, SupervisorConfig};
use drec_workload::QueryGen;

const MODELS: [ModelId; 3] = [ModelId::Ncf, ModelId::Rm1, ModelId::Wnd];
const ANSWER_BOUND: Duration = Duration::from_secs(30);
/// Bursts of `MAX_BATCH` per lane, until the accelerator has answered.
const MAX_BURSTS: usize = 200;
const MAX_BATCH: usize = 16;

/// A T4 on the package: launch and transfer costs small enough that
/// Tiny models cross over inside `MAX_BATCH`.
fn integrated_t4() -> GpuSchedConfig {
    let mut gpu = GpuModel::t4();
    gpu.name = "T4-integrated";
    gpu.launch_overhead_s = 0.5e-6;
    gpu.min_kernel_s = 0.3e-6;
    gpu.pcie_latency_s = 0.5e-6;
    gpu.pcie_bw = 200.0e9;
    GpuSchedConfig {
        gpu,
        pcie_extra_s: 2.0e-6,
    }
}

fn bits(outputs: &[drec_ops::Value]) -> Vec<Vec<u32>> {
    let dense = outputs.iter().map(|v| v.as_dense().unwrap().as_slice());
    dense
        .map(|row| row.iter().map(|x| x.to_bits()).collect())
        .collect()
}

#[test]
fn a_colocated_pool_survives_injected_panics_through_the_one_runtime() {
    let slos = MODELS.map(|id| ModelSlo::new(id, Duration::from_millis(50)));
    let mut cfg = SchedConfig::tiny(slos.into());
    cfg.max_batch = MAX_BATCH;
    // A far coalescing deadline: a lane releases full batches only, so
    // the accelerator may take each burst as well as a CPU worker.
    cfg.max_wait = Duration::from_secs(60);
    cfg.gpu = Some(integrated_t4());
    let accelerator = cfg.cpu_workers;

    let (colo, mut pool) = Colocation::calibrate(&cfg).expect("models build");
    let crossovers = MODELS.map(|id| colo.profile(id).expect("co-located").crossover);
    assert!(
        crossovers.iter().any(|b| b.is_some_and(|b| b <= MAX_BATCH)),
        "no lane crosses over inside a batch of {MAX_BATCH}: {crossovers:?}"
    );
    let supervisor = SupervisorConfig {
        max_restarts: 1_000,
        backoff: Duration::from_micros(100),
        backoff_cap: Duration::from_millis(1),
    };
    pool.supervisor = supervisor;
    pool.faults = FaultHook::from_plan(&FaultPlan {
        panic_every_n_batches: Some(3),
        ..FaultPlan::quiet(0xC0_1A7E)
    });
    let runtime = ServeRuntime::start_pool(pool).expect("pool starts");
    let handles = runtime.handles();
    assert_eq!(
        handles.iter().map(|h| h.model()).collect::<Vec<_>>(),
        MODELS,
        "one handle per lane, in lane order"
    );

    let mut gens = MODELS.map(|id| QueryGen::zipf(0xFA17 ^ id as u64, 0.9));
    let mut answered = Vec::new();
    let (mut failed, mut on_accelerator) = (0, 0);
    for burst in 0..MAX_BURSTS {
        let mut pending = Vec::new();
        for (lane, handle) in handles.iter().enumerate() {
            for _ in 0..MAX_BATCH {
                let inputs = gens[lane].batch(handle.spec(), 1);
                let admitted = handle.submit(inputs.clone()).expect("admitted");
                pending.push((lane, inputs, admitted));
            }
        }
        for (lane, inputs, p) in pending {
            match p.wait_timeout(ANSWER_BOUND) {
                Some(Ok(response)) => {
                    on_accelerator += usize::from(response.worker == accelerator);
                    answered.push((lane, inputs, response.outputs));
                }
                Some(Err(ServeError::WorkerFailed { .. })) => failed += 1,
                Some(Err(other)) => panic!("burst {burst}: untyped failure {other}"),
                None => panic!("burst {burst}: a request hung across an injected panic"),
            }
        }
        if on_accelerator > 0 && burst >= 9 {
            break;
        }
    }
    let stats = runtime.shutdown();

    assert!(stats.worker_panics > 0, "the schedule must fire: {stats:?}");
    assert!(
        stats.worker_panics < u64::from(supervisor.max_restarts),
        "the budget ran out: {stats:?}"
    );
    assert_eq!(
        stats.worker_restarts, stats.worker_panics,
        "every panic inside the budget is one restart: {stats:?}"
    );
    assert_eq!(stats.failed, failed, "{stats:?}");
    assert_eq!(stats.completed, answered.len() as u64, "{stats:?}");
    assert!(
        on_accelerator > 0,
        "the accelerator (worker {accelerator}) answered nothing in {} requests",
        answered.len()
    );

    let mut standalone = MODELS.map(|id| {
        let mut model = id.build(cfg.scale, cfg.seed).expect("model builds");
        model.compile_plan();
        model
    });
    for (i, (lane, inputs, outputs)) in answered.into_iter().enumerate() {
        let alone = standalone[lane].run(inputs).expect("runs alone");
        assert_eq!(
            bits(&outputs),
            bits(&alone),
            "request {i} ({})",
            MODELS[lane]
        );
    }
}

/// The pool's last live worker drops its size rule: when the one CPU
/// worker dies, the accelerator, left alone, serves every lane, those
/// without a crossover included.
#[test]
fn the_accelerator_left_alone_serves_every_lane() {
    let slos = MODELS.map(|id| ModelSlo::new(id, Duration::from_millis(50)));
    let mut cfg = SchedConfig::tiny(slos.into());
    cfg.cpu_workers = 1;
    cfg.gpu = Some(integrated_t4());
    let accelerator = cfg.cpu_workers;

    let (colo, mut pool) = Colocation::calibrate(&cfg).expect("models build");
    assert_eq!(
        colo.profile(ModelId::Ncf).expect("co-located").crossover,
        None,
        "NCF's first batch must be the CPU worker's"
    );
    // Seed 109 puts the one panic of every thousand batches on the
    // first: the CPU worker's, with no restart to claim, so it exits.
    pool.supervisor = SupervisorConfig {
        max_restarts: 0,
        ..SupervisorConfig::default()
    };
    pool.faults = FaultHook::from_plan(&FaultPlan {
        panic_every_n_batches: Some(1_000),
        ..FaultPlan::quiet(109)
    });
    let runtime = ServeRuntime::start_pool(pool).expect("pool starts");
    let handles = runtime.handles();

    let mut standalone = MODELS.map(|id| {
        let mut model = id.build(cfg.scale, cfg.seed).expect("model builds");
        model.compile_plan();
        model
    });
    // NCF first, then every lane, one request at a time.
    let order = std::iter::once(0).chain(0..MODELS.len());
    for (i, lane) in order.enumerate() {
        let inputs = QueryGen::uniform(i as u64).batch(handles[lane].spec(), 1);
        let pending = handles[lane].submit(inputs.clone()).expect("admitted");
        let response = pending.wait_timeout(ANSWER_BOUND);
        let response = response.expect("hung").expect("answered");
        assert_eq!(response.worker, accelerator, "request {i}");
        let alone = standalone[lane].run(inputs).expect("runs alone");
        assert_eq!(bits(&response.outputs), bits(&alone), "request {i}");
    }
    let stats = runtime.shutdown();
    assert_eq!((stats.worker_panics, stats.worker_restarts), (1, 0));
    assert_eq!((stats.retried, stats.failed), (1, 0), "{stats:?}");
}

/// Calibration reads through the shared store, so it is built with no
/// fault hook, and a co-located pool cannot carry a read fault: a plan
/// scheduling one is refused at start instead of injecting nothing.
#[test]
#[should_panic(expected = "store read faults")]
fn a_read_fault_plan_on_a_colocated_store_is_refused() {
    let slos = MODELS.map(|id| ModelSlo::new(id, Duration::from_millis(50)));
    let mut cfg = SchedConfig::tiny(slos.into());
    cfg.store = Some(StoreConfig::default());
    let (_, mut pool) = Colocation::calibrate(&cfg).expect("models build");
    pool.faults = FaultHook::from_plan(&FaultPlan {
        poison_every_n_reads: Some(1),
        ..FaultPlan::quiet(0x5EAD)
    });
    let _ = ServeRuntime::start_pool(pool);
}
