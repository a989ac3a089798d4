//! Start is one pass: every lane's model is built once, in lane order,
//! calibrated on the start crew while later lanes build, and then served
//! by the lane's first engine. None of that may be visible: profiles,
//! table slots, the store's contents and the first responses are those of
//! the serial path, on every start, however the crew's threads interleave.

use std::sync::Arc;
use std::time::Duration;

use drec_models::{store_namespace, ModelId, RecModel};
use drec_sched::{ModelProfile, ModelSlo, MultiServeRuntime, SchedConfig};
use drec_serve::{
    DegradeConfig, EmbeddingStore, FaultHook, FaultPlan, Inline, LanePool, LaneSpec, PoolConfig,
    RowEncoding, ServeConfig, ServeRuntime, StoreConfig, SubmitOptions, SupervisorConfig,
};
use drec_store::TierConfig;
use drec_workload::QueryGen;

fn tiered_int8() -> StoreConfig {
    StoreConfig {
        encoding: RowEncoding::Int8,
        cache_capacity_rows: 64,
        tier: Some(TierConfig {
            prefetch: false,
            ..TierConfig::new(256)
        }),
        ..StoreConfig::default()
    }
}

fn eight_models() -> SchedConfig {
    let slo = Duration::from_millis(50);
    let models = ModelId::ALL.iter().map(|&id| ModelSlo::new(id, slo));
    let mut cfg = SchedConfig::tiny(models.collect());
    cfg.cpu_workers = 2;
    cfg.tuner = None;
    cfg.store = Some(tiered_int8());
    cfg
}

/// The serial path: each model built against `store` in lane order and
/// calibrated before the next is built.
fn serial(cfg: &SchedConfig, store: &Arc<EmbeddingStore>) -> Vec<(RecModel, ModelProfile)> {
    let profile_cfg = cfg.profile_config();
    let models = cfg.models.iter().map(|slo| {
        let built = slo
            .id
            .build_with_store(cfg.scale, cfg.seed, Arc::clone(store));
        let mut model = built.expect("model builds");
        let profile = ModelProfile::calibrate(&mut model, &profile_cfg);
        (model, profile)
    });
    models.collect()
}

fn bits(outputs: &[drec_ops::Value]) -> Vec<Vec<u32>> {
    let dense = outputs.iter().map(|v| v.as_dense().expect("dense output"));
    dense
        .map(|t| t.as_slice().iter().map(|f| f.to_bits()).collect())
        .collect()
}

#[test]
fn twenty_starts_equal_the_serial_path() {
    let cfg = eight_models();
    let reference_store = Arc::new(EmbeddingStore::new(tiered_int8()));
    let reference = serial(&cfg, &reference_store);
    let tables: usize = reference.iter().map(|(m, _)| m.meta().num_tables).sum();
    assert_eq!(reference_store.stats().tables, tables);

    // Each model's first response from a one-lane runtime of its own.
    let first_inputs = |id: ModelId, spec: &drec_models::InputSpec| {
        QueryGen::zipf(0xF125 + id as u64, 1.0).batch(spec, 1)
    };
    let first_alone: Vec<_> = ModelId::ALL
        .iter()
        .map(|&id| {
            let mut single = ServeConfig::tiny(id);
            single.workers = 1;
            single.store = Some(tiered_int8());
            assert_eq!((single.scale, single.seed), (cfg.scale, cfg.seed));
            let runtime = ServeRuntime::start(single).expect("single runtime starts");
            let inputs = first_inputs(id, runtime.spec());
            let response = runtime.handle().submit(inputs).unwrap().wait().unwrap();
            bits(&response.outputs)
        })
        .collect();

    for start in 0..20 {
        let runtime = MultiServeRuntime::start(cfg.clone()).expect("runtime starts");
        let store = runtime.store().expect("store-backed");
        assert_eq!(
            store.stats().tables,
            tables,
            "start {start}: a table registered twice"
        );
        for (lane, ((model, profile), alone)) in reference.iter().zip(&first_alone).enumerate() {
            let id = model.id();
            let got = runtime.profile(id).expect("co-located");
            assert_eq!(
                (&got.cpu_curve, got.crossover),
                (&profile.cpu_curve, profile.crossover),
                "start {start}: {id} calibrated differently on the crew"
            );
            for batch in 1..=cfg.max_batch {
                assert_eq!(
                    got.modelled_seconds(got.backend_for(batch), batch)
                        .to_bits(),
                    profile
                        .modelled_seconds(profile.backend_for(batch), batch)
                        .to_bits(),
                    "start {start}: {id} priced differently at batch {batch}"
                );
            }
            let namespace = store_namespace(id, cfg.scale, cfg.seed);
            for ordinal in 0..model.meta().num_tables as u32 {
                assert_eq!(
                    store.lookup(namespace, ordinal),
                    reference_store.lookup(namespace, ordinal),
                    "start {start}: lane {lane} ({id}) table {ordinal} is in another slot"
                );
            }
            let inputs = first_inputs(id, runtime.spec(id).expect("co-located"));
            let response = runtime.handle().submit(id, inputs).unwrap().wait().unwrap();
            assert_eq!(
                &bits(&response.outputs),
                alone,
                "start {start}: {id} answers its first request differently"
            );
        }
        runtime.shutdown();
    }
}

/// A pool started on models it was handed still replaces a panicked
/// engine by building one: handed models are worker 0's first engines,
/// not the only way a lane gets an engine.
#[test]
fn a_pool_started_on_handed_models_rebuilds_engines_after_panics() {
    let cfg = eight_models();
    let store = Arc::new(EmbeddingStore::new(tiered_int8()));
    let lanes: Vec<LaneSpec> = serial(&cfg, &store)
        .into_iter()
        .map(|(model, profile)| LaneSpec {
            model: model.id(),
            curve: profile.cpu_curve,
            built: Some(model),
        })
        .collect();
    let supervisor = SupervisorConfig {
        max_restarts: 3,
        backoff: Duration::from_millis(1),
        ..SupervisorConfig::default()
    };
    let mut pool = LanePool::start(PoolConfig {
        lanes,
        scale: cfg.scale,
        seed: cfg.seed,
        workers: 2,
        worker_name: "start-once-worker",
        extra_workers: 0,
        max_batch: 4,
        max_wait: Duration::ZERO,
        queue_capacity: 1024,
        delay_budget: Duration::from_secs(60),
        degrade: DegradeConfig::default(),
        store: Some(Arc::clone(&store)),
        par_pool: drec_par::current(),
        supervisor,
        faults: FaultHook::from_plan(&FaultPlan {
            panic_every_n_batches: Some(5),
            ..FaultPlan::quiet(0x57A27)
        }),
        placement: Arc::new(Inline),
    })
    .expect("pool starts");
    let tables = store.stats().tables;
    let handle = pool.handle();
    // One request at a time until the budget is spent and the last worker
    // closes the lanes; whatever was admitted must be answered.
    'drive: for round in 0..12 {
        for lane in 0..cfg.models.len() {
            let mut gen = QueryGen::uniform(round * 8 + lane as u64);
            let inputs = gen.batch(&handle.lanes[lane].spec, 1);
            let Ok(pending) = handle.submit(lane, inputs, SubmitOptions::default()) else {
                break 'drive;
            };
            let answer = pending.wait_timeout(Duration::from_secs(30));
            assert!(answer.is_some(), "request hung across an injected panic");
        }
    }
    pool.join_workers();
    pool.drain_lanes();
    let stats = pool.metrics.snapshot();
    assert_eq!(
        stats.worker_restarts,
        u64::from(supervisor.max_restarts),
        "every restart the budget allows rebuilt an engine: {stats:?}"
    );
    assert!(stats.completed > 0, "{stats:?}");
    assert_eq!(
        store.stats().tables,
        tables,
        "a rebuilt engine registered a table again"
    );
}
