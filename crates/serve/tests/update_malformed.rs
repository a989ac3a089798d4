//! Malformed live updates must be rejected typed — and a *well-formed*
//! rolling update must be invisible to traffic.
//!
//! The companion of `malformed.rs`: where that file poisons requests,
//! this one poisons the update path. An update batch naming an
//! unregistered table, an out-of-range row, a wrong-width value vector,
//! or a gapped version must bounce off
//! [`drec_serve::EmbeddingStore::apply_update`] with a typed
//! [`drec_store::StoreError`] before any row is touched, while the
//! serving runtime keeps answering. The clean-path test then streams a
//! full rolling update through a live runtime and checks the chaos
//! gate's core invariants in miniature: every response answered, the
//! staleness bound holds, and quiescence is bit-identical with the
//! pre-update oracle.

use std::time::Duration;

use drec_models::ModelId;
use drec_serve::{
    RowDelta, ServeConfig, ServeRuntime, StoreConfig, UpdateBatch, UpdateFault, UpdatePlan, Updater,
};
use drec_store::StoreError;
use drec_workload::QueryGen;

fn store_backed_cfg(model: ModelId) -> ServeConfig {
    let mut cfg = ServeConfig::tiny(model);
    cfg.workers = 2;
    cfg.store = Some(StoreConfig {
        cache_capacity_rows: 128,
        ..StoreConfig::default()
    });
    cfg
}

/// Same-seed generators produce the same batch: submit one and return
/// the response outputs as raw bits for exact comparison.
fn probe_bits(runtime: &ServeRuntime, seed: u64) -> Vec<Vec<u32>> {
    let handle = runtime.handle();
    let mut gen = QueryGen::uniform(seed);
    let response = handle
        .submit(gen.batch(runtime.spec(), 1))
        .expect("probe admits")
        .wait()
        .expect("probe answers");
    response
        .outputs
        .iter()
        .map(|v| {
            v.as_dense()
                .expect("dense output")
                .as_slice()
                .iter()
                .map(|f| f.to_bits())
                .collect()
        })
        .collect()
}

/// After whatever the update path did, the workers must all still
/// answer a burst of valid traffic.
fn assert_workers_alive(runtime: &ServeRuntime) {
    let handle = runtime.handle();
    let mut gen = QueryGen::uniform(17);
    let pending: Vec<_> = (0..8)
        .map(|_| handle.submit(gen.batch(runtime.spec(), 1)).unwrap())
        .collect();
    for p in pending {
        let response = p.wait().expect("workers survived the malformed update");
        assert_eq!(response.outputs.len(), 1);
    }
}

#[test]
fn malformed_update_batches_bounce_typed_and_touch_nothing() {
    let runtime = ServeRuntime::start(store_backed_cfg(ModelId::Rm1)).unwrap();
    let channel = runtime.update_channel();
    let store = channel.store().expect("store-backed runtime").clone();
    let ns = channel.namespace();
    assert!(
        !store.namespace_tables(ns).is_empty(),
        "model build must have registered its tables"
    );
    let oracle = probe_bits(&runtime, 41);

    let delta = |ordinal, row, values: Vec<f32>| RowDelta {
        ordinal,
        row,
        values,
    };
    let (ordinal0, rows0, dim0) = store.namespace_tables(ns)[0];

    // Unregistered ordinal.
    let err = store
        .apply_update(
            &UpdateBatch {
                namespace: ns,
                target_version: 1,
                deltas: vec![delta(9999, 0, vec![0.0; dim0])],
            },
            UpdateFault::None,
        )
        .unwrap_err();
    assert!(
        matches!(err, StoreError::TableNotRegistered { .. }),
        "{err}"
    );

    // Row outside the table.
    let err = store
        .apply_update(
            &UpdateBatch {
                namespace: ns,
                target_version: 1,
                deltas: vec![delta(ordinal0, rows0 as u32, vec![0.0; dim0])],
            },
            UpdateFault::None,
        )
        .unwrap_err();
    assert!(matches!(err, StoreError::RowOutOfRange { .. }), "{err}");

    // Wrong-width values.
    let err = store
        .apply_update(
            &UpdateBatch {
                namespace: ns,
                target_version: 1,
                deltas: vec![delta(ordinal0, 0, vec![0.0; dim0 + 1])],
            },
            UpdateFault::None,
        )
        .unwrap_err();
    assert!(matches!(err, StoreError::DataSizeMismatch { .. }), "{err}");

    // Version gap (v3 while the namespace sits at v0).
    let err = store
        .apply_update(
            &UpdateBatch {
                namespace: ns,
                target_version: 3,
                deltas: vec![delta(ordinal0, 0, vec![1.0; dim0])],
            },
            UpdateFault::None,
        )
        .unwrap_err();
    assert!(matches!(err, StoreError::VersionConflict { .. }), "{err}");

    // Nothing landed: version unchanged, outputs bit-identical, workers
    // alive.
    assert_eq!(store.namespace_version(ns), 0);
    assert_eq!(probe_bits(&runtime, 41), oracle);
    assert_workers_alive(&runtime);
    let stats = runtime.shutdown();
    assert_eq!(stats.worker_panics, 0);
}

#[test]
fn rolling_update_is_invisible_at_quiescence_and_bounded_in_flight() {
    let runtime = ServeRuntime::start(store_backed_cfg(ModelId::Wnd)).unwrap();
    let channel = runtime.update_channel().clone();
    let oracle = probe_bits(&runtime, 23);

    // Stream the rolling update from its own thread (the publish path
    // synchronizes the reclamation epoch — see the update module docs)
    // while this thread keeps traffic flowing.
    let updater_thread = {
        let channel = std::sync::Arc::clone(&channel);
        std::thread::spawn(move || {
            let mut updater = Updater::new(
                channel,
                UpdatePlan {
                    versions: 4,
                    rows_per_version: 8,
                    pace: Duration::from_millis(2),
                    seed: 0xD1CE,
                },
            );
            updater.run()
        })
    };
    let handle = runtime.handle();
    let mut gen = QueryGen::uniform(5);
    let mut answered = 0u64;
    while !updater_thread.is_finished() {
        let pending = handle
            .submit(gen.batch(runtime.spec(), 1))
            .expect("traffic admits during the rolling update");
        pending.wait().expect("every in-flight request answers");
        answered += 1;
    }
    let stats = updater_thread.join().unwrap().expect("updater succeeds");
    assert_eq!(stats.batches_applied, 4);
    assert!(answered > 0, "traffic must have overlapped the update");

    // Staleness bound: every batch served from version >= published - 1.
    assert!(
        channel.max_staleness() <= 1,
        "staleness {} exceeds the N-1 bound",
        channel.max_staleness()
    );
    assert_eq!(channel.current_version(), 4);

    // Quiescence: the final version restored the originals, so the
    // oracle probe is bit-identical.
    assert_eq!(
        probe_bits(&runtime, 23),
        oracle,
        "post-update outputs must be bit-identical with the pre-update oracle"
    );
    let stats = runtime.shutdown();
    assert_eq!(stats.worker_panics, 0);
    assert_eq!(
        stats.completed,
        answered + 2,
        "both probes plus the traffic"
    );
}
