//! Fault-tolerance integration tests: injected worker panics are caught
//! and the pool self-heals, expired requests get the typed deadline
//! error, priority classes shed bottom-first under pressure, and the
//! overload ladder's transitions are observable in metrics.

use std::time::Duration;

use drec_faultsim::FaultPlan;
use drec_models::ModelId;
use drec_serve::{OverloadLevel, Priority, ServeConfig, ServeError, ServeRuntime, SubmitOptions};
use drec_workload::QueryGen;

#[test]
fn injected_panics_are_survived_and_workers_restart() {
    let mut cfg = ServeConfig::tiny(ModelId::Ncf);
    cfg.workers = 2;
    cfg.max_batch = 2;
    cfg.faults = Some(FaultPlan {
        panic_every_n_batches: Some(4),
        ..FaultPlan::quiet(0xFA11)
    });
    let runtime = ServeRuntime::start(cfg).unwrap();
    let handle = runtime.handle();

    let mut gen = QueryGen::uniform(1);
    let mut answered = 0u64;
    for _ in 0..80 {
        let pending = handle.submit(gen.batch(handle.spec(), 1)).unwrap();
        match pending.wait_timeout(Duration::from_secs(30)) {
            Some(_) => answered += 1,
            None => panic!("request hung across an injected panic"),
        }
    }
    assert_eq!(answered, 80);

    let stats = runtime.shutdown();
    assert!(stats.worker_panics > 0, "schedule must fire: {stats:?}");
    assert!(
        stats.worker_restarts > 0,
        "supervisor must restart panicked workers: {stats:?}"
    );
    assert!(
        stats.retried > 0,
        "panicked batches re-enqueue their requests once: {stats:?}"
    );
}

#[test]
fn expired_requests_get_deadline_exceeded_without_executing() {
    let mut cfg = ServeConfig::tiny(ModelId::Ncf);
    cfg.workers = 1;
    // Park the queue long enough for a 1 ms deadline to lapse before any
    // worker drains the batch.
    cfg.max_wait = Duration::from_millis(200);
    cfg.max_batch = 64;
    let runtime = ServeRuntime::start(cfg).unwrap();
    let handle = runtime.handle();

    let mut gen = QueryGen::uniform(5);
    let doomed = handle
        .submit_with(
            gen.batch(handle.spec(), 1),
            SubmitOptions {
                deadline: Some(Duration::from_millis(1)),
                priority: Priority::Normal,
            },
        )
        .unwrap();
    let err = doomed.wait().unwrap_err();
    match err {
        ServeError::DeadlineExceeded { late_seconds } => {
            assert!(late_seconds >= 0.0);
        }
        other => panic!("expected DeadlineExceeded, got {other}"),
    }

    // An undeadlined co-traveller still executes normally.
    let ok = handle.submit(gen.batch(handle.spec(), 1)).unwrap();
    ok.wait().expect("fresh request executes");

    let stats = runtime.shutdown();
    assert_eq!(stats.deadline_exceeded, 1);
    assert_eq!(stats.completed, 1);
}

#[test]
fn a_deadline_past_what_an_instant_holds_is_no_deadline() {
    let runtime = ServeRuntime::start(ServeConfig::tiny(ModelId::Ncf)).unwrap();
    let handle = runtime.handle();
    let mut gen = QueryGen::uniform(6);
    let pending = handle
        .submit_with(
            gen.batch(handle.spec(), 1),
            SubmitOptions {
                deadline: Some(Duration::MAX),
                priority: Priority::Normal,
            },
        )
        .expect("admitted, not a panic in the caller's thread");
    pending
        .wait()
        .expect("a deadline that can never pass is answered");
    let stats = runtime.shutdown();
    assert_eq!((stats.completed, stats.deadline_exceeded), (1, 0));
}

#[test]
fn high_priority_arrivals_evict_low_priority_queued_work() {
    let mut cfg = ServeConfig::tiny(ModelId::Ncf);
    cfg.workers = 1;
    // A batch cap above the queue capacity even once the overload ladder
    // halves it: the queue can never fill a batch, so it only coalesces
    // for the long `max_wait` — it stays full between the refused
    // low-priority probe and the high-priority arrival instead of being
    // released by the worker in that window.
    cfg.max_batch = 8;
    cfg.queue_capacity = 2;
    cfg.max_wait = Duration::from_millis(500);
    let runtime = ServeRuntime::start(cfg).unwrap();
    let handle = runtime.handle();

    let mut gen = QueryGen::uniform(7);
    // Fill the queue (plus whatever the worker already grabbed) with
    // low-priority work until one arrival is refused.
    let mut low = Vec::new();
    let refused_low = loop {
        match handle.submit_with(
            gen.batch(handle.spec(), 1),
            SubmitOptions {
                deadline: None,
                priority: Priority::Low,
            },
        ) {
            Ok(pending) => low.push(pending),
            Err(err) => break err,
        }
    };
    assert!(matches!(refused_low, ServeError::Overloaded { .. }));

    // A high-priority arrival is admitted by evicting a queued
    // low-priority request, which sees Overloaded on its own channel.
    let high = handle
        .submit_with(
            gen.batch(handle.spec(), 1),
            SubmitOptions {
                deadline: None,
                priority: Priority::High,
            },
        )
        .expect("high priority displaces low");
    let mut evicted = 0;
    let mut served_low = 0;
    for pending in low {
        match pending.wait_timeout(Duration::from_secs(30)) {
            Some(Ok(_)) => served_low += 1,
            Some(Err(ServeError::Overloaded { .. })) => evicted += 1,
            Some(Err(other)) => panic!("unexpected error for low-priority request: {other}"),
            None => panic!("low-priority request hung"),
        }
    }
    assert_eq!(evicted, 1, "exactly one queued request was displaced");
    assert!(served_low >= 1);
    high.wait_timeout(Duration::from_secs(30))
        .expect("high-priority request must not hang")
        .expect("high-priority request completes");

    runtime.shutdown();
}

#[test]
fn overload_ladder_transitions_are_recorded_and_recovered() {
    let mut cfg = ServeConfig::tiny(ModelId::Ncf);
    cfg.workers = 1;
    cfg.max_batch = 8;
    cfg.queue_capacity = 10;
    // Stall batch formation so submissions stack the queue, and set the
    // ladder thresholds low enough (depth 1 and 2) that a burst of 10
    // reliably crosses both even while the worker drains concurrently.
    cfg.max_wait = Duration::from_millis(300);
    cfg.degrade = drec_serve::DegradeConfig {
        update_backpressure_at: 0.05,
        reduce_batch_at: 0.1,
        cache_only_at: 0.2,
        exit_hysteresis: 0.5,
        min_batch: 1,
    };
    let runtime = ServeRuntime::start(cfg).unwrap();
    let handle = runtime.handle();

    let mut gen = QueryGen::uniform(13);
    let mut pendings = Vec::new();
    for _ in 0..10 {
        if let Ok(p) = handle.submit(gen.batch(handle.spec(), 1)) {
            pendings.push(p);
        }
    }
    let mid = handle.snapshot();
    assert!(
        mid.entered_reduced_batch >= 1 && mid.entered_cache_only >= 1,
        "a queue at capacity must climb the full ladder: {mid:?}"
    );

    for pending in pendings {
        pending
            .wait_timeout(Duration::from_secs(30))
            .expect("queued request answered")
            .expect("queued request completes");
    }
    // Recovery needs fresh admissions at low depth to observe the drain.
    for _ in 0..3 {
        if let Ok(p) = handle.submit(gen.batch(handle.spec(), 1)) {
            p.wait_timeout(Duration::from_secs(30))
                .expect("answered")
                .expect("completes");
        }
    }
    let stats = runtime.shutdown();
    assert_eq!(stats.overload_level, OverloadLevel::Normal);
    assert!(
        stats.recovered_cache_only >= 1 && stats.recovered_reduced_batch >= 1,
        "ladder must step back down once the queue drains: {stats:?}"
    );
}
