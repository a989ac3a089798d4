//! Drain-on-shutdown guarantee: every request accepted before
//! `shutdown()` receives a `Response` or a typed `ServeError` — never a
//! hang, never a silent drop — including under concurrent submission and
//! under injected worker panics during the drain itself.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use drec_faultsim::FaultPlan;
use drec_models::ModelId;
use drec_serve::{ServeConfig, ServeRuntime};
use drec_workload::QueryGen;

/// Every pending must resolve within `timeout` — the drain guarantee is
/// about *answers*, typed errors included.
fn assert_all_answered(
    pendings: Vec<drec_serve::PendingResponse>,
    timeout: Duration,
) -> (u64, u64) {
    let mut ok = 0u64;
    let mut err = 0u64;
    for pending in pendings {
        match pending.wait_timeout(timeout) {
            Some(Ok(_)) => ok += 1,
            Some(Err(_)) => err += 1,
            None => panic!("accepted request hung past {timeout:?} after shutdown"),
        }
    }
    (ok, err)
}

#[test]
fn shutdown_answers_every_accepted_request() {
    let mut cfg = ServeConfig::tiny(ModelId::Ncf);
    cfg.workers = 2;
    // A far-future coalesce wait parks queued requests; shutdown must
    // release and answer them, not strand them.
    cfg.max_wait = Duration::from_secs(60);
    cfg.max_batch = 64;
    let runtime = ServeRuntime::start(cfg).unwrap();
    let handle = runtime.handle();

    let accepted = Arc::new(AtomicU64::new(0));
    let producers: Vec<_> = (0..4)
        .map(|p| {
            let handle = handle.clone();
            let accepted = Arc::clone(&accepted);
            std::thread::spawn(move || {
                let mut gen = QueryGen::uniform(p);
                let mut pendings = Vec::new();
                for _ in 0..25 {
                    if let Ok(pending) = handle.submit(gen.batch(handle.spec(), 1)) {
                        accepted.fetch_add(1, Ordering::Relaxed);
                        pendings.push(pending);
                    }
                }
                pendings
            })
        })
        .collect();
    let pendings: Vec<_> = producers
        .into_iter()
        .flat_map(|p| p.join().unwrap())
        .collect();

    let stats = runtime.shutdown();
    let total = accepted.load(Ordering::Relaxed);
    assert_eq!(pendings.len() as u64, total);
    let (ok, err) = assert_all_answered(pendings, Duration::from_secs(30));
    assert_eq!(ok + err, total, "every accepted request answered");
    assert_eq!(err, 0, "no faults injected, so every answer is a Response");
    assert_eq!(stats.completed, total);
}

#[test]
fn shutdown_answers_every_accepted_request_even_with_panics_in_flight() {
    let mut cfg = ServeConfig::tiny(ModelId::Ncf);
    cfg.workers = 2;
    cfg.max_batch = 4;
    // Panic every 3rd batch: the drain itself crosses several injected
    // panics and supervisor restarts.
    cfg.faults = Some(FaultPlan {
        panic_every_n_batches: Some(3),
        ..FaultPlan::quiet(0xD5A1)
    });
    let runtime = ServeRuntime::start(cfg).unwrap();
    let handle = runtime.handle();

    let mut gen = QueryGen::uniform(9);
    let pendings: Vec<_> = (0..60)
        .map(|_| handle.submit(gen.batch(handle.spec(), 1)).unwrap())
        .collect();

    let stats = runtime.shutdown();
    let (ok, err) = assert_all_answered(pendings, Duration::from_secs(30));
    assert_eq!(ok + err, 60, "every accepted request answered");
    assert!(
        stats.worker_panics > 0,
        "the schedule must actually fire: {stats:?}"
    );
    assert_eq!(
        stats.worker_panics as usize,
        stats.panic_reasons.len(),
        "every panic leaves its reason in the final metrics"
    );
    for reason in &stats.panic_reasons {
        assert!(
            reason.contains("faultsim"),
            "panic reason should carry the injected message, got: {reason}"
        );
    }
}
