//! Serving: run real requests through the concurrent runtime.
//!
//! ```text
//! cargo run --release --example serving
//! ```
//!
//! Starts a two-worker `drec-serve` runtime for RM1, submits a burst of
//! requests from four producer threads, and prints the live metrics the
//! runtime collected — coalesced batch sizes, end-to-end tails, and
//! per-worker utilization. It asserts that every request was admitted,
//! answered and counted once.

use std::time::Duration;

use deeprec::core::serving::LatencyCurve;
use deeprec::models::{ModelId, ModelScale};
use deeprec::serve::{ServeConfig, ServeRuntime};
use deeprec::workload::QueryGen;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let runtime = ServeRuntime::start(ServeConfig {
        model: ModelId::Rm1,
        scale: ModelScale::Tiny,
        seed: 42,
        workers: 2,
        max_batch: 32,
        // Let the oldest queued request wait up to 2 ms for co-travellers.
        max_wait: Duration::from_millis(2),
        queue_capacity: 4_096,
        delay_budget: Duration::from_millis(50),
        curve: LatencyCurve::from_points(vec![(1, 1e-4), (1024, 1e-2)]),
        store: None,
        degrade: deeprec::serve::DegradeConfig::default(),
        supervisor: deeprec::serve::SupervisorConfig::default(),
        faults: None,
    })?;

    // Four concurrent producers, 100 queries each.
    let producers: Vec<_> = (0..4)
        .map(|p| {
            let handle = runtime.handle();
            std::thread::spawn(move || {
                let mut gen = QueryGen::uniform(p);
                let mut served = 0u32;
                for _ in 0..100 {
                    let pending = handle
                        .submit(gen.batch(handle.spec(), 1))
                        .expect("queue has headroom");
                    let response = pending.wait().expect("worker answers");
                    assert_eq!(response.outputs[0].as_dense().unwrap().dims()[0], 1);
                    served += 1;
                }
                served
            })
        })
        .collect();
    let served: u32 = producers.into_iter().map(|p| p.join().unwrap()).sum();

    let stats = runtime.shutdown();
    // Every request was admitted and answered, and counted once: on the
    // runtime's one lane, whose figures are the pool's.
    let served = u64::from(served);
    assert_eq!((stats.accepted, stats.completed), (served, served));
    let [lane] = stats.models.as_slice() else {
        panic!("a one-model runtime has one lane: {stats:?}");
    };
    assert_eq!(lane.completed, stats.completed);
    println!("served {served} requests; runtime metrics:");
    println!("  accepted {}, shed {}", stats.accepted, stats.shed);
    println!(
        "  batches {}, mean coalesced batch {:.1}",
        stats.batches, stats.mean_batch
    );
    println!(
        "  latency p50 {:.2} ms / p95 {:.2} ms / p99 {:.2} ms",
        stats.p50_seconds * 1e3,
        stats.p95_seconds * 1e3,
        stats.p99_seconds * 1e3
    );
    for (i, util) in stats.worker_utilization.iter().enumerate() {
        println!("  worker {i} utilization {:.0}%", util * 100.0);
    }
    Ok(())
}
