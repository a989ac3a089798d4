//! The batcher queue's hand-off cost under contention, and the
//! false-sharing experiment behind `CachePadded`. Reports as
//! `BENCH_queue.json` (shape in the `drec_bench` crate docs).
//!
//! Flags:
//!
//! * `--smoke` — small op counts, CI mode.
//!
//! Gate:
//!
//! * `every_request_delivered_once` — at each thread point of the
//!   contention sweep, every rep drained exactly the requests it pushed.
//!
//! Also reported (informational, no gate): enqueue+dequeue throughput at
//! 1 / 2 / 4 / 8 threads (there is one queue, so nothing to hold it
//! against; EXPERIMENTS "PR 24" has the sweep of the lock-free ring it
//! replaced), and the false-sharing experiment behind the `CachePadded`
//! counters in `MetricsRegistry` and the store — adjacent plain
//! `AtomicU64`s hammered from several threads vs. one-per-cache-line
//! counters.

use drec_bench::report::{Gate, Report};
use drec_bench::row;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use drec_serve::{
    BatchPoll, BatcherConfig, DegradeConfig, OverloadLadder, Priority, Request, SharedQueue,
    SubmitOptions,
};
use drec_sync::CachePadded;

/// Repetitions of each timed run; the best (highest throughput) is
/// scored, rejecting OS scheduler stalls on timeshared CI cores.
const TIMING_REPS: usize = 5;
/// Thread counts in the contention sweep (total = producers + consumers).
const THREAD_POINTS: [usize; 4] = [1, 2, 4, 8];

fn bench_cfg() -> BatcherConfig {
    BatcherConfig {
        max_batch: 16,
        max_wait: Duration::ZERO,
        queue_capacity: 1024,
        delay_budget: Duration::from_secs(3600),
        per_query_service_estimate: 0.0,
    }
}

fn bench_queue() -> SharedQueue {
    let cfg = bench_cfg();
    let ladder = Arc::new(OverloadLadder::new(
        DegradeConfig::default(),
        cfg.queue_capacity,
        None,
    ));
    SharedQueue::new(cfg, ladder)
}

/// Pre-built requests so the timed region measures queue operations,
/// not channel/request construction.
fn build_requests(n: usize) -> Vec<Request> {
    (0..n as u64)
        .map(|id| {
            Request::new(
                id,
                Vec::new(),
                SubmitOptions {
                    deadline: None,
                    priority: Priority::Normal,
                },
            )
            .0
        })
        .collect()
}

/// One timed enqueue+dequeue run: `threads` split into producers and
/// consumers (single-thread mode alternates push bursts with drains on
/// one thread). Every request flows through the queue exactly once —
/// all requests share one priority, so no evictions; a full queue backs
/// the producer off with a yield. A run ends when everything is pushed
/// and the queue reads empty (single thread) or closed (consumers), not
/// when a count is reached, so a lost request shows as a short count
/// instead of a hang. Returns ops/second, where one op is one request
/// enqueued *and* dequeued, and how many requests came out.
fn contention_run(threads: usize, total_ops: usize) -> (f64, usize) {
    let q = bench_queue();
    let mut requests = build_requests(total_ops);
    if threads == 1 {
        let start = Instant::now();
        let mut drained = 0usize;
        while !requests.is_empty() {
            for _ in 0..16 {
                let Some(r) = requests.pop() else { break };
                q.try_push(r).expect("depth 16 < capacity");
            }
            while let BatchPoll::Ready(batch) = q.try_next_batch() {
                drained += batch.requests.len() + batch.expired.len();
            }
        }
        return (total_ops as f64 / start.elapsed().as_secs_f64(), drained);
    }
    let producers = (threads / 2).max(1);
    let consumers = (threads - producers).max(1);
    let mut shards: Vec<Vec<Request>> = (0..producers).map(|_| Vec::new()).collect();
    for (i, r) in requests.drain(..).enumerate() {
        shards[i % producers].push(r);
    }
    let drained = AtomicUsize::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        let pushers: Vec<_> = shards
            .drain(..)
            .map(|shard| {
                scope.spawn(|| {
                    for mut request in shard {
                        loop {
                            match q.try_push(request) {
                                Ok(_) => break,
                                Err((back, _overloaded)) => {
                                    request = back;
                                    std::thread::yield_now();
                                }
                            }
                        }
                    }
                })
            })
            .collect();
        for _ in 0..consumers {
            scope.spawn(|| loop {
                match q.try_next_batch() {
                    BatchPoll::Ready(batch) => {
                        let n = batch.requests.len() + batch.expired.len();
                        drained.fetch_add(n, Ordering::Relaxed);
                    }
                    BatchPoll::Closed => break,
                    BatchPoll::Idle | BatchPoll::Coalescing(_) => std::thread::yield_now(),
                }
            });
        }
        for pusher in pushers {
            pusher.join().expect("producer thread");
        }
        q.close();
    });
    let tput = total_ops as f64 / start.elapsed().as_secs_f64();
    (tput, drained.into_inner())
}

/// One thread point: best-of-reps throughput, and whether every rep
/// drained exactly what it pushed.
fn contention_point(threads: usize, total_ops: usize) -> (f64, bool) {
    (0..TIMING_REPS)
        .map(|_| contention_run(threads, total_ops))
        .fold((0.0f64, true), |(best, exact), (tput, drained)| {
            (best.max(tput), exact && drained == total_ops)
        })
}

/// The false-sharing experiment behind the repo's `CachePadded`
/// counters: `threads` threads each hammer their own `AtomicU64`,
/// first packed adjacently (all in one or two cache lines), then one
/// per 64-byte line. Returns (unpadded, padded) increments/second.
fn counter_experiment(threads: usize, increments: usize) -> (f64, f64) {
    fn run<T>(counters: &[T], increments: usize) -> f64
    where
        T: std::ops::Deref<Target = std::sync::atomic::AtomicU64> + Sync,
    {
        let start = Instant::now();
        std::thread::scope(|scope| {
            for c in counters {
                scope.spawn(move || {
                    for _ in 0..increments {
                        c.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        let total: u64 = counters.iter().map(|c| c.load(Ordering::Relaxed)).sum();
        assert_eq!(total as usize, counters.len() * increments);
        total as f64 / start.elapsed().as_secs_f64()
    }
    // Box<AtomicU64> derefs to the atomic and packs allocations tightly
    // enough to share lines on the Vec-of-boxes layout below; use a
    // plain reference wrapper instead: slices of owned values.
    struct Plain(std::sync::atomic::AtomicU64);
    impl std::ops::Deref for Plain {
        type Target = std::sync::atomic::AtomicU64;
        fn deref(&self) -> &Self::Target {
            &self.0
        }
    }
    let unpadded: Vec<Plain> = (0..threads)
        .map(|_| Plain(std::sync::atomic::AtomicU64::new(0)))
        .collect();
    let padded: Vec<CachePadded<std::sync::atomic::AtomicU64>> = (0..threads)
        .map(|_| CachePadded::new(std::sync::atomic::AtomicU64::new(0)))
        .collect();
    let mut un = 0.0f64;
    let mut pa = 0.0f64;
    for _ in 0..TIMING_REPS {
        for c in &unpadded {
            c.store(0, Ordering::Relaxed);
        }
        un = un.max(run(&unpadded, increments));
        for c in &padded {
            c.store(0, Ordering::Relaxed);
        }
        pa = pa.max(run(&padded, increments));
    }
    (un, pa)
}

fn main() {
    let mut report = Report::start("queue", &["--smoke"]);
    let cores = report.host.parallelism;
    let total_ops = if report.flags.smoke { 20_000 } else { 200_000 };
    println!("{total_ops} ops per rep, best of {TIMING_REPS}");

    println!("\nEnqueue+dequeue throughput (one op = one request through the queue):");
    let sweep: Vec<(usize, f64, bool)> = THREAD_POINTS
        .into_iter()
        .map(|threads| {
            let (tput, exact) = contention_point(threads, total_ops);
            println!("  {threads} threads: {tput:>12.0} ops/s");
            (threads, tput, exact)
        })
        .collect();

    // False-sharing demo behind the CachePadded satellite: the counter
    // layout MetricsRegistry/StoreStats moved *from* vs the one they
    // moved *to*.
    let counter_threads = cores.clamp(2, 8);
    let (un, pa) = counter_experiment(counter_threads, total_ops / 4);
    println!(
        "\nCounter false sharing ({counter_threads} threads): adjacent {:.0} incs/s, \
         padded {:.0} incs/s ({:.2}x)",
        un,
        pa,
        pa / un
    );

    report.rows("contention_sweep", &sweep, |(threads, tput, exact)| {
        row! {"threads": *threads, "ops_per_sec": *tput, "delivered_once": *exact}
    });
    report.section(
        "counter_false_sharing",
        row! {
            "threads": counter_threads,
            "unpadded_incs_per_sec": un,
            "padded_incs_per_sec": pa,
            "speedup": pa / un,
        },
    );
    report.gate(Gate::all(
        "every_request_delivered_once",
        &sweep,
        |(_, _, exact)| *exact,
        |(threads, _, _)| format!("{threads} threads"),
    ));
    report.finish();
}
