//! Acceptance gates for the `drec-sync` lock-free batcher queue: the
//! bounded MPMC ring (`QueueKind::LockFree`) against the retained
//! mutex+condvar leg (`QueueKind::Lock`, the `DREC_LOCK_QUEUE=1`
//! semantics oracle). Reports as `BENCH_queue.json` (shape in the
//! `drec_bench` crate docs).
//!
//! Flags:
//!
//! * `--smoke` — small op counts, CI mode.
//!
//! Gates:
//!
//! * `contention_8_threads` — at 8 threads (4 producers + 4 consumers)
//!   the lock-free leg must move ≥ 1.5× the lock leg's
//!   enqueue+dequeue throughput. Skipped on hosts with fewer than 4
//!   cores, where an 8-thread run measures the OS scheduler, not the
//!   queue.
//! * `single_thread_floor` — with no contention the ring must not lose
//!   to the uncontended mutex (tolerance for timer noise).
//! * `bit_identical_across_queue_legs` — all 8 paper models served
//!   through the lock-free queue produce bit-identical outputs to the
//!   same models served through the lock leg (same seeds, same
//!   submission order).
//!
//! Also reported (informational, no gate): the false-sharing experiment
//! behind the `CachePadded` counters in `MetricsRegistry` and the
//! store — adjacent plain `AtomicU64`s hammered from several threads
//! vs. one-per-cache-line counters.

use drec_bench::report::Limit::AtLeast;
use drec_bench::report::{Gate, Json, Report};
use drec_bench::{output_bits, row};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use drec_models::ModelId;
use drec_serve::{
    BatchPoll, BatcherConfig, DegradeConfig, OverloadLadder, Priority, QueueKind, Request,
    ServeConfig, ServeRuntime, SharedQueue, SubmitOptions,
};
use drec_sync::CachePadded;
use drec_workload::QueryGen;

/// Parameter seed for the bit-identity models.
const SEED: u64 = 7;
/// Workload seed for the bit-identity queries.
const WORKLOAD_SEED: u64 = 0x0BEE5;
/// Repetitions of each timed run; the best (highest throughput) is
/// scored, rejecting OS scheduler stalls on timeshared CI cores.
const TIMING_REPS: usize = 5;
/// Thread counts in the contention sweep (total = producers + consumers).
const THREAD_POINTS: [usize; 4] = [1, 2, 4, 8];
/// Required lock-free / lock throughput ratio at 8 threads.
const CONTENTION_GATE: f64 = 1.5;
/// Single-thread tolerance: the ring may not fall below this fraction
/// of the lock leg (absorbs timer noise on shared cores; a real
/// regression shows up as a far larger gap).
const SINGLE_THREAD_FLOOR: f64 = 0.85;

fn bench_cfg() -> BatcherConfig {
    BatcherConfig {
        max_batch: 16,
        max_wait: Duration::ZERO,
        queue_capacity: 1024,
        delay_budget: Duration::from_secs(3600),
        per_query_service_estimate: 0.0,
    }
}

fn queue_of(kind: QueueKind) -> SharedQueue {
    let cfg = bench_cfg();
    let ladder = Arc::new(OverloadLadder::new(
        DegradeConfig::default(),
        cfg.queue_capacity,
        None,
    ));
    SharedQueue::with_kind(cfg, ladder, Arc::default(), kind)
}

/// Pre-built requests so the timed region measures queue operations,
/// not channel/request construction (which is identical on both legs
/// and would dilute the ratio).
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
/// the producer off with a yield. Returns ops/second, where one op is
/// one request enqueued *and* dequeued.
fn contention_run(kind: QueueKind, threads: usize, total_ops: usize) -> f64 {
    let q = queue_of(kind);
    let mut requests = build_requests(total_ops);
    if threads == 1 {
        let start = Instant::now();
        let mut drained = 0usize;
        while drained < total_ops {
            for _ in 0..16 {
                let Some(r) = requests.pop() else { break };
                q.try_push(r).expect("depth 16 < capacity");
            }
            while let BatchPoll::Ready(batch) = q.try_next_batch() {
                drained += batch.requests.len() + batch.expired.len();
            }
        }
        return total_ops as f64 / start.elapsed().as_secs_f64();
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
        for shard in shards.drain(..) {
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
            });
        }
        for _ in 0..consumers {
            scope.spawn(|| loop {
                match q.try_next_batch() {
                    BatchPoll::Ready(batch) => {
                        let n = batch.requests.len() + batch.expired.len();
                        drained.fetch_add(n, Ordering::Relaxed);
                    }
                    BatchPoll::Closed => break,
                    BatchPoll::Idle | BatchPoll::Coalescing(_) => {
                        if drained.load(Ordering::Relaxed) >= total_ops {
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
            });
        }
    });
    assert_eq!(
        drained.load(Ordering::Relaxed),
        total_ops,
        "{kind:?} at {threads} threads lost or duplicated requests"
    );
    total_ops as f64 / start.elapsed().as_secs_f64()
}

/// Best-of-reps throughput for one (kind, threads) point.
fn contention_point(kind: QueueKind, threads: usize, total_ops: usize) -> f64 {
    (0..TIMING_REPS)
        .map(|_| contention_run(kind, threads, total_ops))
        .fold(0.0f64, f64::max)
}

/// Serves `queries` single-sample requests through a fresh runtime on
/// the queue leg selected by `DREC_LOCK_QUEUE`, waiting for each
/// response before submitting the next so both legs see identical
/// batch compositions. Returns the output bits per query.
fn serve_outputs(id: ModelId, queries: usize) -> Vec<Vec<(Vec<usize>, Vec<u32>)>> {
    let mut cfg = ServeConfig::tiny(id);
    cfg.seed = SEED;
    cfg.workers = 1;
    let runtime = ServeRuntime::start(cfg).expect("runtime starts");
    let handle = runtime.handle();
    let mut gen = QueryGen::zipf(WORKLOAD_SEED, 1.0);
    let mut out = Vec::with_capacity(queries);
    for _ in 0..queries {
        let inputs = gen.batch(runtime.spec(), 1);
        let response = handle
            .submit(inputs)
            .expect("admission")
            .wait()
            .expect("response");
        out.push(output_bits(&response.outputs));
    }
    runtime.shutdown();
    out
}

/// All 8 models through the lock-free queue and through the
/// `DREC_LOCK_QUEUE=1` oracle leg. The env flips happen while no
/// runtime (and no worker thread) is alive.
fn check_identity(queries: usize) -> Vec<Json> {
    ModelId::ALL
        .into_iter()
        .map(|id| {
            std::env::set_var("DREC_LOCK_QUEUE", "1");
            let oracle = serve_outputs(id, queries);
            std::env::remove_var("DREC_LOCK_QUEUE");
            let lockfree = serve_outputs(id, queries);
            let bit_identical = oracle == lockfree;
            let verdict = if bit_identical {
                "bit-identical"
            } else {
                "DIFFER"
            };
            println!("  {:<8} lock vs lock-free outputs: {verdict}", id.name());
            row! {"model": id.name(), "bit_identical": bit_identical}
        })
        .collect()
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

    // Contention sweep: both legs at each thread count.
    println!("\nEnqueue+dequeue throughput (one op = one request through the queue):");
    let mut sweep = Vec::new();
    // Both legs of a thread point are timed back to back: the ratios
    // below compare them, and this host's speed wanders over a sweep.
    for threads in THREAD_POINTS {
        for kind in [QueueKind::Lock, QueueKind::LockFree] {
            let tput = contention_point(kind, threads, total_ops);
            println!("  {:<9} {threads} threads: {tput:>12.0} ops/s", kind.name());
            sweep.push((kind, threads, tput));
        }
    }
    let ratio_at = |threads: usize| {
        let tput_of = |kind: QueueKind| {
            let point = sweep.iter().find(|(k, t, _)| *k == kind && *t == threads);
            point.expect("every thread point has both legs").2
        };
        tput_of(QueueKind::LockFree) / tput_of(QueueKind::Lock)
    };
    let (ratio_1t, ratio_8t) = (ratio_at(1), ratio_at(8));
    println!("  lock-free / lock: {ratio_1t:.2}x single-thread, {ratio_8t:.2}x at 8 threads");

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

    // Bit-identity across legs for all 8 models.
    let queries = if report.flags.smoke { 4 } else { 16 };
    println!("\nServing all 8 models through both queue legs ({queries} queries each):");
    let identity = check_identity(queries);
    let sweep_row = |(kind, threads, tput): &(QueueKind, usize, f64)| {
        row! {"kind": kind.name(), "threads": *threads, "ops_per_sec": *tput}
    };
    report.rows("contention_sweep", &sweep, sweep_row);
    report.section("single_thread_ratio", ratio_1t);
    report.section("eight_thread_ratio", ratio_8t);
    report.section(
        "counter_false_sharing",
        row! {
            "threads": counter_threads,
            "unpadded_incs_per_sec": un,
            "padded_incs_per_sec": pa,
            "speedup": pa / un,
        },
    );
    report.gate(
        Gate::new(
            "single_thread_floor",
            ratio_1t,
            AtLeast(SINGLE_THREAD_FLOOR),
        )
        .at("1 thread"),
    );
    report.gate(
        Gate::new("contention_8_threads", ratio_8t, AtLeast(CONTENTION_GATE))
            .at("4 producers + 4 consumers")
            .skip_if((cores < 4).then(|| {
                format!(
                    "{cores} core(s) < 4: an 8-thread run here measures the OS scheduler, not the queue"
                )
            })),
    );
    report.gate(Gate::all(
        "bit_identical_across_queue_legs",
        &identity,
        |r| r.flag("bit_identical"),
        |r| r.render(false),
    ));
    report.section("identity", identity);
    report.finish();
}
