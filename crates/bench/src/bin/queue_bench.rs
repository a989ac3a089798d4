//! Acceptance gates for the `drec-sync` lock-free batcher queue: the
//! bounded MPMC ring (`QueueKind::LockFree`) against the retained
//! mutex+condvar leg (`QueueKind::Lock`, the `DREC_LOCK_QUEUE=1`
//! semantics oracle). Writes `BENCH_queue.json`.
//!
//! Flags:
//!
//! * `--smoke` — small op counts, CI mode.
//!
//! Gates:
//!
//! * **contention scaling** — at 8 threads (4 producers + 4 consumers)
//!   the lock-free leg must move ≥ 1.5× the lock leg's
//!   enqueue+dequeue throughput. Skipped with a log line on hosts with
//!   fewer than 4 cores, where an 8-thread run measures the OS
//!   scheduler, not the queue.
//! * **single-thread regression** — with no contention the ring must
//!   not lose to the uncontended mutex (tolerance for timer noise).
//! * **bit identity** — all 8 paper models served through the
//!   lock-free queue produce bit-identical outputs to the same models
//!   served through the lock leg (same seeds, same submission order).
//!
//! Also reported (informational, no gate): the false-sharing experiment
//! behind the `CachePadded` counters in `MetricsRegistry` and the
//! store — adjacent plain `AtomicU64`s hammered from several threads
//! vs. one-per-cache-line counters.

use drec_bench::json_f64;
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

struct Args {
    smoke: bool,
}

fn parse_args() -> Args {
    let mut args = Args { smoke: false };
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => args.smoke = true,
            other => eprintln!("warning: unknown argument '{other}' (supported: --smoke)"),
        }
    }
    args
}

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

struct IdentityRow {
    model: ModelId,
    bit_identical: bool,
}

/// Serves `queries` single-sample requests through a fresh runtime on
/// the queue leg selected by `DREC_LOCK_QUEUE`, waiting for each
/// response before submitting the next so both legs see identical
/// batch compositions. Returns the flattened output bits per query.
fn serve_outputs(id: ModelId, queries: usize) -> Vec<Vec<u32>> {
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
        let bits: Vec<u32> = response
            .outputs
            .iter()
            .flat_map(|v| {
                v.as_dense()
                    .expect("dense output")
                    .as_slice()
                    .iter()
                    .map(|x| x.to_bits())
            })
            .collect();
        out.push(bits);
    }
    runtime.shutdown();
    out
}

/// Gate: all 8 models bit-identical through the lock-free queue vs the
/// `DREC_LOCK_QUEUE=1` oracle leg. The env flips happen while no
/// runtime (and no worker thread) is alive.
fn check_identity(queries: usize) -> Vec<IdentityRow> {
    ModelId::ALL
        .into_iter()
        .map(|id| {
            std::env::set_var("DREC_LOCK_QUEUE", "1");
            let oracle = serve_outputs(id, queries);
            std::env::remove_var("DREC_LOCK_QUEUE");
            let lockfree = serve_outputs(id, queries);
            let bit_identical = oracle == lockfree;
            assert!(
                bit_identical,
                "{id}: outputs through the lock-free queue differ from the lock-leg oracle"
            );
            IdentityRow {
                model: id,
                bit_identical,
            }
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

#[allow(clippy::too_many_arguments)]
fn write_json(
    path: &str,
    smoke: bool,
    sweep: &[(QueueKind, usize, f64)],
    ratio_1t: f64,
    ratio_8t: Option<f64>,
    cores: usize,
    identity: &[IdentityRow],
    counters: (usize, f64, f64),
) {
    let mut s = String::from("{\n");
    s.push_str(&format!(
        "  \"mode\": \"{}\",\n  \"cores\": {cores},\n",
        if smoke { "smoke" } else { "full" }
    ));
    s.push_str("  \"contention_sweep\": [\n");
    for (i, (kind, threads, tput)) in sweep.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"kind\": \"{}\", \"threads\": {threads}, \"ops_per_sec\": {}}}{}\n",
            kind.name(),
            json_f64(*tput),
            if i + 1 < sweep.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&format!(
        "  \"single_thread_ratio\": {},\n  \"eight_thread_ratio\": {},\n",
        json_f64(ratio_1t),
        ratio_8t.map_or("null".to_string(), json_f64),
    ));
    s.push_str("  \"identity\": [\n");
    for (i, r) in identity.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"model\": \"{}\", \"bit_identical\": {}}}{}\n",
            r.model.name(),
            r.bit_identical,
            if i + 1 < identity.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    let (cthreads, un, pa) = counters;
    s.push_str(&format!(
        "  \"counter_false_sharing\": {{\"threads\": {cthreads}, \
         \"unpadded_incs_per_sec\": {}, \"padded_incs_per_sec\": {}, \"speedup\": {}}},\n",
        json_f64(un),
        json_f64(pa),
        json_f64(pa / un)
    ));
    s.push_str(&format!(
        "  \"checks\": {{\n    \"single_thread_floor\": {SINGLE_THREAD_FLOOR},\n    \
         \"contention_gate\": {CONTENTION_GATE},\n    \
         \"contention_gate_skipped_low_cores\": {},\n    \
         \"identity_ok\": {}\n  }}\n}}\n",
        ratio_8t.is_none(),
        identity.iter().all(|r| r.bit_identical)
    ));
    std::fs::write(path, s).expect("write BENCH_queue.json");
}

fn main() {
    let args = parse_args();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let total_ops = if args.smoke { 20_000 } else { 200_000 };
    println!(
        "queue_bench: {} mode — {total_ops} ops per rep, best of {TIMING_REPS}, {cores} cores",
        if args.smoke { "smoke" } else { "full" }
    );

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
    let tput_of = |kind: QueueKind, threads: usize| {
        sweep
            .iter()
            .find(|(k, t, _)| *k == kind && *t == threads)
            .map(|(_, _, v)| *v)
            .unwrap()
    };
    let ratio_1t = tput_of(QueueKind::LockFree, 1) / tput_of(QueueKind::Lock, 1);
    println!("  single-thread ratio (lock-free / lock): {ratio_1t:.2}x");
    let ratio_8t = if cores >= 4 {
        let r = tput_of(QueueKind::LockFree, 8) / tput_of(QueueKind::Lock, 8);
        println!("  8-thread ratio (lock-free / lock): {r:.2}x");
        Some(r)
    } else {
        println!(
            "  8-thread contention gate SKIPPED: {cores} core(s) < 4 — an 8-thread \
             run here measures the OS scheduler, not the queue"
        );
        None
    };

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
    let queries = if args.smoke { 4 } else { 16 };
    println!("\nServing all 8 models through both queue legs ({queries} queries each):");
    let identity = check_identity(queries);
    for r in &identity {
        println!(
            "  {:<8} lock vs lock-free outputs: {}",
            r.model.name(),
            if r.bit_identical {
                "bit-identical"
            } else {
                "DIFFER"
            }
        );
    }

    write_json(
        "BENCH_queue.json",
        args.smoke,
        &sweep,
        ratio_1t,
        ratio_8t,
        cores,
        &identity,
        (counter_threads, un, pa),
    );
    println!("\nWrote BENCH_queue.json");

    assert!(
        ratio_1t >= SINGLE_THREAD_FLOOR,
        "lock-free queue regressed single-thread throughput: {ratio_1t:.2}x < {SINGLE_THREAD_FLOOR}x"
    );
    println!(
        "Gate: single-thread lock-free >= {SINGLE_THREAD_FLOOR}x lock leg ({ratio_1t:.2}x) — ok"
    );
    match ratio_8t {
        Some(r) => {
            assert!(
                r >= CONTENTION_GATE,
                "lock-free queue below the contention gate at 8 threads: \
                 {r:.2}x < {CONTENTION_GATE}x"
            );
            println!("Gate: 8-thread lock-free >= {CONTENTION_GATE}x lock leg ({r:.2}x) — ok");
        }
        None => println!("Gate: 8-thread contention — skipped ({cores} core(s) < 4)"),
    }
    println!("Gate: all 8 models bit-identical across queue legs — ok");
    println!("All checks passed.");
}
