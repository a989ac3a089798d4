//! Chaos harness and acceptance gates for the fault-tolerant serving
//! stack: drives seeded Zipf traffic through a serve runtime while a
//! deterministic fault plan panics workers on schedule, then checks that
//! availability holds, nothing hangs, and the supervisor heals the pool.
//! With faults disabled it also proves the hooks are free: all 8 models
//! stay bit-identical to the uncompiled reference executor, and a
//! disabled hook costs a single branch. Reports as `BENCH_chaos.json`
//! (shape in the `drec_bench` crate docs).
//!
//! Flags:
//!
//! * `--smoke` — small request counts, CI mode,
//! * `--quick` — fewer requests than full, more than smoke.
//!
//! Gates (both modes):
//!
//! * `chaos_none_hung`, `chaos_all_answered` — every admitted request is
//!   *answered* (response or typed error), zero hang past the wait
//!   timeout,
//! * `chaos_availability` — ≥ 99% of admitted requests receive a
//!   successful response under the crash schedule,
//! * `chaos_worker_panics`, `chaos_worker_restarts` — at least one worker
//!   panic fires and at least one supervisor restart heals it,
//! * `reference_identity` — all 8 models produce bit-identical outputs to
//!   [`drec_models::RecModel::run_reference`] with faults disabled,
//! * `disabled_hook_ns_per_call` — a disabled fault hook costs ≤ 25 ns per
//!   call (it is one branch-on-None; the bound is generous for CI noise),
//! * `rolling_*`, `update_*` — the rolling update answers every request
//!   with zero errors, reaches the final version on every model within
//!   the staleness bound, ends bit-identical with the pre-update oracle,
//!   and rolls back and recovers every injected update crash,
//! * `epoch_pin_overhead` — per-batch epoch pinning costs ≤ 1.03× the
//!   unpinned warm read.

use drec_bench::report::Limit::{AtLeast, AtMost, Equal};
use drec_bench::report::{Gate, Json, Report};
use drec_bench::{output_bits, row};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use drec_models::{ModelId, ModelScale};
use drec_sched::{ModelSlo, MultiServeHandle, MultiServeRuntime, SchedConfig};
use drec_serve::{
    EmbeddingStore, FaultCounts, FaultHook, FaultPlan, ServeConfig, ServeError, ServeRuntime,
    StoreConfig, SupervisorConfig, UpdatePlan, Updater, UpdaterStats,
};
use drec_workload::QueryGen;

/// Minimum fraction of admitted requests that must complete successfully
/// under the crash schedule.
const AVAILABILITY_GATE: f64 = 0.99;
/// Upper bound on the per-call cost of a disabled fault hook, generous
/// enough for noisy CI machines (a real regression is orders above it).
const DISABLED_HOOK_GATE_NANOS: f64 = 25.0;
/// A pending request unanswered after this long counts as hung.
const HANG_TIMEOUT: Duration = Duration::from_secs(30);
/// Upper bound on the warm read-path cost of per-batch epoch pinning
/// (the rolling-update read guard), as a ratio over the unpinned floor.
const PIN_OVERHEAD_GATE: f64 = 1.03;
/// Per-batch staleness bound the rolling update must hold: once version
/// N is published for a model, every batch serves version >= N-1.
const STALENESS_BOUND: u64 = 1;

/// With faults disabled, the serving path must be semantically inert:
/// every model's compiled-plan execution matches the uncompiled
/// reference executor bit for bit on the same inputs.
fn check_identity(batch: usize) -> Vec<Json> {
    ModelId::ALL
        .into_iter()
        .map(|id| {
            let mut model = id.build(ModelScale::Tiny, 21).expect("model builds");
            let inputs = QueryGen::zipf(0x1D5, 1.0).batch(model.spec(), batch);
            let reference = model
                .run_reference(inputs.clone())
                .expect("reference executes");
            model.compile_plan();
            let got = model.run(inputs).expect("plan executes");
            let bit_identical = output_bits(&reference) == output_bits(&got);
            println!("  {:<8} bit-identical: {bit_identical}", id.to_string());
            row! {"model": id.to_string(), "bit_identical": bit_identical}
        })
        .collect()
}

/// Per-call cost of `FaultHook::on_batch` for a hook in the given state.
fn time_hook_nanos(hook: &FaultHook, calls: u64) -> f64 {
    let start = Instant::now();
    let mut panics = 0u64;
    for _ in 0..calls {
        if !matches!(hook.on_batch(), drec_faultsim::BatchFault::None) {
            panics += 1;
        }
    }
    std::hint::black_box(panics);
    start.elapsed().as_secs_f64() * 1e9 / calls as f64
}

#[derive(Default)]
struct ChaosTally {
    admitted: u64,
    shed: u64,
    ok: u64,
    worker_failed: u64,
    deadline_exceeded: u64,
    other_errors: u64,
    hung: u64,
}

/// Drives `requests` closed-loop Zipf queries per producer through a
/// runtime under an injected crash schedule and tallies every outcome.
fn run_chaos(
    cfg: ServeConfig,
    producers: usize,
    requests_per_producer: usize,
) -> (ChaosTally, drec_serve::MetricsSnapshot, f64) {
    let runtime = ServeRuntime::start(cfg).expect("runtime starts");
    let start = Instant::now();
    let counters: Vec<Arc<AtomicU64>> = (0..7).map(|_| Arc::new(AtomicU64::new(0))).collect();
    let threads: Vec<_> = (0..producers)
        .map(|p| {
            let handle = runtime.handle();
            let counters: Vec<Arc<AtomicU64>> = counters.iter().map(Arc::clone).collect();
            std::thread::spawn(move || {
                let [admitted, shed, ok, worker_failed, deadline_exceeded, other, hung] =
                    <[Arc<AtomicU64>; 7]>::try_from(counters).expect("seven counters");
                let mut gen = QueryGen::zipf(0xC4A05 ^ p as u64, 1.0);
                for _ in 0..requests_per_producer {
                    let pending = match handle.submit(gen.batch(handle.spec(), 1)) {
                        Ok(pending) => {
                            admitted.fetch_add(1, Ordering::Relaxed);
                            pending
                        }
                        Err(_) => {
                            shed.fetch_add(1, Ordering::Relaxed);
                            continue;
                        }
                    };
                    match pending.wait_timeout(HANG_TIMEOUT) {
                        Some(Ok(_)) => ok.fetch_add(1, Ordering::Relaxed),
                        Some(Err(ServeError::WorkerFailed { .. })) => {
                            worker_failed.fetch_add(1, Ordering::Relaxed)
                        }
                        Some(Err(ServeError::DeadlineExceeded { .. })) => {
                            deadline_exceeded.fetch_add(1, Ordering::Relaxed)
                        }
                        Some(Err(_)) => other.fetch_add(1, Ordering::Relaxed),
                        None => hung.fetch_add(1, Ordering::Relaxed),
                    };
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("producer thread");
    }
    let elapsed = start.elapsed().as_secs_f64();
    let stats = runtime.shutdown();
    let tally = ChaosTally {
        admitted: counters[0].load(Ordering::Relaxed),
        shed: counters[1].load(Ordering::Relaxed),
        ok: counters[2].load(Ordering::Relaxed),
        worker_failed: counters[3].load(Ordering::Relaxed),
        deadline_exceeded: counters[4].load(Ordering::Relaxed),
        other_errors: counters[5].load(Ordering::Relaxed),
        hung: counters[6].load(Ordering::Relaxed),
    };
    (tally, stats, elapsed)
}

/// Per-model outcome of the rolling update.
struct RollingRow {
    model: ModelId,
    final_version: u64,
    max_staleness: u64,
    staleness_samples: u64,
    bit_identical: bool,
}

/// Everything the rolling-update scenario produced.
struct RollingOutcome {
    admitted: u64,
    ok: u64,
    hung: u64,
    errored: u64,
    rows: Vec<RollingRow>,
    versions_per_model: u64,
    stats: UpdaterStats,
    faults: FaultCounts,
    elapsed: f64,
}

/// Same-seed generators produce the same query: submit one probe for
/// `model` and return the response outputs as raw bits.
fn probe_model_bits(
    handle: &MultiServeHandle,
    model: ModelId,
    seed: u64,
) -> Vec<(Vec<usize>, Vec<u32>)> {
    let spec = handle.spec(model).expect("model co-located").clone();
    let inputs = QueryGen::zipf(seed, 1.0).batch(&spec, 1);
    let response = handle
        .submit(model, inputs)
        .expect("probe admits")
        .wait()
        .expect("probe answers");
    output_bits(&response.outputs)
}

/// Part 4: the zero-downtime gate. All 8 models co-located on a shared
/// store-backed scheduler under sustained Zipf traffic while a rolling
/// update — embedding deltas plus MLP weight swaps, with injected
/// update-path faults — walks every model, one at a time. The final
/// version of each per-model plan restores the captured originals, so
/// quiescence must be bit-identical with the pre-update oracle.
fn run_rolling_update(smoke: bool) -> RollingOutcome {
    let versions: u64 = if smoke { 3 } else { 4 };
    let rows_per_version = if smoke { 8 } else { 32 };
    let models: Vec<ModelId> = ModelId::ALL.to_vec();
    let mut cfg = SchedConfig::tiny(
        models
            .iter()
            .map(|&id| ModelSlo::new(id, Duration::from_millis(250)))
            .collect(),
    );
    cfg.seed = 21;
    cfg.cpu_workers = 2;
    cfg.max_batch = 8;
    cfg.queue_capacity = 4096;
    cfg.delay_budget = Duration::from_secs(3600);
    // CPU-only: every registered weight reader sits on the traffic path,
    // so the updater's install pacing resolves in milliseconds. (A GPU
    // lane's engines poll only when a batch is routed there — under this
    // workload that may be never, and the updater would ride its install
    // timeout for every version.)
    cfg.gpu = None;
    cfg.tuner = None;
    cfg.store = Some(StoreConfig {
        cache_capacity_rows: 4096,
        ..StoreConfig::default()
    });
    let runtime = MultiServeRuntime::start(cfg).expect("co-located runtime starts");
    let handle = runtime.handle();

    // Pre-update oracle, captured before traffic starts.
    let oracles: Vec<_> = models
        .iter()
        .map(|&id| probe_model_bits(&handle, id, 0x0AC1E ^ id as u64))
        .collect();

    // Sustained Zipf traffic: one closed-loop producer per model, racing
    // the entire rolling update.
    let start = Instant::now();
    let done = Arc::new(AtomicBool::new(false));
    let admitted = Arc::new(AtomicU64::new(0));
    let ok = Arc::new(AtomicU64::new(0));
    let hung = Arc::new(AtomicU64::new(0));
    let errored = Arc::new(AtomicU64::new(0));
    let producers: Vec<_> = models
        .iter()
        .map(|&id| {
            let handle = runtime.handle();
            let done = Arc::clone(&done);
            let (admitted, ok, hung, errored) = (
                Arc::clone(&admitted),
                Arc::clone(&ok),
                Arc::clone(&hung),
                Arc::clone(&errored),
            );
            std::thread::spawn(move || {
                let spec = handle.spec(id).expect("model co-located").clone();
                let mut gen = QueryGen::zipf(0x201F ^ id as u64, 1.0);
                while !done.load(Ordering::Relaxed) {
                    let pending = match handle.submit(id, gen.batch(&spec, 1)) {
                        Ok(pending) => {
                            admitted.fetch_add(1, Ordering::Relaxed);
                            pending
                        }
                        Err(_) => continue,
                    };
                    match pending.wait_timeout(HANG_TIMEOUT) {
                        Some(Ok(_)) => {
                            ok.fetch_add(1, Ordering::Relaxed);
                        }
                        Some(Err(_)) => {
                            errored.fetch_add(1, Ordering::Relaxed);
                        }
                        None => {
                            hung.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            })
        })
        .collect();

    // The rolling update itself, on its own thread (the publish path
    // synchronizes the reclamation epoch — an inline run on a worker
    // would deadlock on its own pin). One shared fault hook aggregates
    // the injected update faults across all per-model runs.
    let hook = FaultHook::from_plan(&FaultPlan {
        update_crash_every_n_batches: Some(3),
        update_delay_every_n_batches: Some(4),
        update_publish_delay: Duration::from_millis(2),
        update_duplicate_every_n_batches: Some(5),
        ..FaultPlan::quiet(0xD1CE)
    });
    let channels = runtime.update_channels();
    let updater_thread = {
        let hook = hook.clone();
        std::thread::spawn(move || {
            let mut total = UpdaterStats::default();
            for channel in channels {
                let mut updater = Updater::new(
                    channel,
                    UpdatePlan {
                        versions,
                        rows_per_version,
                        pace: Duration::from_millis(1),
                        seed: 0xFEED,
                    },
                );
                updater.set_fault_hook(hook.clone());
                let stats = updater.run().expect("rolling update completes");
                total.accumulate(&stats);
            }
            total
        })
    };
    let stats = updater_thread.join().expect("updater thread");
    done.store(true, Ordering::Relaxed);
    for p in producers {
        p.join().expect("producer thread");
    }
    let elapsed = start.elapsed().as_secs_f64();

    // Quiescence: per-model staleness/version bookkeeping and the
    // bit-identity probe against the pre-update oracle.
    let rows: Vec<RollingRow> = models
        .iter()
        .zip(&oracles)
        .map(|(&id, oracle)| {
            let channel = runtime.update_channel(id).expect("channel exists");
            RollingRow {
                model: id,
                final_version: channel.current_version(),
                max_staleness: channel.max_staleness(),
                staleness_samples: channel.staleness_samples(),
                bit_identical: probe_model_bits(&handle, id, 0x0AC1E ^ id as u64) == *oracle,
            }
        })
        .collect();
    drop(handle);
    runtime.shutdown();
    RollingOutcome {
        admitted: admitted.load(Ordering::Relaxed),
        ok: ok.load(Ordering::Relaxed),
        hung: hung.load(Ordering::Relaxed),
        errored: errored.load(Ordering::Relaxed),
        rows,
        versions_per_model: versions,
        stats,
        faults: hook.counts(),
        elapsed,
    }
}

/// Part 5: the read-path cost of version pinning. Engines pin the
/// reclamation epoch once per batch; on the warm cached-row floor that
/// must stay within [`PIN_OVERHEAD_GATE`] of the unpinned read loop.
/// Interleaved min-of-trials keeps the comparison noise-immune.
fn measure_pin_overhead(smoke: bool) -> (f64, f64) {
    const ROWS: u32 = 1024;
    const DIM: usize = 16;
    const BATCH: usize = 64;
    let store = Arc::new(EmbeddingStore::new(StoreConfig {
        cache_capacity_rows: 4096,
        ..StoreConfig::default()
    }));
    let data: Vec<f32> = (0..ROWS as usize * DIM).map(|i| i as f32 * 0.125).collect();
    store
        .register(1, 0, ROWS as usize, DIM, &data)
        .expect("table registers");
    let pin = store
        .try_pin(store.lookup(1, 0).expect("table exists"))
        .expect("pin");
    let mut buf = vec![0.0f32; DIM];
    for row in 0..ROWS {
        pin.read_row_raw(row, &mut buf).expect("warm read");
    }
    let reads_per_trial: u32 = if smoke { 50_000 } else { 200_000 };
    let trials = 7;
    let mut base_ns = f64::INFINITY;
    let mut pinned_ns = f64::INFINITY;
    for _ in 0..trials {
        let start = Instant::now();
        for i in 0..reads_per_trial {
            pin.read_row_raw(i % ROWS, &mut buf).expect("read");
            std::hint::black_box(&buf);
        }
        base_ns = base_ns.min(start.elapsed().as_secs_f64() * 1e9 / reads_per_trial as f64);
        let start = Instant::now();
        let mut i = 0u32;
        while i < reads_per_trial {
            let _epoch = store.pin_epoch();
            for _ in 0..BATCH {
                pin.read_row_raw(i % ROWS, &mut buf).expect("read");
                std::hint::black_box(&buf);
                i += 1;
            }
        }
        pinned_ns = pinned_ns.min(start.elapsed().as_secs_f64() * 1e9 / reads_per_trial as f64);
    }
    (base_ns, pinned_ns)
}

fn main() {
    let mut report = Report::start("chaos", &["--smoke", "--quick"]);
    let (smoke, quick) = (report.flags.smoke, report.flags.quick);

    // Injected worker panics are the *point* of this harness; the
    // default hook would print a backtrace for each one. Keep them to a
    // single line and leave every other thread's panics verbose.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let is_worker = std::thread::current()
            .name()
            .is_some_and(|name| name.starts_with("drec-serve-worker"));
        if is_worker {
            println!("  [injected] {info}");
        } else {
            default_hook(info);
        }
    }));

    // Part 1: with faults disabled, execution is bit-exact vs the
    // reference executor for every model.
    println!(
        "Reference identity (faults disabled), all {} models:",
        ModelId::ALL.len()
    );
    let identity = check_identity(if smoke { 4 } else { 16 });

    // Part 2: hook overhead. A disabled hook is a branch on None; a
    // quiet enabled hook (a plan with no schedules) pays the atomic
    // event counter. Neither may cost anything visible at batch rates.
    let calls: u64 = if smoke { 2_000_000 } else { 20_000_000 };
    let disabled_ns = time_hook_nanos(&FaultHook::disabled(), calls);
    let quiet_ns = time_hook_nanos(&FaultHook::from_plan(&FaultPlan::quiet(3)), calls);
    println!(
        "Hook cost: disabled {disabled_ns:.2} ns/call, quiet-enabled {quiet_ns:.2} ns/call ({calls} calls)"
    );

    // Part 3: chaos. Seeded Zipf traffic against a store-backed runtime
    // while the plan panics a worker roughly every `panic_period`
    // batches and poisons an occasional cold store read; with tiny
    // batches the resulting crash rate lands well above one per second.
    let (producers, requests_per_producer) = match (smoke, quick) {
        (true, _) => (4, 150),
        (false, true) => (4, 500),
        (false, false) => (8, 1_500),
    };
    let panic_period = if smoke { 40 } else { 100 };
    let mut cfg = ServeConfig::tiny(ModelId::Rm1);
    cfg.workers = 2;
    cfg.max_batch = 8;
    cfg.store = Some(StoreConfig {
        cache_capacity_rows: 1024,
        ..StoreConfig::default()
    });
    cfg.supervisor = SupervisorConfig {
        // The chaos schedule kills workers continuously; the budget must
        // outlast the run so the gate measures recovery, not exhaustion.
        max_restarts: 100_000,
        backoff: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(5),
    };
    cfg.faults = Some(FaultPlan {
        panic_every_n_batches: Some(panic_period),
        poison_every_n_reads: Some(200_000),
        ..FaultPlan::quiet(0xC4A05)
    });
    let total = (producers * requests_per_producer) as u64;
    println!(
        "Driving {total} Zipf requests through {producers} producers, panic every {panic_period} batches..."
    );
    let (tally, stats, elapsed) = run_chaos(cfg, producers, requests_per_producer);
    let answered = tally.ok + tally.worker_failed + tally.deadline_exceeded + tally.other_errors;
    let availability = if tally.admitted == 0 {
        0.0
    } else {
        tally.ok as f64 / tally.admitted as f64
    };
    println!(
        "  admitted {} / shed {}; ok {}, worker-failed {}, hung {}",
        tally.admitted, tally.shed, tally.ok, tally.worker_failed, tally.hung
    );
    println!(
        "  availability {:.4}; {} panics, {} restarts, {:.1} crashes/s over {:.2}s",
        availability,
        stats.worker_panics,
        stats.worker_restarts,
        stats.worker_panics as f64 / elapsed.max(1e-9),
        elapsed
    );

    // Part 4: the zero-downtime rolling update across all 8 co-located
    // models, with injected update-path faults.
    println!(
        "Rolling update: all {} models, sustained Zipf traffic, injected update faults...",
        ModelId::ALL.len()
    );
    let rolling = run_rolling_update(smoke);
    let r_answered = rolling.ok + rolling.errored;
    println!(
        "  admitted {} (ok {}, errored {}, hung {}) over {:.2}s",
        rolling.admitted, rolling.ok, rolling.errored, rolling.hung, rolling.elapsed
    );
    for r in &rolling.rows {
        println!(
            "  {:<8} v{}  max-staleness {}  ({} samples)  bit-identical: {}",
            r.model.to_string(),
            r.final_version,
            r.max_staleness,
            r.staleness_samples,
            r.bit_identical
        );
    }
    println!(
        "  updater: {} batches ({} rows), {} rolled back / {} recovered, {} duplicates rejected, {} throttle waits, {} weight sets",
        rolling.stats.batches_applied,
        rolling.stats.rows_applied,
        rolling.stats.rolled_back,
        rolling.stats.recovered,
        rolling.stats.duplicates_rejected,
        rolling.stats.throttle_waits,
        rolling.stats.weight_sets_posted
    );
    println!(
        "  update faults: {} batches seen, {} crashes, {} publish delays, {} duplicates",
        rolling.faults.update_batches,
        rolling.faults.update_crashes,
        rolling.faults.update_publish_delays,
        rolling.faults.update_duplicates
    );

    // Part 5: warm read-path cost of the per-batch epoch pin.
    let pin = measure_pin_overhead(smoke);
    let pin_ratio = pin.1 / pin.0.max(1e-12);
    println!(
        "Pin overhead: {:.2} ns/row unpinned, {:.2} ns/row pinned ({pin_ratio:.4}x)",
        pin.0, pin.1
    );

    report.gate(Gate::all(
        "reference_identity",
        &identity,
        |r| r.flag("bit_identical"),
        |r| r.render(false),
    ));
    report.section("reference_identity", identity);
    report.section("disabled_hook_ns_per_call", disabled_ns);
    report.section("quiet_enabled_hook_ns_per_call", quiet_ns);
    report.section(
        "chaos",
        row! {
            "admitted": tally.admitted,
            "shed": tally.shed,
            "ok": tally.ok,
            "worker_failed": tally.worker_failed,
            "deadline_exceeded": tally.deadline_exceeded,
            "other_errors": tally.other_errors,
            "hung": tally.hung,
            "availability": availability,
            "worker_panics": stats.worker_panics,
            "worker_restarts": stats.worker_restarts,
            "retried": stats.retried,
            "crashes_per_second": stats.worker_panics as f64 / elapsed.max(1e-9),
            "elapsed_seconds": elapsed,
            "entered_update_backpressure": stats.entered_update_backpressure,
            "recovered_update_backpressure": stats.recovered_update_backpressure,
            "entered_reduced_batch": stats.entered_reduced_batch,
            "entered_cache_only": stats.entered_cache_only,
            "cache_only_skips": stats.store.as_ref().map_or(0, |st| st.cache_only_skips),
        },
    );
    let rolling_row = |r: &RollingRow| {
        row! {
            "model": r.model.to_string(),
            "final_version": r.final_version,
            "max_staleness": r.max_staleness,
            "staleness_samples": r.staleness_samples,
            "bit_identical": r.bit_identical,
        }
    };
    report.section(
        "rolling_update",
        row! {
            "models": rolling.rows.len(),
            "versions_per_model": rolling.versions_per_model,
            "admitted": rolling.admitted,
            "ok": rolling.ok,
            "errored": rolling.errored,
            "hung": rolling.hung,
            "answered": r_answered,
            "availability": rolling.ok as f64 / (rolling.admitted as f64).max(1.0),
            "elapsed_seconds": rolling.elapsed,
            "per_model": rolling.rows.iter().map(rolling_row).collect::<Json>(),
            "updater": row! {
                "batches_applied": rolling.stats.batches_applied,
                "rows_applied": rolling.stats.rows_applied,
                "rolled_back": rolling.stats.rolled_back,
                "recovered": rolling.stats.recovered,
                "duplicates_rejected": rolling.stats.duplicates_rejected,
                "throttle_waits": rolling.stats.throttle_waits,
                "weight_sets_posted": rolling.stats.weight_sets_posted,
            },
            "update_faults": row! {
                "injected_batches": rolling.faults.update_batches,
                "crashes": rolling.faults.update_crashes,
                "publish_delays": rolling.faults.update_publish_delays,
                "duplicates": rolling.faults.update_duplicates,
            },
            "pin_overhead": row! {
                "baseline_ns_per_row": pin.0,
                "pinned_ns_per_row": pin.1,
                "ratio": pin_ratio,
            },
        },
    );

    let model_of = |r: &RollingRow| r.model.to_string();
    let crash_schedule = format!("under the crash schedule, wait timeout {HANG_TIMEOUT:?}");
    report.gate(
        Gate::new("chaos_none_hung", tally.hung as f64, Equal(0.0)).at(crash_schedule.as_str()),
    );
    report.gate(
        Gate::new(
            "chaos_all_answered",
            answered as f64,
            Equal(tally.admitted as f64),
        )
        .at(crash_schedule.as_str()),
    );
    report.gate(
        Gate::new(
            "chaos_availability",
            availability,
            AtLeast(AVAILABILITY_GATE),
        )
        .at(crash_schedule),
    );
    let schedule = format!("panic every {panic_period} batches");
    report.gate(
        Gate::new(
            "chaos_worker_panics",
            stats.worker_panics as f64,
            AtLeast(1.0),
        )
        .at(schedule.as_str()),
    );
    report.gate(
        Gate::new(
            "chaos_worker_restarts",
            stats.worker_restarts as f64,
            AtLeast(1.0),
        )
        .at(schedule),
    );
    report.gate(
        Gate::new(
            "disabled_hook_ns_per_call",
            disabled_ns,
            AtMost(DISABLED_HOOK_GATE_NANOS),
        )
        .at(format!("{calls} calls")),
    );
    // Rolling-update gates: zero availability loss, zero hung, the
    // staleness bound, fault recovery, and quiescent bit-identity.
    let during = "during the rolling update";
    report.gate(Gate::new("rolling_none_hung", rolling.hung as f64, Equal(0.0)).at(during));
    report.gate(
        Gate::new(
            "rolling_all_answered",
            r_answered as f64,
            Equal(rolling.admitted as f64),
        )
        .at(during),
    );
    report.gate(Gate::new("rolling_zero_errors", rolling.errored as f64, Equal(0.0)).at(during));
    report.gate(Gate::all(
        "rolling_reached_final_version",
        &rolling.rows,
        |r| r.final_version == rolling.versions_per_model,
        model_of,
    ));
    let stalest = rolling.rows.iter().max_by_key(|r| r.max_staleness);
    let stalest = stalest.expect("eight models");
    report.gate(
        Gate::new(
            "rolling_staleness",
            stalest.max_staleness as f64,
            AtMost(STALENESS_BOUND as f64),
        )
        .at(format!("{}, versions behind", stalest.model)),
    );
    report.gate(Gate::all(
        "rolling_quiescence_bit_identical",
        &rolling.rows,
        |r| r.bit_identical,
        model_of,
    ));
    let updater = &rolling.stats;
    report.gate(
        Gate::new(
            "update_crashes_rolled_back",
            updater.rolled_back as f64,
            AtLeast(1.0),
        )
        .at("injected update crashes"),
    );
    report.gate(
        Gate::new(
            "update_crashes_recovered",
            updater.recovered as f64,
            Equal(updater.rolled_back as f64),
        )
        .at("recovered vs rolled back"),
    );
    report.gate(
        Gate::new(
            "update_duplicates_rejected",
            updater.duplicates_rejected as f64,
            AtLeast(1.0),
        )
        .at("injected duplicate deltas"),
    );
    report.gate(
        Gate::new("epoch_pin_overhead", pin_ratio, AtMost(PIN_OVERHEAD_GATE)).at(format!(
            "{:.2} ns/row pinned vs {:.2} unpinned",
            pin.1, pin.0
        )),
    );
    report.finish();
}
