//! Chaos harness and acceptance gates for the fault-tolerant serving
//! stack: drives seeded Zipf traffic through a serve runtime while a
//! deterministic fault plan panics workers on schedule, then checks that
//! availability holds, nothing hangs, and the supervisor heals the pool.
//! With faults disabled it also proves the hooks are free: all 8 models
//! stay bit-identical to the uncompiled reference executor, and a
//! disabled hook costs a single branch. Writes `BENCH_chaos.json`.
//!
//! Flags:
//!
//! * `--smoke` — small request counts, CI mode,
//! * `--quick` — fewer requests than full, more than smoke.
//!
//! Gates (asserted in both modes):
//!
//! * every admitted request is *answered* (response or typed error) —
//!   zero requests hang past the wait timeout,
//! * ≥ 99% of admitted requests receive a successful response under the
//!   crash schedule,
//! * at least one worker panic fires and at least one supervisor restart
//!   heals it,
//! * all 8 models produce bit-identical outputs to
//!   [`drec_models::RecModel::run_reference`] with faults disabled,
//! * a disabled fault hook costs < 25 ns per call (it is one
//!   branch-on-None; the bound is generous for CI noise).

use drec_bench::json_f64;
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

struct Args {
    smoke: bool,
    quick: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        quick: false,
    };
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => args.smoke = true,
            "--quick" => args.quick = true,
            other => eprintln!("warning: unknown argument '{other}' (supported: --smoke --quick)"),
        }
    }
    args
}

struct IdentityRow {
    model: ModelId,
    bit_identical: bool,
}

/// With faults disabled, the serving path must be semantically inert:
/// every model's compiled-plan execution matches the uncompiled
/// reference executor bit for bit on the same inputs.
fn check_identity(batch: usize) -> Vec<IdentityRow> {
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
            let bit_identical = reference.len() == got.len()
                && reference.iter().zip(&got).all(|(a, b)| {
                    let a = a.as_dense().expect("dense output").as_slice();
                    let b = b.as_dense().expect("dense output").as_slice();
                    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
                });
            assert!(
                bit_identical,
                "{id}: compiled plan output differs from run_reference with faults disabled"
            );
            IdentityRow {
                model: id,
                bit_identical,
            }
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
fn probe_model_bits(handle: &MultiServeHandle, model: ModelId, seed: u64) -> Vec<Vec<u32>> {
    let spec = handle.spec(model).expect("model co-located").clone();
    let inputs = QueryGen::zipf(seed, 1.0).batch(&spec, 1);
    let response = handle
        .submit(model, inputs)
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
    let oracles: Vec<Vec<Vec<u32>>> = models
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

#[allow(clippy::too_many_arguments)]
fn write_json(
    path: &str,
    smoke: bool,
    identity: &[IdentityRow],
    disabled_ns: f64,
    quiet_ns: f64,
    tally: &ChaosTally,
    stats: &drec_serve::MetricsSnapshot,
    elapsed: f64,
    availability: f64,
    rolling: &RollingOutcome,
    pin: (f64, f64),
) {
    let mut s = String::from("{\n");
    s.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if smoke { "smoke" } else { "full" }
    ));
    s.push_str("  \"reference_identity\": [\n");
    for (i, r) in identity.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"model\": \"{}\", \"bit_identical\": {}}}{}\n",
            r.model,
            r.bit_identical,
            if i + 1 < identity.len() { "," } else { "" }
        ));
    }
    s.push_str(&format!(
        "  ],\n  \"disabled_hook_ns_per_call\": {},\n  \"quiet_enabled_hook_ns_per_call\": {},\n",
        json_f64(disabled_ns),
        json_f64(quiet_ns)
    ));
    s.push_str("  \"chaos\": {\n");
    s.push_str(&format!(
        "    \"admitted\": {},\n    \"shed\": {},\n    \"ok\": {},\n    \"worker_failed\": {},\n    \"deadline_exceeded\": {},\n    \"other_errors\": {},\n    \"hung\": {},\n",
        tally.admitted,
        tally.shed,
        tally.ok,
        tally.worker_failed,
        tally.deadline_exceeded,
        tally.other_errors,
        tally.hung
    ));
    s.push_str(&format!(
        "    \"availability\": {},\n    \"worker_panics\": {},\n    \"worker_restarts\": {},\n    \"retried\": {},\n    \"crashes_per_second\": {},\n    \"elapsed_seconds\": {},\n",
        json_f64(availability),
        stats.worker_panics,
        stats.worker_restarts,
        stats.retried,
        json_f64(stats.worker_panics as f64 / elapsed.max(1e-9)),
        json_f64(elapsed)
    ));
    s.push_str(&format!(
        "    \"entered_update_backpressure\": {},\n    \"recovered_update_backpressure\": {},\n    \"entered_reduced_batch\": {},\n    \"entered_cache_only\": {},\n    \"cache_only_skips\": {}\n  }},\n",
        stats.entered_update_backpressure,
        stats.recovered_update_backpressure,
        stats.entered_reduced_batch,
        stats.entered_cache_only,
        stats.store.as_ref().map_or(0, |st| st.cache_only_skips)
    ));
    let r_answered = rolling.ok + rolling.errored;
    let r_avail = if rolling.admitted == 0 {
        0.0
    } else {
        rolling.ok as f64 / rolling.admitted as f64
    };
    s.push_str("  \"rolling_update\": {\n");
    s.push_str(&format!(
        "    \"models\": {},\n    \"versions_per_model\": {},\n    \"admitted\": {},\n    \"ok\": {},\n    \"errored\": {},\n    \"hung\": {},\n    \"answered\": {},\n    \"availability\": {},\n    \"elapsed_seconds\": {},\n",
        rolling.rows.len(),
        rolling.versions_per_model,
        rolling.admitted,
        rolling.ok,
        rolling.errored,
        rolling.hung,
        r_answered,
        json_f64(r_avail),
        json_f64(rolling.elapsed)
    ));
    s.push_str("    \"per_model\": [\n");
    for (i, r) in rolling.rows.iter().enumerate() {
        s.push_str(&format!(
            "      {{\"model\": \"{}\", \"final_version\": {}, \"max_staleness\": {}, \"staleness_samples\": {}, \"bit_identical\": {}}}{}\n",
            r.model,
            r.final_version,
            r.max_staleness,
            r.staleness_samples,
            r.bit_identical,
            if i + 1 < rolling.rows.len() { "," } else { "" }
        ));
    }
    s.push_str("    ],\n");
    s.push_str(&format!(
        "    \"updater\": {{\"batches_applied\": {}, \"rows_applied\": {}, \"rolled_back\": {}, \"recovered\": {}, \"duplicates_rejected\": {}, \"throttle_waits\": {}, \"weight_sets_posted\": {}}},\n",
        rolling.stats.batches_applied,
        rolling.stats.rows_applied,
        rolling.stats.rolled_back,
        rolling.stats.recovered,
        rolling.stats.duplicates_rejected,
        rolling.stats.throttle_waits,
        rolling.stats.weight_sets_posted
    ));
    s.push_str(&format!(
        "    \"update_faults\": {{\"injected_batches\": {}, \"crashes\": {}, \"publish_delays\": {}, \"duplicates\": {}}},\n",
        rolling.faults.update_batches,
        rolling.faults.update_crashes,
        rolling.faults.update_publish_delays,
        rolling.faults.update_duplicates
    ));
    s.push_str(&format!(
        "    \"pin_overhead\": {{\"baseline_ns_per_row\": {}, \"pinned_ns_per_row\": {}, \"ratio\": {}, \"gate\": {PIN_OVERHEAD_GATE}}}\n  }},\n",
        json_f64(pin.0),
        json_f64(pin.1),
        json_f64(pin.1 / pin.0.max(1e-12))
    ));
    s.push_str("  \"checks\": {\n");
    s.push_str(&format!(
        "    \"availability_gate\": {AVAILABILITY_GATE},\n    \"all_answered\": {},\n    \"workers_restarted\": {},\n    \"reference_identity_all\": {},\n    \"disabled_hook_gate_ns\": {DISABLED_HOOK_GATE_NANOS},\n    \"rolling_all_answered\": {},\n    \"rolling_availability_one\": {},\n    \"rolling_staleness_bound\": {STALENESS_BOUND},\n    \"rolling_staleness_held\": {},\n    \"rolling_bit_identical_all\": {},\n    \"pin_overhead_gate\": {PIN_OVERHEAD_GATE},\n    \"pin_overhead_held\": {}\n",
        tally.hung == 0,
        stats.worker_restarts > 0,
        identity.iter().all(|r| r.bit_identical),
        rolling.hung == 0 && r_answered == rolling.admitted,
        rolling.errored == 0,
        rolling.rows.iter().all(|r| r.max_staleness <= STALENESS_BOUND),
        rolling.rows.iter().all(|r| r.bit_identical),
        pin.1 <= pin.0 * PIN_OVERHEAD_GATE
    ));
    s.push_str("  }\n}\n");
    std::fs::write(path, s).expect("write BENCH_chaos.json");
}

fn main() {
    let args = parse_args();
    println!(
        "chaos_bench: {} mode",
        if args.smoke { "smoke" } else { "full" }
    );

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
    let identity = check_identity(if args.smoke { 4 } else { 16 });
    for r in &identity {
        println!(
            "  {:<8} bit-identical: {}",
            r.model.to_string(),
            r.bit_identical
        );
    }

    // Part 2: hook overhead. A disabled hook is a branch on None; a
    // quiet enabled hook (a plan with no schedules) pays the atomic
    // event counter. Neither may cost anything visible at batch rates.
    let calls: u64 = if args.smoke { 2_000_000 } else { 20_000_000 };
    let disabled_ns = time_hook_nanos(&FaultHook::disabled(), calls);
    let quiet_ns = time_hook_nanos(&FaultHook::from_plan(&FaultPlan::quiet(3)), calls);
    println!(
        "Hook cost: disabled {disabled_ns:.2} ns/call, quiet-enabled {quiet_ns:.2} ns/call ({calls} calls)"
    );

    // Part 3: chaos. Seeded Zipf traffic against a store-backed runtime
    // while the plan panics a worker roughly every `panic_period`
    // batches and poisons an occasional cold store read; with tiny
    // batches the resulting crash rate lands well above one per second.
    let (producers, requests_per_producer) = match (args.smoke, args.quick) {
        (true, _) => (4, 150),
        (false, true) => (4, 500),
        (false, false) => (8, 1_500),
    };
    let panic_period = if args.smoke { 40 } else { 100 };
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
    let rolling = run_rolling_update(args.smoke);
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
    let pin = measure_pin_overhead(args.smoke);
    println!(
        "Pin overhead: {:.2} ns/row unpinned, {:.2} ns/row pinned ({:.4}x)",
        pin.0,
        pin.1,
        pin.1 / pin.0.max(1e-12)
    );

    write_json(
        "BENCH_chaos.json",
        args.smoke,
        &identity,
        disabled_ns,
        quiet_ns,
        &tally,
        &stats,
        elapsed,
        availability,
        &rolling,
        pin,
    );
    println!("Wrote BENCH_chaos.json");

    assert_eq!(
        tally.hung, 0,
        "requests hung past {HANG_TIMEOUT:?} under the crash schedule"
    );
    assert_eq!(
        answered, tally.admitted,
        "every admitted request must be answered"
    );
    println!(
        "Gate: all {} admitted requests answered, none hung — ok",
        tally.admitted
    );
    assert!(
        availability >= AVAILABILITY_GATE,
        "availability {availability:.4} below the {AVAILABILITY_GATE} gate"
    );
    println!("Gate: availability {availability:.4} >= {AVAILABILITY_GATE} — ok");
    assert!(
        stats.worker_panics > 0 && stats.worker_restarts > 0,
        "crash schedule must fire and the supervisor must restart: {} panics, {} restarts",
        stats.worker_panics,
        stats.worker_restarts
    );
    println!(
        "Gate: {} injected panics all healed by {} supervisor restarts — ok",
        stats.worker_panics, stats.worker_restarts
    );
    assert!(
        disabled_ns < DISABLED_HOOK_GATE_NANOS,
        "disabled hook costs {disabled_ns:.2} ns/call, above the {DISABLED_HOOK_GATE_NANOS} ns gate"
    );
    println!("Gate: disabled hook {disabled_ns:.2} ns/call < {DISABLED_HOOK_GATE_NANOS} ns — ok");

    // Rolling-update gates: zero availability loss, zero hung, the
    // staleness bound, fault recovery, and quiescent bit-identity.
    assert_eq!(rolling.hung, 0, "requests hung during the rolling update");
    assert_eq!(
        r_answered, rolling.admitted,
        "every request admitted during the rolling update must be answered"
    );
    assert_eq!(
        rolling.errored, 0,
        "a rolling update must not error any request: {} errored",
        rolling.errored
    );
    println!(
        "Gate: rolling update answered all {} admitted requests, zero errors, none hung — ok",
        rolling.admitted
    );
    for r in &rolling.rows {
        assert_eq!(
            r.final_version, rolling.versions_per_model,
            "{}: rolling update did not complete",
            r.model
        );
        assert!(
            r.max_staleness <= STALENESS_BOUND,
            "{}: staleness {} exceeds the N-{STALENESS_BOUND} bound",
            r.model,
            r.max_staleness
        );
        assert!(
            r.bit_identical,
            "{}: post-update outputs differ from the pre-update oracle",
            r.model
        );
    }
    println!(
        "Gate: all {} models at v{}, staleness <= {STALENESS_BOUND}, quiescence bit-identical — ok",
        rolling.rows.len(),
        rolling.versions_per_model
    );
    assert!(
        rolling.stats.rolled_back >= 1 && rolling.stats.recovered == rolling.stats.rolled_back,
        "injected update crashes must roll back and recover: {} rolled back, {} recovered",
        rolling.stats.rolled_back,
        rolling.stats.recovered
    );
    assert!(
        rolling.stats.duplicates_rejected >= 1,
        "injected duplicate deltas must be rejected by the version check"
    );
    println!(
        "Gate: {} injected crashes rolled back and recovered, {} duplicates rejected — ok",
        rolling.stats.rolled_back, rolling.stats.duplicates_rejected
    );
    assert!(
        pin.1 <= pin.0 * PIN_OVERHEAD_GATE,
        "epoch pinning costs {:.2} ns/row vs {:.2} unpinned ({:.4}x), above the {PIN_OVERHEAD_GATE}x gate",
        pin.1,
        pin.0,
        pin.1 / pin.0.max(1e-12)
    );
    println!(
        "Gate: epoch pin overhead {:.4}x <= {PIN_OVERHEAD_GATE}x — ok",
        pin.1 / pin.0.max(1e-12)
    );
    println!("All checks passed.");
}
