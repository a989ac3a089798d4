//! Acceptance gates for the `drec-sched` multi-model co-location
//! scheduler: all eight paper models share one worker pool behind
//! per-model admission queues, with per-query batching and calibrated
//! CPU/GPU splitting. Reports as `BENCH_sched.json` (shape in the
//! `drec_bench` crate docs).
//!
//! Flags:
//!
//! * `--smoke` — small request counts, CI mode,
//! * `--quick` — fewer requests than full, more than smoke.
//!
//! Calibrating every model's placement profile twice with the same seed
//! must yield identical CPU/GPU crossovers and identical backend decisions
//! at every batch size (a difference panics).
//!
//! Gates (both modes):
//!
//! * `colocated_over_isolated_throughput` — the eight co-located models
//!   achieve at least the aggregate throughput of eight isolated
//!   single-worker pools at equal total worker count, on the same seeded
//!   Zipf-skewed workload,
//! * `p99_within_slo` — under seeded Zipf load, every model's measured
//!   p99 stays at or under its SLO target, with the batch cap shrunk by
//!   nothing but each lane's overload ladder,
//! * `answered_requests_bit_identical`, `verified_on_accelerator` — every
//!   request the full scheduler answered is bit-identical to the same
//!   sample run alone (batch 1) on a standalone model, whichever batch it
//!   rode in and whichever worker ran it, and at least one of them was
//!   answered by the accelerator worker,
//! * `accelerator_batches_below_crossover` — of the requests the
//!   accelerator worker answered, none rode in a batch below its model's
//!   calibrated crossover `b*`, or belonged to a model with none: the
//!   accelerator takes only batches its profile says it wins (read off
//!   each `Response`'s `batch` and `worker`),
//! * `calibration_mem_events`, `calibration_ops` — what cold-start
//!   calibration hands the simulator (sampled memory events and
//!   operators in its sixteen traces) is the count on record. Both are
//!   functions of models, seed and batch sizes alone; as gates they also
//!   land in the `BENCH_history.jsonl` line, next to the seconds they
//!   explain. A change that moves them on purpose updates the constants.
//! * `heap_live_after_start_mb` — the heap bytes a cold start leaves live
//!   (this bin runs on [`CountingAlloc`]) stay at or under the figure on
//!   record: embedding store, one FC weight set per model, plans, queues.
//!   A second copy of the FC sets, 34 MB, would not fit under it.
//! * `heap_peak_during_start_mb` — the most the same start holds on the
//!   way stays at or under the figure on record for a crew of one
//!   calibrating thread, plus one simulator (`simulator_mb`, measured) for
//!   each further thread the host's crew has, plus 5 %: calibration prices
//!   each operator as it is traced, on one simulator per calibrating
//!   thread, so with two or more threads a held trace (DIEN's is 4.6 MB
//!   of memory events) and a simulator per run would not fit under it.
//!
//! Also recorded per model, not gated: the mean requests per accelerator
//! batch and the share of the model's submitted requests that were shed.
//!
//! Also recorded, not gated: **cold start** — `start_s`, the wall time of
//! `MultiServeRuntime::start` for the eight Paper-scale models on a
//! tiered int8 store (the shape `perf_bench`'s `colocated_mix` starts),
//! beside what its three steps cost when run one after another on one
//! thread: building the models, calibrating them, starting the lane pool
//! on them. Start overlaps the first two, so on a host with a second core
//! `start_s` is below their sum. `serial_simulate_s` is the part of
//! calibration spent in `CpuSim` (the same runs traced again and held,
//! then priced on one simulator reset before each, as calibration prices
//! them), and `fc_param_mb` one FC weight set of each model, summed.

use drec_bench::counters::CountingAlloc;
use drec_bench::report::Limit::{AtLeast, AtMost, Equal};
use drec_bench::report::{Gate, Report, Timed};
use drec_bench::timing::{paired, sample, time};
use drec_bench::{integrated_accelerator, output_bits, row, XorShift64};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use drec_models::{ModelId, ModelScale};
use drec_ops::Value;
use drec_sched::{
    DecisionSnapshot, GpuSchedConfig, ModelProfile, ModelSlo, MultiServeRuntime, ProfileConfig,
    SchedConfig, SchedReport,
};
use drec_serve::{
    Inline, LaneSpec, ModelChannelSnapshot, PoolConfig, Response, ServeConfig, ServeRuntime,
};
use drec_store::{EmbeddingStore, RowEncoding, StoreConfig, TierConfig};
use drec_trace::RunTrace;
use drec_workload::QueryGen;

#[global_allocator]
static HEAP: CountingAlloc = CountingAlloc::new();

/// Parameter seed shared by every engine in this harness.
const SEED: u64 = 7;
/// Seed of the workload sequence (model popularity + query contents).
const WORKLOAD_SEED: u64 = 0x5C4ED;
/// Zipf exponent for query categorical features.
const ZIPF_S: f64 = 1.0;
/// p99 SLO target every model must meet under the seeded load. The
/// drive loop is a bounded open-loop flood (the whole workload is
/// admitted up front), so the p99 is dominated by drain time; the budget
/// absorbs OS scheduler noise on shared CI cores.
const SLO: Duration = Duration::from_millis(400);
/// Timed drains of each side; the fastest is scored, rejecting OS
/// scheduler stalls on timeshared CI cores.
const TIMING_REPS: usize = 5;

/// Sampled memory events and operators in the sixteen traces (eight
/// Paper-scale models × batch {1, 8}) that cold-start calibration
/// simulates.
const CALIBRATION_MEM_EVENTS: f64 = 1_985_927.0;
const CALIBRATION_OPS: f64 = 3_230.0;
/// Ceiling on the heap a cold start of the same eight models leaves live,
/// MiB: the reading, 64.2 (it repeats to 0.1), plus 5 %. It read 68.8
/// while the tier kept 12 bytes per row and 16 per budget slot, and each
/// served engine's arena kept the activation buffers of its calibration
/// runs; 75.7 while each of the eight lanes' queues allocated a ring of
/// 8 192 slots for its capacity of 4 096, and 109.6 while the update
/// channels kept a second copy of every FC set (33.9).
const HEAP_LIVE_AFTER_START_MB: f64 = 67.4;
/// The heap the same cold start holds at its peak when one thread
/// calibrates, MiB: 73.9 on one core (it repeats to 0.1). Each further
/// calibrating thread holds one simulator more, so the ceiling is this
/// plus one simulator per further thread, plus 5 %. Two threads read
/// 77.1–79.8 here (ceiling 83.1); 77.7 on one core and 82.5–83.3 on two
/// before the tier's records and slots were packed and calibration ran
/// on a view; 87.8–88.7, and 79.9 on one core, while each calibration run
/// held its whole trace and a fresh `CpuSim`.
const HEAP_PEAK_ONE_CALIBRATING_THREAD_MB: f64 = 73.9;

/// One pre-generated query: which model, and its inputs.
struct WorkUnit {
    model_idx: usize,
    inputs: Vec<Value>,
}

/// Builds the shared workload: model popularity is Zipf(1.0) over the
/// eight models (rank = `ModelId::ALL` order), query contents come from
/// one seeded generator per model. Fully determined by `WORKLOAD_SEED`.
fn build_workload(models: &[ModelId], total: usize) -> Vec<WorkUnit> {
    let weights: Vec<f64> = (1..=models.len()).map(|r| 1.0 / r as f64).collect();
    let norm: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(models.len());
    let mut acc = 0.0;
    for w in &weights {
        acc += w / norm;
        cdf.push(acc);
    }
    let specs: Vec<_> = models
        .iter()
        .map(|id| {
            id.build(ModelScale::Tiny, SEED)
                .expect("model builds")
                .spec()
                .clone()
        })
        .collect();
    let mut gens: Vec<QueryGen> = (0..models.len())
        .map(|i| QueryGen::zipf(WORKLOAD_SEED ^ (i as u64).wrapping_mul(0x9E37), ZIPF_S))
        .collect();
    // The model-popularity sampler.
    let mut rng = XorShift64(WORKLOAD_SEED | 1);
    (0..total)
        .map(|_| {
            let u = rng.next_f64();
            let model_idx = cdf.iter().position(|&c| u <= c).unwrap_or(models.len() - 1);
            WorkUnit {
                model_idx,
                inputs: gens[model_idx].batch(&specs[model_idx], 1),
            }
        })
        .collect()
}

/// Drives the workload open-loop: `producers` threads submit their
/// shard as fast as admission accepts it (`submit` gets each unit with its
/// index in `workload`), then wait for every response. Wall time
/// therefore measures how fast the serving side *drains* a deep backlog —
/// the capacity question the co-location gate asks — rather than how fast
/// producers can ping-pong. Returns the wall-clock seconds to answer
/// everything.
fn drive<W, S>(workload: &[WorkUnit], producers: usize, submit: S) -> f64
where
    W: FnOnce() + Send,
    S: Fn(usize, &WorkUnit) -> Option<W> + Sync,
{
    let cursor = AtomicUsize::new(0);
    time(|| {
        std::thread::scope(|scope| {
            for _ in 0..producers {
                scope.spawn(|| {
                    let mut in_flight: Vec<W> = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(unit) = workload.get(i) else { break };
                        if let Some(waiter) = submit(i, unit) {
                            in_flight.push(waiter);
                        }
                    }
                    for waiter in in_flight.drain(..) {
                        waiter();
                    }
                });
            }
        })
    })
}

fn colo_config(models: &[ModelId], cpu_workers: usize, gpu: Option<GpuSchedConfig>) -> SchedConfig {
    let mut cfg = SchedConfig::tiny(models.iter().map(|&id| ModelSlo::new(id, SLO)).collect());
    cfg.seed = SEED;
    cfg.cpu_workers = cpu_workers;
    cfg.max_batch = 32;
    cfg.queue_capacity = 4096;
    cfg.delay_budget = Duration::from_secs(3600);
    cfg.gpu = gpu;
    cfg
}

/// Runs the co-located scheduler over the workload, handing `answered`
/// each response with its unit's index in `workload`; returns (elapsed
/// seconds, report).
fn run_colocated(
    workload: &[WorkUnit],
    producers: usize,
    cfg: SchedConfig,
    models: &[ModelId],
    answered: impl Fn(usize, Response) + Sync,
) -> (f64, SchedReport) {
    let runtime = MultiServeRuntime::start(cfg).expect("co-located runtime starts");
    let handle = runtime.handle();
    let elapsed = drive(workload, producers, |i, unit| {
        let model = models[unit.model_idx];
        let pending = handle.submit(model, unit.inputs.clone()).ok()?;
        let answered = &answered;
        Some(move || {
            if let Ok(response) = pending.wait() {
                answered(i, response);
            }
        })
    });
    (elapsed, runtime.shutdown())
}

/// How many `answered` responses carry exactly the bits of their sample
/// run alone, at batch 1, on a standalone compiled model of the same
/// scale and seed, and how many of those the accelerator worker
/// (`accelerator`, the worker index past the CPU workers) answered.
fn verify_answered(
    workload: &[WorkUnit],
    models: &[ModelId],
    answered: &[(usize, Response)],
    accelerator: usize,
) -> (usize, usize) {
    let mut standalone: Vec<_> = models
        .iter()
        .map(|id| {
            let mut model = id.build(ModelScale::Tiny, SEED).expect("model builds");
            model.compile_plan();
            model
        })
        .collect();
    let (mut identical, mut on_accelerator) = (0, 0);
    for (i, response) in answered {
        let unit = &workload[*i];
        let alone = standalone[unit.model_idx].run(unit.inputs.clone());
        if output_bits(&alone.expect("standalone run")) == output_bits(&response.outputs) {
            identical += 1;
            on_accelerator += usize::from(response.worker == accelerator);
        }
    }
    (identical, on_accelerator)
}

/// Runs eight isolated single-worker pools (one per model) over the same
/// workload; returns elapsed seconds.
fn run_isolated(workload: &[WorkUnit], producers: usize, models: &[ModelId]) -> f64 {
    let runtimes: Vec<ServeRuntime> = models
        .iter()
        .map(|&id| {
            let mut cfg = ServeConfig::tiny(id);
            cfg.seed = SEED;
            cfg.workers = 1;
            cfg.max_batch = 32;
            cfg.queue_capacity = 4096;
            cfg.delay_budget = Duration::from_secs(3600);
            ServeRuntime::start(cfg).expect("isolated runtime starts")
        })
        .collect();
    let handles: Vec<_> = runtimes.iter().map(|r| r.handle()).collect();
    let elapsed = drive(workload, producers, |_, unit| {
        let pending = handles[unit.model_idx].submit(unit.inputs.clone()).ok()?;
        Some(move || {
            let _ = pending.wait();
        })
    });
    for runtime in runtimes {
        runtime.shutdown();
    }
    elapsed
}

/// Identical-seed calibration must yield identical split tables.
fn check_determinism(
    models: &[ModelId],
    gpu: &GpuSchedConfig,
    max_batch: usize,
) -> Vec<(ModelId, Option<usize>)> {
    let cfg = ProfileConfig {
        calibration_batches: vec![1, 8],
        seed: SEED ^ 0x5EED_CA11,
        gpu: Some(gpu.gpu),
        pcie_extra_s: gpu.pcie_extra_s,
        max_batch,
        ..ProfileConfig::default()
    };
    models
        .iter()
        .map(|&id| {
            let calibrate = || {
                let model = id.build(ModelScale::Tiny, SEED).expect("model builds");
                ModelProfile::calibrate(&model, &cfg)
            };
            let (a, b) = (calibrate(), calibrate());
            assert_eq!(
                a.crossover, b.crossover,
                "{id}: crossover batch differs across identically-seeded calibrations"
            );
            for batch in 1..=max_batch {
                assert_eq!(
                    a.backend_for(batch),
                    b.backend_for(batch),
                    "{id}: backend decision at batch {batch} is not deterministic"
                );
            }
            (id, a.crossover)
        })
        .collect()
}

/// Median seconds of the cold start and of its three steps run serially,
/// and the size of what calibration simulates.
struct StartTimes {
    start_s: f64,
    build_s: f64,
    calibrate_s: f64,
    /// The `CpuSim` part of `calibrate_s`: the same traces, on one
    /// simulator reset before each, as calibration prices them.
    simulate_s: f64,
    pool_s: f64,
    /// Sampled memory events and operators in the calibration traces.
    /// Functions of models, seed and batches alone: they repeat exactly.
    mem_events: usize,
    ops: usize,
    /// Heap bytes `MultiServeRuntime::start` left live, the most it held
    /// on the way, and one FC weight set of every model.
    heap_live: usize,
    heap_peak: usize,
    fc_param_bytes: usize,
    /// Heap bytes one calibration simulator allocates.
    simulator_bytes: usize,
}

/// Times `MultiServeRuntime::start` on `perf_bench`'s `colocated_mix`
/// shape — eight Paper-scale models, one CPU worker, no accelerator, a
/// tiered int8 store — and then the same work step by step through the
/// public pieces start is made of; median of `reps` each.
fn time_start(models: &[ModelId], reps: usize) -> StartTimes {
    const ROWS: usize = 116 * 4096;
    let store_cfg = StoreConfig {
        encoding: RowEncoding::Int8,
        cache_capacity_rows: ROWS / 10,
        tier: Some(TierConfig {
            admit_after: 2,
            prefetch: false,
            ..TierConfig::new(ROWS / 4)
        }),
        ..StoreConfig::default()
    };
    let mut cfg = colo_config(models, 1, None);
    cfg.scale = ModelScale::Paper;
    cfg.max_batch = 64;
    cfg.store = Some(store_cfg.clone());
    let profile_cfg = cfg.profile_config();
    let simulator_bytes = {
        let before = HEAP.live_bytes();
        let sim = profile_cfg.cpu_sim();
        let bytes = HEAP.live_bytes() - before;
        drop(sim);
        bytes
    };
    let (mut heap_live, mut heap_peak, mut fc_param_bytes) = (0, 0, 0);
    let start = sample(reps, || {
        let heap_before = HEAP.live_bytes();
        HEAP.reset_peak();
        let mut runtime = None;
        let seconds = time(|| runtime = Some(MultiServeRuntime::start(cfg.clone())));
        heap_live = HEAP.live_bytes() - heap_before;
        heap_peak = HEAP.peak_bytes() - heap_before;
        let runtime = runtime.expect("timed").expect("runtime starts");
        let models = runtime.snapshot().models;
        fc_param_bytes = models.iter().map(|m| m.fc_param_bytes).sum();
        seconds
    });

    // Each step's previous results are dropped off the clock.
    let mut store = Arc::new(EmbeddingStore::new(store_cfg.clone()));
    let mut built = Vec::new();
    let build = sample(reps, || {
        built.clear();
        store = Arc::new(EmbeddingStore::new(store_cfg.clone()));
        time(|| {
            built = models
                .iter()
                .map(|id| id.build_with_store(ModelScale::Paper, SEED, Arc::clone(&store)))
                .collect::<Result<_, _>>()
                .expect("models build");
        })
    });
    let mut curves = Vec::new();
    let calibrate = sample(reps, || {
        time(|| {
            let mut sim = profile_cfg.cpu_sim();
            let calibrate = |model| ModelProfile::calibrate_on(model, &profile_cfg, &mut sim);
            curves = built.iter().map(calibrate).map(|p| p.cpu_curve).collect();
            sim
        })
    });

    // The runs `calibrate` just priced as they were traced, taken again
    // and held, so that the simulator can be timed without the tracing.
    let mut traces: Vec<RunTrace> = Vec::new();
    for model in &mut built {
        let spec = model.spec().clone();
        let mut gen = QueryGen::uniform(profile_cfg.seed);
        for &batch in &profile_cfg.calibration_batches {
            let inputs = gen.batch(&spec, batch);
            traces.push(model.run_traced(inputs, batch).expect("trace runs").1);
        }
    }
    let mut sim = profile_cfg.cpu_sim();
    let simulate = sample(reps, || {
        time(|| {
            for trace in &traces {
                sim.reset();
                std::hint::black_box(sim.simulate(trace).seconds);
            }
        })
    });
    let trace_ops = traces.iter().flat_map(|trace| &trace.ops);
    let mem_events = trace_ops.clone().map(|op| op.mem.events().len()).sum();
    let ops = trace_ops.count();
    drop((traces, sim));

    let pool = sample(reps, || {
        let lanes = built.iter().zip(&curves).map(|(model, curve)| LaneSpec {
            built: model.view(),
            curve: curve.clone(),
        });
        let lanes = lanes.collect();
        time(|| {
            ServeRuntime::start_pool(PoolConfig {
                lanes,
                workers: 1,
                worker_name: "sched-bench-start",
                max_batch: cfg.max_batch,
                max_wait: cfg.max_wait,
                queue_capacity: cfg.queue_capacity,
                delay_budget: cfg.delay_budget,
                degrade: cfg.degrade,
                par_pool: drec_par::current(),
                supervisor: Default::default(),
                faults: drec_faultsim::FaultHook::disabled(),
                placement: Arc::new(Inline),
            })
            .expect("pool starts")
        })
    });
    StartTimes {
        start_s: start.median,
        build_s: build.median,
        calibrate_s: calibrate.median,
        simulate_s: simulate.median,
        pool_s: pool.median,
        mem_events,
        ops,
        heap_live,
        heap_peak,
        fc_param_bytes,
        simulator_bytes,
    }
}

fn print_decision_histogram(decisions: &[DecisionSnapshot]) {
    println!("Scheduler decisions (batches per power-of-two size bucket):");
    for d in decisions {
        let fmt_hist = |hist: &[u64]| {
            let cells: Vec<String> = hist
                .iter()
                .enumerate()
                .filter(|(_, &n)| n > 0)
                .map(|(i, n)| format!("{}:{n}", DecisionSnapshot::bucket_label(i)))
                .collect();
            if cells.is_empty() {
                "-".to_string()
            } else {
                cells.join(" ")
            }
        };
        println!(
            "  {:<8} crossover {:>4}  cpu [{}]  gpu [{}]",
            d.model,
            d.crossover.map_or("none".into(), |b| b.to_string()),
            fmt_hist(&d.cpu_size_hist),
            fmt_hist(&d.gpu_size_hist)
        );
    }
}

fn print_per_model_table(models: &[ModelChannelSnapshot], slo: Duration) {
    println!(
        "  {:<8} {:>9} {:>6} {:>7} {:>10} {:>10} {:>10}  SLO check",
        "model", "completed", "shed", "queue", "p50", "p95", "p99"
    );
    for m in models {
        let ok = m.p99_seconds <= slo.as_secs_f64();
        println!(
            "  {:<8} {:>9} {:>6} {:>7} {:>9.2}ms {:>9.2}ms {:>9.2}ms  {}",
            m.name,
            m.completed,
            m.shed,
            m.queue_depth,
            m.p50_seconds * 1e3,
            m.p95_seconds * 1e3,
            m.p99_seconds * 1e3,
            if ok { "ok" } else { "OVER" }
        );
    }
}

fn main() {
    let mut report = Report::start("sched", &["--smoke", "--quick"]);
    let (smoke, quick) = (report.flags.smoke, report.flags.quick);
    println!("8 co-located models, seed {SEED}, workload seed {WORKLOAD_SEED:#x}");
    let models = ModelId::ALL;
    let accelerator = integrated_accelerator();

    // Deterministic CPU/GPU split tables.
    println!("\nCalibrating placement profiles twice per model (must agree):");
    let crossovers = check_determinism(&models, &accelerator, 32);
    for (id, crossover) in &crossovers {
        println!(
            "  {:<8} crossover batch: {}",
            id.name(),
            crossover.map_or("none (CPU always)".into(), |b| b.to_string())
        );
    }

    // Start overlaps build and calibration: below a second-core reading
    // of about 1.5 it had no second core to do that on.
    report.second_core();
    let start = time_start(&models, if smoke { 3 } else { 7 });
    let second_core = report.second_core();
    println!(
        "\nCold start, 8 Paper-scale models on a tiered int8 store (median; {} core(s), two threads do {:.2}x one): {:.0} ms",
        report.host.parallelism,
        second_core,
        start.start_s * 1e3
    );
    println!(
        "  its steps run serially: build {:.0} ms + calibrate {:.0} ms + pool {:.0} ms = {:.0} ms",
        start.build_s * 1e3,
        start.calibrate_s * 1e3,
        start.pool_s * 1e3,
        (start.build_s + start.calibrate_s + start.pool_s) * 1e3
    );
    println!(
        "  of calibrate, CpuSim::simulate is {:.0} ms: {} memory events, {} operators in 16 traces",
        start.simulate_s * 1e3,
        start.mem_events,
        start.ops
    );
    let mb = |bytes: usize| bytes as f64 / (1u64 << 20) as f64;
    println!(
        "  heap: {:.1} MB live after start, {:.1} MB at its peak; one FC weight set per model is {:.1} MB of it",
        mb(start.heap_live),
        mb(start.heap_peak),
        mb(start.fc_param_bytes)
    );
    // What calibrates at once: the start crew's threads, one simulator each.
    let crew = report.host.parallelism.min(models.len());
    let simulators = (crew - 1) as f64 * mb(start.simulator_bytes);
    let peak_limit = (HEAP_PEAK_ONE_CALIBRATING_THREAD_MB + simulators) * 1.05;

    // Co-location against isolation at equal worker count.
    // Both sides get 8 real worker threads and the identical seeded
    // workload; the accelerator is disabled here so the comparison is
    // thread-for-thread fair (its worker is a real thread too). The two
    // sides drain the backlog in alternation, so that ambient drift
    // (cache state, other tenants of the core) hits both alike, each
    // from a runtime started off the clock; the fastest drains score.
    let (total, producers) = match (smoke, quick) {
        (true, _) => (20_000, 4),
        (false, true) => (30_000, 6),
        (false, false) => (40_000, 8),
    };
    let workload = build_workload(&models, total);
    let counts: Vec<usize> = (0..models.len())
        .map(|i| workload.iter().filter(|u| u.model_idx == i).count())
        .collect();
    println!(
        "\nWorkload: {total} queries, Zipf-skewed popularity {:?}",
        counts
    );
    println!(
        "Driving 8 isolated single-worker pools vs the co-located scheduler \
         (8 workers each, alternating, fastest of {TIMING_REPS})..."
    );
    let (isolated, colocated) = paired(
        TIMING_REPS,
        || run_isolated(&workload, producers, &models),
        || {
            let cfg = colo_config(&models, 8, None);
            run_colocated(&workload, producers, cfg, &models, |_, _| {}).0
        },
    );
    let (iso_elapsed, colo_elapsed) = (isolated.fastest, colocated.fastest);
    let ratio = iso_elapsed / colo_elapsed;
    let iso_qps = total as f64 / iso_elapsed;
    println!(
        "  isolated fastest: {iso_qps:.0} qps ({iso_elapsed:.3}s; median {:.3}s)",
        isolated.median
    );
    let colo_qps = total as f64 / colo_elapsed;
    println!(
        "  co-located fastest: {colo_qps:.0} qps ({colo_elapsed:.3}s; median {:.3}s)",
        colocated.median
    );
    println!("  aggregate throughput ratio (co-located / isolated, fastest runs): {ratio:.2}x");

    // SLO under load with the accelerator active, keeping every
    // response for the bit-identity check.
    const CPU_WORKERS: usize = 7;
    println!(
        "\nDriving the full scheduler ({CPU_WORKERS} CPU workers + {} accelerator)...",
        accelerator.gpu.name
    );
    let cfg = colo_config(&models, CPU_WORKERS, Some(accelerator));
    let answered = Mutex::new(Vec::new());
    let keep = |i, response| answered.lock().unwrap().push((i, response));
    let (slo_elapsed, run) = run_colocated(&workload, producers, cfg, &models, keep);
    let answered = answered.into_inner().unwrap();
    println!(
        "  {} queries in {slo_elapsed:.2}s ({:.0} qps)",
        total,
        total as f64 / slo_elapsed
    );
    print_per_model_table(&run.snapshot.models, SLO);
    print_decision_histogram(&run.decisions);

    println!(
        "\nRunning the {} answered requests alone on standalone models...",
        answered.len()
    );
    let mut verified = (0, 0);
    let verify_s = time(|| verified = verify_answered(&workload, &models, &answered, CPU_WORKERS));
    let (identical, on_accelerator) = verified;
    println!(
        "  {identical} bit-identical ({on_accelerator} of them answered by the accelerator) in {verify_s:.2}s"
    );
    // Per model: requests the accelerator answered, and how many of them
    // rode in a batch below the model's crossover (all, without one).
    let mut on_gpu = vec![(0usize, 0usize); models.len()];
    for (i, response) in answered.iter().filter(|(_, r)| r.worker == CPU_WORKERS) {
        let model = workload[*i].model_idx;
        let crossover = run.decisions[model].crossover;
        on_gpu[model].0 += 1;
        on_gpu[model].1 += usize::from(crossover.is_none_or(|b| response.batch < b));
    }
    let below_crossover: usize = on_gpu.iter().map(|&(_, below)| below).sum();

    report.section(
        "cold_start",
        row! {
            "models": models.len(),
            "scale": "Paper",
            "start_s": start.start_s,
            "serial_build_s": start.build_s,
            "serial_calibrate_s": start.calibrate_s,
            "serial_simulate_s": start.simulate_s,
            "serial_pool_s": start.pool_s,
            "calibration_mem_events": start.mem_events,
            "calibration_ops": start.ops,
            "heap_live_after_start_mb": mb(start.heap_live),
            "heap_peak_during_start_mb": mb(start.heap_peak),
            "fc_param_mb": mb(start.fc_param_bytes),
            "calibrating_threads": crew,
            "simulator_mb": mb(start.simulator_bytes),
        },
    );
    let crossover_row = |(id, crossover): &(ModelId, Option<usize>)| {
        row! {"model": id.name(), "crossover_batch": *crossover}
    };
    report.rows("crossovers", &crossovers, crossover_row);
    report.section("colocated_qps", colo_qps);
    report.section("isolated_qps", iso_qps);
    report.section("throughput_ratio", ratio);
    let model_row = |&(i, m): &(usize, &ModelChannelSnapshot)| {
        let d = &run.decisions[i];
        let gpu_mean_batch = (d.gpu_batches > 0).then(|| on_gpu[i].0 as f64 / d.gpu_batches as f64);
        row! {
            "model": m.name.as_str(),
            "completed": m.completed,
            "shed": m.shed,
            "shed_share": m.shed as f64 / counts[i] as f64,
            "p99_seconds": m.p99_seconds,
            "slo_seconds": SLO.as_secs_f64(),
            "cpu_batches": d.cpu_batches,
            "gpu_batches": d.gpu_batches,
            "gpu_mean_batch": gpu_mean_batch,
        }
    };
    let per_model: Vec<_> = run.snapshot.models.iter().enumerate().collect();
    report.rows("models", &per_model, model_row);

    let at = format!("fastest runs; {colo_qps:.0} vs {iso_qps:.0} qps");
    report.gate(Gate::timed(
        "colocated_over_isolated_throughput",
        AtLeast(1.0),
        [Timed::new(colocated, ("the isolated pools", isolated), at)],
    ));
    let by_p99 = |a: &&ModelChannelSnapshot, b: &&ModelChannelSnapshot| {
        a.p99_seconds.total_cmp(&b.p99_seconds)
    };
    let slowest = run.snapshot.models.iter().max_by(by_p99);
    let slowest = slowest.expect("eight models");
    report.gate(
        Gate::new(
            "p99_within_slo",
            slowest.p99_seconds,
            AtMost(SLO.as_secs_f64()),
        )
        .at(format!("{}, seconds", slowest.name)),
    );
    report.gate(
        Gate::new(
            "answered_requests_bit_identical",
            identical as f64,
            Equal(answered.len() as f64),
        )
        .at("full scheduler run against batch-1 runs on standalone models"),
    );
    report.gate(
        Gate::new(
            "verified_on_accelerator",
            on_accelerator as f64,
            AtLeast(1.0),
        )
        .at("bit-identical requests the accelerator worker answered"),
    );
    report.gate(
        Gate::new(
            "accelerator_batches_below_crossover",
            below_crossover as f64,
            Equal(0.0),
        )
        .at("accelerator-answered requests in a batch below their model's b* or with none"),
    );
    let sixteen = "16 cold-start calibration traces";
    report.gate(
        Gate::new(
            "calibration_mem_events",
            start.mem_events as f64,
            Equal(CALIBRATION_MEM_EVENTS),
        )
        .at(sixteen),
    );
    report.gate(Gate::new("calibration_ops", start.ops as f64, Equal(CALIBRATION_OPS)).at(sixteen));
    report.gate(
        Gate::new(
            "heap_live_after_start_mb",
            mb(start.heap_live),
            AtMost(HEAP_LIVE_AFTER_START_MB),
        )
        .at("MultiServeRuntime::start, 8 Paper-scale models, tiered int8 store"),
    );
    report.gate(
        Gate::new(
            "heap_peak_during_start_mb",
            mb(start.heap_peak),
            AtMost(peak_limit),
        )
        .at(format!(
            "MultiServeRuntime::start, {crew} calibrating thread(s): \
             ({HEAP_PEAK_ONE_CALIBRATING_THREAD_MB} + {} x {:.1} MB simulator) + 5 %",
            crew - 1,
            mb(start.simulator_bytes)
        )),
    );
    report.finish();
}
