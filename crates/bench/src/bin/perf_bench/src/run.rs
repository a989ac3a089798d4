//! One benchmark run: set-up cycles, the measured windows, the traced
//! windows and layer replay of a `--trace` run, the output check, and
//! the metrics computed from all of it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use drec_models::{ModelId, ModelScale, RecModel};
use drec_ops::{Value, ValuePayload};
use drec_sched::DecisionSnapshot;
use drec_serve::{
    EmbeddingStore, MetricsSnapshot, ModelUpdateChannel, StoreStats, UpdatePlan, Updater,
    UpdaterStats,
};

use crate::layers::{self, Replay};
use crate::loadgen::{make_lanes, Lane, LoadGen, Runtime, Sample, Window};
use crate::openloop;
use crate::procfs;
use crate::report::{HostBlock, Metrics, Outcome};
use crate::stats::{median, percentile, sort, spread_pct};
use crate::trace::Tracer;
use crate::workloads::{Target, Workload, COLOCATED_ROWS, MODEL_SEED};

/// Measured windows of a full run; timing metrics are the median window.
const WINDOWS: usize = 10;
/// Set-up cycles (start + warm-up) of a full run; `setup_s` is their
/// median.
const SETUP_CYCLES: usize = 3;
/// Every this-many-th response is compared with the reference executor.
/// (Denser than one in 997: a run is short, and a check costs one
/// single-sample inference.)
const CHECK_EVERY: u64 = 97;
/// The updater's plan: perturb, then restore, 64 rows per table each.
const UPDATE_VERSIONS: u64 = 2;
const UPDATE_ROWS: usize = 64;
const UPDATE_PACE: Duration = Duration::from_millis(2);

pub struct RunArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub trace_out: Option<String>,
    pub smoke: bool,
}

pub struct RunOutput {
    pub host: HostBlock,
    pub noisy: Option<String>,
    pub outcome: Outcome,
    pub metrics: Metrics,
    pub notes: Vec<String>,
}

/// The updater thread of `update_mixed`: rolls one plan after another
/// through the runtime's update channel until told to stop, which it
/// does between plans, so the store is left restored.
struct UpdaterThread {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<UpdaterReport>,
}

#[derive(Default)]
struct UpdaterReport {
    version_ms: Vec<f64>,
    stats: UpdaterStats,
    seconds: f64,
    error: Option<String>,
}

impl UpdaterThread {
    fn spawn(channel: Arc<ModelUpdateChannel>, seed: u64) -> UpdaterThread {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name(procfs::UPDATER_THREAD.to_string())
            .spawn(move || {
                let plan = UpdatePlan {
                    versions: UPDATE_VERSIONS,
                    rows_per_version: UPDATE_ROWS,
                    pace: UPDATE_PACE,
                    seed,
                };
                let mut report = UpdaterReport::default();
                let started = Instant::now();
                while !flag.load(Ordering::Acquire) {
                    let rolled = Instant::now();
                    match Updater::new(Arc::clone(&channel), plan).run() {
                        Ok(stats) => report.stats.accumulate(&stats),
                        Err(e) => {
                            report.error = Some(e.to_string());
                            break;
                        }
                    }
                    let per_version = rolled.elapsed().as_secs_f64() / UPDATE_VERSIONS as f64;
                    report
                        .version_ms
                        .push((per_version - UPDATE_PACE.as_secs_f64()) * 1e3);
                }
                report.seconds = started.elapsed().as_secs_f64();
                report
            })
            .expect("updater thread spawns");
        UpdaterThread { stop, thread }
    }

    fn stop(self) -> UpdaterReport {
        self.stop.store(true, Ordering::Release);
        self.thread.join().expect("updater thread does not panic")
    }
}

fn bits_equal(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| match (&x.payload, &y.payload) {
                (ValuePayload::Dense(p), ValuePayload::Dense(q)) => {
                    p.dims() == q.dims()
                        && p.as_slice()
                            .iter()
                            .zip(q.as_slice())
                            .all(|(u, v)| u.to_bits() == v.to_bits())
                }
                _ => x == y,
            })
}

fn build_model(id: ModelId, store: Option<&Arc<EmbeddingStore>>) -> RecModel {
    match store {
        Some(s) => id.build_with_store(ModelScale::Paper, MODEL_SEED, Arc::clone(s)),
        None => id.build(ModelScale::Paper, MODEL_SEED),
    }
    .expect("reference model builds")
}

/// Compares every sampled response bit for bit with the sequential
/// reference executor on the same single-sample inputs, from models
/// built with the same seed against `store`. Returns the mismatches.
fn check_outputs(store: Option<&Arc<EmbeddingStore>>, lanes: &[Lane], samples: &[Sample]) -> u64 {
    let mut models: BTreeMap<usize, RecModel> = BTreeMap::new();
    let mut mismatches = 0;
    for sample in samples {
        let model = models
            .entry(sample.lane)
            .or_insert_with(|| build_model(lanes[sample.lane].model, store));
        let inputs = lanes[sample.lane].pool[sample.pool_index].clone();
        let expected = model
            .run_reference(inputs)
            .expect("reference executor runs");
        if !bits_equal(&expected, &sample.outputs) {
            mismatches += 1;
        }
    }
    mismatches
}

/// Rows of `model`'s tables whose stored values differ, bit for bit,
/// between the store the updater wrote to and a freshly built one.
fn restore_drift_rows(
    model: ModelId,
    served: &Arc<EmbeddingStore>,
    fresh: &Arc<EmbeddingStore>,
) -> u64 {
    let namespace = drec_models::store_namespace(model, ModelScale::Paper, MODEL_SEED);
    let mut drifted = 0;
    for (ordinal, rows, dim) in served.namespace_tables(namespace) {
        let pin = |s: &Arc<EmbeddingStore>| {
            s.pin(s.lookup(namespace, ordinal).expect("table is registered"))
        };
        let (a, b) = (pin(served), pin(fresh));
        let (mut x, mut y) = (vec![0.0f32; dim], vec![0.0f32; dim]);
        for row in 0..rows as u32 {
            a.read_row_raw(row, &mut x).expect("row in range");
            b.read_row_raw(row, &mut y).expect("row in range");
            drifted += u64::from(x.iter().zip(&y).any(|(u, v)| u.to_bits() != v.to_bits()));
        }
    }
    drifted
}

/// What the runtime and the process report at one moment.
struct Observation {
    snap: MetricsSnapshot,
    decisions: Vec<DecisionSnapshot>,
    thread_cpu: BTreeMap<&'static str, f64>,
}

fn observe(rt: &Runtime) -> Observation {
    Observation {
        snap: rt.snapshot(),
        decisions: rt.decisions(),
        thread_cpu: procfs::thread_cpu_seconds(),
    }
}

/// Counter deltas of the serving runtime over the measured windows.
struct Deltas {
    seconds: f64,
    snap: MetricsSnapshot,
    base: MetricsSnapshot,
    store: Option<StoreStats>,
    cpu_batches: u64,
    cpu_queries: u64,
    thread_cpu: BTreeMap<&'static str, f64>,
}

impl Deltas {
    fn between(before: Observation, after: Observation) -> Deltas {
        let sum = |o: &Observation, f: fn(&DecisionSnapshot) -> u64| {
            o.decisions.iter().map(f).sum::<u64>()
        };
        Deltas {
            seconds: after.snap.uptime_seconds - before.snap.uptime_seconds,
            store: after.snap.store.as_ref().map(|s| match &before.snap.store {
                Some(b) => s.since(b),
                None => s.clone(),
            }),
            cpu_batches: sum(&after, |d| d.cpu_batches) - sum(&before, |d| d.cpu_batches),
            cpu_queries: sum(&after, |d| d.cpu_queries) - sum(&before, |d| d.cpu_queries),
            thread_cpu: after
                .thread_cpu
                .iter()
                .map(|(role, s)| {
                    (
                        *role,
                        s - before.thread_cpu.get(role).copied().unwrap_or(0.0),
                    )
                })
                .collect(),
            snap: after.snap,
            base: before.snap,
        }
    }

    fn count(&self, f: fn(&MetricsSnapshot) -> u64) -> f64 {
        f(&self.snap).saturating_sub(f(&self.base)) as f64
    }

    /// A cumulative busy share of the snapshots as a share of the
    /// measured span only.
    fn share(&self, f: fn(&MetricsSnapshot) -> f64) -> f64 {
        let busy =
            f(&self.snap) * self.snap.uptime_seconds - f(&self.base) * self.base.uptime_seconds;
        (busy / self.seconds.max(1e-9)).clamp(0.0, 1.0)
    }
}

fn pooled(windows: &[Window], f: impl Fn(&Window) -> Vec<f64>) -> Vec<f64> {
    let mut all: Vec<f64> = windows.iter().flat_map(f).collect();
    sort(&mut all);
    all
}

/// Median over windows of a per-window percentile of the latencies.
fn window_percentile(windows: &[Window], q: f64) -> f64 {
    let per_window: Vec<f64> = windows
        .iter()
        .map(|w| percentile(&w.latencies_ms(), q))
        .collect();
    median(&per_window)
}

/// The batch size the median request rode in (`hist[size]` = requests).
fn hist_median(hist: &[u64]) -> usize {
    let half = hist.iter().sum::<u64>().div_ceil(2);
    let mut seen = 0;
    hist.iter()
        .position(|&n| {
            seen += n;
            n > 0 && seen >= half
        })
        .unwrap_or(0)
}

fn per(total: f64, requests: f64) -> f64 {
    if requests > 0.0 {
        total / requests
    } else {
        0.0
    }
}

fn timed_start(w: &Workload) -> (Runtime, f64) {
    let starting = Instant::now();
    let rt = Runtime::start(w).expect("runtime starts");
    (rt, starting.elapsed().as_secs_f64())
}

pub fn run(args: &RunArgs) -> RunOutput {
    let w = args.workload;
    let host_cpu_start = procfs::host_cpu();
    // A traced run splits the same `--seconds` between the closed-loop
    // windows (60 %), the control window or open-loop phases (10 % each)
    // and the layer replay (15 %), so it takes about as long as an
    // untraced one.
    let seconds = if args.smoke { 2.0 } else { args.seconds };
    let (measured, phase) = if args.traced { (0.6, 0.1) } else { (1.0, 0.2) };
    let (windows, warmup, cycles) = if args.smoke {
        // One window, or a traced and an untraced one.
        (1 + usize::from(args.traced), w.warmup.min(200) as u64, 1)
    } else {
        (WINDOWS, w.warmup as u64, SETUP_CYCLES)
    };
    let window = Duration::from_secs_f64(seconds * measured / windows as f64);
    let phase = Duration::from_secs_f64(seconds * phase);
    let replay_budget = Duration::from_secs_f64(seconds * 0.15);
    let mut m = Metrics::default();
    let mut notes = Vec::new();

    // Set-up, first of several cycles: start the runtime and run the
    // fixed-count warm-up. This first runtime is the one measured, so
    // that `peak_rss_mb` is that of a process which has set up once; the
    // other cycles follow the measurement.
    let (mut setup_s, mut start_s) = (Vec::new(), Vec::new());
    let (rt, started) = timed_start(w);
    start_s.push(started);
    let generating = Instant::now();
    let pool = make_lanes(w, &rt, args.seed);
    let requests: usize = pool.iter().map(|l| l.pool.len()).sum();
    m.set(
        "workload.gen_us_per_req",
        generating.elapsed().as_secs_f64() * 1e6 / requests as f64,
    );
    if w.target == Target::Colocated {
        let rows = rt.store().map_or(0, |s| s.stats().rows);
        assert_eq!(
            rows, COLOCATED_ROWS as u64,
            "the co-located models' row count changed: update COLOCATED_ROWS"
        );
    }
    let mut gen = LoadGen::new(w, &rt, pool, CHECK_EVERY);
    let warming = Instant::now();
    let warm_ok = gen.run_count(warmup);
    setup_s.push(started + warming.elapsed().as_secs_f64());
    if warm_ok != warmup {
        notes.push(format!(
            "warm-up: only {warm_ok} of {warmup} requests were answered Ok"
        ));
    }

    // The measured span. On `update_mixed` the responses checked are
    // those of the control window, after the updater has restored the
    // originals and stopped.
    let before = observe(&rt);
    let first_model = w.models()[0];
    let updater = w
        .updater
        .then(|| UpdaterThread::spawn(rt.update_channel(first_model), args.seed));
    gen.sampling = !w.updater;
    let mut tracer = Tracer::new();
    // A traced run records spans in every second window; its untraced
    // windows are the even ones.
    let (measured, mut counters) =
        gen.run_windows(windows, window, args.traced.then_some(&mut tracer));
    let (untraced, traced): (Vec<Window>, Vec<Window>) = if args.traced {
        let (even, odd): (Vec<_>, Vec<_>) = measured
            .into_iter()
            .enumerate()
            .partition(|(i, _)| i % 2 == 0);
        let strip = |v: Vec<(usize, Window)>| v.into_iter().map(|(_, x)| x).collect();
        (strip(even), strip(odd))
    } else {
        (measured, Vec::new())
    };
    let deltas = Deltas::between(before, observe(&rt));
    let update = updater.map(UpdaterThread::stop);
    let control = w.updater.then(|| {
        gen.sampling = true;
        let (control, c) = gen.run_windows(1, phase, None);
        counters.non_finite += c.non_finite;
        control
    });
    gen.sampling = false;

    let all: Vec<Window> = untraced.iter().chain(&traced).cloned().collect();
    let ok: f64 = all.iter().map(|x| x.ok as f64).sum();
    let attempted: u64 = all.iter().map(Window::attempted).sum();
    let failed: u64 = all.iter().map(|x| x.failed).sum();

    notes.push(format!(
        "per-window qps {:.0?}, p50 ms {:.3?}",
        untraced.iter().map(Window::qps).collect::<Vec<_>>(),
        untraced
            .iter()
            .map(|x| window_percentile(std::slice::from_ref(x), 0.50))
            .collect::<Vec<_>>()
    ));

    // End-to-end metrics: the median untraced window.
    let latency_p50 = window_percentile(&untraced, 0.50);
    let qps = median(&untraced.iter().map(Window::qps).collect::<Vec<_>>());
    m.set(
        "goodput_qps",
        median(&untraced.iter().map(Window::goodput_qps).collect::<Vec<_>>()),
    );
    m.set("latency_p50_ms", latency_p50);
    m.set(
        "cpu_ms_per_req",
        median(
            &untraced
                .iter()
                .map(|x| per(x.cpu_seconds * 1e3, x.ok as f64))
                .collect::<Vec<_>>(),
        ),
    );
    // Open-loop diagnostics of the traced co-located run.
    let goodput = m.get("goodput_qps");
    if args.traced && w.target == Target::Colocated && goodput > 0.0 {
        for (name, factor) in [("open.half", 0.5), ("open.over", 1.5)] {
            let phase = openloop::run_phase(
                &rt.handle(),
                &gen.lanes,
                goodput * factor,
                phase,
                args.seed ^ factor.to_bits(),
                w.limit_ms,
            );
            m.set(&format!("{name}.lag_ms_p99"), phase.lag_ms_p99);
            m.set(&format!("{name}.latency_p50_ms"), phase.latency_p50_ms);
            m.set(&format!("{name}.latency_p99_ms"), phase.latency_p99_ms);
            m.set(&format!("{name}.shed_share"), phase.shed_share);
            m.set(&format!("{name}.goodput_qps"), phase.goodput_qps);
        }
    }
    // Before the reference models and the replay add their own memory.
    m.set("peak_rss_mb", procfs::peak_rss_mb());

    // Load generator validity.
    m.set("loadgen.requests_sent", attempted as f64);
    m.set("loadgen.requests_ok", ok);
    m.set("loadgen.requests_failed", failed as f64);
    m.set("loadgen.ok_share", per(ok, attempted as f64));
    let within: f64 = all.iter().map(|x| x.within_limit as f64).sum();
    m.set("loadgen.within_limit_share", per(within, attempted as f64));
    m.set("loadgen.latency_p99_ms", window_percentile(&untraced, 0.99));
    let spread = spread_pct(&untraced.iter().map(Window::qps).collect::<Vec<_>>());
    m.set("loadgen.window_spread_pct", spread);
    let own_p50 = percentile(&pooled(&all, Window::latencies_ms), 0.50);
    let runtime_p50 = percentile(&pooled(&all, |x| x.runtime_ms.clone()), 0.50);
    let clock_gap = per((own_p50 - runtime_p50).abs() * 100.0, own_p50);
    m.set("loadgen.clock_agreement_pct", clock_gap);
    if clock_gap > 5.0 {
        // The runtime stamps a request inside `submit` and when its batch
        // ends; the benchmark's clock adds the generator's wake-up.
        notes.push(format!(
            "own clock and Response.wall_seconds differ by {clock_gap:.1} % at p50 \
             ({own_p50:.3} vs {runtime_p50:.3} ms)"
        ));
    }

    // Serving runtime, batcher, pool, store, tier, prefetcher.
    let submit_p50 = percentile(&pooled(&all, |x| x.submit_us.clone()), 0.50);
    match w.target {
        Target::Single(_) => m.set("serve.submit_us_p50", submit_p50),
        Target::Colocated => {
            m.set("sched.submit_us_p50", submit_p50);
            m.set("sched.cpu_batches", deltas.cpu_batches as f64);
            m.set(
                "sched.mean_batch",
                per(deltas.cpu_queries as f64, deltas.cpu_batches as f64),
            );
            for (i, lane) in gen.lanes.iter().enumerate() {
                let l = pooled(&all, |x| x.lane_latency_ms[i].clone());
                m.set_per_model("sched.latency_p50_ms", lane.model, percentile(&l, 0.50));
            }
        }
    }
    m.set("serve.accepted", deltas.count(|s| s.accepted));
    m.set("serve.shed", deltas.count(|s| s.shed));
    m.set(
        "serve.rejected_invalid",
        deltas.count(|s| s.rejected_invalid),
    );
    m.set(
        "serve.deadline_exceeded",
        deltas.count(|s| s.deadline_exceeded),
    );
    m.set("serve.failed", deltas.count(|s| s.failed));
    m.set("serve.retried", deltas.count(|s| s.retried));
    m.set("serve.worker_restarts", deltas.count(|s| s.worker_restarts));
    m.set(
        "serve.worker_utilization",
        deltas.share(|s| s.worker_utilization[0]),
    );
    m.set(
        "degrade.entered_update_backpressure",
        deltas.count(|s| s.entered_update_backpressure),
    );
    m.set(
        "degrade.entered_reduced_batch",
        deltas.count(|s| s.entered_reduced_batch),
    );
    m.set(
        "degrade.entered_cache_only",
        deltas.count(|s| s.entered_cache_only),
    );
    let batches = deltas.count(|s| s.batches);
    let completed = deltas.count(|s| s.completed);
    m.set("batcher.batches", batches);
    m.set("batcher.mean_batch", per(completed, batches));
    m.set(
        "batcher.batch_p50",
        hist_median(&counters.batch_hist) as f64,
    );
    m.set(
        "batcher.batch_max",
        counters.batch_hist.len().saturating_sub(1) as f64,
    );
    let depth = match w.target {
        Target::Single(_) => per(counters.depth_sum as f64, counters.depth_samples as f64),
        // The scheduler does not expose its lane queues: what is
        // outstanding and not in service is queued.
        Target::Colocated => {
            (gen.lanes.len() * w.outstanding) as f64 - deltas.share(|s| s.worker_utilization[0])
        }
    };
    m.set("batcher.queue_depth_mean", depth);
    m.set("batcher.queue_wait_ms_est", per(depth * 1e3, qps));
    m.set("par.pool_utilization", deltas.share(|s| s.pool_utilization));
    m.set(
        "par.tasks_per_req",
        per(deltas.count(|s| s.pool_tasks), completed),
    );
    if let Some(s) = &deltas.store {
        m.set("store.rows_read_per_req", per(s.lookups as f64, completed));
        m.set("store.cache_hit_rate", s.hit_rate());
        m.set(
            "store.cache_evictions_per_req",
            per(s.cache_evictions as f64, completed),
        );
        m.set(
            "store.decodes_per_req",
            per((s.decode_vector + s.decode_scalar) as f64, completed),
        );
        m.set("store.vector_decode_fraction", s.vector_decode_fraction());
        m.set("store.resident_mb", s.resident_bytes as f64 / 1e6);
        m.set("store.compression", s.compression());
        if s.tier_dram_budget_rows > 0 {
            m.set("tier.dram_hit_rate", s.combined_dram_hit_rate());
            m.set(
                "tier.cold_reads_per_req",
                per(s.tier_cold_demand_reads as f64, completed),
            );
            m.set(
                "tier.demand_wait_virtual_us_per_req",
                per(s.tier_demand_wait_nanos as f64 / 1e3, completed),
            );
            m.set("tier.prefetch_conversion", s.prefetch_conversion());
            m.set("tier.combined_lookup_cut", s.combined_lookup_cut());
            m.set(
                "prefetch.issued_per_req",
                per(s.prefetch_issued as f64, completed),
            );
            m.set(
                "prefetch.wasted_share",
                per(s.prefetch_wasted as f64, s.prefetch_fills as f64),
            );
        }
    }
    for (role, name) in [
        ("worker", "cpu.worker_ms_per_req"),
        ("par", "cpu.par_ms_per_req"),
        ("prefetch", "cpu.prefetch_ms_per_req"),
        ("updater", "cpu.updater_ms_per_req"),
        ("loadgen", "cpu.loadgen_ms_per_req"),
    ] {
        m.set(
            name,
            per(
                deltas.thread_cpu.get(role).copied().unwrap_or(0.0) * 1e3,
                completed,
            ),
        );
    }

    // Updater.
    if let (Some(u), Some(control)) = (&update, &control) {
        m.set("update.version_ms_p50", median(&u.version_ms));
        m.set("update.versions_rolled", u.stats.batches_applied as f64);
        m.set(
            "update.rows_applied_per_s",
            per(u.stats.rows_applied as f64, u.seconds),
        );
        m.set(
            "update.max_staleness",
            rt.update_channel(first_model).max_staleness() as f64,
        );
        m.set("update.throttle_waits", u.stats.throttle_waits as f64);
        m.set("update.rolled_back", u.stats.rolled_back as f64);
        m.set(
            "update.read_p50_ratio",
            per(latency_p50, window_percentile(control, 0.50)),
        );
        if let Some(e) = &u.error {
            notes.push(format!("updater stopped on an error: {e}"));
        }
    }

    // Traced run: tracing overhead, layer replay, reconciliation.
    if args.traced {
        let traced_p50 = window_percentile(&traced, 0.50);
        m.set(
            "trace.overhead_pct",
            per((traced_p50 - latency_p50) * 100.0, latency_p50),
        );
        let store = rt.store();
        let mut flagged = false;
        let (mut flops, mut rows) = (0.0, 0.0);
        for (i, lane) in gen.lanes.iter().enumerate() {
            let lane_ok: f64 = all.iter().map(|x| x.lane_latency_ms[i].len() as f64).sum();
            let share = per(lane_ok, ok);
            // A single-model lane rides in the batches the histogram
            // saw; a co-located lane has one request outstanding.
            let hist = match w.target {
                Target::Single(_) => counters.batch_hist.clone(),
                Target::Colocated => vec![0, 1],
            };
            let mut replay = Replay::new(lane.model, store.as_ref());
            let lane_replay = layers::replay_lane(
                &mut replay,
                &lane.pool,
                &hist,
                share,
                replay_budget / gen.lanes.len() as u32,
                &mut tracer,
                &mut m,
            );
            flagged |= lane_replay.flagged;
            flops += lane_replay.flops_per_req;
            rows += lane_replay.rows_per_req;
        }
        if flagged {
            notes.push("replay: children exceeded their parent by more than 10 % at some point; self times there are clamped at 0".into());
        }
        m.set(
            "tensor.gemm_gflops",
            per(flops / 1e3, m.get("tensor.gemm_us_per_req")),
        );
        m.set(
            "store.sum_row_ns",
            per(m.get("store.gather_us_per_req") * 1e3, rows),
        );
        if w.target == Target::Colocated {
            let modelled_ms: f64 = per(all.iter().map(|x| x.modelled_ms_sum).sum(), ok);
            m.set(
                "sched.measured_over_modelled",
                per(m.get("engine.us_per_req") / 1e3, modelled_ms),
            );
        }
        layers::micro(&mut m);
        let mean_batch = m.get("batcher.mean_batch").max(1.0);
        let explained = submit_p50 / 1e3
            + m.get("batcher.queue_wait_ms_est")
            + m.get("engine.us_per_req") / 1e3 * mean_batch;
        m.set(
            "trace.reconcile_residual_pct",
            per((latency_p50 - explained) * 100.0, latency_p50),
        );
        m.set("trace.spans", tracer.spans().len() as f64);
    }

    // Output check, then shutdown.
    // The reference models read a fresh store of the same configuration.
    // Not on `update_mixed`: requantizing a restored int8 row does not
    // always give back the original bytes, so there the reference reads
    // the served store and the rows that drifted are counted instead.
    let samples = std::mem::take(&mut gen.samples);
    let fresh = (w.store)().map(|cfg| Arc::new(EmbeddingStore::new(cfg)));
    let mismatches = counters.non_finite
        + if w.updater {
            let served = rt.store().expect("update_mixed is store-backed");
            let fresh = fresh.as_ref().expect("update_mixed is store-backed");
            drop(build_model(first_model, Some(fresh)));
            m.set(
                "update.restore_drift_rows",
                restore_drift_rows(first_model, &served, fresh) as f64,
            );
            check_outputs(Some(&served), &gen.lanes, &samples)
        } else {
            check_outputs(fresh.as_ref(), &gen.lanes, &samples)
        };
    m.set("loadgen.outputs_checked", samples.len() as f64);
    m.set("loadgen.output_mismatches", mismatches as f64);
    if let Some(e) = &counters.first_error {
        notes.push(format!("first failed request: {e}"));
    }
    let mut pool = gen.into_lanes();
    let draining = Instant::now();
    rt.shutdown();
    m.set(
        "serve.shutdown_drain_ms",
        draining.elapsed().as_secs_f64() * 1e3,
    );

    // The other set-up cycles, each on a runtime of its own.
    for _ in 1..cycles {
        let (rt, started) = timed_start(w);
        start_s.push(started);
        let mut gen = LoadGen::new(w, &rt, pool, CHECK_EVERY);
        let warming = Instant::now();
        gen.run_count(warmup);
        setup_s.push(started + warming.elapsed().as_secs_f64());
        pool = gen.into_lanes();
        rt.shutdown();
    }
    m.set("setup_s", median(&setup_s));
    let start_name = match w.target {
        Target::Single(_) => "serve.start_s",
        Target::Colocated => "sched.start_s",
    };
    m.set(start_name, median(&start_s));
    let steal = procfs::steal_pct(host_cpu_start, procfs::host_cpu());
    m.set("loadgen.steal_pct", steal);

    let host = HostBlock {
        workload: w,
        seed: args.seed,
        traced: args.traced,
        windows: untraced.len(),
        window_seconds: window.as_secs_f64(),
        steal_pct: steal,
    };
    if args.traced {
        let path = args
            .trace_out
            .clone()
            .unwrap_or_else(|| format!("perf_bench_trace.{}.jsonl", w.name));
        let written = std::fs::File::create(&path)
            .and_then(|f| tracer.write_jsonl(std::io::BufWriter::new(f), &host.to_json()));
        match written {
            Ok(()) => notes.push(format!("{} spans written to {path}", tracer.spans().len())),
            Err(e) => notes.push(format!("trace file {path} not written: {e}")),
        }
    }
    let noisy = if steal > 20.0 {
        Some(format!("steal {steal:.1} % > 20 %"))
    } else if spread > 15.0 {
        Some(format!("window spread {spread:.1} % > 15 %"))
    } else {
        None
    };
    RunOutput {
        host,
        noisy,
        outcome: Outcome {
            correct: mismatches == 0 && !samples.is_empty(),
            attempted,
            failed,
        },
        metrics: m,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drec_tensor::Tensor;

    #[test]
    fn output_check_is_bitwise() {
        let dense = |v: Vec<f32>| {
            vec![Value::dense(
                Tensor::from_vec(v, &[1, 2]).expect("dims fit"),
            )]
        };
        assert!(bits_equal(&dense(vec![1.0, 2.0]), &dense(vec![1.0, 2.0])));
        assert!(!bits_equal(
            &dense(vec![1.0, 2.0]),
            &dense(vec![1.0, 2.0000002])
        ));
        // `==` on f32 would accept the first pair and reject the second.
        assert!(!bits_equal(&dense(vec![0.0, 2.0]), &dense(vec![-0.0, 2.0])));
        assert!(bits_equal(
            &dense(vec![f32::NAN, 2.0]),
            &dense(vec![f32::NAN, 2.0])
        ));
        assert!(!bits_equal(&dense(vec![1.0, 2.0]), &[]));
    }

    #[test]
    fn median_batch_is_weighted_by_requests() {
        // 3 requests alone, 4 in pairs, 8 in fours: the 8th of 15 rode in a four.
        assert_eq!(hist_median(&[0, 3, 4, 0, 8]), 4);
        assert_eq!(hist_median(&[0, 9, 4, 0, 4]), 1);
        assert_eq!(hist_median(&[]), 0);
    }
}
