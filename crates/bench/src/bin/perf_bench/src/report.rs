//! Metric names, units and directions (the one table `BENCHMARK.json`
//! is generated from), the value map a run fills, and the output: a
//! host-and-configuration block, every metric by name with its unit,
//! and the machine-readable result as the last line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use drec_models::ModelId;

use crate::workloads::{model_key, Workload, WORKLOADS};

/// The gated end-to-end metrics: name, unit, better direction, and the
/// share of the parent's median by which it may get worse.
///
/// Only these two are steady enough on the shared host this was written
/// on to carry a bound. Throughput, latency and CPU per request are what
/// a user sees first, but ten runs of the same code spread by 8-30 %
/// there (the host's speed wanders by a factor of 1.5 over minutes), more
/// than the widest bound a metric may have, so they head the per-layer
/// table instead: reported on every run, compared by paired runs, not
/// gated. See "Host noise" in the README.
pub const END_TO_END: &[(&str, &str, &str, f64)] = &[
    ("peak_rss_mb", "MB", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
];

/// The user-visible metrics that are reported but not gated.
pub const HEADLINE: [&str; 3] = ["goodput_qps", "latency_p50_ms", "cpu_ms_per_req"];

/// Per-layer metrics: name, unit, better direction. A metric that does
/// not apply to a workload (the tier on a dense model) reads 0 there.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("goodput_qps", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("cpu_ms_per_req", "ms", "lower"),
    ("loadgen.requests_sent", "count", "higher"),
    ("loadgen.requests_ok", "count", "higher"),
    ("loadgen.requests_failed", "count", "lower"),
    ("loadgen.ok_share", "share", "higher"),
    ("loadgen.within_limit_share", "share", "higher"),
    ("loadgen.latency_p99_ms", "ms", "lower"),
    ("loadgen.window_spread_pct", "%", "lower"),
    ("loadgen.clock_agreement_pct", "%", "lower"),
    ("loadgen.outputs_checked", "count", "higher"),
    ("loadgen.output_mismatches", "count", "lower"),
    ("loadgen.steal_pct", "%", "lower"),
    ("workload.gen_us_per_req", "us", "lower"),
    ("serve.submit_us_p50", "us", "lower"),
    ("serve.accepted", "count", "higher"),
    ("serve.shed", "count", "lower"),
    ("serve.rejected_invalid", "count", "lower"),
    ("serve.deadline_exceeded", "count", "lower"),
    ("serve.failed", "count", "lower"),
    ("serve.retried", "count", "lower"),
    ("serve.worker_restarts", "count", "lower"),
    ("serve.worker_utilization", "share", "higher"),
    ("serve.start_s", "s", "lower"),
    ("serve.shutdown_drain_ms", "ms", "lower"),
    ("batcher.mean_batch", "count", "higher"),
    ("batcher.batches", "count", "lower"),
    ("batcher.batch_p50", "count", "higher"),
    ("batcher.batch_max", "count", "higher"),
    ("batcher.queue_depth_mean", "count", "lower"),
    ("batcher.queue_wait_ms_est", "ms", "lower"),
    ("batcher.push_pop_ns_per_req", "ns", "lower"),
    ("engine.us_per_req", "us", "lower"),
    ("engine.us_per_req.b1", "us", "lower"),
    ("engine.us_per_req.b8", "us", "lower"),
    ("engine.us_per_req.b64", "us", "lower"),
    ("engine.coalesce_us_per_req", "us", "lower"),
    ("engine.split_us_per_req", "us", "lower"),
    ("engine.self_us_per_req", "us", "lower"),
    ("graph.plan_execute_us_per_req", "us", "lower"),
    ("graph.reference_us_per_req", "us", "lower"),
    ("graph.self_us_per_req", "us", "lower"),
    ("graph.plan_ops", "count", "lower"),
    ("graph.plan_waves", "count", "lower"),
    ("graph.compile_us", "us", "lower"),
    ("tensor.gemm_us_per_req", "us", "lower"),
    ("tensor.gemm_gflops", "gflop/s", "higher"),
    ("tensor.sum_i8_ns_per_row", "ns", "lower"),
    ("par.pool_utilization", "share", "higher"),
    ("par.tasks_per_req", "count", "lower"),
    ("par.dispatch_us", "us", "lower"),
    ("store.gather_us_per_req", "us", "lower"),
    ("store.sum_row_ns", "ns", "lower"),
    ("store.rows_read_per_req", "count", "lower"),
    ("store.cache_hit_rate", "share", "higher"),
    ("store.cache_evictions_per_req", "count", "lower"),
    ("store.decodes_per_req", "count", "lower"),
    ("store.vector_decode_fraction", "share", "higher"),
    ("store.resident_mb", "MB", "lower"),
    ("store.compression", "ratio", "higher"),
    ("store.apply_update_us_per_row", "us", "lower"),
    ("tier.dram_hit_rate", "share", "higher"),
    ("tier.cold_reads_per_req", "count", "lower"),
    ("tier.demand_wait_virtual_us_per_req", "us", "lower"),
    ("tier.prefetch_conversion", "share", "higher"),
    ("tier.combined_lookup_cut", "share", "higher"),
    ("tier.demand_access_ns", "ns", "lower"),
    ("prefetch.issued_per_req", "count", "lower"),
    ("prefetch.wasted_share", "share", "lower"),
    ("cpu.worker_ms_per_req", "ms", "lower"),
    ("cpu.par_ms_per_req", "ms", "lower"),
    ("cpu.prefetch_ms_per_req", "ms", "lower"),
    ("cpu.updater_ms_per_req", "ms", "lower"),
    ("cpu.loadgen_ms_per_req", "ms", "lower"),
    ("sched.submit_us_p50", "us", "lower"),
    ("sched.cpu_batches", "count", "lower"),
    ("sched.mean_batch", "count", "higher"),
    ("sched.start_s", "s", "lower"),
    ("sched.measured_over_modelled", "ratio", "lower"),
    ("sched.latency_p50_ms.ncf", "ms", "lower"),
    ("sched.latency_p50_ms.rm1", "ms", "lower"),
    ("sched.latency_p50_ms.rm2", "ms", "lower"),
    ("sched.latency_p50_ms.rm3", "ms", "lower"),
    ("sched.latency_p50_ms.wnd", "ms", "lower"),
    ("sched.latency_p50_ms.mt-wnd", "ms", "lower"),
    ("sched.latency_p50_ms.din", "ms", "lower"),
    ("sched.latency_p50_ms.dien", "ms", "lower"),
    ("sync.ring_push_pop_ns", "ns", "lower"),
    ("sync.epoch_pin_ns", "ns", "lower"),
    ("update.version_ms_p50", "ms", "lower"),
    ("update.versions_rolled", "count", "higher"),
    ("update.rows_applied_per_s", "1/s", "higher"),
    ("update.max_staleness", "count", "lower"),
    ("update.throttle_waits", "count", "lower"),
    ("update.rolled_back", "count", "lower"),
    ("update.read_p50_ratio", "ratio", "lower"),
    ("update.restore_drift_rows", "count", "lower"),
    ("degrade.entered_update_backpressure", "count", "lower"),
    ("degrade.entered_reduced_batch", "count", "lower"),
    ("degrade.entered_cache_only", "count", "lower"),
    ("open.half.lag_ms_p99", "ms", "lower"),
    ("open.half.latency_p50_ms", "ms", "lower"),
    ("open.half.latency_p99_ms", "ms", "lower"),
    ("open.half.shed_share", "share", "lower"),
    ("open.half.goodput_qps", "1/s", "higher"),
    ("open.over.lag_ms_p99", "ms", "lower"),
    ("open.over.latency_p50_ms", "ms", "lower"),
    ("open.over.latency_p99_ms", "ms", "lower"),
    ("open.over.shed_share", "share", "lower"),
    ("open.over.goodput_qps", "1/s", "higher"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.reconcile_residual_pct", "%", "lower"),
];

/// Values of one run, keyed by names from the tables above.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

/// The table's own copy of `name`, so a misspelt metric fails the run
/// that first writes it instead of silently reading 0.
fn defined(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|d| d.0)
        .chain(PER_LAYER.iter().map(|d| d.0))
        .find(|&d| d == name)
        .unwrap_or_else(|| panic!("metric '{name}' is not in the benchmark's tables"))
}

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(defined(name), value);
    }

    pub fn add(&mut self, name: &str, value: f64) {
        *self.0.entry(defined(name)).or_insert(0.0) += value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    pub fn set_per_model(&mut self, prefix: &str, model: ModelId, value: f64) {
        self.set(&format!("{prefix}.{}", model_key(model)), value);
    }
}

/// A JSON number: every digit measured, and 0 for a value that is not
/// finite (JSON has no NaN).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// What the host and the configuration were, for every output.
pub struct HostBlock {
    pub workload: &'static Workload,
    pub seed: u64,
    pub traced: bool,
    pub windows: usize,
    pub window_seconds: f64,
    pub steal_pct: f64,
}

/// The checked-out commit, read from `.git` in the working directory;
/// `unknown` outside a git checkout.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.into()
        };
    };
    if let Ok(hash) = std::fs::read_to_string(format!(".git/{reference}")) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .unwrap_or_default()
        .lines()
        .find_map(|l| {
            l.strip_suffix(reference)
                .map(|hash| hash.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

impl HostBlock {
    pub fn to_json(&self) -> String {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let env: Vec<String> = std::env::vars()
            .filter(|(k, _)| k.starts_with("DREC_"))
            .collect::<BTreeMap<_, _>>()
            .iter()
            .map(|(k, v)| format!("{}:{}", quoted(k), quoted(v)))
            .collect();
        let w = self.workload;
        format!(
            "{{\"workload\":{},\"seed\":{},\"traced\":{},\"nproc\":{nproc},\"kernel_backend\":{},\
             \"queue\":{},\"git_commit\":{},\"env\":{{{}}},\"threads\":{},\"outstanding_per_lane\":{},\
             \"lanes\":{},\"limit_ms\":{},\"windows\":{},\"window_s\":{},\"steal_pct\":{}}}",
            quoted(w.name),
            self.seed,
            self.traced,
            quoted(drec_tensor::simd::backend_label()),
            quoted(drec_serve::QueueKind::from_env().name()),
            quoted(&git_commit()),
            env.join(","),
            w.threads,
            w.outstanding,
            w.models().len(),
            number(w.limit_ms),
            self.windows,
            number(self.window_seconds),
            number(self.steal_pct),
        )
    }
}

/// Outcome of one run, as the last output line reports it.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
}

/// The machine-readable result: exactly `correct`, `attempted`, `failed`
/// and `metrics`, the latter holding every end-to-end metric of an
/// untraced run or every per-layer metric of a traced one.
pub fn result_line(outcome: &Outcome, m: &Metrics, traced: bool) -> String {
    let defs: Vec<(&str, &str)> = if traced {
        PER_LAYER.iter().map(|d| (d.0, d.1)).collect()
    } else {
        END_TO_END.iter().map(|d| (d.0, d.1)).collect()
    };
    let metrics: Vec<String> = defs
        .iter()
        .map(|(name, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                quoted(name),
                number(m.get(name)),
                quoted(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(",")
    )
}

/// Prints the whole report of one run. The first line says when the
/// run was noisy; the last is [`result_line`].
pub fn print(
    host: &HostBlock,
    noisy: Option<String>,
    outcome: &Outcome,
    m: &Metrics,
    notes: &[String],
) {
    let flag = noisy.map_or(String::new(), |why| format!(" NOISY ({why})"));
    println!(
        "perf_bench: workload={} seed={} trace={}{flag}",
        host.workload.name,
        host.seed,
        u8::from(host.traced)
    );
    println!("host: {}", host.to_json());
    for (name, unit, _, bound) in END_TO_END {
        if !host.traced {
            let bound = bound * 100.0;
            println!(
                "  {name:<40} {:>14.4} {unit:<8} (bound {bound:.0} %)",
                m.get(name)
            );
        }
    }
    for (name, unit, _) in PER_LAYER {
        // An untraced run still has the counters it took on the way;
        // it prints those it has and leaves the replay to `--trace`.
        if host.traced || m.0.contains_key(name) {
            println!("  {name:<40} {:>14.4} {unit}", m.get(name));
        }
    }
    for note in notes {
        println!("note: {note}");
    }
    println!("{}", result_line(outcome, m, host.traced));
}

/// `BENCHMARK.json`, generated from the tables so the file and the
/// program cannot name different metrics.
pub fn manifest(run_seconds: u64) -> String {
    let rows = |items: Vec<String>| items.join(",\n    ");
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "{{\"name\": {}, \"why\": {}}}",
                quoted(w.name),
                quoted(w.why)
            )
        })
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|(name, unit, better, bound)| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quoted(name),
                quoted(unit),
                quoted(better),
                number(*bound)
            )
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quoted(name),
                quoted(unit),
                quoted(better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \
         \"crates/bench/src/bin/perf_bench/Cargo.toml\", \"--\"],\n  \"paths\": [\"crates/bench/src/bin/perf_bench\"],\n  \
         \"run_seconds\": {run_seconds},\n  \"workloads\": [\n    {}\n  ],\n  \"end_to_end\": [\n    {}\n  ],\n  \
         \"per_layer\": [\n    {}\n  ]\n}}",
        rows(workloads),
        rows(end_to_end),
        rows(per_layer)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_fit_the_benchmark_contract() {
        let all: Vec<(&str, &str)> = END_TO_END
            .iter()
            .map(|d| (d.0, d.1))
            .chain(PER_LAYER.iter().map(|d| (d.0, d.1)))
            .collect();
        for (i, (name, unit)) in all.iter().enumerate() {
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_ascii_alphanumeric()),
                "{name}"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
            assert!(
                !all[..i].iter().any(|other| other.0 == *name),
                "{name} is defined twice"
            );
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().all(|d| d.3 <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|d| d.0 == "setup_s" && d.1 == "s" && d.2 == "lower"));
        for id in ModelId::ALL {
            defined(&format!("sched.latency_p50_ms.{}", model_key(id)));
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::default();
        m.set("peak_rss_mb", 81.2034);
        m.set("loadgen.steal_pct", f64::NAN);
        let outcome = Outcome {
            correct: true,
            attempted: 1000,
            failed: 0,
        };
        let line = result_line(&outcome, &m, false);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":1000,\"failed\":0,\"metrics\":{"));
        assert!(line.contains("\"peak_rss_mb\":{\"value\":81.2034,\"unit\":\"MB\"}"));
        assert!(line.contains("\"setup_s\":{\"value\":0,\"unit\":\"s\"}"));
        assert!(!line.contains("loadgen."));
        let traced = result_line(&outcome, &m, true);
        assert!(traced.contains("\"loadgen.steal_pct\":{\"value\":0,\"unit\":\"%\"}"));
        assert!(!traced.contains("\"setup_s\""));
        assert_eq!(traced.matches("\"value\"").count(), PER_LAYER.len());
    }

    #[test]
    #[should_panic(expected = "not in the benchmark's tables")]
    fn an_undefined_metric_name_is_refused() {
        Metrics::default().set("latency_p50", 1.0);
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(quoted("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
