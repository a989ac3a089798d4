//! `drec-sched` — multi-model co-location scheduler with per-query
//! batching and CPU/GPU query splitting.
//!
//! `drec-serve`'s `ServeRuntime` runs *one* model on a lane pool of its
//! own. Production recommendation fleets don't get that luxury: the
//! paper's eight model classes share machines, and DeepRecSys-style
//! schedulers answer two questions per query — *how large a batch should
//! it ride in*, and *should that batch run on the CPU or an
//! accelerator?* This crate operationalizes both on the same lane pool,
//! one lane per model, through its placement hook:
//!
//! * [`MultiServeRuntime`] co-locates any subset of the workspace's
//!   models on one shared CPU worker pool plus an optional simulated
//!   accelerator, behind per-model admission queues (each with its own
//!   deadlines, priorities, and overload ladder).
//! * [`ModelProfile`] calibrates, per model, a CPU cost curve
//!   (microarchitectural simulation) and a GPU dispatch oracle
//!   (roofline + PCIe), yielding a deterministic crossover batch size:
//!   batches at or past it offload, smaller ones stay on CPU.
//! * [`ModelTuner`] hill-climbs each model's batch cap and intra-op
//!   pool width against its p99 SLO from live windowed histograms.
//!
//! Placement is *simulated*, execution is *real*: offloaded batches run
//! the same kernels as CPU batches (results are bit-identical — see
//! [`replay_records`]), while their latency is priced by the roofline
//! model. That keeps every scheduling decision reproducible for a fixed
//! seed, which `sched_bench` turns into acceptance gates.

mod profile;
mod runtime;
mod tuner;

pub use profile::{ModelProfile, ProfileConfig};
pub use runtime::{
    replay_records, Backend, BatchRecord, DecisionSnapshot, GpuSchedConfig, ModelSlo,
    MultiServeHandle, MultiServeRuntime, SchedConfig, SchedReport,
};
pub use tuner::{ModelTuner, TunerConfig, TunerStep};

#[cfg(test)]
mod tests {
    use super::*;
    use drec_models::ModelId;
    use drec_serve::ServeError;
    use std::time::Duration;

    fn two_model_cfg() -> SchedConfig {
        SchedConfig::tiny(vec![
            ModelSlo::new(ModelId::Ncf, Duration::from_millis(50)),
            ModelSlo::new(ModelId::Wnd, Duration::from_millis(50)),
        ])
    }

    #[test]
    fn serves_two_colocated_models_and_reports_per_model_channels() {
        let runtime = MultiServeRuntime::start(two_model_cfg()).unwrap();
        let handle = runtime.handle();
        let mut gen = drec_workload::QueryGen::uniform(11);
        let mut pending = Vec::new();
        for _ in 0..8 {
            for id in [ModelId::Ncf, ModelId::Wnd] {
                let spec = handle.spec(id).unwrap().clone();
                pending.push(handle.submit(id, gen.batch(&spec, 1)).unwrap());
            }
        }
        for p in pending {
            let response = p.wait().unwrap();
            assert!(!response.outputs.is_empty());
        }
        let report = runtime.shutdown();
        assert_eq!(report.snapshot.completed, 16);
        let names: Vec<&str> = report
            .snapshot
            .models
            .iter()
            .map(|m| m.name.as_str())
            .collect();
        assert_eq!(names, vec!["NCF", "WnD"]);
        for model in &report.snapshot.models {
            assert_eq!(
                model.completed, 8,
                "per-model completions for {}",
                model.name
            );
            assert!(model.p99_seconds >= 0.0);
        }
        let routed: u64 = report
            .decisions
            .iter()
            .map(|d| d.cpu_queries + d.gpu_queries)
            .sum();
        assert_eq!(routed, 16, "every query shows up in the decision stats");
    }

    #[test]
    fn unknown_model_is_rejected_as_invalid_input() {
        let runtime = MultiServeRuntime::start(two_model_cfg()).unwrap();
        let handle = runtime.handle();
        let err = handle.submit(ModelId::Dien, vec![]).unwrap_err();
        assert!(matches!(err, ServeError::InvalidInput { .. }), "{err}");
        runtime.shutdown();
    }

    #[test]
    fn saturated_backends_shed_with_typed_error_instead_of_hanging() {
        // Deterministic saturation: a huge max_wait plus max_batch >
        // queue_capacity means the queue coalesces forever and never
        // releases a batch, so overflow admission paths are exercised
        // without timing races. The tiny GPU backlog then fills from
        // spills, and the next arrival must see NoBackendAvailable.
        let mut cfg = two_model_cfg();
        cfg.max_wait = Duration::from_secs(60);
        cfg.max_batch = 64;
        cfg.queue_capacity = 4;
        cfg.delay_budget = Duration::from_secs(3600);
        cfg.tuner = None;
        cfg.gpu = Some(GpuSchedConfig {
            backlog_capacity: 2,
            ..GpuSchedConfig::default()
        });
        let runtime = MultiServeRuntime::start(cfg).unwrap();
        let handle = runtime.handle();
        let spec = handle.spec(ModelId::Ncf).unwrap().clone();
        let mut gen = drec_workload::QueryGen::uniform(3);
        let mut accepted = Vec::new();
        let mut shed = None;
        // 4 fill the queue, 2 spill to the accelerator backlog; the
        // first arrival after both are full must be shed. Spilled work
        // completes asynchronously, so allow a generous margin.
        for _ in 0..64 {
            match handle.submit(ModelId::Ncf, gen.batch(&spec, 1)) {
                Ok(p) => accepted.push(p),
                Err(e) => {
                    shed = Some(e);
                    break;
                }
            }
        }
        let err = shed.expect("a full queue and full backlog must shed");
        match &err {
            ServeError::NoBackendAvailable {
                model, cpu_depth, ..
            } => {
                assert_eq!(model, "NCF");
                assert!(*cpu_depth >= 4, "queue was full at shed time");
            }
            other => panic!("expected NoBackendAvailable, got {other}"),
        }
        // Shutdown drains the coalescing queue; every accepted request
        // still gets an answer (success or a typed error) — no hangs.
        let report = runtime.shutdown();
        let mut answered = 0usize;
        for p in accepted {
            let _ = p.wait();
            answered += 1;
        }
        assert!(answered >= 4);
        assert!(report.snapshot.shed >= 1);
    }

    #[test]
    fn recorded_batches_replay_bit_identically_on_standalone_engines() {
        let mut cfg = two_model_cfg();
        cfg.record_batches = true;
        let runtime = MultiServeRuntime::start(cfg.clone()).unwrap();
        let handle = runtime.handle();
        let mut gen = drec_workload::QueryGen::zipf(29, 0.9);
        let mut pending = Vec::new();
        for i in 0..24 {
            let id = if i % 3 == 0 {
                ModelId::Wnd
            } else {
                ModelId::Ncf
            };
            let spec = handle.spec(id).unwrap().clone();
            pending.push(handle.submit(id, gen.batch(&spec, 1)).unwrap());
        }
        for p in pending {
            p.wait().unwrap();
        }
        let report = runtime.shutdown();
        assert!(!report.records.is_empty());
        let verified = replay_records(cfg.scale, cfg.seed, &report.records).unwrap();
        assert_eq!(verified, report.records.len());
    }

    #[test]
    fn dispatch_signal_pulse_after_generation_read_is_never_missed() {
        // The worker protocol of `drec_serve::LanePool` is: read `seen =
        // signal.generation()`, poll every lane, then `wait(seen, ..)`.
        // A pulse landing anywhere between the generation read and the
        // wait must make that wait return immediately — otherwise a
        // request admitted in the window would sit until the 50ms
        // housekeeping timeout (a missed wakeup). Slam the window from
        // a second thread: with 200 iterations a lost pulse turns into
        // seconds of accumulated housekeeping stalls, so the wall-clock
        // bound below fails loudly while staying slack enough for CI.
        use drec_serve::DispatchSignal;
        use std::sync::Arc;
        use std::time::Instant;
        let signal = Arc::new(DispatchSignal::new());
        let start = Instant::now();
        for _ in 0..200 {
            let seen = signal.generation();
            let pulser = {
                let signal = Arc::clone(&signal);
                std::thread::spawn(move || signal.pulse())
            };
            let woke = signal.wait(seen, None);
            assert!(
                woke > seen,
                "wait returned without observing the pulse ({woke} <= {seen})"
            );
            pulser.join().unwrap();
        }
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "waits piled up housekeeping timeouts — pulses are being missed \
             ({:?} for 200 round-trips)",
            start.elapsed()
        );
    }

    #[test]
    fn handle_outliving_runtime_reports_shutdown() {
        let runtime = MultiServeRuntime::start(two_model_cfg()).unwrap();
        let handle = runtime.handle();
        let spec = handle.spec(ModelId::Ncf).unwrap().clone();
        let inputs = drec_workload::QueryGen::uniform(5).batch(&spec, 1);
        runtime.shutdown();
        let err = handle.submit(ModelId::Ncf, inputs).unwrap_err();
        assert!(matches!(err, ServeError::ShuttingDown), "{err}");
    }
}
