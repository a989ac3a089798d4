//! `drec-sched` — co-location as a placement on the one serving
//! runtime, with CPU/GPU batch splitting.
//!
//! The paper's eight model classes share machines, and DeepRecSys-style
//! schedulers answer two questions per query — *how large a batch should
//! it ride in*, and *should that batch run on the CPU or an
//! accelerator?* This crate answers both with a [`Colocation`]: a
//! placement and a pool configuration for `drec-serve`'s one runtime
//! type, `ServeRuntime::start_pool`, with one lane per model.
//!
//! * [`Colocation::calibrate`] builds every model and calibrates its
//!   [`ModelProfile`]: a CPU cost curve (microarchitectural simulation)
//!   and a GPU dispatch oracle (roofline + PCIe), yielding a
//!   deterministic crossover batch size `b*`. The accelerator, one more
//!   worker of the pool, takes a model's batch only at or past it, and
//!   none of a model without one; CPU workers take any batch.
//! * Batch size has one shrinking rule, each lane's overload ladder. A
//!   model's [`ModelSlo`] is a target the caller checks, not a knob the
//!   runtime turns.
//! * [`MultiServeRuntime`] and [`MultiServeHandle`] address that runtime
//!   and its lanes by model.
//!
//! Placement is *simulated*, execution is *real*: offloaded batches run
//! the same kernels as CPU batches, so a response carries the bits of its
//! sample run alone on a standalone model, whichever batch it rode in and
//! whichever backend ran it, while its latency is priced by the roofline
//! model. `sched_bench` turns the decisions into gates and checks every
//! answered request's bits.

mod crew;
mod profile;
mod runtime;

pub use profile::{ModelProfile, ProfileConfig};
pub use runtime::{
    Colocation, DecisionSnapshot, GpuSchedConfig, ModelSlo, MultiServeHandle, MultiServeRuntime,
    SchedConfig, SchedReport,
};

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
    fn answered_requests_match_batch_one_runs_on_standalone_models() {
        let cfg = two_model_cfg();
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
            let inputs = gen.batch(handle.spec(id).unwrap(), 1);
            pending.push((id, inputs.clone(), handle.submit(id, inputs).unwrap()));
        }
        let mut standalone = [ModelId::Ncf, ModelId::Wnd].map(|id| {
            let mut model = id.build(cfg.scale, cfg.seed).unwrap();
            model.compile_plan();
            (id, model)
        });
        let bits = |outputs: &[drec_ops::Value]| -> Vec<Vec<u32>> {
            let dense = outputs.iter().map(|v| v.as_dense().unwrap().as_slice());
            dense
                .map(|row| row.iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        for (i, (id, inputs, p)) in pending.into_iter().enumerate() {
            let response = p.wait().unwrap();
            let (_, model) = standalone.iter_mut().find(|(m, _)| *m == id).unwrap();
            let alone = model.run(inputs).unwrap();
            assert_eq!(bits(&response.outputs), bits(&alone), "request {i} ({id})");
        }
        runtime.shutdown();
    }

    #[test]
    fn dispatch_signal_pulse_after_generation_read_is_never_missed() {
        // The worker protocol of `drec_serve::ServeRuntime` is: read `seen =
        // signal.generation()`, poll every lane, then `wait_until(seen, ..)`.
        // A pulse landing anywhere between the generation read and the
        // wait must make that wait return immediately — otherwise a
        // request admitted in the window would sit until the 50ms
        // housekeeping timeout (a missed wakeup). Slam the window from
        // a second thread: with 200 iterations a lost pulse turns into
        // seconds of accumulated housekeeping stalls, so the wall-clock
        // bound below fails loudly while staying slack enough for CI.
        use drec_sync::EventCount;
        use std::sync::Arc;
        use std::time::Instant;
        let signal = Arc::new(EventCount::new());
        let start = Instant::now();
        for _ in 0..200 {
            let seen = signal.generation();
            let pulser = {
                let signal = Arc::clone(&signal);
                std::thread::spawn(move || signal.advance())
            };
            let woke = signal.wait_until(seen, None);
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
