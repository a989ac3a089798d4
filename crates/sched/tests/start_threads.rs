//! A co-located start spawns only the threads it uses: with no
//! accelerator, no tuner and no store, that is its CPU workers. Its own
//! test binary, so no other test's threads come and go in the count.
#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use drec_models::ModelId;
use drec_sched::{ModelSlo, MultiServeRuntime, SchedConfig};

/// The process's thread names, from `/proc/self/task/*/comm`.
fn threads() -> Vec<String> {
    let tasks = std::fs::read_dir("/proc/self/task").expect("procfs");
    let comm = |task: std::fs::DirEntry| std::fs::read_to_string(task.path().join("comm")).ok();
    let mut names: Vec<String> = tasks
        .filter_map(|task| comm(task.ok()?))
        .map(|name| name.trim_end().to_string())
        .collect();
    names.sort();
    names
}

#[test]
fn a_colocated_start_spawns_only_its_cpu_workers() {
    // The process pool's workers exist before start, whoever forces it.
    drop(drec_par::global());
    let before = threads();
    let slo = Duration::from_millis(50);
    let mut cfg = SchedConfig::tiny(vec![
        ModelSlo::new(ModelId::Ncf, slo),
        ModelSlo::new(ModelId::Wnd, slo),
    ]);
    cfg.gpu = None;
    cfg.tuner = None;
    cfg.store = None;
    let workers = cfg.cpu_workers;
    let runtime = MultiServeRuntime::start(cfg).expect("runtime starts");
    // A joined calibration helper can outlive its join by a moment in
    // the task list; a parked pool thread never leaves it.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let during = threads();
        if during.len() == before.len() + workers {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "start added {} threads, expected its {workers} CPU workers: {during:?}, \
             before start {before:?}",
            during.len() as isize - before.len() as isize,
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    runtime.shutdown();
}
