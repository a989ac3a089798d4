//! A co-located start spawns only its pool's workers: with no store,
//! that is its CPU workers, plus the accelerator worker when one is
//! configured — the runtime owns no thread of its own. Its own test
//! binary, so no other test's threads come and go in the count.
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

/// The thread names once every worker of the process pool has named
/// itself: a thread takes its name when it first runs, so a read before
/// that lists it under its spawner's name, and it would later count as
/// gained.
fn settled() -> Vec<String> {
    let pool_workers = drec_par::global().threads() - 1;
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let names = threads();
        let named = names.iter().filter(|n| n.starts_with("drec-par-"));
        if named.count() >= pool_workers {
            return names;
        }
        assert!(
            Instant::now() < deadline,
            "the process pool never named its workers: {names:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The names in `during` that `before` does not account for, one each.
fn gained(before: &[String], during: &[String]) -> Vec<String> {
    let mut unmatched = before.to_vec();
    let mut gained = Vec::new();
    for name in during {
        match unmatched.iter().position(|b| b == name) {
            Some(i) => {
                unmatched.swap_remove(i);
            }
            None => gained.push(name.clone()),
        }
    }
    gained
}

/// Starts `cfg` and waits until the process has gained exactly
/// `expected` threads, every one a pool worker.
fn start_gains_only_pool_workers(cfg: SchedConfig, expected: usize) {
    let before = settled();
    let runtime = MultiServeRuntime::start(cfg).expect("runtime starts");
    // A joined calibration helper can outlive its join by a moment in
    // the task list; a parked pool thread never leaves it.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let new = gained(&before, &threads());
        let workers = new.iter().all(|name| name.starts_with("drec-sched-cpu-"));
        if new.len() == expected && workers {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "start added {} threads, expected {expected} pool workers \
             (drec-sched-cpu-*): {new:?}, before start {before:?}",
            new.len(),
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    runtime.shutdown();
}

#[test]
fn a_colocated_start_spawns_only_its_pool_workers() {
    // The process pool's workers exist before start, whoever forces it.
    drop(drec_par::global());
    let slo = Duration::from_millis(50);
    let mut cfg = SchedConfig::tiny(vec![
        ModelSlo::new(ModelId::Ncf, slo),
        ModelSlo::new(ModelId::Wnd, slo),
    ]);
    cfg.store = None;
    let workers = cfg.cpu_workers;
    // With the accelerator, as configured: one worker more.
    assert!(
        cfg.gpu.is_some(),
        "the tiny configuration has an accelerator"
    );
    start_gains_only_pool_workers(cfg.clone(), workers + 1);
    // Without it: the CPU workers alone.
    cfg.gpu = None;
    start_gains_only_pool_workers(cfg, workers);
}
