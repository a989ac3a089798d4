//! An idle pool parks: once a scope has returned and the spin budget
//! ([`drec_par::SPIN`]) has passed, its worker thread accrues no CPU time.
//!
//! A binary of its own, so that no other pool's `drec-par-*` threads are
//! in the process. Linux only: CPU time is read from
//! `/proc/self/task/*/stat`.

#![cfg(target_os = "linux")]

use std::mem::ManuallyDrop;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use drec_par::{ParPool, SPIN};

/// `utime + stime`, in clock ticks, of every `drec-par-*` thread of this
/// process.
fn worker_ticks() -> Vec<u64> {
    let mut ticks = Vec::new();
    for task in std::fs::read_dir("/proc/self/task").expect("procfs") {
        let dir = task.expect("task entry").path();
        let comm = std::fs::read_to_string(dir.join("comm")).unwrap_or_default();
        if !comm.starts_with("drec-par-") {
            continue;
        }
        let stat = std::fs::read_to_string(dir.join("stat")).expect("task stat");
        // After the parenthesised name come fields 3 (state) onwards;
        // utime and stime are fields 14 and 15.
        let fields: Vec<&str> = stat[stat.rfind(')').expect("comm") + 1..]
            .split_whitespace()
            .collect();
        let field = |n: usize| fields[n - 3].parse::<u64>().expect("tick count");
        ticks.push(field(14) + field(15));
    }
    ticks
}

#[test]
fn an_idle_pool_parks_once_its_spin_has_passed() {
    // Not dropped on a failed assertion: a worker that never parks would
    // also never see the shutdown, and the test would hang, not fail.
    let pool = ManuallyDrop::new(ParPool::new(2));
    let covered = AtomicUsize::new(0);
    pool.for_each_chunk(64, 1, |range| {
        covered.fetch_add(range.len(), Ordering::Relaxed);
    });
    assert_eq!(covered.load(Ordering::Relaxed), 64);
    // Well past the budget, even for a worker descheduled mid-spin.
    std::thread::sleep(SPIN * 250);
    let before = worker_ticks();
    assert_eq!(before.len(), 1, "a two-thread pool has one worker");
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(
        worker_ticks(),
        before,
        "the idle worker used CPU after its spin budget"
    );
    drop(ManuallyDrop::into_inner(pool));
}
