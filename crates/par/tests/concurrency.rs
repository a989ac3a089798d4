//! Concurrency invariants of the `drec-par` pool: exactly-once chunk and
//! column-tile coverage under contention, panic propagation without
//! deadlock, determinism of chunk boundaries across pool sizes, and
//! hand-offs to spinning and to parked workers.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use drec_par::{ParPool, SPIN};

#[test]
fn for_each_chunk_touches_every_index_exactly_once_under_8_threads() {
    let pool = ParPool::new(8);
    const LEN: usize = 100_000;
    let touched: Vec<AtomicU32> = (0..LEN).map(|_| AtomicU32::new(0)).collect();
    pool.for_each_chunk(LEN, 37, |range| {
        for i in range {
            touched[i].fetch_add(1, Ordering::Relaxed);
        }
    });
    for (i, t) in touched.iter().enumerate() {
        assert_eq!(t.load(Ordering::Relaxed), 1, "index {i} touched != once");
    }
}

#[test]
fn panicking_chunk_propagates_and_pool_survives() {
    let pool = ParPool::new(8);
    let before_panic = AtomicUsize::new(0);
    let result = catch_unwind(AssertUnwindSafe(|| {
        pool.for_each_chunk(64, 4, |range| {
            if range.start == 12 {
                panic!("chunk boom");
            }
            before_panic.fetch_add(range.len(), Ordering::Relaxed);
        });
    }));
    let payload = result.expect_err("panic must propagate to the caller");
    let msg = payload
        .downcast_ref::<&str>()
        .copied()
        .unwrap_or("<non-str payload>");
    assert_eq!(msg, "chunk boom");

    // The pool is not deadlocked or poisoned: the same pool completes
    // fresh work, and every index is still covered exactly once.
    let counter = AtomicUsize::new(0);
    pool.for_each_chunk(1000, 9, |range| {
        counter.fetch_add(range.len(), Ordering::Relaxed);
    });
    assert_eq!(counter.load(Ordering::Relaxed), 1000);
}

#[test]
fn panicking_scope_task_does_not_leak_into_later_scopes() {
    let pool = ParPool::new(4);
    let result = catch_unwind(AssertUnwindSafe(|| {
        pool.scope(|s| {
            s.spawn(|| panic!("task boom"));
            s.spawn(|| {});
        });
    }));
    assert!(result.is_err());
    // A later scope on the same pool runs clean.
    let ok = AtomicUsize::new(0);
    pool.scope(|s| {
        for _ in 0..8 {
            s.spawn(|| {
                ok.fetch_add(1, Ordering::Relaxed);
            });
        }
    });
    assert_eq!(ok.load(Ordering::Relaxed), 8);
}

#[test]
fn chunk_mut_is_disjoint_and_complete_under_contention() {
    let pool = ParPool::new(8);
    let mut data = vec![0u32; 50_000];
    pool.for_each_chunk_mut(&mut data, 113, |offset, sub| {
        for (i, v) in sub.iter_mut().enumerate() {
            *v += (offset + i) as u32;
        }
    });
    for (i, v) in data.iter().enumerate() {
        assert_eq!(*v, i as u32);
    }
}

#[test]
fn chunk_boundaries_are_identical_across_pool_sizes() {
    // The determinism contract: boundaries depend only on (len, chunk).
    let collect = |threads: usize| {
        let pool = ParPool::new(threads);
        let ranges = std::sync::Mutex::new(Vec::new());
        pool.for_each_chunk(1234, 100, |range| {
            ranges.lock().unwrap().push((range.start, range.end));
        });
        let mut r = ranges.into_inner().unwrap();
        r.sort_unstable();
        r
    };
    let one = collect(1);
    assert_eq!(one, collect(2));
    assert_eq!(one, collect(8));
    assert_eq!(one.len(), 13);
    assert_eq!(one.last(), Some(&(1200, 1234)));
}

#[test]
fn concurrent_scopes_from_many_threads_share_one_pool() {
    // Serving workers share the process pool; scopes opened concurrently
    // must all complete (helpers may execute each other's tasks).
    let pool = ParPool::new(4);
    let total = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..6 {
            let pool = &pool;
            let total = &total;
            s.spawn(move || {
                pool.for_each_chunk(10_000, 61, |range| {
                    total.fetch_add(range.len(), Ordering::Relaxed);
                });
            });
        }
    });
    assert_eq!(total.load(Ordering::Relaxed), 60_000);
}

#[test]
fn column_tiles_written_by_different_threads_cover_the_matrix_exactly_once() {
    // 3 rows × 10 columns in tiles of 4 → strips of 4, 4 and 2 columns.
    // The barrier holds every tile until all three are running, so each
    // is on a thread of its own while it writes.
    const ROWS: usize = 3;
    const COLS: usize = 10;
    let pool = ParPool::new(3);
    let all_running = Barrier::new(3);
    let threads = Mutex::new(HashSet::new());
    let mut data = vec![f32::NAN; ROWS * COLS];
    pool.for_each_column_tile_mut(&mut data, COLS, 4, |col0, rows| {
        all_running.wait();
        threads.lock().unwrap().insert(std::thread::current().id());
        assert_eq!(rows.len(), ROWS);
        for (r, strip) in rows.iter_mut().enumerate() {
            assert_eq!(strip.len(), (COLS - col0).min(4));
            for (c, cell) in strip.iter_mut().enumerate() {
                // A cell still NaN is written for the first time; a second
                // write would leave something other than its index.
                *cell = if cell.is_nan() {
                    (r * COLS + col0 + c) as f32
                } else {
                    f32::INFINITY
                };
            }
        }
    });
    assert_eq!(threads.lock().unwrap().len(), 3, "one thread per tile");
    for (i, v) in data.iter().enumerate() {
        assert_eq!(*v, i as f32, "cell {i} not written exactly once");
    }
}

#[test]
fn column_tiles_run_inline_in_order_on_one_thread() {
    let pool = ParPool::new(1);
    let order = Mutex::new(Vec::new());
    let mut data = vec![0u8; 2 * 9];
    pool.for_each_column_tile_mut(&mut data, 9, 4, |col0, rows| {
        order.lock().unwrap().push((col0, rows[1].len()));
    });
    assert_eq!(*order.lock().unwrap(), vec![(0, 4), (4, 4), (8, 1)]);
}

#[test]
fn handoffs_to_spinning_and_to_parked_workers_run_every_task_once() {
    // A pool as wide as the host spins before it parks; one wider than
    // the host (8 threads on the 2-core runner) parks at once. Gaps
    // shorter than the spin budget hand work to workers still spinning,
    // longer ones to workers that have parked.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let gaps = [Duration::ZERO, SPIN / 4, SPIN * 5];
    for threads in [cores.max(2), 8] {
        let pool = ParPool::new(threads);
        for round in 0..300 {
            std::thread::sleep(gaps[round % gaps.len()]);
            let ran: Vec<AtomicU32> = (0..16).map(|_| AtomicU32::new(0)).collect();
            pool.scope(|s| {
                for count in &ran {
                    s.spawn(move || {
                        count.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
            for (task, count) in ran.iter().enumerate() {
                let runs = count.load(Ordering::Relaxed);
                assert_eq!(runs, 1, "{threads} threads, round {round}, task {task}");
            }
        }
        // Dropped right after a scope, while its workers spin.
        let started = Instant::now();
        drop(pool);
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "a {threads}-thread pool took {:?} to join",
            started.elapsed()
        );
    }
}
