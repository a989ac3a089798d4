//! Model-checked interleaving tests for the serving hot path: batcher
//! admission/eviction/drain, the overload ladder's
//! stepwise transitions, the dispatch-signal parking protocol, the
//! prefetch window's wake-up protocol, and the sparse read path's locks
//! (tier session vs. row update vs. prefetch fill, two bags' shard
//! guards vs. row updates, bags vs. an update batch's shard guards,
//! hot-key probe vs. insert).
//!
//! Compiled out of plain builds (`#![cfg(loom)]`): without `--cfg loom`
//! the drec-sync primitives carry no schedule points, so the explorer
//! would see one schedule. CI runs this suite with
//! `RUSTFLAGS="--cfg loom" cargo test -p drec-serve --test loom_serve`.
//!
//! Time-dependent branches are pinned: `max_wait` is always
//! `Duration::ZERO` (a queued request is instantly releasable, so no
//! coalescing deadline depends on the wall clock) and `delay_budget` is
//! huge (admission never sheds on estimated delay, only on depth).
#![cfg(loom)]

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use drec_serve::{
    BatchPoll, BatcherConfig, DegradeConfig, OverloadLadder, OverloadLevel, PrefetchWindow,
    Priority, Request, SharedQueue, SubmitOptions,
};
use drec_sync::model::model;
use drec_sync::thread::{spawn, yield_now};
use drec_sync::EventCount;

fn cfg(max_batch: usize, capacity: usize) -> BatcherConfig {
    BatcherConfig {
        max_batch,
        max_wait: Duration::ZERO,
        queue_capacity: capacity,
        delay_budget: Duration::from_secs(3600),
        per_query_service_estimate: 0.0,
    }
}

fn queue_of(c: BatcherConfig, signal: Option<Arc<EventCount>>) -> SharedQueue {
    let ladder = Arc::new(OverloadLadder::new(
        DegradeConfig::default(),
        c.queue_capacity,
        None,
    ));
    SharedQueue::with_signal(c, ladder, signal.unwrap_or_default())
}

fn request(id: u64, priority: Priority) -> Request {
    Request::new(
        id,
        Vec::new(),
        SubmitOptions {
            deadline: None,
            priority,
        },
    )
    .0
}

/// A producer racing a drain loop: every admitted request comes out of
/// the queue exactly once, in every interleaving.
#[test]
fn concurrent_push_and_drain_deliver_every_request() {
    model(|| {
        let q = Arc::new(queue_of(cfg(8, 100), None));
        let producer = {
            let q = Arc::clone(&q);
            spawn(move || {
                for id in 0..2 {
                    q.try_push(request(id, Priority::Normal)).unwrap();
                }
            })
        };
        let mut got = Vec::new();
        while got.len() < 2 {
            match q.try_next_batch() {
                BatchPoll::Ready(batch) => {
                    assert!(batch.expired.is_empty(), "no deadlines were set");
                    got.extend(batch.requests.iter().map(|r| r.id));
                }
                BatchPoll::Idle | BatchPoll::Coalescing(_) => yield_now(),
                BatchPoll::Closed => panic!("queue closed while open"),
            }
        }
        producer.join().unwrap();
        assert_eq!(got, vec![0, 1], "lost or reordered");
        assert_eq!(q.depth(), 0);
    });
}

/// Close racing a straggler push: the request is either rejected at
/// admission or survives into the teardown drain — never silently gone.
/// This is the race the lane pool covers with its unconditional final
/// `close(); drain_all()` sweep.
#[test]
fn close_racing_push_never_loses_a_request() {
    model(|| {
        let q = Arc::new(queue_of(cfg(8, 100), None));
        let producer = {
            let q = Arc::clone(&q);
            spawn(move || q.try_push(request(7, Priority::Normal)).is_ok())
        };
        q.close();
        let admitted = producer.join().unwrap();
        let drained: Vec<u64> = q.drain_all().iter().map(|r| r.id).collect();
        if admitted {
            assert_eq!(drained, vec![7], "admitted then lost");
        } else {
            assert!(drained.is_empty(), "shed yet queued");
        }
    });
}

/// Two high-priority arrivals hammering a full queue of low-priority
/// work: whatever mix of evictions and sheds the schedule produces,
/// every request is accounted for exactly once (queued, evicted, or
/// shed) and the queue never exceeds its capacity.
#[test]
fn concurrent_eviction_conserves_every_request() {
    model(|| {
        let q = Arc::new(queue_of(cfg(8, 2), None));
        q.try_push(request(0, Priority::Low)).unwrap();
        q.try_push(request(1, Priority::Low)).unwrap();
        let pushers: Vec<_> = [2u64, 3u64]
            .into_iter()
            .map(|id| {
                let q = Arc::clone(&q);
                spawn(move || match q.try_push(request(id, Priority::High)) {
                    Ok(None) => (None, None),
                    Ok(Some((victim, _err))) => (Some(victim.id), None),
                    Err((shed, _err)) => (None, Some(shed.id)),
                })
            })
            .collect();
        let mut seen = BTreeSet::new();
        for t in pushers {
            let (victim, shed) = t.join().unwrap();
            for id in victim.into_iter().chain(shed) {
                assert!(seen.insert(id), "{id} accounted twice");
            }
        }
        assert!(q.depth() <= 2, "queue over capacity");
        q.close();
        for r in q.drain_all() {
            assert!(seen.insert(r.id), "{} accounted twice", r.id);
        }
        assert_eq!(
            seen.into_iter().collect::<Vec<_>>(),
            vec![0, 1, 2, 3],
            "a request vanished"
        );
    });
}

/// Concurrent observers of a saturated queue walk the ladder one rung at
/// a time: each transition happens exactly once however the CAS races
/// resolve, and recovery steps back down through the same rungs.
#[test]
fn overload_ladder_transitions_exactly_once_under_contention() {
    model(|| {
        let ladder = Arc::new(OverloadLadder::new(DegradeConfig::default(), 10, None));
        let observers: Vec<_> = (0..2)
            .map(|_| {
                let ladder = Arc::clone(&ladder);
                spawn(move || ladder.observe(10))
            })
            .collect();
        for t in observers {
            t.join().unwrap();
        }
        assert_eq!(ladder.level(), OverloadLevel::CacheOnly);
        ladder.observe(0);
        assert_eq!(ladder.level(), OverloadLevel::Normal);
        assert_eq!(
            ladder.transition_counts(),
            (1, 1, 1, 1, 1, 1),
            "each rung must be crossed exactly once in each direction"
        );
    });
}

/// The lane pool's worker parking protocol: read the signal
/// generation, poll, and only then wait. A push landing anywhere in that
/// window must not strand the dispatcher.
#[test]
fn dispatch_signal_parking_never_strands_the_dispatcher() {
    model(|| {
        let signal = Arc::new(EventCount::new());
        let q = Arc::new(queue_of(cfg(8, 100), Some(Arc::clone(&signal))));
        let producer = {
            let q = Arc::clone(&q);
            spawn(move || q.try_push(request(0, Priority::Normal)).unwrap())
        };
        let batch = loop {
            let seen = signal.generation();
            match q.try_next_batch() {
                BatchPoll::Ready(batch) => break batch,
                BatchPoll::Idle => {
                    signal.wait_until(seen, None);
                }
                BatchPoll::Coalescing(deadline) => {
                    signal.wait_until(seen, Some(deadline));
                }
                BatchPoll::Closed => panic!("queue closed while open"),
            }
        };
        producer.join().unwrap();
        assert_eq!(batch.requests.len(), 1);
        assert_eq!(batch.requests[0].id, 0);
    });
}

/// The stream prefetcher's pacing protocol on the real
/// [`PrefetchWindow`], with a window of one row and one-row jobs, so a
/// single filled job fills it. Admission queues jobs 0 and 1, a worker
/// takes request 0, and the fill thread runs the runtime's loop (`next`,
/// fill, `filled`) until it has filled job 1. Job 0 may be filled,
/// dropped by the worker or dropped at the door; job 1 is eligible once
/// request 0 is retired, whichever side gets there last, and must be
/// handed out. A fill thread left parked beside it is a deadlock here.
/// Both notifies are load-bearing: without the one in `retire_through`
/// the thread that parked on a full window with job 1 queued never wakes,
/// without the one in `enqueue` the thread that parked on an empty queue
/// never does — remove either and this model fails.
#[test]
fn prefetch_window_never_strands_an_eligible_job() {
    model(|| {
        let window = Arc::new(PrefetchWindow::<()>::new(1));
        let admission = {
            let window = Arc::clone(&window);
            spawn(move || window.enqueue(0, 1, ()) + window.enqueue(1, 1, ()))
        };
        let worker = {
            let window = Arc::clone(&window);
            spawn(move || window.retire_through(0))
        };
        let filler = {
            let window = Arc::clone(&window);
            spawn(move || {
                let mut filled = Vec::new();
                while let Some((id, ())) = window.next() {
                    window.filled(id, 1);
                    filled.push(id);
                    if id == 1 {
                        break;
                    }
                }
                filled
            })
        };
        let dropped = admission.join().unwrap() + worker.join().unwrap();
        let filled = filler.join().unwrap();
        assert_eq!(filled.last(), Some(&1), "job 1 was never handed out");
        assert_eq!(filled.len() + dropped, 2, "job 0 is filled or dropped");
        assert_eq!(window.ahead_rows(), 1, "only job 1 is ahead of the workers");
    });
}

/// The same three parties with `close` racing them: the fill thread
/// always terminates — parked on an empty queue, parked on a full window
/// with a job still queued, or between two fills — and what the window
/// counts at the end is exactly the rows filled for requests no worker
/// took: job 1's row if it was filled, never job 0's (request 0 was
/// taken), never less than nothing.
#[test]
fn prefetch_window_close_always_ends_the_fill_loop() {
    model(|| {
        let window = Arc::new(PrefetchWindow::<()>::new(1));
        let admission = {
            let window = Arc::clone(&window);
            spawn(move || window.enqueue(0, 1, ()) + window.enqueue(1, 1, ()))
        };
        let worker = {
            let window = Arc::clone(&window);
            spawn(move || window.retire_through(0))
        };
        let filler = {
            let window = Arc::clone(&window);
            spawn(move || {
                let mut filled = Vec::new();
                while let Some((id, ())) = window.next() {
                    window.filled(id, 1);
                    filled.push(id);
                }
                filled
            })
        };
        window.close();
        let dropped = admission.join().unwrap() + worker.join().unwrap();
        let filled = filler.join().unwrap();
        assert!(filled.len() + dropped <= 2, "a job was filled and dropped");
        assert_eq!(window.ahead_rows(), usize::from(filled.contains(&1)));
        assert_eq!(window.next(), None, "closed for good");
    });
}

/// The prefetch-fill/row-update race from `drec-store`/`drec-tier`, on
/// the real [`TierEngine`] (its one lock is a `drec_sync::Mutex`, so the
/// explorer schedules around it): a filler captures the table's write
/// stamp, reads the row, and the engine inserts residency only if the
/// stamp is unchanged *under the tier lock*; the updater rewrites the
/// row, bumps the stamp, and then invalidates under the same lock; a
/// bag reader holds a session on other keys meanwhile. In every
/// interleaving the end state must be either not-resident or
/// resident-with-post-update bytes — a stale pre-update fill can never
/// survive, which is exactly the `prefetch_fill_if` verify contract.
///
/// The write-then-bump order in the updater is load-bearing, and this
/// model is what caught it: bumping *before* the rewrite (the obvious
/// "stamp first so fills abort" order) lets a filler capture the
/// post-bump stamp, read the pre-update bytes, pass its verify, and
/// insert after the updater's invalidation has already run — parking
/// stale bytes forever. Flipping the first two updater steps below
/// reproduces the failure.
#[test]
fn prefetch_fill_verify_never_parks_stale_bytes() {
    use drec_sync::atomic::{AtomicU64, Ordering};
    use drec_tier::{TierConfig, TierEngine};
    const KEY: u64 = 7;
    model(|| {
        let stamp = Arc::new(AtomicU64::new(0)); // table.write_stamp
        let row = Arc::new(AtomicU64::new(1)); // the row's bytes (v0)
        let parked = Arc::new(AtomicU64::new(0)); // bytes the fill parked
        let tier = Arc::new(TierEngine::new(&TierConfig::new(4)));

        let filler = {
            let (stamp, row, parked, tier) = (
                Arc::clone(&stamp),
                Arc::clone(&row),
                Arc::clone(&parked),
                Arc::clone(&tier),
            );
            spawn(move || {
                // store::prefetch_rows: capture the stamp, then fill.
                let captured = stamp.load(Ordering::Acquire);
                let bytes = row.load(Ordering::Acquire);
                // The verify runs under the tier lock, immediately
                // before the insert.
                tier.session().prefetch_fill_if(KEY, || {
                    let fresh = stamp.load(Ordering::Acquire) == captured;
                    if fresh {
                        parked.store(bytes, Ordering::Release);
                    }
                    fresh
                });
            })
        };
        let updater = {
            let (stamp, row, tier) = (Arc::clone(&stamp), Arc::clone(&row), Arc::clone(&tier));
            spawn(move || {
                // store::write_row: rewrite, THEN bump the stamp...
                row.store(2, Ordering::Release);
                stamp.fetch_add(1, Ordering::Release);
                // ...then invalidate under the same tier lock.
                tier.invalidate(KEY);
            })
        };
        let reader = {
            let tier = Arc::clone(&tier);
            spawn(move || {
                // A bag's session: one lock hold across several rows.
                let mut session = tier.session();
                session.demand_access(KEY + 1);
                session.demand_access(KEY + 2);
            })
        };
        filler.join().unwrap();
        updater.join().unwrap();
        reader.join().unwrap();
        if tier.is_resident(KEY) {
            assert_eq!(
                parked.load(Ordering::Acquire),
                2,
                "a resident row must carry post-update bytes — the stale \
                 pre-update fill survived the verify"
            );
        }
        assert!(tier.is_resident(KEY + 1) && tier.is_resident(KEY + 2));
    });
}

/// The lock order of the sparse read path on the real store (DESIGN.md
/// §12): a bag reader takes the tier lock for its residency phase and
/// the table shard locks after it; `update_row` takes the shard lock,
/// releases it, and only then the tier lock; `prefetch_rows` takes the
/// tier lock alone. The three together must never deadlock, the bag
/// must read each row whole (before or after the update, never torn),
/// and once all three are done a read sees the update.
#[test]
fn bag_reader_update_row_and_prefetch_rows_never_deadlock() {
    use drec_store::{EmbeddingStore, StoreConfig, TierConfig};
    model(|| {
        let store = Arc::new(EmbeddingStore::new(StoreConfig {
            shards_per_table: 1,
            tier: Some(TierConfig::new(4)),
            ..StoreConfig::default()
        }));
        let handle = store.register(1, 0, 3, 1, &[1.0, 2.0, 4.0]).unwrap();
        let pin = store.pin(handle);

        let reader = {
            let pin = pin.clone();
            spawn(move || {
                let mut acc = [0.0f32];
                pin.sum_rows([0, 1], &mut acc);
                acc[0]
            })
        };
        let updater = {
            let pin = pin.clone();
            spawn(move || pin.update_row(1, &[16.0]).unwrap())
        };
        let filler = {
            let pin = pin.clone();
            spawn(move || pin.prefetch_rows(&[1, 2]))
        };
        let sum = reader.join().unwrap();
        updater.join().unwrap();
        filler.join().unwrap();
        assert!(sum == 3.0 || sum == 17.0, "bag read a torn row: {sum}");
        let mut acc = [0.0f32];
        pin.sum_rows([1], &mut acc);
        assert_eq!(acc[0], 16.0, "a read after the update saw the old row");
        let stats = store.stats();
        assert_eq!(stats.lookups, 3);
        assert!(stats.prefetch_fills + stats.prefetch_aborted_stale <= 2);
    });
}

/// The two-phase bag on the real store: a bag settles residency for all
/// of its rows first and decodes them afterwards, so between the two a
/// row it has already paid for can be rewritten and invalidated
/// (`update_row` of row 0) and another can be parked by a prefetch fill
/// (`prefetch_rows` of row 1). Rows are two elements wide and every
/// version of a row repeats one value, so a torn decode shows as two
/// different sums. In every interleaving — those where the bag's
/// residency phase has ended before the others start among them — the
/// bag reads each row whole, old or new, nothing deadlocks, the
/// counters add up and a later read sees the update.
#[test]
fn two_phase_bag_reads_whole_rows_beside_update_row_and_prefetch_rows() {
    use drec_store::{EmbeddingStore, StoreConfig, TierConfig};
    model(|| {
        let store = Arc::new(EmbeddingStore::new(StoreConfig {
            shards_per_table: 1,
            tier: Some(TierConfig::new(4)),
            ..StoreConfig::default()
        }));
        let handle = store.register(1, 0, 2, 2, &[1.0, 1.0, 2.0, 2.0]).unwrap();
        let pin = store.pin(handle);

        let reader = {
            let pin = pin.clone();
            spawn(move || {
                let mut acc = [0.0f32; 2];
                pin.sum_rows([0, 1], &mut acc);
                acc
            })
        };
        let updater = {
            let pin = pin.clone();
            spawn(move || pin.update_row(0, &[16.0, 16.0]).unwrap())
        };
        let filler = {
            let pin = pin.clone();
            spawn(move || pin.prefetch_rows(&[1]))
        };
        let sum = reader.join().unwrap();
        updater.join().unwrap();
        filler.join().unwrap();
        assert!(
            sum == [3.0, 3.0] || sum == [18.0, 18.0],
            "bag read a torn row: {sum:?}"
        );
        let mut acc = [0.0f32; 2];
        pin.sum_rows([0], &mut acc);
        assert_eq!(acc, [16.0, 16.0], "a read after the update saw the old row");
        let stats = store.stats();
        assert_eq!(stats.lookups, 3);
        assert_eq!(stats.decode_vector + stats.decode_scalar, 3);
        assert_eq!(stats.tier_dram_hits + stats.tier_cold_demand_reads, 3);
        assert!(stats.prefetch_fills + stats.prefetch_aborted_stale <= 1);
    });
}

/// A bag holds one read guard per shard it decodes from, to its end, so
/// on a table of two shards two bags that cross both in opposite orders,
/// beside an `update_row` waiting on each shard, are the reader → writer
/// → reader cycle a writer-preferring lock can close. The guards are
/// taken in ascending shard order, whatever order a bag's rows come in,
/// so no interleaving deadlocks; each bag reads each row whole, and once
/// everything is done a read sees both updates.
#[test]
fn bags_crossing_two_shards_in_opposite_orders_beside_updates_never_deadlock() {
    use drec_store::{EmbeddingStore, PinnedTable, StoreConfig};
    model(|| {
        let store = Arc::new(EmbeddingStore::new(StoreConfig {
            shards_per_table: 2,
            ..StoreConfig::default()
        }));
        let handle = store.register(1, 0, 2, 1, &[1.0, 2.0]).unwrap();
        let pin = store.pin(handle);

        let bag = |pin: &PinnedTable, rows: [u32; 2]| {
            let mut acc = [0.0f32];
            pin.sum_rows(rows, &mut acc);
            acc[0]
        };
        let update = |row: u32, value: f32| {
            let pin = pin.clone();
            spawn(move || pin.update_row(row, &[value]).unwrap())
        };
        let (first, second) = (update(0, 16.0), update(1, 32.0));
        let down = {
            let pin = pin.clone();
            spawn(move || bag(&pin, [1, 0]))
        };
        let up = bag(&pin, [0, 1]);
        for sum in [up, down.join().unwrap()] {
            assert!(
                [3.0, 18.0, 33.0, 48.0].contains(&sum),
                "bag read a row value nobody wrote: {sum}"
            );
        }
        first.join().unwrap();
        second.join().unwrap();
        let mut acc = [0.0f32];
        pin.sum_rows([0, 1], &mut acc);
        assert_eq!(acc[0], 48.0, "a read after the updates saw an old row");
        assert_eq!(store.stats().lookups, 6);
    });
}

/// One row rewrite of an update batch, for the models below.
fn delta(ordinal: u32, row: u32, value: f32) -> drec_store::RowDelta {
    drec_store::RowDelta {
        ordinal,
        row,
        values: vec![value],
    }
}

/// An update batch writes its rows and publishes its version under the
/// write guards of every shard it touches, and a bag holds the read
/// guards of every shard it reads at once. So on a table of two rows in
/// two shards a bag of both rows beside a batch rewriting both reads all
/// old rows (1 + 2) or all new ones (16 + 32), never one of each, and a
/// bag that read the new rows finds their version published after it.
/// Writing the rows one shard lock at a time ahead of the publish fails
/// this model: "bag read rows of two versions: 33".
#[test]
fn a_bag_beside_an_update_batch_reads_one_version() {
    use drec_faultsim::UpdateFault;
    use drec_store::{EmbeddingStore, StoreConfig, UpdateBatch};
    model(|| {
        let store = Arc::new(EmbeddingStore::new(StoreConfig {
            shards_per_table: 2,
            ..StoreConfig::default()
        }));
        let handle = store.register(1, 0, 2, 1, &[1.0, 2.0]).unwrap();
        let pin = store.pin(handle);
        let writer = {
            let store = Arc::clone(&store);
            spawn(move || {
                let batch = UpdateBatch {
                    namespace: 1,
                    target_version: 1,
                    deltas: vec![delta(0, 1, 32.0), delta(0, 0, 16.0)],
                };
                store.apply_update(&batch, UpdateFault::None).unwrap();
            })
        };
        let mut acc = [0.0f32];
        pin.sum_rows([0, 1], &mut acc);
        let version = store.namespace_version(1);
        assert!(
            acc[0] == 3.0 || acc[0] == 48.0,
            "bag read rows of two versions: {}",
            acc[0]
        );
        assert!(acc[0] == 3.0 || version == 1, "read v1 rows at version 0");
        writer.join().unwrap();
        assert_eq!(store.namespace_version(1), 1);
    });
}

/// A batch over two tables holds write guards on shards of both, taken
/// in (table slot, shard) order whatever order its rows come in; a bag
/// holds one table's shards, in ascending order. With a bag on each
/// table, the two tables' shards crossed in the batch's row order, no
/// interleaving deadlocks, and each bag reads its table all old or all
/// new.
#[test]
fn an_update_batch_over_two_tables_beside_a_bag_on_each_never_deadlocks() {
    use drec_faultsim::UpdateFault;
    use drec_store::{EmbeddingStore, PinnedTable, StoreConfig, UpdateBatch};
    model(|| {
        let store = Arc::new(EmbeddingStore::new(StoreConfig {
            shards_per_table: 2,
            ..StoreConfig::default()
        }));
        let first = store.pin(store.register(1, 0, 2, 1, &[1.0, 2.0]).unwrap());
        let second = store.pin(store.register(1, 1, 2, 1, &[4.0, 8.0]).unwrap());
        let bag = |pin: &PinnedTable| {
            let mut acc = [0.0f32];
            pin.sum_rows([1, 0], &mut acc);
            acc[0]
        };
        let writer = {
            let store = Arc::clone(&store);
            spawn(move || {
                let batch = UpdateBatch {
                    namespace: 1,
                    target_version: 1,
                    deltas: vec![
                        delta(1, 1, 128.0),
                        delta(0, 0, 16.0),
                        delta(1, 0, 64.0),
                        delta(0, 1, 32.0),
                    ],
                };
                store.apply_update(&batch, UpdateFault::None).unwrap();
            })
        };
        let other = {
            let second = second.clone();
            spawn(move || bag(&second))
        };
        let sum = bag(&first);
        assert!(
            sum == 3.0 || sum == 48.0,
            "table 0 read two versions: {sum}"
        );
        let sum = other.join().unwrap();
        assert!(
            sum == 12.0 || sum == 192.0,
            "table 1 read two versions: {sum}"
        );
        writer.join().unwrap();
        assert_eq!((bag(&first), bag(&second)), (48.0, 192.0));
    });
}

/// The hot-row key set holds no row contents, so the one thing a racing
/// probe could get wrong is the key: `touch` running against an insert
/// and an invalidation in its own set must never report a key nobody
/// inserted.
#[test]
fn hot_key_probe_never_reports_a_key_that_was_never_inserted() {
    use drec_store::HotRowCache;
    model(|| {
        // One slot: keys 1, 2 and 3 all compete for it.
        let cache = Arc::new(HotRowCache::new(1, 1));
        cache.insert(1);
        let writer = {
            let cache = Arc::clone(&cache);
            spawn(move || {
                cache.insert(2);
                cache.invalidate(2);
            })
        };
        assert!(!cache.touch(3), "key 3 was never inserted");
        writer.join().unwrap();
        assert!(!cache.touch(1) && !cache.touch(2));
    });
}

/// The weight protocol under contention: a poster posts (which
/// publishes) and synchronizes versions 1 and 2 while two readers each
/// run one batch — pin the channel's epoch, poll the mailbox, record
/// what they served against what is published, unpin. Every batch must
/// serve version ≥ published − 1 (the synchronize after a post waits out
/// every batch pinned before it), and a fresh pin after quiescence must
/// install version 2, the newest posted. A second batch per reader puts
/// the model past its iteration cap.
#[test]
fn update_mailbox_is_newest_wins_under_contention() {
    use drec_serve::{ModelUpdateChannel, WeightSet};
    model(|| {
        let channel = Arc::new(ModelUpdateChannel::new("m", 1, None, Vec::new(), None));
        let poster = {
            let channel = Arc::clone(&channel);
            spawn(move || {
                for version in 1..=2 {
                    channel.post_weights(Arc::new(WeightSet {
                        version,
                        layers: Vec::new(),
                    }));
                    channel.epoch().synchronize();
                }
            })
        };
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let channel = Arc::clone(&channel);
                spawn(move || {
                    let _pin = channel.epoch().pin();
                    let served = channel.poll_weights(0).map_or(0, |ws| ws.version);
                    let published = channel.current_version();
                    assert!(
                        served + 1 >= published,
                        "a batch served v{served} with v{published} published"
                    );
                    served
                })
            })
            .collect();
        poster.join().unwrap();
        for reader in readers {
            assert!(reader.join().unwrap() <= 2);
        }
        assert_eq!(channel.current_version(), 2);
        let _pin = channel.epoch().pin();
        let fresh = channel.poll_weights(0).expect("a set is posted");
        assert_eq!(fresh.version, 2, "the newest posted set wins");
    });
}
