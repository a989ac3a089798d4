//! One copy of every dense parameter, counted on the heap: a lane's
//! engines, its update channel's baseline and the mailbox all point at one
//! FC weight set at rest, a rolled version costs one more set while it is
//! in flight, and a restore gives every byte of it back. RM3 at Paper
//! scale, whose FC stacks are the largest of the eight models; dense
//! tables, which each replica owns, so the lane's floor is two tables and
//! one FC set.
//!
//! Beside it, the batcher queue: its capacity bounds admission and
//! allocates nothing.
//!
//! A test binary of its own: the counting `#[global_allocator]` must see
//! one test's heap and no other's, so each test holds [`ALONE`] while it
//! measures.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use drec_check::CountingAlloc;
use drec_models::{ModelId, ModelScale};
use drec_ops::Value;
use drec_serve::{
    BatchPoll, BatcherConfig, DegradeConfig, OverloadLadder, PendingResponse, Request, ServeConfig,
    ServeHandle, ServeRuntime, SharedQueue, SubmitOptions, UpdatePlan, Updater,
};
use drec_workload::QueryGen;

#[global_allocator]
static HEAP: CountingAlloc = CountingAlloc::new();

/// The harness runs tests on parallel threads and the heap count is one
/// for the process.
static ALONE: Mutex<()> = Mutex::new(());

/// Held for a whole test (a failed neighbour's poison is not this one's).
fn alone() -> MutexGuard<'static, ()> {
    ALONE
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

const SEED: u64 = 7;
const WORKERS: usize = 2;

/// Shape and bits of every output.
fn bits(outputs: &[Value]) -> Bits {
    let bits = |v: &Value| {
        let t = v.as_dense().expect("dense output");
        let bits = t.as_slice().iter().map(|x| x.to_bits()).collect();
        (t.dims().to_vec(), bits)
    };
    outputs.iter().map(bits).collect()
}

type Bits = Vec<(Vec<usize>, Vec<u32>)>;

/// Submits every query, then waits for every answer: enough outstanding
/// to keep both workers in batches.
fn round(handle: &ServeHandle, queries: &[Vec<Value>]) -> Vec<Bits> {
    let submit = |q: &Vec<Value>| handle.submit(q.clone()).expect("admitted");
    let pending: Vec<_> = queries.iter().map(submit).collect();
    let answer = |p: PendingResponse| bits(&p.wait().expect("answered").outputs);
    pending.into_iter().map(answer).collect()
}

#[test]
fn a_lane_holds_one_fc_set_at_rest_and_again_after_a_restore() {
    let _alone = alone();
    // The oracle, and what one dense replica weighs: a fresh build, run
    // directly, then dropped before anything is measured.
    let heap_empty = HEAP.live_bytes();
    let mut fresh = ModelId::Rm3.build(ModelScale::Paper, SEED).unwrap();
    let model_bytes = HEAP.live_bytes() - heap_empty;
    let queries: Vec<Vec<Value>> = (0..4)
        .map(|i| QueryGen::uniform(40 + i).batch(fresh.spec(), 1))
        .collect();
    let expected: Vec<_> = queries
        .iter()
        .map(|q| bits(&fresh.run(q.clone()).unwrap()))
        .collect();
    drop(fresh);

    let heap_before = HEAP.live_bytes();
    let runtime = ServeRuntime::start(ServeConfig {
        scale: ModelScale::Paper,
        seed: SEED,
        workers: WORKERS,
        // Every request runs alone, as the oracle ran it, and the engines'
        // scratch is sized once.
        max_batch: 1,
        ..ServeConfig::tiny(ModelId::Rm3)
    })
    .unwrap();
    let at_rest = HEAP.live_bytes() - heap_before;
    let channel = Arc::clone(runtime.update_channel());
    let fc_bytes = channel.fc_param_bytes();
    assert!(fc_bytes > 10 << 20, "RM3's FC stacks are {fc_bytes} bytes");
    let table_bytes = model_bytes - fc_bytes;
    // Two replicas' tables and one FC set between them; the tenth of a set
    // on top is room for plans, queue and scratch. A baseline copied
    // beside two engines' own sets, 3 x FC, is 28 MB over.
    let limit = WORKERS * table_bytes + fc_bytes + fc_bytes / 10;
    assert!(
        at_rest <= limit,
        "start left {at_rest} bytes live: over {WORKERS} x {table_bytes} of tables + 1.1 x {fc_bytes} of FC"
    );

    let handle = runtime.handle();
    for _ in 0..8 {
        assert_eq!(round(&handle, &queries), expected, "before the plan");
    }
    // The scratch those first batches sized stays; measure rest from here.
    let at_rest = HEAP.live_bytes() - heap_before;

    // Perturb, then restore. Engines install at batch boundaries, so keep
    // both workers in batches until each has installed the restore.
    let plan = UpdatePlan {
        versions: 2,
        ..UpdatePlan::default()
    };
    let updater = {
        let channel = Arc::clone(&channel);
        std::thread::spawn(move || Updater::new(channel, plan).run())
    };
    let clock = std::time::Instant::now();
    while !updater.is_finished() || channel.min_installed() < plan.versions {
        assert!(clock.elapsed() < Duration::from_secs(60), "plan stalled");
        round(&handle, &queries);
    }
    let stats = updater.join().unwrap().unwrap();
    assert_eq!(stats.weight_sets_posted, plan.versions);

    // Engines, mailbox and baseline are one allocation again, ...
    let baseline = channel.baseline().expect("engines registered");
    let mailbox = channel.poll_weights(0).expect("the restore is posted");
    assert_eq!(mailbox.version, plan.versions);
    assert_eq!(mailbox.layers.len(), baseline.len());
    for (posted, held) in mailbox.layers.iter().zip(baseline.iter()) {
        assert!(Arc::ptr_eq(posted, held), "the restore is a copy");
    }
    drop((baseline, mailbox));
    // ... the perturbed set is gone from the heap, ...
    let after_plan = HEAP.live_bytes() - heap_before;
    assert!(
        after_plan.abs_diff(at_rest) <= at_rest / 100,
        "{after_plan} bytes live after the plan, {at_rest} before it"
    );
    // ... and the bits are a fresh build's.
    assert_eq!(round(&handle, &queries), expected, "after the restore");
    runtime.shutdown();
}

#[test]
fn queue_capacity_is_an_admission_bound_not_an_allocation() {
    let _alone = alone();
    // The other test's thread may still be handing its result to the
    // harness: a few strings, not a queue's worth of slots.
    const HARNESS_SLACK: usize = 4096;
    const BURST: usize = 64;
    let queue_of = |queue_capacity: usize| {
        let ladder = OverloadLadder::new(DegradeConfig::default(), queue_capacity, None);
        SharedQueue::new(
            BatcherConfig {
                max_batch: BURST,
                max_wait: Duration::ZERO,
                queue_capacity,
                delay_budget: Duration::from_secs(3600),
                per_query_service_estimate: 0.0,
            },
            Arc::new(ladder),
        )
    };
    let heap_before = HEAP.live_bytes();
    let small = queue_of(4096);
    let small_bytes = HEAP.live_bytes() - heap_before;
    drop(small);
    let heap_before = HEAP.live_bytes();
    let queue = queue_of(1 << 20);
    let large_bytes = HEAP.live_bytes() - heap_before;
    assert!(
        large_bytes.abs_diff(small_bytes) <= HARNESS_SLACK,
        "a queue of capacity 4096 is {small_bytes} bytes, one of 1048576 is {large_bytes}"
    );

    // A burst costs the buffer it grew and nothing per slot of capacity.
    let requests: Vec<Request> = (0..BURST as u64)
        .map(|id| Request::new(id, Vec::new(), SubmitOptions::default()).0)
        .collect();
    for request in requests {
        assert!(queue.try_push(request).is_ok(), "under capacity");
    }
    match queue.try_next_batch() {
        BatchPoll::Ready(batch) => assert_eq!(batch.requests.len(), BURST),
        other => panic!("expected the burst as one batch, got {other:?}"),
    }
    let after_burst = HEAP.live_bytes() - heap_before;
    // Twice, so that the buffer's growth steps are not pinned here.
    let buffer = 2 * BURST * std::mem::size_of::<Request>();
    assert!(
        after_burst <= large_bytes + buffer + HARNESS_SLACK,
        "{after_burst} bytes live after a burst of {BURST} drained, {large_bytes} before it"
    );
}
