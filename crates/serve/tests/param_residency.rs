//! One copy of every dense parameter, counted on the heap: a lane's
//! engines are its built model and views of it, so however many workers
//! it has, the lane holds one set of embedding tables, GRU weights and FC
//! weights at rest, and its update channel's baseline and the mailbox
//! point at that same FC set. A rolled version costs one more FC set while
//! it is in flight, and a restore gives every byte of it back. Engines
//! replaced after panics are views too. Dense tables throughout, so every
//! table byte is the lane's own: RM3 at Paper scale, whose FC stacks are
//! the largest of the eight models, and DIEN, the one with GRU weights.
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
use drec_faultsim::FaultPlan;
use drec_models::{ModelId, ModelScale};
use drec_ops::{OpKind, Value};
use drec_serve::{
    BatchPoll, BatcherConfig, DegradeConfig, OverloadLadder, PendingResponse, Request, ServeConfig,
    ServeHandle, ServeRuntime, SharedQueue, SubmitOptions, SupervisorConfig, UpdatePlan, Updater,
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

/// A fresh Paper-scale build of one model, run directly and dropped
/// before anything is measured: what one parameter set weighs, and the
/// answers a lane must give.
struct Oracle {
    /// Heap one build holds: every table, GRU and FC weight, and the graph.
    model_bytes: usize,
    /// Of it, GRU weights.
    gru_bytes: usize,
    queries: Vec<Vec<Value>>,
    expected: Vec<Bits>,
}

fn oracle(id: ModelId) -> Oracle {
    let heap_empty = HEAP.live_bytes();
    let mut fresh = id.build(ModelScale::Paper, SEED).unwrap();
    let model_bytes = HEAP.live_bytes() - heap_empty;
    let gru_bytes = fresh.graph().param_bytes_of_kind(OpKind::RecurrentNetwork) as usize;
    let queries: Vec<Vec<Value>> = (0..4)
        .map(|i| QueryGen::uniform(40 + i).batch(fresh.spec(), 1))
        .collect();
    let expected = queries
        .iter()
        .map(|q| bits(&fresh.run(q.clone()).unwrap()))
        .collect();
    Oracle {
        model_bytes,
        gru_bytes,
        queries,
        expected,
    }
}

/// A dense Paper-scale lane of `id` on [`WORKERS`] workers, every request
/// running alone, as the oracle ran it.
fn start(id: ModelId, faults: Option<FaultPlan>) -> ServeRuntime {
    ServeRuntime::start(ServeConfig {
        scale: ModelScale::Paper,
        seed: SEED,
        workers: WORKERS,
        max_batch: 1,
        supervisor: SupervisorConfig {
            max_restarts: 1_000,
            backoff: Duration::from_micros(100),
            backoff_cap: Duration::from_millis(1),
        },
        faults,
        ..ServeConfig::tiny(id)
    })
    .unwrap()
}

/// Submits every query, then waits for every answer: enough outstanding
/// to keep both workers in batches.
fn round(handle: &ServeHandle, queries: &[Vec<Value>]) -> Vec<Bits> {
    let submit = |q: &Vec<Value>| handle.submit(q.clone()).expect("admitted");
    let pending: Vec<_> = queries.iter().map(submit).collect();
    let answer = |p: PendingResponse| bits(&p.wait().expect("answered").outputs);
    pending.into_iter().map(answer).collect()
}

#[test]
fn a_lane_holds_one_parameter_set_at_rest_and_again_after_a_restore() {
    let _alone = alone();
    let oracle = oracle(ModelId::Rm3);
    let heap_before = HEAP.live_bytes();
    let runtime = start(ModelId::Rm3, None);
    let at_rest = HEAP.live_bytes() - heap_before;
    let channel = Arc::clone(runtime.update_channel());
    let fc_bytes = channel.fc_param_bytes();
    assert!(fc_bytes > 10 << 20, "RM3's FC stacks are {fc_bytes} bytes");
    let table_bytes = oracle.model_bytes - fc_bytes;
    // One build's tables and FC set; the tenth of a set on top is room
    // for views, plans, queue and metrics. A second worker's own tables
    // would be 10 MB over, its own FC set 14 MB.
    let limit = table_bytes + fc_bytes + fc_bytes / 10;
    assert!(
        at_rest <= limit,
        "start left {at_rest} bytes live: over {table_bytes} of tables + 1.1 x {fc_bytes} of FC"
    );

    let handle = runtime.handle();
    for _ in 0..8 {
        assert_eq!(
            round(&handle, &oracle.queries),
            oracle.expected,
            "before the plan"
        );
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
        round(&handle, &oracle.queries);
    }
    let stats = updater.join().unwrap().unwrap();
    assert_eq!(stats.weight_sets_posted, plan.versions);

    // Engines, mailbox and baseline are one allocation again, ...
    let mailbox = channel.poll_weights(0).expect("the restore is posted");
    assert_eq!(mailbox.version, plan.versions);
    assert_eq!(mailbox.layers.len(), channel.baseline().len());
    for (posted, held) in mailbox.layers.iter().zip(channel.baseline()) {
        assert!(Arc::ptr_eq(posted, held), "the restore is a copy");
    }
    drop(mailbox);
    // ... the perturbed set is gone from the heap, ...
    let after_plan = HEAP.live_bytes() - heap_before;
    assert!(
        after_plan.abs_diff(at_rest) <= at_rest / 100,
        "{after_plan} bytes live after the plan, {at_rest} before it"
    );
    // ... and the bits are a fresh build's.
    assert_eq!(
        round(&handle, &oracle.queries),
        oracle.expected,
        "after the restore"
    );
    runtime.shutdown();
}

#[test]
fn a_dien_lane_holds_one_set_of_gru_weights_and_tables() {
    let _alone = alone();
    let oracle = oracle(ModelId::Dien);
    assert!(
        oracle.gru_bytes > 256 << 10,
        "DIEN's GRUs are {} bytes",
        oracle.gru_bytes
    );
    let heap_before = HEAP.live_bytes();
    let runtime = start(ModelId::Dien, None);
    let at_rest = HEAP.live_bytes() - heap_before;
    // One build, and less on top than a second copy of the GRU weights
    // alone would add (a second copy of the tables is 2 MB more).
    let limit = oracle.model_bytes + oracle.gru_bytes / 2;
    assert!(
        at_rest <= limit,
        "start left {at_rest} bytes live: over one build's {} + half of {} of GRU weights",
        oracle.model_bytes,
        oracle.gru_bytes
    );
    let handle = runtime.handle();
    for _ in 0..4 {
        assert_eq!(round(&handle, &oracle.queries), oracle.expected);
    }
    runtime.shutdown();
}

#[test]
fn a_lane_restarted_after_panics_holds_one_parameter_set() {
    let _alone = alone();
    // The injected panics stay off the harness's captured output, which
    // it frees only after this test lets the next one measure.
    let report = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let message = info.payload().downcast_ref::<String>();
        if !message.is_some_and(|m| m.starts_with("faultsim:")) {
            report(info);
        }
    }));
    let oracle = oracle(ModelId::Rm3);
    let heap_before = HEAP.live_bytes();
    let runtime = start(
        ModelId::Rm3,
        Some(FaultPlan {
            panic_every_n_batches: Some(3),
            ..FaultPlan::quiet(0x9A1C)
        }),
    );
    let fc_bytes = runtime.update_channel().fc_param_bytes();
    let handle = runtime.handle();
    // One request at a time: a panicked batch's retry is the next batch,
    // which the schedule lets through, so every request is answered.
    let mut answers = Vec::new();
    for _ in 0..6 {
        for query in &oracle.queries {
            answers.push(round(&handle, std::slice::from_ref(query)).remove(0));
        }
    }
    let expected = oracle.expected.iter().cycle().take(answers.len());
    assert!(
        answers.iter().eq(expected),
        "an engine rebuilt after a panic answers differently from a fresh build"
    );
    let stats = handle.snapshot();
    assert!(stats.worker_restarts >= 4, "{stats:?}");
    // What start holds, the batches' scratch and the panic reasons: still
    // one build's tables and one FC set.
    let live = HEAP.live_bytes() - heap_before;
    let limit = oracle.model_bytes + fc_bytes / 10;
    assert!(
        live <= limit,
        "{live} bytes live after {} restarts: over one build's {} + a tenth of {fc_bytes}",
        stats.worker_restarts,
        oracle.model_bytes
    );
    runtime.shutdown();
    drop(std::panic::take_hook());
}

#[test]
fn queue_capacity_is_an_admission_bound_not_an_allocation() {
    let _alone = alone();
    // Another test's thread may still be handing its result to the
    // harness: a few strings, allocated or freed inside a window here,
    // not a queue's worth of slots. Hence signed byte counts.
    const HARNESS_SLACK: isize = 4096;
    let since = |before: usize| HEAP.live_bytes() as isize - before as isize;
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
    let small_bytes = since(heap_before);
    drop(small);
    let heap_before = HEAP.live_bytes();
    let queue = queue_of(1 << 20);
    let large_bytes = since(heap_before);
    assert!(
        (large_bytes - small_bytes).abs() <= HARNESS_SLACK,
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
    let after_burst = since(heap_before);
    // Twice, so that the buffer's growth steps are not pinned here.
    let buffer = (2 * BURST * std::mem::size_of::<Request>()) as isize;
    assert!(
        after_burst <= large_bytes + buffer + HARNESS_SLACK,
        "{after_burst} bytes live after a burst of {BURST} drained, {large_bytes} before it"
    );
}
