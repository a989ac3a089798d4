//! The dynamic batcher: a bounded MPMC queue that coalesces admitted
//! requests into batches for the worker pool.
//!
//! Admission control happens at the producer side: a request is shed with
//! [`ServeError::Overloaded`] once the queue is at capacity *or* the
//! estimated queueing delay (queue depth × per-query service estimate
//! from the runtime's latency curve) exceeds the configured budget —
//! DeepRecSys-style SLA protection rather than unbounded buffering.
//! Shedding is priority-aware: a full queue evicts its newest
//! strictly-lower-priority occupant before shedding the arrival.
//!
//! Batch formation is deadline-based: a free worker takes the oldest
//! request, then waits until either `max_batch` requests are queued or
//! the oldest request has waited `max_wait`, whichever comes first. With
//! `max_wait = 0` this degenerates to the greedy take-everything-queued
//! policy of [`drec_core::fleet::simulate_fleet`], which is what the load
//! generator uses to cross-validate the analytical model. One rule
//! shrinks the batch cap: the overload ladder's `ReducedBatch` rung
//! halves it while the queue is deep (see [`crate::OverloadLadder`]).
//! Requests whose deadline passed while queued are split out of the
//! batch at drain time so workers never spend cycles on answers nobody
//! is waiting for.
//!
//! # One queue
//!
//! The queue is a `VecDeque` and an `accepting` flag behind one
//! [`drec_sync::Mutex`]: every operation is a short critical section, an
//! arrival that evicts a lower-priority occupant joins the back like any
//! other, and a requeued request goes to the front. `queue_capacity` is
//! an admission bound, not an allocation — the buffer grows with what is
//! actually queued. The mutex and the signal below are `drec-sync`
//! primitives, so the whole batcher is model-checkable: compiled under
//! `--cfg loom`, every lock and atomic becomes a schedule point for the
//! in-tree model checker (see `drec_sync::model` and this crate's
//! `tests/loom_serve.rs`). DESIGN.md §13 has the measurement that chose
//! a mutex over a lock-free ring here.
//!
//! # One wake mechanism
//!
//! The queue parks nobody itself. Every queue owns or shares a dispatch
//! signal, an [`EventCount`]; pushes that change dispatch eligibility,
//! requeues, released batches and closes advance it. A worker reads the
//! signal's generation, polls with the non-blocking
//! [`SharedQueue::try_next_batch`], and parks on the signal
//! ([`EventCount::wait_until`]) when nothing is ready — the lane pool's
//! worker loop is exactly that over all its queues. A queue serves one model; the lane pool (`crate::pool`)
//! constructs one queue per model over a single shared signal, so one
//! worker pool waits for work on all of them (each model keeps its own
//! admission control, deadlines, and overload ladder — degradation
//! composes per model).

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use drec_sync::{EventCount, Mutex};

use crate::degrade::OverloadLadder;
use crate::error::ServeError;
use crate::request::Request;

/// Result of a non-blocking [`SharedQueue::try_next_batch`] poll.
#[derive(Debug)]
pub enum BatchPoll {
    /// A batch is ready to execute (and/or expired requests to answer).
    Ready(TakenBatch),
    /// Requests are queued but still coalescing; none will be released
    /// before the contained deadline (the oldest request's
    /// `submitted_at + max_wait`).
    Coalescing(Instant),
    /// Nothing for this caller: the queue is empty and accepting, or it
    /// holds fewer requests than the caller's minimum batch.
    Idle,
    /// The queue is closed and drained; no more batches will ever come.
    Closed,
}

/// Batching and admission-control parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatcherConfig {
    /// Largest batch a worker will coalesce.
    pub max_batch: usize,
    /// Longest the oldest queued request may wait for co-travellers.
    pub max_wait: Duration,
    /// Hard cap on queued (admitted but not yet executing) requests.
    pub queue_capacity: usize,
    /// Admission budget on the estimated queueing delay.
    pub delay_budget: Duration,
    /// Estimated per-query service time (seconds) at full batch, used for
    /// the admission-delay estimate; derived from the runtime's
    /// [`drec_core::serving::LatencyCurve`].
    pub per_query_service_estimate: f64,
}

impl BatcherConfig {
    /// Estimated queueing delay a new arrival would see behind `depth`
    /// queued requests.
    pub(crate) fn estimated_delay_seconds(&self, depth: usize) -> f64 {
        depth as f64 * self.per_query_service_estimate
    }
}

/// One drained batch: the requests to execute plus any requests whose
/// deadline passed while they queued. Expired requests must be answered
/// with [`ServeError::DeadlineExceeded`], never executed.
#[derive(Debug, Default)]
pub struct TakenBatch {
    /// Executable requests in arrival order, at most the effective cap.
    pub requests: Vec<Request>,
    /// Requests whose deadline passed while queued.
    pub expired: Vec<Request>,
}

impl TakenBatch {
    /// Files one drained request under executable or expired.
    fn take(&mut self, request: Request, now: Instant) {
        if request.expired_at(now) {
            self.expired.push(request);
        } else {
            self.requests.push(request);
        }
    }
}

/// The name of the batcher queue. There is one queue; this is kept only
/// for `perf_bench`'s run header until the next `benchmark` issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueKind {
    /// The `Mutex<VecDeque>` queue.
    Lock,
}

impl QueueKind {
    /// [`QueueKind::Lock`]; the environment is not read.
    pub fn from_env() -> QueueKind {
        QueueKind::Lock
    }

    /// `"lock"`.
    pub fn name(&self) -> &'static str {
        "lock"
    }
}

/// The queue's whole state, behind one mutex.
#[derive(Debug)]
struct QueueInner {
    queue: VecDeque<Request>,
    accepting: bool,
}

/// The shared queue between producer handles and worker threads.
#[derive(Debug)]
pub struct SharedQueue {
    inner: Mutex<QueueInner>,
    cfg: BatcherConfig,
    ladder: Arc<OverloadLadder>,
    /// Pulsed on push/requeue/release/close; the one thing workers park
    /// on (this queue's own, or one shared by a pool's queues).
    signal: Arc<EventCount>,
    /// Depths a push also pulses at: the minimum batches of the workers
    /// that wait for one (see [`SharedQueue::waking_at`]).
    wake_depths: Vec<usize>,
}

impl SharedQueue {
    /// A standalone queue with a dispatch signal of its own.
    pub fn new(cfg: BatcherConfig, ladder: Arc<OverloadLadder>) -> Self {
        Self::with_signal(cfg, ladder, Arc::default())
    }

    /// A queue pulsing `signal` — shared by all the queues of one worker
    /// pool, so its workers park on one thing.
    pub fn with_signal(
        cfg: BatcherConfig,
        ladder: Arc<OverloadLadder>,
        signal: Arc<EventCount>,
    ) -> Self {
        SharedQueue {
            inner: Mutex::new(QueueInner {
                queue: VecDeque::new(),
                accepting: true,
            }),
            cfg,
            ladder,
            signal,
            wake_depths: Vec::new(),
        }
    }

    /// This queue, also pulsing its signal when a push brings it to one
    /// of `depths`: the minimum batches of workers polling with
    /// [`SharedQueue::try_next_batch_at_least`], which would otherwise
    /// sleep through the push that makes a batch theirs.
    pub(crate) fn waking_at(mut self, depths: Vec<usize>) -> Self {
        self.wake_depths = depths;
        self
    }

    /// The effective drain cap right now: the configured cap, halved
    /// while the overload ladder stands at `ReducedBatch` or above.
    fn effective_cap(&self) -> usize {
        self.ladder.max_batch(self.cfg.max_batch)
    }

    /// Whether an arrival behind `depth` queued requests, estimated to
    /// wait `estimated` seconds, is past the queue's admission limits.
    fn over_budget(&self, depth: usize, estimated: f64) -> bool {
        depth >= self.cfg.queue_capacity || estimated > self.cfg.delay_budget.as_secs_f64()
    }

    /// Only pushes that change dispatch eligibility pulse the signal:
    /// the queue turning non-empty (`before` is the depth the producer
    /// admitted against, `after` the depth once its request is in),
    /// filling to the batch cap (a coalescing wait can release early), or
    /// reaching a waiting worker's minimum batch (`wake_depths`).
    /// A worker drains every ready batch per wake and sleeps with the
    /// coalescing deadline, so intermediate pushes need no wake — and
    /// skipping their pulses keeps a fast producer from turning the
    /// workers into a per-query context-switch storm. Both depths are
    /// read under the one lock hold, so `before == 0` implies
    /// `after == 1`; `after == 1` alone is an arrival that evicted the
    /// only occupant.
    fn pulse_signal_on_push(&self, before: usize, after: usize) {
        if before == 0
            || after == 1
            || after == self.effective_cap()
            || self.wake_depths.contains(&after)
        {
            self.signal.advance();
        }
    }

    /// Admits `request` or sheds it. Returns `Ok(None)` on plain
    /// admission, `Ok(Some((victim, error)))` when admission evicted a
    /// queued lower-priority request (the caller delivers `error` on the
    /// victim's reply channel), and `Err((request, error))` when the
    /// arrival itself is shed.
    #[allow(clippy::type_complexity, clippy::result_large_err)]
    pub fn try_push(
        &self,
        request: Request,
    ) -> Result<Option<(Request, ServeError)>, (Request, ServeError)> {
        let mut inner = self.inner.lock();
        if !inner.accepting {
            return Err((request, ServeError::ShuttingDown));
        }
        let depth = inner.queue.len();
        self.ladder.observe(depth);
        let estimated = self.cfg.estimated_delay_seconds(depth);
        let mut victim = None;
        if self.over_budget(depth, estimated) {
            // Over budget: evict the newest strictly-lower-priority
            // occupant (newest, so higher-priority arrivals displace the
            // work that has accrued the least waiting) or shed the
            // arrival itself.
            let evict_idx = inner
                .queue
                .iter()
                .rposition(|queued| queued.priority < request.priority);
            let overloaded = ServeError::Overloaded {
                depth,
                estimated_delay_seconds: estimated,
            };
            match evict_idx.and_then(|idx| inner.queue.remove(idx)) {
                Some(evicted) => victim = Some((evicted, overloaded)),
                None => return Err((request, overloaded)),
            }
        }
        inner.queue.push_back(request);
        let len = inner.queue.len();
        drop(inner);
        self.pulse_signal_on_push(depth, len);
        Ok(victim)
    }

    /// Re-admits a request whose batch failed transiently. Bypasses
    /// admission control and the `accepting` flag: the request was
    /// already admitted once, and the drain guarantee ("every accepted
    /// request gets an answer") must hold through shutdown.
    pub(crate) fn requeue(&self, request: Request) {
        // Front, not back: the request has already waited its turn.
        self.inner.lock().queue.push_front(request);
        self.signal.advance();
    }

    /// Non-blocking batch poll: drains and returns a batch when one is
    /// releasable (cap reached, oldest past its coalescing deadline, or
    /// the queue is closing), otherwise reports why not so the caller
    /// can pick another queue or park on the dispatch signal.
    pub fn try_next_batch(&self) -> BatchPoll {
        self.try_next_batch_at_least(1)
    }

    /// [`SharedQueue::try_next_batch`] for a caller that runs only
    /// batches of at least `min` executable requests (`usize::MAX`: it
    /// runs none of this queue's). A queue that would release fewer
    /// reports [`BatchPoll::Idle`] to it and keeps its requests for the
    /// other callers.
    pub(crate) fn try_next_batch_at_least(&self, min: usize) -> BatchPoll {
        let mut inner = self.inner.lock();
        let Some(front) = inner.queue.front() else {
            return if inner.accepting {
                BatchPoll::Idle
            } else {
                BatchPoll::Closed
            };
        };
        let now = Instant::now();
        let cap = self.effective_cap();
        let take = inner.queue.len().min(cap);
        // Expired requests are split out at drain, so only the unexpired
        // ones count towards `min`.
        let unexpired = |queue: &VecDeque<Request>| {
            let taken = queue.range(..take);
            taken.filter(|r| !r.expired_at(now)).count()
        };
        if take < min || (min > 1 && unexpired(&inner.queue) < min) {
            return BatchPoll::Idle;
        }
        let wait_deadline = front.submitted_at + self.cfg.max_wait;
        if inner.queue.len() < cap && now < wait_deadline && inner.accepting {
            return BatchPoll::Coalescing(wait_deadline);
        }
        // Drain up to `cap` requests, splitting out the expired ones.
        let mut batch = TakenBatch::default();
        batch.requests.reserve(take);
        for request in inner.queue.drain(..take) {
            batch.take(request, now);
        }
        drop(inner);
        // More work may remain for the next free worker.
        self.signal.advance();
        BatchPoll::Ready(batch)
    }

    /// Stops admission; queued work remains for workers to drain.
    pub fn close(&self) {
        self.inner.lock().accepting = false;
        self.signal.advance();
    }

    /// Empties the queue, returning every queued request. Used by the
    /// lane pool when no worker is left to run them: the drain guarantee
    /// is then satisfied by answering each request with a typed error
    /// instead of leaving it to hang.
    pub fn drain_all(&self) -> Vec<Request> {
        self.inner.lock().queue.drain(..).collect()
    }

    /// Current queue depth (stale as soon as it is read; for observation
    /// only).
    pub fn depth(&self) -> usize {
        self.inner.lock().queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degrade::{DegradeConfig, OverloadLevel};
    use crate::request::Priority;
    use drec_ops::Value;
    use drec_tensor::Tensor;
    use std::sync::mpsc;

    /// Blocks until a batch is ready (or shutdown + empty queue, which
    /// returns `None`): the parking protocol every worker runs — read
    /// the generation, poll, wait — over this one queue. The returned
    /// batch holds at most the effective batch cap of executable
    /// requests, in arrival order, plus any drained requests that
    /// expired while queued. Either list may be empty, but not both.
    fn next_batch(q: &SharedQueue) -> Option<TakenBatch> {
        loop {
            // Read the generation before inspecting state: any push,
            // requeue, or close after this read makes the wait below
            // return immediately — the eventcount idiom against missed
            // wake-ups.
            let seen = q.signal.generation();
            let deadline = match q.try_next_batch() {
                BatchPoll::Ready(batch) => return Some(batch),
                BatchPoll::Closed => return None,
                BatchPoll::Coalescing(deadline) => Some(deadline),
                BatchPoll::Idle => None,
            };
            q.signal.wait_until(seen, deadline);
        }
    }

    fn dummy_request(
        id: u64,
    ) -> (
        Request,
        mpsc::Receiver<crate::error::Result<crate::Response>>,
    ) {
        priority_request(id, Priority::Normal)
    }

    fn priority_request(
        id: u64,
        priority: Priority,
    ) -> (
        Request,
        mpsc::Receiver<crate::error::Result<crate::Response>>,
    ) {
        let (tx, rx) = mpsc::channel();
        (
            Request {
                id,
                inputs: vec![Value::dense(Tensor::zeros(&[1, 1]))],
                submitted_at: Instant::now(),
                deadline: None,
                priority,
                attempts: 0,
                reply: tx,
            },
            rx,
        )
    }

    fn cfg(max_batch: usize, capacity: usize) -> BatcherConfig {
        BatcherConfig {
            max_batch,
            max_wait: Duration::ZERO,
            queue_capacity: capacity,
            delay_budget: Duration::from_secs(3600),
            per_query_service_estimate: 0.0,
        }
    }

    fn queue_of(c: BatcherConfig) -> SharedQueue {
        let ladder = Arc::new(OverloadLadder::new(
            DegradeConfig::default(),
            c.queue_capacity,
            None,
        ));
        SharedQueue::new(c, ladder)
    }

    #[test]
    fn push_then_batch_preserves_arrival_order() {
        let q = queue_of(cfg(8, 100));
        for id in 0..5 {
            q.try_push(dummy_request(id).0).unwrap();
        }
        let batch = next_batch(&q).unwrap();
        assert_eq!(
            batch.requests.iter().map(|r| r.id).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
        assert!(batch.expired.is_empty());
    }

    #[test]
    fn batches_respect_max_batch() {
        let q = queue_of(cfg(3, 100));
        for id in 0..7 {
            q.try_push(dummy_request(id).0).unwrap();
        }
        assert_eq!(next_batch(&q).unwrap().requests.len(), 3);
        assert_eq!(next_batch(&q).unwrap().requests.len(), 3);
        assert_eq!(next_batch(&q).unwrap().requests.len(), 1);
    }

    #[test]
    fn depth_cap_sheds_with_overloaded() {
        let q = queue_of(cfg(8, 2));
        q.try_push(dummy_request(0).0).unwrap();
        q.try_push(dummy_request(1).0).unwrap();
        let (_, err) = q.try_push(dummy_request(2).0).unwrap_err();
        assert!(matches!(err, ServeError::Overloaded { depth: 2, .. }));
    }

    #[test]
    fn high_priority_arrival_evicts_newest_lower_priority_occupant() {
        let q = queue_of(cfg(8, 2));
        q.try_push(priority_request(0, Priority::Low).0).unwrap();
        q.try_push(priority_request(1, Priority::Low).0).unwrap();
        let (victim, err) = q
            .try_push(priority_request(2, Priority::High).0)
            .unwrap()
            .expect("should evict a low-priority occupant");
        assert_eq!(victim.id, 1, "newest lower-priority request is evicted");
        assert!(matches!(err, ServeError::Overloaded { .. }));
        let ids: Vec<u64> = next_batch(&q)
            .unwrap()
            .requests
            .iter()
            .map(|r| r.id)
            .collect();
        assert_eq!(ids, vec![0, 2]);
    }

    #[test]
    fn evicting_arrival_joins_the_back_of_the_queue() {
        // The victim is in the middle, so the arrival taking the victim's
        // place and the arrival joining the back drain differently.
        let q = queue_of(cfg(8, 3));
        q.try_push(priority_request(0, Priority::Normal).0).unwrap();
        q.try_push(priority_request(1, Priority::Low).0).unwrap();
        q.try_push(priority_request(2, Priority::High).0).unwrap();
        let (victim, _) = q
            .try_push(priority_request(3, Priority::Normal).0)
            .unwrap()
            .expect("should evict the low-priority occupant");
        assert_eq!(victim.id, 1);
        let ids: Vec<u64> = next_batch(&q)
            .unwrap()
            .requests
            .iter()
            .map(|r| r.id)
            .collect();
        assert_eq!(ids, vec![0, 2, 3]);
    }

    #[test]
    fn equal_priority_arrival_is_shed_not_evicting() {
        let q = queue_of(cfg(8, 1));
        q.try_push(priority_request(0, Priority::High).0).unwrap();
        let (shed, err) = q
            .try_push(priority_request(1, Priority::High).0)
            .unwrap_err();
        assert_eq!(shed.id, 1);
        assert!(matches!(err, ServeError::Overloaded { .. }));
    }

    #[test]
    fn expired_requests_are_split_out_of_the_batch() {
        let q = queue_of(cfg(8, 100));
        let (mut late, _rx_late) = dummy_request(0);
        late.deadline = Some(Instant::now() - Duration::from_millis(5));
        let (fresh, _rx_fresh) = dummy_request(1);
        q.try_push(late).unwrap();
        q.try_push(fresh).unwrap();
        let batch = next_batch(&q).unwrap();
        assert_eq!(
            batch.requests.iter().map(|r| r.id).collect::<Vec<_>>(),
            vec![1]
        );
        assert_eq!(
            batch.expired.iter().map(|r| r.id).collect::<Vec<_>>(),
            vec![0]
        );
    }

    #[test]
    fn requeue_bypasses_closed_admission() {
        let q = queue_of(cfg(8, 100));
        let (req, _rx) = dummy_request(7);
        q.close();
        q.requeue(req);
        let batch = next_batch(&q).unwrap();
        assert_eq!(batch.requests[0].id, 7);
        assert!(next_batch(&q).is_none());
    }

    #[test]
    fn requeued_request_drains_ahead_of_queued_work() {
        let q = queue_of(cfg(8, 100));
        q.try_push(dummy_request(0).0).unwrap();
        q.try_push(dummy_request(1).0).unwrap();
        let (retry, _rx) = dummy_request(9);
        q.requeue(retry);
        let ids: Vec<u64> = next_batch(&q)
            .unwrap()
            .requests
            .iter()
            .map(|r| r.id)
            .collect();
        assert_eq!(ids, vec![9, 0, 1]);
    }

    #[test]
    fn delay_budget_sheds_with_overloaded() {
        let mut c = cfg(8, 1_000);
        c.per_query_service_estimate = 1.0; // 1 s per queued query
        c.delay_budget = Duration::from_millis(1500);
        let q = queue_of(c);
        q.try_push(dummy_request(0).0).unwrap(); // est 0s
        q.try_push(dummy_request(1).0).unwrap(); // est 1s
        let (_, err) = q.try_push(dummy_request(2).0).unwrap_err(); // est 2s > 1.5s
        match err {
            ServeError::Overloaded {
                depth,
                estimated_delay_seconds,
            } => {
                assert_eq!(depth, 2);
                assert!((estimated_delay_seconds - 2.0).abs() < 1e-9);
            }
            other => panic!("expected Overloaded, got {other}"),
        }
    }

    #[test]
    fn closed_queue_sheds_with_shutting_down() {
        let q = queue_of(cfg(8, 100));
        q.try_push(dummy_request(0).0).unwrap();
        q.close();
        let (_, err) = q.try_push(dummy_request(1).0).unwrap_err();
        assert!(matches!(err, ServeError::ShuttingDown));
        // Queued work is still drainable.
        assert_eq!(next_batch(&q).unwrap().requests.len(), 1);
        assert!(next_batch(&q).is_none());
    }

    #[test]
    fn max_wait_coalesces_late_arrivals() {
        let c = BatcherConfig {
            max_batch: 4,
            max_wait: Duration::from_millis(200),
            queue_capacity: 100,
            delay_budget: Duration::from_secs(3600),
            per_query_service_estimate: 0.0,
        };
        let q = Arc::new(queue_of(c));
        q.try_push(dummy_request(0).0).unwrap();
        let pusher = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                q.try_push(dummy_request(1).0).unwrap();
            })
        };
        // The worker should wait past the 30 ms arrival and coalesce both.
        let batch = next_batch(&q).unwrap();
        pusher.join().unwrap();
        assert_eq!(
            batch.requests.len(),
            2,
            "late arrival should join the batch"
        );
    }

    #[test]
    fn try_next_batch_polls_without_blocking() {
        let q = queue_of(cfg(8, 100));
        assert!(matches!(q.try_next_batch(), BatchPoll::Idle));
        q.try_push(dummy_request(0).0).unwrap();
        // max_wait is zero: the single request is immediately releasable.
        match q.try_next_batch() {
            BatchPoll::Ready(batch) => assert_eq!(batch.requests.len(), 1),
            other => panic!("expected Ready, got {other:?}"),
        }
        q.close();
        assert!(matches!(q.try_next_batch(), BatchPoll::Closed));
    }

    #[test]
    fn try_next_batch_reports_coalescing_deadline() {
        let c = BatcherConfig {
            max_batch: 4,
            max_wait: Duration::from_secs(60),
            queue_capacity: 100,
            delay_budget: Duration::from_secs(3600),
            per_query_service_estimate: 0.0,
        };
        let q = queue_of(c);
        let (req, _rx) = dummy_request(0);
        let submitted = req.submitted_at;
        q.try_push(req).unwrap();
        match q.try_next_batch() {
            BatchPoll::Coalescing(deadline) => {
                assert_eq!(deadline, submitted + Duration::from_secs(60));
            }
            other => panic!("expected Coalescing, got {other:?}"),
        }
        // A closing queue releases the partial batch immediately.
        q.close();
        assert!(matches!(q.try_next_batch(), BatchPoll::Ready(_)));
    }

    #[test]
    fn a_deep_queue_drains_half_batches_at_reduced_batch() {
        // Capacity 20, default thresholds: the eleventh push meets 10
        // queued, half the capacity, and walks the ladder to
        // `ReducedBatch`.
        let q = queue_of(cfg(8, 20));
        for id in 0..11 {
            q.try_push(dummy_request(id).0).unwrap();
        }
        assert_eq!(q.ladder.level(), OverloadLevel::ReducedBatch);
        // Eleven queued, and the next batch holds max_batch / 2.
        let batch = next_batch(&q).unwrap();
        let ids: Vec<u64> = batch.requests.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn shared_signal_pulses_on_push_and_close() {
        let signal = Arc::new(EventCount::new());
        let ladder = Arc::new(OverloadLadder::new(DegradeConfig::default(), 100, None));
        let q = SharedQueue::with_signal(cfg(8, 100), ladder, Arc::clone(&signal));
        let before = signal.generation();
        q.try_push(dummy_request(0).0).unwrap();
        assert_ne!(signal.generation(), before);
        let before = signal.generation();
        q.close();
        assert_ne!(signal.generation(), before);
        // A wait on a stale generation returns immediately.
        let woke = signal.wait_until(before, Some(Instant::now() + Duration::from_secs(5)));
        assert_ne!(woke, before);
    }

    #[test]
    fn full_batch_releases_before_deadline() {
        let c = BatcherConfig {
            max_batch: 2,
            max_wait: Duration::from_secs(60),
            queue_capacity: 100,
            delay_budget: Duration::from_secs(3600),
            per_query_service_estimate: 0.0,
        };
        let q = queue_of(c);
        q.try_push(dummy_request(0).0).unwrap();
        q.try_push(dummy_request(1).0).unwrap();
        let start = Instant::now();
        let batch = next_batch(&q).unwrap();
        assert_eq!(batch.requests.len(), 2);
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "must not wait out max_wait"
        );
    }

    #[test]
    fn a_size_ruled_poll_leaves_smaller_batches_to_others() {
        let q = queue_of(cfg(8, 100));
        q.try_push(dummy_request(0).0).unwrap();
        q.try_push(dummy_request(1).0).unwrap();
        assert!(matches!(q.try_next_batch_at_least(3), BatchPoll::Idle));
        q.try_push(dummy_request(2).0).unwrap();
        assert!(matches!(
            q.try_next_batch_at_least(usize::MAX),
            BatchPoll::Idle
        ));
        match q.try_next_batch_at_least(3) {
            BatchPoll::Ready(batch) => assert_eq!(batch.requests.len(), 3),
            other => panic!("expected Ready, got {other:?}"),
        }
        // Closing does not lower the minimum: the last request stays for
        // a caller without one, and only then is the queue closed.
        q.try_push(dummy_request(3).0).unwrap();
        q.close();
        assert!(matches!(q.try_next_batch_at_least(3), BatchPoll::Idle));
        assert!(matches!(q.try_next_batch(), BatchPoll::Ready(_)));
        assert!(matches!(q.try_next_batch_at_least(3), BatchPoll::Closed));
    }

    #[test]
    fn expired_requests_do_not_count_towards_the_minimum() {
        let q = queue_of(cfg(8, 100));
        let (mut late, _rx) = dummy_request(0);
        late.deadline = Some(Instant::now() - Duration::from_millis(5));
        q.try_push(late).unwrap();
        q.try_push(dummy_request(1).0).unwrap();
        assert!(matches!(q.try_next_batch_at_least(2), BatchPoll::Idle));
        match q.try_next_batch() {
            BatchPoll::Ready(batch) => {
                assert_eq!((batch.requests.len(), batch.expired.len()), (1, 1));
            }
            other => panic!("expected Ready, got {other:?}"),
        }
    }

    #[test]
    fn a_push_reaching_a_wake_depth_pulses_the_signal() {
        let signal = Arc::new(EventCount::new());
        let ladder = Arc::new(OverloadLadder::new(DegradeConfig::default(), 100, None));
        let q = SharedQueue::with_signal(cfg(8, 100), ladder, Arc::clone(&signal));
        let q = q.waking_at(vec![3]);
        q.try_push(dummy_request(0).0).unwrap();
        let before = signal.generation();
        q.try_push(dummy_request(1).0).unwrap();
        assert_eq!(signal.generation(), before, "depth 2 wakes nobody");
        q.try_push(dummy_request(2).0).unwrap();
        assert_ne!(signal.generation(), before, "depth 3 is a wake depth");
    }

    #[test]
    fn concurrent_producers_and_consumers_deliver_every_request() {
        // MPMC smoke: 4 producers, 2 consumers, everything admitted must
        // come out exactly once.
        const PRODUCERS: usize = 4;
        const PER_PRODUCER: u64 = 250;
        let q = Arc::new(queue_of(cfg(16, 10_000)));
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        let id = p as u64 * PER_PRODUCER + i;
                        q.try_push(dummy_request(id).0).unwrap();
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut seen = Vec::new();
                    while let Some(batch) = next_batch(&q) {
                        assert!(batch.expired.is_empty());
                        seen.extend(batch.requests.into_iter().map(|r| r.id));
                    }
                    seen
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        let expect: Vec<u64> = (0..PRODUCERS as u64 * PER_PRODUCER).collect();
        assert_eq!(all, expect);
    }
}
