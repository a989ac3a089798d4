//! The load generator: one thread, a closed loop with a fixed number of
//! requests outstanding per model lane, over a pre-generated input pool.
//!
//! The next request of a lane is submitted when one of its outstanding
//! requests completes, so a slower system receives less load. Latency is
//! the benchmark's own clock from just before `submit` to the moment the
//! generator sees the response.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use drec_models::{InputSpec, ModelId};
use drec_ops::{Value, ValuePayload};
use drec_sched::{DecisionSnapshot, MultiServeHandle, MultiServeRuntime};
use drec_serve::{
    EmbeddingStore, MetricsSnapshot, ModelUpdateChannel, PendingResponse, Response, ServeError,
    ServeHandle, ServeRuntime,
};
use drec_workload::QueryGen;

use crate::procfs;
use crate::trace::Tracer;
use crate::workloads::{model_key, Target, Workload, POOL_REQUESTS, ZIPF_S};

/// Either serving runtime behind one interface, so the generator and
/// the reports do not branch on which one a workload uses.
pub enum Runtime {
    Single(ServeRuntime),
    Multi(MultiServeRuntime),
}

impl Runtime {
    pub fn start(w: &Workload) -> Result<Runtime, ServeError> {
        match w.target {
            Target::Single(model) => {
                ServeRuntime::start(w.serve_config(model)).map(Runtime::Single)
            }
            Target::Colocated => MultiServeRuntime::start(w.sched_config()).map(Runtime::Multi),
        }
    }

    pub fn handle(&self) -> Handle {
        match self {
            Runtime::Single(rt) => Handle::Single(rt.handle()),
            Runtime::Multi(rt) => Handle::Multi(rt.handle()),
        }
    }

    pub fn spec(&self, model: ModelId) -> InputSpec {
        match self {
            Runtime::Single(rt) => rt.spec().clone(),
            Runtime::Multi(rt) => rt.spec(model).expect("model is co-located").clone(),
        }
    }

    pub fn snapshot(&self) -> MetricsSnapshot {
        match self {
            Runtime::Single(rt) => rt.snapshot(),
            Runtime::Multi(rt) => rt.snapshot(),
        }
    }

    pub fn decisions(&self) -> Vec<DecisionSnapshot> {
        match self {
            Runtime::Single(_) => Vec::new(),
            Runtime::Multi(rt) => rt.decisions(),
        }
    }

    /// The embedding store the runtime serves from, when store-backed.
    pub fn store(&self) -> Option<Arc<EmbeddingStore>> {
        match self {
            Runtime::Single(rt) => rt.update_channel().store().cloned(),
            Runtime::Multi(rt) => rt.store().cloned(),
        }
    }

    pub fn update_channel(&self, model: ModelId) -> Arc<ModelUpdateChannel> {
        match self {
            Runtime::Single(rt) => Arc::clone(rt.update_channel()),
            Runtime::Multi(rt) => {
                Arc::clone(rt.update_channel(model).expect("model is co-located"))
            }
        }
    }

    /// Depth of the batcher queue; the scheduler does not expose its
    /// lane queues.
    fn queue_depth(&self) -> Option<usize> {
        match self {
            Runtime::Single(rt) => Some(rt.queue_depth()),
            Runtime::Multi(_) => None,
        }
    }

    pub fn shutdown(self) {
        match self {
            Runtime::Single(rt) => drop(rt.shutdown()),
            Runtime::Multi(rt) => drop(rt.shutdown()),
        }
    }
}

pub enum Handle {
    Single(ServeHandle),
    Multi(MultiServeHandle),
}

impl Handle {
    pub fn submit(
        &self,
        model: ModelId,
        inputs: Vec<Value>,
    ) -> Result<PendingResponse, ServeError> {
        match self {
            Handle::Single(h) => h.submit(inputs),
            Handle::Multi(h) => h.submit(model, inputs),
        }
    }
}

/// One model's share of the input pool and its closed-loop state.
pub struct Lane {
    pub model: ModelId,
    pub pool: Vec<Vec<Value>>,
    cursor: usize,
    inflight: usize,
}

/// Builds the input pool from the workload seed: `POOL_REQUESTS`
/// single-sample requests split evenly over the lanes, each lane from
/// its own generator so adding a lane does not shift another's inputs.
pub fn make_lanes(w: &Workload, rt: &Runtime, seed: u64) -> Vec<Lane> {
    let models = w.models();
    let per_lane = POOL_REQUESTS / models.len();
    models
        .iter()
        .enumerate()
        .map(|(i, &model)| {
            let spec = rt.spec(model);
            let lane_seed = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(i as u64);
            let mut gen = if w.zipf {
                QueryGen::zipf(lane_seed, ZIPF_S)
            } else {
                QueryGen::uniform(lane_seed)
            };
            Lane {
                model,
                pool: (0..per_lane).map(|_| gen.batch(&spec, 1)).collect(),
                cursor: 0,
                inflight: 0,
            }
        })
        .collect()
}

/// What the generator knows about a request once `submit` returned.
struct Sent {
    lane: usize,
    seq: u64,
    pool_index: usize,
    submit_start: Instant,
    submit_end: Instant,
}

struct InFlight {
    pending: PendingResponse,
    sent: Sent,
}

/// A response kept for the output check.
pub struct Sample {
    pub lane: usize,
    pub pool_index: usize,
    pub outputs: Vec<Value>,
}

/// What one measured window saw. Latencies are milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Window {
    pub seconds: f64,
    pub cpu_seconds: f64,
    pub ok: u64,
    pub failed: u64,
    pub within_limit: u64,
    /// Latency of every `Ok` request, by lane.
    pub lane_latency_ms: Vec<Vec<f64>>,
    /// `Response::wall_seconds` of the same requests, the runtime's own
    /// stamp, for the clock-agreement check.
    pub runtime_ms: Vec<f64>,
    pub submit_us: Vec<f64>,
    /// Sum of `Response::modelled_seconds` over the `Ok` responses, ms.
    pub modelled_ms_sum: f64,
}

impl Window {
    fn new(lanes: usize) -> Window {
        Window {
            lane_latency_ms: vec![Vec::new(); lanes],
            ..Window::default()
        }
    }

    pub fn attempted(&self) -> u64 {
        self.ok + self.failed
    }

    /// Requests answered `Ok` within the limit, per second.
    pub fn goodput_qps(&self) -> f64 {
        self.within_limit as f64 / self.seconds.max(1e-9)
    }

    pub fn qps(&self) -> f64 {
        self.ok as f64 / self.seconds.max(1e-9)
    }

    /// Latency of every `Ok` request of the window, ascending.
    pub fn latencies_ms(&self) -> Vec<f64> {
        let mut all = self.lane_latency_ms.concat();
        crate::stats::sort(&mut all);
        all
    }

    /// Accounts one completed request. A failed request, like a late
    /// one, misses the latency limit.
    pub fn record(
        &mut self,
        lane: usize,
        latency_ms: f64,
        limit_ms: f64,
        response: Option<&Response>,
    ) {
        match response {
            Some(r) => {
                self.ok += 1;
                if latency_ms <= limit_ms {
                    self.within_limit += 1;
                }
                self.runtime_ms.push(r.wall_seconds * 1e3);
                self.modelled_ms_sum += r.modelled_seconds * 1e3;
                self.lane_latency_ms[lane].push(latency_ms);
            }
            None => self.failed += 1,
        }
    }
}

/// Counters a phase accumulates beside its windows.
#[derive(Debug, Default, Clone)]
pub struct PhaseCounters {
    /// Coalesced batch size each `Ok` response rode in (index = size).
    pub batch_hist: Vec<u64>,
    pub depth_sum: u64,
    pub depth_samples: u64,
    pub non_finite: u64,
    pub first_error: Option<String>,
}

/// When a pump stops submitting; it then drains what is outstanding.
enum Stop {
    AfterSent(u64),
    At(Instant),
}

struct Completion {
    sent: Sent,
    seen: Instant,
    result: Result<Response, ServeError>,
}

fn all_finite(outputs: &[Value]) -> bool {
    outputs.iter().all(|v| match &v.payload {
        ValuePayload::Dense(t) => t.as_slice().iter().all(|x| x.is_finite()),
        ValuePayload::Ids(_) => true,
    })
}

/// How long the generator blocks on the oldest outstanding request
/// before looking at the others. With several lanes a younger request
/// of another lane can finish first; this bounds how late it is seen.
const MULTI_LANE_POLL: Duration = Duration::from_micros(200);
const SINGLE_LANE_POLL: Duration = Duration::from_millis(50);
/// No response for this long means an accepted request hung.
const HANG: Duration = Duration::from_secs(30);

pub struct LoadGen<'a> {
    rt: &'a Runtime,
    handle: Handle,
    pub lanes: Vec<Lane>,
    outstanding: usize,
    limit_ms: f64,
    inflight: VecDeque<InFlight>,
    next_seq: u64,
    /// Every `check_every`-th response is kept while `sampling` is on.
    check_every: u64,
    pub sampling: bool,
    pub samples: Vec<Sample>,
}

impl<'a> LoadGen<'a> {
    pub fn new(w: &Workload, rt: &'a Runtime, lanes: Vec<Lane>, check_every: u64) -> Self {
        LoadGen {
            rt,
            handle: rt.handle(),
            lanes,
            outstanding: w.outstanding,
            limit_ms: w.limit_ms,
            inflight: VecDeque::new(),
            next_seq: 0,
            check_every,
            sampling: false,
            samples: Vec::new(),
        }
    }

    /// Gives the pool back, rewound, so the next set-up cycle's warm-up
    /// does identical work.
    pub fn into_lanes(mut self) -> Vec<Lane> {
        for lane in &mut self.lanes {
            lane.cursor = 0;
        }
        self.lanes
    }

    fn submit_next(
        &mut self,
        lane_index: usize,
        counters: &mut PhaseCounters,
    ) -> Option<Completion> {
        let lane = &mut self.lanes[lane_index];
        let pool_index = lane.cursor % lane.pool.len();
        lane.cursor += 1;
        let inputs = lane.pool[pool_index].clone();
        let model = lane.model;
        let seq = self.next_seq;
        self.next_seq += 1;
        if let Some(depth) = self.rt.queue_depth() {
            counters.depth_sum += depth as u64;
            counters.depth_samples += 1;
        }
        let submit_start = Instant::now();
        let submitted = self.handle.submit(model, inputs);
        let submit_end = Instant::now();
        let sent = Sent {
            lane: lane_index,
            seq,
            pool_index,
            submit_start,
            submit_end,
        };
        match submitted {
            Ok(pending) => {
                self.lanes[lane_index].inflight += 1;
                self.inflight.push_back(InFlight { pending, sent });
                None
            }
            // A refused request is a failed request, seen at once.
            Err(e) => Some(Completion {
                sent,
                seen: submit_end,
                result: Err(e),
            }),
        }
    }

    fn take(&mut self, index: usize, result: Result<Response, ServeError>) -> Completion {
        let seen = Instant::now();
        let sent = self.inflight.remove(index).expect("index in range").sent;
        self.lanes[sent.lane].inflight -= 1;
        Completion { sent, seen, result }
    }

    /// Blocks until at least one outstanding request has completed.
    fn wait_any(&mut self) -> Completion {
        let poll = if self.lanes.len() > 1 {
            MULTI_LANE_POLL
        } else {
            SINGLE_LANE_POLL
        };
        let started = Instant::now();
        loop {
            let oldest = self.inflight.front().expect("something is outstanding");
            if let Some(result) = oldest.pending.wait_timeout(poll) {
                return self.take(0, result);
            }
            for i in 1..self.inflight.len() {
                if let Some(result) = self.inflight[i].pending.try_wait() {
                    return self.take(i, result);
                }
            }
            assert!(
                started.elapsed() < HANG,
                "an accepted request got no response within {HANG:?}"
            );
        }
    }

    /// The closed loop: keep every lane at `outstanding`, hand each
    /// completion to `on_complete`, stop submitting at `stop`, then
    /// drain.
    fn pump(
        &mut self,
        stop: Stop,
        counters: &mut PhaseCounters,
        mut on_complete: impl FnMut(&Completion),
    ) {
        let mut sent = 0u64;
        loop {
            let mut refused = Vec::new();
            for lane in 0..self.lanes.len() {
                while self.lanes[lane].inflight < self.outstanding {
                    let open = match stop {
                        Stop::AfterSent(n) => sent < n,
                        Stop::At(end) => Instant::now() < end,
                    };
                    if !open {
                        break;
                    }
                    sent += 1;
                    if let Some(done) = self.submit_next(lane, counters) {
                        refused.push(done);
                        break;
                    }
                }
            }
            let completions = if refused.is_empty() {
                if self.inflight.is_empty() {
                    return;
                }
                // Everything already answered is taken before anything
                // is resubmitted, so a batch's responses are all seen
                // at (nearly) the moment the batch completed.
                let mut ready = vec![self.wait_any()];
                let mut i = 0;
                while i < self.inflight.len() {
                    match self.inflight[i].pending.try_wait() {
                        Some(result) => ready.push(self.take(i, result)),
                        None => i += 1,
                    }
                }
                ready
            } else {
                refused
            };
            for done in completions {
                match &done.result {
                    Ok(r) => {
                        if counters.batch_hist.len() <= r.batch {
                            counters.batch_hist.resize(r.batch + 1, 0);
                        }
                        counters.batch_hist[r.batch] += 1;
                        if !all_finite(&r.outputs) {
                            counters.non_finite += 1;
                        }
                        if self.sampling && done.sent.seq % self.check_every == 0 {
                            self.samples.push(Sample {
                                lane: done.sent.lane,
                                pool_index: done.sent.pool_index,
                                outputs: r.outputs.clone(),
                            });
                        }
                    }
                    Err(e) => {
                        if counters.first_error.is_none() {
                            counters.first_error = Some(e.to_string());
                        }
                    }
                }
                on_complete(&done);
            }
        }
    }

    /// Sends exactly `count` requests and waits for all of them.
    /// Returns how many were answered `Ok`.
    pub fn run_count(&mut self, count: u64) -> u64 {
        let mut ok = 0;
        self.pump(
            Stop::AfterSent(count),
            &mut PhaseCounters::default(),
            |done| {
                ok += u64::from(done.result.is_ok());
            },
        );
        ok
    }

    /// Runs `windows` back-to-back windows of `window` each without
    /// draining in between, then drains. With a tracer, every second
    /// window (the odd ones) records the spans of its requests, so the
    /// traced and untraced windows of one run see the same host.
    pub fn run_windows(
        &mut self,
        windows: usize,
        window: Duration,
        mut tracer: Option<&mut Tracer>,
    ) -> (Vec<Window>, PhaseCounters) {
        let limit_ms = self.limit_ms;
        let models: Vec<&'static str> = self.lanes.iter().map(|l| model_key(l.model)).collect();
        let mut counters = PhaseCounters::default();
        let mut set = WindowSet::new(
            Instant::now(),
            window,
            windows,
            self.lanes.len(),
            procfs::process_cpu_seconds(),
        );
        self.pump(Stop::At(set.end()), &mut counters, |done| {
            let Some((index, current)) = set.window_at(done.seen, procfs::process_cpu_seconds)
            else {
                return;
            };
            let sent = &done.sent;
            let latency_ms = (done.seen - sent.submit_start).as_secs_f64() * 1e3;
            current.record(sent.lane, latency_ms, limit_ms, done.result.as_ref().ok());
            current
                .submit_us
                .push((sent.submit_end - sent.submit_start).as_secs_f64() * 1e6);
            if let Some(t) = tracer.as_deref_mut().filter(|_| index % 2 == 1) {
                let req = Some(sent.seq);
                let root = t.record("request", None, req, sent.submit_start, done.seen);
                let submit = (sent.submit_start, sent.submit_end);
                t.record("serve.submit", Some(root), req, submit.0, submit.1);
                let inflight = t.record("serve.inflight", Some(root), req, submit.1, done.seen);
                let span = t.span_mut(inflight);
                span.model = models[sent.lane];
                if let Ok(r) = &done.result {
                    span.batch = r.batch;
                    span.worker = r.worker;
                }
            }
        });
        (set.finish(procfs::process_cpu_seconds), counters)
    }
}

/// Assigns completions to back-to-back windows. A request belongs to
/// the window it completes in; one that completes after the last window
/// has ended (it was outstanding when submission stopped) belongs to
/// none. Process CPU time is read once at each window boundary.
struct WindowSet {
    window: Duration,
    count: usize,
    lanes: usize,
    current_start: Instant,
    cpu_start: f64,
    current: Window,
    closed: Vec<Window>,
}

impl WindowSet {
    fn new(start: Instant, window: Duration, count: usize, lanes: usize, cpu_now: f64) -> Self {
        WindowSet {
            window,
            count,
            lanes,
            current_start: start,
            cpu_start: cpu_now,
            current: Window::new(lanes),
            closed: Vec::with_capacity(count),
        }
    }

    /// When the last window ends, seen from the current one.
    fn end(&self) -> Instant {
        self.current_start + self.window * (self.count - self.closed.len()) as u32
    }

    fn close_current(&mut self, cpu_now: f64) {
        self.current.seconds = self.window.as_secs_f64();
        self.current.cpu_seconds = cpu_now - self.cpu_start;
        self.cpu_start = cpu_now;
        self.current_start += self.window;
        let lanes = self.lanes;
        self.closed
            .push(std::mem::replace(&mut self.current, Window::new(lanes)));
    }

    /// The window (and its index) a completion seen at `seen` belongs
    /// to, closing every window that ended before it; `None` past the
    /// last window.
    fn window_at(&mut self, seen: Instant, cpu: impl Fn() -> f64) -> Option<(usize, &mut Window)> {
        while self.closed.len() < self.count && seen >= self.current_start + self.window {
            self.close_current(cpu());
        }
        (self.closed.len() < self.count).then_some((self.closed.len(), &mut self.current))
    }

    /// Closes what is still open (nothing completed after its end).
    fn finish(mut self, cpu: impl Fn() -> f64) -> Vec<Window> {
        while self.closed.len() < self.count {
            self.close_current(cpu());
        }
        self.closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn response(wall_seconds: f64) -> Response {
        Response {
            id: 0,
            outputs: Vec::new(),
            batch: 4,
            wall_seconds,
            modelled_seconds: 0.0,
            worker: 0,
        }
    }

    #[test]
    fn window_counts_late_and_failed_requests_as_misses() {
        let mut w = Window::new(2);
        w.seconds = 2.0;
        let r = response(0.001);
        w.record(0, 1.0, 5.0, Some(&r)); // in time
        w.record(1, 5.0, 5.0, Some(&r)); // exactly at the limit: in time
        w.record(1, 9.0, 5.0, Some(&r)); // answered, but late
        w.record(0, 0.1, 5.0, None); // failed
        assert_eq!(
            (w.ok, w.failed, w.within_limit, w.attempted()),
            (3, 1, 2, 4)
        );
        assert_eq!(w.goodput_qps(), 1.0);
        assert_eq!(w.qps(), 1.5);
        assert_eq!(w.latencies_ms(), vec![1.0, 5.0, 9.0]);
        assert_eq!(w.lane_latency_ms, vec![vec![1.0], vec![5.0, 9.0]]);
        assert_eq!(w.runtime_ms.len(), 3);
    }

    #[test]
    fn completions_land_in_the_window_they_complete_in() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        // The fake CPU clock advances 0.25 s per reading.
        let cpu = std::cell::Cell::new(1.0);
        let read = || {
            cpu.set(cpu.get() + 0.25);
            cpu.get()
        };
        let mut set = WindowSet::new(t0, Duration::from_millis(100), 3, 1, 1.0);
        assert_eq!(set.end(), at(300));
        let r = response(0.0);
        set.window_at(at(10), read)
            .expect("window 0")
            .1
            .record(0, 1.0, 5.0, Some(&r));
        set.window_at(at(99), read)
            .expect("window 0")
            .1
            .record(0, 2.0, 5.0, Some(&r));
        // A boundary completion opens the next window.
        let (index, current) = set.window_at(at(100), read).expect("window 1");
        current.record(0, 3.0, 5.0, Some(&r));
        assert_eq!(index, 1);
        assert_eq!(set.end(), at(300));
        // Window 2 is skipped over entirely by a stall; the straggler
        // after the end belongs to no window.
        assert!(set.window_at(at(305), read).is_none());
        assert!(set.window_at(at(400), read).is_none());
        let windows = set.finish(read);
        let oks: Vec<u64> = windows.iter().map(|w| w.ok).collect();
        assert_eq!(oks, vec![2, 1, 0]);
        assert!(windows.iter().all(|w| w.seconds == 0.1));
        // One CPU reading per boundary: 1.0 -> 1.25 -> 1.5 -> 1.75.
        let cpus: Vec<f64> = windows.iter().map(|w| w.cpu_seconds).collect();
        assert_eq!(cpus, vec![0.25, 0.25, 0.25]);
    }

    #[test]
    fn unfinished_windows_are_closed_at_the_end() {
        let t0 = Instant::now();
        let mut set = WindowSet::new(t0, Duration::from_millis(100), 2, 1, 0.0);
        let r = response(0.0);
        set.window_at(t0, || 0.5)
            .expect("window 0")
            .1
            .record(0, 1.0, 5.0, Some(&r));
        let windows = set.finish(|| 2.0);
        assert_eq!(windows.len(), 2);
        assert_eq!((windows[0].ok, windows[1].ok), (1, 0));
        assert_eq!((windows[0].cpu_seconds, windows[1].cpu_seconds), (2.0, 0.0));
    }
}
