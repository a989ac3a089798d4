//! The tuner acts on a live runtime: against an SLO no batch can meet it
//! walks the lane's batch cap down to the floor, and from then on every
//! batch the lane releases holds one request.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use drec_models::ModelId;
use drec_sched::{ModelSlo, MultiServeRuntime, SchedConfig};

const OUTSTANDING: usize = 32;
/// Requests per look at the lane's batch-size histogram.
const WINDOW: usize = 256;
const BOUND: Duration = Duration::from_secs(60);

#[test]
fn an_unmeetable_slo_drives_every_batch_to_one_request() {
    let slo = Duration::from_micros(1);
    let mut cfg = SchedConfig::tiny(vec![ModelSlo::new(ModelId::Rm1, slo)]);
    cfg.gpu = None;
    // Requests coalesce up to the cap: without the tuner a batch fills.
    cfg.max_wait = Duration::from_millis(2);
    assert!(cfg.tuner.is_some(), "the tiny configuration runs the tuner");
    let runtime = MultiServeRuntime::start(cfg).expect("runtime starts");
    let handle = runtime.handle();
    let spec = handle.spec(ModelId::Rm1).expect("co-located").clone();
    let mut gen = drec_workload::QueryGen::uniform(3);
    let mut pending = VecDeque::new();
    let hist = || runtime.decisions()[0].cpu_size_hist.clone();

    let deadline = Instant::now() + BOUND;
    let mut before = hist();
    loop {
        // Closed loop: `OUTSTANDING` in flight, one sent per answer.
        for _ in 0..WINDOW {
            while pending.len() < OUTSTANDING {
                let inputs = gen.batch(&spec, 1);
                pending.push_back(handle.submit(ModelId::Rm1, inputs).expect("admitted"));
            }
            let oldest = pending.pop_front().expect("in flight");
            let answer = oldest.wait_timeout(BOUND).expect("request hung");
            answer.expect("request served");
        }
        let now = hist();
        let delta: Vec<u64> = now.iter().zip(&before).map(|(n, b)| n - b).collect();
        if delta[0] > 0 && delta[1..].iter().all(|&n| n == 0) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "batches still hold more than one request: {delta:?} per size bucket"
        );
        before = now;
    }
    for oldest in pending {
        let answer = oldest.wait_timeout(BOUND).expect("request hung");
        answer.expect("request served");
    }
    runtime.shutdown();
}
