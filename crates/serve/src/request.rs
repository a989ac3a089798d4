//! Request/response types and batch coalescing.
//!
//! A request carries one *sample* — its input values in graph input order,
//! every slot with batch dimension 1. The batcher coalesces many requests
//! into one model batch by stacking dense slots row-wise and concatenating
//! id-list slots segment-wise, the exact inverse of how
//! [`drec_workload::QueryGen`] builds a batch.

use std::sync::mpsc;
use std::time::Instant;

use drec_models::{InputSlot, InputSpec};
use drec_ops::{IdList, Value, ValuePayload};
use drec_tensor::Tensor;

use crate::error::{Result, ServeError};

/// Monotonically increasing request identifier, unique per runtime.
pub(crate) type RequestId = u64;

/// Priority class of a request. Under queue pressure the batcher sheds
/// lowest-priority work first: an arriving request may evict a queued
/// request of a strictly lower class instead of being shed itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Best-effort traffic, first to be shed (e.g. prefetch, backfill).
    Low,
    /// Ordinary interactive traffic.
    #[default]
    Normal,
    /// Latency-critical traffic, last to be shed.
    High,
}

impl std::fmt::Display for Priority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::High => "high",
        })
    }
}

/// Per-request submission options: deadline budget and priority class.
#[derive(Debug, Clone, Copy, Default)]
pub struct SubmitOptions {
    /// Time budget from submission; once it elapses the batcher drops
    /// the request with [`crate::ServeError::DeadlineExceeded`] instead
    /// of executing it. `None` means no deadline.
    pub deadline: Option<std::time::Duration>,
    /// Priority class for shed-lowest-first admission.
    pub priority: Priority,
}

/// One admitted inference query flowing through the runtime.
#[derive(Debug)]
pub struct Request {
    /// Unique id assigned at submission.
    pub id: RequestId,
    /// Per-sample inputs in graph input order (batch dimension 1).
    pub inputs: Vec<Value>,
    /// When the request was admitted.
    pub(crate) submitted_at: Instant,
    /// Absolute point after which execution is pointless; the batcher
    /// drops the request instead of running it.
    pub(crate) deadline: Option<Instant>,
    /// Priority class for shed-lowest-first admission.
    pub(crate) priority: Priority,
    /// Execution attempts so far; a request whose batch failed is
    /// re-enqueued once (`attempts` 0 → 1) before the error surfaces.
    pub(crate) attempts: u32,
    pub(crate) reply: mpsc::Sender<Result<Response>>,
}

impl Request {
    /// Builds a request (stamped now, zero attempts) plus the receiver
    /// its response will arrive on. The caller is responsible for
    /// validating `inputs` against the target model's spec first.
    pub fn new(
        id: RequestId,
        inputs: Vec<Value>,
        opts: crate::request::SubmitOptions,
    ) -> (Request, mpsc::Receiver<Result<Response>>) {
        let (tx, rx) = mpsc::channel();
        let submitted_at = Instant::now();
        (
            Request {
                id,
                inputs,
                submitted_at,
                deadline: opts.deadline.map(|budget| submitted_at + budget),
                priority: opts.priority,
                attempts: 0,
                reply: tx,
            },
            rx,
        )
    }

    /// Whether the deadline has passed at `now`.
    pub(crate) fn expired_at(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| now >= d)
    }

    /// Delivers the response (or typed error). A dropped receiver just
    /// means the client went away; that is not an error here.
    pub(crate) fn respond(&self, result: Result<Response>) {
        let _ = self.reply.send(result);
    }
}

/// The completed result of one request.
#[derive(Debug)]
pub struct Response {
    /// The id the request was submitted under.
    pub id: RequestId,
    /// This request's slice of the model outputs (one row per output
    /// head).
    pub outputs: Vec<Value>,
    /// Size of the coalesced batch this request rode in.
    pub batch: usize,
    /// End-to-end wall-clock latency: admission to completion, seconds.
    pub wall_seconds: f64,
    /// Modelled per-platform execution time of the coalesced batch from
    /// the runtime's latency curve, seconds.
    pub modelled_seconds: f64,
    /// Index of the worker that executed the batch.
    pub worker: usize,
}

/// Checks `inputs` against `spec`: right slot count, right payload kind,
/// right per-sample width/lookup count, batch dimension exactly 1.
pub(crate) fn validate_single(spec: &InputSpec, inputs: &[Value]) -> Result<()> {
    if inputs.len() != spec.len() {
        return Err(ServeError::InvalidInput {
            slot: usize::MAX,
            expected: format!("{} input slots", spec.len()),
            got: format!("{} values", inputs.len()),
        });
    }
    for (i, (value, (name, slot))) in inputs.iter().zip(spec.slots()).enumerate() {
        match (slot, &value.payload) {
            (InputSlot::Dense { width }, ValuePayload::Dense(t)) => {
                if t.dims() != [1, *width] {
                    return Err(ServeError::InvalidInput {
                        slot: i,
                        expected: format!("dense [1, {width}] for slot '{name}'"),
                        got: format!("dense {:?}", t.dims()),
                    });
                }
            }
            (InputSlot::Ids { lookups, .. }, ValuePayload::Ids(ids)) => {
                if ids.batch() != 1 || ids.total_lookups() != *lookups {
                    return Err(ServeError::InvalidInput {
                        slot: i,
                        expected: format!("1 segment of {lookups} ids for slot '{name}'"),
                        got: format!("{} segments, {} ids", ids.batch(), ids.total_lookups()),
                    });
                }
            }
            (InputSlot::Dense { width }, ValuePayload::Ids(_)) => {
                return Err(ServeError::InvalidInput {
                    slot: i,
                    expected: format!("dense [1, {width}] for slot '{name}'"),
                    got: "ids".to_string(),
                });
            }
            (InputSlot::Ids { lookups, .. }, ValuePayload::Dense(_)) => {
                return Err(ServeError::InvalidInput {
                    slot: i,
                    expected: format!("{lookups} ids for slot '{name}'"),
                    got: "dense".to_string(),
                });
            }
        }
    }
    Ok(())
}

/// Stacks the per-sample inputs of `requests` into one batched input set.
///
/// Every request must already satisfy `validate_single` (the handle
/// enforces this at admission), so slots line up by construction.
///
/// # Panics
///
/// Panics if `requests` is empty.
pub fn coalesce_inputs(spec: &InputSpec, requests: &[Request]) -> Vec<Value> {
    assert!(!requests.is_empty(), "cannot coalesce an empty batch");
    let batch = requests.len();
    (0..spec.len())
        .map(|slot| match &requests[0].inputs[slot].payload {
            ValuePayload::Dense(first) => {
                let width = first.dims()[1];
                let mut data = Vec::with_capacity(batch * width);
                for req in requests {
                    let t = req.inputs[slot].as_dense().expect("validated dense slot");
                    data.extend_from_slice(t.as_slice());
                }
                Value::dense(
                    Tensor::from_vec(data, &[batch, width]).expect("stacked dims consistent"),
                )
            }
            ValuePayload::Ids(_) => {
                let mut ids = Vec::new();
                let mut lengths = Vec::with_capacity(batch);
                for req in requests {
                    let list = req.inputs[slot]
                        .ids_ref("coalesce")
                        .expect("validated ids slot");
                    ids.extend_from_slice(&list.ids);
                    lengths.extend_from_slice(&list.lengths);
                }
                Value::ids(IdList::new(ids, lengths))
            }
        })
        .collect()
}

/// Splits batched model outputs back into per-request rows.
///
/// Each output head that is dense with leading dimension `batch` is
/// sliced row-wise; any other shape (e.g. a scalar summary head) is
/// replicated to every request.
pub fn split_outputs(outputs: &[Value], batch: usize) -> Vec<Vec<Value>> {
    let mut per_request: Vec<Vec<Value>> = (0..batch).map(|_| Vec::new()).collect();
    for out in outputs {
        match &out.payload {
            ValuePayload::Dense(t) if t.dims().len() == 2 && t.dims()[0] == batch => {
                let width = t.dims()[1];
                for (i, slot) in per_request.iter_mut().enumerate() {
                    let row = t.row(i).expect("row within batch").to_vec();
                    slot.push(Value::dense(
                        Tensor::from_vec(row, &[1, width]).expect("row dims"),
                    ));
                }
            }
            _ => {
                for slot in per_request.iter_mut() {
                    slot.push(out.clone());
                }
            }
        }
    }
    per_request
}

#[cfg(test)]
mod tests {
    use super::*;
    use drec_models::{ModelId, ModelScale};
    use drec_workload::QueryGen;

    fn single_sample(seed: u64, spec: &InputSpec) -> Vec<Value> {
        QueryGen::uniform(seed).batch(spec, 1)
    }

    fn request(id: RequestId, inputs: Vec<Value>) -> (Request, mpsc::Receiver<Result<Response>>) {
        let (tx, rx) = mpsc::channel();
        (
            Request {
                id,
                inputs,
                submitted_at: Instant::now(),
                deadline: None,
                priority: Priority::default(),
                attempts: 0,
                reply: tx,
            },
            rx,
        )
    }

    #[test]
    fn validate_accepts_generator_samples() {
        for id in ModelId::ALL {
            let model = id.build(ModelScale::Tiny, 1).unwrap();
            let sample = single_sample(3, model.spec());
            validate_single(model.spec(), &sample).unwrap_or_else(|e| panic!("{id}: {e}"));
        }
    }

    #[test]
    fn validate_rejects_wrong_slot_count() {
        let model = ModelId::Rm1.build(ModelScale::Tiny, 1).unwrap();
        let err = validate_single(model.spec(), &[]).unwrap_err();
        assert!(matches!(err, ServeError::InvalidInput { slot, .. } if slot == usize::MAX));
    }

    #[test]
    fn validate_rejects_batched_sample() {
        let model = ModelId::Rm1.build(ModelScale::Tiny, 1).unwrap();
        let batched = QueryGen::uniform(3).batch(model.spec(), 2);
        assert!(validate_single(model.spec(), &batched).is_err());
    }

    #[test]
    fn coalesced_batch_matches_generator_layout_and_runs() {
        let mut model = ModelId::Rm1.build(ModelScale::Tiny, 1).unwrap();
        let spec = model.spec().clone();
        let samples: Vec<Vec<Value>> = (0..4).map(|s| single_sample(s, &spec)).collect();
        let requests: Vec<Request> = samples
            .into_iter()
            .enumerate()
            .map(|(i, inputs)| request(i as RequestId, inputs).0)
            .collect();
        let batched = coalesce_inputs(&spec, &requests);
        for (value, (_, slot)) in batched.iter().zip(spec.slots()) {
            match slot {
                InputSlot::Dense { width } => {
                    assert_eq!(value.as_dense().unwrap().dims(), &[4, *width]);
                }
                InputSlot::Ids { lookups, .. } => {
                    let ids = value.ids_ref("test").unwrap();
                    assert_eq!(ids.batch(), 4);
                    assert_eq!(ids.total_lookups(), 4 * lookups);
                }
            }
        }
        let outputs = model.run(batched).unwrap();
        let split = split_outputs(&outputs, 4);
        assert_eq!(split.len(), 4);
        for rows in &split {
            assert_eq!(rows.len(), outputs.len());
        }
    }

    #[test]
    fn coalesced_outputs_equal_individual_runs() {
        // Batching must be semantically transparent: running 3 samples as
        // one coalesced batch gives the same rows as 3 batch-1 runs.
        let mut model = ModelId::Ncf.build(ModelScale::Tiny, 1).unwrap();
        let spec = model.spec().clone();
        let samples: Vec<Vec<Value>> = (0..3).map(|s| single_sample(s + 10, &spec)).collect();

        let solo: Vec<Vec<Value>> = samples
            .iter()
            .map(|s| model.run(s.clone()).unwrap())
            .collect();

        let requests: Vec<Request> = samples
            .into_iter()
            .enumerate()
            .map(|(i, inputs)| request(i as RequestId, inputs).0)
            .collect();
        let outputs = model.run(coalesce_inputs(&spec, &requests)).unwrap();
        let split = split_outputs(&outputs, 3);

        for (rows, solo_out) in split.iter().zip(&solo) {
            for (row, solo_head) in rows.iter().zip(solo_out) {
                let got = row.as_dense().unwrap().as_slice();
                let expect = solo_head.as_dense().unwrap().as_slice();
                assert_eq!(got.len(), expect.len());
                for (g, e) in got.iter().zip(expect) {
                    assert!((g - e).abs() < 1e-5, "{g} vs {e}");
                }
            }
        }
    }
}
