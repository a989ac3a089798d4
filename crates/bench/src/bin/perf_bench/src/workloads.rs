//! The four workloads: what each serves, how it is loaded, and why.
//!
//! Every workload is a closed loop from one generator thread against
//! one serving worker at Paper scale, with inputs made from `--seed`.
//! They differ in which layer does the work.

use std::time::Duration;

use drec_core::serving::LatencyCurve;
use drec_models::{ModelId, ModelScale};
use drec_sched::{ModelSlo, SchedConfig};
use drec_serve::{DegradeConfig, ServeConfig, SupervisorConfig};
use drec_store::{CombineConfig, RowEncoding, StoreConfig, TierConfig};

/// Parameter seed of every model build. The *workload* seed (`--seed`)
/// only drives the request inputs and the updater's row choice.
pub const MODEL_SEED: u64 = 7;
/// Requests in the pre-generated input pool the generator cycles over.
/// (Not 8192: an RM2 request carries 3840 ids, so that pool alone would
/// be 126 MB and `peak_rss_mb` would measure the benchmark, not the
/// serving stack.)
pub const POOL_REQUESTS: usize = 2048;
/// Zipf exponent of the skewed workloads (production-trace skew).
pub const ZIPF_S: f64 = 1.0;
/// Physical embedding rows one Paper-scale table holds.
const TABLE_ROWS: usize = 4096;
/// Physical embedding rows of all eight Paper-scale models together;
/// checked against the store after `colocated_mix` starts.
pub const COLOCATED_ROWS: usize = 116 * TABLE_ROWS;

/// Which serving runtime a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// `drec_serve::ServeRuntime` serving one model.
    Single(ModelId),
    /// `drec_sched::MultiServeRuntime` serving all eight models.
    Colocated,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub target: Target,
    /// `DREC_THREADS` the process pins before anything reads it.
    pub threads: usize,
    /// Requests kept outstanding per model lane.
    pub outstanding: usize,
    /// Zipf-skewed ids when true, uniform ids when false.
    pub zipf: bool,
    /// Requests of the fixed-count warm-up that is part of `setup_s`.
    pub warmup: usize,
    /// Latency limit of `goodput_qps`: 2 × the seed commit's
    /// `latency_p50_ms` on this workload, 2 significant figures, frozen.
    pub limit_ms: f64,
    /// Whether an updater thread rolls versions beside the reads.
    pub updater: bool,
    /// The embedding store served from (`None`: dense per-engine tables).
    pub store: fn() -> Option<StoreConfig>,
}

/// Int8 rows, hot-row cache 10 % of the physical rows and, when tiered,
/// DRAM budget 25 % of them with `admit_after = 2`: the `serve_loadgen`
/// reference shape.
fn int8_store(rows: usize, tiered: bool) -> StoreConfig {
    StoreConfig {
        encoding: RowEncoding::Int8,
        cache_capacity_rows: rows / 10,
        tier: tiered.then(|| TierConfig {
            admit_after: 2,
            ..TierConfig::new(rows / 4)
        }),
        ..StoreConfig::default()
    }
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "sparse_zipf",
        why: "RM2, tiered int8 store, Zipf ids, 32 outstanding: 3840 row reads per request, so store, tier, int8 decode and prefetcher do the work and GEMM a few per cent",
        target: Target::Single(ModelId::Rm2),
        threads: 1,
        outstanding: 32,
        zipf: true,
        warmup: 400,
        limit_ms: 280.0,
        updater: false,
        store: || Some(int8_store(32 * TABLE_ROWS, true)),
    },
    Workload {
        name: "dense_small_batch",
        why: "RM3, dense tables, uniform ids, 2 threads, 4 outstanding: FC stacks at batch 3-4 dominate and the store is bypassed, so plan, par grain and GEMM do the work",
        target: Target::Single(ModelId::Rm3),
        threads: 2,
        outstanding: 4,
        zipf: false,
        warmup: 2000,
        limit_ms: 5.1,
        updater: false,
        store: || None,
    },
    Workload {
        name: "colocated_mix",
        why: "all eight models on the co-location scheduler, one outstanding each, shared tiered store: batch 1 per lane, so per-request overhead is largest against compute",
        target: Target::Colocated,
        threads: 1,
        outstanding: 1,
        zipf: true,
        warmup: 600,
        limit_ms: 19.0,
        updater: false,
        store: || {
            let mut store = int8_store(COLOCATED_ROWS, true);
            let tier = store.tier.as_mut().expect("tiered");
            // The scheduler path has no stream prefetcher.
            tier.prefetch = false;
            tier.combine = Some(CombineConfig::default());
            Some(store)
        },
    },
    Workload {
        name: "update_mixed",
        why: "RM1, int8 store without tier, uniform ids that bypass the cache, 16 outstanding, while an updater rolls versions: writes beside reads on one store",
        target: Target::Single(ModelId::Rm1),
        threads: 1,
        outstanding: 16,
        zipf: false,
        warmup: 2000,
        limit_ms: 6.9,
        updater: true,
        store: || Some(int8_store(8 * TABLE_ROWS, false)),
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Lower-case metric suffix of a model (`sched.latency_p50_ms.<this>`).
pub fn model_key(id: ModelId) -> &'static str {
    match id {
        ModelId::Ncf => "ncf",
        ModelId::Rm1 => "rm1",
        ModelId::Rm2 => "rm2",
        ModelId::Rm3 => "rm3",
        ModelId::Wnd => "wnd",
        ModelId::MtWnd => "mt-wnd",
        ModelId::Din => "din",
        ModelId::Dien => "dien",
    }
}

impl Workload {
    /// The models behind this workload's lanes, in lane order.
    pub fn models(&self) -> Vec<ModelId> {
        match self.target {
            Target::Single(id) => vec![id],
            Target::Colocated => ModelId::ALL.to_vec(),
        }
    }

    /// Configuration of the single-model runtime.
    pub fn serve_config(&self, model: ModelId) -> ServeConfig {
        ServeConfig {
            model,
            scale: ModelScale::Paper,
            seed: MODEL_SEED,
            workers: 1,
            max_batch: 64,
            max_wait: Duration::ZERO,
            // A closed loop never queues more than `outstanding`
            // requests, so admission control stays out of the way.
            queue_capacity: 4096,
            delay_budget: Duration::from_secs(3600),
            // Only prices `Response::modelled_seconds`, which the
            // benchmark does not read on this runtime.
            curve: LatencyCurve::from_points(vec![(1, 1e-3), (64, 1e-2)]),
            store: (self.store)(),
            degrade: DegradeConfig::default(),
            supervisor: SupervisorConfig::default(),
            faults: None,
        }
    }

    /// Configuration of the co-location scheduler. `delay_budget` is
    /// what the open-loop phases shed against.
    pub fn sched_config(&self) -> SchedConfig {
        let slo = Duration::from_millis(400);
        let models = ModelId::ALL.iter().map(|&id| ModelSlo::new(id, slo));
        SchedConfig {
            scale: ModelScale::Paper,
            seed: MODEL_SEED,
            cpu_workers: 1,
            max_batch: 64,
            queue_capacity: 4096,
            delay_budget: slo,
            gpu: None,
            tuner: None,
            store: (self.store)(),
            ..SchedConfig::tiny(models.collect())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_differ_in_the_layer_that_does_the_work() {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(
            names,
            [
                "sparse_zipf",
                "dense_small_batch",
                "colocated_mix",
                "update_mixed"
            ]
        );
        let by = |n: &str| find(n).expect("workload exists");
        // One workload on each side of every mechanism.
        assert!((by("sparse_zipf").store)().expect("store").tier.is_some());
        assert!((by("update_mixed").store)().expect("store").tier.is_none());
        assert!((by("dense_small_batch").store)().is_none());
        assert!((by("colocated_mix").store)()
            .expect("store")
            .tier
            .expect("tier")
            .combine
            .is_some());
        assert_eq!(by("colocated_mix").models().len(), 8);
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(find("nope").is_none());
    }
}
