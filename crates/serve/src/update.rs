//! Live parameter updates: rolling, versioned, zero-downtime.
//!
//! Production recommenders retrain continuously; parameters reach the
//! serving fleet as a stream of *snapshot versions* — embedding-row
//! deltas plus full MLP weight sets — that must land without taking a
//! model offline (the paper's always-on serving constraint, §II). This
//! module is the serving side of that pipeline:
//!
//! * [`ModelUpdateChannel`] — one per served model: a single-slot weight
//!   mailbox engines poll between batches, per-reader install tracking
//!   so the updater can pace itself on the slowest worker, and a
//!   max-staleness gauge proving the bound the chaos gate asserts
//!   (every batch serves version ≥ N−1 once N is published).
//! * [`Updater`] — a background driver that streams seeded delta batches
//!   through [`drec_store::EmbeddingStore::apply_update`] and rotates
//!   MLP weight sets, one version at a time. The **final** version of
//!   every plan restores the captured originals, so a quiesced system
//!   must be bit-identical with its pre-update oracle — the cheapest
//!   possible end-to-end correctness check.
//!
//! The updater is a good citizen under load: it consults
//! [`OverloadLadder::updates_throttled`] before every version and backs
//! off while the ladder stands at `UpdateBackpressure` or higher —
//! updates are throttled, reads never are. Injected faults
//! ([`drec_faultsim::UpdateFault`]) exercise the recovery matrix:
//! a crash mid-batch rolls back atomically and is retried once; a
//! duplicate delta is rejected by the store's version check; a delayed
//! publish only widens the staleness window, never the error surface.
//!
//! A weight set is a vector of shared [`FcParams`] handles wherever it
//! travels (DESIGN.md §14 has the walk-through). The baseline is the
//! handles the first engine of a lane was built with; every later engine
//! of the lane installs those same handles and lets its own identical
//! draw drop, so a lane of W workers holds one FC set at rest. A
//! perturbed version is allocated once, by the updater, and the mailbox
//! and all W engines point at that allocation; the restoring version
//! posts the baseline's own handles, after which engines, mailbox and
//! baseline are one allocation again. Nothing ever writes through a
//! handle: an installed set is immutable, and a batch pins the set it
//! computes from by cloning the handle, as
//! [`drec_ops::FullyConnected`] does on every run.
//!
//! Deadlock rule: the updater must run on its own thread. Publishing a
//! version calls `EpochGc::synchronize`, which waits for every pinned
//! reader — a worker that applied updates inline while pinned would
//! wait on itself.

use std::sync::Arc;
use std::time::{Duration, Instant};

use drec_faultsim::{FaultHook, UpdateFault};
use drec_ops::FcParams;
use drec_store::{
    EmbeddingStore, EncodedRow, RestoreBatch, RowDelta, RowRestore, StoreError, UpdateBatch,
    UpdateReport,
};
use drec_sync::atomic::{AtomicU64, Ordering};
use drec_sync::Mutex;

use crate::degrade::OverloadLadder;
use crate::error::{Result, ServeError};

/// One full MLP weight set, versioned. `layers` holds one shared
/// parameter handle per fully-connected layer in the model's graph order
/// — the shape [`drec_models::RecModel::fc_params`] produces and
/// [`drec_models::RecModel::install_fc_params`] consumes. Cloning a set
/// clones handles, never weights.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightSet {
    /// Snapshot version this weight set belongs to.
    pub version: u64,
    /// One parameter handle per FC layer, in graph order.
    pub layers: FcLayers,
}

/// One shared `(weights, bias)` handle per FC layer, in graph order — the
/// payload of a [`WeightSet`] without its version.
pub type FcLayers = Vec<Arc<FcParams>>;

/// The update-side handle for one served model: weight mailbox, install
/// tracking, and the staleness gauge. Shared between the worker engines
/// (readers) and the [`Updater`] (writer).
#[derive(Debug)]
pub struct ModelUpdateChannel {
    name: String,
    namespace: u64,
    store: Option<Arc<EmbeddingStore>>,
    ladder: Mutex<Option<Arc<OverloadLadder>>>,
    /// Single-slot mailbox: the newest posted weight set wins. Engines
    /// poll it at batch boundaries, so a mid-rolling-update worker is at
    /// most one version behind — exactly the staleness bound.
    mailbox: Mutex<Option<Arc<WeightSet>>>,
    /// Highest version fully published (embeddings applied + weights
    /// posted).
    posted_version: AtomicU64,
    /// Per-reader installed weight version, indexed by the id from
    /// [`register_reader`](ModelUpdateChannel::register_reader).
    installed: Mutex<Vec<u64>>,
    /// Baseline weight set: the handles the first registering engine was
    /// built with — what every later engine of the lane installs in place
    /// of its own draw, and what the final version of a plan restores.
    baseline: Mutex<Option<Arc<FcLayers>>>,
    /// Worst `posted - served` gap any batch reported.
    max_staleness: AtomicU64,
    /// Batches that reported a served version.
    staleness_samples: AtomicU64,
}

impl ModelUpdateChannel {
    /// A channel for the model registered under `namespace` in `store`
    /// (pass `None` for dense builds — weight rotation still works).
    pub fn new(
        name: impl Into<String>,
        namespace: u64,
        store: Option<Arc<EmbeddingStore>>,
    ) -> Self {
        ModelUpdateChannel {
            name: name.into(),
            namespace,
            store,
            ladder: Mutex::new(None),
            mailbox: Mutex::new(None),
            posted_version: AtomicU64::new(0),
            installed: Mutex::new(Vec::new()),
            baseline: Mutex::new(None),
            max_staleness: AtomicU64::new(0),
            staleness_samples: AtomicU64::new(0),
        }
    }

    /// Points the updater at an overload ladder; while it reports
    /// [`OverloadLadder::updates_throttled`], delta application pauses.
    pub fn set_ladder(&self, ladder: Arc<OverloadLadder>) {
        *self.ladder.lock() = Some(ladder);
    }

    /// Channel (model) name, for diagnostics.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The store namespace this channel's embedding deltas target.
    pub fn namespace(&self) -> u64 {
        self.namespace
    }

    /// The shared store, when the model is store-backed.
    pub fn store(&self) -> Option<&Arc<EmbeddingStore>> {
        self.store.as_ref()
    }

    /// Registers a weight reader (one per engine) and returns its id.
    /// A fresh reader starts at version 0 — it installs the current
    /// mailbox contents on its first poll.
    pub fn register_reader(&self) -> usize {
        let mut installed = self.installed.lock();
        installed.push(0);
        installed.len() - 1
    }

    /// Records the baseline weight set if none is held yet, and returns
    /// the one held. Engines call this at registration with their own
    /// handles; with identically-seeded replicas the first offer is the
    /// oracle for all of them, and the later ones install what comes back.
    pub fn offer_baseline(&self, capture: impl FnOnce() -> FcLayers) -> Arc<FcLayers> {
        let mut baseline = self.baseline.lock();
        Arc::clone(baseline.get_or_insert_with(|| Arc::new(capture())))
    }

    /// The baseline weight set, once an engine has registered.
    pub fn baseline(&self) -> Option<Arc<FcLayers>> {
        self.baseline.lock().clone()
    }

    /// Bytes of `f32` in one FC weight set of this model (0 before an
    /// engine has registered) — what the lane holds once at rest, and
    /// once more per version in flight.
    pub fn fc_param_bytes(&self) -> usize {
        let floats = |p: &Arc<FcParams>| p.weights.numel() + p.bias.numel();
        let baseline = self.baseline.lock();
        let set = baseline.iter().flat_map(|layers| layers.iter());
        set.map(floats).sum::<usize>() * std::mem::size_of::<f32>()
    }

    /// Posts a weight set to the mailbox (newest wins).
    pub fn post_weights(&self, weights: Arc<WeightSet>) {
        *self.mailbox.lock() = Some(weights);
    }

    /// Returns the mailbox weight set when it is newer than `installed`.
    pub fn poll_weights(&self, installed: u64) -> Option<Arc<WeightSet>> {
        let mailbox = self.mailbox.lock();
        match &*mailbox {
            Some(ws) if ws.version > installed => Some(Arc::clone(ws)),
            _ => None,
        }
    }

    /// Marks reader `reader` as having installed `version`.
    pub fn note_install(&self, reader: usize, version: u64) {
        let mut installed = self.installed.lock();
        if let Some(slot) = installed.get_mut(reader) {
            *slot = version;
        }
    }

    /// Retires a reader (its engine died or was replaced): the slot is
    /// parked at `u64::MAX` so a dead worker never drags
    /// [`min_installed`](ModelUpdateChannel::min_installed) — and with
    /// it the updater's pacing — behind forever.
    pub fn retire_reader(&self, reader: usize) {
        self.note_install(reader, u64::MAX);
    }

    /// The slowest reader's installed weight version (`u64::MAX` with no
    /// readers, so an updater never waits on an empty fleet).
    pub fn min_installed(&self) -> u64 {
        self.installed
            .lock()
            .iter()
            .copied()
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Highest fully-published snapshot version.
    pub fn current_version(&self) -> u64 {
        self.posted_version.load(Ordering::Acquire)
    }

    /// Publishes `version` as current (the updater calls this after the
    /// embedding batch lands and the weight set is posted).
    pub fn publish_version(&self, version: u64) {
        self.posted_version.fetch_max(version, Ordering::AcqRel);
    }

    /// Records the snapshot version one batch was served from; the gap
    /// to the published version feeds the max-staleness gauge the chaos
    /// gate asserts on (`served >= published - 1`).
    pub fn record_staleness(&self, served_version: u64) {
        let published = self.current_version();
        let gap = published.saturating_sub(served_version);
        self.max_staleness.fetch_max(gap, Ordering::AcqRel);
        self.staleness_samples.fetch_add(1, Ordering::Relaxed);
    }

    /// Worst published-minus-served gap any batch reported.
    pub fn max_staleness(&self) -> u64 {
        self.max_staleness.load(Ordering::Acquire)
    }

    /// Batches that contributed a staleness sample.
    pub fn staleness_samples(&self) -> u64 {
        self.staleness_samples.load(Ordering::Relaxed)
    }

    fn updates_throttled(&self) -> bool {
        self.ladder
            .lock()
            .as_ref()
            .is_some_and(|l| l.updates_throttled())
    }
}

/// Shape of one rolling update: how many versions to stream, how many
/// rows each rewrites per table, and the pacing between versions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdatePlan {
    /// Total snapshot versions to publish. The last one restores the
    /// captured originals, so `versions >= 2` actually perturbs state.
    pub versions: u64,
    /// Embedding rows rewritten per table per version.
    pub rows_per_version: usize,
    /// Sleep between published versions (0 streams back-to-back).
    pub pace: Duration,
    /// Seed for the deterministic row/value perturbation stream.
    pub seed: u64,
}

impl Default for UpdatePlan {
    fn default() -> Self {
        UpdatePlan {
            versions: 4,
            rows_per_version: 8,
            pace: Duration::ZERO,
            seed: 0x5EED,
        }
    }
}

/// Counters from one [`Updater::run`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdaterStats {
    /// Delta batches applied and published.
    pub batches_applied: u64,
    /// Embedding rows rewritten across all batches.
    pub rows_applied: u64,
    /// Batches rolled back atomically after an injected mid-batch crash.
    pub rolled_back: u64,
    /// Rolled-back batches that succeeded on retry.
    pub recovered: u64,
    /// Duplicate delta batches rejected by the store's version check.
    pub duplicates_rejected: u64,
    /// Times the updater paused because the overload ladder throttled
    /// updates.
    pub throttle_waits: u64,
    /// MLP weight sets posted.
    pub weight_sets_posted: u64,
}

impl UpdaterStats {
    /// Accumulates another run's counters (rolling updates sum one
    /// per-model run per channel).
    pub fn accumulate(&mut self, other: &UpdaterStats) {
        self.batches_applied += other.batches_applied;
        self.rows_applied += other.rows_applied;
        self.rolled_back += other.rolled_back;
        self.recovered += other.recovered;
        self.duplicates_rejected += other.duplicates_rejected;
        self.throttle_waits += other.throttle_waits;
        self.weight_sets_posted += other.weight_sets_posted;
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Background driver streaming one rolling update through one model's
/// [`ModelUpdateChannel`]. Run it on its own thread (see the module
/// docs' deadlock rule); a rolling update of a fleet is a sequence of
/// per-channel runs.
#[derive(Debug)]
pub struct Updater {
    channel: Arc<ModelUpdateChannel>,
    plan: UpdatePlan,
    hook: FaultHook,
    /// How long to wait for the slowest reader to install a posted
    /// weight set before moving on (a hung worker must not hang the
    /// updater — the mailbox keeps only the newest set anyway).
    install_wait: Duration,
    /// Cap on total backpressure wait per version, so a saturated
    /// ladder degrades update freshness instead of wedging the run.
    throttle_cap: Duration,
}

impl Updater {
    /// An updater for `channel` executing `plan`, fault-free.
    pub fn new(channel: Arc<ModelUpdateChannel>, plan: UpdatePlan) -> Self {
        Updater {
            channel,
            plan,
            hook: FaultHook::disabled(),
            install_wait: Duration::from_secs(5),
            throttle_cap: Duration::from_millis(250),
        }
    }

    /// Installs an update-path fault hook; its
    /// [`FaultHook::on_update`] schedule decides which versions crash
    /// mid-batch, delay their publish, or get a duplicate resubmission.
    pub fn set_fault_hook(&mut self, hook: FaultHook) {
        self.hook = hook;
    }

    /// Streams the plan: versions `1..K` perturb seeded rows and weight
    /// sets, version `K` restores every captured original. Blocks until
    /// the plan completes; returns the run's counters.
    ///
    /// # Errors
    ///
    /// [`ServeError::UpdateFailed`] when the store rejects a batch for a
    /// reason the retry policy does not cover (never from injected
    /// faults — those recover by construction).
    pub fn run(&mut self) -> Result<UpdaterStats> {
        let mut stats = UpdaterStats::default();
        if self.plan.versions == 0 {
            return Ok(stats);
        }
        let mut rng = self.plan.seed ^ self.channel.namespace();
        // (ordinal, row) -> the row's original resident bytes, captured
        // before first touch. Kept encoded: writing the decoded values
        // back would re-quantize them, and an int8 row does not always
        // come back with the scale and bytes it started with.
        let mut originals: std::collections::BTreeMap<(u32, u32), EncodedRow> =
            std::collections::BTreeMap::new();
        let tables: Vec<(u32, usize, usize)> = self
            .channel
            .store()
            .map(|s| s.namespace_tables(self.channel.namespace()))
            .unwrap_or_default();

        for k in 1..=self.plan.versions {
            self.wait_for_green_light(&mut stats);
            let restore = k == self.plan.versions;

            // Embedding rows first, then the weight set, then the
            // version publish: an engine that sees version N posted can
            // already read N's rows.
            if let Some(store) = self.channel.store() {
                let namespace = self.channel.namespace();
                let target_version = store.namespace_version(namespace) + 1;
                let report = if restore {
                    let batch = RestoreBatch {
                        namespace,
                        target_version,
                        rows: std::mem::take(&mut originals)
                            .into_iter()
                            .map(|((ordinal, row), encoded)| RowRestore {
                                ordinal,
                                row,
                                encoded,
                            })
                            .collect(),
                    };
                    self.apply_with_faults(
                        target_version,
                        |fault| store.apply_restore(&batch, fault),
                        &mut stats,
                    )?
                } else {
                    let batch = UpdateBatch {
                        namespace,
                        target_version,
                        deltas: self.perturb_deltas(&tables, &mut originals, &mut rng)?,
                    };
                    self.apply_with_faults(
                        target_version,
                        |fault| store.apply_update(&batch, fault),
                        &mut stats,
                    )?
                };
                stats.batches_applied += 1;
                stats.rows_applied += report.rows_applied as u64;
            }
            if let Some(baseline) = self.channel.baseline() {
                let layers = if restore {
                    // The baseline's own handles: once installed, engines,
                    // mailbox and baseline are one allocation again.
                    FcLayers::clone(&baseline)
                } else {
                    let scale = 1.0 + (splitmix64(&mut rng) % 7 + 1) as f32 * 0.05;
                    let shift = (splitmix64(&mut rng) % 5) as f32 * 0.01 - 0.02;
                    let perturbed = |p: &Arc<FcParams>| {
                        Arc::new(FcParams {
                            weights: p.weights.map(|v| v * scale + shift),
                            bias: p.bias.map(|v| v * scale),
                        })
                    };
                    baseline.iter().map(perturbed).collect()
                };
                self.channel
                    .post_weights(Arc::new(WeightSet { version: k, layers }));
                stats.weight_sets_posted += 1;
            }
            self.channel.publish_version(k);
            self.wait_for_installs(k);
            if !self.plan.pace.is_zero() {
                std::thread::sleep(self.plan.pace);
            }
        }
        Ok(stats)
    }

    /// Builds version `k`'s deltas: `rows_per_version` seeded rows per
    /// table, each rewritten with a deterministic perturbation of its
    /// original values (captured, encoded, on first touch).
    fn perturb_deltas(
        &self,
        tables: &[(u32, usize, usize)],
        originals: &mut std::collections::BTreeMap<(u32, u32), EncodedRow>,
        rng: &mut u64,
    ) -> Result<Vec<RowDelta>> {
        let store = match self.channel.store() {
            Some(s) => s,
            None => return Ok(Vec::new()),
        };
        let mut deltas = Vec::new();
        for &(ordinal, rows, _dim) in tables {
            let handle = store
                .lookup(self.channel.namespace(), ordinal)
                .map_err(|e| self.update_failed(0, &e))?;
            let pin = store
                .try_pin(handle)
                .map_err(|e| self.update_failed(0, &e))?;
            for _ in 0..self.plan.rows_per_version.min(rows) {
                let row = (splitmix64(rng) % rows as u64) as u32;
                let original = match originals.entry((ordinal, row)) {
                    std::collections::btree_map::Entry::Occupied(e) => e.get().decode(),
                    std::collections::btree_map::Entry::Vacant(slot) => {
                        let encoded = pin
                            .read_row_encoded(row)
                            .map_err(|e| self.update_failed(0, &e))?;
                        slot.insert(encoded).decode()
                    }
                };
                let scale = 1.0 + (splitmix64(rng) % 9 + 1) as f32 * 0.125;
                deltas.push(RowDelta {
                    ordinal,
                    row,
                    values: original.iter().map(|v| v * scale + 0.5).collect(),
                });
            }
        }
        Ok(deltas)
    }

    /// Applies one batch (`apply` is the store call, given the fault to
    /// inject), honouring the fault schedule: a crash rolls back and
    /// retries once (typed, counted); a duplicate resubmits the same
    /// batch and expects the store's version check to reject it; a
    /// publish delay just rides along.
    fn apply_with_faults(
        &self,
        target_version: u64,
        apply: impl Fn(UpdateFault) -> std::result::Result<UpdateReport, StoreError>,
        stats: &mut UpdaterStats,
    ) -> Result<UpdateReport> {
        let failed = |e: StoreError| self.update_failed(target_version, &e);
        let fault = self.hook.on_update();
        let first = match (fault, apply(fault)) {
            (UpdateFault::CrashMidBatch { .. }, Err(StoreError::UpdateAborted { .. })) => {
                stats.rolled_back += 1;
                // Atomic rollback verified by the store; retry clean.
                let report = apply(UpdateFault::None).map_err(failed)?;
                stats.recovered += 1;
                return Ok(report);
            }
            (_, result) => result.map_err(failed)?,
        };
        if matches!(fault, UpdateFault::DuplicateDelta { .. }) {
            // The duplicate must bounce off the version check without
            // touching rows.
            match apply(UpdateFault::None) {
                Err(StoreError::VersionConflict { .. }) => stats.duplicates_rejected += 1,
                Ok(_) => {
                    return Err(self
                        .update_failed(target_version, &"duplicate delta batch was applied twice"))
                }
                Err(e) => return Err(failed(e)),
            }
        }
        Ok(first)
    }

    fn wait_for_green_light(&self, stats: &mut UpdaterStats) {
        let start = Instant::now();
        let mut waited = false;
        while self.channel.updates_throttled() && start.elapsed() < self.throttle_cap {
            waited = true;
            std::thread::sleep(Duration::from_millis(1));
        }
        if waited {
            stats.throttle_waits += 1;
        }
    }

    fn wait_for_installs(&self, version: u64) {
        let start = Instant::now();
        while self.channel.min_installed() < version && start.elapsed() < self.install_wait {
            std::thread::yield_now();
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    fn update_failed(&self, target_version: u64, reason: &dyn std::fmt::Display) -> ServeError {
        ServeError::UpdateFailed {
            channel: self.channel.name().to_string(),
            target_version,
            reason: reason.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drec_store::StoreConfig;

    fn store_with_table(namespace: u64) -> Arc<EmbeddingStore> {
        let store = Arc::new(EmbeddingStore::new(StoreConfig {
            cache_capacity_rows: 32,
            ..StoreConfig::default()
        }));
        let data: Vec<f32> = (0..64 * 4).map(|i| i as f32 * 0.25).collect();
        store.register(namespace, 0, 64, 4, &data).unwrap();
        store
    }

    fn snapshot_rows(store: &Arc<EmbeddingStore>, namespace: u64) -> Vec<Vec<f32>> {
        let pin = store.try_pin(store.lookup(namespace, 0).unwrap()).unwrap();
        (0..64u32)
            .map(|r| {
                let mut buf = vec![0.0f32; 4];
                pin.read_row_raw(r, &mut buf).unwrap();
                buf
            })
            .collect()
    }

    #[test]
    fn updater_perturbs_then_restores_bit_identically() {
        use drec_store::RowEncoding;
        // Irregular values: re-quantizing a decoded int8 row of these
        // does not always give back its scale, which is how restores
        // used to drift.
        let (rows, dim) = (64usize, 16usize);
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let data: Vec<f32> = (0..rows * dim)
            .map(|_| splitmix64(&mut x) as u32 as f32 / u32::MAX as f32 * 2.3 - 1.1)
            .collect();
        for encoding in [RowEncoding::F32, RowEncoding::F16, RowEncoding::Int8] {
            let ns = 0xAB;
            let build = || {
                let store = Arc::new(EmbeddingStore::new(StoreConfig {
                    encoding,
                    cache_capacity_rows: 32,
                    ..StoreConfig::default()
                }));
                store.register(ns, 0, rows, dim, &data).unwrap();
                store
            };
            let snapshot = |store: &Arc<EmbeddingStore>| -> Vec<u32> {
                let pin = store.try_pin(store.lookup(ns, 0).unwrap()).unwrap();
                let mut buf = vec![0.0f32; dim];
                let mut bits = Vec::with_capacity(rows * dim);
                for r in 0..rows as u32 {
                    pin.read_row_raw(r, &mut buf).unwrap();
                    bits.extend(buf.iter().map(|v| v.to_bits()));
                }
                bits
            };
            let store = build();
            let fresh = snapshot(&build());
            assert_eq!(snapshot(&store), fresh);
            let channel = Arc::new(ModelUpdateChannel::new("m", ns, Some(Arc::clone(&store))));
            let mut rows_applied = 0;
            for plan in 0..50u64 {
                let mut up = Updater::new(
                    Arc::clone(&channel),
                    UpdatePlan {
                        versions: 3,
                        rows_per_version: 6,
                        pace: Duration::ZERO,
                        seed: 42 + plan,
                    },
                );
                let stats = up.run().unwrap();
                assert_eq!(stats.batches_applied, 3);
                rows_applied += stats.rows_applied;
                assert_eq!(
                    snapshot(&store),
                    fresh,
                    "{encoding}: plan {plan} left the store different from a fresh build"
                );
            }
            assert_eq!(store.namespace_version(ns), 150);
            // The middle versions really did change rows.
            assert!(rows_applied > 0);
        }
    }

    #[test]
    fn injected_crashes_roll_back_and_recover() {
        let ns = 0xCD;
        let store = store_with_table(ns);
        let before = snapshot_rows(&store, ns);
        let channel = Arc::new(ModelUpdateChannel::new("m", ns, Some(Arc::clone(&store))));
        let mut up = Updater::new(
            Arc::clone(&channel),
            UpdatePlan {
                versions: 6,
                rows_per_version: 4,
                pace: Duration::ZERO,
                seed: 7,
            },
        );
        let plan = drec_faultsim::FaultPlan {
            update_crash_every_n_batches: Some(2),
            update_duplicate_every_n_batches: Some(3),
            ..drec_faultsim::FaultPlan::quiet(9)
        };
        up.set_fault_hook(FaultHook::from_plan(&plan));
        let stats = up.run().unwrap();
        assert_eq!(stats.batches_applied, 6, "every version must land");
        assert!(stats.rolled_back >= 1, "crash schedule must fire");
        assert_eq!(stats.recovered, stats.rolled_back);
        assert_eq!(store.namespace_version(ns), 6);
        assert_eq!(before, snapshot_rows(&store, ns));
    }

    #[test]
    fn duplicate_deltas_bounce_off_the_version_check() {
        let ns = 0xEF;
        let store = store_with_table(ns);
        let channel = Arc::new(ModelUpdateChannel::new("m", ns, Some(Arc::clone(&store))));
        let mut up = Updater::new(
            Arc::clone(&channel),
            UpdatePlan {
                versions: 4,
                rows_per_version: 2,
                pace: Duration::ZERO,
                seed: 3,
            },
        );
        let plan = drec_faultsim::FaultPlan {
            update_duplicate_every_n_batches: Some(1),
            ..drec_faultsim::FaultPlan::quiet(5)
        };
        up.set_fault_hook(FaultHook::from_plan(&plan));
        let stats = up.run().unwrap();
        assert!(stats.duplicates_rejected >= 1);
        assert_eq!(
            store.namespace_version(ns),
            4,
            "duplicates must not advance"
        );
    }

    #[test]
    fn mailbox_keeps_newest_and_tracks_min_install() {
        let channel = ModelUpdateChannel::new("m", 1, None);
        let r0 = channel.register_reader();
        let r1 = channel.register_reader();
        assert_eq!(channel.min_installed(), 0);
        channel.post_weights(Arc::new(WeightSet {
            version: 1,
            layers: Vec::new(),
        }));
        channel.post_weights(Arc::new(WeightSet {
            version: 2,
            layers: Vec::new(),
        }));
        let ws = channel.poll_weights(0).expect("newer set available");
        assert_eq!(ws.version, 2, "mailbox keeps only the newest");
        channel.note_install(r0, 2);
        assert_eq!(channel.min_installed(), 0, "slowest reader rules");
        channel.note_install(r1, 2);
        assert_eq!(channel.min_installed(), 2);
        assert!(channel.poll_weights(2).is_none(), "nothing newer");
    }

    #[test]
    fn restore_posts_the_baselines_own_handles() {
        use drec_tensor::Tensor;
        let channel = Arc::new(ModelUpdateChannel::new("m", 1, None));
        let layer = || {
            Arc::new(FcParams {
                weights: Tensor::filled(&[2, 3], 0.5),
                bias: Tensor::filled(&[2], 0.25),
            })
        };
        let baseline = channel.offer_baseline(|| vec![layer(), layer()]);
        let again = channel.offer_baseline(|| unreachable!("a baseline is held"));
        assert!(Arc::ptr_eq(&baseline, &again));
        assert_eq!(channel.fc_param_bytes(), 2 * (6 + 2) * 4);

        let posted = |versions| {
            let plan = UpdatePlan {
                versions,
                ..UpdatePlan::default()
            };
            let stats = Updater::new(Arc::clone(&channel), plan).run().unwrap();
            assert_eq!(stats.weight_sets_posted, versions);
            channel.poll_weights(0).expect("a set was posted")
        };
        let shares = |a: &FcLayers, b: &FcLayers| a.iter().zip(b).all(|(a, b)| Arc::ptr_eq(a, b));
        // A one-version plan is its own restore.
        assert!(shares(&posted(1).layers, &baseline));
        // So is the last of several, whatever the ones before it posted.
        let restored = posted(3);
        assert_eq!(restored.version, 3);
        assert!(shares(&restored.layers, &baseline));
    }

    #[test]
    fn staleness_gauge_records_worst_gap() {
        let channel = ModelUpdateChannel::new("m", 1, None);
        channel.publish_version(3);
        channel.record_staleness(3);
        assert_eq!(channel.max_staleness(), 0);
        channel.record_staleness(2);
        assert_eq!(channel.max_staleness(), 1);
        channel.record_staleness(3);
        assert_eq!(channel.max_staleness(), 1, "gauge keeps the worst gap");
        assert_eq!(channel.staleness_samples(), 3);
    }

    #[test]
    fn throttled_ladder_pauses_but_does_not_wedge_the_updater() {
        let ns = 0x11;
        let store = store_with_table(ns);
        let channel = Arc::new(ModelUpdateChannel::new("m", ns, Some(Arc::clone(&store))));
        let ladder = Arc::new(OverloadLadder::new(
            crate::degrade::DegradeConfig::default(),
            10,
            None,
        ));
        ladder.observe(9); // CacheOnly: updates throttled.
        assert!(ladder.updates_throttled());
        channel.set_ladder(Arc::clone(&ladder));
        let mut up = Updater::new(
            Arc::clone(&channel),
            UpdatePlan {
                versions: 2,
                rows_per_version: 1,
                pace: Duration::ZERO,
                seed: 1,
            },
        );
        up.throttle_cap = Duration::from_millis(5);
        let stats = up.run().unwrap();
        assert!(stats.throttle_waits >= 1, "ladder must be consulted");
        assert_eq!(
            stats.batches_applied, 2,
            "the cap bounds the wait; updates still land"
        );
    }
}
