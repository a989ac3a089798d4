//! Row writes: versioned update and restore batches (validate, honor
//! the injected fault, write and publish under the touched shards'
//! guards), the single-row rewrite, and the one write routine both go
//! through.

use drec_faultsim::UpdateFault;
use drec_sync::atomic::Ordering;

use crate::encoding::{EncodedRow, RowWrite};
use crate::read::PinnedTable;
use crate::registry::{row_key, EmbeddingStore, StoreError, StoredTable};

/// One row rewrite inside an [`UpdateBatch`].
#[derive(Debug, Clone, PartialEq)]
pub struct RowDelta {
    /// Table ordinal within the batch's namespace.
    pub ordinal: u32,
    /// Row to rewrite.
    pub row: u32,
    /// New row values (length must equal the table's `dim`).
    pub values: Vec<f32>,
}

/// A versioned batch of row rewrites for one namespace. Batches apply
/// atomically: either every delta lands and the namespace version
/// advances to `target_version`, or (on validation failure, version
/// conflict, or injected crash) nothing is visible afterwards.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateBatch {
    /// Namespace whose tables the deltas target.
    pub namespace: u64,
    /// Version this batch publishes; must be exactly one past the
    /// namespace's current version.
    pub target_version: u64,
    /// The row rewrites.
    pub deltas: Vec<RowDelta>,
}

/// One captured row inside a [`RestoreBatch`].
#[derive(Debug)]
pub struct RowRestore {
    /// Table ordinal within the batch's namespace.
    pub ordinal: u32,
    /// Row to put back.
    pub row: u32,
    /// The bytes to put back.
    pub encoded: EncodedRow,
}

/// An [`UpdateBatch`] whose rows are captured [`EncodedRow`]s instead of
/// values: same validation, atomicity, versioning and fault handling,
/// but every row lands byte for byte as it was captured.
#[derive(Debug)]
pub struct RestoreBatch {
    /// Namespace whose tables the rows target.
    pub namespace: u64,
    /// Version this batch publishes; must be exactly one past the
    /// namespace's current version.
    pub target_version: u64,
    /// The rows to put back.
    pub rows: Vec<RowRestore>,
}

/// What [`EmbeddingStore::apply_update`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateReport {
    /// Rows rewritten by the batch.
    pub rows_applied: usize,
}

impl EmbeddingStore {
    /// Applies one versioned [`UpdateBatch`] atomically and publishes
    /// its version (DESIGN.md §14). The protocol, in order:
    ///
    /// 1. **Validate everything up front** — unknown tables, row ranges,
    ///    dims, and the version (`target_version` must be exactly one
    ///    past [`EmbeddingStore::namespace_version`]) are all checked
    ///    before any row is touched, so a malformed batch is rejected
    ///    with a typed error and zero visible effect.
    /// 2. **Honor the injected fault before any row moves** — an
    ///    [`UpdateFault::CrashMidBatch`] returns
    ///    [`StoreError::UpdateAborted`] having written nothing, so the
    ///    failed batch is invisible and the version unchanged; an
    ///    [`UpdateFault::DelayPublish`] sleeps while readers keep serving
    ///    the prior version, before the batch takes the registry guard
    ///    at all (ahead of step 1): a sleep under that guard would hold
    ///    every registry read queued behind a waiting registration.
    /// 3. **Write and publish under the touched shards' guards** — the
    ///    batch takes the write guard of every shard it touches, in
    ///    (table slot, shard) order, rewrites its rows there and advances
    ///    the namespace's one version to `target_version`, one store,
    ///    before it lets the guards go; then each row's write stamp is
    ///    bumped and its hot key and residency invalidated. A bag holds
    ///    the guards of every shard it reads at once, so it reads all of
    ///    the batch's rows, with the new version published, or none.
    ///
    /// It returns without waiting for readers: rows are rewritten in
    /// place and no decoded row lives outside the shards — the hot-row
    /// key set and the tier hold keys, not values — so nothing is left
    /// to retire once step 3 is done. A serving lane's updater waits out
    /// its readers once per version, on this store's epoch, after it
    /// posts the version's weight set (DESIGN.md §14).
    ///
    /// `fault` is the injected update fault to honor (the updater
    /// threads its [`drec_faultsim::FaultHook::on_update`] decision
    /// through here); pass [`UpdateFault::None`] on the clean path.
    ///
    /// # Errors
    ///
    /// [`StoreError::TableNotRegistered`], [`StoreError::RowOutOfRange`],
    /// [`StoreError::DataSizeMismatch`] (validation),
    /// [`StoreError::VersionConflict`] (duplicate or gapped version), or
    /// [`StoreError::UpdateAborted`] (injected crash, nothing written).
    pub fn apply_update(
        &self,
        batch: &UpdateBatch,
        fault: UpdateFault,
    ) -> Result<UpdateReport, StoreError> {
        let writes = batch
            .deltas
            .iter()
            .map(|d| (d.ordinal, d.row, RowWrite::Values(&d.values)))
            .collect();
        self.apply_rows(batch.namespace, batch.target_version, writes, fault)
    }

    /// [`EmbeddingStore::apply_update`] for rows captured with
    /// [`PinnedTable::read_row_encoded`]: the same three steps and the
    /// same errors, but each row is copied back byte for byte instead of
    /// being re-encoded — a restore leaves the store bit-identical to
    /// what it was when the rows were captured, in every encoding. A
    /// captured row whose encoding or width differs from its target
    /// table's is rejected up front with
    /// [`StoreError::DataSizeMismatch`] (bytes per row).
    pub fn apply_restore(
        &self,
        batch: &RestoreBatch,
        fault: UpdateFault,
    ) -> Result<UpdateReport, StoreError> {
        let writes = batch
            .rows
            .iter()
            .map(|r| (r.ordinal, r.row, RowWrite::Encoded(&r.encoded)))
            .collect();
        self.apply_rows(batch.namespace, batch.target_version, writes, fault)
    }

    /// The update protocol behind [`EmbeddingStore::apply_update`] and
    /// [`EmbeddingStore::apply_restore`]; `writes` is `(ordinal, row,
    /// what to write)`.
    fn apply_rows(
        &self,
        namespace: u64,
        target_version: u64,
        writes: Vec<(u32, u32, RowWrite<'_>)>,
        fault: UpdateFault,
    ) -> Result<UpdateReport, StoreError> {
        // Step 2's delay, before the registry guard: a registration
        // queued behind a sleeping guard would hold every later read of
        // the registry behind the sleep.
        if let UpdateFault::DelayPublish(delay) = fault {
            self.update_publish_delays.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(delay);
        }
        // One read guard from validation through the publish: the
        // namespace record and its tables are borrowed, not cloned.
        let registry = self.registry.read();
        let ns = registry.namespaces.get(&namespace);
        // Step 1: resolve and validate every row before touching any.
        let mut resolved = Vec::with_capacity(writes.len());
        for (ordinal, row, write) in writes {
            let slot = ns
                .and_then(|ns| ns.ordinals.get(&ordinal).copied())
                .ok_or(StoreError::TableNotRegistered { namespace, ordinal })?;
            let table = &*registry.tables[slot];
            table.check_row(row)?;
            let mismatch = match write {
                RowWrite::Values(values) => {
                    (values.len() != table.dim).then_some((table.dim, values.len()))
                }
                RowWrite::Encoded(e) => {
                    let encoding = e.encoding();
                    (e.dim() != table.dim || encoding != self.cfg.encoding).then(|| {
                        (
                            self.cfg.encoding.bytes_per_row(table.dim),
                            encoding.bytes_per_row(e.dim()),
                        )
                    })
                }
            };
            if let Some((expected, actual)) = mismatch {
                return Err(StoreError::DataSizeMismatch { expected, actual });
            }
            resolved.push((slot, table, row, write));
        }
        let Some(ns) = ns else {
            return Err(StoreError::TableNotRegistered {
                namespace,
                ordinal: 0,
            });
        };
        let current = ns.version.load(Ordering::Acquire);
        if target_version != current + 1 {
            if target_version <= current {
                self.update_duplicates_rejected
                    .fetch_add(1, Ordering::Relaxed);
            }
            return Err(StoreError::VersionConflict {
                namespace,
                current,
                target: target_version,
            });
        }

        // Step 2: an injected crash, after validation and before any
        // row moves.
        if let UpdateFault::CrashMidBatch { .. } = fault {
            self.update_rollbacks.fetch_add(1, Ordering::Relaxed);
            return Err(StoreError::UpdateAborted {
                namespace,
                target: target_version,
                rows_rolled_back: resolved.len() / 2,
            });
        }

        // Step 3: write and publish under the touched shards' guards.
        self.write_rows(&mut resolved, || {
            ns.version.store(target_version, Ordering::Release)
        });
        let rows_applied = resolved.len();
        self.update_batches_applied.fetch_add(1, Ordering::Relaxed);
        self.update_rows_applied
            .fetch_add(rows_applied as u64, Ordering::Relaxed);
        Ok(UpdateReport { rows_applied })
    }

    /// The one row-write routine, behind a batch's apply and
    /// [`PinnedTable::update_row`]. `rows` is `(table slot, table, row,
    /// what to write)`, every row validated. It takes the write guard of
    /// every shard the rows touch, in (table slot, shard) order — the
    /// lock order of DESIGN.md §12 — writes the rows there, and runs
    /// `publish` before it lets the guards go. A bag holds the guards of
    /// every shard it reads at once, so it reads all of `rows` as
    /// written, with `publish` done, or none of them.
    ///
    /// Then each row's table write stamp is bumped and every trace of the
    /// row outside its shard dropped — its hot key and its DRAM tier
    /// residency — so the rewritten row re-earns both. Write, then stamp,
    /// then invalidate: a prefetch fill captures the stamp, reads the row
    /// and re-verifies the stamp under the residency lock. A fill that
    /// read pre-update bytes either sees the bump at its verify and
    /// aborts, or verified before it, and the invalidation, under that
    /// same lock, removes what it parked. A bump before the write would
    /// let a fill capture the bumped stamp, read the old bytes and pass
    /// its verify after the invalidation ran — the interleaving the loom
    /// model `prefetch_fill_verify_never_parks_stale_bytes` exhibits.
    fn write_rows(
        &self,
        rows: &mut [(usize, &StoredTable, u32, RowWrite<'_>)],
        publish: impl FnOnce(),
    ) {
        // A stable sort: a row named twice keeps its batch order, and its
        // last write wins.
        rows.sort_by_key(|&(slot, table, row, _)| (slot, table.locate(row).0));
        let mut guards = Vec::new();
        let mut held = None;
        for &(slot, table, row, write) in rows.iter() {
            let (s, r) = table.locate(row);
            if held != Some((slot, s)) {
                guards.push(table.shards[s].write());
                held = Some((slot, s));
            }
            let shard = guards.last_mut().expect("its shard's guard is held");
            shard.write(r, table.dim, write);
        }
        publish();
        drop(guards);
        for &(slot, table, row, _) in rows.iter() {
            table.write_stamp.fetch_add(1, Ordering::Release);
            let key = row_key(slot, row);
            self.cache.invalidate(key);
            if let Some(tier) = &self.tier {
                tier.invalidate(key);
            }
        }
    }
}

impl PinnedTable {
    /// Re-encodes one row from `values` through the store's one write
    /// routine, with no version to publish, and invalidates every trace
    /// of it outside the shard (hot-row key and tier residency), so
    /// subsequent lookups see the new value and re-earn residency from
    /// it.
    ///
    /// # Errors
    ///
    /// [`StoreError::RowOutOfRange`] or [`StoreError::DataSizeMismatch`].
    pub fn update_row(&self, row: u32, values: &[f32]) -> Result<(), StoreError> {
        self.table.check_row(row)?;
        if values.len() != self.table.dim {
            return Err(StoreError::DataSizeMismatch {
                expected: self.table.dim,
                actual: values.len(),
            });
        }
        let write = (self.handle.0, &*self.table, row, RowWrite::Values(values));
        self.store.write_rows(&mut [write], || {});
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::sync::{mpsc, Arc};
    use std::time::{Duration, Instant};

    use super::*;
    use crate::test_support::{filled, store, tiered_cfg};
    use crate::{RowEncoding, StoreConfig};

    fn delta(ordinal: u32, row: u32, values: &[f32]) -> RowDelta {
        RowDelta {
            ordinal,
            row,
            values: values.to_vec(),
        }
    }

    #[test]
    fn update_row_is_visible_and_invalidates_cache() {
        let s = store(StoreConfig {
            cache_capacity_rows: 8,
            ..StoreConfig::default()
        });
        let h = s.register(1, 0, 10, 4, &filled(10, 4)).unwrap();
        let pin = s.pin(h);
        let mut out = vec![0.0f32; 4];
        pin.read_row(3, &mut out); // populate cache
        pin.update_row(3, &[9.0, 8.0, 7.0, 6.0]).unwrap();
        pin.read_row(3, &mut out);
        assert_eq!(out, [9.0, 8.0, 7.0, 6.0]);
        assert_eq!(
            pin.update_row(10, &[0.0; 4]),
            Err(StoreError::RowOutOfRange { row: 10, rows: 10 })
        );
        assert_eq!(
            pin.update_row(3, &[0.0; 3]),
            Err(StoreError::DataSizeMismatch {
                expected: 4,
                actual: 3
            })
        );
    }

    #[test]
    fn cache_only_degrade_overlapping_update_retires_cached_rows() {
        let s = store(StoreConfig {
            cache_capacity_rows: 8,
            ..StoreConfig::default()
        });
        let data = filled(10, 4);
        s.register(9, 0, 10, 4, &data).unwrap();
        let pin = s.pin(s.lookup(9, 0).unwrap());
        let mut out = vec![0.0f32; 4];
        pin.read_row(2, &mut out); // warm rows 2 and 4
        pin.read_row(4, &mut out);
        s.set_cache_only(true);

        // A rolling update lands while the store is degraded. The ladder
        // throttles *new* update batches upstream, but one already in
        // flight still publishes — and the cached pre-update rows it
        // touched must be retired. CacheOnly never pins a cached row
        // past its version.
        s.apply_update(
            &UpdateBatch {
                namespace: 9,
                target_version: 1,
                deltas: vec![delta(0, 2, &[9.0, 9.0, 9.0, 9.0])],
            },
            UpdateFault::None,
        )
        .unwrap();
        assert_eq!(s.namespace_version(9), 1);

        // The updated row's hot key was invalidated; in cache-only
        // mode that miss is a quality-loss skip (zeros) — never the
        // stale pre-update bytes.
        pin.read_row(2, &mut out);
        assert_eq!(
            out, [0.0; 4],
            "stale pre-update bytes served from the cache after retirement"
        );
        // The untouched hot row is still served.
        pin.read_row(4, &mut out);
        assert_eq!(out, &data[16..20]);
        assert!(s.stats().cache_only_skips >= 1);

        // Leaving degraded mode: the next demand read decodes the new
        // version from the shard and makes the row hot again...
        s.set_cache_only(false);
        pin.read_row(2, &mut out);
        assert_eq!(out, [9.0; 4]);
        // ...so a later degrade serves the *post-update* version warm.
        s.set_cache_only(true);
        pin.read_row(2, &mut out);
        assert_eq!(out, [9.0; 4], "refill must carry the published version");
    }

    #[test]
    fn apply_update_publishes_rows_and_version() {
        let s = store(StoreConfig {
            cache_capacity_rows: 8,
            ..StoreConfig::default()
        });
        let h0 = s.register(7, 0, 10, 2, &filled(10, 2)).unwrap();
        let h1 = s.register(7, 1, 10, 2, &filled(10, 2)).unwrap();
        let (p0, p1) = (s.pin(h0), s.pin(h1));
        let mut out = vec![0.0f32; 2];
        p0.read_row(3, &mut out); // warm the cache with the pre-update row
        assert_eq!(s.namespace_version(7), 0);

        let report = s
            .apply_update(
                &UpdateBatch {
                    namespace: 7,
                    target_version: 1,
                    deltas: vec![delta(0, 3, &[1.0, 2.0]), delta(1, 5, &[3.0, 4.0])],
                },
                UpdateFault::None,
            )
            .unwrap();
        assert_eq!(report, UpdateReport { rows_applied: 2 });
        assert_eq!(s.namespace_version(7), 1);
        p0.read_row(3, &mut out);
        assert_eq!(out, [1.0, 2.0], "cached pre-update row survived");
        p1.read_row(5, &mut out);
        assert_eq!(out, [3.0, 4.0]);
        let stats = s.stats();
        assert_eq!(stats.update_batches_applied, 1);
        assert_eq!(stats.update_rows_applied, 2);
        assert_eq!(stats.update_rows_retired, 2);
        assert_eq!(stats.update_synchronizations, 0);
        assert_eq!(stats.update_rollbacks, 0);
    }

    #[test]
    fn a_table_registered_after_a_publish_joins_its_namespace_version() {
        let s = store(StoreConfig::default());
        s.register(7, 0, 4, 2, &filled(4, 2)).unwrap();
        let batch = |target_version| UpdateBatch {
            namespace: 7,
            target_version,
            deltas: vec![delta(0, 1, &[9.0, 9.0])],
        };
        s.apply_update(&batch(1), UpdateFault::None).unwrap();
        s.register(7, 1, 4, 2, &filled(4, 2)).unwrap();
        assert_eq!(s.namespace_version(7), 1);
        s.apply_update(&batch(2), UpdateFault::None).unwrap();
        assert_eq!(s.namespace_version(7), 2);
    }

    #[test]
    fn apply_update_rejects_gaps_and_duplicates() {
        let s = store(StoreConfig::default());
        s.register(7, 0, 4, 2, &filled(4, 2)).unwrap();
        let batch = |target| UpdateBatch {
            namespace: 7,
            target_version: target,
            deltas: vec![delta(0, 1, &[9.0, 9.0])],
        };
        // Gap: v2 before v1.
        assert_eq!(
            s.apply_update(&batch(2), UpdateFault::None),
            Err(StoreError::VersionConflict {
                namespace: 7,
                current: 0,
                target: 2
            })
        );
        s.apply_update(&batch(1), UpdateFault::None).unwrap();
        // Duplicate: v1 replayed after v1 published.
        assert_eq!(
            s.apply_update(&batch(1), UpdateFault::None),
            Err(StoreError::VersionConflict {
                namespace: 7,
                current: 1,
                target: 1
            })
        );
        assert_eq!(s.stats().update_duplicates_rejected, 1);
        // The gap rejection was not counted as a duplicate.
        assert_eq!(s.stats().update_batches_applied, 1);
    }

    #[test]
    fn crash_mid_batch_rolls_back_atomically() {
        let s = store(StoreConfig {
            cache_capacity_rows: 8,
            ..StoreConfig::default()
        });
        let data = filled(10, 2);
        let h = s.register(7, 0, 10, 2, &data).unwrap();
        let pin = s.pin(h);
        let batch = UpdateBatch {
            namespace: 7,
            target_version: 1,
            deltas: (0..4).map(|r| delta(0, r, &[5.0, 5.0])).collect(),
        };
        let err = s
            .apply_update(&batch, UpdateFault::CrashMidBatch { batch: 0 })
            .unwrap_err();
        assert_eq!(
            err,
            StoreError::UpdateAborted {
                namespace: 7,
                target: 1,
                rows_rolled_back: 2
            }
        );
        // Nothing visible: every row reads pre-batch, version unchanged.
        let mut out = vec![0.0f32; 2];
        for row in 0..4u32 {
            pin.read_row(row, &mut out);
            assert_eq!(out, &data[row as usize * 2..(row as usize + 1) * 2]);
        }
        assert_eq!(s.namespace_version(7), 0);
        assert_eq!(s.stats().update_rollbacks, 1);
        assert_eq!(s.stats().update_batches_applied, 0);
        // Recovery: the same batch applies cleanly afterwards.
        s.apply_update(&batch, UpdateFault::None).unwrap();
        assert_eq!(s.namespace_version(7), 1);
        pin.read_row(0, &mut out);
        assert_eq!(out, [5.0, 5.0]);
    }

    /// Irregular rows: re-quantizing their decoded int8 form does not
    /// always reproduce the stored scale and bytes.
    fn irregular(rows: usize, dim: usize) -> Vec<f32> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..rows * dim)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 40) as f32 / (1u64 << 24) as f32 * 2.3 - 1.1
            })
            .collect()
    }

    fn decoded_bits(pin: &PinnedTable) -> Vec<u32> {
        let mut buf = vec![0.0f32; pin.dim()];
        let mut bits = Vec::new();
        for row in 0..pin.table.rows as u32 {
            pin.read_row_raw(row, &mut buf).unwrap();
            bits.extend(buf.iter().map(|v| v.to_bits()));
        }
        bits
    }

    #[test]
    fn crash_rollback_and_restore_are_byte_exact_in_every_encoding() {
        for encoding in [RowEncoding::F32, RowEncoding::F16, RowEncoding::Int8] {
            let s = store(StoreConfig {
                encoding,
                ..StoreConfig::default()
            });
            let (rows, dim) = (64, 16);
            let h = s.register(7, 0, rows, dim, &irregular(rows, dim)).unwrap();
            let pin = s.pin(h);
            let fresh = decoded_bits(&pin);
            let captured: Vec<RowRestore> = (0..rows as u32)
                .map(|row| RowRestore {
                    ordinal: 0,
                    row,
                    encoded: pin.read_row_encoded(row).unwrap(),
                })
                .collect();
            let perturb = UpdateBatch {
                namespace: 7,
                target_version: 1,
                deltas: captured
                    .iter()
                    .map(|r| {
                        let values: Vec<f32> =
                            r.encoded.decode().iter().map(|v| v * 1.375 + 0.5).collect();
                        delta(0, r.row, &values)
                    })
                    .collect(),
            };
            // A crash aborts the batch before any of its perturbed rows
            // is written: nothing may have moved by a bit.
            assert!(matches!(
                s.apply_update(&perturb, UpdateFault::CrashMidBatch { batch: 0 }),
                Err(StoreError::UpdateAborted {
                    rows_rolled_back: 32,
                    ..
                })
            ));
            assert_eq!(decoded_bits(&pin), fresh, "{encoding}: rollback drifted");
            // Perturb for real, then put the captured bytes back.
            s.apply_update(&perturb, UpdateFault::None).unwrap();
            assert_ne!(decoded_bits(&pin), fresh);
            let report = s
                .apply_restore(
                    &RestoreBatch {
                        namespace: 7,
                        target_version: 2,
                        rows: captured,
                    },
                    UpdateFault::None,
                )
                .unwrap();
            assert_eq!(report.rows_applied, rows);
            assert_eq!(decoded_bits(&pin), fresh, "{encoding}: restore drifted");
            assert_eq!(s.namespace_version(7), 2);
        }
    }

    #[test]
    fn restore_of_another_layout_is_rejected_before_any_row_moves() {
        let int8 = store(StoreConfig {
            encoding: RowEncoding::Int8,
            ..StoreConfig::default()
        });
        let f32s = store(StoreConfig::default());
        let data = irregular(4, 8);
        let from = int8.pin(int8.register(7, 0, 4, 8, &data).unwrap());
        let into = f32s.pin(f32s.register(7, 0, 4, 8, &data).unwrap());
        let before = decoded_bits(&into);
        let batch = RestoreBatch {
            namespace: 7,
            target_version: 1,
            rows: vec![RowRestore {
                ordinal: 0,
                row: 1,
                encoded: from.read_row_encoded(1).unwrap(),
            }],
        };
        assert_eq!(
            f32s.apply_restore(&batch, UpdateFault::None),
            Err(StoreError::DataSizeMismatch {
                expected: 32, // 8 f32s
                actual: 16,   // 8 int8s + scale + bias
            })
        );
        assert_eq!(decoded_bits(&into), before);
        assert_eq!(f32s.namespace_version(7), 0);
        assert_eq!(
            from.read_row_encoded(4).err(),
            Some(StoreError::RowOutOfRange { row: 4, rows: 4 })
        );
    }

    #[test]
    fn delayed_publish_still_lands() {
        let s = store(StoreConfig::default());
        s.register(7, 0, 4, 2, &filled(4, 2)).unwrap();
        s.apply_update(
            &UpdateBatch {
                namespace: 7,
                target_version: 1,
                deltas: vec![delta(0, 0, &[1.0, 1.0])],
            },
            UpdateFault::DelayPublish(Duration::from_millis(2)),
        )
        .unwrap();
        assert_eq!(s.namespace_version(7), 1);
        assert_eq!(s.stats().update_publish_delays, 1);
    }

    /// A delayed publish holds the whole batch back, its rows with its
    /// version: the store counts the delay as it starts to sleep, and a
    /// read from then on, with the version still 0, gets the pre-batch
    /// bytes. Writing the rows before the delay served the new ones.
    #[test]
    fn rows_stay_unpublished_through_a_delayed_publish() {
        let s = store(StoreConfig::default());
        let data = filled(4, 2);
        let pin = s.pin(s.register(7, 0, 4, 2, &data).unwrap());
        let writer = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                let batch = UpdateBatch {
                    namespace: 7,
                    target_version: 1,
                    deltas: vec![delta(0, 1, &[9.0, 9.0]), delta(0, 3, &[9.0, 9.0])],
                };
                let delay = Duration::from_millis(200);
                s.apply_update(&batch, UpdateFault::DelayPublish(delay))
            })
        };
        while s.stats().update_publish_delays == 0 {
            std::thread::yield_now();
        }
        let mut out = vec![0.0f32; 2];
        pin.read_row(1, &mut out);
        assert_eq!(
            s.namespace_version(7),
            0,
            "the read outlasted the 200 ms delay"
        );
        assert_eq!(out, &data[2..4], "a row of the unpublished batch was read");
        writer.join().unwrap().unwrap();
        assert_eq!(s.namespace_version(7), 1);
        pin.read_row(1, &mut out);
        assert_eq!(out, [9.0, 9.0]);
    }

    #[test]
    fn malformed_updates_are_typed_and_touch_nothing() {
        let s = store(StoreConfig::default());
        let data = filled(4, 2);
        let h = s.register(7, 0, 4, 2, &data).unwrap();
        let pin = s.pin(h);
        // Unregistered ordinal — even when other deltas are valid, the
        // batch rejects whole before any row is touched.
        assert_eq!(
            s.apply_update(
                &UpdateBatch {
                    namespace: 7,
                    target_version: 1,
                    deltas: vec![delta(0, 0, &[9.0, 9.0]), delta(3, 0, &[9.0, 9.0])],
                },
                UpdateFault::None,
            ),
            Err(StoreError::TableNotRegistered {
                namespace: 7,
                ordinal: 3
            })
        );
        // Row out of range.
        assert_eq!(
            s.apply_update(
                &UpdateBatch {
                    namespace: 7,
                    target_version: 1,
                    deltas: vec![delta(0, 4, &[9.0, 9.0])],
                },
                UpdateFault::None,
            ),
            Err(StoreError::RowOutOfRange { row: 4, rows: 4 })
        );
        // Wrong row width.
        assert_eq!(
            s.apply_update(
                &UpdateBatch {
                    namespace: 7,
                    target_version: 1,
                    deltas: vec![delta(0, 0, &[9.0])],
                },
                UpdateFault::None,
            ),
            Err(StoreError::DataSizeMismatch {
                expected: 2,
                actual: 1
            })
        );
        // Unknown namespace.
        assert!(matches!(
            s.apply_update(
                &UpdateBatch {
                    namespace: 8,
                    target_version: 1,
                    deltas: vec![],
                },
                UpdateFault::None,
            ),
            Err(StoreError::TableNotRegistered { namespace: 8, .. })
        ));
        // No row moved, no version advanced.
        let mut out = vec![0.0f32; 2];
        pin.read_row(0, &mut out);
        assert_eq!(out, &data[0..2]);
        assert_eq!(s.namespace_version(7), 0);
    }

    #[test]
    fn cache_only_mode_respects_version_retirement() {
        // Satellite: a rolling update overlapping CacheOnly degrade must
        // not let the degraded cache serve retired (pre-update) rows.
        let s = store(StoreConfig {
            cache_capacity_rows: 8,
            ..StoreConfig::default()
        });
        let data = filled(4, 2);
        s.register(7, 0, 4, 2, &data).unwrap();
        let pin = s.pin(s.lookup(7, 0).unwrap());
        let mut out = vec![0.0f32; 2];
        pin.read_row(1, &mut out); // warm row 1 with the v0 value
        s.set_cache_only(true);
        s.apply_update(
            &UpdateBatch {
                namespace: 7,
                target_version: 1,
                deltas: vec![delta(0, 1, &[8.0, 8.0])],
            },
            UpdateFault::None,
        )
        .unwrap();
        // Degraded read: the retired v0 row was invalidated, so the miss
        // zero-fills (quality loss) rather than serving stale state.
        pin.read_row(1, &mut out);
        assert_eq!(out, [0.0, 0.0], "retired row served from degraded cache");
        // Back to full service: the v1 value decodes from the shard.
        s.set_cache_only(false);
        pin.read_row(1, &mut out);
        assert_eq!(out, [8.0, 8.0]);
    }

    #[test]
    fn update_row_invalidates_tier_residency() {
        let s = store(tiered_cfg(50));
        let h = s.register(1, 0, 10, 2, &filled(10, 2)).unwrap();
        let pin = s.pin(h);
        let mut acc = vec![0.0f32; 2];
        pin.sum_row(3, &mut acc); // promote into the DRAM tier
        assert!(pin.is_resident(3));
        pin.update_row(3, &[1.0, 1.0]).unwrap();
        assert!(!pin.is_resident(3), "updated row kept pre-update residency");
        assert_eq!(s.stats().tier_invalidations, 1);
    }

    /// The store's write path never waits on a reader: a batch lands
    /// and returns while another thread holds the epoch pinned. The
    /// reader gives its pin up after 2 s at the latest, so a call that
    /// waited for it fails here instead of hanging.
    #[test]
    fn apply_update_returns_while_a_reader_is_pinned() {
        let s = store(StoreConfig::default());
        s.register(7, 0, 4, 2, &filled(4, 2)).unwrap();
        let (pinned_tx, pinned_rx) = mpsc::channel();
        let (returned_tx, returned_rx) = mpsc::channel::<()>();
        let reader = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                let guard = s.pin_epoch();
                pinned_tx.send(()).unwrap();
                let returned = returned_rx.recv_timeout(Duration::from_secs(2)).is_ok();
                drop(guard);
                returned
            })
        };
        pinned_rx.recv().unwrap();
        assert_eq!(s.stats().pinned_readers, 1);
        s.apply_update(
            &UpdateBatch {
                namespace: 7,
                target_version: 1,
                deltas: vec![delta(0, 0, &[1.0, 1.0])],
            },
            UpdateFault::None,
        )
        .unwrap();
        // The reader may have given up already; it reports that below.
        let _ = returned_tx.send(());
        assert!(
            reader.join().unwrap(),
            "apply_update waited for a reader that pinned before its publish"
        );
        assert_eq!(s.namespace_version(7), 1);
    }

    /// A delayed publish sleeps before it takes the registry guard: under
    /// it, a registration would queue behind the sleep, and every registry
    /// read behind the registration.
    #[test]
    fn a_delayed_publish_holds_no_registry_read_behind_a_registration() {
        let s = store(StoreConfig::default());
        s.register(7, 0, 4, 2, &filled(4, 2)).unwrap();
        s.register(8, 0, 4, 2, &filled(4, 2)).unwrap();
        let writer = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                let batch = UpdateBatch {
                    namespace: 7,
                    target_version: 1,
                    deltas: vec![delta(0, 1, &[9.0, 9.0])],
                };
                let delay = Duration::from_millis(300);
                s.apply_update(&batch, UpdateFault::DelayPublish(delay))
            })
        };
        while s.stats().update_publish_delays == 0 {
            std::thread::yield_now();
        }
        let registration = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || s.register(9, 0, 4, 2, &filled(4, 2)))
        };
        // Let the registration reach the registry lock.
        std::thread::sleep(Duration::from_millis(20));
        let start = Instant::now();
        assert_eq!(s.namespace_version(8), 0);
        let waited = start.elapsed();
        assert!(
            waited < Duration::from_millis(50),
            "a version read waited {waited:?} beside a delayed publish"
        );
        registration.join().unwrap().unwrap();
        writer.join().unwrap().unwrap();
        assert_eq!(s.namespace_version(7), 1);
    }
}
