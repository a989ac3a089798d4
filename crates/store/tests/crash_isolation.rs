//! A batch an injected crash aborts is never read. One thread runs ten
//! `CrashMidBatch` batches, each rewriting every row of a 100 000-row
//! table, while another pins the store's epoch and reads row 0, as a
//! serving engine does, until the batches are done. Not one read may
//! return the value only those batches wrote.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use drec_faultsim::UpdateFault;
use drec_store::{EmbeddingStore, RowDelta, StoreConfig, StoreError, UpdateBatch};

const ROWS: usize = 100_000;
const DIM: usize = 4;

#[test]
fn reads_beside_crashing_batches_never_return_unpublished_rows() {
    let store = Arc::new(EmbeddingStore::new(StoreConfig::default()));
    let handle = store
        .register(1, 0, ROWS, DIM, &vec![0.0; ROWS * DIM])
        .unwrap();
    let pin = store.pin(handle);
    let done = Arc::new(AtomicBool::new(false));
    let reads = Arc::new(AtomicU64::new(0));
    let reader = {
        let (store, done, reads) = (Arc::clone(&store), Arc::clone(&done), Arc::clone(&reads));
        std::thread::spawn(move || {
            let mut leaked = 0u64;
            let mut out = [0.0f32; DIM];
            while !done.load(Ordering::Acquire) {
                let _pinned = store.pin_epoch();
                pin.read_row(0, &mut out);
                leaked += u64::from(out != [0.0; DIM]);
                reads.fetch_add(1, Ordering::Relaxed);
            }
            leaked
        })
    };
    let batch = UpdateBatch {
        namespace: 1,
        target_version: 1,
        deltas: (0..ROWS as u32)
            .map(|row| RowDelta {
                ordinal: 0,
                row,
                values: vec![1.0; DIM],
            })
            .collect(),
    };
    while reads.load(Ordering::Relaxed) == 0 {
        std::thread::yield_now();
    }
    for i in 0..10 {
        let aborted = store.apply_update(&batch, UpdateFault::CrashMidBatch { batch: i });
        assert!(
            matches!(
                aborted,
                Err(StoreError::UpdateAborted {
                    rows_rolled_back: 50_000,
                    ..
                })
            ),
            "{aborted:?}"
        );
    }
    done.store(true, Ordering::Release);
    let leaked = reader.join().unwrap();
    let reads = reads.load(Ordering::Relaxed);
    assert_eq!(store.namespace_version(1), 0);
    assert_eq!(store.stats().update_rollbacks, 10);
    assert_eq!(
        leaked, 0,
        "{leaked} of {reads} reads returned a row of a batch that was never published"
    );
}
