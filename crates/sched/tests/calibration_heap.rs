//! Calibration borrows its model: it traces a view of it and drops the
//! view, so a calibrated model holds what it held when built. No
//! activation buffer of a calibration run stays parked in the arena of
//! the engine that goes on to serve.
//!
//! A test binary of its own: the counting `#[global_allocator]` must see
//! one test's heap and no other's, so each test holds [`ALONE`] while it
//! measures.

use std::sync::{Mutex, MutexGuard};

use drec_check::CountingAlloc;
use drec_models::{ModelId, ModelScale};
use drec_sched::{ModelProfile, ProfileConfig};

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

#[test]
fn calibrating_a_model_leaves_its_heap_as_built() {
    let _alone = alone();
    let cfg = ProfileConfig::default();
    // What the process sets up once (the kernel backend, the global
    // pool) stays: each model is calibrated first on a build of its own.
    for id in ModelId::ALL {
        let warm = id.build(ModelScale::Tiny, 7).unwrap();
        drop(ModelProfile::calibrate(&warm, &cfg));
    }
    for id in ModelId::ALL {
        let model = id.build(ModelScale::Tiny, 7).unwrap();
        let built = HEAP.live_bytes();
        drop(ModelProfile::calibrate(&model, &cfg));
        let left = HEAP.live_bytes() as isize - built as isize;
        assert_eq!(left, 0, "{id}: calibration left {left} bytes on the heap");
    }
}
