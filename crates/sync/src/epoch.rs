//! Epoch-based reclamation for the parameter store's read path.
//!
//! The live-update protocol (DESIGN.md §14) needs one guarantee from the
//! read side: after a writer has rewritten rows and published a new
//! version, it must be able to *wait out* every reader that might still
//! be working from the pre-update view (and might still re-insert stale
//! decoded bytes into a cache) before retiring the superseded state. The
//! classical answer is epoch-based reclamation, and this module is the
//! minimal two-bank variant of it:
//!
//! * Readers [`EpochGc::pin`] once per *batch* (not per lookup — the
//!   per-lookup hot path stays untouched, which is what keeps the
//!   measured pin overhead under the 3% gate in `chaos_bench`). A pin is
//!   one sharded `fetch_add` on the current epoch's reader bank plus an
//!   epoch re-check; unpin is the matching `fetch_sub`. No locks, no
//!   syscalls.
//! * Writers call [`EpochGc::synchronize`]: flip the epoch parity, then
//!   spin-wait until the *previous* bank's reader count drains to zero.
//!   When it returns, every reader that pinned before the flip has
//!   unpinned — so everything those readers could observe (or re-cache)
//!   is quiescent and safe to retire.
//!
//! The pin protocol closes the classic flip race by re-checking the
//! epoch after incrementing: a reader that incremented the old bank
//! *after* the flip migrates to the new bank before returning. Such a
//! reader performs all of its reads after the flip — and therefore after
//! the writer's row rewrites — so the writer does not need to wait for
//! it. A reader that incremented before the flip stays in the old bank
//! and is waited out. Reader banks are sharded over cache-padded
//! counters (thread-indexed round-robin) so concurrent pins on different
//! cores do not bounce one line.
//!
//! Compiled against `drec_sync::atomic`, so `--cfg loom` builds get
//! instrumented atomics and the in-tree model checker can enumerate
//! pin/synchronize interleavings (see `crates/sync/tests/loom_sync.rs`).

use crate::atomic::{AtomicU64, AtomicUsize, Ordering};
use crate::{spin_loop, CachePadded};

/// Number of sharded reader counters per bank. Eight covers the repo's
/// worker counts without measurable contention; correctness does not
/// depend on the value.
const SHARDS: usize = 8;

/// Hands out reader shard indices round-robin, cached per thread so a
/// pin is shard-stable and cheap after the first call on a thread.
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

#[cfg(not(loom))]
thread_local! {
    static MY_SHARD: usize =
        NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
}

fn reader_shard() -> usize {
    #[cfg(not(loom))]
    {
        MY_SHARD.with(|s| *s)
    }
    #[cfg(loom)]
    {
        // Model runs serialize threads; a fresh shard per pin keeps the
        // explored state space honest without thread-local machinery.
        NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS
    }
}

/// One bank of sharded reader counters.
#[derive(Debug)]
struct Bank {
    shards: [CachePadded<AtomicU64>; SHARDS],
}

impl Bank {
    fn new() -> Bank {
        Bank {
            shards: std::array::from_fn(|_| CachePadded::new(AtomicU64::new(0))),
        }
    }

    fn readers(&self) -> u64 {
        self.shards.iter().map(|s| s.load(Ordering::Acquire)).sum()
    }
}

/// Two-bank epoch-based reclamation cell (see the module docs for the
/// protocol and its correctness argument).
#[derive(Debug)]
pub struct EpochGc {
    /// Monotonic epoch; parity selects the active reader bank.
    epoch: CachePadded<AtomicU64>,
    banks: [Bank; 2],
    /// Completed `synchronize` calls, for stats.
    syncs: AtomicU64,
}

impl Default for EpochGc {
    fn default() -> Self {
        EpochGc::new()
    }
}

impl EpochGc {
    /// A fresh cell at epoch 0 with no pinned readers.
    pub fn new() -> EpochGc {
        EpochGc {
            epoch: CachePadded::new(AtomicU64::new(0)),
            banks: [Bank::new(), Bank::new()],
            syncs: AtomicU64::new(0),
        }
    }

    /// Pins the calling thread into the current epoch. Readers hold the
    /// guard for the duration of one coalesced batch; dropping it
    /// unpins. Never blocks.
    pub fn pin(&self) -> EpochGuard<'_> {
        let shard = reader_shard();
        loop {
            let epoch = self.epoch.load(Ordering::Acquire);
            let bank = (epoch & 1) as usize;
            self.banks[bank].shards[shard].fetch_add(1, Ordering::AcqRel);
            // Re-check: if a writer flipped the epoch between the load
            // and the increment, migrate — all of this reader's accesses
            // happen after the flip (and so after the writer's row
            // rewrites), so the writer need not wait for it.
            if self.epoch.load(Ordering::Acquire) == epoch {
                return EpochGuard {
                    gc: self,
                    bank,
                    shard,
                };
            }
            self.banks[bank].shards[shard].fetch_sub(1, Ordering::AcqRel);
        }
    }

    /// Advances the epoch and waits until every reader pinned before the
    /// advance has unpinned. On return, state superseded before the call
    /// is quiescent: no pre-advance reader can still observe it (or
    /// re-publish it into a cache).
    pub fn synchronize(&self) {
        let old = self.epoch.fetch_add(1, Ordering::AcqRel);
        let old_bank = &self.banks[(old & 1) as usize];
        while old_bank.readers() != 0 {
            spin_loop();
        }
        self.syncs.fetch_add(1, Ordering::Relaxed);
    }

    /// Readers currently pinned (across both banks). Racy by nature;
    /// stats only.
    pub fn pinned_readers(&self) -> u64 {
        self.banks[0].readers() + self.banks[1].readers()
    }

    /// Completed [`EpochGc::synchronize`] calls.
    pub fn synchronizations(&self) -> u64 {
        self.syncs.load(Ordering::Relaxed)
    }

    /// Current epoch value (monotonic; parity selects the reader bank).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }
}

/// RAII pin into one epoch bank; dropping unpins.
#[derive(Debug)]
pub struct EpochGuard<'a> {
    gc: &'a EpochGc,
    bank: usize,
    shard: usize,
}

impl Drop for EpochGuard<'_> {
    fn drop(&mut self) {
        self.gc.banks[self.bank].shards[self.shard].fetch_sub(1, Ordering::AcqRel);
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn pin_unpin_balances_counters() {
        let gc = EpochGc::new();
        assert_eq!(gc.pinned_readers(), 0);
        {
            let _a = gc.pin();
            let _b = gc.pin();
            assert_eq!(gc.pinned_readers(), 2);
        }
        assert_eq!(gc.pinned_readers(), 0);
    }

    #[test]
    fn synchronize_without_readers_returns_immediately() {
        let gc = EpochGc::new();
        gc.synchronize();
        gc.synchronize();
        assert_eq!(gc.synchronizations(), 2);
        assert_eq!(gc.epoch(), 2);
    }

    #[test]
    fn synchronize_waits_for_prior_reader() {
        let gc = Arc::new(EpochGc::new());
        let released = Arc::new(AtomicBool::new(false));
        let reader = {
            let gc = Arc::clone(&gc);
            let released = Arc::clone(&released);
            std::thread::spawn(move || {
                let guard = gc.pin();
                // Hold the pin long enough for the writer to start
                // waiting, then release and mark.
                std::thread::sleep(std::time::Duration::from_millis(20));
                released.store(true, std::sync::atomic::Ordering::SeqCst);
                drop(guard);
            })
        };
        // Give the reader time to pin before synchronizing.
        std::thread::sleep(std::time::Duration::from_millis(5));
        gc.synchronize();
        assert!(
            released.load(std::sync::atomic::Ordering::SeqCst),
            "synchronize returned while a pre-flip reader was still pinned"
        );
        reader.join().unwrap();
    }

    #[test]
    fn readers_pinning_after_flip_do_not_block_synchronize() {
        use std::sync::mpsc;
        use std::time::{Duration, Instant};
        const BOUND: Duration = Duration::from_secs(10);

        let gc = Arc::new(EpochGc::new());
        // A reader pinned before the flip, held until `release` fires.
        let (pinned_tx, pinned_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let pre_flip = {
            let gc = Arc::clone(&gc);
            std::thread::spawn(move || {
                let guard = gc.pin();
                pinned_tx.send(()).unwrap();
                let _ = release_rx.recv_timeout(BOUND);
                drop(guard);
            })
        };
        pinned_rx.recv_timeout(BOUND).expect("pre-flip reader pins");

        // The writer flips and is held inside `synchronize()` by it.
        let (synced_tx, synced_rx) = mpsc::channel();
        let writer = {
            let gc = Arc::clone(&gc);
            std::thread::spawn(move || {
                gc.synchronize();
                synced_tx.send(()).unwrap();
            })
        };
        let deadline = Instant::now() + BOUND;
        while gc.epoch() == 0 {
            assert!(Instant::now() < deadline, "writer never flipped the epoch");
            std::thread::yield_now();
        }
        assert!(
            synced_rx.try_recv().is_err(),
            "synchronize returned while the pre-flip reader was still pinned"
        );

        // A reader that pins after the flip lands in the new bank and is
        // kept; once the pre-flip reader lets go the writer must return
        // while this guard is still alive.
        let post_flip = gc.pin();
        release_tx.send(()).unwrap();
        synced_rx
            .recv_timeout(BOUND)
            .expect("a post-flip reader must not block synchronize");
        assert!(gc.pinned_readers() >= 1);
        assert_eq!(gc.synchronizations(), 1);
        drop(post_flip);
        pre_flip.join().unwrap();
        writer.join().unwrap();
    }

    #[test]
    fn hammer_pins_against_synchronize() {
        let gc = Arc::new(EpochGc::new());
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let gc = Arc::clone(&gc);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let _g = gc.pin();
                    }
                })
            })
            .collect();
        for _ in 0..200 {
            gc.synchronize();
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for t in readers {
            t.join().unwrap();
        }
        assert_eq!(gc.pinned_readers(), 0);
        assert_eq!(gc.synchronizations(), 200);
    }
}
