//! A bounded lock-free MPMC ring with priority swap-eviction — the
//! data structure under the serving batcher's lock-free queue.
//!
//! The base is Vyukov's bounded MPMC queue: each slot carries a sequence
//! number that encodes, relative to a position `pos` targeting it, which
//! state the slot is in. This implementation adds a third, transient
//! *claimed* state so a producer over admission budget can atomically
//! swap a queued lower-priority occupant out of the middle of the ring
//! (the batcher's priority eviction) without tombstones — ring occupancy
//! always equals logical queue depth.
//!
//! # Slot states (for position `pos`, slot `pos & mask`)
//!
//! | `seq`            | state                                         |
//! |------------------|-----------------------------------------------|
//! | `pos`            | empty, ready for a push at `pos`              |
//! | `pos + 1`        | published: value, priority, stamp are valid   |
//! | `pos + 2`        | claimed by a consumer (mid-pop) or an evictor |
//! | `pos + capacity` | consumed, ready for a push at `pos+capacity`  |
//!
//! `capacity` is a power of two ≥ 4 so the states never alias.
//!
//! # Ordering argument
//!
//! Per slot, `seq` is the only synchronization point: a publisher writes
//! the payload cells (plain for the value, relaxed for the priority and
//! stamp atomics) and then `Release`-stores `seq = pos + 1`; any thread
//! that `Acquire`-loads that `seq` value therefore observes the complete
//! payload (release/acquire on the same atomic). Claims are
//! `AcqRel` compare-exchanges on `seq`, so at most one thread ever holds
//! a slot's payload cells, and the claim acquires the publisher's
//! writes. The `enqueue`/`dequeue` cursors only *distribute positions*
//! (their CAS/store races decide who attempts which slot); no payload
//! read is justified by a cursor load alone, which is why relaxed cursor
//! failures are fine and no fence or SeqCst access is needed anywhere.
//!
//! The claimed state is transient by construction — between claim and
//! republish (or cursor advance) there is only a payload move, no user
//! code — so waiters spin through it with [`crate::spin_loop`], which
//! under the model checker is a forced yield (see `crates/sync/src/model.rs`).

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;

use crate::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use crate::{spin_loop, CachePadded};

/// Outcome of [`EvictRing::push_or_evict`].
#[derive(Debug)]
pub enum EvictPush<T> {
    /// A strictly-lower-priority occupant was swapped out; the new value
    /// took its ring position.
    Evicted(T),
    /// No occupant had strictly lower priority; the arrival is handed
    /// back for the caller to shed.
    NoVictim(T),
}

struct Slot<T> {
    seq: AtomicUsize,
    /// Occupant's priority; valid while the slot is published.
    prio: AtomicU8,
    /// Occupant's arrival stamp (caller-defined, e.g. nanoseconds since
    /// the queue epoch); valid while the slot is published.
    stamp: AtomicU64,
    value: UnsafeCell<MaybeUninit<T>>,
}

/// Bounded lock-free MPMC FIFO ring with priority swap-eviction.
pub struct EvictRing<T> {
    /// Next position to push; padded so producer and consumer cursors
    /// never share a cache line.
    enqueue: CachePadded<AtomicUsize>,
    /// Next position to pop.
    dequeue: CachePadded<AtomicUsize>,
    slots: Box<[Slot<T>]>,
    mask: usize,
    capacity: usize,
}

// The ring hands each value to exactly one claimer; payload cells are
// only touched by the thread holding the slot's claim (see module docs).
unsafe impl<T: Send> Send for EvictRing<T> {}
unsafe impl<T: Send> Sync for EvictRing<T> {}

impl<T> EvictRing<T> {
    /// A ring holding at least `capacity` values (rounded up to a power
    /// of two ≥ 4, with slack so transient claims never masquerade as a
    /// full queue at the caller's logical capacity).
    pub fn with_capacity(capacity: usize) -> EvictRing<T> {
        let physical = capacity
            .saturating_add(1)
            .checked_next_power_of_two()
            .expect("ring capacity overflow")
            .max(4);
        let slots: Box<[Slot<T>]> = (0..physical)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                prio: AtomicU8::new(0),
                stamp: AtomicU64::new(0),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        EvictRing {
            enqueue: CachePadded::new(AtomicUsize::new(0)),
            dequeue: CachePadded::new(AtomicUsize::new(0)),
            slots,
            mask: physical - 1,
            capacity: physical,
        }
    }

    /// Physical slot count (≥ the requested capacity).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current occupancy. Exact when quiescent; otherwise it may
    /// over-read, by at most the pushes that land between its two loads.
    /// `dequeue` must be loaded first: it never passes `enqueue`, so an
    /// `enqueue` read afterwards is at least the `dequeue` read before.
    /// Loaded the other way round, a pop between the two puts the later
    /// `dequeue` one past the earlier `enqueue` and the wrapped
    /// difference reads as a full ring.
    pub fn len(&self) -> usize {
        let deq = self.dequeue.load(Ordering::SeqCst);
        let enq = self.enqueue.load(Ordering::SeqCst);
        enq.wrapping_sub(deq).min(self.capacity)
    }

    /// True when no value is queued (snapshot).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pushes at the tail. Returns the value back when the ring is
    /// physically full.
    pub fn push(&self, value: T, prio: u8, stamp: u64) -> Result<(), T> {
        let mut pos = self.enqueue.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = seq as isize - pos as isize;
            if diff == 0 {
                match self.enqueue.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // We own the slot until the seq publish below.
                        unsafe { (*slot.value.get()).write(value) };
                        slot.prio.store(prio, Ordering::Relaxed);
                        slot.stamp.store(stamp, Ordering::Relaxed);
                        slot.seq.store(pos.wrapping_add(1), Ordering::Release);
                        return Ok(());
                    }
                    Err(actual) => pos = actual,
                }
            } else if diff < 0 {
                // Previous-lap occupant (or claim) still in the slot.
                return Err(value);
            } else {
                pos = self.enqueue.load(Ordering::Relaxed);
            }
        }
    }

    /// Pops the head, in push order. Returns `None` when empty.
    pub fn pop(&self) -> Option<T> {
        loop {
            let pos = self.dequeue.load(Ordering::Acquire);
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = seq as isize - pos as isize;
            if diff == 1 {
                // Published: claim it for this consumer.
                if slot
                    .seq
                    .compare_exchange(
                        pos.wrapping_add(1),
                        pos.wrapping_add(2),
                        Ordering::AcqRel,
                        Ordering::Relaxed,
                    )
                    .is_ok()
                {
                    // Only the claim winner advances the cursor.
                    self.dequeue.store(pos.wrapping_add(1), Ordering::Release);
                    let value = unsafe { (*slot.value.get()).assume_init_read() };
                    slot.seq
                        .store(pos.wrapping_add(self.capacity), Ordering::Release);
                    return Some(value);
                }
                continue;
            }
            if diff == 0 {
                // Unpublished: empty, or a producer is mid-publish.
                if self
                    .enqueue
                    .load(Ordering::Acquire)
                    .wrapping_sub(pos)
                    .wrapping_sub(1)
                    >= self.capacity
                {
                    // enqueue <= pos (wrapped compare): truly empty.
                    return None;
                }
                spin_loop();
                continue;
            }
            // diff == 2: head claimed by another consumer (it will
            // advance the cursor) or an evictor (it will republish).
            // diff > 2 or < 0: our cursor read is stale; reload.
            spin_loop();
        }
    }

    /// Scans the ring from newest to oldest for an occupant with
    /// priority strictly below `prio` and, if one is found, atomically
    /// swaps it out, installing `value` (with `prio` and `stamp`) at the
    /// victim's position. The scan is exact when single-threaded and
    /// best-effort under concurrency (a racing pop or evict makes a
    /// candidate disappear; the arrival is then handed back).
    pub fn push_or_evict(&self, value: T, prio: u8, stamp: u64) -> EvictPush<T> {
        let enq = self.enqueue.load(Ordering::Acquire);
        let deq = self.dequeue.load(Ordering::Acquire);
        let mut pos = enq;
        while pos != deq {
            pos = pos.wrapping_sub(1);
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            if seq != pos.wrapping_add(1) {
                continue;
            }
            if slot.prio.load(Ordering::Relaxed) >= prio {
                continue;
            }
            if slot
                .seq
                .compare_exchange(
                    pos.wrapping_add(1),
                    pos.wrapping_add(2),
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                )
                .is_err()
            {
                continue;
            }
            // Claimed: the priority is now frozen; re-check it (a racing
            // evictor may have swapped a higher-priority value in
            // between our unclaimed read and the claim).
            if slot.prio.load(Ordering::Relaxed) >= prio {
                slot.seq.store(pos.wrapping_add(1), Ordering::Release);
                continue;
            }
            let victim = unsafe { (*slot.value.get()).assume_init_read() };
            unsafe { (*slot.value.get()).write(value) };
            slot.prio.store(prio, Ordering::Relaxed);
            slot.stamp.store(stamp, Ordering::Relaxed);
            slot.seq.store(pos.wrapping_add(1), Ordering::Release);
            return EvictPush::Evicted(victim);
        }
        EvictPush::NoVictim(value)
    }

    /// The arrival stamp of the head occupant, without popping it.
    /// Returns `None` when empty; a racing pop/evict may yield the stamp
    /// of a neighbor — callers use it for coalescing deadlines, where a
    /// near-miss only costs one early wake-up.
    pub fn peek_front_stamp(&self) -> Option<u64> {
        loop {
            let pos = self.dequeue.load(Ordering::Acquire);
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = seq as isize - pos as isize;
            if diff == 1 || diff == 2 {
                // Published (or mid-claim: the stamp cell is a plain
                // atomic, so the read is a valid old-or-new snapshot).
                return Some(slot.stamp.load(Ordering::Relaxed));
            }
            if diff == 0 {
                if self
                    .enqueue
                    .load(Ordering::Acquire)
                    .wrapping_sub(pos)
                    .wrapping_sub(1)
                    >= self.capacity
                {
                    return None;
                }
                spin_loop();
                continue;
            }
            spin_loop();
        }
    }
}

impl<T> Drop for EvictRing<T> {
    fn drop(&mut self) {
        // &mut self: no concurrent claimers, so every occupied slot is
        // in the published state and can be dropped in place.
        let enq = self.enqueue.load(Ordering::Relaxed);
        let mut pos = self.dequeue.load(Ordering::Relaxed);
        while pos != enq {
            let slot = &self.slots[pos & self.mask];
            if slot.seq.load(Ordering::Relaxed) == pos.wrapping_add(1) {
                unsafe { (*slot.value.get()).assume_init_drop() };
            }
            pos = pos.wrapping_add(1);
        }
    }
}

impl<T> std::fmt::Debug for EvictRing<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvictRing")
            .field("len", &self.len())
            .field("capacity", &self.capacity)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_pop_preserves_fifo_order() {
        let ring: EvictRing<u64> = EvictRing::with_capacity(8);
        for i in 0..5 {
            ring.push(i, 1, i).unwrap();
        }
        assert_eq!(ring.len(), 5);
        for i in 0..5 {
            assert_eq!(ring.pop(), Some(i));
        }
        assert_eq!(ring.pop(), None);
        assert!(ring.is_empty());
    }

    #[test]
    fn physically_full_ring_rejects_push() {
        let ring: EvictRing<u32> = EvictRing::with_capacity(3);
        let physical = ring.capacity();
        for i in 0..physical as u32 {
            ring.push(i, 1, 0).unwrap();
        }
        assert_eq!(ring.push(99, 1, 0), Err(99));
        assert_eq!(ring.pop(), Some(0));
        ring.push(99, 1, 0).unwrap();
    }

    #[test]
    fn evict_swaps_newest_strictly_lower_priority() {
        let ring: EvictRing<&'static str> = EvictRing::with_capacity(8);
        ring.push("old-low", 0, 10).unwrap();
        ring.push("mid-normal", 1, 11).unwrap();
        ring.push("new-low", 0, 12).unwrap();
        match ring.push_or_evict("arrival", 1, 13) {
            EvictPush::Evicted(victim) => assert_eq!(victim, "new-low"),
            other => panic!("expected eviction, got {other:?}"),
        }
        // The arrival took the victim's position.
        assert_eq!(ring.pop(), Some("old-low"));
        assert_eq!(ring.pop(), Some("mid-normal"));
        assert_eq!(ring.pop(), Some("arrival"));
    }

    #[test]
    fn evict_refuses_equal_priority() {
        let ring: EvictRing<u32> = EvictRing::with_capacity(4);
        ring.push(1, 2, 0).unwrap();
        ring.push(2, 2, 0).unwrap();
        match ring.push_or_evict(3, 2, 0) {
            EvictPush::NoVictim(v) => assert_eq!(v, 3),
            other => panic!("expected NoVictim, got {other:?}"),
        }
        assert_eq!(ring.len(), 2);
    }

    #[test]
    fn peek_front_stamp_tracks_head() {
        let ring: EvictRing<u32> = EvictRing::with_capacity(4);
        assert_eq!(ring.peek_front_stamp(), None);
        ring.push(1, 0, 111).unwrap();
        ring.push(2, 0, 222).unwrap();
        assert_eq!(ring.peek_front_stamp(), Some(111));
        ring.pop();
        assert_eq!(ring.peek_front_stamp(), Some(222));
    }

    #[test]
    fn wraparound_keeps_order_and_stamps() {
        let ring: EvictRing<usize> = EvictRing::with_capacity(4);
        let mut next = 0usize;
        let mut expect = 0usize;
        for _ in 0..10 {
            for _ in 0..3 {
                ring.push(next, 0, next as u64).unwrap();
                next += 1;
            }
            for _ in 0..3 {
                assert_eq!(ring.peek_front_stamp(), Some(expect as u64));
                assert_eq!(ring.pop(), Some(expect));
                expect += 1;
            }
        }
    }

    #[test]
    fn dropped_ring_drops_remaining_values() {
        let marker = Arc::new(());
        {
            let ring: EvictRing<Arc<()>> = EvictRing::with_capacity(8);
            for _ in 0..5 {
                ring.push(Arc::clone(&marker), 0, 0).unwrap();
            }
            ring.pop();
            assert_eq!(Arc::strong_count(&marker), 5);
        }
        assert_eq!(Arc::strong_count(&marker), 1);
    }

    #[test]
    fn concurrent_producers_and_consumers_lose_nothing() {
        const PER_THREAD: usize = 5_000;
        const PRODUCERS: usize = 4;
        let ring: Arc<EvictRing<usize>> = Arc::new(EvictRing::with_capacity(64));
        let popped = Arc::new(std::sync::Mutex::new(Vec::new()));
        let pop_count = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        let v = p * PER_THREAD + i;
                        loop {
                            match ring.push(v, 0, 0) {
                                Ok(()) => break,
                                Err(_) => std::thread::yield_now(),
                            }
                        }
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let ring = Arc::clone(&ring);
                let popped = Arc::clone(&popped);
                let pop_count = Arc::clone(&pop_count);
                std::thread::spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        match ring.pop() {
                            Some(v) => {
                                local.push(v);
                                pop_count.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                            }
                            None => {
                                if pop_count.load(std::sync::atomic::Ordering::SeqCst)
                                    == PRODUCERS * PER_THREAD
                                {
                                    break;
                                }
                                std::thread::yield_now();
                            }
                        }
                    }
                    popped.lock().unwrap().extend(local);
                })
            })
            .collect();
        for t in producers {
            t.join().unwrap();
        }
        for t in consumers {
            t.join().unwrap();
        }
        let mut seen = popped.lock().unwrap().clone();
        seen.sort_unstable();
        assert_eq!(seen.len(), PRODUCERS * PER_THREAD);
        for (i, v) in seen.iter().enumerate() {
            assert_eq!(i, *v, "value {v} duplicated or lost");
        }
    }

    #[test]
    fn len_of_a_ring_holding_at_most_one_value_never_reads_full() {
        // Fewer pushes in total than the ring has slots, so `len` cannot
        // reach `capacity` by over-reading either: only a wrapped
        // difference (a `dequeue` read past the `enqueue` read) gets there.
        const PUSHES: usize = 100_000;
        let ring: Arc<EvictRing<usize>> = Arc::new(EvictRing::with_capacity(PUSHES));
        assert!(PUSHES < ring.capacity());
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let reader = {
            let (ring, done) = (Arc::clone(&ring), Arc::clone(&done));
            std::thread::spawn(move || {
                let mut worst = 0;
                while !done.load(std::sync::atomic::Ordering::Relaxed) {
                    worst = worst.max(ring.len());
                }
                worst
            })
        };
        for i in 0..PUSHES {
            ring.push(i, 0, 0).unwrap();
            assert_eq!(ring.pop(), Some(i));
        }
        done.store(true, std::sync::atomic::Ordering::Relaxed);
        let worst = reader.join().unwrap();
        assert!(
            worst < ring.capacity(),
            "len() of a ring that never held two values read {worst}"
        );
    }
}
