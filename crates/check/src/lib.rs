//! Dependency-free test support: a deterministic property-check harness,
//! and [`CountingAlloc`], a heap-byte counter for residency tests and the
//! bench bins.
//!
//! The build environment has no network access to crates.io, so the suite
//! cannot depend on `proptest`. This crate supplies the small slice of it
//! the tests actually use: run a property over many pseudo-randomly
//! generated cases, deterministically, and report which case failed.
//!
//! Unlike `proptest` there is no shrinking; instead every case derives
//! from a fixed per-case seed, so a failure report names the exact case
//! index and re-running reproduces it bit-for-bit.
//!
//! # Example
//!
//! ```
//! drec_check::cases(64, |rng| {
//!     let n = rng.usize_in(1..100);
//!     assert!(n >= 1 && n < 100);
//! });
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Splitmix-initialised xorshift generator driving one test case.
///
/// `splitmix64` seeding and an `xorshift64*` stream: integer arithmetic
/// only, so generated cases are stable across platforms and rustc
/// versions.
#[derive(Debug, Clone)]
pub struct CaseRng {
    state: u64,
}

impl CaseRng {
    /// Creates a generator for `seed`; equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        // splitmix64 scramble so consecutive seeds give unrelated streams.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        CaseRng {
            state: (z ^ (z >> 31)) | 1,
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state ^= self.state >> 12;
        self.state ^= self.state << 25;
        self.state ^= self.state >> 27;
        self.state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in the half-open `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn u64_in(&mut self, range: Range<u64>) -> u64 {
        assert!(range.start < range.end, "empty range");
        range.start + self.next_u64() % (range.end - range.start)
    }

    /// Uniform `usize` in the half-open `range`.
    pub fn usize_in(&mut self, range: Range<usize>) -> usize {
        self.u64_in(range.start as u64..range.end as u64) as usize
    }

    /// Uniform `u32` in the half-open `range`.
    pub fn u32_in(&mut self, range: Range<u32>) -> u32 {
        self.u64_in(range.start as u64..range.end as u64) as u32
    }

    /// Uniform `f64` in the half-open `range`.
    pub fn f64_in(&mut self, range: Range<f64>) -> f64 {
        range.start + self.unit_f64() * (range.end - range.start)
    }

    /// Uniform `f32` in the half-open `range`.
    pub fn f32_in(&mut self, range: Range<f32>) -> f32 {
        self.f64_in(range.start as f64..range.end as f64) as f32
    }

    /// Vector of `len_in`-many draws produced by `gen`.
    pub fn vec_of<T>(
        &mut self,
        len_in: Range<usize>,
        mut gen: impl FnMut(&mut Self) -> T,
    ) -> Vec<T> {
        let len = self.usize_in(len_in);
        (0..len).map(|_| gen(self)).collect()
    }
}

/// Runs `property` over `n` deterministic cases (indices `0..n`).
///
/// Each case gets a fresh [`CaseRng`] seeded with the case index. On a
/// panic inside the property, the failing case index is printed before the
/// panic is propagated, so `cases(256, ..)` failures are reproducible by
/// construction.
pub fn cases(n: usize, mut property: impl FnMut(&mut CaseRng)) {
    for case in 0..n {
        let mut rng = CaseRng::new(case as u64);
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| property(&mut rng))) {
            eprintln!("drec-check: property failed at case {case} of {n} (seed = {case})");
            resume_unwind(payload);
        }
    }
}

/// The system allocator with two counters beside it: heap bytes live now
/// and their high-water mark. Install it as a binary's
/// `#[global_allocator]` to read what a step leaves on the heap and what
/// it needed on the way — figures that, unlike resident-set size, do not
/// depend on which freed pages the allocator has handed back to the OS.
///
/// ```
/// use drec_check::CountingAlloc;
///
/// #[global_allocator]
/// static HEAP: CountingAlloc = CountingAlloc::new();
///
/// let before = HEAP.live_bytes();
/// let block = vec![0u8; 1 << 20];
/// assert!(HEAP.live_bytes() - before >= 1 << 20);
/// drop(block);
/// assert!(HEAP.peak_bytes() >= before + (1 << 20));
/// ```
#[derive(Debug, Default)]
pub struct CountingAlloc {
    live: AtomicUsize,
    peak: AtomicUsize,
}

impl CountingAlloc {
    /// A counter at zero (`const`, for a `static`).
    pub const fn new() -> Self {
        CountingAlloc {
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    /// Bytes allocated and not yet freed.
    pub fn live_bytes(&self) -> usize {
        self.live.load(Relaxed)
    }

    /// The most [`live_bytes`](Self::live_bytes) has been since the
    /// process started or [`reset_peak`](Self::reset_peak) was called.
    pub fn peak_bytes(&self) -> usize {
        self.peak.load(Relaxed)
    }

    /// Restarts the high-water mark at the current live figure.
    pub fn reset_peak(&self) {
        self.peak.store(self.live_bytes(), Relaxed);
    }

    fn grew(&self, bytes: usize) {
        let live = self.live.fetch_add(bytes, Relaxed) + bytes;
        self.peak.fetch_max(live, Relaxed);
    }
}

// SAFETY: every request goes to `System` unchanged and its answer comes
// back unchanged, so `System`'s own guarantees are this allocator's; the
// counters are statistics and publish no data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed through as given.
        let block = unsafe { System.alloc(layout) };
        if !block.is_null() {
            self.grew(layout.size());
        }
        block
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as in `alloc`.
        let block = unsafe { System.alloc_zeroed(layout) };
        if !block.is_null() {
            self.grew(layout.size());
        }
        block
    }

    unsafe fn dealloc(&self, block: *mut u8, layout: Layout) {
        // SAFETY: the caller got `block` from this allocator with
        // `layout`, which means from `System` with `layout`.
        unsafe { System.dealloc(block, layout) };
        self.live.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, block: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as in `dealloc`; `new_size` is the caller's to get right.
        let moved = unsafe { System.realloc(block, layout, new_size) };
        if !moved.is_null() {
            self.live.fetch_sub(layout.size(), Relaxed);
            self.grew(new_size);
        }
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_per_seed() {
        let a: Vec<u64> = {
            let mut r = CaseRng::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = CaseRng::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<u64> = {
            let mut r = CaseRng::new(43);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn ranges_are_respected() {
        cases(128, |rng| {
            let u = rng.usize_in(3..9);
            assert!((3..9).contains(&u));
            let f = rng.f64_in(-2.0..5.0);
            assert!((-2.0..5.0).contains(&f));
            let v = rng.vec_of(1..7, |r| r.u32_in(0..100));
            assert!(!v.is_empty() && v.len() < 7);
            assert!(v.iter().all(|&x| x < 100));
        });
    }

    #[test]
    fn unit_draws_cover_the_interval() {
        let mut rng = CaseRng::new(7);
        let draws: Vec<f64> = (0..1000).map(|_| rng.unit_f64()).collect();
        assert!(draws.iter().all(|&u| (0.0..1.0).contains(&u)));
        assert!(draws.iter().any(|&u| u < 0.1));
        assert!(draws.iter().any(|&u| u > 0.9));
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn failing_property_propagates_panic() {
        cases(4, |rng| {
            if rng.usize_in(0..10) < 100 {
                panic!("boom");
            }
        });
    }
}
