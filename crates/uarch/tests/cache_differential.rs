//! `CacheSim` against the model it replaced: one heap vector of tags per
//! set, `remove` + `insert(0, …)` per access, `config.sets()` recomputed
//! on every call (the parent of this change, commit 64b5a1d, copied in
//! below as `reference::CacheSim`).
//!
//! The flat tag array must keep the old model's LRU order, victim
//! addresses and counter arithmetic exactly, so after every step of a
//! random interleaving of `access_with_victim` / `insert` / `invalidate` /
//! `probe` the two must agree on the step's result, on `accesses()` and
//! `misses()`, and on `probe` of every line touched so far.

use std::collections::BTreeSet;

use drec_check::{cases, CaseRng};
use drec_uarch::{CacheConfig, CacheSim};

mod reference {
    use drec_uarch::CacheConfig;

    pub struct CacheSim {
        config: CacheConfig,
        sets: Vec<Vec<u64>>, // per set: line tags in LRU order (front = MRU)
        set_sample_ratio: u64,
        accesses: f64,
        misses: f64,
    }

    impl CacheSim {
        pub fn with_set_sampling(config: CacheConfig, ratio: u64) -> Self {
            assert!(ratio > 0, "set sample ratio must be positive");
            let n_sets = config.sets();
            let simulated = (n_sets as u64).div_ceil(ratio) as usize;
            CacheSim {
                config,
                sets: vec![Vec::new(); simulated.max(1)],
                set_sample_ratio: ratio,
                accesses: 0.0,
                misses: 0.0,
            }
        }

        pub fn access_with_victim(&mut self, addr: u64, weight: f64) -> (bool, Option<u64>) {
            let line_addr = addr / self.config.line;
            let n_sets = self.config.sets() as u64;
            let set_idx = line_addr % n_sets;
            if !set_idx.is_multiple_of(self.set_sample_ratio) {
                return (true, None);
            }
            let slot = (set_idx / self.set_sample_ratio) as usize;
            let tag = line_addr / n_sets;
            self.accesses += weight * self.set_sample_ratio as f64;
            let ways = self.config.ways;
            let line = self.config.line;
            let set = &mut self.sets[slot];
            if let Some(pos) = set.iter().position(|&t| t == tag) {
                set.remove(pos);
                set.insert(0, tag);
                (true, None)
            } else {
                self.misses += weight * self.set_sample_ratio as f64;
                set.insert(0, tag);
                let victim = if set.len() > ways {
                    set.pop().map(|vt| (vt * n_sets + set_idx) * line)
                } else {
                    None
                };
                (false, victim)
            }
        }

        pub fn invalidate(&mut self, addr: u64) -> bool {
            let line_addr = addr / self.config.line;
            let n_sets = self.config.sets() as u64;
            let set_idx = line_addr % n_sets;
            if !set_idx.is_multiple_of(self.set_sample_ratio) {
                return false;
            }
            let slot = (set_idx / self.set_sample_ratio) as usize;
            let tag = line_addr / n_sets;
            let set = &mut self.sets[slot];
            if let Some(pos) = set.iter().position(|&t| t == tag) {
                set.remove(pos);
                true
            } else {
                false
            }
        }

        pub fn insert(&mut self, addr: u64) {
            let line_addr = addr / self.config.line;
            let n_sets = self.config.sets() as u64;
            let set_idx = line_addr % n_sets;
            if !set_idx.is_multiple_of(self.set_sample_ratio) {
                return;
            }
            let slot = (set_idx / self.set_sample_ratio) as usize;
            let tag = line_addr / n_sets;
            let ways = self.config.ways;
            let set = &mut self.sets[slot];
            if let Some(pos) = set.iter().position(|&t| t == tag) {
                set.remove(pos);
            }
            set.insert(0, tag);
            set.truncate(ways);
        }

        pub fn probe(&self, addr: u64) -> bool {
            let line_addr = addr / self.config.line;
            let n_sets = self.config.sets() as u64;
            let set_idx = line_addr % n_sets;
            if !set_idx.is_multiple_of(self.set_sample_ratio) {
                return false;
            }
            let slot = (set_idx / self.set_sample_ratio) as usize;
            let tag = line_addr / n_sets;
            self.sets[slot].contains(&tag)
        }

        pub fn accesses(&self) -> f64 {
            self.accesses
        }

        pub fn misses(&self) -> f64 {
            self.misses
        }
    }
}

const fn geometry(sets: u64, ways: usize, line: u64) -> CacheConfig {
    CacheConfig {
        bytes: sets * ways as u64 * line,
        ways,
        line,
    }
}

/// The shapes the simulators build, shrunk to a few sets: the 192-set
/// STLB (set count not a power of two, 8-byte "lines"), a direct-mapped
/// cache, the 11- and 20-way LLCs, one fully associative set, and a line
/// size that is not a power of two.
const GEOMETRIES: [CacheConfig; 6] = [
    geometry(192, 8, 8),
    geometry(16, 1, 64),
    geometry(8, 11, 64),
    geometry(8, 20, 64),
    geometry(1, 4, 64),
    geometry(5, 3, 48),
];

const SAMPLING: [u64; 3] = [1, 4, 3];
const WEIGHTS: [f64; 3] = [1.0, 16.0, 0.37];
const STEPS: usize = 300;

/// Mostly addresses from a pool three times the cache, so sets fill,
/// evict and re-hit; now and then one from anywhere in the address space,
/// where a wrong shift or mask would show.
fn draw_addr(rng: &mut CaseRng, config: &CacheConfig) -> u64 {
    if rng.u64_in(0..10) == 0 {
        rng.next_u64() >> rng.u32_in(1..40)
    } else {
        rng.u64_in(0..3 * config.bytes)
    }
}

#[test]
fn flat_cache_matches_the_per_set_vector_model_step_by_step() {
    for config in GEOMETRIES {
        for ratio in SAMPLING {
            cases(12, |rng| {
                let mut flat = CacheSim::with_set_sampling(config, ratio);
                let mut old = reference::CacheSim::with_set_sampling(config, ratio);
                let mut touched = BTreeSet::new();
                let at = |step: usize| format!("{config:?} ÷{ratio}, step {step}");
                for step in 0..STEPS {
                    let addr = draw_addr(rng, &config);
                    touched.insert(addr / config.line * config.line);
                    match rng.u64_in(0..8) {
                        0..=3 => {
                            let weight = WEIGHTS[rng.usize_in(0..WEIGHTS.len())];
                            assert_eq!(
                                flat.access_with_victim(addr, weight),
                                old.access_with_victim(addr, weight),
                                "access {addr:#x} at {}",
                                at(step)
                            );
                        }
                        4..=5 => {
                            flat.insert(addr);
                            old.insert(addr);
                        }
                        6 => assert_eq!(
                            flat.invalidate(addr),
                            old.invalidate(addr),
                            "invalidate {addr:#x} at {}",
                            at(step)
                        ),
                        _ => assert_eq!(
                            flat.probe(addr),
                            old.probe(addr),
                            "probe {addr:#x} at {}",
                            at(step)
                        ),
                    }
                    assert_eq!(flat.accesses(), old.accesses(), "{}", at(step));
                    assert_eq!(flat.misses(), old.misses(), "{}", at(step));
                    for &line in &touched {
                        assert_eq!(
                            flat.probe(line),
                            old.probe(line),
                            "line {line:#x} after {addr:#x} at {}",
                            at(step)
                        );
                    }
                }
            });
        }
    }
}

#[test]
#[should_panic(expected = "at least one way")]
fn zero_ways_is_refused_at_construction() {
    CacheSim::new(CacheConfig {
        bytes: 4096,
        ways: 0,
        line: 64,
    });
}

#[test]
#[should_panic(expected = "at least one byte")]
fn zero_line_is_refused_at_construction() {
    CacheSim::new(CacheConfig {
        bytes: 4096,
        ways: 4,
        line: 0,
    });
}
