//! Deterministic CLOCK (second-chance) resident set over row keys.

use std::collections::HashMap;

use crate::hash::RowKeyBuild;

/// One resident slot.
#[derive(Debug, Clone, Copy)]
struct Slot {
    key: u64,
    /// Second-chance bit: set on access, cleared as the hand sweeps by.
    referenced: bool,
    /// Set when the row was promoted by a prefetch and has not yet been
    /// demanded — an eviction while still set is a *wasted* prefetch.
    prefetched_unused: bool,
}

/// Outcome of touching a key already tracked (or not) by the clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Touch {
    /// The key is resident; `was_prefetched_unused` reports (and clears)
    /// the prefetched-but-not-yet-used flag.
    Resident { was_prefetched_unused: bool },
    /// The key is not resident.
    Absent,
}

/// What an insertion displaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Inserted {
    /// An eviction happened and the victim's `prefetched_unused` flag
    /// was still set.
    pub evicted_prefetched_unused: bool,
    /// A victim was evicted to make room.
    pub evicted: bool,
}

/// A budget-bounded resident set with CLOCK replacement.
///
/// Promotion and eviction are a pure function of the access sequence:
/// slots fill in arrival order until the budget is reached, then a hand
/// sweeps the slot array, clearing referenced bits until it finds an
/// unreferenced victim. No randomness, no clocks — two identical access
/// sequences produce identical resident sets.
#[derive(Debug)]
pub struct ResidencyClock {
    budget: usize,
    slots: Vec<Slot>,
    map: HashMap<u64, usize, RowKeyBuild>,
    hand: usize,
    evictions: u64,
}

impl ResidencyClock {
    /// An empty clock with room for `budget` keys (minimum 1).
    pub fn new(budget: usize) -> ResidencyClock {
        let budget = budget.max(1);
        ResidencyClock {
            budget,
            slots: Vec::with_capacity(budget.min(1 << 20)),
            map: HashMap::default(),
            hand: 0,
            evictions: 0,
        }
    }

    /// Configured capacity in rows.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Keys currently resident.
    pub fn resident(&self) -> usize {
        self.slots.len()
    }

    /// Evictions performed so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Whether `key` is resident, without touching referenced bits.
    pub fn contains(&self, key: u64) -> bool {
        self.map.contains_key(&key)
    }

    /// Counts resident keys for which `pred` holds — the reporting path
    /// behind per-table and per-model residency tables. O(resident).
    pub fn count_resident(&self, mut pred: impl FnMut(u64) -> bool) -> usize {
        self.slots.iter().filter(|s| pred(s.key)).count()
    }

    /// Marks an access to `key` if resident (sets the referenced bit,
    /// clears and reports the prefetched-unused flag).
    pub(crate) fn touch(&mut self, key: u64) -> Touch {
        match self.map.get(&key) {
            Some(&i) => {
                let slot = &mut self.slots[i];
                slot.referenced = true;
                let was = slot.prefetched_unused;
                slot.prefetched_unused = false;
                Touch::Resident {
                    was_prefetched_unused: was,
                }
            }
            None => Touch::Absent,
        }
    }

    /// Runs the second-chance sweep and reports the key the next
    /// eviction would take, leaving the hand parked on that victim (so a
    /// following [`ResidencyClock::insert`] evicts exactly it). `None`
    /// while free slots remain — an insert would not evict anything.
    pub(crate) fn victim_key(&mut self) -> Option<u64> {
        if self.slots.len() < self.budget {
            return None;
        }
        loop {
            if self.hand >= self.slots.len() {
                self.hand = 0;
            }
            if self.slots[self.hand].referenced {
                self.slots[self.hand].referenced = false;
                self.hand += 1;
                continue;
            }
            return Some(self.slots[self.hand].key);
        }
    }

    /// Removes `key` from the resident set (a row-update invalidation:
    /// the DRAM copy is superseded, so residency must be re-earned from
    /// the new bytes). Returns whether the key was resident. The vacated
    /// slot is backfilled by the last slot, so the clock stays dense;
    /// the hand is clamped back into range.
    pub(crate) fn remove(&mut self, key: u64) -> bool {
        let Some(i) = self.map.remove(&key) else {
            return false;
        };
        let last = self.slots.len() - 1;
        self.slots.swap(i, last);
        self.slots.pop();
        if i < self.slots.len() {
            self.map.insert(self.slots[i].key, i);
        }
        if self.hand > self.slots.len() {
            self.hand = 0;
        }
        true
    }

    /// Inserts `key` (no-op if already resident), evicting the CLOCK
    /// victim when the budget is full. `prefetched` seeds the
    /// prefetched-unused flag on a fresh insert.
    pub(crate) fn insert(&mut self, key: u64, prefetched: bool) -> Inserted {
        if let Some(&i) = self.map.get(&key) {
            // Already resident (a racing promote won): treat as a touch.
            self.slots[i].referenced = true;
            if !prefetched {
                self.slots[i].prefetched_unused = false;
            }
            return Inserted {
                evicted: false,
                evicted_prefetched_unused: false,
            };
        }
        if self.slots.len() < self.budget {
            self.map.insert(key, self.slots.len());
            self.slots.push(Slot {
                key,
                referenced: true,
                prefetched_unused: prefetched,
            });
            return Inserted {
                evicted: false,
                evicted_prefetched_unused: false,
            };
        }
        // Second-chance sweep: clear referenced bits until an
        // unreferenced victim comes under the hand. Terminates within
        // two sweeps (all bits are cleared after one).
        loop {
            if self.hand >= self.slots.len() {
                self.hand = 0;
            }
            if self.slots[self.hand].referenced {
                self.slots[self.hand].referenced = false;
                self.hand += 1;
                continue;
            }
            let victim = self.slots[self.hand];
            self.map.remove(&victim.key);
            self.evictions += 1;
            self.map.insert(key, self.hand);
            self.slots[self.hand] = Slot {
                key,
                referenced: true,
                prefetched_unused: prefetched,
            };
            self.hand += 1;
            return Inserted {
                evicted: true,
                evicted_prefetched_unused: victim.prefetched_unused,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_then_evicts_deterministically() {
        let mut c = ResidencyClock::new(2);
        assert_eq!(c.touch(1), Touch::Absent);
        c.insert(1, false);
        c.insert(2, false);
        assert_eq!(c.resident(), 2);
        assert!(c.contains(1) && c.contains(2));
        // Both referenced; inserting 3 clears both then evicts slot 0.
        let ins = c.insert(3, false);
        assert!(ins.evicted);
        assert_eq!(c.evictions(), 1);
        assert!(!c.contains(1), "slot 0 (key 1) is the CLOCK victim");
        assert!(c.contains(2) && c.contains(3));
    }

    #[test]
    fn referenced_keys_survive_the_sweep() {
        let mut c = ResidencyClock::new(2);
        c.insert(1, false);
        c.insert(2, false);
        c.insert(3, false); // the sweep clears both bits, evicts 1
                            // Key 2's bit was cleared by that sweep; key 3 was inserted
                            // referenced. The next insert takes the unreferenced 2.
        let ins = c.insert(4, false);
        assert!(ins.evicted);
        assert!(c.contains(3), "freshly referenced key evicted");
        assert!(c.contains(4));
        assert!(!c.contains(2));
    }

    #[test]
    fn prefetched_unused_flag_reports_waste_and_hits() {
        let mut c = ResidencyClock::new(1);
        c.insert(10, true);
        // Demand touch consumes the flag exactly once.
        assert_eq!(
            c.touch(10),
            Touch::Resident {
                was_prefetched_unused: true
            }
        );
        assert_eq!(
            c.touch(10),
            Touch::Resident {
                was_prefetched_unused: false
            }
        );
        // A prefetched row evicted before any demand touch is wasted.
        c.insert(11, true);
        c.slots_clear_referenced_for_test();
        let ins = c.insert(12, false);
        assert!(ins.evicted && ins.evicted_prefetched_unused);
    }

    impl ResidencyClock {
        fn slots_clear_referenced_for_test(&mut self) {
            for s in &mut self.slots {
                s.referenced = false;
            }
        }
    }

    #[test]
    fn remove_vacates_and_backfills() {
        let mut c = ResidencyClock::new(4);
        for k in [1u64, 2, 3, 4] {
            c.insert(k, false);
        }
        assert!(c.remove(2));
        assert!(!c.remove(2), "double remove reports absent");
        assert!(!c.contains(2));
        assert_eq!(c.resident(), 3);
        // The backfilled slot (key 4 moved into 2's place) still resolves.
        assert!(c.contains(4) && c.contains(1) && c.contains(3));
        // Room freed: the next insert must not evict.
        let ins = c.insert(5, false);
        assert!(!ins.evicted);
        assert_eq!(c.resident(), 4);
    }

    #[test]
    fn same_sequence_same_resident_set() {
        let run = || {
            let mut c = ResidencyClock::new(8);
            for i in 0..1000u64 {
                let key = (i * 7919) % 32;
                if c.touch(key) == Touch::Absent {
                    c.insert(key, false);
                }
            }
            let mut keys: Vec<u64> = (0..32).filter(|&k| c.contains(k)).collect();
            keys.sort_unstable();
            (keys, c.evictions())
        };
        assert_eq!(run(), run());
    }
}
