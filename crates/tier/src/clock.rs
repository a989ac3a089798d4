//! Deterministic CLOCK (second-chance) resident set over row keys, and
//! the direct-indexed per-row record that finds a key's slot.
//!
//! A row key is `(table << 32) | row`, and the rows of a store are a
//! bounded, dense set: every table is registered with its row count. So
//! nothing in the tier hashes. [`RowIndex`] is one array of
//! [`RowRecord`]s per table, indexed by row, and a record holds
//! *everything* the tier knows about its row — the CLOCK slot it
//! occupies (this module's) and its demand-touch count (the engine's) —
//! so an access costs one record, not a probe into one map per fact.

/// A record and a slot are eight bytes each, and only this module knows
/// their bits (DESIGN.md §12). A record's word holds the CLOCK slot in its
/// low `SLOT_BITS` (all ones, [`NO_SLOT`], when the row is not resident)
/// and the epoch of its touch count in the next seven; bit 31 is spare.
const SLOT_BITS: u32 = 24;
const NO_SLOT: u32 = (1 << SLOT_BITS) - 1;
/// The first DRAM budget, in rows, whose slots the slot field cannot index.
pub(crate) const BUDGET_LIMIT: usize = 1 << SLOT_BITS;
/// Admission epochs a record tells apart; the engine's counter wraps here.
pub(crate) const EPOCHS: u32 = 1 << 7;
const EPOCH_FIELD: u32 = (EPOCHS - 1) << SLOT_BITS;

/// What the tier keeps for one row. Eight bytes; [`RowRecord::EMPTY`]
/// for a row never touched.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RowRecord {
    /// Demand touches counted during the record's admission epoch; worth
    /// zero in any other (see `TierState::count_touch` in the engine).
    touches: u32,
    /// Slot (written only by [`ResidencyClock`]) and epoch.
    word: u32,
}

impl RowRecord {
    const EMPTY: RowRecord = RowRecord {
        touches: 0,
        word: NO_SLOT,
    };

    fn slot(&self) -> Option<usize> {
        let slot = self.word & NO_SLOT;
        (slot != NO_SLOT).then_some(slot as usize)
    }

    /// The demand touches counted in admission epoch `epoch`.
    pub(crate) fn touches_in(&self, epoch: u32) -> u32 {
        if self.word & EPOCH_FIELD == epoch << SLOT_BITS {
            self.touches
        } else {
            0
        }
    }

    /// Counts one demand touch in `epoch` (below [`EPOCHS`]), dropping a
    /// count from another epoch first; returns whether it is the first.
    pub(crate) fn count_touch(&mut self, epoch: u32) -> bool {
        self.touches = self.touches_in(epoch).saturating_add(1);
        self.word = (self.word & !EPOCH_FIELD) | (epoch << SLOT_BITS);
        self.touches == 1
    }
}

/// The records of one table's rows.
#[derive(Debug, Default)]
struct TableRecords {
    rows: Vec<RowRecord>,
    /// Sized by [`RowIndex::register`]: the table's row count is known,
    /// and a row past it is a caller's bug, not a reason to grow.
    registered: bool,
}

/// The records of every row, addressed by key: table id (the key's high
/// half) → row (its low half). A table the store registers is sized
/// once, by [`RowIndex::register`], and never grows again; a table
/// nobody registered (callers that hand the engine raw keys) grows on
/// [`RowIndex::entry`] to the largest row touched. Lookups that only
/// ask never grow anything.
#[derive(Debug, Default)]
pub(crate) struct RowIndex {
    tables: Vec<TableRecords>,
}

impl RowIndex {
    fn split(key: u64) -> (usize, usize) {
        ((key >> 32) as usize, key as u32 as usize)
    }

    /// Makes room for rows `0..rows` of `table`, which must be below 2^30
    /// (a slot keeps the clock's flags above a key).
    fn grow(&mut self, table: usize, rows: usize) {
        assert!(table < 1 << 30, "tier: table id {table} is not below 2^30");
        if self.tables.len() <= table {
            self.tables.resize_with(table + 1, TableRecords::default);
        }
        if self.tables[table].rows.len() < rows {
            self.tables[table].rows.resize(rows, RowRecord::EMPTY);
        }
    }

    /// Fixes `table` at `rows` rows (more, if it was touched past that
    /// before it was registered).
    pub(crate) fn register(&mut self, table: usize, rows: usize) {
        self.grow(table, rows);
        self.tables[table].registered = true;
    }

    /// The record of `key` if its row was ever registered or touched.
    pub(crate) fn get(&self, key: u64) -> Option<&RowRecord> {
        let (table, row) = Self::split(key);
        self.tables.get(table)?.rows.get(row)
    }

    /// The record of `key`, growing its table to hold it unless the
    /// table was registered.
    ///
    /// # Panics
    ///
    /// If `key` names a row past the end of a registered table.
    #[inline]
    pub(crate) fn entry(&mut self, key: u64) -> &mut RowRecord {
        let (table, row) = Self::split(key);
        match self.tables.get(table) {
            Some(t) if row < t.rows.len() => {}
            Some(t) if t.registered => panic!(
                "tier: row {row} is past the end of table {table}, registered with {} rows",
                t.rows.len()
            ),
            _ => self.grow(table, row + 1),
        }
        &mut self.tables[table].rows[row]
    }

    /// Zeroes every touch count (the admission epoch counter wrapped).
    pub(crate) fn clear_touches(&mut self) {
        for record in self.tables.iter_mut().flat_map(|t| &mut t.rows) {
            record.touches = 0;
        }
    }

    /// Heap bytes the index holds.
    pub(crate) fn bytes(&self) -> usize {
        self.tables.capacity() * std::mem::size_of::<TableRecords>()
            + self
                .tables
                .iter()
                .map(|t| t.rows.capacity() * std::mem::size_of::<RowRecord>())
                .sum::<usize>()
    }
}

/// One resident slot: the key, and above it the clock's two flags.
#[derive(Debug, Clone, Copy)]
struct Slot(u64);

/// Second-chance bit: set on access, cleared as the hand sweeps by.
const REFERENCED: u64 = 1 << 63;
/// Set when the row was promoted by a prefetch and has not yet been
/// demanded — an eviction while still set is a *wasted* prefetch.
const PREFETCHED_UNUSED: u64 = 1 << 62;

impl Slot {
    fn key(self) -> u64 {
        self.0 & (PREFETCHED_UNUSED - 1)
    }

    /// Clears `flag`, returning whether it was set.
    fn take(&mut self, flag: u64) -> bool {
        let was = self.0 & flag != 0;
        self.0 &= !flag;
        was
    }
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
/// sequences produce identical resident sets. A key finds its slot
/// through its row's record (`RowRecord`), which the clock keeps in
/// step with the slot array.
#[derive(Debug)]
pub struct ResidencyClock {
    budget: usize,
    slots: Vec<Slot>,
    /// Key → record; a resident row's record names its slot.
    pub(crate) rows: RowIndex,
    hand: usize,
    evictions: u64,
}

impl ResidencyClock {
    /// An empty clock with room for `budget` keys (minimum 1). Panics at
    /// 2^24 rows or more, which a record's slot field cannot index.
    pub fn new(budget: usize) -> ResidencyClock {
        assert!(
            budget < BUDGET_LIMIT,
            "tier: budget {budget} is not below {BUDGET_LIMIT}"
        );
        let budget = budget.max(1);
        ResidencyClock {
            budget,
            slots: Vec::with_capacity(budget.min(1 << 20)),
            rows: RowIndex::default(),
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

    /// The slot `key` occupies, if resident.
    fn slot_of(&self, key: u64) -> Option<usize> {
        self.rows.get(key)?.slot()
    }

    /// Points `key`'s record at `slot` (`NO_SLOT`: not resident).
    fn set_slot(&mut self, key: u64, slot: u32) {
        let record = self.rows.entry(key);
        record.word = (record.word & !NO_SLOT) | slot;
    }

    /// Whether `key` is resident, without touching referenced bits.
    pub fn contains(&self, key: u64) -> bool {
        self.slot_of(key).is_some()
    }

    /// Counts resident keys for which `pred` holds — the reporting path
    /// behind per-table and per-model residency tables. O(resident).
    pub fn count_resident(&self, mut pred: impl FnMut(u64) -> bool) -> usize {
        self.slots.iter().filter(|s| pred(s.key())).count()
    }

    /// Marks an access to `key` if resident (sets the referenced bit,
    /// clears and reports the prefetched-unused flag).
    pub(crate) fn touch(&mut self, key: u64) -> Touch {
        match self.slot_of(key) {
            Some(i) => {
                let slot = &mut self.slots[i];
                slot.0 |= REFERENCED;
                Touch::Resident {
                    was_prefetched_unused: slot.take(PREFETCHED_UNUSED),
                }
            }
            None => Touch::Absent,
        }
    }

    /// Runs the second-chance sweep and reports the key the next
    /// eviction would take, leaving the hand parked on that victim (so a
    /// following [`ResidencyClock::insert`] evicts exactly it). `None`
    /// while free slots remain — an insert would not evict anything.
    /// The sweep clears referenced bits until an unreferenced victim
    /// comes under the hand, and terminates within two passes (all bits
    /// are cleared after one).
    pub(crate) fn victim_key(&mut self) -> Option<u64> {
        if self.slots.len() < self.budget {
            return None;
        }
        loop {
            if self.hand >= self.slots.len() {
                self.hand = 0;
            }
            if self.slots[self.hand].take(REFERENCED) {
                self.hand += 1;
                continue;
            }
            return Some(self.slots[self.hand].key());
        }
    }

    /// Removes `key` from the resident set (a row-update invalidation:
    /// the DRAM copy is superseded, so residency must be re-earned from
    /// the new bytes). Returns whether the key was resident. The vacated
    /// slot is backfilled by the last slot, so the clock stays dense;
    /// the hand is clamped back into range.
    pub(crate) fn remove(&mut self, key: u64) -> bool {
        let Some(i) = self.slot_of(key) else {
            return false;
        };
        self.set_slot(key, NO_SLOT);
        self.slots.swap_remove(i);
        if let Some(moved) = self.slots.get(i) {
            self.set_slot(moved.key(), i as u32);
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
        let mut inserted = Inserted {
            evicted: false,
            evicted_prefetched_unused: false,
        };
        // The key's record is found — in a table nobody registered, made
        // — before anything is evicted, so a key past a registered
        // table's end panics with the clock intact.
        if let Some(i) = self.rows.entry(key).slot() {
            // Already resident (a racing promote won): treat as a touch.
            self.slots[i].0 |= REFERENCED;
            if !prefetched {
                self.slots[i].take(PREFETCHED_UNUSED);
            }
            return inserted;
        }
        let fresh = Slot(key | REFERENCED | if prefetched { PREFETCHED_UNUSED } else { 0 });
        let slot = match self.victim_key() {
            None => {
                self.slots.push(fresh);
                self.slots.len() - 1
            }
            Some(victim) => {
                let at = self.hand;
                inserted = Inserted {
                    evicted: true,
                    evicted_prefetched_unused: self.slots[at].0 & PREFETCHED_UNUSED != 0,
                };
                self.set_slot(victim, NO_SLOT);
                self.evictions += 1;
                self.slots[at] = fresh;
                self.hand = at + 1;
                at
            }
        };
        self.set_slot(key, slot as u32);
        inserted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_row_record_and_a_slot_are_eight_bytes_each() {
        assert_eq!(std::mem::size_of::<RowRecord>(), 8);
        assert_eq!(std::mem::size_of::<Slot>(), 8);
    }

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
                s.take(REFERENCED);
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
    fn both_flags_survive_removes_backfill() {
        let mut c = ResidencyClock::new(4);
        for k in [1u64, 2, 3] {
            c.insert(k, false);
        }
        c.slots_clear_referenced_for_test();
        let key = (5 << 32) | 9;
        c.insert(key, true);
        assert!(c.remove(2));
        // The last slot moved into 2's place with its key and both flags.
        let moved = c.slots[c.slot_of(key).unwrap()];
        assert_eq!(c.slot_of(key), Some(1));
        assert_eq!(moved.key(), key);
        let flags = REFERENCED | PREFETCHED_UNUSED;
        assert_eq!(moved.0 & flags, flags);
        assert_eq!((c.slots[0].0 | c.slots[2].0) & REFERENCED, 0);
        assert_eq!(
            c.touch(key),
            Touch::Resident {
                was_prefetched_unused: true
            }
        );
    }

    #[test]
    fn a_table_id_of_two_to_the_thirty_is_rejected() {
        let mut c = ResidencyClock::new(4);
        c.insert(7, true);
        let past = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.insert(1 << 62, false);
        }));
        let msg = *past.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("table id 1073741824"), "{msg}");
        assert_eq!(c.resident(), 1);
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
