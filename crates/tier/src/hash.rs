//! The row-key hasher behind every map in the tier.

use std::hash::{BuildHasherDefault, Hasher};

/// Fibonacci-mix hasher for `(table << 32) | row` keys — the same
/// multiplicative mix `drec-store`'s hot-row cache places rows with, in
/// place of SipHash (several hash operations per tier access made
/// SipHash a measurable share of a row read). The product's high half
/// is folded onto its low half because the map takes its bucket index
/// from the low bits, and the low bits of a product depend only on the
/// low bits of the key: unfolded, row `r` of every table would share a
/// bucket.
///
/// Not collision-resistant against crafted keys, and it need not be:
/// the key space is the bounded, dense set of registered rows (request
/// ids are reduced modulo the table's physical rows before they get
/// here), so a request can only pick among keys that exist anyway.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct RowKeyHasher(u64);

impl Hasher for RowKeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Only `u64` keys are hashed in this crate; this keeps the trait
        // total for anything else.
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, key: u64) {
        let mixed = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = mixed ^ (mixed >> 32);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

pub(crate) type RowKeyBuild = BuildHasherDefault<RowKeyHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn same_row_of_different_tables_spreads_over_low_bits() {
        // 64 tables × row 7: the low 6 bits (a 64-bucket map's index)
        // must not all coincide.
        let build = RowKeyBuild::default();
        let buckets: std::collections::BTreeSet<u64> = (0..64u64)
            .map(|table| build.hash_one((table << 32) | 7) & 63)
            .collect();
        assert!(buckets.len() > 16, "only {} buckets used", buckets.len());
    }
}
