use crate::CodeRegion;

/// First byte of the simulated data segment.
pub(crate) const DATA_BASE: u64 = 0x0000_1000_0000;
/// First byte of the simulated code segment.
pub(crate) const CODE_BASE: u64 = 0x7f00_0000_0000;

/// Bump allocator over the simulated virtual address space.
///
/// Tensors, embedding tables, and kernel code regions each receive stable,
/// disjoint, cache-line-aligned addresses. Addresses are *virtual* in two
/// senses: they never index real memory, and a data allocation may be larger
/// than the physical buffer that backs it (embedding tables are physically
/// truncated but keep their full-size address range so the cache simulators
/// see production-sized footprints — see `drec-models`).
#[derive(Debug, Clone)]
pub struct AddressSpace {
    data_cursor: u64,
    code_cursor: u64,
}

impl Default for AddressSpace {
    fn default() -> Self {
        Self::new()
    }
}

impl AddressSpace {
    /// Creates an empty address space.
    pub fn new() -> Self {
        AddressSpace {
            data_cursor: DATA_BASE,
            code_cursor: CODE_BASE,
        }
    }

    /// Reserves `bytes` of data space, 64-byte aligned; returns the base.
    pub fn alloc_data(&mut self, bytes: u64) -> u64 {
        let base = self.data_cursor;
        self.data_cursor += round_up(bytes.max(1), 64);
        base
    }

    /// Reserves a code region of `bytes`, 64-byte aligned.
    pub fn alloc_code(&mut self, bytes: u64) -> CodeRegion {
        let base = self.code_cursor;
        self.code_cursor += round_up(bytes.max(1), 64);
        CodeRegion { base, bytes }
    }
}

fn round_up(v: u64, align: u64) -> u64 {
    v.div_ceil(align) * align
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_are_disjoint_and_aligned() {
        let mut s = AddressSpace::new();
        let a = s.alloc_data(100);
        let b = s.alloc_data(10);
        assert_eq!(a % 64, 0);
        assert_eq!(b % 64, 0);
        assert!(b >= a + 100);
    }

    #[test]
    fn code_and_data_segments_disjoint() {
        let mut s = AddressSpace::new();
        let d = s.alloc_data(1 << 30);
        let c = s.alloc_code(1 << 20);
        assert!(d < CODE_BASE);
        assert!(c.base >= CODE_BASE);
    }

    #[test]
    fn zero_sized_allocation_still_advances() {
        let mut s = AddressSpace::new();
        let a = s.alloc_data(0);
        let b = s.alloc_data(0);
        assert_ne!(a, b);
    }
}
