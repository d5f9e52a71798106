//! Hardware class identifiers.
//!
//! The paper replaces V8's 48-bit hidden-class descriptor addresses with
//! dense 8-bit identifiers so the Class List can be indexed with
//! `(ClassID << 8) | Line` (§4.2.1.1). The value `0b1111_1111` is reserved
//! to encode the SMI (small integer) type.

use std::collections::HashMap;
use std::fmt;

/// An 8-bit hardware hidden-class identifier.
///
/// Ordinary hidden classes receive identifiers `0..=254`;
/// [`ClassId::SMI`] (`0xFF`) encodes the small-integer type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClassId(u8);

impl ClassId {
    /// The reserved encoding for SMI values (§4.2.1.1: "the SMI type is
    /// encoded as 11111111").
    pub const SMI: ClassId = ClassId(0xFF);

    /// Construct a non-SMI class identifier. Returns `None` for the
    /// reserved SMI encoding.
    pub fn new(raw: u8) -> Option<ClassId> {
        if raw == 0xFF {
            None
        } else {
            Some(ClassId(raw))
        }
    }

    /// The raw 8-bit encoding.
    #[inline]
    pub fn raw(self) -> u8 {
        self.0
    }

    /// Reconstruct from a raw encoding, round-tripping [`ClassId::raw`]
    /// exactly (`0xFF` becomes [`ClassId::SMI`]). Crate-internal: used by
    /// the load-stat pages and elements table to recover keys from indices.
    #[inline]
    pub(crate) fn from_raw_u8(raw: u8) -> ClassId {
        ClassId(raw)
    }

    /// Whether this is the SMI encoding.
    #[inline]
    pub fn is_smi(self) -> bool {
        self.0 == 0xFF
    }
}

impl fmt::Display for ClassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_smi() {
            write!(f, "SMI")
        } else {
            write!(f, "C{}", self.0)
        }
    }
}

/// Identifier of a function known to the runtime, used in FunctionLists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub u32);

impl fmt::Display for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// Allocates dense [`ClassId`]s for runtime hidden classes.
///
/// The runtime identifies hidden classes by its own (wide) map index; this
/// allocator hands out the 8-bit hardware identifiers in creation order.
/// Once all 255 non-SMI identifiers are exhausted, further classes are left
/// unprofiled (`None`): stores to them use ordinary store instructions, so
/// the mechanism degrades gracefully — the paper observes only 2 of 54
/// benchmarks use more than 32 hidden classes (§5.3.1).
#[derive(Debug, Default)]
pub struct ClassIdAllocator {
    by_map: HashMap<u32, ClassId>,
    next: u16,
    /// Number of allocation requests refused because the 8-bit space was
    /// exhausted.
    pub overflowed: u64,
}

impl ClassIdAllocator {
    /// New allocator with all identifiers available.
    pub fn new() -> ClassIdAllocator {
        ClassIdAllocator::default()
    }

    /// Return the [`ClassId`] for a runtime map index, allocating one on
    /// first sight. `None` if the identifier space is exhausted.
    pub fn get_or_alloc(&mut self, map_index: u32) -> Option<ClassId> {
        if let Some(&id) = self.by_map.get(&map_index) {
            return Some(id);
        }
        if self.next >= 0xFF {
            self.overflowed += 1;
            return None;
        }
        let id = ClassId(self.next as u8);
        self.next += 1;
        self.by_map.insert(map_index, id);
        Some(id)
    }

    /// Look up without allocating.
    pub fn lookup(&self, map_index: u32) -> Option<ClassId> {
        self.by_map.get(&map_index).copied()
    }

    /// Number of identifiers allocated so far. The paper's warm-up-cost
    /// argument (§5.3.1) is that this stays small (≤ 32 for 52 of 54
    /// benchmarks).
    pub fn allocated(&self) -> usize {
        self.next as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smi_is_reserved() {
        assert!(ClassId::new(0xFF).is_none());
        assert!(ClassId::SMI.is_smi());
        assert_eq!(ClassId::SMI.raw(), 0xFF);
        assert_eq!(format!("{}", ClassId::SMI), "SMI");
    }

    #[test]
    fn display_of_ordinary_class() {
        assert_eq!(format!("{}", ClassId::new(7).unwrap()), "C7");
    }

    #[test]
    fn allocator_is_dense_and_stable() {
        let mut a = ClassIdAllocator::new();
        let c0 = a.get_or_alloc(100).unwrap();
        let c1 = a.get_or_alloc(200).unwrap();
        assert_eq!(c0.raw(), 0);
        assert_eq!(c1.raw(), 1);
        // Stable on repeat.
        assert_eq!(a.get_or_alloc(100).unwrap(), c0);
        assert_eq!(a.allocated(), 2);
        assert_eq!(a.lookup(200), Some(c1));
        assert_eq!(a.lookup(300), None);
    }

    #[test]
    fn allocator_exhausts_gracefully() {
        let mut a = ClassIdAllocator::new();
        for i in 0..255u32 {
            assert!(a.get_or_alloc(i).is_some(), "id {i} should allocate");
        }
        assert_eq!(a.allocated(), 255);
        assert!(a.get_or_alloc(9999).is_none());
        assert_eq!(a.overflowed, 1);
        // Previously allocated ids still resolve.
        assert_eq!(a.get_or_alloc(0).unwrap().raw(), 0);
        // 0xFF was never handed out.
        for i in 0..255u32 {
            assert!(!a.lookup(i).unwrap().is_smi());
        }
    }
}
