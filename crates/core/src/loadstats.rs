//! Object-load access accounting for Figure 3.
//!
//! Figure 3 classifies every *object load access* (a load of a named
//! property or of an elements-array slot whose result is a boxed value) by
//! whether its source slot turned out to be monomorphic over the whole
//! execution. The engine counts loads per `(ClassId, line, pos)` site here;
//! at the end of the run the counts are classified against the final
//! [`ClassList`] state.

use crate::classid::ClassId;
use crate::classlist::{ClassList, ELEMENTS_SLOT};
use std::collections::HashMap;

/// Number of property positions tracked in pages per (class, line).
/// Engine call sites always pass `pos = offset % 8`, so 8 covers them all;
/// wider positions (possible through the public API) spill to a side map.
const PAGE_POS: usize = 8;
/// Counters per holder-class page: 256 lines x [`PAGE_POS`] positions
/// (16 KiB).
const PAGE_LEN: usize = 256 * PAGE_POS;

/// One holder class's named-property counters, indexed `line << 3 | pos`.
type Page = [u64; PAGE_LEN];

/// Per-slot dynamic load counters.
///
/// Recording runs on every profiled object load — the hottest profiling
/// path in a characterization run — so named-property counters live in
/// flat per-class pages indexed by `(line, pos)` rather than a hash map:
/// one add with no hashing. A page is allocated on the first load from
/// its holder class, so a run holds 16 KiB per class it loads from, not
/// a table sized for all 256 classes; classification walks the allocated
/// pages once at the end of the run.
#[derive(Debug, Default, Clone)]
pub struct LoadAccessStats {
    /// Named-property load counts (`pos < PAGE_POS`), one optional page
    /// per holder class. Empty until the first record, then 256 slots.
    property_pages: Vec<Option<Box<Page>>>,
    /// Named-property loads whose `pos >= PAGE_POS` (unreachable from
    /// the engine, but the API accepts any `u8`).
    property_spill: HashMap<(ClassId, u8, u8), u64>,
    /// Loads from elements arrays, indexed by holder class.
    elements_loads: Vec<u64>,
}

/// Figure 3 row: the four stacked fractions (they sum to 100 when any
/// object loads happened).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Fig3Row {
    /// % of object loads from monomorphic named properties.
    pub mono_properties: f64,
    /// % of object loads from monomorphic elements arrays.
    pub mono_elements: f64,
    /// % from non-monomorphic named properties.
    pub poly_properties: f64,
    /// % from non-monomorphic elements arrays.
    pub poly_elements: f64,
}

impl Fig3Row {
    /// Total monomorphic fraction (the paper's headline: 66 % on average).
    pub fn mono_total(&self) -> f64 {
        self.mono_properties + self.mono_elements
    }
}

impl LoadAccessStats {
    /// Empty counters.
    pub fn new() -> LoadAccessStats {
        LoadAccessStats::default()
    }

    /// Reset counters (steady-state boundary). Drops the pages and the
    /// elements table; they are re-allocated on first use.
    pub fn reset(&mut self) {
        self.property_pages = Vec::new();
        self.property_spill.clear();
        self.elements_loads = Vec::new();
    }

    /// Record a named-property load from `(holder, line, pos)`.
    #[inline]
    pub fn record_property_load(&mut self, holder: ClassId, line: u8, pos: u8) {
        if (pos as usize) < PAGE_POS {
            if self.property_pages.is_empty() {
                self.property_pages.resize_with(256, || None);
            }
            let page = self.property_pages[holder.raw() as usize]
                .get_or_insert_with(|| Box::new([0; PAGE_LEN]));
            page[(line as usize) << 3 | pos as usize] += 1;
        } else {
            *self.property_spill.entry((holder, line, pos)).or_insert(0) += 1;
        }
    }

    /// Record an elements-array load from an object of class `holder`.
    #[inline]
    pub fn record_elements_load(&mut self, holder: ClassId) {
        if self.elements_loads.is_empty() {
            self.elements_loads = vec![0; 256];
        }
        self.elements_loads[holder.raw() as usize] += 1;
    }

    /// Visit every nonzero named-property counter as `((class, line, pos), n)`:
    /// the allocated pages in ascending class order, then the spill map.
    fn for_each_property(&self, mut f: impl FnMut(ClassId, u8, u8, u64)) {
        for (class, page) in self.property_pages.iter().enumerate() {
            let Some(page) = page else { continue };
            let class = ClassId::from_raw_u8(class as u8);
            for (ix, &n) in page.iter().enumerate() {
                if n != 0 {
                    f(class, (ix >> 3) as u8, (ix & 0x7) as u8, n);
                }
            }
        }
        for (&(class, line, pos), &n) in &self.property_spill {
            f(class, line, pos, n);
        }
    }

    /// Visit every nonzero elements counter as `(class, n)`.
    fn for_each_elements(&self, mut f: impl FnMut(ClassId, u64)) {
        for (ix, &n) in self.elements_loads.iter().enumerate() {
            if n != 0 {
                f(ClassId::from_raw_u8(ix as u8), n);
            }
        }
    }

    /// Total recorded object loads.
    pub fn total(&self) -> u64 {
        self.property_pages.iter().flatten().map(|page| page.iter().sum::<u64>()).sum::<u64>()
            + self.property_spill.values().sum::<u64>()
            + self.elements_loads.iter().sum::<u64>()
    }

    /// Classify with caller-provided monomorphism predicates (used by the
    /// harness, which applies the transition-subtree-aggregated query the
    /// compiler uses; see DESIGN.md §4).
    pub fn classify_aggregated(
        &self,
        prop_mono: &dyn Fn(ClassId, u8, u8) -> bool,
        elem_mono: &dyn Fn(ClassId) -> bool,
    ) -> Fig3Row {
        let total = self.total();
        if total == 0 {
            return Fig3Row::default();
        }
        let mut mono_props = 0u64;
        let mut poly_props = 0u64;
        self.for_each_property(|class, line, pos, n| {
            if prop_mono(class, line, pos) {
                mono_props += n;
            } else {
                poly_props += n;
            }
        });
        let mut mono_elems = 0u64;
        let mut poly_elems = 0u64;
        self.for_each_elements(|class, n| {
            if elem_mono(class) {
                mono_elems += n;
            } else {
                poly_elems += n;
            }
        });
        let pct = |n: u64| 100.0 * n as f64 / total as f64;
        Fig3Row {
            mono_properties: pct(mono_props),
            mono_elements: pct(mono_elems),
            poly_properties: pct(poly_props),
            poly_elements: pct(poly_elems),
        }
    }

    /// Classify the recorded loads against the final profiling state and
    /// produce the Figure 3 row.
    pub fn classify(&self, list: &ClassList) -> Fig3Row {
        let total = self.total();
        if total == 0 {
            return Fig3Row::default();
        }
        let mut mono_props = 0u64;
        let mut poly_props = 0u64;
        self.for_each_property(|class, line, pos, n| {
            if list.monomorphic_class(class, line, pos).is_some() {
                mono_props += n;
            } else {
                poly_props += n;
            }
        });
        let mut mono_elems = 0u64;
        let mut poly_elems = 0u64;
        self.for_each_elements(|class, n| {
            if list.monomorphic_class(class, 0, ELEMENTS_SLOT).is_some() {
                mono_elems += n;
            } else {
                poly_elems += n;
            }
        });
        let pct = |n: u64| 100.0 * n as f64 / total as f64;
        Fig3Row {
            mono_properties: pct(mono_props),
            mono_elements: pct(mono_elems),
            poly_properties: pct(poly_props),
            poly_elements: pct(poly_elems),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::StoreRequest;

    fn cid(n: u8) -> ClassId {
        ClassId::new(n).unwrap()
    }

    #[test]
    fn classification_follows_final_state() {
        let mut list = ClassList::new();
        let mut stats = LoadAccessStats::new();

        // Slot (1,0,1) stays monomorphic; slot (1,0,4) goes polymorphic.
        list.profile_store(&StoreRequest { holder: cid(1), line: 0, pos: 1, stored: cid(9) });
        list.profile_store(&StoreRequest { holder: cid(1), line: 0, pos: 4, stored: cid(9) });
        list.profile_store(&StoreRequest { holder: cid(1), line: 0, pos: 4, stored: ClassId::SMI });

        for _ in 0..3 {
            stats.record_property_load(cid(1), 0, 1);
        }
        stats.record_property_load(cid(1), 0, 4);

        let row = stats.classify(&list);
        assert!((row.mono_properties - 75.0).abs() < 1e-9);
        assert!((row.poly_properties - 25.0).abs() < 1e-9);
        assert_eq!(row.mono_elements, 0.0);
        assert!((row.mono_total() - 75.0).abs() < 1e-9);
    }

    #[test]
    fn elements_loads_use_the_elements_slot() {
        let mut list = ClassList::new();
        let mut stats = LoadAccessStats::new();
        list.profile_store(&StoreRequest {
            holder: cid(2),
            line: 0,
            pos: ELEMENTS_SLOT,
            stored: cid(7),
        });
        stats.record_elements_load(cid(2));
        let row = stats.classify(&list);
        assert!((row.mono_elements - 100.0).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_give_zero_row() {
        let list = ClassList::new();
        let stats = LoadAccessStats::new();
        assert_eq!(stats.classify(&list), Fig3Row::default());
        assert_eq!(stats.total(), 0);
    }

    #[test]
    fn reset_clears_counts() {
        let mut stats = LoadAccessStats::new();
        stats.record_property_load(cid(1), 0, 1);
        stats.record_elements_load(cid(1));
        assert_eq!(stats.total(), 2);
        stats.reset();
        assert_eq!(stats.total(), 0);
    }

    #[test]
    fn never_stored_slot_counts_as_polymorphic() {
        // A load from a slot that was never profiled (e.g. pre-initialized
        // by the runtime outside profiling) is conservatively
        // non-monomorphic.
        let list = ClassList::new();
        let mut stats = LoadAccessStats::new();
        stats.record_property_load(cid(3), 0, 5);
        let row = stats.classify(&list);
        assert!((row.poly_properties - 100.0).abs() < 1e-9);
    }
}
