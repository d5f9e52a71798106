//! The Class List — the in-memory software structure of §4.2.1.1.
//!
//! For every hidden class, the Class List holds one entry per 64-byte cache
//! line that objects of this class occupy. Each entry tracks, per property
//! slot of the line:
//!
//! * `InitMap` — has any object ever written this slot?
//! * `ValidMap` — is the slot still monomorphic? (starts 1, sticks at 0)
//! * `SpeculateMap` — has a function been optimized assuming monomorphism?
//! * `Prop1..Prop7` — the profiled [`ClassId`] of the values stored there.
//! * `FunctionList` — per slot, which functions speculated on it.
//!
//! Slot 0 of every line is the line header (map word); slot
//! [`ELEMENTS_SLOT`] of line 0 doubles as the profile of the **elements
//! array** contents, because that word holds the elements pointer and is
//! never the target of an ordinary property store (§4.2.1.3, Fig. 5).

use crate::classid::{ClassId, FuncId};
use crate::protocol::{MisspeculationException, StoreOutcome, StoreRequest};
use std::fmt;

/// Slot of line 0 reserved for the elements-array profile (the
/// elements-pointer word — "the second property of each hidden class").
pub const ELEMENTS_SLOT: u8 = 2;

/// Number of 8-byte words per cache line (slot 0 is the header).
pub const SLOTS_PER_LINE: u8 = 8;

/// One `(ClassID, Line)` entry of the Class List.
#[derive(Debug, Clone)]
pub struct ClassListEntry {
    /// Per-slot "has been initialized" bits (bit *i* = slot *i*).
    pub init_map: u8,
    /// Per-slot "still monomorphic" bits; initialized to all-ones.
    pub valid_map: u8,
    /// Per-slot "a speculative optimization depends on this" bits.
    pub speculate_map: u8,
    /// Profiled ClassID per slot (raw encoding; only meaningful where the
    /// InitMap bit is set). Index 0 is unused.
    pub props: [u8; 8],
    /// Per-slot list of speculatively optimized functions.
    pub func_lists: [Vec<FuncId>; 8],
}

impl Default for ClassListEntry {
    fn default() -> Self {
        ClassListEntry {
            init_map: 0,
            valid_map: 0xFF,
            speculate_map: 0,
            props: [0; 8],
            func_lists: Default::default(),
        }
    }
}

impl ClassListEntry {
    /// Whether `pos` is initialized and still monomorphic. A line has 8
    /// slots, so `pos >= 8` is never profiled and never monomorphic.
    pub fn is_monomorphic(&self, pos: u8) -> bool {
        let Some(bit) = 1u8.checked_shl(pos.into()) else { return false };
        self.init_map & bit != 0 && self.valid_map & bit != 0
    }

    /// The profiled class for `pos`, if monomorphic.
    pub fn monomorphic_class(&self, pos: u8) -> Option<ClassId> {
        if self.is_monomorphic(pos) {
            Some(ClassId::new(self.props[pos as usize]).unwrap_or(ClassId::SMI))
        } else {
            None
        }
    }
}

/// The Class List: up to 2^16 entries indexed by `(ClassID << 8) | Line`.
///
/// Entries materialize lazily (the real structure is a fixed 64 KB region;
/// laziness is an implementation convenience only).
pub struct ClassList {
    entries: Vec<Option<Box<ClassListEntry>>>,
    /// Count of entries that have been materialized (∝ warm-up work,
    /// §5.3.1).
    materialized: usize,
}

impl fmt::Debug for ClassList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClassList")
            .field("materialized", &self.materialized)
            .finish()
    }
}

impl Default for ClassList {
    fn default() -> Self {
        Self::new()
    }
}

impl ClassList {
    /// An empty Class List.
    pub fn new() -> ClassList {
        let mut entries = Vec::new();
        entries.resize_with(1 << 16, || None);
        ClassList { entries, materialized: 0 }
    }

    #[inline]
    fn index(class: ClassId, line: u8) -> usize {
        ((class.raw() as usize) << 8) | line as usize
    }

    /// Immutable access to an entry, if materialized.
    pub fn entry(&self, class: ClassId, line: u8) -> Option<&ClassListEntry> {
        self.entries[Self::index(class, line)].as_deref()
    }

    /// Mutable access, materializing the entry on first touch.
    pub fn entry_mut(&mut self, class: ClassId, line: u8) -> &mut ClassListEntry {
        let ix = Self::index(class, line);
        if self.entries[ix].is_none() {
            self.entries[ix] = Some(Box::default());
            self.materialized += 1;
        }
        self.entries[ix].as_deref_mut().unwrap()
    }

    /// Number of `(ClassID, Line)` entries ever touched.
    pub fn materialized_entries(&self) -> usize {
        self.materialized
    }

    /// Pure software reference semantics of a store request. The
    /// [`crate::ClassCache`] produces identical outcomes (it is a cache of
    /// this structure); tests exploit that equivalence.
    ///
    /// Protocol (§4.2.1.3):
    /// 1. first store to the slot → record the class, set InitMap;
    /// 2. same class as recorded → no change;
    /// 3. different class → clear ValidMap forever; if SpeculateMap was
    ///    set, clear it and raise the misspeculation exception carrying the
    ///    FunctionList.
    pub fn profile_store(&mut self, req: &StoreRequest) -> StoreOutcome {
        let entry = self.entry_mut(req.holder, req.line);
        let bit = 1u8 << req.pos;
        if entry.init_map & bit == 0 {
            entry.init_map |= bit;
            entry.props[req.pos as usize] = req.stored.raw();
            return StoreOutcome::Initialized;
        }
        if entry.props[req.pos as usize] == req.stored.raw() {
            return StoreOutcome::Match;
        }
        // Type changed.
        let was_valid = entry.valid_map & bit != 0;
        entry.valid_map &= !bit;
        if entry.speculate_map & bit != 0 {
            entry.speculate_map &= !bit;
            let functions = std::mem::take(&mut entry.func_lists[req.pos as usize]);
            let old =
                ClassId::new(entry.props[req.pos as usize]).unwrap_or(ClassId::SMI);
            return StoreOutcome::Misspeculation(MisspeculationException {
                holder: req.holder,
                line: req.line,
                pos: req.pos,
                profiled: old,
                observed: req.stored,
                functions,
            });
        }
        if was_valid {
            StoreOutcome::Invalidated
        } else {
            StoreOutcome::Polymorphic
        }
    }

    /// Force a slot non-monomorphic (used when a stored object's class has
    /// no 8-bit identifier and therefore cannot be carried by a store
    /// request). Raises the misspeculation exception if the slot was
    /// speculated on.
    pub fn force_invalidate(&mut self, class: ClassId, line: u8, pos: u8) -> StoreOutcome {
        let entry = self.entry_mut(class, line);
        let bit = 1u8 << pos;
        entry.init_map |= bit;
        let was_valid = entry.valid_map & bit != 0;
        entry.valid_map &= !bit;
        if entry.speculate_map & bit != 0 {
            entry.speculate_map &= !bit;
            let functions = std::mem::take(&mut entry.func_lists[pos as usize]);
            let old = ClassId::new(entry.props[pos as usize]).unwrap_or(ClassId::SMI);
            return StoreOutcome::Misspeculation(MisspeculationException {
                holder: class,
                line,
                pos,
                profiled: old,
                observed: ClassId::SMI,
                functions,
            });
        }
        if was_valid {
            StoreOutcome::Invalidated
        } else {
            StoreOutcome::Polymorphic
        }
    }

    /// The profiled class for a property slot, if it is initialized and
    /// still monomorphic. This is the query the optimizing compiler makes
    /// (§4.2.2) before eliding checks.
    pub fn monomorphic_class(&self, class: ClassId, line: u8, pos: u8) -> Option<ClassId> {
        self.entry(class, line)?.monomorphic_class(pos)
    }

    /// Record that `func` was speculatively optimized assuming slot
    /// `(class, line, pos)` is monomorphic: sets the SpeculateMap bit and
    /// appends to the FunctionList (idempotently).
    ///
    /// Returns `false` (and records nothing) if the slot is not currently
    /// monomorphic — the compiler must not speculate on it.
    pub fn speculate(&mut self, class: ClassId, line: u8, pos: u8, func: FuncId) -> bool {
        let entry = self.entry_mut(class, line);
        let bit = 1u8 << pos;
        if entry.init_map & bit == 0 || entry.valid_map & bit == 0 {
            return false;
        }
        entry.speculate_map |= bit;
        let list = &mut entry.func_lists[pos as usize];
        if !list.contains(&func) {
            list.push(func);
        }
        true
    }

    /// Invalidate every slot whose profiled class is `cid`.
    ///
    /// Needed for soundness under **in-place class mutation**: an object
    /// already stored in a profiled slot can transition its own hidden
    /// class (property addition) without any store to the slot, so the
    /// recorded monomorphism silently goes stale. The runtime calls this
    /// when a class that was ever profiled as a value class transitions;
    /// any speculations resting on it surface as exceptions. (The paper
    /// leaves this case implicit; see DESIGN.md.)
    pub fn invalidate_value_class(&mut self, cid: ClassId) -> Vec<MisspeculationException> {
        let mut exceptions = Vec::new();
        for ix in 0..self.entries.len() {
            let Some(entry) = self.entries[ix].as_deref_mut() else { continue };
            for pos in 1..8u8 {
                let bit = 1u8 << pos;
                if entry.init_map & bit == 0 || entry.props[pos as usize] != cid.raw() {
                    continue;
                }
                let was_valid = entry.valid_map & bit != 0;
                entry.valid_map &= !bit;
                if entry.speculate_map & bit != 0 {
                    entry.speculate_map &= !bit;
                    let functions = std::mem::take(&mut entry.func_lists[pos as usize]);
                    exceptions.push(MisspeculationException {
                        holder: ClassId::new((ix >> 8) as u8).unwrap_or(ClassId::SMI),
                        line: (ix & 0xFF) as u8,
                        pos,
                        profiled: cid,
                        observed: cid,
                        functions,
                    });
                }
                let _ = was_valid;
            }
        }
        exceptions
    }

    /// Remove a function from every FunctionList (called when the runtime
    /// deoptimizes it, so stale registrations cannot trigger spurious
    /// exceptions). Clears SpeculateMap bits whose lists become empty.
    pub fn remove_function(&mut self, func: FuncId) {
        for slot in self.entries.iter_mut() {
            let Some(entry) = slot.as_deref_mut() else { continue };
            if entry.speculate_map == 0 {
                continue;
            }
            for pos in 0..8 {
                let bit = 1u8 << pos;
                if entry.speculate_map & bit == 0 {
                    continue;
                }
                let list = &mut entry.func_lists[pos as usize];
                list.retain(|&f| f != func);
                if list.is_empty() {
                    entry.speculate_map &= !bit;
                }
            }
        }
    }

    /// Iterate over materialized entries as `(ClassId, line, entry)`.
    pub fn iter(&self) -> impl Iterator<Item = (ClassId, u8, &ClassListEntry)> {
        self.entries.iter().enumerate().filter_map(|(ix, e)| {
            let entry = e.as_deref()?;
            let class = ClassId::new((ix >> 8) as u8)?;
            Some((class, (ix & 0xFF) as u8, entry))
        })
    }

    /// Render the Table 1 style dump of the Class List for the given
    /// class-name resolver (maps a ClassId to a human-readable name).
    pub fn render_table<F: Fn(ClassId) -> String>(&self, name_of: F) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<18} {:>8} {:>8} {:>12}  {:<28} FunctionList",
            "ClassID, Line", "InitMap", "ValidMap", "SpeculateMap", "Prop1..Prop7"
        );
        for (class, line, entry) in self.iter() {
            let props: Vec<String> = (1..8)
                .map(|p| {
                    if entry.init_map & (1 << p) != 0 {
                        let c = ClassId::new(entry.props[p]).unwrap_or(ClassId::SMI);
                        name_of(c)
                    } else {
                        "-".to_string()
                    }
                })
                .collect();
            let funcs: Vec<String> = (1..8)
                .filter(|&p| !entry.func_lists[p].is_empty())
                .map(|p| {
                    format!(
                        "property {}: {:?}",
                        p,
                        entry.func_lists[p]
                            .iter()
                            .map(|f| f.0)
                            .collect::<Vec<_>>()
                    )
                })
                .collect();
            let _ = writeln!(
                out,
                "{:<22} {:>08b} {:>08b} {:>012b}  {:<28} {}",
                format!("{}#{}, {}", name_of(class), class.raw(), line + 1),
                entry.init_map,
                entry.valid_map,
                entry.speculate_map,
                props.join(","),
                if funcs.is_empty() { "---".to_string() } else { funcs.join("; ") },
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cid(n: u8) -> ClassId {
        ClassId::new(n).unwrap()
    }

    fn req(holder: u8, line: u8, pos: u8, stored: ClassId) -> StoreRequest {
        StoreRequest { holder: cid(holder), line, pos, stored }
    }

    #[test]
    fn first_store_initializes() {
        let mut list = ClassList::new();
        assert_eq!(list.profile_store(&req(1, 0, 1, cid(9))), StoreOutcome::Initialized);
        let e = list.entry(cid(1), 0).unwrap();
        assert_eq!(e.init_map, 0b0000_0010);
        assert_eq!(e.valid_map, 0xFF);
        assert_eq!(list.monomorphic_class(cid(1), 0, 1), Some(cid(9)));
    }

    #[test]
    fn same_class_keeps_monomorphism() {
        let mut list = ClassList::new();
        list.profile_store(&req(1, 0, 4, ClassId::SMI));
        for _ in 0..10 {
            assert_eq!(list.profile_store(&req(1, 0, 4, ClassId::SMI)), StoreOutcome::Match);
        }
        assert_eq!(list.monomorphic_class(cid(1), 0, 4), Some(ClassId::SMI));
    }

    #[test]
    fn different_class_invalidates_forever() {
        let mut list = ClassList::new();
        list.profile_store(&req(1, 0, 1, cid(9)));
        assert_eq!(list.profile_store(&req(1, 0, 1, cid(8))), StoreOutcome::Invalidated);
        assert_eq!(list.monomorphic_class(cid(1), 0, 1), None);
        // Even storing the original class again never restores validity:
        // the comparison matches the recorded Prop field (the paper never
        // updates it), but the ValidMap bit stays 0.
        assert_eq!(list.profile_store(&req(1, 0, 1, cid(9))), StoreOutcome::Match);
        assert_eq!(list.monomorphic_class(cid(1), 0, 1), None);
        // And a third distinct class reports plain polymorphic.
        assert_eq!(list.profile_store(&req(1, 0, 1, cid(7))), StoreOutcome::Polymorphic);
    }

    #[test]
    fn speculation_requires_monomorphism() {
        let mut list = ClassList::new();
        assert!(!list.speculate(cid(2), 0, 1, FuncId(1)), "uninitialized slot");
        list.profile_store(&req(2, 0, 1, cid(5)));
        assert!(list.speculate(cid(2), 0, 1, FuncId(1)));
        // Idempotent.
        assert!(list.speculate(cid(2), 0, 1, FuncId(1)));
        assert_eq!(list.entry(cid(2), 0).unwrap().func_lists[1], vec![FuncId(1)]);
    }

    #[test]
    fn misspeculation_raises_and_drains_function_list() {
        let mut list = ClassList::new();
        list.profile_store(&req(2, 1, 3, cid(5)));
        list.speculate(cid(2), 1, 3, FuncId(7));
        list.speculate(cid(2), 1, 3, FuncId(8));
        match list.profile_store(&req(2, 1, 3, cid(6))) {
            StoreOutcome::Misspeculation(exc) => {
                assert_eq!(exc.functions, vec![FuncId(7), FuncId(8)]);
                assert_eq!(exc.profiled, cid(5));
                assert_eq!(exc.observed, cid(6));
                assert_eq!(exc.pos, 3);
            }
            other => panic!("expected exception, got {other:?}"),
        }
        // Speculate bit cleared; later mismatching stores are plain
        // polymorphic (cid(5) still matches the recorded Prop field).
        assert_eq!(list.profile_store(&req(2, 1, 3, cid(5))), StoreOutcome::Match);
        assert_eq!(list.profile_store(&req(2, 1, 3, cid(9))), StoreOutcome::Polymorphic);
        assert_eq!(list.monomorphic_class(cid(2), 1, 3), None);
    }

    #[test]
    fn remove_function_clears_stale_registrations() {
        let mut list = ClassList::new();
        list.profile_store(&req(3, 0, 1, cid(5)));
        list.profile_store(&req(3, 0, 4, cid(6)));
        list.speculate(cid(3), 0, 1, FuncId(1));
        list.speculate(cid(3), 0, 4, FuncId(1));
        list.speculate(cid(3), 0, 4, FuncId(2));
        list.remove_function(FuncId(1));
        let e = list.entry(cid(3), 0).unwrap();
        assert_eq!(e.speculate_map & 0b10, 0, "slot 1 speculation cleared");
        assert_ne!(e.speculate_map & 0b1_0000, 0, "slot 4 still speculated (f2)");
        assert_eq!(e.func_lists[4], vec![FuncId(2)]);
    }

    #[test]
    fn elements_slot_profiles_like_a_property() {
        let mut list = ClassList::new();
        list.profile_store(&req(4, 0, ELEMENTS_SLOT, cid(9)));
        assert_eq!(list.monomorphic_class(cid(4), 0, ELEMENTS_SLOT), Some(cid(9)));
        list.profile_store(&req(4, 0, ELEMENTS_SLOT, ClassId::SMI));
        assert_eq!(list.monomorphic_class(cid(4), 0, ELEMENTS_SLOT), None);
    }

    #[test]
    fn iter_and_render() {
        let mut list = ClassList::new();
        list.profile_store(&req(1, 0, 1, cid(2)));
        list.profile_store(&req(1, 1, 1, ClassId::SMI));
        assert_eq!(list.iter().count(), 2);
        assert_eq!(list.materialized_entries(), 2);
        let table = list.render_table(|c| format!("{c}"));
        assert!(table.contains("C1#1, 1"));
        assert!(table.contains("C1#1, 2"));
    }
}
