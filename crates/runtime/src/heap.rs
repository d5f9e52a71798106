//! The simulated heap: a block allocator with mark-sweep collection.
//!
//! The heap is an arena of 16-byte blocks holding 8-byte words, addressed
//! from [`checkelide_isa::layout::HEAP_BASE`]. Ordinary objects are
//! allocated **aligned to 64-byte cache lines**, as the mechanism requires
//! (§4.2.1.3); backing stores, boxed numbers and strings use plain 16-byte
//! granularity.
//!
//! The collector is a non-moving mark-sweep over explicit roots. Objects
//! *can* be relocated explicitly (when a property addition outgrows the
//! allocation) via [`Heap::alloc`] + [`Heap::fix_pointer`], which performs
//! a heap-wide pointer fixup — rare, because allocation sites learn final
//! object sizes (V8-style slack tracking in the engine).

use crate::maps::{header_map, MapKind, MapTable};
use crate::value::Value;
use checkelide_isa::layout::HEAP_BASE;
use std::collections::BTreeMap;

/// Words per allocation block (16 bytes).
const BLOCK_WORDS: usize = 2;
/// Blocks per 64-byte cache line.
const BLOCKS_PER_LINE: usize = 4;
/// Initial arena size in blocks (1 MiB).
const INITIAL_BLOCKS: usize = 65536;

/// Allocation and collection statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct HeapStats {
    /// Total allocations.
    pub allocations: u64,
    /// Total words allocated.
    pub words_allocated: u64,
    /// Mark-sweep collections run.
    pub collections: u64,
    /// Words reclaimed by collections.
    pub words_freed: u64,
    /// Explicit object relocations (growth beyond allocated lines).
    pub relocations: u64,
}

/// The heap.
#[derive(Debug)]
pub struct Heap {
    words: Vec<u64>,
    /// Per-block: allocation length in blocks at the first block of a
    /// live allocation, 0 at every other block (allocations are never
    /// empty, so 0 is never a real length).
    size_blocks: Vec<u32>,
    /// Free runs: start block → length in blocks (coalesced).
    free_runs: BTreeMap<u32, u32>,
    /// Words allocated since the last collection (GC trigger input).
    words_since_gc: u64,
    stats: HeapStats,
}

impl Default for Heap {
    fn default() -> Self {
        Self::new()
    }
}

impl Heap {
    /// A fresh heap.
    pub fn new() -> Heap {
        let mut h = Heap {
            words: vec![0; INITIAL_BLOCKS * BLOCK_WORDS],
            size_blocks: vec![0; INITIAL_BLOCKS],
            free_runs: BTreeMap::new(),
            words_since_gc: 0,
            stats: HeapStats::default(),
        };
        h.free_runs.insert(0, INITIAL_BLOCKS as u32);
        h
    }

    #[inline]
    fn word_index(&self, addr: u64) -> usize {
        debug_assert!(addr >= HEAP_BASE, "address below heap base: {addr:#x}");
        debug_assert_eq!(addr & 7, 0, "unaligned word address");
        ((addr - HEAP_BASE) / 8) as usize
    }

    /// Read the 8-byte word at `addr`.
    #[inline]
    pub fn read(&self, addr: u64) -> u64 {
        self.words[self.word_index(addr)]
    }

    /// Write the 8-byte word at `addr`.
    #[inline]
    pub fn write(&mut self, addr: u64, value: u64) {
        let ix = self.word_index(addr);
        self.words[ix] = value;
    }

    /// Read a tagged value.
    #[inline]
    pub fn read_value(&self, addr: u64) -> Value {
        Value::from_raw(self.read(addr))
    }

    /// Write a tagged value.
    #[inline]
    pub fn write_value(&mut self, addr: u64, v: Value) {
        self.write(addr, v.raw());
    }

    fn block_addr(block: u32) -> u64 {
        HEAP_BASE + block as u64 * (BLOCK_WORDS as u64 * 8)
    }

    fn addr_block(addr: u64) -> u32 {
        ((addr - HEAP_BASE) / (BLOCK_WORDS as u64 * 8)) as u32
    }

    /// Extend the arena by at least `min_blocks` (and by at least half its
    /// size). The tables are reserved exactly: the arena already grows
    /// geometrically, so `Vec`'s own doubling would only add slack.
    fn grow(&mut self, min_blocks: u32) {
        let old = self.size_blocks.len() as u32;
        let add = min_blocks.max(old / 2).max(INITIAL_BLOCKS as u32);
        self.words.reserve_exact(add as usize * BLOCK_WORDS);
        self.words.extend(std::iter::repeat_n(0, add as usize * BLOCK_WORDS));
        self.size_blocks.reserve_exact(add as usize);
        self.size_blocks.extend(std::iter::repeat_n(0, add as usize));
        self.insert_free(old, add);
    }

    fn insert_free(&mut self, start: u32, len: u32) {
        // Coalesce with predecessor and successor runs.
        let mut start = start;
        let mut len = len;
        if let Some((&pstart, &plen)) = self.free_runs.range(..start).next_back() {
            if pstart + plen == start {
                self.free_runs.remove(&pstart);
                start = pstart;
                len += plen;
            }
        }
        if let Some(&slen) = self.free_runs.get(&(start + len)) {
            self.free_runs.remove(&(start + len));
            len += slen;
        }
        self.free_runs.insert(start, len);
    }

    /// Allocate `nwords` words (zeroed), optionally 64-byte aligned.
    /// Returns the simulated byte address. Never fails (grows the arena).
    pub fn alloc(&mut self, nwords: usize, align_line: bool) -> u64 {
        assert!(nwords > 0, "zero-size allocation");
        let blocks = nwords.div_ceil(BLOCK_WORDS) as u32;
        loop {
            let mut found = None;
            for (&start, &len) in &self.free_runs {
                let astart = if align_line {
                    start.next_multiple_of(BLOCKS_PER_LINE as u32)
                } else {
                    start
                };
                if astart + blocks <= start + len {
                    found = Some((start, len, astart));
                    break;
                }
            }
            let Some((start, len, astart)) = found else {
                self.grow(blocks + BLOCKS_PER_LINE as u32);
                continue;
            };
            self.free_runs.remove(&start);
            if astart > start {
                self.free_runs.insert(start, astart - start);
            }
            let tail = (start + len) - (astart + blocks);
            if tail > 0 {
                self.insert_free(astart + blocks, tail);
            }
            self.size_blocks[astart as usize] = blocks;
            let addr = Self::block_addr(astart);
            // Zero the allocation.
            let wix = self.word_index(addr);
            for w in &mut self.words[wix..wix + blocks as usize * BLOCK_WORDS] {
                *w = 0;
            }
            self.stats.allocations += 1;
            self.stats.words_allocated += nwords as u64;
            self.words_since_gc += nwords as u64;
            return addr;
        }
    }

    /// Free the allocation starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not a live allocation start.
    pub fn free(&mut self, addr: u64) {
        let b = Self::addr_block(addr);
        let len = self.size_blocks[b as usize];
        assert!(len != 0, "free of non-allocation {addr:#x}");
        self.size_blocks[b as usize] = 0;
        self.insert_free(b, len);
    }

    /// Size in words of the allocation at `addr`.
    pub fn alloc_words(&self, addr: u64) -> usize {
        let b = Self::addr_block(addr) as usize;
        debug_assert!(self.size_blocks[b] != 0);
        self.size_blocks[b] as usize * BLOCK_WORDS
    }

    /// Words allocated since the last collection (GC trigger input).
    pub fn words_since_gc(&self) -> u64 {
        self.words_since_gc
    }

    /// Statistics.
    pub fn stats(&self) -> HeapStats {
        self.stats
    }

    /// Note an explicit relocation (for statistics).
    pub fn note_relocation(&mut self) {
        self.stats.relocations += 1;
    }

    /// Which word offsets of an allocation hold tagged values, given its
    /// map kind. Returns a filter closure semantics via direct enumeration
    /// in `for_each_tagged_slot`.
    fn for_each_tagged_slot(
        words: usize,
        kind: MapKind,
        heap_words: &[u64],
        base_ix: usize,
        mut f: impl FnMut(usize),
    ) {
        match kind {
            MapKind::Object => {
                for w in 0..words {
                    // Skip line headers (w % 8 == 0) and the raw elements
                    // length (word 3 of line 0).
                    if w % 8 == 0 || w == 3 {
                        continue;
                    }
                    f(w);
                }
            }
            MapKind::ElementsTagged | MapKind::ElementsSmi => {
                // [header, capacity, data...]
                let cap = heap_words[base_ix + 1] as usize;
                for w in 2..(2 + cap).min(words) {
                    f(w);
                }
            }
            // Raw payloads: doubles, string ids, function indices, oddballs.
            MapKind::ElementsDouble
            | MapKind::HeapNumber
            | MapKind::StringObj
            | MapKind::Function
            | MapKind::Oddball => {}
        }
    }

    /// Mark-sweep collection from the given roots. Returns words freed.
    pub fn collect(&mut self, maps: &MapTable, roots: &[Value]) -> u64 {
        self.stats.collections += 1;
        let nblocks = self.size_blocks.len();
        // Mark bitmap: bit `b % 64` of word `b / 64` is block `b`.
        let mut marked = vec![0u64; nblocks.div_ceil(64)];
        let mut stack: Vec<u64> = roots.iter().filter(|v| v.is_ptr()).map(|v| v.addr()).collect();
        while let Some(addr) = stack.pop() {
            let b = Self::addr_block(addr) as usize;
            debug_assert!(
                self.size_blocks[b] != 0,
                "marked pointer {addr:#x} is not an allocation start"
            );
            let bit = 1u64 << (b % 64);
            if marked[b / 64] & bit != 0 {
                continue;
            }
            marked[b / 64] |= bit;
            let words = self.size_blocks[b] as usize * BLOCK_WORDS;
            let base_ix = self.word_index(addr);
            let kind = maps.get(header_map(self.words[base_ix])).kind;
            let heap_words = &self.words;
            Self::for_each_tagged_slot(words, kind, heap_words, base_ix, |w| {
                let v = Value::from_raw(heap_words[base_ix + w]);
                if v.is_ptr() {
                    stack.push(v.addr());
                }
            });
        }
        // Sweep.
        let mut freed_words = 0u64;
        for b in 0..nblocks {
            let len = self.size_blocks[b];
            if len != 0 && marked[b / 64] & (1u64 << (b % 64)) == 0 {
                freed_words += len as u64 * BLOCK_WORDS as u64;
                self.size_blocks[b] = 0;
                self.insert_free(b as u32, len);
            }
        }
        self.stats.words_freed += freed_words;
        self.words_since_gc = 0;
        freed_words
    }

    /// Heap-wide pointer fixup: rewrite every tagged slot holding
    /// `Value::ptr(old)` to `Value::ptr(new)`. Used after relocating an
    /// object that outgrew its allocation. Roots must be fixed by the
    /// caller.
    pub fn fix_pointer(&mut self, maps: &MapTable, old: u64, new: u64) {
        let old_v = Value::ptr(old).raw();
        let new_v = Value::ptr(new).raw();
        for b in 0..self.size_blocks.len() {
            if self.size_blocks[b] == 0 {
                continue;
            }
            let addr = Self::block_addr(b as u32);
            let base_ix = self.word_index(addr);
            let words = self.size_blocks[b] as usize * BLOCK_WORDS;
            let kind = maps.get(header_map(self.words[base_ix])).kind;
            let mut to_fix: Vec<usize> = Vec::new();
            {
                let heap_words = &self.words;
                Self::for_each_tagged_slot(words, kind, heap_words, base_ix, |w| {
                    if heap_words[base_ix + w] == old_v {
                        to_fix.push(w);
                    }
                });
            }
            for w in to_fix {
                self.words[base_ix + w] = new_v;
            }
        }
    }

    /// Approximate live words (allocated minus freed); used for GC
    /// triggering heuristics in the engine.
    pub fn live_words(&self) -> u64 {
        let free: u64 = self.free_runs.values().map(|&l| l as u64 * BLOCK_WORDS as u64).sum();
        self.words.len() as u64 - free
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maps::{fixed, pack_header};

    #[test]
    fn alloc_is_zeroed_and_aligned() {
        let mut h = Heap::new();
        let a = h.alloc(8, true);
        assert_eq!(a % 64, 0, "object allocation must be cache-line aligned");
        for w in 0..8 {
            assert_eq!(h.read(a + w * 8), 0);
        }
        let b = h.alloc(2, false);
        assert_ne!(a, b);
        assert_eq!(b % 16, 0);
    }

    #[test]
    fn read_write_roundtrip() {
        let mut h = Heap::new();
        let a = h.alloc(4, false);
        h.write(a + 8, 0xdead_beef);
        assert_eq!(h.read(a + 8), 0xdead_beef);
        h.write_value(a + 16, Value::smi(7));
        assert_eq!(h.read_value(a + 16).as_smi(), 7);
    }

    #[test]
    fn free_and_reuse() {
        let mut h = Heap::new();
        let a = h.alloc(8, true);
        h.free(a);
        let b = h.alloc(8, true);
        assert_eq!(a, b, "freed line-aligned space is reused first-fit");
    }

    #[test]
    fn coalescing_merges_neighbors() {
        let mut h = Heap::new();
        let a = h.alloc(2, false);
        let b = h.alloc(2, false);
        let c = h.alloc(2, false);
        h.free(a);
        h.free(c);
        h.free(b); // middle free should merge all three
        // Allocating the combined size lands at the original start.
        let big = h.alloc(6, false);
        assert_eq!(big, a);
    }

    #[test]
    fn grows_when_exhausted() {
        let mut h = Heap::new();
        // Allocate more than the initial arena.
        let mut last = 0;
        for _ in 0..100 {
            last = h.alloc(4096, false);
        }
        assert!(h.read(last) == 0);
        assert!(h.stats().allocations == 100);
    }

    fn mk_object(h: &mut Heap, maps: &MapTable, nlines: usize) -> u64 {
        let a = h.alloc(nlines * 8, true);
        let m = fixed::OBJECT_LITERAL_ROOT;
        let cid = maps.get(m).class_id;
        for line in 0..nlines {
            h.write(a + (line * 64) as u64, pack_header(m, cid, line as u8));
        }
        a
    }

    #[test]
    fn collect_frees_unreachable_keeps_reachable() {
        let maps = MapTable::new();
        let mut h = Heap::new();
        let keep = mk_object(&mut h, &maps, 1);
        let drop1 = mk_object(&mut h, &maps, 1);
        let drop2 = mk_object(&mut h, &maps, 2);
        let roots = [Value::ptr(keep)];
        let freed = h.collect(&maps, &roots);
        assert_eq!(freed, (8 + 16) as u64, "two dead objects reclaimed");
        // keep is still intact.
        assert_eq!(header_map(h.read(keep)), fixed::OBJECT_LITERAL_ROOT);
        // Freed space is reusable.
        let again = h.alloc(8, true);
        assert!(again == drop1 || again == drop2);
    }

    #[test]
    fn collect_traverses_object_graph() {
        let maps = MapTable::new();
        let mut h = Heap::new();
        let parent = mk_object(&mut h, &maps, 1);
        let child = mk_object(&mut h, &maps, 1);
        // Store child into parent's slot 1 (a property word).
        h.write_value(parent + 8, Value::ptr(child));
        let freed = h.collect(&maps, &[Value::ptr(parent)]);
        assert_eq!(freed, 0);
        assert_eq!(header_map(h.read(child)), fixed::OBJECT_LITERAL_ROOT);
    }

    #[test]
    fn collect_skips_raw_words() {
        let maps = MapTable::new();
        let mut h = Heap::new();
        let obj = mk_object(&mut h, &maps, 1);
        // Word 3 is the raw elements length: write a value that would look
        // like a dangling pointer if scanned.
        h.write(obj + 24, 0xdead_beef_0001);
        // Must not panic (the debug_assert in collect would fire if
        // scanned).
        let _ = h.collect(&maps, &[Value::ptr(obj)]);
    }

    #[test]
    fn fix_pointer_rewrites_references() {
        let maps = MapTable::new();
        let mut h = Heap::new();
        let a = mk_object(&mut h, &maps, 1);
        let b = mk_object(&mut h, &maps, 1);
        let c = mk_object(&mut h, &maps, 2);
        h.write_value(a + 8, Value::ptr(b));
        h.write_value(c + 8 * 9, Value::ptr(b)); // line-1 slot of c
        h.fix_pointer(&maps, b, 0x2000_0040 + HEAP_BASE);
        assert_eq!(h.read_value(a + 8).addr(), 0x2000_0040 + HEAP_BASE);
        assert_eq!(h.read_value(c + 72).addr(), 0x2000_0040 + HEAP_BASE);
    }

    #[test]
    fn tagged_elements_are_scanned_by_capacity() {
        let maps = MapTable::new();
        let mut h = Heap::new();
        let obj = mk_object(&mut h, &maps, 1);
        // Tagged storage with capacity 2 holding obj.
        let st = h.alloc(4, false);
        h.write(st, pack_header(fixed::ELEMS_TAGGED, None, 0));
        h.write(st + 8, 2); // capacity
        h.write_value(st + 16, Value::ptr(obj));
        h.write_value(st + 24, Value::smi(5));
        let freed = h.collect(&maps, &[Value::ptr(st)]);
        assert_eq!(freed, 0, "object reachable through tagged elements");
    }

    #[test]
    fn double_elements_are_not_scanned() {
        let maps = MapTable::new();
        let mut h = Heap::new();
        let st = h.alloc(4, false);
        h.write(st, pack_header(fixed::ELEMS_DOUBLE, None, 0));
        h.write(st + 8, 2);
        // A double whose bit pattern looks like a pointer.
        h.write(st + 16, 0x4141_4141_4141_4141 | 1);
        let _ = h.collect(&maps, &[Value::ptr(st)]); // must not panic
    }

    #[test]
    fn words_since_gc_resets() {
        let maps = MapTable::new();
        let mut h = Heap::new();
        let _ = h.alloc(8, false);
        assert_eq!(h.words_since_gc(), 8);
        h.collect(&maps, &[]);
        assert_eq!(h.words_since_gc(), 0);
    }
}
