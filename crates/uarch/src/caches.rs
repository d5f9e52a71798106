//! Set-associative cache and TLB models with LRU replacement.
//!
//! Both structures are laid out for cheap probes from the timing walk in
//! [`crate::core`]: the cache keeps all its lines in one flat array
//! (16 bytes per way, no per-set `Vec` indirection), and the TLB pairs its
//! entry arrays with an open-addressing page→slot index so steady-state
//! hits cost one hash probe instead of a linear scan of every entry — at
//! 256 data-TLB entries the scan was the single hottest loop in the
//! timing model.
//!
//! Replacement semantics are pinned by in-module differential tests
//! against the original two-pass (`find` + `min_by_key`) implementations,
//! tie-breaking included.

use crate::config::CacheGeometry;

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Hits.
    pub hits: u64,
    /// Misses.
    pub misses: u64,
}

impl CacheStats {
    /// Hit rate in 0..=1 (1 when never accessed).
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            1.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    /// LRU stamp; `0` means the way was never filled. Ticks start at 1
    /// and every fill stamps the current tick, so the encoding is exact —
    /// no separate `valid` flag (the old layout spent 8 padded bytes on
    /// one bool, pushing a set past a cache line).
    lru: u64,
}

const INVALID: Line = Line { tag: 0, lru: 0 };

/// A set-associative cache keyed by line address.
#[derive(Debug)]
pub struct Cache {
    /// All ways of all sets, flat: set `s` owns `lines[s*ways..(s+1)*ways]`.
    lines: Vec<Line>,
    ways: usize,
    line_shift: u32,
    set_mask: u64,
    /// `log2(sets)`, hoisted at construction: the hot `access` path used
    /// to recompute it via `set_mask.count_ones()` on every probe.
    tag_shift: u32,
    tick: u64,
    stats: CacheStats,
}

impl Cache {
    /// Build from a geometry.
    ///
    /// # Panics
    ///
    /// Panics when sizes are not powers of two.
    pub fn new(geom: CacheGeometry) -> Cache {
        let sets = geom.sets();
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(geom.line.is_power_of_two());
        assert!(geom.ways >= 1, "cache needs at least one way");
        Cache {
            lines: vec![INVALID; sets * geom.ways],
            ways: geom.ways,
            line_shift: geom.line.trailing_zeros(),
            set_mask: (sets - 1) as u64,
            tag_shift: sets.trailing_zeros(),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Access `addr`; returns whether it hit. Misses allocate.
    ///
    /// One pass over the set does both the tag probe and the victim
    /// election. Fills never invalidate, so the valid lines always form a
    /// prefix of the set: the first never-filled way (LRU stamp 0) both
    /// terminates the probe early (no later way can hold the tag) and is
    /// the preferred victim, exactly as the original
    /// `min_by_key(|l| if l.valid { l.lru } else { 0 })` elected it.
    /// `tick` is bumped per access so LRU stamps are unique; tracking the
    /// first strict minimum therefore reproduces `min_by_key`'s
    /// first-tie-wins semantics bit for bit.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        self.tick += 1;
        self.stats.accesses += 1;
        let line_addr = addr >> self.line_shift;
        let set = (line_addr & self.set_mask) as usize;
        let tag = line_addr >> self.tag_shift;
        let base = set * self.ways;
        let ways = &mut self.lines[base..base + self.ways];
        let mut victim = 0usize;
        let mut best = u64::MAX;
        let mut i = 0;
        while i < ways.len() {
            let l = ways[i];
            if l.lru == 0 {
                victim = i;
                break;
            }
            if l.tag == tag {
                ways[i].lru = self.tick;
                self.stats.hits += 1;
                return true;
            }
            if l.lru < best {
                best = l.lru;
                victim = i;
            }
            i += 1;
        }
        self.stats.misses += 1;
        ways[victim] = Line { tag, lru: self.tick };
        false
    }

    /// Statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Reset statistics, keeping contents (steady-state boundary).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }
}

/// Empty sentinel for the TLB's page→slot hash table.
const EMPTY_SLOT: u32 = u32::MAX;

/// A fully-associative TLB with LRU replacement (4 KiB pages).
///
/// Entry state is structure-of-arrays (`pages` parallel to `lru`), plus an
/// open-addressing hash index mapping resident pages to their slot. Hits —
/// the overwhelmingly common case — cost one multiplicative-hash probe and
/// one stamp write; only misses pay the full LRU victim scan, whose
/// slot-order first-strict-minimum election is unchanged from the linear
/// implementation.
#[derive(Debug)]
pub struct Tlb {
    /// Resident pages, in fill order (slot index is stable until evicted).
    pages: Vec<u64>,
    /// LRU stamp per slot, parallel to `pages`.
    lru: Vec<u64>,
    /// Open-addressing index: `map_keys[i]` is meaningful only when
    /// `map_slots[i] != EMPTY_SLOT`. Sized to keep load factor ≤ 25%.
    map_keys: Vec<u64>,
    map_slots: Vec<u32>,
    capacity: usize,
    tick: u64,
    stats: CacheStats,
}

impl Tlb {
    /// A TLB with `entries` slots.
    pub fn new(entries: usize) -> Tlb {
        let table = (entries * 4).next_power_of_two().max(8);
        Tlb {
            pages: Vec::with_capacity(entries),
            lru: Vec::with_capacity(entries),
            map_keys: vec![0; table],
            map_slots: vec![EMPTY_SLOT; table],
            capacity: entries,
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    #[inline]
    fn hash(page: u64) -> usize {
        // Fibonacci multiplicative hash; the table mask selects from the
        // well-mixed upper half of the product.
        (page.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize
    }

    #[inline]
    fn map_find(&self, page: u64) -> Option<u32> {
        let mask = self.map_keys.len() - 1;
        let mut p = Self::hash(page) & mask;
        loop {
            let s = self.map_slots[p];
            if s == EMPTY_SLOT {
                return None;
            }
            if self.map_keys[p] == page {
                return Some(s);
            }
            p = (p + 1) & mask;
        }
    }

    fn map_insert(&mut self, page: u64, slot: u32) {
        let mask = self.map_keys.len() - 1;
        let mut p = Self::hash(page) & mask;
        while self.map_slots[p] != EMPTY_SLOT {
            p = (p + 1) & mask;
        }
        self.map_keys[p] = page;
        self.map_slots[p] = slot;
    }

    /// Remove `page` from the index with backshift deletion: entries after
    /// the hole slide up iff the hole does not precede their home bucket
    /// (cyclically), so linear-probe chains stay unbroken without
    /// tombstones.
    fn map_remove(&mut self, page: u64) {
        let mask = self.map_keys.len() - 1;
        let mut p = Self::hash(page) & mask;
        while !(self.map_slots[p] != EMPTY_SLOT && self.map_keys[p] == page) {
            debug_assert!(self.map_slots[p] != EMPTY_SLOT, "removing absent page");
            p = (p + 1) & mask;
        }
        let mut q = (p + 1) & mask;
        while self.map_slots[q] != EMPTY_SLOT {
            let home = Self::hash(self.map_keys[q]) & mask;
            if (q.wrapping_sub(home) & mask) >= (q.wrapping_sub(p) & mask) {
                self.map_keys[p] = self.map_keys[q];
                self.map_slots[p] = self.map_slots[q];
                p = q;
            }
            q = (q + 1) & mask;
        }
        self.map_slots[p] = EMPTY_SLOT;
    }

    /// Translate the page of `addr`; returns whether it hit.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        self.tick += 1;
        self.stats.accesses += 1;
        let page = addr >> 12;
        if let Some(slot) = self.map_find(page) {
            self.lru[slot as usize] = self.tick;
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        if self.pages.len() < self.capacity {
            let slot = self.pages.len() as u32;
            self.pages.push(page);
            self.lru.push(self.tick);
            self.map_insert(page, slot);
        } else {
            // First strict minimum in slot order — the same victim the
            // old interleaved scan elected.
            let mut victim = 0usize;
            let mut best = u64::MAX;
            for (i, &stamp) in self.lru.iter().enumerate() {
                if stamp < best {
                    best = stamp;
                    victim = i;
                }
            }
            self.map_remove(self.pages[victim]);
            self.pages[victim] = page;
            self.lru[victim] = self.tick;
            self.map_insert(page, victim as u32);
        }
        false
    }

    /// Statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Reset statistics, keeping contents.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Check that the hash index and the entry arrays agree (test aid).
    #[cfg(test)]
    fn check_index(&self) {
        assert_eq!(self.pages.len(), self.lru.len());
        let occupied = self.map_slots.iter().filter(|&&s| s != EMPTY_SLOT).count();
        assert_eq!(occupied, self.pages.len(), "index occupancy mismatch");
        for (slot, &page) in self.pages.iter().enumerate() {
            assert_eq!(
                self.map_find(page),
                Some(slot as u32),
                "page {page:#x} not indexed at slot {slot}"
            );
        }
    }
}

/// A 2-bit-counter branch predictor indexed by PC.
#[derive(Debug)]
pub struct BranchPredictor {
    table: Vec<u8>,
    /// Predictions made.
    pub lookups: u64,
    /// Mispredictions.
    pub mispredicts: u64,
}

impl Default for BranchPredictor {
    fn default() -> Self {
        Self::new()
    }
}

impl BranchPredictor {
    /// A 4096-entry predictor.
    pub fn new() -> BranchPredictor {
        BranchPredictor { table: vec![1; 4096], lookups: 0, mispredicts: 0 }
    }

    /// Predict and train on one branch; returns whether it mispredicted.
    #[inline]
    pub fn access(&mut self, pc: u64, taken: bool) -> bool {
        self.lookups += 1;
        let ix = ((pc >> 2) & 0xFFF) as usize;
        let counter = self.table[ix];
        let predicted_taken = counter >= 2;
        if taken {
            self.table[ix] = (counter + 1).min(3);
        } else {
            self.table[ix] = counter.saturating_sub(1);
        }
        let miss = predicted_taken != taken;
        if miss {
            self.mispredicts += 1;
        }
        miss
    }

    /// Reset statistics (training state is kept).
    pub fn reset_stats(&mut self) {
        self.lookups = 0;
        self.mispredicts = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> Cache {
        Cache::new(CacheGeometry { size: 4 * 64 * 2, ways: 2, line: 64 })
    }

    #[test]
    fn cache_hits_after_fill() {
        let mut c = small_cache();
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x1038), "same line");
        assert!(!c.access(0x1040), "next line misses");
        assert_eq!(c.stats().accesses, 4);
        assert_eq!(c.stats().hits, 2);
    }

    #[test]
    fn cache_lru_within_set() {
        let mut c = small_cache(); // 4 sets, 2 ways
        // Three conflicting lines (same set): set index bits are line_addr & 3.
        let a = 0x0000; // line 0, set 0
        let b = 0x0400; // line 16, set 0
        let d = 0x0800; // line 32, set 0
        c.access(a);
        c.access(b);
        c.access(a); // a more recent
        c.access(d); // evicts b
        assert!(c.access(a), "a survived");
        assert!(!c.access(b), "b was evicted");
    }

    #[test]
    fn tlb_tracks_pages() {
        let mut t = Tlb::new(2);
        assert!(!t.access(0x1000));
        assert!(t.access(0x1FFF), "same 4K page");
        assert!(!t.access(0x2000));
        assert!(!t.access(0x5000)); // evicts LRU (page 1)
        assert!(!t.access(0x1000), "page 1 was evicted");
        assert!(t.stats().misses >= 4);
    }

    #[test]
    fn predictor_learns_biased_branches() {
        let mut p = BranchPredictor::new();
        let mut misses = 0;
        for _ in 0..100 {
            if p.access(0x400, true) {
                misses += 1;
            }
        }
        assert!(misses <= 2, "biased-taken branch learned, {misses} misses");
        // Alternating branch mispredicts a lot.
        let mut misses = 0;
        for i in 0..100 {
            if p.access(0x800, i % 2 == 0) {
                misses += 1;
            }
        }
        assert!(misses >= 30);
    }

    #[test]
    fn stats_reset_keeps_contents() {
        let mut c = small_cache();
        c.access(0x1000);
        c.reset_stats();
        assert_eq!(c.stats().accesses, 0);
        assert!(c.access(0x1000), "contents survive the reset");
    }

    #[derive(Clone, Copy)]
    struct RefLine {
        tag: u64,
        lru: u64,
        valid: bool,
    }

    /// Naive reference for the fused probe/victim scan: the pre-
    /// optimization two-pass implementation (`find` + `min_by_key`, with
    /// an explicit `valid` flag and nested per-set `Vec`s), kept verbatim
    /// so the flat single-pass rewrite is checked against the exact
    /// original semantics, tie-breaking included.
    struct RefCache {
        sets: Vec<Vec<RefLine>>,
        line_shift: u32,
        set_mask: u64,
        tick: u64,
    }

    impl RefCache {
        fn new(geom: CacheGeometry) -> RefCache {
            let sets = geom.sets();
            RefCache {
                sets: vec![vec![RefLine { tag: 0, lru: 0, valid: false }; geom.ways]; sets],
                line_shift: geom.line.trailing_zeros(),
                set_mask: (sets - 1) as u64,
                tick: 0,
            }
        }

        fn access(&mut self, addr: u64) -> bool {
            self.tick += 1;
            let line_addr = addr >> self.line_shift;
            let set = (line_addr & self.set_mask) as usize;
            let tag = line_addr >> self.set_mask.count_ones();
            let ways = &mut self.sets[set];
            if let Some(l) = ways.iter_mut().find(|l| l.valid && l.tag == tag) {
                l.lru = self.tick;
                return true;
            }
            let victim = ways
                .iter_mut()
                .min_by_key(|l| if l.valid { l.lru } else { 0 })
                .expect("at least one way");
            victim.tag = tag;
            victim.lru = self.tick;
            victim.valid = true;
            false
        }
    }

    /// Naive reference TLB (two-pass `find` + `min_by_key` over one flat
    /// entry vector — the pre-index implementation).
    struct RefTlb {
        entries: Vec<(u64, u64)>,
        capacity: usize,
        tick: u64,
    }

    impl RefTlb {
        fn access(&mut self, addr: u64) -> bool {
            self.tick += 1;
            let page = addr >> 12;
            if let Some(e) = self.entries.iter_mut().find(|(p, _)| *p == page) {
                e.1 = self.tick;
                return true;
            }
            if self.entries.len() < self.capacity {
                self.entries.push((page, self.tick));
            } else {
                let victim =
                    self.entries.iter_mut().min_by_key(|(_, lru)| *lru).expect("nonempty");
                *victim = (page, self.tick);
            }
            false
        }
    }

    /// Tiny deterministic xorshift for the differential streams.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn fused_scan_matches_naive_reference_on_random_streams() {
        // Several geometries, including ways=1 (no scan) and a set count
        // small enough that evictions are constant.
        for (size, ways, line) in
            [(2 * 64, 1, 64), (4 * 64 * 2, 2, 64), (8 * 64 * 4, 4, 64), (16 * 64 * 8, 8, 64)]
        {
            let geom = CacheGeometry { size, ways, line };
            let mut opt = Cache::new(geom);
            let mut naive = RefCache::new(geom);
            let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ (size as u64);
            for i in 0..20_000u64 {
                // Mix of tight reuse (hits), conflict misses, and cold
                // misses; occasionally revisit a recent address.
                let r = xorshift(&mut state);
                let addr = match r % 4 {
                    0 => (r >> 8) % 0x2000,          // small working set
                    1 => ((r >> 8) % 64) * 0x1000,   // same-set conflicts
                    2 => (r >> 8) % 0x100_0000,      // wide
                    _ => (i.wrapping_mul(0x40)) % 0x4000, // streaming
                };
                assert_eq!(
                    opt.access(addr),
                    naive.access(addr),
                    "divergence at access {i} (addr {addr:#x}, geom {size}/{ways})"
                );
            }
            assert_eq!(opt.stats().accesses, 20_000);
            assert!(opt.stats().hits > 0 && opt.stats().misses > 0, "stream must mix");
        }
    }

    #[test]
    fn tlb_fused_scan_matches_naive_reference() {
        for cap in [1usize, 2, 16, 64] {
            let mut opt = Tlb::new(cap);
            let mut naive = RefTlb { entries: Vec::with_capacity(cap), capacity: cap, tick: 0 };
            let mut state = 0xDEAD_BEEF_CAFE_F00Du64 ^ (cap as u64);
            for i in 0..20_000u64 {
                let r = xorshift(&mut state);
                let addr = match r % 3 {
                    0 => (r >> 8) % (4 * 0x1000 * cap as u64 + 1),
                    1 => (r >> 8) % 0x1_0000_0000,
                    _ => (i * 0x800) % (0x1000 * 3 * cap as u64 + 1),
                };
                assert_eq!(
                    opt.access(addr),
                    naive.access(addr),
                    "divergence at access {i} (addr {addr:#x}, cap {cap})"
                );
            }
            assert_eq!(opt.stats().accesses, 20_000);
        }
    }

    #[test]
    fn tlb_index_survives_heavy_eviction_churn() {
        // Small capacities force constant evictions, exercising the
        // backshift deletion path; the index must stay consistent with
        // the entry arrays throughout.
        for cap in [1usize, 3, 7, 64, 256] {
            let mut t = Tlb::new(cap);
            let mut naive = RefTlb { entries: Vec::with_capacity(cap), capacity: cap, tick: 0 };
            let mut state = 0x1234_5678_9ABC_DEF0u64 ^ (cap as u64);
            for i in 0..30_000u64 {
                let r = xorshift(&mut state);
                // Cluster pages so probe chains form: pages share high
                // bits and differ only in a few low bits.
                let addr = match r % 4 {
                    0 => ((r >> 8) % (2 * cap as u64 + 1)) << 12,
                    1 => (0x4000_0000 + ((r >> 8) % 16) * 0x1000) << 4,
                    2 => (r >> 8) % 0x10_0000_0000,
                    _ => (i % (cap as u64 + 2)) << 12,
                };
                assert_eq!(t.access(addr), naive.access(addr), "cap {cap} access {i}");
                if i % 4096 == 0 {
                    t.check_index();
                }
            }
            t.check_index();
            assert!(t.pages.len() <= cap);
        }
    }
}
