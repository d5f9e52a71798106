//! Property-based tests for the object model.

use checkelide_isa::layout::HEAP_BASE;
use checkelide_runtime::{numops, ElemKind, Heap, MapTable, Runtime, Value};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// One call on [`Heap`]: allocate `words` (line-aligned or not), free the
/// live allocation picked by an index, or collect with the live
/// allocations picked by a bit mask as roots.
#[derive(Debug, Clone)]
enum HeapOp {
    Alloc(usize, bool),
    Free(usize),
    Collect(u64),
}

fn arb_heap_op() -> impl Strategy<Value = HeapOp> {
    // Mostly object-sized allocations, some larger than the initial 1 MiB
    // arena (so it grows), frees, and a rare collection.
    (0u8..32, 1usize..48, 1usize..200_000, any::<bool>(), any::<usize>()).prop_map(
        |(sel, small, big, align, pick)| match sel {
            0 => HeapOp::Collect(pick as u64),
            1 => HeapOp::Alloc(big, align),
            2..=11 => HeapOp::Free(pick),
            _ => HeapOp::Alloc(small, align),
        },
    )
}

/// Reference first-fit placement over a `BTreeMap` of free runs, as the
/// heap defines it: 16-byte blocks, line alignment to 4 blocks, runs
/// coalesced on free, and an arena that grows at its end by the larger of
/// the request plus a line, half its size and the initial 65,536 blocks.
struct FirstFit {
    blocks: u32,
    free_runs: BTreeMap<u32, u32>,
    live: BTreeMap<u32, u32>,
    allocations: u64,
    words_allocated: u64,
    collections: u64,
    words_freed: u64,
}

impl FirstFit {
    const INITIAL_BLOCKS: u32 = 65536;

    fn new() -> FirstFit {
        FirstFit {
            blocks: Self::INITIAL_BLOCKS,
            free_runs: BTreeMap::from([(0, Self::INITIAL_BLOCKS)]),
            live: BTreeMap::new(),
            allocations: 0,
            words_allocated: 0,
            collections: 0,
            words_freed: 0,
        }
    }

    fn insert_free(&mut self, mut start: u32, mut len: u32) {
        if let Some((&pstart, &plen)) = self.free_runs.range(..start).next_back() {
            if pstart + plen == start {
                self.free_runs.remove(&pstart);
                start = pstart;
                len += plen;
            }
        }
        if let Some(slen) = self.free_runs.remove(&(start + len)) {
            len += slen;
        }
        self.free_runs.insert(start, len);
    }

    fn alloc(&mut self, nwords: usize, align_line: bool) -> u64 {
        let blocks = nwords.div_ceil(2) as u32;
        loop {
            let found = self.free_runs.iter().find_map(|(&start, &len)| {
                let astart = if align_line { start.next_multiple_of(4) } else { start };
                (astart + blocks <= start + len).then_some((start, len, astart))
            });
            let Some((start, len, astart)) = found else {
                let add = (blocks + 4).max(self.blocks / 2).max(Self::INITIAL_BLOCKS);
                self.insert_free(self.blocks, add);
                self.blocks += add;
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
            self.live.insert(astart, blocks);
            self.allocations += 1;
            self.words_allocated += nwords as u64;
            return HEAP_BASE + u64::from(astart) * 16;
        }
    }

    fn free(&mut self, addr: u64) {
        let b = ((addr - HEAP_BASE) / 16) as u32;
        let len = self.live.remove(&b).expect("live allocation");
        self.insert_free(b, len);
    }

    /// Collect with `roots` as the only reachable allocations (the test's
    /// allocations hold no pointers).
    fn collect(&mut self, roots: &[u64]) {
        self.collections += 1;
        let keep: Vec<u32> = roots.iter().map(|&a| ((a - HEAP_BASE) / 16) as u32).collect();
        for (b, len) in std::mem::take(&mut self.live) {
            if keep.contains(&b) {
                self.live.insert(b, len);
            } else {
                self.words_freed += u64::from(len) * 2;
                self.insert_free(b, len);
            }
        }
    }

    fn live_words(&self) -> u64 {
        let free: u64 = self.free_runs.values().map(|&l| u64::from(l) * 2).sum();
        u64::from(self.blocks) * 2 - free
    }
}

proptest! {
    /// Heap placement is pinned: for any sequence of allocations (line
    /// aligned or not, growing the arena), frees and collections, every
    /// address, the statistics and the live-word count equal a reference
    /// first-fit model of the same calls. Allocations are zeroed, so each
    /// reads as a pointer-free leaf and a collection keeps exactly its
    /// roots.
    #[test]
    fn heap_placement_equals_first_fit_model(
        ops in proptest::collection::vec(arb_heap_op(), 1..300),
    ) {
        let maps = MapTable::new();
        let mut heap = Heap::new();
        let mut model = FirstFit::new();
        let mut live: Vec<u64> = Vec::new();
        for op in &ops {
            match *op {
                HeapOp::Alloc(words, align) => {
                    let addr = heap.alloc(words, align);
                    prop_assert_eq!(addr, model.alloc(words, align));
                    prop_assert_eq!(heap.alloc_words(addr), words.next_multiple_of(2));
                    live.push(addr);
                }
                HeapOp::Free(pick) => {
                    if !live.is_empty() {
                        let addr = live.swap_remove(pick % live.len());
                        heap.free(addr);
                        model.free(addr);
                    }
                }
                HeapOp::Collect(mask) => {
                    live = live
                        .iter()
                        .enumerate()
                        .filter(|&(i, _)| mask >> (i % 64) & 1 == 1)
                        .map(|(_, &a)| a)
                        .collect();
                    let roots: Vec<Value> = live.iter().map(|&a| Value::ptr(a)).collect();
                    let before = model.words_freed;
                    model.collect(&live);
                    prop_assert_eq!(heap.collect(&maps, &roots), model.words_freed - before);
                }
            }
            prop_assert_eq!(heap.live_words(), model.live_words());
        }
        let stats = heap.stats();
        prop_assert_eq!(
            (stats.allocations, stats.words_allocated, stats.collections, stats.words_freed),
            (model.allocations, model.words_allocated, model.collections, model.words_freed)
        );
        prop_assert_eq!(stats.relocations, 0);
    }

    /// SMI tagging round-trips for every i32, with the paper's layout
    /// (payload in the high 32 bits, tag bit 0 clear).
    #[test]
    fn smi_roundtrip(v in any::<i32>()) {
        let tagged = Value::smi(v);
        prop_assert!(tagged.is_smi());
        prop_assert_eq!(tagged.as_smi(), v);
        prop_assert_eq!(tagged.raw() & 1, 0);
        prop_assert_eq!((tagged.raw() >> 32) as u32 as i32, v);
    }

    /// Number boxing round-trips every finite double, choosing SMI exactly
    /// for i32-representable non-negative-zero values.
    #[test]
    fn number_boxing_roundtrip(f in any::<f64>()) {
        let mut rt = Runtime::new();
        let v = rt.make_number(f);
        let back = rt.to_f64(v);
        if f.is_nan() {
            prop_assert!(back.is_nan());
        } else {
            prop_assert_eq!(back, f);
            prop_assert_eq!(v.is_smi(), Value::f64_fits_smi(f));
        }
    }

    /// Hidden-class confluence: the same property-insertion order yields
    /// the same map; any difference in order yields a different map.
    #[test]
    fn hidden_class_transitions_deterministic(
        names in proptest::collection::vec("[a-f]", 1..6),
    ) {
        let mut rt = Runtime::new();
        let root = rt.maps.new_constructor_root("T");
        let build = |rt: &mut Runtime| {
            let mut obj = rt.alloc_object(root, 4);
            for n in &names {
                let id = rt.names.intern(n);
                if rt.maps.get(rt.object_map(obj)).offset_of(id).is_some() {
                    continue;
                }
                let add = rt.add_property(obj, id);
                if let Some((_, new)) = add.relocated {
                    obj = Value::ptr(new);
                }
                rt.store_slot(obj, add.offset, Value::smi(1));
            }
            rt.object_map(obj)
        };
        let m1 = build(&mut rt);
        let m2 = build(&mut rt);
        prop_assert_eq!(m1, m2, "same insertion order must share the hidden class");
    }

    /// Element stores/loads round-trip across kind transitions.
    #[test]
    fn elements_roundtrip(values in proptest::collection::vec(
        prop_oneof![
            any::<i32>().prop_map(|v| (0u8, v as f64)),
            any::<i16>().prop_map(|v| (1u8, v as f64 / 8.0)),
            (0u8..26).prop_map(|c| (2u8, c as f64)),
        ],
        1..40,
    )) {
        let mut rt = Runtime::new();
        let arr = rt.alloc_object(checkelide_runtime::maps::fixed::ARRAY_ROOT, 1);
        let mut expect: Vec<(u8, f64, Option<String>)> = Vec::new();
        for (i, &(kind, num)) in values.iter().enumerate() {
            match kind {
                0 => {
                    let v = Value::smi(num as i32);
                    rt.store_element(arr, i as i64, v);
                    expect.push((0, num as i32 as f64, None));
                }
                1 => {
                    let v = rt.make_number(num);
                    rt.store_element(arr, i as i64, v);
                    expect.push((1, num, None));
                }
                _ => {
                    let s = format!("s{}", num as u8 as char);
                    let v = rt.string_value(&s);
                    rt.store_element(arr, i as i64, v);
                    expect.push((2, 0.0, Some(s)));
                }
            }
        }
        prop_assert_eq!(rt.elements_length(arr), values.len() as u64);
        for (i, (kind, num, s)) in expect.iter().enumerate() {
            let got = rt.load_element(arr, i as i64).value;
            match kind {
                0 | 1 => prop_assert_eq!(rt.to_f64(got), *num),
                _ => prop_assert_eq!(rt.to_display_string(got), s.clone().unwrap()),
            }
        }
    }

    /// GC never corrupts a reachable object graph.
    #[test]
    fn gc_preserves_reachable_graph(seed in any::<u64>(), churn in 1usize..60) {
        let mut rt = Runtime::new();
        let root_map = rt.maps.new_constructor_root("N");
        let name_v = rt.names.intern("v");
        let name_next = rt.names.intern("next");

        // Build a linked list with deterministic values.
        let mut rng = seed;
        let mut next_rand = || {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (rng >> 33) as i32
        };
        let n = 10;
        let mut head = rt.odd.null;
        let mut expected = Vec::new();
        for _ in 0..n {
            let val = next_rand() & 0xffff;
            expected.push(val);
            let node = rt.alloc_object(root_map, 1);
            let a = rt.add_property(node, name_v);
            rt.store_slot(node, a.offset, Value::smi(val));
            let a = rt.add_property(node, name_next);
            rt.store_slot(node, a.offset, head);
            head = node;
        }
        expected.reverse();

        // Allocate garbage and collect repeatedly.
        for _ in 0..churn {
            let _ = rt.alloc_object(root_map, 2);
        }
        rt.collect(&[head]);
        for _ in 0..churn {
            let _ = rt.alloc_object(root_map, 1);
        }
        rt.collect(&[head]);

        // Walk the list and compare.
        let map = rt.object_map(head);
        let off_v = rt.maps.get(map).offset_of(name_v).unwrap();
        let off_next = rt.maps.get(map).offset_of(name_next).unwrap();
        // Walking from the head visits nodes in reverse insertion order,
        // matching the reversed `expected`.
        let mut cur = head;
        let mut got = Vec::new();
        for _ in 0..n {
            got.push(rt.load_slot(cur, off_v).as_smi());
            cur = rt.load_slot(cur, off_next);
        }
        prop_assert_eq!(got, expected);
    }

    /// Arithmetic agrees with f64 semantics on the numeric domain.
    #[test]
    fn numeric_ops_match_f64(a in -1e9f64..1e9, b in -1e9f64..1e9) {
        let mut rt = Runtime::new();
        let va = rt.make_number(a);
        let vb = rt.make_number(b);
        let (sum, _) = numops::add(&mut rt, va, vb);
        prop_assert_eq!(rt.to_f64(sum), a + b);
        let (prod, _) = numops::mul(&mut rt, va, vb);
        prop_assert_eq!(rt.to_f64(prod), a * b);
        let (quot, _) = numops::div(&mut rt, va, vb);
        prop_assert_eq!(rt.to_f64(quot), a / b);
        let (lt, _) = numops::compare(&rt, numops::CmpOp::Lt, va, vb);
        prop_assert_eq!(lt, a < b);
    }

    /// `ToInt32` matches the ECMAScript definition.
    #[test]
    fn to_int32_spec(f in -1e18f64..1e18) {
        let mut rt = Runtime::new();
        let v = rt.make_number(f);
        let got = numops::to_int32(&rt, v);
        let expected = (f.trunc() as i64 as u64) as u32 as i32;
        prop_assert_eq!(got, expected);
    }

    /// Elements-kind joins are commutative, associative and idempotent.
    #[test]
    fn elem_kind_lattice(a in 0u8..3, b in 0u8..3, c in 0u8..3) {
        let k = |x: u8| match x {
            0 => ElemKind::Smi,
            1 => ElemKind::Double,
            _ => ElemKind::Tagged,
        };
        let (a, b, c) = (k(a), k(b), k(c));
        prop_assert_eq!(ElemKind::join(a, b), ElemKind::join(b, a));
        prop_assert_eq!(
            ElemKind::join(a, ElemKind::join(b, c)),
            ElemKind::join(ElemKind::join(a, b), c)
        );
        prop_assert_eq!(ElemKind::join(a, a), a);
        prop_assert!(ElemKind::join(a, b).generalizes(a));
    }
}
