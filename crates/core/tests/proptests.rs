//! Property-based tests for the Class List / Class Cache mechanism.

use checkelide_core::loadstats::Fig3Row;
use checkelide_core::{
    ClassCache, ClassCacheConfig, ClassId, ClassList, FuncId, LoadAccessStats, StoreOutcome,
    StoreRequest, ELEMENTS_SLOT,
};
use proptest::prelude::*;
use std::collections::HashMap;

fn arb_class() -> impl Strategy<Value = ClassId> {
    prop_oneof![
        (0u8..32).prop_map(|c| ClassId::new(c).unwrap()),
        Just(ClassId::SMI),
    ]
}

fn arb_request() -> impl Strategy<Value = StoreRequest> {
    (arb_class(), 0u8..3, 1u8..8, arb_class()).prop_map(|(holder, line, pos, stored)| {
        StoreRequest { holder, line, pos, stored }
    })
}

/// One call on [`LoadAccessStats`].
#[derive(Debug, Clone)]
enum LoadOp {
    Property(ClassId, u8, u8),
    Elements(ClassId),
    Reset,
}

fn arb_load_op() -> impl Strategy<Value = LoadOp> {
    // Mostly the engine's range (`pos < 8`), some spill positions and any
    // line, elements loads, and a rare reset, so pages, the spill map and
    // page boundaries all see use.
    (0u8..32, arb_class(), any::<u8>(), any::<u8>()).prop_map(|(sel, c, l, p)| match sel {
        0 => LoadOp::Reset,
        1..=6 => LoadOp::Elements(c),
        7..=10 => LoadOp::Property(c, l, p),
        _ => LoadOp::Property(c, l % 3, p % 8),
    })
}

/// The Figure 3 row of the reference counts, computed the way the paper
/// defines it: each count's share of all object loads by its slot's
/// monomorphism.
fn reference_row(
    props: &HashMap<(ClassId, u8, u8), u64>,
    elems: &HashMap<ClassId, u64>,
    prop_mono: impl Fn(ClassId, u8, u8) -> bool,
    elem_mono: impl Fn(ClassId) -> bool,
) -> Fig3Row {
    let total: u64 = props.values().sum::<u64>() + elems.values().sum::<u64>();
    if total == 0 {
        return Fig3Row::default();
    }
    let (mut mp, mut pp, mut me, mut pe) = (0u64, 0u64, 0u64, 0u64);
    for (&(c, l, p), &n) in props {
        if prop_mono(c, l, p) {
            mp += n;
        } else {
            pp += n;
        }
    }
    for (&c, &n) in elems {
        if elem_mono(c) {
            me += n;
        } else {
            pe += n;
        }
    }
    let pct = |n: u64| 100.0 * n as f64 / total as f64;
    Fig3Row {
        mono_properties: pct(mp),
        mono_elements: pct(me),
        poly_properties: pct(pp),
        poly_elements: pct(pe),
    }
}

/// A pseudo-random predicate bit for `key` under `seed` (splitmix64).
fn coin(seed: u64, key: u64) -> bool {
    let mut z = seed ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) & 1 == 1
}

proptest! {
    /// The paged load counters are exact: after any sequence of property
    /// loads (spill positions included), elements loads and resets,
    /// `total`, `classify` and `classify_aggregated` equal a hash-map
    /// reference model of the same calls.
    #[test]
    fn load_stats_equal_reference_model(
        ops in proptest::collection::vec(arb_load_op(), 1..400),
        stores in proptest::collection::vec(arb_request(), 0..100),
        seed in any::<u64>(),
    ) {
        let mut stats = LoadAccessStats::new();
        let mut props: HashMap<(ClassId, u8, u8), u64> = HashMap::new();
        let mut elems: HashMap<ClassId, u64> = HashMap::new();
        for op in &ops {
            match *op {
                LoadOp::Property(c, l, p) => {
                    stats.record_property_load(c, l, p);
                    *props.entry((c, l, p)).or_insert(0) += 1;
                }
                LoadOp::Elements(c) => {
                    stats.record_elements_load(c);
                    *elems.entry(c).or_insert(0) += 1;
                }
                LoadOp::Reset => {
                    stats.reset();
                    props.clear();
                    elems.clear();
                }
            }
        }
        let total: u64 = props.values().sum::<u64>() + elems.values().sum::<u64>();
        prop_assert_eq!(stats.total(), total);

        let mut list = ClassList::new();
        for r in &stores {
            let _ = list.profile_store(r);
        }
        prop_assert_eq!(
            stats.classify(&list),
            reference_row(
                &props,
                &elems,
                |c, l, p| list.monomorphic_class(c, l, p).is_some(),
                |c| list.monomorphic_class(c, 0, ELEMENTS_SLOT).is_some(),
            )
        );

        let prop_mono = |c: ClassId, l: u8, p: u8| {
            coin(seed, u64::from(c.raw()) << 16 | u64::from(l) << 8 | u64::from(p))
        };
        let elem_mono = |c: ClassId| coin(seed, 1 << 24 | u64::from(c.raw()));
        prop_assert_eq!(
            stats.classify_aggregated(&prop_mono, &elem_mono),
            reference_row(&props, &elems, prop_mono, elem_mono)
        );
    }

    /// The Class Cache is a pure cache: for any request sequence, the
    /// outcomes match a cache-less Class List reference model, and the
    /// final Class List state is identical.
    #[test]
    fn class_cache_equals_reference_model(reqs in proptest::collection::vec(arb_request(), 1..300)) {
        let mut ref_list = ClassList::new();
        let mut cached_list = ClassList::new();
        let mut cache = ClassCache::new(ClassCacheConfig { entries: 8, ways: 2 });
        for r in &reqs {
            let a = ref_list.profile_store(r);
            let b = cache.store_request(r, &mut cached_list);
            prop_assert_eq!(a, b);
        }
        for class_raw in 0..=255u8 {
            let Some(class) = ClassId::new(class_raw) else { continue };
            for line in 0..3u8 {
                let x = ref_list.entry(class, line).map(|e| (e.init_map, e.valid_map, e.props));
                let y = cached_list.entry(class, line).map(|e| (e.init_map, e.valid_map, e.props));
                prop_assert_eq!(x, y);
            }
        }
    }

    /// Monomorphism is sticky: once a slot reports non-monomorphic, no
    /// later store sequence can make it monomorphic again.
    #[test]
    fn invalidation_is_permanent(reqs in proptest::collection::vec(arb_request(), 1..300)) {
        let mut list = ClassList::new();
        let mut dead: Vec<(ClassId, u8, u8)> = Vec::new();
        for r in &reqs {
            let _ = list.profile_store(r);
            for &(c, l, p) in &dead {
                prop_assert!(list.monomorphic_class(c, l, p).is_none(),
                    "slot ({c}, {l}, {p}) resurrected");
            }
            if list.monomorphic_class(r.holder, r.line, r.pos).is_none() {
                dead.push((r.holder, r.line, r.pos));
            }
        }
    }

    /// A slot reports monomorphic iff every store it received used one
    /// single class.
    #[test]
    fn monomorphism_reflects_history(reqs in proptest::collection::vec(arb_request(), 1..200)) {
        let mut list = ClassList::new();
        for r in &reqs {
            let _ = list.profile_store(r);
        }
        use std::collections::HashMap;
        let mut history: HashMap<(ClassId, u8, u8), Vec<ClassId>> = HashMap::new();
        for r in &reqs {
            history.entry((r.holder, r.line, r.pos)).or_default().push(r.stored);
        }
        for ((c, l, p), stores) in history {
            let mono = list.monomorphic_class(c, l, p);
            let uniform = stores.iter().all(|&s| s == stores[0]);
            if uniform {
                prop_assert_eq!(mono, Some(stores[0]));
            } else {
                prop_assert_eq!(mono, None);
            }
        }
    }

    /// Misspeculation exceptions fire exactly when a speculated slot loses
    /// monomorphism, and carry the registered functions.
    #[test]
    fn speculation_exceptions_are_precise(
        reqs in proptest::collection::vec(arb_request(), 1..200),
        spec_at in 0usize..50,
    ) {
        let mut list = ClassList::new();
        let mut speculated: Option<(ClassId, u8, u8)> = None;
        for (i, r) in reqs.iter().enumerate() {
            let outcome = list.profile_store(r);
            match (&speculated, &outcome) {
                (Some(s), StoreOutcome::Misspeculation(exc)) => {
                    prop_assert_eq!((exc.holder, exc.line, exc.pos), *s);
                    prop_assert_eq!(&exc.functions, &vec![FuncId(1)]);
                    speculated = None;
                }
                (None, StoreOutcome::Misspeculation(_)) => {
                    prop_assert!(false, "exception without speculation");
                }
                (Some(s), _) => {
                    // While speculated and no exception, the slot must
                    // still be monomorphic.
                    prop_assert!(list.monomorphic_class(s.0, s.1, s.2).is_some());
                }
                _ => {}
            }
            if i == spec_at && speculated.is_none() {
                if let Some(_c) = list.monomorphic_class(r.holder, r.line, r.pos) {
                    prop_assert!(list.speculate(r.holder, r.line, r.pos, FuncId(1)));
                    speculated = Some((r.holder, r.line, r.pos));
                }
            }
        }
    }

    /// Cache geometry never affects outcomes, only hit rates.
    #[test]
    fn geometry_affects_only_hit_rate(reqs in proptest::collection::vec(arb_request(), 1..200)) {
        let configs = [
            ClassCacheConfig { entries: 4, ways: 1 },
            ClassCacheConfig { entries: 8, ways: 2 },
            ClassCacheConfig { entries: 128, ways: 2 },
        ];
        let mut outcomes: Vec<Vec<StoreOutcome>> = Vec::new();
        for cfg in configs {
            let mut list = ClassList::new();
            let mut cache = ClassCache::new(cfg);
            outcomes.push(reqs.iter().map(|r| cache.store_request(r, &mut list)).collect());
        }
        prop_assert_eq!(&outcomes[0], &outcomes[1]);
        prop_assert_eq!(&outcomes[1], &outcomes[2]);
    }
}
