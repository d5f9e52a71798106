//! Property-based delivery-granularity equivalence for [`CoreSim`].
//!
//! `tests/batch_equiv.rs` pins the equivalence on one real engine trace
//! under the Table 2 configuration. This file widens the net: for
//! arbitrary valid [`CoreConfig`]s (including degenerate ones — one-entry
//! windows, zero-cycle latencies, zero miss penalties, tiny TLBs) and
//! arbitrary µop traces, delivering the trace per µop or in batches must
//! produce bit-identical [`SimResult`]s — every count and every `f64`
//! energy accumulation, via the derived `PartialEq`. Batch boundaries
//! (256-µop capacity chunks and deliberately odd 61-µop chunks) must not
//! matter.
//!
//! The trace generator skews toward engine-like streams: small PC and
//! address pools so caches see a hit/miss mix, and a small token pool so
//! the ready-array generation check fires on both fresh and stale slots.

use checkelide_isa::uop::{Category, MemRef, Region, Tok, Uop, UopKind};
use checkelide_isa::{TraceSink, BATCH_CAPACITY};
use checkelide_uarch::{CacheGeometry, CoreConfig, CoreSim};
use proptest::prelude::*;

const KINDS: [UopKind; 15] = [
    UopKind::Alu,
    UopKind::Mul,
    UopKind::Div,
    UopKind::FpAdd,
    UopKind::FpMul,
    UopKind::FpDiv,
    UopKind::Load,
    UopKind::Store,
    UopKind::Branch,
    UopKind::Jump,
    UopKind::Move,
    UopKind::MovClassId,
    UopKind::MovClassIdArray,
    UopKind::MovStoreClassCache,
    UopKind::MovStoreClassCacheArray,
];
const CATEGORIES: [Category; 5] = Category::ALL;
const REGIONS: [Region; 3] = [Region::Optimized, Region::Baseline, Region::Runtime];

/// A small but legal cache geometry: 1–16 sets, 1–4 ways, 64 B lines.
/// Small enough that the generated address pools overflow it (so the
/// miss paths run), legal per [`CoreConfig::validate`].
fn arb_geometry() -> BoxedStrategy<CacheGeometry> {
    (0u32..5, 1usize..=4)
        .prop_map(|(sets_log, ways)| CacheGeometry {
            size: (1usize << sets_log) * ways * 64,
            ways,
            line: 64,
        })
        .boxed()
}

/// An arbitrary valid configuration. Every structural capacity goes down
/// to its legal minimum of 1, and every latency/penalty down to 0 — the
/// zero-penalty corner is where a `miss implies slow` shortcut would
/// diverge from the MSHR accounting.
fn arb_config() -> BoxedStrategy<CoreConfig> {
    (
        (1u64..=8, 1usize..=48, 1usize..=48, 1usize..=8),
        (0u64..=4, 0u64..=16, 0u64..=200),
        (arb_geometry(), arb_geometry(), arb_geometry()),
        (1usize..=64, 1usize..=64, 0u64..=40, 0u64..=20),
    )
        .prop_map(
            |(
                (issue_width, window_size, issue_queue, outstanding_mem),
                (l1_latency, l2_latency, mem_latency),
                (il1, dl1, l2),
                (itlb_entries, dtlb_entries, tlb_miss_penalty, mispredict_penalty),
            )| {
                let mut c = CoreConfig::nehalem();
                c.issue_width = issue_width;
                c.window_size = window_size;
                c.issue_queue = issue_queue;
                c.outstanding_mem = outstanding_mem;
                c.l1_latency = l1_latency;
                c.l2_latency = l2_latency;
                c.mem_latency = mem_latency;
                c.il1 = il1;
                c.dl1 = dl1;
                c.l2 = l2;
                c.itlb_entries = itlb_entries;
                c.dtlb_entries = dtlb_entries;
                c.tlb_miss_penalty = tlb_miss_penalty;
                c.mispredict_penalty = mispredict_penalty;
                c
            },
        )
        .boxed()
}

/// One engine-like µop: PCs from a 1 MiB pool (hundreds of lines and
/// pages — enough to miss the small TLBs above), data addresses from a
/// separate pool, tokens from a pool of 300 so destinations are
/// overwritten and the generation check sees both live and stale slots.
fn arb_uop() -> BoxedStrategy<Uop> {
    (
        (0usize..KINDS.len(), 0usize..CATEGORIES.len(), 0usize..REGIONS.len()),
        0u64..65536,
        (any::<bool>(), 0u64..65536, any::<bool>()),
        (0u32..300, 0u32..300, 0u32..300),
        any::<bool>(),
    )
        .prop_map(|((k, c, r), pc_slot, (has_mem, addr_slot, is_store), (s0, s1, d), taken)| {
            Uop {
                kind: KINDS[k],
                category: CATEGORIES[c],
                pc: 0x1000 + (pc_slot << 4),
                mem: has_mem.then_some(MemRef {
                    addr: 0x20_0000 + (addr_slot << 4),
                    size: 8,
                    is_store,
                }),
                srcs: [Tok(s0), Tok(s1)],
                dst: Tok(d),
                provenance: Default::default(),
                region: REGIONS[r],
                taken,
            }
        })
        .boxed()
}

fn arb_trace() -> BoxedStrategy<Vec<Uop>> {
    proptest::collection::vec(arb_uop(), 0..600).boxed()
}

fn run_per_uop(config: CoreConfig, trace: &[Uop]) -> checkelide_uarch::SimResult {
    let mut sim = CoreSim::new(config);
    for u in trace {
        sim.emit(u);
    }
    sim.finish();
    sim.result()
}

fn run_batched(config: CoreConfig, trace: &[Uop], chunk: usize) -> checkelide_uarch::SimResult {
    let mut sim = CoreSim::new(config);
    for c in trace.chunks(chunk.max(1)) {
        sim.emit_batch(c);
    }
    sim.finish();
    sim.result()
}

proptest! {
    #[test]
    fn batch_delivery_matches_per_uop_for_arbitrary_configs(
        config in arb_config(),
        trace in arb_trace(),
    ) {
        prop_assert!(config.validate().is_ok());
        let per_uop = run_per_uop(config, &trace);
        let batched = run_batched(config, &trace, BATCH_CAPACITY);
        prop_assert_eq!(&per_uop, &batched, "capacity-chunk batching diverged");
        let odd = run_batched(config, &trace, 61);
        prop_assert_eq!(&per_uop, &odd, "odd-chunk batching diverged");
        prop_assert_eq!(per_uop.uops, trace.len() as u64);
    }
}
