//! End-to-end contract of the sim-result memoization layer.
//!
//! The cache's one promise is *bitwise* identity: a timed cell served
//! from a memoized `SimResult` must be indistinguishable — down to the
//! raw bits of every `f64` energy field — from the same cell simulated
//! live with the cache off. These tests exercise that promise through
//! the public `try_run_benchmark_cached` entry point (live vs cold-miss
//! vs warm-hit), prove `--sim-cache verify` actually catches a planted
//! divergence, that a memoized result disagreeing with its manifest is
//! replaced, and property-test the store-level round trip on arbitrary
//! result payloads.

use checkelide_bench::runner::{try_run_benchmark_cached, CacheDisposition, RunConfig, RunOutput};
use checkelide_bench::tracecache::cache_key;
use checkelide_bench::{find, sim_fingerprint, SimCacheMode, SimTelemetry, TraceCache};
use checkelide_uarch::{CacheStats, RegionTotals, SimObject, SimResult};
use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("checkelide-simcache-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn run(cache: &TraceCache, cfg: RunConfig) -> (RunOutput, CacheDisposition, SimTelemetry) {
    let bench = find("ai-astar").expect("suite has ai-astar");
    try_run_benchmark_cached(bench, cfg, cache).expect("benchmark runs")
}

/// The memoized image of a run's simulation result: raw-bit `f64`
/// comparisons, exactly what the cache stores and serves.
fn sim_image(out: &RunOutput, cache: &TraceCache, cfg: &RunConfig) -> Vec<u8> {
    let sim = out.sim.as_ref().expect("timed run carries a SimResult");
    let store = cache.local_store().expect("local backend");
    let side = store.stat(&cache_key("ai-astar", 1, cfg)).expect("entry recorded");
    SimObject::new(side.cid, sim_fingerprint(), sim.clone()).encode()
}

#[test]
fn sim_hit_is_bitwise_identical_to_live_simulation() {
    for (tag, cfg) in [
        ("diff-base", RunConfig::baseline_timed().with_scale(1).with_iterations(2)),
        ("diff-mech", RunConfig::mechanism_timed().with_scale(1).with_iterations(2)),
    ] {
        let dir = fresh_dir(tag);
        let cache = TraceCache::at(&dir);

        // Cold: trace miss, sim miss — CoreSim ran live, result published.
        let (cold, disp, tel) = run(&cache, cfg);
        assert_eq!(disp, CacheDisposition::Miss);
        assert_eq!(tel, SimTelemetry { hits: 0, misses: 1, verify_mismatches: 0 });
        let cold_image = sim_image(&cold, &cache, &cfg);

        // Warm: trace hit served entirely from manifest + sim object.
        let (warm, disp, tel) = run(&cache, cfg);
        assert_eq!(disp, CacheDisposition::Hit);
        assert_eq!(tel, SimTelemetry { hits: 1, misses: 0, verify_mismatches: 0 });
        assert_eq!(sim_image(&warm, &cache, &cfg), cold_image, "warm hit diverged ({tag})");

        // Reference: same cell with the sim layer off — live re-simulation
        // from the recorded trace must produce the identical bit image.
        let off = TraceCache::at(&dir).with_sim_mode(SimCacheMode::Off);
        let (live, disp, tel) = run(&off, cfg);
        assert_eq!(disp, CacheDisposition::Hit);
        assert_eq!(tel, SimTelemetry::default(), "sim layer off reports no activity");
        assert_eq!(sim_image(&live, &off, &cfg), cold_image, "live replay diverged ({tag})");

        // The non-sim halves of the output agree too.
        assert_eq!(warm.uops, live.uops);
        assert_eq!(warm.checksum, live.checksum);

        let s = cache.stats();
        assert_eq!((s.sim_hits, s.sim_misses, s.sim_stores), (1, 1, 1));
        assert_eq!(s.sim_verify_mismatches, 0);

        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn verify_mode_passes_clean_store_and_detects_tampering() {
    let dir = fresh_dir("verify");
    let cfg = RunConfig::baseline_timed().with_scale(1).with_iterations(2);

    // Warm both layers, then a clean verify pass: hit, zero mismatches.
    let (_, disp, _) = run(&TraceCache::at(&dir), cfg);
    assert_eq!(disp, CacheDisposition::Miss);
    let verify = TraceCache::at(&dir).with_sim_mode(SimCacheMode::Verify);
    let (_clean, disp, tel) = run(&verify, cfg);
    assert_eq!(disp, CacheDisposition::Hit);
    assert_eq!(tel, SimTelemetry { hits: 1, misses: 0, verify_mismatches: 0 });

    // Plant a divergent-but-valid sim object: same key, same µop count
    // (so the manifest cross-check passes), different cycle count and a
    // sign-flipped energy field. Its checksum is valid — only a real
    // re-simulation can notice.
    let store = verify.local_store().expect("local backend");
    let side = store.stat(&cache_key("ai-astar", 1, &cfg)).expect("entry recorded");
    let fp = sim_fingerprint();
    let good = store.sim_get(&side.cid, fp).expect("memoized result present");
    let mut bad = good.result.clone();
    bad.cycles ^= 1;
    bad.energy_pj = -bad.energy_pj;
    fs::remove_file(store.sim_path(&side.cid, fp)).expect("drop good object");
    store.sim_put(&SimObject::new(side.cid, fp, bad)).expect("plant tampered object");

    let fresh = TraceCache::at(&dir).with_sim_mode(SimCacheMode::Verify);
    let (out, disp, tel) = run(&fresh, cfg);
    assert_eq!(disp, CacheDisposition::Hit);
    assert_eq!(tel, SimTelemetry { hits: 1, misses: 0, verify_mismatches: 1 });
    assert_eq!(fresh.stats().sim_verify_mismatches, 1);
    // The cell is served from the live re-simulation, not the tampered
    // object: bitwise identical to the pre-tamper result.
    let live = out.sim.as_ref().expect("timed");
    let live_obj = SimObject::new(side.cid, fp, live.clone());
    assert_eq!(live_obj.encode(), good.encode(), "verify must return the live result");

    let _ = fs::remove_dir_all(&dir);
}

/// A memoized result that decodes but disagrees with its manifest (one
/// µop too many) is not served: the cell re-simulates, counted as a sim
/// miss and nothing else, store-wide as in the cell, and the republish
/// replaces the bad object, so the next run hits.
#[test]
fn a_sim_object_disagreeing_with_its_manifest_is_replaced() {
    let dir = fresh_dir("heal");
    let cfg = RunConfig::baseline_timed().with_scale(1).with_iterations(2);
    let (_, disp, _) = run(&TraceCache::at(&dir), cfg);
    assert_eq!(disp, CacheDisposition::Miss);

    let cache = TraceCache::at(&dir);
    let store = cache.local_store().expect("local backend");
    let side = store.stat(&cache_key("ai-astar", 1, &cfg)).expect("entry recorded");
    let fp = sim_fingerprint();
    let good = store.sim_get(&side.cid, fp).expect("cold run memoized");
    let mut bad = good.result.clone();
    bad.uops += 1;
    fs::remove_file(store.sim_path(&side.cid, fp)).expect("drop good object");
    store.sim_put(&SimObject::new(side.cid, fp, bad)).expect("plant disagreeing object");

    let (out, disp, tel) = run(&cache, cfg);
    assert_eq!(disp, CacheDisposition::Hit);
    assert_eq!(tel, SimTelemetry { hits: 0, misses: 1, verify_mismatches: 0 });
    let s = cache.stats();
    assert_eq!((s.sim_hits, s.sim_misses), (0, 1), "store-wide counts match the cell's");
    let live = SimObject::new(side.cid, fp, out.sim.expect("timed"));
    assert_eq!(live.encode(), good.encode(), "served from the re-simulation");

    let (_, disp, tel) = run(&cache, cfg);
    assert_eq!(disp, CacheDisposition::Hit);
    assert_eq!(tel, SimTelemetry { hits: 1, misses: 0, verify_mismatches: 0 }, "healed");
    assert_eq!(store.sim_get(&side.cid, fp).expect("republished").encode(), good.encode());
    let _ = fs::remove_dir_all(&dir);
}

fn arb_result() -> BoxedStrategy<SimResult> {
    proptest::collection::vec(any::<u64>(), 34..35)
        .prop_map(|w| {
            let cache = |at: usize| CacheStats { accesses: w[at], hits: w[at + 1], misses: w[at + 2] };
            let region = |at: usize| RegionTotals {
                uops: w[at],
                cycles: w[at + 1],
                dynamic_pj: f64::from_bits(w[at + 2]),
            };
            SimResult {
                cycles: w[0],
                uops: w[1],
                regions: [region(2), region(5), region(8)],
                energy_pj: f64::from_bits(w[11]),
                energy_optimized_pj: f64::from_bits(w[12]),
                dl1: cache(13),
                il1: cache(16),
                l2: cache(19),
                dtlb: cache(22),
                itlb: cache(25),
                branch_lookups: w[28],
                branch_mispredicts: w[29],
                fetch_stall: w[30],
                src_wait: w[31],
                window_wait: w[32],
                mem_wait: w[33],
            }
        })
        .boxed()
}

proptest! {
    /// `sim_put` → `sim_get` is a bitwise round trip for arbitrary result
    /// payloads (NaN energy bit patterns included), and a re-put of the
    /// same key is a benign no-op that leaves the stored image intact.
    #[test]
    fn store_round_trip_is_bitwise_for_arbitrary_results(
        result in arb_result(),
        cid_words in proptest::collection::vec(any::<u64>(), 4..5),
        fp in any::<u64>(),
        tag in 0u32..1_000_000,
    ) {
        let dir = std::env::temp_dir()
            .join(format!("checkelide-simprop-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = checkelide_bench::TraceStore::open(&dir, true).expect("open store");
        let mut cid = [0u8; 32];
        for (chunk, word) in cid.chunks_mut(8).zip(&cid_words) {
            chunk.copy_from_slice(&word.to_le_bytes());
        }
        let obj = SimObject::new(cid, fp, result);
        store.sim_put(&obj).expect("publish");
        let back = store.sim_get(&cid, fp).expect("round trip");
        prop_assert_eq!(back.encode(), obj.encode());
        store.sim_put(&obj).expect("idempotent re-publish");
        let again = store.sim_get(&cid, fp).expect("still present");
        prop_assert_eq!(again.encode(), obj.encode());
        let _ = fs::remove_dir_all(&dir);
    }
}
