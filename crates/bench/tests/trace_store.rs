//! Integration tests for the content-addressed trace store: concurrent
//! recording through atomic publish, the `tracegc` maintenance pass (and
//! its rejection of a misspelt flag), and streamed recordings matching
//! one-shot objects.

use checkelide_bench::runner::{try_run_benchmark_cached, CacheDisposition, RunConfig};
use checkelide_bench::tracecache::cache_key;
use checkelide_bench::{find, sim_fingerprint, Benchmark, Sidecar, TraceCache, TraceStore};
use checkelide_uarch::{SimObject, SIM_OBJECT_LEN};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("checkelide-tstore-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn quick_cfg() -> RunConfig {
    let mut cfg = RunConfig::characterize();
    cfg.scale = Some(1);
    cfg.iterations = 2;
    cfg
}

fn bench() -> &'static Benchmark {
    find("ai-astar").expect("suite has ai-astar")
}

/// Racing recorders of the same cell must converge on one valid entry:
/// every thread produces a correct output, and tmp-file + rename publish
/// means the store ends up with exactly one manifest and one object no
/// matter how the writes interleave.
#[test]
fn concurrent_recordings_of_one_key_converge() {
    let dir = fresh_dir("race");
    let cache = TraceCache::at(&dir);
    let cfg = quick_cfg();

    let checksums: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    let (out, _, _) =
                        try_run_benchmark_cached(bench(), cfg, &cache).expect("cell runs");
                    out.checksum
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("no panic")).collect()
    });
    assert!(checksums.windows(2).all(|w| w[0] == w[1]), "racers disagree: {checksums:?}");

    let store = cache.local_store().expect("local backend");
    let (entries, objects, _, _) = store.summary();
    assert_eq!(entries, 1, "exactly one manifest after the race");
    assert_eq!(objects, 1, "exactly one object after the race");
    assert_eq!(
        run_one(&cache, cfg),
        CacheDisposition::Hit,
        "post-race lookup replays the published entry"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn run_one(cache: &TraceCache, cfg: RunConfig) -> CacheDisposition {
    let (out, disp, _) = try_run_benchmark_cached(bench(), cfg, cache).expect("cell runs");
    assert!(out.uops > 0);
    disp
}

/// The `tracegc` pass: stale-salt entries are dropped while
/// current entries survive, and `--max-store-bytes` applies the LRU
/// bound (a 1-byte budget empties the store).
#[test]
fn gc_binary_drops_stale_salt_and_bounds_size() {
    let dir = fresh_dir("gc-bin");
    let cache = TraceCache::at(&dir);
    let cfg = quick_cfg();
    assert_eq!(run_one(&cache, cfg), CacheDisposition::Miss);
    let live_key = cache_key("ai-astar", 1, &cfg);

    // Hand-plant an entry recorded under another source fingerprint.
    let store = cache.local_store().expect("local backend");
    let stale_key = "ai-astar|s1|profile|optfalse|bbvfalse|it2|cc0x0|e0.0.0+rev0|c0";
    let mut stale = store.stat(&live_key).expect("live entry").clone();
    store.put(stale_key, &mut stale, b"stale trace body").expect("plant stale");
    assert!(store.stat(stale_key).is_some());

    let gc = |extra: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_tracegc"))
            .arg("--store")
            .arg(&dir)
            .args(extra)
            .output()
            .expect("run tracegc");
        assert!(out.status.success(), "gc failed: {}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8_lossy(&out.stdout).into_owned()
    };

    let report = gc(&[]);
    assert!(report.contains("stale"), "gc reports its work: {report}");
    assert!(store.stat(stale_key).is_none(), "stale-salt entry dropped");
    assert!(store.stat(&live_key).is_some(), "current entry survives");

    gc(&["--max-store-bytes", "1"]);
    assert!(store.stat(&live_key).is_none(), "LRU bound evicts beyond the budget");
    let (entries, objects, _, _) = store.summary();
    assert_eq!((entries, objects), (0, 0), "1-byte budget empties the store");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `tracegc` pass on the sim-result layer: sim objects stored under
/// another sim fingerprint (other simulator source or core configuration)
/// and orphaned (trace-less) ones are reclaimed while the live one
/// survives, and a surviving entry's sim bytes count against
/// `--max-store-bytes` — a budget one byte short of
/// (manifest + object + sim object) must evict the entry, proving the
/// sim footprint is charged to the trace it rides on.
#[test]
fn gc_binary_reclaims_sim_objects_and_charges_their_bytes() {
    let dir = fresh_dir("gc-sim");
    let cache = TraceCache::at(&dir);
    let cfg = RunConfig::baseline_timed().with_scale(1).with_iterations(2);
    assert_eq!(run_one(&cache, cfg), CacheDisposition::Miss, "timed cold run records + memoizes");
    let key = cache_key("ai-astar", 1, &cfg);
    let store = cache.local_store().expect("local backend");
    let side = store.stat(&key).expect("entry recorded");
    let fp = sim_fingerprint();
    let good = store.sim_get(&side.cid, fp).expect("cold run published its sim result");

    // Plant a valid sim object for the live trace under a sibling
    // fingerprint (as other simulator code would have stored it), and a
    // valid sim riding on a stale-salt trace entry: when gc drops that
    // entry, its sim loses its last manifest reference and must be
    // reclaimed as an orphan in the same pass. (A sim whose CID no
    // manifest ever named is an orphan to the same pass: opening a store
    // deletes nothing.)
    let stale = SimObject::new(side.cid, fp ^ 1, good.result.clone());
    store.sim_put(&stale).expect("plant stale sim");
    let stale_key = "ai-astar|s1|profile|optfalse|bbvfalse|it2|cc0x0|e0.0.0+rev0|c0";
    let mut doomed_side = side.clone();
    store.put(stale_key, &mut doomed_side, b"stale trace body").expect("plant stale entry");
    let doomed = SimObject::new(doomed_side.cid, fp, good.result.clone());
    store.sim_put(&doomed).expect("plant doomed sim");
    assert_eq!(store.sim_summary().0, 3, "live + stale + doomed planted");

    let gc = |extra: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_tracegc"))
            .arg("--store")
            .arg(&dir)
            .args(extra)
            .output()
            .expect("run tracegc");
        assert!(out.status.success(), "gc failed: {}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8_lossy(&out.stdout).into_owned()
    };

    let report = gc(&[]);
    assert!(report.contains("1 stale + 1 orphan sim objects"), "gc reports sim work: {report}");
    assert!(store.sim_get(&side.cid, fp).is_some(), "current sim object survives");
    assert!(!store.sim_path(&side.cid, fp ^ 1).exists(), "other-fingerprint sim reclaimed");
    assert!(store.stat(stale_key).is_none(), "stale-salt entry dropped");
    assert!(!store.sim_path(&doomed_side.cid, fp).exists(), "orphaned sim reclaimed with it");
    assert_eq!(store.sim_summary(), (1, SIM_OBJECT_LEN as u64));

    // One byte short of the full footprint: only fails to fit if the sim
    // object is part of the entry's cost.
    let manifest_bytes = std::fs::metadata(store.manifest_path(&key)).expect("manifest").len();
    let footprint = manifest_bytes + side.stored_bytes + SIM_OBJECT_LEN as u64;
    gc(&["--max-store-bytes", &(footprint - 1).to_string()]);
    assert!(store.stat(&key).is_none(), "sim bytes must count against the LRU budget");
    assert_eq!(store.sim_summary(), (0, 0), "evicted entry takes its sim objects along");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every quick-scale recording of one kernel — each engine
/// configuration `reproduce --quick` records — is streamed frame by
/// frame into its object file while the engine runs. The stored object
/// must be exactly what an object writer makes of the raw body in one
/// write, and in other write sizes; no tmp file may be left in the store.
#[test]
fn streamed_recordings_match_one_shot_objects_on_real_traces() {
    let dir = fresh_dir("real-objects");
    let cache = TraceCache::at(&dir);
    let store = cache.local_store().expect("local backend");
    let kernel = find(REAL_TRACE_KERNEL).expect("suite has the kernel");
    let quick = |cfg: RunConfig| cfg.with_scale((kernel.scale / 6).max(2)).with_iterations(4);
    let configs = [
        RunConfig::characterize(),
        RunConfig::baseline_timed().with_timing(false),
        RunConfig::mechanism_timed().with_timing(false),
        RunConfig::characterize().with_bbv(true),
        RunConfig::mechanism_timed().with_timing(false).with_bbv(true),
    ];
    for cfg in configs {
        let (_, disp, _) = try_run_benchmark_cached(kernel, quick(cfg), &cache).expect("runs");
        assert_eq!(disp, CacheDisposition::Miss);
    }
    assert_eq!(tmp_files(&dir), Vec::<PathBuf>::new(), "no tmp file left in the store");
    let manifests = store.manifests();
    assert_eq!(manifests.len(), configs.len());
    // The object file an object writer makes of `raw` in writes of `cut`.
    let written = |raw: &[u8], cut: usize| {
        let mut w = store.object_writer().expect("object writer");
        raw.chunks(cut).try_for_each(|c| w.write_all(c)).expect("write");
        std::fs::read(w.finish().expect("object file").path()).expect("object file")
    };
    for (_, side, _, _) in manifests {
        let image = std::fs::read(store.object_path(&side.cid)).expect("object stored");
        let raw = read_body(store, &side);
        assert!(image == written(&raw, raw.len()), "{}", side.key);
        for cut in [61, 4093] {
            assert!(image == written(&raw, cut), "{}, writes of {cut}", side.key);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The raw body `side` locates, streamed from its object and verified.
fn read_body(store: &TraceStore, side: &Sidecar) -> Vec<u8> {
    let mut body = store.open_body(side).expect("object opens");
    let mut raw = Vec::new();
    body.read_to_end(&mut raw).expect("object reads");
    body.finish(&side.cid).expect("object verifies");
    raw
}

/// Every `*.tmp.*` file anywhere under `dir`.
fn tmp_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let path = entry.path();
        if path.is_dir() {
            out.extend(tmp_files(&path));
        } else if path.to_string_lossy().contains(".tmp.") {
            out.push(path);
        }
    }
    out
}

/// A misspelt flag is an error, not a silently ignored setting: `tracegc`
/// with `--max-store-byte` (for `--max-store-bytes`) exits non-zero,
/// names the flag, and leaves the store untouched.
#[test]
fn tracegc_rejects_an_unknown_flag() {
    let dir = fresh_dir("typo");
    let cache = TraceCache::at(&dir);
    let cfg = quick_cfg();
    assert_eq!(run_one(&cache, cfg), CacheDisposition::Miss);
    let store = cache.local_store().expect("local backend");
    let before = store.summary();
    assert_eq!((before.0, before.1), (1, 1));

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_tracegc"))
        .arg("--store")
        .arg(&dir)
        .args(["--max-store-byte", "1"])
        .output()
        .expect("run tracegc");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "typo'd flag must fail: {stderr}");
    assert!(stderr.contains("--max-store-byte"), "the error names the flag: {stderr}");
    assert_eq!(store.summary(), before, "store untouched");
    let key = cache_key("ai-astar", 1, &cfg);
    assert!(store.stat(&key).is_some(), "entry survives");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The kernel whose real traces the object test streams.
const REAL_TRACE_KERNEL: &str = "access-fannkuch";
