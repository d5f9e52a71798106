//! Corrupt-entry eviction in the content-addressed trace store.
//!
//! A manifest records the on-disk size and content hash of the object it
//! references. If the object body is truncated (interrupted write),
//! bit-flipped, or deleted while the manifest survives, the entry must
//! read as a **miss** and the corrupt files must be dropped — an untimed
//! lookup never decodes the object body, so without the size validation
//! a corrupt entry would keep serving its stale statistics forever, and
//! without manifest-side reclamation a dangling manifest would shadow
//! re-recordings.

use checkelide_bench::runner::{try_run_benchmark_cached, CacheDisposition, RunConfig};
use checkelide_bench::store::{sha256, Sidecar, TraceStore, OBJECT_HEADER_LEN};
use checkelide_bench::tracecache::cache_key;
use checkelide_bench::{find, sim_fingerprint, SimCacheMode, TraceCache};
use std::fs::{self, OpenOptions};
use std::io::Read;
use std::path::PathBuf;

fn fresh_cache_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("checkelide-evict-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn run(cache: &TraceCache, cfg: RunConfig) -> CacheDisposition {
    let bench = find("ai-astar").expect("suite has ai-astar");
    let (out, disp, _) = try_run_benchmark_cached(bench, cfg, cache).expect("benchmark runs");
    assert!(out.uops > 0);
    disp
}

/// The store paths behind a cache entry: `(manifest, object)`.
fn paths(cache: &TraceCache, cfg: &RunConfig) -> (PathBuf, PathBuf) {
    let store = cache.local_store().expect("local backend");
    let key = cache_key("ai-astar", 1, cfg);
    let side = store.stat(&key).expect("entry recorded");
    (store.manifest_path(&key), store.object_path(&side.cid))
}

#[test]
fn truncated_object_body_is_a_miss_and_evicts_the_manifest() {
    let dir = fresh_cache_dir("truncate");
    let cache = TraceCache::at(&dir);
    let mut cfg = RunConfig::characterize();
    cfg.scale = Some(1);
    cfg.iterations = 2;

    assert_eq!(run(&cache, cfg), CacheDisposition::Miss, "cold lookup records");
    assert_eq!(run(&cache, cfg), CacheDisposition::Hit, "second lookup replays");

    // Truncate the object body, keeping its (valid) manifest.
    let (manifest, object) = paths(&cache, &cfg);
    let full = fs::metadata(&object).expect("object recorded").len();
    assert!(full > 8);
    OpenOptions::new()
        .write(true)
        .open(&object)
        .expect("open object")
        .set_len(full / 2)
        .expect("truncate");

    // The corrupt entry must not serve a hit — not even for this untimed
    // configuration, which never decodes the object body on a hit — and
    // both files must be gone afterwards (no dangling manifest).
    assert_eq!(run(&cache, cfg), CacheDisposition::Miss, "truncated body must miss");
    assert_eq!(run(&cache, cfg), CacheDisposition::Hit, "re-recorded entry hits again");
    assert!(manifest.exists() && object.exists(), "fresh entry published");

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn deleted_object_body_reclaims_the_dangling_manifest() {
    let dir = fresh_cache_dir("orphan");
    let cache = TraceCache::at(&dir);
    let mut cfg = RunConfig::characterize();
    cfg.scale = Some(1);
    cfg.iterations = 2;

    assert_eq!(run(&cache, cfg), CacheDisposition::Miss);
    let (manifest, object) = paths(&cache, &cfg);
    fs::remove_file(&object).expect("delete object body");
    assert!(manifest.exists());

    assert_eq!(run(&cache, cfg), CacheDisposition::Miss, "missing body must miss");
    // The lookup itself must have evicted the dangling manifest before
    // the re-recording published a fresh entry.
    assert!(manifest.exists() && object.exists(), "fresh entry published");
    let size = fs::metadata(&object).expect("object").len();
    assert!(size > 8, "re-recorded object has a real body");

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn hash_corrupt_object_fails_timed_replay_and_reheals() {
    let dir = fresh_cache_dir("bitflip");
    // Sim-result memoization off: a sim hit would serve this timed cell
    // from the stored result without ever decoding the (corrupt) body —
    // this test is about the body-integrity path specifically.
    let cache = TraceCache::at(&dir).with_sim_mode(SimCacheMode::Off);
    let mut cfg = RunConfig::baseline_timed();
    cfg.scale = Some(1);
    cfg.iterations = 2;

    assert_eq!(run(&cache, cfg), CacheDisposition::Miss, "cold timed run records");
    let (_, object) = paths(&cache, &cfg);

    // Flip one payload byte without changing the size: the untimed size
    // check cannot see this, but the timed GET re-hashes the body.
    let mut image = fs::read(&object).expect("object bytes");
    let last = image.len() - 1;
    image[last] ^= 0x01;
    fs::write(&object, &image).expect("rewrite corrupted object");

    assert_eq!(run(&cache, cfg), CacheDisposition::Miss, "hash mismatch must miss");
    assert!(!image.is_empty());
    assert_eq!(run(&cache, cfg), CacheDisposition::Hit, "re-recorded entry hits again");

    let _ = fs::remove_dir_all(&dir);
}

/// Recording the same configuration twice in one process must produce
/// byte-identical traces (and therefore one shared content ID): the
/// store's cross-cell dedup is only as good as this determinism. Guards
/// against process-global state (token counters, interning tables)
/// leaking into the encoded byte stream.
#[test]
fn repeated_recordings_share_one_content_id() {
    let mut cfg = RunConfig::characterize();
    cfg.scale = Some(1);
    cfg.iterations = 2;
    let mut cids = Vec::new();
    for tag in ["det-a", "det-b"] {
        let dir = fresh_cache_dir(tag);
        let cache = TraceCache::at(&dir);
        assert_eq!(run(&cache, cfg), CacheDisposition::Miss);
        let store = cache.local_store().expect("local");
        let side = store.stat(&cache_key("ai-astar", 1, &cfg)).expect("recorded");
        cids.push((checkelide_bench::store::cid_hex(&side.cid), side.trace_bytes));
        let _ = fs::remove_dir_all(&dir);
    }
    assert_eq!(cids[0], cids[1], "recordings differ across fresh stores");
}

/// One corruption drill on a timed cell with the sim cache on. The
/// cell's memoized simulation is removed first, so its next hit streams
/// the body into `CoreSim` and would publish what it computed. `corrupt`
/// damages the stored entry and returns the CID the manifest now names.
///
/// The hit must fail into a miss that evicted the manifest and the
/// object: the re-recording publishes exactly the original manifest and
/// object bytes (no dedup against a corrupt object), no sim object is
/// left for a corrupt CID (none computed from an unverified replay), and
/// the next run has zero misses.
fn drill(tag: &str, corrupt: impl FnOnce(&TraceStore, &Sidecar) -> [u8; 32]) {
    let dir = fresh_cache_dir(tag);
    let cache = TraceCache::at(&dir).with_sim_mode(SimCacheMode::On);
    let cfg = RunConfig::baseline_timed().with_scale(1).with_iterations(2);
    assert_eq!(run(&cache, cfg), CacheDisposition::Miss, "cold timed run records");

    let store = cache.local_store().expect("local backend");
    let key = cache_key("ai-astar", 1, &cfg);
    let side = store.stat(&key).expect("entry recorded");
    let (manifest, object) = (store.manifest_path(&key), store.object_path(&side.cid));
    let (good_manifest, good_object) = (fs::read(&manifest).unwrap(), fs::read(&object).unwrap());
    let fp = sim_fingerprint();
    let good_sim = store.sim_get(&side.cid, fp).expect("cold run memoized").encode();
    fs::remove_file(store.sim_path(&side.cid, fp)).expect("drop the memoized result");

    let bad_cid = corrupt(store, &side);
    let misses = cache.stats().misses;
    assert_eq!(run(&cache, cfg), CacheDisposition::Miss, "{tag}: corrupt entry must miss");
    assert_eq!(cache.stats().misses, misses + 1, "{tag}");
    assert_eq!(fs::read(&manifest).unwrap(), good_manifest, "{tag}: manifest re-recorded");
    assert_eq!(fs::read(&object).unwrap(), good_object, "{tag}: object re-recorded");
    if bad_cid != side.cid {
        assert!(!store.object_path(&bad_cid).exists(), "{tag}: corrupt object evicted");
        assert!(store.sim_get(&bad_cid, fp).is_none(), "{tag}: sim object from a failed replay");
    }
    let sim = store.sim_get(&side.cid, fp).expect("re-recording memoized").encode();
    assert_eq!(sim, good_sim, "{tag}: memoized result is the live one");

    let before = cache.stats();
    assert_eq!(run(&cache, cfg), CacheDisposition::Hit, "{tag}: healed entry hits");
    let after = cache.stats();
    assert_eq!((after.misses, after.sim_misses), (before.misses, before.sim_misses), "{tag}");
    let _ = fs::remove_dir_all(&dir);
}

/// The raw body `side` locates, streamed from its object and verified.
fn read_body(store: &TraceStore, side: &Sidecar) -> Vec<u8> {
    let mut body = store.open_body(side).expect("object opens");
    let mut raw = Vec::new();
    body.read_to_end(&mut raw).expect("object reads");
    body.finish(&side.cid).expect("object verifies");
    raw
}

/// Store `raw` as `side`'s body, then file its object under `cid` (a
/// copy) and rewrite the manifest to name it there.
fn repoint(store: &TraceStore, side: &Sidecar, raw: &[u8], cid: [u8; 32]) -> [u8; 32] {
    let mut moved = side.clone();
    store.put(&side.key, &mut moved, raw).expect("store the body");
    let opath = store.object_path(&cid);
    fs::create_dir_all(opath.parent().expect("shard")).expect("shard dir");
    if cid != moved.cid {
        fs::copy(store.object_path(&moved.cid), &opath).expect("copy object");
    }
    moved.cid = cid;
    fs::write(store.manifest_path(&side.key), moved.encode()).expect("rewrite manifest");
    cid
}

#[test]
fn flipped_payload_byte_evicts_and_reheals() {
    drill("drill-flip", |store, side| {
        let path = store.object_path(&side.cid);
        let mut image = fs::read(&path).expect("object");
        let mid = (OBJECT_HEADER_LEN + image.len()) / 2;
        image[mid] ^= 0x01;
        fs::write(&path, &image).expect("rewrite");
        side.cid
    });
}

#[test]
fn truncated_object_file_evicts_and_reheals() {
    drill("drill-truncate", |store, side| {
        let path = store.object_path(&side.cid);
        let len = fs::metadata(&path).expect("object").len();
        OpenOptions::new().write(true).open(&path).unwrap().set_len(len - 1).expect("truncate");
        side.cid
    });
}

#[test]
fn wrong_raw_len_evicts_and_reheals() {
    drill("drill-rawlen", |store, side| {
        let path = store.object_path(&side.cid);
        let mut image = fs::read(&path).expect("object");
        image[6..OBJECT_HEADER_LEN].copy_from_slice(&(side.trace_bytes + 1).to_le_bytes());
        fs::write(&path, &image).expect("rewrite");
        side.cid
    });
}

#[test]
fn bytes_after_the_trace_trailer_evict_and_reheal() {
    drill("drill-trailing", |store, side| {
        // A body that hashes to its own CID, whose trace ends early.
        let mut raw = read_body(store, side);
        raw.extend_from_slice(b"bytes after the trailer");
        repoint(store, side, &raw, sha256(&raw))
    });
}

#[test]
fn decodable_body_under_the_wrong_cid_evicts_and_reheals() {
    drill("drill-wrong-cid", |store, side| {
        // The cell's own, fully decodable body, filed under another CID.
        let raw = read_body(store, side);
        repoint(store, side, &raw, sha256(b"some other trace"))
    });
}
