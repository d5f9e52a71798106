//! Integration tests for the content-addressed trace store service:
//! concurrent recording through atomic publish, the loopback protocol
//! path (cold record → warm replay, multiple clients sharing one warm
//! store), resilience to corrupt frames on both ends of the wire, and
//! the `tracestored --gc` maintenance pass.

use checkelide_bench::proto::{serve, RemoteStore};
use checkelide_bench::runner::{try_run_benchmark_cached, CacheDisposition, RunConfig};
use checkelide_bench::store::{ObjectImage, ObjectWriter};
use checkelide_bench::{find, sim_fingerprint, Benchmark, TraceCache, TraceStore};
use checkelide_uarch::{SimObject, SIM_OBJECT_LEN};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};

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

/// Spawn a store server over `dir` on a loopback port and run `body`
/// against its address. The server thread exits when `body` returns.
fn with_server<R>(dir: &Path, body: impl FnOnce(&str) -> R) -> R {
    let store = TraceStore::open(dir, true).expect("open server store");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("addr").to_string();
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let server = scope.spawn(|| serve(&listener, &store, &stop));
        // A panicking body (failed assertion) must still stop the server:
        // otherwise the scope joins a thread that never exits and the
        // test deadlocks instead of failing.
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&addr)));
        stop.store(true, Ordering::Release);
        server.join().expect("server thread").expect("server exits cleanly");
        match out {
            Ok(out) => out,
            Err(panic) => std::panic::resume_unwind(panic),
        }
    })
}

/// The full protocol path: a cold client records through PUT, a second
/// client (a separate connection, as a separate process would be) replays
/// through GET, and both produce the output a cache-off run produces.
/// Per-client hit counters stay distinct — that is what run_meta.json
/// reports when several figure binaries share one warm server.
#[test]
fn loopback_server_round_trip_and_shared_warm_store() {
    let dir = fresh_dir("loopback");
    let cfg = quick_cfg();
    let (reference, _, _) = try_run_benchmark_cached(bench(), cfg, &TraceCache::disabled())
        .expect("cache-off reference run");

    with_server(&dir, |addr| {
        let fallback = fresh_dir("loopback-unused-fallback");
        let writer = TraceCache::remote_or(addr, fallback.to_str().expect("utf8 path"));
        assert_eq!(writer.backend_label(), "tcp", "server must be reachable");

        // Cold: miss, record, PUT.
        let (cold, disp, _) = try_run_benchmark_cached(bench(), cfg, &writer).expect("cold");
        assert_eq!(disp, CacheDisposition::Miss);
        assert_eq!(cold.checksum, reference.checksum);
        assert_eq!(cold.uops, reference.uops);
        let ws = writer.stats();
        assert_eq!(ws.stores, 1, "cold client stored through PUT");

        // Two more clients share the now-warm store concurrently; each
        // tracks its own hits (the per-process counters run_meta keeps).
        std::thread::scope(|scope| {
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        let c = TraceCache::remote_or(addr, "unused-fallback");
                        assert_eq!(c.backend_label(), "tcp");
                        let (out, disp, _) =
                            try_run_benchmark_cached(bench(), cfg, &c).expect("warm");
                        (out, disp, c.stats())
                    })
                })
                .collect();
            for r in readers {
                let (out, disp, stats) = r.join().expect("no panic");
                assert_eq!(disp, CacheDisposition::Hit, "warm client must hit");
                assert_eq!(out.checksum, reference.checksum, "replay differs from live");
                assert_eq!(out.uops, reference.uops);
                assert_eq!(stats.remote_hits, 1, "hit tracked on this client");
                assert_eq!(stats.local_hits, 0);
                assert_eq!(stats.remote_errors, 0);
            }
        });

        // The server-side view agrees: one object, served several times.
        let probe = RemoteStore::connect(addr).expect("probe connection");
        let stats = probe.list().expect("LIST");
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.objects, 1);
        assert_eq!(stats.puts, 1);
        assert!(stats.hits >= 2, "server counted the warm GETs");
        let _ = std::fs::remove_dir_all(&fallback);
    });
    let _ = std::fs::remove_dir_all(&dir);
}

fn send_raw(addr: &str, bytes: &[u8]) -> Vec<u8> {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.write_all(bytes).expect("write");
    let _ = s.shutdown(std::net::Shutdown::Write);
    let mut buf = Vec::new();
    let _ = s.read_to_end(&mut buf); // server may close without replying
    buf
}

/// Malformed input must never take the server down: each abusive
/// connection gets an error frame (or a plain close), and a well-formed
/// request on a fresh connection still succeeds afterwards.
#[test]
fn server_survives_corrupt_and_truncated_frames() {
    let dir = fresh_dir("server-abuse");
    // Seed one entry so the final liveness probe has something to STAT.
    let seed = TraceCache::at(&dir);
    let cfg = quick_cfg();
    assert_eq!(run_one(&seed, cfg), CacheDisposition::Miss);
    let key = seed.entry("ai-astar", 1, &cfg).expect("enabled").key;
    drop(seed);

    with_server(&dir, |addr| {
        // Oversized length prefix (2 GiB claim).
        send_raw(addr, &(2u32 << 30).to_le_bytes());
        // Truncated frame: claims 100 bytes, delivers 5, then closes.
        let mut trunc = 100u32.to_le_bytes().to_vec();
        trunc.extend_from_slice(b"stub!");
        send_raw(addr, &trunc);
        // Empty frame (no op byte).
        send_raw(addr, &0u32.to_le_bytes());
        // Unknown op.
        let mut unk = 1u32.to_le_bytes().to_vec();
        unk.push(b'?');
        let resp = send_raw(addr, &unk);
        assert!(resp.len() >= 5, "unknown op earns an error frame");
        assert_eq!(resp[4], 2, "STATUS_ERROR");
        // Malformed PUT: op + garbage that cannot parse as key/sidecar.
        let mut put = Vec::new();
        let body = [b'P', 0xff, 0xff, 0xff, 0xff, 1, 2, 3];
        put.extend_from_slice(&(body.len() as u32).to_le_bytes());
        put.extend_from_slice(&body);
        let resp = send_raw(addr, &put);
        assert!(resp.len() >= 5, "malformed PUT earns an error frame");
        assert_eq!(resp[4], 2, "STATUS_ERROR");

        // The server is still alive and still correct.
        let probe = RemoteStore::connect(addr).expect("fresh connection");
        let side = probe.stat(&key).expect("seeded entry still served");
        assert_eq!(side.key, key);
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// A server speaking garbage must never panic the client: a nonsense
/// response degrades the lookup to a miss (or the connect to the local
/// fallback), and a server that dies mid-session turns every later
/// request into a miss.
#[test]
fn client_degrades_to_miss_on_garbage_or_dead_server() {
    // Garbage-speaking "server": replies to anything with a short junk
    // frame. The connect-time LIST ping fails to parse, so the cache
    // falls back to its local directory.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let garbler = std::thread::spawn(move || {
        for stream in listener.incoming().take(1) {
            let Ok(mut s) = stream else { break };
            let mut junk = 7u32.to_le_bytes().to_vec();
            junk.extend_from_slice(b"garbage");
            let _ = s.write_all(&junk);
        }
    });
    let fallback = fresh_dir("client-fallback");
    let cache = TraceCache::remote_or(&addr, fallback.to_str().expect("utf8 path"));
    assert_eq!(
        cache.backend_label(),
        "local",
        "garbage server rejected at connect time; local fallback wins"
    );
    garbler.join().expect("garbler exits");

    // Dead-server degradation: a healthy session whose server goes away
    // answers every subsequent lookup with a miss, never a panic.
    let dir = fresh_dir("dead-server");
    let cfg = quick_cfg();
    let seed = TraceCache::at(&dir);
    assert_eq!(run_one(&seed, cfg), CacheDisposition::Miss);
    let key = seed.entry("ai-astar", 1, &cfg).expect("enabled").key;
    drop(seed);
    let orphaned = with_server(&dir, |addr| {
        let remote = RemoteStore::connect(addr).expect("connect while alive");
        assert!(remote.stat(&key).is_some(), "warm while the server lives");
        remote
    });
    // `with_server` has now shut the server down.
    assert!(orphaned.stat(&key).is_none(), "dead server degrades to a miss");
    assert!(orphaned.errors() > 0, "failure surfaced in the error counter");
    let _ = std::fs::remove_dir_all(&fallback);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `tracestored --gc` pass: stale-salt entries are dropped while
/// current entries survive, and `--max-store-bytes` applies the LRU
/// bound (a 1-byte budget empties the store).
#[test]
fn gc_binary_drops_stale_salt_and_bounds_size() {
    let dir = fresh_dir("gc-bin");
    let cache = TraceCache::at(&dir);
    let cfg = quick_cfg();
    assert_eq!(run_one(&cache, cfg), CacheDisposition::Miss);
    let live_key = cache.entry("ai-astar", 1, &cfg).expect("enabled").key;

    // Hand-plant an entry recorded under an obsolete schema salt.
    let store = cache.local_store().expect("local backend");
    let stale_key = "ai-astar|s1|profile|optfalse|bbvfalse|it2|cc0x0|e0.0.0+rev0|c0";
    let mut stale = store.stat(&live_key).expect("live entry").clone();
    store.put(stale_key, &mut stale, b"stale trace body").expect("plant stale");
    assert!(store.stat(stale_key).is_some());

    let gc = |extra: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_tracestored"))
            .arg("--gc")
            .arg("--store")
            .arg(&dir)
            .args(extra)
            .output()
            .expect("run tracestored --gc");
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

/// The `--gc` pass on the sim-result layer: stale-`SIM_SCHEMA_REV` and
/// orphaned (trace-less) sim objects are reclaimed while the live one
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
    let key = cache.entry("ai-astar", 1, &cfg).expect("enabled").key;
    let store = cache.local_store().expect("local backend");
    let side = store.stat(&key).expect("entry recorded");
    let fp = sim_fingerprint();
    let good = store.sim_get(&side.cid, fp).expect("cold run published its sim result");

    // Plant a stale-revision sim object (valid checksum, obsolete
    // schema_rev) under a sibling fingerprint, and a valid sim riding on
    // a stale-salt trace entry: when gc drops that entry, its sim loses
    // its last manifest reference and must be reclaimed as an orphan in
    // the same pass. (A sim with no manifest at all never reaches gc —
    // the store sweeps those at open.)
    let stale = SimObject {
        schema_rev: 0,
        trace_cid: side.cid,
        fingerprint: fp ^ 1,
        result: good.result.clone(),
    };
    store.sim_put(&stale).expect("plant stale sim");
    let stale_key = "ai-astar|s1|profile|optfalse|bbvfalse|it2|cc0x0|e0.0.0+rev0|c0";
    let mut doomed_side = side.clone();
    store.put(stale_key, &mut doomed_side, b"stale trace body").expect("plant stale entry");
    let doomed = SimObject::new(doomed_side.cid, fp, good.result.clone());
    store.sim_put(&doomed).expect("plant doomed sim");
    assert_eq!(store.sim_summary().0, 3, "live + stale + doomed planted");

    let gc = |extra: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_tracestored"))
            .arg("--gc")
            .arg("--store")
            .arg(&dir)
            .args(extra)
            .output()
            .expect("run tracestored --gc");
        assert!(out.status.success(), "gc failed: {}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8_lossy(&out.stdout).into_owned()
    };

    let report = gc(&[]);
    assert!(report.contains("1 stale + 1 orphan sim objects"), "gc reports sim work: {report}");
    assert!(store.sim_get(&side.cid, fp).is_some(), "current sim object survives");
    assert!(!store.sim_path(&side.cid, fp ^ 1).exists(), "stale-rev sim reclaimed");
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

/// Hostile sim-layer frames must never take the server down: malformed
/// keys and invalid SIMPUT bodies earn error frames, and afterwards the
/// full SIMSTAT/SIMGET/SIMPUT round trip (plus the LIST counters and the
/// dead-server degradation on the client) still behaves.
#[test]
fn server_survives_hostile_sim_frames_and_serves_sim_round_trip() {
    let dir = fresh_dir("sim-abuse");
    let cache = TraceCache::at(&dir);
    let cfg = RunConfig::baseline_timed().with_scale(1).with_iterations(2);
    assert_eq!(run_one(&cache, cfg), CacheDisposition::Miss);
    let key = cache.entry("ai-astar", 1, &cfg).expect("enabled").key;
    let store = cache.local_store().expect("local backend");
    let side = store.stat(&key).expect("recorded");
    let fp = sim_fingerprint();
    let good = store.sim_get(&side.cid, fp).expect("memoized");

    let frame = |body: &[u8]| {
        let mut f = (body.len() as u32).to_le_bytes().to_vec();
        f.extend_from_slice(body);
        f
    };
    let orphaned = with_server(&dir, |addr| {
        // A well-formed sim key body is op + cid (32) + fingerprint (8).
        // One byte short, one byte long, and empty payloads must all earn
        // STATUS_ERROR, not a parse of adjacent memory.
        for len in [0, 39, 41] {
            let mut body = vec![b's'];
            body.resize(1 + len, 0u8);
            let resp = send_raw(addr, &frame(&body));
            assert!(resp.len() >= 5, "malformed SIMSTAT key earns an error frame");
            assert_eq!(resp[4], 2, "STATUS_ERROR for sim key of {len} bytes");
        }
        // SIMPUT bodies: garbage of the right length, and a
        // valid-checksum object carrying a stale schema revision — the
        // server must refuse to publish either.
        let mut put = vec![b'p'];
        put.extend_from_slice(&[0x5a; SIM_OBJECT_LEN]);
        let resp = send_raw(addr, &frame(&put));
        assert_eq!(resp[4], 2, "corrupt SIMPUT body refused");
        let stale = SimObject {
            schema_rev: 0,
            trace_cid: side.cid,
            fingerprint: fp ^ 1,
            result: good.result.clone(),
        };
        let mut put = vec![b'p'];
        put.extend_from_slice(&stale.encode());
        let resp = send_raw(addr, &frame(&put));
        assert_eq!(resp[4], 2, "stale-revision SIMPUT refused");
        assert_eq!(store.sim_summary().0, 1, "no hostile object published");

        // The server is alive and the sim protocol works end to end.
        let remote = RemoteStore::connect(addr).expect("fresh connection");
        assert!(remote.sim_stat(&side.cid, fp), "SIMSTAT sees the memoized result");
        let back = remote.sim_get(&side.cid, fp).expect("SIMGET serves it");
        assert_eq!(back.encode(), good.encode(), "wire round trip is bitwise");
        assert!(!remote.sim_stat(&side.cid, fp ^ 1), "absent key is a clean miss");
        assert!(remote.sim_get(&side.cid, fp ^ 1).is_none());
        let fresh = SimObject::new(side.cid, fp ^ 1, good.result.clone());
        assert!(remote.sim_put(&fresh), "valid SIMPUT accepted");
        let served = remote.sim_get(&side.cid, fp ^ 1).expect("published object served");
        assert_eq!(served.encode(), fresh.encode());

        let stats = remote.list().expect("LIST");
        assert_eq!(stats.sim_objects, 2);
        assert_eq!(stats.sim_object_bytes, 2 * SIM_OBJECT_LEN as u64);
        assert!(stats.sim_hits >= 2, "served SIMGETs counted");
        assert!(stats.sim_misses >= 2, "missed lookups counted");
        assert!(stats.sim_puts >= 1, "publish counted");
        remote
    });
    // Server gone: sim lookups degrade to misses, never panics.
    assert!(!orphaned.sim_stat(&side.cid, fp), "dead server degrades SIMSTAT");
    assert!(orphaned.sim_get(&side.cid, fp).is_none(), "dead server degrades SIMGET");
    assert!(orphaned.errors() > 0, "failures surfaced in the error counter");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A server that answers `SIMGET` with nonsense (OK status, garbage
/// payload) must be caught by client-side revalidation: the lookup
/// degrades to `None`, no panic. The fake peer answers the connect-time
/// `LIST` ping correctly so the session gets past the handshake.
#[test]
fn client_rejects_garbage_simget_payload() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let fake = std::thread::spawn(move || {
        // Valid empty-store LIST payload: status OK, CKLS magic,
        // version 2, sixteen zero words.
        let mut list_ok = vec![0u8; 1];
        list_ok.extend_from_slice(b"CKLS");
        list_ok.push(2);
        list_ok.extend_from_slice(&[0u8; 16 * 8]);
        for stream in listener.incoming().take(1) {
            let Ok(mut s) = stream else { break };
            loop {
                let mut len = [0u8; 4];
                if s.read_exact(&mut len).is_err() {
                    break;
                }
                let mut body = vec![0u8; u32::from_le_bytes(len) as usize];
                if s.read_exact(&mut body).is_err() {
                    break;
                }
                let reply = match body.first() {
                    Some(&b'L') => list_ok.clone(),
                    // OK status + garbage payload of the right length.
                    _ => {
                        let mut r = vec![0u8];
                        r.extend_from_slice(&[0x77; SIM_OBJECT_LEN]);
                        r
                    }
                };
                let mut f = (reply.len() as u32).to_le_bytes().to_vec();
                f.extend_from_slice(&reply);
                if s.write_all(&f).is_err() {
                    break;
                }
            }
        }
    });
    let remote = RemoteStore::connect(&addr).expect("handshake passes");
    assert!(
        remote.sim_get(&[0u8; 32], 7).is_none(),
        "garbage SIMGET payload must fail client revalidation"
    );
    drop(remote);
    fake.join().expect("fake server exits");
}

/// Every quick-scale recording of one kernel — each engine
/// configuration `reproduce --quick` records — is streamed frame by
/// frame into its object while the engine runs. The stored image must
/// be exactly what the one-shot builder makes of the raw body, and so
/// must the body fed to an [`ObjectWriter`] in other write sizes.
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
    let manifests = store.manifests();
    assert_eq!(manifests.len(), configs.len());
    for (_, side, _, _) in manifests {
        let image = std::fs::read(store.object_path(&side.cid)).expect("object stored");
        let raw = ObjectImage::decode_verify(&image, &side.cid).expect("object verifies");
        let want = ObjectImage::build(&raw, store.compress());
        assert_eq!(image, want.bytes, "{}", side.key);
        for cuts in [61, 4093] {
            let mut w = ObjectWriter::new(store.compress());
            raw.chunks(cuts).for_each(|c| w.push(c));
            assert_eq!(w.finish().bytes, want.bytes, "{}, writes of {cuts}", side.key);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The kernel whose real traces the object test streams.
const REAL_TRACE_KERNEL: &str = "access-fannkuch";
