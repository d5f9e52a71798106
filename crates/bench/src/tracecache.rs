//! The record-once/replay-many µop trace cache.
//!
//! The paper's methodology is trace-driven: each V8 execution is captured
//! once and fed to the simulator for every microarchitectural
//! configuration (§5). [`TraceCache`] is that layer for this harness. An
//! entry memoizes one *measured-iteration* engine execution: a sidecar
//! with everything the runner measures ([`checkelide_isa::CounterSink`]
//! snapshot, Figure 3 row, Class Cache / VM / object statistics,
//! checksum), plus the µop stream in the compact binary format of
//! [`checkelide_isa::codec`] — so an untimed hit never touches the trace
//! body at all and a timed hit streams it from the store into a fresh
//! `CoreSim` instead of re-running the engine, using the result only once
//! the body has verified (`TraceCache::replay_body`).
//!
//! `TraceCache` is either off (lookups never hit, nothing is recorded)
//! or a thin front-end over a local [`crate::store::TraceStore`]
//! directory (manifest index → SHA-256-addressed, deduplicated,
//! LZ-compressed objects). A store that cannot be opened disables the
//! cache with a warning, and a failed read or write is just a miss (live
//! execution) — a cache problem is never a run failure.
//!
//! # Key schema
//!
//! Entries are keyed by every input that can influence the µop stream:
//!
//! ```text
//! bench|s<scale>|<mechanism>|opt<bool>|bbv<bool>|it<iterations>
//!      |cc<entries>x<ways>|src<kernel hash>|e<µop source fp>|c<codec version>
//! ```
//!
//! The kernel hash is the first 64 bits of the SHA-256 of the
//! benchmark's njs source, so editing a kernel invalidates exactly that
//! kernel's entries.
//! The µop source fingerprint is `UOP_SOURCE_FP`, which `build.rs`
//! computes over the sources of every crate that shapes the µop stream
//! (lang, runtime, core, engine, opt, isa) and `runner.rs`, which fills
//! the sidecar. Any edit there — even to a comment — invalidates every
//! entry at once, with no revision number to remember to bump
//! ([`current_key_suffix`] is what `tracegc` keeps). The codec version
//! describes the stored bytes, not behaviour. `RunConfig::timing` is
//! deliberately **not** part of the key: the timing model is a pure
//! consumer of the trace, so a trace recorded by an untimed
//! characterization run can be replayed through `CoreSim` for a timed one
//! and vice versa — this is exactly what lets `fig2`/`fig3` reuse
//! `fig1`'s executions and `overheads` reuse `fig8`/`fig9`'s.
//!
//! The key is hashed (FNV-1a 64) into the manifest file stem; the full
//! key string is stored inside the manifest and compared on load, so a
//! hash collision degrades to a cache miss, never to wrong data.
//!
//! # Activation
//!
//! The `--trace-cache DIR|off` flag (`off`/`0`/`none` disables), else the
//! binary's default (`reproduce` defaults to `target/trace-cache`;
//! standalone figure binaries default off so a single-figure run never
//! pays recording overhead unasked). Object compression is on unless
//! `--trace-compress` says `off`. No environment variable changes either.
//!
//! All statistics are atomics: one `TraceCache` is shared by reference
//! across the [`crate::pool`] workers.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::cli::Cli;
use crate::runner::{CacheDisposition, RunConfig, SimTelemetry};
use crate::simcache::{sim_fingerprint, SimCacheMode};
use crate::store::{cid_hex, sha256, ObjectImage, ObjectWriter, Sidecar, TraceStore};
use crate::suite::find;
use checkelide_engine::Mechanism;
use checkelide_isa::codec::{TraceError, TraceReader};
use checkelide_isa::TraceSink;
use checkelide_uarch::{SimObject, SimResult, SIM_OBJECT_LEN};

/// Default cache directory for binaries that enable the cache by default.
pub const DEFAULT_TRACE_CACHE_DIR: &str = "target/trace-cache";

/// Snapshot of cache activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCacheStats {
    /// Entries served without engine execution.
    pub hits: u64,
    /// Lookups that had to execute the engine.
    pub misses: u64,
    /// Entries recorded.
    pub stores: u64,
    /// Recorded entries whose trace body already existed (cross-key
    /// dedup).
    pub dedup_stores: u64,
    /// Cache bytes read: manifests, sim objects and object files in their
    /// stored (possibly compressed) form.
    pub bytes_read: u64,
    /// Cache bytes written (manifests + stored trace bodies, i.e.
    /// post-compression).
    pub bytes_written: u64,
    /// Raw (pre-compression) trace bytes recorded; with `bytes_written`
    /// this yields the effective compression+dedup ratio.
    pub raw_bytes_written: u64,
    /// Timed cells served from a memoized sim result (no trace decode,
    /// no `CoreSim`).
    pub sim_hits: u64,
    /// Timed cells that had to run `CoreSim` while the sim cache wanted a
    /// hit (cold key or evicted object).
    pub sim_misses: u64,
    /// Sim results published.
    pub sim_stores: u64,
    /// Verify-mode hits whose memoized result was not bit-identical to
    /// the live re-simulation (must stay 0).
    pub sim_verify_mismatches: u64,
}

/// The trace cache. Thread-safe: share by reference across pool workers.
#[derive(Debug)]
pub struct TraceCache {
    /// The backing store; `None` when the cache is off.
    store: Option<TraceStore>,
    sim_mode: SimCacheMode,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    dedup_stores: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    raw_bytes_written: AtomicU64,
    sim_hits: AtomicU64,
    sim_misses: AtomicU64,
    sim_stores: AtomicU64,
    sim_verify_mismatches: AtomicU64,
}

fn is_off(spec: &str) -> bool {
    matches!(spec, "off" | "0" | "none" | "")
}

impl TraceCache {
    fn with_store(store: Option<TraceStore>) -> TraceCache {
        TraceCache {
            store,
            sim_mode: SimCacheMode::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            dedup_stores: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            raw_bytes_written: AtomicU64::new(0),
            sim_hits: AtomicU64::new(0),
            sim_misses: AtomicU64::new(0),
            sim_stores: AtomicU64::new(0),
            sim_verify_mismatches: AtomicU64::new(0),
        }
    }

    /// Override the sim-cache mode (builder style, used by `from_cli`).
    #[must_use]
    pub fn with_sim_mode(mut self, mode: SimCacheMode) -> TraceCache {
        self.sim_mode = mode;
        self
    }

    /// The effective sim-cache mode: the configured mode, except that a
    /// disabled cache forces `Off` (there is nowhere to read or write
    /// sim objects).
    #[must_use]
    pub fn sim_mode(&self) -> SimCacheMode {
        if self.enabled() {
            self.sim_mode
        } else {
            SimCacheMode::Off
        }
    }

    /// A cache that never hits and never records (all lookups report
    /// [`crate::runner::CacheDisposition::Off`]).
    #[must_use]
    pub fn disabled() -> TraceCache {
        TraceCache::with_store(None)
    }

    /// A cache over a local store rooted at `dir` (created if missing;
    /// falls back to disabled with a warning when the directory cannot be
    /// created). Objects are compressed.
    pub fn at(dir: impl AsRef<Path>) -> TraceCache {
        TraceCache::open(dir.as_ref(), true)
    }

    fn open(dir: &Path, compress: bool) -> TraceCache {
        match TraceStore::open(dir, compress) {
            Ok(store) => TraceCache::with_store(Some(store)),
            Err(e) => {
                eprintln!(
                    "warning: trace cache disabled: cannot open store at {}: {e}",
                    dir.display()
                );
                TraceCache::disabled()
            }
        }
    }

    /// Resolve from an explicit `--trace-cache` value or the binary's
    /// default: `off`/`0`/`none`/empty disables, anything else is a store
    /// directory. A spec naming the removed TCP trace-store service is
    /// treated like an unopenable store: it warns and disables the cache.
    fn resolve(flag: Option<&str>, default_on: bool, compress: bool) -> TraceCache {
        match flag {
            Some(s) if is_off(s) => TraceCache::disabled(),
            Some(s) if s.starts_with("tcp://") => {
                eprintln!(
                    "warning: trace cache disabled: {s}: the tcp:// trace store service \
                     was removed; pass a store directory instead"
                );
                TraceCache::disabled()
            }
            Some(s) => TraceCache::open(Path::new(s), compress),
            None if default_on => TraceCache::open(Path::new(DEFAULT_TRACE_CACHE_DIR), compress),
            None => TraceCache::disabled(),
        }
    }

    /// Resolve from a parsed [`Cli`]
    /// (`--trace-cache DIR|off`, `--trace-compress off`, `--sim-cache`).
    #[must_use]
    pub fn from_cli(cli: &Cli, default_on: bool) -> TraceCache {
        let compress = !cli.value_of("--trace-compress").is_some_and(is_off);
        TraceCache::resolve(cli.value_of("--trace-cache"), default_on, compress)
            .with_sim_mode(SimCacheMode::resolve(cli.value_of("--sim-cache")))
    }

    /// Whether lookups can ever hit.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.store.is_some()
    }

    /// The local store directory, when the cache is enabled.
    #[must_use]
    pub fn dir(&self) -> Option<&Path> {
        self.store.as_ref().map(TraceStore::root)
    }

    /// The underlying local store, when the cache is enabled.
    #[must_use]
    pub fn local_store(&self) -> Option<&TraceStore> {
        self.store.as_ref()
    }

    /// Current activity counters.
    #[must_use]
    pub fn stats(&self) -> TraceCacheStats {
        TraceCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            dedup_stores: self.dedup_stores.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            raw_bytes_written: self.raw_bytes_written.load(Ordering::Relaxed),
            sim_hits: self.sim_hits.load(Ordering::Relaxed),
            sim_misses: self.sim_misses.load(Ordering::Relaxed),
            sim_stores: self.sim_stores.load(Ordering::Relaxed),
            sim_verify_mismatches: self.sim_verify_mismatches.load(Ordering::Relaxed),
        }
    }

    /// Count one [`crate::runner::try_run_benchmark_cached`] call: how
    /// its cell was served and its sim-cache activity. The one place hits,
    /// misses and sim activity are counted, so the store-wide totals are
    /// the sums of the per-cell ones.
    pub(crate) fn count(&self, disposition: CacheDisposition, sim: SimTelemetry) {
        match disposition {
            CacheDisposition::Hit => self.hits.fetch_add(1, Ordering::Relaxed),
            CacheDisposition::Miss => self.misses.fetch_add(1, Ordering::Relaxed),
            CacheDisposition::Off => return,
        };
        self.sim_hits.fetch_add(sim.hits, Ordering::Relaxed);
        self.sim_misses.fetch_add(sim.misses, Ordering::Relaxed);
        self.sim_verify_mismatches.fetch_add(sim.verify_mismatches, Ordering::Relaxed);
    }

    /// Look up the memoized simulation of the trace `side` locates under
    /// the current config fingerprint. An object whose µop count
    /// disagrees with the manifest is evicted, so the re-simulation's
    /// publish replaces it instead of finding it already in place.
    pub(crate) fn sim_fetch(&self, side: &Sidecar) -> Option<SimObject> {
        let store = self.store.as_ref()?;
        let obj = store.sim_get(&side.cid, sim_fingerprint())?;
        self.bytes_read.fetch_add(SIM_OBJECT_LEN as u64, Ordering::Relaxed);
        if obj.result.uops != side.uops {
            eprintln!(
                "warning: memoized sim result for {} disagrees with its manifest; \
                 re-simulating",
                side.key
            );
            let _ = std::fs::remove_file(store.sim_path(&side.cid, sim_fingerprint()));
            return None;
        }
        Some(obj)
    }

    /// Publish a simulation result for a trace CID. A no-op when the sim
    /// cache is off; failures warn and return (a cache problem is never a
    /// run failure).
    pub(crate) fn sim_publish(&self, cid: &[u8; 32], result: &SimResult) {
        let Some(store) = &self.store else { return };
        if self.sim_mode == SimCacheMode::Off {
            return;
        }
        let obj = SimObject::new(*cid, sim_fingerprint(), result.clone());
        match store.sim_put(&obj) {
            Ok(()) => {
                self.sim_stores.fetch_add(1, Ordering::Relaxed);
                self.bytes_written.fetch_add(SIM_OBJECT_LEN as u64, Ordering::Relaxed);
            }
            Err(e) => eprintln!("warning: sim cache store failed: {e}"),
        }
    }

    /// Look up `key`'s manifest (an existence and size check of its
    /// object, no body read). Any failure — absence or corruption — is a
    /// `None` miss; the caller records live.
    pub(crate) fn fetch(&self, key: &str) -> Option<Sidecar> {
        let side = self.store.as_ref()?.stat(key)?;
        self.bytes_read.fetch_add(side.encode().len() as u64, Ordering::Relaxed);
        Some(side)
    }

    /// Replay the trace body `side` locates into `sink` through the
    /// store's streamed reader, and return the µops replayed only once
    /// the body has passed its end-of-read checks (length, trailing
    /// bytes, content hash). Counts the object bytes read.
    ///
    /// `sink` consumes bytes before their hash is known: on an error the
    /// caller must discard everything it computed and evict the entry.
    pub(crate) fn replay_body(
        &self,
        side: &Sidecar,
        sink: &mut dyn TraceSink,
    ) -> Result<u64, TraceError> {
        let store = self.store.as_ref().ok_or(TraceError::Corrupt {
            offset: 0,
            what: "trace body replay with the cache off",
        })?;
        let mut body = store.open_body(side).map_err(|e| TraceError::Io(e.into()))?;
        let replayed = TraceReader::new(&mut body).and_then(|mut r| r.replay(sink));
        let verified = replayed.and_then(|n| {
            body.finish(&side.cid).map_err(|e| TraceError::Io(e.into()))?;
            Ok(n)
        });
        self.bytes_read.fetch_add(body.stored_read(), Ordering::Relaxed);
        verified
    }

    /// A writer that streams a recording into an object file of this
    /// cache's store (LZ-compressed unless compression is off); its
    /// finished image is what [`TraceCache::publish`] takes.
    pub(crate) fn object_writer(&self) -> io::Result<ObjectWriter> {
        self.store
            .as_ref()
            .ok_or_else(|| io::Error::other("the trace cache is off"))?
            .object_writer()
    }

    /// Publish a recording's finished object under `side.key`: fills
    /// `side`'s store-location fields, renames the object file into the
    /// store (or drops it on a dedup), writes the manifest, and counts the
    /// store. Failures warn and return; a cache problem is never a run
    /// failure.
    pub(crate) fn publish(&self, side: &mut Sidecar, image: ObjectImage) {
        let Some(store) = &self.store else { return };
        let raw_len = image.raw_len;
        match store.put_object(side, image) {
            Ok(outcome) => {
                self.stores.fetch_add(1, Ordering::Relaxed);
                if outcome.deduped {
                    self.dedup_stores.fetch_add(1, Ordering::Relaxed);
                }
                let body = if outcome.deduped { 0 } else { outcome.stored_bytes };
                self.raw_bytes_written.fetch_add(raw_len, Ordering::Relaxed);
                self.bytes_written
                    .fetch_add(side.encode().len() as u64 + body, Ordering::Relaxed);
            }
            Err(e) => eprintln!("warning: trace cache store for {} failed: {e}", side.key),
        }
    }

    /// Drop an entry that failed to serve its cell: its manifest and the
    /// object `cid`, so the re-recording publishes a fresh object rather
    /// than deduplicating against the failed one.
    pub(crate) fn evict(&self, key: &str, cid: &[u8; 32]) {
        if let Some(store) = &self.store {
            store.evict_entry(key, Some(cid));
        }
    }
}

/// Canonical key string for one cell. Everything that can influence the
/// measured µop stream is included; `timing` is not (see module docs).
#[must_use]
pub fn cache_key(bench: &str, scale: i32, cfg: &RunConfig) -> String {
    key_for_source(bench, find(bench).map_or("", |b| b.source), scale, cfg)
}

/// [`cache_key`] with the benchmark's njs `source` passed in.
fn key_for_source(bench: &str, source: &str, scale: i32, cfg: &RunConfig) -> String {
    let src = &cid_hex(&sha256(source.as_bytes()))[..16];
    let mech = match cfg.mechanism {
        Mechanism::Off => "off",
        Mechanism::ProfileOnly => "profile",
        Mechanism::Full => "full",
    };
    format!(
        "{bench}|s{scale}|{mech}|opt{}|bbv{}|it{}|cc{}x{}|src{src}{}",
        cfg.opt,
        cfg.bbv,
        cfg.iterations,
        cfg.class_cache.entries,
        cfg.class_cache.ways,
        current_key_suffix(),
    )
}

/// The suffix every *current* key ends with
/// (`|e<µop source fp>|c<codec version>`). `tracegc` drops entries whose
/// stored key carries any other suffix.
#[must_use]
pub fn current_key_suffix() -> String {
    format!("|e{}|c{}", env!("UOP_SOURCE_FP"), checkelide_isa::codec::TRACE_VERSION)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::RunConfig;

    #[test]
    fn key_distinguishes_configs() {
        let base = RunConfig::characterize();
        let k0 = cache_key("ai-astar", 4, &base);
        assert_ne!(k0, cache_key("ai-astar", 5, &base));
        assert_ne!(k0, cache_key("splay", 4, &base));
        assert_ne!(k0, cache_key("ai-astar", 4, &RunConfig::baseline_timed()));
        let mut cc = base;
        cc.class_cache.entries = 64;
        assert_ne!(k0, cache_key("ai-astar", 4, &cc));
        let mut it = base;
        it.iterations = 3;
        assert_ne!(k0, cache_key("ai-astar", 4, &it));
        // BBV changes the µop stream (checks drop out of specialized
        // block versions): its traces must never collide with non-BBV
        // traces of the same mechanism.
        let bbv = base.with_bbv(true);
        assert_ne!(k0, cache_key("ai-astar", 4, &bbv));
    }

    #[test]
    fn key_changes_with_the_kernel_source() {
        let cfg = RunConfig::characterize();
        let src = find("richards").expect("richards").source;
        assert_eq!(cache_key("richards", 4, &cfg), key_for_source("richards", src, 4, &cfg));
        // One byte changed anywhere in the source changes the key.
        for at in [0, src.len() / 2, src.len() - 1] {
            let mut edited = src.as_bytes().to_vec();
            edited[at] ^= 1;
            let edited = String::from_utf8(edited).expect("ascii source");
            assert_ne!(
                key_for_source("richards", src, 4, &cfg),
                key_for_source("richards", &edited, 4, &cfg),
                "byte {at}"
            );
        }
    }

    #[test]
    fn key_ignores_timing() {
        // The timing model is a pure trace consumer: a trace recorded by an
        // untimed run must be reusable by a timed one.
        let mut timed = RunConfig::characterize();
        timed.timing = true;
        assert_eq!(
            cache_key("ai-astar", 4, &RunConfig::characterize()),
            cache_key("ai-astar", 4, &timed)
        );
    }

    #[test]
    fn keys_end_with_the_current_salt_suffix() {
        let key = cache_key("ai-astar", 4, &RunConfig::characterize());
        assert!(key.ends_with(&current_key_suffix()), "gc keep-suffix must match {key}");
        // `|e` + the 16-hex-digit µop source fingerprint + `|c<codec>`.
        let suffix = current_key_suffix();
        let fp = &suffix[2..suffix.rfind("|c").expect("codec part")];
        assert_eq!(fp.len(), 16, "{suffix}");
        assert!(fp.bytes().all(|b| b.is_ascii_hexdigit()), "{suffix}");
        assert_eq!(fp, env!("UOP_SOURCE_FP"));
    }

    #[test]
    fn disabled_cache_has_no_entries() {
        let c = TraceCache::disabled();
        assert!(!c.enabled());
        assert_eq!(c.sim_mode(), SimCacheMode::Off);
        assert!(c.local_store().is_none());
    }

    #[test]
    fn resolve_honors_off_spellings() {
        for s in ["off", "0", "none", ""] {
            assert!(!TraceCache::resolve(Some(s), true, true).enabled());
        }
    }

    #[test]
    fn stale_tcp_spec_disables_the_cache_without_creating_a_directory() {
        let cache = TraceCache::resolve(Some("tcp://127.0.0.1:1"), true, true);
        assert!(!cache.enabled(), "a tcp:// spec must not open a store");
        assert!(!Path::new("tcp:").exists(), "a tcp:// spec must not become a directory");
    }

    fn cli(args: &[&str]) -> Cli {
        Cli::from_args(args.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn trace_compress_flag_reaches_the_store() {
        let dir = std::env::temp_dir()
            .join(format!("checkelide-compress-flag-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = dir.to_str().expect("utf-8 temp dir");
        let cache =
            TraceCache::from_cli(&cli(&["--trace-cache", spec, "--trace-compress", "off"]), false);
        let store = cache.local_store().expect("store opens");
        assert_eq!(store.root(), dir.as_path());
        assert!(!store.compress(), "--trace-compress off must reach the store");
        let cache = TraceCache::from_cli(&cli(&["--trace-cache", spec]), false);
        assert!(cache.local_store().expect("store opens").compress(), "compression defaults on");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_timed_hit_reads_the_manifest_and_the_stored_object() {
        let dir = std::env::temp_dir()
            .join(format!("checkelide-bytes-read-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Sim cache off, so the hit replays the trace body.
        let cache = TraceCache::at(&dir).with_sim_mode(SimCacheMode::Off);
        let bench = find("ai-astar").expect("suite has ai-astar");
        let cfg = RunConfig::baseline_timed().with_scale(1).with_iterations(2);
        let run = || crate::runner::try_run_benchmark_cached(bench, cfg, &cache).expect("runs").1;
        assert_eq!(run(), crate::runner::CacheDisposition::Miss);
        let store = cache.local_store().expect("store");
        let key = cache_key("ai-astar", 1, &cfg);
        let side = store.stat(&key).expect("recorded");
        assert!(side.stored_bytes < side.trace_bytes, "the object is stored compressed");
        let before = cache.stats();
        assert_eq!(run(), crate::runner::CacheDisposition::Hit);
        let after = cache.stats();
        let manifest = std::fs::metadata(store.manifest_path(&key)).expect("manifest").len();
        assert_eq!(after.bytes_read - before.bytes_read, manifest + side.stored_bytes);
        assert_eq!(after.hits - before.hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
