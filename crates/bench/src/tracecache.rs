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
//! body at all and a timed hit replays it through a fresh `CoreSim`
//! instead of re-running the engine.
//!
//! Since the content-addressed store rework, `TraceCache` is a thin
//! front-end over one of three backends:
//!
//! * **Off** — lookups never hit, nothing is recorded.
//! * **Local** — a [`crate::store::TraceStore`] directory (manifest index
//!   → SHA-256-addressed, deduplicated, LZ-compressed objects).
//! * **Remote** — a [`crate::proto::RemoteStore`] client speaking the
//!   `tracestored` protocol, so N processes share one warm store. Remote
//!   failures degrade: an unreachable server at resolve time falls back
//!   to the local directory, and a mid-run failure is just a miss (live
//!   execution) — a cache problem is never a run failure.
//!
//! # Key schema
//!
//! Entries are keyed by every input that can influence the µop stream:
//!
//! ```text
//! bench|s<scale>|<mechanism>|opt<bool>|bbv<bool>|it<iterations>
//!      |cc<entries>x<ways>|src<source hash>|e<engine salt>|c<codec version>
//! ```
//!
//! The source hash is the first 64 bits of the SHA-256 of the
//! benchmark's njs source, so editing a kernel invalidates exactly that
//! kernel's entries.
//! The engine salt is [`checkelide_engine::trace_salt`] (crate version +
//! manually-bumped `TRACE_SCHEMA_REV`), so any harness change that alters
//! µop emission invalidates every entry at once ([`current_key_suffix`]
//! is what `tracestored --gc` keeps). `RunConfig::timing` is deliberately
//! **not** part of the key: the timing model is a pure consumer of the
//! trace, so a trace recorded by an untimed characterization run can be
//! replayed through `CoreSim` for a timed one and vice versa — this is
//! exactly what lets `fig2`/`fig3` reuse `fig1`'s executions and
//! `overheads` reuse `fig8`/`fig9`'s.
//!
//! The key is hashed (FNV-1a 64) into the manifest file stem; the full
//! key string is stored inside the manifest and compared on load, so a
//! hash collision degrades to a cache miss, never to wrong data.
//!
//! # Activation
//!
//! Resolution order: the `--trace-cache DIR|tcp://HOST:PORT|off` flag,
//! then the `CHECKELIDE_TRACE_CACHE` environment variable (`off`/`0`/
//! `none` disables), then the binary's default (`reproduce` defaults to
//! `target/trace-cache`; standalone figure binaries default off so a
//! single-figure run never pays recording overhead unasked). Object
//! compression is on unless `CHECKELIDE_TRACE_COMPRESS` (or
//! `--trace-compress`) says `off`.
//!
//! All statistics are atomics: one `TraceCache` is shared by reference
//! across the [`crate::pool`] workers.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::cli::Cli;
use crate::proto::RemoteStore;
use crate::runner::RunConfig;
use crate::simcache::{sim_fingerprint, SimCacheMode};
use crate::store::{cid_hex, fnv1a64, sha256, ObjectImage, ObjectWriter, Sidecar, TraceStore};
use crate::suite::find;
use checkelide_engine::Mechanism;
use checkelide_uarch::{SimObject, SimResult, SIM_OBJECT_LEN};

/// Environment variable selecting the cache backend: a directory,
/// `tcp://host:port`, or `off`/`0`/`none` to disable.
pub const TRACE_CACHE_ENV: &str = "CHECKELIDE_TRACE_CACHE";

/// Environment variable disabling object compression (`off`/`0`/`none`).
pub const TRACE_COMPRESS_ENV: &str = "CHECKELIDE_TRACE_COMPRESS";

/// Default cache directory for binaries that enable the cache by default
/// (and the fallback when a `tcp://` server is unreachable).
pub const DEFAULT_TRACE_CACHE_DIR: &str = "target/trace-cache";

/// Snapshot of cache activity counters (the *client* view; the store and
/// server keep their own).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCacheStats {
    /// Entries served without engine execution (local + remote).
    pub hits: u64,
    /// Hits served by the local store backend.
    pub local_hits: u64,
    /// Hits served over the protocol.
    pub remote_hits: u64,
    /// Lookups that had to execute the engine.
    pub misses: u64,
    /// Entries recorded (local puts + accepted remote puts).
    pub stores: u64,
    /// Recorded entries whose trace body already existed (cross-key
    /// dedup).
    pub dedup_stores: u64,
    /// Cache bytes read (manifests + stored trace bodies).
    pub bytes_read: u64,
    /// Cache bytes written (manifests + stored trace bodies, i.e.
    /// post-compression).
    pub bytes_written: u64,
    /// Raw (pre-compression) trace bytes recorded; with `bytes_written`
    /// this yields the effective compression+dedup ratio.
    pub raw_bytes_written: u64,
    /// Failed remote requests (each degrades to a miss).
    pub remote_errors: u64,
    /// Timed cells served from a memoized sim result (no trace decode,
    /// no `CoreSim`).
    pub sim_hits: u64,
    /// Timed cells that had to run `CoreSim` while the sim cache wanted a
    /// hit (cold key, evicted object, or remote failure).
    pub sim_misses: u64,
    /// Sim results published.
    pub sim_stores: u64,
    /// Verify-mode hits whose memoized result was not bit-identical to
    /// the live re-simulation (must stay 0).
    pub sim_verify_mismatches: u64,
}

#[derive(Debug)]
enum Backend {
    Off,
    Local(TraceStore),
    Remote(RemoteStore),
}

/// The trace cache. Thread-safe: share by reference across pool workers.
#[derive(Debug)]
pub struct TraceCache {
    backend: Backend,
    compress: bool,
    sim_mode: SimCacheMode,
    local_hits: AtomicU64,
    remote_hits: AtomicU64,
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

fn compress_default() -> bool {
    !matches!(std::env::var(TRACE_COMPRESS_ENV).ok().as_deref(), Some(v) if is_off(v))
}

impl TraceCache {
    fn with_backend(backend: Backend, compress: bool) -> TraceCache {
        TraceCache {
            backend,
            compress,
            // The env-var default; `from_cli` overrides from `--sim-cache`.
            sim_mode: SimCacheMode::resolve(None),
            local_hits: AtomicU64::new(0),
            remote_hits: AtomicU64::new(0),
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
    /// disabled backend forces `Off` (there is nowhere to read or write
    /// sim objects).
    #[must_use]
    pub fn sim_mode(&self) -> SimCacheMode {
        match self.backend {
            Backend::Off => SimCacheMode::Off,
            _ => self.sim_mode,
        }
    }

    /// A cache that never hits and never records (all lookups report
    /// [`crate::runner::CacheDisposition::Off`]).
    #[must_use]
    pub fn disabled() -> TraceCache {
        TraceCache::with_backend(Backend::Off, false)
    }

    /// A cache over a local store rooted at `dir` (created if missing;
    /// falls back to disabled with a warning when the directory cannot be
    /// created).
    pub fn at(dir: impl AsRef<Path>) -> TraceCache {
        let compress = compress_default();
        match TraceStore::open(dir.as_ref(), compress) {
            Ok(store) => TraceCache::with_backend(Backend::Local(store), compress),
            Err(e) => {
                eprintln!(
                    "warning: trace cache disabled: cannot open store at {}: {e}",
                    dir.as_ref().display()
                );
                TraceCache::disabled()
            }
        }
    }

    /// A cache speaking the `tracestored` protocol at `addr`
    /// (`host:port`). Falls back to the local store at `fallback_dir`
    /// with a warning when the server is unreachable.
    pub fn remote_or(addr: &str, fallback_dir: &str) -> TraceCache {
        match RemoteStore::connect(addr) {
            Ok(remote) => {
                TraceCache::with_backend(Backend::Remote(remote), compress_default())
            }
            Err(e) => {
                eprintln!(
                    "warning: trace store server {addr} unreachable ({e}); \
                     falling back to local store at {fallback_dir}"
                );
                TraceCache::at(fallback_dir)
            }
        }
    }

    /// Resolve a cache spec: `off`/`0`/`none`/empty disables,
    /// `tcp://HOST:PORT` selects the protocol client (falling back to
    /// `fallback_dir` when unreachable), anything else is a local store
    /// directory.
    #[must_use]
    pub fn resolve_spec(
        spec: Option<&str>,
        default_on: bool,
        fallback_dir: &str,
    ) -> TraceCache {
        match spec {
            Some(s) if is_off(s) => TraceCache::disabled(),
            Some(s) => match s.strip_prefix("tcp://") {
                Some(addr) => TraceCache::remote_or(addr, fallback_dir),
                None => TraceCache::at(s),
            },
            None if default_on => TraceCache::at(fallback_dir),
            None => TraceCache::disabled(),
        }
    }

    /// Resolve from an explicit `--trace-cache` value, the
    /// [`TRACE_CACHE_ENV`] variable, or the binary's default.
    #[must_use]
    pub fn resolve(flag: Option<&str>, default_on: bool) -> TraceCache {
        let spec =
            flag.map(str::to_string).or_else(|| std::env::var(TRACE_CACHE_ENV).ok());
        TraceCache::resolve_spec(spec.as_deref(), default_on, DEFAULT_TRACE_CACHE_DIR)
    }

    /// Resolve from a parsed [`Cli`]
    /// (`--trace-cache DIR|tcp://HOST:PORT|off`, `--trace-compress off`).
    #[must_use]
    pub fn from_cli(cli: &Cli, default_on: bool) -> TraceCache {
        if let Some(v) = cli.value_of("--trace-compress") {
            // The env var is how the flag reaches TraceStore::open; the
            // figure binaries are single-threaded at this point.
            std::env::set_var(TRACE_COMPRESS_ENV, v);
        }
        TraceCache::resolve(cli.value_of("--trace-cache"), default_on)
            .with_sim_mode(SimCacheMode::resolve(cli.value_of("--sim-cache")))
    }

    /// Whether lookups can ever hit.
    #[must_use]
    pub fn enabled(&self) -> bool {
        !matches!(self.backend, Backend::Off)
    }

    /// Stable label of the active backend (`off` / `local` / `tcp`).
    #[must_use]
    pub fn backend_label(&self) -> &'static str {
        match self.backend {
            Backend::Off => "off",
            Backend::Local(_) => "local",
            Backend::Remote(_) => "tcp",
        }
    }

    /// The local store directory, when the local backend is active.
    #[must_use]
    pub fn dir(&self) -> Option<&Path> {
        match &self.backend {
            Backend::Local(store) => Some(store.root()),
            _ => None,
        }
    }

    /// The server address, when the remote backend is active.
    #[must_use]
    pub fn remote_addr(&self) -> Option<&str> {
        match &self.backend {
            Backend::Remote(remote) => Some(remote.addr()),
            _ => None,
        }
    }

    /// The underlying local store, when the local backend is active.
    #[must_use]
    pub fn local_store(&self) -> Option<&TraceStore> {
        match &self.backend {
            Backend::Local(store) => Some(store),
            _ => None,
        }
    }

    /// Current activity counters.
    #[must_use]
    pub fn stats(&self) -> TraceCacheStats {
        let local_hits = self.local_hits.load(Ordering::Relaxed);
        let remote_hits = self.remote_hits.load(Ordering::Relaxed);
        TraceCacheStats {
            hits: local_hits + remote_hits,
            local_hits,
            remote_hits,
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            dedup_stores: self.dedup_stores.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            raw_bytes_written: self.raw_bytes_written.load(Ordering::Relaxed),
            remote_errors: match &self.backend {
                Backend::Remote(remote) => remote.errors(),
                _ => 0,
            },
            sim_hits: self.sim_hits.load(Ordering::Relaxed),
            sim_misses: self.sim_misses.load(Ordering::Relaxed),
            sim_stores: self.sim_stores.load(Ordering::Relaxed),
            sim_verify_mismatches: self.sim_verify_mismatches.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn note_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a timed cell that ran `CoreSim` while the sim cache was
    /// active (the runner calls this so cold live runs count too).
    pub(crate) fn note_sim_miss(&self) {
        self.sim_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a verify-mode divergence between a memoized and a live
    /// result.
    pub(crate) fn note_sim_verify_mismatch(&self) {
        self.sim_verify_mismatches.fetch_add(1, Ordering::Relaxed);
    }

    /// Look up the memoized simulation for a trace CID under the current
    /// config fingerprint. Counts a hit on success; the caller counts the
    /// miss when (and only when) it actually simulates.
    pub(crate) fn sim_fetch(&self, cid: &[u8; 32]) -> Option<SimObject> {
        let obj = match &self.backend {
            Backend::Off => return None,
            Backend::Local(store) => store.sim_get(cid, sim_fingerprint()),
            Backend::Remote(remote) => remote.sim_get(cid, sim_fingerprint()),
        }?;
        self.sim_hits.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(SIM_OBJECT_LEN as u64, Ordering::Relaxed);
        Some(obj)
    }

    /// Publish a simulation result for a trace CID. A no-op when the sim
    /// cache is off; failures warn and return (a cache problem is never a
    /// run failure).
    pub(crate) fn sim_publish(&self, cid: &[u8; 32], result: &SimResult) {
        if self.sim_mode() == SimCacheMode::Off {
            return;
        }
        let obj = SimObject::new(*cid, sim_fingerprint(), result.clone());
        let stored = match &self.backend {
            Backend::Off => return,
            Backend::Local(store) => match store.sim_put(&obj) {
                Ok(()) => true,
                Err(e) => {
                    eprintln!("warning: sim cache store failed: {e}");
                    false
                }
            },
            Backend::Remote(remote) => {
                let ok = remote.sim_put(&obj);
                if !ok {
                    eprintln!("warning: trace store server rejected sim result");
                }
                ok
            }
        };
        if stored {
            self.sim_stores.fetch_add(1, Ordering::Relaxed);
            self.bytes_written.fetch_add(SIM_OBJECT_LEN as u64, Ordering::Relaxed);
        }
    }

    /// The cache entry for one `(benchmark, resolved scale, config)` cell,
    /// or `None` when the cache is disabled.
    #[must_use]
    pub fn entry(&self, bench: &str, scale: i32, cfg: &RunConfig) -> Option<CacheEntry> {
        if !self.enabled() {
            return None;
        }
        Some(CacheEntry { key: cache_key(bench, scale, cfg) })
    }

    /// Look up an entry. `need_trace` controls whether the trace body is
    /// fetched (timed replay) or only the manifest (untimed hit). Any
    /// failure — absence, corruption, network — is a `None` miss; the
    /// caller records live. Returns the sidecar, the raw trace bytes when
    /// requested, and the cache bytes this lookup read.
    pub(crate) fn fetch(
        &self,
        entry: &CacheEntry,
        need_trace: bool,
    ) -> Option<(Sidecar, Option<Vec<u8>>, u64)> {
        let (side, raw, counter) = match &self.backend {
            Backend::Off => return None,
            Backend::Local(store) => {
                if need_trace {
                    let (side, raw) = store.get(&entry.key)?;
                    (side, Some(raw), &self.local_hits)
                } else {
                    (store.stat(&entry.key)?, None, &self.local_hits)
                }
            }
            Backend::Remote(remote) => {
                if need_trace {
                    let (side, raw) = remote.get(&entry.key)?;
                    (side, Some(raw), &self.remote_hits)
                } else {
                    (remote.stat(&entry.key)?, None, &self.remote_hits)
                }
            }
        };
        let bytes_read =
            side.encode().len() as u64 + raw.as_ref().map_or(0, |r| r.len() as u64);
        counter.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(bytes_read, Ordering::Relaxed);
        Some((side, raw, bytes_read))
    }

    /// Re-fetch the trace body for an entry whose manifest was already
    /// served this cell (the sim-verify and sim-miss paths probe
    /// manifest-only first). Does not count a second client-level hit.
    pub(crate) fn refetch_body(&self, entry: &CacheEntry) -> Option<Vec<u8>> {
        let raw = match &self.backend {
            Backend::Off => return None,
            Backend::Local(store) => store.get(&entry.key).map(|(_, raw)| raw),
            Backend::Remote(remote) => remote.get(&entry.key).map(|(_, raw)| raw),
        }?;
        self.bytes_read.fetch_add(raw.len() as u64, Ordering::Relaxed);
        Some(raw)
    }

    /// A writer that streams a recording into this cache's object format
    /// (LZ-compressed unless compression is off); its finished image is
    /// what [`TraceCache::publish`] takes.
    pub(crate) fn object_writer(&self) -> ObjectWriter {
        ObjectWriter::new(self.compress)
    }

    /// Publish a recording's finished object image. Fills `side`'s
    /// store-location fields, writes through the active backend, and
    /// counts the store. Failures warn and return; a cache problem is
    /// never a run failure.
    pub(crate) fn publish(&self, entry: &CacheEntry, side: &mut Sidecar, image: &ObjectImage) {
        side.key = entry.key.clone();
        image.locate(side);
        let written = match &self.backend {
            Backend::Off => return,
            Backend::Local(store) => match store.put_prepared(side, &image.bytes) {
                Ok(outcome) => Some((outcome.deduped, outcome.stored_bytes)),
                Err(e) => {
                    eprintln!("warning: trace cache store for {} failed: {e}", entry.key);
                    None
                }
            },
            Backend::Remote(remote) => {
                if remote.put(side, &image.bytes) {
                    Some((false, image.bytes.len() as u64))
                } else {
                    eprintln!(
                        "warning: trace store server rejected recording for {}",
                        entry.key
                    );
                    None
                }
            }
        };
        if let Some((deduped, stored_bytes)) = written {
            self.note_store(
                deduped,
                image.raw_len,
                side.encode().len() as u64 + if deduped { 0 } else { stored_bytes },
            );
        }
    }

    fn note_store(&self, deduped: bool, raw_bytes: u64, bytes_written: u64) {
        self.stores.fetch_add(1, Ordering::Relaxed);
        if deduped {
            self.dedup_stores.fetch_add(1, Ordering::Relaxed);
        }
        self.raw_bytes_written.fetch_add(raw_bytes, Ordering::Relaxed);
        self.bytes_written.fetch_add(bytes_written, Ordering::Relaxed);
    }

    /// Drop an entry (replay-time corruption the store's own hash checks
    /// did not catch, i.e. a hash-valid but codec-invalid recording).
    /// Remote entries are left to the server's own validation; the
    /// re-recorded PUT overwrites the manifest.
    pub(crate) fn evict(&self, entry: &CacheEntry) {
        if let Backend::Local(store) = &self.backend {
            store.evict_entry(&entry.key, None);
        }
    }
}

/// Canonical key of one cache entry.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// Full canonical key string (also stored in the manifest).
    pub key: String,
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

/// The schema-salt suffix every *current* key ends with
/// (`|e<salt>|c<codec version>`). `tracestored --gc` drops entries whose
/// stored key carries any other suffix.
#[must_use]
pub fn current_key_suffix() -> String {
    format!(
        "|e{}|c{}",
        checkelide_engine::trace_salt(),
        checkelide_isa::codec::TRACE_VERSION,
    )
}

/// FNV-1a 64 of the key (the manifest stem hash; see
/// [`crate::store::TraceStore::stem`]).
#[must_use]
pub fn key_hash(key: &str) -> u64 {
    fnv1a64(key.as_bytes())
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
    }

    #[test]
    fn disabled_cache_has_no_entries() {
        let c = TraceCache::disabled();
        assert!(!c.enabled());
        assert_eq!(c.backend_label(), "off");
        assert!(c.entry("ai-astar", 4, &RunConfig::characterize()).is_none());
    }

    #[test]
    fn resolve_honors_off_spellings() {
        for s in ["off", "0", "none", ""] {
            assert!(!TraceCache::resolve(Some(s), true).enabled());
        }
    }

    #[test]
    fn unreachable_server_falls_back_to_local_store() {
        let dir = std::env::temp_dir()
            .join(format!("checkelide-fallback-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Port 1 on loopback: reserved, nothing listens there.
        let cache = TraceCache::resolve_spec(
            Some("tcp://127.0.0.1:1"),
            true,
            dir.to_str().expect("utf-8 temp dir"),
        );
        assert!(cache.enabled(), "fallback must keep the cache usable");
        assert_eq!(cache.backend_label(), "local");
        assert_eq!(cache.dir(), Some(dir.as_path()));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
