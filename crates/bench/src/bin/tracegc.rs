//! `tracegc` — garbage-collect a content-addressed trace store.
//!
//!     tracegc [--store DIR] [--max-store-bytes N]
//!
//! Runs one pass over the store at `--store` (default
//! `target/trace-cache`) and exits: drops entries whose stored key
//! carries a stale schema salt (a `TRACE_SCHEMA_REV` / codec-version bump
//! invalidates every old key), bounds the store to `--max-store-bytes`
//! evicting least-recently-used entries (memoized sim results are charged
//! to the trace they belong to), and reclaims unreferenced objects,
//! sim-result objects whose trace CID is gone or whose `SIM_SCHEMA_REV`
//! is stale, plus legacy flat-layout files. The open itself also sweeps
//! `*.tmp.*` debris from crashed runs.

use checkelide_bench::tracecache::{current_key_suffix, DEFAULT_TRACE_CACHE_DIR};
use checkelide_bench::{Cli, TraceStore};

fn main() {
    let cli = Cli::parse();
    let dir = cli.value_of("--store").unwrap_or(DEFAULT_TRACE_CACHE_DIR).to_string();
    let max_bytes = cli.value_of("--max-store-bytes").map(|v| {
        v.parse::<u64>().unwrap_or_else(|_| {
            eprintln!("tracegc: --max-store-bytes expects a byte count, got `{v}`");
            std::process::exit(2);
        })
    });
    // gc never writes an object, so compression does not matter here.
    let store = match TraceStore::open(&dir, true) {
        Ok(store) => store,
        Err(e) => {
            eprintln!("tracegc: cannot open store at {dir}: {e}");
            std::process::exit(1);
        }
    };
    let stats = store.gc(&current_key_suffix(), max_bytes);
    println!(
        "tracegc: gc {}: {} stale + {} lru entries dropped, \
         {} orphan objects, {} stale + {} orphan sim objects, \
         {} legacy files, {} bytes freed; \
         {} entries ({} bytes) kept",
        dir,
        stats.stale_entries,
        stats.lru_entries,
        stats.orphan_objects,
        stats.stale_sims,
        stats.orphan_sims,
        stats.legacy_files,
        stats.bytes_freed,
        stats.entries_kept,
        stats.bytes_kept,
    );
}
