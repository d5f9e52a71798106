//! `tracegc` — garbage-collect a content-addressed trace store.
//!
//!     tracegc [--store DIR] [--max-store-bytes N]
//!
//! Runs one pass over the store at `--store` (default
//! `target/trace-cache`) and exits: drops entries whose stored key ends
//! with another source fingerprint or codec version (recorded by other
//! µop-shaping code), drops sim-result objects stored under another sim
//! fingerprint (other simulator code or core configuration), bounds the
//! store to `--max-store-bytes` evicting least-recently-used entries
//! (memoized sim results are charged to the trace they belong to), and
//! reclaims unreferenced objects and sim-result objects whose trace CID
//! is gone. The open itself also sweeps `*.tmp.*` debris from crashed
//! runs.

use checkelide_bench::tracecache::{current_key_suffix, DEFAULT_TRACE_CACHE_DIR};
use checkelide_bench::{sim_fingerprint, Cli, TraceStore};

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
    let stats = store.gc(&current_key_suffix(), sim_fingerprint(), max_bytes);
    println!(
        "tracegc: gc {}: {} stale + {} lru entries dropped, \
         {} orphan objects, {} stale + {} orphan sim objects, \
         {} bytes freed; \
         {} entries ({} bytes) kept",
        dir,
        stats.stale_entries,
        stats.lru_entries,
        stats.orphan_objects,
        stats.stale_sims,
        stats.orphan_sims,
        stats.bytes_freed,
        stats.entries_kept,
        stats.bytes_kept,
    );
}
