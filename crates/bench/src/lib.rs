//! Benchmarks and the experiment harness.
//!
//! * [`suite`] — 33 njs kernels modelled on the paper's Octane / Kraken /
//!   SunSpider benchmarks (26 "selected" ones reproduce Figures 3/8/9;
//!   the rest pad Figures 1–2 with the low-overhead population).
//! * [`runner`] — the steady-state protocol: ten iterations, statistics
//!   from the tenth (§5).
//! * [`figures`] — drivers that regenerate every table and figure of the
//!   paper; see the `fig1`…`fig9`, `table1`, `table2`, `overheads`,
//!   `hwcost` and `reproduce` binaries.
//! * [`pool`] — the parallel, fault-isolated experiment-execution layer:
//!   (benchmark × config) cells fan out across `--jobs N` scoped worker
//!   threads; per-cell panics become reported [`CellError`]s and results
//!   return in registry order.
//! * [`tracecache`] — the record-once/replay-many µop trace cache: each
//!   engine configuration executes at most once per key, and every other
//!   figure (or `CoreSim` pass) replays the recorded trace. Its keys carry
//!   a build-time hash of the sources that shape the µop stream
//!   (`build.rs`), so code edits miss instead of replaying stale traces.
//! * [`simcache`] — the sim-result memoization policy: `CoreSim` runs at
//!   most once per unique `(trace CID, fingerprint)` — the fingerprint
//!   covers the core configuration and the simulator's source — and a
//!   warm timed cell is served from the stored result without decoding
//!   the trace body at all.
//! * [`store`] — the content-addressed, sharded on-disk trace store
//!   behind the cache (manifest index → SHA-256-addressed objects,
//!   cross-key dedup, LZ compression, and the gc pass the `tracegc`
//!   binary runs, the one pass that deletes files).
//! * [`json`] — dependency-free, byte-deterministic JSON output for
//!   `results/*.json` and the per-run `results/run_meta.json` metadata.
//! * [`cli`] — the shared `--quick` / `--jobs` / value-flag / positional
//!   parsing used by every harness binary (and by `xcheck`); flags are
//!   the only way to set the pool, the trace cache and the sim cache.

pub mod cli;
pub mod figures;
pub mod json;
pub mod pool;
pub mod runner;
pub mod simcache;
pub mod store;
pub mod suite;
pub mod tracecache;

pub use cli::Cli;
pub use json::{Json, ToJson};
pub use pool::{run_cells, CellError, CellOutcome};
pub use runner::{
    run_benchmark, try_run_benchmark, try_run_benchmark_cached, CacheDisposition, RunConfig,
    RunError, RunOutput, SimTelemetry,
};
pub use simcache::{sim_config, sim_energy, sim_fingerprint, SimCacheMode};
pub use store::{GcStats, Sidecar, TraceStore};
pub use suite::{find, selected, Benchmark, Suite, BENCHMARKS};
pub use tracecache::{TraceCache, TraceCacheStats};

#[cfg(test)]
#[path = "../build/source_hash.rs"]
mod source_hash;
