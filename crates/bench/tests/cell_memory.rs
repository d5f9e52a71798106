//! Per-VM host memory: a characterization cell holds only what its run
//! touches.
//!
//! A cell's VM counts every profiled object load for Figure 3 and keeps
//! the simulated heap's arena and side tables. The load counters are one
//! 16 KiB page per holder class the run loads from, and the arena tables
//! are reserved exactly as the arena grows, so a small kernel's live heap
//! is a few MiB. A table sized for all 256 classes (4 MiB) or doubling
//! slack on the arena would push it past the bound.
//!
//! Measured on richards at quick scale, 4 iterations, with the counting
//! allocator of `common`: 6,204,274 B peak with a dense 4 MiB counter
//! table and `Vec`-doubled arena tables, 2,026,590 B with the pages and
//! exact reservations. The bound sits halfway between.

mod common;

use checkelide_bench::{run_benchmark, RunConfig, BENCHMARKS};
use common::{peak_since, reset_peak};

/// Live-heap bound for the cell: midway between the two measurements in
/// the module comment.
const PEAK_BOUND: usize = 4_115_432;

#[test]
fn characterize_cell_live_heap_is_bounded() {
    let bench = BENCHMARKS.iter().find(|b| b.name == "richards").expect("richards is in the suite");
    let cfg = RunConfig::characterize().with_scale((bench.scale / 6).max(2)).with_iterations(4);
    let base = reset_peak();
    let out = run_benchmark(bench, cfg);
    let peak = peak_since(base);

    assert!(out.fig3.mono_total() > 0.0, "richards recorded no monomorphic object loads");
    assert!(
        peak < PEAK_BOUND,
        "peak live heap {peak} B for one richards cell (bound {PEAK_BOUND} B)"
    );
}
