//! Run every experiment in the paper and save all results under
//! `results/`, fanning (benchmark × config) cells across a panic-isolated
//! worker pool.
//!
//!     reproduce [--quick] [--jobs N] [--trace-cache DIR|off] [--sim-cache on|off|verify]
//!
//! * `--quick` — reduced-scale smoke run.
//! * `--jobs N` (or `-j N`) — worker threads; defaults to the machine's
//!   available parallelism.
//! * `--trace-cache DIR|off` — µop trace
//!   record/replay cache. `reproduce` defaults it ON at
//!   `target/trace-cache`: each engine configuration executes at most once
//!   per run, and every figure sharing that configuration (fig2/fig3 reuse
//!   fig1's characterization traces; overheads reuses Figures 8/9's
//!   mechanism traces) replays the recording instead of re-executing.
//!   Hit/miss counts and byte totals land in `results/run_meta.json`.
//!
//! A failing benchmark does not abort the run: its cell is reported in
//! the failure summary (and in `results/run_meta.json`), every other
//! cell's results are still produced and saved, and the exit code is
//! nonzero — as it is on a `--sim-cache verify` mismatch.

use checkelide_bench::figures::{self, FIG1, FIG2, FIG3, FIG89, OVERHEADS};
use checkelide_bench::Cli;

fn main() {
    figures::drive("reproduce", &Cli::parse(), true, &[&FIG1, &FIG2, &FIG3, &FIG89, &OVERHEADS]);
}
