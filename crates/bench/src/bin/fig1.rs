//! Regenerate Figure 1: breakdown of dynamic instructions.
//!
//!     fig1 [--quick] [--jobs N] [--trace-cache DIR|off] [--sim-cache on|off|verify]
//!
//! The trace cache defaults OFF for a single figure; pass `--trace-cache
//! DIR` to record on a cold run and replay on warm runs. Writes
//! `results/fig1.json` and `results/run_meta.json`.

use checkelide_bench::{figures, Cli};

fn main() {
    figures::drive("fig1", &Cli::parse(), false, &[&figures::FIG1]);
}
