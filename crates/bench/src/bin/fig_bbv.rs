//! Head-to-head of the hardware Class Cache against software check
//! elision via lazy basic-block versioning: checks executed/elided,
//! dynamic µops and simulated cycles per configuration
//! (baseline / opt-noelide / cc-full / bbv / cc+bbv).
//!
//!     fig_bbv [--quick] [--jobs N] [--trace-cache DIR|off] [--sim-cache on|off|verify]
//!
//! Writes `results/fig_bbv.json` and `results/run_meta.json`.

use checkelide_bench::{figures, Cli};

fn main() {
    figures::drive("fig_bbv", &Cli::parse(), false, &[&figures::FIG_BBV]);
}
