//! Regenerate Figure 2: check/untag overhead after object load accesses.
//!
//!     fig2 [--quick] [--jobs N] [--trace-cache DIR|off] [--sim-cache on|off|verify]
//!
//! Writes `results/fig2.json` and `results/run_meta.json`.

use checkelide_bench::{figures, Cli};

fn main() {
    figures::drive("fig2", &Cli::parse(), false, &[&figures::FIG2]);
}
