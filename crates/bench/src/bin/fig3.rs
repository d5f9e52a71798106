//! Regenerate Figure 3: object loads from monomorphic properties and
//! elements arrays.
//!
//!     fig3 [--quick] [--jobs N] [--trace-cache DIR|off] [--sim-cache on|off|verify]
//!
//! Writes `results/fig3.json` and `results/run_meta.json`.

use checkelide_bench::{figures, Cli};

fn main() {
    figures::drive("fig3", &Cli::parse(), false, &[&figures::FIG3]);
}
