//! §5.3 incurred overheads: warm-up, Class Cache hit rates, larger
//! objects, line-0 access fraction.
//!
//!     overheads [--quick] [--jobs N] [--trace-cache DIR|off] [--sim-cache on|off|verify]
//!
//! Writes `results/overheads.json` and `results/run_meta.json`.

use checkelide_bench::{figures, Cli};

fn main() {
    figures::drive("overheads", &Cli::parse(), false, &[&figures::OVERHEADS]);
}
