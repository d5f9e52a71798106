//! Regenerate Figure 8 (speedup) and, from the same runs, Figure 9
//! (energy). Use `--detail <name>` for the §5.1 ai-astar style
//! memory-hierarchy analysis of one benchmark.
//!
//!     fig8 [--quick] [--jobs N] [--detail <benchmark>] [--trace-cache DIR|off]
//!          [--sim-cache on|off|verify]
//!
//! Writes `results/fig8_fig9.json` and `results/run_meta.json`
//! (`--detail` writes nothing). Exits nonzero on a failed cell or a
//! `--sim-cache verify` mismatch.

use checkelide_bench::{figures, find, Cli, TraceCache};

fn main() {
    let cli = Cli::parse();
    let Some(name) = cli.value_of("--detail") else {
        figures::drive("fig8", &cli, false, &[&figures::FIG89]);
    };
    let b = find(name).expect("unknown benchmark");
    match figures::fig89_one_cell(b, cli.quick, &TraceCache::from_cli(&cli, false)) {
        Ok((row, _, _, sim)) => {
            print!("{}", figures::render_fig89_detail(&row));
            std::process::exit(figures::exit_status(sim.verify_mismatches, 0));
        }
        Err(e) => {
            eprintln!("fig8: {e}");
            std::process::exit(1);
        }
    }
}
