//! Debugging aid: stall-cause breakdown from the timing model for one
//! benchmark, baseline vs full mechanism.
//!
//!     cargo run --release -p checkelide-bench --bin stalls -- <benchmark>

fn main() {
    use checkelide_bench::{find, run_benchmark, RunConfig};
    let name = checkelide_bench::Cli::parse().positional_or("ai-astar");
    let b = find(&name).expect("unknown benchmark");
    for (label, cfg) in
        [("base", RunConfig::baseline_timed()), ("full", RunConfig::mechanism_timed())]
    {
        let s = run_benchmark(b, cfg).sim.expect("timed run");
        println!(
            "{label}: uops={} cycles={} ipc={:.2} fetch_stall={} src_wait={} window_wait={} mem_wait={}",
            s.uops,
            s.cycles,
            s.ipc(),
            s.fetch_stall,
            s.src_wait,
            s.window_wait,
            s.mem_wait
        );
    }
}
