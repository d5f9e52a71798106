//! Head-to-head of the hardware Class Cache against software check
//! elision via lazy basic-block versioning: checks executed/elided,
//! dynamic µops and simulated cycles per configuration
//! (baseline / opt-noelide / cc-full / bbv / cc+bbv).
//!
//!     fig_bbv [--quick] [--jobs N] [--trace-cache DIR|off]
//!
//! The trace cache defaults OFF for the standalone binary; pass
//! `--trace-cache DIR` to record on a cold run and replay on warm runs. Cache activity and per-cell hit/miss
//! dispositions are saved to `results/run_meta.json`.

use checkelide_bench::figures::RunMeta;
use checkelide_bench::TraceCache;

fn main() {
    let cli = checkelide_bench::Cli::parse();
    let (quick, jobs) = (cli.quick, cli.jobs);
    let cache = TraceCache::from_cli(&cli, false);
    let start = std::time::Instant::now();
    let report = checkelide_bench::figures::fig_bbv_report_cached(quick, jobs, &cache);
    print!("{}", checkelide_bench::figures::render_fig_bbv(&report.rows));
    checkelide_bench::figures::save_json("fig_bbv", &report.rows)
        .expect("write results/fig_bbv.json");
    let mut meta = RunMeta::new(jobs, quick);
    meta.absorb(&report);
    meta.total_wall_ms = start.elapsed().as_secs_f64() * 1e3;
    meta.set_trace_cache(&cache);
    meta.save().expect("write results/run_meta.json");
    eprintln!("saved results/fig_bbv.json");
    if cache.enabled() {
        let s = cache.stats();
        eprintln!(
            "trace cache: {} hit(s), {} miss(es), {} store(s)",
            s.hits, s.misses, s.stores
        );
    }
    if !report.failures.is_empty() {
        eprint!("{}", checkelide_bench::figures::render_failures(&report.failures));
        std::process::exit(1);
    }
}
