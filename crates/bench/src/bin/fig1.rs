//! Regenerate Figure 1: breakdown of dynamic instructions.
//!
//!     fig1 [--quick] [--jobs N] [--trace-cache DIR|off]
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
    let report = checkelide_bench::figures::fig1_report_cached(quick, jobs, &cache);
    print!("{}", checkelide_bench::figures::render_fig1(&report.rows));
    checkelide_bench::figures::save_json("fig1", &report.rows)
        .expect("write results/fig1.json");
    let mut meta = RunMeta::new(jobs, quick);
    meta.absorb(&report);
    meta.total_wall_ms = start.elapsed().as_secs_f64() * 1e3;
    meta.set_trace_cache(&cache);
    meta.save().expect("write results/run_meta.json");
    eprintln!("saved results/fig1.json");
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
