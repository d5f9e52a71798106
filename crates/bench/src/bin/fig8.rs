//! Regenerate Figure 8 (speedup) and, as a side effect of sharing the
//! runs, Figure 9 (energy). Use `--detail <name>` for the §5.1 ai-astar
//! style memory-hierarchy analysis of one benchmark.
//!
//!     fig8 [--quick] [--jobs N] [--detail <benchmark>] [--trace-cache DIR|off]
//!          [--sim-cache on|off|verify]
//!
//! Cache activity and per-cell hit/miss dispositions are saved to
//! `results/run_meta.json`.

use checkelide_bench::figures::RunMeta;

fn main() {
    let cli = checkelide_bench::Cli::parse();
    let quick = cli.quick;
    if let Some(name) = cli.value_of("--detail") {
        let b = checkelide_bench::find(name).expect("unknown benchmark");
        let row = checkelide_bench::figures::fig89_one(b, quick);
        println!("{name}:");
        println!("  speedup (whole app)    {:>7.1}%", row.speedup_whole);
        println!("  speedup (optimized)    {:>7.1}%", row.speedup_opt);
        println!("  dyn. instructions      {} -> {}", row.base_uops, row.full_uops);
        println!("  cycles                 {} -> {}", row.base_cycles, row.full_cycles);
        println!("  DL1 hit rate           {:.4} -> {:.4}", row.dl1_hit.0, row.dl1_hit.1);
        println!("  L2 hit rate            {:.4} -> {:.4}", row.l2_hit.0, row.l2_hit.1);
        println!("  DTLB hit rate          {:.4} -> {:.4}", row.dtlb_hit.0, row.dtlb_hit.1);
        println!("  Class Cache hit rate   {:.5}", row.class_cache_hit);
        return;
    }
    let cache = checkelide_bench::TraceCache::from_cli(&cli, false);
    let start = std::time::Instant::now();
    let report = checkelide_bench::figures::fig89_report_cached(quick, cli.jobs, &cache);
    print!("{}", checkelide_bench::figures::render_fig89(&report.rows));
    checkelide_bench::figures::save_json("fig8_fig9", &report.rows).expect("write results");
    let mut meta = RunMeta::new(cli.jobs, quick);
    meta.absorb(&report);
    meta.total_wall_ms = start.elapsed().as_secs_f64() * 1e3;
    meta.set_trace_cache(&cache);
    meta.save().expect("write results/run_meta.json");
    eprintln!("saved results/fig8_fig9.json");
    if !report.failures.is_empty() {
        eprint!("{}", checkelide_bench::figures::render_failures(&report.failures));
        std::process::exit(1);
    }
}
