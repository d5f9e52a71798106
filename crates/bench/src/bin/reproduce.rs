//! Run every experiment in the paper and save all results under
//! `results/`, fanning (benchmark × config) cells across a panic-isolated
//! worker pool.
//!
//!     reproduce [--quick] [--jobs N] [--trace-cache DIR|off]
//!
//! * `--quick` — reduced-scale smoke run.
//! * `--jobs N` (or `-j N`) — worker threads; defaults to the machine's
//!   available parallelism.
//! * `--trace-cache DIR|off` — µop trace
//!   record/replay cache. `reproduce` defaults it ON at
//!   `target/trace-cache`: each engine configuration executes at most once
//!   per run, and every figure sharing that configuration (fig2/fig3 reuse
//!   fig1's characterization traces; overheads reuses fig8/fig9's
//!   mechanism traces) replays the recording instead of re-executing.
//!   Hit/miss counts and byte totals land in `results/run_meta.json`.
//!
//! A failing benchmark no longer aborts the run: its cell is reported in
//! the failure summary (and in `results/run_meta.json`), every other
//! cell's results are still produced and saved, and the exit code is
//! nonzero.

use checkelide_bench::figures::{self, FigureReport, RunMeta};
use checkelide_bench::pool::CellError;
use checkelide_bench::{ToJson, TraceCache};

fn stage<R: ToJson>(
    title: &str,
    json_name: &str,
    render: impl Fn(&[R]) -> String,
    report: FigureReport<R>,
    meta: &mut RunMeta,
    failures: &mut Vec<CellError>,
) {
    println!("{title}");
    print!("{}", render(&report.rows));
    figures::save_json(json_name, &report.rows)
        .unwrap_or_else(|e| panic!("write results/{json_name}.json: {e}"));
    meta.absorb(&report);
    failures.extend(report.failures);
}

fn main() {
    let cli = checkelide_bench::Cli::parse();
    let (quick, jobs) = (cli.quick, cli.jobs);
    // `reproduce` runs the same engine configurations across multiple
    // figures, so the trace cache defaults ON here (standalone figure
    // binaries default OFF).
    let cache = TraceCache::from_cli(&cli, true);
    eprintln!(
        "reproduce: {} mode, {jobs} worker(s), trace cache {}, sim cache {}",
        if quick { "quick" } else { "full" },
        cache.dir().map_or("off".to_string(), |d| format!("at {}", d.display())),
        cache.sim_mode().label(),
    );

    let start = std::time::Instant::now();
    let mut meta = RunMeta::new(jobs, quick);
    let mut failures: Vec<CellError> = Vec::new();

    stage(
        "=== Figure 1: dynamic instruction breakdown ===",
        "fig1",
        figures::render_fig1,
        figures::fig1_report_cached(quick, jobs, &cache),
        &mut meta,
        &mut failures,
    );
    stage(
        "\n=== Figure 2: checks/untags after object loads ===",
        "fig2",
        figures::render_fig2,
        figures::fig2_report_cached(quick, jobs, &cache),
        &mut meta,
        &mut failures,
    );
    stage(
        "\n=== Figure 3: monomorphic object loads ===",
        "fig3",
        figures::render_fig3,
        figures::fig3_report_cached(quick, jobs, &cache),
        &mut meta,
        &mut failures,
    );
    stage(
        "\n=== Figures 8 & 9: speedup and energy ===",
        "fig8_fig9",
        figures::render_fig89,
        figures::fig89_report_cached(quick, jobs, &cache),
        &mut meta,
        &mut failures,
    );
    stage(
        "\n=== §5.3 overheads ===",
        "overheads",
        figures::render_overheads,
        figures::overheads_report_cached(quick, jobs, &cache),
        &mut meta,
        &mut failures,
    );

    meta.total_wall_ms = start.elapsed().as_secs_f64() * 1e3;
    meta.set_trace_cache(&cache);
    meta.save().expect("write results/run_meta.json");

    let s = cache.stats();
    println!(
        "\nAll results saved under results/ ({} cells, {} worker(s), {:.1}s wall).",
        meta.cells.len(),
        jobs,
        meta.total_wall_ms / 1e3,
    );
    if cache.enabled() {
        println!(
            "Trace cache: {} hit(s), {} miss(es), \
             {} store(s) ({} deduped); {} B read, {} B written ({} B raw).",
            s.hits,
            s.misses,
            s.stores,
            s.dedup_stores,
            s.bytes_read,
            s.bytes_written,
            s.raw_bytes_written,
        );
        if cache.sim_mode() != checkelide_bench::SimCacheMode::Off {
            println!(
                "Sim cache ({}): {} hit(s), {} miss(es), {} store(s), {} verify mismatch(es).",
                cache.sim_mode().label(),
                s.sim_hits,
                s.sim_misses,
                s.sim_stores,
                s.sim_verify_mismatches,
            );
            if s.sim_verify_mismatches > 0 {
                eprintln!(
                    "reproduce: {} memoized sim result(s) DIVERGED from live re-simulation",
                    s.sim_verify_mismatches
                );
                std::process::exit(1);
            }
        }
    }
    if !failures.is_empty() {
        eprint!("\n{}", figures::render_failures(&failures));
        eprintln!("reproduce: completed WITH FAILURES (see above and results/run_meta.json)");
        std::process::exit(1);
    }
}
