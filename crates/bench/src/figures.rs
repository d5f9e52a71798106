//! Figure/table drivers: one function per experiment in the paper.
//!
//! Each driver fans its (benchmark × configuration) cells out across the
//! [`crate::pool`] worker pool and returns a [`FigureReport`]: rows in
//! registry order, per-cell observability metadata, and any failures —
//! a panicking or erroring benchmark becomes a reported [`CellError`]
//! instead of aborting the run. Rows are written as JSON under `results/`
//! by the binaries, with a per-run `results/run_meta.json` capturing
//! wall-time, dynamic µops, µop throughput and worker id for every cell.
//! `quick` mode shrinks workloads for CI/tests.

use crate::json::{json_obj, Json, ToJson};
use crate::pool::{self, CellError};
use crate::runner::{
    try_run_benchmark_cached, CacheDisposition, RunConfig, RunError, RunOutput, SimTelemetry,
};
use crate::suite::{selected, Benchmark, Suite, BENCHMARKS};
use crate::tracecache::TraceCache;

fn cfg_scale(b: &Benchmark, quick: bool) -> i32 {
    if quick {
        (b.scale / 6).max(2)
    } else {
        b.scale
    }
}

fn iters(quick: bool) -> u32 {
    if quick {
        4
    } else {
        10
    }
}

// ---------------------------------------------------------------------------
// Pool plumbing shared by all drivers
// ---------------------------------------------------------------------------

/// Per-cell observability metadata persisted to `results/run_meta.json`.
#[derive(Debug, Clone)]
pub struct CellMeta {
    /// Figure/table this cell belongs to (e.g. `"fig1"`).
    pub figure: String,
    /// Benchmark name.
    pub benchmark: String,
    /// Worker thread that executed the cell.
    pub worker: usize,
    /// Wall-clock milliseconds spent in the cell.
    pub wall_ms: f64,
    /// Dynamic µops measured by the cell (0 on failure).
    pub uops: u64,
    /// µop throughput (dynamic µops per wall-clock second).
    pub uops_per_sec: f64,
    /// Whether the cell succeeded.
    pub ok: bool,
    /// Trace-cache disposition: `"off"`, `"hit"` or `"miss"`.
    pub cache: String,
    /// Timed runs served from memoized sim results (no `CoreSim` pass).
    pub sim_hits: u64,
    /// Timed runs that had to run `CoreSim` live.
    pub sim_misses: u64,
    /// Verify-mode hits whose re-simulation diverged from the stored
    /// result (always 0 on a healthy store).
    pub sim_verify_mismatches: u64,
    /// Failure message, if any.
    pub error: Option<String>,
}

impl ToJson for CellMeta {
    fn to_json(&self) -> Json {
        json_obj!(
            self,
            figure,
            benchmark,
            worker,
            wall_ms,
            uops,
            uops_per_sec,
            ok,
            cache,
            sim_hits,
            sim_misses,
            sim_verify_mismatches,
            error
        )
    }
}

/// The result of one figure driver: ordered rows + failures + metadata.
#[derive(Debug)]
pub struct FigureReport<R> {
    /// Figure/table name.
    pub figure: &'static str,
    /// Successful rows, in benchmark-registry order.
    pub rows: Vec<R>,
    /// Failed cells (panics and typed `RunError`s).
    pub failures: Vec<CellError>,
    /// Per-cell metadata (successes and failures, registry order).
    pub cells: Vec<CellMeta>,
}

/// Render a failure summary (empty string when there are no failures).
pub fn render_failures(failures: &[CellError]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    if failures.is_empty() {
        return out;
    }
    let _ = writeln!(out, "{} cell(s) FAILED:", failures.len());
    for f in failures {
        let _ = writeln!(out, "  {f}");
    }
    out
}

/// Fan one figure's benchmark cells across the pool and assemble a report.
///
/// `f` runs one benchmark and returns its row, the dynamic-µop count for
/// the throughput metadata, the trace-cache disposition, and the cell's
/// sim-cache telemetry.
fn run_figure<R, F>(
    figure: &'static str,
    benches: Vec<&'static Benchmark>,
    jobs: usize,
    f: F,
) -> FigureReport<R>
where
    R: Send,
    F: Fn(
            &'static Benchmark,
        ) -> Result<(R, u64, CacheDisposition, SimTelemetry), RunError>
        + Sync,
{
    // Static proof that the cell inputs and outputs may cross threads.
    // (The engine's `Rc`-based internals never do: each cell builds its
    // own private `Vm` inside `try_run_benchmark`.)
    pool::assert_send_sync::<(&'static Benchmark, RunConfig)>();
    fn assert_out_send<T: Send>() {}
    assert_out_send::<(RunOutput, Result<(), RunError>)>();

    let cells: Vec<(String, &'static Benchmark)> =
        benches.iter().map(|b| (format!("{figure}/{}", b.name), *b)).collect();
    let outcomes = pool::run_cells(cells, jobs, |b: &&'static Benchmark| f(b));

    let mut report =
        FigureReport { figure, rows: Vec::new(), failures: Vec::new(), cells: Vec::new() };
    for (outcome, bench) in outcomes.into_iter().zip(benches) {
        let wall_ms = outcome.wall.as_secs_f64() * 1e3;
        let mut meta = CellMeta {
            figure: figure.to_string(),
            benchmark: bench.name.to_string(),
            worker: outcome.worker,
            wall_ms,
            uops: 0,
            uops_per_sec: 0.0,
            ok: false,
            cache: CacheDisposition::Off.label().to_string(),
            sim_hits: 0,
            sim_misses: 0,
            sim_verify_mismatches: 0,
            error: None,
        };
        match outcome.result {
            Ok(Ok((row, uops, cache, sim_tel))) => {
                meta.cache = cache.label().to_string();
                meta.sim_hits = sim_tel.hits;
                meta.sim_misses = sim_tel.misses;
                meta.sim_verify_mismatches = sim_tel.verify_mismatches;
                meta.uops = uops;
                meta.uops_per_sec =
                    if wall_ms > 0.0 { uops as f64 / (wall_ms / 1e3) } else { 0.0 };
                meta.ok = true;
                report.rows.push(row);
            }
            Ok(Err(run_err)) => {
                let err = CellError { label: outcome.label, message: run_err.to_string() };
                meta.error = Some(err.message.clone());
                report.failures.push(err);
            }
            Err(cell_err) => {
                meta.error = Some(cell_err.message.clone());
                report.failures.push(cell_err);
            }
        }
        report.cells.push(meta);
    }
    report
}

/// Trace-cache activity summary persisted inside `run_meta.json`.
#[derive(Debug, Clone)]
pub struct TraceCacheMeta {
    /// Whether the cache was enabled for the run.
    pub enabled: bool,
    /// Cache directory (empty when disabled).
    pub dir: String,
    /// Cells served from recorded traces.
    pub hits: u64,
    /// Cells executed live.
    pub misses: u64,
    /// Entries recorded to the store.
    pub stores: u64,
    /// Recordings whose object body already existed (content dedup).
    pub dedup_stores: u64,
    /// Bytes read from store objects (stored, possibly compressed, form).
    pub bytes_read: u64,
    /// Bytes written to store objects (stored form; 0 for deduped puts).
    pub bytes_written: u64,
    /// Uncompressed trace bytes behind the writes.
    pub raw_bytes_written: u64,
    /// Sim-result cache mode: `"off"`, `"on"`, or `"verify"`.
    pub sim_mode: String,
    /// Timed cells served from memoized sim results.
    pub sim_hits: u64,
    /// Timed cells that ran `CoreSim` live.
    pub sim_misses: u64,
    /// Sim results published to the store.
    pub sim_stores: u64,
    /// Verify-mode re-simulations that diverged from the stored result.
    pub sim_verify_mismatches: u64,
}

impl TraceCacheMeta {
    /// Snapshot a cache's current counters.
    pub fn snapshot(cache: &TraceCache) -> TraceCacheMeta {
        let s = cache.stats();
        TraceCacheMeta {
            enabled: cache.enabled(),
            dir: cache.dir().map(|d| d.display().to_string()).unwrap_or_default(),
            hits: s.hits,
            misses: s.misses,
            stores: s.stores,
            dedup_stores: s.dedup_stores,
            bytes_read: s.bytes_read,
            bytes_written: s.bytes_written,
            raw_bytes_written: s.raw_bytes_written,
            sim_mode: cache.sim_mode().label().to_string(),
            sim_hits: s.sim_hits,
            sim_misses: s.sim_misses,
            sim_stores: s.sim_stores,
            sim_verify_mismatches: s.sim_verify_mismatches,
        }
    }
}

impl ToJson for TraceCacheMeta {
    fn to_json(&self) -> Json {
        json_obj!(
            self,
            enabled,
            dir,
            hits,
            misses,
            stores,
            dedup_stores,
            bytes_read,
            bytes_written,
            raw_bytes_written,
            sim_mode,
            sim_hits,
            sim_misses,
            sim_stores,
            sim_verify_mismatches
        )
    }
}

/// Whole-run metadata accumulated across figure reports and persisted to
/// `results/run_meta.json`.
#[derive(Debug)]
pub struct RunMeta {
    /// Worker count used for the run.
    pub jobs: usize,
    /// Whether `--quick` scaling was in effect.
    pub quick: bool,
    /// Total wall-clock milliseconds of the whole run (filled at save).
    pub total_wall_ms: f64,
    /// Trace-cache activity (`None` until [`RunMeta::set_trace_cache`]).
    pub trace_cache: Option<TraceCacheMeta>,
    /// Every executed cell, in execution-registry order.
    pub cells: Vec<CellMeta>,
}

impl RunMeta {
    /// Start collecting for a run with `jobs` workers.
    pub fn new(jobs: usize, quick: bool) -> RunMeta {
        RunMeta { jobs, quick, total_wall_ms: 0.0, trace_cache: None, cells: Vec::new() }
    }

    /// Absorb one figure report's cell metadata.
    pub fn absorb<R>(&mut self, report: &FigureReport<R>) {
        self.cells.extend(report.cells.iter().cloned());
    }

    /// Record the run's final trace-cache counters.
    pub fn set_trace_cache(&mut self, cache: &TraceCache) {
        self.trace_cache = Some(TraceCacheMeta::snapshot(cache));
    }

    /// Number of failed cells.
    pub fn failed_cells(&self) -> usize {
        self.cells.iter().filter(|c| !c.ok).count()
    }

    /// Number of cells served from the trace cache.
    pub fn cache_hits(&self) -> usize {
        self.cells.iter().filter(|c| c.cache == "hit").count()
    }

    /// Total sim-cache hits across all cells.
    pub fn sim_hits(&self) -> u64 {
        self.cells.iter().map(|c| c.sim_hits).sum()
    }

    /// Total sim-cache misses (live `CoreSim` passes) across all cells.
    pub fn sim_misses(&self) -> u64 {
        self.cells.iter().map(|c| c.sim_misses).sum()
    }

    /// Total verify-mode mismatches across all cells.
    pub fn sim_verify_mismatches(&self) -> u64 {
        self.cells.iter().map(|c| c.sim_verify_mismatches).sum()
    }

    /// Persist to `results/run_meta.json`.
    ///
    /// # Errors
    ///
    /// I/O errors from creating the directory or writing the file.
    pub fn save(&self) -> std::io::Result<()> {
        save_json("run_meta", self)
    }
}

impl ToJson for RunMeta {
    fn to_json(&self) -> Json {
        json_obj!(self, jobs, quick, total_wall_ms, trace_cache, cells)
    }
}

// ---------------------------------------------------------------------------
// Figure 1
// ---------------------------------------------------------------------------

/// Figure 1 row: the dynamic-instruction breakdown (percent).
#[derive(Debug, Clone)]
pub struct Fig1Row {
    /// Benchmark name.
    pub name: String,
    /// Suite name.
    pub suite: String,
    /// Checks %.
    pub checks: f64,
    /// Tags/Untags %.
    pub tags_untags: f64,
    /// Math assumptions %.
    pub math_assumptions: f64,
    /// Other optimized code %.
    pub other_optimized: f64,
    /// Rest of code %.
    pub rest_of_code: f64,
}

impl ToJson for Fig1Row {
    fn to_json(&self) -> Json {
        json_obj!(
            self,
            name,
            suite,
            checks,
            tags_untags,
            math_assumptions,
            other_optimized,
            rest_of_code
        )
    }
}

/// Run the Figure 1 characterization across the pool, recording to /
/// replaying from `cache` where possible.
pub fn fig1_report_cached(
    quick: bool,
    jobs: usize,
    cache: &TraceCache,
) -> FigureReport<Fig1Row> {
    run_figure("fig1", BENCHMARKS.iter().collect(), jobs, move |b| {
        let (out, disp, sim_tel) = try_run_benchmark_cached(
            b,
            RunConfig::characterize()
                .with_scale(cfg_scale(b, quick))
                .with_iterations(iters(quick)),
            cache,
        )?;
        let row = out.counters.fig1_row();
        Ok((
            Fig1Row {
                name: b.name.to_string(),
                suite: b.suite.name().to_string(),
                checks: row[0],
                tags_untags: row[1],
                math_assumptions: row[2],
                other_optimized: row[3],
                rest_of_code: row[4],
            },
            out.uops,
            disp,
            sim_tel,
        ))
    })
}

/// Render Figure 1 as an aligned table.
pub fn render_fig1(rows: &[Fig1Row]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<34} {:>7} {:>11} {:>9} {:>10} {:>8}",
        "benchmark", "Checks", "Tags/Untags", "MathAssm", "OtherOpt", "Rest"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<34} {:>6.1}% {:>10.1}% {:>8.1}% {:>9.1}% {:>7.1}%",
            r.name, r.checks, r.tags_untags, r.math_assumptions, r.other_optimized, r.rest_of_code
        );
    }
    for suite in [Suite::Octane, Suite::SunSpider, Suite::Kraken] {
        let sel: Vec<&Fig1Row> =
            rows.iter().filter(|r| r.suite == suite.name()).collect();
        if sel.is_empty() {
            continue;
        }
        let n = sel.len() as f64;
        let _ = writeln!(
            out,
            "{:<34} {:>6.1}% {:>10.1}% {:>8.1}% {:>9.1}% {:>7.1}%",
            format!("{} average", suite.name()),
            sel.iter().map(|r| r.checks).sum::<f64>() / n,
            sel.iter().map(|r| r.tags_untags).sum::<f64>() / n,
            sel.iter().map(|r| r.math_assumptions).sum::<f64>() / n,
            sel.iter().map(|r| r.other_optimized).sum::<f64>() / n,
            sel.iter().map(|r| r.rest_of_code).sum::<f64>() / n,
        );
    }
    out
}

// ---------------------------------------------------------------------------
// Figure 2
// ---------------------------------------------------------------------------

/// Figure 2 row: check/untag overhead after object loads (percent of
/// dynamic instructions).
#[derive(Debug, Clone)]
pub struct Fig2Row {
    /// Benchmark name.
    pub name: String,
    /// Suite.
    pub suite: String,
    /// Whole-application percentage.
    pub whole: f64,
    /// Optimized-code-only percentage.
    pub optimized: f64,
    /// Whether this crosses the paper's 1 % selection threshold.
    pub selected_by_threshold: bool,
}

impl ToJson for Fig2Row {
    fn to_json(&self) -> Json {
        json_obj!(self, name, suite, whole, optimized, selected_by_threshold)
    }
}

/// Run the Figure 2 characterization across the pool, reusing `cache`.
///
/// Figure 2 uses the same `RunConfig::characterize()` key as Figure 1, so
/// a warm cache serves every cell from Figure 1's recorded traces.
pub fn fig2_report_cached(
    quick: bool,
    jobs: usize,
    cache: &TraceCache,
) -> FigureReport<Fig2Row> {
    run_figure("fig2", BENCHMARKS.iter().collect(), jobs, move |b| {
        let (out, disp, sim_tel) = try_run_benchmark_cached(
            b,
            RunConfig::characterize()
                .with_scale(cfg_scale(b, quick))
                .with_iterations(iters(quick)),
            cache,
        )?;
        let whole = out.counters.fig2_whole_pct();
        Ok((
            Fig2Row {
                name: b.name.to_string(),
                suite: b.suite.name().to_string(),
                whole,
                optimized: out.counters.fig2_optimized_pct(),
                selected_by_threshold: whole > 1.0,
            },
            out.uops,
            disp,
            sim_tel,
        ))
    })
}

/// Render Figure 2.
pub fn render_fig2(rows: &[Fig2Row]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{:<34} {:>10} {:>12}", "benchmark", "whole app", "optimized");
    for r in rows {
        let _ = writeln!(
            out,
            "{:<34} {:>9.1}% {:>11.1}% {}",
            r.name,
            r.whole,
            r.optimized,
            if r.selected_by_threshold { "*" } else { "" }
        );
    }
    let sel: Vec<&Fig2Row> = rows.iter().filter(|r| r.selected_by_threshold).collect();
    if !sel.is_empty() {
        let n = sel.len() as f64;
        let _ = writeln!(
            out,
            "{:<34} {:>9.1}% {:>11.1}%   (paper: 10.7% / 15.9%)",
            format!("selected average ({} benchmarks)", sel.len()),
            sel.iter().map(|r| r.whole).sum::<f64>() / n,
            sel.iter().map(|r| r.optimized).sum::<f64>() / n,
        );
    }
    out
}

// ---------------------------------------------------------------------------
// Figure 3
// ---------------------------------------------------------------------------

/// Figure 3 row.
#[derive(Debug, Clone)]
pub struct Fig3RowOut {
    /// Benchmark name.
    pub name: String,
    /// Suite.
    pub suite: String,
    /// Monomorphic named-property loads (% of object loads).
    pub mono_properties: f64,
    /// Monomorphic elements-array loads (%).
    pub mono_elements: f64,
    /// Non-monomorphic property loads (%).
    pub poly_properties: f64,
    /// Non-monomorphic elements loads (%).
    pub poly_elements: f64,
}

impl ToJson for Fig3RowOut {
    fn to_json(&self) -> Json {
        json_obj!(
            self,
            name,
            suite,
            mono_properties,
            mono_elements,
            poly_properties,
            poly_elements
        )
    }
}

/// Run Figure 3 across the pool, reusing `cache`.
///
/// Figure 3 shares Figure 1's `RunConfig::characterize()` cache key, so a
/// warm cache serves its (selected-benchmark) cells without re-executing.
pub fn fig3_report_cached(
    quick: bool,
    jobs: usize,
    cache: &TraceCache,
) -> FigureReport<Fig3RowOut> {
    run_figure("fig3", selected().collect(), jobs, move |b| {
        let (out, disp, sim_tel) = try_run_benchmark_cached(
            b,
            RunConfig::characterize()
                .with_scale(cfg_scale(b, quick))
                .with_iterations(iters(quick)),
            cache,
        )?;
        Ok((
            Fig3RowOut {
                name: b.name.to_string(),
                suite: b.suite.name().to_string(),
                mono_properties: out.fig3.mono_properties,
                mono_elements: out.fig3.mono_elements,
                poly_properties: out.fig3.poly_properties,
                poly_elements: out.fig3.poly_elements,
            },
            out.uops,
            disp,
            sim_tel,
        ))
    })
}

/// Render Figure 3.
pub fn render_fig3(rows: &[Fig3RowOut]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<34} {:>10} {:>10} {:>10} {:>10} {:>7}",
        "benchmark", "mono prop", "mono elem", "poly prop", "poly elem", "mono"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<34} {:>9.1}% {:>9.1}% {:>9.1}% {:>9.1}% {:>6.1}%",
            r.name,
            r.mono_properties,
            r.mono_elements,
            r.poly_properties,
            r.poly_elements,
            r.mono_properties + r.mono_elements,
        );
    }
    let n = rows.len() as f64;
    if n > 0.0 {
        let mono = rows.iter().map(|r| r.mono_properties + r.mono_elements).sum::<f64>() / n;
        let _ = writeln!(out, "{:<34} {:>52.1}%  (paper: 66%)", "average monomorphic", mono);
    }
    out
}

// ---------------------------------------------------------------------------
// Figures 8 & 9
// ---------------------------------------------------------------------------

/// Figure 8 + Figure 9 row (the runs are shared).
#[derive(Debug, Clone)]
pub struct Fig89Row {
    /// Benchmark name.
    pub name: String,
    /// Suite.
    pub suite: String,
    /// Whole-application speedup (%).
    pub speedup_whole: f64,
    /// Optimized-code speedup (%).
    pub speedup_opt: f64,
    /// Whole-application energy reduction (%).
    pub energy_whole: f64,
    /// Optimized-code energy reduction (%).
    pub energy_opt: f64,
    /// Baseline dynamic µops (measured iteration).
    pub base_uops: u64,
    /// Mechanism dynamic µops.
    pub full_uops: u64,
    /// Baseline cycles.
    pub base_cycles: u64,
    /// Mechanism cycles.
    pub full_cycles: u64,
    /// DL1 hit-rate: baseline → mechanism.
    pub dl1_hit: (f64, f64),
    /// L2 hit-rate: baseline → mechanism.
    pub l2_hit: (f64, f64),
    /// DTLB hit-rate: baseline → mechanism.
    pub dtlb_hit: (f64, f64),
    /// Class Cache hit rate on the mechanism run.
    pub class_cache_hit: f64,
}

impl ToJson for Fig89Row {
    fn to_json(&self) -> Json {
        json_obj!(
            self,
            name,
            suite,
            speedup_whole,
            speedup_opt,
            energy_whole,
            energy_opt,
            base_uops,
            full_uops,
            base_cycles,
            full_cycles,
            dl1_hit,
            l2_hit,
            dtlb_hit,
            class_cache_hit
        )
    }
}

/// Run Figures 8 and 9 across the pool, reusing `cache`.
///
/// Each cell records/replays two traces (baseline + mechanism); a cell is
/// a `hit` only when both configurations replayed from the cache.
pub fn fig89_report_cached(
    quick: bool,
    jobs: usize,
    cache: &TraceCache,
) -> FigureReport<Fig89Row> {
    run_figure("fig8_fig9", selected().collect(), jobs, move |b| {
        fig89_one_cell(b, quick, cache)
    })
}

/// Run Figures 8/9 for one benchmark, reporting failures as data.
///
/// A checksum divergence between the baseline and mechanism runs is a
/// [`RunError::ChecksumMismatch`] — it flows into the pool's failure
/// summary instead of aborting the suite (the seed used `assert_eq!`
/// here).
///
/// # Errors
///
/// Any [`RunError`] from either configuration, or the checksum mismatch.
pub fn try_fig89_one(b: &Benchmark, quick: bool) -> Result<Fig89Row, RunError> {
    fig89_one_cell(b, quick, &TraceCache::disabled()).map(|(row, _, _, _)| row)
}

fn fig89_one_cell(
    b: &Benchmark,
    quick: bool,
    cache: &TraceCache,
) -> Result<(Fig89Row, u64, CacheDisposition, SimTelemetry), RunError> {
    let (base, base_disp, base_sim_tel) = try_run_benchmark_cached(
        b,
        RunConfig::baseline_timed()
            .with_scale(cfg_scale(b, quick))
            .with_iterations(iters(quick)),
        cache,
    )?;
    let (full, full_disp, full_sim_tel) = try_run_benchmark_cached(
        b,
        RunConfig::mechanism_timed()
            .with_scale(cfg_scale(b, quick))
            .with_iterations(iters(quick)),
        cache,
    )?;
    let mut sim_tel = base_sim_tel;
    sim_tel.absorb(full_sim_tel);
    let disp = match (base_disp, full_disp) {
        (CacheDisposition::Hit, CacheDisposition::Hit) => CacheDisposition::Hit,
        (CacheDisposition::Off, CacheDisposition::Off) => CacheDisposition::Off,
        _ => CacheDisposition::Miss,
    };
    if base.checksum != full.checksum {
        return Err(RunError::ChecksumMismatch {
            bench: b.name.to_string(),
            base: base.checksum,
            full: full.checksum,
        });
    }
    let bs = base.sim.as_ref().expect("timed");
    let fs = full.sim.as_ref().expect("timed");
    let row = Fig89Row {
        name: b.name.to_string(),
        suite: b.suite.name().to_string(),
        speedup_whole: bs.speedup_pct_over(fs),
        speedup_opt: bs.speedup_opt_pct_over(fs),
        energy_whole: bs.energy_reduction_pct(fs),
        energy_opt: bs.energy_reduction_opt_pct(fs),
        base_uops: base.uops,
        full_uops: full.uops,
        base_cycles: bs.cycles,
        full_cycles: fs.cycles,
        dl1_hit: (bs.dl1.hit_rate(), fs.dl1.hit_rate()),
        l2_hit: (bs.l2.hit_rate(), fs.l2.hit_rate()),
        dtlb_hit: (bs.dtlb.hit_rate(), fs.dtlb.hit_rate()),
        class_cache_hit: full.class_cache.hit_rate(),
    };
    Ok((row, base.uops + full.uops, disp, sim_tel))
}

/// Run Figures 8/9 for one benchmark, panicking on failure (compat
/// wrapper used by the smoke tests and `fig8 --detail`).
///
/// # Panics
///
/// On any [`RunError`], including checksum mismatches.
pub fn fig89_one(b: &Benchmark, quick: bool) -> Fig89Row {
    try_fig89_one(b, quick).unwrap_or_else(|e| panic!("{e}"))
}

/// Render Figure 8 (speedup) and Figure 9 (energy).
pub fn render_fig89(rows: &[Fig89Row]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<34} {:>11} {:>9} | {:>12} {:>10}",
        "benchmark", "speedup", "(opt)", "energy red.", "(opt)"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<34} {:>10.1}% {:>8.1}% | {:>11.1}% {:>9.1}%",
            r.name, r.speedup_whole, r.speedup_opt, r.energy_whole, r.energy_opt
        );
    }
    for suite in [Suite::Octane, Suite::SunSpider, Suite::Kraken] {
        let sel: Vec<&Fig89Row> = rows.iter().filter(|r| r.suite == suite.name()).collect();
        if sel.is_empty() {
            continue;
        }
        let n = sel.len() as f64;
        let _ = writeln!(
            out,
            "{:<34} {:>10.1}% {:>8.1}% | {:>11.1}% {:>9.1}%",
            format!("{} average", suite.name()),
            sel.iter().map(|r| r.speedup_whole).sum::<f64>() / n,
            sel.iter().map(|r| r.speedup_opt).sum::<f64>() / n,
            sel.iter().map(|r| r.energy_whole).sum::<f64>() / n,
            sel.iter().map(|r| r.energy_opt).sum::<f64>() / n,
        );
    }
    let n = rows.len() as f64;
    if n > 0.0 {
        let _ = writeln!(
            out,
            "{:<34} {:>10.1}% {:>8.1}% | {:>11.1}% {:>9.1}%   (paper: 5% / 7.1% | 4.5% / 6.5%)",
            "overall average",
            rows.iter().map(|r| r.speedup_whole).sum::<f64>() / n,
            rows.iter().map(|r| r.speedup_opt).sum::<f64>() / n,
            rows.iter().map(|r| r.energy_whole).sum::<f64>() / n,
            rows.iter().map(|r| r.energy_opt).sum::<f64>() / n,
        );
    }
    out
}

// ---------------------------------------------------------------------------
// BBV head-to-head: software check elision vs the hardware Class Cache
// ---------------------------------------------------------------------------

/// Column labels of the BBV head-to-head table, in order.
///
/// * `baseline` — plain engine ([`Mechanism::Off`]), optimized tier on.
/// * `opt-noelide` — software profiling, no elision; the reference point
///   the `elided` column is derived from.
/// * `cc-full` — the paper's hardware Class Cache.
/// * `bbv` — pure-software lazy basic-block versioning.
/// * `cc+bbv` — both mechanisms combined.
///
/// [`Mechanism::Off`]: checkelide_engine::Mechanism::Off
pub const BBV_CONFIGS: [&str; 5] = ["baseline", "opt-noelide", "cc-full", "bbv", "cc+bbv"];

/// BBV head-to-head row: one benchmark, five configurations.
///
/// Each metric vector is indexed by [`BBV_CONFIGS`]. `elided` is derived,
/// not measured: check µops the `opt-noelide` run retired that this
/// configuration did not (saturating at zero, so the `baseline` column —
/// which runs *more* checks than the profiled build — reads 0).
#[derive(Debug, Clone)]
pub struct FigBbvRow {
    /// Benchmark name.
    pub name: String,
    /// Suite.
    pub suite: String,
    /// Check-category µops retired, per configuration.
    pub checks: Vec<u64>,
    /// Checks elided relative to `opt-noelide`, per configuration.
    pub elided: Vec<u64>,
    /// Dynamic µops on the measured iteration, per configuration.
    pub uops: Vec<u64>,
    /// Simulated cycles, per configuration.
    pub cycles: Vec<u64>,
}

impl ToJson for FigBbvRow {
    fn to_json(&self) -> Json {
        json_obj!(self, name, suite, checks, elided, uops, cycles)
    }
}

/// Run the BBV head-to-head across the pool, reusing `cache`.
///
/// Each cell records/replays five traces; a cell is a `hit` only when all
/// five configurations replayed from the cache.
pub fn fig_bbv_report_cached(
    quick: bool,
    jobs: usize,
    cache: &TraceCache,
) -> FigureReport<FigBbvRow> {
    run_figure("fig_bbv", selected().collect(), jobs, move |b| {
        fig_bbv_one_cell(b, quick, cache)
    })
}

fn fig_bbv_one_cell(
    b: &Benchmark,
    quick: bool,
    cache: &TraceCache,
) -> Result<(FigBbvRow, u64, CacheDisposition, SimTelemetry), RunError> {
    use checkelide_isa::uop::Category;
    let configs: [RunConfig; 5] = [
        RunConfig::baseline_timed(),
        RunConfig::characterize().with_timing(true),
        RunConfig::mechanism_timed(),
        RunConfig::characterize().with_timing(true).with_bbv(true),
        RunConfig::mechanism_timed().with_bbv(true),
    ];
    let mut checks = Vec::with_capacity(5);
    let mut uops = Vec::with_capacity(5);
    let mut cycles = Vec::with_capacity(5);
    let mut disps = Vec::with_capacity(5);
    let mut checksum: Option<String> = None;
    let mut total_uops = 0u64;
    let mut sim_tel = SimTelemetry::default();
    for cfg in configs {
        let (out, disp, run_sim_tel) = try_run_benchmark_cached(
            b,
            cfg.with_scale(cfg_scale(b, quick)).with_iterations(iters(quick)),
            cache,
        )?;
        sim_tel.absorb(run_sim_tel);
        match &checksum {
            Some(base) if *base != out.checksum => {
                return Err(RunError::ChecksumMismatch {
                    bench: b.name.to_string(),
                    base: base.clone(),
                    full: out.checksum,
                });
            }
            Some(_) => {}
            None => checksum = Some(out.checksum.clone()),
        }
        checks.push(out.counters.by_category(Category::Check));
        uops.push(out.uops);
        cycles.push(out.sim.as_ref().expect("timed").cycles);
        total_uops += out.uops;
        disps.push(disp);
    }
    let disp = if disps.iter().all(|d| *d == CacheDisposition::Hit) {
        CacheDisposition::Hit
    } else if disps.iter().all(|d| *d == CacheDisposition::Off) {
        CacheDisposition::Off
    } else {
        CacheDisposition::Miss
    };
    let noelide = checks[1];
    let elided: Vec<u64> = checks.iter().map(|&c| noelide.saturating_sub(c)).collect();
    let row = FigBbvRow {
        name: b.name.to_string(),
        suite: b.suite.name().to_string(),
        checks,
        elided,
        uops,
        cycles,
    };
    Ok((row, total_uops, disp, sim_tel))
}

/// Render the BBV head-to-head table: per-benchmark checks executed and
/// elided under each configuration, then µop/cycle ratios vs `opt-noelide`,
/// then a software-vs-hardware elision summary (bbv elided as a fraction of
/// cc-full elided).
pub fn render_fig_bbv(rows: &[FigBbvRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<34} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "benchmark (checks retired)",
        BBV_CONFIGS[0],
        BBV_CONFIGS[1],
        BBV_CONFIGS[2],
        BBV_CONFIGS[3],
        BBV_CONFIGS[4],
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<34} {:>12} {:>12} {:>12} {:>12} {:>12}",
            r.name, r.checks[0], r.checks[1], r.checks[2], r.checks[3], r.checks[4],
        );
    }
    let pct = |part: u64, whole: u64| {
        if whole == 0 {
            0.0
        } else {
            100.0 * part as f64 / whole as f64
        }
    };
    let _ = writeln!(
        out,
        "\n{:<34} {:>9} {:>9} {:>9} | {:>9} {:>9}",
        "elided vs opt-noelide (%)", "cc-full", "bbv", "cc+bbv", "uops*", "cycles*"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<34} {:>8.1}% {:>8.1}% {:>8.1}% | {:>8.3} {:>8.3}",
            r.name,
            pct(r.elided[2], r.checks[1]),
            pct(r.elided[3], r.checks[1]),
            pct(r.elided[4], r.checks[1]),
            r.uops[3] as f64 / r.uops[1].max(1) as f64,
            r.cycles[3] as f64 / r.cycles[1].max(1) as f64,
        );
    }
    let _ = writeln!(out, "  (* bbv run relative to opt-noelide)");
    let cc: u64 = rows.iter().map(|r| r.elided[2]).sum();
    let bbv: u64 = rows.iter().map(|r| r.elided[3]).sum();
    if cc > 0 {
        let _ = writeln!(
            out,
            "{:<34} {:>8.1}%   (software BBV / hardware Class Cache)",
            "bbv elision vs cc-full",
            100.0 * bbv as f64 / cc as f64,
        );
    }
    out
}

// ---------------------------------------------------------------------------
// §5.3 overheads
// ---------------------------------------------------------------------------

/// §5.3 overhead row.
#[derive(Debug, Clone)]
pub struct OverheadRow {
    /// Benchmark name.
    pub name: String,
    /// Hidden classes created (§5.3.1 warm-up ∝ this; paper: ≤32 for all
    /// but box2d/raytrace).
    pub hidden_classes: usize,
    /// Class Cache accesses on the measured iteration.
    pub cc_accesses: u64,
    /// Class Cache hit rate (§5.3.2–5.3.3; paper: >99.9 %).
    pub cc_hit_rate: f64,
    /// Objects allocated.
    pub objects: u64,
    /// Fraction of objects with more than one cache line (§5.3.4).
    pub multi_line_frac: f64,
    /// Memory increase from per-line headers, over multi-line objects'
    /// words (paper: 7–11 %).
    pub mem_increase_pct: f64,
    /// Fraction of property accesses hitting line 0 (paper: 79 %).
    pub line0_frac: f64,
}

impl ToJson for OverheadRow {
    fn to_json(&self) -> Json {
        json_obj!(
            self,
            name,
            hidden_classes,
            cc_accesses,
            cc_hit_rate,
            objects,
            multi_line_frac,
            mem_increase_pct,
            line0_frac
        )
    }
}

/// Run the §5.3 overheads analysis across the pool, reusing `cache`.
///
/// The rows never read the timing model, so the cells run with
/// `with_timing(false)` — the resulting cache key matches Figures 8/9's
/// mechanism configuration (timing is deliberately excluded from the key:
/// `CoreSim` is a pure trace consumer), letting a warm cache serve every
/// cell from the fig8/fig9 recordings.
pub fn overheads_report_cached(
    quick: bool,
    jobs: usize,
    cache: &TraceCache,
) -> FigureReport<OverheadRow> {
    run_figure("overheads", selected().collect(), jobs, move |b| {
        let (out, disp, sim_tel) = try_run_benchmark_cached(
            b,
            RunConfig::mechanism_timed()
                .with_timing(false)
                .with_scale(cfg_scale(b, quick))
                .with_iterations(iters(quick)),
            cache,
        )?;
        let uops = out.uops;
        Ok((overhead_row(b.name, &out), uops, disp, sim_tel))
    })
}

fn overhead_row(name: &str, out: &RunOutput) -> OverheadRow {
    let st = &out.obj_stats;
    let line_total = out.vm_stats.line0_accesses + out.vm_stats.linen_accesses;
    OverheadRow {
        name: name.to_string(),
        hidden_classes: out.hidden_classes,
        cc_accesses: out.class_cache.accesses,
        cc_hit_rate: out.class_cache.hit_rate(),
        objects: st.objects,
        multi_line_frac: if st.objects == 0 {
            0.0
        } else {
            st.multi_line_objects as f64 / st.objects as f64
        },
        mem_increase_pct: if st.object_words == 0 {
            0.0
        } else {
            100.0 * st.extra_header_words as f64 / st.object_words as f64
        },
        line0_frac: if line_total == 0 {
            1.0
        } else {
            out.vm_stats.line0_accesses as f64 / line_total as f64
        },
    }
}

/// Render the overheads table.
pub fn render_overheads(rows: &[OverheadRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<34} {:>8} {:>12} {:>9} {:>10} {:>9} {:>8}",
        "benchmark", "classes", "cc accesses", "cc hit%", "multiline%", "mem+%", "line0%"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<34} {:>8} {:>12} {:>8.2}% {:>9.1}% {:>8.1}% {:>7.1}%",
            r.name,
            r.hidden_classes,
            r.cc_accesses,
            100.0 * r.cc_hit_rate,
            100.0 * r.multi_line_frac,
            r.mem_increase_pct,
            100.0 * r.line0_frac,
        );
    }
    out
}

/// Save any serializable result set as JSON under `results/`.
///
/// # Errors
///
/// I/O errors from creating the directory or writing the file.
pub fn save_json<T: ToJson + ?Sized>(name: &str, rows: &T) -> std::io::Result<()> {
    std::fs::create_dir_all("results")?;
    let path = format!("results/{name}.json");
    let json = crate::json::to_string_pretty(rows);
    std::fs::write(path, json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::find;

    #[test]
    fn fig89_one_quick_is_consistent() {
        let b = find("richards").expect("registered");
        let row = fig89_one(b, true);
        assert_eq!(row.name, "richards");
        assert!(row.base_uops > 0 && row.full_uops > 0);
        assert!(row.base_cycles > 0 && row.full_cycles > 0);
        assert!(row.class_cache_hit > 0.9);
    }

    /// A cell that panics surfaces as a reported `CellError` while every
    /// sibling cell still completes and produces its row.
    #[test]
    fn injected_panic_is_isolated_to_its_cell() {
        let victim = "richards";
        let report = run_figure("fig1", BENCHMARKS.iter().collect(), 4, |b| {
            if b.name == victim {
                panic!("injected panic for fault-isolation testing");
            }
            Ok((b.name, 1, CacheDisposition::Off, SimTelemetry::default()))
        });

        // Exactly the injected cell failed, as a CellError with the panic
        // message — not an abort of the whole report.
        assert_eq!(report.failures.len(), 1, "failures: {:?}", report.failures);
        let failure = &report.failures[0];
        assert_eq!(failure.label, format!("fig1/{victim}"));
        assert!(
            failure.message.contains("injected panic"),
            "unexpected panic payload: {}",
            failure.message
        );

        // Every sibling cell still produced its row, in registry order,
        // and its metadata.
        let siblings: Vec<&str> =
            BENCHMARKS.iter().map(|b| b.name).filter(|&n| n != victim).collect();
        assert_eq!(report.rows, siblings);
        assert_eq!(report.cells.len(), BENCHMARKS.len());
        let failed_meta =
            report.cells.iter().find(|c| c.benchmark == victim).expect("victim metadata");
        assert!(!failed_meta.ok);
        assert!(failed_meta.error.as_deref().unwrap_or("").contains("injected panic"));
        assert!(
            report.cells.iter().filter(|c| c.benchmark != victim).all(|c| c.ok),
            "a sibling cell was poisoned: {:?}",
            report.cells.iter().filter(|c| !c.ok).collect::<Vec<_>>()
        );
    }

    #[test]
    fn renderers_are_total() {
        let rows = vec![Fig1Row {
            name: "x".into(),
            suite: "Octane".into(),
            checks: 5.0,
            tags_untags: 4.0,
            math_assumptions: 1.0,
            other_optimized: 40.0,
            rest_of_code: 50.0,
        }];
        assert!(render_fig1(&rows).contains("Octane average"));
        let rows = vec![Fig2Row {
            name: "x".into(),
            suite: "Kraken".into(),
            whole: 12.0,
            optimized: 20.0,
            selected_by_threshold: true,
        }];
        assert!(render_fig2(&rows).contains("selected average"));
        let failures = vec![CellError {
            label: "fig1/x".into(),
            message: "x: setup failed: boom".into(),
        }];
        let summary = render_failures(&failures);
        assert!(summary.contains("1 cell(s) FAILED"));
        assert!(summary.contains("fig1/x"));
        assert_eq!(render_failures(&[]), "");
    }

    #[test]
    fn cell_meta_serializes_with_stable_fields() {
        let meta = CellMeta {
            figure: "fig1".into(),
            benchmark: "richards".into(),
            worker: 3,
            wall_ms: 12.5,
            uops: 1000,
            uops_per_sec: 80000.0,
            ok: true,
            cache: "off".into(),
            sim_hits: 2,
            sim_misses: 1,
            sim_verify_mismatches: 0,
            error: None,
        };
        let json = crate::json::to_string_pretty(&meta);
        for key in [
            "figure",
            "benchmark",
            "worker",
            "wall_ms",
            "uops",
            "uops_per_sec",
            "ok",
            "cache",
            "sim_hits",
            "sim_misses",
            "sim_verify_mismatches",
        ] {
            assert!(json.contains(&format!("\"{key}\"")), "missing {key} in {json}");
        }
    }
}
