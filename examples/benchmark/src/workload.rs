//! The workloads: what one set-up and one timed pass do.
//!
//! Untraced runs drive the public `figures::*_report_cached` drivers
//! exactly as `reproduce` calls them, at `--quick` scale. Every pass checks
//! its own outputs: figure rows against `golden/` where a golden exists,
//! against the set-up's (or the first pass's) rows everywhere else, and the
//! cache counters against what the workload promises (a warm pass never
//! misses, a verify pass never diverges).

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use checkelide_bench::figures::{self, CellMeta, FigureReport};
use checkelide_bench::json::to_string_pretty;
use checkelide_bench::{
    selected, Benchmark, RunConfig, SimCacheMode, ToJson, TraceCache, BENCHMARKS,
};

/// Every workload runs the figure drivers at `--quick` scale.
pub const QUICK: bool = true;

/// Worker threads of every pass, set-up and warm re-read included: the
/// reference host's two vCPUs. Two workers also let each cell's best-of-N
/// wall sample both cores.
pub const JOBS: usize = 2;

const GOLDEN_FIG1: &str = include_str!("../../../golden/fig1_quick.json");
const GOLDEN_FIG_BBV: &str = include_str!("../../../golden/fig_bbv_quick.json");

/// One figure driver of `reproduce` (or the BBV head-to-head).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Figure {
    Fig1,
    Fig2,
    Fig3,
    Fig89,
    Overheads,
    FigBbv,
}

/// One `(benchmark, configuration)` run inside a figure cell.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    pub figure: Figure,
    pub bench: &'static Benchmark,
    pub cfg: RunConfig,
}

/// One figure driver's output, reduced to what the checks need.
#[derive(Debug, Clone)]
pub struct FigureOut {
    pub figure: Figure,
    /// The rows exactly as `reproduce` writes them to `results/`.
    pub rows: String,
    pub cells: Vec<CellMeta>,
    pub failures: Vec<String>,
}

fn collect<R: ToJson>(figure: Figure, report: FigureReport<R>) -> FigureOut {
    FigureOut {
        figure,
        rows: to_string_pretty(&report.rows),
        cells: report.cells,
        failures: report.failures.iter().map(ToString::to_string).collect(),
    }
}

impl Figure {
    /// The figure label the drivers put in `CellMeta::figure`.
    pub fn label(self) -> &'static str {
        match self {
            Figure::Fig1 => "fig1",
            Figure::Fig2 => "fig2",
            Figure::Fig3 => "fig3",
            Figure::Fig89 => "fig8_fig9",
            Figure::Overheads => "overheads",
            Figure::FigBbv => "fig_bbv",
        }
    }

    /// Run the public driver over the pool.
    pub fn run(self, jobs: usize, cache: &TraceCache) -> FigureOut {
        match self {
            Figure::Fig1 => collect(self, figures::fig1_report_cached(QUICK, jobs, cache)),
            Figure::Fig2 => collect(self, figures::fig2_report_cached(QUICK, jobs, cache)),
            Figure::Fig3 => collect(self, figures::fig3_report_cached(QUICK, jobs, cache)),
            Figure::Fig89 => collect(self, figures::fig89_report_cached(QUICK, jobs, cache)),
            Figure::Overheads => {
                collect(self, figures::overheads_report_cached(QUICK, jobs, cache))
            }
            Figure::FigBbv => collect(self, figures::fig_bbv_report_cached(QUICK, jobs, cache)),
        }
    }

    /// The committed reference rows, where the repository pins them.
    pub fn golden(self) -> Option<&'static str> {
        match self {
            Figure::Fig1 => Some(GOLDEN_FIG1),
            Figure::FigBbv => Some(GOLDEN_FIG_BBV),
            _ => None,
        }
    }

    /// The runs the driver's cells make, in the order a one-worker pool
    /// makes them. This mirrors `figures.rs` (quick scale and iteration
    /// count included); the traced run checks the mirror against the
    /// drivers' own per-cell µop counts and cache keys.
    pub fn runs(self) -> Vec<Run> {
        let quick =
            |b: &Benchmark, cfg: RunConfig| cfg.with_scale((b.scale / 6).max(2)).with_iterations(4);
        let configs: Vec<RunConfig> = match self {
            Figure::Fig1 | Figure::Fig2 | Figure::Fig3 => vec![RunConfig::characterize()],
            Figure::Fig89 => vec![RunConfig::baseline_timed(), RunConfig::mechanism_timed()],
            Figure::Overheads => vec![RunConfig::mechanism_timed().with_timing(false)],
            Figure::FigBbv => vec![
                RunConfig::baseline_timed(),
                RunConfig::characterize().with_timing(true),
                RunConfig::mechanism_timed(),
                RunConfig::characterize().with_timing(true).with_bbv(true),
                RunConfig::mechanism_timed().with_bbv(true),
            ],
        };
        let benches: Vec<&'static Benchmark> = match self {
            Figure::Fig1 | Figure::Fig2 => BENCHMARKS.iter().collect(),
            _ => selected().collect(),
        };
        benches
            .into_iter()
            .flat_map(|bench| {
                configs.iter().map(move |&cfg| Run {
                    figure: self,
                    bench,
                    cfg: quick(bench, cfg),
                })
            })
            .collect()
    }
}

const REPRODUCE: &[Figure] = &[
    Figure::Fig1,
    Figure::Fig2,
    Figure::Fig3,
    Figure::Fig89,
    Figure::Overheads,
];
const RESIMULATE: &[Figure] = &[Figure::Fig89, Figure::Overheads];
const CHARACTERIZE: &[Figure] = &[Figure::Fig1, Figure::FigBbv];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The five `reproduce` drivers into an empty store (timed), then once
    /// more over the store they filled (the warm pass: checked, recorded,
    /// not a metric).
    Reproduce,
    /// Figures 8/9 and §5.3 re-simulated from the store (`verify` mode).
    Resimulate,
    /// Figure 1 and the BBV head-to-head with the trace cache off.
    Characterize,
}

/// Where a workload's trace store lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreUse {
    /// No store: the trace cache is off.
    None,
    /// An empty store for every pass, re-read by a warm pass after it.
    FreshPerPass,
    /// One store, primed by the set-up, shared by every pass.
    Primed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Reproduce,
        Workload::Resimulate,
        Workload::Characterize,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Reproduce => "reproduce",
            Workload::Resimulate => "resimulate",
            Workload::Characterize => "characterize",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The drivers one timed pass runs (and a primed store is primed
    /// with), in `reproduce` order.
    pub fn figures(self) -> &'static [Figure] {
        match self {
            Workload::Reproduce => REPRODUCE,
            Workload::Resimulate => RESIMULATE,
            Workload::Characterize => CHARACTERIZE,
        }
    }

    pub fn store(self) -> StoreUse {
        match self {
            Workload::Reproduce => StoreUse::FreshPerPass,
            Workload::Resimulate => StoreUse::Primed,
            Workload::Characterize => StoreUse::None,
        }
    }

    /// Sim-cache mode of a timed pass (set-up always primes with `on`).
    pub fn pass_sim_mode(self) -> SimCacheMode {
        match self {
            Workload::Resimulate => SimCacheMode::Verify,
            Workload::Characterize => SimCacheMode::Off,
            _ => SimCacheMode::On,
        }
    }
}

/// Parse every kernel of the suite: the set-up's check that the inputs
/// are well formed.
pub fn parse_suite() -> Result<(), String> {
    for b in BENCHMARKS {
        checkelide_lang::parse_program(b.source).map_err(|e| format!("{}: {e}", b.name))?;
    }
    Ok(())
}

/// One timed pass.
#[derive(Debug)]
pub struct Pass {
    pub wall: Duration,
    pub figures: Vec<FigureOut>,
    /// Trace-cache misses, sim misses and verify mismatches during the pass.
    pub misses: u64,
    pub sim_misses: u64,
    pub verify_mismatches: u64,
    /// Wall time of the warm pass that re-read a cold pass's store.
    pub warm_wall: Option<Duration>,
}

impl Pass {
    pub fn cells(&self) -> impl Iterator<Item = &CellMeta> {
        self.figures.iter().flat_map(|f| f.cells.iter())
    }
}

/// Run `figures` over the pool against `cache`, timing the whole pass.
pub fn run_pass(figures: &[Figure], cache: &TraceCache) -> Pass {
    let before = cache.stats();
    let start = Instant::now();
    let figures = figures.iter().map(|f| f.run(JOBS, cache)).collect();
    let wall = start.elapsed();
    let after = cache.stats();
    Pass {
        wall,
        figures,
        misses: after.misses - before.misses,
        sim_misses: after.sim_misses - before.sim_misses,
        verify_mismatches: after.sim_verify_mismatches - before.sim_verify_mismatches,
        warm_wall: None,
    }
}

/// Checks of a pass over a store that already holds everything it needs:
/// every lookup hits, and re-simulation (verify mode) matches the store.
fn check_complete_store(pass: &Pass, what: &str) -> Vec<String> {
    let mut problems = Vec::new();
    if pass.misses + pass.sim_misses > 0 {
        problems.push(format!(
            "{what} missed: {} trace, {} sim",
            pass.misses, pass.sim_misses
        ));
    }
    if pass.verify_mismatches > 0 {
        problems.push(format!(
            "{what}: {} sim verify mismatches",
            pass.verify_mismatches
        ));
    }
    problems
}

/// A prepared workload: what the set-up leaves for the timed passes.
pub struct Session {
    pub workload: Workload,
    dir: PathBuf,
    /// The pass cache of a primed store.
    cache: Option<TraceCache>,
    /// Rows every pass must reproduce: the priming pass's, or the first
    /// timed pass's when nothing is primed.
    reference: Vec<FigureOut>,
    passes: usize,
}

impl Session {
    /// Set the workload up under `dir` (created; removed by
    /// [`Session::remove`]). Returns the session and the set-up problems.
    pub fn setup(workload: Workload, dir: &Path) -> (Session, Vec<String>) {
        let mut problems = Vec::new();
        if let Err(e) = parse_suite() {
            problems.push(format!("suite does not parse: {e}"));
        }
        let mut session = Session {
            workload,
            dir: dir.to_path_buf(),
            cache: None,
            reference: Vec::new(),
            passes: 0,
        };
        if workload.store() == StoreUse::Primed {
            let prime = run_pass(
                workload.figures(),
                &TraceCache::at(dir).with_sim_mode(SimCacheMode::On),
            );
            problems.extend(check_rows(&prime.figures, &[]));
            session.reference = prime.figures;
            session.cache = Some(TraceCache::at(dir).with_sim_mode(workload.pass_sim_mode()));
        }
        (session, problems)
    }

    /// Run one timed pass. Returns the pass and the problems its output
    /// checks found.
    pub fn pass(&mut self) -> (Pass, Vec<String>) {
        let w = self.workload;
        let mut problems = Vec::new();
        let pass = match w.store() {
            StoreUse::Primed => {
                let pass = run_pass(w.figures(), self.cache.as_ref().expect("primed"));
                problems.extend(check_complete_store(&pass, "pass over the primed store"));
                pass
            }
            StoreUse::None => run_pass(w.figures(), &TraceCache::disabled()),
            StoreUse::FreshPerPass => {
                let dir = self.dir.join(format!("pass-{}", self.passes));
                let cache = TraceCache::at(&dir).with_sim_mode(w.pass_sim_mode());
                let mut pass = run_pass(w.figures(), &cache);
                let warm = run_pass(w.figures(), &cache);
                problems.extend(check_complete_store(&warm, "warm pass"));
                problems.extend(check_rows(&warm.figures, &pass.figures));
                pass.warm_wall = Some(warm.wall);
                drop(cache);
                let _ = std::fs::remove_dir_all(&dir);
                pass
            }
        };
        self.passes += 1;
        problems.extend(check_rows(&pass.figures, &self.reference));
        if self.reference.is_empty() {
            self.reference = pass.figures.clone();
        }
        (pass, problems)
    }

    /// Delete the session's directory.
    pub fn remove(self) {
        drop(self.cache);
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Output checks of one pass: no failed cell, golden rows byte-equal, and
/// rows byte-equal to `reference` for every figure it holds.
pub fn check_rows(out: &[FigureOut], reference: &[FigureOut]) -> Vec<String> {
    let mut problems = Vec::new();
    for f in out {
        for failure in &f.failures {
            problems.push(format!("cell failed: {failure}"));
        }
        if let Some(golden) = f.figure.golden() {
            if f.rows != golden {
                problems.push(format!("{} rows differ from golden/", f.figure.label()));
            }
        }
        if let Some(r) = reference.iter().find(|r| r.figure == f.figure) {
            if r.rows != f.rows {
                problems.push(format!(
                    "{} rows differ from the reference pass",
                    f.figure.label()
                ));
            }
        }
    }
    problems
}
