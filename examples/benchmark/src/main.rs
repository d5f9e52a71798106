//! `benchmark` — the repository's end-to-end benchmark: the `reproduce`
//! pipeline, cold and warm, re-simulation and characterization, with an
//! outside-in per-layer trace. See `README.md` beside this package.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1
//! benchmark --workload NAME --smoke      # one kernel, one pass, every metric
//! benchmark --check                      # validate ./BENCHMARK.json
//! ```
//!
//! Run from the repository root. Prints every metric as `name value unit`,
//! then, as the last line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; writes the full report (samples, host
//! calibration, problems found) under `results/benchmark/`.

mod alloc;
mod host;
mod json;
mod spec;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use json::Value as J;
use spec::{Metric, END_TO_END, PER_LAYER};
use trace::{Executed, Sequence};
use workload::{Session, StoreUse, Workload};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: benchmark --workload NAME --seed N --seconds S --trace 0|1\n       \
                     benchmark --workload NAME --smoke\n       benchmark --check";

/// Measurement windows per untraced run, each with its own set-up.
const WINDOWS: usize = 3;

/// A window repeats a set-up cheaper than this (keeping the last), so a
/// set-up of milliseconds is timed more than once.
const MIN_SETUP_SECONDS: f64 = 0.05;

/// At most this many set-ups per window.
const MAX_SETUPS_PER_WINDOW: usize = 16;

/// `--smoke` restricts every workload to this kernel.
const SMOKE_KERNEL: &str = "richards";

/// The traced run fails below this share of its wall in named layers.
const MIN_CLOSURE: f64 = 0.95;

/// Host-calibration drift above which a run is marked unstable.
const MAX_CALIB_DRIFT: f64 = 0.10;

/// Where results and per-run scratch stores go, relative to the checkout.
const RESULTS_DIR: &str = "results/benchmark";

#[derive(Debug)]
struct Opts {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

enum Mode {
    Check,
    Run(Opts),
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut smoke, mut check) =
        (0u64, 10.0f64, false, false, false);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{a} expects a value"));
        match a.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {v:?}; expected one of {names:?}")
                })?);
            }
            "--seed" => {
                seed = value()?
                    .parse()
                    .map_err(|_| "--seed expects an unsigned integer".to_string())?;
            }
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or("--seconds expects a positive number")?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace expects 0 or 1, got {v:?}")),
                };
            }
            "--smoke" => smoke = true,
            "--check" => check = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if check {
        return Ok(Mode::Check);
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Mode::Run(Opts {
        workload,
        seed,
        seconds,
        trace,
        smoke,
    }))
}

/// Environment settings change what the harness runs (trace cache, sim
/// cache, compression, jobs); the benchmark's inputs must not depend on
/// them.
fn scrub_environment() {
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("CHECKELIDE_") {
            eprintln!("benchmark: ignoring {}", key.to_string_lossy());
            std::env::remove_var(&key);
        }
    }
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Everything one invocation measured and found.
struct Report {
    opts: Opts,
    metrics: Vec<(&'static str, f64)>,
    attempted: u64,
    problems: Vec<String>,
    calib_ms: [f64; 2],
    details: Vec<(&'static str, J)>,
}

impl Report {
    fn new(opts: Opts) -> Report {
        Report {
            opts,
            metrics: Vec::new(),
            attempted: 0,
            problems: Vec::new(),
            calib_ms: [0.0; 2],
            details: Vec::new(),
        }
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    fn detail(&mut self, name: &'static str, value: J) {
        self.details.push((name, value));
    }

    fn calib_drift(&self) -> f64 {
        ratio(
            (self.calib_ms[1] - self.calib_ms[0]).abs(),
            self.calib_ms[0],
        )
    }

    fn file_stem(&self) -> String {
        let o = &self.opts;
        let kind = match (o.smoke, o.trace) {
            (true, _) => "smoke",
            (false, true) => "traced",
            (false, false) => "run",
        };
        format!("{}-{}.{kind}", o.workload.name(), o.seed)
    }

    /// Print the metrics of `tables`, write the report file, print the
    /// result line. Returns the exit code.
    fn finish(mut self, tables: &[&[Metric]]) -> i32 {
        let mut out = Vec::new();
        for m in tables.iter().flat_map(|t| t.iter()) {
            match self.metrics.iter().find(|(n, _)| *n == m.name) {
                Some(&(_, v)) if v.is_finite() => {
                    println!("{} {v} {}", m.name, m.unit);
                    out.push((
                        m.name,
                        J::obj([("value", J::from(v)), ("unit", J::str(m.unit))]),
                    ));
                }
                _ => self
                    .problems
                    .push(format!("metric {} was not measured", m.name)),
            }
        }
        let stable = self.calib_drift() <= MAX_CALIB_DRIFT;
        if !stable {
            eprintln!(
                "benchmark: host calibration drifted {:.1}% ({:.1} -> {:.1} ms); run marked unstable",
                100.0 * self.calib_drift(),
                self.calib_ms[0],
                self.calib_ms[1]
            );
        }
        for p in &self.problems {
            eprintln!("benchmark: {p}");
        }
        let failed = self.problems.len() as u64;
        let correct = failed == 0;
        let metrics = J::obj(out);
        let o = &self.opts;
        let mut report = vec![
            ("workload", J::str(o.workload.name())),
            ("seed", J::from(o.seed)),
            ("seconds", J::from(o.seconds)),
            ("trace", J::from(o.trace)),
            ("smoke", J::from(o.smoke)),
            ("correct", J::from(correct)),
            ("attempted", J::from(self.attempted.max(1))),
            ("failed", J::from(failed)),
            ("stable", J::from(stable)),
            (
                "host_calib_ms",
                J::Arr(self.calib_ms.iter().map(|&c| J::from(c)).collect()),
            ),
            (
                "problems",
                J::Arr(self.problems.iter().map(J::str).collect()),
            ),
            ("metrics", metrics.clone()),
        ];
        report.append(&mut self.details);
        let path = Path::new(RESULTS_DIR).join(format!("{}.json", self.file_stem()));
        if let Err(e) = std::fs::write(&path, J::obj(report).to_compact() + "\n") {
            eprintln!("benchmark: cannot write {}: {e}", path.display());
        }
        let line = J::obj([
            ("correct", J::from(correct)),
            ("attempted", J::from(self.attempted.max(1))),
            ("failed", J::from(failed)),
            ("metrics", metrics),
        ]);
        println!("{}", line.to_compact());
        i32::from(!correct)
    }
}

/// Set the workload up for window `window`, repeating a cheap set-up (see
/// [`MIN_SETUP_SECONDS`]). Returns the last set-up's session and the
/// window's `setup_s` sample: its fastest set-up, which for a set-up of a
/// few milliseconds is the reading least disturbed by the host.
fn set_up(r: &mut Report, scratch: &Path, window: usize) -> (Session, f64) {
    let (mut spent, mut fastest) = (0.0, f64::INFINITY);
    for n in 1.. {
        let start = Instant::now();
        let (session, problems) = Session::setup(
            r.opts.workload,
            &scratch.join(format!("setup-{window}-{n}")),
        );
        let took = start.elapsed().as_secs_f64();
        spent += took;
        fastest = fastest.min(took);
        r.problems.extend(problems);
        if spent >= MIN_SETUP_SECONDS || n == MAX_SETUPS_PER_WINDOW {
            return (session, fastest);
        }
        session.remove();
    }
    unreachable!("the set-up loop returns")
}

/// Untraced run in [`WINDOWS`] windows: each sets the workload up afresh,
/// then times passes of the public drivers until the measured time reaches
/// its share of `--seconds` (so the run measures `--seconds` in all, give
/// or take one pass). Spreading the timed passes over the run, and over
/// independently built stores, keeps one slow stretch of a shared host from
/// deciding the run.
///
/// Time and memory are taken best-of-N. On a host whose cores each flip
/// between a fast and a ~1.5× slower state every few seconds, a multi-second
/// pass mixes both and its wall wanders from run to run; a cell lasts
/// milliseconds to a second, so its fastest wall over the run's passes is
/// almost always a fast-state reading. `cells_ms` sums those per-cell bests
/// over one pass. Peak heap depends on which cells the two workers happen
/// to overlap, so its metric is the lowest per-pass peak.
fn measure(r: &mut Report, scratch: &Path) {
    let (mut setups, mut walls, mut warm_walls, mut cells) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut heap_peaks, mut rss_peaks) = (Vec::new(), Vec::new());
    let mut best: BTreeMap<(String, String), f64> = BTreeMap::new();
    let mut measured = 0.0;
    for i in 0..WINDOWS {
        let (mut session, setup_s) = set_up(r, scratch, i);
        setups.push(setup_s);
        host::settle(scratch);
        let share = r.opts.seconds * (i + 1) as f64 / WINDOWS as f64;
        let last = i + 1 == WINDOWS;
        while measured < share || (last && walls.is_empty()) {
            host::reset_peak_rss();
            alloc::reset_peak();
            let start = Instant::now();
            let (pass, problems) = session.pass();
            heap_peaks.push(alloc::peak_mib());
            rss_peaks.push(host::peak_rss_mib());
            host::settle(scratch);
            measured += start.elapsed().as_secs_f64();
            walls.push(ms(pass.wall));
            warm_walls.extend(pass.warm_wall.map(ms));
            for c in pass.cells() {
                cells.push(c.wall_ms);
                let b = best
                    .entry((c.figure.clone(), c.benchmark.clone()))
                    .or_insert(f64::INFINITY);
                *b = b.min(c.wall_ms);
            }
            r.attempted += pass.cells().count() as u64;
            r.problems.extend(problems);
        }
        session.remove();
        host::settle(scratch);
    }

    r.set("setup_s", host::median(&setups));
    r.set("cells_ms", best.values().sum());
    r.set(
        "peak_heap_mib",
        heap_peaks.iter().copied().fold(f64::INFINITY, f64::min),
    );
    let samples = |v: Vec<f64>| J::Arr(v.into_iter().map(J::from).collect());
    r.detail("wall_ms_median", J::from(host::median(&walls)));
    r.detail("cell_samples", J::from(cells.len()));
    r.detail("cell_p50_ms", J::from(host::quantile(&cells, 0.5)));
    r.detail("cell_p90_ms", J::from(host::quantile(&cells, 0.9)));
    r.detail("cell_p99_ms", J::from(host::quantile(&cells, 0.99)));
    r.detail("setup_s_samples", samples(setups));
    r.detail("wall_ms_samples", samples(walls));
    r.detail("warm_wall_ms_samples", samples(warm_walls));
    r.detail("peak_heap_mib_samples", samples(heap_peaks));
    r.detail("peak_rss_mib_samples", samples(rss_peaks));
}

/// Traced run: the drivers once (pool metrics, mirror check), then the
/// workload's runs untraced and traced, then the fidelity check. With
/// `--smoke`, one kernel and no driver pass; every metric is emitted.
fn traced(r: &mut Report, scratch: &Path) {
    let w = r.opts.workload;
    let seq = Sequence::of(w, r.opts.smoke.then_some(SMOKE_KERNEL));

    let drivers = (!r.opts.smoke).then(|| {
        let (mut session, mut problems) = Session::setup(w, &scratch.join("drivers"));
        let (pass, more) = session.pass();
        session.remove();
        problems.extend(more);
        (pass, problems)
    });

    let (dir_u, dir_t) = (scratch.join("untraced"), scratch.join("traced"));
    host::settle(scratch);
    alloc::reset_peak();
    let untraced = trace::run_untraced(w, &seq, &dir_u);
    let heap_peak = alloc::peak_mib();
    host::settle(scratch);
    let (rec, traced) = trace::run_traced(w, &seq, &dir_t);

    let stores = (w.store() != StoreUse::None).then_some((dir_u.as_path(), dir_t.as_path()));
    r.problems
        .extend(trace::fidelity(&untraced, &traced, stores));
    r.attempted += (untraced.outcomes.len() + traced.outcomes.len()) as u64;
    let first_timed = untraced
        .outcomes
        .len()
        .saturating_sub(seq.pass.len() + seq.warm.len());
    let pass_outcomes = &untraced.outcomes[first_timed..][..seq.pass.len()];

    let (busy, max_cell) = match &drivers {
        Some((pass, problems)) => {
            let cells: Vec<_> = pass.cells().cloned().collect();
            r.problems.extend(problems.iter().cloned());
            r.problems
                .extend(trace::check_mirror(&seq.pass, pass_outcomes, &cells));
            r.attempted += cells.len() as u64;
            let sum: f64 = cells.iter().map(|c| c.wall_ms).sum();
            let max = cells.iter().map(|c| c.wall_ms).fold(0.0, f64::max);
            (ratio(sum, workload::JOBS as f64 * ms(pass.wall)), max)
        }
        None => {
            let sum: f64 = untraced.run_ms.iter().sum();
            (
                ratio(sum, ms(untraced.pass_wall)),
                untraced.run_ms.iter().copied().fold(0.0, f64::max),
            )
        }
    };

    let layers = rec.t.layer_ms();
    for (span, metric) in trace::LAYERS {
        r.set(metric, layers.get(span).copied().unwrap_or(0.0));
    }
    let traced_ms = ms(traced.setup_wall + traced.pass_wall);
    let closure = ratio(layers.values().sum(), traced_ms);
    if closure < MIN_CLOSURE {
        r.problems
            .push(format!("trace closure {closure:.3} is below {MIN_CLOSURE}"));
    }
    let n = &rec.n;
    let f = |v: u64| v as f64;
    for (name, value) in [
        ("engine.runs", f(n.engine_runs)),
        ("engine.uops_measured", f(n.uops_measured)),
        ("engine.deopts", f(n.deopts)),
        ("opt.tier_up_events", f(n.tier_up_events)),
        ("opt.regions_compiled", f(n.regions_compiled)),
        ("opt.bbv_versions", f(n.bbv_versions)),
        ("opt.bbv_cap_fallbacks", f(n.bbv_cap_fallbacks)),
        ("coresim.uops", f(n.coresim_uops)),
        ("coresim.cycles", f(n.coresim_cycles)),
        (
            "coresim.mops",
            ratio(
                f(n.coresim_uops),
                layers.get("coresim").copied().unwrap_or(0.0) * 1e3,
            ),
        ),
        (
            "codec.bytes_per_uop",
            ratio(f(n.encoded_bytes), f(n.encoded_uops)),
        ),
        ("lz.ratio", ratio(f(n.lz_in), f(n.lz_out))),
        ("store.lookups", f(n.lookups)),
        ("store.hit_ratio", ratio(f(n.hits), f(n.lookups))),
        ("store.sim_lookups", f(n.sim_lookups)),
        (
            "store.sim_hit_ratio",
            ratio(f(n.sim_hits), f(n.sim_lookups)),
        ),
        ("store.bytes_read", f(n.bytes_read)),
        ("store.bytes_written", f(n.bytes_written)),
        ("pool.busy_ratio", busy),
        ("pool.max_cell_ms", max_cell),
        ("trace.closure", closure),
        (
            "trace.overhead",
            ratio(ms(traced.pass_wall), ms(untraced.pass_wall)),
        ),
    ] {
        r.set(name, value);
    }

    if r.opts.smoke {
        r.set("setup_s", untraced.setup_wall.as_secs_f64());
        r.set("cells_ms", untraced.run_ms.iter().sum());
        r.set("peak_heap_mib", heap_peak);
    }
    r.detail("traced_setup_ms", J::from(ms(traced.setup_wall)));
    r.detail("traced_pass_ms", J::from(ms(traced.pass_wall)));
    r.detail("untraced_pass_ms", J::from(ms(untraced.pass_wall)));
    r.detail("runs_per_pass", J::from(seq.pass.len()));
    write_spans(r, &rec, &traced);
}

fn write_spans(r: &Report, rec: &trace::Recomposer, traced: &Executed) {
    let doc = J::obj([
        ("workload", J::str(r.opts.workload.name())),
        ("seed", J::from(r.opts.seed)),
        ("setup_ms", J::from(ms(traced.setup_wall))),
        ("pass_ms", J::from(ms(traced.pass_wall))),
        ("spans", rec.t.to_json()),
    ]);
    let path = Path::new(RESULTS_DIR).join(format!("{}.trace.json", r.file_stem()));
    if let Err(e) = std::fs::write(&path, doc.to_compact() + "\n") {
        eprintln!("benchmark: cannot write {}: {e}", path.display());
    }
}

fn run(opts: Opts) -> i32 {
    scrub_environment();
    let scratch = PathBuf::from(RESULTS_DIR).join(format!("tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("benchmark: cannot create {}: {e}", scratch.display());
        return 1;
    }
    let (trace, smoke) = (opts.trace, opts.smoke);
    eprintln!(
        "benchmark: workload {} seed {} ({}) — the seed is recorded; the inputs are the fixed 33-kernel suite",
        opts.workload.name(),
        opts.seed,
        if smoke { "smoke" } else if trace { "traced" } else { "untraced" },
    );
    let mut r = Report::new(opts);
    host::settle(&scratch);
    r.calib_ms[0] = host::calibrate();
    if trace || smoke {
        traced(&mut r, &scratch);
    } else {
        measure(&mut r, &scratch);
    }
    r.calib_ms[1] = host::calibrate();
    r.set("host.calib_ms", (r.calib_ms[0] + r.calib_ms[1]) / 2.0);
    let _ = std::fs::remove_dir_all(&scratch);
    // Commit the deletions now, so the next run does not pay for them.
    host::settle(Path::new(RESULTS_DIR));
    let tables: &[&[Metric]] = match (smoke, trace) {
        (true, _) => &[END_TO_END, PER_LAYER],
        (false, true) => &[PER_LAYER],
        (false, false) => &[END_TO_END],
    };
    r.finish(tables)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse_args(&args) {
        Ok(Mode::Check) => spec::run_check(),
        Ok(Mode::Run(opts)) => run(opts),
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            2
        }
    };
    std::process::exit(code);
}
