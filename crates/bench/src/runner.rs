//! The steady-state measurement harness.
//!
//! Each benchmark runs `iterations` times (the paper uses ten); statistics
//! are reset after the warm-up iterations and collected for the final one
//! ("we focus on the steady state … executing the benchmark ten times and
//! taking statistics from the tenth iteration", §5).

use crate::simcache::{sim_config, sim_fingerprint, SimCacheMode};
use crate::store::{cid_hex, Sidecar, COMPRESS_NONE};
use crate::suite::Benchmark;
use crate::tracecache::{cache_key, TraceCache};
use checkelide_core::{loadstats::Fig3Row, ClassCacheConfig, ClassCacheStats};
use checkelide_engine::{EngineConfig, Mechanism, Vm, VmStats};
use checkelide_isa::codec::{TraceError, TraceWriter};
use checkelide_isa::trace::Tee;
use checkelide_isa::{CounterSink, NullSink, TraceSink};
use checkelide_opt::install_optimizer;
use checkelide_runtime::Value;
use checkelide_uarch::{CoreSim, SimObject, SimResult};

/// How to run a benchmark.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Mechanism mode.
    pub mechanism: Mechanism,
    /// Enable the optimizing tier.
    pub opt: bool,
    /// Total iterations (statistics from the last one).
    pub iterations: u32,
    /// Scale override (None = benchmark default).
    pub scale: Option<i32>,
    /// Run the cycle-level core model (slower; needed for Figures 8/9).
    pub timing: bool,
    /// Class Cache geometry (Table 2 default; the `ccsweep` ablation
    /// varies it).
    pub class_cache: ClassCacheConfig,
    /// Software check elision via lazy basic-block versioning
    /// (orthogonal to `mechanism`; see `EngineConfig::bbv`).
    pub bbv: bool,
}

impl RunConfig {
    /// The characterization configuration (Figures 1–3): optimized tier
    /// on, software profiling, no timing model.
    pub fn characterize() -> RunConfig {
        RunConfig {
            mechanism: Mechanism::ProfileOnly,
            opt: true,
            iterations: 10,
            scale: None,
            timing: false,
            class_cache: ClassCacheConfig::default(),
            bbv: false,
        }
    }

    /// The Figure 8/9 baseline: plain engine, timing model on.
    pub fn baseline_timed() -> RunConfig {
        RunConfig {
            mechanism: Mechanism::Off,
            opt: true,
            iterations: 10,
            scale: None,
            timing: true,
            class_cache: ClassCacheConfig::default(),
            bbv: false,
        }
    }

    /// The Figure 8/9 mechanism run: full Class Cache, timing model on.
    pub fn mechanism_timed() -> RunConfig {
        RunConfig {
            mechanism: Mechanism::Full,
            opt: true,
            iterations: 10,
            scale: None,
            timing: true,
            class_cache: ClassCacheConfig::default(),
            bbv: false,
        }
    }

    /// Shrink the workload (for tests / quick runs).
    pub fn with_scale(mut self, scale: i32) -> RunConfig {
        self.scale = Some(scale);
        self
    }

    /// Set iteration count.
    pub fn with_iterations(mut self, iterations: u32) -> RunConfig {
        self.iterations = iterations;
        self
    }

    /// Enable or disable the cycle-level core model. Timing never changes
    /// the µop stream (the core model is a pure trace consumer), so this
    /// does not affect the trace-cache key.
    pub fn with_timing(mut self, timing: bool) -> RunConfig {
        self.timing = timing;
        self
    }

    /// Enable or disable BBV (software check elision). Changes the µop
    /// stream, so it IS part of the trace-cache key.
    pub fn with_bbv(mut self, bbv: bool) -> RunConfig {
        self.bbv = bbv;
        self
    }

    /// The engine configuration every iteration of this run uses.
    pub fn engine_config(&self) -> EngineConfig {
        EngineConfig {
            mechanism: self.mechanism,
            opt_enabled: self.opt,
            class_cache: self.class_cache,
            bbv: self.bbv,
            ..EngineConfig::default()
        }
    }
}

/// A typed benchmark failure.
///
/// Replaces the seed harness's mid-suite `panic!` paths so one failing
/// benchmark flows through [`crate::pool`]'s failure reporting as a
/// `CellError` instead of aborting an entire `reproduce` run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// Top-level program execution (one-time setup) failed.
    Setup {
        /// Benchmark name.
        bench: String,
        /// VM error message.
        message: String,
    },
    /// A warm-up iteration failed.
    Warmup {
        /// Benchmark name.
        bench: String,
        /// 1-based warm-up iteration.
        iteration: u32,
        /// VM error message.
        message: String,
    },
    /// The measured (final) iteration failed.
    Measured {
        /// Benchmark name.
        bench: String,
        /// VM error message.
        message: String,
    },
    /// Two configurations of the same benchmark produced different
    /// checksums (the mechanism changed program semantics).
    ChecksumMismatch {
        /// Benchmark name.
        bench: String,
        /// Baseline checksum.
        base: String,
        /// Mechanism checksum.
        full: String,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Setup { bench, message } => {
                write!(f, "{bench}: setup failed: {message}")
            }
            RunError::Warmup { bench, iteration, message } => {
                write!(f, "{bench}: warmup {iteration} failed: {message}")
            }
            RunError::Measured { bench, message } => {
                write!(f, "{bench}: measured run failed: {message}")
            }
            RunError::ChecksumMismatch { bench, base, full } => write!(
                f,
                "{bench}: mechanism changed program semantics \
                 (baseline checksum {base:?}, mechanism checksum {full:?})"
            ),
        }
    }
}

impl std::error::Error for RunError {}

/// Everything measured on the final iteration.
#[derive(Debug)]
pub struct RunOutput {
    /// Instruction-mix counters (Figures 1–2).
    pub counters: CounterSink,
    /// Timing/energy results (Figures 8–9); `None` without `timing`.
    pub sim: Option<SimResult>,
    /// Object-load monomorphism classification (Figure 3).
    pub fig3: Fig3Row,
    /// Class Cache statistics (§5.3.2–5.3.3).
    pub class_cache: ClassCacheStats,
    /// VM statistics (deopts, ICs, GCs, line accesses).
    pub vm_stats: VmStats,
    /// Hidden classes created over the whole run (§5.3.1 warm-up).
    pub hidden_classes: usize,
    /// Object allocation statistics (§5.3.4 larger objects).
    pub obj_stats: checkelide_runtime::runtime::ObjectStats,
    /// The benchmark's checksum (for cross-configuration validation).
    pub checksum: String,
    /// Dynamic µops on the measured iteration.
    pub uops: u64,
}

/// Run one benchmark under a configuration.
///
/// # Panics
///
/// Panics on any [`RunError`]; the pool-based harnesses use
/// [`try_run_benchmark`] instead, which reports failures as data.
pub fn run_benchmark(bench: &Benchmark, cfg: RunConfig) -> RunOutput {
    try_run_benchmark(bench, cfg).unwrap_or_else(|e| panic!("{e}"))
}

/// Run one benchmark under a configuration, reporting failures as a typed
/// [`RunError`] instead of panicking.
///
/// # Errors
///
/// Any parse/runtime failure during setup, warm-up or the measured
/// iteration.
pub fn try_run_benchmark(bench: &Benchmark, cfg: RunConfig) -> Result<RunOutput, RunError> {
    run_live(bench, cfg, None)
}

/// How a cached run was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheDisposition {
    /// The trace cache was disabled for this cell.
    Off,
    /// Served from a recorded trace (no engine execution).
    Hit,
    /// Executed live; a recording was attempted for future runs.
    Miss,
}

impl CacheDisposition {
    /// Stable lowercase label for `run_meta.json`.
    pub fn label(self) -> &'static str {
        match self {
            CacheDisposition::Off => "off",
            CacheDisposition::Hit => "hit",
            CacheDisposition::Miss => "miss",
        }
    }
}

/// Per-cell sim-result cache telemetry, threaded from
/// [`try_run_benchmark_cached`] into `run_meta.json`.
///
/// For a single timed configuration exactly one of `hits`/`misses` is 1
/// while the sim cache is active; multi-configuration cells (fig8/9, the
/// BBV grid) sum their runs via [`SimTelemetry::absorb`]. A `hit` means
/// `CoreSim` did not run (the memoized result served the cell); a `miss`
/// means it did, whether on a trace-cache miss (cold live run) or a
/// trace hit whose sim object was absent or unusable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimTelemetry {
    /// Timed runs served from a memoized `SimResult`.
    pub hits: u64,
    /// Timed runs that executed `CoreSim` while the sim cache was active.
    pub misses: u64,
    /// Verify-mode hits whose memoized result was not bit-identical to
    /// the live re-simulation (must stay 0).
    pub verify_mismatches: u64,
}

impl SimTelemetry {
    /// Accumulate another run's telemetry into this cell's totals.
    pub fn absorb(&mut self, other: SimTelemetry) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.verify_mismatches += other.verify_mismatches;
    }
}

/// Run one benchmark through the trace cache: on a hit, rebuild the
/// [`RunOutput`] from the recorded sidecar without executing the engine;
/// on a miss, run live while recording the measured iteration for future
/// runs.
///
/// Timed hits consult the sim-result cache first: when a memoized
/// `SimResult` exists for `(trace CID, config fingerprint)`, the cell is
/// served from the manifest and the 328-byte sim object alone — no trace
/// body decode, no `CoreSim`. A sim miss replays the trace through
/// `CoreSim` once and publishes the result, so every future run (in any
/// process sharing the store) hits. In `--sim-cache verify` mode a hit
/// additionally re-simulates and asserts the memoized result is
/// bit-identical to the live one.
///
/// A replayed body streams from the store into `CoreSim` and is verified
/// at its end (length, trailing bytes, SHA-256 against its content ID).
/// No result computed from it is used or published before that passes;
/// any failure evicts the manifest and the object and re-records live.
///
/// Outputs are bit-identical across hit/miss/off: a hit replays the exact
/// µops the recorded execution emitted, the engine itself is
/// deterministic, and sim objects round-trip f64 energy fields as raw
/// bits. Recording failures (disk full, unwritable directory) degrade to
/// an unrecorded live run, never to a run failure.
///
/// Every call is counted in `cache`'s statistics as its cell is: a live
/// run that fails still counts a trace miss, and a sim miss when timed.
///
/// # Errors
///
/// Any live-run [`RunError`]; cache-layer problems are not errors.
pub fn try_run_benchmark_cached(
    bench: &Benchmark,
    cfg: RunConfig,
    cache: &TraceCache,
) -> Result<(RunOutput, CacheDisposition, SimTelemetry), RunError> {
    let (out, disposition, sim_tel) = run_cached(bench, cfg, cache);
    cache.count(disposition, sim_tel);
    out.map(|out| (out, disposition, sim_tel))
}

/// [`try_run_benchmark_cached`] before its counting: the output or the
/// live run's error, with how the cell was served and its sim-cache
/// activity either way.
fn run_cached(
    bench: &Benchmark,
    cfg: RunConfig,
    cache: &TraceCache,
) -> (Result<RunOutput, RunError>, CacheDisposition, SimTelemetry) {
    let mut sim_tel = SimTelemetry::default();
    if !cache.enabled() {
        return (run_live(bench, cfg, None), CacheDisposition::Off, sim_tel);
    }
    let key = cache_key(bench.name, cfg.scale.unwrap_or(bench.scale), &cfg);
    let want_sim = cfg.timing && cache.sim_mode() != SimCacheMode::Off;

    // The manifest alone serves an untimed cell, and a timed one whose
    // memoized simulation the sim cache holds; otherwise the body is
    // streamed into CoreSim and verified before the result is used.
    if let Some(side) = cache.fetch(&key) {
        match serve_hit(&side, cfg, cache, &mut sim_tel) {
            Ok(out) => return (Ok(out), CacheDisposition::Hit, sim_tel),
            Err(e) => {
                // Any failure — header, LZ, codec, trailer, µop count,
                // hash or an inconsistent manifest — drops the manifest
                // and the object, and the cell re-records live.
                eprintln!(
                    "warning: trace cache entry for {} unusable ({e}); re-recording",
                    bench.name
                );
                cache.evict(&key, &side.cid);
                sim_tel = SimTelemetry::default();
            }
        }
    }

    if want_sim {
        // The live run below executes CoreSim: a sim miss by definition.
        sim_tel.misses += 1;
    }
    // Record straight into the store: each encoded frame streams through
    // the content-ID hash and the LZ compressor into the object's tmp
    // file as the measured iteration runs, so neither the raw body
    // (~5 B/µop, tens of MB at full scale) nor the compressed object is
    // ever one buffer. A run that fails or panics drops the writer,
    // which removes the file.
    let mut writer = match cache.object_writer().and_then(TraceWriter::new) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("warning: trace cache cannot record {}: {e}", bench.name);
            return (run_live(bench, cfg, None), CacheDisposition::Miss, sim_tel);
        }
    };
    let out = match run_live(bench, cfg, Some(&mut writer)) {
        Ok(out) => out,
        Err(e) => return (Err(e), CacheDisposition::Miss, sim_tel),
    };
    match writer.finish_file().and_then(|(object, stats)| Ok((object.finish()?, stats))) {
        Ok((object, stats)) if stats.uops == out.uops => {
            let mut side = Sidecar {
                key,
                counters: out.counters.snapshot(),
                fig3: out.fig3,
                class_cache: out.class_cache,
                vm_stats: out.vm_stats,
                obj_stats: out.obj_stats,
                hidden_classes: out.hidden_classes as u64,
                uops: out.uops,
                trace_bytes: stats.bytes,
                checksum: out.checksum.clone(),
                cid: [0u8; 32],
                compression: COMPRESS_NONE,
                stored_bytes: 0,
            };
            // publish() fills the content-store location fields and
            // warns (never fails the run) on store write problems.
            cache.publish(&mut side, object);
            // Memoize the live simulation under the freshly-assigned CID:
            // the live CoreSim saw exactly the µops the recording holds
            // (one Tee fan-out), so a cold run warms both cache layers.
            if want_sim {
                if let Some(sim) = &out.sim {
                    cache.sim_publish(&side.cid, sim);
                }
            }
        }
        Ok((_, stats)) => {
            eprintln!(
                "warning: recorded {} µops but measured {} for {}; discarding recording",
                stats.uops, out.uops, bench.name
            );
        }
        Err(e) => {
            eprintln!("warning: trace recording for {} failed: {e}", bench.name);
        }
    }
    (Ok(out), CacheDisposition::Miss, sim_tel)
}

/// Serve a trace-cache hit, consulting the sim-result cache for timed
/// configurations. Errors mean the *trace* entry is unusable (the caller
/// evicts and re-records); sim-layer problems degrade to re-simulation,
/// never to an error. A replayed result leaves this function — and is
/// published to the sim cache — only after its body has verified.
fn serve_hit(
    side: &Sidecar,
    cfg: RunConfig,
    cache: &TraceCache,
    sim_tel: &mut SimTelemetry,
) -> Result<RunOutput, TraceError> {
    let sim_mode = cache.sim_mode();
    let want_sim = cfg.timing && sim_mode != SimCacheMode::Off;
    // A memoized object that disagrees with its manifest is evicted by
    // the fetch, so the republish below replaces it.
    if let Some(obj) = want_sim.then(|| cache.sim_fetch(side)).flatten() {
        sim_tel.hits += 1;
        if sim_mode != SimCacheMode::Verify {
            return output_from_parts(side, Some(obj.result));
        }
        // Differential mode: replay the trace through CoreSim anyway and
        // require the memoized result to be bit-identical (compare encoded
        // images so f64 payloads are held to raw-bit equality, not
        // PartialEq's -0.0 == 0.0).
        let live = replay_sim(cache, side)?;
        if SimObject::new(side.cid, sim_fingerprint(), live.clone()).encode() != obj.encode() {
            sim_tel.verify_mismatches += 1;
            eprintln!(
                "warning: sim-cache verify mismatch for {} (cid {}); using the live result",
                side.key,
                cid_hex(&side.cid)
            );
        }
        return output_from_parts(side, Some(live));
    }
    let sim = if cfg.timing { Some(replay_sim(cache, side)?) } else { None };
    let out = output_from_parts(side, sim)?;
    if want_sim {
        sim_tel.misses += 1;
        if let Some(sim) = &out.sim {
            cache.sim_publish(&side.cid, sim);
        }
    }
    Ok(out)
}

/// Replay a hit's trace body into a fresh `CoreSim` — exactly what the
/// live path does with the µops as they are produced, so the `SimResult`
/// is identical. The body streams from the store and is verified at its
/// end; the result is returned only when that and the µop count pass.
fn replay_sim(cache: &TraceCache, side: &Sidecar) -> Result<SimResult, TraceError> {
    let mut sim = CoreSim::new(sim_config());
    if cache.replay_body(side, &mut sim)? != side.uops {
        return Err(TraceError::Corrupt { offset: 0, what: "trace/sidecar µop mismatch" });
    }
    Ok(sim.result())
}

/// Assemble a [`RunOutput`] from a sidecar and an (optional) simulation
/// result — the shared tail of the replay and sim-hit paths.
fn output_from_parts(side: &Sidecar, sim: Option<SimResult>) -> Result<RunOutput, TraceError> {
    let counters = CounterSink::from_snapshot(&side.counters);
    if counters.total() != side.uops {
        return Err(TraceError::Corrupt { offset: 0, what: "sidecar counters/µops mismatch" });
    }
    Ok(RunOutput {
        counters,
        sim,
        fig3: side.fig3,
        class_cache: side.class_cache,
        vm_stats: side.vm_stats,
        hidden_classes: side.hidden_classes as usize,
        obj_stats: side.obj_stats,
        checksum: side.checksum.clone(),
        uops: side.uops,
    })
}

/// The live execution path: setup, warm-ups, measured iteration. When
/// `record` is given, it is tee'd onto the measured-iteration sink and
/// receives exactly the µops the measurement sees (warm-ups still go to a
/// discarding sink and are never recorded).
fn run_live(
    bench: &Benchmark,
    cfg: RunConfig,
    record: Option<&mut dyn TraceSink>,
) -> Result<RunOutput, RunError> {
    let mut vm = Vm::new(cfg.engine_config());
    if cfg.opt {
        install_optimizer(&mut vm);
    }
    let mut null = NullSink::new();
    vm.run_program(bench.source, &mut null).map_err(|e| RunError::Setup {
        bench: bench.name.to_string(),
        message: e.to_string(),
    })?;

    let scale = cfg.scale.unwrap_or(bench.scale);
    let args = [Value::smi(scale)];

    // Warm-up iterations.
    for i in 1..cfg.iterations {
        vm.rt.reset_prng();
        vm.call_global("bench", &args, &mut null).map_err(|e| RunError::Warmup {
            bench: bench.name.to_string(),
            iteration: i,
            message: e.to_string(),
        })?;
    }

    // Steady-state boundary: reset statistics, keep all warm state.
    // The BBV version-table counters are cumulative warm-up state (like
    // `hidden_classes`), not per-iteration events — carry them across.
    vm.class_cache.reset_stats();
    vm.load_stats.reset();
    let carried = vm.stats;
    vm.stats = VmStats::default();
    vm.stats.bbv_versions = carried.bbv_versions;
    vm.stats.bbv_cap_fallbacks = carried.bbv_cap_fallbacks;
    vm.rt.reset_prng();

    let measured_err = |e: checkelide_engine::vm::VmError| RunError::Measured {
        bench: bench.name.to_string(),
        message: e.to_string(),
    };
    let mut counters = CounterSink::new();
    let (result, sim) = match (cfg.timing, record) {
        (true, None) => {
            let mut sim = CoreSim::new(sim_config());
            let result = {
                let mut tee = Tee::new(&mut counters, &mut sim);
                vm.call_global("bench", &args, &mut tee).map_err(measured_err)?
            };
            (result, Some(sim.result()))
        }
        (true, Some(rec)) => {
            let mut sim = CoreSim::new(sim_config());
            let result = {
                let mut pair = Tee::new(&mut counters, &mut sim);
                let mut tee: Tee<'_, _, dyn TraceSink> = Tee::new(&mut pair, rec);
                vm.call_global("bench", &args, &mut tee).map_err(measured_err)?
            };
            (result, Some(sim.result()))
        }
        (false, None) => {
            let result = vm.call_global("bench", &args, &mut counters).map_err(measured_err)?;
            (result, None)
        }
        (false, Some(rec)) => {
            let result = {
                let mut tee: Tee<'_, _, dyn TraceSink> = Tee::new(&mut counters, rec);
                vm.call_global("bench", &args, &mut tee).map_err(measured_err)?
            };
            (result, None)
        }
    };
    counters.finish();

    let fig3 = classify_fig3(&vm);
    Ok(RunOutput {
        uops: counters.total(),
        sim,
        fig3,
        class_cache: vm.class_cache.stats(),
        vm_stats: vm.stats,
        hidden_classes: vm.rt.maps.len(),
        obj_stats: vm.rt.obj_stats,
        checksum: vm.rt.to_display_string(result),
        counters,
    })
}

/// Figure 3 classification with the subtree-aggregated monomorphism query
/// (see DESIGN.md §4).
fn classify_fig3(vm: &Vm) -> Fig3Row {
    // LoadAccessStats::classify uses the raw per-(class,line,pos) query;
    // for the figure we want the same aggregated view the compiler uses.
    // The raw view under-reports monomorphism for constructor-initialized
    // properties, so rebuild the row here via the aggregated query.
    vm.load_stats.classify_aggregated(
        &|cid, line, pos| {
            let Some(map) = vm.rt.maps.map_of_class(cid) else { return false };
            // Find the property introduced at this (line, pos) by walking
            // the map's ancestors; fall back to the raw query.
            for (&name, &off) in vm.rt.maps.get(map).prop_offsets_iter() {
                if (off / 8) as u8 == line && (off % 8) as u8 == pos {
                    if let Some(intro) = vm.rt.maps.introducer_of(map, name) {
                        return vm.aggregated_monomorphic_class(intro, line, pos).is_some();
                    }
                }
            }
            vm.class_list.monomorphic_class(cid, line, pos).is_some()
        },
        &|cid| {
            let Some(map) = vm.rt.maps.map_of_class(cid) else { return false };
            let root = vm.rt.maps.root_of(map);
            vm.aggregated_monomorphic_class(root, 0, checkelide_core::ELEMENTS_SLOT)
                .is_some()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::find;

    #[test]
    fn quick_run_produces_consistent_checksums() {
        let b = find("ai-astar").expect("registered");
        let quick = |mech, opt| {
            let cfg = RunConfig {
                mechanism: mech,
                opt,
                iterations: 3,
                scale: Some(6),
                timing: false,
                class_cache: ClassCacheConfig::default(),
                bbv: false,
            };
            run_benchmark(b, cfg).checksum
        };
        let base = quick(Mechanism::Off, false);
        let opt = quick(Mechanism::ProfileOnly, true);
        let full = quick(Mechanism::Full, true);
        assert_eq!(base, opt);
        assert_eq!(base, full);
    }

    /// The Fig. 3 decode audit (pure layout half).
    ///
    /// The engine profiles property slots as `(line = off / 8,
    /// pos = off % 8)` of the slot's word offset, and [`classify_fig3`]
    /// decodes `prop_offsets` the same way. Check that decode against the
    /// heap layout for every slot of a four-line object: no property slot
    /// may decode to a header word (`pos == 0`), none may alias the
    /// elements ptr/len words (line 0, pos 2/3 — pos 2 doubles as the
    /// `ELEMENTS_SLOT` pseudo-profile), and the decode must be injective
    /// so distinct properties never share a profile site.
    #[test]
    fn fig3_offset_decode_matches_heap_layout() {
        use checkelide_runtime::maps::{slot_word_offset, LINE0_SLOTS, LINE_SLOTS};
        let slots = LINE0_SLOTS + 3 * LINE_SLOTS; // four heap lines
        let mut seen = std::collections::HashSet::new();
        for index in 0..slots {
            let off = slot_word_offset(index);
            let (line, pos) = (off / 8, off % 8);
            assert_ne!(pos, 0, "slot {index} decodes to a header word (off {off})");
            if line == 0 {
                assert!(
                    ![2, 3].contains(&pos),
                    "slot {index} aliases the elements ptr/len words (off {off})"
                );
                assert_ne!(
                    pos,
                    u16::from(checkelide_core::ELEMENTS_SLOT),
                    "slot {index} aliases the ELEMENTS_SLOT pseudo-profile"
                );
            }
            assert!(
                seen.insert((line, pos)),
                "slots {index} and an earlier one share profile site ({line},{pos})"
            );
        }
    }

    /// The Fig. 3 decode audit (end-to-end half), on the ai-astar
    /// GraphNode shape: nine properties, so `x,y,wall,g,h` fill line 0
    /// (words 1,4,5,6,7) and `f,visited,closed,parent` spill to line 1
    /// (words 9..=12). Hot loads of both line-0 and line-1 slots must
    /// classify as monomorphic properties; a wrong `(off/8, off%8)` decode
    /// in [`classify_fig3`] would fail to find the line-1 introducer and
    /// push those loads into the polymorphic bucket.
    #[test]
    fn fig3_classifies_multiline_graphnode_properties_as_monomorphic() {
        static SRC: &str = "\
function GraphNode(x, y, wall) {
    this.x = x;
    this.y = y;
    this.wall = wall;
    this.g = 0;
    this.h = 0;
    this.f = 0;
    this.visited = 0;
    this.closed = 0;
    this.parent = this;
}
var nodes = [];
for (var i = 0; i < 16; i++) {
    nodes[i] = new GraphNode(i, i * 3, 0);
    nodes[i].parent = nodes[0];
}
function bench(scale) {
    var sum = 0;
    for (var it = 0; it < scale * 200; it++) {
        var n = nodes[it % 16];
        sum += n.x + n.g + n.f + n.closed + n.parent.y;
    }
    return sum;
}
";
        let bench = Benchmark {
            name: "fig3-multiline-graphnode",
            suite: crate::suite::Suite::Kraken,
            source: SRC,
            scale: 4,
            selected: false,
        };
        let cfg = RunConfig::characterize().with_scale(4).with_iterations(3);
        let out = try_run_benchmark(&bench, cfg).expect("synthetic benchmark runs");
        assert!(
            out.fig3.mono_properties > 50.0,
            "line-1 property loads mis-classified: {:?}",
            out.fig3
        );
        assert!(
            out.fig3.poly_properties < 1.0,
            "expected no polymorphic property loads: {:?}",
            out.fig3
        );
    }

    #[test]
    fn timed_run_produces_cycles() {
        let b = find("access-nbody").expect("registered");
        let cfg = RunConfig::baseline_timed().with_scale(12).with_iterations(3);
        let out = run_benchmark(b, cfg);
        let sim = out.sim.expect("timing enabled");
        assert!(sim.cycles > 0);
        assert!(sim.uops == out.uops);
        assert!(sim.ipc() > 0.2 && sim.ipc() < 4.0, "IPC {}", sim.ipc());
    }
}
