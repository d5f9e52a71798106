//! Simulation-throughput measurement: how fast does the harness retire
//! µops, and how much does handing a consumer whole slices save over one
//! `dyn` call per µop?
//!
//! Three probes, written to `results/BENCH_perf.json`:
//!
//! * **micro** — a sink-bound replay of a recorded trace. A steady-state
//!   window of the trace (small enough to stay cache-resident, so DRAM
//!   bandwidth does not mask the interface cost being measured) is handed
//!   to a consumer one `dyn` call per µop (the pre-batching pipeline) and
//!   one `dyn` call per [`BATCH_CAPACITY`] slice
//!   ([`TraceSink::emit_batch`]). The ratio isolates the virtual dispatch
//!   and per-call bookkeeping that batching amortizes, for both a cheap
//!   consumer ([`CounterSink`]) and the cycle model ([`CoreSim`], whose
//!   one timing walk runs per µop behind either interface). A
//!   secondary *stream* probe replays the full trace once per pass — the
//!   memory-bound regime, where both interfaces converge on bandwidth.
//! * **codec** — the binary trace codec: encode throughput, the on-disk
//!   size per µop (vs the 48-byte in-memory form), and streaming-replay
//!   throughput into a [`NullSink`] (framing-only fast path) and a
//!   [`CounterSink`] (full decode); report-only, the streamed recorder
//!   (`trace_record_mops`) and the streamed reader of a stored object
//!   (`trace_read_mops`: file blocks, LZ, SHA-256 and decode).
//! * **cell** — wall-clock and retired-µop count for one full
//!   characterization cell (setup + warm-ups + measured iteration), i.e.
//!   the end-to-end cost per dynamic instruction of the whole stack.
//! * **mechanisms** — the same cell under each head-to-head configuration
//!   (baseline / opt-noelide / cc-full / bbv / cc+bbv): check µops
//!   retired, checks elided vs `opt-noelide`, total µops, and BBV
//!   version-table activity, plus each configuration's steady-state
//!   engine throughput (`engine_mops`, NullSink).
//! * **grid** — wall-clock of the single-job Figure 1 grid, the number
//!   EXPERIMENTS.md tracks across harness changes, plus cache-cold and
//!   cache-warm reruns of the same grid against a fresh trace-cache
//!   directory (the warm row is the record-once/replay-many win).
//! * **simcache** — sim-result memoization on the timed fig8/fig9 grid
//!   (always quick scale): cold, trace-warm with the sim cache off
//!   (replay + re-simulate), and trace+sim-warm (memoized `SimResult`,
//!   no body decode) walls, plus the warm hit ratio.
//!
//! With `--floor FILE` the run doubles as a CI regression gate: FILE is a
//! previously recorded `BENCH_perf.json` (the committed copy lives at
//! `golden/perf_baseline.json`), and the run fails when the measured
//! CoreSim slice-replay throughput (`coresim_batched_mops`) drops below
//! `--floor-mult` (default 0.9, noise margin for shared runners) times
//! the recorded number.
//! When the baseline carries the simcache section's `sim_hit_ratio`,
//! the warm-path hit ratio is gated too (exactly — it is
//! deterministic): a drop means the warm path silently re-simulates.
//! Independently of the baseline, the run fails when the CPU reports the
//! x86 SHA extensions but content IDs are hashed by the scalar backend
//! (the store section's `sha256_backend`): a silent fallback costs ~5x
//! on every store read and publish.
//!
//!     cargo run --release -p checkelide-bench --bin perfstat -- \
//!         [--quick] [--floor FILE [--floor-mult X]] [bench]

use checkelide_bench::figures::{fig1_report_cached, fig89_report_cached, save_json, BBV_CONFIGS};
use checkelide_bench::runner::{try_run_benchmark, RunConfig};
use checkelide_bench::store::{sha256, sha256_backend, Sidecar, TraceStore};
use checkelide_bench::{find, sim_config, Cli, Json, SimCacheMode, TraceCache};
use checkelide_engine::{EngineConfig, Mechanism, Vm};
use checkelide_isa::codec::{encode_trace, TraceReader, TraceWriter};
use checkelide_isa::trace::VecSink;
use checkelide_isa::uop::Uop;
use checkelide_isa::{lz, CounterSink, NullSink, TraceSink, BATCH_CAPACITY};
use checkelide_opt::install_optimizer;
use checkelide_runtime::Value;
use checkelide_uarch::CoreSim;
use std::time::Instant;

/// Record the measured-iteration trace of one benchmark (a few warm-ups
/// first, so the optimized tier is active and the trace is representative
/// of steady state).
fn record_trace(bench: &str, scale: i32) -> Vec<Uop> {
    let b = find(bench).unwrap_or_else(|| panic!("unknown benchmark `{bench}`"));
    let mut vm = Vm::new(EngineConfig {
        mechanism: Mechanism::ProfileOnly,
        opt_enabled: true,
        ..EngineConfig::default()
    });
    install_optimizer(&mut vm);
    let mut null = NullSink::new();
    vm.run_program(b.source, &mut null).expect("setup");
    let args = [Value::smi(scale)];
    for _ in 0..3 {
        vm.rt.reset_prng();
        vm.call_global("bench", &args, &mut null).expect("warmup");
    }
    vm.rt.reset_prng();
    let mut rec = VecSink::new();
    vm.call_global("bench", &args, &mut rec).expect("measured");
    rec.uops
}

/// Cache-resident replay window, in µops. 512 µops x 48 B = 24 KiB —
/// resident in L1d, so a replay pass is bound by the consumer interface,
/// not by streaming the trace from cache or DRAM.
const WINDOW: usize = 512;

/// One `dyn` call per µop: the pre-batching consumer interface. Replays
/// `trace` round-robin until `total` µops have been emitted.
#[inline(never)]
fn replay_per_uop(sink: &mut dyn TraceSink, trace: &[Uop], total: usize) {
    let mut left = total;
    while left > 0 {
        let n = left.min(trace.len());
        for u in &trace[..n] {
            sink.emit(u);
        }
        left -= n;
    }
}

/// One `dyn` call per [`BATCH_CAPACITY`] µops, same round-robin replay.
#[inline(never)]
fn replay_batched(sink: &mut dyn TraceSink, trace: &[Uop], total: usize) {
    let mut left = total;
    while left > 0 {
        let n = left.min(trace.len());
        for chunk in trace[..n].chunks(BATCH_CAPACITY) {
            sink.emit_batch(chunk);
        }
        left -= n;
    }
}

/// Best-of-`reps` throughput in million µops per second for a run that
/// retires `total` µops.
fn mops(total: usize, reps: u32, mut run: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        run();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    total as f64 / best / 1e6
}

/// Returns the engine-side Mµops/s: retired µops over the wall-clock of
/// the timed steady-state calls (NullSink, so the consumer is free).
fn engine_mops(bench: &str, scale: i32, calls: u32, reps: u32, engine: EngineConfig) -> f64 {
    let b = find(bench).unwrap_or_else(|| panic!("unknown benchmark `{bench}`"));
    let mut vm = Vm::new(engine);
    install_optimizer(&mut vm);
    let mut null = NullSink::new();
    vm.run_program(b.source, &mut null).expect("setup");
    let args = [Value::smi(scale)];
    // Warm past the opt threshold, so the timed window is pure steady
    // state.
    for _ in 0..4 {
        vm.rt.reset_prng();
        vm.call_global("bench", &args, &mut null).expect("warmup");
    }
    vm.rt.reset_prng();
    let mut counter = CounterSink::new();
    vm.call_global("bench", &args, &mut counter).expect("count");
    let uops_per_call = counter.total();
    let total = u64::from(calls) * uops_per_call;
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        for _ in 0..calls {
            vm.rt.reset_prng();
            vm.call_global("bench", &args, &mut null).expect("timed");
        }
        best = best.min(t0.elapsed().as_secs_f64());
    }
    total as f64 / best / 1e6
}

/// Whether the CPU reports the x86 SHA extensions (false off x86-64).
fn cpu_has_sha() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("sha")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Extract the first `"key": <number>` value from a JSON text. The
/// workspace JSON layer is write-only by design, so reading one number
/// back out of a recorded baseline is a small hand-rolled scan.
fn json_number(text: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = text.find(&pat)? + pat.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() {
    let cli = Cli::parse();
    let bench = cli.positional_or("ai-astar");
    let (scale, reps) = if cli.quick { (2, 2) } else { (4, 3) };

    // --- micro: sink-bound replay -------------------------------------
    eprintln!("recording {bench} trace (scale {scale}) ...");
    let trace = record_trace(&bench, scale);
    eprintln!("  {} µops ({} bytes/µop)", trace.len(), std::mem::size_of::<Uop>());

    // Cache-resident window from the middle of the trace (steady state),
    // replayed round-robin so each pass retires a fixed µop budget.
    let start = (trace.len() / 2).min(trace.len().saturating_sub(WINDOW));
    let window: Vec<Uop> = trace[start..(start + WINDOW).min(trace.len())].to_vec();
    let total = if cli.quick { 8_000_000 } else { 32_000_000 };

    // Interface-bound case: a consumer that does no per-µop work at all.
    // This is the warm-up pipeline (9 of 10 iterations in every grid cell
    // feed a discarding sink), and the regime where the `dyn` boundary is
    // the entire cost: the ratio is the pure dispatch amortization win.
    let null_per_uop = mops(total, reps, || {
        let mut n = NullSink::new();
        replay_per_uop(std::hint::black_box(&mut n), &window, total);
    });
    let null_batched = mops(total, reps, || {
        let mut n = NullSink::new();
        replay_batched(std::hint::black_box(&mut n), &window, total);
    });

    let counter_per_uop = mops(total, reps, || {
        let mut c = CounterSink::new();
        replay_per_uop(std::hint::black_box(&mut c), &window, total);
    });
    let counter_batched = mops(total, reps, || {
        let mut c = CounterSink::new();
        replay_batched(std::hint::black_box(&mut c), &window, total);
    });
    let coresim_per_uop = mops(total, reps, || {
        let mut s = CoreSim::new(sim_config());
        replay_per_uop(std::hint::black_box(&mut s), &window, total);
    });
    let coresim_batched = mops(total, reps, || {
        let mut s = CoreSim::new(sim_config());
        replay_batched(std::hint::black_box(&mut s), &window, total);
    });

    // Secondary probe: stream the whole trace once per pass (memory-bound
    // regime; shows the two interfaces converging on DRAM bandwidth).
    let stream_per_uop = mops(trace.len(), reps, || {
        let mut c = CounterSink::new();
        replay_per_uop(std::hint::black_box(&mut c), &trace, trace.len());
    });
    let stream_batched = mops(trace.len(), reps, || {
        let mut c = CounterSink::new();
        replay_batched(std::hint::black_box(&mut c), &trace, trace.len());
    });

    // --- codec: binary trace encode/replay ----------------------------
    let encoded = encode_trace(&trace);
    let in_memory_bytes = trace.len() * std::mem::size_of::<Uop>();
    let bytes_per_uop = encoded.len() as f64 / trace.len().max(1) as f64;
    let compression = in_memory_bytes as f64 / encoded.len().max(1) as f64;
    let trace_encode_mops = mops(trace.len(), reps, || {
        std::hint::black_box(encode_trace(std::hint::black_box(&trace)));
    });
    let trace_replay_null_mops = mops(trace.len(), reps, || {
        let mut sink = NullSink::new();
        let mut rd =
            TraceReader::new(std::io::Cursor::new(&encoded[..])).expect("header");
        let n = rd.replay(std::hint::black_box(&mut sink)).expect("replay");
        assert_eq!(n, trace.len() as u64);
    });
    let trace_replay_counter_mops = mops(trace.len(), reps, || {
        let mut sink = CounterSink::new();
        let mut rd =
            TraceReader::new(std::io::Cursor::new(&encoded[..])).expect("header");
        let n = rd.replay(std::hint::black_box(&mut sink)).expect("replay");
        assert_eq!(n, trace.len() as u64);
    });
    // The recorder a cold cell runs: encode, hash and compress streamed
    // into an object file of a temporary store (removed unpublished), and
    // the one-shot LZ pass on the same body.
    let read_dir = std::env::temp_dir()
        .join(format!("checkelide-perfstat-read-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&read_dir);
    let read_store = TraceStore::open(&read_dir, true).expect("temp store");
    let trace_record_mops = mops(trace.len(), reps, || {
        let mut w = TraceWriter::new(read_store.object_writer().expect("object writer"))
            .expect("object writer");
        w.emit_batch(std::hint::black_box(&trace));
        let (object, _) = w.finish_file().expect("recording");
        std::hint::black_box(object.finish().expect("object file"));
    });
    let lz_compress_mbps = mops(encoded.len(), reps, || {
        std::hint::black_box(lz::compress(std::hint::black_box(&encoded)));
    });
    // The reader a timed hit runs: the stored object read back from disk
    // in blocks, decompressed, hashed and decoded in one stream.
    let mut side = Sidecar::default();
    read_store.put("perfstat-read", &mut side, &encoded).expect("object stored");
    let trace_read_mops = mops(trace.len(), reps, || {
        let mut body = read_store.open_body(&side).expect("object opens");
        let mut sink = CounterSink::new();
        let n = TraceReader::new(&mut body)
            .and_then(|mut rd| rd.replay(std::hint::black_box(&mut sink)))
            .expect("replay");
        body.finish(&side.cid).expect("object verifies");
        assert_eq!(n, trace.len() as u64);
    });
    let _ = std::fs::remove_dir_all(&read_dir);
    let trace_len = trace.len();
    let encoded_len = encoded.len();
    drop(encoded);
    drop(trace);

    // --- cell: one end-to-end characterization cell -------------------
    let b = find(&bench).expect("benchmark exists");
    let cfg = RunConfig::characterize().with_scale(scale);
    let t0 = Instant::now();
    let out = try_run_benchmark(b, cfg).expect("cell runs");
    let cell_ms = t0.elapsed().as_secs_f64() * 1e3;
    // All iterations execute the same workload; approximate the per-µop
    // cost of the full stack from the measured iteration's count.
    let total_uops = out.uops * u64::from(cfg.iterations);
    let cell_ns_per_uop = cell_ms * 1e6 / total_uops as f64;

    // --- mechanisms: per-configuration check/elision counts -----------
    // The same cell under each head-to-head configuration (untimed):
    // check µops retired, checks elided relative to `opt-noelide`, total
    // µops, and BBV version-table activity; plus, report-only, the
    // configuration's steady-state engine throughput into a NullSink
    // (what BBV block transitions cost the engine).
    eprintln!("per-mechanism check counts ({bench}) ...");
    let engine_calls = if cli.quick { 3 } else { 6 };
    let mech_cfgs: [RunConfig; 5] = [
        RunConfig::baseline_timed().with_timing(false),
        RunConfig::characterize(),
        RunConfig::mechanism_timed().with_timing(false),
        RunConfig::characterize().with_bbv(true),
        RunConfig::mechanism_timed().with_timing(false).with_bbv(true),
    ];
    let mut mech_rows = Vec::new();
    for (label, mcfg) in BBV_CONFIGS.iter().zip(mech_cfgs) {
        let m = try_run_benchmark(b, mcfg.with_scale(scale)).expect("mechanism cell");
        assert_eq!(m.checksum, out.checksum, "{label} diverged from the characterize cell");
        let engine = engine_mops(&bench, scale, engine_calls, reps, mcfg.engine_config());
        mech_rows.push((
            *label,
            m.counters.by_category(checkelide_isa::Category::Check),
            m.uops,
            m.vm_stats.bbv_versions,
            m.vm_stats.bbv_cap_fallbacks,
            engine,
        ));
    }
    let noelide_checks = mech_rows[1].1;
    let mechanisms = Json::Arr(
        mech_rows
            .iter()
            .map(|&(label, checks, uops, versions, fallbacks, engine_mops)| {
                Json::Obj(vec![
                    ("config", Json::Str(label.to_string())),
                    ("checks", Json::UInt(checks)),
                    ("elided", Json::UInt(noelide_checks.saturating_sub(checks))),
                    ("uops", Json::UInt(uops)),
                    ("bbv_versions", Json::UInt(versions)),
                    ("bbv_cap_fallbacks", Json::UInt(fallbacks)),
                    ("engine_mops", Json::Num(engine_mops)),
                ])
            })
            .collect(),
    );

    // --- grid: single-job Figure 1 wall-clock -------------------------
    eprintln!("timing fig1 grid (quick={}, jobs=1) ...", cli.quick);
    let t0 = Instant::now();
    let report = fig1_report_cached(cli.quick, 1, &TraceCache::disabled());
    let grid_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert!(report.failures.is_empty(), "fig1 cells failed: {:?}", report.failures);

    // Same grid against a fresh trace-cache directory: one cold pass
    // (records every cell) and one warm pass (replays every cell).
    let cache_dir = std::env::temp_dir()
        .join(format!("checkelide-perfstat-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let cache = TraceCache::at(&cache_dir);
    eprintln!("timing fig1 grid, cache-cold (recording) ...");
    let t0 = Instant::now();
    let cold = fig1_report_cached(cli.quick, 1, &cache);
    let grid_cold_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert!(cold.failures.is_empty(), "cold fig1 cells failed: {:?}", cold.failures);
    assert!(cache.stats().stores > 0, "cold pass must record traces");
    eprintln!("timing fig1 grid, cache-warm (replaying) ...");
    let t0 = Instant::now();
    let warm = fig1_report_cached(cli.quick, 1, &cache);
    let grid_warm_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert!(warm.failures.is_empty(), "warm fig1 cells failed: {:?}", warm.failures);
    let warm_hits = cache.stats().hits;
    assert!(warm_hits as usize >= warm.cells.len(), "warm pass must hit every cell");

    // --- store: content-addressed layout -----------------------------
    // The warm store the grid just built is a realistic population:
    // measure what content addressing bought (dedup across cells, frame
    // compression).
    eprintln!("probing trace store (dedup, compression) ...");
    let store = cache.local_store().expect("perfstat cache is a local store");
    let (store_entries, store_objects, stored_bytes, logical_raw_bytes) = store.summary();
    // Unique-content totals: logical sums count a deduped object once
    // per referencing manifest.
    let mut uniq: std::collections::HashMap<[u8; 32], (u64, u64)> =
        std::collections::HashMap::new();
    for (_, side, _, _) in store.manifests() {
        uniq.insert(side.cid, (side.trace_bytes, side.uops));
    }
    let unique_raw_bytes: u64 = uniq.values().map(|&(b, _)| b).sum();
    let unique_uops: u64 = uniq.values().map(|&(_, u)| u).sum();
    let dedup_ratio = store_entries as f64 / store_objects.max(1) as f64;
    let store_compression = unique_raw_bytes as f64 / stored_bytes.max(1) as f64;
    let stored_bytes_per_uop = stored_bytes as f64 / unique_uops.max(1) as f64;
    let _ = std::fs::remove_dir_all(&cache_dir);

    // Content-ID hashing: every store read and publish pays one SHA-256
    // of the raw trace body. Best-of over a fixed 64 MiB buffer, so the
    // figure is comparable across --quick and full runs.
    const SHA_PROBE_BYTES: usize = 64 << 20;
    eprintln!("timing SHA-256 content IDs ({}) ...", sha256_backend());
    let sha_buf: Vec<u8> =
        (0..SHA_PROBE_BYTES as u32).map(|i| (i.wrapping_mul(0x9e37_79b1) >> 24) as u8).collect();
    let sha256_mbps = mops(SHA_PROBE_BYTES, 5, || {
        std::hint::black_box(sha256(std::hint::black_box(&sha_buf)));
    });
    drop(sha_buf);

    // --- simcache: sim-result memoization on the timed grid ------------
    // Figure 1's cells are untimed (no `CoreSim` pass), so the sim cache
    // is probed on the timed fig8/fig9 grid, always at quick scale so
    // the probe costs the same in quick and full perfstat runs: one cold
    // pass (records traces, publishes sim results), one trace-warm pass
    // with the sim cache off (replays bodies, re-simulates — the PR-4
    // warm path), and one trace+sim-warm pass (manifest probe + sim
    // fetch only; the body is never decoded).
    let sim_dir = std::env::temp_dir()
        .join(format!("checkelide-perfstat-simcache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&sim_dir);
    eprintln!("timing fig8/9 grid (quick, jobs=1), sim-cache cold (recording) ...");
    let sim_cold_cache = TraceCache::at(&sim_dir).with_sim_mode(SimCacheMode::On);
    let t0 = Instant::now();
    let sim_cold = fig89_report_cached(true, 1, &sim_cold_cache);
    let sim_cold_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert!(sim_cold.failures.is_empty(), "cold fig8/9 cells failed: {:?}", sim_cold.failures);
    assert!(sim_cold_cache.stats().sim_stores > 0, "cold pass must publish sim results");
    eprintln!("timing fig8/9 grid, trace-warm with sim cache off (re-simulating) ...");
    let sim_off_cache = TraceCache::at(&sim_dir).with_sim_mode(SimCacheMode::Off);
    let t0 = Instant::now();
    let sim_off = fig89_report_cached(true, 1, &sim_off_cache);
    let trace_warm_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert!(sim_off.failures.is_empty(), "trace-warm fig8/9 cells failed: {:?}", sim_off.failures);
    eprintln!("timing fig8/9 grid, trace+sim warm (memoized results) ...");
    let sim_warm_cache = TraceCache::at(&sim_dir).with_sim_mode(SimCacheMode::On);
    let t0 = Instant::now();
    let sim_warm = fig89_report_cached(true, 1, &sim_warm_cache);
    let sim_warm_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert!(sim_warm.failures.is_empty(), "sim-warm fig8/9 cells failed: {:?}", sim_warm.failures);
    let sw = sim_warm_cache.stats();
    assert!(sw.sim_hits > 0, "sim-warm pass must serve memoized results");
    assert_eq!(sw.sim_misses, 0, "sim-warm pass silently re-simulated {} cell(s)", sw.sim_misses);
    let (sim_hits, sim_misses) = (sw.sim_hits, sw.sim_misses);
    let sim_hit_ratio = sim_hits as f64 / (sim_hits + sim_misses).max(1) as f64;
    let _ = std::fs::remove_dir_all(&sim_dir);

    let json = Json::Obj(vec![
        (
            "micro",
            Json::Obj(vec![
                ("bench", Json::Str(bench.clone())),
                ("trace_uops", Json::UInt(out.uops)),
                ("window_uops", Json::UInt(WINDOW as u64)),
                ("replayed_uops", Json::UInt(total as u64)),
                ("null_per_uop_mops", Json::Num(null_per_uop)),
                ("null_batched_mops", Json::Num(null_batched)),
                ("null_speedup", Json::Num(null_batched / null_per_uop)),
                ("counter_per_uop_mops", Json::Num(counter_per_uop)),
                ("counter_batched_mops", Json::Num(counter_batched)),
                ("counter_speedup", Json::Num(counter_batched / counter_per_uop)),
                ("coresim_per_uop_mops", Json::Num(coresim_per_uop)),
                ("coresim_batched_mops", Json::Num(coresim_batched)),
                ("coresim_speedup", Json::Num(coresim_batched / coresim_per_uop)),
                ("stream_per_uop_mops", Json::Num(stream_per_uop)),
                ("stream_batched_mops", Json::Num(stream_batched)),
            ]),
        ),
        (
            "codec",
            Json::Obj(vec![
                ("bench", Json::Str(bench.clone())),
                ("trace_uops", Json::UInt(trace_len as u64)),
                ("encoded_bytes", Json::UInt(encoded_len as u64)),
                ("in_memory_bytes", Json::UInt(in_memory_bytes as u64)),
                ("bytes_per_uop", Json::Num(bytes_per_uop)),
                ("compression_ratio", Json::Num(compression)),
                ("trace_encode_mops", Json::Num(trace_encode_mops)),
                ("trace_replay_null_mops", Json::Num(trace_replay_null_mops)),
                ("trace_replay_counter_mops", Json::Num(trace_replay_counter_mops)),
                ("trace_record_mops", Json::Num(trace_record_mops)),
                ("trace_read_mops", Json::Num(trace_read_mops)),
                ("lz_compress_mbps", Json::Num(lz_compress_mbps)),
            ]),
        ),
        (
            "cell",
            Json::Obj(vec![
                ("bench", Json::Str(bench.clone())),
                ("iterations", Json::UInt(u64::from(cfg.iterations))),
                ("measured_uops", Json::UInt(out.uops)),
                ("wall_ms", Json::Num(cell_ms)),
                ("ns_per_uop", Json::Num(cell_ns_per_uop)),
            ]),
        ),
        ("mechanisms", mechanisms),
        (
            "store",
            Json::Obj(vec![
                ("entries", Json::UInt(store_entries)),
                ("objects", Json::UInt(store_objects)),
                ("stored_bytes", Json::UInt(stored_bytes)),
                ("logical_raw_bytes", Json::UInt(logical_raw_bytes)),
                ("unique_raw_bytes", Json::UInt(unique_raw_bytes)),
                ("dedup_ratio", Json::Num(dedup_ratio)),
                ("compression_ratio", Json::Num(store_compression)),
                ("stored_bytes_per_uop", Json::Num(stored_bytes_per_uop)),
                ("sha256_backend", Json::Str(sha256_backend().into())),
                ("sha256_mbps", Json::Num(sha256_mbps)),
            ]),
        ),
        (
            "grid",
            Json::Obj(vec![
                ("figure", Json::Str("fig1".into())),
                ("quick", Json::Bool(cli.quick)),
                ("jobs", Json::UInt(1)),
                ("wall_ms", Json::Num(grid_ms)),
                ("cache_cold_wall_ms", Json::Num(grid_cold_ms)),
                ("cache_warm_wall_ms", Json::Num(grid_warm_ms)),
                ("cache_warm_speedup", Json::Num(grid_cold_ms / grid_warm_ms)),
                ("cache_warm_hits", Json::UInt(warm_hits)),
            ]),
        ),
        (
            "simcache",
            Json::Obj(vec![
                ("figure", Json::Str("fig8_fig9".into())),
                ("quick", Json::Bool(true)),
                ("jobs", Json::UInt(1)),
                ("cold_wall_ms", Json::Num(sim_cold_ms)),
                ("trace_warm_wall_ms", Json::Num(trace_warm_ms)),
                ("sim_warm_wall_ms", Json::Num(sim_warm_ms)),
                ("sim_warm_speedup", Json::Num(trace_warm_ms / sim_warm_ms)),
                ("sim_hits", Json::UInt(sim_hits)),
                ("sim_misses", Json::UInt(sim_misses)),
                ("sim_hit_ratio", Json::Num(sim_hit_ratio)),
            ]),
        ),
    ]);
    save_json("BENCH_perf", &json).expect("write results/BENCH_perf.json");

    println!("== sink-bound µop replay ({bench}, {WINDOW}-µop window) ==");
    println!(
        "  NullSink     per-µop {null_per_uop:8.1} Mµops/s   batched {null_batched:8.1} \
         Mµops/s   speedup {:.2}x",
        null_batched / null_per_uop
    );
    println!(
        "  CounterSink  per-µop {counter_per_uop:8.1} Mµops/s   batched {counter_batched:8.1} \
         Mµops/s   speedup {:.2}x",
        counter_batched / counter_per_uop
    );
    println!(
        "  CoreSim      per-µop {coresim_per_uop:8.1} Mµops/s   batched {coresim_batched:8.1} \
         Mµops/s   speedup {:.2}x",
        coresim_batched / coresim_per_uop
    );
    println!(
        "  full-trace stream (CounterSink): per-µop {stream_per_uop:8.1} Mµops/s   batched \
         {stream_batched:8.1} Mµops/s"
    );
    println!("== binary trace codec ({bench}, {trace_len} µops) ==");
    println!(
        "  {encoded_len} B encoded ({bytes_per_uop:.2} B/µop, {compression:.1}x smaller than \
         the {}-byte in-memory µop)",
        std::mem::size_of::<Uop>()
    );
    println!(
        "  encode {trace_encode_mops:8.1} Mµops/s   replay(Null) \
         {trace_replay_null_mops:8.1} Mµops/s   replay(Counter) \
         {trace_replay_counter_mops:8.1} Mµops/s"
    );
    println!(
        "  record (encode + SHA-256 + LZ, streamed) {trace_record_mops:8.1} Mµops/s   \
         lz::compress {lz_compress_mbps:.0} MB/s"
    );
    println!(
        "  read (object file -> LZ + SHA-256 + decode, streamed) {trace_read_mops:8.1} Mµops/s"
    );
    println!("== end-to-end cell ({bench}) ==");
    println!(
        "  {cell_ms:.0} ms for ~{total_uops} µops across {} iterations  ({cell_ns_per_uop:.1} \
         ns/µop full-stack)",
        cfg.iterations
    );
    {
        use checkelide_isa::{Category, Region};
        for r in [Region::Baseline, Region::Optimized, Region::Runtime] {
            let t = out.counters.total_in(r);
            print!("  {r:<10?} {t:>12}");
            for c in Category::ALL {
                print!("  {:?}={}", c, out.counters.count(r, c));
            }
            println!();
        }
        println!(
            "  vm: calls={} opt_entries={} deopts={} gcs={}",
            out.vm_stats.calls, out.vm_stats.opt_entries, out.vm_stats.deopts, out.vm_stats.gc_runs
        );
    }
    println!("== per-mechanism checks ({bench}) ==");
    for &(label, checks, uops, versions, fallbacks, engine_mops) in &mech_rows {
        print!(
            "  {label:<12} checks={checks:<10} elided={:<10} uops={uops:<10} \
             engine {engine_mops:6.1} Mµops/s",
            noelide_checks.saturating_sub(checks)
        );
        if versions > 0 {
            print!("  bbv_versions={versions} cap_fallbacks={fallbacks}");
        }
        println!();
    }
    println!("== trace store (fig1 grid population) ==");
    println!(
        "  {store_entries} entries -> {store_objects} objects ({dedup_ratio:.2}x dedup); \
         {stored_bytes} B stored for {unique_raw_bytes} B raw ({store_compression:.2}x, \
         {stored_bytes_per_uop:.2} B/µop)"
    );
    println!("  SHA-256 content IDs: {} backend, {sha256_mbps:.0} MB/s", sha256_backend());
    println!("== fig1 grid (jobs=1, quick={}) ==", cli.quick);
    println!("  {grid_ms:.0} ms uncached");
    println!(
        "  {grid_cold_ms:.0} ms cache-cold (recording)   {grid_warm_ms:.0} ms cache-warm \
         (replaying, {warm_hits} hits)   warm speedup {:.2}x",
        grid_cold_ms / grid_warm_ms
    );
    println!("== fig8/9 grid, sim-result memoization (jobs=1, quick) ==");
    println!(
        "  {sim_cold_ms:.0} ms cold   {trace_warm_ms:.0} ms trace-warm (re-simulating)   \
         {sim_warm_ms:.0} ms trace+sim warm ({sim_hits} sim hits, {sim_misses} misses)   \
         sim speedup {:.2}x",
        trace_warm_ms / sim_warm_ms
    );
    println!("wrote results/BENCH_perf.json");

    // --- floor: throughput regression gate ----------------------------
    if let Some(path) = cli.value_of("--floor") {
        let mult: f64 = cli
            .value_of("--floor-mult")
            .map(|v| v.parse().expect("--floor-mult takes a number"))
            .unwrap_or(0.9);
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("--floor {path}: {e}"));
        let base = json_number(&text, "coresim_batched_mops")
            .unwrap_or_else(|| panic!("--floor {path}: no coresim_batched_mops value"));
        let floor = base * mult;
        println!(
            "== throughput floor ==\n  CoreSim slice replay {coresim_batched:.1} Mµops/s vs \
             floor {floor:.1} Mµops/s ({mult:.2}x of recorded {base:.1})"
        );
        assert!(
            base > 0.0 && base.is_finite(),
            "--floor {path}: implausible baseline {base}"
        );
        if coresim_batched < floor {
            eprintln!(
                "error: CoreSim slice replay (coresim_batched_mops) regressed below the \
                 recorded floor ({coresim_batched:.1} < {floor:.1} Mµops/s)"
            );
            std::process::exit(1);
        }
        // SHA backend liveness: this catches a silently dead fast path
        // rather than measuring one. It needs no baseline key: the CPU's
        // own feature report is the reference.
        println!(
            "  SHA-256 backend {} (CPU SHA extensions: {})",
            sha256_backend(),
            if cpu_has_sha() { "yes" } else { "no" }
        );
        if cpu_has_sha() && sha256_backend() == "scalar" {
            eprintln!(
                "error: the CPU reports SHA extensions but content IDs are hashed by the \
                 scalar backend"
            );
            std::process::exit(1);
        }
        // Sim-cache gate: the warm-path hit ratio is deterministic (a
        // populated store must serve every timed cell), so no noise
        // margin applies — any measured ratio below the recorded one
        // means the warm path silently re-simulated. A baseline recorded
        // before the sim cache existed has no `sim_hit_ratio` key and
        // the gate is skipped.
        if let Some(base_ratio) = json_number(&text, "sim_hit_ratio") {
            println!(
                "  sim-cache warm hit ratio {sim_hit_ratio:.3} vs recorded {base_ratio:.3}"
            );
            if sim_hit_ratio < base_ratio {
                eprintln!(
                    "error: warm-path sim hit ratio regressed below the recorded baseline \
                     ({sim_hit_ratio:.3} < {base_ratio:.3}): the warm path is silently \
                     re-simulating"
                );
                std::process::exit(1);
            }
        }
    }
}
