//! The traced run: each cell re-composed from public calls and timed at
//! every layer boundary, from outside the program.
//!
//! A cell here is one `(benchmark, configuration)` run, taken through the
//! same steps as `runner::try_run_benchmark_cached`: a manifest lookup; on
//! a miss, the engine's steady-state protocol (top level, warm-up
//! iterations, measured iteration) with the µop stream fanned out to the
//! counters, `CoreSim` and the trace encoder, then SHA-256, LZ and the
//! store's publish; on a hit, the memoized sim object or the trace body
//! (read, LZ-decompressed, SHA-verified, decoded) replayed into `CoreSim`.
//!
//! Consumers of the µop stream are wrapped in [`TimedSink`], so the
//! engine's self time is its measured span minus the time its sinks took.
//! Spans stay in memory and are written out when the run ends. The
//! untraced twin of every cell, through `try_run_benchmark_cached`, gives
//! the fidelity reference: both must agree on every output and leave the
//! store with the same manifests and sim objects.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use checkelide_bench::figures::CellMeta;
use checkelide_bench::store::{
    sha256, Sidecar, TraceStore, COMPRESS_LZ, COMPRESS_NONE, OBJECT_HEADER_LEN, OBJECT_MAGIC,
    OBJECT_VERSION,
};
use checkelide_bench::tracecache::cache_key;
use checkelide_bench::{
    sim_config, sim_fingerprint, try_run_benchmark_cached, Benchmark, CacheDisposition, RunConfig,
    RunOutput, SimCacheMode, SimTelemetry, TraceCache, BENCHMARKS,
};
use checkelide_engine::{EngineConfig, Vm, VmStats};
use checkelide_isa::{
    lz, BatchSink, CounterSink, NullSink, TraceReader, TraceSink, TraceWriter, Uop,
};
use checkelide_opt::install_optimizer;
use checkelide_runtime::Value;
use checkelide_uarch::{CoreSim, SimObject, SimResult, SIM_OBJECT_LEN};

use crate::json::Value as J;
use crate::workload::{parse_suite, Run, StoreUse, Workload};

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One traced interval. Sink spans aggregate every call a consumer took
/// inside their parent: `start`/`end` bound the first and last call and
/// `busy` is the summed time inside them; for other spans `busy` is
/// `end - start` and `calls` is 1.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub busy_ns: u64,
    pub calls: u64,
    pub parent: Option<usize>,
    /// The cell (run index) the span belongs to; `None` outside cells.
    pub cell: Option<usize>,
}

/// Span names that are containers, not layers: their self time is
/// harness glue and stays out of the layer totals.
const CONTAINERS: &[&str] = &["setup", "pass", "cell"];

/// Every layer span, with the per-layer metric that reports its summed
/// self time.
pub const LAYERS: &[(&str, &str)] = &[
    ("lang.parse", "lang.parse_ms"),
    ("engine.setup", "engine.setup_ms"),
    ("engine.warmup", "engine.warmup_ms"),
    ("engine.measured", "engine.measured_self_ms"),
    ("counters", "counters.ms"),
    ("coresim", "coresim.ms"),
    ("codec.encode", "codec.encode_ms"),
    ("codec.decode", "codec.decode_ms"),
    ("store.sha256", "store.sha256_ms"),
    ("lz.compress", "lz.compress_ms"),
    ("lz.decompress", "lz.decompress_ms"),
    ("store.put", "store.put_ms"),
    ("store.stat", "store.stat_ms"),
    ("store.sim_get", "store.sim_get_ms"),
    ("store.read", "store.read_ms"),
];

/// In-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    cell: Option<usize>,
    cells: usize,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            cell: None,
            cells: 0,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let start_ns = self.ns(Instant::now());
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            busy_ns: 0,
            calls: 1,
            parent: self.stack.last().copied(),
            cell: self.cell,
        });
        self.stack.push(id);
        id
    }

    /// Close span `id`, and any span an error path left open inside it.
    pub fn exit(&mut self, id: usize) {
        let end_ns = self.ns(Instant::now());
        while let Some(top) = self.stack.pop() {
            let s = &mut self.spans[top];
            s.end_ns = end_ns;
            s.busy_ns = end_ns - s.start_ns;
            if top == id {
                break;
            }
        }
    }

    /// Time `f` as one span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        r
    }

    /// Record a consumer's aggregated time as a child of the open span.
    pub fn sink(&mut self, name: &'static str, t: &SinkTime) {
        let (Some(first), Some(last)) = (t.first, t.last) else {
            return;
        };
        self.spans.push(Span {
            name,
            start_ns: self.ns(first),
            end_ns: self.ns(last),
            busy_ns: t.busy.as_nanos() as u64,
            calls: t.calls,
            parent: self.stack.last().copied(),
            cell: self.cell,
        });
    }

    fn begin_cell(&mut self) -> usize {
        self.cell = Some(self.cells);
        self.cells += 1;
        self.enter("cell")
    }

    fn end_cell(&mut self, id: usize) {
        self.exit(id);
        self.cell = None;
    }

    /// Self time of every span: its busy time minus its children's.
    fn self_ns(&self) -> Vec<i128> {
        let mut own: Vec<i128> = self.spans.iter().map(|s| i128::from(s.busy_ns)).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= i128::from(s.busy_ns);
            }
        }
        own
    }

    /// Summed self time per layer (containers excluded), in ms.
    pub fn layer_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            if !CONTAINERS.contains(&s.name) {
                *out.entry(s.name).or_insert(0.0) += own as f64 / 1e6;
            }
        }
        out
    }

    /// The spans as JSON, one object per span.
    pub fn to_json(&self) -> J {
        let opt = |v: Option<usize>| v.map_or(J::Null, J::from);
        J::Arr(
            self.spans
                .iter()
                .map(|s| {
                    J::obj([
                        ("name", J::str(s.name)),
                        ("start_ns", J::from(s.start_ns)),
                        ("end_ns", J::from(s.end_ns)),
                        ("busy_ns", J::from(s.busy_ns)),
                        ("calls", J::from(s.calls)),
                        ("parent", opt(s.parent)),
                        ("cell", opt(s.cell)),
                    ])
                })
                .collect(),
        )
    }
}

/// Time a consumer spent inside its sink calls.
#[derive(Debug, Default, Clone, Copy)]
pub struct SinkTime {
    busy: Duration,
    calls: u64,
    first: Option<Instant>,
    last: Option<Instant>,
}

/// A [`TraceSink`] that forwards to `inner` and times every call.
pub struct TimedSink<'a, S: TraceSink + ?Sized> {
    inner: &'a mut S,
    pub time: SinkTime,
}

impl<'a, S: TraceSink + ?Sized> TimedSink<'a, S> {
    pub fn new(inner: &'a mut S) -> TimedSink<'a, S> {
        TimedSink {
            inner,
            time: SinkTime::default(),
        }
    }

    #[inline]
    fn clock(&mut self, f: impl FnOnce(&mut S)) {
        let start = Instant::now();
        f(self.inner);
        let end = Instant::now();
        let t = &mut self.time;
        t.busy += end - start;
        t.calls += 1;
        t.first.get_or_insert(start);
        t.last = Some(end);
    }
}

impl<S: TraceSink + ?Sized> TraceSink for TimedSink<'_, S> {
    fn emit(&mut self, uop: &Uop) {
        self.clock(|s| s.emit(uop));
    }

    fn emit_batch(&mut self, uops: &[Uop]) {
        self.clock(|s| s.emit_batch(uops));
    }

    fn finish(&mut self) {
        self.clock(|s| s.finish());
    }

    fn discards_all(&self) -> bool {
        self.inner.discards_all()
    }
}

/// The measured iteration's consumers, in the runner's fan-out order:
/// counters, then `CoreSim` (timed runs), then the recorder (misses).
struct Measured<'a> {
    counters: TimedSink<'a, CounterSink>,
    sim: Option<TimedSink<'a, CoreSim>>,
    rec: Option<TimedSink<'a, TraceWriter<Vec<u8>>>>,
}

impl TraceSink for Measured<'_> {
    fn emit(&mut self, uop: &Uop) {
        self.emit_batch(std::slice::from_ref(uop));
    }

    fn emit_batch(&mut self, uops: &[Uop]) {
        self.counters.emit_batch(uops);
        if let Some(s) = &mut self.sim {
            s.emit_batch(uops);
        }
        if let Some(r) = &mut self.rec {
            r.emit_batch(uops);
        }
    }
}

// ---------------------------------------------------------------------------
// Cell outcomes
// ---------------------------------------------------------------------------

/// Everything the fidelity check compares about one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub disposition: &'static str,
    pub sim_hits: u64,
    pub sim_misses: u64,
    pub verify_mismatches: u64,
    pub uops: u64,
    pub checksum: String,
    pub counters: [u64; 21],
    /// The `SimResult` as its on-disk encoding, so f64 fields compare
    /// bit for bit.
    pub sim: Option<Vec<u8>>,
    pub vm_stats: VmStats,
}

fn encode_sim(r: &SimResult) -> Vec<u8> {
    SimObject::new([0; 32], sim_fingerprint(), r.clone()).encode()
}

impl Outcome {
    fn from_output(out: &RunOutput, disp: CacheDisposition, tel: SimTelemetry) -> Outcome {
        Outcome {
            disposition: disp.label(),
            sim_hits: tel.hits,
            sim_misses: tel.misses,
            verify_mismatches: tel.verify_mismatches,
            uops: out.uops,
            checksum: out.checksum.clone(),
            counters: out.counters.snapshot(),
            sim: out.sim.as_ref().map(encode_sim),
            vm_stats: out.vm_stats,
        }
    }

    fn from_side(
        side: &Sidecar,
        sim: Option<&SimResult>,
        disp: CacheDisposition,
        tel: SimTelemetry,
    ) -> Outcome {
        Outcome {
            disposition: disp.label(),
            sim_hits: tel.hits,
            sim_misses: tel.misses,
            verify_mismatches: tel.verify_mismatches,
            uops: side.uops,
            checksum: side.checksum.clone(),
            counters: side.counters,
            sim: sim.map(encode_sim),
            vm_stats: side.vm_stats,
        }
    }
}

/// Work counts the traced run observed.
#[derive(Debug, Default)]
pub struct Counts {
    pub engine_runs: u64,
    pub uops_measured: u64,
    pub deopts: u64,
    pub tier_up_events: u64,
    pub regions_compiled: u64,
    pub bbv_versions: u64,
    pub bbv_cap_fallbacks: u64,
    pub coresim_uops: u64,
    pub coresim_cycles: u64,
    pub encoded_uops: u64,
    pub encoded_bytes: u64,
    pub lz_in: u64,
    pub lz_out: u64,
    pub lookups: u64,
    pub hits: u64,
    pub sim_lookups: u64,
    pub sim_hits: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
}

// ---------------------------------------------------------------------------
// Re-composed cells
// ---------------------------------------------------------------------------

/// Runs cells from public calls, recording spans and counts.
pub struct Recomposer {
    pub t: Tracer,
    pub n: Counts,
}

impl Recomposer {
    pub fn new() -> Recomposer {
        Recomposer {
            t: Tracer::new(),
            n: Counts::default(),
        }
    }

    /// One traced run, against `store` when the workload has one.
    pub fn run(
        &mut self,
        store: Option<&TraceStore>,
        mode: SimCacheMode,
        run: &Run,
    ) -> Result<Outcome, String> {
        let cell = self.t.begin_cell();
        let r = match store {
            Some(store) => self.cached(store, mode, run.bench, run.cfg),
            None => self.live(run.bench, run.cfg, None).map(|(side, sim)| {
                Outcome::from_side(
                    &side,
                    sim.as_ref(),
                    CacheDisposition::Off,
                    SimTelemetry::default(),
                )
            }),
        };
        self.t.end_cell(cell);
        r
    }

    /// `try_run_benchmark_cached`, step by step.
    fn cached(
        &mut self,
        store: &TraceStore,
        mode: SimCacheMode,
        b: &Benchmark,
        cfg: RunConfig,
    ) -> Result<Outcome, String> {
        let key = cache_key(b.name, cfg.scale.unwrap_or(b.scale), &cfg);
        let want_sim = cfg.timing && mode != SimCacheMode::Off;
        self.n.lookups += 1;
        if let Some(side) = self.t.time("store.stat", || store.stat(&key)) {
            self.n.hits += 1;
            self.n.bytes_read += side.encode().len() as u64;
            let raw = if cfg.timing && !want_sim {
                Some(self.read_body(store, &key, &side)?)
            } else {
                None
            };
            return self.serve_hit(store, &key, &side, raw, cfg, mode);
        }
        let mut tel = SimTelemetry::default();
        if want_sim {
            tel.misses += 1;
        }
        let mut writer =
            TraceWriter::new(Vec::with_capacity(1 << 16)).map_err(|e| e.to_string())?;
        let (mut side, sim) = self.live(b, cfg, Some(&mut writer))?;
        let (raw, stats) = self
            .t
            .time("codec.encode", || writer.finish_file())
            .map_err(|e| format!("{}: recording failed: {e}", b.name))?;
        self.n.encoded_uops += stats.uops;
        self.n.encoded_bytes += raw.len() as u64;
        if stats.uops == side.uops {
            self.publish(
                store,
                key,
                &mut side,
                &raw,
                sim.as_ref().filter(|_| want_sim),
            )?;
        }
        Ok(Outcome::from_side(
            &side,
            sim.as_ref(),
            CacheDisposition::Miss,
            tel,
        ))
    }

    /// Serve a manifest hit: memoized sim object, or replay of the body.
    fn serve_hit(
        &mut self,
        store: &TraceStore,
        key: &str,
        side: &Sidecar,
        raw: Option<Vec<u8>>,
        cfg: RunConfig,
        mode: SimCacheMode,
    ) -> Result<Outcome, String> {
        let hit = CacheDisposition::Hit;
        let mut tel = SimTelemetry::default();
        let want_sim = cfg.timing && mode != SimCacheMode::Off;
        if want_sim {
            self.n.sim_lookups += 1;
            let memo = self.t.time("store.sim_get", || {
                store.sim_get(&side.cid, sim_fingerprint())
            });
            if let Some(obj) = memo.filter(|o| o.result.uops == side.uops) {
                self.n.sim_hits += 1;
                self.n.bytes_read += SIM_OBJECT_LEN as u64;
                tel.hits += 1;
                if mode != SimCacheMode::Verify {
                    return Ok(Outcome::from_side(side, Some(&obj.result), hit, tel));
                }
                let raw = match raw {
                    Some(raw) => raw,
                    None => self.read_body(store, key, side)?,
                };
                let live = self.replay(&raw, side)?;
                if SimObject::new(side.cid, sim_fingerprint(), live.clone()).encode()
                    != obj.encode()
                {
                    tel.verify_mismatches += 1;
                }
                return Ok(Outcome::from_side(side, Some(&live), hit, tel));
            }
        }
        let sim = if cfg.timing {
            let raw = match raw {
                Some(raw) => raw,
                None => self.read_body(store, key, side)?,
            };
            Some(self.replay(&raw, side)?)
        } else {
            None
        };
        if want_sim {
            tel.misses += 1;
            if let Some(s) = &sim {
                let obj = SimObject::new(side.cid, sim_fingerprint(), s.clone());
                self.t
                    .time("store.put", || store.sim_put(&obj))
                    .map_err(|e| e.to_string())?;
                self.n.bytes_written += SIM_OBJECT_LEN as u64;
            }
        }
        Ok(Outcome::from_side(side, sim.as_ref(), hit, tel))
    }

    /// `TraceStore::get`, split: manifest re-lookup and object read, then
    /// LZ decompression, then the SHA-256 content check.
    fn read_body(
        &mut self,
        store: &TraceStore,
        key: &str,
        side: &Sidecar,
    ) -> Result<Vec<u8>, String> {
        let read = self.t.enter("store.read");
        let image = store
            .stat(key)
            .and_then(|s| std::fs::read(store.object_path(&s.cid)).ok());
        self.t.exit(read);
        let image = image.ok_or_else(|| format!("{key}: trace body vanished"))?;
        self.n.bytes_read += image.len() as u64;
        let bad = || format!("{key}: malformed object");
        if image.len() < OBJECT_HEADER_LEN
            || image[..4] != OBJECT_MAGIC
            || image[4] != OBJECT_VERSION
        {
            return Err(bad());
        }
        let raw_len = u64::from_le_bytes(image[6..14].try_into().map_err(|_| bad())?) as usize;
        let payload = &image[OBJECT_HEADER_LEN..];
        let raw = match image[5] {
            COMPRESS_NONE => payload.to_vec(),
            COMPRESS_LZ => self
                .t
                .time("lz.decompress", || lz::decompress(payload, raw_len))
                .map_err(|e| format!("{key}: {e:?}"))?,
            _ => return Err(bad()),
        };
        if self.t.time("store.sha256", || sha256(&raw)) != side.cid
            || raw.len() as u64 != side.trace_bytes
        {
            return Err(format!("{key}: trace body fails its content check"));
        }
        Ok(raw)
    }

    /// Decode a trace body into a fresh `CoreSim`.
    fn replay(&mut self, raw: &[u8], side: &Sidecar) -> Result<SimResult, String> {
        let mut sim = self.t.time("coresim", || CoreSim::new(sim_config()));
        let decode = self.t.enter("codec.decode");
        let mut timed = TimedSink::new(&mut sim);
        let replayed = TraceReader::new(raw).and_then(|mut r| r.replay(&mut timed));
        let time = timed.time;
        self.t.sink("coresim", &time);
        self.t.exit(decode);
        match replayed {
            Ok(n) if n == side.uops => {}
            Ok(_) => return Err(format!("{}: trace/manifest µop mismatch", side.key)),
            Err(e) => return Err(format!("{}: {e}", side.key)),
        }
        let result = self.t.time("coresim", || sim.result());
        self.n.coresim_uops += result.uops;
        self.n.coresim_cycles += result.cycles;
        Ok(result)
    }

    /// `TraceStore::put`, split: SHA-256, LZ, then the object and
    /// manifest writes (plus the memoized simulation when timed).
    fn publish(
        &mut self,
        store: &TraceStore,
        key: String,
        side: &mut Sidecar,
        raw: &[u8],
        sim: Option<&SimResult>,
    ) -> Result<(), String> {
        let cid = self.t.time("store.sha256", || sha256(raw));
        let packed = if store.compress() {
            Some(self.t.time("lz.compress", || lz::compress(raw)))
        } else {
            None
        };
        if let Some(p) = &packed {
            self.n.lz_in += raw.len() as u64;
            self.n.lz_out += p.len() as u64;
        }
        let put = self.t.enter("store.put");
        let (compression, payload) = match &packed {
            Some(p) if p.len() < raw.len() => (COMPRESS_LZ, p.as_slice()),
            _ => (COMPRESS_NONE, raw),
        };
        let mut image = Vec::with_capacity(OBJECT_HEADER_LEN + payload.len());
        image.extend_from_slice(&OBJECT_MAGIC);
        image.push(OBJECT_VERSION);
        image.push(compression);
        image.extend_from_slice(&(raw.len() as u64).to_le_bytes());
        image.extend_from_slice(payload);
        side.key = key;
        side.cid = cid;
        side.compression = compression;
        side.trace_bytes = raw.len() as u64;
        side.stored_bytes = image.len() as u64;
        let put_result = store.put_prepared(side, &image);
        let sim_result =
            sim.map(|s| store.sim_put(&SimObject::new(cid, sim_fingerprint(), s.clone())));
        self.t.exit(put);
        let outcome = put_result.map_err(|e| format!("{}: store put failed: {e}", side.key))?;
        self.n.bytes_written += side.encode().len() as u64
            + if outcome.deduped {
                0
            } else {
                outcome.stored_bytes
            };
        if let Some(r) = sim_result {
            r.map_err(|e| format!("{}: sim put failed: {e}", side.key))?;
            self.n.bytes_written += SIM_OBJECT_LEN as u64;
        }
        Ok(())
    }

    /// The runner's live path: top level, warm-ups, statistics reset,
    /// measured iteration. Returns the manifest payload (store-location
    /// fields unset; Figure 3 row left at its default, which no
    /// re-composed path reads) and the live simulation of timed runs.
    fn live(
        &mut self,
        b: &Benchmark,
        cfg: RunConfig,
        rec: Option<&mut TraceWriter<Vec<u8>>>,
    ) -> Result<(Sidecar, Option<SimResult>), String> {
        let engine_cfg = EngineConfig {
            mechanism: cfg.mechanism,
            opt_enabled: cfg.opt,
            class_cache: cfg.class_cache,
            bbv: cfg.bbv,
            ..EngineConfig::default()
        };
        let mut null = NullSink::new();

        let setup = self.t.enter("engine.setup");
        let mut vm = Vm::new(engine_cfg);
        if cfg.opt {
            install_optimizer(&mut vm);
        }
        let main = self.t.time("lang.parse", || vm.load_program(b.source));
        let top = main.map_err(|e| e.to_string()).and_then(|main| {
            let undef = vm.rt.odd.undefined;
            let mut batch = BatchSink::new(&mut null);
            let r = vm.call_user(&mut batch, main, undef, &[]);
            batch.flush();
            r.map(drop).map_err(|e| e.to_string())
        });
        self.t.exit(setup);
        top.map_err(|e| format!("{}: setup failed: {e}", b.name))?;

        let args = [Value::smi(cfg.scale.unwrap_or(b.scale))];
        let warmup = self.t.enter("engine.warmup");
        let mut failed = None;
        for i in 1..cfg.iterations {
            vm.rt.reset_prng();
            if let Err(e) = vm.call_global("bench", &args, &mut null) {
                failed = Some(format!("{}: warmup {i} failed: {e}", b.name));
                break;
            }
        }
        self.t.exit(warmup);
        if let Some(e) = failed {
            return Err(e);
        }

        // Steady-state boundary: reset statistics, carry the cumulative
        // warm-up state (BBV versions, region tier, code cache).
        vm.class_cache.reset_stats();
        vm.load_stats.reset();
        let carried = vm.stats;
        vm.stats = VmStats {
            bbv_versions: carried.bbv_versions,
            bbv_cap_fallbacks: carried.bbv_cap_fallbacks,
            regions_compiled: carried.regions_compiled,
            tier_up_events: carried.tier_up_events,
            code_cache_bytes: carried.code_cache_bytes,
            evictions: carried.evictions,
            ..VmStats::default()
        };
        vm.rt.reset_prng();

        let mut counters = CounterSink::new();
        let mut sim = if cfg.timing {
            Some(self.t.time("coresim", || CoreSim::new(sim_config())))
        } else {
            None
        };
        let measured = self.t.enter("engine.measured");
        let mut sinks = Measured {
            counters: TimedSink::new(&mut counters),
            sim: sim.as_mut().map(TimedSink::new),
            rec: rec.map(TimedSink::new),
        };
        let result = vm.call_global("bench", &args, &mut sinks);
        self.t.sink("counters", &sinks.counters.time);
        if let Some(s) = &sinks.sim {
            self.t.sink("coresim", &s.time);
        }
        if let Some(r) = &sinks.rec {
            self.t.sink("codec.encode", &r.time);
        }
        self.t.exit(measured);
        let result = result.map_err(|e| format!("{}: measured run failed: {e}", b.name))?;
        self.t.time("counters", || counters.finish());
        let sim = sim.map(|s| self.t.time("coresim", || s.result()));

        let side = Sidecar {
            key: String::new(),
            counters: counters.snapshot(),
            fig3: Default::default(),
            class_cache: vm.class_cache.stats(),
            vm_stats: vm.stats,
            obj_stats: vm.rt.obj_stats,
            hidden_classes: vm.rt.maps.len() as u64,
            uops: counters.total(),
            trace_bytes: 0,
            checksum: vm.rt.to_display_string(result),
            cid: [0; 32],
            compression: COMPRESS_NONE,
            stored_bytes: 0,
        };
        self.t.time("engine.setup", || drop(vm));

        let n = &mut self.n;
        let st = side.vm_stats;
        n.engine_runs += 1;
        n.uops_measured += side.uops;
        n.deopts += st.deopts;
        n.tier_up_events += st.tier_up_events;
        n.regions_compiled += st.regions_compiled;
        n.bbv_versions += st.bbv_versions;
        n.bbv_cap_fallbacks += st.bbv_cap_fallbacks;
        if let Some(s) = &sim {
            n.coresim_uops += s.uops;
            n.coresim_cycles += s.cycles;
        }
        Ok((side, sim))
    }
}

// ---------------------------------------------------------------------------
// Sequences: the runs a workload's set-up and timed pass make
// ---------------------------------------------------------------------------

/// The runs of one set-up and one timed pass, in driver order.
pub struct Sequence {
    pub setup: Vec<Run>,
    pub pass: Vec<Run>,
    /// The warm re-read that follows a cold pass (same runs again).
    pub warm: Vec<Run>,
}

impl Sequence {
    /// The workload's runs, restricted to one benchmark when `only` is set.
    pub fn of(w: Workload, only: Option<&str>) -> Sequence {
        let runs: Vec<Run> = w
            .figures()
            .iter()
            .flat_map(|f| f.runs())
            .filter(|r| only.is_none_or(|n| r.bench.name == n))
            .collect();
        let store = w.store();
        Sequence {
            setup: if store == StoreUse::Primed {
                runs.clone()
            } else {
                Vec::new()
            },
            warm: if store == StoreUse::FreshPerPass {
                runs.clone()
            } else {
                Vec::new()
            },
            pass: runs,
        }
    }

    /// The runs of the timed pass, warm re-read included.
    fn timed(&self) -> impl Iterator<Item = &Run> {
        self.pass.iter().chain(&self.warm)
    }
}

/// One execution of a sequence.
pub struct Executed {
    /// Outcomes of the set-up runs, then of the pass runs.
    pub outcomes: Vec<Result<Outcome, String>>,
    /// Wall time of each pass run, in ms.
    pub run_ms: Vec<f64>,
    pub setup_wall: Duration,
    pub pass_wall: Duration,
}

/// The untraced twin: every run through `try_run_benchmark_cached`, the
/// call each figure cell makes.
pub fn run_untraced(w: Workload, seq: &Sequence, dir: &Path) -> Executed {
    let cached = |r: &Run, cache: &TraceCache| {
        try_run_benchmark_cached(r.bench, r.cfg, cache)
            .map(|(out, disp, tel)| Outcome::from_output(&out, disp, tel))
            .map_err(|e| e.to_string())
    };
    let start = Instant::now();
    let mut outcomes = Vec::new();
    if let Err(e) = parse_suite() {
        outcomes.push(Err(e));
    }
    if !seq.setup.is_empty() {
        let prime = TraceCache::at(dir).with_sim_mode(SimCacheMode::On);
        outcomes.extend(seq.setup.iter().map(|r| cached(r, &prime)));
    }
    let setup_wall = start.elapsed();
    let cache = match w.store() {
        StoreUse::None => TraceCache::disabled(),
        _ => TraceCache::at(dir).with_sim_mode(w.pass_sim_mode()),
    };
    let mut run_ms = Vec::new();
    let start = Instant::now();
    for r in seq.timed() {
        let t = Instant::now();
        outcomes.push(cached(r, &cache));
        run_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Executed {
        outcomes,
        run_ms,
        setup_wall,
        pass_wall: start.elapsed(),
    }
}

/// The traced run of a sequence. Returns the recorder with its spans and
/// counts alongside the execution.
pub fn run_traced(w: Workload, seq: &Sequence, dir: &Path) -> (Recomposer, Executed) {
    let mut rec = Recomposer::new();
    let mut outcomes = Vec::new();
    let start = Instant::now();
    let setup = rec.t.enter("setup");
    for b in BENCHMARKS {
        if let Err(e) = rec
            .t
            .time("lang.parse", || checkelide_lang::parse_program(b.source))
        {
            outcomes.push(Err(format!("{}: {e}", b.name)));
        }
    }
    let store = match w.store() {
        StoreUse::None => None,
        _ => match TraceStore::open(dir, true) {
            Ok(s) => Some(s),
            Err(e) => {
                outcomes.push(Err(format!(
                    "cannot open a store at {}: {e}",
                    dir.display()
                )));
                None
            }
        },
    };
    for r in &seq.setup {
        outcomes.push(rec.run(store.as_ref(), SimCacheMode::On, r));
    }
    rec.t.exit(setup);
    let setup_wall = start.elapsed();

    let mut run_ms = Vec::new();
    let start = Instant::now();
    let pass = rec.t.enter("pass");
    for r in seq.timed() {
        let t = Instant::now();
        outcomes.push(rec.run(store.as_ref(), w.pass_sim_mode(), r));
        run_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    rec.t.exit(pass);
    let pass_wall = start.elapsed();
    (
        rec,
        Executed {
            outcomes,
            run_ms,
            setup_wall,
            pass_wall,
        },
    )
}

// ---------------------------------------------------------------------------
// Fidelity
// ---------------------------------------------------------------------------

/// Compare the traced run with its untraced twin: every run's outcome, and
/// (for store workloads) the manifests and sim objects each left behind.
pub fn fidelity(
    untraced: &Executed,
    traced: &Executed,
    store_dirs: Option<(&Path, &Path)>,
) -> Vec<String> {
    let mut problems = Vec::new();
    if untraced.outcomes.len() != traced.outcomes.len() {
        problems.push(format!(
            "the traced run made {} runs, its twin {}",
            traced.outcomes.len(),
            untraced.outcomes.len()
        ));
    }
    for (i, (u, t)) in untraced.outcomes.iter().zip(&traced.outcomes).enumerate() {
        match (u, t) {
            (Ok(u), Ok(t)) if u == t => {}
            (Ok(u), Ok(t)) => {
                problems.push(format!("run {i}: traced outcome differs: {u:?} vs {t:?}"))
            }
            (Err(e), _) => problems.push(format!("run {i}: untraced run failed: {e}")),
            (_, Err(e)) => problems.push(format!("run {i}: traced run failed: {e}")),
        }
    }
    if let Some((u, t)) = store_dirs {
        problems.extend(compare_stores(u, t));
    }
    problems
}

fn compare_stores(u: &Path, t: &Path) -> Vec<String> {
    let open = |d: &Path| TraceStore::open(d, true).map_err(|e| format!("{}: {e}", d.display()));
    let (su, st) = match (open(u), open(t)) {
        (Ok(su), Ok(st)) => (su, st),
        (Err(e), _) | (_, Err(e)) => return vec![e],
    };
    let index = |s: &TraceStore| -> BTreeMap<String, Sidecar> {
        s.manifests()
            .into_iter()
            .map(|(_, side, _, _)| (side.key.clone(), side))
            .collect()
    };
    let (mu, mt) = (index(&su), index(&st));
    let mut problems = Vec::new();
    if mu.keys().ne(mt.keys()) {
        problems.push(format!(
            "manifest keys differ: {} untraced, {} traced",
            mu.len(),
            mt.len()
        ));
    }
    for (key, a) in &mu {
        let Some(b) = mt.get(key) else { continue };
        let same = a.cid == b.cid
            && a.uops == b.uops
            && a.checksum == b.checksum
            && a.trace_bytes == b.trace_bytes
            && a.stored_bytes == b.stored_bytes
            && a.compression == b.compression
            && a.counters == b.counters
            && a.vm_stats == b.vm_stats
            && a.class_cache == b.class_cache
            && a.obj_stats == b.obj_stats
            && a.hidden_classes == b.hidden_classes;
        if !same {
            problems.push(format!("manifest {key} differs"));
        }
        let sim = |s: &TraceStore| s.sim_get(&a.cid, sim_fingerprint()).map(|o| o.encode());
        if sim(&su) != sim(&st) {
            problems.push(format!("sim object of {key} differs"));
        }
    }
    problems
}

/// Check the run mirror against the drivers: per figure cell, the µops of
/// the mirrored runs must sum to what the driver's cell measured.
pub fn check_mirror(
    pass: &[Run],
    outcomes: &[Result<Outcome, String>],
    cells: &[CellMeta],
) -> Vec<String> {
    let mut sums: BTreeMap<(&str, &str), u64> = BTreeMap::new();
    for (r, o) in pass.iter().zip(outcomes) {
        *sums.entry((r.figure.label(), r.bench.name)).or_default() +=
            o.as_ref().map_or(0, |o| o.uops);
    }
    let mut problems = Vec::new();
    for c in cells {
        match sums.remove(&(c.figure.as_str(), c.benchmark.as_str())) {
            Some(u) if u == c.uops => {}
            Some(u) => problems.push(format!(
                "{}/{}: mirrored runs measured {u} µops, the driver's cell {}",
                c.figure, c.benchmark, c.uops
            )),
            None => problems.push(format!("{}/{}: no mirrored run", c.figure, c.benchmark)),
        }
    }
    for (fig, bench) in sums.keys() {
        problems.push(format!("{fig}/{bench}: mirrored but not run by the driver"));
    }
    problems
}
