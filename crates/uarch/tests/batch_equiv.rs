//! Delivery-granularity regression test for the trace pipeline.
//!
//! How a µop stream reaches a consumer — one [`TraceSink::emit`] per µop,
//! [`TraceSink::emit_batch`] slices of any size, or the producer-side
//! `BatchSink` staging buffer — must not change a single statistic. This
//! test records a real program trace through the full engine stack (both
//! execution tiers, inline caches, GC-free steady state) and delivers it
//! to fresh [`CounterSink`] and [`CoreSim`] pairs per µop, in capacity
//! chunks, in odd 97-µop chunks and through [`BatchSink`] (arbitrary flush
//! boundaries from capacity-triggered auto-flushes), asserting identical
//! [`SimResult`]s and counter totals.
//!
//! The same property must hold through the binary trace codec: recording
//! the live trace with [`TraceWriter`] and streaming it back with
//! [`TraceReader::replay`] — one batch per frame, short frames included —
//! has to reproduce bit-identical consumer state. That equivalence is what
//! lets the bench trace cache substitute a recorded trace for a
//! re-execution.

use checkelide_engine::{EngineConfig, Mechanism, Vm};
use checkelide_isa::codec::{decode_trace, encode_trace, TraceReader, TraceWriter};
use checkelide_isa::trace::VecSink;
use checkelide_isa::uop::{Category, Region, Uop};
use checkelide_isa::{BatchSink, CounterSink, NullSink, TraceSink, BATCH_CAPACITY};
use checkelide_opt::install_optimizer;
use checkelide_runtime::Value;
use checkelide_uarch::{CoreConfig, CoreSim};

/// A small but representative workload: hidden-class property traffic,
/// elements-array loads/stores, SMI and double arithmetic, calls, and
/// enough iterations that the optimized tier is active in the recorded
/// trace.
const SRC: &str = "
function Vec(x, y) { this.x = x; this.y = y; }
function dot(a, b) { return a.x * b.x + a.y * b.y; }
function bench(n) {
    var u = new Vec(3, 4);
    var v = new Vec(5, 6);
    var arr = [];
    for (var i = 0; i < 64; i++) arr[i] = i * 1.5;
    var acc = 0;
    for (var j = 0; j < n; j++) {
        acc = acc + dot(u, v) + arr[j % 64];
        u.x = (u.x + 1) % 97;
    }
    return acc;
}";

/// Record the steady-state trace of one `bench(400)` call (two warm-up
/// calls first so the optimized tier is entered).
fn record_trace() -> Vec<Uop> {
    let mut vm = Vm::new(EngineConfig {
        mechanism: Mechanism::ProfileOnly,
        opt_enabled: true,
        ..EngineConfig::default()
    });
    install_optimizer(&mut vm);
    let mut null = NullSink::new();
    vm.run_program(SRC, &mut null).expect("setup");
    let args = [Value::smi(400)];
    for _ in 0..2 {
        vm.call_global("bench", &args, &mut null).expect("warmup");
    }
    let mut rec = VecSink::new();
    vm.call_global("bench", &args, &mut rec).expect("measured");
    rec.uops
}

/// All externally observable [`CounterSink`] totals, for equality checks.
fn counter_fingerprint(c: &CounterSink) -> Vec<u64> {
    let mut v = Vec::new();
    for r in [Region::Baseline, Region::Optimized, Region::Runtime] {
        for cat in Category::ALL {
            v.push(c.count(r, cat));
        }
    }
    v.push(c.after_object_load());
    v.push(c.after_object_load_optimized());
    v
}

#[test]
fn batched_and_per_uop_consumption_are_equivalent() {
    let trace = record_trace();
    assert!(
        trace.len() > 3 * BATCH_CAPACITY,
        "trace too short ({} µops) to exercise batching",
        trace.len()
    );
    assert!(
        trace.iter().any(|u| u.region == Region::Optimized),
        "trace must include optimized-tier µops to be representative"
    );

    // --- CounterSink ---------------------------------------------------
    let mut per_uop = CounterSink::new();
    for u in &trace {
        per_uop.emit(u);
    }
    per_uop.finish();

    let mut batched = CounterSink::new();
    for chunk in trace.chunks(BATCH_CAPACITY) {
        batched.emit_batch(chunk);
    }
    batched.finish();

    assert_eq!(
        counter_fingerprint(&per_uop),
        counter_fingerprint(&batched),
        "CounterSink totals must not depend on batch boundaries"
    );
    assert_eq!(per_uop.total(), trace.len() as u64);

    // Producer-side staging buffer: per-µop pushes, capacity-triggered
    // flushes at arbitrary (non-chunk-aligned) boundaries.
    let mut via_batch_sink = CounterSink::new();
    {
        let mut b = BatchSink::new(&mut via_batch_sink);
        for u in &trace {
            b.push(*u);
        }
        b.finish();
    }
    assert_eq!(
        counter_fingerprint(&per_uop),
        counter_fingerprint(&via_batch_sink),
        "BatchSink staging must preserve the exact µop stream"
    );

    // --- CoreSim -------------------------------------------------------
    let mut sim_per_uop = CoreSim::new(CoreConfig::nehalem());
    for u in &trace {
        sim_per_uop.emit(u);
    }
    sim_per_uop.finish();

    let mut sim_batched = CoreSim::new(CoreConfig::nehalem());
    for chunk in trace.chunks(BATCH_CAPACITY) {
        sim_batched.emit_batch(chunk);
    }
    sim_batched.finish();

    let (a, b) = (sim_per_uop.result(), sim_batched.result());
    assert_eq!(
        a, b,
        "SimResult (cycles, energy, caches, TLBs, branches) must be \
         identical between per-µop and batched replay"
    );
    assert!(a.cycles > 0 && a.uops == trace.len() as u64);

    // Odd, non-power-of-two batch boundaries must not matter either (the
    // model is order-dependent, not boundary-dependent).
    let mut sim_odd = CoreSim::new(CoreConfig::nehalem());
    for chunk in trace.chunks(97) {
        sim_odd.emit_batch(chunk);
    }
    sim_odd.finish();
    assert_eq!(a, sim_odd.result(), "batch size must not affect the model");
}

/// Recording a real engine trace through the binary codec and replaying
/// it must be invisible to every consumer: the [`CounterSink`]
/// fingerprint and the [`CoreSim`] [`SimResult`] after a
/// [`TraceReader::replay`] have to equal the live (in-memory) run's. This
/// is the end-to-end correctness contract behind the bench trace cache's
/// record-once/replay-many protocol.
#[test]
fn codec_replay_is_equivalent_to_live_consumption() {
    let trace = record_trace();
    assert!(trace.len() > 3 * BATCH_CAPACITY, "trace too short to be representative");

    // Live fingerprints.
    let mut live_counters = CounterSink::new();
    live_counters.emit_batch(&trace);
    live_counters.finish();
    let mut live_sim = CoreSim::new(CoreConfig::nehalem());
    live_sim.emit_batch(&trace);
    live_sim.finish();
    let live_result = live_sim.result();

    // Encode through TraceWriter, decode eagerly: exact µop identity.
    let bytes = encode_trace(&trace);
    assert!(
        bytes.len() * 8 <= trace.len() * std::mem::size_of::<Uop>(),
        "encoded trace ({} B) must be at least 8x smaller than the \
         in-memory form ({} B)",
        bytes.len(),
        trace.len() * std::mem::size_of::<Uop>()
    );
    let decoded = decode_trace(&bytes).expect("decode");
    assert_eq!(decoded, trace, "codec round trip must preserve every µop field");

    // Streaming replay into a CounterSink.
    let mut replay_counters = CounterSink::new();
    let mut rd = TraceReader::new(std::io::Cursor::new(&bytes[..])).expect("header");
    let n = rd.replay(&mut replay_counters).expect("replay");
    assert_eq!(n, trace.len() as u64);
    assert_eq!(
        counter_fingerprint(&live_counters),
        counter_fingerprint(&replay_counters),
        "counter totals must survive the codec round trip"
    );

    // Streaming replay into a fresh CoreSim.
    let mut replay_sim = CoreSim::new(CoreConfig::nehalem());
    let mut rd = TraceReader::new(std::io::Cursor::new(&bytes[..])).expect("header");
    rd.replay(&mut replay_sim).expect("replay");
    assert_eq!(
        live_result,
        replay_sim.result(),
        "SimResult (cycles, energy, caches, TLBs, branches) must be \
         identical between live consumption and codec replay"
    );

    // Short frames mid-file (a writer `finish` at uneven points, as
    // between measured iterations): replay hands each frame over as it
    // is, and the result must not move.
    let mut w = TraceWriter::new(Vec::new()).expect("vec");
    let mut at = 0;
    let cuts = [13, 13, 300, 301, 777, 2_000];
    for end in cuts.into_iter().filter(|&e| e < trace.len()) {
        w.emit_batch(&trace[at..end]);
        w.finish();
        at = end;
    }
    w.emit_batch(&trace[at..]);
    let (short, _) = w.finish_file().expect("vec");
    assert_ne!(short, bytes, "the uneven finishes must cut short frames");
    let mut short_sim = CoreSim::new(CoreConfig::nehalem());
    let mut rd = TraceReader::new(std::io::Cursor::new(&short[..])).expect("header");
    let n = rd.replay(&mut short_sim).expect("replay");
    assert_eq!(n, trace.len() as u64);
    assert_eq!(
        live_result,
        short_sim.result(),
        "short mid-file frames must not change the SimResult"
    );

    // NullSink fast path still validates framing and counts every µop.
    let mut null = NullSink::new();
    let mut rd = TraceReader::new(std::io::Cursor::new(&bytes[..])).expect("header");
    assert_eq!(rd.replay(&mut null).expect("replay"), trace.len() as u64);
}
