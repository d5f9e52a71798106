//! Criterion benches: one group per paper experiment family.
//!
//! These measure the *reproduction pipeline itself* (wall-clock of the
//! simulated runs) at reduced scales, one bench per table/figure, so
//! `cargo bench` exercises every experiment path:
//!
//! * `fig1_breakdown/*` — characterization runs (instruction counting).
//! * `fig3_monomorphism/*` — profiling runs with Figure 3 classification.
//! * `fig8_speedup/*` — timed baseline + mechanism runs (the Figure 8/9
//!   pipeline) on representative benchmarks from each suite.
//! * `table1_classlist` — the Class List build/render path.
//! * `classcache_microbench` — raw Class Cache store-request throughput
//!   (the §5.3.2 "no penalty on hits" structure).
//! * `uop_pipeline/*` — the batched trace pipeline itself: the
//!   interpreter dispatch loop feeding a discarding sink (the warm-up
//!   configuration) and CoreSim replay one slice per call, both reported in
//!   µops/sec via the shim's `Throughput::Elements` support.

use checkelide_bench::{find, run_benchmark, sim_config, RunConfig};
use checkelide_core::{ClassCache, ClassId, ClassList, StoreRequest};
use checkelide_engine::{EngineConfig, Mechanism, Vm};
use checkelide_isa::trace::VecSink;
use checkelide_isa::uop::Uop;
use checkelide_isa::{NullSink, TraceSink, BATCH_CAPACITY};
use checkelide_opt::install_optimizer;
use checkelide_runtime::Value;
use checkelide_uarch::CoreSim;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

const QUICK_SCALE: i32 = 2;

fn quick(mech: Mechanism, timing: bool) -> RunConfig {
    RunConfig {
        mechanism: mech,
        opt: true,
        iterations: 2,
        scale: Some(QUICK_SCALE),
        timing,
        class_cache: checkelide_core::classcache::ClassCacheConfig::default(),
        bbv: false,
    }
}

fn fig1_breakdown(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig1_breakdown");
    g.sample_size(10);
    for name in ["richards", "access-nbody", "crypto-aes"] {
        let b = find(name).expect("registered");
        g.bench_function(name, |bench| {
            bench.iter(|| {
                let out = run_benchmark(b, quick(Mechanism::ProfileOnly, false));
                black_box(out.counters.fig1_row())
            });
        });
    }
    g.finish();
}

fn fig3_monomorphism(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig3_monomorphism");
    g.sample_size(10);
    for name in ["ai-astar", "deltablue"] {
        let b = find(name).expect("registered");
        g.bench_function(name, |bench| {
            bench.iter(|| {
                let out = run_benchmark(b, quick(Mechanism::ProfileOnly, false));
                black_box(out.fig3)
            });
        });
    }
    g.finish();
}

fn fig8_speedup(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig8_speedup");
    g.sample_size(10);
    for name in ["ai-astar", "richards", "audio-oscillator"] {
        let b = find(name).expect("registered");
        g.bench_function(format!("{name}/baseline"), |bench| {
            bench.iter(|| black_box(run_benchmark(b, quick(Mechanism::Off, true)).sim));
        });
        g.bench_function(format!("{name}/mechanism"), |bench| {
            bench.iter(|| black_box(run_benchmark(b, quick(Mechanism::Full, true)).sim));
        });
    }
    g.finish();
}

fn table1_classlist(c: &mut Criterion) {
    c.bench_function("table1_classlist", |bench| {
        bench.iter(|| {
            let mut list = ClassList::new();
            for class in 0..32u8 {
                for pos in 1..8u8 {
                    let req = StoreRequest {
                        holder: ClassId::new(class).unwrap(),
                        line: 0,
                        pos,
                        stored: ClassId::SMI,
                    };
                    black_box(list.profile_store(&req));
                }
            }
            black_box(list.render_table(|c| format!("{c}")))
        });
    });
}

fn classcache_microbench(c: &mut Criterion) {
    c.bench_function("classcache_store_requests", |bench| {
        let mut cache = ClassCache::with_default_config();
        let mut list = ClassList::new();
        let reqs: Vec<StoreRequest> = (0..64u8)
            .map(|i| StoreRequest {
                holder: ClassId::new(i % 32).unwrap(),
                line: i % 2,
                pos: 1 + i % 7,
                stored: ClassId::SMI,
            })
            .collect();
        bench.iter(|| {
            for r in &reqs {
                black_box(cache.store_request(r, &mut list));
            }
        });
    });
}

/// Workload for the pipeline benches: hidden-class property traffic,
/// elements arrays, SMI and double arithmetic, and enough iterations for
/// the optimized tier to be active (same shape as the batch-equivalence
/// regression test).
const PIPELINE_SRC: &str = "
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

/// A warmed VM ready to run `bench(N)`, plus the µop count one call
/// retires (recorded once, so the benches can report µops/sec).
fn pipeline_vm(n: i32) -> (Vm, Vec<Uop>) {
    let mut vm = Vm::new(EngineConfig {
        mechanism: Mechanism::ProfileOnly,
        opt_enabled: true,
        ..EngineConfig::default()
    });
    install_optimizer(&mut vm);
    let mut null = NullSink::new();
    vm.run_program(PIPELINE_SRC, &mut null).expect("setup");
    let args = [Value::smi(n)];
    for _ in 0..2 {
        vm.call_global("bench", &args, &mut null).expect("warmup");
    }
    let mut rec = VecSink::new();
    vm.call_global("bench", &args, &mut rec).expect("record");
    (vm, rec.uops)
}

fn uop_pipeline(c: &mut Criterion) {
    let mut g = c.benchmark_group("uop_pipeline");
    g.sample_size(10);
    const N: i32 = 2000;
    let (mut vm, trace) = pipeline_vm(N);
    let uops = trace.len() as u64;

    // The engine's hot loop in the warm-up configuration: both execution
    // tiers dispatching into a discarding sink, where the batched
    // pipeline skips µop construction and token allocation entirely.
    g.throughput(Throughput::Elements(uops));
    g.bench_function("interp_dispatch", |bench| {
        let args = [Value::smi(N)];
        bench.iter(|| {
            let mut null = NullSink::new();
            black_box(vm.call_global("bench", &args, &mut null).expect("run"))
        });
    });

    // The consumer side: replaying the recorded trace into the cycle
    // model one `emit_batch` call per BATCH_CAPACITY µops (CoreSim takes
    // the trait default, so this times its one per-µop walk).
    g.throughput(Throughput::Elements(uops));
    g.bench_function("coresim_emit_batch", |bench| {
        bench.iter(|| {
            let mut sim = CoreSim::new(sim_config());
            for chunk in trace.chunks(BATCH_CAPACITY) {
                sim.emit_batch(chunk);
            }
            sim.finish();
            black_box(sim.result())
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    fig1_breakdown,
    fig3_monomorphism,
    fig8_speedup,
    table1_classlist,
    classcache_microbench,
    uop_pipeline
);
criterion_main!(benches);
