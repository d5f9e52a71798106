//! Debugging aid: print per-function tier state (optimized / disabled /
//! deopt counts) for one benchmark under the baseline and Full-mechanism
//! configurations; deopt counts come from `VmStats`.
//!
//!     cargo run --release -p checkelide-bench --bin diag -- <benchmark>

fn main() {
    use checkelide_engine::{EngineConfig, Mechanism, Vm};
    use checkelide_isa::NullSink;
    let name = checkelide_bench::Cli::parse().positional_or("ai-astar");
    let b = checkelide_bench::find(&name).unwrap_or_else(|| {
        eprintln!("unknown benchmark `{name}`; available:");
        for b in checkelide_bench::BENCHMARKS {
            eprintln!("  {}", b.name);
        }
        std::process::exit(1);
    });
    for mech in [Mechanism::Off, Mechanism::Full] {
        let mut vm = Vm::new(EngineConfig { mechanism: mech, ..Default::default() });
        checkelide_opt::install_optimizer(&mut vm);
        let mut sink = NullSink::new();
        vm.run_program(b.source, &mut sink).unwrap();
        for _ in 0..10 {
            vm.rt.reset_prng();
            vm.call_global("bench", &[checkelide_runtime::Value::smi(b.scale)], &mut sink)
                .unwrap();
        }
        println!(
            "== {name} {mech:?}: calls={} opt_entries={} deopts={} misspec={}",
            vm.stats.calls, vm.stats.opt_entries, vm.stats.deopts, vm.stats.misspec_exceptions
        );
        for f in &vm.funcs {
            if f.invocations > 0 && f.decl.name != "<main>" {
                println!(
                    "  {:<16} inv={:<8} optimized={} disabled={} deopts={}",
                    f.decl.name,
                    f.invocations,
                    f.optimized.is_some(),
                    f.opt_disabled,
                    f.deopt_count
                );
            }
        }
    }
}
