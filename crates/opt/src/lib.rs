//! The optimizing tier (Crankshaft analog) with the paper's speculative
//! optimizations.
//!
//! Given a hot function's type feedback, [`analyze`] plans a specialized
//! lowering for every bytecode operation — which Check Map / Check SMI /
//! Check Non-SMI operations guard it, which were proven redundant by a
//! dominating check, and (in Full-mechanism mode) which can be **removed
//! speculatively** because the Class List says the source property or
//! elements array is monomorphic (§4.3.1–4.3.3). Each such removal
//! registers the function in the slot's FunctionList and sets its
//! SpeculateMap bit, so a later store that breaks monomorphism raises the
//! misspeculation exception and deoptimizes the function (§4.2.2).
//!
//! [`exec::OptimizedBody`] then executes the plans, retiring the µop
//! stream the specialized machine code would, with full deoptimization
//! back to the baseline interpreter.
//!
//! # Example
//!
//! ```
//! use checkelide_engine::{EngineConfig, Mechanism, Vm};
//! use checkelide_isa::NullSink;
//! use checkelide_opt::install_optimizer;
//!
//! let mut vm = Vm::new(EngineConfig {
//!     mechanism: Mechanism::Full,
//!     ..EngineConfig::default()
//! });
//! install_optimizer(&mut vm);
//! let mut sink = NullSink::new();
//! vm.run_program(
//!     "function Point(x, y) { this.x = x; this.y = y; }
//!      function sum(p) { return p.x + p.y; }
//!      var total = 0;
//!      for (var i = 0; i < 100; i++) total += sum(new Point(i, i));",
//!     &mut sink,
//! )
//! .unwrap();
//! assert_eq!(vm.global_value("total").unwrap().as_smi(), 9900);
//! assert!(vm.stats.opt_entries > 0, "sum was tier-upgraded");
//! ```

pub mod analyze;
pub mod bbv;
pub mod context;
pub mod exec;
pub mod plan;

use checkelide_core::FuncId;
use checkelide_engine::{CompileOutcome, OptimizerHook, Vm};
use std::cell::RefCell;
use std::rc::Rc;

pub use analyze::{analyze, Abs, Analysis};
pub use bbv::{BbvState, BlockVersion, VERSION_CAP};
pub use context::{TypeCtx, TypeTag};
pub use exec::OptimizedBody;
pub use plan::{CheckKind, NumMode, OpPlan};

/// The optimizing compiler: analyzes a hot function's feedback and
/// hands the engine an [`OptimizedBody`] that walks the resulting plans.
#[derive(Debug, Default)]
pub struct Optimizer;

impl OptimizerHook for Optimizer {
    fn compile(&self, vm: &mut Vm, func: u32) -> CompileOutcome {
        let bc = vm.ensure_bytecode(func);
        let analysis = analyze(vm, func, &bc);
        // Register the speculations the plans rely on (sets SpeculateMap
        // bits and FunctionList entries across the transition subtrees).
        for &(intro, line, pos) in &analysis.speculations {
            let ok = vm.speculate_on(intro, line, pos, func);
            if !ok {
                // The slot lost monomorphism between feedback collection
                // and now; recompile later with fresh knowledge.
                vm.class_list.remove_function(FuncId(func));
                return CompileOutcome::Defer;
            }
        }
        // With BBV enabled, attach an (empty) version table: block
        // versions materialize lazily as execution reaches them. The
        // scalar plans above stay in place as the differential
        // reference and the `elided_sites` metadata source.
        let bbv_state =
            if vm.config.bbv { Some(RefCell::new(BbvState::new(&bc))) } else { None };
        CompileOutcome::Code(Rc::new(OptimizedBody {
            func,
            bc,
            plans: analysis.plans,
            elided_sites: analysis.elided_sites,
            bbv: bbv_state,
        }))
    }
}

/// Install the optimizing tier on a VM.
pub fn install_optimizer(vm: &mut Vm) {
    vm.set_optimizer(Rc::new(Optimizer));
}
