//! The baseline execution tier (Full Codegen analog) and the VM core.
//!
//! * [`bytecode`] — the stack bytecode with feedback-slot-carrying sites.
//! * [`compile`] — AST → bytecode.
//! * [`feedback`] — inline-cache and type feedback (§3.2).
//! * [`vm`] — the [`vm::Vm`]: function table, globals, tiering into the
//!   optimizing tier (via [`vm::OptimizerHook`]), GC safepoints,
//!   deoptimization, misspeculation servicing, and the Class List /
//!   Class Cache store protocol shared by both tiers (§4.2).
//! * [`interp`] — the interpreter, which models the µop stream of the
//!   generated baseline code (emitted into a
//!   [`checkelide_isa::TraceSink`]).
//! * [`emit`] — the µop sequence builder.
//!
//! # Example
//!
//! ```
//! use checkelide_engine::{Vm, EngineConfig};
//! use checkelide_isa::NullSink;
//!
//! let mut vm = Vm::new(EngineConfig::default());
//! let mut sink = NullSink::new();
//! let v = vm
//!     .run_program("function f(n) { return n * 2 + 1; } var r = f(20);
//!                   r;", &mut sink)
//!     .unwrap();
//! // The top level returns undefined; read the global instead.
//! let r = vm.global_value("r").unwrap();
//! assert_eq!(r.as_smi(), 41);
//! # let _ = v;
//! ```

pub mod bytecode;
pub mod compile;
pub mod emit;
pub mod feedback;
pub mod interp;
pub mod vm;

pub use bytecode::{Bc, BytecodeFunc};
pub use compile::{compile_function, CompileEnv};
pub use emit::Emitter;
pub use feedback::{BinFeedback, CallFeedback, FeedbackSlot, SiteFeedback};
pub use vm::{
    CompileOutcome, DeoptReason, DeoptState, EngineConfig, ExecResult, ExecScratch, Frame,
    FunctionInfo, Mechanism, OptimizedCode, OptimizerHook, Vm, VmError, VmStats, STEP_BUDGET_MSG,
};

impl Vm {
    /// Read a global by name (test/harness convenience).
    pub fn global_value(&self, name: &str) -> Option<checkelide_runtime::Value> {
        let ix = self.global_name_list.iter().position(|n| n == name)?;
        Some(self.globals[ix])
    }
}
