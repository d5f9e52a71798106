//! The virtual machine: function table, globals, tiering, GC safepoints,
//! deoptimization, and the Class Cache mechanism wiring shared by both
//! execution tiers.

use crate::bytecode::BytecodeFunc;
use crate::compile::{compile_function, CompileEnv};
use crate::emit::{stubs, Emitter};
use crate::feedback::FeedbackSlot;
use checkelide_core::{
    classlist::ELEMENTS_SLOT, ClassCache, ClassCacheConfig, ClassId, ClassList, FuncId,
    LoadAccessStats, MisspeculationException, SpecialRegs, StoreOutcome, StoreRequest,
};
use checkelide_isa::layout::{class_list_entry_addr, BASELINE_CODE_BASE, STACK_BASE};
use checkelide_isa::uop::{Category, MemRef, Region, Tok, Uop, UopKind};
use checkelide_isa::{BatchSink, TraceSink};
use checkelide_lang::{parse_program, FuncDecl, ParseError};
use checkelide_runtime::{
    Builtin, ElemKind, FuncRef, MapIx, NameId, Runtime, Value,
};
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

/// Simulated base address of the globals table.
pub const GLOBALS_BASE: u64 = 0x0000_7e00_0000;
/// Simulated bytes of generated baseline code per function.
pub const CODE_STRIDE: u64 = 0x8000;

/// How much of the paper's mechanism is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mechanism {
    /// Plain V8 model: no Class List, no profiling (the Figure 8/9
    /// baseline).
    Off,
    /// Class List updated by invisible instrumentation; no new
    /// instructions, no elision (the Figure 1–3 characterization runs).
    ProfileOnly,
    /// Full HW/SW mechanism: special store instructions, Class Cache
    /// traffic, check elision, misspeculation exceptions.
    Full,
}

impl Mechanism {
    /// Whether the Class List is being maintained.
    pub fn profiles(self) -> bool {
        !matches!(self, Mechanism::Off)
    }
}

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Mechanism mode.
    pub mechanism: Mechanism,
    /// Whether the optimizing tier is enabled at all.
    pub opt_enabled: bool,
    /// Invocations before a function is optimized.
    pub opt_threshold: u32,
    /// GC trigger: words allocated since the last collection.
    pub gc_threshold_words: u64,
    /// Deopts after which a function stays in the baseline tier.
    pub max_deopts: u32,
    /// Class Cache geometry.
    pub class_cache: ClassCacheConfig,
    /// Software check elision via lazy basic-block versioning: the
    /// optimizing tier specializes block versions on typed contexts
    /// (locals/operand tags + known maps established by dominating
    /// checks) instead of — or in addition to — the hardware Class
    /// Cache profile. Orthogonal to [`Mechanism`]: `bbv` alone is the
    /// pure-software competitor, `bbv` + [`Mechanism::Full`] is the
    /// combined configuration.
    pub bbv: bool,
    /// Execution step budget: the VM aborts with a `step budget
    /// exceeded` runtime error after this many interpreted bytecodes /
    /// optimized ops. `0` means unlimited. Differential harnesses set
    /// this so candidate programs with runaway loops terminate
    /// deterministically instead of hanging the oracle.
    pub step_budget: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            mechanism: Mechanism::Off,
            opt_enabled: true,
            opt_threshold: 6,
            gc_threshold_words: 6 << 20,
            max_deopts: 8,
            class_cache: ClassCacheConfig::default(),
            bbv: false,
            step_budget: 0,
        }
    }
}

/// Error message produced when [`EngineConfig::step_budget`] runs out.
/// Shared with the reference interpreter so a runaway program produces
/// the *same* observable under every executor.
pub const STEP_BUDGET_MSG: &str = "step budget exceeded";

/// A runtime error (njs has no exception system; errors abort execution).
#[derive(Debug, Clone, PartialEq)]
pub struct VmError {
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "runtime error: {}", self.message)
    }
}

impl std::error::Error for VmError {}

impl VmError {
    /// Construct from anything printable.
    pub fn new(message: impl Into<String>) -> VmError {
        VmError { message: message.into() }
    }
}

/// Why optimized code bailed out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeoptReason {
    /// A Check Map failed.
    CheckMap,
    /// A Check SMI failed.
    CheckSmi,
    /// A Check Non-SMI failed.
    CheckNonSmi,
    /// SMI arithmetic overflowed (math assumption).
    Overflow,
    /// Element access outside the specialized fast path.
    Elements,
    /// The running function was deoptimized by a misspeculation
    /// exception or by another function's deopt (epoch bump).
    Invalidated,
    /// Unspecialized situation (megamorphic site reached etc.).
    Generic,
}

/// State handed from bailing optimized code back to the interpreter.
#[derive(Debug, Clone)]
pub struct DeoptState {
    /// Bytecode index to resume at.
    pub bc_pc: u32,
    /// Reconstructed locals.
    pub locals: Vec<Value>,
    /// Reconstructed operand stack.
    pub stack: Vec<Value>,
    /// Why.
    pub reason: DeoptReason,
}

/// Result of running optimized code.
#[derive(Debug)]
pub enum ExecResult {
    /// Normal completion.
    Return(Value),
    /// Bail out to the interpreter.
    Deopt(DeoptState),
    /// A nested call returned an error.
    Error(VmError),
}

/// Optimized code installed on a function.
pub trait OptimizedCode {
    /// Execute with the given receiver and arguments.
    fn execute(
        &self,
        vm: &mut Vm,
        sink: &mut BatchSink<'_>,
        this: Value,
        args: &[Value],
    ) -> ExecResult;

    /// Dynamic count of check µops this code elided thanks to the Class
    /// Cache profile (static metadata; for reporting).
    fn elided_check_sites(&self) -> u32 {
        0
    }
}

/// Outcome of an optimization attempt.
pub enum CompileOutcome {
    /// Code ready to install.
    Code(Rc<dyn OptimizedCode>),
    /// Not enough feedback yet; retry later.
    Defer,
    /// Give up on this function permanently.
    Bail,
}

/// The optimizing compiler, supplied by `checkelide-opt`.
pub trait OptimizerHook {
    /// Compile `func`, reading feedback and (in Full mode) registering
    /// speculations in the Class List.
    fn compile(&self, vm: &mut Vm, func: u32) -> CompileOutcome;
}

/// Per-function state.
pub struct FunctionInfo {
    /// Source AST.
    pub decl: Rc<FuncDecl>,
    /// Lazily compiled bytecode.
    pub bytecode: Option<Rc<BytecodeFunc>>,
    /// Feedback vector (parallel to bytecode feedback slots).
    pub feedback: Vec<FeedbackSlot>,
    /// Call count (tier-up trigger).
    pub invocations: u32,
    /// Installed optimized code.
    pub optimized: Option<Rc<dyn OptimizedCode>>,
    /// Permanently stuck in baseline after too many deopts.
    pub opt_disabled: bool,
    /// Deopt events so far.
    pub deopt_count: u32,
    /// Bumped on every deopt; running optimized code checks it.
    pub deopt_epoch: u32,
    /// Compiled with top-level (global-scope) semantics.
    pub is_main: bool,
    /// Initial hidden class when used as a constructor.
    pub initial_map: Option<MapIx>,
    /// Slack tracking: lines to preallocate for `new` (learned).
    pub expected_lines: u8,
    /// Allocation-site elements-kind feedback: the most general elements
    /// kind this constructor's objects have reached (V8's allocation-site
    /// tracking). `new` pre-transitions the initial map accordingly so hot
    /// code never sees the kind ramp.
    pub expected_elem_kind: ElemKind,
    /// Cached function object.
    pub func_value: Option<Value>,
    /// Reentrancy guard during optimization.
    pub compiling: bool,
}

impl fmt::Debug for FunctionInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FunctionInfo")
            .field("name", &self.decl.name)
            .field("invocations", &self.invocations)
            .field("optimized", &self.optimized.is_some())
            .field("deopt_count", &self.deopt_count)
            .finish()
    }
}

/// An interpreter frame (shadow stack — also the GC root set).
#[derive(Debug, Clone)]
pub struct Frame {
    /// Function index.
    pub func: u32,
    /// Receiver.
    pub this: Value,
    /// Locals (params first).
    pub locals: Vec<Value>,
    /// Operand stack.
    pub stack: Vec<Value>,
    /// Dataflow tokens mirroring `stack`.
    pub toks: Vec<Tok>,
    /// Dataflow tokens mirroring `locals`.
    pub local_toks: Vec<Tok>,
}

/// Aggregate VM statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VmStats {
    /// User-function calls.
    pub calls: u64,
    /// Entries into optimized code.
    pub opt_entries: u64,
    /// Deoptimization events (check failures + invalidations).
    pub deopts: u64,
    /// Misspeculation exceptions raised by the Class Cache.
    pub misspec_exceptions: u64,
    /// IC hits / misses in the baseline tier.
    pub ic_hits: u64,
    /// IC misses.
    pub ic_misses: u64,
    /// GC runs.
    pub gc_runs: u64,
    /// Property accesses to line 0 vs. later lines (§5.3.4: 79 % hit
    /// line 0).
    pub line0_accesses: u64,
    /// Property accesses beyond line 0.
    pub linen_accesses: u64,
    /// Basic-block versions materialized by the BBV tier (0 unless
    /// [`EngineConfig::bbv`]). Cumulative warm-up state, like hidden
    /// classes: the bench runner carries it across the steady-state
    /// statistics reset.
    pub bbv_versions: u64,
    /// BBV version-cap fallbacks to the generic block version.
    pub bbv_cap_fallbacks: u64,
    /// Always 0; retire with the benchmark's `opt.*` metrics.
    pub regions_compiled: u64,
    /// Always 0; retire with the benchmark's `opt.*` metrics.
    pub tier_up_events: u64,
    /// Always 0; retire with the benchmark's `opt.*` metrics.
    pub code_cache_bytes: u64,
    /// Always 0; retire with the benchmark's `opt.*` metrics.
    pub evictions: u64,
}

/// One optimized activation's pooled register file (see
/// [`Vm::exec_scratch`]).
#[derive(Debug, Default)]
pub struct ExecScratch {
    /// Local slots.
    pub locals: Vec<Value>,
    /// Operand stack.
    pub stack: Vec<Value>,
    /// Operand-stack dataflow tokens.
    pub stoks: Vec<Tok>,
    /// Local-slot dataflow tokens.
    pub ltoks: Vec<Tok>,
}

/// The virtual machine.
pub struct Vm {
    /// Object model.
    pub rt: Runtime,
    /// Configuration (fixed per VM).
    pub config: EngineConfig,
    /// Function table.
    pub funcs: Vec<FunctionInfo>,
    /// Global values.
    pub globals: Vec<Value>,
    global_names: HashMap<String, u32>,
    /// Global names by index.
    pub global_name_list: Vec<String>,
    /// The software Class List (§4.2.1.1).
    pub class_list: ClassList,
    /// The hardware Class Cache (§4.2.1.3).
    pub class_cache: ClassCache,
    /// The special registers (§4.2.1.2).
    pub special_regs: SpecialRegs,
    /// Object-load accounting for Figure 3.
    pub load_stats: LoadAccessStats,
    /// Interpreter shadow stack.
    pub frames: Vec<Frame>,
    /// Recycled interpreter frames: per-call locals/stack/token vectors
    /// are reused across activations instead of reallocated.
    frame_pool: Vec<Frame>,
    /// Tagged vreg files of active optimized activations (GC roots).
    pub opt_frames: Vec<Vec<Value>>,
    /// Recycled optimized-activation register files: the opt tier's
    /// per-call locals/stack/token vectors, reused across activations
    /// instead of reallocated (four heap allocations per optimized
    /// call otherwise). Pooled contents are dead values — never GC
    /// roots — and are cleared before reuse.
    pub exec_scratch: Vec<ExecScratch>,
    /// Transition-tree root → constructor function (for allocation-site
    /// elements-kind feedback).
    pub ctor_of_root: HashMap<MapIx, u32>,
    /// Classes that have been recorded as *value* classes in some profile
    /// slot. A later transition away from such a class must invalidate
    /// the slots recording it (in-place class mutation; see DESIGN.md).
    value_profiled: [bool; 256],
    /// Statistics.
    pub stats: VmStats,
    optimizer: Option<Rc<dyn OptimizerHook>>,
    /// Recursion depth guard.
    pub depth: u32,
    /// Steps left before the VM aborts (`u64::MAX` when
    /// [`EngineConfig::step_budget`] is `0`, i.e. unlimited).
    pub steps_remaining: u64,
}

impl fmt::Debug for Vm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Vm")
            .field("funcs", &self.funcs.len())
            .field("globals", &self.globals.len())
            .field("mechanism", &self.config.mechanism)
            .finish()
    }
}

impl Vm {
    /// Build a VM and install the standard globals (`Math`, `String`,
    /// `print`, `parseInt`, `parseFloat`).
    pub fn new(config: EngineConfig) -> Vm {
        // Fresh token namespace: keeps the emitted trace byte-identical
        // across repeated runs in one process (see `emit::reset_token_namespace`).
        crate::emit::reset_token_namespace();
        let mut vm = Vm {
            rt: Runtime::new(),
            config,
            funcs: Vec::new(),
            globals: Vec::new(),
            global_names: HashMap::new(),
            global_name_list: Vec::new(),
            class_list: ClassList::new(),
            class_cache: ClassCache::new(config.class_cache),
            special_regs: SpecialRegs::new(),
            load_stats: LoadAccessStats::new(),
            frames: Vec::new(),
            frame_pool: Vec::new(),
            opt_frames: Vec::new(),
            exec_scratch: Vec::new(),
            ctor_of_root: HashMap::new(),
            value_profiled: [false; 256],
            stats: VmStats::default(),
            optimizer: None,
            depth: 0,
            steps_remaining: if config.step_budget == 0 { u64::MAX } else { config.step_budget },
        };
        vm.install_globals();
        vm
    }

    /// Install the optimizing tier.
    pub fn set_optimizer(&mut self, opt: Rc<dyn OptimizerHook>) {
        self.optimizer = Some(opt);
    }

    fn install_globals(&mut self) {
        // Math object.
        let math_map = self.rt.maps.new_constructor_root("Math");
        let math = self.rt.alloc_object(math_map, 3);
        for &b in Builtin::math_members() {
            let name = self.rt.names.intern(b.name());
            let f = self.rt.alloc_function(FuncRef::Builtin(b));
            let add = self.rt.add_property(math, name);
            debug_assert!(add.relocated.is_none(), "Math preallocated with 3 lines");
            self.rt.store_slot(math, add.offset, f);
        }
        let g = self.global_ix("Math");
        self.globals[g as usize] = math;

        // String object (fromCharCode).
        let string_map = self.rt.maps.new_constructor_root("String");
        let string_obj = self.rt.alloc_object(string_map, 1);
        let name = self.rt.names.intern("fromCharCode");
        let f = self.rt.alloc_function(FuncRef::Builtin(Builtin::StringFromCharCode));
        let add = self.rt.add_property(string_obj, name);
        self.rt.store_slot(string_obj, add.offset, f);
        let g = self.global_ix("String");
        self.globals[g as usize] = string_obj;

        // Global functions.
        for (n, b) in
            [("print", Builtin::Print), ("parseInt", Builtin::ParseInt), ("parseFloat", Builtin::ParseFloat)]
        {
            let f = self.rt.alloc_function(FuncRef::Builtin(b));
            let g = self.global_ix(n);
            self.globals[g as usize] = f;
        }
    }

    // ----- program loading -----

    /// Parse and run a whole program in the global scope. Returns the last
    /// `return` value of the top-level code (or `undefined`).
    ///
    /// # Errors
    ///
    /// Parse errors and runtime errors.
    pub fn run_program(
        &mut self,
        src: &str,
        sink: &mut dyn TraceSink,
    ) -> Result<Value, VmError> {
        let main = self.load_program(src).map_err(|e| VmError::new(e.to_string()))?;
        let undef = self.rt.odd.undefined;
        // Cross the `dyn` boundary once: everything below threads the
        // concrete `BatchSink`, and µops reach `sink` in batches.
        let mut batch = BatchSink::new(sink);
        let r = self.call_user(&mut batch, main, undef, &[]);
        batch.flush();
        r
    }

    /// Parse a program and register its top level as a function; returns
    /// the function index (call it to (re-)run the top level).
    ///
    /// # Errors
    ///
    /// Propagates parse errors.
    pub fn load_program(&mut self, src: &str) -> Result<u32, ParseError> {
        let program = parse_program(src)?;
        let decl = Rc::new(FuncDecl {
            name: "<main>".into(),
            params: vec![],
            body: program.body,
            line: 1,
        });
        Ok(self.register_main(decl))
    }

    fn register_main(&mut self, decl: Rc<FuncDecl>) -> u32 {
        let ix = self.register_function(decl);
        self.funcs[ix as usize].is_main = true;
        ix
    }

    /// Call a global function by name (the harness entry point).
    ///
    /// # Errors
    ///
    /// Runtime errors, or an error when the global is not callable.
    pub fn call_global(
        &mut self,
        name: &str,
        args: &[Value],
        sink: &mut dyn TraceSink,
    ) -> Result<Value, VmError> {
        let g = self
            .global_names
            .get(name)
            .copied()
            .ok_or_else(|| VmError::new(format!("no global `{name}`")))?;
        let callee = self.globals[g as usize];
        let undef = self.rt.odd.undefined;
        let mut batch = BatchSink::new(sink);
        let r = self.call_value(&mut batch, callee, undef, args);
        batch.flush();
        r
    }

    /// The (cached) function object for a function-table entry.
    pub fn function_value(&mut self, ix: u32) -> Value {
        if let Some(v) = self.funcs[ix as usize].func_value {
            return v;
        }
        let v = self.rt.alloc_function(FuncRef::User(ix));
        self.funcs[ix as usize].func_value = Some(v);
        v
    }

    /// Resolve (or create) a global slot.
    pub fn global_ix(&mut self, name: &str) -> u32 {
        if let Some(&ix) = self.global_names.get(name) {
            return ix;
        }
        let ix = self.globals.len() as u32;
        self.globals.push(self.rt.odd.undefined);
        self.global_names.insert(name.to_string(), ix);
        self.global_name_list.push(name.to_string());
        ix
    }

    /// Simulated address of a global slot.
    pub fn global_addr(ix: u32) -> u64 {
        GLOBALS_BASE + ix as u64 * 8
    }

    /// Simulated address of a local slot in the current frame.
    pub fn local_addr(&self, local: u16) -> u64 {
        let depth = self.frames.len() as u64;
        STACK_BASE + depth * 0x800 + local as u64 * 8
    }

    /// Baseline code base for a function.
    pub fn code_base(func: u32) -> u64 {
        BASELINE_CODE_BASE + func as u64 * CODE_STRIDE
    }

    /// Ensure a function's bytecode exists.
    pub fn ensure_bytecode(&mut self, func: u32) -> Rc<BytecodeFunc> {
        if let Some(bc) = &self.funcs[func as usize].bytecode {
            return bc.clone();
        }
        let decl = self.funcs[func as usize].decl.clone();
        let global_scope = self.funcs[func as usize].is_main;
        let (bc, feedback) = compile_function(self, &decl, global_scope);
        let bc = Rc::new(bc);
        self.funcs[func as usize].bytecode = Some(bc.clone());
        self.funcs[func as usize].feedback = feedback;
        bc
    }

    // ----- calls -----

    /// Call an arbitrary callee value.
    ///
    /// # Errors
    ///
    /// `VmError` when the callee is not a function or the call fails.
    pub fn call_value(
        &mut self,
        sink: &mut BatchSink<'_>,
        callee: Value,
        this: Value,
        args: &[Value],
    ) -> Result<Value, VmError> {
        if callee.is_smi() || !matches!(self.rt.kind_of(callee), checkelide_runtime::VKind::Func)
        {
            return Err(VmError::new("callee is not a function"));
        }
        match self.rt.func_ref(callee) {
            FuncRef::Builtin(b) => Ok(self.call_builtin_traced(sink, b, this, args)),
            FuncRef::User(f) => self.call_user(sink, f, this, args),
        }
    }

    /// Invoke a builtin, charging its µop cost.
    pub fn call_builtin_traced(
        &mut self,
        sink: &mut BatchSink<'_>,
        b: Builtin,
        this: Value,
        args: &[Value],
    ) -> Value {
        let mut em = Emitter::new(Region::Runtime);
        em.at(stubs::BUILTIN + (b as u64) * 0x40);
        let (alu, mem) = builtin_cost(b);
        em.stub_call(sink, stubs::BUILTIN + (b as u64) * 0x40, alu, mem);
        checkelide_runtime::call_builtin(&mut self.rt, b, this, args)
    }

    /// Call a user function, dispatching to optimized code when installed
    /// and handling tier-up and deoptimization.
    ///
    /// # Errors
    ///
    /// Runtime errors from the function body.
    pub fn call_user(
        &mut self,
        sink: &mut BatchSink<'_>,
        func: u32,
        this: Value,
        args: &[Value],
    ) -> Result<Value, VmError> {
        // The guard must trip before the *native* stack does: each njs
        // frame costs several Rust frames, which are much larger without
        // optimizations.
        let limit = if cfg!(debug_assertions) { 120 } else { 800 };
        if self.depth >= limit {
            return Err(VmError::new("stack overflow"));
        }
        self.depth += 1;
        let result = self.call_user_inner(sink, func, this, args);
        self.depth -= 1;
        result
    }

    fn call_user_inner(
        &mut self,
        sink: &mut BatchSink<'_>,
        func: u32,
        this: Value,
        args: &[Value],
    ) -> Result<Value, VmError> {
        self.stats.calls += 1;
        let bc = self.ensure_bytecode(func);
        let info = &mut self.funcs[func as usize];
        info.invocations += 1;
        let should_optimize = self.config.opt_enabled
            && !info.opt_disabled
            && !info.compiling
            && info.optimized.is_none()
            && info.invocations >= self.config.opt_threshold;
        if should_optimize {
            self.maybe_optimize(func);
        }

        self.gc_safepoint(sink, &[this], args);

        if let Some(code) = self.funcs[func as usize].optimized.clone() {
            self.stats.opt_entries += 1;
            match code.execute(self, sink, this, args) {
                ExecResult::Return(v) => return Ok(v),
                ExecResult::Error(e) => return Err(e),
                ExecResult::Deopt(state) => {
                    self.on_deopt(sink, func);
                    // Resume in the interpreter at the deopt point. The
                    // reconstructed locals/stack move straight into the
                    // frame (and are recycled into the pool afterwards).
                    let mut frame = self.take_frame(func, this);
                    frame.locals = state.locals;
                    frame.stack = state.stack;
                    return self.interpret(sink, func, &bc, frame, state.bc_pc);
                }
            }
        }

        // Baseline path: a pooled frame, so the per-activation vectors
        // (locals/stack/token mirrors) are recycled instead of allocated.
        let mut frame = self.take_frame(func, this);
        let undef = self.rt.odd.undefined;
        frame.locals.resize(bc.n_locals as usize, undef);
        for (i, &a) in args.iter().take(bc.params as usize).enumerate() {
            frame.locals[i] = a;
        }
        self.interpret(sink, func, &bc, frame, 0)
    }

    /// A recycled (or fresh) interpreter frame with cleared vectors.
    /// Counterpart of [`Vm::recycle_frame`].
    pub(crate) fn take_frame(&mut self, func: u32, this: Value) -> Frame {
        match self.frame_pool.pop() {
            Some(mut f) => {
                f.func = func;
                f.this = this;
                f.locals.clear();
                f.stack.clear();
                f.toks.clear();
                f.local_toks.clear();
                f
            }
            None => Frame {
                func,
                this,
                locals: Vec::with_capacity(16),
                stack: Vec::with_capacity(16),
                toks: Vec::with_capacity(16),
                local_toks: Vec::with_capacity(16),
            },
        }
    }

    /// Return a finished frame's vectors to the pool (bounded, so deep
    /// recursion cannot pin unbounded memory).
    pub(crate) fn recycle_frame(&mut self, frame: Frame) {
        if self.frame_pool.len() < 64 {
            self.frame_pool.push(frame);
        }
    }

    fn maybe_optimize(&mut self, func: u32) {
        let Some(hook) = self.optimizer.clone() else { return };
        self.funcs[func as usize].compiling = true;
        let outcome = hook.compile(self, func);
        self.funcs[func as usize].compiling = false;
        match outcome {
            CompileOutcome::Code(code) => {
                self.funcs[func as usize].optimized = Some(code);
            }
            CompileOutcome::Defer => {
                // Retry after more warm-up.
                self.funcs[func as usize].invocations = 0;
            }
            CompileOutcome::Bail => {
                self.funcs[func as usize].opt_disabled = true;
            }
        }
    }

    /// Record a deopt of `func` and discard its optimized code.
    pub fn on_deopt(&mut self, sink: &mut BatchSink<'_>, func: u32) {
        self.stats.deopts += 1;
        let mut em = Emitter::new(Region::Runtime);
        em.at(stubs::DEOPT);
        em.stub_call(sink, stubs::DEOPT, 40, 10);
        self.deopt_function(func);
    }

    fn deopt_function(&mut self, func: u32) {
        if func as usize >= self.funcs.len() {
            // Stale registration (possible only in tests that speculate
            // with synthetic function ids).
            self.class_list.remove_function(FuncId(func));
            return;
        }
        let info = &mut self.funcs[func as usize];
        if info.optimized.take().is_some() {
            info.deopt_epoch += 1;
        }
        info.deopt_count += 1;
        info.invocations = 0;
        if info.deopt_count > self.config.max_deopts {
            info.opt_disabled = true;
        }
        self.class_list.remove_function(FuncId(func));
    }

    /// Service a misspeculation exception (§4.2.2): deoptimize every
    /// function in the slot's FunctionList. Returns `true` when
    /// `current` itself was deoptimized (the caller must OSR-out).
    pub fn handle_misspeculation(
        &mut self,
        sink: &mut BatchSink<'_>,
        exc: &MisspeculationException,
        current: Option<u32>,
    ) -> bool {
        self.stats.misspec_exceptions += 1;
        let mut em = Emitter::new(Region::Runtime);
        em.at(stubs::DEOPT);
        em.stub_call(sink, stubs::DEOPT, 60, 15);
        let mut self_deopted = false;
        for f in &exc.functions {
            self.stats.deopts += 1;
            self.deopt_function(f.0);
            if current == Some(f.0) {
                self_deopted = true;
            }
        }
        self_deopted
    }

    /// Current deopt epoch of a function (optimized code snapshots this
    /// and bails when it moves — the paper's on-stack case, §4.2.2).
    pub fn deopt_epoch(&self, func: u32) -> u32 {
        self.funcs[func as usize].deopt_epoch
    }

    /// The map `new` should allocate with for constructor `fi`: the
    /// initial map, pre-transitioned to the allocation-site elements kind.
    pub fn construction_map(&mut self, fi: u32) -> MapIx {
        let initial = match self.funcs[fi as usize].initial_map {
            Some(m) => m,
            None => {
                let label = self.funcs[fi as usize].decl.name.clone();
                let m = self.rt.maps.new_constructor_root(&label);
                self.funcs[fi as usize].initial_map = Some(m);
                self.ctor_of_root.insert(m, fi);
                m
            }
        };
        match self.funcs[fi as usize].expected_elem_kind {
            ElemKind::Smi => initial,
            k => self.rt.maps.transition_elem_kind(initial, k),
        }
    }

    /// Record post-construction feedback (object size and elements kind).
    pub fn record_construction(&mut self, fi: u32, obj: Value) {
        let lines = self.rt.maps.get(self.rt.object_map(obj)).lines();
        let kind = self.rt.elements_kind(obj);
        let info = &mut self.funcs[fi as usize];
        info.expected_lines = info.expected_lines.max(lines);
        info.expected_elem_kind = ElemKind::join(info.expected_elem_kind, kind);
    }

    /// An object's map transitioned away from `old_map` (property
    /// addition or elements-kind change). If objects of the old class were
    /// ever profiled as value classes, every slot recording them must be
    /// invalidated — the object mutated its type in place and no store
    /// will re-verify it. Deoptimizes any functions speculating on those
    /// slots; returns `true` when `current` was among them.
    pub fn note_map_transition(
        &mut self,
        sink: &mut BatchSink<'_>,
        old_map: MapIx,
        current: Option<u32>,
    ) -> bool {
        let Some(cid) = self.rt.maps.get(old_map).class_id else { return false };
        if !self.config.mechanism.profiles() || !self.value_profiled[cid.raw() as usize] {
            return false;
        }
        self.value_profiled[cid.raw() as usize] = false;
        let exceptions = self.class_list.invalidate_value_class(cid);
        let mut self_deopt = false;
        for exc in &exceptions {
            if !exc.functions.is_empty() {
                self_deopt |= self.handle_misspeculation(sink, exc, current);
            }
        }
        self_deopt
    }

    /// Allocation-site feedback at elements-kind transition time (V8
    /// updates the allocation site when the transition happens, which may
    /// be long after the constructor returned): future constructions are
    /// born with the general kind, so hot code never sees the kind ramp.
    pub fn note_kind_transition(
        &mut self,
        sink: &mut BatchSink<'_>,
        new_map: MapIx,
        current: Option<u32>,
    ) -> bool {
        let root = self.rt.maps.root_of(new_map);
        let kind = self.rt.maps.get(new_map).elements_kind;
        if let Some(&fi) = self.ctor_of_root.get(&root) {
            let info = &mut self.funcs[fi as usize];
            info.expected_elem_kind = ElemKind::join(info.expected_elem_kind, kind);
        }
        // A kind transition is also an in-place class change of the array
        // object itself.
        match self.rt.maps.get(new_map).parent {
            Some(old) => self.note_map_transition(sink, old, current),
            None => false,
        }
    }

    // ----- GC -----

    /// Collect garbage if the allocation budget is exhausted. `extra` are
    /// additional roots (receiver/args not yet in a frame).
    pub fn gc_safepoint(&mut self, sink: &mut BatchSink<'_>, extra: &[Value], extra2: &[Value]) {
        if !self.gc_due() {
            return;
        }
        self.collect_garbage(sink, extra, extra2);
    }

    /// Whether the next [`Vm::gc_safepoint`] will actually collect. Lets
    /// callers skip the work of rooting their frame (cloning locals/stack
    /// into [`Vm::opt_frames`]) on the overwhelmingly common no-op path.
    #[inline]
    pub fn gc_due(&self) -> bool {
        self.rt.heap.words_since_gc() >= self.config.gc_threshold_words
    }

    fn collect_garbage(&mut self, sink: &mut BatchSink<'_>, extra: &[Value], extra2: &[Value]) {
        self.stats.gc_runs += 1;
        let mut roots: Vec<Value> = Vec::with_capacity(256);
        roots.extend_from_slice(&self.globals);
        roots.extend_from_slice(extra);
        roots.extend_from_slice(extra2);
        for f in &self.frames {
            roots.push(f.this);
            roots.extend_from_slice(&f.locals);
            roots.extend_from_slice(&f.stack);
        }
        for vf in &self.opt_frames {
            roots.extend_from_slice(vf);
        }
        for info in &self.funcs {
            if let Some(v) = info.func_value {
                roots.push(v);
            }
        }
        let freed = self.rt.collect(&roots);
        // Charge an approximate µop cost for the collection: marking is
        // proportional to live data, sweeping to freed data.
        let live = self.rt.heap.live_words();
        let mut em = Emitter::new(Region::Runtime);
        em.at(stubs::GC);
        let alu = (live / 64).clamp(50, 50_000);
        let mem = (freed / 64).clamp(10, 20_000);
        em.stub_call(sink, stubs::GC, alu, mem);
    }

    /// Fix all VM-held roots after an object relocation.
    pub fn fix_roots(&mut self, old: u64, new: u64) {
        let old_v = Value::ptr(old);
        let new_v = Value::ptr(new);
        let fix = |v: &mut Value| {
            if *v == old_v {
                *v = new_v;
            }
        };
        for g in &mut self.globals {
            fix(g);
        }
        for f in &mut self.frames {
            fix(&mut f.this);
            f.locals.iter_mut().for_each(fix);
            f.stack.iter_mut().for_each(fix);
        }
        for vf in &mut self.opt_frames {
            vf.iter_mut().for_each(fix);
        }
    }

    // ----- the Class Cache protocol (shared by both tiers) -----

    /// Record a property-line access for the §5.3.4 statistic.
    pub fn note_line_access(&mut self, offset: u16) {
        if offset < 8 {
            self.stats.line0_accesses += 1;
        } else {
            self.stats.linen_accesses += 1;
        }
    }

    /// Emit the store for `obj.prop = value` according to the mechanism
    /// mode, including profiling/verification. Returns `true` when the
    /// currently executing function was deoptimized by a misspeculation
    /// exception (the optimized caller must bail out).
    ///
    /// `holder_map` must be the object's map *after* any transition (the
    /// class the hardware sees in the header at store time).
    #[allow(clippy::too_many_arguments)]
    pub fn store_property_profiled(
        &mut self,
        sink: &mut BatchSink<'_>,
        em: &mut Emitter,
        obj: Value,
        holder_map: MapIx,
        offset: u16,
        value: Value,
        current_func: Option<u32>,
    ) -> bool {
        let slot_addr = self.rt.slot_addr(obj, offset);
        let cat = store_cat(em.region());
        match self.config.mechanism {
            Mechanism::Off => {
                em.chain_store(sink, slot_addr, cat);
                false
            }
            Mechanism::ProfileOnly => {
                em.chain_store(sink, slot_addr, cat);
                self.silent_profile(holder_map, offset / 8, offset % 8, value);
                false
            }
            Mechanism::Full => self.full_store(
                sink,
                em,
                slot_addr,
                holder_map,
                (offset / 8) as u8,
                (offset % 8) as u8,
                value,
                current_func,
                false,
                None,
            ),
        }
    }

    /// Emit the store for `obj[i] = value` profiling the elements slot.
    /// `hoisted_reg` is `Some(reg)` when optimized code already loaded the
    /// holder's ClassID into `regArrayObjectClassId[reg]` outside the loop.
    #[allow(clippy::too_many_arguments)]
    pub fn store_element_profiled(
        &mut self,
        sink: &mut BatchSink<'_>,
        em: &mut Emitter,
        holder: Value,
        holder_map: MapIx,
        kind: ElemKind,
        slot_addr: u64,
        value: Value,
        current_func: Option<u32>,
        hoisted_reg: Option<usize>,
    ) -> bool {
        let cat = store_cat(em.region());
        // Double-kind stores are unboxed writes: no class to profile
        // (§4.3: built-in/type-specific stores need no checks).
        if kind == ElemKind::Double {
            em.chain_store(sink, slot_addr, cat);
            return false;
        }
        match self.config.mechanism {
            Mechanism::Off => {
                em.chain_store(sink, slot_addr, cat);
                false
            }
            Mechanism::ProfileOnly => {
                em.chain_store(sink, slot_addr, cat);
                self.silent_profile(holder_map, 0, ELEMENTS_SLOT as u16, value);
                false
            }
            Mechanism::Full => self.full_store(
                sink,
                em,
                slot_addr,
                holder_map,
                0,
                ELEMENTS_SLOT,
                value,
                current_func,
                true,
                Some((holder, hoisted_reg)),
            ),
        }
    }

    fn silent_profile(&mut self, holder_map: MapIx, line: u16, pos: u16, value: Value) {
        let Some(holder) = self.rt.maps.get(holder_map).class_id else { return };
        match self.rt.class_id_of_value(value) {
            Some(stored) => {
                self.value_profiled[stored.raw() as usize] = true;
                let req =
                    StoreRequest { holder, line: line as u8, pos: pos as u8, stored };
                let _ = self.class_list.profile_store(&req);
            }
            None => {
                let _ = self.class_list.force_invalidate(holder, line as u8, pos as u8);
            }
        }
    }

    /// The Full-mechanism store: new instructions + Class Cache traffic.
    #[allow(clippy::too_many_arguments)]
    fn full_store(
        &mut self,
        sink: &mut BatchSink<'_>,
        em: &mut Emitter,
        slot_addr: u64,
        holder_map: MapIx,
        line: u8,
        pos: u8,
        value: Value,
        current_func: Option<u32>,
        is_elements: bool,
        elements_ctx: Option<(Value, Option<usize>)>,
    ) -> bool {
        let cat = store_cat(em.region());
        let Some(holder) = self.rt.maps.get(holder_map).class_id else {
            // Unprofiled class (ClassID space exhausted): ordinary store.
            em.chain_store(sink, slot_addr, cat);
            return false;
        };

        // movClassID: latch the stored value's ClassID (reads the header
        // word of the object unless it is a SMI).
        let stored = match self.rt.class_id_of_value(value) {
            Some(c) => c,
            None => {
                // Stored object's class is unprofilable: the slot cannot
                // stay monomorphic. Invalidate in software.
                em.chain_store(sink, slot_addr, cat);
                match self.class_list.force_invalidate(holder, line, pos) {
                    StoreOutcome::Misspeculation(exc) => {
                        return self.handle_misspeculation(sink, &exc, current_func)
                    }
                    _ => return false,
                }
            }
        };
        self.value_profiled[stored.raw() as usize] = true;
        let mut mov = Uop::new(UopKind::MovClassId, 0, cat, em.region());
        if value.is_ptr() {
            mov.mem = Some(MemRef::load(value.addr()));
        }
        mov.srcs = [em.acc(), Tok::NONE];
        let dst = em.fresh();
        mov.dst = dst;
        em.raw(sink, mov);
        self.special_regs.mov_class_id(stored);

        if is_elements {
            let (holder_obj, hoisted) = elements_ctx.expect("elements ctx");
            match hoisted {
                Some(reg) => {
                    // regArrayObjectClassId[reg] was loaded outside the
                    // loop; nothing to emit here.
                    debug_assert_eq!(self.special_regs.array_class(reg), holder);
                }
                None => {
                    // movClassIDArray: load the holder's header.
                    let mut mca =
                        Uop::new(UopKind::MovClassIdArray, 0, cat, em.region());
                    mca.mem = Some(MemRef::load(holder_obj.addr()));
                    mca.dst = em.fresh();
                    em.raw(sink, mca);
                    self.special_regs.mov_class_id_array(0, holder);
                }
            }
            let mut st =
                Uop::new(UopKind::MovStoreClassCacheArray, 0, cat, em.region());
            st.mem = Some(MemRef::store(slot_addr));
            st.srcs = [em.acc(), dst];
            em.raw(sink, st);
        } else {
            let mut st = Uop::new(UopKind::MovStoreClassCache, 0, cat, em.region());
            st.mem = Some(MemRef::store(slot_addr));
            st.srcs = [em.acc(), dst];
            em.raw(sink, st);
        }

        let req = StoreRequest { holder, line, pos, stored };
        let (outcome, hit) = self.class_cache.store_request_timed(&req, &mut self.class_list);
        if !hit {
            // Class Cache miss: fetch the entry from the in-memory Class
            // List (like a TLB walk).
            let entry_addr = class_list_entry_addr(holder.raw(), line);
            em.chain_load(sink, entry_addr, cat);
            em.chain_load(sink, entry_addr + 8, cat);
        }
        if let StoreOutcome::Misspeculation(exc) = outcome {
            return self.handle_misspeculation(sink, &exc, current_func);
        }
        false
    }

    /// The subtree-aggregated monomorphism query used by the optimizer:
    /// slot `(line, pos)` introduced at `introducer` is monomorphic iff
    /// every map in `introducer`'s transition subtree agrees on one
    /// profiled class (uninitialized entries are fine), with at least one
    /// initialized entry. See DESIGN.md §4 for why the chain walk is
    /// needed.
    pub fn aggregated_monomorphic_class(
        &self,
        introducer: MapIx,
        line: u8,
        pos: u8,
    ) -> Option<ClassId> {
        let mut agreed: Option<ClassId> = None;
        for m in self.rt.maps.subtree(introducer) {
            let Some(cid) = self.rt.maps.get(m).class_id else {
                return None; // unprofiled map in the subtree: bail
            };
            if let Some(entry) = self.class_list.entry(cid, line) {
                let bit = 1u8 << pos;
                if entry.init_map & bit != 0 {
                    if entry.valid_map & bit == 0 {
                        return None;
                    }
                    let c = ClassId::new(entry.props[pos as usize]).unwrap_or(ClassId::SMI);
                    match agreed {
                        None => agreed = Some(c),
                        Some(prev) if prev == c => {}
                        Some(_) => return None,
                    }
                }
            }
        }
        agreed
    }

    /// Register a speculation on every map of the introducer's subtree
    /// (so any store that could break monomorphism raises the exception).
    /// Returns `false` (registering nothing) when the slot is not
    /// aggregately monomorphic.
    pub fn speculate_on(&mut self, introducer: MapIx, line: u8, pos: u8, func: u32) -> bool {
        let Some(class) = self.aggregated_monomorphic_class(introducer, line, pos) else {
            return false;
        };
        for m in self.rt.maps.subtree(introducer) {
            let Some(cid) = self.rt.maps.get(m).class_id else { return false };
            // Seed uninitialized entries with the agreed class so a
            // future first store of a different class is caught.
            let entry = self.class_list.entry_mut(cid, line);
            let bit = 1u8 << pos;
            if entry.init_map & bit == 0 {
                entry.init_map |= bit;
                entry.props[pos as usize] = class.raw();
            }
            let ok = self.class_list.speculate(cid, line, pos, FuncId(func));
            debug_assert!(ok, "slot was checked monomorphic");
        }
        true
    }
}

impl CompileEnv for Vm {
    fn intern(&mut self, name: &str) -> NameId {
        self.rt.names.intern(name)
    }

    fn global_ix(&mut self, name: &str) -> u32 {
        Vm::global_ix(self, name)
    }

    fn register_function(&mut self, decl: Rc<FuncDecl>) -> u32 {
        let ix = self.funcs.len() as u32;
        self.funcs.push(FunctionInfo {
            decl,
            bytecode: None,
            feedback: Vec::new(),
            invocations: 0,
            optimized: None,
            opt_disabled: false,
            deopt_count: 0,
            deopt_epoch: 0,
            is_main: false,
            initial_map: None,
            expected_lines: 1,
            expected_elem_kind: ElemKind::Smi,
            func_value: None,
            compiling: false,
        });
        ix
    }
}

fn store_cat(region: Region) -> Category {
    if region == Region::Optimized {
        Category::OtherOptimized
    } else {
        Category::RestOfCode
    }
}

/// Approximate µop cost (ALU, memory) of each builtin's native body.
pub fn builtin_cost(b: Builtin) -> (u64, u64) {
    use Builtin::*;
    match b {
        MathSqrt => (3, 1),
        MathAbs | MathFloor | MathCeil | MathRound => (3, 1),
        MathSin | MathCos | MathTan | MathAtan | MathAtan2 | MathPow | MathExp | MathLog => {
            (20, 2)
        }
        MathMin | MathMax => (4, 1),
        MathRandom => (6, 0),
        StringFromCharCode => (8, 2),
        CharCodeAt => (4, 2),
        CharAt => (8, 3),
        Substring => (20, 6),
        IndexOf => (30, 10),
        ArrayPush => (6, 2),
        ArrayPop => (5, 2),
        Print => (40, 10),
        ParseInt | ParseFloat => (25, 8),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use checkelide_isa::NullSink;

    #[test]
    fn vm_installs_globals() {
        let mut vm = Vm::new(EngineConfig::default());
        let math = vm.globals[vm.global_names["Math"] as usize];
        assert!(math.is_ptr());
        let sqrt_name = vm.rt.names.intern("sqrt");
        let map = vm.rt.object_map(math);
        assert!(vm.rt.maps.get(map).offset_of(sqrt_name).is_some());
        assert!(vm.global_names.contains_key("print"));
    }

    #[test]
    fn global_ix_is_stable() {
        let mut vm = Vm::new(EngineConfig::default());
        let a = Vm::global_ix(&mut vm, "foo");
        let b = Vm::global_ix(&mut vm, "foo");
        assert_eq!(a, b);
        assert_ne!(Vm::global_ix(&mut vm, "bar"), a);
    }

    #[test]
    fn aggregated_monomorphism_over_subtree() {
        let mut vm = Vm::new(EngineConfig::default());
        vm.config.mechanism = Mechanism::ProfileOnly;
        // root -> m1 (adds x at offset 1) -> m2 (adds y).
        let x = vm.rt.names.intern("x");
        let y = vm.rt.names.intern("y");
        let root = vm.rt.maps.new_constructor_root("T");
        let (m1, off_x) = vm.rt.maps.transition_add_prop(root, x);
        let (m2, _) = vm.rt.maps.transition_add_prop(m1, y);
        // Store of a SMI into x recorded under m1 (construction) …
        vm.silent_profile(m1, 0, off_x, Value::smi(1));
        // … is visible when querying from the introducer (m1) even though
        // live objects have map m2.
        assert_eq!(
            vm.aggregated_monomorphic_class(m1, 0, off_x as u8),
            Some(ClassId::SMI)
        );
        // A conflicting store under m2 kills it.
        let h = vm.rt.make_number(0.5);
        vm.silent_profile(m2, 0, off_x, h);
        assert_eq!(vm.aggregated_monomorphic_class(m1, 0, off_x as u8), None);
    }

    #[test]
    fn speculation_registers_across_subtree_and_detects_breaks() {
        let mut vm = Vm::new(EngineConfig::default());
        vm.config.mechanism = Mechanism::Full;
        let x = vm.rt.names.intern("x");
        let root = vm.rt.maps.new_constructor_root("T");
        let (m1, off_x) = vm.rt.maps.transition_add_prop(root, x);
        let (m2, _) = {
            let y = vm.rt.names.intern("y");
            vm.rt.maps.transition_add_prop(m1, y)
        };
        vm.silent_profile(m1, 0, off_x, Value::smi(1));
        assert!(vm.speculate_on(m1, 0, off_x as u8, 7));
        // A bad store arriving with the *descendant* class m2 must raise.
        let obj = vm.rt.alloc_object(m2, 1);
        let h = vm.rt.make_number(0.5);
        let mut sink = NullSink::new();
        let mut batch = BatchSink::new(&mut sink);
        let mut em = Emitter::new(Region::Optimized);
        let deopted =
            vm.store_property_profiled(&mut batch, &mut em, obj, m2, off_x, h, Some(7));
        assert!(deopted, "self-deopt signalled");
        assert_eq!(vm.stats.misspec_exceptions, 1);
    }

    #[test]
    fn off_mechanism_emits_plain_store_only() {
        let mut vm = Vm::new(EngineConfig::default());
        let root = vm.rt.maps.new_constructor_root("T");
        let obj = vm.rt.alloc_object(root, 1);
        let mut sink = checkelide_isa::trace::VecSink::new();
        let mut batch = BatchSink::new(&mut sink);
        let mut em = Emitter::new(Region::Baseline);
        em.at(0x1000);
        vm.store_property_profiled(&mut batch, &mut em, obj, root, 1, Value::smi(1), None);
        drop(batch);
        assert_eq!(sink.len(), 1);
        assert_eq!(sink.uops[0].kind, UopKind::Store);
        assert_eq!(vm.class_cache.stats().accesses, 0);
    }

    #[test]
    fn full_mechanism_emits_new_instructions_and_cache_traffic() {
        let mut vm = Vm::new(EngineConfig { mechanism: Mechanism::Full, ..Default::default() });
        let root = vm.rt.maps.new_constructor_root("T");
        let obj = vm.rt.alloc_object(root, 1);
        let mut sink = checkelide_isa::trace::VecSink::new();
        let mut batch = BatchSink::new(&mut sink);
        let mut em = Emitter::new(Region::Baseline);
        em.at(0x1000);
        vm.store_property_profiled(&mut batch, &mut em, obj, root, 1, Value::smi(1), None);
        drop(batch);
        let kinds: Vec<_> = sink.uops.iter().map(|u| u.kind).collect();
        assert!(kinds.contains(&UopKind::MovClassId));
        assert!(kinds.contains(&UopKind::MovStoreClassCache));
        assert_eq!(vm.class_cache.stats().accesses, 1);
        // First access misses: the Class List fetch emitted two loads.
        assert_eq!(kinds.iter().filter(|k| **k == UopKind::Load).count(), 2);
    }
}
