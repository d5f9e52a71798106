//! The optimized-code executor.
//!
//! Runs a function's bytecode under its specialization plans, performing
//! the operations directly (no inline-cache dispatch) and retiring the
//! µops the equivalent Crankshaft-generated machine code would: explicit
//! Check Map / Check SMI / Check Non-SMI operations where the plans kept
//! them, tag/untag traffic, math assumptions — and, in Full-mechanism
//! mode, `movStoreClassCache` stores verified by the Class Cache.
//!
//! Any check failure reconstructs the interpreter frame and bails out
//! (deoptimization, §3.2); misspeculation exceptions raised by this
//! function's own stores resume after the offending store (§4.2.2).

use crate::bbv::{BbvState, BlockVersion};
use crate::context::TypeCtx;
use crate::plan::*;
use checkelide_engine::bytecode::{Bc, BytecodeFunc};
use checkelide_engine::emit::{stubs, Emitter};
use checkelide_engine::vm::CODE_STRIDE;
use checkelide_engine::{
    DeoptReason, DeoptState, ExecResult, ExecScratch, Mechanism, OptimizedCode, Vm, VmError,
};
use checkelide_isa::layout::OPT_CODE_BASE;
use checkelide_isa::uop::{Category, MemRef, Provenance, Region, Tok, Uop, UopKind};
use checkelide_isa::BatchSink;
use checkelide_runtime::numops::{self, BitwiseOp, CmpOp};
use checkelide_runtime::{maps::fixed, Builtin, ElemKind, FuncRef, MapIx, Value};
use std::cell::RefCell;
use std::rc::Rc;

/// Optimized code for one function.
pub struct OptimizedBody {
    /// Function index.
    pub func: u32,
    /// The bytecode (shape source).
    pub bc: Rc<BytecodeFunc>,
    /// Per-op plans.
    pub plans: Vec<OpPlan>,
    /// Check sites removed thanks to the Class Cache profile.
    pub elided_sites: u32,
    /// Lazy block-version table, present when the engine runs with
    /// `EngineConfig::bbv`. `None` keeps the scalar plan-walking path
    /// (the differential reference) byte-identical to before.
    pub bbv: Option<RefCell<BbvState>>,
}

impl OptimizedCode for OptimizedBody {
    fn execute(
        &self,
        vm: &mut Vm,
        sink: &mut BatchSink<'_>,
        this: Value,
        args: &[Value],
    ) -> ExecResult {
        // Pull this activation's register file from the scratch pool —
        // four heap allocations per optimized call otherwise, a real
        // cost for small hot callees.
        let mut scratch = vm.exec_scratch.pop().unwrap_or_default();
        scratch.locals.clear();
        scratch.locals.resize(self.bc.n_locals as usize, vm.rt.odd.undefined);
        for (i, &a) in args.iter().take(self.bc.params as usize).enumerate() {
            scratch.locals[i] = a;
        }
        scratch.stack.clear();
        scratch.stoks.clear();
        scratch.ltoks.clear();
        scratch.ltoks.resize(self.bc.n_locals as usize, Tok::NONE);
        let mut ex = Exec {
            vm,
            body: self,
            this,
            locals: scratch.locals,
            stack: scratch.stack,
            stoks: scratch.stoks,
            ltoks: scratch.ltoks,
            em: Emitter::new(Region::Optimized),
            epoch: 0,
            hoist_active: [false; 4],
            code_base: OPT_CODE_BASE + self.func as u64 * CODE_STRIDE,
        };
        ex.epoch = ex.vm.deopt_epoch(self.func);
        let result = ex.run(sink);
        let Exec { vm, locals, stack, stoks, ltoks, .. } = ex;
        vm.exec_scratch.push(ExecScratch { locals, stack, stoks, ltoks });
        result
    }

    fn elided_check_sites(&self) -> u32 {
        self.elided_sites
    }
}

struct Exec<'a> {
    vm: &'a mut Vm,
    body: &'a OptimizedBody,
    this: Value,
    locals: Vec<Value>,
    stack: Vec<Value>,
    stoks: Vec<Tok>,
    ltoks: Vec<Tok>,
    em: Emitter,
    epoch: u32,
    hoist_active: [bool; 4],
    code_base: u64,
}

enum Flow {
    Next,
    Jump(usize),
    Return(Value),
    Deopt(DeoptState),
    Error(VmError),
}

impl<'a> Exec<'a> {
    fn push(&mut self, v: Value, t: Tok) {
        self.stack.push(v);
        self.stoks.push(t);
    }

    fn pop(&mut self) -> (Value, Tok) {
        (self.stack.pop().expect("opt stack"), self.stoks.pop().expect("opt toks"))
    }

    fn deopt(&mut self, pc: usize, operands: &[Value], reason: DeoptReason) -> Flow {
        let mut stack = self.stack.clone();
        stack.extend_from_slice(operands);
        Flow::Deopt(DeoptState {
            bc_pc: pc as u32,
            locals: self.locals.clone(),
            stack,
            reason,
        })
    }

    /// Deopt resuming *after* the current op, with `stack_extra` already
    /// pushed (used when the op completed before the bail reason arose).
    fn deopt_after(&mut self, pc: usize, stack_extra: &[Value], reason: DeoptReason) -> Flow {
        let mut stack = self.stack.clone();
        stack.extend_from_slice(stack_extra);
        Flow::Deopt(DeoptState {
            bc_pc: pc as u32 + 1,
            locals: self.locals.clone(),
            stack,
            reason,
        })
    }

    // ----- check µops -----

    fn emit_check_map(
        &mut self,
        sink: &mut BatchSink<'_>,
        v: Value,
        cat: Category,
        prov: Provenance,
    ) {
        if sink.discarding() {
            return;
        }
        // Check Map performs a memory access to fetch the hidden-class
        // identifier (§5.1), then compares and branches.
        let addr = if v.is_ptr() { v.addr() } else { self.code_base };
        let mut load = Uop::new(UopKind::Load, 0, cat, Region::Optimized);
        load.mem = Some(MemRef::load(addr));
        load.provenance = prov;
        load.srcs = [self.em.acc(), Tok::NONE];
        load.dst = self.em.fresh();
        self.em.raw(sink, load);
        let mut cmp = Uop::new(UopKind::Alu, 0, cat, Region::Optimized);
        cmp.provenance = prov;
        cmp.srcs = [load.dst, Tok::NONE];
        cmp.dst = self.em.fresh();
        self.em.raw(sink, cmp);
        let mut br = Uop::new(UopKind::Branch, 0, cat, Region::Optimized);
        br.provenance = prov;
        br.srcs = [cmp.dst, Tok::NONE];
        self.em.raw(sink, br);
    }

    fn emit_check_tag(&mut self, sink: &mut BatchSink<'_>, cat: Category, prov: Provenance) {
        if sink.discarding() {
            return;
        }
        let mut t = Uop::new(UopKind::Alu, 0, cat, Region::Optimized);
        t.provenance = prov;
        t.srcs = [self.em.acc(), Tok::NONE];
        t.dst = self.em.fresh();
        self.em.raw(sink, t);
        let mut br = Uop::new(UopKind::Branch, 0, cat, Region::Optimized);
        br.provenance = prov;
        br.srcs = [t.dst, Tok::NONE];
        self.em.raw(sink, br);
    }

    /// Execute a planned check; returns whether the value passes.
    fn run_check(
        &mut self,
        sink: &mut BatchSink<'_>,
        check: CheckKind,
        v: Value,
        cat: Category,
        prov: Provenance,
    ) -> bool {
        match check {
            CheckKind::None => true,
            CheckKind::Smi => {
                self.emit_check_tag(sink, cat, prov);
                v.is_smi()
            }
            CheckKind::NonSmi => {
                self.emit_check_tag(sink, cat, prov);
                v.is_ptr()
            }
            CheckKind::Map(m) => {
                self.emit_check_map(sink, v, cat, prov);
                v.is_ptr() && self.vm.rt.object_map(v) == m
            }
            CheckKind::Number => {
                self.emit_check_tag(sink, cat, prov);
                if v.is_smi() {
                    return true;
                }
                self.emit_check_map(sink, v, cat, prov);
                self.vm.rt.is_number(v)
            }
            CheckKind::HeapNumber => {
                self.emit_check_tag(sink, cat, prov);
                self.emit_check_map(sink, v, cat, prov);
                v.is_ptr() && self.vm.rt.is_number(v)
            }
            CheckKind::Str => {
                self.emit_check_tag(sink, cat, prov);
                self.emit_check_map(sink, v, cat, prov);
                v.is_ptr()
                    && matches!(self.vm.rt.kind_of(v), checkelide_runtime::VKind::Str)
            }
        }
    }

    /// Untag a number operand per its plan. Returns `None` when the check
    /// fails (caller deopts). Check µops in untag sequences belong to the
    /// Tags/Untags category (§3.3).
    fn untag_f64(
        &mut self,
        sink: &mut BatchSink<'_>,
        v: Value,
        plan: &OperandPlan,
    ) -> Option<f64> {
        if !self.run_check(sink, plan.check, v, Category::TagUntag, plan.provenance) {
            return None;
        }
        if v.is_smi() {
            self.em.chain(sink, UopKind::Alu, Category::TagUntag); // smi → double
            Some(v.as_smi() as f64)
        } else if self.vm.rt.is_number(v) {
            // Load the unboxed payload.
            self.em.chain_load(sink, v.addr() + 8, Category::TagUntag);
            Some(self.vm.rt.heap_number_value(v))
        } else {
            None
        }
    }

    /// Box a double result (tag).
    fn box_f64(&mut self, sink: &mut BatchSink<'_>, f: f64) -> Value {
        let v = self.vm.rt.make_number(f);
        if v.is_smi() {
            self.em.chain(sink, UopKind::Alu, Category::TagUntag);
        } else {
            // Inline allocation: bump + two stores.
            self.em.chain(sink, UopKind::Alu, Category::TagUntag);
            self.em.chain_store(sink, v.addr(), Category::TagUntag);
            self.em.chain_store(sink, v.addr() + 8, Category::TagUntag);
        }
        v
    }

    fn fix_relocation(&mut self, old: u64, new: u64) {
        self.vm.fix_roots(old, new);
        let old_v = Value::ptr(old);
        let new_v = Value::ptr(new);
        for v in self.locals.iter_mut().chain(self.stack.iter_mut()) {
            if *v == old_v {
                *v = new_v;
            }
        }
        if self.this == old_v {
            self.this = new_v;
        }
    }

    /// Call out of optimized code, keeping our frame visible to the GC and
    /// relocation fixups.
    fn call_out(
        &mut self,
        sink: &mut BatchSink<'_>,
        callee: Value,
        this: Value,
        args: &[Value],
    ) -> Result<Value, VmError> {
        self.vm.opt_frames.push(std::mem::take(&mut self.locals));
        self.vm.opt_frames.push(std::mem::take(&mut self.stack));
        let mut extra = vec![this, callee];
        extra.extend_from_slice(args);
        self.vm.opt_frames.push(extra);
        let r = self.vm.call_value(sink, callee, this, args);
        self.vm.opt_frames.pop();
        self.stack = self.vm.opt_frames.pop().expect("opt frame");
        self.locals = self.vm.opt_frames.pop().expect("opt frame");
        r
    }

    fn call_user_out(
        &mut self,
        sink: &mut BatchSink<'_>,
        func: u32,
        this: Value,
        args: &[Value],
    ) -> Result<Value, VmError> {
        self.vm.opt_frames.push(std::mem::take(&mut self.locals));
        self.vm.opt_frames.push(std::mem::take(&mut self.stack));
        let mut extra = vec![this];
        extra.extend_from_slice(args);
        self.vm.opt_frames.push(extra);
        let r = self.vm.call_user(sink, func, this, args);
        self.vm.opt_frames.pop();
        self.stack = self.vm.opt_frames.pop().expect("opt frame");
        self.locals = self.vm.opt_frames.pop().expect("opt frame");
        r
    }

    fn epoch_bumped(&self) -> bool {
        self.vm.deopt_epoch(self.body.func) != self.epoch
    }

    #[allow(clippy::too_many_lines)]
    fn run(&mut self, sink: &mut BatchSink<'_>) -> ExecResult {
        // Reborrow the shared body through the copied `&'a` reference so
        // per-op plans can be passed to the handlers by reference while
        // `self` stays mutably borrowable: no per-op `OpPlan` clones (the
        // property/call plans own `Vec`s, so cloning them per dynamic
        // operation was a heap allocation on the hottest path).
        let body = self.body;
        let bc: &BytecodeFunc = &body.bc;
        let mut pc = 0usize;
        // BBV: the current block version. Entered at pc 0 with the
        // context observed from the activation's concrete `this` and
        // arguments (entry-point specialization); every later block
        // transition follows the predecessor's memoized out-edge to the
        // successor leader. The `Rc` is cloned out of the version
        // table so no `RefCell` borrow is held while ops execute
        // (nested activations of the same function re-enter it).
        let mut cur: Option<Rc<BlockVersion>> = match &body.bbv {
            Some(cell) => {
                let ctx = TypeCtx::entry(
                    self.vm,
                    bc.n_locals as usize,
                    bc.params as usize,
                    self.this,
                    &self.locals[..(bc.params as usize).min(self.locals.len())],
                );
                Some(cell.borrow_mut().version(self.vm, body.func, bc, 0, &ctx))
            }
            None => None,
        };
        loop {
            if self.vm.steps_remaining == 0 {
                return ExecResult::Error(VmError::new(checkelide_engine::STEP_BUDGET_MSG));
            }
            self.vm.steps_remaining -= 1;
            self.em.at(self.code_base + pc as u64 * 64);
            let flow = match &cur {
                Some(v) => self.step(sink, bc, &v.plans[pc - v.leader], pc),
                None => self.step(sink, bc, &body.plans[pc], pc),
            };
            match flow {
                Flow::Next => {
                    pc += 1;
                    if let Some(v) = &cur {
                        if pc > v.end {
                            cur = Some(self.enter_block(v, pc));
                        }
                    }
                }
                Flow::Jump(t) => {
                    pc = t;
                    if let Some(v) = &cur {
                        cur = Some(self.enter_block(v, pc));
                    }
                }
                Flow::Return(v) => return ExecResult::Return(v),
                Flow::Deopt(state) => return ExecResult::Deopt(state),
                Flow::Error(e) => return ExecResult::Error(e),
            }
        }
    }

    /// BBV: the version of the block at `pc` that control enters on
    /// leaving version `from` (its out-edge, resolved once then memoized).
    fn enter_block(&mut self, from: &BlockVersion, pc: usize) -> Rc<BlockVersion> {
        let cell = self.body.bbv.as_ref().expect("bbv state");
        cell.borrow_mut().successor(self.vm, self.body.func, &self.body.bc, from, pc)
    }

    #[allow(clippy::too_many_lines)]
    fn step(
        &mut self,
        sink: &mut BatchSink<'_>,
        bc: &BytecodeFunc,
        plan: &OpPlan,
        pc: usize,
    ) -> Flow {
        let op = bc.code[pc];
        if matches!(plan, OpPlan::ColdDeopt) {
            return self.cold_deopt(pc);
        }
        match op {
            Bc::LdaSmi(n) => {
                let t = self.em.fresh();
                self.push(Value::smi(n), t);
            }
            Bc::LdaNum(f) => {
                let v = self.vm.rt.double_constant(f);
                let t = self.em.root(sink, UopKind::Move, Category::OtherOptimized);
                self.push(v, t);
            }
            Bc::LdaStr(ix) => {
                let v = self.vm.rt.string_value(&bc.strings[ix as usize]);
                let t = self.em.root(sink, UopKind::Move, Category::OtherOptimized);
                self.push(v, t);
            }
            Bc::LdaTrue => {
                let v = self.vm.rt.odd.true_v;
                self.push(v, Tok::NONE);
            }
            Bc::LdaFalse => {
                let v = self.vm.rt.odd.false_v;
                self.push(v, Tok::NONE);
            }
            Bc::LdaNull => {
                let v = self.vm.rt.odd.null;
                self.push(v, Tok::NONE);
            }
            Bc::LdaUndef => {
                let v = self.vm.rt.odd.undefined;
                self.push(v, Tok::NONE);
            }
            Bc::LdaThis => {
                let (v, t) = (self.this, Tok::NONE);
                self.push(v, t);
            }
            Bc::LdaFunc(ix) => {
                let v = self.vm.function_value(ix);
                let t = self.em.root(sink, UopKind::Move, Category::OtherOptimized);
                self.push(v, t);
            }
            Bc::LdLocal(i) => {
                let (v, t) = (self.locals[i as usize], self.ltoks[i as usize]);
                self.push(v, t);
            }
            Bc::StLocal(i) => {
                let (v, t) = self.pop();
                self.locals[i as usize] = v;
                self.ltoks[i as usize] = t;
            }
            Bc::LdGlobal(g) => {
                let v = self.vm.globals[g as usize];
                let t = self.em.root_load(sink, Vm::global_addr(g), Category::OtherOptimized);
                self.push(v, t);
            }
            Bc::StGlobal(g) => {
                let (v, t) = self.pop();
                self.em.set_acc(t);
                self.em.chain_store(sink, Vm::global_addr(g), Category::OtherOptimized);
                self.vm.globals[g as usize] = v;
            }
            Bc::Jump(t) => {
                self.em.jump(sink, Category::OtherOptimized);
                return Flow::Jump(t as usize);
            }
            Bc::JumpIfFalse(t) | Bc::JumpIfTrue(t) => {
                let (v, vt) = self.pop();
                self.em.set_acc(vt);
                let truthy = self.vm.rt.is_truthy(v);
                if !(v.is_smi()
                    || matches!(self.vm.rt.kind_of(v), checkelide_runtime::VKind::Bool(_)))
                {
                    self.em.chain(sink, UopKind::Alu, Category::OtherOptimized);
                }
                self.em.chain(sink, UopKind::Alu, Category::OtherOptimized);
                let jif = matches!(op, Bc::JumpIfFalse(_));
                let taken = if jif { !truthy } else { truthy };
                self.em.chain_branch(sink, taken, Category::OtherOptimized);
                if taken {
                    return Flow::Jump(t as usize);
                }
            }
            Bc::Dup => {
                let (v, t) = self.pop();
                self.push(v, t);
                self.push(v, t);
            }
            Bc::Pop => {
                self.pop();
            }
            Bc::Not => {
                let (v, vt) = self.pop();
                self.em.set_acc(vt);
                let truthy = self.vm.rt.is_truthy(v);
                let t = self.em.chain(sink, UopKind::Alu, Category::OtherOptimized);
                let b = self.vm.rt.bool_value(!truthy);
                self.push(b, t);
            }
            Bc::Return => {
                let (v, _) = self.pop();
                self.em.jump(sink, Category::OtherOptimized);
                return Flow::Return(v);
            }
            Bc::ReturnUndef => {
                self.em.jump(sink, Category::OtherOptimized);
                let u = self.vm.rt.odd.undefined;
                return Flow::Return(u);
            }
            Bc::LoopHead => {
                let hoists = match plan {
                    OpPlan::LoopHead(lp) => &lp.hoists[..],
                    _ => &[],
                };
                return self.do_loop_head(sink, hoists, pc);
            }
            Bc::GetProp(name, _) => {
                let p = match plan {
                    OpPlan::GetProp(p) => Some(p),
                    _ => None,
                };
                return self.do_get_prop(sink, p, name, pc);
            }
            Bc::SetProp(name, _) => {
                let p = match plan {
                    OpPlan::SetProp(p) => Some(p),
                    _ => None,
                };
                return self.do_set_prop(sink, p, name, pc);
            }
            Bc::GetElem(_) => {
                let p = match plan {
                    OpPlan::GetElem(p) => Some(p),
                    _ => None,
                };
                return self.do_get_elem(sink, p, pc);
            }
            Bc::SetElem(_) => {
                let p = match plan {
                    OpPlan::SetElem(p) => Some(p),
                    _ => None,
                };
                return self.do_set_elem(sink, p, pc);
            }
            Bc::Add(_) | Bc::Sub(_) | Bc::Mul(_) | Bc::Div(_) | Bc::Mod(_) | Bc::BitAnd(_)
            | Bc::BitOr(_) | Bc::BitXor(_) | Bc::Shl(_) | Bc::Sar(_) | Bc::Shr(_)
            | Bc::TestLt(_) | Bc::TestLe(_) | Bc::TestGt(_) | Bc::TestGe(_) | Bc::TestEq(_)
            | Bc::TestNe(_) | Bc::TestStrictEq(_) | Bc::TestStrictNe(_) => {
                let p = match plan {
                    OpPlan::Bin(p) => Some(p),
                    _ => None,
                };
                return self.do_binary(sink, p, op, pc);
            }
            Bc::Neg(_) | Bc::BitNot(_) => {
                let p = match plan {
                    OpPlan::Bin(p) => Some(p),
                    _ => None,
                };
                return self.do_unary(sink, p, op, pc);
            }
            Bc::Call(argc, _) => {
                let known = match plan {
                    OpPlan::Call(c) => c.known,
                    _ => None,
                };
                return self.do_call(sink, known, argc, pc);
            }
            Bc::CallMethod(name, argc, _) => {
                let p = match plan {
                    OpPlan::CallMethod(m) => Some(m),
                    _ => None,
                };
                return self.do_call_method(sink, p, name, argc, pc);
            }
            Bc::New(argc, _) => {
                let ctor = match plan {
                    OpPlan::New(n) => n.ctor,
                    _ => None,
                };
                return self.do_new(sink, ctor, argc, pc);
            }
            Bc::NewObject => {
                self.do_new_object(sink);
            }
            Bc::NewArray(n) => {
                return self.do_new_array(sink, n, pc);
            }
        }
        Flow::Next
    }

    /// Reconstruct operand-count for a cold-deopt (operands stay on the
    /// reconstructed stack; the interpreter re-executes the op).
    fn cold_deopt(&mut self, pc: usize) -> Flow {
        Flow::Deopt(DeoptState {
            bc_pc: pc as u32,
            locals: self.locals.clone(),
            stack: self.stack.clone(),
            reason: DeoptReason::Generic,
        })
    }

    fn do_new_object(&mut self, sink: &mut BatchSink<'_>) {
        // Inline allocation.
        for _ in 0..4 {
            self.em.chain(sink, UopKind::Alu, Category::OtherOptimized);
        }
        let v = self.vm.rt.alloc_object(fixed::OBJECT_LITERAL_ROOT, 1);
        self.em.chain_store(sink, v.addr(), Category::OtherOptimized);
        let t = self.em.fresh();
        self.push(v, t);
    }

    fn do_new_array(&mut self, sink: &mut BatchSink<'_>, n: u16, pc: usize) -> Flow {
        for _ in 0..5 {
            self.em.chain(sink, UopKind::Alu, Category::OtherOptimized);
        }
        let mut items = Vec::with_capacity(n as usize);
        for _ in 0..n {
            items.push(self.pop().0);
        }
        items.reverse();
        let arr = self.vm.rt.alloc_object(fixed::ARRAY_ROOT, 1);
        self.push(arr, Tok::NONE); // root during boxing stores
        // A self-deopt raised mid-literal (kind transition or profiled
        // store) must not abandon the remaining stores: the array is
        // fully constructed first, then we bail after the op (the
        // partial-side-effect rule — see DESIGN.md, "Guard & deopt
        // contract").
        let mut bail = false;
        for (i, &v) in items.iter().enumerate() {
            let st = self.vm.rt.store_element(arr, i as i64, v);
            if let Some(nm) = st.transitioned {
                bail |= self.vm.note_kind_transition(sink, nm, Some(self.body.func));
            }
            let map_after = self.vm.rt.object_map(arr);
            bail |= self.vm.store_element_profiled(
                sink,
                &mut self.em,
                arr,
                map_after,
                st.kind,
                st.slot_addr,
                v,
                Some(self.body.func),
                None,
            );
        }
        let (arr, t) = self.pop();
        if bail {
            return self.deopt_after(pc, &[arr], DeoptReason::Invalidated);
        }
        self.push(arr, t);
        Flow::Next
    }

    fn do_loop_head(
        &mut self,
        sink: &mut BatchSink<'_>,
        hoists: &[(u16, usize)],
        pc: usize,
    ) -> Flow {
        if self.vm.gc_due() {
            // Root the suspended frame only when a collection will run:
            // unconditionally cloning locals+stack here was two heap
            // allocations per loop iteration in steady state.
            self.vm.opt_frames.push(std::mem::take(&mut self.locals));
            self.vm.opt_frames.push(std::mem::take(&mut self.stack));
            self.vm.gc_safepoint(sink, &[self.this], &[]);
            self.stack = self.vm.opt_frames.pop().expect("opt frame");
            self.locals = self.vm.opt_frames.pop().expect("opt frame");
        }
        // Interrupt/epoch guard.
        self.em.chain_load(sink, stubs::DEOPT + 0x80, Category::OtherOptimized);
        self.em.chain_branch(sink, false, Category::OtherOptimized);
        if self.epoch_bumped() {
            return self.deopt(pc, &[], DeoptReason::Invalidated);
        }
        for &(local, reg) in hoists {
            let v = self.locals[local as usize];
            let active = v.is_ptr()
                && matches!(self.vm.rt.kind_of(v), checkelide_runtime::VKind::Object)
                && self.vm.rt.class_id_of_value(v).is_some();
            if active && self.vm.config.mechanism == Mechanism::Full {
                let mut mca = Uop::new(
                    UopKind::MovClassIdArray,
                    0,
                    Category::OtherOptimized,
                    Region::Optimized,
                );
                mca.mem = Some(MemRef::load(v.addr()));
                mca.dst = self.em.fresh();
                self.em.raw(sink, mca);
                let cid = self.vm.rt.class_id_of_value(v).expect("checked");
                self.vm.special_regs.mov_class_id_array(reg, cid);
                self.hoist_active[reg] = true;
            } else {
                self.hoist_active[reg] = false;
            }
        }
        Flow::Next
    }

    fn do_get_prop(
        &mut self,
        sink: &mut BatchSink<'_>,
        plan: Option<&GetPropPlan>,
        name: checkelide_runtime::NameId,
        pc: usize,
    ) -> Flow {
        let (recv, rt_) = self.pop();
        self.em.set_acc(rt_);
        let Some(p) = plan else {
            return self.generic_get_prop(sink, recv, name, pc);
        };
        if p.string_length {
            if p.recv_check_needed
                && !self.run_check(sink, CheckKind::Str, recv, Category::Check, p.recv_provenance)
            {
                return self.deopt(pc, &[recv], DeoptReason::CheckMap);
            }
            if !(recv.is_ptr()
                && matches!(self.vm.rt.kind_of(recv), checkelide_runtime::VKind::Str))
            {
                return self.deopt(pc, &[recv], DeoptReason::CheckMap);
            }
            let len = self.vm.rt.strings.len(self.vm.rt.str_id(recv)) as i32;
            let t = self.em.chain_load(sink, recv.addr() + 8, Category::OtherOptimized);
            self.push(Value::smi(len), t);
            return Flow::Next;
        }
        // Receiver dispatch.
        let actual = if recv.is_ptr()
            && matches!(self.vm.rt.kind_of(recv), checkelide_runtime::VKind::Object)
        {
            Some(self.vm.rt.object_map(recv))
        } else {
            None
        };
        let matched = actual.and_then(|m| p.cases.iter().position(|c| c.map == m));
        if p.recv_check_needed {
            // One map load, then a compare+branch per tried case.
            self.emit_check_map(sink, recv, Category::Check, p.recv_provenance);
            let tried = matched.unwrap_or(p.cases.len().saturating_sub(1));
            for _ in 0..tried {
                let mut cmp = Uop::new(UopKind::Alu, 0, Category::Check, Region::Optimized);
                cmp.provenance = p.recv_provenance;
                self.em.raw(sink, cmp);
                let mut br = Uop::new(UopKind::Branch, 0, Category::Check, Region::Optimized);
                br.provenance = p.recv_provenance;
                br.taken = true;
                self.em.raw(sink, br);
            }
        }
        let Some(cix) = matched else {
            return self.deopt(pc, &[recv], DeoptReason::CheckMap);
        };
        let case = p.cases[cix];
        if p.length_path {
            let len = self.vm.rt.elements_length(recv);
            let t = self.em.chain_load(
                sink,
                recv.addr() + 8 * checkelide_runtime::maps::ELEMENTS_LEN_WORD as u64,
                Category::OtherOptimized,
            );
            self.push(Value::smi(len as i32), t);
            return Flow::Next;
        }
        self.vm.note_line_access(case.offset);
        if self.vm.config.mechanism.profiles() {
            if let Some(cid) = self.vm.rt.maps.get(case.map).class_id {
                self.vm.load_stats.record_property_load(
                    cid,
                    (case.offset / 8) as u8,
                    (case.offset % 8) as u8,
                );
            }
        }
        let v = self.vm.rt.load_slot(recv, case.offset);
        let t = self.em.chain_load(
            sink,
            self.vm.rt.slot_addr(recv, case.offset),
            Category::OtherOptimized,
        );
        self.push(v, t);
        Flow::Next
    }

    fn generic_get_prop(
        &mut self,
        sink: &mut BatchSink<'_>,
        recv: Value,
        name: checkelide_runtime::NameId,
        pc: usize,
    ) -> Flow {
        // Megamorphic IC call inside optimized code.
        self.em.stub_call(sink, stubs::IC_MISS, 12, 4);
        use checkelide_runtime::VKind;
        if recv.is_smi() {
            let u = self.vm.rt.odd.undefined;
            let t = self.em.fresh();
            self.push(u, t);
            return Flow::Next;
        }
        match self.vm.rt.kind_of(recv) {
            VKind::Object => {
                let map = self.vm.rt.object_map(recv);
                let v = match self.vm.rt.maps.get(map).offset_of(name) {
                    Some(off) => self.vm.rt.load_slot(recv, off),
                    None => {
                        if self.vm.rt.names.text(name) == "length" {
                            Value::smi(self.vm.rt.elements_length(recv) as i32)
                        } else {
                            self.vm.rt.odd.undefined
                        }
                    }
                };
                let t = self.em.fresh();
                self.push(v, t);
                Flow::Next
            }
            VKind::Str => {
                let v = if self.vm.rt.names.text(name) == "length" {
                    Value::smi(self.vm.rt.strings.len(self.vm.rt.str_id(recv)) as i32)
                } else {
                    self.vm.rt.odd.undefined
                };
                let t = self.em.fresh();
                self.push(v, t);
                Flow::Next
            }
            VKind::Null | VKind::Undefined => {
                // The interpreter reports the error with full context.
                self.deopt(pc, &[recv], DeoptReason::Generic)
            }
            _ => {
                let u = self.vm.rt.odd.undefined;
                let t = self.em.fresh();
                self.push(u, t);
                Flow::Next
            }
        }
    }

    fn do_set_prop(
        &mut self,
        sink: &mut BatchSink<'_>,
        plan: Option<&SetPropPlan>,
        name: checkelide_runtime::NameId,
        pc: usize,
    ) -> Flow {
        let (value, vt) = self.pop();
        let (recv, rt_) = self.pop();
        self.em.set_acc(rt_);
        let Some(p) = plan else {
            // Megamorphic store: runtime-dispatched IC inside optimized
            // code (no deopt — a deopt here would recur every call).
            return self.generic_set_prop(sink, recv, value, vt, name, pc);
        };
        let actual = if recv.is_ptr()
            && matches!(self.vm.rt.kind_of(recv), checkelide_runtime::VKind::Object)
        {
            Some(self.vm.rt.object_map(recv))
        } else {
            None
        };
        let matched = actual.and_then(|m| p.cases.iter().position(|c| c.0 == m));
        if p.recv_check_needed {
            self.emit_check_map(sink, recv, Category::Check, p.recv_provenance);
            let tried = matched.unwrap_or(p.cases.len().saturating_sub(1));
            for _ in 0..tried {
                let cmp = Uop::new(UopKind::Alu, 0, Category::Check, Region::Optimized);
                self.em.raw(sink, cmp);
                let mut br = Uop::new(UopKind::Branch, 0, Category::Check, Region::Optimized);
                br.taken = true;
                self.em.raw(sink, br);
            }
        }
        let Some(cix) = matched else {
            return self.deopt(pc, &[recv, value], DeoptReason::CheckMap);
        };
        let (_, case, profiled) = p.cases[cix];
        let mut pre_deopt = false;
        let (obj, value, offset, map_after) = match case {
            SetPropCase::Store { offset } => (recv, value, offset, self.vm.rt.object_map(recv)),
            SetPropCase::Transition { new_map, offset } => {
                // Inline transition: rewrite header(s), possibly relocate.
                self.em.chain(sink, UopKind::Alu, Category::OtherOptimized);
                self.em.chain_store(sink, recv.addr(), Category::OtherOptimized);
                let old_map = self.vm.rt.object_map(recv);
                // A self-deopt here still completes the store first (the
                // transition is already applied); we bail after the op.
                pre_deopt =
                    self.vm.note_map_transition(sink, old_map, Some(self.body.func));
                let add = self.vm.rt.add_property(recv, name);
                debug_assert_eq!(add.new_map, new_map);
                debug_assert_eq!(add.offset, offset);
                let (obj, value) = match add.relocated {
                    Some((old, new)) => {
                        self.em.stub_call(sink, stubs::TRANSITION, 20, 8);
                        self.fix_relocation(old, new);
                        let fix = |v: Value| {
                            if v.is_ptr() && v.addr() == old {
                                Value::ptr(new)
                            } else {
                                v
                            }
                        };
                        (fix(recv), fix(value))
                    }
                    None => (recv, value),
                };
                (obj, value, add.offset, add.new_map)
            }
        };
        self.vm.note_line_access(offset);
        self.vm.rt.store_slot(obj, offset, value);
        self.em.set_acc(vt);
        let self_deopt = match self.vm.config.mechanism {
            Mechanism::Full if !profiled => {
                let addr = self.vm.rt.slot_addr(obj, offset);
                self.em.chain_store(sink, addr, Category::OtherOptimized);
                false
            }
            _ => self.vm.store_property_profiled(
                sink,
                &mut self.em,
                obj,
                map_after,
                offset,
                value,
                Some(self.body.func),
            ),
        };
        if self_deopt || pre_deopt {
            return self.deopt_after(pc, &[value], DeoptReason::Invalidated);
        }
        self.push(value, vt);
        Flow::Next
    }

    fn do_get_elem(
        &mut self,
        sink: &mut BatchSink<'_>,
        plan: Option<&GetElemPlan>,
        pc: usize,
    ) -> Flow {
        let (ix, _it) = self.pop();
        let (recv, rt_) = self.pop();
        self.em.set_acc(rt_);
        let Some(p) = plan else {
            return self.generic_get_elem(sink, recv, ix, pc);
        };
        if p.recv_check_needed {
            self.emit_check_map(sink, recv, Category::Check, p.recv_provenance);
        }
        let actual_map = if recv.is_ptr()
            && matches!(self.vm.rt.kind_of(recv), checkelide_runtime::VKind::Object)
        {
            Some(self.vm.rt.object_map(recv))
        } else {
            None
        };
        let matched = actual_map.is_some_and(|m| {
            if m == p.map {
                return true;
            }
            // Polymorphic alternatives (warm-up generations): extra
            // compare+branch per tried case.
            for (alt_map, _) in &p.alt {
                let cmp = Uop::new(UopKind::Alu, 0, Category::Check, Region::Optimized);
                self.em.raw(sink, cmp);
                let mut br = Uop::new(UopKind::Branch, 0, Category::Check, Region::Optimized);
                br.taken = true;
                self.em.raw(sink, br);
                if m == *alt_map {
                    return true;
                }
            }
            false
        });
        if !matched {
            return self.deopt(pc, &[recv, ix], DeoptReason::CheckMap);
        }
        if !self.run_check(sink, p.index_check, ix, Category::Check, Provenance::None) {
            return self.deopt(pc, &[recv, ix], DeoptReason::CheckSmi);
        }
        if !ix.is_smi() || ix.as_smi() < 0 {
            return self.deopt(pc, &[recv, ix], DeoptReason::Elements);
        }
        let i = ix.as_smi() as i64;
        // Bounds check.
        self.em.chain_load(
            sink,
            recv.addr() + 8 * checkelide_runtime::maps::ELEMENTS_LEN_WORD as u64,
            Category::OtherOptimized,
        );
        self.em.chain(sink, UopKind::Alu, Category::OtherOptimized);
        self.em
            .chain_branch(sink, false, Category::OtherOptimized);
        if i >= self.vm.rt.elements_length(recv) as i64 {
            return self.deopt(pc, &[recv, ix], DeoptReason::Elements);
        }
        let ld = self.vm.rt.load_element(recv, i);
        if self.vm.config.mechanism.profiles() && ld.kind == ElemKind::Tagged {
            if let Some(cid) = actual_map.and_then(|m| self.vm.rt.maps.get(m).class_id) {
                self.vm.load_stats.record_elements_load(cid);
            }
        }
        let t = self.em.chain_load(sink, ld.slot_addr, Category::OtherOptimized);
        let (v, t) = if ld.boxed_double {
            let f = self.vm.rt.to_f64(ld.value);
            let b = self.box_f64(sink, f);
            (b, self.em.acc())
        } else {
            (ld.value, t)
        };
        self.push(v, t);
        Flow::Next
    }

    fn do_set_elem(
        &mut self,
        sink: &mut BatchSink<'_>,
        plan: Option<&SetElemPlan>,
        pc: usize,
    ) -> Flow {
        let (value, vt) = self.pop();
        let (ix, _it) = self.pop();
        let (recv, rt_) = self.pop();
        self.em.set_acc(rt_);
        let Some(p) = plan else {
            return self.generic_set_elem(sink, recv, ix, value, vt, pc);
        };
        if p.recv_check_needed {
            self.emit_check_map(sink, recv, Category::Check, p.recv_provenance);
        }
        let actual_map = if recv.is_ptr()
            && matches!(self.vm.rt.kind_of(recv), checkelide_runtime::VKind::Object)
        {
            Some(self.vm.rt.object_map(recv))
        } else {
            None
        };
        let matched = actual_map.is_some_and(|m| {
            if m == p.map {
                return true;
            }
            for (alt_map, _) in &p.alt {
                let cmp = Uop::new(UopKind::Alu, 0, Category::Check, Region::Optimized);
                self.em.raw(sink, cmp);
                let mut br = Uop::new(UopKind::Branch, 0, Category::Check, Region::Optimized);
                br.taken = true;
                self.em.raw(sink, br);
                if m == *alt_map {
                    return true;
                }
            }
            false
        });
        if !matched {
            return self.deopt(pc, &[recv, ix, value], DeoptReason::CheckMap);
        }
        if !self.run_check(sink, p.index_check, ix, Category::Check, Provenance::None) {
            return self.deopt(pc, &[recv, ix, value], DeoptReason::CheckSmi);
        }
        if !ix.is_smi() || ix.as_smi() < 0 {
            return self.deopt(pc, &[recv, ix, value], DeoptReason::Elements);
        }
        // Elements-kind guard on the stored value.
        if !self.run_check(sink, p.value_check, value, Category::Check, Provenance::None) {
            return self.deopt(pc, &[recv, ix, value], DeoptReason::Elements);
        }
        // Shadow-verify the guard actually holds (kind transition needed
        // otherwise).
        let needs_kind = match self.vm.rt.kind_of(value) {
            checkelide_runtime::VKind::Smi => ElemKind::Smi,
            checkelide_runtime::VKind::Number => ElemKind::Double,
            _ => ElemKind::Tagged,
        };
        let actual_kind = actual_map
            .map(|m| self.vm.rt.maps.get(m).elements_kind)
            .unwrap_or(p.kind);
        let kind_ok = matches!(
            (actual_kind, needs_kind),
            (ElemKind::Smi, ElemKind::Smi)
                | (ElemKind::Double, ElemKind::Smi | ElemKind::Double)
                | (ElemKind::Tagged, _)
        );
        if !kind_ok {
            return self.deopt(pc, &[recv, ix, value], DeoptReason::Elements);
        }
        let i = ix.as_smi() as i64;
        // Bounds / growth.
        self.em.chain_load(
            sink,
            recv.addr() + 8 * checkelide_runtime::maps::ELEMENTS_LEN_WORD as u64,
            Category::OtherOptimized,
        );
        self.em.chain(sink, UopKind::Alu, Category::OtherOptimized);
        self.em.chain_branch(sink, false, Category::OtherOptimized);
        let st = self.vm.rt.store_element(recv, i, value);
        debug_assert!(st.transitioned.is_none(), "kind guard prevents transitions");
        if st.grew {
            self.em.stub_call(sink, stubs::ELEMS_SLOW, 25, 10);
        }
        self.em.set_acc(vt);
        let hoisted = p.hoisted_reg.filter(|&r| self.hoist_active[r]);
        let self_deopt = match self.vm.config.mechanism {
            Mechanism::Full if !p.profiled => {
                self.em.chain_store(sink, st.slot_addr, Category::OtherOptimized);
                false
            }
            _ => self.vm.store_element_profiled(
                sink,
                &mut self.em,
                recv,
                actual_map.unwrap_or(p.map),
                st.kind,
                st.slot_addr,
                value,
                Some(self.body.func),
                hoisted,
            ),
        };
        if self_deopt {
            return self.deopt_after(pc, &[value], DeoptReason::Invalidated);
        }
        self.push(value, vt);
        Flow::Next
    }

    #[allow(clippy::too_many_lines)]
    fn do_binary(
        &mut self,
        sink: &mut BatchSink<'_>,
        plan: Option<&BinPlan>,
        op: Bc,
        pc: usize,
    ) -> Flow {
        let (rhs, _rt) = self.pop();
        let (lhs, lt_) = self.pop();
        self.em.set_acc(lt_);
        let Some(p) = plan else {
            // No feedback-specialized plan: generic stub.
            self.em.stub_call(sink, stubs::BINOP_SLOW, 15, 4);
            let v = self.eval_generic_binop(op, lhs, rhs);
            let t = self.em.fresh();
            self.push(v, t);
            return Flow::Next;
        };
        let is_cmp = matches!(
            op,
            Bc::TestLt(_)
                | Bc::TestLe(_)
                | Bc::TestGt(_)
                | Bc::TestGe(_)
                | Bc::TestEq(_)
                | Bc::TestNe(_)
                | Bc::TestStrictEq(_)
                | Bc::TestStrictNe(_)
        );
        match p.mode {
            NumMode::Smi => {
                if !self.run_check(sink, p.lhs.check, lhs, Category::Check, p.lhs.provenance)
                    || !lhs.is_smi()
                {
                    return self.deopt(pc, &[lhs, rhs], DeoptReason::CheckSmi);
                }
                if !self.run_check(sink, p.rhs.check, rhs, Category::Check, p.rhs.provenance)
                    || !rhs.is_smi()
                {
                    return self.deopt(pc, &[lhs, rhs], DeoptReason::CheckSmi);
                }
                let (a, b) = (lhs.as_smi(), rhs.as_smi());
                if is_cmp {
                    let r = self.eval_smi_cmp(op, a, b);
                    self.em.chain(sink, UopKind::Alu, Category::OtherOptimized);
                    let t = self.em.chain(sink, UopKind::Alu, Category::OtherOptimized);
                    let bv = self.vm.rt.bool_value(r);
                    self.push(bv, t);
                    return Flow::Next;
                }
                match self.eval_smi_arith(sink, op, a, b) {
                    Some((v, t)) => {
                        self.push(v, t);
                        Flow::Next
                    }
                    None => self.deopt(pc, &[lhs, rhs], DeoptReason::Overflow),
                }
            }
            NumMode::Double => {
                let Some(a) = self.untag_f64(sink, lhs, &p.lhs) else {
                    return self.deopt(pc, &[lhs, rhs], DeoptReason::CheckNonSmi);
                };
                let Some(b) = self.untag_f64(sink, rhs, &p.rhs) else {
                    return self.deopt(pc, &[lhs, rhs], DeoptReason::CheckNonSmi);
                };
                if is_cmp {
                    let r = self.eval_f64_cmp(op, a, b, lhs, rhs);
                    let t = self.em.chain(sink, UopKind::FpAdd, Category::OtherOptimized);
                    let bv = self.vm.rt.bool_value(r);
                    self.push(bv, t);
                    return Flow::Next;
                }
                let (f, kind) = match op {
                    Bc::Add(_) => (a + b, UopKind::FpAdd),
                    Bc::Sub(_) => (a - b, UopKind::FpAdd),
                    Bc::Mul(_) => (a * b, UopKind::FpMul),
                    Bc::Div(_) => (a / b, UopKind::FpDiv),
                    Bc::Mod(_) => (a % b, UopKind::FpDiv),
                    _ => unreachable!("double mode on non-arith op"),
                };
                self.em.chain(sink, kind, Category::OtherOptimized);
                let v = self.box_f64(sink, f);
                let t = self.em.acc();
                self.push(v, t);
                Flow::Next
            }
            NumMode::Str => {
                self.em.stub_call(sink, stubs::STRINGS, 30, 10);
                let (v, _) = numops::add(&mut self.vm.rt, lhs, rhs);
                let t = self.em.fresh();
                self.push(v, t);
                Flow::Next
            }
            NumMode::Generic => {
                self.em.stub_call(sink, stubs::BINOP_SLOW, 15, 4);
                let v = self.eval_generic_binop(op, lhs, rhs);
                let t = self.em.fresh();
                self.push(v, t);
                Flow::Next
            }
        }
    }

    fn eval_smi_cmp(&self, op: Bc, a: i32, b: i32) -> bool {
        match op {
            Bc::TestLt(_) => a < b,
            Bc::TestLe(_) => a <= b,
            Bc::TestGt(_) => a > b,
            Bc::TestGe(_) => a >= b,
            Bc::TestEq(_) | Bc::TestStrictEq(_) => a == b,
            Bc::TestNe(_) | Bc::TestStrictNe(_) => a != b,
            _ => unreachable!(),
        }
    }

    fn eval_f64_cmp(&self, op: Bc, a: f64, b: f64, lv: Value, rv: Value) -> bool {
        match op {
            Bc::TestLt(_) => a < b,
            Bc::TestLe(_) => a <= b,
            Bc::TestGt(_) => a > b,
            Bc::TestGe(_) => a >= b,
            Bc::TestEq(_) => a == b,
            Bc::TestNe(_) => a != b,
            Bc::TestStrictEq(_) => numops::strict_eq(&self.vm.rt, lv, rv),
            Bc::TestStrictNe(_) => !numops::strict_eq(&self.vm.rt, lv, rv),
            _ => unreachable!(),
        }
    }

    /// SMI-mode arithmetic; `None` = overflow/precision deopt.
    fn eval_smi_arith(
        &mut self,
        sink: &mut BatchSink<'_>,
        op: Bc,
        a: i32,
        b: i32,
    ) -> Option<(Value, Tok)> {
        let t;
        let v = match op {
            Bc::Add(_) => {
                t = self.em.chain(sink, UopKind::Alu, Category::OtherOptimized);
                self.em.chain_branch(sink, false, Category::MathAssume);
                Value::smi(a.checked_add(b)?)
            }
            Bc::Sub(_) => {
                t = self.em.chain(sink, UopKind::Alu, Category::OtherOptimized);
                self.em.chain_branch(sink, false, Category::MathAssume);
                Value::smi(a.checked_sub(b)?)
            }
            Bc::Mul(_) => {
                t = self.em.chain(sink, UopKind::Mul, Category::OtherOptimized);
                self.em.chain_branch(sink, false, Category::MathAssume);
                // Minus-zero assumption.
                self.em.chain_branch(sink, false, Category::MathAssume);
                if (a == 0 && b < 0) || (b == 0 && a < 0) {
                    return None;
                }
                Value::smi(a.checked_mul(b)?)
            }
            Bc::Div(_) => {
                t = self.em.chain(sink, UopKind::Div, Category::OtherOptimized);
                // Zero-divisor + exactness assumptions.
                self.em.chain_branch(sink, false, Category::MathAssume);
                self.em.chain_branch(sink, false, Category::MathAssume);
                if b == 0 || a % b != 0 || (a == 0 && b < 0) || (a == i32::MIN && b == -1) {
                    return None;
                }
                Value::smi(a / b)
            }
            Bc::Mod(_) => {
                t = self.em.chain(sink, UopKind::Div, Category::OtherOptimized);
                self.em.chain_branch(sink, false, Category::MathAssume);
                self.em.chain_branch(sink, false, Category::MathAssume);
                if b == 0 || (a == i32::MIN && b == -1) {
                    return None;
                }
                let r = a % b;
                if r == 0 && a < 0 {
                    return None; // -0
                }
                Value::smi(r)
            }
            Bc::BitAnd(_) => {
                t = self.em.chain(sink, UopKind::Alu, Category::OtherOptimized);
                Value::smi(a & b)
            }
            Bc::BitOr(_) => {
                t = self.em.chain(sink, UopKind::Alu, Category::OtherOptimized);
                Value::smi(a | b)
            }
            Bc::BitXor(_) => {
                t = self.em.chain(sink, UopKind::Alu, Category::OtherOptimized);
                Value::smi(a ^ b)
            }
            Bc::Shl(_) => {
                t = self.em.chain(sink, UopKind::Alu, Category::OtherOptimized);
                Value::smi(a << (b as u32 & 31))
            }
            Bc::Sar(_) => {
                t = self.em.chain(sink, UopKind::Alu, Category::OtherOptimized);
                Value::smi(a >> (b as u32 & 31))
            }
            Bc::Shr(_) => {
                t = self.em.chain(sink, UopKind::Alu, Category::OtherOptimized);
                let r = (a as u32) >> (b as u32 & 31);
                if r > i32::MAX as u32 {
                    let v = self.box_f64(sink, r as f64);
                    return Some((v, self.em.acc()));
                }
                Value::smi(r as i32)
            }
            _ => unreachable!("non-arith op in smi mode"),
        };
        Some((v, t))
    }

    fn eval_generic_binop(&mut self, op: Bc, lhs: Value, rhs: Value) -> Value {
        match op {
            Bc::Add(_) => numops::add(&mut self.vm.rt, lhs, rhs).0,
            Bc::Sub(_) => numops::sub(&mut self.vm.rt, lhs, rhs).0,
            Bc::Mul(_) => numops::mul(&mut self.vm.rt, lhs, rhs).0,
            Bc::Div(_) => numops::div(&mut self.vm.rt, lhs, rhs).0,
            Bc::Mod(_) => numops::rem(&mut self.vm.rt, lhs, rhs).0,
            Bc::BitAnd(_) => numops::bitwise(&mut self.vm.rt, BitwiseOp::And, lhs, rhs).0,
            Bc::BitOr(_) => numops::bitwise(&mut self.vm.rt, BitwiseOp::Or, lhs, rhs).0,
            Bc::BitXor(_) => numops::bitwise(&mut self.vm.rt, BitwiseOp::Xor, lhs, rhs).0,
            Bc::Shl(_) => numops::bitwise(&mut self.vm.rt, BitwiseOp::Shl, lhs, rhs).0,
            Bc::Sar(_) => numops::bitwise(&mut self.vm.rt, BitwiseOp::Sar, lhs, rhs).0,
            Bc::Shr(_) => numops::bitwise(&mut self.vm.rt, BitwiseOp::Shr, lhs, rhs).0,
            Bc::TestLt(_) => {
                let r = numops::compare(&self.vm.rt, CmpOp::Lt, lhs, rhs).0;
                self.vm.rt.bool_value(r)
            }
            Bc::TestLe(_) => {
                let r = numops::compare(&self.vm.rt, CmpOp::Le, lhs, rhs).0;
                self.vm.rt.bool_value(r)
            }
            Bc::TestGt(_) => {
                let r = numops::compare(&self.vm.rt, CmpOp::Gt, lhs, rhs).0;
                self.vm.rt.bool_value(r)
            }
            Bc::TestGe(_) => {
                let r = numops::compare(&self.vm.rt, CmpOp::Ge, lhs, rhs).0;
                self.vm.rt.bool_value(r)
            }
            Bc::TestEq(_) => {
                let r = numops::loose_eq(&self.vm.rt, lhs, rhs);
                self.vm.rt.bool_value(r)
            }
            Bc::TestNe(_) => {
                let r = !numops::loose_eq(&self.vm.rt, lhs, rhs);
                self.vm.rt.bool_value(r)
            }
            Bc::TestStrictEq(_) => {
                let r = numops::strict_eq(&self.vm.rt, lhs, rhs);
                self.vm.rt.bool_value(r)
            }
            Bc::TestStrictNe(_) => {
                let r = !numops::strict_eq(&self.vm.rt, lhs, rhs);
                self.vm.rt.bool_value(r)
            }
            _ => unreachable!(),
        }
    }

    fn do_unary(
        &mut self,
        sink: &mut BatchSink<'_>,
        plan: Option<&BinPlan>,
        op: Bc,
        pc: usize,
    ) -> Flow {
        let (v, vt) = self.pop();
        self.em.set_acc(vt);
        let Some(p) = plan else {
            self.em.stub_call(sink, stubs::BINOP_SLOW, 8, 2);
            let r = match op {
                Bc::Neg(_) => numops::neg(&mut self.vm.rt, v).0,
                _ => numops::bit_not(&mut self.vm.rt, v).0,
            };
            let t = self.em.fresh();
            self.push(r, t);
            return Flow::Next;
        };
        match p.mode {
            NumMode::Smi => {
                if !self.run_check(sink, p.lhs.check, v, Category::Check, p.lhs.provenance)
                    || !v.is_smi()
                {
                    return self.deopt(pc, &[v], DeoptReason::CheckSmi);
                }
                let x = v.as_smi();
                match op {
                    Bc::Neg(_) => {
                        let t = self.em.chain(sink, UopKind::Alu, Category::OtherOptimized);
                        self.em.chain_branch(sink, false, Category::MathAssume);
                        if x == 0 || x == i32::MIN {
                            return self.deopt(pc, &[v], DeoptReason::Overflow);
                        }
                        self.push(Value::smi(-x), t);
                    }
                    _ => {
                        let t = self.em.chain(sink, UopKind::Alu, Category::OtherOptimized);
                        self.push(Value::smi(!x), t);
                    }
                }
                Flow::Next
            }
            NumMode::Double => {
                let Some(a) = self.untag_f64(sink, v, &p.lhs) else {
                    return self.deopt(pc, &[v], DeoptReason::CheckNonSmi);
                };
                match op {
                    Bc::Neg(_) => {
                        self.em.chain(sink, UopKind::FpAdd, Category::OtherOptimized);
                        let r = self.box_f64(sink, -a);
                        let t = self.em.acc();
                        self.push(r, t);
                    }
                    _ => {
                        let t = self.em.chain(sink, UopKind::Alu, Category::OtherOptimized);
                        let r = Value::smi(!(a as i64 as u64 as u32 as i32));
                        let r2 = numops::bit_not(&mut self.vm.rt, v).0;
                        debug_assert_eq!(r2, r);
                        self.push(r2, t);
                    }
                }
                Flow::Next
            }
            _ => {
                self.em.stub_call(sink, stubs::BINOP_SLOW, 8, 2);
                let r = match op {
                    Bc::Neg(_) => numops::neg(&mut self.vm.rt, v).0,
                    _ => numops::bit_not(&mut self.vm.rt, v).0,
                };
                let t = self.em.fresh();
                self.push(r, t);
                Flow::Next
            }
        }
    }

    fn pop_args(&mut self, argc: u8) -> Vec<Value> {
        let at = self.stack.len() - argc as usize;
        let args = self.stack.split_off(at);
        self.stoks.truncate(self.stoks.len() - argc as usize);
        args
    }

    fn do_call(
        &mut self,
        sink: &mut BatchSink<'_>,
        known: Option<FuncRef>,
        argc: u8,
        pc: usize,
    ) -> Flow {
        let args = self.pop_args(argc);
        let (callee, _) = self.pop();
        for _ in 0..argc {
            self.em.chain(sink, UopKind::Move, Category::OtherOptimized);
        }
        if let Some(k) = known {
            // Function-identity check.
            self.emit_check_map(sink, callee, Category::Check, Provenance::None);
            let matches = callee.is_ptr()
                && matches!(self.vm.rt.kind_of(callee), checkelide_runtime::VKind::Func)
                && self.vm.rt.func_ref(callee) == k;
            if !matches {
                let mut ops = vec![callee];
                ops.extend_from_slice(&args);
                return self.deopt(pc, &ops, DeoptReason::CheckMap);
            }
        }
        self.em.jump(sink, Category::OtherOptimized);
        let undef = self.vm.rt.odd.undefined;
        match self.call_out(sink, callee, undef, &args) {
            Ok(v) => {
                if self.epoch_bumped() {
                    return self.deopt_after(pc, &[v], DeoptReason::Invalidated);
                }
                let t = self.em.fresh();
                self.push(v, t);
                Flow::Next
            }
            Err(e) => Flow::Error(e),
        }
    }

    #[allow(clippy::too_many_lines)]
    fn do_call_method(
        &mut self,
        sink: &mut BatchSink<'_>,
        plan: Option<&MethodPlan>,
        _name: checkelide_runtime::NameId,
        argc: u8,
        pc: usize,
    ) -> Flow {
        let args = self.pop_args(argc);
        let (recv, rt_) = self.pop();
        self.em.set_acc(rt_);
        let Some(mplan) = plan else {
            return self.generic_call_method(sink, recv, _name, &args, pc);
        };
        match mplan {
            &MethodPlan::StringBuiltin { builtin, recv_check } => {
                let checked =
                    self.run_check(sink, recv_check, recv, Category::Check, Provenance::None);
                let is_str = recv.is_ptr()
                    && matches!(self.vm.rt.kind_of(recv), checkelide_runtime::VKind::Str);
                if !checked || !is_str {
                    let mut ops = vec![recv];
                    ops.extend_from_slice(&args);
                    return self.deopt(pc, &ops, DeoptReason::CheckMap);
                }
                self.em.jump(sink, Category::OtherOptimized);
                let v = self.vm.call_builtin_traced(sink, builtin, recv, &args);
                let t = self.em.fresh();
                self.push(v, t);
                Flow::Next
            }
            &MethodPlan::ArrayBuiltin { builtin, map, recv_check_needed } => {
                if recv_check_needed {
                    self.emit_check_map(sink, recv, Category::Check, Provenance::None);
                }
                let ok = recv.is_ptr()
                    && matches!(self.vm.rt.kind_of(recv), checkelide_runtime::VKind::Object)
                    && self.vm.rt.object_map(recv) == map;
                if !ok {
                    let mut ops = vec![recv];
                    ops.extend_from_slice(&args);
                    return self.deopt(pc, &ops, DeoptReason::CheckMap);
                }
                self.em.jump(sink, Category::OtherOptimized);
                let before_len = self.vm.rt.elements_length(recv);
                let kind_before = self.vm.rt.elements_kind(recv);
                let v = self.vm.call_builtin_traced(sink, builtin, recv, &args);
                if self.vm.rt.elements_kind(recv) != kind_before {
                    let nm = self.vm.rt.object_map(recv);
                    if self.vm.note_kind_transition(sink, nm, Some(self.body.func)) {
                        return self.deopt_after(pc, &[v], DeoptReason::Invalidated);
                    }
                }
                // Kind transition inside push invalidates our plan: treat
                // as a one-off (next call deopts via the map check).
                if builtin == Builtin::ArrayPush && self.vm.config.mechanism.profiles() {
                    let map_after = self.vm.rt.object_map(recv);
                    let kind = self.vm.rt.elements_kind(recv);
                    for (k, &a) in args.iter().enumerate() {
                        let idx = before_len as i64 + k as i64;
                        let ld = self.vm.rt.load_element(recv, idx);
                        let self_deopt = self.vm.store_element_profiled(
                            sink,
                            &mut self.em,
                            recv,
                            map_after,
                            kind,
                            ld.slot_addr,
                            a,
                            Some(self.body.func),
                            None,
                        );
                        if self_deopt {
                            return self.deopt_after(pc, &[v], DeoptReason::Invalidated);
                        }
                    }
                }
                if self.epoch_bumped() {
                    return self.deopt_after(pc, &[v], DeoptReason::Invalidated);
                }
                let t = self.em.fresh();
                self.push(v, t);
                Flow::Next
            }
            MethodPlan::Object { cases, recv_check_needed, recv_provenance, known, .. } => {
                let actual = if recv.is_ptr()
                    && matches!(self.vm.rt.kind_of(recv), checkelide_runtime::VKind::Object)
                {
                    Some(self.vm.rt.object_map(recv))
                } else {
                    None
                };
                let matched = actual.and_then(|m| cases.iter().position(|c| c.map == m));
                if *recv_check_needed {
                    self.emit_check_map(sink, recv, Category::Check, *recv_provenance);
                }
                let Some(cix) = matched else {
                    let mut ops = vec![recv];
                    ops.extend_from_slice(&args);
                    return self.deopt(pc, &ops, DeoptReason::CheckMap);
                };
                let case = cases[cix];
                self.vm.note_line_access(case.offset);
                if self.vm.config.mechanism.profiles() {
                    if let Some(cid) = self.vm.rt.maps.get(case.map).class_id {
                        self.vm.load_stats.record_property_load(
                            cid,
                            (case.offset / 8) as u8,
                            (case.offset % 8) as u8,
                        );
                    }
                }
                let callee = self.vm.rt.load_slot(recv, case.offset);
                self.em.chain_load(
                    sink,
                    self.vm.rt.slot_addr(recv, case.offset),
                    Category::OtherOptimized,
                );
                if let Some(k) = *known {
                    self.emit_check_map(sink, callee, Category::Check, Provenance::PropertyLoad);
                    let matches = callee.is_ptr()
                        && matches!(
                            self.vm.rt.kind_of(callee),
                            checkelide_runtime::VKind::Func
                        )
                        && self.vm.rt.func_ref(callee) == k;
                    if !matches {
                        let mut ops = vec![recv];
                        ops.extend_from_slice(&args);
                        return self.deopt(pc, &ops, DeoptReason::CheckMap);
                    }
                }
                self.em.jump(sink, Category::OtherOptimized);
                match self.call_out(sink, callee, recv, &args) {
                    Ok(v) => {
                        if self.epoch_bumped() {
                            return self.deopt_after(pc, &[v], DeoptReason::Invalidated);
                        }
                        let t = self.em.fresh();
                        self.push(v, t);
                        Flow::Next
                    }
                    Err(e) => Flow::Error(e),
                }
            }
        }
    }

    fn do_new(
        &mut self,
        sink: &mut BatchSink<'_>,
        ctor: Option<(u32, MapIx)>,
        argc: u8,
        pc: usize,
    ) -> Flow {
        let args = self.pop_args(argc);
        let (callee, _) = self.pop();
        let Some((fi, _initial)) = ctor else {
            return self.generic_new(sink, callee, &args, pc);
        };
        // Callee identity check.
        self.emit_check_map(sink, callee, Category::Check, Provenance::None);
        let matches = callee.is_ptr()
            && matches!(self.vm.rt.kind_of(callee), checkelide_runtime::VKind::Func)
            && self.vm.rt.func_ref(callee) == FuncRef::User(fi);
        if !matches {
            let mut ops = vec![callee];
            ops.extend_from_slice(&args);
            return self.deopt(pc, &ops, DeoptReason::CheckMap);
        }
        // Inline allocation.
        for _ in 0..6 {
            self.em.chain(sink, UopKind::Alu, Category::OtherOptimized);
        }
        let map = self.vm.construction_map(fi);
        let capacity = self.vm.funcs[fi as usize].expected_lines;
        let obj = self.vm.rt.alloc_object(map, capacity);
        self.em.chain_store(sink, obj.addr(), Category::OtherOptimized);
        self.em.jump(sink, Category::OtherOptimized);
        self.push(obj, Tok::NONE); // root during the constructor call
        let ret = self.call_user_out(sink, fi, obj, &args);
        let (obj, _) = self.pop();
        match ret {
            Ok(ret) => {
                self.vm.record_construction(fi, obj);
                let result = if ret.is_ptr()
                    && matches!(self.vm.rt.kind_of(ret), checkelide_runtime::VKind::Object)
                {
                    ret
                } else {
                    obj
                };
                if self.epoch_bumped() {
                    return self.deopt_after(pc, &[result], DeoptReason::Invalidated);
                }
                let t = self.em.fresh();
                self.push(result, t);
                Flow::Next
            }
            Err(e) => Flow::Error(e),
        }
    }

    // ----- generic (megamorphic) fallbacks: runtime-dispatched ICs that
    // stay inside optimized code instead of deoptimizing -----

    fn generic_set_prop(
        &mut self,
        sink: &mut BatchSink<'_>,
        recv: Value,
        value: Value,
        vt: Tok,
        name: checkelide_runtime::NameId,
        pc: usize,
    ) -> Flow {
        use checkelide_runtime::VKind;
        self.em.stub_call(sink, stubs::IC_MISS, 12, 4);
        if recv.is_smi() || !matches!(self.vm.rt.kind_of(recv), VKind::Object) {
            // Errors (null/undefined receiver) get full context in the
            // interpreter.
            if !recv.is_smi()
                && matches!(self.vm.rt.kind_of(recv), VKind::Null | VKind::Undefined)
            {
                return self.deopt(pc, &[recv, value], DeoptReason::Generic);
            }
            self.push(value, vt);
            return Flow::Next;
        }
        let map_before = self.vm.rt.object_map(recv);
        if let Some(off) = self.vm.rt.maps.get(map_before).offset_of(name) {
            self.vm.note_line_access(off);
            self.vm.rt.store_slot(recv, off, value);
            self.em.set_acc(vt);
            let self_deopt = self.vm.store_property_profiled(
                sink,
                &mut self.em,
                recv,
                map_before,
                off,
                value,
                Some(self.body.func),
            );
            if self_deopt {
                return self.deopt_after(pc, &[value], DeoptReason::Invalidated);
            }
            self.push(value, vt);
            return Flow::Next;
        }
        // Transition.
        self.em.stub_call(sink, stubs::TRANSITION, 20, 8);
        let old_map = self.vm.rt.object_map(recv);
        let gen_trans_deopt =
            self.vm.note_map_transition(sink, old_map, Some(self.body.func));
        let add = self.vm.rt.add_property(recv, name);
        let _ = &gen_trans_deopt;
        let (obj, value) = match add.relocated {
            Some((old, new)) => {
                self.fix_relocation(old, new);
                let fix = |v: Value| {
                    if v.is_ptr() && v.addr() == old {
                        Value::ptr(new)
                    } else {
                        v
                    }
                };
                (fix(recv), fix(value))
            }
            None => (recv, value),
        };
        self.vm.note_line_access(add.offset);
        self.vm.rt.store_slot(obj, add.offset, value);
        self.em.set_acc(vt);
        let self_deopt = gen_trans_deopt
            | self.vm.store_property_profiled(
                sink,
                &mut self.em,
                obj,
                add.new_map,
                add.offset,
                value,
                Some(self.body.func),
            );
        if self_deopt {
            return self.deopt_after(pc, &[value], DeoptReason::Invalidated);
        }
        self.push(value, vt);
        Flow::Next
    }

    fn generic_get_elem(
        &mut self,
        sink: &mut BatchSink<'_>,
        recv: Value,
        ix: Value,
        pc: usize,
    ) -> Flow {
        use checkelide_runtime::VKind;
        self.em.stub_call(sink, stubs::ELEMS_SLOW, 10, 4);
        if recv.is_smi() || !matches!(self.vm.rt.kind_of(recv), VKind::Object) {
            return self.deopt(pc, &[recv, ix], DeoptReason::Generic);
        }
        if !ix.is_smi() || ix.as_smi() < 0 {
            return self.deopt(pc, &[recv, ix], DeoptReason::Generic);
        }
        let ld = self.vm.rt.load_element(recv, ix.as_smi() as i64);
        if self.vm.config.mechanism.profiles() && ld.kind == ElemKind::Tagged && !ld.oob {
            if let Some(cid) = self.vm.rt.class_id_of_value(recv) {
                self.vm.load_stats.record_elements_load(cid);
            }
        }
        let t = self.em.chain_load(sink, ld.slot_addr, Category::OtherOptimized);
        self.push(ld.value, t);
        Flow::Next
    }

    fn generic_set_elem(
        &mut self,
        sink: &mut BatchSink<'_>,
        recv: Value,
        ix: Value,
        value: Value,
        vt: Tok,
        pc: usize,
    ) -> Flow {
        use checkelide_runtime::VKind;
        self.em.stub_call(sink, stubs::ELEMS_SLOW, 12, 5);
        if recv.is_smi()
            || !matches!(self.vm.rt.kind_of(recv), VKind::Object)
            || !ix.is_smi()
            || ix.as_smi() < 0
        {
            return self.deopt(pc, &[recv, ix, value], DeoptReason::Generic);
        }
        let st = self.vm.rt.store_element(recv, ix.as_smi() as i64, value);
        let mut trans_deopt = false;
        if let Some(nm) = st.transitioned {
            trans_deopt = self.vm.note_kind_transition(sink, nm, Some(self.body.func));
        }
        let map_after = self.vm.rt.object_map(recv);
        self.em.set_acc(vt);
        let self_deopt = trans_deopt
            | self.vm.store_element_profiled(
            sink,
            &mut self.em,
            recv,
            map_after,
            st.kind,
            st.slot_addr,
            value,
            Some(self.body.func),
            None,
        );
        if self_deopt {
            return self.deopt_after(pc, &[value], DeoptReason::Invalidated);
        }
        self.push(value, vt);
        Flow::Next
    }

    fn generic_call_method(
        &mut self,
        sink: &mut BatchSink<'_>,
        recv: Value,
        name: checkelide_runtime::NameId,
        args: &[Value],
        pc: usize,
    ) -> Flow {
        use checkelide_runtime::VKind;
        self.em.stub_call(sink, stubs::IC_MISS, 14, 5);
        if recv.is_smi() {
            let mut ops = vec![recv];
            ops.extend_from_slice(args);
            return self.deopt(pc, &ops, DeoptReason::Generic);
        }
        match self.vm.rt.kind_of(recv) {
            VKind::Str => {
                let b = match self.vm.rt.names.text(name) {
                    "charCodeAt" => Builtin::CharCodeAt,
                    "charAt" => Builtin::CharAt,
                    "substring" => Builtin::Substring,
                    "indexOf" => Builtin::IndexOf,
                    _ => {
                        let mut ops = vec![recv];
                        ops.extend_from_slice(args);
                        return self.deopt(pc, &ops, DeoptReason::Generic);
                    }
                };
                let v = self.vm.call_builtin_traced(sink, b, recv, args);
                let t = self.em.fresh();
                self.push(v, t);
                Flow::Next
            }
            VKind::Object => {
                let map = self.vm.rt.object_map(recv);
                if let Some(off) = self.vm.rt.maps.get(map).offset_of(name) {
                    let callee = self.vm.rt.load_slot(recv, off);
                    match self.call_out(sink, callee, recv, args) {
                        Ok(v) => {
                            if self.epoch_bumped() {
                                return self.deopt_after(pc, &[v], DeoptReason::Invalidated);
                            }
                            let t = self.em.fresh();
                            self.push(v, t);
                            Flow::Next
                        }
                        Err(e) => Flow::Error(e),
                    }
                } else {
                    let b = match self.vm.rt.names.text(name) {
                        "push" => Builtin::ArrayPush,
                        "pop" => Builtin::ArrayPop,
                        _ => {
                            let mut ops = vec![recv];
                            ops.extend_from_slice(args);
                            return self.deopt(pc, &ops, DeoptReason::Generic);
                        }
                    };
                    let v = self.vm.call_builtin_traced(sink, b, recv, args);
                    if self.epoch_bumped() {
                        return self.deopt_after(pc, &[v], DeoptReason::Invalidated);
                    }
                    let t = self.em.fresh();
                    self.push(v, t);
                    Flow::Next
                }
            }
            _ => {
                let mut ops = vec![recv];
                ops.extend_from_slice(args);
                self.deopt(pc, &ops, DeoptReason::Generic)
            }
        }
    }

    fn generic_new(
        &mut self,
        sink: &mut BatchSink<'_>,
        callee: Value,
        args: &[Value],
        pc: usize,
    ) -> Flow {
        use checkelide_runtime::VKind;
        self.em.stub_call(sink, stubs::ALLOC, 12, 4);
        if callee.is_smi() || !matches!(self.vm.rt.kind_of(callee), VKind::Func) {
            let mut ops = vec![callee];
            ops.extend_from_slice(args);
            return self.deopt(pc, &ops, DeoptReason::Generic);
        }
        let FuncRef::User(fi) = self.vm.rt.func_ref(callee) else {
            let mut ops = vec![callee];
            ops.extend_from_slice(args);
            return self.deopt(pc, &ops, DeoptReason::Generic);
        };
        let map = self.vm.construction_map(fi);
        let capacity = self.vm.funcs[fi as usize].expected_lines;
        let obj = self.vm.rt.alloc_object(map, capacity);
        self.push(obj, Tok::NONE);
        let ret = self.call_user_out(sink, fi, obj, args);
        let (obj, _) = self.pop();
        match ret {
            Ok(ret) => {
                self.vm.record_construction(fi, obj);
                let result = if ret.is_ptr()
                    && matches!(self.vm.rt.kind_of(ret), VKind::Object)
                {
                    ret
                } else {
                    obj
                };
                if self.epoch_bumped() {
                    return self.deopt_after(pc, &[result], DeoptReason::Invalidated);
                }
                let t = self.em.fresh();
                self.push(result, t);
                Flow::Next
            }
            Err(e) => Flow::Error(e),
        }
    }
}
