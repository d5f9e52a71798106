//! Lazy basic-block versioning: the software check-elision competitor
//! tier (Chevalier-Boisvert & Feeley, extended with typed object
//! shapes).
//!
//! Where the paper's Class Cache removes checks with a *hardware*
//! profile, this tier removes them in *software* by keeping, per basic
//! block, up to [`VERSION_CAP`] specialized versions keyed by the
//! incoming [`TypeCtx`] — the tags established by dominating checks,
//! literal loads, and entry-point observation of argument types. A
//! check executed once in a version's block makes every later check on
//! the same value in that version [`CheckKind::None`]; a dominating
//! `CheckKind::Map` extends the context with the exact hidden class,
//! so downstream property loads become unchecked slot loads
//! (shape-extended contexts).
//!
//! Versions are materialized lazily, on first entry of a block with a
//! given context, by re-running the analyzer's transfer function over
//! the straight-line block seeded from the context
//! ([`analyze::analyze_block`]). Past the cap, entry falls back to the
//! all-`Unknown` generic version — always sound, never counted against
//! the cap. Deopt semantics are untouched: specialized plans reuse the
//! exact plan vocabulary and deopt paths of the scalar tier, so a
//! broken assumption (map transition, SMI overflow, epoch bump,
//! misspeculation) resumes the baseline interpreter exactly as before.
//!
//! As in the published lazy BBV, a block's out-edges start as stubs:
//! the first transition along an edge resolves the successor version
//! and patches the edge slot ([`BbvState::successor`]), so later
//! transitions neither compare nor copy the exit context.
//!
//! [`CheckKind::None`]: crate::plan::CheckKind::None
//! [`CheckKind::Map`]: crate::plan::CheckKind::Map

use crate::analyze::{analyze_block, successors};
use crate::context::TypeCtx;
use crate::plan::OpPlan;
use checkelide_engine::bytecode::{Bc, BytecodeFunc};
use checkelide_engine::{Mechanism, Vm};
use std::rc::Rc;

/// Maximum specialized versions per block; past it, entry falls back
/// to the generic (all-`Unknown`) version, which is exempt from the
/// cap.
pub const VERSION_CAP: u32 = 5;

/// One materialized block version: plans for `leader..=end`
/// specialized on an incoming context, plus the collapsed exit context
/// every out-edge hands to the successor leader.
#[derive(Debug)]
pub struct BlockVersion {
    /// Index in the owning [`BbvState`]'s version arena.
    pub id: u32,
    /// First pc of the block (a leader).
    pub leader: usize,
    /// Last pc of the block (inclusive).
    pub end: usize,
    /// Plans for `leader..=end`, indexed `pc - leader`.
    pub plans: Vec<OpPlan>,
    /// Context flowing out of `end` into every successor leader.
    pub exit: TypeCtx,
}

/// A patched out-edge stub: the version `target` that the exit context
/// resolved to at `leader`. `fallback` records that the resolution went
/// through the version cap, which is charged again on every traversal.
#[derive(Debug, Clone, Copy)]
struct Edge {
    leader: u32,
    target: u32,
    fallback: bool,
}

/// An unpatched stub (no leader is `u32::MAX`).
const STUB: Edge = Edge { leader: u32::MAX, target: 0, fallback: false };

/// Per-function version table, attached to an `OptimizedBody` when the
/// engine runs with `EngineConfig::bbv`.
#[derive(Debug)]
pub struct BbvState {
    /// `leaders[pc]`: pc starts a basic block (entry, jump targets,
    /// fallthrough successors of conditional branches).
    leaders: Vec<bool>,
    /// Version arena, indexed by [`BlockVersion::id`]. Versions are
    /// never removed, so an id (and a patched edge) stays valid.
    all: Vec<Rc<BlockVersion>>,
    /// `by_leader[pc]`: (incoming context, version id) pairs at that
    /// leader — at most [`VERSION_CAP`] specialized plus the generic
    /// one, searched by equality.
    by_leader: Vec<Vec<(TypeCtx, u32)>>,
    /// `specialized[pc]`: non-generic versions at that leader (cap
    /// accounting).
    specialized: Vec<u32>,
    /// `edges[id]`: version `id`'s out-edge stubs. A block ends in a
    /// fallthrough, `Jump` or `JumpIf*`, so two slots cover it.
    edges: Vec<[Edge; 2]>,
    /// Entries redirected to the generic version by the cap.
    pub cap_fallbacks: u32,
}

/// Compute the block-leader set of a bytecode function.
pub fn leaders(bc: &BytecodeFunc) -> Vec<bool> {
    let n = bc.code.len();
    let mut l = vec![false; n];
    if n > 0 {
        l[0] = true;
    }
    for (pc, op) in bc.code.iter().enumerate() {
        match *op {
            Bc::Jump(t) => l[t as usize] = true,
            Bc::JumpIfFalse(t) | Bc::JumpIfTrue(t) => {
                l[t as usize] = true;
                if pc + 1 < n {
                    l[pc + 1] = true;
                }
            }
            _ => {}
        }
    }
    l
}

impl BbvState {
    /// Empty version table for a function.
    pub fn new(bc: &BytecodeFunc) -> BbvState {
        let n = bc.code.len();
        BbvState {
            leaders: leaders(bc),
            all: Vec::new(),
            by_leader: vec![Vec::new(); n],
            specialized: vec![0; n],
            edges: Vec::new(),
            cap_fallbacks: 0,
        }
    }

    /// Whether `pc` starts a basic block.
    pub fn is_leader(&self, pc: usize) -> bool {
        self.leaders[pc]
    }

    /// Total versions materialized (generic included; reporting).
    pub fn versions_materialized(&self) -> u32 {
        self.all.len() as u32
    }

    /// Look up — lazily materializing — the version of the block at
    /// `leader` for incoming context `ctx`. Applies the version cap
    /// (generic fallback) and registers any Class-Cache speculations
    /// the specialized plans rely on; if a slot lost monomorphism in
    /// the meantime, the block is re-planned without elision.
    pub fn version(
        &mut self,
        vm: &mut Vm,
        func: u32,
        bc: &BytecodeFunc,
        leader: usize,
        ctx: &TypeCtx,
    ) -> Rc<BlockVersion> {
        let (id, _) = self.resolve(vm, func, bc, leader, ctx);
        Rc::clone(&self.all[id as usize])
    }

    /// The version control enters when it leaves `from` for `leader`:
    /// exactly `version(vm, func, bc, leader, &from.exit)`, memoized in
    /// `from`'s edge slot after the first traversal. Nothing is ever
    /// removed from the table and the cap count only grows, so a
    /// resolved edge can never resolve differently; an edge resolved
    /// through the cap fallback is charged to the fallback counters on
    /// every traversal, as the unmemoized lookup would be.
    pub fn successor(
        &mut self,
        vm: &mut Vm,
        func: u32,
        bc: &BytecodeFunc,
        from: &BlockVersion,
        leader: usize,
    ) -> Rc<BlockVersion> {
        let slots = &self.edges[from.id as usize];
        if let Some(e) = slots.iter().find(|e| e.leader == leader as u32) {
            if e.fallback {
                self.cap_fallbacks += 1;
                vm.stats.bbv_cap_fallbacks += 1;
            }
            return Rc::clone(&self.all[e.target as usize]);
        }
        let (target, fallback) = self.resolve(vm, func, bc, leader, &from.exit);
        let slots = &mut self.edges[from.id as usize];
        if let Some(slot) = slots.iter_mut().find(|e| e.leader == STUB.leader) {
            *slot = Edge { leader: leader as u32, target, fallback };
        }
        Rc::clone(&self.all[target as usize])
    }

    /// The version id for (`leader`, `ctx`), and whether the cap
    /// redirected it to the generic version.
    fn resolve(
        &mut self,
        vm: &mut Vm,
        func: u32,
        bc: &BytecodeFunc,
        leader: usize,
        ctx: &TypeCtx,
    ) -> (u32, bool) {
        debug_assert!(self.leaders[leader], "version lookup at non-leader pc {leader}");
        if let Some(id) = self.find(leader, ctx) {
            return (id, false);
        }
        if !ctx.is_generic() && self.specialized[leader] >= VERSION_CAP {
            self.cap_fallbacks += 1;
            vm.stats.bbv_cap_fallbacks += 1;
            let generic = ctx.generic_of();
            let id = match self.find(leader, &generic) {
                Some(id) => id,
                None => self.materialize(vm, func, bc, leader, generic),
            };
            return (id, true);
        }
        (self.materialize(vm, func, bc, leader, ctx.clone()), false)
    }

    fn find(&self, leader: usize, ctx: &TypeCtx) -> Option<u32> {
        self.by_leader[leader].iter().find(|(c, _)| c == ctx).map(|&(_, id)| id)
    }

    /// Plan the block at `leader` for `ctx` and enter it in the table.
    fn materialize(
        &mut self,
        vm: &mut Vm,
        func: u32,
        bc: &BytecodeFunc,
        leader: usize,
        ctx: TypeCtx,
    ) -> u32 {
        let elide = vm.config.mechanism == Mechanism::Full;
        let mut ba = analyze_block(vm, func, bc, leader, &self.leaders, ctx.seed_state(), elide);
        if !ba.speculations.is_empty() {
            let registered = ba
                .speculations
                .iter()
                .all(|&(intro, line, pos)| vm.speculate_on(intro, line, pos, func));
            if !registered {
                // A slot lost monomorphism between feedback collection
                // and now; unlike the function-granular compiler we
                // cannot defer mid-execution, so plan the block without
                // Class-Cache elision (already-registered speculations
                // are harmless extra invalidation edges).
                ba = analyze_block(vm, func, bc, leader, &self.leaders, ctx.seed_state(), false);
            }
        }
        let id = self.all.len() as u32;
        self.all.push(Rc::new(BlockVersion {
            id,
            leader,
            end: ba.end,
            plans: ba.plans,
            exit: TypeCtx::of_state(&ba.exit),
        }));
        self.edges.push([STUB; 2]);
        if !ctx.is_generic() {
            self.specialized[leader] += 1;
        }
        vm.stats.bbv_versions += 1;
        self.by_leader[leader].push((ctx, id));
        id
    }
}

/// Debug aid: the out-edges of the block ending at `end`.
pub fn block_successors(bc: &BytecodeFunc, end: usize) -> Vec<usize> {
    successors(&bc.code[end], end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::TypeTag;
    use checkelide_runtime::{MapIx, Value};

    fn bc_of(src: &str) -> (Vm, u32, Rc<BytecodeFunc>) {
        use checkelide_engine::EngineConfig;
        use checkelide_isa::NullSink;
        let mut vm = Vm::new(EngineConfig { opt_enabled: false, ..EngineConfig::default() });
        let mut sink = NullSink::new();
        vm.run_program(src, &mut sink).unwrap();
        let func = vm
            .funcs
            .iter()
            .position(|f| f.decl.name == "f")
            .expect("function f defined") as u32;
        let bc = vm.ensure_bytecode(func);
        (vm, func, bc)
    }

    #[test]
    fn leaders_cover_entry_targets_and_fallthroughs() {
        let (_vm, _func, bc) = bc_of("function f(x) { if (x) { x = 1; } return x; } f(0);");
        let l = leaders(&bc);
        assert!(l[0], "entry is a leader");
        for (pc, op) in bc.code.iter().enumerate() {
            match *op {
                Bc::Jump(t) => assert!(l[t as usize]),
                Bc::JumpIfFalse(t) | Bc::JumpIfTrue(t) => {
                    assert!(l[t as usize]);
                    assert!(l[pc + 1], "fallthrough of conditional at {pc} is a leader");
                }
                _ => {}
            }
        }
    }

    #[test]
    fn entry_block_materializes_and_chains() {
        // Walk every out-edge from the entry block until the walk closes;
        // every hop must stay inside the function, carry plans for
        // exactly its pc range, and the memoized edge must hand back the
        // very version the context lookup returns.
        let (mut vm, func, bc) = bc_of(
            "function f(x) { var s = 0; for (var i = 0; i < x; i++) { s = s + i; } return s; } f(5);",
        );
        let mut st = BbvState::new(&bc);
        let (n_locals, params) = (bc.n_locals as usize, bc.params as usize);
        let entry = TypeCtx::entry(&vm, n_locals, params, Value::smi(0), &[Value::smi(5)]);
        let mut work = vec![st.version(&mut vm, func, &bc, 0, &entry)];
        let mut seen = std::collections::HashSet::new();
        while let Some(ver) = work.pop() {
            assert!(ver.end < bc.code.len());
            assert_eq!(ver.plans.len(), ver.end - ver.leader + 1);
            if !seen.insert(ver.id) {
                continue; // back edge reached an already-walked version
            }
            for next in block_successors(&bc, ver.end) {
                assert!(st.is_leader(next), "block exits only into leaders");
                let via_edge = st.successor(&mut vm, func, &bc, &ver, next);
                let via_ctx = st.version(&mut vm, func, &bc, next, &ver.exit);
                assert!(Rc::ptr_eq(&via_edge, &via_ctx), "edge {} -> {next} diverged", ver.id);
                let again = st.successor(&mut vm, func, &bc, &ver, next);
                assert!(Rc::ptr_eq(&again, &via_ctx), "patched edge {} -> {next} moved", ver.id);
                work.push(via_edge);
            }
            assert!(seen.len() < 64, "version chain diverged");
        }
        assert!(st.versions_materialized() >= 2);
        assert_eq!(st.cap_fallbacks, 0);
    }

    #[test]
    fn memoized_fallback_edge_charges_every_traversal() {
        let (mut vm, func, bc) =
            bc_of("function f(x) { var y = 0; if (x) { y = 1; } return y; } f(1);");
        let mut st = BbvState::new(&bc);
        let (n_locals, params) = (bc.n_locals as usize, bc.params as usize);
        let entry = TypeCtx::entry(&vm, n_locals, params, Value::smi(0), &[Value::smi(1)]);
        let from = st.version(&mut vm, func, &bc, 0, &entry);
        let next = from.end + 1;
        assert!(st.is_leader(next));
        // Fill the successor's cap with contexts the exit context of
        // `from` cannot equal (`x` entered as a SMI).
        use TypeTag::{Bool, HeapNum, Map, Number, Str};
        for x in [Number, HeapNum, Str, Bool, Map(MapIx(0))] {
            let mut c = from.exit.generic_of();
            c.locals[0] = x;
            assert_ne!(c, from.exit);
            st.version(&mut vm, func, &bc, next, &c);
        }
        let generic = st.version(&mut vm, func, &bc, next, &from.exit.generic_of());
        let (versions, fallbacks, vm_fallbacks) =
            (st.versions_materialized(), st.cap_fallbacks, vm.stats.bbv_cap_fallbacks);
        const N: u32 = 7;
        for _ in 0..N {
            let v = st.successor(&mut vm, func, &bc, &from, next);
            assert!(Rc::ptr_eq(&v, &generic), "capped edge resolves to the generic version");
        }
        assert_eq!(st.versions_materialized(), versions, "nothing re-materialized");
        assert_eq!(st.cap_fallbacks, fallbacks + N);
        assert_eq!(vm.stats.bbv_cap_fallbacks, vm_fallbacks + u64::from(N));
    }

    #[test]
    fn version_cap_redirects_to_generic() {
        let (mut vm, func, bc) = bc_of("function f(x) { return x; } f(1);");
        let mut st = BbvState::new(&bc);
        let mk = |tag| TypeCtx {
            locals: vec![tag; bc.n_locals as usize],
            this: TypeTag::Unknown,
            stack: Vec::new(),
        };
        let tags = [
            TypeTag::Smi,
            TypeTag::Number,
            TypeTag::HeapNum,
            TypeTag::Str,
            TypeTag::Bool,
            TypeTag::Map(MapIx(0)),
            TypeTag::Map(MapIx(1)),
        ];
        let mut distinct = std::collections::HashSet::new();
        for t in tags {
            let v = st.version(&mut vm, func, &bc, 0, &mk(t));
            distinct.insert(Rc::as_ptr(&v) as usize);
        }
        // 5 specialized versions, then the 6th/7th context share one
        // generic fallback.
        assert_eq!(st.cap_fallbacks, 2);
        assert_eq!(distinct.len(), VERSION_CAP as usize + 1);
        // The generic version is reused, not re-materialized.
        let before = st.versions_materialized();
        let g = st.version(&mut vm, func, &bc, 0, &mk(TypeTag::Map(MapIx(9))));
        assert_eq!(st.versions_materialized(), before);
        assert!(distinct.contains(&(Rc::as_ptr(&g) as usize)));
    }
}
