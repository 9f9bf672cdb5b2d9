//! The abstract interpreter implementing the type-and-effect system.
//!
//! The analysis runs from the program entry, abstractly executing the
//! structured IR with bounded call inlining. Allocation sites executed
//! (abstractly) under the designated loop are *inside* sites; their types
//! start each iteration as `ĉ` (rule TNew). At the start of every abstract
//! iteration of the designated loop the aging operator `⊕` is applied to
//! the environment and the abstract heap (rule TWhile); loads through
//! bases that persist across iterations re-establish `f̂` for the loaded
//! objects; the loop body is re-analyzed until the whole abstract state
//! stabilizes (the TWhile fixed point).
//!
//! The final per-site ERA is the join of the site's eras over every
//! occurrence *reachable* in the final state: bindings in the environment,
//! static fields, and abstract-heap cells whose base is itself reachable
//! (an outside object is always reachable — something outside the loop
//! refers to it). Heap cells whose iteration-local container died with its
//! iteration are thereby garbage-collected from the report, which is what
//! keeps truly iteration-local structures classified `ĉ`.
//!
//! # Parallel (Jacobi) rounds
//!
//! With [`EffectConfig::jobs`] ≠ 1 the designated-loop fixpoint runs each
//! abstract iteration as a *round* of independent regions: the loop body
//! is partitioned (see `partition.rs`) so that no abstract fact can flow
//! between two regions within one iteration. The regions are packed into
//! a few batches per worker, largest first onto the lightest batch
//! (`pack_batches`). Each batch runs its regions in canonical order in
//! one sub-interpreter, with one copy of the frame and one heap overlay
//! over an immutable snapshot of the post-aging heap. The per-batch
//! deltas (heap overlay, each region's written locals, effect sets) are
//! merged back in a fixed batch order. Because the regions are truly
//! independent, each round reproduces the sequential iteration's
//! post-state *exactly* — same environments, heap, effect sets, iteration
//! count, and truncation flag — not merely the same fixpoint, which is
//! what keeps [`EffectSummary`] byte-identical at every job count.

use crate::domain::{AbsEffect, AbsType, EffectBase, TypeKey, Val};
use crate::era::Era;
use crate::partition::{partition, Region};
use leakchecker_callgraph::CallGraph;
use leakchecker_ir::ids::{AllocSite, FieldId, LocalId, LoopId, MethodId};
use leakchecker_ir::stmt::Stmt;
use leakchecker_ir::visit::walk_stmts;
use leakchecker_ir::Program;
use leakchecker_parallel::{effective_jobs, parallel_map};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// Analysis configuration.
#[derive(Copy, Clone, Debug)]
pub struct EffectConfig {
    /// Maximum distinct allocation sites per abstract value before
    /// collapsing to `⊤`. Bound 1 reproduces the paper's formal domain.
    pub type_set_bound: usize,
    /// Maximum call-inlining depth.
    pub max_inline_depth: usize,
    /// Cap on abstract iterations per loop fixed point.
    pub max_fixpoint_iters: usize,
    /// Treat started `Thread` objects as outside objects (the Mikou case
    /// study's workaround): objects captured by a thread on which
    /// `start()` was invoked escape regardless of the thread's own ERA.
    pub model_threads: bool,
    /// Worker threads for the designated-loop Jacobi rounds: `1` runs the
    /// classic sequential walk (the default), `0` uses one worker per
    /// hardware thread, `n` uses `n` workers. Results are identical at
    /// every value.
    pub jobs: usize,
}

impl Default for EffectConfig {
    fn default() -> Self {
        EffectConfig {
            type_set_bound: 8,
            max_inline_depth: 24,
            max_fixpoint_iters: 40,
            model_threads: false,
            jobs: 1,
        }
    }
}

/// The analysis result.
#[derive(Clone, Debug, Default)]
pub struct EffectSummary {
    /// Final ERA per allocation site (sites never abstractly executed are
    /// absent).
    pub eras: HashMap<AllocSite, Era>,
    /// Abstract store effects (Ψ̃), deduplicated.
    pub stores: BTreeSet<AbsEffect>,
    /// Abstract load effects (Ω̃), deduplicated.
    pub loads: BTreeSet<AbsEffect>,
    /// Sites abstractly executed under the designated loop.
    pub inside_sites: BTreeSet<AllocSite>,
    /// Object keys that were returned from a library method to
    /// application code (satisfying the stronger flows-in condition of
    /// paper Section 4).
    pub returned_from_library: BTreeSet<TypeKey>,
    /// Object keys of `Thread` instances on which `start()` was called
    /// (only populated under [`EffectConfig::model_threads`]).
    pub started_threads: BTreeSet<TypeKey>,
    /// `true` if inlining depth, recursion, or a fixpoint cap truncated
    /// the analysis (results may under-approximate).
    pub truncated: bool,
    /// Abstract iterations executed across designated-loop fixpoints.
    /// Identical at every job count (each parallel round reproduces one
    /// sequential iteration exactly).
    pub rounds: usize,
    /// Regions in the largest designated-loop partition actually run on
    /// the parallel path; `0` when the sequential path ran. Telemetry
    /// only — depends on the resolved worker count, so it is excluded
    /// from cross-width equivalence comparisons.
    pub regions: usize,
}

impl EffectSummary {
    /// The ERA of a site ([`Era::Outside`] when never observed inside).
    pub fn era(&self, site: AllocSite) -> Era {
        self.eras.get(&site).copied().unwrap_or(Era::Outside)
    }
}

/// Runs the analysis: abstractly execute from `entry` (or the program
/// entry), treating `designated` as the checked loop.
pub fn analyze(
    program: &Program,
    callgraph: &CallGraph,
    designated: LoopId,
    config: EffectConfig,
) -> EffectSummary {
    let entry = program.entry().expect("program has an entry point");
    analyze_from(program, callgraph, entry, designated, config)
}

/// Like [`analyze`], but starting at an explicit root method (used for
/// checkable regions, where the detector wraps a method in an artificial
/// loop that has no real call path from `main`).
pub fn analyze_from(
    program: &Program,
    callgraph: &CallGraph,
    root: MethodId,
    designated: LoopId,
    config: EffectConfig,
) -> EffectSummary {
    let mut interp = AbstractInterp {
        program,
        callgraph,
        config,
        designated,
        heap: HeapView::default(),
        stores: BTreeSet::new(),
        loads: BTreeSet::new(),
        inside_sites: BTreeSet::new(),
        loop_depth: 0,
        call_stack: vec![root],
        returned_from_library: BTreeSet::new(),
        started_threads: BTreeSet::new(),
        truncated: false,
        final_roots: BTreeSet::new(),
        top_escape: false,
        in_region: false,
        rounds: 0,
        region_count: 0,
    };
    let mut env = Env::default();
    let nlocals = program.method(root).locals.len();
    env.locals = vec![Val::Bottom; nlocals];
    interp.exec_method_body(root, &mut env);
    interp.add_roots(&env);
    interp.finish()
}

/// One abstract frame: values of the current method's locals.
///
/// Public (but hidden) so the lattice-law property tests can exercise
/// [`join_env`]/[`age_env`] on arbitrary frames; not part of the stable
/// API.
#[doc(hidden)]
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Env {
    pub locals: Vec<Val>,
    /// Join of all values returned so far from this frame.
    pub ret: Val,
}

/// Which generation of container instances a heap cell describes.
///
/// Abstract-heap cells are addressed by the base type's *generation*
/// rather than its exact ERA, so a cell written through a `ĉ` base in one
/// iteration is found again when the same container is reached through an
/// `f̂`/`⊤̂` base in a later iteration (both are "old" instances), while
/// cells of containers that died with their iteration stay separate from
/// the fresh instances of the next one.
#[doc(hidden)]
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Gen {
    /// Containers created outside the designated loop.
    Outside,
    /// Containers created in the current abstract iteration.
    Fresh,
    /// Containers surviving from earlier iterations.
    Old,
}

#[doc(hidden)]
pub fn gen_of(era: Era) -> Gen {
    match era {
        Era::Outside => Gen::Outside,
        Era::Current => Gen::Fresh,
        Era::Future | Era::Top => Gen::Old,
    }
}

#[doc(hidden)]
pub type HeapKey = (TypeKey, Gen, FieldId);

/// The abstract heap as a (possibly layered) view: an optional immutable
/// snapshot shared by every batch of a Jacobi round, overlaid by a local
/// delta map. On the sequential path `base` is `None` and `local` *is*
/// the heap, reproducing the original single-map behavior bit for bit.
///
/// `journals` is a stack of first-touch journals, one per open
/// plain-loop iteration. The first write to a `local` entry within a
/// frame records the entry's previous value (`None` when it was absent),
/// so the loop can decide whether its iteration changed the heap by
/// comparing only the cells it touched instead of snapshotting the
/// whole map.
#[derive(Debug, Default)]
struct HeapView {
    base: Option<Arc<BTreeMap<HeapKey, Val>>>,
    local: BTreeMap<HeapKey, Val>,
    journals: Vec<BTreeMap<HeapKey, Option<Val>>>,
}

impl HeapView {
    fn get(&self, key: &HeapKey) -> Val {
        if let Some(v) = self.local.get(key) {
            return v.clone();
        }
        match &self.base {
            Some(b) => b.get(key).cloned().unwrap_or(Val::Bottom),
            None => Val::Bottom,
        }
    }

    /// Weak update: joins `val` into the cell. Mirrors the sequential
    /// `entry(key).or_default()` discipline exactly — in particular a
    /// previously absent key is materialized even when the joined value
    /// stays `⊥`, because convergence checks distinguish absent cells
    /// from `⊥` cells and the parallel path must reach stability in the
    /// same iteration the sequential path does.
    fn store_join(&mut self, key: HeapKey, val: Val, bound: usize) {
        let cur = self.get(&key);
        let new = cur.join(&val, bound);
        let in_base = self.base.as_ref().is_some_and(|b| b.contains_key(&key));
        if self.local.contains_key(&key) || !in_base || new != cur {
            self.set(key, new);
        }
    }

    /// Strong update: flow-back reclassification, and the Jacobi merge
    /// of region overlays into the main heap. The replaced `local` entry
    /// goes to the innermost open journal unless this frame already
    /// wrote the cell.
    fn set(&mut self, key: HeapKey, val: Val) {
        let old = self.local.insert(key, val);
        if let Some(journal) = self.journals.last_mut() {
            journal.entry(key).or_insert(old);
        }
    }

    /// Replaces the whole `local` map (heap aging), journaling every
    /// entry whose value differs when a plain-loop frame is open.
    fn replace_local(&mut self, new: BTreeMap<HeapKey, Val>) {
        let old = std::mem::replace(&mut self.local, new);
        if let Some(journal) = self.journals.last_mut() {
            for (key, val) in &old {
                if self.local.get(key) != Some(val) {
                    journal.entry(*key).or_insert_with(|| Some(val.clone()));
                }
            }
            for key in self.local.keys() {
                if !old.contains_key(key) {
                    journal.entry(*key).or_insert(None);
                }
            }
        }
    }

    /// Opens a journal frame for one plain-loop iteration.
    fn open_frame(&mut self) {
        self.journals.push(BTreeMap::new());
    }

    /// Closes the innermost frame. Returns `true` iff some cell touched
    /// in it now holds a different value than when the frame opened —
    /// values are compared, not writes counted, so a cell rewritten and
    /// then joined back to its old value is unchanged. The frame's
    /// originals are folded into the enclosing frame (first touch wins),
    /// so an outer loop sees every cell its inner loops changed.
    fn close_frame(&mut self) -> bool {
        let journal = self.journals.pop().expect("an open journal frame");
        let changed = journal
            .iter()
            .any(|(key, orig)| self.local.get(key) != orig.as_ref());
        if let Some(parent) = self.journals.last_mut() {
            for (key, orig) in journal {
                parent.entry(key).or_insert(orig);
            }
        }
        changed
    }

    /// Every key of `field` in the effective heap, in key order (the
    /// order the sequential single-map walk would enumerate them).
    fn field_keys(&self, field: FieldId) -> Vec<HeapKey> {
        let local = self.local.keys().filter(|(_, _, f)| *f == field).cloned();
        match &self.base {
            None => local.collect(),
            Some(b) => {
                let mut keys: BTreeSet<HeapKey> =
                    b.keys().filter(|(_, _, f)| *f == field).cloned().collect();
                keys.extend(local);
                keys.into_iter().collect()
            }
        }
    }
}

/// Everything one batch of a Jacobi round produces (see
/// [`pack_batches`]), merged back into the main interpreter in fixed
/// batch order. `env` is the batch's frame after all of its regions
/// ran; the merge takes each region's written locals from it.
struct BatchOutcome {
    overlay: BTreeMap<HeapKey, Val>,
    env: Env,
    stores: BTreeSet<AbsEffect>,
    loads: BTreeSet<AbsEffect>,
    inside_sites: BTreeSet<AllocSite>,
    returned_from_library: BTreeSet<TypeKey>,
    started_threads: BTreeSet<TypeKey>,
    final_roots: BTreeSet<AbsType>,
    truncated: bool,
    top_escape: bool,
}

struct AbstractInterp<'a> {
    program: &'a Program,
    callgraph: &'a CallGraph,
    config: EffectConfig,
    designated: LoopId,
    /// Abstract heap H: (base type, field) → stored value. Static fields
    /// live under `TypeKey::Globals` with era `0̂`.
    heap: HeapView,
    stores: BTreeSet<AbsEffect>,
    loads: BTreeSet<AbsEffect>,
    inside_sites: BTreeSet<AllocSite>,
    /// > 0 while abstractly inside the designated loop.
    loop_depth: usize,
    call_stack: Vec<MethodId>,
    returned_from_library: BTreeSet<TypeKey>,
    started_threads: BTreeSet<TypeKey>,
    truncated: bool,
    /// Reachability roots for the final report: every type held by a
    /// frame when it returned (each inlined callee and the root frame),
    /// folded into one set as the frames return, so the report costs
    /// the distinct types rather than the frames ever executed.
    final_roots: BTreeSet<AbsType>,
    /// Set when a `⊤` value was stored through a persistent base inside
    /// the loop: any inside object may have escaped, so every inside site
    /// is conservatively reported `⊤̂` (only reachable when the value
    /// domain collapses, e.g. under the formal bound-1 configuration).
    top_escape: bool,
    /// `true` while executing one batch of a Jacobi round: forces any
    /// (structurally impossible) nested designated-loop fixpoint onto
    /// the sequential path.
    in_region: bool,
    /// Designated-loop abstract iterations executed so far.
    rounds: usize,
    /// Largest partition actually run on the parallel path.
    region_count: usize,
}

impl<'a> AbstractInterp<'a> {
    fn bound(&self) -> usize {
        self.config.type_set_bound
    }

    fn inside(&self) -> bool {
        self.loop_depth > 0
    }

    /// The method whose body is currently being abstractly executed.
    fn current_method(&self) -> MethodId {
        *self.call_stack.last().expect("call stack holds the root")
    }

    /// Is the current code standard-library code?
    fn in_library(&self) -> bool {
        self.program.is_library_method(self.current_method())
    }

    fn exec_method_body(&mut self, method: MethodId, env: &mut Env) {
        let program: &'a Program = self.program;
        self.exec_stmts(&program.method(method).body, env);
    }

    /// Folds a returned frame's values into the reachability roots.
    fn add_roots(&mut self, env: &Env) {
        for val in env.locals.iter().chain(std::iter::once(&env.ret)) {
            self.final_roots.extend(val.types());
        }
    }

    fn exec_stmts(&mut self, stmts: &[Stmt], env: &mut Env) {
        for stmt in stmts {
            self.exec_stmt(stmt, env);
        }
    }

    fn heap_load(&self, key: &HeapKey) -> Val {
        self.heap.get(key)
    }

    fn heap_store(&mut self, key: HeapKey, val: Val) {
        let bound = self.bound();
        self.heap.store_join(key, val, bound);
    }

    /// All heap keys a base value can denote. `⊤` bases touch every key of
    /// the field (conservative).
    fn keys_for_base(&self, base: &Val, field: FieldId) -> Vec<HeapKey> {
        match base {
            Val::Bottom => Vec::new(),
            Val::Top => self.heap.field_keys(field),
            Val::Types(_) => base
                .types()
                .map(|t| (t.key, gen_of(t.era), field))
                .collect(),
        }
    }

    fn exec_stmt(&mut self, stmt: &Stmt, env: &mut Env) {
        match stmt {
            Stmt::New { dst, site, .. } | Stmt::NewArray { dst, site, .. } => {
                let era = if self.inside() {
                    self.inside_sites.insert(*site);
                    Era::Current
                } else {
                    Era::Outside
                };
                env.locals[dst.index()] = Val::one(AbsType::site(*site, era));
            }
            Stmt::Assign { dst, src } => {
                env.locals[dst.index()] = env.locals[src.index()].clone();
            }
            Stmt::AssignNull { dst } => {
                env.locals[dst.index()] = Val::Bottom;
            }
            Stmt::Const { .. } | Stmt::NonDetBool { .. } | Stmt::BinOp { .. } | Stmt::Nop => {}
            Stmt::Store { base, field, src } => {
                self.do_store(env, *base, *field, *src);
            }
            Stmt::ArrayStore { base, src, .. } => {
                self.do_store(env, *base, leakchecker_ir::ids::ARRAY_ELEM_FIELD, *src);
            }
            Stmt::Load { dst, base, field } => {
                self.do_load(env, *dst, *base, *field);
            }
            Stmt::ArrayLoad { dst, base, .. } => {
                self.do_load(env, *dst, *base, leakchecker_ir::ids::ARRAY_ELEM_FIELD);
            }
            Stmt::StaticStore { field, src } => {
                if !self.program.field(*field).ty.is_reference() {
                    return;
                }
                let val = env.locals[src.index()].clone();
                let key = (TypeKey::Globals, Gen::Outside, *field);
                let inside = self.inside();
                let in_library = self.in_library();
                for ty in val.types() {
                    self.stores.insert(AbsEffect {
                        value: ty,
                        field: *field,
                        base: EffectBase::Type(AbsType::new(TypeKey::Globals, Era::Outside)),
                        inside_loop: inside,
                        in_library,
                    });
                }
                self.heap_store(key, val);
            }
            Stmt::StaticLoad { dst, field } => {
                if !self.program.field(*field).ty.is_reference() {
                    return;
                }
                let key = (TypeKey::Globals, Gen::Outside, *field);
                let loaded = self.heap_load(&key);
                let adjusted = self.flow_back_adjust(&loaded, Era::Outside, key);
                let inside = self.inside();
                let in_library = self.in_library();
                for ty in adjusted.types() {
                    self.loads.insert(AbsEffect {
                        value: ty,
                        field: *field,
                        base: EffectBase::Type(AbsType::new(TypeKey::Globals, Era::Outside)),
                        inside_loop: inside,
                        in_library,
                    });
                }
                env.locals[dst.index()] = adjusted;
            }
            Stmt::Call {
                dst,
                method,
                receiver,
                args,
                site,
                ..
            } => {
                let mut targets: Vec<MethodId> = self.callgraph.targets(*site).to_vec();
                if targets.is_empty() {
                    targets.push(*method);
                }
                // Thread modeling: `t.start()` marks the receiver objects
                // as started threads (treated as outside objects by the
                // detector).
                if self.config.model_threads && self.program.method(*method).name == "start" {
                    if let Some(r) = receiver {
                        if self.is_thread_typed(env, *r) {
                            for ty in env.locals[r.index()].types() {
                                self.started_threads.insert(ty.key);
                            }
                        }
                    }
                }
                let caller_is_app = !self.in_library();
                let mut ret = Val::Bottom;
                for target in targets {
                    if self.call_stack.contains(&target)
                        || self.call_stack.len() >= self.config.max_inline_depth
                    {
                        // Recursion or depth cut: skip the body. Results
                        // may under-approximate; flagged as truncated.
                        self.truncated = true;
                        ret = Val::Top;
                        continue;
                    }
                    let callee = self.program.method(target);
                    let mut callee_env = Env {
                        locals: vec![Val::Bottom; callee.locals.len()],
                        ret: Val::Bottom,
                    };
                    let mut slot = 0;
                    if !callee.is_static {
                        if let Some(r) = receiver {
                            callee_env.locals[0] = env.locals[r.index()].clone();
                        }
                        slot = 1;
                    }
                    for (i, a) in args.iter().enumerate() {
                        if slot + i < callee_env.locals.len() {
                            callee_env.locals[slot + i] = env.locals[a.index()].clone();
                        }
                    }
                    self.call_stack.push(target);
                    self.exec_method_body(target, &mut callee_env);
                    self.call_stack.pop();
                    // Crossing the library → application boundary with a
                    // return value satisfies the stronger flows-in
                    // condition for the returned objects.
                    if caller_is_app && self.program.is_library_method(target) {
                        for ty in callee_env.ret.types() {
                            self.returned_from_library.insert(ty.key);
                        }
                    }
                    ret = ret.join(&callee_env.ret, self.bound());
                    // The callee frame's values are reachability roots:
                    // they may pin heap cells observed by the report.
                    self.add_roots(&callee_env);
                }
                if let Some(d) = dst {
                    if self.program.method(*method).ret_ty.is_reference() || ret.is_top() {
                        env.locals[d.index()] = ret;
                    }
                }
            }
            Stmt::Return(v) => {
                if let Some(v) = v {
                    let val = env.locals[v.index()].clone();
                    env.ret = env.ret.join(&val, self.bound());
                }
                // Over-approximation: execution abstractly continues past
                // the return; later statements only add may-facts.
            }
            Stmt::Break | Stmt::Continue => {
                // Over-approximation: treated as fallthrough.
            }
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => self.exec_if(then_branch, else_branch, env),
            Stmt::While { id, body, .. } => {
                if *id == self.designated {
                    self.exec_designated_loop(body, env);
                } else {
                    self.exec_plain_loop(body, env);
                }
            }
        }
    }

    /// Both branches run against the entry state and their frames are
    /// joined. Only the locals a branch can write differ from the entry
    /// state, so only those are saved and joined: `then` runs in place,
    /// its values are swapped out for the saved entry values, `else`
    /// runs in place, and the two sets are joined (`x ⊔ x = x` for every
    /// other local). `ret` needs no save: it only accumulates, and the
    /// join is idempotent. Calls need no special case, because callees
    /// run in frames of their own.
    fn exec_if(&mut self, then_branch: &[Stmt], else_branch: &[Stmt], env: &mut Env) {
        let writes = self.branch_writes(then_branch, else_branch, env.locals.len());
        let mut saved: Vec<Val> = writes
            .iter()
            .map(|l| env.locals[l.index()].clone())
            .collect();
        self.exec_stmts(then_branch, env);
        // `saved` now takes the `then` values; the frame gets the entry
        // values back.
        for (l, v) in writes.iter().zip(&mut saved) {
            std::mem::swap(&mut env.locals[l.index()], v);
        }
        self.exec_stmts(else_branch, env);
        let bound = self.bound();
        for (l, then_val) in writes.iter().zip(saved) {
            let slot = &mut env.locals[l.index()];
            *slot = then_val.join(slot, bound);
        }
    }

    /// The locals either branch may write, sorted and deduplicated. A
    /// branch that contains the designated loop writes every one of the
    /// frame's `nlocals` locals, because its aging rewrites them all.
    fn branch_writes(
        &self,
        then_branch: &[Stmt],
        else_branch: &[Stmt],
        nlocals: usize,
    ) -> Vec<LocalId> {
        let mut writes = Vec::new();
        let mut designated = false;
        let mut visit = |stmt: &Stmt| match stmt {
            Stmt::While { id, .. } if *id == self.designated => designated = true,
            _ => writes.extend(stmt.def()),
        };
        walk_stmts(then_branch, &mut visit);
        walk_stmts(else_branch, &mut visit);
        if designated {
            return (0..nlocals).map(LocalId::from_index).collect();
        }
        writes.sort_unstable();
        writes.dedup();
        writes
    }

    /// Does the receiver's declared class descend from a class named
    /// `Thread`? (Name-based recognition: the mini-JDK flags its thread
    /// class this way.)
    fn is_thread_typed(&self, env: &Env, receiver: LocalId) -> bool {
        let thread = match self.program.class_by_name("Thread") {
            Some(c) => c,
            None => return false,
        };
        // Check via the abstract value's allocation sites.
        env.locals[receiver.index()].types().any(|t| match t.key {
            TypeKey::Site(site) => self
                .program
                .alloc(site)
                .ty
                .class()
                .is_some_and(|c| self.program.is_subclass(c, thread)),
            TypeKey::Globals => false,
        }) || env.locals[receiver.index()].is_top()
    }

    fn do_store(&mut self, env: &mut Env, base: LocalId, field: FieldId, src: LocalId) {
        let base_val = env.locals[base.index()].clone();
        let src_val = env.locals[src.index()].clone();
        if src_val.is_bottom() {
            // Null store: the formal system performs no strong update
            // (the documented destructive-update imprecision).
            return;
        }
        let inside = self.inside();
        if inside && src_val.is_top() && base_val.may_persist() {
            self.top_escape = true;
        }
        // Record effects.
        let bases: Vec<EffectBase> = match &base_val {
            Val::Top => vec![EffectBase::Top],
            _ => base_val.types().map(EffectBase::Type).collect(),
        };
        let in_library = self.in_library();
        for b in &bases {
            for ty in src_val.types() {
                self.stores.insert(AbsEffect {
                    value: ty,
                    field,
                    base: *b,
                    inside_loop: inside,
                    in_library,
                });
            }
        }
        // Update the abstract heap (weak; a ⊤ base taints every existing
        // cell of the field).
        for key in self.keys_for_base(&base_val, field) {
            self.heap_store(key, src_val.clone());
        }
    }

    fn do_load(&mut self, env: &mut Env, dst: LocalId, base: LocalId, field: FieldId) {
        let base_val = env.locals[base.index()].clone();
        let mut loaded = Val::Bottom;
        let inside = self.inside();
        match &base_val {
            Val::Bottom => {}
            Val::Top => {
                // Load through ⊤: join every cell of the field.
                for key in self.keys_for_base(&base_val, field) {
                    let cell = self.heap_load(&key);
                    // A ⊤ base may be any persisting object.
                    let adjusted = self.flow_back_adjust(&cell, Era::Top, key);
                    loaded = loaded.join(&adjusted, self.bound());
                }
                let in_library = self.in_library();
                for ty in loaded.types() {
                    self.loads.insert(AbsEffect {
                        value: ty,
                        field,
                        base: EffectBase::Top,
                        inside_loop: inside,
                        in_library,
                    });
                }
            }
            Val::Types(_) => {
                for bty in base_val.types() {
                    let key = (bty.key, gen_of(bty.era), field);
                    let cell = self.heap_load(&key);
                    let adjusted = self.flow_back_adjust(&cell, bty.era, key);
                    let in_library = self.in_library();
                    for ty in adjusted.types() {
                        self.loads.insert(AbsEffect {
                            value: ty,
                            field,
                            base: EffectBase::Type(bty),
                            inside_loop: inside,
                            in_library,
                        });
                    }
                    loaded = loaded.join(&adjusted, self.bound());
                }
            }
        }
        env.locals[dst.index()] = loaded;
    }

    /// Rule TLoad's flow-back update: loading an inside object through a
    /// base that persists across iterations proves the object can be used
    /// in an iteration after the one that created it, so its ERA becomes
    /// `f̂` — both in the loaded value and (strong update) in the heap
    /// cell, which is how a cell that was aged to `⊤̂` is reclassified as
    /// properly carried-over.
    fn flow_back_adjust(&mut self, cell: &Val, base_era: Era, key: HeapKey) -> Val {
        if !self.inside() || !base_era.persists() {
            return cell.clone();
        }
        match cell {
            Val::Types(m) => {
                let adjusted: BTreeMap<TypeKey, Era> =
                    m.iter().map(|(&k, &e)| (k, e.flow_back())).collect();
                let new = Val::Types(adjusted);
                if new != *cell {
                    self.heap.set(key, new.clone());
                }
                new
            }
            other => other.clone(),
        }
    }

    /// A non-designated loop: plain fixed point, no iteration semantics.
    ///
    /// Note the convergence criterion is environment + heap only; the
    /// designated loop additionally watches the effect-log lengths. The
    /// asymmetry is deliberate (and test-pinned): a plain loop that adds
    /// a new effect necessarily also changes an environment value or a
    /// heap cell *or* repeats an effect already recorded, because effects
    /// are keyed by the abstract values involved — whereas a designated
    /// loop's aging operator can cycle the same env/heap while the
    /// `inside_loop` flag of freshly recorded effects still changes.
    ///
    /// Each iteration runs under its own journal frame, so the heap test
    /// costs the cells the iteration wrote, not the size of the heap. It
    /// is exact: the frame compares every journaled cell's value against
    /// its value when the iteration began, which is equivalent to
    /// comparing before/after copies of `heap.local`, since a cell the
    /// iteration never wrote cannot have changed. That holds on the
    /// sequential path, where `heap.local` *is* the heap, and inside a
    /// region, where the overlay changes iff the effective heap changes
    /// (stores only materialize overlay entries that differ from the
    /// snapshot or update existing ones). Nested loops fold their
    /// journals into the enclosing iteration's frame, and a designated
    /// loop run under an open frame journals its aging and its Jacobi
    /// merges the same way.
    fn exec_plain_loop(&mut self, body: &[Stmt], env: &mut Env) {
        let mut state = env.clone();
        for _ in 0..self.config.max_fixpoint_iters {
            self.heap.open_frame();
            let mut iter_env = state.clone();
            self.exec_stmts(body, &mut iter_env);
            let heap_changed = self.heap.close_frame();
            let joined = join_env(&state, &iter_env, self.bound());
            if joined == state && !heap_changed {
                *env = joined;
                return;
            }
            state = joined;
        }
        self.truncated = true;
        *env = state;
    }

    /// The designated loop: rule TWhile with iteration aging. Each
    /// abstract iteration runs either sequentially or as one parallel
    /// Jacobi round; the two produce identical post-states, so iteration
    /// counts, truncation, and every summary component agree.
    fn exec_designated_loop(&mut self, body: &[Stmt], env: &mut Env) {
        self.loop_depth += 1;
        let workers = effective_jobs(self.config.jobs);
        let regions = if workers > 1 && !self.in_region {
            partition(
                self.program,
                self.callgraph,
                self.current_method(),
                &self.call_stack,
                self.config.max_inline_depth,
                body,
            )
        } else {
            Vec::new()
        };
        // A single region would serialize through parallel_map for
        // nothing; the sequential walk is the same computation.
        let parallel = regions.len() >= 2;
        let batches = if parallel {
            self.region_count = self.region_count.max(regions.len());
            pack_batches(&regions, workers)
        } else {
            Vec::new()
        };
        let mut state = env.clone();
        let mut stable = false;
        for _ in 0..self.config.max_fixpoint_iters {
            let heap_before = self.heap.local.clone();
            let stores_before = self.stores.len();
            let loads_before = self.loads.len();
            // ⊕: age the environment and the heap at the iteration start.
            let mut iter_env = age_env(&state);
            self.age_heap();
            self.rounds += 1;
            if parallel {
                self.exec_round_parallel(&regions, &batches, body, &mut iter_env, workers);
            } else {
                self.exec_stmts(body, &mut iter_env);
            }
            let joined = join_env(&state, &iter_env, self.bound());
            if joined == state
                && self.heap.local == heap_before
                && self.stores.len() == stores_before
                && self.loads.len() == loads_before
            {
                state = joined;
                stable = true;
                break;
            }
            state = joined;
        }
        if !stable {
            self.truncated = true;
        }
        self.loop_depth -= 1;
        *env = state;
    }

    /// One Jacobi round: the regions are packed into batches, every
    /// batch executes against an immutable snapshot of the post-aging
    /// heap, then the deltas are merged in batch order. The partition
    /// guarantees the regions are independent, so neither the packing
    /// nor the merge order matters for the result, only for
    /// determinism: overlapping overlay entries can only come from
    /// concurrent loads of the same untouched cell, whose idempotent
    /// flow-back adjustments write identical values.
    fn exec_round_parallel(
        &mut self,
        regions: &[Region],
        batches: &[Vec<usize>],
        body: &[Stmt],
        iter_env: &mut Env,
        workers: usize,
    ) {
        debug_assert!(self.heap.base.is_none(), "rounds run on the main heap");
        let snapshot = Arc::new(std::mem::take(&mut self.heap.local));
        let program = self.program;
        let callgraph = self.callgraph;
        let config = self.config;
        let designated = self.designated;
        let loop_depth = self.loop_depth;
        let call_stack = &self.call_stack;
        let base_env = &*iter_env;
        let snap = &snapshot;
        let outcomes = parallel_map(workers, batches.iter().collect(), |batch: &Vec<usize>| {
            let mut sub = AbstractInterp {
                program,
                callgraph,
                config,
                designated,
                heap: HeapView {
                    base: Some(Arc::clone(snap)),
                    ..HeapView::default()
                },
                stores: BTreeSet::new(),
                loads: BTreeSet::new(),
                inside_sites: BTreeSet::new(),
                loop_depth,
                call_stack: call_stack.clone(),
                returned_from_library: BTreeSet::new(),
                started_threads: BTreeSet::new(),
                truncated: false,
                final_roots: BTreeSet::new(),
                top_escape: false,
                in_region: true,
                rounds: 0,
                region_count: 0,
            };
            let mut env = base_env.clone();
            for &r in batch {
                for &i in &regions[r].stmts {
                    sub.exec_stmt(&body[i], &mut env);
                }
            }
            BatchOutcome {
                overlay: sub.heap.local,
                env,
                stores: sub.stores,
                loads: sub.loads,
                inside_sites: sub.inside_sites,
                returned_from_library: sub.returned_from_library,
                started_threads: sub.started_threads,
                final_roots: sub.final_roots,
                truncated: sub.truncated,
                top_escape: sub.top_escape,
            }
        });
        self.heap.local =
            Arc::try_unwrap(snapshot).expect("every batch dropped its snapshot handle");
        let bound = self.bound();
        for (batch, mut out) in batches.iter().zip(outcomes) {
            // Heap delta: plain (journaled) insert — entries are either
            // for cells no other region touches, or identical flow-back
            // rewrites.
            for (k, v) in out.overlay {
                self.heap.set(k, v);
            }
            // Environment delta: the partition guarantees each local is
            // written by at most one region (and read by no other), so
            // taking the writer's final value is exact, not a join.
            for &r in batch {
                for &l in &regions[r].writes {
                    iter_env.locals[l.index()] = std::mem::take(&mut out.env.locals[l.index()]);
                }
            }
            // `ret` is accumulate-only (never read during execution), so
            // folding the per-batch joins reproduces the sequential
            // value by idempotence.
            iter_env.ret = iter_env.ret.join(&out.env.ret, bound);
            self.stores.extend(out.stores);
            self.loads.extend(out.loads);
            self.inside_sites.extend(out.inside_sites);
            self.returned_from_library.extend(out.returned_from_library);
            self.started_threads.extend(out.started_threads);
            self.final_roots.extend(out.final_roots);
            self.truncated |= out.truncated;
            self.top_escape |= out.top_escape;
        }
    }

    /// Ages every heap binding: fresh cells become old cells, and every
    /// stored value moves `ĉ`/`f̂` → `⊤̂` until a load proves flow-back.
    fn age_heap(&mut self) {
        debug_assert!(self.heap.base.is_none(), "aging runs on the main heap");
        let bound = self.bound();
        let old = if self.heap.journals.is_empty() {
            std::mem::take(&mut self.heap.local)
        } else {
            self.heap.local.clone()
        };
        self.heap.replace_local(age_heap_map(old, bound));
    }

    /// Computes the final report: reachable-occurrence ERA join.
    fn finish(self) -> EffectSummary {
        // Roots: every type a returned frame held, every outside-typed
        // object (referenced from outside the loop by assumption), and the
        // globals pseudo-object.
        let mut reachable: BTreeSet<(TypeKey, Era)> = BTreeSet::new();
        let mut queue: VecDeque<(TypeKey, Era)> = VecDeque::new();
        let mut eras: HashMap<AllocSite, Era> = HashMap::new();

        let add =
            |q: &mut VecDeque<(TypeKey, Era)>, seen: &mut BTreeSet<(TypeKey, Era)>, ty: AbsType| {
                if seen.insert((ty.key, ty.era)) {
                    q.push_back((ty.key, ty.era));
                }
            };

        for &ty in &self.final_roots {
            add(&mut queue, &mut reachable, ty);
        }
        add(
            &mut queue,
            &mut reachable,
            AbsType::new(TypeKey::Globals, Era::Outside),
        );
        // Outside objects are live by assumption; their heap cells are
        // reachable. (The main interpreter's heap never has a snapshot
        // layer by the time the report is computed.)
        debug_assert!(self.heap.base.is_none() && self.heap.journals.is_empty());
        for ((key, gen, _), _) in self.heap.local.iter() {
            if *gen == Gen::Outside {
                add(&mut queue, &mut reachable, AbsType::new(*key, Era::Outside));
            }
        }

        let mut visited_cells: HashSet<HeapKey> = HashSet::new();
        while let Some((key, era)) = queue.pop_front() {
            if let TypeKey::Site(site) = key {
                if era.is_inside() {
                    eras.entry(site)
                        .and_modify(|e| *e = e.join(era))
                        .or_insert(era);
                }
            }
            // Follow heap edges: an object of generation g reaches the
            // cells addressed by that generation.
            let gen = gen_of(era);
            let cells = self
                .heap
                .local
                .range((key, gen, FieldId(0))..=(key, gen, FieldId(u32::MAX)));
            for (&cell_id, val) in cells {
                if visited_cells.insert(cell_id) {
                    for ty in val.types() {
                        add(&mut queue, &mut reachable, ty);
                    }
                }
            }
        }

        // Inside sites with no reachable occurrence are iteration-local.
        for &site in &self.inside_sites {
            eras.entry(site).or_insert(Era::Current);
        }
        if self.top_escape {
            for &site in &self.inside_sites {
                eras.insert(site, Era::Top);
            }
        }

        EffectSummary {
            eras,
            stores: self.stores,
            loads: self.loads,
            inside_sites: self.inside_sites,
            returned_from_library: self.returned_from_library,
            started_threads: self.started_threads,
            truncated: self.truncated,
            rounds: self.rounds,
            regions: self.region_count,
        }
    }
}

/// Batches per worker in a Jacobi round. On 2 cores, 1, 2 and 4 batches
/// per worker time alike at 30k statements and 4 is slightly ahead at
/// 100k, while one batch per region is 2–5× slower (DESIGN §13). Several
/// batches rather than one keep the pool busy: `parallel_map` runs its
/// first item inline as a probe before it spawns the pool.
const BATCHES_PER_WORKER: usize = 4;

/// Packs a round's regions into at most [`BATCHES_PER_WORKER`] batches
/// per worker, largest region (by statement count) first onto the
/// lightest batch. Each batch lists its regions in canonical order and
/// runs them in one sub-interpreter, so a round pays one frame copy and
/// one heap overlay per batch rather than per region. That is exact
/// because the partition already guarantees the regions are
/// independent.
fn pack_batches(regions: &[Region], workers: usize) -> Vec<Vec<usize>> {
    let count = regions.len().min(BATCHES_PER_WORKER * workers);
    let mut order: Vec<usize> = (0..regions.len()).collect();
    order.sort_by_key(|&r| (std::cmp::Reverse(regions[r].stmts.len()), r));
    let mut batches = vec![Vec::new(); count];
    let mut weights = vec![0usize; count];
    for r in order {
        let lightest = (0..count)
            .min_by_key(|&b| weights[b])
            .expect("a partition has at least one region");
        weights[lightest] += regions[r].stmts.len();
        batches[lightest].push(r);
    }
    for batch in &mut batches {
        batch.sort_unstable();
    }
    batches
}

/// Pointwise join of two frames. Public (hidden) for the lattice-law
/// property suite; the Jacobi merge relies on this being a semilattice
/// join (commutative, associative, idempotent, monotone).
#[doc(hidden)]
pub fn join_env(a: &Env, b: &Env, bound: usize) -> Env {
    debug_assert_eq!(a.locals.len(), b.locals.len());
    Env {
        locals: a
            .locals
            .iter()
            .zip(&b.locals)
            .map(|(x, y)| x.join(y, bound))
            .collect(),
        ret: a.ret.join(&b.ret, bound),
    }
}

/// Pointwise aging of a frame (`⊕` of rule TWhile).
#[doc(hidden)]
pub fn age_env(env: &Env) -> Env {
    Env {
        locals: env.locals.iter().map(Val::age).collect(),
        ret: env.ret.age(),
    }
}

/// Ages a whole abstract heap: fresh-generation cells move to the old
/// generation (joining with any existing old cell) and every value is
/// aged. Public (hidden) so the property suite can check monotonicity.
#[doc(hidden)]
pub fn age_heap_map(heap: BTreeMap<HeapKey, Val>, bound: usize) -> BTreeMap<HeapKey, Val> {
    let mut aged: BTreeMap<HeapKey, Val> = BTreeMap::new();
    for ((key, gen, field), val) in heap {
        let new_gen = match gen {
            Gen::Fresh => Gen::Old,
            other => other,
        };
        let new_val = val.age();
        let entry = aged.entry((key, new_gen, field)).or_default();
        *entry = entry.join(&new_val, bound);
    }
    aged
}

#[cfg(test)]
mod tests {
    use super::*;
    use leakchecker_callgraph::Algorithm;

    /// A plain loop nested in the designated loop whose iteration loads
    /// a `⊤̂` cell through a persistent (outside) base — the flow-back
    /// strong update rewrites it to `f̂` — and then weak-stores the aged
    /// `x` (`⊤̂`) back, so the cell returns to `f̂ ⊔ ⊤̂ = ⊤̂`. Every
    /// iteration writes the cell but none changes it: a convergence test
    /// that counted writes would never stabilize and would truncate. The
    /// expected summary was recorded from the engine that compared
    /// whole-heap snapshots.
    #[test]
    fn oscillating_cell_converges_by_value() {
        let unit = leakchecker_frontend::compile(
            "class Item { }
             class Holder { Item f; }
             class Main {
               static void main() {
                 Holder h = new Holder();
                 Item x = null;
                 @check while (nondet()) {
                   while (nondet()) {
                     Item y = h.f;
                     h.f = x;
                   }
                   x = new Item();
                 }
               }
             }",
        )
        .expect("subject compiles");
        let cg = CallGraph::build(&unit.program, Algorithm::Rta);
        let holder = AbsType::site(AllocSite(0), Era::Outside);
        let effect = |era| AbsEffect {
            value: AbsType::site(AllocSite(1), era),
            field: FieldId(1),
            base: EffectBase::Type(holder),
            inside_loop: true,
            in_library: false,
        };
        for jobs in [1, 2] {
            let summary = analyze(
                &unit.program,
                &cg,
                unit.checked_loops[0],
                EffectConfig {
                    jobs,
                    ..EffectConfig::default()
                },
            );
            assert!(!summary.truncated, "jobs={jobs}: the plain loop truncated");
            assert_eq!(summary.rounds, 4, "jobs={jobs}");
            assert_eq!(
                summary.eras,
                HashMap::from([(AllocSite(1), Era::Top)]),
                "jobs={jobs}"
            );
            assert_eq!(summary.stores, BTreeSet::from([effect(Era::Top)]));
            assert_eq!(summary.loads, BTreeSet::from([effect(Era::Future)]));
            assert_eq!(summary.inside_sites, BTreeSet::from([AllocSite(1)]));
            assert!(summary.returned_from_library.is_empty());
            assert!(summary.started_threads.is_empty());
        }
    }

    /// An inner plain loop's write must reach the enclosing plain loop's
    /// convergence test: the outer loop has to run again so the load at
    /// its head sees the cell the inner loop filled. If the inner frame's
    /// journal were dropped instead of folded outward, the outer loop
    /// would stop after one iteration and miss the load effect.
    #[test]
    fn nested_plain_loops_see_inner_writes() {
        let unit = leakchecker_frontend::compile(
            "class Item { }
             class Holder { Item f; }
             class Main {
               static void main() {
                 Holder h = new Holder();
                 Item a = new Item();
                 while (nondet()) {
                   Item y = h.f;
                   while (nondet()) {
                     h.f = a;
                   }
                 }
                 @check while (nondet()) { }
               }
             }",
        )
        .expect("subject compiles");
        let cg = CallGraph::build(&unit.program, Algorithm::Rta);
        let summary = analyze(
            &unit.program,
            &cg,
            unit.checked_loops[0],
            EffectConfig::default(),
        );
        let load = AbsEffect {
            value: AbsType::site(AllocSite(1), Era::Outside),
            field: FieldId(1),
            base: EffectBase::Type(AbsType::site(AllocSite(0), Era::Outside)),
            inside_loop: false,
            in_library: false,
        };
        assert_eq!(summary.loads, BTreeSet::from([load]));
        assert!(!summary.truncated);
    }

    /// Heap aging under an open plain-loop frame must be journaled. In
    /// the plain loop's second iteration the designated loop ages
    /// `h.k` from `ĉ` to `⊤̂`, and only then does the store after the
    /// loop touch the cell, joining it to the value it already holds.
    /// The plain loop must still see `ĉ → ⊤̂` as a change and run a
    /// third iteration (one more designated round, 6 in all, as the
    /// whole-heap comparison did); if aging went unjournaled, the
    /// store's first touch would record `⊤̂` and the loop would stop
    /// at 5 rounds. The designated body splits into two regions, so at
    /// jobs=2 the rounds also merge region overlays under the open frame.
    #[test]
    fn aging_under_a_plain_loop_is_journaled() {
        let unit = leakchecker_frontend::compile(
            "class Item { }
             class Tag { }
             class Holder { Item k; Tag t; }
             class Main {
               static void main() {
                 Holder h = new Holder();
                 Item x = null;
                 while (nondet()) {
                   @check while (nondet()) {
                     x = new Item();
                     h.t = new Tag();
                   }
                   h.k = x;
                 }
               }
             }",
        )
        .expect("subject compiles");
        let cg = CallGraph::build(&unit.program, Algorithm::Rta);
        for jobs in [1, 2] {
            let summary = analyze(
                &unit.program,
                &cg,
                unit.checked_loops[0],
                EffectConfig {
                    jobs,
                    ..EffectConfig::default()
                },
            );
            assert_eq!(summary.rounds, 6, "jobs={jobs}");
            assert!(!summary.truncated, "jobs={jobs}");
            assert_eq!(summary.regions, if jobs == 1 { 0 } else { 2 });
        }
    }

    /// A Jacobi round run under an open plain-loop frame must journal
    /// its overlay merge. Both designated-loop stores write outside
    /// values into outside cells, which aging leaves alone, so the merge
    /// is the only write the enclosing plain loop can see. It has to run
    /// a second iteration for the load at its head to observe `h.k`.
    #[test]
    fn jacobi_merge_under_a_plain_loop_is_journaled() {
        let unit = leakchecker_frontend::compile(
            "class Item { }
             class Tag { }
             class Holder { Item k; Tag t; }
             class Main {
               static void main() {
                 Holder h = new Holder();
                 Item a = new Item();
                 Tag t = new Tag();
                 while (nondet()) {
                   Item y = h.k;
                   @check while (nondet()) {
                     h.k = a;
                     h.t = t;
                   }
                 }
               }
             }",
        )
        .expect("subject compiles");
        let cg = CallGraph::build(&unit.program, Algorithm::Rta);
        let head_load = AbsEffect {
            value: AbsType::site(AllocSite(1), Era::Outside),
            field: FieldId(1),
            base: EffectBase::Type(AbsType::site(AllocSite(0), Era::Outside)),
            inside_loop: false,
            in_library: false,
        };
        for jobs in [1, 2] {
            let summary = analyze(
                &unit.program,
                &cg,
                unit.checked_loops[0],
                EffectConfig {
                    jobs,
                    ..EffectConfig::default()
                },
            );
            assert!(summary.loads.contains(&head_load), "jobs={jobs}");
            assert_eq!(summary.rounds, 4, "jobs={jobs}");
            assert_eq!(summary.regions, if jobs == 1 { 0 } else { 2 });
        }
    }

    /// Analyzes `source` at jobs 1 and 2 and hands each summary to
    /// `check` with its width.
    fn at_jobs_1_and_2(source: &str, check: impl Fn(usize, EffectSummary)) {
        let unit = leakchecker_frontend::compile(source).expect("subject compiles");
        let cg = CallGraph::build(&unit.program, Algorithm::Rta);
        for jobs in [1, 2] {
            let config = EffectConfig {
                jobs,
                ..EffectConfig::default()
            };
            check(
                jobs,
                analyze(&unit.program, &cg, unit.checked_loops[0], config),
            );
        }
    }

    /// A store of `value` into field `field` of the outside holder
    /// allocated at site 0.
    fn holder_store(value: AbsType, field: u32, inside_loop: bool) -> AbsEffect {
        AbsEffect {
            value,
            field: FieldId(field),
            base: EffectBase::Type(AbsType::site(AllocSite(0), Era::Outside)),
            inside_loop,
            in_library: false,
        }
    }

    /// An `if` whose `then` assigns a reference local and whose `else`
    /// leaves it alone: after the join `x` holds old ⊔ new, so the store
    /// records both the outside item and the fresh one. The second pair
    /// of statements is an independent region, so jobs=2 runs a batched
    /// round. Expected summary recorded from the engine that joined
    /// whole-frame copies.
    #[test]
    fn if_join_keeps_the_untouched_branch_value() {
        let source = "class Item { }
             class Tag { }
             class Holder { Item f; Tag t; }
             class Main {
               static void main() {
                 Holder h = new Holder();
                 Item x = new Item();
                 @check while (nondet()) {
                   if (nondet()) { x = new Item(); }
                   h.f = x;
                   Tag t = new Tag();
                   h.t = t;
                 }
               }
             }";
        at_jobs_1_and_2(source, |jobs, summary| {
            let stores = BTreeSet::from([
                holder_store(AbsType::site(AllocSite(1), Era::Outside), 1, true),
                holder_store(AbsType::site(AllocSite(2), Era::Current), 1, true),
                holder_store(AbsType::site(AllocSite(2), Era::Top), 1, true),
                holder_store(AbsType::site(AllocSite(3), Era::Current), 2, true),
            ]);
            assert_eq!(summary.stores, stores, "jobs={jobs}");
            assert_eq!(
                summary.eras,
                HashMap::from([(AllocSite(2), Era::Top), (AllocSite(3), Era::Top)]),
                "jobs={jobs}"
            );
            assert!(summary.loads.is_empty(), "jobs={jobs}");
            assert_eq!(summary.rounds, 3, "jobs={jobs}");
            assert!(!summary.truncated, "jobs={jobs}");
            assert_eq!(summary.regions, if jobs == 1 { 0 } else { 2 });
        });
    }

    /// `return` in both branches of a callee's `if`: the caller sees the
    /// joined return value, so the store after the call records both
    /// arguments. Expected summary recorded from the engine that joined
    /// whole-frame copies.
    #[test]
    fn if_join_keeps_both_branch_returns() {
        let source = "class Item { }
             class Tag { }
             class Holder { Item f; Tag t; }
             class Maker {
               Item pick(Item a, Item b) {
                 if (nondet()) { return a; } else { return b; }
               }
             }
             class Main {
               static void main() {
                 Holder h = new Holder();
                 Maker m = new Maker();
                 Item a = new Item();
                 @check while (nondet()) {
                   Item b = new Item();
                   Item r = m.pick(a, b);
                   h.f = r;
                   Tag t = new Tag();
                   h.t = t;
                 }
               }
             }";
        at_jobs_1_and_2(source, |jobs, summary| {
            let stores = BTreeSet::from([
                holder_store(AbsType::site(AllocSite(2), Era::Outside), 1, true),
                holder_store(AbsType::site(AllocSite(3), Era::Current), 1, true),
                holder_store(AbsType::site(AllocSite(4), Era::Current), 2, true),
            ]);
            assert_eq!(summary.stores, stores, "jobs={jobs}");
            assert_eq!(
                summary.eras,
                HashMap::from([(AllocSite(3), Era::Top), (AllocSite(4), Era::Top)]),
                "jobs={jobs}"
            );
            assert!(summary.loads.is_empty(), "jobs={jobs}");
            assert_eq!(summary.rounds, 3, "jobs={jobs}");
            assert!(!summary.truncated, "jobs={jobs}");
            assert_eq!(summary.regions, if jobs == 1 { 0 } else { 2 });
        });
    }

    /// An `if` that contains the designated loop saves and joins every
    /// local of the frame. In the plain loop's second iteration `z`
    /// holds the inside item at `ĉ`; the designated loop in `then` ages
    /// every local of the frame, `z` included, though `z` is not
    /// written there. The `else` branch must still see the entry value
    /// `ĉ`, not the aged `⊤̂`. Expected summary recorded from the engine
    /// that joined whole-frame copies.
    #[test]
    fn if_around_the_designated_loop_joins_every_local() {
        let source = "class Item { }
             class Holder { Item f; }
             class Main {
               static void main() {
                 Holder h = new Holder();
                 Item y = null;
                 Item z = null;
                 while (nondet()) {
                   if (nondet()) {
                     @check while (nondet()) { y = new Item(); }
                   } else {
                     h.f = z;
                   }
                   z = y;
                 }
               }
             }";
        at_jobs_1_and_2(source, |jobs, summary| {
            let stores = BTreeSet::from([holder_store(
                AbsType::site(AllocSite(1), Era::Current),
                1,
                false,
            )]);
            assert_eq!(summary.stores, stores, "jobs={jobs}");
            assert_eq!(
                summary.eras,
                HashMap::from([(AllocSite(1), Era::Top)]),
                "jobs={jobs}"
            );
            assert!(summary.loads.is_empty(), "jobs={jobs}");
            assert_eq!(summary.rounds, 8, "jobs={jobs}");
            assert!(!summary.truncated, "jobs={jobs}");
        });
    }
}
