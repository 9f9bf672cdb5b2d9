//! Durable, self-validating persistent summary cache.
//!
//! A `check` is a pure function of the analyzed program, the target and
//! the detector configuration — the whole pipeline is deterministic at
//! every job count. This module exploits that purity to make re-checks
//! incremental: the rendered result of each target is persisted under a
//! *content key* derived from per-method summaries, and a warm re-check
//! replays the stored bytes instead of re-running the analysis.
//!
//! # Keying scheme
//!
//! Each method gets two content hashes ([`Fnv`], a 64-bit streaming
//! hash, over a walk of its IR body — no pretty-printing on the warm
//! path):
//!
//! * the **exact hash** covers every statement detail and changes on
//!   any edit; it drives delta diagnostics (`cache_invalidated`);
//! * the **semantic hash** normalizes detail *no static analysis in
//!   this workspace observes*: integer/boolean constants, arithmetic
//!   operators, branch and loop predicates (the analyses treat every
//!   condition as non-deterministic — see `leakchecker_ir::stmt`), and
//!   array index operands. Everything heap- or call-relevant (allocation
//!   sites, copies, loads, stores, call targets and argument wiring,
//!   control structure, loop identities) stays in the hash.
//!
//! Semantic hashes compose bottom-up over the call graph's SCC
//! condensation: a method's **composed key** folds its own semantic
//! hash with its SCC's signature and the composed keys of callee SCCs,
//! so an edit invalidates exactly the methods that can reach it —
//! transitive invalidation falls out of the hash chaining, and the
//! invalidation telemetry counts it. The result record of a target is
//! keyed by the semantic hash of *every* method, a **shape
//! fingerprint** (class/field/method tables, allocation-site and loop
//! numbering, `@leak`/`@fp` labels, the entry point — the id spaces
//! every analysis and report renderer indexes into), the target, and a
//! fingerprint of the detector configuration (with worker counts
//! normalized out: reports are jobs-invariant by construction). Keying
//! on every method rather than on the entry's composed key costs a
//! miss when an edit touches only methods the check never reaches, and
//! in exchange a warm lookup ([`target_key`]) is one hashing pass with
//! no call graph.
//!
//! Equal keys therefore imply that a cold run would traverse the same
//! call graph over bodies that differ only in analysis-invisible
//! detail, and would render byte-identical output — which is what the
//! warm/cold CI gates re-verify empirically.
//!
//! # Record format and crash safety
//!
//! The store is a single append-only file (`summaries.lkc`), reusing
//! the fuzz journal's idioms: a header line binds magic and format
//! epoch; every record is one line
//!
//! ```text
//! <kind> <epoch> <sum16hex> <len> <key> <payload>\n
//! ```
//!
//! with the key escaped (`\\`, `\n`, space as `\s`), the payload — the
//! rest of the line — escaped (`\\`, `\n`), `len` the unescaped payload
//! length, and the checksum mixing kind, epoch and the escaped bytes
//! after the checksum field a word at a time. The trailing newline
//! certifies the commit; each commit is one fsync'd append. On load, a
//! record failing magic/epoch/field/escape/length/checksum validation
//! is quarantined and treated as a miss — **corruption degrades to a
//! miss, never to a wrong answer** — with the cause counted in
//! `cache_corrupt_recovered`. A torn tail (kill -9 mid-commit) is
//! truncated away exactly like the journal's resume path; interior
//! damage triggers a compacting rewrite of the surviving records
//! through [`write_atomic`].
//!
//! Loading is one read and one pass over the file's bytes, which stay
//! the store's only copy: every record is checked in place, result
//! records are indexed as key → payload range (a hit unescapes and
//! decodes only its own payload), and the per-method map is built only
//! when a miss or a delta first asks for it.
//!
//! Runs that are witness-recording, fault-injected, wall-clock-governed
//! or degraded are never cached: their outputs depend on state outside
//! the content key.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{Read as _, Write as _};
use std::ops::Range;
use std::path::{Path, PathBuf};

use crate::detect::DetectorConfig;
use crate::persist::write_atomic;
use crate::target::CheckTarget;
use leakchecker_callgraph::CallGraph;
use leakchecker_ir::{Cond, MethodId, Operand, Program, SiteLabel, Stmt, Type};

/// Store file magic.
pub const CACHE_MAGIC: &str = "LKCACHE";
/// Format epoch: bump on any incompatible change to the record format
/// *or* the keying scheme — stale files then load as all-miss.
pub const CACHE_EPOCH: u32 = 3;
/// Store file name inside the cache directory.
pub const CACHE_FILE: &str = "summaries.lkc";

/// Test hook (kill -9 mid-commit): when set to a byte count `N`, the
/// next record append writes at most `N` bytes of the line, skips the
/// fsync, and aborts the process — a deterministic stand-in for a
/// process dying mid-write with a torn, uncertified record on disk.
pub const TEAR_ENV: &str = "LEAKC_CACHE_TEAR_AT";

// ---------------------------------------------------------------------
// Hashing
// ---------------------------------------------------------------------

/// One word-at-a-time mixing step: a bijection of `state` for a fixed
/// `word` and of `word` for a fixed `state`.
fn mix(state: u64, word: u64) -> u64 {
    (state.rotate_left(23) ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Streaming 64-bit hasher (the workspace is hermetic: no external hash
/// crates). Byte strings go through FNV-1a, the journal's checksum
/// lineage; an integer is absorbed whole in one [`mix`] step, so keying
/// a statement costs a few multiplies instead of one per byte.
#[derive(Copy, Clone, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fresh hasher with the FNV-1a offset basis.
    pub fn new() -> Fnv {
        Fnv::default()
    }

    /// Absorbs raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Fnv {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Absorbs a `u64` in one step.
    pub fn u64(&mut self, v: u64) -> &mut Fnv {
        self.0 = mix(self.0, v);
        self
    }

    /// Absorbs a `u32` in one step.
    pub fn u32(&mut self, v: u32) -> &mut Fnv {
        self.u64(u64::from(v))
    }

    /// Absorbs a one-byte tag (statement/operand discriminants).
    pub fn tag(&mut self, t: u8) -> &mut Fnv {
        self.bytes(&[t])
    }

    /// Absorbs a length-prefixed string.
    pub fn str(&mut self, s: &str) -> &mut Fnv {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes())
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// One-shot FNV-1a 64 over a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.bytes(bytes);
    h.finish()
}

// ---------------------------------------------------------------------
// Content hashing
// ---------------------------------------------------------------------

/// The two content hashes of one method plus its composed key.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct MethodKey {
    /// Hash of the full body — changes on any edit.
    pub exact: u64,
    /// Hash of the analysis-relevant projection of the body.
    pub sem: u64,
    /// `sem` composed with the callee closure (SCC condensation).
    pub composed: u64,
}

/// All content keys of one compiled program, for one entry point and
/// detector configuration.
#[derive(Clone, Debug)]
pub struct ProgramKeys {
    /// Shape fingerprint: tables and id spaces (see module docs).
    pub shape: u64,
    /// Per-method keys, by qualified name, for every method.
    pub methods: BTreeMap<String, MethodKey>,
    /// The format epoch, shape fingerprint, entry point and every
    /// method's semantic hash, folded into one key.
    pub root_key: u64,
}

impl ProgramKeys {
    /// The result-record key for a target under a configuration.
    pub fn result_key(&self, target: CheckTarget, config: &DetectorConfig) -> u64 {
        fold_result_key(self.root_key, target, config)
    }
}

/// The result-record key of `target` over `program` (rooted at `root`)
/// under `config` — equal to [`ProgramKeys::result_key`] of
/// [`compute_keys`], but computed without a call graph or the
/// per-method table, so a warm hit pays one hashing pass.
pub fn target_key(
    program: &Program,
    root: MethodId,
    target: CheckTarget,
    config: &DetectorConfig,
) -> u64 {
    let sem = (0..program.methods().len()).map(|i| hash_method(program, MethodId::from_index(i)).1);
    let root_key = fold_root_key(shape_fingerprint(program), root, sem);
    fold_result_key(root_key, target, config)
}

/// Folds the format epoch, the shape fingerprint, the entry point and
/// every method's semantic hash (in id order) into a root key.
fn fold_root_key(shape: u64, root: MethodId, sem: impl ExactSizeIterator<Item = u64>) -> u64 {
    let mut h = Fnv::new();
    h.u32(CACHE_EPOCH).u64(shape).u32(root.0);
    h.u64(sem.len() as u64);
    for s in sem {
        h.u64(s);
    }
    h.finish()
}

fn fold_result_key(root_key: u64, target: CheckTarget, config: &DetectorConfig) -> u64 {
    let mut h = Fnv::new();
    h.u64(root_key);
    match target {
        CheckTarget::Loop(l) => {
            h.tag(1).u32(l.0);
        }
        CheckTarget::Region(m) => {
            h.tag(2).u32(m.0);
        }
    }
    h.u64(config_fingerprint(config));
    h.finish()
}

fn hash_type(h: &mut Fnv, ty: &Type) {
    match ty {
        Type::Int => {
            h.tag(1);
        }
        Type::Bool => {
            h.tag(2);
        }
        Type::Void => {
            h.tag(3);
        }
        Type::Ref(c) => {
            h.tag(4).u32(c.0);
        }
        Type::Array(elem) => {
            h.tag(5);
            hash_type(h, elem);
        }
    }
}

/// Exact-hash an operand; the semantic hash keeps the local reference
/// but normalizes constants (analyses never read them).
fn hash_operand(exact: &mut Fnv, sem: &mut Fnv, op: &Operand) {
    match op {
        Operand::Local(l) => {
            exact.tag(1).u32(l.0);
            sem.tag(1).u32(l.0);
        }
        Operand::Const(v) => {
            exact.tag(2).u64(*v as u64);
            sem.tag(2);
        }
    }
}

fn hash_cond(exact: &mut Fnv, sem: &mut Fnv, cond: &Cond) {
    // Every static analysis treats conditions as non-deterministic (both
    // branches join), so the semantic hash sees only "a condition".
    sem.tag(0x20);
    match cond {
        Cond::NonDet => {
            exact.tag(0x21);
        }
        Cond::IsNull(l) => {
            exact.tag(0x22).u32(l.0);
        }
        Cond::NotNull(l) => {
            exact.tag(0x23).u32(l.0);
        }
        Cond::Cmp { op, lhs, rhs } => {
            exact.tag(0x24).tag(*op as u8);
            let mut scratch = Fnv::new();
            hash_operand(exact, &mut scratch, lhs);
            hash_operand(exact, &mut scratch, rhs);
        }
        Cond::Local(l) => {
            exact.tag(0x25).u32(l.0);
        }
        Cond::NotLocal(l) => {
            exact.tag(0x26).u32(l.0);
        }
    }
}

fn hash_stmts(exact: &mut Fnv, sem: &mut Fnv, stmts: &[Stmt]) {
    exact.u64(stmts.len() as u64);
    sem.u64(stmts.len() as u64);
    for stmt in stmts {
        hash_stmt(exact, sem, stmt);
    }
}

fn hash_stmt(exact: &mut Fnv, sem: &mut Fnv, stmt: &Stmt) {
    match stmt {
        Stmt::New { dst, class, site } => {
            exact.tag(1).u32(dst.0).u32(class.0).u32(site.0);
            sem.tag(1).u32(dst.0).u32(class.0).u32(site.0);
        }
        Stmt::NewArray {
            dst,
            elem,
            len,
            site,
        } => {
            exact.tag(2).u32(dst.0).u32(site.0);
            sem.tag(2).u32(dst.0).u32(site.0);
            hash_type(exact, elem);
            hash_type(sem, elem);
            // The length operand is analysis-invisible.
            let mut scratch = Fnv::new();
            hash_operand(exact, &mut scratch, len);
        }
        Stmt::Assign { dst, src } => {
            exact.tag(3).u32(dst.0).u32(src.0);
            sem.tag(3).u32(dst.0).u32(src.0);
        }
        Stmt::AssignNull { dst } => {
            exact.tag(4).u32(dst.0);
            sem.tag(4).u32(dst.0);
        }
        Stmt::Const { dst, value } => {
            exact.tag(5).u32(dst.0).u64(*value as u64);
            sem.tag(5).u32(dst.0);
        }
        Stmt::NonDetBool { dst } => {
            exact.tag(6).u32(dst.0);
            sem.tag(6).u32(dst.0);
        }
        Stmt::BinOp { dst, op, lhs, rhs } => {
            exact.tag(7).u32(dst.0).tag(*op as u8);
            sem.tag(7).u32(dst.0);
            hash_operand(exact, sem, lhs);
            hash_operand(exact, sem, rhs);
        }
        Stmt::Load { dst, base, field } => {
            exact.tag(8).u32(dst.0).u32(base.0).u32(field.0);
            sem.tag(8).u32(dst.0).u32(base.0).u32(field.0);
        }
        Stmt::Store { base, field, src } => {
            exact.tag(9).u32(base.0).u32(field.0).u32(src.0);
            sem.tag(9).u32(base.0).u32(field.0).u32(src.0);
        }
        Stmt::ArrayLoad { dst, base, index } => {
            exact.tag(10).u32(dst.0).u32(base.0);
            sem.tag(10).u32(dst.0).u32(base.0);
            let mut scratch = Fnv::new();
            hash_operand(exact, &mut scratch, index);
        }
        Stmt::ArrayStore { base, index, src } => {
            exact.tag(11).u32(base.0).u32(src.0);
            sem.tag(11).u32(base.0).u32(src.0);
            let mut scratch = Fnv::new();
            hash_operand(exact, &mut scratch, index);
        }
        Stmt::StaticLoad { dst, field } => {
            exact.tag(12).u32(dst.0).u32(field.0);
            sem.tag(12).u32(dst.0).u32(field.0);
        }
        Stmt::StaticStore { field, src } => {
            exact.tag(13).u32(field.0).u32(src.0);
            sem.tag(13).u32(field.0).u32(src.0);
        }
        Stmt::Call {
            dst,
            kind,
            method,
            receiver,
            args,
            site,
        } => {
            for h in [&mut *exact, &mut *sem] {
                h.tag(14);
                match dst {
                    Some(d) => h.tag(1).u32(d.0),
                    None => h.tag(0),
                };
                h.tag(*kind as u8).u32(method.0);
                match receiver {
                    Some(r) => h.tag(1).u32(r.0),
                    None => h.tag(0),
                };
                h.u64(args.len() as u64);
                for a in args {
                    h.u32(a.0);
                }
                h.u32(site.0);
            }
        }
        Stmt::Return(v) => {
            for h in [&mut *exact, &mut *sem] {
                h.tag(15);
                match v {
                    Some(l) => h.tag(1).u32(l.0),
                    None => h.tag(0),
                };
            }
        }
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        } => {
            exact.tag(16);
            sem.tag(16);
            hash_cond(exact, sem, cond);
            hash_stmts(exact, sem, then_branch);
            hash_stmts(exact, sem, else_branch);
        }
        Stmt::While { id, cond, body } => {
            exact.tag(17).u32(id.0);
            sem.tag(17).u32(id.0);
            hash_cond(exact, sem, cond);
            hash_stmts(exact, sem, body);
        }
        Stmt::Break => {
            exact.tag(18);
            sem.tag(18);
        }
        Stmt::Continue => {
            exact.tag(19);
            sem.tag(19);
        }
        Stmt::Nop => {
            exact.tag(20);
            sem.tag(20);
        }
    }
}

/// Hashes one method: signature + locals into both hashes, body
/// statements via the exact/semantic split.
fn hash_method(program: &Program, method: MethodId) -> (u64, u64) {
    let m = program.method(method);
    let mut exact = Fnv::new();
    let mut sem = Fnv::new();
    for h in [&mut exact, &mut sem] {
        h.str(&m.name);
        h.u32(m.owner.0);
        h.tag(u8::from(m.is_static));
        h.u64(m.param_count as u64);
        hash_type(h, &m.ret_ty);
        h.u64(m.locals.len() as u64);
        for local in &m.locals {
            hash_type(h, &local.ty);
        }
    }
    hash_stmts(&mut exact, &mut sem, &m.body);
    (exact.finish(), sem.finish())
}

/// Shape fingerprint: every table whose id space a report or analysis
/// indexes into. Two programs with equal fingerprints assign identical
/// meanings (and render text) to every `ClassId`, `FieldId`,
/// `MethodId`, `AllocSite`, `CallSite` and `LoopId`.
fn shape_fingerprint(program: &Program) -> u64 {
    let mut h = Fnv::new();
    h.str(CACHE_MAGIC).u32(CACHE_EPOCH);
    h.u64(program.classes().len() as u64);
    for class in program.classes() {
        h.str(&class.name);
        match class.superclass {
            Some(s) => h.tag(1).u32(s.0),
            None => h.tag(0),
        };
        h.tag(u8::from(class.is_library));
        h.u64(class.fields.len() as u64);
        for f in &class.fields {
            h.u32(f.0);
        }
        h.u64(class.methods.len() as u64);
        for m in &class.methods {
            h.u32(m.0);
        }
    }
    h.u64(program.fields().len() as u64);
    for field in program.fields() {
        h.str(&field.name);
        match field.owner {
            Some(c) => h.tag(1).u32(c.0),
            None => h.tag(0),
        };
        hash_type(&mut h, &field.ty);
        h.tag(u8::from(field.is_static));
    }
    h.u64(program.methods().len() as u64);
    for method in program.methods() {
        h.str(&method.name);
        h.u32(method.owner.0);
        h.tag(u8::from(method.is_static));
        h.u64(method.param_count as u64);
    }
    // Site tables pin the global numbering: an edit that adds or moves
    // an allocation/call/loop anywhere shifts ids and misses.
    h.u64(program.allocs().len() as u64);
    for alloc in program.allocs() {
        h.u32(alloc.method.0);
        hash_type(&mut h, &alloc.ty);
        h.str(&alloc.describe);
        match &alloc.label {
            SiteLabel::None => h.tag(0),
            SiteLabel::Leak => h.tag(1),
            SiteLabel::FalsePositive(reason) => h.tag(2).str(reason),
        };
    }
    h.u64(program.calls().len() as u64);
    for call in program.calls() {
        h.u32(call.method.0);
    }
    h.u64(program.loops().len() as u64);
    for lp in program.loops() {
        h.u32(lp.method.0);
        h.tag(u8::from(lp.synthetic));
    }
    match program.entry() {
        Some(e) => h.tag(1).u32(e.0),
        None => h.tag(0),
    };
    h.finish()
}

/// Fingerprint of the analysis-relevant configuration. Worker counts
/// are normalized out — rendered reports are jobs-invariant (the
/// repo-wide determinism contract), so a warm hit may serve any
/// `--jobs`.
pub fn config_fingerprint(config: &DetectorConfig) -> u64 {
    let mut normalized = *config;
    normalized.jobs = 0;
    normalized.effects.jobs = 0;
    fnv1a(format!("{normalized:?}").as_bytes())
}

/// `true` when a run under this configuration may consult and populate
/// the cache: witness recording, injected faults and wall-clock
/// deadlines all make output depend on state outside the content key.
pub fn cacheable_config(config: &DetectorConfig) -> bool {
    !config.witnesses
        && !config.governor.faults.is_active()
        && config.governor.deadline_ms.is_none()
}

/// Computes all content keys for `program` rooted at `root`.
///
/// Builds a call graph with `algorithm` (the same construction `check`
/// uses) for the callee relation; methods outside the reachable closure
/// get `composed = sem`. The composed keys drive invalidation
/// telemetry ([`SummaryCache::sync_methods`]); `root_key` folds every
/// method's semantic hash and needs no call graph (see [`target_key`]).
pub fn compute_keys(
    program: &Program,
    root: MethodId,
    algorithm: leakchecker_callgraph::Algorithm,
) -> ProgramKeys {
    let callgraph = CallGraph::build_from(program, &[root], algorithm);
    let mut reachable = vec![false; program.methods().len()];
    for m in callgraph.reachable_methods() {
        reachable[m.0 as usize] = true;
    }
    let n = program.methods().len();
    let mut exact = vec![0u64; n];
    let mut sem = vec![0u64; n];
    for i in 0..n {
        let (e, s) = hash_method(program, MethodId(i as u32));
        exact[i] = e;
        sem[i] = s;
    }

    // Callee adjacency over the reachable closure.
    let mut callees: Vec<Vec<usize>> = vec![Vec::new(); n];
    for method in callgraph.reachable_methods() {
        let mut out = Vec::new();
        collect_call_sites(&program.method(method).body, &mut |site| {
            for &target in callgraph.targets(site) {
                out.push(target.0 as usize);
            }
        });
        out.sort_unstable();
        out.dedup();
        callees[method.0 as usize] = out;
    }

    let scc = condense(n, &callees, &reachable);
    // SCCs come out of Tarjan in reverse topological order (callees
    // before callers), so one pass composes bottom-up.
    let mut scc_key: Vec<u64> = vec![0; scc.count];
    let mut composed = vec![0u64; n];
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); scc.count];
    for (v, &c) in scc.of.iter().enumerate() {
        if let Some(c) = c {
            members[c].push(v);
        }
    }
    for c in 0..scc.count {
        let mut h = Fnv::new();
        members[c].sort_unstable();
        h.u64(members[c].len() as u64);
        for &v in &members[c] {
            h.str(&program.qualified_name(MethodId(v as u32)));
            h.u64(sem[v]);
        }
        let mut callee_keys: Vec<u64> = members[c]
            .iter()
            .flat_map(|&v| callees[v].iter())
            .filter(|&&w| scc.of[w] != Some(c))
            .map(|&w| scc_key[scc.of[w].expect("callee of reachable method is reachable")])
            .collect();
        callee_keys.sort_unstable();
        callee_keys.dedup();
        h.u64(callee_keys.len() as u64);
        for k in callee_keys {
            h.u64(k);
        }
        scc_key[c] = h.finish();
        for &v in &members[c] {
            let mut hc = Fnv::new();
            hc.u64(sem[v]).u64(scc_key[c]);
            composed[v] = hc.finish();
        }
    }

    let shape = shape_fingerprint(program);
    let mut methods = BTreeMap::new();
    for i in 0..n {
        let comp = if scc.of[i].is_some() {
            composed[i]
        } else {
            sem[i]
        };
        methods.insert(
            program.qualified_name(MethodId(i as u32)),
            MethodKey {
                exact: exact[i],
                sem: sem[i],
                composed: comp,
            },
        );
    }
    ProgramKeys {
        shape,
        methods,
        root_key: fold_root_key(shape, root, sem.into_iter()),
    }
}

fn collect_call_sites(stmts: &[Stmt], sink: &mut impl FnMut(leakchecker_ir::CallSite)) {
    for stmt in stmts {
        match stmt {
            Stmt::Call { site, .. } => sink(*site),
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                collect_call_sites(then_branch, sink);
                collect_call_sites(else_branch, sink);
            }
            Stmt::While { body, .. } => collect_call_sites(body, sink),
            _ => {}
        }
    }
}

/// Iterative Tarjan SCC over the reachable sub-graph. `of[v]` is the
/// SCC index of `v` (`None` for unreachable methods); SCC indices are
/// assigned in reverse topological order (callees first).
struct SccResult {
    of: Vec<Option<usize>>,
    count: usize,
}

fn condense(n: usize, callees: &[Vec<usize>], reachable: &[bool]) -> SccResult {
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut of: Vec<Option<usize>> = vec![None; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut count = 0usize;

    enum Frame {
        Enter(usize),
        Resume(usize, usize),
    }

    for start in 0..n {
        if !reachable[start] || index[start] != usize::MAX {
            continue;
        }
        let mut work = vec![Frame::Enter(start)];
        while let Some(frame) = work.pop() {
            match frame {
                Frame::Enter(v) => {
                    index[v] = next_index;
                    low[v] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[v] = true;
                    work.push(Frame::Resume(v, 0));
                }
                Frame::Resume(v, mut i) => {
                    let mut descended = false;
                    while i < callees[v].len() {
                        let w = callees[v][i];
                        i += 1;
                        if index[w] == usize::MAX {
                            work.push(Frame::Resume(v, i));
                            work.push(Frame::Enter(w));
                            descended = true;
                            break;
                        } else if on_stack[w] {
                            low[v] = low[v].min(index[w]);
                        }
                    }
                    if descended {
                        continue;
                    }
                    if low[v] == index[v] {
                        loop {
                            let w = stack.pop().expect("tarjan stack underflow");
                            on_stack[w] = false;
                            of[w] = Some(count);
                            if w == v {
                                break;
                            }
                        }
                        count += 1;
                    }
                    // Propagate lowlink to the parent frame, if any.
                    if let Some(Frame::Resume(parent, _)) = work.last() {
                        let parent = *parent;
                        low[parent] = low[parent].min(low[v]);
                    }
                }
            }
        }
    }
    SccResult { of, count }
}

// ---------------------------------------------------------------------
// Cached result payload
// ---------------------------------------------------------------------

/// Everything a warm hit needs to reproduce a cold target's output
/// byte-for-byte: the rendered report, the machine-readable summary
/// fragment, and the deterministic statistics printed around them.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct CachedTarget {
    /// Number of leak reports.
    pub reports_n: u64,
    /// `true` when the run carried degraded confidence (never cached in
    /// practice — kept for payload completeness and forward-compat).
    pub degraded: bool,
    /// Rendered report text (`render_all`).
    pub report: String,
    /// The per-target `--json` fragment, exactly as a cold run emits it.
    pub json: String,
    /// Deterministic counters mirrored from `RunStats`, in declaration
    /// order: methods, statements, loop_objects, leaking_sites,
    /// flow_edges, candidate_sites, refuted_candidates, exhausted,
    /// retries, fallbacks, quarantined, deadline_hits, degraded_reports,
    /// batched_queries, query_batches, effects_rounds.
    pub counters: [u64; 16],
    /// Effects inlining-depth truncation flag.
    pub effects_truncated: bool,
}

impl CachedTarget {
    fn encode(&self) -> String {
        let mut out = String::new();
        out.push_str("v1");
        let _ = write!(
            out,
            "\treports_n={}\tdegraded={}\ttruncated={}",
            self.reports_n, self.degraded, self.effects_truncated
        );
        out.push_str("\tcounters=");
        for (i, c) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{c}");
        }
        let _ = write!(out, "\treport={}", escape(&self.report, FIELD_ESCAPES));
        let _ = write!(out, "\tjson={}", escape(&self.json, FIELD_ESCAPES));
        out
    }

    fn decode(payload: &str) -> Option<CachedTarget> {
        let mut fields = payload.split('\t');
        if fields.next()? != "v1" {
            return None;
        }
        let mut out = CachedTarget::default();
        for field in fields {
            let (key, value) = field.split_once('=')?;
            match key {
                "reports_n" => out.reports_n = value.parse().ok()?,
                "degraded" => out.degraded = value.parse().ok()?,
                "truncated" => out.effects_truncated = value.parse().ok()?,
                "counters" => {
                    let parts: Vec<&str> = value.split(',').collect();
                    if parts.len() != out.counters.len() {
                        return None;
                    }
                    for (slot, part) in out.counters.iter_mut().zip(parts) {
                        *slot = part.parse().ok()?;
                    }
                }
                "report" => out.report = unescape(value, FIELD_ESCAPES)?,
                "json" => out.json = unescape(value, FIELD_ESCAPES)?,
                _ => return None,
            }
        }
        Some(out)
    }
}

/// Escape tables: each listed character is written as a backslash and
/// its letter.
type Escapes = [(char, char)];

/// Payload fields are tab-separated, one payload per line.
const FIELD_ESCAPES: &Escapes = &[('\\', '\\'), ('\t', 't'), ('\n', 'n')];

/// A record key is a space-separated field of a line.
const KEY_ESCAPES: &Escapes = &[('\\', '\\'), ('\n', 'n'), (' ', 's')];

/// A record payload is the rest of its line, so only a newline (and the
/// escape character) needs escaping.
const PAYLOAD_ESCAPES: &Escapes = &[('\\', '\\'), ('\n', 'n')];

/// Escapes every character of `s` listed in `table`, copying each run
/// between them in one `push_str`.
fn escape(s: &str, table: &Escapes) -> String {
    let mut out = String::with_capacity(s.len());
    let mut run = 0;
    for (at, c) in s.char_indices() {
        if let Some(&(_, letter)) = table.iter().find(|&&(raw, _)| raw == c) {
            out.push_str(&s[run..at]);
            out.push('\\');
            out.push(letter);
            run = at + c.len_utf8();
        }
    }
    out.push_str(&s[run..]);
    out
}

/// Inverts [`escape`]; `None` on an escape `table` does not list.
fn unescape(s: &str, table: &Escapes) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(at) = find_byte(rest.as_bytes(), b'\\') {
        out.push_str(&rest[..at]);
        let letter = char::from(*rest.as_bytes().get(at + 1)?);
        let &(raw, _) = table.iter().find(|&&(_, l)| l == letter)?;
        out.push(raw);
        rest = &rest[at + 2..];
    }
    out.push_str(rest);
    Some(out)
}

/// Index of the first `needle` in `hay`.
fn find_byte(hay: &[u8], needle: u8) -> Option<usize> {
    find_any(hay, needle, needle)
}

/// Index of the first `a` or `b` in `hay`, eight bytes at a time.
fn find_any(hay: &[u8], a: u8, b: u8) -> Option<usize> {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    // Flags the zero bytes of `x`. The lowest flag is always a true
    // zero: a false flag can only sit above a true one.
    let zeros = |x: u64| x.wrapping_sub(LO) & !x & HI;
    let (pa, pb) = (LO * u64::from(a), LO * u64::from(b));
    let mut words = hay.chunks_exact(8);
    let mut base = 0;
    for word in &mut words {
        let w = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
        let hits = zeros(w ^ pa) | zeros(w ^ pb);
        if hits != 0 {
            return Some(base + (hits.trailing_zeros() / 8) as usize);
        }
        base += 8;
    }
    let tail = words.remainder();
    tail.iter()
        .position(|&c| c == a || c == b)
        .map(|i| base + i)
}

// ---------------------------------------------------------------------
// Record layer
// ---------------------------------------------------------------------

/// The checksum of a record line: its kind, the format epoch and the
/// body length, then the escaped bytes after the checksum field
/// (`<len> <key> <payload>`), [`mix`]ed a word at a time in two
/// interleaved lanes. Each step is a bijection of its lane for a fixed
/// word and of the word for a fixed lane, so damage confined to one
/// aligned word — any single flipped byte — always changes the sum.
fn record_checksum(kind: u8, body: &[u8]) -> u64 {
    let word = |bytes: &[u8]| u64::from_le_bytes(bytes.try_into().expect("8-byte word"));
    let mut a = mix((u64::from(kind) << 32) | u64::from(CACHE_EPOCH), 0);
    let mut b = mix(!0, body.len() as u64);
    let mut pairs = body.chunks_exact(16);
    for pair in &mut pairs {
        a = mix(a, word(&pair[..8]));
        b = mix(b, word(&pair[8..]));
    }
    let mut tail = [0u8; 16];
    tail[..pairs.remainder().len()].copy_from_slice(pairs.remainder());
    a = mix(a, word(&tail[..8]));
    b = mix(b, word(&tail[8..]));
    let h = mix(a, b.rotate_left(32));
    h ^ (h >> 29)
}

/// Appends one committed record line (including the certifying
/// newline) to `buf`; returns where it lies.
fn push_record(buf: &mut Vec<u8>, kind: u8, key: &str, payload: &str) -> Slot {
    let escaped = escape(payload, PAYLOAD_ESCAPES);
    let body = format!("{} {} {escaped}", payload.len(), escape(key, KEY_ESCAPES));
    let sum = record_checksum(kind, body.as_bytes());
    let line = buf.len();
    let _ = writeln!(buf, "{} {CACHE_EPOCH} {sum:016x} {body}", char::from(kind));
    let end = buf.len() - 1;
    Slot {
        line,
        payload: end - escaped.len()..end,
    }
}

/// A validated record line: its kind and where its escaped key and
/// payload lie, as offsets from the start of the line.
struct Record {
    kind: u8,
    key: Range<usize>,
    payload: Range<usize>,
}

/// Validates the record line at the start of `bytes` in place — kind,
/// epoch, checksum, escapes and `len` — without allocating. The newline
/// is found by the same scan that checks the payload's escapes. Returns
/// the offset of the line's newline and the record, `None` in its place
/// if the line is corrupt; `None` overall when no newline certifies the
/// line (a torn tail). A payload's UTF-8 is checked when a hit decodes
/// it.
fn scan_line(bytes: &[u8]) -> Option<(usize, Option<Record>)> {
    let offset = |rest: &[u8]| bytes.len() - rest.len();
    let header = (|| {
        let (&kind, rest) = bytes.split_first()?;
        let (epoch, rest) = split_field(rest.strip_prefix(b" ")?)?;
        let (sum, body) = (rest.get(..16)?, rest.get(16..)?.strip_prefix(b" ")?);
        let (len, rest) = split_field(body)?;
        let key_len = key_field(rest)?;
        let (key, payload) = (&rest[..key_len], &rest[key_len + 1..]);
        let well_formed = (kind == b'R' || kind == b'M')
            && decimal(epoch)? == CACHE_EPOCH as usize
            && std::str::from_utf8(key).is_ok();
        if !well_formed {
            return None;
        }
        let key = offset(rest)..offset(payload) - 1;
        Some((
            kind,
            hex16(sum)?,
            offset(body),
            decimal(len)?,
            key,
            offset(payload),
        ))
    })();
    let Some((kind, sum, body, len, key, payload)) = header else {
        return Some((find_byte(bytes, b'\n')?, None));
    };
    let mut escapes = Some(0);
    let mut at = payload;
    let end = loop {
        let i = at + find_any(&bytes[at..], b'\\', b'\n')?;
        if bytes[i] == b'\n' {
            break i;
        }
        let letter = bytes.get(i + 1).copied().map(char::from);
        if PAYLOAD_ESCAPES.iter().any(|&(_, l)| Some(l) == letter) {
            escapes = escapes.map(|e| e + 1);
            at = i + 2;
        } else {
            // Not an escape the writer emits: the line is corrupt, but
            // its newline still has to be found.
            escapes = None;
            at = i + 1;
        }
    };
    let valid = escapes.is_some_and(|e| end - payload - e == len)
        && record_checksum(kind, &bytes[body..end]) == sum;
    let record = valid.then_some(Record {
        kind,
        key,
        payload: payload..end,
    });
    Some((end, record))
}

/// Length of the escaped key at the start of `bytes`, up to its
/// terminating space; `None` if it holds a newline or an escape
/// [`KEY_ESCAPES`] does not list.
fn key_field(bytes: &[u8]) -> Option<usize> {
    let mut at = 0;
    loop {
        match *bytes.get(at)? {
            b' ' => return Some(at),
            b'\n' => return None,
            b'\\' => {
                let letter = char::from(*bytes.get(at + 1)?);
                KEY_ESCAPES.iter().find(|&&(_, l)| l == letter)?;
                at += 2;
            }
            _ => at += 1,
        }
    }
}

/// Splits off the space-terminated field at the start of `bytes`.
fn split_field(bytes: &[u8]) -> Option<(&[u8], &[u8])> {
    let at = bytes.iter().position(|&b| b == b' ')?;
    Some((&bytes[..at], &bytes[at + 1..]))
}

/// A non-empty run of ASCII digits, without overflow.
fn decimal(digits: &[u8]) -> Option<usize> {
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0usize, |acc, &b| {
        let digit = b.checked_sub(b'0').filter(|d| *d < 10)?;
        acc.checked_mul(10)?.checked_add(usize::from(digit))
    })
}

/// Exactly sixteen lowercase hex digits, as `{:016x}` writes them.
fn hex16(digits: &[u8]) -> Option<u64> {
    let digits: &[u8; 16] = digits.try_into().ok()?;
    let (high, low) = digits.split_at(8);
    Some((u64::from(hex8(high)?) << 32) | u64::from(hex8(low)?))
}

/// Eight lowercase hex digits read as one word, checked and packed
/// without a branch per digit: `M` records carry four hex fields each,
/// and open reads every one of them.
fn hex8(digits: &[u8]) -> Option<u32> {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    let w = u64::from_le_bytes(digits.try_into().ok()?);
    if w & HI != 0 {
        return None;
    }
    // For an ASCII byte `x`, `x + 0x80 - lo` sets the top bit iff
    // `x >= lo`, and `x + 0x7f - hi` iff `x > hi`; neither carries.
    let in_range =
        |lo: u8, hi: u8| (w + LO * u64::from(0x80 - lo)) & !(w + LO * u64::from(0x7f - hi)) & HI;
    let letters = in_range(b'a', b'f');
    if in_range(b'0', b'9') | letters != HI {
        return None;
    }
    let nibbles = (w & (LO * 0x0f)) + (letters >> 7) * 9;
    // Pack the nibbles; the first digit is the most significant.
    let pairs = ((nibbles << 4) | (nibbles >> 8)) & 0x00ff_00ff_00ff_00ff;
    let quads = ((pairs << 8) | (pairs >> 16)) & 0x0000_ffff_0000_ffff;
    u32::try_from(((quads << 16) | (quads >> 32)) & 0xffff_ffff).ok()
}

// ---------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------

/// Cache telemetry for one run (mirrored into `RunStats` and the serve
/// `stats` verb).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Result lookups answered from the store.
    pub hits: u64,
    /// Result lookups that fell through to a cold analysis.
    pub misses: u64,
    /// Stored per-method summaries invalidated by content drift
    /// (transitively: an edited method plus everything composing over
    /// it).
    pub invalidated: u64,
    /// Records quarantined by load-time validation (magic, epoch,
    /// length, checksum, torn tail) — each recovered as a miss.
    pub corrupt_recovered: u64,
}

/// A stored per-method summary entry.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct StoredMethod {
    /// Exact content hash at record time.
    pub exact: u64,
    /// Semantic-projection hash at record time.
    pub sem: u64,
    /// Composed key at record time.
    pub composed: u64,
}

impl StoredMethod {
    /// The `M` record payload: `exact,sem,composed` in hex.
    fn triple(&self) -> String {
        format!(
            "{:016x},{:016x},{:016x}",
            self.exact, self.sem, self.composed
        )
    }

    /// Parses [`StoredMethod::triple`]'s exact shape.
    fn parse_triple(bytes: &[u8]) -> Option<StoredMethod> {
        if bytes.len() != 50 || bytes[16] != b',' || bytes[33] != b',' {
            return None;
        }
        Some(StoredMethod {
            exact: hex16(&bytes[..16])?,
            sem: hex16(&bytes[17..33])?,
            composed: hex16(&bytes[34..])?,
        })
    }
}

/// Where a committed record line lies in the store buffer: the line
/// starts at `line` and its newline sits at `payload.end`.
#[derive(Clone, Debug)]
struct Slot {
    line: usize,
    payload: Range<usize>,
}

/// The persistent summary store: the file's bytes in one buffer, a
/// validated index into them, and an append-only, fsync'd file.
#[derive(Debug)]
pub struct SummaryCache {
    path: PathBuf,
    /// A current-epoch header and the record lines after it: the file's
    /// bytes once `header_valid`. Commits append here and to the file.
    buf: Vec<u8>,
    /// Result records by result key (last valid record wins).
    results: BTreeMap<u64, Slot>,
    /// Escaped key ranges of the `M` records loaded from disk, in file
    /// order, until `methods` is first built from them.
    method_lines: Vec<(Range<usize>, StoredMethod)>,
    /// Per-method summaries by qualified name; built only when a miss or
    /// a delta asks for them, never on a hit.
    methods: Option<BTreeMap<String, StoredMethod>>,
    /// Run telemetry.
    pub stats: CacheStats,
    /// `false` until the on-disk file has a valid current-epoch header;
    /// the first commit then rewrites it from `buf`.
    header_valid: bool,
}

/// Spare capacity the store buffer is read with: room for one miss's
/// commits (a ≈11 KB result record and its refreshed method lines)
/// without moving the buffer, which would leave the old copy resident.
const APPEND_ROOM: usize = 64 << 10;

/// The header line every store starts with.
fn header() -> Vec<u8> {
    format!("{CACHE_MAGIC} {CACHE_EPOCH}\n").into_bytes()
}

impl SummaryCache {
    /// Opens (and validates) the store under `dir`, creating the
    /// directory if needed: one read, then one pass that checks every
    /// record in place and indexes the result records. Corrupt records
    /// are quarantined and counted; a torn tail is truncated in place;
    /// interior damage triggers a compacting rewrite of the surviving
    /// records.
    ///
    /// # Errors
    ///
    /// Only genuine I/O failures (permissions, full disk) error out —
    /// *any* byte-level damage to the store degrades to misses instead.
    pub fn open(dir: &Path) -> std::io::Result<SummaryCache> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(CACHE_FILE);
        let mut cache = SummaryCache {
            path,
            buf: header(),
            results: BTreeMap::new(),
            method_lines: Vec::new(),
            methods: None,
            stats: CacheStats::default(),
            header_valid: false,
        };
        cache.load()?;
        Ok(cache)
    }

    fn load(&mut self) -> std::io::Result<()> {
        let mut file = match std::fs::File::open(&self.path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(e),
        };
        let size = usize::try_from(file.metadata()?.len()).unwrap_or(0);
        let mut bytes = Vec::with_capacity(size + APPEND_ROOM);
        file.read_to_end(&mut bytes)?;
        if bytes.is_empty() {
            return Ok(());
        }
        let Some(header_end) = find_byte(&bytes, b'\n').map(|i| i + 1) else {
            // Torn header: the file never finished its create; treat as
            // empty and start over on the next commit.
            self.stats.corrupt_recovered += 1;
            return Ok(());
        };
        if bytes[..header_end] != self.buf[..] {
            // Bad magic or stale epoch: every record is a miss.
            self.stats.corrupt_recovered += 1;
            return Ok(());
        }
        self.buf = bytes;
        self.header_valid = true;
        let mut valid_len = header_end;
        let mut interior_damage = false;
        let mut at = header_end;
        while at < self.buf.len() {
            let Some((newline, record)) = scan_line(&self.buf[at..]) else {
                // Torn tail: an append died mid-record (kill -9 / power
                // cut). The newline never certified it, so drop it and
                // self-heal the file like the journal's resume path.
                self.stats.corrupt_recovered += 1;
                let f = std::fs::OpenOptions::new().write(true).open(&self.path)?;
                f.set_len(valid_len as u64)?;
                f.sync_all()?;
                self.buf.truncate(at);
                break;
            };
            let next = at + newline + 1;
            match record {
                Some(record) => {
                    self.admit(at, record);
                    if !interior_damage {
                        valid_len = next;
                    }
                }
                None => {
                    self.stats.corrupt_recovered += 1;
                    interior_damage = true;
                }
            }
            at = next;
        }
        if interior_damage {
            // Quarantined interior records: rewrite the surviving view
            // atomically so the damage cannot resurface.
            self.compact()?;
        }
        Ok(())
    }

    /// Indexes a validated record of the line starting at `line`. A
    /// record whose key or method triple does not parse is counted and
    /// skipped without damaging the file.
    fn admit(&mut self, line: usize, record: Record) {
        let at = |r: Range<usize>| line + r.start..line + r.end;
        let (key, payload) = (at(record.key), at(record.payload));
        let parsed = match record.kind {
            b'R' => hex16(&self.buf[key])
                .map(|key| self.results.insert(key, Slot { line, payload }))
                .is_some(),
            _ => StoredMethod::parse_triple(&self.buf[payload])
                .map(|method| self.method_lines.push((key, method)))
                .is_some(),
        };
        if !parsed {
            self.stats.corrupt_recovered += 1;
        }
    }

    /// The per-method map, built from the loaded `M` records on first
    /// use (last record per name wins).
    fn methods(&mut self) -> &mut BTreeMap<String, StoredMethod> {
        let (buf, lines) = (&self.buf, &mut self.method_lines);
        self.methods.get_or_insert_with(|| {
            let mut map = BTreeMap::new();
            for (key, method) in lines.drain(..) {
                let name = std::str::from_utf8(&buf[key])
                    .ok()
                    .and_then(|key| unescape(key, KEY_ESCAPES))
                    .expect("M record keys are validated at load");
                map.insert(name, method);
            }
            map
        })
    }

    /// Rewrites the whole store from the in-memory view via
    /// [`write_atomic`].
    fn compact(&mut self) -> std::io::Result<()> {
        let mut out = header();
        for (name, method) in self.methods().iter() {
            push_record(&mut out, b'M', name, &method.triple());
        }
        for slot in self.results.values_mut() {
            let (line, payload) = (slot.line, slot.payload.clone());
            let start = out.len();
            out.extend_from_slice(&self.buf[line..=payload.end]);
            *slot = Slot {
                line: start,
                payload: payload.start - line + start..payload.end - line + start,
            };
        }
        self.buf = out;
        write_atomic(&self.path, &self.buf)?;
        self.header_valid = true;
        Ok(())
    }

    /// Makes the record lines `buf[from..]` durable: one append and one
    /// fsync, or — into a missing, stale or corrupt-headed file — one
    /// atomic rewrite of the whole buffer.
    fn commit(&mut self, from: usize) -> std::io::Result<()> {
        if !self.header_valid {
            write_atomic(&self.path, &self.buf)?;
            self.header_valid = true;
            return Ok(());
        }
        let lines = &self.buf[from..];
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        if let Ok(tear) = std::env::var(TEAR_ENV) {
            if let Ok(at) = tear.parse::<usize>() {
                // Deterministic kill -9 mid-commit: emit a torn,
                // newline-less prefix and die without fsync.
                let cut = at.min(lines.len().saturating_sub(1));
                let _ = file.write_all(&lines[..cut]);
                let _ = file.flush();
                std::process::abort();
            }
        }
        file.write_all(lines)?;
        file.sync_all()
    }

    /// Looks up a result record; counts a hit or a miss. Only the hit's
    /// payload is unescaped and decoded. A payload that fails to decode
    /// (possible only through a checksum collision or a format bug) is
    /// quarantined and reported as a miss.
    pub fn lookup(&mut self, result_key: u64) -> Option<CachedTarget> {
        let Some(slot) = self.results.get(&result_key) else {
            self.stats.misses += 1;
            return None;
        };
        let hit = std::str::from_utf8(&self.buf[slot.payload.clone()])
            .ok()
            .and_then(|payload| unescape(payload, PAYLOAD_ESCAPES))
            .and_then(|payload| CachedTarget::decode(&payload));
        match hit {
            Some(hit) => {
                self.stats.hits += 1;
                Some(hit)
            }
            None => {
                self.results.remove(&result_key);
                self.stats.corrupt_recovered += 1;
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Commits a result record (fsync'd append).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; the in-memory view is updated first, so
    /// a failed commit degrades to a session-local cache.
    pub fn record(&mut self, result_key: u64, target: &CachedTarget) -> std::io::Result<()> {
        let from = self.buf.len();
        let slot = push_record(
            &mut self.buf,
            b'R',
            &format!("{result_key:016x}"),
            &target.encode(),
        );
        self.results.insert(result_key, slot);
        self.commit(from)
    }

    /// Qualified names of stored methods whose exact hash drifted from
    /// `keys` — the changed set a delta request reports.
    pub fn changed_methods(&mut self, keys: &ProgramKeys) -> Vec<String> {
        self.methods()
            .iter()
            .filter(|(name, stored)| {
                keys.methods
                    .get(*name)
                    .is_none_or(|k| k.exact != stored.exact)
            })
            .map(|(name, _)| name.clone())
            .collect()
    }

    /// Synchronizes per-method summaries with `keys`: counts every
    /// stored summary whose *composed* key drifted (the edited methods
    /// plus, transitively, everything composing over them) into
    /// `stats.invalidated`, then commits refreshed records for drifted
    /// or new methods in one append and one fsync.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from the append path.
    pub fn sync_methods(&mut self, keys: &ProgramKeys) -> std::io::Result<()> {
        self.methods();
        let methods = self.methods.as_mut().expect("built just above");
        let from = self.buf.len();
        for (name, k) in &keys.methods {
            let fresh = StoredMethod {
                exact: k.exact,
                sem: k.sem,
                composed: k.composed,
            };
            match methods.get(name) {
                Some(stored) if *stored == fresh => continue,
                Some(stored) if stored.composed != fresh.composed => self.stats.invalidated += 1,
                _ => {}
            }
            methods.insert(name.clone(), fresh);
            push_record(&mut self.buf, b'M', name, &fresh.triple());
        }
        if self.buf.len() == from {
            return Ok(());
        }
        self.commit(from)
    }

    /// Number of stored per-method summaries (test/telemetry surface).
    pub fn method_count(&mut self) -> usize {
        self.methods().len()
    }

    /// Number of stored result records.
    pub fn result_count(&self) -> usize {
        self.results.len()
    }

    /// The store file path.
    pub fn file_path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("leakc-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_target() -> CachedTarget {
        CachedTarget {
            reports_n: 2,
            degraded: false,
            report: "leak at alloc#3\n  via Depot.save\nleak at alloc#7\n".to_string(),
            json: "{\"target\": \"Loop(LoopId(0))\", \"reports\": []}".to_string(),
            counters: [9, 1200, 3, 2, 40, 5, 3, 0, 0, 0, 0, 0, 0, 6, 2, 11],
            effects_truncated: false,
        }
    }

    /// One committed record line, as a string.
    fn render_record(kind: char, key: &str, payload: &str) -> String {
        let mut buf = Vec::new();
        push_record(&mut buf, kind as u8, key, payload);
        String::from_utf8(buf).unwrap()
    }

    /// A record line with a valid checksum over arbitrary escaped
    /// fields and `len` — what a buggy writer sharing the epoch could
    /// commit.
    fn forge_record(kind: char, len: usize, key: &[u8], payload: &[u8]) -> Vec<u8> {
        let body = [format!("{len} ").as_bytes(), key, b" ", payload].concat();
        let sum = record_checksum(kind as u8, &body);
        let mut line = format!("{kind} {CACHE_EPOCH} {sum:016x} ").into_bytes();
        line.extend_from_slice(&body);
        line.push(b'\n');
        line
    }

    /// `true` when `line` (newline included) scans as a valid record.
    fn valid(line: &[u8]) -> bool {
        matches!(scan_line(line), Some((_, Some(_))))
    }

    #[test]
    fn record_line_round_trips_with_escapes() {
        let key = "Depot.save nested\\name";
        let payload = "line one\nline two with spaces\\and backslash";
        let line = render_record('M', key, payload);
        assert!(line.ends_with('\n'));
        assert!(!line.trim_end_matches('\n').contains('\n'));
        let (newline, record) = scan_line(line.as_bytes()).unwrap();
        let record = record.unwrap();
        assert_eq!(newline, line.len() - 1);
        assert_eq!(record.kind, b'M');
        assert_eq!(unescape(&line[record.key], KEY_ESCAPES).unwrap(), key);
        assert_eq!(
            unescape(&line[record.payload], PAYLOAD_ESCAPES).unwrap(),
            payload
        );
    }

    #[test]
    fn escapes_round_trip_runs_and_reject_unknown_letters() {
        for table in [FIELD_ESCAPES, KEY_ESCAPES, PAYLOAD_ESCAPES] {
            for s in [
                "",
                "plain",
                " lead",
                "trail\\",
                "a\tb\nc d\\e",
                "ünï cödé\n",
            ] {
                assert_eq!(unescape(&escape(s, table), table).as_deref(), Some(s));
            }
            for bad in ["\\x", "tail\\", "\\é"] {
                assert_eq!(unescape(bad, table), None);
            }
        }
        assert_eq!(escape("a b\nc\\", KEY_ESCAPES), "a\\sb\\nc\\\\");
        assert_eq!(escape("a b\nc\\", PAYLOAD_ESCAPES), "a b\\nc\\\\");
        assert_eq!(escape("a\tb", FIELD_ESCAPES), "a\\tb");
        assert_eq!(unescape("\\s", FIELD_ESCAPES), None);
        assert_eq!(unescape("\\s", PAYLOAD_ESCAPES), None);
    }

    #[test]
    fn find_any_matches_position() {
        let hay = b"0123456789abcdef\\ghij\nklmnopqrstuvwxyz";
        for start in 0..hay.len() {
            let slice = &hay[start..];
            for (a, b) in [(b'\\', b'\n'), (b'\n', b'\n'), (b'z', b'#'), (b'#', b'#')] {
                assert_eq!(
                    find_any(slice, a, b),
                    slice.iter().position(|&c| c == a || c == b)
                );
            }
        }
    }

    #[test]
    fn hex16_reads_exactly_what_the_writer_writes() {
        let mut x = 0x0123_4567_89ab_cdefu64;
        for _ in 0..1000 {
            x = x.rotate_left(13).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x55;
            for v in [x, 0, u64::MAX, x >> 32] {
                assert_eq!(hex16(format!("{v:016x}").as_bytes()), Some(v));
            }
        }
        let good = *b"0123456789abcdef";
        for at in 0..16 {
            for bad in [b'/', b':', b'@', b'A', b'F', b'`', b'g', b' ', 0x80, 0xff] {
                let mut digits = good;
                digits[at] = bad;
                assert_eq!(hex16(&digits), None, "{digits:?}");
            }
        }
        assert_eq!(hex16(b"0123456789abcde"), None);
        assert_eq!(hex16(b"0123456789abcdef0"), None);
    }

    #[test]
    fn scan_rejects_every_corruption_class() {
        let good = render_record('R', "00ab", "payload body");
        let good = good.as_bytes();
        assert!(valid(good));
        let replaced = |from: &str, to: &str| {
            String::from_utf8(good.to_vec())
                .unwrap()
                .replacen(from, to, 1)
                .into_bytes()
        };
        // Bad kind.
        assert!(!valid(&replaced("R", "X")));
        // Stale epoch.
        assert!(!valid(&replaced(&format!(" {CACHE_EPOCH} "), " 999 ")));
        // Flipped payload byte.
        assert!(!valid(&replaced("body", "bodY")));
        // Flipped key byte.
        assert!(!valid(&replaced("00ab", "00aa")));
        // Truncated record: no newline certifies it.
        assert!(scan_line(&good[..good.len() - 4]).is_none());
        // Length/payload mismatch.
        assert!(!valid(&replaced("body\n", "bodyX\n")));
        // A newline inside the header ends the line there.
        let split = replaced(" payload", "\npayload");
        let first_newline = split.iter().position(|&b| b == b'\n');
        assert_eq!(
            scan_line(&split).map(|(n, r)| (Some(n), r.is_some())),
            Some((first_newline, false))
        );
        // A valid checksum over a key that is not UTF-8, a bad escape,
        // or an off-by-one `len`.
        assert!(!valid(&forge_record('M', 2, b"A.\xff", b"ab")));
        assert!(!valid(&forge_record('M', 2, b"A.\\tb", b"ab")));
        assert!(valid(&forge_record('M', 2, b"A.\\sb", b"ab")));
        assert!(!valid(&forge_record('R', 4, b"00ab", b"ab\\xd")));
        assert!(!valid(&forge_record('R', 13, b"00ab", b"payload\\nbody")));
        assert!(valid(&forge_record('R', 12, b"00ab", b"payload\\nbody")));
    }

    #[test]
    fn cached_target_round_trips() {
        let target = sample_target();
        assert_eq!(CachedTarget::decode(&target.encode()), Some(target));
        let tabby = CachedTarget {
            report: "tab\there\nand newline".to_string(),
            json: "back\\slash".to_string(),
            ..sample_target()
        };
        assert_eq!(CachedTarget::decode(&tabby.encode()), Some(tabby));
        assert!(CachedTarget::decode("v0\treports_n=1").is_none());
    }

    #[test]
    fn store_round_trips_across_reopen() {
        let dir = temp_store("roundtrip");
        let mut cache = SummaryCache::open(&dir).unwrap();
        assert_eq!(cache.stats, CacheStats::default());
        let target = sample_target();
        cache.record(42, &target).unwrap();
        let mut keys = ProgramKeys {
            shape: 7,
            methods: BTreeMap::new(),
            root_key: 9,
        };
        keys.methods.insert(
            "Depot.save".to_string(),
            MethodKey {
                exact: 1,
                sem: 2,
                composed: 3,
            },
        );
        cache.sync_methods(&keys).unwrap();

        let mut reopened = SummaryCache::open(&dir).unwrap();
        assert_eq!(reopened.stats.corrupt_recovered, 0);
        assert_eq!(reopened.lookup(42), Some(target));
        assert_eq!(reopened.stats.hits, 1);
        assert_eq!(reopened.lookup(43), None);
        assert_eq!(reopened.stats.misses, 1);
        assert_eq!(reopened.method_count(), 1);
        assert!(reopened.changed_methods(&keys).is_empty());
    }

    #[test]
    fn sync_methods_counts_transitive_invalidation() {
        let dir = temp_store("invalidate");
        let mut cache = SummaryCache::open(&dir).unwrap();
        let mut keys = ProgramKeys {
            shape: 0,
            methods: BTreeMap::new(),
            root_key: 0,
        };
        for (name, k) in [
            ("Main.main", (10, 11, 12)),
            ("Depot.save", (20, 21, 22)),
            ("Util.log", (30, 31, 32)),
        ] {
            keys.methods.insert(
                name.to_string(),
                MethodKey {
                    exact: k.0,
                    sem: k.1,
                    composed: k.2,
                },
            );
        }
        cache.sync_methods(&keys).unwrap();
        assert_eq!(cache.stats.invalidated, 0);

        // Edit Depot.save; Main.main composes over it, Util.log does not.
        keys.methods.get_mut("Depot.save").unwrap().exact = 200;
        keys.methods.get_mut("Depot.save").unwrap().sem = 201;
        keys.methods.get_mut("Depot.save").unwrap().composed = 202;
        keys.methods.get_mut("Main.main").unwrap().composed = 120;
        assert_eq!(cache.changed_methods(&keys), vec!["Depot.save".to_string()]);
        cache.sync_methods(&keys).unwrap();
        assert_eq!(cache.stats.invalidated, 2);
    }

    /// The warm path's call-graph-free key is the key `compute_keys`
    /// records under, for a loop and for a region target. A constant
    /// bump keeps it; a semantic edit moves it, even in a method the
    /// entry never reaches.
    #[test]
    fn target_key_matches_compute_keys() {
        let source = |n: u32, dead: &str| {
            format!(
                "class Item {{ }}
                 class Plugin {{
                   Item last;
                   @region void run() {{ Item it = new Item(); this.last = it; }}
                 }}
                 class Dead {{ void idle() {{ Item x = null; {dead} }} }}
                 class Main {{
                   static void main() {{
                     int n = {n};
                     @check while (nondet()) {{ Item it = new Item(); }}
                   }}
                 }}"
            )
        };
        let config = DetectorConfig::default();
        let key_of = |src: &str, region: bool| {
            let unit = leakchecker_frontend::compile(src).expect("subject compiles");
            let target = if region {
                CheckTarget::Region(unit.region_methods[0])
            } else {
                CheckTarget::Loop(unit.checked_loops[0])
            };
            let resolved = crate::target::resolve(&unit.program, target).unwrap();
            let key = target_key(&resolved.program, resolved.root, target, &config);
            let keys = compute_keys(&resolved.program, resolved.root, config.callgraph);
            assert_eq!(key, keys.result_key(target, &config));
            key
        };
        for region in [false, true] {
            let base = key_of(&source(1, ""), region);
            assert_eq!(base, key_of(&source(2, ""), region));
            assert_ne!(base, key_of(&source(1, "Item y = x;"), region));
        }
    }

    #[test]
    fn corruption_matrix_every_case_loads_as_miss() {
        // Bad magic.
        let dir = temp_store("badmagic");
        let mut cache = SummaryCache::open(&dir).unwrap();
        cache.record(1, &sample_target()).unwrap();
        let path = cache.file_path().to_path_buf();
        drop(cache);
        let bytes = std::fs::read(&path).unwrap();
        let mut bad = bytes.clone();
        bad[0] = b'X';
        std::fs::write(&path, &bad).unwrap();
        let mut reopened = SummaryCache::open(&dir).unwrap();
        assert_eq!(reopened.stats.corrupt_recovered, 1);
        assert_eq!(reopened.lookup(1), None, "bad magic must be a miss");

        // Stale format epoch in the header.
        let dir = temp_store("staleepoch");
        let mut cache = SummaryCache::open(&dir).unwrap();
        cache.record(1, &sample_target()).unwrap();
        let path = cache.file_path().to_path_buf();
        drop(cache);
        let text = std::fs::read_to_string(&path).unwrap();
        let stale = text.replacen(
            &format!("{CACHE_MAGIC} {CACHE_EPOCH}"),
            &format!("{CACHE_MAGIC} 999"),
            1,
        );
        std::fs::write(&path, stale).unwrap();
        let mut reopened = SummaryCache::open(&dir).unwrap();
        assert_eq!(reopened.stats.corrupt_recovered, 1);
        assert_eq!(reopened.lookup(1), None, "stale epoch must be a miss");

        // Flipped payload byte in an interior record: quarantined,
        // later records survive, and the file is compacted clean.
        let dir = temp_store("flip");
        let mut cache = SummaryCache::open(&dir).unwrap();
        cache.record(1, &sample_target()).unwrap();
        cache.record(2, &sample_target()).unwrap();
        let path = cache.file_path().to_path_buf();
        drop(cache);
        let text = std::fs::read_to_string(&path).unwrap();
        let victim = text.lines().nth(1).unwrap().to_string();
        let hacked = {
            let mut v = victim.clone().into_bytes();
            let last = v.len() - 1;
            v[last] ^= 0x20;
            String::from_utf8(v).unwrap()
        };
        std::fs::write(&path, text.replacen(&victim, &hacked, 1)).unwrap();
        let mut reopened = SummaryCache::open(&dir).unwrap();
        assert_eq!(reopened.stats.corrupt_recovered, 1);
        assert_eq!(reopened.lookup(1), None, "flipped record must be a miss");
        assert!(reopened.lookup(2).is_some(), "later record must survive");
        drop(reopened);
        let recovered = SummaryCache::open(&dir).unwrap();
        assert_eq!(
            recovered.stats.corrupt_recovered, 0,
            "compaction must leave a clean file"
        );
        assert_eq!(recovered.result_count(), 1);

        // Torn tail (kill -9 mid-commit): truncated away, file healed.
        let dir = temp_store("torn");
        let mut cache = SummaryCache::open(&dir).unwrap();
        cache.record(1, &sample_target()).unwrap();
        let path = cache.file_path().to_path_buf();
        drop(cache);
        let mut bytes = std::fs::read(&path).unwrap();
        let full_len = bytes.len();
        let torn = render_record('R', "00ff", "half-committed");
        bytes.extend_from_slice(&torn.as_bytes()[..torn.len() / 2]);
        std::fs::write(&path, &bytes).unwrap();
        let mut reopened = SummaryCache::open(&dir).unwrap();
        assert_eq!(reopened.stats.corrupt_recovered, 1);
        assert!(reopened.lookup(1).is_some(), "committed record survives");
        assert_eq!(
            std::fs::metadata(&path).unwrap().len() as usize,
            full_len,
            "torn tail must be truncated in place"
        );

        // Truncation mid-file (lost tail bytes inside a record).
        let dir = temp_store("trunc");
        let mut cache = SummaryCache::open(&dir).unwrap();
        cache.record(1, &sample_target()).unwrap();
        cache.record(2, &sample_target()).unwrap();
        let path = cache.file_path().to_path_buf();
        drop(cache);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        let mut reopened = SummaryCache::open(&dir).unwrap();
        assert_eq!(reopened.stats.corrupt_recovered, 1);
        assert!(reopened.lookup(1).is_some());
        assert_eq!(reopened.lookup(2), None, "truncated record must be a miss");

        // A valid checksum over a bad escape, and over a `len` off by
        // one: quarantined like any interior damage.
        let encoded = sample_target().encode();
        for (tag, forged) in [
            (
                "badescape",
                forge_record('R', 4, b"0000000000000003", b"ab\\xd"),
            ),
            (
                "badlen",
                forge_record(
                    'R',
                    encoded.len() + 1,
                    b"0000000000000003",
                    escape(&encoded, PAYLOAD_ESCAPES).as_bytes(),
                ),
            ),
        ] {
            let dir = temp_store(tag);
            let mut cache = SummaryCache::open(&dir).unwrap();
            cache.record(1, &sample_target()).unwrap();
            let path = cache.file_path().to_path_buf();
            drop(cache);
            let mut bytes = std::fs::read(&path).unwrap();
            bytes.extend_from_slice(&forged);
            std::fs::write(&path, bytes).unwrap();
            let mut reopened = SummaryCache::open(&dir).unwrap();
            assert_eq!(reopened.stats.corrupt_recovered, 1, "{tag}");
            assert_eq!(reopened.lookup(3), None, "{tag} must be a miss");
            assert!(
                reopened.lookup(1).is_some(),
                "{tag}: earlier record survives"
            );
        }

        // Flipped byte in the key field: the checksum covers the key, so
        // the record is quarantined rather than filed under key 3.
        let dir = temp_store("keyflip");
        let mut cache = SummaryCache::open(&dir).unwrap();
        cache.record(1, &sample_target()).unwrap();
        cache.record(2, &sample_target()).unwrap();
        let path = cache.file_path().to_path_buf();
        drop(cache);
        let text = std::fs::read_to_string(&path).unwrap();
        let victim = text.lines().nth(1).unwrap().to_string();
        let key = victim.split(' ').nth(4).unwrap();
        assert_eq!(key, "0000000000000001");
        let hacked = victim.replacen(key, "0000000000000003", 1);
        std::fs::write(&path, text.replacen(&victim, &hacked, 1)).unwrap();
        let mut reopened = SummaryCache::open(&dir).unwrap();
        assert_eq!(reopened.stats.corrupt_recovered, 1);
        assert_eq!(reopened.lookup(1), None, "flipped key must be a miss");
        assert_eq!(reopened.lookup(3), None, "flipped key must not hit");
        assert!(reopened.lookup(2).is_some(), "later record must survive");

        // An `M` record whose triple is not hex: counted and skipped.
        let dir = temp_store("mtriple");
        let mut cache = SummaryCache::open(&dir).unwrap();
        cache.record(1, &sample_target()).unwrap();
        cache
            .sync_methods(&method_keys(&[("Depot.save", (1, 2, 3))]))
            .unwrap();
        let path = cache.file_path().to_path_buf();
        drop(cache);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&forge_record('M', 8, b"Util.log", b"zz,yy,xx"));
        std::fs::write(&path, bytes).unwrap();
        let mut reopened = SummaryCache::open(&dir).unwrap();
        assert_eq!(reopened.stats.corrupt_recovered, 1);
        assert_eq!(reopened.method_count(), 1);
        assert!(reopened.lookup(1).is_some());
    }

    /// Per-method keys for the given `(name, (exact, sem, composed))`.
    fn method_keys(entries: &[(&str, (u64, u64, u64))]) -> ProgramKeys {
        ProgramKeys {
            shape: 0,
            methods: entries
                .iter()
                .map(|&(name, (exact, sem, composed))| {
                    let key = MethodKey {
                        exact,
                        sem,
                        composed,
                    };
                    (name.to_string(), key)
                })
                .collect(),
            root_key: 0,
        }
    }

    #[test]
    fn a_hit_replays_the_same_payload_before_and_after_reopen() {
        let dir = temp_store("samepayload");
        let mut cache = SummaryCache::open(&dir).unwrap();
        let target = CachedTarget {
            report: "tab\there\nand a \\ backslash, ünïcode".to_string(),
            ..sample_target()
        };
        cache.record(7, &target).unwrap();
        let same_session = cache.lookup(7);
        assert_eq!(same_session.as_ref(), Some(&target));
        drop(cache);
        let mut reopened = SummaryCache::open(&dir).unwrap();
        assert_eq!(reopened.lookup(7), same_session);
    }

    /// The method map is built only when asked for, and a reopened
    /// store reports the same drift and invalidations as the session
    /// that wrote it.
    #[test]
    fn method_map_is_lazy_and_survives_reopen() {
        let keys = method_keys(&[
            ("Main.main", (10, 11, 12)),
            ("Depot.save", (20, 21, 22)),
            ("Util.log", (30, 31, 32)),
        ]);
        let edited = method_keys(&[
            ("Main.main", (10, 11, 120)),
            ("Depot.save", (200, 201, 202)),
            ("Util.log", (30, 31, 32)),
            ("New.one", (40, 41, 42)),
        ]);
        let live_dir = temp_store("lazy-live");
        let mut live = SummaryCache::open(&live_dir).unwrap();
        live.sync_methods(&keys).unwrap();
        let changed = live.changed_methods(&edited);
        assert_eq!(changed, vec!["Depot.save".to_string()]);
        live.sync_methods(&edited).unwrap();

        let dir = temp_store("lazy-reopen");
        let mut cache = SummaryCache::open(&dir).unwrap();
        cache.sync_methods(&keys).unwrap();
        cache.record(1, &sample_target()).unwrap();
        drop(cache);
        let mut reopened = SummaryCache::open(&dir).unwrap();
        assert!(reopened.lookup(1).is_some());
        assert!(reopened.methods.is_none(), "a hit never builds the map");
        assert_eq!(reopened.changed_methods(&edited), changed);
        assert!(reopened.methods.is_some());
        reopened.sync_methods(&edited).unwrap();
        assert_eq!(reopened.stats.invalidated, live.stats.invalidated);
        assert_eq!(reopened.stats.invalidated, 2);
        assert_eq!(reopened.method_count(), 4);
        drop(reopened);
        let mut again = SummaryCache::open(&dir).unwrap();
        assert!(again.changed_methods(&edited).is_empty());
        again.sync_methods(&edited).unwrap();
        assert_eq!(again.stats.invalidated, 0);
    }

    /// A torn `sync_methods` batch keeps its certified lines and drops
    /// only the torn one.
    #[test]
    fn torn_method_batch_keeps_certified_lines() {
        let dir = temp_store("tornbatch");
        let mut cache = SummaryCache::open(&dir).unwrap();
        cache.record(1, &sample_target()).unwrap();
        let path = cache.file_path().to_path_buf();
        let committed = std::fs::read(&path).unwrap().len();
        cache
            .sync_methods(&method_keys(&[
                ("A.a", (1, 2, 3)),
                ("B.b", (4, 5, 6)),
                ("C.c", (7, 8, 9)),
            ]))
            .unwrap();
        drop(cache);
        let bytes = std::fs::read(&path).unwrap();
        let batch = &bytes[committed..];
        let second_end = committed
            + batch
                .iter()
                .enumerate()
                .filter(|(_, &b)| b == b'\n')
                .nth(1)
                .unwrap()
                .0
            + 1;
        std::fs::write(&path, &bytes[..second_end + 10]).unwrap();
        let mut reopened = SummaryCache::open(&dir).unwrap();
        assert_eq!(reopened.stats.corrupt_recovered, 1);
        assert_eq!(reopened.method_count(), 2);
        assert!(reopened.lookup(1).is_some());
        assert_eq!(std::fs::metadata(&path).unwrap().len() as usize, second_end);
    }

    /// SplitMix64, for seeded mutants.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// Byte mutants of a real multi-record store never make `open`
    /// panic or fail, and a hit only ever returns the payload recorded
    /// under its key.
    #[test]
    fn byte_mutants_never_panic_or_answer_wrongly() {
        let dir = temp_store("mutants");
        let targets: Vec<CachedTarget> = (1..=4u64)
            .map(|i| CachedTarget {
                reports_n: i,
                report: format!("[{i}] leak: new Msg (alloc#{i})\n  via A.b \\ c\n")
                    .repeat(i as usize),
                ..sample_target()
            })
            .collect();
        let mut cache = SummaryCache::open(&dir).unwrap();
        for (key, target) in (1..).zip(&targets) {
            cache.record(key, target).unwrap();
        }
        cache
            .sync_methods(&method_keys(&[("A.b", (1, 2, 3)), ("C.d", (4, 5, 6))]))
            .unwrap();
        cache
            .sync_methods(&method_keys(&[("A.b", (1, 2, 30)), ("C.d", (4, 5, 6))]))
            .unwrap();
        let path = cache.file_path().to_path_buf();
        drop(cache);
        let pristine = std::fs::read(&path).unwrap();
        let mut rng = Mix(0x1eaf_cafe);
        for _ in 0..2000 {
            let mut bytes = pristine.clone();
            let at = rng.below(bytes.len());
            match rng.below(5) {
                0 => bytes[at] ^= 1 << rng.below(8),
                1 => bytes[at] = rng.next() as u8,
                2 => bytes.truncate(at),
                3 => {
                    bytes.remove(at);
                }
                _ => bytes.insert(at, [b'\n', b' ', b'\\', rng.next() as u8][rng.below(4)]),
            }
            std::fs::write(&path, &bytes).unwrap();
            let mut store = SummaryCache::open(&dir).expect("damage is never an I/O error");
            for (key, target) in (1..).zip(&targets) {
                if let Some(hit) = store.lookup(key) {
                    assert_eq!(&hit, target, "key {key} answered with another payload");
                }
            }
            assert!(store.method_count() <= 2);
        }
    }

    #[test]
    fn lookup_quarantines_undecodable_payloads() {
        let dir = temp_store("undecodable");
        let mut cache = SummaryCache::open(&dir).unwrap();
        // A record that passes the checksum (it was legitimately
        // committed) but whose payload is not a CachedTarget — e.g.
        // written by a buggy build sharing the epoch.
        let slot = push_record(&mut cache.buf, b'R', "0000000000000005", "not-a-target");
        cache.results.insert(5, slot);
        assert_eq!(cache.lookup(5), None);
        assert_eq!(cache.stats.corrupt_recovered, 1);
        assert_eq!(cache.stats.misses, 1);
    }
}
