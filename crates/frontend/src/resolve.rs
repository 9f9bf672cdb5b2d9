//! Name resolution and lowering from the surface AST to the IR.
//!
//! Lowering runs in two passes. The first pass declares every class, field
//! and method signature so that bodies can reference entities in any order.
//! The second pass lowers each method body to three-address statements,
//! materializing compound expressions into compiler temporaries.

use crate::ast::{AllocAnnotation, ClassDecl, Expr, ExprId, Stmt as AStmt, TypeName, Unit};
use crate::error::{CompileError, Phase, Result, Span};
use leakchecker_ir::builder::{MethodBuilder, ProgramBuilder};
use leakchecker_ir::ids::{ClassId, LocalId, LoopId, MethodId};
use leakchecker_ir::stmt::{BinOp, Cond, Operand, SiteLabel};
use leakchecker_ir::types::Type;
use leakchecker_ir::Program;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// The result of compiling a unit: the IR program plus the analysis targets
/// designated by source annotations.
#[derive(Clone, Debug)]
pub struct CompiledUnit {
    /// The lowered program.
    pub program: Program,
    /// Loops annotated `@check`, in source order.
    pub checked_loops: Vec<LoopId>,
    /// Methods annotated `@region` (checkable regions; the detector wraps
    /// them in artificial loops).
    pub region_methods: Vec<MethodId>,
}

/// Lowers a parsed unit to IR.
///
/// # Errors
///
/// Returns the first resolution error: unknown names, type mismatches,
/// arity errors, duplicate declarations, inheritance cycles.
pub fn lower(unit: &Unit<'_>) -> Result<CompiledUnit> {
    let mut resolver = Resolver::default();
    resolver.declare(unit)?;
    resolver.lower_bodies(unit)
}

fn err(span: Span, message: impl Into<String>) -> CompileError {
    CompileError::new(Phase::Resolve, span, message)
}

/// Method signature recorded during the declaration pass.
#[derive(Debug)]
struct Sig {
    id: MethodId,
    is_static: bool,
    params: Vec<Type>,
    ret: Type,
}

/// Names borrow from the source (`'s`): looking a class or signature up
/// by name never allocates.
#[derive(Default)]
struct Resolver<'s> {
    pb: ProgramBuilder,
    class_ids: HashMap<&'s str, ClassId>,
    /// `(class, method-name) -> signature` for directly declared methods.
    sigs: HashMap<(ClassId, &'s str), Sig>,
    checked_loops: Vec<LoopId>,
    region_methods: Vec<MethodId>,
    entry: Option<MethodId>,
    scopes: Scopes<'s>,
    /// Argument locals of the calls being lowered, innermost call last;
    /// each call passes its own suffix to the builder.
    arg_stack: Vec<LocalId>,
}

/// The locals visible at one point of a method body. One map holds the
/// innermost binding of every name; declaring a name records the binding
/// it shadows, and closing a scope restores those. The resolver reuses
/// one `Scopes` for every method, so its tables are allocated once.
#[derive(Default)]
struct Scopes<'s> {
    /// Name → its innermost local and the depth of the declaring scope.
    visible: HashMap<&'s str, (LocalId, usize)>,
    /// Each declaration's name and the binding it shadowed, in order.
    shadowed: Vec<(&'s str, Option<(LocalId, usize)>)>,
    /// `shadowed.len()` when each open scope began, innermost last.
    opened: Vec<usize>,
}

impl<'s> Scopes<'s> {
    /// Starts a method: nothing is visible and no scope is open.
    fn reset(&mut self) {
        self.visible.clear();
        self.shadowed.clear();
        self.opened.clear();
    }

    fn open(&mut self) {
        self.opened.push(self.shadowed.len());
    }

    fn close(&mut self) {
        let start = self.opened.pop().expect("a scope is open");
        for (name, shadowed) in self.shadowed.drain(start..).rev() {
            match shadowed {
                Some(binding) => self.visible.insert(name, binding),
                None => self.visible.remove(name),
            };
        }
    }

    fn get(&self, name: &str) -> Option<LocalId> {
        self.visible.get(name).map(|&(local, _)| local)
    }

    /// Binds a parameter outside every scope; of two parameters with one
    /// name, the later wins.
    fn bind_param(&mut self, name: &'s str, local: LocalId) {
        self.visible.insert(name, (local, 0));
    }

    /// Declares `name` in the innermost scope. Returns false, declaring
    /// nothing, when that scope already declares `name`.
    fn declare(&mut self, name: &'s str, local: LocalId) -> bool {
        let depth = self.opened.len();
        let shadowed = match self.visible.entry(name) {
            Entry::Occupied(e) if e.get().1 == depth => return false,
            Entry::Occupied(mut e) => Some(e.insert((local, depth))),
            Entry::Vacant(e) => {
                e.insert((local, depth));
                None
            }
        };
        self.shadowed.push((name, shadowed));
        true
    }
}

impl<'s> Resolver<'s> {
    // ---------- pass 1: declarations ----------

    fn declare(&mut self, unit: &Unit<'s>) -> Result<()> {
        // The implicit root class is always in scope, with a synthesized
        // no-argument constructor so `new Object()` works.
        let object = self.pb.program().object_class();
        self.class_ids.insert("Object", object);
        let mb = self.pb.method(object, "<init>", Type::Void, false);
        let object_init = mb.id();
        mb.finish();
        self.sigs.insert(
            (object, "<init>"),
            Sig {
                id: object_init,
                is_static: false,
                params: Vec::new(),
                ret: Type::Void,
            },
        );
        // Classes first (so `extends` can be forward).
        for class in &unit.classes {
            if self.class_ids.contains_key(class.name) || class.name == "Object" {
                return Err(err(class.span, format!("duplicate class `{}`", class.name)));
            }
            let id = if class.is_library {
                self.pb.add_library_class(class.name, None)
            } else {
                self.pb.add_class(class.name, None)
            };
            self.class_ids.insert(class.name, id);
        }
        // Superclasses.
        for class in &unit.classes {
            if let Some(sup_name) = class.superclass {
                let sup = *self
                    .class_ids
                    .get(sup_name)
                    .ok_or_else(|| err(class.span, format!("unknown superclass `{sup_name}`")))?;
                let id = self.class_ids[class.name];
                // Rebuild the class entry with the right superclass: the
                // builder fixed Object; patch through a fresh declaration
                // is not possible, so we check for cycles and patch below.
                self.set_superclass(id, sup, class.span)?;
            }
        }
        // Fields and method signatures.
        for class in &unit.classes {
            let cid = self.class_ids[class.name];
            for field in &class.fields {
                if self.pb.program().field_on(cid, field.name).is_some() {
                    return Err(err(
                        field.span,
                        format!("duplicate field `{}.{}`", class.name, field.name),
                    ));
                }
                let ty = self.resolve_type(&field.ty)?;
                if ty == Type::Void {
                    return Err(err(field.span, "fields cannot have type `void`"));
                }
                if field.is_static && field.init.is_some() {
                    return Err(err(
                        field.span,
                        "static fields cannot have initializers; assign in code instead",
                    ));
                }
                self.pb.add_field(cid, field.name, ty, field.is_static);
            }
            let mut has_ctor = false;
            for method in &class.methods {
                if method.is_ctor {
                    if has_ctor {
                        return Err(err(
                            method.span,
                            format!("class `{}` declares multiple constructors", class.name),
                        ));
                    }
                    has_ctor = true;
                }
                if self.sigs.contains_key(&(cid, method.name)) {
                    return Err(err(
                        method.span,
                        format!("duplicate method `{}.{}`", class.name, method.name),
                    ));
                }
                let ret = self.resolve_type(&method.ret_ty)?;
                let mut params = Vec::with_capacity(method.params.len());
                let mut param_decls = Vec::with_capacity(method.params.len());
                for p in &method.params {
                    let ty = self.resolve_type(&p.ty)?;
                    if ty == Type::Void {
                        return Err(err(method.span, "parameters cannot have type `void`"));
                    }
                    params.push(ty.clone());
                    param_decls.push((p.name, ty));
                }
                let mb = self.pb.method_with_params(
                    cid,
                    method.name,
                    ret.clone(),
                    method.is_static,
                    &param_decls,
                );
                let id = mb.id();
                mb.finish(); // body filled in pass 2
                if method.is_region {
                    self.region_methods.push(id);
                }
                if method.name == "main" && method.is_static && params.is_empty() {
                    if self.entry.is_some() {
                        return Err(err(method.span, "multiple `static main()` entry points"));
                    }
                    self.entry = Some(id);
                }
                self.sigs.insert(
                    (cid, method.name),
                    Sig {
                        id,
                        is_static: method.is_static,
                        params,
                        ret,
                    },
                );
            }
            // Synthesize a default constructor when none is declared, so
            // `new C()` always works and field initializers have a home.
            if !has_ctor {
                let mb = self.pb.method(cid, "<init>", Type::Void, false);
                let id = mb.id();
                mb.finish();
                self.sigs.insert(
                    (cid, "<init>"),
                    Sig {
                        id,
                        is_static: false,
                        params: Vec::new(),
                        ret: Type::Void,
                    },
                );
            }
        }
        Ok(())
    }

    /// Patches the superclass of `class` (the builder defaulted to Object)
    /// and rejects inheritance cycles.
    fn set_superclass(&mut self, class: ClassId, sup: ClassId, span: Span) -> Result<()> {
        // Cycle check: walk up from `sup`; if we reach `class`, reject.
        let mut cur = Some(sup);
        while let Some(c) = cur {
            if c == class {
                return Err(err(span, "inheritance cycle"));
            }
            cur = self.pb.program().class(c).superclass;
        }
        self.pb.patch_superclass(class, sup);
        Ok(())
    }

    fn resolve_type(&self, name: &TypeName) -> Result<Type> {
        let base = match name.base {
            "int" => Type::Int,
            "boolean" => Type::Bool,
            "void" => Type::Void,
            other => Type::Ref(
                *self
                    .class_ids
                    .get(other)
                    .ok_or_else(|| err(name.span, format!("unknown type `{other}`")))?,
            ),
        };
        if name.dims > 0 && base == Type::Void {
            return Err(err(name.span, "cannot form an array of `void`"));
        }
        let mut ty = base;
        for _ in 0..name.dims {
            ty = ty.into_array();
        }
        Ok(ty)
    }

    // ---------- pass 2: bodies ----------

    fn lower_bodies(mut self, unit: &Unit<'s>) -> Result<CompiledUnit> {
        for class in &unit.classes {
            let cid = self.class_ids[class.name];
            let mut declared_ctor = false;
            for method in &class.methods {
                let sig = &self.sigs[&(cid, method.name)];
                declared_ctor |= method.is_ctor;
                let mut ctx = BodyCtx {
                    exprs: &unit.exprs,
                    class_ids: &self.class_ids,
                    sigs: &self.sigs,
                    checked_loops: &mut self.checked_loops,
                    class: cid,
                    ret: sig.ret.clone(),
                    mb: self.pb.resume_method(sig.id),
                    scopes: &mut self.scopes,
                    arg_stack: &mut self.arg_stack,
                };
                // Parameters are visible outside every block scope.
                ctx.scopes.reset();
                for (i, p) in method.params.iter().enumerate() {
                    let local = ctx.mb.param(i);
                    ctx.scopes.bind_param(p.name, local);
                }
                if method.is_ctor {
                    ctx.emit_ctor_prologue(class)?;
                }
                ctx.lower_stmts(&method.body)?;
                ctx.mb.finish();
            }
            if !declared_ctor {
                // Fill the synthesized default constructor.
                let sig = &self.sigs[&(cid, "<init>")];
                let mut ctx = BodyCtx {
                    exprs: &unit.exprs,
                    class_ids: &self.class_ids,
                    sigs: &self.sigs,
                    checked_loops: &mut self.checked_loops,
                    class: cid,
                    ret: Type::Void,
                    mb: self.pb.resume_method(sig.id),
                    scopes: &mut self.scopes,
                    arg_stack: &mut self.arg_stack,
                };
                ctx.scopes.reset();
                ctx.emit_ctor_prologue(class)?;
                ctx.mb.finish();
            }
        }
        let mut program = self.pb.finish();
        if let Some(entry) = self.entry {
            program.set_entry(entry);
        }
        Ok(CompiledUnit {
            program,
            checked_loops: self.checked_loops,
            region_methods: self.region_methods,
        })
    }
}

struct BodyCtx<'r, 's> {
    /// The unit's expression table.
    exprs: &'r [Expr<'s>],
    class_ids: &'r HashMap<&'s str, ClassId>,
    sigs: &'r HashMap<(ClassId, &'s str), Sig>,
    checked_loops: &'r mut Vec<LoopId>,
    class: ClassId,
    ret: Type,
    mb: MethodBuilder<'r>,
    scopes: &'r mut Scopes<'s>,
    arg_stack: &'r mut Vec<LocalId>,
}

impl<'r, 's> BodyCtx<'r, 's> {
    fn expr(&self, id: ExprId) -> &'r Expr<'s> {
        let exprs = self.exprs;
        &exprs[id.index()]
    }

    fn lookup_local(&self, name: &str) -> Option<LocalId> {
        self.scopes.get(name)
    }

    fn local_type(&self, local: LocalId) -> Type {
        self.mb.program().method(self.mb.id()).locals[local.index()]
            .ty
            .clone()
    }

    /// Finds the signature of `name` on `class` or a superclass.
    fn find_sig(&self, class: ClassId, name: &'s str) -> Option<&'r Sig> {
        let sigs = self.sigs;
        self.mb
            .program()
            .ancestry(class)
            .find_map(|c| sigs.get(&(c, name)))
    }

    fn emit_ctor_prologue(&mut self, class: &ClassDecl<'s>) -> Result<()> {
        // Implicit super() when the superclass has a no-argument ctor.
        let program = self.mb.program();
        let class_id = self.class;
        let sup = program.class(class_id).superclass;
        if let Some(sup) = sup {
            if sup != program.object_class() {
                if let Some(sig) = self.sigs.get(&(sup, "<init>")) {
                    if sig.params.is_empty() {
                        let target = sig.id;
                        let this = self.mb.this();
                        self.mb.call_special(None, this, target, &[]);
                    }
                }
            }
        }
        // Instance field initializers, in declaration order.
        for field in &class.fields {
            if field.is_static {
                continue;
            }
            if let Some(init) = field.init {
                let fid = self
                    .mb
                    .program()
                    .field_on(class_id, field.name)
                    .expect("field declared in pass 1");
                let field_ty = self.mb.program().field(fid).ty.clone();
                let value = self.lower_value_typed(init, &field_ty)?;
                let this = self.mb.this();
                self.mb.store(this, fid, value);
            }
        }
        Ok(())
    }

    fn lower_stmts(&mut self, stmts: &[AStmt<'s>]) -> Result<()> {
        self.scopes.open();
        for stmt in stmts {
            self.lower_stmt(stmt)?;
        }
        self.scopes.close();
        Ok(())
    }

    fn lower_stmt(&mut self, stmt: &AStmt<'s>) -> Result<()> {
        match stmt {
            AStmt::VarDecl {
                ty,
                name,
                init,
                span,
            } => {
                let ty = self.resolve_type(ty)?;
                if ty == Type::Void {
                    return Err(err(*span, "variables cannot have type `void`"));
                }
                let local = self.mb.local(name, ty.clone());
                if !self.scopes.declare(name, local) {
                    return Err(err(*span, format!("duplicate variable `{name}`")));
                }
                match init {
                    Some(e) => {
                        let vty = self.lower_into(local, *e)?;
                        self.check_assignable(&vty, &ty, self.expr(*e).span())?;
                    }
                    None => {
                        // Default-initialize so the interpreter never sees
                        // an undefined local.
                        if ty.is_reference() {
                            self.mb.assign_null(local);
                        } else {
                            self.mb.const_int(local, 0);
                        }
                    }
                }
                Ok(())
            }
            AStmt::Assign {
                target,
                value,
                span,
            } => self.lower_assign(*target, *value, *span),
            AStmt::Expr(e) => {
                match self.expr(*e) {
                    Expr::Call { .. } | Expr::New { .. } | Expr::NewArray { .. } => {
                        let _ = self.lower_to_local(*e)?;
                    }
                    other => {
                        return Err(err(
                            other.span(),
                            "only calls and allocations can be used as statements",
                        ))
                    }
                }
                Ok(())
            }
            AStmt::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => {
                let c = self.lower_cond(*cond)?;
                // Build branches with fresh scopes via the builder closures.
                // The closure API needs `self` split; emulate by lowering
                // into explicit frames.
                self.begin_frame();
                self.lower_stmts(then_branch)?;
                let then_stmts = self.end_frame();
                self.begin_frame();
                self.lower_stmts(else_branch)?;
                let else_stmts = self.end_frame();
                self.mb.push_if(c, then_stmts, else_stmts);
                Ok(())
            }
            AStmt::While {
                cond,
                body,
                checked,
                ..
            } => {
                // Conditions that read only named locals / constants can be
                // used directly: each iteration re-reads the locals. Any
                // other condition is lowered to a boolean flag that is
                // computed before the loop and recomputed at the end of
                // every iteration.
                let (c, flag) = match self.try_direct_cond(*cond)? {
                    Some(direct) => (direct, None),
                    None => {
                        let flag = self.mb.temp(Type::Bool);
                        self.lower_bool_into(flag, *cond)?;
                        (Cond::Local(flag), Some(flag))
                    }
                };
                self.begin_frame();
                self.lower_stmts(body)?;
                if let Some(flag) = flag {
                    self.lower_bool_into(flag, *cond)?;
                }
                let body_stmts = self.end_frame();
                let id = self.mb.push_while(c, body_stmts);
                if *checked {
                    self.checked_loops.push(id);
                }
                Ok(())
            }
            AStmt::Return(value, span) => {
                match (value, self.ret.clone()) {
                    (None, Type::Void) => self.mb.ret(None),
                    (Some(_), Type::Void) => {
                        return Err(err(*span, "void method cannot return a value"))
                    }
                    (None, _) => return Err(err(*span, "missing return value")),
                    (Some(e), ret_ty) => {
                        let local = self.lower_value_typed(*e, &ret_ty)?;
                        self.mb.ret(Some(local));
                    }
                }
                Ok(())
            }
            AStmt::Break(_) => {
                self.mb.brk();
                Ok(())
            }
            AStmt::Continue(_) => {
                self.mb.cont();
                Ok(())
            }
        }
    }

    /// Tries to express `cond` as a [`Cond`] that reads only named locals
    /// and constants, so it can be re-evaluated by the loop header without
    /// auxiliary statements. Returns `None` when the condition needs
    /// lowering to a flag.
    fn try_direct_cond(&mut self, cond: ExprId) -> Result<Option<Cond>> {
        let named = |this: &Self, e: &Expr| -> Option<LocalId> {
            if let Expr::Name(n, _) = e {
                this.lookup_local(n)
            } else {
                None
            }
        };
        let cond = self.expr(cond);
        match cond {
            Expr::NonDet(_) => Ok(Some(Cond::NonDet)),
            Expr::Name(_, _) => {
                if let Some(l) = named(self, cond) {
                    if self.local_type(l) == Type::Bool {
                        return Ok(Some(Cond::Local(l)));
                    }
                }
                Ok(None)
            }
            Expr::Not(inner, _) => {
                if let Some(l) = named(self, self.expr(*inner)) {
                    if self.local_type(l) == Type::Bool {
                        return Ok(Some(Cond::NotLocal(l)));
                    }
                }
                Ok(None)
            }
            Expr::Binary { op, lhs, rhs, .. } => {
                // `x == null` / `x != null` on a named local.
                let (lhs, rhs) = (self.expr(*lhs), self.expr(*rhs));
                if matches!(*op, "==" | "!=") {
                    let (null_side, other) = match (lhs, rhs) {
                        (Expr::Null(_), o) => (true, o),
                        (o, Expr::Null(_)) => (true, o),
                        _ => (false, lhs),
                    };
                    if null_side {
                        if let Some(l) = named(self, other) {
                            if self.local_type(l).is_reference() {
                                return Ok(Some(if *op == "==" {
                                    Cond::IsNull(l)
                                } else {
                                    Cond::NotNull(l)
                                }));
                            }
                        }
                        return Ok(None);
                    }
                }
                let as_operand = |this: &Self, e: &Expr| -> Option<(Operand, Type)> {
                    match e {
                        Expr::Int(v, _) => Some((Operand::Const(*v), Type::Int)),
                        Expr::Bool(b, _) => Some((Operand::Const(i64::from(*b)), Type::Bool)),
                        Expr::Name(_, _) => {
                            let l = named(this, e)?;
                            Some((Operand::Local(l), this.local_type(l)))
                        }
                        _ => None,
                    }
                };
                let bop = binop_of(op);
                if !(bop.is_comparison()) {
                    return Ok(None);
                }
                let (Some((l, lt)), Some((r, rt))) = (as_operand(self, lhs), as_operand(self, rhs))
                else {
                    return Ok(None);
                };
                let ok = match bop {
                    BinOp::Eq | BinOp::Ne => lt == rt && !lt.is_reference(),
                    _ => lt == Type::Int && rt == Type::Int,
                };
                if ok {
                    Ok(Some(Cond::Cmp {
                        op: bop,
                        lhs: l,
                        rhs: r,
                    }))
                } else {
                    Ok(None)
                }
            }
            _ => Ok(None),
        }
    }

    /// Lowers an arbitrary boolean expression into `flag`, handling
    /// reference-vs-null comparisons (which have no expression form in the
    /// IR) via a small `if`.
    fn lower_bool_into(&mut self, flag: LocalId, e: ExprId) -> Result<()> {
        if let Expr::Binary {
            op: op @ ("==" | "!="),
            lhs,
            rhs,
            ..
        } = self.expr(e)
        {
            if let Some(other) = self.null_test_operand(*lhs, *rhs) {
                let (local, ty) = self.lower_to_local(other)?;
                if !ty.is_reference() {
                    return Err(err(
                        self.expr(other).span(),
                        "`null` compared with a non-reference",
                    ));
                }
                let cond = if *op == "==" {
                    Cond::IsNull(local)
                } else {
                    Cond::NotNull(local)
                };
                self.begin_frame();
                self.mb.const_int(flag, 1);
                let then_stmts = self.end_frame();
                self.begin_frame();
                self.mb.const_int(flag, 0);
                let else_stmts = self.end_frame();
                self.mb.push_if(cond, then_stmts, else_stmts);
                return Ok(());
            }
        }
        let ty = self.lower_into(flag, e)?;
        if ty != Type::Bool {
            return Err(err(self.expr(e).span(), "condition must be `boolean`"));
        }
        Ok(())
    }

    /// For `lhs OP rhs` where one side is `null`, the other side (the
    /// right one when both are `null`).
    fn null_test_operand(&self, lhs: ExprId, rhs: ExprId) -> Option<ExprId> {
        match (self.expr(lhs), self.expr(rhs)) {
            (Expr::Null(_), _) => Some(rhs),
            (_, Expr::Null(_)) => Some(lhs),
            _ => None,
        }
    }

    fn begin_frame(&mut self) {
        self.mb.begin_frame();
    }

    fn end_frame(&mut self) -> Vec<leakchecker_ir::stmt::Stmt> {
        self.mb.end_frame()
    }

    fn resolve_type(&self, name: &TypeName<'s>) -> Result<Type> {
        let base = match name.base {
            "int" => Type::Int,
            "boolean" => Type::Bool,
            "void" => Type::Void,
            other => Type::Ref(
                *self
                    .class_ids
                    .get(other)
                    .ok_or_else(|| err(name.span, format!("unknown type `{other}`")))?,
            ),
        };
        let mut ty = base;
        for _ in 0..name.dims {
            ty = ty.into_array();
        }
        Ok(ty)
    }

    fn check_assignable(&self, from: &Type, to: &Type, span: Span) -> Result<()> {
        if self.assignable(from, to) {
            Ok(())
        } else {
            Err(err(
                span,
                format!("type mismatch: cannot assign {from:?} to {to:?}"),
            ))
        }
    }

    fn assignable(&self, from: &Type, to: &Type) -> bool {
        match (from, to) {
            (Type::Int, Type::Int) | (Type::Bool, Type::Bool) => true,
            // `null` is lowered with the target's own type, so a Ref-to-Ref
            // check covers it.
            (Type::Ref(a), Type::Ref(b)) => self.mb.program().is_subclass(*a, *b),
            // Arrays are covariant in element reference types (like Java).
            (Type::Array(a), Type::Array(b)) => a == b || self.assignable(a, b),
            // Any array is an Object.
            (Type::Array(_), Type::Ref(c)) => *c == self.mb.program().object_class(),
            _ => false,
        }
    }

    // ---------- expressions ----------

    /// Lowers `e` and stores the value into an existing local `dst`.
    /// Returns the value's type.
    fn lower_into(&mut self, dst: LocalId, e: ExprId) -> Result<Type> {
        match self.expr(e) {
            Expr::Null(_) => {
                self.mb.assign_null(dst);
                Ok(self.local_type(dst))
            }
            _ => {
                let (src, ty) = self.lower_to_local(e)?;
                if src != dst {
                    self.mb.assign(dst, src);
                }
                Ok(ty)
            }
        }
    }

    /// Lowers `e` to an operand, short-cutting integer constants.
    fn lower_to_operand(&mut self, e: ExprId) -> Result<(Operand, Type)> {
        match self.expr(e) {
            Expr::Int(v, _) => Ok((Operand::Const(*v), Type::Int)),
            Expr::Bool(b, _) => Ok((Operand::Const(i64::from(*b)), Type::Bool)),
            Expr::Neg(inner, _) => {
                if let Expr::Int(v, _) = *self.expr(*inner) {
                    return Ok((Operand::Const(-v), Type::Int));
                }
                let (local, ty) = self.lower_to_local(e)?;
                Ok((Operand::Local(local), ty))
            }
            _ => {
                let (local, ty) = self.lower_to_local(e)?;
                Ok((Operand::Local(local), ty))
            }
        }
    }

    /// Lowers `e` into a (possibly fresh) local, returning it and its type.
    fn lower_to_local(&mut self, e: ExprId) -> Result<(LocalId, Type)> {
        match self.expr(e) {
            Expr::Null(span) => Err(err(
                *span,
                "`null` needs a typed context (assign it to a variable or field)",
            )),
            Expr::This(span) => {
                if self.mb.program().method(self.mb.id()).is_static {
                    return Err(err(*span, "`this` in a static method"));
                }
                let this = self.mb.this();
                Ok((this, Type::Ref(self.class)))
            }
            Expr::Int(v, _) => {
                let t = self.mb.temp(Type::Int);
                self.mb.const_int(t, *v);
                Ok((t, Type::Int))
            }
            Expr::Bool(b, _) => {
                let t = self.mb.temp(Type::Bool);
                self.mb.const_int(t, i64::from(*b));
                Ok((t, Type::Bool))
            }
            Expr::NonDet(_) => {
                let t = self.mb.temp(Type::Bool);
                self.mb.nondet_bool(t);
                Ok((t, Type::Bool))
            }
            Expr::Name(name, span) => {
                if let Some(local) = self.lookup_local(name) {
                    return Ok((local, self.local_type(local)));
                }
                // Unqualified field access on `this` / the current class.
                if let Some(fid) = self.mb.program().resolve_field(self.class, name) {
                    let field = self.mb.program().field(fid);
                    let fty = field.ty.clone();
                    let is_static = field.is_static;
                    let t = self.mb.temp(fty.clone());
                    if is_static {
                        self.mb.static_load(t, fid);
                    } else {
                        if self.mb.program().method(self.mb.id()).is_static {
                            return Err(err(
                                *span,
                                format!("instance field `{name}` in a static method"),
                            ));
                        }
                        let this = self.mb.this();
                        self.mb.load(t, this, fid);
                    }
                    return Ok((t, fty));
                }
                Err(err(*span, format!("unknown variable `{name}`")))
            }
            Expr::Field { base, name, span } => {
                let (base_local, base_ty) = match self.receiver(*base)? {
                    // Static field: `ClassName.f`.
                    Receiver::Class(cid) => {
                        let fid =
                            self.mb.program().resolve_field(cid, name).ok_or_else(|| {
                                err(*span, format!("unknown static field `{name}`"))
                            })?;
                        if !self.mb.program().field(fid).is_static {
                            return Err(err(
                                *span,
                                format!("`{name}` is an instance field, not static"),
                            ));
                        }
                        let fty = self.mb.program().field(fid).ty.clone();
                        let t = self.mb.temp(fty.clone());
                        self.mb.static_load(t, fid);
                        return Ok((t, fty));
                    }
                    Receiver::Value(local, ty) => (local, ty),
                };
                match base_ty {
                    Type::Ref(cid) => {
                        let fid = self.mb.program().resolve_field(cid, name).ok_or_else(|| {
                            err(
                                *span,
                                format!(
                                    "no field `{name}` on `{}`",
                                    self.mb.program().class(cid).name
                                ),
                            )
                        })?;
                        if self.mb.program().field(fid).is_static {
                            return Err(err(
                                *span,
                                format!("`{name}` is static; access it via the class name"),
                            ));
                        }
                        let fty = self.mb.program().field(fid).ty.clone();
                        let t = self.mb.temp(fty.clone());
                        self.mb.load(t, base_local, fid);
                        Ok((t, fty))
                    }
                    other => Err(err(*span, format!("field access on non-object {other:?}"))),
                }
            }
            Expr::Index { base, index, span } => {
                let (base_local, base_ty) = self.lower_to_local(*base)?;
                let elem_ty = base_ty
                    .element()
                    .ok_or_else(|| err(*span, "indexing a non-array"))?
                    .clone();
                let (idx, ity) = self.lower_to_operand(*index)?;
                if ity != Type::Int {
                    return Err(err(self.expr(*index).span(), "array index must be `int`"));
                }
                let t = self.mb.temp(elem_ty.clone());
                self.mb.array_load(t, base_local, idx);
                Ok((t, elem_ty))
            }
            Expr::Call {
                base,
                name,
                args,
                span,
            } => self.lower_call(*base, name, args, *span),
            Expr::New {
                class,
                args,
                annotation,
                span,
            } => {
                let cid = *self
                    .class_ids
                    .get(*class)
                    .ok_or_else(|| err(*span, format!("unknown class `{class}`")))?;
                let sig = self
                    .find_sig(cid, "<init>")
                    .ok_or_else(|| err(*span, format!("class `{class}` has no constructor")))?;
                if sig.params.len() != args.len() {
                    return Err(err(
                        *span,
                        format!(
                            "constructor of `{class}` takes {} argument(s), {} given",
                            sig.params.len(),
                            args.len()
                        ),
                    ));
                }
                let base = self.lower_args(args, &sig.params)?;
                let t = self.mb.temp(Type::Ref(cid));
                self.apply_annotation(annotation);
                self.mb.new_object(t, cid);
                self.mb
                    .call_special(None, t, sig.id, &self.arg_stack[base..]);
                self.arg_stack.truncate(base);
                Ok((t, Type::Ref(cid)))
            }
            Expr::NewArray {
                elem,
                len,
                annotation,
                span: _,
            } => {
                let elem_ty = self.resolve_type(elem)?;
                let (len_op, lty) = self.lower_to_operand(*len)?;
                if lty != Type::Int {
                    return Err(err(self.expr(*len).span(), "array length must be `int`"));
                }
                let t = self.mb.temp(elem_ty.clone().into_array());
                self.apply_annotation(annotation);
                self.mb.new_array(t, elem_ty.clone(), len_op);
                Ok((t, elem_ty.into_array()))
            }
            Expr::Binary { op, lhs, rhs, span } => {
                let bop = binop_of(op);
                let (l, lt) = self.lower_to_operand(*lhs)?;
                let (r, rt) = self.lower_to_operand(*rhs)?;
                let out_ty = match bop {
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem => {
                        if lt != Type::Int || rt != Type::Int {
                            return Err(err(*span, "arithmetic requires `int` operands"));
                        }
                        Type::Int
                    }
                    BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                        if lt != Type::Int || rt != Type::Int {
                            return Err(err(*span, "comparison requires `int` operands"));
                        }
                        Type::Bool
                    }
                    BinOp::Eq | BinOp::Ne => {
                        if lt.is_reference() || rt.is_reference() {
                            return Err(err(
                                *span,
                                "reference equality is only supported against `null` \
                                 in conditions",
                            ));
                        }
                        if lt != rt {
                            return Err(err(*span, "equality requires same-typed operands"));
                        }
                        Type::Bool
                    }
                    BinOp::And | BinOp::Or => {
                        if lt != Type::Bool || rt != Type::Bool {
                            return Err(err(*span, "logical operators require `boolean`"));
                        }
                        Type::Bool
                    }
                };
                let t = self.mb.temp(out_ty.clone());
                self.mb.binop(t, bop, l, r);
                Ok((t, out_ty))
            }
            Expr::Not(inner, span) => {
                let (v, ty) = self.lower_to_operand(*inner)?;
                if ty != Type::Bool {
                    return Err(err(*span, "`!` requires a `boolean`"));
                }
                let t = self.mb.temp(Type::Bool);
                self.mb.binop(t, BinOp::Eq, v, Operand::Const(0));
                Ok((t, Type::Bool))
            }
            Expr::Neg(inner, span) => {
                let (v, ty) = self.lower_to_operand(*inner)?;
                if ty != Type::Int {
                    return Err(err(*span, "unary `-` requires an `int`"));
                }
                let t = self.mb.temp(Type::Int);
                self.mb.binop(t, BinOp::Sub, Operand::Const(0), v);
                Ok((t, Type::Int))
            }
        }
    }

    fn apply_annotation(&mut self, annotation: &Option<AllocAnnotation<'s>>) {
        match annotation {
            Some(AllocAnnotation::Leak) => self.mb.label_next(SiteLabel::Leak),
            Some(AllocAnnotation::FalsePositive(why)) => self
                .mb
                .label_next(SiteLabel::FalsePositive(why.as_ref().to_owned())),
            None => {}
        }
    }

    /// Lowers call arguments against the parameter types onto
    /// `arg_stack` and returns where they start. The caller passes that
    /// suffix to the builder and truncates the stack back to it.
    fn lower_args(&mut self, args: &[ExprId], params: &[Type]) -> Result<usize> {
        let base = self.arg_stack.len();
        for (&a, pty) in args.iter().zip(params) {
            let local = self.lower_arg(a, pty)?;
            self.arg_stack.push(local);
        }
        Ok(base)
    }

    /// Lowers an argument expression, giving `null` the parameter's type.
    fn lower_arg(&mut self, e: ExprId, pty: &Type) -> Result<LocalId> {
        if matches!(self.expr(e), Expr::Null(_)) {
            let t = self.mb.temp(pty.clone());
            self.mb.assign_null(t);
            return Ok(t);
        }
        let (local, ty) = self.lower_to_local(e)?;
        self.check_assignable(&ty, pty, self.expr(e).span())?;
        Ok(local)
    }

    fn lower_call(
        &mut self,
        base: Option<ExprId>,
        name: &'s str,
        args: &[ExprId],
        span: Span,
    ) -> Result<(LocalId, Type)> {
        // Resolve the receiver and the target signature.
        let (receiver, sig): (Option<LocalId>, &Sig) = match base {
            None => {
                // Unqualified: method of the current class (or supers).
                let sig = self
                    .find_sig(self.class, name)
                    .ok_or_else(|| err(span, format!("unknown method `{name}`")))?;
                if sig.is_static {
                    (None, sig)
                } else {
                    if self.mb.program().method(self.mb.id()).is_static {
                        return Err(err(
                            span,
                            format!("instance method `{name}` called from a static method"),
                        ));
                    }
                    (Some(self.mb.this()), sig)
                }
            }
            Some(b) => match self.receiver(b)? {
                Receiver::Class(cid) => {
                    let sig = self.find_sig(cid, name).ok_or_else(|| {
                        err(
                            span,
                            format!(
                                "no method `{name}` on class `{}`",
                                self.mb.program().class(cid).name
                            ),
                        )
                    })?;
                    if !sig.is_static {
                        return Err(err(
                            span,
                            format!("`{name}` is an instance method; call it on an object"),
                        ));
                    }
                    (None, sig)
                }
                Receiver::Value(recv, rty) => {
                    let cid = match rty {
                        Type::Ref(c) => c,
                        other => {
                            return Err(err(span, format!("method call on non-object {other:?}")))
                        }
                    };
                    let sig = self.find_sig(cid, name).ok_or_else(|| {
                        err(
                            span,
                            format!(
                                "no method `{name}` on `{}`",
                                self.mb.program().class(cid).name
                            ),
                        )
                    })?;
                    if sig.is_static {
                        return Err(err(
                            span,
                            format!("`{name}` is static; call it via the class name"),
                        ));
                    }
                    (Some(recv), sig)
                }
            },
        };
        if sig.params.len() != args.len() {
            return Err(err(
                span,
                format!(
                    "`{name}` takes {} argument(s), {} given",
                    sig.params.len(),
                    args.len()
                ),
            ));
        }
        let base = self.lower_args(args, &sig.params)?;
        let (dst, out_ty) = if sig.ret == Type::Void {
            (None, Type::Void)
        } else {
            (Some(self.mb.temp(sig.ret.clone())), sig.ret.clone())
        };
        let arg_locals = &self.arg_stack[base..];
        match receiver {
            Some(recv) => {
                self.mb.call_virtual(dst, recv, sig.id, arg_locals);
            }
            None => {
                self.mb.call_static(dst, sig.id, arg_locals);
            }
        }
        self.arg_stack.truncate(base);
        match dst {
            Some(d) => Ok((d, out_ty)),
            None => {
                // Void calls used in statement position: return a dummy.
                let t = self.mb.temp(Type::Int);
                self.mb.const_int(t, 0);
                Ok((t, Type::Void))
            }
        }
    }

    /// Resolves the receiver of a field access or call: a bare name that
    /// denotes a class (and is not shadowed by a local variable) is the
    /// class; anything else is lowered to a local. A local's name is looked
    /// up once.
    fn receiver(&mut self, e: ExprId) -> Result<Receiver> {
        if let Expr::Name(name, _) = self.expr(e) {
            if let Some(local) = self.lookup_local(name) {
                return Ok(Receiver::Value(local, self.local_type(local)));
            }
            if let Some(&cid) = self.class_ids.get(*name) {
                return Ok(Receiver::Class(cid));
            }
        }
        let (local, ty) = self.lower_to_local(e)?;
        Ok(Receiver::Value(local, ty))
    }

    // ---------- assignments ----------

    fn lower_assign(&mut self, target: ExprId, value: ExprId, span: Span) -> Result<()> {
        match self.expr(target) {
            Expr::Name(name, nspan) => {
                if let Some(local) = self.lookup_local(name) {
                    let lty = self.local_type(local);
                    let vty = self.lower_into(local, value)?;
                    let value = self.expr(value);
                    if !matches!(value, Expr::Null(_)) {
                        self.check_assignable(&vty, &lty, value.span())?;
                    }
                    return Ok(());
                }
                // Unqualified field assignment.
                if let Some(fid) = self.mb.program().resolve_field(self.class, name) {
                    let field = self.mb.program().field(fid);
                    let fty = field.ty.clone();
                    let is_static = field.is_static;
                    let v = self.lower_value_typed(value, &fty)?;
                    if is_static {
                        self.mb.static_store(fid, v);
                    } else {
                        if self.mb.program().method(self.mb.id()).is_static {
                            return Err(err(
                                *nspan,
                                format!("instance field `{name}` in a static method"),
                            ));
                        }
                        let this = self.mb.this();
                        self.mb.store(this, fid, v);
                    }
                    return Ok(());
                }
                Err(err(*nspan, format!("unknown variable `{name}`")))
            }
            Expr::Field {
                base,
                name,
                span: fspan,
            } => {
                let (base_local, base_ty) = match self.receiver(*base)? {
                    Receiver::Class(cid) => {
                        let fid =
                            self.mb.program().resolve_field(cid, name).ok_or_else(|| {
                                err(*fspan, format!("unknown static field `{name}`"))
                            })?;
                        if !self.mb.program().field(fid).is_static {
                            return Err(err(*fspan, format!("`{name}` is not static")));
                        }
                        let fty = self.mb.program().field(fid).ty.clone();
                        let v = self.lower_value_typed(value, &fty)?;
                        self.mb.static_store(fid, v);
                        return Ok(());
                    }
                    Receiver::Value(local, ty) => (local, ty),
                };
                let cid = base_ty
                    .class()
                    .ok_or_else(|| err(*fspan, "field store on non-object"))?;
                let fid = self.mb.program().resolve_field(cid, name).ok_or_else(|| {
                    err(
                        *fspan,
                        format!(
                            "no field `{name}` on `{}`",
                            self.mb.program().class(cid).name
                        ),
                    )
                })?;
                if self.mb.program().field(fid).is_static {
                    return Err(err(*fspan, format!("`{name}` is static")));
                }
                let fty = self.mb.program().field(fid).ty.clone();
                let v = self.lower_value_typed(value, &fty)?;
                self.mb.store(base_local, fid, v);
                Ok(())
            }
            Expr::Index {
                base,
                index,
                span: ispan,
            } => {
                let (base_local, base_ty) = self.lower_to_local(*base)?;
                let elem_ty = base_ty
                    .element()
                    .ok_or_else(|| err(*ispan, "indexing a non-array"))?
                    .clone();
                let (idx, ity) = self.lower_to_operand(*index)?;
                if ity != Type::Int {
                    return Err(err(self.expr(*index).span(), "array index must be `int`"));
                }
                let v = self.lower_value_typed(value, &elem_ty)?;
                self.mb.array_store(base_local, idx, v);
                Ok(())
            }
            other => Err(err(span.max_or(other.span()), "invalid assignment target")),
        }
    }

    /// Lowers `value` with an expected type (so `null` works), checking
    /// assignability.
    fn lower_value_typed(&mut self, value: ExprId, expected: &Type) -> Result<LocalId> {
        if matches!(self.expr(value), Expr::Null(_)) {
            let t = self.mb.temp(expected.clone());
            self.mb.assign_null(t);
            return Ok(t);
        }
        let (v, vty) = self.lower_to_local(value)?;
        self.check_assignable(&vty, expected, self.expr(value).span())?;
        Ok(v)
    }

    // ---------- conditions ----------

    fn lower_cond(&mut self, cond: ExprId) -> Result<Cond> {
        match self.expr(cond) {
            Expr::NonDet(_) => Ok(Cond::NonDet),
            Expr::Binary {
                op: op @ ("==" | "!="),
                lhs,
                rhs,
                ..
            } => {
                // Reference comparisons against null become IsNull/NotNull.
                if let Some(other) = self.null_test_operand(*lhs, *rhs) {
                    let (local, ty) = self.lower_to_local(other)?;
                    if !ty.is_reference() {
                        return Err(err(
                            self.expr(other).span(),
                            "`null` compared with a non-reference",
                        ));
                    }
                    return Ok(if *op == "==" {
                        Cond::IsNull(local)
                    } else {
                        Cond::NotNull(local)
                    });
                }
                self.lower_cmp_cond(cond)
            }
            Expr::Binary {
                op: "<" | "<=" | ">" | ">=",
                ..
            } => self.lower_cmp_cond(cond),
            Expr::Not(inner, _) => {
                let (local, ty) = self.lower_to_local(*inner)?;
                if ty != Type::Bool {
                    return Err(err(self.expr(*inner).span(), "`!` requires a `boolean`"));
                }
                Ok(Cond::NotLocal(local))
            }
            other => {
                let (local, ty) = self.lower_to_local(cond)?;
                if ty != Type::Bool {
                    return Err(err(other.span(), "condition must be `boolean`"));
                }
                Ok(Cond::Local(local))
            }
        }
    }

    fn lower_cmp_cond(&mut self, cond: ExprId) -> Result<Cond> {
        let Expr::Binary { op, lhs, rhs, span } = self.expr(cond) else {
            unreachable!("caller checked")
        };
        let (l, lt) = self.lower_to_operand(*lhs)?;
        let (r, rt) = self.lower_to_operand(*rhs)?;
        let bop = binop_of(op);
        match bop {
            BinOp::Eq | BinOp::Ne => {
                if lt != rt {
                    return Err(err(*span, "equality requires same-typed operands"));
                }
                if lt.is_reference() {
                    return Err(err(
                        *span,
                        "reference equality is only supported against `null`",
                    ));
                }
            }
            _ => {
                if lt != Type::Int || rt != Type::Int {
                    return Err(err(*span, "comparison requires `int` operands"));
                }
            }
        }
        Ok(Cond::Cmp {
            op: bop,
            lhs: l,
            rhs: r,
        })
    }
}

/// What the receiver of a field access or call denotes.
enum Receiver {
    /// A class name: the access or call is static.
    Class(ClassId),
    /// A value in a local, with its type.
    Value(LocalId, Type),
}

trait SpanExt {
    fn max_or(self, other: Span) -> Span;
}

impl SpanExt for Span {
    fn max_or(self, other: Span) -> Span {
        if self == Span::default() {
            other
        } else {
            self
        }
    }
}

fn binop_of(op: &str) -> BinOp {
    match op {
        "+" => BinOp::Add,
        "-" => BinOp::Sub,
        "*" => BinOp::Mul,
        "/" => BinOp::Div,
        "%" => BinOp::Rem,
        "<" => BinOp::Lt,
        "<=" => BinOp::Le,
        ">" => BinOp::Gt,
        ">=" => BinOp::Ge,
        "==" => BinOp::Eq,
        "!=" => BinOp::Ne,
        "&&" => BinOp::And,
        "||" => BinOp::Or,
        other => unreachable!("parser produced unknown operator {other}"),
    }
}
