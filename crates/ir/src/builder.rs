//! Programmatic construction of IR programs.
//!
//! The frontend produces programs from source text; analyses' unit tests and
//! the synthetic program generator build them directly through
//! [`ProgramBuilder`] / [`MethodBuilder`]. Structured statements are built
//! with closures so nesting in the Rust source mirrors nesting in the IR:
//!
//! ```
//! use leakchecker_ir::builder::ProgramBuilder;
//! use leakchecker_ir::types::Type;
//!
//! let mut pb = ProgramBuilder::new();
//! let c = pb.add_class("C", None);
//! let mut mb = pb.method(c, "run", Type::Void, true);
//! let x = mb.local("x", Type::Ref(c));
//! mb.while_loop(|mb| {
//!     mb.new_object(x, c);
//! });
//! mb.finish();
//! let program = pb.finish();
//! assert_eq!(program.allocs().len(), 1);
//! ```

use crate::ids::{AllocSite, CallSite, ClassId, FieldId, LocalId, LoopId, MethodId};
use crate::program::{AllocInfo, CallInfo, Class, Field, Local, LoopInfo, Method, Program};
use crate::stmt::{BinOp, CallKind, Cond, Operand, SiteLabel, Stmt};
use crate::types::Type;
use std::fmt::Write as _;

/// Builder for a whole [`Program`].
#[derive(Debug)]
pub struct ProgramBuilder {
    program: Program,
    /// The statement stack of the last finished [`MethodBuilder`], kept
    /// so the next method reuses its capacity.
    spare_stmts: Vec<Stmt>,
}

impl Default for ProgramBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ProgramBuilder {
    /// Creates a builder over a fresh program (containing only `Object`).
    pub fn new() -> Self {
        ProgramBuilder {
            program: Program::new(),
            spare_stmts: Vec::new(),
        }
    }

    /// Resumes building on top of an existing program, e.g. to synthesize
    /// an artificial driver loop around a checkable region.
    pub fn resume(program: Program) -> Self {
        ProgramBuilder {
            program,
            spare_stmts: Vec::new(),
        }
    }

    /// Adds an application class extending `superclass`
    /// (or `Object` when `None`).
    pub fn add_class(&mut self, name: &str, superclass: Option<ClassId>) -> ClassId {
        self.add_class_full(name, superclass, false)
    }

    /// Adds a standard-library class; see [`Class::is_library`].
    pub fn add_library_class(&mut self, name: &str, superclass: Option<ClassId>) -> ClassId {
        self.add_class_full(name, superclass, true)
    }

    fn add_class_full(
        &mut self,
        name: &str,
        superclass: Option<ClassId>,
        is_library: bool,
    ) -> ClassId {
        self.program.push_class(Class {
            name: name.to_string(),
            superclass: Some(superclass.unwrap_or(ClassId(0))),
            fields: Vec::new(),
            methods: Vec::new(),
            is_library,
        })
    }

    /// Adds a field to `owner`.
    pub fn add_field(&mut self, owner: ClassId, name: &str, ty: Type, is_static: bool) -> FieldId {
        self.program.push_field(Field {
            name: name.to_string(),
            owner: Some(owner),
            ty,
            is_static,
        })
    }

    /// Starts building a method with no parameters.
    pub fn method(
        &mut self,
        owner: ClassId,
        name: &str,
        ret_ty: Type,
        is_static: bool,
    ) -> MethodBuilder<'_> {
        self.method_with_params(owner, name, ret_ty, is_static, &[])
    }

    /// Starts building a method with the given `(name, type)` parameters.
    pub fn method_with_params(
        &mut self,
        owner: ClassId,
        name: &str,
        ret_ty: Type,
        is_static: bool,
        params: &[(&str, Type)],
    ) -> MethodBuilder<'_> {
        let mut locals = Vec::new();
        if !is_static {
            locals.push(Local {
                name: "this".to_string(),
                ty: Type::Ref(owner),
            });
        }
        for (pname, pty) in params {
            locals.push(Local {
                name: (*pname).to_string(),
                ty: pty.clone(),
            });
        }
        let id = self.program.push_method(Method {
            name: name.to_string(),
            owner,
            is_static,
            param_count: params.len(),
            ret_ty,
            locals,
            body: Vec::new(),
        });
        MethodBuilder {
            stmts: std::mem::take(&mut self.spare_stmts),
            pb: self,
            method: id,
            frames: Vec::new(),
            locals_taken: 0,
            temp_counter: 0,
            next_label: SiteLabel::None,
        }
    }

    /// Designates the program entry point.
    pub fn set_entry(&mut self, method: MethodId) {
        self.program.set_entry(method);
    }

    /// Re-opens an existing method (declared earlier with an empty body)
    /// for body construction. Used by the frontend's two-pass lowering.
    pub fn resume_method(&mut self, method: MethodId) -> MethodBuilder<'_> {
        let temp_counter = self.program.method(method).locals.len();
        MethodBuilder {
            stmts: std::mem::take(&mut self.spare_stmts),
            pb: self,
            method,
            frames: Vec::new(),
            locals_taken: 0,
            temp_counter,
            next_label: SiteLabel::None,
        }
    }

    /// Replaces the superclass of `class`.
    ///
    /// The frontend declares all classes first (defaulting to `Object`) and
    /// patches `extends` clauses once every name is known.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn patch_superclass(&mut self, class: ClassId, superclass: ClassId) {
        assert!(superclass.index() < self.program.classes().len());
        self.program.class_mut(class).superclass = Some(superclass);
    }

    /// Read-only access to the program under construction.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Finishes construction and returns the program.
    pub fn finish(self) -> Program {
        self.program
    }
}

/// Builder for a single method body.
///
/// Obtained from [`ProgramBuilder::method`]. Simple statements are appended
/// with dedicated methods; `if` / `while` take closures that build the
/// nested bodies. Call [`MethodBuilder::finish`] when the body is complete.
#[derive(Debug)]
pub struct MethodBuilder<'pb> {
    pb: &'pb mut ProgramBuilder,
    method: MethodId,
    /// Statements of every open block, outermost first.
    stmts: Vec<Stmt>,
    /// Where each open nested block starts in `stmts`, innermost last.
    /// Closing a block moves its statements into one exact-size `Vec`.
    frames: Vec<usize>,
    locals_taken: usize,
    temp_counter: usize,
    next_label: SiteLabel,
}

impl<'pb> MethodBuilder<'pb> {
    /// The id of the method being built.
    pub fn id(&self) -> MethodId {
        self.method
    }

    /// The `this` local (instance methods only).
    ///
    /// # Panics
    ///
    /// Panics when called on a static method's builder.
    pub fn this(&self) -> LocalId {
        self.pb
            .program
            .method(self.method)
            .this_local()
            .expect("static method has no `this`")
    }

    /// The local of the `i`-th parameter.
    pub fn param(&self, i: usize) -> LocalId {
        self.pb.program.method(self.method).param_local(i)
    }

    /// Declares a named local variable.
    pub fn local(&mut self, name: &str, ty: Type) -> LocalId {
        self.push_local(name.to_string(), ty)
    }

    /// Declares a compiler temporary, named `$tN`.
    pub fn temp(&mut self, ty: Type) -> LocalId {
        self.temp_counter += 1;
        // `$t` and up to six digits fit without growing the string.
        let mut name = String::with_capacity(8);
        write!(name, "$t{}", self.temp_counter).expect("writing to a String cannot fail");
        self.push_local(name, ty)
    }

    fn push_local(&mut self, name: String, ty: Type) -> LocalId {
        let m = self.pb.program.method_mut(self.method);
        let id = LocalId::from_index(m.locals.len());
        m.locals.push(Local { name, ty });
        id
    }

    fn push(&mut self, stmt: Stmt) {
        self.stmts.push(stmt);
    }

    /// Attaches a ground-truth label to the *next* allocation statement.
    pub fn label_next(&mut self, label: SiteLabel) {
        self.next_label = label;
    }

    fn fresh_alloc(&mut self, ty: Type, describe: String) -> AllocSite {
        let label = std::mem::take(&mut self.next_label);
        self.pb.program.push_alloc(AllocInfo {
            method: self.method,
            ty,
            label,
            describe,
        })
    }

    /// Appends `dst = new C`.
    pub fn new_object(&mut self, dst: LocalId, class: ClassId) -> AllocSite {
        let describe = ["new ", &self.pb.program.class(class).name].concat();
        let site = self.fresh_alloc(Type::Ref(class), describe);
        self.push(Stmt::New { dst, class, site });
        site
    }

    /// Appends `dst = new T[len]`.
    pub fn new_array(&mut self, dst: LocalId, elem: Type, len: Operand) -> AllocSite {
        let site = self.fresh_alloc(elem.clone().into_array(), format!("new {elem:?}[]"));
        self.push(Stmt::NewArray {
            dst,
            elem,
            len,
            site,
        });
        site
    }

    /// Appends `dst = src`.
    pub fn assign(&mut self, dst: LocalId, src: LocalId) {
        self.push(Stmt::Assign { dst, src });
    }

    /// Appends `dst = null`.
    pub fn assign_null(&mut self, dst: LocalId) {
        self.push(Stmt::AssignNull { dst });
    }

    /// Appends `dst = value`.
    pub fn const_int(&mut self, dst: LocalId, value: i64) {
        self.push(Stmt::Const { dst, value });
    }

    /// Appends `dst = nondet()`.
    pub fn nondet_bool(&mut self, dst: LocalId) {
        self.push(Stmt::NonDetBool { dst });
    }

    /// Read-only access to the program under construction, including the
    /// partially built current method.
    pub fn program(&self) -> &Program {
        &self.pb.program
    }

    /// Appends `dst = lhs OP rhs`.
    pub fn binop(&mut self, dst: LocalId, op: BinOp, lhs: Operand, rhs: Operand) {
        self.push(Stmt::BinOp { dst, op, lhs, rhs });
    }

    /// Appends `dst = base.field`.
    pub fn load(&mut self, dst: LocalId, base: LocalId, field: FieldId) {
        self.push(Stmt::Load { dst, base, field });
    }

    /// Appends `base.field = src`.
    pub fn store(&mut self, base: LocalId, field: FieldId, src: LocalId) {
        self.push(Stmt::Store { base, field, src });
    }

    /// Appends `dst = base[index]`.
    pub fn array_load(&mut self, dst: LocalId, base: LocalId, index: Operand) {
        self.push(Stmt::ArrayLoad { dst, base, index });
    }

    /// Appends `base[index] = src`.
    pub fn array_store(&mut self, base: LocalId, index: Operand, src: LocalId) {
        self.push(Stmt::ArrayStore { base, index, src });
    }

    /// Appends `dst = Field` (static load).
    pub fn static_load(&mut self, dst: LocalId, field: FieldId) {
        self.push(Stmt::StaticLoad { dst, field });
    }

    /// Appends `Field = src` (static store).
    pub fn static_store(&mut self, field: FieldId, src: LocalId) {
        self.push(Stmt::StaticStore { field, src });
    }

    /// Appends a virtual call `dst = receiver.m(args)`.
    pub fn call_virtual(
        &mut self,
        dst: Option<LocalId>,
        receiver: LocalId,
        method: MethodId,
        args: &[LocalId],
    ) -> CallSite {
        self.call(dst, CallKind::Virtual, Some(receiver), method, args)
    }

    /// Appends a static call `dst = C.m(args)`.
    pub fn call_static(
        &mut self,
        dst: Option<LocalId>,
        method: MethodId,
        args: &[LocalId],
    ) -> CallSite {
        self.call(dst, CallKind::Static, None, method, args)
    }

    /// Appends a non-virtual instance call (constructor / `super`).
    pub fn call_special(
        &mut self,
        dst: Option<LocalId>,
        receiver: LocalId,
        method: MethodId,
        args: &[LocalId],
    ) -> CallSite {
        self.call(dst, CallKind::Special, Some(receiver), method, args)
    }

    fn call(
        &mut self,
        dst: Option<LocalId>,
        kind: CallKind,
        receiver: Option<LocalId>,
        method: MethodId,
        args: &[LocalId],
    ) -> CallSite {
        let site = self.pb.program.push_call(CallInfo {
            method: self.method,
        });
        self.push(Stmt::Call {
            dst,
            kind,
            method,
            receiver,
            args: args.to_vec(),
            site,
        });
        site
    }

    /// Appends `return` / `return v`.
    pub fn ret(&mut self, value: Option<LocalId>) {
        self.push(Stmt::Return(value));
    }

    /// Appends `break`.
    pub fn brk(&mut self) {
        self.push(Stmt::Break);
    }

    /// Appends `continue`.
    pub fn cont(&mut self) {
        self.push(Stmt::Continue);
    }

    /// Appends `if (cond) { then } else { otherwise }`.
    pub fn if_else(
        &mut self,
        cond: Cond,
        then_build: impl FnOnce(&mut Self),
        else_build: impl FnOnce(&mut Self),
    ) {
        self.begin_frame();
        then_build(self);
        let then_branch = self.end_frame();
        self.begin_frame();
        else_build(self);
        let else_branch = self.end_frame();
        self.push(Stmt::If {
            cond,
            then_branch,
            else_branch,
        });
    }

    /// Appends `if (*) { then } else { otherwise }` with an opaque condition.
    pub fn if_nondet(
        &mut self,
        then_build: impl FnOnce(&mut Self),
        else_build: impl FnOnce(&mut Self),
    ) {
        self.if_else(Cond::NonDet, then_build, else_build);
    }

    /// Appends `while (cond) { body }` and returns the loop id.
    pub fn while_cond(&mut self, cond: Cond, body_build: impl FnOnce(&mut Self)) -> LoopId {
        let id = self.pb.program.push_loop(LoopInfo {
            method: self.method,
            synthetic: false,
        });
        self.begin_frame();
        body_build(self);
        let body = self.end_frame();
        self.push(Stmt::While { id, cond, body });
        id
    }

    /// Appends `while (*) { body }` with an opaque condition.
    pub fn while_loop(&mut self, body_build: impl FnOnce(&mut Self)) -> LoopId {
        self.while_cond(Cond::NonDet, body_build)
    }

    /// Opens an explicit statement frame. Statements appended afterwards
    /// accumulate in the frame until [`MethodBuilder::end_frame`] returns
    /// them. This is the non-closure alternative to
    /// [`MethodBuilder::if_else`] / [`MethodBuilder::while_cond`], used by
    /// the frontend's recursive lowering.
    pub fn begin_frame(&mut self) {
        self.frames.push(self.stmts.len());
    }

    /// Closes the innermost explicit frame and returns its statements.
    ///
    /// # Panics
    ///
    /// Panics if no frame is open.
    pub fn end_frame(&mut self) -> Vec<Stmt> {
        let start = self.frames.pop().expect("no open frame");
        self.stmts.split_off(start)
    }

    /// Appends an `if` built from pre-assembled branch bodies
    /// (see [`MethodBuilder::begin_frame`]).
    pub fn push_if(&mut self, cond: Cond, then_branch: Vec<Stmt>, else_branch: Vec<Stmt>) {
        self.push(Stmt::If {
            cond,
            then_branch,
            else_branch,
        });
    }

    /// Appends a `while` built from a pre-assembled body and returns its
    /// loop id.
    pub fn push_while(&mut self, cond: Cond, body: Vec<Stmt>) -> LoopId {
        let id = self.pb.program.push_loop(LoopInfo {
            method: self.method,
            synthetic: false,
        });
        self.push(Stmt::While { id, cond, body });
        id
    }

    /// Appends a counted loop `i = 0; while (i < n) { body; i = i + 1 }`
    /// and returns `(loop id, counter local)`.
    pub fn counted_loop(&mut self, n: i64, body_build: impl FnOnce(&mut Self, LocalId)) -> LoopId {
        let i = self.temp(Type::Int);
        self.const_int(i, 0);
        self.while_cond(
            Cond::Cmp {
                op: BinOp::Lt,
                lhs: Operand::Local(i),
                rhs: Operand::Const(n),
            },
            |mb| {
                body_build(mb, i);
                mb.binop(i, BinOp::Add, Operand::Local(i), Operand::Const(1));
            },
        )
    }

    /// Finishes the body and writes it into the program.
    ///
    /// # Panics
    ///
    /// Panics if a structured frame was left open (cannot happen through the
    /// closure API) or locals were leaked.
    pub fn finish(mut self) {
        assert!(self.frames.is_empty(), "unclosed structured frame");
        let body = self.stmts.split_off(0);
        let _ = self.locals_taken;
        self.pb.program.method_mut(self.method).body = body;
        self.pb.spare_stmts = std::mem::take(&mut self.stmts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_nested_structure() {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("C", None);
        let mut mb = pb.method(c, "m", Type::Void, true);
        let x = mb.local("x", Type::Ref(c));
        let lp = mb.while_loop(|mb| {
            mb.if_nondet(
                |mb| {
                    mb.new_object(x, c);
                },
                |mb| {
                    mb.assign_null(x);
                },
            );
        });
        mb.finish();
        let p = pb.finish();
        assert_eq!(p.loops().len(), 1);
        assert_eq!(p.loop_info(lp).method, p.method_by_path("C.m").unwrap());
        let body = &p.methods()[p.method_by_path("C.m").unwrap().index()].body;
        assert_eq!(body.len(), 1);
        match &body[0] {
            Stmt::While { body, .. } => match &body[0] {
                Stmt::If {
                    then_branch,
                    else_branch,
                    ..
                } => {
                    assert!(matches!(then_branch[0], Stmt::New { .. }));
                    assert!(matches!(else_branch[0], Stmt::AssignNull { .. }));
                }
                other => panic!("expected if, got {other:?}"),
            },
            other => panic!("expected while, got {other:?}"),
        }
    }

    #[test]
    fn labels_attach_to_next_allocation() {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("C", None);
        let mut mb = pb.method(c, "m", Type::Void, true);
        let x = mb.local("x", Type::Ref(c));
        mb.label_next(SiteLabel::Leak);
        let s1 = mb.new_object(x, c);
        let s2 = mb.new_object(x, c);
        mb.finish();
        let p = pb.finish();
        assert!(p.alloc(s1).label.is_leak());
        assert_eq!(p.alloc(s2).label, SiteLabel::None);
        assert_eq!(p.alloc(s1).describe, "new C");
    }

    #[test]
    fn counted_loop_shape() {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("C", None);
        let mut mb = pb.method(c, "m", Type::Void, true);
        let x = mb.local("x", Type::Ref(c));
        mb.counted_loop(10, |mb, _i| {
            mb.new_object(x, c);
        });
        mb.finish();
        let p = pb.finish();
        let m = p.method_by_path("C.m").unwrap();
        let body = &p.method(m).body;
        // const-int init + while
        assert_eq!(body.len(), 2);
        match &body[1] {
            Stmt::While { body, cond, .. } => {
                assert!(matches!(cond, Cond::Cmp { op: BinOp::Lt, .. }));
                // new + increment
                assert_eq!(body.len(), 2);
            }
            other => panic!("expected while, got {other:?}"),
        }
    }

    #[test]
    fn params_and_this() {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("C", None);
        let mb = pb.method_with_params(c, "m", Type::Void, false, &[("p", Type::Int)]);
        assert_eq!(mb.this(), LocalId(0));
        assert_eq!(mb.param(0), LocalId(1));
        mb.finish();

        let mb = pb.method_with_params(c, "s", Type::Void, true, &[("p", Type::Int)]);
        assert_eq!(mb.param(0), LocalId(0));
        mb.finish();
    }

    #[test]
    fn calls_are_registered() {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("C", None);
        let mut callee = pb.method(c, "f", Type::Void, false);
        callee.ret(None);
        let callee_id = callee.id();
        callee.finish();
        let mut mb = pb.method(c, "g", Type::Void, false);
        let this = mb.this();
        let cs = mb.call_virtual(None, this, callee_id, &[]);
        mb.finish();
        let p = pb.finish();
        assert_eq!(p.calls().len(), 1);
        assert_eq!(p.call(cs).method, p.method_by_path("C.g").unwrap());
    }
}
