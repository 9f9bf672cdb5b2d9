//! Abstract syntax tree of the surface language.
//!
//! The parser produces this tree; the resolver lowers it to the
//! three-address IR of `leakchecker-ir`.
//!
//! Every name in the tree borrows from the source text (`'s`), and every
//! expression lives in one table ([`Unit::exprs`]) where nodes refer to
//! their operands by [`ExprId`]. An expression therefore costs no
//! allocation of its own; only lists (blocks, arguments, parameters) do,
//! one each. The resolver copies a name only where the IR keeps it.

use crate::error::Span;
use std::borrow::Cow;

/// A parsed compilation unit: a list of class declarations and the table
/// of every expression in them.
#[derive(Clone, Debug, Default)]
pub struct Unit<'s> {
    /// All classes in source order.
    pub classes: Vec<ClassDecl<'s>>,
    /// Every expression of the unit, operands before the nodes that use
    /// them. Index it with an [`ExprId`].
    pub exprs: Vec<Expr<'s>>,
}

impl<'s> std::ops::Index<ExprId> for Unit<'s> {
    type Output = Expr<'s>;

    fn index(&self, id: ExprId) -> &Expr<'s> {
        &self.exprs[id.index()]
    }
}

/// The position of an expression in [`Unit::exprs`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct ExprId(u32);

impl ExprId {
    /// The id of the expression at `index`.
    ///
    /// # Panics
    ///
    /// Panics past `u32::MAX` expressions.
    pub fn from_index(index: usize) -> ExprId {
        ExprId(u32::try_from(index).expect("fewer than 2^32 expressions"))
    }

    /// The table index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A class declaration.
#[derive(Clone, Debug)]
pub struct ClassDecl<'s> {
    /// Class name.
    pub name: &'s str,
    /// Superclass name, if an `extends` clause is present.
    pub superclass: Option<&'s str>,
    /// `library class` marks standard-library code.
    pub is_library: bool,
    /// Field declarations.
    pub fields: Vec<FieldDecl<'s>>,
    /// Method and constructor declarations.
    pub methods: Vec<MethodDecl<'s>>,
    /// Source location of the `class` keyword.
    pub span: Span,
}

/// A field declaration, optionally with an initializer expression.
#[derive(Clone, Debug)]
pub struct FieldDecl<'s> {
    /// Field name.
    pub name: &'s str,
    /// Declared type.
    pub ty: TypeName<'s>,
    /// `static` flag.
    pub is_static: bool,
    /// Optional initializer, lowered into constructor prologues
    /// (or a static initializer for static fields).
    pub init: Option<ExprId>,
    /// Source location.
    pub span: Span,
}

/// A method or constructor declaration.
#[derive(Clone, Debug)]
pub struct MethodDecl<'s> {
    /// Method name; constructors use the class name and are lowered to
    /// `<init>`.
    pub name: &'s str,
    /// `true` when this is a constructor.
    pub is_ctor: bool,
    /// `static` flag.
    pub is_static: bool,
    /// `@region` marks the method as a checkable region: the detector
    /// wraps its body in an artificial loop (paper Section 1).
    pub is_region: bool,
    /// Return type (`void` for constructors).
    pub ret_ty: TypeName<'s>,
    /// Parameter list.
    pub params: Vec<Param<'s>>,
    /// Body statements.
    pub body: Vec<Stmt<'s>>,
    /// Source location of the declaration.
    pub span: Span,
}

/// A formal parameter.
#[derive(Clone, Debug)]
pub struct Param<'s> {
    /// Parameter name.
    pub name: &'s str,
    /// Declared type.
    pub ty: TypeName<'s>,
}

/// A syntactic type name (resolved to `leakchecker_ir::Type` later).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TypeName<'s> {
    /// Base name: `int`, `boolean`, `void`, or a class name.
    pub base: &'s str,
    /// Number of `[]` suffixes.
    pub dims: usize,
    /// Source location.
    pub span: Span,
}

/// A statement.
#[derive(Clone, Debug)]
pub enum Stmt<'s> {
    /// `T x;` or `T x = e;`
    VarDecl {
        /// Declared type.
        ty: TypeName<'s>,
        /// Variable name.
        name: &'s str,
        /// Optional initializer.
        init: Option<ExprId>,
        /// Location.
        span: Span,
    },
    /// `lhs = e;` where `lhs` is a local, field, array element or static
    /// field place.
    Assign {
        /// Assignment target.
        target: ExprId,
        /// Right-hand side.
        value: ExprId,
        /// Location.
        span: Span,
    },
    /// An expression evaluated for effect (a call).
    Expr(ExprId),
    /// `if (cond) { .. } else { .. }`.
    If {
        /// Condition.
        cond: ExprId,
        /// Then branch.
        then_branch: Vec<Stmt<'s>>,
        /// Else branch (possibly empty).
        else_branch: Vec<Stmt<'s>>,
        /// Location.
        span: Span,
    },
    /// `while (cond) { .. }`, possibly annotated `@check`.
    While {
        /// Condition.
        cond: ExprId,
        /// Body.
        body: Vec<Stmt<'s>>,
        /// `@check` designates this loop for leak analysis.
        checked: bool,
        /// Location.
        span: Span,
    },
    /// `return;` or `return e;`
    Return(Option<ExprId>, Span),
    /// `break;`
    Break(Span),
    /// `continue;`
    Continue(Span),
}

/// A ground-truth annotation attached to a `new` expression.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AllocAnnotation<'s> {
    /// `@leak` — the site is a genuine leak.
    Leak,
    /// `@fp("why")` — reporting this site is an expected false positive.
    /// The reason borrows from the source unless it has escapes.
    FalsePositive(Cow<'s, str>),
}

/// An expression.
#[derive(Clone, Debug)]
pub enum Expr<'s> {
    /// `null`.
    Null(Span),
    /// `this`.
    This(Span),
    /// Integer literal.
    Int(i64, Span),
    /// `true` / `false`.
    Bool(bool, Span),
    /// A plain name (local variable; resolved later).
    Name(&'s str, Span),
    /// `e.f` field access — `e` may resolve to a class name, making this a
    /// static field access.
    Field {
        /// Receiver expression.
        base: ExprId,
        /// Field name.
        name: &'s str,
        /// Location.
        span: Span,
    },
    /// `e[i]` array element access.
    Index {
        /// Array expression.
        base: ExprId,
        /// Index expression.
        index: ExprId,
        /// Location.
        span: Span,
    },
    /// `e.m(args)` / `ClassName.m(args)` / `m(args)` (implicit `this`).
    Call {
        /// Receiver; `None` means implicit `this` or same-class static.
        base: Option<ExprId>,
        /// Method name.
        name: &'s str,
        /// Arguments.
        args: Vec<ExprId>,
        /// Location.
        span: Span,
    },
    /// `new C(args)` with optional `@leak` / `@fp` annotation.
    New {
        /// Class name.
        class: &'s str,
        /// Constructor arguments.
        args: Vec<ExprId>,
        /// Ground-truth annotation.
        annotation: Option<AllocAnnotation<'s>>,
        /// Location.
        span: Span,
    },
    /// `new T[len]` with optional annotation.
    NewArray {
        /// Element type.
        elem: TypeName<'s>,
        /// Length expression.
        len: ExprId,
        /// Ground-truth annotation.
        annotation: Option<AllocAnnotation<'s>>,
        /// Location.
        span: Span,
    },
    /// `a OP b`.
    Binary {
        /// Operator token text (`+`, `==`, `&&`, ...).
        op: &'static str,
        /// Left operand.
        lhs: ExprId,
        /// Right operand.
        rhs: ExprId,
        /// Location.
        span: Span,
    },
    /// `!e`.
    Not(ExprId, Span),
    /// `-e`.
    Neg(ExprId, Span),
    /// `nondet()` — an opaque boolean the analyses treat as unknown.
    NonDet(Span),
}

impl Expr<'_> {
    /// The source location of this expression.
    pub fn span(&self) -> Span {
        match self {
            Expr::Null(s)
            | Expr::This(s)
            | Expr::Int(_, s)
            | Expr::Bool(_, s)
            | Expr::Name(_, s)
            | Expr::Not(_, s)
            | Expr::Neg(_, s)
            | Expr::NonDet(s) => *s,
            Expr::Field { span, .. }
            | Expr::Index { span, .. }
            | Expr::Call { span, .. }
            | Expr::New { span, .. }
            | Expr::NewArray { span, .. }
            | Expr::Binary { span, .. } => *span,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Pos;

    #[test]
    fn expr_span_round_trip() {
        let s = Span::at(Pos::new(2, 5));
        let e = Expr::Binary {
            op: "+",
            lhs: ExprId::from_index(0),
            rhs: ExprId::from_index(1),
            span: s,
        };
        assert_eq!(e.span(), s);
        assert_eq!(Expr::NonDet(s).span(), s);
    }
}
