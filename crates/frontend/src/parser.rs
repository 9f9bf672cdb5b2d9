//! Recursive-descent parser for the surface language.

use crate::ast::{
    AllocAnnotation, ClassDecl, Expr, ExprId, FieldDecl, MethodDecl, Param, Stmt, TypeName, Unit,
};
use crate::error::{CompileError, Phase, Result, Span};
use crate::lexer::{unescape, Lexer, Token, TokenKind};

/// Parses a complete compilation unit. The tree borrows every name from
/// `source`.
///
/// # Errors
///
/// Returns the first lexical error anywhere in the source, else the first
/// syntactic error.
pub fn parse(source: &str) -> Result<Unit<'_>> {
    let mut parser = Parser::new(source);
    let unit = parser.unit();
    parser.finish(unit)
}

/// The parser pulls tokens from the lexer as it goes and keeps only the
/// current token and the two after it. Tokens are `Copy` and borrow their
/// text, so looking ahead and consuming never allocate.
///
/// Expressions go into one table and refer to their operands by
/// [`ExprId`]. Blocks and argument lists collect their items on shared
/// stacks and move them into one exact-size `Vec` when they close, so
/// each list costs one allocation however long it grows.
struct Parser<'s> {
    lexer: Lexer<'s>,
    /// The current token and the two after it. Once the lexer reaches
    /// the end (or fails), the window fills with [`TokenKind::Eof`].
    window: [Token<'s>; 3],
    /// The first lexical error. The parser sees end of input after it.
    lex_error: Option<CompileError>,
    /// The expression table of the unit being parsed.
    exprs: Vec<Expr<'s>>,
    /// Statements of the open blocks, innermost last.
    stmts: Vec<Stmt<'s>>,
    /// Arguments of the open argument lists, innermost last.
    args: Vec<ExprId>,
}

impl<'s> Parser<'s> {
    fn new(source: &'s str) -> Self {
        let eof = Token {
            kind: TokenKind::Eof,
            span: Span::default(),
        };
        let mut parser = Parser {
            lexer: Lexer::new(source),
            window: [eof; 3],
            lex_error: None,
            exprs: Vec::new(),
            stmts: Vec::new(),
            args: Vec::new(),
        };
        parser.window = [parser.lex(), parser.lex(), parser.lex()];
        parser
    }

    /// The next token from the lexer, or `Eof` once it has failed.
    fn lex(&mut self) -> Token<'s> {
        if self.lex_error.is_none() {
            match self.lexer.next_token() {
                Ok(token) => return token,
                Err(e) => self.lex_error = Some(e),
            }
        }
        Token {
            kind: TokenKind::Eof,
            span: Span::default(),
        }
    }

    /// Reports errors as tokenizing the whole source before parsing
    /// would: a lexical error anywhere wins over a syntax error before
    /// it, so a failed parse lexes the rest of the source first.
    fn finish(mut self, unit: Result<Unit<'s>>) -> Result<Unit<'s>> {
        if unit.is_err() {
            while self.lex_error.is_none() && self.lex().kind != TokenKind::Eof {}
        }
        match self.lex_error {
            Some(e) => Err(e),
            None => unit,
        }
    }

    fn peek_kind(&self) -> TokenKind<'s> {
        self.window[0].kind
    }

    fn peek2_kind(&self) -> TokenKind<'s> {
        self.window[1].kind
    }

    /// Consumes the current token; at end of input, stays there.
    fn bump(&mut self) {
        if self.window[0].kind != TokenKind::Eof {
            self.window = [self.window[1], self.window[2], self.lex()];
        }
    }

    /// Adds an expression to the table.
    fn node(&mut self, e: Expr<'s>) -> ExprId {
        let id = ExprId::from_index(self.exprs.len());
        self.exprs.push(e);
        id
    }

    fn span(&self) -> Span {
        self.window[0].span
    }

    fn error(&self, message: impl Into<String>) -> CompileError {
        CompileError::new(Phase::Parse, self.span(), message)
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek_kind(), TokenKind::Punct(q) if q == p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<()> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{p}`, found {}", self.peek_kind())))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if matches!(self.peek_kind(), TokenKind::Ident(s) if s == kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{kw}`, found {}", self.peek_kind())))
        }
    }

    fn expect_ident(&mut self) -> Result<(&'s str, Span)> {
        match self.peek_kind() {
            TokenKind::Ident(s) if !is_keyword(s) => {
                let span = self.span();
                self.bump();
                Ok((s, span))
            }
            other => Err(self.error(format!("expected identifier, found {other}"))),
        }
    }

    fn unit(&mut self) -> Result<Unit<'s>> {
        let mut classes = Vec::new();
        while !matches!(self.peek_kind(), TokenKind::Eof) {
            classes.push(self.class_decl()?);
        }
        Ok(Unit {
            classes,
            exprs: std::mem::take(&mut self.exprs),
        })
    }

    fn class_decl(&mut self) -> Result<ClassDecl<'s>> {
        let span = self.span();
        let is_library = self.eat_keyword("library");
        self.expect_keyword("class")?;
        let (name, _) = self.expect_ident()?;
        let superclass = if self.eat_keyword("extends") {
            Some(self.expect_ident()?.0)
        } else {
            None
        };
        self.expect_punct("{")?;
        let mut fields = Vec::new();
        let mut methods = Vec::new();
        while !self.eat_punct("}") {
            if matches!(self.peek_kind(), TokenKind::Eof) {
                return Err(self.error("unexpected end of input inside class body"));
            }
            self.member(name, &mut fields, &mut methods)?;
        }
        Ok(ClassDecl {
            name,
            superclass,
            is_library,
            fields,
            methods,
            span,
        })
    }

    fn member(
        &mut self,
        class_name: &str,
        fields: &mut Vec<FieldDecl<'s>>,
        methods: &mut Vec<MethodDecl<'s>>,
    ) -> Result<()> {
        let span = self.span();
        let mut is_region = false;
        while let TokenKind::At(a) = self.peek_kind() {
            if a == "region" {
                is_region = true;
                self.bump();
            } else {
                return Err(self.error(format!("annotation `@{a}` is not valid on members")));
            }
        }
        let is_static = self.eat_keyword("static");

        // Constructor: `ClassName ( ... )`.
        if !is_static
            && matches!(self.peek_kind(), TokenKind::Ident(s) if s == class_name)
            && matches!(self.peek2_kind(), TokenKind::Punct("("))
        {
            let (_, _) = self.expect_ident()?;
            let params = self.params()?;
            let body = self.block()?;
            methods.push(MethodDecl {
                name: "<init>",
                is_ctor: true,
                is_static: false,
                is_region,
                ret_ty: TypeName {
                    base: "void",
                    dims: 0,
                    span,
                },
                params,
                body,
                span,
            });
            return Ok(());
        }

        let ty = self.type_name()?;
        let (name, _) = self.expect_ident()?;
        if matches!(self.peek_kind(), TokenKind::Punct("(")) {
            let params = self.params()?;
            let body = self.block()?;
            methods.push(MethodDecl {
                name,
                is_ctor: false,
                is_static,
                is_region,
                ret_ty: ty,
                params,
                body,
                span,
            });
        } else {
            if is_region {
                return Err(self.error("`@region` is only valid on methods"));
            }
            let init = if self.eat_punct("=") {
                Some(self.expr()?)
            } else {
                None
            };
            self.expect_punct(";")?;
            fields.push(FieldDecl {
                name,
                ty,
                is_static,
                init,
                span,
            });
        }
        Ok(())
    }

    fn params(&mut self) -> Result<Vec<Param<'s>>> {
        self.expect_punct("(")?;
        let mut params = Vec::new();
        if !self.eat_punct(")") {
            loop {
                let ty = self.type_name()?;
                let (name, _) = self.expect_ident()?;
                params.push(Param { name, ty });
                if self.eat_punct(")") {
                    break;
                }
                self.expect_punct(",")?;
            }
        }
        Ok(params)
    }

    fn type_name(&mut self) -> Result<TypeName<'s>> {
        let span = self.span();
        let base = match self.peek_kind() {
            TokenKind::Ident(s)
                if s == "int" || s == "boolean" || s == "void" || !is_keyword(s) =>
            {
                self.bump();
                s
            }
            other => return Err(self.error(format!("expected type name, found {other}"))),
        };
        let mut dims = 0;
        while matches!(self.peek_kind(), TokenKind::Punct("["))
            && matches!(self.peek2_kind(), TokenKind::Punct("]"))
        {
            self.bump();
            self.bump();
            dims += 1;
        }
        Ok(TypeName { base, dims, span })
    }

    fn block(&mut self) -> Result<Vec<Stmt<'s>>> {
        self.expect_punct("{")?;
        let start = self.stmts.len();
        while !self.eat_punct("}") {
            if matches!(self.peek_kind(), TokenKind::Eof) {
                return Err(self.error("unexpected end of input inside block"));
            }
            let stmt = self.stmt()?;
            self.stmts.push(stmt);
        }
        Ok(self.stmts.split_off(start))
    }

    fn stmt(&mut self) -> Result<Stmt<'s>> {
        let span = self.span();

        // `@check while (...)` — designated loop.
        if let TokenKind::At(a) = self.peek_kind() {
            if a == "check" {
                self.bump();
                self.expect_keyword("while")?;
                return self.while_stmt(true, span);
            }
            // allocation annotations are handled inside expressions
        }

        match self.peek_kind() {
            TokenKind::Ident("if") => {
                self.bump();
                self.expect_punct("(")?;
                let cond = self.expr()?;
                self.expect_punct(")")?;
                let then_branch = self.block()?;
                let else_branch = if self.eat_keyword("else") {
                    if matches!(self.peek_kind(), TokenKind::Ident(s) if s == "if") {
                        vec![self.stmt()?]
                    } else {
                        self.block()?
                    }
                } else {
                    Vec::new()
                };
                Ok(Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                    span,
                })
            }
            TokenKind::Ident("while") => {
                self.bump();
                self.while_stmt(false, span)
            }
            TokenKind::Ident("return") => {
                self.bump();
                let value = if self.eat_punct(";") {
                    None
                } else {
                    let e = self.expr()?;
                    self.expect_punct(";")?;
                    Some(e)
                };
                Ok(Stmt::Return(value, span))
            }
            TokenKind::Ident("break") => {
                self.bump();
                self.expect_punct(";")?;
                Ok(Stmt::Break(span))
            }
            TokenKind::Ident("continue") => {
                self.bump();
                self.expect_punct(";")?;
                Ok(Stmt::Continue(span))
            }
            // Variable declaration: `Type name ...` — distinguish from an
            // assignment/expression by lookahead: ident ident, or
            // ident[] ident. The base type is a class name or one of the
            // primitive type keywords.
            TokenKind::Ident(s)
                if (s == "int" || s == "boolean" || !is_keyword(s))
                    && (matches!(self.peek2_kind(), TokenKind::Ident(n) if !is_keyword(n))
                        || self.looks_like_array_decl()) =>
            {
                let ty = self.type_name()?;
                let (name, _) = self.expect_ident()?;
                let init = if self.eat_punct("=") {
                    Some(self.expr()?)
                } else {
                    None
                };
                self.expect_punct(";")?;
                Ok(Stmt::VarDecl {
                    ty,
                    name,
                    init,
                    span,
                })
            }
            _ => {
                let e = self.expr()?;
                if self.eat_punct("=") {
                    let value = self.expr()?;
                    self.expect_punct(";")?;
                    Ok(Stmt::Assign {
                        target: e,
                        value,
                        span,
                    })
                } else {
                    self.expect_punct(";")?;
                    Ok(Stmt::Expr(e))
                }
            }
        }
    }

    /// True for `Ident [ ] Ident`, the start of an array-typed declaration.
    fn looks_like_array_decl(&self) -> bool {
        matches!(self.peek2_kind(), TokenKind::Punct("["))
            && matches!(self.window[2].kind, TokenKind::Punct("]"))
    }

    fn while_stmt(&mut self, checked: bool, span: Span) -> Result<Stmt<'s>> {
        self.expect_punct("(")?;
        let cond = self.expr()?;
        self.expect_punct(")")?;
        let body = self.block()?;
        Ok(Stmt::While {
            cond,
            body,
            checked,
            span,
        })
    }

    fn expr(&mut self) -> Result<ExprId> {
        self.binary_expr(1)
    }

    /// Parses a chain of binary operators that bind at least as tightly
    /// as `min`, left-associatively, by precedence climbing. Comparisons
    /// do not chain: after `a < b` the next comparison is left to the
    /// caller, and so is every operator tighter than the last one taken
    /// here (a deeper level declined it), which stops all levels there.
    fn binary_expr(&mut self, min: u8) -> Result<ExprId> {
        let mut lhs = self.unary_expr()?;
        let mut last = u8::MAX;
        while let TokenKind::Punct(op) = self.peek_kind() {
            let Some(prec) = precedence(op) else {
                break;
            };
            if prec < min || prec > last || (prec == COMPARISON && last == COMPARISON) {
                break;
            }
            let span = self.span();
            self.bump();
            let rhs = self.binary_expr(prec + 1)?;
            lhs = self.node(Expr::Binary { op, lhs, rhs, span });
            last = prec;
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<ExprId> {
        let span = self.span();
        if self.eat_punct("!") {
            let e = self.unary_expr()?;
            return Ok(self.node(Expr::Not(e, span)));
        }
        if self.eat_punct("-") {
            let e = self.unary_expr()?;
            return Ok(self.node(Expr::Neg(e, span)));
        }
        self.postfix_expr()
    }

    fn postfix_expr(&mut self) -> Result<ExprId> {
        let mut e = self.primary_expr()?;
        loop {
            let span = self.span();
            if self.eat_punct(".") {
                let (name, _) = self.expect_ident()?;
                if matches!(self.peek_kind(), TokenKind::Punct("(")) {
                    let args = self.args()?;
                    e = self.node(Expr::Call {
                        base: Some(e),
                        name,
                        args,
                        span,
                    });
                } else {
                    e = self.node(Expr::Field {
                        base: e,
                        name,
                        span,
                    });
                }
            } else if matches!(self.peek_kind(), TokenKind::Punct("["))
                && !matches!(self.peek2_kind(), TokenKind::Punct("]"))
            {
                self.bump();
                let index = self.expr()?;
                self.expect_punct("]")?;
                e = self.node(Expr::Index {
                    base: e,
                    index,
                    span,
                });
            } else {
                break;
            }
        }
        Ok(e)
    }

    fn args(&mut self) -> Result<Vec<ExprId>> {
        self.expect_punct("(")?;
        let start = self.args.len();
        if !self.eat_punct(")") {
            loop {
                let arg = self.expr()?;
                self.args.push(arg);
                if self.eat_punct(")") {
                    break;
                }
                self.expect_punct(",")?;
            }
        }
        Ok(self.args.split_off(start))
    }

    fn alloc_annotation(&mut self) -> Result<Option<AllocAnnotation<'s>>> {
        if let TokenKind::At(a) = self.peek_kind() {
            match a {
                "leak" => {
                    self.bump();
                    return Ok(Some(AllocAnnotation::Leak));
                }
                "fp" => {
                    self.bump();
                    self.expect_punct("(")?;
                    let reason = match self.peek_kind() {
                        TokenKind::Str(s) => {
                            self.bump();
                            unescape(s)
                        }
                        other => {
                            return Err(
                                self.error(format!("expected string in `@fp(..)`, found {other}"))
                            )
                        }
                    };
                    self.expect_punct(")")?;
                    return Ok(Some(AllocAnnotation::FalsePositive(reason)));
                }
                other => {
                    return Err(self.error(format!(
                        "annotation `@{other}` is not valid in expression position"
                    )))
                }
            }
        }
        Ok(None)
    }

    fn primary_expr(&mut self) -> Result<ExprId> {
        let span = self.span();
        let annotation = self.alloc_annotation()?;
        if let Some(annotation) = annotation {
            // Annotation must be followed by `new`.
            self.expect_keyword("new")?;
            return self.new_expr(Some(annotation), span);
        }
        match self.peek_kind() {
            TokenKind::Punct("(") => {
                self.bump();
                let e = self.expr()?;
                self.expect_punct(")")?;
                Ok(e)
            }
            TokenKind::Int(v) => {
                self.bump();
                Ok(self.node(Expr::Int(v, span)))
            }
            TokenKind::Ident(s) => match s {
                "null" => {
                    self.bump();
                    Ok(self.node(Expr::Null(span)))
                }
                "this" => {
                    self.bump();
                    Ok(self.node(Expr::This(span)))
                }
                "true" => {
                    self.bump();
                    Ok(self.node(Expr::Bool(true, span)))
                }
                "false" => {
                    self.bump();
                    Ok(self.node(Expr::Bool(false, span)))
                }
                "new" => {
                    self.bump();
                    self.new_expr(None, span)
                }
                "nondet" => {
                    self.bump();
                    self.expect_punct("(")?;
                    self.expect_punct(")")?;
                    Ok(self.node(Expr::NonDet(span)))
                }
                _ if is_keyword(s) => {
                    Err(self.error(format!("unexpected keyword `{s}` in expression")))
                }
                _ => {
                    self.bump();
                    if matches!(self.peek_kind(), TokenKind::Punct("(")) {
                        let args = self.args()?;
                        Ok(self.node(Expr::Call {
                            base: None,
                            name: s,
                            args,
                            span,
                        }))
                    } else {
                        Ok(self.node(Expr::Name(s, span)))
                    }
                }
            },
            other => Err(self.error(format!("unexpected {other} in expression"))),
        }
    }

    fn new_expr(&mut self, annotation: Option<AllocAnnotation<'s>>, span: Span) -> Result<ExprId> {
        let ty = self.type_name()?;
        if matches!(self.peek_kind(), TokenKind::Punct("[")) {
            self.bump();
            let len = self.expr()?;
            self.expect_punct("]")?;
            Ok(self.node(Expr::NewArray {
                elem: ty,
                len,
                annotation,
                span,
            }))
        } else if ty.dims > 0 {
            Err(self.error("array allocation requires a length: `new T[n]`"))
        } else {
            let args = self.args()?;
            Ok(self.node(Expr::New {
                class: ty.base,
                args,
                annotation,
                span,
            }))
        }
    }
}

/// Precedence of the comparison operators, which do not chain.
const COMPARISON: u8 = 3;

/// How tightly a binary operator binds: `||` loosest, then `&&`, the
/// comparisons, `+`/`-` and `*`/`/`/`%`. `None` for other punctuation.
fn precedence(op: &str) -> Option<u8> {
    Some(match op {
        "||" => 1,
        "&&" => 2,
        "==" | "!=" | "<" | "<=" | ">" | ">=" => COMPARISON,
        "+" | "-" => 4,
        "*" | "/" | "%" => 5,
        _ => return None,
    })
}

fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "class"
            | "extends"
            | "library"
            | "static"
            | "if"
            | "else"
            | "while"
            | "return"
            | "break"
            | "continue"
            | "new"
            | "null"
            | "this"
            | "true"
            | "false"
            | "int"
            | "boolean"
            | "void"
            | "nondet"
            | "super"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_class_with_fields_and_methods() {
        let unit = parse(
            "class Order { int id; }
             class Transaction {
               Order curr;
               static int count;
               void process(Order p) { this.curr = p; }
             }",
        )
        .unwrap();
        assert_eq!(unit.classes.len(), 2);
        let tx = &unit.classes[1];
        assert_eq!(tx.fields.len(), 2);
        assert!(tx.fields[1].is_static);
        assert_eq!(tx.methods.len(), 1);
        assert_eq!(tx.methods[0].params.len(), 1);
    }

    #[test]
    fn parses_constructor() {
        let unit = parse("class C { int x; C(int v) { this.x = v; } }").unwrap();
        let m = &unit.classes[0].methods[0];
        assert!(m.is_ctor);
        assert_eq!(m.name, "<init>");
    }

    #[test]
    fn parses_checked_loop_and_annotations() {
        let unit = parse(
            "class Main {
               static void main() {
                 int i;
                 i = 0;
                 @check while (i < 10) {
                   Main m = @leak new Main();
                   i = i + 1;
                 }
               }
             }",
        )
        .unwrap();
        let body = &unit.classes[0].methods[0].body;
        let Stmt::While { checked, body, .. } = &body[2] else {
            panic!("expected while");
        };
        assert!(checked);
        let Stmt::VarDecl { init: Some(e), .. } = &body[0] else {
            panic!("expected var decl");
        };
        let Expr::New { annotation, .. } = &unit[*e] else {
            panic!("expected new");
        };
        assert_eq!(*annotation, Some(AllocAnnotation::Leak));
    }

    #[test]
    fn parses_fp_annotation() {
        let unit =
            parse("class C { static void m() { C x = @fp(\"singleton\") new C(); } }").unwrap();
        let Stmt::VarDecl { init: Some(e), .. } = &unit.classes[0].methods[0].body[0] else {
            panic!()
        };
        let Expr::New { annotation, .. } = &unit[*e] else {
            panic!()
        };
        assert_eq!(
            *annotation,
            Some(AllocAnnotation::FalsePositive("singleton".into()))
        );
    }

    #[test]
    fn parses_arrays() {
        let unit = parse(
            "class C {
               C[] items;
               void m(int n) {
                 C[] a = new C[n];
                 a[0] = new C();
                 C x = a[n - 1];
                 this.items = a;
               }
             }",
        )
        .unwrap();
        let m = &unit.classes[0].methods[0];
        assert_eq!(m.body.len(), 4);
        let Stmt::Assign { target, .. } = &m.body[1] else {
            panic!()
        };
        assert!(matches!(unit[*target], Expr::Index { .. }));
    }

    #[test]
    fn parses_operator_precedence() {
        let unit = parse("class C { static void m() { int x = 1 + 2 * 3; } }").unwrap();
        let Stmt::VarDecl { init: Some(e), .. } = &unit.classes[0].methods[0].body[0] else {
            panic!()
        };
        let Expr::Binary { op, rhs, .. } = &unit[*e] else {
            panic!()
        };
        assert_eq!(*op, "+");
        assert!(matches!(unit[*rhs], Expr::Binary { op: "*", .. }));
    }

    #[test]
    fn parses_if_else_chain_and_calls() {
        let unit = parse(
            "class C {
               int f() { return 1; }
               void m(C other) {
                 if (nondet()) { other.f(); }
                 else if (this.f() == 1) { f(); }
                 else { }
               }
             }",
        )
        .unwrap();
        let m = &unit.classes[0].methods[1];
        let Stmt::If { else_branch, .. } = &m.body[0] else {
            panic!()
        };
        assert!(matches!(else_branch[0], Stmt::If { .. }));
    }

    #[test]
    fn parses_region_annotation() {
        let unit = parse("class P { @region void run() { } }").unwrap();
        assert!(unit.classes[0].methods[0].is_region);
    }

    #[test]
    fn parses_library_class() {
        let unit = parse("library class HashMap { }").unwrap();
        assert!(unit.classes[0].is_library);
    }

    #[test]
    fn rejects_missing_semicolon() {
        let err = parse("class C { void m() { int x = 1 } }").unwrap_err();
        assert!(err.message.contains("`;`"), "{err}");
    }

    #[test]
    fn rejects_bad_annotation_position() {
        assert!(parse("class C { void m() { @check int x; } }").is_err());
    }

    #[test]
    fn rejects_unclosed_class() {
        assert!(parse("class C { void m() { }").is_err());
    }

    #[test]
    fn field_initializers_parse() {
        let unit = parse("class C { C next = null; int n = 3; }").unwrap();
        assert!(unit.classes[0].fields[0].init.is_some());
        assert!(unit.classes[0].fields[1].init.is_some());
    }

    /// The error a statement `x = <expr>;` inside a method gives.
    fn expr_error(expr: &str) -> CompileError {
        parse(&format!("class C {{ void m() {{ x = {expr}; }} }}")).unwrap_err()
    }

    #[test]
    fn binary_operators_bind_by_precedence_and_associate_left() {
        let unit = parse("class C { void m() { x = a || b && c < d - e - f * g; } }").unwrap();
        let Stmt::Assign { value, .. } = &unit.classes[0].methods[0].body[0] else {
            panic!()
        };
        // Renders the tree fully parenthesized.
        fn show(unit: &Unit<'_>, e: ExprId) -> String {
            match &unit[e] {
                Expr::Binary { op, lhs, rhs, .. } => {
                    format!("({} {op} {})", show(unit, *lhs), show(unit, *rhs))
                }
                Expr::Name(n, _) => n.to_string(),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(
            show(&unit, *value),
            "(a || (b && (c < ((d - e) - (f * g)))))"
        );
    }

    #[test]
    fn comparisons_do_not_chain() {
        // The second comparison is left unparsed wherever it appears,
        // and the statement then misses its `;` at it.
        for (expr, second) in [
            ("a < b < c", "<"),
            ("a && b < c < d", "<"),
            ("a < b + c == d", "=="),
            ("!a == b != c", "!="),
        ] {
            let err = expr_error(expr);
            assert_eq!(err.phase, Phase::Parse, "{expr}");
            assert_eq!(err.message, format!("expected `;`, found `{second}`"));
            // The expression starts at column 26.
            let col = 26 + expr.rfind(second).unwrap() as u32;
            assert_eq!(err.span.start.col, col, "{expr}");
        }
        assert!(parse("class C { void m() { x = a < b && c < d || e == f; } }").is_ok());
    }

    #[test]
    fn a_lexical_error_anywhere_wins_over_an_earlier_syntax_error() {
        // Tokens are pulled lazily, but errors are reported as if the
        // whole source were tokenized before parsing.
        let err = parse("class C { void m( } }\n\n  # class").unwrap_err();
        assert_eq!(err.phase, Phase::Lex);
        assert_eq!(err.span.start, crate::error::Pos::new(3, 3));
        let err = parse("class C { int x = ; }").unwrap_err();
        assert_eq!(err.phase, Phase::Parse);
        // A truncated parse after the bad character still reports it.
        let err = parse("class C { } @").unwrap_err();
        assert_eq!(err.phase, Phase::Lex);
        assert_eq!(err.message, "expected annotation name after `@`");
    }

    #[test]
    fn parses_logical_operators() {
        let unit = parse("class C { static void m(int a) { if (a < 1 && a > -5 || a == 3) { } } }")
            .unwrap();
        let Stmt::If { cond, .. } = &unit.classes[0].methods[0].body[0] else {
            panic!()
        };
        assert!(matches!(unit[*cond], Expr::Binary { op: "||", .. }));
    }
}
