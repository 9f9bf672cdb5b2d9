//! Tokenizer for the Java-like surface language.
//!
//! The lexer makes one pass over the source's bytes. Everything the
//! language gives meaning to is ASCII, so it decodes a `char` only at a
//! non-ASCII byte: inside comments and string literals (to count
//! columns), as Unicode whitespace, or for the unexpected-character
//! error. Identifier, annotation and string tokens borrow their text from
//! the source, and the parser pulls tokens one at a time, so lexing
//! allocates nothing.

use crate::error::{CompileError, Phase, Pos, Result, Span};
use std::fmt;

/// The kind of a token. Text-carrying kinds borrow from the source.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum TokenKind<'s> {
    /// Identifier or keyword text.
    Ident(&'s str),
    /// Integer literal.
    Int(i64),
    /// String literal (only used inside `@fp("...")`), as written between
    /// the quotes: escapes are still in place (see [`unescape`]).
    Str(&'s str),
    /// `@`-annotation name (without the `@`), e.g. `leak`, `check`.
    At(&'s str),
    /// A punctuation / operator token, e.g. `{`, `==`, `&&`.
    Punct(&'static str),
    /// End of input.
    Eof,
}

impl<'s> TokenKind<'s> {
    /// Returns the identifier text, if this is an identifier.
    pub fn ident(&self) -> Option<&'s str> {
        match *self {
            TokenKind::Ident(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for TokenKind<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "`{s}`"),
            TokenKind::Int(v) => write!(f, "`{v}`"),
            TokenKind::Str(s) => write!(f, "\"{}\"", unescape(s)),
            TokenKind::At(s) => write!(f, "`@{s}`"),
            TokenKind::Punct(p) => write!(f, "`{p}`"),
            TokenKind::Eof => write!(f, "end of input"),
        }
    }
}

/// A token with its source span.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Token<'s> {
    /// What was lexed.
    pub kind: TokenKind<'s>,
    /// Where it was lexed.
    pub span: Span,
}

/// Decodes the escapes of a [`TokenKind::Str`] body: `\n` and `\t` are a
/// newline and a tab, and a backslash before any other char stands for
/// that char. Borrows when the body has no escapes.
pub fn unescape(raw: &str) -> std::borrow::Cow<'_, str> {
    if !raw.contains('\\') {
        return raw.into();
    }
    let mut text = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            text.push(c);
            continue;
        }
        // The lexer guarantees a char after every backslash.
        match chars.next() {
            Some('n') => text.push('\n'),
            Some('t') => text.push('\t'),
            Some(other) => text.push(other),
            None => {}
        }
    }
    text.into()
}

/// Bytes of the UTF-8 sequence a leading byte starts.
fn utf8_len(lead: u8) -> usize {
    match lead {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

/// True for bytes that continue a multi-byte UTF-8 sequence; every other
/// byte starts a char.
fn is_continuation(b: u8) -> bool {
    b & 0xc0 == 0x80
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b == b'$'
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b == b'$'
}

/// A cursor over the source that yields one token per call.
pub(crate) struct Lexer<'s> {
    source: &'s str,
    bytes: &'s [u8],
    /// Byte offset of the next char.
    pos: usize,
    line: u32,
    /// 1-based column, counted in chars.
    col: u32,
}

impl<'s> Lexer<'s> {
    pub(crate) fn new(source: &'s str) -> Self {
        Lexer {
            source,
            bytes: source.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn here(&self) -> Pos {
        Pos::new(self.line, self.col)
    }

    fn byte(&self, at: usize) -> Option<u8> {
        self.bytes.get(at).copied()
    }

    /// Consumes `n` ASCII bytes that are not newlines.
    fn advance(&mut self, n: usize) {
        self.pos += n;
        self.col += n as u32;
    }

    /// Consumes one char of any width, counting lines at `\n`.
    fn bump_char(&mut self, lead: u8) {
        if lead == b'\n' {
            self.pos += 1;
            self.line += 1;
            self.col = 1;
        } else {
            self.pos += utf8_len(lead);
            self.col += 1;
        }
    }

    /// Consumes the bytes up to `end` (a char boundary), counting chars
    /// and lines.
    fn bump_to(&mut self, end: usize) {
        for &b in &self.bytes[self.pos..end] {
            if b == b'\n' {
                self.line += 1;
                self.col = 1;
            } else if !is_continuation(b) {
                self.col += 1;
            }
        }
        self.pos = end;
    }

    /// The char starting at the current (non-ASCII) byte.
    fn current_char(&self) -> char {
        self.source[self.pos..]
            .chars()
            .next()
            .expect("caller checked a byte is left")
    }

    fn error(&self, start: Pos, message: impl Into<String>) -> CompileError {
        CompileError::new(Phase::Lex, Span::new(start, self.here()), message)
    }

    fn skip_trivia(&mut self) -> Result<()> {
        loop {
            match self.byte(self.pos) {
                // `char::is_whitespace` over ASCII: tab, line feed,
                // vertical tab, form feed, carriage return and space.
                Some(b'\t' | 0x0b | 0x0c | b'\r' | b' ') => self.advance(1),
                Some(b'\n') => self.bump_char(b'\n'),
                Some(b'/') if self.byte(self.pos + 1) == Some(b'/') => {
                    let rest = &self.bytes[self.pos..];
                    let len = rest.iter().position(|&b| b == b'\n').unwrap_or(rest.len());
                    self.bump_to(self.pos + len);
                }
                Some(b'/') if self.byte(self.pos + 1) == Some(b'*') => {
                    let start = self.here();
                    self.advance(2);
                    let rest = &self.bytes[self.pos..];
                    match rest.windows(2).position(|w| w == b"*/") {
                        Some(len) => self.bump_to(self.pos + len + 2),
                        None => {
                            self.bump_to(self.bytes.len());
                            return Err(self.error(start, "unterminated block comment"));
                        }
                    }
                }
                Some(b) if b >= 0x80 && self.current_char().is_whitespace() => {
                    self.bump_char(b);
                }
                _ => return Ok(()),
            }
        }
    }

    /// Lexes the next token; at the end of the input, [`TokenKind::Eof`]
    /// on every call.
    pub(crate) fn next_token(&mut self) -> Result<Token<'s>> {
        self.skip_trivia()?;
        let start = self.here();
        let from = self.pos;
        let Some(b) = self.byte(from) else {
            return Ok(Token {
                kind: TokenKind::Eof,
                span: Span::at(start),
            });
        };
        let kind = if is_ident_start(b) {
            let len = self.bytes[from..]
                .iter()
                .position(|&b| !is_ident_continue(b))
                .unwrap_or(self.bytes.len() - from);
            self.advance(len);
            TokenKind::Ident(&self.source[from..self.pos])
        } else if b.is_ascii_digit() {
            self.int_literal(start)?
        } else if b == b'"' {
            self.string_literal(start)?
        } else if b == b'@' {
            self.advance(1);
            let len = self.bytes[self.pos..]
                .iter()
                .position(|&b| !(b.is_ascii_alphanumeric() || b == b'_'))
                .unwrap_or(self.bytes.len() - self.pos);
            if len == 0 {
                return Err(self.error(start, "expected annotation name after `@`"));
            }
            self.advance(len);
            TokenKind::At(&self.source[from + 1..self.pos])
        } else if let Some(p) = punct(b, self.byte(from + 1)) {
            self.advance(p.len());
            TokenKind::Punct(p)
        } else {
            let c = if b < 0x80 {
                char::from(b)
            } else {
                self.current_char()
            };
            return Err(self.error(start, format!("unexpected character `{c}`")));
        };
        Ok(Token {
            kind,
            span: Span::new(start, self.here()),
        })
    }

    fn int_literal(&mut self, start: Pos) -> Result<TokenKind<'s>> {
        let mut value: i64 = 0;
        let mut overflow = false;
        while let Some(b) = self.byte(self.pos).filter(u8::is_ascii_digit) {
            let (v, o1) = value.overflowing_mul(10);
            let (v, o2) = v.overflowing_add(i64::from(b - b'0'));
            overflow |= o1 || o2;
            value = v;
            self.advance(1);
        }
        if overflow {
            return Err(self.error(start, "integer literal overflows i64"));
        }
        if self.byte(self.pos).is_some_and(|b| b.is_ascii_alphabetic()) {
            return Err(self.error(start, "identifier cannot start with a digit"));
        }
        Ok(TokenKind::Int(value))
    }

    fn string_literal(&mut self, start: Pos) -> Result<TokenKind<'s>> {
        self.advance(1);
        let body = self.pos;
        loop {
            match self.byte(self.pos) {
                Some(b'"') => {
                    let text = &self.source[body..self.pos];
                    self.advance(1);
                    return Ok(TokenKind::Str(text));
                }
                Some(b'\\') => {
                    self.advance(1);
                    match self.byte(self.pos) {
                        Some(b) => self.bump_char(b),
                        None => return Err(self.error(start, "unterminated string literal")),
                    }
                }
                Some(b) => self.bump_char(b),
                None => return Err(self.error(start, "unterminated string literal")),
            }
        }
    }
}

/// The punctuation token starting with `b` (then `next`), longest first
/// so maximal munch works.
fn punct(b: u8, next: Option<u8>) -> Option<&'static str> {
    let two = match (b, next) {
        (b'=', Some(b'=')) => Some("=="),
        (b'!', Some(b'=')) => Some("!="),
        (b'<', Some(b'=')) => Some("<="),
        (b'>', Some(b'=')) => Some(">="),
        (b'&', Some(b'&')) => Some("&&"),
        (b'|', Some(b'|')) => Some("||"),
        _ => None,
    };
    two.or(match b {
        b'{' => Some("{"),
        b'}' => Some("}"),
        b'(' => Some("("),
        b')' => Some(")"),
        b'[' => Some("["),
        b']' => Some("]"),
        b';' => Some(";"),
        b',' => Some(","),
        b'.' => Some("."),
        b'=' => Some("="),
        b'<' => Some("<"),
        b'>' => Some(">"),
        b'+' => Some("+"),
        b'-' => Some("-"),
        b'*' => Some("*"),
        b'/' => Some("/"),
        b'%' => Some("%"),
        b'!' => Some("!"),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lexes `source` up to and including its end-of-input token.
    fn tokenize(source: &str) -> Result<Vec<Token<'_>>> {
        let mut lexer = Lexer::new(source);
        let mut tokens = Vec::new();
        loop {
            let token = lexer.next_token()?;
            tokens.push(token);
            if token.kind == TokenKind::Eof {
                return Ok(tokens);
            }
        }
    }

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    fn spans(src: &str) -> Vec<(Pos, Pos)> {
        tokenize(src)
            .unwrap()
            .into_iter()
            .map(|t| (t.span.start, t.span.end))
            .collect()
    }

    #[test]
    fn lexes_identifiers_and_keywords() {
        let k = kinds("class Foo extends Bar");
        assert_eq!(
            k,
            vec![
                TokenKind::Ident("class"),
                TokenKind::Ident("Foo"),
                TokenKind::Ident("extends"),
                TokenKind::Ident("Bar"),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lexes_operators_with_maximal_munch() {
        let k = kinds("a <= b == c && d");
        assert!(k.contains(&TokenKind::Punct("<=")));
        assert!(k.contains(&TokenKind::Punct("==")));
        assert!(k.contains(&TokenKind::Punct("&&")));
        let k = kinds("a < = b");
        assert!(k.contains(&TokenKind::Punct("<")));
        assert!(k.contains(&TokenKind::Punct("=")));
    }

    #[test]
    fn lexes_numbers_strings_annotations() {
        let k = kinds("x = 42; @fp(\"singleton\")");
        assert!(k.contains(&TokenKind::Int(42)));
        assert!(k.contains(&TokenKind::At("fp")));
        assert!(k.contains(&TokenKind::Str("singleton")));
    }

    #[test]
    fn skips_comments() {
        let k = kinds("a // line comment\n /* block\ncomment */ b");
        assert_eq!(
            k,
            vec![TokenKind::Ident("a"), TokenKind::Ident("b"), TokenKind::Eof]
        );
    }

    #[test]
    fn tracks_positions() {
        let toks = tokenize("ab\n  cd").unwrap();
        assert_eq!(toks[0].span.start, Pos::new(1, 1));
        assert_eq!(toks[1].span.start, Pos::new(2, 3));
    }

    #[test]
    fn rejects_unterminated_comment() {
        let err = tokenize("/* never closed").unwrap_err();
        assert!(err.message.contains("unterminated"));
        assert_eq!(err.phase, Phase::Lex);
    }

    #[test]
    fn rejects_unterminated_string() {
        assert!(tokenize("\"oops").is_err());
    }

    #[test]
    fn rejects_unknown_character() {
        let err = tokenize("a # b").unwrap_err();
        assert!(err.message.contains("unexpected character"));
    }

    #[test]
    fn rejects_overflowing_int() {
        assert!(tokenize("99999999999999999999999").is_err());
    }

    #[test]
    fn string_escapes() {
        let k = kinds(r#""a\nb\"c""#);
        assert_eq!(k[0], TokenKind::Str(r#"a\nb\"c"#));
        let TokenKind::Str(raw) = k[0] else {
            panic!("expected a string")
        };
        assert_eq!(unescape(raw), "a\nb\"c");
        assert_eq!(k[0].to_string(), "\"a\nb\"c\"");
    }

    // The slow paths: columns count chars, not bytes, wherever the
    // source may hold non-ASCII text.

    #[test]
    fn multibyte_line_comment_keeps_later_positions() {
        // `é` is two bytes, `中` three, `😀` four: one column each.
        assert_eq!(
            spans("a // é中😀\n  b c"),
            vec![
                (Pos::new(1, 1), Pos::new(1, 2)),
                (Pos::new(2, 3), Pos::new(2, 4)),
                (Pos::new(2, 5), Pos::new(2, 6)),
                (Pos::new(2, 6), Pos::new(2, 6)),
            ]
        );
        assert_eq!(spans("x // λλλ")[1], (Pos::new(1, 9), Pos::new(1, 9)));
    }

    #[test]
    fn multibyte_block_comment_keeps_later_positions() {
        assert_eq!(spans("/* é中 */ b")[0], (Pos::new(1, 10), Pos::new(1, 11)));
        assert_eq!(
            spans("/* 😀\n中中 */ b")[0],
            (Pos::new(2, 7), Pos::new(2, 8))
        );
        let err = tokenize("/* é\n中").unwrap_err();
        assert_eq!(err.message, "unterminated block comment");
        assert_eq!(err.span, Span::new(Pos::new(1, 1), Pos::new(2, 2)));
    }

    #[test]
    fn multibyte_string_keeps_later_positions() {
        let toks = tokenize("@fp(\"é\\中😀\") new").unwrap();
        assert_eq!(toks[2].kind, TokenKind::Str("é\\中😀"));
        assert_eq!(toks[2].span, Span::new(Pos::new(1, 5), Pos::new(1, 11)));
        assert_eq!(toks[3].span, Span::new(Pos::new(1, 11), Pos::new(1, 12)));
        assert_eq!(toks[4].span, Span::new(Pos::new(1, 13), Pos::new(1, 16)));
        let err = tokenize("x \"中\\").unwrap_err();
        assert_eq!(err.message, "unterminated string literal");
        assert_eq!(err.span, Span::new(Pos::new(1, 3), Pos::new(1, 6)));
    }

    #[test]
    fn non_ascii_outside_comments_is_an_unexpected_character() {
        for (src, c, col) in [("a é", 'é', 3), ("/*中*/ λ", 'λ', 7), ("x.😀", '😀', 3)] {
            let err = tokenize(src).unwrap_err();
            assert_eq!(err.phase, Phase::Lex, "{src}");
            assert_eq!(err.message, format!("unexpected character `{c}`"), "{src}");
            assert_eq!(err.span, Span::at(Pos::new(1, col)), "{src}");
        }
    }

    #[test]
    fn unicode_whitespace_separates_tokens() {
        // U+00A0 (no-break space) and U+2028 (line separator) are
        // whitespace to `char::is_whitespace`; only `\n` starts a line.
        assert_eq!(
            kinds("a\u{00A0}b\u{2028}c"),
            vec![
                TokenKind::Ident("a"),
                TokenKind::Ident("b"),
                TokenKind::Ident("c"),
                TokenKind::Eof,
            ]
        );
        assert_eq!(spans("a\u{00A0}b\u{2028}c")[2].0, Pos::new(1, 5));
    }
}
