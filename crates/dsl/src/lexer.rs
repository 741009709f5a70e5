//! Hand-rolled lexer for the litmus DSL.
//!
//! Newlines are plain whitespace — the grammar is fully self-delimiting —
//! so the token stream is flat. Comments (`#` or `//` to end of line) are
//! not tokens; they are collected separately so the formatter can
//! re-attach them to the statement that follows them.
//!
//! The lexer scans bytes and allocates nothing per token: tokens are
//! `Copy` and borrow the source, integers are accumulated in place, a
//! string literal is kept as its raw body (escapes validated) until the
//! parser takes it ([`decode_str`]), and a comment is a line number plus a
//! byte range. Its allocations are the token and comment vectors, plus a
//! message and excerpt on the error path. Columns count characters, not
//! bytes: a UTF-8 continuation byte never advances them, and non-ASCII
//! input takes a cold path (Unicode whitespace is whitespace, anything
//! else outside strings and comments is an unexpected character).

use crate::diag::{source_line, Diagnostic, Span};

/// A lexical token kind, borrowing identifiers and strings from the
/// source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tok<'s> {
    /// Identifier / keyword (may contain `_` and `-` after the first char).
    Ident(&'s str),
    /// Unsigned integer literal; `hex` records the written base so the
    /// formatter can preserve it.
    Int { value: u64, hex: bool },
    /// Double-quoted string literal: the raw text between the quotes, its
    /// escapes validated but not yet decoded (see [`decode_str`]).
    Str(&'s str),
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `,`
    Comma,
    /// `:`
    Colon,
    /// `.`
    Dot,
    /// `@`
    At,
    /// `!`
    Bang,
    /// `=`
    Eq,
    /// `+`
    Plus,
    /// `&`
    Amp,
    /// `==`
    EqEq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// End of input.
    Eof,
}

impl Tok<'_> {
    /// Short description for "expected X, found Y" messages.
    pub(crate) fn describe(&self) -> String {
        match self {
            Tok::Ident(s) => format!("'{s}'"),
            Tok::Int { value, .. } => format!("'{value}'"),
            Tok::Str(_) => "a string".to_owned(),
            Tok::LBrace => "'{'".to_owned(),
            Tok::RBrace => "'}'".to_owned(),
            Tok::LBracket => "'['".to_owned(),
            Tok::RBracket => "']'".to_owned(),
            Tok::Comma => "','".to_owned(),
            Tok::Colon => "':'".to_owned(),
            Tok::Dot => "'.'".to_owned(),
            Tok::At => "'@'".to_owned(),
            Tok::Bang => "'!'".to_owned(),
            Tok::Eq => "'='".to_owned(),
            Tok::Plus => "'+'".to_owned(),
            Tok::Amp => "'&'".to_owned(),
            Tok::EqEq => "'=='".to_owned(),
            Tok::Ne => "'!='".to_owned(),
            Tok::Lt => "'<'".to_owned(),
            Tok::Le => "'<='".to_owned(),
            Tok::Gt => "'>'".to_owned(),
            Tok::Ge => "'>='".to_owned(),
            Tok::Eof => "end of input".to_owned(),
        }
    }
}

/// A token plus its source span.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Token<'s> {
    pub(crate) tok: Tok<'s>,
    pub(crate) span: Span,
}

/// A comment collected during lexing: where it starts and the byte range
/// of its trimmed text (without the `#` / `//` marker) in the source.
#[derive(Debug, Clone)]
pub(crate) struct Comment {
    /// 1-based source line the comment starts on.
    pub(crate) line: u32,
    /// Byte offset of the trimmed text in the source.
    pub(crate) start: usize,
    /// Byte offset just past the trimmed text.
    pub(crate) end: usize,
}

impl Comment {
    /// The comment's text, cut from the source it was lexed from.
    pub(crate) fn text<'s>(&self, src: &'s str) -> &'s str {
        &src[self.start..self.end]
    }
}

/// Lexer output: tokens and comments (excerpts are cut from the source on
/// demand).
#[derive(Debug)]
pub(crate) struct Lexed<'s> {
    pub(crate) tokens: Vec<Token<'s>>,
    pub(crate) comments: Vec<Comment>,
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b == b'-'
}

/// What an integer literal's text runs over (its value is checked after).
fn is_word(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// ASCII whitespace other than `\n`, in the sense of [`char::is_whitespace`]
/// (which, unlike [`u8::is_ascii_whitespace`], includes the vertical tab).
fn is_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\r' | b'\x0B' | b'\x0C')
}

/// The length of the run of bytes at the start of `bytes` that satisfy
/// `class`.
fn run(bytes: &[u8], class: fn(u8) -> bool) -> usize {
    bytes.iter().position(|&b| !class(b)).unwrap_or(bytes.len())
}

/// Does `b` start a character (rather than continue a UTF-8 sequence)?
fn starts_char(b: u8) -> bool {
    b & 0xC0 != 0x80
}

/// The value of an integer literal's text (ASCII alphanumerics and `_`,
/// starting with a digit): `_` separators are ignored everywhere, a
/// leading `0x` / `0X` selects hexadecimal; `None` on a bad digit, a
/// missing hex digit or overflow.
fn int_value(text: &[u8]) -> Option<(u64, bool)> {
    let mut digits = text.iter().copied().filter(|&b| b != b'_').peekable();
    let first = digits.next()?;
    let hex = first == b'0' && matches!(digits.peek(), Some(b'x' | b'X'));
    let (radix, mut value, mut any) = if hex {
        digits.next();
        (16, 0u64, false)
    } else {
        (10, u64::from(first - b'0'), true)
    };
    for b in digits {
        let d = (b as char).to_digit(radix)?;
        value = value.checked_mul(u64::from(radix))?.checked_add(u64::from(d))?;
        any = true;
    }
    any.then_some((value, hex))
}

/// Decode the raw body of a [`Tok::Str`] (escapes were validated by the
/// lexer, so every `\` is followed by one of `" \ n t r`).
pub(crate) fn decode_str(raw: &str) -> String {
    if !raw.contains('\\') {
        return raw.to_owned();
    }
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        out.push(match chars.next() {
            Some('n') => '\n',
            Some('t') => '\t',
            Some('r') => '\r',
            Some(c) => c,
            None => break,
        });
    }
    out
}

/// Tokenize `src`.
pub(crate) fn lex(src: &str) -> Result<Lexed<'_>, Diagnostic> {
    let bytes = src.as_bytes();
    // A small first guess (padded files run at about one token per four
    // bytes): one sized for the worst case made every large file's token
    // vector a fresh mapping, page-faulted on each parse.
    let mut tokens = Vec::with_capacity(src.len() / 16);
    let mut comments = Vec::new();
    let (mut i, mut line, mut col) = (0usize, 1u32, 1u32);
    // Byte offsets of the current and the previous line's first byte (for
    // the end-of-input span).
    let (mut line_start, mut prev_line_start) = (0usize, 0usize);
    macro_rules! fail {
        ($span:expr, $($msg:tt)*) => {{
            let span: Span = $span;
            return Err(Diagnostic::new(format!($($msg)*), span, source_line(src, span.line)))
        }};
    }
    while i < bytes.len() {
        let b = bytes[i];
        // Whitespace (newlines included — the grammar is self-delimiting).
        if b == b'\n' {
            i += 1;
            line += 1;
            col = 1;
            prev_line_start = line_start;
            line_start = i;
            continue;
        }
        if is_space(b) {
            let n = run(&bytes[i..], is_space);
            i += n;
            col += n as u32;
            continue;
        }
        // Comments: `#` or `//` to end of line. The column is not advanced:
        // only a newline or the end of input can follow.
        if b == b'#' || (b == b'/' && bytes.get(i + 1) == Some(&b'/')) {
            let start = i + if b == b'#' { 1 } else { 2 };
            let end =
                bytes[start..].iter().position(|&c| c == b'\n').map_or(bytes.len(), |n| start + n);
            let text = src[start..end].trim_start();
            let text_start = end - text.len();
            comments.push(Comment {
                line,
                start: text_start,
                end: text_start + text.trim_end().len(),
            });
            i = end;
            continue;
        }
        if is_ident_start(b) {
            let start = i;
            i += run(&bytes[i..], is_ident_continue);
            let len = (i - start) as u32;
            tokens.push(Token { tok: Tok::Ident(&src[start..i]), span: Span::new(line, col, len) });
            col += len;
            continue;
        }
        if b.is_ascii_digit() {
            let start = i;
            i += run(&bytes[i..], is_word);
            let len = (i - start) as u32;
            let span = Span::new(line, col, len);
            match int_value(&bytes[start..i]) {
                Some((value, hex)) => tokens.push(Token { tok: Tok::Int { value, hex }, span }),
                None => fail!(span, "invalid integer literal '{}'", &src[start..i]),
            }
            col += len;
            continue;
        }
        if b == b'"' {
            let (start_col, body) = (col, i + 1);
            i += 1;
            col += 1;
            loop {
                match bytes.get(i) {
                    None | Some(b'\n') => {
                        fail!(
                            Span::new(line, start_col, col - start_col),
                            "unterminated string literal"
                        )
                    }
                    Some(b'"') => break,
                    Some(b'\\') => {
                        let esc_span = Span::new(line, col, 2);
                        match src[i + 1..].chars().next() {
                            Some('"' | '\\' | 'n' | 't' | 'r') => {}
                            Some(other) => fail!(esc_span, "unknown escape '\\{other}' in string"),
                            None => fail!(esc_span, "unterminated string literal"),
                        }
                        i += 2;
                        col += 2;
                    }
                    Some(_) => {
                        i += 1;
                        col += 1;
                    }
                }
                // Skip the rest of a multi-byte character: its continuation
                // bytes are not columns.
                while i < bytes.len() && !starts_char(bytes[i]) {
                    i += 1;
                }
            }
            let tok = Tok::Str(&src[body..i]);
            i += 1;
            col += 1;
            tokens.push(Token { tok, span: Span::new(line, start_col, col - start_col) });
            continue;
        }
        // Punctuation, with two-character lookahead for comparisons.
        let two = bytes.get(i + 1).copied();
        let (tok, len) = match (b, two) {
            (b'=', Some(b'=')) => (Tok::EqEq, 2),
            (b'=', _) => (Tok::Eq, 1),
            (b'!', Some(b'=')) => (Tok::Ne, 2),
            (b'!', _) => (Tok::Bang, 1),
            (b'<', Some(b'=')) => (Tok::Le, 2),
            (b'<', _) => (Tok::Lt, 1),
            (b'>', Some(b'=')) => (Tok::Ge, 2),
            (b'>', _) => (Tok::Gt, 1),
            (b'{', _) => (Tok::LBrace, 1),
            (b'}', _) => (Tok::RBrace, 1),
            (b'[', _) => (Tok::LBracket, 1),
            (b']', _) => (Tok::RBracket, 1),
            (b',', _) => (Tok::Comma, 1),
            (b':', _) => (Tok::Colon, 1),
            (b'.', _) => (Tok::Dot, 1),
            (b'@', _) => (Tok::At, 1),
            (b'+', _) => (Tok::Plus, 1),
            (b'&', _) => (Tok::Amp, 1),
            _ => {
                // Cold path: a non-ASCII character is whitespace or an error.
                let c = src[i..].chars().next().expect("i is on a char boundary");
                if c.is_whitespace() {
                    i += c.len_utf8();
                    col += 1;
                    continue;
                }
                fail!(Span::new(line, col, 1), "unexpected character '{c}'")
            }
        };
        tokens.push(Token { tok, span: Span::new(line, col, len) });
        i += len as usize;
        col += len;
    }
    // The end-of-input span sits just past the last line, in the sense of
    // `str::lines` (a trailing newline opens no new line; a trailing
    // `\r\n` is not part of the line).
    let (end_line, last) = if line_start < src.len() {
        (line, &src[line_start..])
    } else if line > 1 {
        (line - 1, &src[prev_line_start..line_start])
    } else {
        (1, "")
    };
    let end_col = last.lines().next().map_or(0, |l| l.chars().count() as u32) + 1;
    tokens.push(Token { tok: Tok::Eof, span: Span::new(end_line, end_col, 1) });
    Ok(Lexed { tokens, comments })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok<'_>> {
        lex(src).unwrap().tokens.into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn lexes_core_tokens() {
        assert_eq!(
            toks("r0 = load.acq x"),
            vec![
                Tok::Ident("r0"),
                Tok::Eq,
                Tok::Ident("load"),
                Tok::Dot,
                Tok::Ident("acq"),
                Tok::Ident("x"),
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn lexes_numbers_both_bases() {
        assert_eq!(
            toks("16 0x10 1_000 0_x1_0"),
            vec![
                Tok::Int { value: 16, hex: false },
                Tok::Int { value: 16, hex: true },
                Tok::Int { value: 1000, hex: false },
                Tok::Int { value: 16, hex: true },
                Tok::Eof
            ]
        );
        assert_eq!(toks("18446744073709551615")[0], Tok::Int { value: u64::MAX, hex: false });
        assert!(lex("0xzz").is_err());
        assert!(lex("0x").is_err());
        assert!(lex("1abc").is_err());
        assert!(lex("99999999999999999999999").is_err());
        assert!(lex("0x10000000000000000").is_err());
    }

    #[test]
    fn lexes_comparisons_and_bang() {
        assert_eq!(
            toks("== != <= >= < > !"),
            vec![Tok::EqEq, Tok::Ne, Tok::Le, Tok::Ge, Tok::Lt, Tok::Gt, Tok::Bang, Tok::Eof]
        );
    }

    #[test]
    fn dashed_idents_are_single_tokens() {
        assert_eq!(toks("await-termination"), vec![Tok::Ident("await-termination"), Tok::Eof]);
    }

    #[test]
    fn strings_resolve_escapes() {
        assert_eq!(toks(r#""a\"b\n""#), vec![Tok::Str(r#"a\"b\n"#), Tok::Eof]);
        assert_eq!(decode_str(r#"a\"b\n\\\t\r"#), "a\"b\n\\\t\r");
        assert_eq!(decode_str("plain"), "plain");
        assert!(lex("\"abc").is_err());
        assert!(lex(r#""\q""#).is_err());
    }

    #[test]
    fn comments_are_collected_not_tokenized() {
        let src = "# top\nnop // trailing\r\n";
        let l = lex(src).unwrap();
        assert_eq!(l.comments.len(), 2);
        assert_eq!((l.comments[0].line, l.comments[0].text(src)), (1, "top"));
        assert_eq!((l.comments[1].line, l.comments[1].text(src)), (2, "trailing"));
        assert_eq!(l.tokens.len(), 2); // nop + eof
    }

    #[test]
    fn spans_track_lines_and_columns() {
        let l = lex("a\n  bb").unwrap();
        assert_eq!(l.tokens[0].span, Span::new(1, 1, 1));
        assert_eq!(l.tokens[1].span, Span::new(2, 3, 2));
    }

    #[test]
    fn columns_count_characters() {
        let l = lex("\"λμ\" x\u{a0}y").unwrap();
        assert_eq!(l.tokens[0].span, Span::new(1, 1, 4));
        assert_eq!(l.tokens[1].span, Span::new(1, 6, 1));
        assert_eq!(l.tokens[2].span, Span::new(1, 8, 1));
        let e = lex("\"é\" λ").unwrap_err();
        assert_eq!((e.message.as_str(), e.span), ("unexpected character 'λ'", Span::new(1, 5, 1)));
    }

    #[test]
    fn end_of_input_sits_past_the_last_line() {
        let eof = |src| lex(src).unwrap().tokens.last().unwrap().span;
        assert_eq!(eof(""), Span::new(1, 1, 1));
        assert_eq!(eof("ab"), Span::new(1, 3, 1));
        assert_eq!(eof("ab\n"), Span::new(1, 3, 1));
        assert_eq!(eof("ab\r\n"), Span::new(1, 3, 1));
        assert_eq!(eof("ab\n\n"), Span::new(2, 1, 1));
        assert_eq!(eof("ab\n# é"), Span::new(2, 4, 1));
    }
}
