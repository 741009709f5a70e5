//! Span-carrying diagnostics with rustc-style source excerpts.

use std::fmt;

/// A half-open region of source text: 1-based line and column plus a
/// length in characters. Every token and AST node carries one so that
/// lowering errors can point back at the offending text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// 1-based source line.
    pub line: u32,
    /// 1-based column of the first character.
    pub col: u32,
    /// Number of characters covered (at least 1 for rendering).
    pub len: u32,
}

impl Span {
    /// A span covering `len` characters at `line:col`.
    pub fn new(line: u32, col: u32, len: u32) -> Span {
        Span { line, col, len }
    }
}

/// Line `line` (1-based) of `src` in the sense of [`str::lines`], without
/// its line ending; empty past the end. Excerpts are cut only on error
/// paths, so this scans rather than keeping a line table.
pub(crate) fn source_line(src: &str, line: u32) -> &str {
    src.lines().nth(line.saturating_sub(1) as usize).unwrap_or("")
}

/// A parse or lowering error with a stable `line:col` location and the
/// offending source line, rendered rustc-style:
///
/// ```text
/// error: unknown barrier mode 'foo'
///  --> sb.litmus:4:11
///   4 | r0 = load.foo x
///     |           ^^^
/// ```
///
/// The message format is golden-tested; tools may match on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// What went wrong (one line, no trailing punctuation).
    pub message: String,
    /// Location of the offending text.
    pub span: Span,
    /// The source line the span points into (without trailing newline).
    pub source_line: String,
    /// Display name of the source file, when known (set by
    /// [`Diagnostic::with_file`]; path-based entry points fill it in).
    pub file: Option<String>,
}

impl Diagnostic {
    /// Build a diagnostic from a message, span and the offending line.
    pub fn new(message: impl Into<String>, span: Span, source_line: impl Into<String>) -> Self {
        Diagnostic { message: message.into(), span, source_line: source_line.into(), file: None }
    }

    /// Attach a file display name (shown in the `-->` location line).
    #[must_use]
    pub fn with_file(mut self, file: impl Into<String>) -> Self {
        self.file = Some(file.into());
        self
    }

    /// Render the diagnostic with its source excerpt and caret line.
    #[must_use]
    pub fn render(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "error: {}", self.message);
        match &self.file {
            Some(f) => {
                let _ = writeln!(out, " --> {}:{}:{}", f, self.span.line, self.span.col);
            }
            None => {
                let _ = writeln!(out, " --> {}:{}", self.span.line, self.span.col);
            }
        }
        let gutter = format!("{:>4}", self.span.line);
        let _ = writeln!(out, "{gutter} | {}", self.source_line);
        let pad = " ".repeat(self.span.col.saturating_sub(1) as usize);
        let carets = "^".repeat(self.span.len.max(1) as usize);
        let _ = writeln!(out, "{} | {pad}{carets}", " ".repeat(gutter.len()));
        out
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.render().trim_end())
    }
}

impl std::error::Error for Diagnostic {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_points_at_span() {
        let d = Diagnostic::new("unknown barrier mode 'foo'", Span::new(4, 11, 3), "r0 = load.foo x")
            .with_file("sb.litmus");
        let r = d.render();
        assert!(r.contains("error: unknown barrier mode 'foo'"));
        assert!(r.contains(" --> sb.litmus:4:11"));
        assert!(r.contains("   4 | r0 = load.foo x"));
        assert!(r.contains("     |           ^^^"));
    }

    #[test]
    fn render_without_file() {
        let d = Diagnostic::new("boom", Span::new(1, 1, 1), "x");
        assert!(d.render().contains(" --> 1:1"));
        assert_eq!(d.to_string().lines().count(), 4);
    }
}
