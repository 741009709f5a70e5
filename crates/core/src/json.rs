//! The one JSON writer behind every machine-readable output: the `--json`
//! reports ([`Report::to_json`](crate::Report::to_json),
//! [`CorpusReport::to_json`](crate::CorpusReport::to_json)), every line of
//! a `--trace` file ([`TraceWriter`](crate::TraceWriter)) and the bench
//! rows.
//!
//! [`Json`] appends to a `String` front to back, so members appear in the
//! order of the calls; it builds no tree. It owns the layout — `", "`
//! between members and elements, `": "` after a key, `null` — and the
//! fixed number formats: integers as they are, durations in milliseconds
//! with three decimals ([`Json::ms`]), trace timestamps in whole
//! microseconds ([`Json::us`]). Strings, and anything written through
//! [`Json::display`], are escaped straight into the buffer.
//!
//! ```
//! use vsync_core::json::Json;
//!
//! let mut out = String::new();
//! Json::new(&mut out).obj(|j| {
//!     j.key("lock").str("q\"spin").key("threads").uint(3).key("sites").arr(|j| {
//!         j.null().bool(true);
//!     });
//! });
//! assert_eq!(out, r#"{"lock": "q\"spin", "threads": 3, "sites": [null, true]}"#);
//! ```

use std::fmt::{self, Write as _};
use std::time::Duration;

/// A JSON document being written into a borrowed `String`. Every value
/// method writes one value — an object member's after [`Json::key`], else
/// the next array element — and returns the writer for chaining.
#[derive(Debug)]
pub struct Json<'a> {
    out: &'a mut String,
    /// Does the next member or element need a `", "` first?
    sep: bool,
}

impl<'a> Json<'a> {
    /// A writer appending to `out`.
    pub fn new(out: &'a mut String) -> Self {
        Json { out, sep: false }
    }

    /// The buffer, positioned for one more value.
    fn value(&mut self) -> &mut String {
        if std::mem::replace(&mut self.sep, true) {
            self.out.push_str(", ");
        }
        self.out
    }

    /// An object member's key; the next call writes its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.str(key);
        self.out.push_str(": ");
        self.sep = false;
        self
    }

    /// An object whose members `body` writes.
    pub fn obj(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.nest('{', '}', body)
    }

    /// An array whose elements `body` writes.
    pub fn arr(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.nest('[', ']', body)
    }

    fn nest(&mut self, open: char, close: char, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.value().push(open);
        self.sep = false;
        body(self);
        self.out.push(close);
        self.sep = true;
        self
    }

    /// A string.
    pub fn str(&mut self, s: &str) -> &mut Self {
        let out = self.value();
        out.push('"');
        escape(out, s);
        out.push('"');
        self
    }

    /// A string holding `v`'s `Display` output, escaped as it is
    /// formatted (no intermediate `String`).
    pub fn display(&mut self, v: impl fmt::Display) -> &mut Self {
        let out = self.value();
        out.push('"');
        let _ = write!(Escaped(out), "{v}");
        out.push('"');
        self
    }

    /// `s`, or `null`.
    pub fn opt_str(&mut self, s: Option<&str>) -> &mut Self {
        match s {
            Some(s) => self.str(s),
            None => self.null(),
        }
    }

    /// `null`.
    pub fn null(&mut self) -> &mut Self {
        self.value().push_str("null");
        self
    }

    /// `true` or `false`.
    pub fn bool(&mut self, b: bool) -> &mut Self {
        self.value().push_str(if b { "true" } else { "false" });
        self
    }

    /// An integer.
    pub fn uint(&mut self, n: u64) -> &mut Self {
        let _ = write!(self.value(), "{n}");
        self
    }

    /// A number in Rust's shortest round-trip form (`3`, `1.5`).
    pub fn float(&mut self, x: f64) -> &mut Self {
        let _ = write!(self.value(), "{x}");
        self
    }

    /// A number with three decimals (`1.500`).
    pub fn fixed3(&mut self, x: f64) -> &mut Self {
        let _ = write!(self.value(), "{x:.3}");
        self
    }

    /// A duration in milliseconds with three decimals (`elapsed_ms`).
    pub fn ms(&mut self, d: Duration) -> &mut Self {
        self.fixed3(d.as_secs_f64() * 1e3)
    }

    /// A duration in whole microseconds (trace `ts` and `dur`).
    pub fn us(&mut self, d: Duration) -> &mut Self {
        let _ = write!(self.value(), "{}", d.as_micros());
        self
    }
}

/// Adapts a `String` so `Display` output lands in it escaped.
struct Escaped<'a>(&'a mut String);

impl fmt::Write for Escaped<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        escape(self.0, s);
        Ok(())
    }
}

/// Append `s` with JSON string escapes (no quotes). Every byte that needs
/// one is ASCII, so unescaped runs are copied as whole slices.
fn escape(out: &mut String, s: &str) {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let esc = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        run = i + 1;
        if esc.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(esc);
        }
    }
    out.push_str(&s[run..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(body: impl FnOnce(&mut Json<'_>)) -> String {
        let mut out = String::new();
        body(&mut Json::new(&mut out));
        out
    }

    #[test]
    fn json_escaping_is_sound() {
        assert_eq!(doc(|j| _ = j.str("a\"b\\c\nd")), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(doc(|j| _ = j.str("\u{1}\r\t§")), "\"\\u0001\\r\\t§\"");
        assert_eq!(doc(|j| _ = j.display(format_args!("{}\"", 1))), "\"1\\\"\"");
    }

    #[test]
    fn separators_nesting_and_number_formats() {
        let out = doc(|j| {
            j.obj(|j| {
                j.key("a").arr(|j| {
                    j.obj(|_| {}).arr(|_| {}).opt_str(None).opt_str(Some("x"));
                });
                j.key("ms")
                    .ms(Duration::from_micros(1500))
                    .key("us")
                    .us(Duration::from_nanos(2999));
                j.key("f").float(3.0).key("g").fixed3(0.25).key("n").uint(7).key("b").bool(false);
            });
        });
        assert_eq!(
            out,
            r#"{"a": [{}, [], null, "x"], "ms": 1.500, "us": 2, "f": 3, "g": 0.250, "n": 7, "b": false}"#
        );
    }
}
