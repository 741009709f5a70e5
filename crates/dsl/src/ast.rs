//! The parsed form of a litmus file.
//!
//! The AST preserves surface details the [`crate::lower`]ed
//! [`vsync_lang::Program`] discards — location names, label names, thread
//! templates, integer bases and comment placement — so the formatter
//! (`vsync fmt`) can re-emit files canonically without losing authorship
//! intent. Every node carries the [`Span`]s lowering needs for
//! diagnostics.

use vsync_graph::Mode;
use vsync_lang::{AluOp, Cmp, RmwOp};
use vsync_model::ModelKind;

use crate::diag::{source_line, Span};
use crate::lexer::Comment;

/// An integer literal with its written base (for canonical reprinting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntLit {
    /// The value.
    pub value: u64,
    /// Was it written in hexadecimal?
    pub hex: bool,
}

impl IntLit {
    /// A decimal literal.
    pub fn dec(value: u64) -> IntLit {
        IntLit { value, hex: false }
    }

    /// A hexadecimal literal.
    pub fn hex(value: u64) -> IntLit {
        IntLit { value, hex: true }
    }
}

impl std::fmt::Display for IntLit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.hex {
            write!(f, "{:#x}", self.value)
        } else {
            write!(f, "{}", self.value)
        }
    }
}

/// A whole parsed file: header, items in source order, plus the source
/// text and comments needed for diagnostics and comment-preserving
/// formatting.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Program name from the `litmus "name"` header.
    pub name: String,
    /// Span of the header name.
    pub name_span: Span,
    /// Sections in source order.
    pub items: Vec<Item>,
    /// Source line of the header (for comment placement).
    pub header_line: u32,
    /// Full-line and trailing comments, in source order; their text is a
    /// byte range of `source`.
    pub(crate) comments: Vec<Comment>,
    /// The parsed source text (comment text and diagnostic excerpts are
    /// cut from it; empty for files built by [`crate::program_to_ast`]).
    pub(crate) source: String,
}

impl SourceFile {
    /// A diagnostic anchored at `span` with its source excerpt.
    pub(crate) fn diag(&self, message: impl Into<String>, span: Span) -> crate::Diagnostic {
        crate::Diagnostic::new(message, span, source_line(&self.source, span.line))
    }
}

/// One top-level section.
#[derive(Debug, Clone)]
pub enum Item {
    /// `init { ... }`
    Init {
        /// Location declarations, in source order.
        decls: Vec<LocDecl>,
        /// Source line of the `init` keyword.
        line: u32,
    },
    /// `thread { ... }` or `thread[n] { ... }` (a template instantiated
    /// `n` times — the threads share one symmetry class by construction).
    Thread {
        /// Template replication count (`None` = a single thread).
        count: Option<(u64, Span)>,
        /// Statements of the thread body.
        stmts: Vec<Stmt>,
        /// Source line of the `thread` keyword.
        line: u32,
    },
    /// `final { ... }`
    Final {
        /// Final-state checks.
        checks: Vec<FinalCheckAst>,
        /// Source line of the `final` keyword.
        line: u32,
    },
    /// `expect <model>: <verdict> [= N]`
    Expect {
        /// Checked memory model.
        model: ModelKind,
        /// Span of the model name.
        model_span: Span,
        /// Expected verdict.
        verdict: ExpectedVerdict,
        /// Exact complete-execution count (only with `verified`; checked
        /// under the default symmetry-on counting).
        executions: Option<u64>,
        /// Source line of the `expect` keyword.
        line: u32,
    },
    /// `symmetry { 0 2 } { 1 }` — an explicit declared thread partition
    /// (rare; emitted by the printer only when the declaration differs
    /// from the detected partition).
    Symmetry {
        /// Thread-index groups.
        groups: Vec<Vec<(u64, Span)>>,
        /// Source line of the `symmetry` keyword.
        line: u32,
    },
}

impl Item {
    /// Source line of the section keyword (for comment placement).
    pub fn line(&self) -> u32 {
        match self {
            Item::Init { line, .. }
            | Item::Thread { line, .. }
            | Item::Final { line, .. }
            | Item::Expect { line, .. }
            | Item::Symmetry { line, .. } => *line,
        }
    }
}

/// A location declaration inside `init { ... }`:
/// `name [@ addr] [= value]` or `addr = value`.
#[derive(Debug, Clone)]
pub struct LocDecl {
    /// Named or address-literal location.
    pub name: LocName,
    /// Explicit address (`@ 0x100`), for named locations.
    pub addr: Option<IntLit>,
    /// Initial value (locations default to 0).
    pub init: Option<IntLit>,
    /// Source line (for comment placement).
    pub line: u32,
}

/// The subject of a [`LocDecl`].
#[derive(Debug, Clone)]
pub enum LocName {
    /// A symbolic location name.
    Named(String, Span),
    /// A raw address literal.
    Addr(IntLit, Span),
}

/// A memory-location reference in code: a declared name (with optional
/// byte offset), a raw address, or a register-indirect access.
#[derive(Debug, Clone)]
pub enum AddrAst {
    /// `name` or `name + off`.
    Name {
        /// Declared (or auto-declared) location name.
        name: String,
        /// Optional byte offset.
        offset: Option<IntLit>,
        /// Span of the name.
        span: Span,
    },
    /// A raw address literal.
    Lit(IntLit, Span),
    /// `[rN]` or `[rN + off]`.
    Reg {
        /// Base register.
        reg: u8,
        /// Optional byte offset.
        offset: Option<IntLit>,
        /// Span of the register token.
        span: Span,
    },
}

/// A value operand: register, integer, or a location name used as an
/// address immediate (queue locks store node addresses into memory).
#[derive(Debug, Clone)]
pub enum OperandAst {
    /// A register.
    Reg(u8, Span),
    /// An immediate.
    Lit(IntLit, Span),
    /// A declared location's address, as an immediate.
    Name(String, Span),
}

/// A predicate `[& mask] cmp rhs` (the `v` is implicit).
#[derive(Debug, Clone)]
pub struct TestAst {
    /// Optional mask applied before comparing.
    pub mask: Option<OperandAst>,
    /// Comparison operator.
    pub cmp: Cmp,
    /// Right-hand side.
    pub rhs: OperandAst,
}

/// A barrier-site annotation: `.mode [!] [@ name]`.
#[derive(Debug, Clone)]
pub struct SiteAst {
    /// Barrier mode.
    pub mode: Mode,
    /// Span of the mode name.
    pub mode_span: Span,
    /// `!` — excluded from optimization.
    pub fixed: bool,
    /// Explicit site name (shared across threads by name).
    pub name: Option<(String, Span)>,
}

/// One final-state check: `loc test [: "message"]`.
#[derive(Debug, Clone)]
pub struct FinalCheckAst {
    /// Checked location (named or literal).
    pub loc: AddrAst,
    /// Predicate on the final value.
    pub test: TestAst,
    /// Failure message.
    pub msg: Option<String>,
    /// Source line (for comment placement).
    pub line: u32,
}

/// A statement in a thread body.
#[derive(Debug, Clone)]
pub struct Stmt {
    /// The statement proper.
    pub kind: StmtKind,
    /// Source line (for comment placement).
    pub line: u32,
}

/// Statement kinds. Shared-memory statements carry a [`SiteAst`].
#[derive(Debug, Clone)]
pub enum StmtKind {
    /// `name:` — a label binding.
    Label(String, Span),
    /// `store.mode addr, src`
    Store {
        /// Barrier site.
        site: SiteAst,
        /// Target address.
        addr: AddrAst,
        /// Stored value.
        src: OperandAst,
    },
    /// `fence.mode`
    Fence {
        /// Barrier site.
        site: SiteAst,
    },
    /// `jmp label [if src test]`
    Jmp {
        /// Target label name.
        target: (String, Span),
        /// Branch condition (`None` = unconditional).
        cond: Option<(OperandAst, TestAst)>,
    },
    /// `assert src test [, "message"]`
    Assert {
        /// Tested operand.
        src: OperandAst,
        /// Predicate.
        test: TestAst,
        /// Message attached to the error event.
        msg: Option<String>,
    },
    /// `nop`
    Nop,
    /// `rN = <rhs>`
    Assign {
        /// Destination register.
        dst: (u8, Span),
        /// Right-hand side.
        rhs: RhsAst,
    },
}

/// The right-hand side of a register assignment.
#[derive(Debug, Clone)]
pub enum RhsAst {
    /// `load.mode addr`
    Load {
        /// Barrier site.
        site: SiteAst,
        /// Loaded address.
        addr: AddrAst,
    },
    /// `rmw.op.mode addr, operand`
    Rmw {
        /// Update operation.
        op: RmwOp,
        /// Barrier site.
        site: SiteAst,
        /// Target address.
        addr: AddrAst,
        /// Operand of the update.
        operand: OperandAst,
    },
    /// `cas.mode addr, expected, new`
    Cas {
        /// Barrier site.
        site: SiteAst,
        /// Target address.
        addr: AddrAst,
        /// Expected value.
        expected: OperandAst,
        /// New value on success.
        new: OperandAst,
    },
    /// `await_load.mode addr until test`
    AwaitLoad {
        /// Barrier site.
        site: SiteAst,
        /// Polled address.
        addr: AddrAst,
        /// Exit condition.
        until: TestAst,
    },
    /// `await_rmw.op.mode addr, operand until test`
    AwaitRmw {
        /// Update operation applied on exit.
        op: RmwOp,
        /// Barrier site.
        site: SiteAst,
        /// Polled address.
        addr: AddrAst,
        /// Operand of the update.
        operand: OperandAst,
        /// Exit condition on the old value.
        until: TestAst,
    },
    /// `await_cas.mode addr, expected, new`
    AwaitCas {
        /// Barrier site.
        site: SiteAst,
        /// Polled address.
        addr: AddrAst,
        /// Expected value.
        expected: OperandAst,
        /// New value.
        new: OperandAst,
    },
    /// `mov operand`
    Mov {
        /// Source operand.
        src: OperandAst,
    },
    /// `<aluop> a, b`
    Alu {
        /// Operation.
        op: AluOp,
        /// Left operand.
        a: OperandAst,
        /// Right operand.
        b: OperandAst,
    },
}

/// The verdict a litmus file expects from one memory model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExpectedVerdict {
    /// Every execution safe, every await terminates.
    Verified,
    /// A safety violation (failed assertion or final-state check).
    Safety,
    /// An await-termination violation.
    AwaitTermination,
    /// A modeling-obligation or budget fault.
    Fault,
}

impl ExpectedVerdict {
    /// Canonical annotation spelling (`verified`, `safety`,
    /// `await-termination`, `fault`).
    pub fn name(self) -> &'static str {
        match self {
            ExpectedVerdict::Verified => "verified",
            ExpectedVerdict::Safety => "safety",
            ExpectedVerdict::AwaitTermination => "await-termination",
            ExpectedVerdict::Fault => "fault",
        }
    }

    /// Parse the canonical spelling.
    pub fn from_name(s: &str) -> Option<ExpectedVerdict> {
        match s {
            "verified" => Some(ExpectedVerdict::Verified),
            "safety" => Some(ExpectedVerdict::Safety),
            "await-termination" => Some(ExpectedVerdict::AwaitTermination),
            "fault" => Some(ExpectedVerdict::Fault),
            _ => None,
        }
    }
}

impl std::fmt::Display for ExpectedVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One `expect` annotation, after lowering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expectation {
    /// The checked memory model.
    pub model: ModelKind,
    /// The expected verdict kind.
    pub verdict: ExpectedVerdict,
    /// Exact complete-execution count (canonical-orbit counts — only
    /// meaningful for `verified` runs with symmetry reduction enabled).
    pub executions: Option<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_lit_display_preserves_base() {
        assert_eq!(IntLit::dec(16).to_string(), "16");
        assert_eq!(IntLit::hex(16).to_string(), "0x10");
    }

    #[test]
    fn expected_verdict_names_round_trip() {
        for v in [
            ExpectedVerdict::Verified,
            ExpectedVerdict::Safety,
            ExpectedVerdict::AwaitTermination,
            ExpectedVerdict::Fault,
        ] {
            assert_eq!(ExpectedVerdict::from_name(v.name()), Some(v));
        }
        assert_eq!(ExpectedVerdict::from_name("nope"), None);
    }
}
