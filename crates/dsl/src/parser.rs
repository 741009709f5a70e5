//! Recursive-descent parser for the litmus DSL.
//!
//! The grammar (DESIGN.md §9 has the full EBNF) is self-delimiting, so
//! newlines are insignificant and no statement separators are needed.
//! The parser only checks syntax; name resolution (locations, labels,
//! shared sites) happens in [`crate::lower`].
//!
//! Tokens are `Copy` and borrow the source, so looking ahead and
//! consuming cost nothing; keywords are matched on the borrowed slices,
//! and only the names and strings the AST keeps are copied out.

use vsync_graph::Mode;
use vsync_lang::{AluOp, Cmp, RmwOp, NUM_REGS};
use vsync_model::ModelKind;

use crate::ast::{
    AddrAst, ExpectedVerdict, FinalCheckAst, IntLit, Item, LocDecl, LocName, OperandAst, RhsAst,
    SiteAst, SourceFile, Stmt, StmtKind, TestAst,
};
use crate::diag::{source_line, Diagnostic, Span};
use crate::lexer::{decode_str, lex, Comment, Tok, Token};

/// Parse a litmus source file into its AST.
///
/// # Errors
///
/// Returns the first syntax error, with a `line:col` span and source
/// excerpt.
pub fn parse(src: &str) -> Result<SourceFile, Diagnostic> {
    let lexed = lex(src)?;
    Parser { src, tokens: lexed.tokens, pos: 0 }.file(lexed.comments)
}

struct Parser<'s> {
    src: &'s str,
    tokens: Vec<Token<'s>>,
    pos: usize,
}

/// Does an identifier name a register (`r0`..`r31` shape: `r` + digits)?
fn reg_of(ident: &str) -> Option<u64> {
    let digits = ident.strip_prefix('r')?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

impl<'s> Parser<'s> {
    fn peek(&self) -> Token<'s> {
        self.tokens[self.pos]
    }

    fn peek2(&self) -> Tok<'s> {
        self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].tok
    }

    fn bump(&mut self) -> Token<'s> {
        let t = self.tokens[self.pos];
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, tok: Tok<'_>) -> bool {
        if self.peek().tok == tok {
            self.bump();
            true
        } else {
            false
        }
    }

    fn diag(&self, message: impl Into<String>, span: Span) -> Diagnostic {
        Diagnostic::new(message, span, source_line(self.src, span.line))
    }

    fn diag_here(&self, message: impl Into<String>) -> Diagnostic {
        self.diag(message, self.peek().span)
    }

    fn expected(&self, what: &str) -> Diagnostic {
        self.diag_here(format!("expected {what}, found {}", self.peek().tok.describe()))
    }

    fn expect(&mut self, tok: Tok<'_>, what: &str) -> Result<Token<'s>, Diagnostic> {
        if self.peek().tok == tok {
            Ok(self.bump())
        } else {
            Err(self.expected(what))
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<(&'s str, Span), Diagnostic> {
        match self.peek().tok {
            Tok::Ident(s) => Ok((s, self.bump().span)),
            _ => Err(self.expected(what)),
        }
    }

    fn expect_int(&mut self, what: &str) -> Result<(IntLit, Span), Diagnostic> {
        match self.peek().tok {
            Tok::Int { value, hex } => Ok((IntLit { value, hex }, self.bump().span)),
            _ => Err(self.expected(what)),
        }
    }

    fn expect_string(&mut self, what: &str) -> Result<(String, Span), Diagnostic> {
        match self.peek().tok {
            Tok::Str(raw) => Ok((decode_str(raw), self.bump().span)),
            _ => Err(self.expected(what)),
        }
    }

    // ---- file & items ------------------------------------------------

    fn file(mut self, comments: Vec<Comment>) -> Result<SourceFile, Diagnostic> {
        let (kw, kw_span) = self.expect_ident("the 'litmus \"name\"' header")?;
        if kw != "litmus" {
            return Err(self.diag(format!("expected the 'litmus \"name\"' header, found '{kw}'"), kw_span));
        }
        let header_line = kw_span.line;
        let (name, name_span) = match self.peek().tok {
            Tok::Str(_) => self.expect_string("the program name")?,
            Tok::Ident(s) => (s.to_owned(), self.bump().span),
            _ => return Err(self.expected("the program name (a string or identifier)")),
        };
        let mut items = Vec::new();
        loop {
            match self.peek().tok {
                Tok::Eof => break,
                Tok::Ident("init") => items.push(self.init_item()?),
                Tok::Ident("thread") => items.push(self.thread_item()?),
                Tok::Ident("final") => items.push(self.final_item()?),
                Tok::Ident("expect") => items.push(self.expect_item()?),
                Tok::Ident("symmetry") => items.push(self.symmetry_item()?),
                _ => return Err(self.expected("a section (init, thread, final, expect, symmetry)")),
            }
        }
        Ok(SourceFile { name, name_span, items, header_line, comments, source: self.src.to_owned() })
    }

    fn init_item(&mut self) -> Result<Item, Diagnostic> {
        let line = self.bump().span.line; // `init`
        self.expect(Tok::LBrace, "'{'")?;
        let mut decls = Vec::new();
        while !self.eat(Tok::RBrace) {
            decls.push(self.loc_decl()?);
        }
        Ok(Item::Init { decls, line })
    }

    fn loc_decl(&mut self) -> Result<LocDecl, Diagnostic> {
        match self.peek().tok {
            Tok::Ident(name) => {
                let span = self.bump().span;
                if let Some(r) = reg_of(name) {
                    return Err(self.diag(
                        format!("'r{r}' is reserved for registers and cannot name a location"),
                        span,
                    ));
                }
                let line = span.line;
                let addr = if self.eat(Tok::At) {
                    Some(self.expect_int("an address")?.0)
                } else {
                    None
                };
                let init = if self.eat(Tok::Eq) {
                    Some(self.expect_int("an initial value")?.0)
                } else {
                    None
                };
                if addr.is_none() && init.is_none() {
                    return Err(self.diag(
                        format!("location '{name}' declares neither an address ('@') nor a value ('=')"),
                        span,
                    ));
                }
                Ok(LocDecl { name: LocName::Named(name.to_owned(), span), addr, init, line })
            }
            Tok::Int { .. } => {
                let (lit, span) = self.expect_int("an address")?;
                self.expect(Tok::Eq, "'='")?;
                let (val, _) = self.expect_int("an initial value")?;
                Ok(LocDecl { name: LocName::Addr(lit, span), addr: None, init: Some(val), line: span.line })
            }
            _ => Err(self.expected("a location declaration")),
        }
    }

    fn thread_item(&mut self) -> Result<Item, Diagnostic> {
        let line = self.bump().span.line; // `thread`
        let count = if self.eat(Tok::LBracket) {
            let (lit, span) = self.expect_int("a thread count")?;
            self.expect(Tok::RBracket, "']'")?;
            if lit.value == 0 {
                return Err(self.diag("a thread template needs at least one instance", span));
            }
            Some((lit.value, span))
        } else {
            None
        };
        self.expect(Tok::LBrace, "'{'")?;
        let mut stmts = Vec::new();
        while !self.eat(Tok::RBrace) {
            stmts.push(self.stmt()?);
        }
        Ok(Item::Thread { count, stmts, line })
    }

    fn final_item(&mut self) -> Result<Item, Diagnostic> {
        let line = self.bump().span.line; // `final`
        self.expect(Tok::LBrace, "'{'")?;
        let mut checks = Vec::new();
        while !self.eat(Tok::RBrace) {
            let check_line = self.peek().span.line;
            let loc = self.addr("a checked location")?;
            if let AddrAst::Reg { span, .. } = loc {
                return Err(self.diag("final-state checks apply to memory locations, not registers", span));
            }
            let test = self.test()?;
            // Final checks are evaluated on the final *memory* state alone —
            // thread registers are gone — so the comparison operands must be
            // immediates. Rejecting registers here gives a span; lowering has
            // no better one.
            if let OperandAst::Reg(_, span) = test.rhs {
                return Err(self.diag(
                    "final-state checks compare memory against immediates; \
                     registers have no value in the final state",
                    span,
                ));
            }
            if let Some(OperandAst::Reg(_, span)) = test.mask {
                return Err(self.diag(
                    "final-state check masks must be immediates; \
                     registers have no value in the final state",
                    span,
                ));
            }
            let msg = if self.eat(Tok::Colon) {
                Some(self.expect_string("the failure message")?.0)
            } else {
                None
            };
            checks.push(FinalCheckAst { loc, test, msg, line: check_line });
        }
        Ok(Item::Final { checks, line })
    }

    fn expect_item(&mut self) -> Result<Item, Diagnostic> {
        let line = self.bump().span.line; // `expect`
        let (model_name, model_span) = self.expect_ident("a memory model (sc, tso, vmm)")?;
        let model: ModelKind = model_name
            .parse()
            .map_err(|_| self.diag(format!("unknown memory model '{model_name}' (sc, tso, vmm)"), model_span))?;
        self.expect(Tok::Colon, "':'")?;
        let (verdict_name, verdict_span) =
            self.expect_ident("an expected verdict (verified, safety, await-termination, fault)")?;
        let verdict = ExpectedVerdict::from_name(verdict_name).ok_or_else(|| {
            self.diag(
                format!(
                    "unknown expected verdict '{verdict_name}' (verified, safety, await-termination, fault)"
                ),
                verdict_span,
            )
        })?;
        let executions = if self.eat(Tok::Eq) {
            let (lit, span) = self.expect_int("an execution count")?;
            if verdict != ExpectedVerdict::Verified {
                return Err(self.diag(
                    format!("execution counts only apply to 'verified' expectations, not '{verdict}'"),
                    span,
                ));
            }
            Some(lit.value)
        } else {
            None
        };
        Ok(Item::Expect { model, model_span, verdict, executions, line })
    }

    fn symmetry_item(&mut self) -> Result<Item, Diagnostic> {
        let line = self.bump().span.line; // `symmetry`
        let mut groups = Vec::new();
        while self.eat(Tok::LBrace) {
            let mut group = Vec::new();
            while !self.eat(Tok::RBrace) {
                let (lit, span) = self.expect_int("a thread index")?;
                group.push((lit.value, span));
            }
            groups.push(group);
        }
        if groups.is_empty() {
            return Err(self.diag_here("'symmetry' needs at least one '{ ... }' thread group"));
        }
        Ok(Item::Symmetry { groups, line })
    }

    // ---- statements --------------------------------------------------

    fn stmt(&mut self) -> Result<Stmt, Diagnostic> {
        let Token { tok, span } = self.peek();
        let line = span.line;
        let Tok::Ident(id) = tok else {
            return Err(self.expected("a statement"));
        };
        if self.peek2() == Tok::Colon {
            self.bump(); // the label
            self.bump(); // ':'
            return Ok(Stmt { kind: StmtKind::Label(id.to_owned(), span), line });
        }
        if let Some(r) = reg_of(id) {
            self.bump();
            let dst = self.check_reg(r, span)?;
            self.expect(Tok::Eq, "'='")?;
            let rhs = self.rhs()?;
            return Ok(Stmt { kind: StmtKind::Assign { dst: (dst, span), rhs }, line });
        }
        let kind = match id {
            "store" => {
                self.bump();
                let site = self.site()?;
                let addr = self.addr("a store address")?;
                self.expect(Tok::Comma, "','")?;
                let src = self.operand("the stored value")?;
                StmtKind::Store { site, addr, src }
            }
            "fence" => {
                self.bump();
                StmtKind::Fence { site: self.site()? }
            }
            "jmp" => {
                self.bump();
                let (target, target_span) = self.expect_ident("a label")?;
                let cond = if self.eat(Tok::Ident("if")) {
                    let src = self.operand("the tested operand")?;
                    let test = self.test()?;
                    Some((src, test))
                } else {
                    None
                };
                StmtKind::Jmp { target: (target.to_owned(), target_span), cond }
            }
            "assert" => {
                self.bump();
                let src = self.operand("the asserted operand")?;
                let test = self.test()?;
                let msg = if self.eat(Tok::Comma) {
                    Some(self.expect_string("the assertion message")?.0)
                } else {
                    None
                };
                StmtKind::Assert { src, test, msg }
            }
            "nop" => {
                self.bump();
                StmtKind::Nop
            }
            other => {
                return Err(self.diag_here(format!(
                    "expected a statement, found '{other}' \
                     (statements: rN = ..., store, fence, jmp, assert, nop, label:)"
                )))
            }
        };
        Ok(Stmt { kind, line })
    }

    fn rhs(&mut self) -> Result<RhsAst, Diagnostic> {
        let (op, span) = self.expect_ident("an operation (load, rmw, cas, await_load, mov, ...)")?;
        Ok(match op {
            "load" => {
                let site = self.site()?;
                RhsAst::Load { site, addr: self.addr("a load address")? }
            }
            "rmw" | "await_rmw" => {
                self.expect(Tok::Dot, "'.' and an rmw operation")?;
                let (name, name_span) = self.expect_ident("an rmw operation")?;
                let rmw = rmw_of(name).ok_or_else(|| {
                    self.diag(
                        format!("unknown rmw operation '{name}' (xchg, add, sub, or, and, xor)"),
                        name_span,
                    )
                })?;
                let site = self.site()?;
                let addr = self.addr("an rmw address")?;
                self.expect(Tok::Comma, "','")?;
                let operand = self.operand("the rmw operand")?;
                if op == "rmw" {
                    RhsAst::Rmw { op: rmw, site, addr, operand }
                } else {
                    self.expect(Tok::Ident("until"), "'until'")?;
                    RhsAst::AwaitRmw { op: rmw, site, addr, operand, until: self.test()? }
                }
            }
            "cas" | "await_cas" => {
                let site = self.site()?;
                let addr = self.addr("a cas address")?;
                self.expect(Tok::Comma, "','")?;
                let expected = self.operand("the expected value")?;
                self.expect(Tok::Comma, "','")?;
                let new = self.operand("the new value")?;
                if op == "cas" {
                    RhsAst::Cas { site, addr, expected, new }
                } else {
                    RhsAst::AwaitCas { site, addr, expected, new }
                }
            }
            "await_load" => {
                let site = self.site()?;
                let addr = self.addr("a polled address")?;
                self.expect(Tok::Ident("until"), "'until'")?;
                RhsAst::AwaitLoad { site, addr, until: self.test()? }
            }
            // Sugar: `await_eq a, v` / `await_neq a, v` are canonical
            // `await_load ... until == v` / `... until != v`.
            "await_eq" | "await_neq" => {
                let site = self.site()?;
                let addr = self.addr("a polled address")?;
                self.expect(Tok::Comma, "','")?;
                let rhs = self.operand("the awaited value")?;
                let cmp = if op == "await_eq" { Cmp::Eq } else { Cmp::Ne };
                RhsAst::AwaitLoad { site, addr, until: TestAst { mask: None, cmp, rhs } }
            }
            "mov" => RhsAst::Mov { src: self.operand("the source operand")? },
            alu => match alu_of(alu) {
                Some(op) => {
                    let a = self.operand("the left operand")?;
                    self.expect(Tok::Comma, "','")?;
                    let b = self.operand("the right operand")?;
                    RhsAst::Alu { op, a, b }
                }
                None => {
                    return Err(self.diag(
                        format!(
                            "unknown operation '{alu}' (load, rmw.<op>, cas, await_load, await_eq, \
                             await_neq, await_rmw.<op>, await_cas, mov, add, sub, and, or, xor, shl, shr)"
                        ),
                        span,
                    ))
                }
            },
        })
    }

    // ---- operands, addresses, tests, sites ---------------------------

    fn check_reg(&self, r: u64, span: Span) -> Result<u8, Diagnostic> {
        if (r as usize) < NUM_REGS {
            Ok(r as u8)
        } else {
            Err(self.diag(format!("register 'r{r}' out of range (r0..r{})", NUM_REGS - 1), span))
        }
    }

    fn operand(&mut self, what: &str) -> Result<OperandAst, Diagnostic> {
        match self.peek().tok {
            Tok::Ident(id) => {
                let span = self.bump().span;
                match reg_of(id) {
                    Some(r) => Ok(OperandAst::Reg(self.check_reg(r, span)?, span)),
                    None => Ok(OperandAst::Name(id.to_owned(), span)),
                }
            }
            Tok::Int { value, hex } => Ok(OperandAst::Lit(IntLit { value, hex }, self.bump().span)),
            _ => Err(self.expected(what)),
        }
    }

    fn addr(&mut self, what: &str) -> Result<AddrAst, Diagnostic> {
        match self.peek().tok {
            Tok::Ident(id) => {
                let span = self.bump().span;
                if let Some(r) = reg_of(id) {
                    return Err(self.diag(
                        format!("register-indirect addresses use brackets: [r{r}] or [r{r} + off]"),
                        span,
                    ));
                }
                let offset = self.offset()?;
                Ok(AddrAst::Name { name: id.to_owned(), offset, span })
            }
            Tok::Int { value, hex } => Ok(AddrAst::Lit(IntLit { value, hex }, self.bump().span)),
            Tok::LBracket => {
                self.bump();
                let (id, span) = self.expect_ident("a register")?;
                let r = reg_of(id)
                    .ok_or_else(|| self.diag(format!("expected a register, found '{id}'"), span))?;
                let reg = self.check_reg(r, span)?;
                let offset = self.offset()?;
                self.expect(Tok::RBracket, "']'")?;
                Ok(AddrAst::Reg { reg, offset, span })
            }
            _ => Err(self.expected(what)),
        }
    }

    /// An optional `+ int` address offset.
    fn offset(&mut self) -> Result<Option<IntLit>, Diagnostic> {
        Ok(if self.eat(Tok::Plus) { Some(self.expect_int("an offset")?.0) } else { None })
    }

    fn test(&mut self) -> Result<TestAst, Diagnostic> {
        let mask = if self.eat(Tok::Amp) { Some(self.operand("the mask")?) } else { None };
        let cmp = match self.peek().tok {
            Tok::EqEq => Cmp::Eq,
            Tok::Ne => Cmp::Ne,
            Tok::Lt => Cmp::Lt,
            Tok::Le => Cmp::Le,
            Tok::Gt => Cmp::Gt,
            Tok::Ge => Cmp::Ge,
            _ => return Err(self.expected("a comparison (==, !=, <, <=, >, >=)")),
        };
        self.bump();
        let rhs = self.operand("the compared value")?;
        Ok(TestAst { mask, cmp, rhs })
    }

    fn site(&mut self) -> Result<SiteAst, Diagnostic> {
        self.expect(Tok::Dot, "'.' and a barrier mode")?;
        let (name, mode_span) = self.expect_ident("a barrier mode")?;
        let mode = mode_of(name).ok_or_else(|| {
            self.diag(format!("unknown barrier mode '{name}' (rlx, acq, rel, acq_rel, sc)"), mode_span)
        })?;
        let fixed = self.eat(Tok::Bang);
        let site_name = if self.eat(Tok::At) {
            match self.peek().tok {
                Tok::Str(_) => Some(self.expect_string("a site name")?),
                Tok::Ident(first) => {
                    let mut span = self.bump().span;
                    let mut name = first.to_owned();
                    // Dotted site names (`dpdk.acquire.xchg`).
                    while self.peek().tok == Tok::Dot && matches!(self.peek2(), Tok::Ident(_)) {
                        self.bump();
                        let (seg, seg_span) = self.expect_ident("a site-name segment")?;
                        name.push('.');
                        name.push_str(seg);
                        // Widen the span only while the chain stays on the
                        // name's line (newlines are whitespace, so a
                        // segment may legally continue on the next line).
                        if seg_span.line == span.line && seg_span.col + seg_span.len > span.col {
                            span.len = seg_span.col + seg_span.len - span.col;
                        }
                    }
                    Some((name, span))
                }
                _ => return Err(self.expected("a site name")),
            }
        } else {
            None
        };
        Ok(SiteAst { mode, mode_span, fixed, name: site_name })
    }
}

fn mode_of(s: &str) -> Option<Mode> {
    match s {
        "rlx" => Some(Mode::Rlx),
        "acq" => Some(Mode::Acq),
        "rel" => Some(Mode::Rel),
        "acq_rel" => Some(Mode::AcqRel),
        "sc" => Some(Mode::Sc),
        _ => None,
    }
}

fn rmw_of(s: &str) -> Option<RmwOp> {
    match s {
        "xchg" => Some(RmwOp::Xchg),
        "add" => Some(RmwOp::Add),
        "sub" => Some(RmwOp::Sub),
        "or" => Some(RmwOp::Or),
        "and" => Some(RmwOp::And),
        "xor" => Some(RmwOp::Xor),
        _ => None,
    }
}

/// ALU mnemonics (`Display` is not defined for [`AluOp`] upstream).
pub(crate) fn alu_name(op: AluOp) -> &'static str {
    match op {
        AluOp::Add => "add",
        AluOp::Sub => "sub",
        AluOp::And => "and",
        AluOp::Or => "or",
        AluOp::Xor => "xor",
        AluOp::Shl => "shl",
        AluOp::Shr => "shr",
    }
}

fn alu_of(s: &str) -> Option<AluOp> {
    match s {
        "add" => Some(AluOp::Add),
        "sub" => Some(AluOp::Sub),
        "and" => Some(AluOp::And),
        "or" => Some(AluOp::Or),
        "xor" => Some(AluOp::Xor),
        "shl" => Some(AluOp::Shl),
        "shr" => Some(AluOp::Shr),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_minimal_file() {
        let f = parse(
            r#"
            litmus "sb"
            init { x = 0  y @ 0x20 = 0 }
            thread { store.rlx x, 1  r0 = load.rlx y }
            thread { store.rlx y, 1  r0 = load.rlx x }
            expect sc: verified = 3
            "#,
        )
        .unwrap();
        assert_eq!(f.name, "sb");
        assert_eq!(f.items.len(), 4);
        assert!(matches!(&f.items[0], Item::Init { decls, .. } if decls.len() == 2));
        assert!(matches!(
            &f.items[3],
            Item::Expect { verdict: ExpectedVerdict::Verified, executions: Some(3), .. }
        ));
    }

    #[test]
    fn parses_every_statement_form() {
        let f = parse(
            r#"
            litmus all
            thread[2] {
            top:
              r0 = load.acq@shared x
              store.rel! x, r0
              r1 = rmw.add.acq_rel x, 1
              r2 = cas.sc x, 0, r1
              fence.sc
              r3 = await_load.acq x until & 0xff == 0
              r4 = await_eq.rlx x, 1
              r5 = await_neq.rlx x, 0
              r6 = await_rmw.xchg.acq x, 1 until == 0
              r7 = await_cas.acq_rel x, 0, 1
              r8 = mov 5
              r9 = shl r8, 2
              r10 = load.rlx [r9 + 0x8]
              jmp top if r10 != 0
              assert r10 == 0, "done"
              nop
            }
            "#,
        )
        .unwrap();
        let Item::Thread { count, stmts, .. } = &f.items[0] else { panic!() };
        assert_eq!(count.map(|c| c.0), Some(2));
        assert_eq!(stmts.len(), 17);
        assert!(matches!(&stmts[0].kind, StmtKind::Label(n, _) if n == "top"));
    }

    #[test]
    fn parses_dotted_and_quoted_site_names() {
        let f = parse(r#"litmus x thread { store.rel@dpdk.acquire.store_next 0x10, 1 fence.sc@"2+2w.t0.s1" }"#)
            .unwrap();
        let Item::Thread { stmts, .. } = &f.items[0] else { panic!() };
        let StmtKind::Store { site, .. } = &stmts[0].kind else { panic!() };
        assert_eq!(site.name.as_ref().unwrap().0, "dpdk.acquire.store_next");
        let StmtKind::Fence { site } = &stmts[1].kind else { panic!() };
        assert_eq!(site.name.as_ref().unwrap().0, "2+2w.t0.s1");
    }

    #[test]
    fn strings_are_decoded_when_taken() {
        let f = parse(r#"litmus "a\"b" thread { assert r0 == 0, "x\ty\\" }"#).unwrap();
        assert_eq!(f.name, "a\"b");
        let Item::Thread { stmts, .. } = &f.items[0] else { panic!() };
        let StmtKind::Assert { msg, .. } = &stmts[0].kind else { panic!() };
        assert_eq!(msg.as_deref(), Some("x\ty\\"));
    }

    #[test]
    fn dotted_site_name_across_lines_does_not_panic() {
        // Newlines are whitespace, so a dotted chain may continue on the
        // next line with a column before the name's start; the span must
        // not underflow.
        let f = parse("litmus x thread { store.rel@longsitename\n.b y, 1 }").unwrap();
        let Item::Thread { stmts, .. } = &f.items[0] else { panic!() };
        let StmtKind::Store { site, .. } = &stmts[0].kind else { panic!() };
        assert_eq!(site.name.as_ref().unwrap().0, "longsitename.b");
    }

    #[test]
    fn rejects_bare_register_as_address() {
        let e = parse("litmus x thread { r0 = load.rlx r1 }").unwrap_err();
        assert!(e.message.contains("brackets"), "{e}");
    }

    #[test]
    fn rejects_out_of_range_register() {
        let e = parse("litmus x thread { r32 = mov 1 }").unwrap_err();
        assert!(e.message.contains("out of range"), "{e}");
        assert_eq!((e.span.line, e.span.col), (1, 19));
    }

    #[test]
    fn rejects_count_on_failing_expectation() {
        let e = parse("litmus x expect vmm: safety = 3").unwrap_err();
        assert!(e.message.contains("only apply to 'verified'"), "{e}");
    }

    #[test]
    fn rejects_unknown_mode_with_span() {
        let e = parse("litmus x thread { r0 = load.foo y }").unwrap_err();
        assert!(e.message.contains("unknown barrier mode 'foo'"), "{e}");
        assert_eq!((e.span.line, e.span.col, e.span.len), (1, 29, 3));
    }

    #[test]
    fn rejects_register_location_names() {
        let e = parse("litmus x init { r1 = 0 }").unwrap_err();
        assert!(e.message.contains("reserved for registers"), "{e}");
    }
}
