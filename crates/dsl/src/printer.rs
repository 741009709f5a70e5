//! Pretty-printing: canonical formatting of parsed files and DSL
//! emission for in-memory [`Program`]s.
//!
//! Two levels share one rendering core:
//!
//! * [`format_file`] / [`format_source`] — canonicalize a *parsed* file,
//!   preserving location names, labels, thread templates, integer bases
//!   and (full-line) comments. `vsync fmt` and the corpus `--check` CI
//!   job are built on this; the output is a fixpoint
//!   (`format ∘ parse ∘ format = format`).
//! * [`print_program`] / [`print_test`] — emit DSL text from a lowered
//!   [`Program`], with raw addresses, synthesized `L<pc>` labels and
//!   explicit site names. Re-parsing the output reproduces the program
//!   structurally (`parse ∘ print = id`, the round-trip property).

use vsync_lang::{Addr, Cmp, Instr, ModeRef, Operand, Program, Test};

use crate::ast::{
    AddrAst, Expectation, FinalCheckAst, IntLit, Item, LocDecl, LocName, OperandAst, RhsAst,
    SiteAst, SourceFile, Stmt, StmtKind, TestAst,
};
use crate::diag::{Diagnostic, Span};
use crate::lower::LitmusTest;
use crate::parser::{alu_name, parse};

/// Parse and canonically reformat a litmus source file.
///
/// # Errors
///
/// Returns the parse error for malformed input.
pub fn format_source(src: &str) -> Result<String, Diagnostic> {
    Ok(format_file(&parse(src)?))
}

/// Canonically format a parsed file (see the module docs).
#[must_use]
pub fn format_file(file: &SourceFile) -> String {
    let mut out = String::new();
    let mut comments = file.comments.iter().peekable();
    let mut flush = |out: &mut String, before: u32, indent: &str| {
        while let Some(c) = comments.peek() {
            if before != 0 && c.line >= before {
                break;
            }
            out.push_str(indent);
            let text = c.text(&file.source);
            if text.is_empty() {
                out.push_str("#\n");
            } else {
                out.push_str(&format!("# {text}\n"));
            }
            comments.next();
        }
    };
    flush(&mut out, file.header_line.max(1), "");
    out.push_str(&format!("litmus {}\n", quote(&file.name)));
    let mut prev_expect = false;
    for item in &file.items {
        let line = item.line();
        let is_expect = matches!(item, Item::Expect { .. });
        let mut chunk = String::new();
        flush(&mut chunk, line, "");
        let had_comments = !chunk.is_empty();
        if !(prev_expect && is_expect && !had_comments) {
            out.push('\n');
        }
        out.push_str(&chunk);
        prev_expect = is_expect;
        match item {
            Item::Init { decls, .. } => {
                out.push_str("init {\n");
                for d in decls {
                    flush(&mut out, d.line, "  ");
                    out.push_str(&format!("  {}\n", fmt_loc_decl(d)));
                }
                out.push_str("}\n");
            }
            Item::Thread { count, stmts, .. } => {
                match count {
                    Some((n, _)) => out.push_str(&format!("thread[{n}] {{\n")),
                    None => out.push_str("thread {\n"),
                }
                for s in stmts {
                    flush(&mut out, s.line, "  ");
                    out.push_str(&format!("  {}\n", fmt_stmt(&s.kind)));
                }
                out.push_str("}\n");
            }
            Item::Final { checks, .. } => {
                out.push_str("final {\n");
                for c in checks {
                    flush(&mut out, c.line, "  ");
                    out.push_str(&format!("  {}\n", fmt_final_check(c)));
                }
                out.push_str("}\n");
            }
            Item::Expect { model, verdict, executions, .. } => {
                let model = model.to_string().to_ascii_lowercase();
                match executions {
                    Some(n) => out.push_str(&format!("expect {model}: {verdict} = {n}\n")),
                    None => out.push_str(&format!("expect {model}: {verdict}\n")),
                }
            }
            Item::Symmetry { groups, .. } => {
                out.push_str("symmetry");
                for g in groups {
                    out.push_str(" {");
                    for (i, _) in g {
                        out.push_str(&format!(" {i}"));
                    }
                    out.push_str(" }");
                }
                out.push('\n');
            }
        }
    }
    let mut tail = String::new();
    flush(&mut tail, 0, "");
    if !tail.is_empty() {
        out.push('\n');
        out.push_str(&tail);
    }
    out
}

/// Emit DSL text for a compiled test (program + expectations).
#[must_use]
pub fn print_test(test: &LitmusTest) -> String {
    format_file(&program_to_ast(&test.program, &test.expectations))
}

/// Emit DSL text for a program (no expectations). Re-parsing the output
/// reproduces the program structurally — see the module docs.
#[must_use]
pub fn print_program(program: &Program) -> String {
    format_file(&program_to_ast(program, &[]))
}

// ---- rendering helpers ------------------------------------------------

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn is_ident(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        && s != "if"
        && s != "until"
}

/// Is `s` printable as a bare (possibly dotted) site name?
fn is_dotted_ident(s: &str) -> bool {
    !s.is_empty() && s.split('.').all(is_ident)
}

fn fmt_loc_decl(d: &LocDecl) -> String {
    match &d.name {
        LocName::Named(n, _) => {
            let mut s = n.clone();
            if let Some(a) = d.addr {
                s.push_str(&format!(" @ {a}"));
            }
            if let Some(v) = d.init {
                s.push_str(&format!(" = {v}"));
            }
            s
        }
        LocName::Addr(a, _) => {
            format!("{a} = {}", d.init.unwrap_or(IntLit::dec(0)))
        }
    }
}

fn fmt_site(site: &SiteAst) -> String {
    let mut s = format!(".{}", site.mode);
    if site.fixed {
        s.push('!');
    }
    if let Some((name, _)) = &site.name {
        s.push('@');
        if is_dotted_ident(name) {
            s.push_str(name);
        } else {
            s.push_str(&quote(name));
        }
    }
    s
}

fn fmt_operand(o: &OperandAst) -> String {
    match o {
        OperandAst::Reg(r, _) => format!("r{r}"),
        OperandAst::Lit(l, _) => l.to_string(),
        OperandAst::Name(n, _) => n.clone(),
    }
}

fn fmt_addr(a: &AddrAst) -> String {
    match a {
        AddrAst::Name { name, offset: None, .. } => name.clone(),
        AddrAst::Name { name, offset: Some(o), .. } => format!("{name} + {o}"),
        AddrAst::Lit(l, _) => l.to_string(),
        AddrAst::Reg { reg, offset: None, .. } => format!("[r{reg}]"),
        AddrAst::Reg { reg, offset: Some(o), .. } => format!("[r{reg} + {o}]"),
    }
}

fn fmt_test(t: &TestAst) -> String {
    match &t.mask {
        Some(m) => format!("& {} {} {}", fmt_operand(m), t.cmp, fmt_operand(&t.rhs)),
        None => format!("{} {}", t.cmp, fmt_operand(&t.rhs)),
    }
}

fn fmt_final_check(c: &FinalCheckAst) -> String {
    let mut s = format!("{} {}", fmt_addr(&c.loc), fmt_test(&c.test));
    if let Some(m) = &c.msg {
        s.push_str(&format!(" : {}", quote(m)));
    }
    s
}

fn fmt_stmt(kind: &StmtKind) -> String {
    match kind {
        StmtKind::Label(name, _) => format!("{name}:"),
        StmtKind::Store { site, addr, src } => {
            format!("store{} {}, {}", fmt_site(site), fmt_addr(addr), fmt_operand(src))
        }
        StmtKind::Fence { site } => format!("fence{}", fmt_site(site)),
        StmtKind::Jmp { target: (name, _), cond } => match cond {
            None => format!("jmp {name}"),
            Some((src, test)) => format!("jmp {name} if {} {}", fmt_operand(src), fmt_test(test)),
        },
        StmtKind::Assert { src, test, msg } => {
            let mut s = format!("assert {} {}", fmt_operand(src), fmt_test(test));
            if let Some(m) = msg {
                s.push_str(&format!(", {}", quote(m)));
            }
            s
        }
        StmtKind::Nop => "nop".to_owned(),
        StmtKind::Assign { dst: (dst, _), rhs } => {
            let rhs = match rhs {
                RhsAst::Load { site, addr } => format!("load{} {}", fmt_site(site), fmt_addr(addr)),
                RhsAst::Rmw { op, site, addr, operand } => format!(
                    "rmw.{op}{} {}, {}",
                    fmt_site(site),
                    fmt_addr(addr),
                    fmt_operand(operand)
                ),
                RhsAst::Cas { site, addr, expected, new } => format!(
                    "cas{} {}, {}, {}",
                    fmt_site(site),
                    fmt_addr(addr),
                    fmt_operand(expected),
                    fmt_operand(new)
                ),
                // Unmasked equality awaits print as the `await_eq` /
                // `await_neq` sugar — the canonical (and more readable)
                // spelling; parsing either form yields the same program.
                RhsAst::AwaitLoad { site, addr, until: TestAst { mask: None, cmp: Cmp::Eq, rhs } } => {
                    format!("await_eq{} {}, {}", fmt_site(site), fmt_addr(addr), fmt_operand(rhs))
                }
                RhsAst::AwaitLoad { site, addr, until: TestAst { mask: None, cmp: Cmp::Ne, rhs } } => {
                    format!("await_neq{} {}, {}", fmt_site(site), fmt_addr(addr), fmt_operand(rhs))
                }
                RhsAst::AwaitLoad { site, addr, until } => format!(
                    "await_load{} {} until {}",
                    fmt_site(site),
                    fmt_addr(addr),
                    fmt_test(until)
                ),
                RhsAst::AwaitRmw { op, site, addr, operand, until } => format!(
                    "await_rmw.{op}{} {}, {} until {}",
                    fmt_site(site),
                    fmt_addr(addr),
                    fmt_operand(operand),
                    fmt_test(until)
                ),
                RhsAst::AwaitCas { site, addr, expected, new } => format!(
                    "await_cas{} {}, {}, {}",
                    fmt_site(site),
                    fmt_addr(addr),
                    fmt_operand(expected),
                    fmt_operand(new)
                ),
                RhsAst::Mov { src } => format!("mov {}", fmt_operand(src)),
                RhsAst::Alu { op, a, b } => {
                    format!("{} {}, {}", alu_name(*op), fmt_operand(a), fmt_operand(b))
                }
            };
            format!("r{dst} = {rhs}")
        }
    }
}

// ---- Program → AST ----------------------------------------------------

const DUMMY: Span = Span { line: 0, col: 0, len: 0 };

/// Rebuild an AST from a lowered program (raw addresses, synthesized
/// labels, explicit site names) plus expectation annotations.
#[must_use]
pub fn program_to_ast(program: &Program, expectations: &[Expectation]) -> SourceFile {
    let mut items = Vec::new();
    if !program.init().is_empty() {
        let decls = program
            .init()
            .iter()
            .map(|(&loc, &val)| LocDecl {
                name: LocName::Addr(IntLit::hex(loc), DUMMY),
                addr: None,
                init: Some(IntLit::dec(val)),
                line: 0,
            })
            .collect();
        items.push(Item::Init { decls, line: 0 });
    }
    for t in 0..program.num_threads() as u32 {
        items.push(Item::Thread {
            count: None,
            stmts: thread_to_stmts(program, t),
            line: 0,
        });
    }
    if !program.final_checks().is_empty() {
        let checks = program
            .final_checks()
            .iter()
            .map(|c| FinalCheckAst {
                loc: AddrAst::Lit(IntLit::hex(c.loc), DUMMY),
                test: test_to_ast(&c.test),
                msg: Some(c.msg.clone()),
                line: 0,
            })
            .collect();
        items.push(Item::Final { checks, line: 0 });
    }
    if let Some(declared) = program.declared_symmetry() {
        // Only emit an explicit section when the declaration says more
        // than template detection would rediscover at parse time.
        let mut undeclared = program.clone();
        undeclared.clear_symmetry();
        if &undeclared.symmetry_partition() != declared {
            // `ThreadPartition::groups` drops singletons; the section
            // must mention every thread, so rebuild the full classes.
            let mut groups: Vec<Vec<(u64, Span)>> = Vec::new();
            for t in 0..program.num_threads() as u32 {
                match groups.iter_mut().find(|g| declared.same_class(g[0].0 as u32, t)) {
                    Some(g) => g.push((t as u64, DUMMY)),
                    None => groups.push(vec![(t as u64, DUMMY)]),
                }
            }
            items.push(Item::Symmetry { groups, line: 0 });
        }
    }
    for e in expectations {
        items.push(Item::Expect {
            model: e.model,
            model_span: DUMMY,
            verdict: e.verdict,
            executions: e.executions,
            line: 0,
        });
    }
    SourceFile {
        name: program.name().to_owned(),
        name_span: DUMMY,
        items,
        header_line: 0,
        comments: Vec::new(),
        source: String::new(),
    }
}

fn site_to_ast(program: &Program, r: ModeRef) -> SiteAst {
    let site = &program.sites()[r.0 as usize];
    SiteAst {
        mode: site.mode,
        mode_span: DUMMY,
        fixed: !site.relaxable,
        name: Some((site.name.clone(), DUMMY)),
    }
}

fn addr_to_ast(a: &Addr) -> AddrAst {
    match a {
        Addr::Imm(v) => AddrAst::Lit(IntLit::hex(*v), DUMMY),
        Addr::Reg(r) => AddrAst::Reg { reg: r.0, offset: None, span: DUMMY },
        Addr::RegOff(r, o) => AddrAst::Reg { reg: r.0, offset: Some(IntLit::hex(*o)), span: DUMMY },
    }
}

fn operand_to_ast(o: &Operand) -> OperandAst {
    match o {
        Operand::Reg(r) => OperandAst::Reg(r.0, DUMMY),
        Operand::Imm(v) => OperandAst::Lit(IntLit::dec(*v), DUMMY),
    }
}

fn test_to_ast(t: &Test) -> TestAst {
    TestAst {
        mask: t.mask.as_ref().map(operand_to_ast),
        cmp: t.cmp,
        rhs: operand_to_ast(&t.rhs),
    }
}

fn thread_to_stmts(program: &Program, thread: u32) -> Vec<Stmt> {
    let code = program.thread_code(thread);
    let mut targets: Vec<usize> = code
        .iter()
        .filter_map(|i| match i {
            Instr::Jmp { target } | Instr::JmpIf { target, .. } => Some(*target),
            _ => None,
        })
        .collect();
    targets.sort_unstable();
    targets.dedup();
    let label = |pc: usize| format!("L{pc}");
    let mut stmts = Vec::new();
    for (pc, instr) in code.iter().enumerate() {
        if targets.contains(&pc) {
            stmts.push(Stmt { kind: StmtKind::Label(label(pc), DUMMY), line: 0 });
        }
        let kind = match instr {
            Instr::Load { dst, addr, mode } => StmtKind::Assign {
                dst: (dst.0, DUMMY),
                rhs: RhsAst::Load { site: site_to_ast(program, *mode), addr: addr_to_ast(addr) },
            },
            Instr::Store { addr, src, mode } => StmtKind::Store {
                site: site_to_ast(program, *mode),
                addr: addr_to_ast(addr),
                src: operand_to_ast(src),
            },
            Instr::Rmw { dst, addr, op, operand, mode } => StmtKind::Assign {
                dst: (dst.0, DUMMY),
                rhs: RhsAst::Rmw {
                    op: *op,
                    site: site_to_ast(program, *mode),
                    addr: addr_to_ast(addr),
                    operand: operand_to_ast(operand),
                },
            },
            Instr::Cas { dst, addr, expected, new, mode } => StmtKind::Assign {
                dst: (dst.0, DUMMY),
                rhs: RhsAst::Cas {
                    site: site_to_ast(program, *mode),
                    addr: addr_to_ast(addr),
                    expected: operand_to_ast(expected),
                    new: operand_to_ast(new),
                },
            },
            Instr::Fence { mode } => StmtKind::Fence { site: site_to_ast(program, *mode) },
            Instr::AwaitLoad { dst, addr, until, mode } => StmtKind::Assign {
                dst: (dst.0, DUMMY),
                rhs: RhsAst::AwaitLoad {
                    site: site_to_ast(program, *mode),
                    addr: addr_to_ast(addr),
                    until: test_to_ast(until),
                },
            },
            Instr::AwaitRmw { dst, addr, until, op, operand, mode } => StmtKind::Assign {
                dst: (dst.0, DUMMY),
                rhs: RhsAst::AwaitRmw {
                    op: *op,
                    site: site_to_ast(program, *mode),
                    addr: addr_to_ast(addr),
                    operand: operand_to_ast(operand),
                    until: test_to_ast(until),
                },
            },
            Instr::AwaitCas { dst, addr, expected, new, mode } => StmtKind::Assign {
                dst: (dst.0, DUMMY),
                rhs: RhsAst::AwaitCas {
                    site: site_to_ast(program, *mode),
                    addr: addr_to_ast(addr),
                    expected: operand_to_ast(expected),
                    new: operand_to_ast(new),
                },
            },
            Instr::Mov { dst, src } => StmtKind::Assign {
                dst: (dst.0, DUMMY),
                rhs: RhsAst::Mov { src: operand_to_ast(src) },
            },
            Instr::Op { dst, op, a, b } => StmtKind::Assign {
                dst: (dst.0, DUMMY),
                rhs: RhsAst::Alu { op: *op, a: operand_to_ast(a), b: operand_to_ast(b) },
            },
            Instr::Jmp { target } => {
                StmtKind::Jmp { target: (label(*target), DUMMY), cond: None }
            }
            Instr::JmpIf { src, test, target } => StmtKind::Jmp {
                target: (label(*target), DUMMY),
                cond: Some((operand_to_ast(src), test_to_ast(test))),
            },
            Instr::Assert { src, test, msg } => StmtKind::Assert {
                src: operand_to_ast(src),
                test: test_to_ast(test),
                msg: Some(msg.clone()),
            },
            Instr::Nop => StmtKind::Nop,
        };
        stmts.push(Stmt { kind, line: 0 });
    }
    if targets.contains(&code.len()) {
        stmts.push(Stmt { kind: StmtKind::Label(label(code.len()), DUMMY), line: 0 });
    }
    stmts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::compile;
    use vsync_graph::Mode;
    use vsync_lang::{ProgramBuilder, Reg};

    #[test]
    fn format_is_idempotent() {
        let src = r#"
            # Store buffering.
            litmus "sb"
            init { x = 0  y @ 0x20 = 0 }
            thread { store.rlx x, 1
              # read the other location
              r0 = load.rlx y }
            expect sc: verified = 3
            expect vmm: verified = 4
        "#;
        let once = format_source(src).unwrap();
        let twice = format_source(&once).unwrap();
        assert_eq!(once, twice, "formatting must be a fixpoint:\n{once}");
        assert!(once.contains("# Store buffering."));
        assert!(once.contains("# read the other location"));
        assert!(once.contains("y @ 0x20 = 0"));
    }

    #[test]
    fn print_round_trips_a_builder_program() {
        let mut pb = ProgramBuilder::new("handshake");
        pb.init(0x10, 0);
        pb.thread(|t| {
            t.store(0x10, 1u64, ("sig", Mode::Rel));
        });
        pb.thread(|t| {
            t.await_eq(Reg(0), 0x10, 1u64, Mode::Acq);
        });
        let p = pb.build().unwrap();
        let text = print_program(&p);
        let p2 = compile(&text).unwrap().program;
        assert_eq!(p, p2, "round-trip changed the program:\n{text}");
    }

    #[test]
    fn print_synthesizes_labels() {
        let mut pb = ProgramBuilder::new("loop");
        pb.thread(|t| {
            let top = t.here_label();
            let out = t.label();
            t.load(Reg(0), 0x10, Mode::Rlx);
            t.jmp_if(Reg(0), vsync_lang::Test::eq(1u64), out);
            t.jmp(top);
            t.bind(out);
        });
        let p = pb.build().unwrap();
        let text = print_program(&p);
        assert!(text.contains("L0:"), "{text}");
        assert!(text.contains("L3:"), "{text}");
        assert!(text.contains("jmp L3 if r0 == 1"), "{text}");
        let p2 = compile(&text).unwrap().program;
        assert_eq!(p, p2);
    }

    #[test]
    fn print_quotes_unprintable_site_names() {
        let mut pb = ProgramBuilder::new("2+2w");
        pb.thread(|t| {
            t.store(0x10, 1u64, Mode::Rlx);
        });
        let p = pb.build().unwrap();
        let text = print_program(&p);
        assert!(text.contains("store.rlx@\"2+2w.t0.s0\""), "{text}");
        let p2 = compile(&text).unwrap().program;
        assert_eq!(p, p2);
    }

    #[test]
    fn stale_declarations_survive_via_symmetry_section() {
        // Builder detects {0,1} symmetric; relaxing one site splits the
        // detected partition while the declaration stays coarse. The
        // printed file must carry the declaration explicitly.
        let mut pb = ProgramBuilder::new("sym");
        for _ in 0..2 {
            pb.thread(|t| {
                t.store(0x10, 1u64, Mode::Rel);
            });
        }
        let mut p = pb.build().unwrap();
        p.set_mode(vsync_lang::ModeRef(1), Mode::Rlx);
        let text = print_program(&p);
        assert!(text.contains("symmetry { 0 1 }"), "{text}");
        let p2 = compile(&text).unwrap().program;
        assert_eq!(p, p2);
    }
}
