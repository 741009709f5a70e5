//! Golden tests for DSL diagnostics: malformed inputs must produce
//! *stable* `line:col` messages with their source excerpt, pinned here
//! byte-for-byte (like the `Report::to_json` golden) so error output is
//! a dependable surface for tooling and editors.

/// Compile `src` (labeled `test.litmus`), expect failure, and compare
/// the fully rendered diagnostic.
fn golden(src: &str, expected: &str) {
    let diag = match vsync::dsl::compile(src) {
        Err(d) => d.with_file("test.litmus"),
        Ok(_) => panic!("expected a diagnostic for:\n{src}"),
    };
    let rendered = diag.render();
    assert_eq!(
        rendered, expected,
        "golden mismatch.\n--- actual ---\n{rendered}\n--- expected ---\n{expected}"
    );
}

#[test]
fn unknown_barrier_mode() {
    golden(
        "litmus \"t\"\nthread {\n  r0 = load.foo x\n}\n",
        "error: unknown barrier mode 'foo' (rlx, acq, rel, acq_rel, sc)\n\
         \x20--> test.litmus:3:13\n\
         \x20  3 |   r0 = load.foo x\n\
         \x20    |             ^^^\n",
    );
}

#[test]
fn unbound_label() {
    golden(
        "litmus \"t\"\nthread {\n  jmp out\n}\n",
        "error: unbound label 'out'\n\
         \x20--> test.litmus:3:7\n\
         \x20  3 |   jmp out\n\
         \x20    |       ^^^\n",
    );
}

#[test]
fn duplicate_location() {
    golden(
        "litmus \"t\"\ninit {\n  x = 0\n  x = 1\n}\n",
        "error: location 'x' declared twice\n\
         \x20--> test.litmus:4:3\n\
         \x20  4 |   x = 1\n\
         \x20    |   ^\n",
    );
}

#[test]
fn bad_expect_verdict() {
    golden(
        "litmus \"t\"\nthread {\n  nop\n}\nexpect vmm: maybe\n",
        "error: unknown expected verdict 'maybe' (verified, safety, await-termination, fault)\n\
         \x20--> test.litmus:5:13\n\
         \x20  5 | expect vmm: maybe\n\
         \x20    |             ^^^^^\n",
    );
}

#[test]
fn bad_expect_model() {
    golden(
        "litmus \"t\"\nexpect arm: verified\n",
        "error: unknown memory model 'arm' (sc, tso, vmm)\n\
         \x20--> test.litmus:2:8\n\
         \x20  2 | expect arm: verified\n\
         \x20    |        ^^^\n",
    );
}

#[test]
fn register_out_of_range() {
    golden(
        "litmus \"t\"\nthread {\n  r32 = mov 1\n}\n",
        "error: register 'r32' out of range (r0..r31)\n\
         \x20--> test.litmus:3:3\n\
         \x20  3 |   r32 = mov 1\n\
         \x20    |   ^^^\n",
    );
}

#[test]
fn mode_invalid_for_site_kind() {
    golden(
        "litmus \"t\"\nthread {\n  store.acq x, 1\n}\n",
        "error: mode 'acq' is invalid for a store site\n\
         \x20--> test.litmus:3:9\n\
         \x20  3 |   store.acq x, 1\n\
         \x20    |         ^^^\n",
    );
}

#[test]
fn count_on_failing_expectation() {
    golden(
        "litmus \"t\"\nexpect vmm: safety = 3\n",
        "error: execution counts only apply to 'verified' expectations, not 'safety'\n\
         \x20--> test.litmus:2:22\n\
         \x20  2 | expect vmm: safety = 3\n\
         \x20    |                      ^\n",
    );
}

#[test]
fn shared_site_mode_conflict() {
    golden(
        "litmus \"t\"\nthread {\n  store.rel@s x, 1\n}\nthread {\n  store.rlx@s x, 1\n}\n",
        "error: site 's' reuses a name with a different mode (rel vs rlx)\n\
         \x20--> test.litmus:6:13\n\
         \x20  6 |   store.rlx@s x, 1\n\
         \x20    |             ^\n",
    );
}

#[test]
fn bare_register_as_address() {
    golden(
        "litmus \"t\"\nthread {\n  r0 = load.rlx r1\n}\n",
        "error: register-indirect addresses use brackets: [r1] or [r1 + off]\n\
         \x20--> test.litmus:3:17\n\
         \x20  3 |   r0 = load.rlx r1\n\
         \x20    |                 ^^\n",
    );
}

#[test]
fn register_rhs_in_final_check() {
    golden(
        "litmus \"t\"\nthread {\n  store.rlx x, 1\n}\nfinal {\n  x == r1\n}\n",
        "error: final-state checks compare memory against immediates; registers have no value in the final state\n\
         \x20--> test.litmus:6:8\n\
         \x20  6 |   x == r1\n\
         \x20    |        ^^\n",
    );
}

#[test]
fn register_mask_in_final_check() {
    golden(
        "litmus \"t\"\nthread {\n  store.rlx x, 1\n}\nfinal {\n  x & r2 == 1\n}\n",
        "error: final-state check masks must be immediates; registers have no value in the final state\n\
         \x20--> test.litmus:6:7\n\
         \x20  6 |   x & r2 == 1\n\
         \x20    |       ^^\n",
    );
}

// ---- lexer errors ----------------------------------------------------
//
// Columns count characters, not bytes, and excerpts never carry a line
// ending; these renderings were taken from the `Vec<char>` lexer the
// byte-level one replaced.

#[test]
fn unexpected_ascii_character() {
    golden(
        "litmus \"t\"\nthread {\n  r0 = mov $\n}\n",
        "error: unexpected character '$'\n\
         \x20--> test.litmus:3:12\n\
         \x20  3 |   r0 = mov $\n\
         \x20    |            ^\n",
    );
}

#[test]
fn unexpected_character_after_non_ascii_string() {
    golden(
        "litmus \"t\"\nthread {\n  assert r0 == 0, \"é→\" λ\n}\n",
        "error: unexpected character 'λ'\n\
         \x20--> test.litmus:3:24\n\
         \x20  3 |   assert r0 == 0, \"é→\" λ\n\
         \x20    |                        ^\n",
    );
}

#[test]
fn unterminated_string() {
    golden(
        "litmus \"t\"\nthread {\n  assert r0 == 0, \"oops\n}\n",
        "error: unterminated string literal\n\
         \x20--> test.litmus:3:19\n\
         \x20  3 |   assert r0 == 0, \"oops\n\
         \x20    |                   ^^^^^\n",
    );
}

#[test]
fn unknown_string_escape() {
    golden(
        "litmus \"t\"\nthread {\n  assert r0 == 0, \"a\\qb\"\n}\n",
        "error: unknown escape '\\q' in string\n\
         \x20--> test.litmus:3:21\n\
         \x20  3 |   assert r0 == 0, \"a\\qb\"\n\
         \x20    |                     ^^\n",
    );
}

#[test]
fn invalid_hex_literal() {
    golden(
        "litmus \"t\"\ninit {\n  x = 0xzz\n}\n",
        "error: invalid integer literal '0xzz'\n\
         \x20--> test.litmus:3:7\n\
         \x20  3 |   x = 0xzz\n\
         \x20    |       ^^^^\n",
    );
}

#[test]
fn overflowing_literal() {
    golden(
        "litmus \"t\"\ninit {\n  x = 18446744073709551616\n}\n",
        "error: invalid integer literal '18446744073709551616'\n\
         \x20--> test.litmus:3:7\n\
         \x20  3 |   x = 18446744073709551616\n\
         \x20    |       ^^^^^^^^^^^^^^^^^^^^\n",
    );
}

#[test]
fn literal_with_trailing_letters() {
    golden(
        "litmus \"t\"\nthread {\n  r0 = mov 1abc\n}\n",
        "error: invalid integer literal '1abc'\n\
         \x20--> test.litmus:3:12\n\
         \x20  3 |   r0 = mov 1abc\n\
         \x20    |            ^^^^\n",
    );
}

#[test]
fn digit_separators_and_unicode_spaces_are_accepted() {
    let t = vsync::dsl::compile(
        "litmus \"t\"\ninit {\n\u{a0}x = 1_000\n}\nthread {\n  r0 = load.rlx x\n}\n",
    )
    .unwrap();
    assert_eq!(t.program.init().get(&0x10), Some(&1000));
    // Each U+00A0 is one column, though two bytes.
    golden(
        "litmus \"t\"\ninit {\n\u{a0}\u{a0}x = 1_000 $\n}\n",
        "error: unexpected character '$'\n\
         \x20--> test.litmus:3:13\n\
         \x20  3 | \u{a0}\u{a0}x = 1_000 $\n\
         \x20    |             ^\n",
    );
}

#[test]
fn crlf_lines_render_without_carriage_returns() {
    golden(
        "litmus \"t\"\r\nthread {\r\n  r0 = load.foo x\r\n}\r\n",
        "error: unknown barrier mode 'foo' (rlx, acq, rel, acq_rel, sc)\n\
         \x20--> test.litmus:3:13\n\
         \x20  3 |   r0 = load.foo x\n\
         \x20    |             ^^^\n",
    );
}

#[test]
fn end_of_input_without_trailing_newline() {
    golden(
        "litmus \"t\"\nthread {\n  nop",
        "error: expected a statement, found end of input\n\
         \x20--> test.litmus:3:6\n\
         \x20  3 |   nop\n\
         \x20    |      ^\n",
    );
}

// ---- mutation robustness ---------------------------------------------

/// SplitMix64, as in `tests/proptests.rs`: every case is reproducible
/// from its printed index.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// What mutations insert: the lexer's delimiters and escapes, digits and
/// separators, line endings, and multi-byte characters (whitespace and
/// not).
const PALETTE: &[char] = &[
    '"', '\\', '#', '/', '0', '7', '9', '_', 'x', '\r', '\n', ' ', '.', '@', '{', '}', '=', '$',
    'é', 'λ', '→', '\u{a0}', '\u{2028}', '\u{1F600}',
];

/// `src` with one to four random character insertions, deletions or
/// replacements (always on character boundaries, so the text stays
/// UTF-8).
fn mutate(src: &str, rng: &mut Rng) -> String {
    let mut chars: Vec<char> = src.chars().collect();
    for _ in 0..1 + rng.below(4) {
        let at = rng.below(chars.len() + 1);
        let c = PALETTE[rng.below(PALETTE.len())];
        match rng.below(3) {
            0 => chars.insert(at, c),
            1 if at < chars.len() => {
                chars.remove(at);
            }
            _ if at < chars.len() => chars[at] = c,
            _ => chars.push(c),
        }
    }
    chars.into_iter().collect()
}

/// Mutated corpus files never panic the front end, and every diagnostic
/// points inside the input: its line exists (or is line 1 of an empty
/// file), its columns stay within the line plus the end-of-line column,
/// and its excerpt is exactly that line.
#[test]
fn mutated_corpus_files_get_diagnostics_inside_the_input() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let mut files: Vec<(String, String)> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "litmus"))
        .map(|p| (p.display().to_string(), std::fs::read_to_string(&p).unwrap()))
        .collect();
    files.sort();
    assert!(files.len() >= 29, "only {} corpus files", files.len());
    let mut errors = 0;
    for case in 0..2400u64 {
        let mut rng = Rng(case.wrapping_mul(0x5851f42d4c957f2d).wrapping_add(0x14057b7ef767814f));
        let (path, original) = &files[rng.below(files.len())];
        let src = mutate(original, &mut rng);
        let what = || format!("case {case} (mutated {path}):\n{src}");
        let result = std::panic::catch_unwind(|| vsync::dsl::compile(&src))
            .unwrap_or_else(|_| panic!("compile panicked on {}", what()));
        let Err(d) = result else { continue };
        errors += 1;
        let line_count = src.lines().count().max(1);
        let line = src.lines().nth(d.span.line.saturating_sub(1) as usize).unwrap_or("");
        let width = line.chars().count() as u32 + 1;
        assert!(
            (1..=line_count as u32).contains(&d.span.line)
                && d.span.col >= 1
                && d.span.col + d.span.len.max(1) - 1 <= width,
            "span {:?} outside the input for {}\n{d}",
            d.span,
            what()
        );
        assert_eq!(d.source_line, line, "excerpt is not line {} for {}", d.span.line, what());
    }
    assert!(errors >= 1000, "only {errors} of 2400 mutants were rejected");
}

#[test]
fn diagnostic_display_matches_render() {
    let d = vsync::dsl::compile("litmus \"t\"\nthread {\n  jmp out\n}\n").unwrap_err();
    assert_eq!(d.to_string(), d.render().trim_end());
    assert!(d.file.is_none(), "no file attached until with_file");
}
