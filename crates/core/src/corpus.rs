//! Litmus-file checking and the batch corpus runner.
//!
//! One `.litmus` file becomes one [`FileReport`]: the file is compiled
//! (parse errors become the report), then explored once per model in its
//! matrix — the `--models` override, else the models its `expect`
//! annotations mention, else all of [`ModelKind::all`] — and each
//! outcome is judged against the annotation ([`ModelOutcome::ok`]):
//! the verdict kind must match, and an `= N` execution count must match
//! exactly whenever symmetry reduction is on (counts are canonical-orbit
//! counts; with `--no-symmetry` they deliberately aren't checked).
//! Unannotated models must verify.
//!
//! [`run_corpus`] batches a directory of files over a worker pool,
//! sharing one [`CancelToken`] and one wall-clock budget: every
//! per-file session gets the *remaining* budget as its deadline, so a
//! stuck file cannot starve the rest of the corpus beyond the global
//! deadline. The runner is fault-isolated: a panic while checking one
//! file is caught and turns into [`FileOutcome::Quarantined`] without
//! touching any other file's verdict.
//! Reports render as a per-file verdict table
//! ([`CorpusReport::render_table`]) or dependency-free JSON with stable
//! key order ([`CorpusReport::to_json`]).

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use vsync_dsl::{Diagnostic, Expectation, ExpectedVerdict, LitmusTest, Span};
use vsync_model::ModelKind;

use crate::json::Json;
use crate::session::{phases_json, verdict_kind, Session};
use crate::telemetry::{EventBus, EventFn, EventKind, PhaseProfile};
use crate::verdict::{EngineError, EngineErrorKind, EnginePhase, Verdict};
use crate::{failpoint, CancelToken};

/// Failure to load a litmus file: I/O or parse.
#[derive(Debug)]
pub enum SourceError {
    /// The file could not be read.
    Io(String, io::Error),
    /// The file could not be parsed or lowered.
    Parse(Diagnostic),
}

impl fmt::Display for SourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceError::Io(path, e) => write!(f, "cannot read {path}: {e}"),
            SourceError::Parse(d) => d.fmt(f),
        }
    }
}

impl std::error::Error for SourceError {}

/// Options shared by [`check_source`] and [`run_corpus`].
#[derive(Clone, Default)]
pub struct CorpusOptions {
    /// Model matrix override. `None` = each file's annotated models
    /// (falling back to [`ModelKind::all`] for unannotated files).
    pub models: Option<Vec<ModelKind>>,
    /// Exploration workers per session (0 and 1 both mean one).
    pub workers: usize,
    /// Concurrently-checked files in [`run_corpus`] (0 and 1 both mean
    /// one at a time).
    pub jobs: usize,
    /// Disable thread-symmetry reduction (also disables `= N` execution
    /// count checks — annotated counts are canonical-orbit counts).
    pub no_symmetry: bool,
    /// Wall-clock budget for the whole run (all files together).
    pub deadline: Option<Duration>,
    /// Cooperative cancellation, shared by every per-file session.
    pub cancel: CancelToken,
    /// Approximate per-exploration heap budget in bytes (0 = unlimited).
    pub max_memory_bytes: u64,
    /// Telemetry sink forwarded to every session (CLI `--trace`,
    /// `--progress`). One [`run_corpus`] run shares a single event bus —
    /// one sequence counter, clock and session numbering — across all
    /// files; corpus-level [`EventKind::CorpusFile`] /
    /// [`EventKind::Quarantine`] events flow through the same stream as
    /// session 0.
    pub on_event: Option<EventFn>,
    /// Per-phase wall-clock profiling for every session.
    pub profile: bool,
}

impl fmt::Debug for CorpusOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CorpusOptions")
            .field("models", &self.models)
            .field("workers", &self.workers)
            .field("jobs", &self.jobs)
            .field("no_symmetry", &self.no_symmetry)
            .field("deadline", &self.deadline)
            .field("on_event", &self.on_event.is_some())
            .field("profile", &self.profile)
            .finish()
    }
}

/// The checked outcome of one (file, model) pair.
#[derive(Debug, Clone)]
pub struct ModelOutcome {
    /// The memory model explored.
    pub model: ModelKind,
    /// The file's annotation for this model, if any.
    pub expected: Option<Expectation>,
    /// The verdict the explorer produced.
    pub verdict: Verdict,
    /// Complete executions (canonical-orbit counts under symmetry).
    pub executions: u64,
    /// Work items pruned by thread-symmetry reduction.
    pub symmetry_pruned: u64,
    /// Exploration wall-clock time.
    pub elapsed: Duration,
    /// Per-phase wall-clock attribution (all-zero unless
    /// [`CorpusOptions::profile`] was set).
    pub phases: PhaseProfile,
    /// Did the outcome meet the expectation (see the module docs)?
    pub ok: bool,
}

/// Per-file result: a parse/load error, a quarantined engine panic, or
/// one outcome per model.
#[derive(Debug, Clone)]
pub enum FileOutcome {
    /// The file failed to load or compile.
    Error(Diagnostic),
    /// Checking this file panicked inside the engine; the panic was
    /// caught and the file quarantined so the rest of the corpus could
    /// finish normally.
    Quarantined(EngineError),
    /// The file was checked against its model matrix.
    Checked(Vec<ModelOutcome>),
}

/// The report for one litmus file.
#[derive(Debug, Clone)]
pub struct FileReport {
    /// Path (or label) the file was loaded from.
    pub path: String,
    /// Program name from the file header (empty on parse errors).
    pub program: String,
    /// What happened.
    pub outcome: FileOutcome,
}

impl FileReport {
    /// Did every model outcome meet its expectation?
    #[must_use]
    pub fn passed(&self) -> bool {
        match &self.outcome {
            FileOutcome::Error(_) | FileOutcome::Quarantined(_) => false,
            FileOutcome::Checked(models) => models.iter().all(|m| m.ok),
        }
    }

    /// Was any run in this file cut short by cancellation, a deadline or
    /// a resource budget?
    #[must_use]
    pub fn interrupted(&self) -> bool {
        match &self.outcome {
            FileOutcome::Error(_) | FileOutcome::Quarantined(_) => false,
            FileOutcome::Checked(models) => {
                models.iter().any(|m| matches!(m.verdict, Verdict::Inconclusive(_)))
            }
        }
    }

    /// Did checking this file die to a caught engine panic — either the
    /// whole file ([`FileOutcome::Quarantined`]) or a single model run
    /// ([`Verdict::Error`])?
    #[must_use]
    pub fn errored(&self) -> bool {
        match &self.outcome {
            FileOutcome::Error(_) => false,
            FileOutcome::Quarantined(_) => true,
            FileOutcome::Checked(models) => {
                models.iter().any(|m| matches!(m.verdict, Verdict::Error(_)))
            }
        }
    }
}

/// The batch report of a corpus run.
#[derive(Debug, Clone)]
#[must_use = "a CorpusReport carries the per-file verdicts — inspect or serialize it"]
pub struct CorpusReport {
    /// The directory (or file) that was run.
    pub root: String,
    /// One report per file, in path order.
    pub files: Vec<FileReport>,
    /// Total wall-clock time.
    pub elapsed: Duration,
}

impl CorpusReport {
    /// Did every file pass?
    #[must_use]
    pub fn passed(&self) -> bool {
        self.files.iter().all(FileReport::passed)
    }

    /// Paths of files whose check panicked and was quarantined.
    #[must_use]
    pub fn quarantined(&self) -> Vec<&str> {
        self.files
            .iter()
            .filter(|f| matches!(f.outcome, FileOutcome::Quarantined(_)))
            .map(|f| f.path.as_str())
            .collect()
    }

    /// Did any file quarantine or report an engine error?
    #[must_use]
    pub fn errored(&self) -> bool {
        self.files.iter().any(FileReport::errored)
    }

    /// Render the per-file verdict table (one line per model outcome).
    #[must_use]
    pub fn render_table(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        let path_w = self.files.iter().map(|f| f.path.len()).max().unwrap_or(4).max(4);
        let _ = writeln!(
            out,
            "{:<path_w$}  {:<5} {:<24} {:<24} status",
            "file", "model", "expected", "verdict"
        );
        for f in &self.files {
            match &f.outcome {
                FileOutcome::Error(d) => {
                    let _ = writeln!(
                        out,
                        "{:<path_w$}  {:<5} {:<24} {:<24} PARSE ERROR ({}:{}: {})",
                        f.path, "-", "-", "-", d.span.line, d.span.col, d.message
                    );
                }
                FileOutcome::Quarantined(e) => {
                    let _ = writeln!(
                        out,
                        "{:<path_w$}  {:<5} {:<24} {:<24} QUARANTINED ({e})",
                        f.path, "-", "-", "-"
                    );
                }
                FileOutcome::Checked(models) => {
                    for (i, m) in models.iter().enumerate() {
                        let path = if i == 0 { f.path.as_str() } else { "" };
                        let expected = match &m.expected {
                            None => "(verified)".to_owned(),
                            Some(e) => expectation_word(e),
                        };
                        let got = match (&m.verdict, m.expected.as_ref().and_then(|e| e.executions))
                        {
                            (Verdict::Verified, Some(_)) => {
                                format!("verified = {}", m.executions)
                            }
                            (v, _) => annotation_kind(v).to_owned(),
                        };
                        let status = if m.ok { "ok" } else { "MISMATCH" };
                        let _ = writeln!(
                            out,
                            "{path:<path_w$}  {:<5} {expected:<24} {got:<24} {status}",
                            m.model.to_string()
                        );
                    }
                }
            }
        }
        let passed = self.files.iter().filter(|f| f.passed()).count();
        let _ =
            writeln!(out, "{passed}/{} file(s) passed ({:.1?})", self.files.len(), self.elapsed);
        out
    }

    /// Serialize as JSON (dependency-free, stable key order):
    ///
    /// ```text
    /// {"corpus", "passed", "quarantined": [paths], "elapsed_ms", "files": [
    ///    {"path", "program", "passed", "quarantined", "error",
    ///     "models": [{"model", "expected", "expected_executions",
    ///                 "verdict", "message", "executions",
    ///                 "symmetry_pruned", "ok", "elapsed_ms",
    ///                 "phases": {"<phase>": {count, total_ms, max_ms}}}]}]}
    /// ```
    ///
    /// The top-level `quarantined` array lists the paths whose check
    /// panicked and was isolated (per-file `quarantined` is the matching
    /// boolean). `error` is the rendered diagnostic for unparsable files
    /// or the caught panic description for quarantined ones (`null`
    /// otherwise, with `models` empty in both cases); `expected` /
    /// `expected_executions` are `null` for unannotated models. Both
    /// `expected` and `verdict` use the annotation spelling
    /// (`await-termination`, dashes), so the two fields compare
    /// directly.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        Json::new(&mut out).obj(|j| {
            j.key("corpus").str(&self.root);
            j.key("passed").bool(self.passed());
            j.key("quarantined").arr(|j| {
                for p in self.quarantined() {
                    j.str(p);
                }
            });
            j.key("elapsed_ms").ms(self.elapsed);
            j.key("files").arr(|j| {
                for f in &self.files {
                    j.obj(|j| file_json(j, f));
                }
            });
        });
        out
    }
}

fn file_json(j: &mut Json<'_>, f: &FileReport) {
    j.key("path").str(&f.path);
    j.key("program").str(&f.program);
    j.key("passed").bool(f.passed());
    j.key("quarantined").bool(matches!(f.outcome, FileOutcome::Quarantined(_)));
    j.key("error");
    match &f.outcome {
        FileOutcome::Error(d) => j.str(&d.render()),
        FileOutcome::Quarantined(e) => j.display(e),
        FileOutcome::Checked(_) => j.null(),
    };
    j.key("models").arr(|j| {
        if let FileOutcome::Checked(models) = &f.outcome {
            for m in models {
                j.obj(|j| model_json(j, m));
            }
        }
    });
}

fn model_json(j: &mut Json<'_>, m: &ModelOutcome) {
    j.key("model").display(m.model);
    j.key("expected").opt_str(m.expected.map(|e| e.verdict.name()));
    j.key("expected_executions");
    match m.expected.and_then(|e| e.executions) {
        Some(n) => j.uint(n),
        None => j.null(),
    };
    j.key("verdict").str(annotation_kind(&m.verdict));
    j.key("message");
    match &m.verdict {
        Verdict::Verified => j.null(),
        v => j.display(v),
    };
    j.key("executions").uint(m.executions);
    j.key("symmetry_pruned").uint(m.symmetry_pruned);
    j.key("ok").bool(m.ok);
    j.key("elapsed_ms").ms(m.elapsed);
    j.key("phases").obj(|j| phases_json(j, &m.phases));
}

/// [`verdict_kind`] in the annotation spelling (`await-termination`), so
/// a verdict compares directly with an `expect` line.
fn annotation_kind(v: &Verdict) -> &'static str {
    match verdict_kind(v) {
        "await_termination" => "await-termination",
        kind => kind,
    }
}

fn expectation_word(e: &Expectation) -> String {
    match e.executions {
        Some(n) => format!("{} = {n}", e.verdict),
        None => e.verdict.to_string(),
    }
}

/// Judge one model outcome against its (optional) annotation.
fn outcome_ok(
    expected: Option<&Expectation>,
    verdict: &Verdict,
    executions: u64,
    symmetry: bool,
) -> bool {
    match expected {
        None => verdict.is_verified(),
        Some(e) => {
            let kind_ok = matches!(
                (e.verdict, verdict),
                (ExpectedVerdict::Verified, Verdict::Verified)
                    | (ExpectedVerdict::Safety, Verdict::Safety(_))
                    | (ExpectedVerdict::AwaitTermination, Verdict::AwaitTermination(_))
                    | (ExpectedVerdict::Fault, Verdict::Fault(_))
            );
            kind_ok
                && match e.executions {
                    Some(n) if symmetry => executions == n,
                    _ => true,
                }
        }
    }
}

/// The model matrix a file should be checked against.
fn matrix(test: &LitmusTest, opts: &CorpusOptions) -> Vec<ModelKind> {
    if let Some(models) = &opts.models {
        return models.clone();
    }
    if test.expectations.is_empty() {
        return ModelKind::all().to_vec();
    }
    test.expectations.iter().map(|e| e.model).collect()
}

/// Check one compiled test: one exploration per matrix model, judged
/// against the file's annotations. `deadline_at` is the *absolute*
/// cutoff shared by the whole corpus run.
#[must_use]
pub fn check_test(
    test: &LitmusTest,
    opts: &CorpusOptions,
    deadline_at: Option<Instant>,
) -> Vec<ModelOutcome> {
    let bus = opts.on_event.clone().map(|sink| Arc::new(EventBus::new(sink)));
    check_test_with_bus(test, opts, deadline_at, bus.as_ref())
}

/// [`check_test`] with a caller-owned event bus, so [`run_corpus`] can
/// share one sequence counter and clock across every file's session.
fn check_test_with_bus(
    test: &LitmusTest,
    opts: &CorpusOptions,
    deadline_at: Option<Instant>,
    bus: Option<&Arc<EventBus>>,
) -> Vec<ModelOutcome> {
    let models = matrix(test, opts);
    let mut session = Session::new(test.program.clone())
        .models(models.iter().copied())
        .workers(opts.workers.max(1))
        .symmetry(!opts.no_symmetry)
        .max_memory_bytes(opts.max_memory_bytes)
        .profile(opts.profile)
        .with_cancel(opts.cancel.clone());
    if let Some(bus) = bus {
        session = session.with_event_bus(Arc::clone(bus));
    }
    if let Some(at) = deadline_at {
        session = session.deadline(at.saturating_duration_since(Instant::now()));
    }
    let report = session.run();
    report
        .models
        .into_iter()
        .map(|run| {
            let expected = test.expectations.iter().find(|e| e.model == run.model).copied();
            let ok = outcome_ok(
                expected.as_ref(),
                &run.verdict,
                run.stats.complete_executions,
                !opts.no_symmetry,
            );
            ModelOutcome {
                model: run.model,
                expected,
                verdict: run.verdict,
                executions: run.stats.complete_executions,
                symmetry_pruned: run.stats.symmetry_pruned,
                elapsed: run.elapsed,
                phases: run.stats.phases,
                ok,
            }
        })
        .collect()
}

/// Compile and check one litmus source, labeled `path` in diagnostics
/// and the report.
#[must_use]
pub fn check_source(
    path: &str,
    source: &str,
    opts: &CorpusOptions,
    deadline_at: Option<Instant>,
) -> FileReport {
    let bus = opts.on_event.clone().map(|sink| Arc::new(EventBus::new(sink)));
    check_source_with_bus(path, source, opts, deadline_at, bus.as_ref())
}

fn check_source_with_bus(
    path: &str,
    source: &str,
    opts: &CorpusOptions,
    deadline_at: Option<Instant>,
    bus: Option<&Arc<EventBus>>,
) -> FileReport {
    match vsync_dsl::compile(source) {
        Err(d) => FileReport {
            path: path.to_owned(),
            program: String::new(),
            outcome: FileOutcome::Error(d.with_file(path)),
        },
        Ok(test) => FileReport {
            path: path.to_owned(),
            program: test.name.clone(),
            outcome: FileOutcome::Checked(check_test_with_bus(&test, opts, deadline_at, bus)),
        },
    }
}

/// Collect the `.litmus` files under `root` (a directory, recursively,
/// in sorted path order — or a single file).
///
/// # Errors
///
/// Propagates directory-listing errors.
pub fn collect_litmus_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    if root.is_file() {
        return Ok(vec![root.to_path_buf()]);
    }
    let mut files = Vec::new();
    let mut dirs = vec![root.to_path_buf()];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "litmus") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Check one file with fault isolation: the `corpus.check` failpoint
/// plus the whole compile-and-check runs under `catch_unwind`, so an
/// engine panic quarantines this file instead of tearing down the pool.
/// An inconclusive file is reported as such, not re-run: a memory budget
/// or `max_graphs` stops a rerun at the same point, and the deadline and
/// the cancel token are the corpus's own.
fn check_source_guarded(
    label: &str,
    source: &str,
    opts: &CorpusOptions,
    deadline_at: Option<Instant>,
    bus: Option<&Arc<EventBus>>,
) -> FileReport {
    let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = failpoint::hit("corpus.check");
        check_source_with_bus(label, source, opts, deadline_at, bus)
    }));
    attempt.unwrap_or_else(|payload| {
        let payload = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_owned());
        FileReport {
            path: label.to_owned(),
            program: String::new(),
            outcome: FileOutcome::Quarantined(EngineError {
                kind: EngineErrorKind::Panic,
                phase: EnginePhase::Corpus,
                thread: None,
                payload,
            }),
        }
    })
}

/// Run every `.litmus` file under `root`: `opts.jobs` files checked
/// concurrently, all sharing `opts.cancel` and the `opts.deadline`
/// budget. File order in the report is path order regardless of the
/// completion order.
///
/// # Errors
///
/// A missing or unlistable `root` is a [`SourceError::Io`] carrying the
/// path — the caller gets a structured diagnostic, not a bare
/// [`io::Error`]. Unreadable or unparsable *individual* files become
/// failing [`FileReport`]s instead, and a file whose check panics is
/// quarantined ([`FileOutcome::Quarantined`]) without affecting any
/// other file.
pub fn run_corpus(root: &Path, opts: &CorpusOptions) -> Result<CorpusReport, SourceError> {
    let started = Instant::now();
    let deadline_at = opts.deadline.map(|d| started + d);
    let files = collect_litmus_files(root)
        .map_err(|e| SourceError::Io(root.display().to_string(), e))?;
    let jobs = opts.jobs.max(1).min(files.len().max(1));
    let reports: Vec<Mutex<Option<FileReport>>> = files.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    // One bus for the whole corpus: every per-file session shares its
    // sequence counter and clock, so the stream is a single timeline.
    let bus = opts.on_event.clone().map(|sink| Arc::new(EventBus::new(sink)));
    let worker = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(path) = files.get(i) else { break };
        let label = path.display().to_string();
        let report = match std::fs::read_to_string(path) {
            Ok(src) => check_source_guarded(&label, &src, opts, deadline_at, bus.as_ref()),
            Err(e) => FileReport {
                path: label.clone(),
                program: String::new(),
                outcome: FileOutcome::Error(
                    Diagnostic::new(format!("cannot read file: {e}"), Span::new(1, 1, 1), "")
                        .with_file(label.clone()),
                ),
            },
        };
        if let Some(bus) = &bus {
            if matches!(report.outcome, FileOutcome::Quarantined(_)) {
                bus.emit(0, EventKind::Quarantine { path: label.clone() });
            }
            bus.emit(0, EventKind::CorpusFile { path: label.clone(), passed: report.passed() });
        }
        *reports[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(report);
    };
    // One job runs on the calling thread, as a one-worker exploration
    // does: a spawned thread would cost a thread and a fresh allocator
    // arena per call.
    if jobs == 1 {
        worker();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(worker);
            }
        });
    }
    let files = reports
        .into_iter()
        .map(|m| m.into_inner().unwrap_or_else(|e| e.into_inner()).expect("every file checked"))
        .collect();
    Ok(CorpusReport { root: root.display().to_string(), files, elapsed: started.elapsed() })
}

#[cfg(test)]
mod tests {
    use super::*;

    const MP: &str = r#"
        litmus "mp"
        thread { store.rlx x, 1  store.rel y, 1 }
        thread { r0 = await_eq.acq y, 1  r1 = load.rlx x  assert r1 == 1, "data visible" }
        expect sc: verified
        expect tso: verified
        expect vmm: verified = 2
    "#;

    #[test]
    fn check_source_judges_expectations() {
        let r = check_source("mp.litmus", MP, &CorpusOptions::default(), None);
        assert!(r.passed(), "{:?}", r);
        let FileOutcome::Checked(models) = &r.outcome else { panic!() };
        assert_eq!(models.len(), 3);
        assert!(models.iter().all(|m| m.ok));
    }

    #[test]
    fn mismatched_expectation_fails() {
        let src = MP.replace("expect vmm: verified = 2", "expect vmm: safety");
        let r = check_source("mp.litmus", &src, &CorpusOptions::default(), None);
        assert!(!r.passed());
        let FileOutcome::Checked(models) = &r.outcome else { panic!() };
        let vmm = models.iter().find(|m| m.model == ModelKind::Vmm).unwrap();
        assert!(!vmm.ok);
        assert!(vmm.verdict.is_verified(), "program itself still verifies");
    }

    #[test]
    fn wrong_count_fails_only_with_symmetry() {
        let src = MP.replace("verified = 2", "verified = 99");
        let r = check_source("mp.litmus", &src, &CorpusOptions::default(), None);
        assert!(!r.passed(), "wrong count must fail");
        let opts = CorpusOptions { no_symmetry: true, ..Default::default() };
        let r = check_source("mp.litmus", &src, &opts, None);
        assert!(r.passed(), "counts are not judged without symmetry reduction");
    }

    #[test]
    fn missing_root_is_a_structured_io_error() {
        let err = run_corpus(
            std::path::Path::new("/nonexistent/dir/mp.litmus"),
            &CorpusOptions::default(),
        )
        .expect_err("a missing root must not produce a report");
        let crate::SourceError::Io(path, _) = &err else {
            panic!("expected SourceError::Io, got {err}");
        };
        assert_eq!(path, "/nonexistent/dir/mp.litmus");
        assert!(err.to_string().contains("cannot read /nonexistent/dir/mp.litmus"), "{err}");
    }

    #[test]
    fn json_verdict_spelling_matches_expected_field() {
        let src = r#"
            litmus "hang"
            thread { r0 = await_eq.acq flag, 1 }
            expect vmm: await-termination
        "#;
        let files = vec![check_source("hang.litmus", src, &CorpusOptions::default(), None)];
        let report = CorpusReport { root: "x".into(), files, elapsed: Duration::ZERO };
        assert!(report.passed());
        let json = report.to_json();
        assert!(
            json.contains("\"expected\": \"await-termination\"")
                && json.contains("\"verdict\": \"await-termination\""),
            "expected/verdict spellings must agree: {json}"
        );
    }

    #[test]
    fn parse_errors_become_failing_reports() {
        let r = check_source(
            "bad.litmus",
            "litmus x thread { jmp out }",
            &CorpusOptions::default(),
            None,
        );
        assert!(!r.passed());
        let FileOutcome::Error(d) = &r.outcome else { panic!() };
        assert!(d.render().contains("unbound label"));
        assert_eq!(d.file.as_deref(), Some("bad.litmus"));
    }

    #[test]
    fn corpus_report_json_and_table_render() {
        let files = vec![check_source("mp.litmus", MP, &CorpusOptions::default(), None)];
        let report =
            CorpusReport { root: "corpus".into(), files, elapsed: Duration::from_millis(5) };
        assert!(report.passed());
        let json = report.to_json();
        assert!(json.starts_with(r#"{"corpus": "corpus", "passed": true"#));
        assert!(json.contains("\"expected_executions\": 2"));
        let table = report.render_table();
        assert!(table.contains("mp.litmus"), "{table}");
        assert!(table.contains("1/1 file(s) passed"), "{table}");
    }

    #[test]
    fn fired_cancel_interrupts_files() {
        let opts = CorpusOptions::default();
        opts.cancel.cancel();
        let r = check_source("mp.litmus", MP, &opts, None);
        assert!(!r.passed());
        assert!(r.interrupted());
    }

    #[test]
    fn memory_budget_degrades_file_to_inconclusive() {
        let opts = CorpusOptions { max_memory_bytes: 64, ..Default::default() };
        let r = check_source("mp.litmus", MP, &opts, None);
        assert!(!r.passed());
        assert!(r.interrupted(), "a starved budget is an interrupt, not a crash");
        assert!(!r.errored());
    }

    #[test]
    fn quarantined_files_serialize_and_fail() {
        let quarantined = FileReport {
            path: "boom.litmus".into(),
            program: String::new(),
            outcome: FileOutcome::Quarantined(crate::verdict::EngineError {
                kind: crate::verdict::EngineErrorKind::Panic,
                phase: crate::verdict::EnginePhase::Corpus,
                thread: None,
                payload: "injected".into(),
            }),
        };
        assert!(!quarantined.passed());
        assert!(quarantined.errored());
        let clean = check_source("mp.litmus", MP, &CorpusOptions::default(), None);
        let report = CorpusReport {
            root: "corpus".into(),
            files: vec![clean, quarantined],
            elapsed: Duration::ZERO,
        };
        assert!(!report.passed());
        assert!(report.errored());
        assert_eq!(report.quarantined(), vec!["boom.litmus"]);
        let json = report.to_json();
        assert!(
            json.contains("\"quarantined\": [\"boom.litmus\"]"),
            "top-level quarantine list: {json}"
        );
        assert!(json.contains("\"quarantined\": true"), "per-file flag: {json}");
        assert!(json.contains("panic in corpus phase"), "error message: {json}");
        let table = report.render_table();
        assert!(table.contains("QUARANTINED"), "{table}");
    }
}
