//! `vsync` — command-line front end for the model checker and optimizer.
//!
//! See [`HELP`] for the command and option summary.

use std::collections::HashMap;
use std::fmt;
use std::io::{self, Write as _};
use std::path::Path;
use std::process::ExitCode;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use vsync::core::{
    collect_litmus_files, enumerate_maximal, render_metrics, run_corpus, AmcConfig, CancelToken,
    CorpusOptions, CorpusReport, EngineEvent, EventFn, EventKind, ExploreStats, FileOutcome,
    OptimizerConfig, PhaseProfile, Report, Session, TraceWriter,
};
use vsync::graph::{to_dot, Mode};
use vsync::lang::{Program, ProgramBuilder, Reg};
use vsync::locks::model::{dpdk_scenario, huawei_scenario};
use vsync::locks::registry;
use vsync::model::{checker_attribution, set_checker_attribution, ModelKind};

/// Command and option summary (also the `--help` text).
const HELP: &str = "\
vsync locks                         list the verifiable lock catalog
                                    (name, family, relaxable sites, summary)
vsync verify <lock> [opts]          AMC-verify a lock's generic client
vsync optimize <lock> [opts]        push-button barrier optimization of the
                                    all-seq_cst client; reports the
                                    optimized program's exploration
vsync bug <dpdk|huawei> [--fixed]   run a §3 study-case scenario
vsync litmus <sb|mp|lb|iriw>        explore a classic litmus shape
vsync check <file.litmus> [opts]    verify a litmus file against its
                                    `expect <model>: <verdict>` annotations
                                    (exit code reflects mismatches)
vsync corpus <dir> [opts]           batch-check every *.litmus under dir
                                    (per-file verdict table)
vsync fmt [--check|--write] <path>  canonically format litmus files
                                    (--check: fail if not canonical;
                                     --write: rewrite in place)

options:
  --threads N      client threads (default 2; at least 1)
  --acquires K     acquisitions per thread (default 1; at least 1)
  --model M        sc | tso | vmm (default vmm). vmm is RC11-style: it
                   forbids every po ∪ rf cycle (porf-acyclic), so unlike
                   the paper's IMM it admits no load buffering
  --models A,B     comma-separated model matrix (overrides --model)
  --workers N      worker threads of each exploration (default 1)
  --deadline-ms T  wall-clock budget; expiry reports `inconclusive`
  --max-memory-mb N  approximate heap budget per exploration (frontier +
                   dedup table); exhaustion reports `inconclusive` with
                   partial counters instead of aborting (default: unlimited)
  --no-symmetry    disable thread-symmetry reduction: explore every
                   relabeled twin of template-identical client threads
                   distinctly (naive reference counts; default prunes
                   them, reported as `sym-pruned`)
  --json           (verify/optimize/bug/check/corpus) print the report as JSON
  --progress       (verify/optimize/bug/check/corpus) print each running
                   exploration's counters to stderr: on the first update,
                   then at most every 250 ms (optimize: summed over the
                   optimizer's explorations)
  --jobs J         (corpus) files checked concurrently (default: cores, max 8)
  --steps          (optimize) print each decided relaxation to stderr as
                   `[pass N] accept|reject <site> <from> -> <to>`
                   (pass 1 is the batch/bisect opening, later passes
                   the sequential ladder)
  --enumerate      (optimize) list all maximally-relaxed assignments; only
                   --threads, --acquires, --model, --workers and
                   --no-symmetry apply
  --dot            (verify/bug) print counterexamples as Graphviz
  --dot DIR        (check) write one Graphviz file per violating model
                   under DIR (rf/mo/po edges labeled)
  --trace FILE     (verify/optimize/bug/check/corpus) write engine
                   telemetry as a Chrome-trace JSON array to FILE
                   (loadable in Perfetto / chrome://tracing)
  --metrics        (verify/optimize/bug/check/corpus) print a per-phase
                   wall-clock attribution table to stderr after the run

exit codes:
  0  verified / every expectation met
  1  violation found or expectation mismatch
  2  inconclusive: cancelled, deadline expired, a resource budget
     (--max-memory-mb / max-graphs) was exhausted, or the
     input file/directory was missing or unreadable
  3  engine error: a worker panicked (the panic was caught and reported)
     or a corpus file was quarantined";

/// Options `optimize --enumerate` does not apply.
const ENUMERATE_IGNORES: [&str; 7] =
    ["--deadline-ms", "--max-memory-mb", "--json", "--progress", "--steps", "--trace", "--metrics"];

struct Options {
    threads: usize,
    acquires: usize,
    models: Vec<ModelKind>,
    /// Was `--model`/`--models` given explicitly? (`check`/`corpus` only
    /// override a file's annotated matrix on explicit request.)
    models_set: bool,
    workers: usize,
    jobs: usize,
    deadline: Option<Duration>,
    /// `--max-memory-mb`, in bytes (0 = unlimited).
    max_memory_bytes: u64,
    json: bool,
    progress: bool,
    symmetry: bool,
    steps: bool,
    enumerate: bool,
    dot: bool,
    /// `--dot DIR` (check): directory for per-violation DOT files.
    dot_dir: Option<String>,
    /// `--trace FILE`: Chrome-trace telemetry export target.
    trace: Option<String>,
    metrics: bool,
    fixed: bool,
}

/// The operand of a client-size option. 0 is refused: an empty client has
/// one (empty) execution and would report `verified` about no lock at all.
fn positive(option: &str, operand: Option<&String>) -> Result<usize, String> {
    match operand.and_then(|v| v.parse().ok()) {
        Some(0) => Err(format!("{option} must be at least 1")),
        Some(n) => Ok(n),
        None => Err(format!("{option} needs a number")),
    }
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut o = Options {
            threads: 2,
            acquires: 1,
            models: vec![ModelKind::Vmm],
            models_set: false,
            workers: 1,
            jobs: std::thread::available_parallelism().map_or(1, |n| n.get().min(8)),
            deadline: None,
            max_memory_bytes: 0,
            json: false,
            progress: false,
            symmetry: true,
            steps: false,
            enumerate: false,
            dot: false,
            dot_dir: None,
            trace: None,
            metrics: false,
            fixed: false,
        };
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--threads" => o.threads = positive(a, it.next())?,
                "--acquires" => o.acquires = positive(a, it.next())?,
                "--model" => {
                    let m = it.next().ok_or("--model needs sc|tso|vmm")?;
                    o.models = vec![m.parse()?];
                    o.models_set = true;
                }
                "--models" => {
                    let ms = it.next().ok_or("--models needs a comma-separated list")?;
                    o.models = ms.split(',').map(str::parse).collect::<Result<Vec<_>, _>>()?;
                    o.models_set = true;
                }
                "--jobs" => {
                    o.jobs =
                        it.next().and_then(|v| v.parse().ok()).ok_or("--jobs needs a number")?
                }
                "--workers" => {
                    o.workers =
                        it.next().and_then(|v| v.parse().ok()).ok_or("--workers needs a number")?
                }
                "--deadline-ms" => {
                    let ms: u64 = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--deadline-ms needs a number")?;
                    o.deadline = Some(Duration::from_millis(ms));
                }
                "--max-memory-mb" => {
                    let mb: u64 = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--max-memory-mb needs a number")?;
                    // Saturate: a wrapped product could land on 0, which
                    // means "unlimited".
                    o.max_memory_bytes = mb.saturating_mul(1024 * 1024);
                }
                "--no-symmetry" => o.symmetry = false,
                "--json" => o.json = true,
                "--progress" => o.progress = true,
                "--steps" => o.steps = true,
                "--enumerate" => o.enumerate = true,
                // `--dot` alone prints to stdout (verify/bug); with a
                // following path operand it names the output directory
                // for per-violation files (check).
                "--dot" => {
                    o.dot = true;
                    if let Some(v) = it.peek() {
                        if !v.starts_with("--") {
                            o.dot_dir = it.next().cloned();
                        }
                    }
                }
                "--trace" => {
                    o.trace = Some(it.next().ok_or("--trace needs a file path")?.clone());
                }
                "--metrics" => o.metrics = true,
                "--fixed" => o.fixed = true,
                other => return Err(format!("unknown option {other}")),
            }
        }
        Ok(o)
    }

    /// Corpus-runner options mirroring the session flags.
    fn corpus_options(&self) -> CorpusOptions {
        CorpusOptions {
            models: if self.models_set { Some(self.models.clone()) } else { None },
            workers: self.workers,
            jobs: self.jobs,
            no_symmetry: !self.symmetry,
            deadline: self.deadline,
            cancel: CancelToken::new(),
            max_memory_bytes: self.max_memory_bytes,
            ..CorpusOptions::default()
        }
    }

    /// Threads that accrued phase time concurrently during a corpus run:
    /// the files in flight times the workers exploring each.
    fn corpus_threads(&self, r: &CorpusReport) -> usize {
        self.workers.max(1) * self.jobs.clamp(1, r.files.len().max(1))
    }

    /// A session over `program` with every runtime option applied.
    fn session(&self, program: Program) -> Session {
        let mut s = Session::new(program)
            .models(self.models.iter().copied())
            .workers(self.workers)
            .symmetry(self.symmetry)
            .max_memory_bytes(self.max_memory_bytes);
        if let Some(d) = self.deadline {
            s = s.deadline(d);
        }
        s
    }
}

/// `--progress`, a bus subscriber: per session, the `stats_delta`s of the
/// running exploration summed since its `explore_start`, printed on the
/// first delta and then at most every 250 ms. An optimize session's span
/// brackets the whole optimization, so its line sums every exploration
/// the optimizer ran.
#[derive(Default)]
struct Progress(Mutex<HashMap<u64, Exploring>>);

/// One session's running exploration, as `--progress` sees it.
struct Exploring {
    model: ModelKind,
    workers: usize,
    started: Duration,
    stats: ExploreStats,
    /// Bus time before which no line is printed.
    quiet_until: Duration,
}

impl Progress {
    const INTERVAL: Duration = Duration::from_millis(250);

    fn observe(&self, ev: &EngineEvent) {
        let mut runs = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        match &ev.kind {
            EventKind::ExploreStart { model, workers } => {
                let run = Exploring {
                    model: *model,
                    workers: *workers,
                    started: ev.ts,
                    stats: ExploreStats::default(),
                    quiet_until: ev.ts,
                };
                runs.insert(ev.session, run);
            }
            EventKind::ExploreFinish { .. } => {
                runs.remove(&ev.session);
            }
            EventKind::StatsDelta { stats, .. } => {
                let Some(run) = runs.get_mut(&ev.session) else { return };
                run.stats.merge(stats);
                if ev.ts < run.quiet_until {
                    return;
                }
                run.quiet_until = ev.ts + Self::INTERVAL;
                eprintln!(
                    "[{}] {:.1?}: {} ({} workers)",
                    run.model,
                    ev.ts.saturating_sub(run.started),
                    run.stats,
                    run.workers
                );
            }
            _ => {}
        }
    }
}

/// CLI-side telemetry wiring: one event sink feeding whichever of
/// `--trace`, `--progress` and `--steps` are set, profiling for
/// `--metrics` and `--trace` (whose phase spans need it), and the
/// checker-attribution snapshot taken before the run (the counters are
/// process-global, so only the delta belongs to this run).
struct Telemetry {
    writer: Option<Arc<TraceWriter>>,
    sink: Option<EventFn>,
    profile: bool,
    metrics: bool,
    attr_before: (u64, u64),
}

impl Telemetry {
    fn start(o: &Options) -> Result<Telemetry, String> {
        let writer = match &o.trace {
            Some(path) => Some(Arc::new(
                TraceWriter::create(Path::new(path))
                    .map_err(|e| format!("cannot create trace file {path}: {e}"))?,
            )),
            None => None,
        };
        let sink = (writer.is_some() || o.progress || o.steps).then(|| {
            let trace = writer.as_ref().map(TraceWriter::sink);
            let progress = o.progress.then(Progress::default);
            let steps = o.steps;
            Arc::new(move |ev: &EngineEvent| {
                if let Some(trace) = &trace {
                    trace(ev);
                }
                if let Some(progress) = &progress {
                    progress.observe(ev);
                }
                if steps {
                    if let EventKind::OptimizeStep { pass, site, from, to, accepted } = &ev.kind {
                        let verdict = if *accepted { "accept" } else { "reject" };
                        eprintln!("[pass {pass}] {verdict} {site:<44} {from} -> {to}");
                    }
                }
            }) as EventFn
        });
        if o.metrics {
            set_checker_attribution(true);
        }
        Ok(Telemetry {
            profile: o.metrics || writer.is_some(),
            writer,
            sink,
            metrics: o.metrics,
            attr_before: checker_attribution(),
        })
    }

    /// Apply to a session: profiling and the event sink.
    fn session(&self, mut s: Session) -> Session {
        s = s.profile(self.profile);
        if let Some(sink) = &self.sink {
            let sink = Arc::clone(sink);
            s = s.on_event(move |ev| sink(ev));
        }
        s
    }

    /// The corpus-runner analogue of [`Telemetry::session`].
    fn corpus(&self, opts: &mut CorpusOptions) {
        opts.profile = self.profile;
        opts.on_event = self.sink.clone();
    }

    /// Print the metrics table (stderr) and close the trace file.
    /// `threads` is how many threads accrued phase time concurrently.
    fn finish(&self, profile: &PhaseProfile, wall: Duration, threads: usize) {
        if self.metrics {
            eprint!("{}", render_metrics(profile, wall, threads));
            let (fast, reference) = checker_attribution();
            eprintln!(
                "consistency checks: {} fast-path, {} reference",
                fast - self.attr_before.0,
                reference - self.attr_before.1
            );
            set_checker_attribution(false);
        }
        if let Some(w) = &self.writer {
            if let Err(e) = w.finish() {
                eprintln!("warning: trace file not fully written: {e}");
            }
        }
    }
}

/// Session-wide phase profile: every model's attribution merged.
fn report_profile(r: &Report) -> PhaseProfile {
    let mut p = PhaseProfile::default();
    for m in &r.models {
        p.merge(&m.stats.phases);
    }
    p
}

/// Corpus-wide phase profile: every checked model of every file merged.
fn corpus_profile(r: &CorpusReport) -> PhaseProfile {
    let mut p = PhaseProfile::default();
    for f in &r.files {
        if let FileOutcome::Checked(models) = &f.outcome {
            for m in models {
                p.merge(&m.phases);
            }
        }
    }
    p
}

/// `vsync check --dot DIR`: write one Graphviz file per violating model,
/// named `<file-stem>.<model>.dot`, and report how many were written.
fn write_corpus_dots(dir: &str, r: &CorpusReport) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
    let mut written = 0usize;
    for f in &r.files {
        let FileOutcome::Checked(models) = &f.outcome else { continue };
        let stem = Path::new(&f.path)
            .file_stem()
            .map_or_else(|| f.program.clone(), |s| s.to_string_lossy().into_owned());
        for m in models {
            let Some(ce) = m.verdict.counterexample() else { continue };
            let name = format!("{stem}.{}.dot", m.model.to_string().to_lowercase());
            let path = Path::new(dir).join(&name);
            std::fs::write(&path, to_dot(&ce.graph))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            written += 1;
        }
    }
    eprintln!("wrote {written} counterexample DOT file(s) under {dir}");
    Ok(())
}

/// Exit-code taxonomy (documented in `--help`): 0 verified, 1 violation
/// or mismatch, 2 inconclusive (cancel/deadline/budget), 3 engine error.
fn session_exit_code(r: &Report) -> ExitCode {
    if r.is_verified() {
        ExitCode::SUCCESS
    } else if r.is_errored() {
        ExitCode::from(3)
    } else if r.is_interrupted() {
        ExitCode::from(2)
    } else {
        ExitCode::FAILURE
    }
}

/// A missing or unreadable input is an environment problem, not a
/// verification verdict: report the structured diagnostic (which names
/// the offending path) and exit 2 (inconclusive) — distinct from
/// expectation mismatches (1) and engine errors (3).
fn unreadable_input(e: &vsync::core::SourceError) -> ExitCode {
    eprintln!("error: {e}");
    ExitCode::from(2)
}

/// The corpus analogue of [`session_exit_code`]: quarantined files and
/// engine errors dominate, then budget-starved (inconclusive) files.
fn corpus_exit_code(r: &vsync::core::CorpusReport) -> ExitCode {
    if r.errored() {
        ExitCode::from(3)
    } else if r.passed() {
        ExitCode::SUCCESS
    } else if r.files.iter().any(|f| f.interrupted()) {
        ExitCode::from(2)
    } else {
        ExitCode::FAILURE
    }
}

/// Print a session report and turn it into an exit code.
fn report(r: &Report, o: &Options, out: &mut Output) -> ExitCode {
    if o.json {
        writeln!(out, "{}", r.to_json());
    } else {
        write!(out, "{}", r.render());
        if o.dot {
            if let Some(ce) = r.models.iter().find_map(|m| m.verdict.counterexample()) {
                writeln!(out, "{}", to_dot(&ce.graph));
            }
        }
    }
    session_exit_code(r)
}

fn litmus(name: &str) -> Result<Program, String> {
    const X: u64 = 0x10;
    const Y: u64 = 0x20;
    let mut pb = ProgramBuilder::new(name);
    match name {
        "sb" => {
            for (a, b) in [(X, Y), (Y, X)] {
                pb.thread(move |t| {
                    t.store(a, 1u64, Mode::Rlx);
                    t.load(Reg(0), b, Mode::Rlx);
                });
            }
        }
        "mp" => {
            pb.thread(|t| {
                t.store(X, 1u64, Mode::Rlx);
                t.store(Y, 1u64, Mode::Rel);
            });
            pb.thread(|t| {
                t.load(Reg(0), Y, Mode::Acq);
                t.load(Reg(1), X, Mode::Rlx);
            });
        }
        "lb" => {
            for (a, b) in [(X, Y), (Y, X)] {
                pb.thread(move |t| {
                    t.load(Reg(0), a, Mode::Rlx);
                    t.store(b, 1u64, Mode::Rlx);
                });
            }
        }
        "iriw" => {
            pb.thread(|t| {
                t.store(X, 1u64, Mode::Rlx);
            });
            pb.thread(|t| {
                t.store(Y, 1u64, Mode::Rlx);
            });
            for (a, b) in [(X, Y), (Y, X)] {
                pb.thread(move |t| {
                    t.load(Reg(0), a, Mode::Rlx);
                    t.load(Reg(1), b, Mode::Rlx);
                });
            }
        }
        other => return Err(format!("unknown litmus '{other}' (sb, mp, lb, iriw)")),
    }
    pb.build().map_err(|e| e.to_string())
}

fn run(out: &mut Output) -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => {
            writeln!(
                out,
                "usage: vsync <locks|verify|optimize|bug|litmus|check|corpus|fmt> ... (see --help)"
            );
            return Ok(ExitCode::SUCCESS);
        }
    };
    if cmd == "--help" || cmd == "help" {
        writeln!(out, "{HELP}");
        return Ok(ExitCode::SUCCESS);
    }
    match cmd {
        "locks" => {
            writeln!(out, "{:<18} {:<10} {:>5} {:>4}  summary", "name", "family", "sites", "sym");
            for e in registry::catalog() {
                let sites = e.client(2, 1).relaxable_sites().len();
                let sym = if e.symmetric_client() { "yes" } else { "-" };
                writeln!(
                    out,
                    "{:<18} {:<10} {:>5} {:>4}  {}",
                    e.name, e.family, sites, sym, e.summary
                );
            }
            writeln!(
                out,
                "\nverify or optimize any entry: `vsync verify <name>`, `vsync optimize <name> \
                 [--workers N]`"
            );
            Ok(ExitCode::SUCCESS)
        }
        "verify" => {
            let (name, rest) = rest.split_first().ok_or("verify needs a lock name")?;
            let o = Options::parse(rest)?;
            let entry = registry::entry(name)
                .ok_or_else(|| format!("unknown lock '{name}' (try `vsync locks`)"))?;
            let tel = Telemetry::start(&o)?;
            let r = tel.session(o.session(entry.client(o.threads, o.acquires))).run();
            tel.finish(&report_profile(&r), r.elapsed, o.workers);
            Ok(report(&r, &o, out))
        }
        "optimize" => {
            let (name, rest) = rest.split_first().ok_or("optimize needs a lock name")?;
            let o = Options::parse(rest)?;
            let entry = registry::entry(name)
                .ok_or_else(|| format!("unknown lock '{name}' (try `vsync locks`)"))?;
            let p = entry.client(o.threads, o.acquires).with_all_sc();
            if o.enumerate {
                if o.models.len() > 1
                    || rest.iter().any(|a| ENUMERATE_IGNORES.contains(&a.as_str()))
                {
                    eprintln!(
                        "note: --enumerate explores under the first model only and ignores {}",
                        ENUMERATE_IGNORES.join(", ")
                    );
                }
                let cfg = OptimizerConfig::with_amc(
                    AmcConfig::with_model(o.models[0])
                        .with_workers(o.workers)
                        .with_symmetry(o.symmetry),
                );
                let (names, maximal) = enumerate_maximal(&p, &cfg);
                writeln!(out, "{} maximally-relaxed assignment(s):", maximal.len());
                for (i, modes) in maximal.iter().enumerate() {
                    writeln!(out, "#{i}");
                    for (n, m) in names.iter().zip(modes) {
                        writeln!(out, "  {n:<44} {m}");
                    }
                }
                Ok(ExitCode::SUCCESS)
            } else {
                let tel = Telemetry::start(&o)?;
                let r = tel.session(o.session(p).optimize(OptimizerConfig::default())).run();
                tel.finish(&report_profile(&r), r.elapsed, o.workers);
                if o.json {
                    writeln!(out, "{}", r.to_json());
                } else {
                    write!(out, "{}", r.render());
                }
                Ok(session_exit_code(&r))
            }
        }
        "bug" => {
            let (which, rest) = rest.split_first().ok_or("bug needs dpdk|huawei")?;
            let o = Options::parse(rest)?;
            let p = match which.as_str() {
                "dpdk" => dpdk_scenario(o.fixed),
                "huawei" => huawei_scenario(o.fixed),
                other => return Err(format!("unknown study case '{other}'")),
            };
            let tel = Telemetry::start(&o)?;
            let r = tel.session(o.session(p)).run();
            tel.finish(&report_profile(&r), r.elapsed, o.workers);
            Ok(report(&r, &o, out))
        }
        "check" => {
            let (file, rest) = rest.split_first().ok_or("check needs a .litmus file")?;
            let o = Options::parse(rest)?;
            let tel = Telemetry::start(&o)?;
            let mut copts = o.corpus_options();
            tel.corpus(&mut copts);
            let r = match run_corpus(Path::new(file), &copts) {
                Ok(r) => r,
                Err(e) => return Ok(unreadable_input(&e)),
            };
            tel.finish(&corpus_profile(&r), r.elapsed, o.corpus_threads(&r));
            if let Some(dir) = &o.dot_dir {
                write_corpus_dots(dir, &r)?;
            }
            if o.json {
                writeln!(out, "{}", r.to_json());
            } else {
                write!(out, "{}", r.render_table());
            }
            Ok(corpus_exit_code(&r))
        }
        "corpus" => {
            let (dir, rest) = rest.split_first().ok_or("corpus needs a directory")?;
            let o = Options::parse(rest)?;
            let tel = Telemetry::start(&o)?;
            let mut copts = o.corpus_options();
            tel.corpus(&mut copts);
            let r = match run_corpus(Path::new(dir), &copts) {
                Ok(r) => r,
                Err(e) => return Ok(unreadable_input(&e)),
            };
            tel.finish(&corpus_profile(&r), r.elapsed, o.corpus_threads(&r));
            if r.files.is_empty() {
                return Err(format!("no .litmus files under {dir}"));
            }
            if o.json {
                writeln!(out, "{}", r.to_json());
            } else {
                write!(out, "{}", r.render_table());
            }
            Ok(corpus_exit_code(&r))
        }
        "fmt" => {
            let mut check = false;
            let mut write = false;
            let mut paths: Vec<&str> = Vec::new();
            for a in rest {
                match a.as_str() {
                    "--check" => check = true,
                    "--write" => write = true,
                    other if !other.starts_with("--") => paths.push(other),
                    other => return Err(format!("unknown option {other}")),
                }
            }
            if check && write {
                return Err("--check and --write are mutually exclusive".into());
            }
            if paths.is_empty() {
                return Err("fmt needs at least one file or directory".into());
            }
            let mut files = Vec::new();
            for p in paths {
                let mut found = collect_litmus_files(Path::new(p))
                    .map_err(|e| format!("cannot read {p}: {e}"))?;
                if found.is_empty() {
                    return Err(format!("no .litmus files under {p}"));
                }
                files.append(&mut found);
            }
            let mut failed = false;
            for path in files {
                let label = path.display().to_string();
                let src = std::fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read {label}: {e}"))?;
                match vsync::dsl::format_source(&src) {
                    Err(d) => {
                        eprint!("{}", d.with_file(&label).render());
                        failed = true;
                    }
                    Ok(formatted) if check => {
                        if formatted != src {
                            eprintln!("would reformat {label}");
                            failed = true;
                        }
                    }
                    Ok(formatted) if write => {
                        if formatted != src {
                            std::fs::write(&path, formatted)
                                .map_err(|e| format!("cannot write {label}: {e}"))?;
                            eprintln!("reformatted {label}");
                        }
                    }
                    Ok(formatted) => write!(out, "{formatted}"),
                }
            }
            Ok(if failed { ExitCode::FAILURE } else { ExitCode::SUCCESS })
        }
        "litmus" => {
            let (name, rest) = rest.split_first().ok_or("litmus needs a shape name")?;
            let o = Options::parse(rest)?;
            let p = litmus(name)?;
            let r = o.session(p).collect_executions().run();
            for m in &r.models {
                writeln!(
                    out,
                    "{name} under {}: {} consistent executions",
                    m.model, m.stats.complete_executions
                );
                for (i, g) in m.executions.iter().enumerate() {
                    writeln!(out, "--- execution {i} ---\n{}", g.render());
                }
            }
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command '{other}'")),
    }
}

/// Standard output, written through one fallible path. `println!`
/// panics once the reader is gone (`vsync locks | head -1`); here the
/// first write error silences the rest of the output instead, and
/// [`Output::finish`] reports it.
struct Output {
    stdout: io::Stdout,
    error: Option<io::Error>,
}

impl Output {
    /// The target of `write!` and `writeln!`.
    fn write_fmt(&mut self, args: fmt::Arguments<'_>) {
        if self.error.is_none() {
            self.error = self.stdout.write_fmt(args).err();
        }
    }

    /// Flush, and return the first write error — except a closed pipe,
    /// which only means the reader wanted no more.
    fn finish(mut self) -> io::Result<()> {
        match self.error.take().map_or_else(|| self.stdout.flush(), Err) {
            Err(e) if e.kind() == io::ErrorKind::BrokenPipe => Ok(()),
            flushed => flushed,
        }
    }
}

fn main() -> ExitCode {
    let mut out = Output { stdout: io::stdout(), error: None };
    let code = run(&mut out).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    });
    match out.finish() {
        Ok(()) => code,
        Err(e) => {
            eprintln!("error: cannot write to stdout: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        Options::parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn empty_clients_are_refused_by_name() {
        for option in ["--threads", "--acquires"] {
            let e = parse(&[option, "0"]).err().expect("0 must be refused");
            assert!(e.contains(option), "{e}");
            assert!(parse(&[option, "3"]).is_ok());
            assert!(parse(&[option]).is_err());
        }
        let o = parse(&["--threads", "3", "--acquires", "2"]).unwrap();
        assert_eq!((o.threads, o.acquires), (3, 2));
    }

    #[test]
    fn memory_budget_saturates_instead_of_wrapping_to_unlimited() {
        assert_eq!(parse(&[]).unwrap().max_memory_bytes, 0);
        assert_eq!(parse(&["--max-memory-mb", "2"]).unwrap().max_memory_bytes, 2 << 20);
        // 2^44 MiB = 2^64 bytes: wrapped, that is 0 = unlimited.
        let huge = parse(&["--max-memory-mb", "17592186044416"]).unwrap();
        assert_eq!(huge.max_memory_bytes, u64::MAX);
    }
}
