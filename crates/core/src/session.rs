//! The push-button `Session` pipeline — the front door of the crate.
//!
//! A [`Session`] takes a program to a [`Report`] in one fluent chain:
//! pick the model matrix, the worker count and the checker, attach
//! budgets ([`Session::deadline`], [`Session::max_graphs`]), subscribe to
//! the typed event bus ([`Session::on_event`]: lifecycle, counter deltas,
//! optimizer steps — what a progress line or a step log is built from),
//! share a [`CancelToken`] with whatever supervises the run, optionally
//! request barrier optimization — and call [`Session::run`].
//!
//! ```
//! use vsync_core::Session;
//! use vsync_model::ModelKind;
//! use vsync_graph::Mode;
//! use vsync_lang::{ProgramBuilder, Reg};
//!
//! let mut pb = ProgramBuilder::new("handshake");
//! pb.thread(|t| { t.store(0x10, 1u64, Mode::Rel); });
//! pb.thread(|t| { t.await_eq(Reg(0), 0x10, 1u64, Mode::Acq); });
//! let program = pb.build().unwrap();
//!
//! let report = Session::new(program).models(ModelKind::all()).run();
//! assert!(report.is_verified());
//! assert_eq!(report.models.len(), 3);
//! ```
//!
//! ## Lifecycle
//!
//! [`Session::run`] explores the program once per model in the matrix
//! (in order, deduplicated) — or, if requested, optimizes under each
//! model and explores the printed program instead: the optimizer checks
//! its input only when no accepted relaxation vouches for it.
//! Cancellation, deadlines and resource budgets are
//! *cooperative*: every exploration worker re-checks the token on each
//! popped work item and the deadline every few dozen items, so an
//! interrupt surfaces as a [`Verdict::Inconclusive`] (with a
//! [`crate::StopReason`] and partial counters) within microseconds,
//! never mid-graph. A worker panic is caught per work item and surfaces
//! as [`Verdict::Error`] with the failing phase. The legacy free
//! functions ([`crate::verify`], [`crate::explore`], [`crate::optimize`])
//! remain as thin wrappers over the same engine.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use vsync_lang::Program;
use vsync_model::{CheckerKind, ModelKind};

use crate::explorer::explore_with;
use crate::json::Json;
use crate::optimize::{run_engine, Certifier, OptimizationReport, OptimizerConfig};
use crate::telemetry::{EngineEvent, EventBus, EventKind, PhaseProfile, SessionBus};
use crate::verdict::{AmcConfig, EnginePhase, ExploreStats, Verdict};

/// A shareable, thread-safe cancellation flag.
///
/// Clone it (cheap — an `Arc<AtomicBool>`) and hand it to whatever
/// supervises the run; every exploration worker checks it cooperatively
/// on each popped work item (one atomic load). Once fired it stays fired.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, unfired token.
    #[must_use]
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Fire the token: every run sharing it winds down at its next
    /// cancellation point and reports
    /// [`Verdict::Inconclusive`] with [`crate::StopReason::Cancelled`].
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Has this token been fired?
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Runtime controls threaded through the exploration hot loop: the
/// cancellation token, the absolute deadline, and the session's event
/// bus and profiling switch.
///
/// [`crate::explore_with`] accepts one directly; [`Session`] builds it
/// from its builder state.
#[derive(Debug, Clone, Default)]
pub struct RunControl {
    /// Cooperative cancellation flag (checked on every popped item).
    pub(crate) cancel: CancelToken,
    /// Absolute wall-clock cutoff (checked every few dozen items).
    pub(crate) deadline: Option<Instant>,
    /// The session's handle on the telemetry bus, when an event sink is
    /// attached (optimizer oracles inherit it via `..clone()`).
    pub(crate) events: Option<SessionBus>,
    /// Per-phase wall-clock profiling on/off ([`Session::profile`]);
    /// phase slices reach the bus only while it is on.
    pub(crate) profile: bool,
}

impl RunControl {
    /// A control tied to `token`, with no deadline and no event sink.
    #[must_use]
    pub fn with_cancel(token: CancelToken) -> Self {
        RunControl { cancel: token, ..RunControl::default() }
    }

    /// A control with an absolute deadline and no event sink.
    #[must_use]
    pub fn with_deadline(deadline: Instant) -> Self {
        RunControl { deadline: Some(deadline), ..RunControl::default() }
    }
}

/// The exploration of one model from a [`Session`]'s matrix.
#[derive(Debug, Clone)]
pub struct ModelRun {
    /// The memory model this run checked against.
    pub model: ModelKind,
    /// The verdict under this model.
    pub verdict: Verdict,
    /// Exploration counters (merged across workers).
    pub stats: ExploreStats,
    /// Wall-clock time of this model's run, optimization included.
    pub elapsed: Duration,
    /// Complete executions, when [`Session::collect_executions`] was set.
    pub executions: Vec<vsync_graph::ExecutionGraph>,
    /// Barrier-optimization report, when [`Session::optimize`] was
    /// requested and the input verified. The verdict, stats and
    /// executions above then describe the printed program; a closing
    /// exploration of it that did not verify is a [`Verdict::Error`].
    pub optimization: Option<OptimizationReport>,
}

/// Structured result of [`Session::run`]: one [`ModelRun`] per model in
/// the matrix, in matrix order.
#[derive(Debug, Clone)]
#[must_use = "a Report carries the verdicts — inspect or serialize it"]
pub struct Report {
    /// Name of the verified program.
    pub program: String,
    /// Per-model results, in matrix order.
    pub models: Vec<ModelRun>,
    /// Total wall-clock time of the session.
    pub elapsed: Duration,
}

impl Report {
    /// Did every model in the matrix verify?
    #[must_use]
    pub fn is_verified(&self) -> bool {
        self.models.iter().all(|m| m.verdict.is_verified())
    }

    /// Was any run cut short by cancellation, a deadline or a resource
    /// budget (i.e. is any verdict [`Verdict::Inconclusive`])?
    #[must_use]
    pub fn is_interrupted(&self) -> bool {
        self.models.iter().any(|m| {
            matches!(m.verdict, Verdict::Inconclusive(_))
                || m.optimization.as_ref().is_some_and(|o| o.interrupted)
        })
    }

    /// Did any run die to a caught engine panic or a failed closing
    /// certificate (i.e. is any verdict [`Verdict::Error`], or does any
    /// optimization carry an error)?
    #[must_use]
    pub fn is_errored(&self) -> bool {
        self.models.iter().any(|m| {
            matches!(m.verdict, Verdict::Error(_))
                || m.optimization.as_ref().is_some_and(|o| o.error.is_some())
        })
    }

    /// The run for a specific model, if it was in the matrix.
    #[must_use]
    pub fn for_model(&self, model: ModelKind) -> Option<&ModelRun> {
        self.models.iter().find(|m| m.model == model)
    }

    /// Field-wise sum of all per-model exploration counters.
    #[must_use]
    pub fn merged_stats(&self) -> ExploreStats {
        let mut total = ExploreStats::default();
        for m in &self.models {
            total.merge(&m.stats);
        }
        total
    }

    /// Human-readable multi-line report: one line per model, plus the
    /// rendered counterexample of the first failing model.
    #[must_use]
    pub fn render(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{}: {} ({:.1?})", self.program, self.summary_word(), self.elapsed);
        for m in &self.models {
            let _ =
                writeln!(out, "  {:<4} {} [{}] ({:.1?})", m.model, m.verdict, m.stats, m.elapsed);
            if let Some(o) = &m.optimization {
                let _ = write!(out, "{}", indent(&o.render(), "  "));
            }
        }
        if let Some(ce) = self.models.iter().find_map(|m| m.verdict.counterexample()) {
            let _ = writeln!(out, "counterexample:\n{}", ce.graph.render());
        }
        out
    }

    fn summary_word(&self) -> &'static str {
        if self.is_verified() {
            "verified"
        } else if self.is_errored() {
            "engine error"
        } else if self.is_interrupted() {
            "inconclusive"
        } else {
            "NOT verified"
        }
    }

    /// Serialize the report as JSON (dependency-free, stable key order).
    ///
    /// The schema is fixed and keys always appear in the same order, so
    /// tooling may diff two reports textually:
    ///
    /// ```text
    /// {"program", "verified", "interrupted", "elapsed_ms", "models": [
    ///    {"model", "verdict", "stop_reason", "message", "counterexample",
    ///     "elapsed_ms",
    ///     "stats": {popped, constructed, duplicates,
    ///               symmetry_pruned, inconsistent, revisits,
    ///               complete_executions, blocked_graphs, events,
    ///               frontier_dropped, probes,
    ///               "phases": {"<phase>": {count, total_ms, max_ms}}},
    ///     "optimization": null | {"verified", "interrupted", "error",
    ///        "verifications", "explorations", "certified", "closing",
    ///        "explored_graphs", "cache_hits", "elapsed_ms", "before", "after",
    ///        "steps": [{"site", "from", "to", "accepted"}]}}]}
    /// ```
    ///
    /// `verdict` is one of `"verified"`, `"safety"`, `"await_termination"`,
    /// `"fault"`, `"inconclusive"`, `"error"`; `stop_reason` is `null`
    /// unless the verdict is inconclusive, in which case it is one of
    /// `"cancelled"`, `"deadline"`, `"max_graphs"`, `"memory_budget"`;
    /// `message` carries the failure, interrupt or engine-error
    /// description (`null` when verified) and
    /// `counterexample` the rendered witness graph (`null` unless a
    /// violation was found).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        Json::new(&mut out).obj(|j| {
            j.key("program").str(&self.program);
            j.key("verified").bool(self.is_verified());
            j.key("interrupted").bool(self.is_interrupted());
            j.key("elapsed_ms").ms(self.elapsed);
            j.key("models").arr(|j| {
                for m in &self.models {
                    j.obj(|j| model_json(j, m));
                }
            });
        });
        out
    }
}

/// Stable JSON-kind tag for a verdict.
pub(crate) fn verdict_kind(v: &Verdict) -> &'static str {
    match v {
        Verdict::Verified => "verified",
        Verdict::Safety(_) => "safety",
        Verdict::AwaitTermination(_) => "await_termination",
        Verdict::Fault(_) => "fault",
        Verdict::Inconclusive(_) => "inconclusive",
        Verdict::Error(_) => "error",
    }
}

fn model_json(j: &mut Json<'_>, m: &ModelRun) {
    j.key("model").display(m.model);
    j.key("verdict").str(verdict_kind(&m.verdict));
    j.key("stop_reason").opt_str(m.verdict.stop_reason().map(|r| r.key()));
    j.key("message");
    match &m.verdict {
        Verdict::Verified => j.null(),
        Verdict::Safety(ce) | Verdict::AwaitTermination(ce) => j.str(&ce.message),
        Verdict::Fault(msg) => j.str(msg),
        Verdict::Inconclusive(i) => j.display(i),
        Verdict::Error(e) => j.display(e),
    };
    j.key("counterexample")
        .opt_str(m.verdict.counterexample().map(|ce| ce.graph.render()).as_deref());
    j.key("elapsed_ms").ms(m.elapsed);
    j.key("stats").obj(|j| stats_json(j, &m.stats));
    j.key("optimization");
    match &m.optimization {
        Some(o) => j.obj(|j| optimization_json(j, o)),
        None => j.null(),
    };
}

fn stats_json(j: &mut Json<'_>, s: &ExploreStats) {
    j.key("popped").uint(s.popped);
    j.key("constructed").uint(s.constructed);
    j.key("duplicates").uint(s.duplicates);
    j.key("symmetry_pruned").uint(s.symmetry_pruned);
    j.key("inconsistent").uint(s.inconsistent);
    j.key("revisits").uint(s.revisits);
    j.key("complete_executions").uint(s.complete_executions);
    j.key("blocked_graphs").uint(s.blocked_graphs);
    j.key("events").uint(s.events);
    j.key("frontier_dropped").uint(s.frontier_dropped);
    j.key("probes").uint(s.probes);
    j.key("phases").obj(|j| phases_json(j, &s.phases));
}

/// The members of a [`PhaseProfile`] object: one per phase with recorded
/// spans, in [`EnginePhase::ALL`](crate::EnginePhase::ALL) order.
/// Profiling-off runs (the default) serialize as `{}`, keeping the
/// schema deterministic.
pub(crate) fn phases_json(j: &mut Json<'_>, p: &PhaseProfile) {
    for (phase, s) in p.iter().filter(|(_, s)| s.count > 0) {
        j.key(phase.key()).obj(|j| {
            j.key("count").uint(s.count);
            j.key("total_ms").fixed3(s.total_ns as f64 / 1e6);
            j.key("max_ms").fixed3(s.max_ns as f64 / 1e6);
        });
    }
}

fn summary_json(j: &mut Json<'_>, s: &vsync_lang::BarrierSummary) {
    j.key("rlx").uint(s.rlx as u64).key("acq").uint(s.acq as u64).key("rel").uint(s.rel as u64);
    j.key("acq_rel").uint(s.acq_rel as u64).key("sc").uint(s.sc as u64);
}

fn optimization_json(j: &mut Json<'_>, o: &OptimizationReport) {
    j.key("verified").bool(o.verified);
    j.key("interrupted").bool(o.interrupted);
    j.key("error");
    match &o.error {
        Some(e) => j.display(e),
        None => j.null(),
    };
    j.key("verifications").uint(o.verifications);
    j.key("explorations").uint(o.explorations);
    j.key("certified").uint(o.certified);
    j.key("closing").uint(o.closing);
    j.key("explored_graphs").uint(o.explored_graphs);
    j.key("cache_hits").uint(o.cache_hits);
    j.key("elapsed_ms").ms(o.elapsed);
    j.key("before").obj(|j| summary_json(j, &o.before));
    j.key("after").obj(|j| summary_json(j, &o.after));
    j.key("steps").arr(|j| {
        for s in &o.steps {
            // Step sites are stored as indices; resolve to names here only.
            j.obj(|j| {
                j.key("site").str(o.site_name(s));
                j.key("from").display(s.from).key("to").display(s.to);
                j.key("accepted").bool(s.accepted);
            });
        }
    });
}

fn indent(s: &str, pad: &str) -> String {
    s.lines().map(|l| format!("{pad}{l}\n")).collect()
}

/// Builder for one push-button verification run: model matrix, workers,
/// budgets, events, cancellation, optimization — then [`Session::run`].
#[must_use = "a Session does nothing until .run() is called"]
pub struct Session {
    program: Program,
    models: Vec<ModelKind>,
    config: AmcConfig,
    deadline: Option<Duration>,
    cancel: CancelToken,
    optimizer: Option<OptimizerConfig>,
    optimize_scenarios: Vec<Program>,
    /// The bus [`Session::on_event`] wraps its sink in, or one the corpus
    /// runner shares across many sessions (one sequence counter, clock
    /// and session numbering).
    events: Option<Arc<EventBus>>,
    profile: bool,
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("program", &self.program.name())
            .field("models", &self.models)
            .field("config", &self.config)
            .field("deadline", &self.deadline)
            .field("optimize", &self.optimizer.is_some())
            .field("events", &self.events.is_some())
            .field("profile", &self.profile)
            .finish()
    }
}

impl Session {
    /// Start a session over `program`, with the default single-model
    /// matrix (`[ModelKind::Vmm]`) and default [`AmcConfig`].
    pub fn new(program: Program) -> Session {
        let config = AmcConfig::default();
        Session {
            program,
            models: vec![config.model],
            config,
            deadline: None,
            cancel: CancelToken::new(),
            optimizer: None,
            optimize_scenarios: Vec::new(),
            events: None,
            profile: false,
        }
    }

    /// Start a session from litmus DSL source text (see the `vsync-dsl`
    /// crate for the format). The session's model matrix is taken from
    /// the file's `expect` annotations, in annotation order; a file
    /// without annotations keeps the default matrix. The annotations'
    /// *verdicts* are not judged here — use [`crate::check_source`] (or
    /// the `vsync check` CLI) for expectation checking.
    ///
    /// ```
    /// use vsync_core::Session;
    ///
    /// let report = Session::from_source(r#"
    ///     litmus "handshake"
    ///     thread { store.rel flag, 1 }
    ///     thread { r0 = await_eq.acq flag, 1 }
    ///     expect vmm: verified
    /// "#).expect("well-formed").run();
    /// assert!(report.is_verified());
    /// ```
    ///
    /// # Errors
    ///
    /// Returns the first parse or lowering [`vsync_dsl::Diagnostic`].
    pub fn from_source(source: &str) -> Result<Session, vsync_dsl::Diagnostic> {
        let test = vsync_dsl::compile(source)?;
        let mut session = Session::new(test.program);
        if !test.expectations.is_empty() {
            session = session.models(test.expectations.iter().map(|e| e.model));
        }
        Ok(session)
    }

    /// [`Session::from_source`] for a `.litmus` file on disk; the path is
    /// stamped onto any diagnostic.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SourceError`] for unreadable or unparsable files.
    pub fn from_path(path: impl AsRef<std::path::Path>) -> Result<Session, crate::SourceError> {
        let path = path.as_ref();
        let label = path.display().to_string();
        let source =
            std::fs::read_to_string(path).map_err(|e| crate::SourceError::Io(label.clone(), e))?;
        Session::from_source(&source).map_err(|d| crate::SourceError::Parse(d.with_file(label)))
    }

    /// Check against a single memory model.
    pub fn model(self, model: ModelKind) -> Session {
        self.models([model])
    }

    /// Check against a matrix of memory models, in order. Duplicates are
    /// dropped (first occurrence wins). An *empty* matrix is refused —
    /// the previous matrix is kept — so a dynamically-filtered list that
    /// matches nothing can never produce a vacuously "verified" report.
    pub fn models(mut self, models: impl IntoIterator<Item = ModelKind>) -> Session {
        let mut matrix = Vec::new();
        for m in models {
            if !matrix.contains(&m) {
                matrix.push(m);
            }
        }
        if !matrix.is_empty() {
            self.models = matrix;
        }
        self
    }

    /// Explore with `workers` threads per model (`1` = inline on the
    /// calling thread; verdicts are worker-count independent).
    pub fn workers(mut self, workers: usize) -> Session {
        self.config.workers = workers.max(1);
        self
    }

    /// Select the consistency-checker implementation.
    pub fn checker(mut self, checker: CheckerKind) -> Session {
        self.config.checker = checker;
        self
    }

    /// Enable or disable thread-symmetry reduction (default on): with it,
    /// each orbit of executions under permutations of template-identical
    /// threads is explored once through its canonical representative, and
    /// pruned twins are reported as `symmetry_pruned`. Verdicts are
    /// unchanged; exploration counts become per-orbit counts. Disable to
    /// recover the naive twin-exploring counts as a reference oracle
    /// (the CLI's `--no-symmetry`).
    pub fn symmetry(mut self, enabled: bool) -> Session {
        self.config.symmetry = enabled;
        self
    }

    /// Wall-clock budget for the whole session (all models and the
    /// optimization phase together). When it expires, the current
    /// exploration returns [`Verdict::Inconclusive`] with
    /// [`crate::StopReason::DeadlineExceeded`] and the remaining matrix
    /// entries are reported as inconclusive without running.
    pub fn deadline(mut self, budget: Duration) -> Session {
        self.deadline = Some(budget);
        self
    }

    /// Hard cap on popped work items per exploration (0 = unlimited);
    /// exceeding it yields [`Verdict::Inconclusive`] with
    /// [`crate::StopReason::MaxGraphs`] and partial counters.
    pub fn max_graphs(mut self, max_graphs: u64) -> Session {
        self.config.max_graphs = max_graphs;
        self
    }

    /// Approximate heap budget for one exploration, in bytes (0 =
    /// unlimited). Covers the live work frontier and the dedup table;
    /// exhaustion degrades the run to [`Verdict::Inconclusive`] with
    /// [`crate::StopReason::MemoryBudget`] instead of aborting the
    /// process.
    pub fn max_memory_bytes(mut self, bytes: u64) -> Session {
        self.config.budget.max_memory_bytes = bytes;
        self
    }

    /// Keep every complete execution in the [`ModelRun`] (off by default;
    /// memory-hungry on large programs).
    pub fn collect_executions(mut self) -> Session {
        self.config.collect_executions = true;
        self
    }

    /// A [`CancelToken`] shared with this session: fire it from any
    /// thread to wind the run down at the next cancellation point.
    #[must_use]
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Adopt an external [`CancelToken`] instead of the session's own —
    /// how a supervisor (e.g. the corpus runner) shares one token across
    /// many sessions. Tokens previously handed out by
    /// [`Session::cancel_token`] stop affecting this session.
    pub fn with_cancel(mut self, token: CancelToken) -> Session {
        self.cancel = token;
        self
    }

    /// Run push-button barrier optimization under each model instead of
    /// a plain exploration. The model's run then reports the exploration
    /// of the printed program; the input is explored only when nothing
    /// vouches for it, and an input that does not verify reports its own
    /// verdict and no optimization. The `config`'s AMC settings are
    /// overridden by the session's (model, workers, checker, budgets),
    /// and a `cancel` token on the config is respected in addition to the
    /// session's own: it stops the search, not the explorations.
    pub fn optimize(mut self, config: OptimizerConfig) -> Session {
        self.optimizer = Some(config);
        self
    }

    /// Extra scenarios the optimization oracle must also verify (with the
    /// candidate barrier assignment transferred by site name) — the
    /// multi-scenario oracle of the qspinlock experiment.
    pub fn optimize_scenarios(mut self, scenarios: Vec<Program>) -> Session {
        self.optimize_scenarios = scenarios;
        self
    }

    /// Subscribe to the session's typed telemetry stream: every
    /// [`EngineEvent`] — lifecycle, per-worker stats deltas, optimizer
    /// steps, budget warnings, faults, and phase slices when
    /// [`Session::profile`] is on — in one sequence-numbered channel. It
    /// is the only way to watch a run: fire [`Session::cancel_token`]
    /// from it to stop one. The callback runs on whichever engine thread
    /// emits; with one exploration worker the stream is fully
    /// deterministic (see DESIGN.md §13).
    pub fn on_event(mut self, callback: impl Fn(&EngineEvent) + Send + Sync + 'static) -> Session {
        self.events = Some(Arc::new(EventBus::new(Arc::new(callback))));
        self
    }

    /// Enable per-phase wall-clock profiling: both exploration drivers
    /// time their engine phases into the run's
    /// [`ExploreStats::phases`] [`PhaseProfile`] (surfaced in
    /// [`Report::to_json`] and [`render_metrics`](crate::render_metrics))
    /// and, with an event sink attached, stream it as `phase_slice`
    /// events. Off by default, and an attached sink does not turn it on:
    /// the disabled path is a single branch per phase transition, with no
    /// clock read.
    pub fn profile(mut self, on: bool) -> Session {
        self.profile = on;
        self
    }

    /// Share a pre-built [`EventBus`] (corpus runner): many sessions, one
    /// sequence counter, clock and session numbering.
    pub(crate) fn with_event_bus(mut self, bus: Arc<EventBus>) -> Session {
        self.events = Some(bus);
        self
    }

    /// Run the pipeline: explore each model in the matrix, or optimize
    /// under it if requested, and assemble the [`Report`].
    pub fn run(self) -> Report {
        self.run_with(None)
    }

    /// [`Session::run`] with `certifier` in place of the model's
    /// certificate check — the test hook that shows a wrong certificate
    /// is caught by the closing exploration.
    #[doc(hidden)]
    pub fn run_with_certifier(self, certifier: Certifier) -> Report {
        self.run_with(Some(certifier))
    }

    fn run_with(self, certifier: Option<Certifier>) -> Report {
        let started = Instant::now();
        let bus =
            self.events.as_ref().map(|b| b.start_session(self.program.name(), self.models.len()));
        let control = RunControl {
            cancel: self.cancel.clone(),
            deadline: self.deadline.map(|d| started + d),
            events: bus.clone(),
            profile: self.profile,
        };
        let mut runs = Vec::new();
        for &model in &self.models {
            let mut config = self.config.clone();
            config.model = model;
            if let Some(bus) = &bus {
                bus.emit(EventKind::ExploreStart { model, workers: config.workers.max(1) });
            }
            let t0 = Instant::now();
            let (result, optimization) = match &self.optimizer {
                None => (explore_with(&self.program, &config, &control), None),
                Some(ocfg) => {
                    // The session's AMC settings and controls: the token,
                    // deadline and bus reach every oracle exploration, and
                    // each decided step goes on the bus. The run reports
                    // the exploration of the printed program (DESIGN.md
                    // §7.5); the input is explored only when nothing
                    // vouches for it.
                    let ocfg = OptimizerConfig { amc: config.clone(), ..ocfg.clone() };
                    let scenarios = &self.optimize_scenarios;
                    let out =
                        run_engine(&self.program, scenarios, &ocfg, control.clone(), certifier);
                    let mut result = out.primary.result;
                    // The printed program's exploration keeps its phases;
                    // the rest of the optimizer's wall clock is one
                    // `Optimize` span, so the profile covers the whole run.
                    if control.profile {
                        let rest = out.report.elapsed.saturating_sub(out.primary.elapsed);
                        result.stats.phases.record(EnginePhase::Optimize, rest);
                    }
                    (result, out.input_verified.then_some(out.report))
                }
            };
            if let Some(bus) = &bus {
                bus.emit(EventKind::ExploreFinish { model, verdict: verdict_kind(&result.verdict) });
                match &result.verdict {
                    Verdict::Inconclusive(i) => {
                        bus.emit(EventKind::BudgetWarning { model, reason: i.reason.key() });
                    }
                    Verdict::Error(e) => {
                        bus.emit(EventKind::EngineFault {
                            model,
                            phase: e.phase,
                            payload: e.payload.clone(),
                        });
                    }
                    _ => {}
                }
            }
            runs.push(ModelRun {
                model,
                verdict: result.verdict,
                stats: result.stats,
                elapsed: t0.elapsed(),
                executions: result.executions,
                optimization,
            });
        }
        let report = Report {
            program: self.program.name().to_owned(),
            models: runs,
            elapsed: started.elapsed(),
        };
        if let Some(bus) = &bus {
            bus.emit(EventKind::SessionFinish { verified: report.is_verified() });
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verdict::{Inconclusive, StopReason};
    use vsync_graph::Mode;
    use vsync_lang::{ProgramBuilder, Reg};

    fn handshake() -> Program {
        let mut pb = ProgramBuilder::new("handshake");
        pb.thread(|t| {
            t.store(0x10, 1u64, Mode::Rel);
        });
        pb.thread(|t| {
            t.await_eq(Reg(0), 0x10, 1u64, Mode::Acq);
        });
        pb.build().unwrap()
    }

    #[test]
    fn from_path_on_missing_file_names_the_path() {
        let err = Session::from_path("/nonexistent/dir/mp.litmus")
            .expect_err("a missing file must be a structured error");
        let crate::SourceError::Io(path, _) = &err else {
            panic!("expected SourceError::Io, got {err}");
        };
        assert_eq!(path, "/nonexistent/dir/mp.litmus");
        assert!(err.to_string().contains("cannot read /nonexistent/dir/mp.litmus"), "{err}");
    }

    #[test]
    fn session_matrix_dedups_and_orders() {
        let report =
            Session::new(handshake()).models([ModelKind::Tso, ModelKind::Sc, ModelKind::Tso]).run();
        let kinds: Vec<ModelKind> = report.models.iter().map(|m| m.model).collect();
        assert_eq!(kinds, vec![ModelKind::Tso, ModelKind::Sc]);
        assert!(report.is_verified());
        assert!(!report.is_interrupted());
        assert!(report.for_model(ModelKind::Sc).is_some());
        assert!(report.for_model(ModelKind::Vmm).is_none());
        let merged = report.merged_stats();
        assert_eq!(merged.popped, report.models.iter().map(|m| m.stats.popped).sum::<u64>());
    }

    #[test]
    fn cancelled_token_interrupts_before_work() {
        let s = Session::new(handshake());
        s.cancel_token().cancel();
        let report = s.run();
        assert!(report.is_interrupted());
        assert!(matches!(
            report.models[0].verdict,
            Verdict::Inconclusive(Inconclusive { reason: StopReason::Cancelled, .. })
        ));
        // No work item was processed.
        assert_eq!(report.models[0].stats.popped, 0);
    }

    #[test]
    fn empty_model_matrix_is_refused() {
        let report = Session::new(handshake()).models(std::iter::empty::<ModelKind>()).run();
        assert_eq!(report.models.len(), 1, "default matrix kept");
        assert_eq!(report.models[0].model, ModelKind::Vmm);
    }

    #[test]
    fn report_render_mentions_every_model() {
        let report = Session::new(handshake()).models(ModelKind::all()).run();
        let text = report.render();
        for m in ModelKind::all() {
            assert!(text.contains(&m.to_string()), "missing {m} in:\n{text}");
        }
        assert!(text.contains("verified"));
    }
}
