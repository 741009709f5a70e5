//! Unified engine telemetry: per-phase wall-clock profiling, the typed
//! event bus, and the exporters (Chrome-trace writer, metrics table).
//!
//! The bus is the one way to observe a run: lifecycle, per-worker
//! counter deltas, phase time, optimizer steps and faults flow through
//! one typed stream of [`EngineEvent`]s with monotonic sequence numbers,
//! stamped against a single clock and with the number of the session
//! that emitted them. Progress lines and step logs are subscribers, not
//! channels of their own. The layer is near-zero-cost when disabled:
//! drivers consult one `bool` (`RunControl::profile`) per phase
//! transition and one `Option` per pacer drain; with both off no
//! telemetry code allocates or takes a lock (see DESIGN.md §13 for the
//! overhead model and the CI gate).
//!
//! * [`PhaseProfile`] / [`PhaseStat`] — per-[`EnginePhase`] total/count/
//!   max aggregates, surfaced in `ExploreStats`, `Report::to_json` and
//!   corpus JSON;
//! * `PhaseTracker` — the per-worker scoped timer both exploration
//!   drivers thread through their hot loops (a drop-in for the old
//!   `Cell<EnginePhase>` panic-attribution cell);
//! * `EventBus` / `SessionBus` (crate-private) / [`EngineEvent`] /
//!   [`EventKind`] — the typed bus behind `Session::on_event`, drained at
//!   the existing pacer cadence so per-worker buffers never add hot-loop
//!   synchronization;
//! * [`TraceWriter`] — a Perfetto-loadable Chrome-trace JSON writer
//!   (one event object per line, one process track per session);
//! * [`render_metrics`] — the human `--metrics` summary table.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use vsync_graph::Mode;
use vsync_model::ModelKind;

use crate::json::Json;
use crate::verdict::{EnginePhase, ExploreStats};

// ---------------------------------------------------------------------
// Phase profiling
// ---------------------------------------------------------------------

/// Wall-clock aggregate for one [`EnginePhase`]: total time spent,
/// number of spans, and the longest single span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// Total nanoseconds attributed to the phase.
    pub total_ns: u64,
    /// Number of spans (phase entries) recorded.
    pub count: u64,
    /// Longest single span, in nanoseconds.
    pub max_ns: u64,
}

impl PhaseStat {
    /// Total time as a [`Duration`].
    #[must_use]
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.total_ns)
    }

    /// Longest single span as a [`Duration`].
    #[must_use]
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max_ns)
    }
}

/// Per-phase wall-clock attribution for one run (or one pacer slice):
/// a [`PhaseStat`] per [`EnginePhase`], indexed by
/// [`EnginePhase::index`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseProfile {
    spans: [PhaseStat; EnginePhase::COUNT],
}

impl PhaseProfile {
    /// The aggregate for one phase.
    #[must_use]
    pub fn get(&self, phase: EnginePhase) -> PhaseStat {
        self.spans[phase.index()]
    }

    /// Attribute one span of `elapsed` to `phase`.
    pub fn record(&mut self, phase: EnginePhase, elapsed: Duration) {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        let s = &mut self.spans[phase.index()];
        s.total_ns = s.total_ns.saturating_add(ns);
        s.count += 1;
        s.max_ns = s.max_ns.max(ns);
    }

    /// Count one entry into `phase`. Entries and elapsed time are
    /// tracked separately by [`PhaseTracker`]: the entry is counted when
    /// the span opens, the time when it closes (or is rolled into a
    /// snapshot) — so neither mid-span snapshots nor a span still open
    /// at drain time can skew `count`. The count invariants (e.g. one
    /// `FinalCheck` entry per complete execution) depend on this.
    fn enter(&mut self, phase: EnginePhase) {
        self.spans[phase.index()].count += 1;
    }

    /// Attribute `elapsed` to `phase` without counting an entry — the
    /// closing half of [`PhaseProfile::enter`], also used to roll the
    /// still-open span into a snapshot. `max_ns` tracks the largest
    /// closed chunk (a span split across snapshots reports its largest
    /// fragment).
    fn extend(&mut self, phase: EnginePhase, elapsed: Duration) {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        let s = &mut self.spans[phase.index()];
        s.total_ns = s.total_ns.saturating_add(ns);
        s.max_ns = s.max_ns.max(ns);
    }

    /// Accumulate another profile (totals and counts add, maxima take
    /// the max) — used to merge per-worker profiles.
    pub fn merge(&mut self, other: &PhaseProfile) {
        for (s, o) in self.spans.iter_mut().zip(&other.spans) {
            s.total_ns = s.total_ns.saturating_add(o.total_ns);
            s.count += o.count;
            s.max_ns = s.max_ns.max(o.max_ns);
        }
    }

    /// Per-phase `self - earlier` (totals and counts subtract,
    /// saturating; `max_ns` keeps `self`'s running maximum, so a slice's
    /// max is "max so far", not "max within the slice").
    #[must_use]
    pub fn minus(&self, earlier: &PhaseProfile) -> PhaseProfile {
        let mut out = *self;
        for (s, e) in out.spans.iter_mut().zip(&earlier.spans) {
            s.total_ns = s.total_ns.saturating_sub(e.total_ns);
            s.count = s.count.saturating_sub(e.count);
        }
        out
    }

    /// True when no span has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spans.iter().all(|s| s.count == 0)
    }

    /// Sum of all per-phase totals.
    #[must_use]
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.spans.iter().map(|s| s.total_ns).sum())
    }

    /// Phase transitions recorded: every span entry is one
    /// `PhaseTracker::set` that read the clock.
    #[must_use]
    pub fn transitions(&self) -> u64 {
        self.spans.iter().map(|s| s.count).sum()
    }

    /// Iterate `(phase, stat)` pairs in [`EnginePhase::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (EnginePhase, PhaseStat)> + '_ {
        EnginePhase::ALL.iter().map(|&p| (p, self.spans[p.index()]))
    }
}

/// What one `Instant::now()` costs on this machine, in nanoseconds — the
/// floor of what profiling adds per phase transition, since a profiled
/// `PhaseTracker::set` reads the clock once. Timed once per process (best
/// of a few short batches: noise only ever adds time).
#[must_use]
pub fn clock_read_ns() -> f64 {
    static NS: OnceLock<f64> = OnceLock::new();
    *NS.get_or_init(|| {
        const READS: u32 = 4096;
        let batch = || {
            let t0 = Instant::now();
            for _ in 0..READS {
                std::hint::black_box(Instant::now());
            }
            t0.elapsed().as_nanos() as f64 / f64::from(READS)
        };
        (0..4).map(|_| batch()).fold(f64::INFINITY, f64::min)
    })
}

/// The per-worker scoped phase timer. A drop-in replacement for the
/// `Cell<EnginePhase>` the drivers previously used for panic
/// attribution: [`PhaseTracker::set`]/[`PhaseTracker::get`] keep the
/// same call-site shape, and additionally attribute the elapsed
/// wall-clock of the span being left — but only when profiling is
/// enabled; disabled, `set` is one branch and a plain `Cell` store, and
/// no `Instant::now()` is ever taken.
pub(crate) struct PhaseTracker {
    current: Cell<EnginePhase>,
    since: Cell<Instant>,
    enabled: bool,
    profile: RefCell<PhaseProfile>,
}

impl PhaseTracker {
    pub(crate) fn new(enabled: bool) -> PhaseTracker {
        let mut profile = PhaseProfile::default();
        if enabled {
            // The tracker opens in `Driver`; count that first entry here
            // since no `set` transition will.
            profile.enter(EnginePhase::Driver);
        }
        PhaseTracker {
            current: Cell::new(EnginePhase::Driver),
            since: Cell::new(Instant::now()),
            enabled,
            profile: RefCell::new(profile),
        }
    }

    /// Enter `phase`, closing (and, when enabled, timing) the current
    /// span. Re-entering the running phase is a no-op — the span simply
    /// continues — which keeps redundant sets (e.g. `admit` called from
    /// a context already attributing to `Probe`) off the clock.
    pub(crate) fn set(&self, phase: EnginePhase) {
        if self.enabled {
            let prev = self.current.get();
            if prev == phase {
                return;
            }
            let now = Instant::now();
            let mut p = self.profile.borrow_mut();
            p.extend(prev, now.duration_since(self.since.get()));
            p.enter(phase);
            self.since.set(now);
        }
        self.current.set(phase);
    }

    /// The phase currently executing (panic attribution).
    pub(crate) fn get(&self) -> EnginePhase {
        self.current.get()
    }

    /// The profile so far, with the open span's elapsed time rolled in
    /// (and the span restarted — its entry is counted when it closes).
    pub(crate) fn snapshot(&self) -> PhaseProfile {
        if self.enabled {
            let now = Instant::now();
            self.profile
                .borrow_mut()
                .extend(self.current.get(), now.duration_since(self.since.get()));
            self.since.set(now);
        }
        *self.profile.borrow()
    }
}

// ---------------------------------------------------------------------
// The typed event bus
// ---------------------------------------------------------------------

/// An event sink: called synchronously from whichever thread emits.
pub type EventFn = Arc<dyn Fn(&EngineEvent) + Send + Sync>;

/// One telemetry event: a monotonic sequence number, the emitting
/// session, a timestamp relative to the owning bus's epoch, and the typed
/// payload.
///
/// Sequence numbers are allocated atomically at emission, so a
/// single-worker run's stream is fully deterministic (same program,
/// same config ⇒ same sequence of [`EventKind`]s); with multiple
/// workers the interleaving of `StatsDelta`/`PhaseSlice` events is
/// racy by nature, but `seq` still totally orders the stream.
#[derive(Debug, Clone)]
pub struct EngineEvent {
    /// Monotonic sequence number (0-based, gap-free per bus).
    pub seq: u64,
    /// The emitting session, numbered from 1 in `session_start` order on
    /// its bus (every session of a corpus run shares one bus); 0 for the
    /// corpus runner's own events, which belong to no session.
    pub session: u64,
    /// Time since the bus was created (the session clock).
    pub ts: Duration,
    /// The typed payload.
    pub kind: EventKind,
}

/// The event taxonomy (DESIGN.md §13 documents nesting rules).
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum EventKind {
    /// A session run started.
    SessionStart {
        /// Program name.
        program: String,
        /// Number of models in the matrix.
        models: usize,
    },
    /// The session run finished.
    SessionFinish {
        /// Did every model verify?
        verified: bool,
    },
    /// One model's exploration started.
    ExploreStart {
        /// The model being explored.
        model: ModelKind,
        /// Worker threads for this exploration.
        workers: usize,
    },
    /// One model's exploration finished.
    ExploreFinish {
        /// The model explored.
        model: ModelKind,
        /// Stable verdict kind key (`"verified"`, `"safety"`, ...).
        verdict: &'static str,
    },
    /// Per-worker counter delta since that worker's previous delta
    /// (drained at pacer cadence; `stats.phases` is always empty here —
    /// phase time arrives as [`EventKind::PhaseSlice`]).
    StatsDelta {
        /// Emitting worker index.
        worker: usize,
        /// Counters accumulated since the last delta from this worker.
        stats: ExploreStats,
    },
    /// Per-worker phase-time slice since that worker's previous slice.
    PhaseSlice {
        /// Emitting worker index.
        worker: usize,
        /// Phase time accumulated since the last slice from this worker.
        phases: PhaseProfile,
    },
    /// One optimizer relaxation step (accepted or rejected).
    OptimizeStep {
        /// Optimizer pass number.
        pass: usize,
        /// Barrier-site name.
        site: String,
        /// Mode before the step.
        from: Mode,
        /// Mode the step tried.
        to: Mode,
        /// Did the relaxation verify?
        accepted: bool,
    },
    /// A run degraded to `Inconclusive` (budget / deadline / cancel).
    BudgetWarning {
        /// The model whose run degraded.
        model: ModelKind,
        /// Stable [`StopReason`](crate::StopReason) key.
        reason: &'static str,
    },
    /// A caught engine panic surfaced as `Verdict::Error`.
    EngineFault {
        /// The model whose run errored.
        model: ModelKind,
        /// Phase the panicking code was executing.
        phase: EnginePhase,
        /// The panic payload.
        payload: String,
    },
    /// The corpus runner quarantined a file after a caught panic.
    Quarantine {
        /// Path of the quarantined file.
        path: String,
    },
    /// The corpus runner finished judging one file.
    CorpusFile {
        /// Path of the file.
        path: String,
        /// Did every expectation hold?
        passed: bool,
    },
}

impl EventKind {
    /// Stable machine-readable identifier for the event kind.
    #[must_use]
    pub fn key(&self) -> &'static str {
        match self {
            EventKind::SessionStart { .. } => "session_start",
            EventKind::SessionFinish { .. } => "session_finish",
            EventKind::ExploreStart { .. } => "explore_start",
            EventKind::ExploreFinish { .. } => "explore_finish",
            EventKind::StatsDelta { .. } => "stats_delta",
            EventKind::PhaseSlice { .. } => "phase_slice",
            EventKind::OptimizeStep { .. } => "optimize_step",
            EventKind::BudgetWarning { .. } => "budget_warning",
            EventKind::EngineFault { .. } => "engine_fault",
            EventKind::Quarantine { .. } => "quarantine",
            EventKind::CorpusFile { .. } => "corpus_file",
        }
    }
}

/// The event bus: one sink, one clock, one atomic sequence counter and
/// one session counter. A corpus run shares one bus across every file's
/// session; each session emits through its own [`SessionBus`].
pub(crate) struct EventBus {
    sink: EventFn,
    seq: AtomicU64,
    sessions: AtomicU64,
    started: Instant,
}

impl EventBus {
    pub(crate) fn new(sink: EventFn) -> EventBus {
        EventBus {
            sink,
            seq: AtomicU64::new(0),
            sessions: AtomicU64::new(0),
            started: Instant::now(),
        }
    }

    /// Number a new session and emit its `session_start`.
    pub(crate) fn start_session(self: &Arc<Self>, program: &str, models: usize) -> SessionBus {
        let session = self.sessions.fetch_add(1, Ordering::Relaxed) + 1;
        let bus = SessionBus { bus: Arc::clone(self), session };
        bus.emit(EventKind::SessionStart { program: program.to_owned(), models });
        bus
    }

    /// Stamp and deliver one event of `session` (0: no session).
    pub(crate) fn emit(&self, session: u64, kind: EventKind) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let ev = EngineEvent { seq, session, ts: self.started.elapsed(), kind };
        (self.sink)(&ev);
    }
}

impl std::fmt::Debug for EventBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventBus").field("seq", &self.seq.load(Ordering::Relaxed)).finish()
    }
}

/// One session's handle on the bus, cloned into every `RunControl` the
/// session builds: the optimizer's oracle explorations emit through it
/// too, so every event of the session carries its number.
#[derive(Debug, Clone)]
pub(crate) struct SessionBus {
    bus: Arc<EventBus>,
    session: u64,
}

impl SessionBus {
    pub(crate) fn emit(&self, kind: EventKind) {
        self.bus.emit(self.session, kind);
    }
}

// ---------------------------------------------------------------------
// Chrome-trace exporter
// ---------------------------------------------------------------------

/// Writes an [`EngineEvent`] stream as a Chrome-trace JSON array —
/// loadable by Perfetto / `chrome://tracing` — with one event object
/// per line. [`TraceWriter::finish`] closes the array; a truncated
/// (unfinished) file is still loadable by Perfetto, which tolerates a
/// missing `]`.
///
/// Mapping: session *s* is process `s + 1`, so sessions that run
/// concurrently (corpus `--jobs N`) never share a track; the corpus
/// runner's own events (session 0) stay on process 1. Within a session,
/// the session and its explorations become `B`/`E` duration pairs on tid
/// 0; [`EventKind::PhaseSlice`]s are laid out as back-to-back `X`
/// complete spans on tid `worker + 1` (a per-track cursor keeps slices
/// non-overlapping — within a slice the per-phase ordering is synthetic,
/// the durations are real); [`EventKind::StatsDelta`]s accumulate into
/// `C` counter samples on the same tid; everything else is an instant on
/// tid 0.
pub struct TraceWriter {
    inner: Mutex<TraceInner>,
}

struct TraceInner {
    out: BufWriter<File>,
    /// The line being written (one buffer, reused).
    line: String,
    /// Has any event line been written yet (for comma placement)?
    first: bool,
    /// Per-`(pid, tid)` layout state.
    tracks: HashMap<(u64, usize), Track>,
    finished: bool,
}

/// Layout state of one `(pid, tid)` track.
#[derive(Default)]
struct Track {
    /// Phase-slice layout cursor (ns since epoch).
    cursor: u64,
    /// Accumulated counter totals (counter samples are cumulative in the
    /// Chrome-trace model).
    totals: ExploreStats,
}

impl TraceWriter {
    /// Create (truncating) the trace file and write the array opener
    /// plus process metadata.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn create(path: &Path) -> io::Result<TraceWriter> {
        let mut out = BufWriter::new(File::create(path)?);
        out.write_all(b"[\n")?;
        let w = TraceWriter {
            inner: Mutex::new(TraceInner {
                out,
                line: String::new(),
                first: true,
                tracks: HashMap::new(),
                finished: false,
            }),
        };
        w.with_inner(|inner| Self::meta(inner, "process_name", 1, 0, "vsync"));
        Ok(w)
    }

    /// An [`EventFn`] feeding this writer (pass to `Session::on_event`).
    #[must_use]
    pub fn sink(self: &Arc<Self>) -> EventFn {
        let w = Arc::clone(self);
        Arc::new(move |ev| w.handle(ev))
    }

    fn with_inner(&self, f: impl FnOnce(&mut TraceInner)) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if !inner.finished {
            f(&mut inner);
        }
    }

    /// One event object, written by `body`, as the next line.
    fn line(inner: &mut TraceInner, body: impl FnOnce(&mut Json<'_>)) {
        inner.line.clear();
        if !std::mem::replace(&mut inner.first, false) {
            inner.line.push_str(",\n");
        }
        Json::new(&mut inner.line).obj(body);
        // Trace output is best-effort: an exporter I/O error must never
        // fail the verification run it is observing.
        let _ = inner.out.write_all(inner.line.as_bytes());
    }

    /// A metadata record naming a process or a thread (Perfetto labels).
    fn meta(
        inner: &mut TraceInner,
        what: &str,
        pid: u64,
        tid: usize,
        label: impl fmt::Display,
    ) {
        Self::line(inner, |j| {
            j.key("name").str(what).key("ph").str("M");
            j.key("pid").uint(pid).key("tid").uint(tid as u64);
            j.key("args").obj(|j| _ = j.key("name").display(label));
        });
    }

    /// The `(pid, tid)` track; a new one is named first.
    fn track(inner: &mut TraceInner, pid: u64, tid: usize, label: impl fmt::Display) -> &mut Track {
        if !inner.tracks.contains_key(&(pid, tid)) {
            Self::meta(inner, "thread_name", pid, tid, label);
        }
        inner.tracks.entry((pid, tid)).or_default()
    }

    /// A `B`/`E` duration record, or an `i` instant, on the session's
    /// tid 0.
    fn record(
        inner: &mut TraceInner,
        (pid, ts): (u64, Duration),
        ph: &str,
        cat: &str,
        name: impl fmt::Display,
        args: impl FnOnce(&mut Json<'_>),
    ) {
        Self::line(inner, |j| {
            j.key("name").display(name).key("ph").str(ph).key("ts").us(ts);
            j.key("pid").uint(pid).key("tid").uint(0);
            if ph == "i" {
                j.key("s").str("g");
            }
            j.key("cat").str(cat).key("args").obj(args);
        });
    }

    fn instant(
        inner: &mut TraceInner,
        at: (u64, Duration),
        name: &str,
        args: impl FnOnce(&mut Json<'_>),
    ) {
        Self::record(inner, at, "i", "engine", name, args);
    }

    fn handle(&self, ev: &EngineEvent) {
        let pid = ev.session + 1;
        let at = (pid, ev.ts);
        self.with_inner(|inner| match &ev.kind {
            EventKind::SessionStart { program, models } => {
                let label = format_args!("session {}: {program}", ev.session);
                Self::meta(inner, "process_name", pid, 0, label);
                Self::track(inner, pid, 0, "session");
                Self::record(inner, at, "B", "session", "session", |j| {
                    j.key("program").str(program).key("models").uint(*models as u64);
                });
            }
            EventKind::SessionFinish { verified } => {
                let args = |j: &mut Json<'_>| _ = j.key("verified").bool(*verified);
                Self::record(inner, at, "E", "session", "session", args);
            }
            EventKind::ExploreStart { model, workers } => {
                let args = |j: &mut Json<'_>| _ = j.key("workers").uint(*workers as u64);
                Self::record(inner, at, "B", "explore", format_args!("explore {model}"), args);
            }
            EventKind::ExploreFinish { model, verdict } => {
                let args = |j: &mut Json<'_>| _ = j.key("verdict").str(verdict);
                Self::record(inner, at, "E", "explore", format_args!("explore {model}"), args);
            }
            EventKind::StatsDelta { worker, stats } => {
                let tid = worker + 1;
                let track = Self::track(inner, pid, tid, format_args!("worker {worker}"));
                track.totals.merge(stats);
                let t = track.totals;
                Self::line(inner, |j| {
                    j.key("name").str("stats").key("ph").str("C").key("ts").us(ev.ts);
                    j.key("pid").uint(pid).key("tid").uint(tid as u64);
                    j.key("args").obj(|j| {
                        j.key("constructed").uint(t.constructed);
                        j.key("complete_executions").uint(t.complete_executions);
                        j.key("duplicates").uint(t.duplicates).key("probes").uint(t.probes);
                    });
                });
            }
            EventKind::PhaseSlice { worker, phases } => {
                let tid = worker + 1;
                // Lay the slice's per-phase spans back-to-back, ending at
                // the drain timestamp (so slices read as contiguous work
                // leading up to each drain).
                let total_ns: u64 = phases.iter().map(|(_, s)| s.total_ns).sum();
                let end_ns = u64::try_from(ev.ts.as_nanos()).unwrap_or(u64::MAX);
                let spans = || phases.iter().filter(|(_, s)| s.count > 0);
                let track = Self::track(inner, pid, tid, format_args!("worker {worker}"));
                let mut cur = track.cursor.max(end_ns.saturating_sub(total_ns));
                track.cursor = cur + spans().map(|(_, s)| s.total_ns).sum::<u64>();
                for (phase, stat) in spans() {
                    let dur = Duration::from_nanos(stat.total_ns).max(Duration::from_micros(1));
                    Self::line(inner, |j| {
                        j.key("name").str(phase.key()).key("ph").str("X");
                        j.key("ts").us(Duration::from_nanos(cur)).key("dur").us(dur);
                        j.key("pid").uint(pid).key("tid").uint(tid as u64).key("cat").str("phase");
                        j.key("args").obj(|j| _ = j.key("count").uint(stat.count));
                    });
                    cur += stat.total_ns;
                }
            }
            EventKind::OptimizeStep { pass, site, from, to, accepted } => {
                Self::instant(inner, at, "optimize_step", |j| {
                    j.key("pass").uint(*pass as u64).key("site").str(site);
                    j.key("from").display(from).key("to").display(to);
                    j.key("accepted").bool(*accepted);
                });
            }
            EventKind::BudgetWarning { model, reason } => {
                Self::instant(inner, at, "budget_warning", |j| {
                    j.key("model").display(model).key("reason").str(reason);
                });
            }
            EventKind::EngineFault { model, phase, payload } => {
                Self::instant(inner, at, "engine_fault", |j| {
                    j.key("model").display(model).key("phase").display(phase);
                    j.key("payload").str(payload);
                });
            }
            EventKind::Quarantine { path } => {
                Self::instant(inner, at, "quarantine", |j| _ = j.key("path").str(path));
            }
            EventKind::CorpusFile { path, passed } => {
                Self::instant(inner, at, "corpus_file", |j| {
                    j.key("path").str(path).key("passed").bool(*passed);
                });
            }
        });
    }

    /// Close the JSON array and flush.
    ///
    /// # Errors
    ///
    /// Any I/O error flushing the file.
    pub fn finish(&self) -> io::Result<()> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if inner.finished {
            return Ok(());
        }
        inner.finished = true;
        inner.out.write_all(b"\n]\n")?;
        inner.out.flush()
    }
}

// ---------------------------------------------------------------------
// Metrics table
// ---------------------------------------------------------------------

fn fmt_ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

/// Render the human `--metrics` summary: one row per phase with any
/// recorded spans (count, total, mean, max, share), plus the
/// unattributed remainder. `profile` sums the phase time of `workers`
/// concurrent threads, so shares are taken of the thread time available,
/// `wall × workers`, and add up to at most 100 %. Printed to stderr by
/// the CLI so `--json` stdout stays machine-parseable.
#[must_use]
pub fn render_metrics(profile: &PhaseProfile, wall: Duration, workers: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:>10} {:>12} {:>10} {:>10} {:>7}",
        "phase", "count", "total_ms", "mean_us", "max_us", "share"
    );
    let available = wall.saturating_mul(u32::try_from(workers.max(1)).unwrap_or(u32::MAX));
    let available_ns = u64::try_from(available.as_nanos()).unwrap_or(u64::MAX).max(1);
    for (phase, s) in profile.iter().filter(|(_, s)| s.count > 0) {
        let _ = writeln!(
            out,
            "{:<12} {:>10} {:>12} {:>10.1} {:>10.1} {:>6.1}%",
            phase.key(),
            s.count,
            fmt_ms(s.total()),
            s.total_ns as f64 / s.count as f64 / 1e3,
            s.max_ns as f64 / 1e3,
            s.total_ns as f64 * 100.0 / available_ns as f64
        );
    }
    let other = available.saturating_sub(profile.total());
    let _ = writeln!(
        out,
        "{:<12} {:>10} {:>12} {:>10} {:>10} {:>6.1}%",
        "(other)",
        "-",
        fmt_ms(other),
        "-",
        "-",
        other.as_nanos() as f64 * 100.0 / available_ns as f64
    );
    let _ = writeln!(
        out,
        "{:<12} {:>10} {:>12} {:>10} {:>10} {:>7}",
        "wall",
        "-",
        fmt_ms(wall),
        "-",
        "-",
        "-"
    );
    // Every transition read the clock once, inside the span it closed: a
    // phase whose mean is near the clock-read cost is mostly that cost.
    let (transitions, read_ns) = (profile.transitions(), clock_read_ns());
    let _ = writeln!(
        out,
        "profiling: {transitions} phase transitions, each at least a ~{read_ns:.0} ns clock read: \
         >= ~{} ms of the time above is the profiler's own",
        fmt_ms(Duration::from_nanos((transitions as f64 * read_ns) as u64)),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_record_merge_minus() {
        let mut a = PhaseProfile::default();
        assert!(a.is_empty());
        a.record(EnginePhase::Replay, Duration::from_micros(5));
        a.record(EnginePhase::Replay, Duration::from_micros(3));
        a.record(EnginePhase::Extend, Duration::from_micros(10));
        assert!(!a.is_empty());
        let r = a.get(EnginePhase::Replay);
        assert_eq!(r.count, 2);
        assert_eq!(r.total_ns, 8_000);
        assert_eq!(r.max_ns, 5_000);
        assert_eq!(a.total(), Duration::from_micros(18));

        let mut b = PhaseProfile::default();
        b.record(EnginePhase::Replay, Duration::from_micros(7));
        b.merge(&a);
        let r = b.get(EnginePhase::Replay);
        assert_eq!(r.count, 3);
        assert_eq!(r.total_ns, 15_000);
        assert_eq!(r.max_ns, 7_000);

        let d = b.minus(&a);
        assert_eq!(d.get(EnginePhase::Replay).count, 1);
        assert_eq!(d.get(EnginePhase::Replay).total_ns, 7_000);
        assert_eq!(d.get(EnginePhase::Extend).count, 0);
    }

    #[test]
    fn tracker_attributes_only_when_enabled() {
        let off = PhaseTracker::new(false);
        off.set(EnginePhase::Replay);
        off.set(EnginePhase::Extend);
        assert_eq!(off.get(), EnginePhase::Extend);
        assert!(off.snapshot().is_empty());

        let on = PhaseTracker::new(true);
        on.set(EnginePhase::Replay);
        std::thread::sleep(Duration::from_millis(1));
        on.set(EnginePhase::Extend);
        let p = on.snapshot();
        assert!(p.get(EnginePhase::Replay).total_ns >= 1_000_000);
        // The initial Driver span and the open Extend span both closed.
        assert!(p.get(EnginePhase::Driver).count >= 1);
        assert!(p.get(EnginePhase::Extend).count >= 1);
        // Snapshots are cumulative: no entry is counted twice.
        assert_eq!(on.snapshot().get(EnginePhase::Replay).count, p.get(EnginePhase::Replay).count);
    }

    #[test]
    fn bus_sequences_are_monotonic_and_gap_free() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink: EventFn = {
            let seen = Arc::clone(&seen);
            Arc::new(move |ev: &EngineEvent| {
                seen.lock().unwrap().push(ev.seq);
            })
        };
        let bus = EventBus::new(sink);
        for _ in 0..5 {
            bus.emit(0, EventKind::SessionFinish { verified: true });
        }
        assert_eq!(*seen.lock().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn metrics_table_mentions_recorded_phases() {
        let mut p = PhaseProfile::default();
        p.record(EnginePhase::Consistency, Duration::from_millis(2));
        let table = render_metrics(&p, Duration::from_millis(10), 1);
        assert!(table.contains("consistency"));
        assert!(table.contains("(other)"));
        assert!(table.contains("wall"));
        assert!(!table.contains("replay"), "phases without spans are omitted");
        assert!(table.contains("profiling: 1 phase transitions, each at least a ~"), "{table}");
    }

    /// Two workers each busy for most of the wall clock: phase time sums
    /// to more than the wall, yet the share column stays within 100 %.
    #[test]
    fn metrics_shares_of_a_two_worker_profile_sum_to_at_most_100() {
        let mut p = PhaseProfile::default();
        p.record(EnginePhase::Consistency, Duration::from_millis(15));
        p.record(EnginePhase::Replay, Duration::from_millis(3));
        let table = render_metrics(&p, Duration::from_millis(10), 2);
        let shares: Vec<f64> = table
            .lines()
            .filter_map(|l| l.trim_end().strip_suffix('%'))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert_eq!(shares.len(), 3, "replay, consistency, (other): {table}");
        assert!((shares[1] - 75.0).abs() < 0.1, "15 ms of 2 × 10 ms: {table}");
        assert!(shares.iter().sum::<f64>() <= 100.05, "{table}");
    }
}
