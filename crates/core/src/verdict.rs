//! Verification verdicts, counterexamples and exploration statistics.

use std::fmt;

use vsync_graph::ExecutionGraph;
use vsync_model::{CheckerKind, ModelKind};

/// Resource ceilings for a single exploration, with graceful degradation:
/// exhausting a budget downgrades the run to
/// [`Verdict::Inconclusive`] carrying partial stats instead of aborting
/// the process. A value of `0` means unlimited.
///
/// Memory is tracked by byte-accounting on the two unbounded structures:
/// the frontier (each pooled root's graph estimated via
/// [`ExecutionGraph::approx_heap_bytes`], each choice point by its size
/// and the lengths it keeps) and the sharded dedup set (a fixed per-entry
/// cost).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResourceBudget {
    /// Approximate heap ceiling in bytes for frontier + dedup (0 = unlimited).
    pub max_memory_bytes: u64,
}

impl ResourceBudget {
    /// Is any ceiling configured?
    pub fn is_limited(&self) -> bool {
        self.max_memory_bytes != 0
    }
}

/// Configuration of an AMC run.
#[derive(Debug, Clone)]
pub struct AmcConfig {
    /// Memory model to verify against.
    pub model: ModelKind,
    /// Hard cap on popped work items (0 = unlimited). Exceeding it stops
    /// the run with [`Verdict::Inconclusive`] ([`StopReason::MaxGraphs`]).
    pub max_graphs: u64,
    /// Per-thread replay step budget.
    pub step_budget: usize,
    /// Quotient the search by thread symmetry: work items are keyed on
    /// their canonical form modulo permutations of template-identical
    /// threads ([`vsync_lang::Program::symmetry_partition`]), and each
    /// orbit is explored once through its canonical representative. On by
    /// default; disable (`--no-symmetry`, [`AmcConfig::without_symmetry`])
    /// to recover the naive twin-exploring counts as a reference oracle.
    /// With symmetry on, exploration counts (`popped`,
    /// `complete_executions`, ...) are per-orbit counts; verdicts are
    /// unchanged.
    pub symmetry: bool,
    /// Keep all complete executions in the result (for tests and graph
    /// counting; off by default to save memory).
    pub collect_executions: bool,
    /// Number of exploration worker threads. `1` (the default) runs the
    /// exploration loop inline on the calling thread; `> 1` runs the same
    /// loop on that many threads over the same work queue. Verdicts and
    /// `complete_executions` counts are identical for any worker count
    /// (for failing programs the *first* counterexample found wins, so
    /// partial-run counters may differ).
    pub workers: usize,
    /// Consistency-check implementation: the closure-free fast path
    /// (default) or the axiom evaluator (the reference).
    pub checker: CheckerKind,
    /// Memory ceiling (frontier + seen-sets) with graceful degradation
    /// (default: unlimited).
    pub budget: ResourceBudget,
}

impl Default for AmcConfig {
    fn default() -> Self {
        AmcConfig {
            model: ModelKind::Vmm,
            max_graphs: 20_000_000,
            step_budget: vsync_lang::DEFAULT_STEP_BUDGET,
            symmetry: true,
            collect_executions: false,
            workers: 1,
            checker: CheckerKind::Fast,
            budget: ResourceBudget::default(),
        }
    }
}

impl AmcConfig {
    /// Config with a specific memory model.
    #[must_use]
    pub fn with_model(model: ModelKind) -> Self {
        AmcConfig { model, ..AmcConfig::default() }
    }

    /// Builder-style: collect complete executions.
    #[must_use = "builder methods return the modified config"]
    pub fn collecting(mut self) -> Self {
        self.collect_executions = true;
        self
    }

    /// Builder-style: explore with `workers` threads.
    #[must_use = "builder methods return the modified config"]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Builder-style: approximate heap ceiling in bytes (0 = unlimited).
    #[must_use = "builder methods return the modified config"]
    pub fn with_max_memory_bytes(mut self, bytes: u64) -> Self {
        self.budget.max_memory_bytes = bytes;
        self
    }

    /// Builder-style: disable thread-symmetry reduction (explore every
    /// relabeled twin distinctly — the reference oracle for orbit counts).
    #[must_use = "builder methods return the modified config"]
    pub fn without_symmetry(mut self) -> Self {
        self.symmetry = false;
        self
    }

    /// Builder-style: enable or disable thread-symmetry reduction.
    #[must_use = "builder methods return the modified config"]
    pub fn with_symmetry(mut self, symmetry: bool) -> Self {
        self.symmetry = symmetry;
        self
    }

    /// Builder-style: use the reference checker, the axiom evaluator.
    #[must_use = "builder methods return the modified config"]
    pub fn with_reference_checker(mut self) -> Self {
        self.checker = CheckerKind::Reference;
        self
    }
}

/// Counters describing an exploration (paper Fig. 6's search).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Chain steps taken: one per graph replayed and checked (a chain
    /// root popped from the frontier, or an in-place extension of it), so
    /// `popped` is the unit of "graphs processed".
    pub popped: u64,
    /// Chain roots admitted: the initial graph plus every admitted forward
    /// alternate, `⊥` resolution and revisit child, each entered by
    /// rewinding the admitting worker's chain (or materialized for another
    /// worker). In-place chain extension keeps it well below `popped`.
    pub constructed: u64,
    /// Items skipped as duplicates (content hash already seen).
    pub duplicates: u64,
    /// Items pruned by thread-symmetry reduction: the item was not its
    /// orbit's canonical representative (a non-identity relabeling
    /// produced its canonical form) and the orbit was already admitted.
    /// `duplicates + symmetry_pruned` — the total dedup hits — is
    /// deterministic for every worker count; the *split* depends on which
    /// twin of an orbit arrived first, so it can vary between parallel
    /// runs (`workers == 1` is fully deterministic).
    pub symmetry_pruned: u64,
    /// Items discarded as inconsistent with the memory model.
    pub inconsistent: u64,
    /// Revisit branches generated.
    pub revisits: u64,
    /// Complete executions reached (all threads terminated).
    pub complete_executions: u64,
    /// Blocked graphs inspected by the stagnancy analysis.
    pub blocked_graphs: u64,
    /// Total events across all popped graphs (throughput accounting).
    pub events: u64,
    /// Frontier work items abandoned unexplored when a budget or cap
    /// stopped the run early (always 0 for completed runs).
    pub frontier_dropped: u64,
    /// Seen-set probes: hash-before-materialize view encodings (each
    /// probe is one full graph/view encoding).
    pub probes: u64,
    /// Per-phase wall-clock attribution (total/count/max per
    /// [`EnginePhase`]). Empty unless the run had profiling enabled
    /// ([`Session::profile`](crate::Session::profile) or an attached
    /// event sink).
    pub phases: crate::telemetry::PhaseProfile,
}

impl ExploreStats {
    /// Field-wise accumulation — used to merge per-worker stats.
    pub fn merge(&mut self, other: &ExploreStats) {
        self.popped += other.popped;
        self.constructed += other.constructed;
        self.duplicates += other.duplicates;
        self.symmetry_pruned += other.symmetry_pruned;
        self.inconsistent += other.inconsistent;
        self.revisits += other.revisits;
        self.complete_executions += other.complete_executions;
        self.blocked_graphs += other.blocked_graphs;
        self.events += other.events;
        self.frontier_dropped += other.frontier_dropped;
        self.probes += other.probes;
        self.phases.merge(&other.phases);
    }

    /// Field-wise `self - earlier`, the inverse of [`ExploreStats::merge`];
    /// `earlier` must be an earlier copy of `self`.
    #[must_use]
    pub fn minus(&self, earlier: &ExploreStats) -> ExploreStats {
        ExploreStats {
            popped: self.popped - earlier.popped,
            constructed: self.constructed - earlier.constructed,
            duplicates: self.duplicates - earlier.duplicates,
            symmetry_pruned: self.symmetry_pruned - earlier.symmetry_pruned,
            inconsistent: self.inconsistent - earlier.inconsistent,
            revisits: self.revisits - earlier.revisits,
            complete_executions: self.complete_executions - earlier.complete_executions,
            blocked_graphs: self.blocked_graphs - earlier.blocked_graphs,
            events: self.events - earlier.events,
            frontier_dropped: self.frontier_dropped - earlier.frontier_dropped,
            probes: self.probes - earlier.probes,
            phases: self.phases.minus(&earlier.phases),
        }
    }
}

impl fmt::Display for ExploreStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} executions ({} popped, {} constructed, {} dups, {} sym-pruned, \
             {} inconsistent, {} revisits, {} blocked)",
            self.complete_executions,
            self.popped,
            self.constructed,
            self.duplicates,
            self.symmetry_pruned,
            self.inconsistent,
            self.revisits,
            self.blocked_graphs
        )?;
        if self.frontier_dropped > 0 {
            write!(f, " [{} frontier items dropped]", self.frontier_dropped)?;
        }
        Ok(())
    }
}

/// A violation witness: the offending execution graph plus a description.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The finite witness graph (paper §1.2: AT violations are witnessed by
    /// finite graphs with a `⊥` read).
    pub graph: ExecutionGraph,
    /// Human-readable description of what failed.
    pub message: String,
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.message)?;
        write!(f, "{}", self.graph.render())
    }
}

/// Why a run stopped before the search space was exhausted. Unifies the
/// external interruptions (cancellation, deadline) with the internal
/// exploration caps (work-item cap, memory budget): all of them
/// produce [`Verdict::Inconclusive`] with the same partial-stats shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// A shared [`crate::CancelToken`] was fired.
    Cancelled,
    /// The session's wall-clock deadline expired.
    DeadlineExceeded,
    /// [`AmcConfig::max_graphs`] popped work items were exceeded.
    MaxGraphs,
    /// The [`ResourceBudget::max_memory_bytes`] ceiling was reached.
    MemoryBudget,
}

impl StopReason {
    /// Stable machine-readable identifier (used in JSON reports).
    pub fn key(&self) -> &'static str {
        match self {
            StopReason::Cancelled => "cancelled",
            StopReason::DeadlineExceeded => "deadline",
            StopReason::MaxGraphs => "max_graphs",
            StopReason::MemoryBudget => "memory_budget",
        }
    }
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StopReason::Cancelled => f.write_str("cancelled"),
            StopReason::DeadlineExceeded => f.write_str("deadline exceeded"),
            StopReason::MaxGraphs => f.write_str("work-item cap exceeded"),
            StopReason::MemoryBudget => f.write_str("memory budget exhausted"),
        }
    }
}

/// Partial-search payload of [`Verdict::Inconclusive`]: why the run
/// stopped and how much of the space was covered before it did. A
/// degraded run is *sound but incomplete* — it never claims `Verified`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Inconclusive {
    /// What cut the run short.
    pub reason: StopReason,
    /// Work items fully processed before the stop.
    pub explored: u64,
    /// Queued work items abandoned unexplored at the stop.
    pub frontier_dropped: u64,
}

impl fmt::Display for Inconclusive {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} after {} explored graphs ({} frontier items dropped)",
            self.reason, self.explored, self.frontier_dropped
        )
    }
}

/// Engine phase in which a caught panic occurred (carried by
/// [`EngineError`] so fault reports localize the failure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnginePhase {
    /// Replaying a program prefix over an execution graph.
    Replay,
    /// Hash-after-construct dedup. Not entered by the search (which
    /// attributes its hashing to [`EnginePhase::Probe`]); kept so
    /// phase indices and the `"dedup"` report key stay stable.
    Dedup,
    /// The search's hash-before-materialize probe: encoding a
    /// [`GraphView`](vsync_graph::GraphView) and consulting the
    /// `visited`/`leaves` seen-sets *before* any graph is built.
    Probe,
    /// Running the memory-model consistency check.
    Consistency,
    /// Extending a graph with the next event (rf / mo branching).
    Extend,
    /// Generating backward revisits for a newly placed write.
    Revisit,
    /// Evaluating final-state checks on a complete execution.
    FinalCheck,
    /// The stagnancy analysis on a blocked graph.
    Stagnancy,
    /// The exploration driver outside any per-graph stage.
    Driver,
    /// An optimizer probe (candidate verification / witness replay).
    Optimize,
    /// Corpus-runner bookkeeping around a file check.
    Corpus,
}

impl EnginePhase {
    /// Number of phases (the length of [`EnginePhase::ALL`]).
    pub const COUNT: usize = 11;

    /// Every phase, in declaration order — the index of a phase in this
    /// array is [`EnginePhase::index`], the layout key of
    /// [`PhaseProfile`](crate::telemetry::PhaseProfile).
    pub const ALL: [EnginePhase; EnginePhase::COUNT] = [
        EnginePhase::Replay,
        EnginePhase::Dedup,
        EnginePhase::Probe,
        EnginePhase::Consistency,
        EnginePhase::Extend,
        EnginePhase::Revisit,
        EnginePhase::FinalCheck,
        EnginePhase::Stagnancy,
        EnginePhase::Driver,
        EnginePhase::Optimize,
        EnginePhase::Corpus,
    ];

    /// Dense index of this phase in [`EnginePhase::ALL`].
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable machine-readable identifier (used in JSON reports).
    pub fn key(&self) -> &'static str {
        match self {
            EnginePhase::Replay => "replay",
            EnginePhase::Dedup => "dedup",
            EnginePhase::Probe => "probe",
            EnginePhase::Consistency => "consistency",
            EnginePhase::Extend => "extend",
            EnginePhase::Revisit => "revisit",
            EnginePhase::FinalCheck => "final_check",
            EnginePhase::Stagnancy => "stagnancy",
            EnginePhase::Driver => "driver",
            EnginePhase::Optimize => "optimize",
            EnginePhase::Corpus => "corpus",
        }
    }
}

impl fmt::Display for EnginePhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.key())
    }
}

/// What went wrong inside the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineErrorKind {
    /// A panic was caught.
    Panic,
    /// The engine's check of its own result failed: the optimizer's
    /// closing exploration of the printed assignment did not verify
    /// (DESIGN.md §7.5).
    FailedCheck,
}

/// A structured record of an engine failure: a panic caught inside the
/// engine, or a failed check of the engine's own result. The run that
/// produced it terminates with [`Verdict::Error`] instead of aborting the
/// process; after a panic, sibling workers drain the abandoned queue
/// share and exit cleanly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineError {
    /// A caught panic or a failed check.
    pub kind: EngineErrorKind,
    /// The stage the failing code was executing.
    pub phase: EnginePhase,
    /// Index of the worker thread that panicked (`None` for
    /// single-worker runs and phases without a worker identity).
    pub thread: Option<usize>,
    /// The panic payload, downcast to a string where possible, or what
    /// the failed check found.
    pub payload: String,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match self.kind {
            EngineErrorKind::Panic => "panic",
            EngineErrorKind::FailedCheck => "failed check",
        };
        write!(f, "{what} in {} phase", self.phase)?;
        if let Some(t) = self.thread {
            write!(f, " (worker {t})")?;
        }
        write!(f, ": {}", self.payload)
    }
}

/// Outcome of a verification run.
#[derive(Debug, Clone)]
#[must_use = "a dropped Verdict silently discards the verification outcome"]
pub enum Verdict {
    /// Every execution is safe and every await terminates.
    Verified,
    /// A safety violation: failed assertion or final-state check.
    Safety(Counterexample),
    /// An await-termination violation (paper Def. 1): a stagnant graph.
    AwaitTermination(Counterexample),
    /// The program broke a modeling obligation (Bounded-Length /
    /// Bounded-Effect principles).
    Fault(String),
    /// The run was cut short — by cancellation, a deadline, or a resource
    /// budget — before exploration finished. Not a statement about the
    /// program: the explored prefix contained no violation, but the rest
    /// of the space was never searched.
    Inconclusive(Inconclusive),
    /// The engine itself failed: a panic was caught inside a worker or
    /// probe, or a check of the engine's own result (the optimizer's
    /// closing certificate) failed. The run terminated cleanly but its
    /// result means nothing.
    Error(EngineError),
}

impl Verdict {
    /// Did verification succeed?
    pub fn is_verified(&self) -> bool {
        matches!(self, Verdict::Verified)
    }

    /// The counterexample, for violation verdicts.
    pub fn counterexample(&self) -> Option<&Counterexample> {
        match self {
            Verdict::Safety(c) | Verdict::AwaitTermination(c) => Some(c),
            _ => None,
        }
    }

    /// The stop reason, for inconclusive verdicts.
    pub fn stop_reason(&self) -> Option<StopReason> {
        match self {
            Verdict::Inconclusive(i) => Some(i.reason),
            _ => None,
        }
    }

    /// The caught engine failure, for error verdicts.
    pub fn engine_error(&self) -> Option<&EngineError> {
        match self {
            Verdict::Error(e) => Some(e),
            _ => None,
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Verified => f.write_str("verified"),
            Verdict::Safety(c) => write!(f, "safety violation: {}", c.message),
            Verdict::AwaitTermination(c) => {
                write!(f, "await-termination violation: {}", c.message)
            }
            Verdict::Fault(m) => write!(f, "fault: {m}"),
            Verdict::Inconclusive(i) => write!(f, "inconclusive: {i}"),
            Verdict::Error(e) => write!(f, "engine error: {e}"),
        }
    }
}

/// Full result of [`crate::explore`].
#[derive(Debug, Clone)]
#[must_use = "a dropped AmcResult silently discards the verification outcome"]
pub struct AmcResult {
    /// The verdict.
    pub verdict: Verdict,
    /// Exploration counters.
    pub stats: ExploreStats,
    /// Complete executions (when [`AmcConfig::collect_executions`] is set).
    pub executions: Vec<ExecutionGraph>,
}

impl AmcResult {
    /// Shorthand: did the program verify?
    pub fn is_verified(&self) -> bool {
        self.verdict.is_verified()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn default_config_is_vmm_with_dedup_and_symmetry() {
        let c = AmcConfig::default();
        assert_eq!(c.model, ModelKind::Vmm);
        assert!(c.symmetry);
        assert!(!c.collect_executions);
        assert!(!c.budget.is_limited());
        assert!(AmcConfig::default().collecting().collect_executions);
        assert!(!AmcConfig::default().without_symmetry().symmetry);
        assert!(AmcConfig::default().with_symmetry(false).with_symmetry(true).symmetry);
        let b = AmcConfig::default().with_max_memory_bytes(1 << 20);
        assert_eq!(b.budget, ResourceBudget { max_memory_bytes: 1 << 20 });
        assert!(b.budget.is_limited());
    }

    #[test]
    fn verdict_accessors() {
        assert!(Verdict::Verified.is_verified());
        let ce = Counterexample {
            graph: ExecutionGraph::new(0, BTreeMap::new()),
            message: "boom".into(),
        };
        let v = Verdict::Safety(ce);
        assert!(!v.is_verified());
        assert_eq!(v.counterexample().unwrap().message, "boom");
        assert!(v.to_string().contains("safety violation"));
        assert!(Verdict::Fault("x".into()).to_string().contains("fault"));
    }

    #[test]
    fn inconclusive_and_error_verdicts_carry_structured_payloads() {
        let v = Verdict::Inconclusive(Inconclusive {
            reason: StopReason::MemoryBudget,
            explored: 42,
            frontier_dropped: 7,
        });
        assert!(!v.is_verified());
        assert_eq!(v.stop_reason(), Some(StopReason::MemoryBudget));
        let d = v.to_string();
        assert!(d.contains("inconclusive"), "{d}");
        assert!(d.contains("memory budget"), "{d}");
        assert!(d.contains("42 explored"), "{d}");

        let e = Verdict::Error(EngineError {
            kind: EngineErrorKind::Panic,
            phase: EnginePhase::Replay,
            thread: Some(3),
            payload: "boom".into(),
        });
        assert!(!e.is_verified());
        assert_eq!(e.engine_error().unwrap().phase, EnginePhase::Replay);
        let d = e.to_string();
        assert!(d.contains("engine error"), "{d}");
        assert!(d.contains("replay"), "{d}");
        assert!(d.contains("worker 3"), "{d}");
        assert!(d.contains("panic in replay phase"), "{d}");

        let e = EngineError {
            kind: EngineErrorKind::FailedCheck,
            phase: EnginePhase::Optimize,
            thread: None,
            payload: "the closing exploration did not verify".into(),
        };
        let d = Verdict::Error(e).to_string();
        assert!(d.starts_with("engine error: failed check in optimize phase: "), "{d}");
        assert!(!d.contains("panic"), "{d}");
    }

    #[test]
    fn stop_reason_keys_are_stable() {
        for (r, k) in [
            (StopReason::Cancelled, "cancelled"),
            (StopReason::DeadlineExceeded, "deadline"),
            (StopReason::MaxGraphs, "max_graphs"),
            (StopReason::MemoryBudget, "memory_budget"),
        ] {
            assert_eq!(r.key(), k);
        }
    }

    #[test]
    fn stats_display_mentions_counters() {
        let s = ExploreStats { popped: 3, complete_executions: 2, ..Default::default() };
        let d = s.to_string();
        assert!(d.contains("2 executions"));
        assert!(d.contains("3 popped"));
        assert!(!d.contains("dropped"));
        let s = ExploreStats { frontier_dropped: 5, ..s };
        assert!(s.to_string().contains("5 frontier items dropped"));
    }
}
