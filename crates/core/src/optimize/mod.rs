//! Push-button barrier optimization (the "VSYNC-optimized" column of the
//! paper's Table 1), rearchitected as a staged, witness-guided search
//! engine.
//!
//! Starting from a verified barrier assignment, the optimizer repeatedly
//! tries to *relax* barrier sites to weaker modes (weakest first) and
//! keeps a relaxation iff the program still verifies — safety *and* await
//! termination — under the memory model. Passes repeat until a fixpoint:
//! the result is a locally maximally-relaxed assignment, the notion of
//! optimality the paper targets ("there exist multiple maximally-relaxed
//! combinations that are correct", §3.3).
//!
//! Two [`OptimizeStrategy`]s share that contract and — by the
//! monotonicity of barrier strengthening (any strengthening of a verified
//! assignment verifies) — produce the **identical final assignment**:
//!
//! * [`Sequential`](OptimizeStrategy::Sequential) — the classic loop, one
//!   full exploration per candidate, retained as the reference for
//!   differential testing;
//! * [`Adaptive`](OptimizeStrategy::Adaptive) — opens with batch
//!   relaxation: all relaxable sites are dropped to their weakest modes
//!   in one candidate and failures are bisected ([`bisect`]), so a
//!   mostly-relaxable primitive costs `O(log n)` explorations instead of
//!   `O(n)`. Later passes screen candidates at distinct sites
//!   concurrently against the pass-start baseline on a worker pool
//!   (losers cooperatively cancelled), then re-verify the merged
//!   assignment once; on conflict the pass falls back to the sequential
//!   accept order ([`schedule`]).
//!
//! Every rejection yields a violating execution graph that is kept in a
//! [`witness`] cache; future candidates are first replayed against the
//! cached witnesses (mode-adopting replay + the fast-path consistency
//! check) and only pay for a full exploration when no witness refutes
//! them. See `DESIGN.md` §7 for the soundness and determinism arguments.

mod bisect;
mod schedule;
mod witness;

use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use vsync_graph::Mode;
use vsync_lang::{BarrierSummary, ModeRef, Program};
use vsync_model::MemoryModel;

use crate::explorer::{explore, explore_oracle};
use crate::failpoint;
use crate::session::{CancelToken, RunControl};
use crate::verdict::{AmcConfig, EngineError, EnginePhase, Verdict};

use witness::WitnessCache;

/// How the optimizer searches the relaxation space. Both strategies reach
/// the same locally maximal assignment (see the module docs); they differ
/// in how many full explorations they pay and how much of the work runs
/// concurrently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OptimizeStrategy {
    /// The reference loop: sites in order, weakest candidate first, one
    /// full exploration per attempt, passes to fixpoint.
    Sequential,
    /// Batch-relax / bisect opening, then concurrent per-site candidate
    /// screening + single merged re-verify per pass, with the witness
    /// cache. The default.
    #[default]
    Adaptive,
}

impl fmt::Display for OptimizeStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OptimizeStrategy::Sequential => "sequential",
            OptimizeStrategy::Adaptive => "adaptive",
        })
    }
}

impl std::str::FromStr for OptimizeStrategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "sequential" | "seq" => Ok(OptimizeStrategy::Sequential),
            "adaptive" => Ok(OptimizeStrategy::Adaptive),
            other => Err(format!("unknown strategy '{other}' (sequential, adaptive)")),
        }
    }
}

/// Which stage of the search produced an [`OptimizeEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptimizePhase {
    /// The reference sequential loop.
    Sequential,
    /// Adaptive batch relaxation / bisection of a failing batch.
    Bisect,
    /// Concurrent per-site candidate screening against the pass baseline.
    Screen,
    /// Commit of the merged per-site accepts (single re-verification).
    Merge,
    /// Monotonic fallback to the sequential accept order after a merge
    /// conflict (or a non-monotone screening rejection).
    Fallback,
}

impl fmt::Display for OptimizePhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OptimizePhase::Sequential => "sequential",
            OptimizePhase::Bisect => "bisect",
            OptimizePhase::Screen => "screen",
            OptimizePhase::Merge => "merge",
            OptimizePhase::Fallback => "fallback",
        })
    }
}

/// A per-step progress notification from a running optimization,
/// delivered to [`OptimizerConfig::with_on_step`] /
/// `Session::on_optimize_step` callbacks as each relaxation attempt is
/// decided. In parallel phases events arrive from worker threads in
/// completion order.
#[derive(Debug, Clone, Copy)]
pub struct OptimizeEvent<'a> {
    /// 1-based pass number (the adaptive batch/bisect opening is pass 1).
    pub pass: usize,
    /// The stage that decided this step.
    pub phase: OptimizePhase,
    /// Resolved name of the site (see [`OptimizationStep::site`]).
    pub site: &'a str,
    /// The decided step.
    pub step: OptimizationStep,
}

/// Shared callback type for per-step optimization events.
pub(crate) type StepFn = Arc<dyn Fn(&OptimizeEvent<'_>) + Send + Sync>;

/// Configuration of an optimization run.
#[derive(Clone)]
pub struct OptimizerConfig {
    /// AMC configuration used for each verification call. `workers` also
    /// sizes the adaptive strategy's candidate-screening pool.
    pub amc: AmcConfig,
    /// Maximum number of full passes over the site table (0 = until
    /// fixpoint).
    pub max_passes: usize,
    /// Cooperative cancellation flag, re-checked before every oracle
    /// verification. An interrupted run keeps every relaxation accepted
    /// so far (each one was individually verified, or is a strengthening
    /// of a verified batch) and reports
    /// [`OptimizationReport::interrupted`].
    pub cancel: Option<CancelToken>,
    /// Search strategy (default [`OptimizeStrategy::Adaptive`]).
    pub strategy: OptimizeStrategy,
    /// Cap on cached failure witnesses (oldest evicted first).
    pub max_witnesses: usize,
    /// Per-step progress callback, if any.
    pub(crate) on_step: Option<StepFn>,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            amc: AmcConfig::default(),
            max_passes: 0,
            cancel: None,
            strategy: OptimizeStrategy::default(),
            max_witnesses: 32,
            on_step: None,
        }
    }
}

impl fmt::Debug for OptimizerConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OptimizerConfig")
            .field("amc", &self.amc)
            .field("max_passes", &self.max_passes)
            .field("cancel", &self.cancel.is_some())
            .field("strategy", &self.strategy)
            .field("max_witnesses", &self.max_witnesses)
            .field("on_step", &self.on_step.is_some())
            .finish()
    }
}

impl OptimizerConfig {
    /// Config verifying each candidate with `amc`.
    #[must_use]
    pub fn with_amc(amc: AmcConfig) -> Self {
        OptimizerConfig { amc, ..OptimizerConfig::default() }
    }

    /// Builder-style: cap the number of full passes over the site table.
    #[must_use = "builder methods return the modified config"]
    pub fn with_max_passes(mut self, max_passes: usize) -> Self {
        self.max_passes = max_passes;
        self
    }

    /// Builder-style: attach a cancellation token.
    #[must_use = "builder methods return the modified config"]
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Builder-style: select the search strategy.
    #[must_use = "builder methods return the modified config"]
    pub fn with_strategy(mut self, strategy: OptimizeStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Builder-style: subscribe to per-step [`OptimizeEvent`]s. The
    /// callback may run on optimizer worker threads.
    #[must_use = "builder methods return the modified config"]
    pub fn with_on_step(
        mut self,
        callback: impl Fn(&OptimizeEvent<'_>) + Send + Sync + 'static,
    ) -> Self {
        self.on_step = Some(Arc::new(callback));
        self
    }

    fn is_cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }
}

/// One attempted relaxation. Sites are recorded by index into the
/// program's site table ([`Program::sites`]); names are resolved only
/// when rendering ([`OptimizationReport::render`] /
/// [`OptimizationReport::site_name`]), so the hot loop never clones
/// strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptimizationStep {
    /// Site index into the program's site table.
    pub site: u32,
    /// Mode before.
    pub from: Mode,
    /// Mode tried.
    pub to: Mode,
    /// Whether the program still verified and the change was kept.
    pub accepted: bool,
}

/// Result of [`optimize`].
#[derive(Debug, Clone)]
#[must_use = "a dropped OptimizationReport silently discards the optimized program"]
pub struct OptimizationReport {
    /// The optimized program (unchanged if the input did not verify).
    pub program: Program,
    /// Whether the final program verifies. `false` with
    /// [`interrupted`](Self::interrupted) set means *unknown*: the run was
    /// cancelled during the initial verification.
    pub verified: bool,
    /// The run was cut short by its [`OptimizerConfig::cancel`] token,
    /// the session deadline, a resource budget or a caught engine panic;
    /// the assignment is verified but possibly not yet locally maximal.
    pub interrupted: bool,
    /// The first caught engine panic, when one cut the run short. Every
    /// relaxation accepted *before* the panic was individually verified
    /// and is kept; the failing candidate is treated as undecided, never
    /// as refuted.
    pub error: Option<EngineError>,
    /// The strategy that produced this report.
    pub strategy: OptimizeStrategy,
    /// Every relaxation attempt that was decided. For the adaptive
    /// strategy, screening steps are appended in completion order; the
    /// accepted steps, applied to the baseline in report order, always
    /// reproduce [`program`](Self::program)'s assignment.
    pub steps: Vec<OptimizationStep>,
    /// Candidate verifications that ran at least one full exploration
    /// (the classic oracle-call count).
    pub verifications: u64,
    /// Individual AMC explorations performed (≥ `verifications` when
    /// extra scenarios multiply the oracle; the repo benchmark's
    /// `core.optimize.explorations`).
    pub explorations: u64,
    /// Work items popped across all oracle explorations — the true
    /// exploration bill. Rejections stop at the first violation (the
    /// early-stop oracle), so this weighs a cheap refutation and a full
    /// verifying exploration honestly. Zero for [`optimize_with`]'s
    /// custom closure oracles (the engine cannot see inside them).
    pub explored_graphs: u64,
    /// Candidates refuted without paying an exploration: by replaying a
    /// cached failure witness, or by the monotone rejection memo (a
    /// single-site candidate once refuted by a model violation stays
    /// refuted forever, since baselines only weaken).
    pub cache_hits: u64,
    /// Barrier counts before optimization.
    pub before: BarrierSummary,
    /// Barrier counts after optimization.
    pub after: BarrierSummary,
    /// Wall-clock time spent.
    pub elapsed: Duration,
}

impl OptimizationReport {
    /// Resolve a step's site name against the optimized program.
    #[must_use]
    pub fn site_name(&self, step: &OptimizationStep) -> &str {
        &self.program.sites()[step.site as usize].name
    }

    /// Render a Fig. 20-style per-site report: `site: from -> to`.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}: {} -> {} ({} verifications, {} explorations, {} cache hits, {:.1?})",
            self.program.name(),
            self.before,
            self.after,
            self.verifications,
            self.explorations,
            self.cache_hits,
            self.elapsed
        );
        if let Some(e) = &self.error {
            let _ = writeln!(out, "  engine error: {e}");
        }
        for s in &self.steps {
            if s.accepted {
                let _ = writeln!(out, "  {:<44} {} -> {}", self.site_name(s), s.from, s.to);
            }
        }
        out
    }
}

/// Verify, then relax barrier sites to a locally maximal relaxation.
///
/// If the input program does not verify, the report carries
/// `verified = false` and the unchanged program — optimization only ever
/// starts from a correct baseline, exactly like VSync.
pub fn optimize(prog: &Program, config: &OptimizerConfig) -> OptimizationReport {
    optimize_multi(prog, &[], config)
}

/// [`optimize`] with additional verification scenarios: a candidate
/// assignment is accepted only if the primary program *and* every extra
/// scenario (with the assignment transferred by site name) verify.
///
/// This is how the qspinlock experiment (Table 1) verifies both the
/// 2-thread client and the 3-thread queue-path scenario for every step.
pub fn optimize_multi(
    prog: &Program,
    extra_scenarios: &[Program],
    config: &OptimizerConfig,
) -> OptimizationReport {
    let control = RunControl {
        cancel: config.cancel.clone().unwrap_or_default(),
        model: config.amc.model,
        ..RunControl::default()
    };
    run_engine(prog, extra_scenarios, config, control, false)
}

/// Core *sequential* optimization loop with a caller-provided boolean
/// verification oracle — the reference semantics every strategy must
/// reproduce, and the extension point for custom oracles (which cannot be
/// parallelized or witness-cached, so this always runs the classic loop;
/// `explorations` is reported equal to `verifications`).
pub fn optimize_with(
    prog: &Program,
    config: &OptimizerConfig,
    mut oracle: impl FnMut(&Program) -> bool,
) -> OptimizationReport {
    let start = Instant::now();
    let mut program = prog.clone();
    let before = program.barrier_summary();
    let mut verifications = 0u64;
    let mut steps: Vec<OptimizationStep> = Vec::new();

    let emit = |pass: usize, step: OptimizationStep, program: &Program| {
        if let Some(cb) = &config.on_step {
            cb(&OptimizeEvent {
                pass,
                phase: OptimizePhase::Sequential,
                site: &program.sites()[step.site as usize].name,
                step,
            });
        }
    };

    let mut check = |p: &Program, n: &mut u64| -> bool {
        *n += 1;
        oracle(p)
    };

    if !check(&program, &mut verifications) {
        return OptimizationReport {
            after: before,
            program,
            verified: false,
            interrupted: config.is_cancelled(),
            error: None,
            strategy: OptimizeStrategy::Sequential,
            steps,
            verifications,
            explorations: verifications,
            explored_graphs: 0,
            cache_hits: 0,
            before,
            elapsed: start.elapsed(),
        };
    }

    let mut pass = 0;
    let mut interrupted = false;
    'passes: loop {
        pass += 1;
        let mut changed = false;
        for i in 0..program.sites().len() {
            let site = &program.sites()[i];
            if !site.relaxable {
                continue;
            }
            let (kind, current) = (site.kind, site.mode);
            for cand in kind.weaker_modes(current) {
                if config.is_cancelled() {
                    interrupted = true;
                    break 'passes;
                }
                program.set_mode(ModeRef(i as u32), cand);
                let ok = check(&program, &mut verifications);
                if !ok && config.is_cancelled() {
                    // The rejection came from an interrupted verification,
                    // not from the memory model: drop the step unrecorded.
                    program.set_mode(ModeRef(i as u32), current);
                    interrupted = true;
                    break 'passes;
                }
                let step =
                    OptimizationStep { site: i as u32, from: current, to: cand, accepted: ok };
                steps.push(step);
                emit(pass, step, &program);
                if ok {
                    changed = true;
                    break;
                }
                program.set_mode(ModeRef(i as u32), current);
            }
        }
        if !changed || (config.max_passes != 0 && pass >= config.max_passes) {
            break;
        }
    }

    let after = program.barrier_summary();
    OptimizationReport {
        program,
        verified: true,
        interrupted,
        error: None,
        strategy: OptimizeStrategy::Sequential,
        steps,
        verifications,
        explorations: verifications,
        explored_graphs: 0,
        cache_hits: 0,
        before,
        after,
        elapsed: start.elapsed(),
    }
}

/// Outcome of one candidate verification inside the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CheckOutcome {
    /// The candidate assignment verifies (primary and every scenario).
    Verified,
    /// The candidate was rejected. `monotone` is true when the rejection
    /// was a genuine memory-model violation (safety or await
    /// termination) — such rejections transfer to every weaker-or-equal
    /// candidate and license pruning; faults do not.
    Refuted {
        /// Was the rejection a model violation (pruning-safe)?
        monotone: bool,
    },
    /// The run was interrupted before the verdict was decided.
    Interrupted,
    /// The verification panicked; the panic was caught and recorded in
    /// [`Shared::error`]. Like [`Interrupted`](CheckOutcome::Interrupted),
    /// the candidate's status is *unknown* — strategies must treat it as
    /// undecided (keep prior accepts, stop searching), never as refuted.
    Errored,
}

/// Counters and step log shared across the engine's worker threads.
pub(crate) struct Shared {
    pub steps: Vec<OptimizationStep>,
    pub verifications: u64,
    pub explorations: u64,
    pub cache: WitnessCache,
    /// Work items popped across all oracle explorations (the engine's
    /// true exploration bill).
    pub graphs: u64,
    /// Did any oracle call reject with a *fault* (budget/modeling error)
    /// rather than a model violation? Faults are outside the
    /// monotonicity argument, so the adaptive strategy's deferred
    /// baseline verification must not be skipped once one was seen.
    pub fault_seen: bool,
    /// Single-site candidates refuted by a model violation. Assignments
    /// only ever weaken during a run, and a violation-rejection transfers
    /// to every weaker baseline (monotonicity), so a memoized rejection
    /// is final — this is what makes the fixpoint passes free.
    pub memo: std::collections::HashSet<(u32, Mode)>,
    /// Candidates short-circuited by the memo (no exploration, no
    /// witness replay needed).
    pub memo_hits: u64,
    /// The first caught engine panic (kept first-wins so the report is
    /// deterministic for a deterministically-injected fault).
    pub error: Option<EngineError>,
}

/// Engine context: the candidate oracle plus shared bookkeeping, usable
/// concurrently from the screening pool.
pub(crate) struct Ctx<'a> {
    /// The primary program at its *baseline* assignment (site names and
    /// table layout are assignment-independent).
    pub primary: &'a Program,
    scenarios: &'a [Program],
    pub config: &'a OptimizerConfig,
    control: RunControl,
    model: &'static dyn MemoryModel,
    cache_enabled: bool,
    pub shared: Mutex<Shared>,
}

impl<'a> Ctx<'a> {
    fn new(
        primary: &'a Program,
        scenarios: &'a [Program],
        config: &'a OptimizerConfig,
        control: RunControl,
    ) -> Self {
        Ctx {
            primary,
            scenarios,
            config,
            model: config.amc.model.checker(config.amc.checker),
            cache_enabled: config.strategy != OptimizeStrategy::Sequential,
            control,
            shared: Mutex::new(Shared {
                steps: Vec::new(),
                verifications: 0,
                explorations: 0,
                cache: WitnessCache::new(config.max_witnesses),
                graphs: 0,
                fault_seen: false,
                memo: std::collections::HashSet::new(),
                memo_hits: 0,
                error: None,
            }),
        }
    }

    /// Lock the shared state, recovering from poisoning: a panic inside
    /// a screening worker is already isolated per probe, so the counters
    /// a poisoned guard protects are still meaningful.
    pub(crate) fn shared(&self) -> std::sync::MutexGuard<'_, Shared> {
        self.shared.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Record a caught engine panic (first one wins) and return
    /// [`CheckOutcome::Errored`].
    fn record_error(&self, error: EngineError) -> CheckOutcome {
        let mut shared = self.shared();
        shared.error.get_or_insert(error);
        CheckOutcome::Errored
    }

    /// Number of concurrent candidate evaluations the screening pool runs.
    pub(crate) fn pool_size(&self) -> usize {
        self.config.amc.workers.max(1)
    }

    /// A per-task cancellation token: observes the engine token (so
    /// session interrupts propagate into running evaluations) but can be
    /// fired on its own to cancel one losing candidate.
    pub(crate) fn task_token(&self) -> CancelToken {
        self.control.cancel.child()
    }

    /// Has the caller (session token, config token or deadline) requested
    /// an interrupt? Loser-cancellation of individual tasks does *not*
    /// count.
    pub(crate) fn interrupt_requested(&self) -> bool {
        self.control.cancel.is_cancelled()
            || self.config.is_cancelled()
            || self.control.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// The full candidate set: the primary candidate plus every scenario
    /// with the candidate's modes transferred by site name.
    fn candidate_set(&self, candidate: &Program) -> Vec<Program> {
        let mut progs = Vec::with_capacity(1 + self.scenarios.len());
        progs.push(candidate.clone());
        for s in self.scenarios {
            let mut s = s.clone();
            s.copy_modes_by_name(candidate);
            progs.push(s);
        }
        progs
    }

    /// Verify one candidate assignment: witness-cache probe first, then
    /// full explorations of the primary and every scenario.
    ///
    /// `workers` sizes each exploration; `token`, when given, must be a
    /// [`CancelToken::child`] of the engine's token (so session interrupts
    /// propagate) and lets the scheduler cancel this one evaluation.
    pub(crate) fn check_candidate(
        &self,
        candidate: &Program,
        workers: usize,
        token: Option<&CancelToken>,
    ) -> CheckOutcome {
        self.check_candidate_inner(candidate, workers, token, false)
    }

    fn check_candidate_inner(
        &self,
        candidate: &Program,
        workers: usize,
        token: Option<&CancelToken>,
        skip_primary: bool,
    ) -> CheckOutcome {
        // One probe = one isolation unit: a panic anywhere in the
        // witness replay or the oracle explorations quarantines this
        // candidate (undecided), not the whole optimization run.
        let probe = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.check_candidate_probe(candidate, workers, token, skip_primary)
        }));
        probe.unwrap_or_else(|payload| {
            let payload = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_owned());
            self.record_error(EngineError { phase: EnginePhase::Optimize, thread: None, payload })
        })
    }

    fn check_candidate_probe(
        &self,
        candidate: &Program,
        workers: usize,
        token: Option<&CancelToken>,
        skip_primary: bool,
    ) -> CheckOutcome {
        let _ = failpoint::hit("optimize.verify");
        let progs = self.candidate_set(candidate);
        if self.cache_enabled {
            // Snapshot under the lock (graph clones are copy-on-write
            // cheap), replay lock-free so concurrent screening workers
            // never serialize on the cache, then re-lock to account the
            // hit.
            let witnesses = self.shared().cache.snapshot();
            for (id, program, graph) in witnesses {
                let Some(p) = progs.get(program) else {
                    continue;
                };
                if witness::witness_refutes(&graph, p, self.model) {
                    self.shared().cache.note_hit(id);
                    return CheckOutcome::Refuted { monotone: true };
                }
            }
        }
        // Count as an oracle call only when at least one exploration will
        // actually run (the session-verified primary with no scenarios
        // explores nothing).
        if progs.len() > usize::from(skip_primary) {
            self.shared().verifications += 1;
        }
        let mut amc = self.config.amc.clone();
        amc.workers = workers.max(1);
        let control = RunControl {
            cancel: token.cloned().unwrap_or_else(|| self.control.cancel.clone()),
            progress: None,
            ..self.control.clone()
        };
        for (idx, p) in progs.iter().enumerate() {
            if skip_primary && idx == 0 {
                continue;
            }
            self.shared().explorations += 1;
            let out = explore_oracle(p, &amc, &control);
            self.shared().graphs += out.graphs;
            if let Some(e) = out.error {
                return self.record_error(e);
            }
            if out.interrupted {
                return CheckOutcome::Interrupted;
            }
            if !out.ok {
                let monotone = out.witness.is_some();
                {
                    let mut shared = self.shared();
                    shared.fault_seen |= !monotone;
                    if self.cache_enabled {
                        if let Some(g) = out.witness {
                            shared.cache.add(idx, g);
                        }
                    }
                }
                return CheckOutcome::Refuted { monotone };
            }
        }
        CheckOutcome::Verified
    }

    /// Verify one *single-site* candidate `acc[site := mode]`, with the
    /// rejection memo consulted first: a candidate once refuted by a
    /// model violation stays refuted against every later (weaker)
    /// baseline, so it never pays a replay or an exploration again.
    pub(crate) fn check_single(
        &self,
        acc: &Program,
        site: u32,
        mode: Mode,
        workers: usize,
        token: Option<&CancelToken>,
    ) -> CheckOutcome {
        if self.cache_enabled {
            let mut shared = self.shared();
            if shared.memo.contains(&(site, mode)) {
                shared.memo_hits += 1;
                return CheckOutcome::Refuted { monotone: true };
            }
        }
        let outcome = self.check_candidate(&acc.with_patch(&[(site, mode)]), workers, token);
        if self.cache_enabled && outcome == (CheckOutcome::Refuted { monotone: true }) {
            self.shared().memo.insert((site, mode));
        }
        outcome
    }

    /// Memoize a single-site rejection decided by group-level reasoning
    /// (the bisection narrowing a failing group down to one site) so no
    /// later pass re-pays it.
    pub(crate) fn memoize(&self, site: u32, mode: Mode) {
        if self.cache_enabled {
            self.shared().memo.insert((site, mode));
        }
    }

    /// Record a decided step and notify the per-step subscriber.
    pub(crate) fn record(&self, pass: usize, phase: OptimizePhase, step: OptimizationStep) {
        self.shared().steps.push(step);
        if let Some(cb) = &self.config.on_step {
            cb(&OptimizeEvent {
                pass,
                phase,
                site: &self.primary.sites()[step.site as usize].name,
                step,
            });
        }
    }
}

/// Run the staged engine (any strategy) over `prog` + `scenarios`.
///
/// `control` carries the session-level cancellation token and deadline;
/// `assume_primary_verified` lets the [`crate::Session`] pipeline skip
/// re-exploring the primary program it just verified.
pub(crate) fn run_engine(
    prog: &Program,
    scenarios: &[Program],
    config: &OptimizerConfig,
    control: RunControl,
    assume_primary_verified: bool,
) -> OptimizationReport {
    let start = Instant::now();
    let ctx = Ctx::new(prog, scenarios, config, control);
    let mut program = prog.clone();
    let before = program.barrier_summary();

    let report = |program: Program, verified: bool, interrupted: bool, ctx: &Ctx<'_>| {
        let shared = ctx.shared();
        let after = program.barrier_summary();
        OptimizationReport {
            program,
            verified,
            // A caught engine panic leaves the final candidate undecided,
            // exactly like a cancellation.
            interrupted: interrupted || shared.error.is_some(),
            error: shared.error.clone(),
            strategy: config.strategy,
            steps: shared.steps.clone(),
            verifications: shared.verifications,
            explorations: shared.explorations,
            explored_graphs: shared.graphs,
            cache_hits: shared.cache.hits + shared.memo_hits,
            before,
            after,
            elapsed: start.elapsed(),
        }
    };

    // Initial verification: optimization only starts from a correct
    // baseline. When the session just verified the primary under this
    // exact config, skip its (expensive) re-exploration and only check
    // the scenarios.
    //
    // The adaptive strategy *defers* this check instead: any accepted
    // candidate is weaker than the baseline, so by monotonicity its
    // verification already proves the baseline verifies — the upfront
    // exploration is only ever needed when the whole search accepts
    // nothing (including the degenerate case of an unverifiable input,
    // whose candidates all fail for the same monotonicity reason).
    let deferred = config.strategy == OptimizeStrategy::Adaptive;
    if !deferred {
        match ctx.check_candidate_inner(&program, ctx.pool_size(), None, assume_primary_verified) {
            CheckOutcome::Verified => {}
            CheckOutcome::Refuted { .. } => return report(program, false, false, &ctx),
            CheckOutcome::Interrupted | CheckOutcome::Errored => {
                // `verified: false` + `interrupted` means *unknown* —
                // unless the session already verified the primary and
                // there was nothing else to check.
                return report(
                    program,
                    assume_primary_verified && scenarios.is_empty(),
                    true,
                    &ctx,
                );
            }
        }
    }

    let interrupted = match config.strategy {
        OptimizeStrategy::Sequential => sequential_passes(&ctx, &mut program),
        OptimizeStrategy::Adaptive => run_passes(&ctx, &mut program),
    };

    // An accepted candidate vouches for the baseline only through
    // monotonicity over *violations*; once a fault-class rejection was
    // observed, the budget-limited reference oracle might also have
    // faulted on the baseline itself, so the deferred check must run to
    // keep the strategies' verdicts identical.
    let unvouched = program.site_modes() == prog.site_modes() || ctx.shared().fault_seen;
    if deferred && unvouched {
        if interrupted || ctx.shared().error.is_some() {
            return report(program, assume_primary_verified && scenarios.is_empty(), true, &ctx);
        }
        match ctx.check_candidate_inner(prog, ctx.pool_size(), None, assume_primary_verified) {
            CheckOutcome::Verified => {}
            CheckOutcome::Refuted { .. } => {
                // The baseline does not pass the oracle: the reference
                // strategy would have stopped before any relaxation —
                // report the canonical unverified shape (unchanged
                // program, no steps), discarding any accepts.
                ctx.shared().steps.clear();
                return report(prog.clone(), false, false, &ctx);
            }
            CheckOutcome::Interrupted | CheckOutcome::Errored => {
                return report(
                    program,
                    assume_primary_verified && scenarios.is_empty(),
                    true,
                    &ctx,
                );
            }
        }
    }
    report(program, true, interrupted, &ctx)
}

/// The reference strategy on the engine oracle: identical candidate order
/// and accept decisions to [`optimize_with`], with per-exploration
/// counting (and no witness cache — every rejection pays the full
/// exploration, which is exactly what the benches compare against).
/// Returns whether the run was interrupted.
fn sequential_passes(ctx: &Ctx<'_>, program: &mut Program) -> bool {
    let mut pass = 0;
    loop {
        pass += 1;
        let mut changed = false;
        for i in 0..program.sites().len() {
            let site = &program.sites()[i];
            if !site.relaxable {
                continue;
            }
            let (kind, current) = (site.kind, site.mode);
            for cand in kind.weaker_modes(current) {
                if ctx.interrupt_requested() {
                    return true;
                }
                program.set_mode(ModeRef(i as u32), cand);
                let outcome = ctx.check_candidate(program, ctx.pool_size(), None);
                let ok = match outcome {
                    CheckOutcome::Verified => true,
                    CheckOutcome::Refuted { .. } => false,
                    CheckOutcome::Interrupted | CheckOutcome::Errored => {
                        program.set_mode(ModeRef(i as u32), current);
                        return true;
                    }
                };
                ctx.record(
                    pass,
                    OptimizePhase::Sequential,
                    OptimizationStep { site: i as u32, from: current, to: cand, accepted: ok },
                );
                if ok {
                    changed = true;
                    break;
                }
                program.set_mode(ModeRef(i as u32), current);
            }
        }
        if !changed || (ctx.config.max_passes != 0 && pass >= ctx.config.max_passes) {
            return false;
        }
    }
}

/// The staged pass loop of the adaptive strategy. Returns whether the
/// run was interrupted.
fn run_passes(ctx: &Ctx<'_>, program: &mut Program) -> bool {
    let mut pass = 0;
    loop {
        pass += 1;
        let result = if pass == 1 {
            // Batch relaxation: all relaxable sites to their weakest
            // modes at once, bisecting (and group-committing) on failure.
            match bisect::commit_pass(ctx, program, pass) {
                Ok(changed) => schedule::PassResult { changed, interrupted: false },
                Err(bisect::Interrupted) => return true,
            }
        } else {
            schedule::run_pass(ctx, program, pass)
        };
        if result.interrupted {
            return true;
        }
        if !result.changed || (ctx.config.max_passes != 0 && pass >= ctx.config.max_passes) {
            return false;
        }
    }
}

/// Enumerate *all* maximally-relaxed barrier assignments of a program
/// (paper §3.3: "there exists multiple maximally-relaxed combinations
/// that are correct" — e.g. ours vs. the Linux 5.6 experts' qspinlock).
///
/// Exhaustively searches the product of per-site mode lattices, pruned by
/// monotonicity (any strengthening of a verified assignment verifies, so
/// only lattice-minimal verified points are reported). Exponential in the
/// number of relaxable sites — intended for small primitives (≤ ~8 sites).
///
/// Cancellation is cooperative: when [`OptimizerConfig::cancel`] fires the
/// enumeration stops at the next assignment and reports the minimal
/// elements among the assignments verified *so far* (a pre-fired token
/// yields an empty list).
///
/// Returns the distinct maximal assignments as mode vectors over the
/// relaxable sites (in site-table order), together with the site names.
pub fn enumerate_maximal(
    prog: &Program,
    config: &OptimizerConfig,
) -> (Vec<String>, Vec<Vec<Mode>>) {
    let relaxable: Vec<usize> =
        (0..prog.sites().len()).filter(|&i| prog.sites()[i].relaxable).collect();
    let names: Vec<String> = relaxable.iter().map(|&i| prog.sites()[i].name.clone()).collect();
    // Candidate modes per site, weakest first.
    let candidates: Vec<Vec<Mode>> = relaxable
        .iter()
        .map(|&i| {
            let site = &prog.sites()[i];
            let mut mods = site.kind.weaker_modes(site.mode);
            mods.push(site.mode);
            mods
        })
        .collect();
    let minimal_of = |verified: &[Vec<Mode>]| -> Vec<Vec<Mode>> {
        verified
            .iter()
            .filter(|a| !verified.iter().any(|b| *b != **a && pointwise_leq(b, a)))
            .cloned()
            .collect()
    };
    let mut verified: Vec<Vec<Mode>> = Vec::new();
    let mut assignment = vec![0usize; relaxable.len()];
    let mut program = prog.clone();
    loop {
        if config.is_cancelled() {
            return (names, minimal_of(&verified));
        }
        let modes: Vec<Mode> = assignment.iter().zip(&candidates).map(|(&c, cs)| cs[c]).collect();
        for (&site, &mode) in relaxable.iter().zip(&modes) {
            program.set_mode(ModeRef(site as u32), mode);
        }
        if matches!(explore(&program, &config.amc).verdict, Verdict::Verified) {
            verified.push(modes);
        }
        // Odometer increment.
        let mut i = 0;
        loop {
            if i == assignment.len() {
                // Filter to lattice-minimal verified assignments.
                return (names, minimal_of(&verified));
            }
            assignment[i] += 1;
            if assignment[i] < candidates[i].len() {
                break;
            }
            assignment[i] = 0;
            i += 1;
        }
    }
}

/// Is assignment `a` pointwise weaker-or-equal than `b` on the mode
/// lattice (`rlx < acq, rel < acq_rel < sc`)?
fn pointwise_leq(a: &[Mode], b: &[Mode]) -> bool {
    fn leq(x: Mode, y: Mode) -> bool {
        x == y
            || matches!(
                (x, y),
                (Mode::Rlx, _)
                    | (_, Mode::Sc)
                    | (Mode::Acq, Mode::AcqRel)
                    | (Mode::Rel, Mode::AcqRel)
            )
    }
    a.iter().zip(b).all(|(&x, &y)| leq(x, y))
}

/// Check that an assignment is locally maximal: relaxing any single
/// relaxable site to any weaker mode breaks verification. Used by tests.
pub fn is_locally_maximal(prog: &Program, config: &OptimizerConfig) -> bool {
    let mut program = prog.clone();
    for i in 0..program.sites().len() {
        let site = &program.sites()[i];
        if !site.relaxable {
            continue;
        }
        let (kind, current) = (site.kind, site.mode);
        for cand in kind.weaker_modes(current) {
            program.set_mode(ModeRef(i as u32), cand);
            let ok = matches!(explore(&program, &config.amc).verdict, Verdict::Verified);
            program.set_mode(ModeRef(i as u32), current);
            if ok {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsync_graph::Mode;
    use vsync_lang::{ProgramBuilder, Reg};
    use vsync_model::ModelKind;

    const X: u64 = 0x10;
    const Y: u64 = 0x20;

    fn cfg() -> OptimizerConfig {
        OptimizerConfig::with_amc(AmcConfig::with_model(ModelKind::Vmm))
    }

    fn cfg_with(strategy: OptimizeStrategy) -> OptimizerConfig {
        cfg().with_strategy(strategy)
    }

    /// Message passing, all-SC: the optimizer must keep exactly a
    /// release write and an acquire poll.
    fn mp_all_sc() -> Program {
        let mut pb = ProgramBuilder::new("mp");
        pb.thread(|t| {
            t.store(X, 1u64, ("data.store", Mode::Sc));
            t.store(Y, 1u64, ("flag.store", Mode::Sc));
        });
        pb.thread(|t| {
            t.await_eq(Reg(0), Y, 1u64, ("flag.poll", Mode::Sc));
            t.load(Reg(1), X, ("data.load", Mode::Sc));
            t.assert_eq(Reg(1), 1u64, "data visible");
        });
        pb.build().unwrap()
    }

    #[test]
    fn optimizes_mp_to_release_acquire() {
        for strategy in [OptimizeStrategy::Sequential, OptimizeStrategy::Adaptive] {
            let report = optimize(&mp_all_sc(), &cfg_with(strategy));
            assert!(report.verified, "{strategy}");
            assert_eq!(report.strategy, strategy);
            let p = &report.program;
            let mode_of = |n: &str| p.sites().iter().find(|s| s.name == n).unwrap().mode;
            assert_eq!(mode_of("data.store"), Mode::Rlx, "{strategy}");
            assert_eq!(mode_of("data.load"), Mode::Rlx, "{strategy}");
            assert_eq!(mode_of("flag.store"), Mode::Rel, "{strategy}");
            assert_eq!(mode_of("flag.poll"), Mode::Acq, "{strategy}");
            assert!(is_locally_maximal(p, &cfg()), "{strategy}");
            // Summary shape: 1 acq, 1 rel, 0 sc.
            let s = report.after;
            assert_eq!((s.acq, s.rel, s.sc, s.rlx), (1, 1, 0, 2), "{strategy}");
            // Still verifies, and the report says so.
            assert!(report.render().contains("flag.store"), "{strategy}");
        }
    }

    #[test]
    fn accepted_steps_replay_to_the_final_assignment() {
        for strategy in [OptimizeStrategy::Sequential, OptimizeStrategy::Adaptive] {
            let base = mp_all_sc();
            let report = optimize(&base, &cfg_with(strategy));
            let mut replayed = base.clone();
            for step in report.steps.iter().filter(|s| s.accepted) {
                replayed.set_mode(ModeRef(step.site), step.to);
            }
            assert_eq!(replayed.site_modes(), report.program.site_modes(), "{strategy}");
        }
    }

    #[test]
    fn unverified_input_is_returned_untouched() {
        // MP with an assert that is simply wrong.
        let mut pb = ProgramBuilder::new("broken");
        pb.thread(|t| {
            t.store(X, 1u64, ("s", Mode::Sc));
        });
        pb.final_check(X, vsync_lang::Test::eq(2u64), "impossible");
        let p = pb.build().unwrap();
        for strategy in [OptimizeStrategy::Sequential, OptimizeStrategy::Adaptive] {
            let report = optimize(&p, &cfg_with(strategy));
            assert!(!report.verified, "{strategy}");
            assert_eq!(report.program.sites()[0].mode, Mode::Sc, "{strategy}");
            assert!(report.steps.is_empty(), "{strategy}");
        }
    }

    #[test]
    fn fence_gets_removed_when_useless() {
        // A fence between two writes to the same location is useless.
        let mut pb = ProgramBuilder::new("useless-fence");
        pb.thread(|t| {
            t.store(X, 1u64, ("w1", Mode::Rlx));
            t.fence(("f", Mode::Sc));
            t.store(X, 2u64, ("w2", Mode::Rlx));
        });
        pb.final_check(X, vsync_lang::Test::eq(2u64), "last write wins");
        let p = pb.build().unwrap();
        for strategy in [OptimizeStrategy::Sequential, OptimizeStrategy::Adaptive] {
            let report = optimize(&p, &cfg_with(strategy));
            assert!(report.verified, "{strategy}");
            let f = report.program.sites().iter().find(|s| s.name == "f").unwrap();
            assert_eq!(f.mode, Mode::Rlx, "{strategy}: sc fence not relaxed away");
        }
    }

    #[test]
    fn enumerate_maximal_finds_the_ra_point() {
        let (names, maximal) = enumerate_maximal(&mp_all_sc(), &cfg());
        assert_eq!(names.len(), 4);
        // The unique maximal relaxation of message passing is
        // rel-store/acq-poll with relaxed data accesses.
        assert_eq!(maximal.len(), 1, "{maximal:?}");
        let expected: Vec<Mode> = names
            .iter()
            .map(|n| match n.as_str() {
                "flag.store" => Mode::Rel,
                "flag.poll" => Mode::Acq,
                _ => Mode::Rlx,
            })
            .collect();
        assert_eq!(maximal[0], expected);
    }

    #[test]
    fn enumerate_maximal_reports_multiple_optima_when_they_exist() {
        // x is published by BOTH an sc-fence pair and the flag; either the
        // fences or the rel/acq pair suffices: two incomparable optima.
        let mut pb = ProgramBuilder::new("two-optima");
        pb.thread(|t| {
            t.store(X, 1u64, ("data", Mode::Rlx));
            t.fence(("fence.w", Mode::Sc));
            t.store(Y, 1u64, ("flag.store", Mode::Rel));
        });
        pb.thread(|t| {
            t.await_eq(Reg(0), Y, 1u64, ("flag.poll", Mode::Acq));
            t.fence(("fence.r", Mode::Sc));
            t.load(Reg(1), X, ("data.load", Mode::Rlx));
            t.assert_eq(Reg(1), 1u64, "data visible");
        });
        let p = pb.build().unwrap();
        let (_, maximal) = enumerate_maximal(&p, &cfg());
        assert!(
            maximal.len() >= 2,
            "fence-based and mode-based synchronization are incomparable optima: {maximal:?}"
        );
    }

    #[test]
    fn enumerate_maximal_respects_a_prefired_cancel_token() {
        let token = CancelToken::new();
        token.cancel();
        let (names, maximal) = enumerate_maximal(&mp_all_sc(), &cfg().with_cancel(token));
        assert_eq!(names.len(), 4, "names are reported even when cancelled");
        assert!(maximal.is_empty(), "no assignment was verified: {maximal:?}");
    }

    #[test]
    fn greedy_result_is_among_the_maximal_points() {
        let p = mp_all_sc();
        let report = optimize(&p, &cfg());
        let (names, maximal) = enumerate_maximal(&p, &cfg());
        let greedy: Vec<Mode> = names
            .iter()
            .map(|n| report.program.sites().iter().find(|s| &s.name == n).unwrap().mode)
            .collect();
        assert!(maximal.contains(&greedy), "greedy {greedy:?} not in {maximal:?}");
    }

    #[test]
    fn counters_are_reported_and_consistent() {
        let seq = optimize(&mp_all_sc(), &cfg_with(OptimizeStrategy::Sequential));
        assert!(seq.verifications as usize > seq.steps.len() / 2);
        assert_eq!(seq.explorations, seq.verifications, "no scenarios: 1 exploration each");
        assert_eq!(seq.cache_hits, 0, "reference strategy never caches");
        assert!(seq.steps.iter().any(|s| s.accepted));
        assert!(seq.elapsed > Duration::ZERO);

        let ad = optimize(&mp_all_sc(), &cfg_with(OptimizeStrategy::Adaptive));
        assert!(ad.verified);
        assert!(
            ad.explorations <= seq.explorations,
            "adaptive ({}) must not explore more than sequential ({})",
            ad.explorations,
            seq.explorations
        );
    }

    #[test]
    fn per_step_events_stream_with_resolved_names() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let seen = Arc::new(AtomicUsize::new(0));
        let s = seen.clone();
        let config = cfg_with(OptimizeStrategy::Adaptive).with_on_step(move |e| {
            assert!(!e.site.is_empty());
            assert!(e.pass >= 1);
            s.fetch_add(1, Ordering::Relaxed);
        });
        let report = optimize(&mp_all_sc(), &config);
        assert!(report.verified);
        assert_eq!(
            seen.load(Ordering::Relaxed),
            report.steps.len(),
            "every recorded step produced exactly one event"
        );
    }

    #[test]
    fn strategy_parses_and_displays() {
        for (s, v) in
            [("sequential", OptimizeStrategy::Sequential), ("adaptive", OptimizeStrategy::Adaptive)]
        {
            assert_eq!(s.parse::<OptimizeStrategy>().unwrap(), v);
            assert_eq!(v.to_string(), s);
        }
        assert!("nope".parse::<OptimizeStrategy>().is_err());
    }
}
