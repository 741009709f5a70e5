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
//! There is one search. Pass 1 is batch relaxation: all relaxable sites
//! are dropped to their weakest modes in one candidate and failures are
//! bisected ([`bisect`]), so a mostly-relaxable primitive costs
//! `O(log n)` explorations instead of `O(n)`. The walk takes exactly the
//! decisions of the sequential ladder's first pass, after which only
//! fault-class rejections are still undecided (DESIGN.md §7.3) — so from
//! pass 2 on it *is* that ladder, with the rejection memo answering every
//! candidate a model violation already refuted. By the monotonicity of
//! barrier strengthening (any strengthening of a verified assignment
//! verifies) it lands on the same assignment as the plain sequential
//! loop, which lives in `tests/support/optimize.rs` as its oracle and
//! shares nothing with this module but the verifier.
//!
//! Every rejection yields a violating execution graph that is kept in a
//! [`witness`] cache; future candidates are first replayed against the
//! cached witnesses (mode-adopting replay + the fast-path consistency
//! check) and only pay for a full exploration when no witness refutes
//! them. A candidate that only takes sites from `sc` to the strongest
//! non-SC mode of their kind is *certified* instead when the memory model
//! vouches for it: an exploration that verified without the SC axiom
//! rejecting anything already gave every answer the candidate's would
//! ([`MemoryModel::certifies`]).
//!
//! The input is checked only when nothing vouches for it (the deferred
//! baseline), and the output always is: after the search, every slot of
//! the candidate set whose printed assignment no verifying exploration ran
//! verbatim is explored once more (the closing certificate). See
//! `DESIGN.md` §7 for the soundness and determinism arguments.

mod bisect;
mod witness;

use std::time::{Duration, Instant};

use vsync_graph::Mode;
use vsync_lang::{BarrierSummary, ModeRef, Program, SiteKind};
use vsync_model::{Access, MemoryModel};

use crate::explorer::{explore, explore_counted, explore_oracle};
use crate::failpoint;
use crate::session::{CancelToken, RunControl};
use crate::telemetry::EventKind;
use crate::verdict::{
    AmcConfig, AmcResult, EngineError, EngineErrorKind, EnginePhase, ExploreStats, Inconclusive,
    StopReason, Verdict,
};

use witness::WitnessCache;

/// Cap on cached failure witnesses (least recently useful evicted first).
const MAX_WITNESSES: usize = 32;

/// Configuration of an optimization run. Steps are observed through
/// [`OptimizationReport::steps`], or live as `optimize_step` events on a
/// [`crate::Session`]'s bus.
#[derive(Debug, Clone, Default)]
pub struct OptimizerConfig {
    /// AMC configuration used for each verification call.
    pub amc: AmcConfig,
    /// Cooperative cancellation flag, re-checked before every oracle
    /// verification. An interrupted run keeps every relaxation accepted
    /// so far (each one was individually verified, or is a strengthening
    /// of a verified batch) and reports
    /// [`OptimizationReport::interrupted`].
    pub cancel: Option<CancelToken>,
}

impl OptimizerConfig {
    /// Config verifying each candidate with `amc`.
    #[must_use]
    pub fn with_amc(amc: AmcConfig) -> Self {
        OptimizerConfig { amc, ..OptimizerConfig::default() }
    }

    /// Builder-style: attach a cancellation token.
    #[must_use = "builder methods return the modified config"]
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    fn is_cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }
}

/// One attempted relaxation. Sites are recorded by index into the
/// program's site table ([`Program::sites`]); names are resolved only
/// when rendering ([`OptimizationReport::render`] /
/// [`OptimizationReport::site_name`]) or emitting a bus event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptimizationStep {
    /// 1-based pass that decided the step: pass 1 is the batch / bisect
    /// opening, later passes are the sequential ladder.
    pub pass: usize,
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
    /// Whether the final program verifies: it was explored, verbatim or
    /// by a [`closing`](Self::closing) exploration, on every slot of the
    /// candidate set. `false` with [`interrupted`](Self::interrupted) set
    /// means *unknown*: the run was stopped before the program was
    /// explored.
    pub verified: bool,
    /// The run was cut short by its [`OptimizerConfig::cancel`] token,
    /// the session deadline, a resource budget or a caught engine panic;
    /// the assignment is verified but possibly not yet locally maximal.
    pub interrupted: bool,
    /// The first caught engine panic, when one cut the run short. Every
    /// relaxation accepted *before* the panic was individually verified
    /// and is kept; the failing candidate is treated as undecided, never
    /// as refuted. Also set, with `verified: false`, when a closing
    /// exploration did not verify: it names the last accepted step and
    /// carries the violation, since one of the search's shortcuts was
    /// wrong.
    pub error: Option<EngineError>,
    /// Every relaxation attempt that was decided, in decision order —
    /// a function of the program alone, identical for every worker
    /// count. The accepted steps, applied to the baseline in
    /// report order, reproduce [`program`](Self::program)'s assignment.
    pub steps: Vec<OptimizationStep>,
    /// Candidate verifications the cache did not answer (the classic
    /// oracle-call count): each one explored, or was
    /// [`certified`](Self::certified).
    pub verifications: u64,
    /// Individual AMC explorations performed (one per program of a
    /// verification that explored, scenarios included; the repo
    /// benchmark's `core.optimize.explorations`).
    pub explorations: u64,
    /// Verifications answered `Verified` without exploring: the
    /// candidate only takes sites from `sc` to the strongest non-SC mode
    /// of their kind, against a verified exploration whose SC axiom
    /// rejected nothing (DESIGN.md §7.4).
    pub certified: u64,
    /// Closing explorations: after the search, one per candidate-set slot
    /// whose printed assignment no verifying exploration ran verbatim —
    /// the slots whose last accepted candidate was certified. Counted
    /// apart from [`verifications`](Self::verifications) and
    /// [`explorations`](Self::explorations).
    pub closing: u64,
    /// Work items popped by the [`closing`](Self::closing) explorations.
    pub closing_graphs: u64,
    /// Work items popped across all oracle explorations — the true
    /// exploration bill. Rejections stop at the first violation (the
    /// early-stop oracle), so this weighs a cheap refutation and a full
    /// verifying exploration honestly.
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
            "{}: {} -> {} ({} verifications, {} explorations, {} certified, {} closing, \
             {} cache hits, {:.1?})",
            self.program.name(),
            self.before,
            self.after,
            self.verifications,
            self.explorations,
            self.certified,
            self.closing,
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

/// Relax barrier sites to a locally maximal relaxation, and explore the
/// result.
///
/// If the input program does not verify, the report carries
/// `verified = false` and the unchanged program — optimization only ever
/// starts from a correct baseline, exactly like VSync. Extra verification
/// scenarios are a [`crate::Session`] option
/// ([`Session::optimize_scenarios`](crate::Session::optimize_scenarios)).
pub fn optimize(prog: &Program, config: &OptimizerConfig) -> OptimizationReport {
    let control = RunControl::with_cancel(config.cancel.clone().unwrap_or_default());
    run_engine(prog, &[], config, control, None).report
}

/// A stand-in for [`MemoryModel::certifies`]: given whether the
/// candidate's run is symmetric and its `(access, from, to)` changes
/// against the base, may it skip its exploration?
#[doc(hidden)]
pub type Certifier = fn(bool, &[(Access, Mode, Mode)]) -> bool;

/// A certified candidate slot: the base program whose verified
/// exploration vouched for it, and the candidate program it replaced.
#[doc(hidden)]
pub type Certificate = (Program, Program);

/// [`optimize`], also returning a [`Certificate`] for every slot of every
/// certified candidate — the test hook that re-explores them.
#[doc(hidden)]
pub fn optimize_with_certificates(
    prog: &Program,
    config: &OptimizerConfig,
) -> (OptimizationReport, Vec<Certificate>) {
    let control = RunControl::with_cancel(config.cancel.clone().unwrap_or_default());
    let mut ctx = Ctx::new(prog, &[], config, control, None);
    ctx.certificates = Some(Vec::new());
    let report = search(&mut ctx).report;
    (report, ctx.certificates.unwrap_or_default())
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
    /// [`Ctx::error`]. Like [`Interrupted`](CheckOutcome::Interrupted),
    /// the candidate's status is *unknown* — the search must treat it as
    /// undecided (keep prior accepts, stop searching), never as refuted.
    Errored,
}

/// One slot's exploration: the site modes it ran at, its result and its
/// wall clock.
pub(crate) struct Explored {
    modes: Vec<Mode>,
    /// Did it collect executions? Only a run the session may report does,
    /// and only when the session asked.
    collected: bool,
    pub(crate) result: AmcResult,
    pub(crate) elapsed: Duration,
}

/// What [`run_engine`] hands a [`crate::Session`].
pub(crate) struct Outcome {
    pub(crate) report: OptimizationReport,
    /// The exploration the session reports: the printed program's primary
    /// slot, verbatim or closing — or, when the deferred baseline check
    /// did not verify, the input's primary slot, carrying the stop
    /// verdict when that check was cut short on any slot.
    pub(crate) primary: Explored,
    /// Is the input known to verify, vouched for by an accepted candidate
    /// or explored? If not, the session reports no optimization.
    pub(crate) input_verified: bool,
}

/// Engine context: the candidate oracle plus the run's bookkeeping. One
/// thread drives a run, so this is plain state behind `&mut`.
pub(crate) struct Ctx<'a> {
    /// The primary program at its *baseline* assignment (site names and
    /// table layout are assignment-independent).
    primary: &'a Program,
    scenarios: &'a [Program],
    config: &'a OptimizerConfig,
    control: RunControl,
    model: &'static dyn MemoryModel,
    steps: Vec<OptimizationStep>,
    verifications: u64,
    explorations: u64,
    certified: u64,
    /// Per candidate-set slot (the primary, then each scenario): the site
    /// modes of the latest exploration that verified with no SC-axiom
    /// rejection and no symmetry reduction — what a candidate is
    /// certified against.
    bases: Vec<Option<Vec<Mode>>>,
    /// Every certified slot as a [`Certificate`], when a test asked.
    certificates: Option<Vec<Certificate>>,
    /// Replaces [`MemoryModel::certifies`], when a test asked.
    certifier: Option<Certifier>,
    /// Per candidate-set slot: the exploration of the latest accepted
    /// candidate that explored (or, when nothing was accepted, the
    /// input's). The closing check compares the printed assignment
    /// against its modes.
    latest: Vec<Option<Explored>>,
    closing: u64,
    closing_graphs: u64,
    cache: WitnessCache,
    /// Work items popped across all oracle explorations (the engine's
    /// true exploration bill).
    graphs: u64,
    /// Did any oracle call reject with a *fault* (budget/modeling error)
    /// rather than a model violation? Faults are outside the
    /// monotonicity argument, so the deferred baseline verification must
    /// not be skipped once one was seen.
    fault_seen: bool,
    /// Single-site candidates refuted by a model violation. Assignments
    /// only ever weaken during a run, and a violation-rejection transfers
    /// to every weaker baseline (monotonicity), so a memoized rejection
    /// is final — this is what makes the fixpoint passes free.
    memo: std::collections::HashSet<(u32, Mode)>,
    /// Candidates short-circuited by the memo (no exploration, no
    /// witness replay needed).
    memo_hits: u64,
    /// The first caught engine panic (kept first-wins so the report is
    /// deterministic for a deterministically-injected fault).
    error: Option<EngineError>,
}

impl<'a> Ctx<'a> {
    fn new(
        primary: &'a Program,
        scenarios: &'a [Program],
        config: &'a OptimizerConfig,
        control: RunControl,
        certifier: Option<Certifier>,
    ) -> Self {
        Ctx {
            primary,
            scenarios,
            config,
            model: config.amc.model.checker(config.amc.checker),
            control,
            steps: Vec::new(),
            verifications: 0,
            explorations: 0,
            certified: 0,
            bases: vec![None; 1 + scenarios.len()],
            certificates: None,
            certifier,
            latest: (0..=scenarios.len()).map(|_| None).collect(),
            closing: 0,
            closing_graphs: 0,
            cache: WitnessCache::new(MAX_WITNESSES),
            graphs: 0,
            fault_seen: false,
            memo: std::collections::HashSet::new(),
            memo_hits: 0,
            error: None,
        }
    }

    /// Record a caught engine panic (first one wins) and return
    /// [`CheckOutcome::Errored`].
    fn record_error(&mut self, error: EngineError) -> CheckOutcome {
        self.error.get_or_insert(error);
        CheckOutcome::Errored
    }

    /// Has the caller (session token, config token or deadline) requested
    /// an interrupt?
    pub(crate) fn interrupt_requested(&self) -> bool {
        self.session_stop().is_some() || self.config.is_cancelled()
    }

    /// Has the session's token or deadline fired? The explorations run
    /// under these two only, so the config token alone leaves time to
    /// explore the input or the output.
    fn session_stop(&self) -> Option<StopReason> {
        if self.control.cancel.is_cancelled() {
            Some(StopReason::Cancelled)
        } else if self.control.deadline.is_some_and(|d| Instant::now() >= d) {
            Some(StopReason::DeadlineExceeded)
        } else {
            None
        }
    }

    /// Explore `p` under the session's controls. Only a run the session
    /// may report (`reported`) collects executions, and only when the
    /// session asked; a candidate probe never does.
    fn explore(&self, p: &Program, reported: bool) -> (Explored, Option<u64>) {
        let t0 = Instant::now();
        let collected = reported && self.config.amc.collect_executions;
        let (result, sc_rejections) = if collected {
            explore_counted(p, &self.config.amc, &self.control)
        } else {
            let out = explore_oracle(p, &self.config.amc, &self.control);
            (out.result, out.sc_rejections)
        };
        let run = Explored { modes: p.site_modes(), collected, result, elapsed: t0.elapsed() };
        (run, sc_rejections)
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
    /// full explorations of the primary and every scenario, each at
    /// `config.amc.workers` under the session's token and deadline.
    pub(crate) fn check_candidate(&mut self, candidate: &Program) -> CheckOutcome {
        // One probe = one isolation unit: a panic anywhere in the
        // witness replay or the oracle explorations quarantines this
        // candidate (undecided), not the whole optimization run.
        let probe = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.check_candidate_probe(candidate)
        }));
        probe.unwrap_or_else(|payload| {
            let payload = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_owned());
            self.record_error(EngineError {
                kind: EngineErrorKind::Panic,
                phase: EnginePhase::Optimize,
                thread: None,
                payload,
            })
        })
    }

    fn check_candidate_probe(&mut self, candidate: &Program) -> CheckOutcome {
        let _ = failpoint::hit("optimize.verify");
        let progs = self.candidate_set(candidate);
        if self.cache.refutes(&progs, self.model) {
            return CheckOutcome::Refuted { monotone: true };
        }
        self.verifications += 1;
        if self.certifies(&progs) {
            self.certified += 1;
            return CheckOutcome::Verified;
        }
        // The slot runs become `latest` only when every slot verifies:
        // a refuted or interrupted candidate is not the printed program.
        let mut runs = Vec::with_capacity(progs.len());
        for (idx, p) in progs.iter().enumerate() {
            self.explorations += 1;
            let (run, sc_rejections) = self.explore(p, false);
            self.graphs += run.result.stats.popped;
            match run.result.verdict {
                Verdict::Verified => {}
                Verdict::Safety(ce) | Verdict::AwaitTermination(ce) => {
                    self.cache.add(idx, ce.graph);
                    return CheckOutcome::Refuted { monotone: true };
                }
                Verdict::Fault(_) => {
                    self.fault_seen = true;
                    return CheckOutcome::Refuted { monotone: false };
                }
                Verdict::Inconclusive(_) => return CheckOutcome::Interrupted,
                Verdict::Error(e) => return self.record_error(e),
            }
            if sc_rejections == Some(0) && !self.symmetric(p) {
                self.bases[idx] = Some(run.modes.clone());
            }
            runs.push(run);
        }
        for (slot, run) in self.latest.iter_mut().zip(runs) {
            *slot = Some(run);
        }
        CheckOutcome::Verified
    }

    /// Does the exploration of `p` reduce by a nontrivial thread symmetry?
    fn symmetric(&self, p: &Program) -> bool {
        self.config.amc.symmetry && !p.symmetry_partition().is_trivial()
    }

    /// May every slot skip its exploration? Each needs a base the model
    /// certifies it against ([`MemoryModel::certifies`]).
    fn certifies(&mut self, progs: &[Program]) -> bool {
        let certified = progs.iter().zip(&self.bases).all(|(p, base)| {
            let Some(base) = base else { return false };
            let changes: Vec<(Access, Mode, Mode)> = p
                .sites()
                .iter()
                .zip(base)
                .filter(|(site, &from)| site.mode != from)
                .map(|(site, &from)| (access(site.kind), from, site.mode))
                .collect();
            let symmetric = self.symmetric(p);
            match self.certifier {
                Some(certifies) => certifies(symmetric, &changes),
                None => self.model.certifies(symmetric, &changes),
            }
        });
        if let (true, Some(certificates)) = (certified, &mut self.certificates) {
            for (p, base) in progs.iter().zip(&self.bases) {
                let base = base.as_ref().expect("a certified slot has a base");
                let patch: Vec<(u32, Mode)> = (0..).zip(base.iter().copied()).collect();
                certificates.push((p.with_patch(&patch), p.clone()));
            }
        }
        certified
    }

    /// Verify one *single-site* candidate `acc[site := mode]`, with the
    /// rejection memo consulted first: a candidate once refuted by a
    /// model violation stays refuted against every later (weaker)
    /// baseline, so it never pays a replay or an exploration again.
    pub(crate) fn check_single(&mut self, acc: &Program, site: u32, mode: Mode) -> CheckOutcome {
        if self.memo.contains(&(site, mode)) {
            self.memo_hits += 1;
            return CheckOutcome::Refuted { monotone: true };
        }
        let outcome = self.check_candidate(&acc.with_patch(&[(site, mode)]));
        if outcome == (CheckOutcome::Refuted { monotone: true }) {
            self.memoize(site, mode);
        }
        outcome
    }

    /// Memoize a single-site rejection decided by group-level reasoning
    /// (the bisection narrowing a failing group down to one site) so no
    /// later pass re-pays it.
    pub(crate) fn memoize(&mut self, site: u32, mode: Mode) {
        self.memo.insert((site, mode));
    }

    /// Record a decided step and, when the run has a bus, emit it.
    pub(crate) fn record(&mut self, step: OptimizationStep) {
        self.steps.push(step);
        if let Some(bus) = &self.control.events {
            bus.emit(EventKind::OptimizeStep {
                pass: step.pass,
                site: self.primary.sites()[step.site as usize].name.clone(),
                from: step.from,
                to: step.to,
                accepted: step.accepted,
            });
        }
    }

    /// The deferred baseline check (§7.3): explore the input on every
    /// slot, with no witness replay and no certificate, so an input that
    /// does not verify reports its own verdict. Returns the runs, the
    /// last one the first that did not verify, if any.
    fn check_input(&mut self) -> Vec<Explored> {
        self.verifications += 1;
        let mut runs = Vec::with_capacity(1 + self.scenarios.len());
        for (idx, p) in self.candidate_set(self.primary).iter().enumerate() {
            self.explorations += 1;
            let (run, _) = self.explore(p, idx == 0);
            self.graphs += run.result.stats.popped;
            let verified = run.result.is_verified();
            runs.push(run);
            if !verified {
                break;
            }
        }
        runs
    }

    /// The closing certificate: explore the printed assignment once on
    /// every slot that no verifying exploration ran it on verbatim — the
    /// slots whose last accepted candidate was certified (§7.5) — and on
    /// the primary slot when the session collects executions and its
    /// verbatim run, a candidate probe, did not.
    fn close(&mut self, printed: &Program) -> Closed {
        let collect = self.config.amc.collect_executions;
        for (idx, p) in self.candidate_set(printed).iter().enumerate() {
            let modes = p.site_modes();
            let verbatim = self.latest[idx].as_ref().filter(|run| run.modes == modes);
            match verbatim {
                Some(run) if idx > 0 || !collect || run.collected => continue,
                Some(_) => {}
                None => debug_assert!(!self.symmetric(p), "only certified slots need closing"),
            }
            self.closing += 1;
            let (run, _) = self.explore(p, idx == 0);
            self.closing_graphs += run.result.stats.popped;
            let closed = match &run.result.verdict {
                Verdict::Verified => Closed::Verified,
                Verdict::Inconclusive(_) => Closed::Stopped(run.result.verdict.clone()),
                Verdict::Error(e) => {
                    self.record_error(e.clone());
                    Closed::Stopped(run.result.verdict.clone())
                }
                failed => Closed::Failed(self.closing_failure(idx, failed)),
            };
            self.latest[idx] = Some(run);
            if !matches!(closed, Closed::Verified) {
                return closed;
            }
        }
        Closed::Verified
    }

    /// The error a failed closing exploration of slot `idx` reports: the
    /// last accepted step, and the violation with its witness.
    fn closing_failure(&self, idx: usize, verdict: &Verdict) -> EngineError {
        let s = self.steps.iter().rev().find(|s| s.accepted).expect("only an accept needs closing");
        let site = &self.primary.sites()[s.site as usize].name;
        let slot = if idx == 0 { String::new() } else { format!(" (scenario {idx})") };
        let mut payload = format!(
            "the closing exploration of the printed assignment{slot} did not verify after \
             the last accepted step `{site}: {} -> {}`: {verdict}",
            s.from, s.to
        );
        if let Some(ce) = verdict.counterexample() {
            payload.push('\n');
            payload.push_str(&ce.graph.render());
        }
        EngineError {
            kind: EngineErrorKind::FailedCheck,
            phase: EnginePhase::Optimize,
            thread: None,
            payload,
        }
    }
}

/// The events that carry a site's mode, as the model sees them.
fn access(kind: SiteKind) -> Access {
    match kind {
        SiteKind::Load => Access::Load,
        SiteKind::Store => Access::Store,
        SiteKind::Rmw => Access::Rmw,
        SiteKind::Fence => Access::Fence,
    }
}

/// Run the engine over `prog` + `scenarios`. `control` carries the
/// session-level cancellation token and deadline; `certifier`, when set,
/// replaces the model's [`MemoryModel::certifies`] (a test hook).
pub(crate) fn run_engine(
    prog: &Program,
    scenarios: &[Program],
    config: &OptimizerConfig,
    control: RunControl,
    certifier: Option<Certifier>,
) -> Outcome {
    search(&mut Ctx::new(prog, scenarios, config, control, certifier))
}

/// The search of [`run_engine`] on `ctx`, then the checks that close it:
/// the deferred baseline when nothing vouches for the input, and the
/// closing certificate of the output.
fn search(ctx: &mut Ctx<'_>) -> Outcome {
    let start = Instant::now();
    let prog = ctx.primary;
    let mut program = prog.clone();
    let before = program.barrier_summary();

    let report = |program: Program, verified: bool, interrupted: bool, ctx: &mut Ctx<'_>| {
        let after = program.barrier_summary();
        OptimizationReport {
            program,
            verified,
            // A caught engine panic leaves the final candidate undecided,
            // exactly like a cancellation.
            interrupted: interrupted || ctx.error.is_some(),
            error: ctx.error.take(),
            steps: std::mem::take(&mut ctx.steps),
            verifications: ctx.verifications,
            explorations: ctx.explorations,
            certified: ctx.certified,
            closing: ctx.closing,
            closing_graphs: ctx.closing_graphs,
            explored_graphs: ctx.graphs,
            cache_hits: ctx.cache.hits + ctx.memo_hits,
            before,
            after,
            elapsed: start.elapsed(),
        }
    };

    // Batch relaxation: all relaxable sites to their weakest modes at
    // once, bisecting (and group-committing) on failure; then the
    // sequential ladder, which only a fault-class rejection can still
    // give anything to decide.
    let interrupted = match bisect::commit_pass(ctx, &mut program, 1) {
        Ok(true) => ladder_passes(ctx, &mut program, 2),
        Ok(false) => false,
        Err(bisect::Interrupted) => true,
    };

    // Optimization only starts from a correct baseline, but its check is
    // deferred: any accepted candidate is weaker than the baseline, so by
    // monotonicity its verification already proves the baseline verifies.
    // The exploration is needed when the whole search accepts nothing
    // (including the degenerate case of an unverifiable input, whose
    // candidates all fail for the same monotonicity reason) — and once a
    // fault-class rejection was observed, since monotonicity covers only
    // *violations*: the budget-limited oracle might also have faulted on
    // the baseline itself.
    let accepted = program.site_modes() != prog.site_modes();
    if !accepted || ctx.fault_seen {
        if let Some(reason) = ctx.session_stop() {
            // Nothing vouches for the input and nothing may explore it.
            let verdict =
                Verdict::Inconclusive(Inconclusive { reason, explored: 0, frontier_dropped: 0 });
            let result = AmcResult { verdict, stats: ExploreStats::default(), executions: vec![] };
            let primary = Explored {
                modes: prog.site_modes(),
                collected: false,
                result,
                elapsed: Duration::ZERO,
            };
            let report = report(program, false, true, ctx);
            return Outcome { report, primary, input_verified: false };
        }
        let mut runs = ctx.check_input();
        let last = &runs.last().expect("the input was explored").result.verdict;
        if !last.is_verified() {
            let stopped = match last {
                Verdict::Inconclusive(_) => Some(last.clone()),
                Verdict::Error(e) => {
                    ctx.record_error(e.clone());
                    Some(last.clone())
                }
                _ => None,
            };
            let interrupted = stopped.is_some();
            let mut primary = runs.swap_remove(0);
            let input_verified = match stopped {
                // Unknown on some slot: the session reports the stop, and
                // only an accepted candidate still vouches for the input.
                Some(verdict) => {
                    primary.result.verdict = verdict;
                    accepted
                }
                // The baseline does not pass the oracle: report the
                // canonical unverified shape (unchanged program, no
                // steps), discarding any accepts.
                None => {
                    ctx.steps.clear();
                    program = prog.clone();
                    primary.result.is_verified()
                }
            };
            return Outcome {
                report: report(program, false, interrupted, ctx),
                primary,
                input_verified,
            };
        }
        if !accepted {
            // Nothing was accepted: the input is the printed program.
            ctx.latest = runs.into_iter().map(Some).collect();
        }
    }

    let closed = ctx.close(&program);
    let mut primary = ctx.latest[0].take().expect("the closing check explored slot 0");
    let verified = matches!(closed, Closed::Verified);
    let stopped = interrupted || matches!(closed, Closed::Stopped(_));
    let mut report = report(program, verified, stopped, ctx);
    // The session's verdict is the printed program's on every slot.
    match closed {
        Closed::Verified => {}
        Closed::Stopped(verdict) => primary.result.verdict = verdict,
        Closed::Failed(e) => {
            primary.result.verdict = Verdict::Error(e.clone());
            report.error = Some(e);
        }
    }
    Outcome { report, primary, input_verified: true }
}

/// How the closing certificate ended.
enum Closed {
    /// Every slot of the printed assignment verified.
    Verified,
    /// A closing exploration was interrupted or panicked (its verdict):
    /// unknown.
    Stopped(Verdict),
    /// A closing exploration did not verify.
    Failed(EngineError),
}

/// The sequential ladder: sites in order, weakest candidate first, one
/// [`Ctx::check_single`] per attempt, passes (numbered from `first_pass`)
/// until one accepts nothing. It runs after the batch opening and
/// re-decides the fault-class rejections the memo does not hold (DESIGN.md
/// §7.3). Returns whether the run was interrupted.
fn ladder_passes(ctx: &mut Ctx<'_>, program: &mut Program, first_pass: usize) -> bool {
    for pass in first_pass.. {
        let mut changed = false;
        for site in program.relaxable_sites() {
            let s = &program.sites()[site as usize];
            let from = s.mode;
            for to in s.kind.weaker_modes(from) {
                if ctx.interrupt_requested() {
                    return true;
                }
                let accepted = match ctx.check_single(program, site, to) {
                    CheckOutcome::Verified => true,
                    CheckOutcome::Refuted { .. } => false,
                    CheckOutcome::Interrupted | CheckOutcome::Errored => return true,
                };
                ctx.record(OptimizationStep { pass, site, from, to, accepted });
                if accepted {
                    program.apply_patch(&[(site, to)]);
                    changed = true;
                    break;
                }
            }
        }
        if !changed {
            break;
        }
    }
    false
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

    /// Local maximality of this result is asserted by
    /// `greedy_result_is_among_the_maximal_points`: a lattice-minimal
    /// verified assignment has no verified single-site relaxation.
    #[test]
    fn optimizes_mp_to_release_acquire() {
        let report = optimize(&mp_all_sc(), &cfg());
        assert!(report.verified);
        let p = &report.program;
        let mode_of = |n: &str| p.sites().iter().find(|s| s.name == n).unwrap().mode;
        assert_eq!(mode_of("data.store"), Mode::Rlx);
        assert_eq!(mode_of("data.load"), Mode::Rlx);
        assert_eq!(mode_of("flag.store"), Mode::Rel);
        assert_eq!(mode_of("flag.poll"), Mode::Acq);
        // Summary shape: 1 acq, 1 rel, 0 sc.
        let s = report.after;
        assert_eq!((s.acq, s.rel, s.sc, s.rlx), (1, 1, 0, 2));
        // Still verifies, and the report says so.
        assert!(report.render().contains("flag.store"));
    }

    #[test]
    fn accepted_steps_replay_to_the_final_assignment() {
        let base = mp_all_sc();
        let report = optimize(&base, &cfg());
        let mut replayed = base.clone();
        for step in report.steps.iter().filter(|s| s.accepted) {
            replayed.set_mode(ModeRef(step.site), step.to);
        }
        assert_eq!(replayed.site_modes(), report.program.site_modes());
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
        let report = optimize(&p, &cfg());
        assert!(!report.verified);
        assert_eq!(report.program.sites()[0].mode, Mode::Sc);
        assert!(report.steps.is_empty());
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
        let report = optimize(&p, &cfg());
        assert!(report.verified);
        let f = report.program.sites().iter().find(|s| s.name == "f").unwrap();
        assert_eq!(f.mode, Mode::Rlx, "sc fence not relaxed away");
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

    /// The bill is coherent. The comparison with the sequential
    /// reference's bill is `tests/optimizer_strategies.rs`'s
    /// `adaptive_explores_less_than_sequential`.
    #[test]
    fn counters_are_reported_and_consistent() {
        let r = optimize(&mp_all_sc(), &cfg());
        assert!(r.verified);
        assert!(r.verifications > 0);
        assert_eq!(
            r.explorations + r.certified,
            r.verifications,
            "no scenarios: each verification explores once or is certified"
        );
        assert!(r.explored_graphs >= r.explorations);
        assert!(r.steps.iter().any(|s| s.accepted));
        assert!(r.elapsed > Duration::ZERO);
    }

    /// A run with a bus emits one `optimize_step` per recorded step, in
    /// report order, with the site name resolved.
    #[test]
    fn per_step_events_stream_with_resolved_names() {
        use crate::telemetry::{EngineEvent, EventBus};
        use std::sync::{Arc, Mutex};
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let bus = Arc::new(EventBus::new(Arc::new(move |ev: &EngineEvent| {
            if let EventKind::OptimizeStep { pass, site, from, to, accepted } = &ev.kind {
                sink.lock().unwrap().push((*pass, site.clone(), *from, *to, *accepted));
            }
        })));
        let control = RunControl { events: Some(bus.start_session("mp", 1)), ..Default::default() };
        let report = run_engine(&mp_all_sc(), &[], &cfg(), control, None).report;
        assert!(report.verified);
        let expected: Vec<_> = report
            .steps
            .iter()
            .map(|s| (s.pass, report.site_name(s).to_owned(), s.from, s.to, s.accepted))
            .collect();
        assert!(!expected.is_empty());
        assert_eq!(*seen.lock().unwrap(), expected, "one event per recorded step");
    }
}
