//! The AMC exploration (paper Fig. 6): entry points and the one driver.
//!
//! [`explore_with`] validates the program and hands it to the exploration
//! driver, [`Engine::run`]: a loop that pops a frontier entry, runs its
//! chain under `catch_unwind` ([`crate::revisit`] holds the chain logic —
//! rewinding, replay, consistency, in-place extension, backward revisits,
//! leaf checks), arbitrates how the chain ended, and puts the admitted
//! roots on the frontier. The loop is written once.
//! [`AmcConfig::workers`] `== 1` runs it inline on the calling thread;
//! `> 1` runs the same function on that many scoped threads over the same
//! sharded seen-sets and the same [`BudgetTracker`].
//!
//! The frontier is one LIFO stack of choice points *per worker* plus a
//! shared pool of roots ([`WorkQueue`]). Each worker runs every chain on
//! one [`Chain`] — one graph, one checker, one interpreter — and a choice
//! point ([`ChoicePoint`]) is a root that chain admitted: a forward
//! alternate, a `⊥` resolution or a backward revisit, possibly relabeled
//! to its orbit's representative, entered by rewinding the chain to where
//! it was admitted. A worker pushes the choice points it admits on its own
//! stack and pops from it; only when the stack is empty does it take a
//! root from the pool — a plain graph — and open its chain on it. It takes
//! the pool's lock only then, and gives the oldest half of its stack to
//! the pool only while a peer is asleep there waiting for work: a donated
//! choice point is materialized on the way ([`Chain::materialize`]), so
//! one code path serves every worker count. Graphs stay on the core that
//! allocated them unless somebody would otherwise idle.
//!
//! ## Determinism
//!
//! Roots are independent: what a chain does depends only on its root's
//! content. The seen-sets admit each orbit exactly once and successors are
//! functions of content, so the set of explored graphs — hence the verdict
//! and `complete_executions` — is the same for every worker count
//! (DESIGN.md §3). With one worker nobody ever waits, so the frontier is
//! that worker's LIFO stack and every counter, telemetry event and
//! `Inconclusive` payload is a deterministic function of the program.
//!
//! ## Pacing
//!
//! Each worker's `Pacer` runs once per chain step and has three duties:
//! the cancel flag on every step; the deadline every `CHECK_PERIOD`
//! steps; and, on the same cadence and once more on exit, a drain of the
//! worker's counter delta (plus its phase slice while profiling is on)
//! onto the session's event bus. It shares nothing with the other
//! workers, so watching a run adds no cross-worker synchronization.
//!
//! ## Thread-symmetry reduction
//!
//! With [`AmcConfig::symmetry`] (default on) the seen-sets are keyed on
//! the canonical hash *modulo permutations of template-identical threads*
//! ([`vsync_lang::Program::symmetry_partition`]): up to `k!` relabeled
//! twins per `k`-thread symmetry class collapse onto one orbit (counted as
//! `symmetry_pruned`), and the item admitted for an orbit is normalized to
//! the orbit's canonical representative so successor generation stays a
//! function of the orbit. Hash and representative both come from each
//! worker's [`Canonicalizer`] — the one graph encoder, which
//! `canonical_hash_modulo` runs too. Soundness: DESIGN.md §8.
//!
//! This is the only search. Its oracles share none of its rules: the
//! test-support enumerator and the published litmus verdicts, and
//! self-comparisons across symmetry settings and worker counts
//! (DESIGN.md §12 "The oracles").

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Instant;

use vsync_graph::{Canonicalizer, ExecutionGraph, RfSource};
use vsync_lang::{BlockedAwait, ChainReplay, Operand, Program};
use vsync_model::{ChainChecker, MemoryModel};

use crate::failpoint;
use crate::revisit::{Chain, ChainEnd, ChoicePoint, RevisitTargets};
use crate::session::RunControl;
use crate::telemetry::{EventKind as BusEvent, PhaseProfile, PhaseTracker, SessionBus};
use crate::verdict::{
    AmcConfig, AmcResult, EngineError, EngineErrorKind, EnginePhase, ExploreStats, Inconclusive,
    ResourceBudget, StopReason, Verdict,
};

/// Lock acquisition with explicit poison recovery: every mutex in the
/// explorer guards state that is valid at each lock release (counters,
/// the work queue, dedup shards), so a peer's panic mid-*hold* is
/// impossible to observe — the panic either happens outside any guard or
/// inside `catch_unwind`-wrapped processing that never holds one. A
/// poisoned flag therefore carries no information and must not cascade.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Render a caught panic payload for an [`EngineError`].
fn panic_payload(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run AMC on a program.
///
/// Returns [`Verdict::Verified`] iff every consistent execution passes all
/// assertions and final-state checks *and* every await terminates
/// (Theorem 1 of the paper: for programs obeying the Bounded-Length and
/// Bounded-Effect principles, the search is exhaustive and terminates).
pub fn explore(prog: &Program, config: &AmcConfig) -> AmcResult {
    explore_with(prog, config, &RunControl::default())
}

/// [`explore`] with runtime controls: a cancellation token, a deadline and
/// an event bus (see [`RunControl`]). This is the engine entry point
/// the [`crate::Session`] pipeline drives; prefer the `Session` builder
/// unless you are wiring the explorer into your own scheduler.
///
/// Interruption is cooperative: the cancel flag is re-checked on every
/// chain step and the deadline every few dozen steps, in every worker. An
/// interrupted run reports [`Verdict::Inconclusive`] without finishing
/// the chain in flight; resource-budget exhaustion ([`ResourceBudget`])
/// degrades to the same shape. A panic caught inside a worker terminates
/// the run with [`Verdict::Error`] instead of aborting the process.
pub fn explore_with(prog: &Program, config: &AmcConfig, control: &RunControl) -> AmcResult {
    explore_counted(prog, config, control).0
}

/// [`explore_with`], plus the SC-axiom rejections summed over every
/// checker of every worker ([`ChainChecker::sc_rejections`]).
pub(crate) fn explore_counted(
    prog: &Program,
    config: &AmcConfig,
    control: &RunControl,
) -> (AmcResult, Option<u64>) {
    if let Err(e) = prog.validate() {
        let result = AmcResult {
            verdict: Verdict::Fault(format!("malformed program: {e}")),
            stats: ExploreStats::default(),
            executions: Vec::new(),
        };
        return (result, None);
    }
    // The symmetry partition is recomputed from the *current* resolved
    // code on every run (cheap), so optimizer-patched candidates whose
    // thread modes diverged never reuse a stale merge.
    let partition = config.symmetry.then(|| prog.symmetry_partition()).filter(|p| !p.is_trivial());
    Engine { prog, config, model: config.model.checker(config.checker), control, partition }.run()
}

/// Convenience wrapper returning only the verdict.
pub fn verify(prog: &Program, config: &AmcConfig) -> Verdict {
    explore(prog, config).verdict
}

/// Outcome of an oracle-mode exploration ([`explore_oracle`]).
#[derive(Debug)]
#[must_use = "a dropped OracleOutcome discards the candidate's verdict"]
pub struct OracleOutcome {
    /// The exploration's verdict and counters (never any executions). A
    /// violation's counterexample graph is the optimizer's witness;
    /// `stats.popped` is the cost of the call (rejections stop at the first
    /// violation, so they are typically far cheaper than a verifying run).
    pub result: AmcResult,
    /// The SC-axiom rejections of every checker of every worker
    /// ([`ChainChecker::sc_rejections`]): `Some(0)` on a verified run
    /// means no answer depended on an event being SC, `None` that the
    /// checkers could not tell.
    pub sc_rejections: Option<u64>,
}

/// The optimizer's view of the explorer: [`explore_with`] without
/// execution collection (a candidate probe keeps no executions), plus
/// the SC-axiom rejections that certification reads (DESIGN.md §7.4).
///
/// A rejection leans on the driver's first-violation stop: the
/// verdict-bearing worker stops the shared queue, so every peer drains at
/// its next pop instead of exploring useless branches. Every candidate
/// evaluation runs under the session's own [`CancelToken`] and deadline.
///
/// [`CancelToken`]: crate::session::CancelToken
pub fn explore_oracle(prog: &Program, config: &AmcConfig, control: &RunControl) -> OracleOutcome {
    let mut config = config.clone();
    config.collect_executions = false;
    let (result, sc_rejections) = explore_counted(prog, &config, control);
    OracleOutcome { result, sc_rejections }
}

/// Count the complete consistent executions of a program — the size of the
/// paper's `G^F_*` set (used by the Fig. 1/Fig. 5 experiments). With
/// [`AmcConfig::symmetry`] on, the count is the number of *orbits* of
/// executions under permutations of symmetric threads; disable symmetry
/// for the naive per-twin count.
pub fn count_executions(prog: &Program, config: &AmcConfig) -> u64 {
    match count_executions_with(prog, config, &RunControl::default()) {
        Ok(n) => n,
        Err(r) => panic!(
            "count_executions stopped early ({r}); raise the exploration \
             budget or use count_executions_with"
        ),
    }
}

/// [`count_executions`] honoring runtime controls: a pre-fired
/// [`CancelToken`] or an already-expired deadline returns promptly with
/// the [`StopReason`] instead of enumerating the full execution space
/// (every exploration worker re-checks the budget cooperatively, exactly
/// as [`explore_with`] does).
///
/// # Errors
///
/// The stop reason, when the run was cut short before the space was
/// exhausted — a partial count would be meaningless.
///
/// [`CancelToken`]: crate::session::CancelToken
pub fn count_executions_with(
    prog: &Program,
    config: &AmcConfig,
    control: &RunControl,
) -> Result<u64, StopReason> {
    let result = explore_with(prog, config, control);
    match result.verdict {
        Verdict::Inconclusive(i) => Err(i.reason),
        _ => Ok(result.stats.complete_executions),
    }
}

/// Pass-through hasher for the seen-sets: the keys are already 128-bit
/// content hashes, so running them through SipHash again is pure waste.
#[derive(Default)]
struct IdentityHasher(u64);

impl Hasher for IdentityHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("dedup keys hash via write_u128");
    }

    fn write_u128(&mut self, v: u128) {
        // Shard selection uses the LOW bits (`h % SHARDS`); the in-table
        // hash must use disjoint bits or every key in a shard clusters
        // into 1/SHARDS of its buckets.
        self.0 = (v >> 64) as u64;
    }
}

type SeenSet = HashSet<u128, BuildHasherDefault<IdentityHasher>>;

/// A seen-set of orbit hashes, sharded so concurrent workers rarely
/// contend on one lock.
struct SeenShards(Vec<Mutex<SeenSet>>);

impl SeenShards {
    const SHARDS: usize = 64;

    fn new() -> Self {
        SeenShards((0..Self::SHARDS).map(|_| Mutex::new(SeenSet::default())).collect())
    }

    /// Insert `h`; `true` iff it was never seen before (the new entry is
    /// charged to `budget`).
    fn insert(&self, h: u128, budget: &BudgetTracker) -> bool {
        let fresh = relock(&self.0[(h as usize) % Self::SHARDS]).insert(h);
        if fresh {
            budget.note_dedup_entry();
        }
        fresh
    }
}

/// One exploration: the program, its configuration and controls. The
/// driver ([`Engine::run`]) lives here, the chain logic it calls in
/// [`crate::revisit`].
pub(crate) struct Engine<'p> {
    pub(crate) prog: &'p Program,
    pub(crate) config: &'p AmcConfig,
    pub(crate) model: &'static dyn MemoryModel,
    control: &'p RunControl,
    /// Non-trivial thread-symmetry partition, when symmetry reduction is
    /// enabled for this run. Each worker derives its own
    /// [`Canonicalizer`] (scratch buffers) from it.
    partition: Option<vsync_graph::ThreadPartition>,
}

/// Chain steps between deadline checks. The cancel flag is read on every
/// step (one relaxed-ish atomic load); `Instant::now()` and the telemetry
/// drain only every `CHECK_PERIOD` steps so they stay out of the hot path.
const CHECK_PERIOD: u64 = 64;

/// Per-worker cadence state for the cooperative control checks. It does
/// three things: cancellation, the deadline, and draining this worker's
/// telemetry onto the event bus.
struct Pacer<'c> {
    control: &'c RunControl,
    count: u64,
    /// This worker's index, stamped onto telemetry events so multi-worker
    /// streams can be demultiplexed.
    worker: usize,
    /// Local stats as of the last drain.
    last_local: ExploreStats,
    /// Phase profile as of the last drain.
    last_profile: PhaseProfile,
}

impl Pacer<'_> {
    /// One cancellation point. Returns the stop reason that should end
    /// the run, if any; otherwise, every [`CHECK_PERIOD`] calls, checks
    /// the deadline and drains this worker's telemetry onto the event bus
    /// (when one is attached). `local` is *this worker's* cumulative
    /// counters, so stats deltas are per-worker and deterministic at
    /// `workers == 1`.
    fn poll(&mut self, tracker: &PhaseTracker, local: &ExploreStats) -> Option<StopReason> {
        if self.control.cancel.is_cancelled() {
            return Some(StopReason::Cancelled);
        }
        self.count += 1;
        if self.count % CHECK_PERIOD != 1 {
            return None;
        }
        if self.control.deadline.is_some_and(|d| Instant::now() >= d) {
            return Some(StopReason::DeadlineExceeded);
        }
        if let Some(bus) = &self.control.events {
            // The tracker's profile is cumulative (the final merge into
            // the run's stats reads it too); the bus only sees the
            // since-last-drain slice.
            self.emit(bus, local, tracker.snapshot());
        }
        None
    }

    /// The drain a worker performs once more on exit, with the profile
    /// that is merged into its final stats: the deltas and slices on the
    /// bus then add up to exactly the run's `ExploreStats`.
    fn finish(&mut self, local: &ExploreStats, profile: PhaseProfile) {
        if let Some(bus) = &self.control.events {
            self.emit(bus, local, profile);
        }
    }

    /// Put one `stats_delta` and one `phase_slice` (since this worker's
    /// previous ones) on the bus, each only when it carries something —
    /// so with profiling off no `phase_slice` is ever emitted.
    fn emit(&mut self, bus: &SessionBus, local: &ExploreStats, profile: PhaseProfile) {
        let delta = local.minus(&self.last_local);
        self.last_local = *local;
        if delta != ExploreStats::default() {
            bus.emit(BusEvent::StatsDelta { worker: self.worker, stats: delta });
        }
        let slice = profile.minus(&self.last_profile);
        if !slice.is_empty() || !slice.total().is_zero() {
            bus.emit(BusEvent::PhaseSlice { worker: self.worker, phases: slice });
        }
        self.last_profile = profile;
    }
}

/// Fixed estimated cost of one dedup-set entry (the 16-byte key plus
/// table overhead), for [`ResourceBudget::max_memory_bytes`] accounting.
const DEDUP_ENTRY_BYTES: u64 = 48;

/// Shared accounting for a run's [`ResourceBudget`]: live frontier bytes
/// (the graph of every root in the pool and the size of every choice point
/// on a worker's stack, charged on push, released when it is popped or
/// abandoned) plus monotone seen-set bytes. Byte accounting is skipped
/// entirely when no memory ceiling is set, so unlimited runs never call
/// [`ExecutionGraph::approx_heap_bytes`].
struct BudgetTracker {
    max_bytes: u64,
    bytes: AtomicU64,
    /// Synthetic memory exhaustion injected by a failpoint — lets the
    /// fault harness exercise the degradation path deterministically
    /// without tuning real budgets.
    forced: AtomicBool,
}

impl BudgetTracker {
    fn new(b: &ResourceBudget) -> Self {
        BudgetTracker {
            max_bytes: b.max_memory_bytes,
            bytes: AtomicU64::new(0),
            forced: AtomicBool::new(false),
        }
    }

    fn charge(&self, root: &impl Charged) {
        if self.max_bytes != 0 {
            self.bytes.fetch_add(root.approx_heap_bytes() as u64, Ordering::Relaxed);
        }
    }

    fn release(&self, root: &impl Charged) {
        if self.max_bytes != 0 {
            self.bytes.fetch_sub(root.approx_heap_bytes() as u64, Ordering::Relaxed);
        }
    }

    /// Release roots that a stopped run leaves unexplored; their number is
    /// the run's `frontier_dropped`.
    fn abandon(&self, roots: Vec<impl Charged>) -> u64 {
        for root in &roots {
            self.release(root);
        }
        roots.len() as u64
    }

    fn note_dedup_entry(&self) {
        if self.max_bytes != 0 {
            self.bytes.fetch_add(DEDUP_ENTRY_BYTES, Ordering::Relaxed);
        }
    }

    /// Record a synthetic allocation failure (failpoint `oom` action).
    fn force(&self) {
        self.forced.store(true, Ordering::Relaxed);
    }

    fn exceeded(&self) -> Option<StopReason> {
        let over = self.max_bytes != 0 && self.bytes.load(Ordering::Relaxed) > self.max_bytes;
        (over || self.forced.load(Ordering::Relaxed)).then_some(StopReason::MemoryBudget)
    }
}

/// What the memory budget charges for a root on the frontier.
trait Charged {
    fn approx_heap_bytes(&self) -> usize;
}

impl Charged for ExecutionGraph {
    fn approx_heap_bytes(&self) -> usize {
        ExecutionGraph::approx_heap_bytes(self)
    }
}

impl Charged for ChoicePoint {
    fn approx_heap_bytes(&self) -> usize {
        ChoicePoint::approx_heap_bytes(self)
    }
}

/// Where a chain starts.
pub(crate) enum Entry {
    /// A root from the pool (or the initial graph): the chain is opened on
    /// it.
    Root(ExecutionGraph),
    /// A root the worker's chain admitted, entered by rewinding it.
    Choice(ChoicePoint),
}

/// State shared by every worker of one exploration.
struct Shared {
    /// The frontier's pool; the rest of the frontier is on the workers'
    /// own stacks.
    queue: WorkQueue,
    /// Orbits already admitted as chain roots.
    visited: SeenShards,
    /// Terminal (complete or blocked) orbits already counted. Distinct
    /// from `visited`: a revisit child that happens to be a leaf would
    /// otherwise collide with its own admission hash and go uncounted.
    leaves: SeenShards,
    budget: BudgetTracker,
    /// Chain steps taken by all workers — the unit of
    /// [`AmcConfig::max_graphs`] and of `Inconclusive::explored`, so the
    /// explored-work ceiling means the same thing at every worker count.
    steps: AtomicU64,
}

impl Shared {
    fn new(initial: ExecutionGraph, workers: usize, limits: &ResourceBudget) -> Self {
        let budget = BudgetTracker::new(limits);
        budget.charge(&initial);
        Shared {
            queue: WorkQueue::new(initial, workers),
            visited: SeenShards::new(),
            leaves: SeenShards::new(),
            budget,
            steps: AtomicU64::new(0),
        }
    }
}

/// One worker's private state: what a chain reads and writes while it
/// runs, besides its [`Chain`]. The chain logic in [`crate::revisit`] sees
/// the counters, the entry buffer and the hasher; the frontier, budgets
/// and pacing stay behind [`Worker::tick`], [`Worker::visit`] and
/// [`Worker::leaf`].
pub(crate) struct Worker<'r> {
    pub(crate) stats: ExploreStats,
    /// Choice points admitted since the last transfer to the frontier.
    pub(crate) out: Vec<ChoicePoint>,
    /// This worker's share of the frontier, newest choice point last.
    stack: Vec<ChoicePoint>,
    pub(crate) executions: Vec<ExecutionGraph>,
    /// Engine phase the worker is executing, for panic attribution
    /// ([`EngineError::phase`]) and, when profiling is on, wall-clock
    /// accrual to the run's [`PhaseProfile`].
    pub(crate) phase: PhaseTracker,
    /// Symmetry-aware view hasher (per-worker scratch buffers).
    pub(crate) enc: Canonicalizer,
    /// Scratch of the R- and W-step scans: the viable rf sources / mo
    /// positions of the step in flight, and the W-step's revisit targets.
    pub(crate) viable_sources: Vec<RfSource>,
    pub(crate) viable_positions: Vec<usize>,
    pub(crate) targets: RevisitTargets,
    /// Scratch of a leaf: its blocked awaits, and the interpreter and
    /// checker of a leaf relabeled to its orbit representative (the
    /// chain's own follow the chain).
    pub(crate) blocked: Vec<BlockedAwait>,
    pub(crate) leaf_replay: ChainReplay,
    pub(crate) leaf_ck: Box<dyn ChainChecker>,
    pacer: Pacer<'r>,
    shared: &'r Shared,
    max_graphs: u64,
}

impl Worker<'_> {
    /// Record a failpoint hit; a synthetic allocation failure is reported
    /// as memory-budget exhaustion. Compiles to nothing without the
    /// `failpoints` feature.
    #[inline]
    pub(crate) fn failpoint(&self, site: &'static str) {
        if failpoint::hit(site).is_oom() {
            self.shared.budget.force();
        }
    }

    /// Admission probe: `true` iff no chain root of orbit `h` was ever
    /// admitted.
    pub(crate) fn visit(&self, h: u128) -> bool {
        self.shared.visited.insert(h, &self.shared.budget)
    }

    /// Leaf probe: `true` iff no terminal graph of orbit `h` was counted.
    pub(crate) fn leaf(&self, h: u128) -> bool {
        self.shared.leaves.insert(h, &self.shared.budget)
    }

    /// Move the entries admitted so far onto this worker's stack,
    /// charging them to the budget. `Some` when that exhausts it.
    fn transfer(&mut self) -> Option<StopReason> {
        for c in &self.out {
            self.shared.budget.charge(c);
        }
        self.stack.append(&mut self.out);
        self.shared.budget.exceeded()
    }

    /// Run once per chain step, *before* the step's work: transfers the
    /// previous step's choice points (so a mid-chain stop accounts them as
    /// dropped frontier instead of losing them), shares the stack with a
    /// peer that has run out of work — materializing the choice points it
    /// hands over from the worker's chain `ch` — performs the cooperative
    /// control checks and counts the step. A `Some` return stops the run.
    pub(crate) fn tick(&mut self, engine: &Engine<'_>, ch: &Chain) -> Option<StopReason> {
        if let Some(reason) = self.transfer() {
            return Some(reason);
        }
        if self.shared.queue.has_waiters() && !self.stack.is_empty() {
            let budget = &self.shared.budget;
            self.shared.queue.donate(&mut self.stack, |cp| {
                budget.release(&cp);
                let root = engine.materialize(ch, &cp);
                budget.charge(&root);
                root
            });
        }
        if let Some(reason) = self.pacer.poll(&self.phase, &self.stats) {
            return Some(reason);
        }
        self.stats.popped += 1;
        let total = self.shared.steps.fetch_add(1, Ordering::Relaxed) + 1;
        if self.max_graphs != 0 && total > self.max_graphs {
            return Some(StopReason::MaxGraphs);
        }
        self.failpoint("explore.pop");
        None
    }
}

impl Engine<'_> {
    /// The exploration driver. `workers == 1` runs [`Engine::work`] inline
    /// on the calling thread; more run the same function on scoped
    /// threads. A panic anywhere in a chain degrades to [`Verdict::Error`]
    /// instead of unwinding out of the library.
    fn run(&self) -> (AmcResult, Option<u64>) {
        let workers = self.config.workers.max(1);
        let initial = ExecutionGraph::new(self.prog.num_threads(), self.prog.init().clone());
        let shared = Shared::new(initial, workers, &self.config.budget);
        let sh = &shared;
        let results: Vec<WorkerResult> = if workers == 1 {
            vec![self.work(0, 1, sh)]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> =
                    (0..workers).map(|i| scope.spawn(move || self.work(i, workers, sh))).collect();
                handles
                    .into_iter()
                    .map(|h| {
                        h.join().unwrap_or_else(|payload| {
                            // A panic that escaped the per-chain
                            // catch_unwind (driver bookkeeping). The guard
                            // already stopped the queue; record the
                            // failure instead of re-panicking the process.
                            sh.queue.finish(Verdict::Error(EngineError {
                                kind: EngineErrorKind::Panic,
                                phase: EnginePhase::Driver,
                                thread: None,
                                payload: panic_payload(payload),
                            }));
                            WorkerResult::default()
                        })
                    })
                    .collect()
            })
        };
        let mut stats = ExploreStats::default();
        let mut executions = Vec::new();
        let mut dropped = 0;
        let mut sc_rejections = Some(0);
        for mut r in results {
            stats.merge(&r.stats);
            executions.append(&mut r.executions);
            dropped += r.dropped;
            sc_rejections = sc_rejections.zip(r.sc_rejections).map(|(a, b)| a + b);
        }
        let Shared { queue, budget, .. } = shared;
        let (mut verdict, pool) = queue.into_parts();
        dropped += budget.abandon(pool);
        if let Verdict::Inconclusive(i) = &mut verdict {
            // Roots abandoned anywhere on the frontier: every worker's
            // stack plus the pool.
            i.frontier_dropped = dropped;
            stats.frontier_dropped = dropped;
        }
        (AmcResult { verdict, stats, executions }, sc_rejections)
    }

    /// Worker `index`'s private state, before its first chain.
    fn worker<'r>(&'r self, index: usize, shared: &'r Shared) -> Worker<'r> {
        let mut stats = ExploreStats::default();
        if index == 0 {
            stats.constructed = 1; // the initial graph
        }
        Worker {
            stats,
            out: Vec::new(),
            stack: Vec::new(),
            executions: Vec::new(),
            phase: PhaseTracker::new(self.control.profile),
            enc: Canonicalizer::new(self.partition.as_ref()),
            viable_sources: Vec::new(),
            viable_positions: Vec::new(),
            targets: RevisitTargets::default(),
            blocked: Vec::new(),
            leaf_replay: ChainReplay::default(),
            leaf_ck: self.model.chain_checker(),
            pacer: Pacer {
                control: self.control,
                count: 0,
                worker: index,
                last_local: ExploreStats::default(),
                last_profile: PhaseProfile::default(),
            },
            shared,
            max_graphs: self.config.max_graphs,
        }
    }

    /// One worker's loop: pop a choice point from its own stack — or,
    /// when that is empty, a root from the pool — release its budget
    /// charge, run its chain under `catch_unwind`, arbitrate how it ended,
    /// stack the choice points it admitted.
    fn work(&self, index: usize, workers: usize, shared: &Shared) -> WorkerResult {
        // If this worker panics outside the catch_unwind below (queue
        // bookkeeping, event sinks), `pending` never reaches zero;
        // without this guard the peers would sleep on the condvar forever
        // and the scope join would deadlock instead of surfacing the
        // failure.
        struct PanicGuard<'a>(&'a WorkQueue);
        impl Drop for PanicGuard<'_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    self.0.abort();
                }
            }
        }
        let _guard = PanicGuard(&shared.queue);
        let mut w = self.worker(index, shared);
        let mut ch = Chain::new(self.model.chain_checker());
        loop {
            // Also what a wait in `pop` — and rewinding the chain to the
            // next choice point — is billed to, not the phase the previous
            // chain happened to end in.
            w.phase.set(EnginePhase::Driver);
            if shared.queue.stopped() {
                break;
            }
            let entry = if let Some(cp) = w.stack.pop() {
                shared.budget.release(&cp);
                Entry::Choice(cp)
            } else if let Some(root) = shared.queue.pop() {
                shared.budget.release(&root);
                Entry::Root(root)
            } else {
                break;
            };
            let end = catch_unwind(AssertUnwindSafe(|| self.run_chain(entry, &mut ch, &mut w)));
            let stop = match end {
                Ok(ChainEnd::Done) => w.transfer(),
                Ok(ChainEnd::Stopped(reason)) => Some(reason),
                Ok(ChainEnd::Verdict(v)) => {
                    shared.queue.finish(v);
                    break;
                }
                Err(payload) => {
                    // Counters touched mid-chain stay as they are: partial
                    // stats are better than none. Half-generated children
                    // die with the chain; finishing the queue stops the
                    // peers.
                    w.out.clear();
                    shared.queue.finish(Verdict::Error(EngineError {
                        kind: EngineErrorKind::Panic,
                        phase: w.phase.get(),
                        thread: (workers > 1).then_some(index),
                        payload: panic_payload(payload),
                    }));
                    break;
                }
            };
            if let Some(reason) = stop {
                shared.queue.finish(Verdict::Inconclusive(Inconclusive {
                    reason,
                    explored: shared.steps.load(Ordering::Relaxed),
                    frontier_dropped: 0, // counted by `run` once every worker is back
                }));
                break;
            }
        }
        let dropped = shared.budget.abandon(w.stack);
        let sc_rejections = ch.sc_rejections().zip(w.leaf_ck.sc_rejections()).map(|(a, b)| a + b);
        let profile = w.phase.snapshot();
        w.pacer.finish(&w.stats, profile);
        w.stats.phases.merge(&profile);
        WorkerResult { stats: w.stats, executions: w.executions, dropped, sc_rejections }
    }
}

/// What one worker hands back to [`Engine::run`].
#[derive(Default)]
struct WorkerResult {
    stats: ExploreStats,
    executions: Vec<ExecutionGraph>,
    /// Roots left on the worker's stack when it stopped.
    dropped: u64,
    /// The SC-axiom rejections of the worker's two checkers.
    sc_rejections: Option<u64>,
}

/// The shared side of the frontier: the pool through which workers that
/// ran out of roots get some from workers that have them, plus the run's
/// termination and verdict state.
///
/// `pending` counts the roots in the pool *plus* the workers that are not
/// asleep in [`WorkQueue::pop`] — a worker holds its unit from its start
/// until it finds both its stack and the pool empty. Exploration is
/// complete exactly when it reaches zero. Verdict-bearing chains set
/// `stop`, draining all workers promptly.
struct WorkQueue {
    state: Mutex<QueueState>,
    cond: Condvar,
    /// Workers asleep in [`WorkQueue::pop`]. Written under the `state`
    /// lock; read without it by running workers as a hint to donate
    /// (`Relaxed`: it publishes nothing, and a stale read only moves the
    /// donation to the next chain step).
    waiting: AtomicUsize,
    /// Set, under the `state` lock, by the first verdict or abort. Read
    /// without the lock by workers popping from their own stack
    /// (`Relaxed`: the verdict itself is read after the workers joined).
    stop: AtomicBool,
}

struct QueueState {
    pool: Vec<ExecutionGraph>,
    pending: usize,
    verdict: Option<Verdict>,
}

impl WorkQueue {
    fn new(initial: ExecutionGraph, workers: usize) -> Self {
        WorkQueue {
            state: Mutex::new(QueueState {
                pool: vec![initial],
                pending: 1 + workers,
                verdict: None,
            }),
            cond: Condvar::new(),
            waiting: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
        }
    }

    fn stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    fn has_waiters(&self) -> bool {
        self.waiting.load(Ordering::Relaxed) != 0
    }

    /// Called by a worker whose stack is empty: take a root from the
    /// pool, sleeping while it is empty but peers are still running.
    /// `None` means the exploration is over.
    fn pop(&self) -> Option<ExecutionGraph> {
        let mut q = relock(&self.state);
        q.pending -= 1; // the caller stops running ...
        if q.pending == 0 {
            self.cond.notify_all();
        }
        loop {
            if self.stopped() {
                return None;
            }
            if let Some(item) = q.pool.pop() {
                return Some(item); // ... and runs again: one root less, one worker more
            }
            if q.pending == 0 {
                return None;
            }
            self.waiting.fetch_add(1, Ordering::Relaxed);
            q = self.cond.wait(q).unwrap_or_else(|e| e.into_inner());
            self.waiting.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Move the oldest half of a running worker's stack (rounded up: the
    /// worker is busy with a chain), each choice point made a root by
    /// `materialize`, to the pool and wake as many sleepers as there are
    /// roots for. The oldest roots sit nearest the root of the search
    /// tree, so they tend to carry the largest subtrees and the donor
    /// keeps the ones whose blocks are warm in its cache.
    fn donate<E>(&self, stack: &mut Vec<E>, materialize: impl FnMut(E) -> ExecutionGraph) {
        let n = stack.len().div_ceil(2);
        let gift: Vec<ExecutionGraph> = stack.drain(..n).map(materialize).collect();
        let mut q = relock(&self.state);
        q.pool.extend(gift);
        q.pending += n;
        for _ in 0..n.min(self.waiting.load(Ordering::Relaxed)) {
            self.cond.notify_one();
        }
    }

    /// Record a terminal verdict and stop all workers. First verdict
    /// wins within a severity class, but a more definitive verdict found
    /// by a still-running worker upgrades a weaker one already recorded:
    /// violations and faults beat engine errors, which beat inconclusive
    /// stops — a cancellation must not discard a counterexample a peer
    /// already holds in hand, and a budget stop must not mask a caught
    /// panic.
    fn finish(&self, v: Verdict) {
        fn rank(v: &Verdict) -> u8 {
            match v {
                Verdict::Inconclusive(_) => 0,
                Verdict::Error(_) => 1,
                _ => 2,
            }
        }
        let mut q = relock(&self.state);
        let replace = match &q.verdict {
            None => true,
            Some(old) => rank(&v) > rank(old),
        };
        if replace {
            q.verdict = Some(v);
        }
        self.stop.store(true, Ordering::Relaxed);
        self.cond.notify_all();
    }

    /// Stop all workers without recording a verdict (panic unwind path).
    fn abort(&self) {
        // Under the lock, so a peer between its `stop` check and its wait
        // cannot miss the wake-up.
        let _q = relock(&self.state);
        self.stop.store(true, Ordering::Relaxed);
        self.cond.notify_all();
    }

    /// The verdict, and the roots still in the pool.
    fn into_parts(self) -> (Verdict, Vec<ExecutionGraph>) {
        let q = self.state.into_inner().unwrap_or_else(|e| e.into_inner());
        (q.verdict.unwrap_or(Verdict::Verified), q.pool)
    }
}

fn const_operand(o: Operand) -> Result<u64, String> {
    match o {
        Operand::Imm(v) => Ok(v),
        Operand::Reg(r) => Err(format!("register operand {r}")),
    }
}

/// Evaluate `prog`'s final-state checks on a complete execution graph.
/// Shared by the explorer and the optimizer's witness-cache replay.
///
/// Final checks run without any thread state, so their operands must be
/// immediates — [`Program::validate`] rejects register operands before
/// exploration starts (and the DSL frontend reports them as spanned
/// diagnostics). If an unvalidated program slips through anyway, the
/// malformed check is reported as a failure message rather than a panic.
pub(crate) fn failed_final_check(prog: &Program, g: &ExecutionGraph) -> Option<String> {
    let state = g.final_state();
    for c in prog.final_checks() {
        let v = state.get(&c.loc).copied().unwrap_or(g.init_value(c.loc));
        let resolve = || -> Result<vsync_lang::ResolvedTest, String> {
            Ok(vsync_lang::ResolvedTest {
                mask: c.test.mask.map(const_operand).transpose()?.unwrap_or(u64::MAX),
                cmp: c.test.cmp,
                rhs: const_operand(c.test.rhs)?,
            })
        };
        let resolved = match resolve() {
            Ok(t) => t,
            Err(e) => {
                return Some(format!(
                    "final-state check '{}' is malformed: {e} (final checks must \
                     use immediate operands)",
                    c.msg
                ))
            }
        };
        if !resolved.eval(v) {
            return Some(format!(
                "final-state check failed: {} (final value of {:#x} is {v})",
                c.msg, c.loc
            ));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::revisit::{self, Chain};
    use vsync_graph::{EventKind, Loc, Mode};
    use vsync_lang::{ProgramBuilder, Reg, Test};
    use vsync_model::ModelKind;

    fn cfg(model: ModelKind) -> AmcConfig {
        AmcConfig::with_model(model)
    }

    const X: Loc = 0x10;
    const Y: Loc = 0x20;

    /// Store buffering with relaxed accesses: 4 final states under VMM/TSO,
    /// 3 under SC (r0 = r1 = 0 excluded).
    fn sb_program() -> Program {
        let mut pb = ProgramBuilder::new("sb");
        pb.thread(|t| {
            t.store(X, 1u64, Mode::Rlx);
            t.load(Reg(0), Y, Mode::Rlx);
        });
        pb.thread(|t| {
            t.store(Y, 1u64, Mode::Rlx);
            t.load(Reg(0), X, Mode::Rlx);
        });
        pb.build().unwrap()
    }

    #[test]
    fn sb_execution_counts_differ_by_model() {
        let vmm = count_executions(&sb_program(), &cfg(ModelKind::Vmm));
        let sc = count_executions(&sb_program(), &cfg(ModelKind::Sc));
        let tso = count_executions(&sb_program(), &cfg(ModelKind::Tso));
        assert_eq!(vmm, 4, "rf combinations: (0,0) (0,1) (1,0) (1,1)");
        assert_eq!(tso, 4);
        assert_eq!(sc, 3, "SC forbids both-read-zero");
    }

    #[test]
    fn sb_with_sc_fences_is_sequentially_consistent() {
        let mut pb = ProgramBuilder::new("sb+fences");
        pb.thread(|t| {
            t.store(X, 1u64, Mode::Rlx);
            t.fence(Mode::Sc);
            t.load(Reg(0), Y, Mode::Rlx);
        });
        pb.thread(|t| {
            t.store(Y, 1u64, Mode::Rlx);
            t.fence(Mode::Sc);
            t.load(Reg(0), X, Mode::Rlx);
        });
        let p = pb.build().unwrap();
        assert_eq!(count_executions(&p, &cfg(ModelKind::Vmm)), 3);
    }

    /// Message passing: relaxed flag allows the stale read; rel/acq forbids.
    #[test]
    fn mp_assertion_depends_on_barriers() {
        let mp = |wm: Mode, rm: Mode| {
            let mut pb = ProgramBuilder::new("mp");
            pb.thread(move |t| {
                t.store(X, 1u64, Mode::Rlx);
                t.store(Y, 1u64, wm);
            });
            pb.thread(move |t| {
                t.await_eq(Reg(0), Y, 1u64, rm);
                t.load(Reg(1), X, Mode::Rlx);
                t.assert_eq(Reg(1), 1u64, "data visible after flag");
            });
            pb.build().unwrap()
        };
        assert!(verify(&mp(Mode::Rel, Mode::Acq), &cfg(ModelKind::Vmm)).is_verified());
        let v = verify(&mp(Mode::Rlx, Mode::Rlx), &cfg(ModelKind::Vmm));
        assert!(matches!(v, Verdict::Safety(_)), "got: {v}");
        // Under SC even relaxed MP is safe.
        assert!(verify(&mp(Mode::Rlx, Mode::Rlx), &cfg(ModelKind::Sc)).is_verified());
    }

    #[test]
    fn coherence_test_corr() {
        // One writer, one reader reading twice: never observe 1 then 0.
        let mut pb = ProgramBuilder::new("corr");
        pb.thread(|t| {
            t.store(X, 1u64, Mode::Rlx);
        });
        pb.thread(|t| {
            let done = t.label();
            t.load(Reg(0), X, Mode::Rlx);
            t.jmp_if(Reg(0), Test::eq(0u64), done);
            t.load(Reg(1), X, Mode::Rlx);
            t.assert_eq(Reg(1), 1u64, "no backwards read");
            t.bind(done);
        });
        let p = pb.build().unwrap();
        assert!(verify(&p, &cfg(ModelKind::Vmm)).is_verified());
    }

    #[test]
    fn atomicity_two_rmws_never_read_same_write() {
        // Two fetch_adds must not both read 0: final value is 2.
        let mut pb = ProgramBuilder::new("fai");
        for _ in 0..2 {
            pb.thread(|t| {
                t.fetch_add(Reg(0), X, 1u64, Mode::Rlx);
            });
        }
        pb.final_check(X, Test::eq(2u64), "no lost increment");
        let p = pb.build().unwrap();
        assert!(verify(&p, &cfg(ModelKind::Vmm)).is_verified());
        // The two interleavings are thread-relabelings of each other: one
        // orbit under symmetry, two without it.
        assert_eq!(count_executions(&p, &cfg(ModelKind::Vmm)), 1, "one orbit");
        assert_eq!(
            count_executions(&p, &cfg(ModelKind::Vmm).without_symmetry()),
            2,
            "two interleavings"
        );
    }

    /// Thread-symmetry reduction prunes relabeled twins (counted in
    /// `symmetry_pruned`) without changing verdicts, and asymmetric
    /// programs are completely unaffected.
    #[test]
    fn symmetry_prunes_twins_and_leaves_asymmetric_programs_alone() {
        // Symmetric: the TTAS client from `ttas_lock_mutual_exclusion`
        // shape, 2 identical threads.
        let lock = X;
        let mut pb = ProgramBuilder::new("sym");
        for _ in 0..2 {
            pb.thread(|t| {
                t.await_neq(Reg(0), lock, 1u64, ("acquire.await", Mode::Rlx));
                t.xchg(Reg(1), lock, 1u64, ("acquire.xchg", Mode::AcqRel));
                t.store(lock, 0u64, ("release.store", Mode::Rel));
            });
        }
        let p = pb.build().unwrap();
        let on = explore(&p, &cfg(ModelKind::Vmm));
        let off = explore(&p, &cfg(ModelKind::Vmm).without_symmetry());
        assert!(on.is_verified() && off.is_verified());
        assert!(on.stats.symmetry_pruned > 0, "twins were pruned: {}", on.stats);
        assert_eq!(off.stats.symmetry_pruned, 0, "no pruning with symmetry off");
        assert!(
            on.stats.popped < off.stats.popped,
            "symmetry must shrink the explored set: {} vs {}",
            on.stats.popped,
            off.stats.popped
        );
        assert!(on.stats.complete_executions < off.stats.complete_executions);
        // Asymmetric: SB explores identically with symmetry on and off.
        let p = sb_program();
        let on = explore(&p, &cfg(ModelKind::Vmm));
        let off = explore(&p, &cfg(ModelKind::Vmm).without_symmetry());
        assert_eq!(on.stats.popped, off.stats.popped);
        assert_eq!(on.stats.symmetry_pruned, 0);
    }

    /// `count_executions_with` honors pre-fired tokens and zero deadlines
    /// instead of enumerating the space (the legacy `count_executions`
    /// silently ignored budgets).
    #[test]
    fn count_executions_with_returns_promptly_on_spent_budgets() {
        use crate::session::CancelToken;
        let p = sb_program();
        for workers in [1usize, 2, 8] {
            let c = cfg(ModelKind::Vmm).with_workers(workers);
            let token = CancelToken::new();
            token.cancel();
            let control = RunControl::with_cancel(token);
            assert_eq!(
                count_executions_with(&p, &c, &control),
                Err(StopReason::Cancelled),
                "workers={workers}"
            );
            let control = RunControl::with_deadline(Instant::now());
            assert_eq!(
                count_executions_with(&p, &c, &control),
                Err(StopReason::DeadlineExceeded),
                "workers={workers}"
            );
            // And with budgets left, the count comes through unchanged.
            assert_eq!(
                count_executions_with(&p, &c, &RunControl::default()),
                Ok(count_executions(&p, &c)),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn plain_writes_do_lose_updates() {
        // The same counter with plain load/store increments loses updates.
        let mut pb = ProgramBuilder::new("lost-update");
        for _ in 0..2 {
            pb.thread(|t| {
                t.load(Reg(0), X, Mode::Rlx);
                t.add(Reg(1), Reg(0), 1u64);
                t.store(X, Reg(1), Mode::Rlx);
            });
        }
        pb.final_check(X, Test::eq(2u64), "no lost increment");
        let p = pb.build().unwrap();
        let v = verify(&p, &cfg(ModelKind::Vmm));
        assert!(matches!(v, Verdict::Safety(_)), "got {v}");
        // Even SC interleavings lose updates here.
        let v = verify(&p, &cfg(ModelKind::Sc));
        assert!(matches!(v, Verdict::Safety(_)), "got {v}");
    }

    /// Paper Fig. 1 with the q handshake removed (Fig. 5): graph β — where
    /// T2's unlock write is mo-before T1's lock write — leaves T1's await
    /// with no write to observe. AMC reports the AT violation with the
    /// finite graph β as evidence (paper §1.2, "Consider execution graph β").
    #[test]
    fn fig5_detects_graph_beta_at_violation() {
        let locked = X;
        let mut pb = ProgramBuilder::new("fig5");
        pb.thread(|t| {
            t.store(locked, 1u64, Mode::Rlx); // lock
            t.await_eq(Reg(0), locked, 0u64, Mode::Rlx);
        });
        pb.thread(|t| {
            t.store(locked, 0u64, Mode::Rlx); // unlock
        });
        let p = pb.build().unwrap();
        let r = explore(&p, &cfg(ModelKind::Vmm));
        let Verdict::AwaitTermination(ce) = &r.verdict else {
            panic!("expected AT violation (graph β), got {}", r.verdict);
        };
        // β's witness: a ⊥ read, and the unlock write mo-before the lock
        // write so no newer 0 can ever be observed.
        assert_eq!(ce.graph.pending_reads().count(), 1);
        let mo = ce.graph.mo(locked);
        assert_eq!(mo.len(), 2);
        assert_eq!(ce.graph.write_value(mo[0]), 0, "unlock first in mo");
        assert_eq!(ce.graph.write_value(mo[1]), 1, "lock write is mo-maximal");
    }

    /// The same two threads with the mo-order pinned by a handshake: T2
    /// unlocks only after observing T1's lock write, so the await always
    /// terminates and the two graphs ①/② of Fig. 5 remain.
    #[test]
    fn fig5_with_ordered_unlock_verifies() {
        let locked = X;
        let mut pb = ProgramBuilder::new("fig5-ordered");
        pb.thread(|t| {
            t.store(locked, 1u64, ("lock.store", Mode::Rel));
            t.await_eq(Reg(0), locked, 0u64, Mode::Rlx);
        });
        pb.thread(|t| {
            t.await_eq(Reg(0), locked, 1u64, ("see.lock", Mode::Acq));
            t.store(locked, 0u64, Mode::Rlx);
        });
        let p = pb.build().unwrap();
        let r = explore(&p, &cfg(ModelKind::Vmm));
        assert!(r.is_verified(), "verdict: {}", r.verdict);
    }

    /// Paper Fig. 1 exactly: with the rel/acq handshake on q, awaiting
    /// terminates; dropping the handshake keeps it terminating too (the
    /// await just spins on locked) — AT holds in both.
    #[test]
    fn fig1_awaits_terminate() {
        let (locked, q) = (X, Y);
        let mut pb = ProgramBuilder::new("fig1");
        pb.thread(|t| {
            t.store(locked, 1u64, Mode::Rlx);
            t.store(q, 1u64, ("q.sig", Mode::Rel));
            t.await_eq(Reg(0), locked, 0u64, Mode::Rlx);
            t.assert_eq(Reg(0), 0u64, "lock handed over");
        });
        pb.thread(|t| {
            t.await_eq(Reg(0), q, 1u64, ("q.poll", Mode::Acq));
            t.store(locked, 0u64, Mode::Rlx);
        });
        let p = pb.build().unwrap();
        let r = explore(&p, &cfg(ModelKind::Vmm));
        assert!(r.is_verified(), "verdict: {}", r.verdict);
    }

    /// A single thread awaiting a value nobody writes: the minimal AT
    /// violation (paper Fig. 7 territory).
    #[test]
    fn lonely_await_is_at_violation() {
        let mut pb = ProgramBuilder::new("lonely");
        pb.thread(|t| {
            t.await_eq(Reg(0), X, 1u64, Mode::Rlx);
        });
        let p = pb.build().unwrap();
        let v = verify(&p, &cfg(ModelKind::Vmm));
        assert!(matches!(v, Verdict::AwaitTermination(_)), "got {v}");
    }

    /// Await on a value that IS written: terminates.
    #[test]
    fn signalled_await_verifies() {
        let mut pb = ProgramBuilder::new("signalled");
        pb.thread(|t| {
            t.await_eq(Reg(0), X, 1u64, Mode::Acq);
        });
        pb.thread(|t| {
            t.store(X, 1u64, Mode::Rel);
        });
        let p = pb.build().unwrap();
        assert!(verify(&p, &cfg(ModelKind::Vmm)).is_verified());
    }

    /// Await whose condition can only be satisfied transiently: the writer
    /// sets x=1 then x=2; a waiter for x==1 may miss it under coherence?
    /// No: it may always read the mo-intermediate write — but if the waiter
    /// first reads 2, coherence traps it: AT violation.
    #[test]
    fn transient_signal_hangs() {
        let mut pb = ProgramBuilder::new("transient");
        pb.thread(|t| {
            t.store(X, 1u64, Mode::Rlx);
            t.store(X, 2u64, Mode::Rlx);
        });
        pb.thread(|t| {
            t.await_eq(Reg(0), X, 1u64, Mode::Rlx);
        });
        let p = pb.build().unwrap();
        let v = verify(&p, &cfg(ModelKind::Vmm));
        assert!(matches!(v, Verdict::AwaitTermination(_)), "got {v}");
    }

    #[test]
    fn graph_budget_degrades_to_inconclusive() {
        let mut c = cfg(ModelKind::Vmm);
        c.max_graphs = 2;
        let r = explore(&sb_program(), &c);
        let Verdict::Inconclusive(i) = r.verdict else {
            panic!("expected inconclusive, got {}", r.verdict)
        };
        assert_eq!(i.reason, StopReason::MaxGraphs);
        assert!(i.explored >= 2, "partial coverage reported: {i:?}");
        assert_eq!(r.stats.frontier_dropped, i.frontier_dropped);
        // `frontier_dropped` counts the roots the stop abandons. With one
        // worker they all sit on its own stack, and the one-worker search
        // is deterministic, so the `(explored, frontier_dropped)` pairs
        // are pinned.
        let mut pairs = |p: &Program, caps: &[u64]| -> Vec<(u64, u64)> {
            caps.iter()
                .map(|&cap| {
                    c.max_graphs = cap;
                    match explore(p, &c).verdict {
                        Verdict::Inconclusive(i) => (i.explored, i.frontier_dropped),
                        v => panic!("max_graphs={cap}: expected inconclusive, got {v}"),
                    }
                })
                .collect()
        };
        assert_eq!(pairs(&sb_program(), &[2, 5]), [(3, 0), (6, 1)]);
        assert_eq!(pairs(&ttas_program(), &[2, 5, 10, 40]), [(3, 2), (6, 2), (11, 2), (41, 2)]);
    }

    /// A tiny memory budget degrades the run to `Inconclusive` with
    /// partial stats for every worker count, and the explored coverage
    /// grows monotonically with the budget.
    #[test]
    fn memory_budget_degrades_to_inconclusive() {
        for workers in [1usize, 2, 8] {
            let c = cfg(ModelKind::Vmm).with_workers(workers).with_max_memory_bytes(300);
            let r = explore(&sb_program(), &c);
            let Verdict::Inconclusive(i) = r.verdict else {
                panic!("workers={workers}: expected inconclusive, got {}", r.verdict)
            };
            assert_eq!(i.reason, StopReason::MemoryBudget, "workers={workers}");
            assert!(i.explored >= 1, "workers={workers}");
            assert_eq!(r.stats.frontier_dropped, i.frontier_dropped, "workers={workers}");
        }
        // Monotonicity: more budget, at least as much coverage.
        let explored_at = |bytes: u64| {
            let c = cfg(ModelKind::Vmm).with_max_memory_bytes(bytes);
            match explore(&sb_program(), &c).verdict {
                Verdict::Inconclusive(i) => i.explored,
                Verdict::Verified => u64::MAX,
                v => panic!("unexpected verdict {v}"),
            }
        };
        let mut last = 0;
        for bytes in [300, 2_000, 8_000, 1 << 20] {
            let e = explored_at(bytes);
            assert!(e >= last, "coverage shrank: {e} < {last} at {bytes} bytes");
            last = e;
        }
        // A generous budget changes nothing.
        let c = cfg(ModelKind::Vmm).with_max_memory_bytes(64 << 20);
        assert!(explore(&sb_program(), &c).is_verified());
    }

    /// A pooled root is charged for its graph and released in full, and
    /// the roots a stopped run abandons give their bytes back like popped
    /// ones.
    #[test]
    fn memory_budget_releases_what_it_charged() {
        let mut g = ExecutionGraph::new(2, std::collections::BTreeMap::new());
        let w = g.push_event(0, EventKind::Write { loc: X, val: 1, mode: Mode::Rel, rmw: false });
        g.insert_mo(X, w, 0);
        let bytes = g.approx_heap_bytes() as u64;
        let budget = BudgetTracker::new(&ResourceBudget { max_memory_bytes: bytes - 1 });
        budget.charge(&g);
        assert_eq!(budget.exceeded(), Some(StopReason::MemoryBudget), "the graph tips it over");
        budget.release(&g);
        assert_eq!(budget.exceeded(), None);
        budget.charge(&g);
        assert_eq!(budget.abandon(vec![g]), 1);
        assert_eq!(budget.exceeded(), None);
    }

    /// The memory budget bounds the seen-sets on its own: with nothing on
    /// the frontier, `N` entries fit in `N` entries' worth of bytes and
    /// one more trips it.
    #[test]
    fn seen_set_entries_are_charged_to_the_memory_budget() {
        const N: u64 = 5;
        let budget =
            BudgetTracker::new(&ResourceBudget { max_memory_bytes: N * DEDUP_ENTRY_BYTES });
        for _ in 0..N {
            budget.note_dedup_entry();
        }
        assert_eq!(budget.exceeded(), None);
        budget.note_dedup_entry();
        assert_eq!(budget.exceeded(), Some(StopReason::MemoryBudget));
    }

    /// The paper's Fig. 3 TTAS lock with 2 threads, one acquisition each.
    fn ttas_program() -> Program {
        let lock = X;
        let counter = Y;
        let mut pb = ProgramBuilder::new("ttas");
        for _ in 0..2 {
            pb.thread(|t| {
                let retry = t.here_label();
                let acquired = t.label();
                // do { await lock != 1 } while (xchg(lock,1) != 0)
                t.await_neq(Reg(0), lock, 1u64, ("acquire.await", Mode::Rlx));
                t.xchg(Reg(1), lock, 1u64, ("acquire.xchg", Mode::AcqRel));
                t.jmp_if(Reg(1), Test::eq(0u64), acquired);
                t.jmp(retry);
                t.bind(acquired);
                // critical section: counter++
                t.load(Reg(2), counter, vsync_lang::Fixed(Mode::Rlx));
                t.add(Reg(3), Reg(2), 1u64);
                t.store(counter, Reg(3), vsync_lang::Fixed(Mode::Rlx));
                // release
                t.store(lock, 0u64, ("release.store", Mode::Rel));
            });
        }
        pb.final_check(counter, Test::eq(2u64), "both increments applied");
        pb.build().unwrap()
    }

    #[test]
    fn ttas_lock_mutual_exclusion() {
        let r = explore(&ttas_program(), &cfg(ModelKind::Vmm));
        assert!(r.is_verified(), "verdict: {} ({})", r.verdict, r.stats);
    }

    #[test]
    fn ttas_lock_with_relaxed_release_breaks() {
        // Relaxing the release store lets the CS writes escape: the second
        // thread can read a stale counter.
        let lock = X;
        let counter = Y;
        let mut pb = ProgramBuilder::new("ttas-broken");
        for _ in 0..2 {
            pb.thread(|t| {
                let retry = t.here_label();
                let acquired = t.label();
                t.await_neq(Reg(0), lock, 1u64, ("acquire.await", Mode::Rlx));
                t.xchg(Reg(1), lock, 1u64, ("acquire.xchg", Mode::Rlx));
                t.jmp_if(Reg(1), Test::eq(0u64), acquired);
                t.jmp(retry);
                t.bind(acquired);
                t.load(Reg(2), counter, vsync_lang::Fixed(Mode::Rlx));
                t.add(Reg(3), Reg(2), 1u64);
                t.store(counter, Reg(3), vsync_lang::Fixed(Mode::Rlx));
                t.store(lock, 0u64, ("release.store", Mode::Rlx));
            });
        }
        pb.final_check(counter, Test::eq(2u64), "both increments applied");
        let p = pb.build().unwrap();
        let v = verify(&p, &cfg(ModelKind::Vmm));
        assert!(matches!(v, Verdict::Safety(_)), "got {v}");
    }

    /// Parallel exploration: identical counts and verdicts for any worker
    /// count on verified programs.
    #[test]
    fn workers_preserve_counts_and_verdicts() {
        let p = sb_program();
        let base = explore(&p, &cfg(ModelKind::Vmm));
        for workers in [2, 4, 8] {
            let c = cfg(ModelKind::Vmm).with_workers(workers);
            let r = explore(&p, &c);
            assert!(r.is_verified(), "workers={workers}: {}", r.verdict);
            assert_eq!(
                r.stats.complete_executions, base.stats.complete_executions,
                "workers={workers}"
            );
            assert_eq!(r.stats.popped, base.stats.popped, "workers={workers}");
            assert_eq!(r.stats.duplicates, base.stats.duplicates, "workers={workers}");
        }
    }

    /// Parallel exploration still finds violations (any counterexample
    /// wins; the verdict *kind* is deterministic for these programs).
    #[test]
    fn workers_find_violations() {
        let mut pb = ProgramBuilder::new("mp-bug");
        pb.thread(|t| {
            t.store(X, 1u64, Mode::Rlx);
            t.store(Y, 1u64, Mode::Rlx);
        });
        pb.thread(|t| {
            t.await_eq(Reg(0), Y, 1u64, Mode::Rlx);
            t.load(Reg(1), X, Mode::Rlx);
            t.assert_eq(Reg(1), 1u64, "visible");
        });
        let p = pb.build().unwrap();
        for workers in [1, 2, 8] {
            let c = cfg(ModelKind::Vmm).with_workers(workers);
            let v = verify(&p, &c);
            assert!(matches!(v, Verdict::Safety(_)), "workers={workers}: {v}");
        }
        // An AT violation, in parallel.
        let mut pb = ProgramBuilder::new("lonely");
        pb.thread(|t| {
            t.await_eq(Reg(0), X, 1u64, Mode::Rlx);
        });
        let p = pb.build().unwrap();
        for workers in [2, 4] {
            let v = verify(&p, &cfg(ModelKind::Vmm).with_workers(workers));
            assert!(matches!(v, Verdict::AwaitTermination(_)), "workers={workers}: {v}");
        }
    }

    /// The graph budget also degrades gracefully in parallel mode.
    #[test]
    fn workers_respect_graph_budget() {
        let mut c = cfg(ModelKind::Vmm).with_workers(4);
        c.max_graphs = 2;
        let v = verify(&sb_program(), &c);
        assert_eq!(v.stop_reason(), Some(StopReason::MaxGraphs), "got {v}");
    }

    /// A root tagged by its thread count, for the queue tests.
    fn root(tag: usize) -> ExecutionGraph {
        ExecutionGraph::new(tag, std::collections::BTreeMap::new())
    }

    /// Spin until `n` workers are asleep in `WorkQueue::pop`.
    fn await_sleepers(q: &WorkQueue, n: usize) {
        while q.waiting.load(Ordering::Relaxed) != n {
            std::thread::yield_now();
        }
    }

    /// Donation hands the *oldest* half of a stack (rounded up) to the
    /// pool and wakes a sleeper for it; the run ends when the last running
    /// worker finds stack and pool empty.
    #[test]
    fn donation_moves_the_oldest_half_and_wakes_a_sleeper() {
        let q = WorkQueue::new(root(0), 2);
        assert_eq!(q.pop().map(|g| g.num_threads()), Some(0), "this worker takes the root");
        std::thread::scope(|scope| {
            let peer = scope.spawn(|| {
                let first = q.pop().map(|g| g.num_threads());
                (first, q.pop().map(|g| g.num_threads()))
            });
            await_sleepers(&q, 1);
            assert!(q.has_waiters());
            let mut stack = vec![root(1), root(2), root(3)];
            q.donate(&mut stack, |item| item);
            assert_eq!(stack.len(), 1, "the newest root stays");
            assert_eq!(stack[0].num_threads(), 3);
            // The peer takes the newer of the two donated roots, comes back
            // for the other, and — this worker still running — both pops
            // succeed without a second donation.
            assert_eq!(peer.join().unwrap(), (Some(2), Some(1)));
        });
        assert!(!q.has_waiters());
        // The peer is "running" root 1; when this worker runs dry it sleeps
        // until the peer does too, and then both see the end.
        std::thread::scope(|scope| {
            let me = scope.spawn(|| q.pop().is_none());
            await_sleepers(&q, 1);
            assert!(q.pop().is_none(), "last running worker ends the run");
            assert!(me.join().unwrap(), "and releases the sleeper");
        });
        let (verdict, pool) = q.into_parts();
        assert!(matches!(verdict, Verdict::Verified));
        assert!(pool.is_empty());
    }

    /// Explore `p` under `config` with a peer that never stops waiting:
    /// every worker hands the oldest half of its stack to the pool at every
    /// chain step — choice points materialized — and pops it back when its
    /// stack runs dry.
    fn explore_donating(
        p: &Program,
        config: &AmcConfig,
        workers: usize,
    ) -> (ExploreStats, Vec<ExecutionGraph>) {
        let control = RunControl::default();
        let partition = config.symmetry.then(|| p.symmetry_partition()).filter(|p| !p.is_trivial());
        let model = config.model.checker(config.checker);
        let engine = Engine { prog: p, config, model, control: &control, partition };
        let initial = ExecutionGraph::new(p.num_threads(), p.init().clone());
        let shared = Shared::new(initial, workers, &config.budget);
        shared.queue.waiting.fetch_add(1, Ordering::Relaxed);
        let results: Vec<WorkerResult> = if workers == 1 {
            vec![engine.work(0, 1, &shared)]
        } else {
            std::thread::scope(|scope| {
                let (engine, shared) = (&engine, &shared);
                let handles: Vec<_> = (0..workers)
                    .map(|i| scope.spawn(move || engine.work(i, workers, shared)))
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            })
        };
        let (verdict, pool) = shared.queue.into_parts();
        assert!(verdict.is_verified() && pool.is_empty(), "{verdict}");
        let mut stats = ExploreStats::default();
        let mut executions = Vec::new();
        for mut r in results {
            stats.merge(&r.stats);
            executions.append(&mut r.executions);
        }
        (stats, executions)
    }

    /// Three threads of the TTAS shape without the counter.
    fn ttas3_program() -> Program {
        let mut pb = ProgramBuilder::new("ttas-3t");
        for _ in 0..3 {
            pb.thread(|t| {
                t.await_neq(Reg(0), X, 1u64, ("acquire.await", Mode::Rlx));
                t.xchg(Reg(1), X, 1u64, ("acquire.xchg", Mode::AcqRel));
                t.store(X, 0u64, ("release.store", Mode::Rel));
            });
        }
        pb.build().unwrap()
    }

    /// The counts that do not depend on the order roots are explored in.
    fn order_free(s: &ExploreStats) -> [u64; 5] {
        let dedup = s.duplicates + s.symmetry_pruned;
        [s.popped, s.constructed, s.complete_executions, s.blocked_graphs, dedup]
    }

    /// The collected executions as a sorted list of content hashes.
    fn orbits(graphs: &[ExecutionGraph]) -> Vec<u128> {
        let mut hashes: Vec<u128> = graphs.iter().map(vsync_graph::content_hash).collect();
        hashes.sort_unstable();
        hashes
    }

    /// How often, on this thread, a choice point was materialized with a
    /// re-point, a cut and a relabeling beyond it.
    fn materialized_past() -> [u64; 3] {
        [
            revisit::MATERIALIZED_PAST_REPOINT.with(|n| n.get()),
            revisit::MATERIALIZED_PAST_CUT.with(|n| n.get()),
            revisit::MATERIALIZED_PAST_RELABEL.with(|n| n.get()),
        ]
    }

    /// Donated choice points are materialized as what rewinding builds (a
    /// debug build holds each one to the root its admitting chain would
    /// have built by copying). A forced donation at every chain step, at
    /// one and two workers, explores the same orbits with the same counts
    /// as an undisturbed run — and at one worker it donates choice points
    /// older than a re-point, a cut and a relabeling (ticketlock-3t enters
    /// relabeled roots with older choice points left on the halved stack).
    #[test]
    fn forced_donation_explores_like_one_worker() {
        let before = materialized_past();
        let ticketlock = vsync_locks::registry::entry("ticketlock").expect("a catalog lock");
        for p in [sb_program(), ttas_program(), ttas3_program(), ticketlock.client(3, 1)] {
            for model in [ModelKind::Vmm, ModelKind::Sc] {
                for symmetry in [true, false] {
                    let config = cfg(model).with_symmetry(symmetry).collecting();
                    let base = explore(&p, &config);
                    for workers in [1, 2] {
                        let tag =
                            format!("{} {model} symmetry={symmetry} workers={workers}", p.name());
                        let (stats, executions) = explore_donating(&p, &config, workers);
                        assert_eq!(order_free(&stats), order_free(&base.stats), "{tag}");
                        assert_eq!(orbits(&executions), orbits(&base.executions), "{tag}");
                    }
                }
            }
        }
        let after = materialized_past();
        for (k, what) in ["re-point", "cut", "relabeling"].iter().enumerate() {
            assert!(after[k] > before[k], "no choice point older than a {what} was donated");
        }
    }

    /// Choice points older than a `⊥` re-point, a revisit's cut or a
    /// relabeling are materialized by undoing them on a copy. One worker
    /// driven by hand hands every choice point on its stack but the newest
    /// over after every `period`-th chain (materialized, into the pool,
    /// and taken back once the stack has run dry), which catches each
    /// kind; the run explores what an undisturbed one does.
    #[test]
    fn choice_points_older_than_a_repoint_materialize_without_a_state() {
        let before = materialized_past();
        for p in [ttas_program(), ttas3_program()] {
            for period in [2, 3] {
                let config = cfg(ModelKind::Vmm).collecting();
                let base = explore(&p, &config);
                let control = RunControl::default();
                let partition = p.symmetry_partition();
                let model = config.model.checker(config.checker);
                let engine = Engine {
                    prog: &p,
                    config: &config,
                    model,
                    control: &control,
                    partition: Some(partition),
                };
                let initial = ExecutionGraph::new(p.num_threads(), p.init().clone());
                let shared = Shared::new(initial, 1, &config.budget);
                let mut w = engine.worker(0, &shared);
                let mut ch = Chain::new(model.chain_checker());
                let mut roots = Vec::new();
                let mut chains = 0;
                loop {
                    let entry = match w.stack.pop() {
                        Some(cp) => Entry::Choice(cp),
                        None => match roots.pop().or_else(|| shared.queue.pop()) {
                            Some(root) => Entry::Root(root),
                            None => break,
                        },
                    };
                    assert!(matches!(engine.run_chain(entry, &mut ch, &mut w), ChainEnd::Done));
                    assert!(w.transfer().is_none());
                    chains += 1;
                    if chains % period == 0 && w.stack.len() > 1 {
                        let newest = w.stack.pop();
                        for cp in w.stack.drain(..) {
                            roots.push(engine.materialize(&ch, &cp));
                        }
                        w.stack.extend(newest);
                    }
                }
                let tag = format!("{} period {period}", p.name());
                assert_eq!(order_free(&w.stats), order_free(&base.stats), "{tag}");
                assert_eq!(orbits(&w.executions), orbits(&base.executions), "{tag}");
            }
        }
        let after = materialized_past();
        for (k, what) in ["re-point", "cut", "relabeling"].iter().enumerate() {
            assert!(after[k] > before[k], "no choice point older than a {what} was materialized");
        }
    }

    /// At one worker every admitted root is entered on the worker's own
    /// chain: the initial graph is the only root a chain is opened on —
    /// on the catalog's heaviest 3-thread clients, with thread symmetry
    /// (and its relabeled roots) where the client has it.
    #[test]
    fn one_worker_opens_one_root() {
        for (lock, symmetric) in
            [("qspinlock", false), ("mcs", false), ("ttas", true), ("semaphore", true)]
        {
            let p = vsync_locks::registry::entry(lock).expect("a catalog lock").client(3, 1);
            assert_eq!(!p.symmetry_partition().is_trivial(), symmetric, "{lock}-3t");
            revisit::ROOTS_OPENED.with(|n| n.set(0));
            let r = explore(&p, &cfg(ModelKind::Vmm));
            assert!(r.is_verified(), "{lock}-3t: {}", r.verdict);
            assert!(r.stats.constructed > 100, "{lock}-3t: {}", r.stats);
            assert_eq!(revisit::ROOTS_OPENED.with(|n| n.get()), 1, "{lock}-3t");
        }
    }

    /// One thread, one store: the initial graph is the only chain root.
    fn one_root_program() -> Program {
        let mut pb = ProgramBuilder::new("one-root");
        pb.thread(|t| {
            t.store(X, 1u64, Mode::Rlx);
        });
        pb.build().unwrap()
    }

    /// More workers than work: one root, no children, eight workers.
    #[test]
    fn more_workers_than_work_terminates() {
        let p = one_root_program();
        let r = explore(&p, &cfg(ModelKind::Vmm).with_workers(8));
        assert!(r.is_verified(), "{}", r.verdict);
        assert_eq!(r.stats.complete_executions, 1);
        assert_eq!(r.stats.constructed, 1, "the initial graph is the only root");
    }

    /// No lost wake-up when the last running worker finishes with peers
    /// asleep: 300 back-to-back 4-worker runs of a tiny program, under a
    /// watchdog (a sleeping worker never looks at a deadline, so a lost
    /// wake-up would hang the scope join).
    #[test]
    fn back_to_back_parallel_runs_never_lose_a_wakeup() {
        let (done, watchdog) = std::sync::mpsc::channel();
        let runs = std::thread::spawn(move || {
            let p = sb_program();
            let c = cfg(ModelKind::Vmm).with_workers(4);
            for run in 0..300 {
                let r = explore(&p, &c);
                assert!(r.is_verified(), "run {run}: {}", r.verdict);
                assert_eq!(r.stats.complete_executions, 4, "run {run}");
            }
            done.send(()).ok();
        });
        let outcome = watchdog.recv_timeout(std::time::Duration::from_secs(120));
        assert!(outcome.is_ok(), "a 4-worker run hung or failed");
        runs.join().unwrap();
    }

    /// Time spent asleep in `WorkQueue::pop` is billed to `Driver`, not to
    /// the phase the worker's previous chain ended in — and a worker that
    /// only ever waits accrues time to `Driver` alone. The test plays the
    /// peer by hand: it holds one unit of `pending`, so the worker under
    /// test sleeps until the test lets the run end.
    #[test]
    fn idle_wait_is_billed_to_the_driver() {
        let p = one_root_program();
        let config = cfg(ModelKind::Vmm);
        let control = RunControl { profile: true, ..RunControl::default() };
        let engine = Engine {
            prog: &p,
            config: &config,
            model: config.model.checker(config.checker),
            control: &control,
            partition: None,
        };
        let nap = std::time::Duration::from_millis(40);
        // `takes_root`: the worker runs the one chain (ending in
        // `FinalCheck`) before it waits; otherwise the test takes the root
        // away first and the worker only waits.
        for takes_root in [true, false] {
            let initial = ExecutionGraph::new(p.num_threads(), p.init().clone());
            let shared = Shared::new(initial, 2, &ResourceBudget::default());
            if !takes_root {
                assert!(shared.queue.pop().is_some());
            }
            let result = std::thread::scope(|scope| {
                let worker = scope.spawn(|| engine.work(0, 2, &shared));
                await_sleepers(&shared.queue, 1);
                std::thread::sleep(nap);
                assert!(shared.queue.pop().is_none(), "nothing left: the run ends");
                worker.join().unwrap()
            });
            let phases = result.stats.phases;
            assert_eq!(result.stats.complete_executions, u64::from(takes_root));
            let driver = phases.get(EnginePhase::Driver).total();
            assert!(driver >= nap, "takes_root={takes_root}: the wait is the driver's: {phases:?}");
            let elsewhere = phases.total() - driver;
            assert!(
                elsewhere < nap / 2,
                "takes_root={takes_root}: {elsewhere:?} of idle time billed to a layer: {phases:?}"
            );
            if !takes_root {
                assert!(elsewhere.is_zero(), "a waiting-only worker enters no other phase");
            }
        }
    }

    /// Verdict severity in the queue: violations/faults > engine errors >
    /// inconclusive stops; a weaker verdict never downgrades a stronger
    /// one already recorded.
    #[test]
    fn queue_upgrades_verdicts_by_severity() {
        let inconclusive = |reason| {
            Verdict::Inconclusive(Inconclusive { reason, explored: 0, frontier_dropped: 0 })
        };
        let error = || {
            Verdict::Error(EngineError {
                kind: EngineErrorKind::Panic,
                phase: EnginePhase::Replay,
                thread: None,
                payload: "boom".into(),
            })
        };
        // Inconclusive → Error → Fault; later weaker verdicts are ignored.
        let q = WorkQueue::new(root(0), 1);
        q.finish(inconclusive(StopReason::Cancelled));
        q.finish(error());
        q.finish(Verdict::Fault("real finding".into()));
        q.finish(error());
        q.finish(inconclusive(StopReason::DeadlineExceeded));
        assert!(matches!(q.into_parts().0, Verdict::Fault(_)));
        // An engine error outranks a budget stop but not a violation.
        let q = WorkQueue::new(root(0), 1);
        q.finish(inconclusive(StopReason::MemoryBudget));
        q.finish(error());
        assert!(matches!(q.into_parts().0, Verdict::Error(_)));
    }

    /// A final check with a register operand is rejected as a structured
    /// `Verdict::Fault` before exploration starts — never a panic — for
    /// any worker count. The builder refuses to produce such a program,
    /// so assemble it with `Program::from_parts` to model an unvalidated
    /// caller.
    #[test]
    fn malformed_final_check_reports_fault_not_panic() {
        let mut pb = ProgramBuilder::new("bad-final");
        pb.thread(|t| {
            t.store(X, 1u64, Mode::Rlx);
        });
        let valid = pb.build().unwrap();
        let bad = vsync_lang::FinalCheck {
            loc: X,
            test: Test { cmp: vsync_lang::Cmp::Eq, rhs: Operand::Reg(Reg(0)), mask: None },
            msg: "bad".to_owned(),
        };
        let p = Program::from_parts(
            valid.name().to_owned(),
            vec![valid.thread_code(0).to_vec()],
            valid.sites().to_vec(),
            valid.init().clone(),
            vec![bad],
        );
        for workers in [1usize, 2] {
            let v = verify(&p, &cfg(ModelKind::Vmm).with_workers(workers));
            let Verdict::Fault(msg) = &v else {
                panic!("workers={workers}: expected fault, got {v}")
            };
            assert!(msg.contains("final"), "workers={workers}: {msg}");
        }
    }

    /// The reference checker produces the same verdicts and counts.
    #[test]
    fn reference_checker_agrees_on_counts() {
        let p = sb_program();
        for model in [ModelKind::Sc, ModelKind::Tso, ModelKind::Vmm] {
            let fast = explore(&p, &cfg(model));
            let slow = explore(&p, &cfg(model).with_reference_checker());
            assert_eq!(fast.stats.complete_executions, slow.stats.complete_executions, "{model}");
            assert_eq!(fast.stats.popped, slow.stats.popped, "{model}");
        }
    }
}
