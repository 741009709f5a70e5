//! Revisit-driven reads-from exploration: the chain logic of the search.
//!
//! The exploration driver ([`crate::explorer`]) pops frontier entries;
//! this module says what running one means. The search tree is the one of
//! the paper's Fig. 6, walked depth-first as chains of in-place
//! extensions, and backtracked the way GenMC's recursion is (tech report
//! Fig. 6): by undoing, not by copying.
//!
//! * A chain runs on a [`Level`]: a graph plus the consistency checker and
//!   the interpreter ([`ChainReplay`]) that follow it, and an undo trail.
//!   At every step the engine replays the program, checks the graph, and
//!   — instead of cloning one child per candidate — speculatively applies
//!   each candidate to the level's graph ([`ExecutionGraph::push_event`] /
//!   [`ExecutionGraph::insert_mo`]), checks consistency, and undoes it. The
//!   chain then continues *in place* with the last viable candidate; the
//!   trail records that push (its mo slot and the checker's record) and
//!   the interpreter keeps the cursor it moved, so it can be taken back.
//! * The other viable candidates are **admitted**. A forward alternate, or
//!   a `⊥` await read resolved by a new write, differs from the level's
//!   graph only in its newest step, so it is admitted as a
//!   [`ChoicePoint`]: the level, the trail depth, and the event (with its
//!   mo slot, and the `⊥` read it re-points). Entering it later
//!   [rewinds](Level::enter) the level — graph, checker
//!   ([`ChainChecker::pop`]) and interpreter ([`ChainReplay::rewind`]) —
//!   to that depth and applies the alternate there: nothing is cloned or
//!   forked, and the interpreter re-runs only the instruction each moved
//!   thread stopped in. A re-point is itself on the trail (with the read's
//!   old flags), so rewinding past it restores the `⊥`.
//! * Three kinds of root are **materialized** as a [`WorkItem`] and open
//!   a level of their own: standard revisit children (they delete
//!   events), roots relabeled by symmetry (`permute_threads`), and the
//!   initial graph. A revisit child takes the checker's state with it
//!   ([`Inherited`]: a fork restricted to what the chain has recorded,
//!   plus the two events beyond it), so its root check is two `push`es,
//!   not a `reset`. Only roots without a parent state start from
//!   scratch: the initial graph and relabeled roots.
//! * A level lives while its choice points are on the frontier. While a
//!   level above it runs, it is **suspended**: rewound to its latest
//!   admission (no choice point of it lies deeper), its checker's state
//!   kept as a fork and the checker itself — the one with warm buffers —
//!   lent to the level above.
//! * A choice point handed to another worker is materialized on the way
//!   ([`Level::materialize`]): the level's graph cut back to the choice
//!   point, the alternate applied, the checker forked at those lengths —
//!   or, where a re-point lies beyond the choice point (the fork would
//!   keep the re-pointed read), no state, and the root `reset`s.
//! * Admission is **hash-before-materialize**: every candidate is hashed
//!   through a [`GraphView`] of the speculative graph (a restriction plus
//!   an rf override, hashed without building anything) and admitted only
//!   if its orbit has never been admitted before. Duplicate orbits cost
//!   zero constructions and, for a program without thread symmetry, no
//!   encoding either: the graph carries per-thread hash states, so the
//!   probe combines `O(threads + writes)` words. Symmetric programs encode
//!   `1 + |relabelings|` times to find the orbit's representative.
//! * Candidates start at the **coherence floor** ([`ChainChecker::floor`]):
//!   rf sources and mo placements below it are inconsistent whatever else
//!   happens, so they are neither checked nor admitted.
//! * Backward revisits (the W-step of the paper's Fig. 6) are generated
//!   once per mo placement at or above the floor during the speculative
//!   scan — including placements that are themselves inconsistent, since
//!   the revisit restriction can remove the inconsistency — and never
//!   regenerated when the continuation placement is re-applied. A
//!   placement below the floor has no consistent revisit child: the
//!   access it is incoherent with is hb-before the write, hence in the
//!   write's porf-prefix, and kept by every child (DESIGN.md §12). What a
//!   revisit keeps depends on neither the placement nor mo, so the
//!   targets and their keep-sets are computed once per write, as joins of
//!   the porf clocks the graph keeps current ([`RevisitTargets`]).
//!
//! Leaves do not disturb their level: a leaf normalized to its orbit
//! representative is relabeled, replayed and checked on a copy, and
//! collected executions and counterexamples are copies.
//!
//! Two global sets partition the dedup duties: `visited` gates
//! *admissions* (chain roots, [`Worker::visit`]), `leaves` counts
//! *terminal* contents (complete and blocked graphs, [`Worker::leaf`])
//! exactly once each. `visited` is not only a saving: it is what makes the
//! search terminate: with symmetry off and admission not gated by it,
//! ttas-3t, semaphore-3t and mcs-3t run into the 20 M step cap (DESIGN.md
//! §12, *At-most-once construction*). Under thread symmetry both sets hash modulo the
//! program's symmetry partition ([`Canonicalizer`]), and first arrivals
//! are normalized to their orbit representative — so verdicts,
//! `complete_executions` (orbit counts) and counterexample messages are
//! identical across worker counts, verdicts and messages also across
//! symmetry settings, and each collected execution is its own orbit's
//! canonical form.
//!
//! [`ExploreStats::constructed`] counts one root per *admitted* candidate,
//! rewound or materialized, not one per candidate: on qspinlock-3t 11,558
//! roots for 61,948 chain steps, of which 1,658 are materialized
//! (DESIGN.md §12).
//!
//! [`ExploreStats::constructed`]: crate::verdict::ExploreStats::constructed
//! [`Canonicalizer`]: vsync_graph::Canonicalizer
//! [`ChainChecker::floor`]: vsync_model::ChainChecker::floor
//! [`ChainChecker::pop`]: vsync_model::ChainChecker::pop

use vsync_graph::{EventId, EventKind, ExecutionGraph, GraphView, Loc, Mode, RfSource, ThreadId};
use vsync_lang::{ChainReplay, PendingOp, Program, ReadDesc, ThreadStatus};
use vsync_model::chain::Fork;
use vsync_model::ChainChecker;

use crate::explorer::{
    failed_final_check, Engine, Entry, Inherited, Levels, Pending, WorkItem, Worker,
};
use crate::stagnancy::is_stagnant;
use crate::verdict::{Counterexample, EnginePhase, StopReason, Verdict};

/// Hard cap on events per thread: the Bounded-Length safety net that
/// turns an unbounded non-await loop into a fault instead of a hang.
const MAX_EVENTS_PER_THREAD: usize = 4_096;

/// How a chain ended.
pub(crate) enum ChainEnd {
    /// The chain ran to a leaf (or died at a check); exploration continues
    /// with the next frontier entry.
    Done,
    /// A terminal verdict that ends the whole exploration.
    Verdict(Verdict),
    /// A control check stopped the run mid-chain (budget / cancellation /
    /// deadline / step ceiling).
    Stopped(StopReason),
}

/// What the next chain step has to bring the interpreter and the checker
/// up to.
pub(crate) enum Step {
    /// A materialized root, just opened on its level: a full replay, then
    /// the root check with the state it inherited (or a `reset`).
    Root(Option<Inherited>),
    /// One event pushed on this thread and already recorded by the
    /// checker: an in-place extension, or a forward alternate entered by
    /// rewinding.
    Extended(ThreadId),
    /// A `⊥` resolution entered by rewinding: a new write on one thread,
    /// and the read of another re-pointed to it. The checker records
    /// neither yet.
    Resolved { write: ThreadId, read: ThreadId },
}

/// One chain's own state: the graph, the checker and the interpreter that
/// follow it, and the trail that takes every change since the root back.
/// A level lives while choice points of its chain are on the frontier
/// ([`Levels`]). While another level runs above it, it is *suspended*:
/// rewound to its latest admission (no choice point of it lies deeper),
/// its checker's state kept as a [`Fork`] and the checker itself, with its
/// buffers, handed to the level above.
pub(crate) struct Level {
    graph: ExecutionGraph,
    ck: Box<dyn ChainChecker>,
    replay: ChainReplay,
    /// Every change since the root, newest last.
    trail: Vec<Undo>,
    /// This level's position in the worker's stack of levels.
    index: u32,
    /// Choice points of this level on the worker's stack (or admitted and
    /// about to be moved there).
    pub(crate) choices: u32,
    /// Trail length and interpreter advances of the latest admission, or
    /// of the choice point entered since: no pending choice point of the
    /// level lies deeper (entries are popped LIFO).
    last: (u32, u32),
    /// The checker's state while the level is suspended.
    frozen: Option<Fork>,
}

/// One entry of a level's trail: how to take one change back. Small
/// (16 bytes), since a suspended level keeps its whole trail.
#[derive(Clone, Copy)]
enum Undo {
    /// An in-place step: an event pushed on `thread` (at mo index `slot`,
    /// for a write) and recorded by the checker.
    Push { thread: ThreadId, slot: Option<u32> },
    /// An event pushed on `thread` that the checker does not record yet.
    Event { thread: ThreadId, slot: Option<u32> },
    /// The checker recorded the newest event of the thread.
    Record(ThreadId),
    /// The checker forgot the thread's newest event, a `⊥` read about to
    /// be re-pointed: it records it again, as the accepted `⊥` read it was.
    Forget(ThreadId),
    /// Event `index` of `thread`, a `⊥` read, re-pointed to a new write;
    /// its flags before.
    Repoint { thread: ThreadId, index: u32, rmw: bool, awaiting: bool },
}

/// An admitted root that differs from its level's graph only in its
/// newest step: entered by rewinding the level to `depth`
/// ([`Level::enter`]), or materialized when it is handed to another worker
/// ([`Level::materialize`]).
pub(crate) struct ChoicePoint {
    /// The level whose chain admitted it.
    pub(crate) level: u32,
    /// The level's trail length when it was admitted.
    depth: u32,
    /// The level interpreter's [`ChainReplay::advances`] then.
    advances: u32,
    /// The thread the alternate extends.
    thread: ThreadId,
    /// The event the alternate adds on `thread`.
    event: EventKind,
    /// Its mo index, for a write.
    slot: Option<usize>,
    /// For a `⊥` resolution: the blocked read re-pointed to the new write,
    /// and its `rmw` flag after the re-point.
    resolves: Option<(EventId, bool)>,
    /// The root the admitting chain would have materialized: what entering
    /// or materializing this choice point must build (debug builds only).
    #[cfg(debug_assertions)]
    pub(crate) expect: ExecutionGraph,
}

impl Level {
    /// Level `index` of its worker, rooted at `graph`, with a checker that
    /// the root check will `reset` or make adopt the root's state.
    pub(crate) fn new(graph: ExecutionGraph, index: u32, ck: Box<dyn ChainChecker>) -> Self {
        Level {
            graph,
            ck,
            replay: ChainReplay::default(),
            trail: Vec::new(),
            index,
            choices: 0,
            last: (0, 0),
            frozen: None,
        }
    }

    pub(crate) fn is_suspended(&self) -> bool {
        self.frozen.is_some()
    }

    /// The level's checker, for a level above it or the pool.
    pub(crate) fn into_checker(self) -> Box<dyn ChainChecker> {
        self.ck
    }

    /// Suspend the level under a new one: rewind it to its latest
    /// admission, keep the checker's state as a fork and hand the checker
    /// over in exchange for `empty`.
    pub(crate) fn suspend(
        &mut self,
        prog: &Program,
        budget: usize,
        empty: Box<dyn ChainChecker>,
    ) -> Box<dyn ChainChecker> {
        let (depth, advances) = self.last;
        self.rewind(prog, depth as usize, advances as usize, budget);
        // At an admission the checker records exactly the graph.
        self.frozen = Some(self.ck.fork(&thread_lens(&self.graph)));
        std::mem::replace(&mut self.ck, empty)
    }

    /// Resume a suspended level with `ck` (the checker of the level that
    /// ran above it, or, without one, its own). Returns the checker left
    /// over, if any.
    pub(crate) fn resume(
        &mut self,
        ck: Option<Box<dyn ChainChecker>>,
    ) -> Option<Box<dyn ChainChecker>> {
        let Some(state) = self.frozen.take() else { return ck };
        let spare = ck.map(|ck| std::mem::replace(&mut self.ck, ck));
        self.ck.adopt(&state);
        spare
    }

    /// Extend the chain in place with an event the scan accepted: the
    /// graph and the checker take it, and the trail records both.
    fn extend(&mut self, thread: ThreadId, event: EventKind, slot: Option<usize>) {
        put(&mut self.graph, thread, event, slot);
        self.ck.push_accepted(&self.graph, thread);
        self.trail.push(Undo::Push { thread, slot: slot.map(|pos| pos as u32) });
    }

    /// A choice point for an alternate of the step in flight: `event` on
    /// `thread` at `slot`, re-pointing `resolves`. The level's graph holds
    /// the candidate's event right now (admission hashed it there), its
    /// trail does not.
    fn choice(
        &mut self,
        thread: ThreadId,
        event: EventKind,
        slot: Option<usize>,
        resolves: Option<(EventId, bool)>,
    ) -> ChoicePoint {
        self.choices += 1;
        self.last = (self.trail.len() as u32, self.replay.advances() as u32);
        ChoicePoint {
            level: self.index,
            depth: self.last.0,
            advances: self.last.1,
            thread,
            event,
            slot,
            resolves,
            #[cfg(debug_assertions)]
            expect: {
                let mut g = self.graph.clone();
                if let Some((read, _)) = resolves {
                    g.set_rf(read, RfSource::Write(newest(&g, thread)));
                }
                g
            },
        }
    }

    /// Take every change back down to trail length `depth` and `advances`
    /// interpreter advances: the graph and the checker entry by entry,
    /// then the interpreter's cursors ([`ChainReplay::rewind`]), which
    /// re-derive their statuses from the graph as it was.
    fn rewind(&mut self, prog: &Program, depth: usize, advances: usize, budget: usize) {
        for u in self.trail.drain(depth..).rev() {
            match u {
                Undo::Push { thread, .. } | Undo::Record(thread) => self.ck.pop(thread),
                Undo::Forget(thread) => self.ck.push_accepted(&self.graph, thread),
                Undo::Event { .. } | Undo::Repoint { .. } => {}
            }
            undo_graph(&mut self.graph, u);
        }
        self.replay.rewind(prog, &mut self.graph, advances, budget);
    }

    /// Enter `cp` by rewinding: back to its depth, then its alternate,
    /// with what the next chain step must still do.
    pub(crate) fn enter(&mut self, prog: &Program, cp: &ChoicePoint, budget: usize) -> Step {
        self.rewind(prog, cp.depth as usize, cp.advances as usize, budget);
        self.last = (cp.depth, cp.advances);
        let write = cp.thread;
        let Some((read, _)) = cp.resolves else {
            self.extend(write, cp.event.clone(), cp.slot);
            return Step::Extended(write);
        };
        // The checker must forget the read before the graph changes it;
        // both come back in the opposite order.
        let read = read.thread().expect("a regular read");
        self.ck.pop(read);
        self.trail.push(Undo::Forget(read));
        let repoint = apply(&mut self.graph, cp);
        self.trail.push(Undo::Event { thread: write, slot: cp.slot.map(|pos| pos as u32) });
        self.trail.push(repoint.expect("a resolution re-points"));
        Step::Resolved { write, read }
    }

    /// The work item `cp` stands for, built without moving the level: its
    /// graph cut back to the choice point on a copy, the alternate applied,
    /// and the checker (`scratch`, adopting the state of a suspended
    /// level) forked at the cut — unless a re-point lies beyond the choice
    /// point, whose read the fork would keep re-pointed: then the root
    /// starts without a state.
    pub(crate) fn materialize(
        &self,
        cp: &ChoicePoint,
        scratch: impl FnOnce() -> Box<dyn ChainChecker>,
    ) -> WorkItem {
        let mut graph = self.graph.clone();
        let mut repointed = false;
        for &u in self.trail[cp.depth as usize..].iter().rev() {
            repointed |= matches!(u, Undo::Repoint { .. });
            undo_graph(&mut graph, u);
        }
        let mut recorded = thread_lens(&graph);
        let pending = match cp.resolves {
            None => Pending::Accepted(cp.thread),
            Some((read, _)) => {
                let read = read.thread().expect("a regular read");
                recorded[read as usize] -= 1;
                Pending::Revisit { write: cp.thread, read }
            }
        };
        apply(&mut graph, cp);
        #[cfg(test)]
        if repointed {
            MATERIALIZED_PAST_REPOINT.with(|n| n.set(n.get() + 1));
        }
        let inherited = (!repointed).then(|| {
            let state = match &self.frozen {
                None => self.ck.fork(&recorded),
                Some(state) => {
                    let mut ck = scratch();
                    ck.adopt(state);
                    ck.fork(&recorded)
                }
            };
            Inherited { state, pending }
        });
        WorkItem { graph, inherited }
    }

    /// Bring the interpreter up to the graph `step` produced.
    fn replay(&mut self, prog: &Program, step: &Step, budget: usize) {
        match *step {
            Step::Root(_) => {
                self.replay.reset(prog, &mut self.graph, budget);
            }
            Step::Extended(t) => {
                self.replay.advance(prog, &mut self.graph, t, budget);
            }
            Step::Resolved { write, read } => {
                self.replay.advance(prog, &mut self.graph, write, budget);
                self.replay.advance(prog, &mut self.graph, read, budget);
            }
        }
    }

    /// The root check of a `⊥` resolution: the new write, then the read
    /// re-pointed to it, pushed on the checker (and on the trail, answered
    /// `true` or not).
    fn check_resolution(&mut self, write: ThreadId, read: ThreadId) -> bool {
        self.trail.push(Undo::Record(write));
        if !self.ck.push(&self.graph, write) {
            return false;
        }
        self.trail.push(Undo::Record(read));
        self.ck.push(&self.graph, read)
    }
}

/// Add `event` on `thread` (at mo index `slot`, for a write) to `g`.
fn put(g: &mut ExecutionGraph, thread: ThreadId, event: EventKind, slot: Option<usize>) -> EventId {
    let loc = event.loc();
    let id = g.push_event(thread, event);
    if let Some(pos) = slot {
        g.insert_mo(loc.expect("a write has a location"), id, pos);
    }
    id
}

/// Take the newest `put` on `thread` back.
fn unput(g: &mut ExecutionGraph, thread: ThreadId, slot: Option<usize>) {
    let event = g.pop_event(thread);
    if let Some(pos) = slot {
        g.remove_mo(event.loc().expect("a write has a location"), pos);
    }
}

/// Take back the graph part of `u` (events and re-points) on `g`.
fn undo_graph(g: &mut ExecutionGraph, u: Undo) {
    match u {
        Undo::Push { thread, slot } | Undo::Event { thread, slot } => {
            unput(g, thread, slot.map(|pos| pos as usize));
        }
        Undo::Repoint { thread, index, rmw, awaiting } => {
            let read = EventId::new(thread, index);
            g.set_rf(read, RfSource::Bottom);
            g.set_read_flags(read, rmw, awaiting);
        }
        Undo::Record(_) | Undo::Forget(_) => {}
    }
}

/// Apply `cp`'s alternate to `g` (the graph at its depth): its event and,
/// for a resolution, the re-point with the read's new flags. Returns the
/// re-point's undo.
fn apply(g: &mut ExecutionGraph, cp: &ChoicePoint) -> Option<Undo> {
    let write = put(g, cp.thread, cp.event.clone(), cp.slot);
    let (read, rmw) = cp.resolves?;
    let EventKind::Read { rmw: was, awaiting, .. } = g.event(read).kind else {
        unreachable!("{read} is a blocked read")
    };
    g.set_rf(read, RfSource::Write(write));
    g.set_read_flags(read, rmw, true);
    let EventId::Event { thread, index } = read else { unreachable!("{read} is a regular event") };
    Some(Undo::Repoint { thread, index, rmw: was, awaiting })
}

/// The newest event of `thread` in `g`.
fn newest(g: &ExecutionGraph, thread: ThreadId) -> EventId {
    EventId::new(thread, g.thread_len(thread) as u32 - 1)
}

/// The read event `desc` adds at `loc` when it reads from `rf`, with its
/// exact derived flags (from the source's value), so a speculative check
/// equals the check of the replayed graph.
fn read_event(g: &ExecutionGraph, loc: Loc, mode: Mode, desc: ReadDesc, rf: RfSource) -> EventKind {
    EventKind::Read {
        loc,
        mode,
        rf,
        rmw: rf.event().is_some_and(|src| desc.write_on(g.write_value(src)).is_some()),
        awaiting: desc.is_await(),
    }
}

/// A root check: `ck` takes over `inherited` and pushes what it has not
/// recorded, or is `reset` to `g` where there is no state to take over.
/// Leaves `ck` describing `g`.
fn root_consistent(
    g: &ExecutionGraph,
    ck: &mut dyn ChainChecker,
    inherited: Option<&Inherited>,
) -> bool {
    let Some(Inherited { state, pending }) = inherited else { return ck.reset(g) };
    ck.adopt(state);
    match *pending {
        Pending::Accepted(t) => {
            ck.push_accepted(g, t);
            true
        }
        Pending::Revisit { write, read } => ck.push(g, write) && ck.push(g, read),
    }
}

/// An admission candidate, described by the speculative graph of the
/// step in flight (which holds its newest event).
enum Candidate<'t> {
    /// A forward alternate (`resolves: None`) or a `⊥` resolution: the
    /// level's graph as it stands, plus the re-point for a resolution.
    /// Admitted as a choice point.
    Alternate {
        thread: ThreadId,
        event: EventKind,
        slot: Option<usize>,
        resolves: Option<(EventId, bool)>,
    },
    /// A standard backward revisit: `lens` of the graph kept, `read`
    /// re-pointed to the newest event `write`. Materialized.
    Revisit { lens: &'t [u32], read: EventId, write: EventId },
}

impl Engine<'_> {
    /// Run one chain from a frontier entry to its end: open a
    /// materialized root on a fresh level, or enter a choice point by
    /// rewinding its level; then replay, check and extend in place,
    /// admitting non-continuation candidates through the `visited` probe
    /// and counting terminal graphs through the `leaves` probe.
    pub(crate) fn run_chain(
        &self,
        entry: Entry,
        levels: &mut Levels<'_>,
        w: &mut Worker<'_>,
    ) -> ChainEnd {
        #[cfg(debug_assertions)]
        let mut expect = match &entry {
            Entry::Choice(cp) => Some(cp.expect.clone()),
            Entry::Root(_) => None,
        };
        let mut step = match entry {
            Entry::Root(WorkItem { graph, inherited }) => {
                levels.open(graph);
                Step::Root(inherited)
            }
            Entry::Choice(cp) => levels.enter(&cp),
        };
        let budget = self.config.step_budget;
        loop {
            w.phase.set(EnginePhase::Driver);
            if let Some(r) = w.tick(levels) {
                return ChainEnd::Stopped(r);
            }
            let lv = levels.active();
            // Replay first: it repairs derived read flags, which the
            // consistency check depends on. Only a materialized root is
            // interpreted in full; a step changes the status of the one or
            // two threads it touched and of no other.
            w.phase.set(EnginePhase::Replay);
            w.failpoint("explore.replay");
            lv.replay(self.prog, &step, budget);
            if let Some(f) = lv.replay.outcome().fault() {
                return ChainEnd::Verdict(Verdict::Fault(f.to_owned()));
            }
            w.stats.events += lv.graph.num_events() as u64;
            // Materialized roots and `⊥` resolutions are checked here, once
            // replay repaired the flags: revisit children in particular can
            // be inconsistent even when built from consistent parents.
            // Extensions and forward alternates were already checked by the
            // speculative scan that chose them.
            let consistent = match step {
                Step::Extended(_) => true,
                Step::Root(inherited) => {
                    w.phase.set(EnginePhase::Consistency);
                    w.failpoint("explore.consistency");
                    root_consistent(&lv.graph, &mut *lv.ck, inherited.as_ref())
                }
                Step::Resolved { write, read } => {
                    w.phase.set(EnginePhase::Consistency);
                    w.failpoint("explore.consistency");
                    lv.check_resolution(write, read)
                }
            };
            #[cfg(debug_assertions)]
            if let Some(want) = expect.take() {
                let (g, rep) = (&lv.graph, lv.replay.outcome());
                self.assert_root_matches(&want, g, rep, &*lv.ck, consistent);
            }
            if !consistent {
                w.stats.inconsistent += 1;
                return ChainEnd::Done;
            }
            let rep = lv.replay.outcome();
            if rep.errored() {
                let (_, msg) = lv.graph.error().expect("errored replay has an error event");
                let message = format!("assertion failed: {msg}");
                let graph = lv.graph.clone();
                return ChainEnd::Verdict(Verdict::Safety(Counterexample { graph, message }));
            }
            let Some(t) = rep.ready_threads().next() else { return self.chain_leaf(lv, w) };
            let ThreadStatus::Ready(op) = &rep.threads[t as usize] else { unreachable!() };
            let op = op.clone();
            w.phase.set(EnginePhase::Extend);
            w.failpoint("explore.extend");
            if lv.graph.thread_len(t) >= MAX_EVENTS_PER_THREAD {
                return ChainEnd::Verdict(Verdict::Fault(format!(
                    "thread {t} exceeded {} events — unbounded non-await loop? \
                     (Bounded-Length principle)",
                    MAX_EVENTS_PER_THREAD
                )));
            }
            let viable = match op {
                PendingOp::Fence { mode } => self.chain_simple(lv, t, EventKind::Fence { mode }, w),
                PendingOp::Error { msg } => self.chain_simple(lv, t, EventKind::Error { msg }, w),
                PendingOp::Read { loc, mode, desc, prev_rf } => {
                    self.chain_read(lv, t, loc, mode, desc, prev_rf, w)
                }
                PendingOp::Write { loc, val, mode, rmw } => {
                    self.chain_write(lv, t, EventKind::Write { loc, val, mode, rmw }, w)
                }
            };
            if !viable {
                return ChainEnd::Done;
            }
            step = Step::Extended(t);
        }
    }

    /// Terminal graph: count its orbit once through `leaves`, then run the
    /// complete-execution checks or the stagnancy analysis — on a copy
    /// where the graph must be relabeled, so the level stays as it is.
    fn chain_leaf(&self, lv: &mut Level, w: &mut Worker<'_>) -> ChainEnd {
        // Leaf counting is a view probe, like admission.
        w.phase.set(EnginePhase::Probe);
        w.failpoint("explore.dedup");
        let (h, permuted) = w.enc.hash_view(&GraphView::full(&lv.graph));
        w.stats.probes += w.enc.take_probes();
        if !w.leaf(h) {
            // Distinct chains can converge on the same terminal content;
            // only the first arrival is counted/checked.
            if permuted {
                w.stats.symmetry_pruned += 1;
            } else {
                w.stats.duplicates += 1;
            }
            return ChainEnd::Done;
        }
        // First arrival of its orbit in non-canonical form: normalize a
        // copy so counterexamples and collected executions are the orbit
        // representatives, whichever twin arrived first. The level's
        // interpreter and checker followed the chain, not its relabeling:
        // the copy gets the worker's spare ones.
        let mut normalized = None;
        if permuted {
            let perm = w.enc.chosen_perm().expect("permuted hash implies a chosen relabeling");
            let mut g = lv.graph.permute_threads(perm);
            let rep = w.leaf_replay.reset(self.prog, &mut g, self.config.step_budget);
            if let Some(f) = rep.fault() {
                return ChainEnd::Verdict(Verdict::Fault(f.to_owned()));
            }
            normalized = Some(g);
        }
        let replay = if permuted { &w.leaf_replay } else { &lv.replay };
        let mut blocked = std::mem::take(&mut w.blocked);
        blocked.clear();
        blocked.extend(replay.outcome().blocked().cloned());
        let end = if blocked.is_empty() {
            w.phase.set(EnginePhase::FinalCheck);
            w.failpoint("explore.final");
            w.stats.complete_executions += 1;
            let g = normalized.as_ref().unwrap_or(&lv.graph);
            if let Some(message) = failed_final_check(self.prog, g) {
                let graph = normalized.unwrap_or_else(|| lv.graph.clone());
                return ChainEnd::Verdict(Verdict::Safety(Counterexample { graph, message }));
            }
            if self.config.collect_executions {
                w.executions.push(normalized.unwrap_or_else(|| lv.graph.clone()));
            }
            ChainEnd::Done
        } else {
            w.phase.set(EnginePhase::Stagnancy);
            w.failpoint("explore.stagnancy");
            w.stats.blocked_graphs += 1;
            let stagnant = match normalized.as_mut() {
                Some(g) => {
                    let consistent = w.leaf_ck.reset(g);
                    debug_assert!(consistent, "relabeling threads preserves consistency");
                    is_stagnant(g, &blocked, &mut *w.leaf_ck)
                }
                None => is_stagnant(&mut lv.graph, &blocked, &mut *lv.ck),
            };
            if stagnant {
                let polls: Vec<String> =
                    blocked.iter().map(|b| format!("{}@{:#x}", b.read, b.loc)).collect();
                let message = format!(
                    "await never terminates: blocked read(s) {} cannot \
                     observe any new write",
                    polls.join(", ")
                );
                let graph = normalized.unwrap_or_else(|| lv.graph.clone());
                return ChainEnd::Verdict(Verdict::AwaitTermination(Counterexample {
                    graph,
                    message,
                }));
            }
            // Non-stagnant blocked graphs are exploration artifacts;
            // their real continuations are siblings.
            ChainEnd::Done
        };
        w.blocked = blocked;
        end
    }

    /// Single-candidate step (fence / error event): extend in place, no
    /// admission. SC fences can still create consistency violations, so
    /// the step is checked like any other.
    fn chain_simple(
        &self,
        lv: &mut Level,
        t: ThreadId,
        kind: EventKind,
        w: &mut Worker<'_>,
    ) -> bool {
        lv.graph.push_event(t, kind);
        lv.trail.push(Undo::Push { thread: t, slot: None });
        w.phase.set(EnginePhase::Consistency);
        w.failpoint("explore.consistency");
        if !lv.ck.push(&lv.graph, t) {
            w.stats.inconsistent += 1;
            return false;
        }
        true
    }

    /// R-step: branch over every rf candidate (plus `⊥` for await reads),
    /// continuing in place with the last viable one.
    #[allow(clippy::too_many_arguments)]
    fn chain_read(
        &self,
        lv: &mut Level,
        t: ThreadId,
        loc: Loc,
        mode: Mode,
        desc: ReadDesc,
        prev_rf: Option<RfSource>,
        w: &mut Worker<'_>,
    ) -> bool {
        // Candidates in mo order from the floor, `⊥` last. The order fixes
        // the in-place continuation — the last viable candidate — and so
        // which children are admitted and which twin of an orbit arrives
        // first: every CI-pinned counter depends on it.
        let event = |g: &ExecutionGraph, rf| read_event(g, loc, mode, desc, rf);
        // Viability scan: speculative push → model check → undo.
        let mut viable = std::mem::take(&mut w.viable_sources);
        viable.clear();
        w.phase.set(EnginePhase::Consistency);
        // `⊥` is the potential AT violation: no incoming rf-edge (yet).
        // Sources below the coherence floor are never consistent.
        let sources = lv.graph.mo(loc).len() + 1;
        for pos in lv.ck.floor(&lv.graph, t, loc)..sources + usize::from(desc.is_await()) {
            let rf = if pos == sources {
                RfSource::Bottom
            } else {
                let mo = lv.graph.mo(loc);
                RfSource::Write(pos.checked_sub(1).map_or(EventId::Init(loc), |i| mo[i]))
            };
            if desc.is_await() && !rf.is_bottom() && prev_rf == Some(rf) {
                continue; // wasteful repeat (Def. 2) — never generated
            }
            lv.graph.push_event(t, event(&lv.graph, rf));
            w.failpoint("explore.consistency");
            let ok = lv.ck.push(&lv.graph, t);
            lv.ck.pop(t);
            lv.graph.pop_event(t);
            if ok {
                viable.push(rf);
            } else {
                w.stats.inconsistent += 1;
            }
        }
        w.phase.set(EnginePhase::Extend);
        let extended = match viable.split_last() {
            None => false,
            Some((&cont, alternates)) => {
                for &rf in alternates {
                    self.admit_alternate(lv, t, event(&lv.graph, rf), None, w);
                }
                lv.extend(t, event(&lv.graph, cont), None);
                true
            }
        };
        w.viable_sources = viable;
        extended
    }

    /// W-step: place the write `event` of thread `t` in mo (all positions
    /// at or above the coherence floor for plain writes; the
    /// atomicity-forced slot for RMW write parts, if not below it),
    /// generate backward revisits once per placement, and continue in
    /// place with the last viable placement.
    fn chain_write(
        &self,
        lv: &mut Level,
        t: ThreadId,
        event: EventKind,
        w: &mut Worker<'_>,
    ) -> bool {
        let EventKind::Write { loc, rmw, .. } = event else { unreachable!("a write step") };
        let g = &lv.graph;
        let (lo, hi) = if rmw {
            // The write part must land immediately after its read's source.
            let src = match g.rf(newest(g, t)) {
                RfSource::Write(src) => src,
                RfSource::Bottom => unreachable!("rmw write part with unresolved read"),
            };
            let pos = g.mo_position(src).expect("source in mo");
            (pos, pos)
        } else {
            (0, g.mo(loc).len())
        };
        let positions = lo.max(lv.ck.floor(g, t, loc))..=hi;
        if positions.is_empty() {
            return false;
        }
        let mut targets = std::mem::take(&mut w.targets);
        w.phase.set(EnginePhase::Revisit);
        targets.compute(&lv.graph, t, loc);
        // Pass 1 — per placement: generate its revisit children (even
        // when the placed graph itself is inconsistent: the revisit
        // restriction can remove the inconsistency), check the
        // placement's own viability, undo.
        let mut viable = std::mem::take(&mut w.viable_positions);
        viable.clear();
        for pos in positions {
            let wid = put(&mut lv.graph, t, event.clone(), Some(pos));
            self.chain_revisits(lv, wid, pos, &targets, w);
            w.phase.set(EnginePhase::Consistency);
            w.failpoint("explore.consistency");
            if lv.ck.push(&lv.graph, t) {
                viable.push(pos);
            } else {
                w.stats.inconsistent += 1;
            }
            lv.ck.pop(t);
            w.phase.set(EnginePhase::Extend);
            unput(&mut lv.graph, t, Some(pos));
        }
        w.targets = targets;
        // Pass 2 — admit every viable placement but the last as an
        // alternate; continue in place with the last. Revisits were all
        // generated in pass 1 and must not be regenerated here.
        let extended = match viable.split_last() {
            None => false,
            Some((&cont, alternates)) => {
                for &pos in alternates {
                    self.admit_alternate(lv, t, event.clone(), Some(pos), w);
                }
                lv.extend(t, event, Some(cont));
                true
            }
        };
        w.viable_positions = viable;
        extended
    }

    /// Backward revisits of one speculative write placement (`wid`, at mo
    /// index `pos`, is the newest event of the level's graph, `targets`
    /// were computed for it): re-point every target read. A `⊥` read is
    /// resolved as a choice point; any other read's revisit restricts the
    /// graph to the porf-prefixes of the write and the read. Each
    /// candidate is hashed as a [`GraphView`] — duplicate orbits are
    /// rejected before any graph is built.
    fn chain_revisits(
        &self,
        lv: &mut Level,
        wid: EventId,
        pos: usize,
        targets: &RevisitTargets,
        w: &mut Worker<'_>,
    ) {
        w.phase.set(EnginePhase::Revisit);
        w.failpoint("explore.revisit");
        let thread = wid.thread().expect("the new write is a regular event");
        let event = lv.graph.event(wid).kind.clone();
        let EventKind::Write { val, .. } = event else { unreachable!("{wid} is a write") };
        for (k, &(read, pending)) in targets.reads.iter().enumerate() {
            let cand = if pending {
                // Resolution of a pending await read: no deletion needed,
                // the blocked thread has no successors.
                let reader = read.thread().expect("reads are regular events") as usize;
                let ThreadStatus::Blocked(b) = &lv.replay.outcome().threads[reader] else {
                    unreachable!("a ⊥ read blocks its thread")
                };
                debug_assert_eq!(b.read, read);
                let rmw = b.desc.write_on(val).is_some();
                let event = event.clone();
                Candidate::Alternate { thread, event, slot: Some(pos), resolves: Some((read, rmw)) }
            } else {
                // Standard revisit: keep only the porf-prefixes of the
                // new write and of the read, re-point the read.
                Candidate::Revisit { lens: targets.keep(k), read, write: wid }
            };
            self.admit(lv, cand, w);
        }
    }

    /// Admit a forward alternate whose event the scan answered `true` for.
    fn admit_alternate(
        &self,
        lv: &mut Level,
        thread: ThreadId,
        event: EventKind,
        slot: Option<usize>,
        w: &mut Worker<'_>,
    ) {
        put(&mut lv.graph, thread, event.clone(), slot);
        self.admit(lv, Candidate::Alternate { thread, event, slot, resolves: None }, w);
        unput(&mut lv.graph, thread, slot);
    }

    /// Admit one candidate: hash its view, and only if its orbit was never
    /// admitted before, put it on the frontier — as a choice point of the
    /// level, or materialized: normalized to the orbit representative, or
    /// as a revisit child with the checker forked down to the part of it
    /// the chain has recorded. This is what keeps materializations low:
    /// duplicates cost a hash probe, alternates a choice point.
    fn admit(&self, lv: &mut Level, cand: Candidate<'_>, w: &mut Worker<'_>) {
        if !matches!(cand, Candidate::Alternate { resolves: None, .. }) {
            w.stats.revisits += 1;
        }
        // `Probe` attributes the hash probe alone; building the admitted
        // root is the caller's work — the Extend scans' or the Revisit
        // generator's.
        let caller_phase = w.phase.get();
        w.phase.set(EnginePhase::Probe);
        w.failpoint("explore.dedup");
        let g = &lv.graph;
        let view = match cand {
            Candidate::Alternate { resolves: None, .. } => GraphView::full(g),
            Candidate::Alternate { thread, resolves: Some((read, _)), .. } => {
                GraphView::with_rf(g, read, newest(g, thread))
            }
            Candidate::Revisit { lens, read, write } => GraphView::restricted(g, lens, read, write),
        };
        let (h, permuted) = w.enc.hash_view(&view);
        w.stats.probes += w.enc.take_probes();
        let fresh = w.visit(h);
        w.phase.set(caller_phase);
        if !fresh {
            if permuted {
                w.stats.symmetry_pruned += 1;
            } else {
                w.stats.duplicates += 1;
            }
            return;
        }
        let entry = if permuted {
            // First arrival of its orbit, but not in canonical form:
            // normalize so successor generation (which extends the first
            // ready thread — not a relabeling-invariant choice) stays a
            // function of the orbit. The checker's state follows thread
            // labels, so the relabeled root re-derives its own.
            let perm = w.enc.chosen_perm().expect("permuted hash implies a chosen relabeling");
            let graph = match cand {
                Candidate::Alternate { resolves: None, .. } => g.permute_threads(perm),
                Candidate::Alternate { thread, resolves: Some((read, _)), .. } => {
                    let mut child = g.clone();
                    child.set_rf(read, RfSource::Write(newest(g, thread)));
                    child.permute_threads(perm)
                }
                Candidate::Revisit { lens, read, write } => {
                    let mut child = g.restrict(lens);
                    child.set_rf(read, RfSource::Write(write));
                    child.permute_threads(perm)
                }
            };
            Entry::Root(WorkItem { graph, inherited: None })
        } else {
            match cand {
                Candidate::Alternate { thread, event, slot, resolves } => {
                    Entry::Choice(lv.choice(thread, event, slot, resolves))
                }
                Candidate::Revisit { lens, read, write } => {
                    // What the child's checker inherits: the level's
                    // checker cut back to the kept events minus `write`
                    // (which it has not recorded) and `read` (which
                    // changes). `read` is po-maximal among the kept events
                    // — a kept po-successor would put it in the write's
                    // prefix — and nothing reads from a read, so both are
                    // legal pushes on it.
                    let mut graph = g.restrict(lens);
                    graph.set_rf(read, RfSource::Write(write));
                    let (wt, rt) = (write.thread().unwrap(), read.thread().unwrap());
                    let mut recorded = lens.to_vec();
                    recorded[wt as usize] -= 1;
                    recorded[rt as usize] -= 1;
                    let state = lv.ck.fork(&recorded);
                    let pending = Pending::Revisit { write: wt, read: rt };
                    Entry::Root(WorkItem { graph, inherited: Some(Inherited { state, pending }) })
                }
            }
        };
        w.stats.constructed += 1;
        w.out.push(entry);
    }

    /// Debug builds hold every root entered by rewinding, and every item
    /// materialized from a choice point, to the root the admitting chain
    /// would have materialized (`expect`): the same graph (content hash
    /// included) once a fresh `reset` replayed it, the statuses that replay
    /// reports, and — where the root is consistent — the coherence floors
    /// of a freshly `reset` checker, for every thread and location.
    #[cfg(debug_assertions)]
    fn assert_root_matches(
        &self,
        expect: &ExecutionGraph,
        g: &ExecutionGraph,
        replay: &vsync_lang::ReplayOutcome,
        ck: &dyn ChainChecker,
        consistent: bool,
    ) {
        let mut want = expect.clone();
        let mut fresh = ChainReplay::default();
        fresh.reset(self.prog, &mut want, self.config.step_budget);
        assert_eq!(g, &want, "a rewound root differs from its materialization");
        let hash = vsync_graph::content_hash;
        assert_eq!(hash(g), hash(&want), "a rewound root hashes differently");
        assert_eq!(replay.threads, fresh.outcome().threads, "statuses differ from a reset");
        let mut reset = self.model.chain_checker();
        assert_eq!(reset.reset(&want), consistent, "the root check differs from a reset");
        if consistent {
            let mut locs: Vec<Loc> = want.events().filter_map(|(_, e)| e.kind.loc()).collect();
            locs.sort_unstable();
            locs.dedup();
            for t in 0..want.num_threads() as ThreadId {
                for &loc in &locs {
                    let (got, exp) = (ck.floor(g, t, loc), reset.floor(&want, t, loc));
                    assert_eq!(got, exp, "floor of thread {t} at {loc:#x} differs from a reset");
                }
            }
        }
    }

    /// [`Engine::assert_root_matches`] for an item materialized from a
    /// choice point: replayed and checked the way its chain will be.
    #[cfg(debug_assertions)]
    pub(crate) fn assert_item_matches(&self, expect: &ExecutionGraph, item: &WorkItem) {
        let mut g = item.graph.clone();
        let mut replay = ChainReplay::default();
        replay.reset(self.prog, &mut g, self.config.step_budget);
        let mut ck = self.model.chain_checker();
        let consistent = root_consistent(&g, &mut *ck, item.inherited.as_ref());
        self.assert_root_matches(expect, &g, replay.outcome(), &*ck, consistent);
    }
}

#[cfg(test)]
thread_local! {
    /// Choice points materialized with a re-point beyond them, on this
    /// thread: the donation test's witness that it covered the case.
    pub(crate) static MATERIALIZED_PAST_REPOINT: std::cell::Cell<u64> =
        const { std::cell::Cell::new(0) };
}

/// The per-thread lengths of `g`.
fn thread_lens(g: &ExecutionGraph) -> Vec<u32> {
    (0..g.num_threads()).map(|t| g.thread_len(t as ThreadId) as u32).collect()
}

/// The backward-revisit targets of one W-step: the reads of the write's
/// location outside the write's porf-prefix, each with the per-thread
/// lengths its revisit keeps. Neither depends on where the write lands
/// in mo, so they are computed once per write, before the placement scan,
/// as a join of two of the porf clocks the graph carries per read.
#[derive(Default)]
pub(crate) struct RevisitTargets {
    /// The porf clock the write will have.
    write: Vec<u32>,
    /// The target reads, in program order per thread, and whether each
    /// is a pending (`⊥`) await read.
    reads: Vec<(EventId, bool)>,
    /// `porf-prefix(write) ∪ porf-prefix(read)` per target, as per-thread
    /// lengths, `threads` entries each.
    keep: Vec<u32>,
}

impl RevisitTargets {
    /// The targets of the write thread `t` is about to add to `loc` in `g`
    /// (which does not hold it yet).
    fn compute(&mut self, g: &ExecutionGraph, t: ThreadId, loc: Loc) {
        self.reads.clear();
        self.keep.clear();
        // `t`'s own reads are po-before the write, hence in its prefix.
        if g.reads_of(loc).all(|(r, _)| r.thread() == Some(t)) {
            return;
        }
        let n = g.thread_len(t);
        self.write.clear();
        match n.checked_sub(1) {
            Some(pred) => self.write.extend_from_slice(g.porf_clock(EventId::new(t, pred as u32))),
            None => self.write.resize(g.num_threads(), 0),
        }
        self.write[t as usize] = n as u32 + 1;
        for (r, rf) in g.reads_of(loc) {
            let EventId::Event { thread, index } = r else { unreachable!("reads are regular") };
            if self.write[thread as usize] > index {
                continue; // in the write's porf-prefix
            }
            self.reads.push((r, rf.is_bottom()));
            let read = g.porf_clock(r);
            self.keep.extend(self.write.iter().zip(read).map(|(&a, &b)| a.max(b)));
        }
    }

    /// The per-thread lengths the revisit of the `k`-th target keeps.
    fn keep(&self, k: usize) -> &[u32] {
        let nt = self.write.len();
        &self.keep[k * nt..(k + 1) * nt]
    }
}
