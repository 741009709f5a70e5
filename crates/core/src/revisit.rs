//! Revisit-driven reads-from exploration: the chain logic of the search.
//!
//! The exploration driver ([`crate::explorer`]) pops frontier entries;
//! this module says what running one means. The search tree is the one of
//! the paper's Fig. 6, walked depth-first as chains of in-place
//! extensions, and backtracked the way GenMC's recursion is (tech report
//! Fig. 6): by undoing, not by copying.
//!
//! * A worker runs every chain on its one [`Chain`]: a graph plus the
//!   consistency checker and the interpreter ([`ChainReplay`]) that follow
//!   it, and an undo trail. At every step the engine replays the program,
//!   checks the graph, and — instead of cloning one child per candidate —
//!   speculatively applies each candidate to the graph
//!   ([`ExecutionGraph::push_event`] / [`ExecutionGraph::insert_mo`]),
//!   checks consistency, and undoes it. The chain then continues *in place*
//!   with the last viable candidate; the trail records that push (its mo
//!   slot and the checker's record) and the interpreter keeps the cursor it
//!   moved, so it can be taken back.
//! * The other viable candidates are **admitted** as [`ChoicePoint`]s: the
//!   trail depth, and how the candidate's root differs from the graph
//!   there. Entering one later [rewinds](Chain::enter) the chain — graph,
//!   checker ([`ChainChecker::pop`]) and interpreter
//!   ([`ChainReplay::rewind`]) — to that depth and applies the candidate,
//!   each change on the trail, so that rewinding past it takes it back:
//!   - a forward alternate pushes its event;
//!   - a `⊥` resolution pushes its write and re-points the blocked read to
//!     it; the interpreter re-runs only the instruction each of the two
//!     threads stopped in;
//!   - a backward revisit pushes its write, cuts every thread back to what
//!     the revisit keeps — `porf-prefix(w) ∪ porf-prefix(r)` is
//!     po-downward-closed, so that is one suffix per thread, popped off the
//!     graph ([`ExecutionGraph::cut`]) and off the checker — and re-points
//!     the read; the interpreter [restarts](ChainReplay::restart) the
//!     threads that changed, and no other;
//!   - a first arrival of its orbit in non-canonical form is then relabeled
//!     to the orbit's representative ([`ExecutionGraph::permute_threads`]),
//!     every thread restarted and the checker `reset` (its state follows
//!     thread labels); undoing the relabeling applies the inverse
//!     permutation, and the checker is `reset` again once the rewind is
//!     done (DESIGN.md §2.2: a reset state equals the pushed one).
//!
//!   Nothing is copied: a worker builds a chain from scratch only for the
//!   initial graph and for the roots it takes from the pool, and it takes
//!   those only when its own stack is empty.
//! * A choice point handed to another worker is materialized on the way
//!   ([`Chain::materialize`]): a copy of the graph taken back along the
//!   trail to the choice point's depth, the candidate applied to it. Its
//!   chain starts with a `reset`.
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
//! Leaves do not disturb their chain: a leaf normalized to its orbit
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
//! not one per candidate: on qspinlock-3t 11,558 roots for 61,948 chain
//! steps, all but the initial graph entered by rewinding (DESIGN.md §12).
//!
//! [`ExploreStats::constructed`]: crate::verdict::ExploreStats::constructed
//! [`Canonicalizer`]: vsync_graph::Canonicalizer
//! [`ChainChecker::floor`]: vsync_model::ChainChecker::floor
//! [`ChainChecker::pop`]: vsync_model::ChainChecker::pop

use vsync_graph::{
    Cut, EventId, EventKind, ExecutionGraph, GraphView, Loc, Mode, RfSource, ThreadId,
};
use vsync_lang::{ChainReplay, PendingOp, Program, ReadDesc, ThreadStatus};
use vsync_model::chain::record;
use vsync_model::ChainChecker;

use crate::explorer::{failed_final_check, Engine, Entry, Worker};
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
    /// A root the chain was just opened on: a full replay and a `reset`.
    Root,
    /// One event pushed on this thread and already recorded by the
    /// checker: an in-place extension, or a forward alternate entered by
    /// rewinding.
    Extended(ThreadId),
    /// A `⊥` resolution or a backward revisit entered by rewinding: a new
    /// write on one thread, and the read of another re-pointed to it —
    /// after a revisit, with the threads in `Chain::restart` cut back. The
    /// checker records neither the write nor the read.
    Resolved { write: ThreadId, read: ThreadId },
    /// A root relabeled to its orbit's representative: every thread
    /// restarted, the checker `reset`.
    Relabeled,
}

/// A worker's chain: the graph, the checker and the interpreter that
/// follow it, and the trail that takes every change since the root back.
/// Every choice point on the worker's stack was admitted by it, at a trail
/// depth no deeper than the chain is now (entries are popped LIFO).
pub(crate) struct Chain {
    graph: ExecutionGraph,
    ck: Box<dyn ChainChecker>,
    replay: ChainReplay,
    /// Every change since the root, newest last.
    trail: Vec<Undo>,
    /// The threads the interpreter restarts for the revisit just entered.
    restart: Vec<ThreadId>,
}

/// One entry of a chain's trail: how to take one change back.
enum Undo {
    /// An in-place step: an event pushed on `thread` (at mo index `slot`,
    /// for a write) and recorded by the checker.
    Push { thread: ThreadId, slot: Option<u32> },
    /// An event pushed on `thread` that the checker does not record yet.
    Event { thread: ThreadId, slot: Option<u32> },
    /// The checker recorded the newest event of the thread.
    Record(ThreadId),
    /// `read`, re-pointed to a new write; its source and flags before. The
    /// checker forgot it, and records it again as it was.
    Repoint { read: EventId, from: RfSource, rmw: bool, awaiting: bool },
    /// What a revisit cut off the graph; the checker forgot it, and records
    /// it again.
    Cut(Cut),
    /// The threads relabeled by the inverse of this permutation; the
    /// checker is `reset` once the rewind is done.
    Relabel(Box<[ThreadId]>),
}

/// An admitted root: the chain's graph at trail length `depth`, plus a
/// candidate — an event, and for a resolution or revisit the read it
/// re-points, for a revisit what it keeps, for a non-canonical first
/// arrival the relabeling. Entered by rewinding the chain
/// ([`Chain::enter`]), or materialized when it is handed to another worker
/// ([`Chain::materialize`]).
pub(crate) struct ChoicePoint {
    /// The chain's trail length when it was admitted.
    depth: u32,
    /// The chain interpreter's [`ChainReplay::advances`] then.
    advances: u32,
    /// The thread the candidate extends.
    thread: ThreadId,
    /// The event the candidate adds on `thread`.
    event: EventKind,
    /// Its mo index, for a write.
    slot: Option<usize>,
    /// The read re-pointed to that write: a blocked `⊥` read, or — with
    /// `keep` — a revisited one.
    read: Option<EventId>,
    /// For a backward revisit: the per-thread lengths it keeps.
    keep: Option<Box<[u32]>>,
    /// The relabeling to its orbit's representative, for a first arrival
    /// in non-canonical form.
    perm: Option<Box<[ThreadId]>>,
    /// The root the admitting chain would have built by copying: what
    /// entering or materializing this choice point must build (debug
    /// builds only).
    #[cfg(debug_assertions)]
    pub(crate) expect: ExecutionGraph,
}

impl ChoicePoint {
    /// Its size and the lengths it keeps, for resource budgeting.
    pub(crate) fn approx_heap_bytes(&self) -> usize {
        let lens =
            self.keep.as_ref().map_or(0, |k| k.len()) + self.perm.as_ref().map_or(0, |p| p.len());
        std::mem::size_of::<ChoicePoint>() + lens * std::mem::size_of::<u32>()
    }
}

/// An admission candidate, described by the speculative graph of the step
/// in flight, which holds its newest event: a forward alternate, a `⊥`
/// resolution (`read`), or a backward revisit (`read` and `keep`).
struct Candidate<'t> {
    thread: ThreadId,
    event: EventKind,
    slot: Option<usize>,
    read: Option<EventId>,
    keep: Option<&'t [u32]>,
}

impl Chain {
    /// A chain with no root yet, and the checker it will run.
    pub(crate) fn new(ck: Box<dyn ChainChecker>) -> Self {
        Chain {
            graph: ExecutionGraph::new(0, Default::default()),
            ck,
            replay: ChainReplay::default(),
            trail: Vec::new(),
            restart: Vec::new(),
        }
    }

    /// Start over at `root` — the initial graph, or one from the pool. No
    /// choice point refers to what the chain held.
    fn open(&mut self, root: ExecutionGraph) -> Step {
        self.graph = root;
        self.trail.clear();
        #[cfg(test)]
        ROOTS_OPENED.with(|n| n.set(n.get() + 1));
        Step::Root
    }

    /// The SC-axiom rejections of the chain's checker.
    pub(crate) fn sc_rejections(&self) -> Option<u64> {
        self.ck.sc_rejections()
    }

    /// Extend the chain in place with an event the scan accepted: the
    /// graph and the checker take it, and the trail records both.
    fn extend(&mut self, thread: ThreadId, event: EventKind, slot: Option<usize>) {
        put(&mut self.graph, thread, event, slot);
        self.ck.push_accepted(&self.graph, thread);
        self.trail.push(Undo::Push { thread, slot: slot.map(|pos| pos as u32) });
    }

    /// A choice point for `cand`, relabeled by `perm`. The graph holds the
    /// candidate's event right now (admission hashed it there), the trail
    /// does not.
    fn choice(&self, cand: Candidate<'_>, perm: Option<&[ThreadId]>) -> ChoicePoint {
        let Candidate { thread, event, slot, read, keep } = cand;
        ChoicePoint {
            depth: self.trail.len() as u32,
            advances: self.replay.advances() as u32,
            thread,
            event,
            slot,
            read,
            keep: keep.map(Box::from),
            perm: perm.map(Box::from),
            #[cfg(debug_assertions)]
            expect: {
                let g = &self.graph;
                let mut root = keep.map_or_else(|| g.clone(), |lens| g.restrict(lens));
                if let Some(read) = read {
                    root.set_rf(read, RfSource::Write(newest(g, thread)));
                }
                match perm {
                    Some(perm) => root.permute_threads(perm),
                    None => root,
                }
            },
        }
    }

    /// Take every change back down to trail length `depth` and `advances`
    /// interpreter advances: the graph and the checker entry by entry,
    /// then the interpreter's cursors ([`ChainReplay::rewind`]), which
    /// re-derive their statuses from the graph as it was. Past a
    /// relabeling the checker follows other labels: it skips the entries
    /// below and is `reset` at the end — at a choice point's depth it
    /// records the whole graph.
    fn rewind(&mut self, prog: &Program, depth: usize, advances: usize, budget: usize) {
        let mut reset = false;
        for u in self.trail.drain(depth..).rev() {
            undo_graph(&mut self.graph, &u);
            match u {
                _ if reset => {}
                Undo::Push { thread, .. } | Undo::Record(thread) => self.ck.pop(thread),
                Undo::Repoint { read, .. } => {
                    self.ck.push_accepted(&self.graph, read.thread().expect("a regular read"));
                }
                Undo::Cut(cut) => {
                    let to = thread_lens(&self.graph);
                    let mut from = to.clone();
                    for (t, kept) in cut.threads() {
                        from[t as usize] = kept as u32;
                    }
                    record(&mut *self.ck, &self.graph, &from, &to);
                }
                Undo::Relabel(_) => reset = true,
                Undo::Event { .. } => {}
            }
        }
        if reset {
            self.ck.reset(&self.graph);
        }
        self.replay.rewind(prog, &mut self.graph, advances, budget);
    }

    /// Enter `cp` by rewinding: back to its depth, then its candidate,
    /// with what the next chain step must still do.
    fn enter(&mut self, prog: &Program, cp: &ChoicePoint, budget: usize) -> Step {
        self.rewind(prog, cp.depth as usize, cp.advances as usize, budget);
        let write = cp.thread;
        if cp.read.is_none() && cp.perm.is_none() {
            self.extend(write, cp.event.clone(), cp.slot);
            return Step::Extended(write);
        }
        // The checker forgets what the graph is about to lose or change:
        // a revisit's cut suffixes, then the re-pointed read.
        self.restart.clear();
        let read = cp.read.map(|read| read.thread().expect("a regular read"));
        if let Some(read) = read {
            if let Some(keep) = &cp.keep {
                for (t, &kept) in keep.iter().enumerate() {
                    let t = t as ThreadId;
                    let len = self.graph.thread_len(t) as u32;
                    if kept < len || t == read {
                        self.restart.push(t);
                    }
                    for _ in kept..len {
                        self.ck.pop(t);
                    }
                }
            }
            self.ck.pop(read);
        }
        apply(&mut self.graph, cp, &mut self.trail);
        match read {
            _ if cp.perm.is_some() => Step::Relabeled,
            Some(read) => Step::Resolved { write, read },
            None => unreachable!("a forward alternate is an extension"),
        }
    }

    /// The root `cp` stands for, built without moving the chain: its graph
    /// taken back to the choice point on a copy, the candidate applied.
    pub(crate) fn materialize(&self, cp: &ChoicePoint) -> ExecutionGraph {
        let mut g = self.graph.clone();
        for u in self.trail[cp.depth as usize..].iter().rev() {
            #[cfg(test)]
            match u {
                Undo::Repoint { .. } => MATERIALIZED_PAST_REPOINT.with(|n| n.set(n.get() + 1)),
                Undo::Cut(_) => MATERIALIZED_PAST_CUT.with(|n| n.set(n.get() + 1)),
                Undo::Relabel(_) => MATERIALIZED_PAST_RELABEL.with(|n| n.set(n.get() + 1)),
                _ => {}
            }
            undo_graph(&mut g, u);
        }
        apply(&mut g, cp, &mut Vec::new());
        g
    }

    /// Bring the interpreter up to the graph `step` produced.
    fn replay(&mut self, prog: &Program, step: &Step, budget: usize) {
        let g = &mut self.graph;
        match *step {
            Step::Root => {
                self.replay.reset(prog, g, budget);
            }
            Step::Extended(t) => {
                self.replay.advance(prog, g, t, budget);
            }
            Step::Resolved { write, read } => {
                self.replay.advance(prog, g, write, budget);
                if self.restart.is_empty() {
                    self.replay.advance(prog, g, read, budget);
                }
                for &t in &self.restart {
                    self.replay.restart(prog, g, t, budget);
                }
            }
            Step::Relabeled => {
                for t in 0..g.num_threads() as ThreadId {
                    self.replay.restart(prog, g, t, budget);
                }
            }
        }
    }

    /// The root check of a resolution or revisit: the new write, then the
    /// read re-pointed to it, pushed on the checker (and on the trail,
    /// answered `true` or not).
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

/// Take back the graph part of `u` on `g`.
fn undo_graph(g: &mut ExecutionGraph, u: &Undo) {
    match *u {
        Undo::Push { thread, slot } | Undo::Event { thread, slot } => {
            unput(g, thread, slot.map(|pos| pos as usize));
        }
        Undo::Repoint { read, from, rmw, awaiting } => {
            g.set_rf(read, from);
            g.set_read_flags(read, rmw, awaiting);
        }
        Undo::Cut(ref cut) => g.uncut(cut),
        Undo::Relabel(ref inverse) => *g = g.permute_threads(inverse),
        Undo::Record(_) => {}
    }
}

/// Apply `cp`'s candidate to `g` (the graph at its depth) and push how to
/// take each change back on `trail`: its event; for a resolution or a
/// revisit the cut and the re-point (the interpreter repairs the read's
/// flags); the relabeling.
fn apply(g: &mut ExecutionGraph, cp: &ChoicePoint, trail: &mut Vec<Undo>) {
    let (thread, slot) = (cp.thread, cp.slot);
    let write = put(g, thread, cp.event.clone(), slot);
    trail.push(Undo::Event { thread, slot: slot.map(|pos| pos as u32) });
    if let Some(read) = cp.read {
        if let Some(keep) = &cp.keep {
            trail.push(Undo::Cut(g.cut(keep)));
        }
        let EventKind::Read { rf: from, rmw, awaiting, .. } = g.event(read).kind else {
            unreachable!("{read} is a read")
        };
        g.set_rf(read, RfSource::Write(write));
        trail.push(Undo::Repoint { read, from, rmw, awaiting });
    }
    if let Some(perm) = &cp.perm {
        *g = g.permute_threads(perm);
        let mut inverse = vec![0; perm.len()];
        for (t, &p) in perm.iter().enumerate() {
            inverse[p as usize] = t as ThreadId;
        }
        trail.push(Undo::Relabel(inverse.into()));
    }
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

impl Engine<'_> {
    /// Run one chain from a frontier entry to its end: open the worker's
    /// chain on a root from the pool, or enter a choice point by rewinding
    /// it; then replay, check and extend in place, admitting
    /// non-continuation candidates through the `visited` probe and counting
    /// terminal graphs through the `leaves` probe.
    pub(crate) fn run_chain(&self, entry: Entry, ch: &mut Chain, w: &mut Worker<'_>) -> ChainEnd {
        let budget = self.config.step_budget;
        #[cfg(debug_assertions)]
        let mut expect = None;
        let mut step = match entry {
            Entry::Root(root) => ch.open(root),
            Entry::Choice(cp) => {
                let step = ch.enter(self.prog, &cp, budget);
                #[cfg(debug_assertions)]
                {
                    expect = Some(cp.expect);
                }
                step
            }
        };
        loop {
            w.phase.set(EnginePhase::Driver);
            if let Some(r) = w.tick(self, ch) {
                return ChainEnd::Stopped(r);
            }
            // Replay first: it repairs derived read flags, which the
            // consistency check depends on. A step changes the status of
            // the one or two threads it touched, or of the threads a
            // revisit cut, and of no other.
            w.phase.set(EnginePhase::Replay);
            w.failpoint("explore.replay");
            ch.replay(self.prog, &step, budget);
            if let Some(f) = ch.replay.outcome().fault() {
                return ChainEnd::Verdict(Verdict::Fault(f.to_owned()));
            }
            w.stats.events += ch.graph.num_events() as u64;
            // Roots, resolutions and revisits are checked here, once replay
            // repaired the flags: revisit children in particular can be
            // inconsistent even when built from consistent parents.
            // Extensions and forward alternates were already checked by the
            // speculative scan that chose them.
            let consistent = match step {
                Step::Extended(_) => true,
                Step::Root | Step::Relabeled => {
                    w.phase.set(EnginePhase::Consistency);
                    w.failpoint("explore.consistency");
                    ch.ck.reset(&ch.graph)
                }
                Step::Resolved { write, read } => {
                    w.phase.set(EnginePhase::Consistency);
                    w.failpoint("explore.consistency");
                    ch.check_resolution(write, read)
                }
            };
            #[cfg(debug_assertions)]
            if let Some(want) = expect.take() {
                let (g, rep) = (&ch.graph, ch.replay.outcome());
                self.assert_root_matches(&want, g, rep, &*ch.ck, consistent);
            }
            if !consistent {
                w.stats.inconsistent += 1;
                return ChainEnd::Done;
            }
            let rep = ch.replay.outcome();
            if rep.errored() {
                let (_, msg) = ch.graph.error().expect("errored replay has an error event");
                let message = format!("assertion failed: {msg}");
                let graph = ch.graph.clone();
                return ChainEnd::Verdict(Verdict::Safety(Counterexample { graph, message }));
            }
            let Some(t) = rep.ready_threads().next() else { return self.chain_leaf(ch, w) };
            let ThreadStatus::Ready(op) = &rep.threads[t as usize] else { unreachable!() };
            let op = op.clone();
            w.phase.set(EnginePhase::Extend);
            w.failpoint("explore.extend");
            if ch.graph.thread_len(t) >= MAX_EVENTS_PER_THREAD {
                return ChainEnd::Verdict(Verdict::Fault(format!(
                    "thread {t} exceeded {} events — unbounded non-await loop? \
                     (Bounded-Length principle)",
                    MAX_EVENTS_PER_THREAD
                )));
            }
            let viable = match op {
                PendingOp::Fence { mode } => self.chain_simple(ch, t, EventKind::Fence { mode }, w),
                PendingOp::Error { msg } => self.chain_simple(ch, t, EventKind::Error { msg }, w),
                PendingOp::Read { loc, mode, desc, prev_rf } => {
                    self.chain_read(ch, t, loc, mode, desc, prev_rf, w)
                }
                PendingOp::Write { loc, val, mode, rmw } => {
                    self.chain_write(ch, t, EventKind::Write { loc, val, mode, rmw }, w)
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
    /// where the graph must be relabeled, so the chain stays as it is.
    fn chain_leaf(&self, ch: &mut Chain, w: &mut Worker<'_>) -> ChainEnd {
        // Leaf counting is a view probe, like admission.
        w.phase.set(EnginePhase::Probe);
        w.failpoint("explore.dedup");
        let (h, permuted) = w.enc.hash_view(&GraphView::full(&ch.graph));
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
        // representatives, whichever twin arrived first. The chain's
        // interpreter and checker follow the chain, not its relabeling:
        // the copy gets the worker's spare ones.
        let mut normalized = None;
        if permuted {
            let perm = w.enc.chosen_perm().expect("permuted hash implies a chosen relabeling");
            let mut g = ch.graph.permute_threads(perm);
            let rep = w.leaf_replay.reset(self.prog, &mut g, self.config.step_budget);
            if let Some(f) = rep.fault() {
                return ChainEnd::Verdict(Verdict::Fault(f.to_owned()));
            }
            normalized = Some(g);
        }
        let replay = if permuted { &w.leaf_replay } else { &ch.replay };
        let mut blocked = std::mem::take(&mut w.blocked);
        blocked.clear();
        blocked.extend(replay.outcome().blocked().cloned());
        let end = if blocked.is_empty() {
            w.phase.set(EnginePhase::FinalCheck);
            w.failpoint("explore.final");
            w.stats.complete_executions += 1;
            let g = normalized.as_ref().unwrap_or(&ch.graph);
            if let Some(message) = failed_final_check(self.prog, g) {
                let graph = normalized.unwrap_or_else(|| ch.graph.clone());
                return ChainEnd::Verdict(Verdict::Safety(Counterexample { graph, message }));
            }
            if self.config.collect_executions {
                w.executions.push(normalized.unwrap_or_else(|| ch.graph.clone()));
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
                None => is_stagnant(&mut ch.graph, &blocked, &mut *ch.ck),
            };
            if stagnant {
                let polls: Vec<String> =
                    blocked.iter().map(|b| format!("{}@{:#x}", b.read, b.loc)).collect();
                let message = format!(
                    "await never terminates: blocked read(s) {} cannot \
                     observe any new write",
                    polls.join(", ")
                );
                let graph = normalized.unwrap_or_else(|| ch.graph.clone());
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
        ch: &mut Chain,
        t: ThreadId,
        kind: EventKind,
        w: &mut Worker<'_>,
    ) -> bool {
        ch.graph.push_event(t, kind);
        ch.trail.push(Undo::Push { thread: t, slot: None });
        w.phase.set(EnginePhase::Consistency);
        w.failpoint("explore.consistency");
        if !ch.ck.push(&ch.graph, t) {
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
        ch: &mut Chain,
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
        let sources = ch.graph.mo(loc).len() + 1;
        for pos in ch.ck.floor(&ch.graph, t, loc)..sources + usize::from(desc.is_await()) {
            let rf = if pos == sources {
                RfSource::Bottom
            } else {
                let mo = ch.graph.mo(loc);
                RfSource::Write(pos.checked_sub(1).map_or(EventId::Init(loc), |i| mo[i]))
            };
            if desc.is_await() && !rf.is_bottom() && prev_rf == Some(rf) {
                continue; // wasteful repeat (Def. 2) — never generated
            }
            ch.graph.push_event(t, event(&ch.graph, rf));
            w.failpoint("explore.consistency");
            let ok = ch.ck.push(&ch.graph, t);
            ch.ck.pop(t);
            ch.graph.pop_event(t);
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
                    self.admit_alternate(ch, t, event(&ch.graph, rf), None, w);
                }
                ch.extend(t, event(&ch.graph, cont), None);
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
        ch: &mut Chain,
        t: ThreadId,
        event: EventKind,
        w: &mut Worker<'_>,
    ) -> bool {
        let EventKind::Write { loc, rmw, .. } = event else { unreachable!("a write step") };
        let g = &ch.graph;
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
        let positions = lo.max(ch.ck.floor(g, t, loc))..=hi;
        if positions.is_empty() {
            return false;
        }
        let mut targets = std::mem::take(&mut w.targets);
        w.phase.set(EnginePhase::Revisit);
        targets.compute(&ch.graph, t, loc);
        // Pass 1 — per placement: generate its revisit children (even
        // when the placed graph itself is inconsistent: the revisit
        // restriction can remove the inconsistency), check the
        // placement's own viability, undo.
        let mut viable = std::mem::take(&mut w.viable_positions);
        viable.clear();
        for pos in positions {
            let wid = put(&mut ch.graph, t, event.clone(), Some(pos));
            self.chain_revisits(ch, wid, pos, &targets, w);
            w.phase.set(EnginePhase::Consistency);
            w.failpoint("explore.consistency");
            if ch.ck.push(&ch.graph, t) {
                viable.push(pos);
            } else {
                w.stats.inconsistent += 1;
            }
            ch.ck.pop(t);
            w.phase.set(EnginePhase::Extend);
            unput(&mut ch.graph, t, Some(pos));
        }
        w.targets = targets;
        // Pass 2 — admit every viable placement but the last as an
        // alternate; continue in place with the last. Revisits were all
        // generated in pass 1 and must not be regenerated here.
        let extended = match viable.split_last() {
            None => false,
            Some((&cont, alternates)) => {
                for &pos in alternates {
                    self.admit_alternate(ch, t, event.clone(), Some(pos), w);
                }
                ch.extend(t, event, Some(cont));
                true
            }
        };
        w.viable_positions = viable;
        extended
    }

    /// Backward revisits of one speculative write placement (`wid`, at mo
    /// index `pos`, is the newest event of the chain's graph, `targets`
    /// were computed for it): re-point every target read. A `⊥` read is
    /// resolved; any other read's revisit restricts the graph to the
    /// porf-prefixes of the write and the read. Each candidate is hashed
    /// as a [`GraphView`] — duplicate orbits are rejected before anything
    /// is built.
    fn chain_revisits(
        &self,
        ch: &mut Chain,
        wid: EventId,
        pos: usize,
        targets: &RevisitTargets,
        w: &mut Worker<'_>,
    ) {
        w.phase.set(EnginePhase::Revisit);
        w.failpoint("explore.revisit");
        let thread = wid.thread().expect("the new write is a regular event");
        let event = ch.graph.event(wid).kind.clone();
        for (k, &(read, pending)) in targets.reads.iter().enumerate() {
            // A blocked thread has no successors: its `⊥` read is resolved
            // without cutting anything.
            let keep = (!pending).then(|| targets.keep(k));
            let event = event.clone();
            self.admit(ch, Candidate { thread, event, slot: Some(pos), read: Some(read), keep }, w);
        }
    }

    /// Admit a forward alternate whose event the scan answered `true` for.
    fn admit_alternate(
        &self,
        ch: &mut Chain,
        thread: ThreadId,
        event: EventKind,
        slot: Option<usize>,
        w: &mut Worker<'_>,
    ) {
        put(&mut ch.graph, thread, event.clone(), slot);
        self.admit(ch, Candidate { thread, event, slot, read: None, keep: None }, w);
        unput(&mut ch.graph, thread, slot);
    }

    /// Admit one candidate: hash its view, and only if its orbit was never
    /// admitted before, put a choice point for it on the frontier. A first
    /// arrival of its orbit in non-canonical form is relabeled to the
    /// orbit's representative when it is entered, so that successor
    /// generation (which extends the first ready thread — not a
    /// relabeling-invariant choice) stays a function of the orbit.
    /// Duplicates cost a hash probe, admissions a choice point.
    fn admit(&self, ch: &mut Chain, cand: Candidate<'_>, w: &mut Worker<'_>) {
        if cand.read.is_some() {
            w.stats.revisits += 1;
        }
        // `Probe` attributes the hash probe alone; building the admitted
        // root is the caller's work — the Extend scans' or the Revisit
        // generator's.
        let caller_phase = w.phase.get();
        w.phase.set(EnginePhase::Probe);
        w.failpoint("explore.dedup");
        let g = &ch.graph;
        let view = match (cand.read, cand.keep) {
            (None, _) => GraphView::full(g),
            (Some(read), None) => GraphView::with_rf(g, read, newest(g, cand.thread)),
            (Some(read), Some(lens)) => {
                GraphView::restricted(g, lens, read, newest(g, cand.thread))
            }
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
        let perm = permuted
            .then(|| w.enc.chosen_perm().expect("permuted hash implies a chosen relabeling"));
        w.stats.constructed += 1;
        w.out.push(ch.choice(cand, perm));
    }

    /// Debug builds hold every root entered by rewinding, and every root
    /// materialized from a choice point, to the root the admitting chain
    /// would have built by copying (`expect`): the same graph (content
    /// hash included) once a fresh `reset` replayed it, the statuses that
    /// replay reports, and — where the root is consistent — the coherence
    /// floors of a freshly `reset` checker, for every thread and location.
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

    /// The root `cp` stands for, for another worker ([`Chain::materialize`]);
    /// debug builds replay and check it the way its chain will and hold it
    /// to [`Engine::assert_root_matches`].
    pub(crate) fn materialize(&self, ch: &Chain, cp: &ChoicePoint) -> ExecutionGraph {
        let root = ch.materialize(cp);
        #[cfg(debug_assertions)]
        {
            let mut g = root.clone();
            let mut replay = ChainReplay::default();
            replay.reset(self.prog, &mut g, self.config.step_budget);
            let mut ck = self.model.chain_checker();
            let consistent = ck.reset(&g);
            self.assert_root_matches(&cp.expect, &g, replay.outcome(), &*ck, consistent);
        }
        root
    }
}

#[cfg(test)]
thread_local! {
    /// Roots a chain was opened on, on this thread: at one worker, only
    /// the initial graph.
    pub(crate) static ROOTS_OPENED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// Choice points materialized with a re-point, a cut or a relabeling
    /// beyond them, on this thread: the donation tests' witnesses that
    /// they covered each case.
    pub(crate) static MATERIALIZED_PAST_REPOINT: std::cell::Cell<u64> =
        const { std::cell::Cell::new(0) };
    pub(crate) static MATERIALIZED_PAST_CUT: std::cell::Cell<u64> =
        const { std::cell::Cell::new(0) };
    pub(crate) static MATERIALIZED_PAST_RELABEL: std::cell::Cell<u64> =
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
