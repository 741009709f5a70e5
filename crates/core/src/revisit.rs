//! Revisit-driven reads-from exploration: the chain logic of the search.
//!
//! The exploration driver ([`crate::explorer`]) pops work items; this
//! module says what processing one item means. The search tree is the one
//! of the paper's Fig. 6, walked as chains of in-place extensions:
//!
//! * A work item is a materialized **chain root** (initially the empty
//!   graph; later, admitted alternates and revisit children). Processing
//!   an item runs a depth-first **chain**: at every step the engine
//!   replays the program, checks the graph, and — instead of cloning one
//!   child per candidate — speculatively applies each candidate to the
//!   current graph ([`ExecutionGraph::push_event`] /
//!   [`ExecutionGraph::insert_mo`]), checks consistency, and undoes it
//!   ([`ExecutionGraph::pop_event`] / [`ExecutionGraph::remove_mo`]).
//!   The chain then continues *in place* with the last viable candidate
//!   and admits the remaining viable candidates as new work items.
//! * What a chain knows about its graph is **inherited and forked, never
//!   re-derived**. The interpreter ([`ChainReplay`]) and the consistency
//!   checker (`Worker::ck`) both follow the chain: a full replay and the
//!   root check happen once, every later step resumes the one thread it
//!   extended and pushes the one event it added. An admitted item takes
//!   the checker's state with it ([`Inherited`]: a fork restricted to the
//!   part of the item the chain has recorded, plus the one or two events
//!   beyond it), so its own root check is one or two `push`es, not a
//!   `reset`. Only roots without a parent state start from scratch: the
//!   initial graph and items relabeled by `permute_threads`.
//! * Admission is **hash-before-materialize**: every candidate — forward
//!   alternate or revisit child — is hashed through a [`GraphView`] of
//!   the speculative graph (a restriction plus an rf override, hashed
//!   without building anything) and cloned only if its orbit has never
//!   been admitted before. Duplicate orbits cost zero constructions and,
//!   for a program without thread symmetry, no encoding either: the
//!   graph carries per-thread hash states, so the probe combines
//!   `O(threads + writes)` words. Symmetric programs encode
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
//! Two global sets partition the dedup duties: `visited` gates
//! *materializations* (admitted roots, [`Worker::visit`]), `leaves` counts
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
//! [`ExploreStats::constructed`] counts one graph per *admitted* item,
//! not one per candidate: on qspinlock-3t 11,558 graphs for 61,948 chain
//! steps (DESIGN.md §12).
//!
//! [`ExploreStats::constructed`]: crate::verdict::ExploreStats::constructed
//! [`Canonicalizer`]: vsync_graph::Canonicalizer
//! [`ChainChecker::floor`]: vsync_model::ChainChecker::floor

use vsync_graph::{EventId, EventKind, ExecutionGraph, GraphView, Loc, Mode, RfSource, ThreadId};
use vsync_lang::{ChainReplay, PendingOp, ReadDesc, ThreadStatus};

use crate::explorer::{failed_final_check, Engine, Inherited, Pending, WorkItem, Worker};
use crate::stagnancy::is_stagnant;
use crate::verdict::{Counterexample, EnginePhase, StopReason, Verdict};

/// Hard cap on events per thread: the Bounded-Length safety net that
/// turns an unbounded non-await loop into a fault instead of a hang.
const MAX_EVENTS_PER_THREAD: usize = 4_096;

/// How a chain ended.
pub(crate) enum ChainEnd {
    /// The chain ran to a leaf (or died at a check); exploration continues
    /// with the next work item.
    Done,
    /// A terminal verdict that ends the whole exploration.
    Verdict(Verdict),
    /// A control check stopped the run mid-chain (budget / cancellation /
    /// deadline / step ceiling).
    Stopped(StopReason),
}

impl Engine<'_> {
    /// Run one chain to exhaustion: replay, check, extend in place,
    /// admitting non-continuation candidates through the `visited` probe
    /// and counting terminal graphs through the `leaves` probe.
    pub(crate) fn run_chain(
        &self,
        item: WorkItem,
        w: &mut Worker<'_>,
        replay: &mut ChainReplay,
    ) -> ChainEnd {
        let WorkItem { graph: mut g, mut inherited } = item;
        // The thread the previous step extended; `None` at the root.
        let mut extended: Option<ThreadId> = None;
        loop {
            w.phase.set(EnginePhase::Driver);
            if let Some(r) = w.tick() {
                return ChainEnd::Stopped(r);
            }
            // Replay first: it repairs derived read flags, which the
            // consistency check depends on. Only the root is interpreted
            // in full; a step changes the status of the thread it extended
            // and of no other.
            w.phase.set(EnginePhase::Replay);
            w.failpoint("explore.replay");
            let budget = self.config.step_budget;
            let rep = match extended {
                None => replay.reset(self.prog, &mut g, budget),
                Some(t) => replay.advance(self.prog, &mut g, t, budget),
            };
            if let Some(f) = rep.fault() {
                return ChainEnd::Verdict(Verdict::Fault(f.to_owned()));
            }
            w.stats.events += g.num_events() as u64;
            if extended.is_none() {
                // Chain roots are materialized without a consistency
                // check — revisit children in particular can be
                // inconsistent even when built from consistent parents —
                // so check once here, after replay repaired the flags.
                // In-place continuations were already checked by the
                // speculative scan that chose them.
                w.phase.set(EnginePhase::Consistency);
                w.failpoint("explore.consistency");
                if !self.root_consistent(&g, inherited.take(), w) {
                    w.stats.inconsistent += 1;
                    return ChainEnd::Done;
                }
            }
            if rep.errored() {
                let (_, msg) = g.error().expect("errored replay has an error event");
                let message = format!("assertion failed: {msg}");
                return ChainEnd::Verdict(Verdict::Safety(Counterexample { graph: g, message }));
            }
            let next_ready = rep.ready_threads().next();
            match next_ready {
                Some(t) => {
                    w.phase.set(EnginePhase::Extend);
                    w.failpoint("explore.extend");
                    if g.thread_len(t) >= MAX_EVENTS_PER_THREAD {
                        return ChainEnd::Verdict(Verdict::Fault(format!(
                            "thread {t} exceeded {} events — unbounded non-await loop? \
                             (Bounded-Length principle)",
                            MAX_EVENTS_PER_THREAD
                        )));
                    }
                    let ThreadStatus::Ready(op) = &rep.threads[t as usize] else { unreachable!() };
                    let viable = match op {
                        PendingOp::Fence { mode } => {
                            self.chain_simple(&mut g, t, EventKind::Fence { mode: *mode }, w)
                        }
                        PendingOp::Error { msg } => {
                            self.chain_simple(&mut g, t, EventKind::Error { msg: msg.clone() }, w)
                        }
                        PendingOp::Read { loc, mode, desc, prev_rf } => {
                            self.chain_read(&mut g, t, *loc, *mode, *desc, *prev_rf, w)
                        }
                        PendingOp::Write { loc, val, mode, rmw } => {
                            self.chain_write(&mut g, t, *loc, *val, *mode, *rmw, w)
                        }
                    };
                    if !viable {
                        return ChainEnd::Done;
                    }
                    extended = Some(t);
                }
                None => return self.chain_leaf(g, replay, w),
            }
        }
    }

    /// The root's consistency check, which leaves `w.ck` describing `g`.
    /// A root that inherited its parent chain's state adopts it and pushes
    /// the one or two events the state has not recorded; only a root
    /// without one re-derives everything.
    fn root_consistent(
        &self,
        g: &ExecutionGraph,
        inherited: Option<Inherited>,
        w: &mut Worker<'_>,
    ) -> bool {
        let Some(Inherited { state, pending }) = inherited else { return w.ck.reset(g) };
        w.ck.adopt(&state);
        match pending {
            Pending::Accepted(t) => {
                w.ck.push_accepted(g, t);
                true
            }
            Pending::Revisit { write, read } => w.ck.push(g, write) && w.ck.push(g, read),
        }
    }

    /// Terminal graph: count its orbit once through `leaves`, then run the
    /// complete-execution checks or the stagnancy analysis.
    fn chain_leaf(
        &self,
        mut g: ExecutionGraph,
        replay: &mut ChainReplay,
        w: &mut Worker<'_>,
    ) -> ChainEnd {
        // Leaf counting is a view probe, like admission.
        w.phase.set(EnginePhase::Probe);
        w.failpoint("explore.dedup");
        let (h, permuted) = w.enc.hash_view(&GraphView::full(&g));
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
        if permuted {
            // First arrival of its orbit in non-canonical form: normalize
            // so counterexamples and collected executions are the orbit
            // representatives, whichever twin arrived first.
            let perm = w.enc.chosen_perm().expect("permuted hash implies a chosen relabeling");
            g = g.permute_threads(perm);
            // The interpreter followed the chain, not its relabeling.
            let rep = replay.reset(self.prog, &mut g, self.config.step_budget);
            if let Some(f) = rep.fault() {
                return ChainEnd::Verdict(Verdict::Fault(f.to_owned()));
            }
        }
        let blocked: Vec<_> = replay.outcome().blocked().collect();
        if blocked.is_empty() {
            w.phase.set(EnginePhase::FinalCheck);
            w.failpoint("explore.final");
            w.stats.complete_executions += 1;
            if let Some(msg) = failed_final_check(self.prog, &g) {
                return ChainEnd::Verdict(Verdict::Safety(Counterexample {
                    graph: g,
                    message: msg,
                }));
            }
            if self.config.collect_executions {
                w.executions.push(g);
            }
        } else {
            w.phase.set(EnginePhase::Stagnancy);
            w.failpoint("explore.stagnancy");
            w.stats.blocked_graphs += 1;
            if permuted {
                // The checker followed the chain, not its relabeling.
                let consistent = w.ck.reset(&g);
                debug_assert!(consistent, "relabeling threads preserves consistency");
            }
            if is_stagnant(&mut g, &blocked, &mut *w.ck) {
                let polls: Vec<String> =
                    blocked.iter().map(|b| format!("{}@{:#x}", b.read, b.loc)).collect();
                let message = format!(
                    "await never terminates: blocked read(s) {} cannot \
                     observe any new write",
                    polls.join(", ")
                );
                return ChainEnd::Verdict(Verdict::AwaitTermination(Counterexample {
                    graph: g,
                    message,
                }));
            }
            // Non-stagnant blocked graphs are exploration artifacts;
            // their real continuations are siblings.
        }
        ChainEnd::Done
    }

    /// Single-candidate step (fence / error event): extend in place, no
    /// admission. SC fences can still create consistency violations, so
    /// the step is checked like any other.
    fn chain_simple(
        &self,
        g: &mut ExecutionGraph,
        t: ThreadId,
        kind: EventKind,
        w: &mut Worker<'_>,
    ) -> bool {
        g.push_event(t, kind);
        w.phase.set(EnginePhase::Consistency);
        w.failpoint("explore.consistency");
        if !w.ck.push(g, t) {
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
        g: &mut ExecutionGraph,
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
        // first: every CI-pinned counter depends on it. Each event carries
        // its exact derived flags (from the candidate source's value), so
        // the speculative check below equals the check of the replayed,
        // materialized child.
        let event = |g: &ExecutionGraph, rf: RfSource| EventKind::Read {
            loc,
            mode,
            rf,
            rmw: rf.event().is_some_and(|src| desc.write_on(g.write_value(src)).is_some()),
            awaiting: desc.is_await(),
        };
        // Viability scan: speculative push → model check → undo.
        let mut viable = std::mem::take(&mut w.viable_sources);
        viable.clear();
        w.phase.set(EnginePhase::Consistency);
        // `⊥` is the potential AT violation: no incoming rf-edge (yet).
        // Sources below the coherence floor are never consistent.
        let sources = g.mo(loc).len() + 1;
        for pos in w.ck.floor(g, t, loc)..sources + usize::from(desc.is_await()) {
            let rf = if pos == sources {
                RfSource::Bottom
            } else {
                RfSource::Write(pos.checked_sub(1).map_or(EventId::Init(loc), |i| g.mo(loc)[i]))
            };
            if desc.is_await() && !rf.is_bottom() && prev_rf == Some(rf) {
                continue; // wasteful repeat (Def. 2) — never generated
            }
            g.push_event(t, event(g, rf));
            w.failpoint("explore.consistency");
            let ok = w.ck.push(g, t);
            w.ck.pop(t);
            g.pop_event(t);
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
                    g.push_event(t, event(g, rf));
                    self.admit(&GraphView::full(g), &mut || alternate(g, t), false, w);
                    g.pop_event(t);
                }
                g.push_event(t, event(g, cont));
                w.ck.push_accepted(g, t);
                true
            }
        };
        w.viable_sources = viable;
        extended
    }

    /// W-step: place the write in mo (all positions at or above the
    /// coherence floor for plain writes; the atomicity-forced slot for RMW
    /// write parts, if not below it), generate backward revisits once per
    /// placement, and continue in place with the last viable placement.
    #[allow(clippy::too_many_arguments)]
    fn chain_write(
        &self,
        g: &mut ExecutionGraph,
        t: ThreadId,
        loc: Loc,
        val: u64,
        mode: Mode,
        rmw: bool,
        w: &mut Worker<'_>,
    ) -> bool {
        let (lo, hi) = if rmw {
            // The write part must land immediately after its read's source.
            let read_id = EventId::new(t, g.thread_len(t) as u32 - 1);
            let src = match g.rf(read_id) {
                RfSource::Write(src) => src,
                RfSource::Bottom => unreachable!("rmw write part with unresolved read"),
            };
            let pos = g.mo_position(src).expect("source in mo");
            (pos, pos)
        } else {
            (0, g.mo(loc).len())
        };
        let positions = lo.max(w.ck.floor(g, t, loc))..=hi;
        if positions.is_empty() {
            return false;
        }
        let mut targets = std::mem::take(&mut w.targets);
        w.phase.set(EnginePhase::Revisit);
        targets.compute(g, t, loc);
        // Pass 1 — per placement: generate its revisit children (even
        // when the placed graph itself is inconsistent: the revisit
        // restriction can remove the inconsistency), check the
        // placement's own viability, undo.
        let mut viable = std::mem::take(&mut w.viable_positions);
        viable.clear();
        for pos in positions {
            let wid = g.push_event(t, EventKind::Write { loc, val, mode, rmw });
            g.insert_mo(loc, wid, pos);
            self.chain_revisits(g, wid, &targets, w);
            w.phase.set(EnginePhase::Consistency);
            w.failpoint("explore.consistency");
            if w.ck.push(g, t) {
                viable.push(pos);
            } else {
                w.stats.inconsistent += 1;
            }
            w.ck.pop(t);
            w.phase.set(EnginePhase::Extend);
            g.remove_mo(loc, pos);
            g.pop_event(t);
        }
        w.targets = targets;
        // Pass 2 — admit every viable placement but the last as an
        // alternate; continue in place with the last. Revisits were all
        // generated in pass 1 and must not be regenerated here.
        let extended = match viable.split_last() {
            None => false,
            Some((&cont, alternates)) => {
                for &pos in alternates {
                    let wid = g.push_event(t, EventKind::Write { loc, val, mode, rmw });
                    g.insert_mo(loc, wid, pos);
                    self.admit(&GraphView::full(g), &mut || alternate(g, t), false, w);
                    g.remove_mo(loc, pos);
                    g.pop_event(t);
                }
                let wid = g.push_event(t, EventKind::Write { loc, val, mode, rmw });
                g.insert_mo(loc, wid, cont);
                w.ck.push_accepted(g, t);
                true
            }
        };
        w.viable_positions = viable;
        extended
    }

    /// Backward revisits of one speculative write placement (`wid` is the
    /// newest event of `g`, `targets` were computed for it): re-point
    /// every target read, restricting the graph to the porf-prefixes of
    /// the write and the read. Each candidate is hashed as a
    /// [`GraphView`] — duplicate orbits are rejected before any graph is
    /// built.
    fn chain_revisits(
        &self,
        g: &ExecutionGraph,
        wid: EventId,
        targets: &RevisitTargets,
        w: &mut Worker<'_>,
    ) {
        w.phase.set(EnginePhase::Revisit);
        w.failpoint("explore.revisit");
        let write = wid.thread().expect("the new write is a regular event");
        for (k, &(r, pending)) in targets.reads.iter().enumerate() {
            let read = r.thread().expect("reads are regular events");
            // What the child's checker inherits: `w.ck` cut back to the
            // kept events minus `wid` (which it has not recorded) and `r`
            // (which changes). `r` is po-maximal among the kept events —
            // a kept po-successor would put it in `wid`'s prefix — and
            // nothing reads from a read, so both are legal pushes on it.
            let child = |mut graph: ExecutionGraph, mut lens: Vec<u32>| {
                graph.set_rf(r, RfSource::Write(wid));
                lens[write as usize] -= 1;
                lens[read as usize] -= 1;
                Candidate { graph, recorded: lens, pending: Pending::Revisit { write, read } }
            };
            if pending {
                // Resolution of a pending await read: no deletion
                // needed, the blocked thread has no successors.
                let view = GraphView::with_rf(g, r, wid);
                self.admit(&view, &mut || child(g.clone(), thread_lens(g)), true, w);
            } else {
                // Standard revisit: keep only the porf-prefixes of the
                // new write and of the read, re-point the read.
                let lens = targets.keep(k);
                let view = GraphView::restricted(g, lens, r, wid);
                self.admit(&view, &mut || child(g.restrict(lens), lens.to_vec()), true, w);
            }
        }
    }

    /// Admit one candidate work item: hash its view, and only if its
    /// orbit was never admitted before, materialize it (normalized to the
    /// orbit representative) into `w.out`, with `w.ck` forked down to the
    /// part of it the chain has recorded. This is what keeps
    /// `constructed` low: duplicates cost a hash probe, not a graph.
    fn admit(
        &self,
        view: &GraphView<'_>,
        materialize: &mut dyn FnMut() -> Candidate,
        revisit: bool,
        w: &mut Worker<'_>,
    ) {
        if revisit {
            w.stats.revisits += 1;
        }
        // Restore the caller's phase on the way out: admit is called from
        // both the Extend scans and the Revisit generator, and the hash
        // probe itself is what `Probe` attributes.
        let caller_phase = w.phase.get();
        w.phase.set(EnginePhase::Probe);
        w.failpoint("explore.dedup");
        let (h, permuted) = w.enc.hash_view(view);
        w.stats.probes += w.enc.take_probes();
        if !w.visit(h) {
            if permuted {
                w.stats.symmetry_pruned += 1;
            } else {
                w.stats.duplicates += 1;
            }
            w.phase.set(caller_phase);
            return;
        }
        let Candidate { graph, recorded, pending } = materialize();
        let child = if permuted {
            // First arrival of its orbit, but not in canonical form:
            // normalize so successor generation (which extends the first
            // ready thread — not a relabeling-invariant choice) stays a
            // function of the orbit. The checker's state follows thread
            // labels, so the relabeled root re-derives its own.
            let perm = w.enc.chosen_perm().expect("permuted hash implies a chosen relabeling");
            WorkItem { graph: graph.permute_threads(perm), inherited: None }
        } else {
            let inherited = Inherited { state: w.ck.fork(&recorded), pending };
            WorkItem { graph, inherited: Some(inherited) }
        };
        w.stats.constructed += 1;
        w.out.push(child);
        w.phase.set(caller_phase);
    }
}

/// A materialized admission candidate: the graph, the per-thread prefixes
/// of it that the admitting chain's checker has recorded, and the events
/// beyond them.
struct Candidate {
    graph: ExecutionGraph,
    recorded: Vec<u32>,
    pending: Pending,
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

fn thread_lens(g: &ExecutionGraph) -> Vec<u32> {
    (0..g.num_threads()).map(|t| g.thread_len(t as ThreadId) as u32).collect()
}

/// The forward alternate `g`, whose newest event — on thread `t` — the
/// scan pushed, accepted and popped off the checker again.
fn alternate(g: &ExecutionGraph, t: ThreadId) -> Candidate {
    let mut recorded = thread_lens(g);
    recorded[t as usize] -= 1;
    Candidate { graph: g.clone(), recorded, pending: Pending::Accepted(t) }
}
