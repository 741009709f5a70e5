//! The reference oracle: AMC as naive enumerate-and-dedup (paper Fig. 6,
//! literally).
//!
//! [`explore`] is what the production search ([`crate::explore`]) is
//! differentially tested against. A LIFO stack holds partial execution
//! graphs; each step pops one, replays the program against it, discards it
//! if its content was seen before, is wasteful (`W(G)`) or is inconsistent
//! with the memory model, and otherwise clones one child per extension of
//! the first runnable thread:
//!
//! * **reads** branch over every same-location write already in the graph
//!   (plus the missing-edge `⊥` option for await reads);
//! * **writes** branch over their modification-order placement and
//!   *revisit* existing reads of the same location (restricting the graph
//!   to the `porf`-prefixes of the write and the revisited read);
//! * when no thread is runnable, the graph is either a complete execution
//!   (check assertions and final-state predicates) or blocked; blocked
//!   graphs go to the stagnancy analysis.
//!
//! Duplicates are discarded *after* construction, by canonical content
//! hash (modulo thread symmetry when [`AmcConfig::symmetry`] is on, with
//! first arrivals normalized to the orbit representative): the scheduler
//! is deterministic and revisit restrictions are content-determined, so
//! two items with equal content have identical futures. The hash and the
//! representative come from [`Canonicalizer`], the encoder the production
//! search probes with, so both searches name every orbit by the same
//! graph and their collected execution sets can be compared directly.
//!
//! The oracle is sequential and un-instrumented by design. It honours
//! [`AmcConfig::max_graphs`] and nothing else of the run-time machinery —
//! no workers, no cancellation, no resource budgets, no phase profiling,
//! no fault injection, no panic isolation — and shares no driver code with
//! the production search. What the two have in common is the layer below
//! the search (execution graphs and their canonical encoding, replay, the
//! consistency checkers, the stagnancy analysis) and two pure helpers,
//! `failed_final_check` and [`thread_floor`] — only the thread's own
//! accesses bound its read candidates, where the production search starts
//! at its checker's (possibly higher) [`ChainChecker::floor`], and it
//! generates revisits from every placement. Of that layer it uses the
//! from-scratch entry points only — [`vsync_lang::replay_with_budget`] and
//! [`ChainChecker::reset`] per popped graph, never `ChainReplay::advance`
//! or a forked checker — so the differential tests hold the production
//! search's carried interpreter and inherited checker states to an oracle
//! that has neither.

use std::collections::HashSet;

use vsync_graph::{
    Canonicalizer, EventId, EventKind, ExecutionGraph, GraphView, Loc, Mode, RfSource, ThreadId,
};
use vsync_lang::{PendingOp, Program, ReadDesc, ThreadStatus};
use vsync_model::chain::thread_floor;
use vsync_model::ChainChecker;

use crate::explorer::failed_final_check;
use crate::stagnancy::is_stagnant;
use crate::verdict::{
    AmcConfig, AmcResult, Counterexample, ExploreStats, Inconclusive, StopReason, Verdict,
};

/// Explore `prog` with the enumerate-and-dedup reference search.
///
/// Verdicts, `complete_executions`, `blocked_graphs` and counterexample
/// messages equal the production search's; the work counters (`popped`,
/// `constructed`, `duplicates`, ...) describe this algorithm, which
/// constructs every candidate it pushes. `stats.phases` is always empty.
pub fn explore(prog: &Program, config: &AmcConfig) -> AmcResult {
    // Validate first: only a well-formed program has a partition to ask for.
    if let Err(e) = prog.validate() {
        let verdict = Verdict::Fault(format!("malformed program: {e}"));
        return AmcResult { verdict, stats: ExploreStats::default(), executions: Vec::new() };
    }
    let mut search = Search {
        prog,
        config,
        checker: config.model.checker(config.checker).chain_checker(),
        canon: Canonicalizer::new(config.symmetry.then(|| prog.symmetry_partition()).as_ref()),
        seen: HashSet::new(),
        stack: Vec::new(),
        stats: ExploreStats::default(),
        executions: Vec::new(),
    };
    let verdict = search.run();
    AmcResult { verdict, stats: search.stats, executions: search.executions }
}

struct Search<'p> {
    prog: &'p Program,
    config: &'p AmcConfig,
    /// Asked from scratch (`reset`) for every popped graph; the stagnancy
    /// analysis then steps it through the blocked reads' resolutions.
    checker: Box<dyn ChainChecker>,
    /// The graph encoder the production search runs too; modulo the
    /// program's thread symmetry when [`AmcConfig::symmetry`] is on.
    canon: Canonicalizer,
    seen: HashSet<u128>,
    stack: Vec<ExecutionGraph>,
    stats: ExploreStats,
    executions: Vec<ExecutionGraph>,
}

impl Search<'_> {
    fn run(&mut self) -> Verdict {
        self.stack.push(ExecutionGraph::new(self.prog.num_threads(), self.prog.init().clone()));
        self.stats.constructed = 1;
        while let Some(g) = self.stack.pop() {
            self.stats.popped += 1;
            if self.config.max_graphs != 0 && self.stats.popped > self.config.max_graphs {
                self.stats.frontier_dropped = self.stack.len() as u64;
                return Verdict::Inconclusive(Inconclusive {
                    reason: StopReason::MaxGraphs,
                    explored: self.stats.popped,
                    frontier_dropped: self.stats.frontier_dropped,
                });
            }
            if let Some(v) = self.process(g) {
                return v;
            }
        }
        Verdict::Verified
    }

    /// Process one popped work item, pushing its children. A `Some`
    /// return is a terminal verdict that ends the exploration.
    fn process(&mut self, mut g: ExecutionGraph) -> Option<Verdict> {
        // Replay first: it repairs derived read flags, which the
        // consistency check depends on.
        let mut out = vsync_lang::replay_with_budget(self.prog, &mut g, self.config.step_budget);
        if let Some(f) = out.fault() {
            return Some(Verdict::Fault(f.to_owned()));
        }
        self.stats.events += g.num_events() as u64;
        let (hash, permuted) = self.canon.hash_view(&GraphView::full(&g));
        self.stats.probes += self.canon.take_probes();
        if !self.seen.insert(hash) {
            // An orbit twin (or the very content) was already admitted
            // and covers this item's futures up to relabeling.
            if permuted {
                self.stats.symmetry_pruned += 1;
            } else {
                self.stats.duplicates += 1;
            }
            return None;
        }
        if permuted {
            // First arrival of its orbit, but not in canonical form:
            // normalize to the representative so successor generation
            // (which picks the first ready thread — not a
            // relabeling-invariant choice) is a function of the orbit.
            let perm = self.canon.chosen_perm().expect("permuted hash implies a chosen relabeling");
            g = g.permute_threads(perm);
            out = vsync_lang::replay_with_budget(self.prog, &mut g, self.config.step_budget);
            if let Some(f) = out.fault() {
                return Some(Verdict::Fault(f.to_owned()));
            }
        }
        if out.wasteful {
            self.stats.wasteful += 1;
            return None;
        }
        if !self.checker.reset(&g) {
            self.stats.inconsistent += 1;
            return None;
        }
        if out.errored() {
            let (_, msg) = g.error().expect("errored replay has an error event");
            let message = format!("assertion failed: {msg}");
            return Some(Verdict::Safety(Counterexample { graph: g, message }));
        }
        if let Some(t) = out.ready_threads().next() {
            let ThreadStatus::Ready(op) = &out.threads[t as usize] else { unreachable!() };
            return self.extend(&g, t, op).err();
        }
        let blocked: Vec<_> = out.blocked().collect();
        if blocked.is_empty() {
            self.stats.complete_executions += 1;
            if let Some(message) = failed_final_check(self.prog, &g) {
                return Some(Verdict::Safety(Counterexample { graph: g, message }));
            }
            if self.config.collect_executions {
                self.executions.push(g);
            }
        } else {
            self.stats.blocked_graphs += 1;
            if is_stagnant(&mut g, &blocked, &mut *self.checker) {
                let polls: Vec<String> =
                    blocked.iter().map(|b| format!("{}@{:#x}", b.read, b.loc)).collect();
                let message = format!(
                    "await never terminates: blocked read(s) {} cannot \
                     observe any new write",
                    polls.join(", ")
                );
                return Some(Verdict::AwaitTermination(Counterexample { graph: g, message }));
            }
            // Non-stagnant blocked graphs are exploration artifacts;
            // their real continuations are siblings.
        }
        None
    }

    fn push(&mut self, g: ExecutionGraph) {
        self.stats.pushed += 1;
        self.stats.constructed += 1;
        self.stack.push(g);
    }

    /// Generate all successor graphs for thread `t`'s pending op.
    fn extend(&mut self, g: &ExecutionGraph, t: ThreadId, op: &PendingOp) -> Result<(), Verdict> {
        if g.thread_len(t) >= self.config.max_events_per_thread {
            return Err(Verdict::Fault(format!(
                "thread {t} exceeded {} events — unbounded non-await loop? \
                 (Bounded-Length principle)",
                self.config.max_events_per_thread
            )));
        }
        match op {
            PendingOp::Fence { mode } => {
                let mut g2 = g.clone();
                g2.push_event(t, EventKind::Fence { mode: *mode });
                self.push(g2);
            }
            PendingOp::Error { msg } => {
                let mut g2 = g.clone();
                g2.push_event(t, EventKind::Error { msg: msg.clone() });
                self.push(g2);
            }
            PendingOp::Read { loc, mode, desc, prev_rf } => {
                self.extend_read(g, t, *loc, *mode, *desc, *prev_rf);
            }
            PendingOp::Write { loc, val, mode, rmw } => {
                self.extend_write(g, t, *loc, *val, *mode, *rmw);
            }
        }
        Ok(())
    }

    /// R-step of Fig. 6: branch over every rf candidate, plus `⊥` for
    /// await reads.
    fn extend_read(
        &mut self,
        g: &ExecutionGraph,
        t: ThreadId,
        loc: Loc,
        mode: Mode,
        desc: ReadDesc,
        prev_rf: Option<RfSource>,
    ) {
        let min_pos = thread_floor(g, t, loc);
        let mut candidates: Vec<EventId> = vec![EventId::Init(loc)];
        candidates.extend(g.mo(loc).iter().copied());
        for (pos, w) in candidates.into_iter().enumerate() {
            if pos < min_pos {
                continue; // per-location coherence rules this source out
            }
            if desc.is_await() && prev_rf == Some(RfSource::Write(w)) {
                continue; // wasteful repeat (Def. 2) — never generated
            }
            let writes = desc.write_on(g.write_value(w)).is_some();
            // NOTE: two RMW reads may transiently share a source; the
            // conflict is resolved when one commits its write part and
            // revisits the other (or the graph dies at the atomicity
            // check). Pruning shared sources here would lose executions.
            let mut g2 = g.clone();
            g2.push_event(
                t,
                EventKind::Read {
                    loc,
                    mode,
                    rf: RfSource::Write(w),
                    rmw: writes,
                    awaiting: desc.is_await(),
                },
            );
            self.push(g2);
        }
        if desc.is_await() {
            // The potential AT violation: no incoming rf-edge (yet).
            let mut g2 = g.clone();
            g2.push_event(
                t,
                EventKind::Read { loc, mode, rf: RfSource::Bottom, rmw: false, awaiting: true },
            );
            self.push(g2);
        }
    }

    /// W-step of Fig. 6: place the write in mo (all positions for plain
    /// writes; the atomicity-forced slot for RMW write parts), then compute
    /// revisits.
    fn extend_write(
        &mut self,
        g: &ExecutionGraph,
        t: ThreadId,
        loc: Loc,
        val: u64,
        mode: Mode,
        rmw: bool,
    ) {
        let positions: Vec<usize> = if rmw {
            // The write part must land immediately after its read's source.
            let read_id = EventId::new(t, g.thread_len(t) as u32 - 1);
            let src = match g.rf(read_id) {
                RfSource::Write(w) => w,
                RfSource::Bottom => unreachable!("rmw write part with unresolved read"),
            };
            let pos = match src {
                EventId::Init(_) => 0,
                _ => g.mo(loc).iter().position(|x| *x == src).expect("source in mo") + 1,
            };
            vec![pos]
        } else {
            (0..=g.mo(loc).len()).collect()
        };
        for pos in positions {
            let mut g2 = g.clone();
            let wid = g2.push_event(t, EventKind::Write { loc, val, mode, rmw });
            g2.insert_mo(loc, wid, pos);
            // Revisits from this placed variant.
            for (r, rloc, rf) in g2.reads().collect::<Vec<_>>() {
                let EventId::Event { thread, index } = r else { unreachable!("reads are regular") };
                if rloc != loc || g2.porf_clock(wid)[thread as usize] > index {
                    continue; // another location, or in the write's porf-prefix
                }
                match rf {
                    RfSource::Bottom => {
                        // Resolution of a pending await read: no deletion
                        // needed, the blocked thread has no successors.
                        let mut g3 = g2.clone();
                        g3.set_rf(r, RfSource::Write(wid));
                        self.stats.revisits += 1;
                        self.push(g3);
                    }
                    RfSource::Write(old) if old != wid => {
                        // Standard revisit: keep only the porf-prefixes of
                        // the new write and of the read, re-point the read.
                        let mut g3 = g2.restrict(&g2.porf_join([wid, r]));
                        g3.set_rf(r, RfSource::Write(wid));
                        self.stats.revisits += 1;
                        self.push(g3);
                    }
                    RfSource::Write(_) => {}
                }
            }
            self.push(g2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsync_lang::{ProgramBuilder, Reg, Test};
    use vsync_model::ModelKind;

    const X: Loc = 0x10;
    const Y: Loc = 0x20;

    fn sb_program() -> Program {
        let mut pb = ProgramBuilder::new("sb");
        for (a, b) in [(X, Y), (Y, X)] {
            pb.thread(move |t| {
                t.store(a, 1u64, Mode::Rlx);
                t.load(Reg(0), b, Mode::Rlx);
            });
        }
        pb.build().unwrap()
    }

    /// The oracle reproduces the textbook SB counts on its own, and the
    /// production search agrees with it.
    #[test]
    fn sb_counts_match_the_textbook_and_the_production_search() {
        for (model, expected) in [(ModelKind::Sc, 3), (ModelKind::Tso, 4), (ModelKind::Vmm, 4)] {
            let cfg = AmcConfig::with_model(model);
            let r = explore(&sb_program(), &cfg);
            assert!(r.is_verified(), "{model}: {}", r.verdict);
            assert_eq!(r.stats.complete_executions, expected, "{model}");
            assert_eq!(r.stats.constructed, r.stats.pushed + 1, "{model}: one graph per push");
            assert!(r.stats.phases.is_empty(), "{model}: the oracle is un-instrumented");
            assert_eq!(crate::explore(&sb_program(), &cfg).stats.complete_executions, expected);
        }
    }

    /// Two symmetric fetch-adds: one orbit with symmetry, two
    /// interleavings without, and the lost-update check holds in both.
    #[test]
    fn symmetry_quotients_the_count() {
        let mut pb = ProgramBuilder::new("fai");
        for _ in 0..2 {
            pb.thread(|t| {
                t.fetch_add(Reg(0), X, 1u64, Mode::Rlx);
            });
        }
        pb.final_check(X, Test::eq(2u64), "no lost increment");
        let p = pb.build().unwrap();
        let on = explore(&p, &AmcConfig::default());
        let off = explore(&p, &AmcConfig::default().without_symmetry());
        assert!(on.is_verified() && off.is_verified());
        assert_eq!(on.stats.complete_executions, 1);
        assert_eq!(off.stats.complete_executions, 2);
    }

    #[test]
    fn max_graphs_degrades_to_inconclusive() {
        let r = explore(&sb_program(), &AmcConfig::default().with_max_graphs(2));
        let Verdict::Inconclusive(i) = r.verdict else {
            panic!("expected inconclusive, got {}", r.verdict)
        };
        assert_eq!(i.reason, StopReason::MaxGraphs);
        assert_eq!(i.explored, 3);
        assert_eq!(r.stats.frontier_dropped, i.frontier_dropped);
    }

    #[test]
    fn violations_carry_a_witness() {
        let mut pb = ProgramBuilder::new("lonely");
        pb.thread(|t| {
            t.await_eq(Reg(0), X, 1u64, Mode::Rlx);
        });
        let v = explore(&pb.build().unwrap(), &AmcConfig::default()).verdict;
        assert!(matches!(v, Verdict::AwaitTermination(_)), "got {v}");
    }
}
