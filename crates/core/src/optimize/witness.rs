//! The failure-witness cache: refute candidates by replaying cached
//! violating executions instead of exploring from scratch.
//!
//! When a candidate assignment fails verification, the explorer hands back
//! the violating execution graph. That graph's *structure* (events,
//! values, `rf`, `mo`) is mode-independent — only the barrier annotations
//! on its events come from the assignment — so it can be re-interpreted
//! under any other assignment of the same program by rewriting the event
//! modes ([`vsync_lang::replay_adopt_modes`]) and re-running the cheap
//! per-graph checks:
//!
//! 1. the replay must reproduce the graph (structural mismatch — e.g. a
//!    fence elided by relaxation — makes the witness *inapplicable*, never
//!    wrong);
//! 2. the re-moded graph must still be consistent with the memory model
//!    (one from-scratch [`ChainChecker::reset`](vsync_model::ChainChecker::reset));
//! 3. the violation must still hold: an error event, a failed final-state
//!    check, or a stagnant blocked graph re-established by the stagnancy
//!    analysis.
//!
//! When all three hold the witness is a genuine consistent violating
//! execution *of the candidate*, so the candidate is refuted without any
//! exploration — soundly, with no appeal to monotonicity. In practice the
//! hits come exactly where monotonicity predicts: weakening modes only
//! removes ordering edges, so a violation cached from one assignment
//! almost always survives re-moding to a weaker-or-equal one (DESIGN.md
//! §7.2) — which is what makes repeated rejections across passes (the
//! sequential loop's fixpoint tax) nearly free.

use vsync_graph::ExecutionGraph;
use vsync_lang::{replay_adopt_modes, BlockedAwait, Program};
use vsync_model::MemoryModel;

use crate::explorer::failed_final_check;
use crate::stagnancy::is_stagnant;

/// One cached violating execution.
struct Witness {
    /// Stable identity, for lock-free probing ([`WitnessCache::snapshot`]
    /// / [`WitnessCache::note_hit`]).
    id: u64,
    /// Index into the candidate set: 0 = primary, `1 + i` = scenario `i`.
    /// A witness only ever replays against the program it came from.
    program: usize,
    graph: ExecutionGraph,
}

/// Bounded store of failure witnesses with LRU-ish eviction: hits move to
/// the back, inserts evict the front.
pub(crate) struct WitnessCache {
    items: Vec<Witness>,
    cap: usize,
    next_id: u64,
    /// Candidates refuted by replay (no exploration paid).
    pub hits: u64,
}

impl WitnessCache {
    pub(crate) fn new(cap: usize) -> Self {
        WitnessCache { items: Vec::new(), cap, next_id: 0, hits: 0 }
    }

    /// Cache a violating execution of candidate-set member `program`.
    pub(crate) fn add(&mut self, program: usize, graph: ExecutionGraph) {
        if self.cap == 0 {
            return;
        }
        if self.items.len() >= self.cap {
            self.items.remove(0);
        }
        self.items.push(Witness { id: self.next_id, program, graph });
        self.next_id += 1;
    }

    /// Snapshot the cache for lock-free probing, newest witnesses first
    /// (they came from the closest assignments). Graph clones are cheap —
    /// event storage is copy-on-write — so the caller can replay them
    /// without holding the cache lock.
    pub(crate) fn snapshot(&self) -> Vec<(u64, usize, ExecutionGraph)> {
        self.items.iter().rev().map(|w| (w.id, w.program, w.graph.clone())).collect()
    }

    /// Account a refutation established from a [`snapshot`](Self::snapshot)
    /// entry: bump the hit counter and move the witness (if it has not
    /// been evicted meanwhile) to most-recently-used.
    pub(crate) fn note_hit(&mut self, id: u64) {
        self.hits += 1;
        if let Some(i) = self.items.iter().position(|w| w.id == id) {
            let w = self.items.remove(i);
            self.items.push(w);
        }
    }

    /// Does any cached witness refute the candidate set `progs` (primary
    /// followed by the mode-transferred scenarios)? A hit bumps the
    /// witness to most-recently-used. (Single-threaded probe — the
    /// engine's concurrent path snapshots instead.)
    #[cfg(test)]
    pub(crate) fn refutes(&mut self, progs: &[Program], model: &dyn MemoryModel) -> bool {
        for (id, program, graph) in self.snapshot() {
            let Some(p) = progs.get(program) else { continue };
            if witness_refutes(&graph, p, model) {
                self.note_hit(id);
                return true;
            }
        }
        false
    }
}

/// Re-validate one cached witness against a candidate program: replay with
/// mode adoption, re-check consistency, re-check the violation.
pub(crate) fn witness_refutes(
    graph: &ExecutionGraph,
    prog: &Program,
    model: &dyn MemoryModel,
) -> bool {
    let mut g = graph.clone();
    let out = replay_adopt_modes(prog, &mut g);
    if out.fault().is_some() || out.wasteful {
        // Structural mismatch (fence elision, budget) or a wasteful
        // repeat: the witness does not apply to this candidate.
        return false;
    }
    let mut checker = model.chain_checker();
    if !checker.reset(&g) {
        return false;
    }
    if out.errored() {
        // A consistent execution with a failed assertion refutes the
        // candidate outright (partial graphs included — the explorer's
        // own counterexample criterion).
        return true;
    }
    if out.ready_threads().next().is_some() {
        // Partial non-errored graph: nothing to re-confirm.
        return false;
    }
    let blocked: Vec<&BlockedAwait> = out.blocked().collect();
    if blocked.is_empty() {
        failed_final_check(prog, &g).is_some()
    } else {
        is_stagnant(&mut g, &blocked, &mut *checker)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explorer::explore_oracle;
    use crate::session::RunControl;
    use crate::verdict::AmcConfig;
    use vsync_graph::Mode;
    use vsync_lang::{ProgramBuilder, Reg};
    use vsync_model::{CheckerKind, ModelKind};

    const X: u64 = 0x10;
    const Y: u64 = 0x20;

    /// Message passing with parameterized flag modes.
    fn mp(wm: Mode, rm: Mode) -> Program {
        let mut pb = ProgramBuilder::new("mp");
        pb.thread(move |t| {
            t.store(X, 1u64, ("data.store", Mode::Rlx));
            t.store(Y, 1u64, ("flag.store", wm));
        });
        pb.thread(move |t| {
            t.await_eq(Reg(0), Y, 1u64, ("flag.poll", rm));
            t.load(Reg(1), X, ("data.load", Mode::Rlx));
            t.assert_eq(Reg(1), 1u64, "data visible");
        });
        pb.build().unwrap()
    }

    fn model() -> &'static dyn MemoryModel {
        ModelKind::Vmm.checker(CheckerKind::Fast)
    }

    fn witness_of(p: &Program) -> ExecutionGraph {
        let out = explore_oracle(p, &AmcConfig::with_model(ModelKind::Vmm), &RunControl::default());
        assert!(!out.ok);
        out.witness.expect("violation must carry a witness")
    }

    #[test]
    fn witness_refutes_equal_and_weaker_assignments() {
        // rlx/rlx MP violates; its witness refutes rlx/rlx trivially...
        let broken = mp(Mode::Rlx, Mode::Rlx);
        let w = witness_of(&broken);
        assert!(witness_refutes(&w, &broken, model()));
        // ...and a witness from rel/rlx (already violating) still refutes
        // the weaker rlx/rlx candidate after mode adoption.
        let half = mp(Mode::Rel, Mode::Rlx);
        let w_half = witness_of(&half);
        assert!(witness_refutes(&w_half, &broken, model()));
    }

    #[test]
    fn witness_does_not_refute_the_verified_assignment() {
        // A violating execution re-moded to rel/acq becomes inconsistent
        // (the hb edge forbids the stale read): no refutation.
        let broken = mp(Mode::Rlx, Mode::Rlx);
        let w = witness_of(&broken);
        assert!(!witness_refutes(&w, &mp(Mode::Rel, Mode::Acq), model()));
    }

    #[test]
    fn at_violation_witness_replays() {
        // Await on a value nobody writes: stagnant blocked graph.
        let mut pb = ProgramBuilder::new("lonely");
        pb.thread(|t| {
            t.await_eq(Reg(0), X, 1u64, ("poll", Mode::Rlx));
        });
        let p = pb.build().unwrap();
        let w = witness_of(&p);
        assert!(witness_refutes(&w, &p, model()));
        // The same program polling with acquire: the witness re-modes and
        // still proves stagnancy (mode does not create the missing write).
        let mut pb = ProgramBuilder::new("lonely");
        pb.thread(|t| {
            t.await_eq(Reg(0), X, 1u64, ("poll", Mode::Acq));
        });
        let p_acq = pb.build().unwrap();
        assert!(witness_refutes(&w, &p_acq, model()));
    }

    #[test]
    fn fence_elision_makes_a_witness_inapplicable_not_wrong() {
        // A program whose only sync is an SC fence pair; witness graphs
        // recorded with the fences present cannot replay against the
        // fence-relaxed candidate (structural mismatch).
        let fenced = |fm: Mode| {
            let mut pb = ProgramBuilder::new("fences");
            pb.thread(move |t| {
                t.store(X, 1u64, ("data", Mode::Rlx));
                t.fence(("fence.w", fm));
                t.store(Y, 1u64, ("flag", Mode::Rlx));
            });
            pb.thread(move |t| {
                t.await_eq(Reg(0), Y, 1u64, ("poll", Mode::Rlx));
                t.fence(("fence.r", fm));
                t.load(Reg(1), X, ("data.load", Mode::Rlx));
                t.assert_eq(Reg(1), 2u64, "always fails");
            });
            pb.build().unwrap()
        };
        let w = witness_of(&fenced(Mode::Sc));
        // Same structure, fences intact: applies.
        assert!(witness_refutes(&w, &fenced(Mode::AcqRel), model()));
        // Fences relaxed away: the graph has fence events the candidate
        // never generates — inapplicable.
        assert!(!witness_refutes(&w, &fenced(Mode::Rlx), model()));
    }

    #[test]
    fn cache_is_bounded_and_counts_hits() {
        let broken = mp(Mode::Rlx, Mode::Rlx);
        let w = witness_of(&broken);
        let mut cache = WitnessCache::new(2);
        cache.add(0, w.clone());
        cache.add(0, w.clone());
        cache.add(0, w);
        assert_eq!(cache.items.len(), 2, "capacity enforced");
        assert!(cache.refutes(std::slice::from_ref(&broken), model()));
        assert_eq!(cache.hits, 1);
        assert!(!cache.refutes(std::slice::from_ref(&mp(Mode::Rel, Mode::Acq)), model()));
        assert_eq!(cache.hits, 1);
    }
}
