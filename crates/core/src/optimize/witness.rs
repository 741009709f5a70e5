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
    /// Candidates refuted by replay (no exploration paid).
    pub hits: u64,
}

impl WitnessCache {
    pub(crate) fn new(cap: usize) -> Self {
        WitnessCache { items: Vec::new(), cap, hits: 0 }
    }

    /// Cache a violating execution of candidate-set member `program`.
    pub(crate) fn add(&mut self, program: usize, graph: ExecutionGraph) {
        if self.cap == 0 {
            return;
        }
        if self.items.len() >= self.cap {
            self.items.remove(0);
        }
        self.items.push(Witness { program, graph });
    }

    /// Does any cached witness refute the candidate set `progs` (primary
    /// followed by the mode-transferred scenarios)? Witnesses are tried
    /// newest first (they came from the closest assignments), each only
    /// against the member it was recorded for; a hit moves the witness to
    /// most-recently-used.
    pub(crate) fn refutes(&mut self, progs: &[Program], model: &dyn MemoryModel) -> bool {
        let hit = self.items.iter().rposition(|w| {
            progs.get(w.program).is_some_and(|p| witness_refutes(&w.graph, p, model))
        });
        let Some(i) = hit else { return false };
        self.hits += 1;
        self.items[i..].rotate_left(1);
        true
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
    if out.fault().is_some() {
        // Structural mismatch (fence elision, budget): the witness does
        // not apply to this candidate.
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
        out.result.verdict.counterexample().expect("violation must carry a witness").graph.clone()
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

    /// Two message-passing rounds in a row, each with its own flag modes
    /// `(store, poll)`: a violation through round 1 and one through round
    /// 2 are different executions, and each is inconsistent as soon as
    /// *its* round is rel/acq.
    fn mp2(round1: (Mode, Mode), round2: (Mode, Mode)) -> Program {
        const X2: u64 = 0x30;
        const Y2: u64 = 0x40;
        let mut pb = ProgramBuilder::new("mp2");
        pb.thread(move |t| {
            t.store(X, 1u64, ("data1.store", Mode::Rlx));
            t.store(Y, 1u64, ("flag1.store", round1.0));
            t.store(X2, 1u64, ("data2.store", Mode::Rlx));
            t.store(Y2, 1u64, ("flag2.store", round2.0));
        });
        pb.thread(move |t| {
            t.await_eq(Reg(0), Y, 1u64, ("flag1.poll", round1.1));
            t.load(Reg(1), X, ("data1.load", Mode::Rlx));
            t.assert_eq(Reg(1), 1u64, "data1 visible");
            t.await_eq(Reg(2), Y2, 1u64, ("flag2.poll", round2.1));
            t.load(Reg(3), X2, ("data2.load", Mode::Rlx));
            t.assert_eq(Reg(3), 1u64, "data2 visible");
        });
        pb.build().unwrap()
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

        let (ok, bad) = ((Mode::Rel, Mode::Acq), (Mode::Rlx, Mode::Rlx));
        let (only1, only2, both) = (mp2(bad, ok), mp2(ok, bad), mp2(bad, bad));
        let (w1, w2) = (witness_of(&only1), witness_of(&only2));
        assert!(witness_refutes(&w1, &only1, model()) && !witness_refutes(&w1, &only2, model()));
        assert!(witness_refutes(&w2, &only2, model()) && !witness_refutes(&w2, &only1, model()));
        let order = |c: &WitnessCache| c.items.iter().map(|w| w.graph.clone()).collect::<Vec<_>>();

        // Newest first: both witnesses refute `both`; had the older one
        // been tried first, the hit would have moved it to the back.
        let mut cache = WitnessCache::new(2);
        cache.add(0, w1.clone());
        cache.add(0, w2.clone());
        assert!(cache.refutes(std::slice::from_ref(&both), model()));
        assert_eq!(order(&cache), [w1.clone(), w2.clone()]);

        // A hit is a use: w1 becomes most-recently-used, so the insert at
        // capacity evicts w2 instead.
        assert!(cache.refutes(std::slice::from_ref(&only1), model()));
        assert_eq!(order(&cache), [w2.clone(), w1.clone()]);
        cache.add(0, witness_of(&both));
        assert_eq!(cache.items.len(), 2);
        assert_eq!(cache.items[0].graph, w1, "the unused witness was evicted");
        assert_eq!(cache.hits, 2);

        // A witness recorded for candidate-set member 1 is replayed
        // against member 1 only — never against member 0, which it would
        // refute just as well.
        let verified = mp2(ok, ok);
        let mut cache = WitnessCache::new(2);
        cache.add(1, w1);
        assert!(!cache.refutes(std::slice::from_ref(&only1), model()));
        assert!(!cache.refutes(&[only1.clone(), verified.clone()], model()));
        assert_eq!(cache.hits, 0);
        assert!(cache.refutes(&[verified, only1], model()));
        assert_eq!(cache.hits, 1);
    }
}
