//! Sequential consistency: the shared axioms plus
//! `acyclic(po ∪ rf ∪ mo ∪ fr)`.

use std::sync::OnceLock;

use vsync_graph::ExecutionGraph;

use crate::axioms::{atomicity, coherence, fr, mo, po, rf, Axiom};
use crate::chain::ChainChecker;
use crate::order::{OrderChecker, SC};
use crate::MemoryModel;

/// The sequentially consistent memory model: all executions must be
/// explainable by an interleaving; barrier modes are irrelevant.
///
/// Used as the reference model: the paper's "sc-only" lock variants are
/// correct exactly when they verify under [`Sc`], and any bug found under
/// [`crate::Vmm`] but not under [`Sc`] is a weak-memory bug.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sc;

impl MemoryModel for Sc {
    fn name(&self) -> &'static str {
        "SC"
    }

    fn is_consistent(&self, g: &ExecutionGraph) -> bool {
        OrderChecker::new(SC).reset(g)
    }

    fn chain_checker(&self) -> Box<dyn ChainChecker> {
        Box::new(OrderChecker::new(SC))
    }

    fn axioms(&self) -> &'static [Axiom] {
        static AXIOMS: OnceLock<Vec<Axiom>> = OnceLock::new();
        AXIOMS.get_or_init(|| {
            vec![coherence(), atomicity(), Axiom::Acyclic("sc", po() | rf() | mo() | fr())]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use vsync_graph::{EventId, EventKind, Mode, RfSource};

    fn w(loc: u64, val: u64) -> EventKind {
        EventKind::Write { loc, val, mode: Mode::Rlx, rmw: false }
    }

    fn r(loc: u64, rf: RfSource) -> EventKind {
        EventKind::Read { loc, mode: Mode::Rlx, rf, rmw: false, awaiting: false }
    }

    /// Every Sc test asserts both formulations: they must agree.
    fn consistent(g: &ExecutionGraph) -> bool {
        let fast = Sc.is_consistent(g);
        let naive = Sc.is_consistent_reference(g);
        assert_eq!(fast, naive, "checker/reference divergence on:\n{}", g.render());
        fast
    }

    /// Store buffering: T0: W(x,1); R(y)=0 | T1: W(y,1); R(x)=0.
    /// Forbidden under SC.
    fn store_buffering() -> ExecutionGraph {
        let (x, y) = (1, 2);
        let mut g = ExecutionGraph::new(2, BTreeMap::new());
        let wx = g.push_event(0, w(x, 1));
        g.insert_mo(x, wx, 0);
        g.push_event(0, r(y, RfSource::Write(EventId::Init(y))));
        let wy = g.push_event(1, w(y, 1));
        g.insert_mo(y, wy, 0);
        g.push_event(1, r(x, RfSource::Write(EventId::Init(x))));
        g
    }

    #[test]
    fn sb_both_zero_forbidden() {
        assert!(!consistent(&store_buffering()));
    }

    #[test]
    fn sb_one_observation_allowed() {
        // T1 reads x = 1 instead: consistent interleaving exists.
        let mut g = store_buffering();
        g.set_rf(EventId::new(1, 1), RfSource::Write(EventId::new(0, 0)));
        assert!(consistent(&g));
    }

    #[test]
    fn message_passing_stale_read_forbidden() {
        // T0: W(d,1); W(f,1) | T1: R(f)=1; R(d)=0 — forbidden under SC.
        let (d, f) = (1, 2);
        let mut g = ExecutionGraph::new(2, BTreeMap::new());
        let wd = g.push_event(0, w(d, 1));
        g.insert_mo(d, wd, 0);
        let wf = g.push_event(0, w(f, 1));
        g.insert_mo(f, wf, 0);
        g.push_event(1, r(f, RfSource::Write(wf)));
        g.push_event(1, r(d, RfSource::Write(EventId::Init(d))));
        assert!(!consistent(&g));
    }
}
