//! Total store order (x86-style): the shared axioms plus
//! `acyclic(ppo ∪ rfe ∪ mo ∪ fr)`.

use std::sync::OnceLock;

use vsync_graph::ExecutionGraph;

use crate::axioms::{atomicity, coherence, ext, fr, id, mo, po, rf, Axiom, Set};
use crate::chain::ChainChecker;
use crate::order::{OrderChecker, TSO};
use crate::MemoryModel;

/// The TSO memory model in the style of x86-TSO: `ppo` drops the
/// write → read pairs a store buffer reorders, and only *external*
/// reads-from edges constrain the global order (a thread may read its own
/// buffered store early).
///
/// Barrier modes other than SC fences are ignored: every x86 load already
/// has acquire semantics and every store release semantics, which is why the
/// paper's x86 speedups come almost exclusively from eliminating SC
/// fences/accesses (§4.2.2).
#[derive(Debug, Clone, Copy, Default)]
pub struct Tso;

impl MemoryModel for Tso {
    fn name(&self) -> &'static str {
        "TSO"
    }

    fn is_consistent(&self, g: &ExecutionGraph) -> bool {
        OrderChecker::new(TSO).reset(g)
    }

    fn chain_checker(&self) -> Box<dyn ChainChecker> {
        Box::new(OrderChecker::new(TSO))
    }

    fn axioms(&self) -> &'static [Axiom] {
        static AXIOMS: OnceLock<Vec<Axiom>> = OnceLock::new();
        AXIOMS.get_or_init(|| {
            let po = po();
            let (fences, locked) = (id(Set::F), id(Set::Rmw));
            // A fence weaker than `mfence` is no x86 instruction, so no event of `ppo`.
            let nop = fences.clone() - id(Set::Sc);
            // W → R stays ordered across an `mfence` or a locked RMW, or if an end is locked.
            let drains = (fences & id(Set::Sc)) | locked.clone();
            let buffered = (id(Set::W) - locked.clone()).seq(&po).seq(&(id(Set::R) - locked))
                - po.seq(&drains).seq(&po);
            let ppo = po.clone() - nop.seq(&po) - po.seq(&nop) - buffered;
            vec![
                coherence(),
                atomicity(),
                Axiom::Acyclic("tso", ppo | (rf() & ext()) | mo() | fr()),
            ]
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

    /// Every Tso test asserts both formulations: they must agree.
    fn consistent(g: &ExecutionGraph) -> bool {
        let fast = Tso.is_consistent(g);
        let naive = Tso.is_consistent_reference(g);
        assert_eq!(fast, naive, "checker/reference divergence on:\n{}", g.render());
        fast
    }

    /// SB with both threads reading 0, `fence` between each store and load.
    fn store_buffering(fence: Option<Mode>) -> ExecutionGraph {
        let (x, y) = (1, 2);
        let mut g = ExecutionGraph::new(2, BTreeMap::new());
        let wx = g.push_event(0, w(x, 1));
        g.insert_mo(x, wx, 0);
        if let Some(mode) = fence {
            g.push_event(0, EventKind::Fence { mode });
        }
        g.push_event(0, r(y, RfSource::Write(EventId::Init(y))));
        let wy = g.push_event(1, w(y, 1));
        g.insert_mo(y, wy, 0);
        if let Some(mode) = fence {
            g.push_event(1, EventKind::Fence { mode });
        }
        g.push_event(1, r(x, RfSource::Write(EventId::Init(x))));
        g
    }

    #[test]
    fn sb_allowed_without_fences() {
        // The hallmark TSO relaxation: both threads read 0.
        assert!(consistent(&store_buffering(None)));
    }

    #[test]
    fn sb_forbidden_with_mfence() {
        assert!(!consistent(&store_buffering(Some(Mode::Sc))));
    }

    /// Only an `mfence` drains the store buffer: a weaker fence compiles
    /// to nothing on x86 and must not order the store with the load.
    #[test]
    fn sb_allowed_with_weaker_fences() {
        for mode in [Mode::Acq, Mode::Rel, Mode::AcqRel, Mode::Rlx] {
            assert!(consistent(&store_buffering(Some(mode))), "fence.{}", mode.short_name());
        }
    }

    #[test]
    fn message_passing_stale_read_forbidden() {
        // TSO preserves W->W and R->R order: MP is forbidden.
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

    /// Per-location coherence is an axiom of its own: the global order
    /// has no `po` edge from a write to a later read of the same thread.
    #[test]
    fn coherence_violations_forbidden() {
        let x = 1;
        // CoRR: T1 reads w2, then the mo-older w1.
        let mut g = ExecutionGraph::new(2, BTreeMap::new());
        let w1 = g.push_event(0, w(x, 1));
        g.insert_mo(x, w1, 0);
        let w2 = g.push_event(0, w(x, 2));
        g.insert_mo(x, w2, 1);
        g.push_event(1, r(x, RfSource::Write(w2)));
        g.push_event(1, r(x, RfSource::Write(w1)));
        assert!(!consistent(&g));
        // CoWR: T0 reads the initial value after overwriting it.
        let mut g = ExecutionGraph::new(1, BTreeMap::new());
        let w1 = g.push_event(0, w(x, 1));
        g.insert_mo(x, w1, 0);
        g.push_event(0, r(x, RfSource::Write(EventId::Init(x))));
        assert!(!consistent(&g));
    }

    #[test]
    fn own_store_forwarding_allowed() {
        // T0: W(x,1); R(x)=1 (own store) while T1's write is mo-later.
        let x = 1;
        let mut g = ExecutionGraph::new(2, BTreeMap::new());
        let w0 = g.push_event(0, w(x, 1));
        g.insert_mo(x, w0, 0);
        g.push_event(0, r(x, RfSource::Write(w0)));
        let w1 = g.push_event(1, w(x, 2));
        g.insert_mo(x, w1, 1);
        assert!(consistent(&g));
    }

    #[test]
    fn locked_rmw_orders_like_fence() {
        // Replace T0's plain write in SB by an RMW: pair becomes ordered.
        let (x, y) = (1, 2);
        let mut g = ExecutionGraph::new(2, BTreeMap::new());
        g.push_event(
            0,
            EventKind::Read { loc: x, mode: Mode::Rlx, rf: RfSource::Write(EventId::Init(x)), rmw: true, awaiting: false },
        );
        let wx = g.push_event(0, EventKind::Write { loc: x, val: 1, mode: Mode::Rlx, rmw: true });
        g.insert_mo(x, wx, 0);
        g.push_event(0, r(y, RfSource::Write(EventId::Init(y))));
        let wy = g.push_event(1, w(y, 1));
        g.insert_mo(y, wy, 0);
        g.push_event(1, EventKind::Fence { mode: Mode::Sc });
        g.push_event(1, r(x, RfSource::Write(EventId::Init(x))));
        assert!(!consistent(&g));
    }
}
