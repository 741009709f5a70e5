//! `checker_attribution` partitions every consistency answer into *fast*
//! (clock path, `AxiomContext`) and *reference* (closure formulations).
//!
//! The counters are process-global, so this file holds exactly one test:
//! its own test binary, no concurrent checks.

use std::collections::BTreeMap;

use vsync_graph::{EventKind, ExecutionGraph, Mode};
use vsync_model::{checker_attribution, set_checker_attribution, ModelKind};

#[test]
fn every_answer_is_counted_once_on_the_side_that_gave_it() {
    let mut g = ExecutionGraph::new(2, BTreeMap::new());
    let delta = |f: &mut dyn FnMut()| {
        let before = checker_attribution();
        f();
        let after = checker_attribution();
        (after.0 - before.0, after.1 - before.1)
    };
    // Off by default: nothing is counted.
    assert_eq!(delta(&mut || assert!(ModelKind::Vmm.model().is_consistent(&g))), (0, 0));
    set_checker_attribution(true);

    // VMM: every reset and push is a clock-path answer; recording an
    // already-accepted extension is not an answer.
    let mut ck = ModelKind::Vmm.model().chain_checker();
    assert_eq!(delta(&mut || assert!(ck.reset(&g))), (1, 0));
    g.push_event(0, EventKind::Fence { mode: Mode::Sc });
    assert_eq!(delta(&mut || assert!(ck.push(&g, 0))), (1, 0));
    ck.pop(0);
    assert_eq!(delta(&mut || ck.push_accepted(&g, 0)), (0, 0));
    assert_eq!(delta(&mut || assert!(ModelKind::Vmm.model().is_consistent(&g))), (1, 0));

    // SC/TSO: small graphs are answered by the closure formulation, and
    // their chain checker is the from-scratch check.
    for kind in [ModelKind::Sc, ModelKind::Tso] {
        assert_eq!(delta(&mut || assert!(kind.model().is_consistent(&g))), (0, 1));
        let mut ck = kind.model().chain_checker();
        assert_eq!(delta(&mut || assert!(ck.reset(&g))), (0, 1));
    }
    // Past SMALL_GRAPH_EVENTS they take their fast path.
    for _ in 0..vsync_model::fast::SMALL_GRAPH_EVENTS {
        g.push_event(1, EventKind::Fence { mode: Mode::Rel });
    }
    assert_eq!(delta(&mut || assert!(ModelKind::Sc.model().is_consistent(&g))), (1, 0));

    // The reference checker is a closure answer at every size and model.
    for kind in ModelKind::all() {
        let reference = kind.reference_model();
        assert_eq!(delta(&mut || assert!(reference.is_consistent(&g))), (0, 1));
        let mut ck = reference.chain_checker();
        assert_eq!(delta(&mut || assert!(ck.reset(&g))), (0, 1));
    }
    set_checker_attribution(false);
}
