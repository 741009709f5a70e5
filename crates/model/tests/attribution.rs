//! `checker_attribution` partitions every consistency answer into *fast*
//! (the chain checkers: VMM's clocks, the SC/TSO cycle search) and
//! *reference* (the axiom evaluator).
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

    // Every model's own checker is a fast-path answer, per reset and per
    // push, whatever the size of the graph; recording an already-accepted
    // extension is not an answer.
    for size in [1, 40] {
        while g.num_events() < size {
            g.push_event(1, EventKind::Fence { mode: Mode::Rel });
        }
        for kind in ModelKind::all() {
            let mut ck = kind.model().chain_checker();
            assert_eq!(delta(&mut || assert!(ck.reset(&g))), (1, 0), "{kind}");
            g.push_event(0, EventKind::Fence { mode: Mode::Sc });
            assert_eq!(delta(&mut || assert!(ck.push(&g, 0))), (1, 0), "{kind}");
            ck.pop(0);
            assert_eq!(delta(&mut || ck.push_accepted(&g, 0)), (0, 0), "{kind}");
            assert_eq!(delta(&mut || assert!(kind.model().is_consistent(&g))), (1, 0), "{kind}");
            g.pop_event(0);
        }
    }

    // Only the reference checker is a closure answer, at every model.
    for kind in ModelKind::all() {
        let reference = kind.reference_model();
        assert_eq!(delta(&mut || assert!(reference.is_consistent(&g))), (0, 1));
        let mut ck = reference.chain_checker();
        assert_eq!(delta(&mut || assert!(ck.reset(&g))), (0, 1));
        g.push_event(0, EventKind::Fence { mode: Mode::Sc });
        assert_eq!(delta(&mut || assert!(ck.push(&g, 0))), (0, 1));
        g.pop_event(0);
    }
    set_checker_attribution(false);
}
