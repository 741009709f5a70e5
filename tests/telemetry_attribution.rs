//! The two numbers behind `vsync verify --metrics`' "consistency checks:
//! N fast-path, M reference" line: a default session never asks the
//! axiom evaluator, a `CheckerKind::Reference` session asks nothing
//! else.
//!
//! This file deliberately holds a single test — the counters are
//! process-global and the default test runner is multi-threaded, so any
//! second test in this binary would race the counts.

use vsync::core::Session;
use vsync::locks::SessionExt as _;
use vsync::model::{checker_attribution, set_checker_attribution, CheckerKind, ModelKind};

#[test]
fn sessions_are_answered_by_the_checker_they_selected() {
    set_checker_attribution(true);
    for model in ModelKind::all() {
        for (checker, workers) in [
            (CheckerKind::Fast, 1),
            (CheckerKind::Fast, 2),
            (CheckerKind::Reference, 1),
            (CheckerKind::Reference, 2),
        ] {
            let before = checker_attribution();
            let report =
                Session::lock("ttas", 3, 1).model(model).checker(checker).workers(workers).run();
            assert!(report.is_verified(), "{model} {checker:?}");
            let after = checker_attribution();
            let (fast, reference) = (after.0 - before.0, after.1 - before.1);
            // Every rejected graph is one answer; accepted ones come on top.
            let rejected = report.merged_stats().inconsistent;
            let (asked, other) = match checker {
                CheckerKind::Fast => (fast, reference),
                CheckerKind::Reference => (reference, fast),
            };
            assert_eq!(other, 0, "{model} {checker:?}, {workers} worker(s)");
            assert!(asked > rejected, "{model} {checker:?}: {asked} answers, {rejected} rejected");
        }
    }
    set_checker_attribution(false);
}
