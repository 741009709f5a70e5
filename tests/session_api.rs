//! Integration tests for the push-button `Session` pipeline: the
//! cross-model acceptance matrix, cancellation and deadline budgets,
//! progress on the event bus, and the structured JSON report.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use vsync::core::{
    verify, AmcConfig, CancelToken, EventKind, Inconclusive, OptimizationReport, OptimizationStep,
    OptimizerConfig, Report, Session, StopReason, Verdict,
};
use vsync::core::{ExploreStats, ModelRun};
use vsync::locks::SessionExt as _;
use vsync::model::ModelKind;

/// Acceptance criterion: one `Session::lock("qspinlock", 3, 1)` call over
/// the full model matrix produces per-model verdicts identical to the
/// equivalent sequence of legacy `verify` calls.
#[test]
fn qspinlock_matrix_matches_legacy_verify_sequence() {
    let report = Session::lock("qspinlock", 3, 1).models(ModelKind::all()).workers(8).run();
    assert_eq!(report.models.len(), 3);
    assert_eq!(report.program, "qspinlock");
    let client = vsync::locks::registry::entry("qspinlock").unwrap().client(3, 1);
    for run in &report.models {
        let legacy = verify(&client, &AmcConfig::with_model(run.model).with_workers(8));
        assert_eq!(
            std::mem::discriminant(&run.verdict),
            std::mem::discriminant(&legacy),
            "{}: session={} legacy={legacy}",
            run.model,
            run.verdict
        );
        assert!(run.verdict.is_verified(), "{}: {}", run.model, run.verdict);
        assert!(run.stats.complete_executions > 0);
    }
    assert!(report.is_verified());
}

/// A `CancelToken` fired before the run interrupts deterministically for
/// any worker count: `Interrupted(Cancelled)` with zero items processed.
#[test]
fn prefired_cancel_token_is_deterministic_across_worker_counts() {
    for workers in [1, 2, 8] {
        let session = Session::lock("mcs", 3, 1).workers(workers);
        session.cancel_token().cancel();
        let report = session.run();
        let run = &report.models[0];
        assert!(
            matches!(
                run.verdict,
                Verdict::Inconclusive(Inconclusive { reason: StopReason::Cancelled, .. })
            ),
            "workers={workers}: {}",
            run.verdict
        );
        assert_eq!(run.stats.popped, 0, "workers={workers}: work was processed");
        assert!(report.is_interrupted());
        assert!(!report.is_verified());
    }
}

/// Fire the session's token on its first `stats_delta` — from inside the
/// exploration hot loop, after work has started.
fn cancel_on_first_delta(session: Session) -> Session {
    let token = session.cancel_token();
    session.on_event(move |ev| {
        if let EventKind::StatsDelta { .. } = ev.kind {
            token.cancel();
        }
    })
}

/// A token fired mid-run (from an event sink, i.e. from inside the hot
/// loop) still lands on `Interrupted` for any worker count.
#[test]
fn midrun_cancel_interrupts_for_all_worker_counts() {
    for workers in [1, 2, 8] {
        let report = cancel_on_first_delta(Session::lock("mcs", 3, 1).workers(workers)).run();
        let run = &report.models[0];
        assert!(
            matches!(
                run.verdict,
                Verdict::Inconclusive(Inconclusive { reason: StopReason::Cancelled, .. })
            ),
            "workers={workers}: {}",
            run.verdict
        );
        // The run did start: some items were popped before the cancel.
        assert!(run.stats.popped > 0, "workers={workers}");
    }
}

/// A zero deadline never hangs: every worker count reports
/// `Interrupted(DeadlineExceeded)` without processing anything.
#[test]
fn zero_deadline_never_hangs() {
    for workers in [1, 2, 8] {
        let report =
            Session::lock("qspinlock", 3, 1).workers(workers).deadline(Duration::ZERO).run();
        let run = &report.models[0];
        assert!(
            matches!(
                run.verdict,
                Verdict::Inconclusive(Inconclusive { reason: StopReason::DeadlineExceeded, .. })
            ),
            "workers={workers}: {}",
            run.verdict
        );
        assert_eq!(run.stats.popped, 0, "workers={workers}");
    }
}

/// A deadline covers the whole matrix: once expired, later models are
/// reported interrupted too (nothing silently runs to completion).
#[test]
fn expired_deadline_covers_remaining_matrix_entries() {
    let report =
        Session::lock("ttas", 2, 1).models(ModelKind::all()).deadline(Duration::ZERO).run();
    assert_eq!(report.models.len(), 3);
    for run in &report.models {
        assert!(
            matches!(
                run.verdict,
                Verdict::Inconclusive(Inconclusive { reason: StopReason::DeadlineExceeded, .. })
            ),
            "{}: {}",
            run.model,
            run.verdict
        );
    }
}

/// Counter deltas — what the CLI's `--progress` prints — stream from the
/// hot loop inside the exploration's `explore_start`/`explore_finish`
/// span, with plausible, growing counters and the right model stamp.
#[test]
fn progress_deltas_stream_from_the_hot_loop() {
    // (model, workers) of the open exploration; (deltas, popped so far).
    let open: Arc<Mutex<Option<(ModelKind, usize)>>> = Arc::default();
    let seen: Arc<Mutex<(u64, u64)>> = Arc::default();
    let (o, s) = (Arc::clone(&open), Arc::clone(&seen));
    let report = Session::lock("ttas", 2, 2)
        .on_event(move |ev| match &ev.kind {
            EventKind::ExploreStart { model, workers } => {
                *o.lock().unwrap() = Some((*model, *workers));
            }
            EventKind::ExploreFinish { .. } => *o.lock().unwrap() = None,
            EventKind::StatsDelta { stats, .. } => {
                assert_eq!(*o.lock().unwrap(), Some((ModelKind::Vmm, 1)), "delta outside a span");
                let mut s = s.lock().unwrap();
                s.0 += 1;
                s.1 += stats.popped;
            }
            _ => {}
        })
        .run();
    assert!(report.is_verified());
    let (deltas, popped) = *seen.lock().unwrap();
    assert!(deltas > 0, "no deltas emitted");
    assert_eq!(popped, report.models[0].stats.popped, "the deltas add up to the final count");
}

/// Interrupted optimization keeps the verified-so-far assignment and is
/// flagged, both in the report struct and the JSON.
#[test]
fn cancel_during_optimization_is_reported() {
    let session = Session::lock("ttas", 2, 1).optimize(OptimizerConfig::default());
    // Fire during the first exploration, before anything verified: the
    // input is never vouched for, so there is no optimization.
    let report = cancel_on_first_delta(session).run();
    assert!(report.is_interrupted());
    assert!(report.models[0].optimization.is_none());

    // A token attached to the OptimizerConfig itself (the caller-supplied
    // channel), pre-fired: the optimizer stops deterministically before
    // its first relaxation attempt, and the input is explored and
    // verified under the session's own controls.
    let token = CancelToken::new();
    token.cancel();
    let report =
        Session::lock("ttas", 2, 1).optimize(OptimizerConfig::default().with_cancel(token)).run();
    assert!(report.is_interrupted(), "{}", report.to_json());
    let opt = report.models[0].optimization.as_ref().expect("optimizer ran");
    assert!(opt.interrupted);
    assert!(opt.verified, "the explored baseline stays verified");
    assert!(opt.steps.is_empty(), "no relaxation was attempted after the cancel");
}

/// Session-produced JSON is well-formed, has the documented stable key
/// order, and round-trips through the bench JSON tooling.
#[test]
fn session_json_is_parseable_and_stable() {
    let report = Session::lock("ttas", 2, 1).models(ModelKind::all()).run();
    let json = report.to_json();
    let v = vsync_bench::json::parse(&json).expect("valid JSON");
    assert_eq!(v.keys(), vec!["program", "verified", "interrupted", "elapsed_ms", "models"]);
    assert_eq!(v.get("program").unwrap().as_str(), Some("ttas"));
    assert_eq!(v.get("verified").unwrap().as_bool(), Some(true));
    let models = v.get("models").unwrap().items();
    assert_eq!(models.len(), 3);
    for m in models {
        assert_eq!(
            m.keys(),
            vec![
                "model",
                "verdict",
                "stop_reason",
                "message",
                "counterexample",
                "elapsed_ms",
                "stats",
                "optimization"
            ]
        );
        assert_eq!(m.get("verdict").unwrap().as_str(), Some("verified"));
        assert_eq!(
            m.get("stats").unwrap().keys(),
            vec![
                "popped",
                "constructed",
                "duplicates",
                "symmetry_pruned",
                "inconsistent",
                "revisits",
                "complete_executions",
                "blocked_graphs",
                "events",
                "frontier_dropped",
                "probes",
                "phases"
            ]
        );
    }
    // Round-trip: re-serializing the parsed value parses to the same tree.
    let reparsed = vsync_bench::json::parse(&v.to_string()).expect("round-trip");
    assert_eq!(v, reparsed);
}

/// Golden test: a hand-built report with fixed counters serializes to
/// exactly this string. Catches accidental schema or key-order drift.
#[test]
fn report_json_golden() {
    let mut pb = vsync::lang::ProgramBuilder::new("golden");
    pb.thread(|t| {
        t.store(0x10, 1u64, ("site.a", vsync::graph::Mode::Sc));
    });
    let program = pb.build().unwrap();
    let summary = program.barrier_summary();
    let report = Report {
        program: "golden \"lock\"".to_owned(),
        elapsed: Duration::from_micros(1500),
        models: vec![
            ModelRun {
                model: ModelKind::Sc,
                verdict: Verdict::Verified,
                stats: ExploreStats {
                    popped: 7,
                    constructed: 7,
                    complete_executions: 2,
                    events: 40,
                    ..Default::default()
                },
                elapsed: Duration::from_micros(1000),
                executions: Vec::new(),
                optimization: Some(OptimizationReport {
                    program: program.clone(),
                    verified: true,
                    interrupted: false,
                    error: None,
                    steps: vec![OptimizationStep {
                        pass: 1,
                        site: 0,
                        from: vsync::graph::Mode::Sc,
                        to: vsync::graph::Mode::Rlx,
                        accepted: true,
                    }],
                    verifications: 3,
                    explorations: 1,
                    certified: 1,
                    closing: 1,
                    closing_graphs: 7,
                    explored_graphs: 40,
                    cache_hits: 1,
                    before: summary,
                    after: summary,
                    elapsed: Duration::from_micros(250),
                }),
            },
            ModelRun {
                model: ModelKind::Vmm,
                verdict: Verdict::Fault("budget\nblown".to_owned()),
                stats: ExploreStats::default(),
                elapsed: Duration::from_micros(500),
                executions: Vec::new(),
                optimization: None,
            },
        ],
    };
    let expected = concat!(
        "{\"program\": \"golden \\\"lock\\\"\", \"verified\": false, ",
        "\"interrupted\": false, \"elapsed_ms\": 1.500, \"models\": [",
        "{\"model\": \"SC\", \"verdict\": \"verified\", \"stop_reason\": null, \"message\": null, ",
        "\"counterexample\": null, \"elapsed_ms\": 1.000, ",
        "\"stats\": {\"popped\": 7, \"constructed\": 7, \"duplicates\": 0, ",
        "\"symmetry_pruned\": 0, \"inconsistent\": 0, \"revisits\": 0, ",
        "\"complete_executions\": 2, \"blocked_graphs\": 0, \"events\": 40, ",
        "\"frontier_dropped\": 0, \"probes\": 0, \"phases\": {}}, ",
        "\"optimization\": {\"verified\": true, \"interrupted\": false, \"error\": null, ",
        "\"verifications\": 3, ",
        "\"explorations\": 1, \"certified\": 1, \"closing\": 1, \"explored_graphs\": 40, ",
        "\"cache_hits\": 1, ",
        "\"elapsed_ms\": 0.250, ",
        "\"before\": {\"rlx\": 0, \"acq\": 0, \"rel\": 0, \"acq_rel\": 0, \"sc\": 1}, ",
        "\"after\": {\"rlx\": 0, \"acq\": 0, \"rel\": 0, \"acq_rel\": 0, \"sc\": 1}, ",
        "\"steps\": [{\"site\": \"site.a\", \"from\": \"sc\", \"to\": \"rlx\", ",
        "\"accepted\": true}]}}, ",
        "{\"model\": \"VMM\", \"verdict\": \"fault\", \"stop_reason\": null, ",
        "\"message\": \"budget\\nblown\", ",
        "\"counterexample\": null, \"elapsed_ms\": 0.500, ",
        "\"stats\": {\"popped\": 0, \"constructed\": 0, \"duplicates\": 0, ",
        "\"symmetry_pruned\": 0, \"inconsistent\": 0, \"revisits\": 0, ",
        "\"complete_executions\": 0, \"blocked_graphs\": 0, \"events\": 0, ",
        "\"frontier_dropped\": 0, \"probes\": 0, \"phases\": {}}, ",
        "\"optimization\": null}]}",
    );
    assert_eq!(report.to_json(), expected);
    // And it is valid, round-trippable JSON.
    let v = vsync_bench::json::parse(&report.to_json()).expect("valid");
    assert_eq!(vsync_bench::json::parse(&v.to_string()).unwrap(), v);
}

/// A violating program surfaces its counterexample in the JSON.
#[test]
fn json_carries_counterexamples_for_violations() {
    let report =
        Session::new(vsync::locks::model::huawei_scenario(false)).model(ModelKind::Vmm).run();
    assert!(!report.is_verified());
    let v = vsync_bench::json::parse(&report.to_json()).expect("valid JSON");
    let m = &v.get("models").unwrap().items()[0];
    assert_eq!(m.get("verdict").unwrap().as_str(), Some("safety"));
    assert!(m.get("message").unwrap().as_str().is_some());
    let ce = m.get("counterexample").unwrap().as_str().expect("witness rendered");
    assert!(!ce.is_empty());
}

/// The session honors `max_graphs` budgets: the run degrades to an
/// inconclusive verdict whose stop reason survives into the JSON.
#[test]
fn max_graphs_budget_is_inconclusive() {
    let report = Session::lock("ttas", 2, 1).max_graphs(2).run();
    assert!(matches!(
        report.models[0].verdict,
        Verdict::Inconclusive(Inconclusive { reason: StopReason::MaxGraphs, .. })
    ));
    assert!(report.is_interrupted());
    let v = vsync_bench::json::parse(&report.to_json()).unwrap();
    let m = &v.get("models").unwrap().items()[0];
    assert_eq!(m.get("verdict").unwrap().as_str(), Some("inconclusive"));
    assert_eq!(m.get("stop_reason").unwrap().as_str(), Some("max_graphs"));
}

/// An optimize session does not explore its input up front, yet an input
/// that does not verify still reports its own violation, with a
/// counterexample, and no optimization — at any worker count.
#[test]
fn unverifiable_input_under_optimize_reports_its_violation() {
    for workers in [1, 2] {
        let report = Session::new(vsync::locks::model::huawei_scenario(false))
            .workers(workers)
            .optimize(OptimizerConfig::default())
            .run();
        let run = &report.models[0];
        assert!(matches!(run.verdict, Verdict::Safety(_)), "workers={workers}: {}", run.verdict);
        let plain = Session::new(vsync::locks::model::huawei_scenario(false)).run();
        assert_eq!(run.verdict.to_string(), plain.models[0].verdict.to_string());
        assert!(run.verdict.counterexample().is_some_and(|ce| !ce.graph.render().is_empty()));
        assert!(run.optimization.is_none(), "workers={workers}: an unverified input is optimized");
        assert!(!report.is_verified() && !report.is_interrupted() && !report.is_errored());
    }
}

/// The session's own token or deadline, fired before any verifying
/// exploration, leaves the input unexplored: `Inconclusive`, never
/// `verified`, and no optimization.
#[test]
fn session_stop_before_any_verifying_exploration_is_inconclusive() {
    for workers in [1, 2] {
        let prefired =
            Session::lock("mcs", 2, 1).workers(workers).optimize(OptimizerConfig::default());
        prefired.cancel_token().cancel();
        let midrun =
            Session::lock("mcs", 2, 1).workers(workers).optimize(OptimizerConfig::default());
        let expired = Session::lock("mcs", 2, 1)
            .workers(workers)
            .deadline(Duration::ZERO)
            .optimize(OptimizerConfig::default());
        let runs = [
            (prefired.run(), StopReason::Cancelled),
            (cancel_on_first_delta(midrun).run(), StopReason::Cancelled),
            (expired.run(), StopReason::DeadlineExceeded),
        ];
        for (i, (report, want)) in runs.into_iter().enumerate() {
            let run = &report.models[0];
            let tag = format!("workers={workers} run {i}");
            assert!(
                matches!(&run.verdict, Verdict::Inconclusive(Inconclusive { reason, .. }) if *reason == want),
                "{tag}: {}",
                run.verdict
            );
            assert!(!report.is_verified() && report.is_interrupted(), "{tag}");
            assert!(run.optimization.is_none(), "{tag}");
        }
    }
}

/// `stats` without its phase times, the one part that is not a function
/// of the program.
fn counters(mut stats: ExploreStats) -> ExploreStats {
    stats.phases = Default::default();
    stats
}

/// An optimize session reports the printed program: at one worker its
/// counters are a plain exploration's of the optimized all-`sc` client.
/// mcs-2t's printed assignment is explored by the closing certificate,
/// and qspinlock-2t's and ttas-2t's by the search itself. Candidate
/// probes collect no executions, so `collect_executions` explores the
/// printed program once after the search (a closing exploration) and
/// collects its executions there.
#[test]
fn optimize_session_stats_describe_the_printed_program() {
    for (lock, closing) in [("mcs", 1), ("qspinlock", 0), ("ttas", 0)] {
        let base = vsync::locks::registry::entry(lock).unwrap().client(2, 1).with_all_sc();
        let session =
            || Session::new(base.clone()).optimize(OptimizerConfig::default()).profile(true);

        let report = session().run();
        let run = &report.models[0];
        let opt = run.optimization.as_ref().expect("the input verified");
        assert!(run.verdict.is_verified() && opt.verified, "{lock}: {}", run.verdict);
        assert_eq!(opt.closing, closing, "{lock}");
        assert_eq!(opt.closing_graphs > 0, closing > 0, "{lock}");
        let plain = vsync::core::explore(&opt.program, &AmcConfig::default().collecting());
        assert!(plain.is_verified(), "{lock}");
        assert_eq!(counters(run.stats), counters(plain.stats), "{lock}");
        assert!(run.executions.is_empty(), "{lock}");

        let report = session().collect_executions().run();
        let run = &report.models[0];
        let collected = run.optimization.as_ref().expect("the input verified");
        assert!(run.verdict.is_verified() && collected.verified, "{lock}: {}", run.verdict);
        assert_eq!(collected.program.site_modes(), opt.program.site_modes(), "{lock}");
        assert_eq!(collected.closing, 1, "{lock}");
        assert_eq!(counters(run.stats), counters(plain.stats), "{lock}");
        assert_eq!(run.executions.len(), plain.executions.len(), "{lock}");
        assert_eq!(run.executions.len() as u64, run.stats.complete_executions, "{lock}");
    }
}

/// A closing exploration under a fired session token leaves the printed
/// program unknown: mcs-2t's last accept is certified, so a token fired
/// on that step stops the search with the full assignment, and its
/// closing exploration reports `Inconclusive`, never `verified`.
#[test]
fn an_interrupted_closing_leaves_the_output_unknown() {
    let base = vsync::locks::registry::entry("mcs").unwrap().client(2, 1).with_all_sc();
    let full = Session::new(base.clone()).optimize(OptimizerConfig::default()).run();
    let full = full.models[0].optimization.clone().expect("the input verifies");
    let last_accept = full.steps.iter().rposition(|s| s.accepted).expect("an accept") + 1;

    let session = Session::new(base).optimize(OptimizerConfig::default());
    let token = session.cancel_token();
    let seen = Arc::new(Mutex::new(0));
    let report = session
        .on_event(move |ev| {
            if let EventKind::OptimizeStep { .. } = ev.kind {
                let mut n = seen.lock().unwrap();
                *n += 1;
                if *n == last_accept {
                    token.cancel();
                }
            }
        })
        .run();
    let run = &report.models[0];
    assert!(
        matches!(
            run.verdict,
            Verdict::Inconclusive(Inconclusive { reason: StopReason::Cancelled, .. })
        ),
        "{}",
        run.verdict
    );
    let opt = run.optimization.as_ref().expect("an accept vouched for the input");
    assert!(opt.interrupted && !opt.verified && opt.error.is_none());
    assert_eq!(opt.closing, 1);
    assert_eq!(opt.program.site_modes(), full.program.site_modes());
    assert!(report.is_interrupted() && !report.is_verified());
}
