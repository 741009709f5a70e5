//! Telemetry integration tests: event-stream determinism at one worker,
//! phase-profile count/time invariants, bus totals equal to the final
//! stats with and without profiling, and the exporter surfaces (corpus
//! events and session numbers, optimizer steps, the Chrome trace).

use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[path = "support/optimize.rs"]
#[allow(dead_code)]
mod reference;

use vsync::core::{
    run_corpus, AmcConfig, CorpusOptions, EnginePhase, EventKind, ExploreStats, OptimizerConfig,
    PhaseProfile, Session, TraceWriter,
};
use vsync::graph::Mode;
use vsync::lang::{Program, ProgramBuilder, Reg};
use vsync::locks::SessionExt as _;
use vsync::model::ModelKind;

const X: u64 = 0x10;
const Y: u64 = 0x20;

/// Message passing with an await: exercises every exploration phase
/// (replay, probe, consistency, extend, revisit, final check, stagnancy).
fn mp_program() -> Program {
    let mut pb = ProgramBuilder::new("mp");
    pb.thread(|t| {
        t.store(X, 1u64, Mode::Rlx);
        t.store(Y, 1u64, Mode::Rel);
    });
    pb.thread(|t| {
        t.await_eq(Reg(0), Y, 1u64, Mode::Acq);
        t.load(Reg(1), X, Mode::Rlx);
        t.assert_eq(Reg(1), 1u64, "data visible");
    });
    pb.build().unwrap()
}

/// Run `p` at `workers` and return the observed event-kind keys, after
/// asserting the sequence numbers are gap-free from zero.
fn event_keys(p: &Program, workers: usize) -> Vec<&'static str> {
    let seen: Arc<Mutex<Vec<(u64, &'static str)>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&seen);
    let r = Session::new(p.clone())
        .model(ModelKind::Vmm)
        .workers(workers)
        .profile(true)
        .on_event(move |ev| sink.lock().unwrap().push((ev.seq, ev.kind.key())))
        .run();
    assert!(r.is_verified());
    let seen = seen.lock().unwrap();
    for (i, (seq, _)) in seen.iter().enumerate() {
        assert_eq!(*seq, i as u64, "sequence numbers must be gap-free");
    }
    seen.iter().map(|(_, k)| *k).collect()
}

/// At one worker the event stream is a deterministic function of the
/// program: two profiled runs produce identical sequences, and the mp
/// litmus shape produces exactly this golden one — one drain at the
/// first pacer check, one when the worker exits.
#[test]
fn single_worker_event_stream_is_deterministic() {
    let p = mp_program();
    let a = event_keys(&p, 1);
    let b = event_keys(&p, 1);
    assert_eq!(a, b, "workers=1 event streams must be reproducible");
    assert_eq!(
        a,
        vec![
            "session_start",
            "explore_start",
            "stats_delta",
            "phase_slice",
            "stats_delta",
            "phase_slice",
            "explore_finish",
            "session_finish",
        ]
    );
}

/// Phase counts are exact mirrors of the exploration counters, and
/// attributed time never exceeds the measured wall clock.
#[test]
fn phase_profile_invariants_hold() {
    let t0 = Instant::now();
    let r = Session::new(mp_program()).model(ModelKind::Vmm).profile(true).run();
    let wall = t0.elapsed();
    assert!(r.is_verified());
    let stats = &r.models[0].stats;
    let phases = &stats.phases;
    assert!(!phases.is_empty(), "profiling must attribute spans");
    assert!(phases.total() <= wall, "attributed {:?} exceeds wall {wall:?}", phases.total());
    assert_eq!(
        phases.get(EnginePhase::FinalCheck).count,
        stats.complete_executions,
        "one FinalCheck entry per complete execution"
    );
    assert_eq!(
        phases.get(EnginePhase::Stagnancy).count,
        stats.blocked_graphs,
        "one Stagnancy entry per blocked graph"
    );
    assert_eq!(
        phases.get(EnginePhase::Replay).count,
        stats.popped,
        "one Replay entry per popped work item"
    );
    // The search hashes through its Probe sites at least once per
    // admitted-or-duplicate candidate, and never enters Dedup.
    assert!(
        phases.get(EnginePhase::Probe).count >= stats.constructed + stats.duplicates,
        "Probe entries must cover every admit decision"
    );
    assert_eq!(phases.get(EnginePhase::Dedup).count, 0);
}

/// Probe counters (hash-permutation work) flow into `ExploreStats`, and
/// the phase profile stays empty without telemetry asking for it — the
/// counter is a plain add, so this just pins that it is populated.
#[test]
fn probe_counters_flow_into_stats() {
    let r = Session::new(mp_program()).model(ModelKind::Vmm).run();
    let stats = &r.models[0].stats;
    assert!(
        stats.probes >= stats.constructed + stats.duplicates,
        "every dedup decision costs at least one probe"
    );
    // Without profile/events the phase profile stays empty (the
    // near-zero-cost disabled path).
    assert!(stats.phases.is_empty(), "no spans without telemetry");
}

/// Every worker drains its pacer once more on exit, so the deltas and
/// slices on the bus add up to exactly the report's final stats — for
/// any worker count, and on a run long enough to drain mid-flight. An
/// attached sink does not turn profiling on: without `profile(true)` the
/// profile stays empty, no `phase_slice` is emitted, and the deltas still
/// add up.
#[test]
fn bus_totals_equal_final_stats() {
    for profile in [true, false] {
        for workers in [1usize, 2, 8] {
            let tag = format!("profile={profile} workers={workers}");
            let totals: Arc<Mutex<(ExploreStats, PhaseProfile, u64)>> = Arc::default();
            let sink = Arc::clone(&totals);
            let r = Session::lock("ttas", 3, 1)
                .model(ModelKind::Vmm)
                .workers(workers)
                .profile(profile)
                .on_event(move |ev| {
                    let mut t = sink.lock().unwrap();
                    match &ev.kind {
                        EventKind::StatsDelta { stats, .. } => t.0.merge(stats),
                        EventKind::PhaseSlice { phases, .. } => {
                            t.1.merge(phases);
                            t.2 += 1;
                        }
                        _ => {}
                    }
                })
                .run();
            assert!(r.is_verified(), "{tag}");
            let stats = r.models[0].stats;
            assert!(stats.popped > 64, "{tag}: too short to drain mid-run");
            let (mut deltas, slices, slice_events) = *totals.lock().unwrap();
            assert_eq!(slices, stats.phases, "{tag}: Σ phase_slice != final profile");
            assert_eq!(stats.phases.is_empty(), !profile, "{tag}: profile without profile(true)");
            assert_eq!(slice_events == 0, !profile, "{tag}: phase_slice without profile(true)");
            deltas.phases = stats.phases;
            assert_eq!(deltas, stats, "{tag}: Σ stats_delta != final stats");
        }
    }
}

/// Each decided optimizer step reaches the session bus as one
/// `optimize_step`, in report order: the bus's `(pass, site, from, to,
/// accepted)` list is the report's step list with site names resolved,
/// and that list is the sequential reference's (`support/optimize.rs`),
/// so passes start at 1 and never decrease. With profiling on, optimizer
/// time lands in the `Optimize` phase.
#[test]
fn optimizer_steps_reach_the_event_bus() {
    let steps = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&steps);
    let base = vsync::locks::registry::entry("ttas").unwrap().client(2, 1);
    let r = Session::new(base.clone())
        .optimize(OptimizerConfig::default())
        .profile(true)
        .on_event(move |ev| {
            if let EventKind::OptimizeStep { pass, site, from, to, accepted } = &ev.kind {
                sink.lock().unwrap().push((*pass, site.clone(), *from, *to, *accepted));
            }
        })
        .run();
    assert!(r.is_verified());
    let opt = r.models[0].optimization.as_ref().expect("optimizer ran");
    let reported: Vec<_> = opt
        .steps
        .iter()
        .map(|s| (s.pass, opt.site_name(s).to_owned(), s.from, s.to, s.accepted))
        .collect();
    let steps = steps.lock().unwrap();
    assert!(!steps.is_empty(), "no step decided");
    assert_eq!(*steps, reported, "the bus's steps are the report's");
    let seq = reference::sequential(&base, &[], &AmcConfig::default());
    assert_eq!(opt.steps, seq.steps, "the optimizer's steps are the reference's");
    assert_eq!(steps[0].0, 1, "passes start at 1");
    assert!(steps.windows(2).all(|w| w[0].0 <= w[1].0), "a pass went back");
    assert!(
        r.models[0].stats.phases.get(EnginePhase::Optimize).count > 0,
        "optimizer wall time must be attributed"
    );
}

/// A corpus run shares one bus across files: per-file sessions stream
/// into it, numbered from 1 in `session_start` order, and every file
/// closes with a session-0 `corpus_file` event; per-model phase
/// attribution reaches the corpus outcomes.
#[test]
fn corpus_runs_emit_file_events_and_phase_profiles() {
    let events: Arc<Mutex<Vec<(u64, &'static str)>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&events);
    let opts = CorpusOptions {
        jobs: 2,
        profile: true,
        on_event: Some(Arc::new(move |ev| sink.lock().unwrap().push((ev.session, ev.kind.key())))),
        ..CorpusOptions::default()
    };
    let r = run_corpus(Path::new("corpus"), &opts).expect("corpus dir readable");
    assert!(r.passed());
    let events = events.lock().unwrap();
    let mut numbers: Vec<u64> =
        events.iter().filter(|(_, k)| *k == "session_start").map(|(s, _)| *s).collect();
    numbers.sort_unstable();
    assert_eq!(numbers, (1..=r.files.len() as u64).collect::<Vec<_>>(), "one number per file");
    assert_eq!(events.last().map(|e| e.1), Some("corpus_file"), "a file closes the stream");
    for (session, key) in events.iter() {
        let corpus_level = matches!(*key, "corpus_file" | "quarantine");
        assert_eq!(*session == 0, corpus_level, "{key} carries session {session}");
    }
    for f in &r.files {
        let vsync::core::FileOutcome::Checked(models) = &f.outcome else {
            panic!("{}: expected a checked outcome", f.path)
        };
        for m in models {
            assert!(!m.phases.is_empty(), "{}: {} has no phase profile", f.path, m.model);
        }
    }
}

/// The `--trace` file of a two-job corpus run — sessions in flight on two
/// threads, each on its own process track — passes the Chrome-trace
/// schema check that CI's `validate_trace` runs.
#[test]
fn two_job_corpus_trace_validates() {
    let path = std::env::temp_dir().join(format!("vsync-corpus-trace-{}.json", std::process::id()));
    let writer = Arc::new(TraceWriter::create(&path).expect("create trace file"));
    let opts = CorpusOptions {
        jobs: 2,
        profile: true,
        on_event: Some(writer.sink()),
        ..CorpusOptions::default()
    };
    let r = run_corpus(Path::new("corpus"), &opts).expect("corpus dir readable");
    writer.finish().expect("finish trace file");
    let src = std::fs::read_to_string(&path).expect("read trace file");
    std::fs::remove_file(&path).unwrap();
    assert!(r.passed());
    let (events, spans) = vsync_bench::validate_trace(&src);
    assert!(spans > 0, "no phase spans among {events} records");
    let v = vsync_bench::json::parse(&src).unwrap();
    let pids: std::collections::HashSet<u64> =
        v.items().iter().filter_map(|e| e.get("pid")?.as_num()).map(|p| p as u64).collect();
    assert_eq!(pids.len(), r.files.len() + 1, "one process per session, plus the corpus's");
}
