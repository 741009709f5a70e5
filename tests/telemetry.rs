//! Telemetry integration tests: event-stream determinism at one worker,
//! phase-profile count/time invariants, bus totals equal to the final
//! stats, and the exporter surfaces (corpus events, optimizer step
//! forwarding).

use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use vsync::core::{
    run_corpus, CorpusOptions, EnginePhase, EventKind, ExploreStats, OptimizerConfig, PhaseProfile,
    Session,
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
/// program: two runs produce identical sequences, and the mp litmus
/// shape produces exactly this golden one — one drain at the first pacer
/// check, one when the worker exits.
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
/// any worker count, and on a run long enough to drain mid-flight.
#[test]
fn bus_totals_equal_final_stats() {
    for workers in [1usize, 2, 8] {
        let totals: Arc<Mutex<(ExploreStats, PhaseProfile)>> = Arc::default();
        let sink = Arc::clone(&totals);
        let r = Session::lock("ttas", 3, 1)
            .model(ModelKind::Vmm)
            .workers(workers)
            .on_event(move |ev| match &ev.kind {
                EventKind::StatsDelta { stats, .. } => sink.lock().unwrap().0.merge(stats),
                EventKind::PhaseSlice { phases, .. } => sink.lock().unwrap().1.merge(phases),
                _ => {}
            })
            .run();
        assert!(r.is_verified(), "workers={workers}");
        let stats = r.models[0].stats;
        assert!(stats.popped > 64, "workers={workers}: too short to drain mid-run");
        let (mut deltas, slices) = *totals.lock().unwrap();
        assert_eq!(slices, stats.phases, "workers={workers}: Σ phase_slice != final profile");
        deltas.phases = stats.phases;
        assert_eq!(deltas, stats, "workers={workers}: Σ stats_delta != final stats");
    }
}

/// The optimizer's step events are forwarded onto the session bus, and
/// optimizer time lands in the `Optimize` phase of the profile.
#[test]
fn optimizer_steps_reach_the_event_bus() {
    let steps = Arc::new(Mutex::new(0u64));
    let sink = Arc::clone(&steps);
    let r = Session::lock("ttas", 2, 1)
        .optimize(OptimizerConfig::default())
        .on_event(move |ev| {
            if let EventKind::OptimizeStep { site, .. } = &ev.kind {
                assert!(!site.is_empty());
                *sink.lock().unwrap() += 1;
            }
        })
        .run();
    assert!(r.is_verified());
    let steps = *steps.lock().unwrap();
    let reported = r.models[0].optimization.as_ref().expect("optimizer ran").steps.len() as u64;
    assert_eq!(steps, reported, "every optimizer step must reach the bus");
    assert!(
        r.models[0].stats.phases.get(EnginePhase::Optimize).count > 0,
        "optimizer wall time must be attributed"
    );
}

/// A corpus run shares one bus across files: per-file sessions stream
/// into it and every file closes with a `corpus_file` event; per-model
/// phase attribution reaches the corpus outcomes.
#[test]
fn corpus_runs_emit_file_events_and_phase_profiles() {
    let keys: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&keys);
    let opts = CorpusOptions {
        jobs: 1,
        profile: true,
        on_event: Some(Arc::new(move |ev| sink.lock().unwrap().push(ev.kind.key()))),
        ..CorpusOptions::default()
    };
    let r = run_corpus(Path::new("corpus/mp.litmus"), &opts).expect("corpus file readable");
    assert!(r.passed());
    let keys = keys.lock().unwrap();
    assert_eq!(keys.last(), Some(&"corpus_file"), "each file closes with corpus_file");
    assert!(keys.contains(&"session_start"), "per-file sessions share the bus");
    for f in &r.files {
        let vsync::core::FileOutcome::Checked(models) = &f.outcome else {
            panic!("{}: expected a checked outcome", f.path)
        };
        for m in models {
            assert!(!m.phases.is_empty(), "{}: {} has no phase profile", f.path, m.model);
        }
    }
}
