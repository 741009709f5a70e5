//! Deterministic fault-injection matrix (requires `--features
//! failpoints`): armed failpoints inside the engine must degrade runs to
//! *structured*, worker-count-independent outcomes — a caught panic
//! becomes `Verdict::Error` with stable phase/payload metadata, a
//! synthetic allocation failure becomes `Verdict::Inconclusive` with
//! `StopReason::MemoryBudget`, and a corpus-file panic quarantines that
//! file without disturbing its neighbours. Every test holds the
//! process-wide `exclusive()` gate: hit counters are global state.

#![cfg(feature = "failpoints")]

use std::time::Duration;

use vsync::core::failpoint::{self, Action};
use vsync::core::{
    run_corpus, verify, AmcConfig, CorpusOptions, EnginePhase, Inconclusive, StopReason, Verdict,
};
use vsync::graph::Mode;
use vsync::lang::{Program, ProgramBuilder, Reg};
use vsync::locks::SessionExt as _;
use vsync::model::ModelKind;

const X: u64 = 0x10;
const Y: u64 = 0x20;

/// The message-passing litmus test: enough work items to hit every
/// exploration stage (replay, dedup, consistency, extend, final check)
/// and — via the await — the stagnancy check too.
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

fn config(workers: usize, symmetry: bool) -> AmcConfig {
    AmcConfig::with_model(ModelKind::Vmm).with_workers(workers).with_symmetry(symmetry)
}

/// A panic injected at any engine stage surfaces as `Verdict::Error`
/// whose phase and payload are identical for every worker count and with
/// symmetry on or off — and the run terminates instead of hanging.
#[test]
fn injected_panics_yield_identical_errors_across_configurations() {
    let _gate = failpoint::exclusive();
    let p = mp_program();
    let sites = [
        ("explore.pop", EnginePhase::Driver),
        ("explore.replay", EnginePhase::Replay),
        // The search attributes its hash sites to `Probe` and revisit
        // generation to `Revisit`.
        ("explore.dedup", EnginePhase::Probe),
        ("explore.consistency", EnginePhase::Consistency),
        ("explore.extend", EnginePhase::Extend),
        ("explore.revisit", EnginePhase::Revisit),
        ("explore.final", EnginePhase::FinalCheck),
        ("explore.stagnancy", EnginePhase::Stagnancy),
    ];
    for (site, phase) in sites {
        let expected_payload = format!("failpoint '{site}' fired");
        for workers in [1usize, 2, 8] {
            for symmetry in [true, false] {
                failpoint::clear();
                failpoint::configure(site, Action::Panic, 1);
                let v = verify(&p, &config(workers, symmetry));
                let Verdict::Error(e) = &v else {
                    panic!("{site} workers={workers} symmetry={symmetry}: expected error, got {v}")
                };
                assert_eq!(e.phase, phase, "{site} workers={workers} symmetry={symmetry}: {e}");
                assert_eq!(
                    e.payload, expected_payload,
                    "{site} workers={workers} symmetry={symmetry}"
                );
            }
        }
    }
    failpoint::clear();
}

/// A panic in a worker that holds roots on its own stack — the 40th
/// step of ttas-3t, dozens of admissions in — still surfaces as
/// `Verdict::Error`, and the peers asleep in the pool (with eight workers
/// most of them are, that early) are released rather than left waiting for
/// roots that died with the panicking worker. The watchdog turns a hang
/// into a failure.
#[test]
fn panic_with_roots_on_the_local_stack_releases_sleeping_peers() {
    let _gate = failpoint::exclusive();
    let (done, watchdog) = std::sync::mpsc::channel();
    let runs = std::thread::spawn(move || {
        let p = vsync::locks::model::mutex_client(&vsync::locks::model::TtasLock::default(), 3, 1);
        for workers in [1usize, 2, 8] {
            failpoint::clear();
            failpoint::configure("explore.pop", Action::Panic, 40);
            let v = verify(&p, &config(workers, true));
            let Verdict::Error(e) = &v else {
                panic!("workers={workers}: expected error, got {v}")
            };
            assert_eq!(e.phase, EnginePhase::Driver, "workers={workers}: {e}");
            assert_eq!(e.payload, "failpoint 'explore.pop' fired", "workers={workers}");
        }
        failpoint::clear();
        done.send(()).ok();
    });
    let outcome = watchdog.recv_timeout(Duration::from_secs(120));
    assert!(outcome.is_ok(), "a run hung or failed after the injected panic");
    runs.join().unwrap();
}

/// Every consistency check of a run is attributed to `Consistency`: the
/// initial graph's `reset`, the scans' pushes, and the root checks that
/// adopt the admitting chain's forked state and push what it has not
/// recorded. One worker is deterministic, so the `k`-th hit walks through
/// all of them.
#[test]
fn every_consistency_check_panics_in_the_consistency_phase() {
    let _gate = failpoint::exclusive();
    let p = mp_program();
    let mut hits = 0;
    loop {
        failpoint::clear();
        failpoint::configure("explore.consistency", Action::Panic, hits + 1);
        match verify(&p, &config(1, true)) {
            Verdict::Error(e) => assert_eq!(e.phase, EnginePhase::Consistency, "hit {}", hits + 1),
            Verdict::Verified => break, // fewer hits than that: the walk is over
            v => panic!("hit {}: unexpected verdict {v}", hits + 1),
        }
        hits += 1;
    }
    failpoint::clear();
    assert!(hits >= 10, "only {hits} consistency checks in the run");
}

/// A panic inside an optimizer probe lands in the `Optimize` phase (the
/// candidate is undecided, never refuted) and the session reports an
/// engine error rather than a relaxed assignment.
#[test]
fn injected_optimizer_panic_is_reported_not_fatal() {
    let _gate = failpoint::exclusive();
    for workers in [1usize, 2] {
        failpoint::clear();
        failpoint::configure("optimize.verify", Action::Panic, 1);
        let report = vsync::core::Session::lock("ttas", 2, 1)
            .workers(workers)
            .optimize(vsync::core::OptimizerConfig::default())
            .run();
        assert!(report.is_errored(), "workers={workers}: {}", report.to_json());
        let opt = report.models[0].optimization.as_ref().expect("optimizer ran");
        let e = opt.error.as_ref().expect("probe panic recorded");
        assert_eq!(e.phase, EnginePhase::Optimize, "workers={workers}: {e}");
        assert_eq!(e.payload, "failpoint 'optimize.verify' fired", "workers={workers}");
    }
    failpoint::clear();
}

/// A synthetic allocation failure degrades the run to
/// `Inconclusive(MemoryBudget)` with plausible partial statistics, for
/// every worker count.
#[test]
fn injected_oom_degrades_to_memory_budget_inconclusive() {
    let _gate = failpoint::exclusive();
    let p = mp_program();
    for workers in [1usize, 2, 8] {
        failpoint::clear();
        // Fire on the third replay: some items complete first, so the
        // degraded verdict must still carry their partial counts.
        failpoint::configure("explore.replay", Action::Oom, 3);
        let v = verify(&p, &config(workers, true));
        let Verdict::Inconclusive(Inconclusive { reason, explored, .. }) = v else {
            panic!("workers={workers}: expected inconclusive, got {v}")
        };
        assert_eq!(reason, StopReason::MemoryBudget, "workers={workers}");
        assert!(explored >= 2, "workers={workers}: explored={explored}");
    }
    failpoint::clear();
}

/// A delay action only slows the run down: the verdict is unchanged.
#[test]
fn injected_delay_does_not_change_the_verdict() {
    let _gate = failpoint::exclusive();
    failpoint::clear();
    failpoint::configure("explore.extend", Action::Delay(5), 1);
    let v = verify(&mp_program(), &config(2, true));
    failpoint::clear();
    assert!(matches!(v, Verdict::Verified), "got {v}");
}

/// A panicking corpus file is quarantined; every *other* file's verdict
/// is byte-identical to a clean run of the same corpus.
#[test]
fn corpus_quarantine_isolates_the_panicking_file() {
    let _gate = failpoint::exclusive();
    let dir = std::env::temp_dir().join(format!("vsync-fault-corpus-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mp = r#"
        litmus "mp"
        thread { store.rlx x, 1  store.rel y, 1 }
        thread { r0 = await_eq.acq y, 1  r1 = load.rlx x  assert r1 == 1, "data visible" }
        expect vmm: verified
    "#;
    let sb = r#"
        litmus "sb"
        thread { store.rlx x, 1  r0 = load.rlx y }
        thread { store.rlx y, 1  r0 = load.rlx x }
        expect vmm: verified
    "#;
    for (name, src) in [("a.litmus", mp), ("b.litmus", sb), ("c.litmus", mp)] {
        std::fs::write(dir.join(name), src).unwrap();
    }
    // `jobs: 1` makes the global hit counter walk the files in path
    // order, so `@2` deterministically lands on b.litmus.
    let opts = CorpusOptions {
        models: Some(vec![ModelKind::Vmm]),
        jobs: 1,
        deadline: Some(Duration::from_secs(60)),
        ..Default::default()
    };
    failpoint::clear();
    let clean = run_corpus(&dir, &opts).unwrap();
    assert!(clean.passed(), "clean run must pass");

    failpoint::clear();
    failpoint::configure("corpus.check", Action::Panic, 2);
    let faulty = run_corpus(&dir, &opts).unwrap();
    failpoint::clear();
    std::fs::remove_dir_all(&dir).ok();

    assert!(!faulty.passed());
    assert!(faulty.errored());
    let quarantined = faulty.quarantined();
    assert_eq!(quarantined.len(), 1, "exactly one file is quarantined");
    assert!(quarantined[0].ends_with("b.litmus"), "{quarantined:?}");
    for (c, f) in clean.files.iter().zip(&faulty.files) {
        assert_eq!(c.path, f.path);
        if f.path.ends_with("b.litmus") {
            continue;
        }
        assert!(f.passed(), "{}: neighbour verdict disturbed", f.path);
        assert_eq!(c.passed(), f.passed(), "{}", f.path);
    }
    let json = faulty.to_json();
    assert!(json.contains("\"quarantined\": ["), "{json}");
    assert!(json.contains("b.litmus"), "{json}");
}
