//! The verification matrix over the whole model-layer lock catalog:
//! every lock with its published barriers verifies; targeted relaxations
//! of the load-bearing barriers produce violations.

use vsync::core::{explore, verify, AmcConfig, Session, Verdict};
use vsync::model::MemoryModel as _;
use vsync::graph::Mode;
use vsync::locks::model::{
    mutex_client, rwlock_reader_scenario, CasLock, ClhLock, McsLock, RwLock, Semaphore,
    TicketLock, TtasLock,
};
use vsync::locks::registry;
use vsync::locks::SessionExt as _;
use vsync::model::ModelKind;

fn vmm() -> AmcConfig {
    AmcConfig::with_model(ModelKind::Vmm)
}

/// Every registered lock passes the 2-thread generic client across the
/// full model matrix (SC and TSO are stronger than VMM) — one session per
/// lock, straight off the registry.
#[test]
fn catalog_verifies_two_threads_across_models() {
    for name in registry::names() {
        let report = Session::lock(name, 2, 1).models(ModelKind::all()).run();
        assert!(report.is_verified(), "{name}:\n{}", report.render());
        for run in &report.models {
            assert!(
                run.stats.complete_executions > 0,
                "{name} under {} explored nothing",
                run.model
            );
        }
    }
}

/// Three-way contention for the cheap locks (the queue locks take longer;
/// MCS at 3 threads is covered in the scaling test below).
#[test]
fn flat_locks_verify_three_threads() {
    let locks: Vec<Box<dyn vsync::locks::model::LockModel>> = vec![
        Box::new(CasLock::default()),
        Box::new(TicketLock::default()),
        Box::new(Semaphore::default()),
    ];
    for lock in locks {
        let p = mutex_client(lock.as_ref(), 3, 1);
        let v = verify(&p, &vmm());
        assert!(v.is_verified(), "{}: {v}", lock.name());
    }
}

/// MCS with three threads exercises the full queue hand-off chain.
#[test]
fn mcs_verifies_three_threads() {
    let p = mutex_client(&McsLock::default(), 3, 1);
    let r = explore(&p, &vmm());
    assert!(r.is_verified(), "{}", r.verdict);
    // The 3-thread client has hundreds of consistent executions.
    assert!(r.stats.complete_executions > 100, "{}", r.stats);
}

/// Re-acquisition (two rounds per thread) for locks with hand-over state.
#[test]
fn reacquisition_verifies() {
    let locks: Vec<Box<dyn vsync::locks::model::LockModel>> = vec![
        Box::new(TtasLock::default()),
        Box::new(TicketLock::default()),
        Box::new(ClhLock::default()),
    ];
    for lock in locks {
        let p = mutex_client(lock.as_ref(), 2, 2);
        let v = verify(&p, &vmm());
        assert!(v.is_verified(), "{}: {v}", lock.name());
    }
}

/// Targeted mutations: each load-bearing barrier, when relaxed, must break
/// the lock — this is what makes the optimizer's fixpoint meaningful.
#[test]
fn load_bearing_barriers_cannot_be_relaxed() {
    struct Case {
        name: &'static str,
        program: vsync::lang::Program,
    }
    let cases = vec![
        Case {
            name: "caslock release rlx",
            program: mutex_client(
                &CasLock { release_mode: Mode::Rlx, ..CasLock::default() },
                2,
                1,
            ),
        },
        Case {
            name: "ttas xchg rlx",
            program: mutex_client(&TtasLock { xchg_mode: Mode::Rlx, ..TtasLock::default() }, 2, 1),
        },
        Case {
            name: "ticket await rlx",
            program: mutex_client(
                &TicketLock { await_mode: Mode::Rlx, ..TicketLock::default() },
                2,
                1,
            ),
        },
        Case {
            name: "clh await rlx",
            program: mutex_client(&ClhLock { await_mode: Mode::Rlx, ..ClhLock::default() }, 2, 1),
        },
        Case {
            name: "mcs handover rlx",
            program: mutex_client(
                &McsLock { handover_mode: Mode::Rlx, ..McsLock::default() },
                2,
                1,
            ),
        },
        Case {
            name: "semaphore release rlx",
            program: mutex_client(
                &Semaphore { release_mode: Mode::Rlx, ..Semaphore::default() },
                2,
                1,
            ),
        },
    ];
    for case in cases {
        let v = verify(&case.program, &vmm());
        assert!(
            matches!(v, Verdict::Safety(_) | Verdict::AwaitTermination(_)),
            "{}: expected a violation, got {v}",
            case.name
        );
    }
}

/// The same relaxations are harmless under SC: these are weak-memory bugs.
#[test]
fn relaxations_are_fine_under_sc() {
    let p = mutex_client(&TtasLock { xchg_mode: Mode::Rlx, ..TtasLock::default() }, 2, 1);
    assert!(verify(&p, &AmcConfig::with_model(ModelKind::Sc)).is_verified());
}

/// Reader-writer consistency needs both the writer release and the reader
/// acquire.
#[test]
fn rwlock_reader_writer_barriers() {
    assert!(verify(&rwlock_reader_scenario(RwLock::default()), &vmm()).is_verified());
    let broken = RwLock { write_release_mode: Mode::Rlx, ..RwLock::default() };
    assert!(matches!(verify(&rwlock_reader_scenario(broken), &vmm()), Verdict::Safety(_)));
    let broken = RwLock { read_acquire_mode: Mode::Rlx, ..RwLock::default() };
    assert!(matches!(verify(&rwlock_reader_scenario(broken), &vmm()), Verdict::Safety(_)));
}

/// Exploration statistics are self-consistent on a nontrivial program.
#[test]
fn stats_are_coherent() {
    let p = mutex_client(&TtasLock::default(), 2, 1);
    let r = explore(&p, &vmm());
    // The revisit engine's chains take at least one step per constructed
    // root.
    assert!(r.stats.popped >= r.stats.constructed, "{}", r.stats);
    assert_eq!(
        r.executions.len(),
        0,
        "executions only collected when requested"
    );
    let r = explore(&p, &vmm().collecting());
    assert_eq!(r.executions.len() as u64, r.stats.complete_executions);
    // Each collected execution is complete and consistent.
    for g in &r.executions {
        assert!(g.pending_reads().count() == 0);
        assert!(vsync::model::Vmm.is_consistent(g));
    }
}
