//! Classic weak-memory litmus tests, cross-checked against all three
//! memory models with exact consistent-execution counts.
//!
//! These pin down the semantics of the whole stack (language → replay →
//! explorer → model): a change that silently weakens or strengthens any
//! layer shifts these counts.

use vsync::core::{count_executions, verify, AmcConfig, Verdict};
use vsync::graph::Mode;
use vsync::lang::{Program, ProgramBuilder, Reg};
use vsync::model::ModelKind;

const X: u64 = 0x10;
const Y: u64 = 0x20;

fn counts(p: &Program) -> (u64, u64, u64) {
    let run = |m: ModelKind| count_executions(p, &AmcConfig::with_model(m));
    (run(ModelKind::Sc), run(ModelKind::Tso), run(ModelKind::Vmm))
}

/// [`counts`] with thread-symmetry reduction disabled: the naive per-twin
/// execution counts, retained as the reference oracle for the orbit
/// counts above (all other litmus shapes have asymmetric threads, so
/// their counts are identical either way).
fn counts_naive(p: &Program) -> (u64, u64, u64) {
    let run = |m: ModelKind| count_executions(p, &AmcConfig::with_model(m).without_symmetry());
    (run(ModelKind::Sc), run(ModelKind::Tso), run(ModelKind::Vmm))
}

/// SB: store buffering. rf combinations: 2x2 = 4; SC forbids (0,0).
#[test]
fn sb_relaxed() {
    let mut pb = ProgramBuilder::new("sb");
    for (a, b) in [(X, Y), (Y, X)] {
        pb.thread(move |t| {
            t.store(a, 1u64, Mode::Rlx);
            t.load(Reg(0), b, Mode::Rlx);
        });
    }
    assert_eq!(counts(&pb.build().unwrap()), (3, 4, 4));
}

/// SB with SC fences: everyone agrees with SC.
#[test]
fn sb_with_sc_fences() {
    let mut pb = ProgramBuilder::new("sb+f");
    for (a, b) in [(X, Y), (Y, X)] {
        pb.thread(move |t| {
            t.store(a, 1u64, Mode::Rlx);
            t.fence(Mode::Sc);
            t.load(Reg(0), b, Mode::Rlx);
        });
    }
    assert_eq!(counts(&pb.build().unwrap()), (3, 3, 3));
}

/// MP: message passing with relaxed flag. The stale-data outcome exists
/// only under VMM (TSO keeps both store order and load order).
#[test]
fn mp_relaxed() {
    let mut pb = ProgramBuilder::new("mp");
    pb.thread(|t| {
        t.store(X, 1u64, Mode::Rlx); // data
        t.store(Y, 1u64, Mode::Rlx); // flag
    });
    pb.thread(|t| {
        t.load(Reg(0), Y, Mode::Rlx);
        t.load(Reg(1), X, Mode::Rlx);
    });
    // rf choices: flag in {0,1} x data in {0,1} = 4 candidates.
    // SC/TSO forbid flag=1 && data=0.
    assert_eq!(counts(&pb.build().unwrap()), (3, 3, 4));
}

/// MP with release/acquire: the stale outcome disappears under VMM too.
#[test]
fn mp_release_acquire() {
    let mut pb = ProgramBuilder::new("mp+ra");
    pb.thread(|t| {
        t.store(X, 1u64, Mode::Rlx);
        t.store(Y, 1u64, Mode::Rel);
    });
    pb.thread(|t| {
        t.load(Reg(0), Y, Mode::Acq);
        t.load(Reg(1), X, Mode::Rlx);
    });
    assert_eq!(counts(&pb.build().unwrap()), (3, 3, 3));
}

/// LB: load buffering. The po∪rf cycle (both read 1) is forbidden by all
/// our models (VMM is RC11-style; IMM would allow it without deps — a
/// documented substitution, DESIGN.md §5).
#[test]
fn lb_relaxed() {
    let mut pb = ProgramBuilder::new("lb");
    for (a, b) in [(X, Y), (Y, X)] {
        pb.thread(move |t| {
            t.load(Reg(0), a, Mode::Rlx);
            t.store(b, 1u64, Mode::Rlx);
        });
    }
    assert_eq!(counts(&pb.build().unwrap()), (3, 3, 3));
}

/// CoRR: read-read coherence. Two reads of the same location never
/// observe writes in anti-mo order, under every model.
#[test]
fn corr_coherence() {
    let mut pb = ProgramBuilder::new("corr");
    pb.thread(|t| {
        t.store(X, 1u64, Mode::Rlx);
    });
    pb.thread(|t| {
        t.store(X, 2u64, Mode::Rlx);
    });
    pb.thread(|t| {
        t.load(Reg(0), X, Mode::Rlx);
        t.load(Reg(1), X, Mode::Rlx);
        // If we saw 1 then something, and both writes are ordered 1 -> 2,
        // we can never see (2, 1) / (1, 0) / (2, 0).
    });
    // Executions: mo orders (2) x reader rf pairs consistent with each mo.
    // Per mo [w1,w2]: (r0,r1) in {(0,0),(0,1),(0,2),(1,1),(1,2),(2,2)} = 6.
    // Total 12 per model (coherence is model-independent here).
    assert_eq!(counts(&pb.build().unwrap()), (12, 12, 12));
}

/// 2+2W: write-write reordering. All models agree here because mo is
/// per-location total anyway; counts are the two mo orders per location
/// minus cyclically-forbidden combinations under SC.
#[test]
fn two_plus_two_w() {
    let mut pb = ProgramBuilder::new("2+2w");
    pb.thread(|t| {
        t.store(X, 1u64, Mode::Rlx);
        t.store(Y, 2u64, Mode::Rlx);
    });
    pb.thread(|t| {
        t.store(Y, 1u64, Mode::Rlx);
        t.store(X, 2u64, Mode::Rlx);
    });
    let (sc, tso, vmm) = counts(&pb.build().unwrap());
    // 4 mo combinations exist; SC forbids the both-"1 last" cycle.
    assert_eq!(sc, 3);
    assert_eq!(tso, 3, "TSO keeps W->W order");
    assert_eq!(vmm, 4, "VMM allows both anti-po mo orders");
}

/// IRIW: independent reads of independent writes. With SC accesses the
/// readers must agree on an order; relaxed readers may disagree.
#[test]
fn iriw() {
    let build = |mode: Mode| {
        let mut pb = ProgramBuilder::new("iriw");
        pb.thread(move |t| {
            t.store(X, 1u64, mode);
        });
        pb.thread(move |t| {
            t.store(Y, 1u64, mode);
        });
        pb.thread(move |t| {
            t.load(Reg(0), X, mode);
            t.load(Reg(1), Y, mode);
        });
        pb.thread(move |t| {
            t.load(Reg(0), Y, mode);
            t.load(Reg(1), X, mode);
        });
        pb.build().unwrap()
    };
    let relaxed = count_executions(&build(Mode::Rlx), &AmcConfig::with_model(ModelKind::Vmm));
    let sc_accesses = count_executions(&build(Mode::Sc), &AmcConfig::with_model(ModelKind::Vmm));
    let under_sc = count_executions(&build(Mode::Rlx), &AmcConfig::with_model(ModelKind::Sc));
    assert_eq!(relaxed, 16, "all rf combinations");
    assert!(sc_accesses < relaxed, "SC accesses forbid disagreement");
    assert_eq!(sc_accesses, under_sc, "psc on all-SC events == SC");
}

/// IRIW with each reader scheduled *before* the writer of the location it
/// reads last: `T0: Rx; Ry`, `T1: Wy`, `T2: Ry; Rx`, `T3: Wx`. The reads
/// `T0.Ry` and `T2.Rx` can only come to see 1 through a backward revisit.
/// Under the relaxed model all 16 rf combinations are consistent; SC and
/// TSO forbid the one where the readers disagree on the order of the
/// writes (the same counts [`iriw`] pins with the writers first).
///
/// Known defect (DESIGN.md §12): the engine reports (14, 14, 15), missing
/// `T0:(x=0, y=1) ∧ T2:(y=0, x=1)` under every model. That execution needs
/// both `Wy`'s revisit of `T0.Ry` and `Wx`'s revisit of `T2.Rx`, but a
/// revisit keeps only `porf-prefix(w) ∪ porf-prefix(r)` and so deletes
/// events *older* than `r`: the first deletes `T2`, the second deletes
/// `T0`, and neither survives the other.
#[test]
#[ignore = "revisit over-deletion, DESIGN.md §12"]
fn iriw_readers_first() {
    let mut pb = ProgramBuilder::new("iriw-readers-first");
    for (first, second) in [(X, Y), (Y, X)] {
        pb.thread(move |t| {
            t.load(Reg(0), first, Mode::Rlx);
            t.load(Reg(1), second, Mode::Rlx);
        });
        pb.thread(move |t| {
            t.store(second, 1u64, Mode::Rlx);
        });
    }
    assert_eq!(counts(&pb.build().unwrap()), (15, 15, 16));
}

/// Atomicity: two unconditional RMWs on one location always chain. The
/// two chains are thread-relabelings of each other: one canonical orbit
/// under symmetry reduction, two executions for the naive reference
/// oracle (`--no-symmetry`).
#[test]
fn rmw_chain() {
    let mut pb = ProgramBuilder::new("fai2");
    for _ in 0..2 {
        pb.thread(|t| {
            t.fetch_add(Reg(0), X, 1u64, Mode::Rlx);
        });
    }
    pb.final_check(X, vsync::lang::Test::eq(2u64), "both adds applied");
    let p = pb.build().unwrap();
    for model in ModelKind::all() {
        let v = verify(&p, &AmcConfig::with_model(model));
        assert!(v.is_verified(), "{model}: {v}");
    }
    assert_eq!(counts(&p), (1, 1, 1), "canonical orbits");
    assert_eq!(counts_naive(&p), (2, 2, 2), "relabeled twins, reference oracle");
}

/// A CAS that must fail in half the executions: count both branches.
#[test]
fn cas_branches() {
    let mut pb = ProgramBuilder::new("cas-race");
    for _ in 0..2 {
        pb.thread(|t| {
            t.cas(Reg(0), X, 0u64, 1u64, Mode::AcqRel);
        });
    }
    let p = pb.build().unwrap();
    // One thread wins (reads 0), the loser reads the winner's 1 (its CAS
    // fails, no write). 2 executions by symmetry... plus the loser may
    // also read the init 0? No: atomicity forbids two successful CASes,
    // and a failed CAS reading 0 would have succeeded. So exactly 2 —
    // which are relabelings of each other: 1 canonical orbit.
    assert_eq!(counts(&p), (1, 1, 1), "canonical orbits");
    assert_eq!(counts_naive(&p), (2, 2, 2), "relabeled twins, reference oracle");
}

/// Fences must not be anarchically removed: Dekker-style mutual exclusion
/// with SC fences verifies; without them it must fail.
#[test]
fn dekker_needs_fences() {
    let build = |with_fences: bool| {
        let mut pb = ProgramBuilder::new("dekker");
        for (me, other) in [(X, Y), (Y, X)] {
            pb.thread(move |t| {
                let skip = t.label();
                t.store(me, 1u64, Mode::Rlx);
                if with_fences {
                    t.fence(Mode::Sc);
                }
                t.load(Reg(0), other, Mode::Rlx);
                t.jmp_if(Reg(0), vsync::lang::Test::ne(0u64), skip);
                // Critical section: increment the counter.
                t.load(Reg(1), 0x30, Mode::Rlx);
                t.add(Reg(2), Reg(1), 1u64);
                t.store(0x30, Reg(2), Mode::Rlx);
                t.bind(skip);
            });
        }
        // At most one thread may enter: counter <= 1.
        pb.final_check(0x30, vsync::lang::Test::cmp(vsync::lang::Cmp::Le, 1u64), "mutual exclusion");
        pb.build().unwrap()
    };
    let v = verify(&build(true), &AmcConfig::with_model(ModelKind::Vmm));
    assert!(v.is_verified(), "{v}");
    let v = verify(&build(false), &AmcConfig::with_model(ModelKind::Vmm));
    assert!(matches!(v, Verdict::Safety(_)), "got {v}");
}
