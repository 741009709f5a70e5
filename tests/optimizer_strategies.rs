//! Differential tests of the optimizer against its oracle, the sequential
//! ladder in `support/optimize.rs`, which shares only the verifier with
//! it: the optimizer must reproduce the reference's *identical final
//! barrier assignment* — across the full lock registry and for any
//! worker count — and must honor cooperative cancellation without ever
//! keeping an unverified accept.

#[path = "support/optimize.rs"]
#[allow(dead_code)]
mod reference;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use vsync::core::{
    enumerate_maximal, explore, explore_oracle, optimize, optimize_with_certificates, verify,
    AmcConfig, CancelToken, EngineErrorKind, EventKind, ExploreStats, OptimizationReport,
    OptimizationStep, OptimizerConfig, RunControl, Session, Verdict,
};
use vsync::graph::Mode;
use vsync::lang::{Cmp, Fixed, Program, ProgramBuilder, Reg, Test};
use vsync::locks::model::{mutex_client, CasLock};
use vsync::locks::registry;
use vsync::model::{Access, CheckerKind, ModelKind};

fn amc(workers: usize) -> AmcConfig {
    AmcConfig::with_model(ModelKind::Vmm).with_workers(workers)
}

fn config(workers: usize) -> OptimizerConfig {
    OptimizerConfig::with_amc(amc(workers))
}

fn modes(p: &Program) -> Vec<Mode> {
    p.site_modes()
}

fn accepts_after_pass_1(steps: &[OptimizationStep]) -> usize {
    steps.iter().filter(|s| s.pass >= 2 && s.accepted).count()
}

/// Optimize `base` in a session whose token is fired from its event sink
/// on the `n`-th `optimize_step`; also returns how many steps the sink
/// saw.
fn optimize_cancelled_at_step(
    base: &Program,
    n: usize,
    workers: usize,
) -> (OptimizationReport, usize) {
    let session = Session::new(base.clone()).workers(workers).optimize(config(workers));
    let token = session.cancel_token();
    let seen = Arc::new(AtomicUsize::new(0));
    let sink = Arc::clone(&seen);
    let report = session
        .on_event(move |ev| {
            if let EventKind::OptimizeStep { .. } = ev.kind {
                if sink.fetch_add(1, Ordering::Relaxed) + 1 == n {
                    token.cancel();
                }
            }
        })
        .run();
    let opt = report.models.into_iter().next().and_then(|m| m.optimization);
    (opt.expect("the baseline verified, so the optimizer ran"), seen.load(Ordering::Relaxed))
}

/// Explorations an optimizer run pays up to and including its `n`-th
/// decided step: the sink fires the token on that step, and every later
/// candidate is preceded by an interrupt check, so nothing after it is
/// explored (an interrupted run also skips the deferred baseline check).
fn explorations_through_step(base: &Program, n: usize) -> u64 {
    optimize_cancelled_at_step(base, n, 1).0.explorations
}

/// Every registered lock, 2-thread client, from the all-SC baseline: the
/// optimizer lands on the sequential reference's exact final assignment,
/// and its whole step list — rejections included — is the reference's
/// at workers ∈ {1, 2, 8} (one thread decides every step; the workers
/// only size each exploration).
///
/// Also pins the premise the one-ladder fixpoint rests on (DESIGN.md
/// §7.3): with no fault-class rejection, neither search accepts anything
/// after pass 1, and the optimizer pays no exploration after pass 1 —
/// every later step is answered by the rejection memo.
#[test]
fn strategies_agree_across_the_full_registry() {
    for entry in registry::catalog() {
        let name = entry.name;
        let base = entry.client(2, 1).with_all_sc();
        let seq = reference::sequential(&base, &[], &amc(1));
        assert!(seq.verified, "{name}: reference baseline failed");
        assert_eq!(accepts_after_pass_1(&seq.steps), 0, "{name}: reference");

        let runs = [1usize, 2, 8].map(|workers| (workers, optimize(&base, &config(workers))));
        for (workers, r) in &runs {
            assert!(r.verified, "{name}: optimizer failed to verify");
            assert_eq!(
                modes(&seq.program),
                modes(&r.program),
                "{name}: optimizer (workers={workers}) diverged from the reference"
            );
            // The accepted steps replay to the same assignment.
            let mut replayed = base.clone();
            for step in r.steps.iter().filter(|s| s.accepted) {
                replayed.set_mode(vsync::lang::ModeRef(step.site), step.to);
            }
            assert_eq!(
                modes(&replayed),
                modes(&r.program),
                "{name}: optimizer steps are not replayable"
            );
            assert_eq!(accepts_after_pass_1(&r.steps), 0, "{name}: optimizer/{workers}");
            // Decisions only: which violating execution a multi-worker
            // exploration finds first — and so what the witness cache can
            // replay later — may differ, moving `cache_hits` against
            // `explorations`.
            assert_eq!(
                seq.steps, r.steps,
                "{name}: steps differ from the reference's at {workers} workers"
            );
        }

        let r = &runs[0].1;
        let pass_1 = r.steps.iter().filter(|s| s.pass == 1).count();
        assert!(pass_1 < r.steps.len(), "{name}: no fixpoint pass ran");
        assert_eq!(
            explorations_through_step(&base, pass_1),
            r.explorations,
            "{name}: optimizer explored after pass 1"
        );
    }
}

/// Message passing from all-SC whose reader spins *locally* on a stale
/// data read: the one input on which passes after the first still have
/// something to decide. Relaxing `flag.store` or `flag.poll` to `rlx`
/// admits the stale read, the local loop exhausts the replay budget and
/// the candidate is rejected with `Verdict::Fault` — no witness, outside
/// the monotonicity argument, so never memoized.
fn mp_with_local_spin() -> Program {
    let mut pb = ProgramBuilder::new("mp-spin");
    pb.thread(|t| {
        t.store(0x10, 1u64, ("data.store", Mode::Sc));
        t.store(0x20, 1u64, ("flag.store", Mode::Sc));
    });
    pb.thread(|t| {
        t.await_eq(Reg(0), 0x20, 1u64, ("flag.poll", Mode::Sc));
        t.load(Reg(1), 0x10, ("data.load", Mode::Sc));
        let l = t.here_label();
        t.jmp_if(Reg(1), Test::eq(0u64), l);
    });
    pb.build().unwrap()
}

/// Fault-class rejections are re-decided by the pass-2 ladder — once
/// each. The reference pays 9 explorations (baseline + 6 + 2); the
/// optimizer verifies 13 candidates: its pass 1, the two pass-2
/// re-decisions and the deferred baseline check that `fault_seen`
/// forces. Two of them — `flag.store` to `rel` and `flag.poll` to `acq`,
/// each against the verified all-`sc` base — are certified, so it
/// explores 11. (The screening pool this ladder replaced decided each of
/// the two twice — screen, then fallback — for 15.)
#[test]
fn fault_class_rejections_are_redecided_once_in_pass_2() {
    let base = mp_with_local_spin();
    let want = vec![Mode::Rlx, Mode::Rel, Mode::Acq, Mode::Rlx];
    let redecided = |steps: &[OptimizationStep]| -> Vec<(u32, Mode, bool)> {
        steps.iter().filter(|s| s.pass >= 2).map(|s| (s.site, s.to, s.accepted)).collect()
    };
    let flag_sites_to_rlx = vec![(1, Mode::Rlx, false), (2, Mode::Rlx, false)];

    let seq = reference::sequential(&base, &[], &amc(1));
    assert!(seq.verified);
    assert_eq!(modes(&seq.program), want);
    assert_eq!(redecided(&seq.steps), flag_sites_to_rlx);
    assert_eq!(seq.explorations, 9);

    for workers in [1, 2] {
        let ad = optimize(&base, &config(workers));
        assert!(ad.verified && !ad.interrupted, "the deferred baseline check must run and pass");
        assert_eq!(modes(&ad.program), want);
        assert_eq!(ad.cache_hits, 0, "a fault leaves no witness and no memo entry");
        assert_eq!(redecided(&ad.steps), flag_sites_to_rlx);
        assert_eq!(ad.verifications, 13, "workers={workers}");
        assert_eq!((ad.explorations, ad.certified), (11, 2), "workers={workers}");
        assert_eq!(ad.steps, seq.steps, "same decisions in the same order");
    }
}

/// `stats` without its phase times, the one part that is not a function
/// of the program.
fn counters(mut stats: ExploreStats) -> ExploreStats {
    stats.phases = Default::default();
    stats
}

/// A certified acceptance takes the decision an exploration would have
/// taken (DESIGN.md §7.4). On the catalog locks `pick` selects, at 2 and 3
/// threads, symmetry off: each certified candidate, re-explored, verifies
/// with exactly its base exploration's counters, and the optimizer's
/// steps and assignment are the sequential ladder's. Returns how many
/// candidates were certified.
fn certified_candidates_explore_like_their_base(pick: impl Fn(&str) -> bool) -> u64 {
    let amc = AmcConfig { symmetry: false, ..amc(1) };
    let mut certified = 0;
    for entry in registry::catalog().iter().filter(|e| pick(e.name)) {
        for threads in [2, 3] {
            let name = format!("{}-{threads}t", entry.name);
            let base = entry.client(threads, 1).with_all_sc();
            let (r, certificates) =
                optimize_with_certificates(&base, &OptimizerConfig::with_amc(amc.clone()));
            assert!(r.verified, "{name}");
            assert_eq!(r.explorations + r.certified, r.verifications, "{name}");
            assert_eq!(certificates.len() as u64, r.certified, "{name}: one slot each");
            for (vouching, candidate) in &certificates {
                let (want, got) = (explore(vouching, &amc), explore(candidate, &amc));
                assert!(want.is_verified() && got.is_verified(), "{name}");
                assert_eq!(counters(got.stats), counters(want.stats), "{name}");
            }
            certified += r.certified;
            let seq = reference::sequential(&base, &[], &amc);
            assert_eq!(seq.steps, r.steps, "{name}: steps differ from the reference's");
            assert_eq!(modes(&seq.program), modes(&r.program), "{name}");
        }
    }
    certified
}

#[test]
fn certified_candidates_explore_like_their_base_on_the_catalog() {
    let certified = certified_candidates_explore_like_their_base(|lock| lock != "qspinlock");
    assert!(certified > 0, "no candidate was certified");
}

/// qspinlock apart, its 3-thread ladder being a test of its own. Nothing
/// is certified: each of its accepted relaxations goes to `rlx`, or takes
/// an RMW or a fence to `acq` or `rel`, short of `acq_rel`.
#[test]
fn certified_candidates_explore_like_their_base_on_qspinlock() {
    assert_eq!(certified_candidates_explore_like_their_base(|lock| lock == "qspinlock"), 0);
}

/// SB with `sc` fences guarding a counter (`corpus/dekker_fences.litmus`),
/// next to a relaxable message-passing pair.
fn dekker_with_mp() -> Program {
    let (me, counter, data, flag) = ([0x10u64, 0x18], 0x20u64, 0x30u64, 0x38u64);
    let mut pb = ProgramBuilder::new("dekker+mp");
    for t in 0..2 {
        pb.thread(|b| {
            let skip = b.label();
            b.store(me[t], 1u64, Fixed(Mode::Rlx));
            b.fence((["fence.0", "fence.1"][t], Mode::Sc));
            b.load(Reg(0), me[1 - t], Fixed(Mode::Rlx));
            b.jmp_if(Reg(0), Test::ne(0u64), skip);
            b.load(Reg(1), counter, Fixed(Mode::Rlx));
            b.add(Reg(1), Reg(1), 1u64);
            b.store(counter, Reg(1), Fixed(Mode::Rlx));
            b.bind(skip);
            if t == 0 {
                b.store(data, 1u64, ("data.store", Mode::Sc));
                b.store(flag, 1u64, ("flag.store", Mode::Sc));
            } else {
                b.await_eq(Reg(2), flag, 1u64, ("flag.poll", Mode::Sc));
                b.load(Reg(3), data, ("data.load", Mode::Sc));
                b.assert_eq(Reg(3), 1u64, "data visible");
            }
        });
    }
    pb.final_check(counter, Test::cmp(Cmp::Le, 1u64), "mutual exclusion");
    pb.build().unwrap()
}

/// A base whose SC axiom rejected something vouches for nothing: every
/// verified exploration of the Dekker client needs its `sc` fences, so
/// its `psc` rejects the store-buffering outcome, and each fence's
/// `sc -> acq_rel` candidate is explored — and refuted.
#[test]
fn a_base_that_needs_sc_certifies_nothing() {
    let base = dekker_with_mp();
    for workers in [1, 2] {
        let out = explore_oracle(&base, &amc(workers), &RunControl::default());
        assert!(out.result.is_verified());
        assert!(out.sc_rejections.is_some_and(|n| n > 0), "{workers}: {:?}", out.sc_rejections);
    }

    let r = optimize(&base, &config(1));
    assert!(r.verified);
    assert_eq!(r.certified, 0);
    assert_eq!(r.explorations, r.verifications);
    let site = |name: &str| base.sites().iter().position(|s| s.name == name).unwrap() as u32;
    for fence in ["fence.0", "fence.1"] {
        let tried = r.steps.iter().find(|s| s.site == site(fence) && s.to == Mode::AcqRel);
        assert!(tried.is_some_and(|s| !s.accepted), "{fence}: {tried:?}");
        assert_eq!(r.program.sites()[site(fence) as usize].mode, Mode::Sc, "{fence}");
    }
    let seq = reference::sequential(&base, &[], &amc(1));
    assert_eq!(seq.steps, r.steps);
    let mode = |name: &str| r.program.sites()[site(name) as usize].mode;
    let mp = ["data.store", "flag.store", "flag.poll", "data.load"].map(mode);
    assert_eq!(mp, [Mode::Rlx, Mode::Rel, Mode::Acq, Mode::Rlx]);
}

/// A symmetric client certifies nothing while symmetry is on (orbit
/// representatives read mode tags), and the axiom evaluator, which
/// cannot tell its SC-axiom rejections apart, certifies nothing at all.
#[test]
fn symmetry_and_the_reference_checker_refuse_certification() {
    let ttas = registry::entry("ttas").unwrap().client(2, 1).with_all_sc();
    let on = optimize(&ttas, &config(1));
    let off = optimize(&ttas, &OptimizerConfig::with_amc(AmcConfig { symmetry: false, ..amc(1) }));
    assert_eq!(on.certified, 0);
    assert!(off.certified > 0, "the refusal is the symmetry's");
    assert_eq!(on.steps, off.steps);

    let mcs = registry::entry("mcs").unwrap().client(2, 1).with_all_sc();
    let reference = AmcConfig { checker: CheckerKind::Reference, ..amc(1) };
    assert_eq!(explore_oracle(&mcs, &reference, &RunControl::default()).sc_rejections, None);
    let by_axioms = optimize(&mcs, &OptimizerConfig::with_amc(reference));
    let by_clocks = optimize(&mcs, &config(1));
    assert_eq!((by_axioms.certified, by_axioms.explorations), (0, 13));
    assert_eq!((by_clocks.certified, by_clocks.explorations), (6, 7));
    assert_eq!(by_axioms.steps, by_clocks.steps);
}

/// Two twin publishers, each with a flag store of its own, and a reader.
/// Each flag store must be `rel`. The twins are symmetric exactly when
/// both stores carry the same mode.
fn twin_publishers() -> Program {
    let (data, flag) = (0x10u64, 0x20u64);
    let mut pb = ProgramBuilder::new("twin-publishers");
    for site in ["flag.store.0", "flag.store.1"] {
        pb.thread(|t| {
            t.store(data, 1u64, Fixed(Mode::Rlx));
            t.store(flag, 1u64, (site, Mode::Sc));
        });
    }
    pb.thread(|t| {
        t.await_eq(Reg(0), flag, 1u64, Fixed(Mode::Acq));
        t.load(Reg(1), data, Fixed(Mode::Rlx));
        t.assert_eq(Reg(1), 1u64, "data visible");
    });
    pb.build().unwrap()
}

/// A candidate whose run becomes symmetric is explored even when its base
/// was not: `rel, sc` verifies and vouches for `rel, rel` only with
/// symmetry off. With it on, `rel, rel` makes the publishers twins, whose
/// orbit representatives read mode tags.
#[test]
fn a_candidate_that_becomes_symmetric_is_explored() {
    let base = twin_publishers();
    let on = optimize(&base, &config(1));
    let off = optimize(&base, &OptimizerConfig::with_amc(AmcConfig { symmetry: false, ..amc(1) }));
    let flags = on.program.sites().iter().filter(|s| s.relaxable).map(|s| s.mode);
    assert_eq!(flags.collect::<Vec<_>>(), [Mode::Rel, Mode::Rel]);
    assert_eq!(on.steps, off.steps);
    assert_eq!((on.certified, off.certified), (0, 1));
}

/// The multi-scenario oracle keeps the equivalence: the extra scenario
/// constrains the optimizer and the reference identically.
#[test]
fn strategies_agree_with_extra_scenarios() {
    let solo = mutex_client(&CasLock::default(), 1, 1).with_all_sc();
    let mut pair = mutex_client(&CasLock::default(), 2, 1);
    pair.copy_modes_by_name(&solo);
    let seq = reference::sequential(&solo, std::slice::from_ref(&pair), &amc(1));
    assert!(seq.verified);
    for workers in [1, 2] {
        let report = Session::new(solo.clone())
            .workers(workers)
            .optimize(config(workers))
            .optimize_scenarios(vec![pair.clone()])
            .run();
        let r = report.models[0].optimization.as_ref().expect("the baseline verified");
        assert!(r.verified, "workers={workers}");
        assert_eq!(modes(&seq.program), modes(&r.program), "workers={workers}");
    }
}

/// The optimizer needs at most half the full explorations of the
/// sequential reference on a lock with a non-trivial site table.
#[test]
fn adaptive_explores_less_than_sequential() {
    let base = registry::entry("mcs").unwrap().client(2, 1).with_all_sc();
    let seq = reference::sequential(&base, &[], &amc(1));
    let ad = optimize(&base, &config(1));
    assert!(
        2 * ad.explorations <= seq.explorations,
        "optimizer {} vs reference {} explorations",
        ad.explorations,
        seq.explorations
    );
    assert!(ad.cache_hits > 0, "the witness cache never fired");
}

/// A session token fired from the event sink on the first
/// `optimize_step` interrupts the optimizer mid-bisection; every
/// accept kept in the report is individually (or batch-) verified, so
/// the partial program still verifies and is pointwise weaker-or-equal
/// than the baseline.
#[test]
fn mid_bisect_interrupt_keeps_a_verified_partial_assignment() {
    for workers in [1, 2, 8] {
        let base = registry::entry("ttas").unwrap().client(2, 1).with_all_sc();
        let (report, fired) = optimize_cancelled_at_step(&base, 1, workers);
        assert!(fired > 0, "workers={workers}: no step event fired");
        assert!(report.interrupted, "workers={workers}: not interrupted");
        assert!(report.verified, "workers={workers}: baseline lost");
        // Whatever was kept verifies from scratch...
        assert!(
            verify(&report.program, &AmcConfig::with_model(ModelKind::Vmm)).is_verified(),
            "workers={workers}: partial assignment does not verify"
        );
        // ...and never strengthens a site beyond the baseline.
        for (b, a) in base.sites().iter().zip(report.program.sites()) {
            if !b.relaxable {
                assert_eq!(b.mode, a.mode, "workers={workers}: fixed site {} touched", b.name);
            }
        }
    }
}

/// A pre-fired token stops the optimizer before any relaxation
/// attempt: verified-unknown (`false` + interrupted), no steps, program
/// untouched.
#[test]
fn prefired_token_stops_before_any_attempt() {
    let base = registry::entry("caslock").unwrap().client(2, 1).with_all_sc();
    let token = CancelToken::new();
    token.cancel();
    let report = optimize(&base, &config(1).with_cancel(token));
    assert!(report.interrupted);
    assert!(!report.verified, "baseline was never verified: must report unknown");
    assert!(report.steps.is_empty());
    assert_eq!(modes(&report.program), modes(&base));
    assert_eq!(report.explorations, 0, "no exploration ran");
}

/// `enumerate_maximal` honors cancellation: a pre-fired token yields the
/// empty set immediately; a token fired after the first exploration stops
/// the odometer early and reports only minimal elements of what was seen.
#[test]
fn enumerate_maximal_cancellation() {
    let base = mutex_client(&CasLock::default(), 2, 1).with_all_sc();
    let prefired = CancelToken::new();
    prefired.cancel();
    let cfg = OptimizerConfig::with_amc(AmcConfig::with_model(ModelKind::Vmm))
        .with_cancel(prefired);
    let (names, maximal) = enumerate_maximal(&base, &cfg);
    assert_eq!(names.len(), base.relaxable_sites().len());
    assert!(maximal.is_empty(), "pre-fired cancel must yield nothing: {maximal:?}");

    // Uncancelled for reference: the caslock's maximal set is non-empty
    // and contains the greedy optimum.
    let cfg = OptimizerConfig::with_amc(AmcConfig::with_model(ModelKind::Vmm));
    let (_, maximal) = enumerate_maximal(&base, &cfg);
    assert!(!maximal.is_empty());
    let greedy = optimize(&base, &cfg);
    let greedy_modes: Vec<Mode> = base
        .relaxable_sites()
        .iter()
        .map(|&i| greedy.program.sites()[i as usize].mode)
        .collect();
    assert!(maximal.contains(&greedy_modes), "{greedy_modes:?} not in {maximal:?}");
}

/// Interrupting *between* oracle calls via a deadline also lands on a
/// verified-or-unknown state (no worker hangs).
#[test]
fn zero_deadline_interrupts_the_optimizer() {
    use vsync::locks::SessionExt as _;
    let report = Session::lock("ttas", 2, 1)
        .deadline(std::time::Duration::ZERO)
        .optimize(OptimizerConfig::default())
        .run();
    // The exploration itself already hits the deadline, so the optimizer
    // never runs — the point is that nothing hangs and the report is
    // coherent.
    assert!(report.is_interrupted());
    assert!(matches!(report.models[0].verdict, Verdict::Inconclusive(_)));
}

/// The VMM certificate, mutated to also vouch for `sc -> rlx`.
fn certifies_sc_to_rlx_too(symmetric: bool, changes: &[(Access, Mode, Mode)]) -> bool {
    let vmm = ModelKind::Vmm.checker(CheckerKind::Fast);
    !symmetric
        && changes.iter().all(|&change| {
            vmm.certifies(false, &[change]) || (change.1 == Mode::Sc && change.2 == Mode::Rlx)
        })
}

/// The closing certificate catches a wrong shortcut (DESIGN.md §7.5):
/// with a certifier that also vouches for `sc -> rlx`, every catalog
/// output at 2 threads either still verifies from scratch or is reported
/// as an engine error naming the last accepted step, never `verified`.
/// On mcs (and four more queue locks) the mutation fires.
#[test]
fn a_wrong_certificate_is_an_error_not_a_verdict() {
    let mut caught = Vec::new();
    for entry in registry::catalog() {
        let name = entry.name;
        let base = entry.client(2, 1).with_all_sc();
        let report =
            Session::new(base).optimize(config(1)).run_with_certifier(certifies_sc_to_rlx_too);
        let run = &report.models[0];
        let opt = run.optimization.as_ref().expect("the all-sc input verifies");
        match &run.verdict {
            Verdict::Verified => {
                assert!(opt.verified && opt.error.is_none(), "{name}");
                assert!(verify(&opt.program, &amc(1)).is_verified(), "{name}: a wrong `verified`");
            }
            Verdict::Error(e) => {
                let last = opt.steps.iter().rev().find(|s| s.accepted).expect("an accept");
                let step = format!("`{}: {} -> {}`", opt.site_name(last), last.from, last.to);
                assert!(e.payload.contains(&step), "{name}: {e} does not name {step}");
                assert!(e.payload.contains("violation"), "{name}: {e}");
                assert_eq!(e.kind, EngineErrorKind::FailedCheck, "{name}");
                assert!(e.to_string().starts_with("failed check in optimize phase: "), "{name}");
                assert_eq!(opt.error.as_ref(), Some(e), "{name}");
                assert!(!opt.verified && opt.closing > 0, "{name}");
                assert!(!report.is_verified() && report.is_errored(), "{name}");
                assert!(!verify(&opt.program, &amc(1)).is_verified(), "{name}");
                caught.push(name);
            }
            v => panic!("{name}: {v}"),
        }
    }
    assert!(caught.contains(&"mcs"), "the mutation never fired on mcs: {caught:?}");
}
