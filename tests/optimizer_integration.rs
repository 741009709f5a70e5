//! Push-button optimization across the lock catalog: from an all-SC
//! baseline, the optimizer must land on verified, locally-maximal barrier
//! assignments whose shape matches the known-good published modes.

#[path = "support/optimize.rs"]
#[allow(dead_code)]
mod reference;

use reference::is_locally_maximal;
use vsync::core::{optimize, verify, AmcConfig, OptimizerConfig, Session};
use vsync::graph::Mode;
use vsync::lang::Program;
use vsync::locks::model::{mutex_client, CasLock, McsLock, TicketLock, TtasLock};
use vsync::model::ModelKind;

fn config() -> OptimizerConfig {
    OptimizerConfig::with_amc(AmcConfig::with_model(ModelKind::Vmm))
}

fn mode_of(p: &Program, name: &str) -> Mode {
    p.sites()
        .iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("site {name} not found"))
        .mode
}

#[test]
fn caslock_optimizes_to_acquire_release() {
    let base = mutex_client(&CasLock::default(), 2, 1).with_all_sc();
    let report = optimize(&base, &config());
    assert!(report.verified);
    // The CAS needs acquire; the release store needs release; nothing SC.
    assert_eq!(mode_of(&report.program, "caslock.acquire.cas"), Mode::Acq);
    assert_eq!(mode_of(&report.program, "caslock.release.store"), Mode::Rel);
    assert_eq!(report.after.sc, 0);
    assert!(is_locally_maximal(&report.program, &config().amc));
}

#[test]
fn ttas_optimizes_await_to_relaxed() {
    let base = mutex_client(&TtasLock::default(), 2, 1).with_all_sc();
    let report = optimize(&base, &config());
    assert!(report.verified);
    // The polling read carries no ordering duty (the xchg does).
    assert_eq!(mode_of(&report.program, "ttas.acquire.await"), Mode::Rlx);
    assert_eq!(mode_of(&report.program, "ttas.release.store"), Mode::Rel);
    assert!(mode_of(&report.program, "ttas.acquire.xchg").is_acquire());
    assert_eq!(report.after.sc, 0);
    assert!(is_locally_maximal(&report.program, &config().amc));
}

#[test]
fn ticket_optimizes_like_the_experts() {
    let base = mutex_client(&TicketLock::default(), 2, 1).with_all_sc();
    let report = optimize(&base, &config());
    assert!(report.verified);
    // Classic result: relaxed fai, acquire await, release owner bump.
    assert_eq!(mode_of(&report.program, "ticket.acquire.fai"), Mode::Rlx);
    assert_eq!(mode_of(&report.program, "ticket.acquire.await"), Mode::Acq);
    assert_eq!(mode_of(&report.program, "ticket.release.store"), Mode::Rel);
}

#[test]
fn mcs_optimization_keeps_the_dpdk_lesson() {
    // §3.1's lesson: `prev->next = me` must stay release (and its reads
    // acquire) — the optimizer must NOT relax them to rlx.
    let base = mutex_client(&McsLock::default(), 2, 1).with_all_sc();
    let report = optimize(&base, &config());
    assert!(report.verified);
    let store_next = mode_of(&report.program, "mcs.acquire.store_next");
    assert!(store_next.is_release(), "store_next relaxed to {store_next} — the DPDK bug!");
    assert_eq!(report.after.sc, 0, "no SC barrier needed in MCS");
    // The optimized program still verifies from scratch.
    assert!(verify(&report.program, &AmcConfig::with_model(ModelKind::Vmm)).is_verified());
}

#[test]
fn optimized_weaker_or_equal_everywhere() {
    // Relaxation must be pointwise: no site gets *stronger* than all-SC,
    // and the total barrier count never grows.
    let base = mutex_client(&TtasLock::default(), 2, 1).with_all_sc();
    let report = optimize(&base, &config());
    for (before, after) in base.sites().iter().zip(report.program.sites()) {
        assert_eq!(before.name, after.name);
        if !before.relaxable {
            assert_eq!(before.mode, after.mode, "fixed site {} touched", before.name);
        }
    }
    assert!(report.after.sc <= report.before.sc);
}

#[test]
fn multi_scenario_oracle_is_stricter() {
    // With only the trivial 1-thread client, the optimizer would relax
    // everything to rlx; adding the 2-thread scenario stops it.
    let solo = mutex_client(&CasLock::default(), 1, 1).with_all_sc();
    let solo_report = optimize(&solo, &config());
    assert_eq!(solo_report.after.sc + solo_report.after.acq + solo_report.after.rel, 0);

    let mut pair = mutex_client(&CasLock::default(), 2, 1);
    pair.copy_modes_by_name(&solo); // all-SC start
    let session = Session::new(solo).optimize(config()).optimize_scenarios(vec![pair]).run();
    let report = session.models[0].optimization.as_ref().expect("the baseline verified");
    assert!(report.verified);
    assert!(
        report.after.acq >= 1 && report.after.rel >= 1,
        "two-thread scenario must keep acquire/release: {}",
        report.after
    );
}

#[test]
fn optimizer_report_steps_are_replayable() {
    // Applying the accepted steps (recorded by site index) to the
    // baseline reproduces the result; names resolve via the report.
    let base = mutex_client(&CasLock::default(), 2, 1).with_all_sc();
    let report = optimize(&base, &config());
    let mut replayed = base.clone();
    for step in report.steps.iter().filter(|s| s.accepted) {
        assert_eq!(report.site_name(step), base.sites()[step.site as usize].name);
        replayed.set_mode(vsync::lang::ModeRef(step.site), step.to);
    }
    let a: Vec<Mode> = replayed.sites().iter().map(|s| s.mode).collect();
    let b: Vec<Mode> = report.program.sites().iter().map(|s| s.mode).collect();
    assert_eq!(a, b);
}

/// The optimizer is parameterized by the memory model, as the paper notes
/// when discussing an LKMM module (§3.3): under TSO, acquire/release
/// modes are free, so the CAS lock relaxes completely; under VMM the
/// rel/acq pair must stay; under SC everything relaxes too (consistency
/// ignores modes entirely).
#[test]
fn optimization_depends_on_the_memory_model() {
    let base = mutex_client(&CasLock::default(), 2, 1).with_all_sc();
    let per_model = |model: ModelKind| {
        let cfg = OptimizerConfig::with_amc(AmcConfig::with_model(model));
        let report = optimize(&base, &cfg);
        assert!(report.verified, "{model}");
        report.after
    };
    let sc = per_model(ModelKind::Sc);
    assert_eq!((sc.acq, sc.rel, sc.sc), (0, 0, 0), "SC ignores modes: all rlx");
    let tso = per_model(ModelKind::Tso);
    assert_eq!((tso.acq, tso.rel, tso.sc), (0, 0, 0), "TSO gives acq/rel for free");
    let vmm = per_model(ModelKind::Vmm);
    assert_eq!((vmm.acq, vmm.rel, vmm.sc), (1, 1, 0), "VMM needs the rel/acq pair");
}

/// Stronger models accept every assignment a weaker model accepts: the
/// VMM-optimized program still verifies under TSO and SC.
#[test]
fn vmm_optimum_verifies_under_stronger_models() {
    let base = mutex_client(&TtasLock::default(), 2, 1).with_all_sc();
    let cfg = OptimizerConfig::with_amc(AmcConfig::with_model(ModelKind::Vmm));
    let report = optimize(&base, &cfg);
    for model in [ModelKind::Sc, ModelKind::Tso] {
        let v = verify(&report.program, &AmcConfig::with_model(model));
        assert!(v.is_verified(), "{model}: {v}");
    }
}

/// Every catalog output at 2 threads, re-explored by the axiom evaluator
/// with symmetry off — no consistency code shared with the optimizer's
/// oracle or its closing certificate (DESIGN.md §7.5). CI's
/// `close_outputs` bin does the same at 3 threads.
#[test]
fn every_catalog_output_verifies_under_the_axiom_evaluator() {
    let outputs = vsync_bench::reexplore_catalog_outputs(2);
    assert_eq!(outputs.len(), vsync::locks::registry::catalog().len());
    for out in outputs {
        assert!(out.verdict.is_verified(), "{}: {}", out.lock, out.verdict);
    }
}
