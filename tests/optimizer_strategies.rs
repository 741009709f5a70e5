//! Differential tests of the optimizer's search strategies: the adaptive
//! engine must reproduce the *identical final barrier assignment* of the
//! sequential reference loop — across the full lock registry and for any
//! worker count — and every strategy must honor cooperative cancellation
//! without ever keeping an unverified accept.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use vsync::core::{
    enumerate_maximal, optimize, optimize_multi, verify, AmcConfig, CancelToken,
    OptimizeStrategy, OptimizerConfig, Verdict,
};
use vsync::graph::Mode;
use vsync::lang::Program;
use vsync::locks::model::{mutex_client, CasLock};
use vsync::locks::registry;
use vsync::model::ModelKind;

fn config(strategy: OptimizeStrategy, workers: usize) -> OptimizerConfig {
    OptimizerConfig::with_amc(AmcConfig::with_model(ModelKind::Vmm).with_workers(workers))
        .with_strategy(strategy)
}

fn modes(p: &Program) -> Vec<Mode> {
    p.site_modes()
}

/// Every registered lock, 2-thread client, from the all-SC baseline:
/// adaptive lands on the sequential reference's exact final assignment.
/// Worker counts rotate through {1, 2, 8} across the registry
/// so each count covers several locks without a full cross product.
#[test]
fn strategies_agree_across_the_full_registry() {
    let worker_counts = [1usize, 2, 8];
    for (i, entry) in registry::catalog().iter().enumerate() {
        let base = entry.client(2, 1).with_all_sc();
        let workers = worker_counts[i % worker_counts.len()];
        let seq = optimize(&base, &config(OptimizeStrategy::Sequential, 1));
        assert!(seq.verified, "{}: sequential baseline failed", entry.name);
        let strategy = OptimizeStrategy::Adaptive;
        let r = optimize(&base, &config(strategy, workers));
        assert!(r.verified, "{}: {strategy} failed to verify", entry.name);
        assert_eq!(
            modes(&seq.program),
            modes(&r.program),
            "{}: {strategy} (workers={workers}) diverged from sequential",
            entry.name
        );
        // The accepted steps replay to the same assignment.
        let mut replayed = base.clone();
        for step in r.steps.iter().filter(|s| s.accepted) {
            replayed.set_mode(vsync::lang::ModeRef(step.site), step.to);
        }
        assert_eq!(
            modes(&replayed),
            modes(&r.program),
            "{}: {strategy} steps are not replayable",
            entry.name
        );
    }
}

/// The closure-oracle reference loop (`optimize_with`) and the engine's
/// sequential strategy are two copies of the same semantics — this pins
/// them together so an edit to one cannot silently fork the reference
/// the other differential tests compare against.
#[test]
fn optimize_with_matches_the_engine_sequential_strategy() {
    use vsync::core::{explore, optimize_with};
    for lock in ["ttas", "mcs"] {
        let base = registry::entry(lock).unwrap().client(2, 1).with_all_sc();
        let engine = optimize(&base, &config(OptimizeStrategy::Sequential, 1));
        let amc = AmcConfig::with_model(ModelKind::Vmm);
        let closure = optimize_with(&base, &config(OptimizeStrategy::Sequential, 1), |p| {
            explore(p, &amc).verdict.is_verified()
        });
        assert_eq!(modes(&engine.program), modes(&closure.program), "{lock}");
        assert_eq!(engine.steps, closure.steps, "{lock}: step-for-step identical");
        assert_eq!(engine.verifications, closure.verifications, "{lock}");
    }
}

/// The multi-scenario oracle keeps the equivalence: the extra scenario
/// constrains all strategies identically.
#[test]
fn strategies_agree_with_extra_scenarios() {
    let solo = mutex_client(&CasLock::default(), 1, 1).with_all_sc();
    let mut pair = mutex_client(&CasLock::default(), 2, 1);
    pair.copy_modes_by_name(&solo);
    let scenarios = [pair];
    let seq = optimize_multi(&solo, &scenarios, &config(OptimizeStrategy::Sequential, 1));
    assert!(seq.verified);
    let strategy = OptimizeStrategy::Adaptive;
    for workers in [1, 2] {
        let r = optimize_multi(&solo, &scenarios, &config(strategy, workers));
        assert!(r.verified, "{strategy}/{workers}");
        assert_eq!(modes(&seq.program), modes(&r.program), "{strategy}/{workers}");
    }
}

/// The adaptive engine needs strictly fewer full explorations than the
/// sequential reference on a lock with a non-trivial site table.
#[test]
fn adaptive_explores_less_than_sequential() {
    let base = registry::entry("mcs").unwrap().client(2, 1).with_all_sc();
    let seq = optimize(&base, &config(OptimizeStrategy::Sequential, 1));
    let ad = optimize(&base, &config(OptimizeStrategy::Adaptive, 1));
    assert!(
        2 * ad.explorations <= seq.explorations,
        "adaptive {} vs sequential {} explorations",
        ad.explorations,
        seq.explorations
    );
    assert!(ad.cache_hits > 0, "the witness cache never fired");
}

/// A token fired from the per-step callback interrupts the adaptive
/// engine mid-bisection; every accept kept in the report is individually
/// (or batch-) verified, so the partial program still verifies and is
/// pointwise weaker-or-equal than the baseline.
#[test]
fn mid_bisect_interrupt_keeps_a_verified_partial_assignment() {
    let strategy = OptimizeStrategy::Adaptive;
    for workers in [1, 2, 8] {
        let base = registry::entry("ttas").unwrap().client(2, 1).with_all_sc();
        let token = CancelToken::new();
        let fired = Arc::new(AtomicUsize::new(0));
        let cfg = {
            let token = token.clone();
            let fired = fired.clone();
            config(strategy, workers).with_on_step(move |_| {
                fired.fetch_add(1, Ordering::Relaxed);
                token.cancel();
            })
        };
        let report = optimize(&base, &cfg.with_cancel(token));
        assert!(fired.load(Ordering::Relaxed) > 0, "{strategy}: no step event fired");
        assert!(report.interrupted, "{strategy}/{workers}: not interrupted");
        assert!(report.verified, "{strategy}/{workers}: baseline lost");
        // Whatever was kept verifies from scratch...
        assert!(
            verify(&report.program, &AmcConfig::with_model(ModelKind::Vmm)).is_verified(),
            "{strategy}/{workers}: partial assignment does not verify"
        );
        // ...and never strengthens a site beyond the baseline.
        for (b, a) in base.sites().iter().zip(report.program.sites()) {
            if !b.relaxable {
                assert_eq!(b.mode, a.mode, "{strategy}: fixed site {} touched", b.name);
            }
        }
    }
}

/// A pre-fired token stops the adaptive engine before any relaxation
/// attempt: verified-unknown (`false` + interrupted), no steps, program
/// untouched.
#[test]
fn prefired_token_stops_before_any_attempt() {
    let base = registry::entry("caslock").unwrap().client(2, 1).with_all_sc();
    let token = CancelToken::new();
    token.cancel();
    let report = optimize(&base, &config(OptimizeStrategy::Adaptive, 1).with_cancel(token));
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
/// verified-or-unknown state for every strategy (no worker hangs).
#[test]
fn zero_deadline_interrupts_every_strategy() {
    use vsync::core::Session;
    use vsync::locks::SessionExt as _;
    for strategy in [OptimizeStrategy::Sequential, OptimizeStrategy::Adaptive] {
        let report = Session::lock("ttas", 2, 1)
            .deadline(std::time::Duration::ZERO)
            .optimize(OptimizerConfig::default().with_strategy(strategy))
            .run();
        // The exploration itself already hits the deadline, so the
        // optimizer never runs — the point is that nothing hangs and the
        // report is coherent.
        assert!(report.is_interrupted(), "{strategy}");
        assert!(matches!(report.models[0].verdict, Verdict::Inconclusive(_)), "{strategy}");
    }
}
