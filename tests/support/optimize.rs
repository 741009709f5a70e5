//! The optimizer's oracle: the plain sequential ladder, sharing nothing
//! with `vsync::core`'s search but the verifier. Sites in table order,
//! weakest candidate first, one full verification per candidate — the
//! primary program, then every scenario with the candidate's modes
//! copied by site name, stopping at the first that does not verify —
//! and passes until one accepts nothing. No witness cache, no rejection
//! memo, no bisection, no deferred baseline check.
//!
//! By the monotonicity of barrier strengthening the optimizer lands on
//! this loop's assignment, and it takes the same decisions in the same
//! order (DESIGN.md §7.3).

use vsync::core::{verify, AmcConfig, OptimizationStep};
use vsync::lang::{ModeRef, Program};

/// What the sequential ladder decided.
pub struct Reference {
    /// Did the baseline verify? If not, `program` is the input and
    /// `steps` is empty.
    pub verified: bool,
    pub program: Program,
    /// Every decided candidate, in decision order; passes count from 1.
    pub steps: Vec<OptimizationStep>,
    /// Explorations paid: one per program verified, scenarios included.
    pub explorations: u64,
}

/// Does `candidate` verify, and with its modes every scenario?
fn verifies(
    candidate: &Program,
    scenarios: &[Program],
    amc: &AmcConfig,
    explorations: &mut u64,
) -> bool {
    let with_modes = |s: &Program| {
        let mut s = s.clone();
        s.copy_modes_by_name(candidate);
        s
    };
    std::iter::once(candidate.clone()).chain(scenarios.iter().map(with_modes)).all(|p| {
        *explorations += 1;
        verify(&p, amc).is_verified()
    })
}

/// Optimize `prog` by the sequential ladder: check the baseline, then run
/// passes over `relaxable_sites()` until one accepts nothing.
pub fn sequential(prog: &Program, scenarios: &[Program], amc: &AmcConfig) -> Reference {
    let amc = AmcConfig { collect_executions: false, ..amc.clone() };
    let mut reference =
        Reference { verified: false, program: prog.clone(), steps: Vec::new(), explorations: 0 };
    if !verifies(prog, scenarios, &amc, &mut reference.explorations) {
        return reference;
    }
    reference.verified = true;
    for pass in 1.. {
        let mut changed = false;
        for site in reference.program.relaxable_sites() {
            let s = &reference.program.sites()[site as usize];
            let from = s.mode;
            for to in s.kind.weaker_modes(from) {
                let mut candidate = reference.program.clone();
                candidate.set_mode(ModeRef(site), to);
                let accepted = verifies(&candidate, scenarios, &amc, &mut reference.explorations);
                reference.steps.push(OptimizationStep { pass, site, from, to, accepted });
                if accepted {
                    reference.program = candidate;
                    changed = true;
                    break;
                }
            }
        }
        if !changed {
            break;
        }
    }
    reference
}

/// Is the assignment locally maximal: does relaxing any single relaxable
/// site to any weaker mode break verification?
pub fn is_locally_maximal(prog: &Program, amc: &AmcConfig) -> bool {
    prog.relaxable_sites().into_iter().all(|site| {
        let s = &prog.sites()[site as usize];
        s.kind.weaker_modes(s.mode).into_iter().all(|to| {
            let mut candidate = prog.clone();
            candidate.set_mode(ModeRef(site), to);
            !verify(&candidate, amc).is_verified()
        })
    })
}
