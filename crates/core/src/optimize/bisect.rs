//! Batch relaxation: the optimizer's first pass relaxes *every*
//! relaxable site to its weakest mode in one candidate and bisects the
//! site set on failure, committing verified groups wholesale and refining
//! only the sites that resist. Later passes are the sequential ladder
//! (`ladder_passes`), and `tests/support/optimize.rs` holds the plain
//! sequential loop this pass must agree with.
//!
//! ## Why this is exactly the sequential pass
//!
//! The walk proceeds strictly left-to-right over the site table, carrying
//! the accumulated program `acc` (all decisions for sites to the left).
//! Every decision it takes is justified by one of two facts:
//!
//! * **a verified group commits wholesale** — if `acc` with a whole group
//!   at its weakest modes verifies, the group-commit argument
//!   (DESIGN.md §7.3) shows the sequential loop would accept exactly the
//!   weakest mode at every member: each member's candidate is a
//!   strengthening of the verified group assignment, and a weakest-first
//!   ladder has nothing below rank 0 to rule out. One exploration, `m`
//!   sequential-identical accepts.
//! * **a refuted singleton is the sequential decision** — when the walk
//!   narrows a failing group down to the next site alone, that site's
//!   weakest candidate against `acc` is precisely what the sequential
//!   loop would try; the engine records the rejection (memoizing it —
//!   rejections are final, because baselines only weaken) and ladders
//!   through the site's remaining candidates weakest-first, accepting the
//!   first that verifies.
//!
//! The shape of the search only affects the *cost*, never the result:
//! each step is the sequential decision at that point, so any
//! interleaving of group commits and singleton refinements reproduces the
//! reference assignment verbatim.
//!
//! Two bookkeeping tricks keep the exploration bill low:
//!
//! * **refuted-tail transfer** — whenever the sites committed out of a
//!   failing group all landed on their weakest modes, the remaining tail
//!   over the new `acc` denotes *the same assignment* that just failed,
//!   so its group check is skipped as already-refuted;
//! * **fused refinement** — a resisting site's surviving candidate is
//!   first tried *together with* the remaining tail at its weakest modes:
//!   if the fused candidate verifies, one exploration commits the
//!   refinement and the entire tail (both sequential-identical, by the
//!   same two facts above); if it fails but the candidate verifies alone,
//!   the fused failure transfers to the tail as already-refuted — the
//!   extra exploration is never wasted.
//!
//! A primitive with `n` sites of which `k` resist full relaxation costs
//! `O(k · log n)` explorations for the opening instead of the sequential
//! loop's `n` (CNA follow-up paper: adaptive relaxation search) — and the
//! witness cache absorbs much of the descent, because a failing group's
//! violating execution frequently replays against its failing subgroups
//! and singletons.

use vsync_graph::Mode;
use vsync_lang::Program;

use super::{CheckOutcome, Ctx, OptimizationStep};

/// The pass was cut short by a session interrupt. `acc` holds only fully
/// verified accepts.
pub(crate) struct Interrupted;

/// Commit one accepted relaxation and record it.
fn commit(ctx: &mut Ctx<'_>, acc: &mut Program, site: u32, to: Mode, pass: usize) {
    let from = acc.sites()[site as usize].mode;
    ctx.record(OptimizationStep { pass, site, from, to, accepted: true });
    acc.apply_patch(&[(site, to)]);
}

/// Record one rejected relaxation.
fn reject(ctx: &mut Ctx<'_>, acc: &Program, site: u32, to: Mode, pass: usize) {
    let from = acc.sites()[site as usize].mode;
    ctx.record(OptimizationStep { pass, site, from, to, accepted: false });
}

/// Run the batch/bisect pass over `acc`: relax-all, bisect on
/// failure, refine resisting sites. Returns whether anything was
/// accepted.
pub(crate) fn commit_pass(
    ctx: &mut Ctx<'_>,
    acc: &mut Program,
    pass: usize,
) -> Result<bool, Interrupted> {
    let all: Vec<(u32, Mode)> = acc
        .relaxable_sites()
        .into_iter()
        .filter_map(|i| {
            let site = &acc.sites()[i as usize];
            site.kind.weaker_modes(site.mode).first().map(|&m| (i, m))
        })
        .collect();

    let mut changed = false;
    let mut pos = 0;
    // `Some(monotone)` when `acc` + all[pos..] at weakest is already
    // known to fail; the flag records whether that refutation was a
    // genuine model violation (only those may be memoized — a fault
    // might not recur against a weaker baseline).
    let mut tail_refuted: Option<bool> = None;
    while pos < all.len() {
        if ctx.interrupt_requested() {
            return Err(Interrupted);
        }
        let rest = &all[pos..];

        // Whole-tail attempt (the batch candidate on the first round).
        if tail_refuted.is_none() {
            match ctx.check_candidate(&acc.with_patch(rest)) {
                CheckOutcome::Verified => {
                    for &(site, mode) in rest {
                        commit(ctx, acc, site, mode, pass);
                    }
                    return Ok(true);
                }
                CheckOutcome::Refuted { monotone } => tail_refuted = Some(monotone),
                CheckOutcome::Interrupted | CheckOutcome::Errored => return Err(Interrupted),
            }
        }

        if let [(site, mode)] = *rest {
            // The failing tail *is* this singleton: rejection decided.
            reject(ctx, acc, site, mode, pass);
            if tail_refuted == Some(true) {
                ctx.memoize(site, mode);
            }
            changed |= refine_site(ctx, acc, site, &[], pass)? != Refine::Unchanged;
            break;
        }

        // The tail fails: find a committable prefix by halving its
        // length, down to the leading singleton.
        let mut len = rest.len().div_ceil(2);
        loop {
            if ctx.interrupt_requested() {
                return Err(Interrupted);
            }
            if len == 1 {
                let (site, mode) = rest[0];
                match ctx.check_single(acc, site, mode) {
                    CheckOutcome::Verified => {
                        commit(ctx, acc, site, mode, pass);
                        changed = true;
                        pos += 1;
                        // all[pos..] now denotes the assignment that
                        // failed as the tail: still refuted, same flag.
                    }
                    CheckOutcome::Refuted { .. } => {
                        reject(ctx, acc, site, mode, pass);
                        match refine_site(ctx, acc, site, &all[pos + 1..], pass)? {
                            Refine::AllCommitted => return Ok(true),
                            Refine::Accepted { tail_refuted: t } => {
                                changed = true;
                                pos += 1;
                                tail_refuted = t;
                            }
                            Refine::Unchanged => {
                                pos += 1;
                                // The site stays at its (non-weakest)
                                // baseline mode, so the remaining tail is
                                // a different assignment: unknown again.
                                tail_refuted = None;
                            }
                        }
                    }
                    CheckOutcome::Interrupted | CheckOutcome::Errored => return Err(Interrupted),
                }
                break;
            }
            match ctx.check_candidate(&acc.with_patch(&rest[..len])) {
                CheckOutcome::Verified => {
                    for &(site, mode) in &rest[..len] {
                        commit(ctx, acc, site, mode, pass);
                    }
                    changed = true;
                    pos += len;
                    // The remaining tail denotes the same assignment as
                    // the failed one: still refuted, same flag.
                    break;
                }
                CheckOutcome::Refuted { .. } => len = len.div_ceil(2),
                CheckOutcome::Interrupted | CheckOutcome::Errored => return Err(Interrupted),
            }
        }
    }
    Ok(changed)
}

/// Outcome of refining one resisting site.
#[derive(PartialEq, Eq)]
enum Refine {
    /// A fused candidate verified: the site *and* the whole tail are
    /// committed.
    AllCommitted,
    /// A weaker mode was accepted for the site alone.
    Accepted {
        /// `Some(monotone)` when `acc` + tail-at-weakest denotes an
        /// assignment already known to fail (established by a fused
        /// check).
        tail_refuted: Option<bool>,
    },
    /// Every weaker candidate was rejected; the site keeps its mode.
    Unchanged,
}

/// The sequential decision ladder for one site against `acc`, starting
/// *after* the already-rejected weakest candidate. When the pending
/// `tail` has at least two members, each surviving candidate is first
/// fused with the tail at its weakest modes — see the module docs.
fn refine_site(
    ctx: &mut Ctx<'_>,
    acc: &mut Program,
    site: u32,
    tail: &[(u32, Mode)],
    pass: usize,
) -> Result<Refine, Interrupted> {
    let current = acc.sites()[site as usize].mode;
    let ladder = acc.sites()[site as usize].kind.weaker_modes(current);
    for cand in ladder.into_iter().skip(1) {
        if ctx.interrupt_requested() {
            return Err(Interrupted);
        }
        if tail.len() >= 2 {
            let mut patch = Vec::with_capacity(1 + tail.len());
            patch.push((site, cand));
            patch.extend_from_slice(tail);
            match ctx.check_candidate(&acc.with_patch(&patch)) {
                CheckOutcome::Verified => {
                    commit(ctx, acc, site, cand, pass);
                    for &(s, m) in tail {
                        commit(ctx, acc, s, m, pass);
                    }
                    return Ok(Refine::AllCommitted);
                }
                CheckOutcome::Refuted { monotone } => {
                    match ctx.check_single(acc, site, cand) {
                        CheckOutcome::Verified => {
                            commit(ctx, acc, site, cand, pass);
                            // The fused candidate — which is exactly the
                            // new acc + tail at weakest — just failed.
                            return Ok(Refine::Accepted { tail_refuted: Some(monotone) });
                        }
                        CheckOutcome::Refuted { .. } => reject(ctx, acc, site, cand, pass),
                        CheckOutcome::Interrupted | CheckOutcome::Errored => {
                            return Err(Interrupted)
                        }
                    }
                }
                CheckOutcome::Interrupted | CheckOutcome::Errored => return Err(Interrupted),
            }
        } else {
            match ctx.check_single(acc, site, cand) {
                CheckOutcome::Verified => {
                    commit(ctx, acc, site, cand, pass);
                    return Ok(Refine::Accepted { tail_refuted: None });
                }
                CheckOutcome::Refuted { .. } => reject(ctx, acc, site, cand, pass),
                CheckOutcome::Interrupted | CheckOutcome::Errored => return Err(Interrupted),
            }
        }
    }
    Ok(Refine::Unchanged)
}
