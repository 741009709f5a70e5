//! One optimization pass of the adaptive strategy: concurrent
//! candidate screening, a single merged re-verification, and the
//! monotonic fallback that keeps the result identical to the sequential
//! reference.
//!
//! ## Why screening against the *pass-start* baseline is sound
//!
//! Within a pass the sequential loop's accumulated program only ever gets
//! *weaker*. By monotonicity (a strengthening of a verified assignment
//! verifies), a candidate that fails against the pass-start baseline `B`
//! also fails against every weaker accumulated baseline — so rejections
//! established concurrently against `B` transfer verbatim to the
//! sequential accept order and can be skipped forever. Acceptances do
//! *not* transfer downward, which is why the pass re-verifies the merged
//! assignment `M` (all per-site first-verifying candidates applied to `B`)
//! exactly once: if `M` verifies, an induction over the site order shows
//! the sequential loop would have accepted precisely the same candidates
//! (DESIGN.md §7.3). If `M` fails — or any screening rejection was a
//! non-monotone fault — the pass falls back to replaying the sequential
//! accept order, reusing the monotone rejections and the witness cache,
//! which reproduces the reference result by construction.
//!
//! ## Cancel of losers
//!
//! Candidates of one site are ordered weakest-first and the first
//! verifying one wins, so the moment rank `k` verifies, every still-queued
//! or in-flight candidate of the same site with rank `> k` is moot. Each
//! task owns a [`CancelToken::child`] of the session token; winners fire
//! the losers' tokens and the explorer winds the cancelled evaluations
//! down at their next cancellation point.
//!
//! [`CancelToken::child`]: crate::session::CancelToken::child

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use vsync_graph::Mode;
use vsync_lang::Program;

use crate::session::CancelToken;

use super::{CheckOutcome, Ctx, OptimizationStep, OptimizePhase};

/// Lock with poison recovery: probe panics are already isolated inside
/// `check_single`, so a poisoned status table is still consistent.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Screening status of one (site, candidate-rank) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TaskStatus {
    /// Not yet decided (only observable after an aborted pass).
    Pending,
    /// Verifies against the pass-start baseline.
    Verified,
    /// Fails against the pass-start baseline with a genuine model
    /// violation — monotone, so it fails against every weaker baseline
    /// and is pruned from the fallback walk.
    Refuted,
    /// Rejected without a violation witness (a fault): not monotone, must
    /// be re-decided by the fallback.
    Rejected,
    /// Cancelled as a loser (a weaker candidate of the same site already
    /// verified) — never consulted.
    Skipped,
}

/// Outcome of one pass.
pub(crate) struct PassResult {
    /// Did the pass accept at least one relaxation?
    pub changed: bool,
    /// Was the pass cut short by a session interrupt? (`acc` then holds
    /// only fully verified accepts.)
    pub interrupted: bool,
}

/// One site's work for this pass.
struct SiteWork {
    site: u32,
    from: Mode,
    /// Candidate modes, weakest first.
    cands: Vec<Mode>,
}

/// Run one pass over `acc`: screen, merge, commit (or fall back). On
/// return `acc` is the pass's resulting assignment.
pub(crate) fn run_pass(ctx: &Ctx<'_>, acc: &mut Program, pass: usize) -> PassResult {
    let base = acc.clone();
    let sites: Vec<SiteWork> = base
        .relaxable_sites()
        .into_iter()
        .filter_map(|i| {
            let s = &base.sites()[i as usize];
            let cands = s.kind.weaker_modes(s.mode);
            if cands.is_empty() {
                None
            } else {
                Some(SiteWork { site: i, from: s.mode, cands })
            }
        })
        .collect();
    if sites.is_empty() {
        return PassResult { changed: false, interrupted: false };
    }

    let statuses: Vec<Vec<TaskStatus>> =
        sites.iter().map(|s| vec![TaskStatus::Pending; s.cands.len()]).collect();
    let mut tasks: Vec<(usize, usize)> = Vec::new();
    let max_ranks = sites.iter().map(|s| s.cands.len()).max().unwrap_or(0);
    // Rank-major order: every site's weakest candidate is screened before
    // any site's second-weakest, so loser cancellation bites early.
    for rank in 0..max_ranks {
        for (slot, s) in sites.iter().enumerate() {
            if rank < s.cands.len() {
                tasks.push((slot, rank));
            }
        }
    }

    let statuses = match screen(ctx, &base, &sites, statuses, &tasks, pass) {
        Some(s) => s,
        None => return PassResult { changed: false, interrupted: true },
    };

    // Per-site accept candidates (`a_i`): the weakest-ranked candidate
    // that verified against the base, valid for the merge shortcut only
    // when everything below it was refuted monotonely.
    let mut accepts: Vec<(usize, usize)> = Vec::new();
    let mut clean = true;
    for (slot, sts) in statuses.iter().enumerate() {
        match sts.iter().position(|&s| s == TaskStatus::Verified) {
            Some(rank) => {
                if sts[..rank].iter().any(|&s| s != TaskStatus::Refuted) {
                    clean = false;
                }
                accepts.push((slot, rank));
            }
            None => {
                if sts.iter().any(|&s| s != TaskStatus::Refuted) {
                    clean = false;
                }
            }
        }
    }

    if clean {
        if accepts.is_empty() {
            return PassResult { changed: false, interrupted: false };
        }
        let merged_ok = if accepts.len() == 1 {
            // A single accept was already verified against base == acc.
            true
        } else {
            let patch: Vec<(u32, Mode)> =
                accepts.iter().map(|&(s, r)| (sites[s].site, sites[s].cands[r])).collect();
            match ctx.check_candidate(&base.with_patch(&patch), ctx.pool_size(), None) {
                CheckOutcome::Verified => true,
                CheckOutcome::Refuted { .. } => false,
                CheckOutcome::Interrupted | CheckOutcome::Errored => {
                    return PassResult { changed: false, interrupted: true }
                }
            }
        };
        if merged_ok {
            for &(slot, rank) in &accepts {
                let s = &sites[slot];
                let step = OptimizationStep {
                    site: s.site,
                    from: s.from,
                    to: s.cands[rank],
                    accepted: true,
                };
                ctx.record(pass, OptimizePhase::Merge, step);
                acc.apply_patch(&[(s.site, s.cands[rank])]);
            }
            return PassResult { changed: true, interrupted: false };
        }
    }

    fallback(ctx, acc, &sites, &statuses, pass)
}

/// Replay the sequential accept order against the accumulating program,
/// skipping candidates the screening refuted monotonely. Bit-for-bit the
/// reference pass semantics; the witness cache absorbs the re-checks the
/// screening already disproved in weaker form.
fn fallback(
    ctx: &Ctx<'_>,
    acc: &mut Program,
    sites: &[SiteWork],
    statuses: &[Vec<TaskStatus>],
    pass: usize,
) -> PassResult {
    let mut changed = false;
    for (slot, s) in sites.iter().enumerate() {
        for (rank, &mode) in s.cands.iter().enumerate() {
            if statuses[slot][rank] == TaskStatus::Refuted {
                continue; // fails on base ⇒ fails on the weaker acc
            }
            if ctx.interrupt_requested() {
                return PassResult { changed, interrupted: true };
            }
            match ctx.check_single(acc, s.site, mode, ctx.pool_size(), None) {
                CheckOutcome::Verified => {
                    ctx.record(
                        pass,
                        OptimizePhase::Fallback,
                        OptimizationStep { site: s.site, from: s.from, to: mode, accepted: true },
                    );
                    acc.apply_patch(&[(s.site, mode)]);
                    changed = true;
                    break;
                }
                CheckOutcome::Refuted { .. } => {
                    ctx.record(
                        pass,
                        OptimizePhase::Fallback,
                        OptimizationStep { site: s.site, from: s.from, to: mode, accepted: false },
                    );
                }
                CheckOutcome::Interrupted | CheckOutcome::Errored => {
                    return PassResult { changed, interrupted: true };
                }
            }
        }
    }
    PassResult { changed, interrupted: false }
}

/// Evaluate `tasks` on the worker pool. Returns the filled status table,
/// or `None` on a session interrupt.
fn screen(
    ctx: &Ctx<'_>,
    base: &Program,
    sites: &[SiteWork],
    statuses: Vec<Vec<TaskStatus>>,
    tasks: &[(usize, usize)],
    pass: usize,
) -> Option<Vec<Vec<TaskStatus>>> {
    let tokens: Vec<Vec<CancelToken>> =
        sites.iter().map(|s| (0..s.cands.len()).map(|_| ctx.task_token()).collect()).collect();
    let state = Mutex::new(statuses);
    let next = AtomicUsize::new(0);
    let aborted = AtomicBool::new(false);
    let pool = ctx.pool_size().min(tasks.len()).max(1);
    // Split the configured worker budget across the pool slots (leading
    // slots take the remainder): wide pools run single-worker
    // explorations, while a pass with only a couple of leftover
    // candidates still uses the full width.
    let slot_width =
        |slot: usize| (ctx.pool_size() / pool + usize::from(slot < ctx.pool_size() % pool)).max(1);

    let cancel_all = || {
        for site_tokens in &tokens {
            for t in site_tokens {
                t.cancel();
            }
        }
    };

    let worker = |explore_workers: usize| {
        loop {
            if aborted.load(Ordering::Relaxed) {
                break;
            }
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(&(slot, rank)) = tasks.get(i) else {
                break;
            };
            let token = &tokens[slot][rank];
            {
                let mut st = relock(&state);
                if token.is_cancelled_locally() || st[slot][..rank].contains(&TaskStatus::Verified)
                {
                    st[slot][rank] = TaskStatus::Skipped;
                    continue;
                }
            }
            if ctx.interrupt_requested() {
                aborted.store(true, Ordering::Relaxed);
                cancel_all();
                break;
            }
            let s = &sites[slot];
            match ctx.check_single(base, s.site, s.cands[rank], explore_workers, Some(token)) {
                CheckOutcome::Verified => {
                    relock(&state)[slot][rank] = TaskStatus::Verified;
                    for loser in &tokens[slot][rank + 1..] {
                        loser.cancel();
                    }
                }
                CheckOutcome::Refuted { monotone } => {
                    relock(&state)[slot][rank] =
                        if monotone { TaskStatus::Refuted } else { TaskStatus::Rejected };
                    if monotone {
                        ctx.record(
                            pass,
                            OptimizePhase::Screen,
                            OptimizationStep {
                                site: s.site,
                                from: s.from,
                                to: s.cands[rank],
                                accepted: false,
                            },
                        );
                    }
                }
                CheckOutcome::Interrupted => {
                    if token.is_cancelled_locally() && !ctx.interrupt_requested() {
                        // A cancelled loser, not a session interrupt.
                        relock(&state)[slot][rank] = TaskStatus::Skipped;
                    } else {
                        aborted.store(true, Ordering::Relaxed);
                        cancel_all();
                        break;
                    }
                }
                CheckOutcome::Errored => {
                    // A caught probe panic: the candidate is undecided and
                    // the error is recorded in the shared state — wind the
                    // whole pass down like a session interrupt.
                    aborted.store(true, Ordering::Relaxed);
                    cancel_all();
                    break;
                }
            }
        }
    };

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..pool)
            .map(|slot| {
                let worker = &worker;
                scope.spawn(move || worker(slot_width(slot)))
            })
            .collect();
        for h in handles {
            // Probe panics are caught inside `check_single`; anything
            // that still unwinds a worker aborts the pass instead of
            // tearing down the engine.
            if h.join().is_err() {
                aborted.store(true, Ordering::Relaxed);
                cancel_all();
            }
        }
    });

    if aborted.load(Ordering::Relaxed) {
        return None;
    }
    Some(state.into_inner().unwrap_or_else(|e| e.into_inner()))
}
