//! Await-termination (stagnancy) analysis.
//!
//! When exploration reaches a graph with no runnable threads but with
//! blocked await reads (`⊥` reads-from edges), AMC must decide whether the
//! missing edges "could not be resolved except through a wasteful
//! execution" (paper §1.3). If so, the graph is *stagnant* and witnesses an
//! await-termination violation (paper Lemmas 12/13: stagnant graphs extend
//! to the infinite executions of `G∞`, and vice versa).

use std::borrow::Borrow;

use vsync_graph::{EventId, EventKind, ExecutionGraph, RfSource};
use vsync_lang::BlockedAwait;
use vsync_model::ChainChecker;

/// Is this no-runnable-threads graph stagnant?
///
/// Every blocked read must be *stuck*: for every available write `w` to its
/// location, resolving the read with `w` is either inconsistent with the
/// memory model or a wasteful repeat of the previous iteration. If some
/// blocked read could still make progress, the graph is an exploration
/// artifact — the progressing continuation lives in a sibling branch — and
/// must not be reported.
///
/// `ck` must describe `g` (its last `reset`/`push` answered for exactly
/// this graph). Resolutions are tried in place — on `g` and on `ck` — and
/// undone: both are back in their entry state on return.
pub fn is_stagnant(
    g: &mut ExecutionGraph,
    blocked: &[impl Borrow<BlockedAwait>],
    ck: &mut dyn ChainChecker,
) -> bool {
    !blocked.is_empty() && blocked.iter().all(|b| is_stuck(g, b.borrow(), ck))
}

/// Can no available write unblock this read with a non-wasteful,
/// model-consistent iteration? (Same contract on `g` and `ck` as
/// [`is_stagnant`].)
pub fn is_stuck(g: &mut ExecutionGraph, b: &BlockedAwait, ck: &mut dyn ChainChecker) -> bool {
    let thread = b.read.thread().expect("blocked read is a regular event");
    let (rmw, awaiting) = match &g.event(b.read).kind {
        EventKind::Read { rf: RfSource::Bottom, rmw, awaiting, .. } => (*rmw, *awaiting),
        k => panic!("blocked await {} is not a pending read: {k}", b.read),
    };
    // The blocked read is its thread's last event: lift it off the
    // checker, try every resolution in its place, put it back. Sources
    // below the coherence floor can never be observed here. The mo-latest
    // write goes first: it is the one most likely to unblock the read,
    // and the answer does not depend on the order.
    ck.pop(thread);
    let stuck = (ck.floor(g, thread, b.loc)..=g.mo(b.loc).len()).rev().all(|pos| {
        let w = pos.checked_sub(1).map_or(EventId::Init(b.loc), |i| g.mo(b.loc)[i]);
        if !resolution_consistent(g, b, w, pos, ck) {
            return true; // this write can never be observed here
        }
        // The await could exit, or a fresh (non-wasteful) iteration is
        // possible — its continuation is explored in a sibling branch.
        // Reading the previous iteration's source again is wasteful and
        // does not constitute progress (paper Def. 2).
        !b.desc.exits(g.write_value(w)) && b.prev_rf == Some(RfSource::Write(w))
    });
    g.set_rf(b.read, RfSource::Bottom);
    g.set_read_flags(b.read, rmw, awaiting);
    ck.push_accepted(g, thread);
    stuck
}

/// Would `rf(b.read) = w` (plus the RMW write part, if the await would exit
/// and write) yield a model-consistent graph? `pos` is `w`'s extended-mo
/// position. `ck` describes the graph without the blocked read, so the
/// question is two chain steps: the resolved read, then the write part
/// placed immediately after `w` (atomicity). Leaves the read resolved in
/// `g`, and `ck` as it found it.
fn resolution_consistent(
    g: &mut ExecutionGraph,
    b: &BlockedAwait,
    w: EventId,
    pos: usize,
    ck: &mut dyn ChainChecker,
) -> bool {
    let thread = b.read.thread().expect("blocked read is a regular event");
    let writes = b.desc.write_on(g.write_value(w));
    g.set_rf(b.read, RfSource::Write(w));
    g.set_read_flags(b.read, writes.is_some(), true);
    // Atomicity pre-check: at most one RMW may read from w.
    if writes.is_some() && g.rmw_reader_of(w) != Some(b.read) {
        return false;
    }
    let mut ok = ck.push(g, thread);
    if let (true, Some(val)) = (ok, writes) {
        let kind = EventKind::Write { loc: b.loc, val, mode: b.mode, rmw: true };
        let wid = g.push_event(thread, kind);
        g.insert_mo(b.loc, wid, pos);
        ok = ck.push(g, thread);
        ck.pop(thread);
        g.remove_mo(b.loc, pos);
        g.pop_event(thread);
    }
    ck.pop(thread);
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use vsync_graph::Mode;
    use vsync_lang::{Cmp, ReadDesc, ResolvedTest};
    use vsync_model::{MemoryModel, Vmm};

    const X: u64 = 0x10;

    /// Run `f` on a copy of `g` and a VMM checker reset to it. The
    /// analysis must hand both back as it found them: the graph compares
    /// equal and a second run on the same checker answers the same.
    fn in_place(
        g: &ExecutionGraph,
        f: impl Fn(&mut ExecutionGraph, &mut dyn ChainChecker) -> bool,
    ) -> bool {
        let mut scratch = g.clone();
        let mut ck = Vmm.chain_checker();
        assert!(ck.reset(&scratch));
        let answer = f(&mut scratch, &mut *ck);
        assert_eq!(&scratch, g, "the graph was not restored");
        assert_eq!(f(&mut scratch, &mut *ck), answer, "the checker was not restored");
        answer
    }

    fn stuck(g: &ExecutionGraph, b: &BlockedAwait) -> bool {
        in_place(g, |g, ck| is_stuck(g, b, ck))
    }

    fn stagnant(g: &ExecutionGraph, blocked: &[&BlockedAwait]) -> bool {
        in_place(g, |g, ck| is_stagnant(g, blocked, ck))
    }

    fn await_eq(rhs: u64) -> ReadDesc {
        ReadDesc::AwaitLoad { exit: ResolvedTest { mask: u64::MAX, cmp: Cmp::Eq, rhs } }
    }

    fn pending_read(g: &mut ExecutionGraph, t: u32) -> EventId {
        g.push_event(
            t,
            EventKind::Read { loc: X, mode: Mode::Rlx, rf: RfSource::Bottom, rmw: false, awaiting: true },
        )
    }

    #[test]
    fn single_thread_awaiting_never_written_value_is_stuck() {
        // x stays 0; await x == 1. First iteration read init(0), second is ⊥.
        let mut g = ExecutionGraph::new(1, BTreeMap::new());
        g.push_event(
            0,
            EventKind::Read { loc: X, mode: Mode::Rlx, rf: RfSource::Write(EventId::Init(X)), rmw: false, awaiting: true },
        );
        let r = pending_read(&mut g, 0);
        let b = BlockedAwait {
            read: r,
            loc: X,
            mode: Mode::Rlx,
            desc: await_eq(1),
            prev_rf: Some(RfSource::Write(EventId::Init(X))),
        };
        assert!(stuck(&g, &b));
        assert!(stagnant(&g, &[&b]));
    }

    #[test]
    fn resolvable_await_is_not_stuck() {
        // Another thread wrote 1: the await could exit.
        let mut g = ExecutionGraph::new(2, BTreeMap::new());
        let w = g.push_event(1, EventKind::Write { loc: X, val: 1, mode: Mode::Rlx, rmw: false });
        g.insert_mo(X, w, 0);
        let r = pending_read(&mut g, 0);
        let b = BlockedAwait { read: r, loc: X, mode: Mode::Rlx, desc: await_eq(1), prev_rf: None };
        assert!(!stuck(&g, &b));
    }

    #[test]
    fn fresh_failed_iteration_counts_as_progress() {
        // Await x == 2; available: init(0) [read last time] and w(1) [fresh].
        let mut g = ExecutionGraph::new(2, BTreeMap::new());
        let w = g.push_event(1, EventKind::Write { loc: X, val: 1, mode: Mode::Rlx, rmw: false });
        g.insert_mo(X, w, 0);
        g.push_event(
            0,
            EventKind::Read { loc: X, mode: Mode::Rlx, rf: RfSource::Write(EventId::Init(X)), rmw: false, awaiting: true },
        );
        let r = pending_read(&mut g, 0);
        let b = BlockedAwait {
            read: r,
            loc: X,
            mode: Mode::Rlx,
            desc: await_eq(2),
            prev_rf: Some(RfSource::Write(EventId::Init(X))),
        };
        // Reading w(1) loops but is non-wasteful: not stuck.
        assert!(!stuck(&g, &b));
    }

    #[test]
    fn coherence_forbidden_sources_do_not_help() {
        // Thread read w2 (mo-later) previously; init and w1 are forbidden by
        // coherence; re-reading w2 is wasteful. Stuck.
        let mut g = ExecutionGraph::new(2, BTreeMap::new());
        let w1 = g.push_event(1, EventKind::Write { loc: X, val: 1, mode: Mode::Rlx, rmw: false });
        g.insert_mo(X, w1, 0);
        let w2 = g.push_event(1, EventKind::Write { loc: X, val: 3, mode: Mode::Rlx, rmw: false });
        g.insert_mo(X, w2, 1);
        g.push_event(
            0,
            EventKind::Read { loc: X, mode: Mode::Rlx, rf: RfSource::Write(w2), rmw: false, awaiting: true },
        );
        let r = pending_read(&mut g, 0);
        let b = BlockedAwait {
            read: r,
            loc: X,
            mode: Mode::Rlx,
            desc: await_eq(5),
            prev_rf: Some(RfSource::Write(w2)),
        };
        assert!(stuck(&g, &b));
    }

    #[test]
    fn await_rmw_blocked_on_taken_rmw_source() {
        // await_cas(x: 0 -> 1) but another RMW already consumed init(0):
        // resolving to init violates atomicity; no other write has value 0.
        let mut g = ExecutionGraph::new(2, BTreeMap::new());
        g.push_event(
            1,
            EventKind::Read { loc: X, mode: Mode::Rlx, rf: RfSource::Write(EventId::Init(X)), rmw: true, awaiting: false },
        );
        let w = g.push_event(1, EventKind::Write { loc: X, val: 7, mode: Mode::Rlx, rmw: true });
        g.insert_mo(X, w, 0);
        let r = pending_read(&mut g, 0);
        let b = BlockedAwait {
            read: r,
            loc: X,
            mode: Mode::Rlx,
            desc: ReadDesc::AwaitCas { expected: 0, new: 1 },
            prev_rf: Some(RfSource::Write(w)),
        };
        assert!(stuck(&g, &b));
    }

    #[test]
    fn stagnant_requires_all_blocked_stuck() {
        let mut g = ExecutionGraph::new(3, BTreeMap::new());
        let w = g.push_event(2, EventKind::Write { loc: X, val: 1, mode: Mode::Rlx, rmw: false });
        g.insert_mo(X, w, 0);
        // Thread 0: stuck await (waits for 9, only 0/1 available, read both).
        g.push_event(
            0,
            EventKind::Read { loc: X, mode: Mode::Rlx, rf: RfSource::Write(w), rmw: false, awaiting: true },
        );
        let r0 = pending_read(&mut g, 0);
        let b0 = BlockedAwait {
            read: r0,
            loc: X,
            mode: Mode::Rlx,
            desc: await_eq(9),
            prev_rf: Some(RfSource::Write(w)),
        };
        // Thread 1: resolvable await (waits for 1, w available).
        let r1 = pending_read(&mut g, 1);
        let b1 = BlockedAwait { read: r1, loc: X, mode: Mode::Rlx, desc: await_eq(1), prev_rf: None };
        assert!(stuck(&g, &b0));
        assert!(!stuck(&g, &b1));
        assert!(!stagnant(&g, &[&b0, &b1]));
        assert!(stagnant(&g, &[&b0]));
        assert!(!stagnant(&g, &[]));
    }
}
