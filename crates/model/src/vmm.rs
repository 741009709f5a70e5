//! `Vmm` — the RC11-style weak memory model used by this reproduction in
//! place of the paper's IMM.
//!
//! IMM (Podkopaev et al., POPL'19) tracks syntactic dependencies to permit
//! some load-buffering behaviours; RC11 (Lahav et al., PLDI'17) instead
//! forbids all `po ∪ rf` cycles, and so does `Vmm`. It therefore admits
//! none of the load buffering IMM allows: a `verified` under `Vmm` never
//! checked those executions. DESIGN.md §5 documents the substitution and
//! `corpus/lb_handoff.litmus` records the lock hand-off shape at risk.
//!
//! [`MemoryModel::is_consistent`] is a [`ChainChecker::reset`] on a fresh
//! vector-clock [`VmmChecker`] — the same code the explorer steps along its
//! chains; the closure-based formulation is retained as
//! [`MemoryModel::is_consistent_reference`] for differential testing.

use vsync_graph::{EventId, EventIndex, EventKind, ExecutionGraph, Loc, Relation, RfSource, ThreadId};

use crate::axioms::{
    acyclic_by_closure, atomicity_holds, eco_relation, fr_relation, mo_relation,
    per_loc_coherent, po_relation, rf_relation, rmw_pairs,
};
use crate::chain::{ChainChecker, VmmChecker};
use crate::MemoryModel;

/// The RC11-style weak memory model (see module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct Vmm;

impl MemoryModel for Vmm {
    fn name(&self) -> &'static str {
        "VMM"
    }

    fn is_consistent(&self, g: &ExecutionGraph) -> bool {
        VmmChecker::default().reset(g)
    }

    fn chain_checker(&self) -> Box<dyn ChainChecker> {
        Box::<VmmChecker>::default()
    }

    fn is_consistent_reference(&self, g: &ExecutionGraph) -> bool {
        // Cheap structural axioms first.
        if !atomicity_holds(g) || !per_loc_coherent(g) {
            return false;
        }
        let ix = EventIndex::new(g);
        // No-thin-air: acyclic(po ∪ rf).
        let po = po_relation(g, &ix);
        let rf = rf_relation(g, &ix);
        let mut porf = po.clone();
        porf.union_with(&rf);
        if !acyclic_by_closure(&porf) {
            return false;
        }
        // Happens-before.
        let sw = sw_relation(g, &ix);
        let mut hb = po;
        hb.union_with(&sw);
        hb.close();
        if !hb.is_irreflexive() {
            return false;
        }
        // Coherence: irreflexive(hb ; eco?).
        let eco = eco_relation(g, &ix);
        for (a, b) in hb.edges() {
            if eco.has(b, a) {
                return false;
            }
        }
        // SC axiom.
        psc_acyclic_naive(g, &ix, &hb, &eco)
    }

    /// The closure-based floor: the latest position any access of `loc`
    /// at or hb-before `thread`'s last event wrote or read from.
    fn floor(&self, g: &ExecutionGraph, thread: ThreadId, loc: Loc) -> usize {
        let Some(last) = g.thread_len(thread).checked_sub(1) else { return 0 };
        let ix = EventIndex::new(g);
        let mut hb = po_relation(g, &ix);
        hb.union_with(&sw_relation(g, &ix));
        hb.close();
        let last = ix.index_of(EventId::new(thread, last as u32));
        g.events()
            .filter(|&(e, _)| {
                let e = ix.index_of(e);
                e == last || hb.has(e, last)
            })
            .filter_map(|(e, ev)| match ev.kind {
                EventKind::Write { loc: l, .. } if l == loc => g.mo_position(e),
                EventKind::Read { loc: l, rf: RfSource::Write(w), .. } if l == loc => {
                    g.mo_position(w)
                }
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }
}

/// The synchronizes-with relation of RC11:
///
/// `sw = [E⊒rel] ; ([F];po)? ; rs ; rf ; [R] ; (po;[F])? ; [E⊒acq]`
///
/// where the release sequence `rs` of a write `w` is `w` together with the
/// chain of RMW writes reading (transitively) from it.
pub fn sw_relation(g: &ExecutionGraph, ix: &EventIndex) -> Relation {
    let mut sw = Relation::new(ix.len());
    let pairs = rmw_pairs(g);
    for (wid, wev) in g.events() {
        let EventKind::Write { mode: wmode, .. } = &wev.kind else { continue };
        // Release sources: the write itself (if ⊒rel) and every ⊒rel fence
        // po-before it in the same thread.
        let mut sources: Vec<EventId> = Vec::new();
        if wmode.is_release() {
            sources.push(wid);
        }
        let (wt, wi) = (wid.thread().unwrap(), wid.index().unwrap());
        for j in 0..wi {
            let e = &g.thread_events(wt)[j as usize];
            if matches!(&e.kind, EventKind::Fence { mode } if mode.is_release()) {
                sources.push(EventId::new(wt, j));
            }
        }
        if sources.is_empty() {
            continue;
        }
        // Release sequence of w.
        let mut rseq = vec![wid];
        loop {
            let before = rseq.len();
            for (r, w2) in &pairs {
                if rseq.contains(w2) {
                    continue;
                }
                if let RfSource::Write(src) = g.rf(*r) {
                    if rseq.contains(&src) {
                        rseq.push(*w2);
                    }
                }
            }
            if rseq.len() == before {
                break;
            }
        }
        // Acquire targets: readers of the release sequence.
        for (rid, _, src) in g.reads() {
            let RfSource::Write(srcw) = src else { continue };
            if !rseq.contains(&srcw) {
                continue;
            }
            let rmode = g.event(rid).kind.mode();
            let mut targets: Vec<EventId> = Vec::new();
            if rmode.is_acquire() {
                targets.push(rid);
            }
            let (rt, ri) = (rid.thread().unwrap(), rid.index().unwrap());
            for (j, e) in g.thread_events(rt).iter().enumerate().skip(ri as usize + 1) {
                if matches!(&e.kind, EventKind::Fence { mode } if mode.is_acquire()) {
                    targets.push(EventId::new(rt, j as u32));
                }
            }
            for &s in &sources {
                for &t in &targets {
                    sw.add(ix.index_of(s), ix.index_of(t));
                }
            }
        }
    }
    sw
}

/// Check the RC11 SC axiom `acyclic(psc_base ∪ psc_F)` the closure-based
/// way (the reference formulation: compose + Floyd–Warshall).
fn psc_acyclic_naive(
    g: &ExecutionGraph,
    ix: &EventIndex,
    hb: &Relation,
    eco: &Relation,
) -> bool {
    let n = ix.len();
    let is_sc_fence = |i: usize| match ix.id_of(i) {
        EventId::Init(_) => false,
        id => matches!(&g.event(id).kind, EventKind::Fence { mode } if mode.is_sc()),
    };
    let is_sc_access = |i: usize| match ix.id_of(i) {
        EventId::Init(_) => false,
        id => match &g.event(id).kind {
            EventKind::Read { mode, .. } | EventKind::Write { mode, .. } => mode.is_sc(),
            _ => false,
        },
    };
    if (0..n).all(|i| !is_sc_fence(i) && !is_sc_access(i)) {
        return true; // no SC events, axiom trivially holds
    }

    // scb = (po \ po_loc) ∪ hb|loc ∪ mo ∪ fr
    let mut scb = Relation::new(n);
    for t in 0..g.num_threads() {
        let evs = g.thread_events(t as u32);
        for i in 0..evs.len() {
            for j in i + 1..evs.len() {
                let la = evs[i].kind.loc();
                let lb = evs[j].kind.loc();
                if la.is_none() || lb.is_none() || la != lb {
                    scb.add(
                        ix.index_of(EventId::new(t as u32, i as u32)),
                        ix.index_of(EventId::new(t as u32, j as u32)),
                    );
                }
            }
        }
    }
    for (a, b) in hb.edges() {
        let la = loc_of_idx(g, ix, a);
        let lb = loc_of_idx(g, ix, b);
        if la.is_some() && la == lb {
            scb.add(a, b);
        }
    }
    let mut mo_full = mo_relation(g, ix);
    mo_full.close();
    scb.union_with(&mo_full);
    scb.union_with(&fr_relation(g, ix));

    // left = [Esc] ∪ [Fsc];hb?   right = [Esc] ∪ hb?;[Fsc]
    let mut left = Relation::new(n);
    let mut right = Relation::new(n);
    for i in 0..n {
        if is_sc_access(i) || is_sc_fence(i) {
            left.add(i, i);
            right.add(i, i);
        }
    }
    for (a, b) in hb.edges() {
        if is_sc_fence(a) {
            left.add(a, b);
        }
        if is_sc_fence(b) {
            right.add(a, b);
        }
    }
    let mut psc = left.compose(&scb).compose(&right);

    // psc_F = [Fsc] ; (hb ∪ hb;eco;hb) ; [Fsc]
    let hb_eco_hb = hb.compose(eco).compose(hb);
    for (a, b) in hb.edges() {
        if is_sc_fence(a) && is_sc_fence(b) {
            psc.add(a, b);
        }
    }
    for (a, b) in hb_eco_hb.edges() {
        if is_sc_fence(a) && is_sc_fence(b) {
            psc.add(a, b);
        }
    }
    acyclic_by_closure(&psc)
}

fn loc_of_idx(g: &ExecutionGraph, ix: &EventIndex, i: usize) -> Option<u64> {
    match ix.id_of(i) {
        EventId::Init(loc) => Some(loc),
        id => g.event(id).kind.loc(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use vsync_graph::Mode;

    fn w(loc: u64, val: u64, mode: Mode) -> EventKind {
        EventKind::Write { loc, val, mode, rmw: false }
    }

    fn r(loc: u64, rf: RfSource, mode: Mode) -> EventKind {
        EventKind::Read { loc, mode, rf, rmw: false, awaiting: false }
    }

    /// Every Vmm test asserts both paths: fast and reference must agree.
    fn consistent(g: &ExecutionGraph) -> bool {
        let fast = Vmm.is_consistent(g);
        let naive = Vmm.is_consistent_reference(g);
        assert_eq!(fast, naive, "fast/reference divergence on:\n{}", g.render());
        fast
    }

    /// Message passing: T0: W(d,1); W^wm(f,1) | T1: R^rm(f)=1; R(d)=?
    fn mp(wm: Mode, rm: Mode, stale: bool) -> ExecutionGraph {
        let (d, f) = (1, 2);
        let mut g = ExecutionGraph::new(2, BTreeMap::new());
        let wd = g.push_event(0, w(d, 1, Mode::Rlx));
        g.insert_mo(d, wd, 0);
        let wf = g.push_event(0, w(f, 1, wm));
        g.insert_mo(f, wf, 0);
        g.push_event(1, r(f, RfSource::Write(wf), rm));
        let src = if stale { RfSource::Write(EventId::Init(d)) } else { RfSource::Write(wd) };
        g.push_event(1, r(d, src, Mode::Rlx));
        g
    }

    #[test]
    fn mp_release_acquire_forbids_stale_read() {
        assert!(!consistent(&mp(Mode::Rel, Mode::Acq, true)));
        assert!(consistent(&mp(Mode::Rel, Mode::Acq, false)));
    }

    #[test]
    fn mp_relaxed_allows_stale_read() {
        assert!(consistent(&mp(Mode::Rlx, Mode::Rlx, true)));
        assert!(consistent(&mp(Mode::Rlx, Mode::Acq, true)));
        assert!(consistent(&mp(Mode::Rel, Mode::Rlx, true)));
    }

    /// Store buffering with optional SC fences between the accesses.
    fn sb(fences: bool) -> ExecutionGraph {
        let (x, y) = (1, 2);
        let mut g = ExecutionGraph::new(2, BTreeMap::new());
        let wx = g.push_event(0, w(x, 1, Mode::Rel));
        g.insert_mo(x, wx, 0);
        if fences {
            g.push_event(0, EventKind::Fence { mode: Mode::Sc });
        }
        g.push_event(0, r(y, RfSource::Write(EventId::Init(y)), Mode::Acq));
        let wy = g.push_event(1, w(y, 1, Mode::Rel));
        g.insert_mo(y, wy, 0);
        if fences {
            g.push_event(1, EventKind::Fence { mode: Mode::Sc });
        }
        g.push_event(1, r(x, RfSource::Write(EventId::Init(x)), Mode::Acq));
        g
    }

    #[test]
    fn sb_allowed_with_release_acquire_only() {
        // rel/acq does not forbid store-load reordering.
        assert!(consistent(&sb(false)));
    }

    #[test]
    fn sb_forbidden_with_sc_fences() {
        assert!(!consistent(&sb(true)));
    }

    #[test]
    fn sb_forbidden_with_sc_accesses() {
        let (x, y) = (1, 2);
        let mut g = ExecutionGraph::new(2, BTreeMap::new());
        let wx = g.push_event(0, w(x, 1, Mode::Sc));
        g.insert_mo(x, wx, 0);
        g.push_event(0, r(y, RfSource::Write(EventId::Init(y)), Mode::Sc));
        let wy = g.push_event(1, w(y, 1, Mode::Sc));
        g.insert_mo(y, wy, 0);
        g.push_event(1, r(x, RfSource::Write(EventId::Init(x)), Mode::Sc));
        assert!(!consistent(&g));
    }

    #[test]
    fn load_buffering_cycle_forbidden() {
        // T0: R(x)=1; W(y,1) | T1: R(y)=1; W(x,1) — a po∪rf cycle.
        let (x, y) = (1, 2);
        let mut g = ExecutionGraph::new(2, BTreeMap::new());
        g.push_event(0, r(x, RfSource::Write(EventId::new(1, 1)), Mode::Rlx));
        let wy = g.push_event(0, w(y, 1, Mode::Rlx));
        g.insert_mo(y, wy, 0);
        g.push_event(1, r(y, RfSource::Write(wy), Mode::Rlx));
        let wx = g.push_event(1, w(x, 1, Mode::Rlx));
        g.insert_mo(x, wx, 0);
        assert!(!consistent(&g));
    }

    #[test]
    fn fence_based_synchronization_works() {
        // T0: W(d,1); F_rel; W(f,1)rlx | T1: R(f)=1 rlx; F_acq; R(d)=0 — forbidden.
        let (d, f) = (1, 2);
        let mut g = ExecutionGraph::new(2, BTreeMap::new());
        let wd = g.push_event(0, w(d, 1, Mode::Rlx));
        g.insert_mo(d, wd, 0);
        g.push_event(0, EventKind::Fence { mode: Mode::Rel });
        let wf = g.push_event(0, w(f, 1, Mode::Rlx));
        g.insert_mo(f, wf, 0);
        g.push_event(1, r(f, RfSource::Write(wf), Mode::Rlx));
        g.push_event(1, EventKind::Fence { mode: Mode::Acq });
        g.push_event(1, r(d, RfSource::Write(EventId::Init(d)), Mode::Rlx));
        assert!(!consistent(&g));
    }

    #[test]
    fn release_sequence_through_rmw() {
        // T0: W(d,1); W_rel(f,1) | T1: RMW rlx on f (1->2) | T2: R_acq(f)=2; R(d)=0
        // The RMW extends T0's release sequence, so T2 synchronizes with T0:
        // the stale read of d is forbidden.
        let (d, f) = (1, 2);
        let mut g = ExecutionGraph::new(3, BTreeMap::new());
        let wd = g.push_event(0, w(d, 1, Mode::Rlx));
        g.insert_mo(d, wd, 0);
        let wf = g.push_event(0, w(f, 1, Mode::Rel));
        g.insert_mo(f, wf, 0);
        g.push_event(
            1,
            EventKind::Read { loc: f, mode: Mode::Rlx, rf: RfSource::Write(wf), rmw: true, awaiting: false },
        );
        let wu = g.push_event(1, EventKind::Write { loc: f, val: 2, mode: Mode::Rlx, rmw: true });
        g.insert_mo(f, wu, 1);
        g.push_event(2, r(f, RfSource::Write(wu), Mode::Acq));
        g.push_event(2, r(d, RfSource::Write(EventId::Init(d)), Mode::Rlx));
        assert!(!consistent(&g));
    }

    #[test]
    fn pending_reads_are_unconstrained() {
        let mut g = ExecutionGraph::new(1, BTreeMap::new());
        g.push_event(0, r(1, RfSource::Bottom, Mode::Acq));
        assert!(consistent(&g));
    }

    /// SC fences on *partial* graphs with pending reads: the PSC fast path
    /// must agree with the reference when ⊥ reads are present.
    #[test]
    fn sc_fences_with_pending_reads_agree() {
        let (x, y) = (1, 2);
        let mut g = ExecutionGraph::new(2, BTreeMap::new());
        let wx = g.push_event(0, w(x, 1, Mode::Rel));
        g.insert_mo(x, wx, 0);
        g.push_event(0, EventKind::Fence { mode: Mode::Sc });
        g.push_event(
            0,
            EventKind::Read { loc: y, mode: Mode::Acq, rf: RfSource::Bottom, rmw: false, awaiting: true },
        );
        let wy = g.push_event(1, w(y, 1, Mode::Rel));
        g.insert_mo(y, wy, 0);
        g.push_event(1, EventKind::Fence { mode: Mode::Sc });
        g.push_event(1, r(x, RfSource::Write(EventId::Init(x)), Mode::Acq));
        consistent(&g);
    }
}
