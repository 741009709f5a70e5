//! `Vmm` — the RC11-style weak memory model used by this reproduction in
//! place of the paper's IMM.
//!
//! IMM (Podkopaev et al., POPL'19) tracks syntactic dependencies to permit
//! some load-buffering behaviours; RC11 (Lahav et al., PLDI'17) instead
//! forbids all `po ∪ rf` cycles, and so does `Vmm`. It therefore admits
//! none of the load buffering IMM allows: a `verified` under `Vmm` never
//! checked those executions. DESIGN.md §5 documents the substitution and
//! `corpus/lb_handoff.litmus` records the lock hand-off shape at risk;
//! admitting it is an edit of one axiom, `no-thin-air` below.
//!
//! The model is the shared coherence and atomicity axioms plus
//! `acyclic(po ∪ rf)`, `irreflexive(hb)`, `irreflexive(hb ; eco)` and
//! `acyclic(psc)`, with `sw`, `hb` and `psc` as [`Vmm::axioms`] writes
//! them (DESIGN.md §2.4). [`MemoryModel::is_consistent`] is a
//! [`ChainChecker::reset`] on a fresh vector-clock [`VmmChecker`] — the
//! same code the explorer steps along its chains;
//! [`MemoryModel::is_consistent_reference`] evaluates the axioms.

use std::sync::OnceLock;

use vsync_graph::{EventId, EventKind, ExecutionGraph, Loc, Mode, RfSource, ThreadId};

use crate::axioms::{
    atomicity, coherence, fr, id, loc, mo, po, predecessors, rf, rmw, Axiom, Rel, Set,
};
use crate::chain::{ChainChecker, VmmChecker};
use crate::{Access, MemoryModel};

/// The RC11-style weak memory model (see module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct Vmm;

/// `hb = (po ∪ sw)⁺` over the given `po`, where
/// `sw = [⊒rel] ; ([F] ; po)? ; rs ; rf ; (po ; [F])? ; [⊒acq]` and the
/// release sequences `rs = (rf ; rmw)*` follow RMW chains only.
fn hb(po: &Rel) -> Rel {
    let f = id(Set::F);
    let rs = rf().seq(&rmw()).star();
    let sw = id(Set::Rel)
        .seq(&f.seq(po).opt())
        .seq(&rs)
        .seq(&rf())
        .seq(&po.seq(&f).opt())
        .seq(&id(Set::Acq));
    (po.clone() | sw).plus()
}

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

    fn axioms(&self) -> &'static [Axiom] {
        static AXIOMS: OnceLock<Vec<Axiom>> = OnceLock::new();
        AXIOMS.get_or_init(|| {
            let po = po();
            let hb = hb(&po);
            let eco = (rf() | mo() | fr()).plus();
            let (sc, fsc) = (id(Set::Sc), id(Set::F) & id(Set::Sc));
            // The `po` part of `scb` has no init edges.
            let scb =
                (po.clone() - id(Set::Init).seq(&po) - loc()) | (hb.clone() & loc()) | mo() | fr();
            let psc = (sc.clone() | fsc.seq(&hb)).seq(&scb).seq(&(sc | hb.seq(&fsc)))
                | fsc.seq(&(hb.clone() | hb.seq(&eco).seq(&hb))).seq(&fsc);
            vec![
                coherence(),
                atomicity(),
                Axiom::Acyclic("no-thin-air", po | rf()),
                Axiom::Irreflexive("hb", hb.clone()),
                Axiom::Irreflexive("hb-coherence", hb.seq(&eco)),
                Axiom::Acyclic("psc", psc),
            ]
        })
    }

    /// The largest coherence position among the accesses of `loc` in
    /// `dom(hb? ; [last])`, `last` being `thread`'s last event.
    fn floor(&self, g: &ExecutionGraph, thread: ThreadId, loc: Loc) -> usize {
        let Some(last) = g.thread_len(thread).checked_sub(1) else { return 0 };
        let before = predecessors(&hb(&po()).opt(), g, EventId::new(thread, last as u32));
        let position = |e: EventId| match e {
            EventId::Init(_) => None, // position 0, where every floor starts
            _ => match g.event(e).kind {
                EventKind::Write { loc: l, .. } if l == loc => g.mo_position(e),
                EventKind::Read { loc: l, rf: RfSource::Write(w), .. } if l == loc => {
                    g.mo_position(w)
                }
                _ => None,
            },
        };
        before.into_iter().filter_map(position).max().unwrap_or(0)
    }

    /// Yes when every change takes a site from `sc` to the strongest
    /// non-SC mode its events can carry. [`VmmChecker`] reads a mode
    /// through `is_acquire` (reads, fences), `is_release` (writes, fences)
    /// and `is_sc`, and only the SC axiom reads `is_sc`: such a change
    /// keeps every clock, hence every answer but the SC axiom's, and takes
    /// SC events out of `psc`, which only shrinks. A base whose SC axiom
    /// rejected nothing thus answers for the candidate too.
    fn certifies(&self, symmetric: bool, changes: &[(Access, Mode, Mode)]) -> bool {
        !symmetric
            && changes.iter().all(|&(access, from, to)| {
                from.is_sc()
                    && !to.is_sc()
                    && match access {
                        Access::Load => to.is_acquire(),
                        Access::Store => to.is_release(),
                        Access::Rmw | Access::Fence => to.is_acquire() && to.is_release(),
                    }
            })
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

    /// The checker counts the answers only the SC axiom gave, across
    /// `reset`s: SB with SC fences is one, MP's stale read (hb-coherence)
    /// is none.
    #[test]
    fn the_checker_counts_sc_axiom_rejections() {
        let mut ck = VmmChecker::default();
        assert!(!ck.reset(&mp(Mode::Rel, Mode::Acq, true)));
        assert_eq!(ck.sc_rejections(), Some(0));
        assert!(!ck.reset(&sb(true)));
        assert!(ck.reset(&sb(false)));
        assert_eq!(ck.sc_rejections(), Some(1));
        assert_eq!(crate::ModelKind::Vmm.reference_model().chain_checker().sc_rejections(), None);
    }

    /// Only `sc` to the strongest non-SC mode of the site's events keeps
    /// every clock; symmetry and every other model refuse.
    #[test]
    fn certifies_exactly_the_drop_of_sc() {
        let certifies = |changes: &[(Access, Mode, Mode)]| Vmm.certifies(false, changes);
        assert!(certifies(&[]));
        assert!(certifies(&[
            (Access::Load, Mode::Sc, Mode::Acq),
            (Access::Store, Mode::Sc, Mode::Rel)
        ]));
        assert!(certifies(&[(Access::Rmw, Mode::Sc, Mode::AcqRel)]));
        assert!(certifies(&[(Access::Fence, Mode::Sc, Mode::AcqRel)]));
        for (access, to) in
            [(Access::Rmw, Mode::Acq), (Access::Rmw, Mode::Rel), (Access::Fence, Mode::Rel)]
        {
            assert!(!certifies(&[(access, Mode::Sc, to)]), "{access:?} sc -> {to}");
        }
        assert!(!certifies(&[(Access::Load, Mode::Sc, Mode::Rlx)]));
        assert!(!certifies(&[(Access::Store, Mode::Rel, Mode::Rlx)]));
        assert!(!certifies(&[(Access::Store, Mode::Rel, Mode::Sc)]), "a strengthening");
        let drop = [(Access::Fence, Mode::Sc, Mode::AcqRel)];
        assert!(!Vmm.certifies(true, &drop), "symmetry");
        for kind in [crate::ModelKind::Sc, crate::ModelKind::Tso] {
            assert!(!kind.model().certifies(false, &drop), "{kind}");
        }
        assert!(!crate::ModelKind::Vmm.reference_model().certifies(false, &drop));
    }
}
