//! Relation builders and axioms shared by all memory models.
//!
//! These are the *reference* formulations: every relation is rebuilt from
//! scratch and acyclicity goes through a full transitive closure. The
//! explorer's hot path uses the chain checkers ([`crate::chain`]) instead;
//! the reference is retained as the oracle of the differential test suite.

use vsync_graph::{EventId, EventIndex, EventKind, ExecutionGraph, Relation, RfSource};

/// Acyclicity the closure-based way: close a copy, check irreflexivity.
/// `O(n³/64)` — kept as the reference-checker formulation.
pub fn acyclic_by_closure(r: &Relation) -> bool {
    let mut c = r.clone();
    c.close();
    c.is_irreflexive()
}

/// Build the program-order relation (immediate edges; callers close it when
/// needed). Init events are ordered before the first event of every thread,
/// modelling that initialization happens before the program starts.
pub fn po_relation(g: &ExecutionGraph, ix: &EventIndex) -> Relation {
    let mut po = Relation::new(ix.len());
    for init_idx in 0..ix.init_count() {
        for t in 0..g.num_threads() {
            if g.thread_len(t as u32) > 0 {
                po.add(init_idx, ix.index_of(EventId::new(t as u32, 0)));
            }
        }
    }
    for t in 0..g.num_threads() {
        for i in 1..g.thread_len(t as u32) {
            po.add(
                ix.index_of(EventId::new(t as u32, (i - 1) as u32)),
                ix.index_of(EventId::new(t as u32, i as u32)),
            );
        }
    }
    po
}

/// Build the reads-from relation (write -> read). Pending (`⊥`) reads have
/// no edge.
pub fn rf_relation(g: &ExecutionGraph, ix: &EventIndex) -> Relation {
    let mut rf = Relation::new(ix.len());
    for (r, _, src) in g.reads() {
        if let RfSource::Write(w) = src {
            rf.add(ix.index_of(w), ix.index_of(r));
        }
    }
    rf
}

/// Build the modification-order relation (immediate successor edges,
/// starting at the init write of each location).
pub fn mo_relation(g: &ExecutionGraph, ix: &EventIndex) -> Relation {
    let mut mo = Relation::new(ix.len());
    for loc in g.written_locs().collect::<Vec<_>>() {
        let mut prev = ix.index_of(EventId::Init(loc));
        for &w in g.mo(loc) {
            let cur = ix.index_of(w);
            mo.add(prev, cur);
            prev = cur;
        }
    }
    mo
}

/// Build the from-read relation `fr = rf⁻¹; mo` (read -> every write
/// `mo`-after the read's source). Pending reads have no edges.
pub fn fr_relation(g: &ExecutionGraph, ix: &EventIndex) -> Relation {
    let mut fr = Relation::new(ix.len());
    for (r, loc, src) in g.reads() {
        let RfSource::Write(w) = src else { continue };
        let src_pos = g.mo_position(w).expect("rf source must be in mo");
        let ridx = ix.index_of(r);
        for (pos, &w2) in g.mo(loc).iter().enumerate() {
            if pos + 1 > src_pos && w2 != r {
                fr.add(ridx, ix.index_of(w2));
            }
        }
    }
    fr
}

/// The extended coherence order `eco = (rf ∪ mo ∪ fr)⁺`, returned closed.
pub fn eco_relation(g: &ExecutionGraph, ix: &EventIndex) -> Relation {
    let mut eco = rf_relation(g, ix);
    eco.union_with(&mo_relation(g, ix));
    eco.union_with(&fr_relation(g, ix));
    eco.close();
    eco
}

/// All read-modify-write pairs `(read_part, write_part)` in the graph.
///
/// The language emits the two parts as adjacent events of the same thread,
/// so the write part of an RMW always immediately follows its read part.
pub fn rmw_pairs(g: &ExecutionGraph) -> Vec<(EventId, EventId)> {
    let mut pairs = Vec::new();
    for (id, ev) in g.events() {
        if let EventKind::Write { rmw: true, loc, .. } = &ev.kind {
            let EventId::Event { thread, index } = id else { unreachable!() };
            assert!(index > 0, "RMW write {id} has no preceding read part");
            let r = EventId::new(thread, index - 1);
            match &g.event(r).kind {
                EventKind::Read { rmw: true, loc: rloc, .. } if rloc == loc => {}
                k => panic!("event before RMW write {id} is not its read part: {k}"),
            }
            pairs.push((r, id));
        }
    }
    pairs
}

/// The atomicity axiom: for every RMW pair, no other write to the same
/// location sits `mo`-between the read's source and the RMW's write.
///
/// Equivalently, the RMW write must be placed immediately after its read's
/// source in `mo`. RMW reads whose source is still `⊥` never have a write
/// part, so they cannot violate atomicity.
pub fn atomicity_holds(g: &ExecutionGraph) -> bool {
    for (r, w) in rmw_pairs(g) {
        match g.rf(r) {
            RfSource::Bottom => return false, // write part exists but read unresolved
            RfSource::Write(src) => {
                let (Some(sp), Some(wp)) = (g.mo_position(src), g.mo_position(w)) else {
                    return false;
                };
                if wp != sp + 1 {
                    return false;
                }
            }
        }
    }
    true
}

/// Per-location coherence ("SC per location" / the four CoXX axioms).
///
/// Checks, for every pair of same-location accesses ordered by program
/// order, that their positions in the extended modification order agree:
/// CoWW, CoWR, CoRW and CoRR. Pending reads are unconstrained.
pub fn per_loc_coherent(g: &ExecutionGraph) -> bool {
    for t in 0..g.num_threads() {
        let evs = g.thread_events(t as u32);
        for i in 0..evs.len() {
            let Some(loc_a) = evs[i].kind.loc() else { continue };
            let pos_a = access_pos(g, EventId::new(t as u32, i as u32));
            for (j, ev_j) in evs.iter().enumerate().skip(i + 1) {
                if ev_j.kind.loc() != Some(loc_a) {
                    continue;
                }
                let pos_b = access_pos(g, EventId::new(t as u32, j as u32));
                let (Some(pa), Some(pb)) = (pos_a, pos_b) else { continue };
                let a_is_write = evs[i].kind.is_write();
                let b_is_write = ev_j.kind.is_write();
                let ok = match (a_is_write, b_is_write) {
                    (true, true) => pa < pb,   // CoWW
                    (true, false) => pb >= pa, // CoWR: b reads a or newer
                    (false, true) => pa < pb,  // CoRW
                    (false, false) => pa <= pb, // CoRR
                };
                if !ok {
                    return false;
                }
            }
        }
    }
    true
}

/// The coherence position of an access: a write's own mo position, a read's
/// source position. `None` for pending reads.
fn access_pos(g: &ExecutionGraph, id: EventId) -> Option<usize> {
    match &g.event(id).kind {
        EventKind::Write { .. } => g.mo_position(id),
        EventKind::Read { rf: RfSource::Write(w), .. } => g.mo_position(*w),
        EventKind::Read { rf: RfSource::Bottom, .. } => None,
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use vsync_graph::Mode;

    fn w(loc: u64, val: u64) -> EventKind {
        EventKind::Write { loc, val, mode: Mode::Rlx, rmw: false }
    }

    fn r(loc: u64, rf: RfSource) -> EventKind {
        EventKind::Read { loc, mode: Mode::Rlx, rf, rmw: false, awaiting: false }
    }

    #[test]
    fn fr_points_at_newer_writes() {
        let mut g = ExecutionGraph::new(2, BTreeMap::new());
        let w1 = g.push_event(0, w(1, 1));
        g.insert_mo(1, w1, 0);
        let w2 = g.push_event(0, w(1, 2));
        g.insert_mo(1, w2, 1);
        let rd = g.push_event(1, r(1, RfSource::Write(w1)));
        let ix = EventIndex::new(&g);
        let fr = fr_relation(&g, &ix);
        assert!(fr.has(ix.index_of(rd), ix.index_of(w2)));
        assert!(!fr.has(ix.index_of(rd), ix.index_of(w1)));
    }

    #[test]
    fn fr_from_init_read_covers_all_writes() {
        let mut g = ExecutionGraph::new(2, BTreeMap::new());
        let w1 = g.push_event(0, w(1, 1));
        g.insert_mo(1, w1, 0);
        let rd = g.push_event(1, r(1, RfSource::Write(EventId::Init(1))));
        let ix = EventIndex::new(&g);
        let fr = fr_relation(&g, &ix);
        assert!(fr.has(ix.index_of(rd), ix.index_of(w1)));
    }

    #[test]
    fn coherence_rejects_reading_overwritten_value_after_own_write() {
        // T0: W(x,1); R(x) <- init   — CoWR violation.
        let mut g = ExecutionGraph::new(1, BTreeMap::new());
        let w1 = g.push_event(0, w(1, 1));
        g.insert_mo(1, w1, 0);
        g.push_event(0, r(1, RfSource::Write(EventId::Init(1))));
        assert!(!per_loc_coherent(&g));
    }

    #[test]
    fn coherence_rejects_backwards_corr() {
        // T1: R(x)<-w2 ; R(x)<-w1 with w1 mo-before w2 — CoRR violation.
        let mut g = ExecutionGraph::new(2, BTreeMap::new());
        let w1 = g.push_event(0, w(1, 1));
        g.insert_mo(1, w1, 0);
        let w2 = g.push_event(0, w(1, 2));
        g.insert_mo(1, w2, 1);
        g.push_event(1, r(1, RfSource::Write(w2)));
        g.push_event(1, r(1, RfSource::Write(w1)));
        assert!(!per_loc_coherent(&g));
    }

    #[test]
    fn coherence_rejects_reading_own_future_write() {
        // T0: R(x)<-w1 ; W(x,1)=w1 — CoRW violation (reading the future).
        let mut g = ExecutionGraph::new(1, BTreeMap::new());
        g.push_event(0, r(1, RfSource::Write(EventId::new(0, 1))));
        let w1 = g.push_event(0, w(1, 1));
        g.insert_mo(1, w1, 0);
        assert!(!per_loc_coherent(&g));
    }

    #[test]
    fn coherence_accepts_pending_reads() {
        let mut g = ExecutionGraph::new(1, BTreeMap::new());
        let w1 = g.push_event(0, w(1, 1));
        g.insert_mo(1, w1, 0);
        g.push_event(0, r(1, RfSource::Bottom));
        assert!(per_loc_coherent(&g));
    }

    #[test]
    fn atomicity_requires_adjacent_mo() {
        // T0 RMW reads init and writes; T1's plain write squeezes between.
        let mut g = ExecutionGraph::new(2, BTreeMap::new());
        g.push_event(
            0,
            EventKind::Read { loc: 1, mode: Mode::Rlx, rf: RfSource::Write(EventId::Init(1)), rmw: true, awaiting: false },
        );
        let wr = g.push_event(0, EventKind::Write { loc: 1, val: 1, mode: Mode::Rlx, rmw: true });
        let other = g.push_event(1, w(1, 9));
        g.insert_mo(1, other, 0);
        g.insert_mo(1, wr, 1); // rmw write after the interloper: violation
        assert!(!atomicity_holds(&g));
        // Reorder mo so the RMW write is adjacent to init: ok.
        let mut g2 = ExecutionGraph::new(2, BTreeMap::new());
        g2.push_event(
            0,
            EventKind::Read { loc: 1, mode: Mode::Rlx, rf: RfSource::Write(EventId::Init(1)), rmw: true, awaiting: false },
        );
        let wr2 = g2.push_event(0, EventKind::Write { loc: 1, val: 1, mode: Mode::Rlx, rmw: true });
        let other2 = g2.push_event(1, w(1, 9));
        g2.insert_mo(1, wr2, 0);
        g2.insert_mo(1, other2, 1);
        assert!(atomicity_holds(&g2));
    }

    #[test]
    fn rmw_pairs_found() {
        let mut g = ExecutionGraph::new(1, BTreeMap::new());
        let rd = g.push_event(
            0,
            EventKind::Read { loc: 1, mode: Mode::Rlx, rf: RfSource::Write(EventId::Init(1)), rmw: true, awaiting: false },
        );
        let wr = g.push_event(0, EventKind::Write { loc: 1, val: 1, mode: Mode::Rlx, rmw: true });
        g.insert_mo(1, wr, 0);
        assert_eq!(rmw_pairs(&g), vec![(rd, wr)]);
    }
}
