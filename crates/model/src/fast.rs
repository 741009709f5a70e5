//! The closure-free from-scratch checks of [`Sc`](crate::Sc) and
//! [`Tso`](crate::Tso).
//!
//! The naive formulations in [`crate::axioms`] rebuild every relation from
//! scratch and lean on `O(n³/64)` Floyd–Warshall closures for each axiom.
//! This module computes the same predicates with on-demand algorithms:
//!
//! * an [`AxiomContext`] is built **once per graph** — the [`EventIndex`]
//!   and the extended-modification-order position of every access — and
//!   threaded through all axiom checks;
//! * the SC/TSO global orders run DFS cycle detection over immediate-edge
//!   relations instead of closing them;
//! * RMW atomicity and per-location coherence are one pass over the
//!   cached positions.
//!
//! Every predicate here is extensionally equal to its reference
//! counterpart; the differential test suite asserts this on randomized
//! graphs and on the whole lock catalog. ([`Vmm`](crate::Vmm) does not come
//! through here: its check is the vector-clock [`crate::chain::VmmChecker`].)

use vsync_graph::{EventId, EventIndex, EventKind, ExecutionGraph, Loc, Relation, RfSource};

/// Per-graph analysis cache shared by all fast axiom checks.
///
/// Built once per [`ExecutionGraph`]; all lookups afterwards are `O(1)`
/// array reads instead of `mo` scans.
pub struct AxiomContext<'g> {
    g: &'g ExecutionGraph,
    /// Dense index of the graph's events (init writes included).
    pub ix: EventIndex,
    n: usize,
    /// Location accessed by each dense index (`None` for fences/errors).
    loc: Vec<Option<Loc>>,
    /// Extended-mo position: a write's own position (init = 0), a read's
    /// source position. `None` for pending reads, fences, errors, and
    /// writes that are not (yet) in `mo`.
    pos: Vec<Option<u32>>,
    /// Is the event a (possibly init) write?
    is_write: Vec<bool>,
    /// Is the event a read?
    is_read: Vec<bool>,
    /// Dense index of each read's rf source (`None` for `⊥`).
    src: Vec<Option<u32>>,
    /// RMW pairs (read part, write part) as dense indices.
    rmw_pairs: Vec<(usize, usize)>,
}

/// Graphs with at most this many non-init events are cheaper through the
/// closure-based reference formulation: building the per-graph
/// [`AxiomContext`] (dense index, mo positions) costs more than the tiny
/// Floyd–Warshall closures it avoids. Governs the from-scratch checks of
/// [`Sc`](crate::Sc) and [`Tso`](crate::Tso) only.
pub const SMALL_GRAPH_EVENTS: usize = 20;

/// Should a model's `is_consistent` delegate to its reference
/// formulation for this graph? (See [`SMALL_GRAPH_EVENTS`].)
#[inline]
pub(crate) fn below_fast_path_threshold(g: &ExecutionGraph) -> bool {
    let below = g.num_events() <= SMALL_GRAPH_EVENTS;
    attribution::note(below);
    below
}

/// Opt-in counters attributing every consistency answer either to a fast
/// path (the [`AxiomContext`] checks, or the vector clocks of
/// [`crate::chain::VmmChecker`]) or to a closure-based reference
/// formulation ([`SMALL_GRAPH_EVENTS`] delegation,
/// [`ReferenceModel`](crate::ReferenceModel)).
///
/// Process-global by necessity — `is_consistent` takes no context — so the
/// counters are only meaningful when one session runs at a time (the CLI's
/// `--metrics`, which snapshots a delta around its single session). Off by
/// default: one relaxed load per check when disabled.
pub mod attribution {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    static ENABLED: AtomicBool = AtomicBool::new(false);
    static REFERENCE: AtomicU64 = AtomicU64::new(0);
    static FAST: AtomicU64 = AtomicU64::new(0);

    /// Count one consistency answer, if counting is on.
    #[inline]
    pub(crate) fn note(reference: bool) {
        if ENABLED.load(Ordering::Relaxed) {
            let counter = if reference { &REFERENCE } else { &FAST };
            counter.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Turn the process-global counters on or off.
    pub fn set_checker_attribution(on: bool) {
        ENABLED.store(on, Ordering::Relaxed);
    }

    /// Current `(fast_path, reference_checker)` consistency-check counts.
    /// Snapshot before and after a run and subtract to scope a delta.
    #[must_use]
    pub fn checker_attribution() -> (u64, u64) {
        (FAST.load(Ordering::Relaxed), REFERENCE.load(Ordering::Relaxed))
    }
}

impl<'g> AxiomContext<'g> {
    /// Build the context: one pass over the graph.
    pub fn new(g: &'g ExecutionGraph) -> Self {
        let ix = EventIndex::new(g);
        let n = ix.len();
        let mut cx = AxiomContext {
            g,
            n,
            loc: vec![None; n],
            pos: vec![None; n],
            is_write: vec![false; n],
            is_read: vec![false; n],
            src: vec![None; n],
            rmw_pairs: Vec::new(),
            ix,
        };
        // Init writes occupy indices 0..init_count, position 0 in their mo.
        for i in 0..cx.ix.init_count() {
            let EventId::Init(l) = cx.ix.id_of(i) else { unreachable!() };
            cx.loc[i] = Some(l);
            cx.pos[i] = Some(0);
            cx.is_write[i] = true;
        }
        // Write positions come from the mo lists (position 1 onwards).
        for l in g.written_locs() {
            for (p, &w) in g.mo(l).iter().enumerate() {
                let idx = cx.ix.index_of(w);
                cx.pos[idx] = Some(p as u32 + 1);
            }
        }
        for (id, ev) in g.events() {
            let idx = cx.ix.index_of(id);
            match &ev.kind {
                EventKind::Write { loc, rmw, .. } => {
                    cx.loc[idx] = Some(*loc);
                    cx.is_write[idx] = true;
                    if *rmw {
                        // The language emits the read part immediately
                        // before the write part in the same thread.
                        cx.rmw_pairs.push((idx - 1, idx));
                    }
                }
                EventKind::Read { loc, rf, .. } => {
                    cx.loc[idx] = Some(*loc);
                    cx.is_read[idx] = true;
                    if let RfSource::Write(w) = rf {
                        let widx = cx.ix.index_of(*w);
                        cx.src[idx] = Some(widx as u32);
                        cx.pos[idx] = cx.pos[widx];
                    }
                }
                _ => {}
            }
        }
        cx
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g ExecutionGraph {
        self.g
    }

    /// Number of indexed events.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Is the context over an empty graph?
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The immediate program-order relation (init events before every
    /// thread's first event) — identical to [`crate::axioms::po_relation`].
    pub fn po_relation(&self) -> Relation {
        let g = self.g;
        let mut po = Relation::new(self.n);
        for init_idx in 0..self.ix.init_count() {
            for t in 0..g.num_threads() {
                if g.thread_len(t as u32) > 0 {
                    po.add(init_idx, self.ix.index_of(EventId::new(t as u32, 0)));
                }
            }
        }
        for t in 0..g.num_threads() {
            for i in 1..g.thread_len(t as u32) {
                po.add(
                    self.ix.index_of(EventId::new(t as u32, (i - 1) as u32)),
                    self.ix.index_of(EventId::new(t as u32, i as u32)),
                );
            }
        }
        po
    }

    /// The reads-from relation from the cached source indices.
    pub fn rf_relation(&self) -> Relation {
        let mut rf = Relation::new(self.n);
        for (r, s) in self.src.iter().enumerate() {
            if let Some(s) = s {
                rf.add(*s as usize, r);
            }
        }
        rf
    }

    /// Add the immediate modification order into `rel` (enough for
    /// acyclicity checks, where `mo⁺` and `mo` have the same cycles).
    fn add_mo_immediate(&self, rel: &mut Relation) {
        for l in self.g.written_locs() {
            let mut prev = self.ix.index_of(EventId::Init(l));
            for &w in self.g.mo(l) {
                let cur = self.ix.index_of(w);
                rel.add(prev, cur);
                prev = cur;
            }
        }
    }

    /// Add the from-read relation into `rel`: each resolved read to every
    /// write positioned after its source.
    fn add_fr(&self, rel: &mut Relation) {
        for (r, p) in self.pos.iter().enumerate() {
            let (true, Some(p)) = (self.is_read[r], p) else { continue };
            let l = self.loc[r].expect("read has a location");
            for (wpos, &w) in self.g.mo(l).iter().enumerate() {
                if wpos as u32 + 1 > *p {
                    rel.add(r, self.ix.index_of(w));
                }
            }
        }
    }

    /// RMW atomicity via positions: each RMW write must sit immediately
    /// after its read's source in the extended mo.
    pub fn atomicity_holds(&self) -> bool {
        self.rmw_pairs.iter().all(|&(r, w)| {
            matches!((self.pos[r], self.pos[w]), (Some(rp), Some(wp)) if wp == rp + 1)
        })
    }

    /// Per-location coherence (CoWW/CoWR/CoRW/CoRR) in one pass per
    /// thread: positions must be non-decreasing along each thread's
    /// same-location accesses, strictly increasing into writes.
    ///
    /// Checking only *adjacent* resolved accesses is complete: the pair
    /// constraint `pos(a) < pos(b)` (strict iff `b` writes) composes
    /// transitively along the subsequence (DESIGN.md).
    pub fn per_loc_coherent(&self) -> bool {
        let g = self.g;
        let mut last: Vec<(Loc, u32)> = Vec::with_capacity(8); // loc -> last pos
        for t in 0..g.num_threads() {
            last.clear();
            for i in 0..g.thread_len(t as u32) {
                let idx = self.ix.index_of(EventId::new(t as u32, i as u32));
                let (Some(l), Some(p)) = (self.loc[idx], self.pos[idx]) else { continue };
                match last.iter_mut().find(|(ll, _)| *ll == l) {
                    Some((_, prev)) => {
                        let ok = if self.is_write[idx] { *prev < p } else { *prev <= p };
                        if !ok {
                            return false;
                        }
                        *prev = p;
                    }
                    None => last.push((l, p)),
                }
            }
        }
        true
    }

    /// The SC global order `po ∪ rf ∪ mo ∪ fr` with immediate mo edges
    /// (same cycles as the closed version).
    pub fn sc_order(&self) -> Relation {
        let mut rel = self.po_relation();
        rel.union_with(&self.rf_relation());
        self.add_mo_immediate(&mut rel);
        self.add_fr(&mut rel);
        rel
    }

    /// The TSO global order: `ppo ∪ rfe ∪ mo ∪ fr`, where `ppo` drops
    /// unfenced write→read pairs and `rfe` is external reads-from.
    pub fn tso_order(
        &self,
        wr_ordered: impl Fn(&ExecutionGraph, u32, usize, usize) -> bool,
    ) -> Relation {
        let g = self.g;
        let mut ghb = Relation::new(self.n);
        self.add_mo_immediate(&mut ghb);
        self.add_fr(&mut ghb);
        // External reads-from only (init counts as external).
        for (r, s) in self.src.iter().enumerate() {
            let Some(s) = s else { continue };
            let w = self.ix.id_of(*s as usize);
            let rid = self.ix.id_of(r);
            if w.thread() != rid.thread() {
                ghb.add(*s as usize, r);
            }
        }
        // Preserved program order.
        for init_idx in 0..self.ix.init_count() {
            for t in 0..g.num_threads() {
                if g.thread_len(t as u32) > 0 {
                    ghb.add(init_idx, self.ix.index_of(EventId::new(t as u32, 0)));
                }
            }
        }
        for t in 0..g.num_threads() {
            let evs = g.thread_events(t as u32);
            for i in 0..evs.len() {
                for j in i + 1..evs.len() {
                    let keep = if evs[i].kind.is_write() && evs[j].kind.is_read() {
                        wr_ordered(g, t as u32, i, j)
                    } else {
                        true
                    };
                    if keep {
                        ghb.add(
                            self.ix.index_of(EventId::new(t as u32, i as u32)),
                            self.ix.index_of(EventId::new(t as u32, j as u32)),
                        );
                    }
                }
            }
        }
        ghb
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axioms;
    use std::collections::BTreeMap;
    use vsync_graph::Mode;

    fn w(loc: u64, val: u64) -> EventKind {
        EventKind::Write { loc, val, mode: Mode::Rlx, rmw: false }
    }

    fn r(loc: u64, rf: RfSource) -> EventKind {
        EventKind::Read { loc, mode: Mode::Rlx, rf, rmw: false, awaiting: false }
    }

    fn sample() -> ExecutionGraph {
        let mut g = ExecutionGraph::new(2, BTreeMap::new());
        let w1 = g.push_event(0, w(1, 1));
        g.insert_mo(1, w1, 0);
        let w2 = g.push_event(0, w(1, 2));
        g.insert_mo(1, w2, 1);
        g.push_event(1, r(1, RfSource::Write(w1)));
        g.push_event(1, r(2, RfSource::Write(EventId::Init(2))));
        g
    }

    #[test]
    fn positions_match_mo_position() {
        let g = sample();
        let cx = AxiomContext::new(&g);
        for (i, id) in cx.ix.iter() {
            let expected = match id {
                EventId::Init(_) => Some(0),
                _ => match &g.event(id).kind {
                    EventKind::Write { .. } => g.mo_position(id),
                    EventKind::Read { rf: RfSource::Write(src), .. } => g.mo_position(*src),
                    _ => None,
                },
            };
            assert_eq!(cx.pos[i].map(|p| p as usize), expected, "position of {id}");
        }
    }

    #[test]
    fn fast_structural_axioms_agree() {
        let g = sample();
        let cx = AxiomContext::new(&g);
        assert_eq!(cx.atomicity_holds(), axioms::atomicity_holds(&g));
        assert_eq!(cx.per_loc_coherent(), axioms::per_loc_coherent(&g));
    }

    #[test]
    fn coherence_fast_catches_corr_violation() {
        // T1 reads w2 then w1 (older): CoRR violation.
        let mut g = ExecutionGraph::new(2, BTreeMap::new());
        let w1 = g.push_event(0, w(1, 1));
        g.insert_mo(1, w1, 0);
        let w2 = g.push_event(0, w(1, 2));
        g.insert_mo(1, w2, 1);
        g.push_event(1, r(1, RfSource::Write(w2)));
        g.push_event(1, r(1, RfSource::Write(w1)));
        let cx = AxiomContext::new(&g);
        assert!(!cx.per_loc_coherent());
        assert!(!axioms::per_loc_coherent(&g));
    }
}
