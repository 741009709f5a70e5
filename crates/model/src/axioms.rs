//! The models as axioms, and the one evaluator that decides them.
//!
//! Every model is a short list of named [`Axiom`]s over relation
//! expressions ([`Rel`]), in the style of herd's cat language (Alglave et
//! al.): base relations of the graph, event sets used as identity
//! relations `[S]`, and the relation algebra. [`holds`] evaluates a list
//! on one graph from scratch, over dense [`Relation`] bit matrices. That
//! is [`MemoryModel::is_consistent_reference`](crate::MemoryModel::is_consistent_reference),
//! the oracle the chain checkers ([`crate::chain`]) are held to.
//!
//! | vocabulary | meaning |
//! |---|---|
//! | [`po`] | program order, transitive; init writes precede every thread event |
//! | [`rf`] | reads-from, write → read; a `⊥` read has no edge |
//! | [`mo`] | modification order, transitive, each location's init write first |
//! | [`fr`] | from-read `rf⁻¹ ; mo`: a read → every write `mo`-after its source |
//! | [`rmw`] | an RMW's read part → its write part |
//! | [`loc`] | same location (accesses and init writes) |
//! | [`ext`] | different threads; an init write is external to every thread event |
//! | [`id`]`(`[`Set`]`)` | `[S]` for `R`, `W` (init included), `F`, `Init`, `⊒rel`, `⊒acq`, `sc`, RMW parts |
//! | operators | `a \| b` (∪), `a & b` (∩), `a - b` (\\), [`Rel::seq`] (`;`), [`Rel::inv`] (⁻¹), [`Rel::plus`], [`Rel::star`], [`Rel::opt`] (`?`) |
//! | [`Axiom`] | `acyclic`, `irreflexive`, `empty` |
//!
//! Every model starts with [`coherence`] and [`atomicity`]. A base
//! relation, a set, or an expression several parents share (the same
//! [`Rel`], cloned) is evaluated once per graph.

use std::sync::Arc;

use vsync_graph::{EventId, EventIndex, EventKind, ExecutionGraph, Relation, RfSource};

/// An event set, used as the identity relation [`id`]`(S)`. Only `W` and
/// `Init` hold init writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Set {
    /// Reads.
    R,
    /// Writes, init writes included.
    W,
    /// Fences.
    F,
    /// Init writes.
    Init,
    /// Events of mode `⊒rel`.
    Rel,
    /// Events of mode `⊒acq`.
    Acq,
    /// Events of mode `sc`.
    Sc,
    /// The parts of RMWs (flagged `rmw`, whether or not the write part exists yet).
    Rmw,
}

/// A relation expression over a graph's events, init writes included.
#[derive(Debug, Clone)]
pub struct Rel(Arc<Expr>);

#[derive(Debug)]
enum Expr {
    Po,
    Rf,
    Mo,
    Fr,
    Rmw,
    Loc,
    Ext,
    Id(Set),
    Union(Rel, Rel),
    Inter(Rel, Rel),
    Diff(Rel, Rel),
    Seq(Rel, Rel),
    Inv(Rel),
    Plus(Rel),
    Star(Rel),
    Opt(Rel),
}

fn node(e: Expr) -> Rel {
    Rel(Arc::new(e))
}

/// Program order, transitive; init writes precede every thread event.
pub fn po() -> Rel {
    node(Expr::Po)
}

/// Reads-from: a write → each read that reads from it.
pub fn rf() -> Rel {
    node(Expr::Rf)
}

/// Modification order, transitive, each location's init write first.
pub fn mo() -> Rel {
    node(Expr::Mo)
}

/// From-read `rf⁻¹ ; mo`: a read → every write `mo`-after its source.
pub fn fr() -> Rel {
    node(Expr::Fr)
}

/// An RMW's read part → its write part.
pub fn rmw() -> Rel {
    node(Expr::Rmw)
}

/// Same location: every pair of accesses and init writes of one location.
pub fn loc() -> Rel {
    node(Expr::Loc)
}

/// Different threads; an init write is external to every thread event.
pub fn ext() -> Rel {
    node(Expr::Ext)
}

/// `[S]`: the identity on the events of `s`.
pub fn id(s: Set) -> Rel {
    node(Expr::Id(s))
}

impl Rel {
    /// `self ; other`.
    pub fn seq(&self, other: &Rel) -> Rel {
        node(Expr::Seq(self.clone(), other.clone()))
    }

    /// `self⁻¹`.
    pub fn inv(&self) -> Rel {
        node(Expr::Inv(self.clone()))
    }

    /// `self⁺`.
    pub fn plus(&self) -> Rel {
        node(Expr::Plus(self.clone()))
    }

    /// `self*`.
    pub fn star(&self) -> Rel {
        node(Expr::Star(self.clone()))
    }

    /// `self?`.
    pub fn opt(&self) -> Rel {
        node(Expr::Opt(self.clone()))
    }
}

macro_rules! operator {
    ($($op:ident::$f:ident => $e:ident, $doc:literal;)*) => {$(
        impl std::ops::$op for Rel {
            type Output = Rel;

            #[doc = $doc]
            fn $f(self, other: Rel) -> Rel {
                node(Expr::$e(self, other))
            }
        }
    )*};
}

operator! {
    BitOr::bitor => Union, "`self ∪ other`.";
    BitAnd::bitand => Inter, "`self ∩ other`.";
    Sub::sub => Diff, "`self \\ other`.";
}

/// A named constraint on one relation.
#[derive(Debug, Clone)]
pub enum Axiom {
    /// The relation has no cycle.
    Acyclic(&'static str, Rel),
    /// No event is related to itself.
    Irreflexive(&'static str, Rel),
    /// The relation has no edge.
    Empty(&'static str, Rel),
}

/// Coherence, shared by every model: `acyclic((po ∩ loc) ∪ rf ∪ mo ∪ fr)`
/// (CoWW, CoWR, CoRW and CoRR along each thread; `⊥` reads are
/// unconstrained).
pub fn coherence() -> Axiom {
    Axiom::Acyclic("coherence", (po() & loc()) | rf() | mo() | fr())
}

/// Atomicity, shared by every model: `empty(rmw \ (rf⁻¹ ; (mo \ (mo ; mo))))`:
/// an RMW's write part is the immediate `mo`-successor of its read part's
/// source, so a write part whose read is still `⊥` is inconsistent.
pub fn atomicity() -> Axiom {
    let mo = mo();
    Axiom::Empty("atomicity", rmw() - rf().inv().seq(&(mo.clone() - mo.seq(&mo))))
}

/// Does `g` satisfy every axiom of `axioms`?
pub fn holds(axioms: &[Axiom], g: &ExecutionGraph) -> bool {
    let mut ev = Eval::new(g);
    axioms.iter().all(|a| match a {
        Axiom::Acyclic(_, r) => ev.eval(r).is_acyclic(),
        Axiom::Irreflexive(_, r) => ev.eval(r).is_irreflexive(),
        Axiom::Empty(_, r) => ev.eval(r).has_no_edges(),
    })
}

/// The events `a` of `g` with `a r b`: `dom(r ; [b])`.
pub fn predecessors(r: &Rel, g: &ExecutionGraph, b: EventId) -> Vec<EventId> {
    let mut ev = Eval::new(g);
    let r = ev.rel(r);
    let (r, b) = (&ev.memo[r], ev.ix.index_of(b));
    ev.ix.iter().filter(|&(a, _)| r.has(a, b)).map(|(_, id)| id).collect()
}

/// The number of base relations and sets ([`base_slot`]).
const BASES: usize = 15;

/// One graph's relations, each evaluated once.
struct Eval<'g> {
    g: &'g ExecutionGraph,
    ix: EventIndex,
    /// Every relation evaluated so far.
    memo: Vec<Relation>,
    /// The memo index of each base relation and set.
    bases: [Option<usize>; BASES],
    /// The memo index of each expression that more than one parent holds.
    shared: Vec<(Arc<Expr>, usize)>,
}

impl<'g> Eval<'g> {
    fn new(g: &'g ExecutionGraph) -> Self {
        let ix = EventIndex::new(g);
        Eval { g, ix, memo: Vec::new(), bases: [None; BASES], shared: Vec::new() }
    }

    fn eval(&mut self, r: &Rel) -> &Relation {
        let i = self.rel(r);
        &self.memo[i]
    }

    /// Evaluate `r`: the index of its relation in the memo.
    fn rel(&mut self, r: &Rel) -> usize {
        let slot = base_slot(&r.0);
        let shared = slot.is_none() && Arc::strong_count(&r.0) > 1;
        if let Some(i) = slot.and_then(|s| self.bases[s]) {
            return i;
        }
        if let Some(&(_, i)) = self.shared.iter().find(|(e, _)| shared && Arc::ptr_eq(e, &r.0)) {
            return i;
        }
        let out = match &*r.0 {
            Expr::Union(a, b) | Expr::Inter(a, b) | Expr::Diff(a, b) | Expr::Seq(a, b) => {
                let a = self.rel(a);
                // ∩, \ and ; keep an empty left side empty: `b` is not evaluated.
                if !matches!(&*r.0, Expr::Union(..)) && self.memo[a].has_no_edges() {
                    return a;
                }
                let b = self.rel(b);
                let (x, y) = (&self.memo[a], &self.memo[b]);
                let mut out = match &*r.0 {
                    Expr::Seq(..) => x.compose(y),
                    _ => x.clone(),
                };
                match &*r.0 {
                    Expr::Union(..) => out.union_with(y),
                    Expr::Inter(..) => out.intersect_with(y),
                    Expr::Diff(..) => out.subtract(y),
                    _ => {}
                }
                out
            }
            Expr::Inv(a) => {
                let a = self.rel(a);
                self.memo[a].transpose()
            }
            Expr::Plus(a) | Expr::Star(a) | Expr::Opt(a) => {
                let a = self.rel(a);
                let mut out = self.memo[a].clone();
                if !matches!(&*r.0, Expr::Opt(_)) {
                    out.close();
                }
                if !matches!(&*r.0, Expr::Plus(_)) {
                    (0..out.len()).for_each(|i| out.add(i, i));
                }
                out
            }
            base => self.base(base),
        };
        let i = self.memo.len();
        self.memo.push(out);
        match slot {
            Some(s) => self.bases[s] = Some(i),
            None if shared => self.shared.push((r.0.clone(), i)),
            None => {}
        }
        i
    }

    fn base(&self, e: &Expr) -> Relation {
        let (g, ix, n) = (self.g, &self.ix, self.ix.len());
        let mut out = Relation::new(n);
        match e {
            Expr::Po => {
                for a in 0..n {
                    let after = match ix.id_of(a) {
                        EventId::Init(_) => ix.init_count()..n,
                        EventId::Event { thread, index } => {
                            a + 1..a + g.thread_len(thread) - index as usize
                        }
                    };
                    after.for_each(|b| out.add(a, b));
                }
            }
            Expr::Rf | Expr::Fr => {
                for (r, loc, src) in g.reads() {
                    let RfSource::Write(w) = src else { continue };
                    if let Expr::Rf = e {
                        out.add(ix.index_of(w), ix.index_of(r));
                        continue;
                    }
                    let after = g.mo_position(w).expect("an rf source is in mo");
                    g.mo(loc)[after..]
                        .iter()
                        .for_each(|&w2| out.add(ix.index_of(r), ix.index_of(w2)));
                }
            }
            Expr::Mo => {
                for loc in g.written_locs() {
                    let init = std::iter::once(EventId::Init(loc));
                    let ws: Vec<usize> =
                        init.chain(g.mo(loc).iter().copied()).map(|w| ix.index_of(w)).collect();
                    for (i, &a) in ws.iter().enumerate() {
                        ws[i + 1..].iter().for_each(|&b| out.add(a, b));
                    }
                }
            }
            Expr::Rmw => {
                for (w, ev) in g.events() {
                    let (EventKind::Write { rmw: true, .. }, EventId::Event { thread, index }) =
                        (&ev.kind, w)
                    else {
                        continue;
                    };
                    let r =
                        EventId::new(thread, index.checked_sub(1).expect("an RMW has a read part"));
                    out.add(ix.index_of(r), ix.index_of(w));
                }
            }
            Expr::Loc => {
                // Through each location's init write: `a → init(loc a) → b`.
                let mut from_init = Relation::new(n);
                for (a, e) in ix.iter() {
                    if let Some(l) = g.loc_of(e) {
                        let i = ix.index_of(EventId::Init(l));
                        out.add(a, i);
                        from_init.add(i, a);
                    }
                }
                out = out.compose(&from_init);
            }
            Expr::Ext => {
                let threads: Vec<_> = ix.iter().map(|(_, e)| e.thread()).collect();
                for a in 0..n {
                    (0..n).filter(|&b| threads[a] != threads[b]).for_each(|b| out.add(a, b));
                }
            }
            Expr::Id(s) => {
                ix.iter().filter(|&(_, e)| member(g, *s, e)).for_each(|(i, _)| out.add(i, i))
            }
            _ => unreachable!("not a base relation or set"),
        }
        out
    }
}

/// Where a base relation or set keeps its memo index: two occurrences of
/// one are one relation.
fn base_slot(e: &Expr) -> Option<usize> {
    Some(match e {
        Expr::Po => 0,
        Expr::Rf => 1,
        Expr::Mo => 2,
        Expr::Fr => 3,
        Expr::Rmw => 4,
        Expr::Loc => 5,
        Expr::Ext => 6,
        Expr::Id(s) => 7 + *s as usize,
        _ => return None,
    })
}

fn member(g: &ExecutionGraph, s: Set, e: EventId) -> bool {
    let EventId::Event { .. } = e else { return matches!(s, Set::W | Set::Init) };
    let kind = &g.event(e).kind;
    match s {
        Set::R => kind.is_read(),
        Set::W => kind.is_write(),
        Set::F => matches!(kind, EventKind::Fence { .. }),
        Set::Init => false,
        Set::Rel => kind.mode().is_release(),
        Set::Acq => kind.mode().is_acquire(),
        Set::Sc => kind.mode().is_sc(),
        Set::Rmw => {
            matches!(kind, EventKind::Read { rmw: true, .. } | EventKind::Write { rmw: true, .. })
        }
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

    fn has(g: &ExecutionGraph, r: Rel, a: EventId, b: EventId) -> bool {
        predecessors(&r, g, b).contains(&a)
    }

    fn per_loc_coherent(g: &ExecutionGraph) -> bool {
        holds(&[coherence()], g)
    }

    fn atomicity_holds(g: &ExecutionGraph) -> bool {
        holds(&[atomicity()], g)
    }

    #[test]
    fn fr_points_at_newer_writes() {
        let mut g = ExecutionGraph::new(2, BTreeMap::new());
        let w1 = g.push_event(0, w(1, 1));
        g.insert_mo(1, w1, 0);
        let w2 = g.push_event(0, w(1, 2));
        g.insert_mo(1, w2, 1);
        let rd = g.push_event(1, r(1, RfSource::Write(w1)));
        assert!(has(&g, fr(), rd, w2));
        assert!(!has(&g, fr(), rd, w1));
    }

    #[test]
    fn fr_from_init_read_covers_all_writes() {
        let mut g = ExecutionGraph::new(2, BTreeMap::new());
        let w1 = g.push_event(0, w(1, 1));
        g.insert_mo(1, w1, 0);
        let rd = g.push_event(1, r(1, RfSource::Write(EventId::Init(1))));
        assert!(has(&g, fr(), rd, w1));
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
        // A write part whose read part is still `⊥`: violation.
        g2.set_rf(EventId::new(0, 0), RfSource::Bottom);
        assert!(!atomicity_holds(&g2));
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
        assert_eq!(predecessors(&rmw(), &g, wr), vec![rd]);
        assert!(predecessors(&rmw(), &g, rd).is_empty());
    }

    /// The operators on a two-thread graph: `T0: W(x) ; F_sc`, `T1: R(x)`
    /// reading T0's write.
    #[test]
    fn operators_compose_as_in_cat() {
        let mut g = ExecutionGraph::new(2, BTreeMap::new());
        let wx = g.push_event(0, w(1, 1));
        g.insert_mo(1, wx, 0);
        let f = g.push_event(0, EventKind::Fence { mode: Mode::Sc });
        let rd = g.push_event(1, r(1, RfSource::Write(wx)));
        let init = EventId::Init(1);
        let preds = |r: Rel, b| predecessors(&r, &g, b);
        assert_eq!(preds(po(), f), vec![init, wx]);
        assert_eq!(preds(po() & loc(), f), vec![]);
        assert_eq!(preds(rf() & ext(), rd), vec![wx]);
        assert_eq!(preds(rf().inv(), wx), vec![rd]);
        assert_eq!(preds(po() - id(Set::Init).seq(&po()), f), vec![wx]);
        assert_eq!(preds(po().seq(&id(Set::F)) | rf(), f), vec![init, wx]);
        assert_eq!(preds((rf() | mo()).plus(), rd), vec![init, wx]);
        assert_eq!(preds(rf().star(), rd), vec![wx, rd]);
        assert_eq!(preds(rf().opt(), f), vec![f]);
        assert_eq!(preds(id(Set::Sc) & id(Set::F), f), vec![f]);
        assert_eq!(preds(id(Set::W), init), vec![init]);
    }
}
