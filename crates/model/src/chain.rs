//! Incremental consistency along an exploration chain.
//!
//! The explorer grows execution graphs one po-maximal event at a time and
//! asks, after every step, whether the graph is still consistent. A
//! [`ChainChecker`] carries the derived orders along that chain instead of
//! re-deriving them per question:
//!
//! * [`ChainChecker::reset`] answers for an arbitrary graph (one nobody
//!   holds a state for) and makes it the checker's state;
//! * [`ChainChecker::push`] answers for "the state plus the next event of
//!   `thread`" — nothing recorded may read from it or follow it in program
//!   order, and a write must already sit in `mo`;
//! * [`ChainChecker::pop`] undoes the last push on `thread` — and, popped
//!   back to per-thread prefixes closed under `po ∪ rf`, leaves the state a
//!   `reset` of that restriction would build, which is how a backward
//!   revisit cuts the chain's state back (DESIGN.md §2.2);
//! * [`ChainChecker::floor`] answers, without changing the state, below
//!   which extended-mo position coherence rules out every source and
//!   placement of the next access of a location by a thread.
//!
//! [`Vmm`](crate::Vmm) implements it with per-event happens-before
//! **vector clocks** ([`VmmChecker`]); [`Sc`](crate::Sc) and
//! [`Tso`](crate::Tso) keep no state and search for a cycle through the
//! pushed event (`order.rs`); [`ReferenceModel`](crate::ReferenceModel)
//! uses the [`Stateless`] adapter, which answers every question with
//! [`MemoryModel::is_consistent`]. The soundness argument is DESIGN.md §2.

use vsync_graph::{EventId, EventKind, ExecutionGraph, Loc, Relation, RfSource, ThreadId};

use crate::fast;
use crate::MemoryModel;

/// A consistency checker that follows one exploration chain.
///
/// A fresh checker has no state: the first call must be a `reset`. The
/// state *records* a po-prefix of every thread of the graph it follows —
/// after `reset(g)` all of `g`, after `push(g, t)` one more event of `t` —
/// and every later call must pass a graph whose recorded part is unchanged.
/// After a `false` answer the state still contains the offending event
/// (so [`ChainChecker::pop`] stays symmetric), but nothing may be pushed
/// on top of it.
pub trait ChainChecker {
    /// Is `g` consistent? Forgets all previous state; `g` becomes the
    /// state.
    fn reset(&mut self, g: &ExecutionGraph) -> bool;

    /// Is the recorded part of `g` plus the next unrecorded event of
    /// `thread` (mo-placed if it is a write) consistent? That event is the
    /// newest one *as far as the state knows*: `g` may already hold later
    /// events — of other threads, even reading from this one — which are
    /// ignored until their own `push`. (A checker without state cannot
    /// ignore them and may answer for all of `g`; models are monotone, so
    /// a `false` is a `false` for the final graph too, and the caller's
    /// last `push` is exact.)
    fn push(&mut self, g: &ExecutionGraph, thread: ThreadId) -> bool;

    /// [`ChainChecker::push`] for an extension the caller already knows to
    /// be consistent (it was answered `true` and popped since): records
    /// the event without checking it.
    fn push_accepted(&mut self, g: &ExecutionGraph, thread: ThreadId);

    /// Forget the newest recorded event of `thread`.
    fn pop(&mut self, thread: ThreadId);

    /// The coherence floor of `thread`'s next access of `loc`: no
    /// extension of the recorded part of `g` in which that access reads
    /// from a write at an extended-mo position below the floor, or is a
    /// write inserted at a `mo` index below it, is consistent.
    ///
    /// The default counts the thread's own earlier accesses only
    /// ([`thread_floor`]), which every model's per-location coherence
    /// respects. [`VmmChecker`] counts every access hb-before the next
    /// event: for a write, which synchronizes with nothing, that is
    /// exactly the bound coherence sets; for a read it is a lower bound,
    /// since an acquire read also joins its source's clock.
    fn floor(&self, g: &ExecutionGraph, thread: ThreadId, loc: Loc) -> usize {
        thread_floor(g, thread, loc)
    }

    /// How many `false` answers, over the checker's whole life, the SC
    /// axiom alone gave: every other axiom held on the graph asked about.
    /// `None` when the checker cannot tell them apart from the others,
    /// which is the default. `reset` keeps the count.
    fn sc_rejections(&self) -> Option<u64> {
        None
    }
}

/// The coherence floor from `thread`'s own accesses alone (CoRR, CoWR,
/// CoRW, CoWW along program order): the extended-mo position of the last
/// write it made to `loc`, or of the source of the last read it made of
/// `loc` (0 if none) — a sound floor under every model.
pub fn thread_floor(g: &ExecutionGraph, thread: ThreadId, loc: Loc) -> usize {
    for (i, ev) in g.thread_events(thread).iter().enumerate().rev() {
        match &ev.kind {
            EventKind::Write { loc: l, .. } if *l == loc => {
                return g.mo_position(EventId::new(thread, i as u32)).unwrap_or(0);
            }
            EventKind::Read { loc: l, rf: RfSource::Write(w), .. } if *l == loc => {
                return g.mo_position(*w).unwrap_or(0);
            }
            _ => {}
        }
    }
    0
}

/// The adapter for models without incremental state: every question is a
/// from-scratch [`MemoryModel::is_consistent`] or [`MemoryModel::floor`].
#[derive(Debug, Clone, Copy)]
pub struct Stateless<M>(pub M);

impl<M: MemoryModel> ChainChecker for Stateless<M> {
    fn reset(&mut self, g: &ExecutionGraph) -> bool {
        self.0.is_consistent(g)
    }

    fn push(&mut self, g: &ExecutionGraph, _thread: ThreadId) -> bool {
        self.0.is_consistent(g)
    }

    fn push_accepted(&mut self, _g: &ExecutionGraph, _thread: ThreadId) {}

    fn pop(&mut self, _thread: ThreadId) {}

    fn floor(&self, g: &ExecutionGraph, thread: ThreadId, loc: Loc) -> usize {
        self.0.floor(g, thread, loc)
    }
}

/// Record, without checking, the events of `g` from `from[t]` up to
/// `to[t]` of every thread `t`, in a `po ∪ rf` order (a read waits for its
/// source): what a state popped back from the accepted prefixes `to` to
/// the `po ∪ rf`-closed prefixes `from` lacks. The events may read from
/// each other across threads, and from events recorded in any order
/// before, so no single thread order replays them.
pub fn record<C: ChainChecker + ?Sized>(ck: &mut C, g: &ExecutionGraph, from: &[u32], to: &[u32]) {
    let mut at = from.to_vec();
    while at != to {
        let mut progress = false;
        for t in 0..at.len() {
            while at[t] < to[t] {
                let ev = &g.thread_events(t as ThreadId)[at[t] as usize];
                if let EventKind::Read {
                    rf: RfSource::Write(EventId::Event { thread, index }),
                    ..
                } = ev.kind
                {
                    if at[thread as usize] <= index {
                        break;
                    }
                }
                ck.push_accepted(g, t as ThreadId);
                at[t] += 1;
                progress = true;
            }
        }
        assert!(progress, "the events to record form a po ∪ rf cycle");
    }
}

const NONE: u32 = u32::MAX;

/// What the checker remembers per event besides its clocks.
#[derive(Debug, Clone, Copy)]
struct Meta {
    /// `1 +` po index of the last `⊒rel` fence at or before this event
    /// (`0`: none) — the fence half of a later write's release clock.
    rel_fence: u32,
    /// SC fences at or before this event in its thread.
    sc_fences: u32,
    /// Slot of the event's location in [`ThreadRec::heads`]; [`NONE`] for
    /// events without an extended-mo position (fences, errors, `⊥` reads).
    slot: u32,
    /// The head of that slot before this event was linked in.
    prev: u32,
    /// Is the event an SC access or an SC fence?
    sc: bool,
}

/// One thread's records: parallel per-event arrays that [`pop`] truncates.
///
/// [`pop`]: ChainChecker::pop
#[derive(Debug, Default)]
struct ThreadRec {
    /// Three clocks per event, `3 × threads` entries: the happens-before
    /// clock (`hb[u]` = how many events of thread `u` are hb-before or
    /// equal to the event), the pending-acquire clock (release clocks of
    /// everything read at or before the event, joined in by the next
    /// `⊒acq` fence) and, for writes, the release clock (what a reader of
    /// the write synchronizes with).
    clocks: Vec<u32>,
    meta: Vec<Meta>,
    /// Per accessed location: `1 +` po index of the thread's last
    /// positioned access (`0`: none). Older ones chain through
    /// [`Meta::prev`].
    heads: Vec<(Loc, u32)>,
}

/// The vector-clock [`ChainChecker`] of [`Vmm`](crate::Vmm).
///
/// Every axiom is decided for the *new* event only (DESIGN.md §2): its
/// clock is the join of its po-predecessor's and of what it synchronizes
/// with, coherence compares its mo position with the last same-location
/// access inside each thread's clock prefix, atomicity looks at its two mo
/// neighbours, and the SC axiom is re-derived from the clocks only when
/// the event can close a `psc` cycle. [`ChainChecker::reset`] replays the
/// same step over the graph in a `po ∪ rf` topological order.
#[derive(Debug, Default)]
pub struct VmmChecker {
    nt: usize,
    th: Vec<ThreadRec>,
    /// SC events currently recorded.
    sc_events: usize,
    /// The clocks of the event being pushed.
    cur: Vec<u32>,
    psc: PscScratch,
    /// `false` answers of [`VmmChecker::psc_acyclic`] so far.
    sc_rejections: u64,
}

/// Which axioms a [`VmmChecker::step`] decides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Check {
    /// All of them — a chain step.
    All,
    /// All but the SC axiom, which the caller runs once at the end — one
    /// step of a `reset` replay.
    PerEvent,
    /// None: the extension is known to be consistent.
    None,
}

/// The position of `w` in the extended modification order `mo` of its
/// location (init = 0), if it has one.
pub(crate) fn mo_pos(mo: &[EventId], w: EventId) -> Option<u32> {
    match w {
        EventId::Init(_) => Some(0),
        _ => mo.iter().position(|x| *x == w).map(|p| p as u32 + 1),
    }
}

/// What the read part of the RMW write `w` — its po-predecessor — reads
/// from, if it is resolved.
fn rmw_source(g: &ExecutionGraph, w: EventId) -> Option<EventId> {
    let EventId::Event { thread, index } = w else { return None };
    match index.checked_sub(1).map(|r| &g.thread_events(thread)[r as usize].kind) {
        Some(EventKind::Read { rf: RfSource::Write(src), .. }) => Some(*src),
        _ => None,
    }
}

/// RMW atomicity around the write `w` (an RMW write part iff `rmw`) at
/// extended position `pos` of `mo`, the only place a new write can break
/// it: an RMW write must sit immediately after what its read part read,
/// and no write may separate its `mo`-successor, if that is an RMW write,
/// from what *it* read.
#[inline]
pub(crate) fn atomic_at(
    g: &ExecutionGraph,
    mo: &[EventId],
    w: EventId,
    rmw: bool,
    pos: Option<u32>,
) -> bool {
    let own = !rmw
        || match (rmw_source(g, w), pos) {
            (Some(src), Some(p)) => mo_pos(mo, src) == Some(p - 1),
            _ => false,
        };
    let next = pos.and_then(|p| mo.get(p as usize));
    own && next.is_none_or(|&n| {
        !matches!(g.event(n).kind, EventKind::Write { rmw: true, .. })
            || rmw_source(g, n) == Some(w)
    })
}

fn join(into: &mut [u32], from: &[u32]) {
    for (a, b) in into.iter_mut().zip(from) {
        *a = (*a).max(*b);
    }
}

impl VmmChecker {
    fn clocks(&self, t: usize, i: usize, which: usize) -> &[u32] {
        let at = (i * 3 + which) * self.nt;
        &self.th[t].clocks[at..at + self.nt]
    }

    fn hb(&self, t: usize, i: usize) -> &[u32] {
        self.clocks(t, i, 0)
    }

    /// Record the next unrecorded event of thread `t` and decide for it
    /// the axioms `check` asks for. The event is recorded whatever the
    /// answer.
    fn step(&mut self, g: &ExecutionGraph, t: usize, check: Check) -> bool {
        let nt = self.nt;
        let i = self.th[t].meta.len();
        debug_assert!(
            (0..nt).all(|u| self.th[u].meta.len() + usize::from(u == t)
                <= g.thread_len(u as ThreadId)),
            "the graph must hold every recorded event and the one being pushed"
        );
        let ev = &g.thread_events(t as ThreadId)[i];
        let id = EventId::new(t as ThreadId, i as u32);
        let mut cur = std::mem::take(&mut self.cur);
        cur.clear();
        let mut meta = match i {
            0 => {
                cur.resize(3 * nt, 0);
                Meta { rel_fence: 0, sc_fences: 0, slot: NONE, prev: 0, sc: false }
            }
            _ => {
                // po: inherit the predecessor's hb and pending-acquire
                // clocks; the release clock starts empty.
                cur.extend_from_slice(&self.th[t].clocks[(i - 1) * 3 * nt..(i * 3 - 1) * nt]);
                cur.resize(3 * nt, 0);
                Meta { slot: NONE, prev: 0, sc: false, ..self.th[t].meta[i - 1] }
            }
        };
        cur[t] = i as u32 + 1;
        let (hb, rest) = cur.split_at_mut(nt);
        let (acq, rel) = rest.split_at_mut(nt);
        let mut ok = true;
        // The event's location and extended-mo position, when it has one.
        let mut placed: Option<(Loc, u32)> = None;
        match &ev.kind {
            EventKind::Fence { mode } => {
                if mode.is_acquire() {
                    join(hb, acq);
                }
                if mode.is_release() {
                    meta.rel_fence = i as u32 + 1;
                }
                if mode.is_sc() {
                    meta.sc_fences += 1;
                    meta.sc = true;
                }
            }
            EventKind::Read { loc, mode, rf, .. } => {
                meta.sc = mode.is_sc();
                if let RfSource::Write(w) = rf {
                    if let EventId::Event { thread: u, index: j } = *w {
                        debug_assert!(
                            (j as usize) < self.th[u as usize].meta.len(),
                            "{id} reads from {w}, which is not recorded yet"
                        );
                        let rc = self.clocks(u as usize, j as usize, 2);
                        join(acq, rc);
                        if mode.is_acquire() {
                            join(hb, rc);
                        }
                    }
                    placed = mo_pos(g.mo(*loc), *w).map(|p| (*loc, p));
                }
            }
            EventKind::Write { loc, mode, rmw, .. } => {
                meta.sc = mode.is_sc();
                if mode.is_release() {
                    rel.copy_from_slice(hb);
                } else if meta.rel_fence > 0 {
                    rel.copy_from_slice(self.hb(t, meta.rel_fence as usize - 1));
                }
                let mo = g.mo(*loc);
                let pos = mo_pos(mo, id);
                placed = pos.map(|p| (*loc, p));
                if *rmw {
                    // The write continues the release sequence of what
                    // its read part read.
                    if let Some(EventId::Event { thread: u, index: j }) = rmw_source(g, id) {
                        join(rel, self.clocks(u as usize, j as usize, 2));
                    }
                }
                ok = atomic_at(g, mo, id, *rmw, pos);
            }
            EventKind::Error { .. } => {}
        }
        let mut closes_psc = false;
        if let Some((loc, p)) = placed {
            ok = check == Check::None || (ok && self.coherent(g, loc, p, hb, t, i));
            // Link the access into its thread's per-location chain.
            let heads = &mut self.th[t].heads;
            let slot = heads.iter().position(|(l, _)| *l == loc).unwrap_or_else(|| {
                heads.push((loc, 0));
                heads.len() - 1
            });
            meta.slot = slot as u32;
            meta.prev = std::mem::replace(&mut heads[slot].1, i as u32 + 1);
            // A psc cycle through this event needs an SC event at or
            // hb-before it and an eco edge out of it — a later write.
            closes_psc = check == Check::All
                && ok
                && self.sc_events + usize::from(meta.sc) >= 2
                && (p as usize) < g.mo(loc).len()
                && (meta.sc
                    || meta.sc_fences > 0
                    || (0..nt).any(|u| {
                        u != t && hb[u] > 0 && self.th[u].meta[hb[u] as usize - 1].sc_fences > 0
                    }));
        }
        self.sc_events += usize::from(meta.sc);
        self.th[t].clocks.extend_from_slice(&cur);
        self.th[t].meta.push(meta);
        self.cur = cur;
        ok && (!closes_psc || self.psc_acyclic(g))
    }

    /// RC11 coherence for a new hb-maximal access at extended-mo position
    /// `p` of `loc`: no hb-earlier access of `loc` may sit later in the
    /// order.
    fn coherent(
        &self,
        g: &ExecutionGraph,
        loc: Loc,
        p: u32,
        hb: &[u32],
        t: usize,
        i: usize,
    ) -> bool {
        self.observed(g, loc, |u| if u == t { i as u32 } else { hb[u] }) <= p
    }

    /// The latest extended-mo position of `loc` that an access inside the
    /// per-thread prefixes `known(u)` wrote or read from (0: none). An
    /// access hb-after all of them must sit at or above it. Positions are
    /// monotone along every (coherent) thread, so the last access inside
    /// each prefix decides.
    fn observed(&self, g: &ExecutionGraph, loc: Loc, known: impl Fn(usize) -> u32) -> u32 {
        let mo = g.mo(loc);
        let mut floor = 0;
        for (u, rec) in self.th.iter().enumerate() {
            let Some(&(_, mut a)) = rec.heads.iter().find(|(l, _)| *l == loc) else { continue };
            let known = known(u);
            while a > known {
                a = rec.meta[a as usize - 1].prev;
            }
            if a == 0 {
                continue;
            }
            let aid = EventId::new(u as ThreadId, a - 1);
            let w = match &g.event(aid).kind {
                EventKind::Read { rf: RfSource::Write(w), .. } => *w,
                _ => aid,
            };
            floor = floor.max(mo_pos(mo, w).unwrap_or(0));
        }
        floor
    }

    /// The first po index of thread `v` that is hb-after event `(u, j)`
    /// (`v`'s length if none): clock columns are monotone along a thread.
    fn first_after(&self, v: usize, u: usize, j: usize) -> usize {
        if v == u {
            return j + 1;
        }
        let (mut lo, mut hi) = (0, self.th[v].meta.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.hb(v, mid)[u] as usize > j {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }
}

impl ChainChecker for VmmChecker {
    fn reset(&mut self, g: &ExecutionGraph) -> bool {
        fast::note(false);
        self.nt = g.num_threads();
        self.th.resize_with(self.nt, ThreadRec::default);
        self.sc_events = 0;
        for (t, rec) in self.th.iter_mut().enumerate() {
            let len = g.thread_len(t as ThreadId);
            rec.clocks.clear();
            rec.clocks.reserve(len * 3 * self.nt);
            rec.meta.clear();
            rec.meta.reserve(len);
            rec.heads.clear();
        }
        // Replay in a po ∪ rf topological order: an event is ready once
        // its po-predecessor and (for reads) its source are recorded.
        // Running dry before every event is recorded is a po ∪ rf cycle.
        loop {
            let (mut progress, mut done) = (false, true);
            for t in 0..self.nt {
                let evs = g.thread_events(t as ThreadId);
                while let Some(ev) = evs.get(self.th[t].meta.len()) {
                    if let EventKind::Read {
                        rf: RfSource::Write(EventId::Event { thread, index }),
                        ..
                    } = ev.kind
                    {
                        if self.th[thread as usize].meta.len() <= index as usize {
                            break;
                        }
                    }
                    if !self.step(g, t, Check::PerEvent) {
                        return false;
                    }
                    progress = true;
                }
                done &= self.th[t].meta.len() == evs.len();
            }
            if done {
                return self.psc_acyclic(g);
            }
            if !progress {
                return false;
            }
        }
    }

    fn push(&mut self, g: &ExecutionGraph, thread: ThreadId) -> bool {
        fast::note(false);
        self.step(g, thread as usize, Check::All)
    }

    fn push_accepted(&mut self, g: &ExecutionGraph, thread: ThreadId) {
        self.step(g, thread as usize, Check::None);
    }

    /// What the next event's happens-before clock already holds before
    /// it synchronizes with anything: its po-predecessor's.
    fn floor(&self, g: &ExecutionGraph, thread: ThreadId, loc: Loc) -> usize {
        let t = thread as usize;
        let Some(pred) = self.th[t].meta.len().checked_sub(1) else { return 0 };
        self.observed(g, loc, |u| self.hb(t, pred)[u]) as usize
    }

    fn pop(&mut self, thread: ThreadId) {
        let rec = &mut self.th[thread as usize];
        let meta = rec.meta.pop().expect("pop on a thread without recorded events");
        rec.clocks.truncate(rec.meta.len() * 3 * self.nt);
        if meta.slot != NONE {
            rec.heads[meta.slot as usize].1 = meta.prev;
        }
        self.sc_events -= usize::from(meta.sc);
    }

    /// The SC axiom is decided last, and only once every other axiom
    /// held: each `false` answer of its cycle search is one rejection.
    fn sc_rejections(&self) -> Option<u64> {
        Some(self.sc_rejections)
    }
}

/// Call `f(word index, mask)` for every word of the bit range `[lo, hi)`.
fn range_words(lo: usize, hi: usize, mut f: impl FnMut(usize, u64)) {
    if lo >= hi {
        return;
    }
    let (first, last) = (lo / 64, (hi - 1) / 64);
    for w in first..=last {
        let mut m = !0u64;
        if w == first {
            m &= !0u64 << (lo % 64);
        }
        if w == last {
            m &= !0u64 >> (63 - (hi - 1) % 64);
        }
        f(w, m);
    }
}

/// Per-graph tables of [`VmmChecker::psc_acyclic`]. The *recorded* events
/// are indexed densely, thread by thread (`base[t] + po index`); init
/// writes are left out — nothing in `scb` or `eco` points at them — and so
/// is whatever the graph holds beyond the recorded prefixes.
#[derive(Debug, Default)]
struct PscTables {
    /// First index of each thread, plus the total as a last entry.
    base: Vec<usize>,
    /// Bitset words per event row.
    words: usize,
    /// The SC events: thread, po index, is-a-fence.
    nodes: Vec<(usize, usize, bool)>,
    locs: Vec<Loc>,
    /// Per event: slot of its location in `locs` ([`NONE`] for fences and
    /// errors), extended-mo position ([`NONE`] when unresolved), is-write.
    loc_slot: Vec<u32>,
    pos: Vec<u32>,
    is_write: Vec<bool>,
    /// Per location slot: the events accessing it, as a bitset row.
    masks: Vec<u64>,
}

impl PscTables {
    /// The index of a recorded event; `None` for init writes and for
    /// events past their thread's recorded prefix.
    fn index(&self, id: EventId) -> Option<usize> {
        match id {
            EventId::Event { thread, index } => {
                let at = self.base[thread as usize] + index as usize;
                (at < self.base[thread as usize + 1]).then_some(at)
            }
            EventId::Init(_) => None,
        }
    }

    fn mask(&self, slot: usize) -> &[u64] {
        &self.masks[slot * self.words..(slot + 1) * self.words]
    }
}

/// Reusable buffers of [`VmmChecker::psc_acyclic`].
#[derive(Debug, Default)]
struct PscScratch {
    tables: PscTables,
    /// Per location slot: the least position hb-after a fence, and whether
    /// the write at that position is itself hb-after the fence.
    least: Vec<(u32, bool)>,
    reach: Vec<u64>,
    psc: Relation,
}

impl VmmChecker {
    /// The RC11 SC axiom `acyclic(psc_base ∪ psc_F)` over the recorded
    /// graph (which must already be coherent), with `hb` read off the
    /// clocks: `hb((u, j), (v, i))` iff `clock(v, i)[u] > j`, so the
    /// hb-successors of an event are one po-suffix per thread and its
    /// hb-predecessors one po-prefix per thread.
    fn psc_acyclic(&mut self, g: &ExecutionGraph) -> bool {
        if self.sc_events < 2 {
            return true; // a psc cycle needs two SC events
        }
        let mut s = std::mem::take(&mut self.psc);
        self.psc_tables(g, &mut s.tables);
        let acyclic = self.psc_acyclic_over(g, &mut s);
        self.psc = s;
        self.sc_rejections += u64::from(!acyclic);
        acyclic
    }

    fn psc_tables(&self, g: &ExecutionGraph, tb: &mut PscTables) {
        tb.base.clear();
        tb.nodes.clear();
        let mut n = 0;
        for (t, rec) in self.th.iter().enumerate() {
            tb.base.push(n);
            n += rec.meta.len();
            let evs = g.thread_events(t as ThreadId);
            for (i, m) in rec.meta.iter().enumerate() {
                if m.sc {
                    tb.nodes.push((t, i, matches!(evs[i].kind, EventKind::Fence { .. })));
                }
            }
        }
        tb.base.push(n);
        tb.words = n.div_ceil(64);
        tb.locs.clear();
        for v in [&mut tb.loc_slot, &mut tb.pos] {
            v.clear();
            v.resize(n, NONE);
        }
        tb.is_write.clear();
        tb.is_write.resize(n, false);
        for l in g.written_locs() {
            for (p, &w) in g.mo(l).iter().enumerate() {
                if let Some(a) = tb.index(w) {
                    tb.pos[a] = p as u32 + 1;
                }
            }
        }
        // The recorded prefixes only: `g` may hold events no `push` has
        // reached yet.
        for (t, rec) in self.th.iter().enumerate() {
            let evs = &g.thread_events(t as ThreadId)[..rec.meta.len()];
            for (i, ev) in evs.iter().enumerate() {
                let Some(l) = ev.kind.loc() else { continue };
                let a = tb.base[t] + i;
                let slot = tb.locs.iter().position(|x| *x == l).unwrap_or_else(|| {
                    tb.locs.push(l);
                    tb.locs.len() - 1
                });
                tb.loc_slot[a] = slot as u32;
                match &ev.kind {
                    EventKind::Read { rf: RfSource::Write(w), .. } => {
                        tb.pos[a] = tb.index(*w).map_or(0, |w| tb.pos[w]);
                    }
                    EventKind::Write { .. } => tb.is_write[a] = true,
                    _ => {}
                }
            }
        }
        tb.masks.clear();
        tb.masks.resize(tb.locs.len() * tb.words, 0);
        for (a, &slot) in tb.loc_slot.iter().enumerate() {
            if slot != NONE {
                tb.masks[slot as usize * tb.words + a / 64] |= 1u64 << (a % 64);
            }
        }
    }

    /// The `scb = (po \ po_loc) ∪ hb|loc ∪ mo ∪ fr` row of access `(v, i)`.
    fn scb_row(&self, g: &ExecutionGraph, tb: &PscTables, out: &mut [u64], v: usize, i: usize) {
        let end = |t: usize| tb.base[t] + self.th[t].meta.len();
        let a = tb.base[v] + i;
        let slot = tb.loc_slot[a] as usize;
        let mask = tb.mask(slot);
        out.fill(0);
        range_words(a + 1, end(v), |w, m| out[w] |= m & !mask[w]);
        for t in 0..self.nt {
            let from = tb.base[t] + self.first_after(t, v, i);
            range_words(from, end(t), |w, m| out[w] |= m & mask[w]);
        }
        if tb.pos[a] != NONE {
            for &w in &g.mo(tb.locs[slot])[tb.pos[a] as usize..] {
                if let Some(b) = tb.index(w) {
                    out[b / 64] |= 1u64 << (b % 64);
                }
            }
        }
    }

    /// Everything `eco`-after some hb-successor of fence `(u, j)`, into
    /// `reach`: per location, what lies beyond the least position among
    /// the successors, or reads from the write at it.
    fn eco_after_fence(
        &self,
        tb: &PscTables,
        least: &mut [(u32, bool)],
        reach: &mut [u64],
        u: usize,
        j: usize,
    ) {
        least.fill((NONE, false));
        for v in 0..self.nt {
            let from = self.first_after(v, u, j);
            for a in tb.base[v] + from..tb.base[v] + self.th[v].meta.len() {
                if tb.pos[a] == NONE {
                    continue;
                }
                let least = &mut least[tb.loc_slot[a] as usize];
                if tb.pos[a] < least.0 {
                    *least = (tb.pos[a], tb.is_write[a]);
                } else if tb.pos[a] == least.0 {
                    least.1 |= tb.is_write[a];
                }
            }
        }
        reach.fill(0);
        for (b, &p) in tb.pos.iter().enumerate() {
            if p == NONE {
                continue;
            }
            let (least, write_after) = least[tb.loc_slot[b] as usize];
            if least != NONE && (p > least || (p == least && write_after && !tb.is_write[b])) {
                reach[b / 64] |= 1u64 << (b % 64);
            }
        }
    }

    /// Does the bitset meet the hb-predecessors-or-self of event `(u, j)`?
    fn meets_prefixes(&self, tb: &PscTables, bits: &[u64], u: usize, j: usize) -> bool {
        let clock = self.hb(u, j);
        (0..self.nt).any(|v| {
            let mut hit = false;
            range_words(tb.base[v], tb.base[v] + clock[v] as usize, |w, m| {
                hit |= bits[w] & m != 0;
            });
            hit
        })
    }

    /// Build a relation over the SC events with the cycles of
    /// `psc = psc_base ∪ psc_F` and decide its acyclicity.
    ///
    /// * `psc_base = ([Esc] ∪ [Fsc];hb?) ; scb ; ([Esc] ∪ hb?;[Fsc])`
    /// * `psc_F = [Fsc] ; (hb ∪ hb;eco;hb) ; [Fsc]`
    ///
    /// Out of an SC access the edges are exactly its `scb` row met with
    /// each target (or the target fence's hb-predecessors). Out of an SC
    /// fence `f`, edges to targets hb-after `f` are left out: whatever such
    /// a target reaches, `f` reaches with the same witness, and it has no
    /// edge back to `f` in a coherent graph — so they close no cycle the
    /// rest does not close. What remains leaves the fence's hb-successors
    /// through `mo ∪ fr` (`psc_base`) or `eco` (`psc_F`), and `eco`
    /// contains both, so the two halves read one set: everything eco-after
    /// an hb-successor of `f` (DESIGN.md §2).
    fn psc_acyclic_over(&self, g: &ExecutionGraph, s: &mut PscScratch) -> bool {
        let PscScratch { tables: tb, least, reach, psc } = s;
        least.resize(tb.locs.len(), (NONE, false));
        reach.resize(tb.words, 0);
        psc.reset(tb.nodes.len());
        let bit = |bits: &[u64], u: usize, j: usize| {
            let b = tb.base[u] + j;
            bits[b / 64] & (1u64 << (b % 64)) != 0
        };
        for (k1, &(u, j, fence)) in tb.nodes.iter().enumerate() {
            if fence {
                self.eco_after_fence(tb, least, reach, u, j);
            } else {
                self.scb_row(g, tb, reach, u, j);
            }
            for (k2, &(u2, j2, fence2)) in tb.nodes.iter().enumerate() {
                let edge = match (fence, fence2) {
                    (false, false) => bit(reach, u2, j2),
                    (true, false) => tb.is_write[tb.base[u2] + j2] && bit(reach, u2, j2),
                    (_, true) => self.meets_prefixes(tb, reach, u2, j2),
                };
                if edge {
                    psc.add(k1, k2);
                }
            }
        }
        psc.is_acyclic()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::{OrderChecker, SC, TSO};
    use crate::{Sc, Tso, Vmm};
    use std::collections::BTreeMap;
    use vsync_graph::Mode;

    /// xorshift64*: small, seedable, good enough to drive a generator.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() >> 33) as usize % n
        }

        fn chance(&mut self, percent: usize) -> bool {
            self.below(100) < percent
        }

        fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
            xs[self.below(xs.len())]
        }
    }

    const LOCS: [Loc; 3] = [0x10, 0x20, 0x7_0000_0010];
    const MAX_THREAD_LEN: usize = 9;

    /// One undoable step of the generator: the thread it pushed on and,
    /// for writes, where the write went in mo.
    type Step = (ThreadId, Option<(Loc, usize)>);

    /// The next random event for thread `t`: an RMW write part when the
    /// thread's last event is a resolved RMW read (usually at its
    /// atomicity slot, sometimes not), otherwise a fence, a read (of any
    /// write, or `⊥`) or a write placed anywhere in mo.
    fn random_event(rng: &mut Rng, g: &ExecutionGraph, t: ThreadId) -> (EventKind, Option<usize>) {
        if let Some(EventKind::Read { loc, rmw: true, rf: RfSource::Write(src), .. }) =
            g.thread_events(t).last().map(|e| &e.kind)
        {
            let slot = mo_pos(g.mo(*loc), *src).expect("source in mo") as usize;
            let pos = if rng.chance(85) { slot } else { rng.below(g.mo(*loc).len() + 1) };
            let mode = rng.pick(&[Mode::Rlx, Mode::Rel, Mode::AcqRel, Mode::Sc]);
            return (EventKind::Write { loc: *loc, val: 7, mode, rmw: true }, Some(pos));
        }
        let loc = rng.pick(&LOCS);
        match rng.below(12) {
            0..=2 => {
                let mode = rng.pick(&[Mode::Acq, Mode::Rel, Mode::AcqRel, Mode::Sc, Mode::Sc]);
                (EventKind::Fence { mode }, None)
            }
            3..=7 => {
                let mode = rng.pick(&[Mode::Rlx, Mode::Rlx, Mode::Acq, Mode::Sc]);
                let rf = match rng.below(g.mo(loc).len() + 2) {
                    0 => RfSource::Write(EventId::Init(loc)),
                    k if k <= g.mo(loc).len() => RfSource::Write(g.mo(loc)[k - 1]),
                    _ if rng.chance(30) => RfSource::Bottom,
                    _ => RfSource::Write(*g.mo(loc).last().unwrap_or(&EventId::Init(loc))),
                };
                let rmw = rf != RfSource::Bottom && rng.chance(35);
                (EventKind::Read { loc, mode, rf, rmw, awaiting: rf == RfSource::Bottom }, None)
            }
            _ => {
                let mode = rng.pick(&[Mode::Rlx, Mode::Rlx, Mode::Rel, Mode::Sc]);
                // Mostly mo-maximal (what survives), often mid-mo.
                let len = g.mo(loc).len();
                let pos = if rng.chance(60) { len } else { rng.below(len + 1) };
                (EventKind::Write { loc, val: 1, mode, rmw: false }, Some(pos))
            }
        }
    }

    fn undo(g: &mut ExecutionGraph, ck: &mut impl ChainChecker, (t, placed): Step) {
        if let Some((loc, pos)) = placed {
            g.remove_mo(loc, pos);
        }
        g.pop_event(t);
        ck.pop(t);
    }

    /// A graph built step by step through `push`, holding every step (and
    /// a fresh `reset`) to the reference.
    struct Chain {
        g: ExecutionGraph,
        ck: VmmChecker,
    }

    impl Chain {
        fn new(threads: usize) -> Chain {
            let g = ExecutionGraph::new(threads, BTreeMap::new());
            let mut ck = VmmChecker::default();
            assert!(ck.reset(&g));
            Chain { g, ck }
        }

        fn push(&mut self, t: ThreadId, kind: EventKind) -> (EventId, bool) {
            let loc = kind.loc();
            let is_write = kind.is_write();
            let id = self.g.push_event(t, kind);
            if is_write {
                let loc = loc.expect("writes have a location");
                self.g.insert_mo(loc, id, self.g.mo(loc).len());
            }
            let expected = Vmm.is_consistent_reference(&self.g);
            assert_eq!(self.ck.push(&self.g, t), expected, "push:\n{}", self.g.render());
            assert_eq!(
                VmmChecker::default().reset(&self.g),
                expected,
                "reset:\n{}",
                self.g.render()
            );
            (id, expected)
        }

        fn write(&mut self, t: ThreadId, loc: Loc, mode: Mode) -> EventId {
            let (id, ok) = self.push(t, EventKind::Write { loc, val: 1, mode, rmw: false });
            assert!(ok);
            id
        }

        fn read(&mut self, t: ThreadId, loc: Loc, mode: Mode, from: Option<EventId>) -> bool {
            let rf = RfSource::Write(from.unwrap_or(EventId::Init(loc)));
            self.push(t, EventKind::Read { loc, mode, rf, rmw: false, awaiting: false }).1
        }

        fn fence(&mut self, t: ThreadId, mode: Mode) {
            assert!(self.push(t, EventKind::Fence { mode }).1);
        }
    }

    const X: Loc = 0x10;
    const Y: Loc = 0x20;
    const Z: Loc = 0x30;

    /// `scb` orders an SC fence before its immediate po-successor: only
    /// the fence's own row (not those of its hb-successors) has that edge.
    #[test]
    fn sc_fence_is_psc_before_its_po_successor() {
        let mut c = Chain::new(2);
        c.write(0, Y, Mode::Rlx);
        c.fence(0, Mode::Sc);
        c.write(1, X, Mode::Sc);
        c.fence(1, Mode::Sc);
        assert!(c.read(1, Y, Mode::Rlx, None));
        // T0's SC read of x = 0 closes Rx → Wx → F1 → F0 → Rx.
        assert!(!c.read(0, X, Mode::Sc, None));
    }

    /// `scb` includes `hb|loc` across threads: an SC write and the SC read
    /// it synchronizes with are psc-ordered although neither po nor mo/fr
    /// relates them.
    #[test]
    fn psc_orders_synchronized_same_location_accesses() {
        let mut c = Chain::new(3);
        c.write(0, Y, Mode::Sc);
        let wx = c.write(0, X, Mode::Sc);
        assert!(c.read(1, X, Mode::Sc, Some(wx)));
        assert!(c.read(1, Z, Mode::Sc, None));
        c.write(2, Z, Mode::Sc);
        // Wy → Wx → Rx → Rz → Wz → Ry → Wy.
        assert!(!c.read(2, Y, Mode::Sc, None));
    }

    /// `psc_F` through `hb ; eco ; hb` where `eco` is a relaxed reads-from
    /// (equal positions) or mo followed by one (greater position): no
    /// `hb` and no `psc_base` edge orders the two fences.
    #[test]
    fn psc_f_orders_fences_across_relaxed_reads_from() {
        for later_write in [false, true] {
            let mut c = Chain::new(4);
            c.write(0, Z, Mode::Rlx);
            c.fence(0, Mode::Sc);
            let wy = c.write(0, Y, Mode::Rel);
            assert!(c.read(1, Y, Mode::Acq, Some(wy)));
            let mut wx = c.write(1, X, Mode::Rlx);
            if later_write {
                wx = c.write(3, X, Mode::Rlx);
            }
            assert!(c.read(2, X, Mode::Rlx, Some(wx)));
            c.fence(2, Mode::Sc);
            // F0 → F2 by psc_F, F2 → F0 through the stale read of z.
            assert!(!c.read(2, Z, Mode::Rlx, None));
        }
    }

    fn assert_same_clocks(a: &VmmChecker, b: &VmmChecker, what: &str, g: &ExecutionGraph) {
        for (x, y) in a.th.iter().zip(&b.th) {
            assert_eq!(x.clocks, y.clocks, "{what}:\n{}", g.render());
        }
        assert_eq!(a.sc_events, b.sc_events, "{what}: SC events");
    }

    /// A model's chain checker as the differential sees it.
    struct Subject<C> {
        model: &'static dyn MemoryModel,
        fresh: fn() -> C,
        /// Hold the derived state of two checkers that describe the same
        /// accepted graph against each other.
        same_state: fn(&C, &C, &str, &ExecutionGraph),
        /// Does `push` answer for the recorded events plus its own, and
        /// not for what else the graph holds?
        ignores_unrecorded: bool,
    }

    const VMM_CHECKER: Subject<VmmChecker> = Subject {
        model: &Vmm,
        fresh: VmmChecker::default,
        same_state: assert_same_clocks,
        ignores_unrecorded: true,
    };
    const SC_CHECKER: Subject<OrderChecker> = Subject {
        model: &Sc,
        fresh: || OrderChecker::new(SC),
        same_state: |_, _, _, _| {},
        ignores_unrecorded: false,
    };
    const TSO_CHECKER: Subject<OrderChecker> = Subject {
        model: &Tso,
        fresh: || OrderChecker::new(TSO),
        same_state: |_, _, _, _| {},
        ignores_unrecorded: false,
    };

    /// What a chain does when it enters a revisit: pop `ck` (which
    /// follows the consistent `g`) back to a random `po ∪ rf`-closed part
    /// of `g`, then push a write and a read of it as the two pending events
    /// of a graph that already holds both. The popped state must equal a
    /// fresh `reset` of the restricted graph, and so must the answer and
    /// the state after the pushes. Then take it all back as a rewind does:
    /// pop the pushes and [`record`] the cut events again, which must leave
    /// the state of a `reset` of `g`. Returns the answer.
    fn cut_and_push_pending<C: ChainChecker>(
        sub: &Subject<C>,
        rng: &mut Rng,
        g: &ExecutionGraph,
        ck: &mut C,
        seed: u64,
    ) -> Option<bool> {
        let name = sub.model.name();
        let threads = g.num_threads();
        let seeds: Vec<EventId> = g.events().map(|(id, _)| id).filter(|_| rng.chance(25)).collect();
        let lens = g.porf_join(seeds);
        let full: Vec<u32> = (0..threads as ThreadId).map(|t| g.thread_len(t) as u32).collect();
        let mut h = g.restrict(&lens);
        let open: Vec<ThreadId> = (0..threads as ThreadId)
            .filter(|&t| {
                !matches!(
                    h.thread_events(t).last().map(|e| &e.kind),
                    Some(
                        EventKind::Read { rf: RfSource::Bottom, .. }
                            | EventKind::Read { rmw: true, .. }
                    )
                )
            })
            .collect();
        if open.len() < 2 {
            return None;
        }
        for (t, (&kept, &len)) in lens.iter().zip(&full).enumerate() {
            for _ in kept..len {
                ck.pop(t as ThreadId);
            }
        }
        let mut fresh = (sub.fresh)();
        assert!(fresh.reset(&h), "{name} seed {seed}: a closed restriction stays consistent");
        (sub.same_state)(ck, &fresh, &format!("seed {seed}, popped to {lens:?}"), &h);

        let tw = rng.pick(&open);
        let tr = rng.pick(&open.iter().copied().filter(|&t| t != tw).collect::<Vec<_>>());
        let loc = rng.pick(&LOCS);
        let write = |h: &mut ExecutionGraph, rng: &mut Rng| {
            let mode = rng.pick(&[Mode::Rlx, Mode::Rel, Mode::Sc]);
            let wid = h.push_event(tw, EventKind::Write { loc, val: 5, mode, rmw: false });
            let len = h.mo(loc).len();
            h.insert_mo(loc, wid, if rng.chance(50) { len } else { rng.below(len + 1) });
            wid
        };
        let read = |h: &mut ExecutionGraph, rng: &mut Rng, from: EventId| {
            let mode = rng.pick(&[Mode::Rlx, Mode::Acq, Mode::Sc]);
            let rf = RfSource::Write(from);
            h.push_event(tr, EventKind::Read { loc, mode, rf, rmw: false, awaiting: false });
        };
        // Mostly a revisit's pair — the write, then a read of it; sometimes
        // a read of an older write first, so that `mo` already holds a
        // write the state has not recorded.
        let order = if rng.chance(70) {
            let wid = write(&mut h, rng);
            let first_ok = sub.model.is_consistent_reference(&h);
            read(&mut h, rng, wid);
            [(tw, first_ok), (tr, sub.model.is_consistent_reference(&h))]
        } else {
            let from = match rng.below(h.mo(loc).len() + 1) {
                0 => EventId::Init(loc),
                k => h.mo(loc)[k - 1],
            };
            read(&mut h, rng, from);
            let first_ok = sub.model.is_consistent_reference(&h);
            write(&mut h, rng);
            [(tr, first_ok), (tw, sub.model.is_consistent_reference(&h))]
        };

        // A checker with state answers each push for the recorded part
        // plus its own event: the first one cannot know about the second
        // yet. A search over the graph already sees the second event
        // during the first push and may reject on its account — models are
        // monotone, so that is sound, and only the conjunction of the two
        // answers is exact: it is the reference's for the full graph.
        let expected = order[1].1;
        let (mut got, mut pushed) = (true, Vec::new());
        for (t, ok) in order {
            got = ck.push(&h, t);
            pushed.push(t);
            if sub.ignores_unrecorded {
                assert_eq!(got, ok, "{name} seed {seed}, pending T{t}:\n{}", h.render());
            }
            if !got {
                break;
            }
        }
        assert_eq!(got, expected, "{name} seed {seed}, pending pair:\n{}", h.render());
        assert_eq!(fresh.reset(&h), expected, "{name} seed {seed}, reset:\n{}", h.render());
        if expected {
            (sub.same_state)(ck, &fresh, &format!("seed {seed}, pending pushes"), &h);
        }

        for &t in pushed.iter().rev() {
            ck.pop(t);
        }
        record(ck, g, &lens, &full);
        assert!(fresh.reset(g));
        (sub.same_state)(ck, &fresh, &format!("seed {seed}, recorded back from {lens:?}"), g);
        Some(expected)
    }

    /// What the floor test saw: candidates below a floor (each rejected by
    /// the reference), and floors above the thread's own accesses.
    #[derive(Default)]
    struct FloorTally {
        sources: u32,
        placements: u32,
        children: u32,
        above_thread_floor: u32,
    }

    /// The coherence floor of `t`'s next access of `loc` in the consistent
    /// `g`, which `ck` describes: it must equal the model's from-scratch
    /// floor (what the `Stateless` reference adapter answers), and the
    /// reference must reject every read source below it, every plain write
    /// placed below it and every revisit child of such a placement.
    fn check_floor<C: ChainChecker>(
        sub: &Subject<C>,
        g: &mut ExecutionGraph,
        ck: &C,
        t: ThreadId,
        loc: Loc,
        seed: u64,
        tally: &mut FloorTally,
    ) {
        let name = sub.model.name();
        let reference = sub.model.floor(g, t, loc);
        let floor = ck.floor(g, t, loc);
        assert_eq!(
            floor,
            reference,
            "{name} seed {seed}: floor of T{t} @{loc:#x}:\n{}",
            g.render()
        );
        tally.above_thread_floor += u32::from(floor > thread_floor(g, t, loc));
        let what = |g: &ExecutionGraph, what: String| {
            format!("{name} seed {seed}: {what} below floor {floor} of T{t}:\n{}", g.render())
        };
        for pos in 0..floor {
            let src = pos.checked_sub(1).map_or(EventId::Init(loc), |i| g.mo(loc)[i]);
            let rf = RfSource::Write(src);
            g.push_event(
                t,
                EventKind::Read { loc, mode: Mode::Acq, rf, rmw: false, awaiting: false },
            );
            assert!(!sub.model.is_consistent_reference(g), "{}", what(g, format!("source {pos}")));
            g.pop_event(t);
            tally.sources += 1;

            let wid =
                g.push_event(t, EventKind::Write { loc, val: 9, mode: Mode::Rel, rmw: false });
            g.insert_mo(loc, wid, pos);
            assert!(
                !sub.model.is_consistent_reference(g),
                "{}",
                what(g, format!("placement {pos}"))
            );
            tally.placements += 1;
            for (r, rf) in g.reads_of(loc) {
                let EventId::Event { thread, index } = r else { unreachable!() };
                if g.porf_clock(wid)[thread as usize] > index {
                    continue; // in the write's porf-prefix: not revisitable
                }
                let mut child = match rf {
                    RfSource::Bottom => g.clone(),
                    RfSource::Write(_) => g.restrict(&g.porf_join([wid, r])),
                };
                child.set_rf(r, RfSource::Write(wid));
                assert!(
                    !sub.model.is_consistent_reference(&child),
                    "{}",
                    what(&child, format!("revisit of {r} by placement {pos}"))
                );
                tally.children += 1;
            }
            g.remove_mo(loc, pos);
            g.pop_event(t);
        }
    }

    /// Grow random graphs by push/pop sequences and hold the chain checker
    /// to the axiom evaluator after every step; a fresh `reset`
    /// must answer the same and, on accepted graphs, rebuild the same
    /// state — and so must the checker popped back to a restriction and
    /// extended by two pending events, and, recorded back, the original.
    fn equals_reference_at_every_step<C: ChainChecker>(sub: &Subject<C>) {
        let name = sub.model.name();
        let (mut steps, mut accepted, mut rejected, mut resets) = (0u32, 0u32, 0u32, 0u32);
        let (mut cuts, mut cuts_accepted) = (0u32, 0u32);
        let mut floors = FloorTally::default();
        let others: Vec<crate::axioms::Axiom> = (sub.model.axioms().iter())
            .filter(|a| !matches!(a, crate::axioms::Axiom::Acyclic("psc", _)))
            .cloned()
            .collect();
        let mut sc_rejections = 0u64;
        for seed in 1..=300u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let threads = 2 + rng.below(3);
            let mut g = ExecutionGraph::new(threads, BTreeMap::new());
            let mut ck = (sub.fresh)();
            assert!(ck.reset(&g));
            let mut trail: Vec<Step> = Vec::new();
            for _ in 0..150 {
                let open: Vec<ThreadId> = (0..threads as ThreadId)
                    .filter(|&t| {
                        g.thread_len(t) < MAX_THREAD_LEN
                            && !matches!(
                                g.thread_events(t).last().map(|e| &e.kind),
                                Some(EventKind::Read { rf: RfSource::Bottom, .. })
                            )
                    })
                    .collect();
                if open.is_empty() || (!trail.is_empty() && rng.chance(22)) {
                    // Back out a few steps, as the explorer's scans do.
                    for _ in 0..=rng.below(4) {
                        if let Some(step) = trail.pop() {
                            undo(&mut g, &mut ck, step);
                        }
                    }
                    continue;
                }
                let t = rng.pick(&open);
                let (kind, pos) = random_event(&mut rng, &g, t);
                let loc = kind.loc();
                let id = g.push_event(t, kind);
                let placed = pos.map(|p| (loc.expect("writes have a location"), p));
                if let Some((loc, p)) = placed {
                    g.insert_mo(loc, id, p);
                }
                let expected = sub.model.is_consistent_reference(&g);
                let counted = ck.sc_rejections();
                let got = ck.push(&g, t);
                assert_eq!(got, expected, "{name} seed {seed}, push on T{t}:\n{}", g.render());
                steps += 1;
                if let (Some(before), Some(after)) = (counted, ck.sc_rejections()) {
                    // Counted exactly when every axiom but `psc` holds.
                    let by_sc = !expected && crate::axioms::holds(&others, &g);
                    assert_eq!(
                        after - before,
                        u64::from(by_sc),
                        "{name} seed {seed}:\n{}",
                        g.render()
                    );
                    sc_rejections += u64::from(by_sc);
                }
                if rng.chance(25) {
                    let mut fresh = (sub.fresh)();
                    let got = fresh.reset(&g);
                    assert_eq!(got, expected, "{name} seed {seed}, reset:\n{}", g.render());
                    resets += 1;
                    if expected {
                        (sub.same_state)(&fresh, &ck, &format!("seed {seed}, reset"), &g);
                    }
                }
                if !expected {
                    rejected += 1;
                    undo(&mut g, &mut ck, (t, placed));
                    continue;
                }
                accepted += 1;
                if rng.chance(20) {
                    if let Some(ok) = cut_and_push_pending(sub, &mut rng, &g, &mut ck, seed) {
                        cuts += 1;
                        cuts_accepted += u32::from(ok);
                    }
                }
                // The floor of a thread whose next event may be any access
                // (not an RMW's write part, not after a blocked read).
                let free = |g: &ExecutionGraph, u: ThreadId| {
                    !matches!(
                        g.thread_events(u).last().map(|e| &e.kind),
                        Some(
                            EventKind::Read { rf: RfSource::Bottom, .. }
                                | EventKind::Read { rmw: true, .. }
                        )
                    )
                };
                let u = rng.below(threads) as ThreadId;
                if rng.chance(30) && free(&g, u) {
                    let loc = rng.pick(&LOCS);
                    check_floor(sub, &mut g, &ck, u, loc, seed, &mut floors);
                }
                if rng.chance(30) {
                    // The explorer's continuation: pop, re-push unchecked.
                    ck.pop(t);
                    ck.push_accepted(&g, t);
                }
                trail.push((t, placed));
            }
        }
        assert!(steps >= 2000, "{name}: only {steps} steps");
        assert!(resets >= 400, "{name}: only {resets} resets");
        // Vacuity guard: both answers must be exercised.
        assert!(accepted * 10 >= steps, "{name}: {accepted} of {steps} steps accepted");
        assert!(rejected * 10 >= steps, "{name}: {rejected} of {steps} steps rejected");
        assert!(cuts >= 500, "{name}: only {cuts} cuts");
        if sub.ignores_unrecorded {
            assert!(sc_rejections >= 20, "{name}: only {sc_rejections} SC-axiom rejections");
        }
        assert!(cuts_accepted * 10 >= cuts, "{name}: {cuts_accepted} of {cuts} cuts accepted");
        assert!(
            (cuts - cuts_accepted) * 10 >= cuts,
            "{name}: {cuts_accepted} of {cuts} cuts accepted"
        );
        let FloorTally { sources, placements, children, above_thread_floor } = floors;
        assert!(
            sources >= 300 && placements >= 300,
            "{name}: {sources} sources, {placements} placements"
        );
        assert!(children >= 100, "{name}: only {children} revisit children below a floor");
        if sub.ignores_unrecorded {
            // Only the hb floor can exceed the thread's own accesses.
            assert!(above_thread_floor >= 30, "{name}: {above_thread_floor} floors above T's own");
        }
    }

    #[test]
    fn chain_checker_equals_reference_at_every_step() {
        equals_reference_at_every_step(&VMM_CHECKER);
        equals_reference_at_every_step(&SC_CHECKER);
        equals_reference_at_every_step(&TSO_CHECKER);
    }
}
