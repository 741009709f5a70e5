//! The execution-graph data structure.
//!
//! Graph internals are copy-on-write: each thread's event list and the
//! (immutable) init table sit behind `Arc`s, so the explorer's
//! one-clone-per-child pattern copies only the single thread it then
//! extends — every other thread's events are shared with the parent.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::event::{Event, EventId, EventKind, Loc, Mode, RfSource, ThreadId, Value};

/// An execution graph `G` (paper §1.1): per-thread event sequences
/// (program order), a reads-from map, and a per-location modification
/// order.
///
/// Graphs are *partial* during exploration — they grow event by event — and
/// *complete* once every thread has either terminated or blocked inside an
/// await.
///
/// Initialization writes are virtual: every location carries an implicit
/// `mo`-minimal `Winit(x, v)` whose value comes from the graph's init table
/// (default `0`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutionGraph {
    /// Events of each thread, in program order (copy-on-write per thread).
    threads: Vec<Arc<Vec<Event>>>,
    /// Modification order per location: all non-init write events, oldest
    /// first. The virtual init write is implicitly at position `-1`.
    mo: BTreeMap<Loc, Vec<EventId>>,
    /// Initial values of locations (missing entries are `0`); immutable
    /// after construction, shared between clones.
    init: Arc<BTreeMap<Loc, Value>>,
    /// Next exploration timestamp.
    next_ts: u32,
}

impl ExecutionGraph {
    /// Create an empty graph for `n_threads` threads with the given initial
    /// memory values.
    pub fn new(n_threads: usize, init: BTreeMap<Loc, Value>) -> Self {
        ExecutionGraph {
            threads: (0..n_threads).map(|_| Arc::new(Vec::new())).collect(),
            mo: BTreeMap::new(),
            init: Arc::new(init),
            next_ts: 0,
        }
    }

    /// Number of threads the graph was created for.
    pub fn num_threads(&self) -> usize {
        self.threads.len()
    }

    /// Number of regular (non-init) events currently in the graph.
    pub fn num_events(&self) -> usize {
        self.threads.iter().map(|t| t.len()).sum()
    }

    /// Number of events of one thread.
    pub fn thread_len(&self, thread: ThreadId) -> usize {
        self.threads[thread as usize].len()
    }

    /// Approximate heap footprint of this graph in bytes, for resource
    /// budgeting. Counts every thread's event list at full size even
    /// though copy-on-write clones share unmodified threads, so summing
    /// over a frontier of sibling graphs over-estimates — budgets degrade
    /// early rather than late. The shared init table is not counted.
    pub fn approx_heap_bytes(&self) -> usize {
        let events: usize = self.threads.iter().map(|t| t.len()).sum();
        let mo_entries: usize = self.mo.values().map(Vec::len).sum();
        // Rough BTreeMap node overhead per mo location.
        const MO_NODE_BYTES: usize = 48;
        std::mem::size_of::<Self>()
            + self.threads.len() * std::mem::size_of::<Arc<Vec<Event>>>()
            + events * std::mem::size_of::<Event>()
            + mo_entries * std::mem::size_of::<EventId>()
            + self.mo.len() * MO_NODE_BYTES
    }

    /// The events of one thread in program order.
    pub fn thread_events(&self, thread: ThreadId) -> &[Event] {
        &self.threads[thread as usize]
    }

    /// The initial value of a location.
    pub fn init_value(&self, loc: Loc) -> Value {
        self.init.get(&loc).copied().unwrap_or(0)
    }

    /// The init table of the graph.
    pub fn init_table(&self) -> &BTreeMap<Loc, Value> {
        &self.init
    }

    /// Look up a regular event.
    ///
    /// # Panics
    ///
    /// Panics if `id` is an init event or out of bounds.
    pub fn event(&self, id: EventId) -> &Event {
        match id {
            EventId::Init(loc) => panic!("init event of {loc:#x} has no Event record"),
            EventId::Event { thread, index } => &self.threads[thread as usize][index as usize],
        }
    }

    fn event_mut(&mut self, id: EventId) -> &mut Event {
        match id {
            EventId::Init(loc) => panic!("init event of {loc:#x} has no Event record"),
            EventId::Event { thread, index } => {
                &mut Arc::make_mut(&mut self.threads[thread as usize])[index as usize]
            }
        }
    }

    /// The location accessed by an event (init events access their location).
    pub fn loc_of(&self, id: EventId) -> Option<Loc> {
        match id {
            EventId::Init(loc) => Some(loc),
            _ => self.event(id).kind.loc(),
        }
    }

    /// The value written by a write event (init writes have init values).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a write event.
    pub fn write_value(&self, id: EventId) -> Value {
        match id {
            EventId::Init(loc) => self.init_value(loc),
            _ => match &self.event(id).kind {
                EventKind::Write { val, .. } => *val,
                k => panic!("{id} is not a write: {k}"),
            },
        }
    }

    /// The mode of an event (init writes are relaxed).
    pub fn mode_of(&self, id: EventId) -> Mode {
        match id {
            EventId::Init(_) => Mode::Rlx,
            _ => self.event(id).kind.mode(),
        }
    }

    /// Append an event to a thread's program order; returns its id.
    pub fn push_event(&mut self, thread: ThreadId, kind: EventKind) -> EventId {
        let index = self.threads[thread as usize].len() as u32;
        let mut ev = Event::new(kind);
        ev.ts = self.next_ts;
        self.next_ts += 1;
        Arc::make_mut(&mut self.threads[thread as usize]).push(ev);
        EventId::new(thread, index)
    }

    /// Remove the most recently pushed event of `thread` and return its
    /// kind, rolling back the exploration timestamp.
    ///
    /// This is the undo half of the revisit engine's speculative
    /// consistency pre-check (`push_event` → check → `pop_event`); it is
    /// only valid while the popped event is the globally newest one, so
    /// the timestamp counter rewinds exactly.
    ///
    /// # Panics
    ///
    /// Panics if the thread is empty or its last event is not the
    /// globally newest (its `ts` must be `next_ts - 1`).
    pub fn pop_event(&mut self, thread: ThreadId) -> EventKind {
        let evs = Arc::make_mut(&mut self.threads[thread as usize]);
        let ev = evs.pop().expect("pop_event on empty thread");
        assert_eq!(ev.ts + 1, self.next_ts, "pop_event must undo the newest push");
        self.next_ts -= 1;
        ev.kind
    }

    /// Remove a write from the modification order of `loc` at `pos` — the
    /// undo of [`ExecutionGraph::insert_mo`]. A location whose last write
    /// is removed disappears from [`ExecutionGraph::written_locs`], as if
    /// it had never been written.
    ///
    /// # Panics
    ///
    /// Panics if `loc` has no modification order or `pos` is out of
    /// bounds.
    pub fn remove_mo(&mut self, loc: Loc, pos: usize) -> EventId {
        let list = self.mo.get_mut(&loc).expect("remove_mo on unwritten location");
        let id = list.remove(pos);
        if list.is_empty() {
            self.mo.remove(&loc);
        }
        id
    }

    /// Insert a write event into the modification order of its location at
    /// `pos` (0 = immediately after the init write).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a write event of `loc` or `pos` is out of
    /// bounds.
    pub fn insert_mo(&mut self, loc: Loc, id: EventId, pos: usize) {
        debug_assert!(matches!(&self.event(id).kind, EventKind::Write { loc: l, .. } if *l == loc));
        let list = self.mo.entry(loc).or_default();
        assert!(pos <= list.len(), "mo position {pos} out of bounds");
        list.insert(pos, id);
    }

    /// The modification order of `loc` (non-init writes, oldest first).
    pub fn mo(&self, loc: Loc) -> &[EventId] {
        self.mo.get(&loc).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All locations with at least one non-init write.
    pub fn written_locs(&self) -> impl Iterator<Item = Loc> + '_ {
        self.mo.keys().copied()
    }

    /// The position of a write in the extended modification order of its
    /// location: init is 0, the first non-init write is 1, and so on.
    ///
    /// Returns `None` if the write is not in the mo (e.g. not yet inserted).
    pub fn mo_position(&self, id: EventId) -> Option<usize> {
        match id {
            EventId::Init(_) => Some(0),
            _ => {
                let loc = self.loc_of(id)?;
                self.mo(loc).iter().position(|w| *w == id).map(|p| p + 1)
            }
        }
    }

    /// Set (or overwrite) the reads-from source of a read event.
    ///
    /// # Panics
    ///
    /// Panics if `read` is not a read event.
    pub fn set_rf(&mut self, read: EventId, src: RfSource) {
        match &mut self.event_mut(read).kind {
            EventKind::Read { rf, .. } => *rf = src,
            k => panic!("{read} is not a read: {k}"),
        }
    }

    /// Overwrite the derived flags of a read event.
    ///
    /// `rmw` and `awaiting` are functions of the instruction and the value
    /// read; after a revisit changes a read's source, the replayer repairs
    /// them through this method.
    ///
    /// # Panics
    ///
    /// Panics if `read` is not a read event.
    pub fn set_read_flags(&mut self, read: EventId, rmw: bool, awaiting: bool) {
        match &mut self.event_mut(read).kind {
            EventKind::Read { rmw: r, awaiting: a, .. } => {
                *r = rmw;
                *a = awaiting;
            }
            k => panic!("{read} is not a read: {k}"),
        }
    }

    /// Overwrite the barrier mode of a read, write or fence event.
    ///
    /// Modes are program-derived data: an execution graph recorded under
    /// one barrier assignment can be re-interpreted under another by
    /// rewriting each event's mode from the new program's site table
    /// (`vsync_lang::replay_adopt_modes` — the optimizer's witness-cache
    /// replay). Only the mode changes; the event structure, values, `rf`
    /// and `mo` are untouched.
    ///
    /// # Panics
    ///
    /// Panics if `id` is an init or error event (neither carries a mode).
    pub fn set_event_mode(&mut self, id: EventId, mode: Mode) {
        match &mut self.event_mut(id).kind {
            EventKind::Read { mode: m, .. }
            | EventKind::Write { mode: m, .. }
            | EventKind::Fence { mode: m } => *m = mode,
            k => panic!("{id} carries no mode: {k}"),
        }
    }

    /// The reads-from source of a read event.
    pub fn rf(&self, read: EventId) -> RfSource {
        match &self.event(read).kind {
            EventKind::Read { rf, .. } => *rf,
            k => panic!("{read} is not a read: {k}"),
        }
    }

    /// The value observed by a read, or `None` while its source is `⊥`.
    pub fn read_value(&self, read: EventId) -> Option<Value> {
        match self.rf(read) {
            RfSource::Bottom => None,
            RfSource::Write(w) => Some(self.write_value(w)),
        }
    }

    /// Iterate over all regular events with their ids, by thread then
    /// program order.
    pub fn events(&self) -> impl Iterator<Item = (EventId, &Event)> + '_ {
        self.threads.iter().enumerate().flat_map(|(t, evs)| {
            evs.iter()
                .enumerate()
                .map(move |(i, e)| (EventId::new(t as ThreadId, i as u32), e))
        })
    }

    /// Iterate over all read events (id, loc, rf).
    pub fn reads(&self) -> impl Iterator<Item = (EventId, Loc, RfSource)> + '_ {
        self.events().filter_map(|(id, e)| match &e.kind {
            EventKind::Read { loc, rf, .. } => Some((id, *loc, *rf)),
            _ => None,
        })
    }

    /// Iterate over the reads of a given location.
    pub fn reads_of(&self, loc: Loc) -> impl Iterator<Item = (EventId, RfSource)> + '_ {
        self.reads()
            .filter(move |(_, l, _)| *l == loc)
            .map(|(id, _, rf)| (id, rf))
    }

    /// All reads whose source is still `⊥`.
    pub fn pending_reads(&self) -> impl Iterator<Item = (EventId, Loc)> + '_ {
        self.reads()
            .filter(|(_, _, rf)| rf.is_bottom())
            .map(|(id, loc, _)| (id, loc))
    }

    /// The RMW read that reads from write `w`, if any.
    ///
    /// Atomicity demands at most one RMW reads from any given write; the
    /// explorer uses this to prune conflicting rf choices.
    pub fn rmw_reader_of(&self, w: EventId) -> Option<EventId> {
        let loc = self.loc_of(w)?;
        self.reads_of(loc).find_map(|(id, rf)| {
            let is_rmw = matches!(&self.event(id).kind, EventKind::Read { rmw: true, .. });
            (is_rmw && rf == RfSource::Write(w)).then_some(id)
        })
    }

    /// The error event of the graph, if one was generated.
    pub fn error(&self) -> Option<(EventId, &str)> {
        self.events().find_map(|(id, e)| match &e.kind {
            EventKind::Error { msg } => Some((id, msg.as_str())),
            _ => None,
        })
    }

    /// The final memory state: for every location, the value of its
    /// `mo`-maximal write (or the initial value).
    ///
    /// Meaningful for complete executions; used by final-state assertions.
    pub fn final_state(&self) -> BTreeMap<Loc, Value> {
        let mut state = (*self.init).clone();
        for (&loc, writes) in &self.mo {
            if let Some(&w) = writes.last() {
                state.insert(loc, self.write_value(w));
            } else {
                state.entry(loc).or_insert(0);
            }
        }
        state
    }

    /// The `porf`-prefix of a set of events: all events reachable backwards
    /// through program order and reads-from edges, *including* the seeds.
    ///
    /// Init events are implicit and never included.
    pub fn porf_prefix_set(&self, seeds: impl IntoIterator<Item = EventId>) -> EventSet {
        let mut prefix = EventSet::new(self);
        let mut work: Vec<EventId> = seeds.into_iter().filter(|e| !e.is_init()).collect();
        while let Some(id) = work.pop() {
            if !prefix.insert(id) {
                continue;
            }
            let (thread, index) = match id {
                EventId::Event { thread, index } => (thread, index),
                EventId::Init(_) => continue,
            };
            if index > 0 {
                // The whole po-prefix of the thread is in the porf-prefix;
                // mark it in one go, chasing only the rf edges of newly
                // marked reads.
                work.push(EventId::new(thread, index - 1));
            }
            if let EventKind::Read { rf: RfSource::Write(w), .. } = &self.event(id).kind {
                if !w.is_init() {
                    work.push(*w);
                }
            }
        }
        prefix
    }

    /// Restrict the graph to a set of kept events.
    ///
    /// `keep` must be closed under `po` and `rf` predecessors (a union of
    /// `porf`-prefixes); reads-from edges of kept reads then stay inside the
    /// kept set and each thread keeps a prefix of its program order.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `keep` is not prefix-closed.
    pub fn restrict_set(&self, keep: &EventSet) -> ExecutionGraph {
        let mut threads = Vec::with_capacity(self.threads.len());
        for (t, evs) in self.threads.iter().enumerate() {
            // Find the cut first so a fully-surviving thread shares the
            // parent's storage without copying a single event.
            let mut cut = 0;
            while cut < evs.len() && keep.contains(EventId::new(t as ThreadId, cut as u32)) {
                cut += 1;
            }
            #[cfg(debug_assertions)]
            for i in cut..evs.len() {
                assert!(
                    !keep.contains(EventId::new(t as ThreadId, i as u32)),
                    "keep set is not po-prefix-closed for thread {t}"
                );
            }
            if cut == evs.len() {
                threads.push(Arc::clone(evs));
            } else {
                threads.push(Arc::new(evs[..cut].to_vec()));
            }
        }
        let mo = self
            .mo
            .iter()
            .map(|(&loc, ws)| {
                (loc, ws.iter().filter(|w| keep.contains(**w)).copied().collect::<Vec<_>>())
            })
            .filter(|(_, ws): &(Loc, Vec<EventId>)| !ws.is_empty())
            .collect();
        let g = ExecutionGraph { threads, mo, init: self.init.clone(), next_ts: self.next_ts };
        #[cfg(debug_assertions)]
        for (id, _, rf) in g.reads() {
            if let RfSource::Write(w) = rf {
                if !w.is_init() {
                    assert!(keep.contains(w), "dangling rf after restrict: {id} reads deleted {w}");
                }
            }
        }
        g
    }

    /// The graph with its threads relabeled by `perm`
    /// (`perm[original] = new label`): thread `t`'s event sequence becomes
    /// thread `perm[t]`'s, and every embedded [`EventId`] — reads-from
    /// sources and modification-order entries — is rewritten accordingly.
    /// Per-location `mo` *order* and the init table are unchanged.
    ///
    /// Relabeling between threads running identical code maps execution
    /// graphs of a program onto execution graphs of the same program;
    /// the explorer uses this to replace a work item by its
    /// symmetry-canonical representative.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..num_threads`.
    #[must_use]
    pub fn permute_threads(&self, perm: &[ThreadId]) -> ExecutionGraph {
        assert_eq!(perm.len(), self.threads.len(), "permutation covers all threads");
        let map_id = |id: EventId| match id {
            EventId::Init(_) => id,
            EventId::Event { thread, index } => {
                EventId::Event { thread: perm[thread as usize], index }
            }
        };
        // Placeholder Arcs; every slot is overwritten below (sharing the
        // placeholder between slots until then is fine — clippy's
        // rc_clone_in_vec_init lint wants that made explicit).
        let placeholder: Arc<Vec<Event>> = Arc::new(Vec::new());
        let mut threads: Vec<Arc<Vec<Event>>> =
            (0..self.threads.len()).map(|_| Arc::clone(&placeholder)).collect();
        let mut placed = vec![false; self.threads.len()];
        for (t, evs) in self.threads.iter().enumerate() {
            let mapped: Vec<Event> = evs
                .iter()
                .map(|ev| {
                    let kind = match &ev.kind {
                        EventKind::Read { loc, mode, rf, rmw, awaiting } => EventKind::Read {
                            loc: *loc,
                            mode: *mode,
                            rf: match rf {
                                RfSource::Bottom => RfSource::Bottom,
                                RfSource::Write(w) => RfSource::Write(map_id(*w)),
                            },
                            rmw: *rmw,
                            awaiting: *awaiting,
                        },
                        other => other.clone(),
                    };
                    Event { kind, ts: ev.ts }
                })
                .collect();
            let slot = perm[t] as usize;
            assert!(!placed[slot], "perm maps two threads to label {slot}");
            placed[slot] = true;
            threads[slot] = Arc::new(mapped);
        }
        let mo = self
            .mo
            .iter()
            .map(|(&loc, ws)| (loc, ws.iter().map(|&w| map_id(w)).collect()))
            .collect();
        ExecutionGraph { threads, mo, init: self.init.clone(), next_ts: self.next_ts }
    }

    /// Pretty multi-line rendering used in counterexample reports.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (&loc, &val) in self.init.iter() {
            let _ = writeln!(out, "  Winit({loc:#x}) = {val}");
        }
        for (t, evs) in self.threads.iter().enumerate() {
            let _ = writeln!(out, "  thread T{t}:");
            for (i, ev) in evs.iter().enumerate() {
                let _ = writeln!(out, "    [{i:>3}] {}", ev.kind);
            }
        }
        for (&loc, ws) in &self.mo {
            let order: Vec<String> = ws.iter().map(|w| w.to_string()).collect();
            let _ = writeln!(out, "  mo({loc:#x}): init -> {}", order.join(" -> "));
        }
        out
    }
}

/// A dense set of a graph's regular events, stored as one bitset over
/// `(thread, index)` pairs.
///
/// The explorer computes `porf`-prefixes for every write placement and
/// revisit; a `HashSet<EventId>` there means hashing on the hottest path.
/// `EventSet` replaces it with word-level bit operations. The set is tied
/// to the shape (per-thread lengths) of the graph it was created from.
#[derive(Debug, Clone)]
pub struct EventSet {
    /// `offsets[t]` is the first bit of thread `t`; the last entry is the
    /// total bit count.
    offsets: Vec<u32>,
    bits: Vec<u64>,
}

impl EventSet {
    /// An empty set shaped for `g`'s current events.
    pub fn new(g: &ExecutionGraph) -> Self {
        let mut offsets = Vec::with_capacity(g.num_threads() + 1);
        let mut total = 0u32;
        for t in 0..g.num_threads() {
            offsets.push(total);
            total += g.thread_len(t as u32) as u32;
        }
        offsets.push(total);
        EventSet { offsets, bits: vec![0; (total as usize).div_ceil(64)] }
    }

    fn slot(&self, id: EventId) -> Option<usize> {
        match id {
            EventId::Init(_) => None,
            EventId::Event { thread, index } => {
                Some(self.offsets[thread as usize] as usize + index as usize)
            }
        }
    }

    /// Insert an event; returns `true` iff it was not already present.
    /// Init events are implicit in every prefix and never stored.
    pub fn insert(&mut self, id: EventId) -> bool {
        let Some(b) = self.slot(id) else { return false };
        let (w, m) = (b / 64, 1u64 << (b % 64));
        let fresh = self.bits[w] & m == 0;
        self.bits[w] |= m;
        fresh
    }

    /// Is the event in the set?
    pub fn contains(&self, id: EventId) -> bool {
        match self.slot(id) {
            Some(b) => self.bits[b / 64] & (1u64 << (b % 64)) != 0,
            None => false,
        }
    }

    /// Union another set of the same shape into this one.
    pub fn union_with(&mut self, other: &EventSet) {
        debug_assert_eq!(self.offsets, other.offsets, "sets from different graph shapes");
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= b;
        }
    }

    /// Number of events in the set.
    pub fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// Per-thread kept-prefix lengths of a po-prefix-closed set: entry `t`
    /// is the number of kept events of thread `t`. Because a prefix-closed
    /// set keeps a contiguous program-order prefix of every thread, the
    /// popcount of a thread's bit range *is* its cut position — this is
    /// how the revisit engine describes a restriction without building the
    /// restricted graph.
    pub fn prefix_lens(&self) -> Vec<u32> {
        (0..self.offsets.len() - 1)
            .map(|t| {
                let (lo, hi) = (self.offsets[t] as usize, self.offsets[t + 1] as usize);
                (lo..hi)
                    .filter(|b| self.bits[b / 64] & (1u64 << (b % 64)) != 0)
                    .count() as u32
            })
            .collect()
    }

    /// Iterate the members as [`EventId`]s (`g` must be the graph the set
    /// was created from, or one with the same per-thread lengths).
    pub fn iter<'a>(&'a self, g: &'a ExecutionGraph) -> impl Iterator<Item = EventId> + 'a {
        (0..g.num_threads()).flat_map(move |t| {
            let base = self.offsets[t] as usize;
            (0..g.thread_len(t as u32)).filter_map(move |i| {
                let b = base + i;
                (self.bits[b / 64] & (1u64 << (b % 64)) != 0)
                    .then(|| EventId::new(t as ThreadId, i as u32))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_kind(loc: Loc, rf: RfSource) -> EventKind {
        EventKind::Read { loc, mode: Mode::Rlx, rf, rmw: false, awaiting: false }
    }

    fn write_kind(loc: Loc, val: Value) -> EventKind {
        EventKind::Write { loc, val, mode: Mode::Rlx, rmw: false }
    }

    fn two_thread_graph() -> ExecutionGraph {
        // T0: W(x,1); T1: R(x)<-T0.0
        let mut g = ExecutionGraph::new(2, BTreeMap::new());
        let w = g.push_event(0, write_kind(0x10, 1));
        g.insert_mo(0x10, w, 0);
        let _r = g.push_event(1, read_kind(0x10, RfSource::Write(w)));
        g
    }

    #[test]
    fn push_and_lookup() {
        let g = two_thread_graph();
        assert_eq!(g.num_events(), 2);
        assert_eq!(g.thread_len(0), 1);
        assert_eq!(g.write_value(EventId::new(0, 0)), 1);
        assert_eq!(g.read_value(EventId::new(1, 0)), Some(1));
    }

    #[test]
    fn init_values_default_to_zero() {
        let mut init = BTreeMap::new();
        init.insert(0x20, 7);
        let g = ExecutionGraph::new(1, init);
        assert_eq!(g.init_value(0x20), 7);
        assert_eq!(g.init_value(0x10), 0);
        assert_eq!(g.write_value(EventId::Init(0x20)), 7);
    }

    #[test]
    fn mo_positions() {
        let mut g = ExecutionGraph::new(1, BTreeMap::new());
        let w1 = g.push_event(0, write_kind(0x10, 1));
        let w2 = g.push_event(0, write_kind(0x10, 2));
        g.insert_mo(0x10, w1, 0);
        g.insert_mo(0x10, w2, 0); // w2 placed *before* w1
        assert_eq!(g.mo(0x10), &[w2, w1]);
        assert_eq!(g.mo_position(EventId::Init(0x10)), Some(0));
        assert_eq!(g.mo_position(w2), Some(1));
        assert_eq!(g.mo_position(w1), Some(2));
    }

    #[test]
    fn read_from_bottom_has_no_value() {
        let mut g = ExecutionGraph::new(1, BTreeMap::new());
        let r = g.push_event(0, read_kind(0x10, RfSource::Bottom));
        assert_eq!(g.read_value(r), None);
        assert_eq!(g.pending_reads().count(), 1);
        g.set_rf(r, RfSource::Write(EventId::Init(0x10)));
        assert_eq!(g.read_value(r), Some(0));
        assert_eq!(g.pending_reads().count(), 0);
    }

    #[test]
    fn final_state_is_mo_maximal() {
        let mut g = ExecutionGraph::new(1, BTreeMap::new());
        let w1 = g.push_event(0, write_kind(0x10, 1));
        let w2 = g.push_event(0, write_kind(0x10, 2));
        g.insert_mo(0x10, w1, 0);
        g.insert_mo(0x10, w2, 1);
        assert_eq!(g.final_state().get(&0x10), Some(&2));
    }

    #[test]
    fn porf_prefix_follows_po_and_rf() {
        let mut g = ExecutionGraph::new(2, BTreeMap::new());
        let w0 = g.push_event(0, write_kind(0x10, 1)); // T0.0
        g.insert_mo(0x10, w0, 0);
        let w1 = g.push_event(0, write_kind(0x20, 1)); // T0.1
        g.insert_mo(0x20, w1, 0);
        let r = g.push_event(1, read_kind(0x20, RfSource::Write(w1))); // T1.0
        let prefix = g.porf_prefix_set([r]);
        // r's prefix: r itself, w1 (rf), w0 (po before w1).
        assert!(prefix.contains(r));
        assert!(prefix.contains(w1));
        assert!(prefix.contains(w0));
        assert_eq!(prefix.len(), 3);
        // w0's prefix is just w0.
        assert_eq!(g.porf_prefix_set([w0]).len(), 1);
    }

    #[test]
    fn restrict_keeps_prefixes_and_filters_mo() {
        let mut g = ExecutionGraph::new(2, BTreeMap::new());
        let w0 = g.push_event(0, write_kind(0x10, 1));
        g.insert_mo(0x10, w0, 0);
        let w1 = g.push_event(0, write_kind(0x10, 2));
        g.insert_mo(0x10, w1, 1);
        let r = g.push_event(1, read_kind(0x10, RfSource::Write(w0)));
        let mut keep = EventSet::new(&g);
        keep.insert(w0);
        keep.insert(r);
        let g2 = g.restrict_set(&keep);
        assert_eq!(g2.num_events(), 2);
        assert_eq!(g2.mo(0x10), &[w0]);
        assert_eq!(g2.read_value(r), Some(1));
    }

    #[test]
    fn rmw_reader_lookup() {
        let mut g = ExecutionGraph::new(2, BTreeMap::new());
        let w = g.push_event(0, write_kind(0x10, 1));
        g.insert_mo(0x10, w, 0);
        let r = g.push_event(
            1,
            EventKind::Read {
                loc: 0x10,
                mode: Mode::Rlx,
                rf: RfSource::Write(w),
                rmw: true,
                awaiting: false,
            },
        );
        assert_eq!(g.rmw_reader_of(w), Some(r));
        assert_eq!(g.rmw_reader_of(EventId::Init(0x10)), None);
    }

    #[test]
    fn permute_threads_relabels_ids_and_keeps_mo_order() {
        let g = two_thread_graph(); // T0: W(x,1); T1: R(x)<-T0.0
        let p = g.permute_threads(&[1, 0]);
        assert_eq!(p.thread_len(0), 1);
        assert_eq!(p.thread_len(1), 1);
        // The write now lives on T1, the read on T0 — pointing at T1.0.
        assert_eq!(p.write_value(EventId::new(1, 0)), 1);
        assert_eq!(p.rf(EventId::new(0, 0)), RfSource::Write(EventId::new(1, 0)));
        assert_eq!(p.mo(0x10), &[EventId::new(1, 0)]);
        // Involution: permuting back restores the original content.
        let back = p.permute_threads(&[1, 0]);
        assert_eq!(back, g);
        // Identity is a no-op.
        assert_eq!(g.permute_threads(&[0, 1]), g);
    }

    #[test]
    fn pop_event_and_remove_mo_undo_a_speculative_extension() {
        let mut g = two_thread_graph();
        let snapshot = g.clone();
        let w = g.push_event(1, write_kind(0x30, 9));
        g.insert_mo(0x30, w, 0);
        assert_eq!(g.written_locs().count(), 2);
        g.remove_mo(0x30, 0);
        let kind = g.pop_event(1);
        assert!(matches!(kind, EventKind::Write { loc: 0x30, val: 9, .. }));
        // Full undo: content *and* timestamps match, so a re-push gets the
        // same ts the speculative push had.
        assert_eq!(g, snapshot);
        // A location whose only write is removed vanishes entirely.
        assert_eq!(g.written_locs().count(), 1);
    }

    #[test]
    #[should_panic(expected = "newest push")]
    fn pop_event_rejects_non_newest() {
        let mut g = two_thread_graph(); // T1's read is newer than T0's write
        let _ = g.pop_event(0);
    }

    #[test]
    fn prefix_lens_count_kept_prefixes() {
        let mut g = ExecutionGraph::new(2, BTreeMap::new());
        let w0 = g.push_event(0, write_kind(0x10, 1));
        g.insert_mo(0x10, w0, 0);
        let _w1 = g.push_event(0, write_kind(0x10, 2));
        let r = g.push_event(1, read_kind(0x10, RfSource::Write(w0)));
        let keep = g.porf_prefix_set([r]);
        assert_eq!(keep.prefix_lens(), vec![1, 1]);
        let all = g.porf_prefix_set([EventId::new(0, 1), r]);
        assert_eq!(all.prefix_lens(), vec![2, 1]);
        assert_eq!(EventSet::new(&g).prefix_lens(), vec![0, 0]);
    }

    #[test]
    fn error_lookup() {
        let mut g = ExecutionGraph::new(1, BTreeMap::new());
        assert!(g.error().is_none());
        g.push_event(0, EventKind::Error { msg: "boom".into() });
        let (_, msg) = g.error().unwrap();
        assert_eq!(msg, "boom");
    }

    #[test]
    fn render_mentions_threads_and_mo() {
        let g = two_thread_graph();
        let s = g.render();
        assert!(s.contains("thread T0"));
        assert!(s.contains("mo(0x10)"));
    }
}
