//! The execution-graph data structure.
//!
//! Graph internals are copy-on-write: each thread's event list and the
//! (immutable) init table sit behind `Arc`s, so the explorer's
//! one-clone-per-child pattern copies only the single thread it then
//! extends — every other thread's events are shared with the parent.
//!
//! Next to each thread's events the graph keeps two per-event indexes,
//! brought up to date by its own `&mut self` mutators (workers share
//! graphs immutably, so nothing is filled in lazily):
//!
//! * the thread's running hash state after each event's flag-free
//!   content, rf source included — a view's content hash combines these
//!   per thread instead of serializing the graph (`encode::view_hash`);
//! * each event's porf clock ([`ExecutionGraph::porf_clock`]).
//!
//! A chain step changes one event, so the common updates are small:
//! `push_event`, and `set_rf` on a thread's last read, cost one event hash
//! and one `threads`-wide join, `set_event_mode` on a last event one hash,
//! and `pop_event` a truncation. `restrict` keeps both indexes of its
//! porf-closed part as they are, `permute_threads` relabels them, and
//! `insert_mo` / `remove_mo` touch neither.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::encode::{init_digest, Lanes};
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
    /// Each thread's events in program order, with their indexes
    /// (copy-on-write per thread).
    threads: Vec<Arc<Track>>,
    /// Modification order per location: all non-init write events, oldest
    /// first. The virtual init write is implicitly at position `-1`.
    mo: BTreeMap<Loc, Vec<EventId>>,
    /// Initial values of locations (missing entries are `0`); immutable
    /// after construction, shared between clones.
    init: Arc<BTreeMap<Loc, Value>>,
    /// The digest of `init` every content hash starts from.
    init_digest: u128,
    /// Next exploration timestamp.
    next_ts: u32,
    /// Reads whose source is not (yet) an event of the graph: a hand-built
    /// graph may name a write before pushing it. While there are any, each
    /// push looks for the reads it completes.
    dangling: u32,
}

/// One thread's program order and the indexes kept alongside it.
#[derive(Debug, Default, PartialEq, Eq)]
struct Track {
    events: Vec<Event>,
    /// `hashes[i]`: the thread's hash state after events `0..=i`.
    hashes: Vec<Lanes>,
    /// Event `i`'s porf clock is `clocks[i * nt..(i + 1) * nt]`, `nt` the
    /// graph's thread count.
    clocks: Vec<u32>,
}

impl Track {
    /// Event `i`'s porf clock.
    fn clock(&self, i: usize, nt: usize) -> &[u32] {
        &self.clocks[i * nt..(i + 1) * nt]
    }
}

/// Raise `clock` pointwise to `other`.
fn join(clock: &mut [u32], other: &[u32]) {
    for (c, &o) in clock.iter_mut().zip(other) {
        *c = (*c).max(o);
    }
}

/// A track is cloned by `Arc::make_mut` right before a push, so the copy
/// leaves room for a few more events instead of reallocating at once.
impl Clone for Track {
    fn clone(&self) -> Self {
        fn roomy<T: Clone>(v: &[T], extra: usize) -> Vec<T> {
            let mut out = Vec::with_capacity(v.len() + extra);
            out.extend_from_slice(v);
            out
        }
        const ROOM: usize = 4;
        // Clock entries per event: the graph's thread count.
        let nt = self.clocks.len().checked_div(self.events.len()).unwrap_or(0);
        Track {
            events: roomy(&self.events, ROOM),
            hashes: roomy(&self.hashes, ROOM),
            clocks: roomy(&self.clocks, ROOM * nt),
        }
    }
}

impl ExecutionGraph {
    /// Create an empty graph for `n_threads` threads with the given initial
    /// memory values.
    pub fn new(n_threads: usize, init: BTreeMap<Loc, Value>) -> Self {
        ExecutionGraph {
            threads: (0..n_threads).map(|_| Arc::new(Track::default())).collect(),
            mo: BTreeMap::new(),
            init_digest: init_digest(&init),
            init: Arc::new(init),
            next_ts: 0,
            dangling: 0,
        }
    }

    /// Number of threads the graph was created for.
    pub fn num_threads(&self) -> usize {
        self.threads.len()
    }

    /// Number of regular (non-init) events currently in the graph.
    pub fn num_events(&self) -> usize {
        self.threads.iter().map(|t| t.events.len()).sum()
    }

    /// Number of events of one thread.
    pub fn thread_len(&self, thread: ThreadId) -> usize {
        self.threads[thread as usize].events.len()
    }

    /// Approximate heap footprint of this graph in bytes, for resource
    /// budgeting. Counts every thread's event list at full size even
    /// though copy-on-write clones share unmodified threads, so summing
    /// over a frontier of sibling graphs over-estimates — budgets degrade
    /// early rather than late. The shared init table is not counted.
    pub fn approx_heap_bytes(&self) -> usize {
        let events = self.num_events();
        let mo_entries: usize = self.mo.values().map(Vec::len).sum();
        // Rough BTreeMap node overhead per mo location.
        const MO_NODE_BYTES: usize = 48;
        let per_event = std::mem::size_of::<Event>()
            + std::mem::size_of::<Lanes>()
            + self.threads.len() * std::mem::size_of::<u32>();
        std::mem::size_of::<Self>()
            + self.threads.len()
                * (std::mem::size_of::<Arc<Track>>() + std::mem::size_of::<Track>())
            + events * per_event
            + mo_entries * std::mem::size_of::<EventId>()
            + self.mo.len() * MO_NODE_BYTES
    }

    /// The events of one thread in program order.
    pub fn thread_events(&self, thread: ThreadId) -> &[Event] {
        &self.threads[thread as usize].events
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
            EventId::Event { thread, index } => {
                &self.threads[thread as usize].events[index as usize]
            }
        }
    }

    /// The kind of a regular event, for a mutator that then brings the
    /// indexes from `(thread, index)` on up to date.
    fn kind_mut(&mut self, id: EventId) -> (&mut EventKind, usize, usize) {
        match id {
            EventId::Init(loc) => panic!("init event of {loc:#x} has no Event record"),
            EventId::Event { thread, index } => {
                let (t, i) = (thread as usize, index as usize);
                (&mut Arc::make_mut(&mut self.threads[t]).events[i].kind, t, i)
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
        let (t, nt) = (thread as usize, self.threads.len());
        let i = self.threads[t].events.len();
        let id = EventId::new(thread, i as u32);
        let hash = self.thread_hash(thread, i).event(&kind, None);
        let (src, dangles) = match kind {
            EventKind::Read { rf, .. } => (self.source(id, rf), self.dangles(id, rf)),
            _ => (None, false),
        };
        // The clock: the po-predecessor's (or none), the event itself, and
        // the source's — from another track, or from this one's prefix.
        let (track, other) = match src {
            Some(EventId::Event { thread: u, index: j }) if u != thread => {
                let [dst, from] =
                    self.threads.get_disjoint_mut([t, u as usize]).expect("distinct threads");
                (Arc::make_mut(dst), Some(from.clock(j as usize, nt)))
            }
            _ => (Arc::make_mut(&mut self.threads[t]), None),
        };
        let at = i * nt;
        if i > 0 {
            track.clocks.extend_from_within(at - nt..at);
        } else {
            track.clocks.resize(nt, 0);
        }
        track.clocks[at + t] = i as u32 + 1;
        if let Some(row) = other {
            join(&mut track.clocks[at..], row);
        } else if let Some(EventId::Event { index: j, .. }) = src {
            let (before, row) = track.clocks.split_at_mut(at);
            join(row, &before[j as usize * nt..(j as usize + 1) * nt]);
        }
        track.events.push(Event { kind, ts: self.next_ts });
        track.hashes.push(hash);
        self.next_ts += 1;
        if self.dangling > 0 {
            self.complete_dangling(id);
        }
        self.dangling += u32::from(dangles);
        id
    }

    /// Remove the most recently pushed event of `thread` and return its
    /// kind, rolling back the exploration timestamp.
    ///
    /// This is the undo half of the revisit engine's speculative
    /// consistency pre-check (`push_event` → check → `pop_event`); it is
    /// only valid while the popped event is the globally newest one, so
    /// the timestamp counter rewinds exactly.
    ///
    /// Nothing may read from the popped event: undo a `set_rf` to it
    /// first.
    ///
    /// # Panics
    ///
    /// Panics if the thread is empty or its last event is not the
    /// globally newest (its `ts` must be `next_ts - 1`).
    pub fn pop_event(&mut self, thread: ThreadId) -> EventKind {
        let nt = self.threads.len();
        let track = Arc::make_mut(&mut self.threads[thread as usize]);
        let ev = track.events.pop().expect("pop_event on empty thread");
        assert_eq!(ev.ts + 1, self.next_ts, "pop_event must undo the newest push");
        track.hashes.pop();
        track.clocks.truncate(track.events.len() * nt);
        self.next_ts -= 1;
        let id = EventId::new(thread, track.events.len() as u32);
        if let EventKind::Read { rf, .. } = ev.kind {
            self.dangling -= u32::from(self.dangles(id, rf));
        }
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

    /// Each written location with its modification order, by location.
    pub(crate) fn mo_lists(&self) -> impl Iterator<Item = (Loc, &[EventId])> + '_ {
        self.mo.iter().map(|(&loc, ws)| (loc, ws.as_slice()))
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
        let (kind, t, i) = self.kind_mut(read);
        let old = match kind {
            EventKind::Read { rf, .. } => std::mem::replace(rf, src),
            k => panic!("{read} is not a read: {k}"),
        };
        self.dangling =
            self.dangling + u32::from(self.dangles(read, src)) - u32::from(self.dangles(read, old));
        self.rehash(t, i);
        self.reclock(t, i);
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
        // Flags are derived data: neither index depends on them.
        match self.kind_mut(read).0 {
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
        let (kind, t, i) = self.kind_mut(id);
        match kind {
            EventKind::Read { mode: m, .. }
            | EventKind::Write { mode: m, .. }
            | EventKind::Fence { mode: m } => *m = mode,
            k => panic!("{id} carries no mode: {k}"),
        }
        self.rehash(t, i);
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
        self.threads.iter().enumerate().flat_map(|(t, track)| {
            track
                .events
                .iter()
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

    /// The restriction of the graph to the first `lens[t]` events of every
    /// thread `t` (the lengths of a `porf`-prefix, as from
    /// [`ExecutionGraph::porf_join`]); the modification orders keep their kept
    /// writes in order. The kept part must be closed under `rf`
    /// predecessors, so no kept read loses its source.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if a kept read's source is cut.
    pub fn restrict(&self, lens: &[u32]) -> ExecutionGraph {
        let kept = |id: EventId| match id {
            EventId::Init(_) => true,
            EventId::Event { thread, index } => index < lens[thread as usize],
        };
        let nt = self.threads.len();
        let threads = self
            .threads
            .iter()
            .zip(lens)
            .map(|(track, &len)| {
                let len = len as usize;
                // A fully-surviving thread shares the parent's storage. The
                // kept part is porf-closed, so its clocks stay exact, and
                // hash states are per-thread prefixes.
                if len >= track.events.len() {
                    Arc::clone(track)
                } else {
                    Arc::new(Track {
                        events: track.events[..len].to_vec(),
                        hashes: track.hashes[..len].to_vec(),
                        clocks: track.clocks[..len * nt].to_vec(),
                    })
                }
            })
            .collect();
        let mo = self
            .mo
            .iter()
            .map(|(&loc, ws)| (loc, ws.iter().copied().filter(|&w| kept(w)).collect::<Vec<_>>()))
            .filter(|(_, ws)| !ws.is_empty())
            .collect();
        let mut g = ExecutionGraph { threads, mo, ..self.clone_shell() };
        if g.dangling > 0 {
            g.dangling = g.reads().filter(|&(r, _, rf)| g.dangles(r, rf)).count() as u32;
        }
        #[cfg(debug_assertions)]
        for (id, _, rf) in g.reads() {
            if let RfSource::Write(w) = rf {
                assert!(kept(w), "dangling rf after restrict: {id} reads deleted {w}");
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
        let nt = self.threads.len();
        let mut threads: Vec<Option<Arc<Track>>> = vec![None; nt];
        for (t, track) in self.threads.iter().enumerate() {
            let events: Vec<Event> = track
                .events
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
            // Hash states embed relabeled sources: re-absorb. Clock rows
            // move their entries to the new labels.
            let hashes = events
                .iter()
                .scan(Lanes::SEED, |s, ev| {
                    *s = s.event(&ev.kind, None);
                    Some(*s)
                })
                .collect();
            let mut clocks = vec![0; track.clocks.len()];
            for (new, old) in clocks.chunks_mut(nt).zip(track.clocks.chunks(nt)) {
                for (u, &c) in old.iter().enumerate() {
                    new[perm[u] as usize] = c;
                }
            }
            let slot = &mut threads[perm[t] as usize];
            assert!(slot.is_none(), "perm maps two threads to label {}", perm[t]);
            *slot = Some(Arc::new(Track { events, hashes, clocks }));
        }
        let mo = self
            .mo
            .iter()
            .map(|(&loc, ws)| (loc, ws.iter().map(|&w| map_id(w)).collect()))
            .collect();
        let threads = threads.into_iter().map(|t| t.expect("perm is a permutation")).collect();
        ExecutionGraph { threads, mo, ..self.clone_shell() }
    }

    /// Pretty multi-line rendering used in counterexample reports.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (&loc, &val) in self.init.iter() {
            let _ = writeln!(out, "  Winit({loc:#x}) = {val}");
        }
        for (t, track) in self.threads.iter().enumerate() {
            let _ = writeln!(out, "  thread T{t}:");
            for (i, ev) in track.events.iter().enumerate() {
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

// The per-event indexes (module docs): their lookups and their upkeep.
impl ExecutionGraph {
    /// The porf clock of a regular event: entry `u` is how many events of
    /// thread `u` lie in `porf-prefix(e)` — everything reachable backwards
    /// from `e` through program order and reads-from edges, `e` included.
    /// The prefix is po-prefix-closed, so those counts describe it
    /// exactly, and the prefix of a set of events is the pointwise maximum
    /// of their clocks ([`ExecutionGraph::porf_join`]).
    ///
    /// The graph keeps every clock current as the join of the event's
    /// po-predecessor's clock and its source's (module docs), so this is a
    /// lookup; the revisit engine joins two per W-step target instead of
    /// searching a prefix per mo placement and revisited read.
    ///
    /// # Panics
    ///
    /// Panics if `id` is an init event or not an event of the graph.
    pub fn porf_clock(&self, id: EventId) -> &[u32] {
        let EventId::Event { thread, index } = id else { panic!("init events have no porf clock") };
        let track = &self.threads[thread as usize];
        assert!((index as usize) < track.events.len(), "{id} is not an event of the graph");
        track.clock(index as usize, self.threads.len())
    }

    /// The per-thread lengths of the `porf`-prefix of a set of events:
    /// the join of their clocks (init events contribute nothing).
    pub fn porf_join(&self, seeds: impl IntoIterator<Item = EventId>) -> Vec<u32> {
        let mut lens = vec![0; self.threads.len()];
        for id in seeds.into_iter().filter(|id| !id.is_init()) {
            join(&mut lens, self.porf_clock(id));
        }
        lens
    }

    /// Thread `t`'s hash state after its first `cut` events.
    pub(crate) fn thread_hash(&self, t: ThreadId, cut: usize) -> Lanes {
        cut.checked_sub(1).map_or(Lanes::SEED, |i| self.threads[t as usize].hashes[i])
    }

    /// The digest of the init table.
    pub(crate) fn init_digest(&self) -> u128 {
        self.init_digest
    }

    /// Everything but threads and mo, for a derived graph.
    fn clone_shell(&self) -> ExecutionGraph {
        ExecutionGraph {
            threads: Vec::new(),
            mo: BTreeMap::new(),
            init: Arc::clone(&self.init),
            init_digest: self.init_digest,
            next_ts: self.next_ts,
            dangling: self.dangling,
        }
    }

    /// Whether `id` is a regular event of the graph.
    fn contains(&self, id: EventId) -> bool {
        match id {
            EventId::Init(_) => false,
            EventId::Event { thread, index } => (index as usize) < self.thread_len(thread),
        }
    }

    /// The regular event `read` takes its value from, if the graph has it
    /// (a read naming itself has none).
    fn source(&self, read: EventId, rf: RfSource) -> Option<EventId> {
        match rf {
            RfSource::Write(w) if w != read && self.contains(w) => Some(w),
            _ => None,
        }
    }

    /// Whether `read`'s source `rf` names another regular event that the
    /// graph lacks.
    fn dangles(&self, read: EventId, rf: RfSource) -> bool {
        matches!(rf, RfSource::Write(w @ EventId::Event { .. }) if w != read && !self.contains(w))
    }

    /// Re-absorb thread `t`'s hash states from event `i` on.
    fn rehash(&mut self, t: usize, i: usize) {
        let track = Arc::make_mut(&mut self.threads[t]);
        let mut s = i.checked_sub(1).map_or(Lanes::SEED, |p| track.hashes[p]);
        for (ev, h) in track.events[i..].iter().zip(&mut track.hashes[i..]) {
            s = s.event(&ev.kind, None);
            *h = s;
        }
    }

    /// Set event `(t, i)`'s clock to the join of its own position, its
    /// po-predecessor's clock and its source's (a source the graph lacks
    /// contributes nothing) — joined into the current clock unless
    /// `reset`. `true` if the clock changed.
    fn settle(&mut self, t: usize, i: usize, reset: bool) -> bool {
        let nt = self.threads.len();
        let id = EventId::new(t as ThreadId, i as u32);
        let src = match self.threads[t].events[i].kind {
            EventKind::Read { rf, .. } => match self.source(id, rf) {
                Some(EventId::Event { thread, index }) => Some((thread as usize, index as usize)),
                _ => None,
            },
            _ => None,
        };
        let at = i * nt;
        let raise = |row: &mut [u32], pred: Option<&[u32]>, src: Option<&[u32]>| {
            let mut changed = false;
            for (u, slot) in row.iter_mut().enumerate() {
                let mut v = if u == t { i as u32 + 1 } else { 0 };
                if !reset {
                    v = v.max(*slot);
                }
                v = v.max(pred.map_or(0, |p| p[u])).max(src.map_or(0, |s| s[u]));
                changed |= v != *slot;
                *slot = v;
            }
            changed
        };
        match src {
            Some((u, j)) if u != t => {
                let [dst, from] =
                    self.threads.get_disjoint_mut([t, u]).expect("source on another thread");
                let from = from.clock(j, nt);
                let (before, row) = Arc::make_mut(dst).clocks.split_at_mut(at);
                raise(&mut row[..nt], (i > 0).then(|| &before[at - nt..]), Some(from))
            }
            _ => {
                let clocks = &mut Arc::make_mut(&mut self.threads[t]).clocks;
                let (before, rest) = clocks.split_at_mut(at);
                let (row, after) = rest.split_at_mut(nt);
                // A source on the same thread is po-before the event, or —
                // on a po ∪ rf cycle — after it.
                let src = src.map(|(_, j)| match j.checked_sub(i + 1) {
                    None => &before[j * nt..(j + 1) * nt],
                    Some(k) => &after[k * nt..(k + 1) * nt],
                });
                raise(row, (i > 0).then(|| &before[at - nt..]), src)
            }
        }
    }

    /// Bring the clocks up to date after read `(t, i)`'s source changed
    /// or appeared. Only the read and the events whose porf-prefix holds
    /// it can move. The engine only re-points a thread's last read, which
    /// no other event's prefix holds: one `settle`. Otherwise those events
    /// restart from their own positions and are raised until stable — on
    /// a po ∪ rf cycle, to reachability.
    fn reclock(&mut self, t: usize, i: usize) {
        if i + 1 == self.threads[t].events.len() {
            self.settle(t, i, true);
            return;
        }
        let nt = self.threads.len();
        let affected: Vec<(usize, usize)> = (0..nt)
            .flat_map(|u| (0..self.threads[u].events.len()).map(move |j| (u, j)))
            .filter(|&(u, j)| self.threads[u].clock(j, nt)[t] > i as u32)
            .collect();
        for &(u, j) in &affected {
            let row = &mut Arc::make_mut(&mut self.threads[u]).clocks[j * nt..(j + 1) * nt];
            row.fill(0);
            row[u] = j as u32 + 1;
        }
        while affected.iter().fold(false, |changed, &(u, j)| self.settle(u, j, false) | changed) {}
    }

    /// `id` was just pushed: re-clock the dangling reads that name it.
    fn complete_dangling(&mut self, id: EventId) {
        let readers: Vec<EventId> = self
            .reads()
            .filter(|&(r, _, rf)| r != id && rf == RfSource::Write(id))
            .map(|(r, _, _)| r)
            .collect();
        for r in readers {
            self.dangling -= 1;
            let EventId::Event { thread, index } = r else { unreachable!("reads are regular") };
            self.reclock(thread as usize, index as usize);
        }
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
    fn porf_clocks_follow_po_and_rf() {
        let mut g = ExecutionGraph::new(2, BTreeMap::new());
        let w0 = g.push_event(0, write_kind(0x10, 1)); // T0.0
        g.insert_mo(0x10, w0, 0);
        let w1 = g.push_event(0, write_kind(0x20, 1)); // T0.1
        g.insert_mo(0x20, w1, 0);
        let r = g.push_event(1, read_kind(0x20, RfSource::Write(w1))); // T1.0
        // r's prefix: r itself, w1 (rf), w0 (po before w1).
        assert_eq!(g.porf_clock(r), &[2, 1]);
        // w0's prefix is just w0.
        assert_eq!(g.porf_clock(w0), &[1, 0]);
        assert_eq!(g.porf_join([w0, r, EventId::Init(0x10)]), vec![2, 1]);
        assert_eq!(g.porf_join([]), vec![0, 0]);
    }

    #[test]
    fn porf_clocks_of_a_cycle_are_reachability() {
        // LB's po ∪ rf cycle: each read's prefix is everything. T0's read
        // names T1's write before it exists; pushing the write completes it.
        let mut g = ExecutionGraph::new(2, BTreeMap::new());
        g.push_event(0, read_kind(0x10, RfSource::Write(EventId::new(1, 1))));
        g.push_event(0, write_kind(0x20, 1));
        g.push_event(1, read_kind(0x20, RfSource::Write(EventId::new(0, 1))));
        assert_eq!(g.porf_clock(EventId::new(0, 0)), &[1, 0], "a missing source adds nothing");
        g.push_event(1, write_kind(0x10, 1));
        assert_eq!(g.porf_clock(EventId::new(0, 0)), &[2, 2]);
        assert_eq!(g.porf_clock(EventId::new(1, 0)), &[2, 2]);
        // Cutting the cycle open lowers every clock on it again.
        g.set_rf(EventId::new(0, 0), RfSource::Write(EventId::Init(0x10)));
        assert_eq!(g.porf_clock(EventId::new(0, 0)), &[1, 0]);
        assert_eq!(g.porf_clock(EventId::new(1, 1)), &[2, 2]);
    }

    #[test]
    fn restrict_keeps_prefixes_and_filters_mo() {
        let mut g = ExecutionGraph::new(2, BTreeMap::new());
        let w0 = g.push_event(0, write_kind(0x10, 1));
        g.insert_mo(0x10, w0, 0);
        let w1 = g.push_event(0, write_kind(0x10, 2));
        g.insert_mo(0x10, w1, 1);
        let r = g.push_event(1, read_kind(0x10, RfSource::Write(w0)));
        let g2 = g.restrict(&[1, 1]);
        assert_eq!(g2.num_events(), 2);
        assert_eq!(g2.mo(0x10), &[w0]);
        assert_eq!(g2.read_value(r), Some(1));
        assert_eq!(g.restrict(&[2, 1]), g, "keeping everything is the identity");
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
