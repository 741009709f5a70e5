//! The [`ChainChecker`] of [`Sc`](crate::Sc) and [`Tso`](crate::Tso): a
//! cycle search that starts at the pushed event.
//!
//! Both models are RMW atomicity plus the acyclicity of a global order over
//! the events — `po ∪ rf ∪ mo ∪ fr` for SC; `ppo ∪ rfe ∪ mo ∪ fr` and,
//! per location, `po ∪ rf ∪ mo ∪ fr` for TSO. The graph a chain extends was
//! accepted, so a cycle in the extended graph passes through the new event
//! (DESIGN.md §2.3): `push` runs one depth-first search from it, over
//! successors read off the graph as the search reaches them. A fence, a
//! read of the `mo`-latest write and a write placed last have no edge out,
//! so most accepted steps end at once. Nothing is carried from one call to
//! the next — unlike `hb`, these orders gain edges *into* old events (a
//! stale read's `fr`, a mid-`mo` write's `mo`), so a per-event summary
//! would need repair on `push` and an undo log on `pop`.

use vsync_graph::{Event, EventId, EventKind, ExecutionGraph, RfSource, ThreadId};

use crate::chain::{atomic_at, mo_pos, ChainChecker, Fork};
use crate::fast;

/// One acyclicity axiom, named by its program-order part; every order adds
/// `mo ∪ fr` and reads-from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Order {
    /// Program order, all of `rf`.
    Sc,
    /// TSO's preserved program order, external `rf` only.
    Tso,
    /// Program order between accesses of one location, all of `rf`.
    PerLoc,
}

/// The axioms of [`Sc`](crate::Sc).
pub(crate) const SC: &[Order] = &[Order::Sc];
/// The axioms of [`Tso`](crate::Tso).
pub(crate) const TSO: &[Order] = &[Order::PerLoc, Order::Tso];

/// DFS colours: unseen, on the current path, finished.
const WHITE: u8 = 0;
const GREY: u8 = 1;
const BLACK: u8 = 2;

/// The stateless chain checker of a model given by its [`Order`]s. The
/// fields are scratch buffers of one search.
#[derive(Debug)]
pub(crate) struct OrderChecker {
    orders: &'static [Order],
    /// First colour slot of each thread.
    base: Vec<usize>,
    colour: Vec<u8>,
    /// Events to enter, and (flagged) events to leave once everything
    /// below them is finished.
    stack: Vec<(EventId, bool)>,
}

impl OrderChecker {
    pub(crate) fn new(orders: &'static [Order]) -> Self {
        OrderChecker { orders, base: Vec::new(), colour: Vec::new(), stack: Vec::new() }
    }

    /// Atomicity around each of `events` and no cycle reachable from them.
    fn admits(&mut self, g: &ExecutionGraph, events: &[EventId]) -> bool {
        fast::note(false);
        let atomic = events.iter().all(|&e| match &g.event(e).kind {
            EventKind::Write { loc, rmw, .. } => {
                let mo = g.mo(*loc);
                atomic_at(g, mo, e, *rmw, mo_pos(mo, e))
            }
            _ => true,
        });
        let orders = self.orders;
        atomic && orders.iter().all(|&order| self.acyclic_from(g, events, order))
    }

    /// Is no cycle of `order` reachable from `roots`?
    fn acyclic_from(&mut self, g: &ExecutionGraph, roots: &[EventId], order: Order) -> bool {
        let OrderChecker { base, colour, stack, .. } = self;
        base.clear();
        let mut n = 0;
        for t in 0..g.num_threads() {
            base.push(n);
            n += g.thread_len(t as ThreadId);
        }
        let slot = |e: EventId| match e {
            EventId::Event { thread, index } => base[thread as usize] + index as usize,
            EventId::Init(_) => unreachable!("no edge points at an init write"),
        };
        colour.clear();
        colour.resize(n, WHITE);
        stack.clear();
        for &root in roots {
            stack.push((root, false));
            while let Some((e, leave)) = stack.pop() {
                if leave {
                    colour[slot(e)] = BLACK;
                    continue;
                }
                if colour[slot(e)] != WHITE {
                    continue;
                }
                colour[slot(e)] = GREY;
                stack.push((e, true));
                let first = stack.len();
                successors(g, e, order, stack);
                if stack[first..].iter().any(|&(s, _)| colour[slot(s)] == GREY) {
                    return false;
                }
            }
        }
        true
    }
}

/// Push the `order`-successors of `e` that generate the order: the next
/// event(s) in program order, the `mo`-successor and the readers of a
/// write, the write right after a read's source (`fr`; later ones follow
/// by `mo`). Init writes have no predecessor and never show up.
fn successors(g: &ExecutionGraph, e: EventId, order: Order, out: &mut Vec<(EventId, bool)>) {
    let EventId::Event { thread: t, index } = e else {
        unreachable!("no edge points at an init write")
    };
    let evs = g.thread_events(t);
    let i = index as usize;
    let mut push = |id: EventId| out.push((id, false));
    match order {
        Order::Sc => {
            if i + 1 < evs.len() {
                push(EventId::new(t, index + 1));
            }
        }
        Order::Tso => ppo_successors(evs, t, i, &mut push),
        Order::PerLoc => {
            let next = evs[i]
                .kind
                .loc()
                .and_then(|loc| (i + 1..evs.len()).find(|&j| evs[j].kind.loc() == Some(loc)));
            if let Some(j) = next {
                push(EventId::new(t, j as u32));
            }
        }
    }
    let after = |loc, w| {
        let mo = g.mo(loc);
        mo_pos(mo, w).and_then(|p| mo.get(p as usize)).copied()
    };
    match &evs[i].kind {
        EventKind::Write { loc, .. } => {
            if let Some(next) = after(*loc, e) {
                push(next);
            }
            for (r, rf) in g.reads_of(*loc) {
                if rf == RfSource::Write(e) && (order != Order::Tso || r.thread() != Some(t)) {
                    push(r);
                }
            }
        }
        EventKind::Read { loc, rf: RfSource::Write(w), .. } => {
            if let Some(next) = after(*loc, *w) {
                push(next);
            }
        }
        _ => {}
    }
}

/// TSO's preserved program order out of `evs[i]`, enough of it to generate
/// the rest. `ppo` is `po` without the pairs a store buffer reorders — a
/// plain write and a later plain read with neither an SC fence nor a locked
/// RMW between them — and without any pair that has a non-SC fence at
/// either end (x86 has no such instruction: the fence is not an event of
/// the order).
///
/// A plain write skips the plain reads that follow it and stops at the
/// first event it is ordered with: whatever comes later and is ordered
/// with the write is ordered with that event too. Every other event is
/// ordered with all that follows and stops at the first event that is as
/// well, i.e. the first one that is not a plain write.
fn ppo_successors(evs: &[Event], t: ThreadId, i: usize, push: &mut impl FnMut(EventId)) {
    let plain_write = |k: &EventKind| matches!(k, EventKind::Write { rmw: false, .. });
    let plain_read = |k: &EventKind| matches!(k, EventKind::Read { rmw: false, .. });
    let unordered = |k: &EventKind| matches!(k, EventKind::Fence { mode } if !mode.is_sc());
    let from = &evs[i].kind;
    if unordered(from) {
        return;
    }
    for (j, ev) in evs.iter().enumerate().skip(i + 1) {
        let to = &ev.kind;
        if unordered(to) || (plain_write(from) && plain_read(to)) {
            continue;
        }
        push(EventId::new(t, j as u32));
        if plain_write(from) || !plain_write(to) {
            break;
        }
    }
}

impl ChainChecker for OrderChecker {
    /// The search of [`ChainChecker::push`], started from every event.
    fn reset(&mut self, g: &ExecutionGraph) -> bool {
        let all: Vec<EventId> = g.events().map(|(id, _)| id).collect();
        self.admits(g, &all)
    }

    /// Answers for all of `g` that the newest event of `thread` reaches,
    /// events the caller has yet to push included.
    fn push(&mut self, g: &ExecutionGraph, thread: ThreadId) -> bool {
        let last = g.thread_len(thread).checked_sub(1).expect("push on a thread without events");
        self.admits(g, &[EventId::new(thread, last as u32)])
    }

    fn push_accepted(&mut self, _g: &ExecutionGraph, _thread: ThreadId) {}

    fn pop(&mut self, _thread: ThreadId) {}

    fn fork(&self, _lens: &[u32]) -> Fork {
        Fork::default()
    }

    fn adopt(&mut self, _fork: &Fork) {}
}
