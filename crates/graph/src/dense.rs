//! Dense event indexing and bit-matrix relations.
//!
//! Memory-model axioms are phrased as (a)cyclicity and irreflexivity
//! constraints over relations between events. For the small graphs AMC
//! explores (tens to a few hundred events) a dense bitset matrix is the
//! right substrate; the checker's hot path avoids Floyd–Warshall-style
//! `O(n³/64)` closures entirely:
//!
//! * [`Relation::is_acyclic`] runs an iterative DFS over the bitset rows
//!   (`O(n²/64)` words scanned, usually far less);
//! * [`Relation::close`] — the classic word-parallel Floyd–Warshall — and
//!   the rest of the relation algebra serve the axiom evaluator
//!   (`vsync_model::axioms`) that the differential tests compare against.

use crate::event::EventId;
use crate::graph::ExecutionGraph;

/// A bijection between the events of a graph (including virtual init
/// writes) and dense indices `0..len`.
///
/// Init events come first (in location order), then each thread's events in
/// program order.
#[derive(Debug, Clone)]
pub struct EventIndex {
    ids: Vec<EventId>,
    thread_base: Vec<usize>,
    init_count: usize,
    init_locs: Vec<u64>,
}

impl EventIndex {
    /// Build the index for a graph.
    pub fn new(g: &ExecutionGraph) -> Self {
        let mut ids = Vec::with_capacity(g.num_events() + 8);
        let mut init_locs: Vec<u64> = g.written_locs().collect();
        // Locations that are only read still have init writes worth indexing.
        for (_, loc, _) in g.reads() {
            if !init_locs.contains(&loc) {
                init_locs.push(loc);
            }
        }
        init_locs.sort_unstable();
        init_locs.dedup();
        for &loc in &init_locs {
            ids.push(EventId::Init(loc));
        }
        let init_count = ids.len();
        let mut thread_base = Vec::with_capacity(g.num_threads());
        for t in 0..g.num_threads() {
            thread_base.push(ids.len());
            for i in 0..g.thread_len(t as u32) {
                ids.push(EventId::new(t as u32, i as u32));
            }
        }
        EventIndex { ids, thread_base, init_count, init_locs }
    }

    /// Total number of indexed events.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Is the index empty?
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Number of init events (they occupy indices `0..init_count`).
    pub fn init_count(&self) -> usize {
        self.init_count
    }

    /// Dense index of an event id.
    ///
    /// # Panics
    ///
    /// Panics if the event is not part of the indexed graph.
    pub fn index_of(&self, id: EventId) -> usize {
        match id {
            EventId::Init(loc) => self
                .init_locs
                .binary_search(&loc)
                .unwrap_or_else(|_| panic!("init event {id} not indexed")),
            EventId::Event { thread, index } => self.thread_base[thread as usize] + index as usize,
        }
    }

    /// Event id of a dense index.
    pub fn id_of(&self, idx: usize) -> EventId {
        self.ids[idx]
    }

    /// Iterate over all (index, id) pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, EventId)> + '_ {
        self.ids.iter().copied().enumerate()
    }
}

/// Iterator over the set-bit positions of a single word.
struct BitIter(u64);

impl Iterator for BitIter {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let b = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(b)
    }
}

/// Iterate the set-bit positions of a bitset stored as little-endian words
/// (the row format of [`Relation`] and the per-location masks built on top
/// of it).
pub fn iter_set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words
        .iter()
        .enumerate()
        .flat_map(|(w, &word)| BitIter(word).map(move |b| w * 64 + b))
}

/// A binary relation over `n` events stored as a bitset matrix.
#[derive(Debug, Clone, Default)]
pub struct Relation {
    n: usize,
    words_per_row: usize,
    bits: Vec<u64>,
}

impl Relation {
    /// The empty relation over `n` events.
    pub fn new(n: usize) -> Self {
        let words_per_row = n.div_ceil(64);
        Relation { n, words_per_row, bits: vec![0; n * words_per_row] }
    }

    /// Empty the relation and re-size it to `n` events, keeping the
    /// allocation — for checkers that rebuild a relation per query.
    pub fn reset(&mut self, n: usize) {
        self.n = n;
        self.words_per_row = n.div_ceil(64);
        self.bits.clear();
        self.bits.resize(n * self.words_per_row, 0);
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Is the relation over an empty carrier?
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Add the edge `a -> b`.
    pub fn add(&mut self, a: usize, b: usize) {
        debug_assert!(a < self.n && b < self.n);
        self.bits[a * self.words_per_row + b / 64] |= 1u64 << (b % 64);
    }

    /// Does the edge `a -> b` exist?
    pub fn has(&self, a: usize, b: usize) -> bool {
        self.bits[a * self.words_per_row + b / 64] & (1u64 << (b % 64)) != 0
    }

    /// Union with another relation of the same size.
    pub fn union_with(&mut self, other: &Relation) {
        debug_assert_eq!(self.n, other.n);
        for (w, o) in self.bits.iter_mut().zip(&other.bits) {
            *w |= o;
        }
    }

    /// Intersect with another relation of the same size.
    pub fn intersect_with(&mut self, other: &Relation) {
        debug_assert_eq!(self.n, other.n);
        for (w, o) in self.bits.iter_mut().zip(&other.bits) {
            *w &= o;
        }
    }

    /// Remove every edge of another relation of the same size.
    pub fn subtract(&mut self, other: &Relation) {
        debug_assert_eq!(self.n, other.n);
        for (w, o) in self.bits.iter_mut().zip(&other.bits) {
            *w &= !o;
        }
    }

    /// The inverse relation: `b -> a` for every edge `a -> b`.
    pub fn transpose(&self) -> Relation {
        let mut out = Relation::new(self.n);
        for (a, b) in self.edges() {
            out.add(b, a);
        }
        out
    }

    /// Does the relation have no edge at all?
    pub fn has_no_edges(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// Replace `self` by its transitive closure.
    ///
    /// Word-parallel Floyd–Warshall: `O(n^2 * n/64)`.
    pub fn close(&mut self) {
        let wpr = self.words_per_row;
        for k in 0..self.n {
            let (kw, kb) = (k / 64, 1u64 << (k % 64));
            for i in 0..self.n {
                if i == k {
                    continue; // row_k |= row_k is a no-op
                }
                if self.bits[i * wpr + kw] & kb != 0 {
                    let (krow, irow) = if i < k {
                        let (a, b) = self.bits.split_at_mut(k * wpr);
                        (&b[..wpr], &mut a[i * wpr..i * wpr + wpr])
                    } else {
                        let (a, b) = self.bits.split_at_mut(i * wpr);
                        (&a[k * wpr..k * wpr + wpr], &mut b[..wpr])
                    };
                    for (iw, kw2) in irow.iter_mut().zip(krow) {
                        *iw |= kw2;
                    }
                }
            }
        }
    }

    /// Is the relation irreflexive (no `a -> a` edge)?
    pub fn is_irreflexive(&self) -> bool {
        (0..self.n).all(|i| !self.has(i, i))
    }

    /// The words of row `a` (successor bitset of event `a`).
    pub fn row(&self, a: usize) -> &[u64] {
        &self.bits[a * self.words_per_row..(a + 1) * self.words_per_row]
    }

    /// Iterate over the successors of `a` (set bits of its row).
    pub fn successors(&self, a: usize) -> impl Iterator<Item = usize> + '_ {
        iter_set_bits(self.row(a))
    }

    /// Is the relation acyclic? Iterative three-color DFS over the bitset
    /// rows — no transitive closure is computed.
    pub fn is_acyclic(&self) -> bool {
        // 0 = white, 1 = on stack (grey), 2 = done (black).
        let mut color = vec![0u8; self.n];
        // (node, next word index, remaining bits of current word).
        let mut stack: Vec<(usize, usize, u64)> = Vec::new();
        for root in 0..self.n {
            if color[root] != 0 {
                continue;
            }
            color[root] = 1;
            let first = self.row(root).first().copied().unwrap_or(0);
            stack.push((root, 0, first));
            while let Some(&mut (v, ref mut w, ref mut word)) = stack.last_mut() {
                if *word == 0 {
                    *w += 1;
                    if *w >= self.words_per_row {
                        color[v] = 2;
                        stack.pop();
                        continue;
                    }
                    *word = self.row(v)[*w];
                    continue;
                }
                let b = word.trailing_zeros() as usize;
                *word &= *word - 1;
                let u = *w * 64 + b;
                match color[u] {
                    0 => {
                        color[u] = 1;
                        let first = self.row(u).first().copied().unwrap_or(0);
                        stack.push((u, 0, first));
                    }
                    1 => return false, // back edge: cycle
                    _ => {}
                }
            }
        }
        true
    }

    /// Compose: `self ; other`, returning a new relation.
    pub fn compose(&self, other: &Relation) -> Relation {
        debug_assert_eq!(self.n, other.n);
        let mut out = Relation::new(self.n);
        let wpr = self.words_per_row;
        for a in 0..self.n {
            for w in 0..wpr {
                let mut word = self.bits[a * wpr + w];
                while word != 0 {
                    let b = w * 64 + word.trailing_zeros() as usize;
                    word &= word - 1;
                    for k in 0..wpr {
                        out.bits[a * wpr + k] |= other.bits[b * wpr + k];
                    }
                }
            }
        }
        out
    }

    /// Iterate over all edges `(a, b)`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n).flat_map(move |a| self.successors(a).map(move |b| (a, b)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, Mode, RfSource};
    use std::collections::BTreeMap;

    #[test]
    fn index_round_trips() {
        let mut g = ExecutionGraph::new(2, BTreeMap::new());
        let w = g.push_event(0, EventKind::Write { loc: 5, val: 1, mode: Mode::Rlx, rmw: false });
        g.insert_mo(5, w, 0);
        g.push_event(
            1,
            EventKind::Read { loc: 9, mode: Mode::Rlx, rf: RfSource::Write(EventId::Init(9)), rmw: false, awaiting: false },
        );
        let ix = EventIndex::new(&g);
        // init(5), init(9), T0.0, T1.0
        assert_eq!(ix.len(), 4);
        assert_eq!(ix.init_count(), 2);
        for (i, id) in ix.iter() {
            assert_eq!(ix.index_of(id), i);
            assert_eq!(ix.id_of(i), id);
        }
    }

    #[test]
    fn closure_and_acyclicity() {
        let mut r = Relation::new(4);
        r.add(0, 1);
        r.add(1, 2);
        assert!(r.is_acyclic());
        let mut c = r.clone();
        c.close();
        assert!(c.has(0, 2));
        assert!(!c.has(2, 0));
        r.add(2, 0);
        assert!(!r.is_acyclic());
    }

    #[test]
    fn closure_handles_long_chains() {
        let n = 130; // exercise multi-word rows
        let mut r = Relation::new(n);
        for i in 0..n - 1 {
            r.add(i, i + 1);
        }
        r.close();
        assert!(r.has(0, n - 1));
        assert!(r.is_irreflexive());
    }

    #[test]
    fn compose_chains_edges() {
        let mut a = Relation::new(3);
        a.add(0, 1);
        let mut b = Relation::new(3);
        b.add(1, 2);
        let c = a.compose(&b);
        assert!(c.has(0, 2));
        assert!(!c.has(0, 1));
        assert_eq!(c.edges().count(), 1);
    }

    #[test]
    fn self_loop_is_cycle() {
        let mut r = Relation::new(2);
        r.add(1, 1);
        assert!(!r.is_acyclic());
        assert!(!r.is_irreflexive());
    }

    #[test]
    fn intersection_difference_and_transpose() {
        let mut a = Relation::new(70);
        a.add(0, 1);
        a.add(2, 69);
        let mut b = Relation::new(70);
        b.add(2, 69);
        let mut both = a.clone();
        both.intersect_with(&b);
        assert_eq!(both.edges().collect::<Vec<_>>(), vec![(2, 69)]);
        a.subtract(&b);
        assert_eq!(a.edges().collect::<Vec<_>>(), vec![(0, 1)]);
        assert_eq!(a.transpose().edges().collect::<Vec<_>>(), vec![(1, 0)]);
        a.subtract(&a.clone());
        assert!(a.has_no_edges() && !b.has_no_edges());
    }

    #[test]
    fn union_merges() {
        let mut a = Relation::new(2);
        a.add(0, 1);
        let mut b = Relation::new(2);
        b.add(1, 0);
        a.union_with(&b);
        assert!(a.has(0, 1) && a.has(1, 0));
    }

    #[test]
    fn dfs_acyclicity_agrees_with_closure_on_random_relations() {
        // Deterministic xorshift sweep: the DFS fast path and the closure
        // reference must agree on every random relation.
        let mut state = 0x243f6a8885a308d3u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..200 {
            let n = 1 + (next() % 24) as usize;
            let mut r = Relation::new(n);
            let edges = next() % (2 * n as u64);
            for _ in 0..edges {
                r.add((next() % n as u64) as usize, (next() % n as u64) as usize);
            }
            let mut c = r.clone();
            c.close();
            let naive = c.is_irreflexive();
            assert_eq!(r.is_acyclic(), naive, "case {case} (n={n}) disagrees");
        }
    }

    #[test]
    fn successors_and_rows() {
        let mut r = Relation::new(130);
        r.add(0, 1);
        r.add(0, 129);
        assert_eq!(r.successors(0).collect::<Vec<_>>(), vec![1, 129]);
        assert_eq!(r.row(0).len(), 3);
    }
}
