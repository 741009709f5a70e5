//! Canonical encoding and strong hashing of execution graphs.
//!
//! The explorer deduplicates work items by graph *content* (events, rf, mo
//! — not exploration timestamps): two work items with the same content have
//! identical futures under the deterministic scheduler, so one can be
//! dropped. This module alone decides what "same content" means — for the
//! search engine, `canonical_hash_modulo`, the benchmark probe and the tests:
//!
//! * **One serializer**, `encode`, writes a [`GraphView`] — a graph, or the
//!   restriction-plus-rf-override a revisit *would* produce — as a
//!   canonical byte string, optionally with its threads relabeled.
//! * **One canonical form**: modulo a [`ThreadPartition`], the
//!   lexicographic minimum over the partition's relabelings
//!   ([`Canonicalizer`]); the relabeling attaining it names the orbit's
//!   representative, the same one for every caller. Under a non-trivial
//!   partition the hash is [`hash128`] of those bytes.
//! * **One carried hash** where no relabeling applies: the graph keeps
//!   each thread's running hash state per event, and a view's hash
//!   ([`content_hash`], [`Canonicalizer::hash_view`] without relabelings)
//!   combines the states at the cut with the kept mo lists — nothing is
//!   serialized. It tells views apart exactly where their bytes do.
//! * **Derived read flags are never encoded.** A read's `rmw` / `awaiting`
//!   flags are functions of the program, the event structure and the rf
//!   edge (replay recomputes them), so among the executions of one program
//!   omitting them loses nothing — and a revisit's view, whose re-pointed
//!   read still carries its old source's flags, encodes like the repaired
//!   child.
//!
//! Hashing is a 128-bit two-lane multiply-rotate hash ([`hash128`])
//! absorbing 8 bytes per step; at lock-verification scale (well under 2^40
//! graphs) collisions are negligible.

use std::collections::BTreeMap;

use crate::event::{EventId, EventKind, Loc, RfSource, ThreadId, Value};
use crate::graph::ExecutionGraph;
use crate::symmetry::{ThreadPartition, MAX_SYMMETRY_PERMUTATIONS};

/// SplitMix64's finalizer: full-avalanche 64-bit mix.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// The two multiply-rotate lanes of [`Hash128`], absorbing one `u64` per
/// step. Each lane has its own odd constant, so the full state stays on
/// the dependency chain. A graph keeps one running `Lanes` per event of
/// each thread ([`Lanes::event`]), which is what makes a view's hash a
/// lookup ([`view_hash`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Lanes {
    a: u64,
    b: u64,
}

impl Lanes {
    /// The state before anything was absorbed.
    pub(crate) const SEED: Lanes = Lanes { a: 0x243f6a8885a308d3, b: 0x13198a2e03707344 };

    #[inline]
    fn word(&mut self, v: u64) {
        self.a = (self.a ^ v).wrapping_mul(0x9e3779b97f4a7c15).rotate_left(31);
        self.b = (self.b ^ v).wrapping_mul(0xc2b2ae3d27d4eb4f).rotate_left(29);
    }

    /// The state after absorbing one event's flag-free content — for a
    /// read, with its source re-pointed to `rf_override` if given. The
    /// first word tags the kind and packs its small fields, so the word
    /// sequence of an event list determines the list.
    #[must_use]
    pub(crate) fn event(mut self, kind: &EventKind, rf_override: Option<EventId>) -> Lanes {
        match kind {
            EventKind::Read { loc, mode, rf, .. } => {
                let rf = rf_override.map_or(*rf, RfSource::Write);
                let (src_tag, src) = match rf {
                    RfSource::Bottom => (0, 0),
                    RfSource::Write(EventId::Init(l)) => (1, l),
                    RfSource::Write(w @ EventId::Event { .. }) => (2, id_word(w)),
                };
                self.word(1 | u64::from(mode.tag()) << 8 | src_tag << 16);
                self.word(*loc);
                self.word(src);
            }
            EventKind::Write { loc, val, mode, rmw } => {
                self.word(2 | u64::from(mode.tag()) << 8 | u64::from(*rmw) << 16);
                self.word(*loc);
                self.word(*val);
            }
            EventKind::Fence { mode } => self.word(3 | u64::from(mode.tag()) << 8),
            EventKind::Error { msg } => {
                self.word(4 | (msg.len() as u64) << 8);
                for c in msg.as_bytes().chunks(8) {
                    let mut w = [0u8; 8];
                    w[..c.len()].copy_from_slice(c);
                    self.word(u64::from_le_bytes(w));
                }
            }
        }
        self
    }
}

/// A regular event id as one word: `thread + 1` in the low half, so no id
/// has a zero low half ([`view_hash`] separates locations with `0`).
#[inline]
fn id_word(id: EventId) -> u64 {
    match id {
        EventId::Event { thread, index } => (u64::from(thread) + 1) | u64::from(index) << 32,
        EventId::Init(_) => unreachable!("init events are encoded by location"),
    }
}

/// Streaming two-lane 128-bit hash: [`Lanes`] plus the total length; the
/// finalizer cross-mixes the lanes and the length through [`mix64`] for
/// avalanche.
///
/// The input is a byte stream cut into little-endian words, however it
/// arrives: a field of up to eight bytes ([`Hash128::put`]) or an 8-byte
/// chunk of a slice ([`Hash128::bytes`]) is shifted into the pending word
/// at once instead of byte by byte, so the hash of a stream does not
/// depend on how it was split into calls.
struct Hash128 {
    lanes: Lanes,
    len: u64,
    /// Pending bytes not yet forming a full word (little-endian).
    buf: u64,
    buf_len: u32,
}

impl Hash128 {
    fn new() -> Self {
        Hash128 { lanes: Lanes::SEED, len: 0, buf: 0, buf_len: 0 }
    }

    #[inline]
    fn word(&mut self, v: u64) {
        self.lanes.word(v);
        self.len = self.len.wrapping_add(8);
    }

    fn finish(mut self) -> u128 {
        if self.buf_len > 0 {
            let n = self.buf_len as u64;
            self.word(self.buf);
            self.len = self.len.wrapping_sub(8 - n); // count real bytes only
        }
        let x = mix64(self.lanes.a ^ mix64(self.len));
        let y = mix64(self.lanes.b.wrapping_add(x));
        ((x as u128) << 64) | y as u128
    }

    /// Append the `n` (1..=8) little-endian bytes of `v`, whose higher
    /// bytes must be zero.
    #[inline]
    fn put(&mut self, v: u64, n: u32) {
        let k = self.buf_len;
        self.buf |= v << (8 * k);
        if k + n < 8 {
            self.buf_len = k + n;
            return;
        }
        self.word(self.buf);
        // What did not fit: the top `k + n - 8` bytes of `v`.
        self.buf = if k == 0 { 0 } else { v >> (8 * (8 - k)) };
        self.buf_len = k + n - 8;
    }

    fn bytes(&mut self, bs: &[u8]) {
        let mut chunks = bs.chunks_exact(8);
        for c in &mut chunks {
            self.put(u64::from_le_bytes(c.try_into().expect("8-byte chunk")), 8);
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.put(u64::from_le_bytes(w), rest.len() as u32);
        }
    }
}

/// Hash a byte string with the two-lane word-at-a-time 128-bit hash
/// (zero-padded tail word, length folded in at the end).
pub fn hash128(bytes: &[u8]) -> u128 {
    let mut h = Hash128::new();
    h.bytes(bytes);
    h.finish()
}

/// The digest of an init table that [`view_hash`] starts from; a graph
/// computes it once, when it is created.
pub(crate) fn init_digest(init: &BTreeMap<Loc, Value>) -> u128 {
    let mut h = Hash128::new();
    for (&loc, &val) in init {
        h.word(loc);
        h.word(val);
    }
    h.finish()
}

/// A filtered view of a graph: what the encoder serializes, and the
/// revisit engine's hash-before-materialize probe target.
///
/// Describes the graph that *would* result from restricting `g` to
/// per-thread program-order prefixes (`keep_lens`; `None` keeps
/// everything) and re-pointing at most one read's reads-from edge
/// (`rf_override`), without building that graph. It encodes like the
/// materialized result — before and after a replay repairs that result's
/// derived read flags, which no encoding includes (module docs).
#[derive(Debug, Clone, Copy)]
pub struct GraphView<'a> {
    g: &'a ExecutionGraph,
    keep_lens: Option<&'a [u32]>,
    rf_override: Option<(EventId, EventId)>,
}

impl<'a> GraphView<'a> {
    /// View the whole graph as-is.
    #[must_use]
    pub fn full(g: &'a ExecutionGraph) -> Self {
        GraphView { g, keep_lens: None, rf_override: None }
    }

    /// View the whole graph with `read`'s source re-pointed to `write`
    /// (the shape of a blocked-await resolution revisit).
    #[must_use]
    pub fn with_rf(g: &'a ExecutionGraph, read: EventId, write: EventId) -> Self {
        GraphView { g, keep_lens: None, rf_override: Some((read, write)) }
    }

    /// View the restriction of `g` to the per-thread prefixes `keep_lens`
    /// (as from [`ExecutionGraph::porf_join`]: a porf-closed part), with
    /// `read`'s source re-pointed to `write` (the shape of a backward
    /// revisit). Both `read` and `write` must survive the cut.
    #[must_use]
    pub fn restricted(
        g: &'a ExecutionGraph,
        keep_lens: &'a [u32],
        read: EventId,
        write: EventId,
    ) -> Self {
        GraphView { g, keep_lens: Some(keep_lens), rf_override: Some((read, write)) }
    }

    /// How many of thread `t`'s events the view keeps.
    fn cut(&self, t: ThreadId) -> usize {
        let len = self.g.thread_len(t);
        self.keep_lens.map_or(len, |lens| (lens[t as usize] as usize).min(len))
    }

    fn kept(&self, id: EventId) -> bool {
        match (self.keep_lens, id) {
            (Some(lens), EventId::Event { thread, index }) => index < lens[thread as usize],
            _ => true,
        }
    }
}

/// A thread relabeling `fwd[original] = new label` with its inverse.
type Relabeling = (Vec<ThreadId>, Vec<ThreadId>);

/// Append the `n` (1..=8) low little-endian bytes of `v`.
#[inline]
fn put(out: &mut Vec<u8>, v: u64, n: u32) {
    out.extend_from_slice(&v.to_le_bytes()[..n as usize]);
}

/// The serializer: the init table, each thread's events in program order
/// with their reads-from sources, each location's modification order — as
/// if the threads were relabeled by `perm` (`None` = as-is): thread blocks
/// appear in new-label order and every embedded [`EventId`] has its thread
/// rewritten. Timestamps (the exploration path, not the execution) and the
/// derived read flags (module docs) are left out.
fn encode(v: &GraphView<'_>, perm: Option<&Relabeling>, out: &mut Vec<u8>) {
    let g = v.g;
    // An event id: tag 0 + location, or tag 1 + thread (4 bytes) + index
    // (4 bytes).
    let put_id = |out: &mut Vec<u8>, id: EventId| match id {
        EventId::Init(loc) => {
            put(out, 0, 1);
            put(out, loc, 8);
        }
        EventId::Event { thread, index } => {
            let thread = perm.map_or(thread, |(fwd, _)| fwd[thread as usize]);
            put(out, 1, 1);
            put(out, u64::from(thread) | u64::from(index) << 32, 8);
        }
    };
    for (&loc, &val) in g.init_table() {
        put(out, loc, 8);
        put(out, val, 8);
    }
    put(out, 0xfe, 1);
    for t in 0..g.num_threads() as ThreadId {
        put(out, 0xfd, 1);
        let source = perm.map_or(t, |(_, inv)| inv[t as usize]);
        let evs = g.thread_events(source);
        for (i, ev) in evs[..v.cut(source)].iter().enumerate() {
            match &ev.kind {
                EventKind::Read { loc, mode, rf, .. } => {
                    let id = EventId::new(source, i as u32);
                    let rf = match v.rf_override {
                        Some((read, write)) if read == id => RfSource::Write(write),
                        _ => *rf,
                    };
                    put(out, 1, 1);
                    put(out, *loc, 8);
                    // Mode tag, then 0 for `⊥` or 1 and the source.
                    let mode = u64::from(mode.tag());
                    match rf {
                        RfSource::Bottom => put(out, mode, 2),
                        RfSource::Write(w) => {
                            put(out, mode | 1 << 8, 2);
                            put_id(out, w);
                        }
                    }
                }
                EventKind::Write { loc, val, mode, rmw } => {
                    put(out, 2, 1);
                    put(out, *loc, 8);
                    put(out, *val, 8);
                    put(out, u64::from(mode.tag()) | u64::from(*rmw) << 8, 2);
                }
                EventKind::Fence { mode } => put(out, 3 | u64::from(mode.tag()) << 8, 2),
                EventKind::Error { msg } => {
                    put(out, 4, 1);
                    put(out, msg.len() as u64, 8);
                    out.extend_from_slice(msg.as_bytes());
                }
            }
        }
    }
    put(out, 0xfc, 1);
    for (loc, ws) in g.mo_lists() {
        let mut any = false;
        for &w in ws {
            if !v.kept(w) {
                continue;
            }
            if !any {
                put(out, loc, 8);
                any = true;
            }
            put_id(out, w);
        }
        // A location whose every write is cut vanishes, as it does in
        // `ExecutionGraph::restrict`: a view encodes like its result.
        if any {
            put(out, 0xfb, 1);
        }
    }
}

/// The content hash of a view, combined from what its graph carries
/// instead of serialized: the init table's digest; per thread, in thread
/// order, the cut length and the thread's hash state at the cut, with the
/// re-pointed read folded in; then each location's kept mo list, closed by
/// a `0` word. Two views hash equally exactly when their
/// [`canonical_bytes`] are equal (up to 128-bit collisions).
///
/// `O(threads + writes)` when the re-pointed read is the last kept event
/// of its thread, as in every view the engine builds; otherwise the kept
/// events after it are absorbed again.
fn view_hash(v: &GraphView<'_>) -> u128 {
    let g = v.g;
    let mut h = Hash128::new();
    let init = g.init_digest();
    h.word(init as u64);
    h.word((init >> 64) as u64);
    for t in 0..g.num_threads() as ThreadId {
        let cut = v.cut(t);
        let lanes = match v.rf_override {
            Some((EventId::Event { thread, index }, w))
                if thread == t && (index as usize) < cut =>
            {
                let (i, evs) = (index as usize, g.thread_events(t));
                let at_read = g.thread_hash(t, i).event(&evs[i].kind, Some(w));
                evs[i + 1..cut].iter().fold(at_read, |s, ev| s.event(&ev.kind, None))
            }
            _ => g.thread_hash(t, cut),
        };
        h.word(cut as u64);
        h.word(lanes.a);
        h.word(lanes.b);
    }
    for (loc, ws) in g.mo_lists() {
        let mut any = false;
        for &w in ws.iter().filter(|&&w| v.kept(w)) {
            if !any {
                h.word(loc);
                any = true;
            }
            h.word(id_word(w));
        }
        // As in `encode`: a location whose every write is cut vanishes.
        if any {
            h.word(0);
        }
    }
    h.finish()
}

/// Reusable canonicalization state: the non-identity thread relabelings a
/// [`ThreadPartition`] allows (none ⇒ plain content encoding), two scratch
/// buffers and a work counter. One per engine worker, one per test loop;
/// graphs of different programs with the same partition shape may share it.
#[derive(Debug)]
pub struct Canonicalizer {
    perms: Vec<Relabeling>,
    best: Vec<u8>,
    cur: Vec<u8>,
    /// Index into `perms` of the minimizing relabeling of the last
    /// [`Canonicalizer::canonicalize`] call (`None` = identity won).
    chosen: Option<usize>,
    /// Probe work since the last [`Canonicalizer::take_probes`]: each
    /// canonicalization or view hash counts `1 + |perms|`.
    probes: u64,
}

impl Canonicalizer {
    /// `None` (or a trivial partition) encodes views as-is, a partition
    /// encodes them modulo its thread relabelings. Partitions beyond
    /// [`MAX_SYMMETRY_PERMUTATIONS`] are split down to the cap first
    /// (sound: splitting only loses pruning power).
    #[must_use]
    pub fn new(partition: Option<&ThreadPartition>) -> Self {
        let perms = match partition {
            None => Vec::new(),
            Some(p) => p
                .clone()
                .limited(MAX_SYMMETRY_PERMUTATIONS)
                .permutations()
                .into_iter()
                .filter(|perm| perm.iter().enumerate().any(|(t, &l)| l != t as ThreadId))
                .map(|fwd| {
                    let mut inv = vec![0 as ThreadId; fwd.len()];
                    for (t, &l) in fwd.iter().enumerate() {
                        inv[l as usize] = t as ThreadId;
                    }
                    (fwd, inv)
                })
                .collect(),
        };
        Canonicalizer { perms, best: Vec::new(), cur: Vec::new(), chosen: None, probes: 0 }
    }

    /// The canonical encoding of `v` modulo the partition: the
    /// lexicographically smallest serialization over all allowed
    /// relabelings ([`Canonicalizer::chosen_perm`] reports which one won).
    /// The returned slice lives in the canonicalizer's scratch buffer.
    pub fn canonicalize(&mut self, v: &GraphView<'_>) -> &[u8] {
        // Swap-based double buffering: `best` holds the minimum so far.
        let (best, cur) = (&mut self.best, &mut self.cur);
        best.clear();
        encode(v, None, best);
        self.probes += 1 + self.perms.len() as u64;
        self.chosen = None;
        for (i, perm) in self.perms.iter().enumerate() {
            cur.clear();
            encode(v, Some(perm), cur);
            if cur.as_slice() < best.as_slice() {
                std::mem::swap(best, cur);
                self.chosen = Some(i);
            }
        }
        &self.best
    }

    /// The view's hash modulo the partition, plus whether a non-identity
    /// relabeling produced the canonical form (i.e. the view was *not*
    /// already its orbit's representative). With relabelings it is
    /// [`hash128`] of [`Canonicalizer::canonicalize`]; without, it is
    /// combined from the hash states the graph carries (`view_hash`) and
    /// nothing is encoded. Either way it counts `1 + |relabelings|` probes.
    pub fn hash_view(&mut self, v: &GraphView<'_>) -> (u128, bool) {
        if self.perms.is_empty() {
            self.probes += 1;
            self.chosen = None;
            return (view_hash(v), false);
        }
        let h = hash128(self.canonicalize(v));
        (h, self.chosen.is_some())
    }

    /// The relabeling (`perm[original] = new`) behind the last canonical
    /// form; `None` if the view already was its orbit's representative.
    #[must_use]
    pub fn chosen_perm(&self) -> Option<&[ThreadId]> {
        self.chosen.map(|i| self.perms[i].0.as_slice())
    }

    /// Drain the probe-work counter: `1 + |relabelings|` per view since
    /// the last call (the symmetry-dedup cost telemetry reports as
    /// `probes`).
    pub fn take_probes(&mut self) -> u64 {
        std::mem::take(&mut self.probes)
    }
}

/// Serialize the semantic content of a graph to a canonical byte string:
/// two executions of one program encode equally iff they have the same
/// events (in program order), reads-from edges and modification orders.
#[must_use]
pub fn canonical_bytes(g: &ExecutionGraph) -> Vec<u8> {
    let mut out = Vec::with_capacity(g.num_events() * 24 + 64);
    encode(&GraphView::full(g), None, &mut out);
    out
}

/// 128-bit content hash of a graph, combined from the per-thread hash
/// states the graph carries (`O(threads + writes)`, nothing serialized):
/// two graphs hash equally exactly when their [`canonical_bytes`] are
/// equal, up to 128-bit collisions.
#[must_use]
pub fn content_hash(g: &ExecutionGraph) -> u128 {
    view_hash(&GraphView::full(g))
}

/// The canonical encoding of `g` under permutations of symmetric threads:
/// graphs related by a relabeling the partition allows — and only those —
/// encode identically. With a trivial partition this is exactly
/// [`canonical_bytes`]. One-shot [`Canonicalizer::canonicalize`].
#[must_use]
pub fn canonical_bytes_modulo(g: &ExecutionGraph, partition: &ThreadPartition) -> Vec<u8> {
    Canonicalizer::new(Some(partition)).canonicalize(&GraphView::full(g)).to_vec()
}

/// [`hash128`] over [`canonical_bytes_modulo`]: the orbit-invariant
/// content hash the explorer's symmetry-aware dedup keys on.
#[must_use]
pub fn canonical_hash_modulo(g: &ExecutionGraph, partition: &ThreadPartition) -> u128 {
    Canonicalizer::new(Some(partition)).hash_view(&GraphView::full(g)).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, Mode, RfSource};
    use std::collections::BTreeMap;

    fn sample() -> ExecutionGraph {
        let mut g = ExecutionGraph::new(2, BTreeMap::new());
        let w = g.push_event(0, EventKind::Write { loc: 0x10, val: 1, mode: Mode::Rel, rmw: false });
        g.insert_mo(0x10, w, 0);
        g.push_event(
            1,
            EventKind::Read {
                loc: 0x10,
                mode: Mode::Acq,
                rf: RfSource::Write(w),
                rmw: false,
                awaiting: false,
            },
        );
        g
    }

    #[test]
    fn equal_content_equal_hash() {
        assert_eq!(content_hash(&sample()), content_hash(&sample()));
    }

    #[test]
    fn rf_change_changes_hash() {
        let g1 = sample();
        let mut g2 = sample();
        g2.set_rf(crate::event::EventId::new(1, 0), RfSource::Write(crate::event::EventId::Init(0x10)));
        assert_ne!(content_hash(&g1), content_hash(&g2));
    }

    #[test]
    fn timestamps_do_not_affect_hash() {
        let g1 = sample();
        let mut g2 = ExecutionGraph::new(2, BTreeMap::new());
        // Add in a different order => different timestamps, same content.
        g2.push_event(
            1,
            EventKind::Read {
                loc: 0x10,
                mode: Mode::Acq,
                rf: RfSource::Write(crate::event::EventId::new(0, 0)),
                rmw: false,
                awaiting: false,
            },
        );
        let w = g2.push_event(0, EventKind::Write { loc: 0x10, val: 1, mode: Mode::Rel, rmw: false });
        g2.insert_mo(0x10, w, 0);
        assert_eq!(content_hash(&g1), content_hash(&g2));
    }

    #[test]
    fn mo_order_affects_hash() {
        let mk = |swap: bool| {
            let mut g = ExecutionGraph::new(2, BTreeMap::new());
            let w0 = g.push_event(0, EventKind::Write { loc: 1, val: 1, mode: Mode::Rlx, rmw: false });
            let w1 = g.push_event(1, EventKind::Write { loc: 1, val: 2, mode: Mode::Rlx, rmw: false });
            if swap {
                g.insert_mo(1, w1, 0);
                g.insert_mo(1, w0, 1);
            } else {
                g.insert_mo(1, w0, 0);
                g.insert_mo(1, w1, 1);
            }
            g
        };
        assert_ne!(content_hash(&mk(false)), content_hash(&mk(true)));
    }

    /// `content_hash` is the plain canonicalizer's hash of the full view,
    /// and it tells graphs apart exactly where their bytes do.
    #[test]
    fn content_hash_is_the_full_view_hash() {
        let (a, b) = twin_pair();
        let graphs = [
            sample(),
            ExecutionGraph::new(0, BTreeMap::new()),
            ExecutionGraph::new(2, BTreeMap::new()),
            ExecutionGraph::new(2, BTreeMap::from([(0x10, 0)])),
            a,
            b,
        ];
        for g in &graphs {
            assert_eq!(content_hash(g), view_hash(&GraphView::full(g)));
            for h in &graphs {
                assert_eq!(
                    content_hash(g) == content_hash(h),
                    canonical_bytes(g) == canonical_bytes(h)
                );
            }
        }
    }

    /// Two threads with mirrored roles: T0 writes 1, T1 writes 2 (same
    /// loc, both in mo), plus a swapped twin. Symmetric under {0,1}.
    fn twin_pair() -> (ExecutionGraph, ExecutionGraph) {
        let mk = |first: u32| {
            let mut g = ExecutionGraph::new(2, BTreeMap::new());
            let w0 = g.push_event(first, EventKind::Write { loc: 1, val: 1, mode: Mode::Rlx, rmw: false });
            let w1 =
                g.push_event(1 - first, EventKind::Write { loc: 1, val: 2, mode: Mode::Rlx, rmw: false });
            g.insert_mo(1, w0, 0);
            g.insert_mo(1, w1, 1);
            g
        };
        (mk(0), mk(1))
    }

    #[test]
    fn modulo_trivial_partition_is_plain_canonical_bytes() {
        let g = sample();
        let p = crate::ThreadPartition::identity(2);
        assert_eq!(canonical_bytes_modulo(&g, &p), canonical_bytes(&g));
        assert_eq!(canonical_hash_modulo(&g, &p), content_hash(&g));
    }

    #[test]
    fn symmetric_twins_share_canonical_form_iff_partitioned() {
        let (a, b) = twin_pair();
        assert_ne!(content_hash(&a), content_hash(&b), "twins differ as content");
        let sym = crate::ThreadPartition::from_class_ids(&[0, 0]);
        assert_eq!(canonical_bytes_modulo(&a, &sym), canonical_bytes_modulo(&b, &sym));
        assert_eq!(canonical_hash_modulo(&a, &sym), canonical_hash_modulo(&b, &sym));
        // A trivial partition must never merge them.
        let triv = crate::ThreadPartition::identity(2);
        assert_ne!(canonical_hash_modulo(&a, &triv), canonical_hash_modulo(&b, &triv));
    }

    #[test]
    fn canonicalizer_reports_the_winning_relabeling() {
        let (a, b) = twin_pair();
        let sym = crate::ThreadPartition::from_class_ids(&[0, 0]);
        let mut c = Canonicalizer::new(Some(&sym));
        let (ha, a_permuted) = c.hash_view(&GraphView::full(&a));
        let (hb, b_permuted) = c.hash_view(&GraphView::full(&b));
        assert_eq!(ha, hb);
        // Exactly one of the twins is the representative.
        assert_ne!(a_permuted, b_permuted);
        let loser = if a_permuted { &a } else { &b };
        let mut c2 = Canonicalizer::new(Some(&sym));
        let _ = c2.hash_view(&GraphView::full(loser));
        let perm = c2.chosen_perm().expect("non-identity relabeling chosen").to_vec();
        // Applying the winning relabeling lands on the representative.
        let canon = loser.permute_threads(&perm);
        let (hc, again) = c2.hash_view(&GraphView::full(&canon));
        assert!(!again, "the representative canonicalizes to itself");
        assert_eq!(hc, ha);
        assert!(c2.chosen_perm().is_none());
        assert_eq!(canonical_hash_modulo(&canon, &sym), ha);
        assert_eq!(canonical_bytes_modulo(loser, &sym), canonical_bytes(&canon));
        assert_eq!(c2.take_probes(), 4, "two canonicalizations, identity + one swap each");
    }

    #[test]
    fn asymmetric_content_never_merges_even_when_partitioned() {
        // Same shape but different values: relabeling cannot equate them.
        let mk = |val| {
            let mut g = ExecutionGraph::new(2, BTreeMap::new());
            let w = g.push_event(0, EventKind::Write { loc: 1, val, mode: Mode::Rlx, rmw: false });
            g.insert_mo(1, w, 0);
            g
        };
        let sym = crate::ThreadPartition::from_class_ids(&[0, 0]);
        assert_ne!(canonical_hash_modulo(&mk(1), &sym), canonical_hash_modulo(&mk(2), &sym));
    }

    fn view_hash(v: &GraphView<'_>) -> u128 {
        Canonicalizer::new(None).hash_view(v).0
    }

    #[test]
    fn view_hash_is_flag_blind_but_rf_sensitive() {
        let mk = |rmw: bool, awaiting: bool| {
            let mut g = ExecutionGraph::new(2, BTreeMap::new());
            let w = g.push_event(0, EventKind::Write { loc: 0x10, val: 1, mode: Mode::Rel, rmw: false });
            g.insert_mo(0x10, w, 0);
            g.push_event(
                1,
                EventKind::Read { loc: 0x10, mode: Mode::Acq, rf: RfSource::Write(w), rmw, awaiting },
            );
            g
        };
        let (plain, stale) = (mk(false, false), mk(true, true));
        // Stale and repaired flags hash alike, under `content_hash` too:
        // there is one encoding and it never includes them…
        assert_eq!(content_hash(&plain), content_hash(&stale));
        assert_eq!(canonical_bytes(&plain), canonical_bytes(&stale));
        assert_eq!(view_hash(&GraphView::full(&plain)), view_hash(&GraphView::full(&stale)));
        // …while genuinely different rf edges stay apart.
        let mut other = mk(false, false);
        other.set_rf(EventId::new(1, 0), RfSource::Write(EventId::Init(0x10)));
        assert_ne!(view_hash(&GraphView::full(&plain)), view_hash(&GraphView::full(&other)));
        assert_eq!(
            view_hash(&GraphView::with_rf(&other, EventId::new(1, 0), EventId::new(0, 0))),
            view_hash(&GraphView::full(&plain)),
            "an rf override hashes like the graph with that edge applied"
        );
    }

    #[test]
    fn restricted_view_hash_matches_materialized_restriction() {
        // T0: W(x,1) W(x,2); T1: R(x)<-W(x,2) W(y,1); T1's read gets
        // revisited to W(x,1) with T0 cut to [W(x,1)] and T1 cut to [R].
        let mut g = ExecutionGraph::new(2, BTreeMap::new());
        let w1 = g.push_event(0, EventKind::Write { loc: 0x10, val: 1, mode: Mode::Rlx, rmw: false });
        g.insert_mo(0x10, w1, 0);
        let w2 = g.push_event(0, EventKind::Write { loc: 0x10, val: 2, mode: Mode::Rlx, rmw: false });
        g.insert_mo(0x10, w2, 1);
        let r = g.push_event(
            1,
            EventKind::Read { loc: 0x10, mode: Mode::Rlx, rf: RfSource::Write(w2), rmw: true, awaiting: false },
        );
        let wy = g.push_event(1, EventKind::Write { loc: 0x20, val: 1, mode: Mode::Rlx, rmw: false });
        g.insert_mo(0x20, wy, 0);

        // The engine's keep set: porf-prefix of the write ∪ porf-prefix of
        // the read (which always contains the read's old source).
        let keep_lens = g.porf_join([w1, r]);
        assert_eq!(keep_lens, vec![2, 1], "wy is cut, both x-writes survive");
        let view = GraphView::restricted(&g, &keep_lens, r, w1);
        // Materialize the same child the long way.
        let mut child = g.restrict(&keep_lens);
        child.set_rf(r, RfSource::Write(w1));
        assert_eq!(view_hash(&view), view_hash(&GraphView::full(&child)));
        // 0x20 lost its only write: the child must not encode a stale
        // empty mo entry for it.
        assert_eq!(child.written_locs().count(), 1);
        // Repairing the revisited read's stale rmw flag must not move the
        // hash — that is the whole point of flag-blindness.
        child.set_read_flags(r, false, false);
        assert_eq!(view_hash(&view), view_hash(&GraphView::full(&child)));
    }

    /// The stream is cut into words the same way however the sink is fed:
    /// byte by byte, in one slice, or in slices straddling word borders.
    #[test]
    fn hash_does_not_depend_on_how_the_stream_is_split() {
        let data: Vec<u8> = (0..53u8).map(|i| i.wrapping_mul(37) ^ 0x5a).collect();
        for n in 0..data.len() {
            let whole = hash128(&data[..n]);
            let mut bytewise = Hash128::new();
            for &b in &data[..n] {
                bytewise.put(u64::from(b), 1);
            }
            assert_eq!(bytewise.finish(), whole, "{n} bytes one at a time");
            for cut in [1, 3, 7, 8, 9] {
                let mut split = Hash128::new();
                for part in data[..n].chunks(cut) {
                    split.bytes(part);
                }
                assert_eq!(split.finish(), whole, "{n} bytes in slices of {cut}");
            }
        }
    }

    /// Golden values, taken with the byte-at-a-time absorber this one
    /// replaced: the word-at-a-time path computes the same function.
    #[test]
    fn hash128_is_stable() {
        let data: Vec<u8> = (0..53u8).map(|i| i.wrapping_mul(37) ^ 0x5a).collect();
        for (n, golden) in [
            (0, 0xe9e0033e3badaf362980f7175e0bf63e),
            (1, 0x5a282c657d59d7196a3f3e0e0aaed07b),
            (8, 0x57cc01f503135bed247bf95a3939d755),
            (13, 0xfbb577b67a4715047febc20eb20d4a75),
            (53, 0x742ab82216d02ab2af149525cbbd3874),
        ] {
            assert_eq!(hash128(&data[..n]), golden, "{n} bytes");
        }
    }

    /// Golden encoding of a graph with every event kind, an init value,
    /// a `⊥` read and an init source — the bytes of the byte-at-a-time
    /// serializer the field-at-a-time one replaced.
    #[test]
    fn encoding_is_stable() {
        let mut g = ExecutionGraph::new(2, BTreeMap::from([(0x20, 5)]));
        let w = g.push_event(0, EventKind::Write { loc: 0x10, val: 1, mode: Mode::Rel, rmw: false });
        g.insert_mo(0x10, w, 0);
        g.push_event(0, EventKind::Fence { mode: Mode::Sc });
        let rf = RfSource::Write(w);
        g.push_event(1, EventKind::Read { loc: 0x10, mode: Mode::Acq, rf, rmw: true, awaiting: false });
        let w2 = g.push_event(1, EventKind::Write { loc: 0x10, val: 2, mode: Mode::AcqRel, rmw: true });
        g.insert_mo(0x10, w2, 1);
        let rf = RfSource::Write(EventId::Init(0x20));
        g.push_event(1, EventKind::Read { loc: 0x20, mode: Mode::Rlx, rf, rmw: false, awaiting: false });
        let rf = RfSource::Bottom;
        g.push_event(0, EventKind::Read { loc: 0x20, mode: Mode::Rlx, rf, rmw: false, awaiting: true });
        g.push_event(1, EventKind::Error { msg: "boom".into() });
        let golden: Vec<u8> = "20 00 00 00 00 00 00 00 05 00 00 00 00 00 00 00 fe fd 02 10 00 00 00 00 00 00 00 01 00 00 00 00 00 00 00 02 00 03 04 01 20 00 00 00 00 00 00 00 00 00 fd 01 10 00 00 00 00 00 00 00 01 01 01 00 00 00 00 00 00 00 00 02 10 00 00 00 00 00 00 00 02 00 00 00 00 00 00 00 03 01 01 20 00 00 00 00 00 00 00 00 01 00 20 00 00 00 00 00 00 00 04 04 00 00 00 00 00 00 00 62 6f 6f 6d fc 10 00 00 00 00 00 00 00 01 00 00 00 00 00 00 00 00 01 01 00 00 00 01 00 00 00 fb"
            .split(' ')
            .map(|b| u8::from_str_radix(b, 16).unwrap())
            .collect();
        assert_eq!(canonical_bytes(&g), golden);
        assert_eq!(content_hash(&g), 0x812c72aadc04918bfcb59799eb4b76f6);
    }

    #[test]
    fn hash128_separates_close_inputs() {
        assert_ne!(hash128(b""), hash128(b"\0"));
        assert_ne!(hash128(b"\0"), hash128(b"\0\0"));
        assert_ne!(hash128(b"abcdefgh"), hash128(b"abcdefg"));
        assert_ne!(hash128(b"abcdefghi"), hash128(b"abcdefgh\0"));
        // Word-boundary-aligned swaps must differ.
        assert_ne!(hash128(b"aaaaaaaabbbbbbbb"), hash128(b"bbbbbbbbaaaaaaaa"));
    }
}
