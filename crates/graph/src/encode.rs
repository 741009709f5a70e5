//! Canonical encoding and strong hashing of execution graphs.
//!
//! The explorer deduplicates work items by graph *content* (events, rf, mo
//! — not exploration timestamps): two work items with the same content have
//! identical futures under the deterministic scheduler, so one can be
//! dropped. This module alone decides what "same content" means — for the
//! search engine, its reference oracle, the benchmark probe and the tests:
//!
//! * **One serializer**, `encode`, writes a [`GraphView`] — a graph, or the
//!   restriction-plus-rf-override a revisit *would* produce — as a
//!   canonical byte string, optionally with its threads relabeled.
//! * **Two sinks** receive that byte stream: a `Vec<u8>` where the bytes
//!   are needed (orbit minimization compares encodings), the streaming
//!   hash state where only the hash is. Hence
//!   `content_hash(g) == hash128(&canonical_bytes(g))`.
//! * **One canonical form**: modulo a [`ThreadPartition`], the
//!   lexicographic minimum over the partition's relabelings
//!   ([`Canonicalizer`]); the relabeling attaining it names the orbit's
//!   representative, the same one for every caller.
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

use crate::event::{EventId, EventKind, RfSource, ThreadId};
use crate::graph::ExecutionGraph;
use crate::symmetry::{ThreadPartition, MAX_SYMMETRY_PERMUTATIONS};

/// SplitMix64's finalizer: full-avalanche 64-bit mix.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Streaming two-lane 128-bit hash absorbing one `u64` per step. Each lane
/// is a multiply-rotate chain with its own odd constant, so the full state
/// stays on the dependency chain; the finalizer cross-mixes the lanes and
/// the total length through [`mix64`] for avalanche.
struct Hash128 {
    a: u64,
    b: u64,
    len: u64,
    /// Pending bytes not yet forming a full word (little-endian).
    buf: u64,
    buf_len: u32,
}

impl Hash128 {
    fn new() -> Self {
        Hash128 { a: 0x243f6a8885a308d3, b: 0x13198a2e03707344, len: 0, buf: 0, buf_len: 0 }
    }

    #[inline]
    fn word(&mut self, v: u64) {
        self.a = (self.a ^ v).wrapping_mul(0x9e3779b97f4a7c15).rotate_left(31);
        self.b = (self.b ^ v).wrapping_mul(0xc2b2ae3d27d4eb4f).rotate_left(29);
        self.len = self.len.wrapping_add(8);
    }

    #[inline]
    fn flush(&mut self) {
        if self.buf_len > 0 {
            let (v, n) = (self.buf, self.buf_len as u64);
            self.word(v);
            self.len = self.len.wrapping_sub(8 - n); // count real bytes only
            self.buf = 0;
            self.buf_len = 0;
        }
    }

    fn finish(mut self) -> u128 {
        self.flush();
        let x = mix64(self.a ^ mix64(self.len));
        let y = mix64(self.b.wrapping_add(x));
        ((x as u128) << 64) | y as u128
    }
}

/// Where `encode` writes: a byte buffer, or a hash state.
trait Sink {
    fn byte(&mut self, b: u8);
    fn bytes(&mut self, bs: &[u8]);
}

impl Sink for Vec<u8> {
    #[inline]
    fn byte(&mut self, b: u8) {
        self.push(b);
    }

    #[inline]
    fn bytes(&mut self, bs: &[u8]) {
        self.extend_from_slice(bs);
    }
}

impl Sink for Hash128 {
    #[inline]
    fn byte(&mut self, b: u8) {
        self.buf |= (b as u64) << (8 * self.buf_len);
        self.buf_len += 1;
        if self.buf_len == 8 {
            self.flush();
        }
    }

    #[inline]
    fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.byte(b);
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
    /// (as from [`crate::EventSet::prefix_lens`] of a porf-closed keep
    /// set), with `read`'s source re-pointed to `write` (the shape of a
    /// backward revisit). Both `read` and `write` must survive the cut.
    #[must_use]
    pub fn restricted(
        g: &'a ExecutionGraph,
        keep_lens: &'a [u32],
        read: EventId,
        write: EventId,
    ) -> Self {
        GraphView { g, keep_lens: Some(keep_lens), rf_override: Some((read, write)) }
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

/// The serializer: the init table, each thread's events in program order
/// with their reads-from sources, each location's modification order — as
/// if the threads were relabeled by `perm` (`None` = as-is): thread blocks
/// appear in new-label order and every embedded [`EventId`] has its thread
/// rewritten. Timestamps (the exploration path, not the execution) and the
/// derived read flags (module docs) are left out.
fn encode<S: Sink>(v: &GraphView<'_>, perm: Option<&Relabeling>, out: &mut S) {
    let g = v.g;
    let put_id = |out: &mut S, id: EventId| match id {
        EventId::Init(loc) => {
            out.byte(0);
            out.bytes(&loc.to_le_bytes());
        }
        EventId::Event { thread, index } => {
            let thread = perm.map_or(thread, |(fwd, _)| fwd[thread as usize]);
            out.byte(1);
            out.bytes(&thread.to_le_bytes());
            out.bytes(&index.to_le_bytes());
        }
    };
    for (&loc, &val) in g.init_table() {
        out.bytes(&loc.to_le_bytes());
        out.bytes(&val.to_le_bytes());
    }
    out.byte(0xfe);
    for t in 0..g.num_threads() as ThreadId {
        out.byte(0xfd);
        let source = perm.map_or(t, |(_, inv)| inv[t as usize]);
        let evs = g.thread_events(source);
        let cut = match v.keep_lens {
            Some(lens) => (lens[source as usize] as usize).min(evs.len()),
            None => evs.len(),
        };
        for (i, ev) in evs[..cut].iter().enumerate() {
            match &ev.kind {
                EventKind::Read { loc, mode, rf, .. } => {
                    let id = EventId::new(source, i as u32);
                    let rf = match v.rf_override {
                        Some((read, write)) if read == id => RfSource::Write(write),
                        _ => *rf,
                    };
                    out.byte(1);
                    out.bytes(&loc.to_le_bytes());
                    out.byte(mode.tag());
                    match rf {
                        RfSource::Bottom => out.byte(0),
                        RfSource::Write(w) => {
                            out.byte(1);
                            put_id(out, w);
                        }
                    }
                }
                EventKind::Write { loc, val, mode, rmw } => {
                    out.byte(2);
                    out.bytes(&loc.to_le_bytes());
                    out.bytes(&val.to_le_bytes());
                    out.byte(mode.tag());
                    out.byte(*rmw as u8);
                }
                EventKind::Fence { mode } => {
                    out.byte(3);
                    out.byte(mode.tag());
                }
                EventKind::Error { msg } => {
                    out.byte(4);
                    out.bytes(&(msg.len() as u64).to_le_bytes());
                    out.bytes(msg.as_bytes());
                }
            }
        }
    }
    out.byte(0xfc);
    for loc in g.written_locs() {
        let mut any = false;
        for &w in g.mo(loc) {
            if !v.kept(w) {
                continue;
            }
            if !any {
                out.bytes(&loc.to_le_bytes());
                any = true;
            }
            put_id(out, w);
        }
        // A location whose every write is cut vanishes, as it does in
        // `ExecutionGraph::restrict_set`: a view encodes like its result.
        if any {
            out.byte(0xfb);
        }
    }
}

/// Reusable canonicalization state: the non-identity thread relabelings a
/// [`ThreadPartition`] allows (none ⇒ plain content encoding), two scratch
/// buffers and a work counter. One per engine worker, one per oracle run;
/// graphs of different programs with the same partition shape may share it.
#[derive(Debug)]
pub struct Canonicalizer {
    perms: Vec<Relabeling>,
    best: Vec<u8>,
    cur: Vec<u8>,
    /// Index into `perms` of the minimizing relabeling of the last
    /// [`Canonicalizer::canonicalize`] call (`None` = identity won).
    chosen: Option<usize>,
    /// Encodings performed since the last [`Canonicalizer::take_probes`]
    /// (each canonicalization costs `1 + |perms|`).
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

    /// [`hash128`] of [`Canonicalizer::canonicalize`], plus whether a
    /// non-identity relabeling produced the canonical form (i.e. the view
    /// was *not* already its orbit's representative).
    pub fn hash_view(&mut self, v: &GraphView<'_>) -> (u128, bool) {
        let h = hash128(self.canonicalize(v));
        (h, self.chosen.is_some())
    }

    /// The relabeling (`perm[original] = new`) behind the last canonical
    /// form; `None` if the view already was its orbit's representative.
    #[must_use]
    pub fn chosen_perm(&self) -> Option<&[ThreadId]> {
        self.chosen.map(|i| self.perms[i].0.as_slice())
    }

    /// Drain the encoding-work counter: view serializations since the last
    /// call (the symmetry-dedup cost telemetry reports as `probes`).
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

/// 128-bit content hash of a graph: `hash128(&canonical_bytes(g))`,
/// streamed without the intermediate buffer.
#[must_use]
pub fn content_hash(g: &ExecutionGraph) -> u128 {
    let mut h = Hash128::new();
    encode(&GraphView::full(g), None, &mut h);
    h.finish()
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

    #[test]
    fn streamed_hash_equals_buffered_hash() {
        for g in [sample(), ExecutionGraph::new(0, BTreeMap::new())] {
            assert_eq!(content_hash(&g), hash128(&canonical_bytes(&g)));
            assert_eq!(content_hash(&g), view_hash(&GraphView::full(&g)));
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
        let mut keep = g.porf_prefix_set([w1]);
        keep.union_with(&g.porf_prefix_set([r]));
        let keep_lens = keep.prefix_lens();
        assert_eq!(keep_lens, vec![2, 1], "wy is cut, both x-writes survive");
        let view = GraphView::restricted(&g, &keep_lens, r, w1);
        // Materialize the same child the long way.
        let mut child = g.restrict_set(&keep);
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
