//! Randomized property tests of the execution-graph substrate: porf
//! clocks, the indexes a graph carries, restriction, canonical encoding
//! and content hashing, and the relation algebra.
//!
//! The build environment has no network access, so instead of proptest we
//! use a tiny deterministic SplitMix64-driven generator; every case is
//! reproducible from the printed seed.

use std::collections::{BTreeMap, HashMap, HashSet};

use vsync_graph::{
    canonical_bytes, canonical_bytes_modulo, content_hash, Canonicalizer, EventId, EventKind,
    ExecutionGraph, GraphView, Mode, Relation, RfSource, ThreadId, ThreadPartition,
};

const LOCS: [u64; 3] = [0x10, 0x20, 0x30];
const CASES: u64 = 128;

/// SplitMix64: tiny, deterministic, good-enough mixing for test generation.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// A compact recipe for one random event.
#[derive(Debug, Clone)]
enum Ev {
    Write { loc: usize, val: u64 },
    /// Read from the `k`-th most recent write to `loc` (init if none).
    Read { loc: usize, back: usize },
    Fence,
}

fn random_threads(rng: &mut Rng) -> Vec<Vec<Ev>> {
    let n_threads = 1 + rng.below(3) as usize;
    (0..n_threads)
        .map(|_| {
            let len = rng.below(5) as usize;
            (0..len)
                .map(|_| match rng.below(3) {
                    0 => Ev::Write { loc: rng.below(LOCS.len() as u64) as usize, val: rng.below(4) },
                    1 => Ev::Read {
                        loc: rng.below(LOCS.len() as u64) as usize,
                        back: rng.below(3) as usize,
                    },
                    _ => Ev::Fence,
                })
                .collect()
        })
        .collect()
}

/// Materialize recipes into a graph: writes append to mo, reads pick an
/// existing write (or init) so rf edges always point backwards in time —
/// a porf-acyclic graph by construction.
fn build(threads: &[Vec<Ev>]) -> ExecutionGraph {
    let mut g = ExecutionGraph::new(threads.len(), BTreeMap::new());
    let mut order: Vec<(usize, usize)> = Vec::new();
    for (t, evs) in threads.iter().enumerate() {
        for i in 0..evs.len() {
            order.push((t, i));
        }
    }
    // Round-robin interleave so threads' events mix in timestamp order.
    order.sort_by_key(|&(t, i)| (i, t));
    for (t, i) in order {
        match &threads[t][i] {
            Ev::Write { loc, val } => {
                let id = g.push_event(
                    t as u32,
                    EventKind::Write { loc: LOCS[*loc], val: *val, mode: Mode::Rlx, rmw: false },
                );
                let pos = g.mo(LOCS[*loc]).len();
                g.insert_mo(LOCS[*loc], id, pos);
            }
            Ev::Read { loc, back } => {
                let writes = g.mo(LOCS[*loc]);
                let src = if writes.is_empty() || *back >= writes.len() {
                    EventId::Init(LOCS[*loc])
                } else {
                    writes[writes.len() - 1 - back]
                };
                g.push_event(
                    t as u32,
                    EventKind::Read {
                        loc: LOCS[*loc],
                        mode: Mode::Rlx,
                        rf: RfSource::Write(src),
                        rmw: false,
                        awaiting: false,
                    },
                );
            }
            Ev::Fence => {
                g.push_event(t as u32, EventKind::Fence { mode: Mode::Sc });
            }
        }
    }
    g
}

/// Run `check` on `CASES` random graphs, reporting the failing seed.
fn for_random_graphs(test_name: &str, mut check: impl FnMut(&ExecutionGraph)) {
    for seed in 0..CASES {
        let mut rng = Rng(seed.wrapping_mul(0x5851f42d4c957f2d).wrapping_add(0xda3e39cb94b95bdb));
        let g = build(&random_threads(&mut rng));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| check(&g)));
        if let Err(e) = r {
            eprintln!("{test_name}: failing case at seed {seed}:\n{}", g.render());
            std::panic::resume_unwind(e);
        }
    }
}

/// The porf-prefix of `seeds` by a plain backwards search over po and rf
/// edges — the definition the clocks are held to.
fn porf_prefix(g: &ExecutionGraph, seeds: &[EventId]) -> HashSet<EventId> {
    let mut prefix = HashSet::new();
    let mut work: Vec<EventId> = seeds.iter().copied().filter(|e| !e.is_init()).collect();
    while let Some(e) = work.pop() {
        if !prefix.insert(e) {
            continue;
        }
        if let EventId::Event { thread, index } = e {
            if index > 0 {
                work.push(EventId::new(thread, index - 1));
            }
        }
        if let EventKind::Read { rf: RfSource::Write(w), .. } = &g.event(e).kind {
            if !w.is_init() {
                work.push(*w);
            }
        }
    }
    prefix
}

/// The per-thread lengths a set of events covers, if it is po-prefix-closed.
fn prefix_lens(g: &ExecutionGraph, set: &HashSet<EventId>) -> Vec<u32> {
    (0..g.num_threads() as u32)
        .map(|t| {
            let kept = |i: &u32| set.contains(&EventId::new(t, *i));
            let len = (0..g.thread_len(t) as u32).take_while(kept).count() as u32;
            assert!(
                !(len..g.thread_len(t) as u32).any(|i| kept(&i)),
                "a porf-prefix is po-prefix-closed"
            );
            len
        })
        .collect()
}

/// Every event's porf clock, and the join of any two, is exactly the
/// porf-prefix the plain search finds.
#[test]
fn porf_clocks_are_porf_prefixes() {
    for_random_graphs("porf_clocks_are_porf_prefixes", |g| {
        let all: Vec<EventId> = g.events().map(|(id, _)| id).collect();
        for &e in &all {
            assert_eq!(g.porf_clock(e), prefix_lens(g, &porf_prefix(g, &[e])), "porf({e})");
        }
        for pair in all.windows(2) {
            assert_eq!(g.porf_join(pair.iter().copied()), prefix_lens(g, &porf_prefix(g, pair)));
        }
    });
}

/// Restricting to a porf-prefix keeps rf intact and produces per-thread
/// prefixes; restricting to everything is the identity.
#[test]
fn restrict_to_prefix_is_sound() {
    for_random_graphs("restrict_to_prefix_is_sound", |g| {
        let full: Vec<u32> = (0..g.num_threads() as u32).map(|t| g.thread_len(t) as u32).collect();
        let identity = g.restrict(&full);
        assert_eq!(content_hash(g), content_hash(&identity));
        if let Some((seed, _)) = g.events().last() {
            let keep = porf_prefix(g, &[seed]);
            let sub = g.restrict(&prefix_lens(g, &keep));
            assert_eq!(sub.num_events(), keep.len());
            assert!(keep.iter().all(|&e| sub.event(e) == g.event(e)), "kept events are unchanged");
            // Every kept read still has its source.
            for (_, _, rf) in sub.reads() {
                if let RfSource::Write(w) = rf {
                    assert_eq!(sub.write_value(w), g.write_value(w));
                }
            }
        }
    });
}

/// Canonical encodings are stable (pure), the content hash is a function
/// of the content alone, and touching rf changes the encoding.
#[test]
fn canonical_encoding_is_pure() {
    for_random_graphs("canonical_encoding_is_pure", |g| {
        assert_eq!(canonical_bytes(g), canonical_bytes(g));
        assert_eq!(content_hash(g), content_hash(g));
        assert_eq!(content_hash(g), content_hash(&rebuild(g)));
        let mut g2 = g.clone();
        let target = g2.reads().find_map(|(r, loc, rf)| match rf {
            RfSource::Write(w) if !w.is_init() => Some((r, loc)),
            _ => None,
        });
        if let Some((r, loc)) = target {
            // Re-point the read at init: the encoding must change.
            g2.set_rf(r, RfSource::Write(EventId::Init(loc)));
            assert_ne!(content_hash(g), content_hash(&g2));
        }
    });
}

/// The one thing a [`GraphView`] adds: for every backward revisit the
/// engine could take (a read `r`, a same-location write `w` that `r` does
/// not read and whose porf-prefix does not contain `r`), the view of the
/// would-be child encodes like the child built the long way — plainly and
/// modulo a partition that lets every thread swap with every other.
#[test]
fn restricted_view_encodes_like_the_materialized_revisit() {
    let (mut cutting, mut relabeled) = (0, 0);
    for_random_graphs("restricted_view_encodes_like_the_materialized_revisit", |g| {
        let symmetric = ThreadPartition::from_class_ids(&vec![0; g.num_threads()]);
        let mut plain = Canonicalizer::new(None);
        let mut modulo = Canonicalizer::new(Some(&symmetric));
        for (r, loc, rf) in g.reads() {
            for &w in g.mo(loc) {
                if rf == RfSource::Write(w) || porf_prefix(g, &[w]).contains(&r) {
                    continue;
                }
                let lens = g.porf_join([w, r]);
                let view = GraphView::restricted(g, &lens, r, w);
                let mut child = g.restrict(&lens);
                child.set_rf(r, RfSource::Write(w));
                assert_eq!(plain.canonicalize(&view), canonical_bytes(&child), "{r} <- {w}");
                assert_eq!(
                    modulo.canonicalize(&view),
                    canonical_bytes_modulo(&child, &symmetric),
                    "{r} <- {w} modulo thread symmetry"
                );
                relabeled += modulo.chosen_perm().is_some() as u32;
                assert_eq!(plain.hash_view(&view).0, content_hash(&child), "{r} <- {w}");
                cutting += (child.num_events() < g.num_events()) as u32;
            }
        }
    });
    // The generator must exercise what the property is about.
    assert!(cutting >= 20, "only {cutting} revisits cut events");
    assert!(relabeled >= 10, "only {relabeled} views had a relabeled canonical form");
}

/// The same content as `g`, rebuilt from an empty graph: each thread's
/// events in turn — so a read may name a write that is pushed only later
/// — then the modification orders.
fn rebuild(g: &ExecutionGraph) -> ExecutionGraph {
    let mut h = ExecutionGraph::new(g.num_threads(), g.init_table().clone());
    for t in 0..g.num_threads() as ThreadId {
        for ev in g.thread_events(t) {
            h.push_event(t, ev.kind.clone());
        }
    }
    for loc in g.written_locs() {
        for (pos, &w) in g.mo(loc).iter().enumerate() {
            h.insert_mo(loc, w, pos);
        }
    }
    h
}

/// Every event's porf clock from scratch: start each at its own position
/// and raise it to the join of its po-predecessor's and its source's until
/// nothing changes — on a po ∪ rf cycle, reachability.
fn fixpoint_clocks(g: &ExecutionGraph) -> HashMap<EventId, Vec<u32>> {
    let nt = g.num_threads();
    let mut clocks: HashMap<EventId, Vec<u32>> = g
        .events()
        .map(|(id, _)| {
            let EventId::Event { thread, index } = id else { unreachable!() };
            let mut c = vec![0; nt];
            c[thread as usize] = index + 1;
            (id, c)
        })
        .collect();
    loop {
        let mut changed = false;
        for (id, ev) in g.events() {
            let EventId::Event { thread, index } = id else { unreachable!() };
            let mut c = clocks[&id].clone();
            let pred = index.checked_sub(1).map(|i| EventId::new(thread, i));
            let src = match ev.kind {
                EventKind::Read { rf: RfSource::Write(w), .. } => Some(w),
                _ => None,
            };
            for other in pred.into_iter().chain(src) {
                if let Some(o) = clocks.get(&other) {
                    c.iter_mut().zip(o).for_each(|(a, &b)| *a = (*a).max(b));
                }
            }
            if c != clocks[&id] {
                clocks.insert(id, c);
                changed = true;
            }
        }
        if !changed {
            return clocks;
        }
    }
}

/// Both carried indexes equal their definitions.
fn assert_indexes_exact(g: &ExecutionGraph, what: &str) {
    for h in [g, &rebuild(g)] {
        let oracle = fixpoint_clocks(h);
        for (id, _) in h.events() {
            assert_eq!(h.porf_clock(id), oracle[&id], "{what}: clock of {id}\n{}", h.render());
        }
    }
    assert_eq!(content_hash(g), content_hash(&rebuild(g)), "{what}: hash\n{}", g.render());
}

const MODES: [Mode; 5] = [Mode::Rlx, Mode::Acq, Mode::Rel, Mode::AcqRel, Mode::Sc];

/// A random source for a read of `loc`: any write of `loc` (in mo or
/// not), init, or `⊥`.
fn random_source(g: &ExecutionGraph, loc: u64, rng: &mut Rng) -> RfSource {
    let writes: Vec<EventId> = g
        .events()
        .filter(|(_, ev)| matches!(ev.kind, EventKind::Write { loc: l, .. } if l == loc))
        .map(|(id, _)| id)
        .collect();
    match rng.below(writes.len() as u64 + 2) as usize {
        k if k < writes.len() => RfSource::Write(writes[k]),
        k if k == writes.len() => RfSource::Write(EventId::Init(loc)),
        _ => RfSource::Bottom,
    }
}

/// Apply mutation `op` (0..8, in the order `push_event`, `pop_event`,
/// `insert_mo`, `remove_mo`, `set_rf`, `set_event_mode`, `restrict`,
/// `permute_threads`) with random arguments; `false` if it had nothing to
/// apply to. `pushed` holds the threads of the pushes not yet undone,
/// newest last: only the newest event may be popped.
fn mutate(g: &mut ExecutionGraph, op: usize, rng: &mut Rng, pushed: &mut Vec<ThreadId>) -> bool {
    let nt = g.num_threads();
    let events: Vec<EventId> = g.events().map(|(id, _)| id).collect();
    let pick = |rng: &mut Rng, ids: &[EventId]| ids[rng.below(ids.len() as u64) as usize];
    let mode = MODES[rng.below(MODES.len() as u64) as usize];
    match op {
        0 => {
            let t = rng.below(nt as u64) as ThreadId;
            let loc = LOCS[rng.below(LOCS.len() as u64) as usize];
            let kind = match rng.below(3) {
                0 => EventKind::Write { loc, val: rng.below(4), mode, rmw: rng.below(2) == 0 },
                1 => {
                    let rf = random_source(g, loc, rng);
                    EventKind::Read { loc, mode, rf, rmw: false, awaiting: rf.is_bottom() }
                }
                _ => EventKind::Fence { mode },
            };
            g.push_event(t, kind);
            pushed.push(t);
        }
        1 => {
            let Some(&t) = pushed.last() else { return false };
            let id = EventId::new(t, g.thread_len(t) as u32 - 1);
            if g.reads().any(|(_, _, rf)| rf == RfSource::Write(id)) {
                return false;
            }
            if let (Some(loc), Some(pos)) = (g.loc_of(id), g.mo_position(id)) {
                g.remove_mo(loc, pos - 1);
            }
            g.pop_event(t);
            pushed.pop();
        }
        2 => {
            let unplaced: Vec<EventId> = events
                .iter()
                .copied()
                .filter(|&id| matches!(g.event(id).kind, EventKind::Write { .. }))
                .filter(|&id| g.mo_position(id).is_none())
                .collect();
            if unplaced.is_empty() {
                return false;
            }
            let w = pick(rng, &unplaced);
            let loc = g.loc_of(w).unwrap();
            let pos = rng.below(g.mo(loc).len() as u64 + 1) as usize;
            g.insert_mo(loc, w, pos);
        }
        3 => {
            let locs: Vec<u64> = g.written_locs().collect();
            if locs.is_empty() {
                return false;
            }
            let loc = locs[rng.below(locs.len() as u64) as usize];
            g.remove_mo(loc, rng.below(g.mo(loc).len() as u64) as usize);
        }
        4 => {
            let reads: Vec<(EventId, u64)> = g.reads().map(|(r, loc, _)| (r, loc)).collect();
            if reads.is_empty() {
                return false;
            }
            let (r, loc) = reads[rng.below(reads.len() as u64) as usize];
            let src = random_source(g, loc, rng);
            g.set_rf(r, src);
        }
        5 => {
            let moded: Vec<EventId> = events
                .iter()
                .copied()
                .filter(|&id| !matches!(g.event(id).kind, EventKind::Error { .. }))
                .collect();
            if moded.is_empty() {
                return false;
            }
            g.set_event_mode(pick(rng, &moded), mode);
        }
        6 => {
            let seeds: Vec<EventId> =
                events.iter().copied().filter(|_| rng.below(2) == 0).collect();
            *g = g.restrict(&g.porf_join(seeds));
            // The newest event may be gone.
            pushed.clear();
        }
        _ => {
            let mut perm: Vec<ThreadId> = (0..nt as ThreadId).collect();
            for i in (1..nt).rev() {
                perm.swap(i, rng.below(i as u64 + 1) as usize);
            }
            *g = g.permute_threads(&perm);
            pushed.iter_mut().for_each(|t| *t = perm[*t as usize]);
        }
    }
    true
}

/// The indexes a graph carries stay equal to their definitions through
/// random sequences of every mutator: after each step, every event's
/// porf clock equals the from-scratch fixpoint, and the content hash
/// equals that of the same content rebuilt from an empty graph.
#[test]
fn carried_indexes_equal_their_definitions() {
    const STEPS: usize = 24;
    let mut applied = [0u32; 8];
    for_random_graphs("carried_indexes_equal_their_definitions", |g0| {
        let mut rng = Rng(content_hash(g0) as u64);
        let mut g = g0.clone();
        let mut pushed = Vec::new();
        assert_indexes_exact(&g, "built");
        for step in 0..STEPS {
            let op = rng.below(8) as usize;
            applied[op] += u32::from(mutate(&mut g, op, &mut rng, &mut pushed));
            assert_indexes_exact(&g, &format!("step {step}, op {op}"));
        }
    });
    assert!(applied.iter().all(|&n| n >= 50), "too few of some mutation: {applied:?}");
}

/// Over random porf-closed cuts with an rf override (and the full random
/// graphs), view hashes group views exactly as their canonical bytes do,
/// and a view hashes like the graph it describes once materialized.
#[test]
fn view_hash_groups_random_views_as_their_bytes_do() {
    let mut by_bytes: HashMap<Vec<u8>, u128> = HashMap::new();
    let mut by_hash: HashMap<u128, Vec<u8>> = HashMap::new();
    let mut not_last = 0;
    let mut record = |h: u128, bytes: Vec<u8>| {
        assert_eq!(*by_bytes.entry(bytes.clone()).or_insert(h), h, "equal bytes, unequal hashes");
        assert_eq!(*by_hash.entry(h).or_insert_with(|| bytes.clone()), bytes, "hash collision");
    };
    for_random_graphs("view_hash_groups_random_views_as_their_bytes_do", |g| {
        let mut rng = Rng(!(content_hash(g) as u64));
        let mut plain = Canonicalizer::new(None);
        let events: Vec<EventId> = g.events().map(|(id, _)| id).collect();
        record(content_hash(g), canonical_bytes(g));
        for (r, loc, _) in g.reads() {
            for &w in g.mo(loc) {
                if porf_prefix(g, &[w]).contains(&r) {
                    continue;
                }
                // The engine's cut, and one that keeps random further events.
                let extra: Vec<EventId> =
                    events.iter().copied().filter(|_| rng.below(2) == 0).collect();
                for seeds in [vec![w, r], [w, r].into_iter().chain(extra).collect()] {
                    let lens = g.porf_join(seeds);
                    let view = GraphView::restricted(g, &lens, r, w);
                    let (h, _) = plain.hash_view(&view);
                    let mut child = g.restrict(&lens);
                    child.set_rf(r, RfSource::Write(w));
                    assert_eq!(h, content_hash(&child), "{r} <- {w}, cut to {lens:?}");
                    record(h, plain.canonicalize(&view).to_vec());
                    let EventId::Event { thread, index } = r else { unreachable!() };
                    not_last += u32::from(lens[thread as usize] > index + 1);
                }
            }
        }
    });
    assert!(by_hash.len() >= 100, "only {} distinct views", by_hash.len());
    assert!(not_last >= 20, "only {not_last} views kept events after the re-pointed read");
}

/// final_state reports exactly the mo-maximal writes.
#[test]
fn final_state_is_mo_maximal() {
    for_random_graphs("final_state_is_mo_maximal", |g| {
        let state = g.final_state();
        for loc in LOCS {
            if let Some(&w) = g.mo(loc).last() {
                assert_eq!(state.get(&loc).copied(), Some(g.write_value(w)));
            }
        }
    });
}

/// The transitive closure of an acyclic relation built from the graph's
/// po edges stays acyclic and contains the base relation.
#[test]
fn closure_preserves_acyclicity() {
    for_random_graphs("closure_preserves_acyclicity", |g| {
        let n = g.num_events();
        if n == 0 {
            return;
        }
        let mut rel = Relation::new(n);
        let ids: Vec<EventId> = g.events().map(|(id, _)| id).collect();
        let index_of = |id: EventId| ids.iter().position(|x| *x == id).unwrap();
        for (id, _) in g.events() {
            if let EventId::Event { thread, index } = id {
                if index > 0 {
                    rel.add(index_of(EventId::new(thread, index - 1)), index_of(id));
                }
            }
        }
        assert!(rel.is_acyclic());
        let mut closed = rel.clone();
        closed.close();
        for (a, b) in rel.edges() {
            assert!(closed.has(a, b));
        }
        assert!(closed.is_irreflexive());
    });
}

/// Cutting in place is [`ExecutionGraph::restrict`] without the copy, and
/// [`ExecutionGraph::uncut`] undoes it exactly: for the porf-prefix of
/// every pair of events (every keep-set a backward revisit can have), the
/// cut graph equals the restriction and the restored one the original,
/// indexes and content hash included.
#[test]
fn cut_equals_restrict_and_uncut_restores() {
    let mut cutting = 0;
    for_random_graphs("cut_equals_restrict_and_uncut_restores", |g| {
        let ids: Vec<EventId> = g.events().map(|(id, _)| id).collect();
        for &a in &ids {
            for &b in &ids {
                let lens = g.porf_join([a, b]);
                let mut h = g.clone();
                let cut = h.cut(&lens);
                assert_eq!(h, g.restrict(&lens), "cut to {lens:?}");
                cutting += u32::from(h.num_events() < g.num_events());
                h.uncut(&cut);
                assert_eq!(&h, g, "uncut from {lens:?}");
                assert_eq!(content_hash(&h), content_hash(g));
            }
        }
    });
    assert!(cutting >= 100, "only {cutting} keep-sets cut events");
}
