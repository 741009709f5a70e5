//! Randomized property tests of the execution-graph substrate: prefix
//! closure, restriction, canonical encoding and the relation algebra.
//!
//! The build environment has no network access, so instead of proptest we
//! use a tiny deterministic SplitMix64-driven generator; every case is
//! reproducible from the printed seed.

use std::collections::BTreeMap;

use vsync_graph::{
    canonical_bytes, canonical_bytes_modulo, content_hash, hash128, Canonicalizer, EventId,
    EventKind, EventSet, ExecutionGraph, GraphView, Mode, Relation, RfSource, ThreadPartition,
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

/// porf-prefixes are closed under po and rf predecessors.
#[test]
fn porf_prefix_is_closed() {
    for_random_graphs("porf_prefix_is_closed", |g| {
        let all: Vec<EventId> = g.events().map(|(id, _)| id).collect();
        for &seed in all.iter().take(4) {
            let prefix = g.porf_prefix_set([seed]);
            assert!(prefix.contains(seed), "a prefix includes its seed");
            for e in prefix.iter(g) {
                if let EventId::Event { thread, index } = e {
                    if index > 0 {
                        assert!(
                            prefix.contains(EventId::new(thread, index - 1)),
                            "po predecessor of {e} missing"
                        );
                    }
                }
                if let EventKind::Read { rf: RfSource::Write(w), .. } = &g.event(e).kind {
                    if !w.is_init() {
                        assert!(prefix.contains(*w), "rf source of {e} missing");
                    }
                }
            }
        }
    });
}

/// Restricting to a porf-prefix keeps rf intact and produces per-thread
/// prefixes; restricting to everything is the identity.
#[test]
fn restrict_to_prefix_is_sound() {
    for_random_graphs("restrict_to_prefix_is_sound", |g| {
        let mut all = EventSet::new(g);
        for (id, _) in g.events() {
            all.insert(id);
        }
        let identity = g.restrict_set(&all);
        assert_eq!(content_hash(g), content_hash(&identity));
        if let Some((seed, _)) = g.events().last() {
            let keep = g.porf_prefix_set([seed]);
            let sub = g.restrict_set(&keep);
            assert_eq!(sub.num_events(), keep.len());
            assert_eq!(
                (0..g.num_threads() as u32).map(|t| sub.thread_len(t) as u32).collect::<Vec<_>>(),
                keep.prefix_lens(),
                "the restriction keeps exactly the set's per-thread prefixes"
            );
            // Every kept read still has its source.
            for (_, _, rf) in sub.reads() {
                if let RfSource::Write(w) = rf {
                    assert_eq!(sub.write_value(w), g.write_value(w));
                }
            }
        }
    });
}

/// Canonical encodings are stable (pure), the streamed hash is the hash
/// of the buffered bytes, and touching rf changes the encoding.
#[test]
fn canonical_encoding_is_pure() {
    for_random_graphs("canonical_encoding_is_pure", |g| {
        assert_eq!(canonical_bytes(g), canonical_bytes(g));
        assert_eq!(content_hash(g), content_hash(g));
        assert_eq!(hash128(&canonical_bytes(g)), content_hash(g));
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
                if rf == RfSource::Write(w) || g.porf_prefix_set([w]).contains(r) {
                    continue;
                }
                let keep = g.porf_prefix_set([w, r]);
                let lens = keep.prefix_lens();
                let view = GraphView::restricted(g, &lens, r, w);
                let mut child = g.restrict_set(&keep);
                child.set_rf(r, RfSource::Write(w));
                assert_eq!(plain.canonicalize(&view), canonical_bytes(&child), "{r} <- {w}");
                assert_eq!(
                    modulo.canonicalize(&view),
                    canonical_bytes_modulo(&child, &symmetric),
                    "{r} <- {w} modulo thread symmetry"
                );
                relabeled += modulo.chosen_perm().is_some() as u32;
                assert_eq!(hash128(&canonical_bytes(&child)), content_hash(&child));
                cutting += (keep.len() < g.num_events()) as u32;
            }
        }
    });
    // The generator must exercise what the property is about.
    assert!(cutting >= 20, "only {cutting} revisits cut events");
    assert!(relabeled >= 10, "only {relabeled} views had a relabeled canonical form");
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
