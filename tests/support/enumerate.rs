//! An execution enumerator for straight-line programs that shares no
//! search rule with the engine: no replay, no revisits, no seen-sets, no
//! incremental checker. It uses the execution-graph type to state its
//! answers and the model's axioms, evaluated by `is_consistent_reference`,
//! to filter them — nothing else of the crate. [`program`] builds the
//! engine's input from the same op lists.
//!
//! Every candidate is built whole: pick a source for every read such that
//! `po ∪ rf` is acyclic, evaluate values along that order (a CAS whose
//! read sees a value other than its expected one has no write part, and
//! nothing may read from a write part that does not exist), pick a
//! modification order of every location, keep the consistent graphs.
//! Distinct choices give distinct graphs, so the result has no duplicates.
//!
//! The graphs are the ones the engine builds for the same ops: an RMW's
//! two events both carry its mode, and a relaxed fence is dropped, since
//! lowering emits no event for it.

use std::collections::BTreeMap;

use vsync::graph::{EventId, EventKind, ExecutionGraph, Loc, Mode, RfSource};
use vsync::lang::{Program, ProgramBuilder, Reg};
use vsync::model::MemoryModel;

/// One instruction of a straight-line thread.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    Load(Loc, Mode),
    Store(Loc, u64, Mode),
    /// `cas(loc, expected, new)`: a read, plus a write of `new` iff the
    /// read saw `expected`.
    Cas(Loc, u64, u64, Mode),
    /// `fetch_add(loc, add)`: a read, plus a write of the value read + `add`.
    FetchAdd(Loc, u64, Mode),
    Fence(Mode),
}

/// An instruction, by thread and position in it.
type OpId = (usize, usize);

/// The engine's input for `threads`: one program thread per op list, in
/// order, every location starting at 0.
pub fn program(name: &str, threads: &[Vec<Op>]) -> Program {
    let mut pb = ProgramBuilder::new(name);
    for ops in threads {
        let ops = ops.clone();
        pb.thread(move |b| {
            for (i, op) in ops.iter().enumerate() {
                let r = Reg((i % 8) as u8);
                match *op {
                    Op::Load(l, m) => b.load(r, l, m),
                    Op::Store(l, v, m) => b.store(l, v, m),
                    Op::Cas(l, e, n, m) => b.cas(r, l, e, n, m),
                    Op::FetchAdd(l, v, m) => b.fetch_add(r, l, v, m),
                    Op::Fence(m) => b.fence(m),
                };
            }
        });
    }
    pb.build().expect("straight-line programs are well-formed")
}

/// Every consistent complete execution of `threads` (all locations start
/// at 0) under `model`.
pub fn executions(threads: &[Vec<Op>], model: &dyn MemoryModel) -> Vec<ExecutionGraph> {
    let kept: Vec<Vec<Op>> = threads
        .iter()
        .map(|ops| ops.iter().copied().filter(|op| !matches!(op, Op::Fence(Mode::Rlx))).collect())
        .collect();
    let threads = &kept[..];
    let ops = |kind: fn(&Op) -> Option<Loc>| -> Vec<(OpId, Loc)> {
        let all = threads
            .iter()
            .enumerate()
            .flat_map(|(t, ops)| ops.iter().enumerate().map(move |(i, op)| ((t, i), op)));
        all.filter_map(|(id, op)| kind(op).map(|l| (id, l))).collect()
    };
    let reads = ops(|op| match *op {
        Op::Load(l, _) | Op::Cas(l, ..) | Op::FetchAdd(l, ..) => Some(l),
        _ => None,
    });
    let writes = ops(|op| match *op {
        Op::Store(l, ..) | Op::Cas(l, ..) | Op::FetchAdd(l, ..) => Some(l),
        _ => None,
    });
    // Per read: `None` is the init write, `Some(op)` a (potential) write.
    let choices: Vec<Vec<Option<OpId>>> = reads
        .iter()
        .map(|&(r, loc)| {
            let others = writes.iter().filter(|&&(w, l)| l == loc && w != r).map(|&(w, _)| Some(w));
            std::iter::once(None).chain(others).collect()
        })
        .collect();
    let mut out = Vec::new();
    for pick in product(&choices.iter().map(Vec::len).collect::<Vec<_>>()) {
        let rf: BTreeMap<OpId, Option<OpId>> =
            reads.iter().enumerate().map(|(n, &(r, _))| (r, choices[n][pick[n]])).collect();
        let Some(order) = topological(threads, &rf) else { continue };
        // Values along the order: the value each op writes, if it writes.
        let mut written: BTreeMap<OpId, u64> = BTreeMap::new();
        let mut ok = true;
        for id in order {
            let seen = |w: Option<OpId>| w.map_or(Some(0), |w| written.get(&w).copied());
            match threads[id.0][id.1] {
                Op::Store(_, v, _) => {
                    written.insert(id, v);
                }
                Op::Load(..) => ok &= seen(rf[&id]).is_some(),
                Op::Cas(_, expected, new, _) => match seen(rf[&id]) {
                    Some(v) if v == expected => {
                        written.insert(id, new);
                    }
                    Some(_) => {}
                    None => ok = false,
                },
                Op::FetchAdd(_, add, _) => match seen(rf[&id]) {
                    Some(v) => {
                        written.insert(id, v.wrapping_add(add));
                    }
                    None => ok = false,
                },
                Op::Fence(_) => {}
            }
        }
        if !ok {
            continue;
        }
        // Events: an RMW that writes is two, its write part second.
        let rmw = |(t, i): OpId| matches!(threads[t][i], Op::Cas(..) | Op::FetchAdd(..));
        let id_of = |(t, i): OpId, write: bool| {
            let before = (0..i).filter(|&j| rmw((t, j)) && written.contains_key(&(t, j))).count();
            EventId::new(t as u32, (i + before + usize::from(write && rmw((t, i)))) as u32)
        };
        let source =
            |r: OpId, loc| RfSource::Write(rf[&r].map_or(EventId::Init(loc), |w| id_of(w, true)));
        let mut g = ExecutionGraph::new(threads.len(), BTreeMap::new());
        let mut per_loc: BTreeMap<Loc, Vec<EventId>> = BTreeMap::new();
        for (t, ops) in threads.iter().enumerate() {
            for (i, &op) in ops.iter().enumerate() {
                let (rmw, awaiting) = (written.contains_key(&(t, i)), false);
                let kind = match op {
                    Op::Load(loc, mode) => {
                        EventKind::Read { loc, mode, rf: source((t, i), loc), rmw: false, awaiting }
                    }
                    Op::Store(loc, val, mode) => EventKind::Write { loc, val, mode, rmw: false },
                    Op::Cas(loc, _, _, mode) | Op::FetchAdd(loc, _, mode) => {
                        EventKind::Read { loc, mode, rf: source((t, i), loc), rmw, awaiting }
                    }
                    Op::Fence(mode) => EventKind::Fence { mode },
                };
                g.push_event(t as u32, kind);
                if let (Op::Cas(loc, .., mode) | Op::FetchAdd(loc, _, mode), true) = (op, rmw) {
                    let val = written[&(t, i)];
                    g.push_event(t as u32, EventKind::Write { loc, val, mode, rmw: true });
                }
                if let (Op::Store(loc, ..) | Op::Cas(loc, ..) | Op::FetchAdd(loc, ..), true) =
                    (op, rmw)
                {
                    per_loc.entry(loc).or_default().push(id_of((t, i), true));
                }
            }
        }
        // Every modification order of every location.
        let orders: Vec<Vec<Vec<EventId>>> = per_loc.values().map(|ws| permutations(ws)).collect();
        for pick in product(&orders.iter().map(Vec::len).collect::<Vec<_>>()) {
            let mut h = g.clone();
            for ((&loc, _), (perms, &k)) in per_loc.iter().zip(orders.iter().zip(&pick)) {
                for (pos, &w) in perms[k].iter().enumerate() {
                    h.insert_mo(loc, w, pos);
                }
            }
            if model.is_consistent_reference(&h) {
                out.push(h);
            }
        }
    }
    out
}

/// A topological order of the ops under `po ∪ rf`, if it is acyclic.
fn topological(threads: &[Vec<Op>], rf: &BTreeMap<OpId, Option<OpId>>) -> Option<Vec<OpId>> {
    let mut next = vec![0; threads.len()];
    let mut order = Vec::new();
    loop {
        let ready = (0..threads.len()).find(|&t| {
            next[t] < threads[t].len()
                && rf.get(&(t, next[t])).copied().flatten().is_none_or(|(u, j)| next[u] > j)
        });
        match ready {
            Some(t) => {
                order.push((t, next[t]));
                next[t] += 1;
            }
            None => {
                return (0..threads.len()).all(|t| next[t] == threads[t].len()).then_some(order)
            }
        }
    }
}

/// Every index vector below `sizes` (one empty vector when `sizes` is).
fn product(sizes: &[usize]) -> Vec<Vec<usize>> {
    sizes.iter().fold(vec![vec![]], |acc, &n| {
        acc.into_iter().flat_map(|v| (0..n).map(move |k| [v.clone(), vec![k]].concat())).collect()
    })
}

/// Every ordering of `xs`.
pub fn permutations<T: Clone>(xs: &[T]) -> Vec<Vec<T>> {
    if xs.is_empty() {
        return vec![vec![]];
    }
    (0..xs.len())
        .flat_map(|i| {
            let mut rest = xs.to_vec();
            let x = rest.remove(i);
            permutations(&rest).into_iter().map(move |mut p| {
                p.insert(0, x.clone());
                p
            })
        })
        .collect()
}
