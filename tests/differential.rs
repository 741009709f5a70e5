//! Differential tests of the consistency fast path and the parallel
//! explorer:
//!
//! * the chain checkers must agree with the axiom evaluator (each model's
//!   `is_consistent_reference`) on randomized execution graphs —
//!   including inconsistent, cyclic, pending-read and RMW-violating ones;
//! * `count_executions` must be identical for `workers ∈ {1, 2, 8}` and
//!   for fast vs. reference checking across the lock catalog;
//! * the step-by-step chain checker must steer the search exactly as the
//!   per-check reference does — every counter, `inconsistent` included —
//!   on random programs and on 3-thread catalog rows;
//! * bug-finding scenarios must report the same verdict kind under every
//!   configuration, and the broken study cases one pinned violation
//!   message across worker counts and symmetry settings;
//! * the revisit-driven search must collect exactly the executions the
//!   enumerator (`support/enumerate.rs`, which shares no search rule with
//!   it) lists for randomized programs — as sets, modulo thread symmetry
//!   where it is on — across worker counts and symmetry settings;
//! * lock clients with awaits, which the enumerator cannot run, keep
//!   their pinned execution counts.
//!
//! The generator is a deterministic SplitMix64 stream; failures print the
//! offending seed and graph.

#[path = "support/enumerate.rs"]
#[allow(dead_code)]
mod enumerate;

use std::collections::{BTreeMap, BTreeSet};

use enumerate::Op;
use vsync::core::{explore, AmcConfig};
use vsync::graph::{
    canonical_bytes, canonical_hash_modulo, EventId, EventKind, ExecutionGraph, Mode, RfSource,
};
use vsync::model::ModelKind;

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

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

const LOCS: [u64; 2] = [0x10, 0x20];

fn mode(rng: &mut Rng, kind: u64) -> Mode {
    // kind 0 = read, 1 = write, 2 = fence — keep modes valid-ish but also
    // include every mode for fences and RMW halves.
    let all = [Mode::Rlx, Mode::Acq, Mode::Rel, Mode::AcqRel, Mode::Sc];
    match kind {
        0 => [Mode::Rlx, Mode::Acq, Mode::Sc][rng.below(3) as usize],
        1 => [Mode::Rlx, Mode::Rel, Mode::Sc][rng.below(3) as usize],
        _ => all[rng.below(5) as usize],
    }
}

/// Generate an arbitrary (frequently inconsistent) execution graph:
/// random writes with random `mo` insertion points, reads from arbitrary
/// same-location writes (including *later* ones — porf cycles), RMW pairs
/// with random sources (atomicity violations), pending await reads, and
/// fences of every mode. Only the structural invariants the checkers
/// genuinely require are maintained (RMW write parts follow their read
/// parts; every write is in `mo`; rf sources exist).
fn random_graph(rng: &mut Rng) -> ExecutionGraph {
    let n_threads = 1 + rng.below(3) as usize;
    // First pass: lay out per-thread event shapes so reads can later pick
    // any write in the whole graph (forward references included).
    #[derive(Clone, Copy)]
    enum Shape {
        Write { loc: u64, val: u64 },
        RmwPair { loc: u64, val: u64 },
        Read { loc: u64 },
        PendingRead { loc: u64 },
        Fence,
    }
    let mut shapes: Vec<Vec<Shape>> = Vec::new();
    for _ in 0..n_threads {
        let len = rng.below(5);
        let mut tshapes = Vec::new();
        for _ in 0..len {
            let loc = LOCS[rng.below(2) as usize];
            let val = rng.below(3);
            tshapes.push(match rng.below(10) {
                0..=2 => Shape::Write { loc, val },
                3 => Shape::RmwPair { loc, val },
                4..=6 => Shape::Read { loc },
                7 => Shape::PendingRead { loc },
                _ => Shape::Fence,
            });
        }
        shapes.push(tshapes);
    }
    // Second pass: build the graph. Writes land at a random mo position.
    let mut g = ExecutionGraph::new(n_threads, BTreeMap::new());
    let mut write_ids: Vec<(u64, EventId)> = Vec::new(); // (loc, id)
    for (t, tshapes) in shapes.iter().enumerate() {
        for s in tshapes {
            match *s {
                Shape::Write { loc, val } => {
                    let m = mode(rng, 1);
                    let id = g.push_event(
                        t as u32,
                        EventKind::Write { loc, val, mode: m, rmw: false },
                    );
                    let pos = rng.below(g.mo(loc).len() as u64 + 1) as usize;
                    g.insert_mo(loc, id, pos);
                    write_ids.push((loc, id));
                }
                Shape::RmwPair { loc, val } => {
                    let m = mode(rng, 2);
                    g.push_event(
                        t as u32,
                        EventKind::Read {
                            loc,
                            mode: m,
                            rf: RfSource::Write(EventId::Init(loc)), // patched below
                            rmw: true,
                            awaiting: false,
                        },
                    );
                    let id = g.push_event(
                        t as u32,
                        EventKind::Write { loc, val, mode: m, rmw: true },
                    );
                    let pos = rng.below(g.mo(loc).len() as u64 + 1) as usize;
                    g.insert_mo(loc, id, pos);
                    write_ids.push((loc, id));
                }
                Shape::Read { loc } => {
                    g.push_event(
                        t as u32,
                        EventKind::Read {
                            loc,
                            mode: mode(rng, 0),
                            rf: RfSource::Write(EventId::Init(loc)), // patched below
                            rmw: false,
                            awaiting: rng.chance(25),
                        },
                    );
                }
                Shape::PendingRead { loc } => {
                    g.push_event(
                        t as u32,
                        EventKind::Read {
                            loc,
                            mode: mode(rng, 0),
                            rf: RfSource::Bottom,
                            rmw: false,
                            awaiting: true,
                        },
                    );
                }
                Shape::Fence => {
                    g.push_event(t as u32, EventKind::Fence { mode: mode(rng, 2) });
                }
            }
        }
    }
    // Third pass: point every resolved read at a random same-location
    // write — possibly its own thread's later write (porf cycle), possibly
    // a write another RMW already consumed (atomicity violation).
    let reads: Vec<(EventId, u64)> = g
        .reads()
        .filter(|(_, _, rf)| !rf.is_bottom())
        .map(|(id, loc, _)| (id, loc))
        .collect();
    for (r, loc) in reads {
        let candidates: Vec<EventId> = std::iter::once(EventId::Init(loc))
            .chain(write_ids.iter().filter(|(l, _)| *l == loc).map(|(_, id)| *id))
            .filter(|w| *w != r)
            .collect();
        let w = candidates[rng.below(candidates.len() as u64) as usize];
        g.set_rf(r, RfSource::Write(w));
    }
    g
}

/// The fast and reference checkers must agree on every random graph, for
/// every model.
#[test]
fn fast_checker_agrees_with_reference_on_random_graphs() {
    let mut agree = [0u64; 3];
    for seed in 0..600u64 {
        let mut rng = Rng(seed.wrapping_mul(0x5851f42d4c957f2d).wrapping_add(0xb5ad4eceda1ce2a9));
        let g = random_graph(&mut rng);
        for (k, kind) in ModelKind::all().into_iter().enumerate() {
            let fast = kind.model().is_consistent(&g);
            let naive = kind.model().is_consistent_reference(&g);
            assert_eq!(
                fast,
                naive,
                "{kind} fast/reference divergence at seed {seed} on:\n{}",
                g.render()
            );
            agree[k] += fast as u64;
        }
    }
    // Sanity: the generator produces a healthy mix of consistent and
    // inconsistent graphs for every model (otherwise the test is vacuous).
    for (k, kind) in ModelKind::all().into_iter().enumerate() {
        assert!(
            agree[k] > 50 && agree[k] < 550,
            "{kind}: degenerate generator, {} / 600 consistent",
            agree[k]
        );
    }
}

/// `count_executions` is identical for every worker count and for fast vs
/// reference checking, across the lock catalog.
#[test]
fn worker_counts_and_checkers_preserve_catalog_counts() {
    use vsync::locks::model::{mutex_client, CasLock, McsLock, Qspinlock, TicketLock, TtasLock};
    let catalog: Vec<(&str, vsync::lang::Program)> = vec![
        ("caslock-2t", mutex_client(&CasLock::default(), 2, 1)),
        ("ttas-2t", mutex_client(&TtasLock::default(), 2, 1)),
        ("ticket-2t", mutex_client(&TicketLock::default(), 2, 1)),
        ("mcs-2t", mutex_client(&McsLock::default(), 2, 1)),
        ("qspinlock-2t", mutex_client(&Qspinlock, 2, 1)),
    ];
    for (name, p) in catalog {
        let base = explore(&p, &AmcConfig::default());
        assert!(base.is_verified(), "{name}: {}", base.verdict);
        let reference = explore(&p, &AmcConfig::default().with_reference_checker());
        assert!(reference.is_verified(), "{name} (reference): {}", reference.verdict);
        assert_eq!(
            base.stats.complete_executions, reference.stats.complete_executions,
            "{name}: fast vs reference executions"
        );
        assert_eq!(base.stats.popped, reference.stats.popped, "{name}: fast vs reference popped");
        for workers in [2usize, 8] {
            let r = explore(&p, &AmcConfig::default().with_workers(workers));
            assert!(r.is_verified(), "{name} workers={workers}: {}", r.verdict);
            assert_eq!(
                r.stats.complete_executions, base.stats.complete_executions,
                "{name}: workers={workers} executions"
            );
            assert_eq!(
                r.stats.popped, base.stats.popped,
                "{name}: workers={workers} popped"
            );
        }
    }
}

/// The exploration is the same search under the fast (chain) checker and
/// under the per-check reference, at every worker count: a single
/// consistency answer that differed would move `inconsistent`, and
/// usually `popped` and `constructed` with it. The reference runs behind
/// the stateless adapter, whose fork is itself and whose every `push` is a
/// from-scratch check: it is the oracle of the states that chain roots
/// inherit through the work queue (there is no 1-worker-only path).
fn assert_checkers_explore_identically(tag: &str, p: &vsync::lang::Program, cfg: &AmcConfig) {
    let reference = explore(p, &cfg.clone().with_reference_checker());
    for workers in [1usize, 2, 8] {
        let fast = explore(p, &cfg.clone().with_workers(workers));
        assert_eq!(
            std::mem::discriminant(&fast.verdict),
            std::mem::discriminant(&reference.verdict),
            "{tag}, workers={workers}: {} vs {}",
            fast.verdict,
            reference.verdict
        );
        if !reference.is_verified() {
            continue; // a violation stops the run wherever the workers are
        }
        let counters = |s: &vsync::core::ExploreStats| {
            [s.complete_executions, s.blocked_graphs, s.popped, s.constructed, s.inconsistent]
        };
        assert_eq!(
            counters(&fast.stats),
            counters(&reference.stats),
            "{tag}, workers={workers}: executions / blocked / popped / constructed / inconsistent"
        );
    }
}

/// Fast vs reference checker, in-engine, on the 600 random programs.
#[test]
fn chain_checker_steers_random_programs_like_the_reference() {
    for seed in 0..600u64 {
        let mut rng = Rng(seed.wrapping_mul(0x5851f42d4c957f2d).wrapping_add(0x9e3779b97f4a7c15));
        let p = enumerate::program("random", &random_threads(&mut rng));
        let model = ModelKind::all()[seed as usize % 3];
        let cfg = AmcConfig::with_model(model).with_symmetry(seed % 2 == 0);
        assert_checkers_explore_identically(&format!("seed {seed} ({model})"), &p, &cfg);
    }
}

/// Fast vs reference checker, in-engine, on the 3-thread catalog rows a
/// debug build can afford (graphs past 20 events, release sequences,
/// SC accesses, await-RMW stagnancy checks).
#[test]
fn chain_checker_steers_three_thread_locks_like_the_reference() {
    use vsync::locks::model::{mutex_client, McsLock, TicketLock, TtasLock};
    for (name, p) in [
        ("mcs-3t", mutex_client(&McsLock::default(), 3, 1)),
        ("ttas-3t", mutex_client(&TtasLock::default(), 3, 1)),
        ("ticket-3t", mutex_client(&TicketLock::default(), 3, 1)),
    ] {
        assert_checkers_explore_identically(name, &p, &AmcConfig::default());
    }
}

/// Lock clients with awaits keep every execution. No oracle runs awaits
/// (the enumerator cannot), yet a revisit rule that keeps too little loses
/// executions exactly here (DESIGN.md §12, "Known defect"): symmetry off,
/// one worker, `complete_executions` under SC / TSO / VMM. Lowering a pin
/// means an execution was lost; raising one needs the new executions
/// shown.
#[test]
fn await_clients_keep_every_execution() {
    use vsync::locks::registry;
    let pins = [("ticketlock", [46, 46, 46]), ("twalock", [126, 126, 198]), ("semaphore", [666; 3])];
    for (lock, pins) in pins {
        let p = registry::entry(lock).expect("a catalog lock").client(3, 1);
        for (model, pin) in ModelKind::all().into_iter().zip(pins) {
            let cfg = AmcConfig::with_model(model).with_symmetry(false).with_workers(1);
            let r = explore(&p, &cfg);
            assert!(r.is_verified(), "{lock}-3t ({model}): {}", r.verdict);
            assert_eq!(r.stats.complete_executions, pin, "{lock}-3t ({model})");
        }
    }
}

/// Bug-finding verdict kinds are stable across workers and checkers.
#[test]
fn study_case_verdicts_stable_across_configurations() {
    use vsync::core::Verdict;
    use vsync::locks::model::{dpdk_scenario, huawei_scenario};
    let kind_of = |v: &Verdict| match v {
        Verdict::Verified => "verified",
        Verdict::Safety(_) => "safety",
        Verdict::AwaitTermination(_) => "await-termination",
        Verdict::Fault(_) => "fault",
        Verdict::Inconclusive(_) => "inconclusive",
        Verdict::Error(_) => "error",
    };
    for (name, p) in [("dpdk", dpdk_scenario(false)), ("huawei", huawei_scenario(false))] {
        let base = explore(&p, &AmcConfig::default());
        let base_kind = kind_of(&base.verdict);
        assert_ne!(base_kind, "verified", "{name} is a bug scenario");
        let reference = explore(&p, &AmcConfig::default().with_reference_checker());
        assert_eq!(kind_of(&reference.verdict), base_kind, "{name}: reference");
        for workers in [2usize, 8] {
            let r = explore(&p, &AmcConfig::default().with_workers(workers));
            assert_eq!(kind_of(&r.verdict), base_kind, "{name}: workers={workers}");
        }
    }
}

/// The fixed study-case variants verify under every configuration.
#[test]
fn fixed_study_cases_verify_in_parallel() {
    use vsync::locks::model::{dpdk_scenario, huawei_scenario};
    for (name, p) in [("dpdk", dpdk_scenario(true)), ("huawei", huawei_scenario(true))] {
        for workers in [1usize, 4] {
            let r = explore(&p, &AmcConfig::default().with_workers(workers));
            assert!(r.is_verified(), "{name} workers={workers}: {}", r.verdict);
        }
    }
}

/// One tiny random straight-line program as op lists: 1–2 threads, 1–3
/// operations each over two locations (kept small so the enumerator
/// stays fast in debug builds).
fn random_threads(rng: &mut Rng) -> Vec<Vec<Op>> {
    (0..1 + rng.below(2))
        .map(|_| {
            (0..1 + rng.below(3))
                .map(|_| {
                    let op = rng.next();
                    let loc = LOCS[(op >> 8) as usize % LOCS.len()];
                    let val = 1 + (op >> 16) % 3;
                    match op % 5 {
                        0 => Op::Load(loc, mode(&mut Rng(op), 0)),
                        1 => Op::Store(loc, val, mode(&mut Rng(op), 1)),
                        2 => Op::FetchAdd(loc, val, mode(&mut Rng(op), 2)),
                        3 => Op::Cas(loc, (op >> 24) % 2, val, mode(&mut Rng(op), 2)),
                        _ => Op::Fence(mode(&mut Rng(op), 2)),
                    }
                })
                .collect()
        })
        .collect()
}

/// The revisit-driven search collects exactly the enumerator's set of
/// complete executions on 600 random programs: as canonical bytes with
/// symmetry off, as orbits (`canonical_hash_modulo`) with it on. Its
/// `complete_executions` is the size of that set and it leaves no graph
/// blocked. Each seed cycles through the model matrix, the worker counts
/// {1, 2, 8} and both symmetry settings.
#[test]
fn revisit_agrees_with_enumerate_on_random_programs() {
    for seed in 0..600u64 {
        let mut rng = Rng(seed.wrapping_mul(0x5851f42d4c957f2d).wrapping_add(0x9e3779b97f4a7c15));
        let threads = random_threads(&mut rng);
        let p = enumerate::program("random", &threads);
        let model = ModelKind::all()[seed as usize % 3];
        let workers = [1usize, 2, 8][(seed / 3) as usize % 3];
        let symmetry = seed % 2 == 0;
        let tag = format!("seed {seed} ({model}, workers={workers}, symmetry={symmetry})");
        let cfg = AmcConfig::with_model(model).with_symmetry(symmetry).with_workers(workers);
        let r = explore(&p, &cfg.collecting());
        assert!(r.is_verified(), "{tag}: {}", r.verdict);
        let partition = p.symmetry_partition();
        let key = |g: &ExecutionGraph| match symmetry {
            true => canonical_hash_modulo(g, &partition).to_le_bytes().to_vec(),
            false => canonical_bytes(g),
        };
        let engine: BTreeSet<Vec<u8>> = r.executions.iter().map(key).collect();
        let oracle: BTreeSet<Vec<u8>> =
            enumerate::executions(&threads, model.model()).iter().map(key).collect();
        assert!(
            engine == oracle,
            "{tag}: engine {} executions, enumerator {}\n{threads:?}",
            engine.len(),
            oracle.len()
        );
        assert_eq!(r.stats.complete_executions, engine.len() as u64, "{tag}: complete executions");
        assert_eq!(r.stats.blocked_graphs, 0, "{tag}: blocked graphs");
    }
}

/// The broken study cases report one violation message, the same for
/// every worker count and symmetry setting: the counterexample (and its
/// rendered message) is not an artifact of the search order.
#[test]
fn study_case_violation_messages_are_stable_across_configurations() {
    use vsync::core::Verdict;
    use vsync::locks::model::{dpdk_scenario, huawei_scenario};
    let msg_of = |name: &str, v: &Verdict| match v {
        Verdict::Safety(ce) | Verdict::AwaitTermination(ce) => ce.message.clone(),
        v => panic!("{name}: broken study case must violate, got {v}"),
    };
    for (name, p, expected) in [
        (
            "dpdk",
            dpdk_scenario(false),
            "await never terminates: blocked read(s) T0.7@0x1008 cannot observe any new write",
        ),
        (
            "huawei",
            huawei_scenario(false),
            "final-state check failed: both increments visible (no data corruption) \
             (final value of 0x200 is 1)",
        ),
    ] {
        for symmetry in [true, false] {
            for workers in [1usize, 2, 8] {
                let cfg = AmcConfig::default().with_symmetry(symmetry).with_workers(workers);
                assert_eq!(
                    msg_of(name, &explore(&p, &cfg).verdict),
                    expected,
                    "{name}: workers={workers} symmetry={symmetry}"
                );
            }
        }
    }
}

/// A pre-fired cancel token and an already-expired deadline interrupt
/// the revisit search promptly, sequentially and in parallel — the
/// engine polls its controls between chain steps, not just between work
/// items, so a long revisit chain cannot delay the stop.
#[test]
fn prefired_interrupts_stop_the_revisit_search_promptly() {
    use std::time::Instant;
    use vsync::core::{explore_with, CancelToken, RunControl, StopReason, Verdict};
    use vsync::locks::model::{mutex_client, McsLock};
    // Big enough that an uninterrupted debug run takes seconds: a hang
    // here would mean the interrupt was only honored between chains.
    let p = mutex_client(&McsLock::default(), 3, 1);
    for workers in [1usize, 2, 8] {
        let fired = CancelToken::new();
        fired.cancel();
        let t0 = Instant::now();
        let r = explore_with(&p, &AmcConfig::default().with_workers(workers), &RunControl::with_cancel(fired));
        let Verdict::Inconclusive(i) = &r.verdict else {
            panic!("workers={workers}: expected inconclusive, got {}", r.verdict)
        };
        assert_eq!(i.reason, StopReason::Cancelled, "workers={workers}");
        assert!(t0.elapsed().as_secs() < 5, "workers={workers}: cancel was not prompt");

        let t0 = Instant::now();
        let r = explore_with(
            &p,
            &AmcConfig::default().with_workers(workers),
            &RunControl::with_deadline(Instant::now()),
        );
        let Verdict::Inconclusive(i) = &r.verdict else {
            panic!("workers={workers}: expected inconclusive, got {}", r.verdict)
        };
        assert_eq!(i.reason, StopReason::DeadlineExceeded, "workers={workers}");
        assert!(t0.elapsed().as_secs() < 5, "workers={workers}: deadline was not prompt");
    }
}

/// The frontier is one stack per worker plus a pool that is fed only on
/// demand. (1) Donation actually happens: on qspinlock-3t at two workers
/// both workers report processed steps in their `stats_delta` events.
/// (2) `frontier_dropped` counts the roots abandoned on *every* stack: a
/// `max_graphs`-stopped one-worker run of mcs-3t reports the pinned
/// `(explored, frontier_dropped)` pairs — the one-worker search is
/// deterministic — and with more workers — where a stop finds the pool
/// empty and the roots on the workers' own stacks — the count stays
/// positive.
#[test]
fn worker_local_frontiers_share_work_and_account_for_every_root() {
    use std::sync::{Arc, Mutex};
    use vsync::core::{EventKind as BusEvent, Session, Verdict};
    use vsync::locks::model::{mutex_client, McsLock};
    use vsync::locks::SessionExt as _;

    let popped: Arc<Mutex<[u64; 2]>> = Arc::default();
    let sink = Arc::clone(&popped);
    let report = Session::lock("qspinlock", 3, 1)
        .workers(2)
        .on_event(move |ev| {
            if let BusEvent::StatsDelta { worker, stats } = &ev.kind {
                sink.lock().unwrap()[*worker] += stats.popped;
            }
        })
        .run();
    assert!(report.is_verified());
    let popped = *popped.lock().unwrap();
    assert!(popped[0] > 0 && popped[1] > 0, "one worker did everything: {popped:?}");
    assert_eq!(popped[0] + popped[1], 61_948, "the pinned qspinlock-3t step count");

    let p = mutex_client(&McsLock::default(), 3, 1);
    let stopped = |cap: u64, workers: usize| {
        let mut cfg = AmcConfig::default().with_workers(workers);
        cfg.max_graphs = cap;
        match explore(&p, &cfg).verdict {
            Verdict::Inconclusive(i) => (i.explored, i.frontier_dropped),
            v => panic!("max_graphs={cap} workers={workers}: expected inconclusive, got {v}"),
        }
    };
    for (cap, pair) in [(100, (101, 6)), (500, (501, 18)), (2000, (2001, 40))] {
        assert_eq!(stopped(cap, 1), pair, "max_graphs={cap}");
        for workers in [2usize, 8] {
            let (explored, dropped) = stopped(cap, workers);
            assert!(explored > cap, "max_graphs={cap} workers={workers}");
            assert!(dropped > 0, "max_graphs={cap} workers={workers}: stacks not counted");
        }
    }
}
