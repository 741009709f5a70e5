//! [`ChainReplay::advance`] against the from-scratch interpreter.
//!
//! A chain is walked the way the explorer walks it — `reset` at the start,
//! one event pushed on a ready thread, `advance` for that thread — and
//! after *every* step the carried outcome must equal what
//! [`replay_with_budget`] reports for a copy of the same graph: statuses
//! (pending ops, `prev_rf`, fault messages) and the graph itself (replay repairs derived read flags in place). The walks run
//! over 600 seeded random programs and over directed programs for the
//! places where resuming mid-instruction can go wrong. [`ChainReplay::rewind`]
//! is held to the same oracle: walks that take a random number of steps
//! back (the graph first, then the interpreter) must find the statuses a
//! from-scratch replay of the shortened graph reports.

use vsync_graph::{EventId, EventKind, ExecutionGraph, Loc, Mode, RfSource};
use vsync_lang::{
    replay_with_budget, ChainReplay, PendingOp, Program, ProgramBuilder, Reg, RmwOp, Test,
    ThreadStatus, DEFAULT_STEP_BUDGET,
};

/// SplitMix64, as in `tests/differential.rs`.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }
}

const X: Loc = 0x10;
const Y: Loc = 0x20;

/// How to realize a thread's pending op.
#[derive(Clone, Copy)]
enum Choice {
    /// Read from the `k`-th write of the location in extended mo order
    /// (`0` = init); `None` = `⊥`.
    Rf(Option<usize>),
    /// Place a plain write at this mo position (RMW write parts always
    /// land right after their source).
    Mo(usize),
    /// Fences, errors, RMW write parts, mo-maximal plain writes.
    Auto,
}

/// A chain under test: the graph, the carried replay, what was observed.
struct Walk<'p> {
    prog: &'p Program,
    budget: usize,
    g: ExecutionGraph,
    chain: ChainReplay,
    /// What each `advance` pushed, oldest first: its thread and, for a
    /// write, the location and mo index.
    pushed: Vec<(u32, Option<(Loc, usize)>)>,
    steps: usize,
    /// Did the walk repeat an await's previous source (a wasteful
    /// iteration, which the explorer never generates)?
    repeated: bool,
    saw_fault: bool,
}

impl<'p> Walk<'p> {
    fn new(prog: &'p Program, budget: usize) -> Self {
        let g = ExecutionGraph::new(prog.num_threads(), prog.init().clone());
        let mut w = Walk {
            prog,
            budget,
            g,
            chain: ChainReplay::default(),
            pushed: Vec::new(),
            steps: 0,
            repeated: false,
            saw_fault: false,
        };
        w.chain.reset(prog, &mut w.g, budget);
        w.check("reset");
        w
    }

    /// The carried outcome equals a fresh replay of a copy of the graph,
    /// and that replay finds nothing left to repair.
    fn check(&mut self, what: &str) {
        let mut copy = self.g.clone();
        let fresh = replay_with_budget(self.prog, &mut copy, self.budget);
        let carried = self.chain.outcome();
        assert_eq!(carried.threads, fresh.threads, "{what}: statuses\n{}", self.g.render());
        assert_eq!(self.g, copy, "{what}: repaired flags");
        self.saw_fault |= fresh.fault().is_some();
    }

    fn status(&self, t: u32) -> &ThreadStatus {
        &self.chain.outcome().threads[t as usize]
    }

    fn pending(&self, t: u32) -> PendingOp {
        match self.status(t) {
            ThreadStatus::Ready(op) => op.clone(),
            s => panic!("T{t} is not ready: {s:?}"),
        }
    }

    fn source(&self, loc: Loc, k: usize) -> EventId {
        k.checked_sub(1).map_or(EventId::Init(loc), |i| self.g.mo(loc)[i])
    }

    /// Push the pending event of `t` as `choice` says — with stale derived
    /// flags when `stale_flags` is set, as a revisit leaves them — then
    /// `advance` and compare.
    fn push(&mut self, t: u32, choice: Choice, stale_flags: bool) {
        let mut slot = None;
        match self.pending(t) {
            PendingOp::Read { loc, mode, desc, .. } => {
                let rf = match choice {
                    Choice::Rf(Some(k)) => RfSource::Write(self.source(loc, k)),
                    Choice::Rf(None) => RfSource::Bottom,
                    _ => panic!("a read needs an rf choice"),
                };
                let rmw =
                    rf.event().is_some_and(|w| desc.write_on(self.g.write_value(w)).is_some());
                let (rmw, awaiting) =
                    if stale_flags { (!rmw, !desc.is_await()) } else { (rmw, desc.is_await()) };
                self.g.push_event(t, EventKind::Read { loc, mode, rf, rmw, awaiting });
            }
            PendingOp::Write { loc, val, mode, rmw } => {
                let pos = if rmw {
                    let read = EventId::new(t, self.g.thread_len(t) as u32 - 1);
                    let RfSource::Write(src) = self.g.rf(read) else { panic!("unresolved rmw") };
                    self.g.mo_position(src).expect("source in mo")
                } else {
                    match choice {
                        Choice::Mo(pos) => pos,
                        _ => self.g.mo(loc).len(),
                    }
                };
                let id = self.g.push_event(t, EventKind::Write { loc, val, mode, rmw });
                self.g.insert_mo(loc, id, pos);
                slot = Some((loc, pos));
            }
            PendingOp::Fence { mode } => {
                self.g.push_event(t, EventKind::Fence { mode });
            }
            PendingOp::Error { msg } => {
                self.g.push_event(t, EventKind::Error { msg });
            }
        }
        self.pushed.push((t, slot));
        self.chain.advance(self.prog, &mut self.g, t, self.budget);
        self.steps += 1;
        self.check(&format!("step {} on T{t}", self.steps));
    }

    /// Take the newest `k` steps back: their events off the graph, then
    /// their `advance`s.
    fn rewind(&mut self, k: usize) {
        for _ in 0..k {
            let (t, slot) = self.pushed.pop().expect("a step to take back");
            if let Some((loc, pos)) = slot {
                self.g.remove_mo(loc, pos);
            }
            self.g.pop_event(t);
        }
        assert_eq!(self.chain.advances(), self.pushed.len() + k);
        self.chain.rewind(self.prog, &mut self.g, self.pushed.len(), self.budget);
        self.check(&format!("{k} steps back to {}", self.pushed.len()));
    }

    /// Extend a random ready thread by a random realization of its
    /// pending op; `false` when no thread is ready.
    fn random_step(&mut self, rng: &mut Rng) -> bool {
        let ready: Vec<u32> = self.chain.outcome().ready_threads().collect();
        if ready.is_empty() {
            return false;
        }
        let t = ready[rng.below(ready.len())];
        let choice = match self.pending(t) {
            PendingOp::Read { loc, desc, prev_rf, .. } => {
                let sources = self.g.mo(loc).len() + 1;
                if desc.is_await() && rng.chance(15) {
                    Choice::Rf(None)
                } else if let (Some(RfSource::Write(w)), true) = (prev_rf, rng.chance(25)) {
                    // The wasteful repeat the explorer never generates.
                    self.repeated = true;
                    Choice::Rf(Some(self.g.mo_position(w).expect("source in mo")))
                } else {
                    Choice::Rf(Some(rng.below(sources)))
                }
            }
            PendingOp::Write { loc, rmw: false, .. } => {
                Choice::Mo(rng.below(self.g.mo(loc).len() + 1))
            }
            _ => Choice::Auto,
        };
        self.push(t, choice, rng.chance(20));
        true
    }
}

fn mode(op: u64, kind: u64) -> Mode {
    let all = [Mode::Rlx, Mode::Acq, Mode::Rel, Mode::AcqRel, Mode::Sc];
    let pick = (op >> 40) as usize;
    match kind {
        0 => [Mode::Rlx, Mode::Acq, Mode::Sc][pick % 3],
        1 => [Mode::Rlx, Mode::Rel, Mode::Sc][pick % 3],
        _ => all[pick % 5],
    }
}

/// A small random program: 1–3 threads of 1–4 operations over two
/// locations and values 0–3 — loads, stores (of registers too), RMWs whose
/// operand may be their destination, CAS, fences of every mode (relaxed
/// ones emit nothing), the three awaits, asserts and a forward branch.
fn random_program(rng: &mut Rng) -> Program {
    let mut pb = ProgramBuilder::new("random");
    for _ in 0..1 + rng.below(3) {
        let ops: Vec<u64> = (0..1 + rng.below(4)).map(|_| rng.next()).collect();
        pb.thread(move |t| {
            for r in 0..4 {
                t.mov(Reg(r), u64::from(r));
            }
            for op in ops {
                let loc = [X, Y][(op >> 8) as usize % 2];
                let val = (op >> 16) % 4;
                let r = Reg((op >> 24) as u8 % 4);
                let r2 = Reg((op >> 28) as u8 % 4);
                match op % 11 {
                    0 => t.load(r, loc, mode(op, 0)),
                    1 => t.store(loc, val, mode(op, 1)),
                    2 => t.store(loc, r2, mode(op, 1)),
                    3 => t.fetch_add(r, loc, r2, mode(op, 2)),
                    4 => t.cas(r, loc, val % 2, r2, mode(op, 2)),
                    5 => t.fence(mode(op, 2)),
                    6 => t.await_eq(r, loc, val, mode(op, 0)),
                    7 => {
                        // The second form breaks the Bounded-Effect
                        // principle on every failed iteration: a fault.
                        if op >> 32 & 1 == 0 {
                            t.await_rmw(r, loc, Test::ne(val), RmwOp::Or, val, mode(op, 2))
                        } else {
                            t.await_rmw(r, loc, Test::eq(val), RmwOp::Add, 1u64, mode(op, 2))
                        }
                    }
                    8 => t.await_cas(r, loc, val, r2, mode(op, 2)),
                    9 => t.assert(r, Test::ne(val), "random assert"),
                    _ => {
                        let skip = t.label();
                        t.jmp_if(r, Test::eq(val), skip);
                        t.store(loc, 3u64, Mode::Rlx);
                        t.bind(skip)
                    }
                };
            }
        });
    }
    pb.build().expect("generated program is well-formed")
}

#[test]
fn advance_equals_replay_on_random_chains() {
    let (mut steps, mut repeated, mut faults, mut blocked) = (0, 0, 0, 0);
    for seed in 0..600u64 {
        let mut rng = Rng(seed.wrapping_mul(0x5851f42d4c957f2d).wrapping_add(0x9e3779b97f4a7c15));
        let prog = random_program(&mut rng);
        for _ in 0..3 {
            let mut walk = Walk::new(&prog, DEFAULT_STEP_BUDGET);
            while walk.steps < 24 && walk.random_step(&mut rng) {}
            steps += walk.steps;
            repeated += usize::from(walk.repeated);
            faults += usize::from(walk.saw_fault);
            blocked += usize::from(walk.chain.outcome().blocked().next().is_some());
        }
    }
    // Vacuity guards: the walks reach the interesting statuses.
    assert!(steps >= 8000, "only {steps} steps");
    assert!(repeated >= 50, "only {repeated} walks repeat an await source");
    assert!(faults >= 20, "only {faults} faulting walks");
    assert!(blocked >= 50, "only {blocked} walks ending blocked");
}

/// Rewinding is exact: walks that go forward and back at random — and,
/// after going back, forward again along other choices, as the explorer
/// enters a choice point — report after every rewind what a from-scratch
/// replay of the shortened graph reports.
#[test]
fn rewind_equals_replay_on_random_chains() {
    let (mut rewinds, mut deep) = (0, 0);
    for seed in 0..600u64 {
        let mut rng = Rng(seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(0x5851f42d4c957f2d));
        let prog = random_program(&mut rng);
        let mut walk = Walk::new(&prog, DEFAULT_STEP_BUDGET);
        for _ in 0..40 {
            if !walk.pushed.is_empty() && rng.chance(30) {
                let k = 1 + rng.below(walk.pushed.len());
                walk.rewind(k);
                rewinds += 1;
                deep += usize::from(k >= 3);
            } else if !walk.random_step(&mut rng) && walk.pushed.is_empty() {
                break;
            }
        }
    }
    // Vacuity guards: rewinds happen, many of them several steps deep.
    assert!(rewinds >= 1500, "only {rewinds} rewinds");
    assert!(deep >= 500, "only {deep} rewinds of three steps or more");
}

fn build(f: impl FnOnce(&mut ProgramBuilder)) -> Program {
    let mut pb = ProgramBuilder::new("directed");
    f(&mut pb);
    pb.build().expect("well-formed")
}

/// An await resumed after `k` failed iterations re-derives `prev_rf` from
/// the iterations it re-consumes.
#[test]
fn await_resumes_across_failed_iterations() {
    let prog = build(|pb| {
        pb.thread(|t| {
            t.await_eq(Reg(0), X, 3u64, Mode::Acq);
            t.store(Y, Reg(0), Mode::Rlx);
        });
        pb.thread(|t| {
            t.store(X, 1u64, Mode::Rlx);
            t.store(X, 3u64, Mode::Rel);
        });
    });
    let mut w = Walk::new(&prog, DEFAULT_STEP_BUDGET);
    w.push(1, Choice::Auto, false);
    w.push(1, Choice::Auto, false);
    w.push(0, Choice::Rf(Some(0)), false); // init: fails
    w.push(0, Choice::Rf(Some(1)), false); // x = 1: fails
    let first = w.g.mo(X)[0];
    assert!(
        matches!(w.pending(0), PendingOp::Read { prev_rf: Some(RfSource::Write(p)), .. } if p == first)
    );
    w.push(0, Choice::Rf(Some(1)), true); // the same write again: wasteful
    w.push(0, Choice::Rf(None), false); // ⊥: blocked
    assert!(
        matches!(w.status(0), ThreadStatus::Blocked(b) if b.prev_rf == Some(RfSource::Write(first)))
    );

    // A clean run exits with the value read.
    let mut w = Walk::new(&prog, DEFAULT_STEP_BUDGET);
    w.push(1, Choice::Auto, false);
    w.push(1, Choice::Auto, false);
    w.push(0, Choice::Rf(Some(1)), false);
    w.push(0, Choice::Rf(Some(2)), false);
    assert!(matches!(w.pending(0), PendingOp::Write { loc: Y, val: 3, .. }));
    w.push(0, Choice::Auto, false);
    assert_eq!(w.status(0), &ThreadStatus::Finished);
}

/// An `await_rmw` that exits is resumed between its read and its write
/// part; its destination is written only once both are there.
#[test]
fn await_rmw_exit_resumes_at_the_write_part() {
    let prog = build(|pb| {
        pb.thread(|t| {
            t.mov(Reg(0), 9u64);
            t.await_rmw(Reg(0), X, Test::eq(0u64), RmwOp::Xchg, Reg(0), Mode::AcqRel);
            t.assert_eq(Reg(0), 0u64, "old value");
        });
    });
    let mut w = Walk::new(&prog, DEFAULT_STEP_BUDGET);
    w.push(0, Choice::Rf(Some(0)), true);
    assert!(matches!(w.pending(0), PendingOp::Write { loc: X, val: 9, rmw: true, .. }));
    w.push(0, Choice::Auto, false);
    assert_eq!(w.status(0), &ThreadStatus::Finished);
}

#[test]
fn cas_success_and_failure() {
    let prog = build(|pb| {
        pb.thread(|t| {
            t.cas(Reg(0), X, 0u64, 5u64, Mode::Sc);
            t.cas(Reg(1), X, 0u64, 7u64, Mode::Sc);
            t.assert_eq(Reg(1), 5u64, "failed cas returns what it read");
            t.store(Y, Reg(0), Mode::Rlx);
        });
    });
    let mut w = Walk::new(&prog, DEFAULT_STEP_BUDGET);
    w.push(0, Choice::Rf(Some(0)), false);
    assert!(matches!(w.pending(0), PendingOp::Write { val: 5, rmw: true, .. }));
    w.push(0, Choice::Auto, false);
    w.push(0, Choice::Rf(Some(1)), true); // reads 5: no write part
    assert!(matches!(w.pending(0), PendingOp::Write { loc: Y, val: 0, rmw: false, .. }));
    w.push(0, Choice::Auto, false);
    assert_eq!(w.status(0), &ThreadStatus::Finished);
}

#[test]
fn relaxed_fence_emits_no_event_and_failed_assert_errors() {
    let prog = build(|pb| {
        pb.thread(|t| {
            t.fence(Mode::Rlx);
            t.fence(Mode::Sc);
            t.fence(Mode::Rlx);
            t.load(Reg(0), X, Mode::Rlx);
            t.assert_eq(Reg(0), 1u64, "x must be 1");
            t.store(Y, 1u64, Mode::Rlx);
        });
    });
    let mut w = Walk::new(&prog, DEFAULT_STEP_BUDGET);
    assert!(matches!(w.pending(0), PendingOp::Fence { mode: Mode::Sc }));
    w.push(0, Choice::Auto, false);
    assert!(matches!(w.pending(0), PendingOp::Read { loc: X, .. }));
    w.push(0, Choice::Rf(Some(0)), false);
    assert!(matches!(w.pending(0), PendingOp::Error { .. }));
    w.push(0, Choice::Auto, false);
    assert_eq!(w.status(0), &ThreadStatus::Errored);
}

/// `r1 = rmw.add x, r1`: resumed after its read part, the operand must
/// still be the old `r1`, not the value just read.
#[test]
fn rmw_operand_may_alias_its_destination() {
    let prog = build(|pb| {
        pb.init(X, 10);
        pb.thread(|t| {
            t.mov(Reg(1), 3u64);
            t.fetch_add(Reg(1), X, Reg(1), Mode::Rlx);
            t.mov(Reg(2), 7u64);
            t.cas(Reg(2), X, 13u64, Reg(2), Mode::Rlx);
            t.store(Y, Reg(1), Mode::Rlx);
        });
    });
    let mut w = Walk::new(&prog, DEFAULT_STEP_BUDGET);
    w.push(0, Choice::Rf(Some(0)), false);
    assert!(matches!(w.pending(0), PendingOp::Write { loc: X, val: 13, rmw: true, .. }));
    w.push(0, Choice::Auto, false);
    // The CAS reads the 13 it expects: its write part stores the old r2.
    w.push(0, Choice::Rf(Some(1)), false);
    assert!(matches!(w.pending(0), PendingOp::Write { loc: X, val: 7, rmw: true, .. }));
    w.push(0, Choice::Auto, false);
    assert!(matches!(w.pending(0), PendingOp::Write { loc: Y, val: 10, rmw: false, .. }));
}

/// The step count travels with the cursor: a loop that exhausts the budget
/// faults at the same step, with the same message, as a from-scratch
/// replay of the same graph.
#[test]
fn step_budget_is_exhausted_across_advances() {
    let prog = build(|pb| {
        pb.thread(|t| {
            t.mov(Reg(1), 0u64);
            let head = t.here_label();
            t.load(Reg(0), X, Mode::Rlx);
            t.add(Reg(1), Reg(1), 1u64);
            t.jmp_if(Reg(1), Test::ne(100u64), head);
        });
    });
    let mut w = Walk::new(&prog, 20);
    let mut pushed = 0;
    while w.status(0).is_ready() {
        w.push(0, Choice::Rf(Some(0)), false);
        pushed += 1;
    }
    assert!(matches!(w.status(0), ThreadStatus::Fault(m) if m.contains("step budget")));
    assert_eq!(pushed, 7, "1 + 3 steps per iteration against a budget of 20");
}
