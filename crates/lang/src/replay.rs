//! Graph-driven replay: the operational face of `consP(G)` (paper §2.1.2).
//!
//! Threads are deterministic once every read value is fixed, so a thread's
//! state can be reconstructed by executing its code against the events
//! already in the graph. Replay reports, per thread, whether it has
//! finished, which event it would generate next ([`ThreadStatus::Ready`]),
//! or that it is blocked on an await read with a `⊥` reads-from edge.
//!
//! Replay is also where the paper's two side conditions are enforced:
//!
//! * the **wasteful filter** `W(G)` — an await must not read from the
//!   same write in two consecutive iterations (Def. 2). Replay reports the
//!   previous iteration's source as `prev_rf`, and the explorer never
//!   generates the repeat, so no graph it builds is wasteful;
//! * the **Bounded-Effect principle** — a failed `await_rmw` iteration
//!   whose elided write would have changed the value is a modeling fault
//!   (Def. 3, footnote 9).
//!
//! ## Replay along a chain
//!
//! The explorer grows a graph one event at a time and needs the statuses
//! after every step. A thread's interpretation depends only on its own
//! events and the values they read, so pushing an event on thread `t`
//! changes nothing for the others: [`ChainReplay`] keeps, per thread, a
//! **cursor** — registers, pc, consumed-event count and step count *at the
//! start of the instruction the thread stopped in* — and
//! [`ChainReplay::advance`] re-runs only `t` from there. The cursor sits at
//! an instruction boundary because an instruction is the unit that can be
//! re-executed from its inputs: an RMW stopped between its read and its
//! write part has not written its destination register yet (`r1 = rmw.add
//! x, r1` must still see the old `r1`), and an await stopped after `k`
//! failed iterations re-derives `prev_rf` by re-consuming them. [`ChainReplay::reset`] is the from-scratch replay of
//! every thread — [`replay_with_budget`] is exactly that on a fresh
//! `ChainReplay`, so there is one interpreter loop.
//!
//! The explorer also *backtracks* along a chain: it pops events and
//! enters another alternate of an earlier step. Every `advance` keeps the
//! cursor it moved — pc, event and step counts, and only the registers the
//! advance changed — and [`ChainReplay::rewind`] puts the cursors back.
//! Statuses are not kept: a status is a function of its cursor and the
//! graph, so `rewind` re-runs each moved thread once, from its restored
//! cursor, against the graph as it was.

use vsync_graph::{EventId, EventKind, ExecutionGraph, Loc, Mode, RfSource, Value};

use crate::insn::{Addr, Instr, Operand, Reg, ResolvedTest, RmwOp, Test, NUM_REGS};
use crate::program::Program;

/// What kind of read a pending read event is — enough for the explorer to
/// derive the event flags for any candidate reads-from choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadDesc {
    /// A plain load; never writes.
    Plain,
    /// The read part of an unconditional RMW; always followed by a write.
    Rmw {
        /// Update operation.
        op: RmwOp,
        /// Resolved operand.
        operand: Value,
    },
    /// The read part of a CAS; writes `new` iff the value equals `expected`.
    Cas {
        /// Expected value.
        expected: Value,
        /// Replacement value.
        new: Value,
    },
    /// A polling read of `await_load`; exits when `exit` holds.
    AwaitLoad {
        /// Exit condition.
        exit: ResolvedTest,
    },
    /// A polling read of `await_rmw`; on exit performs the RMW.
    AwaitRmw {
        /// Exit condition on the old value.
        exit: ResolvedTest,
        /// Update operation.
        op: RmwOp,
        /// Resolved operand.
        operand: Value,
    },
    /// A polling read of `await_cas`.
    AwaitCas {
        /// Expected value (also the exit condition).
        expected: Value,
        /// Replacement value.
        new: Value,
    },
}

impl ReadDesc {
    /// Is this read polled by an await instruction?
    pub fn is_await(self) -> bool {
        matches!(
            self,
            ReadDesc::AwaitLoad { .. } | ReadDesc::AwaitRmw { .. } | ReadDesc::AwaitCas { .. }
        )
    }

    /// Does the await exit (or the instruction complete) after reading `v`?
    /// Non-await reads always "exit".
    pub fn exits(self, v: Value) -> bool {
        match self {
            ReadDesc::Plain | ReadDesc::Rmw { .. } | ReadDesc::Cas { .. } => true,
            ReadDesc::AwaitLoad { exit } | ReadDesc::AwaitRmw { exit, .. } => exit.eval(v),
            ReadDesc::AwaitCas { expected, .. } => v == expected,
        }
    }

    /// The value written by the instruction's write part after reading `v`,
    /// or `None` if no write part follows.
    pub fn write_on(self, v: Value) -> Option<Value> {
        match self {
            ReadDesc::Plain | ReadDesc::AwaitLoad { .. } => None,
            ReadDesc::Rmw { op, operand } => Some(op.apply(v, operand)),
            ReadDesc::Cas { expected, new } => (v == expected).then_some(new),
            ReadDesc::AwaitRmw { exit, op, operand } => {
                exit.eval(v).then(|| op.apply(v, operand))
            }
            ReadDesc::AwaitCas { expected, new } => (v == expected).then_some(new),
        }
    }

    /// The Bounded-Effect principle check for failed await iterations: the
    /// elided write of a failed `await_rmw` iteration must preserve the
    /// value.
    pub fn bounded_effect_ok(self, v: Value) -> bool {
        match self {
            ReadDesc::AwaitRmw { exit, op, operand } => {
                exit.eval(v) || op.apply(v, operand) == v
            }
            _ => true,
        }
    }
}

/// The next event a runnable thread would generate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PendingOp {
    /// A read of `loc`; the explorer chooses the reads-from edge.
    Read {
        /// Location.
        loc: Loc,
        /// Barrier mode.
        mode: Mode,
        /// Read semantics.
        desc: ReadDesc,
        /// For await reads: the reads-from source of the previous failed
        /// iteration of this await instance (for the wasteful filter).
        prev_rf: Option<RfSource>,
    },
    /// A write of `val` to `loc` (value fully determined).
    Write {
        /// Location.
        loc: Loc,
        /// Value.
        val: Value,
        /// Barrier mode.
        mode: Mode,
        /// Is this the write part of an RMW?
        rmw: bool,
    },
    /// A fence.
    Fence {
        /// Strength.
        mode: Mode,
    },
    /// A failed assertion about to generate an error event.
    Error {
        /// Message.
        msg: String,
    },
}

/// A thread stuck on an await read whose reads-from edge is `⊥`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockedAwait {
    /// The pending read event (already in the graph).
    pub read: EventId,
    /// Polled location.
    pub loc: Loc,
    /// Barrier mode of the polling read.
    pub mode: Mode,
    /// Read semantics (used by the stagnancy analysis).
    pub desc: ReadDesc,
    /// Reads-from source of the previous failed iteration, if any.
    pub prev_rf: Option<RfSource>,
}

/// Status of one thread after replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ThreadStatus {
    /// Control left the program text; the thread terminated.
    Finished,
    /// The thread's next step generates this event, not yet in the graph.
    Ready(PendingOp),
    /// The thread is blocked inside an await (paper: removed from `T_G`).
    Blocked(BlockedAwait),
    /// The thread executed an error event (failed assertion).
    Errored,
    /// The program violated a modeling obligation (Bounded-Effect or
    /// Bounded-Length principle, or an internal replay mismatch).
    Fault(String),
}

impl ThreadStatus {
    /// Is the thread runnable (would generate a new event)?
    pub fn is_ready(&self) -> bool {
        matches!(self, ThreadStatus::Ready(_))
    }
}

/// Result of replaying a whole program against a graph.
#[derive(Debug, Clone, Default)]
pub struct ReplayOutcome {
    /// Per-thread statuses.
    pub threads: Vec<ThreadStatus>,
}

impl ReplayOutcome {
    /// Indices of ready threads.
    pub fn ready_threads(&self) -> impl Iterator<Item = u32> + '_ {
        self.threads
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_ready())
            .map(|(t, _)| t as u32)
    }

    /// The blocked awaits of all threads.
    pub fn blocked(&self) -> impl Iterator<Item = &BlockedAwait> + '_ {
        self.threads.iter().filter_map(|s| match s {
            ThreadStatus::Blocked(b) => Some(b),
            _ => None,
        })
    }

    /// First fault, if any thread faulted.
    pub fn fault(&self) -> Option<&str> {
        self.threads.iter().find_map(|s| match s {
            ThreadStatus::Fault(m) => Some(m.as_str()),
            _ => None,
        })
    }

    /// Did any thread consume an error event?
    pub fn errored(&self) -> bool {
        self.threads.iter().any(|s| matches!(s, ThreadStatus::Errored))
    }
}

/// Maximum instructions one thread may execute in a single replay before
/// the Bounded-Length principle is considered violated.
pub const DEFAULT_STEP_BUDGET: usize = 200_000;

/// Replay `prog` against `g`.
///
/// Read-event flags (`rmw`, `awaiting`) are *derived* data: replay repairs
/// them in place when a revisit changed a read's value (and with it whether
/// a write part follows).
pub fn replay(prog: &Program, g: &mut ExecutionGraph) -> ReplayOutcome {
    replay_with_budget(prog, g, DEFAULT_STEP_BUDGET)
}

/// [`replay`] with an explicit per-thread step budget.
pub fn replay_with_budget(
    prog: &Program,
    g: &mut ExecutionGraph,
    budget: usize,
) -> ReplayOutcome {
    let mut chain = ChainReplay::default();
    chain.reset(prog, g, budget);
    chain.outcome
}

/// Replay `prog` against a graph that was recorded under a *different
/// barrier assignment* of the same program, adopting `prog`'s modes.
///
/// Event kinds, values, reads-from edges and modification orders must
/// still match what `prog` would generate — modes are the only tolerated
/// difference, and each mismatching event is rewritten in place to the
/// program's mode. This is how the optimizer's witness cache re-interprets
/// a cached violating execution under a new candidate assignment: the
/// structure of the execution is mode-independent (control flow depends
/// only on values), so if the re-moded graph is still consistent and still
/// violating, it refutes the candidate without a fresh exploration.
///
/// Structural divergence *is* possible across assignments — a fence
/// relaxed to `rlx` emits no event, so a graph recorded with the fence
/// present cannot be re-interpreted without it (and vice versa). Such
/// witnesses surface as [`ThreadStatus::Fault`] mismatches and the caller
/// simply treats them as inapplicable.
pub fn replay_adopt_modes(prog: &Program, g: &mut ExecutionGraph) -> ReplayOutcome {
    let mut chain = ChainReplay::default();
    chain.run_all(prog, g, DEFAULT_STEP_BUDGET, true);
    chain.outcome
}

/// One thread's interpreter state at the start of the instruction it
/// stopped in: re-running from here against a graph that only gained
/// events of this thread yields what a from-scratch replay would.
#[derive(Debug, Clone)]
struct Cursor {
    regs: [Value; NUM_REGS],
    pc: usize,
    /// Events of the thread consumed by the instructions before `pc`.
    ev: usize,
    /// Steps charged against the budget by those instructions.
    steps: usize,
}

impl Cursor {
    const START: Cursor = Cursor { regs: [0; NUM_REGS], pc: 0, ev: 0, steps: 0 };
}

/// Replay that follows one exploration chain: the per-thread cursors and
/// the outcome of the last call (module docs, "Replay along a chain").
///
/// [`ChainReplay::reset`] interprets every thread against an arbitrary
/// graph; [`ChainReplay::advance`] answers for "that graph plus events
/// pushed on `thread`" by resuming that thread alone, and
/// [`ChainReplay::rewind`] takes the newest `advance`s back. Anything else
/// — a removed event, another thread's push — needs a `reset`, or the
/// rewind of the `advance`s that saw it. One change to a thread's
/// not-yet-consumed suffix is allowed too: its cursor sits at the start of
/// the instruction it stopped in, so re-pointing the `⊥` read a thread is
/// blocked on and then advancing that thread is exact.
#[derive(Debug, Default)]
pub struct ChainReplay {
    cursors: Vec<Cursor>,
    outcome: ReplayOutcome,
    /// One entry per `advance` since the last `reset`, newest last: the
    /// cursor the thread had before it, registers aside.
    saved: Vec<Saved>,
    /// Every register write of those `advance`s with the value it
    /// replaced, oldest first: an instruction or two's worth per
    /// `advance`, where a copy of the cursor would be all its registers.
    changed: Vec<(u8, Value)>,
    /// Scratch of [`ChainReplay::rewind`]: the threads it moved back.
    moved: Vec<bool>,
}

/// What [`ChainReplay::rewind`] restores of one `advance`: its thread's
/// cursor before it, and how many entries of `changed` it wrote.
#[derive(Debug)]
struct Saved {
    thread: u32,
    changed: u32,
    pc: u32,
    ev: u32,
    steps: usize,
}

impl ChainReplay {
    /// Replay `prog` against `g` from scratch (with the per-thread step
    /// `budget`), repairing derived read flags like [`replay`] does.
    pub fn reset(
        &mut self,
        prog: &Program,
        g: &mut ExecutionGraph,
        budget: usize,
    ) -> &ReplayOutcome {
        self.run_all(prog, g, budget, false);
        &self.outcome
    }

    /// The outcome for `g` = the graph of the previous call plus events
    /// pushed on `thread`: resumes `thread` from its cursor and replaces
    /// its status. Must be called with the `budget` of the `reset` it
    /// follows. The cursor it moves is kept for [`ChainReplay::rewind`].
    pub fn advance(
        &mut self,
        prog: &Program,
        g: &mut ExecutionGraph,
        thread: u32,
        budget: usize,
    ) -> &ReplayOutcome {
        let t = thread as usize;
        let Cursor { pc, ev, steps, .. } = self.cursors[t];
        let at = self.changed.len();
        self.outcome.threads[t] = self.run_thread(prog, g, thread, budget, Run::Logged);
        let changed = (self.changed.len() - at) as u32;
        self.saved.push(Saved { thread, changed, pc: pc as u32, ev: ev as u32, steps });
        &self.outcome
    }

    /// How many [`ChainReplay::advance`]s since the last `reset` are not
    /// taken back: what [`ChainReplay::rewind`] goes back to.
    pub fn advances(&self) -> usize {
        self.saved.len()
    }

    /// Take back every [`ChainReplay::advance`] after the first `keep`
    /// since the last `reset`. `g` must be the graph the oldest of them
    /// started from: each thread they moved goes back to its cursor
    /// before them, and its status is re-derived from there — the
    /// instruction it stopped in, run once more against `g` (a status is a
    /// function of the cursor and the graph, so it is not stored).
    pub fn rewind(&mut self, prog: &Program, g: &mut ExecutionGraph, keep: usize, budget: usize) {
        self.moved.clear();
        self.moved.resize(self.cursors.len(), false);
        while self.saved.len() > keep {
            let Saved { thread, changed, pc, ev, steps } =
                self.saved.pop().expect("an advance above `keep`");
            let cur = &mut self.cursors[thread as usize];
            let at = self.changed.len() - changed as usize;
            for &(r, old) in self.changed[at..].iter().rev() {
                cur.regs[r as usize] = old;
            }
            self.changed.truncate(at);
            (cur.pc, cur.ev, cur.steps) = (pc as usize, ev as usize, steps);
            self.moved[thread as usize] = true;
        }
        for t in 0..self.cursors.len() {
            if self.moved[t] {
                self.outcome.threads[t] = self.run_thread(prog, g, t as u32, budget, Run::Plain);
            }
        }
    }

    /// The outcome of the last [`ChainReplay::reset`] /
    /// [`ChainReplay::advance`].
    pub fn outcome(&self) -> &ReplayOutcome {
        &self.outcome
    }

    fn run_all(&mut self, prog: &Program, g: &mut ExecutionGraph, budget: usize, adopt: bool) {
        let threads = prog.num_threads();
        self.saved.clear();
        self.changed.clear();
        self.cursors.clear();
        self.cursors.resize(threads, Cursor::START);
        self.outcome.threads.clear();
        for t in 0..threads as u32 {
            let run = if adopt { Run::AdoptModes } else { Run::Plain };
            let status = self.run_thread(prog, g, t, budget, run);
            self.outcome.threads.push(status);
        }
    }

    /// Interpret `thread` from its cursor until it stops.
    fn run_thread(
        &mut self,
        prog: &Program,
        g: &mut ExecutionGraph,
        thread: u32,
        budget: usize,
        run: Run,
    ) -> ThreadStatus {
        let cur = &mut self.cursors[thread as usize];
        let instr_start = (cur.ev, cur.steps);
        let adopt_modes = run == Run::AdoptModes;
        let log = (run == Run::Logged).then_some(&mut self.changed);
        ThreadReplay { prog, thread, cur, log, instr_start, budget, adopt_modes }.run(g)
    }
}

/// How [`ChainReplay::run_thread`] runs a thread.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Run {
    Plain,
    /// Keep every register write in `ChainReplay::changed`: an `advance`.
    Logged,
    /// Adopt the program's modes ([`replay_adopt_modes`]).
    AdoptModes,
}

struct ThreadReplay<'p> {
    prog: &'p Program,
    thread: u32,
    /// Registers, pc, consumed events and steps: live while an instruction
    /// executes, rewound to the instruction's start when the thread stops
    /// in it (see [`ThreadReplay::run`]).
    cur: &'p mut Cursor,
    /// Where an `advance` keeps each register write with the value it
    /// replaced ([`ChainReplay::rewind`]).
    log: Option<&'p mut Vec<(u8, Value)>>,
    /// `(ev, steps)` of the cursor when the instruction in flight began.
    instr_start: (usize, usize),
    budget: usize,
    /// Tolerate mode-only mismatches and rewrite the graph's event modes
    /// to the program's (see [`replay_adopt_modes`]).
    adopt_modes: bool,
}

enum Consume {
    /// Event present; for reads carries the observed value.
    Got(Option<Value>),
    /// Event not in the graph: the thread is ready with this op.
    Missing(PendingOp),
    /// The event in the graph contradicts the program.
    Mismatch(String),
    /// A `⊥` read (await reads only).
    Pending,
}

impl<'p> ThreadReplay<'p> {
    fn set(&mut self, r: Reg, v: Value) {
        let old = std::mem::replace(&mut self.cur.regs[r.0 as usize], v);
        if let Some(log) = &mut self.log {
            log.push((r.0, old));
        }
    }

    fn operand(&self, o: Operand) -> Value {
        match o {
            Operand::Reg(r) => self.cur.regs[r.0 as usize],
            Operand::Imm(v) => v,
        }
    }

    fn addr(&self, a: Addr) -> Loc {
        match a {
            Addr::Imm(x) => x,
            Addr::Reg(r) => self.cur.regs[r.0 as usize],
            Addr::RegOff(r, o) => self.cur.regs[r.0 as usize].wrapping_add(o),
        }
    }

    fn test(&self, t: &Test) -> ResolvedTest {
        ResolvedTest {
            mask: t.mask.map(|m| self.operand(m)).unwrap_or(u64::MAX),
            cmp: t.cmp,
            rhs: self.operand(t.rhs),
        }
    }

    /// Try to consume the next read event of this thread.
    fn consume_read(
        &mut self,
        g: &mut ExecutionGraph,
        loc: Loc,
        mode: Mode,
        desc: ReadDesc,
        prev_rf: Option<RfSource>,
    ) -> Consume {
        let id = EventId::new(self.thread, self.cur.ev as u32);
        if self.cur.ev >= g.thread_len(self.thread) {
            return Consume::Missing(PendingOp::Read { loc, mode, desc, prev_rf });
        }
        let (eloc, emode, rf, ermw, eawait) = match &g.event(id).kind {
            EventKind::Read { loc, mode, rf, rmw, awaiting } => {
                (*loc, *mode, *rf, *rmw, *awaiting)
            }
            k => return Consume::Mismatch(format!("expected read at {id}, found {k}")),
        };
        if eloc != loc || (emode != mode && !self.adopt_modes) {
            return Consume::Mismatch(format!(
                "read at {id} accesses {eloc:#x}/{emode}, program says {loc:#x}/{mode}"
            ));
        }
        if emode != mode {
            g.set_event_mode(id, mode);
        }
        match rf {
            RfSource::Bottom => {
                if !desc.is_await() {
                    return Consume::Mismatch(format!("non-await read at {id} has ⊥ source"));
                }
                Consume::Pending
            }
            RfSource::Write(w) => {
                let v = g.write_value(w);
                // Repair derived flags (a revisit may have changed v).
                // Only touch the graph when they actually changed: a
                // redundant write would force a copy-on-write of the whole
                // thread's (usually shared) event storage.
                let (rmw, awaiting) = (desc.write_on(v).is_some(), desc.is_await());
                if (ermw, eawait) != (rmw, awaiting) {
                    g.set_read_flags(id, rmw, awaiting);
                }
                self.cur.ev += 1;
                Consume::Got(Some(v))
            }
        }
    }

    fn consume_write(
        &mut self,
        g: &mut ExecutionGraph,
        loc: Loc,
        val: Value,
        mode: Mode,
        rmw: bool,
    ) -> Consume {
        let id = EventId::new(self.thread, self.cur.ev as u32);
        if self.cur.ev >= g.thread_len(self.thread) {
            return Consume::Missing(PendingOp::Write { loc, val, mode, rmw });
        }
        let found = match &g.event(id).kind {
            EventKind::Write { loc: l, val: v, mode: m, rmw: r } => Some((*l, *v, *m, *r)),
            _ => None,
        };
        match found {
            Some((l, v, m, r))
                if l == loc && v == val && r == rmw && (m == mode || self.adopt_modes) =>
            {
                if m != mode {
                    g.set_event_mode(id, mode);
                }
                self.cur.ev += 1;
                Consume::Got(None)
            }
            _ => Consume::Mismatch(format!(
                "expected W({loc:#x},{val}) at {id}, found {}",
                g.event(id).kind
            )),
        }
    }

    fn consume_fence(&mut self, g: &mut ExecutionGraph, mode: Mode) -> Consume {
        let id = EventId::new(self.thread, self.cur.ev as u32);
        if self.cur.ev >= g.thread_len(self.thread) {
            return Consume::Missing(PendingOp::Fence { mode });
        }
        let found = match &g.event(id).kind {
            EventKind::Fence { mode: m } => Some(*m),
            _ => None,
        };
        match found {
            Some(m) if m == mode || self.adopt_modes => {
                if m != mode {
                    g.set_event_mode(id, mode);
                }
                self.cur.ev += 1;
                Consume::Got(None)
            }
            _ => Consume::Mismatch(format!(
                "expected F{mode} at {id}, found {}",
                g.event(id).kind
            )),
        }
    }

    /// Interpret from the cursor until the thread stops, and leave the
    /// cursor at the start of the instruction it stopped in. Registers and
    /// pc need no rewinding: every instruction writes its destination and
    /// advances the pc only once it has completed.
    fn run(&mut self, g: &mut ExecutionGraph) -> ThreadStatus {
        let status = self.interpret(g);
        (self.cur.ev, self.cur.steps) = self.instr_start;
        status
    }

    fn interpret(&mut self, g: &mut ExecutionGraph) -> ThreadStatus {
        let code: &'p [Instr] = self.prog.thread_code(self.thread);
        loop {
            self.instr_start = (self.cur.ev, self.cur.steps);
            if self.cur.pc >= code.len() {
                if self.cur.ev != g.thread_len(self.thread) {
                    return ThreadStatus::Fault(format!(
                        "thread {} terminated at pc {} but graph has {} extra events",
                        self.thread,
                        self.cur.pc,
                        g.thread_len(self.thread) - self.cur.ev
                    ));
                }
                return ThreadStatus::Finished;
            }
            self.cur.steps += 1;
            if self.cur.steps > self.budget {
                return ThreadStatus::Fault(format!(
                    "thread {} exceeded the step budget of {} — non-await loop? \
                     (Bounded-Length principle, paper §1.2; mark polling loops \
                     with await instructions)",
                    self.thread, self.budget
                ));
            }
            match &code[self.cur.pc] {
                Instr::Load { dst, addr, mode } => {
                    let loc = self.addr(*addr);
                    let m = self.prog.mode(*mode);
                    match self.consume_read(g, loc, m, ReadDesc::Plain, None) {
                        Consume::Got(Some(v)) => {
                            self.set(*dst, v);
                            self.cur.pc += 1;
                        }
                        Consume::Got(None) | Consume::Pending => unreachable!(),
                        Consume::Missing(op) => return ThreadStatus::Ready(op),
                        Consume::Mismatch(m) => return ThreadStatus::Fault(m),
                    }
                }
                Instr::Store { addr, src, mode } => {
                    let loc = self.addr(*addr);
                    let val = self.operand(*src);
                    let m = self.prog.mode(*mode);
                    match self.consume_write(g, loc, val, m, false) {
                        Consume::Got(_) => self.cur.pc += 1,
                        Consume::Missing(op) => return ThreadStatus::Ready(op),
                        Consume::Mismatch(m) => return ThreadStatus::Fault(m),
                        Consume::Pending => unreachable!(),
                    }
                }
                Instr::Rmw { dst, addr, op, operand, mode } => {
                    let loc = self.addr(*addr);
                    let m = self.prog.mode(*mode);
                    let desc = ReadDesc::Rmw { op: *op, operand: self.operand(*operand) };
                    match self.consume_read(g, loc, m, desc, None) {
                        Consume::Got(Some(v)) => {
                            let new = desc.write_on(v).expect("rmw always writes");
                            match self.consume_write(g, loc, new, m, true) {
                                Consume::Got(_) => {}
                                Consume::Missing(op) => return ThreadStatus::Ready(op),
                                Consume::Mismatch(m) => return ThreadStatus::Fault(m),
                                Consume::Pending => unreachable!(),
                            }
                            // Only now: stopped at the write part, the
                            // instruction restarts and `operand` may be `dst`.
                            self.set(*dst, v);
                            self.cur.pc += 1;
                        }
                        Consume::Got(None) | Consume::Pending => unreachable!(),
                        Consume::Missing(op) => return ThreadStatus::Ready(op),
                        Consume::Mismatch(m) => return ThreadStatus::Fault(m),
                    }
                }
                Instr::Cas { dst, addr, expected, new, mode } => {
                    let loc = self.addr(*addr);
                    let m = self.prog.mode(*mode);
                    let desc = ReadDesc::Cas {
                        expected: self.operand(*expected),
                        new: self.operand(*new),
                    };
                    match self.consume_read(g, loc, m, desc, None) {
                        Consume::Got(Some(v)) => {
                            if let Some(nv) = desc.write_on(v) {
                                match self.consume_write(g, loc, nv, m, true) {
                                    Consume::Got(_) => {}
                                    Consume::Missing(op) => return ThreadStatus::Ready(op),
                                    Consume::Mismatch(m) => return ThreadStatus::Fault(m),
                                    Consume::Pending => unreachable!(),
                                }
                            }
                            self.set(*dst, v);
                            self.cur.pc += 1;
                        }
                        Consume::Got(None) | Consume::Pending => unreachable!(),
                        Consume::Missing(op) => return ThreadStatus::Ready(op),
                        Consume::Mismatch(m) => return ThreadStatus::Fault(m),
                    }
                }
                Instr::Fence { mode } => {
                    let m = self.prog.mode(*mode);
                    if m == Mode::Rlx {
                        self.cur.pc += 1; // relaxed fences are no-ops
                        continue;
                    }
                    match self.consume_fence(g, m) {
                        Consume::Got(_) => self.cur.pc += 1,
                        Consume::Missing(op) => return ThreadStatus::Ready(op),
                        Consume::Mismatch(m) => return ThreadStatus::Fault(m),
                        Consume::Pending => unreachable!(),
                    }
                }
                Instr::AwaitLoad { dst, addr, until, mode } => {
                    let exit = self.test(until);
                    let desc = ReadDesc::AwaitLoad { exit };
                    match self.run_await(g, *addr, *mode, desc) {
                        AwaitStep::Exited(v) => {
                            self.set(*dst, v);
                            self.cur.pc += 1;
                        }
                        AwaitStep::Status(s) => return s,
                    }
                }
                Instr::AwaitRmw { dst, addr, until, op, operand, mode } => {
                    let exit = self.test(until);
                    let desc =
                        ReadDesc::AwaitRmw { exit, op: *op, operand: self.operand(*operand) };
                    match self.run_await(g, *addr, *mode, desc) {
                        AwaitStep::Exited(v) => {
                            self.set(*dst, v);
                            self.cur.pc += 1;
                        }
                        AwaitStep::Status(s) => return s,
                    }
                }
                Instr::AwaitCas { dst, addr, expected, new, mode } => {
                    let desc = ReadDesc::AwaitCas {
                        expected: self.operand(*expected),
                        new: self.operand(*new),
                    };
                    match self.run_await(g, *addr, *mode, desc) {
                        AwaitStep::Exited(v) => {
                            self.set(*dst, v);
                            self.cur.pc += 1;
                        }
                        AwaitStep::Status(s) => return s,
                    }
                }
                Instr::Mov { dst, src } => {
                    self.set(*dst, self.operand(*src));
                    self.cur.pc += 1;
                }
                Instr::Op { dst, op, a, b } => {
                    self.set(*dst, op.apply(self.operand(*a), self.operand(*b)));
                    self.cur.pc += 1;
                }
                Instr::Jmp { target } => self.cur.pc = *target,
                Instr::JmpIf { src, test, target } => {
                    let t = self.test(test);
                    if t.eval(self.operand(*src)) {
                        self.cur.pc = *target;
                    } else {
                        self.cur.pc += 1;
                    }
                }
                Instr::Assert { src, test, msg } => {
                    let t = self.test(test);
                    if t.eval(self.operand(*src)) {
                        self.cur.pc += 1;
                        continue;
                    }
                    // Failed assertion: an error event.
                    let id = EventId::new(self.thread, self.cur.ev as u32);
                    if self.cur.ev >= g.thread_len(self.thread) {
                        return ThreadStatus::Ready(PendingOp::Error { msg: msg.clone() });
                    }
                    match &g.event(id).kind {
                        EventKind::Error { .. } => return ThreadStatus::Errored,
                        k => {
                            return ThreadStatus::Fault(format!(
                                "expected error event at {id}, found {k}"
                            ))
                        }
                    }
                }
                Instr::Nop => self.cur.pc += 1,
            }
        }
    }

    /// Execute one await instruction: consume polling reads until the exit
    /// test holds, the event is missing, or the thread blocks.
    fn run_await(
        &mut self,
        g: &mut ExecutionGraph,
        addr: Addr,
        mode: crate::insn::ModeRef,
        desc: ReadDesc,
    ) -> AwaitStep {
        let loc = self.addr(addr);
        let m = self.prog.mode(mode);
        let mut prev_rf: Option<RfSource> = None;
        loop {
            let id = EventId::new(self.thread, self.cur.ev as u32);
            match self.consume_read(g, loc, m, desc, prev_rf) {
                Consume::Missing(op) => return AwaitStep::Status(ThreadStatus::Ready(op)),
                Consume::Mismatch(m) => return AwaitStep::Status(ThreadStatus::Fault(m)),
                Consume::Pending => {
                    return AwaitStep::Status(ThreadStatus::Blocked(BlockedAwait {
                        read: id,
                        loc,
                        mode: m,
                        desc,
                        prev_rf,
                    }))
                }
                Consume::Got(Some(v)) => {
                    if desc.exits(v) {
                        if let Some(new) = desc.write_on(v) {
                            match self.consume_write(g, loc, new, m, true) {
                                Consume::Got(_) => {}
                                Consume::Missing(op) => {
                                    return AwaitStep::Status(ThreadStatus::Ready(op))
                                }
                                Consume::Mismatch(m) => {
                                    return AwaitStep::Status(ThreadStatus::Fault(m))
                                }
                                Consume::Pending => unreachable!(),
                            }
                        }
                        return AwaitStep::Exited(v);
                    }
                    // Failed iteration.
                    if !desc.bounded_effect_ok(v) {
                        return AwaitStep::Status(ThreadStatus::Fault(format!(
                            "await_rmw at {id}: failed iteration would write a \
                             different value (Bounded-Effect principle, paper Def. 3)"
                        )));
                    }
                    prev_rf = Some(g.rf(id));
                    self.cur.steps += 1;
                    if self.cur.steps > self.budget {
                        return AwaitStep::Status(ThreadStatus::Fault(
                            "await iterations exceeded step budget".into(),
                        ));
                    }
                }
                Consume::Got(None) => unreachable!(),
            }
        }
    }
}

enum AwaitStep {
    Exited(Value),
    Status(ThreadStatus),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::insn::Reg;

    const X: Loc = 0x10;

    /// Drive a single-threaded program to completion by adding each Ready
    /// event with the obvious rf/mo choice (sequential semantics).
    fn run_in_order(prog: &Program) -> ExecutionGraph {
        let mut g = ExecutionGraph::new(prog.num_threads(), prog.init().clone());
        loop {
            let out = replay(prog, &mut g);
            if let Some(f) = out.fault() {
                panic!("fault: {f}");
            }
            let Some(t) = out.ready_threads().next() else { return g };
            match &out.threads[t as usize] {
                ThreadStatus::Ready(PendingOp::Read { loc, mode, desc, .. }) => {
                    // Sequential: read the mo-maximal write.
                    let src = g
                        .mo(*loc)
                        .last()
                        .copied()
                        .map(RfSource::Write)
                        .unwrap_or(RfSource::Write(EventId::Init(*loc)));
                    let v = match src {
                        RfSource::Write(w) => g.write_value(w),
                        RfSource::Bottom => unreachable!(),
                    };
                    g.push_event(
                        t,
                        EventKind::Read {
                            loc: *loc,
                            mode: *mode,
                            rf: src,
                            rmw: desc.write_on(v).is_some(),
                            awaiting: desc.is_await(),
                        },
                    );
                }
                ThreadStatus::Ready(PendingOp::Write { loc, val, mode, rmw }) => {
                    let id = g.push_event(
                        t,
                        EventKind::Write { loc: *loc, val: *val, mode: *mode, rmw: *rmw },
                    );
                    let pos = g.mo(*loc).len();
                    g.insert_mo(*loc, id, pos);
                }
                ThreadStatus::Ready(PendingOp::Fence { mode }) => {
                    g.push_event(t, EventKind::Fence { mode: *mode });
                }
                ThreadStatus::Ready(PendingOp::Error { msg }) => {
                    g.push_event(t, EventKind::Error { msg: msg.clone() });
                }
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn straight_line_store_load() {
        let mut pb = ProgramBuilder::new("p");
        pb.thread(|t| {
            t.store(X, 7u64, vsync_graph::Mode::Rlx);
            t.load(Reg(0), X, vsync_graph::Mode::Rlx);
            t.assert_eq(Reg(0), 7u64, "read back");
        });
        let prog = pb.build().unwrap();
        let g = run_in_order(&prog);
        assert!(g.error().is_none());
        assert_eq!(g.final_state().get(&X), Some(&7));
    }

    #[test]
    fn failed_assert_generates_error_event() {
        let mut pb = ProgramBuilder::new("p");
        pb.thread(|t| {
            t.load(Reg(0), X, vsync_graph::Mode::Rlx);
            t.assert_eq(Reg(0), 1u64, "x must be 1");
        });
        let prog = pb.build().unwrap();
        let g = run_in_order(&prog);
        assert_eq!(g.error().map(|(_, m)| m.to_owned()), Some("x must be 1".into()));
    }

    #[test]
    fn rmw_reads_then_writes() {
        let mut pb = ProgramBuilder::new("p");
        pb.init(X, 5);
        pb.thread(|t| {
            t.fetch_add(Reg(0), X, 3u64, vsync_graph::Mode::Rlx);
            t.assert_eq(Reg(0), 5u64, "old value");
        });
        let prog = pb.build().unwrap();
        let g = run_in_order(&prog);
        assert!(g.error().is_none());
        assert_eq!(g.final_state().get(&X), Some(&8));
        // Two events: rmw read + rmw write.
        assert_eq!(g.thread_len(0), 2);
    }

    #[test]
    fn cas_failure_has_no_write_event() {
        let mut pb = ProgramBuilder::new("p");
        pb.init(X, 5);
        pb.thread(|t| {
            t.cas(Reg(0), X, 9u64, 1u64, vsync_graph::Mode::Rlx);
            t.assert_eq(Reg(0), 5u64, "old value returned");
        });
        let prog = pb.build().unwrap();
        let g = run_in_order(&prog);
        assert!(g.error().is_none());
        assert_eq!(g.thread_len(0), 1); // read only
        assert_eq!(g.final_state().get(&X), Some(&5));
    }

    #[test]
    fn relaxed_fence_emits_no_event() {
        let mut pb = ProgramBuilder::new("p");
        pb.thread(|t| {
            t.fence(vsync_graph::Mode::Rlx);
            t.fence(vsync_graph::Mode::Sc);
        });
        let prog = pb.build().unwrap();
        let g = run_in_order(&prog);
        assert_eq!(g.thread_len(0), 1); // only the sc fence
    }

    #[test]
    fn await_exits_immediately_when_condition_holds() {
        let mut pb = ProgramBuilder::new("p");
        pb.init(X, 3);
        pb.thread(|t| {
            t.await_eq(Reg(0), X, 3u64, vsync_graph::Mode::Acq);
            t.assert_eq(Reg(0), 3u64, "polled value");
        });
        let prog = pb.build().unwrap();
        let g = run_in_order(&prog);
        assert!(g.error().is_none());
        assert_eq!(g.thread_len(0), 1);
    }

    #[test]
    fn await_rmw_success_emits_pair() {
        // await_while(xchg(x,1) != 0) with x initially 0: immediate success.
        let mut pb = ProgramBuilder::new("p");
        pb.thread(|t| {
            t.await_rmw(Reg(0), X, Test::eq(0u64), RmwOp::Xchg, 1u64, vsync_graph::Mode::Acq);
        });
        let prog = pb.build().unwrap();
        let g = run_in_order(&prog);
        assert_eq!(g.thread_len(0), 2);
        assert_eq!(g.final_state().get(&X), Some(&1));
    }

    #[test]
    fn bounded_effect_violation_faults() {
        // A failed iteration that would fetch_add(1): not value-preserving.
        let mut pb = ProgramBuilder::new("p");
        pb.init(X, 5);
        pb.thread(|t| {
            // until x == 0, op add 1: reading 5 fails the test and add 1 ≠ id.
            t.await_rmw(Reg(0), X, Test::eq(0u64), RmwOp::Add, 1u64, vsync_graph::Mode::Rlx);
        });
        let prog = pb.build().unwrap();
        let mut g = ExecutionGraph::new(1, prog.init().clone());
        g.push_event(
            0,
            EventKind::Read {
                loc: X,
                mode: vsync_graph::Mode::Rlx,
                rf: RfSource::Write(EventId::Init(X)),
                rmw: false,
                awaiting: true,
            },
        );
        let out = replay(&prog, &mut g);
        assert!(out.fault().unwrap().contains("Bounded-Effect"));
    }

    #[test]
    fn blocked_await_reports_prev_rf() {
        let mut pb = ProgramBuilder::new("p");
        pb.thread(|t| {
            t.await_eq(Reg(0), X, 1u64, vsync_graph::Mode::Rlx);
        });
        let prog = pb.build().unwrap();
        let mut g = ExecutionGraph::new(1, prog.init().clone());
        g.push_event(
            0,
            EventKind::Read {
                loc: X,
                mode: vsync_graph::Mode::Rlx,
                rf: RfSource::Write(EventId::Init(X)),
                rmw: false,
                awaiting: true,
            },
        );
        g.push_event(
            0,
            EventKind::Read {
                loc: X,
                mode: vsync_graph::Mode::Rlx,
                rf: RfSource::Bottom,
                rmw: false,
                awaiting: true,
            },
        );
        let out = replay(&prog, &mut g);
        match &out.threads[0] {
            ThreadStatus::Blocked(b) => {
                assert_eq!(b.prev_rf, Some(RfSource::Write(EventId::Init(X))));
                assert_eq!(b.loc, X);
            }
            s => panic!("expected blocked, got {s:?}"),
        }
    }

    #[test]
    fn infinite_local_loop_exhausts_budget() {
        let mut pb = ProgramBuilder::new("p");
        pb.thread(|t| {
            let head = t.here_label();
            t.jmp(head);
        });
        let prog = pb.build().unwrap();
        let mut g = ExecutionGraph::new(1, prog.init().clone());
        let out = replay_with_budget(&prog, &mut g, 1000);
        assert!(out.fault().unwrap().contains("Bounded-Length"));
    }

    #[test]
    fn control_flow_branches() {
        let mut pb = ProgramBuilder::new("p");
        pb.init(X, 2);
        pb.thread(|t| {
            let else_ = t.label();
            let end = t.label();
            t.load(Reg(0), X, vsync_graph::Mode::Rlx);
            t.jmp_if(Reg(0), Test::ne(1u64), else_);
            t.mov(Reg(1), 100u64);
            t.jmp(end);
            t.bind(else_);
            t.mov(Reg(1), 200u64);
            t.bind(end);
            t.assert_eq(Reg(1), 200u64, "took else branch");
        });
        let prog = pb.build().unwrap();
        let g = run_in_order(&prog);
        assert!(g.error().is_none());
    }
}
