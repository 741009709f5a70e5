//! # vsync-lang
//!
//! The tiny concurrent language of the paper (§2.1), realized as a register
//! machine with primitive *await* instructions, plus its graph-driven
//! replay semantics (`consP(G)`, §2.1.2).
//!
//! Programs are built with [`ProgramBuilder`]; every memory-ordering
//! annotation becomes a [`BarrierSite`] the optimizer can relax. The
//! replayer ([`replay`]) reconstructs thread states from an execution graph
//! and reports each thread's next event — the interface the AMC explorer
//! drives.
//!
//! ```
//! use vsync_lang::{ProgramBuilder, Reg};
//! use vsync_graph::Mode;
//!
//! // Fig. 1 of the paper: T1 signals q, T2 waits for it.
//! let mut pb = ProgramBuilder::new("fig1");
//! let (locked, q) = (0x10, 0x20);
//! pb.thread(|t| {
//!     t.store(locked, 1u64, Mode::Rlx);
//!     t.store(q, 1u64, ("q.signal", Mode::Rel));
//!     t.await_eq(Reg(0), locked, 0u64, Mode::Rlx);
//! });
//! pb.thread(|t| {
//!     t.await_eq(Reg(0), q, 1u64, ("q.poll", Mode::Acq));
//!     t.store(locked, 0u64, Mode::Rlx);
//! });
//! let program = pb.build().expect("well-formed");
//! assert_eq!(program.num_threads(), 2);
//! ```

#![warn(missing_docs)]

mod builder;
mod insn;
mod program;
mod replay;
pub mod trace;

pub use builder::{Fixed, IntoSite, Label, ProgramBuilder, ThreadBuilder};
pub use insn::{
    Addr, AluOp, Cmp, Instr, ModeRef, Operand, Reg, ResolvedTest, RmwOp, Test, NUM_REGS,
};
pub use program::{
    BarrierSite, BarrierSummary, FinalCheck, Program, ProgramError, SiteKind,
};
pub use replay::{
    replay, replay_adopt_modes, replay_with_budget, BlockedAwait, ChainReplay, PendingOp,
    ReadDesc, ReplayOutcome, ThreadStatus, DEFAULT_STEP_BUDGET,
};
