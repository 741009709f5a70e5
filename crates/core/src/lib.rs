//! # vsync-core
//!
//! The paper's primary contribution, reproduced in Rust:
//!
//! * **AMC — Await Model Checking** ([`explore`], [`verify`]): a stateless
//!   model checker over execution graphs that terminates for programs with
//!   await loops, detects all safety violations, and decides await
//!   termination (paper §1, Theorem 1);
//! * **push-button barrier optimization** ([`optimize`]): maximally relax
//!   the barrier modes of a synchronization primitive while it still
//!   verifies (paper §3.3, Table 1).
//!
//! The front door is the [`Session`] pipeline — model matrix, workers,
//! budgets, the event bus, cancellation and structured [`Report`]s in
//! one builder chain; [`verify`], [`explore`] and [`optimize`] remain as
//! thin single-shot wrappers over the same engine.
//!
//! ```
//! use vsync_core::Session;
//! use vsync_lang::{ProgramBuilder, Reg};
//! use vsync_graph::Mode;
//! use vsync_model::ModelKind;
//!
//! // A thread awaiting a signal that another thread sends: AT holds.
//! let mut pb = ProgramBuilder::new("handshake");
//! pb.thread(|t| { t.store(0x10, 1u64, Mode::Rel); });
//! pb.thread(|t| { t.await_eq(Reg(0), 0x10, 1u64, Mode::Acq); });
//! let program = pb.build().unwrap();
//! let report = Session::new(program).models(ModelKind::all()).run();
//! assert!(report.is_verified());
//! println!("{}", report.to_json());
//! ```

#![warn(missing_docs)]

mod corpus;
mod explorer;
pub mod failpoint;
pub mod json;
mod optimize;
mod revisit;
mod session;
mod stagnancy;
pub mod telemetry;
mod verdict;

pub use corpus::{
    check_source, check_test, collect_litmus_files, run_corpus, CorpusOptions, CorpusReport,
    FileOutcome, FileReport, ModelOutcome, SourceError,
};
pub use explorer::{
    count_executions, count_executions_with, explore, explore_oracle, explore_with, verify,
    OracleOutcome,
};
pub use optimize::{
    enumerate_maximal, optimize, OptimizationReport, OptimizationStep, OptimizerConfig,
};
#[doc(hidden)]
pub use optimize::{optimize_with_certificates, Certificate, Certifier};
pub use session::{CancelToken, ModelRun, Report, RunControl, Session};
pub use stagnancy::{is_stagnant, is_stuck};
pub use telemetry::{
    clock_read_ns, render_metrics, EngineEvent, EventFn, EventKind, PhaseProfile, PhaseStat,
    TraceWriter,
};
pub use verdict::{
    AmcConfig, AmcResult, Counterexample, EngineError, EngineErrorKind, EnginePhase, ExploreStats,
    Inconclusive, ResourceBudget, StopReason, Verdict,
};
