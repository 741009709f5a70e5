//! # vsync-dsl
//!
//! A textual, herd/litmus-style frontend for the modeling language: the
//! push-button pipeline's answer to "feed the tool a new scenario without
//! recompiling". A `.litmus` file names a program, declares locations and
//! initial values, gives per-thread code (with labels, awaits and
//! explicit barrier-mode annotations like `load.acq` or `store.rlx@site`),
//! states final-memory checks, and annotates the verdict each memory
//! model is expected to produce:
//!
//! ```text
//! litmus "mp"
//!
//! init {
//!   data = 0
//!   flag = 0
//! }
//!
//! thread {
//!   store.rlx data, 1
//!   store.rel flag, 1
//! }
//!
//! thread {
//!   r0 = await_eq.acq flag, 1
//!   r1 = load.rlx data
//!   assert r1 == 1, "flag implies data"
//! }
//!
//! expect sc: verified
//! expect tso: verified
//! expect vmm: verified
//! ```
//!
//! Thread templates (`thread[3] { ... }`) instantiate one block several
//! times; the identical instances land in one declared symmetry class,
//! which the explorer uses to prune relabeled twin executions.
//!
//! The crate is a hand-rolled lexer + recursive-descent parser
//! ([`parse`]), a lowering pass onto [`vsync_lang::ProgramBuilder`]
//! ([`compile`]), and a pretty-printer ([`format_source`] for canonical
//! formatting, [`print_program`] for emitting DSL text from an in-memory
//! [`vsync_lang::Program`] such that `parse ∘ print` reproduces the
//! program structurally). Errors are span-carrying [`Diagnostic`]s with
//! rustc-style source excerpts; columns count characters, not bytes.
//!
//! The front end allocates per AST node that owns a name, not per byte,
//! line or token: the lexer scans bytes into `Copy` tokens that borrow
//! the source, the parser copies out only the names and strings the AST
//! keeps, and a [`SourceFile`] holds its source as one string from which
//! comments and diagnostic excerpts are sliced (excerpts only on error
//! paths).
//!
//! ```
//! let test = vsync_dsl::compile(
//!     "litmus \"fai\"\nthread[2] { r0 = rmw.add.rlx x, 1 }\nexpect vmm: verified = 1",
//! ).expect("well-formed");
//! assert_eq!(test.program.num_threads(), 2);
//! assert!(test.templated);
//! let text = vsync_dsl::print_test(&test);
//! assert_eq!(vsync_dsl::compile(&text).unwrap().program, test.program);
//! ```

#![warn(missing_docs)]

pub mod ast;
mod diag;
mod lexer;
mod lower;
mod parser;
mod printer;

pub use ast::{ExpectedVerdict, Expectation, SourceFile};
pub use diag::{Diagnostic, Span};
pub use lower::{compile, lower, LitmusTest};
pub use parser::parse;
pub use printer::{format_file, format_source, print_program, print_test, program_to_ast};
