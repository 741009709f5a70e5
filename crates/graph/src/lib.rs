//! # vsync-graph
//!
//! Execution graphs for axiomatic weak-memory reasoning — the substrate of
//! the AMC model checker (paper §1.1, §2.1).
//!
//! An [`ExecutionGraph`] abstracts one (possibly partial) execution of a
//! concurrent program:
//!
//! * **events** ([`Event`], [`EventKind`]): reads, writes, fences and error
//!   events, each tagged with a barrier [`Mode`];
//! * **program order** (`po`): the per-thread event sequences;
//! * **reads-from** (`rf`): which write each read observes — possibly the
//!   missing edge `⊥` ([`RfSource::Bottom`]) for reads polled by awaits;
//! * **modification order** (`mo`): a per-location total order of writes.
//!
//! The crate also provides dense bit-matrix relations ([`Relation`],
//! [`EventIndex`]) used by the memory models, canonical content hashing
//! used by the explorer's deduplication ([`content_hash`]) — including
//! the thread-symmetry-aware quotient ([`Canonicalizer`],
//! [`ThreadPartition`]) that collapses relabeled twin executions of
//! template-identical threads — and Graphviz / text rendering of
//! counterexamples ([`to_dot`], [`ExecutionGraph::render`]).
//!
//! ```
//! use std::collections::BTreeMap;
//! use vsync_graph::{EventKind, ExecutionGraph, Mode, RfSource};
//!
//! // Build the message-passing graph: T0 writes, T1 observes.
//! let mut g = ExecutionGraph::new(2, BTreeMap::new());
//! let w = g.push_event(0, EventKind::Write { loc: 0x10, val: 1, mode: Mode::Rel, rmw: false });
//! g.insert_mo(0x10, w, 0);
//! let r = g.push_event(1, EventKind::Read {
//!     loc: 0x10, mode: Mode::Acq, rf: RfSource::Write(w), rmw: false, awaiting: false,
//! });
//! assert_eq!(g.read_value(r), Some(1));
//! ```

#![warn(missing_docs)]

mod dense;
mod dot;
mod encode;
mod event;
mod graph;
mod symmetry;

pub use dense::{iter_set_bits, EventIndex, Relation};
pub use dot::to_dot;
pub use encode::{
    canonical_bytes, canonical_bytes_modulo, canonical_hash_modulo, content_hash, hash128,
    Canonicalizer, GraphView,
};
pub use event::{Event, EventId, EventKind, Loc, Mode, RfSource, ThreadId, Value};
pub use graph::{Cut, ExecutionGraph};
pub use symmetry::{ThreadPartition, MAX_SYMMETRY_PERMUTATIONS};
