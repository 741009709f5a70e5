//! # vsync-model
//!
//! Axiomatic weak memory models as consistency predicates over execution
//! graphs (`consM(G)`, paper §1.1).
//!
//! Each model is defined once, as a list of named axioms in [`axioms`]
//! ([`MemoryModel::axioms`]), and decided twice: by evaluating that list
//! from scratch ([`MemoryModel::is_consistent_reference`], the oracle),
//! and by the model's chain checker ([`chain`], the explorer's hot path),
//! which the crate's tests hold to the evaluator step by step.
//!
//! Three models are provided:
//!
//! * [`Sc`] — sequential consistency (the reference; also what the paper's
//!   "sc-only" lock variants assume);
//! * [`Tso`] — x86-style total store order;
//! * [`Vmm`] — an RC11-style model standing in for the paper's IMM (see
//!   the [`Vmm`] docs and DESIGN.md §5 for the substitution rationale).
//!
//! Models are *monotone*: adding events or edges to an inconsistent graph
//! never makes it consistent, which is what allows the AMC explorer to
//! discard inconsistent partial graphs early.
//!
//! ```
//! use vsync_model::{MemoryModel, ModelKind};
//! use vsync_graph::ExecutionGraph;
//! use std::collections::BTreeMap;
//!
//! let g = ExecutionGraph::new(1, BTreeMap::new());
//! assert!(ModelKind::Vmm.model().is_consistent(&g));
//! ```

#![warn(missing_docs)]

pub mod axioms;
pub mod chain;
pub mod fast;
mod order;
mod sc;
mod tso;
mod vmm;

pub use chain::ChainChecker;
pub use fast::{checker_attribution, set_checker_attribution};
pub use sc::Sc;
pub use tso::Tso;
pub use vmm::Vmm;

use axioms::Axiom;
use vsync_graph::{ExecutionGraph, Loc, Mode, ThreadId};

/// A weak memory model: a consistency predicate over execution graphs.
pub trait MemoryModel: std::fmt::Debug + Send + Sync {
    /// Short display name (`"SC"`, `"TSO"`, `"VMM"`).
    fn name(&self) -> &'static str;

    /// Does the model admit this (possibly partial) execution graph?
    ///
    /// A [`ChainChecker::reset`] on a fresh checker of the model (see
    /// [`chain`]).
    fn is_consistent(&self, g: &ExecutionGraph) -> bool;

    /// A fresh checker for following one exploration chain: the same
    /// predicate as [`MemoryModel::is_consistent`], asked step by step.
    fn chain_checker(&self) -> Box<dyn ChainChecker>;

    /// The model's definition: the named axioms a consistent graph
    /// satisfies ([`axioms`]).
    fn axioms(&self) -> &'static [Axiom];

    /// The same predicate as [`MemoryModel::is_consistent`], decided by
    /// evaluating [`MemoryModel::axioms`] on `g` from scratch.
    ///
    /// The oracle of the differential tests (and selectable as
    /// `CheckerKind::Reference`). A model supplies its axioms, not this
    /// body: the one evaluator derives every relation from scratch and
    /// shares none of the chain checkers' incremental reasoning, so the
    /// differential tests compare two independent formulations.
    fn is_consistent_reference(&self, g: &ExecutionGraph) -> bool {
        axioms::holds(self.axioms(), g)
    }

    /// [`ChainChecker::floor`] computed from `g` alone, for a consistent
    /// `g`: below it, no source or placement of `thread`'s next access of
    /// `loc` is consistent. The default counts the thread's own accesses
    /// ([`chain::thread_floor`]).
    fn floor(&self, g: &ExecutionGraph, thread: ThreadId, loc: Loc) -> usize {
        chain::thread_floor(g, thread, loc)
    }

    /// May a candidate's exploration be skipped as certain to verify?
    ///
    /// The question is asked against a *base*: a verified exploration of
    /// the same program under another barrier assignment, whose checkers
    /// counted no SC-axiom rejection ([`ChainChecker::sc_rejections`] summed
    /// to `Some(0)`). `changes` lists every site whose mode differs — the
    /// events that carry it, the base's mode and the candidate's — and
    /// `symmetric` says whether the candidate's run reduces by a nontrivial
    /// thread symmetry, whose orbit representatives read mode tags. `true`
    /// promises that the candidate's exploration would give every answer
    /// the base's gave (DESIGN.md §7.4). The default, `false`, is always
    /// sound.
    fn certifies(&self, symmetric: bool, changes: &[(Access, Mode, Mode)]) -> bool {
        let _ = (symmetric, changes);
        false
    }
}

/// The events that carry a barrier site's mode: a load's read, a store's
/// write, both events of a read-modify-write, or a fence
/// ([`MemoryModel::certifies`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Access {
    /// A read.
    Load,
    /// A write.
    Store,
    /// A read and the write that follows it.
    Rmw,
    /// A fence.
    Fence,
}

/// Which consistency-check implementation the explorer should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CheckerKind {
    /// The model's chain checker (the default).
    #[default]
    Fast,
    /// The axiom evaluator ([`MemoryModel::is_consistent_reference`]) —
    /// for differential testing and baseline measurements only.
    Reference,
}

/// A [`MemoryModel`] adapter that answers with the axiom evaluator.
#[derive(Debug, Clone, Copy)]
pub struct ReferenceModel(pub ModelKind);

impl MemoryModel for ReferenceModel {
    fn name(&self) -> &'static str {
        match self.0 {
            ModelKind::Sc => "SC(ref)",
            ModelKind::Tso => "TSO(ref)",
            ModelKind::Vmm => "VMM(ref)",
        }
    }

    fn is_consistent(&self, g: &ExecutionGraph) -> bool {
        fast::note(true);
        self.is_consistent_reference(g)
    }

    fn chain_checker(&self) -> Box<dyn ChainChecker> {
        Box::new(chain::Stateless(*self))
    }

    fn axioms(&self) -> &'static [Axiom] {
        self.0.model().axioms()
    }

    fn floor(&self, g: &ExecutionGraph, thread: ThreadId, loc: Loc) -> usize {
        self.0.model().floor(g, thread, loc)
    }
}

/// Enumeration of the built-in models, for configuration surfaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ModelKind {
    /// Sequential consistency.
    Sc,
    /// Total store order.
    Tso,
    /// The RC11-style default model.
    #[default]
    Vmm,
}

impl ModelKind {
    /// The model implementation for this kind.
    pub fn model(self) -> &'static dyn MemoryModel {
        match self {
            ModelKind::Sc => &Sc,
            ModelKind::Tso => &Tso,
            ModelKind::Vmm => &Vmm,
        }
    }

    /// The axiom-evaluating reference checker for this kind.
    pub fn reference_model(self) -> &'static dyn MemoryModel {
        const SC_REF: ReferenceModel = ReferenceModel(ModelKind::Sc);
        const TSO_REF: ReferenceModel = ReferenceModel(ModelKind::Tso);
        const VMM_REF: ReferenceModel = ReferenceModel(ModelKind::Vmm);
        match self {
            ModelKind::Sc => &SC_REF,
            ModelKind::Tso => &TSO_REF,
            ModelKind::Vmm => &VMM_REF,
        }
    }

    /// The checker implementation for this kind and checker flavor.
    pub fn checker(self, kind: CheckerKind) -> &'static dyn MemoryModel {
        match kind {
            CheckerKind::Fast => self.model(),
            CheckerKind::Reference => self.reference_model(),
        }
    }

    /// All built-in models, weakest-checked last — the default *model
    /// matrix* for cross-model sessions (`Session::models(ModelKind::all())`)
    /// and tests.
    pub fn all() -> [ModelKind; 3] {
        [ModelKind::Sc, ModelKind::Tso, ModelKind::Vmm]
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.model().name())
    }
}

/// Parse a model name, case-insensitively (`"sc"`, `"TSO"`, `"vmm"`) —
/// the inverse of `Display` for configuration surfaces (CLI `--model`,
/// service request fields).
impl std::str::FromStr for ModelKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "sc" => Ok(ModelKind::Sc),
            "tso" => Ok(ModelKind::Tso),
            "vmm" => Ok(ModelKind::Vmm),
            other => Err(format!("unknown memory model '{other}' (sc, tso, vmm)")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_resolve_to_models() {
        assert_eq!(ModelKind::Sc.model().name(), "SC");
        assert_eq!(ModelKind::Tso.model().name(), "TSO");
        assert_eq!(ModelKind::Vmm.model().name(), "VMM");
        assert_eq!(ModelKind::default(), ModelKind::Vmm);
        assert_eq!(ModelKind::Vmm.to_string(), "VMM");
    }

    #[test]
    fn kinds_parse_back_from_display_and_lowercase() {
        for kind in ModelKind::all() {
            assert_eq!(kind.to_string().parse::<ModelKind>(), Ok(kind));
            assert_eq!(kind.to_string().to_lowercase().parse::<ModelKind>(), Ok(kind));
        }
        assert!("power".parse::<ModelKind>().is_err());
    }

    /// SC admits a subset of TSO which admits a subset of VMM on the
    /// store-buffering shape (the canonical strength witness).
    #[test]
    fn strength_ordering_on_sb() {
        use std::collections::BTreeMap;
        use vsync_graph::{EventId, EventKind, Mode, RfSource};
        let (x, y) = (1, 2);
        let mut g = ExecutionGraph::new(2, BTreeMap::new());
        let wx = g.push_event(0, EventKind::Write { loc: x, val: 1, mode: Mode::Rel, rmw: false });
        g.insert_mo(x, wx, 0);
        g.push_event(0, EventKind::Read { loc: y, mode: Mode::Acq, rf: RfSource::Write(EventId::Init(y)), rmw: false, awaiting: false });
        let wy = g.push_event(1, EventKind::Write { loc: y, val: 1, mode: Mode::Rel, rmw: false });
        g.insert_mo(y, wy, 0);
        g.push_event(1, EventKind::Read { loc: x, mode: Mode::Acq, rf: RfSource::Write(EventId::Init(x)), rmw: false, awaiting: false });
        assert!(!Sc.is_consistent(&g));
        assert!(Tso.is_consistent(&g));
        assert!(Vmm.is_consistent(&g));
    }
}
