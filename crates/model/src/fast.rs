//! Opt-in counters attributing every consistency answer either to a
//! chain checker ([`crate::chain::VmmChecker`]'s clocks, the cycle search
//! of [`Sc`](crate::Sc) and [`Tso`](crate::Tso)) — the *fast path* — or to
//! the axiom evaluator ([`ReferenceModel`](crate::ReferenceModel)).
//!
//! Process-global by necessity — `is_consistent` takes no context — so the
//! counters are only meaningful when one session runs at a time (the CLI's
//! `--metrics`, which snapshots a delta around its single session). Off by
//! default: one relaxed load per check when disabled.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The benchmark's graph-size split (`benchmark/src/layers.rs` times
/// checks on graphs below and above it); nothing in the product reads it.
pub const SMALL_GRAPH_EVENTS: usize = 20;

static ENABLED: AtomicBool = AtomicBool::new(false);
static REFERENCE: AtomicU64 = AtomicU64::new(0);
static FAST: AtomicU64 = AtomicU64::new(0);

/// Count one consistency answer, if counting is on.
#[inline]
pub(crate) fn note(reference: bool) {
    if ENABLED.load(Ordering::Relaxed) {
        let counter = if reference { &REFERENCE } else { &FAST };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// Turn the process-global counters on or off.
pub fn set_checker_attribution(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Current `(fast_path, reference_checker)` consistency-check counts.
/// Snapshot before and after a run and subtract to scope a delta.
#[must_use]
pub fn checker_attribution() -> (u64, u64) {
    (FAST.load(Ordering::Relaxed), REFERENCE.load(Ordering::Relaxed))
}
