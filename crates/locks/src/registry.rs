//! Name-based registry of the verifiable lock catalog.
//!
//! Every model-layer lock is registered here once, with its canonical
//! name (the same string its [`LockModel::name`] reports) and catalog
//! metadata. The registry is what makes the push-button surface
//! *addressable*: CLI commands, services and the bench drivers resolve
//! locks [`by_name`] instead of re-listing the catalog by hand, and
//! [`SessionExt::lock`] turns a name straight into a runnable
//! [`Session`].
//!
//! ```
//! use vsync_core::Session;
//! use vsync_locks::SessionExt as _;
//!
//! let report = Session::lock("ttas", 2, 1).run();
//! assert!(report.is_verified());
//! ```

use std::fmt;

use vsync_core::Session;
use vsync_graph::ThreadPartition;
use vsync_lang::Program;

use crate::model::{
    mutex_client, ArrayLock, CasLock, CertikosMcs, ClhLock, DpdkMcsLock, FutexMutex,
    HuaweiMcsLock, LockModel, McsLock, Qspinlock, RecursiveLock, RwLock, Semaphore, TasLock,
    TicketLock, TtasLock, TwaLock,
};

/// One registry row: the canonical name, catalog metadata and a
/// constructor for the lock with its default (published) barriers.
pub struct LockEntry {
    /// Canonical name — always equal to the built lock's
    /// [`LockModel::name`].
    pub name: &'static str,
    /// Structural family, for catalog listings.
    pub family: &'static str,
    /// One-line description.
    pub summary: &'static str,
    build: fn() -> Box<dyn LockModel>,
}

impl LockEntry {
    /// Instantiate the lock with its default barrier assignment.
    #[must_use]
    pub fn build(&self) -> Box<dyn LockModel> {
        (self.build)()
    }

    /// The paper's generic mutual-exclusion client over this lock:
    /// `threads` threads, `acquires` acquisitions each, with the
    /// lost-update final-state check.
    #[must_use]
    pub fn client(&self, threads: usize, acquires: usize) -> Program {
        mutex_client(self.build().as_ref(), threads, acquires)
    }

    /// The thread-symmetry partition of this lock's generic client: flat
    /// locks emit one shared template per thread (all clients
    /// interchangeable — a single class), while queue locks address
    /// per-thread nodes and stay asymmetric. The explorer prunes relabeled
    /// twin executions for every non-singleton class.
    #[must_use]
    pub fn client_symmetry(&self, threads: usize, acquires: usize) -> ThreadPartition {
        self.client(threads, acquires).symmetry_partition()
    }

    /// Does the generic client of this lock have any usable thread
    /// symmetry (at any thread count ≥ 2)?
    #[must_use]
    pub fn symmetric_client(&self) -> bool {
        !self.client_symmetry(2, 1).is_trivial()
    }
}

impl fmt::Debug for LockEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LockEntry")
            .field("name", &self.name)
            .field("family", &self.family)
            .finish()
    }
}

macro_rules! entry {
    ($name:literal, $family:literal, $summary:literal, $build:expr) => {
        LockEntry { name: $name, family: $family, summary: $summary, build: || Box::new($build) }
    };
}

static CATALOG: [LockEntry; 16] = [
    entry!("caslock", "flat", "compare-and-swap test-and-set lock", CasLock::default()),
    entry!(
        "taslock",
        "flat",
        "test-and-set lock (awaited xchg; vsync-shim's TAS twin)",
        TasLock::default()
    ),
    entry!("ttas", "flat", "test-and-test-and-set lock (paper Fig. 3)", TtasLock::default()),
    entry!(
        "ticketlock",
        "ticket",
        "FIFO ticket lock (fetch-add next, await owner)",
        TicketLock::default()
    ),
    entry!("semaphore", "flat", "binary semaphore via fetch-sub/add", Semaphore::default()),
    entry!("mcs", "queue", "MCS queue lock (per-thread spin nodes)", McsLock::default()),
    entry!(
        "certikos-mcs",
        "queue",
        "CertiKOS's MCS variant (busy-flag handshake)",
        CertikosMcs
    ),
    entry!("clh", "queue", "CLH queue lock (implicit predecessor nodes)", ClhLock::default()),
    entry!(
        "dpdk-mcs-fixed",
        "queue",
        "DPDK rte_mcslock with the §3.1 publication fix",
        DpdkMcsLock::patched()
    ),
    entry!(
        "huawei-mcs-fixed",
        "queue",
        "Huawei-product MCS with the §3.2 acquire fix",
        HuaweiMcsLock::patched()
    ),
    entry!(
        "rwlock",
        "rw",
        "reader-writer lock (writer-preference counter)",
        RwLock::default()
    ),
    entry!(
        "qspinlock",
        "queue",
        "Linux qspinlock (pending bit + MCS tail), §3.3 study case",
        Qspinlock
    ),
    entry!(
        "arraylock",
        "array",
        "Anderson array lock (per-slot spinning)",
        ArrayLock::default()
    ),
    entry!(
        "twalock",
        "ticket",
        "ticket lock with waiting array (TWA)",
        TwaLock::default()
    ),
    entry!(
        "recursive",
        "composite",
        "owner-reentrant recursive lock over a CAS core",
        RecursiveLock::default()
    ),
    entry!(
        "futex-mutex",
        "composite",
        "futex-style mutex (fast path + wait word)",
        FutexMutex::default()
    ),
];

/// The full catalog, in presentation order.
#[must_use]
pub fn catalog() -> &'static [LockEntry] {
    &CATALOG
}

/// One row of the standard 11-entry performance matrix: a registered lock
/// with a client configuration small enough to explore exhaustively but
/// large enough to exercise the interesting paths.
#[derive(Debug, Clone, Copy)]
pub struct MatrixEntry {
    /// Stable row label (kept diffable across PRs in the BENCH_*.json
    /// artifacts).
    pub label: &'static str,
    /// Registry name of the lock.
    pub lock: &'static str,
    /// Client threads.
    pub threads: usize,
    /// Acquisitions per thread.
    pub acquires: usize,
}

impl MatrixEntry {
    /// Build the row's generic mutual-exclusion client.
    ///
    /// # Panics
    /// If the row names an unregistered lock (a bug in the matrix table).
    #[must_use]
    pub fn client(&self) -> Program {
        entry(self.lock)
            .unwrap_or_else(|| panic!("{} not registered", self.lock))
            .client(self.threads, self.acquires)
    }

    /// Does this row's client have a non-trivial thread-symmetry
    /// partition (so symmetry reduction can prune twins on it)?
    ///
    /// # Panics
    /// If the row names an unregistered lock (a bug in the matrix table).
    #[must_use]
    pub fn is_symmetric(&self) -> bool {
        !self.client().symmetry_partition().is_trivial()
    }
}

/// The standard "11-entry lock matrix" the earlier perf acceptance
/// criteria were stated on. Row labels are stable.
#[must_use]
pub fn perf_matrix() -> &'static [MatrixEntry] {
    const M: &[MatrixEntry] = &[
        MatrixEntry { label: "caslock-2t", lock: "caslock", threads: 2, acquires: 1 },
        MatrixEntry { label: "caslock-3t", lock: "caslock", threads: 3, acquires: 1 },
        MatrixEntry { label: "ttas-2t", lock: "ttas", threads: 2, acquires: 1 },
        MatrixEntry { label: "ttas-2tx2", lock: "ttas", threads: 2, acquires: 2 },
        MatrixEntry { label: "ticket-2t", lock: "ticketlock", threads: 2, acquires: 1 },
        MatrixEntry { label: "ticket-3t", lock: "ticketlock", threads: 3, acquires: 1 },
        MatrixEntry { label: "clh-2t", lock: "clh", threads: 2, acquires: 1 },
        MatrixEntry { label: "mcs-2t", lock: "mcs", threads: 2, acquires: 1 },
        MatrixEntry { label: "mcs-3t", lock: "mcs", threads: 3, acquires: 1 },
        MatrixEntry { label: "qspinlock-2t", lock: "qspinlock", threads: 2, acquires: 1 },
        MatrixEntry { label: "qspinlock-3t", lock: "qspinlock", threads: 3, acquires: 1 },
    ];
    M
}

/// The rows of [`perf_matrix`] whose clients have a non-trivial
/// thread-symmetry partition — the "symmetric lock matrix" on whose
/// 3-thread rows `tests/symmetry.rs` asserts the ≥ 2x explored-graph
/// reduction.
#[must_use]
pub fn symmetric_matrix() -> Vec<MatrixEntry> {
    perf_matrix().iter().copied().filter(MatrixEntry::is_symmetric).collect()
}

/// The canonical names of every registered lock, in catalog order.
#[must_use]
pub fn names() -> Vec<&'static str> {
    CATALOG.iter().map(|e| e.name).collect()
}

/// The registry row for `name`, if registered.
#[must_use]
pub fn entry(name: &str) -> Option<&'static LockEntry> {
    CATALOG.iter().find(|e| e.name == name)
}

/// Instantiate a lock by canonical name with its default barriers.
#[must_use]
pub fn by_name(name: &str) -> Option<Box<dyn LockModel>> {
    entry(name).map(LockEntry::build)
}

/// The error of [`SessionExt::try_lock`]: no such lock in the registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownLock {
    /// The name that failed to resolve.
    pub name: String,
}

impl fmt::Display for UnknownLock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown lock '{}' (known: {})", self.name, names().join(", "))
    }
}

impl std::error::Error for UnknownLock {}

/// Registry-powered constructors for [`Session`]: bring this trait into
/// scope and `Session::lock("qspinlock", 3, 1)` builds a session over the
/// generic client of the named lock.
pub trait SessionExt: Sized {
    /// Session over the named lock's generic client (`threads` threads ×
    /// `acquires` acquisitions, lost-update final check).
    ///
    /// # Panics
    /// On an unregistered name, listing the registered ones — this is the
    /// push-button entry point; use [`SessionExt::try_lock`] in services.
    fn lock(name: &str, threads: usize, acquires: usize) -> Self;

    /// Non-panicking [`SessionExt::lock`].
    fn try_lock(name: &str, threads: usize, acquires: usize) -> Result<Self, UnknownLock>;
}

impl SessionExt for Session {
    fn lock(name: &str, threads: usize, acquires: usize) -> Session {
        match Self::try_lock(name, threads, acquires) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        }
    }

    fn try_lock(name: &str, threads: usize, acquires: usize) -> Result<Session, UnknownLock> {
        let entry = entry(name).ok_or_else(|| UnknownLock { name: name.to_owned() })?;
        Ok(Session::new(entry.client(threads, acquires)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Flat locks share one client template across threads; queue locks
    /// address per-thread nodes. The detector must see exactly that.
    #[test]
    fn flat_clients_are_symmetric_queue_clients_are_not() {
        for name in ["caslock", "ttas", "ticketlock", "semaphore"] {
            let e = entry(name).unwrap();
            assert!(e.symmetric_client(), "{name} client should be symmetric");
            let p = e.client_symmetry(3, 1);
            assert!(p.same_class(0, 1) && p.same_class(1, 2), "{name}: one 3-thread class");
        }
        for name in ["mcs", "clh", "qspinlock"] {
            let e = entry(name).unwrap();
            assert!(!e.symmetric_client(), "{name} client uses per-thread nodes");
        }
    }

    #[test]
    fn symmetric_matrix_is_the_symmetric_subset() {
        let sym = symmetric_matrix();
        assert!(!sym.is_empty());
        assert!(sym.iter().all(MatrixEntry::is_symmetric));
        assert!(
            sym.iter().any(|e| e.threads >= 3),
            "the 3-thread acceptance rows must be present"
        );
        let labels: Vec<&str> = sym.iter().map(|e| e.label).collect();
        assert!(labels.contains(&"caslock-3t"), "got {labels:?}");
        assert!(labels.contains(&"ticket-3t"), "got {labels:?}");
        assert!(!labels.contains(&"qspinlock-3t"), "queue locks are asymmetric");
    }
}
