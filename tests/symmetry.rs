//! Thread-symmetry reduction: canonicalization laws and the symmetry
//! on/off differential.
//!
//! * **Permutation invariance** — for random programs whose threads are
//!   instantiated from one template, the canonical hash modulo the
//!   detected partition is invariant under every allowed thread
//!   relabeling of every reachable execution graph;
//! * **No false merges** — asymmetric threads are never merged: the
//!   partition stays trivial and canonicalization degenerates to the
//!   plain content encoding;
//! * **Differential** — across the *full* lock registry, all memory
//!   models and workers {1, 2, 8}, symmetry-on exploration produces the
//!   same verdicts (and, for the broken study cases, the same violation
//!   messages) as the naive symmetry-off run, never explores more,
//!   and keeps per-orbit counts worker-count deterministic.
//!
//! * **One name per orbit** — on symmetric clients the symmetry-on run
//!   collects one execution per orbit of the symmetry-off run's
//!   executions, each its own canonical form under the public
//!   canonicalizer.
//!
//! The generator is a deterministic SplitMix64 stream; failures print the
//! offending seed.

use std::collections::BTreeSet;

use vsync::core::{explore, AmcConfig, Verdict};
use vsync::graph::{canonical_hash_modulo, Canonicalizer, GraphView, Mode};
use vsync::lang::{Program, ProgramBuilder, Reg};
use vsync::locks::registry;
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
}

const LOCS: [u64; 2] = [0x10, 0x20];

/// A random straight-line thread template (the `tests/differential.rs` /
/// `tests/proptests.rs` op vocabulary), instantiated verbatim for each of
/// `n` threads — the builder must detect them as one symmetry class.
fn random_symmetric_program(rng: &mut Rng, n_threads: usize) -> Program {
    #[derive(Clone, Copy)]
    enum Op {
        Load(usize),
        Store(usize, u64),
        FetchAdd(usize, u64),
        Cas(usize, u64, u64),
        Fence,
    }
    let len = 1 + rng.below(3);
    let template: Vec<(Op, Mode)> = (0..len)
        .map(|_| {
            let loc = rng.below(LOCS.len() as u64) as usize;
            let op = match rng.below(5) {
                0 => Op::Load(loc),
                1 => Op::Store(loc, rng.below(3)),
                2 => Op::FetchAdd(loc, 1 + rng.below(2)),
                3 => Op::Cas(loc, rng.below(2), 1 + rng.below(2)),
                _ => Op::Fence,
            };
            let mode = [Mode::Rlx, Mode::Acq, Mode::Rel, Mode::AcqRel, Mode::Sc]
                [rng.below(5) as usize];
            (op, mode)
        })
        .collect();
    let mut pb = ProgramBuilder::new("sym-random");
    for _ in 0..n_threads {
        let template = template.clone();
        pb.thread(move |t| {
            for (i, (op, mode)) in template.iter().enumerate() {
                let r = Reg((i % 8) as u8);
                match *op {
                    Op::Load(l) => {
                        let m = match mode {
                            Mode::Rel | Mode::AcqRel => Mode::Acq,
                            m => *m,
                        };
                        t.load(r, LOCS[l], m);
                    }
                    Op::Store(l, v) => {
                        let m = match mode {
                            Mode::Acq | Mode::AcqRel => Mode::Rel,
                            m => *m,
                        };
                        t.store(LOCS[l], v, m);
                    }
                    Op::FetchAdd(l, v) => {
                        t.fetch_add(r, LOCS[l], v, *mode);
                    }
                    Op::Cas(l, e, n) => {
                        t.cas(r, LOCS[l], e, n, *mode);
                    }
                    Op::Fence => {
                        t.fence(*mode);
                    }
                }
            }
        });
    }
    pb.build().expect("generated program is well-formed")
}

/// Every reachable execution graph of a template-instantiated program has
/// the same canonical hash as each of its thread relabelings — including
/// under a *random* relabeling chain (permutations compose).
#[test]
fn canonical_hash_is_invariant_under_symmetric_permutations() {
    for seed in 0..40u64 {
        let mut rng = Rng(seed.wrapping_mul(0x5851f42d4c957f2d).wrapping_add(0xb5ad4eceda1ce2a9));
        let n_threads = 2 + rng.below(2) as usize;
        let p = random_symmetric_program(&mut rng, n_threads);
        let partition = p.symmetry_partition();
        assert!(
            (0..n_threads as u32).all(|t| partition.same_class(0, t)),
            "seed {seed}: template threads must form one class"
        );
        // All executions, twins included: the invariance claim quantifies
        // over the whole reachable set, so check it on the naive run.
        let r = explore(
            &p,
            &AmcConfig::with_model(ModelKind::Vmm).collecting().without_symmetry(),
        );
        assert!(r.is_verified(), "seed {seed}: {}", r.verdict);
        let perms = partition.permutations();
        for g in &r.executions {
            let h = canonical_hash_modulo(g, &partition);
            for perm in &perms {
                let permuted = g.permute_threads(perm);
                assert_eq!(
                    canonical_hash_modulo(&permuted, &partition),
                    h,
                    "seed {seed}: canonical hash not invariant under {perm:?} on:\n{}",
                    g.render()
                );
            }
            // A random composition of allowed relabelings stays invariant.
            let mut chained = g.clone();
            for _ in 0..3 {
                let perm = &perms[rng.below(perms.len() as u64) as usize];
                chained = chained.permute_threads(perm);
            }
            assert_eq!(canonical_hash_modulo(&chained, &partition), h, "seed {seed}");
        }
    }
}

/// Asymmetric threads are never merged: the detected partition is
/// trivial, thread-swapped graphs keep distinct canonical hashes, and the
/// explorer's counts are bit-identical with symmetry on and off.
#[test]
fn asymmetric_threads_are_never_merged() {
    // Same shape, different locations (classic SB) — not symmetric.
    let mut pb = ProgramBuilder::new("sb");
    for (a, b) in [(LOCS[0], LOCS[1]), (LOCS[1], LOCS[0])] {
        pb.thread(move |t| {
            t.store(a, 1u64, Mode::Rlx);
            t.load(Reg(0), b, Mode::Rlx);
        });
    }
    let p = pb.build().unwrap();
    let partition = p.symmetry_partition();
    assert!(partition.is_trivial(), "SB threads differ and must not merge");
    let on = explore(&p, &AmcConfig::with_model(ModelKind::Vmm).collecting());
    let off = explore(
        &p,
        &AmcConfig::with_model(ModelKind::Vmm).collecting().without_symmetry(),
    );
    assert_eq!(on.stats, off.stats, "trivial partition must change nothing");
    assert!(on.stats.symmetry_pruned == 0);
    // Thread-swapping an execution of an asymmetric program changes its
    // canonical hash (the swap is not an allowed relabeling).
    let g = &on.executions[0];
    assert_ne!(
        canonical_hash_modulo(&g.permute_threads(&[1, 0]), &partition),
        canonical_hash_modulo(g, &partition),
    );
    // One diverging instruction also splits an otherwise shared template.
    let mut pb = ProgramBuilder::new("almost");
    for val in [1u64, 2] {
        pb.thread(move |t| {
            t.store(LOCS[0], val, Mode::Rel);
            t.load(Reg(0), LOCS[1], Mode::Acq);
        });
    }
    assert!(pb.build().unwrap().symmetry_partition().is_trivial());
}

/// Symmetry on and off find the same orbits on symmetric 3-thread
/// clients: every execution the symmetry-on run collects is its own
/// canonical form under the public [`Canonicalizer`], one per orbit, and
/// their `canonical_hash_modulo` set is that of the symmetry-off run's
/// executions.
#[test]
fn symmetry_on_and_off_collect_the_same_orbits() {
    for lock in ["caslock", "taslock", "semaphore", "ttas", "ticketlock"] {
        let p = registry::entry(lock).expect("lock is in the catalog").client(3, 1);
        let partition = p.symmetry_partition();
        assert!(!partition.is_trivial(), "{lock}: the client must be symmetric");
        let cfg = AmcConfig::with_model(ModelKind::Vmm).collecting();
        let on = explore(&p, &cfg);
        let off = explore(&p, &cfg.clone().without_symmetry());
        assert!(on.is_verified() && off.is_verified(), "{lock}");
        let mut canonicalizer = Canonicalizer::new(Some(&partition));
        for g in &on.executions {
            let (_, relabeled) = canonicalizer.hash_view(&GraphView::full(g));
            assert!(!relabeled, "{lock}: symmetry on collected a non-canonical graph");
        }
        let orbits = |gs: &[vsync::graph::ExecutionGraph]| -> BTreeSet<u128> {
            gs.iter().map(|g| canonical_hash_modulo(g, &partition)).collect()
        };
        let (of_on, of_off) = (orbits(&on.executions), orbits(&off.executions));
        assert_eq!(on.executions.len() as u64, on.stats.complete_executions, "{lock}");
        assert_eq!(of_on.len() as u64, on.stats.complete_executions, "{lock}: one per orbit");
        assert_eq!(off.executions.len() as u64, off.stats.complete_executions, "{lock}");
        // `assert!`, not `assert_eq!`: a failure should print the tally,
        // not two sets of hashes.
        let common = of_on.intersection(&of_off).count();
        assert!(
            of_on == of_off,
            "{lock}: symmetry on and off share {common} of {} / {} orbits",
            of_on.len(),
            of_off.len()
        );
    }
}

/// The verdict-kind label used by the differential assertions.
fn kind_of(v: &Verdict) -> &'static str {
    match v {
        Verdict::Verified => "verified",
        Verdict::Safety(_) => "safety",
        Verdict::AwaitTermination(_) => "await-termination",
        Verdict::Fault(_) => "fault",
        Verdict::Inconclusive(_) => "inconclusive",
        Verdict::Error(_) => "error",
    }
}

/// Full-registry differential: for every registered lock's 2-thread
/// client, every memory model and workers {1, 2, 8}, symmetry-on and
/// symmetry-off runs agree on the verdict; symmetry never explores more
/// items; and the symmetry-on counts (per-orbit `popped`,
/// `complete_executions`, and the total dedup hits
/// `duplicates + symmetry_pruned`) are identical for every worker count —
/// the determinism guarantee of canonical-representative processing. (The
/// duplicates/symmetry_pruned *split* alone is arrival-order dependent in
/// parallel runs: whichever twin of an orbit arrives first is the one
/// that gets normalized.)
#[test]
fn full_registry_differential_across_models_and_workers() {
    for entry in registry::catalog() {
        let p = entry.client(2, 1);
        let symmetric = !p.symmetry_partition().is_trivial();
        for model in ModelKind::all() {
            let mut base_on = None;
            let mut base_off = None;
            for workers in [1usize, 2, 8] {
                let cfg = AmcConfig::with_model(model).with_workers(workers);
                let on = explore(&p, &cfg);
                let off = explore(&p, &cfg.clone().without_symmetry());
                let tag = format!("{} {model} workers={workers}", entry.name);
                assert_eq!(
                    kind_of(&on.verdict),
                    kind_of(&off.verdict),
                    "{tag}: symmetry changed the verdict ({} vs {})",
                    on.verdict,
                    off.verdict
                );
                assert!(
                    on.stats.popped <= off.stats.popped,
                    "{tag}: symmetry explored more ({} vs {})",
                    on.stats.popped,
                    off.stats.popped
                );
                assert_eq!(off.stats.symmetry_pruned, 0, "{tag}");
                if symmetric {
                    // The reduction's guaranteed observable is the orbit
                    // count collapsing below the per-twin count; a
                    // non-canonical dedup miss (`symmetry_pruned`) is
                    // only a side signal, and the revisit engine probes
                    // few enough graphs that a small client's twin
                    // misses can all land on canonical labelings.
                    let collapsed = on.verdict.is_verified()
                        && on.stats.complete_executions < off.stats.complete_executions;
                    assert!(
                        on.stats.symmetry_pruned > 0 || collapsed,
                        "{tag}: symmetric client pruned nothing"
                    );
                } else {
                    assert_eq!(on.stats.popped, off.stats.popped, "{tag}: spurious change");
                }
                // Counts are worker-count deterministic in both modes
                // (for the dedup hits, their *sum* is the deterministic
                // quantity — see the doc comment).
                let on_key = (
                    on.stats.popped,
                    on.stats.complete_executions,
                    on.stats.duplicates + on.stats.symmetry_pruned,
                );
                let off_key = (off.stats.popped, off.stats.complete_executions);
                assert_eq!(*base_on.get_or_insert(on_key), on_key, "{tag}: on-counts drift");
                assert_eq!(*base_off.get_or_insert(off_key), off_key, "{tag}: off-counts drift");
            }
        }
    }
}

/// Violation identity: the broken study cases and barrier-weakened locks
/// report the same verdict kind *and message* with symmetry on and off
/// (sequentially — parallel runs race to the first counterexample), and
/// the same kind for every worker count.
#[test]
fn broken_locks_report_identical_violations() {
    use vsync::locks::model::{dpdk_scenario, huawei_scenario, mutex_client, CasLock, TtasLock};
    let broken: Vec<(&str, Program)> = vec![
        (
            "caslock-rlx-release",
            mutex_client(
                &CasLock { release_mode: Mode::Rlx, ..CasLock::default() },
                2,
                1,
            ),
        ),
        (
            "ttas-rlx-xchg",
            mutex_client(&TtasLock { xchg_mode: Mode::Rlx, ..TtasLock::default() }, 2, 1),
        ),
        ("dpdk", dpdk_scenario(false)),
        ("huawei", huawei_scenario(false)),
    ];
    for (name, p) in &broken {
        let on = explore(p, &AmcConfig::default());
        let off = explore(p, &AmcConfig::default().without_symmetry());
        assert_ne!(kind_of(&on.verdict), "verified", "{name} is a bug scenario");
        assert_eq!(kind_of(&on.verdict), kind_of(&off.verdict), "{name}");
        let msg = |v: &Verdict| v.counterexample().map(|c| c.message.clone());
        assert_eq!(msg(&on.verdict), msg(&off.verdict), "{name}: messages diverge");
        for workers in [2usize, 8] {
            let r = explore(p, &AmcConfig::default().with_workers(workers));
            assert_eq!(kind_of(&r.verdict), kind_of(&on.verdict), "{name} workers={workers}");
        }
    }
}

/// The acceptance bar, in-tree: on the symmetric 3-thread matrix rows the
/// naive exploration visits at least 2x as many graphs as the
/// symmetry-reduced one, with identical (verified) verdicts and
/// execution-orbit counts consistent with the class size (`3! = 6` twins
/// collapse to at least a third).
#[test]
fn three_thread_symmetric_matrix_meets_the_reduction_bar() {
    let rows: Vec<_> =
        registry::symmetric_matrix().into_iter().filter(|e| e.threads == 3).collect();
    assert!(!rows.is_empty(), "the matrix must carry 3-thread symmetric rows");
    for row in rows {
        let p = row.client();
        let on = explore(&p, &AmcConfig::default());
        let off = explore(&p, &AmcConfig::default().without_symmetry());
        assert!(on.is_verified() && off.is_verified(), "{}", row.label);
        assert!(
            off.stats.popped >= 2 * on.stats.popped,
            "{}: expected >= 2x reduction, got {} vs {}",
            row.label,
            off.stats.popped,
            on.stats.popped
        );
    }
}
