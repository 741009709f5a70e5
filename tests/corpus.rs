//! Corpus conformance: every annotated litmus file under `corpus/` must
//! produce exactly its expected verdict under every model, at both
//! sequential and parallel worker counts; templated files must actually
//! exercise the symmetry reduction; and every file must be in canonical
//! format (the `vsync fmt --check` CI job enforces the same locally).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use vsync::core::{
    collect_litmus_files, count_executions, run_corpus, AmcConfig, CorpusOptions, EventKind,
    FileOutcome, StopReason,
};
use vsync::model::ModelKind;

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path:?}: {e}"))
}

/// The corpus floor: at least 20 files, each annotating every model.
#[test]
fn corpus_is_large_and_fully_annotated() {
    let files = collect_litmus_files(&corpus_dir()).expect("corpus dir exists");
    assert!(
        files.len() >= 20,
        "corpus shrank below the 20-file floor ({} files)",
        files.len()
    );
    for path in &files {
        let test = vsync::dsl::compile(&read(path))
            .unwrap_or_else(|d| panic!("{}: {d}", path.display()));
        for model in ModelKind::all() {
            assert!(
                test.expectations.iter().any(|e| e.model == model),
                "{}: missing `expect {}: ...` annotation",
                path.display(),
                model.to_string().to_ascii_lowercase()
            );
        }
    }
}

/// Every corpus file is a fixpoint of the canonical formatter.
#[test]
fn corpus_files_are_canonically_formatted() {
    for path in collect_litmus_files(&corpus_dir()).expect("corpus dir exists") {
        let src = read(&path);
        let formatted = vsync::dsl::format_source(&src)
            .unwrap_or_else(|d| panic!("{}: {d}", path.display()));
        assert_eq!(
            formatted,
            src,
            "{} is not canonically formatted (run `vsync fmt --write corpus`)",
            path.display()
        );
    }
}

/// All annotated verdicts (and execution counts) hold under every model
/// with workers {1, 8}; templated files report symmetry pruning.
#[test]
fn corpus_expectations_hold_across_models_and_workers() {
    let dir = corpus_dir();
    for workers in [1usize, 8] {
        let opts = CorpusOptions {
            models: Some(ModelKind::all().to_vec()),
            workers,
            jobs: 4,
            ..Default::default()
        };
        let report = run_corpus(&dir, &opts).expect("corpus dir readable");
        assert!(
            report.passed(),
            "corpus failed at workers={workers}:\n{}",
            report.render_table()
        );
        for file in &report.files {
            let FileOutcome::Checked(models) = &file.outcome else {
                panic!("{}: parse error in passing corpus", file.path);
            };
            assert_eq!(models.len(), ModelKind::all().len(), "{}", file.path);
            let test = vsync::dsl::compile(&read(Path::new(&file.path))).expect("compiles");
            if test.templated {
                // The reduction's guaranteed observable is the orbit
                // count collapsing below the naive per-twin count. A
                // non-canonical dedup miss (`symmetry_pruned`) is only a
                // side signal: the revisit engine probes only the views
                // its chains generate, so on a tiny file the handful
                // of twin misses can all land on canonical labelings and
                // be counted as plain duplicates.
                let pruned: u64 = models.iter().map(|m| m.symmetry_pruned).sum();
                let collapsed = models.iter().any(|m| {
                    let mut naive = AmcConfig::with_model(m.model);
                    naive.symmetry = false;
                    m.verdict.is_verified()
                        && count_executions(&test.program, &naive) > m.executions
                });
                assert!(
                    pruned > 0 || collapsed,
                    "{}: templated threads must exercise the symmetry reduction \
                     (workers={workers})",
                    file.path
                );
                assert!(
                    !test.program.symmetry_partition().is_trivial(),
                    "{}: templated file lost its declared symmetry class",
                    file.path
                );
            }
        }
    }
}

/// The corpus must cover the advertised scenario families: the classic
/// shapes, await/liveness cases and the study-case lock clients, with
/// all three failure modes (safety, await-termination) represented.
#[test]
fn corpus_covers_the_advertised_families() {
    let files = collect_litmus_files(&corpus_dir()).expect("corpus dir exists");
    let names: Vec<String> = files
        .iter()
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    for required in [
        "sb", "mp", "lb", "iriw", "corr", "r", "two_plus_two_w", "atomicity", // classic
        "handshake", "lost_signal", "await_mask", // liveness
        "dpdk_unlock", "huawei_lost_update", "caslock_client", "ttas_client", // locks
    ] {
        assert!(names.iter().any(|n| n == required), "corpus lost {required}.litmus");
    }
    let mut kinds = std::collections::BTreeSet::new();
    for path in &files {
        let test = vsync::dsl::compile(&read(path)).expect("compiles");
        for e in &test.expectations {
            kinds.insert(e.verdict.name());
        }
    }
    for kind in ["verified", "safety", "await-termination"] {
        assert!(kinds.contains(kind), "no corpus file expects a {kind} verdict");
    }
}

/// A file that exhausts its memory budget is checked once and reported
/// inconclusive: the budget is per exploration, so a rerun would stop at
/// the same point.
#[test]
fn starved_file_runs_one_session() {
    let thread = |a: &str, b: &str, v: u32| {
        format!(
            "thread {{\n  store.rlx {a}, {v}\n  r0 = load.rlx {b}\n  store.rlx {b}, {v}\n  \
             r1 = load.rlx {a}\n}}\n"
        )
    };
    let source = format!(
        "litmus \"starved\"\n{}{}{}{}expect vmm: verified\n",
        thread("x", "y", 1),
        thread("y", "x", 2),
        thread("x", "y", 3),
        thread("y", "x", 4)
    );
    let dir = std::env::temp_dir().join(format!("vsync-starved-corpus-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("starved.litmus"), source).unwrap();
    let sessions = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&sessions);
    let opts = CorpusOptions {
        max_memory_bytes: 1 << 20,
        on_event: Some(Arc::new(move |ev| {
            if matches!(ev.kind, EventKind::SessionStart { .. }) {
                counter.fetch_add(1, Ordering::Relaxed);
            }
        })),
        ..CorpusOptions::default()
    };
    let report = run_corpus(&dir, &opts).expect("temp corpus readable");
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(sessions.load(Ordering::Relaxed), 1, "the starved file ran more than once");
    let FileOutcome::Checked(models) = &report.files[0].outcome else {
        panic!("expected a checked outcome: {}", report.to_json())
    };
    assert_eq!(models[0].verdict.stop_reason(), Some(StopReason::MemoryBudget));
    assert!(report.to_json().contains("memory budget exhausted"), "{}", report.to_json());
}
