//! The six workloads. A *pass* runs every item of a workload once, in the
//! fixed order of its expected-answers file, through the same public
//! entry points the `vsync` CLI uses: build or parse the program, verify
//! or optimize it, compare the verdict with the known answer, render the
//! report.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use vsync_core::{
    run_corpus, CorpusOptions, EnginePhase, EventKind, ExploreStats, FileOutcome, OptimizerConfig,
    PhaseProfile, Report, Session,
};
use vsync_graph::{to_dot, Mode};
use vsync_lang::Program;
use vsync_locks::model::{dpdk_scenario, huawei_scenario};
use vsync_locks::registry;
use vsync_model::CheckerKind;

use crate::calibrate::Calibrator;
use crate::expected::{self, Item, Source, Study};
use crate::gen::{self, Generated};
use crate::json::Json;
use crate::trace::Recorder;

/// Workload names, in the order `run` without `--workload` runs them.
pub const NAMES: [&str; 6] =
    ["verify-deep", "verify-wide", "verify-parallel", "optimize", "bug-hunt", "litmus-corpus"];

/// Seeded variants generated per corpus file for `litmus-corpus`.
pub const CORPUS_VARIANTS: usize = 7;

/// Where the benchmark finds the repo and keeps its own files.
#[derive(Debug, Clone)]
pub struct Env {
    /// The repo's `corpus/` directory.
    pub corpus_dir: PathBuf,
    /// `benchmark/expected/`.
    pub expected_dir: PathBuf,
    /// `benchmark/out/` — generated inputs, traces, result files.
    pub out_dir: PathBuf,
}

impl Env {
    /// The checkout is the current directory when the benchmark is run
    /// as `BENCHMARK.json` says (from the repo root); otherwise it is
    /// where this package was built from.
    pub fn locate() -> Env {
        let cwd = std::env::current_dir().unwrap_or_default();
        let root = if cwd.join("benchmark/expected").is_dir() {
            cwd
        } else {
            Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
        };
        Env {
            corpus_dir: root.join("corpus"),
            expected_dir: root.join("benchmark/expected"),
            out_dir: root.join("benchmark/out"),
        }
    }
}

/// How one pass is run; everything else about a workload is fixed.
#[derive(Debug, Clone, Copy)]
pub struct PassCfg {
    /// `Fast` always, except in `selfcheck`'s slowed-down variant.
    pub checker: CheckerKind,
    /// The traced pass: engine phase profiling on, layer counts kept.
    pub traced: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flavor {
    Verify,
    Optimize,
    /// `Verify`, plus a Graphviz rendering of the counterexample.
    BugHunt,
    Corpus,
}

pub struct Workload {
    pub name: &'static str,
    /// Exploration workers per session.
    pub workers: usize,
    pub items: Vec<Item>,
    flavor: Flavor,
    /// Per-item wall-clock limit: about 20x the slowest item's recorded
    /// time, so a hang becomes a failed item and not a stuck benchmark.
    item_limit: Duration,
    corpus_dir: PathBuf,
    /// `litmus-corpus`: the generated directory and its files.
    generated_dir: PathBuf,
    generated: Vec<Generated>,
}

/// What the engine reported about the work of a traced pass.
#[derive(Debug, Default)]
pub struct LayerCounts {
    /// Counters and phase times of every exploration whose report the
    /// benchmark sees (for `optimize`: the initial verification; the
    /// optimizer's own explorations are summarized in `optimize`).
    pub stats: ExploreStats,
    pub optimize: OptimizeTotals,
}

#[derive(Debug, Default)]
pub struct OptimizeTotals {
    pub verifications: u64,
    pub explorations: u64,
    pub graphs: u64,
    pub cache_hits: u64,
    /// Phase time of all explorations of the optimize sessions as drained
    /// onto the event bus. The bus is drained every 64 work items and not
    /// at the end of an exploration, so this is a lower bound.
    pub explore_ns_on_bus: u64,
}

pub struct PassOutcome {
    /// Wall time of the pass; its calibrated time comes from the
    /// calibrator once the series is over (calibrate.rs).
    pub wall_s: f64,
    /// Items attempted (for `litmus-corpus`: files).
    pub attempted: u64,
    /// One line per failed item.
    pub failures: Vec<String>,
}

impl Workload {
    /// Everything that has to exist before the first pass: the known
    /// answers, and for `litmus-corpus` the generated input directory.
    pub fn set_up(env: &Env, name: &str, seed: u64) -> Result<Workload, String> {
        let (name, flavor, workers, limit_s) = match name {
            "verify-deep" => ("verify-deep", Flavor::Verify, 1, 25),
            "verify-wide" => ("verify-wide", Flavor::Verify, 1, 2),
            "verify-parallel" => ("verify-parallel", Flavor::Verify, parallel_workers(), 25),
            "optimize" => ("optimize", Flavor::Optimize, 1, 25),
            "bug-hunt" => ("bug-hunt", Flavor::BugHunt, 1, 2),
            // One limit for the whole `run_corpus` call.
            "litmus-corpus" => ("litmus-corpus", Flavor::Corpus, 1, 10),
            other => {
                return Err(format!("unknown workload `{other}` (one of: {})", NAMES.join(", ")))
            }
        };
        let items = expected::load(&env.expected_dir, name)?;
        let generated_dir = env.out_dir.join(format!("litmus-corpus-seed-{seed}"));
        let generated = if flavor == Flavor::Corpus {
            let parents = items
                .iter()
                .map(|it| match &it.source {
                    Source::Litmus(file) => Ok(file.clone()),
                    other => Err(format!(
                        "{}: litmus-corpus takes litmus sources, not {other:?}",
                        it.name
                    )),
                })
                .collect::<Result<Vec<_>, _>>()?;
            gen::generate(&env.corpus_dir, &parents, seed, CORPUS_VARIANTS, &generated_dir)?
        } else {
            Vec::new()
        };
        Ok(Workload {
            name,
            workers,
            items,
            flavor,
            item_limit: Duration::from_secs(limit_s),
            corpus_dir: env.corpus_dir.clone(),
            generated_dir,
            generated,
        })
    }

    pub fn pass(
        &self,
        cfg: PassCfg,
        cal: &mut Calibrator,
        rec: &mut Recorder,
        layers: &mut LayerCounts,
    ) -> PassOutcome {
        let mut failures = Vec::new();
        cal.begin();
        let attempted = if self.flavor == Flavor::Corpus {
            let root = rec.begin_item("litmus-corpus");
            self.corpus_pass(cfg, rec, layers, &mut failures);
            rec.end(root);
            self.generated.len() as u64
        } else {
            for item in &self.items {
                let root = rec.begin_item(&item.name);
                if let Err(why) = self.session_item(item, cfg, rec, layers) {
                    failures.push(format!("{}: {why}", item.name));
                }
                rec.end(root);
                cal.mark();
            }
            self.items.len() as u64
        };
        PassOutcome { wall_s: cal.finish(), attempted, failures }
    }

    fn program(&self, item: &Item, rec: &mut Recorder) -> Result<Program, String> {
        let client = |lock: &str, threads, acquires| {
            registry::entry(lock)
                .map(|e| e.client(threads, acquires))
                .ok_or_else(|| format!("no lock `{lock}` in the catalog"))
        };
        match &item.source {
            Source::Litmus(file) => {
                let path = self.corpus_dir.join(file);
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
                let ast = rec.span("dsl.parse", || vsync_dsl::parse(&text));
                let test = rec.span("dsl.lower", || ast.and_then(|ast| vsync_dsl::lower(&ast)));
                test.map(|t| t.program).map_err(|d| d.to_string())
            }
            Source::Lock { lock, threads, acquires } => {
                rec.span("locks.client_build", || client(lock, *threads, *acquires))
            }
            Source::Mutant { lock, threads, acquires, site } => rec
                .span("locks.client_build", || {
                    client(lock, *threads, *acquires).and_then(|p| weaken(&p, site))
                }),
            Source::Study(study) => Ok(rec.span("locks.client_build", || match study {
                Study::Dpdk => dpdk_scenario(false),
                Study::Huawei => huawei_scenario(false),
            })),
        }
    }

    /// One item through a `Session`, as `vsync verify|optimize|bug|check`
    /// would run it.
    fn session_item(
        &self,
        item: &Item,
        cfg: PassCfg,
        rec: &mut Recorder,
        layers: &mut LayerCounts,
    ) -> Result<(), String> {
        let mut program = self.program(item, rec)?;
        let optimize = self.flavor == Flavor::Optimize;
        // What the published assignment keeps at seq_cst bounds what the
        // optimizer may (see expected/optimize.txt).
        let published_sc = program.barrier_summary().sc;
        if optimize {
            program = program.with_all_sc();
        }
        let mut session = Session::new(program)
            .models(item.models())
            .workers(self.workers)
            .checker(cfg.checker)
            .deadline(self.item_limit)
            .profile(cfg.traced);
        let explore_ns = Arc::new(AtomicU64::new(0));
        if optimize {
            session = session.optimize(OptimizerConfig::default());
            if cfg.traced {
                let sum = Arc::clone(&explore_ns);
                session = session.on_event(move |ev| {
                    if let EventKind::PhaseSlice { phases, .. } = &ev.kind {
                        sum.fetch_add(exploration_ns(phases), Ordering::Relaxed);
                    }
                });
            }
        }
        let span = rec.begin("core.session.run");
        let report = session.run();
        rec.end(span);

        let mut verdict = Ok(());
        for (expect, run) in item.expects.iter().zip(&report.models) {
            verdict = verdict.and(expect.check(&run.verdict, run.stats.complete_executions));
            if let Some(opt) = &run.optimization {
                rec.add_tail_child(span, "core.optimize", opt.elapsed.as_nanos() as u64);
            }
            if optimize {
                verdict = verdict.and(check_optimization(run.optimization.as_ref(), published_sc));
            }
        }
        if cfg.traced {
            rec.set_args(span, vec![("phases".to_owned(), phases_json(&report))]);
            layers.stats.merge(&report.merged_stats());
            for opt in report.models.iter().filter_map(|m| m.optimization.as_ref()) {
                layers.optimize.verifications += opt.verifications;
                layers.optimize.explorations += opt.explorations;
                layers.optimize.graphs += opt.explored_graphs;
                layers.optimize.cache_hits += opt.cache_hits;
            }
            layers.optimize.explore_ns_on_bus += explore_ns.load(Ordering::Relaxed);
        }

        let text = rec.span("core.report.render", || report.render());
        if !text.contains(&report.program) {
            verdict = verdict.and(Err("the rendered report does not name the program".to_owned()));
        }
        black_box(text);
        if self.flavor == Flavor::BugHunt {
            let dot = rec.span("graph.dot", || {
                let witness = report.models.iter().find_map(|m| m.verdict.counterexample());
                witness.map(|ce| to_dot(&ce.graph))
            });
            if !dot.as_deref().is_some_and(|d| d.starts_with("digraph")) {
                verdict = verdict.and(Err("no counterexample graph to draw".to_owned()));
            }
            black_box(dot);
        }
        verdict
    }

    /// `vsync corpus <dir> --jobs 1 --json` over the generated directory.
    fn corpus_pass(
        &self,
        cfg: PassCfg,
        rec: &mut Recorder,
        layers: &mut LayerCounts,
        failures: &mut Vec<String>,
    ) {
        let opts = CorpusOptions {
            jobs: 1,
            workers: 1,
            deadline: Some(self.item_limit),
            profile: cfg.traced,
            ..CorpusOptions::default()
        };
        let report = match rec.span("core.corpus.run", || run_corpus(&self.generated_dir, &opts)) {
            Ok(r) => r,
            Err(e) => return failures.push(format!("run_corpus: {e}")),
        };
        let json = rec.span("core.report.to_json", || report.to_json());
        if !json.starts_with('{') {
            failures.push("the corpus report is not a JSON object".to_owned());
        }
        black_box(json);

        if report.files.len() != self.generated.len() {
            failures.push(format!(
                "{} files generated, {} reported",
                self.generated.len(),
                report.files.len()
            ));
        }
        // Both lists are in path order.
        for (file, generated) in report.files.iter().zip(&self.generated) {
            if generated.path != Path::new(&file.path) {
                failures.push(format!("{}: not the generated file expected here", file.path));
                continue;
            }
            let item = &self.items[generated.parent];
            let FileOutcome::Checked(models) = &file.outcome else {
                failures.push(format!("{}: not checked: {:?}", file.path, file.outcome));
                continue;
            };
            let mut verdict = Ok(());
            if models.len() != item.expects.len() {
                verdict = Err(format!(
                    "{} models checked, {} expected",
                    models.len(),
                    item.expects.len()
                ));
            }
            for (expect, m) in item.expects.iter().zip(models) {
                verdict = verdict.and(expect.check(&m.verdict, m.executions));
                // The engine's own reading of the (inherited) expect lines
                // must agree with the table's.
                if !m.ok {
                    verdict = verdict.and(Err(format!("{}: `expect` line not met", m.model)));
                }
                if cfg.traced {
                    layers.stats.phases.merge(&m.phases);
                }
            }
            if let Err(why) = verdict {
                failures.push(format!("{}: {why}", file.path));
            }
        }
    }

    /// `litmus-corpus` only: the exploration counters `run_corpus` does
    /// not report, from one `Session` per generated file (the same call
    /// `run_corpus` makes per file). Not part of any timed pass.
    pub fn corpus_counters(&self) -> Result<ExploreStats, String> {
        let mut total = ExploreStats::default();
        for g in &self.generated {
            let session = Session::from_path(&g.path).map_err(|e| e.to_string())?;
            total.merge(&session.run().merged_stats());
        }
        Ok(total)
    }

    /// The generated input files (`litmus-corpus`; empty otherwise).
    pub fn generated(&self) -> &[Generated] {
        &self.generated
    }
}

/// `min(nproc, 4)`, at least 2: the parallel drivers run even on one
/// core (the result then carries `nproc` = 1 in its stamp).
pub fn parallel_workers() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from).clamp(2, 4)
}

/// `program` with the barrier site called `site` weakened to relaxed.
fn weaken(program: &Program, site: &str) -> Result<Program, String> {
    let index = program
        .sites()
        .iter()
        .position(|s| s.name == site)
        .ok_or_else(|| format!("{} has no site `{site}`", program.name()))?;
    if program.sites()[index].mode == Mode::Rlx {
        return Err(format!("site `{site}` is already relaxed"));
    }
    Ok(program.with_patch(&[(index as u32, Mode::Rlx)]))
}

fn check_optimization(
    opt: Option<&vsync_core::OptimizationReport>,
    published_sc: usize,
) -> Result<(), String> {
    let Some(opt) = opt else {
        return Err("no optimization report".to_owned());
    };
    if !opt.verified || opt.interrupted || opt.error.is_some() {
        return Err(format!(
            "optimizer: verified={} interrupted={} error={:?}",
            opt.verified, opt.interrupted, opt.error
        ));
    }
    if !opt.steps.iter().any(|s| s.accepted) {
        return Err("optimizer relaxed nothing".to_owned());
    }
    if opt.after.sc > published_sc {
        return Err(format!(
            "optimizer left {} sites at seq_cst, the published assignment {published_sc}",
            opt.after.sc
        ));
    }
    Ok(())
}

/// Nanoseconds a phase profile attributes to exploring (everything but
/// the `Optimize` and `Corpus` bookkeeping spans, which contain
/// explorations).
fn exploration_ns(phases: &PhaseProfile) -> u64 {
    phases
        .iter()
        .filter(|(p, _)| !matches!(p, EnginePhase::Optimize | EnginePhase::Corpus))
        .map(|(_, s)| s.total_ns)
        .sum()
}

/// The engine's per-phase breakdown of a session, for the trace viewer.
fn phases_json(report: &Report) -> Json {
    let stats = report.merged_stats();
    Json::Obj(
        stats
            .phases
            .iter()
            .filter(|(_, s)| s.count > 0)
            .map(|(p, s)| {
                let v = Json::obj([
                    ("count", Json::Int(s.count)),
                    ("total_us", Json::Num(s.total_ns as f64 / 1e3)),
                ]);
                (p.key().to_owned(), v)
            })
            .collect(),
    )
}
