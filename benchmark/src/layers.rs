//! Per-layer measurements, all taken from outside the engine: fixed
//! micro-timings of each layer's public functions on captured inputs
//! ([`probe`]), and the per-layer metric list assembled from those plus
//! what a traced pass recorded ([`per_layer`]).

use std::hint::black_box;
use std::time::Instant;

use vsync_core::{
    run_corpus, CorpusOptions, EnginePhase, ExploreStats, PhaseProfile, PhaseStat, Report, Session,
};
use vsync_dsl::SourceFile;
use vsync_graph::{
    canonical_hash_modulo, to_dot, EventKind, ExecutionGraph, Mode, ThreadPartition,
};
use vsync_lang::{replay, Program, ProgramBuilder};
use vsync_locks::model::dpdk_scenario;
use vsync_locks::{registry, SessionExt as _};
use vsync_model::fast::SMALL_GRAPH_EVENTS;
use vsync_model::ModelKind;

use crate::gen;
use crate::stats::{quantile, sorted};
use crate::trace::Recorder;
use crate::workloads::{Env, OptimizeTotals};

/// Repetitions per probe; the lower quartile is reported (interference
/// on a shared box only ever adds time).
const PROBE_REPS: usize = 15;
/// Graphs kept per captured set.
const CAPTURE: usize = 64;

/// Fixed inputs for the probes, captured through the public API.
pub struct Captured {
    sources: Vec<String>,
    asts: Vec<SourceFile>,
    originals_dir: std::path::PathBuf,
    /// Complete executions of mcs-3t under VMM: more than
    /// `SMALL_GRAPH_EVENTS` events each, so `is_consistent` takes the
    /// `model::fast` path.
    big_program: Program,
    big: Vec<ExecutionGraph>,
    /// Complete executions of caslock-2t: small enough that
    /// `is_consistent` hands them to the reference checker.
    small: Vec<ExecutionGraph>,
    /// Complete executions of ttas-3t (three interchangeable threads).
    symmetric: Vec<ExecutionGraph>,
    partition: ThreadPartition,
    counterexample: ExecutionGraph,
    verified_report: Report,
    violating_report: Report,
}

fn executions(lock: &str, threads: usize) -> Result<(Program, Vec<ExecutionGraph>), String> {
    let program = registry::entry(lock)
        .ok_or_else(|| format!("no lock `{lock}` in the catalog"))?
        .client(threads, 1);
    let report = Session::new(program.clone()).model(ModelKind::Vmm).collect_executions().run();
    if !report.is_verified() {
        return Err(format!("{lock}-{threads}t did not verify while capturing probe inputs"));
    }
    let mut graphs = report.models.into_iter().next().map(|m| m.executions).unwrap_or_default();
    graphs.truncate(CAPTURE);
    if graphs.is_empty() {
        return Err(format!("{lock}-{threads}t has no complete execution"));
    }
    Ok((program, graphs))
}

impl Captured {
    pub fn capture(env: &Env) -> Result<Captured, String> {
        let parents: Vec<String> = crate::expected::load(&env.expected_dir, "litmus-corpus")?
            .into_iter()
            .filter_map(|it| match it.source {
                crate::expected::Source::Litmus(f) => Some(f),
                _ => None,
            })
            .collect();
        let originals_dir = env.out_dir.join("probe-corpus");
        let files = gen::generate(&env.corpus_dir, &parents, 0, 0, &originals_dir)?;
        let sources = files
            .iter()
            .map(|g| std::fs::read_to_string(&g.path).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        let asts = sources
            .iter()
            .map(|s| vsync_dsl::parse(s).map_err(|d| d.to_string()))
            .collect::<Result<Vec<_>, _>>()?;

        let (big_program, big) = executions("mcs", 3)?;
        let (_, small) = executions("caslock", 2)?;
        let (symmetric_program, symmetric) = executions("ttas", 3)?;
        if big.iter().any(|g| g.num_events() <= SMALL_GRAPH_EVENTS) {
            return Err("mcs-3t executions no longer take the fast checker path".to_owned());
        }
        if small.iter().any(|g| g.num_events() > SMALL_GRAPH_EVENTS) {
            return Err(
                "caslock-2t executions no longer take the reference checker path".to_owned()
            );
        }
        let partition = symmetric_program.symmetry_partition();
        if partition.is_trivial() {
            return Err("ttas-3t lost its thread symmetry".to_owned());
        }
        let violating_report = Session::new(dpdk_scenario(false)).model(ModelKind::Vmm).run();
        let counterexample = violating_report
            .models
            .iter()
            .find_map(|m| m.verdict.counterexample())
            .map(|ce| ce.graph.clone())
            .ok_or("the DPDK scenario produced no counterexample")?;
        let verified_report = Session::lock("ttas", 2, 1).models(ModelKind::all()).run();
        Ok(Captured {
            sources,
            asts,
            originals_dir,
            big_program,
            big,
            small,
            symmetric,
            partition,
            counterexample,
            verified_report,
            violating_report,
        })
    }
}

/// Lower-quartile nanoseconds of one call of `f`.
fn time_ns(mut f: impl FnMut()) -> f64 {
    time_ns_with(|| (), |()| f())
}

/// [`time_ns`] for a call that consumes a fresh input each time; making
/// the input is not timed.
fn time_ns_with<I>(mut make: impl FnMut() -> I, mut f: impl FnMut(I)) -> f64 {
    let samples: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            let input = make();
            let t0 = Instant::now();
            f(input);
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    quantile(&sorted(&samples), 0.25)
}

/// The micro-timings: `(metric name, value)` in the metric's unit. The
/// inputs are the same for every workload and seed, so these numbers
/// describe the layers, not the workload that happened to print them.
pub fn probe(c: &Captured) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    let events =
        |gs: &[ExecutionGraph]| gs.iter().map(ExecutionGraph::num_events).sum::<usize>() as f64;
    let files = c.sources.len() as f64;

    let bytes: usize = c.sources.iter().map(String::len).sum();
    let parse = time_ns(|| {
        for s in &c.sources {
            black_box(vsync_dsl::parse(black_box(s)).is_ok());
        }
    });
    out.push(("dsl.parse.ns_per_byte", parse / bytes as f64));
    let lower = time_ns(|| {
        for ast in &c.asts {
            black_box(vsync_dsl::lower(black_box(ast)).is_ok());
        }
    });
    out.push(("dsl.lower.us_per_file", lower / files / 1e3));
    let format = time_ns(|| {
        for ast in &c.asts {
            black_box(vsync_dsl::format_file(black_box(ast)));
        }
    });
    out.push(("dsl.format.us_per_file", format / files / 1e3));

    let catalog = registry::catalog();
    let build = time_ns(|| {
        for e in catalog {
            black_box(e.client(3, 1));
        }
    });
    out.push(("locks.client_build.us", build / catalog.len() as f64 / 1e3));

    let replayed = time_ns_with(
        || c.big.clone(),
        |mut graphs| {
            for g in &mut graphs {
                black_box(replay(&c.big_program, g).errored());
            }
        },
    );
    out.push(("lang.replay.ns_per_event", replayed / events(&c.big)));

    let hashed = time_ns(|| {
        for g in &c.symmetric {
            black_box(canonical_hash_modulo(black_box(g), &c.partition));
        }
    });
    out.push(("graph.canonical_hash.ns_per_event", hashed / events(&c.symmetric)));
    let cloned = time_ns(|| {
        for g in &c.big {
            let mut copy = g.clone();
            copy.push_event(
                0,
                EventKind::Write { loc: 0x8000, val: 1, mode: Mode::Rlx, rmw: false },
            );
            black_box(copy);
        }
    });
    out.push(("graph.clone_push.ns", cloned / c.big.len() as f64));
    let dot = time_ns(|| {
        black_box(to_dot(black_box(&c.counterexample)));
    });
    out.push(("graph.dot.us", dot / 1e3));

    for (name, kind) in [
        ("model.fast.ns_per_check.sc", ModelKind::Sc),
        ("model.fast.ns_per_check.tso", ModelKind::Tso),
        ("model.fast.ns_per_check.vmm", ModelKind::Vmm),
    ] {
        let model = kind.model();
        let t = time_ns(|| {
            for g in &c.big {
                black_box(model.is_consistent(black_box(g)));
            }
        });
        out.push((name, t / c.big.len() as f64));
    }
    let reference = ModelKind::Vmm.reference_model();
    let t = time_ns(|| {
        for g in &c.small {
            black_box(reference.is_consistent(black_box(g)));
        }
    });
    out.push(("model.reference.ns_per_check", t / c.small.len() as f64));

    // The cost of a session that has nothing to explore.
    let trivial = {
        let mut pb = ProgramBuilder::new("one-store");
        pb.thread(|t| {
            t.store(0x10, 1u64, Mode::Rlx);
        });
        pb.build().expect("a one-store program is well-formed")
    };
    const SESSIONS: usize = 50;
    let fixed = time_ns(|| {
        for _ in 0..SESSIONS {
            black_box(Session::new(trivial.clone()).run().is_verified());
        }
    });
    out.push(("core.session.fixed_us", fixed / SESSIONS as f64 / 1e3));
    let opts = CorpusOptions { jobs: 1, workers: 1, ..CorpusOptions::default() };
    let corpus = time_ns(|| {
        black_box(run_corpus(&c.originals_dir, &opts).is_ok_and(|r| r.passed()));
    });
    out.push(("core.corpus.files_per_s", files / (corpus / 1e9)));
    let render = time_ns(|| {
        black_box(c.verified_report.render());
        black_box(c.violating_report.render());
    });
    out.push(("core.report.render_us", render / 2.0 / 1e3));
    let to_json = time_ns(|| {
        black_box(c.verified_report.to_json());
        black_box(c.violating_report.to_json());
    });
    out.push(("core.report.to_json_us", to_json / 2.0 / 1e3));
    out
}

/// `dsl` time of a `litmus-corpus` pass, measured beside it: parsing and
/// lowering every generated file once, under spans.
pub fn dsl_pass_ns(files: &[gen::Generated], rec: &mut Recorder) -> Result<u64, String> {
    let root = rec.begin_item("dsl-of-generated-files");
    let t0 = Instant::now();
    for g in files {
        let text = std::fs::read_to_string(&g.path).map_err(|e| e.to_string())?;
        let ast = rec.span("dsl.parse", || vsync_dsl::parse(&text));
        let test = rec.span("dsl.lower", || ast.and_then(|a| vsync_dsl::lower(&a)));
        black_box(test.map_err(|d| d.to_string())?);
    }
    let ns = t0.elapsed().as_nanos() as u64;
    rec.end(root);
    Ok(ns)
}

/// What the traced part of a run measured, beside the probes.
pub struct Traced<'a> {
    /// Exploration counters and optimizer totals of one pass.
    pub counts: &'a ExploreStats,
    pub optimize: &'a OptimizeTotals,
    /// Engine phase times, bus-drained exploration time and spans of all
    /// `passes` traced passes, whose wall time sums to `traced_wall_s`.
    pub phases: &'a PhaseProfile,
    pub explore_ns_on_bus: u64,
    pub recorder: &'a Recorder,
    pub passes: u64,
    pub traced_wall_s: f64,
    /// Lower-quartile pass time with and without tracing.
    pub traced_q1_s: f64,
    pub untraced_q1_s: f64,
    /// `model::fast` and reference-checker calls during the traced passes.
    pub checker_calls: (u64, u64),
    /// Process CPU time over wall time while the traced passes ran.
    pub cpu_over_wall: f64,
    /// `dsl` nanoseconds measured beside a `litmus-corpus` pass.
    pub dsl_beside_ns: u64,
    pub parallel: Option<Parallel>,
}

/// `verify-parallel` only: the same items at one worker.
pub struct Parallel {
    pub workers: usize,
    pub one_worker_q1_s: f64,
    pub one_worker_check_mean_us: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn mean_us(s: PhaseStat) -> f64 {
    ratio(s.total_ns as f64 / 1e3, s.count as f64)
}

/// Every per-layer metric, in `metrics::PER_LAYER` order. Counts and
/// shares describe the traced passes of *this* workload; `*.ns*`/`*.us*`
/// micro-timings come from `probes`.
pub fn per_layer(t: &Traced<'_>, probes: &[(&'static str, f64)]) -> Vec<(&'static str, f64)> {
    let stats = t.counts;
    let phase = |p: EnginePhase| t.phases.get(p);
    let per_pass = |n: u64| n as f64 / t.passes as f64;
    let wall_ns = t.traced_wall_s * 1e9;
    let share = |ns: u64| ratio(ns as f64, wall_ns);
    let span_ns = |name: &str| t.recorder.total(name).0;
    let probed = |name: &str| probes.iter().find(|(n, _)| *n == name).map_or(f64::NAN, |&(_, v)| v);
    // `run_corpus` parses inside one opaque call, so for `litmus-corpus`
    // the dsl time is the one measured beside the pass.
    let dsl_share = if t.dsl_beside_ns > 0 {
        ratio(t.dsl_beside_ns as f64, t.untraced_q1_s * 1e9)
    } else {
        share(span_ns("dsl.parse") + span_ns("dsl.lower"))
    };
    let consistency = phase(EnginePhase::Consistency);
    let stagnancy = phase(EnginePhase::Stagnancy);
    let opt = t.optimize;
    let (fast, reference) = t.checker_calls;
    let (speedup, efficiency, inflation) = match &t.parallel {
        Some(p) => {
            let speedup = ratio(p.one_worker_q1_s, t.untraced_q1_s);
            (
                speedup,
                speedup / p.workers as f64,
                ratio(mean_us(consistency), p.one_worker_check_mean_us),
            )
        }
        // One worker against itself.
        None => (1.0, 1.0, 1.0),
    };
    vec![
        ("dsl.parse.ns_per_byte", probed("dsl.parse.ns_per_byte")),
        ("dsl.lower.us_per_file", probed("dsl.lower.us_per_file")),
        ("dsl.format.us_per_file", probed("dsl.format.us_per_file")),
        ("dsl.share", dsl_share),
        ("locks.client_build.us", probed("locks.client_build.us")),
        ("locks.client_build.share", share(span_ns("locks.client_build"))),
        ("lang.replay.ns_per_event", probed("lang.replay.ns_per_event")),
        ("lang.replay.count", per_pass(phase(EnginePhase::Replay).count)),
        ("lang.replay.share", share(phase(EnginePhase::Replay).total_ns)),
        ("graph.canonical_hash.ns_per_event", probed("graph.canonical_hash.ns_per_event")),
        ("graph.clone_push.ns", probed("graph.clone_push.ns")),
        ("graph.dot.us", probed("graph.dot.us")),
        ("graph.probe.count", stats.probes as f64),
        (
            "graph.probe.share",
            share(phase(EnginePhase::Probe).total_ns + phase(EnginePhase::Dedup).total_ns),
        ),
        ("model.fast.ns_per_check.sc", probed("model.fast.ns_per_check.sc")),
        ("model.fast.ns_per_check.tso", probed("model.fast.ns_per_check.tso")),
        ("model.fast.ns_per_check.vmm", probed("model.fast.ns_per_check.vmm")),
        ("model.reference.ns_per_check", probed("model.reference.ns_per_check")),
        ("model.consistency.count", per_pass(consistency.count)),
        ("model.consistency.mean_us", mean_us(consistency)),
        ("model.consistency.share", share(consistency.total_ns)),
        ("model.fast_path_share", ratio(fast as f64, (fast + reference) as f64)),
        ("model.inconsistent_ratio", ratio(stats.inconsistent as f64, per_pass(consistency.count))),
        ("core.revisit.popped", stats.popped as f64),
        ("core.revisit.constructed", stats.constructed as f64),
        ("core.revisit.duplicates", stats.duplicates as f64),
        ("core.revisit.revisits", stats.revisits as f64),
        (
            "core.revisit.useful_ratio",
            ratio(stats.complete_executions as f64, stats.constructed as f64),
        ),
        ("core.revisit.extend.share", share(phase(EnginePhase::Extend).total_ns)),
        ("core.revisit.revisit.share", share(phase(EnginePhase::Revisit).total_ns)),
        ("core.revisit.driver.share", share(phase(EnginePhase::Driver).total_ns)),
        ("core.stagnancy.count", per_pass(stagnancy.count)),
        ("core.stagnancy.mean_us", mean_us(stagnancy)),
        ("core.stagnancy.share", share(stagnancy.total_ns)),
        ("core.optimize.verifications", opt.verifications as f64),
        ("core.optimize.explorations", opt.explorations as f64),
        ("core.optimize.graphs", opt.graphs as f64),
        ("core.optimize.cache_hits", opt.cache_hits as f64),
        (
            "core.optimize.witness_hit_ratio",
            ratio(opt.cache_hits as f64, (opt.cache_hits + opt.explorations) as f64),
        ),
        (
            "core.optimize.explore_share",
            ratio(t.explore_ns_on_bus as f64, span_ns("core.session.run") as f64),
        ),
        ("core.session.fixed_us", probed("core.session.fixed_us")),
        ("core.session.share", share(span_ns("core.session.run") + span_ns("core.corpus.run"))),
        ("core.corpus.files_per_s", probed("core.corpus.files_per_s")),
        ("core.report.render_us", probed("core.report.render_us")),
        ("core.report.to_json_us", probed("core.report.to_json_us")),
        (
            "core.report.share",
            share(
                span_ns("core.report.render")
                    + span_ns("core.report.to_json")
                    + span_ns("graph.dot"),
            ),
        ),
        ("core.parallel.speedup", speedup),
        ("core.parallel.efficiency", efficiency),
        ("core.parallel.cpu_over_wall", t.cpu_over_wall),
        ("core.parallel.check_cost_inflation", inflation),
        ("core.telemetry.overhead_share", ratio(t.traced_q1_s, t.untraced_q1_s) - 1.0),
    ]
}

/// Process CPU seconds so far (user + system, all threads), from
/// `/proc/self/stat`; 0 where that file does not exist. The tick is
/// taken to be the Linux default of 10 ms.
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, 12 and 13 after the name.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: u64 =
        after.split_whitespace().skip(11).take(2).filter_map(|f| f.parse::<u64>().ok()).sum();
    ticks as f64 / 100.0
}

/// Peak resident set of this process in MiB (`VmHWM`); 0 where
/// `/proc/self/status` does not exist.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mib() > 0.5, "VmHWM of a running test binary");
        let before = process_cpu_s();
        let t0 = Instant::now();
        let mut x = 0u64;
        while t0.elapsed().as_millis() < 60 {
            x = black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(process_cpu_s() - before >= 0.03, "60 ms of spinning is at least 3 ticks");
    }

    #[test]
    fn probes_cover_every_micro_timing_and_are_positive() {
        let env = Env::locate();
        let captured = Captured::capture(&env).expect("capture");
        assert_eq!(
            std::fs::read_dir(&captured.originals_dir).unwrap().count(),
            captured.sources.len()
        );
        let probes = probe(&captured);
        let names: Vec<&str> = probes.iter().map(|p| p.0).collect();
        for def in crate::metrics::PER_LAYER {
            let is_timing =
                ["ns", "ns/B", "us", "1/s"].contains(&def.unit) && !def.name.contains("mean_us");
            assert_eq!(names.contains(&def.name), is_timing, "{}", def.name);
        }
        assert!(probes.iter().all(|&(_, v)| v.is_finite() && v > 0.0), "{probes:?}");
    }
}
