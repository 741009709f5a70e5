//! `run`: one workload in this process (the form `BENCHMARK.json` names),
//! or every workload, each in a child process of its own.

use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

use vsync_core::{EnginePhase, ExploreStats, PhaseProfile};
use vsync_model::{checker_attribution, set_checker_attribution, CheckerKind};

use crate::calibrate::{Calibrator, MIN_QUIET_PASSES, QUIET_SLOWDOWN};
use crate::json::Json;
use crate::layers::{self, Captured, Parallel, Traced};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stamp::stamp;
use crate::stats::{quantile, sorted, summarize};
use crate::trace::Recorder;
use crate::workloads::{Env, LayerCounts, PassCfg, PassOutcome, Workload, NAMES};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Fewest timed passes, however long a pass takes.
const MIN_PASSES: usize = 3;
/// Fewest traced passes: two, so that exact counters can be compared.
const MIN_TRACED_PASSES: usize = 2;
/// Longest wait for a quiet machine before the probes.
const PROBE_PATIENCE: Duration = Duration::from_secs(3);
/// Failure lines kept in the detail record.
const MAX_FAILURE_LINES: usize = 20;

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub checker: CheckerKind,
    /// All-workloads mode: untraced runs per workload (seeds `seed..`).
    pub runs: usize,
    /// All-workloads mode: where the set file goes.
    pub out: Option<PathBuf>,
}

/// Failures seen so far, over every pass (warm-ups included).
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    lines: Vec<String>,
}

impl Tally {
    fn add(&mut self, pass: &PassOutcome) {
        self.attempted += pass.attempted;
        self.failed += pass.failures.len() as u64;
        let room = MAX_FAILURE_LINES.saturating_sub(self.lines.len());
        self.lines.extend(pass.failures.iter().take(room).cloned());
    }

    fn fail(&mut self, line: String) {
        self.failed += 1;
        if self.lines.len() < MAX_FAILURE_LINES {
            self.lines.push(line);
        }
    }
}

/// Run untraced passes until `budget_s` has gone by (a pass that would
/// end more than half a pass late is not started), at least `min`.
fn timed_passes(
    w: &Workload,
    checker: CheckerKind,
    budget_s: f64,
    min: usize,
    tally: &mut Tally,
) -> PassTimes {
    let cfg = PassCfg { checker, traced: false };
    let mut calibrator = Calibrator::new();
    let mut recorder = Recorder::new(false);
    let mut unused = LayerCounts::default();
    let started = Instant::now();
    let mut wall_s = Vec::new();
    loop {
        calibrator.wait_for_quiet(started + Duration::from_secs_f64(budget_s));
        let pass = w.pass(cfg, &mut calibrator, &mut recorder, &mut unused);
        tally.add(&pass);
        wall_s.push(pass.wall_s);
        if wall_s.len() >= min && budget_spent(&wall_s, started, budget_s) {
            return PassTimes::new(w, wall_s, &calibrator);
        }
    }
}

/// Would another pass end more than half a pass past the budget?
fn budget_spent(wall_s: &[f64], started: Instant, budget_s: f64) -> bool {
    let typical = quantile(&sorted(wall_s), 0.5);
    started.elapsed().as_secs_f64() + 0.5 * typical >= budget_s
}

/// The times of a series of passes: as the clock read them, and
/// calibrated (calibrate.rs). Gated metrics use the calibrated ones.
struct PassTimes {
    wall_s: Vec<f64>,
    calibrated_s: Vec<f64>,
    /// How much slower than nominal the calibration kernel ran around
    /// each pass.
    slowdown: Vec<f64>,
    /// Median time of the calibration kernel during the series.
    kernel_ns: f64,
    /// Are the gated times the calibrated ones? Not for passes that run
    /// worker threads: the kernel measures the one core it runs on, and a
    /// two-worker exploration waits on its other thread more than on that
    /// core (its wall time moves 10 % where the kernel moves 45 %), so
    /// scaling it would add error, not remove it. Such passes are still
    /// started only when the machine is quiet.
    scaled: bool,
}

impl PassTimes {
    fn new(w: &Workload, wall_s: Vec<f64>, calibrator: &Calibrator) -> PassTimes {
        PassTimes::of(w, wall_s, calibrator.calibrated(), calibrator.kernel_median_ns())
    }

    /// From `(calibrated seconds, slowdown)` pairs, one per pass.
    fn of(
        w: &Workload,
        wall_s: Vec<f64>,
        calibrated: Vec<(f64, f64)>,
        kernel_ns: f64,
    ) -> PassTimes {
        let (calibrated_s, slowdown) = calibrated.into_iter().unzip();
        PassTimes { wall_s, calibrated_s, slowdown, kernel_ns, scaled: w.workers == 1 }
    }

    /// The times the gated metric is taken from: calibrated times of the
    /// passes run while the machine was quiet, of all passes if too few
    /// were; wall times of all passes where scaling does not apply.
    fn steady_s(&self) -> Vec<f64> {
        if !self.scaled {
            return self.wall_s.clone();
        }
        let quiet: Vec<f64> = self
            .calibrated_s
            .iter()
            .zip(&self.slowdown)
            .filter(|(_, &s)| s <= QUIET_SLOWDOWN)
            .map(|(&c, _)| c)
            .collect();
        if quiet.len() >= MIN_QUIET_PASSES {
            quiet
        } else {
            self.calibrated_s.clone()
        }
    }

    fn q1(&self) -> f64 {
        summarize(&self.steady_s()).q1
    }

    fn json(&self) -> Json {
        Json::obj([
            ("steady", summary_json(&self.steady_s())),
            ("calibrated", summary_json(&self.calibrated_s)),
            ("wall", summary_json(&self.wall_s)),
            ("slowdown", Json::Arr(self.slowdown.iter().map(|&x| Json::Num(x)).collect())),
            ("kernel_median_ns", Json::Num(self.kernel_ns)),
            ("scaled", Json::Bool(self.scaled)),
        ])
    }
}

fn summary_json(samples: &[f64]) -> Json {
    let s = summarize(samples);
    Json::obj([
        ("n", Json::Int(s.n as u64)),
        ("min", Json::Num(s.min)),
        ("q1", Json::Num(s.q1)),
        ("median", Json::Num(s.median)),
        ("q3", Json::Num(s.q3)),
        ("tail_percentile", s.tail.map_or(Json::Null, |(p, _)| Json::Num(p))),
        ("tail", s.tail.map_or(Json::Null, |(_, v)| Json::Num(v))),
        // Every sample, in the order taken: a summary cannot show a burst.
        ("samples", Json::Arr(samples.iter().map(|&x| Json::Num(x)).collect())),
    ])
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// The two records of one workload run: the line the benchmark contract
/// asks for, and everything else worth keeping beside it.
pub struct Outcome {
    pub result: Json,
    pub detail: Json,
}

fn outcome(
    args: &RunArgs,
    w: &Workload,
    tally: Tally,
    metrics: Vec<(String, Json)>,
    mut detail: Vec<(String, Json)>,
) -> Outcome {
    let result = Json::obj([
        ("correct", Json::Bool(tally.failed == 0)),
        ("attempted", Json::Int(tally.attempted)),
        ("failed", Json::Int(tally.failed)),
        ("metrics", Json::Obj(metrics)),
    ]);
    let checker = match args.checker {
        CheckerKind::Fast => "fast",
        CheckerKind::Reference => "reference (selfcheck variant)",
    };
    let run = vec![
        ("workload".to_owned(), Json::str(w.name)),
        ("seed".to_owned(), Json::Int(args.seed)),
        ("seconds".to_owned(), Json::Num(args.seconds)),
        ("trace".to_owned(), Json::Int(args.trace.into())),
        ("workers".to_owned(), Json::Int(w.workers as u64)),
        ("items".to_owned(), Json::Int(w.items.len() as u64)),
        ("checker".to_owned(), Json::str(checker)),
    ];
    let mut members = vec![("stamp".to_owned(), stamp(run))];
    members.append(&mut detail);
    members.push((
        "failed_share".to_owned(),
        Json::Num(tally.failed as f64 / tally.attempted.max(1) as f64),
    ));
    members
        .push(("failures".to_owned(), Json::Arr(tally.lines.into_iter().map(Json::Str).collect())));
    Outcome { result, detail: Json::Obj(members) }
}

/// `--trace 0`: the end-to-end metrics.
fn untraced(env: &Env, args: &RunArgs, name: &str) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let mut workload = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let w = Workload::set_up(env, name, args.seed)?;
        let before_warm_up = t0.elapsed().as_secs_f64();
        // The warm-up pass belongs to set-up: it pays for whatever the
        // engine initialises on first use. The rest of set-up is
        // calibrated at the warm-up pass's rate.
        let warm_up = timed_passes(&w, args.checker, 0.0, 1, &mut tally);
        let warm_up_s = warm_up.steady_s()[0];
        setup_s.push(before_warm_up * warm_up_s / warm_up.wall_s[0] + warm_up_s);
        workload = Some(w);
    }
    let w = workload.expect("SETUP_REPS > 0");
    let pass_s = timed_passes(&w, args.checker, args.seconds, MIN_PASSES, &mut tally);
    let values = [pass_s.q1(), layers::peak_rss_mib(), summarize(&setup_s).median];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|((def, _), v)| (def.name.to_owned(), metric(v, def.unit)))
        .collect();
    let detail =
        vec![("pass_s".to_owned(), pass_s.json()), ("setup_s".to_owned(), summary_json(&setup_s))];
    Ok(outcome(args, &w, tally, metrics, detail))
}

/// Counters that must repeat exactly between two passes at one worker.
fn exact(stats: &ExploreStats) -> ExploreStats {
    ExploreStats { phases: Default::default(), ..*stats }
}

/// What the traced passes of a run recorded.
struct TracedPasses {
    times: PassTimes,
    /// The first pass's counters: exact at one worker, so one pass says
    /// it all (and a later pass that disagrees is a failure).
    first: LayerCounts,
    /// Engine phase times over all the passes.
    phases: PhaseProfile,
    explore_ns_on_bus: u64,
    checker_calls: (u64, u64),
    /// Process CPU time over wall time while the traced passes ran.
    cpu_over_wall: f64,
}

/// Pairs of passes, one untraced and one traced, until `budget_s` has
/// gone by, at least two pairs: taken in turns, the two kinds see the
/// same machine, so their difference is the tracing and not the minute.
fn paired_passes(
    w: &Workload,
    checker: CheckerKind,
    budget_s: f64,
    recorder: &mut Recorder,
    tally: &mut Tally,
) -> (PassTimes, TracedPasses) {
    set_checker_attribution(true);
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(budget_s);
    let mut calibrator = Calibrator::new();
    let (mut untraced_wall_s, mut traced_wall_s) = (Vec::new(), Vec::new());
    let mut first: Option<LayerCounts> = None;
    let mut phases = PhaseProfile::default();
    let mut explore_ns_on_bus = 0;
    let mut checker_calls = (0, 0);
    let (mut cpu_s, mut busy_s) = (0.0, 0.0);
    loop {
        calibrator.wait_for_quiet(deadline);
        let cfg = PassCfg { checker, traced: false };
        let pass =
            w.pass(cfg, &mut calibrator, &mut Recorder::new(false), &mut LayerCounts::default());
        tally.add(&pass);
        untraced_wall_s.push(pass.wall_s);

        calibrator.wait_for_quiet(deadline);
        let mut this = LayerCounts::default();
        let (calls_before, cpu_before, t0) =
            (checker_attribution(), layers::process_cpu_s(), Instant::now());
        let pass = w.pass(PassCfg { checker, traced: true }, &mut calibrator, recorder, &mut this);
        busy_s += t0.elapsed().as_secs_f64();
        cpu_s += layers::process_cpu_s() - cpu_before;
        let calls = checker_attribution();
        checker_calls.0 += calls.0 - calls_before.0;
        checker_calls.1 += calls.1 - calls_before.1;
        tally.add(&pass);
        traced_wall_s.push(pass.wall_s);
        phases.merge(&this.stats.phases);
        explore_ns_on_bus += this.optimize.explore_ns_on_bus;
        match &first {
            None => first = Some(this),
            Some(f) if w.workers == 1 && exact(&f.stats) != exact(&this.stats) => {
                tally.fail(format!(
                    "two passes at one worker counted differently: {:?} vs {:?}",
                    exact(&f.stats),
                    exact(&this.stats)
                ))
            }
            Some(_) => {}
        }
        let both: Vec<f64> =
            untraced_wall_s.iter().zip(&traced_wall_s).map(|(u, t)| u + t).collect();
        if both.len() >= MIN_TRACED_PASSES && budget_spent(&both, started, budget_s) {
            break;
        }
    }
    set_checker_attribution(false);
    // The calibrator saw the passes in turns: even ones untraced.
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for (i, pass) in calibrator.calibrated().into_iter().enumerate() {
        if i % 2 == 0 {
            untraced.push(pass)
        } else {
            traced.push(pass)
        }
    }
    let kernel_ns = calibrator.kernel_median_ns();
    (
        PassTimes::of(w, untraced_wall_s, untraced, kernel_ns),
        TracedPasses {
            times: PassTimes::of(w, traced_wall_s, traced, kernel_ns),
            first: first.expect("at least one pass ran"),
            phases,
            explore_ns_on_bus,
            checker_calls,
            cpu_over_wall: cpu_s / busy_s,
        },
    )
}

/// `--trace 1`: the per-layer metrics, a Chrome trace, and the overhead
/// of tracing against untraced passes of the same process.
fn traced(env: &Env, args: &RunArgs, name: &str) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let w = Workload::set_up(env, name, args.seed)?;
    timed_passes(&w, args.checker, 0.0, 1, &mut tally);
    let mut recorder = Recorder::new(true);
    let (untraced, mut t) =
        paired_passes(&w, args.checker, 0.8 * args.seconds, &mut recorder, &mut tally);

    let mut dsl_beside_ns = 0;
    if !w.generated().is_empty() {
        // `litmus-corpus`: `run_corpus` reports verdicts and phase times,
        // not exploration counters; take those from one session per file.
        t.first.stats = w.corpus_counters()?;
        dsl_beside_ns = layers::dsl_pass_ns(w.generated(), &mut recorder)?;
    }

    let parallel = if w.workers > 1 {
        let mut one = Workload::set_up(env, name, args.seed)?;
        one.workers = 1;
        let (one_untraced, one_traced) =
            paired_passes(&one, args.checker, 0.0, &mut Recorder::new(false), &mut tally);
        let check = one_traced.phases.get(EnginePhase::Consistency);
        Some(Parallel {
            workers: w.workers,
            // Wall time against wall time: the W-worker side is unscaled.
            one_worker_q1_s: summarize(&one_untraced.wall_s).q1,
            one_worker_check_mean_us: check.total_ns as f64 / 1e3 / check.count.max(1) as f64,
        })
    } else {
        None
    };

    if let Some(span) = recorder.overfull_span() {
        tally.fail(format!("span `{}` of {} is shorter than its children", span.name, span.item));
    }
    let captured = Captured::capture(env)?;
    // The probes are short; give the machine a moment to be quiet first.
    Calibrator::new().wait_for_quiet(Instant::now() + PROBE_PATIENCE);
    let probes = layers::probe(&captured);
    let values = layers::per_layer(
        &Traced {
            counts: &t.first.stats,
            optimize: &t.first.optimize,
            phases: &t.phases,
            explore_ns_on_bus: t.explore_ns_on_bus,
            recorder: &recorder,
            passes: t.times.wall_s.len() as u64,
            traced_wall_s: t.times.wall_s.iter().sum(),
            traced_q1_s: t.times.q1(),
            untraced_q1_s: untraced.q1(),
            checker_calls: t.checker_calls,
            cpu_over_wall: t.cpu_over_wall,
            dsl_beside_ns,
            parallel,
        },
        &probes,
    );
    assert!(
        values.iter().map(|v| v.0).eq(PER_LAYER.iter().map(|d| d.name)),
        "metric tables disagree"
    );
    let metrics = PER_LAYER
        .iter()
        .zip(&values)
        .map(|(def, &(_, v))| {
            let v = if def.unit == "count" { Json::Int(v.round() as u64) } else { Json::Num(v) };
            (def.name.to_owned(), Json::obj([("value", v), ("unit", Json::str(def.unit))]))
        })
        .collect();

    let trace_path = env.out_dir.join(format!("trace-{name}.json"));
    let detail = vec![
        ("untraced_pass_s".to_owned(), untraced.json()),
        ("traced_pass_s".to_owned(), t.times.json()),
        ("spans".to_owned(), Json::Int(recorder.spans().len() as u64)),
        ("trace_file".to_owned(), Json::str(trace_path.display().to_string())),
    ];
    let out = outcome(args, &w, tally, metrics, detail);
    recorder.write_chrome_trace(&trace_path, out.detail.get("stamp").unwrap_or(&Json::Null))?;
    Ok(out)
}

/// One workload, in this process.
pub fn run_workload(env: &Env, args: &RunArgs, name: &str) -> Result<Outcome, String> {
    if args.trace {
        traced(env, args, name)
    } else {
        untraced(env, args, name)
    }
}

/// Run `workload` in a child process and read its two records back.
pub fn run_child(args: &RunArgs, workload: &str, seed: u64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let checker = match args.checker {
        CheckerKind::Fast => "fast",
        CheckerKind::Reference => "reference",
    };
    let output = Command::new(exe)
        .args(["run", "--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .args(["--checker", checker])
        .output()
        .map_err(|e| format!("cannot start the {workload} run: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{workload} run failed ({}): {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let result = lines.next().ok_or("the run printed nothing")?;
    let detail = lines.next().ok_or("the run printed no detail record")?;
    Ok(Json::obj([
        ("workload", Json::str(workload)),
        ("seed", Json::Int(seed)),
        ("trace", Json::Int(trace.into())),
        ("result", Json::parse(result)?),
        ("detail", Json::parse(detail)?),
    ]))
}

/// Every workload: `args.runs` untraced runs and one traced run each, one
/// child process per run. Returns the set document.
pub fn run_all(args: &RunArgs) -> Result<Json, String> {
    let mut runs = Vec::new();
    for name in NAMES {
        for i in 0..args.runs as u64 {
            eprintln!("{name}: run {} of {} (seed {})", i + 1, args.runs, args.seed + i);
            runs.push(run_child(args, name, args.seed + i, false)?);
        }
        eprintln!("{name}: traced run");
        runs.push(run_child(args, name, args.seed, true)?);
    }
    let settings = vec![
        ("seed".to_owned(), Json::Int(args.seed)),
        ("seconds".to_owned(), Json::Num(args.seconds)),
        ("runs_per_workload".to_owned(), Json::Int(args.runs as u64)),
    ];
    Ok(Json::obj([("stamp", stamp(settings)), ("runs", Json::Arr(runs))]))
}

/// Write a set document, one run per line so that it diffs.
pub fn write_set(set: &Json, path: &std::path::Path) -> Result<(), String> {
    let mut text =
        format!("{{\"stamp\": {},\n \"runs\": [\n", set.get("stamp").unwrap_or(&Json::Null).emit());
    let runs = set.get("runs").map(Json::as_arr).unwrap_or_default();
    for (i, run) in runs.iter().enumerate() {
        text.push_str("  ");
        text.push_str(&run.emit());
        text.push_str(if i + 1 < runs.len() { ",\n" } else { "\n" });
    }
    text.push_str(" ]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}
