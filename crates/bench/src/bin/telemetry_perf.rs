//! `telemetry_perf` — the telemetry overhead gate.
//!
//! Times the qspinlock-3t exploration (the repo's standing perf row)
//! twice through the [`Session`] front door: once with telemetry fully
//! disabled (the default) and once with profiling *and* an event
//! subscriber enabled — the most expensive supported configuration.
//! Asserts both runs produce identical verdicts and execution counts and
//! prints the two best times and the relative overhead.
//!
//! The gate is on what telemetry controls: the cost it adds **per phase
//! transition**, `(enabled − disabled) / transitions`, in units of one
//! `Instant::now()` as timed in this process
//! ([`vsync_core::clock_read_ns`]). A profiled transition reads the clock
//! once and does a little bookkeeping, so the ratio is a property of the
//! telemetry code; the *relative* overhead is not — it is that cost divided
//! by how long the engine spends between transitions, and rises every time
//! the engine gets faster. Fails above the gate (default 3 clock reads per
//! transition, `VSYNC_TELEMETRY_MAX_CLOCK_READS` to override for noisy
//! machines). Writes `BENCH_telemetry.json` (validated by the in-repo JSON
//! parser) so the trajectory is tracked across PRs.
//!
//! ```sh
//! cargo run --release -p vsync-bench --bin telemetry_perf
//! ```
//!
//! Knobs: `VSYNC_BENCH_SAMPLES` (default 5, clamped to 1..=5),
//! `VSYNC_WORKERS` (default 1 — single-worker keeps the comparison
//! scheduling-deterministic).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use vsync_core::json::Json;
use vsync_core::{Report, Session};
use vsync_model::ModelKind;

fn timed(mut f: impl FnMut() -> Report) -> (Duration, Report) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed(), r)
}

fn main() {
    let samples = vsync_bench::timing::env_samples().clamp(1, 5);
    let workers: usize =
        std::env::var("VSYNC_WORKERS").ok().and_then(|v| v.parse().ok()).unwrap_or(1).max(1);
    let max_clock_reads: f64 = std::env::var("VSYNC_TELEMETRY_MAX_CLOCK_READS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3.0);

    let entry = vsync_locks::registry::entry("qspinlock").expect("qspinlock is in the catalog");
    let program = entry.client(3, 1);
    let session = || Session::new(program.clone()).model(ModelKind::Vmm).workers(workers);

    eprintln!(
        "telemetry_perf: qspinlock-3t x 2 configs x {samples} samples \
         ({workers} worker(s), gate {max_clock_reads} clock reads per phase transition)"
    );

    // The enabled run subscribes a minimal sink (an event counter): the
    // gate measures the instrumentation and bus cost, not a particular
    // exporter's I/O.
    let events = Arc::new(AtomicU64::new(0));
    let run_off = || session().run();
    let run_on = || {
        let n = Arc::clone(&events);
        session()
            .profile(true)
            .on_event(move |_| {
                n.fetch_add(1, Ordering::Relaxed);
            })
            .run()
    };

    // One discarded warmup per configuration, then *interleaved*
    // disabled/enabled sample pairs with min-of-N per configuration:
    // interleaving means slow machine drift hits both configs equally,
    // and the min filters one-sided load spikes (noise only ever adds
    // time), so the comparison measures instrumentation cost rather
    // than whichever block happened to share the machine with a spike.
    let _ = std::hint::black_box(run_off());
    let _ = std::hint::black_box(run_on());
    let (mut disabled, mut r_off) = timed(run_off);
    let (mut enabled, mut r_on) = timed(run_on);
    for _ in 1..samples {
        let (t_off, report_off) = timed(run_off);
        let (t_on, report_on) = timed(run_on);
        if t_off < disabled {
            (disabled, r_off) = (t_off, report_off);
        }
        if t_on < enabled {
            (enabled, r_on) = (t_on, report_on);
        }
    }

    assert!(r_off.is_verified() && r_on.is_verified(), "qspinlock-3t must verify");
    let (s_off, s_on) = (&r_off.models[0].stats, &r_on.models[0].stats);
    assert_eq!(
        s_off.complete_executions, s_on.complete_executions,
        "telemetry must not change the exploration"
    );
    assert_eq!(s_off.constructed, s_on.constructed, "telemetry must not change the exploration");
    assert!(!s_on.phases.is_empty(), "the enabled run must attribute phase time");
    let event_count = events.load(Ordering::Relaxed);
    assert!(event_count > 0, "the enabled run must emit events");

    let overhead_pct =
        (enabled.as_secs_f64() / disabled.as_secs_f64().max(1e-9) - 1.0) * 100.0;
    let transitions = s_on.phases.transitions();
    let added_ns = (enabled.as_secs_f64() - disabled.as_secs_f64()) * 1e9;
    let per_transition_ns = added_ns / transitions as f64;
    let clock_read_ns = vsync_core::clock_read_ns();
    let clock_reads = per_transition_ns / clock_read_ns;
    println!(
        "{:<10} {:>12} {:>12} {:>10}",
        "config", "best_ms", "events", "overhead"
    );
    println!("{:<10} {:>12.3} {:>12} {:>10}", "disabled", disabled.as_secs_f64() * 1e3, "-", "-");
    println!(
        "{:<10} {:>12.3} {:>12} {:>9.2}%",
        "enabled",
        enabled.as_secs_f64() * 1e3,
        event_count,
        overhead_pct
    );
    println!(
        "{transitions} phase transitions: {per_transition_ns:.1} ns each = {clock_reads:.2} x \
         Instant::now() ({clock_read_ns:.1} ns here)"
    );

    let mut json = String::new();
    Json::new(&mut json).obj(|j| {
        j.key("bench").str("telemetry_perf");
        j.key("samples").uint(samples as u64).key("workers").uint(workers as u64);
        j.key("row").str("qspinlock-3t");
        j.key("disabled_ms").ms(disabled).key("enabled_ms").ms(enabled);
        j.key("events").uint(event_count).key("overhead_pct").fixed3(overhead_pct);
        j.key("transitions").uint(transitions).key("per_transition_ns").fixed3(per_transition_ns);
        j.key("clock_read_ns").fixed3(clock_read_ns);
        j.key("clock_reads_per_transition").fixed3(clock_reads);
        j.key("gate_clock_reads").fixed3(max_clock_reads);
    });
    json.push('\n');
    let parsed = vsync_bench::json::parse(&json).expect("BENCH_telemetry.json is valid JSON");
    assert!(parsed.get("overhead_pct").is_some());
    std::fs::write("BENCH_telemetry.json", json).expect("write BENCH_telemetry.json");
    eprintln!("wrote BENCH_telemetry.json");

    assert!(
        clock_reads <= max_clock_reads,
        "telemetry adds {per_transition_ns:.1} ns per phase transition, {clock_reads:.2} x \
         Instant::now() — over the gate of {max_clock_reads} (disabled {disabled:.2?}, enabled \
         {enabled:.2?}, {transitions} transitions)"
    );
}
