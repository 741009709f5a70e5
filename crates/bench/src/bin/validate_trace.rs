//! `validate_trace` — Chrome-trace schema validation.
//!
//! Parses a trace file emitted by the telemetry [`TraceWriter`] (the CLI's
//! `--trace` flag) with the in-repo JSON parser and asserts the Chrome
//! trace-event schema Perfetto relies on: a top-level array whose entries
//! all carry `name`/`ph`/`pid` (and `ts` for non-metadata records), with
//! `ph` drawn from the emitted alphabet (`M`, `B`, `E`, `X`, `C`, `i`),
//! `dur` on every complete (`X`) span, and properly nested `B`/`E` pairs:
//! every `E` closes the innermost open `B` of the same name on its own
//! `(pid, tid)` track, and no `B` is left open.
//!
//! ```sh
//! # validate an existing trace
//! cargo run -p vsync-bench --bin validate_trace -- out.trace.json
//! # no argument: self-generate one from a catalog lock and validate it
//! cargo run -p vsync-bench --bin validate_trace
//! ```
//!
//! Exits non-zero (panics) on any schema violation, so CI can gate on it.

use std::collections::HashMap;
use std::sync::Arc;

use vsync_bench::json::Value;
use vsync_core::{Session, TraceWriter};
use vsync_model::ModelKind;

fn validate(src: &str) -> (usize, usize) {
    let v = vsync_bench::json::parse(src).expect("trace parses as JSON");
    let Value::Arr(events) = &v else { panic!("trace top level must be an array") };
    assert!(!events.is_empty(), "trace must contain events");
    let mut spans = 0usize;
    // Open `B` names per `(pid, tid)` track, innermost last.
    let mut open: HashMap<(u64, u64), Vec<&str>> = HashMap::new();
    for (i, ev) in events.iter().enumerate() {
        let name = ev.get("name").and_then(Value::as_str);
        assert!(name.is_some_and(|n| !n.is_empty()), "event {i} has no name");
        let ph = ev.get("ph").and_then(Value::as_str).unwrap_or_else(|| panic!("event {i} has no ph"));
        let num = |key| {
            ev.get(key).and_then(Value::as_num).unwrap_or_else(|| panic!("event {i} has no {key}"))
        };
        let (pid, tid) = (num("pid"), num("tid"));
        let track = (pid as u64, tid as u64);
        if ph != "M" {
            num("ts"); // metadata alone carries no timestamp
        }
        match ph {
            "M" | "C" | "i" => {}
            "B" => open.entry(track).or_default().push(name.unwrap()),
            "E" => {
                let innermost = open.get_mut(&track).and_then(Vec::pop);
                assert_eq!(
                    innermost, name,
                    "event {i}: E record does not close the innermost B on pid {pid}, tid {tid}"
                );
            }
            "X" => {
                assert!(num("dur") >= 0.0, "event {i}: X span with a negative duration");
                spans += 1;
            }
            other => panic!("event {i}: unexpected ph {other:?}"),
        }
    }
    for ((pid, tid), names) in &open {
        assert!(names.is_empty(), "pid {pid}, tid {tid}: B records never closed: {names:?}");
    }
    (events.len(), spans)
}

fn main() {
    let arg = std::env::args().nth(1);
    let (label, src) = match arg {
        Some(path) => {
            let src = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
            (path, src)
        }
        None => {
            // Self-generate: explore a catalog lock with profiling on and
            // the trace writer subscribed, exactly as the CLI's `--trace`
            // does.
            let path = std::env::temp_dir().join("vsync_validate_trace.json");
            let entry =
                vsync_locks::registry::entry("ticketlock").expect("ticketlock is in the catalog");
            let writer =
                Arc::new(TraceWriter::create(&path).expect("create temp trace file"));
            let sink = writer.sink();
            let r = Session::new(entry.client(2, 1))
                .models(ModelKind::all())
                .profile(true)
                .on_event(move |ev| sink(ev))
                .run();
            assert!(r.is_verified(), "ticketlock must verify");
            writer.finish().expect("finish trace file");
            let src = std::fs::read_to_string(&path).expect("read generated trace");
            (path.display().to_string(), src)
        }
    };
    let (events, spans) = validate(&src);
    assert!(spans > 0, "trace must contain at least one phase span");
    println!("{label}: {events} event record(s), {spans} phase span(s) — schema ok");
}
