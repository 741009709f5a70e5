//! `validate_trace` — Chrome-trace schema validation.
//!
//! Checks a trace file emitted by the telemetry [`TraceWriter`] (the CLI's
//! `--trace` flag) with [`vsync_bench::validate_trace`]: the Chrome
//! trace-event schema Perfetto relies on, and properly nested `B`/`E`
//! pairs.
//!
//! ```sh
//! # validate an existing trace
//! cargo run -p vsync-bench --bin validate_trace -- out.trace.json
//! # no argument: self-generate one from a catalog lock and validate it
//! cargo run -p vsync-bench --bin validate_trace
//! ```
//!
//! Exits non-zero (panics) on any schema violation, so CI can gate on it.

use std::sync::Arc;

use vsync_core::{Session, TraceWriter};
use vsync_model::ModelKind;

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
    let (events, spans) = vsync_bench::validate_trace(&src);
    assert!(spans > 0, "trace must contain at least one phase span");
    println!("{label}: {events} event record(s), {spans} phase span(s) — schema ok");
}
