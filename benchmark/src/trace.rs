//! The benchmark's own span recorder: a span around each item and around
//! each call into a layer, kept in memory and written as a Chrome-trace
//! array when the run ends (choosing-metrics §4). Spans come from the
//! benchmark's side of the public API only; nothing in the engine is
//! instrumented by it.

use std::path::Path;
use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The item the span belongs to (spans of one item share it).
    pub item: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Extra data shown in the trace viewer (the engine's phase profile
    /// on `core.session.run` spans).
    pub args: Vec<(String, Json)>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Recorder::begin`]; pass it back to
/// [`Recorder::end`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// Records nested spans on one thread. Disabled (the untraced passes), a
/// `begin`/`end` pair is two branches and no clock read.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    item: String,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            item: String::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open the root span of an item; spans begun until its `end` carry
    /// the item's name.
    pub fn begin_item(&mut self, item: &str) -> SpanId {
        if self.enabled {
            self.item = item.to_owned();
        }
        self.begin("item")
    }

    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            item: self.item.clone(),
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
            args: Vec::new(),
        });
        self.open.push(self.spans.len() - 1);
        SpanId(Some(self.spans.len() - 1))
    }

    pub fn end(&mut self, id: SpanId) {
        let Some(i) = id.0 else { return };
        let now = self.now_ns();
        self.spans[i].end_ns = now;
        // Spans nest: closing one closes anything left open inside it.
        while let Some(top) = self.open.pop() {
            if top == i {
                break;
            }
            self.spans[top].end_ns = now;
        }
    }

    /// `f` under a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Add a child span of `parent` that ends where `parent` ends and
    /// lasted `dur_ns` — for a stage the engine times itself and that is
    /// known to run last (the optimizer inside `Session::run`).
    pub fn add_tail_child(&mut self, parent: SpanId, name: &'static str, dur_ns: u64) {
        let Some(p) = parent.0 else { return };
        let end_ns = self.spans[p].end_ns;
        let start_ns = end_ns.saturating_sub(dur_ns).max(self.spans[p].start_ns);
        let item = self.spans[p].item.clone();
        self.spans.push(Span { name, item, parent: Some(p), start_ns, end_ns, args: Vec::new() });
    }

    pub fn set_args(&mut self, id: SpanId, args: Vec<(String, Json)>) {
        if let Some(i) = id.0 {
            self.spans[i].args = args;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total nanoseconds and number of the spans called `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, n), s| (ns + s.dur_ns(), n + 1))
    }

    /// The first span whose direct children cover more time than the
    /// span itself — which would mean the recorder double-counts.
    pub fn overfull_span(&self) -> Option<&Span> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        self.spans.iter().zip(&child_ns).find(|(s, &c)| c > s.dur_ns()).map(|(s, _)| s)
    }

    /// The spans as a Chrome-trace JSON array (`chrome://tracing`,
    /// Perfetto): complete (`X`) events, microsecond timestamps, one per
    /// line.
    pub fn chrome_trace(&self, stamp: &Json) -> String {
        let mut out = String::from("[\n");
        let meta = Json::obj([
            ("name", Json::str("benchmark")),
            ("ph", Json::str("M")),
            ("pid", Json::Int(1)),
            ("tid", Json::Int(1)),
            ("args", stamp.clone()),
        ]);
        out.push_str(&meta.emit());
        for (i, s) in self.spans.iter().enumerate() {
            let mut args = vec![
                ("span".to_owned(), Json::Int(i as u64)),
                ("parent".to_owned(), s.parent.map_or(Json::Null, |p| Json::Int(p as u64))),
                ("item".to_owned(), Json::str(s.item.as_str())),
            ];
            args.extend(s.args.iter().cloned());
            let ev = Json::obj([
                ("name", Json::str(s.name)),
                ("cat", Json::str(s.name.split('.').next().unwrap_or(""))),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num(s.dur_ns() as f64 / 1e3)),
                ("pid", Json::Int(1)),
                ("tid", Json::Int(1)),
                ("args", Json::Obj(args)),
            ]);
            out.push_str(",\n");
            out.push_str(&ev.emit());
        }
        out.push_str("\n]\n");
        out
    }

    pub fn write_chrome_trace(&self, path: &Path, stamp: &Json) -> Result<(), String> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        std::fs::write(path, self.chrome_trace(stamp))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_children_fit_inside_their_parent() {
        let mut r = Recorder::new(true);
        let item = r.begin_item("mcs-3t");
        let build = r.begin("locks.client_build");
        r.end(build);
        let run = r.begin("core.session.run");
        std::thread::sleep(std::time::Duration::from_millis(2));
        r.end(run);
        r.add_tail_child(run, "core.optimize", 500_000);
        r.end(item);
        let spans = r.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(spans[3].end_ns, spans[2].end_ns);
        assert_eq!(spans[3].dur_ns(), 500_000);
        assert!(spans.iter().all(|s| s.item == "mcs-3t"));
        assert!(r.overfull_span().is_none());
        assert_eq!(r.total("core.session.run").1, 1);
        assert!(r.total("core.session.run").0 >= 2_000_000);
    }

    #[test]
    fn a_tail_child_never_outgrows_its_parent() {
        let mut r = Recorder::new(true);
        let run = r.begin("core.session.run");
        r.end(run);
        r.add_tail_child(run, "core.optimize", u64::MAX);
        assert!(r.overfull_span().is_none());
    }

    #[test]
    fn closing_a_span_closes_what_was_left_open_inside_it() {
        let mut r = Recorder::new(true);
        let outer = r.begin_item("x");
        let _leaked = r.begin("dsl.parse");
        r.end(outer);
        assert_eq!(r.spans()[1].end_ns, r.spans()[0].end_ns);
        let next = r.begin_item("y");
        assert_eq!(r.spans()[next.0.unwrap()].parent, None);
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        let id = r.begin_item("x");
        r.set_args(id, vec![("k".into(), Json::Int(1))]);
        r.add_tail_child(id, "core.optimize", 5);
        r.end(id);
        assert!(r.spans().is_empty());
    }

    #[test]
    fn the_chrome_trace_is_a_json_array_of_complete_events() {
        let mut r = Recorder::new(true);
        let item = r.begin_item("it\"em");
        let c = r.begin("dsl.parse");
        r.end(c);
        r.set_args(item, vec![("phases".into(), Json::obj([("replay_ms", Json::Num(0.5))]))]);
        r.end(item);
        let doc = Json::parse(&r.chrome_trace(&Json::obj([("seed", Json::Int(7))]))).unwrap();
        let events = doc.as_arr();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].get("ph").and_then(Json::as_str), Some("M"));
        assert_eq!(events[2].get("name").and_then(Json::as_str), Some("dsl.parse"));
        assert_eq!(events[2].get("cat").and_then(Json::as_str), Some("dsl"));
        assert_eq!(
            events[2].get("args").and_then(|a| a.get("parent")).and_then(Json::as_u64),
            Some(0)
        );
        assert!(events[1].get("args").and_then(|a| a.get("phases")).is_some());
        assert!(
            events[1].get("dur").and_then(Json::as_f64).unwrap()
                >= events[2].get("dur").and_then(Json::as_f64).unwrap()
        );
    }
}
