//! Graphviz rendering of execution graphs.
//!
//! Counterexamples found by AMC (paper Figs. 14–19) are much easier to read
//! as a drawing: one column per thread in program order, with `rf` and `mo`
//! edges across columns.

use std::fmt::Write as _;

use crate::event::{EventId, RfSource};
use crate::graph::ExecutionGraph;

fn node_name(id: EventId) -> String {
    match id {
        EventId::Init(loc) => format!("init_{loc:x}"),
        EventId::Event { thread, index } => format!("t{thread}_{index}"),
    }
}

/// Render a graph in Graphviz `dot` format.
///
/// ```
/// # use vsync_graph::{ExecutionGraph, EventKind, Mode};
/// # use std::collections::BTreeMap;
/// let mut g = ExecutionGraph::new(1, BTreeMap::new());
/// g.push_event(0, EventKind::Write { loc: 0x10, val: 1, mode: Mode::Rel, rmw: false });
/// let dot = vsync_graph::to_dot(&g);
/// assert!(dot.starts_with("digraph execution"));
/// ```
pub fn to_dot(g: &ExecutionGraph) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph execution {{");
    let _ = writeln!(out, "  rankdir=TB; node [shape=box, fontname=\"monospace\"];");
    for (&loc, &val) in g.init_table() {
        let _ = writeln!(out, "  init_{loc:x} [label=\"Winit({loc:#x},{val})\", style=dotted];");
    }
    // Also render inits of locations that are written but not in the table.
    for loc in g.written_locs() {
        if !g.init_table().contains_key(&loc) {
            let _ = writeln!(out, "  init_{loc:x} [label=\"Winit({loc:#x},0)\", style=dotted];");
        }
    }
    for t in 0..g.num_threads() {
        let _ = writeln!(out, "  subgraph cluster_t{t} {{ label=\"T{t}\";");
        let mut prev: Option<EventId> = None;
        for (i, ev) in g.thread_events(t as u32).iter().enumerate() {
            let id = EventId::new(t as u32, i as u32);
            let label = ev.kind.to_string().replace('"', "'");
            let _ = writeln!(out, "    {} [label=\"{}\"];", node_name(id), label);
            if let Some(p) = prev {
                let _ = writeln!(out, "    {} -> {} [label=\"po\", color=gray];", node_name(p), node_name(id));
            }
            prev = Some(id);
        }
        let _ = writeln!(out, "  }}");
    }
    for (r, _, rf) in g.reads() {
        if let RfSource::Write(w) = rf {
            let _ = writeln!(
                out,
                "  {} -> {} [label=\"rf\", color=forestgreen, constraint=false];",
                node_name(w),
                node_name(r)
            );
        }
    }
    for loc in g.written_locs().collect::<Vec<_>>() {
        let mut prev = EventId::Init(loc);
        for &w in g.mo(loc) {
            let _ = writeln!(
                out,
                "  {} -> {} [label=\"mo\", color=crimson, style=dashed, constraint=false];",
                node_name(prev),
                node_name(w)
            );
            prev = w;
        }
    }
    // Mark pending (⊥) reads.
    for (r, _) in g.pending_reads() {
        let _ = writeln!(out, "  {} [color=red, penwidth=2];", node_name(r));
    }
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, Mode};
    use std::collections::BTreeMap;

    fn sample() -> ExecutionGraph {
        let mut g = ExecutionGraph::new(2, BTreeMap::new());
        let w = g.push_event(0, EventKind::Write { loc: 0x10, val: 1, mode: Mode::Rel, rmw: false });
        g.insert_mo(0x10, w, 0);
        g.push_event(
            1,
            EventKind::Read { loc: 0x10, mode: Mode::Acq, rf: RfSource::Write(w), rmw: false, awaiting: false },
        );
        g.push_event(1, EventKind::Read { loc: 0x10, mode: Mode::Acq, rf: RfSource::Bottom, rmw: false, awaiting: true });
        g
    }

    #[test]
    fn dot_contains_edges() {
        let dot = to_dot(&sample());
        assert!(dot.contains("digraph"));
        assert!(dot.contains("rf"));
        assert!(dot.contains("mo"));
        assert!(dot.contains("cluster_t0"));
        // Pending read highlighted.
        assert!(dot.contains("color=red"));
    }
}
