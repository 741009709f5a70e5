//! The metric tables: what `BENCHMARK.json` declares and what a run
//! prints, kept equal by a test.

/// A metric's declaration. End-to-end metrics carry the share of the
/// parent's median by which they may worsen; per-layer metrics have none.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

/// The gated metrics, with their regression bounds. Failures are gated
/// too, but through `failed`/`attempted` of the result line: a share that
/// must stay 0 cannot be compared by ratio.
///
/// `pass_s_q1` carries the widest bound the benchmark contract allows:
/// on the machine this was written on, ten runs of one workload spread
/// by up to 10 % (11 % on `verify-parallel`) while a neighbour slows the
/// machine, and a bound must be wider than the spread to mean anything
/// (README.md, "Noise policy"). A claim of a gain is held to the
/// stricter pairing rule of choosing-metrics, not to this bound.
pub const END_TO_END: [(MetricDef, f64); 3] = [
    (MetricDef { name: "pass_s_q1", unit: "s", better: "lower" }, 0.25),
    (MetricDef { name: "peak_rss_mb", unit: "MiB", better: "lower" }, 0.10),
    (MetricDef { name: "setup_s", unit: "s", better: "lower" }, 0.25),
];

/// The bound on an end-to-end metric.
pub fn bound(metric: &str) -> f64 {
    END_TO_END.iter().find(|(d, _)| d.name == metric).map_or(0.0, |&(_, b)| b)
}

/// Per-layer metrics, `<module>.<what>`. `count`s repeat exactly at one
/// worker; `ratio`s named `*.share` are shares of the traced passes' wall
/// time; `ns`/`us`/`1/s` values (except the two `mean_us`) are probe
/// timings on fixed inputs.
pub const PER_LAYER: [MetricDef; 51] = [
    MetricDef { name: "dsl.parse.ns_per_byte", unit: "ns/B", better: "lower" },
    MetricDef { name: "dsl.lower.us_per_file", unit: "us", better: "lower" },
    MetricDef { name: "dsl.format.us_per_file", unit: "us", better: "lower" },
    MetricDef { name: "dsl.share", unit: "ratio", better: "lower" },
    MetricDef { name: "locks.client_build.us", unit: "us", better: "lower" },
    MetricDef { name: "locks.client_build.share", unit: "ratio", better: "lower" },
    MetricDef { name: "lang.replay.ns_per_event", unit: "ns", better: "lower" },
    MetricDef { name: "lang.replay.count", unit: "count", better: "lower" },
    MetricDef { name: "lang.replay.share", unit: "ratio", better: "lower" },
    MetricDef { name: "graph.canonical_hash.ns_per_event", unit: "ns", better: "lower" },
    MetricDef { name: "graph.clone_push.ns", unit: "ns", better: "lower" },
    MetricDef { name: "graph.dot.us", unit: "us", better: "lower" },
    MetricDef { name: "graph.probe.count", unit: "count", better: "lower" },
    MetricDef { name: "graph.probe.share", unit: "ratio", better: "lower" },
    MetricDef { name: "model.fast.ns_per_check.sc", unit: "ns", better: "lower" },
    MetricDef { name: "model.fast.ns_per_check.tso", unit: "ns", better: "lower" },
    MetricDef { name: "model.fast.ns_per_check.vmm", unit: "ns", better: "lower" },
    MetricDef { name: "model.reference.ns_per_check", unit: "ns", better: "lower" },
    MetricDef { name: "model.consistency.count", unit: "count", better: "lower" },
    MetricDef { name: "model.consistency.mean_us", unit: "us", better: "lower" },
    MetricDef { name: "model.consistency.share", unit: "ratio", better: "lower" },
    MetricDef { name: "model.fast_path_share", unit: "ratio", better: "higher" },
    MetricDef { name: "model.inconsistent_ratio", unit: "ratio", better: "lower" },
    MetricDef { name: "core.revisit.popped", unit: "count", better: "lower" },
    MetricDef { name: "core.revisit.constructed", unit: "count", better: "lower" },
    MetricDef { name: "core.revisit.duplicates", unit: "count", better: "lower" },
    MetricDef { name: "core.revisit.revisits", unit: "count", better: "lower" },
    MetricDef { name: "core.revisit.useful_ratio", unit: "ratio", better: "higher" },
    MetricDef { name: "core.revisit.extend.share", unit: "ratio", better: "lower" },
    MetricDef { name: "core.revisit.revisit.share", unit: "ratio", better: "lower" },
    MetricDef { name: "core.revisit.driver.share", unit: "ratio", better: "lower" },
    MetricDef { name: "core.stagnancy.count", unit: "count", better: "lower" },
    MetricDef { name: "core.stagnancy.mean_us", unit: "us", better: "lower" },
    MetricDef { name: "core.stagnancy.share", unit: "ratio", better: "lower" },
    MetricDef { name: "core.optimize.verifications", unit: "count", better: "lower" },
    MetricDef { name: "core.optimize.explorations", unit: "count", better: "lower" },
    MetricDef { name: "core.optimize.graphs", unit: "count", better: "lower" },
    MetricDef { name: "core.optimize.cache_hits", unit: "count", better: "higher" },
    MetricDef { name: "core.optimize.witness_hit_ratio", unit: "ratio", better: "higher" },
    MetricDef { name: "core.optimize.explore_share", unit: "ratio", better: "higher" },
    MetricDef { name: "core.session.fixed_us", unit: "us", better: "lower" },
    MetricDef { name: "core.session.share", unit: "ratio", better: "higher" },
    MetricDef { name: "core.corpus.files_per_s", unit: "1/s", better: "higher" },
    MetricDef { name: "core.report.render_us", unit: "us", better: "lower" },
    MetricDef { name: "core.report.to_json_us", unit: "us", better: "lower" },
    MetricDef { name: "core.report.share", unit: "ratio", better: "lower" },
    MetricDef { name: "core.parallel.speedup", unit: "ratio", better: "higher" },
    MetricDef { name: "core.parallel.efficiency", unit: "ratio", better: "higher" },
    MetricDef { name: "core.parallel.cpu_over_wall", unit: "ratio", better: "higher" },
    MetricDef { name: "core.parallel.check_cost_inflation", unit: "ratio", better: "lower" },
    MetricDef { name: "core.telemetry.overhead_share", unit: "ratio", better: "lower" },
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::NAMES;

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn field<'a>(m: &'a Json, key: &str) -> &'a str {
        m.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("{key} missing in {m:?}"))
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics_and_workloads() {
        let doc = manifest();
        let declared: Vec<&str> =
            doc.get("workloads").unwrap().as_arr().iter().map(|w| field(w, "name")).collect();
        assert_eq!(declared, NAMES);

        let e2e = doc.get("end_to_end").unwrap().as_arr();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (m, (def, bound)) in e2e.iter().zip(END_TO_END) {
            assert_eq!(
                (field(m, "name"), field(m, "unit"), field(m, "better")),
                (def.name, def.unit, def.better)
            );
            assert_eq!(m.get("bound").and_then(Json::as_f64), Some(bound));
        }
        let layers = doc.get("per_layer").unwrap().as_arr();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (m, def) in layers.iter().zip(PER_LAYER) {
            assert_eq!(
                (field(m, "name"), field(m, "unit"), field(m, "better")),
                (def.name, def.unit, def.better)
            );
            assert!(m.get("bound").is_none(), "per-layer metrics have no bound");
        }
    }

    #[test]
    fn names_and_units_fit_the_benchmark_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().map(|(d, _)| d).chain(&PER_LAYER) {
            assert!(ok_name(def.name), "{}", def.name);
            assert!(ok_unit(def.unit), "{}: {}", def.name, def.unit);
            assert!(["lower", "higher"].contains(&def.better));
            assert!(seen.insert(def.name), "{} declared twice", def.name);
        }
        assert!(NAMES.iter().all(|n| ok_name(n) && seen.insert(n)));
        assert!(END_TO_END.iter().all(|&(_, b)| b > 0.0 && b <= 0.25));
        assert_eq!(bound("peak_rss_mb"), 0.10);
        assert_eq!(bound("no-such-metric"), 0.0);
    }
}
