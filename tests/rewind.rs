//! Rewinding against materializing, over the lock catalog.
//!
//! The search enters every admitted root — forward alternate, `⊥`-await
//! resolution, backward revisit (which cuts the chain back), each possibly
//! relabeled to its orbit representative — by rewinding the admitting
//! worker's one graph, checker and interpreter
//! (`crates/core/src/revisit.rs`). A debug build holds each such root to
//! the root the admitting chain would have built by copying
//! (`restrict` + `set_rf` [+ `permute_threads`]): the same graph (content
//! hash included), the statuses a fresh `reset` replay reports, and the
//! coherence floors of a freshly `reset` checker. The
//! 600-seed differentials (`tests/differential.rs`) drive that check over
//! random programs; this test drives it over every catalog lock at three
//! threads under SC, TSO and VMM, with symmetry on and off (one run where
//! the lock has no thread symmetry: both settings explore the same
//! graphs), and holds the verdicts to the catalog's.

use vsync::core::{explore, AmcConfig};
use vsync::locks::registry;
use vsync::model::ModelKind;

/// Every catalog lock at three threads under `model`, symmetry on and off.
fn catalog_at_three_threads(model: ModelKind) {
    for entry in registry::catalog() {
        let p = entry.client(3, 1);
        let symmetric = !p.symmetry_partition().is_trivial();
        for symmetry in [true, false] {
            if !symmetry && !symmetric {
                continue;
            }
            let cfg = AmcConfig::with_model(model).with_symmetry(symmetry);
            let r = explore(&p, &cfg);
            let tag = format!("{}-3t ({model}, symmetry={symmetry})", entry.name);
            assert!(r.is_verified(), "{tag}: {}", r.verdict);
            assert!(r.stats.constructed > 1, "{tag}: no root was admitted");
        }
    }
}

#[test]
fn rewound_roots_match_their_materializations_sc() {
    catalog_at_three_threads(ModelKind::Sc);
}

#[test]
fn rewound_roots_match_their_materializations_tso() {
    catalog_at_three_threads(ModelKind::Tso);
}

#[test]
fn rewound_roots_match_their_materializations_vmm() {
    catalog_at_three_threads(ModelKind::Vmm);
}
