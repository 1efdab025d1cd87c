//! End-to-end smoke test: every registered experiment runs in quick mode
//! and produces non-empty tables. This is the same code path the
//! `run-experiments` binary uses, so the pipeline behind README.md's
//! § Experiments is fully covered by `cargo test`.

use od_experiments::{registry, ExperimentContext};

#[test]
fn every_experiment_runs_quick_and_produces_tables() {
    let ctx = ExperimentContext::quick();
    for experiment in registry() {
        let tables = (experiment.run)(&ctx);
        assert!(!tables.is_empty(), "{} returned no tables", experiment.id);
        for table in &tables {
            assert!(
                table.row_count() > 0,
                "{}: empty table '{}'",
                experiment.id,
                table.title()
            );
            // Render every format to catch panics in the writers.
            let _ = table.to_plain_text();
            let _ = table.to_csv();
            let _ = table.to_markdown();
        }
    }
}

#[test]
fn registry_ids_are_unique_and_findable() {
    let reg = registry();
    let mut ids: Vec<&str> = reg.iter().map(|e| e.id).collect();
    ids.sort_unstable();
    let before = ids.len();
    ids.dedup();
    assert_eq!(before, ids.len(), "duplicate experiment ids");
    for e in &reg {
        assert!(od_experiments::find(e.id).is_some());
        assert!(od_experiments::find(&e.id.to_lowercase()).is_some());
    }
    assert!(od_experiments::find("NO-SUCH-EXPERIMENT").is_none());
}
