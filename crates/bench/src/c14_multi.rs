//! C14 — multi-writer shard-owned ingest throughput.
//!
//! The multi-writer pipeline decomposes ingest into N writer lanes,
//! each owning a disjoint shard set end-to-end, synchronised only at
//! tick boundaries by a two-phase barrier. Its contract — proven in
//! `tests/scenario_determinism.rs`, `tests/query_consistency.rs` and
//! `tests/multi_writer.rs` — is that *everything observable is
//! writer-count invariant*; this experiment measures what the lanes
//! buy: ingest throughput at 1/2/4/8 writers over the same churn
//! workload the C12 event-engine experiment uses.
//!
//! On the 1-CPU bench container all lanes share one core, so the
//! interesting number is the per-writer overhead (barrier + routing
//! cost paid without parallel speedup); on real hardware lanes scale
//! with cores exactly like the detector shards they own.

use crate::c12_events::churn_fixes;
use crate::util::{f, table, timed};
use mda_core::{MultiWriterPipeline, PipelineConfig};
use mda_geo::BoundingBox;

/// Vessels in the standard multi-writer workload.
pub const FLEET: u32 = 2_000;
/// Scenario length, hours.
pub const HOURS: i64 = 4;

/// Drive a churn workload through a `writers`-lane pipeline in arrival
/// order (write-only: no reader handle, so snapshot publication is
/// elided). Returns
/// `(events, archived fixes, dropped late)`.
pub fn drive_multi(fixes: &[mda_geo::Fix], writers: usize) -> (u64, usize, u64) {
    let config = PipelineConfig::regional(BoundingBox::new(42.0, 3.0, 44.0, 6.0));
    let mut pipeline = MultiWriterPipeline::new(config, writers);
    let mut events = 0u64;
    for fix in fixes {
        events += pipeline.push_fix(*fix).len() as u64;
    }
    events += pipeline.finish().len() as u64;
    (events, pipeline.store().len(), pipeline.report().dropped_late)
}

/// Run the experiment and return the report text.
pub fn run() -> String {
    let fixes = churn_fixes(FLEET, HOURS, 14);

    // Correctness cross-check before timing: writer counts agree.
    let reference = drive_multi(&fixes, 1);
    assert_eq!(drive_multi(&fixes, 8), reference, "writer count changed observable output");

    let median = |mut runs: Vec<f64>| {
        runs.sort_by(f64::total_cmp);
        runs[runs.len() / 2]
    };
    let mut rows = Vec::new();
    for writers in [1usize, 2, 4, 8] {
        let runs: Vec<((u64, usize, u64), f64)> =
            (0..3).map(|_| timed(|| drive_multi(&fixes, writers))).collect();
        let secs = median(runs.iter().map(|(_, s)| *s).collect());
        let (events, archived, _) = runs[0].0;
        rows.push(vec![
            writers.to_string(),
            format!("{}/s", f(fixes.len() as f64 / secs, 0)),
            events.to_string(),
            archived.to_string(),
        ]);
    }
    let mut out = String::new();
    out.push_str(&table(
        &format!("C14 — multi-writer ingest, {FLEET}-vessel churn fleet, {HOURS} h"),
        &["writer lanes", "throughput", "events", "archived fixes"],
        &rows,
    ));
    out.push_str(
        "\n(N writer lanes each own a disjoint shard set end-to-end and meet\n\
         only at tick boundaries; events and archive are asserted writer-count\n\
         invariant before timing. Single-CPU container: lanes share one core,\n\
         so the deltas here are pure barrier/routing overhead — lane\n\
         throughput scales with cores, not on a 1-CPU container.)\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_counts_agree_on_churn() {
        let fixes = churn_fixes(120, 2, 5);
        let reference = drive_multi(&fixes, 1);
        assert!(reference.0 > 0, "churn must emit events");
        assert!(reference.1 > 0, "churn must archive fixes");
        assert_eq!(reference.2, 0, "in-order arrival drops nothing");
        for writers in [2usize, 4, 8] {
            assert_eq!(drive_multi(&fixes, writers), reference, "{writers} writers diverged");
        }
    }
}
