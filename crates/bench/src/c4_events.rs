//! C4 — real-time event recognition throughput (§3.1, ref 35).
//!
//! The event engine must keep up with "voluminous data streams of
//! moving entities in large geographic areas". Throughput is measured
//! as fixes/second through the full detector stack, as a function of
//! fleet size.

use crate::util::{f, table, timed};
use mda_events::engine::{EngineConfig, EventEngine};
use mda_events::zone::NamedZone;
use mda_geo::Fix;
use mda_sim::scenario::{Scenario, ScenarioConfig};
use mda_stream::watermark::TickSchedule;

/// Event-time-ordered AIS fixes for a given fleet size.
pub fn ordered_fixes(n_vessels: usize, hours: i64) -> Vec<Fix> {
    let sim =
        Scenario::generate(ScenarioConfig::regional(61, n_vessels, hours * mda_geo::time::HOUR));
    let mut fixes = sim.ais_fixes();
    fixes.sort_by_key(|f| f.t);
    fixes
}

/// Engine with the standard zone set installed.
pub fn engine() -> EventEngine {
    let world = mda_sim::world::World::gulf_of_lion();
    let zones = world
        .zones
        .iter()
        .map(|z| NamedZone {
            name: z.name.clone(),
            area: z.area.clone(),
            protected: z.kind == mda_sim::world::ZoneKind::ProtectedArea,
        })
        .collect();
    EventEngine::new(EngineConfig { zones, ..Default::default() })
}

/// Feed all fixes through an engine, batched per minute of event time
/// with an aligned tick after each minute (the pairwise detectors and
/// the dark-vessel check run on ticks, placed by the pipeline's
/// [`TickSchedule`] discipline: each boundary's tick fires after
/// exactly the fixes it covers); returns events emitted.
pub fn drive(fixes: &[Fix]) -> u64 {
    let mut e = engine();
    let mut events = 0u64;
    let mut ticks = TickSchedule::new(mda_geo::time::MINUTE);
    let mut batch: Vec<Fix> = Vec::new();
    for fix in fixes {
        while let Some(boundary) = ticks.before_observation(fix.t) {
            events += e.observe_batch(&std::mem::take(&mut batch)).len() as u64;
            events += e.tick(boundary).len() as u64;
        }
        batch.push(*fix);
    }
    events += e.observe_batch(&batch).len() as u64;
    if let Some(last) = fixes.last() {
        events += e.tick(last.t).len() as u64;
    }
    events
}

/// Run the experiment and return the report text.
pub fn run() -> String {
    let mut rows = Vec::new();
    for n in [25usize, 50, 100, 200] {
        let fixes = ordered_fixes(n, 3);
        let (events, secs) = timed(|| drive(&fixes));
        rows.push(vec![
            n.to_string(),
            fixes.len().to_string(),
            events.to_string(),
            format!("{}/s", f(fixes.len() as f64 / secs, 0)),
            format!("{} µs", f(secs * 1e6 / fixes.len() as f64, 2)),
        ]);
    }
    let mut out = String::new();
    out.push_str(&table(
        "C4 — event-recognition throughput vs fleet size",
        &["vessels", "fixes", "events", "throughput", "latency/fix"],
        &rows,
    ));
    out.push_str(
        "\n(full detector stack: gaps, veracity, zones, loitering, rendezvous,\n\
         collision screening; per-fix latency should stay in the microsecond\n\
         range and grow sublinearly with fleet size thanks to the cell index)\n",
    );
    out
}
