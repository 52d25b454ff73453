//! Determinism properties of the sharded, watermark-driven engine.
//!
//! Two invariants lock the refactor down (and a third case checks that
//! the vessel TTL bounds state on a churning fleet):
//!
//! 1. **Arrival-shuffle invariance** — feeding the same fix set through
//!    the standard upstream discipline (reorder buffer + bounded
//!    out-of-orderness watermark + aligned ticks), the emitted event
//!    *multiset* is identical for in-order arrival and for any shuffle
//!    whose displacement stays within the watermark delay.
//! 2. **Shard-count invariance** — the same run emits identically on
//!    1/2/4/8 detector shards.

use mda_events::engine::{EngineConfig, EngineStateStats, EventEngine};
use mda_events::event::MaritimeEvent;
use mda_geo::time::{MINUTE, SECOND};
use mda_geo::{DurationMs, Fix, Position, Timestamp};
use mda_stream::reorder::ReorderBuffer;
use mda_stream::watermark::{BoundedOutOfOrderness, TickSchedule};
use proptest::prelude::*;

const DELAY: DurationMs = 5 * MINUTE;
const TICK: DurationMs = MINUTE;

/// A scenario exercising every detector: cruisers, a rendezvous pair,
/// a vessel going dark, a spoofer, a head-on collision pair — and one
/// cloned identity transmitting two *different* fixes with the *same*
/// timestamp, the duplicate-(t, vessel) shape that only the engine's
/// total content ordering keeps arrival-invariant.
fn scenario_fixes() -> Vec<Fix> {
    let mut fixes = Vec::new();
    let f = |id: u32, t_s: i64, lat: f64, lon: f64, sog: f64, cog: f64| {
        Fix::new(id, Timestamp::from_secs(t_s), Position::new(lat, lon), sog, cog)
    };
    for minute in 0..90i64 {
        let t = minute * 60;
        // Cruisers 1..=6, staggered a few seconds apart.
        for v in 1..=6u32 {
            fixes.push(f(
                v,
                t + i64::from(v),
                42.0 + f64::from(v) * 0.15,
                4.0 + minute as f64 * 0.005,
                10.0,
                90.0,
            ));
        }
        // Rendezvous pair 9/10: slow and ~110 m apart all along.
        fixes.push(f(9, t + 20, 43.20, 5.60, 1.0, 0.0));
        fixes.push(f(10, t + 25, 43.201, 5.60, 1.2, 180.0));
        // Vessel 11 goes dark after minute 20 (gap + dark sweep).
        if minute < 20 {
            fixes.push(f(11, t + 30, 43.40, 5.20, 8.0, 0.0));
        }
        // Vessel 12 teleports between two coherent locations.
        let lon12 = if (20..40).contains(&minute) { 5.9 } else { 5.0 };
        fixes.push(f(12, t + 35, 43.6, lon12, 9.0, 90.0));
        // Collision pair 13/14: head-on, closing at 20 kn, reset every
        // 30 minutes so several sweeps alert.
        let leg = (minute % 30) as f64;
        fixes.push(f(13, t + 40, 43.80, 5.00 + leg * 0.001, 10.0, 90.0));
        fixes.push(f(14, t + 45, 43.80, 5.12 - leg * 0.001, 10.0, 270.0));
        // Vessel 15 is cloned: two transmitters claim the identity at
        // the same instant from 60 km apart — duplicate (t, vessel)
        // keys whose arrival order must not leak into emission.
        fixes.push(f(15, t + 50, 42.5, 5.0, 6.0, 0.0));
        fixes.push(f(15, t + 50, 42.5, 5.74, 6.0, 180.0));
    }
    fixes.sort_by_key(|x| (x.t, x.id));
    fixes
}

/// Feed `arrivals` (arrival order!) through the standard upstream
/// discipline into an engine with `shards` shards; return the emitted
/// multiset as a sorted fingerprint.
fn run(arrivals: &[Fix], shards: usize) -> Vec<String> {
    let mut engine = EventEngine::new(EngineConfig { shards, ..Default::default() });
    let mut reorder: ReorderBuffer<Fix> = ReorderBuffer::new();
    let mut watermark = BoundedOutOfOrderness::new(DELAY);
    let mut ticks = TickSchedule::new(TICK);
    let mut events: Vec<MaritimeEvent> = Vec::new();
    // Interleave released fixes with aligned tick boundaries by event
    // time (the pipeline's `advance` discipline, via the shared
    // TickSchedule): boundary T fires after exactly the fixes with
    // t <= T.
    let advance =
        |engine: &mut EventEngine, released: Vec<Fix>, wm: Timestamp, ticks: &mut TickSchedule| {
            let mut out = Vec::new();
            let mut pending: Vec<Fix> = Vec::new();
            for fix in released {
                while let Some(boundary) = ticks.before_observation(fix.t) {
                    out.extend(engine.observe_batch(&std::mem::take(&mut pending)));
                    out.extend(engine.tick(boundary));
                }
                pending.push(fix);
            }
            out.extend(engine.observe_batch(&pending));
            while let Some(boundary) = ticks.at_watermark(wm) {
                out.extend(engine.tick(boundary));
            }
            out
        };
    for fix in arrivals {
        assert!(reorder.push(fix.t, *fix), "generator produced an over-late fix");
        let wm = watermark.observe(fix.t);
        let released: Vec<Fix> = reorder.release(wm).into_iter().map(|(_, x)| x).collect();
        events.extend(advance(&mut engine, released, wm, &mut ticks));
    }
    let rest: Vec<Fix> = reorder.drain_all().into_iter().map(|(_, x)| x).collect();
    // Final sweep at the maximum event time seen — arrival-invariant.
    let now = watermark.current().saturating_add(DELAY);
    events.extend(advance(&mut engine, rest, now, &mut ticks));
    if ticks.anchored() && now > ticks.last_boundary() {
        events.extend(engine.tick(now));
    }
    let mut fingerprint: Vec<String> = events.iter().map(|e| format!("{e:?}")).collect();
    fingerprint.sort();
    fingerprint
}

/// Shuffle `fixes` into an arrival order whose displacement stays
/// within the watermark delay: sort by `t + jitter` with
/// `|jitter| < DELAY / 2`.
fn bounded_shuffle(fixes: &[Fix], seed: u64) -> Vec<Fix> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    let mut next = move || {
        // xorshift64*
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    let half = DELAY / 2 - SECOND;
    let mut keyed: Vec<(i64, Fix)> = fixes
        .iter()
        .map(|f| {
            let jitter = (next() % (2 * half + 1) as u64) as i64 - half;
            (f.t.millis() + jitter, *f)
        })
        .collect();
    keyed.sort_by_key(|(k, f)| (*k, f.id));
    keyed.into_iter().map(|(_, f)| f).collect()
}

#[test]
fn scenario_produces_every_event_family() {
    // Sanity: the fingerprint we compare across runs actually covers
    // gaps, spoofing, rendezvous and collision events.
    let fingerprint = run(&scenario_fixes(), 1);
    for family in ["GapStart", "KinematicSpoofing", "Rendezvous", "CollisionRisk"] {
        assert!(fingerprint.iter().any(|e| e.contains(family)), "scenario never produced {family}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// In-order arrival vs a bounded shuffle: identical event multiset.
    #[test]
    fn shuffle_within_delay_is_invisible(seed in 1u64..1_000_000) {
        let fixes = scenario_fixes();
        let reference = run(&fixes, 4);
        let shuffled = bounded_shuffle(&fixes, seed);
        prop_assert!(shuffled != fixes, "shuffle was the identity; weak test");
        prop_assert_eq!(run(&shuffled, 4), reference, "arrival order leaked into emission");
    }

    /// Shard count (1/2/4/8) never changes the event multiset, under
    /// shuffled arrival too.
    #[test]
    fn emission_is_shard_count_invariant(seed in 1u64..1_000_000) {
        let arrivals = bounded_shuffle(&scenario_fixes(), seed);
        let reference = run(&arrivals, 1);
        for shards in [2usize, 4, 8] {
            prop_assert_eq!(run(&arrivals, shards), reference.clone(), "shards diverged");
        }
    }
}

/// A churn fleet: `vessels` vessels with staggered 30–90 min lifetimes
/// over `hours` hours of event time, one fix every 30 s while alive,
/// then silence for good. At any instant only a fraction of the fleet
/// is live — the shape that leaks state in an engine without a TTL.
/// Returned in event-time order.
fn churn_fixes(vessels: u32, hours: i64, seed: u64) -> Vec<Fix> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    let mut unit = move || {
        // xorshift64*, mapped to [0, 1)
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
    };
    let duration = hours * 60 * MINUTE;
    let mut fixes = Vec::new();
    for v in 1..=vessels {
        let life = 30 * MINUTE + (unit() * (60 * MINUTE) as f64) as i64;
        let start = (unit() * (duration - life) as f64) as i64;
        let pos = Position::new(42.0 + 2.0 * unit(), 3.0 + 3.0 * unit());
        let base = Fix::new(v, Timestamp(start), pos, 0.5 + 17.5 * unit(), 360.0 * unit());
        for t in (start..start + life).step_by((30 * SECOND) as usize) {
            let ts = Timestamp(t);
            fixes.push(Fix { t: ts, pos: base.dead_reckon(ts), ..base });
        }
    }
    fixes.sort_by_key(|x| (x.t, x.id));
    fixes
}

/// Drive event-time-ordered `fixes` through an engine with per-minute
/// `observe_batch` batches and aligned ticks, then one trailing sweep
/// past the TTL so the last generation of dark vessels can age out.
/// Returns `(events emitted, resident state after the run)`.
fn drive_churn(fixes: &[Fix], shards: usize, ttl: DurationMs) -> (usize, EngineStateStats) {
    let mut engine =
        EventEngine::new(EngineConfig { shards, vessel_ttl: ttl, ..Default::default() });
    let mut ticks = TickSchedule::new(TICK);
    let mut batch: Vec<Fix> = Vec::new();
    let mut events = 0;
    for fix in fixes {
        while let Some(boundary) = ticks.before_observation(fix.t) {
            events += engine.observe_batch(&std::mem::take(&mut batch)).len();
            events += engine.tick(boundary).len();
        }
        batch.push(*fix);
    }
    events += engine.observe_batch(&batch).len();
    if let Some(last) = fixes.last() {
        events += engine.tick(last.t.saturating_add(ttl.saturating_add(30 * MINUTE))).len();
    }
    let _ = engine.take_evicted();
    (events, engine.state_stats())
}

/// On a churn fleet a TTL ages every dark vessel out — no resident
/// state is left once the fleet has gone quiet — without losing a live
/// alarm, and at any shard count. Without it every vessel ever seen
/// stays resident.
#[test]
fn ttl_loses_no_live_alarm_and_leaves_no_state_on_a_churn_fleet() {
    let fixes = churn_fixes(300, 4, 3);
    assert!(fixes.len() > 10_000, "the churn fleet must be busy");
    let (events_ttl, bounded) = drive_churn(&fixes, 4, 30 * MINUTE);
    let (events_kept, unbounded) = drive_churn(&fixes, 4, DurationMs::MAX);
    assert_eq!(bounded.resident_entries(), 0, "all dark vessels must age out");
    assert_eq!(unbounded.gap_tracked, 300, "without a TTL every vessel stays resident");
    assert!(events_ttl >= events_kept, "a TTL must not lose live alarms");
    assert_eq!(drive_churn(&fixes, 1, 30 * MINUTE), (events_ttl, bounded), "shards diverged");
}
