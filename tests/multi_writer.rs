//! Multi-writer shard-owned ingest: the deterministic battery behind
//! the writer-count-invariance claim.
//!
//! Three properties are enforced on [`MultiWriterPipeline`]:
//!
//! 1. **Barrier fault release** — a lane panicking mid-scenario must
//!    abandon the tick barrier so the surviving lanes unwind and the
//!    panic propagates to the caller, instead of deadlocking the
//!    writer and its concurrent readers.
//! 2. **Adversarial lateness** — under shuffled arrival with
//!    stragglers arriving *exactly* at the watermark delay, every
//!    published boundary `T` is tick-aligned and carries exactly the
//!    data with event time `≤ T`, identically for every writer count
//!    and identically to the classic single-writer pipeline.
//! 3. **Concurrent readers** — N `QueryService` readers over a
//!    multi-writer scenario observe monotone stamps, snapshot-isolated
//!    state, and a cursor-polling subscriber reassembles exactly the
//!    event stream the writer lanes emitted.

use maritime::core::query::SystemSnapshot;
use maritime::core::{MaritimePipeline, MultiWriterPipeline, PipelineConfig};
use maritime::geo::time::HOUR;
use maritime::geo::{BoundingBox, Fix, Position, Timestamp};
use maritime::sim::{Scenario, ScenarioConfig};
use proptest::prelude::*;
use std::sync::atomic::Ordering;
use std::sync::Arc;

fn bounds() -> BoundingBox {
    BoundingBox::new(42.0, 3.0, 44.0, 6.5)
}

/// Lossless sealing + every-tick predictor refresh, so snapshots are a
/// pure function of the event-time stream at their stamp and the
/// classic pipeline is an exact cross-check.
fn battery_config() -> PipelineConfig {
    let mut config = PipelineConfig::regional(bounds());
    config.retention.cold_tolerance_m = 0.0;
    config.query.predictor_refresh_ticks = 1;
    config
}

#[test]
fn lane_panic_releases_barrier_and_readers() {
    let mut pipeline = MultiWriterPipeline::new(battery_config(), 4).with_ingest_batch(8);
    // Lane 2 dies just before its 3rd tick-boundary crossing: the
    // other three lanes are already parked in (or headed into) the
    // same crossing when it happens.
    pipeline.inject_lane_panic(2, 3);
    let service = pipeline.query_service();

    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        maritime::stream::runner::run_with_readers(
            || {
                for i in 0..180i64 {
                    for v in 1..=12u32 {
                        let pos = Position::new(42.3 + 0.12 * f64::from(v), 4.0 + 0.004 * i as f64);
                        pipeline.push_fix(Fix::new(v, Timestamp::from_mins(i), pos, 11.0, 90.0));
                    }
                }
                pipeline.finish();
            },
            3,
            |reader, running| {
                let service = service.clone();
                let mut last = Timestamp::MIN;
                let mut stamps = 0usize;
                while running.load(Ordering::Acquire) {
                    let snap = service.snapshot();
                    assert!(snap.watermark() >= last, "reader {reader}: watermark regressed");
                    if snap.watermark() > last {
                        last = snap.watermark();
                        stamps += 1;
                    }
                    std::thread::yield_now();
                }
                stamps
            },
        )
    }));

    // The fault propagates as the lane's own panic — the barrier was
    // abandoned and every surviving lane (and reader) released, or the
    // join above would have hung forever.
    let payload = result.expect_err("injected lane fault must propagate to the writer");
    let msg = payload
        .downcast_ref::<&str>()
        .copied()
        .unwrap_or_else(|| payload.downcast_ref::<String>().map(String::as_str).unwrap_or(""));
    assert_eq!(msg, "injected lane fault", "the original panic payload must surface");

    // The serving layer is still answerable from the last snapshot
    // published before the fault.
    let snap = service.snapshot();
    assert!(snap.watermark() >= Timestamp::MIN);
    let _ = snap.store().len();
}

/// One run of a pipeline frontend over a pre-shuffled arrival list,
/// recording the stamped snapshot after every push where the stamp
/// moved, plus the end-of-stream snapshot.
type Captured = Vec<(Timestamp, Arc<SystemSnapshot>)>;

fn capture<P>(
    items: &[(i64, Fix)],
    mut push: impl FnMut(&mut P, Fix),
    pipeline: &mut P,
    service: &maritime::core::QueryService,
) -> Captured {
    let mut recorded: Captured = Vec::new();
    for (_, fix) in items {
        push(pipeline, *fix);
        let snap = service.snapshot();
        if snap.watermark() != Timestamp::MIN
            && recorded.last().map(|(w, _)| *w) != Some(snap.watermark())
        {
            recorded.push((snap.watermark(), snap));
        }
    }
    recorded
}

/// A per-stamp fingerprint of everything the archive serves: length,
/// vessel set, every trajectory, every latest fix.
type Fingerprint = (usize, Vec<u32>, Vec<Option<Vec<Fix>>>, Vec<Option<Fix>>);

fn fingerprint(snap: &SystemSnapshot) -> Fingerprint {
    let ids = snap.store().vessels();
    (
        snap.store().len(),
        ids.clone(),
        ids.iter().map(|&id| snap.trajectory(id).value).collect(),
        ids.iter().map(|&id| snap.latest(id).value).collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// Adversarial lateness: every fix arrives late by a pseudo-random
    /// amount, with every 7th fix a straggler arriving *exactly* at
    /// the watermark delay. Nothing may be dropped, every non-final
    /// published boundary is tick-aligned, no snapshot leaks data past
    /// its stamp, the published stamp sequence and event stream are
    /// identical for 1/2/4/8 writers, and every stamp both frontends
    /// publish carries identical archive state.
    #[test]
    fn adversarial_lateness_fires_exact_tick_boundaries(
        seed in 1u64..10_000,
        vessels in 4u32..8,
        mins in 100i64..140,
    ) {
        let config = battery_config();
        let delay = config.watermark_delay;
        let tick = config.tick_interval;

        // Shuffled arrival stream. Normal lateness is in
        // [1, delay/2]; stragglers sit exactly at the delay, the
        // last instant the drop rule must still accept them.
        let mut items: Vec<(i64, Fix)> = Vec::new();
        let mut state = seed | 1;
        let mut k = 0u64;
        for i in 0..mins {
            for v in 1..=vessels {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                k += 1;
                let lateness =
                    if k % 7 == 0 { delay } else { 1 + (state >> 33) as i64 % (delay / 2) };
                let t = Timestamp::from_mins(i);
                let pos = Position::new(
                    42.4 + 0.15 * f64::from(v),
                    3.5 + 0.005 * i as f64 + 0.02 * f64::from(v),
                );
                items.push((t.millis() + lateness, Fix::new(v, t, pos, 10.0, 90.0)));
            }
        }
        items.sort_by_key(|(arrival, fix)| (*arrival, fix.id, fix.t));
        let final_t = Timestamp::from_mins(mins - 1);

        // Multi-writer runs at every writer count.
        let writer_counts = [1usize, 2, 4, 8];
        let mut stamp_lists: Vec<Vec<Timestamp>> = Vec::new();
        let mut event_streams = Vec::new();
        let mut multi_recorded: Vec<Captured> = Vec::new();
        for &writers in &writer_counts {
            let mut pipeline =
                MultiWriterPipeline::new(battery_config(), writers).with_ingest_batch(16);
            let service = pipeline.query_service();
            let mut events = Vec::new();
            let mut recorded = capture(
                &items,
                |p: &mut MultiWriterPipeline, fix| events.extend(p.push_fix(fix)),
                &mut pipeline,
                &service,
            );
            events.extend(pipeline.finish());
            let last = service.snapshot();
            recorded.push((last.watermark(), last));
            prop_assert_eq!(
                pipeline.report().dropped_late, 0,
                "writers={}: stragglers at the delay must not be dropped", writers
            );

            let stamps: Vec<Timestamp> = recorded.iter().map(|(w, _)| *w).collect();
            prop_assert!(stamps.windows(2).all(|w| w[0] < w[1]), "stamps must be monotone");
            // Every non-final boundary is on the tick grid; the final
            // stamp is the end-of-stream watermark (max event time).
            for w in &stamps[..stamps.len() - 1] {
                prop_assert_eq!(
                    w.millis() % tick, 0,
                    "writers={}: boundary {} off the tick grid", writers, w
                );
            }
            prop_assert_eq!(
                *stamps.last().unwrap(), final_t,
                "writers={}: end-of-stream stamp must reach the max event time", writers
            );
            // Snapshot isolation: a boundary T serves only data t ≤ T.
            for (w, snap) in &recorded {
                for id in snap.store().vessels() {
                    if let Some(traj) = snap.trajectory(id).value {
                        prop_assert!(
                            traj.iter().all(|f| f.t <= *w),
                            "writers={}: data beyond stamp {}", writers, w
                        );
                    }
                }
            }
            stamp_lists.push(stamps);
            event_streams.push(events);
            multi_recorded.push(recorded);
        }
        for (i, stamps) in stamp_lists.iter().enumerate() {
            prop_assert_eq!(
                stamps, &stamp_lists[0],
                "writers={} published a different stamp sequence", writer_counts[i]
            );
            prop_assert_eq!(
                &event_streams[i], &event_streams[0],
                "writers={} emitted a different event stream", writer_counts[i]
            );
        }

        // Classic single-writer cross-check: at every stamp both
        // frontends published, the archives are identical.
        let mut classic = MaritimePipeline::new(battery_config());
        let classic_service = classic.query_service();
        let mut classic_recorded = capture(
            &items,
            |p: &mut MaritimePipeline, fix| drop(p.push_fix(fix)),
            &mut classic,
            &classic_service,
        );
        classic.finish();
        let last = classic_service.snapshot();
        classic_recorded.push((last.watermark(), last));
        prop_assert_eq!(classic.report().dropped_late, 0);

        let mut matched = 0usize;
        for (w, snap) in &multi_recorded[0] {
            if let Some((_, classic_snap)) = classic_recorded.iter().find(|(s, _)| s == w) {
                prop_assert_eq!(
                    fingerprint(snap),
                    fingerprint(classic_snap),
                    "multi-writer archive diverged from classic at stamp {}", w
                );
                matched += 1;
            }
        }
        prop_assert!(matched >= 3, "expected several stamps published by both frontends");
    }
}

#[test]
fn multi_writer_with_concurrent_readers() {
    let sim = Scenario::generate(ScenarioConfig::regional(91, 16, 2 * HOUR));
    let mut config = PipelineConfig::regional(sim.world.bounds);
    config.events.zones = maritime::zones_of_world(&sim.world);
    let mut pipeline = MultiWriterPipeline::new(config, 4).with_ingest_batch(32);
    let service = pipeline.query_service();

    struct ReaderLog {
        stamps_seen: usize,
        final_wm: Timestamp,
        polled: Vec<maritime::events::MaritimeEvent>,
        missed: u64,
    }

    let (writer_events, reader_logs) = maritime::stream::runner::run_with_readers(
        || pipeline.run_scenario(&sim),
        3,
        |reader, running| {
            let service = service.clone();
            let mut log = ReaderLog {
                stamps_seen: 0,
                final_wm: Timestamp::MIN,
                polled: Vec::new(),
                missed: 0,
            };
            let mut cursor = maritime::events::EventCursor::default();
            loop {
                let done = !running.load(Ordering::Acquire);
                let snap = service.snapshot();
                assert!(snap.watermark() >= log.final_wm, "reader {reader}: watermark regressed");
                if snap.watermark() > log.final_wm {
                    log.final_wm = snap.watermark();
                    log.stamps_seen += 1;
                    // Snapshot isolation under concurrency: nothing
                    // beyond the stamp is ever visible.
                    for id in snap.store().vessels().into_iter().take(3) {
                        if let Some(traj) = snap.trajectory(id).value {
                            assert!(
                                traj.iter().all(|f| f.t <= snap.watermark()),
                                "reader {reader}: data beyond the stamp"
                            );
                        }
                    }
                }
                if reader == 0 {
                    let poll = service.poll_since(cursor);
                    cursor = poll.cursor;
                    log.missed += poll.missed;
                    log.polled.extend(poll.events);
                }
                if done {
                    return log;
                }
                std::thread::yield_now();
            }
        },
    );

    assert!(!writer_events.is_empty(), "scenario must produce events");
    for (reader, log) in reader_logs.iter().enumerate() {
        assert!(log.stamps_seen > 0, "reader {reader} never saw a published snapshot");
        assert_eq!(log.final_wm, service.watermark(), "reader {reader} missed the final snapshot");
    }
    // The subscriber reassembled the lanes' merged emission exactly —
    // the ring is written once per boundary, in the same deterministic
    // shard-merge order the writer returns.
    let subscriber = &reader_logs[0];
    assert_eq!(subscriber.missed, 0, "ring capacity must cover the scenario");
    assert_eq!(
        subscriber.polled, writer_events,
        "cursor polling must reassemble the emitted event stream exactly"
    );
}

#[test]
fn inline_lane_panic_leaves_readers_on_the_last_published_snapshot() {
    // One writer lane runs inline on the pushing thread: there is no
    // barrier to abandon and no sibling to release, so the fault must
    // surface as the lane's own panic, straight out of the push call,
    // while concurrent readers keep answering from the last snapshot
    // published before it.
    let mut pipeline = MultiWriterPipeline::new(battery_config(), 1).with_ingest_batch(8);
    assert_eq!(pipeline.writers(), 1);
    pipeline.inject_lane_panic(0, 30);
    let service = pipeline.query_service();
    let pusher = std::thread::current().id();

    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        maritime::stream::runner::run_with_readers(
            || {
                for i in 0..180i64 {
                    for v in 1..=12u32 {
                        let pos = Position::new(42.3 + 0.12 * f64::from(v), 4.0 + 0.004 * i as f64);
                        pipeline.push_fix(Fix::new(v, Timestamp::from_mins(i), pos, 11.0, 90.0));
                    }
                }
                pipeline.finish();
            },
            3,
            |reader, running| {
                assert_ne!(std::thread::current().id(), pusher);
                let service = service.clone();
                let mut last = Timestamp::MIN;
                while running.load(Ordering::Acquire) {
                    let snap = service.snapshot();
                    assert!(snap.watermark() >= last, "reader {reader}: watermark regressed");
                    last = snap.watermark();
                    std::thread::yield_now();
                }
            },
        )
    }));
    let payload = result.expect_err("injected lane fault must propagate to the writer");
    assert_eq!(payload.downcast_ref::<&str>().copied(), Some("injected lane fault"));

    // The 30th boundary never closed: the stamp readers see is the
    // 29th's — on the tick grid, behind the data pushed — and it still
    // answers, with nothing beyond it visible.
    let snap = service.snapshot();
    let stamp = snap.watermark();
    assert!(stamp > Timestamp::MIN, "29 boundaries were published before the fault");
    assert_eq!(stamp.millis() % battery_config().tick_interval, 0);
    assert!(stamp < Timestamp::from_mins(179));
    assert_eq!(snap.store().vessels().len(), 12);
    for id in snap.store().vessels() {
        let traj = snap.trajectory(id).value.expect("archived before the fault");
        assert!(traj.iter().all(|f| f.t <= stamp), "data beyond the stamp");
    }
}
