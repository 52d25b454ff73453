//! Property tests for the adaptive hot-path controller.
//!
//! The controller's contract is *determinism under concurrency*: its
//! knob trajectory must be a pure function of the event-time arrival
//! stream — invariant under the writer count, the absorb granularity,
//! and arrival adversity (bursts, stalls, heavy lateness, per-shard
//! skew). These properties drive generated adversarial streams through
//! the real pipelines and the bare controller and hold them to that.
//! A last case checks what the controller is for: on a satellite wave,
//! its p99 fix-visibility staleness beats every static knob cell.

use maritime::core::{MultiWriterPipeline, PipelineConfig};
use maritime::geo::{BoundingBox, Fix, Position, Timestamp};
use maritime::stream::control::{AdaptiveController, ArrivalWindow, ControlConfig, Knobs};
use proptest::prelude::*;

fn bounds() -> BoundingBox {
    BoundingBox::new(42.0, 3.0, 44.0, 6.5)
}

/// Build an adversarial arrival stream from raw `(vessel, advance_ms,
/// late_ms)` triples: event time walks forward by `advance_ms` per
/// arrival (0 = a burst at one instant, large = a stall), and each
/// arrival is reported `late_ms` behind the frontier (satellite-batch
/// style disorder). Vessel ids are skewed: low raw values collapse onto
/// vessel 1, modelling a port hotspot on one shard.
fn arrivals(raw: &[(u32, i64, i64)]) -> Vec<Fix> {
    let mut frontier = Timestamp::from_mins(0);
    raw.iter()
        .map(|&(v, advance_ms, late_ms)| {
            frontier += advance_ms;
            let id = if v < 8 { 1 } else { v % 24 + 1 };
            let t = frontier.saturating_add(-late_ms);
            let minutes = (t.millis() / 60_000) as f64;
            let pos = Position::new(
                42.2 + 0.07 * f64::from(id % 24),
                3.2 + 0.002 * minutes.abs().min(1_500.0),
            );
            Fix::new(id, t, pos, 10.0, 90.0)
        })
        .collect()
}

fn run_writers(fixes: &[Fix], writers: usize) -> (Vec<(Timestamp, Knobs)>, usize, u64) {
    let mut p =
        MultiWriterPipeline::new(PipelineConfig::adaptive(bounds()), writers).with_ingest_batch(32);
    for f in fixes {
        p.push_fix(*f);
    }
    p.finish();
    let report = p.report();
    (p.control_trace(), p.store().len(), report.dropped_late)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The committed knob trajectory — and everything downstream of it
    /// (archive size, late-drop count) — is invariant under the writer
    /// count for arbitrary adversarial arrival streams.
    #[test]
    fn knob_trajectory_is_writer_count_invariant(
        raw in prop::collection::vec((0u32..64, 0i64..180_000, 0i64..3_000_000), 64..500),
    ) {
        let fixes = arrivals(&raw);
        let reference = run_writers(&fixes, 1);
        for writers in [2usize, 4, 8] {
            let got = run_writers(&fixes, writers);
            prop_assert_eq!(&reference, &got, "{} writers diverged", writers);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every committed knob stays inside the configured clamp bounds,
    /// and commit boundaries strictly increase, no matter how bursty,
    /// stalled or late the stream gets (lateness here runs to ~2 h —
    /// far past the delay clamp ceiling).
    #[test]
    fn knobs_stay_clamped_under_adversarial_bursts(
        raw in prop::collection::vec((0u32..64, 0i64..600_000, 0i64..7_200_000), 32..400),
    ) {
        let fixes = arrivals(&raw);
        let mut p = MultiWriterPipeline::new(PipelineConfig::adaptive(bounds()), 4)
            .with_ingest_batch(16);
        for f in &fixes {
            p.push_fix(*f);
        }
        p.finish();
        let trace = p.control_trace();
        let cfg = ControlConfig::default();
        prop_assert!(trace.windows(2).all(|w| w[0].0 < w[1].0), "boundaries must increase");
        for (b, k) in &trace {
            prop_assert!(
                cfg.delay_bounds.0 <= k.delay && k.delay <= cfg.delay_bounds.1,
                "delay {} out of bounds at {:?}", k.delay, b
            );
            prop_assert!(
                cfg.seal_bounds.0 <= k.seal_every && k.seal_every <= cfg.seal_bounds.1,
                "seal cadence {} out of bounds at {:?}", k.seal_every, b
            );
            prop_assert!(
                cfg.ring_bounds.0 <= k.ring_capacity && k.ring_capacity <= cfg.ring_bounds.1,
                "ring capacity {} out of bounds at {:?}", k.ring_capacity, b
            );
        }
    }

    /// Bare-controller purity: absorbing the same observation sequence
    /// in arbitrarily different chunkings (absorb-per-arrival versus
    /// absorb-at-commit versus anything between) commits the identical
    /// knob trajectory. This is the property the two pipelines lean on:
    /// the single writer absorbs at every boundary, the multi-writer
    /// router once per epoch.
    #[test]
    fn absorb_granularity_never_changes_the_trajectory(
        raw in prop::collection::vec((0u32..64, 0i64..120_000, 0i64..3_600_000), 16..300),
        chunk in 1usize..64,
    ) {
        let fixes = arrivals(&raw);
        let cfg = ControlConfig::default();
        let initial = Knobs {
            delay: 40 * maritime::geo::time::MINUTE,
            seal_every: 30 * maritime::geo::time::MINUTE,
            ring_capacity: 65_536,
        };
        let shards = 8;
        let commit_every = 50usize;

        let run = |absorb_chunk: usize| {
            let mut ctl = AdaptiveController::new(cfg, initial);
            let mut window = ArrivalWindow::new(shards, cfg.fast_alpha, cfg.slow_alpha);
            let mut boundary = Timestamp::from_mins(0);
            for (i, f) in fixes.iter().enumerate() {
                window.observe(f.t, maritime::geo::vessel_shard(f.id, shards));
                if (i + 1) % absorb_chunk == 0 {
                    ctl.absorb(&mut window);
                }
                if (i + 1) % commit_every == 0 {
                    boundary += maritime::geo::time::MINUTE;
                    ctl.absorb(&mut window);
                    ctl.commit(boundary, (i as u64) % 97, i as u64);
                }
            }
            ctl.trace().to_vec()
        };
        prop_assert_eq!(run(1), run(chunk));
    }
}

/// Staleness charged to a dropped fix: 2× the delay clamp ceiling, so
/// dropping is always worse than waiting out the widest static delay.
const DROP_PENALTY: i64 = 140 * maritime::geo::time::MINUTE;

/// The regime-switching satellite-wave workload, in arrival order.
///
/// Each 120-minute period is 40 quiet minutes of terrestrial trickle
/// (80 fixes/min, ≤ 90 s disorder), then an 80-minute satellite wave:
/// 140 fixes/min, 13 of every 14 satellite, concentrated on vessels
/// 1–4 (a port hotspot). Satellite lateness ramps 5 → 41 min at
/// 0.6 min per minute, holds 41 min for 14 minutes, then collapses at
/// ×0.55 per minute — tight static delays drop the wave, wide ones make
/// every fix wait.
fn wave_fixes(hours: i64, seed: u64) -> Vec<Fix> {
    use maritime::geo::time::{MINUTE, SECOND};
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    let mut jitter = move |span: i64| {
        // xorshift64*
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s.wrapping_mul(0x2545_F491_4F6C_DD1D) % span as u64) as i64
    };
    let mut fixes = Vec::new();
    let (mut sat_turn, mut terr_turn) = (0u32, 0u32);
    for m in 0..hours * 60 {
        let phase = m % 120;
        let late_ms = match phase {
            0..=39 => 0,
            40..=99 => ((5.0 + 0.6 * (phase - 40) as f64) * MINUTE as f64) as i64,
            100..=113 => 41 * MINUTE,
            _ => (41.0 * MINUTE as f64 * 0.55f64.powi((phase - 113) as i32)) as i64,
        };
        let slots: i64 = if late_ms == 0 { 80 } else { 140 };
        for j in 0..slots {
            let arrival = Timestamp(m * MINUTE + j * (MINUTE / slots));
            let (id, t) = if late_ms > 0 && j % 14 >= 1 {
                let id = 1 + sat_turn % 4;
                sat_turn += 1;
                // Per-(vessel, minute) skew keeps each hotspot track
                // near-monotone within a minute.
                let skew = (i64::from(id) * 7 + m * 13) % 41 - 20;
                (id, arrival.saturating_add(-(late_ms + skew * SECOND)))
            } else {
                let id = 10 + terr_turn % 120;
                terr_turn += 1;
                (id, arrival.saturating_add(-jitter(90 * SECOND)))
            };
            let hour = t.millis() as f64 / (60.0 * MINUTE as f64);
            let pos =
                Position::new(42.3 + 0.012 * f64::from(id % 100), (3.2 + 0.05 * hour).min(6.4));
            fixes.push(Fix::new(id, t, pos, 8.0, 90.0));
        }
    }
    fixes
}

/// `(fixes dropped late, p99 fix-visibility staleness in ms)` of one
/// run with a reader attached. A fix's staleness is how far the arrival
/// frontier had moved past its event time when the published snapshot
/// stamp first covered it, sampled every 16 arrivals; a dropped fix is
/// never visible and takes [`DROP_PENALTY`] instead. The router's drop
/// rule is a threshold on event time, so the fixes dropped in a window
/// are exactly its earliest ones.
fn staleness(fixes: &[Fix], config: PipelineConfig, writers: usize) -> (u64, i64) {
    use std::cmp::Reverse;
    let mut p = MultiWriterPipeline::new(config, writers).with_ingest_batch(64);
    let service = p.query_service();
    let mut pending = std::collections::BinaryHeap::new();
    let mut window: Vec<i64> = Vec::new();
    let mut samples: Vec<i64> = Vec::with_capacity(fixes.len());
    let (mut frontier, mut seen_dropped) = (i64::MIN, 0u64);
    let mut settle = |p: &MultiWriterPipeline, window: &mut Vec<i64>, frontier: i64| {
        let dropped = p.report().dropped_late;
        let delta = (dropped - seen_dropped) as usize;
        seen_dropped = dropped;
        window.sort_unstable();
        for (i, t) in window.drain(..).enumerate() {
            if i < delta {
                samples.push(DROP_PENALTY);
            } else {
                pending.push(Reverse(t));
            }
        }
        let stamp = service.watermark().millis();
        while let Some(&Reverse(t)) = pending.peek().filter(|r| r.0 <= stamp) {
            pending.pop();
            samples.push(frontier - t);
        }
    };
    for fix in fixes {
        frontier = frontier.max(fix.t.millis());
        window.push(fix.t.millis());
        p.push_fix(*fix);
        if window.len() == 16 {
            settle(&p, &mut window, frontier);
        }
    }
    p.finish();
    settle(&p, &mut window, frontier);
    // Anything still pending became visible at the drain.
    samples.extend(pending.into_iter().map(|Reverse(t)| frontier - t));
    samples.sort_unstable();
    (p.report().dropped_late, samples[(samples.len() - 1) * 99 / 100])
}

/// Adaptive control against the static (delay × seal-cadence) knob grid
/// on a satellite wave: the adaptive cell's p99 fix-visibility
/// staleness beats every static cell, and a 10-minute static delay
/// drops the wave and takes the drop penalty at p99.
#[test]
fn adaptive_staleness_beats_every_static_cell_on_a_satellite_wave() {
    use maritime::geo::time::MINUTE;
    let fixes = wave_fixes(2, 11);
    assert_eq!(fixes.len(), 40 * 80 + 80 * 140, "one quiet stretch, then one wave");
    let (adaptive_dropped, adaptive_p99) = staleness(&fixes, PipelineConfig::adaptive(bounds()), 2);
    assert!(adaptive_p99 < DROP_PENALTY);
    for delay in [10i64, 40, 70] {
        for seal in [10i64, 30, 60] {
            let mut config = PipelineConfig::regional(bounds());
            config.watermark_delay = delay * MINUTE;
            config.retention.seal_every = seal * MINUTE;
            let (dropped, p99) = staleness(&fixes, config, 2);
            assert!(
                adaptive_p99 < p99,
                "adaptive p99 {adaptive_p99} ms must beat static {delay}m/{seal}m at {p99} ms"
            );
            if delay == 10 {
                assert!(dropped > 50 * adaptive_dropped.max(1), "the wave must swamp {delay}m");
                assert_eq!(p99, DROP_PENALTY, "p99 of a dropping cell is the penalty");
            }
        }
    }
}
