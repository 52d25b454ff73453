//! Property tests for the trajectory store: batch/sequential append
//! equivalence and sealed-segment round-trips.

use mda_geo::distance::haversine_m;
use mda_geo::{Fix, Position, Timestamp};
use mda_store::segment::{SegmentConfig, TrajectorySegment};
use mda_store::trajstore::TrajectoryStore;
use proptest::prelude::*;

/// Build a batch of fixes from raw `(vessel, minute, milli-degree)`
/// triples — arbitrary interleaving, duplicates and disorder included.
fn batch_of(raw: &[(u32, i64, i64)]) -> Vec<Fix> {
    raw.iter()
        .map(|&(id, t_min, md)| {
            Fix::new(
                id % 5 + 1,
                Timestamp::from_mins(t_min),
                Position::new(43.0 + md as f64 * 1e-3, 5.0 + md as f64 * 1e-3),
                10.0,
                90.0,
            )
        })
        .collect()
}

/// A time-sorted slab of one vessel's fixes with bounded speeds and
/// spacing, as the hot archive would hand to the sealer.
fn slab_of(raw: &[(i64, i64, i64, u32, u32)]) -> Vec<Fix> {
    let mut t = Timestamp::from_secs(0);
    let (mut lat, mut lon) = (43.0, 5.0);
    raw.iter()
        .map(|&(dt_ms, dlat, dlon, sog_c, cog_c)| {
            t += dt_ms;
            lat += dlat as f64 * 1e-5;
            lon += dlon as f64 * 1e-5;
            Fix::new(
                7,
                t,
                Position::new(lat, lon),
                f64::from(sog_c) * 0.01,
                f64::from(cog_c % 36_000) * 0.01,
            )
        })
        .collect()
}

proptest! {
    /// `append_batch` (pre-sorted runs + linear merge) is
    /// order-equivalent to appending each fix sequentially, for any
    /// interleaving of vessels, disorder and duplicate timestamps.
    #[test]
    fn append_batch_equivalent_to_sequential_appends(
        raw in prop::collection::vec((0u32..5, -200i64..200, -500i64..500), 0..400),
        split in 0usize..400,
    ) {
        let fixes = batch_of(&raw);
        let mut sequential = TrajectoryStore::new();
        for f in &fixes {
            sequential.append(*f);
        }
        // Split into two batches: equivalence must hold when a batch
        // lands on an already-populated store, too.
        let cut = split.min(fixes.len());
        let mut batched = TrajectoryStore::new();
        batched.append_batch(fixes[..cut].to_vec());
        batched.append_batch(fixes[cut..].to_vec());
        prop_assert_eq!(sequential.len(), batched.len());
        for id in 1..=5u32 {
            prop_assert_eq!(sequential.trajectory(id), batched.trajectory(id), "vessel {}", id);
        }
    }

    /// However disordered a batch is, `append_batch` pays at most one
    /// out-of-order merge per vessel for it — a late burst is spliced
    /// once — and never more than per-fix appends of the same stream,
    /// which pay one sort-insert per late fix.
    #[test]
    fn append_batch_merges_at_most_once_per_vessel(
        raw in prop::collection::vec((0u32..5, -200i64..200, -500i64..500), 0..400),
        split in 0usize..400,
    ) {
        let fixes = batch_of(&raw);
        let mut sequential = TrajectoryStore::new();
        for f in &fixes {
            sequential.append(*f);
        }
        let cut = split.min(fixes.len());
        let mut batched = TrajectoryStore::new();
        batched.append_batch(fixes[..cut].to_vec());
        prop_assert_eq!(batched.disordered_merges(), 0, "a batch on an empty store");
        batched.append_batch(fixes[cut..].to_vec());
        prop_assert!(batched.disordered_merges() <= 5, "one merge per vessel per batch");
        prop_assert!(batched.disordered_merges() <= sequential.disordered_merges());
    }

    /// Lossless sealing (tolerance 0) round-trips every field of every
    /// fix bit-exactly.
    #[test]
    fn segment_roundtrip_lossless_at_tolerance_zero(
        raw in prop::collection::vec(
            (0i64..120_000, -80i64..80, -80i64..80, 0u32..2_500, 0u32..72_000),
            1..300,
        ),
    ) {
        let fixes = slab_of(&raw);
        let seg = TrajectorySegment::seal(7, &fixes, &SegmentConfig::lossless()).unwrap();
        prop_assert_eq!(seg.error_bound_m(), 0.0);
        let back = seg.decode();
        prop_assert_eq!(back.len(), fixes.len());
        for (a, b) in fixes.iter().zip(&back) {
            prop_assert_eq!(a.t, b.t);
            prop_assert_eq!(a.pos.lat.to_bits(), b.pos.lat.to_bits());
            prop_assert_eq!(a.pos.lon.to_bits(), b.pos.lon.to_bits());
            prop_assert_eq!(a.sog_kn.to_bits(), b.sog_kn.to_bits());
            prop_assert_eq!(a.cog_deg.to_bits(), b.cog_deg.to_bits());
        }
    }

    /// Lossy sealing reconstructs every *input* observation within the
    /// segment's recorded error bound: kept fixes decode to within the
    /// bound, dropped fixes dead-reckon from the preceding kept fix to
    /// within the bound (the threshold-compression guarantee, plus
    /// quantization slack).
    #[test]
    fn segment_roundtrip_lossy_within_recorded_bound(
        raw in prop::collection::vec(
            (1_000i64..60_000, -60i64..60, -60i64..60, 0u32..2_500, 0u32..72_000),
            1..250,
        ),
        tolerance in 10.0f64..200.0,
    ) {
        let fixes = slab_of(&raw);
        let config = SegmentConfig { tolerance_m: tolerance, ..SegmentConfig::default() };
        let seg = TrajectorySegment::seal(7, &fixes, &config).unwrap();
        let bound = seg.error_bound_m();
        prop_assert!(bound >= tolerance);
        let decoded = seg.decode();
        prop_assert!(decoded.len() <= fixes.len());
        for f in &fixes {
            // Reconstruct the observation from the last decoded fix at
            // or before its time.
            let anchor = decoded.iter().take_while(|d| d.t <= f.t).last().unwrap();
            let reconstructed = anchor.dead_reckon(f.t);
            let err = haversine_m(reconstructed, f.pos);
            prop_assert!(
                err <= bound,
                "reconstruction error {} m exceeds recorded bound {} m",
                err,
                bound
            );
        }
    }
}

proptest! {
    /// The struct-of-arrays hot tier is observationally equivalent to a
    /// plain per-vessel `Vec<Fix>` oracle under arbitrary interleavings
    /// of disordered appends and `take_before` seal sweeps: every query
    /// surface — trajectory, range, latest_at, first_after,
    /// position_at, window_into, iter — answers byte-identically.
    #[test]
    fn soa_store_matches_vec_oracle_under_interleaved_seals(
        ops in prop::collection::vec((0u32..6, -300i64..600, -500i64..500, 0u8..12), 1..400),
    ) {
        use std::collections::BTreeMap;
        use mda_geo::BoundingBox;

        let mut store = TrajectoryStore::new();
        let mut oracle: BTreeMap<u32, Vec<Fix>> = BTreeMap::new();
        for &(v_raw, t_min, md, sel) in &ops {
            if sel == 0 {
                // Seal sweep at an arbitrary cut, interleaved with
                // appends: both sides drain the strict-past prefix.
                let cut = Timestamp::from_mins(t_min);
                let drained: Vec<(u32, Vec<Fix>)> = store
                    .take_before(cut)
                    .into_iter()
                    .map(|(id, tr)| (id, tr.view(id).to_vec()))
                    .collect();
                let mut expect: Vec<(u32, Vec<Fix>)> = Vec::new();
                oracle.retain(|&id, fixes| {
                    let n = fixes.iter().take_while(|f| f.t < cut).count();
                    if n > 0 {
                        expect.push((id, fixes.drain(..n).collect()));
                    }
                    !fixes.is_empty()
                });
                prop_assert_eq!(drained, expect, "seal sweep at {:?} diverged", cut);
            } else {
                let fix = batch_of(&[(v_raw, t_min, md)])[0];
                store.append(fix);
                let fixes = oracle.entry(fix.id).or_default();
                // Same insertion rule as the store: equal timestamps
                // keep arrival order.
                let at = fixes.partition_point(|f| f.t <= fix.t);
                fixes.insert(at, fix);
            }
        }

        // Content equivalence, per vessel and globally.
        prop_assert_eq!(store.len(), oracle.values().map(Vec::len).sum::<usize>());
        prop_assert_eq!(store.vessel_count(), oracle.len());
        let flat: Vec<Fix> = store.iter().collect();
        let expect_flat: Vec<Fix> = oracle.values().flatten().copied().collect();
        prop_assert_eq!(flat, expect_flat);

        // Query equivalence at probe points straddling the data.
        let probes: Vec<Timestamp> =
            (-2i64..=6).map(|k| Timestamp::from_mins(k * 100 - 50)).collect();
        for id in 1..=6u32 {
            let traj = store.trajectory(id).map(|v| v.to_vec());
            prop_assert_eq!(&traj, &oracle.get(&id).cloned(), "trajectory({})", id);
            let fixes = oracle.get(&id).cloned().unwrap_or_default();
            for (i, &a) in probes.iter().enumerate() {
                prop_assert_eq!(
                    store.latest_at(id, a),
                    fixes.iter().rev().find(|f| f.t <= a).copied(),
                    "latest_at({}, {:?})", id, a
                );
                prop_assert_eq!(
                    store.first_after(id, a),
                    fixes.iter().find(|f| f.t > a).copied(),
                    "first_after({}, {:?})", id, a
                );
                for &b in &probes[i..] {
                    let got = store.range(id, a, b).to_vec();
                    let expect: Vec<Fix> =
                        fixes.iter().filter(|f| a <= f.t && f.t <= b).copied().collect();
                    prop_assert_eq!(got, expect, "range({}, {:?}, {:?})", id, a, b);
                }
            }
        }

        // position_at and window_into run identical code on a store
        // rebuilt from the oracle's (already time-ordered) content:
        // equality means the incrementally-built columns match the
        // canonical ones exactly, interpolation arithmetic included.
        let mut rebuilt = TrajectoryStore::new();
        for fixes in oracle.values() {
            for f in fixes {
                rebuilt.append(*f);
            }
        }
        let area = BoundingBox::new(42.8, 4.6, 43.3, 5.4);
        for (i, &a) in probes.iter().enumerate() {
            for id in 1..=6u32 {
                prop_assert_eq!(store.position_at(id, a), rebuilt.position_at(id, a));
            }
            for &b in &probes[i..] {
                let (mut got, mut expect) = (Vec::new(), Vec::new());
                store.window_into(&area, a, b, &mut got);
                rebuilt.window_into(&area, a, b, &mut expect);
                prop_assert_eq!(got, expect, "window_into({:?}, {:?})", a, b);
            }
        }
    }
}
