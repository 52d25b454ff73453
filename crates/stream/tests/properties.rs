//! Property tests for the streaming substrate.

use mda_geo::Timestamp;
use mda_stream::reorder::ReorderBuffer;
use mda_stream::runner::run_shard_affine;
use mda_stream::watermark::BoundedOutOfOrderness;
use proptest::prelude::*;
use std::collections::HashMap;

proptest! {
    /// Watermarks are monotone non-decreasing under arbitrary input.
    #[test]
    fn watermark_monotone(
        times in prop::collection::vec(-1_000_000i64..1_000_000, 1..200),
        delay in 0i64..60_000,
    ) {
        let mut w = BoundedOutOfOrderness::new(delay);
        let mut last = Timestamp::MIN;
        for t in times {
            let wm = w.observe(Timestamp(t));
            prop_assert!(wm >= last, "watermark regressed");
            last = wm;
        }
    }

    /// The reorder buffer emits in event-time order regardless of input
    /// order, and everything pushed before any release is emitted.
    #[test]
    fn reorder_emits_sorted(
        times in prop::collection::vec(0i64..100_000, 0..200),
        wm_step in 1i64..20_000,
    ) {
        let mut buffer = ReorderBuffer::new();
        let mut watermark = BoundedOutOfOrderness::new(5_000);
        let mut emitted: Vec<i64> = Vec::new();
        let mut accepted = 0usize;
        let mut wm;
        for (i, t) in times.iter().enumerate() {
            if buffer.push(Timestamp(*t), i) {
                accepted += 1;
            }
            wm = watermark.observe(Timestamp(*t));
            if i as i64 % wm_step == 0 {
                emitted.extend(buffer.release(wm).into_iter().map(|(ts, _)| ts.0));
            }
        }
        emitted.extend(buffer.drain_all().into_iter().map(|(ts, _)| ts.0));
        let mut sorted = emitted.clone();
        sorted.sort_unstable();
        prop_assert_eq!(&emitted, &sorted, "out-of-order emission");
        prop_assert_eq!(emitted.len(), accepted);
    }

    /// `run_shard_affine` loses no elements and preserves per-shard
    /// input order, for arbitrary shard maps and worker counts.
    #[test]
    fn run_shard_affine_no_loss_per_shard_order(
        shards_of in prop::collection::vec(0usize..13, 0..300),
        workers in 1usize..=8,
    ) {
        let shards = 13usize;
        let items: Vec<(usize, usize)> =
            shards_of.iter().enumerate().map(|(seq, s)| (*s, seq)).collect();
        let out: Vec<(usize, usize)> = run_shard_affine(
            items.clone(),
            workers,
            shards,
            |it| it.0,
            || |batch: Vec<(usize, usize)>| batch,
        );

        prop_assert_eq!(out.len(), items.len());
        let mut got = out.clone();
        let mut want = items;
        got.sort_unstable();
        want.sort_unstable();
        prop_assert_eq!(got, want);

        let mut per_shard: HashMap<usize, Vec<usize>> = HashMap::new();
        for (s, seq) in out {
            per_shard.entry(s).or_default().push(seq);
        }
        for (s, seqs) in per_shard {
            let mut sorted = seqs.clone();
            sorted.sort_unstable();
            prop_assert_eq!(&seqs, &sorted, "shard {} processed out of order", s);
        }
    }
}
