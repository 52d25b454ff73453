//! Event-time reordering buffer.
//!
//! Buffers out-of-order elements and releases them in event-time order
//! once the watermark guarantees completeness. This is the first stage of
//! the ingest pipeline: everything downstream (synopses, event automata)
//! can then assume per-key monotone time.

use mda_geo::Timestamp;
use std::collections::BTreeMap;

/// A reordering buffer over `(Timestamp, T)` elements.
#[derive(Debug)]
pub struct ReorderBuffer<T> {
    pending: BTreeMap<Timestamp, Vec<T>>,
    len: usize,
    dropped_late: u64,
    released_watermark: Timestamp,
}

impl<T> Default for ReorderBuffer<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> ReorderBuffer<T> {
    /// New empty buffer.
    pub fn new() -> Self {
        Self {
            pending: BTreeMap::new(),
            len: 0,
            dropped_late: 0,
            released_watermark: Timestamp::MIN,
        }
    }

    /// Number of buffered elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Elements dropped because they arrived behind an already-released
    /// watermark.
    pub fn dropped_late(&self) -> u64 {
        self.dropped_late
    }

    /// Insert an element. Returns `false` (and drops it) if its time is
    /// at or before the last released watermark — it can no longer be
    /// emitted in order.
    pub fn push(&mut self, t: Timestamp, value: T) -> bool {
        if t <= self.released_watermark && self.released_watermark != Timestamp::MIN {
            self.dropped_late += 1;
            return false;
        }
        self.pending.entry(t).or_default().push(value);
        self.len += 1;
        true
    }

    /// Earliest and latest buffered event times at or before
    /// `watermark` — the span the next [`Self::release`] up to it
    /// covers — or `None` when that release would be empty.
    pub fn span_until(&self, watermark: Timestamp) -> Option<(Timestamp, Timestamp)> {
        let mut due = self.pending.range(..=watermark);
        let first = *due.next()?.0;
        Some((first, due.next_back().map_or(first, |(t, _)| *t)))
    }

    /// Release all elements with `t <= watermark`, in event-time order.
    pub fn release(&mut self, watermark: Timestamp) -> Vec<(Timestamp, T)> {
        if watermark < self.released_watermark {
            return Vec::new();
        }
        self.released_watermark = watermark;
        let mut out = Vec::new();
        let keep = self.pending.split_off(&watermark.saturating_add(1));
        for (t, values) in std::mem::replace(&mut self.pending, keep) {
            for v in values {
                out.push((t, v));
            }
        }
        self.len -= out.len();
        out
    }

    /// Release everything regardless of watermark (end of stream).
    pub fn drain_all(&mut self) -> Vec<(Timestamp, T)> {
        self.release(Timestamp::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn releases_in_order() {
        let mut b = ReorderBuffer::new();
        b.push(Timestamp(30), "c");
        b.push(Timestamp(10), "a");
        b.push(Timestamp(20), "b");
        let out = b.release(Timestamp(25));
        assert_eq!(out, vec![(Timestamp(10), "a"), (Timestamp(20), "b")]);
        assert_eq!(b.len(), 1);
        let rest = b.drain_all();
        assert_eq!(rest, vec![(Timestamp(30), "c")]);
        assert!(b.is_empty());
    }

    #[test]
    fn span_until_brackets_the_next_release() {
        let mut b = ReorderBuffer::new();
        assert_eq!(b.span_until(Timestamp(100)), None);
        for t in [30, 10, 20, 40] {
            b.push(Timestamp(t), t);
        }
        assert_eq!(b.span_until(Timestamp(5)), None);
        assert_eq!(b.span_until(Timestamp(10)), Some((Timestamp(10), Timestamp(10))));
        assert_eq!(b.span_until(Timestamp(35)), Some((Timestamp(10), Timestamp(30))));
        b.release(Timestamp(35));
        assert_eq!(b.span_until(Timestamp::MAX), Some((Timestamp(40), Timestamp(40))));
    }

    #[test]
    fn equal_timestamps_all_released() {
        let mut b = ReorderBuffer::new();
        b.push(Timestamp(10), 1);
        b.push(Timestamp(10), 2);
        b.push(Timestamp(10), 3);
        let out = b.release(Timestamp(10));
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn drops_elements_behind_released_watermark() {
        let mut b = ReorderBuffer::new();
        b.push(Timestamp(10), "a");
        b.release(Timestamp(15));
        assert!(!b.push(Timestamp(12), "too late"));
        assert_eq!(b.dropped_late(), 1);
        // Strictly after the watermark is fine.
        assert!(b.push(Timestamp(16), "ok"));
    }

    #[test]
    fn watermark_regression_is_ignored() {
        let mut b = ReorderBuffer::new();
        b.push(Timestamp(10), 1);
        b.push(Timestamp(20), 2);
        b.release(Timestamp(15));
        let out = b.release(Timestamp(5)); // regressed watermark
        assert!(out.is_empty());
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn interleaved_push_release_preserves_global_order() {
        let mut b = ReorderBuffer::new();
        let mut emitted = Vec::new();
        // Simulated disordered arrivals in three bursts.
        for (t, wm) in [(5i64, 0i64), (3, 0), (9, 4), (7, 6), (12, 8), (11, 10), (15, 20)] {
            b.push(Timestamp(t), t);
            for (ts, _) in b.release(Timestamp(wm)) {
                emitted.push(ts.0);
            }
        }
        for (ts, _) in b.drain_all() {
            emitted.push(ts.0);
        }
        let mut sorted = emitted.clone();
        sorted.sort_unstable();
        assert_eq!(emitted, sorted, "released order must be event-time order");
        assert_eq!(emitted.len(), 7);
    }
}
