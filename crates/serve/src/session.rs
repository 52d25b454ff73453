//! Subscription sessions: per-consumer cursors, pushed-down filters,
//! bounded send queues, and slow-consumer eviction.
//!
//! A session is **plain data** — a cursor into the event ring, an
//! `Arc`'d filter, and a bounded queue of matching events — pumped by
//! the server core, never a thread. That is what lets one core pump
//! tens of thousands of concurrent subscribers: fan-out cost is
//! O(sessions × new events) of filter checks and `Arc` bumps per pump,
//! with no per-subscriber stacks or wakeups.
//!
//! ## Loss accounting
//!
//! Three counters, three distinct meanings, all cumulative per session
//! and reported in every [`EventBatch`]:
//!
//! - `missed` — events that aged out of ring retention before the
//!   session's cursor reached them. Real loss; whether they matched
//!   the filter is unknowable.
//! - `filtered` — events examined and excluded by the filter. Not a
//!   loss; reported so `cursor = delivered + dropped + queued +
//!   filtered + missed` closes exactly.
//! - `dropped` — events that *matched* but were pushed out of the
//!   bounded queue because the consumer lagged. The queue drops
//!   oldest-first (a lagging consumer wants fresh state more than
//!   stale history), and a session whose cumulative drops cross
//!   [`SessionConfig::evict_after_dropped`] is evicted entirely.

use crate::wire::EventBatch;
use mda_events::ring::{EventFilter, FilteredPoll};
use mda_events::MaritimeEvent;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Admission-control knobs of a [`SessionRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionConfig {
    /// Most matching events queued per session; beyond this the oldest
    /// queued event is dropped (and counted).
    pub queue_capacity: usize,
    /// Cumulative drops at which a session is evicted as a slow
    /// consumer.
    pub evict_after_dropped: u64,
    /// Most concurrent sessions; subscriptions beyond this are
    /// refused.
    pub max_sessions: usize,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self { queue_capacity: 256, evict_after_dropped: 1024, max_sessions: 65_536 }
    }
}

/// One subscriber: cursor, filter, bounded queue, loss counters.
#[derive(Debug)]
struct Session {
    filter: Arc<EventFilter>,
    /// Next ring sequence this session has not yet examined.
    cursor: u64,
    queue: VecDeque<(u64, Arc<MaritimeEvent>)>,
    dropped: u64,
    missed: u64,
    filtered: u64,
}

/// A snapshot of one session's pump inputs, taken under the registry
/// lock and consumed against the ring *outside* it.
#[derive(Debug, Clone)]
pub struct PumpCursor {
    /// The session.
    pub session: u64,
    /// Its next unexamined ring sequence.
    pub cursor: u64,
    /// Its filter (shared, not cloned).
    pub filter: Arc<EventFilter>,
}

/// Registry gauges, for admission reporting and the server's `Debug` view.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Sessions currently live.
    pub live: usize,
    /// Sessions evicted as slow consumers over the registry lifetime.
    pub evicted: u64,
    /// Matching events dropped from bounded queues over the registry
    /// lifetime (including evicted sessions').
    pub dropped: u64,
    /// Subscriptions refused at the `max_sessions` admission bound.
    pub refused: u64,
}

/// All live sessions plus pending eviction notices.
///
/// The registry is pure bookkeeping behind one mutex; the pump
/// discipline (snapshot cursors → poll ring → apply) keeps the ring
/// lock and the registry lock from ever being held together.
#[derive(Debug, Default)]
pub struct SessionRegistry {
    sessions: BTreeMap<u64, Session>,
    /// Evicted sessions awaiting notice delivery: session → lifetime
    /// drops.
    evictions: BTreeMap<u64, u64>,
    next_id: u64,
    config: SessionConfig,
    stats: RegistryStats,
}

impl SessionRegistry {
    /// An empty registry with the given admission bounds.
    pub fn new(config: SessionConfig) -> Self {
        Self { config, ..Self::default() }
    }

    /// Open a session at `cursor` with `filter`. `None` when the
    /// registry is at its admission bound.
    pub fn subscribe(&mut self, filter: EventFilter, cursor: u64) -> Option<u64> {
        if self.sessions.len() >= self.config.max_sessions {
            self.stats.refused += 1;
            return None;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.sessions.insert(
            id,
            Session {
                filter: Arc::new(filter),
                cursor,
                queue: VecDeque::new(),
                dropped: 0,
                missed: 0,
                filtered: 0,
            },
        );
        self.stats.live = self.sessions.len();
        Some(id)
    }

    /// Close a session. `true` if it existed (live or pending
    /// eviction notice).
    pub fn unsubscribe(&mut self, session: u64) -> bool {
        let known =
            self.sessions.remove(&session).is_some() || self.evictions.remove(&session).is_some();
        self.stats.live = self.sessions.len();
        known
    }

    /// Phase 1 of the pump: snapshot every live session's cursor and
    /// filter. Cheap (`Arc` bumps), so the registry lock is held only
    /// briefly and never together with the ring lock.
    pub fn pump_cursors(&self) -> Vec<PumpCursor> {
        self.sessions
            .iter()
            .map(|(&session, s)| PumpCursor {
                session,
                cursor: s.cursor,
                filter: Arc::clone(&s.filter),
            })
            .collect()
    }

    /// Phase 3 of the pump: fold one session's poll result into its
    /// queue, dropping oldest beyond capacity and evicting the session
    /// once cumulative drops cross the bound. Polls for sessions that
    /// unsubscribed between phases are discarded silently.
    pub fn apply(&mut self, session: u64, poll: FilteredPoll) {
        let Some(s) = self.sessions.get_mut(&session) else { return };
        s.cursor = poll.cursor.next_seq();
        s.missed += poll.missed;
        s.filtered += poll.filtered;
        for entry in poll.events {
            s.queue.push_back(entry);
            if s.queue.len() > self.config.queue_capacity {
                s.queue.pop_front();
                s.dropped += 1;
                self.stats.dropped += 1;
            }
        }
        if s.dropped >= self.config.evict_after_dropped {
            let dropped = s.dropped;
            self.sessions.remove(&session);
            self.evictions.insert(session, dropped);
            self.stats.evicted += 1;
            self.stats.live = self.sessions.len();
        }
    }

    /// Drain up to `max` queued events as one batch, with the
    /// session's cumulative loss counters. `None` for unknown
    /// sessions (check [`SessionRegistry::take_eviction`] first).
    pub fn drain(&mut self, session: u64, max: usize) -> Option<EventBatch> {
        let s = self.sessions.get_mut(&session)?;
        let take = s.queue.len().min(max);
        let events = s.queue.drain(..take).map(|(seq, e)| (seq, (*e).clone())).collect();
        Some(EventBatch {
            session,
            events,
            missed: s.missed,
            filtered: s.filtered,
            dropped: s.dropped,
        })
    }

    /// Take the pending eviction notice for `session`, if any: its
    /// lifetime drop count. The notice is delivered at most once.
    pub fn take_eviction(&mut self, session: u64) -> Option<u64> {
        self.evictions.remove(&session)
    }

    /// Sessions with a pending eviction notice.
    pub fn pending_evictions(&self) -> Vec<u64> {
        self.evictions.keys().copied().collect()
    }

    /// Whether a session is currently live.
    pub fn is_live(&self, session: u64) -> bool {
        self.sessions.contains_key(&session)
    }

    /// Queued events of one live session.
    pub fn queue_len(&self, session: u64) -> Option<usize> {
        self.sessions.get(&session).map(|s| s.queue.len())
    }

    /// Registry gauges.
    pub fn stats(&self) -> RegistryStats {
        self.stats
    }

    /// The configured admission bounds.
    pub fn config(&self) -> SessionConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mda_events::ring::{EventCursor, EventRing};
    use mda_events::{EventKind, MaritimeEvent};
    use mda_geo::{Position, Timestamp};

    fn event(vessel: u32, t: i64) -> MaritimeEvent {
        MaritimeEvent {
            t: Timestamp::from_mins(t),
            vessel,
            pos: Position::new(43.0, 5.0),
            kind: EventKind::GapStart,
        }
    }

    fn pump(registry: &mut SessionRegistry, ring: &EventRing) {
        for pc in registry.pump_cursors() {
            let poll = ring.poll_shared_filtered(EventCursor::at_seq(pc.cursor), Some(&pc.filter));
            registry.apply(pc.session, poll);
        }
    }

    #[test]
    fn queue_bound_drops_oldest_and_counts_exactly() {
        let mut ring = EventRing::new(1024);
        let mut registry = SessionRegistry::new(SessionConfig {
            queue_capacity: 4,
            evict_after_dropped: u64::MAX,
            max_sessions: 16,
        });
        let id = registry.subscribe(EventFilter::for_vessels([1]), 0).unwrap();
        // 10 matching + 5 non-matching events.
        ring.extend((0..10).map(|i| event(1, i)));
        ring.extend((0..5).map(|i| event(2, i)));
        pump(&mut registry, &ring);
        let batch = registry.drain(id, usize::MAX).unwrap();
        assert_eq!(batch.dropped, 6, "10 matched, 4 fit: exactly 6 dropped");
        assert_eq!(batch.filtered, 5);
        assert_eq!(batch.missed, 0);
        assert_eq!(batch.events.len(), 4);
        // Drop-oldest: the survivors are the 4 freshest (seqs 6..=9).
        assert_eq!(batch.events.first().unwrap().0, 6);
        assert_eq!(batch.events.last().unwrap().0, 9);
    }

    #[test]
    fn slow_consumer_is_evicted_with_exact_drop_count() {
        let mut ring = EventRing::new(4096);
        let mut registry = SessionRegistry::new(SessionConfig {
            queue_capacity: 8,
            evict_after_dropped: 20,
            max_sessions: 16,
        });
        let stalled = registry.subscribe(EventFilter::all(), 0).unwrap();
        let healthy = registry.subscribe(EventFilter::all(), 0).unwrap();
        for round in 0..5 {
            ring.extend((0..8).map(|i| event(3, round * 8 + i)));
            pump(&mut registry, &ring);
            // The healthy consumer drains every pump; the stalled one never does.
            let batch = registry.drain(healthy, usize::MAX).unwrap();
            assert_eq!(batch.events.len(), 8);
            assert_eq!(batch.dropped, 0, "draining consumer never drops");
        }
        // Stalled: 8 new events displace the 8 queued every round after
        // the first, so drops run 0, 8, 16, 24 — crossing the bound of
        // 20 on the fourth round.
        assert!(!registry.is_live(stalled));
        assert_eq!(registry.take_eviction(stalled), Some(24));
        assert_eq!(registry.take_eviction(stalled), None, "notice delivered once");
        assert!(registry.is_live(healthy), "eviction is per-session");
        assert_eq!(registry.stats().evicted, 1);
    }

    #[test]
    fn admission_bound_refuses_not_breaks() {
        let mut registry = SessionRegistry::new(SessionConfig {
            queue_capacity: 4,
            evict_after_dropped: 8,
            max_sessions: 2,
        });
        assert!(registry.subscribe(EventFilter::all(), 0).is_some());
        assert!(registry.subscribe(EventFilter::all(), 0).is_some());
        assert!(registry.subscribe(EventFilter::all(), 0).is_none());
        assert_eq!(registry.stats().refused, 1);
        // An eviction or unsubscribe frees a slot.
        registry.unsubscribe(0);
        assert!(registry.subscribe(EventFilter::all(), 0).is_some());
    }

    #[test]
    fn accounting_closes_against_the_cursor() {
        // cursor = delivered + queued + dropped + filtered + missed,
        // whatever interleaving of appends and pumps produced it.
        let mut ring = EventRing::new(16);
        let mut registry = SessionRegistry::new(SessionConfig {
            queue_capacity: 8,
            evict_after_dropped: u64::MAX,
            max_sessions: 4,
        });
        let id = registry.subscribe(EventFilter::for_vessels([1]), 0).unwrap();
        let mut delivered = 0u64;
        for round in 0..6 {
            ring.extend((0..7).map(|i| event(if i % 2 == 0 { 1 } else { 2 }, round * 7 + i)));
            pump(&mut registry, &ring);
            if round % 2 == 0 {
                delivered += registry.drain(id, usize::MAX).unwrap().events.len() as u64;
            }
        }
        let batch = registry.drain(id, usize::MAX).unwrap();
        delivered += batch.events.len() as u64;
        let cursor = registry.pump_cursors().first().unwrap().cursor;
        assert_eq!(cursor, 42, "all appended events examined or missed");
        // Queue is empty after the final drain, so nothing is in flight.
        assert_eq!(registry.queue_len(id), Some(0));
        assert_eq!(delivered + batch.dropped + batch.filtered + batch.missed, cursor);
    }
}
