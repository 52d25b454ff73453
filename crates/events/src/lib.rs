//! Maritime complex event recognition (paper §3.1).
//!
//! "The range of possible events of interest is very large, from
//! detecting vessels in distress and collisions at sea to discovering
//! illegal fishing..." This crate implements streaming detectors for
//! exactly the catalogue the paper enumerates:
//!
//! - [`event`] — the event vocabulary: kinds, severity, provenance.
//! - [`gap`] — AIS communication gaps / going dark.
//! - [`veracity`] — kinematic spoofing (teleports, impossible speeds)
//!   and identity conflicts (one MMSI in two places — cloning).
//! - [`zone`] — zone entry/exit/transit and illegal fishing in
//!   protected areas.
//! - [`loiter`] — loitering and drifting detection over sliding
//!   windows.
//! - [`proximity`] — pairwise analytics on a versioned live spatial
//!   snapshot: rendezvous (sustained close approach at sea) and
//!   collision risk (CPA/TCPA), evaluated by watermark sweeps.
//! - [`ring`] — bounded event-log retention with cursor-based
//!   subscriptions ([`ring::EventRing::poll_since`]): the hand-off
//!   point between the engine's emission and concurrent consumers.
//! - [`engine`] — the sharded [`engine::EventEngine`]: per-vessel
//!   detectors behind `observe_batch` (vessel-hash shards, shard-count
//!   invariant emission), pairwise sweeps plus TTL eviction behind
//!   `tick(watermark)`, with per-detector counters.
//!
//! All detectors consume event-time-ordered fixes (use
//! `mda-stream::ReorderBuffer` upstream; the engine additionally
//! canonicalises every batch and stale-guards its snapshots, so a
//! shuffle within the upstream watermark delay cannot change what is
//! emitted) and are deterministic.
//!
//! ## Example
//!
//! ```
//! use mda_events::{EngineConfig, EventEngine};
//! use mda_geo::{Fix, Position, Timestamp};
//!
//! let mut engine = EventEngine::new(EngineConfig::default());
//! // A ~120 km jump in one minute is kinematically impossible: spoofing.
//! let a = Fix::new(1, Timestamp::from_secs(0), Position::new(43.0, 5.0), 10.0, 90.0);
//! let b = Fix::new(1, Timestamp::from_secs(60), Position::new(44.0, 6.0), 10.0, 90.0);
//! engine.observe(&a);
//! let events = engine.observe(&b);
//! assert!(!events.is_empty(), "teleport should raise an event");
//! ```

pub mod engine;
pub mod event;
pub mod gap;
pub mod loiter;
pub mod proximity;
pub mod ring;
pub mod veracity;
pub mod zone;

pub use engine::{canonical_sort, EngineConfig, EngineLane, EngineStateStats, EventEngine};
pub use event::{EventKind, MaritimeEvent, Severity};
pub use proximity::{FleetIndex, LiveIndex};
pub use ring::{
    EventCursor, EventFilter, EventPoll, EventRing, FilteredEventPoll, FilteredPoll,
    SharedEventPoll,
};
pub use zone::NamedZone;
