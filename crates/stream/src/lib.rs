//! In-situ stream processing substrate (paper §2.1–§2.3).
//!
//! The paper argues that general streaming engines (Storm, Spark
//! Streaming, Flink) lack the spatio-temporal primitives that moving-
//! object data needs. This crate provides a compact, single-process
//! substrate with exactly those primitives:
//!
//! - **Event time & watermarks** ([`watermark`]) — bounded out-of-
//!   orderness watermark generation, the basis of deterministic
//!   processing of delayed satellite AIS batches.
//! - **Reordering** ([`reorder`]) — buffer that releases elements in
//!   event-time order once the watermark passes them.
//! - **Parallel execution** ([`runner`]) — shard-affine worker pool
//!   (the stand-in for a distributed cluster) and one writer beside N
//!   readers.
//! - **Barrier protocol** ([`barrier`]) — leader-electing, panic-safe
//!   tick-boundary barrier for multi-writer shard-affine ingest.
//! - **Adaptive control** ([`control`]) — deterministic fast/slow-EMA
//!   controller turning event-time observables (lateness, shard skew,
//!   seal backlog, event rate) into clamped reorder-delay, seal-cadence
//!   and ring-capacity knob moves at aligned tick boundaries.
//!
//! ## Example
//!
//! ```
//! use mda_geo::Timestamp;
//! use mda_stream::{BoundedOutOfOrderness, ReorderBuffer};
//!
//! let mut wm = BoundedOutOfOrderness::new(1_000);
//! let mut buf = ReorderBuffer::new();
//! for t in [3_000i64, 1_000, 2_000] {
//!     buf.push(Timestamp(t), t);
//!     wm.observe(Timestamp(t));
//! }
//! // Watermark = max seen - delay; everything at or before it comes out sorted.
//! let released: Vec<i64> = buf.release(wm.current()).into_iter().map(|(t, _)| t.0).collect();
//! assert_eq!(released, vec![1_000, 2_000]);
//! ```

pub mod barrier;
pub mod control;
pub mod reorder;
pub mod runner;
pub mod watermark;

pub use barrier::{run_lanes, LaneRole, Shared, TickBarrier};
pub use control::{AdaptiveController, ArrivalWindow, ControlConfig, ControlGauges, Knobs};
pub use reorder::ReorderBuffer;
pub use watermark::{BoundedOutOfOrderness, SealSchedule};
