//! Trajectory synopses: bounded-error compression (paper §2.1).
//!
//! The paper highlights that state-of-the-art synopses achieve a ~95%
//! compression ratio over AIS vessel traces, and poses the challenge of
//! "high levels of data compression without compromising the accuracy of
//! the prediction / detection components". This crate implements both
//! halves of that trade-off and the instruments to measure it:
//!
//! - [`compress`] — streaming threshold (dead-reckoning) compression: a
//!   fix is kept only when the position predicted from the last kept fix
//!   misses the observed one by more than a tolerance.
//! - [`douglas`] — offline Douglas–Peucker line simplification, the
//!   classical batch baseline the online methods are compared against.
//! - [`error`] — reconstruction error metrics (synchronized Euclidean
//!   distance) and compression accounting, which the C1 experiment
//!   sweeps to regenerate the paper's 95% claim.
//!
//! ## Example
//!
//! ```
//! use mda_geo::{Fix, Position, Timestamp};
//! use mda_synopses::compress::compress_trajectory;
//! use mda_synopses::ThresholdConfig;
//!
//! // A straight constant-speed leg: dead reckoning from the first fix
//! // predicts every later one, so the whole leg compresses to one fix.
//! let start = Fix::new(1, Timestamp::from_secs(0), Position::new(43.0, 5.0), 12.0, 90.0);
//! let fixes: Vec<Fix> = (0..30)
//!     .map(|i| {
//!         let t = Timestamp::from_secs(i * 60);
//!         Fix { t, pos: start.dead_reckon(t), ..start }
//!     })
//!     .collect();
//! let cfg = ThresholdConfig { tolerance_m: 200.0, ..Default::default() };
//! let kept = compress_trajectory(&fixes, cfg);
//! assert_eq!(kept.len(), 1, "a straight leg needs only its first fix");
//! ```

pub mod compress;
pub mod douglas;
pub mod error;

pub use compress::{ThresholdCompressor, ThresholdConfig};
pub use douglas::douglas_peucker;
pub use error::{compression_ratio, reconstruction_error, ErrorStats};
