//! Uncertainty representation and reasoning (paper §4).
//!
//! The paper argues that a maritime decision-support system must handle
//! "the different nature of uncertainty (probabilistic, subjective,
//! vague, ambiguous...)" and singles out three needs: probabilistic
//! databases, *open-world* query answering (27% of ships go dark — what
//! is absent from the AIS database is not false), and second-order
//! uncertainty for communicating imperfect estimates faithfully.
//!
//! - [`interval`] — second-order uncertainty as probability intervals
//!   with conservative interval arithmetic.
//! - [`openworld`] — a probabilistic relation supporting closed-world
//!   *and* open-world query semantics side by side; the C3 experiment
//!   uses it to show what closed-world rendezvous queries miss.
//!
//! ## Example
//!
//! ```
//! use mda_uncertainty::ProbInterval;
//!
//! // Second-order uncertainty: the chance a vessel is dark, as an interval.
//! let dark = ProbInterval::new(0.2, 0.6);
//! let rendezvous = ProbInterval::new(0.5, 0.9);
//! let both = dark.and_frechet(&rendezvous);
//! assert!(both.lo >= 0.0 && both.hi <= dark.hi + 1e-12);
//! assert!(both.width() <= 1.0);
//! ```

pub mod interval;
pub mod openworld;

pub use interval::ProbInterval;
pub use openworld::{OpenWorldRelation, ProbTuple};
