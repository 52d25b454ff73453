//! Experiment harness regenerating the paper's figures and quantitative
//! claims (README § "Experiments and the benchmark" lists them).
//!
//! Each module exposes `run() -> String` producing the experiment's
//! table; the `experiments` binary prints them all, and the Criterion
//! benches in `benches/` time the hot kernels. How fast the whole
//! pipeline is, wire to wire, is the `e2e` binary's answer.
//!
//! ## Example
//!
//! ```no_run
//! // Regenerate the C1 compression experiment table (takes a while).
//! println!("{}", mda_bench::c1_synopses::run());
//! ```

pub mod c1_synopses;
pub mod c2_veracity;
pub mod c3_godark;
pub mod c4_events;
pub mod c5_fusion;
pub mod c6_forecast;
pub mod c7_knn;
pub mod c8_semantics;
pub mod c9_viz;
pub mod fig1_coverage;
pub mod fig2_pipeline;
pub mod util;
