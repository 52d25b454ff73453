//! # maritime — maritime data integration and analysis
//!
//! A Rust reproduction of the system envisioned in *Claramunt et al.,
//! "Maritime Data Integration and Analysis: Recent Progress and Research
//! Challenges", EDBT 2017* (the datAcron architecture paper).
//!
//! This facade re-exports the workspace crates:
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`geo`] | `mda-geo` | geospatial/kinematic substrate |
//! | [`ais`] | `mda-ais` | AIS data model + AIVDM codec |
//! | [`sim`] | `mda-sim` | maritime world simulator (data substitution) |
//! | [`stream`] | `mda-stream` | event-time stream processing |
//! | [`synopses`] | `mda-synopses` | trajectory compression |
//! | [`track`] | `mda-track` | multi-source fusion & tracking |
//! | [`uncertainty`] | `mda-uncertainty` | probability intervals, open-world relations |
//! | [`events`] | `mda-events` | complex event recognition |
//! | [`semantics`] | `mda-semantics` | triple store, link discovery |
//! | [`store`] | `mda-store` | archival store, kNN over moving objects |
//! | [`forecast`] | `mda-forecast` | trajectory prediction & normalcy |
//! | [`viz`] | `mda-viz` | density rasters, pyramids, flows |
//! | [`core`] | `mda-core` | the integrated Figure-2 pipeline |
//! | [`serve`] | `mda-serve` | network serving front over the query service |
//!
//! ## Quickstart: ingest *and* query
//!
//! The pipeline is one `&mut` ingest loop; its
//! [`query_service`](mda_core::MultiWriterPipeline::query_service) hands
//! out cloneable, thread-safe read handles that answer from consistent
//! watermark-stamped snapshots — during ingest or after it.
//!
//! ```
//! use maritime::core::{MaritimePipeline, PipelineConfig};
//! use maritime::geo::{time::MINUTE, Position};
//! use maritime::sim::{Scenario, ScenarioConfig};
//!
//! // Simulate an hour of a small fleet and run the full pipeline.
//! let sim = Scenario::generate(ScenarioConfig::regional(1, 5, 60 * MINUTE));
//! let mut pipeline = MaritimePipeline::new(PipelineConfig::regional(sim.world.bounds))
//!     .with_weather(sim.weather.clone());
//! let service = pipeline.query_service(); // Clone + Send + Sync
//! let events = pipeline.run_scenario(&sim);
//!
//! // Query the served picture: all answers are watermark-stamped.
//! let snap = service.snapshot();
//! let wm = snap.watermark();
//! let near = snap.knn(Position::new(43.0, 5.0), wm, 3).value;
//! let fleet = snap.fleet();
//! println!(
//!     "{} events, {} archived vessels, {} vessels near Marseille",
//!     events.len(),
//!     fleet.archived_vessels,
//!     near.len()
//! );
//! # assert!(fleet.archived_vessels > 0);
//! ```

pub use mda_ais as ais;
pub use mda_core as core;
pub use mda_events as events;
pub use mda_forecast as forecast;
pub use mda_geo as geo;
pub use mda_semantics as semantics;
pub use mda_serve as serve;
pub use mda_sim as sim;
pub use mda_store as store;
pub use mda_stream as stream;
pub use mda_synopses as synopses;
pub use mda_track as track;
pub use mda_uncertainty as uncertainty;
pub use mda_viz as viz;

/// Convert the simulator's world zones into event-engine zones —
/// the small glue examples and tests need constantly.
pub fn zones_of_world(world: &sim::World) -> Vec<events::NamedZone> {
    world
        .zones
        .iter()
        .map(|z| events::NamedZone {
            name: z.name.clone(),
            area: z.area.clone(),
            protected: z.kind == sim::ZoneKind::ProtectedArea,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        let p = crate::geo::Position::new(43.0, 5.0);
        assert!(p.is_valid());
        let world = crate::sim::World::gulf_of_lion();
        let zones = crate::zones_of_world(&world);
        assert_eq!(zones.len(), world.zones.len());
        assert!(zones.iter().any(|z| z.protected));
    }
}
