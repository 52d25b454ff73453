//! Visual analytics substrate (paper §3.2).
//!
//! No widgets — the computational layer every maritime VA tool needs:
//!
//! - [`raster`] — density rasters over a region (the data behind
//!   Figure 1's coverage map).
//! - [`render`] — ASCII and PPM renderings of rasters, so examples and
//!   experiments can *show* spatial results in a terminal or file.
//! - [`pyramid`] — multi-resolution aggregation with drill-down /
//!   zoom-in queries ("scalable spatio-temporal analytical querying" at
//!   "desired scales and levels of detail").
//! - [`flows`] — origin/destination flow aggregation between named
//!   regions (the flow-map building block).
//!
//! ## Example
//!
//! ```
//! use mda_geo::{BoundingBox, Position};
//! use mda_viz::DensityRaster;
//!
//! let mut raster = DensityRaster::new(BoundingBox::new(42.0, 4.0, 44.0, 6.0), 8, 8);
//! raster.add(Position::new(43.00, 5.00));
//! raster.add(Position::new(43.01, 5.01));
//! assert_eq!(raster.total(), 2);
//! assert!(raster.max_count() >= 1);
//! ```

pub mod flows;
pub mod pyramid;
pub mod raster;
pub mod render;

pub use flows::FlowMatrix;
pub use pyramid::AggregationPyramid;
pub use raster::DensityRaster;
pub use render::{render_ascii, render_ppm};
