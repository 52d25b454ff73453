//! Semantic integration of maritime data (paper §2.2 and §2.5).
//!
//! The paper's complaint: RDF stores "are not tailored to offer
//! efficient trajectory-oriented data management" and link-discovery
//! tools cannot integrate streaming with archival data in real time.
//! This crate is the trajectory-oriented semantic layer built for that
//! job:
//!
//! - [`term`] — string interning (compact `TermId`s).
//! - [`store`] — an in-memory triple store with SPO/POS/OSP indexes and
//!   optional spatio-temporal annotations per triple; this is the "live
//!   knowledge graph" that streaming enrichment writes into.
//! - [`query`] — basic-graph-pattern matching with variables plus
//!   spatio-temporal filters (time range, bounding box).
//! - [`registry`] — synthetic vessel registries with the conflicting-
//!   record structure of §4 (MarineTraffic vs Lloyd's) and conflict
//!   detection/resolution.
//! - [`link`] — link discovery across registries: blocking, string and
//!   numeric similarity, and precision/recall scoring against ground
//!   truth (the C8 experiment).
//! - [`enrich`] — streaming enrichment: fixes × zones × weather →
//!   triples, with throughput accounting.
//!
//! ## Example
//!
//! ```
//! use mda_semantics::store::Triple;
//! use mda_semantics::{Interner, TripleStore};
//!
//! let mut terms = Interner::new();
//! let mut kg = TripleStore::new();
//! let s = terms.intern("vessel:227000001");
//! let p = terms.intern("rdf:type");
//! let o = terms.intern("Tanker");
//! kg.insert(Triple { s, p, o });
//! assert!(kg.contains(&Triple { s, p, o }));
//! assert_eq!(kg.len(), 1);
//! ```

pub mod enrich;
pub mod link;
pub mod query;
pub mod registry;
pub mod store;
pub mod term;

pub use link::{discover_links, LinkConfig, LinkScore};
pub use query::{Pattern, QueryTerm};
pub use registry::{RegistryRecord, SourceId};
pub use store::{Annotation, TripleStore};
pub use term::{Interner, TermId};
