//! Network serving front over the [`mda_core::QueryService`]: wire
//! protocol, filtered subscription fan-out, and a watermark-keyed
//! answer cache.
//!
//! The datAcron architecture's consumers — operator consoles, alert
//! routers, downstream analytics — do not live in the ingest process.
//! This crate is the boundary: a framed, CRC-checked wire protocol
//! ([`wire`], [`frame`]) carrying every stamped answer the query layer
//! can produce, served over real TCP ([`tcp`]) or an in-process duplex
//! pipe ([`transport::pipe`]) by the same transport-generic code path.
//!
//! ## Design
//!
//! - **Sessions, not threads, are the unit of fan-out.** A
//!   subscription session ([`session`]) is a cursor into the event
//!   ring, a pushed-down [`mda_events::ring::EventFilter`], and a
//!   bounded queue — plain data pumped centrally, so a subscriber
//!   costs a queue, not a thread.
//! - **Slow consumers are evicted, never waited on.** Queues drop
//!   oldest beyond capacity with exact per-session accounting; crossing
//!   the drop bound evicts the session. Ingest and healthy sessions
//!   never block on a stalled peer.
//! - **The answer cache is correct by construction.** Watermarks key
//!   immutable snapshots published at most once, so
//!   `(watermark, request)` determines the answer bytes for all time
//!   ([`cache`]); hits are byte-identical to recomputation.
//! - **Decode is total.** Frame and wire decoding never panic on
//!   arbitrary bytes (lint rule L2 covers both modules; the corruption
//!   battery in `tests/corruption.rs` flips and truncates every frame
//!   shape).
//!
//! ## A round trip
//!
//! ```
//! use mda_core::{MaritimePipeline, PipelineConfig};
//! use mda_geo::{BoundingBox, Fix, Position, Timestamp};
//! use mda_serve::client::ServeClient;
//! use mda_serve::server::{ServeConfig, ServeCore};
//! use mda_serve::wire::{Request, Response};
//! use std::sync::atomic::AtomicBool;
//! use std::sync::Arc;
//!
//! let bounds = BoundingBox::new(42.0, 3.0, 44.0, 6.0);
//! let mut pipeline = MaritimePipeline::new(PipelineConfig::regional(bounds));
//! let service = pipeline.query_service();
//! for i in 0..60i64 {
//!     let pos = Position::new(43.0, 5.0 + 0.002 * i as f64);
//!     pipeline.push_fix(Fix::new(1, Timestamp::from_mins(i), pos, 10.0, 90.0));
//! }
//! pipeline.finish();
//!
//! // Serve over an in-process pipe (same loop real TCP runs).
//! let core = Arc::new(ServeCore::new(service.clone(), ServeConfig::default()));
//! let shutdown = Arc::new(AtomicBool::new(false));
//! let (pipe_end, conn) = mda_serve::conn::spawn_pipe_connection(core, Arc::clone(&shutdown));
//! let mut client = ServeClient::new(pipe_end);
//!
//! let answer = client.request(&Request::Latest { id: 1 }).unwrap();
//! let Response::Latest(stamped) = answer else { panic!("wrong answer shape") };
//! assert_eq!(stamped.value, service.latest(1).value, "wire answer equals the in-process oracle");
//! drop(client); // closing the client ends the connection thread
//! conn.join().unwrap();
//! ```

pub mod cache;
// lint:allow(orphan-module): the client half of the wire protocol is
// this crate's public API for remote consumers; the oracle and fault
// batteries in tests/ drive the server through it.
pub mod client;
pub mod conn;
pub mod frame;
pub mod server;
pub mod session;
pub mod tcp;
pub mod transport;
pub mod wire;

pub use cache::{AnswerCache, CacheStats};
pub use client::{ClientError, ServeClient};
pub use conn::{serve_connection, spawn_pipe_connection, ConnExit};
pub use server::{ServeConfig, ServeCore};
pub use session::{RegistryStats, SessionConfig, SessionRegistry};
pub use tcp::{serve_tcp, TcpServer};
pub use transport::{pipe, PipeEnd, TcpTransport, Transport};
pub use wire::{
    decode_request, decode_response, encode_request, encode_response, EventBatch, Request,
    Response, WireError,
};
