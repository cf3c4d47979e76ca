//! # qplacer-service — placement as a service
//!
//! The serving layer the ROADMAP's "heavy traffic" north star asks for:
//! an event-driven TCP daemon that runs the QPlacer pipeline behind a
//! versioned JSON-lines protocol, with the production affordances the
//! batch CLI lacks:
//!
//! - **Wire protocol** ([`protocol`]) — one JSON object per line,
//!   externally tagged, client-correlated ids, explicit
//!   [`PROTOCOL_VERSION`] handshake (one version; a mismatch is a typed
//!   error).
//! - **Event-driven I/O** ([`server`]) — one reactor thread multiplexes
//!   every connection over nonblocking readiness polling (vendored
//!   `mio`), so thousands of idle connections cost buffers, not
//!   threads.
//! - **Bounded queue + backpressure** ([`queue`]) — a full queue answers
//!   `Busy` instead of stalling sockets; strict priority lanes serve
//!   latency-sensitive work first; per-tenant admission quotas keep one
//!   tenant from starving the rest; per-request deadlines expire stale
//!   work before it wastes a worker.
//! - **Content-addressed cache** ([`cache`]) — sharded LRU keyed by a
//!   stable fingerprint of (device, strategy, resolved
//!   `PipelineConfig`); identical requests never re-run the pipeline.
//! - **Durable result store** ([`store`]) — an append-only record log
//!   replayed into the cache on startup, versioned by the pipeline
//!   config hash so stale results never survive a config change.
//! - **Sharding** ([`shard`]) — client-side consistent hashing routes
//!   each job's cache key to one daemon of a fleet, with failover.
//! - **Batching** ([`server`]) — workers drain compatible jobs into one
//!   harness `ExperimentPlan` dispatch.
//! - **Persistent per-worker workspaces** — each worker owns a
//!   `PipelineWorkspace`, so steady-state serving rides the PR 2/3
//!   zero-allocation hot path.
//! - **Observability** ([`metrics`]) — queue depth, in-flight, open
//!   connections, cache hit rate, uptime, per-error-code rejections,
//!   store replay/append counters, and per-stage latency histograms
//!   (shared with `qplacer-obs`), served as a structured snapshot on
//!   `stats` and as Prometheus text on `metrics`.
//! - **Graceful shutdown** — `shutdown` drains queued and in-flight jobs
//!   before workers exit.
//!
//! # Loopback example
//!
//! ```
//! use qplacer_service::{
//!     ClientBuilder, DeviceSpec, PlaceJob, Server, ServiceConfig, Strategy,
//! };
//!
//! let server = Server::start(ServiceConfig {
//!     workers: 1,
//!     ..ServiceConfig::default() // binds 127.0.0.1:0 (ephemeral)
//! })
//! .unwrap();
//! let mut client = ClientBuilder::new(server.local_addr()).connect().unwrap();
//!
//! let job = PlaceJob::fast(DeviceSpec::Grid { width: 2, height: 2 }, Strategy::FrequencyAware);
//! let first = client.place(&job).unwrap();
//! let second = client.place(&job).unwrap();
//! assert!(!first.cached && second.cached);
//! assert_eq!(first.result, second.result); // bit-identical, cache or not
//!
//! client.shutdown().unwrap();
//! server.join(); // drains, then exits
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod metrics;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod shard;
pub mod store;

pub use cache::{cache_key, cache_key_with_content, config_fingerprint, ResultCache};
pub use client::{
    ClientBuilder, PlacedReply, ServiceClient, ServiceError, TraceDumpReply, TracePolicy,
};
pub use metrics::{
    bucket_bounds_ms, HistogramSnapshot, LatencyHistogram, MetricsSnapshot, ServiceMetrics,
};
pub use protocol::{
    ErrorCode, PlaceJob, PlacementResult, Priority, Reply, Request, PROTOCOL_VERSION,
};
pub use queue::{JobQueue, PushError, QueuedJob, ReplyPort, ReplySender};
pub use server::{Server, ServiceConfig};
pub use shard::{FleetBatch, ShardedClient};
pub use store::{store_version, DurableStore, ReplayStats};

// Re-exported so service users can build jobs without importing the
// harness crate directly.
pub use qplacer_harness::{DeviceError, DeviceSpec, Profile, Strategy};
