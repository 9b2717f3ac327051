//! `perpetuum-serve`: a concurrent planning & simulation daemon.
//!
//! Exposes the workspace's planning pipeline and event-driven simulator
//! over a small HTTP/1.1 JSON API — `POST /plan`, `POST /simulate`,
//! `GET /healthz`, `GET /metrics` — built entirely on `std::net` (no
//! async runtime, consistent with the workspace's vendored-dependency
//! constraint). The load-bearing pieces:
//!
//! * [`cache`] — a sharded LRU plan cache keyed by a canonical content
//!   hash, so near-duplicate `/plan` requests skip the `O(n log n)`
//!   pipeline entirely and return byte-identical schedules;
//! * [`server`] — bounded request queue with `503` + `Retry-After`
//!   backpressure, a worker pool, and a loopback-only admin listener;
//! * [`shutdown`] — signal/endpoint-triggered graceful drain: stop
//!   accepting, finish everything in flight, exit cleanly;
//! * [`session`] — a **sharded** store of stateful closed-loop telemetry
//!   sessions: each wraps one [`perpetuum_online::OnlineController`]
//!   behind its own lock (`POST /session`,
//!   `POST /session/{id}/telemetry`, `GET /session/{id}/plan`,
//!   `DELETE /session/{id}`), slots live in hash-picked shards with
//!   per-shard LRU eviction so 100k+ concurrent sessions never funnel
//!   through one lock;
//! * [`wire`] — a compact length-prefixed binary codec for telemetry
//!   frames, ingest reports, and plan summaries, negotiated via
//!   `Content-Type`/`Accept` on the batch-ingest path
//!   (`POST /telemetry/batch`);
//! * [`journal`] — a per-shard write-ahead journal (`--data-dir`):
//!   session genesis records and every accepted telemetry frame are
//!   appended before the ack, so a `kill -9` loses nothing a client was
//!   told succeeded; restart replays snapshot + WAL into a byte-identical
//!   session store;
//! * [`chaos`] — a seeded socket-level fault proxy (drops, truncation,
//!   stalls, corruption) for crash/recovery testing;
//! * [`metrics`] — Prometheus text exposition of request counts, latency
//!   histograms, cache hit rates, session/shard/eviction gauges, journal
//!   and recovery counters, and queue gauges.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod cache;
pub mod chaos;
pub mod handlers;
pub mod http;
pub mod journal;
pub mod metrics;
pub mod refine;
pub mod router;
pub mod server;
pub mod session;
pub mod shutdown;
pub mod wire;

pub use cache::{canonical_hash, PlanCache};
pub use chaos::{FaultKind, FaultProxy};
pub use handlers::{AppState, DEFAULT_SESSION_CAPACITY};
pub use journal::{EndReason, FsyncPolicy, JournalSet, RecoveryStats};
pub use metrics::Metrics;
pub use server::{start, ServerConfig, ServerHandle};
pub use session::{SessionSlot, SessionStore, DEFAULT_SHARDS, MAX_SHARDS};
pub use shutdown::{install_signal_forwarder, ShutdownSignal};
