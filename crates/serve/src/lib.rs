//! `canti-serve`: a batching request-serving layer over the sensor farm.
//!
//! The paper's endpoint is a single-chip instrument whose readout is
//! consumed by an external system; at array scale (many cantilevers,
//! many concurrent assays) that consumer becomes a *service*: concurrent
//! assay requests arrive independently and must be admitted, coalesced
//! into efficient farm batches, and answered — or refused — predictably.
//! This crate is that front end, std-only like the rest of the
//! workspace:
//!
//! * **Bounded admission** — each shard's queue holds at most
//!   [`ServeConfig::queue_capacity`] waiting requests; submissions past
//!   that are rejected immediately with an explicit
//!   [`RejectReason::QueueFull`] instead of queueing unboundedly
//!   (backpressure by refusal, not by latency).
//! * **Micro-batching** — queued requests are coalesced into a single
//!   [`canti_farm::Farm`] batch when either the size threshold
//!   ([`ServeConfig::max_batch`]) is reached or the oldest waiting
//!   request has lingered for [`ServeConfig::linger_ns`]. Both decisions
//!   read the injected [`canti_obs::ObsClock`], never the OS clock.
//! * **Per-request deadlines** — a request still waiting when its
//!   deadline passes is answered [`Disposition::Expired`] rather than
//!   occupying a batch slot it can no longer use.
//! * **Graceful drain** — shutdown stops admitting (subsequent
//!   submissions get [`RejectReason::Draining`]), flushes everything
//!   still queued as final batches, fulfils every outstanding ticket and
//!   only then joins the batcher thread.
//!
//! # One state machine, two drivers
//!
//! [`ShardedEngine`] — routing, failover and restart over one
//! crate-internal engine per shard — is the only serve state machine,
//! and the only two ways to drive it are:
//!
//! * **pumped** — [`ShardedEngine`] itself: callers submit and
//!   [`ShardedEngine::pump`] explicitly, which runs each shard's pass
//!   (form, execute, land) in a row. This is how the scripted
//!   determinism tests drive it; one shard is the plain single-queue
//!   case.
//! * **threaded** — [`ShardedService`] runs the same machine on the
//!   wall clock: one lock around the engine, one batcher thread per
//!   shard executing batches with that lock released, and blocking
//!   [`ShardTicket`]s for concurrent callers.
//!
//! Every request has one id: the global id [`ShardedEngine`] allocates
//! at admission. Its shard's queue, spans, request log, batch log and
//! response, and the service's ticket table, all key on it.
//!
//! # Determinism contract
//!
//! With a [`canti_obs::VirtualClock`] and a scripted arrival sequence,
//! the batches formed (membership, trigger, seed), every rejection and
//! expiry, and every report payload are **bit-identical at any farm
//! worker count**: batch formation is a pure function of
//! `(config, arrival script)` decided on one thread, and batch execution
//! inherits the farm's own worker-count-invariance. `tests/
//! serve_determinism.rs` pins this the same way `tests/
//! farm_determinism.rs` pins the farm.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use canti_obs::VirtualClock;
//! use canti_farm::{JobSpec, ProbeMode};
//! use canti_serve::{Disposition, ServeConfig, ShardedConfig, ShardedEngine};
//!
//! let clock = Arc::new(VirtualClock::new());
//! let config = ShardedConfig {
//!     shards: 1,
//!     base: ServeConfig {
//!         max_batch: 2,
//!         ..ServeConfig::default()
//!     },
//! };
//! let mut engine = ShardedEngine::new(config, clock.clone());
//! engine.submit(JobSpec::Probe(ProbeMode::Value(1.0))).unwrap();
//! engine.submit(JobSpec::Probe(ProbeMode::Value(2.0))).unwrap();
//! // two queued requests hit the size threshold: one farm batch forms
//! let responses = engine.pump();
//! assert_eq!(responses.len(), 2);
//! assert!(matches!(responses[0].disposition, Disposition::Completed { .. }));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod engine;
mod exec;
pub mod queue;
pub mod response;
pub mod service;
pub mod shard;

pub use cache::{job_key, CacheConfig, CacheStats, JobKey, ReportCache};
pub use canti_fault::{ServeFaultEvent, ServeFaultPlan};
pub use canti_obs::{SloConfig, TimelineConfig};
pub use engine::{BatchRecord, ServeStats};
pub use queue::{BatchTrigger, RejectReason};
pub use response::{Disposition, LatencyBreakdown, ServeResponse};
pub use service::{ShardTicket, ShardedService};
pub use shard::{
    request_seed, route_failover, route_request, ShardHealth, ShardedConfig, ShardedEngine,
    SupervisorConfig,
};

/// Admission, batching and execution policy for the serving layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Maximum requests waiting for a batch; submissions past this are
    /// rejected with [`RejectReason::QueueFull`]. Clamped to ≥ 1.
    pub queue_capacity: usize,
    /// Size threshold: the batcher fires as soon as this many requests
    /// are queued. Clamped to ≥ 1.
    pub max_batch: usize,
    /// Linger deadline: a non-full batch fires once the *oldest* queued
    /// request has waited this long (on the serve clock).
    pub linger_ns: u64,
    /// Base serve seed. Each admitted request's RNG stream derives from
    /// [`shard::request_seed`] over this base and the request key, so a
    /// given arrival script replays to identical payloads — on any
    /// worker and shard count. (Batch `i` is still *recorded* with seed
    /// `batch_seed + i` in the batch log.)
    pub batch_seed: u64,
    /// Farm worker threads per batch (`0` = machine parallelism).
    pub threads: usize,
    /// SLO objective every finished request is scored against: answers
    /// by latency, while expired and failed requests always breach.
    /// Verdicts land as `slo.good` / `slo.breached` series on the
    /// [`Self::timeline`] grid: `/debug/timeline` serves them per shard
    /// and merged, like every other series.
    pub slo: SloConfig,
    /// Timeline policy: window width and retention for the per-window
    /// telemetry series (admissions, queue depth, per-stage latency, SLO
    /// verdicts) behind `/debug/timeline`. Recorded only when an
    /// observer is attached.
    pub timeline: TimelineConfig,
    /// Content-addressed result caching and in-flight coalescing policy.
    /// `None` (default) disables both, preserving pre-existing scripted
    /// traces. When set, each request's RNG stream derives from the
    /// **content hash** of its spec instead of its admission id, so
    /// identical specs yield identical payload bits — the invariant that
    /// makes cached and recomputed answers bitwise interchangeable on
    /// any shard.
    pub cache: Option<CacheConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 64,
            max_batch: 16,
            linger_ns: 1_000_000, // 1 ms
            batch_seed: 0x5E4E_2026,
            threads: 0,
            slo: SloConfig::default(),
            timeline: TimelineConfig::default(),
            cache: None,
        }
    }
}

impl ServeConfig {
    /// The effective queue capacity (configured value, at least 1).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.queue_capacity.max(1)
    }

    /// The effective batch-size threshold (configured value, at least 1).
    #[must_use]
    pub fn batch_threshold(&self) -> usize {
        self.max_batch.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_clamps_degenerate_values() {
        let z = ServeConfig {
            queue_capacity: 0,
            max_batch: 0,
            ..ServeConfig::default()
        };
        assert_eq!(z.capacity(), 1);
        assert_eq!(z.batch_threshold(), 1);
        let d = ServeConfig::default();
        assert_eq!(d.capacity(), 64);
        assert_eq!(d.batch_threshold(), 16);
    }
}
