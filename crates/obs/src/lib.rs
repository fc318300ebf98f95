//! # canti-obs — observability for the canti instrument stack
//!
//! The chip this workspace reproduces is an autonomous measurement
//! instrument; this crate gives its software reproduction the on-chip
//! diagnostics the paper's hardware exposes — without compromising the
//! farm's determinism contract. All std-only:
//!
//! * [`metrics`] — a lock-cheap registry of named counters, gauges and
//!   log-linear histograms (`Arc`-shared, atomic hot paths),
//! * [`trace`] — a structured span/event tracer behind a pluggable
//!   [`trace::Collector`] (a bounded in-memory ring in-tree),
//! * [`clock`] — the injectable [`clock::ObsClock`] both ride on:
//!   deterministic [`clock::VirtualClock`] for tests and farm runs,
//!   [`clock::WallClock`] for the opt-in profiling paths only,
//!
//! and the consumption layer built on top of those emitters:
//!
//! * [`expose`] — Prometheus text-format rendering of a [`Metrics`]
//!   registry, and [`serve`] — a bounded-thread `TcpListener` server
//!   scraping it live at `/metrics` (+ `/healthz`), plus the debug
//!   routes over each serve shard's [`ServeObs`] handle,
//! * [`parse`] — the NDJSON/JSON reader inverse of [`ndjson`],
//! * [`timeline`] — deterministic per-window time series (admissions,
//!   queue depth, per-stage latency, SLO verdicts) behind
//!   `/debug/timeline`,
//! * [`requests`] — the bounded per-request debug log (trace id +
//!   latency breakdown) behind the server's `/debug/requests` route,
//! * [`analyze`] — span-tree reconstruction, per-stage aggregation,
//!   critical-path extraction and folded-stack flamegraph output over
//!   parsed traces (what the `obsctl` tool drives).
//!
//! # Determinism contract
//!
//! Telemetry is strictly additive. Instrumented code must produce
//! bit-identical numerical results with tracing enabled or disabled,
//! which this crate supports by construction: a disabled [`trace::Tracer`]
//! is a single branch, collectors never feed data back to the code under
//! observation, and no wall-clock time is read unless a [`clock::WallClock`]
//! was explicitly injected.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use canti_obs::clock::VirtualClock;
//! use canti_obs::metrics::Metrics;
//! use canti_obs::trace::{RingCollector, Tracer};
//!
//! let metrics = Arc::new(Metrics::new());
//! let ring = Arc::new(RingCollector::new(1024));
//! let clock = Arc::new(VirtualClock::new());
//! let tracer = Tracer::new(Arc::clone(&ring) as _, Arc::clone(&clock) as _);
//!
//! let span = tracer.span("solve", &[("job", 0u64.into())]);
//! clock.advance_ns(1_500);
//! metrics.histogram("solve_ns").record(span.end());
//!
//! assert_eq!(ring.events().len(), 2);
//! assert_eq!(metrics.histogram("solve_ns").snapshot().count, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod clock;
pub mod expose;
pub mod metrics;
pub mod ndjson;
pub mod parse;
pub mod requests;
pub mod serve;
pub mod timeline;
pub mod trace;

pub use analyze::{SpanNode, StageStats, Trace};
pub use clock::{ObsClock, VirtualClock, WallClock};
pub use expose::{render_prometheus, render_prometheus_sharded};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, Metrics};
pub use ndjson::JsonValue;
pub use parse::{parse_json, parse_ndjson, Json, ParseError};
pub use requests::{RequestLog, RequestRecord};
pub use serve::{Exposition, ExpositionServer, Readiness, Registry, ServeObs, SloConfig};
pub use timeline::{
    merge_timelines, SeriesId, SeriesKind, SeriesPoint, SeriesWindows, TimelineConfig,
    TimelineRecorder,
};
pub use trace::{
    trace_id, Collector, EventKind, RingCollector, SpanGuard, TraceContext, TraceEvent, Tracer,
};
