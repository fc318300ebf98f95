//! A minimal std-only HTTP exposition server: `/metrics` + `/healthz`.
//!
//! Long-running instruments (the sensor-farm service, an
//! `AutonomousInstrument` loop) need to be scrapeable without pulling an
//! async runtime into a zero-dependency crate. This server is
//! deliberately tiny: a `TcpListener`, a small **bounded** pool of worker
//! threads all blocking in `accept`, one short-lived HTTP/1.0-style
//! exchange per connection, and a graceful [`ExpositionServer::shutdown`]
//! that wakes every worker and joins it. [`ExpositionServer::bind`] is
//! its one constructor; an [`Exposition`] says what it serves.
//!
//! Routes:
//!
//! * `GET /metrics` — the [`Registry`] in Prometheus text format, content
//!   type `text/plain; version=0.0.4`: one registry as is
//!   ([`crate::expose::render_prometheus`]), or the merged per-shard
//!   view ([`crate::expose::render_prometheus_sharded`]), every series
//!   labelled `shard="<label>"`,
//! * `GET /healthz` — a JSON readiness body:
//!   `{"status":"ok","shards":N,"pool_threads":W,"draining":false}`.
//!   The shard count, pool width and live draining flag come from the
//!   attached [`Readiness`] (defaults when none was attached); while
//!   draining the status code is `503` so load balancers stop routing,
//! * `GET /debug/requests` — the attached shards' [`RequestLog`]s as
//!   NDJSON, one finished request per line (trace id + latency
//!   breakdown), sorted by global request id and tagged by shard,
//! * `GET /debug/timeline` — the attached shards' [`TimelineRecorder`]s
//!   as fixed-field NDJSON: one `timeline_config` line, then per-shard
//!   `timeline` lines tagged `"shard":"<label>"`, then the merged view
//!   tagged `"shard":"merged"` ([`timeline::merge_timelines`]). The SLO
//!   verdicts are two of its series, [`SLO_GOOD`] and [`SLO_BREACHED`],
//! * anything else — `404`.
//!
//! Every response — including `404` / `405` / `503` errors — carries
//! `Content-Length` and `Connection: close`, so clients never have to
//! sniff for the end of the body.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use canti_obs::serve::{Exposition, ExpositionServer, Registry};
//! use canti_obs::Metrics;
//!
//! let metrics = Arc::new(Metrics::new());
//! metrics.counter("up").inc();
//! let exposition = Exposition::new(Registry::Single(Arc::clone(&metrics)));
//! let server = ExpositionServer::bind("127.0.0.1:0", exposition).unwrap();
//! let body = server.scrape("/metrics").unwrap();
//! assert!(body.contains("up_total 1"));
//! server.shutdown();
//! ```

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::expose::{render_prometheus, render_prometheus_sharded};
use crate::metrics::Metrics;
use crate::ndjson;
use crate::requests::RequestLog;
use crate::timeline::{self, TimelineRecorder};

/// Default per-connection I/O timeout: a stalled scraper must not pin a
/// worker (see [`Exposition::io_timeout`] to tune it).
const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(5);

/// What a `/metrics` scrape renders: one registry, or several labelled
/// by shard and merged into a single exposition.
#[derive(Debug)]
pub enum Registry {
    /// One registry, its series unlabelled.
    Single(Arc<Metrics>),
    /// `(shard label, registry)` pairs, every series tagged
    /// `shard="<label>"`; shard order fixes the series order.
    Sharded(Vec<(String, Arc<Metrics>)>),
}

impl Registry {
    fn render(&self) -> String {
        match self {
            Self::Single(metrics) => render_prometheus(metrics),
            Self::Sharded(sources) => render_prometheus_sharded(sources),
        }
    }
}

/// What `/healthz` reports about the instrument behind the server.
#[derive(Clone)]
pub struct Readiness {
    /// Serve shards behind this endpoint.
    pub shards: usize,
    /// Farm worker threads per shard pool.
    pub pool_threads: usize,
    /// Live draining flag — flipped by the serve layer at shutdown so
    /// scrapers see `"status":"draining"` before the listener goes away.
    pub draining: Arc<AtomicBool>,
    /// Live per-shard health labels (e.g. `"healthy"`, `"down"`), read
    /// at every scrape. When present the body gains a `"shard_health"`
    /// array in shard order; `None` keeps the legacy body. A closure
    /// rather than a snapshot so this crate needs no dependency on the
    /// serve layer's health type.
    pub shard_health: Option<Arc<dyn Fn() -> Vec<&'static str> + Send + Sync>>,
    /// Live result-cache counters in fixed order
    /// `[hits, misses, insertions, evictions, entries]`, read at every
    /// scrape. When present the body gains a `"cache"` object; `None`
    /// (the default, and the only option when the serve layer has
    /// caching off) keeps the legacy body. A closure for the same reason
    /// as `shard_health`: no dependency on the serve layer's stats type.
    pub cache: Option<Arc<dyn Fn() -> [u64; 5] + Send + Sync>>,
}

impl std::fmt::Debug for Readiness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Readiness")
            .field("shards", &self.shards)
            .field("pool_threads", &self.pool_threads)
            .field("draining", &self.draining)
            .field("shard_health", &self.shard_health.as_ref().map(|p| p()))
            .field("cache", &self.cache.as_ref().map(|p| p()))
            .finish()
    }
}

impl Default for Readiness {
    fn default() -> Self {
        Self {
            shards: 1,
            pool_threads: 0,
            draining: Arc::new(AtomicBool::new(false)),
            shard_health: None,
            cache: None,
        }
    }
}

/// The latency objective a serve shard scores every finished request
/// against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloConfig {
    /// A request answered within this many ns counts as good; a slower
    /// one, and one that got no answer, burns error budget.
    pub objective_ns: u64,
}

impl Default for SloConfig {
    fn default() -> Self {
        Self {
            objective_ns: 50_000_000, // 50 ms
        }
    }
}

/// Timeline series holding the requests that met the objective.
pub const SLO_GOOD: &str = "slo.good";
/// Timeline series holding the requests that breached it.
pub const SLO_BREACHED: &str = "slo.breached";

/// One serve shard's observability handles: the objective it scores
/// against, its finished-request log and its timeline, which also
/// holds the SLO verdicts. The serve layer builds one per observed
/// shard; an [`Exposition`] serves a labelled list of them.
#[derive(Debug, Clone)]
pub struct ServeObs {
    /// The latency objective.
    pub slo: SloConfig,
    /// The bounded log behind `/debug/requests`.
    pub requests: Arc<RequestLog>,
    /// The per-window series behind `/debug/timeline`, SLO verdicts
    /// included.
    pub timeline: Arc<TimelineRecorder>,
}

/// Everything an [`ExpositionServer`] serves, and the pool serving it.
/// Only the registry is required: [`Self::new`] leaves the debug routes
/// empty and `/healthz` on its defaults.
#[derive(Debug)]
pub struct Exposition {
    /// The registries behind `/metrics`.
    pub registry: Registry,
    /// `(shard label, handles)` pairs behind `/debug/requests` and
    /// `/debug/timeline`, in shard order.
    pub shards: Vec<(String, ServeObs)>,
    /// The `/healthz` readiness source (defaults used when `None`).
    pub readiness: Option<Readiness>,
    /// Worker threads, clamped to ≥ 1. The pool bounds concurrency: at
    /// most this many connections are ever being served, everything
    /// else queues in the listener backlog.
    pub workers: usize,
    /// Per-connection read / write timeout, clamped to ≥ 1 ms (the OS
    /// rejects zero). A client that connects and then goes silent, or
    /// stops reading the response, releases its worker after this long
    /// instead of pinning it forever.
    pub io_timeout: Duration,
}

impl Exposition {
    /// `registry` alone, served by 2 workers with a 5 s I/O timeout.
    #[must_use]
    pub fn new(registry: Registry) -> Self {
        Self {
            registry,
            shards: Vec::new(),
            readiness: None,
            workers: 2,
            io_timeout: DEFAULT_IO_TIMEOUT,
        }
    }
}

struct Shared {
    exposition: Exposition,
    stop: AtomicBool,
    requests: AtomicU64,
}

/// A running `/metrics` + `/healthz` endpoint on a bounded thread pool.
pub struct ExpositionServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ExpositionServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExpositionServer")
            .field("addr", &self.addr)
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl ExpositionServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving `exposition` on its worker pool.
    ///
    /// # Errors
    ///
    /// Propagates bind / clone failures.
    pub fn bind(addr: &str, mut exposition: Exposition) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        exposition.io_timeout = exposition.io_timeout.max(Duration::from_millis(1));
        let workers = exposition.workers.max(1);
        let shared = Arc::new(Shared {
            exposition,
            stop: AtomicBool::new(false),
            requests: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|i| {
                let listener = listener.try_clone()?;
                let shared = Arc::clone(&shared);
                Ok(std::thread::Builder::new()
                    .name(format!("obs-serve-{i}"))
                    .spawn(move || worker_loop(&listener, &shared))
                    .expect("spawn exposition worker"))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(Self {
            addr,
            shared,
            workers: handles,
        })
    }

    /// The bound address (useful with port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The per-connection I/O timeout workers apply to accepted
    /// connections.
    #[must_use]
    pub fn io_timeout(&self) -> Duration {
        self.shared.exposition.io_timeout
    }

    /// Requests served so far (any route).
    #[must_use]
    pub fn requests_served(&self) -> u64 {
        self.shared.requests.load(Ordering::Relaxed)
    }

    /// Performs a loopback GET against the running server and returns
    /// the response body — a self-scrape, used by examples and tests.
    ///
    /// # Errors
    ///
    /// Propagates connection / read failures, and maps non-200 statuses
    /// to `ErrorKind::Other`.
    pub fn scrape(&self, path: &str) -> std::io::Result<String> {
        let (head, body) = self.scrape_response(path)?;
        if head.starts_with("HTTP/1.0 200") {
            Ok(body)
        } else {
            Err(std::io::Error::other(format!(
                "scrape {path}: {}",
                head.lines().next().unwrap_or("no status")
            )))
        }
    }

    /// [`Self::scrape`] without the 200-only filter: returns the raw
    /// `(head, body)` split, where `head` is the status line plus
    /// headers. Lets callers inspect non-200 responses (a draining
    /// `/healthz` answers `503` with a JSON body).
    ///
    /// # Errors
    ///
    /// Propagates connection / read failures and malformed responses.
    pub fn scrape_response(&self, path: &str) -> std::io::Result<(String, String)> {
        let mut stream = TcpStream::connect(self.addr)?;
        stream.set_read_timeout(Some(DEFAULT_IO_TIMEOUT))?;
        write!(stream, "GET {path} HTTP/1.0\r\nHost: canti\r\n\r\n")?;
        let mut response = String::new();
        stream.read_to_string(&mut response)?;
        let (head, body) = response
            .split_once("\r\n\r\n")
            .ok_or_else(|| std::io::Error::other("malformed http response"))?;
        Ok((head.to_owned(), body.to_owned()))
    }

    /// Stops accepting, wakes every worker and joins the pool. In-flight
    /// responses finish first (graceful drain).
    pub fn shutdown(self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // wake each worker blocked in accept() with a throwaway connection
        for _ in &self.workers {
            let _ = TcpStream::connect(self.addr);
        }
        for handle in self.workers {
            let _ = handle.join();
        }
    }
}

fn worker_loop(listener: &TcpListener, shared: &Shared) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(_) if shared.stop.load(Ordering::SeqCst) => return,
            Err(_) => continue,
        };
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        // telemetry must never take the instrument down with it
        let _ = handle_connection(stream, shared);
    }
}

fn handle_connection(stream: TcpStream, shared: &Shared) -> std::io::Result<()> {
    let exposition = &shared.exposition;
    stream.set_read_timeout(Some(exposition.io_timeout))?;
    stream.set_write_timeout(Some(exposition.io_timeout))?;
    let mut reader = BufReader::new(stream);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // drain headers so well-behaved clients see a clean close
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 || header.trim().is_empty() {
            break;
        }
    }

    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    shared.requests.fetch_add(1, Ordering::Relaxed);

    let (status, content_type, body) = match (method, path) {
        ("GET" | "HEAD", "/metrics") => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            exposition.registry.render(),
        ),
        ("GET" | "HEAD", "/healthz" | "/health") => {
            let draining = exposition
                .readiness
                .as_ref()
                .is_some_and(|r| r.draining.load(Ordering::SeqCst));
            (
                // a draining instrument is not ready: load balancers key
                // off the status code, humans off the JSON body
                if draining {
                    "503 Service Unavailable"
                } else {
                    "200 OK"
                },
                "application/json; charset=utf-8",
                render_healthz(exposition),
            )
        }
        ("GET" | "HEAD", "/debug/requests") => (
            "200 OK",
            "application/x-ndjson; charset=utf-8",
            render_debug_requests(exposition),
        ),
        ("GET" | "HEAD", "/debug/timeline") => (
            "200 OK",
            "application/x-ndjson; charset=utf-8",
            render_debug_timeline(exposition),
        ),
        ("GET" | "HEAD", _) => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found\n".to_owned(),
        ),
        _ => (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "method not allowed\n".to_owned(),
        ),
    };

    let mut stream = reader.into_inner();
    write!(
        stream,
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    if method != "HEAD" {
        stream.write_all(body.as_bytes())?;
    }
    stream.flush()
}

/// The `/healthz` JSON readiness body. Field order is fixed so golden
/// tests can pin the bytes.
fn render_healthz(exposition: &Exposition) -> String {
    let default_shards = match &exposition.registry {
        Registry::Single(_) => 1,
        Registry::Sharded(sources) => sources.len(),
    };
    let (shards, pool_threads, draining, health, cache) = match &exposition.readiness {
        Some(r) => (
            r.shards,
            r.pool_threads,
            r.draining.load(Ordering::SeqCst),
            r.shard_health.as_ref().map(|p| p()),
            r.cache.as_ref().map(|p| p()),
        ),
        None => (default_shards, 0, false, None, None),
    };
    let status = if draining { "draining" } else { "ok" };
    let health = match health {
        Some(labels) => {
            let quoted: Vec<String> = labels.iter().map(|l| ndjson::escape(l)).collect();
            format!(",\"shard_health\":[{}]", quoted.join(","))
        }
        None => String::new(),
    };
    let cache = match cache {
        Some([hits, misses, insertions, evictions, entries]) => format!(
            ",\"cache\":{{\"hits\":{hits},\"misses\":{misses},\
             \"insertions\":{insertions},\"evictions\":{evictions},\
             \"entries\":{entries}}}"
        ),
        None => String::new(),
    };
    format!(
        "{{\"status\":\"{status}\",\"shards\":{shards},\
         \"pool_threads\":{pool_threads},\"draining\":{draining}{health}{cache}}}\n"
    )
}

/// The `/debug/requests` NDJSON body: every attached log's records,
/// tagged with their shard label and sorted by global request id.
fn render_debug_requests(exposition: &Exposition) -> String {
    let mut rows: Vec<(u64, String)> = Vec::new();
    for (label, obs) in &exposition.shards {
        for r in obs.requests.records() {
            let json = r.to_json();
            // splice the shard label in as the first field
            let shard = ndjson::escape(label);
            rows.push((r.request, format!("{{\"shard\":{shard},{}", &json[1..])));
        }
    }
    rows.sort();
    let mut out = String::new();
    for (_, line) in rows {
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// The `/debug/timeline` NDJSON body: the shared window policy, every
/// shard's per-window points tagged `"shard":"<label>"`, then the merged
/// view tagged `"shard":"merged"`. Field order is fixed (see
/// [`timeline::point_line`]) so golden tests can pin the bytes.
fn render_debug_timeline(exposition: &Exposition) -> String {
    let Some((_, first)) = exposition.shards.first() else {
        return String::new();
    };
    let config = first.timeline.config();
    let width = config.width();
    let mut out = timeline::config_line(config);
    out.push('\n');
    let mut per_shard = Vec::with_capacity(exposition.shards.len());
    for (label, obs) in &exposition.shards {
        let snapshot = obs.timeline.snapshot();
        for series in &snapshot {
            for p in &series.points {
                out.push_str(&timeline::point_line(
                    Some(label),
                    &series.name,
                    series.kind,
                    width,
                    p,
                ));
                out.push('\n');
            }
        }
        per_shard.push(snapshot);
    }
    for series in timeline::merge_timelines(&per_shard) {
        for p in &series.points {
            out.push_str(&timeline::point_line(
                Some("merged"),
                &series.name,
                series.kind,
                width,
                p,
            ));
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::TimelineConfig;

    /// `metrics` alone, on the default pool.
    fn single(metrics: Metrics) -> Exposition {
        Exposition::new(Registry::Single(Arc::new(metrics)))
    }

    #[test]
    fn binds_ephemeral_and_shuts_down() {
        let server = ExpositionServer::bind("127.0.0.1:0", single(Metrics::new())).unwrap();
        assert_ne!(server.local_addr().port(), 0);
        server.shutdown();
    }

    /// A client that connects and then hangs must not pin the worker:
    /// with a single worker and a short timeout, a real scrape issued
    /// behind the hung connection still completes once the read times
    /// out and frees the worker.
    #[test]
    fn hung_client_releases_the_worker_after_the_io_timeout() {
        let metrics = Arc::new(Metrics::new());
        metrics.counter("alive").inc();
        let server = ExpositionServer::bind(
            "127.0.0.1:0",
            Exposition {
                workers: 1,
                io_timeout: Duration::from_millis(50),
                ..Exposition::new(Registry::Single(metrics))
            },
        )
        .unwrap();
        assert_eq!(server.io_timeout(), Duration::from_millis(50));

        // connect and send nothing — the worker blocks in read_line
        let hung = TcpStream::connect(server.local_addr()).unwrap();

        let started = std::time::Instant::now();
        let body = server.scrape("/metrics").unwrap();
        assert!(body.contains("alive_total 1"), "{body}");
        assert!(
            started.elapsed() < Duration::from_secs(4),
            "the 50 ms timeout, not the 5 s default, must free the worker \
             (took {:?})",
            started.elapsed()
        );
        drop(hung);
        server.shutdown();
    }

    #[test]
    fn sharded_bind_serves_the_merged_labelled_view() {
        let s0 = Arc::new(Metrics::new());
        s0.counter("serve.admitted").add(3);
        let s1 = Arc::new(Metrics::new());
        s1.counter("serve.admitted").add(4);
        let server = ExpositionServer::bind(
            "127.0.0.1:0",
            Exposition::new(Registry::Sharded(vec![
                ("0".to_owned(), s0),
                ("1".to_owned(), s1),
            ])),
        )
        .unwrap();
        let body = server.scrape("/metrics").unwrap();
        assert!(
            body.contains("serve_admitted_total{shard=\"0\"} 3"),
            "{body}"
        );
        assert!(
            body.contains("serve_admitted_total{shard=\"1\"} 4"),
            "{body}"
        );
        assert_eq!(
            body.matches("# TYPE serve_admitted_total counter").count(),
            1,
            "{body}"
        );
        let health = server.scrape("/healthz").unwrap();
        assert_eq!(
            health, "{\"status\":\"ok\",\"shards\":2,\"pool_threads\":0,\"draining\":false}\n",
            "without an attached Readiness the shard count comes from the registry"
        );
        server.shutdown();
    }

    /// One shard's handles over `window_ns`-wide windows, `max_windows`
    /// retained, scored against a 10 ns objective.
    fn shard_obs(window_ns: u64, max_windows: usize) -> ServeObs {
        ServeObs {
            slo: SloConfig { objective_ns: 10 },
            requests: Arc::new(RequestLog::new(16)),
            timeline: Arc::new(TimelineRecorder::new(TimelineConfig {
                window_ns,
                max_windows,
            })),
        }
    }

    /// Scores one request on `obs` at `t_ns`, as the serve layer does.
    fn verdict(obs: &ServeObs, good: bool, t_ns: u64) {
        let series = if good { SLO_GOOD } else { SLO_BREACHED };
        obs.timeline.record_delta(series, 1, t_ns);
    }

    #[test]
    fn debug_routes_serve_requests_and_readiness() {
        use crate::requests::RequestRecord;

        let metrics = Arc::new(Metrics::new());
        let obs = shard_obs(100, 8);
        verdict(&obs, true, 0);
        verdict(&obs, false, 120);
        obs.requests.push(RequestRecord {
            request: 3,
            trace: crate::trace_id(3),
            outcome: "ok",
            batch: Some(0),
            latency_ns: 5,
            queue_ns: 5,
            form_ns: 0,
            exec_ns: 0,
            respond_ns: 0,
            finished_ns: 0,
        });
        let draining = Arc::new(AtomicBool::new(false));
        let server = ExpositionServer::bind(
            "127.0.0.1:0",
            Exposition {
                shards: vec![("0".to_owned(), obs)],
                readiness: Some(Readiness {
                    shards: 1,
                    pool_threads: 4,
                    draining: Arc::clone(&draining),
                    shard_health: None,
                    cache: None,
                }),
                ..Exposition::new(Registry::Single(metrics))
            },
        )
        .unwrap();

        let health = server.scrape("/healthz").unwrap();
        assert_eq!(
            health,
            "{\"status\":\"ok\",\"shards\":1,\"pool_threads\":4,\"draining\":false}\n"
        );
        draining.store(true, Ordering::SeqCst);
        let (head, health) = server.scrape_response("/healthz").unwrap();
        assert!(head.starts_with("HTTP/1.0 503"), "{head}");
        assert!(health.contains("\"status\":\"draining\""), "{health}");
        assert!(health.contains("\"draining\":true"), "{health}");
        draining.store(false, Ordering::SeqCst);

        let requests = server.scrape("/debug/requests").unwrap();
        assert!(
            requests.starts_with("{\"shard\":\"0\",\"request\":3,"),
            "{requests}"
        );
        assert!(requests.contains("\"queue_ns\":5"), "{requests}");

        // the SLO verdicts are timeline series; they have no route of
        // their own
        let timeline = server.scrape("/debug/timeline").unwrap();
        assert!(
            timeline.contains(
                "{\"record\":\"timeline\",\"shard\":\"merged\",\"series\":\"slo.breached\",\
                 \"kind\":\"delta\",\"window\":1,"
            ),
            "{timeline}"
        );
        let err = server.scrape("/debug/slo").unwrap_err();
        assert!(err.to_string().contains("404"), "{err}");
        server.shutdown();
    }

    #[test]
    fn healthz_renders_live_shard_health_when_provided() {
        use std::sync::atomic::AtomicU8;
        // the provider reads live state at every scrape: flip one shard
        // down between scrapes and the body must follow
        let cell = Arc::new(AtomicU8::new(0));
        let provider = {
            let cell = Arc::clone(&cell);
            move || {
                vec![
                    "healthy",
                    if cell.load(Ordering::SeqCst) == 0 {
                        "healthy"
                    } else {
                        "down"
                    },
                ]
            }
        };
        let server = ExpositionServer::bind(
            "127.0.0.1:0",
            Exposition {
                readiness: Some(Readiness {
                    shards: 2,
                    pool_threads: 1,
                    shard_health: Some(Arc::new(provider)),
                    ..Readiness::default()
                }),
                ..single(Metrics::new())
            },
        )
        .unwrap();

        let health = server.scrape("/healthz").unwrap();
        assert_eq!(
            health,
            "{\"status\":\"ok\",\"shards\":2,\"pool_threads\":1,\
             \"draining\":false,\"shard_health\":[\"healthy\",\"healthy\"]}\n"
        );
        cell.store(1, Ordering::SeqCst);
        let health = server.scrape("/healthz").unwrap();
        assert!(
            health.contains("\"shard_health\":[\"healthy\",\"down\"]"),
            "{health}"
        );
        server.shutdown();
    }

    #[test]
    fn healthz_renders_cache_stats_when_provided() {
        use std::sync::atomic::AtomicU64;
        // the provider reads live counters at every scrape
        let hits = Arc::new(AtomicU64::new(0));
        let provider = {
            let hits = Arc::clone(&hits);
            move || [hits.load(Ordering::SeqCst), 2, 2, 1, 1]
        };
        let server = ExpositionServer::bind(
            "127.0.0.1:0",
            Exposition {
                readiness: Some(Readiness {
                    shards: 1,
                    pool_threads: 1,
                    cache: Some(Arc::new(provider)),
                    ..Readiness::default()
                }),
                ..single(Metrics::new())
            },
        )
        .unwrap();

        let health = server.scrape("/healthz").unwrap();
        assert_eq!(
            health,
            "{\"status\":\"ok\",\"shards\":1,\"pool_threads\":1,\"draining\":false,\
             \"cache\":{\"hits\":0,\"misses\":2,\"insertions\":2,\"evictions\":1,\"entries\":1}}\n"
        );
        hits.store(7, Ordering::SeqCst);
        let health = server.scrape("/healthz").unwrap();
        assert!(health.contains("\"cache\":{\"hits\":7,"), "{health}");
        server.shutdown();
    }

    #[test]
    fn unknown_route_is_404_and_bad_method_405() {
        let server = ExpositionServer::bind("127.0.0.1:0", single(Metrics::new())).unwrap();
        let err = server.scrape("/nope").unwrap_err();
        assert!(err.to_string().contains("404"), "{err}");

        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        write!(stream, "POST /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.0 405"), "{response}");
        server.shutdown();
    }

    /// 404 / 405 / 503 responses carry `Content-Length` and
    /// `Connection: close` like every 200 does — error bodies must be
    /// framed just as unambiguously.
    #[test]
    fn error_responses_carry_length_and_close_headers() {
        let draining = Arc::new(AtomicBool::new(true));
        let server = ExpositionServer::bind(
            "127.0.0.1:0",
            Exposition {
                readiness: Some(Readiness {
                    shards: 1,
                    pool_threads: 0,
                    draining: Arc::clone(&draining),
                    shard_health: None,
                    cache: None,
                }),
                ..single(Metrics::new())
            },
        )
        .unwrap();

        let assert_framed = |head: &str, body: &str, status: &str| {
            assert!(head.starts_with(&format!("HTTP/1.0 {status}")), "{head}");
            assert!(
                head.contains(&format!("Content-Length: {}", body.len())),
                "{head}"
            );
            assert!(head.contains("Connection: close"), "{head}");
            assert!(!body.is_empty(), "error responses carry a body");
        };

        let (head, body) = server.scrape_response("/nope").unwrap();
        assert_framed(&head, &body, "404 Not Found");

        let (head, body) = server.scrape_response("/healthz").unwrap();
        assert_framed(&head, &body, "503 Service Unavailable");

        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        write!(stream, "POST /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (head, body) = response.split_once("\r\n\r\n").unwrap();
        assert_framed(head, body, "405 Method Not Allowed");
        server.shutdown();
    }

    /// A label is caller-supplied text: every JSON route escapes it, so
    /// a quote and a backslash parse back unchanged.
    #[test]
    fn json_routes_escape_a_label_with_a_quote() {
        use crate::parse::{parse_json, parse_ndjson};
        use crate::requests::RequestRecord;

        const LABEL: &str = "a\"b\\c";
        let obs = shard_obs(100, 8);
        obs.timeline.record_delta("serve.admitted", 1, 50);
        obs.requests.push(RequestRecord {
            request: 1,
            trace: crate::trace_id(1),
            outcome: "ok",
            batch: Some(0),
            latency_ns: 5,
            queue_ns: 5,
            form_ns: 0,
            exec_ns: 0,
            respond_ns: 0,
            finished_ns: 0,
        });
        let server = ExpositionServer::bind(
            "127.0.0.1:0",
            Exposition {
                shards: vec![(LABEL.to_owned(), obs)],
                readiness: Some(Readiness {
                    shards: 1,
                    shard_health: Some(Arc::new(|| vec![LABEL])),
                    ..Readiness::default()
                }),
                ..single(Metrics::new())
            },
        )
        .unwrap();

        let shard_of = |doc: &crate::parse::Json| doc.get("shard")?.as_str().map(str::to_owned);
        let requests = server.scrape("/debug/requests").unwrap();
        let docs = parse_ndjson(&requests).unwrap_or_else(|e| panic!("{e}: {requests}"));
        assert_eq!(docs.len(), 1, "{requests}");
        assert_eq!(shard_of(&docs[0]).as_deref(), Some(LABEL), "{requests}");

        let timeline = server.scrape("/debug/timeline").unwrap();
        let docs = parse_ndjson(&timeline).unwrap_or_else(|e| panic!("{e}: {timeline}"));
        let shards: Vec<Option<String>> = docs.iter().skip(1).map(shard_of).collect();
        assert_eq!(
            shards,
            vec![Some(LABEL.to_owned()), Some("merged".to_owned())],
            "{timeline}"
        );

        let health = server.scrape("/healthz").unwrap();
        let doc = parse_json(health.trim_end()).unwrap_or_else(|e| panic!("{e}: {health}"));
        let labels: Vec<&str> = doc
            .get("shard_health")
            .and_then(crate::parse::Json::as_array)
            .expect("a shard_health array")
            .iter()
            .filter_map(crate::parse::Json::as_str)
            .collect();
        assert_eq!(labels, vec![LABEL], "{health}");
        server.shutdown();
    }

    #[test]
    fn debug_timeline_serves_per_shard_then_merged_ndjson() {
        let s0 = shard_obs(100, 8);
        s0.timeline.record_delta("serve.admitted", 1, 50);
        let s1 = shard_obs(100, 8);
        s1.timeline.record_delta("serve.admitted", 1, 150);
        let server = ExpositionServer::bind(
            "127.0.0.1:0",
            Exposition {
                shards: vec![("0".to_owned(), s0), ("1".to_owned(), s1)],
                ..single(Metrics::new())
            },
        )
        .unwrap();

        let body = server.scrape("/debug/timeline").unwrap();
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 5, "{body}");
        assert_eq!(
            lines[0],
            "{\"record\":\"timeline_config\",\"window_ns\":100,\"max_windows\":8}"
        );
        assert!(
            lines[1].starts_with("{\"record\":\"timeline\",\"shard\":\"0\","),
            "{body}"
        );
        assert!(
            lines[2].starts_with("{\"record\":\"timeline\",\"shard\":\"1\","),
            "{body}"
        );
        assert_eq!(
            lines[3],
            "{\"record\":\"timeline\",\"shard\":\"merged\",\"series\":\"serve.admitted\",\
             \"kind\":\"delta\",\"window\":0,\"t_ns\":0,\"count\":1,\"sum\":1,\"min\":1,\"max\":1}"
        );
        assert!(
            lines[4].contains("\"shard\":\"merged\"") && lines[4].contains("\"window\":1"),
            "{body}"
        );
        server.shutdown();
    }
}
