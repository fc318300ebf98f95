//! Structured span/event tracing into a bounded ring.
//!
//! A [`Tracer`] timestamps (via the injected [`ObsClock`]) and sequences
//! [`TraceEvent`]s, then hands them to its [`RingCollector`], a bounded
//! in-memory ring (tests, live inspection); [`RingCollector::to_ndjson`]
//! writes it out as one JSON object per line (files, CI artifacts).
//!
//! Tracers are cheap to clone (an `Arc` under the hood) and
//! [`Tracer::disabled`] is a true no-op — a disabled tracer performs no
//! clock reads, no allocation and no locking, so instrumented hot paths
//! cost one branch when telemetry is off.
//!
//! # What an enabled tracer allocates
//!
//! Nothing per event, for the events the stack emits. Names are
//! `&'static str` and are borrowed, never copied, by the event and by a
//! [`SpanGuard`]. A [`TraceEvent`] holds up to [`INLINE_FIELDS`] fields
//! inline, and a static string value ([`JsonValue::Str`] built from a
//! `&'static str`) is borrowed too. Only three things reach the heap: an
//! event with more than [`INLINE_FIELDS`] fields (one block for all of
//! them), a string value built from runtime text (its own `String`), and
//! whatever the collector does with the event. A [`RingCollector`]
//! grows its buffer until it first fills and then recycles slots.

use std::fmt;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::clock::ObsClock;
use crate::ndjson::{self, JsonValue};

/// Request-scoped trace correlation: the pair of ids every span and
/// event belonging to one served request carries (`request` is the
/// global admission id, `trace` a deterministic bijection of it).
///
/// The trace id is `splitmix64(request ^ SALT)` — splitmix64 is a
/// bijection on `u64`, so distinct admission ids always get distinct
/// trace ids, and because the derivation reads nothing but the global
/// id, a request keeps the same trace id at any worker or shard count.
///
/// # Examples
///
/// ```
/// use canti_obs::trace::TraceContext;
///
/// let ctx = TraceContext::from_admission(7);
/// assert_eq!(ctx.request, 7);
/// assert_eq!(ctx, TraceContext::from_admission(7));
/// assert_ne!(ctx.trace, TraceContext::from_admission(8).trace);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TraceContext {
    /// The owning request's global admission id.
    pub request: u64,
    /// The trace id: `trace_id(request)`.
    pub trace: u64,
}

impl TraceContext {
    /// The context for global admission id `request`.
    #[must_use]
    pub fn from_admission(request: u64) -> Self {
        Self {
            request,
            trace: trace_id(request),
        }
    }

    /// The `(key, value)` pairs to stamp into a span's or event's
    /// fields: `request` then `trace`, in that order.
    #[must_use]
    pub fn fields(&self) -> [(&'static str, JsonValue); 2] {
        [
            ("request", JsonValue::U64(self.request)),
            ("trace", JsonValue::U64(self.trace)),
        ]
    }
}

/// The deterministic trace id for global admission id `request`: a
/// salted splitmix64 pass, injective over `u64` and independent of
/// worker count, shard count and wall time.
#[must_use]
pub fn trace_id(request: u64) -> u64 {
    // "trace-id" in ASCII; any fixed odd-ball salt works, it only has to
    // decorrelate trace ids from the ids and seeds they derive from
    const TRACE_SALT: u64 = 0x7472_6163_652D_6964;
    splitmix64(request ^ TRACE_SALT)
}

/// The 64-bit splitmix finalizer: a cheap, well-mixed bijection on
/// `u64`. Trace ids, shard routing, request seeds and the result
/// cache's key lanes all derive from it, so neighboring ids land on
/// distant shards, in distant RNG streams and under distant trace ids.
/// Inlined because the serving path calls it several times per request.
#[inline]
#[must_use]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What a [`TraceEvent`] marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened.
    SpanStart,
    /// A span closed (carries a `dur_ns` field).
    SpanEnd,
    /// An instantaneous event.
    Event,
}

impl EventKind {
    fn as_str(self) -> &'static str {
        match self {
            Self::SpanStart => "span_start",
            Self::SpanEnd => "span_end",
            Self::Event => "event",
        }
    }
}

/// One field of a [`TraceEvent`]: a static key and its value.
pub type Field = (&'static str, JsonValue);

/// How many fields a [`TraceEvent`] holds without a heap block: enough
/// for a request span's start (`request`, `trace`, `kind`), its end
/// (`dur_ns`, `request`) and the cache events. More inline slots would
/// make every ring slot bigger.
pub const INLINE_FIELDS: usize = 3;

/// A [`TraceEvent`]'s fields in emission order; derefs to a slice. Up
/// to [`INLINE_FIELDS`] live inline, more spill to one `Vec`.
#[derive(Clone)]
pub struct Fields(FieldStore);

#[derive(Clone)]
enum FieldStore {
    Inline {
        len: u8,
        items: [Field; INLINE_FIELDS],
    },
    Spilled(Vec<Field>),
}

impl From<&[Field]> for Fields {
    fn from(fields: &[Field]) -> Self {
        if fields.len() > INLINE_FIELDS {
            return Self(FieldStore::Spilled(fields.to_vec()));
        }
        const UNUSED: Field = ("", JsonValue::U64(0));
        let mut items = [UNUSED; INLINE_FIELDS];
        items[..fields.len()].clone_from_slice(fields);
        Self(FieldStore::Inline {
            len: fields.len() as u8,
            items,
        })
    }
}

impl Deref for Fields {
    type Target = [Field];

    fn deref(&self) -> &[Field] {
        match &self.0 {
            FieldStore::Inline { len, items } => &items[..usize::from(*len)],
            FieldStore::Spilled(fields) => fields,
        }
    }
}

impl PartialEq for Fields {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl fmt::Debug for Fields {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// One structured telemetry record.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Global sequence number (per tracer), gap-free from 0.
    pub seq: u64,
    /// Timestamp from the tracer's clock, ns.
    pub t_ns: u64,
    /// Start/end/instant marker.
    pub kind: EventKind,
    /// Event or span name, as the [`Tracer`] call site spelled it.
    pub name: &'static str,
    /// Structured payload, in emission order.
    pub fields: Fields,
}

impl TraceEvent {
    /// Looks up a field by key.
    #[must_use]
    pub fn field(&self, key: &str) -> Option<&JsonValue> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Renders the event as one NDJSON line (no trailing newline).
    #[must_use]
    pub fn to_ndjson(&self) -> String {
        let mut out = format!("{{\"seq\":{},\"t_ns\":{},\"kind\":", self.seq, self.t_ns);
        let _ = ndjson::write_escaped(&mut out, self.kind.as_str());
        out.push_str(",\"name\":");
        let _ = ndjson::write_escaped(&mut out, self.name);
        if !self.fields.is_empty() {
            out.push_str(",\"fields\":");
            let _ = ndjson::write_object(&mut out, &self.fields);
        }
        out.push('}');
        out
    }
}

/// A bounded in-memory collector keeping the most recent `capacity`
/// events.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use canti_obs::clock::VirtualClock;
/// use canti_obs::trace::{RingCollector, Tracer};
///
/// let ring = Arc::new(RingCollector::new(64));
/// let tracer = Tracer::new(Arc::clone(&ring), Arc::new(VirtualClock::new()));
/// tracer.event("hello", &[("n", 3u64.into())]);
/// let events = ring.events();
/// assert_eq!(events.len(), 1);
/// assert_eq!(events[0].name, "hello");
/// ```
#[derive(Debug)]
pub struct RingCollector {
    capacity: usize,
    events: Mutex<std::collections::VecDeque<TraceEvent>>,
    dropped: AtomicU64,
}

impl RingCollector {
    /// A ring holding up to `capacity` events (min 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            events: Mutex::new(std::collections::VecDeque::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// A copy of the retained events, oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .cloned()
            .collect()
    }

    /// Events evicted because the ring was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Renders every retained event as NDJSON lines.
    #[must_use]
    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        for e in self.events() {
            out.push_str(&e.to_ndjson());
            out.push('\n');
        }
        out
    }

    /// Keeps `event`, evicting the oldest one when the ring is full.
    /// Safe under concurrent calls.
    pub fn record(&self, event: TraceEvent) {
        let mut q = self.events.lock().unwrap_or_else(PoisonError::into_inner);
        if q.len() == self.capacity {
            q.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        q.push_back(event);
    }
}

struct TracerInner {
    collector: Arc<RingCollector>,
    clock: Arc<dyn ObsClock>,
    seq: AtomicU64,
}

/// The event/span emitter. Clone freely; clones share the sequence
/// counter, collector and clock.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Tracer {
    /// A tracer feeding `collector`, timestamped by `clock`.
    #[must_use]
    pub fn new(collector: Arc<RingCollector>, clock: Arc<dyn ObsClock>) -> Self {
        Self {
            inner: Some(Arc::new(TracerInner {
                collector,
                clock,
                seq: AtomicU64::new(0),
            })),
        }
    }

    /// A no-op tracer: every call is a single branch.
    #[must_use]
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Whether events actually go anywhere.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Current time on the tracer's clock (0 when disabled).
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.clock.now_ns())
    }

    /// Records one event stamped `t_ns`, a reading the caller took. A
    /// caller that already times an interval writes its span's two
    /// records this way, so the span and the interval share their clock
    /// readings; an end record then carries the `dur_ns` the caller
    /// measured.
    pub fn emit(&self, t_ns: u64, kind: EventKind, name: &'static str, fields: &[Field]) {
        let Some(inner) = &self.inner else { return };
        let event = TraceEvent {
            seq: inner.seq.fetch_add(1, Ordering::Relaxed),
            t_ns,
            kind,
            name,
            fields: Fields::from(fields),
        };
        inner.collector.record(event);
    }

    /// Records an instantaneous event.
    pub fn event(&self, name: &'static str, fields: &[Field]) {
        self.emit(self.now_ns(), EventKind::Event, name, fields);
    }

    /// Opens a span; the returned guard records the matching
    /// `span_end` (with a `dur_ns` field) when dropped or
    /// [`SpanGuard::end`]ed. Each edge reads the clock once: the start
    /// record's stamp is the span's start, and the end record's stamp
    /// is its start plus `dur_ns`.
    #[must_use]
    pub fn span(&self, name: &'static str, fields: &[Field]) -> SpanGuard {
        let start_ns = self.now_ns();
        self.emit(start_ns, EventKind::SpanStart, name, fields);
        SpanGuard {
            tracer: self.clone(),
            name,
            start_ns,
            done: !self.is_enabled(),
        }
    }
}

/// Closes its span on drop, stamping the elapsed clock time.
#[derive(Debug)]
pub struct SpanGuard {
    tracer: Tracer,
    name: &'static str,
    start_ns: u64,
    done: bool,
}

impl SpanGuard {
    /// Closes the span now (instead of at drop), returning the duration.
    pub fn end(mut self) -> u64 {
        self.finish()
    }

    fn finish(&mut self) -> u64 {
        if self.done {
            return 0;
        }
        self.done = true;
        let end_ns = self.tracer.now_ns();
        let dur = end_ns.saturating_sub(self.start_ns);
        self.tracer.emit(
            end_ns,
            EventKind::SpanEnd,
            self.name,
            &[("dur_ns", dur.into())],
        );
        dur
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;

    fn ring_tracer(capacity: usize) -> (Arc<RingCollector>, Arc<VirtualClock>, Tracer) {
        let ring = Arc::new(RingCollector::new(capacity));
        let clock = Arc::new(VirtualClock::new());
        let tracer = Tracer::new(Arc::clone(&ring), Arc::clone(&clock) as Arc<dyn ObsClock>);
        (ring, clock, tracer)
    }

    #[test]
    fn events_are_sequenced_and_timestamped() {
        let (ring, clock, tracer) = ring_tracer(16);
        tracer.event("a", &[]);
        clock.advance_ns(100);
        tracer.event("b", &[("x", 7u64.into())]);
        let events = ring.events();
        assert_eq!(events.len(), 2);
        assert_eq!((events[0].seq, events[0].t_ns), (0, 0));
        assert_eq!((events[1].seq, events[1].t_ns), (1, 100));
        assert_eq!(events[1].field("x"), Some(&JsonValue::U64(7)));
    }

    #[test]
    fn span_guard_records_duration_from_the_clock() {
        let (ring, clock, tracer) = ring_tracer(16);
        {
            let _span = tracer.span("work", &[("job", 3u64.into())]);
            clock.advance_ns(250);
        }
        let events = ring.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, EventKind::SpanStart);
        assert_eq!(events[1].kind, EventKind::SpanEnd);
        assert_eq!(events[1].name, "work");
        assert_eq!(events[1].field("dur_ns"), Some(&JsonValue::U64(250)));
    }

    /// A clock that advances 10 ns per reading and counts its readings.
    #[derive(Debug, Default)]
    struct SteppingClock(AtomicU64);

    impl ObsClock for SteppingClock {
        fn now_ns(&self) -> u64 {
            self.0.fetch_add(10, Ordering::Relaxed)
        }
    }

    #[test]
    fn a_span_reads_the_clock_once_per_edge() {
        let ring = Arc::new(RingCollector::new(16));
        let clock = Arc::new(SteppingClock::default());
        let tracer = Tracer::new(Arc::clone(&ring), Arc::clone(&clock) as Arc<dyn ObsClock>);
        assert_eq!(tracer.span("work", &[]).end(), 10);
        let events = ring.events();
        assert_eq!((events[0].t_ns, events[1].t_ns), (0, 10));
        assert_eq!(events[1].field("dur_ns"), Some(&JsonValue::U64(10)));
        assert_eq!(clock.0.load(Ordering::Relaxed) / 10, 2, "clock readings");
    }

    #[test]
    fn explicit_end_does_not_double_record() {
        let (ring, clock, tracer) = ring_tracer(16);
        let span = tracer.span("s", &[]);
        clock.advance_ns(40);
        assert_eq!(span.end(), 40);
        assert_eq!(ring.events().len(), 2, "end() then drop records once");
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let tracer = Tracer::disabled();
        assert!(!tracer.is_enabled());
        tracer.event("nothing", &[]);
        assert_eq!(tracer.span("nothing", &[]).end(), 0);
        assert_eq!(tracer.now_ns(), 0);
    }

    #[test]
    fn ring_drops_oldest() {
        let (ring, _clock, tracer) = ring_tracer(2);
        for i in 0..5u64 {
            tracer.event("e", &[("i", i.into())]);
        }
        let events = ring.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].field("i"), Some(&JsonValue::U64(3)));
        assert_eq!(ring.dropped(), 3);
    }

    #[test]
    fn ndjson_round_trip_shape() {
        let (ring, _clock, tracer) = ring_tracer(4);
        tracer.event("quote\"me", &[("f", 1.5f64.into()), ("s", "v".into())]);
        let nd = ring.to_ndjson();
        assert_eq!(
            nd.trim(),
            "{\"seq\":0,\"t_ns\":0,\"kind\":\"event\",\"name\":\"quote\\\"me\",\
             \"fields\":{\"f\":1.5,\"s\":\"v\"}}"
        );
    }

    #[test]
    fn events_hold_three_fields_inline_and_stay_small() {
        let (ring, _clock, tracer) = ring_tracer(4);
        tracer.event("e", &[("a", 1u64.into()), ("b", "s".into())]);
        let wide: Vec<Field> = ["a", "b", "c", "d", "e"]
            .into_iter()
            .zip(0u64..)
            .map(|(k, v)| (k, v.into()))
            .collect();
        tracer.event("wide", &wide);
        let events = ring.events();
        assert_eq!(events[0].fields.len(), 2);
        assert_eq!(events[0].field("b"), Some(&JsonValue::from("s")));
        assert_eq!(*events[1].fields, *wide, "spilled fields keep their order");
        // every ring slot is one event: more inline fields cost memory
        assert!(std::mem::size_of::<TraceEvent>() <= 168);
    }
}
