//! Property test: telemetry NDJSON emission and [`canti_obs::parse`] are
//! exact inverses at the byte level — `emit(parse(line)) == line` for
//! every line shape the workspace writes, including escaped strings and
//! the canonical non-finite float spellings.

use std::sync::Arc;

use canti_obs::clock::VirtualClock;
use canti_obs::ndjson::{self, JsonValue};
use canti_obs::parse::{parse_json, parse_ndjson, Json};
use canti_obs::trace::{EventKind, RingCollector, TraceEvent, Tracer};
use proptest::prelude::*;

/// Characters that exercise every escaping branch: quotes, backslashes,
/// the named control escapes, a raw control char, multibyte UTF-8 and an
/// astral-plane char (emitted literally, parsed back literally).
const PALETTE: [char; 18] = [
    'a', 'Z', '0', '_', ' ', '/', ':', '{', '}', '"', '\\', '\n', '\r', '\t', '\u{1}', 'é', '漢',
    '😀',
];

fn palette_string() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..PALETTE.len(), 0..12)
        .prop_map(|idxs| idxs.into_iter().map(|i| PALETTE[i]).collect())
}

/// Strings including the canonical non-finite spellings, which collide
/// with `F64` emission on purpose (the parser maps them to floats; the
/// byte-level round trip must still hold).
fn string_value() -> impl Strategy<Value = JsonValue> {
    prop_oneof![
        palette_string().prop_map(JsonValue::from),
        Just(JsonValue::from("NaN")),
        Just(JsonValue::from("Infinity")),
        Just(JsonValue::from("-Infinity")),
    ]
}

fn float_value() -> impl Strategy<Value = JsonValue> {
    prop_oneof![
        (-1e300f64..1e300).prop_map(JsonValue::F64),
        (-1.0f64..1.0).prop_map(|v| JsonValue::F64(v * 1e-300)),
        Just(JsonValue::F64(0.0)),
        Just(JsonValue::F64(f64::NAN)),
        Just(JsonValue::F64(f64::INFINITY)),
        Just(JsonValue::F64(f64::NEG_INFINITY)),
    ]
}

fn scalar() -> impl Strategy<Value = JsonValue> {
    prop_oneof![
        (0u64..u64::MAX).prop_map(JsonValue::U64),
        Just(JsonValue::U64(u64::MAX)),
        (i64::MIN..0i64).prop_map(JsonValue::I64),
        float_value(),
        string_value(),
    ]
}

proptest! {
    /// Flat telemetry objects (metric lines, farm records) round-trip
    /// byte-for-byte through parse + re-emission.
    #[test]
    fn flat_object_lines_round_trip(
        keys in prop::collection::vec(palette_string(), 1..6),
        values in prop::collection::vec(scalar(), 1..6),
    ) {
        let pairs: Vec<(&str, JsonValue)> = keys
            .iter()
            .map(String::as_str)
            .zip(values.iter().cloned())
            .collect();
        prop_assume!(!pairs.is_empty());
        let line = ndjson::object(&pairs);
        let parsed = match parse_json(&line) {
            Ok(p) => p,
            Err(e) => return Err(proptest::TestCaseError::Fail(format!("parse {line}: {e}"))),
        };
        prop_assert_eq!(parsed.emit(), line);
    }

    /// Trace-event lines (the nested-`fields` shape `Tracer` emits)
    /// round-trip byte-for-byte, and the parsed form exposes the fields.
    /// Event names are `&'static str`, so the event is built directly
    /// under a leaked generated name that exercises every escape.
    #[test]
    fn trace_event_lines_round_trip(
        name in palette_string(),
        t_ns in 0u64..u64::MAX,
        f in float_value(),
        s in string_value(),
        n in 0u64..u64::MAX,
    ) {
        let event = TraceEvent {
            seq: 0,
            t_ns,
            kind: EventKind::Event,
            name: Box::leak(name.into_boxed_str()),
            fields: [("f", f), ("s", s), ("n", JsonValue::U64(n))][..].into(),
        };

        let line = event.to_ndjson();
        let parsed = match parse_json(&line) {
            Ok(p) => p,
            Err(e) => return Err(proptest::TestCaseError::Fail(format!("parse {line}: {e}"))),
        };
        prop_assert_eq!(parsed.emit(), line.clone());
        prop_assert_eq!(parsed.get("t_ns").and_then(Json::as_u64), Some(t_ns));
        prop_assert_eq!(
            parsed.get("fields").and_then(|fl| fl.get("n")).and_then(Json::as_u64),
            Some(n)
        );
    }
}

/// A deterministic end-to-end check over a whole NDJSON stream: spans,
/// events, metrics dump — every line parses and re-emits identically.
#[test]
fn full_stream_round_trips() {
    let ring = Arc::new(RingCollector::new(64));
    let clock = Arc::new(VirtualClock::new());
    let tracer = Tracer::new(Arc::clone(&ring) as _, Arc::clone(&clock) as _);

    let batch = tracer.span("batch", &[("jobs", 2u64.into())]);
    for i in 0..2u64 {
        let job = tracer.span("job", &[("job", i.into()), ("kind", "probe\n\"x\"".into())]);
        clock.advance_ns(100 + i);
        tracer.event("sample", &[("nan", f64::NAN.into()), ("v", (-3i64).into())]);
        drop(job);
    }
    drop(batch);

    let metrics = canti_obs::Metrics::new();
    metrics.counter("farm.jobs_ok").add(2);
    metrics.gauge("depth").set(-4);
    metrics.histogram("solve_ns").record(123);

    let mut stream = ring.to_ndjson();
    stream.push_str(&metrics.to_ndjson());

    let docs = parse_ndjson(&stream).expect("stream parses");
    assert_eq!(docs.len(), stream.lines().count());
    let re_emitted: Vec<String> = docs.iter().map(Json::emit).collect();
    let original: Vec<&str> = stream.lines().collect();
    assert_eq!(re_emitted, original);
}
