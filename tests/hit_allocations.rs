//! The allocation budget of a cache hit and of a trace event, counted by
//! a global allocator that tallies per thread, so tests running in
//! parallel never see each other's allocations.
//!
//! A cache hit through `ShardedService::submit` allocates two blocks,
//! observed or not: the answer's `metrics`, cloned out of the cache, and
//! the ticket's slot. The key folds the spec's bits without formatting
//! text, and the hit's `cache_hit` event holds its name and fields
//! inline. A `Tracer` event or span with a static name and up to three
//! scalar or static-string fields allocates nothing, and neither does a
//! timeline write by resolved series ids into windows that exist.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use canti::farm::{FarmObserver, JobSpec, Receptor};
use canti::obs::{
    ObsClock, RingCollector, SeriesKind, TimelineConfig, TimelineRecorder, Tracer, VirtualClock,
};
use canti::serve::{CacheConfig, Disposition, ServeConfig, ShardedConfig, ShardedService};
use canti::units::{Molar, Seconds};

/// The system allocator, counting every allocation and reallocation the
/// calling thread makes.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn tally() {
    // a thread being torn down has no counter left; nothing to count
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the tally touches
// only a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        // SAFETY: the caller's contract is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally();
        // SAFETY: the caller's contract is passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        // SAFETY: the caller's contract is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract is passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `f`'s result and the allocations this thread made while running it.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// One dose point of the quick immunoassay, the benchmark's request.
fn dose_point() -> JobSpec {
    JobSpec::StaticDoseResponse {
        receptor: Receptor::AntiIgg,
        concentration: Molar::from_nanomolar(5.0),
        baseline: Seconds::new(30.0),
        association: Seconds::new(300.0),
        wash: Seconds::new(120.0),
        dt: Seconds::new(0.05),
        averaging: 256,
    }
}

/// Warms a one-shard cached service on [`dose_point`] past every
/// buffer's growth (the 1 024-record request log, the trace ring), then
/// returns the allocations of each of 64 further hits.
fn allocations_per_hit(service: &ShardedService) -> Vec<u64> {
    let spec = dose_point();
    let cold = service.submit(spec.clone()).expect("admitted").wait();
    assert!(
        matches!(cold.disposition, Disposition::Completed { .. }),
        "the first request is solved: {cold}"
    );
    for _ in 0..1_100 {
        let ticket = service.submit(spec.clone()).expect("admitted");
        assert!(
            ticket.poll().is_some(),
            "a repeat is answered inside submit"
        );
    }
    (0..64)
        .map(|_| {
            let spec = spec.clone();
            let (ticket, n) = allocations(|| service.submit(spec));
            let answer = ticket
                .expect("admitted")
                .poll()
                .expect("answered inside submit");
            assert!(
                matches!(answer.disposition, Disposition::CacheHit { .. }),
                "expected a hit, got {answer}"
            );
            n
        })
        .collect()
}

fn cached_config() -> ShardedConfig {
    ShardedConfig {
        shards: 1,
        base: ServeConfig {
            threads: 1,
            cache: Some(CacheConfig::default()),
            ..ServeConfig::default()
        },
    }
}

#[test]
fn an_observed_cache_hit_allocates_only_its_answer_and_its_ticket() {
    let (observer, _ring) = FarmObserver::profiling(256);
    let service = ShardedService::start_observed(cached_config(), vec![observer]);
    let counts = allocations_per_hit(&service);
    let _ = service.shutdown();
    assert!(
        counts.iter().all(|&n| n <= 2),
        "allocations per hit: {counts:?}"
    );
}

#[test]
fn an_unobserved_cache_hit_allocates_only_its_answer_and_its_ticket() {
    let service = ShardedService::start(cached_config());
    let counts = allocations_per_hit(&service);
    let _ = service.shutdown();
    assert!(
        counts.iter().all(|&n| n <= 2),
        "allocations per hit: {counts:?}"
    );
}

#[test]
fn a_trace_event_with_up_to_three_fields_allocates_nothing() {
    let ring = Arc::new(RingCollector::new(8));
    let clock = Arc::new(VirtualClock::new());
    let tracer = Tracer::new(Arc::clone(&ring), Arc::clone(&clock) as Arc<dyn ObsClock>);
    let hit = |request: u64| {
        tracer.event(
            "cache_hit",
            &[
                ("request", request.into()),
                ("trace", canti::obs::trace_id(request).into()),
                ("kind", "static_dose_response".into()),
            ],
        );
    };
    // fill the ring: from here on each event replaces the oldest
    for request in 0..8 {
        hit(request);
    }

    let ((), n) = allocations(|| hit(8));
    assert_eq!(n, 0, "a three-field event");
    let ((), n) = allocations(|| {
        let span = tracer.span("request", &[("request", 9u64.into()), ("f", 0.5f64.into())]);
        clock.advance_ns(10);
        drop(span);
    });
    assert_eq!(n, 0, "a span's start and end");
    let ((), n) = allocations(|| tracer.event("tick", &[]));
    assert_eq!(n, 0, "an event without fields");
    let ((), n) = allocations(|| {
        tracer.event(
            "wide",
            &[
                ("a", 1u64.into()),
                ("b", 2u64.into()),
                ("c", 3u64.into()),
                ("d", 4u64.into()),
            ],
        );
    });
    assert_eq!(n, 1, "four fields spill into one block");

    let events = ring.events();
    let last = events.last().expect("the ring holds events");
    assert_eq!(last.name, "wide");
    assert_eq!(last.fields.len(), 4);
}

#[test]
fn a_timeline_record_over_resolved_ids_allocates_nothing() {
    let tl = TimelineRecorder::new(TimelineConfig::default());
    let admitted = tl.series("serve.admitted", SeriesKind::Delta);
    let latency = tl.series("serve.request_latency_ns", SeriesKind::Delta);
    let depth = tl.series("serve.queue_depth", SeriesKind::Sample);
    let hit = |t_ns: u64| tl.record(&[(admitted, 1, t_ns), (latency, 900, t_ns), (depth, 3, t_ns)]);
    // open each series' window
    hit(0);

    let ((), n) = allocations(|| hit(10));
    assert_eq!(n, 0, "three observations into existing windows");
    let ((), n) = allocations(|| tl.record(&[]));
    assert_eq!(n, 0, "an empty write");
    assert_eq!(tl.snapshot()[0].points[0].count, 2);
}
