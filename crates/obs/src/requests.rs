//! The per-request debug log behind the `/debug/requests` endpoint.
//!
//! The serve layer pushes one [`RequestRecord`] per finished request —
//! every terminal outcome: completed, coalesced follower, cache hit,
//! expired or failed — into a bounded [`RequestLog`]. Records carry
//! the request-scoped trace id and the full latency breakdown, so an
//! operator can go from "this request was slow" to "its time went to
//! the queue, not the farm" without reconstructing the span tree.
//!
//! Everything renders deterministically: records come back in insertion
//! order and [`RequestRecord::to_json`] emits fields in a fixed order,
//! which is what lets the golden tests pin `/debug/requests` bytes on a
//! scripted virtual-clock run.
//!
//! # Examples
//!
//! ```
//! use canti_obs::requests::{RequestLog, RequestRecord};
//!
//! let log = RequestLog::new(2);
//! for id in 0..3u64 {
//!     log.push(RequestRecord {
//!         request: id,
//!         trace: canti_obs::trace_id(id),
//!         outcome: "ok",
//!         batch: Some(0),
//!         latency_ns: 100,
//!         queue_ns: 100,
//!         form_ns: 0,
//!         exec_ns: 0,
//!         respond_ns: 0,
//!         finished_ns: 500,
//!     });
//! }
//! let records = log.records();
//! assert_eq!(records.len(), 2, "bounded: oldest evicted");
//! assert_eq!(records[0].request, 1);
//! ```

use std::collections::VecDeque;
use std::sync::{Mutex, PoisonError};

/// One finished request, as the serve layer saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestRecord {
    /// The global admission id.
    pub request: u64,
    /// The request-scoped trace id ([`crate::trace_id`] of `request`).
    pub trace: u64,
    /// Terminal state label: `"ok"` or `"job_failed"` for a request a
    /// batch answered, `"cache_hit"` for one answered from the result
    /// cache at admission, `"expired"`, or the reject-reason label of an
    /// admitted request abandoned without an answer (`"shard_failed"`
    /// when its shard died).
    pub outcome: &'static str,
    /// The batch that carried the request (`None` for expiries).
    pub batch: Option<u64>,
    /// Admission-to-answer time on the serve clock, ns.
    pub latency_ns: u64,
    /// Admission to batch formation, ns.
    pub queue_ns: u64,
    /// Batch formation to farm execution start, ns.
    pub form_ns: u64,
    /// The farm run itself, ns.
    pub exec_ns: u64,
    /// Farm completion to the answer time, ns: the answer's clock
    /// reading follows the farm's end, before response assembly.
    pub respond_ns: u64,
    /// Clock reading when the request was answered, ns.
    pub finished_ns: u64,
}

impl RequestRecord {
    /// One deterministic JSON object, fixed field order, no whitespace.
    #[must_use]
    pub fn to_json(&self) -> String {
        let batch = self
            .batch
            .map_or_else(|| "null".to_owned(), |b| b.to_string());
        format!(
            "{{\"request\":{},\"trace\":{},\"outcome\":\"{}\",\"batch\":{batch},\
             \"latency_ns\":{},\"queue_ns\":{},\"form_ns\":{},\"exec_ns\":{},\
             \"respond_ns\":{},\"finished_ns\":{}}}",
            self.request,
            self.trace,
            self.outcome,
            self.latency_ns,
            self.queue_ns,
            self.form_ns,
            self.exec_ns,
            self.respond_ns,
            self.finished_ns,
        )
    }
}

/// A bounded, thread-safe log of finished requests (oldest evicted
/// first).
#[derive(Debug)]
pub struct RequestLog {
    capacity: usize,
    records: Mutex<VecDeque<RequestRecord>>,
}

impl RequestLog {
    /// An empty log retaining at most `capacity` records (clamped ≥ 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            records: Mutex::new(VecDeque::new()),
        }
    }

    /// The retention bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends one record, evicting the oldest past capacity.
    pub fn push(&self, record: RequestRecord) {
        let mut records = self.records.lock().unwrap_or_else(PoisonError::into_inner);
        if records.len() == self.capacity {
            records.pop_front();
        }
        records.push_back(record);
    }

    /// The retained records, oldest first.
    #[must_use]
    pub fn records(&self) -> Vec<RequestRecord> {
        self.records
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .copied()
            .collect()
    }

    /// Retained record count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Whether the log holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(request: u64) -> RequestRecord {
        RequestRecord {
            request,
            trace: crate::trace_id(request),
            outcome: "ok",
            batch: Some(3),
            latency_ns: 40,
            queue_ns: 10,
            form_ns: 5,
            exec_ns: 20,
            respond_ns: 5,
            finished_ns: 100,
        }
    }

    #[test]
    fn json_field_order_is_fixed() {
        let json = record(7).to_json();
        assert!(json.starts_with("{\"request\":7,\"trace\":"), "{json}");
        assert!(json.contains("\"outcome\":\"ok\",\"batch\":3"), "{json}");
        assert!(json.ends_with("\"finished_ns\":100}"), "{json}");
        let expired = RequestRecord {
            outcome: "expired",
            batch: None,
            ..record(8)
        };
        assert!(expired.to_json().contains("\"batch\":null"), "null batch");
    }

    #[test]
    fn log_is_bounded_and_ordered() {
        let log = RequestLog::new(3);
        assert!(log.is_empty());
        for id in 0..5 {
            log.push(record(id));
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.capacity(), 3);
        let ids: Vec<u64> = log.records().iter().map(|r| r.request).collect();
        assert_eq!(ids, vec![2, 3, 4]);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let log = RequestLog::new(0);
        log.push(record(1));
        log.push(record(2));
        assert_eq!(log.len(), 1);
        assert_eq!(log.records()[0].request, 2);
    }
}
