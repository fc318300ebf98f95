//! What a request gets back from the serving layer.

use std::fmt;

use canti_farm::{FarmError, JobOutput};

/// The serving layer's answer to one admitted request.
///
/// Equality is exact (payload `f64`s compare bitwise through
/// [`JobOutput`]'s derived `PartialEq`), which is what the determinism
/// tests lean on: two runs of the same arrival script must produce `==`
/// response streams at any worker count.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeResponse {
    /// The request's global id, as [`crate::ShardedEngine::submit`]
    /// returned it and [`crate::ShardTicket::id`] names it.
    pub request_id: u64,
    /// The request-scoped trace id: [`canti_obs::trace_id`] of the
    /// global admission id, fixed at admission. Every span and event the
    /// request left in the telemetry stream carries the same id.
    pub trace: u64,
    /// How the request ended.
    pub disposition: Disposition,
}

/// Where one completed request's latency went, on the serve clock.
///
/// The five phases partition the request's total latency exactly:
/// `cache_ns + queue_ns + form_ns + exec_ns + respond_ns == latency_ns`.
/// On a [`canti_obs::VirtualClock`] every anchor is a scripted reading,
/// so breakdowns are bit-identical at any worker count. A cache hit is
/// all `cache_ns` (the other phases never happened). A farm-served
/// request always has `cache_ns` 0: admission reads the clock before its
/// lookup, so a miss's lookup cost lands in `queue_ns`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencyBreakdown {
    /// A cache hit's admission-time lookup, ns: its whole latency. Zero
    /// for a farm-served request, whose miss lookup counts in
    /// `queue_ns`.
    pub cache_ns: u64,
    /// Admission to batch formation: time spent waiting in the
    /// admission queue, ns.
    pub queue_ns: u64,
    /// Batch formation to farm execution start, ns (lock handoff and
    /// batch assembly).
    pub form_ns: u64,
    /// The farm run itself, ns.
    pub exec_ns: u64,
    /// Farm completion to the answer time, ns. The answer's clock reading
    /// is taken right after the farm's end, before the batch's metrics
    /// are recorded and its responses assembled, so this phase is one
    /// clock read.
    pub respond_ns: u64,
}

impl LatencyBreakdown {
    /// The phases summed — equals the response's `latency_ns`.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.cache_ns + self.queue_ns + self.form_ns + self.exec_ns + self.respond_ns
    }
}

/// Terminal state of an admitted request.
#[derive(Debug, Clone, PartialEq)]
pub enum Disposition {
    /// The request rode in batch `batch` and the farm produced a result
    /// (which may itself be a per-job [`FarmError`] — job failure is a
    /// completed request, not a serving failure).
    Completed {
        /// Index of the batch that carried the request.
        batch: u64,
        /// Admission-to-completion time on the serve clock, ns.
        latency_ns: u64,
        /// Where that latency went, phase by phase.
        breakdown: LatencyBreakdown,
        /// The farm's per-job outcome.
        result: Result<JobOutput, FarmError>,
    },
    /// The request was answered straight from the content-addressed
    /// result cache at admission: it never occupied a queue slot or rode
    /// a batch. By the determinism contract the payload is bit-identical
    /// to what a farm solve of the same spec would have produced.
    CacheHit {
        /// Admission-to-answer time on the serve clock, ns (the cache
        /// lookup itself).
        latency_ns: u64,
        /// The breakdown — all zero except `cache_ns`.
        breakdown: LatencyBreakdown,
        /// The cached per-job outcome (always `Ok`: failures are never
        /// cached).
        result: Result<JobOutput, FarmError>,
    },
    /// The request's deadline passed while it was still queued; it never
    /// entered a batch.
    Expired {
        /// How long the request waited before expiring, ns.
        waited_ns: u64,
        /// The absolute deadline instant it missed, ns.
        deadline_ns: u64,
    },
    /// The serving layer itself gave up on an **already admitted**
    /// request: its shard died before the batch completed. Labelled
    /// `shard_failed`, like [`crate::RejectReason::ShardFailed`].
    /// Terminal by contract — a waiter on the request's ticket always
    /// wakes up with this response instead of hanging on a dead batcher.
    Failed,
}

impl Disposition {
    /// Whether the request completed with a successful job output.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        matches!(
            self,
            Self::Completed { result: Ok(_), .. } | Self::CacheHit { result: Ok(_), .. }
        )
    }

    /// Stable label for metrics / trace fields.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Self::Completed { result: Ok(_), .. } => "ok",
            Self::Completed { result: Err(_), .. } => "job_failed",
            Self::CacheHit { .. } => "cache_hit",
            Self::Expired { .. } => "expired",
            Self::Failed => "shard_failed",
        }
    }

    /// The successful job output, however the request was served —
    /// batch completion or cache hit. `None` for failures.
    #[must_use]
    pub fn output(&self) -> Option<&JobOutput> {
        match self {
            Self::Completed {
                result: Ok(out), ..
            }
            | Self::CacheHit {
                result: Ok(out), ..
            } => Some(out),
            _ => None,
        }
    }
}

impl fmt::Display for ServeResponse {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.disposition {
            Disposition::Completed {
                batch,
                latency_ns,
                result,
                ..
            } => match result {
                Ok(out) => write!(
                    f,
                    "request {}: ok in batch {batch} ({} metrics, {latency_ns} ns)",
                    self.request_id,
                    out.metrics.len()
                ),
                Err(e) => write!(
                    f,
                    "request {}: failed in batch {batch} ({e}, {latency_ns} ns)",
                    self.request_id
                ),
            },
            Disposition::CacheHit {
                latency_ns, result, ..
            } => match result {
                Ok(out) => write!(
                    f,
                    "request {}: ok from cache ({} metrics, {latency_ns} ns)",
                    self.request_id,
                    out.metrics.len()
                ),
                Err(e) => write!(
                    f,
                    "request {}: failed from cache ({e}, {latency_ns} ns)",
                    self.request_id
                ),
            },
            Disposition::Expired {
                waited_ns,
                deadline_ns,
            } => write!(
                f,
                "request {}: expired after {waited_ns} ns (deadline at {deadline_ns} ns)",
                self.request_id
            ),
            Disposition::Failed => {
                write!(f, "request {}: abandoned (shard failed)", self.request_id)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn output() -> JobOutput {
        JobOutput {
            job_index: 0,
            kind: "probe",
            metrics: vec![("value", 1.0)],
        }
    }

    #[test]
    fn labels_and_display_cover_every_disposition() {
        let ok = ServeResponse {
            request_id: 3,
            trace: canti_obs::trace_id(3),
            disposition: Disposition::Completed {
                batch: 1,
                latency_ns: 42,
                breakdown: LatencyBreakdown::default(),
                result: Ok(output()),
            },
        };
        assert!(ok.disposition.is_ok());
        assert_eq!(ok.disposition.label(), "ok");
        assert!(ok.to_string().contains("batch 1"));

        let failed = ServeResponse {
            request_id: 4,
            trace: canti_obs::trace_id(4),
            disposition: Disposition::Completed {
                batch: 1,
                latency_ns: 42,
                breakdown: LatencyBreakdown::default(),
                result: Err(FarmError::Job {
                    job_index: 0,
                    reason: "bad".into(),
                }),
            },
        };
        assert!(!failed.disposition.is_ok());
        assert_eq!(failed.disposition.label(), "job_failed");
        assert!(failed.to_string().contains("failed"));

        let expired = ServeResponse {
            request_id: 5,
            trace: canti_obs::trace_id(5),
            disposition: Disposition::Expired {
                waited_ns: 10,
                deadline_ns: 10,
            },
        };
        assert!(!expired.disposition.is_ok());
        assert_eq!(expired.disposition.label(), "expired");
        assert!(expired.to_string().contains("expired"));

        let failed = ServeResponse {
            request_id: 6,
            trace: canti_obs::trace_id(6),
            disposition: Disposition::Failed,
        };
        assert!(!failed.disposition.is_ok());
        assert_eq!(failed.disposition.label(), "shard_failed");
        assert!(failed.to_string().contains("abandoned"));
    }

    #[test]
    fn breakdown_phases_partition_the_latency() {
        let b = LatencyBreakdown {
            cache_ns: 4,
            queue_ns: 10,
            form_ns: 2,
            exec_ns: 30,
            respond_ns: 1,
        };
        assert_eq!(b.total_ns(), 47);
        assert_eq!(LatencyBreakdown::default().total_ns(), 0);
    }

    #[test]
    fn cache_hits_read_as_successful_completions() {
        let hit = ServeResponse {
            request_id: 8,
            trace: canti_obs::trace_id(8),
            disposition: Disposition::CacheHit {
                latency_ns: 3,
                breakdown: LatencyBreakdown {
                    cache_ns: 3,
                    ..LatencyBreakdown::default()
                },
                result: Ok(output()),
            },
        };
        assert!(hit.disposition.is_ok());
        assert_eq!(hit.disposition.label(), "cache_hit");
        assert_eq!(hit.disposition.output().map(|o| o.job_index), Some(0));
        assert!(hit.to_string().contains("from cache"));
        match &hit.disposition {
            Disposition::CacheHit { breakdown, .. } => {
                assert_eq!(breakdown.total_ns(), 3, "all latency is the lookup");
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
