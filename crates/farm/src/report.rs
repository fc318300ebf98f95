//! Batch outcomes: per-job outputs, per-job errors, and aggregate
//! statistics over a completed batch.

use std::fmt;

use canti_fab::variation::Stats;

/// A per-job farm failure.
///
/// One broken or panicking job surfaces here in its slot of
/// [`BatchReport::outcomes`] without poisoning the rest of the batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FarmError {
    /// A job returned an error from the simulation substrate.
    Job {
        /// Index of the failing job in the submitted batch.
        job_index: usize,
        /// The substrate's error message.
        reason: String,
    },
    /// A job panicked; the panic was caught at the job boundary.
    Panic {
        /// Index of the panicking job in the submitted batch.
        job_index: usize,
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl fmt::Display for FarmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Job { job_index, reason } => write!(f, "job {job_index} failed: {reason}"),
            Self::Panic { job_index, message } => {
                write!(f, "job {job_index} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for FarmError {}

/// One job's result: a flat list of named scalar metrics.
///
/// Metrics are plain `f64`s so batch reports can be compared bit-for-bit
/// across worker counts — the determinism contract of the farm.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutput {
    /// Index of the job in the submitted batch.
    pub job_index: usize,
    /// The job kind (`"dose_response"`, `"process_variation"`, ...).
    pub kind: &'static str,
    /// Named scalar results, in a kind-specific fixed order.
    pub metrics: Vec<(&'static str, f64)>,
}

impl JobOutput {
    /// Looks up a metric by name.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

/// The aggregated result of one batch run: the numerical payload and
/// nothing else.
///
/// Equality compares the batch seed and every job outcome — two reports
/// from the same `(seed, jobs)` pair are `==` regardless of how many
/// worker threads produced them and whether a [`crate::FarmObserver`]
/// watched. Telemetry lives in the observer, never in the report.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// The seed every job's RNG stream was derived from.
    pub batch_seed: u64,
    /// Per-job outcomes, indexed exactly like the submitted job list.
    pub outcomes: Vec<Result<JobOutput, FarmError>>,
}

impl BatchReport {
    /// Iterates over the successful job outputs.
    pub fn ok(&self) -> impl Iterator<Item = &JobOutput> {
        self.outcomes.iter().filter_map(|o| o.as_ref().ok())
    }

    /// Iterates over the per-job failures.
    pub fn errors(&self) -> impl Iterator<Item = &FarmError> {
        self.outcomes.iter().filter_map(|o| o.as_ref().err())
    }

    /// Number of successful jobs.
    #[must_use]
    pub fn ok_count(&self) -> usize {
        self.ok().count()
    }

    /// Number of failed jobs.
    #[must_use]
    pub fn err_count(&self) -> usize {
        self.errors().count()
    }

    /// Collects metric `name` from every successful job that reports it,
    /// in job order.
    #[must_use]
    pub fn metric_values(&self, name: &str) -> Vec<f64> {
        self.ok().filter_map(|j| j.metric(name)).collect()
    }

    /// Summary statistics of metric `name` across the batch (`None` with
    /// fewer than two reporting jobs).
    #[must_use]
    pub fn metric_stats(&self, name: &str) -> Option<Stats> {
        Stats::of(&self.metric_values(name))
    }

    /// A compact human-readable summary.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "batch seed {:#x}: {} jobs, {} ok, {} failed",
            self.batch_seed,
            self.outcomes.len(),
            self.ok_count(),
            self.outcomes.len() - self.ok_count()
        );
        // every metric name seen, in first-seen order
        let mut names: Vec<&'static str> = Vec::new();
        for job in self.ok() {
            for (n, _) in &job.metrics {
                if !names.contains(n) {
                    names.push(n);
                }
            }
        }
        for name in names {
            if let Some(s) = self.metric_stats(name) {
                let _ = writeln!(
                    out,
                    "  {name}: mean {:.4e}  sd {:.3e}  min {:.4e}  max {:.4e}  (n={})",
                    s.mean, s.std_dev, s.min, s.max, s.count
                );
            }
        }
        for err in self.errors() {
            let _ = writeln!(out, "  ! {err}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(i: usize, v: f64) -> JobOutput {
        JobOutput {
            job_index: i,
            kind: "probe",
            metrics: vec![("value", v)],
        }
    }

    #[test]
    fn metric_lookup_and_stats() {
        let report = BatchReport {
            batch_seed: 7,
            outcomes: vec![
                Ok(job(0, 1.0)),
                Err(FarmError::Panic {
                    job_index: 1,
                    message: "boom".into(),
                }),
                Ok(job(2, 3.0)),
            ],
        };
        assert_eq!(report.ok_count(), 2);
        assert_eq!(report.errors().count(), 1);
        assert_eq!(report.metric_values("value"), vec![1.0, 3.0]);
        let s = report.metric_stats("value").unwrap();
        assert_eq!(s.mean, 2.0);
        assert!(report.metric_stats("missing").is_none());
        let text = report.render();
        assert!(text.contains("2 ok"));
        assert!(text.contains("panicked"));
    }

    #[test]
    fn error_display() {
        let e = FarmError::Job {
            job_index: 4,
            reason: "bad".into(),
        };
        assert!(e.to_string().contains("job 4"));
    }
}
