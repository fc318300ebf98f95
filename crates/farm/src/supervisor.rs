//! Batch supervision: retry budgets, per-job deadlines and a per-kind
//! circuit breaker on top of the raw [`Farm`] engine.
//!
//! The raw farm records one outcome per job and moves on; the supervisor
//! adds the operational policies a long-running sensor installation
//! needs:
//!
//! - **Bounded retries.** A job that fails retryably (substrate error or
//!   panic) is re-run in a later *wave* with an attempt-salted RNG
//!   stream, up to [`SupervisorConfig::max_attempts`] total tries. Waves
//!   run on the same worker pool as the original batch.
//! - **Per-job deadline.** When the farm has an observer, each execution
//!   is timed on the observer's clock; a job that outlives
//!   [`SupervisorConfig::job_deadline_ns`] is marked
//!   [`FarmError::DeadlineExceeded`] and not retried. Under a
//!   [`canti_obs::VirtualClock`] nothing advances the clock, so the
//!   deadline never fires — which is exactly what keeps deterministic
//!   runs deterministic.
//! - **Circuit breaker.** Each job *kind* carries a breaker:
//!   [`SupervisorConfig::breaker_threshold`] consecutive final failures
//!   trip it open, the next [`SupervisorConfig::breaker_cooldown`] jobs
//!   of that kind are rejected as [`FarmError::BreakerOpen`] without
//!   consuming simulation time, then one half-open probe job decides
//!   whether the breaker closes again or re-opens. Breaker state
//!   persists across [`FarmSupervisor::run`] calls.
//!
//! # Determinism
//!
//! Everything the supervisor decides is a pure function of
//! `(batch_seed, jobs, config, carried breaker state)`. Retry waves use
//! index-addressed result slots like the base pool; the breaker is
//! evaluated in a **submission-order walk after the jobs have run**, not
//! in execution order, so the outcome of a supervised batch is
//! bit-identical for any worker count. The walk may retroactively reject
//! a job that already ran (its result is discarded); only breakers
//! already open when the batch *starts* save actual compute, by
//! pre-filtering the jobs their cooldown covers.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::job::JobSpec;
use crate::report::{BatchReport, FarmError, JobOutput};
use crate::{Farm, WorkerStat};

/// Retry, deadline and breaker policy for a supervised batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Total executions allowed per job (first try included). `0` is
    /// treated as `1`.
    pub max_attempts: u32,
    /// Consecutive final failures of one kind that trip its breaker;
    /// `0` disables the breaker entirely.
    pub breaker_threshold: u32,
    /// Jobs of a tripped kind rejected before the half-open probe.
    pub breaker_cooldown: u32,
    /// Per-job wall deadline on the observer's clock, ns. `None` — or a
    /// farm without an observer — disables deadline enforcement.
    pub job_deadline_ns: Option<u64>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            max_attempts: 2,
            breaker_threshold: 4,
            breaker_cooldown: 8,
            job_deadline_ns: None,
        }
    }
}

/// Externally visible state of one kind's circuit breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerPosition {
    /// Jobs flow normally.
    Closed,
    /// Jobs are rejected; `cooldown_left` more rejections until the
    /// half-open probe.
    Open {
        /// Rejections remaining before the breaker half-opens.
        cooldown_left: u32,
    },
    /// The next job of this kind runs as a probe: success closes the
    /// breaker, failure re-opens it.
    HalfOpen,
}

impl BreakerPosition {
    /// Numeric encoding for the `breaker.state.<kind>` gauge:
    /// closed 0, half-open 1, open 2.
    #[must_use]
    pub fn gauge_value(&self) -> i64 {
        match self {
            Self::Closed => 0,
            Self::HalfOpen => 1,
            Self::Open { .. } => 2,
        }
    }

    fn label(&self) -> &'static str {
        match self {
            Self::Closed => "closed",
            Self::HalfOpen => "half_open",
            Self::Open { .. } => "open",
        }
    }
}

/// One kind's breaker: public position plus the failure streak that
/// feeds it.
#[derive(Debug, Clone, Copy)]
struct Breaker {
    position: BreakerPosition,
    consecutive_failures: u32,
}

impl Default for Breaker {
    fn default() -> Self {
        Self {
            position: BreakerPosition::Closed,
            consecutive_failures: 0,
        }
    }
}

/// A [`BatchReport`] plus the supervision ledger that produced it.
///
/// Equality compares the report (seed + outcomes) and the ledger — two
/// supervised runs of the same batch are `==` regardless of worker
/// count.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisedReport {
    /// Final per-job outcomes after retries, deadlines and the breaker.
    pub report: BatchReport,
    /// Executions per job, indexed like the batch. `0`: rejected by a
    /// breaker that was already open at batch start, so it never ran;
    /// `1`: first try stood; `>1`: retried. A job rejected by a breaker
    /// that tripped mid-batch keeps its execution count (it did run; the
    /// walk discarded the result).
    pub attempts: Vec<u32>,
    /// Jobs that ran more than once.
    pub retried_jobs: usize,
    /// Jobs rejected by an open breaker.
    pub rejected_jobs: usize,
    /// Jobs that blew their deadline.
    pub deadline_jobs: usize,
    /// Breaker trips (open transitions) during this batch.
    pub breaker_trips: usize,
}

impl SupervisedReport {
    /// The batch report's summary plus one supervision line.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = self.report.render();
        let _ = writeln!(
            out,
            "  supervision: {} retried, {} rejected (breaker), {} over deadline, {} trips",
            self.retried_jobs, self.rejected_jobs, self.deadline_jobs, self.breaker_trips
        );
        out
    }
}

/// The supervising wrapper around a [`Farm`].
#[derive(Debug)]
pub struct FarmSupervisor {
    farm: Farm,
    config: SupervisorConfig,
    breakers: BTreeMap<&'static str, Breaker>,
}

impl FarmSupervisor {
    /// Wraps `farm` with the given policy; all breakers start closed.
    #[must_use]
    pub fn new(farm: Farm, config: SupervisorConfig) -> Self {
        Self {
            farm,
            config,
            breakers: BTreeMap::new(),
        }
    }

    /// The wrapped farm.
    #[must_use]
    pub fn farm(&self) -> &Farm {
        &self.farm
    }

    /// The active policy.
    #[must_use]
    pub fn config(&self) -> SupervisorConfig {
        self.config
    }

    /// Current breaker positions, sorted by kind.
    #[must_use]
    pub fn breaker_states(&self) -> Vec<(&'static str, BreakerPosition)> {
        self.breakers
            .iter()
            .map(|(k, b)| (*k, b.position))
            .collect()
    }

    /// Force-closes every breaker (operator reset).
    pub fn reset_breakers(&mut self) {
        self.breakers.clear();
    }

    /// Runs `jobs` under supervision; see the module docs for the exact
    /// retry/deadline/breaker semantics.
    #[must_use]
    pub fn run(&mut self, jobs: &[JobSpec]) -> SupervisedReport {
        let max_attempts = self.config.max_attempts.max(1);
        let threads = self.farm.threads();
        let obs = self.farm.observer.as_ref();

        let batch_span = obs.map(|o| {
            o.tracer().span(
                "supervised_batch",
                &[
                    ("jobs", jobs.len().into()),
                    ("workers", threads.into()),
                    ("batch_seed", self.farm.config.batch_seed.into()),
                    ("max_attempts", u64::from(max_attempts).into()),
                ],
            )
        });
        let batch_start_ns = obs.map_or(0, |o| o.clock().now_ns());
        let runner =
            Arc::new(
                self.farm
                    .batch_runner(Arc::new(jobs.to_vec()), None, None, batch_start_ns),
            );

        // Pre-filter: breakers already open when the batch starts save
        // real compute — the first `cooldown_left` jobs of that kind
        // never run. (The authoritative walk below re-derives exactly
        // these rejections from the same carried-in state.)
        let mut skip_budget: BTreeMap<&'static str, u32> = BTreeMap::new();
        for (kind, b) in &self.breakers {
            if let BreakerPosition::Open { cooldown_left } = b.position {
                skip_budget.insert(kind, cooldown_left);
            }
        }
        let mut runnable: Vec<usize> = Vec::with_capacity(jobs.len());
        for (i, job) in jobs.iter().enumerate() {
            match skip_budget.get_mut(job.kind()) {
                Some(left) if *left > 0 => *left -= 1,
                _ => runnable.push(i),
            }
        }

        // Retry waves over the runnable set. Results land in per-job
        // slots, so later waves simply overwrite earlier failures.
        let mut outcomes: Vec<Option<Result<JobOutput, FarmError>>> = vec![None; jobs.len()];
        let mut attempts: Vec<u32> = vec![0; jobs.len()];
        let mut per_worker = vec![WorkerStat::default(); threads];
        let mut pending = runnable;
        let mut attempt = 0u32;
        while !pending.is_empty() && attempt < max_attempts {
            if attempt > 0 {
                if let Some(o) = obs {
                    o.tracer().event(
                        "retry_wave",
                        &[
                            ("attempt", u64::from(attempt).into()),
                            ("jobs", pending.len().into()),
                        ],
                    );
                }
            }
            let (wave, stats) = self.farm.dispatch(
                &runner,
                Some(Arc::new(pending.clone())),
                attempt,
                self.config.job_deadline_ns,
            );
            for (total, wave) in per_worker.iter_mut().zip(&stats) {
                total.jobs += wave.jobs;
                total.busy_ns += wave.busy_ns;
            }
            let mut still_failing = Vec::new();
            for (slot, &i) in wave.into_iter().zip(pending.iter()) {
                attempts[i] += 1;
                let retry = matches!(&slot, Err(e) if e.is_retryable());
                outcomes[i] = Some(slot);
                if retry && attempt + 1 < max_attempts {
                    still_failing.push(i);
                }
            }
            pending = still_failing;
            attempt += 1;
        }

        // The breaker walk: submission order, realized outcomes. This is
        // the single authority on which jobs count as rejected — worker
        // scheduling cannot influence it.
        let mut trips = 0usize;
        let mut rejected = 0usize;
        let mut final_outcomes: Vec<Result<JobOutput, FarmError>> = Vec::with_capacity(jobs.len());
        for (i, job) in jobs.iter().enumerate() {
            let kind = job.kind();
            let breaker = self.breakers.entry(kind).or_default();
            if let BreakerPosition::Open { cooldown_left } = breaker.position {
                debug_assert!(cooldown_left > 0, "open breakers always carry cooldown");
                let left = cooldown_left - 1;
                breaker.position = if left == 0 {
                    BreakerPosition::HalfOpen
                } else {
                    BreakerPosition::Open {
                        cooldown_left: left,
                    }
                };
                rejected += 1;
                final_outcomes.push(Err(FarmError::BreakerOpen { job_index: i, kind }));
                if let Some(o) = obs {
                    emit_breaker_event(o, kind, breaker.position, breaker.consecutive_failures);
                }
                continue;
            }
            let outcome = outcomes[i]
                .take()
                .expect("non-rejected jobs ran in some wave");
            let failed = outcome.is_err();
            let was_probe = breaker.position == BreakerPosition::HalfOpen;
            if failed {
                breaker.consecutive_failures += 1;
                let trip = was_probe
                    || (self.config.breaker_threshold > 0
                        && breaker.consecutive_failures >= self.config.breaker_threshold);
                if trip && self.config.breaker_threshold > 0 {
                    breaker.position = if self.config.breaker_cooldown == 0 {
                        BreakerPosition::HalfOpen
                    } else {
                        BreakerPosition::Open {
                            cooldown_left: self.config.breaker_cooldown,
                        }
                    };
                    breaker.consecutive_failures = 0;
                    trips += 1;
                    if let Some(o) = obs {
                        emit_breaker_event(o, kind, breaker.position, 0);
                    }
                }
            } else {
                breaker.consecutive_failures = 0;
                if was_probe {
                    breaker.position = BreakerPosition::Closed;
                    if let Some(o) = obs {
                        emit_breaker_event(o, kind, breaker.position, 0);
                    }
                }
            }
            final_outcomes.push(outcome);
        }

        let retried_jobs = attempts.iter().filter(|&&a| a > 1).count();
        let deadline_jobs = final_outcomes
            .iter()
            .filter(|o| matches!(o, Err(FarmError::DeadlineExceeded { .. })))
            .count();

        runner.finish(threads, &final_outcomes, &per_worker);
        if let Some(o) = obs {
            let metrics = o.metrics();
            metrics
                .counter("farm.jobs_retried")
                .add(retried_jobs as u64);
            metrics.counter("farm.jobs_rejected").add(rejected as u64);
            metrics.counter("farm.breaker_trips").add(trips as u64);
            metrics
                .counter("farm.jobs_deadline")
                .add(deadline_jobs as u64);
            for (kind, b) in &self.breakers {
                metrics
                    .gauge(&format!("breaker.state.{kind}"))
                    .set(b.position.gauge_value());
            }
        }
        drop(batch_span);

        SupervisedReport {
            report: BatchReport {
                batch_seed: self.farm.config.batch_seed,
                outcomes: final_outcomes,
            },
            attempts,
            retried_jobs,
            rejected_jobs: rejected,
            deadline_jobs,
            breaker_trips: trips,
        }
    }
}

fn emit_breaker_event(
    o: &crate::FarmObserver,
    kind: &'static str,
    position: BreakerPosition,
    consecutive_failures: u32,
) {
    o.tracer().event(
        "breaker_state",
        &[
            ("kind", kind.into()),
            ("to", position.label().into()),
            (
                "consecutive_failures",
                u64::from(consecutive_failures).into(),
            ),
        ],
    );
    o.metrics()
        .gauge(&format!("breaker.state.{kind}"))
        .set(position.gauge_value());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::ProbeMode;
    use crate::{FarmConfig, FarmObserver};

    fn supervisor(threads: usize, config: SupervisorConfig) -> FarmSupervisor {
        FarmSupervisor::new(
            Farm::new(FarmConfig {
                batch_seed: 0xC0FFEE,
                threads,
            }),
            config,
        )
    }

    fn flaky(p: f64) -> JobSpec {
        JobSpec::Probe(ProbeMode::Flaky { p_fail: p })
    }

    #[test]
    fn clean_batch_matches_unsupervised_run() {
        let jobs: Vec<JobSpec> = (0..12)
            .map(|i| JobSpec::Probe(ProbeMode::Draws(1 + i % 4)))
            .collect();
        let plain = Farm::new(FarmConfig {
            batch_seed: 0xC0FFEE,
            threads: 2,
        })
        .run(&jobs);
        let supervised = supervisor(2, SupervisorConfig::default()).run(&jobs);
        assert_eq!(supervised.report, plain, "attempt 0 uses the canonical RNG");
        assert_eq!(supervised.retried_jobs, 0);
        assert_eq!(supervised.rejected_jobs, 0);
        assert!(supervised.attempts.iter().all(|&a| a == 1));
    }

    #[test]
    fn retries_rescue_flaky_jobs_deterministically() {
        // p_fail = 0.5: with 4 attempts, very likely every job lands
        let jobs: Vec<JobSpec> = (0..16).map(|_| flaky(0.5)).collect();
        let config = SupervisorConfig {
            max_attempts: 4,
            breaker_threshold: 0,
            ..SupervisorConfig::default()
        };
        let oracle = supervisor(1, config).run(&jobs);
        assert!(
            oracle.retried_jobs > 0,
            "a 0.5 failure rate must force some retries"
        );
        assert!(
            oracle.report.ok_count() > oracle.report.outcomes.len() / 2,
            "retries must rescue most flaky jobs: {}",
            oracle.report.render()
        );
        for threads in [2, 8] {
            let run = supervisor(threads, config).run(&jobs);
            assert_eq!(run, oracle, "{threads} threads");
        }
    }

    #[test]
    fn retry_budget_is_bounded() {
        let jobs = vec![JobSpec::Probe(ProbeMode::Fail); 3];
        let config = SupervisorConfig {
            max_attempts: 3,
            breaker_threshold: 0,
            ..SupervisorConfig::default()
        };
        let run = supervisor(2, config).run(&jobs);
        assert_eq!(run.report.ok_count(), 0);
        assert!(run.attempts.iter().all(|&a| a == 3), "{:?}", run.attempts);
        assert_eq!(run.retried_jobs, 3);
    }

    #[test]
    fn breaker_trips_after_threshold_and_recovers_via_probe() {
        // 3 consecutive failures trip the breaker; cooldown 2 rejects the
        // next two probe-kind jobs; the half-open probe (a succeeding
        // job) closes it again.
        let mut jobs = vec![JobSpec::Probe(ProbeMode::Fail); 3];
        jobs.extend(vec![JobSpec::Probe(ProbeMode::Value(1.0)); 4]);
        let config = SupervisorConfig {
            max_attempts: 1,
            breaker_threshold: 3,
            breaker_cooldown: 2,
            job_deadline_ns: None,
        };
        let oracle = supervisor(1, config).run(&jobs);
        assert_eq!(oracle.breaker_trips, 1);
        assert_eq!(oracle.rejected_jobs, 2, "{}", oracle.render());
        assert!(matches!(
            oracle.report.outcomes[3],
            Err(FarmError::BreakerOpen { job_index: 3, .. })
        ));
        assert!(matches!(
            oracle.report.outcomes[4],
            Err(FarmError::BreakerOpen { job_index: 4, .. })
        ));
        // job 5 is the half-open probe and succeeds; job 6 flows normally
        assert!(oracle.report.outcomes[5].is_ok());
        assert!(oracle.report.outcomes[6].is_ok());
        for threads in [2, 8] {
            let run = supervisor(threads, config).run(&jobs);
            assert_eq!(run, oracle, "{threads} threads");
        }
    }

    #[test]
    fn open_breaker_carries_across_batches_and_prefilters() {
        let config = SupervisorConfig {
            max_attempts: 1,
            breaker_threshold: 2,
            breaker_cooldown: 3,
            job_deadline_ns: None,
        };
        let mut sup = supervisor(2, config);
        let run1 = sup.run(&vec![JobSpec::Probe(ProbeMode::Fail); 2]);
        assert_eq!(run1.breaker_trips, 1);
        assert_eq!(
            sup.breaker_states(),
            vec![("probe", BreakerPosition::Open { cooldown_left: 3 })]
        );

        // next batch: the first three probe jobs are rejected WITHOUT
        // running (attempts 0), the fourth runs as the half-open probe
        let run2 = sup.run(&vec![JobSpec::Probe(ProbeMode::Value(7.0)); 4]);
        assert_eq!(run2.rejected_jobs, 3);
        assert_eq!(&run2.attempts[..3], &[0, 0, 0]);
        assert_eq!(run2.attempts[3], 1);
        assert!(
            run2.report.outcomes[3].is_ok(),
            "probe job must run and pass"
        );
        assert_eq!(
            sup.breaker_states(),
            vec![("probe", BreakerPosition::Closed)]
        );
    }

    #[test]
    fn failed_probe_reopens_the_breaker() {
        let config = SupervisorConfig {
            max_attempts: 1,
            breaker_threshold: 1,
            breaker_cooldown: 1,
            job_deadline_ns: None,
        };
        let mut sup = supervisor(1, config);
        // trip (job 0), reject (job 1), half-open probe fails (job 2) →
        // re-open, reject (job 3)
        let run = sup.run(&vec![JobSpec::Probe(ProbeMode::Fail); 4]);
        assert_eq!(run.breaker_trips, 2);
        assert_eq!(run.rejected_jobs, 2);
        assert!(matches!(
            run.report.outcomes[1],
            Err(FarmError::BreakerOpen { .. })
        ));
        assert!(matches!(run.report.outcomes[2], Err(FarmError::Job { .. })));
        assert!(matches!(
            run.report.outcomes[3],
            Err(FarmError::BreakerOpen { .. })
        ));
    }

    #[test]
    fn breakers_are_per_kind() {
        let config = SupervisorConfig {
            max_attempts: 1,
            breaker_threshold: 1,
            breaker_cooldown: 8,
            job_deadline_ns: None,
        };
        let mut sup = supervisor(2, config);
        let jobs = vec![
            JobSpec::Probe(ProbeMode::Fail),
            JobSpec::ProcessVariation {
                thickness_sigma_rel: 0.0,
            },
            JobSpec::Probe(ProbeMode::Value(1.0)),
        ];
        let run = sup.run(&jobs);
        assert!(matches!(
            run.report.outcomes[2],
            Err(FarmError::BreakerOpen { kind: "probe", .. })
        ));
        assert!(
            run.report.outcomes[1].is_ok(),
            "other kinds must be untouched: {}",
            run.render()
        );
    }

    #[test]
    fn supervised_observer_run_is_bit_identical_and_counts_supervision() {
        let jobs: Vec<JobSpec> = (0..8).map(|_| flaky(0.5)).collect();
        let config = SupervisorConfig {
            max_attempts: 3,
            breaker_threshold: 0,
            ..SupervisorConfig::default()
        };
        let plain = supervisor(4, config).run(&jobs);
        let (observer, ring) = FarmObserver::deterministic(8192);
        let farm = Farm::new(FarmConfig {
            batch_seed: 0xC0FFEE,
            threads: 4,
        })
        .with_observer(observer);
        let mut sup = FarmSupervisor::new(farm, config);
        let observed = sup.run(&jobs);
        assert_eq!(observed, plain, "telemetry must not perturb outcomes");
        let metrics = sup.farm().observer().expect("observer").metrics();
        let total_execs: u64 = observed.attempts.iter().map(|&a| u64::from(a)).sum();
        assert_eq!(
            metrics.histogram("farm.solve_ns").count(),
            total_execs,
            "every execution (retries included) is pool work"
        );
        assert_eq!(
            metrics.counter("farm.jobs_retried").get(),
            plain.retried_jobs as u64
        );
        let retry_events = ring
            .events()
            .iter()
            .filter(|e| e.name == "retry_wave")
            .count();
        assert!(retry_events >= 1, "retry waves must announce themselves");
    }

    #[test]
    fn deadline_never_fires_on_a_virtual_clock() {
        let (observer, _ring) = FarmObserver::deterministic(1024);
        let farm = Farm::new(FarmConfig {
            batch_seed: 1,
            threads: 2,
        })
        .with_observer(observer);
        let config = SupervisorConfig {
            job_deadline_ns: Some(1),
            ..SupervisorConfig::default()
        };
        let mut sup = FarmSupervisor::new(farm, config);
        let run = sup.run(&vec![JobSpec::Probe(ProbeMode::Draws(4)); 4]);
        assert_eq!(run.deadline_jobs, 0, "virtual clock never advances");
        assert_eq!(run.report.ok_count(), 4);
    }

    #[test]
    fn deadline_fires_on_a_wall_clock() {
        let (observer, _ring) = FarmObserver::profiling(1024);
        let farm = Farm::new(FarmConfig {
            batch_seed: 1,
            threads: 1,
        })
        .with_observer(observer);
        let config = SupervisorConfig {
            max_attempts: 3,
            breaker_threshold: 0,
            breaker_cooldown: 0,
            job_deadline_ns: Some(1), // 1 ns: any real job busts it
        };
        let mut sup = FarmSupervisor::new(farm, config);
        let run = sup.run(&[JobSpec::Probe(ProbeMode::Draws(10_000))]);
        assert_eq!(run.deadline_jobs, 1, "{}", run.render());
        assert!(matches!(
            run.report.outcomes[0],
            Err(FarmError::DeadlineExceeded {
                job_index: 0,
                deadline_ns: 1,
                ..
            })
        ));
        assert_eq!(run.attempts[0], 1, "deadline busts are not retried");
    }

    #[test]
    fn chaos_scan_batch_is_worker_count_invariant() {
        let jobs = crate::chaos_scan_batch(2, 0xFA_07, 3);
        let config = SupervisorConfig::default();
        let oracle = supervisor(1, config).run(&jobs);
        assert_eq!(oracle.report.ok_count(), 2, "{}", oracle.report.render());
        let degraded: f64 = oracle
            .report
            .metric_values("channels_retried")
            .iter()
            .chain(oracle.report.metric_values("channels_quarantined").iter())
            .sum();
        assert!(
            degraded > 0.0,
            "three faults per scan must degrade something: {}",
            oracle.report.render()
        );
        let parallel = supervisor(4, config).run(&jobs);
        assert_eq!(parallel, oracle);
    }
}
