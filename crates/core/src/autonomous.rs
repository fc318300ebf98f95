//! The autonomous instrument: the digital sequencer driving the real
//! analog system.
//!
//! "…and enables autonomous device operation" — this module closes that
//! loop literally: the [`MeasurementSequencer`] FSM from `canti-digital`
//! issues actions, and this harness executes them against the
//! [`StaticCantileverSystem`], feeding completion events back. No host
//! computer in the loop: power-on → self-test → self-calibration → scan →
//! report.
//!
//! # Fault recovery
//!
//! A fielded instrument cannot phone home when a channel misbehaves, so
//! the controller carries its own recovery policy ([`RecoveryPolicy`]):
//! a failed channel measurement (non-finite output, railed output, or a
//! watchdog trip) is retried up to a bounded number of times with a
//! deterministic tick backoff, and a channel that keeps failing can be
//! *quarantined* — the scan completes without it and the
//! [`ScanReport`] marks it [`ChannelStatus::Quarantined`] instead of
//! aborting the whole pass. The default policy is
//! [`RecoveryPolicy::strict`], which retries nothing and reproduces the
//! pre-recovery behavior bit for bit; [`RecoveryPolicy::resilient`] is
//! the degraded-operation mode.

use std::sync::Arc;

use canti_digital::sequencer::{
    MeasurementSequencer, SequencerAction, SequencerEvent, SequencerState,
};
use canti_fault::FaultInjector;
use canti_obs::{Metrics, SpanGuard, Tracer};
use canti_units::{SurfaceStress, Volts};

use crate::static_system::{StaticCantileverSystem, CHANNELS};
use crate::CoreError;

/// How one channel fared in a scan pass.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum ChannelStatus {
    /// Measured cleanly on the first attempt.
    #[default]
    Ok,
    /// Measured successfully, but only after retries.
    Retried {
        /// Retry attempts that were needed (≥ 1).
        attempts: u32,
    },
    /// Gave up on the channel: its output is NaN and it stays skipped
    /// until [`AutonomousInstrument::clear_quarantine`].
    Quarantined {
        /// Why the channel was quarantined.
        reason: String,
    },
}

impl ChannelStatus {
    /// Whether the channel produced a trustworthy value (possibly after
    /// retries).
    #[must_use]
    pub fn is_usable(&self) -> bool {
        !matches!(self, Self::Quarantined { .. })
    }
}

/// One completed scan pass: the per-channel settled outputs, each with
/// its health status. A quarantined channel's output is NaN.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanReport {
    /// Settled output voltage per channel.
    pub outputs: [Volts; CHANNELS],
    /// Per-channel health of this pass.
    pub status: [ChannelStatus; CHANNELS],
}

impl ScanReport {
    /// Whether every channel measured cleanly on the first attempt.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.status.iter().all(|s| *s == ChannelStatus::Ok)
    }

    /// Channels that needed retries.
    #[must_use]
    pub fn retried_channels(&self) -> usize {
        self.status
            .iter()
            .filter(|s| matches!(s, ChannelStatus::Retried { .. }))
            .count()
    }

    /// Channels that were quarantined (their outputs are NaN).
    #[must_use]
    pub fn quarantined_channels(&self) -> usize {
        self.status
            .iter()
            .filter(|s| matches!(s, ChannelStatus::Quarantined { .. }))
            .count()
    }
}

/// What the instrument does when a channel measurement fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Retry attempts per channel per scan after the first failure.
    pub max_retries: u32,
    /// Watchdog ticks to back off before retry `k` (scaled by
    /// `2^(k-1)`, so successive retries wait longer).
    pub backoff_ticks: u64,
    /// After retries are exhausted, quarantine the channel and finish
    /// the scan degraded instead of aborting it.
    pub quarantine: bool,
}

impl RecoveryPolicy {
    /// No retries, no quarantine: any failure aborts the scan and
    /// latches the sequencer fault — exactly the pre-recovery behavior.
    #[must_use]
    pub fn strict() -> Self {
        Self {
            max_retries: 0,
            backoff_ticks: 0,
            quarantine: false,
        }
    }

    /// Bounded retries with backoff, then quarantine: the
    /// degraded-but-alive mode for unattended operation.
    #[must_use]
    pub fn resilient() -> Self {
        Self {
            max_retries: 2,
            backoff_ticks: 64,
            quarantine: true,
        }
    }

    /// Whether the policy ever deviates from the strict path.
    #[must_use]
    fn is_active(&self) -> bool {
        self.max_retries > 0 || self.quarantine
    }
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self::strict()
    }
}

/// Outcome of one measurement attempt on one channel.
enum AttemptOutcome {
    /// A finite, in-range settled output.
    Ok(Volts),
    /// The analog chain itself errored (configuration-level failure) —
    /// never retried.
    Error(CoreError),
    /// The output is unusable (non-finite or railed); the sequencer is
    /// still scanning, so the attempt may be retried in place.
    BadOutput {
        /// Human-readable cause.
        reason: String,
    },
    /// The watchdog tripped mid-attempt; the sequencer has latched
    /// `Fault` and must be recovered before any retry.
    Watchdog {
        /// Human-readable cause.
        reason: String,
    },
}

/// The self-running instrument.
///
/// # Examples
///
/// ```no_run
/// use canti_core::autonomous::AutonomousInstrument;
/// use canti_core::chip::BiosensorChip;
/// use canti_core::static_system::{StaticCantileverSystem, StaticReadoutConfig};
/// use canti_units::SurfaceStress;
///
/// let chip = BiosensorChip::paper_static_chip()?;
/// let system = StaticCantileverSystem::new(chip, StaticReadoutConfig::default())?;
/// let mut instrument = AutonomousInstrument::new(system)?;
/// instrument.power_on()?;
/// let report = instrument.run_scan([SurfaceStress::zero(); 4], 10_000)?;
/// assert!(report.outputs[0].value().is_finite());
/// # Ok::<(), canti_core::CoreError>(())
/// ```
#[derive(Debug)]
pub struct AutonomousInstrument {
    sequencer: MeasurementSequencer,
    system: StaticCantileverSystem,
    tracer: Tracer,
    policy: RecoveryPolicy,
    /// Channels quarantined by a previous (or the current) scan; they
    /// are skipped until [`Self::clear_quarantine`].
    quarantined: [bool; CHANNELS],
    /// Optional counter sink for fault/recovery accounting.
    metrics: Option<Arc<Metrics>>,
}

impl AutonomousInstrument {
    /// Wraps a system in the autonomous controller with the default
    /// per-channel watchdog budget of 1 M ticks (one tick per electrical
    /// sample measured).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] if the sequencer cannot be configured.
    pub fn new(system: StaticCantileverSystem) -> Result<Self, CoreError> {
        Self::with_watchdog(system, 1_000_000)
    }

    /// Like [`Self::new`] with an explicit watchdog budget: a channel
    /// measurement consuming more than `watchdog_limit` ticks (electrical
    /// samples) trips the sequencer into `Fault`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] if the sequencer cannot be configured (zero
    /// watchdog budget).
    pub fn with_watchdog(
        system: StaticCantileverSystem,
        watchdog_limit: u64,
    ) -> Result<Self, CoreError> {
        Ok(Self {
            sequencer: MeasurementSequencer::new(CHANNELS, watchdog_limit)
                .map_err(CoreError::Digital)?,
            system,
            tracer: Tracer::disabled(),
            policy: RecoveryPolicy::strict(),
            quarantined: [false; CHANNELS],
            metrics: None,
        })
    }

    /// Attaches a tracer to the instrument *and* its sequencer: scan-stage
    /// spans from here and FSM state changes from the sequencer land in
    /// the same collector, interleaved on one sequence counter. Tracing
    /// never alters instrument behavior.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.sequencer.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// Attaches a metrics registry: fault injections, retries and
    /// quarantines are counted under `fault.injected`, `scan.retries`
    /// and `channel.quarantined`. Metrics never alter behavior.
    pub fn set_metrics(&mut self, metrics: Arc<Metrics>) {
        self.metrics = Some(metrics);
    }

    /// Sets the fault-recovery policy (default: [`RecoveryPolicy::strict`]).
    pub fn set_recovery_policy(&mut self, policy: RecoveryPolicy) {
        self.policy = policy;
    }

    /// The active recovery policy.
    #[must_use]
    pub fn recovery_policy(&self) -> RecoveryPolicy {
        self.policy
    }

    /// Attaches a fault injector to the wrapped system (see
    /// [`StaticCantileverSystem::set_fault_injector`]).
    pub fn set_fault_injector(&mut self, injector: Box<dyn FaultInjector>) {
        self.system.set_fault_injector(injector);
    }

    /// Detaches the system's fault injector, returning it.
    pub fn take_fault_injector(&mut self) -> Option<Box<dyn FaultInjector>> {
        self.system.take_fault_injector()
    }

    /// Per-channel quarantine flags (true = skipped in scans).
    #[must_use]
    pub fn quarantined(&self) -> [bool; CHANNELS] {
        self.quarantined
    }

    /// Lifts all quarantines: every channel is measured again on the
    /// next scan (e.g. after servicing the array).
    pub fn clear_quarantine(&mut self) {
        self.quarantined = [false; CHANNELS];
    }

    /// The controller's current state.
    #[must_use]
    pub fn state(&self) -> &SequencerState {
        self.sequencer.state()
    }

    /// Completed scan passes since power-on/reset.
    #[must_use]
    pub fn scans_completed(&self) -> u64 {
        self.sequencer.scans_completed()
    }

    /// The wrapped system (e.g. for responsivity queries).
    #[must_use]
    pub fn system(&self) -> &StaticCantileverSystem {
        &self.system
    }

    fn count(&self, name: &str, n: u64) {
        if let Some(metrics) = &self.metrics {
            metrics.counter(name).add(n);
        }
    }

    /// Power-on sequence: self-test, then self-calibration of all channel
    /// offsets, ending in `Idle`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] if calibration fails; the sequencer latches
    /// `Fault` in that case.
    pub fn power_on(&mut self) -> Result<(), CoreError> {
        let _span = self.tracer.span("power_on", &[]);
        let action = self
            .sequencer
            .handle(SequencerEvent::SelfTestPassed)
            .map_err(CoreError::Digital)?;
        debug_assert_eq!(action, SequencerAction::RunCalibration);
        match self.system.calibrate_offsets() {
            Ok(()) => {
                self.sequencer
                    .handle(SequencerEvent::CalibrationDone)
                    .map_err(CoreError::Digital)?;
                Ok(())
            }
            Err(e) => {
                let _ = self.sequencer.handle(SequencerEvent::CalibrationFailed);
                Err(e)
            }
        }
    }

    /// One measurement attempt on `ch`: draws the attempt's fault
    /// effects, burns the watchdog ticks, runs the analog chain and
    /// validates the output. Returns the outcome together with the
    /// still-open `measure` span so the caller controls when the span
    /// closes relative to its own events (the strict path's trace
    /// ordering depends on it).
    fn measure_attempt(
        &mut self,
        ch: usize,
        sigma: SurfaceStress,
        samples_per_channel: usize,
        recovery_active: bool,
    ) -> (AttemptOutcome, SpanGuard) {
        let faults = self.system.draw_faults(ch);
        let span = self.tracer.span("measure", &[("channel", ch.into())]);
        if !faults.is_none() {
            self.count("fault.injected", 1);
            if self.tracer.is_enabled() {
                let kinds = faults.labels.join(",");
                self.tracer.event(
                    "fault_injected",
                    &[("channel", ch.into()), ("kinds", kinds.into())],
                );
            }
        }
        // settle + data bursts: 2·n samples, one tick each (a slow
        // channel inflates the cost per sample); saturating, so a huge
        // request cannot wrap to a tiny budget and slip past the watchdog
        let ticks = (samples_per_channel as u64)
            .saturating_mul(2)
            .saturating_mul(u64::from(faults.latency_factor.max(1)));
        for _ in 0..ticks {
            if self.sequencer.tick() {
                let reason = format!(
                    "watchdog timeout while measuring channel {ch} \
                     ({ticks} ticks exceed the budget)"
                );
                return (AttemptOutcome::Watchdog { reason }, span);
            }
        }
        let outcome = match self
            .system
            .measure_with_faults(ch, sigma, samples_per_channel, &faults)
        {
            Err(e) => AttemptOutcome::Error(e),
            Ok(v) if !v.value().is_finite() => AttemptOutcome::BadOutput {
                reason: format!("non-finite output on channel {ch}"),
            },
            Ok(v)
                if recovery_active
                    && v.value().abs() >= 0.999 * self.system.config().supply_rail =>
            {
                AttemptOutcome::BadOutput {
                    reason: format!("railed output on channel {ch} ({v})"),
                }
            }
            Ok(v) => AttemptOutcome::Ok(v),
        };
        (outcome, span)
    }

    /// Burns `backoff_ticks · 2^(attempt-1)` watchdog ticks before retry
    /// number `attempt`. Returns `true` if the watchdog tripped during
    /// the wait (only possible while the sequencer is actively scanning).
    fn backoff(&mut self, attempt: u32) -> bool {
        if self.policy.backoff_ticks == 0 {
            return false;
        }
        let ticks = self
            .policy
            .backoff_ticks
            .saturating_mul(1u64 << u64::from((attempt - 1).min(32)));
        (0..ticks).any(|_| self.sequencer.tick())
    }

    /// Clears a latched sequencer fault and drives the FSM back to
    /// `Scanning { channel: ch }` by re-issuing `StartScan` and
    /// fast-forwarding the already-resolved channels (their recorded
    /// outputs stand; nothing is re-measured).
    fn recover_scan_to(&mut self, ch: usize) -> Result<(), CoreError> {
        if !self.sequencer.recover() {
            return Err(CoreError::Config {
                reason: format!("recovery requested outside a fault (channel {ch})"),
            });
        }
        let mut action = self
            .sequencer
            .handle(SequencerEvent::StartScan)
            .map_err(CoreError::Digital)?;
        for _ in 0..ch {
            debug_assert!(matches!(action, SequencerAction::MeasureChannel(_)));
            action = self
                .sequencer
                .handle(SequencerEvent::ChannelDone)
                .map_err(CoreError::Digital)?;
        }
        debug_assert_eq!(action, SequencerAction::MeasureChannel(ch));
        Ok(())
    }

    /// Runs one complete scan pass under the sequencer's control:
    /// `StartScan` → measure each channel the FSM asks for → `Report`.
    ///
    /// Each electrical sample of a channel's settle+measure burst costs
    /// one watchdog tick, so a measurement longer than the sequencer's
    /// budget trips the watchdog. A measurement returning a non-finite
    /// voltage (a railed or broken chain) fails the attempt.
    ///
    /// Under [`RecoveryPolicy::strict`] (the default) any failed attempt
    /// latches `Fault` and aborts the scan, exactly as before the
    /// recovery layer existed. With retries enabled, a failed attempt is
    /// retried after a deterministic backoff (a watchdog trip is first
    /// cleared via the sequencer's recovery transition); with quarantine
    /// enabled, a channel that exhausts its retries is marked
    /// [`ChannelStatus::Quarantined`], reported as NaN, and skipped in
    /// subsequent scans — the pass itself still completes.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] if triggered outside `Idle`, or — when the
    /// policy does not absorb the failure — on a watchdog trip, a
    /// measurement error or a non-finite output (the sequencer faults in
    /// all those cases).
    pub fn run_scan(
        &mut self,
        sigmas: [SurfaceStress; CHANNELS],
        samples_per_channel: usize,
    ) -> Result<ScanReport, CoreError> {
        let _scan_span = self.tracer.span(
            "scan",
            &[("samples_per_channel", samples_per_channel.into())],
        );
        let mut action = self
            .sequencer
            .handle(SequencerEvent::StartScan)
            .map_err(CoreError::Digital)?;
        if matches!(self.sequencer.state(), SequencerState::Fault { .. }) {
            let reason = format!(
                "scan triggered in invalid state: {:?}",
                self.sequencer.state()
            );
            self.tracer
                .event("scan_fault", &[("reason", reason.clone().into())]);
            return Err(CoreError::Config { reason });
        }
        let recovery_active = self.policy.is_active();
        let mut outputs = [Volts::zero(); CHANNELS];
        let mut status: [ChannelStatus; CHANNELS] = Default::default();
        loop {
            match action {
                SequencerAction::MeasureChannel(ch) => {
                    if self.quarantined[ch] {
                        outputs[ch] = Volts::new(f64::NAN);
                        status[ch] = ChannelStatus::Quarantined {
                            reason: "quarantined by an earlier scan".to_owned(),
                        };
                        self.tracer
                            .event("channel_skipped", &[("channel", ch.into())]);
                        action = self
                            .sequencer
                            .handle(SequencerEvent::ChannelDone)
                            .map_err(CoreError::Digital)?;
                        continue;
                    }
                    let mut attempt: u32 = 0;
                    let resolved: Result<Volts, String> = loop {
                        let (outcome, span) = self.measure_attempt(
                            ch,
                            sigmas[ch],
                            samples_per_channel,
                            recovery_active,
                        );
                        match outcome {
                            AttemptOutcome::Ok(v) => {
                                span.end();
                                break Ok(v);
                            }
                            AttemptOutcome::Error(e) => {
                                // configuration-level failure: never retried
                                let _ = self.sequencer.handle(SequencerEvent::MeasurementFailed);
                                self.tracer
                                    .event("scan_fault", &[("reason", e.to_string().into())]);
                                return Err(e);
                            }
                            AttemptOutcome::BadOutput { reason } => {
                                if attempt < self.policy.max_retries {
                                    attempt += 1;
                                    self.count("scan.retries", 1);
                                    self.tracer.event(
                                        "measure_retry",
                                        &[
                                            ("channel", ch.into()),
                                            ("attempt", u64::from(attempt).into()),
                                            ("reason", reason.clone().into()),
                                        ],
                                    );
                                    drop(span);
                                    if self.backoff(attempt) {
                                        // the wait itself blew the budget:
                                        // clear the latch before retrying
                                        self.recover_scan_to(ch)?;
                                    }
                                    continue;
                                }
                                if self.policy.quarantine {
                                    drop(span);
                                    break Err(reason);
                                }
                                let _ = self.sequencer.handle(SequencerEvent::MeasurementFailed);
                                self.tracer
                                    .event("scan_fault", &[("reason", reason.clone().into())]);
                                return Err(CoreError::Config { reason });
                            }
                            AttemptOutcome::Watchdog { reason } => {
                                if attempt < self.policy.max_retries {
                                    attempt += 1;
                                    self.count("scan.retries", 1);
                                    self.tracer.event(
                                        "measure_retry",
                                        &[
                                            ("channel", ch.into()),
                                            ("attempt", u64::from(attempt).into()),
                                            ("reason", reason.clone().into()),
                                        ],
                                    );
                                    drop(span);
                                    // backoff while latched is free of
                                    // budget, then clear the latch
                                    let _ = self.backoff(attempt);
                                    self.recover_scan_to(ch)?;
                                    continue;
                                }
                                if self.policy.quarantine {
                                    drop(span);
                                    self.recover_scan_to(ch)?;
                                    break Err(reason);
                                }
                                self.tracer
                                    .event("scan_fault", &[("reason", reason.clone().into())]);
                                return Err(CoreError::Config { reason });
                            }
                        }
                    };
                    match resolved {
                        Ok(v) => {
                            outputs[ch] = v;
                            status[ch] = if attempt > 0 {
                                ChannelStatus::Retried { attempts: attempt }
                            } else {
                                ChannelStatus::Ok
                            };
                        }
                        Err(reason) => {
                            self.quarantined[ch] = true;
                            outputs[ch] = Volts::new(f64::NAN);
                            self.count("channel.quarantined", 1);
                            self.tracer.event(
                                "channel_quarantined",
                                &[
                                    ("channel", ch.into()),
                                    ("attempts", u64::from(attempt + 1).into()),
                                    ("reason", reason.clone().into()),
                                ],
                            );
                            status[ch] = ChannelStatus::Quarantined { reason };
                        }
                    }
                    action = self
                        .sequencer
                        .handle(SequencerEvent::ChannelDone)
                        .map_err(CoreError::Digital)?;
                }
                SequencerAction::Report => {
                    self.tracer.event(
                        "scan_report",
                        &[("scans_completed", self.sequencer.scans_completed().into())],
                    );
                    return Ok(ScanReport { outputs, status });
                }
                other => {
                    let reason = format!("unexpected sequencer action {other:?}");
                    self.tracer
                        .event("scan_fault", &[("reason", reason.clone().into())]);
                    return Err(CoreError::Config { reason });
                }
            }
        }
    }

    /// Resets the controller (fault recovery); the system keeps its
    /// calibration until the next [`Self::power_on`].
    pub fn reset(&mut self) {
        let _ = self.sequencer.handle(SequencerEvent::Reset);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::BiosensorChip;
    use crate::static_system::StaticReadoutConfig;

    fn instrument() -> AutonomousInstrument {
        let system = StaticCantileverSystem::new(
            BiosensorChip::paper_static_chip().unwrap(),
            StaticReadoutConfig::default(),
        )
        .unwrap();
        AutonomousInstrument::new(system).unwrap()
    }

    #[test]
    fn full_autonomous_cycle() {
        let mut inst = instrument();
        assert_eq!(inst.state(), &SequencerState::PowerOn);
        inst.power_on().unwrap();
        assert_eq!(inst.state(), &SequencerState::Idle);

        let mut sigmas = [SurfaceStress::zero(); CHANNELS];
        sigmas[1] = SurfaceStress::from_millinewtons_per_meter(4.0);
        let baseline = inst
            .run_scan([SurfaceStress::zero(); CHANNELS], 8_000)
            .unwrap();
        let report = inst.run_scan(sigmas, 8_000).unwrap();
        assert_eq!(inst.scans_completed(), 2);
        assert_eq!(inst.state(), &SequencerState::Idle);
        assert!(report.is_clean());

        // the stressed channel moved; the others stayed
        let delta = |ch: usize| (report.outputs[ch] - baseline.outputs[ch]).value().abs();
        assert!(delta(1) > 2e-3, "channel 1 moved {}", delta(1));
        assert!(delta(0) < delta(1) / 5.0);
        assert!(delta(3) < delta(1) / 5.0);
    }

    #[test]
    fn watchdog_timeout_faults_the_scan() {
        let system = StaticCantileverSystem::new(
            BiosensorChip::paper_static_chip().unwrap(),
            StaticReadoutConfig::default(),
        )
        .unwrap();
        // budget of 100 ticks per channel, but a 1000-sample measurement
        // costs 2000 ticks: the watchdog must fire before channel 0 is done
        let mut inst = AutonomousInstrument::with_watchdog(system, 100).unwrap();
        inst.power_on().unwrap();
        let err = inst
            .run_scan([SurfaceStress::zero(); CHANNELS], 1_000)
            .unwrap_err();
        assert!(err.to_string().contains("watchdog"), "{err}");
        assert!(
            matches!(inst.state(), SequencerState::Fault { reason } if reason.contains("watchdog")),
            "{:?}",
            inst.state()
        );
        // the fault is recoverable: reset, power back on, scan gently
        inst.reset();
        inst.power_on().unwrap();
        let report = inst
            .run_scan([SurfaceStress::zero(); CHANNELS], 40)
            .unwrap();
        assert!(report.outputs[0].value().is_finite());
    }

    #[test]
    fn huge_sample_count_trips_the_watchdog() {
        // 2 · 2^63 ticks overflows u64: the budget must saturate, not wrap
        // to zero ticks and then stream 2^63 samples
        let system = StaticCantileverSystem::new(
            BiosensorChip::paper_static_chip().unwrap(),
            StaticReadoutConfig::default(),
        )
        .unwrap();
        let mut inst = AutonomousInstrument::with_watchdog(system, 100).unwrap();
        inst.power_on().unwrap();
        let err = inst
            .run_scan([SurfaceStress::zero(); CHANNELS], 1 << 63)
            .unwrap_err();
        assert!(err.to_string().contains("watchdog"), "{err}");
    }

    #[test]
    fn non_finite_output_faults_the_scan() {
        let mut inst = instrument();
        inst.power_on().unwrap();
        // a zero-sample measurement averages an empty burst: NaN out of
        // the chain, which the controller must refuse to report
        let err = inst
            .run_scan([SurfaceStress::zero(); CHANNELS], 0)
            .unwrap_err();
        assert!(err.to_string().contains("non-finite"), "{err}");
        assert!(
            matches!(inst.state(), SequencerState::Fault { reason } if reason.contains("channel 0")),
            "{:?}",
            inst.state()
        );
        // latched: another scan attempt fails immediately
        assert!(inst
            .run_scan([SurfaceStress::zero(); CHANNELS], 1_000)
            .is_err());
        inst.reset();
        inst.power_on().unwrap();
        assert_eq!(inst.state(), &SequencerState::Idle);
    }

    #[test]
    fn traced_scan_emits_stage_spans_interleaved_with_fsm_events() {
        use canti_obs::clock::VirtualClock;
        use canti_obs::trace::{EventKind, RingCollector};
        use std::sync::Arc;

        let ring = Arc::new(RingCollector::new(256));
        let tracer = Tracer::new(Arc::clone(&ring), Arc::new(VirtualClock::new()));
        let mut inst = instrument();
        inst.set_tracer(tracer);
        inst.power_on().unwrap();
        inst.run_scan([SurfaceStress::zero(); CHANNELS], 40)
            .unwrap();

        let names: Vec<(EventKind, String)> = ring
            .events()
            .iter()
            .map(|e| (e.kind, e.name.to_owned()))
            .collect();
        use EventKind as K;
        let expect = |kind, name: &str| (kind, name.to_owned());
        let mut expected = vec![
            expect(K::SpanStart, "power_on"),
            expect(K::Event, "state_change"), // power_on -> calibrating
            expect(K::Event, "state_change"), // calibrating -> idle
            expect(K::SpanEnd, "power_on"),
            expect(K::SpanStart, "scan"),
            expect(K::Event, "state_change"), // idle -> scanning(0)
        ];
        for _ in 0..CHANNELS {
            expected.push(expect(K::SpanStart, "measure"));
            expected.push(expect(K::SpanEnd, "measure"));
            expected.push(expect(K::Event, "state_change")); // next channel / idle
        }
        expected.push(expect(K::Event, "scan_report"));
        expected.push(expect(K::SpanEnd, "scan"));
        assert_eq!(names, expected);
        // the trace is one gap-free stream across instrument and sequencer
        let events = ring.events();
        assert!(events.iter().enumerate().all(|(i, e)| e.seq == i as u64));
    }

    #[test]
    fn traced_fault_carries_the_reason() {
        use canti_obs::clock::VirtualClock;
        use canti_obs::ndjson::JsonValue;
        use canti_obs::trace::RingCollector;
        use std::sync::Arc;

        let ring = Arc::new(RingCollector::new(256));
        let tracer = Tracer::new(Arc::clone(&ring), Arc::new(VirtualClock::new()));
        let mut inst = instrument();
        inst.set_tracer(tracer);
        inst.power_on().unwrap();
        // zero samples -> NaN out of the chain -> MeasurementFailed
        inst.run_scan([SurfaceStress::zero(); CHANNELS], 0)
            .unwrap_err();
        let events = ring.events();
        let names: Vec<&str> = events.iter().map(|e| e.name).collect();
        // sequencer-side failure event, its fault transition, then the
        // instrument-side scan_fault — in that order
        let mf = names
            .iter()
            .position(|n| *n == "measurement_failed")
            .unwrap();
        let sf = names.iter().position(|n| *n == "scan_fault").unwrap();
        assert!(mf < sf, "{names:?}");
        match events[sf].field("reason") {
            Some(JsonValue::Str(r)) => assert!(r.contains("non-finite"), "{r}"),
            other => panic!("scan_fault must carry a reason, got {other:?}"),
        }
        // every opened span still closes on the error path
        let starts = events
            .iter()
            .filter(|e| e.kind == canti_obs::trace::EventKind::SpanStart)
            .count();
        let ends = events
            .iter()
            .filter(|e| e.kind == canti_obs::trace::EventKind::SpanEnd)
            .count();
        assert_eq!(starts, ends, "{names:?}");
    }

    #[test]
    fn scan_before_power_on_faults() {
        let mut inst = instrument();
        let err = inst
            .run_scan([SurfaceStress::zero(); CHANNELS], 1_000)
            .unwrap_err();
        assert!(err.to_string().contains("invalid state"), "{err}");
        assert!(matches!(inst.state(), SequencerState::Fault { .. }));
        // recoverable
        inst.reset();
        inst.power_on().unwrap();
        assert_eq!(inst.state(), &SequencerState::Idle);
    }

    mod recovery {
        use super::*;
        use canti_fault::{FaultEvent, FaultKind, FaultPlan, PlannedInjector};

        fn injected(plan: FaultPlan, policy: RecoveryPolicy) -> AutonomousInstrument {
            let mut inst = instrument();
            inst.set_recovery_policy(policy);
            inst.set_fault_injector(Box::new(PlannedInjector::new(plan)));
            inst.power_on().unwrap();
            inst
        }

        fn broken(channel: usize, from: u64, duration: Option<u64>) -> FaultEvent {
            FaultEvent {
                channel,
                kind: FaultKind::BrokenCantilever,
                from_attempt: from,
                duration,
            }
        }

        #[test]
        fn transient_fault_is_retried_to_success() {
            // channel 1 is broken for its first attempt only: the retry
            // succeeds and the report marks the channel Retried
            let plan = FaultPlan::new(vec![broken(1, 0, Some(1))]);
            let mut inst = injected(plan, RecoveryPolicy::resilient());
            let report = inst
                .run_scan([SurfaceStress::zero(); CHANNELS], 2_000)
                .unwrap();
            assert_eq!(report.status[1], ChannelStatus::Retried { attempts: 1 });
            assert!(report.outputs[1].value().is_finite());
            assert!(report.status[0] == ChannelStatus::Ok);
            assert_eq!(report.retried_channels(), 1);
            assert_eq!(report.quarantined_channels(), 0);
            assert_eq!(inst.state(), &SequencerState::Idle);
        }

        #[test]
        fn permanent_fault_is_quarantined_and_the_scan_completes() {
            let plan = FaultPlan::new(vec![broken(2, 0, None)]);
            let mut inst = injected(plan, RecoveryPolicy::resilient());
            let report = inst
                .run_scan([SurfaceStress::zero(); CHANNELS], 2_000)
                .unwrap();
            assert!(matches!(
                &report.status[2],
                ChannelStatus::Quarantined { reason } if reason.contains("non-finite")
            ));
            assert!(report.outputs[2].value().is_nan());
            assert!(report.outputs[0].value().is_finite());
            assert_eq!(inst.scans_completed(), 1);
            // the quarantine persists: the next scan skips the channel
            // without consuming injector attempts
            let attempts_before = inst.take_fault_injector().unwrap().attempts(2);
            let report2 = inst
                .run_scan([SurfaceStress::zero(); CHANNELS], 2_000)
                .unwrap();
            assert!(report2.outputs[2].value().is_nan());
            assert_eq!(report2.quarantined_channels(), 1);
            assert_eq!(inst.quarantined(), [false, false, true, false]);
            assert_eq!(
                attempts_before,
                1 + inst.recovery_policy().max_retries as u64
            );
            // servicing the array lifts the quarantine
            inst.clear_quarantine();
            let report3 = inst
                .run_scan([SurfaceStress::zero(); CHANNELS], 2_000)
                .unwrap();
            assert!(report3.outputs[2].value().is_finite());
            assert!(report3.is_clean());
        }

        #[test]
        fn strict_policy_still_aborts_on_fault() {
            let plan = FaultPlan::new(vec![broken(0, 0, Some(1))]);
            let mut inst = injected(plan, RecoveryPolicy::strict());
            let err = inst
                .run_scan([SurfaceStress::zero(); CHANNELS], 2_000)
                .unwrap_err();
            assert!(err.to_string().contains("non-finite"), "{err}");
            assert!(matches!(inst.state(), SequencerState::Fault { .. }));
        }

        #[test]
        fn slow_channel_watchdog_trip_recovers_and_retries() {
            // 2000 samples cost 4000 ticks; a 4x-slow channel costs
            // 16000, blowing a 6000-tick budget. The fault is transient,
            // so the retry (after sequencer recovery) succeeds.
            let system = StaticCantileverSystem::new(
                BiosensorChip::paper_static_chip().unwrap(),
                StaticReadoutConfig::default(),
            )
            .unwrap();
            let mut inst = AutonomousInstrument::with_watchdog(system, 6_000).unwrap();
            inst.set_recovery_policy(RecoveryPolicy::resilient());
            let plan = FaultPlan::new(vec![FaultEvent {
                channel: 1,
                kind: FaultKind::SlowChannel { latency_factor: 4 },
                from_attempt: 0,
                duration: Some(1),
            }]);
            inst.set_fault_injector(Box::new(PlannedInjector::new(plan)));
            inst.power_on().unwrap();
            let report = inst
                .run_scan([SurfaceStress::zero(); CHANNELS], 2_000)
                .unwrap();
            assert_eq!(report.status[1], ChannelStatus::Retried { attempts: 1 });
            assert!(report.outputs[1].value().is_finite());
            // channels 0, 2, 3 measured exactly once despite the restart
            assert!(report.status[0] == ChannelStatus::Ok);
            assert!(report.status[2] == ChannelStatus::Ok);
            assert_eq!(inst.state(), &SequencerState::Idle);
            assert_eq!(inst.scans_completed(), 1);
        }

        #[test]
        fn saturated_channel_is_caught_by_rail_detection() {
            let plan = FaultPlan::new(vec![FaultEvent {
                channel: 0,
                kind: FaultKind::AdcSaturation,
                from_attempt: 0,
                duration: None,
            }]);
            let mut inst = injected(plan, RecoveryPolicy::resilient());
            let report = inst
                .run_scan([SurfaceStress::zero(); CHANNELS], 2_000)
                .unwrap();
            assert!(matches!(
                &report.status[0],
                ChannelStatus::Quarantined { reason } if reason.contains("railed")
            ));
        }

        #[test]
        fn recovery_emits_retry_and_quarantine_telemetry() {
            use canti_obs::clock::VirtualClock;
            use canti_obs::trace::RingCollector;
            use std::sync::Arc;

            let ring = Arc::new(RingCollector::new(1024));
            let tracer = Tracer::new(Arc::clone(&ring), Arc::new(VirtualClock::new()));
            let metrics = Arc::new(Metrics::new());
            let plan = FaultPlan::new(vec![broken(1, 0, None), broken(3, 0, Some(1))]);
            let mut inst = injected(plan, RecoveryPolicy::resilient());
            inst.set_tracer(tracer);
            inst.set_metrics(Arc::clone(&metrics));
            let report = inst
                .run_scan([SurfaceStress::zero(); CHANNELS], 2_000)
                .unwrap();
            assert_eq!(report.quarantined_channels(), 1);
            assert_eq!(report.retried_channels(), 1);

            let names: Vec<String> = ring.events().iter().map(|e| e.name.to_owned()).collect();
            assert!(names.iter().any(|n| n == "fault_injected"), "{names:?}");
            assert!(names.iter().any(|n| n == "measure_retry"), "{names:?}");
            assert!(
                names.iter().any(|n| n == "channel_quarantined"),
                "{names:?}"
            );
            // ch 1: 3 failed attempts (2 retries); ch 3: 1 failure (1 retry)
            assert_eq!(metrics.counter("scan.retries").get(), 3);
            assert_eq!(metrics.counter("channel.quarantined").get(), 1);
            // ch 1 injected on all 3 attempts, ch 3 on its first only
            assert_eq!(metrics.counter("fault.injected").get(), 4);
            // the trace stream stays gap-free through recovery
            let events = ring.events();
            assert!(events.iter().enumerate().all(|(i, e)| e.seq == i as u64));
            // every opened span closes even on the degraded path
            use canti_obs::trace::EventKind as K;
            let starts = events.iter().filter(|e| e.kind == K::SpanStart).count();
            let ends = events.iter().filter(|e| e.kind == K::SpanEnd).count();
            assert_eq!(starts, ends);
        }

        #[test]
        fn no_faults_injector_matches_no_injector_bit_for_bit() {
            use canti_fault::NoFaults;
            let sigmas = [
                SurfaceStress::from_millinewtons_per_meter(1.0),
                SurfaceStress::from_millinewtons_per_meter(2.0),
                SurfaceStress::zero(),
                SurfaceStress::zero(),
            ];
            let mut plain = instrument();
            plain.power_on().unwrap();
            let a = plain.run_scan(sigmas, 400).unwrap();

            let mut wired = instrument();
            wired.set_fault_injector(Box::new(NoFaults));
            wired.power_on().unwrap();
            let b = wired.run_scan(sigmas, 400).unwrap();
            assert_eq!(a, b, "NoFaults must be indistinguishable from no injector");
            for ch in 0..CHANNELS {
                assert_eq!(
                    a.outputs[ch].value().to_bits(),
                    b.outputs[ch].value().to_bits(),
                    "channel {ch} must be bit-identical"
                );
            }
        }
    }
}
