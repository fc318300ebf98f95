//! The autonomous measurement sequencer: the on-chip controller FSM.
//!
//! "Enables autonomous device operation" ultimately means a state machine
//! next to the analog blocks: power up, self-calibrate the offset DACs,
//! scan the mux channels, report, repeat — with a watchdog so a stuck
//! analog step faults instead of hanging the instrument.
//!
//! The sequencer is deliberately event-driven and side-effect-free: the
//! surrounding system feeds it events ([`SequencerEvent`]) and executes
//! whatever [`SequencerAction`] it returns. That makes every transition
//! unit-testable without analog machinery.

use canti_obs::ndjson::JsonValue;
use canti_obs::Tracer;

use crate::DigitalError;

/// Controller states.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SequencerState {
    /// Just powered, nothing trusted yet.
    PowerOn,
    /// Offset calibration in progress.
    Calibrating,
    /// Calibrated and waiting for a scan trigger.
    Idle,
    /// Scanning the mux; `channel` is in progress.
    Scanning {
        /// Channel currently being measured.
        channel: usize,
    },
    /// Latched fault; only `Reset` leaves it.
    Fault {
        /// Human-readable cause.
        reason: String,
    },
}

/// Events fed to the sequencer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SequencerEvent {
    /// Power-on self test passed.
    SelfTestPassed,
    /// The offset calibration routine finished.
    CalibrationDone,
    /// The offset calibration routine failed (e.g. DAC range exceeded).
    CalibrationFailed,
    /// Host/system requests a scan pass.
    StartScan,
    /// The current channel's measurement is complete.
    ChannelDone,
    /// The current channel's measurement failed (e.g. a non-finite or
    /// out-of-range output).
    MeasurementFailed,
    /// Fault acknowledgment / global reset.
    Reset,
}

/// Actions the surrounding system must execute after a transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SequencerAction {
    /// Run the offset-calibration routine.
    RunCalibration,
    /// Select and measure `channel`.
    MeasureChannel(usize),
    /// A full scan finished; report the results.
    Report,
    /// Nothing to do.
    None,
}

/// The measurement controller.
///
/// # Examples
///
/// ```
/// use canti_digital::sequencer::{MeasurementSequencer, SequencerEvent, SequencerAction, SequencerState};
///
/// let mut seq = MeasurementSequencer::new(4, 1000)?;
/// assert_eq!(seq.handle(SequencerEvent::SelfTestPassed)?, SequencerAction::RunCalibration);
/// assert_eq!(seq.handle(SequencerEvent::CalibrationDone)?, SequencerAction::None);
/// assert_eq!(seq.handle(SequencerEvent::StartScan)?, SequencerAction::MeasureChannel(0));
/// # Ok::<(), canti_digital::DigitalError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MeasurementSequencer {
    state: SequencerState,
    channels: usize,
    /// Watchdog budget per state, in ticks.
    watchdog_limit: u64,
    ticks_in_state: u64,
    /// Completed scan passes since reset.
    scans_completed: u64,
    /// Whether a calibration has completed since the last reset — the
    /// precondition for fault recovery straight back to `Idle`.
    calibrated: bool,
    /// Trace sink for state changes and faults; disabled (one branch per
    /// transition) unless attached via [`Self::with_tracer`].
    tracer: Tracer,
}

/// Equality is over the controller state only — the attached tracer is
/// diagnostics plumbing, not sequencer state.
impl PartialEq for MeasurementSequencer {
    fn eq(&self, other: &Self) -> bool {
        self.state == other.state
            && self.channels == other.channels
            && self.watchdog_limit == other.watchdog_limit
            && self.ticks_in_state == other.ticks_in_state
            && self.scans_completed == other.scans_completed
            && self.calibrated == other.calibrated
    }
}

fn state_label(state: &SequencerState) -> &'static str {
    match state {
        SequencerState::PowerOn => "power_on",
        SequencerState::Calibrating => "calibrating",
        SequencerState::Idle => "idle",
        SequencerState::Scanning { .. } => "scanning",
        SequencerState::Fault { .. } => "fault",
    }
}

impl MeasurementSequencer {
    /// Creates a sequencer for `channels` mux channels with a per-state
    /// watchdog budget of `watchdog_limit` ticks.
    ///
    /// # Errors
    ///
    /// Returns [`DigitalError`] for zero channels or a zero watchdog.
    pub fn new(channels: usize, watchdog_limit: u64) -> Result<Self, DigitalError> {
        if channels == 0 {
            return Err(DigitalError::NonPositive {
                what: "sequencer channels",
                value: 0.0,
            });
        }
        if watchdog_limit == 0 {
            return Err(DigitalError::NonPositive {
                what: "watchdog limit",
                value: 0.0,
            });
        }
        Ok(Self {
            state: SequencerState::PowerOn,
            channels,
            watchdog_limit,
            ticks_in_state: 0,
            scans_completed: 0,
            calibrated: false,
            tracer: Tracer::disabled(),
        })
    }

    /// Attaches a tracer; every subsequent state change, watchdog trip
    /// and measurement failure is emitted as a structured event. Tracing
    /// never alters transition behavior.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Replaces the attached tracer in place (see [`Self::with_tracer`]).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Current state.
    #[must_use]
    pub fn state(&self) -> &SequencerState {
        &self.state
    }

    /// Completed scan passes since the last reset.
    #[must_use]
    pub fn scans_completed(&self) -> u64 {
        self.scans_completed
    }

    fn goto(&mut self, state: SequencerState) {
        if self.tracer.is_enabled() && state != self.state {
            let mut fields: Vec<(&'static str, JsonValue)> = vec![
                ("from", state_label(&self.state).into()),
                ("to", state_label(&state).into()),
            ];
            match &state {
                SequencerState::Scanning { channel } => {
                    fields.push(("channel", (*channel).into()));
                }
                SequencerState::Fault { reason } => {
                    fields.push(("reason", reason.clone().into()));
                }
                _ => {}
            }
            self.tracer.event("state_change", &fields);
        }
        self.state = state;
        self.ticks_in_state = 0;
    }

    /// Handles one event, returning the action to execute.
    ///
    /// Unexpected events in a state latch a [`SequencerState::Fault`] —
    /// silent event swallowing is how real sequencers end up in undefined
    /// states.
    ///
    /// # Errors
    ///
    /// Never errs currently; the `Result` reserves room for future
    /// hard-failure signaling.
    pub fn handle(&mut self, event: SequencerEvent) -> Result<SequencerAction, DigitalError> {
        use SequencerEvent as E;
        use SequencerState as S;

        // Reset works from anywhere.
        if event == E::Reset {
            self.goto(S::PowerOn);
            self.scans_completed = 0;
            self.calibrated = false;
            return Ok(SequencerAction::None);
        }

        let (next, action) = match (&self.state, &event) {
            (S::PowerOn, E::SelfTestPassed) => (S::Calibrating, SequencerAction::RunCalibration),
            (S::Calibrating, E::CalibrationDone) => {
                self.calibrated = true;
                (S::Idle, SequencerAction::None)
            }
            (S::Calibrating, E::CalibrationFailed) => (
                S::Fault {
                    reason: "offset calibration failed".to_owned(),
                },
                SequencerAction::None,
            ),
            (S::Idle, E::StartScan) => (
                S::Scanning { channel: 0 },
                SequencerAction::MeasureChannel(0),
            ),
            (S::Scanning { channel }, E::MeasurementFailed) => {
                self.tracer
                    .event("measurement_failed", &[("channel", (*channel).into())]);
                (
                    S::Fault {
                        reason: format!("measurement failed on channel {channel}"),
                    },
                    SequencerAction::None,
                )
            }
            (S::Scanning { channel }, E::ChannelDone) => {
                let next_ch = channel + 1;
                if next_ch >= self.channels {
                    self.scans_completed += 1;
                    (S::Idle, SequencerAction::Report)
                } else {
                    (
                        S::Scanning { channel: next_ch },
                        SequencerAction::MeasureChannel(next_ch),
                    )
                }
            }
            (S::Fault { .. }, _) => (self.state.clone(), SequencerAction::None),
            (state, event) => (
                S::Fault {
                    reason: format!("unexpected {event:?} in {state:?}"),
                },
                SequencerAction::None,
            ),
        };
        self.goto(next);
        Ok(action)
    }

    /// Clears a latched fault without a full reset: back to `Idle` when
    /// a calibration has completed since the last reset (the instrument
    /// can scan again immediately), back to `PowerOn` otherwise (nothing
    /// downstream is trusted yet). Unlike [`SequencerEvent::Reset`],
    /// recovery keeps the completed-scan count and calibration flag.
    ///
    /// Emits a `recovered` trace event carrying the cleared reason, then
    /// the usual `state_change`. Returns `true` if a fault was cleared;
    /// outside `Fault` this is a no-op returning `false`.
    pub fn recover(&mut self) -> bool {
        let SequencerState::Fault { reason } = &self.state else {
            return false;
        };
        let next = if self.calibrated {
            SequencerState::Idle
        } else {
            SequencerState::PowerOn
        };
        self.tracer.event(
            "recovered",
            &[
                ("reason", reason.clone().into()),
                ("to", state_label(&next).into()),
            ],
        );
        self.goto(next);
        true
    }

    /// Whether a calibration has completed since the last reset.
    #[must_use]
    pub fn is_calibrated(&self) -> bool {
        self.calibrated
    }

    /// Advances the watchdog one tick; trips to `Fault` when a state
    /// overstays its budget. Returns `true` if the watchdog fired.
    pub fn tick(&mut self) -> bool {
        if matches!(
            self.state,
            SequencerState::Idle | SequencerState::Fault { .. }
        ) {
            // Idle may legitimately wait forever; Fault is already latched.
            return false;
        }
        self.ticks_in_state += 1;
        if self.ticks_in_state > self.watchdog_limit {
            self.tracer.event(
                "watchdog_trip",
                &[
                    ("state", state_label(&self.state).into()),
                    ("ticks", self.ticks_in_state.into()),
                ],
            );
            self.goto(SequencerState::Fault {
                reason: "watchdog timeout".to_owned(),
            });
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use SequencerAction as A;
    use SequencerEvent as E;
    use SequencerState as S;

    fn ready() -> MeasurementSequencer {
        let mut seq = MeasurementSequencer::new(4, 100).unwrap();
        seq.handle(E::SelfTestPassed).unwrap();
        seq.handle(E::CalibrationDone).unwrap();
        seq
    }

    #[test]
    fn happy_path_scans_all_channels_in_order() {
        let mut seq = ready();
        assert_eq!(seq.state(), &S::Idle);
        assert_eq!(seq.handle(E::StartScan).unwrap(), A::MeasureChannel(0));
        for expected in [
            A::MeasureChannel(1),
            A::MeasureChannel(2),
            A::MeasureChannel(3),
        ] {
            assert_eq!(seq.handle(E::ChannelDone).unwrap(), expected);
        }
        assert_eq!(seq.handle(E::ChannelDone).unwrap(), A::Report);
        assert_eq!(seq.state(), &S::Idle);
        assert_eq!(seq.scans_completed(), 1);
        // a second pass works identically
        assert_eq!(seq.handle(E::StartScan).unwrap(), A::MeasureChannel(0));
    }

    #[test]
    fn calibration_failure_faults() {
        let mut seq = MeasurementSequencer::new(4, 100).unwrap();
        seq.handle(E::SelfTestPassed).unwrap();
        seq.handle(E::CalibrationFailed).unwrap();
        assert!(matches!(seq.state(), S::Fault { .. }));
        // fault latches: further events do nothing
        assert_eq!(seq.handle(E::StartScan).unwrap(), A::None);
        assert!(matches!(seq.state(), S::Fault { .. }));
        // reset recovers
        seq.handle(E::Reset).unwrap();
        assert_eq!(seq.state(), &S::PowerOn);
    }

    #[test]
    fn unexpected_event_faults_with_context() {
        let mut seq = ready();
        // ChannelDone while idle is a protocol violation
        seq.handle(E::ChannelDone).unwrap();
        match seq.state() {
            S::Fault { reason } => {
                assert!(reason.contains("ChannelDone"), "{reason}");
                assert!(reason.contains("Idle"), "{reason}");
            }
            other => panic!("expected fault, got {other:?}"),
        }
    }

    #[test]
    fn measurement_failure_faults_with_channel() {
        let mut seq = ready();
        seq.handle(E::StartScan).unwrap();
        seq.handle(E::ChannelDone).unwrap(); // now scanning channel 1
        assert_eq!(seq.handle(E::MeasurementFailed).unwrap(), A::None);
        match seq.state() {
            S::Fault { reason } => assert!(reason.contains("channel 1"), "{reason}"),
            other => panic!("expected fault, got {other:?}"),
        }
        // outside Scanning it is a protocol violation like any other event
        let mut idle = ready();
        idle.handle(E::MeasurementFailed).unwrap();
        assert!(matches!(idle.state(), S::Fault { .. }));
    }

    #[test]
    fn watchdog_trips_in_active_states_only() {
        let mut seq = ready();
        // Idle never times out
        for _ in 0..1000 {
            assert!(!seq.tick());
        }
        seq.handle(E::StartScan).unwrap();
        // Scanning does
        for _ in 0..100 {
            assert!(!seq.tick());
        }
        assert!(seq.tick(), "101st tick must fire the watchdog");
        assert!(matches!(seq.state(), S::Fault { reason } if reason.contains("watchdog")));
        // no double-fire
        assert!(!seq.tick());
    }

    #[test]
    fn event_progress_resets_watchdog() {
        let mut seq = ready();
        seq.handle(E::StartScan).unwrap();
        for _ in 0..90 {
            seq.tick();
        }
        // progress to the next channel: budget starts over
        seq.handle(E::ChannelDone).unwrap();
        for _ in 0..90 {
            assert!(!seq.tick());
        }
    }

    #[test]
    fn recover_returns_to_idle_once_calibrated() {
        let mut seq = ready();
        seq.handle(E::StartScan).unwrap();
        seq.handle(E::ChannelDone).unwrap();
        seq.handle(E::ChannelDone).unwrap();
        seq.handle(E::ChannelDone).unwrap();
        seq.handle(E::ChannelDone).unwrap(); // one full pass
        assert_eq!(seq.scans_completed(), 1);
        seq.handle(E::StartScan).unwrap();
        seq.handle(E::MeasurementFailed).unwrap();
        assert!(matches!(seq.state(), S::Fault { .. }));
        // recovery clears the latch but keeps progress state
        assert!(seq.recover());
        assert_eq!(seq.state(), &S::Idle);
        assert_eq!(seq.scans_completed(), 1, "recovery keeps the scan count");
        assert!(seq.is_calibrated());
        // and the instrument can scan again immediately
        assert_eq!(seq.handle(E::StartScan).unwrap(), A::MeasureChannel(0));
    }

    #[test]
    fn recover_before_calibration_demands_a_power_on() {
        let mut seq = MeasurementSequencer::new(4, 100).unwrap();
        seq.handle(E::SelfTestPassed).unwrap();
        seq.handle(E::CalibrationFailed).unwrap();
        assert!(matches!(seq.state(), S::Fault { .. }));
        assert!(seq.recover());
        assert_eq!(
            seq.state(),
            &S::PowerOn,
            "an uncalibrated instrument must re-run power-on, not jump to Idle"
        );
    }

    #[test]
    fn recover_outside_fault_is_a_noop() {
        let mut seq = ready();
        assert!(!seq.recover());
        assert_eq!(seq.state(), &S::Idle);
        seq.handle(E::StartScan).unwrap();
        assert!(!seq.recover());
        assert_eq!(seq.state(), &S::Scanning { channel: 0 });
    }

    #[test]
    fn reset_clears_scan_count() {
        let mut seq = ready();
        seq.handle(E::StartScan).unwrap();
        for _ in 0..4 {
            seq.handle(E::ChannelDone).unwrap();
        }
        assert_eq!(seq.scans_completed(), 1);
        seq.handle(E::Reset).unwrap();
        assert_eq!(seq.scans_completed(), 0);
    }

    mod tracing {
        use super::*;
        use canti_obs::clock::VirtualClock;
        use canti_obs::ndjson::JsonValue;
        use canti_obs::trace::{Collector, RingCollector};
        use std::sync::Arc;

        fn traced(channels: usize, watchdog: u64) -> (MeasurementSequencer, Arc<RingCollector>) {
            let ring = Arc::new(RingCollector::new(256));
            let tracer = Tracer::new(
                Arc::clone(&ring) as Arc<dyn Collector>,
                Arc::new(VirtualClock::new()),
            );
            let seq = MeasurementSequencer::new(channels, watchdog)
                .unwrap()
                .with_tracer(tracer);
            (seq, ring)
        }

        /// `(name, from, to)` triples, with `-` for non-state-change events.
        fn stream(ring: &RingCollector) -> Vec<(String, String, String)> {
            ring.events()
                .iter()
                .map(|e| {
                    let get = |k: &str| match e.field(k) {
                        Some(JsonValue::Str(s)) => s.to_string(),
                        _ => "-".to_owned(),
                    };
                    (e.name.to_owned(), get("from"), get("to"))
                })
                .collect()
        }

        fn owned(items: &[(&str, &str, &str)]) -> Vec<(String, String, String)> {
            items
                .iter()
                .map(|(a, b, c)| ((*a).to_owned(), (*b).to_owned(), (*c).to_owned()))
                .collect()
        }

        #[test]
        fn full_scan_emits_the_exact_ordered_event_stream() {
            let (mut seq, ring) = traced(2, 100);
            seq.handle(E::SelfTestPassed).unwrap();
            seq.handle(E::CalibrationDone).unwrap();
            seq.handle(E::StartScan).unwrap();
            seq.handle(E::ChannelDone).unwrap();
            seq.handle(E::ChannelDone).unwrap();
            assert_eq!(
                stream(&ring),
                owned(&[
                    ("state_change", "power_on", "calibrating"),
                    ("state_change", "calibrating", "idle"),
                    ("state_change", "idle", "scanning"),
                    ("state_change", "scanning", "scanning"),
                    ("state_change", "scanning", "idle"),
                ])
            );
            // the channel advance carries the new channel index
            let events = ring.events();
            assert_eq!(events[2].field("channel"), Some(&JsonValue::U64(0)));
            assert_eq!(events[3].field("channel"), Some(&JsonValue::U64(1)));
            // sequence numbers are gap-free and events are in emission order
            assert!(events.iter().enumerate().all(|(i, e)| e.seq == i as u64));
        }

        #[test]
        fn watchdog_trip_is_traced_before_the_fault_transition() {
            let (mut seq, ring) = traced(2, 3);
            seq.handle(E::SelfTestPassed).unwrap();
            seq.handle(E::CalibrationDone).unwrap();
            seq.handle(E::StartScan).unwrap();
            for _ in 0..3 {
                assert!(!seq.tick());
            }
            assert!(seq.tick());
            assert_eq!(
                stream(&ring),
                owned(&[
                    ("state_change", "power_on", "calibrating"),
                    ("state_change", "calibrating", "idle"),
                    ("state_change", "idle", "scanning"),
                    ("watchdog_trip", "-", "-"),
                    ("state_change", "scanning", "fault"),
                ])
            );
            let events = ring.events();
            assert_eq!(
                events[3].field("state"),
                Some(&JsonValue::Str("scanning".into()))
            );
            assert_eq!(events[3].field("ticks"), Some(&JsonValue::U64(4)));
            assert_eq!(
                events[4].field("reason"),
                Some(&JsonValue::Str("watchdog timeout".into()))
            );
        }

        #[test]
        fn measurement_failure_and_reset_are_traced() {
            let (mut seq, ring) = traced(4, 100);
            seq.handle(E::SelfTestPassed).unwrap();
            seq.handle(E::CalibrationDone).unwrap();
            seq.handle(E::StartScan).unwrap();
            seq.handle(E::ChannelDone).unwrap(); // now on channel 1
            seq.handle(E::MeasurementFailed).unwrap();
            seq.handle(E::Reset).unwrap();
            assert_eq!(
                stream(&ring),
                owned(&[
                    ("state_change", "power_on", "calibrating"),
                    ("state_change", "calibrating", "idle"),
                    ("state_change", "idle", "scanning"),
                    ("state_change", "scanning", "scanning"),
                    ("measurement_failed", "-", "-"),
                    ("state_change", "scanning", "fault"),
                    ("state_change", "fault", "power_on"),
                ])
            );
            let events = ring.events();
            assert_eq!(events[4].field("channel"), Some(&JsonValue::U64(1)));
            assert_eq!(
                events[5].field("reason"),
                Some(&JsonValue::Str("measurement failed on channel 1".into()))
            );
        }

        #[test]
        fn recovery_emits_the_exact_ordered_event_stream() {
            let (mut seq, ring) = traced(2, 100);
            seq.handle(E::SelfTestPassed).unwrap();
            seq.handle(E::CalibrationDone).unwrap();
            seq.handle(E::StartScan).unwrap();
            seq.handle(E::MeasurementFailed).unwrap();
            assert!(seq.recover());
            assert_eq!(
                stream(&ring),
                owned(&[
                    ("state_change", "power_on", "calibrating"),
                    ("state_change", "calibrating", "idle"),
                    ("state_change", "idle", "scanning"),
                    ("measurement_failed", "-", "-"),
                    ("state_change", "scanning", "fault"),
                    ("recovered", "-", "idle"),
                    ("state_change", "fault", "idle"),
                ])
            );
            // the recovered event carries the cleared reason
            let events = ring.events();
            assert_eq!(
                events[5].field("reason"),
                Some(&JsonValue::Str("measurement failed on channel 0".into()))
            );
            // the stream stays gap-free across the recovery
            assert!(events.iter().enumerate().all(|(i, e)| e.seq == i as u64));
        }

        #[test]
        fn latched_fault_emits_nothing_and_tracing_preserves_equality() {
            let (mut traced_seq, ring) = traced(4, 100);
            let mut plain = MeasurementSequencer::new(4, 100).unwrap();
            for event in [E::SelfTestPassed, E::CalibrationFailed, E::StartScan] {
                let a = traced_seq.handle(event.clone()).unwrap();
                let b = plain.handle(event).unwrap();
                assert_eq!(a, b, "tracing must not change actions");
            }
            assert_eq!(traced_seq, plain, "tracing must not change state");
            // the post-fault StartScan is swallowed by the latch: no event
            let names: Vec<_> = ring.events().iter().map(|e| e.name).collect();
            assert_eq!(names, vec!["state_change", "state_change"]);
        }
    }

    #[test]
    fn construction_validation() {
        assert!(MeasurementSequencer::new(0, 100).is_err());
        assert!(MeasurementSequencer::new(4, 0).is_err());
    }

    #[test]
    fn single_channel_sequencer() {
        let mut seq = MeasurementSequencer::new(1, 10).unwrap();
        seq.handle(E::SelfTestPassed).unwrap();
        seq.handle(E::CalibrationDone).unwrap();
        assert_eq!(seq.handle(E::StartScan).unwrap(), A::MeasureChannel(0));
        assert_eq!(seq.handle(E::ChannelDone).unwrap(), A::Report);
    }
}
