//! # canti-fault — deterministic fault injection for the instrument stack
//!
//! Real cantilever chips fail in the field: bridge resistors stick or
//! drift, beams break during KOH release, chopper clocks drop out, ADCs
//! saturate, and a contaminated channel settles arbitrarily slowly. The
//! stochastic-perturbation view of cantilever sensing (Snyder & Joshi,
//! arXiv:1301.4533) and the reliability analysis of nanocantilever
//! arrays (Jain & Alam, arXiv:1305.5729) both treat such events as
//! first-class, statistically characterizable inputs — not as
//! exceptions. This crate does the same for the simulated instrument:
//! faults are **values** ([`FaultKind`]) scheduled on a **plan**
//! ([`FaultPlan`]), drawn per measurement attempt through a
//! [`FaultInjector`] seam the readout chain consults. One tier up, a
//! [`ServeFaultPlan`] scripts the serving substrate's one fault: a
//! shard killed before a given batch.
//!
//! # Determinism contract
//!
//! Everything here is a pure function of the plan (and, for generated
//! plans, the ChaCha8 seed). An injector never reads wall-clock time or
//! OS entropy; its only state is per-channel attempt counters. The
//! [`NoFaults`] injector returns [`MeasurementFaults::none`] for every
//! attempt, and instrumented code is required to be bit-identical under
//! it to code with no injector at all — the chaos test suite in the
//! workspace root proves that equivalence byte-for-byte.
//!
//! # Examples
//!
//! ```
//! use canti_fault::{FaultEvent, FaultKind, FaultPlan, FaultInjector, PlannedInjector};
//!
//! // channel 1 glitches on its first measurement attempt only
//! let plan = FaultPlan::new(vec![FaultEvent {
//!     channel: 1,
//!     kind: FaultKind::TransientGlitch { volts: 5.0 },
//!     from_attempt: 0,
//!     duration: Some(1),
//! }]);
//! let mut injector = PlannedInjector::new(plan);
//! assert_eq!(injector.next_faults(1).glitch_volts, 5.0); // attempt 0: hit
//! assert!(injector.next_faults(1).is_none());            // attempt 1: clean
//! assert!(injector.next_faults(0).is_none());            // other channels clean
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod plan;
mod serve_plan;

pub use plan::{ChaosConfig, FaultEvent, FaultPlan};
pub use serve_plan::{ServeChaos, ServeFaultEvent, ServeFaultPlan};

use std::fmt;

/// The fault taxonomy: everything the injector can do to one
/// measurement attempt, as a value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// A bridge resistor stuck away from its trimmed value: a constant
    /// offset on the bridge output, silently corrupting accuracy.
    StuckBridgeResistor {
        /// Offset added to the bridge output, V.
        offset_volts: f64,
    },
    /// A drifting bridge resistor: the bridge offset grows linearly with
    /// every attempt the fault is active.
    DriftingBridgeResistor {
        /// Offset growth per active attempt, V.
        volts_per_attempt: f64,
    },
    /// The cantilever broke (e.g. during KOH release): the bridge is
    /// open and the channel reads non-finite.
    BrokenCantilever,
    /// The chopper clock dropped out: the measurement runs unchopped, so
    /// the amplifier's raw offset reappears at the output, amplified.
    ChopperDropout,
    /// The ADC saturates: the settled output is clamped hard at the
    /// supply rail regardless of the true signal.
    AdcSaturation,
    /// A transient spike (cosmic ray, fluidic bubble) added to the
    /// settled output of the affected attempts only.
    TransientGlitch {
        /// Additive spike amplitude, V.
        volts: f64,
    },
    /// The channel settles slowly (fouled surface, fluidic clog): every
    /// electrical sample costs this many watchdog ticks instead of one.
    SlowChannel {
        /// Tick multiplier (≥ 2 to have any effect).
        latency_factor: u32,
    },
}

impl FaultKind {
    /// A short stable label for telemetry.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Self::StuckBridgeResistor { .. } => "stuck_bridge",
            Self::DriftingBridgeResistor { .. } => "drifting_bridge",
            Self::BrokenCantilever => "broken_cantilever",
            Self::ChopperDropout => "chopper_dropout",
            Self::AdcSaturation => "adc_saturation",
            Self::TransientGlitch { .. } => "transient_glitch",
            Self::SlowChannel { .. } => "slow_channel",
        }
    }
}

/// The resolved fault effects for one measurement attempt — what the
/// readout chain actually applies.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasurementFaults {
    /// Additive offset on the bridge output, V (stuck/drifting
    /// resistors).
    pub bridge_offset_volts: f64,
    /// The bridge is open (broken cantilever): the chain output is
    /// non-finite.
    pub open_bridge: bool,
    /// Chopping is disabled for this attempt.
    pub chopper_dropout: bool,
    /// The settled output is clamped at the supply rail.
    pub adc_saturated: bool,
    /// Additive spike on the settled output, V.
    pub glitch_volts: f64,
    /// Watchdog ticks per electrical sample (1 = nominal).
    pub latency_factor: u32,
    /// Labels of the contributing fault kinds, for telemetry.
    pub labels: Vec<&'static str>,
}

impl MeasurementFaults {
    /// No faults: the attempt behaves exactly as an uninjected one.
    #[must_use]
    pub fn none() -> Self {
        Self {
            bridge_offset_volts: 0.0,
            open_bridge: false,
            chopper_dropout: false,
            adc_saturated: false,
            glitch_volts: 0.0,
            latency_factor: 1,
            labels: Vec::new(),
        }
    }

    /// Whether this attempt is completely clean.
    #[must_use]
    pub fn is_none(&self) -> bool {
        self.bridge_offset_volts == 0.0
            && !self.open_bridge
            && !self.chopper_dropout
            && !self.adc_saturated
            && self.glitch_volts == 0.0
            && self.latency_factor <= 1
    }

    /// Folds one fault kind (active at `age` attempts since its start)
    /// into the effect set.
    fn apply(&mut self, kind: &FaultKind, age: u64) {
        match kind {
            FaultKind::StuckBridgeResistor { offset_volts } => {
                self.bridge_offset_volts += offset_volts;
            }
            FaultKind::DriftingBridgeResistor { volts_per_attempt } => {
                self.bridge_offset_volts += volts_per_attempt * (age + 1) as f64;
            }
            FaultKind::BrokenCantilever => self.open_bridge = true,
            FaultKind::ChopperDropout => self.chopper_dropout = true,
            FaultKind::AdcSaturation => self.adc_saturated = true,
            FaultKind::TransientGlitch { volts } => self.glitch_volts += volts,
            FaultKind::SlowChannel { latency_factor } => {
                self.latency_factor = self.latency_factor.max(*latency_factor);
            }
        }
        self.labels.push(kind.label());
    }
}

impl Default for MeasurementFaults {
    fn default() -> Self {
        Self::none()
    }
}

/// The injector seam: the instrument asks it once per measurement
/// attempt of a channel, in attempt order. Implementations must be
/// deterministic — same call sequence, same answers.
pub trait FaultInjector: fmt::Debug + Send {
    /// Advances `channel` by one measurement attempt and returns the
    /// faults active for it.
    fn next_faults(&mut self, channel: usize) -> MeasurementFaults;

    /// Measurement attempts drawn so far on `channel` (diagnostics).
    fn attempts(&self, channel: usize) -> u64;
}

/// The do-nothing injector: every attempt is clean. Provably equivalent
/// to having no injector at all.
#[derive(Debug, Clone, Default)]
pub struct NoFaults;

impl FaultInjector for NoFaults {
    fn next_faults(&mut self, _channel: usize) -> MeasurementFaults {
        MeasurementFaults::none()
    }

    fn attempts(&self, _channel: usize) -> u64 {
        0
    }
}

/// An injector executing a [`FaultPlan`]: each channel has its own
/// attempt counter, and every call resolves the plan's events active at
/// that attempt.
#[derive(Debug, Clone)]
pub struct PlannedInjector {
    plan: FaultPlan,
    attempts: Vec<u64>,
}

impl PlannedInjector {
    /// Wraps a plan. Channel attempt counters start at zero.
    #[must_use]
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            attempts: Vec::new(),
        }
    }

    /// The wrapped plan.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }
}

impl FaultInjector for PlannedInjector {
    fn next_faults(&mut self, channel: usize) -> MeasurementFaults {
        if channel >= self.attempts.len() {
            self.attempts.resize(channel + 1, 0);
        }
        let attempt = self.attempts[channel];
        self.attempts[channel] += 1;
        let mut faults = MeasurementFaults::none();
        for event in self.plan.events() {
            if event.channel != channel || attempt < event.from_attempt {
                continue;
            }
            let age = attempt - event.from_attempt;
            if event.duration.is_none_or(|d| age < d) {
                faults.apply(&event.kind, age);
            }
        }
        faults
    }

    fn attempts(&self, channel: usize) -> u64 {
        self.attempts.get(channel).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(channel: usize, kind: FaultKind, from: u64, duration: Option<u64>) -> FaultEvent {
        FaultEvent {
            channel,
            kind,
            from_attempt: from,
            duration,
        }
    }

    #[test]
    fn no_faults_is_always_clean() {
        let mut inj = NoFaults;
        for ch in 0..4 {
            assert!(inj.next_faults(ch).is_none());
        }
        assert_eq!(inj.attempts(2), 0);
    }

    #[test]
    fn windows_are_honored_per_channel() {
        let plan = FaultPlan::new(vec![
            event(0, FaultKind::AdcSaturation, 1, Some(2)),
            event(2, FaultKind::BrokenCantilever, 0, None),
        ]);
        let mut inj = PlannedInjector::new(plan);
        assert!(
            inj.next_faults(0).is_none(),
            "attempt 0 precedes the window"
        );
        assert!(inj.next_faults(0).adc_saturated, "attempt 1 inside");
        assert!(inj.next_faults(0).adc_saturated, "attempt 2 inside");
        assert!(inj.next_faults(0).is_none(), "attempt 3 past the window");
        // a permanent fault never clears
        for _ in 0..5 {
            assert!(inj.next_faults(2).open_bridge);
        }
        assert_eq!(inj.attempts(0), 4);
        assert_eq!(inj.attempts(2), 5);
        assert_eq!(inj.attempts(1), 0);
    }

    #[test]
    fn effects_compose_and_drift_grows() {
        let plan = FaultPlan::new(vec![
            event(
                1,
                FaultKind::StuckBridgeResistor { offset_volts: 1e-3 },
                0,
                None,
            ),
            event(
                1,
                FaultKind::DriftingBridgeResistor {
                    volts_per_attempt: 1e-4,
                },
                0,
                None,
            ),
            event(1, FaultKind::SlowChannel { latency_factor: 3 }, 0, None),
        ]);
        let mut inj = PlannedInjector::new(plan);
        let first = inj.next_faults(1);
        assert!((first.bridge_offset_volts - 1.1e-3).abs() < 1e-12);
        assert_eq!(first.latency_factor, 3);
        assert_eq!(
            first.labels,
            vec!["stuck_bridge", "drifting_bridge", "slow_channel"]
        );
        let second = inj.next_faults(1);
        assert!(
            second.bridge_offset_volts > first.bridge_offset_volts,
            "drift must grow: {} -> {}",
            first.bridge_offset_volts,
            second.bridge_offset_volts
        );
    }

    #[test]
    fn injectors_replay_identically() {
        let plan = FaultPlan::generate(0xC0FFEE, 4, &ChaosConfig::default());
        let mut a = PlannedInjector::new(plan.clone());
        let mut b = PlannedInjector::new(plan);
        for scan in 0..6 {
            for ch in 0..4 {
                assert_eq!(a.next_faults(ch), b.next_faults(ch), "scan {scan} ch {ch}");
            }
        }
    }
}
