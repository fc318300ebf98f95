//! Deterministic sliding-window SLO tracking.
//!
//! A [`SloTracker`] buckets per-request latencies into **fixed-width
//! windows on the observer clock** (window `i` covers
//! `[i*window_ns, (i+1)*window_ns)`), counting each request as *good*
//! (latency within [`SloConfig::objective_ns`]) or *breached*. Because
//! both the window index and the verdict are pure functions of
//! `(latency_ns, now_ns)` read from the injected [`crate::ObsClock`],
//! a scripted virtual-clock run produces bit-identical windows at any
//! worker or shard count — the sensing analogue of tracking
//! limit-of-detection *over time* instead of as one aggregate number.
//!
//! Cumulative error-budget burn is mirrored into the owning registry as
//! the `slo.good` / `slo.breached` counters, so the Prometheus
//! exposition carries the burn rate without a second code path.
//!
//! # Examples
//!
//! ```
//! use canti_obs::metrics::Metrics;
//! use canti_obs::slo::{SloConfig, SloTracker};
//!
//! let metrics = Metrics::new();
//! let slo = SloTracker::new(SloConfig::default(), &metrics);
//! slo.record(10_000_000, 500_000_000); // 10 ms at t=0.5 s: good
//! slo.record(80_000_000, 1_500_000_000); // 80 ms at t=1.5 s: breached
//! let windows = slo.windows();
//! assert_eq!(windows.len(), 2);
//! assert_eq!((windows[0].good, windows[0].breached), (1, 0));
//! assert_eq!((windows[1].good, windows[1].breached), (0, 1));
//! assert_eq!(metrics.counter("slo.breached").get(), 1);
//! ```

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, PoisonError};

use crate::metrics::{Counter, Metrics};
use crate::timeline::window_slot;

/// Latency-objective and windowing policy for an [`SloTracker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloConfig {
    /// Fixed window width on the observer clock, ns. Clamped to ≥ 1.
    pub window_ns: u64,
    /// The latency objective: a request completing within this many ns
    /// counts as good, anything slower burns error budget.
    pub objective_ns: u64,
    /// Windows retained (oldest evicted first). Clamped to ≥ 1.
    pub max_windows: usize,
}

impl Default for SloConfig {
    fn default() -> Self {
        Self {
            window_ns: 1_000_000_000, // 1 s
            objective_ns: 50_000_000, // 50 ms
            max_windows: 64,
        }
    }
}

impl SloConfig {
    /// The effective window width (configured value, at least 1 ns).
    #[must_use]
    pub fn width(&self) -> u64 {
        self.window_ns.max(1)
    }

    /// The window index `t_ns` falls into.
    #[must_use]
    pub fn window_index(&self, t_ns: u64) -> u64 {
        t_ns / self.width()
    }
}

/// Good/breached tallies for one fixed window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WindowCounts {
    /// Window index: the window covers `[index*w, (index+1)*w)` ns.
    pub index: u64,
    /// Requests that met the objective.
    pub good: u64,
    /// Requests that breached it.
    pub breached: u64,
}

impl WindowCounts {
    /// Requests observed in this window (saturating, so near-overflow
    /// merged tallies still render).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.good.saturating_add(self.breached)
    }

    /// Fraction of requests that breached (0.0 when empty).
    #[must_use]
    pub fn breach_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.breached as f64 / self.total() as f64
        }
    }
}

/// A deterministic sliding-window SLO aggregator (see the module docs).
#[derive(Debug)]
pub struct SloTracker {
    config: SloConfig,
    windows: Mutex<VecDeque<WindowCounts>>,
    good: Arc<Counter>,
    breached: Arc<Counter>,
}

impl SloTracker {
    /// A tracker over `config`, registering its cumulative `slo.good` /
    /// `slo.breached` counters in `metrics`.
    #[must_use]
    pub fn new(config: SloConfig, metrics: &Metrics) -> Self {
        Self {
            config,
            windows: Mutex::new(VecDeque::new()),
            good: metrics.counter("slo.good"),
            breached: metrics.counter("slo.breached"),
        }
    }

    /// The configured policy.
    #[must_use]
    pub fn config(&self) -> SloConfig {
        self.config
    }

    /// Records one request outcome: `latency_ns` observed at clock time
    /// `now_ns` (which names the window).
    pub fn record(&self, latency_ns: u64, now_ns: u64) {
        self.record_outcome(latency_ns <= self.config.objective_ns, now_ns);
    }

    /// Records an outcome with an explicit verdict — the expiry path
    /// uses this to burn budget for requests that never completed,
    /// regardless of how briefly they waited.
    pub fn record_outcome(&self, good: bool, now_ns: u64) {
        let index = self.config.window_index(now_ns);
        if good {
            self.good.inc();
        } else {
            self.breached.inc();
        }
        let mut windows = self.windows.lock().unwrap_or_else(PoisonError::into_inner);
        let slot = window_slot(&mut windows, index, |w| w.index, WindowCounts::new_at);
        if good {
            slot.good += 1;
        } else {
            slot.breached += 1;
        }
        while windows.len() > self.config.max_windows.max(1) {
            windows.pop_front();
        }
    }

    /// The retained windows, oldest first.
    #[must_use]
    pub fn windows(&self) -> Vec<WindowCounts> {
        self.windows
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .copied()
            .collect()
    }

    /// Cumulative `(good, breached)` since construction — the error
    /// budget burn the `slo.good`/`slo.breached` counters mirror.
    #[must_use]
    pub fn totals(&self) -> (u64, u64) {
        (self.good.get(), self.breached.get())
    }

    /// A deterministic text rendering: objective, burn totals and one
    /// line per retained window.
    #[must_use]
    pub fn render(&self) -> String {
        let (good, breached) = self.totals();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "slo: objective={} ns window={} ns good={good} breached={breached}",
            self.config.objective_ns,
            self.config.width(),
        );
        for w in self.windows() {
            let _ = writeln!(
                out,
                "  window {} [t={} ns): good={} breached={} breach={:.3}",
                w.index,
                w.index * self.config.width(),
                w.good,
                w.breached,
                w.breach_fraction()
            );
        }
        out
    }
}

impl WindowCounts {
    fn new_at(index: u64) -> Self {
        Self {
            index,
            good: 0,
            breached: 0,
        }
    }
}

/// Merges per-shard window views into one: same-index windows sum
/// (saturating, so adversarial tallies cannot wrap the merged view), and
/// the result is sorted by window index. All trackers are expected to
/// share a window width (the serve layer clones one [`SloConfig`] per
/// shard).
#[must_use]
pub fn merge_windows(per_shard: &[Vec<WindowCounts>]) -> Vec<WindowCounts> {
    use std::collections::BTreeMap;
    let mut merged: BTreeMap<u64, WindowCounts> = BTreeMap::new();
    for windows in per_shard {
        for w in windows {
            let slot = merged
                .entry(w.index)
                .or_insert_with(|| WindowCounts::new_at(w.index));
            slot.good = slot.good.saturating_add(w.good);
            slot.breached = slot.breached.saturating_add(w.breached);
        }
    }
    merged.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_are_fixed_width_on_the_clock() {
        let m = Metrics::new();
        let slo = SloTracker::new(
            SloConfig {
                window_ns: 100,
                objective_ns: 10,
                max_windows: 8,
            },
            &m,
        );
        slo.record(5, 0); // window 0, good
        slo.record(50, 99); // window 0, breached
        slo.record(10, 100); // window 1, good (objective inclusive)
        slo.record(11, 250); // window 2, breached
        let w = slo.windows();
        assert_eq!(w.len(), 3);
        assert_eq!((w[0].index, w[0].good, w[0].breached), (0, 1, 1));
        assert_eq!((w[1].index, w[1].good, w[1].breached), (1, 1, 0));
        assert_eq!((w[2].index, w[2].good, w[2].breached), (2, 0, 1));
        assert_eq!(slo.totals(), (2, 2));
        assert_eq!(m.counter("slo.good").get(), 2);
        assert_eq!(m.counter("slo.breached").get(), 2);
        assert!((w[0].breach_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn retention_evicts_oldest_windows() {
        let m = Metrics::new();
        let slo = SloTracker::new(
            SloConfig {
                window_ns: 10,
                objective_ns: 1,
                max_windows: 2,
            },
            &m,
        );
        for t in [0u64, 10, 20, 30] {
            slo.record(0, t);
        }
        let w = slo.windows();
        assert_eq!(w.len(), 2);
        assert_eq!((w[0].index, w[1].index), (2, 3));
        // cumulative burn counters keep the evicted history
        assert_eq!(slo.totals(), (4, 0));
    }

    #[test]
    fn out_of_order_samples_land_in_their_window() {
        let m = Metrics::new();
        let slo = SloTracker::new(
            SloConfig {
                window_ns: 100,
                objective_ns: 10,
                max_windows: 8,
            },
            &m,
        );
        slo.record(1, 250);
        slo.record(1, 50); // older window observed late
        slo.record(99, 260);
        let w = slo.windows();
        assert_eq!(w.len(), 2);
        assert_eq!((w[0].index, w[0].good), (0, 1));
        assert_eq!((w[1].index, w[1].good, w[1].breached), (2, 1, 1));
    }

    #[test]
    fn merged_view_sums_same_index_windows() {
        let a = vec![
            WindowCounts {
                index: 0,
                good: 2,
                breached: 1,
            },
            WindowCounts {
                index: 2,
                good: 1,
                breached: 0,
            },
        ];
        let b = vec![WindowCounts {
            index: 0,
            good: 3,
            breached: 0,
        }];
        let merged = merge_windows(&[a, b]);
        assert_eq!(merged.len(), 2);
        assert_eq!(
            (merged[0].index, merged[0].good, merged[0].breached),
            (0, 5, 1)
        );
        assert_eq!((merged[1].index, merged[1].good), (2, 1));
    }

    #[test]
    fn merge_handles_empty_shard_lists() {
        assert!(merge_windows(&[]).is_empty());
        assert!(merge_windows(&[Vec::new(), Vec::new()]).is_empty());
        let only = vec![WindowCounts {
            index: 3,
            good: 1,
            breached: 2,
        }];
        let merged = merge_windows(&[Vec::new(), only.clone(), Vec::new()]);
        assert_eq!(merged, only, "empty shards contribute nothing");
    }

    #[test]
    fn merge_interleaves_disjoint_window_ranges() {
        let evens: Vec<WindowCounts> = [0u64, 2, 4]
            .iter()
            .map(|&index| WindowCounts {
                index,
                good: 1,
                breached: 0,
            })
            .collect();
        let odds: Vec<WindowCounts> = [5u64, 1, 3]
            .iter()
            .map(|&index| WindowCounts {
                index,
                good: 0,
                breached: 1,
            })
            .collect();
        let merged = merge_windows(&[evens, odds]);
        let indices: Vec<u64> = merged.iter().map(|w| w.index).collect();
        assert_eq!(indices, vec![0, 1, 2, 3, 4, 5], "sorted by window index");
        for w in &merged {
            assert_eq!(w.total(), 1, "disjoint ranges never sum");
            assert_eq!(w.good == 1, w.index % 2 == 0);
        }
    }

    #[test]
    fn merge_saturates_instead_of_wrapping() {
        let huge = WindowCounts {
            index: 0,
            good: u64::MAX - 1,
            breached: u64::MAX,
        };
        let more = WindowCounts {
            index: 0,
            good: 5,
            breached: 7,
        };
        let merged = merge_windows(&[vec![huge], vec![more]]);
        assert_eq!(merged.len(), 1);
        assert_eq!((merged[0].good, merged[0].breached), (u64::MAX, u64::MAX));
        assert_eq!(merged[0].total(), u64::MAX, "total saturates too");
        // with both tallies pinned at the ceiling the fraction degrades
        // to 1.0 rather than panicking or wrapping
        assert!((merged[0].breach_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn render_is_deterministic_text() {
        let m = Metrics::new();
        let slo = SloTracker::new(
            SloConfig {
                window_ns: 100,
                objective_ns: 10,
                max_windows: 8,
            },
            &m,
        );
        slo.record(5, 0);
        slo.record(500, 120);
        let text = slo.render();
        assert!(text.contains("objective=10 ns"), "{text}");
        assert!(
            text.contains("window 0 [t=0 ns): good=1 breached=0"),
            "{text}"
        );
        assert!(
            text.contains("window 1 [t=100 ns): good=0 breached=1"),
            "{text}"
        );
    }

    #[test]
    fn degenerate_config_is_clamped() {
        let cfg = SloConfig {
            window_ns: 0,
            objective_ns: 0,
            max_windows: 0,
        };
        assert_eq!(cfg.width(), 1);
        assert_eq!(cfg.window_index(7), 7);
        let m = Metrics::new();
        let slo = SloTracker::new(cfg, &m);
        slo.record(0, 0);
        slo.record(1, 1);
        assert_eq!(slo.windows().len(), 1, "max_windows clamps to 1");
    }
}
