//! Std-only micro-benchmark runner (the build environment has no
//! criterion): warm-up, batched timing, and per-iteration latency
//! aggregation on the shared `canti-obs` [`Histogram`] — the same
//! log-linear type the sensor farm's stage telemetry uses, so bench
//! output and farm telemetry report identical p50/p95/max semantics.

use std::time::{Duration, Instant};

use canti_obs::{Histogram, HistogramSnapshot};

/// Per-kernel timing summary: one histogram sample per batch, each the
/// batch's per-iteration time in ns.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Kernel name.
    pub name: String,
    /// Per-iteration batch times, ns (count = number of batches).
    pub per_iter_ns: HistogramSnapshot,
    /// Total iterations executed (excluding warm-up).
    pub iterations: u64,
}

impl Measurement {
    /// Median per-iteration time over the batches.
    #[must_use]
    pub fn median(&self) -> Duration {
        Duration::from_nanos(self.per_iter_ns.p50)
    }

    /// 95th-percentile per-iteration time over the batches.
    #[must_use]
    pub fn p95(&self) -> Duration {
        Duration::from_nanos(self.per_iter_ns.p95)
    }

    /// 99th-percentile per-iteration time over the batches.
    #[must_use]
    pub fn p99(&self) -> Duration {
        Duration::from_nanos(self.per_iter_ns.p99)
    }

    /// Slowest batch's per-iteration time.
    #[must_use]
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.per_iter_ns.max)
    }

    /// Fastest batch's per-iteration time.
    #[must_use]
    pub fn min(&self) -> Duration {
        Duration::from_nanos(self.per_iter_ns.min)
    }
}

fn per_iter_ns(total: Duration, iters: u64) -> u64 {
    if iters == 0 {
        return 0;
    }
    (total.as_nanos() / u128::from(iters)) as u64
}

fn human(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 10_000 {
        format!("{ns} ns")
    } else if ns < 10_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 10_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

/// A registry of kernels to time, filtered by name substrings.
#[derive(Debug)]
pub struct Bencher {
    filter: Vec<String>,
    budget: Duration,
    results: Vec<Measurement>,
}

impl Bencher {
    /// Creates a bencher keeping only kernels whose name contains one of
    /// `filter` (all kernels when empty). `CANTI_BENCH_MS` overrides the
    /// per-kernel time budget (default 800 ms).
    #[must_use]
    pub fn from_env(filter: Vec<String>) -> Self {
        let ms = std::env::var("CANTI_BENCH_MS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(800u64);
        Self {
            filter,
            budget: Duration::from_millis(ms),
            results: Vec::new(),
        }
    }

    fn wanted(&self, name: &str) -> bool {
        // accept "fig2"/"f2" spellings like the repro binary does
        let normalize = |s: &str| s.replace("fig", "f");
        self.filter.is_empty()
            || self
                .filter
                .iter()
                .any(|f| normalize(name).contains(&normalize(f)))
    }

    /// Times the closure returned by `setup`. The kernel runs in batches
    /// whose size is calibrated so one batch lasts ≥ ~10 ms, until the
    /// time budget is spent (min 5 batches).
    pub fn bench<F, K>(&mut self, name: &str, setup: F)
    where
        F: FnOnce() -> K,
        K: FnMut(),
    {
        if !self.wanted(name) {
            return;
        }
        let mut kernel = setup();

        // warm-up + batch-size calibration
        let mut batch: u64 = 1;
        let batch = loop {
            let t0 = Instant::now();
            for _ in 0..batch {
                kernel();
            }
            let dt = t0.elapsed();
            if dt >= Duration::from_millis(10) || batch >= 1 << 20 {
                break batch;
            }
            batch *= 2;
        };

        let hist = Histogram::new();
        let mut iterations = 0u64;
        let start = Instant::now();
        while hist.count() < 5 || start.elapsed() < self.budget {
            let t0 = Instant::now();
            for _ in 0..batch {
                kernel();
            }
            hist.record(per_iter_ns(t0.elapsed(), batch));
            iterations += batch;
            if hist.count() >= 200 {
                break;
            }
        }
        let m = Measurement {
            name: name.to_owned(),
            per_iter_ns: hist.snapshot(),
            iterations,
        };
        println!(
            "{name:<40} p50 {:>12}   p95 {:>12}   p99 {:>12}   max {:>12}   ({iterations} iters)",
            human(m.median()),
            human(m.p95()),
            human(m.p99()),
            human(m.max())
        );
        self.results.push(m);
    }

    /// Prints the footer; exits non-zero if a filter matched nothing.
    pub fn finish(self) {
        if self.results.is_empty() {
            eprintln!("no bench matched filter {:?}", self.filter);
            std::process::exit(2);
        }
        println!("\n{} kernels timed.", self.results.len());
    }

    /// The collected measurements so far.
    #[must_use]
    pub fn results(&self) -> &[Measurement] {
        &self.results
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_iter_divides() {
        assert_eq!(per_iter_ns(Duration::from_nanos(1000), 10), 100);
        assert_eq!(per_iter_ns(Duration::ZERO, 0), 0);
    }

    #[test]
    fn human_ranges() {
        assert_eq!(human(Duration::from_nanos(12)), "12 ns");
        assert!(human(Duration::from_micros(123)).ends_with("µs"));
        assert!(human(Duration::from_millis(123)).ends_with("ms"));
        assert!(human(Duration::from_secs(123)).ends_with(" s"));
    }

    #[test]
    fn bencher_times_a_cheap_kernel() {
        std::env::set_var("CANTI_BENCH_MS", "10");
        let mut b = Bencher::from_env(vec![]);
        let mut x = 0u64;
        b.bench("noop", || {
            move || {
                x = x.wrapping_add(1);
                std::hint::black_box(x);
            }
        });
        assert_eq!(b.results().len(), 1);
        let m = &b.results()[0];
        assert!(m.iterations > 0);
        assert!(m.per_iter_ns.count >= 5, "at least 5 batches");
        // quantiles come from the shared histogram and are ordered
        assert!(m.min() <= m.median());
        assert!(m.median() <= m.p95());
        assert!(m.p95() <= m.p99());
        assert!(m.p99() <= m.max());
    }

    #[test]
    fn filter_excludes() {
        let mut b = Bencher::from_env(vec!["zzz".into()]);
        b.bench("noop", || || {});
        assert!(b.results().is_empty());
    }
}
