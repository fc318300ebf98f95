//! The seeded request streams.
//!
//! Every request is the same anti-IgG `StaticDoseResponse` assay on the
//! farm bench's protocol (30/300/120 s, `dt` 0.05 s, i.e. a 9 000-point
//! sensorgram, `averaging` 256); only the concentration varies, drawn
//! log-uniformly over 0.1 nM – 1 µM. A stream is a pure function of its
//! seed, so the same seed replays the same requests.
//!
//! * [`Stream::distinct`] never repeats a concentration.
//! * [`Stream::cached`] sends, in every block of four requests, three
//!   repeats of a 64-spec hot set and one fresh spec never seen before.
//!   The hot picks walk a reshuffled round of all 64 hot specs, so a hot
//!   spec recurs within 127 hot picks and the 256-entry result cache
//!   never evicts it: the hit share is exactly 75 % by construction.

use std::collections::HashSet;

use canti_farm::{JobSpec, Receptor};
use canti_units::{Molar, Seconds};

/// Hot specs in the cached stream.
pub const HOT_SPECS: usize = 64;

/// The assay every request runs, at `concentration` (molar).
pub fn spec(concentration: f64) -> JobSpec {
    JobSpec::StaticDoseResponse {
        receptor: Receptor::AntiIgg,
        concentration: Molar::new(concentration),
        baseline: Seconds::new(30.0),
        association: Seconds::new(300.0),
        wash: Seconds::new(120.0),
        dt: Seconds::new(0.05),
        averaging: 256,
    }
}

/// The splitmix64 generator. Kept here rather than borrowed from the
/// serve layer, so no change to the program can change the inputs.
#[derive(Debug, Clone)]
struct SplitMix(u64);

impl SplitMix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n` is tiny here, so modulo bias is nil).
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One request of a stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Draw {
    /// Analyte concentration, molar.
    pub concentration: f64,
    /// Whether this is a repeat of a hot spec.
    pub hot: bool,
}

/// A seeded request stream (see the module docs).
#[derive(Debug, Clone)]
pub struct Stream {
    rng: SplitMix,
    /// Bit patterns of every concentration drawn so far.
    seen: HashSet<u64>,
    hot: Vec<f64>,
    /// The current round of hot picks (a permutation of `0..HOT_SPECS`).
    round: Vec<usize>,
    next_in_round: usize,
    /// Requests sent so far, and which slot of the current block of four
    /// carries the fresh spec.
    sent: u64,
    fresh_slot: u64,
}

impl Stream {
    /// Every request a concentration never sent before.
    pub fn distinct(seed: u64) -> Self {
        Self {
            rng: SplitMix(seed),
            seen: HashSet::new(),
            hot: Vec::new(),
            round: Vec::new(),
            next_in_round: 0,
            sent: 0,
            fresh_slot: 0,
        }
    }

    /// Three repeats of the hot set to one fresh spec (see the module
    /// docs).
    pub fn cached(seed: u64) -> Self {
        let mut s = Self::distinct(seed);
        s.hot = (0..HOT_SPECS).map(|_| s.fresh()).collect();
        s.round = (0..HOT_SPECS).collect();
        s.next_in_round = HOT_SPECS;
        s
    }

    /// The hot set (empty for a distinct stream).
    pub fn hot_set(&self) -> &[f64] {
        &self.hot
    }

    /// The next request.
    pub fn next_draw(&mut self) -> Draw {
        if self.hot.is_empty() {
            return Draw {
                concentration: self.fresh(),
                hot: false,
            };
        }
        if self.sent.is_multiple_of(4) {
            self.fresh_slot = self.rng.below(4) as u64;
        }
        let slot = self.sent % 4;
        self.sent += 1;
        if slot == self.fresh_slot {
            return Draw {
                concentration: self.fresh(),
                hot: false,
            };
        }
        if self.next_in_round == HOT_SPECS {
            // Fisher–Yates: a fresh permutation for every round
            for i in (1..HOT_SPECS).rev() {
                let j = self.rng.below(i + 1);
                self.round.swap(i, j);
            }
            self.next_in_round = 0;
        }
        let pick = self.round[self.next_in_round];
        self.next_in_round += 1;
        Draw {
            concentration: self.hot[pick],
            hot: true,
        }
    }

    /// A log-uniform concentration over 0.1 nM – 1 µM that this stream
    /// has never produced.
    fn fresh(&mut self) -> f64 {
        loop {
            let c = 1e-10 * 10f64.powf(4.0 * self.rng.unit());
            if self.seen.insert(c.to_bits()) {
                return c;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(mut s: Stream, n: usize) -> Vec<Draw> {
        (0..n).map(|_| s.next_draw()).collect()
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        assert_eq!(
            take(Stream::distinct(7), 500),
            take(Stream::distinct(7), 500)
        );
        assert_eq!(take(Stream::cached(7), 500), take(Stream::cached(7), 500));
        assert_ne!(
            take(Stream::distinct(7), 500),
            take(Stream::distinct(8), 500)
        );
        assert_ne!(take(Stream::cached(7), 500), take(Stream::cached(8), 500));
        assert_ne!(Stream::cached(7).hot_set(), Stream::cached(8).hot_set());
    }

    #[test]
    fn distinct_stream_never_repeats_and_stays_in_range() {
        let draws = take(Stream::distinct(3), 5000);
        let bits: HashSet<u64> = draws.iter().map(|d| d.concentration.to_bits()).collect();
        assert_eq!(bits.len(), draws.len());
        for d in &draws {
            assert!(!d.hot);
            assert!((1e-10..=1e-6).contains(&d.concentration), "{d:?}");
        }
    }

    #[test]
    fn cached_stream_is_64_hot_specs_at_three_quarters_and_fresh_never_repeat() {
        let stream = Stream::cached(11);
        let hot: HashSet<u64> = stream.hot_set().iter().map(|c| c.to_bits()).collect();
        assert_eq!(hot.len(), HOT_SPECS);
        let draws = take(stream, 4000);
        // exactly three hot per block of four
        for block in draws.chunks(4) {
            assert_eq!(block.iter().filter(|d| d.hot).count(), 3);
        }
        let hot_sent: Vec<u64> = draws
            .iter()
            .filter(|d| d.hot)
            .map(|d| d.concentration.to_bits())
            .collect();
        assert_eq!(hot_sent.len(), 3000, "a 75 % hot share");
        assert!(hot_sent.iter().all(|b| hot.contains(b)));
        let hot_distinct: HashSet<u64> = hot_sent.iter().copied().collect();
        assert_eq!(hot_distinct.len(), HOT_SPECS, "every hot spec is used");
        let fresh: Vec<u64> = draws
            .iter()
            .filter(|d| !d.hot)
            .map(|d| d.concentration.to_bits())
            .collect();
        let fresh_distinct: HashSet<u64> = fresh.iter().copied().collect();
        assert_eq!(
            fresh_distinct.len(),
            fresh.len(),
            "fresh specs never repeat"
        );
        assert!(fresh.iter().all(|b| !hot.contains(b)));
    }

    #[test]
    fn hot_specs_recur_well_inside_the_cache() {
        // between two sends of one hot spec, fewer distinct specs pass
        // than the 256-entry cache holds, so the hot set is never evicted
        let draws = take(Stream::cached(5), 20_000);
        let mut last: std::collections::HashMap<u64, usize> = Default::default();
        let mut worst = 0;
        for (i, d) in draws.iter().enumerate() {
            if d.hot {
                if let Some(prev) = last.insert(d.concentration.to_bits(), i) {
                    worst = worst.max(i - prev);
                }
            }
        }
        assert!(worst < 256 - HOT_SPECS, "worst recurrence gap {worst}");
    }
}
