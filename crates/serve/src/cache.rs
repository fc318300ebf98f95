//! The content-addressed result cache and its canonical job hash.
//!
//! The whole stack is deterministic by construction: identical
//! `(JobSpec, seed, config)` provably yields bit-identical reports. This
//! module turns that property into the fast path — a repeated request is
//! answered by a hash lookup instead of a farm solve.
//!
//! # Key canonicalization
//!
//! [`job_key`] folds the spec's own bits into a 128-bit [`JobKey`]; no
//! text is formatted and nothing is allocated:
//!
//! * the words go in a fixed order: the variant tag, then the enum tags
//!   ([`canti_farm::Receptor`], [`canti_farm::ProbeMode`]) as fixed small
//!   integers, then every field in declaration order, so the key cannot
//!   depend on field order or on how an enum is declared;
//! * a float enters as its IEEE-754 bit pattern, so `0.0` and `-0.0`
//!   key apart and every 1-ulp change moves the key. Every NaN is first
//!   mapped to one bit pattern, so all NaN payloads share one key. That
//!   is safe: the stack never branches on a NaN payload;
//! * integers enter as their value.
//!
//! Two specs therefore fold the same words exactly when their derived
//! `Debug` texts agree, and the property tests check that their keys
//! follow. Each of the key's two 64-bit lanes takes every word through
//! a bijection of the lane's state, so two specs of one variant that
//! differ in a single field get different keys in both lanes. Specs
//! that differ more collide only by chance, at 128 bits.
//!
//! # Eviction determinism rule
//!
//! [`ReportCache`] never reads a clock. Recency is a logical access
//! sequence number bumped on every lookup/insert, so for a scripted
//! arrival order the hit/miss/eviction sequence is a pure function of
//! that order — bit-identical at any worker or shard count. Capacity is
//! enforced by evicting the least-recently-used entry (smallest access
//! number; key order breaks the tie deterministically, though ties
//! cannot actually occur since the sequence is strictly increasing).
//!
//! Only **successful** job outputs are cached. A per-job failure (or a
//! chaos-injected fault) is never inserted, so transient faults cannot
//! poison the cache: the request is answered with its error, and the
//! next identical request recomputes.

use std::collections::BTreeMap;

use canti_farm::{JobOutput, JobSpec};

use crate::shard::splitmix64;

/// Policy for the content-addressed report cache. `None` on
/// [`crate::ServeConfig::cache`] (the default) disables caching and
/// coalescing entirely, preserving pre-existing scripted traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Maximum cached reports per shard. Clamped to ≥ 1. When full, the
    /// least-recently-used entry is evicted (logical access order, never
    /// wall time).
    pub capacity: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self { capacity: 256 }
    }
}

impl CacheConfig {
    /// The effective capacity (configured value, at least 1).
    #[must_use]
    pub fn effective_capacity(&self) -> usize {
        self.capacity.max(1)
    }
}

/// The 128-bit content hash of one [`JobSpec`]: two lanes folded over
/// the spec's tags and field bits (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobKey(pub [u64; 2]);

impl JobKey {
    /// Folds the key into one `u64` for request-seed derivation: with
    /// the cache on, a request's RNG stream derives from
    /// [`crate::shard::request_seed`] over the config base and this
    /// fold, so identical specs yield identical payload bits on any
    /// shard — cached and recomputed responses compare `==` bitwise.
    #[must_use]
    pub fn fold(&self) -> u64 {
        splitmix64(self.0[0] ^ self.0[1].rotate_left(32))
    }
}

/// Where the two lanes start: the first two SHA-512 initial hash words,
/// any two distinct constants would do.
const LANE_OFFSETS: [u64; 2] = [0x6A09_E667_F3BC_C908, 0xBB67_AE85_84CA_A73B];

/// The one bit pattern every NaN is keyed as.
const NAN_BITS: u64 = 0x7FF8_0000_0000_0000;

/// The odd multipliers of the two lanes.
const LANE_MULTIPLIERS: [u64; 2] = [0x9E37_79B9_7F4A_7C15, 0xD1B5_4A32_D192_ED03];

/// A key under construction. A word is xored into lane 0 as it is and
/// into lane 1 premixed by splitmix64, and each lane is then multiplied
/// by its odd constant and rotated. Each step is a bijection of the
/// lane's state for a fixed word and of the word for a fixed state; the
/// premix keeps the lanes from sharing algebraic structure, and it is
/// off the lanes' dependency chain, so the fold costs about one
/// multiply per word.
struct KeyFold([u64; 2]);

impl KeyFold {
    fn word(self, w: u64) -> Self {
        let [a, b] = self.0;
        Self([
            (a ^ w).wrapping_mul(LANE_MULTIPLIERS[0]).rotate_left(29),
            (b ^ splitmix64(w))
                .wrapping_mul(LANE_MULTIPLIERS[1])
                .rotate_left(31),
        ])
    }

    fn float(self, v: f64) -> Self {
        self.word(if v.is_nan() { NAN_BITS } else { v.to_bits() })
    }

    /// Each lane through splitmix64 (a bijection), so every key bit
    /// depends on every word.
    fn finish(self) -> JobKey {
        JobKey(self.0.map(splitmix64))
    }
}

/// The content hash of `job` — see the module docs for what it folds.
#[must_use]
pub fn job_key(job: &JobSpec) -> JobKey {
    use canti_farm::{ProbeMode, Receptor};
    let key = KeyFold(LANE_OFFSETS);
    let key = match job {
        JobSpec::StaticDoseResponse {
            receptor,
            concentration,
            baseline,
            association,
            wash,
            dt,
            averaging,
        } => key
            .word(0)
            .word(match receptor {
                Receptor::AntiIgg => 0,
                Receptor::AntiPsa => 1,
                Receptor::Dna20mer => 2,
            })
            .float(concentration.value())
            .float(baseline.value())
            .float(association.value())
            .float(wash.value())
            .float(dt.value())
            .word(*averaging as u64),
        JobSpec::ProcessVariation {
            thickness_sigma_rel,
        } => key.word(1).float(*thickness_sigma_rel),
        JobSpec::CrossReactivity {
            target,
            interferent,
        } => key.word(2).float(target.value()).float(interferent.value()),
        JobSpec::Probe(mode) => {
            let key = key.word(3);
            match mode {
                ProbeMode::Value(v) => key.word(0).float(*v),
                ProbeMode::Draws(n) => key.word(1).word(*n as u64),
                ProbeMode::Panic => key.word(2),
                ProbeMode::Fail => key.word(3),
                ProbeMode::Flaky { p_fail } => key.word(4).float(*p_fail),
            }
        }
        JobSpec::ChaosScan {
            fault_seed,
            faults,
            samples,
        } => key
            .word(4)
            .word(*fault_seed)
            .word(*faults as u64)
            .word(*samples as u64),
    };
    key.finish()
}

/// Running tallies of one shard's report cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found nothing (the request went to the farm).
    pub misses: u64,
    /// Successful outputs inserted.
    pub insertions: u64,
    /// Entries evicted at capacity (LRU by logical access order).
    pub evictions: u64,
    /// Entries currently held.
    pub entries: u64,
}

impl CacheStats {
    /// `self` plus `other` field-wise — how the sharded engine sums its
    /// per-shard caches.
    #[must_use]
    pub fn merged(self, other: Self) -> Self {
        Self {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            insertions: self.insertions + other.insertions,
            evictions: self.evictions + other.evictions,
            entries: self.entries + other.entries,
        }
    }
}

#[derive(Debug, Clone)]
struct CacheEntry {
    output: JobOutput,
    last_access: u64,
}

/// The capacity-bounded, deterministically evicting report cache.
///
/// One per shard (constructed from [`crate::ServeConfig::cache`]), held
/// by that shard's batch executor: the shard's engine looks up at
/// admission, the executor inserts batch results in admission order.
/// See the module docs for the eviction determinism rule.
#[derive(Debug)]
pub struct ReportCache {
    config: CacheConfig,
    entries: BTreeMap<JobKey, CacheEntry>,
    /// Logical access sequence — bumped per lookup/insert, never a clock.
    tick: u64,
    stats: CacheStats,
}

impl ReportCache {
    /// An empty cache under `config`.
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        Self {
            config,
            entries: BTreeMap::new(),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Looks `key` up, returning a clone of the cached output on a hit.
    /// Every call counts as a hit or a miss and (on a hit) refreshes the
    /// entry's recency.
    pub fn lookup(&mut self, key: JobKey) -> Option<JobOutput> {
        self.tick += 1;
        match self.entries.get_mut(&key) {
            Some(entry) => {
                entry.last_access = self.tick;
                self.stats.hits += 1;
                Some(entry.output.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts a successful output under `key`, evicting the
    /// least-recently-used entry if the cache is at capacity. Re-inserting
    /// an existing key refreshes its recency (the newer output is kept;
    /// by the determinism contract it is bit-identical anyway).
    pub fn insert(&mut self, key: JobKey, output: JobOutput) {
        self.tick += 1;
        let fresh = CacheEntry {
            output,
            last_access: self.tick,
        };
        if self.entries.insert(key, fresh).is_none() {
            self.stats.insertions += 1;
            let capacity = self.config.effective_capacity();
            while self.entries.len() > capacity {
                let victim = self
                    .entries
                    .iter()
                    .min_by_key(|(k, e)| (e.last_access, **k))
                    .map(|(k, _)| *k)
                    .expect("cache is non-empty above capacity");
                self.entries.remove(&victim);
                self.stats.evictions += 1;
            }
        }
        self.stats.entries = self.entries.len() as u64;
    }

    /// The running tallies (entry count included).
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Entries currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The cached keys in LRU order (least recent first) — test support
    /// for pinning eviction order.
    #[must_use]
    pub fn keys_by_recency(&self) -> Vec<JobKey> {
        let mut keys: Vec<(u64, JobKey)> = self
            .entries
            .iter()
            .map(|(k, e)| (e.last_access, *k))
            .collect();
        keys.sort_unstable();
        keys.into_iter().map(|(_, k)| k).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canti_farm::ProbeMode;

    fn out(i: usize) -> JobOutput {
        JobOutput {
            job_index: i,
            kind: "probe",
            metrics: vec![("value", i as f64)],
        }
    }

    fn probe(v: f64) -> JobSpec {
        JobSpec::Probe(ProbeMode::Value(v))
    }

    #[test]
    fn keys_follow_the_bit_equality_classes() {
        assert_eq!(job_key(&probe(2.0)), job_key(&probe(2.0)));
        assert_ne!(job_key(&probe(2.0)), job_key(&probe(3.0)));
        assert_ne!(job_key(&probe(0.0)), job_key(&probe(-0.0)));
        assert_ne!(
            job_key(&probe(1.5)),
            job_key(&probe(f64::from_bits(1.5f64.to_bits() + 1)))
        );
        // all NaN payloads share one key
        let quiet = f64::NAN;
        let other = f64::from_bits(quiet.to_bits() ^ 1);
        assert_eq!(job_key(&probe(quiet)), job_key(&probe(other)));
        assert_ne!(job_key(&probe(f64::INFINITY)), job_key(&probe(quiet)));
        assert_ne!(
            job_key(&JobSpec::Probe(ProbeMode::Draws(2))),
            job_key(&JobSpec::Probe(ProbeMode::Value(2.0)))
        );
    }

    #[test]
    fn lru_eviction_follows_logical_access_order() {
        let mut c = ReportCache::new(CacheConfig { capacity: 2 });
        let (a, b, d) = (
            job_key(&probe(1.0)),
            job_key(&probe(2.0)),
            job_key(&probe(3.0)),
        );
        c.insert(a, out(1));
        c.insert(b, out(2));
        assert!(c.lookup(a).is_some(), "refresh a: b is now LRU");
        c.insert(d, out(3));
        assert_eq!(c.len(), 2);
        assert!(c.lookup(b).is_none(), "b was evicted");
        assert!(c.lookup(a).is_some());
        assert!(c.lookup(d).is_some());
        let s = c.stats();
        assert_eq!((s.insertions, s.evictions, s.entries), (3, 1, 2));
        assert_eq!(s.hits, 3);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn reinsert_refreshes_without_counting_an_insertion() {
        let mut c = ReportCache::new(CacheConfig { capacity: 2 });
        let a = job_key(&probe(1.0));
        c.insert(a, out(1));
        c.insert(a, out(1));
        assert_eq!(c.stats().insertions, 1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn capacity_clamps_to_one() {
        let mut c = ReportCache::new(CacheConfig { capacity: 0 });
        c.insert(job_key(&probe(1.0)), out(1));
        c.insert(job_key(&probe(2.0)), out(2));
        assert_eq!(c.len(), 1, "degenerate capacity still holds one entry");
    }

    #[test]
    fn fold_is_stable() {
        let k = job_key(&probe(4.0));
        assert_eq!(k.fold(), k.fold());
        assert_ne!(k.fold(), job_key(&probe(5.0)).fold());
    }
}
