//! The content-addressed result cache and its canonical job hash.
//!
//! The whole stack is deterministic by construction: identical
//! `(JobSpec, seed, config)` provably yields bit-identical reports. This
//! module turns that property into the fast path — a repeated request is
//! answered by a hash lookup instead of a farm solve.
//!
//! # Key canonicalization
//!
//! [`job_key`] hashes the **canonical NDJSON line** of the spec, built
//! with the same [`canti_obs::ndjson`] forms the telemetry pipeline
//! emits and [`canti_obs::parse`] round-trips:
//!
//! * fields are written in a fixed declaration order, so the key cannot
//!   depend on field or map ordering;
//! * floats go through [`canti_obs::JsonValue::F64`], whose `Display` is
//!   the shortest round-tripping decimal — every distinct finite bit
//!   pattern gets a distinct spelling, and the non-finite values use the
//!   canonical `"NaN"` / `"Infinity"` / `"-Infinity"` strings (all NaN
//!   payloads collapse to one key, which is safe: the stack never
//!   branches on a NaN payload);
//! * integers and enum tags are emitted as plain JSON scalars/strings.
//!
//! The line is then hashed with two independent 64-bit FNV-1a lanes into
//! a 128-bit [`JobKey`], wide enough that distinct specs colliding is
//! not a practical concern (and the proptest suite hunts for collisions
//! over dense spec neighborhoods anyway). [`job_key`] never builds the
//! line: the same canonical writer streams its bytes straight into both
//! lanes, so the key is the FNV-1a hash of exactly the bytes
//! [`canonical_job_line`] returns.
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
use std::fmt;

use canti_farm::{JobOutput, JobSpec};
use canti_obs::{ndjson, JsonValue};

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

/// The 128-bit content hash of one [`JobSpec`]: two independent FNV-1a
/// 64 lanes over the spec's canonical NDJSON line.
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
        crate::shard::splitmix64(self.0[0] ^ self.0[1].rotate_left(32))
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Second-lane offset: the FNV offset basis mixed once, so the two lanes
/// walk decorrelated trajectories over the same bytes.
const FNV_OFFSET_LANE2: u64 = 0x6c62_272e_07bb_0142;

/// A sink that folds every byte written to it into both FNV-1a lanes.
/// FNV-1a is a byte-at-a-time fold, so hashing the pieces of a line as
/// they are written equals hashing the whole line.
struct KeyHasher([u64; 2]);

impl fmt::Write for KeyHasher {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let [mut a, mut b] = self.0;
        for &byte in s.as_bytes() {
            a = (a ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
            b = (b ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
        self.0 = [a, b];
        Ok(())
    }
}

/// The canonical NDJSON line a [`JobSpec`] hashes as. Public so the
/// property tests can pin its stability directly.
#[must_use]
pub fn canonical_job_line(job: &JobSpec) -> String {
    let mut line = String::new();
    let _ = write_canonical(&mut line, job);
    line
}

/// The content hash of `job` — see the module docs for the canonical
/// form it is computed over.
#[must_use]
pub fn job_key(job: &JobSpec) -> JobKey {
    let mut hasher = KeyHasher([FNV_OFFSET, FNV_OFFSET_LANE2]);
    let _ = write_canonical(&mut hasher, job);
    JobKey(hasher.0)
}

/// Writes `job`'s canonical NDJSON line into `out` — the one definition
/// behind both [`canonical_job_line`] and [`job_key`].
fn write_canonical(out: &mut impl fmt::Write, job: &JobSpec) -> fmt::Result {
    use canti_farm::{ProbeMode, Receptor};
    let tag = |name: &str| ("job", JsonValue::from(name));
    match job {
        JobSpec::StaticDoseResponse {
            receptor,
            concentration,
            baseline,
            association,
            wash,
            dt,
            averaging,
        } => {
            let receptor = match receptor {
                Receptor::AntiIgg => "anti_igg",
                Receptor::AntiPsa => "anti_psa",
                Receptor::Dna20mer => "dna_20mer",
            };
            ndjson::write_object(
                out,
                &[
                    tag("static_dose_response"),
                    ("receptor", receptor.into()),
                    ("concentration", concentration.value().into()),
                    ("baseline", baseline.value().into()),
                    ("association", association.value().into()),
                    ("wash", wash.value().into()),
                    ("dt", dt.value().into()),
                    ("averaging", (*averaging).into()),
                ],
            )
        }
        JobSpec::ProcessVariation {
            thickness_sigma_rel,
        } => ndjson::write_object(
            out,
            &[
                tag("process_variation"),
                ("thickness_sigma_rel", (*thickness_sigma_rel).into()),
            ],
        ),
        JobSpec::CrossReactivity {
            target,
            interferent,
        } => ndjson::write_object(
            out,
            &[
                tag("cross_reactivity"),
                ("target", target.value().into()),
                ("interferent", interferent.value().into()),
            ],
        ),
        JobSpec::Probe(mode) => match mode {
            ProbeMode::Value(v) => ndjson::write_object(
                out,
                &[tag("probe"), ("mode", "value".into()), ("v", (*v).into())],
            ),
            ProbeMode::Draws(n) => ndjson::write_object(
                out,
                &[tag("probe"), ("mode", "draws".into()), ("n", (*n).into())],
            ),
            ProbeMode::Panic => {
                ndjson::write_object(out, &[tag("probe"), ("mode", "panic".into())])
            }
            ProbeMode::Fail => ndjson::write_object(out, &[tag("probe"), ("mode", "fail".into())]),
            ProbeMode::Flaky { p_fail } => ndjson::write_object(
                out,
                &[
                    tag("probe"),
                    ("mode", "flaky".into()),
                    ("p_fail", (*p_fail).into()),
                ],
            ),
        },
        JobSpec::ChaosScan {
            fault_seed,
            faults,
            samples,
        } => ndjson::write_object(
            out,
            &[
                tag("chaos_scan"),
                ("fault_seed", (*fault_seed).into()),
                ("faults", (*faults).into()),
                ("samples", (*samples).into()),
            ],
        ),
    }
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
    /// `self` plus `other` field-wise — how the sharded fronts sum their
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
/// One per shard (constructed from [`crate::ServeConfig::cache`]),
/// shared between that shard's admission front and batch executor: the
/// front looks up at admission, the executor inserts batch results in
/// admission order. See the module docs for the eviction determinism
/// rule.
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
    fn canonical_line_is_stable_and_distinct_per_spec() {
        assert_eq!(
            canonical_job_line(&probe(1.5)),
            "{\"job\":\"probe\",\"mode\":\"value\",\"v\":1.5}"
        );
        assert_ne!(
            canonical_job_line(&probe(1.5)),
            canonical_job_line(&probe(1.25))
        );
        // all NaN payloads collapse to the one canonical spelling
        let quiet = f64::NAN;
        let other = f64::from_bits(quiet.to_bits() ^ 1);
        assert_eq!(
            canonical_job_line(&probe(quiet)),
            canonical_job_line(&probe(other))
        );
        assert!(canonical_job_line(&probe(f64::INFINITY)).contains("Infinity"));
    }

    #[test]
    fn keys_match_exactly_when_lines_match() {
        assert_eq!(job_key(&probe(2.0)), job_key(&probe(2.0)));
        assert_ne!(job_key(&probe(2.0)), job_key(&probe(3.0)));
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
