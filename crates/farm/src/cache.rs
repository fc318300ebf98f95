//! Memoized per-chip precomputations shared across a batch.
//!
//! The expensive part of a static-mode job is not the assay itself but the
//! chain characterization behind it: building the readout chain,
//! self-calibrating the offset DACs (112 000 electrical samples) and
//! measuring the transfer + noise burst (32 000 more). That response
//! is a property of the chip/config, not of the job — so the farm computes
//! it once per distinct configuration and shares it across workers via
//! [`Arc`].
//!
//! Lookups hold the cache lock across a miss's computation: concurrent
//! workers wanting the same key block until the first one fills it, so an
//! expensive precompute runs exactly once per batch no matter the worker
//! count. The computation itself is deterministic (seeded by the config),
//! which is what keeps memoization invisible to the determinism contract.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use canti_core::assay::StaticChainResponse;
use canti_core::chip::{BiosensorChip, Environment};
use canti_core::resonant_system::{ResonantCantileverSystem, ResonantLoopConfig};
use canti_core::static_system::{StaticCantileverSystem, StaticReadoutConfig};
use canti_core::CoreError;

/// Small-signal summary of the resonant loop around the nominal chip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResonantBaseline {
    /// Unloaded (fluid-loaded, analyte-free) resonant frequency, Hz.
    pub baseline_frequency_hz: f64,
    /// Mass responsivity |df/dm|, Hz/kg.
    pub responsivity_hz_per_kg: f64,
    /// Functionalized plan area of the beam, m².
    pub plan_area_m2: f64,
}

/// Counters and occupancy of a [`PrecomputeCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
    /// Entries dropped to stay under a configured capacity.
    pub evictions: u64,
    /// Entries currently resident (all maps).
    pub entries: u64,
    /// Rough resident payload size: per-entry value + key sizes. An
    /// estimate (map overhead excluded), meant for telemetry dashboards,
    /// not allocators.
    pub bytes_estimate: u64,
}

fn fnv1a_u64(h: u64, x: u64) -> u64 {
    let mut h = h;
    for b in x.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn fnv1a_f64(h: u64, x: f64) -> u64 {
    fnv1a_u64(h, x.to_bits())
}

/// Stable hash of a static readout configuration — the cache key for its
/// chain response.
#[must_use]
pub fn static_config_key(config: &StaticReadoutConfig) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    h = fnv1a_f64(h, config.sample_rate);
    h = fnv1a_f64(h, config.chop_frequency);
    h = fnv1a_f64(h, config.chopper_gain);
    h = fnv1a_f64(h, config.lpf_corner);
    h = fnv1a_u64(h, config.pga_gains.len() as u64);
    for &g in &config.pga_gains {
        h = fnv1a_f64(h, g);
    }
    h = fnv1a_f64(h, config.output_gain);
    h = fnv1a_f64(h, config.supply_rail);
    h = fnv1a_f64(h, config.amp_white_noise);
    h = fnv1a_f64(h, config.amp_flicker_at_1hz);
    h = fnv1a_f64(h, config.amp_offset.value());
    h = fnv1a_f64(h, config.residual_offset.value());
    h = fnv1a_f64(h, config.offset_dac_range.value());
    h = fnv1a_u64(h, u64::from(config.offset_dac_bits));
    h = fnv1a_u64(h, config.seed);
    h
}

/// The static-chain map plus its FIFO insertion order (for capacity
/// eviction), guarded by one lock.
#[derive(Debug, Default)]
struct StaticChains {
    map: HashMap<u64, Arc<StaticChainResponse>>,
    order: std::collections::VecDeque<u64>,
}

/// The shared memoization layer.
#[derive(Debug, Default)]
pub struct PrecomputeCache {
    static_chains: Mutex<StaticChains>,
    resonant: Mutex<HashMap<u64, Arc<ResonantBaseline>>>,
    /// FIFO cap on distinct static-chain configs (`None` = unbounded).
    max_static_entries: Option<usize>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl PrecomputeCache {
    /// Creates an empty, unbounded cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a cache evicting static-chain entries FIFO beyond
    /// `max_static_entries` distinct configs — for long-lived farms fed
    /// many one-shot configurations. Eviction never changes results
    /// (evicted entries are recomputed deterministically on re-request);
    /// it only trades memory for recompute time.
    #[must_use]
    pub fn with_capacity(max_static_entries: usize) -> Self {
        Self {
            max_static_entries: Some(max_static_entries.max(1)),
            ..Self::default()
        }
    }

    /// Counters and occupancy so far.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let static_entries = self.static_chains.lock().expect("cache lock").map.len() as u64;
        let resonant_entries = self.resonant.lock().expect("cache lock").len() as u64;
        let per_static =
            (std::mem::size_of::<StaticChainResponse>() + std::mem::size_of::<u64>()) as u64;
        let per_resonant =
            (std::mem::size_of::<ResonantBaseline>() + std::mem::size_of::<u64>()) as u64;
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: static_entries + resonant_entries,
            bytes_estimate: static_entries * per_static + resonant_entries * per_resonant,
        }
    }

    /// The calibrated chain response of the paper's static chip under
    /// `config`, computed on first request and memoized thereafter.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] if the system cannot be built or calibrated.
    pub fn static_chain(
        &self,
        config: &StaticReadoutConfig,
    ) -> Result<Arc<StaticChainResponse>, CoreError> {
        let key = static_config_key(config);
        let mut chains = self.static_chains.lock().expect("cache lock");
        if let Some(chain) = chains.map.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(chain));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let chip = BiosensorChip::paper_static_chip()?;
        let mut system = StaticCantileverSystem::new(chip, config.clone())?;
        system.calibrate_offsets()?;
        let chain = Arc::new(StaticChainResponse::measure(&mut system)?);
        chains.map.insert(key, Arc::clone(&chain));
        chains.order.push_back(key);
        if let Some(cap) = self.max_static_entries {
            while chains.map.len() > cap {
                if let Some(oldest) = chains.order.pop_front() {
                    chains.map.remove(&oldest);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                } else {
                    break;
                }
            }
        }
        Ok(chain)
    }

    /// The nominal resonant chip's small-signal mass-loading baseline
    /// (in air), computed once and memoized.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] if the resonant system cannot be built.
    pub fn resonant_baseline(&self) -> Result<Arc<ResonantBaseline>, CoreError> {
        let mut map = self.resonant.lock().expect("cache lock");
        if let Some(base) = map.get(&0) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(base));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let chip = BiosensorChip::paper_resonant_chip()?;
        let plan_area_m2 = chip.geometry().plan_area().value();
        let system =
            ResonantCantileverSystem::new(chip, Environment::air(), ResonantLoopConfig::default())?;
        let loading = system.mass_loading();
        let base = Arc::new(ResonantBaseline {
            baseline_frequency_hz: loading.resonator().resonant_frequency().value(),
            responsivity_hz_per_kg: loading.responsivity(),
            plan_area_m2,
        });
        map.insert(0, Arc::clone(&base));
        Ok(base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_key_is_stable_and_field_sensitive() {
        let a = StaticReadoutConfig::default();
        let b = StaticReadoutConfig::default();
        assert_eq!(static_config_key(&a), static_config_key(&b));
        let mut c = StaticReadoutConfig::default();
        c.seed = c.seed.wrapping_add(1);
        assert_ne!(static_config_key(&a), static_config_key(&c));
        let mut d = StaticReadoutConfig::default();
        d.lpf_corner += 1.0;
        assert_ne!(static_config_key(&a), static_config_key(&d));
    }

    #[test]
    fn resonant_baseline_memoizes() {
        let cache = PrecomputeCache::new();
        let a = cache.resonant_baseline().unwrap();
        let b = cache.resonant_baseline().unwrap();
        assert_eq!(*a, *b);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!(a.baseline_frequency_hz > 10e3);
        assert!(a.responsivity_hz_per_kg > 0.0);
        assert!(a.plan_area_m2 > 0.0);
    }

    #[test]
    fn static_chain_memoizes_per_config() {
        let cache = PrecomputeCache::new();
        let cfg = StaticReadoutConfig::default();
        let a = cache.static_chain(&cfg).unwrap();
        let b = cache.static_chain(&cfg).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit");
        assert_eq!((cache.stats().hits, cache.stats().misses), (1, 1));
        let mut other = cfg.clone();
        other.seed = cfg.seed.wrapping_add(99);
        let c = cache.static_chain(&other).unwrap();
        assert_eq!(cache.stats().misses, 2);
        // different mismatch draw -> different measured noise, same design
        // transfer
        assert_eq!(
            a.transfer_volts_per_stress, c.transfer_volts_per_stress,
            "transfer is mismatch-independent"
        );
    }

    #[test]
    fn stats_track_entries_and_bytes() {
        let cache = PrecomputeCache::new();
        let empty = cache.stats();
        assert_eq!(
            (empty.entries, empty.bytes_estimate, empty.evictions),
            (0, 0, 0)
        );
        cache.resonant_baseline().unwrap();
        cache.static_chain(&StaticReadoutConfig::default()).unwrap();
        let s = cache.stats();
        assert_eq!(s.entries, 2);
        assert!(s.bytes_estimate > 0);
        assert_eq!(s.evictions, 0);
    }

    #[test]
    fn capacity_evicts_fifo_and_recomputes_identically() {
        let cache = PrecomputeCache::with_capacity(1);
        let a_cfg = StaticReadoutConfig::default();
        let b_cfg = StaticReadoutConfig {
            seed: a_cfg.seed.wrapping_add(7),
            ..StaticReadoutConfig::default()
        };
        let a = cache.static_chain(&a_cfg).unwrap();
        cache.static_chain(&b_cfg).unwrap(); // pushes `a` out (FIFO, cap 1)
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 1);
        // re-requesting `a` misses and recomputes the exact same response
        let a2 = cache.static_chain(&a_cfg).unwrap();
        assert_eq!(*a, *a2, "eviction must be invisible to results");
        assert_eq!(cache.stats().misses, 3);
        assert_eq!(cache.stats().evictions, 2);
    }
}
