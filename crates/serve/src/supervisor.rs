//! Shard health supervision: the state machine that watches shards die
//! and schedules their resurrection.
//!
//! Each shard moves through [`ShardHealth`]'s four states:
//!
//! ```text
//!            executor panic / batcher death
//!   Healthy ────────────────────────────────────► Down
//!      ▲                                            │ deterministic
//!      │ probation served                           │ backoff elapses
//!      │ (clean batches)                            ▼
//!   Degraded ◄──────────────────────────────── Recovering
//!                    first clean batch
//! ```
//!
//! The supervisor itself performs no I/O and reads no clock — every
//! decision is a pure function of the failure/restart/clean-batch
//! notifications it is fed and the `now_ns` readings the caller passes
//! in. Driven from a [`canti_obs::VirtualClock`] the whole
//! kill → backoff → restart → probation cycle replays bit-identically,
//! which is what lets the chaos determinism tests pin it.
//!
//! Restart delays back off exponentially and deterministically:
//! the `n`-th consecutive failure of a shard schedules its restart
//! `backoff_base_ns << min(n - 1, BACKOFF_MAX_SHIFT)` after the failure
//! was recorded, so the delay caps at 64× the base.

use crate::shard::ShardHealth;

/// Cap on the exponential backoff's shift: the delay stops doubling at
/// `backoff_base_ns << 6`, 64× the base.
const BACKOFF_MAX_SHIFT: u32 = 6;

/// Clean batches a `Degraded` shard must complete before it is
/// `Healthy` again (the first clean batch only promotes `Recovering` →
/// `Degraded`).
const PROBATION_BATCHES: u32 = 1;

/// Policy for shard supervision: the restart backoff's base.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Delay before the first restart attempt, ns on the observer clock.
    pub backoff_base_ns: u64,
}

impl SupervisorConfig {
    /// The deterministic restart delay for a shard's `n`-th consecutive
    /// failure (`n ≥ 1`): `backoff_base_ns << min(n - 1, 6)`,
    /// saturating.
    #[must_use]
    pub fn backoff_ns(&self, failures: u32) -> u64 {
        let shift = failures.saturating_sub(1).min(BACKOFF_MAX_SHIFT);
        self.backoff_base_ns.saturating_mul(1u64 << shift)
    }
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            backoff_base_ns: 1_000_000, // 1 ms
        }
    }
}

/// Per-shard supervision record.
#[derive(Debug, Clone, Copy)]
struct ShardRecord {
    health: ShardHealth,
    /// Consecutive failures since the shard last reached `Healthy`.
    failures: u32,
    /// Restarts performed over the shard's lifetime.
    restarts: u64,
    /// Scheduled restart instant while `Down`.
    next_restart_ns: Option<u64>,
    /// Clean batches served while `Degraded`.
    probation_served: u32,
}

impl ShardRecord {
    fn new() -> Self {
        Self {
            health: ShardHealth::Healthy,
            failures: 0,
            restarts: 0,
            next_restart_ns: None,
            probation_served: 0,
        }
    }
}

/// The deterministic shard health supervisor.
///
/// The caller (the sharded engine, under either driver) notifies it of
/// failures, restarts and clean batches; the supervisor answers health
/// queries and restart-due checks. See the module docs for the state
/// machine.
#[derive(Debug, Clone)]
pub struct ShardSupervisor {
    config: SupervisorConfig,
    records: Vec<ShardRecord>,
}

impl ShardSupervisor {
    /// A supervisor over `shards` shards, all initially `Healthy`.
    #[must_use]
    pub fn new(config: SupervisorConfig, shards: usize) -> Self {
        Self {
            config,
            records: vec![ShardRecord::new(); shards],
        }
    }

    /// `shard`'s current health.
    #[must_use]
    pub fn health(&self, shard: usize) -> ShardHealth {
        self.records[shard].health
    }

    /// Every shard's health, indexed by shard.
    #[must_use]
    pub fn healths(&self) -> Vec<ShardHealth> {
        self.records.iter().map(|r| r.health).collect()
    }

    /// Whether `shard` can accept traffic (everything but `Down`).
    #[must_use]
    pub fn is_live(&self, shard: usize) -> bool {
        self.records[shard].health.is_live()
    }

    /// Restarts performed across all shards.
    #[must_use]
    pub fn total_restarts(&self) -> u64 {
        self.records.iter().map(|r| r.restarts).sum()
    }

    /// Restarts performed on `shard`.
    #[must_use]
    pub fn restarts(&self, shard: usize) -> u64 {
        self.records[shard].restarts
    }

    /// Records a shard death at `now_ns`: the shard goes `Down` and its
    /// restart is scheduled after the deterministic backoff. Returns the
    /// scheduled restart instant.
    pub fn record_failure(&mut self, shard: usize, now_ns: u64) -> u64 {
        let failures = self.records[shard].failures + 1;
        let due = now_ns.saturating_add(self.config.backoff_ns(failures));
        let r = &mut self.records[shard];
        r.health = ShardHealth::Down;
        r.failures = failures;
        r.probation_served = 0;
        r.next_restart_ns = Some(due);
        due
    }

    /// Whether `shard` is `Down` and its scheduled restart instant has
    /// arrived.
    #[must_use]
    pub fn restart_due(&self, shard: usize, now_ns: u64) -> bool {
        let r = &self.records[shard];
        r.health == ShardHealth::Down && r.next_restart_ns.is_some_and(|due| now_ns >= due)
    }

    /// The scheduled restart instant of a `Down` shard.
    #[must_use]
    pub fn next_restart_ns(&self, shard: usize) -> Option<u64> {
        self.records[shard].next_restart_ns
    }

    /// Records that `shard` was restarted: `Down` → `Recovering`.
    pub fn record_restart(&mut self, shard: usize) {
        let r = &mut self.records[shard];
        r.health = ShardHealth::Recovering;
        r.restarts += 1;
        r.next_restart_ns = None;
        r.probation_served = 0;
    }

    /// Records a batch the shard completed cleanly. The first clean
    /// batch promotes `Recovering` → `Degraded`; after
    /// `PROBATION_BATCHES` (1) further clean batches the shard is
    /// `Healthy` again and its failure streak resets.
    pub fn record_clean_batch(&mut self, shard: usize) {
        let r = &mut self.records[shard];
        match r.health {
            ShardHealth::Recovering => {
                r.health = ShardHealth::Degraded;
                r.probation_served = 0;
            }
            ShardHealth::Degraded => {
                r.probation_served += 1;
                if r.probation_served >= PROBATION_BATCHES {
                    r.health = ShardHealth::Healthy;
                    r.failures = 0;
                    r.probation_served = 0;
                }
            }
            ShardHealth::Healthy | ShardHealth::Down => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn supervisor() -> ShardSupervisor {
        ShardSupervisor::new(SupervisorConfig::default(), 3)
    }

    #[test]
    fn lifecycle_walks_all_four_states() {
        let mut s = supervisor();
        assert_eq!(s.health(1), ShardHealth::Healthy);
        assert!(s.is_live(1));

        let due = s.record_failure(1, 100);
        assert_eq!(due, 100 + 1_000_000, "first failure waits one base");
        assert_eq!(s.health(1), ShardHealth::Down);
        assert!(!s.is_live(1));
        let live: Vec<bool> = s.healths().iter().map(ShardHealth::is_live).collect();
        assert_eq!(live, vec![true, false, true]);
        assert!(!s.restart_due(1, due - 1));
        assert!(s.restart_due(1, due));

        s.record_restart(1);
        assert_eq!(s.health(1), ShardHealth::Recovering);
        assert!(s.is_live(1), "a recovering shard takes traffic");
        assert_eq!(s.restarts(1), 1);

        s.record_clean_batch(1);
        assert_eq!(s.health(1), ShardHealth::Degraded);
        s.record_clean_batch(1);
        assert_eq!(s.health(1), ShardHealth::Healthy, "probation of 1 served");
        assert_eq!(s.total_restarts(), 1);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let config = SupervisorConfig {
            backoff_base_ns: 100,
        };
        let delays: Vec<u64> = (1..=9).map(|n| config.backoff_ns(n)).collect();
        assert_eq!(
            delays,
            vec![100, 200, 400, 800, 1_600, 3_200, 6_400, 6_400, 6_400],
            "the delay caps at 64x base"
        );
    }

    #[test]
    fn healthy_recovery_resets_the_failure_streak() {
        let mut s = supervisor();
        s.record_failure(0, 0);
        s.record_restart(0);
        s.record_failure(0, 10);
        assert_eq!(
            s.next_restart_ns(0),
            Some(10 + 2_000_000),
            "second failure in a row doubles the backoff"
        );
        s.record_restart(0);
        s.record_clean_batch(0); // -> Degraded
        s.record_clean_batch(0); // -> Healthy, streak cleared
        let due = s.record_failure(0, 20);
        assert_eq!(due, 20 + 1_000_000, "streak reset to base backoff");
    }

    #[test]
    fn clean_batches_while_down_change_nothing() {
        let mut s = supervisor();
        s.record_failure(2, 0);
        s.record_clean_batch(2);
        assert_eq!(s.health(2), ShardHealth::Down);
    }
}
