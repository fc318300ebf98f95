//! Serve-tier fault plans: scripted shard kills.
//!
//! [`FaultPlan`](crate::FaultPlan) perturbs *measurements* — the
//! instrument keeps running and produces wrong numbers. A
//! [`ServeFaultPlan`] instead attacks the serving machinery itself: it
//! kills a whole shard before one of its batches executes. The serve
//! layer's self-healing path (terminal answers, failover routing, shard
//! restart) is exercised by replaying these plans deterministically.
//!
//! # Determinism contract
//!
//! A kill is keyed to the shard's **batch index**, which the serve
//! layer decides on one thread before any parallelism starts (batch
//! formation is a pure function of the arrival script). Batches formed
//! behind a killed batch are stranded and never execute, so a kill
//! fires before the first batch the shard executes at or past its
//! index. No trigger reads wall-clock time, queue races or worker
//! identity, so a scripted chaos run fires the same kills at the same
//! points at any worker count. [`ServeFaultPlan::default`] is empty,
//! and the serve layer is required to be bit-identical under an empty
//! plan to a build with no plan at all.

/// One scheduled shard kill: the shard's executor panics before its
/// batch `batch` executes. The serve layer answers every outstanding
/// request on the shard terminally and restarts the shard after its
/// backoff; the shard's batcher thread and worker pool live on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeFaultEvent {
    /// The shard killed.
    pub shard: usize,
    /// Shard-local batch index the kill precedes. If that batch never
    /// executes (it was stranded behind an earlier kill), the kill
    /// precedes the shard's next executed batch.
    pub batch: u64,
}

/// A scripted schedule of shard kills.
///
/// The default plan is empty and provably inert: the serve layer built
/// with `ServeFaultPlan::default()` is byte-identical to one built with
/// no plan at all.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServeFaultPlan {
    /// The scheduled kills, in no particular order (triggers are
    /// absolute, not sequential).
    pub events: Vec<ServeFaultEvent>,
}

impl ServeFaultPlan {
    /// A plan over explicit events.
    #[must_use]
    pub fn new(events: Vec<ServeFaultEvent>) -> Self {
        Self { events }
    }

    /// Whether the plan schedules nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Convenience: a plan that kills `shard` before its `batch`-th
    /// batch executes.
    #[must_use]
    pub fn kill_shard(shard: usize, batch: u64) -> Self {
        Self::new(vec![ServeFaultEvent { shard, batch }])
    }

    /// A seeded smoke plan for `shards` shards: one kill of a
    /// deterministically chosen **non-zero** shard before its first
    /// batch. Keeping shard 0 alive guarantees rerouted traffic lands on
    /// a shard whose telemetry artifact the CI gate reads.
    ///
    /// # Panics
    ///
    /// Panics when `shards < 2` — a kill with nowhere to fail over to is
    /// not a failover smoke.
    #[must_use]
    pub fn generate(seed: u64, shards: usize) -> Self {
        assert!(
            shards >= 2,
            "serve chaos needs >= 2 shards so traffic can fail over"
        );
        let victim = 1 + (seed % (shards as u64 - 1)) as usize;
        Self::kill_shard(victim, 0)
    }
}

/// The per-shard serve-fault injector: holds the batch indexes a
/// [`ServeFaultPlan`] still schedules for one shard, and consumes each
/// before the first batch executed at or past it, so every kill fires
/// at most once.
#[derive(Debug, Clone)]
pub struct ServeChaos {
    kills: Vec<u64>,
}

impl ServeChaos {
    /// The injector for `shard`'s slice of `plan`.
    #[must_use]
    pub fn new(plan: &ServeFaultPlan, shard: usize) -> Self {
        Self {
            kills: plan
                .events
                .iter()
                .filter(|e| e.shard == shard)
                .map(|e| e.batch)
                .collect(),
        }
    }

    /// Whether the injector has no kill left to fire; at construction,
    /// whether its shard's slice of the plan is empty — an empty
    /// injector must be behaviorally identical to no injector.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.kills.is_empty()
    }

    /// Whether the shard dies before executing its batch `batch_index`:
    /// consumes every kill scheduled at or before that index, so a kill
    /// whose own batch was stranded unexecuted fires here rather than
    /// staying pending for the executor's life.
    pub fn on_batch(&mut self, batch_index: u64) -> bool {
        let scheduled = self.kills.len();
        self.kills.retain(|&batch| batch > batch_index);
        self.kills.len() < scheduled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_empty_and_inert() {
        let plan = ServeFaultPlan::default();
        assert!(plan.is_empty());
        let mut chaos = ServeChaos::new(&plan, 0);
        assert!(chaos.is_empty());
        for batch in 0..4 {
            assert!(!chaos.on_batch(batch));
        }
    }

    #[test]
    fn shard_kill_fires_once_on_its_batch() {
        let plan = ServeFaultPlan::kill_shard(1, 2);
        let mut other = ServeChaos::new(&plan, 0);
        assert!(!other.on_batch(2), "wrong shard never fires");
        let mut chaos = ServeChaos::new(&plan, 1);
        assert!(!chaos.on_batch(0));
        assert!(!chaos.on_batch(1));
        assert!(chaos.on_batch(2), "fires on batch 2");
        assert!(!chaos.on_batch(2), "never twice");

        // a kill whose batch was stranded unexecuted fires before the
        // shard's next executed batch, once
        let mut stranded = ServeChaos::new(&ServeFaultPlan::kill_shard(0, 1), 0);
        assert!(!stranded.on_batch(0));
        assert!(stranded.on_batch(3), "batch 1 never ran: fires on batch 3");
        assert!(stranded.is_empty());
        assert!(!stranded.on_batch(4), "never twice");
    }

    #[test]
    fn generate_picks_a_nonzero_victim() {
        for seed in 0..32 {
            for shards in [2usize, 3, 4, 8] {
                let plan = ServeFaultPlan::generate(seed, shards);
                assert_eq!(plan.events.len(), 1);
                let victim = plan.events[0].shard;
                assert!(victim >= 1 && victim < shards, "victim {victim}");
                assert_eq!(plan, ServeFaultPlan::generate(seed, shards));
            }
        }
    }

    #[test]
    #[should_panic(expected = ">= 2 shards")]
    fn generate_rejects_a_single_shard() {
        let _ = ServeFaultPlan::generate(7, 1);
    }
}
