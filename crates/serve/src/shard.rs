//! Sharded serving: N independent farm shards behind deterministic
//! request routing, with health supervision and failover.
//!
//! A shard is a complete serving stack of its own — admission queue,
//! executor, persistent worker pool — so shards share no queues; they
//! share only the precompute cache, whose values are pure functions of
//! the config. What binds them into one service is the routing rule and
//! the request-seed rule, both pure functions of the **global** request
//! id:
//!
//! * **Routing** — [`route_request`] sends global id `g` to shard
//!   `splitmix64(g) % shards`. Nothing else (arrival time, payload,
//!   queue depths) influences placement, so the shard assignment of a
//!   request stream is reproducible and invariant under reordering of
//!   *other* requests.
//! * **Request seeds** — [`request_seed`] derives each request's RNG
//!   stream from `(base_seed, global id)` instead of its batch slot.
//!   A request therefore computes the same payload bits no matter which
//!   batch, slot, or shard it lands in — this is what extends the
//!   serve determinism contract from "any worker count" to "any worker
//!   *and shard* count".
//! * **Failover** — when a request's primary shard is
//!   [`ShardHealth::Down`], [`route_failover`] reroutes it to the live
//!   shard with the highest rendezvous rank for that id. The fallback
//!   is a pure function of `(request id, liveness mask)`, so two runs
//!   with the same health script fail over identically — and because
//!   payloads are pinned by [`request_seed`], a failed-over request
//!   still computes the same bits it would have computed on its primary.
//!
//! # What is and is not shard-invariant
//!
//! Changing the shard count re-partitions the queues, so batch
//! *indices*, batch *membership* and queue-depth-dependent decisions
//! (a full queue, a linger expiry) legitimately differ between shard
//! counts. The contract pinned by `tests/shard_determinism.rs` is:
//! per-request payload bits, the routing assignment, and scripted
//! deadline expiries are identical at any `(workers, shards)`; the
//! *full* trace (batches included) is identical across worker counts at
//! a fixed shard count. `tests/serve_failover.rs` extends the same
//! contract to scripted chaos: given the same fault plan, the failover
//! assignment and every terminal answer are identical at any worker
//! count.

use std::sync::Arc;

use canti_farm::{FarmObserver, JobSpec, PrecomputeCache};
use canti_fault::ServeFaultPlan;
use canti_obs::ObsClock;

use crate::engine::{Admission, BatchRecord, ServeEngine, ServeStats};
use crate::queue::RejectReason;
use crate::response::ServeResponse;
use crate::supervisor::{ShardSupervisor, SupervisorConfig};
use crate::ServeConfig;

// routing and seed derivation share the trace ids' finalizer
pub use canti_obs::trace::splitmix64;

/// The routing rule: global request id → shard index. A pure function
/// of `(request_id, shards)`.
///
/// # Panics
///
/// Panics when `shards == 0`: a zero-shard topology has nowhere to
/// route, and silently clamping it to one shard would let a
/// misconfigured front serve traffic on a topology nobody asked for.
#[must_use]
pub fn route_request(request_id: u64, shards: usize) -> usize {
    assert!(shards > 0, "route_request: shards must be >= 1, got 0");
    (splitmix64(request_id) % shards as u64) as usize
}

/// The failover rule: the shard a request lands on given which shards
/// are live. The primary ([`route_request`]) wins while live; otherwise
/// the live shard with the highest rendezvous rank for this id takes
/// over. Returns `None` when no shard is live.
///
/// The rank is a pure hash of `(request id, shard)`, so the fallback
/// order of a given id is a fixed permutation of the shards — two runs
/// with the same liveness mask reroute identically. Rendezvous (rather
/// than "next index up") keeps rerouted load spread over all survivors
/// and keeps each id's fallback target stable as *other* shards change
/// state.
///
/// # Panics
///
/// Panics when `live` is empty (a zero-shard topology, as in
/// [`route_request`]).
#[must_use]
pub fn route_failover(request_id: u64, live: &[bool]) -> Option<usize> {
    let primary = route_request(request_id, live.len());
    if live[primary] {
        return Some(primary);
    }
    live.iter()
        .enumerate()
        .filter(|&(_, &l)| l)
        .max_by_key(|&(shard, _)| rendezvous_rank(request_id, shard))
        .map(|(shard, _)| shard)
}

/// The rendezvous rank of `(request_id, shard)`: an independent hash
/// per pair, so each id induces its own total order over shards.
fn rendezvous_rank(request_id: u64, shard: usize) -> u64 {
    splitmix64(splitmix64(request_id) ^ (shard as u64).wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// The seed rule: `(base_seed, global request id)` → the seed this
/// request's farm RNG stream derives from. Independent of batch index,
/// batch slot and shard, which is what makes payloads shard-invariant.
#[must_use]
pub fn request_seed(base_seed: u64, request_id: u64) -> u64 {
    splitmix64(base_seed ^ splitmix64(request_id))
}

/// One shard's health, as the supervisor tracks it.
///
/// ```text
/// Healthy → Down → Recovering → Degraded → Healthy
/// ```
///
/// Everything but `Down` accepts traffic; `Down` shards are skipped by
/// [`route_failover`] until their backoff elapses and they restart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardHealth {
    /// Serving normally.
    Healthy,
    /// Restarted and past its first clean batch, still on probation.
    Degraded,
    /// Dead: batcher exited or executor poisoned. Takes no traffic.
    Down,
    /// Freshly restarted, no clean batch served yet. Takes traffic.
    Recovering,
}

impl ShardHealth {
    /// Stable label for telemetry and `/healthz`.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Self::Healthy => "healthy",
            Self::Degraded => "degraded",
            Self::Down => "down",
            Self::Recovering => "recovering",
        }
    }

    /// Whether the shard accepts traffic (everything but `Down`).
    #[must_use]
    pub fn is_live(&self) -> bool {
        !matches!(self, Self::Down)
    }
}

/// Configuration of a sharded serving layer: the shard count plus the
/// per-shard [`ServeConfig`] every shard runs with (same base seed on
/// every shard — [`request_seed`] already separates the streams).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardedConfig {
    /// Independent farm shards. Must be ≥ 1.
    pub shards: usize,
    /// The per-shard admission/batching/execution policy.
    pub base: ServeConfig,
}

impl ShardedConfig {
    /// The configured shard count.
    ///
    /// # Panics
    ///
    /// Panics when `shards == 0` — see [`route_request`].
    #[must_use]
    pub fn shard_count(&self) -> usize {
        assert!(self.shards > 0, "ShardedConfig: shards must be >= 1, got 0");
        self.shards
    }
}

impl Default for ShardedConfig {
    fn default() -> Self {
        Self {
            shards: 1,
            base: ServeConfig::default(),
        }
    }
}

/// The serving state machine: one engine per shard behind
/// [`route_request`], sharing one injected clock and one precompute
/// cache, supervised by a [`ShardSupervisor`]. It allocates every
/// request's global id, and every queue, span, log and response keys on
/// that id. Pumped explicitly (one shard is the plain single-queue
/// case), it is what the scripted determinism and failover tests drive;
/// the threaded [`crate::ShardedService`] runs the same machine on the
/// wall clock.
#[derive(Debug)]
pub struct ShardedEngine {
    engines: Vec<ServeEngine>,
    next_id: u64,
    clock: Arc<dyn ObsClock>,
    supervisor: ShardSupervisor,
    failovers: u64,
}

impl ShardedEngine {
    /// A sharded engine under `config`, timing every shard on `clock`,
    /// supervised under [`SupervisorConfig::default`].
    #[must_use]
    pub fn new(config: ShardedConfig, clock: Arc<dyn ObsClock>) -> Self {
        let n = config.shard_count();
        // the chain characterization is computed once per service: every
        // shard, and every restart, shares one precompute cache
        let precompute = Arc::new(PrecomputeCache::new());
        Self {
            engines: (0..n)
                .map(|_| ServeEngine::new(config.base, Arc::clone(&clock), Arc::clone(&precompute)))
                .collect(),
            next_id: 0,
            clock,
            supervisor: ShardSupervisor::new(SupervisorConfig::default(), n),
            failovers: 0,
        }
    }

    /// Attaches one observer per shard (so each shard records into its
    /// own registry, which the merged `/metrics` view labels by shard).
    ///
    /// # Panics
    ///
    /// Panics unless `observers.len()` equals the shard count.
    #[must_use]
    pub fn with_observers(mut self, observers: Vec<FarmObserver>) -> Self {
        assert_eq!(
            observers.len(),
            self.engines.len(),
            "one observer per shard"
        );
        self.engines = self
            .engines
            .into_iter()
            .zip(observers)
            .map(|(e, o)| e.with_observer(o))
            .collect();
        self
    }

    /// Replaces the supervision policy (backoff, probation).
    #[must_use]
    pub fn with_supervisor(mut self, config: SupervisorConfig) -> Self {
        self.supervisor = ShardSupervisor::new(config, self.engines.len());
        self
    }

    /// Arms a [`ServeFaultPlan`]: each shard engine consumes its slice
    /// of the plan. Shards with no scheduled events install nothing, so
    /// an empty plan is provably identical to no plan.
    #[must_use]
    pub fn with_chaos_plan(mut self, plan: &ServeFaultPlan) -> Self {
        self.engines = self
            .engines
            .into_iter()
            .enumerate()
            .map(|(shard, e)| e.with_chaos_plan(plan, shard))
            .collect();
        self
    }

    /// The shard count.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.engines.len()
    }

    /// Submits a request that never expires, returning its **global**
    /// id.
    ///
    /// # Errors
    ///
    /// Rejected with the target shard's [`RejectReason`]; a rejected
    /// submission does not consume a global id, so the id stream — and
    /// with it every later request's routing and seed — is independent
    /// of transient rejections.
    pub fn submit(&mut self, job: JobSpec) -> Result<u64, RejectReason> {
        self.submit_keyed(job, None)
    }

    /// Submits a request that expires `deadline_ns` after admission.
    ///
    /// # Errors
    ///
    /// Rejected with the target shard's [`RejectReason`].
    pub fn submit_with_deadline(
        &mut self,
        job: JobSpec,
        deadline_ns: u64,
    ) -> Result<u64, RejectReason> {
        self.submit_keyed(job, Some(deadline_ns))
    }

    fn submit_keyed(
        &mut self,
        job: JobSpec,
        deadline_ns: Option<u64>,
    ) -> Result<u64, RejectReason> {
        let (shard, id, admission) = self.admit(job, deadline_ns)?;
        self.engines[shard].hold(admission);
        Ok(id)
    }

    /// Routes, fails over and admits one request: the shard that took
    /// it, its global id, and how that shard placed it (queued, or a
    /// cache hit already answered). A failover is counted only once the
    /// target admits: a refused reroute, like every refusal, burns no
    /// global id and counts nothing.
    pub(crate) fn admit(
        &mut self,
        job: JobSpec,
        deadline_ns: Option<u64>,
    ) -> Result<(usize, u64, Admission), RejectReason> {
        let global = self.next_id;
        let n = self.engines.len();
        let primary = route_request(global, n);
        let shard = if self.shard_is_live(primary) {
            primary
        } else {
            // deterministic failover: same health script, same reroute
            let mask: Vec<bool> = (0..n).map(|s| self.shard_is_live(s)).collect();
            route_failover(global, &mask).ok_or(RejectReason::ShardFailed)?
        };
        let admission = self.engines[shard].admit(global, job, deadline_ns)?;
        if shard != primary {
            self.failovers += 1;
            let executor = self.engines[shard].executor();
            if let Some(ins) = executor.instruments() {
                ins.failovers.inc();
            }
            if let Some(o) = executor.observer() {
                o.tracer().event(
                    "failover",
                    &[
                        ("request", global.into()),
                        ("from", primary.into()),
                        ("to", shard.into()),
                    ],
                );
            }
        }
        self.next_id += 1;
        Ok((shard, global, admission))
    }

    /// A shard is routable unless the supervisor marks it `Down` or its
    /// engine has failed and the supervisor simply hasn't pumped yet.
    fn shard_is_live(&self, shard: usize) -> bool {
        self.supervisor.is_live(shard) && !self.engines[shard].is_failed()
    }

    /// Pumps every shard in shard order, returning all responses. Each
    /// shard's pass is the three steps a threaded driver splits around
    /// its lock, run in a row: form (after restarting a `Down` shard
    /// whose backoff has elapsed), execute, land; then the supervisor
    /// hears how it went.
    pub fn pump(&mut self) -> Vec<ServeResponse> {
        self.pass(false)
    }

    /// Drains every shard in shard order; afterwards all shards reject
    /// with [`RejectReason::Draining`].
    pub fn drain(&mut self) -> Vec<ServeResponse> {
        self.pass(true)
    }

    fn pass(&mut self, drain: bool) -> Vec<ServeResponse> {
        let mut out = Vec::new();
        for shard in 0..self.engines.len() {
            // a drain restarts nothing
            if !drain && self.restart_due(shard) {
                self.restart(shard);
            }
            let mut responses = Vec::new();
            let batches = self.engines[shard].form(drain, &mut responses);
            let ran = !batches.is_empty();
            responses.extend(self.engines[shard].run(batches));
            if ran {
                self.end_pass(shard);
            }
            out.extend(responses);
        }
        out
    }

    /// Whether `shard` is dead and the supervisor's backoff for it has
    /// elapsed: its next pass starts with [`Self::restart`].
    pub(crate) fn restart_due(&self, shard: usize) -> bool {
        self.engines[shard].is_failed() && self.supervisor.restart_due(shard, self.clock.now_ns())
    }

    /// Restarts a dead shard on the executor it died with: the
    /// supervisor books the restart, and the shard's queue reopens.
    pub(crate) fn restart(&mut self, shard: usize) {
        self.supervisor.record_restart(shard);
        let restarts = self.supervisor.restarts(shard);
        self.engines[shard].restart(restarts);
    }

    /// Ends a shard pass that ran batches: the supervisor hears once per
    /// pass — a death when the shard failed in it (its requests were
    /// already answered terminally), a clean batch otherwise.
    pub(crate) fn end_pass(&mut self, shard: usize) {
        if self.engines[shard].is_failed() {
            self.supervisor.record_failure(shard, self.clock.now_ns());
        } else {
            self.supervisor.record_clean_batch(shard);
        }
    }

    /// Fails a shard whose driver panicked outside a batch, answering
    /// the tickets it still held (`open`: `(id, enqueued_ns)` each), and
    /// tells the supervisor unless it knew.
    pub(crate) fn fail_shard(&mut self, shard: usize, open: &[(u64, u64)]) -> Vec<ServeResponse> {
        if self.supervisor.is_live(shard) {
            self.supervisor.record_failure(shard, self.clock.now_ns());
        }
        let open = open
            .iter()
            .map(|&(id, at)| (id, canti_obs::trace_id(id), at));
        self.engines[shard].fail(open)
    }

    /// Total requests queued across all shards.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.engines.iter().map(ServeEngine::queue_depth).sum()
    }

    /// Summed tallies across shards.
    #[must_use]
    pub fn stats(&self) -> ServeStats {
        sum_stats(self.engines.iter().map(ServeEngine::stats))
    }

    /// Summed result-cache counters across shards (`None` when the
    /// config has caching off).
    #[must_use]
    pub fn cache_stats(&self) -> Option<crate::cache::CacheStats> {
        sum_cache_stats(self.engines.iter().map(ServeEngine::cache_stats))
    }

    /// Per-shard tallies, in shard order.
    #[must_use]
    pub fn shard_stats(&self) -> Vec<ServeStats> {
        self.engines.iter().map(ServeEngine::stats).collect()
    }

    /// Per-shard health, in shard order, as the supervisor last saw it
    /// (updated at every [`Self::pump`]).
    #[must_use]
    pub fn healths(&self) -> Vec<ShardHealth> {
        self.supervisor.healths()
    }

    /// Requests rerouted off a `Down` primary so far.
    #[must_use]
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// Shard restarts performed so far, across all shards.
    #[must_use]
    pub fn restarts(&self) -> u64 {
        self.supervisor.total_restarts()
    }

    /// The supervisor's view of the shards (for tests and tools).
    #[must_use]
    pub fn supervisor(&self) -> &ShardSupervisor {
        &self.supervisor
    }

    /// One shard's batch log: every batch it formed so far, in
    /// formation order.
    ///
    /// # Panics
    ///
    /// Panics when `shard` is out of range.
    #[must_use]
    pub fn batch_log(&self, shard: usize) -> Vec<BatchRecord> {
        self.engines[shard].batch_log().to_vec()
    }

    /// The earliest future instant at which `shard`'s queued state can
    /// change on its own: its oldest request's linger deadline or its
    /// earliest request deadline. `None` while its queue is empty.
    ///
    /// # Panics
    ///
    /// Panics when `shard` is out of range.
    #[must_use]
    pub fn next_wakeup_ns(&self, shard: usize) -> Option<u64> {
        self.engines[shard].next_wakeup_ns()
    }

    /// One shard's engine, for a driver's executor and observer reads.
    pub(crate) fn shard(&self, shard: usize) -> &ServeEngine {
        &self.engines[shard]
    }

    /// One shard's engine, for a driver's land step.
    pub(crate) fn shard_mut(&mut self, shard: usize) -> &mut ServeEngine {
        &mut self.engines[shard]
    }

    /// Per-shard debug handles, in shard order (empty entries for
    /// unobserved shards).
    #[must_use]
    pub fn obs(&self) -> Vec<Option<canti_obs::ServeObs>> {
        self.engines.iter().map(ServeEngine::obs).collect()
    }
}

fn sum_cache_stats(
    stats: impl Iterator<Item = Option<crate::cache::CacheStats>>,
) -> Option<crate::cache::CacheStats> {
    stats.fold(None, |acc, s| match (acc, s) {
        (Some(a), Some(b)) => Some(a.merged(b)),
        (one, other) => one.or(other),
    })
}

fn sum_stats(stats: impl Iterator<Item = ServeStats>) -> ServeStats {
    stats.fold(ServeStats::default(), |mut acc, s| {
        acc.admitted += s.admitted;
        acc.rejected += s.rejected;
        acc.expired += s.expired;
        acc.completed += s.completed;
        acc.batches += s.batches;
        acc.failed += s.failed;
        acc.cache_hits += s.cache_hits;
        acc.coalesced += s.coalesced;
        acc
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use canti_farm::ProbeMode;
    use canti_obs::VirtualClock;

    fn probe(v: f64) -> JobSpec {
        JobSpec::Probe(ProbeMode::Value(v))
    }

    #[test]
    fn splitmix_is_a_bijection_probe_and_routing_is_stable() {
        // distinct inputs → distinct outputs on a small probe set
        let outs: std::collections::BTreeSet<u64> = (0..1000).map(splitmix64).collect();
        assert_eq!(outs.len(), 1000);
        // the routing rule is a pure function: same id, same shard
        for id in 0..100 {
            assert_eq!(route_request(id, 4), route_request(id, 4));
            assert!(route_request(id, 4) < 4);
        }
        assert_eq!(route_request(42, 1), 0);
    }

    #[test]
    #[should_panic(expected = "shards must be >= 1")]
    fn zero_shards_is_a_configuration_error_not_a_clamp() {
        let _ = route_request(42, 0);
    }

    #[test]
    #[should_panic(expected = "shards must be >= 1")]
    fn zero_shard_config_panics_at_the_count() {
        let cfg = ShardedConfig {
            shards: 0,
            base: ServeConfig::default(),
        };
        let _ = cfg.shard_count();
    }

    #[test]
    fn request_seed_separates_ids_and_bases() {
        assert_ne!(request_seed(1, 0), request_seed(1, 1));
        assert_ne!(request_seed(1, 0), request_seed(2, 0));
        assert_eq!(request_seed(7, 3), request_seed(7, 3));
    }

    #[test]
    fn failover_prefers_the_live_primary_and_is_deterministic() {
        let all_live = vec![true; 4];
        for id in 0..200u64 {
            assert_eq!(
                route_failover(id, &all_live),
                Some(route_request(id, 4)),
                "live primary wins"
            );
        }
        // primary down: the fallback is stable, differs from the
        // primary, and only ever lands on live shards
        for id in 0..200u64 {
            let primary = route_request(id, 4);
            let mut mask = vec![true; 4];
            mask[primary] = false;
            let target = route_failover(id, &mask).expect("three live shards remain");
            assert_ne!(target, primary);
            assert!(mask[target]);
            assert_eq!(
                route_failover(id, &mask),
                Some(target),
                "replays identically"
            );
        }
        // all dead: nowhere to go
        assert_eq!(route_failover(7, &[false, false]), None);
    }

    #[test]
    fn failover_spreads_rerouted_load() {
        // kill shard 0; ids whose primary was 0 must not all pile onto
        // one survivor
        let mut hits = [0usize; 4];
        let mask = [false, true, true, true];
        for id in 0..4000u64 {
            if route_request(id, 4) == 0 {
                hits[route_failover(id, &mask).unwrap()] += 1;
            }
        }
        assert_eq!(hits[0], 0);
        for (shard, &h) in hits.iter().enumerate().skip(1) {
            assert!(
                h > 0,
                "shard {shard} took none of the rerouted load: {hits:?}"
            );
        }
    }

    #[test]
    fn shard_health_labels_and_liveness() {
        for h in [
            ShardHealth::Healthy,
            ShardHealth::Degraded,
            ShardHealth::Down,
            ShardHealth::Recovering,
        ] {
            assert!(!h.label().is_empty());
        }
        assert!(ShardHealth::Recovering.is_live());
        assert!(!ShardHealth::Down.is_live());
    }

    #[test]
    fn sharded_engine_routes_and_answers_under_global_ids() {
        let clock = Arc::new(VirtualClock::new());
        let mut e = ShardedEngine::new(
            ShardedConfig {
                shards: 4,
                base: ServeConfig {
                    max_batch: 1,
                    threads: 1,
                    ..ServeConfig::default()
                },
            },
            clock as Arc<dyn ObsClock>,
        );
        let mut ids = Vec::new();
        for i in 0..12 {
            ids.push(e.submit(probe(f64::from(i))).expect("admitted"));
        }
        assert_eq!(ids, (0..12).collect::<Vec<u64>>(), "global ids are dense");
        let responses = e.pump();
        assert_eq!(responses.len(), 12, "max_batch 1 fires everything");
        let mut answered: Vec<u64> = responses.iter().map(|r| r.request_id).collect();
        answered.sort_unstable();
        assert_eq!(answered, ids, "every global id answered exactly once");
        // the batch logs carry global ids and cover the full id space
        let mut logged: Vec<u64> = (0..e.shard_count())
            .flat_map(|s| e.batch_log(s).into_iter().flat_map(|b| b.request_ids))
            .collect();
        logged.sort_unstable();
        assert_eq!(logged, ids);
        // and each id sits on the shard the routing rule names
        for s in 0..e.shard_count() {
            for b in e.batch_log(s) {
                for id in b.request_ids {
                    assert_eq!(route_request(id, 4), s, "id {id} on wrong shard");
                }
            }
        }
        assert_eq!(e.stats().completed, 12);
        assert_eq!(e.healths(), vec![ShardHealth::Healthy; 4]);
        assert_eq!(e.failovers(), 0);
    }

    #[test]
    fn a_refused_reroute_counts_no_failover() {
        let victim = route_request(0, 2);
        let survivor = 1 - victim;
        let (observers, rings): (Vec<FarmObserver>, Vec<_>) =
            (0..2).map(|_| FarmObserver::deterministic(4096)).unzip();
        let mut e = ShardedEngine::new(
            ShardedConfig {
                shards: 2,
                base: ServeConfig {
                    queue_capacity: 2,
                    max_batch: 1,
                    threads: 1,
                    ..ServeConfig::default()
                },
            },
            Arc::new(VirtualClock::new()) as Arc<dyn ObsClock>,
        )
        .with_supervisor(SupervisorConfig {
            backoff_base_ns: u64::MAX, // never restarted
        })
        .with_observers(observers)
        .with_chaos_plan(&ServeFaultPlan::kill_shard(victim, 0));
        assert_eq!(e.submit(probe(0.0)), Ok(0));
        let _ = e.pump(); // the victim's batch 0 dies
        assert_eq!(e.healths()[victim], ShardHealth::Down);

        // id 1 reroutes onto the survivor and id 2 is its own: full
        assert_eq!(route_request(1, 2), victim);
        assert_eq!(e.submit(probe(1.0)), Ok(1));
        assert_eq!(route_request(2, 2), survivor);
        assert_eq!(e.submit(probe(2.0)), Ok(2));
        // id 3 reroutes onto the full survivor, refused nine times over
        assert_eq!(route_request(3, 2), victim);
        for _ in 0..9 {
            assert_eq!(
                e.submit(probe(3.0)),
                Err(RejectReason::QueueFull { capacity: 2 })
            );
        }
        assert_eq!(e.failovers(), 1, "only the admitted reroute counts");
        let observer = e.shard(survivor).observer().expect("observed");
        assert_eq!(observer.metrics().counter("serve.failovers").get(), 1);
        let events = rings[survivor].events();
        assert_eq!(events.iter().filter(|ev| ev.name == "failover").count(), 1);
    }

    /// A restart reopens the dead shard on the executor it died with:
    /// the kill fired before its batch reached the pool, so every worker
    /// is alive, and the revived shard serves on them.
    #[test]
    fn a_restart_keeps_the_shards_executor() {
        let clock = Arc::new(VirtualClock::new());
        let victim = route_request(0, 2);
        let mut e = ShardedEngine::new(
            ShardedConfig {
                shards: 2,
                base: ServeConfig {
                    max_batch: 1,
                    threads: 2,
                    ..ServeConfig::default()
                },
            },
            Arc::clone(&clock) as Arc<dyn ObsClock>,
        )
        .with_supervisor(SupervisorConfig {
            backoff_base_ns: 1_000,
        })
        .with_chaos_plan(&ServeFaultPlan::kill_shard(victim, 0));
        let executor = e.shard(victim).executor();
        assert_eq!(e.submit(probe(0.0)), Ok(0));
        assert!(!e.pump()[0].disposition.is_ok(), "batch 0 is killed");
        assert_eq!(e.healths()[victim], ShardHealth::Down);

        clock.advance_ns(2_000);
        let _ = e.pump();
        assert_eq!(e.restarts(), 1);
        assert!(
            Arc::ptr_eq(&executor, &e.shard(victim).executor()),
            "the restarted shard runs the executor it died with"
        );
        for i in 1..=4 {
            e.submit(probe(f64::from(i))).expect("admitted");
        }
        let answered = e.pump();
        assert_eq!(answered.len(), 4);
        assert!(
            answered.iter().all(|r| r.disposition.is_ok()),
            "{answered:?}"
        );
        assert!(
            e.shard_stats()[victim].completed > 0,
            "the revived shard serves again"
        );
    }

    #[test]
    fn every_shard_characterizes_the_chain_through_one_cache() {
        let mut e = ShardedEngine::new(
            ShardedConfig {
                shards: 4,
                base: ServeConfig {
                    max_batch: 1,
                    threads: 1,
                    ..ServeConfig::default()
                },
            },
            Arc::new(VirtualClock::new()) as Arc<dyn ObsClock>,
        );
        for job in crate::exec::tests::one_dose_per_shard(4) {
            e.submit(job).expect("admitted");
        }
        assert!(e.pump().iter().all(|r| r.disposition.is_ok()));
        for s in 0..4 {
            let stats = crate::exec::tests::precompute_stats(&e.shard(s).executor());
            assert_eq!(
                (stats.misses, stats.hits),
                (1, 3),
                "shard {s}: one characterization for the service, one hit per other shard"
            );
        }
    }

    #[test]
    fn rejected_submissions_do_not_burn_global_ids() {
        let clock = Arc::new(VirtualClock::new());
        // capacity 1, linger unreachable: the second submission to any
        // one shard must be rejected
        let mut e = ShardedEngine::new(
            ShardedConfig {
                shards: 1,
                base: ServeConfig {
                    queue_capacity: 1,
                    max_batch: 64,
                    linger_ns: u64::MAX,
                    threads: 1,
                    ..ServeConfig::default()
                },
            },
            clock as Arc<dyn ObsClock>,
        );
        assert_eq!(e.submit(probe(1.0)), Ok(0));
        assert_eq!(
            e.submit(probe(2.0)),
            Err(RejectReason::QueueFull { capacity: 1 })
        );
        let drained = e.drain();
        assert_eq!(drained.len(), 1);
        // the id after a rejection continues the dense stream
        assert_eq!(e.stats().admitted, 1);
        assert_eq!(e.stats().rejected, 1);
    }

    /// Batch sizes are small integers, which the histogram counts
    /// exactly: batches of 4 and 1 read p50 1 and p99 4, not a latency
    /// bucket edge clamped to the max.
    #[test]
    fn batch_size_quantiles_read_the_exact_sizes() {
        let (observer, _ring) = FarmObserver::deterministic(4096);
        let mut e = ShardedEngine::new(
            ShardedConfig {
                shards: 1,
                base: ServeConfig {
                    max_batch: 4,
                    linger_ns: u64::MAX,
                    threads: 1,
                    ..ServeConfig::default()
                },
            },
            Arc::new(VirtualClock::new()) as Arc<dyn ObsClock>,
        )
        .with_observers(vec![observer]);
        for i in 0..5 {
            e.submit(probe(f64::from(i))).expect("admitted");
        }
        assert_eq!(e.pump().len(), 4, "a full batch fires");
        assert_eq!(e.drain().len(), 1, "the drain fires the rest");
        let sizes: Vec<usize> = e.batch_log(0).iter().map(|b| b.request_ids.len()).collect();
        assert_eq!(sizes, vec![4, 1]);
        let observer = e.shard(0).observer().expect("observed");
        let s = observer.metrics().histogram("serve.batch_size").snapshot();
        assert_eq!((s.count, s.p50, s.p99, s.max), (2, 1, 4, 4));
    }
}
