//! The bounded admission queue and the batch-formation rules.
//!
//! This module is deliberately free of observability and threading: it
//! is a pure state machine over `(config, submissions, clock readings)`,
//! which is what makes batch formation a deterministic function of the
//! arrival script. Everything here is driven by explicit `now_ns`
//! arguments — the caller owns the clock.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use canti_farm::JobSpec;

use crate::cache::JobKey;
use crate::ServeConfig;

/// Why a submission was refused at the door.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The admission queue already holds `capacity` waiting requests.
    QueueFull {
        /// The configured queue capacity.
        capacity: usize,
    },
    /// The service is draining for shutdown and admits nothing new.
    Draining,
    /// Every shard is down (its executor panicked under a batch, or its
    /// batcher outside one), so no live shard could take the request.
    /// Requests admitted before their shard died are answered
    /// [`crate::Disposition::Failed`] instead.
    ShardFailed,
}

impl RejectReason {
    /// Stable label for metrics / trace fields.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Self::QueueFull { .. } => "queue_full",
            Self::Draining => "draining",
            Self::ShardFailed => "shard_failed",
        }
    }
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::QueueFull { capacity } => {
                write!(f, "admission queue full ({capacity} waiting)")
            }
            Self::Draining => write!(f, "service is draining"),
            Self::ShardFailed => write!(f, "shard failed"),
        }
    }
}

impl std::error::Error for RejectReason {}

/// What made a batch fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchTrigger {
    /// The queue reached the size threshold.
    Size,
    /// The oldest queued request hit the linger deadline.
    Linger,
    /// Shutdown flushed the remaining queue.
    Drain,
}

impl BatchTrigger {
    /// Stable label for metrics / trace fields.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Self::Size => "size",
            Self::Linger => "linger",
            Self::Drain => "drain",
        }
    }
}

/// A request that coalesced onto an identical in-flight leader: it
/// occupies no queue slot and runs no job of its own — the leader's
/// answer fans out to it when the batch completes.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Follower {
    /// The request's global id.
    pub id: u64,
    /// The request-scoped trace id over `id`.
    pub trace: u64,
    /// Clock reading at admission — later than the leader's, so the
    /// follower's `queue_ns` is measured against its own arrival and the
    /// latency breakdown still tiles exactly.
    pub enqueued_ns: u64,
}

/// How a submission was admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admitted {
    /// Queued normally (occupies a queue slot, runs its own job).
    Queued,
    /// Coalesced onto the queued leader with the same content hash.
    Coalesced {
        /// The leader request it rides on.
        leader: u64,
    },
}

/// One admitted request waiting for (or riding in) a batch.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Pending {
    /// The request's global id, allocated by the sharded engine. Spans,
    /// responses, logs and tickets all key on it.
    pub id: u64,
    /// The simulation to run.
    pub job: JobSpec,
    /// The seed this request's farm RNG stream derives from:
    /// [`crate::shard::request_seed`] over the config's base seed and
    /// the request id. Fixed at admission so the payload is independent
    /// of which batch, slot or shard the request later rides in.
    pub seed: u64,
    /// The request-scoped trace id: [`canti_obs::trace_id`] over the
    /// id, so every span the request touches carries one stable id at
    /// any worker or shard count.
    pub trace: u64,
    /// Clock reading at admission.
    pub enqueued_ns: u64,
    /// Absolute expiry instant, when the request carries a deadline.
    pub deadline_ns: Option<u64>,
    /// The spec's content hash — `Some` only when the config enables the
    /// result cache. Drives in-flight coalescing and the post-batch
    /// cache insert.
    pub job_key: Option<JobKey>,
    /// Identical requests that coalesced onto this one while it waited.
    /// They occupy no queue slots; the executor fans this request's
    /// answer out to each of them.
    pub followers: Vec<Follower>,
}

impl Pending {
    /// Everyone one answer to this request reaches, leader first:
    /// `(id, trace, enqueued_ns)` of the request and of each follower.
    pub(crate) fn members(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        std::iter::once((self.id, self.trace, self.enqueued_ns)).chain(
            self.followers
                .iter()
                .map(|f| (f.id, f.trace, f.enqueued_ns)),
        )
    }
}

/// A batch the queue has released for execution: an ordered slice of
/// admitted requests plus the farm seed it must run under.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FormedBatch {
    /// Zero-based batch index (also the seed offset).
    pub index: u64,
    /// What fired the batch.
    pub trigger: BatchTrigger,
    /// The farm seed this batch runs with.
    pub seed: u64,
    /// Clock reading when the queue released the batch — the formation
    /// anchor the per-request latency breakdown measures `queue_ns`
    /// against.
    pub formed_ns: u64,
    pub items: Vec<Pending>,
}

impl FormedBatch {
    /// Requests riding in this batch.
    pub(crate) fn len(&self) -> usize {
        self.items.len()
    }

    /// The member request ids, in admission order.
    pub(crate) fn request_ids(&self) -> Vec<u64> {
        self.items.iter().map(|p| p.id).collect()
    }
}

/// The bounded, deadline-aware admission queue.
///
/// All mutation is explicit: [`Self::submit`] admits or rejects,
/// `take_expired` removes requests whose deadline has passed,
/// and `pop_ready` / `pop_drain` release batches. Time
/// never flows implicitly — every decision reads the `now_ns` the caller
/// passes in. Ids come from the caller too: the queue allocates none.
#[derive(Debug)]
pub(crate) struct AdmissionQueue {
    config: ServeConfig,
    queue: VecDeque<Pending>,
    /// Content hash → the newest queued deadline-free request with it,
    /// maintained only when the config enables the result cache. A
    /// deadline-free submission whose hash is in here coalesces onto
    /// that leader instead of occupying a queue slot.
    inflight: BTreeMap<JobKey, u64>,
    next_batch: u64,
    draining: bool,
}

impl AdmissionQueue {
    /// An empty queue under `config`.
    pub(crate) fn new(config: ServeConfig) -> Self {
        Self {
            config,
            queue: VecDeque::with_capacity(config.capacity()),
            inflight: BTreeMap::new(),
            next_batch: 0,
            draining: false,
        }
    }

    /// The active configuration.
    pub(crate) fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Requests currently waiting.
    pub(crate) fn depth(&self) -> usize {
        self.queue.len()
    }

    /// Whether the queue has stopped admitting.
    pub(crate) fn is_draining(&self) -> bool {
        self.draining
    }

    /// Admits `job` under the caller's request `id` at time `now_ns`,
    /// or explains why not. `deadline_ns` is relative to admission;
    /// `None` means the request never expires. `job_key` is the spec's
    /// content hash, `Some` exactly when the config enables the result
    /// cache (the shard's engine hashes once for its lookup and passes
    /// the key on).
    ///
    /// With the result cache enabled, two things change. The request's
    /// RNG seed derives from its spec's **content hash** instead of its
    /// id, so identical specs yield identical payload bits (the
    /// invariant that makes cached answers bitwise interchangeable with
    /// recomputed ones). And coalescing has one rule: a deadline-free
    /// submission identical to a queued deadline-free request rides it
    /// as a follower — it occupies no queue slot and runs no job, the
    /// leader's answer fans out to it. A deadline-carrying submission
    /// neither rides nor leads, so no follower ever waits on a request
    /// that can expire.
    ///
    /// # Errors
    ///
    /// [`RejectReason::Draining`] once [`Self::begin_drain`] was called,
    /// [`RejectReason::QueueFull`] when `capacity` requests wait already.
    pub(crate) fn submit(
        &mut self,
        now_ns: u64,
        id: u64,
        job: JobSpec,
        job_key: Option<JobKey>,
        deadline_ns: Option<u64>,
    ) -> Result<Admitted, RejectReason> {
        if self.draining {
            return Err(RejectReason::Draining);
        }
        let trace = canti_obs::trace_id(id);
        // only deadline-free requests coalesce, as leader or follower
        let coalescing = job_key.filter(|_| deadline_ns.is_none());
        if let Some(&leader) = coalescing.and_then(|k| self.inflight.get(&k)) {
            if let Some(p) = self.queue.iter_mut().find(|p| p.id == leader) {
                p.followers.push(Follower {
                    id,
                    trace,
                    enqueued_ns: now_ns,
                });
                return Ok(Admitted::Coalesced { leader });
            }
        }
        let capacity = self.config.capacity();
        if self.queue.len() >= capacity {
            return Err(RejectReason::QueueFull { capacity });
        }
        let deadline = deadline_ns.map(|d| now_ns.saturating_add(d));
        let seed = match job_key {
            // content-derived: identical specs → identical payload bits
            Some(k) => crate::shard::request_seed(self.config.batch_seed, k.fold()),
            None => crate::shard::request_seed(self.config.batch_seed, id),
        };
        if let Some(k) = coalescing {
            // the newest deadline-free instance is the coalesce target
            self.inflight.insert(k, id);
        }
        self.queue.push_back(Pending {
            id,
            job,
            seed,
            trace,
            enqueued_ns: now_ns,
            deadline_ns: deadline,
            job_key,
            followers: Vec::new(),
        });
        Ok(Admitted::Queued)
    }

    /// Removes and returns every queued request whose deadline has
    /// passed (`now_ns >= deadline_ns`), in admission order. Run this
    /// before [`Self::pop_ready`] so expired requests never occupy batch
    /// slots. A request with a deadline is never a coalesce target, so
    /// an expiring one has no followers and no `inflight` entry. A pass
    /// where nothing expires moves and allocates nothing.
    pub(crate) fn take_expired(&mut self, now_ns: u64) -> Vec<Pending> {
        let due = |p: &Pending| p.deadline_ns.is_some_and(|d| now_ns >= d);
        if !self.queue.iter().any(due) {
            return Vec::new();
        }
        let mut expired = Vec::new();
        for _ in 0..self.queue.len() {
            let p = self.queue.pop_front().expect("one pop per queued request");
            if due(&p) {
                expired.push(p);
            } else {
                self.queue.push_back(p);
            }
        }
        expired
    }

    /// Empties the queue for shard-failure handling, in admission order.
    /// The caller answers each request terminally with
    /// [`crate::Disposition::Failed`].
    pub(crate) fn take_all(&mut self) -> Vec<Pending> {
        self.inflight.clear();
        self.queue.drain(..).collect()
    }

    /// Releases the next ready batch, if any: a full `max_batch` slice
    /// when the size threshold is met, otherwise everything queued once
    /// the oldest request has lingered past `linger_ns`. Call in a loop
    /// until `None`.
    pub(crate) fn pop_ready(&mut self, now_ns: u64) -> Option<FormedBatch> {
        let threshold = self.config.batch_threshold();
        if self.queue.len() >= threshold {
            return Some(self.form(threshold, BatchTrigger::Size, now_ns));
        }
        let oldest = self.queue.front()?;
        if now_ns >= oldest.enqueued_ns.saturating_add(self.config.linger_ns) {
            let n = self.queue.len();
            return Some(self.form(n, BatchTrigger::Linger, now_ns));
        }
        None
    }

    /// Stops admission: every later [`Self::submit`] is rejected with
    /// [`RejectReason::Draining`].
    pub(crate) fn begin_drain(&mut self) {
        self.draining = true;
    }

    /// Releases the next shutdown-flush batch (up to `max_batch`
    /// requests), ignoring the linger deadline. Call in a loop until
    /// `None` after [`Self::begin_drain`].
    pub(crate) fn pop_drain(&mut self, now_ns: u64) -> Option<FormedBatch> {
        if self.queue.is_empty() {
            return None;
        }
        let n = self.queue.len().min(self.config.batch_threshold());
        Some(self.form(n, BatchTrigger::Drain, now_ns))
    }

    /// The earliest future instant at which the queue's state can change
    /// on its own: the oldest request's linger deadline or the earliest
    /// request deadline, whichever comes first. `None` while empty.
    pub(crate) fn next_wakeup_ns(&self) -> Option<u64> {
        let linger = self
            .queue
            .front()
            .map(|p| p.enqueued_ns.saturating_add(self.config.linger_ns));
        let deadline = self.queue.iter().filter_map(|p| p.deadline_ns).min();
        match (linger, deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn form(&mut self, n: usize, trigger: BatchTrigger, now_ns: u64) -> FormedBatch {
        let index = self.next_batch;
        self.next_batch += 1;
        let items: Vec<Pending> = self.queue.drain(..n).collect();
        // a forming request stops being a coalesce target: later
        // identical submissions miss the in-flight map and hit the
        // result cache once this batch lands (or queue a fresh leader)
        for p in &items {
            if let Some(k) = p.job_key {
                if self.inflight.get(&k) == Some(&p.id) {
                    self.inflight.remove(&k);
                }
            }
        }
        FormedBatch {
            index,
            trigger,
            seed: self.config.batch_seed.wrapping_add(index),
            formed_ns: now_ns,
            items,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canti_farm::ProbeMode;

    fn probe(v: f64) -> JobSpec {
        JobSpec::Probe(ProbeMode::Value(v))
    }

    fn queue(capacity: usize, max_batch: usize, linger_ns: u64) -> AdmissionQueue {
        AdmissionQueue::new(ServeConfig {
            queue_capacity: capacity,
            max_batch,
            linger_ns,
            ..ServeConfig::default()
        })
    }

    /// Submits an unkeyed probe under `id`.
    fn submit(
        q: &mut AdmissionQueue,
        now_ns: u64,
        id: u64,
        deadline_ns: Option<u64>,
    ) -> Result<Admitted, RejectReason> {
        q.submit(now_ns, id, probe(id as f64), None, deadline_ns)
    }

    #[test]
    fn capacity_is_enforced_and_ids_come_from_the_caller() {
        let mut q = queue(2, 2, 100);
        assert_eq!(submit(&mut q, 0, 7, None), Ok(Admitted::Queued));
        assert_eq!(submit(&mut q, 0, 3, None), Ok(Admitted::Queued));
        assert_eq!(
            submit(&mut q, 0, 9, None),
            Err(RejectReason::QueueFull { capacity: 2 })
        );
        assert_eq!(q.depth(), 2);
        let b = q.pop_ready(0).expect("size-triggered batch");
        assert_eq!(b.request_ids(), vec![7, 3], "admission order, caller ids");
    }

    #[test]
    fn size_threshold_fires_before_linger() {
        let mut q = queue(8, 3, 1_000);
        for id in 0..5 {
            submit(&mut q, 0, id, None).unwrap();
        }
        let b = q.pop_ready(0).expect("size-triggered batch");
        assert_eq!(b.trigger, BatchTrigger::Size);
        assert_eq!(b.request_ids(), vec![0, 1, 2]);
        assert!(q.pop_ready(0).is_none(), "two left, below threshold");
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn linger_deadline_fires_for_a_partial_batch() {
        let mut q = queue(8, 4, 1_000);
        submit(&mut q, 10, 0, None).unwrap();
        submit(&mut q, 500, 1, None).unwrap();
        assert!(q.pop_ready(1_009).is_none(), "oldest has waited 999 ns");
        let b = q.pop_ready(1_010).expect("linger fires at 1010");
        assert_eq!(b.trigger, BatchTrigger::Linger);
        assert_eq!(
            b.request_ids(),
            vec![0, 1],
            "linger flushes the whole queue"
        );
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn deadlines_expire_queued_requests() {
        let mut q = queue(8, 8, 10_000);
        submit(&mut q, 0, 0, Some(100)).unwrap();
        submit(&mut q, 0, 1, None).unwrap();
        assert!(q.take_expired(99).is_empty());
        let gone = q.take_expired(100);
        assert_eq!(gone.len(), 1);
        assert_eq!(gone[0].id, 0);
        assert_eq!(gone[0].deadline_ns, Some(100));
        assert_eq!(q.depth(), 1, "undeadlined neighbour survives");
    }

    #[test]
    fn drain_rejects_new_and_flushes_in_threshold_chunks() {
        let mut q = queue(8, 2, 1_000_000);
        for id in 0..5 {
            submit(&mut q, 0, id, None).unwrap();
        }
        q.begin_drain();
        assert_eq!(submit(&mut q, 0, 5, None), Err(RejectReason::Draining));
        let sizes: Vec<usize> = std::iter::from_fn(|| q.pop_drain(0).map(|b| b.len())).collect();
        assert_eq!(sizes, vec![2, 2, 1]);
        assert!(q.pop_drain(0).is_none());
    }

    #[test]
    fn batch_seeds_step_with_the_index() {
        let mut q = queue(8, 1, 1_000);
        submit(&mut q, 0, 0, None).unwrap();
        submit(&mut q, 0, 1, None).unwrap();
        let a = q.pop_ready(0).unwrap();
        let b = q.pop_ready(0).unwrap();
        assert_eq!(a.index, 0);
        assert_eq!(b.index, 1);
        assert_eq!(b.seed, a.seed + 1);
    }

    #[test]
    fn next_wakeup_is_the_earlier_of_linger_and_deadline() {
        let mut q = queue(8, 8, 1_000);
        assert_eq!(q.next_wakeup_ns(), None);
        submit(&mut q, 100, 0, Some(350)).unwrap();
        // linger at 1100, deadline at 450
        assert_eq!(q.next_wakeup_ns(), Some(450));
        submit(&mut q, 120, 1, None).unwrap();
        assert_eq!(q.next_wakeup_ns(), Some(450), "front linger still 1100");
        let _ = q.take_expired(450);
        assert_eq!(q.next_wakeup_ns(), Some(1_120), "now the second's linger");
    }

    #[test]
    fn reject_reason_renders() {
        assert!(RejectReason::QueueFull { capacity: 4 }
            .to_string()
            .contains("full"));
        assert_eq!(RejectReason::Draining.label(), "draining");
        assert_eq!(BatchTrigger::Linger.label(), "linger");
        assert_eq!(RejectReason::ShardFailed.label(), "shard_failed");
    }

    #[test]
    fn only_deadline_free_requests_coalesce() {
        let mut q = queue(8, 8, 1_000_000);
        let spec = probe(1.0);
        let key = Some(crate::cache::job_key(&spec));
        let mut keyed = |id, deadline_ns| q.submit(0, id, spec.clone(), key, deadline_ns);
        assert_eq!(keyed(0, Some(100)), Ok(Admitted::Queued));
        assert_eq!(
            keyed(1, None),
            Ok(Admitted::Queued),
            "a deadline-free repeat never rides a request that can expire"
        );
        assert_eq!(keyed(2, None), Ok(Admitted::Coalesced { leader: 1 }));
        let gone = q.take_expired(100);
        assert_eq!(gone.iter().map(|p| p.id).collect::<Vec<_>>(), vec![0]);
        assert!(gone[0].followers.is_empty());
        assert_eq!(q.depth(), 1, "the deadline-free leader stays queued");
        let batch = q.pop_drain(100).expect("the leader is still queued");
        let members: Vec<u64> = batch.items[0].members().map(|(id, ..)| id).collect();
        assert_eq!(members, vec![1, 2], "with its follower");
    }
}
