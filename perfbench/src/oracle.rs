//! The payload oracle: every answered payload is solved again, outside
//! the timed window, on 1-worker farms.
//!
//! The client stores each distinct payload once (a cache-on answer must
//! match the stored payload of its spec at arrival), and the oracle
//! solves each stored payload once. A request's RNG stream is fixed at admission, so its
//! payload can be recomputed from its spec alone: with the cache off the
//! seed is `request_seed(batch_seed, id)` over the global request id, with it on
//! `request_seed(batch_seed, job_key(spec).fold())` over the content
//! hash. The answer must carry the oracle's `kind` and `metrics` bit for
//! bit; `job_index` is the batch slot and is skipped.

use std::sync::Arc;

use canti_farm::{Farm, FarmConfig, FarmError, JobOutput, JobSpec, PrecomputeCache};
use canti_serve::{job_key, request_seed, ServeConfig};

use crate::drive::{same_payload, Book};
use crate::stream::spec;

/// Jobs per `run_seeded` call.
const CHUNK: usize = 64;

/// The serve layer's base seed (the benchmark runs the default config).
pub fn base_seed() -> u64 {
    ServeConfig::default().batch_seed
}

/// The seed the service derived for a request.
pub fn request_seed_of(cached: bool, concentration: f64, id: u64) -> u64 {
    if cached {
        request_seed(base_seed(), job_key(&spec(concentration)).fold())
    } else {
        request_seed(base_seed(), id)
    }
}

/// Re-solves payloads on `threads` parallel 1-worker farms that share one
/// precompute cache (its chain characterization is itself deterministic).
pub struct Oracle {
    cache: Arc<PrecomputeCache>,
    threads: usize,
}

impl Oracle {
    pub fn new(threads: usize) -> Self {
        Self {
            cache: Arc::new(PrecomputeCache::new()),
            threads: threads.max(1),
        }
    }

    /// The shared, warmed precompute cache (the replays reuse it).
    pub fn cache(&self) -> &Arc<PrecomputeCache> {
        &self.cache
    }

    /// Solves every stored payload of `book` again and marks each record
    /// whose payload differs. Returns `(payloads re-solved, records
    /// marked)`, counting records already marked at arrival.
    pub fn check(&self, book: &mut Book) -> (usize, usize) {
        let jobs: Vec<(f64, u64)> = book
            .payloads
            .iter()
            .map(|p| {
                let seed = request_seed_of(book.cached, p.concentration, p.id);
                (p.concentration, seed)
            })
            .collect();
        let bad: Vec<bool> = self
            .solve(&jobs)
            .iter()
            .zip(&book.payloads)
            .map(|(oracle, p)| !oracle.as_ref().is_ok_and(|o| same_payload(&p.output, o)))
            .collect();
        for r in &mut book.records {
            if r.payload.is_some_and(|i| bad[i as usize]) {
                r.mismatch = true;
            }
        }
        let marked = book.records.iter().filter(|r| r.mismatch).count();
        (jobs.len(), marked)
    }

    fn solve(&self, jobs: &[(f64, u64)]) -> Vec<Result<JobOutput, FarmError>> {
        if jobs.is_empty() {
            return Vec::new();
        }
        let per_thread = jobs.len().div_ceil(self.threads);
        std::thread::scope(|scope| {
            let handles: Vec<_> = jobs
                .chunks(per_thread)
                .map(|part| {
                    scope.spawn(move || {
                        let farm = Farm::with_cache(
                            FarmConfig {
                                batch_seed: base_seed(),
                                threads: 1,
                            },
                            Arc::clone(&self.cache),
                        );
                        let mut out = Vec::with_capacity(part.len());
                        for chunk in part.chunks(CHUNK) {
                            let specs: Vec<JobSpec> = chunk.iter().map(|&(c, _)| spec(c)).collect();
                            let seeds: Vec<u64> = chunk.iter().map(|&(_, s)| s).collect();
                            out.extend(farm.run_seeded(&specs, &seeds).outcomes);
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("oracle thread"))
                .collect()
        })
    }
}
