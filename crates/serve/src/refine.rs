//! Background plan refinement: a bounded job queue plus a worker pool
//! that upgrades cached `/plan` entries in place.
//!
//! `POST /plan` with `"refine": "background"` renders and caches the
//! constructive (Algorithm 2) plan immediately — the hot path never
//! waits on local search — and enqueues a [`RefineJob`]. A pool of
//! worker threads (spawned by [`crate::server`], `--refine-workers`)
//! drains the queue, runs `perpetuum_core::refine` under the request's
//! step budget, re-renders the result JSON with the improved schedule
//! and swaps it into the plan cache under the same canonical-hash key.
//! Clients that re-POST the identical request therefore always read the
//! best plan so far; `cache_hit` stays true and the bytes only ever get
//! cheaper.
//!
//! Interaction with eviction: if the constructive entry was LRU-evicted
//! while its job waited, the upgrade is *dropped* (counted in
//! `perpetuum_refine_jobs_dropped_total`) rather than re-inserted — a
//! refinement of an entry nobody kept is not worth displacing a live
//! one. The queue itself is bounded; a full queue also drops (and
//! counts) rather than blocking the request worker.

use crate::handlers::{render_plan_result, AppState, PlanMeta};
use crate::shutdown::ShutdownSignal;
use perpetuum_core::network::Instance;
use perpetuum_core::refine::{refine, Budget};
use perpetuum_core::ScheduleSeries;
use std::collections::VecDeque;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Most background jobs allowed to wait; beyond this, new jobs drop.
pub(crate) const QUEUE_CAPACITY: usize = 256;

/// One pending background refinement.
#[derive(Debug)]
pub struct RefineJob {
    /// Canonical-hash cache key of the `/plan` entry to upgrade.
    pub key: u64,
    /// The planning instance (already validated by the request path).
    pub instance: Instance,
    /// The constructive schedule to improve.
    pub schedule: ScheduleSeries,
    /// Step budget for the pass.
    pub steps: u64,
    /// Refinement seed (the request's master seed).
    pub seed: u64,
    /// Response fields to re-render around the upgraded schedule.
    pub meta: PlanMeta,
}

struct Inner {
    jobs: VecDeque<RefineJob>,
    closed: bool,
}

/// Bounded MPMC job queue for the refinement pool.
pub struct RefineQueue {
    inner: Mutex<Inner>,
    ready: Condvar,
}

impl Default for RefineQueue {
    fn default() -> Self {
        Self {
            inner: Mutex::new(Inner { jobs: VecDeque::new(), closed: false }),
            ready: Condvar::new(),
        }
    }
}

impl RefineQueue {
    /// Enqueue a job; returns `false` (job dropped) when the queue is
    /// full or already closed.
    pub fn push(&self, job: RefineJob) -> bool {
        let Ok(mut inner) = self.inner.lock() else { return false };
        if inner.closed || inner.jobs.len() >= QUEUE_CAPACITY {
            return false;
        }
        inner.jobs.push_back(job);
        drop(inner);
        self.ready.notify_one();
        true
    }

    /// Blocking pop: waits for a job; `None` as soon as the queue is
    /// closed — background refinement is best-effort, so shutdown never
    /// waits on a deep backlog.
    pub fn pop(&self) -> Option<RefineJob> {
        let Ok(mut inner) = self.inner.lock() else { return None };
        loop {
            if inner.closed {
                return None;
            }
            if let Some(job) = inner.jobs.pop_front() {
                return Some(job);
            }
            inner = self.ready.wait(inner).ok()?;
        }
    }

    /// Non-blocking pop for synchronous draining (tests, shutdown).
    pub(crate) fn try_pop(&self) -> Option<RefineJob> {
        self.inner.lock().ok()?.jobs.pop_front()
    }

    /// Close the queue: wakes every waiting worker so the pool can exit.
    /// Jobs still queued are abandoned (the daemon is going down); the
    /// non-blocking `try_pop` can still drain them.
    pub fn close(&self) {
        if let Ok(mut inner) = self.inner.lock() {
            inner.closed = true;
        }
        self.ready.notify_all();
    }

    /// Jobs currently waiting.
    pub fn len(&self) -> usize {
        self.inner.lock().map(|i| i.jobs.len()).unwrap_or(0)
    }

    /// True when no jobs are waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Run one job: refine, re-render, and swap the cached entry — unless
/// the entry was evicted meanwhile, in which case the upgrade is dropped
/// and counted. Returns `true` when the cache was upgraded.
pub fn process(state: &AppState, job: RefineJob) -> bool {
    let started = Instant::now();
    let (refined, report) =
        refine(job.instance.network(), &job.schedule, &Budget::steps(job.steps), job.seed);
    state.metrics.record_refine(
        report.constructive_cost,
        report.refined_cost,
        started.elapsed().as_secs_f64(),
    );
    if state.cache.get(job.key).is_none() {
        state.metrics.refine_jobs_dropped.fetch_add(1, Relaxed);
        return false;
    }
    let result = render_plan_result(&job.meta, &refined, Some(("background", true, Some(&report))));
    let rendered = match serde_json::to_string(&result) {
        Ok(s) => Arc::<str>::from(s),
        Err(_) => {
            state.metrics.refine_jobs_dropped.fetch_add(1, Relaxed);
            return false;
        }
    };
    state.cache.insert(job.key, rendered);
    state.metrics.refine_upgrades.fetch_add(1, Relaxed);
    true
}

/// Synchronously drain every queued job — for tests and embedders that
/// want refinement to finish before reading the cache.
pub fn drain(state: &AppState) -> usize {
    let mut done = 0;
    while let Some(job) = state.refine_queue.try_pop() {
        process(state, job);
        done += 1;
    }
    done
}

/// Worker-thread body: drain jobs until the queue closes or shutdown
/// triggers.
pub(crate) fn worker_loop(state: &Arc<AppState>, shutdown: &ShutdownSignal) {
    while let Some(job) = state.refine_queue.pop() {
        process(state, job);
        if shutdown.is_triggered() {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_job(key: u64) -> RefineJob {
        use perpetuum_core::network::Network;
        use perpetuum_geom::Point2;
        let network = Network::new(
            vec![Point2::new(1.0, 0.0), Point2::new(2.0, 0.0)],
            vec![Point2::new(0.0, 0.0)],
        );
        let instance = Instance::new(network, vec![4.0; 2], 8.0);
        let schedule = perpetuum_core::mtd::plan_min_total_distance(
            &instance,
            &perpetuum_core::mtd::MtdConfig::default(),
        );
        RefineJob {
            key,
            instance,
            schedule,
            steps: 100,
            seed: 1,
            meta: PlanMeta { n: 2, q: 1, seed: 1, index: 0, sparse: false, refine_steps: 100 },
        }
    }

    #[test]
    fn queue_bounds_and_close_semantics() {
        let q = RefineQueue::default();
        assert!(q.is_empty());
        for i in 0..QUEUE_CAPACITY {
            assert!(q.push(dummy_job(i as u64)), "push {i} rejected early");
        }
        assert!(!q.push(dummy_job(9999)), "over-capacity push accepted");
        assert_eq!(q.len(), QUEUE_CAPACITY);
        q.close();
        assert!(!q.push(dummy_job(1)), "push after close accepted");
        // Drained hand-out still works after close, then pop yields None.
        let mut seen = 0;
        while q.try_pop().is_some() {
            seen += 1;
        }
        assert_eq!(seen, QUEUE_CAPACITY);
        assert!(q.pop().is_none());
    }
}
