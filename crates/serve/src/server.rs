//! The job runner: a bounded worker pool over a priority queue, with a
//! result cache keyed by each request's canonical serialization.
//!
//! Lifecycle of a submission:
//!
//! 1. `submit` computes the request's [`RunRequest::cache_key`]. A hit
//!    in the result cache completes the job immediately with the cached
//!    outcome (bit-identical to the original run — the key is a pure
//!    function of every result-relevant field).
//! 2. Otherwise the job enters the queue, ordered priority-first and
//!    FIFO within a priority.
//! 3. A worker claims it, drives the simulation under the job's
//!    watchdog (falling back to the server-wide default), and publishes
//!    the outcome. Failures are *per job*: a poisoned run completes
//!    with its typed `RunError` tag and the server keeps serving.
//! 4. Deterministic outcomes enter the cache; nondeterministic failures
//!    (watchdog kills, panics) do not, so a resubmission re-runs them.
//!    Before publishing such a failure the worker retries it in place —
//!    up to `MAX_ATTEMPTS` runs with exponentially growing backoff
//!    sleeps — since a re-run under kinder host timing may succeed; the
//!    outcome records the attempt count and total backoff.

use std::collections::{BinaryHeap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use hic_runtime::RunRequest;

use crate::job::{Job, JobId, JobOutcome, JobState};
use crate::queue::QueueEntry;

/// Aggregate counters, as reported by the `stats` op.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    pub submitted: u64,
    /// Jobs that reached `Done` (including failed and cached ones).
    pub completed: u64,
    /// Completed jobs that carry an error tag.
    pub failed: u64,
    pub cancelled: u64,
    /// Submissions answered from the result cache.
    pub cache_hits: u64,
    /// Jobs currently waiting in the queue.
    pub queued: u64,
    /// Jobs currently claimed by workers.
    pub running: u64,
}

#[derive(Default)]
struct State {
    next_id: JobId,
    seq: u64,
    heap: BinaryHeap<QueueEntry>,
    jobs: HashMap<JobId, Job>,
    cache: HashMap<String, Arc<JobOutcome>>,
    stats: ServerStats,
    shutdown: bool,
}

struct Inner {
    state: Mutex<State>,
    /// Wakes workers when work arrives or shutdown is requested.
    work_cv: Condvar,
    /// Wakes `wait` callers when any job completes or is cancelled.
    done_cv: Condvar,
    default_watchdog_ms: Option<u64>,
}

/// The sweep server: owns the queue, the cache, and the worker pool.
pub struct Server {
    inner: Arc<Inner>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Start a server with `workers` worker threads. Jobs that carry no
    /// watchdog of their own run under `default_watchdog_ms` of host
    /// wall clock (None = no default watchdog).
    pub fn start(workers: usize, default_watchdog_ms: Option<u64>) -> Server {
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                next_id: 1,
                ..State::default()
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            default_watchdog_ms,
        });
        let handles = (0..workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("hic-serve-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker")
            })
            .collect();
        Server {
            inner,
            workers: handles,
        }
    }

    /// Submit a request. Returns the job id and whether it completed
    /// immediately from the result cache. Rejects requests naming an
    /// application the suite does not contain — the one submit-time
    /// validation that cannot be a per-job runtime failure (there is
    /// nothing to run).
    pub fn submit(&self, request: RunRequest, priority: i64) -> Result<(JobId, bool), String> {
        if hic_apps::app_by_name(&request.app, request.scale).is_none() {
            return Err(format!("unknown application {:?}", request.app));
        }
        let key = request.cache_key();
        let mut st = self.inner.state.lock().unwrap();
        let id = st.next_id;
        st.next_id += 1;
        st.stats.submitted += 1;

        if let Some(outcome) = st.cache.get(&key).cloned() {
            st.stats.cache_hits += 1;
            st.stats.completed += 1;
            if outcome.error.is_some() {
                st.stats.failed += 1;
            }
            st.jobs.insert(
                id,
                Job {
                    id,
                    request,
                    priority,
                    state: JobState::Done,
                    outcome: Some(outcome),
                    cached: true,
                },
            );
            drop(st);
            self.inner.done_cv.notify_all();
            return Ok((id, true));
        }

        let seq = st.seq;
        st.seq += 1;
        st.heap.push(QueueEntry {
            priority,
            seq,
            job: id,
        });
        st.jobs.insert(
            id,
            Job {
                id,
                request,
                priority,
                state: JobState::Queued,
                outcome: None,
                cached: false,
            },
        );
        drop(st);
        self.inner.work_cv.notify_one();
        Ok((id, false))
    }

    /// A snapshot of one job (state, outcome if done).
    pub fn status(&self, id: JobId) -> Option<Job> {
        self.inner.state.lock().unwrap().jobs.get(&id).cloned()
    }

    /// Block until `id` completes; `None` for unknown or cancelled
    /// jobs. Returns the outcome and whether it came from the cache.
    pub fn wait(&self, id: JobId) -> Option<(Arc<JobOutcome>, bool)> {
        let mut st = self.inner.state.lock().unwrap();
        loop {
            match st.jobs.get(&id) {
                None => return None,
                Some(job) => match job.state {
                    JobState::Done => {
                        return Some((
                            job.outcome.clone().expect("done job has outcome"),
                            job.cached,
                        ))
                    }
                    JobState::Cancelled => return None,
                    JobState::Queued | JobState::Running => {
                        st = self.inner.done_cv.wait(st).unwrap();
                    }
                },
            }
        }
    }

    /// Cancel a queued job. Running and finished jobs are not
    /// cancellable; returns whether the job was dequeued.
    pub fn cancel(&self, id: JobId) -> bool {
        let mut st = self.inner.state.lock().unwrap();
        match st.jobs.get_mut(&id) {
            Some(job) if job.state == JobState::Queued => {
                job.state = JobState::Cancelled;
                st.stats.cancelled += 1;
                drop(st);
                self.inner.done_cv.notify_all();
                true
            }
            _ => false,
        }
    }

    /// Aggregate counters (queued/running computed from live jobs).
    pub fn stats(&self) -> ServerStats {
        let st = self.inner.state.lock().unwrap();
        let mut s = st.stats;
        s.queued = st
            .jobs
            .values()
            .filter(|j| j.state == JobState::Queued)
            .count() as u64;
        s.running = st
            .jobs
            .values()
            .filter(|j| j.state == JobState::Running)
            .count() as u64;
        s
    }

    /// Stop accepting work and join the workers. In-flight jobs finish;
    /// queued jobs stay queued (their waiters are woken).
    pub fn shutdown(mut self) {
        self.begin_shutdown();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }

    fn begin_shutdown(&self) {
        self.inner.state.lock().unwrap().shutdown = true;
        self.inner.work_cv.notify_all();
        self.inner.done_cv.notify_all();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.begin_shutdown();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        // Claim the next live queue entry (skipping cancelled jobs).
        let (id, request) = {
            let mut st = inner.state.lock().unwrap();
            'claim: loop {
                if st.shutdown {
                    return;
                }
                while let Some(entry) = st.heap.pop() {
                    if let Some(job) = st.jobs.get_mut(&entry.job) {
                        if job.state == JobState::Queued {
                            job.state = JobState::Running;
                            break 'claim (job.id, job.request.clone());
                        }
                    }
                }
                st = inner.work_cv.wait(st).unwrap();
            }
        };

        let outcome = Arc::new(run_with_retry(&request, inner.default_watchdog_ms));

        let mut st = inner.state.lock().unwrap();
        st.stats.completed += 1;
        if outcome.error.is_some() {
            st.stats.failed += 1;
        }
        if outcome.cacheable() {
            st.cache.insert(outcome.key.clone(), Arc::clone(&outcome));
        }
        if let Some(job) = st.jobs.get_mut(&id) {
            job.state = JobState::Done;
            job.outcome = Some(outcome);
        }
        drop(st);
        inner.done_cv.notify_all();
    }
}

/// How many times a worker will run one job before giving up on it.
const MAX_ATTEMPTS: u32 = 3;
/// First inter-attempt backoff sleep; doubles per retry (10, 20 ms).
const BACKOFF_BASE_MS: u64 = 10;

/// Run a job, retrying nondeterministic failures. Watchdog kills and
/// panics are functions of host timing, so a re-run may succeed; each
/// retry waits exponentially longer to let a transiently overloaded
/// host drain. Deterministic outcomes — successes and typed errors that
/// are pure functions of the request — return after the first attempt,
/// and the final outcome records how many attempts it took and the
/// total backoff slept.
fn run_with_retry(request: &RunRequest, default_watchdog_ms: Option<u64>) -> JobOutcome {
    let mut backoff_ms = 0u64;
    for attempt in 1..=MAX_ATTEMPTS {
        let mut outcome = run_job(request, default_watchdog_ms);
        outcome.attempts = attempt;
        outcome.backoff_ms = backoff_ms;
        let nondeterministic = outcome.error.is_some() && !outcome.cacheable();
        if !nondeterministic || attempt == MAX_ATTEMPTS {
            return outcome;
        }
        let sleep = BACKOFF_BASE_MS << (attempt - 1);
        std::thread::sleep(std::time::Duration::from_millis(sleep));
        backoff_ms += sleep;
    }
    unreachable!("the loop returns on its final attempt")
}

/// Drive one request to completion. The worker survives anything the
/// run does: a typed `RunError` becomes the outcome's error tag, and a
/// panic in the simulator is caught and tagged `"panic"` — per-job
/// failure, never server failure.
fn run_job(request: &RunRequest, default_watchdog_ms: Option<u64>) -> JobOutcome {
    let started = Instant::now();
    let Some(app) = hic_apps::app_by_name(&request.app, request.scale) else {
        return JobOutcome::failed(
            request,
            "unknown_app",
            format!("no application named {:?}", request.app),
            started.elapsed(),
        );
    };
    let mut run_req = request.clone();
    if run_req.watchdog_wall_ms.is_none() {
        run_req.watchdog_wall_ms = default_watchdog_ms;
    }
    match catch_unwind(AssertUnwindSafe(|| app.run_req(&run_req))) {
        Ok(run) => JobOutcome::from_app_run(request, &run, started.elapsed()),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(|s| s.as_str())
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("opaque panic payload");
            JobOutcome::failed(
                request,
                "panic",
                format!("worker caught a panic: {msg}"),
                started.elapsed(),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hic_apps::Scale;
    use hic_runtime::{Config, IntraConfig};

    fn req() -> RunRequest {
        RunRequest::new("FFT", Config::Intra(IntraConfig::Base), Scale::Test)
    }

    #[test]
    fn runs_a_job_and_serves_the_resubmission_from_cache() {
        let server = Server::start(2, None);
        let (id, cached) = server.submit(req(), 0).unwrap();
        assert!(!cached);
        let (outcome, from_cache) = server.wait(id).unwrap();
        assert!(!from_cache);
        assert!(outcome.correct, "{}", outcome.detail);
        assert_eq!(outcome.error, None);

        let (id2, cached2) = server.submit(req(), 0).unwrap();
        assert!(cached2, "identical resubmission must hit the cache");
        let (outcome2, from_cache2) = server.wait(id2).unwrap();
        assert!(from_cache2);
        assert_eq!(outcome2.cycles, outcome.cycles);
        assert_eq!(outcome2.traffic, outcome.traffic);

        let stats = server.stats();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.failed, 0);
        server.shutdown();
    }

    #[test]
    fn unknown_apps_are_rejected_at_submit() {
        let server = Server::start(1, None);
        let mut r = req();
        r.app = "NoSuchApp".into();
        assert!(server.submit(r, 0).is_err());
        server.shutdown();
    }

    #[test]
    fn nondeterministic_failures_are_retried_with_backoff_and_not_cached() {
        // A 10-cycle watchdog budget hangs every attempt, so the worker
        // burns through all retries, sleeping 10 then 20 ms between
        // them, and publishes the exhausted outcome uncached.
        let server = Server::start(1, None);
        let mut r = req();
        r.watchdog_cycles = Some(10);
        let (id, cached) = server.submit(r.clone(), 0).unwrap();
        assert!(!cached);
        let (outcome, _) = server.wait(id).unwrap();
        assert_eq!(outcome.error.as_deref(), Some("hang"), "{}", outcome.detail);
        assert_eq!(outcome.attempts, MAX_ATTEMPTS);
        assert_eq!(outcome.backoff_ms, BACKOFF_BASE_MS + 2 * BACKOFF_BASE_MS);
        let (_, cached2) = server.submit(r, 0).unwrap();
        assert!(!cached2, "a hang must not be served from the cache");
        server.shutdown();
    }

    #[test]
    fn recovered_corrupting_jobs_succeed_first_try_and_cache() {
        // Rollback recovery turns an injected dirty-line corruption into
        // a deterministic success: one attempt, cacheable.
        let server = Server::start(1, None);
        let mut r = req();
        r.fault = Some(hic_runtime::FaultSpec::CorruptingRecover { seed: 11 });
        let (id, _) = server.submit(r.clone(), 0).unwrap();
        let (outcome, _) = server.wait(id).unwrap();
        assert_eq!(outcome.error, None, "{}", outcome.detail);
        assert!(outcome.correct, "{}", outcome.detail);
        assert_eq!(outcome.attempts, 1);
        assert_eq!(outcome.backoff_ms, 0);
        let (id2, cached2) = server.submit(r, 0).unwrap();
        assert!(cached2, "recovered runs are deterministic and cacheable");
        let (outcome2, _) = server.wait(id2).unwrap();
        assert_eq!(outcome2.cycles, outcome.cycles);
        server.shutdown();
    }

    #[test]
    fn cancel_dequeues_only_queued_jobs() {
        // No-worker trick isn't possible (start clamps to 1), so queue
        // two long-priority jobs behind one worker and cancel the one
        // that is still queued.
        let server = Server::start(1, None);
        let (a, _) = server.submit(req(), 5).unwrap();
        let mut other = req();
        other.check = hic_runtime::CheckMode::Report;
        let (b, _) = server.submit(other, -5).unwrap();
        // Whichever is still queued can be cancelled exactly once.
        let cancelled = server.cancel(b) || server.cancel(a);
        let _ = cancelled; // may be false if both already ran — that's fine
        server.wait(a);
        assert!(!server.cancel(a), "finished jobs are not cancellable");
        server.shutdown();
    }
}
