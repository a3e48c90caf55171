//! Job bookkeeping: what a client submitted, where it is in its
//! lifecycle, and what came out.

use std::sync::Arc;
use std::time::Duration;

use hic_runtime::{RunRequest, Scheme};
use hic_sim::Json;

/// Server-assigned job identifier.
pub type JobId = u64;

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in the priority queue.
    Queued,
    /// Claimed by a worker, simulation in flight.
    Running,
    /// Finished (successfully or with a typed per-job failure); the
    /// outcome is available.
    Done,
    /// Removed from the queue before a worker claimed it.
    Cancelled,
}

impl JobState {
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Cancelled => "cancelled",
        }
    }
}

/// The result of one finished job — everything a figure row needs, in a
/// form the cache can hand back verbatim to an identical resubmission.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The request's canonical key ([`RunRequest::cache_key`]).
    pub key: String,
    pub app: String,
    /// Scheme name (`"B+M+I"`, `"Addr+L"`, ...).
    pub scheme: String,
    /// `"intra"` or `"inter"`.
    pub family: &'static str,
    pub scale: &'static str,
    /// Simulated result matched the app's host reference.
    pub correct: bool,
    /// Human-readable note from the app (residuals, sizes, ...), or the
    /// failure description.
    pub detail: String,
    /// Simulated cycles (up to the failure point for failed runs).
    pub cycles: u64,
    /// Flit totals of the run, `[linefill, writeback, invalidation,
    /// memory, l2l3, sync]`.
    pub traffic: [u64; 6],
    /// Sanitizer findings observed (0 unless the request asked to check).
    pub findings: u64,
    /// Typed failure tag (`"hang"`, `"corrupt_dirty_line"`, ...), or the
    /// server-side tags `"unknown_app"` / `"panic"`. `None` on success.
    pub error: Option<String>,
    /// Host wall-clock the worker spent on the run.
    pub wall: Duration,
    /// How many times the worker ran the job (1 = first try stuck).
    /// Only nondeterministic failures (hang, panic) are retried;
    /// deterministic outcomes never re-run.
    pub attempts: u32,
    /// Total host milliseconds the worker slept backing off between
    /// attempts (0 when `attempts == 1`).
    pub backoff_ms: u64,
}

impl JobOutcome {
    /// Build an outcome from a finished application run.
    pub fn from_app_run(req: &RunRequest, run: &hic_apps::AppRun, wall: Duration) -> JobOutcome {
        let t = &run.stats.traffic;
        JobOutcome {
            key: req.cache_key(),
            app: req.app.clone(),
            scheme: req.config.scheme().name().to_string(),
            family: family(req.config.scheme()),
            scale: req.scale.name(),
            correct: run.correct,
            detail: run.detail.clone(),
            cycles: run.stats.total_cycles,
            traffic: [
                t.linefill,
                t.writeback,
                t.invalidation,
                t.memory,
                t.l2l3,
                t.sync,
            ],
            findings: run.diagnostics.findings.len() as u64,
            error: run.error.as_ref().map(|e| e.kind().to_string()),
            wall,
            attempts: 1,
            backoff_ms: 0,
        }
    }

    /// An outcome for a job that never produced an `AppRun` (unknown
    /// app name, or the worker caught a panic).
    pub fn failed(req: &RunRequest, tag: &str, detail: String, wall: Duration) -> JobOutcome {
        JobOutcome {
            key: req.cache_key(),
            app: req.app.clone(),
            scheme: req.config.scheme().name().to_string(),
            family: family(req.config.scheme()),
            scale: req.scale.name(),
            correct: false,
            detail,
            cycles: 0,
            traffic: [0; 6],
            findings: 0,
            error: Some(tag.to_string()),
            wall,
            attempts: 1,
            backoff_ms: 0,
        }
    }

    /// Deterministic outcomes are safe to re-serve from the cache: the
    /// result is a pure function of the request. Watchdog kills are a
    /// function of host timing and must re-run on resubmission, as must
    /// panics.
    pub fn cacheable(&self) -> bool {
        !matches!(self.error.as_deref(), Some("hang") | Some("panic"))
    }

    /// Render as the wire/report JSON object.
    pub fn to_json(&self, cached: bool) -> Json {
        Json::obj([
            ("key", Json::str(&*self.key)),
            ("app", Json::str(&*self.app)),
            ("scheme", Json::str(&*self.scheme)),
            ("family", Json::str(self.family)),
            ("scale", Json::str(self.scale)),
            ("correct", Json::Bool(self.correct)),
            ("detail", Json::str(&*self.detail)),
            ("cycles", Json::uint(self.cycles)),
            (
                "traffic",
                Json::Arr(self.traffic.iter().map(|&v| Json::uint(v)).collect()),
            ),
            ("findings", Json::uint(self.findings)),
            (
                "error",
                match &self.error {
                    Some(e) => Json::str(&**e),
                    None => Json::Null,
                },
            ),
            ("wall_ms", Json::uint(self.wall.as_millis() as u64)),
            ("attempts", Json::uint(self.attempts as u64)),
            ("backoff_ms", Json::uint(self.backoff_ms)),
            ("cached", Json::Bool(cached)),
        ])
    }
}

fn family(scheme: Scheme) -> &'static str {
    match scheme {
        Scheme::Intra(_) => "intra",
        Scheme::Inter(_) => "inter",
    }
}

/// One tracked job.
#[derive(Debug, Clone)]
pub struct Job {
    pub id: JobId,
    pub request: RunRequest,
    pub priority: i64,
    pub state: JobState,
    /// Set when `state == Done`.
    pub outcome: Option<Arc<JobOutcome>>,
    /// The outcome was served from the result cache.
    pub cached: bool,
}
