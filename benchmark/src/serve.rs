//! The `serve` workload: an in-process `hic-serve` server fed an
//! open-loop job stream (exponential inter-arrivals at a fixed rate),
//! then the same jobs submitted at once to a fresh server, `BURSTS` times.
//! A burst drains in two to three seconds, so a stall of the host lasting
//! a second moves one burst's drain time by a third or more; the median of
//! three bursts is not moved by one such stall.
//!
//! Jobs are figure cells at a small scale, each cell the same number of
//! times, in a seed-shuffled order. A fixed share carry a fresh
//! recoverable fault seed, so they never hit the result cache; plain
//! repeats of a cell that already finished do. One generator thread
//! submits each job when it falls due and polls `Server::status` in
//! between, so a job's latency runs from its due time to the first poll
//! that sees it done.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hic_runtime::{Config, FaultSpec, IntraConfig, RunRequest, Scale};
use hic_serve::{JobId, JobOutcome, JobState, Server};
use hic_sim::SplitMix64;

use crate::trace::Tracer;
use crate::{add, procfs, stats, Bench, Round, Sizes, FLIT_KEYS};

/// Input scale of the jobs.
const SCALE: Scale = Scale::Test;
/// Each figure cell appears this many times in the job stream.
const PASSES: usize = 3;
/// Mean open-loop arrival rate, jobs per second.
const RATE: f64 = 25.0;
/// Burst phases per round; `wall_s` is their median drain time.
const BURSTS: usize = 3;
/// Share of jobs that carry a fresh fault seed (and so never hit the
/// result cache).
const FAULTED: f64 = 0.3;
/// Server worker threads.
const WORKERS: usize = 2;
/// Generator poll interval.
const POLL: Duration = Duration::from_micros(500);
/// Per-job watchdog, so a stuck simulation fails its job, not the run.
const WATCHDOG_MS: u64 = 60_000;
/// How long a phase may wait for its last job once all are submitted.
const DRAIN_LIMIT_S: f64 = 90.0;
/// The warm-up jobs, run during every set-up: one application under each
/// intra configuration, fixed so set-up costs the same on every seed.
const WARMUP_APP: &str = "Barnes";

/// Cycles and the six traffic categories: what every rerun of a request
/// must reproduce exactly.
type Fingerprint = (u64, [u64; 6]);

/// The seeded job stream: requests and their due times in seconds from
/// the start of the open loop.
fn job_stream(seed: u64, sizes: Sizes) -> (Vec<RunRequest>, Vec<f64>) {
    let mut rng = SplitMix64::new(seed ^ 0x0073_6572_7665);
    let cells = hic_serve::sweep_requests(SCALE);
    let mut jobs: Vec<RunRequest> = (0..PASSES).flat_map(|_| cells.iter().cloned()).collect();
    rng.shuffle(&mut jobs);
    jobs.truncate(sizes.serve_jobs);
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    rng.shuffle(&mut order);
    let faulted = (FAULTED * jobs.len() as f64).round() as usize;
    for &j in &order[..faulted] {
        jobs[j].fault = Some(FaultSpec::Recoverable {
            seed: rng.next_u64(),
        });
    }
    // Exponential gaps: -ln(1 - U) / rate, U in [0, 1).
    let mut t = 0.0;
    let due = jobs
        .iter()
        .map(|_| {
            t += -(1.0 - rng.unit_f64()).ln() / RATE;
            t
        })
        .collect();
    (jobs, due)
}

pub struct ServeBench {
    jobs: Vec<RunRequest>,
    due: Vec<f64>,
    /// Each key's first outcome, across both phases.
    first: HashMap<String, Fingerprint>,
    warmup_failures: Vec<String>,
}

/// One finished job as the generator saw it.
struct Seen {
    /// Seconds from the phase start to the poll that saw it done.
    at: f64,
    outcome: Arc<JobOutcome>,
    cached: bool,
}

/// Everything one phase observed.
struct Phase {
    seen: Vec<Option<Seen>>,
    submit_us: Vec<f64>,
    lag_max_s: f64,
    /// Seconds from the phase start to the last job seen done.
    drain_s: f64,
    failures: Vec<String>,
}

impl ServeBench {
    pub fn setup(seed: u64, sizes: Sizes) -> ServeBench {
        let (jobs, due) = job_stream(seed, sizes);
        let server = Server::start(WORKERS, Some(WATCHDOG_MS));
        let mut warmup_failures = Vec::new();
        let mut ids = Vec::new();
        for config in IntraConfig::ALL {
            let warm = RunRequest::new(WARMUP_APP, Config::Intra(config), SCALE);
            match server.submit(warm, 0) {
                Ok((id, _)) => ids.push(id),
                Err(e) => warmup_failures.push(format!("warm-up job refused: {e}")),
            }
        }
        for id in ids {
            match server.wait(id) {
                Some((o, _)) if o.correct && o.error.is_none() => {}
                Some((o, _)) => warmup_failures.push(format!(
                    "warm-up job {} failed: {:?}: {}",
                    o.key, o.error, o.detail
                )),
                None => warmup_failures.push("warm-up job vanished".to_string()),
            }
        }
        server.shutdown();
        ServeBench {
            jobs,
            due,
            first: HashMap::new(),
            warmup_failures,
        }
    }

    /// Submit every job at its due time (`open`) or all at once, and poll
    /// until each is done or the drain limit passes.
    fn phase(&self, tracer: &Tracer, open: bool) -> Phase {
        let server = Server::start(WORKERS, Some(WATCHDOG_MS));
        let n = self.jobs.len();
        let mut phase = Phase {
            seen: (0..n).map(|_| None).collect(),
            submit_us: Vec::with_capacity(n),
            lag_max_s: 0.0,
            drain_s: 0.0,
            failures: Vec::new(),
        };
        let mut outstanding: Vec<(usize, JobId)> = Vec::new();
        let last_due = if open {
            self.due.last().copied().unwrap_or(0.0)
        } else {
            0.0
        };
        let t0 = Instant::now();
        let mut next = 0;
        loop {
            let now = t0.elapsed().as_secs_f64();
            if next < n && (!open || now >= self.due[next]) {
                if open {
                    phase.lag_max_s = phase.lag_max_s.max(now - self.due[next]);
                }
                let t = Instant::now();
                let submitted = tracer.span("serve.submit", next as u64 + 1, || {
                    server.submit(self.jobs[next].clone(), 0)
                });
                phase.submit_us.push(t.elapsed().as_secs_f64() * 1e6);
                match submitted {
                    Ok((id, _)) => outstanding.push((next, id)),
                    Err(e) => phase.failures.push(format!("job {next}: refused: {e}")),
                }
                next += 1;
                continue;
            }
            tracer.span("serve.poll", 0, || {
                outstanding.retain(|&(j, id)| match server.status(id) {
                    Some(job) if job.state == JobState::Done => {
                        let at = t0.elapsed().as_secs_f64();
                        phase.drain_s = at;
                        phase.seen[j] = job.outcome.map(|outcome| Seen {
                            at,
                            outcome,
                            cached: job.cached,
                        });
                        false
                    }
                    Some(job) if job.state != JobState::Cancelled => true,
                    _ => false,
                })
            });
            if next == n && outstanding.is_empty() {
                break;
            }
            let now = t0.elapsed().as_secs_f64();
            if now > last_due + DRAIN_LIMIT_S {
                break;
            }
            let wait = match self.due.get(next) {
                Some(&d) if open => (d - now).clamp(0.0, POLL.as_secs_f64()),
                _ => POLL.as_secs_f64(),
            };
            if wait > 0.0 {
                tracer.span("serve.idle", 0, || {
                    std::thread::sleep(Duration::from_secs_f64(wait))
                });
            }
        }
        server.shutdown();
        phase
    }

    /// Fail missing, wrong or failed outcomes, and any outcome whose
    /// cycles or traffic differ from its key's first outcome.
    fn audit(&mut self, phase: &mut Phase, label: &str) {
        for (j, seen) in phase.seen.iter().enumerate() {
            let key = self.jobs[j].cache_key();
            let Some(seen) = seen else {
                phase
                    .failures
                    .push(format!("{label} job {j} ({key}): no outcome"));
                continue;
            };
            let o = &seen.outcome;
            if let Some(e) = &o.error {
                phase
                    .failures
                    .push(format!("{label} job {j} ({key}): error {e}: {}", o.detail));
            } else if !o.correct {
                phase.failures.push(format!(
                    "{label} job {j} ({key}): wrong result: {}",
                    o.detail
                ));
            }
            let fp = (o.cycles, o.traffic);
            let first = *self.first.entry(key.clone()).or_insert(fp);
            if first != fp {
                phase.failures.push(format!(
                    "{label} job {j} ({key}, cached={}): cycles/traffic {fp:?} differ from first outcome {first:?}",
                    seen.cached
                ));
            }
        }
    }
}

impl Bench for ServeBench {
    fn round(&mut self, tracer: &Tracer) -> Round {
        let cpu0 = procfs::cpu_times();
        let t0 = Instant::now();
        let mut open = self.phase(tracer, true);
        self.audit(&mut open, "open-loop");
        let mut bursts = Vec::with_capacity(BURSTS);
        for b in 0..BURSTS {
            let mut burst = self.phase(tracer, false);
            self.audit(&mut burst, &format!("burst {b}"));
            bursts.push(burst);
        }
        let drains: Vec<f64> = bursts.iter().map(|b| b.drain_s).collect();
        let drain_s = stats::median(&drains).expect("BURSTS > 0");

        let mut round = Round {
            wall_s: drain_s,
            elapsed_s: t0.elapsed().as_secs_f64(),
            cpu: procfs::cpu_times().since(&cpu0),
            attempted: ((1 + BURSTS) * self.jobs.len()) as u64,
            ..Round::default()
        };
        let mut layer = BTreeMap::new();
        let (mut queue_ms, mut run_ms) = (Vec::new(), Vec::new());
        let mut hits = 0u64;
        for (j, seen) in open.seen.iter().enumerate() {
            let Some(s) = seen else { continue };
            let latency_ms = (s.at - self.due[j]) * 1e3;
            round.unit_ms.push(latency_ms);
            if s.cached {
                hits += 1;
            } else {
                let run = s.outcome.wall.as_secs_f64() * 1e3;
                run_ms.push(run);
                queue_ms.push(latency_ms - run);
            }
            let o = &s.outcome;
            add(&mut layer, "sim_cycles", o.cycles as f64);
            add(
                &mut layer,
                "sim_flits",
                o.traffic.iter().sum::<u64>() as f64,
            );
            for (k, v) in FLIT_KEYS.into_iter().zip(o.traffic) {
                add(&mut layer, k, v as f64);
            }
            add(&mut layer, "check.findings", o.findings as f64);
        }
        let retried = std::iter::once(&open)
            .chain(&bursts)
            .flat_map(|p| p.seen.iter().flatten())
            .filter(|s| !s.cached && s.outcome.attempts > 1)
            .count();
        let p50 = |xs: &[f64]| stats::median(xs).unwrap_or(0.0);
        let tail = |xs: &[f64]| stats::tail(&stats::sorted(xs)).map_or(0.0, |t| t.1);
        for (k, v) in [
            ("serve.queue_wait_p50_ms", p50(&queue_ms)),
            ("serve.queue_wait_tail_ms", tail(&queue_ms)),
            ("serve.run_p50_ms", p50(&run_ms)),
            ("serve.run_tail_ms", tail(&run_ms)),
            (
                "serve.cache_hit_ratio",
                hits as f64 / open.submit_us.len().max(1) as f64,
            ),
            ("serve.submit_p50_us", p50(&open.submit_us)),
            ("serve.retried_jobs", retried as f64),
            ("serve.gen_lag_max_ms", open.lag_max_s * 1e3),
            (
                "serve.sat_jobs_per_s",
                self.jobs.len() as f64 / drain_s.max(f64::MIN_POSITIVE),
            ),
        ] {
            layer.insert(k, v);
        }
        round.layer = layer;
        round.failures = open.failures;
        for burst in bursts {
            round.failures.extend(burst.failures);
        }
        round
    }

    fn warmup_failures(&self) -> Vec<String> {
        self.warmup_failures.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_stream_follows_the_seed() {
        let keys = |seed| {
            let (jobs, due) = job_stream(seed, Sizes::STANDARD);
            let keys: Vec<String> = jobs.iter().map(RunRequest::cache_key).collect();
            (keys, due)
        };
        assert_eq!(keys(3), keys(3));
        assert_ne!(keys(3).0, keys(4).0);
        assert_ne!(keys(3).1, keys(4).1);

        let (jobs, due) = job_stream(3, Sizes::STANDARD);
        assert_eq!(jobs.len(), PASSES * 71);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        // The mean rate is the configured one, within sampling error.
        let rate = jobs.len() as f64 / due.last().unwrap();
        assert!((rate / RATE - 1.0).abs() < 0.2, "rate {rate}");
        // Every cell appears once per pass; a fixed share carry faults.
        let mut plain: Vec<String> = jobs
            .iter()
            .map(|r| {
                RunRequest {
                    fault: None,
                    ..r.clone()
                }
                .cache_key()
            })
            .collect();
        plain.sort();
        plain.dedup();
        assert_eq!(plain.len(), 71);
        let faulted = jobs.iter().filter(|r| r.fault.is_some()).count();
        assert_eq!(faulted, (FAULTED * jobs.len() as f64).round() as usize);
    }
}
