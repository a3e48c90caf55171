//! Host-performance benchmark: wall-clock and engine-throughput tracking.
//!
//! The `bench_host` binary runs the paper grid (every app under every
//! configuration, [`sweep_requests`]), times each run on the host clock,
//! and writes a machine-readable `BENCH_host.json` so the wall-clock
//! trajectory of the simulator itself is tracked PR over PR. The JSON
//! records, per run and in aggregate: host wall time, simulated-machine
//! ops executed, sim-ops per host second, and the engine ledger
//! (`EngineStats`: ops run without suspending, at the smallest key or
//! because they are private, as `shard_local_ops`; suspensions as
//! `round_trips`; wakeups; and `messages` = ops executed; `batches` and
//! `lock_waits` are always 0 under the single-threaded executor). The
//! document is built as a [`Json`] value.

use std::time::{Duration, Instant};

use hic_apps::{app_by_name, inter_apps, sweep_requests, AppRun, Scale};
use hic_machine::{ResilienceStats, TrafficLedger};
use hic_runtime::{CheckMode, Config, FaultSpec, InterConfig, RunRequest, Scheduler};
use hic_sim::{EngineStats, Json, Topology, TopologyBuilder};

use crate::harness::Timing;

/// One timed (app, configuration) execution.
#[derive(Debug, Clone)]
pub struct HostRun {
    pub app: String,
    pub config: String,
    /// `"intra"` or `"inter"`.
    pub family: &'static str,
    pub correct: bool,
    pub cycles: u64,
    pub wall: Duration,
    pub engine: EngineStats,
}

impl HostRun {
    /// Simulated machine ops retired per host-side second.
    pub fn sim_ops_per_sec(&self) -> f64 {
        let s = self.wall.as_secs_f64();
        if s == 0.0 {
            return 0.0;
        }
        self.engine.ops_executed as f64 / s
    }
}

/// Sanitizer-overhead measurement (`--check`): the incoherent half of
/// the grid timed with `hic-check` off and in Report mode. Each mode is
/// swept [`CHECK_REPS`] times, interleaved, and the minimum wall time per
/// mode is reported — a single off-then-report pass charges all the
/// process warm-up (lazy page faults, allocator growth, branch training)
/// to the *off* sweep and used to report a negative overhead.
#[derive(Debug, Clone)]
pub struct CheckOverhead {
    /// Minimum wall time of the sweep with checking off.
    pub wall_off: Duration,
    /// Minimum wall time of the same sweep in Report mode.
    pub wall_report: Duration,
    /// Total loads/stores the sanitizer inspected across the sweep.
    pub checks: u64,
    /// True when the whole suite produced zero findings (it must).
    pub clean: bool,
}

impl CheckOverhead {
    /// Host-time overhead of Report-mode checking, in percent.
    pub fn overhead_pct(&self) -> f64 {
        let off = self.wall_off.as_secs_f64();
        if off == 0.0 {
            return 0.0;
        }
        (self.wall_report.as_secs_f64() / off - 1.0) * 100.0
    }
}

/// Fault-resilience measurement (`--faults`): the incoherent half of the
/// suite timed three ways — clean, under the canned recoverable fault
/// plan (`FaultSpec::Recoverable`), and under the corrupting-but-
/// recoverable plan (`FaultSpec::CorruptingRecover`, which flips dirty
/// lines and survives them via epoch-checkpoint rollback). The arms are
/// interleaved [`CHECK_REPS`] times and the minimum wall per arm is
/// kept, so process warm-up cannot be charged to whichever arm runs
/// first. Both faulted sweeps must still produce correct results.
#[derive(Debug, Clone)]
pub struct FaultOverhead {
    /// Seed of the canned plan (`FaultPlan::from_seed`).
    pub seed: u64,
    /// Minimum wall time of the sweep with no faults installed.
    pub wall_clean: Duration,
    /// Minimum wall time of the same sweep under the recoverable plan.
    pub wall_faulted: Duration,
    /// Minimum wall time under the corrupting + rollback-recovery plan.
    pub wall_recovered: Duration,
    /// True when every faulted run still matched its reference.
    pub correct: bool,
    /// True when every corrupting-recover run still matched its
    /// reference (rollback replay repaired each corruption).
    pub recover_correct: bool,
    /// Injected faults and recovery work, summed over the faulted sweep.
    pub stats: ResilienceStats,
    /// The corrupting-recover sweep's ledger: rollbacks, rollback
    /// cycles, and checkpoint words captured, on top of the usual
    /// retry/flip counters.
    pub recover_stats: ResilienceStats,
}

impl FaultOverhead {
    /// Host-time overhead of running under faults, in percent.
    pub fn overhead_pct(&self) -> f64 {
        let clean = self.wall_clean.as_secs_f64();
        if clean == 0.0 {
            return 0.0;
        }
        (self.wall_faulted.as_secs_f64() / clean - 1.0) * 100.0
    }

    /// Host-time overhead of checkpointed rollback recovery, in percent.
    pub fn recover_overhead_pct(&self) -> f64 {
        let clean = self.wall_clean.as_secs_f64();
        if clean == 0.0 {
            return 0.0;
        }
        (self.wall_recovered.as_secs_f64() / clean - 1.0) * 100.0
    }
}

/// One static verify + optimize measurement (`--lint`): an app's record
/// under one configuration, verified and minimized by `hic-lint` on the
/// host clock, then simulated with the original and the minimized plans
/// to measure the traffic delta.
#[derive(Debug, Clone)]
pub struct LintRun {
    pub app: String,
    pub config: String,
    /// Host time to statically verify the record.
    pub verify: Duration,
    /// Host time to compute + re-verify the minimized plans.
    pub optimize: Duration,
    /// The record verified finding-free (it must).
    pub clean: bool,
    pub ops_before: usize,
    pub ops_after: usize,
    pub pruned: usize,
    pub downgraded: usize,
    /// WB+INV flits of the simulated run, original / minimized plans.
    pub flits_before: u64,
    pub flits_after: u64,
    /// Executed WB/INV instructions, original / minimized plans.
    pub wbinv_before: u64,
    pub wbinv_after: u64,
    /// The minimized run still matched the host reference.
    pub correct: bool,
}

impl LintRun {
    /// WB+INV flit reduction, in percent of the original.
    pub fn flit_savings_pct(&self) -> f64 {
        if self.flits_before == 0 {
            return 0.0;
        }
        (1.0 - self.flits_after as f64 / self.flits_before as f64) * 100.0
    }
}

/// One cell of the protocol-comparison matrix (`--geometry`): an
/// application on one swept topology under one protocol. The sweep pits
/// the incoherent baseline against both hardware-coherent backends
/// (invalidation-based MESI and update-based Dragon) on machine shapes
/// the paper never built, so the comparison the paper makes on its two
/// fixed geometries is tracked across the whole grid PR over PR.
#[derive(Debug, Clone)]
pub struct GeometryRun {
    /// `"BxCxK"`: blocks x cores/block x L2 banks/block.
    pub shape: String,
    pub blocks: usize,
    pub cores_per_block: usize,
    pub l2_banks: usize,
    /// `"Base"` (incoherent), `"HCC"` (MESI), or `"Dragon"`.
    pub scheme: String,
    pub app: String,
    pub correct: bool,
    pub cycles: u64,
    /// Per-category flit totals of the simulated run.
    pub traffic: TrafficLedger,
    pub wall: Duration,
}

/// The swept geometry grid: 2x2x2 through 8x8x4 (blocks x cores/block x
/// L2 banks/block), hierarchical shapes only, with the paper's 4x8 in
/// the middle as the anchor point. Banks are capped at min(4, cores):
/// L2 banks are colocated with the block's core tiles.
pub fn geometry_grid() -> Vec<Topology> {
    [(2, 2), (2, 4), (4, 4), (4, 8), (8, 8)]
        .iter()
        .map(|&(blocks, cores)| {
            TopologyBuilder::new(blocks, cores)
                .l2_banks_per_block(cores.min(4))
                .validate()
                .expect("geometry grid shapes are valid")
        })
        .collect()
}

/// Run the inter-block suite across [`geometry_grid`] under the three
/// protocol families — incoherent `Base`, invalidation-based `HCC`
/// (MESI), and update-based `Dragon` — timing each run and capturing
/// cycles plus the per-category traffic ledger.
pub fn run_geometry_matrix(scale: Scale) -> Vec<GeometryRun> {
    let mut out = Vec::new();
    for topo in geometry_grid() {
        let shape = format!("{}x{}", topo.shape_label(), topo.l2_banks_per_block());
        for scheme in [InterConfig::Base, InterConfig::Hcc, InterConfig::Dragon] {
            let config = Config::Inter(scheme)
                .with_topology(topo)
                .expect("grid shapes are hierarchical");
            for app in inter_apps(scale) {
                let start = Instant::now();
                let r = app.run_req(&RunRequest::new(app.name(), config, scale));
                out.push(GeometryRun {
                    shape: shape.clone(),
                    blocks: topo.blocks(),
                    cores_per_block: topo.cores_per_block(),
                    l2_banks: topo.l2_banks_per_block(),
                    scheme: scheme.name().to_string(),
                    app: app.name().to_string(),
                    correct: r.correct,
                    cycles: r.stats.total_cycles,
                    traffic: r.stats.traffic,
                    wall: start.elapsed(),
                });
            }
        }
    }
    out
}

/// Engine A/B (`--parallel`): the app suite swept under the `Linear`
/// oracle and under the default engine, interleaved [`CHECK_REPS`]
/// times. Every sweep of either engine must reproduce the first oracle
/// sweep bit-for-bit.
#[derive(Debug, Clone)]
pub struct ParallelReport {
    /// Host cores available to the sweep (`available_parallelism`).
    pub host_cores: usize,
    /// Suite wall time of each oracle sweep, in run order.
    pub oracle_walls: Vec<Duration>,
    /// Suite wall time of each default-engine sweep, in run order.
    pub engine_walls: Vec<Duration>,
    /// Apps produced correct simulated results under the oracle.
    pub oracle_correct: bool,
    /// Every sweep matched the first oracle sweep: correctness verdict,
    /// simulated cycles, and all six traffic categories of every run.
    pub identical: bool,
}

impl ParallelReport {
    /// Minimum oracle sweep wall.
    pub fn oracle_wall(&self) -> Duration {
        self.oracle_walls.iter().copied().min().unwrap_or_default()
    }

    /// Minimum default-engine sweep wall.
    pub fn engine_wall(&self) -> Duration {
        self.engine_walls.iter().copied().min().unwrap_or_default()
    }

    /// Suite-throughput speedup of the default engine over the oracle
    /// (minimum walls).
    pub fn speedup(&self) -> f64 {
        let w = self.engine_wall().as_secs_f64();
        if w == 0.0 {
            return 0.0;
        }
        self.oracle_wall().as_secs_f64() / w
    }

    /// The sweep proves the engines interchangeable: the oracle was
    /// correct and every sweep was bit-identical to it.
    pub fn all_correct(&self) -> bool {
        self.oracle_correct && self.identical && !self.engine_walls.is_empty()
    }
}

/// Aggregate of a whole suite sweep.
#[derive(Debug, Clone, Default)]
pub struct HostReport {
    pub scale: &'static str,
    pub runs: Vec<HostRun>,
    /// Micro-benchmark timings riding along in the same JSON.
    pub timings: Vec<Timing>,
    /// Sanitizer overhead numbers, when measured (`--check`).
    pub check: Option<CheckOverhead>,
    /// Fault-injection overhead numbers, when measured (`--faults`).
    pub faults: Option<FaultOverhead>,
    /// Static verifier/optimizer numbers, when measured (`--lint`).
    pub lint: Vec<LintRun>,
    /// Protocol-comparison matrix over swept topologies (`--geometry`).
    pub geometry: Vec<GeometryRun>,
    /// Oracle-vs-default engine A/B, when measured (`--parallel`).
    pub parallel: Option<ParallelReport>,
    /// Host wall-clock of the whole sweep (sum of per-run walls plus
    /// setup; measured around the sweep, not summed).
    pub wall: Duration,
}

impl HostReport {
    pub fn total_ops(&self) -> u64 {
        self.runs.iter().map(|r| r.engine.ops_executed).sum()
    }

    pub fn total_round_trips(&self) -> u64 {
        self.runs.iter().map(|r| r.engine.round_trips).sum()
    }

    pub fn total_messages(&self) -> u64 {
        self.runs.iter().map(|r| r.engine.messages).sum()
    }

    pub fn sim_ops_per_sec(&self) -> f64 {
        let s = self.wall.as_secs_f64();
        if s == 0.0 {
            return 0.0;
        }
        self.total_ops() as f64 / s
    }

    pub fn all_correct(&self) -> bool {
        self.runs.iter().all(|r| r.correct)
            && self.geometry.iter().all(|g| g.correct)
            && self.parallel.as_ref().is_none_or(|p| p.all_correct())
    }
}

/// Run the paper grid ([`sweep_requests`]) at `scale`: `form` turns each
/// plain cell into the request to run, or skips the cell with `None`.
/// Returns the wall time of the whole sweep and every run with its own
/// wall time, in grid order.
pub fn run_grid(
    scale: Scale,
    form: impl Fn(RunRequest) -> Option<RunRequest>,
) -> (Duration, Vec<(AppRun, Duration)>) {
    let t0 = Instant::now();
    let runs = sweep_requests(scale)
        .into_iter()
        .filter_map(form)
        .map(|req| {
            let app = app_by_name(&req.app, req.scale).expect("grid cells name suite apps");
            let start = Instant::now();
            let run = app.run_req(&req);
            (run, start.elapsed())
        })
        .collect();
    (t0.elapsed(), runs)
}

/// The grid's incoherent cells, unchanged: the only configurations the
/// sanitizer and the fault plans act on.
fn incoherent(req: RunRequest) -> Option<RunRequest> {
    (!req.config.is_coherent()).then_some(req)
}

/// Run the paper grid at `scale`, timing each run.
pub fn run_suite(scale: Scale) -> HostReport {
    let (wall, runs) = run_grid(scale, Some);
    let runs = runs
        .into_iter()
        .map(|(r, wall)| HostRun {
            app: r.name,
            config: r.config.name().to_string(),
            family: if r.config.intra().is_some() {
                "intra"
            } else {
                "inter"
            },
            correct: r.correct,
            cycles: r.stats.total_cycles,
            wall,
            engine: r.stats.engine,
        })
        .collect();
    HostReport {
        scale: scale.name(),
        runs,
        wall,
        ..HostReport::default()
    }
}

/// Repetitions of each timed sweep in the A/B overhead measurements.
/// The minimum over interleaved repetitions is reported, so one-time
/// process warm-up cannot bias whichever mode happens to run first.
pub const CHECK_REPS: usize = 3;

/// Observable signature of one suite run: correctness verdict, simulated
/// cycles, and the six traffic categories. Two engines are
/// interchangeable iff they produce equal signatures for every run.
type RunSignature = (String, String, bool, u64, TrafficLedger);

/// Sweep the grid once under an explicit engine, returning (wall,
/// signatures).
fn signature_sweep(scale: Scale, engine: Scheduler) -> (Duration, Vec<RunSignature>) {
    let (wall, runs) = run_grid(scale, |mut req| {
        req.engine = engine;
        Some(req)
    });
    let sigs = runs
        .into_iter()
        .map(|(r, _)| {
            let (cycles, traffic) = (r.stats.total_cycles, r.stats.traffic);
            (
                r.name,
                r.config.name().to_string(),
                r.correct,
                cycles,
                traffic,
            )
        })
        .collect();
    (wall, sigs)
}

/// Sweep the grid under the `Linear` oracle and the default engine,
/// interleaved oracle-first [`CHECK_REPS`] times so warm-up lands on the oracle.
/// Every sweep's signatures are compared with the first oracle sweep.
pub fn run_parallel_suite(scale: Scale) -> ParallelReport {
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut reference: Option<Vec<RunSignature>> = None;
    let mut identical = true;
    let (mut oracle_walls, mut engine_walls) = (Vec::new(), Vec::new());
    for _ in 0..CHECK_REPS {
        for (engine, walls) in [
            (Scheduler::Linear, &mut oracle_walls),
            (Scheduler::Default, &mut engine_walls),
        ] {
            let (wall, sigs) = signature_sweep(scale, engine);
            walls.push(wall);
            match &reference {
                None => reference = Some(sigs),
                Some(r) => identical &= sigs == *r,
            }
        }
    }
    ParallelReport {
        host_cores,
        oracle_walls,
        engine_walls,
        oracle_correct: reference.is_some_and(|r| r.iter().all(|s| s.2)),
        identical,
    }
}

/// Time the incoherent half of the suite three ways — clean, under the
/// canned recoverable fault plan (`FaultSpec::Recoverable`), and under
/// the corrupting + rollback-recovery plan
/// (`FaultSpec::CorruptingRecover`) — with the arms interleaved
/// [`CHECK_REPS`] times and the minimum wall per arm kept (the same
/// warm-up discipline as [`run_check_overhead`]). Both faulted sweeps
/// must stay correct: recoverable faults are absorbed by retries, and
/// corrupted dirty lines are repaired by epoch-checkpoint rollback.
pub fn run_fault_suite(scale: Scale, seed: u64) -> FaultOverhead {
    fn sweep(scale: Scale, fault: Option<FaultSpec>) -> (Duration, bool, ResilienceStats) {
        let (wall, runs) = run_grid(scale, |mut req| {
            req.fault = fault;
            incoherent(req)
        });
        let mut correct = true;
        let mut stats = ResilienceStats::default();
        for (r, _) in runs {
            correct &= r.correct;
            stats += r.stats.resilience;
        }
        (wall, correct, stats)
    }

    let mut wall_clean = Duration::MAX;
    let mut wall_faulted = Duration::MAX;
    let mut wall_recovered = Duration::MAX;
    let mut correct = true;
    let mut recover_correct = true;
    let mut stats = ResilienceStats::default();
    let mut recover_stats = ResilienceStats::default();
    for _ in 0..CHECK_REPS {
        let (clean, _, _) = sweep(scale, None);
        wall_clean = wall_clean.min(clean);
        let (faulted, c, s) = sweep(scale, Some(FaultSpec::Recoverable { seed }));
        wall_faulted = wall_faulted.min(faulted);
        correct = c;
        stats = s;
        let (recovered, rc, rs) = sweep(scale, Some(FaultSpec::CorruptingRecover { seed }));
        wall_recovered = wall_recovered.min(recovered);
        recover_correct = rc;
        recover_stats = rs;
    }
    FaultOverhead {
        seed,
        wall_clean,
        wall_faulted,
        wall_recovered,
        correct,
        recover_correct,
        stats,
        recover_stats,
    }
}

/// Statically verify + optimize every recorded app under the planned
/// inter-block configurations, then simulate each with the original and
/// the minimized plans to measure what `hic-lint` saves (`--lint`).
/// Every record must verify clean and every minimized run must still
/// match the host reference — `clean` / `correct` carry the verdicts.
pub fn run_lint_suite(scale: Scale) -> Vec<LintRun> {
    use hic_apps::App;
    let mut apps: Vec<Box<dyn App>> = inter_apps(scale);
    apps.push(Box::new(hic_apps::inter::ep::EpHier::new(scale)));
    let wbinv = |s: &hic_machine::RunStats| {
        s.counters.local_wbs
            + s.counters.global_wbs
            + s.counters.local_invs
            + s.counters.global_invs
    };
    let mut out = Vec::new();
    for app in &apps {
        for cfg in [InterConfig::Addr, InterConfig::AddrL] {
            let config = Config::Inter(cfg);
            let Some(rec) = app.record(config) else {
                continue;
            };
            let t0 = Instant::now();
            let report = hic_lint::lint(&rec);
            let verify = t0.elapsed();
            let t1 = Instant::now();
            let opt = hic_lint::optimize(&rec);
            let optimize = t1.elapsed();
            let mut req = RunRequest::new(app.name(), config, scale);
            let base = app.run_req(&req);
            req.plan_overrides = Some(opt.overrides);
            let mini = app.run_req(&req);
            out.push(LintRun {
                app: app.name().to_string(),
                config: cfg.name().to_string(),
                verify,
                optimize,
                clean: report.is_clean() && opt.reverify.is_clean() && !opt.stats.fallback,
                ops_before: opt.stats.ops_before,
                ops_after: opt.stats.ops_after,
                pruned: opt.stats.pruned,
                downgraded: opt.stats.downgraded,
                flits_before: base.stats.traffic.writeback + base.stats.traffic.invalidation,
                flits_after: mini.stats.traffic.writeback + mini.stats.traffic.invalidation,
                wbinv_before: wbinv(&base.stats),
                wbinv_after: wbinv(&mini.stats),
                correct: base.correct && mini.correct,
            });
        }
    }
    out
}

/// Time the incoherent half of the grid (the only configurations the
/// sanitizer can attach to) with checking off and in Report mode, and
/// report the host-time overhead. The checked sweep must stay clean:
/// any finding on the unmodified suite is a sanitizer bug.
///
/// Each mode is swept [`CHECK_REPS`] times, interleaved off/report, and
/// the *minimum* wall per mode is kept. A single off-then-report pass
/// measured the process's one-time warm-up (page faults, allocator
/// growth) inside the off sweep and reported a nonsensical negative
/// overhead (`overhead_pct: -39.7` in earlier reports).
pub fn run_check_overhead(scale: Scale) -> CheckOverhead {
    fn sweep(scale: Scale, check: CheckMode) -> (Duration, u64, bool) {
        let (wall, runs) = run_grid(scale, |mut req| {
            req.check = check;
            incoherent(req)
        });
        let checks = runs.iter().map(|(r, _)| r.diagnostics.checks).sum();
        let clean = runs.iter().all(|(r, _)| r.diagnostics.is_clean());
        (wall, checks, clean)
    }

    let mut wall_off = Duration::MAX;
    let mut wall_report = Duration::MAX;
    let mut checks = 0;
    let mut clean = true;
    for _ in 0..CHECK_REPS {
        let (off, _, _) = sweep(scale, CheckMode::Off);
        wall_off = wall_off.min(off);
        let (report, c, cl) = sweep(scale, CheckMode::Report);
        wall_report = wall_report.min(report);
        checks = c;
        clean = cl;
    }
    CheckOverhead {
        wall_off,
        wall_report,
        checks,
        clean,
    }
}

/// Seconds and percentages are recorded to 3 decimals (a non-finite
/// value writes `null`).
fn round3(v: f64) -> Json {
    Json::Num((v * 1000.0).round() / 1000.0)
}

fn secs(d: Duration) -> Json {
    round3(d.as_secs_f64())
}

fn nanos(d: Duration) -> Json {
    Json::uint(d.as_nanos() as u64)
}

/// Render the report (plus the baseline-comparison header) as JSON.
pub fn to_json(report: &HostReport, baseline_wall_s: Option<f64>) -> Json {
    let wall_s = report.wall.as_secs_f64();
    let speedup = baseline_wall_s.map(|b| if wall_s > 0.0 { b / wall_s } else { 0.0 });
    let check = report.check.as_ref().map_or(Json::Null, |c| {
        Json::obj([
            ("wall_s_off", secs(c.wall_off)),
            ("wall_s_report", secs(c.wall_report)),
            ("overhead_pct", round3(c.overhead_pct())),
            ("checks", Json::uint(c.checks)),
            ("clean", Json::Bool(c.clean)),
        ])
    });
    let faults = report.faults.as_ref().map_or(Json::Null, |fo| {
        Json::obj([
            ("seed", Json::uint(fo.seed)),
            ("wall_s_clean", secs(fo.wall_clean)),
            ("wall_s_faulted", secs(fo.wall_faulted)),
            ("wall_s_recovered", secs(fo.wall_recovered)),
            ("overhead_pct", round3(fo.overhead_pct())),
            ("recover_overhead_pct", round3(fo.recover_overhead_pct())),
            ("correct", Json::Bool(fo.correct)),
            ("recover_correct", Json::Bool(fo.recover_correct)),
            ("retries", Json::uint(fo.stats.retries)),
            ("retry_flits", Json::uint(fo.stats.retry_flits)),
            ("retry_cycles", Json::uint(fo.stats.retry_cycles)),
            ("bit_flips", Json::uint(fo.stats.bit_flips)),
            ("flips_recovered", Json::uint(fo.stats.flips_recovered)),
            ("recovery_flits", Json::uint(fo.stats.recovery_flits)),
            ("delayed_acks", Json::uint(fo.stats.delayed_acks)),
            ("ack_delay_cycles", Json::uint(fo.stats.ack_delay_cycles)),
            ("rollbacks", Json::uint(fo.recover_stats.rollbacks)),
            (
                "rollback_cycles",
                Json::uint(fo.recover_stats.rollback_cycles),
            ),
            (
                "checkpoint_words",
                Json::uint(fo.recover_stats.checkpoint_words),
            ),
        ])
    });
    let parallel = report.parallel.as_ref().map_or(Json::Null, |p| {
        let walls = |ws: &[Duration]| Json::Arr(ws.iter().copied().map(secs).collect());
        Json::obj([
            ("host_cores", Json::uint(p.host_cores as u64)),
            ("reps", Json::uint(p.engine_walls.len() as u64)),
            ("oracle_wall_s", secs(p.oracle_wall())),
            ("engine_wall_s", secs(p.engine_wall())),
            ("speedup", round3(p.speedup())),
            ("oracle_walls_s", walls(&p.oracle_walls)),
            ("engine_walls_s", walls(&p.engine_walls)),
            ("oracle_correct", Json::Bool(p.oracle_correct)),
            ("identical", Json::Bool(p.identical)),
            ("all_correct", Json::Bool(p.all_correct())),
        ])
    });
    let lint = report.lint.iter().map(|l| {
        Json::obj([
            ("app", Json::str(&l.app)),
            ("config", Json::str(&l.config)),
            ("clean", Json::Bool(l.clean)),
            ("correct", Json::Bool(l.correct)),
            ("verify_ns", nanos(l.verify)),
            ("optimize_ns", nanos(l.optimize)),
            ("ops_before", Json::uint(l.ops_before as u64)),
            ("ops_after", Json::uint(l.ops_after as u64)),
            ("pruned", Json::uint(l.pruned as u64)),
            ("downgraded", Json::uint(l.downgraded as u64)),
            ("wbinv_flits_before", Json::uint(l.flits_before)),
            ("wbinv_flits_after", Json::uint(l.flits_after)),
            ("flit_savings_pct", round3(l.flit_savings_pct())),
            ("wbinv_ops_before", Json::uint(l.wbinv_before)),
            ("wbinv_ops_after", Json::uint(l.wbinv_after)),
        ])
    });
    let geometry = report.geometry.iter().map(|g| {
        let t = &g.traffic;
        Json::obj([
            ("shape", Json::str(&g.shape)),
            ("blocks", Json::uint(g.blocks as u64)),
            ("cores_per_block", Json::uint(g.cores_per_block as u64)),
            ("l2_banks", Json::uint(g.l2_banks as u64)),
            ("scheme", Json::str(&g.scheme)),
            ("app", Json::str(&g.app)),
            ("correct", Json::Bool(g.correct)),
            ("cycles", Json::uint(g.cycles)),
            (
                "traffic",
                Json::obj([
                    ("linefill", Json::uint(t.linefill)),
                    ("writeback", Json::uint(t.writeback)),
                    ("invalidation", Json::uint(t.invalidation)),
                    ("memory", Json::uint(t.memory)),
                    ("l2l3", Json::uint(t.l2l3)),
                    ("sync", Json::uint(t.sync)),
                ]),
            ),
            ("wall_s", secs(g.wall)),
        ])
    });
    let runs = report.runs.iter().map(|r| {
        let e = &r.engine;
        Json::obj([
            ("app", Json::str(&r.app)),
            ("config", Json::str(&r.config)),
            ("family", Json::str(r.family)),
            ("correct", Json::Bool(r.correct)),
            ("cycles", Json::uint(r.cycles)),
            ("wall_s", secs(r.wall)),
            ("sim_ops_per_sec", round3(r.sim_ops_per_sec())),
            (
                "engine",
                Json::obj([
                    ("ops_executed", Json::uint(e.ops_executed)),
                    ("messages", Json::uint(e.messages)),
                    ("batches", Json::uint(e.batches)),
                    ("round_trips", Json::uint(e.round_trips)),
                    ("wakeups", Json::uint(e.wakeups)),
                    ("peak_parked", Json::uint(e.peak_parked)),
                    ("shard_local_ops", Json::uint(e.shard_local_ops)),
                    ("lock_waits", Json::uint(e.lock_waits)),
                ]),
            ),
        ])
    });
    let bench = report.timings.iter().map(|t| {
        Json::obj([
            ("name", Json::str(&t.name)),
            ("iters", Json::uint(t.iters)),
            ("total_ns", nanos(t.total)),
            ("mean_ns", nanos(t.mean())),
        ])
    });
    Json::obj([
        ("schema", Json::uint(1)),
        ("scale", Json::str(report.scale)),
        ("wall_s", round3(wall_s)),
        (
            "baseline_wall_s",
            baseline_wall_s.map_or(Json::Null, round3),
        ),
        ("speedup_vs_baseline", speedup.map_or(Json::Null, round3)),
        ("all_correct", Json::Bool(report.all_correct())),
        ("sim_ops", Json::uint(report.total_ops())),
        ("sim_ops_per_sec", round3(report.sim_ops_per_sec())),
        (
            "engine",
            Json::obj([
                ("messages", Json::uint(report.total_messages())),
                ("round_trips", Json::uint(report.total_round_trips())),
            ]),
        ),
        ("check", check),
        ("faults", faults),
        ("parallel", parallel),
        ("lint", Json::Arr(lint.collect())),
        ("geometry", Json::Arr(geometry.collect())),
        ("runs", Json::Arr(runs.collect())),
        ("bench", Json::Arr(bench.collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> HostReport {
        HostReport {
            scale: "test",
            runs: vec![HostRun {
                app: "FFT".into(),
                config: "B+M+I".into(),
                family: "intra",
                correct: true,
                cycles: 1234,
                wall: Duration::from_millis(10),
                engine: EngineStats {
                    ops_executed: 1000,
                    messages: 100,
                    batches: 10,
                    round_trips: 50,
                    wakeups: 3,
                    peak_parked: 2,
                    ..EngineStats::default()
                },
            }],
            timings: vec![Timing {
                name: "micro".into(),
                iters: 7,
                total: Duration::from_nanos(700),
            }],
            check: Some(CheckOverhead {
                wall_off: Duration::from_millis(100),
                wall_report: Duration::from_millis(110),
                checks: 4242,
                clean: true,
            }),
            faults: Some(FaultOverhead {
                seed: 2026,
                wall_clean: Duration::from_millis(100),
                wall_faulted: Duration::from_millis(105),
                wall_recovered: Duration::from_millis(112),
                correct: true,
                recover_correct: true,
                stats: ResilienceStats {
                    retries: 12,
                    retry_flits: 108,
                    bit_flips: 5,
                    flips_recovered: 5,
                    recovery_flits: 85,
                    delayed_acks: 9,
                    ..ResilienceStats::default()
                },
                recover_stats: ResilienceStats {
                    rollbacks: 4,
                    rollback_cycles: 260,
                    checkpoint_words: 512,
                    ..ResilienceStats::default()
                },
            }),
            lint: vec![LintRun {
                app: "CG".into(),
                config: "Addr+L".into(),
                verify: Duration::from_micros(120),
                optimize: Duration::from_micros(480),
                clean: true,
                ops_before: 728,
                ops_after: 419,
                pruned: 309,
                downgraded: 21,
                flits_before: 1000,
                flits_after: 900,
                wbinv_before: 600,
                wbinv_after: 400,
                correct: true,
            }],
            parallel: Some(ParallelReport {
                host_cores: 8,
                oracle_walls: vec![Duration::from_millis(450), Duration::from_millis(400)],
                engine_walls: vec![Duration::from_millis(120), Duration::from_millis(100)],
                oracle_correct: true,
                identical: true,
            }),
            geometry: vec![GeometryRun {
                shape: "2x4x4".into(),
                blocks: 2,
                cores_per_block: 4,
                l2_banks: 4,
                scheme: "Dragon".into(),
                app: "Jacobi".into(),
                correct: true,
                cycles: 4321,
                traffic: TrafficLedger {
                    linefill: 11,
                    writeback: 22,
                    invalidation: 33,
                    memory: 44,
                    l2l3: 55,
                    sync: 66,
                },
                wall: Duration::from_millis(2),
            }],
            wall: Duration::from_millis(10),
        }
    }

    /// The rendered document, parsed back.
    fn doc(r: &HostReport, baseline_wall_s: Option<f64>) -> Json {
        Json::parse(&to_json(r, baseline_wall_s).to_string()).unwrap()
    }

    /// The value at a dotted `path`; numeric segments index arrays.
    fn at<'a>(j: &'a Json, path: &str) -> &'a Json {
        path.split('.')
            .fold(j, |j, key| match key.parse::<usize>() {
                Ok(i) => &j.as_arr().unwrap()[i],
                Err(_) => j.get(key).unwrap_or_else(|| panic!("no {key:?} in {path}")),
            })
    }

    fn num(j: &Json, path: &str) -> f64 {
        at(j, path).as_f64().unwrap()
    }

    #[test]
    fn json_contains_baseline_and_speedup() {
        let j = doc(&sample_report(), Some(0.02));
        assert_eq!(num(&j, "baseline_wall_s"), 0.02);
        assert_eq!(num(&j, "speedup_vs_baseline"), 2.0);
        assert_eq!(num(&j, "sim_ops"), 1000.0);
        assert_eq!(num(&j, "bench.0.iters"), 7.0);
        assert_eq!(num(&j, "bench.0.total_ns"), 700.0);
        assert_eq!(num(&j, "engine.round_trips"), 50.0);
        assert_eq!(num(&j, "check.checks"), 4242.0);
        assert_eq!(num(&j, "check.overhead_pct"), 10.0);
    }

    #[test]
    fn json_without_optional_sweeps_is_null() {
        let mut r = sample_report();
        r.check = None;
        r.faults = None;
        r.parallel = None;
        let j = doc(&r, None);
        for key in [
            "baseline_wall_s",
            "speedup_vs_baseline",
            "check",
            "faults",
            "parallel",
        ] {
            assert_eq!(at(&j, key), &Json::Null, "{key}");
        }
    }

    #[test]
    fn json_carries_the_fault_sweep() {
        let j = doc(&sample_report(), None);
        for (path, want) in [
            ("faults.seed", 2026.0),
            ("faults.retries", 12.0),
            ("faults.flips_recovered", 5.0),
            ("faults.recovery_flits", 85.0),
            ("faults.overhead_pct", 5.0),
            ("faults.wall_s_recovered", 0.112),
            ("faults.recover_overhead_pct", 12.0),
            ("faults.rollbacks", 4.0),
            ("faults.rollback_cycles", 260.0),
            ("faults.checkpoint_words", 512.0),
        ] {
            assert_eq!(num(&j, path), want, "{path}");
        }
        assert_eq!(at(&j, "faults.recover_correct"), &Json::Bool(true));
    }

    #[test]
    fn json_carries_the_lint_sweep() {
        let j = doc(&sample_report(), None);
        assert_eq!(num(&j, "lint.0.ops_before"), 728.0);
        assert_eq!(num(&j, "lint.0.pruned"), 309.0);
        assert_eq!(num(&j, "lint.0.downgraded"), 21.0);
        assert_eq!(num(&j, "lint.0.flit_savings_pct"), 10.0);
        assert_eq!(num(&j, "lint.0.wbinv_ops_after"), 400.0);
        assert_eq!(num(&j, "lint.0.verify_ns"), 120_000.0);
    }

    #[test]
    fn json_carries_the_parallel_sweep() {
        let j = doc(&sample_report(), None);
        assert_eq!(num(&j, "parallel.host_cores"), 8.0);
        assert_eq!(num(&j, "parallel.reps"), 2.0);
        assert_eq!(num(&j, "parallel.oracle_wall_s"), 0.4);
        assert_eq!(num(&j, "parallel.engine_wall_s"), 0.1);
        assert_eq!(num(&j, "parallel.speedup"), 4.0);
        assert_eq!(num(&j, "parallel.oracle_walls_s.0"), 0.45);
        assert_eq!(num(&j, "parallel.engine_walls_s.1"), 0.1);
        assert_eq!(at(&j, "parallel.identical"), &Json::Bool(true));
    }

    #[test]
    fn nonidentical_parallel_sweep_fails_the_report() {
        let mut r = sample_report();
        assert!(r.all_correct());
        r.parallel.as_mut().unwrap().identical = false;
        assert!(!r.all_correct());
    }

    #[test]
    fn json_carries_the_engine_counters() {
        let mut r = sample_report();
        r.runs[0].engine = EngineStats {
            ops_executed: 10,
            shard_local_ops: 7,
            lock_waits: 1,
            ..EngineStats::default()
        };
        let j = doc(&r, None);
        assert_eq!(num(&j, "runs.0.engine.shard_local_ops"), 7.0);
        assert_eq!(num(&j, "runs.0.engine.lock_waits"), 1.0);
    }

    #[test]
    fn json_carries_the_geometry_matrix() {
        let j = doc(&sample_report(), None);
        assert_eq!(at(&j, "geometry.0.shape").as_str(), Some("2x4x4"));
        assert_eq!(at(&j, "geometry.0.scheme").as_str(), Some("Dragon"));
        assert_eq!(num(&j, "geometry.0.cycles"), 4321.0);
        assert_eq!(num(&j, "geometry.0.traffic.invalidation"), 33.0);
        assert_eq!(num(&j, "geometry.0.traffic.l2l3"), 55.0);
    }

    #[test]
    fn incorrect_geometry_run_fails_the_report() {
        let mut r = sample_report();
        assert!(r.all_correct());
        r.geometry[0].correct = false;
        assert!(!r.all_correct());
    }

    #[test]
    fn geometry_grid_spans_2x2_to_8x8_and_anchors_the_paper_shape() {
        let grid = geometry_grid();
        let labels: Vec<_> = grid.iter().map(|t| t.shape_label()).collect();
        assert_eq!(labels, vec!["2x2", "2x4", "4x4", "4x8", "8x8"]);
        assert!(grid.iter().all(|t| t.is_hierarchical()));
        assert!(grid.iter().all(|t| t.l2_banks_per_block() <= 4));
    }

    #[test]
    fn flit_savings_pct_handles_zero_traffic() {
        let mut l = sample_report().lint[0].clone();
        l.flits_before = 0;
        assert_eq!(l.flit_savings_pct(), 0.0);
    }

    #[test]
    fn ops_per_sec_math() {
        let r = sample_report();
        assert!((r.sim_ops_per_sec() - 100_000.0).abs() < 1.0);
        assert!((r.runs[0].sim_ops_per_sec() - 100_000.0).abs() < 1.0);
    }

    #[test]
    fn string_fields_round_trip() {
        let mut r = sample_report();
        r.runs[0].app = "a\"b\\c\nd".into();
        assert_eq!(
            at(&doc(&r, None), "runs.0.app").as_str(),
            Some("a\"b\\c\nd")
        );
    }
}
