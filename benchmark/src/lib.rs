//! `hic-benchmark`: the repository's benchmark.
//!
//! Four workloads drive the simulator from outside, through each layer's
//! public functions only:
//!
//! * `figures` — the paper's 71 (application × configuration) cells,
//!   one closed-loop client;
//! * `checked` — the 56 incoherent cells under the sanitizer and a
//!   recoverable fault plan;
//! * `serve` — an in-process `hic-serve` server under an open-loop job
//!   stream, then the same jobs as one burst;
//! * `fuzz` — a `hic-fuzz` differential campaign.
//!
//! A run sets its workload up several times (set-up time is a metric),
//! then times one round of the workload: a fixed amount of work, sized to
//! take about `run_seconds` on the reference host. A traced run instead
//! measures one untraced and one traced round, then the layer probes, and
//! reports the per-layer metrics. See README.md.

pub mod compare;
mod fuzz;
mod grid;
mod probes;
mod procfs;
mod serve;
mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::time::Instant;

use hic_runtime::Scale;
use hic_serve::Json;

use crate::procfs::CpuTimes;
use crate::trace::Tracer;

/// A metric's name and unit, as declared in `BENCHMARK.json`.
pub type MetricDef = (&'static str, &'static str);

/// What a user of the simulator sees. Every workload reports each one.
pub const END_TO_END: &[MetricDef] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("unit_iqm_ms", "ms"),
];

/// Single-layer metrics of a traced run. A layer a workload never calls
/// reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    ("sim_cycles", "cycles"),
    ("sim_flits", "flits"),
    ("host.peak_rss_mb", "MiB"),
    ("unit.samples", "count"),
    ("unit.p50_ms", "ms"),
    ("unit.tail_ms", "ms"),
    ("unit.tail_pct", "%"),
    ("runtime.ops", "count"),
    ("runtime.round_trips", "count"),
    ("runtime.round_trips_per_op", "fraction"),
    ("runtime.messages", "count"),
    ("runtime.batches", "count"),
    ("runtime.wakeups", "count"),
    ("runtime.shard_local_ops", "count"),
    ("runtime.lock_waits", "count"),
    ("runtime.ns_per_op", "ns"),
    ("runtime.mops_per_s", "Mops/s"),
    ("runtime.sys_frac", "fraction"),
    ("runtime.cores_busy", "cores"),
    ("runtime.empty_run_ms.intra16", "ms"),
    ("runtime.empty_run_ms.inter32", "ms"),
    ("machine.build_ms.intra16", "ms"),
    ("machine.build_ms.inter32", "ms"),
    ("machine.ns_per_op.incoherent", "ns"),
    ("machine.ns_per_op.mesi", "ns"),
    ("machine.ns_per_op.dragon", "ns"),
    ("machine.stall_frac.inv", "fraction"),
    ("machine.stall_frac.wb", "fraction"),
    ("machine.stall_frac.lock", "fraction"),
    ("machine.stall_frac.barrier", "fraction"),
    ("noc.flits.linefill", "flits"),
    ("noc.flits.writeback", "flits"),
    ("noc.flits.invalidation", "flits"),
    ("noc.flits.memory", "flits"),
    ("noc.flits.l2l3", "flits"),
    ("noc.flits.sync", "flits"),
    ("core.wb_local", "count"),
    ("core.wb_global", "count"),
    ("core.inv_local", "count"),
    ("core.inv_global", "count"),
    ("core.meb_drains", "count"),
    ("core.meb_overflows", "count"),
    ("core.ieb_refreshes", "count"),
    ("mem.lines_written_back", "count"),
    ("mem.lines_invalidated", "count"),
    ("mem.checkpoint_words", "count"),
    ("check.word_checks", "count"),
    ("check.findings", "count"),
    ("fault.retries", "count"),
    ("fault.retry_flits", "flits"),
    ("fault.bit_flips", "count"),
    ("fault.flips_recovered", "count"),
    ("fault.delayed_acks", "count"),
    ("fault.rollbacks", "count"),
    ("fault.rollback_cycles", "cycles"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_tail_ms", "ms"),
    ("serve.run_p50_ms", "ms"),
    ("serve.run_tail_ms", "ms"),
    ("serve.cache_hit_ratio", "fraction"),
    ("serve.submit_p50_us", "us"),
    ("serve.retried_jobs", "count"),
    ("serve.gen_lag_max_ms", "ms"),
    ("serve.sat_jobs_per_s", "jobs/s"),
    ("lint.verify_ms", "ms"),
    ("lint.optimize_ms", "ms"),
    ("lint.plan_ops_before", "count"),
    ("lint.plan_ops_after", "count"),
    ("fuzz.verdict.clean", "count"),
    ("fuzz.verdict.findings", "count"),
    ("fuzz.verdict.precision", "count"),
    ("fuzz.verdict.violation", "count"),
    ("fuzz.recovery_audits", "count"),
    ("self_s.bench.round", "s"),
    ("self_s.bench.probes", "s"),
    ("self_s.runtime.run", "s"),
    ("self_s.runtime.empty_run", "s"),
    ("self_s.machine.build", "s"),
    ("self_s.machine.execute", "s"),
    ("self_s.serve.submit", "s"),
    ("self_s.serve.poll", "s"),
    ("self_s.serve.idle", "s"),
    ("self_s.fuzz.campaign", "s"),
    ("self_s.lint.lint", "s"),
    ("self_s.lint.optimize", "s"),
    ("trace.overhead_frac", "fraction"),
];

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Figures,
    Checked,
    Serve,
    Fuzz,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Figures,
        Workload::Checked,
        Workload::Serve,
        Workload::Fuzz,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Figures => "figures",
            Workload::Checked => "checked",
            Workload::Serve => "serve",
            Workload::Fuzz => "fuzz",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// How much work one round of each workload does.
#[derive(Debug, Clone, Copy)]
struct Sizes {
    /// Input scale of the `figures` and `checked` cells.
    grid_scale: Scale,
    /// Run only the first this-many cells of the shuffled grid.
    grid_cells: usize,
    /// Keep only the first this-many jobs of the shuffled `serve` stream.
    serve_jobs: usize,
    /// Cases of the `fuzz` campaign.
    fuzz_cases: usize,
}

impl Sizes {
    /// What the benchmark measures.
    const STANDARD: Sizes = Sizes {
        grid_scale: Scale::Small,
        grid_cells: usize::MAX,
        serve_jobs: usize::MAX,
        fuzz_cases: 600,
    };

    /// A few seconds of everything, for the tests.
    const REDUCED: Sizes = Sizes {
        grid_scale: Scale::Test,
        grid_cells: 10,
        serve_jobs: 24,
        fuzz_cases: 4,
    };
}

/// One benchmark run.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub trace: bool,
    /// Run every workload at a small fraction of its size (for tests).
    pub reduced: bool,
}

/// Per-layer names of the six traffic categories, in the order of
/// `hic_serve::JobOutcome::traffic`.
const FLIT_KEYS: [&str; 6] = [
    "noc.flits.linefill",
    "noc.flits.writeback",
    "noc.flits.invalidation",
    "noc.flits.memory",
    "noc.flits.l2l3",
    "noc.flits.sync",
];

/// What one round of a workload measured.
#[derive(Debug, Clone, Default)]
struct Round {
    /// The workload's `wall_s`: the closed loops' round time, or the
    /// burst-phase drain time of `serve`.
    pub wall_s: f64,
    /// Host time of the whole round.
    pub elapsed_s: f64,
    pub cpu: CpuTimes,
    /// Latency of each timed unit (cell, open-loop job, case chunk).
    pub unit_ms: Vec<f64>,
    /// Per-layer values measured by the workload itself.
    pub layer: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    /// One line per failed unit.
    pub failures: Vec<String>,
}

/// A workload, set up and ready to run a round.
trait Bench {
    /// Run one round; every span it records nests under the caller's.
    fn round(&mut self, tracer: &Tracer) -> Round;
    /// Failures of the untimed warm-up units run during set-up.
    fn warmup_failures(&self) -> Vec<String>;
}

/// Build a workload's inputs from the seed, start what it needs and run
/// its warm-up units.
fn setup(workload: Workload, seed: u64, sizes: Sizes) -> Box<dyn Bench> {
    match workload {
        Workload::Figures => Box::new(grid::Grid::setup(false, seed, sizes)),
        Workload::Checked => Box::new(grid::Grid::setup(true, seed, sizes)),
        Workload::Serve => Box::new(serve::ServeBench::setup(seed, sizes)),
        Workload::Fuzz => Box::new(fuzz::FuzzBench::setup(seed, sizes)),
    }
}

/// The result of one run: the JSON line the benchmark prints last.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub attempted: u64,
    pub failures: Vec<String>,
    /// In declaration order: [`END_TO_END`] untraced, [`PER_LAYER`]
    /// traced.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// The traced run's spans (empty untraced).
    pub spans: Vec<trace::Span>,
    /// Host time of the timed phase: the round, or when traced the
    /// traced round plus the probes.
    pub timed_s: f64,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    fn absorb(&mut self, round: &Round) {
        self.attempted += round.attempted;
        self.failures.extend(round.failures.iter().cloned());
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, v, _)| *v)
    }

    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.to_string(),
                    Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
                )
            })
            .collect();
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::uint(self.attempted)),
            ("failed", Json::uint(self.failures.len() as u64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

/// Run one workload per `opts`.
pub fn run(opts: &Opts) -> Outcome {
    let sizes = if opts.reduced {
        Sizes::REDUCED
    } else {
        Sizes::STANDARD
    };
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut bench = None;
    for _ in 0..SETUP_REPS {
        // Tear the previous set-up down first, outside the timing.
        drop(bench.take());
        let t = Instant::now();
        bench = Some(setup(opts.workload, opts.seed, sizes));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("SETUP_REPS > 0");
    let mut outcome = Outcome {
        attempted: 1,
        failures: bench.warmup_failures(),
        metrics: Vec::new(),
        spans: Vec::new(),
        timed_s: 0.0,
    };

    let untraced = Tracer::new(false);
    if !opts.trace {
        let round = bench.round(&untraced);
        outcome.timed_s = round.elapsed_s;
        outcome.absorb(&round);
        let values = [
            stats::median(&setup_s).expect("SETUP_REPS > 0"),
            round.wall_s,
            round.cpu.total(),
            stats::interquartile_mean(&round.unit_ms).unwrap_or(0.0),
        ];
        outcome.metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n, v, u))
            .collect();
        return outcome;
    }

    // Traced: one untraced round as the overhead reference, then the
    // traced round and the probes.
    let plain = bench.round(&untraced);
    let tracer = Tracer::new(true);
    let t = Instant::now();
    let traced = tracer.span("bench.round", 0, || bench.round(&tracer));
    let probe_values = tracer.span("bench.probes", 0, || probes::run(&tracer, opts.seed));
    outcome.timed_s = t.elapsed().as_secs_f64();
    outcome.absorb(&plain);
    outcome.absorb(&traced);

    let spans = tracer.spans();
    let mut layer = traced.layer.clone();
    layer.extend(probe_values);
    let sorted_units = stats::sorted(&traced.unit_ms);
    let (tail_pct, tail_ms) = stats::tail(&sorted_units).unwrap_or((50, 0.0));
    layer.insert("host.peak_rss_mb", procfs::peak_rss_mib());
    layer.insert("unit.samples", traced.unit_ms.len() as f64);
    layer.insert("unit.p50_ms", stats::median(&traced.unit_ms).unwrap_or(0.0));
    layer.insert("unit.tail_ms", tail_ms);
    layer.insert("unit.tail_pct", tail_pct as f64);
    let cpu = traced.cpu.total();
    layer.insert(
        "runtime.sys_frac",
        if cpu > 0.0 {
            traced.cpu.sys_s / cpu
        } else {
            0.0
        },
    );
    layer.insert("runtime.cores_busy", cpu / traced.elapsed_s);
    for (name, secs) in trace::self_times(&spans) {
        let key = PER_LAYER
            .iter()
            .map(|(n, _)| *n)
            .find(|n| n.strip_prefix("self_s.") == Some(name))
            .unwrap_or_else(|| panic!("span {name} has no declared self_s metric"));
        layer.insert(key, secs);
    }
    layer.insert("trace.overhead_frac", traced.wall_s / plain.wall_s - 1.0);

    for key in layer.keys() {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == key),
            "undeclared per-layer metric {key}"
        );
    }
    outcome.metrics = PER_LAYER
        .iter()
        .map(|&(n, u)| (n, layer.get(n).copied().unwrap_or(0.0), u))
        .collect();
    outcome.spans = spans;
    outcome
}

/// Sum `v` into `map[key]`.
fn add(map: &mut BTreeMap<&'static str, f64>, key: &'static str, v: f64) {
    *map.entry(key).or_insert(0.0) += v;
}
