//! `RunRequest` — the one canonical description of a simulation run.
//!
//! [`RunRequest`] holds everything that configures a run: app name,
//! scheme + topology, input scale, sanitizer mode, fault plan, engine
//! choice, watchdogs, and plan overrides, in one serializable value.
//! Because nothing else configures a run, identical runs are
//! recognizable (a result cache keys on the request) and concurrent runs
//! are isolated (no process-wide state leaks into them). Everything that
//! starts an application run — `App::run_req`, the `hic-serve` sweep
//! server, the bench frontends, tests — builds one of these:
//!
//! * [`RunRequest::new`] for explicit construction;
//! * [`RunRequest::from_env`] for the environment knobs (`HIC_CHECK`,
//!   `HIC_FAULTS`, `HIC_RECOVER`, `HIC_ENGINE`), the only place in the
//!   workspace that reads them, with typed [`RequestError`]s for
//!   malformed values;
//! * [`RunRequest::parse_key`] to rebuild a request from its canonical
//!   serialized form.
//!
//! [`RunRequest::cache_key`] is the canonical serialization: a compact,
//! versioned, single-line string that is a pure function of every field
//! that can influence the simulated result. Two requests produce the
//! same key iff they describe the same run, so `hic-serve`'s result
//! cache gets exact hits by construction.

use hic_check::CheckMode;
use hic_machine::FaultPlan;
use hic_mem::Region;
use hic_sim::{ThreadId, Topology, TopologyBuilder};

use crate::config::{Config, Scheme};
use crate::engine::Scheduler;
use crate::plan::{CommOp, EpochPlan, PlanOverrides};

/// Input-size class of an application run.
///
/// `Test` through `Paper` in increasing size: `Test` is sub-second
/// (unit/integration tests), `Small` is the default figure-harness size,
/// `Medium`/`Large` are the sweep-server sizes between the harness and
/// the paper's inputs (ROADMAP item 2's `--scale medium`/`large`), and
/// `Paper` is the paper-sized input (64K-point FFT, 512x512 LU, ... —
/// minutes per run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Scale {
    /// Tiny inputs for unit/integration tests (sub-second per run).
    Test,
    /// The default figure-harness inputs (seconds per run).
    Small,
    /// Between `Small` and `Large`: sweep-sized inputs that keep a full
    /// app x config cross-product tractable on one host.
    Medium,
    /// Between `Medium` and `Paper`: the largest sweep-server size.
    Large,
    /// Paper-sized inputs (64K-point FFT, 512x512 LU, ... — minutes).
    Paper,
}

impl Scale {
    /// Every scale, smallest first.
    pub const ALL: [Scale; 5] = [
        Scale::Test,
        Scale::Small,
        Scale::Medium,
        Scale::Large,
        Scale::Paper,
    ];

    /// The canonical lower-case name (`"test"`, `"small"`, ...).
    pub fn name(self) -> &'static str {
        match self {
            Scale::Test => "test",
            Scale::Small => "small",
            Scale::Medium => "medium",
            Scale::Large => "large",
            Scale::Paper => "paper",
        }
    }

    /// Parse a scale name (the `--scale` argument convention).
    pub fn parse(s: &str) -> Option<Scale> {
        Scale::ALL.iter().copied().find(|v| v.name() == s.trim())
    }
}

impl std::fmt::Display for Scale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Which seeded [`FaultPlan`] flavor a request runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSpec {
    /// [`FaultPlan::from_seed`]: timing faults plus clean-line bit
    /// flips; every fault recoverable, results must stay bit-identical.
    Recoverable { seed: u64 },
    /// A plan that also flips bits in *dirty* lines
    /// ([`FaultPlan::corrupting`]): the only copy of the data is
    /// destroyed, so the run fails with a typed
    /// `RunError::CorruptDirtyLine`. Used to poison jobs deliberately
    /// when testing the sweep server's per-job failure isolation.
    Corrupting { seed: u64 },
    /// Dirty-line flips with epoch-checkpoint rollback recovery
    /// ([`FaultPlan::corrupting_recoverable`]): corruption is repaired
    /// by restore + replay, so the run must complete bit-identical and
    /// chargeable rollbacks appear in `ResilienceStats`. This is what
    /// `HIC_RECOVER=1` upgrades `HIC_FAULTS` to.
    CorruptingRecover { seed: u64 },
}

impl FaultSpec {
    /// The concrete plan this spec names.
    pub fn plan(self) -> FaultPlan {
        match self {
            FaultSpec::Recoverable { seed } => FaultPlan::from_seed(seed),
            FaultSpec::Corrupting { seed } => FaultPlan::corrupting(seed),
            FaultSpec::CorruptingRecover { seed } => FaultPlan::corrupting_recoverable(seed),
        }
    }

    fn key(self) -> String {
        match self {
            FaultSpec::Recoverable { seed } => format!("r{seed}"),
            FaultSpec::Corrupting { seed } => format!("c{seed}"),
            FaultSpec::CorruptingRecover { seed } => format!("cr{seed}"),
        }
    }

    fn parse(s: &str) -> Option<FaultSpec> {
        // "cr<seed>" first: its single-letter parse ("c" + "r<seed>")
        // fails on the seed, but order still matters for clarity.
        if let Some(rest) = s.strip_prefix("cr") {
            let seed = rest.parse::<u64>().ok()?;
            return Some(FaultSpec::CorruptingRecover { seed });
        }
        let seed = s.get(1..)?.parse::<u64>().ok()?;
        match s.as_bytes().first()? {
            b'r' => Some(FaultSpec::Recoverable { seed }),
            b'c' => Some(FaultSpec::Corrupting { seed }),
            _ => None,
        }
    }
}

/// Why a [`RunRequest`] could not be built or parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// An environment knob holds a value its parser rejects.
    BadEnv {
        var: &'static str,
        value: String,
        expected: &'static str,
    },
    /// A serialized request names an unknown field value.
    BadKey { field: &'static str, detail: String },
    /// The scheme/topology pair the request describes is invalid.
    Config(hic_sim::ConfigError),
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::BadEnv {
                var,
                value,
                expected,
            } => {
                write!(f, "bad {var}={value:?} (expected {expected})")
            }
            RequestError::BadKey { field, detail } => {
                write!(f, "bad run-request key: {field}: {detail}")
            }
            RequestError::Config(e) => write!(f, "invalid configuration in run request: {e}"),
        }
    }
}

impl std::error::Error for RequestError {}

impl From<hic_sim::ConfigError> for RequestError {
    fn from(e: hic_sim::ConfigError) -> RequestError {
        RequestError::Config(e)
    }
}

/// The canonical, cache-keyable description of one simulation run.
///
/// See the [module docs](crate::request) for why this exists. Every
/// field that can change the simulated result is part of
/// [`RunRequest::cache_key`]; the watchdogs are serialized too so a
/// resubmitted job is recognized verbatim, but they cannot change a
/// *successful* run's results.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRequest {
    /// Application name, as `App::name` reports it (`"FFT"`, `"Jacobi"`).
    pub app: String,
    /// Coherence-management scheme + machine topology.
    pub config: Config,
    /// Input-size class.
    pub scale: Scale,
    /// Incoherence-sanitizer mode (subsumes `HIC_CHECK`).
    pub check: CheckMode,
    /// Seeded fault plan, if any (subsumes `HIC_FAULTS`).
    pub fault: Option<FaultSpec>,
    /// Engine choice (subsumes `HIC_ENGINE`).
    pub engine: Scheduler,
    /// Plan substitutions from a static optimizer (`hic-lint`),
    /// installed at matching call sites (subsumes `App::run_with`).
    pub plan_overrides: Option<PlanOverrides>,
    /// Fail with `RunError::Hang` past this simulated-cycle budget.
    pub watchdog_cycles: Option<u64>,
    /// Fail with `RunError::Hang` past this host wall-clock budget.
    pub watchdog_wall_ms: Option<u64>,
}

impl RunRequest {
    /// A plain request: no sanitizer, no faults, default engine, no
    /// overrides, no watchdogs. Never consults the environment.
    pub fn new(app: &str, config: Config, scale: Scale) -> RunRequest {
        RunRequest {
            app: app.to_string(),
            config,
            scale,
            check: CheckMode::Off,
            fault: None,
            engine: Scheduler::Default,
            plan_overrides: None,
            watchdog_cycles: None,
            watchdog_wall_ms: None,
        }
    }

    /// A request whose check mode, fault seed, and engine come from
    /// `HIC_CHECK`, `HIC_FAULTS`, and `HIC_ENGINE` — the only reader of
    /// those variables, so a knob reaches exactly the runs built here.
    /// Malformed values are typed errors. `HIC_RECOVER=1` upgrades the
    /// `HIC_FAULTS` seed from the canned recoverable plan to the
    /// corrupting-with-rollback plan: dirty-line flips land too, repaired
    /// by epoch-checkpoint restore + replay.
    pub fn from_env(app: &str, config: Config, scale: Scale) -> Result<RunRequest, RequestError> {
        let mut req = RunRequest::new(app, config, scale);
        if let Some(mode) = env::check_mode()? {
            req.check = mode;
        }
        let recover = env::recover()?;
        req.fault = env::fault_seed()?.map(|seed| {
            if recover {
                FaultSpec::CorruptingRecover { seed }
            } else {
                FaultSpec::Recoverable { seed }
            }
        });
        req.engine = env::engine()?.unwrap_or_default();
        Ok(req)
    }

    /// The configuration (scheme + topology) this request runs under.
    pub fn config(&self) -> Config {
        self.config
    }

    /// The concrete fault plan, if the request carries one.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.fault.map(FaultSpec::plan)
    }

    /// The canonical serialized form: a compact, versioned, single-line
    /// string that is a pure function of every request field.
    /// [`RunRequest::parse_key`] inverts it exactly, and two requests
    /// compare equal iff their keys compare equal — which is what makes
    /// it a sound result-cache key.
    pub fn cache_key(&self) -> String {
        let topo = self.config.topology();
        let (mc, mr) = topo.mesh_dims();
        let l3 = match topo.l3() {
            Some(l3) => format!(
                "{}x{}x{}x{}",
                l3.banks, l3.geometry.size_bytes, l3.geometry.ways, l3.rt
            ),
            None => "-".to_string(),
        };
        let opt = |v: Option<u64>| v.map_or("-".to_string(), |v| v.to_string());
        format!(
            "hic1;app={};scheme={};topo={}x{};mesh={}x{};l2={};l3={};scale={};\
             check={};fault={};engine={};wdc={};wdw={};plans={}",
            self.app,
            scheme_key(self.config.scheme()),
            topo.blocks(),
            topo.cores_per_block(),
            mc,
            mr,
            topo.l2_banks_per_block(),
            l3,
            self.scale.name(),
            check_key(self.check),
            self.fault.map_or("-".to_string(), FaultSpec::key),
            self.engine.name(),
            opt(self.watchdog_cycles),
            opt(self.watchdog_wall_ms),
            plans_key(self.plan_overrides.as_ref()),
        )
    }

    /// Rebuild a request from its [`RunRequest::cache_key`] form.
    /// Round-trips exactly: `parse_key(k).cache_key() == k` for every
    /// key a `RunRequest` produces. Unknown fields are ignored and
    /// `engine=-` reads as the default engine, so keys written by older
    /// versions (with a `budget=` field) still parse.
    pub fn parse_key(key: &str) -> Result<RunRequest, RequestError> {
        let bad = |field: &'static str, detail: &str| RequestError::BadKey {
            field,
            detail: detail.to_string(),
        };
        let mut fields = std::collections::HashMap::new();
        let mut parts = key.trim().split(';');
        if parts.next() != Some("hic1") {
            return Err(bad("version", "expected leading \"hic1\""));
        }
        for part in parts {
            let (k, v) = part
                .split_once('=')
                .ok_or_else(|| bad("syntax", &format!("field without '=': {part:?}")))?;
            fields.insert(k, v);
        }
        let get = |k: &'static str| fields.get(k).copied().ok_or(bad(k, "missing"));

        let app = get("app")?.to_string();
        let scheme = parse_scheme(get("scheme")?)
            .ok_or_else(|| bad("scheme", &format!("unknown scheme {:?}", fields["scheme"])))?;
        let dims = |s: &str| -> Option<(usize, usize)> {
            let (a, b) = s.split_once('x')?;
            Some((a.parse().ok()?, b.parse().ok()?))
        };
        let (blocks, cores) =
            dims(get("topo")?).ok_or_else(|| bad("topo", "expected BLOCKSxCORES"))?;
        let (mc, mr) = dims(get("mesh")?).ok_or_else(|| bad("mesh", "expected COLSxROWS"))?;
        let l2: usize = get("l2")?
            .parse()
            .map_err(|_| bad("l2", "expected a bank count"))?;
        let mut builder = TopologyBuilder::new(blocks, cores)
            .mesh(mc, mr)
            .l2_banks_per_block(l2);
        match get("l3")? {
            "-" => {
                if blocks == 1 {
                    builder = builder.no_l3();
                }
            }
            spec => {
                let mut it = spec.split('x').map(|v| v.parse::<u64>());
                let mut next = || -> Result<u64, RequestError> {
                    it.next()
                        .and_then(|v| v.ok())
                        .ok_or(bad("l3", "expected BANKSxSIZExWAYSxRT"))
                };
                let (banks, size, ways, rt) = (next()?, next()?, next()?, next()?);
                builder = builder.l3(
                    hic_sim::CacheGeometry {
                        size_bytes: size as usize,
                        ways: ways as usize,
                        line_bytes: hic_sim::config::line_bytes(),
                    },
                    rt,
                    banks as usize,
                );
            }
        }
        let topology: Topology = builder.validate()?;
        let base = match scheme {
            Scheme::Intra(c) => Config::Intra(c),
            Scheme::Inter(c) => Config::Inter(c),
        };
        let config = base.with_topology(topology)?;

        let scale = Scale::parse(get("scale")?)
            .ok_or_else(|| bad("scale", &format!("unknown scale {:?}", fields["scale"])))?;
        let check = match get("check")? {
            "off" => CheckMode::Off,
            "report" => CheckMode::Report,
            "strict" => CheckMode::Strict,
            other => return Err(bad("check", &format!("unknown mode {other:?}"))),
        };
        let fault = match get("fault")? {
            "-" => None,
            spec => Some(
                FaultSpec::parse(spec)
                    .ok_or_else(|| bad("fault", "expected r<seed> or c<seed>"))?,
            ),
        };
        let engine = match get("engine")? {
            "-" => Scheduler::Default,
            spec => Scheduler::parse(spec).ok_or_else(|| {
                bad(
                    "engine",
                    &format!("unknown engine {spec:?} (expected {})", env::ENGINES),
                )
            })?,
        };
        let num = |k: &'static str| -> Result<Option<u64>, RequestError> {
            match get(k)? {
                "-" => Ok(None),
                v => v.parse().map(Some).map_err(|_| bad(k, "expected a number")),
            }
        };
        Ok(RunRequest {
            app,
            config,
            scale,
            check,
            fault,
            engine,
            plan_overrides: parse_plans(get("plans")?, config.num_threads())
                .map_err(|d| bad("plans", &d))?,
            watchdog_cycles: num("wdc")?,
            watchdog_wall_ms: num("wdw")?,
        })
    }
}

fn scheme_key(s: Scheme) -> String {
    match s {
        Scheme::Intra(c) => format!("intra/{}", c.name()),
        Scheme::Inter(c) => format!("inter/{}", c.name()),
    }
}

fn parse_scheme(s: &str) -> Option<Scheme> {
    use crate::config::{InterConfig, IntraConfig};
    let (family, name) = s.split_once('/')?;
    match family {
        "intra" => [
            IntraConfig::Hcc,
            IntraConfig::Dragon,
            IntraConfig::Base,
            IntraConfig::BM,
            IntraConfig::BI,
            IntraConfig::BMI,
        ]
        .into_iter()
        .find(|c| c.name() == name)
        .map(Scheme::Intra),
        "inter" => [
            InterConfig::Hcc,
            InterConfig::Dragon,
            InterConfig::Base,
            InterConfig::Addr,
            InterConfig::AddrL,
        ]
        .into_iter()
        .find(|c| c.name() == name)
        .map(Scheme::Inter),
        _ => None,
    }
}

fn check_key(mode: CheckMode) -> &'static str {
    match mode {
        CheckMode::Off => "off",
        CheckMode::Report => "report",
        CheckMode::Strict => "strict",
    }
}

// Plan-override encoding: `-` for none, else `|`-separated site entries
// `SIDE!THREAD!SITE!WBOPS/INVOPS` where each op list is `,`-separated
// `START:WORDS:PEER` triples (`PEER` = thread id or `*` for unknown).
// Threads and sites with no substitution are simply absent.

fn plans_key(overrides: Option<&PlanOverrides>) -> String {
    let Some(o) = overrides else {
        return "-".to_string();
    };
    let ops = |ops: &[CommOp]| -> String {
        ops.iter()
            .map(|op| {
                format!(
                    "{}:{}:{}",
                    op.region.start.0,
                    op.region.words,
                    op.peer.map_or("*".to_string(), |p| p.0.to_string())
                )
            })
            .collect::<Vec<_>>()
            .join(",")
    };
    let mut entries = Vec::new();
    for (side, table) in [("w", &o.wb), ("i", &o.inv)] {
        for (t, sites) in table.iter().enumerate() {
            for (k, plan) in sites.iter().enumerate() {
                if let Some(plan) = plan {
                    entries.push(format!(
                        "{side}!{t}!{k}!{}/{}",
                        ops(&plan.wb),
                        ops(&plan.inv)
                    ));
                }
            }
        }
    }
    if entries.is_empty() {
        "-".to_string()
    } else {
        entries.join("|")
    }
}

fn parse_plans(s: &str, nthreads: usize) -> Result<Option<PlanOverrides>, String> {
    if s == "-" {
        return Ok(None);
    }
    let parse_ops = |s: &str| -> Result<Vec<CommOp>, String> {
        if s.is_empty() {
            return Ok(Vec::new());
        }
        s.split(',')
            .map(|op| {
                let mut it = op.split(':');
                let mut next = || it.next().ok_or_else(|| format!("short op {op:?}"));
                let start: u64 = next()?
                    .parse()
                    .map_err(|_| format!("bad start in {op:?}"))?;
                let words: u64 = next()?
                    .parse()
                    .map_err(|_| format!("bad words in {op:?}"))?;
                let peer = match next()? {
                    "*" => None,
                    p => Some(ThreadId(
                        p.parse().map_err(|_| format!("bad peer in {op:?}"))?,
                    )),
                };
                Ok(CommOp {
                    region: Region::new(hic_mem::WordAddr(start), words),
                    peer,
                })
            })
            .collect()
    };
    let mut o = PlanOverrides::new(nthreads);
    for entry in s.split('|') {
        let mut it = entry.split('!');
        let mut next = || it.next().ok_or_else(|| format!("short entry {entry:?}"));
        let side = next()?.to_string();
        let t: usize = next()?
            .parse()
            .map_err(|_| format!("bad thread in {entry:?}"))?;
        let k: usize = next()?
            .parse()
            .map_err(|_| format!("bad site in {entry:?}"))?;
        if t >= nthreads {
            return Err(format!("thread {t} out of range for {nthreads} threads"));
        }
        let body = next()?;
        let (wb, inv) = body
            .split_once('/')
            .ok_or_else(|| format!("entry without '/': {entry:?}"))?;
        let plan = EpochPlan {
            wb: parse_ops(wb)?,
            inv: parse_ops(inv)?,
        };
        match side.as_str() {
            "w" => o.set_wb(t, k, plan),
            "i" => o.set_inv(t, k, plan),
            other => return Err(format!("unknown side {other:?}")),
        }
    }
    Ok(Some(o))
}

/// The environment knobs, each parsed in exactly one place. `Ok(None)`
/// means "unset"; a set-but-malformed value is a typed
/// [`RequestError::BadEnv`]. Only [`RunRequest::from_env`] reads the run
/// knobs; [`env::bench_budget_ms`] is the bench harness's own knob.
pub mod env {
    use super::{CheckMode, RequestError, Scheduler};

    /// The engine names `HIC_ENGINE` and the `engine=` key accept.
    pub(super) const ENGINES: &str = "default|linear";

    fn var(name: &'static str) -> Option<String> {
        std::env::var(name).ok().filter(|v| !v.trim().is_empty())
    }

    /// Parse a `HIC_CHECK`-shaped value: `off`, `report`, or `strict`.
    pub(super) fn parse_check_mode(v: &str) -> Result<CheckMode, RequestError> {
        CheckMode::parse(v).ok_or_else(|| RequestError::BadEnv {
            var: "HIC_CHECK",
            value: v.to_string(),
            expected: "off|report|strict",
        })
    }

    /// Parse a `HIC_FAULTS`-shaped value: a decimal seed.
    pub(super) fn parse_fault_seed(v: &str) -> Result<u64, RequestError> {
        v.trim().parse().map_err(|_| RequestError::BadEnv {
            var: "HIC_FAULTS",
            value: v.to_string(),
            expected: "a decimal seed",
        })
    }

    /// Parse a `HIC_ENGINE`-shaped value: `default` or `linear`.
    pub(super) fn parse_engine(v: &str) -> Result<Scheduler, RequestError> {
        Scheduler::parse(v).ok_or_else(|| RequestError::BadEnv {
            var: "HIC_ENGINE",
            value: v.to_string(),
            expected: ENGINES,
        })
    }

    /// Parse a `HIC_BENCH_BUDGET_MS`-shaped value: milliseconds.
    pub(super) fn parse_bench_budget_ms(v: &str) -> Result<u64, RequestError> {
        v.trim().parse().map_err(|_| RequestError::BadEnv {
            var: "HIC_BENCH_BUDGET_MS",
            value: v.to_string(),
            expected: "milliseconds",
        })
    }

    /// `HIC_CHECK`: `off`, `report`, or `strict`.
    pub(super) fn check_mode() -> Result<Option<CheckMode>, RequestError> {
        var("HIC_CHECK").map(|v| parse_check_mode(&v)).transpose()
    }

    /// `HIC_FAULTS`: a decimal seed for the canned recoverable plan.
    pub(super) fn fault_seed() -> Result<Option<u64>, RequestError> {
        var("HIC_FAULTS").map(|v| parse_fault_seed(&v)).transpose()
    }

    /// Parse a `HIC_RECOVER`-shaped value: `0`/`false` or `1`/`true`.
    pub(super) fn parse_recover(v: &str) -> Result<bool, RequestError> {
        match v.trim() {
            "1" | "true" => Ok(true),
            "0" | "false" => Ok(false),
            _ => Err(RequestError::BadEnv {
                var: "HIC_RECOVER",
                value: v.to_string(),
                expected: "0|1|false|true",
            }),
        }
    }

    /// `HIC_RECOVER`: upgrade the `HIC_FAULTS` plan to dirty-line flips
    /// with epoch-checkpoint rollback recovery. Unset means off.
    pub(super) fn recover() -> Result<bool, RequestError> {
        var("HIC_RECOVER")
            .map(|v| parse_recover(&v))
            .transpose()
            .map(|o| o.unwrap_or(false))
    }

    /// `HIC_ENGINE`: `default` or `linear`.
    pub(super) fn engine() -> Result<Option<Scheduler>, RequestError> {
        var("HIC_ENGINE").map(|v| parse_engine(&v)).transpose()
    }

    /// `HIC_BENCH_BUDGET_MS`: the bench harness's per-measurement time
    /// budget in milliseconds.
    pub fn bench_budget_ms() -> Result<Option<u64>, RequestError> {
        var("HIC_BENCH_BUDGET_MS")
            .map(|v| parse_bench_budget_ms(&v))
            .transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{InterConfig, IntraConfig};

    #[test]
    fn scale_names_round_trip() {
        for s in Scale::ALL {
            assert_eq!(Scale::parse(s.name()), Some(s));
        }
        assert_eq!(Scale::parse("medium"), Some(Scale::Medium));
        assert_eq!(Scale::parse("huge"), None);
        assert!(Scale::Test < Scale::Small && Scale::Large < Scale::Paper);
    }

    #[test]
    fn fault_spec_keys_round_trip_and_do_not_collide() {
        for spec in [
            FaultSpec::Recoverable { seed: 7 },
            FaultSpec::Corrupting { seed: 7 },
            FaultSpec::CorruptingRecover { seed: 7 },
        ] {
            assert_eq!(FaultSpec::parse(&spec.key()), Some(spec));
        }
        // "cr7" must not parse as Corrupting with a mangled seed.
        assert_eq!(
            FaultSpec::parse("cr7"),
            Some(FaultSpec::CorruptingRecover { seed: 7 })
        );
        assert_eq!(
            FaultSpec::parse("r7"),
            Some(FaultSpec::Recoverable { seed: 7 })
        );
        assert_eq!(FaultSpec::parse("x7"), None);
        let recover = FaultSpec::CorruptingRecover { seed: 7 };
        assert!(recover.plan().recover && recover.plan().flip_dirty);
        assert!(!FaultSpec::Corrupting { seed: 7 }.plan().recover);
    }

    #[test]
    fn plain_key_round_trips() {
        let req = RunRequest::new("FFT", Config::Intra(IntraConfig::BMI), Scale::Test);
        let key = req.cache_key();
        let back = RunRequest::parse_key(&key).unwrap();
        assert_eq!(back, req);
        assert_eq!(back.cache_key(), key);
    }

    #[test]
    fn loaded_key_round_trips() {
        let mut req = RunRequest::new("Jacobi", Config::Inter(InterConfig::AddrL), Scale::Medium);
        req.check = CheckMode::Strict;
        req.fault = Some(FaultSpec::Corrupting { seed: 7 });
        req.engine = Scheduler::Linear;
        req.watchdog_cycles = Some(1_000_000);
        req.watchdog_wall_ms = Some(30_000);
        let mut o = PlanOverrides::new(req.config.num_threads());
        o.set_wb(
            0,
            2,
            EpochPlan::new()
                .with_wb(CommOp::known(
                    Region::new(hic_mem::WordAddr(64), 16),
                    ThreadId(3),
                ))
                .with_wb(CommOp::unknown(Region::new(hic_mem::WordAddr(128), 8))),
        );
        o.set_inv(5, 0, EpochPlan::new());
        req.plan_overrides = Some(o);

        let key = req.cache_key();
        let back = RunRequest::parse_key(&key).unwrap();
        assert_eq!(back, req);
        assert_eq!(back.cache_key(), key);
    }

    /// Keys written before the engine field became a plain `Scheduler`
    /// and the `budget=` field was dropped still parse: `engine=-` is the
    /// default engine, the unknown `budget=` field is ignored, and the
    /// request re-serializes to its one current key.
    #[test]
    fn keys_from_older_versions_parse_to_the_current_key() {
        let old = "hic1;app=FFT;scheme=intra/B+M+I;topo=1x16;mesh=4x4;l2=16;l3=-;scale=test;\
                   check=off;fault=-;engine=-;wdc=-;wdw=-;budget=250;plans=-";
        let req = RunRequest::new("FFT", Config::Intra(IntraConfig::BMI), Scale::Test);
        assert_eq!(RunRequest::parse_key(old).unwrap(), req);
        let key = req.cache_key();
        assert!(key.contains(";engine=default;"), "{key}");
        assert!(!key.contains("budget="), "{key}");
        assert_eq!(
            RunRequest::parse_key(&old.replace("engine=-", "engine=default")).unwrap(),
            req
        );
    }

    #[test]
    fn distinct_requests_have_distinct_keys() {
        let base = RunRequest::new("FFT", Config::Intra(IntraConfig::BMI), Scale::Test);
        let mut variants = vec![base.clone()];
        variants.push(RunRequest::new(
            "FFT",
            Config::Intra(IntraConfig::Base),
            Scale::Test,
        ));
        variants.push(RunRequest::new(
            "FFT",
            Config::Intra(IntraConfig::BMI),
            Scale::Small,
        ));
        let mut checked = base.clone();
        checked.check = CheckMode::Report;
        variants.push(checked);
        let mut faulted = base.clone();
        faulted.fault = Some(FaultSpec::Recoverable { seed: 1 });
        variants.push(faulted);
        let mut faulted2 = base.clone();
        faulted2.fault = Some(FaultSpec::Corrupting { seed: 1 });
        variants.push(faulted2);
        let mut faulted3 = base.clone();
        faulted3.fault = Some(FaultSpec::CorruptingRecover { seed: 1 });
        variants.push(faulted3);
        let mut linear = base.clone();
        linear.engine = Scheduler::Linear;
        variants.push(linear);
        let keys: std::collections::HashSet<String> =
            variants.iter().map(|r| r.cache_key()).collect();
        assert_eq!(keys.len(), variants.len(), "key collision: {keys:?}");
    }

    #[test]
    fn malformed_keys_are_typed_errors() {
        assert!(matches!(
            RunRequest::parse_key("nope"),
            Err(RequestError::BadKey {
                field: "version",
                ..
            })
        ));
        let key = RunRequest::new("FFT", Config::Intra(IntraConfig::Base), Scale::Test)
            .cache_key()
            .replace("scale=test", "scale=galactic");
        assert!(matches!(
            RunRequest::parse_key(&key),
            Err(RequestError::BadKey { field: "scale", .. })
        ));
        let key = RunRequest::new("FFT", Config::Intra(IntraConfig::Base), Scale::Test)
            .cache_key()
            .replace("engine=default", "engine=warp");
        assert!(matches!(
            RunRequest::parse_key(&key),
            Err(RequestError::BadKey {
                field: "engine",
                ..
            })
        ));
    }

    /// The engine names retired with the one-engine merge are typed
    /// errors that name the accepted values, both as `HIC_ENGINE` values
    /// and inside a cache key.
    #[test]
    fn retired_engine_names_are_typed_errors() {
        let key = RunRequest::new("FFT", Config::Intra(IntraConfig::Base), Scale::Test).cache_key();
        for retired in ["heap", "sharded", "sharded:4"] {
            match env::parse_engine(retired) {
                Err(RequestError::BadEnv {
                    var: "HIC_ENGINE",
                    expected,
                    ..
                }) => assert_eq!(expected, "default|linear"),
                other => panic!("HIC_ENGINE={retired} gave {other:?}"),
            }
            let bad = key.replace("engine=default", &format!("engine={retired}"));
            match RunRequest::parse_key(&bad) {
                Err(RequestError::BadKey {
                    field: "engine",
                    detail,
                }) => assert!(detail.contains("default|linear"), "{detail}"),
                other => panic!("engine={retired} gave {other:?}"),
            }
        }
    }

    #[test]
    fn env_values_parse_with_typed_errors() {
        // The parsers are tested on values directly — mutating the
        // process env in a unit test would race with other tests in this
        // binary. `from_env` is exercised end-to-end by
        // `tests/serve_api.rs`, which owns its process env.
        assert_eq!(env::parse_check_mode("report"), Ok(CheckMode::Report));
        assert_eq!(env::parse_fault_seed(" 42 "), Ok(42));
        assert_eq!(env::parse_engine("linear"), Ok(Scheduler::Linear));
        assert_eq!(env::parse_engine(" Default "), Ok(Scheduler::Default));
        assert_eq!(env::parse_bench_budget_ms("50"), Ok(50));

        let err = env::parse_engine("warp").unwrap_err();
        assert!(
            matches!(
                err,
                RequestError::BadEnv {
                    var: "HIC_ENGINE",
                    ..
                }
            ),
            "{err}"
        );
        assert!(env::parse_check_mode("loud").is_err());
        assert!(env::parse_fault_seed("abc").is_err());
        assert!(env::parse_bench_budget_ms("fast").is_err());
        assert_eq!(env::parse_recover("1"), Ok(true));
        assert_eq!(env::parse_recover("false"), Ok(false));
        assert!(matches!(
            env::parse_recover("yes"),
            Err(RequestError::BadEnv {
                var: "HIC_RECOVER",
                ..
            })
        ));
    }
}
