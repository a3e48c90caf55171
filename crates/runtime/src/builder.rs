//! Program setup: allocate simulated data, declare synchronization
//! variables, initialize memory, then run.
//!
//! ```no_run
//! use hic_runtime::{Config, IntraConfig, ProgramBuilder};
//!
//! let mut p = ProgramBuilder::new(Config::Intra(IntraConfig::BMI));
//! let data = p.alloc(1024);
//! let bar = p.barrier();
//! let out = p.run_tasks(16, async move |ctx| {
//!     let t = ctx.tid() as u64;
//!     ctx.write(data, t, ctx.tid() as u32).await;
//!     ctx.barrier(bar).await;
//! });
//! assert_eq!(out.peek(data, 3), 3);
//! ```

use std::sync::Arc;

use hic_check::{CheckMode, Diagnostics};
use hic_machine::{FaultPlan, Machine, RunError, RunStats, TrafficLedger};
use hic_mem::{f32_to_word, word_to_f32, BumpAllocator, Region, Word};
use hic_sim::Cycle;

use crate::config::{Config, Scheme};
use crate::ctx::{BarrierId, FlagId, LockId, LockInfo, RtShared, ThreadCtx};
use crate::engine::{run_tasks, Scheduler};
use crate::plan::PlanOverrides;
use crate::record::ProgramRecord;

/// Builder for one simulated program run.
pub struct ProgramBuilder {
    config: Config,
    machine: Machine,
    alloc: BumpAllocator,
    locks: Vec<LockInfo>,
    /// Which engine runs the program.
    scheduler: Scheduler,
    /// Incoherence-sanitizer mode.
    check: CheckMode,
    /// Allocation names for sanitizer reports.
    regions: Vec<(Region, String)>,
    /// Barriers declared so far: (raw sync id, participants) — captured
    /// for [`ProgramBuilder::record`].
    barriers: Vec<(usize, usize)>,
    /// Plan substitutions from a static optimizer (`hic-lint`).
    overrides: Option<Arc<PlanOverrides>>,
    /// Fault plan to inject, if any.
    fault: Option<FaultPlan>,
    /// Simulated-cycle watchdog budget for the run.
    watchdog_cycles: Option<Cycle>,
    /// Host wall-clock watchdog for the run, in milliseconds.
    watchdog_wall_ms: Option<u64>,
}

impl ProgramBuilder {
    /// Create a builder for the given configuration (machine shape and
    /// coherence-management scheme follow from it).
    pub fn new(config: Config) -> ProgramBuilder {
        Self::with_machine_config(config, config.machine_config())
    }

    /// Create a builder with a customized machine (ablation studies:
    /// different MEB/IEB sizes, link latencies, cache geometries). The
    /// machine config must describe the same shape (intra/inter) as
    /// `config`.
    pub fn with_machine_config(config: Config, mc: hic_sim::MachineConfig) -> ProgramBuilder {
        assert_eq!(
            mc.is_hierarchical(),
            matches!(config.scheme(), Scheme::Inter(_)),
            "machine shape must match the configuration family"
        );
        let machine = if config.is_dragon() {
            Machine::dragon(mc)
        } else if config.is_coherent() {
            Machine::coherent(mc)
        } else {
            Machine::incoherent(mc)
        };
        Self::with_machine(config, machine)
    }

    /// Create a builder whose machine is the flat always-fresh reference
    /// backend (`hic_machine::RefBackend`) in the shape `config`
    /// prescribes. The runtime still inserts `config`'s WB/INV
    /// annotations; the reference backend completes them in zero cycles
    /// and can never serve a stale value. Property tests use this as the
    /// correctness oracle for cache-backed runs.
    pub fn with_reference_backend(config: Config) -> ProgramBuilder {
        Self::with_machine(config, Machine::reference(config.machine_config()))
    }

    /// A builder with every run option at its default, around `machine`.
    fn with_machine(config: Config, machine: Machine) -> ProgramBuilder {
        ProgramBuilder {
            config,
            machine,
            alloc: BumpAllocator::new(),
            locks: Vec::new(),
            scheduler: Scheduler::Default,
            check: CheckMode::Off,
            regions: Vec::new(),
            barriers: Vec::new(),
            overrides: None,
            fault: None,
            watchdog_cycles: None,
            watchdog_wall_ms: None,
        }
    }

    /// Configure this run exactly as `req` describes: check mode, fault
    /// plan, scheduler, watchdogs, and plan overrides. (The builder must
    /// already have been constructed with `req.config()`; the request's
    /// app name and scale are the caller's concern.)
    pub fn apply_request(&mut self, req: &crate::request::RunRequest) -> &mut Self {
        debug_assert_eq!(self.config, req.config());
        self.check = req.check;
        self.fault = req.fault_plan();
        self.scheduler = req.engine;
        self.watchdog_cycles = req.watchdog_cycles;
        self.watchdog_wall_ms = req.watchdog_wall_ms;
        self.overrides = req.plan_overrides.clone().map(Arc::new);
        self
    }

    pub fn config(&self) -> Config {
        self.config
    }

    /// Select the engine (default: [`Scheduler::Default`]). Simulated
    /// results are identical across engines; only the host-side ledger
    /// in `stats.engine` differs.
    pub fn scheduler(&mut self, s: Scheduler) -> &mut Self {
        self.scheduler = s;
        self
    }

    /// Number of hardware threads available.
    pub fn num_threads(&self) -> usize {
        self.config.num_threads()
    }

    /// Allocate a line-aligned region of `words` words.
    pub fn alloc(&mut self, words: u64) -> Region {
        let r = self.alloc.alloc(words);
        self.regions.push((r, format!("r{}", self.regions.len())));
        r
    }

    /// Allocate a line-aligned region with a name that sanitizer
    /// diagnostics use when reporting addresses inside it.
    pub fn alloc_named(&mut self, name: &str, words: u64) -> Region {
        let r = self.alloc.alloc(words);
        self.regions.push((r, name.to_string()));
        r
    }

    /// Allocate without line alignment (arrays may share lines; used by
    /// false-sharing studies).
    pub fn alloc_packed(&mut self, words: u64) -> Region {
        let r = self.alloc.alloc_packed(words);
        self.regions.push((r, format!("r{}", self.regions.len())));
        r
    }

    /// Enable or disable the incoherence sanitizer for this run
    /// (default: `Off`). The sanitizer only has effect on incoherent
    /// backends; coherent and reference machines never produce stale
    /// values to detect.
    pub fn check_mode(&mut self, mode: CheckMode) -> &mut Self {
        self.check = mode;
        self
    }

    /// Inject a deterministic fault plan into this run. See [`FaultPlan`]
    /// for what can be perturbed; every perturbation is protocol-legal,
    /// so timing-only plans never change the results of race-free
    /// programs.
    pub fn fault_plan(&mut self, plan: FaultPlan) -> &mut Self {
        self.fault = Some(plan);
        self
    }

    /// Fail the run with [`RunError::Hang`] if any core's simulated
    /// clock exceeds `budget` cycles.
    pub fn watchdog_cycles(&mut self, budget: Cycle) -> &mut Self {
        self.watchdog_cycles = Some(budget);
        self
    }

    /// Fail the run with [`RunError::Hang`] if it takes longer than `ms`
    /// milliseconds of host wall-clock time.
    pub fn watchdog_wall_ms(&mut self, ms: u64) -> &mut Self {
        self.watchdog_wall_ms = Some(ms);
        self
    }

    /// Initialize a region element (memory backdoor, before the run).
    pub fn init(&mut self, r: Region, i: u64, v: Word) {
        self.machine.poke_word(r.at(i), v);
    }

    /// Initialize a region element with an `f32`.
    pub fn init_f32(&mut self, r: Region, i: u64, v: f32) {
        self.init(r, i, f32_to_word(v));
    }

    /// Initialize a whole region from a function of the element index.
    pub fn init_with(&mut self, r: Region, f: impl Fn(u64) -> Word) {
        for i in 0..r.words {
            self.init(r, i, f(i));
        }
    }

    /// Declare a barrier over all `n` participating threads (call with the
    /// same `n` you pass to [`ProgramBuilder::run_tasks`]).
    pub fn barrier_of(&mut self, participants: usize) -> BarrierId {
        let id = self.machine.alloc_barrier(participants);
        self.barriers.push((id.0, participants));
        BarrierId(id)
    }

    /// Declare a barrier over every hardware thread.
    pub fn barrier(&mut self) -> BarrierId {
        let n = self.num_threads();
        self.barrier_of(n)
    }

    /// Declare a lock. `occ` states whether communication happens outside
    /// the critical sections it guards (§IV-A1: unless the programmer
    /// explicitly says otherwise, assume it does).
    pub fn lock_occ(&mut self, occ: bool) -> LockId {
        let id = self.machine.alloc_lock();
        self.locks.push(LockInfo { id, occ });
        LockId(self.locks.len() - 1)
    }

    /// Declare a lock with the conservative default (OCC assumed).
    pub fn lock(&mut self) -> LockId {
        self.lock_occ(true)
    }

    /// Declare a condition flag.
    pub fn flag(&mut self) -> FlagId {
        FlagId(self.machine.alloc_flag())
    }

    /// Keep a ring of the most recent `capacity` machine operations;
    /// readable after the run via `outcome.machine().trace()`.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.machine.enable_trace(capacity);
    }

    /// Start a [`ProgramRecord`] for a program that will run on
    /// `nthreads` threads, seeded with this builder's configuration,
    /// allocation map, and declared barriers. The caller fills in the
    /// per-thread event sequences (see [`crate::record`]).
    pub fn record(&self, nthreads: usize) -> ProgramRecord {
        let mut rec = ProgramRecord::new(self.config, nthreads);
        rec.regions = self.regions.clone();
        rec.barriers = self.barriers.clone();
        rec
    }

    /// Install per-call-site plan substitutions (from `hic-lint`'s
    /// optimizer): thread `t`'s k-th `plan_wb` / `plan_inv` call issues
    /// the override instead of the plan the program passed, when one is
    /// set for that site.
    pub fn override_plans(&mut self, overrides: PlanOverrides) -> &mut Self {
        self.overrides = Some(Arc::new(overrides));
        self
    }

    /// Run `body` on `nthreads` simulated threads, one task per thread
    /// on a single-threaded executor. Thread `i` is pinned to core `i`.
    /// A kernel that panics unwinds out of this call with its own
    /// payload.
    pub fn run_tasks(mut self, nthreads: usize, body: impl AsyncFn(&ThreadCtx)) -> RunOutcome {
        if self.check != CheckMode::Off {
            self.machine
                .enable_check(self.check, std::mem::take(&mut self.regions));
        }
        if let Some(plan) = self.fault {
            self.machine.enable_faults(plan);
        }
        let shared = RtShared {
            config: self.config,
            locks: self.locks,
            nthreads,
            scheduler: self.scheduler,
            checking: self.machine.checking(),
            overrides: self.overrides,
            watchdog_cycles: self.watchdog_cycles,
            watchdog_wall_ms: self.watchdog_wall_ms,
        };
        let (machine, stats, error) = run_tasks(self.machine, shared, body);
        let diagnostics = machine.diagnostics();
        RunOutcome {
            machine,
            stats,
            diagnostics,
            error,
        }
    }

    /// Run a plain closure on `nthreads` threads. A plain closure cannot
    /// await, so it runs host code only and issues no operations; use
    /// [`ProgramBuilder::run_tasks`] for a kernel.
    pub fn run<F: Fn(&ThreadCtx)>(self, nthreads: usize, body: F) -> RunOutcome {
        self.run_tasks(nthreads, async |ctx| body(ctx))
    }
}

/// The results of a finished run — successful or not. Check
/// [`RunOutcome::result`] before trusting [`RunOutcome::peek`]: a failed
/// run's memory reflects the state at the point of failure.
pub struct RunOutcome {
    machine: Machine,
    stats: RunStats,
    diagnostics: Diagnostics,
    error: Option<RunError>,
}

impl RunOutcome {
    /// `Ok(())` if the run completed, or the typed [`RunError`] that
    /// killed it (deadlock, watchdog hang, strict-mode incoherence
    /// finding, unrecoverable fault corruption).
    pub fn result(&self) -> Result<(), &RunError> {
        match &self.error {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// The fault plan this run executed under, if any.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.machine.fault_plan()
    }

    /// Cycle, stall, traffic, and instruction-count statistics. On a
    /// failed run these cover the simulation up to the failure point.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// What the incoherence sanitizer observed (empty and `Off` when
    /// checking was disabled). See [`crate::CheckMode`].
    pub fn diagnostics(&self) -> &Diagnostics {
        &self.diagnostics
    }

    /// NoC traffic breakdown (shorthand for `stats().traffic`).
    pub fn traffic(&self) -> &TrafficLedger {
        &self.stats.traffic
    }

    /// Read element `i` of a region as a fresh reader would (after final
    /// writebacks).
    pub fn peek(&self, r: Region, i: u64) -> Word {
        self.machine.peek_word(r.at(i))
    }

    /// Read element `i` of a region as `f32`.
    pub fn peek_f32(&self, r: Region, i: u64) -> f32 {
        word_to_f32(self.peek(r, i))
    }

    /// Read a whole region.
    pub fn peek_all(&self, r: Region) -> Vec<Word> {
        (0..r.words).map(|i| self.peek(r, i)).collect()
    }

    /// The machine, for deeper inspection.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{InterConfig, IntraConfig};
    use crate::plan::{CommOp, EpochPlan};

    /// The plain-closure adapter runs host code on every thread and
    /// finishes each core: its only ops are the `Finish` markers.
    #[test]
    fn host_only_run_finishes_every_core() {
        let p = ProgramBuilder::new(Config::Intra(IntraConfig::Base));
        let out = p.run(4, |ctx| assert!(ctx.tid() < ctx.nthreads()));
        assert!(out.result().is_ok());
        assert_eq!(out.stats().engine.ops_executed, 4);
        assert_eq!(out.stats().total_cycles, 0);
    }

    #[test]
    fn builder_quickstart_roundtrip() {
        let mut p = ProgramBuilder::new(Config::Intra(IntraConfig::Base));
        let data = p.alloc(64);
        p.init_with(data, |i| i as Word);
        let bar = p.barrier_of(4);
        let out = p.run_tasks(4, async move |ctx| {
            let t = ctx.tid() as u64;
            // Each thread squares its 16 elements.
            for i in (t * 16)..((t + 1) * 16) {
                let v = ctx.read(data, i).await;
                ctx.write(data, i, v * v).await;
            }
            ctx.barrier(bar).await;
        });
        for i in 0..64 {
            assert_eq!(out.peek(data, i), (i * i) as Word);
        }
        assert!(out.stats().total_cycles > 0);
    }

    /// The producer/consumer epoch pattern of Figure 2, on every intra
    /// config: correctness must be configuration-independent.
    #[test]
    fn figure2_pattern_correct_on_all_intra_configs() {
        for cfg in IntraConfig::ALL {
            let mut p = ProgramBuilder::new(Config::Intra(cfg));
            let x = p.alloc(16);
            let bar = p.barrier_of(2);
            let out = p.run_tasks(2, async move |ctx| {
                if ctx.tid() == 0 {
                    for i in 0..16 {
                        ctx.write(x, i, 100 + i as Word).await;
                    }
                }
                ctx.barrier(bar).await;
                if ctx.tid() == 1 {
                    let mut sum = 0u32;
                    for i in 0..16 {
                        sum += ctx.read(x, i).await;
                    }
                    // 100*16 + 0+..+15 = 1720.
                    assert_eq!(sum, 1720, "stale read under {}", cfg.name());
                }
            });
            drop(out);
        }
    }

    #[test]
    fn critical_sections_correct_on_all_intra_configs() {
        for cfg in IntraConfig::ALL {
            let mut p = ProgramBuilder::new(Config::Intra(cfg));
            let counter = p.alloc(1);
            let l = p.lock_occ(false);
            let bar = p.barrier_of(8);
            let out = p.run_tasks(8, async move |ctx| {
                for _ in 0..4 {
                    ctx.lock(l).await;
                    let v = ctx.read(counter, 0).await;
                    ctx.write(counter, 0, v + 1).await;
                    ctx.unlock(l).await;
                }
                ctx.barrier(bar).await;
            });
            assert_eq!(out.peek(counter, 0), 32, "lost update under {}", cfg.name());
        }
    }

    #[test]
    fn occ_task_queue_pattern_correct_on_all_intra_configs() {
        // Producer fills a task payload *outside* the critical section,
        // then publishes the index inside it (Figure 4d).
        for cfg in IntraConfig::ALL {
            let mut p = ProgramBuilder::new(Config::Intra(cfg));
            let payload = p.alloc(64);
            let head = p.alloc(1);
            let l = p.lock(); // occ = true
            let bar = p.barrier_of(2);
            let out = p.run_tasks(2, async move |ctx| {
                if ctx.tid() == 0 {
                    for task in 0..4u64 {
                        // Produce payload outside the CS.
                        for i in 0..16 {
                            ctx.write(payload, task * 16 + i, (task * 100 + i) as Word)
                                .await;
                        }
                        ctx.lock(l).await;
                        ctx.write(head, 0, task as Word + 1).await;
                        ctx.unlock(l).await;
                    }
                }
                ctx.barrier(bar).await;
                if ctx.tid() == 1 {
                    ctx.lock(l).await;
                    let avail = ctx.read(head, 0).await as u64;
                    ctx.unlock(l).await;
                    assert_eq!(avail, 4);
                    // Consume payloads outside the CS: the OCC INV after
                    // the release makes them visible.
                    for task in 0..avail {
                        for i in 0..16 {
                            assert_eq!(
                                ctx.read(payload, task * 16 + i).await,
                                (task * 100 + i) as Word,
                                "stale task payload under {}",
                                cfg.name()
                            );
                        }
                    }
                }
            });
            drop(out);
        }
    }

    #[test]
    fn flags_correct_on_all_intra_configs() {
        for cfg in IntraConfig::ALL {
            let mut p = ProgramBuilder::new(Config::Intra(cfg));
            let data = p.alloc(8);
            let f = p.flag();
            let out = p.run_tasks(2, async move |ctx| {
                if ctx.tid() == 0 {
                    for i in 0..8 {
                        ctx.write(data, i, 42 + i as Word).await;
                    }
                    ctx.flag_set(f).await;
                } else {
                    ctx.flag_wait(f).await;
                    for i in 0..8 {
                        assert_eq!(
                            ctx.read(data, i).await,
                            42 + i as Word,
                            "under {}",
                            cfg.name()
                        );
                    }
                }
            });
            drop(out);
        }
    }

    #[test]
    fn inter_epoch_plans_correct_on_all_inter_configs() {
        // Thread 0 (block 0) produces for thread 8 (block 1) and thread 1
        // (block 0): the classic Figure 7 shape.
        for cfg in InterConfig::ALL {
            let mut p = ProgramBuilder::new(Config::Inter(cfg));
            let x = p.alloc(32);
            let bar = p.barrier_of(9);
            let out = p.run_tasks(9, async move |ctx| {
                let producer_plan = EpochPlan::new()
                    .with_wb(CommOp::known(x.slice(0, 16), ctx.thread(1)))
                    .with_wb(CommOp::known(x.slice(16, 32), ctx.thread(8)));
                let consumer1 =
                    EpochPlan::new().with_inv(CommOp::known(x.slice(0, 16), ctx.thread(0)));
                let consumer8 =
                    EpochPlan::new().with_inv(CommOp::known(x.slice(16, 32), ctx.thread(0)));
                // Warm stale copies everywhere.
                if ctx.tid() == 1 {
                    ctx.read(x, 0).await;
                }
                if ctx.tid() == 8 {
                    ctx.read(x, 16).await;
                }
                ctx.plan_barrier(bar).await;
                if ctx.tid() == 0 {
                    for i in 0..32 {
                        ctx.write(x, i, 1000 + i as Word).await;
                    }
                    ctx.plan_wb(&producer_plan).await;
                }
                ctx.plan_barrier(bar).await;
                if ctx.tid() == 1 {
                    ctx.plan_inv(&consumer1).await;
                    for i in 0..16u64 {
                        assert_eq!(
                            ctx.read(x, i).await,
                            1000 + i as Word,
                            "same-block, {}",
                            cfg.name()
                        );
                    }
                }
                if ctx.tid() == 8 {
                    ctx.plan_inv(&consumer8).await;
                    for i in 16..32u64 {
                        assert_eq!(
                            ctx.read(x, i).await,
                            1000 + i as Word,
                            "cross-block, {}",
                            cfg.name()
                        );
                    }
                }
            });
            drop(out);
        }
    }

    #[test]
    fn trace_records_operations() {
        let mut p = ProgramBuilder::new(Config::Intra(IntraConfig::Base));
        let data = p.alloc(4);
        p.enable_trace(64);
        let bar = p.barrier_of(2);
        let out = p.run_tasks(2, async move |ctx| {
            ctx.write(data, ctx.tid() as u64, 1).await;
            ctx.barrier(bar).await;
        });
        let trace = out.machine().trace();
        assert!(trace.total_recorded() > 0);
        let evs = trace.events();
        // Stores, WB ALL / INV ALL around the barrier, barrier arrivals,
        // and Finish ops must all appear.
        assert!(evs
            .iter()
            .any(|e| matches!(e.op, hic_machine::Op::Store(_, _))));
        assert!(evs
            .iter()
            .any(|e| matches!(e.op, hic_machine::Op::BarrierArrive(_))));
        assert!(evs.iter().any(|e| e.blocked), "the first arriver parks");
        assert!(!trace.render().is_empty());
    }

    #[test]
    fn racy_flag_pattern_figure6() {
        for cfg in IntraConfig::ALL {
            let mut p = ProgramBuilder::new(Config::Intra(cfg));
            let data = p.alloc(4);
            let flag = p.alloc(1);
            let out = p.run_tasks(2, async move |ctx| {
                if ctx.tid() == 0 {
                    ctx.write(data, 0, 99).await;
                    // Figure 6b: WB(data) then WB(flag) via racy_store.
                    ctx.coh(hic_core::CohInstr::wb(hic_core::Target::range(data)))
                        .await;
                    ctx.racy_store(flag.at(0), 1).await;
                } else {
                    // Spin on the racy flag.
                    let mut spins = 0;
                    while ctx.racy_load(flag.at(0)).await == 0 {
                        ctx.compute(50).await;
                        spins += 1;
                        assert!(spins < 10_000, "flag never observed, {}", cfg.name());
                    }
                    ctx.coh(hic_core::CohInstr::inv(hic_core::Target::range(data)))
                        .await;
                    assert_eq!(
                        ctx.read(data, 0).await,
                        99,
                        "data race data, {}",
                        cfg.name()
                    );
                }
            });
            drop(out);
        }
    }
}
