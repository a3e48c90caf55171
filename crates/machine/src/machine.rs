//! The [`Machine`]: one memory backend + the synchronization controller +
//! per-core stall accounting, driven synchronously in simulated-time order.
//!
//! The runtime (in `hic-runtime`) guarantees that `execute` is called in
//! global simulated-time order across cores (conservative event ordering),
//! so every memory-system transition happens at a well-defined time. The
//! one exception is a private op ([`Machine::try_private`]): it touches
//! only its own core's state, commutes with every other core's op, and
//! may run as soon as its core reaches it.
//!
//! The memory side is any [`MemBackend`] (incoherent, MESI-coherent, or
//! the flat reference oracle); the machine itself is backend-agnostic.
//!
//! Blocking synchronization ops park the core inside the machine; when a
//! later op completes the barrier / releases the lock / sets the flag, the
//! machine emits [`Wakeup`]s that tell the runtime when each parked core
//! resumes, and charges the waiting time to the appropriate stall category.

use fxhash::FxHashMap;

use hic_check::{CheckMode, Checker, Diagnostics};
use hic_coherence::{DragonSystem, MesiSystem};
use hic_fault::{FaultPlan, FaultState, ResilienceStats, SALT_SYNC};
use hic_mem::{Region, Word, WordAddr};
use hic_noc::{Mesh, TrafficCategory, TrafficLedger};
use hic_sim::{CoreId, Cycle, EngineStats, MachineConfig, StallCategory, StallLedger};
use hic_sync::{Grant, SyncController, SyncId};

use crate::backend::{MemBackend, RefBackend};
use crate::error::RunError;
use crate::incoherent::{IncCounters, IncoherentSystem};
use crate::ops::Op;
use crate::trace::{TraceEvent, TraceRing};

/// Result of executing one op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exec {
    /// The op completed: optional value (loads) and completion time.
    Done { value: Option<Word>, end: Cycle },
    /// The op blocked; a [`Wakeup`] will carry the resume time later.
    Parked,
}

/// A parked core resuming at `at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Wakeup {
    pub core: CoreId,
    pub at: Cycle,
}

/// Aggregated results of a finished run.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Wall-clock of the program: max core completion time.
    pub total_cycles: Cycle,
    /// Per-core stall ledgers.
    pub ledgers: Vec<StallLedger>,
    /// Flit traffic.
    pub traffic: TrafficLedger,
    /// Incoherent-machine counters (zeros for HCC).
    pub counters: IncCounters,
    /// Host-side engine bookkeeping (zeros when the machine is driven
    /// directly rather than through the runtime engine).
    pub engine: EngineStats,
    /// Fault-injection resilience ledger (zeros without a fault plan).
    pub resilience: ResilienceStats,
}

impl RunStats {
    /// All core ledgers merged.
    pub fn merged_ledger(&self) -> StallLedger {
        self.ledgers
            .iter()
            .fold(StallLedger::new(), |a, b| a.merged(b))
    }
}

/// One simulated machine instance.
pub struct Machine {
    backend: Box<dyn MemBackend>,
    sync: SyncController,
    mesh: Mesh,
    cfg: MachineConfig,
    ledgers: Vec<StallLedger>,
    /// Parked cores: issue time + the category their wait is charged to.
    parked: FxHashMap<usize, (Cycle, StallCategory)>,
    wakeups: Vec<Wakeup>,
    /// Cores that executed at least one op.
    active: Vec<bool>,
    finished_at: Vec<Option<Cycle>>,
    trace: TraceRing,
    /// Mirror of "the backend has a sanitizer attached", so the hot path
    /// pays a plain bool test (not a virtual call) when checking is off.
    has_checker: bool,
    /// Set when a sanitizer, fault plan or trace is installed. Each
    /// observes the global op order, so no op is private from then on.
    observed: bool,
    /// The installed fault plan, if any (kept for diagnostics).
    fault_plan: Option<FaultPlan>,
    /// Sync-controller ack-delay injection (`hic-fault`, SALT_SYNC
    /// stream): grants occasionally resume late, a protocol-legal
    /// perturbation that must not change readable memory.
    ack_faults: Option<FaultState>,
}

impl Machine {
    /// Assemble a machine around any memory backend. The configuration
    /// must be valid ([`MachineConfig::validate`]); shapes a
    /// `TopologyBuilder` would reject cannot reach the simulation loop.
    pub fn from_backend(cfg: MachineConfig, backend: Box<dyn MemBackend>) -> Machine {
        if let Err(e) = cfg.validate() {
            panic!("invalid machine config: {e}");
        }
        let n = cfg.num_cores();
        Machine {
            backend,
            sync: SyncController::new(),
            mesh: Mesh::for_config(&cfg),
            ledgers: vec![StallLedger::new(); n],
            parked: FxHashMap::default(),
            wakeups: Vec::new(),
            active: vec![false; n],
            finished_at: vec![None; n],
            trace: TraceRing::default(),
            has_checker: false,
            observed: false,
            fault_plan: None,
            ack_faults: None,
            cfg,
        }
    }

    /// Install a seeded fault-injection plan (`hic-fault`): mesh link
    /// jitter and slowdowns on every machine-level message, delayed
    /// sync-controller acks, and — on backends that support it — dropped
    /// transfers with retry and transient cache-line bit flips guarded
    /// by parity. Fully deterministic for a given plan and program.
    pub fn enable_faults(&mut self, plan: FaultPlan) {
        self.fault_plan = Some(plan);
        self.observed = true;
        self.mesh.set_faults(plan.link_faults());
        self.backend.install_faults(&plan);
        self.ack_faults = Some(FaultState::new(plan, SALT_SYNC));
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.fault_plan
    }

    /// Attach the incoherence sanitizer (`hic-check`) to the backend.
    /// Returns whether a checker is now active: backends whose hardware
    /// keeps every copy fresh (MESI, reference) have nothing to check and
    /// report `false`. `regions` names allocations in findings.
    pub fn enable_check(&mut self, mode: CheckMode, regions: Vec<(Region, String)>) -> bool {
        if mode == CheckMode::Off {
            return false;
        }
        let mut chk = Checker::new(mode, self.cfg.num_cores(), self.cfg.cores_per_block());
        chk.set_regions(regions);
        self.has_checker = self.backend.attach_checker(Box::new(chk));
        self.observed |= self.has_checker;
        self.has_checker
    }

    /// Is an incoherence checker attached and active?
    pub fn checking(&self) -> bool {
        self.has_checker
    }

    /// Structured sanitizer output (default/empty when checking is off).
    pub fn diagnostics(&self) -> Diagnostics {
        self.backend
            .checker()
            .map(|c| c.diagnostics())
            .unwrap_or_default()
    }

    /// The typed error that should abort the run, delivered at most
    /// once: an unrecoverable injected fault (corrupted dirty line) or,
    /// in `CheckMode::Strict`, the sanitizer's rendered fatal finding.
    /// The runtime engine polls this after every executed operation so
    /// the run stops at the faulty access, with the trace tail attached
    /// when tracing is on. Without a fault plan or sanitizer the answer
    /// is two inlined flag tests.
    #[inline]
    pub fn take_fatal(&mut self) -> Option<RunError> {
        if self.fault_plan.is_none() && !self.has_checker {
            return None;
        }
        self.take_latched_fatal()
    }

    fn take_latched_fatal(&mut self) -> Option<RunError> {
        if self.fault_plan.is_some() {
            if let Some(detail) = self.backend.take_fault_fatal() {
                return Some(RunError::CorruptDirtyLine {
                    detail: self.with_trace(detail),
                });
            }
        }
        if !self.has_checker {
            return None;
        }
        let f = self.backend.checker_mut()?.take_fatal()?;
        let msg = format!("incoherence detected: {}", f.render());
        Some(RunError::CheckFatal {
            msg: self.with_trace(msg),
        })
    }

    /// Append the rendered trace tail when tracing is enabled.
    fn with_trace(&self, mut msg: String) -> String {
        if self.trace.enabled() {
            msg.push_str("\nmost recent operations (oldest first):\n");
            msg.push_str(&self.trace.render());
        }
        msg
    }

    /// Build an incoherent machine.
    pub fn incoherent(cfg: MachineConfig) -> Machine {
        let backend = Box::new(IncoherentSystem::new(cfg));
        Machine::from_backend(cfg, backend)
    }

    /// Build a hardware-coherent (MESI directory) machine.
    pub fn coherent(cfg: MachineConfig) -> Machine {
        let backend = Box::new(MesiSystem::new(cfg));
        Machine::from_backend(cfg, backend)
    }

    /// Build a hardware-coherent machine running the update-based Dragon
    /// protocol (see [`hic_coherence::DragonSystem`]).
    pub fn dragon(cfg: MachineConfig) -> Machine {
        let backend = Box::new(DragonSystem::new(cfg));
        Machine::from_backend(cfg, backend)
    }

    /// Build a machine over the flat always-fresh reference backend (the
    /// correctness oracle; see [`RefBackend`]).
    pub fn reference(cfg: MachineConfig) -> Machine {
        let backend = Box::new(RefBackend::new(&cfg));
        Machine::from_backend(cfg, backend)
    }

    /// Keep a ring of the most recent `capacity` operations for
    /// debugging; retrieve with [`Machine::trace`].
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = TraceRing::new(capacity);
        self.observed |= self.trace.enabled();
    }

    /// The trace ring (empty unless [`Machine::enable_trace`] was called).
    pub fn trace(&self) -> &TraceRing {
        &self.trace
    }

    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// The memory backend driving this machine.
    pub fn backend(&self) -> &dyn MemBackend {
        &*self.backend
    }

    /// Declare sync variables (runtime setup).
    pub fn alloc_barrier(&mut self, participants: usize) -> SyncId {
        self.sync.alloc_barrier(participants)
    }

    pub fn alloc_lock(&mut self) -> SyncId {
        self.sync.alloc_lock()
    }

    pub fn alloc_flag(&mut self) -> SyncId {
        self.sync.alloc_flag()
    }

    /// One-way latency from a core to the sync controller holding `id`.
    /// Sync hardware lives in the shared-cache controllers: an L2 bank for
    /// the single-block machine, an L3 (corner) bank for the multi-block
    /// machine (§III-D).
    fn sync_oneway(&self, c: CoreId, id: SyncId) -> u64 {
        if self.cfg.is_hierarchical() {
            self.mesh.latency_to_corner(c.0, id.0 % 4)
        } else {
            let bank_tile = id.0 % self.cfg.num_cores();
            self.mesh.latency(c.0, bank_tile)
        }
    }

    /// Controller service time for a sync request.
    fn sync_service(&self) -> u64 {
        match self.cfg.l3() {
            Some(l3) => l3.rt / 2,
            None => self.cfg.l2_rt / 2,
        }
    }

    fn park(&mut self, c: CoreId, issue: Cycle, cat: StallCategory) -> Exec {
        let prev = self.parked.insert(c.0, (issue, cat));
        debug_assert!(prev.is_none(), "core parked twice");
        Exec::Parked
    }

    /// Process grants from the controller: the issuing core's own grant (if
    /// any) completes its op; other cores become wakeups.
    fn apply_grants(
        &mut self,
        grants: Vec<Grant>,
        id: SyncId,
        me: CoreId,
        my_issue: Cycle,
        cat: StallCategory,
    ) -> Option<Cycle> {
        let mut my_end = None;
        for g in grants {
            let mut resume = g.at + self.sync_oneway(g.core, id);
            if let Some(fs) = self.ack_faults.as_mut() {
                resume += fs.on_ack();
            }
            self.backend.traffic_mut().add(TrafficCategory::Sync, 1);
            if g.core == me {
                self.ledgers[me.0].charge(cat, resume.saturating_sub(my_issue));
                my_end = Some(resume);
            } else {
                let (issue, pcat) = self
                    .parked
                    .remove(&g.core.0)
                    .expect("granted core must be parked");
                self.ledgers[g.core.0].charge(pcat, resume.saturating_sub(issue));
                self.wakeups.push(Wakeup {
                    core: g.core,
                    at: resume,
                });
            }
        }
        my_end
    }

    /// Are wakeups pending? An inlined emptiness test, so the runtime
    /// drains them only after the ops that grant something.
    #[inline]
    pub fn has_wakeups(&self) -> bool {
        !self.wakeups.is_empty()
    }

    /// Drain pending wakeups (parked cores that may now resume).
    pub fn take_wakeups(&mut self) -> Vec<Wakeup> {
        std::mem::take(&mut self.wakeups)
    }

    /// Execute `op` for core `c` at `now` if it is private right now:
    /// if it touches only state that no other core's op reads or writes,
    /// so that it commutes with every other core's op and may run ahead
    /// of the global `(time, core)` order. Returns what
    /// [`Machine::execute`] would, or `None` and changes nothing when the
    /// op is not private. A `Compute` is private on every backend, a load
    /// or store when the backend serves it from the core's own state
    /// ([`MemBackend::read_private`], [`MemBackend::write_private`]): on
    /// the incoherent machine an L1 store hit, or an L1 load hit outside
    /// an IEB epoch, looked up once. Nothing is private once a sanitizer,
    /// fault plan or trace is installed: those observe the global op
    /// order, and on such runs the answer costs one branch.
    #[inline]
    pub fn try_private(&mut self, c: CoreId, op: &Op, now: Cycle) -> Option<Exec> {
        if self.observed {
            return None;
        }
        let (value, lat) = match *op {
            Op::Compute(n) => (None, n),
            Op::Load(w) => {
                let (v, lat) = self.backend.read_private(c, w)?;
                (Some(v), lat)
            }
            Op::Store(w, v) => (None, self.backend.write_private(c, w, v)?),
            _ => return None,
        };
        debug_assert!(self.finished_at[c.0].is_none(), "op after Finish");
        self.active[c.0] = true;
        Some(self.rest(c, value, now, lat))
    }

    /// An op that completes after `lat` cycles, charged to the core's
    /// `Rest` category.
    #[inline]
    fn rest(&mut self, c: CoreId, value: Option<Word>, now: Cycle, lat: u64) -> Exec {
        self.ledgers[c.0].charge(StallCategory::Rest, lat);
        Exec::Done {
            value,
            end: now + lat,
        }
    }

    /// Execute `op` for core `c` whose local clock reads `now`.
    pub fn execute(&mut self, c: CoreId, op: &Op, now: Cycle) -> Exec {
        self.active[c.0] = true;
        let result = self.execute_inner(c, op, now);
        if self.trace.enabled() {
            let (end, blocked) = match result {
                Exec::Done { end, .. } => (end, false),
                Exec::Parked => (now, true),
            };
            self.trace.push(TraceEvent {
                core: c,
                start: now,
                end,
                op: op.clone(),
                blocked,
            });
        }
        result
    }

    fn execute_inner(&mut self, c: CoreId, op: &Op, now: Cycle) -> Exec {
        debug_assert!(self.finished_at[c.0].is_none(), "op after Finish");
        if self.has_checker {
            if let Some(chk) = self.backend.checker_mut() {
                chk.set_now(now);
            }
        }
        match *op {
            Op::Load(w) => {
                let (v, lat) = self.backend.read(c, w);
                self.rest(c, Some(v), now, lat)
            }
            Op::Store(w, v) => {
                let lat = self.backend.write(c, w, v);
                self.rest(c, None, now, lat)
            }
            Op::LoadUnc(w) => {
                let (v, lat) = self.backend.read_uncached(c, w);
                self.rest(c, Some(v), now, lat)
            }
            Op::StoreUnc(w, v) => {
                let lat = self.backend.write_uncached(c, w, v);
                self.rest(c, None, now, lat)
            }
            Op::Compute(n) => self.rest(c, None, now, n),
            Op::Coh(instr) => {
                let (lat, is_wb) = self.backend.exec_coh(c, instr);
                let cat = if is_wb {
                    StallCategory::Wb
                } else {
                    StallCategory::Inv
                };
                // charge(_, 0) is a no-op, so zero-latency backends (MESI,
                // reference) leave the WB/INV categories untouched.
                self.ledgers[c.0].charge(cat, lat);
                Exec::Done {
                    value: None,
                    end: now + lat,
                }
            }
            Op::MebBegin => {
                self.backend.meb_begin(c);
                Exec::Done {
                    value: None,
                    end: now,
                }
            }
            Op::IebBegin => {
                self.backend.ieb_begin(c);
                Exec::Done {
                    value: None,
                    end: now,
                }
            }
            Op::IebEnd => {
                self.backend.ieb_end(c);
                Exec::Done {
                    value: None,
                    end: now,
                }
            }
            Op::MarkRacy(w) => {
                if self.has_checker {
                    if let Some(chk) = self.backend.checker_mut() {
                        chk.mark_racy(w);
                    }
                }
                Exec::Done {
                    value: None,
                    end: now,
                }
            }
            Op::BarrierArrive(id) => {
                let arrive = now + self.sync_oneway(c, id) + self.sync_service();
                self.backend.traffic_mut().add(TrafficCategory::Sync, 1);
                let grants = self
                    .sync
                    .barrier_arrive(id, c, arrive)
                    .expect("barrier misuse");
                if grants.is_empty() {
                    self.park(c, now, StallCategory::Barrier)
                } else {
                    if self.has_checker {
                        let parts: Vec<usize> = grants.iter().map(|g| g.core.0).collect();
                        if let Some(chk) = self.backend.checker_mut() {
                            chk.on_barrier(id.0, &parts);
                        }
                    }
                    let end = self
                        .apply_grants(grants, id, c, now, StallCategory::Barrier)
                        .expect("last arriver is granted");
                    Exec::Done { value: None, end }
                }
            }
            Op::LockAcquire(id) => {
                let arrive = now + self.sync_oneway(c, id) + self.sync_service();
                self.backend.traffic_mut().add(TrafficCategory::Sync, 1);
                match self.sync.lock_acquire(id, c, arrive).expect("lock misuse") {
                    Some(g) => {
                        if self.has_checker {
                            if let Some(chk) = self.backend.checker_mut() {
                                chk.on_acquire(c.0, hic_check::SyncOp::LockAcquire, id.0);
                            }
                        }
                        let end = self
                            .apply_grants(vec![g], id, c, now, StallCategory::Lock)
                            .expect("own grant");
                        Exec::Done { value: None, end }
                    }
                    None => self.park(c, now, StallCategory::Lock),
                }
            }
            Op::LockRelease(id) => {
                let arrive = now + self.sync_oneway(c, id) + self.sync_service();
                self.backend.traffic_mut().add(TrafficCategory::Sync, 1);
                if self.has_checker {
                    if let Some(chk) = self.backend.checker_mut() {
                        chk.on_release(c.0, hic_check::SyncOp::LockRelease, id.0);
                    }
                }
                if let Some(g) = self
                    .sync
                    .lock_release(id, c, arrive)
                    .expect("release misuse")
                {
                    if self.has_checker {
                        let next = g.core.0;
                        if let Some(chk) = self.backend.checker_mut() {
                            chk.on_acquire(next, hic_check::SyncOp::LockAcquire, id.0);
                        }
                    }
                    self.apply_grants(vec![g], id, c, now, StallCategory::Lock);
                }
                // The releaser posts the release and continues.
                let end = arrive;
                self.ledgers[c.0].charge(StallCategory::Rest, end - now);
                Exec::Done { value: None, end }
            }
            Op::FlagSet(id) => {
                let arrive = now + self.sync_oneway(c, id) + self.sync_service();
                self.backend.traffic_mut().add(TrafficCategory::Sync, 1);
                let grants = self.sync.flag_set(id, arrive).expect("flag misuse");
                if self.has_checker {
                    let waiters: Vec<usize> = grants.iter().map(|g| g.core.0).collect();
                    if let Some(chk) = self.backend.checker_mut() {
                        chk.on_release(c.0, hic_check::SyncOp::FlagSet, id.0);
                        for t in waiters {
                            chk.on_acquire(t, hic_check::SyncOp::FlagWait, id.0);
                        }
                    }
                }
                self.apply_grants(grants, id, c, now, StallCategory::Lock);
                let end = arrive;
                self.ledgers[c.0].charge(StallCategory::Rest, end - now);
                Exec::Done { value: None, end }
            }
            Op::FlagClear(id) => {
                let arrive = now + self.sync_oneway(c, id) + self.sync_service();
                self.backend.traffic_mut().add(TrafficCategory::Sync, 1);
                self.sync.flag_clear(id).expect("flag misuse");
                self.ledgers[c.0].charge(StallCategory::Rest, arrive - now);
                Exec::Done {
                    value: None,
                    end: arrive,
                }
            }
            Op::FlagWait(id) => {
                let arrive = now + self.sync_oneway(c, id) + self.sync_service();
                self.backend.traffic_mut().add(TrafficCategory::Sync, 1);
                // Flag waits are charged as lock stall: both are blocking
                // waits on a peer's progress (Figure 9 has no separate
                // flag category).
                match self.sync.flag_wait(id, c, arrive).expect("flag misuse") {
                    Some(g) => {
                        if self.has_checker {
                            if let Some(chk) = self.backend.checker_mut() {
                                chk.on_acquire(c.0, hic_check::SyncOp::FlagWait, id.0);
                            }
                        }
                        let end = self
                            .apply_grants(vec![g], id, c, now, StallCategory::Lock)
                            .expect("own grant");
                        Exec::Done { value: None, end }
                    }
                    None => self.park(c, now, StallCategory::Lock),
                }
            }
            Op::Finish => {
                self.finished_at[c.0] = Some(now);
                Exec::Done {
                    value: None,
                    end: now,
                }
            }
        }
    }

    /// Is the core parked on a blocking sync op?
    pub fn is_parked(&self, c: CoreId) -> bool {
        self.parked.contains_key(&c.0)
    }

    /// Number of parked cores.
    pub fn parked_count(&self) -> usize {
        self.parked.len()
    }

    /// What a parked core is waiting on (None if not parked). Used by the
    /// runtime's deadlock diagnostics.
    pub fn parked_category(&self, c: CoreId) -> Option<StallCategory> {
        self.parked.get(&c.0).map(|&(_, cat)| cat)
    }

    /// Finish bookkeeping: aggregate stats once every core is done.
    ///
    /// The total is the max completion time over cores that issued
    /// [`Op::Finish`]; cores that never ran don't dilute it. A core that
    /// executed ops but never finished indicates a runtime bug (caught in
    /// debug builds).
    pub fn finish(&self) -> RunStats {
        if cfg!(debug_assertions) {
            for (c, (&active, finished)) in self.active.iter().zip(&self.finished_at).enumerate() {
                debug_assert!(
                    !active || finished.is_some(),
                    "core {c} executed ops but never issued Op::Finish"
                );
            }
        }
        self.collect_stats()
    }

    /// Finish bookkeeping for a run torn down by a [`RunError`]: cores
    /// may legitimately never have issued [`Op::Finish`] (they were
    /// parked, or unwound on teardown), so the never-finished check is
    /// skipped and the total covers only the cores that did finish.
    pub fn finish_after_failure(&self) -> RunStats {
        self.collect_stats()
    }

    fn collect_stats(&self) -> RunStats {
        let total = self
            .finished_at
            .iter()
            .flatten()
            .copied()
            .max()
            .unwrap_or(0);
        let mut resilience = self.backend.resilience();
        if let Some(fs) = &self.ack_faults {
            resilience += fs.stats;
        }
        RunStats {
            total_cycles: total,
            ledgers: self.ledgers.clone(),
            traffic: self.backend.traffic(),
            counters: self.backend.counters(),
            engine: EngineStats::default(),
            resilience,
        }
    }

    /// Value backdoor (for result checks).
    pub fn peek_word(&self, w: WordAddr) -> Word {
        self.backend.peek_word(w)
    }

    /// Memory backdoor (for initialization before the run).
    pub fn poke_word(&mut self, w: WordAddr, v: Word) {
        self.backend.poke_word(w, v);
    }
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("cores", &self.cfg.num_cores())
            .field("parked", &self.parked.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hic_core::{CohInstr, Target};
    use hic_mem::Addr;

    fn w(byte: u64) -> WordAddr {
        Addr(byte).word()
    }

    fn intra_inc() -> Machine {
        Machine::incoherent(MachineConfig::intra_block())
    }

    /// Mark every core that ran as finished at `now` so `finish()` can be
    /// called mid-scenario from unit tests.
    fn finish_active(m: &mut Machine, now: Cycle) {
        for c in 0..m.config().num_cores() {
            if m.active[c] && m.finished_at[c].is_none() && !m.is_parked(CoreId(c)) {
                m.execute(CoreId(c), &Op::Finish, now);
            }
        }
    }

    #[test]
    fn load_store_roundtrip_with_latency() {
        let mut m = intra_inc();
        let e = m.execute(CoreId(0), &Op::Store(w(0x100), 42), 0);
        let t1 = match e {
            Exec::Done { end, .. } => end,
            _ => panic!(),
        };
        assert!(t1 > 0);
        match m.execute(CoreId(0), &Op::Load(w(0x100)), t1) {
            Exec::Done {
                value: Some(v),
                end,
            } => {
                assert_eq!(v, 42);
                assert_eq!(end, t1 + m.config().l1_rt);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn barrier_parks_then_wakes_everyone() {
        let mut m = intra_inc();
        let b = m.alloc_barrier(3);
        assert_eq!(
            m.execute(CoreId(0), &Op::BarrierArrive(b), 100),
            Exec::Parked
        );
        assert_eq!(
            m.execute(CoreId(1), &Op::BarrierArrive(b), 200),
            Exec::Parked
        );
        assert_eq!(m.parked_count(), 2);
        assert_eq!(m.parked_category(CoreId(0)), Some(StallCategory::Barrier));
        assert_eq!(m.parked_category(CoreId(2)), None);
        let e = m.execute(CoreId(2), &Op::BarrierArrive(b), 300);
        let my_end = match e {
            Exec::Done { end, .. } => end,
            _ => panic!("last arriver completes"),
        };
        assert!(my_end >= 300);
        let wakeups = m.take_wakeups();
        assert_eq!(wakeups.len(), 2);
        for wk in &wakeups {
            assert!(wk.at >= 300, "no one resumes before the last arrival");
        }
        assert_eq!(m.parked_count(), 0);
        // Waiting time was charged to barrier stall.
        finish_active(&mut m, 1000);
        let stats = m.finish();
        assert!(
            stats.ledgers[0].barrier >= 200,
            "core 0 waited ~200+ cycles"
        );
    }

    #[test]
    fn lock_contention_charges_lock_stall_in_grant_order() {
        let mut m = intra_inc();
        let l = m.alloc_lock();
        // Core 0 gets it immediately.
        let e = m.execute(CoreId(0), &Op::LockAcquire(l), 0);
        assert!(matches!(e, Exec::Done { .. }));
        // Core 1 parks.
        assert_eq!(m.execute(CoreId(1), &Op::LockAcquire(l), 10), Exec::Parked);
        assert_eq!(m.parked_category(CoreId(1)), Some(StallCategory::Lock));
        // Core 0 releases at t=500; core 1 wakes after that.
        m.execute(CoreId(0), &Op::LockRelease(l), 500);
        let wk = m.take_wakeups();
        assert_eq!(wk.len(), 1);
        assert_eq!(wk[0].core, CoreId(1));
        assert!(wk[0].at > 500);
        finish_active(&mut m, 2000);
        let stats = m.finish();
        assert!(stats.ledgers[1].lock >= 490, "waited from 10 to past 500");
    }

    #[test]
    fn flag_set_wakes_waiters() {
        let mut m = intra_inc();
        let f = m.alloc_flag();
        assert_eq!(m.execute(CoreId(3), &Op::FlagWait(f), 50), Exec::Parked);
        m.execute(CoreId(0), &Op::FlagSet(f), 200);
        let wk = m.take_wakeups();
        assert_eq!(wk.len(), 1);
        assert_eq!(wk[0].core, CoreId(3));
        assert!(wk[0].at > 200);
        // A wait after the set sails through.
        let e = m.execute(CoreId(4), &Op::FlagWait(f), 300);
        assert!(matches!(e, Exec::Done { .. }));
    }

    #[test]
    fn coherent_machine_ignores_wb_inv() {
        let mut m = Machine::coherent(MachineConfig::intra_block());
        let e = m.execute(CoreId(0), &Op::Coh(CohInstr::wb_all()), 10);
        assert_eq!(
            e,
            Exec::Done {
                value: None,
                end: 10
            }
        );
        let e = m.execute(CoreId(0), &Op::Coh(CohInstr::inv_all()), 10);
        assert_eq!(
            e,
            Exec::Done {
                value: None,
                end: 10
            }
        );
        finish_active(&mut m, 10);
        let stats = m.finish();
        assert_eq!(stats.merged_ledger().wb, 0);
        assert_eq!(stats.merged_ledger().inv, 0);
    }

    #[test]
    fn reference_machine_ignores_wb_inv_and_is_fresh() {
        let mut m = Machine::reference(MachineConfig::intra_block());
        m.execute(CoreId(0), &Op::Store(w(0x300), 9), 0);
        let e = m.execute(CoreId(0), &Op::Coh(CohInstr::wb_all()), 10);
        assert_eq!(
            e,
            Exec::Done {
                value: None,
                end: 10
            }
        );
        // A different core reads the stored value with no WB in between.
        match m.execute(CoreId(7), &Op::Load(w(0x300)), 20) {
            Exec::Done { value: Some(v), .. } => assert_eq!(v, 9),
            other => panic!("unexpected {other:?}"),
        }
        finish_active(&mut m, 100);
        let stats = m.finish();
        assert_eq!(stats.merged_ledger().wb, 0);
        assert_eq!(stats.merged_ledger().inv, 0);
    }

    #[test]
    fn incoherent_wb_inv_charge_their_categories() {
        let mut m = intra_inc();
        m.execute(CoreId(0), &Op::Store(w(0x200), 1), 0);
        m.execute(
            CoreId(0),
            &Op::Coh(CohInstr::wb(Target::word(w(0x200)))),
            10,
        );
        m.execute(
            CoreId(0),
            &Op::Coh(CohInstr::inv(Target::word(w(0x200)))),
            20,
        );
        finish_active(&mut m, 100);
        let stats = m.finish();
        assert!(stats.ledgers[0].wb > 0);
        assert!(stats.ledgers[0].inv > 0);
    }

    #[test]
    fn finish_records_completion_and_total() {
        let mut m = intra_inc();
        m.execute(CoreId(0), &Op::Finish, 123);
        m.execute(CoreId(1), &Op::Finish, 456);
        let stats = m.finish();
        assert_eq!(stats.total_cycles, 456);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "never issued Op::Finish")]
    fn finish_catches_cores_that_ran_but_never_finished() {
        let mut m = intra_inc();
        m.execute(CoreId(0), &Op::Compute(10), 0);
        m.finish();
    }

    #[test]
    fn compute_advances_clock_and_rest() {
        let mut m = intra_inc();
        let e = m.execute(CoreId(2), &Op::Compute(77), 100);
        assert_eq!(
            e,
            Exec::Done {
                value: None,
                end: 177
            }
        );
        finish_active(&mut m, 177);
        let stats = m.finish();
        assert_eq!(stats.ledgers[2].rest, 77);
    }

    /// Every field a machine's stats report so far.
    fn stats(m: &Machine) -> impl PartialEq + std::fmt::Debug {
        let s = m.finish_after_failure();
        (
            s.total_cycles,
            s.ledgers,
            s.traffic,
            s.counters,
            s.resilience,
        )
    }

    #[test]
    fn try_private_runs_l1_hits_and_computes_until_observed() {
        let (a, b) = (w(0x100), w(0x200));
        let now = 300;
        // Core 0 holds `a`'s line in its L1 after one store.
        let fresh = || {
            let mut m = intra_inc();
            m.execute(CoreId(0), &Op::Store(a, 1), 0);
            m
        };
        // A private op runs exactly as `execute` runs it on a twin.
        let accepted = |setup: &dyn Fn() -> Machine, op: Op| {
            let (mut m, mut twin) = (setup(), setup());
            let got = m.try_private(CoreId(0), &op, now);
            assert_eq!(got, Some(twin.execute(CoreId(0), &op, now)), "{op:?}");
            assert_eq!(stats(&m), stats(&twin), "{op:?}");
        };
        // A refused attempt leaves the machine as it was: the op then
        // executes exactly as on a twin that never saw the attempt.
        let refused = |setup: &dyn Fn() -> Machine, c: usize, op: Op| {
            let (mut m, mut twin) = (setup(), setup());
            assert_eq!(m.try_private(CoreId(c), &op, now), None, "{op:?}");
            let got = m.execute(CoreId(c), &op, now);
            assert_eq!(got, twin.execute(CoreId(c), &op, now), "{op:?}");
            assert_eq!(stats(&m), stats(&twin), "{op:?}");
        };
        accepted(&fresh, Op::Compute(5));
        accepted(&fresh, Op::Load(a));
        accepted(&fresh, Op::Store(a, 2));
        refused(&fresh, 0, Op::Load(b));
        refused(&fresh, 0, Op::Store(b, 2));
        refused(&fresh, 1, Op::Load(a)); // another core's L1
        refused(&fresh, 0, Op::Coh(CohInstr::wb_all()));
        // Inside an IEB epoch a load hit may refresh from the L2; a store
        // hit stays private.
        let in_epoch = || {
            let mut m = fresh();
            m.execute(CoreId(0), &Op::IebBegin, 10);
            m
        };
        refused(&in_epoch, 0, Op::Load(a));
        accepted(&in_epoch, Op::Store(a, 2));
        // MESI: another core's write can take a line away.
        let mesi = || {
            let mut m = Machine::coherent(MachineConfig::intra_block());
            m.execute(CoreId(0), &Op::Store(a, 1), 0);
            m
        };
        accepted(&mesi, Op::Compute(5));
        refused(&mesi, 0, Op::Load(a));
        // A sanitizer, a fault plan or a trace observes the global order.
        let observers: [fn(&mut Machine); 3] = [
            |m| assert!(m.enable_check(CheckMode::Report, Vec::new())),
            |m| m.enable_faults(hic_fault::FaultPlan::zero(1)),
            |m| m.enable_trace(8),
        ];
        for observe in observers {
            let observed = || {
                let mut m = fresh();
                observe(&mut m);
                m
            };
            refused(&observed, 0, Op::Compute(5));
            refused(&observed, 0, Op::Load(a));
        }
    }

    #[test]
    fn uncached_ops_bypass_the_l1() {
        let mut m = intra_inc();
        // An uncached store then an uncached load round-trip the value
        // without ever allocating in any L1.
        m.execute(CoreId(0), &Op::StoreUnc(w(0x900), 77), 0);
        match m.execute(CoreId(1), &Op::LoadUnc(w(0x900)), 10) {
            Exec::Done {
                value: Some(v),
                end,
            } => {
                assert_eq!(v, 77, "uncached accesses are always fresh");
                assert!(end > 10, "uncached access costs a shared-cache round trip");
            }
            other => panic!("unexpected {other:?}"),
        }
        let sys = m.backend().as_incoherent().expect("incoherent machine");
        assert!(!sys.l1_holds(CoreId(0), w(0x900)));
        assert!(!sys.l1_holds(CoreId(1), w(0x900)));
    }

    #[test]
    fn uncached_ops_fresh_across_blocks() {
        let mut m = Machine::incoherent(MachineConfig::inter_block());
        m.execute(CoreId(0), &Op::StoreUnc(w(0xA00), 5), 0);
        match m.execute(CoreId(31), &Op::LoadUnc(w(0xA00)), 1) {
            Exec::Done { value: Some(v), .. } => assert_eq!(v, 5),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn zero_fault_plan_is_bit_identical_to_no_plan() {
        let run = |plan: Option<hic_fault::FaultPlan>| {
            let mut m = intra_inc();
            if let Some(p) = plan {
                m.enable_faults(p);
            }
            let b = m.alloc_barrier(2);
            m.poke_word(w(0x100), 1);
            m.execute(CoreId(0), &Op::Store(w(0x100), 7), 0);
            m.execute(CoreId(0), &Op::Coh(hic_core::CohInstr::wb_all()), 50);
            m.execute(CoreId(0), &Op::BarrierArrive(b), 400);
            m.execute(CoreId(1), &Op::BarrierArrive(b), 500);
            m.take_wakeups();
            m.execute(CoreId(1), &Op::Load(w(0x100)), 900);
            finish_active(&mut m, 2000);
            (m.finish(), m.peek_word(w(0x100)))
        };
        let (base, v0) = run(None);
        let (zero, v1) = run(Some(hic_fault::FaultPlan::zero(42)));
        assert_eq!(v0, v1);
        assert_eq!(base.total_cycles, zero.total_cycles);
        assert_eq!(base.traffic, zero.traffic);
        assert_eq!(base.ledgers, zero.ledgers);
        assert!(zero.resilience.is_zero());
    }

    #[test]
    fn ack_delays_are_injected_and_counted() {
        let plan = hic_fault::FaultPlan {
            ack_delay_period: 1, // delay every ack
            ack_delay_cycles: 25,
            ..hic_fault::FaultPlan::zero(7)
        };
        let mut base = intra_inc();
        let mut faulty = intra_inc();
        faulty.enable_faults(plan);
        for m in [&mut base, &mut faulty] {
            let b = m.alloc_barrier(2);
            m.execute(CoreId(0), &Op::BarrierArrive(b), 0);
            m.execute(CoreId(1), &Op::BarrierArrive(b), 10);
        }
        let wk_base = base.take_wakeups();
        let wk_faulty = faulty.take_wakeups();
        assert_eq!(wk_base.len(), 1);
        assert_eq!(wk_faulty.len(), 1);
        assert_eq!(wk_faulty[0].at, wk_base[0].at + 25, "ack arrives late");
        finish_active(&mut base, 1000);
        finish_active(&mut faulty, 1000);
        let stats = faulty.finish();
        assert!(stats.resilience.delayed_acks >= 2, "both grants delayed");
        assert_eq!(
            stats.resilience.ack_delay_cycles,
            25 * stats.resilience.delayed_acks
        );
        assert!(base.finish().resilience.is_zero());
    }

    #[test]
    fn sync_traffic_is_counted() {
        let mut m = intra_inc();
        let b = m.alloc_barrier(2);
        m.execute(CoreId(0), &Op::BarrierArrive(b), 0);
        m.execute(CoreId(1), &Op::BarrierArrive(b), 0);
        m.take_wakeups();
        finish_active(&mut m, 1000);
        assert!(m.finish().traffic.sync >= 4, "2 requests + 2 responses");
    }
}
