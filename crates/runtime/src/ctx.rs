//! The thread-side API: every memory access and synchronization of a
//! simulated application goes through a [`ThreadCtx`].
//!
//! The context translates high-level events (barrier, lock, flag,
//! epoch-boundary plans) into the op sequence mandated by the active
//! configuration — the paper's annotation methodology (§IV-A, §V-A):
//!
//! * barriers: `WB ALL` before, `INV ALL` after (incoherent configs);
//! * critical sections: `[WB ALL if OCC]`, `INV ALL` *before* the acquire,
//!   `WB ALL` before the release, `[INV ALL after release if OCC]`, with
//!   the MEB / IEB replacing the critical-section `ALL` operations under
//!   `B+M` / `B+I`;
//! * flags: `WB ALL` before a set, `INV ALL` after a completed wait;
//! * data races: per-word WB / INV around the racy accesses (Figure 6);
//! * model-2 epoch plans: global or level-adaptive WB/INV per Table II.
//!
//! Which WB/INV flavor each of these carries is not decided here: the
//! barrier, flag, lock and plan methods issue exactly the instructions
//! [`Config::sync_wb`], [`Config::sync_inv`], [`Config::plan_wb`] and
//! [`Config::plan_inv`] yield, the lowering `hic-lint` interprets too.
//! This module adds only where the sync op itself goes and the MEB/IEB
//! markers.

use std::cell::Cell;
use std::future::Future;
use std::rc::Rc;
use std::sync::Arc;

use hic_core::{CohInstr, Target};
use hic_machine::Op;
use hic_mem::{f32_to_word, Region, Word, WordAddr};
use hic_sim::{Cycle, ThreadId};
use hic_sync::SyncId;

use crate::config::Config;
use crate::engine::{Engine, OpFuture, Scheduler};
use crate::plan::{EpochPlan, PlanOverrides};

/// What data a synchronization operation moves on one side (the WB half
/// before the sync, or the INV half after it).
#[derive(Debug, Clone, Copy, Default)]
pub enum SyncData<'a> {
    /// Conservative default: everything (`WB ALL` / `INV ALL` flavors,
    /// §IV-A1).
    #[default]
    All,
    /// Nothing to move on this side (thread-private phase change, or the
    /// data travels through another mechanism such as epoch plans).
    None,
    /// Only these regions ("the programmer can often provide information
    /// to reduce WB and INV operations", §IV-A1).
    Regions(&'a [Region]),
}

/// Data-movement options for [`ThreadCtx::barrier_with`] — the single
/// choke point through which every barrier flavor passes, so tooling (the
/// `hic-check` sanitizer in particular) sees one sync primitive with
/// explicit carried WB/INV hints rather than three ad-hoc entry points.
#[derive(Debug, Clone, Copy, Default)]
pub struct BarrierOpts<'a> {
    /// Writeback carried *before* the arrival (producer side).
    pub wb: SyncData<'a>,
    /// Invalidation carried *after* the release (consumer side).
    pub inv: SyncData<'a>,
}

impl BarrierOpts<'static> {
    /// The model-1 default: `WB ALL` before, `INV ALL` after.
    pub fn all() -> Self {
        BarrierOpts {
            wb: SyncData::All,
            inv: SyncData::All,
        }
    }

    /// Pure ordering, no data movement on either side.
    pub fn none() -> Self {
        BarrierOpts {
            wb: SyncData::None,
            inv: SyncData::None,
        }
    }
}

impl<'a> BarrierOpts<'a> {
    /// Region-hinted movement; `None` on a side means "nothing to move".
    pub fn hinted(wb: Option<&'a [Region]>, inv: Option<&'a [Region]>) -> BarrierOpts<'a> {
        let side = |o: Option<&'a [Region]>| match o {
            Some(rs) => SyncData::Regions(rs),
            None => SyncData::None,
        };
        BarrierOpts {
            wb: side(wb),
            inv: side(inv),
        }
    }
}

/// Data-movement options for [`ThreadCtx::flag_set_opts`] /
/// [`ThreadCtx::flag_wait_opts`].
#[derive(Debug, Clone, Copy, Default)]
pub struct FlagOpts {
    /// `true` skips the carried `WB ALL` / `INV ALL` annotations: the raw
    /// synchronization primitive. The sync still *orders* the threads —
    /// which is exactly the bug pattern `examples/staleness.rs`
    /// demonstrates and the sanitizer detects.
    pub raw: bool,
}

impl FlagOpts {
    /// The model-1 default: annotations carried.
    pub fn annotated() -> FlagOpts {
        FlagOpts { raw: false }
    }

    /// No data movement, ordering only.
    pub fn raw() -> FlagOpts {
        FlagOpts { raw: true }
    }

    /// What the flag op carries on its data side: `ALL`, or nothing
    /// when raw.
    pub fn carried(self) -> SyncData<'static> {
        if self.raw {
            SyncData::None
        } else {
            SyncData::All
        }
    }
}

/// Handle to a barrier declared on the builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarrierId(pub(crate) SyncId);

/// Handle to a lock declared on the builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockId(pub(crate) usize);

/// Handle to a condition flag declared on the builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlagId(pub(crate) SyncId);

#[derive(Debug, Clone, Copy)]
pub(crate) struct LockInfo {
    pub id: SyncId,
    /// Does this lock guard a pattern with Outside-Critical-section
    /// Communication (§IV-A1, Figure 4d)? Unless the programmer states
    /// otherwise, the model must assume it does.
    pub occ: bool,
}

/// Immutable state shared by all thread contexts of one run.
pub(crate) struct RtShared {
    pub config: Config,
    pub locks: Vec<LockInfo>,
    pub nthreads: usize,
    pub scheduler: Scheduler,
    /// The incoherence sanitizer is attached: racy accessors emit
    /// `Op::MarkRacy` hints ahead of themselves (zero simulated cost,
    /// and never emitted when checking is off).
    pub checking: bool,
    /// Per-call-site plan substitutions (`hic-lint` optimizer output).
    pub overrides: Option<Arc<PlanOverrides>>,
    /// Watchdog: fail the run with [`RunError::Hang`] once any core's
    /// simulated clock exceeds this budget.
    pub watchdog_cycles: Option<Cycle>,
    /// Watchdog: fail the run with [`RunError::Hang`] once this much
    /// host wall-clock time has elapsed.
    pub watchdog_wall_ms: Option<u64>,
}

/// The per-thread handle applications program against.
///
/// Every operation that reaches the machine returns a future: awaiting
/// it hands the op to the run's executor, which executes it in global
/// simulated-time order (see [`crate::engine`]). The single-op data
/// accessors return the engine's op future itself; the operations that
/// lower to several ops (synchronization, plans) are `async fn`s. The
/// queries ([`ThreadCtx::tid`], [`ThreadCtx::nthreads`],
/// [`ThreadCtx::config`], [`ThreadCtx::thread`]) and [`ThreadCtx::tick`]
/// stay synchronous.
pub struct ThreadCtx {
    tid: usize,
    pub(crate) engine: Rc<Engine>,
    /// Compute cycles accumulated by [`ThreadCtx::tick`], flushed as one
    /// `Op::Compute` before the next real operation.
    pub(crate) pending_compute: Cell<u64>,
    /// Number of [`ThreadCtx::plan_wb`] calls issued so far — the call
    /// *site* index plan overrides are keyed by.
    wb_sites: Cell<usize>,
    /// Number of [`ThreadCtx::plan_inv`] calls issued so far.
    inv_sites: Cell<usize>,
}

impl ThreadCtx {
    pub(crate) fn new(tid: usize, engine: Rc<Engine>) -> ThreadCtx {
        ThreadCtx {
            tid,
            engine,
            pending_compute: Cell::new(0),
            wb_sites: Cell::new(0),
            inv_sites: Cell::new(0),
        }
    }

    fn shared(&self) -> &RtShared {
        &self.engine.shared
    }

    /// This thread's id (= its core id; one-to-one mapping, no migration).
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// Total number of threads in the run.
    pub fn nthreads(&self) -> usize {
        self.shared().nthreads
    }

    /// The active configuration.
    pub fn config(&self) -> Config {
        self.shared().config
    }

    fn coherent(&self) -> bool {
        self.shared().config.is_coherent()
    }

    /// Issue one op in program order (preceded by any deferred compute),
    /// discarding its value.
    fn issue(&self, op: Op) -> OpFuture<'_, ()> {
        OpFuture::new(self, op)
    }

    /// Issue each coherence instruction of a lowering, in order.
    async fn issue_coh(&self, instrs: impl Iterator<Item = CohInstr>) {
        for instr in instrs {
            self.issue(Op::Coh(instr)).await;
        }
    }

    /// Accumulate `cycles` of modeled computation cheaply; merged into a
    /// single `Compute` op immediately before the next real operation.
    /// Use this for per-element arithmetic costs in inner loops.
    pub fn tick(&self, cycles: u64) {
        self.pending_compute
            .set(self.pending_compute.get() + cycles);
    }

    // ------------------------------------------------------------------
    // Data accesses
    // ------------------------------------------------------------------

    /// Load a word.
    pub fn load(&self, w: WordAddr) -> impl Future<Output = Word> + '_ {
        OpFuture::new(self, Op::Load(w))
    }

    /// Store a word.
    pub fn store(&self, w: WordAddr, v: Word) -> impl Future<Output = ()> + '_ {
        self.issue(Op::Store(w, v))
    }

    /// Load element `i` of a region.
    pub fn read(&self, r: Region, i: u64) -> impl Future<Output = Word> + '_ {
        self.load(r.at(i))
    }

    /// Store element `i` of a region.
    pub fn write(&self, r: Region, i: u64, v: Word) -> impl Future<Output = ()> + '_ {
        self.store(r.at(i), v)
    }

    /// Load element `i` of a region as `f32`.
    pub fn read_f32(&self, r: Region, i: u64) -> impl Future<Output = f32> + '_ {
        OpFuture::new(self, Op::Load(r.at(i)))
    }

    /// Store element `i` of a region as `f32`.
    pub fn write_f32(&self, r: Region, i: u64, v: f32) -> impl Future<Output = ()> + '_ {
        self.write(r, i, f32_to_word(v))
    }

    /// Uncacheable load: served by the shared cache level, never
    /// allocated in the L1 (used by the MPI library, §IV).
    pub fn load_unc(&self, w: WordAddr) -> impl Future<Output = Word> + '_ {
        OpFuture::new(self, Op::LoadUnc(w))
    }

    /// Uncacheable store (see [`ThreadCtx::load_unc`]).
    pub fn store_unc(&self, w: WordAddr, v: Word) -> impl Future<Output = ()> + '_ {
        self.issue(Op::StoreUnc(w, v))
    }

    /// Model `cycles` of pure computation.
    pub async fn compute(&self, cycles: u64) {
        if cycles > 0 {
            self.issue(Op::Compute(cycles)).await;
        }
    }

    /// Issue a raw coherence-management instruction (escape hatch for
    /// programmer-refined annotations; no-op under HCC).
    pub async fn coh(&self, instr: CohInstr) {
        if !self.coherent() {
            self.issue(Op::Coh(instr)).await;
        }
    }

    // ------------------------------------------------------------------
    // Racy accesses (Figure 6)
    // ------------------------------------------------------------------

    /// Store that must become globally visible despite racing (the write
    /// side of Figure 6b): store + per-word WB.
    pub async fn racy_store(&self, w: WordAddr, v: Word) {
        if self.shared().checking {
            self.issue(Op::MarkRacy(w)).await;
        }
        self.store(w, v).await;
        if !self.coherent() {
            self.issue(Op::Coh(CohInstr::wb(Target::word(w)))).await;
        }
    }

    /// Load that must observe remote updates despite racing (the read side
    /// of Figure 6b): per-word INV + load.
    pub async fn racy_load(&self, w: WordAddr) -> Word {
        if self.shared().checking {
            self.issue(Op::MarkRacy(w)).await;
        }
        if !self.coherent() {
            self.issue(Op::Coh(CohInstr::inv(Target::word(w)))).await;
        }
        self.load(w).await
    }

    // ------------------------------------------------------------------
    // Synchronization with automatic annotation (programming model 1)
    // ------------------------------------------------------------------

    /// Global barrier with explicit data-movement options — the single
    /// entry point every barrier flavor reduces to.
    ///
    /// Under incoherent configurations the WB side issues immediately
    /// before the arrival and the INV side immediately after the release
    /// (§IV-A1); both operate globally (to L3 / from L2) on the
    /// inter-block machine. Coherent (HCC) runs ignore the options:
    /// hardware moves the data.
    pub async fn barrier_with(&self, b: BarrierId, opts: BarrierOpts<'_>) {
        let cfg = self.config();
        self.issue_coh(cfg.sync_wb(opts.wb)).await;
        self.issue(Op::BarrierArrive(b.0)).await;
        self.issue_coh(cfg.sync_inv(opts.inv)).await;
    }

    /// Global barrier with the default annotations: `WB ALL` immediately
    /// before, `INV ALL` immediately after (§IV-A1). Sugar for
    /// [`ThreadCtx::barrier_with`] with [`BarrierOpts::all`].
    pub async fn barrier(&self, b: BarrierId) {
        self.barrier_with(b, BarrierOpts::all()).await;
    }

    /// Acquire a lock, inserting the critical-section annotations of the
    /// active configuration.
    pub async fn lock(&self, l: LockId) {
        let info = self.shared().locks[l.0];
        let cfg = self.config();
        let (meb, ieb) = cfg
            .intra()
            .map_or((false, false), |c| (c.uses_meb(), c.uses_ieb()));
        let inter = cfg.inter().is_some();
        if info.occ {
            // Post everything written since the last full WB so
            // consumers of outside-critical-section data see it.
            self.issue_coh(cfg.sync_wb(SyncData::All)).await;
        }
        if ieb {
            // Lazy invalidation: first reads inside the critical section
            // refresh on demand.
            self.issue(Op::IebBegin).await;
        } else if !inter {
            // INV placed immediately *before* the acquire to keep the
            // critical section short (§IV-A1).
            self.issue_coh(cfg.sync_inv(SyncData::All)).await;
        }
        self.issue(Op::LockAcquire(info.id)).await;
        if inter {
            // Unlike the intra-block case, the INV must come *after* the
            // acquire: INV_L2 drops lines from the *shared* L2, and
            // same-block peers can legitimately re-fill it with
            // then-fresh (later stale) lines while this core waits in the
            // lock queue. The paper's "INV immediately before the
            // acquire" optimization (§IV-A1) relies on the invalidated
            // cache being private, which only holds for the L1.
            self.issue_coh(cfg.sync_inv(SyncData::All)).await;
        }
        if meb {
            self.issue(Op::MebBegin).await;
        }
    }

    /// Release a lock, inserting the exit annotations: post the critical
    /// section's writes (served by the MEB under B+M, since recording
    /// started at the acquire), release, and under OCC prepare to consume
    /// data produced outside earlier holders' critical sections.
    pub async fn unlock(&self, l: LockId) {
        let info = self.shared().locks[l.0];
        let cfg = self.config();
        if cfg.intra().is_some_and(|c| c.uses_ieb()) {
            self.issue(Op::IebEnd).await;
        }
        self.issue_coh(cfg.sync_wb(SyncData::All)).await;
        self.issue(Op::LockRelease(info.id)).await;
        if info.occ {
            self.issue_coh(cfg.sync_inv(SyncData::All)).await;
        }
    }

    /// Set a condition flag — the single entry point for both the
    /// annotated and raw variants. With `raw: false`, a `WB ALL` issues
    /// first so the waiter sees everything written before the set
    /// (§IV-A1, Figure 4c); with `raw: true` the set only orders.
    pub async fn flag_set_opts(&self, f: FlagId, opts: FlagOpts) {
        self.issue_coh(self.config().sync_wb(opts.carried())).await;
        self.issue(Op::FlagSet(f.0)).await;
    }

    /// Wait for a condition flag. With `raw: false`, an `INV ALL` issues
    /// after the wait completes so subsequent reads see the producer's
    /// data; with `raw: true` the wait only orders.
    pub async fn flag_wait_opts(&self, f: FlagId, opts: FlagOpts) {
        self.issue(Op::FlagWait(f.0)).await;
        self.issue_coh(self.config().sync_inv(opts.carried())).await;
    }

    /// Set a condition flag with the default annotations. Sugar for
    /// [`ThreadCtx::flag_set_opts`] with [`FlagOpts::annotated`].
    pub async fn flag_set(&self, f: FlagId) {
        self.flag_set_opts(f, FlagOpts::annotated()).await;
    }

    /// Wait for a condition flag with the default annotations. Sugar for
    /// [`ThreadCtx::flag_wait_opts`] with [`FlagOpts::annotated`].
    pub async fn flag_wait(&self, f: FlagId) {
        self.flag_wait_opts(f, FlagOpts::annotated()).await;
    }

    /// Clear a condition flag (no data movement implied).
    pub async fn flag_clear(&self, f: FlagId) {
        self.issue(Op::FlagClear(f.0)).await;
    }

    // ------------------------------------------------------------------
    // Epoch plans (programming model 2)
    // ------------------------------------------------------------------

    /// Execute the write-back half of an epoch plan (call at the *end* of
    /// a producing epoch, before the synchronization). When the builder
    /// installed [`PlanOverrides`], the override for this call site (if
    /// any) is issued instead of `plan`.
    pub async fn plan_wb(&self, plan: &EpochPlan) {
        let site = self.wb_sites.get();
        self.wb_sites.set(site + 1);
        let plan = match &self.shared().overrides {
            Some(o) => o.wb_at(self.tid, site).unwrap_or(plan),
            None => plan,
        };
        self.issue_coh(self.config().plan_wb(plan).map(|(_, instr)| instr))
            .await;
    }

    /// Execute the invalidation half of an epoch plan (call at the *start*
    /// of a consuming epoch, after the synchronization). Subject to
    /// [`PlanOverrides`] like [`ThreadCtx::plan_wb`].
    pub async fn plan_inv(&self, plan: &EpochPlan) {
        let site = self.inv_sites.get();
        self.inv_sites.set(site + 1);
        let plan = match &self.shared().overrides {
            Some(o) => o.inv_at(self.tid, site).unwrap_or(plan),
            None => plan,
        };
        self.issue_coh(self.config().plan_inv(plan).map(|(_, instr)| instr))
            .await;
    }

    /// An inter-block barrier *without* implicit global data movement:
    /// model-2 programs move data via plans, the barrier only orders.
    pub async fn plan_barrier(&self, b: BarrierId) {
        self.barrier_with(b, BarrierOpts::none()).await;
    }

    /// Convenience: full model-2 epoch boundary — the producing side of
    /// `plan`, the barrier, then the consuming side.
    pub async fn epoch_boundary(&self, b: BarrierId, plan: &EpochPlan) {
        self.plan_wb(plan).await;
        self.plan_barrier(b).await;
        self.plan_inv(plan).await;
    }

    /// Peer thread id helper.
    pub fn thread(&self, t: usize) -> ThreadId {
        ThreadId(t)
    }

    pub(crate) fn finish(&self) -> OpFuture<'_, ()> {
        self.issue(Op::Finish)
    }
}
