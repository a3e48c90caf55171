//! Materialize a [`CaseDesc`] into the two artifacts under audit: the
//! declarative [`ProgramRecord`] `hic-lint` verifies and the runnable
//! program the backends execute. Both are driven by the same description,
//! declare their allocations and sync objects through one `setup`, and
//! share [`plans_for`] for every `plan_wb` / `plan_inv` call site, so the
//! record cannot drift from the run — the precondition for using
//! lint-vs-sanitizer disagreement as a soundness signal.
//!
//! Program shape (per thread `t`, `n` threads, `R` rounds, slice `W`):
//!
//! 1. warm-up: read every other thread's `data` slice (captures copies
//!    a missing INV would leave stale), then a global plan-barrier;
//! 2. optional racy block: threads 0 and 1 `racy_store` one word of the
//!    `racy` region, the last thread `racy_load`s it (value discarded);
//! 3. per round: write own slice → `plan_wb` (per-edge WB ops) → the
//!    round's sync shape (global barrier / raw per-edge flags / k-of-n
//!    sub-barrier) → `plan_inv` (per-edge INV ops) → read each consumed
//!    sub-range, write the sum into `out[t*R + r]` → closing global
//!    plan-barrier (orders next round's overwrites after this round's
//!    reads);
//! 4. a final fully-annotated barrier (`WB ALL` / `INV ALL`) so every
//!    backend's final state is host-peekable: `peek` deliberately
//!    ignores L1-dirty data, and the closing `WB ALL` drains it.
//!
//! A stale read therefore persists into the `out` region (the sums),
//! which is what the cross-backend memory comparison checks; the racy
//! word is intentionally schedule-dependent and lives in its own
//! excluded region.

use hic_mem::Region;
use hic_runtime::{
    BarrierId, CheckMode, CommOp, Config, Diagnostics, EpochPlan, FaultPlan, FlagId, FlagOpts,
    PlanOverrides, ProgramBuilder, ProgramRecord, RunError,
};
use hic_sim::{ThreadId, TopologyBuilder};

use crate::desc::{CaseDesc, MutKind, SyncShape};

/// Which backend executes the case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The incoherent scheme under audit (`desc.scheme`).
    Subject,
    /// Hierarchical directory MESI (`InterConfig::Hcc`).
    Mesi,
    /// Update-based Dragon.
    Dragon,
    /// The flat always-fresh reference oracle.
    Reference,
}

/// One dynamic execution of a case.
#[derive(Debug, Clone)]
pub struct DynOutcome {
    /// Typed run failure, if any (watchdog hang, deadlock, ...).
    pub error: Option<String>,
    pub diag: Diagnostics,
    /// Final readable `data` region (empty when the run failed).
    pub data: Vec<u32>,
    /// Final readable `out` region (the per-round consumer sums).
    pub out: Vec<u32>,
    /// Epoch-checkpoint rollbacks charged during the run (nonzero only
    /// under a corrupting-but-recoverable fault plan).
    pub rollbacks: u64,
}

/// Cycle budget generous enough for every generated shape; a run that
/// exceeds it is a hang, reported as a typed error, never a stuck fuzzer.
const WATCHDOG_CYCLES: u64 = 50_000_000;
const WATCHDOG_WALL_MS: u64 = 30_000;

/// Deterministic per-word value written by thread `t` in round `r`.
fn val(r: usize, t: usize, i: u64) -> u32 {
    (r as u32 + 1) * 1_000_000 + t as u32 * 1_000 + i as u32
}

/// The WB and INV plans thread `t` passes in round `r` — including the
/// case's mutation. The single shared definition both the runnable
/// program and the record call.
pub fn plans_for(desc: &CaseDesc, data: Region, t: usize, r: usize) -> (EpochPlan, EpochPlan) {
    let slice_range = |p: usize, lo: u64, hi: u64| {
        data.slice(p as u64 * desc.slice + lo, p as u64 * desc.slice + hi)
    };
    let mut wb = EpochPlan::new();
    let mut inv = EpochPlan::new();
    // (side, plan-local index) of the mutation's target op, when thread
    // `t` owns it in this round.
    let mut target: Option<(bool, usize)> = None;
    let (mut wb_idx, mut inv_idx) = (0usize, 0usize);
    for (ei, e) in desc.rounds[r].edges.iter().enumerate() {
        let mutated = desc
            .mutation
            .as_ref()
            .is_some_and(|m| m.round == r && m.edge == ei);
        if e.p == t {
            wb = wb.with_wb(CommOp::known(slice_range(e.p, e.lo, e.hi), ThreadId(e.c)));
            if mutated && desc.mutation.as_ref().unwrap().wb {
                target = Some((true, wb_idx));
            }
            wb_idx += 1;
        }
        if e.c == t {
            inv = inv.with_inv(CommOp::known(slice_range(e.p, e.lo, e.hi), ThreadId(e.p)));
            if mutated && !desc.mutation.as_ref().unwrap().wb {
                target = Some((false, inv_idx));
            }
            inv_idx += 1;
        }
    }
    if let (Some((side, idx)), Some(m)) = (target, &desc.mutation) {
        let plan = if side { &mut wb } else { &mut inv };
        match m.kind {
            MutKind::Delete => {
                plan.delete_op(side, idx);
            }
            MutKind::Duplicate => {
                plan.duplicate_op(side, idx);
            }
            MutKind::Widen => {
                plan.widen_op(side, idx, 0, m.amount);
            }
            MutKind::Narrow => {
                plan.narrow_op(side, idx, 0, m.amount);
            }
        }
    }
    (wb, inv)
}

/// Threads participating in round `r` (producers and consumers).
fn participants(desc: &CaseDesc, r: usize) -> Vec<usize> {
    let mut ps: Vec<usize> = Vec::new();
    for e in &desc.rounds[r].edges {
        for t in [e.p, e.c] {
            if !ps.contains(&t) {
                ps.push(t);
            }
        }
    }
    ps.sort_unstable();
    ps
}

/// The scheme config on the case's topology (for `backend`).
fn config_for(desc: &CaseDesc, backend: Backend) -> Result<Config, String> {
    let topo = TopologyBuilder::new(desc.blocks, desc.cores_per_block)
        .validate()
        .map_err(|e| format!("topology: {e:?}"))?;
    let scheme = match backend {
        Backend::Subject | Backend::Reference => desc.scheme,
        Backend::Mesi => hic_runtime::InterConfig::Hcc,
        Backend::Dragon => hic_runtime::InterConfig::Dragon,
    };
    Config::Inter(scheme)
        .with_topology(topo)
        .map_err(|e| format!("config: {e:?}"))
}

/// The allocations and sync objects of a case, declared in one order.
struct CaseSetup {
    data: Region,
    out: Region,
    racy: Option<Region>,
    /// The global barrier every thread joins.
    bar: BarrierId,
    /// Round `r`'s k-of-n sub-barrier, when the round uses one.
    sub_bars: Vec<Option<BarrierId>>,
    /// Round `r`'s per-edge flags, when the round syncs by flags.
    flags: Vec<Vec<FlagId>>,
}

/// Builder for `backend` holding the case's allocations and sync objects.
/// Shared by [`record_of`] and [`run_dynamic`], as the apps share their
/// `setup()`, so the record names exactly the addresses and sync ids the
/// run uses.
fn setup(desc: &CaseDesc, backend: Backend) -> Result<(ProgramBuilder, CaseSetup), String> {
    let config = config_for(desc, backend)?;
    let n = desc.threads as u64;
    let mut p = if backend == Backend::Reference {
        ProgramBuilder::with_reference_backend(config)
    } else {
        ProgramBuilder::new(config)
    };
    let data = p.alloc_named("data", n * desc.slice);
    let out = p.alloc_named("out", n * desc.rounds.len() as u64);
    let racy = desc.racy.then(|| p.alloc_named("racy", 4));
    let bar = p.barrier_of(desc.threads);
    let sub_bars = (0..desc.rounds.len())
        .map(|r| {
            (desc.rounds[r].sync == SyncShape::SubBarrier)
                .then(|| p.barrier_of(participants(desc, r).len()))
        })
        .collect();
    let flags = desc
        .rounds
        .iter()
        .map(|round| match round.sync {
            SyncShape::Flags => round.edges.iter().map(|_| p.flag()).collect(),
            _ => Vec::new(),
        })
        .collect();
    let s = CaseSetup {
        data,
        out,
        racy,
        bar,
        sub_bars,
        flags,
    };
    Ok((p, s))
}

/// Build the declarative record of a case (what `hic-lint` verifies).
pub fn record_of(desc: &CaseDesc) -> Result<ProgramRecord, String> {
    let (p, s) = setup(desc, Backend::Subject)?;
    let (data, bar) = (s.data, s.bar);
    let n = desc.threads;
    let mut rec = p.record(n);
    rec.host_reads(data);
    rec.host_reads(s.out);
    let slice_of = |o: usize| data.slice(o as u64 * desc.slice, (o as u64 + 1) * desc.slice);
    for t in 0..n {
        let mut th = rec.thread(t);
        for o in 0..n {
            if o != t {
                th.reads(slice_of(o));
            }
        }
        th.plan_barrier(bar);
        if let Some(racy) = s.racy {
            // Reads before writes (DEF-USE convention) — relevant when
            // n == 2 and thread 1 is both racy writer and racy reader.
            if t == n - 1 {
                th.reads(racy.slice(0, 1));
            }
            if t == 0 || t == 1 {
                th.writes(racy.slice(0, 1));
            }
        }
        for (r, round) in desc.rounds.iter().enumerate() {
            th.writes(slice_of(t));
            let (wb, inv) = plans_for(desc, data, t, r);
            th.plan_wb(&wb);
            match round.sync {
                SyncShape::Barrier => {
                    th.plan_barrier(bar);
                }
                SyncShape::SubBarrier => {
                    if participants(desc, r).contains(&t) {
                        th.plan_barrier(s.sub_bars[r].unwrap());
                    }
                }
                SyncShape::Flags => {
                    for (ei, e) in round.edges.iter().enumerate() {
                        if e.p == t {
                            th.flag_set(s.flags[r][ei], true);
                        }
                    }
                    for (ei, e) in round.edges.iter().enumerate() {
                        if e.c == t {
                            th.flag_wait(s.flags[r][ei], true);
                        }
                    }
                }
            }
            th.plan_inv(&inv);
            let mut consumed = false;
            for e in &round.edges {
                if e.c == t {
                    th.reads(data.slice(
                        e.p as u64 * desc.slice + e.lo,
                        e.p as u64 * desc.slice + e.hi,
                    ));
                    consumed = true;
                }
            }
            if consumed {
                let o = t as u64 * desc.rounds.len() as u64 + r as u64;
                th.writes(s.out.slice(o, o + 1));
            }
            th.plan_barrier(bar);
        }
        th.barrier(bar);
    }
    Ok(rec)
}

/// Execute a case on one backend.
pub fn run_dynamic(
    desc: &CaseDesc,
    backend: Backend,
    check: CheckMode,
    fault: Option<FaultPlan>,
    overrides: Option<PlanOverrides>,
) -> Result<DynOutcome, String> {
    let (mut p, s) = setup(desc, backend)?;
    p.check_mode(check);
    p.watchdog_cycles(WATCHDOG_CYCLES);
    p.watchdog_wall_ms(WATCHDOG_WALL_MS);
    if let Some(f) = fault {
        p.fault_plan(f);
    }
    if let Some(o) = overrides {
        p.override_plans(o);
    }
    let (data, out, bar) = (s.data, s.out, s.bar);
    let n = desc.threads;

    let d = desc.clone();
    let outcome = p.run_tasks(n, async move |ctx| {
        let t = ctx.tid();
        let n = d.threads;
        for o in 0..n {
            if o != t {
                for i in 0..d.slice {
                    ctx.read(data, o as u64 * d.slice + i).await;
                }
            }
        }
        ctx.plan_barrier(bar).await;
        if let Some(racy) = s.racy {
            if t == 0 {
                ctx.racy_store(racy.at(0), 1_111).await;
            }
            if t == 1 {
                ctx.racy_store(racy.at(0), 2_222).await;
            }
            if t == n - 1 {
                let _ = ctx.racy_load(racy.at(0)).await;
            }
        }
        for (r, round) in d.rounds.iter().enumerate() {
            for i in 0..d.slice {
                ctx.write(data, t as u64 * d.slice + i, val(r, t, i)).await;
            }
            let (wb, inv) = plans_for(&d, data, t, r);
            ctx.plan_wb(&wb).await;
            match round.sync {
                SyncShape::Barrier => ctx.plan_barrier(bar).await,
                SyncShape::SubBarrier => {
                    if participants(&d, r).contains(&t) {
                        ctx.plan_barrier(s.sub_bars[r].unwrap()).await;
                    }
                }
                SyncShape::Flags => {
                    for (ei, e) in round.edges.iter().enumerate() {
                        if e.p == t {
                            ctx.flag_set_opts(s.flags[r][ei], FlagOpts::raw()).await;
                        }
                    }
                    for (ei, e) in round.edges.iter().enumerate() {
                        if e.c == t {
                            ctx.flag_wait_opts(s.flags[r][ei], FlagOpts::raw()).await;
                        }
                    }
                }
            }
            ctx.plan_inv(&inv).await;
            let mut sum = 0u32;
            let mut consumed = false;
            for e in &round.edges {
                if e.c == t {
                    for i in e.lo..e.hi {
                        sum = sum.wrapping_add(ctx.read(data, e.p as u64 * d.slice + i).await);
                    }
                    consumed = true;
                }
            }
            if consumed {
                ctx.write(out, t as u64 * d.rounds.len() as u64 + r as u64, sum)
                    .await;
            }
            ctx.plan_barrier(bar).await;
        }
        ctx.barrier(bar).await;
    });

    let error = outcome.result().err().map(render_err);
    let (data_mem, out_mem) = if error.is_none() {
        (outcome.peek_all(data), outcome.peek_all(out))
    } else {
        (Vec::new(), Vec::new())
    };
    Ok(DynOutcome {
        error,
        diag: outcome.diagnostics().clone(),
        data: data_mem,
        out: out_mem,
        rollbacks: outcome.stats().resilience.rollbacks,
    })
}

fn render_err(e: &RunError) -> String {
    format!("{e:?}")
}
