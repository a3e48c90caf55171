//! Declarative program records for static analysis.
//!
//! A [`ProgramRecord`] describes a model-2 program *without running it*:
//! per thread, the ordered sequence of epoch-level events — region read /
//! write summaries, the `EpochPlan` passed to each `plan_wb` / `plan_inv`
//! call site, and the synchronization operations (barriers with their
//! carried [`SyncData`] halves, flag sets / waits /
//! clears). `hic-lint` consumes the record to prove WB/INV sufficiency
//! and to compute minimized [`PlanOverrides`](crate::PlanOverrides) the
//! runtime swaps in at the same call sites.
//!
//! A record speaks the run's vocabulary: a [`RecSync`] lends itself as a
//! `SyncData`, so `hic-lint` lowers each event through the same
//! [`Config`] functions `ThreadCtx` issues from ([`Config::sync_wb`],
//! [`Config::plan_wb`], ...), not through a copy of their rules.
//!
//! The record's event order per thread must match the program's dynamic
//! order, and in particular the number and order of `plan_wb` /
//! `plan_inv` calls must match exactly — site `k` of the record is site
//! `k` of the run. Apps build both from the same loop structure so they
//! cannot drift; [`ProgramRecord::plan_sites`] exposes the counts so
//! harnesses can cross-check.

use hic_mem::{Region, WordAddr};

use crate::config::Config;
use crate::ctx::{BarrierId, FlagId, SyncData};
use crate::plan::EpochPlan;

/// Owned mirror of [`crate::SyncData`]: what one side of a sync op moves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecSync {
    /// `WB ALL` / `INV ALL`.
    All,
    /// Nothing moves on this side.
    None,
    /// Only these regions.
    Regions(Vec<Region>),
}

impl<'a> From<&'a RecSync> for SyncData<'a> {
    fn from(s: &'a RecSync) -> SyncData<'a> {
        match s {
            RecSync::All => SyncData::All,
            RecSync::None => SyncData::None,
            RecSync::Regions(rs) => SyncData::Regions(rs),
        }
    }
}

/// One recorded per-thread event.
#[derive(Debug, Clone, PartialEq)]
pub enum RecEvent {
    /// The thread reads every word of the region in this epoch. Declare
    /// reads *before* writes of the same epoch (the paper's DEF-USE
    /// convention: uses refer to values from before the epoch's defs).
    Reads(Region),
    /// The thread writes every word of the region in this epoch.
    Writes(Region),
    /// A `plan_wb` call site with the plan the program passes.
    PlanWb(EpochPlan),
    /// A `plan_inv` call site with the plan the program passes.
    PlanInv(EpochPlan),
    /// A barrier arrival with its carried data-movement halves.
    Barrier {
        bar: usize,
        wb: RecSync,
        inv: RecSync,
    },
    /// A flag set (release side); `raw` skips the carried `WB ALL`.
    FlagSet { flag: usize, raw: bool },
    /// A flag wait (acquire side); `raw` skips the carried `INV ALL`.
    FlagWait { flag: usize, raw: bool },
    /// A flag clear (no data movement, no ordering).
    FlagClear { flag: usize },
}

/// A whole recorded program: the static input to `hic-lint`.
#[derive(Debug, Clone)]
pub struct ProgramRecord {
    pub config: Config,
    pub nthreads: usize,
    /// Allocation map (region, name) — findings report `name[index]`.
    pub regions: Vec<(Region, String)>,
    /// Barriers declared on the builder: (raw sync id, participants).
    pub barriers: Vec<(usize, usize)>,
    /// Regions the host peeks after the run (verification readback).
    /// WB ops covering them are pinned: the optimizer never prunes or
    /// downgrades them, because `peek` only sees data that left the L1s.
    pub host_reads: Vec<Region>,
    /// Per-thread event sequences.
    pub threads: Vec<Vec<RecEvent>>,
}

impl ProgramRecord {
    /// An empty record (normally obtained via
    /// [`crate::ProgramBuilder::record`], which seeds config, regions and
    /// barriers from the builder).
    pub fn new(config: Config, nthreads: usize) -> ProgramRecord {
        ProgramRecord {
            config,
            nthreads,
            regions: Vec::new(),
            barriers: Vec::new(),
            host_reads: Vec::new(),
            threads: vec![Vec::new(); nthreads],
        }
    }

    /// Cursor for appending thread `t`'s events in program order.
    pub fn thread(&mut self, t: usize) -> RecThread<'_> {
        RecThread {
            events: &mut self.threads[t],
        }
    }

    /// Declare that the host peeks `r` after the run (pins its WBs).
    pub fn host_reads(&mut self, r: Region) {
        self.host_reads.push(r);
    }

    /// Participant count of barrier `bar` (raw sync id).
    pub fn barrier_participants(&self, bar: usize) -> Option<usize> {
        self.barriers
            .iter()
            .find(|(id, _)| *id == bar)
            .map(|&(_, p)| p)
    }

    /// `name[index]` of the allocation containing `w`, if any.
    pub fn locate(&self, w: WordAddr) -> Option<(&str, u64)> {
        self.regions
            .iter()
            .find(|(r, _)| r.contains(w))
            .map(|(r, name)| (name.as_str(), w.0 - r.start.0))
    }

    /// Per-thread `(plan_wb, plan_inv)` call-site counts — the shape a
    /// [`PlanOverrides`](crate::PlanOverrides) for this record must have.
    pub fn plan_sites(&self) -> Vec<(usize, usize)> {
        self.threads
            .iter()
            .map(|evs| {
                let wb = evs
                    .iter()
                    .filter(|e| matches!(e, RecEvent::PlanWb(_)))
                    .count();
                let inv = evs
                    .iter()
                    .filter(|e| matches!(e, RecEvent::PlanInv(_)))
                    .count();
                (wb, inv)
            })
            .collect()
    }

    /// Total planned WB/INV ops across every plan call site.
    pub fn num_plan_ops(&self) -> usize {
        self.threads
            .iter()
            .flatten()
            .map(|ev| match ev {
                RecEvent::PlanWb(p) => p.wb.len(),
                RecEvent::PlanInv(p) => p.inv.len(),
                _ => 0,
            })
            .sum()
    }

    /// Every planned WB/INV op in the record, in (thread, program-order)
    /// order — the mutation space a fuzzing harness enumerates. Each ref
    /// addresses one [`crate::CommOp`] inside one plan call site.
    pub fn plan_op_refs(&self) -> Vec<PlanOpRef> {
        let mut out = Vec::new();
        for (t, evs) in self.threads.iter().enumerate() {
            let (mut wb_site, mut inv_site) = (0usize, 0usize);
            for ev in evs {
                match ev {
                    RecEvent::PlanWb(plan) => {
                        for index in 0..plan.wb.len() {
                            out.push(PlanOpRef {
                                thread: t,
                                is_wb: true,
                                site: wb_site,
                                index,
                            });
                        }
                        wb_site += 1;
                    }
                    RecEvent::PlanInv(plan) => {
                        for index in 0..plan.inv.len() {
                            out.push(PlanOpRef {
                                thread: t,
                                is_wb: false,
                                site: inv_site,
                                index,
                            });
                        }
                        inv_site += 1;
                    }
                    _ => {}
                }
            }
        }
        out
    }

    /// Mutable access to thread `t`'s `site`-th `plan_wb` (`wb = true`)
    /// or `plan_inv` plan, for in-place mutation. `None` when the thread
    /// or site does not exist.
    pub fn plan_mut(&mut self, t: usize, site: usize, wb: bool) -> Option<&mut EpochPlan> {
        let mut seen = 0usize;
        for ev in self.threads.get_mut(t)? {
            let plan = match ev {
                RecEvent::PlanWb(p) if wb => p,
                RecEvent::PlanInv(p) if !wb => p,
                _ => continue,
            };
            if seen == site {
                return Some(plan);
            }
            seen += 1;
        }
        None
    }
}

/// Identity of one planned op inside a [`ProgramRecord`]: thread `t`'s
/// `site`-th `plan_wb`/`plan_inv` call, op `index` within that plan's
/// WB (resp. INV) vector. Produced by [`ProgramRecord::plan_op_refs`];
/// resolves through [`ProgramRecord::plan_mut`] +
/// [`EpochPlan::side`](crate::EpochPlan::side).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanOpRef {
    pub thread: usize,
    pub is_wb: bool,
    pub site: usize,
    pub index: usize,
}

/// Append-only cursor mirroring the [`crate::ThreadCtx`] API, so a
/// record-building function reads like the thread body it describes.
pub struct RecThread<'a> {
    events: &'a mut Vec<RecEvent>,
}

impl RecThread<'_> {
    /// The epoch reads every word of `r` (empty regions are dropped).
    pub fn reads(&mut self, r: Region) -> &mut Self {
        if r.words > 0 {
            self.events.push(RecEvent::Reads(r));
        }
        self
    }

    /// The epoch writes every word of `r` (empty regions are dropped).
    pub fn writes(&mut self, r: Region) -> &mut Self {
        if r.words > 0 {
            self.events.push(RecEvent::Writes(r));
        }
        self
    }

    /// Mirror of [`crate::ThreadCtx::plan_wb`].
    pub fn plan_wb(&mut self, plan: &EpochPlan) -> &mut Self {
        self.events.push(RecEvent::PlanWb(plan.clone()));
        self
    }

    /// Mirror of [`crate::ThreadCtx::plan_inv`].
    pub fn plan_inv(&mut self, plan: &EpochPlan) -> &mut Self {
        self.events.push(RecEvent::PlanInv(plan.clone()));
        self
    }

    /// Mirror of [`crate::ThreadCtx::barrier`] (`WB ALL` / `INV ALL`).
    pub fn barrier(&mut self, b: BarrierId) -> &mut Self {
        self.barrier_with(b, RecSync::All, RecSync::All)
    }

    /// Mirror of [`crate::ThreadCtx::plan_barrier`] (ordering only).
    pub fn plan_barrier(&mut self, b: BarrierId) -> &mut Self {
        self.barrier_with(b, RecSync::None, RecSync::None)
    }

    /// Mirror of [`crate::ThreadCtx::barrier_with`].
    pub fn barrier_with(&mut self, b: BarrierId, wb: RecSync, inv: RecSync) -> &mut Self {
        self.events.push(RecEvent::Barrier {
            bar: (b.0).0,
            wb,
            inv,
        });
        self
    }

    /// Mirror of [`crate::ThreadCtx::epoch_boundary`].
    pub fn epoch_boundary(&mut self, b: BarrierId, plan: &EpochPlan) -> &mut Self {
        self.plan_wb(plan).plan_barrier(b).plan_inv(plan)
    }

    /// Mirror of [`crate::ThreadCtx::flag_set`] /
    /// [`crate::ThreadCtx::flag_set_opts`].
    pub fn flag_set(&mut self, f: FlagId, raw: bool) -> &mut Self {
        self.events.push(RecEvent::FlagSet { flag: (f.0).0, raw });
        self
    }

    /// Mirror of [`crate::ThreadCtx::flag_wait`] /
    /// [`crate::ThreadCtx::flag_wait_opts`].
    pub fn flag_wait(&mut self, f: FlagId, raw: bool) -> &mut Self {
        self.events.push(RecEvent::FlagWait { flag: (f.0).0, raw });
        self
    }

    /// Mirror of [`crate::ThreadCtx::flag_clear`].
    pub fn flag_clear(&mut self, f: FlagId) -> &mut Self {
        self.events.push(RecEvent::FlagClear { flag: (f.0).0 });
        self
    }
}
