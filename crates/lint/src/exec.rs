//! The abstract interpreter behind `hic-lint`.
//!
//! A [`ProgramRecord`] is lowered to per-thread streams of abstract
//! operations — region reads/writes, WB/INV instructions, and sync ops.
//! The instructions are exactly the ones [`ThreadCtx`](hic_runtime::ThreadCtx)
//! issues: each event goes through the same `Config` lowering
//! (`Config::sync_wb` / `sync_inv` for barriers and flags,
//! `Config::plan_wb` / `plan_inv` for plan call sites), and each
//! instruction's scope resolves through the same
//! [`ThreadMap::wb_is_global`] / [`ThreadMap::inv_is_global`] the
//! incoherent machine uses. The streams are interpreted over an
//! abstract memory model that mirrors the machine's *visibility*
//! semantics without its timing:
//!
//! * copies are line-granular (fills and INV drops move whole lines, as
//!   `fetch_into_l1` / `exec_inv` do), values word-granular;
//! * a WB pushes a thread's dirty words below its L1: into the block's
//!   L2 when it holds the line, else straight to the global level
//!   (`push_below_l1`); global scopes additionally drain the block L2's
//!   dirty copies downward (`exec_wb`);
//! * an INV force-writes-back dirty lines before dropping them, and
//!   global scopes also drop the block L2's copies (`exec_inv`);
//! * evictions are **not** modeled — every fill stays resident. Static
//!   staleness is therefore a superset of what any timed run can observe
//!   (an eviction can only push data *further down*, never resurrect a
//!   stale copy), so a clean lint is sound and a finding is a real plan
//!   deficiency, not a timing artifact.
//!
//! Ordering and attribution are the dynamic sanitizer's own: the
//! interpreter drives a [`HappensBefore`] from `hic-check`, stamping each
//! sync op with its sync-step counter where the sanitizer stamps the
//! cycle. A read is checked only when a sync path orders the write
//! before it, and a stale checked read is attributed by
//! [`HappensBefore::stale_read`]: to the producer side (the value never
//! reached the reader/writer's common level → missing WB) or the
//! consumer side (it did → missing INV), with the sync op that should
//! have carried the fix. The two tools differ only in their memory
//! models.
//!
//! Threads are scheduled run-to-block round-robin: barriers park until
//! their participant count arrives, flag waits park until the flag is
//! set. Model-2 programs order cross-thread communication by exactly
//! these ops, so any sync-ordered producer event executes before the
//! consumer's epoch starts and the interleaving of *unordered* events
//! cannot affect checked reads. A schedule that cannot complete (barrier
//! short of participants, flag never set) is a structure error.

use fxhash::{FxHashMap, FxHashSet};
use hic_check::{FindingKind, HappensBefore, SyncOp, SyncRef};
use hic_core::{CohInstr, Target, ThreadMap};
use hic_mem::addr::WORDS_PER_LINE;
use hic_mem::{Region, WordAddr};
use hic_runtime::{CommOp, FlagOpts, ProgramRecord, RecEvent};
use hic_sim::ThreadId;

use crate::report::{LintCoverage, LintFinding, LintReport};

/// Cap on distinct raw (kind, word, actor) findings before aggregation.
const MAX_RAW_FINDINGS: usize = 65536;

const MAX_BLOCKS: usize = 8;

/// Copy-version sentinel for a capture whose content is
/// schedule-dependent (the word's last write is not sync-ordered before
/// the filling thread). A poisoned copy compares unequal to every real
/// version, so it is pessimistically stale — the static verdict must not
/// depend on how a race happened to interleave in our abstract schedule.
const POISON_V: u64 = u64::MAX;

/// Identity of one prunable planned operation (an op inside a plan passed
/// to a `plan_wb` / `plan_inv` call site, under a configuration that
/// issues per-op instructions).
#[derive(Debug, Clone, Copy)]
pub(crate) struct OpInfo {
    pub thread: usize,
    pub is_wb: bool,
    /// The thread's `plan_wb` (resp. `plan_inv`) call-site index.
    pub site: usize,
    /// Position within that plan's `wb` (resp. `inv`) vector.
    pub index: usize,
    pub op: CommOp,
}

/// Does `target` cover word `w`? The lowering yields ranges and ALL only.
fn covers_word(target: Target, w: u64) -> bool {
    match target {
        Target::All => true,
        Target::Range(r) => r.contains(WordAddr(w)),
        Target::Operand(..) => unreachable!("no sync or plan lowers to an operand"),
    }
}

/// Line range `[lo, hi)` an INV of `target` drops (INV is line-granular:
/// every line the range touches is dropped whole); `None` for ALL.
fn line_range(target: Target) -> Option<(u64, u64)> {
    let wpl = WORDS_PER_LINE as u64;
    match target {
        Target::All => None,
        Target::Range(r) if r.words == 0 => Some((0, 0)),
        Target::Range(r) => Some((r.start.0 / wpl, (r.end().0 - 1) / wpl + 1)),
        Target::Operand(..) => unreachable!("no sync or plan lowers to an operand"),
    }
}

#[derive(Debug, Clone, Copy)]
enum AOp {
    Read(Region),
    Write(Region),
    Wb {
        target: Target,
        global: bool,
        id: Option<u32>,
    },
    Inv {
        target: Target,
        global: bool,
        id: Option<u32>,
    },
    Barrier(usize),
    FlagSet(usize),
    FlagWait(usize),
    FlagClear(usize),
}

pub(crate) struct Lowered {
    streams: Vec<Vec<AOp>>,
    pub ops: Vec<OpInfo>,
}

/// Lower the record's events into abstract op streams: every WB/INV is
/// an instruction the record's `Config` yields for the event, scoped
/// by the identity [`ThreadMap`]. Plan-op instructions get an id into
/// [`Lowered::ops`].
pub(crate) fn lower(rec: &ProgramRecord) -> Lowered {
    let cfg = rec.config;
    let mc = cfg.machine_config();
    let tmap = ThreadMap::identity(mc.num_blocks(), mc.cores_per_block());
    let num_plan_ops = rec.num_plan_ops();
    let mut ops: Vec<OpInfo> = Vec::new();
    let mut streams = Vec::with_capacity(rec.nthreads);
    for (t, events) in rec.threads.iter().enumerate() {
        let block = tmap.block_of(ThreadId(t)).expect("every thread is mapped");
        let aop = |instr: CohInstr, id: Option<u32>| match instr {
            CohInstr::Wb { target, scope } => AOp::Wb {
                target,
                global: tmap.wb_is_global(block, scope),
                id,
            },
            CohInstr::Inv { target, scope } => AOp::Inv {
                target,
                global: tmap.inv_is_global(block, scope),
                id,
            },
        };
        let mut plan_op = |is_wb: bool, site: usize, index: usize, op: CommOp| {
            // Sized once, on the first tagged op (Base tags none).
            ops.reserve(num_plan_ops - ops.len());
            ops.push(OpInfo {
                thread: t,
                is_wb,
                site,
                index,
                op,
            });
            Some(ops.len() as u32 - 1)
        };
        let carried = |raw: bool| FlagOpts { raw }.carried();
        let mut s: Vec<AOp> = Vec::with_capacity(events.len());
        let (mut wb_site, mut inv_site) = (0usize, 0usize);
        for ev in events {
            match ev {
                RecEvent::Reads(r) => s.push(AOp::Read(*r)),
                RecEvent::Writes(r) => s.push(AOp::Write(*r)),
                RecEvent::PlanWb(plan) => {
                    for (index, instr) in cfg.plan_wb(plan) {
                        let id = index.and_then(|i| plan_op(true, wb_site, i, plan.wb[i]));
                        s.push(aop(instr, id));
                    }
                    wb_site += 1;
                }
                RecEvent::PlanInv(plan) => {
                    for (index, instr) in cfg.plan_inv(plan) {
                        let id = index.and_then(|i| plan_op(false, inv_site, i, plan.inv[i]));
                        s.push(aop(instr, id));
                    }
                    inv_site += 1;
                }
                RecEvent::Barrier { bar, wb, inv } => {
                    s.extend(cfg.sync_wb(wb.into()).map(|i| aop(i, None)));
                    s.push(AOp::Barrier(*bar));
                    s.extend(cfg.sync_inv(inv.into()).map(|i| aop(i, None)));
                }
                RecEvent::FlagSet { flag, raw } => {
                    s.extend(cfg.sync_wb(carried(*raw)).map(|i| aop(i, None)));
                    s.push(AOp::FlagSet(*flag));
                }
                RecEvent::FlagWait { flag, raw } => {
                    s.push(AOp::FlagWait(*flag));
                    s.extend(cfg.sync_inv(carried(*raw)).map(|i| aop(i, None)));
                }
                RecEvent::FlagClear { flag } => s.push(AOp::FlagClear(*flag)),
            }
        }
        streams.push(s);
    }
    Lowered { streams, ops }
}

/// Distinct words `rec` writes: exactly the words the interpreter will
/// track, so its word map is sized once instead of doubling.
fn written_words(rec: &ProgramRecord) -> usize {
    let mut writes: Vec<Region> = rec
        .threads
        .iter()
        .flatten()
        .filter_map(|ev| match ev {
            RecEvent::Writes(r) => Some(*r),
            _ => None,
        })
        .collect();
    writes.sort_unstable_by_key(|r| r.start.0);
    let (mut words, mut covered) = (0u64, 0u64);
    for r in writes {
        let lo = r.start.0.max(covered);
        if r.end().0 > lo {
            words += r.end().0 - lo;
            covered = r.end().0;
        }
    }
    words as usize
}

// ----------------------------------------------------------------------
// Abstract memory
// ----------------------------------------------------------------------

const ST_L1: u8 = 0;
const ST_BLOCK: u8 = 1;
const ST_GLOBAL: u8 = 2;

/// Per-word abstract state. `version` numbers writes (0 = the initial
/// value, present everywhere); per-copy fields say which version each
/// cache level currently holds, valid only while the line is resident
/// there (tracked in [`LineState`]).
struct AWord {
    version: u64,
    writer: usize,
    epoch: u32,
    /// How far down the *latest* version has provably travelled.
    state: u8,
    home: usize,
    mem_v: u64,
    l2_v: [u64; MAX_BLOCKS],
    /// Blocks whose L2 copy of this word is dirty.
    l2_dirty: u8,
    l1_v: Box<[u64]>,
    /// Threads whose L1 copy of this word is dirty.
    l1_dirty: u32,
    /// Threads whose L1 copy arrived through the global level (vs
    /// directly from a producer's push into the shared L2).
    l1_via_mem: u32,
    /// Blocks whose L2 copy arrived from the global level.
    l2_via_mem: u8,
    /// Plan ops that pushed the current version into some block's L2.
    carriers_l2: Vec<(u32, usize)>,
    /// Plan ops that pushed the current version to the global level.
    carriers_mem: Vec<u32>,
}

impl AWord {
    fn initial(nthreads: usize) -> AWord {
        AWord {
            version: 0,
            writer: 0,
            epoch: 0,
            state: ST_GLOBAL,
            home: 0,
            mem_v: 0,
            l2_v: [0; MAX_BLOCKS],
            l2_dirty: 0,
            l1_v: vec![0; nthreads].into_boxed_slice(),
            l1_dirty: 0,
            l1_via_mem: 0,
            l2_via_mem: 0,
            carriers_l2: Vec::new(),
            carriers_mem: Vec::new(),
        }
    }
}

/// Which threads' L1s / blocks' L2s hold a line. No evictions: presence
/// only grows until an INV drops it.
#[derive(Default, Clone, Copy)]
struct LineState {
    l1: u32,
    l2: u8,
}

/// Attribution collected for the optimizer: which plan ops some ordered
/// fresh read actually depended on, and for whom.
#[derive(Default)]
pub(crate) struct Attrib {
    /// Ops whose data movement or stale-copy drop served a checked read.
    pub needed: FxHashSet<u32>,
    /// Ops whose *global-level* action (push to / drop at the level
    /// above the block L2) was relied on — these must not be downgraded
    /// to block-local scope.
    pub needs_global: FxHashSet<u32>,
    /// Readers each op served (consumers, for WB downgrades).
    pub served_reader: FxHashMap<u32, FxHashSet<usize>>,
    /// Producers whose values each op exposed (for INV downgrades).
    pub served_writer: FxHashMap<u32, FxHashSet<usize>>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Status {
    Running,
    AtBarrier(usize),
    AtFlag(usize),
    Done,
}

struct RawFinding {
    kind: FindingKind,
    word: u64,
    actor: usize,
    writer: usize,
    epoch: u32,
    hint: Option<SyncRef>,
}

struct Interp<'a> {
    rec: &'a ProgramRecord,
    nthreads: usize,
    cpb: usize,
    words: FxHashMap<u64, AWord>,
    lines: FxHashMap<u64, LineState>,
    dirty_l1: Vec<FxHashSet<u64>>,
    dirty_l2: Vec<FxHashSet<u64>>,
    hb: HappensBefore,
    next_version: u64,
    /// Sync ops executed so far: the `at` of every [`SyncRef`].
    step: u64,
    /// Threads parked at each barrier, in arrival order.
    barriers: FxHashMap<usize, Vec<usize>>,
    /// Flags currently set.
    set_flags: FxHashSet<usize>,
    findings: Vec<RawFinding>,
    seen: FxHashSet<(FindingKind, u64, usize)>,
    checks: u64,
    poisoned_fills: u64,
    errors: Vec<String>,
    attrib: Option<Attrib>,
    /// Last op that dropped a *stale* copy of (word) from (thread)'s L1
    /// (kept only while collecting [`Attrib`]).
    l1_drop: FxHashMap<(u64, usize), u32>,
    /// ... and from (block)'s L2.
    l2_drop: FxHashMap<(u64, usize), u32>,
}

impl<'a> Interp<'a> {
    fn new(rec: &'a ProgramRecord, track: bool) -> Interp<'a> {
        let n = rec.nthreads;
        let nblocks = rec.config.machine_config().num_blocks();
        assert!(nblocks <= MAX_BLOCKS, "block count exceeds model limit");
        Interp {
            rec,
            nthreads: n,
            cpb: rec.config.machine_config().cores_per_block(),
            words: FxHashMap::with_capacity_and_hasher(written_words(rec), Default::default()),
            lines: FxHashMap::default(),
            dirty_l1: vec![FxHashSet::default(); n],
            dirty_l2: vec![FxHashSet::default(); nblocks],
            hb: HappensBefore::new(n),
            next_version: 1,
            step: 0,
            barriers: FxHashMap::default(),
            set_flags: FxHashSet::default(),
            findings: Vec::new(),
            seen: FxHashSet::default(),
            checks: 0,
            poisoned_fills: 0,
            errors: Vec::new(),
            attrib: track.then(Attrib::default),
            l1_drop: FxHashMap::default(),
            l2_drop: FxHashMap::default(),
        }
    }

    fn block_of(&self, t: usize) -> usize {
        t / self.cpb
    }

    fn report(&mut self, f: RawFinding) {
        if self.findings.len() < MAX_RAW_FINDINGS && self.seen.insert((f.kind, f.word, f.actor)) {
            self.findings.push(f);
        }
    }

    /// Fill `line` into thread `t`'s L1 (and its block's L2 on the way,
    /// as `fetch_into_l1`/`fetch_into_l2` do), refreshing the per-word
    /// copy versions of every materialized word on the line.
    fn fill_line(&mut self, t: usize, line: u64) {
        let b = self.block_of(t);
        let ls = self.lines.entry(line).or_default();
        if ls.l1 & (1 << t) != 0 {
            return;
        }
        let fill_l2 = ls.l2 & (1 << b as u8) == 0;
        ls.l2 |= 1 << b as u8;
        ls.l1 |= 1 << t;
        let mut poisoned = 0u64;
        for i in 0..WORDS_PER_LINE as u64 {
            let w = line * WORDS_PER_LINE as u64 + i;
            if let Some(aw) = self.words.get_mut(&w) {
                // A capture racing with the word's last write is
                // indeterminate: poison it so no later ordered read can
                // benefit from a favorably-interleaved abstract schedule.
                let racy = aw.version != 0 && !self.hb.ordered(t, aw.writer, aw.epoch);
                poisoned += racy as u64;
                if fill_l2 {
                    aw.l2_v[b] = if racy { POISON_V } else { aw.mem_v };
                    aw.l2_dirty &= !(1 << b as u8);
                    aw.l2_via_mem |= 1 << b as u8;
                }
                aw.l1_v[t] = if racy { POISON_V } else { aw.l2_v[b] };
                aw.l1_dirty &= !(1 << t);
                if aw.l2_via_mem & (1 << b as u8) != 0 {
                    aw.l1_via_mem |= 1 << t;
                } else {
                    aw.l1_via_mem &= !(1 << t);
                }
            }
        }
        self.poisoned_fills += poisoned;
    }

    fn read_word(&mut self, t: usize, w: u64) {
        let line = w / WORDS_PER_LINE as u64;
        self.fill_line(t, line);
        let b = self.block_of(t);
        let Some(aw) = self.words.get(&w) else {
            return; // never written: initial value everywhere
        };
        if aw.version == 0 || aw.writer == t {
            return;
        }
        if !self.hb.ordered(t, aw.writer, aw.epoch) {
            return; // unordered: the sanitizer would not check it either
        }
        self.checks += 1;
        let visible = aw.l1_v[t];
        if visible != aw.version {
            let reached = aw.state == ST_GLOBAL || (aw.state == ST_BLOCK && aw.home == b);
            let (kind, hint) = self.hb.stale_read(t, aw.writer, reached);
            let (writer, epoch) = (aw.writer, aw.epoch);
            self.report(RawFinding {
                kind,
                word: w,
                actor: t,
                writer,
                epoch,
                hint,
            });
        } else if self.attrib.is_some() {
            // Ordered fresh read: credit the ops whose movements put this
            // value on the reader's fill path, and the ops that dropped
            // the stale copies that would otherwise have shadowed it.
            let via_mem = aw.l1_via_mem & (1 << t) != 0;
            let mut credit: Vec<(u32, bool)> = Vec::new();
            if via_mem {
                for &id in &aw.carriers_mem {
                    credit.push((id, true));
                }
                for &(id, _) in &aw.carriers_l2 {
                    credit.push((id, false));
                }
            } else {
                for &(id, blk) in &aw.carriers_l2 {
                    if blk == b {
                        credit.push((id, false));
                    }
                }
            }
            if let Some(&id) = self.l1_drop.get(&(w, t)) {
                credit.push((id, false));
            }
            if let Some(&id) = self.l2_drop.get(&(w, b)) {
                credit.push((id, true));
            }
            let writer = aw.writer;
            let at = self.attrib.as_mut().unwrap();
            for (id, global) in credit {
                at.needed.insert(id);
                if global {
                    at.needs_global.insert(id);
                }
                at.served_reader.entry(id).or_default().insert(t);
                at.served_writer.entry(id).or_default().insert(writer);
            }
        }
    }

    fn write_word(&mut self, t: usize, w: u64) {
        let line = w / WORDS_PER_LINE as u64;
        self.fill_line(t, line); // write-allocate
        let n = self.nthreads;
        let b = self.block_of(t);
        let aw = self.words.entry(w).or_insert_with(|| AWord::initial(n));
        if aw.version != 0 && aw.writer != t && !self.hb.ordered(t, aw.writer, aw.epoch) {
            let (writer, epoch) = (aw.writer, aw.epoch);
            self.report(RawFinding {
                kind: FindingKind::WriteRace,
                word: w,
                actor: t,
                writer,
                epoch,
                hint: None,
            });
        }
        let aw = self.words.get_mut(&w).unwrap();
        aw.version = self.next_version;
        self.next_version += 1;
        aw.writer = t;
        aw.epoch = self.hb.epoch(t);
        aw.state = ST_L1;
        aw.home = b;
        aw.l1_v[t] = aw.version;
        aw.l1_dirty |= 1 << t;
        aw.l1_via_mem &= !(1 << t);
        aw.carriers_l2.clear();
        aw.carriers_mem.clear();
        self.dirty_l1[t].insert(w);
    }

    /// Push thread `t`'s dirty copy of `w` below its L1: into the block
    /// L2 when it holds the line, else straight to the global level
    /// (`push_below_l1`). Clears the L1 dirty bit; the copy stays valid.
    fn push_l1_copy(&mut self, t: usize, w: u64, id: Option<u32>) {
        let b = self.block_of(t);
        let line = w / WORDS_PER_LINE as u64;
        let l2_holds = self
            .lines
            .get(&line)
            .is_some_and(|ls| ls.l2 & (1 << b as u8) != 0);
        let aw = self.words.get_mut(&w).expect("dirty word is materialized");
        let v = aw.l1_v[t];
        aw.l1_dirty &= !(1 << t);
        if l2_holds {
            aw.l2_v[b] = v;
            aw.l2_dirty |= 1 << b as u8;
            aw.l2_via_mem &= !(1 << b as u8);
            if v == aw.version {
                if aw.state == ST_L1 {
                    aw.state = ST_BLOCK;
                    aw.home = b;
                }
                if let Some(id) = id {
                    aw.carriers_l2.push((id, b));
                }
            }
            self.dirty_l2[b].insert(w);
        } else {
            aw.mem_v = v;
            if v == aw.version {
                aw.state = ST_GLOBAL;
                if let Some(id) = id {
                    aw.carriers_mem.push(id);
                }
            }
        }
        self.dirty_l1[t].remove(&w);
    }

    /// Push block `b`'s dirty L2 copy of `w` to the global level
    /// (`push_below_l2`), clearing the L2 dirty bit.
    fn push_l2_copy(&mut self, b: usize, w: u64, id: Option<u32>) {
        let aw = self.words.get_mut(&w).expect("dirty word is materialized");
        let v = aw.l2_v[b];
        aw.l2_dirty &= !(1 << b as u8);
        aw.mem_v = v;
        if v == aw.version {
            aw.state = ST_GLOBAL;
            if let Some(id) = id {
                aw.carriers_mem.push(id);
            }
        }
        self.dirty_l2[b].remove(&w);
    }

    fn exec_wb(&mut self, t: usize, target: Target, global: bool, id: Option<u32>) {
        // L1 phase: push the issuer's dirty words inside the target.
        let work: Vec<u64> = self.dirty_l1[t]
            .iter()
            .copied()
            .filter(|&w| covers_word(target, w))
            .collect();
        for w in work {
            self.push_l1_copy(t, w, id);
        }
        // Global scope: drain the block L2's dirty copies downward too.
        if global {
            let b = self.block_of(t);
            let l2_work: Vec<u64> = self.dirty_l2[b]
                .iter()
                .copied()
                .filter(|&w| covers_word(target, w))
                .collect();
            for w in l2_work {
                self.push_l2_copy(b, w, id);
            }
        }
    }

    /// Drop `line` from thread `t`'s L1 (forced writeback of dirty words
    /// first), recording the op that dropped stale copies.
    fn drop_l1_line(&mut self, t: usize, line: u64, id: Option<u32>) {
        let Some(ls) = self.lines.get_mut(&line) else {
            return;
        };
        if ls.l1 & (1 << t) == 0 {
            return;
        }
        ls.l1 &= !(1 << t);
        for i in 0..WORDS_PER_LINE as u64 {
            let w = line * WORDS_PER_LINE as u64 + i;
            let Some(aw) = self.words.get(&w) else {
                continue;
            };
            if aw.l1_dirty & (1 << t) != 0 {
                self.push_l1_copy(t, w, id);
            }
            let aw = self.words.get(&w).unwrap();
            if aw.l1_v[t] != aw.version && self.attrib.is_some() {
                if let Some(id) = id {
                    self.l1_drop.insert((w, t), id);
                }
            }
        }
    }

    /// Drop `line` from block `b`'s L2 (forced writeback of dirty words
    /// first). Only global INVs reach the L2.
    fn drop_l2_line(&mut self, b: usize, line: u64, id: Option<u32>) {
        let Some(ls) = self.lines.get_mut(&line) else {
            return;
        };
        if ls.l2 & (1 << b as u8) == 0 {
            return;
        }
        ls.l2 &= !(1 << b as u8);
        for i in 0..WORDS_PER_LINE as u64 {
            let w = line * WORDS_PER_LINE as u64 + i;
            let Some(aw) = self.words.get(&w) else {
                continue;
            };
            if aw.l2_dirty & (1 << b as u8) != 0 {
                self.push_l2_copy(b, w, id);
            }
            let aw = self.words.get(&w).unwrap();
            if aw.l2_v[b] != aw.version && self.attrib.is_some() {
                if let Some(id) = id {
                    self.l2_drop.insert((w, b), id);
                }
            }
        }
    }

    fn exec_inv(&mut self, t: usize, target: Target, global: bool, id: Option<u32>) {
        let b = self.block_of(t);
        match line_range(target) {
            Some((lo, hi)) => {
                for line in lo..hi {
                    self.drop_l1_line(t, line, id);
                    if global {
                        self.drop_l2_line(b, line, id);
                    }
                }
            }
            None => {
                // INV ALL: every line the issuer's L1 (resp. the block's
                // L2) holds.
                let mine: Vec<u64> = self
                    .lines
                    .iter()
                    .filter(|(_, ls)| ls.l1 & (1 << t) != 0)
                    .map(|(&l, _)| l)
                    .collect();
                for line in mine {
                    self.drop_l1_line(t, line, id);
                }
                if global {
                    let blk: Vec<u64> = self
                        .lines
                        .iter()
                        .filter(|(_, ls)| ls.l2 & (1 << b as u8) != 0)
                        .map(|(&l, _)| l)
                        .collect();
                    for line in blk {
                        self.drop_l2_line(b, line, id);
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Scheduling
    // ------------------------------------------------------------------

    /// Execute thread `t`'s ops until it parks or finishes. Returns true
    /// if at least one op executed (progress).
    fn advance(&mut self, t: usize, stream: &[AOp], pc: &mut usize, status: &mut [Status]) -> bool {
        if status[t] == Status::Done {
            return false;
        }
        let mut progressed = false;
        loop {
            match status[t] {
                Status::AtBarrier(_) => return progressed,
                Status::AtFlag(f) => {
                    if !self.set_flags.contains(&f) {
                        return progressed;
                    }
                    self.step += 1;
                    self.hb.acquire(t, SyncOp::FlagWait, f, self.step);
                    status[t] = Status::Running;
                    progressed = true;
                }
                Status::Done => return progressed,
                Status::Running => {
                    if *pc >= stream.len() {
                        status[t] = Status::Done;
                        return progressed;
                    }
                    let op = stream[*pc];
                    *pc += 1;
                    progressed = true;
                    match op {
                        AOp::Read(r) => {
                            for w in r.start.0..r.end().0 {
                                self.read_word(t, w);
                            }
                        }
                        AOp::Write(r) => {
                            for w in r.start.0..r.end().0 {
                                self.write_word(t, w);
                            }
                        }
                        AOp::Wb { target, global, id } => self.exec_wb(t, target, global, id),
                        AOp::Inv { target, global, id } => self.exec_inv(t, target, global, id),
                        AOp::Barrier(bar) => {
                            if self.arrive_barrier(t, bar, status) {
                                continue; // released immediately
                            }
                            return progressed;
                        }
                        AOp::FlagSet(f) => {
                            self.step += 1;
                            self.hb.release(t, SyncOp::FlagSet, f, self.step);
                            self.set_flags.insert(f);
                        }
                        AOp::FlagWait(f) => {
                            status[t] = Status::AtFlag(f);
                        }
                        AOp::FlagClear(f) => {
                            self.set_flags.remove(&f);
                        }
                    }
                }
            }
        }
    }

    /// Arrive at `bar`; once the participant count is reached, release
    /// every waiter through [`HappensBefore::barrier`]. Returns true when
    /// this arrival released the barrier.
    fn arrive_barrier(&mut self, t: usize, bar: usize, status: &mut [Status]) -> bool {
        let participants = match self.rec.barrier_participants(bar) {
            Some(p) => p,
            None => {
                self.errors
                    .push(format!("thread {t} arrives at undeclared barrier #{bar}"));
                return true; // treat as a no-op barrier
            }
        };
        let waiting = self.barriers.entry(bar).or_default();
        waiting.push(t);
        if waiting.len() < participants {
            status[t] = Status::AtBarrier(bar);
            return false;
        }
        self.step += 1;
        self.hb.barrier(bar, waiting, self.step);
        for &w in waiting.iter().filter(|&&w| w != t) {
            status[w] = Status::Running;
        }
        waiting.clear();
        true
    }

    fn run(&mut self, streams: &[Vec<AOp>]) {
        let n = self.nthreads;
        let mut pcs = vec![0usize; n];
        let mut status = vec![Status::Running; n];
        loop {
            let mut progressed = false;
            for t in 0..n {
                progressed |= self.advance(t, &streams[t], &mut pcs[t], &mut status);
            }
            if status.iter().all(|&s| s == Status::Done) {
                break;
            }
            if !progressed {
                let stuck: Vec<String> = (0..n)
                    .filter_map(|t| match status[t] {
                        Status::AtBarrier(b) => Some(format!("thread {t} at barrier #{b}")),
                        Status::AtFlag(f) => Some(format!("thread {t} waiting on flag #{f}")),
                        _ => None,
                    })
                    .collect();
                self.errors.push(format!(
                    "the recorded event streams cannot complete: {}",
                    stuck.join(", ")
                ));
                break;
            }
        }
    }

    /// Aggregate raw per-word findings into ranged [`LintFinding`]s.
    fn aggregate(&self) -> Vec<LintFinding> {
        type Key = (FindingKind, usize, usize);
        let mut groups: FxHashMap<Key, Vec<&RawFinding>> = FxHashMap::default();
        let mut order: Vec<Key> = Vec::new();
        for f in &self.findings {
            let key = (f.kind, f.writer, f.actor);
            groups.entry(key).or_insert_with(|| {
                order.push(key);
                Vec::new()
            });
            groups.get_mut(&key).unwrap().push(f);
        }
        let mut out = Vec::new();
        for key in order {
            let mut fs = groups.remove(&key).unwrap();
            fs.sort_by_key(|f| f.word);
            let mut i = 0;
            while i < fs.len() {
                let mut j = i + 1;
                while j < fs.len() && fs[j].word == fs[j - 1].word + 1 {
                    j += 1;
                }
                let first = fs[i];
                let start = WordAddr(first.word);
                let words = (fs[j - 1].word - first.word) + 1;
                let region = self
                    .rec
                    .locate(start)
                    .map(|(name, idx)| format!("{}[{}..{}]", name, idx, idx + words));
                out.push(LintFinding {
                    kind: first.kind,
                    producer: ThreadId(first.writer),
                    consumer: ThreadId(first.actor),
                    start,
                    words,
                    region,
                    write_epoch: first.epoch,
                    sync_hint: first.hint,
                });
                i = j;
            }
        }
        out
    }
}

/// Lower and interpret `rec`; `track` additionally collects the
/// [`Attrib`] credit sets the optimizer consumes.
pub(crate) fn interp(
    rec: &ProgramRecord,
    track: bool,
) -> (LintReport, Option<Attrib>, Vec<OpInfo>) {
    if rec.config.is_coherent() {
        return (LintReport::trivially_clean(rec.config), None, Vec::new());
    }
    let lowered = lower(rec);
    let mut it = Interp::new(rec, track);
    it.run(&lowered.streams);
    let mut coverage = coverage_of(&lowered.streams);
    coverage.poisoned_fills = it.poisoned_fills;
    let report = LintReport {
        config: rec.config,
        findings: it.aggregate(),
        errors: std::mem::take(&mut it.errors),
        checks: it.checks,
        tracked_words: it.words.len(),
        coverage,
    };
    (report, it.attrib.take(), lowered.ops)
}

/// Count what the lowered streams exercise — the static half of
/// [`LintCoverage`] (the interpreter fills in the dynamic counters).
fn coverage_of(streams: &[Vec<AOp>]) -> LintCoverage {
    let mut cov = LintCoverage::default();
    for op in streams.iter().flatten() {
        match op {
            AOp::Read(_) => cov.reads += 1,
            AOp::Write(_) => cov.writes += 1,
            AOp::Wb { target, global, .. } => {
                if *global {
                    cov.wb_global += 1;
                } else {
                    cov.wb_local += 1;
                }
                if matches!(target, Target::All) {
                    cov.wb_all += 1;
                }
            }
            AOp::Inv { target, global, .. } => {
                if *global {
                    cov.inv_global += 1;
                } else {
                    cov.inv_local += 1;
                }
                if matches!(target, Target::All) {
                    cov.inv_all += 1;
                }
            }
            AOp::Barrier(_) => cov.barriers += 1,
            AOp::FlagSet(_) => cov.flag_sets += 1,
            AOp::FlagWait(_) => cov.flag_waits += 1,
            AOp::FlagClear(_) => cov.flag_clears += 1,
        }
    }
    cov
}
