//! `hic-check` — the incoherence sanitizer.
//!
//! The paper's programming models (§IV–§V) put correctness in the
//! programmer's hands: every cross-thread communication must be *ordered*
//! by a synchronization operation and *carried* by the right WB/INV
//! flavors — the producer writes back at least to the levels' common
//! ancestor, the consumer invalidates its private copies above it. A
//! missing annotation does not fault; it silently yields a stale word and
//! a wrong answer at the end of the run, with nothing pointing at the
//! faulty access.
//!
//! This crate is a dynamic checker that closes that gap. It observes the
//! incoherent backend's own event stream (the engine executes operations
//! in global simulated-time order, so the checker sees one consistent
//! serialization) and maintains:
//!
//! * **vector clocks** per thread and per sync object
//!   ([`VectorClock`](hic_core::VectorClock), FastTrack-style), advanced
//!   only by sync operations — barriers, lock release/acquire, flag
//!   set/wait. WB/INV annotations never create ordering; that asymmetry
//!   is the whole point: sync without the right data movement is exactly
//!   the bug class being hunted. The clocks, each thread's last
//!   release/acquire and the stale-read attribution rule live in
//!   [`HappensBefore`], which `hic-lint`'s abstract interpreter drives
//!   too, so the static and the dynamic tool order and attribute alike
//!   by construction;
//! * **shadow per-word metadata** (`WordMeta` in a sparse
//!   `ShadowMap`): last writer, the writer's epoch at the store, the
//!   stored value, and how far down the hierarchy that value has provably
//!   travelled (private L1 only → some block's shared L2 → the global
//!   level), updated when the simulator pushes dirty words below L1/L2
//!   for any reason (WB instructions, INV-forced writebacks, evictions).
//!
//! A load is checked only when the shadow write is *ordered before* it
//! (reader's clock covers the writer's epoch). If such a load observes a
//! value different from the shadow value, communication was promised by
//! sync but not delivered by the memory system, and the level metadata
//! says which half failed:
//!
//! * the value never reached the reader/writer's common cache level →
//!   **missing WB** (producer side);
//! * the value did reach it, so the reader must be holding a stale
//!   private copy it never self-invalidated → **missing INV** (consumer
//!   side).
//!
//! A store to a word whose last write is not ordered before it is a
//! **write race** (conflicting writes no sync op separates).
//!
//! Comparing *values* rather than modelling every cache's line state
//! keeps the checker independent of the timing model and immune to false
//! positives from benign evictions: if an un-written-back value happens
//! to be observed correctly (e.g. the dirty line was evicted, or the old
//! and new values are equal), no report is raised. The cost is false
//! *negatives* in ABA corners — acceptable for a sanitizer, where a
//! report must always be a real protocol violation.

mod hb;

pub use hb::HappensBefore;

use fxhash::FxHashSet;
use hic_mem::addr::WORDS_PER_LINE;
use hic_mem::cache::DirtyMask;
use hic_mem::{LineAddr, Region, ShadowMap, Word, WordAddr};
use hic_sim::{Cycle, ThreadId};

/// How much checking the run performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckMode {
    /// No checker is attached; the run is bit-identical to a build without
    /// the sanitizer.
    #[default]
    Off,
    /// Record every finding; the run completes and findings surface in the
    /// run's `Diagnostics`.
    Report,
    /// Abort the run at the first faulty access with a rendered diagnostic.
    Strict,
}

impl CheckMode {
    /// The canonical lower-case name: `off`, `report` or `strict`.
    pub fn name(self) -> &'static str {
        match self {
            CheckMode::Off => "off",
            CheckMode::Report => "report",
            CheckMode::Strict => "strict",
        }
    }

    /// The mode [`CheckMode::name`] gives `s`, if any: the exact inverse,
    /// with no aliases.
    pub fn parse(s: &str) -> Option<CheckMode> {
        [CheckMode::Off, CheckMode::Report, CheckMode::Strict]
            .into_iter()
            .find(|m| m.name() == s)
    }
}

/// What kind of protocol violation a [`Finding`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FindingKind {
    /// An ordered load observed a stale value that never reached the
    /// reader/writer's common cache level: the producer's WB is missing
    /// or under-scoped.
    MissingWb,
    /// An ordered load observed a stale value even though the fresh one
    /// reached the common level: the consumer kept a private copy it
    /// never self-invalidated.
    MissingInv,
    /// Two writes to one word with no sync operation ordering them.
    WriteRace,
}

impl FindingKind {
    pub fn label(self) -> &'static str {
        match self {
            FindingKind::MissingWb => "stale read (missing WB)",
            FindingKind::MissingInv => "stale read (missing INV)",
            FindingKind::WriteRace => "write race",
        }
    }

    /// Stable machine-readable tag (JSON output, fuzz-corpus keys).
    pub fn tag(self) -> &'static str {
        match self {
            FindingKind::MissingWb => "missing-wb",
            FindingKind::MissingInv => "missing-inv",
            FindingKind::WriteRace => "write-race",
        }
    }

    /// Inverse of [`FindingKind::tag`].
    pub fn from_tag(s: &str) -> Option<FindingKind> {
        match s {
            "missing-wb" => Some(FindingKind::MissingWb),
            "missing-inv" => Some(FindingKind::MissingInv),
            "write-race" => Some(FindingKind::WriteRace),
            _ => None,
        }
    }
}

/// The sync operation kinds a [`SyncRef`] can point at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncOp {
    Barrier,
    LockAcquire,
    LockRelease,
    FlagSet,
    FlagWait,
}

impl SyncOp {
    fn label(self) -> &'static str {
        match self {
            SyncOp::Barrier => "barrier",
            SyncOp::LockAcquire => "lock acquire",
            SyncOp::LockRelease => "lock release",
            SyncOp::FlagSet => "flag set",
            SyncOp::FlagWait => "flag wait",
        }
    }

    /// Stable machine-readable tag (JSON output).
    pub fn tag(self) -> &'static str {
        match self {
            SyncOp::Barrier => "barrier",
            SyncOp::LockAcquire => "lock-acquire",
            SyncOp::LockRelease => "lock-release",
            SyncOp::FlagSet => "flag-set",
            SyncOp::FlagWait => "flag-wait",
        }
    }
}

/// A reference to a sync operation a thread performed, used to say which
/// op *should* have carried the missing WB/INV.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncRef {
    pub op: SyncOp,
    /// The raw sync-object id (`SyncId`) in the machine's sync controller.
    pub id: usize,
    pub at: Cycle,
}

impl std::fmt::Display for SyncRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} (sync#{}) at cycle {}",
            self.op.label(),
            self.id,
            self.at
        )
    }
}

/// One detected incoherence bug, with enough context to point at the
/// faulty access and the annotation that should have prevented it.
#[derive(Debug, Clone)]
pub struct Finding {
    pub kind: FindingKind,
    /// The word the faulty access touched.
    pub addr: WordAddr,
    /// `name[index]` within the allocation containing `addr`, if known.
    pub region: Option<String>,
    /// The thread that performed the faulty access (the reader, or the
    /// second writer of a race).
    pub actor: ThreadId,
    /// The last tracked writer of the word.
    pub writer: ThreadId,
    /// Value the faulty access observed (for races: the value it wrote).
    pub observed: Word,
    /// Value the shadow metadata expected (the last ordered write).
    pub expected: Word,
    /// The writer's own epoch component when it stored `expected`.
    pub write_epoch: u32,
    /// The actor's view of the writer's epoch at the faulty access
    /// (>= `write_epoch` means sync ordered the accesses).
    pub actor_view: u32,
    /// Simulated cycle at which the faulty access executed.
    pub at: Cycle,
    /// The sync op that should have carried the missing WB (producer's
    /// last release) or INV (consumer's last acquire), when one exists.
    pub sync_hint: Option<SyncRef>,
}

impl Finding {
    fn location(&self) -> String {
        match &self.region {
            Some(r) => format!("{} (word {:#x})", r, self.addr.0),
            None => format!("word {:#x}", self.addr.0),
        }
    }

    /// One-paragraph human-readable report.
    pub fn render(&self) -> String {
        let loc = self.location();
        match self.kind {
            FindingKind::MissingWb => {
                let hint = match &self.sync_hint {
                    Some(s) => format!(
                        "a WB covering it should have travelled with {}'s {}",
                        self.writer, s
                    ),
                    None => format!("no release-side sync by {} was seen at all", self.writer),
                };
                format!(
                    "{}: {} read {} = {} at cycle {}, but {} wrote {} in its epoch {} \
                     (ordered before this read: reader's view of {} is epoch {}) and the \
                     value never reached their common cache level — {}",
                    self.kind.label(),
                    self.actor,
                    loc,
                    self.observed,
                    self.at,
                    self.writer,
                    self.expected,
                    self.write_epoch,
                    self.writer,
                    self.actor_view,
                    hint
                )
            }
            FindingKind::MissingInv => {
                let hint = match &self.sync_hint {
                    Some(s) => format!(
                        "an INV covering it should have travelled with {}'s {}",
                        self.actor, s
                    ),
                    None => format!("no acquire-side sync by {} was seen at all", self.actor),
                };
                format!(
                    "{}: {} read {} = {} at cycle {}, but {} wrote {} in its epoch {} and \
                     that value did reach the common cache level — {} is holding a stale \
                     private copy; {}",
                    self.kind.label(),
                    self.actor,
                    loc,
                    self.observed,
                    self.at,
                    self.writer,
                    self.expected,
                    self.write_epoch,
                    self.actor,
                    hint
                )
            }
            FindingKind::WriteRace => format!(
                "{}: {} wrote {} = {} at cycle {}, conflicting with {}'s write of {} \
                 (epoch {}) — no sync operation orders these writes",
                self.kind.label(),
                self.actor,
                loc,
                self.observed,
                self.at,
                self.writer,
                self.expected,
                self.write_epoch
            ),
        }
    }
}

/// Structured sanitizer output carried in a run's outcome.
#[derive(Debug, Clone, Default)]
pub struct Diagnostics {
    pub mode: CheckMode,
    pub findings: Vec<Finding>,
    /// Ordered cross-thread loads actually checked against shadow state.
    pub checks: u64,
    /// Distinct words with live shadow metadata.
    pub tracked_words: u64,
    /// Findings dropped by per-(kind, word, actor) dedup or the report cap.
    pub suppressed: u64,
}

impl Diagnostics {
    /// True when checking ran (or was off) and found nothing.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty() && self.suppressed == 0
    }

    pub fn count(&self, kind: FindingKind) -> usize {
        self.findings.iter().filter(|f| f.kind == kind).count()
    }
}

// How far down the hierarchy a shadow value has provably travelled.
const ST_NONE: u8 = 0; // no tracked write
const ST_L1: u8 = 1; // only in the writer's private L1
const ST_BLOCK: u8 = 2; // reached block `block`'s shared L2
const ST_GLOBAL: u8 = 3; // reached the machine's globally shared level

/// Shadow metadata for one word. `Default` (all zeros, `state == ST_NONE`)
/// means "never stored to while checking".
#[derive(Debug, Clone, Copy, Default)]
struct WordMeta {
    writer: u16,
    block: u8,
    state: u8,
    /// Declared intentionally racy (`Op::MarkRacy`): exempt from
    /// staleness and write-race reporting, sticky for the run.
    racy: bool,
    epoch: u32,
    value: Word,
}

/// Keep at most this many distinct findings per run.
const MAX_FINDINGS: usize = 256;

/// The sanitizer itself. Owned by the incoherent backend; fed data events
/// by the memory system and sync events by the machine.
#[derive(Debug)]
pub struct Checker {
    mode: CheckMode,
    /// Cores per block: thread/core `t` lives in block `t / cpb`.
    cpb: usize,
    hb: HappensBefore,
    shadow: ShadowMap<WordMeta>,
    regions: Vec<(Region, String)>,
    findings: Vec<Finding>,
    seen: FxHashSet<(FindingKind, u64, usize)>,
    checks: u64,
    tracked_words: u64,
    suppressed: u64,
    now: Cycle,
    /// Index of the finding that should abort the run (Strict only),
    /// cleared once taken.
    fatal: Option<usize>,
}

impl Checker {
    /// `nthreads` is the machine's core count (threads are pinned 1:1),
    /// `cpb` its cores-per-block.
    pub fn new(mode: CheckMode, nthreads: usize, cpb: usize) -> Checker {
        assert!(mode != CheckMode::Off, "an Off checker must not be built");
        Checker {
            mode,
            cpb: cpb.max(1),
            hb: HappensBefore::new(nthreads),
            shadow: ShadowMap::new(),
            regions: Vec::new(),
            findings: Vec::new(),
            seen: FxHashSet::default(),
            checks: 0,
            tracked_words: 0,
            suppressed: 0,
            now: 0,
            fatal: None,
        }
    }

    pub fn mode(&self) -> CheckMode {
        self.mode
    }

    /// Install the allocation map used to name addresses in reports.
    pub fn set_regions(&mut self, regions: Vec<(Region, String)>) {
        self.regions = regions;
    }

    /// Called by the machine before executing each operation.
    #[inline]
    pub fn set_now(&mut self, now: Cycle) {
        self.now = now;
    }

    // ------------------------------------------------------------------
    // Data-path events (from the incoherent memory system)
    // ------------------------------------------------------------------

    /// A cached store by thread `t` wrote `v`; the new value starts life
    /// in `t`'s private L1.
    pub fn on_store(&mut self, t: usize, w: WordAddr, v: Word) {
        self.store_common(t, w, v, ST_L1);
    }

    /// An uncached store bypasses the private levels and lands at the
    /// machine's shared level directly.
    pub fn on_store_unc(&mut self, t: usize, w: WordAddr, v: Word) {
        self.store_common(t, w, v, ST_GLOBAL);
    }

    fn store_common(&mut self, t: usize, w: WordAddr, v: Word, state: u8) {
        let epoch = self.hb.epoch(t);
        let block = (t / self.cpb) as u8;
        let slot = self.shadow.entry(w);
        let prev = *slot;
        *slot = WordMeta {
            writer: t as u16,
            block,
            state,
            racy: prev.racy,
            epoch,
            value: v,
        };
        if prev.state == ST_NONE {
            self.tracked_words += 1;
            return;
        }
        if prev.racy {
            return;
        }
        let pw = prev.writer as usize;
        if pw != t && !self.hb.ordered(t, pw, prev.epoch) {
            let f = Finding {
                kind: FindingKind::WriteRace,
                addr: w,
                region: self.region_of(w),
                actor: ThreadId(t),
                writer: ThreadId(pw),
                observed: v,
                expected: prev.value,
                write_epoch: prev.epoch,
                actor_view: self.hb.view(t, pw),
                at: self.now,
                sync_hint: None,
            };
            self.report(f);
        }
    }

    /// Exempt a word from staleness and race reporting: the program
    /// declared its accesses racy (`racy_store`/`racy_load`, Figure 6).
    /// Sticky for the rest of the run.
    pub fn mark_racy(&mut self, w: WordAddr) {
        self.shadow.entry(w).racy = true;
    }

    /// A cached load by thread `t` observed `observed`.
    pub fn on_load(&mut self, t: usize, w: WordAddr, observed: Word) {
        let Some(m) = self.shadow.get(w) else { return };
        if m.state == ST_NONE || m.racy {
            return;
        }
        let m = *m;
        let writer = m.writer as usize;
        if writer == t {
            // A thread always sees its own latest store through its L1.
            return;
        }
        if !self.hb.ordered(t, writer, m.epoch) {
            // The write is not ordered before this read: either a benign
            // racy-read idiom (Figure 6) or a race already reported at the
            // conflicting write. Staleness is not a protocol violation
            // here — no sync op promised delivery.
            return;
        }
        self.checks += 1;
        if observed == m.value {
            return;
        }
        let reader_block = t / self.cpb;
        let reached =
            m.state == ST_GLOBAL || (m.state == ST_BLOCK && m.block as usize == reader_block);
        let (kind, sync_hint) = self.hb.stale_read(t, writer, reached);
        let f = Finding {
            kind,
            addr: w,
            region: self.region_of(w),
            actor: ThreadId(t),
            writer: ThreadId(writer),
            observed,
            expected: m.value,
            write_epoch: m.epoch,
            actor_view: self.hb.view(t, writer),
            at: self.now,
            sync_hint,
        };
        self.report(f);
    }

    /// An uncached load reads the shared level directly; checked the same
    /// way (it can still observe a value whose WB is missing).
    pub fn on_load_unc(&mut self, t: usize, w: WordAddr, observed: Word) {
        self.on_load(t, w, observed);
    }

    /// Dirty words left a private L1 and merged into block `blk`'s shared
    /// L2 (WB instruction, INV-forced writeback, or eviction).
    pub fn on_push_to_block(
        &mut self,
        blk: usize,
        line: LineAddr,
        data: &[Word; WORDS_PER_LINE],
        mask: DirtyMask,
    ) {
        self.upgrade(line, data, mask, ST_BLOCK, blk as u8);
    }

    /// Dirty words reached the machine's globally shared level (L3 on the
    /// hierarchical machine, L2/memory on the single-block machine).
    pub fn on_push_global(
        &mut self,
        line: LineAddr,
        data: &[Word; WORDS_PER_LINE],
        mask: DirtyMask,
    ) {
        self.upgrade(line, data, mask, ST_GLOBAL, 0);
    }

    fn upgrade(
        &mut self,
        line: LineAddr,
        data: &[Word; WORDS_PER_LINE],
        mask: DirtyMask,
        state: u8,
        block: u8,
    ) {
        if mask == 0 {
            return;
        }
        for (i, &word) in data.iter().enumerate() {
            if mask & (1 << i) == 0 {
                continue;
            }
            let Some(m) = self.shadow.get_mut(line.word(i)) else {
                continue;
            };
            if m.state == ST_NONE || word != m.value {
                // Not the tracked value (an older copy still draining, or
                // an untracked word): visibility of the *current* value is
                // unchanged.
                continue;
            }
            if state > m.state {
                m.state = state;
                m.block = block;
            } else if state == m.state && state == ST_BLOCK {
                // Same value now also present in another block's L2; track
                // the most recent home (either is sound for the value
                // comparison, this only sharpens WB-vs-INV attribution).
                m.block = block;
            }
        }
    }

    // ------------------------------------------------------------------
    // Sync-path events (from the machine's executor, in completion order)
    // ------------------------------------------------------------------

    /// A barrier released: all `participants` joined each other.
    pub fn on_barrier(&mut self, id: usize, participants: &[usize]) {
        self.hb.barrier(id, participants, self.now);
    }

    /// Thread `t` performed a release-side op (lock release, flag set)
    /// through sync object `id`.
    pub fn on_release(&mut self, t: usize, op: SyncOp, id: usize) {
        self.hb.release(t, op, id, self.now);
    }

    /// Thread `t` completed an acquire-side op (lock granted, flag wait
    /// satisfied) through sync object `id`.
    pub fn on_acquire(&mut self, t: usize, op: SyncOp, id: usize) {
        self.hb.acquire(t, op, id, self.now);
    }

    // ------------------------------------------------------------------
    // Results
    // ------------------------------------------------------------------

    fn region_of(&self, w: WordAddr) -> Option<String> {
        self.regions
            .iter()
            .find(|(r, _)| r.contains(w))
            .map(|(r, name)| format!("{}[{}]", name, w.0 - r.start.0))
    }

    fn report(&mut self, f: Finding) {
        if !self.seen.insert((f.kind, f.addr.0, f.actor.0)) {
            self.suppressed += 1;
            return;
        }
        if self.findings.len() >= MAX_FINDINGS {
            self.suppressed += 1;
            return;
        }
        if self.mode == CheckMode::Strict && self.fatal.is_none() {
            self.fatal = Some(self.findings.len());
        }
        self.findings.push(f);
    }

    pub fn findings(&self) -> &[Finding] {
        &self.findings
    }

    /// In Strict mode: the finding that should abort the run, delivered
    /// once. The machine polls this after every executed operation.
    pub fn take_fatal(&mut self) -> Option<Finding> {
        self.fatal.take().map(|i| self.findings[i].clone())
    }

    pub fn diagnostics(&self) -> Diagnostics {
        Diagnostics {
            mode: self.mode,
            findings: self.findings.clone(),
            checks: self.checks,
            tracked_words: self.tracked_words,
            suppressed: self.suppressed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const L: usize = WORDS_PER_LINE;

    fn line_data(v: Word) -> [Word; WORDS_PER_LINE] {
        [v; WORDS_PER_LINE]
    }

    /// Two blocks of two cores: threads 0,1 in block 0; threads 2,3 in
    /// block 1.
    fn checker() -> Checker {
        Checker::new(CheckMode::Report, 4, 2)
    }

    #[test]
    fn mode_names_round_trip_exactly() {
        for m in [CheckMode::Off, CheckMode::Report, CheckMode::Strict] {
            assert_eq!(CheckMode::parse(m.name()), Some(m));
        }
        for alias in ["", "0", "1", "on", "Strict", " report"] {
            assert_eq!(CheckMode::parse(alias), None, "{alias:?}");
        }
    }

    #[test]
    fn unsynced_stale_read_is_not_reported() {
        let mut c = checker();
        c.on_store(0, WordAddr(3), 7);
        // Thread 1 reads the stale 0 — racy by construction, no sync edge.
        c.on_load(1, WordAddr(3), 0);
        assert!(c.findings().is_empty());
        assert_eq!(c.diagnostics().checks, 0);
    }

    #[test]
    fn missing_wb_detected_after_sync_edge() {
        let mut c = checker();
        c.on_store(0, WordAddr(3), 7);
        c.on_barrier(0, &[0, 1, 2, 3]);
        c.on_load(1, WordAddr(3), 0); // stale: never pushed anywhere
        assert_eq!(c.findings().len(), 1);
        let f = &c.findings()[0];
        assert_eq!(f.kind, FindingKind::MissingWb);
        assert_eq!(f.writer, ThreadId(0));
        assert_eq!(f.actor, ThreadId(1));
        assert_eq!(f.expected, 7);
        assert_eq!(f.observed, 0);
        assert!(f.sync_hint.is_some());
    }

    #[test]
    fn fresh_read_after_sync_is_clean_and_counted() {
        let mut c = checker();
        c.on_store(0, WordAddr(3), 7);
        c.on_push_global(LineAddr(0), &line_data(7), 1 << 3);
        c.on_barrier(0, &[0, 1, 2, 3]);
        c.on_load(1, WordAddr(3), 7);
        assert!(c.findings().is_empty());
        assert_eq!(c.diagnostics().checks, 1);
    }

    #[test]
    fn missing_inv_when_value_reached_common_level() {
        let mut c = checker();
        c.on_store(0, WordAddr(3), 7);
        // Pushed into block 0's L2 — the common level for threads 0 and 1.
        c.on_push_to_block(0, LineAddr(0), &line_data(7), 1 << 3);
        c.on_barrier(0, &[0, 1, 2, 3]);
        c.on_load(1, WordAddr(3), 0); // stale private copy
        assert_eq!(c.findings().len(), 1);
        assert_eq!(c.findings()[0].kind, FindingKind::MissingInv);
    }

    #[test]
    fn block_local_wb_is_still_missing_wb_across_blocks() {
        let mut c = checker();
        c.on_store(0, WordAddr(3), 7);
        c.on_push_to_block(0, LineAddr(0), &line_data(7), 1 << 3);
        c.on_barrier(0, &[0, 1, 2, 3]);
        // Thread 2 is in block 1: block 0's L2 is not their common level.
        c.on_load(2, WordAddr(3), 0);
        assert_eq!(c.findings().len(), 1);
        assert_eq!(c.findings()[0].kind, FindingKind::MissingWb);
    }

    #[test]
    fn push_with_mismatched_value_does_not_upgrade() {
        let mut c = checker();
        c.on_store(0, WordAddr(3), 7);
        // An older copy of the line drains; word 3 carries a stale 5.
        c.on_push_global(LineAddr(0), &line_data(5), 1 << 3);
        c.on_barrier(0, &[0, 1, 2, 3]);
        c.on_load(1, WordAddr(3), 5);
        // Still classified as missing WB: the tracked value 7 never left L1.
        assert_eq!(c.findings()[0].kind, FindingKind::MissingWb);
    }

    #[test]
    fn flag_release_acquire_orders_and_detects() {
        let mut c = checker();
        c.on_store(0, WordAddr(20), 9);
        c.on_release(0, SyncOp::FlagSet, 5);
        c.on_acquire(3, SyncOp::FlagWait, 5);
        c.on_load(3, WordAddr(20), 0);
        assert_eq!(c.findings().len(), 1);
        let f = &c.findings()[0];
        assert_eq!(f.kind, FindingKind::MissingWb);
        assert_eq!(f.sync_hint.unwrap().op, SyncOp::FlagSet);
        // Thread 2 never synced: its stale read stays unreported.
        c.on_load(2, WordAddr(20), 0);
        assert_eq!(c.findings().len(), 1);
    }

    #[test]
    fn post_release_writes_are_not_covered() {
        let mut c = checker();
        c.on_release(0, SyncOp::FlagSet, 5);
        c.on_store(0, WordAddr(20), 9); // after the release: epoch 2
        c.on_acquire(3, SyncOp::FlagWait, 5);
        c.on_load(3, WordAddr(20), 0);
        assert!(c.findings().is_empty());
    }

    #[test]
    fn write_race_reported_once() {
        let mut c = checker();
        c.on_store(0, WordAddr(8), 1);
        c.on_store(1, WordAddr(8), 2);
        c.on_store(1, WordAddr(8), 3);
        assert_eq!(c.findings().len(), 1);
        assert_eq!(c.findings()[0].kind, FindingKind::WriteRace);
        assert_eq!(c.diagnostics().suppressed, 0);
        // Ordered writes don't race.
        let mut c2 = checker();
        c2.on_store(0, WordAddr(8), 1);
        c2.on_barrier(0, &[0, 1]);
        c2.on_store(1, WordAddr(8), 2);
        assert!(c2.findings().is_empty());
    }

    #[test]
    fn self_reads_and_own_writes_are_exempt() {
        let mut c = checker();
        c.on_store(0, WordAddr(8), 1);
        c.on_load(0, WordAddr(8), 1);
        c.on_store(0, WordAddr(8), 2); // same thread overwrites freely
        assert!(c.findings().is_empty());
    }

    #[test]
    fn strict_mode_latches_fatal_once() {
        let mut c = Checker::new(CheckMode::Strict, 4, 2);
        c.on_store(0, WordAddr(3), 7);
        c.on_barrier(0, &[0, 1, 2, 3]);
        c.on_load(1, WordAddr(3), 0);
        let f = c.take_fatal().expect("first finding is fatal");
        assert_eq!(f.kind, FindingKind::MissingWb);
        assert!(c.take_fatal().is_none());
    }

    #[test]
    fn dedup_suppresses_repeats_per_actor() {
        let mut c = checker();
        c.on_store(0, WordAddr(3), 7);
        c.on_barrier(0, &[0, 1, 2, 3]);
        c.on_load(1, WordAddr(3), 0);
        c.on_load(1, WordAddr(3), 0);
        c.on_load(2, WordAddr(3), 0); // different reader: new finding
        assert_eq!(c.findings().len(), 2);
        assert_eq!(c.diagnostics().suppressed, 1);
    }

    #[test]
    fn region_names_appear_in_renders() {
        let mut c = checker();
        c.set_regions(vec![(Region::new(WordAddr(0), L as u64), "halo".into())]);
        c.on_store(0, WordAddr(3), 7);
        c.on_barrier(0, &[0, 1, 2, 3]);
        c.on_load(1, WordAddr(3), 0);
        let msg = c.findings()[0].render();
        assert!(msg.contains("halo[3]"), "{msg}");
        assert!(msg.contains("t1"), "{msg}");
        assert!(msg.contains("missing WB"), "{msg}");
    }

    #[test]
    fn uncached_store_is_globally_visible() {
        let mut c = checker();
        c.on_store_unc(0, WordAddr(3), 7);
        c.on_barrier(0, &[0, 1, 2, 3]);
        // Reader's stale private copy masks a globally visible value.
        c.on_load(2, WordAddr(3), 0);
        assert_eq!(c.findings()[0].kind, FindingKind::MissingInv);
    }
}
