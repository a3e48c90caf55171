//! The hardware-incoherent cache hierarchy with WB/INV management.
//!
//! Caches never snoop and no directory exists. Data moves only when:
//!
//! * a miss pulls a line up (L2 -> L1, L3/memory -> L2);
//! * an eviction or a WB instruction pushes dirty words down;
//! * an INV instruction drops local copies (writing dirty words back
//!   first — no update is ever lost, §III-B).
//!
//! The hierarchy is non-inclusive. A dirty push lands in the first lower
//! level that holds the line, else in memory; the read path always probes
//! levels in order, so visibility is preserved.
//!
//! Latency model (DESIGN.md §2): cache round trips from Table III plus
//! mesh hops; `ALL` flavors pay a tag-traversal cost of
//! `lines / tags_per_cycle` cycles, writebacks pipeline at one line per
//! `wb_pipeline_ii` cycles; the MEB replaces the traversal by its own
//! (tiny) occupancy, and the IEB replaces the up-front `INV ALL` with
//! per-first-read refreshes.

use hic_check::Checker;
use hic_core::ieb::IebAction;
use hic_core::{CohInstr, Ieb, InvScope, Meb, MebDrain, Target, ThreadMap, WbScope};
use hic_fault::{FaultPlan, FaultState, ResilienceStats, SALT_MEM};
use hic_mem::addr::WORDS_PER_LINE;
use hic_mem::cache::{DirtyMask, EvictedLine};
use hic_mem::{Cache, LineAddr, Memory, Word, WordAddr};
use hic_noc::{Mesh, TrafficCategory, TrafficLedger};
use hic_sim::{BlockId, CoreId, MachineConfig};

/// Cycles for a flash (gang) clear of a whole cache's valid bits. ALL-
/// flavor operations complete in this time when the dirty-line counter
/// says there is nothing to write back.
const FLASH_CYCLES: u64 = 4;

/// Event counters used by the Figure 11 harness and by tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncCounters {
    /// WB instructions executed, split by the level they reached.
    pub local_wbs: u64,
    pub global_wbs: u64,
    /// INV instructions executed, split by the level they reached.
    pub local_invs: u64,
    pub global_invs: u64,
    /// Lines actually transferred by WB operations.
    pub lines_written_back: u64,
    /// Lines dropped by INV operations.
    pub lines_invalidated: u64,
    /// First-read refreshes performed under IEB epochs.
    pub ieb_refreshes: u64,
    /// WB ALLs served from the MEB / that fell back to full traversal.
    pub meb_drains: u64,
    pub meb_overflows: u64,
}

/// The hardware-incoherent memory system.
#[derive(Debug)]
pub struct IncoherentSystem {
    cfg: MachineConfig,
    mesh: Mesh,
    l1: Vec<Cache>,
    l2: Vec<Cache>,
    l3: Vec<Cache>,
    mem: Memory,
    meb: Vec<Meb>,
    ieb: Vec<Ieb>,
    tmap: ThreadMap,
    pub traffic: TrafficLedger,
    pub counters: IncCounters,
    /// Reusable scratch for WB/INV traversals: `(line, dirty-words)`
    /// work lists and an address list. Taken with `mem::take` for the
    /// duration of one instruction and put back, so ALL-flavor
    /// instructions allocate nothing in steady state.
    wb_scratch: Vec<(LineAddr, DirtyMask)>,
    wb_l2_scratch: Vec<(LineAddr, DirtyMask)>,
    inv_scratch: Vec<LineAddr>,
    /// Optional incoherence sanitizer (`hic-check`). Boxed so the `None`
    /// fast path costs one pointer test; `None` runs are bit-identical to
    /// a build without the checker.
    pub(crate) checker: Option<Box<Checker>>,
    /// Fault injection (`hic-fault`, SALT_MEM stream): dropped transfers
    /// with retry and transient L1 bit flips. `None` runs are
    /// bit-identical to a build without injection.
    faults: Option<Box<FaultState>>,
    /// Latched unrecoverable fault (a corrupted dirty line), taken once
    /// by the machine and surfaced as `RunError::CorruptDirtyLine`.
    fault_fatal: Option<String>,
    /// Whether any cache may hold a line. Every cached line starts as a
    /// read of memory, so `read_line_for_fill` sets it; until then
    /// `poke_word` writes memory alone.
    filled: bool,
}

impl IncoherentSystem {
    pub fn new(cfg: MachineConfig) -> IncoherentSystem {
        let ncores = cfg.num_cores();
        let nblocks = cfg.num_blocks();
        let bpb = cfg.l2_banks_per_block();
        let l3 = cfg.l3();
        let l3_banks = l3.map(|l| l.banks).unwrap_or(0);
        IncoherentSystem {
            mesh: Mesh::for_config(&cfg),
            l1: (0..ncores).map(|_| Cache::new(cfg.l1)).collect(),
            l2: (0..nblocks * bpb).map(|_| Cache::new(cfg.l2)).collect(),
            l3: (0..l3_banks)
                .map(|_| Cache::new(l3.expect("l3_banks > 0 implies an L3").geometry))
                .collect(),
            mem: Memory::new(),
            meb: (0..ncores).map(|_| Meb::new(cfg.meb_entries)).collect(),
            ieb: (0..ncores).map(|_| Ieb::new(cfg.ieb_entries)).collect(),
            tmap: ThreadMap::identity(nblocks, cfg.cores_per_block()),
            traffic: TrafficLedger::new(),
            counters: IncCounters::default(),
            wb_scratch: Vec::new(),
            wb_l2_scratch: Vec::new(),
            inv_scratch: Vec::new(),
            checker: None,
            faults: None,
            fault_fatal: None,
            filled: false,
            cfg,
        }
    }

    /// Install a fault plan: link perturbation on this system's mesh,
    /// transfer drop/retry, and (when the plan flips bits) per-line
    /// parity on every L1 so corruption is detected instead of silently
    /// returning wrong data. Plans with rollback recovery additionally
    /// enable copy-on-write dirty-line checkpoints on every L1, the
    /// restore source for corrupted dirty lines.
    pub fn install_faults(&mut self, plan: &FaultPlan) {
        self.mesh.set_faults(plan.link_faults());
        if plan.flip_period > 0 {
            for c in &mut self.l1 {
                c.enable_parity();
                if plan.recover {
                    c.enable_checkpoints();
                }
            }
        }
        self.faults = Some(Box::new(FaultState::new(*plan, SALT_MEM)));
    }

    /// Resilience ledger (zeros when no faults are installed). The
    /// checkpoint footprint lives in the L1s' checkpoint stores, not the
    /// fault state, so it is folded in here.
    pub fn resilience(&self) -> ResilienceStats {
        let mut r = self.faults.as_ref().map(|f| f.stats).unwrap_or_default();
        r.checkpoint_words += self.l1.iter().map(|c| c.checkpoint_words()).sum::<u64>();
        r
    }

    /// The latched unrecoverable fault, delivered at most once.
    pub fn take_fault_fatal(&mut self) -> Option<String> {
        self.fault_fatal.take()
    }

    /// A line (or partial-line) transfer crosses the mesh: give the
    /// fault plan a chance to drop it. A dropped transfer is recovered
    /// by a controller-side retry (timeout + exponential backoff): the
    /// retried flits are charged to the same traffic category and the
    /// retry wait is returned as extra cycles (callers on posted paths
    /// discard it — the core never waited for the original either).
    #[inline]
    fn fault_transfer(&mut self, flits: u64, cat: TrafficCategory) -> u64 {
        let Some(fs) = self.faults.as_mut() else {
            return 0;
        };
        let (extra_cycles, extra_flits) = fs.on_transfer(flits);
        if extra_flits > 0 {
            self.traffic.add(cat, extra_flits);
        }
        extra_cycles
    }

    /// Fault hook on the read path: maybe flip one bit of the L1 line
    /// about to be read, then verify the line's parity. A corrupted
    /// clean line recovers by refetch — the copy below is intact, so the
    /// line is dropped and the read misses into a fresh fill (counted as
    /// recovery traffic). A corrupted dirty line holds the only copy of
    /// its dirty words: with rollback recovery enabled the line is
    /// restored from its epoch checkpoint and the journaled stores are
    /// replayed (returning the repair latency, charged to the read);
    /// otherwise — or when a second upset strikes the line during its
    /// own replay — a fatal finding is latched instead of letting the
    /// run complete with silently wrong data.
    fn fault_scrub(&mut self, c: CoreId, line: LineAddr) -> u64 {
        let decision = match self.faults.as_mut() {
            Some(fs) => fs.flip_decision(),
            None => return 0,
        };
        if let Some((wsel, bit)) = decision {
            if let Some(mask) = self.l1[c.0].view(line).map(|v| v.dirty) {
                let fs = self.faults.as_mut().expect("faults installed");
                if mask == 0 || fs.flip_dirty_allowed() {
                    self.l1[c.0].corrupt_bit(line, wsel % WORDS_PER_LINE, bit);
                    let fs = self.faults.as_mut().expect("faults installed");
                    fs.stats.bit_flips += 1;
                }
            }
        }
        if !self.l1[c.0].parity_ok(line) {
            let mask = self.l1[c.0].view(line).map(|v| v.dirty).unwrap_or(0);
            if mask != 0 {
                let fs = self.faults.as_mut().expect("faults installed");
                if fs.recover_enabled() {
                    // Every dirtying path captures a checkpoint, so a
                    // resident dirty line is always tracked; a `None`
                    // here would be a checkpoint-store bug and falls
                    // through to the fatal rather than mis-serving.
                    if let Some(stores) = self.l1[c.0].rollback_line(line) {
                        let fs = self.faults.as_mut().expect("faults installed");
                        if fs.replay_flip(stores) {
                            if self.fault_fatal.is_none() {
                                self.fault_fatal = Some(format!(
                                    "corrupt dirty line: a second upset struck \
                                     {c}'s L1 copy of line {:#x} (dirty mask \
                                     {mask:#06x}) during its own rollback replay \
                                     of {stores} stores; the epoch checkpoint is \
                                     no longer a clean recovery point, so the \
                                     data cannot be recovered",
                                    line.0
                                ));
                            }
                            return 0;
                        }
                        // Restore round-trip plus one cycle per replayed
                        // store, charged to the read that tripped parity.
                        let cost = self.cfg.l1_rt + stores;
                        let fs = self.faults.as_mut().expect("faults installed");
                        fs.stats.rollbacks += 1;
                        fs.stats.rollback_cycles += cost;
                        return cost;
                    }
                }
                if self.fault_fatal.is_none() {
                    self.fault_fatal = Some(format!(
                        "corrupt dirty line: parity error in {c}'s L1 copy of \
                         line {:#x} (dirty mask {mask:#06x}); the dirty words \
                         exist nowhere else in the hierarchy, so the data \
                         cannot be recovered",
                        line.0
                    ));
                }
            } else {
                // Clean line: the copy below is intact. Drop the corrupted
                // line; the read misses and refetches a fresh copy.
                self.l1[c.0].invalidate(line);
                let flits = self.cfg.line_flits();
                let fs = self.faults.as_mut().expect("faults installed");
                fs.stats.flips_recovered += 1;
                fs.stats.recovery_flits += flits;
            }
        }
        0
    }

    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    // ------------------------------------------------------------------
    // Downward pushes (eviction / WB / INV writebacks)
    // ------------------------------------------------------------------

    /// Push dirty words below L1: into the block's L2 if it holds the
    /// line, else below L2. Counted as L1 writeback traffic.
    fn push_below_l1(
        &mut self,
        blk: usize,
        line: LineAddr,
        data: &[Word; WORDS_PER_LINE],
        mask: DirtyMask,
    ) {
        debug_assert!(mask != 0);
        let bytes = mask.count_ones() as usize * 4;
        let flits = self.cfg.flits_for(bytes);
        self.traffic.add(TrafficCategory::Writeback, flits);
        self.fault_transfer(flits, TrafficCategory::Writeback);
        let hb = self.cfg.topology.home_bank(blk, line.0);
        if self.l2[hb].merge_words(line, data, mask) {
            if let Some(chk) = self.checker.as_deref_mut() {
                chk.on_push_to_block(blk, line, data, mask);
            }
            return;
        }
        self.push_below_l2(line, data, mask);
    }

    /// Push dirty words below L2: into L3 if present, else memory.
    fn push_below_l2(&mut self, line: LineAddr, data: &[Word; WORDS_PER_LINE], mask: DirtyMask) {
        debug_assert!(mask != 0);
        if let Some(chk) = self.checker.as_deref_mut() {
            chk.on_push_global(line, data, mask);
        }
        let bytes = mask.count_ones() as usize * 4;
        let flits = self.cfg.flits_for(bytes);
        if self.cfg.is_hierarchical() {
            let l3b = self.cfg.topology.l3_bank(line.0);
            if self.l3[l3b].merge_words(line, data, mask) {
                self.traffic.add(TrafficCategory::L2L3, flits);
                self.fault_transfer(flits, TrafficCategory::L2L3);
                return;
            }
        }
        self.traffic.add(TrafficCategory::Memory, flits);
        self.fault_transfer(flits, TrafficCategory::Memory);
        self.mem.merge_words(line, data, mask);
    }

    /// Push dirty words below L3 (L3 evictions): memory.
    fn push_below_l3(&mut self, line: LineAddr, data: &[Word; WORDS_PER_LINE], mask: DirtyMask) {
        debug_assert!(mask != 0);
        let bytes = mask.count_ones() as usize * 4;
        let flits = self.cfg.flits_for(bytes);
        self.traffic.add(TrafficCategory::Memory, flits);
        self.fault_transfer(flits, TrafficCategory::Memory);
        self.mem.merge_words(line, data, mask);
    }

    fn handle_l1_eviction(&mut self, blk: usize, victim: EvictedLine) {
        if victim.dirty != 0 {
            self.push_below_l1(blk, victim.addr, &victim.data, victim.dirty);
        }
    }

    fn handle_l2_eviction(&mut self, victim: EvictedLine) {
        if victim.dirty != 0 {
            self.push_below_l2(victim.addr, &victim.data, victim.dirty);
        }
    }

    fn handle_l3_eviction(&mut self, victim: EvictedLine) {
        if victim.dirty != 0 {
            self.push_below_l3(victim.addr, &victim.data, victim.dirty);
        }
    }

    // ------------------------------------------------------------------
    // Upward fetches
    // ------------------------------------------------------------------

    /// Read `line` from memory for a fill, charging its traffic. Every
    /// cached line starts as such a read, so this is where the machine
    /// notes that a cache may hold something.
    fn read_line_for_fill(&mut self, line: LineAddr) -> [Word; WORDS_PER_LINE] {
        self.filled = true;
        self.traffic
            .add(TrafficCategory::Memory, self.cfg.line_flits());
        self.mem.read_line(line)
    }

    /// Ensure L3 bank `l3b` holds `line`, filling it from memory on a
    /// miss; returns the memory latency (0 on a hit). `link_faults`
    /// passes the memory transfer through the fault plan, as a fetch
    /// into an L2 does; an uncached access's does not.
    fn fill_l3_on_miss(&mut self, l3b: usize, line: LineAddr, link_faults: bool) -> u64 {
        if self.l3[l3b].probe(line).is_hit() {
            return 0;
        }
        let data = self.read_line_for_fill(line);
        let mut lat = self.cfg.mem_rt;
        if link_faults {
            lat += self.fault_transfer(self.cfg.line_flits(), TrafficCategory::Memory);
        }
        if let Some(v) = self.l3[l3b].fill(line, data, 0) {
            self.handle_l3_eviction(v);
        }
        lat
    }

    /// Ensure the block's L2 holds `line`; returns the extra latency past
    /// the home-bank round trip.
    fn fetch_into_l2(&mut self, blk: usize, line: LineAddr) -> u64 {
        let hb = self.cfg.topology.home_bank(blk, line.0);
        if self.l2[hb].probe(line).is_hit() {
            return 0;
        }
        let hb_tile = self.cfg.topology.bank_tile(hb);
        if self.cfg.is_hierarchical() {
            let l3b = self.cfg.topology.l3_bank(line.0);
            let mut lat = self.mesh.rt_latency_to_corner(hb_tile, l3b) + self.cfg.topology.l3_rt();
            lat += self.fill_l3_on_miss(l3b, line, true);
            let data = *self.l3[l3b].view(line).expect("just filled").data;
            self.traffic
                .add(TrafficCategory::L2L3, self.cfg.line_flits());
            lat += self.fault_transfer(self.cfg.line_flits(), TrafficCategory::L2L3);
            if let Some(v) = self.l2[hb].fill(line, data, 0) {
                self.handle_l2_eviction(v);
            }
            lat
        } else {
            let corner = self.mesh.nearest_corner(hb_tile);
            let mut lat = self.mesh.rt_latency_to_corner(hb_tile, corner) + self.cfg.mem_rt;
            let data = self.read_line_for_fill(line);
            lat += self.fault_transfer(self.cfg.line_flits(), TrafficCategory::Memory);
            if let Some(v) = self.l2[hb].fill(line, data, 0) {
                self.handle_l2_eviction(v);
            }
            lat
        }
    }

    /// Fetch `line` into core `c`'s L1 (it must currently miss).
    /// Returns the latency beyond the L1 probe.
    fn fetch_into_l1(&mut self, c: CoreId, line: LineAddr) -> u64 {
        let blk = self.cfg.topology.block_of(c.0);
        let hb = self.cfg.topology.home_bank(blk, line.0);
        let mut lat = self.mesh.rt_latency(c.0, self.cfg.topology.bank_tile(hb)) + self.cfg.l2_rt;
        lat += self.fetch_into_l2(blk, line);
        let data = *self.l2[hb].view(line).expect("in L2 now").data;
        self.traffic
            .add(TrafficCategory::Linefill, self.cfg.line_flits());
        lat += self.fault_transfer(self.cfg.line_flits(), TrafficCategory::Linefill);
        if let Some(v) = self.l1[c.0].fill(line, data, 0) {
            self.handle_l1_eviction(blk, v);
        }
        lat
    }

    // ------------------------------------------------------------------
    // Loads and stores
    // ------------------------------------------------------------------

    /// Incoherent load: serves whatever the local hierarchy holds (which
    /// may be stale — that is the point). Under an active IEB epoch the
    /// first read of each line is refreshed from the shared cache.
    pub fn read(&mut self, c: CoreId, w: WordAddr) -> (Word, u64) {
        let line = w.line();
        let idx = w.index_in_line();
        let scrub = if self.faults.is_some() {
            // Rollback-repair latency (0 on the clean path), charged to
            // the read that tripped parity.
            self.fault_scrub(c, line)
        } else {
            0
        };
        if self.ieb[c.0].active() {
            let hit = self.l1[c.0].probe(line).is_hit();
            let word_dirty = hit && self.l1[c.0].word_dirty(line, idx);
            match self.ieb[c.0].on_read(line, word_dirty) {
                IebAction::Normal => {}
                IebAction::RefreshFromShared => {
                    self.counters.ieb_refreshes += 1;
                    let blk = self.cfg.topology.block_of(c.0);
                    if let Some(inv) = self.l1[c.0].invalidate(line) {
                        if inv.dirty != 0 {
                            self.push_below_l1(blk, line, &inv.data, inv.dirty);
                        }
                    }
                    let lat = self.cfg.l1_rt + self.fetch_into_l1(c, line);
                    let v = self.l1[c.0].read_word(line, idx).expect("just filled");
                    return (v, scrub + lat);
                }
            }
        }
        if let Some((v, lat)) = self.load_hit(c, line, idx) {
            return (v, scrub + lat);
        }
        let lat = self.cfg.l1_rt + self.fetch_into_l1(c, line);
        let v = self.l1[c.0].read_word(line, idx).expect("just filled");
        (v, scrub + lat)
    }

    /// The L1-hit part of a load: the word and the L1 round trip, or
    /// `None` on a miss, with nothing changed.
    #[inline]
    fn load_hit(&mut self, c: CoreId, line: LineAddr, idx: usize) -> Option<(Word, u64)> {
        let v = self.l1[c.0].read_word(line, idx)?;
        Some((v, self.cfg.l1_rt))
    }

    /// Core `c`'s load of `w` if it touches only its own L1: a hit outside
    /// an IEB epoch (inside one, a first read may refresh the line from
    /// the shared cache). No other core's op ever changes this core's L1,
    /// so the answer holds at the op's simulated time. `None`, with
    /// nothing changed, otherwise. The caller guarantees that no fault
    /// plan or sanitizer watches the read.
    #[inline]
    pub(crate) fn read_private(&mut self, c: CoreId, w: WordAddr) -> Option<(Word, u64)> {
        if self.ieb[c.0].active() {
            return None;
        }
        self.load_hit(c, w.line(), w.index_in_line())
    }

    /// Incoherent store: write-allocate into the L1, set the word's dirty
    /// bit, and feed the MEB on clean->dirty transitions.
    pub fn write(&mut self, c: CoreId, w: WordAddr, v: Word) -> u64 {
        if let Some(lat) = self.write_private(c, w, v) {
            return lat;
        }
        let lat = self.cfg.l1_rt + self.fetch_into_l1(c, w.line());
        self.write_private(c, w, v).expect("just filled");
        lat
    }

    /// The L1-hit part of a store, private to core `c`: set the word's
    /// dirty bit, feed the MEB on a clean->dirty transition and return
    /// the L1 round trip. `None` on a miss, with nothing changed.
    #[inline]
    pub(crate) fn write_private(&mut self, c: CoreId, w: WordAddr, v: Word) -> Option<u64> {
        let line = w.line();
        let was_clean = self.l1[c.0].write_word(line, w.index_in_line(), v)?;
        if was_clean {
            let id = self.l1[c.0].line_id(line).expect("resident");
            self.meb[c.0].on_clean_word_write(id);
        }
        Some(self.cfg.l1_rt)
    }

    /// Uncacheable load: served by the globally shared level — the L3 on
    /// the multi-block machine, the L2 otherwise — without touching the
    /// L1. Correct use requires that the word is accessed *only*
    /// uncacheably (the MPI library guarantees this for its buffers).
    pub fn read_uncached(&mut self, c: CoreId, w: WordAddr) -> (Word, u64) {
        let line = w.line();
        let idx = w.index_in_line();
        self.traffic.add(TrafficCategory::Sync, 2);
        if self.cfg.is_hierarchical() {
            let l3b = self.cfg.topology.l3_bank(line.0);
            let mut lat = self.mesh.rt_latency_to_corner(c.0, l3b) + self.cfg.topology.l3_rt();
            lat += self.fill_l3_on_miss(l3b, line, false);
            (self.l3[l3b].view(line).expect("filled").data[idx], lat)
        } else {
            let blk = self.cfg.topology.block_of(c.0);
            let hb = self.cfg.topology.home_bank(blk, line.0);
            let mut lat =
                self.mesh.rt_latency(c.0, self.cfg.topology.bank_tile(hb)) + self.cfg.l2_rt;
            lat += self.fetch_into_l2(blk, line);
            (self.l2[hb].view(line).expect("filled").data[idx], lat)
        }
    }

    /// Uncacheable store (see [`IncoherentSystem::read_uncached`]).
    pub fn write_uncached(&mut self, c: CoreId, w: WordAddr, v: Word) -> u64 {
        let line = w.line();
        let idx = w.index_in_line();
        self.traffic.add(TrafficCategory::Sync, 2);
        let mut one = [0u32; WORDS_PER_LINE];
        one[idx] = v;
        let mask: DirtyMask = 1 << idx;
        if self.cfg.is_hierarchical() {
            let l3b = self.cfg.topology.l3_bank(line.0);
            let mut lat = self.mesh.rt_latency_to_corner(c.0, l3b) + self.cfg.topology.l3_rt();
            lat += self.fill_l3_on_miss(l3b, line, false);
            self.l3[l3b].merge_words(line, &one, mask);
            lat
        } else {
            let blk = self.cfg.topology.block_of(c.0);
            let hb = self.cfg.topology.home_bank(blk, line.0);
            let mut lat =
                self.mesh.rt_latency(c.0, self.cfg.topology.bank_tile(hb)) + self.cfg.l2_rt;
            lat += self.fetch_into_l2(blk, line);
            self.l2[hb].merge_words(line, &one, mask);
            lat
        }
    }

    // ------------------------------------------------------------------
    // WB / INV execution
    // ------------------------------------------------------------------

    /// Execute a coherence-management instruction for core `c`.
    /// Returns `(latency, is_wb)` so the caller can charge the right stall
    /// category.
    pub fn exec_coh(&mut self, c: CoreId, instr: CohInstr) -> (u64, bool) {
        match instr {
            CohInstr::Wb { target, scope } => (self.exec_wb(c, target, scope), true),
            CohInstr::Inv { target, scope } => (self.exec_inv(c, target, scope), false),
        }
    }

    fn exec_wb(&mut self, c: CoreId, target: Target, scope: WbScope) -> u64 {
        let blk = self.cfg.topology.block_of(c.0);
        let global = self.tmap.wb_is_global(BlockId(blk), scope);
        if global {
            self.counters.global_wbs += 1;
        } else {
            self.counters.local_wbs += 1;
        }
        let mut lat;
        // Collect (line, words-to-push) pairs from the L1 into the
        // reusable scratch list (returned to `self` before exiting).
        let mut work = std::mem::take(&mut self.wb_scratch);
        work.clear();
        match target {
            Target::All => {
                // Try the MEB first: if it tracked the epoch, walk its IDs
                // instead of every tag.
                match self.meb_lines(c) {
                    Some(ids) => {
                        self.counters.meb_drains += 1;
                        lat = ids.len() as u64; // one lookup per entry
                        for id in ids {
                            if let Some(v) = self.l1[c.0].line_at_id(id) {
                                if v.dirty != 0 {
                                    work.push((v.addr, v.dirty));
                                }
                            }
                        }
                    }
                    None => {
                        // A dirty-line counter lets a clean cache skip the
                        // tag traversal entirely. (The simulated cost still
                        // models the tag sweep; the host walks only the
                        // dirty-slot bitmap.)
                        lat = if self.l1[c.0].dirty_lines_resident() == 0 {
                            FLASH_CYCLES
                        } else {
                            self.cfg.l1.num_lines() as u64 / self.cfg.tags_per_cycle
                        };
                        self.l1[c.0].for_each_dirty_line(|v| work.push((v.addr, v.dirty)));
                    }
                }
            }
            _ => {
                let lines = target.lines().expect("non-ALL target");
                lat = lines.len() as u64; // tag check per line
                for line in lines {
                    if let Some(v) = self.l1[c.0].view(line) {
                        let mask = v.dirty & target.word_mask(line);
                        if mask != 0 {
                            work.push((line, mask));
                        }
                    }
                }
            }
        }
        lat += self.cfg.l1_rt;
        // Transfer phase. WB proceeds like a store through the write
        // buffer (§III-C): the transfers are *posted* and pipeline at one
        // line per `wb_pipeline_ii`; the core does not wait for network
        // round trips. Only the whole-cache flavor pays a drain
        // acknowledgement (it marks an epoch boundary where completion
        // must be visible before the synchronization proceeds).
        if !work.is_empty() {
            for &(line, mask) in &work {
                let data = *self.l1[c.0].view(line).expect("resident").data;
                self.push_below_l1(blk, line, &data, mask);
                // Paper §III-B: the transferred words are now clean valid.
                // Words outside the target mask keep their dirty bits — a
                // partial WB must not lose co-located updates.
                self.l1[c.0].clean_words(line, mask);
                self.counters.lines_written_back += 1;
            }
            lat += work.len() as u64 * self.cfg.wb_pipeline_ii;
        }
        if matches!(target, Target::All) {
            // Drain ack: round trip to the nearest-home L2 bank.
            let hb0 = self
                .cfg
                .topology
                .bank_tile(blk * self.cfg.l2_banks_per_block());
            lat += self.mesh.rt_latency(c.0, hb0) + self.cfg.l2_rt;
        }
        // Global scope: additionally push the L2's dirty copies down to L3.
        if global {
            let mut l2_work = std::mem::take(&mut self.wb_l2_scratch);
            l2_work.clear();
            match target {
                Target::All => {
                    // WB_CONS ALL across blocks writes back the whole local
                    // block's L2 (§V-B). Each bank's controller traverses
                    // its own tags concurrently; a bank with no dirty
                    // lines flash-completes.
                    let mut trav = FLASH_CYCLES;
                    for bank in 0..self.cfg.l2_banks_per_block() {
                        let gb = blk * self.cfg.l2_banks_per_block() + bank;
                        if self.l2[gb].dirty_lines_resident() > 0 {
                            trav = self.cfg.l2.num_lines() as u64 / self.cfg.tags_per_cycle;
                        }
                        let l2 = &self.l2[gb];
                        l2.for_each_dirty_line(|v| l2_work.push((v.addr, v.dirty)));
                    }
                    lat += trav;
                }
                _ => {
                    for line in target.lines().expect("non-ALL") {
                        let hb = self.cfg.topology.home_bank(blk, line.0);
                        if let Some(v) = self.l2[hb].view(line) {
                            let mask = v.dirty & target.word_mask(line);
                            if mask != 0 {
                                l2_work.push((line, mask));
                            }
                        }
                    }
                }
            }
            if !l2_work.is_empty() {
                // L2 -> L3 pushes are posted as well; an ALL flavor pays
                // one drain ack covering every involved L3 bank.
                lat += self.cfg.l2_rt + l2_work.len() as u64 * self.cfg.wb_pipeline_ii;
                if matches!(target, Target::All) {
                    // The epoch cannot close until the slowest posted push
                    // is acknowledged, so the ack round trip is to the
                    // *farthest* involved L3 bank, not whichever bank the
                    // first work item happened to map to.
                    let hb_tile = self
                        .cfg
                        .topology
                        .bank_tile(blk * self.cfg.l2_banks_per_block());
                    let l3_rt = self.cfg.topology.l3_rt();
                    let ack = l2_work
                        .iter()
                        .map(|&(line, _)| {
                            self.mesh
                                .rt_latency_to_corner(hb_tile, self.cfg.topology.l3_bank(line.0))
                        })
                        .max()
                        .unwrap_or(0);
                    lat += ack + l3_rt;
                }
                for &(line, mask) in &l2_work {
                    let hb = self.cfg.topology.home_bank(blk, line.0);
                    let data = *self.l2[hb].view(line).expect("resident").data;
                    self.push_below_l2(line, &data, mask);
                    self.l2[hb].clean_words(line, mask);
                }
            }
            l2_work.clear();
            self.wb_l2_scratch = l2_work;
        }
        work.clear();
        self.wb_scratch = work;
        lat
    }

    fn exec_inv(&mut self, c: CoreId, target: Target, scope: InvScope) -> u64 {
        let blk = self.cfg.topology.block_of(c.0);
        let global = self.tmap.inv_is_global(BlockId(blk), scope);
        if global {
            self.counters.global_invs += 1;
        } else {
            self.counters.local_invs += 1;
        }
        let mut lat = self.cfg.l1_rt;
        let mut wb_work = 0u64;
        match target {
            Target::All => {
                // Clean cache: gang-clear the valid bits. Dirty lines
                // force a traversal to find and write them back first.
                lat += if self.l1[c.0].dirty_lines_resident() == 0 {
                    FLASH_CYCLES
                } else {
                    self.cfg.l1.num_lines() as u64 / self.cfg.tags_per_cycle
                };
                let mut lines = std::mem::take(&mut self.inv_scratch);
                lines.clear();
                self.l1[c.0].valid_line_addrs_into(&mut lines);
                for &line in &lines {
                    if let Some(inv) = self.l1[c.0].invalidate(line) {
                        self.counters.lines_invalidated += 1;
                        if inv.dirty != 0 {
                            self.push_below_l1(blk, line, &inv.data, inv.dirty);
                            wb_work += 1;
                        }
                    }
                }
                lines.clear();
                self.inv_scratch = lines;
            }
            _ => {
                let lines = target.lines().expect("non-ALL");
                lat += lines.len() as u64;
                for line in lines {
                    if let Some(inv) = self.l1[c.0].invalidate(line) {
                        self.counters.lines_invalidated += 1;
                        if inv.dirty != 0 {
                            self.push_below_l1(blk, line, &inv.data, inv.dirty);
                            wb_work += 1;
                        }
                    }
                }
            }
        }
        if wb_work > 0 {
            // Dirty-line writebacks triggered by the INV are posted.
            lat += wb_work * self.cfg.wb_pipeline_ii;
        }
        // Global scope: also invalidate the block's L2 copies. The command
        // to the (shared, remote) L2 controller is a posted message for
        // targeted flavors; ALL pays a completion round trip.
        if global {
            lat += self.cfg.l2_rt;
            if matches!(target, Target::All) {
                let hb0_tile = self
                    .cfg
                    .topology
                    .bank_tile(blk * self.cfg.l2_banks_per_block());
                lat += self.mesh.rt_latency(c.0, hb0_tile);
            }
            let mut l2_wb = 0u64;
            match target {
                Target::All => {
                    // Banks gang-clear / traverse concurrently.
                    let mut trav = FLASH_CYCLES;
                    let mut lines = std::mem::take(&mut self.inv_scratch);
                    for bank in 0..self.cfg.l2_banks_per_block() {
                        let gb = blk * self.cfg.l2_banks_per_block() + bank;
                        if self.l2[gb].dirty_lines_resident() > 0 {
                            trav = self.cfg.l2.num_lines() as u64 / self.cfg.tags_per_cycle;
                        }
                        lines.clear();
                        self.l2[gb].valid_line_addrs_into(&mut lines);
                        for &line in &lines {
                            if let Some(inv) = self.l2[gb].invalidate(line) {
                                if inv.dirty != 0 {
                                    self.push_below_l2(line, &inv.data, inv.dirty);
                                    l2_wb += 1;
                                }
                            }
                        }
                    }
                    lines.clear();
                    self.inv_scratch = lines;
                    lat += trav;
                }
                _ => {
                    for line in target.lines().expect("non-ALL") {
                        let hb = self.cfg.topology.home_bank(blk, line.0);
                        if let Some(inv) = self.l2[hb].invalidate(line) {
                            if inv.dirty != 0 {
                                self.push_below_l2(line, &inv.data, inv.dirty);
                                l2_wb += 1;
                            }
                        }
                    }
                }
            }
            if l2_wb > 0 {
                lat += l2_wb * self.cfg.wb_pipeline_ii;
            }
        }
        lat
    }

    /// If the core's MEB recorded the current epoch without overflowing,
    /// return its line IDs; `None` means full traversal.
    fn meb_lines(&mut self, c: CoreId) -> Option<Vec<usize>> {
        if !self.meb[c.0].recording() {
            return None;
        }
        match self.meb[c.0].drain() {
            MebDrain::Ids(ids) => Some(ids),
            MebDrain::Overflowed => {
                self.counters.meb_overflows += 1;
                None
            }
        }
    }

    // ------------------------------------------------------------------
    // Epoch-tracking hooks (driven by `Op::MebBegin` / `Op::IebBegin`...)
    // ------------------------------------------------------------------

    pub fn meb_begin(&mut self, c: CoreId) {
        // Epoch marker: collapse the core's rollback journals so no
        // recovery replays past this point (no-op without checkpoints).
        self.l1[c.0].epoch_mark();
        self.meb[c.0].begin_epoch();
    }

    pub fn ieb_begin(&mut self, c: CoreId) {
        self.l1[c.0].epoch_mark();
        self.ieb[c.0].begin_epoch();
    }

    pub fn ieb_end(&mut self, c: CoreId) {
        self.l1[c.0].epoch_mark();
        self.ieb[c.0].end_epoch();
    }

    // ------------------------------------------------------------------
    // Simulator backdoors (no timing, no traffic)
    // ------------------------------------------------------------------

    /// The shared caches that can hold `line`: its home L2 bank in each
    /// block, in block order, then its L3 bank. Every fill goes to these.
    fn home_caches(&self, line: LineAddr) -> impl Iterator<Item = &Cache> {
        let topo = &self.cfg.topology;
        let l2 = topo.home_banks(line.0).map(|b| &self.l2[b]);
        l2.chain(topo.home_l3_bank(line.0).map(|b| &self.l3[b]))
    }

    /// Newest written-back value of a word: L2-dirty, then L3-dirty, then
    /// any cached copy at L2/L3, then memory, looking only in the line's
    /// home banks. Note: *unwritten-back* L1 dirty data is intentionally
    /// not consulted — `peek_word` answers "what would a fresh reader
    /// see", which is the property the correctness tests check after
    /// final writebacks.
    pub fn peek_word(&self, w: WordAddr) -> Word {
        let line = w.line();
        let idx = w.index_in_line();
        let dirty = self
            .home_caches(line)
            .filter_map(|b| b.view(line).filter(|v| v.dirty & (1 << idx) != 0));
        let any = self.home_caches(line).filter_map(|b| b.view(line));
        match dirty.chain(any).next() {
            Some(v) => v.data[idx],
            None => self.mem.read_word(w),
        }
    }

    /// Write a word directly to memory, dropping every cached copy.
    /// Before the first fill no cache holds anything, and only memory is
    /// written. For test setup and pre-run initialization.
    pub fn poke_word(&mut self, w: WordAddr, v: Word) {
        if self.filled {
            let line = w.line();
            for c in &mut self.l1 {
                c.invalidate(line);
            }
            for b in &mut self.l2 {
                b.invalidate(line);
            }
            for b in &mut self.l3 {
                b.invalidate(line);
            }
        }
        self.mem.write_word(w, v);
    }

    /// Does core `c`'s L1 currently hold the line containing `w`?
    pub fn l1_holds(&self, c: CoreId, w: WordAddr) -> bool {
        self.l1[c.0].probe(w.line()).is_hit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hic_mem::{Addr, Region};
    use hic_sim::{SplitMix64, ThreadId, TopologyBuilder};

    fn intra() -> IncoherentSystem {
        IncoherentSystem::new(MachineConfig::intra_block())
    }

    fn inter() -> IncoherentSystem {
        IncoherentSystem::new(MachineConfig::inter_block())
    }

    fn w(byte: u64) -> WordAddr {
        Addr(byte).word()
    }

    #[test]
    fn stale_read_without_wb_inv() {
        let mut m = intra();
        m.poke_word(w(0x100), 1);
        // Both cores cache the line.
        assert_eq!(m.read(CoreId(0), w(0x100)).0, 1);
        assert_eq!(m.read(CoreId(1), w(0x100)).0, 1);
        // Core 0 writes but does not write back.
        m.write(CoreId(0), w(0x100), 2);
        // Core 1 still reads the stale value: no hardware coherence.
        assert_eq!(m.read(CoreId(1), w(0x100)).0, 1, "must be stale");
    }

    #[test]
    fn wb_then_inv_communicates() {
        let mut m = intra();
        m.poke_word(w(0x200), 1);
        assert_eq!(m.read(CoreId(1), w(0x200)).0, 1); // consumer caches stale
        m.write(CoreId(0), w(0x200), 2);
        let (lat_wb, is_wb) = m.exec_coh(CoreId(0), CohInstr::wb(Target::word(w(0x200))));
        assert!(is_wb);
        assert!(lat_wb > 0);
        let (lat_inv, is_wb) = m.exec_coh(CoreId(1), CohInstr::inv(Target::word(w(0x200))));
        assert!(!is_wb);
        assert!(lat_inv > 0);
        assert_eq!(m.read(CoreId(1), w(0x200)).0, 2, "WB+INV must deliver");
    }

    #[test]
    fn wb_writes_only_dirty_words_no_false_sharing_loss() {
        // §III-B: two cores write different words of the same line, both
        // WB; neither overwrites the other.
        let mut m = intra();
        let a = w(0x300);
        let b = WordAddr(a.0 + 1);
        m.write(CoreId(0), a, 11);
        m.write(CoreId(1), b, 22);
        m.exec_coh(CoreId(0), CohInstr::wb(Target::word(a)));
        m.exec_coh(CoreId(1), CohInstr::wb(Target::word(b)));
        assert_eq!(m.peek_word(a), 11);
        assert_eq!(m.peek_word(b), 22);
    }

    #[test]
    fn inv_preserves_colocated_dirty_data() {
        // §III-B: INV writes dirty data back before invalidating.
        let mut m = intra();
        let a = w(0x400);
        m.write(CoreId(0), a, 7);
        m.exec_coh(CoreId(0), CohInstr::inv(Target::word(a)));
        assert!(!m.l1_holds(CoreId(0), a));
        assert_eq!(m.peek_word(a), 7, "dirty word survived the INV");
    }

    #[test]
    fn wb_all_vs_meb_latency() {
        let mut m = intra();
        // Dirty a handful of lines.
        for i in 0..5u64 {
            m.write(CoreId(0), w(0x1000 + i * 64), i as Word);
        }
        let (lat_full, _) = m.exec_coh(CoreId(0), CohInstr::wb_all());
        assert!(
            lat_full >= 128,
            "full traversal costs >= lines/tags_per_cycle"
        );

        let mut m2 = intra();
        m2.meb_begin(CoreId(0));
        for i in 0..5u64 {
            m2.write(CoreId(0), w(0x1000 + i * 64), i as Word);
        }
        let (lat_meb, _) = m2.exec_coh(CoreId(0), CohInstr::wb_all());
        assert!(
            lat_meb < lat_full,
            "MEB path ({lat_meb}) must be cheaper than traversal ({lat_full})"
        );
        assert_eq!(m2.counters.meb_drains, 1);
        // Both wrote the same data back.
        for i in 0..5u64 {
            assert_eq!(m2.peek_word(w(0x1000 + i * 64)), i as Word);
        }
    }

    #[test]
    fn meb_overflow_falls_back_to_traversal() {
        let mut m = intra();
        m.meb_begin(CoreId(0));
        // Dirty more lines than MEB entries (16).
        for i in 0..20u64 {
            m.write(CoreId(0), w(0x2000 + i * 64), 1);
        }
        m.exec_coh(CoreId(0), CohInstr::wb_all());
        assert_eq!(m.counters.meb_overflows, 1);
        for i in 0..20u64 {
            assert_eq!(
                m.peek_word(w(0x2000 + i * 64)),
                1,
                "overflow path wrote everything"
            );
        }
    }

    #[test]
    fn ieb_epoch_refreshes_first_read_only() {
        let mut m = intra();
        m.poke_word(w(0x500), 1);
        assert_eq!(m.read(CoreId(1), w(0x500)).0, 1); // stale copy cached
        m.write(CoreId(0), w(0x500), 2);
        m.exec_coh(CoreId(0), CohInstr::wb(Target::word(w(0x500))));
        // Without IEB or INV, core 1 would read stale. With an IEB epoch,
        // the first read refreshes.
        m.ieb_begin(CoreId(1));
        let (v, lat1) = m.read(CoreId(1), w(0x500));
        assert_eq!(v, 2, "IEB first read must refresh");
        assert!(lat1 > m.config().l1_rt, "refresh pays a miss");
        let (v2, lat2) = m.read(CoreId(1), w(0x500));
        assert_eq!(v2, 2);
        assert_eq!(lat2, m.config().l1_rt, "second read is a normal hit");
        assert_eq!(m.counters.ieb_refreshes, 1);
        m.ieb_end(CoreId(1));
    }

    #[test]
    fn ieb_does_not_refresh_own_dirty_words() {
        let mut m = intra();
        m.ieb_begin(CoreId(0));
        m.write(CoreId(0), w(0x600), 5);
        let (v, lat) = m.read(CoreId(0), w(0x600));
        assert_eq!(v, 5);
        assert_eq!(lat, m.config().l1_rt, "own dirty word needs no refresh");
        assert_eq!(m.counters.ieb_refreshes, 0);
    }

    #[test]
    fn range_wb_covers_exactly_overlapping_lines() {
        let mut m = intra();
        let base = 0x4000u64;
        // Write 40 words = 2.5 lines.
        for i in 0..40u64 {
            m.write(CoreId(0), WordAddr(base / 4 + i), i as Word);
        }
        let region = Region::new(WordAddr(base / 4), 40);
        m.exec_coh(CoreId(0), CohInstr::wb(Target::range(region)));
        assert_eq!(m.counters.lines_written_back, 3);
        for i in 0..40u64 {
            assert_eq!(m.peek_word(WordAddr(base / 4 + i)), i as Word);
        }
    }

    #[test]
    fn level_adaptive_wb_resolves_by_thread_map() {
        let mut m = inter();
        let a = w(0x700);
        // Core 0 (block 0) writes; consumer thread 3 is in block 0.
        m.write(CoreId(0), a, 1);
        m.exec_coh(CoreId(0), CohInstr::wb_cons(Target::word(a), ThreadId(3)));
        assert_eq!(m.counters.local_wbs, 1);
        assert_eq!(m.counters.global_wbs, 0);
        // Consumer thread 20 is in block 2: global.
        m.write(CoreId(0), a, 2);
        m.exec_coh(CoreId(0), CohInstr::wb_cons(Target::word(a), ThreadId(20)));
        assert_eq!(m.counters.global_wbs, 1);
    }

    #[test]
    fn cross_block_communication_needs_global_wb_and_inv() {
        let mut m = inter();
        let a = w(0x800);
        m.poke_word(a, 1);
        // Consumer (core 8, block 1) caches the line in L1 and its L2.
        assert_eq!(m.read(CoreId(8), a).0, 1);
        // Producer (core 0, block 0) writes and does only a LOCAL wb.
        m.write(CoreId(0), a, 2);
        m.exec_coh(CoreId(0), CohInstr::wb(Target::word(a)));
        // Consumer invalidates only its L1: still stale, because its L2
        // kept the old line and the new data never left block 0.
        m.exec_coh(CoreId(8), CohInstr::inv(Target::word(a)));
        assert_eq!(
            m.read(CoreId(8), a).0,
            1,
            "local-only WB/INV is insufficient"
        );
        // Now do it right: global WB + global INV.
        m.exec_coh(CoreId(0), CohInstr::wb_l3(Target::word(a)));
        m.exec_coh(CoreId(8), CohInstr::inv_l2(Target::word(a)));
        assert_eq!(m.read(CoreId(8), a).0, 2, "level-adaptive path delivers");
    }

    #[test]
    fn same_block_communication_local_ops_suffice_in_inter_machine() {
        let mut m = inter();
        let a = w(0x900);
        m.poke_word(a, 1);
        assert_eq!(m.read(CoreId(1), a).0, 1);
        m.write(CoreId(0), a, 2);
        m.exec_coh(CoreId(0), CohInstr::wb_cons(Target::word(a), ThreadId(1)));
        m.exec_coh(CoreId(1), CohInstr::inv_prod(Target::word(a), ThreadId(0)));
        assert_eq!(m.read(CoreId(1), a).0, 2);
        assert_eq!(m.counters.local_wbs, 1);
        assert_eq!(m.counters.local_invs, 1);
        assert_eq!(m.counters.global_wbs + m.counters.global_invs, 0);
    }

    #[test]
    fn wb_of_clean_data_is_a_no_op() {
        let mut m = intra();
        m.poke_word(w(0xA00), 3);
        m.read(CoreId(0), w(0xA00));
        let before = m.counters.lines_written_back;
        let tb = m.traffic.writeback;
        m.exec_coh(CoreId(0), CohInstr::wb(Target::word(w(0xA00))));
        assert_eq!(m.counters.lines_written_back, before);
        assert_eq!(
            m.traffic.writeback, tb,
            "WB has no effect without dirty data"
        );
    }

    #[test]
    fn no_invalidation_traffic_ever() {
        // Self-invalidation is cache-local: the incoherent machine never
        // sends invalidation messages (one of the paper's three traffic
        // advantages, §VII-B).
        let mut m = intra();
        for i in 0..20u64 {
            m.write(CoreId(i as usize % 16), w(0x5000 + i * 64), 1);
            m.exec_coh(CoreId(i as usize % 16), CohInstr::wb_all());
            m.exec_coh(CoreId(i as usize % 16), CohInstr::inv_all());
        }
        assert_eq!(m.traffic.invalidation, 0);
    }

    #[test]
    fn eviction_preserves_dirty_data() {
        let mut m = intra();
        let step = 128 * 64; // same L1 set
        for i in 0..8u64 {
            m.write(CoreId(0), w(i * step), i as Word + 1);
        }
        for i in 0..8u64 {
            // Data is visible either in the L1 (recent lines) or below
            // (evicted lines wrote back). Read through the core.
            assert_eq!(m.read(CoreId(0), w(i * step)).0, i as Word + 1);
        }
    }

    /// The paper's two machines and a 2x4 one with two L2 banks per
    /// block.
    fn bank_shapes() -> [MachineConfig; 3] {
        let two_by_four = TopologyBuilder::new(2, 4)
            .l2_banks_per_block(2)
            .validate()
            .expect("2x4 shape is valid");
        [
            MachineConfig::intra_block(),
            MachineConfig::inter_block(),
            MachineConfig::with_topology(two_by_four),
        ]
    }

    /// `peek_word` over every L2 bank, then every L3 bank, wherever the
    /// line could be: the oracle the home-bank lookup is checked against.
    fn peek_every_bank(m: &IncoherentSystem, w: WordAddr) -> Word {
        let (line, idx) = (w.line(), w.index_in_line());
        let banks = || m.l2.iter().chain(&m.l3);
        banks()
            .filter_map(|b| b.view(line).filter(|v| v.dirty & (1 << idx) != 0))
            .chain(banks().filter_map(|b| b.view(line)))
            .map(|v| v.data[idx])
            .next()
            .unwrap_or_else(|| m.mem.read_word(w))
    }

    /// A word of one of 24 neighboring lines, or of one of 48 lines that
    /// share a set of every cache (12 per set, past every level's ways),
    /// so fills evict at L1, L2 and L3.
    fn bank_word(rng: &mut SplitMix64) -> WordAddr {
        let line = if rng.below(2) == 0 {
            rng.below(24)
        } else {
            (1 + rng.below(12)) * 8192 + rng.below(4)
        };
        WordAddr(line * WORDS_PER_LINE as u64 + rng.below(WORDS_PER_LINE as u64))
    }

    /// A random WB or INV of every target and scope flavor.
    fn bank_coh(rng: &mut SplitMix64, w: WordAddr, cores: usize) -> CohInstr {
        let other = ThreadId(rng.below(cores as u64) as usize);
        let t = Target::word(w);
        match rng.below(8) {
            0 => CohInstr::wb(t),
            1 => CohInstr::wb_l3(t),
            2 => CohInstr::wb_cons(t, other),
            3 => CohInstr::wb_all(),
            4 => CohInstr::inv(t),
            5 => CohInstr::inv_l2(t),
            6 => CohInstr::inv_prod(t, other),
            _ => CohInstr::inv_all(),
        }
    }

    #[test]
    fn poking_a_fresh_machine_materializes_no_cache_storage() {
        let mut m = inter();
        for i in 0..4096u64 {
            m.poke_word(WordAddr(i), i as Word * 3 + 1);
        }
        let caches = m.l1.iter().chain(&m.l2).chain(&m.l3);
        assert_eq!(caches.map(Cache::sets_materialized).sum::<usize>(), 0);
        assert!((0..4096u64).all(|i| m.peek_word(WordAddr(i)) == i as Word * 3 + 1));
    }

    #[test]
    fn poke_after_an_uncached_first_fill_drops_the_l3_copy() {
        for store in [false, true] {
            let mut m = inter();
            let a = w(0x4000);
            if store {
                m.write_uncached(CoreId(0), a, 5);
            } else {
                m.read_uncached(CoreId(0), a);
            }
            m.poke_word(a, 9);
            assert_eq!(m.read_uncached(CoreId(3), a).0, 9, "store = {store}");
        }
    }

    #[test]
    fn peek_matches_every_bank_and_poke_drops_every_copy() {
        let mut rng = SplitMix64::new(0xBA4C);
        for cfg in bank_shapes() {
            let cores = cfg.num_cores();
            for case in 0..12 {
                let mut m = IncoherentSystem::new(cfg);
                let mut written = std::collections::BTreeSet::new();
                for step in 0..150 {
                    let c = CoreId(rng.below(cores as u64) as usize);
                    let a = bank_word(&mut rng);
                    let v = rng.next_u32();
                    let ctx = format!("{} case {case} step {step}", cfg.topology.shape_label());
                    match rng.below(16) {
                        0..=4 => {
                            m.read(c, a);
                        }
                        5..=9 => {
                            m.write(c, a, v);
                            written.insert(a);
                        }
                        10 => {
                            m.read_uncached(c, a);
                        }
                        11 => {
                            m.write_uncached(c, a, v);
                            written.insert(a);
                        }
                        12..=14 => {
                            m.exec_coh(c, bank_coh(&mut rng, a, cores));
                        }
                        _ => {
                            m.poke_word(a, v);
                            written.insert(a);
                            let line = a.line();
                            let mut caches = m.l1.iter().chain(&m.l2).chain(&m.l3);
                            assert!(
                                caches.all(|cache| !cache.probe(line).is_hit()),
                                "{ctx}: a poke left a cached copy"
                            );
                            for r in 0..cores {
                                assert_eq!(m.read(CoreId(r), a).0, v, "{ctx}: core {r} read");
                            }
                        }
                    }
                    for &x in &written {
                        assert_eq!(m.peek_word(x), peek_every_bank(&m, x), "{ctx}: {x:?}");
                    }
                }
            }
        }
    }
}
