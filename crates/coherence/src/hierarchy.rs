//! The full-map directory hierarchy both protocols run over, flat (one
//! block) or hierarchical (blocks + L3).
//!
//! Everything here is protocol-independent: construction, fills and
//! evictions at every level, block-level acquisition and recalls, the
//! read path, and the simulator backdoors. A protocol contributes its L1
//! state enum (a [`LineState`]) and its write path. Where the protocols
//! differ, the choice is an argument: [`LineState`] names the states a
//! reader and a downgraded owner receive, and the owner-recalling helpers
//! take the state the owner keeps, or `None` to drop it.
//!
//! Timing: every access returns its latency in cycles, composed of cache
//! round trips (Table III) plus mesh hops. Invalidation and recall rounds
//! complete when the farthest target acknowledges (messages fan out in
//! parallel, so latency is the max, while traffic counts every message).
//!
//! Value accuracy: lines carry real words; an exclusive (E/M) copy in an
//! L1 is the only up-to-date copy until it is pulled down by a forward,
//! recall, or writeback. `peek_word` (a simulator backdoor, no timing or
//! traffic) always finds the newest value, which the test suite uses to
//! check results.

use std::fmt::Debug;

use fxhash::FxHashMap;

use hic_mem::addr::WORDS_PER_LINE;
use hic_mem::cache::EvictedLine;
use hic_mem::{Cache, LineAddr, Memory, Word, WordAddr};
use hic_noc::{Mesh, TrafficCategory, TrafficLedger};
use hic_sim::{CoreId, MachineConfig};

/// A protocol's per-L1-line state. Absent from the state map = Invalid.
pub trait LineState: Copy + Eq + Debug {
    /// Granted to a reader when no other core holds the line.
    const EXCLUSIVE: Self;
    /// Granted to a reader that shares the line, and kept by a local
    /// owner that forwards its line or whose block is recalled.
    const SHARED: Self;
    /// Kept by a local owner when an L3 eviction recalls its block, just
    /// before every copy in the block is dropped; `None` drops the owner
    /// first. A kept owner is dropped with the other sharers, at one more
    /// invalidation round trip.
    const L3_EVICT_KEEPS: Option<Self>;
    /// E or M: the one copy of a line that may hold dirty words.
    fn is_exclusive(self) -> bool;
}

/// Directory entry: full map over the children of this level
/// (cores of a block at L2; blocks of the chip at L3).
#[derive(Debug, Clone, Default)]
pub(crate) struct DirEntry {
    /// Bitmask of children holding the line.
    pub(crate) sharers: u64,
    /// Child holding the line exclusively (E or M at L2; possibly-newer
    /// L2 data at L3), if any.
    /// Invariant at L2: `owner == Some(i)` implies `sharers == 1 << i`.
    pub(crate) owner: Option<usize>,
}

impl DirEntry {
    pub(crate) fn add(&mut self, i: usize) {
        self.sharers |= 1 << i;
    }
    pub(crate) fn remove(&mut self, i: usize) {
        self.sharers &= !(1 << i);
        if self.owner == Some(i) {
            self.owner = None;
        }
    }
    fn holds(&self, i: usize) -> bool {
        self.sharers & (1 << i) != 0
    }
    pub(crate) fn others(&self, i: usize) -> Vec<usize> {
        (0..64)
            .filter(|&j| j != i && self.sharers & (1 << j) != 0)
            .collect()
    }
    fn is_empty(&self) -> bool {
        self.sharers == 0
    }
}

/// Merge `newer`'s dirty words into `into`.
fn absorb(into: &mut EvictedLine, newer: &EvictedLine) {
    for w in 0..WORDS_PER_LINE {
        if newer.dirty & (1 << w) != 0 {
            into.data[w] = newer.data[w];
        }
    }
    into.dirty |= newer.dirty;
}

/// A hardware-coherent memory system: per-core L1s whose lines carry
/// protocol state `S`, per-block banked L2s with a directory over the
/// block's cores and, on hierarchical machines, corner L3 banks with a
/// directory over blocks. Each line has a home L2 bank inside every block
/// and a home L3 bank, both placed by [`hic_sim::Topology`].
#[derive(Debug)]
pub struct DirectoryHierarchy<S> {
    pub(crate) cfg: MachineConfig,
    pub(crate) mesh: Mesh,
    /// Per-core private L1.
    pub(crate) l1: Vec<Cache>,
    /// Per-core protocol state per resident line.
    pub(crate) l1_state: Vec<FxHashMap<u64, S>>,
    /// L2 banks, global index `block * banks_per_block + bank`.
    pub(crate) l2: Vec<Cache>,
    /// Per-block directory over that block's cores.
    pub(crate) l2_dir: Vec<FxHashMap<u64, DirEntry>>,
    /// L3 banks (hierarchical machine only).
    pub(crate) l3: Vec<Cache>,
    /// Directory over blocks (hierarchical machine only).
    pub(crate) l3_dir: FxHashMap<u64, DirEntry>,
    mem: Memory,
    /// Flit ledger.
    pub traffic: TrafficLedger,
    /// Whether any cache may hold a line. The hierarchy is inclusive, so
    /// every fill starts at an L2 miss in `ensure_block_readable`, which
    /// sets it; until then `poke_word` writes memory alone.
    filled: bool,
}

impl<S: LineState> DirectoryHierarchy<S> {
    pub fn new(cfg: MachineConfig) -> Self {
        let ncores = cfg.num_cores();
        let nblocks = cfg.num_blocks();
        DirectoryHierarchy {
            mesh: Mesh::for_config(&cfg),
            l1: (0..ncores).map(|_| Cache::new(cfg.l1)).collect(),
            l1_state: vec![FxHashMap::default(); ncores],
            l2: (0..nblocks * cfg.l2_banks_per_block())
                .map(|_| Cache::new(cfg.l2))
                .collect(),
            l2_dir: vec![FxHashMap::default(); nblocks],
            l3: cfg.l3().map_or_else(Vec::new, |l3| {
                (0..l3.banks).map(|_| Cache::new(l3.geometry)).collect()
            }),
            l3_dir: FxHashMap::default(),
            mem: Memory::new(),
            traffic: TrafficLedger::new(),
            filled: false,
            cfg,
        }
    }

    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Index of core `c` in its block's directory.
    #[inline]
    pub(crate) fn local_idx(&self, c: CoreId) -> usize {
        c.0 % self.cfg.cores_per_block()
    }

    /// Core (and mesh tile) of directory index `local` in block `blk`.
    #[inline]
    pub(crate) fn core_of(&self, blk: usize, local: usize) -> usize {
        blk * self.cfg.cores_per_block() + local
    }

    // ------------------------------------------------------------------
    // L1 side
    // ------------------------------------------------------------------

    pub(crate) fn l1_state_of(&self, c: CoreId, line: LineAddr) -> Option<S> {
        self.l1_state[c.0].get(&line.0).copied()
    }

    /// Fill a line into an L1 with the given state, charging the linefill
    /// and handling the victim. Fills always arrive clean; an M installer
    /// dirties words as it writes them.
    pub(crate) fn l1_fill(
        &mut self,
        c: CoreId,
        line: LineAddr,
        data: [Word; WORDS_PER_LINE],
        st: S,
    ) {
        self.traffic
            .add(TrafficCategory::Linefill, self.cfg.line_flits());
        if let Some(victim) = self.l1[c.0].fill(line, data, 0) {
            self.l1_evict(c, victim);
        }
        self.l1_state[c.0].insert(line.0, st);
    }

    /// Handle an L1 eviction: write dirty data back to the home L2 bank
    /// (only exclusive lines can be dirty), or send a replacement hint,
    /// and update the directory.
    fn l1_evict(&mut self, c: CoreId, victim: EvictedLine) {
        let line = victim.addr;
        let st = self.l1_state[c.0].remove(&line.0);
        debug_assert!(st.is_some(), "evicted line had no state");
        let blk = self.cfg.topology.block_of(c.0);
        if victim.dirty != 0 {
            debug_assert!(
                st.is_some_and(S::is_exclusive),
                "shared copies must stay clean"
            );
            let hb = self.cfg.topology.home_bank(blk, line.0);
            let merged = self.l2[hb].merge_words(line, &victim.data, victim.dirty);
            debug_assert!(merged, "L2 must be inclusive of its L1s");
            let bytes = victim.dirty_words() as usize * 4;
            self.traffic
                .add(TrafficCategory::Writeback, self.cfg.flits_for(bytes));
        } else {
            // Replacement hint keeps the full-map directory exact (and
            // stops Dragon's updates to a line nobody holds any more).
            self.traffic.add(TrafficCategory::Writeback, 1);
        }
        let local = self.local_idx(c);
        if let Some(e) = self.l2_dir[blk].get_mut(&line.0) {
            e.remove(local);
            if e.is_empty() {
                self.l2_dir[blk].remove(&line.0);
            }
        }
    }

    // ------------------------------------------------------------------
    // Block-level acquisition
    // ------------------------------------------------------------------

    /// Block and home L2 bank of a request by `c` for `line`, and the
    /// latency of the L1 miss plus the round trip to that bank.
    pub(crate) fn home_request(&self, c: CoreId, line: LineAddr) -> (usize, usize, u64) {
        let topo = &self.cfg.topology;
        let blk = topo.block_of(c.0);
        let hb = topo.home_bank(blk, line.0);
        let lat = self.cfg.l1_rt + self.mesh.rt_latency(c.0, topo.bank_tile(hb)) + self.cfg.l2_rt;
        (blk, hb, lat)
    }

    /// Serve an L1 miss of `c` up to its block's home L2 bank: make the
    /// bank readable, then pull a local owner's data into it, forwarded
    /// to `c` (the owner keeps `owner_keeps`, or is dropped). Returns the
    /// block, the home bank, and the latency so far.
    pub(crate) fn fetch(
        &mut self,
        c: CoreId,
        line: LineAddr,
        owner_keeps: Option<S>,
    ) -> (usize, usize, u64) {
        let (blk, hb, mut lat) = self.home_request(c, line);
        lat += self.ensure_block_readable(blk, line);
        lat += self.pull_local_owner(blk, line, hb, owner_keeps, Some(c));
        (blk, hb, lat)
    }

    /// Ensure the block's L2 holds a readable copy of `line`; returns extra
    /// latency beyond the home-bank round trip.
    fn ensure_block_readable(&mut self, blk: usize, line: LineAddr) -> u64 {
        let topo = self.cfg.topology;
        let hb = topo.home_bank(blk, line.0);
        if self.l2[hb].probe(line).is_hit() {
            return 0;
        }
        self.filled = true;
        let hb_tile = topo.bank_tile(hb);
        if self.cfg.is_hierarchical() {
            let l3b = topo.l3_bank(line.0);
            let mut lat = self.mesh.rt_latency_to_corner(hb_tile, l3b) + topo.l3_rt();
            // Recall a block whose L2 may be newer than L3, if any.
            let owner_blk = self.l3_dir.get(&line.0).and_then(|e| e.owner);
            if let Some(b) = owner_blk {
                if b != blk {
                    lat += self.recall_block_to_l3(b, line, l3b);
                }
            }
            // L3 fill from memory if needed (memory sits at the corners).
            if !self.l3[l3b].probe(line).is_hit() {
                lat += self.cfg.mem_rt;
                let data = self.mem.read_line(line);
                self.traffic
                    .add(TrafficCategory::Memory, self.cfg.line_flits());
                if let Some(v) = self.l3[l3b].fill(line, data, 0) {
                    self.l3_evict(v);
                }
            }
            // Transfer L3 -> L2 and record the block as a sharer.
            let data = *self.l3[l3b].view(line).expect("just ensured").data;
            self.traffic
                .add(TrafficCategory::L2L3, self.cfg.line_flits());
            if let Some(v) = self.l2[hb].fill(line, data, 0) {
                self.l2_evict(blk, v);
            }
            self.l3_dir.entry(line.0).or_default().add(blk);
            lat
        } else {
            // Flat machine: fetch from memory at the nearest corner.
            let corner = self.mesh.nearest_corner(hb_tile);
            let lat = self.mesh.rt_latency_to_corner(hb_tile, corner) + self.cfg.mem_rt;
            let data = self.mem.read_line(line);
            self.traffic
                .add(TrafficCategory::Memory, self.cfg.line_flits());
            if let Some(v) = self.l2[hb].fill(line, data, 0) {
                self.l2_evict(blk, v);
            }
            lat
        }
    }

    /// Pull a possibly-newer line from `owner_blk`'s L2 down into L3 and
    /// clear the block-ownership mark; a local owner in that block is
    /// downgraded to [`LineState::SHARED`]. Returns the recall latency.
    fn recall_block_to_l3(&mut self, owner_blk: usize, line: LineAddr, l3b: usize) -> u64 {
        let hb = self.cfg.topology.home_bank(owner_blk, line.0);
        let hb_tile = self.cfg.topology.bank_tile(hb);
        let mut lat = self.mesh.rt_latency_to_corner(hb_tile, l3b) + self.cfg.l2_rt;
        // First pull any L1 owner inside that block into its L2.
        lat += self.pull_local_owner(owner_blk, line, hb, Some(S::SHARED), None);
        // Then copy dirty words (if any) from L2 into L3.
        let (data, dirty) = match self.l2[hb].view(line) {
            Some(v) => (*v.data, v.dirty),
            None => {
                // The block's L2 lost the line via eviction (which already
                // wrote it back); nothing to transfer.
                self.l3_dir.entry(line.0).or_default().owner = None;
                return lat;
            }
        };
        if dirty != 0 {
            let bytes = dirty.count_ones() as usize * 4;
            self.traffic
                .add(TrafficCategory::L2L3, self.cfg.flits_for(bytes));
            let merged = self.l3[l3b].merge_words(line, &data, dirty);
            debug_assert!(merged, "L3 must be inclusive of L2s");
            self.l2[hb].clean_line(line);
        } else {
            self.traffic.add(TrafficCategory::Invalidation, 2);
        }
        if let Some(e) = self.l3_dir.get_mut(&line.0) {
            e.owner = None;
        }
        lat
    }

    /// If an L1 inside `blk` owns the line (E/M), pull its dirty words
    /// into the block's L2 (home bank `hb`), then downgrade the owner to
    /// `keep` — it stays a sharer — or, with `None`, drop its copy.
    /// Returns latency.
    ///
    /// When the requesting core is known, the data is forwarded directly
    /// owner -> requester (three-hop protocol): the returned latency is
    /// the *extra* beyond the home round trip the caller already charged.
    pub(crate) fn pull_local_owner(
        &mut self,
        blk: usize,
        line: LineAddr,
        hb: usize,
        keep: Option<S>,
        requester: Option<CoreId>,
    ) -> u64 {
        let owner = match self.l2_dir[blk].get(&line.0).and_then(|e| e.owner) {
            Some(o) => o,
            None => return 0,
        };
        let hb_tile = self.cfg.topology.bank_tile(hb);
        // The owner's core, which is also its tile.
        let o = self.core_of(blk, owner);
        let lat = match requester {
            // Three-hop: home -> owner probe, owner lookup, owner ->
            // requester data; minus the home -> requester return leg the
            // caller's round-trip baseline already includes.
            Some(c) => (self.mesh.latency(hb_tile, o) + self.cfg.l1_rt + self.mesh.latency(o, c.0))
                .saturating_sub(self.mesh.latency(hb_tile, c.0)),
            // Four-hop recall through the home (cross-level rounds).
            None => self.mesh.rt_latency(hb_tile, o) + self.cfg.l1_rt,
        };
        let view = self.l1[o].view(line).expect("owner must hold the line");
        let (data, dirty) = (*view.data, view.dirty);
        // The probe/ack pair is coherence-control traffic; dirty data
        // additionally rides back as a writeback.
        self.traffic.add(TrafficCategory::Invalidation, 2);
        if dirty != 0 {
            let bytes = dirty.count_ones() as usize * 4;
            self.traffic
                .add(TrafficCategory::Writeback, self.cfg.flits_for(bytes));
            let merged = self.l2[hb].merge_words(line, &data, dirty);
            debug_assert!(merged, "L2 must be inclusive of its L1s");
        }
        match keep {
            Some(st) => {
                self.l1[o].clean_line(line);
                self.l1_state[o].insert(line.0, st);
                self.l2_dir[blk]
                    .get_mut(&line.0)
                    .expect("the owner is listed")
                    .owner = None;
            }
            None => {
                self.l1[o].invalidate(line);
                self.l1_state[o].remove(&line.0);
                let e = self.l2_dir[blk]
                    .get_mut(&line.0)
                    .expect("the owner is listed");
                e.remove(owner);
                if e.is_empty() {
                    self.l2_dir[blk].remove(&line.0);
                }
            }
        }
        lat
    }

    /// Drop every copy of `line` in block `blk`: recall a local owner
    /// (it keeps `owner_keeps` until the drop, or is dropped first), then
    /// invalidate each L1 sharer and the L2 copy, one invalidation round
    /// trip each. Returns the owner recall's latency and the dropped L2
    /// copy, whose dirty words the caller moves down (their L2-L3 flits
    /// are charged here).
    pub(crate) fn drop_block(
        &mut self,
        blk: usize,
        line: LineAddr,
        owner_keeps: Option<S>,
    ) -> (u64, Option<EvictedLine>) {
        let hb = self.cfg.topology.home_bank(blk, line.0);
        let lat = self.pull_local_owner(blk, line, hb, owner_keeps, None);
        if let Some(de) = self.l2_dir[blk].remove(&line.0) {
            for local in de.others(usize::MAX) {
                let c = self.core_of(blk, local);
                self.l1[c].invalidate(line);
                self.l1_state[c].remove(&line.0);
                self.traffic.add(TrafficCategory::Invalidation, 2);
            }
        }
        let dropped = self.l2[hb].invalidate(line);
        if let Some(inv) = dropped.as_ref().filter(|inv| inv.dirty != 0) {
            let bytes = inv.dirty_words() as usize * 4;
            self.traffic
                .add(TrafficCategory::L2L3, self.cfg.flits_for(bytes));
        }
        self.traffic.add(TrafficCategory::Invalidation, 2);
        (lat, dropped)
    }

    // ------------------------------------------------------------------
    // Evictions at L2 / L3 (inclusivity recalls)
    // ------------------------------------------------------------------

    fn l2_evict(&mut self, blk: usize, mut victim: EvictedLine) {
        let line = victim.addr;
        // Recall every L1 copy in the block.
        if let Some(e) = self.l2_dir[blk].remove(&line.0) {
            for local in e.others(usize::MAX) {
                let c = self.core_of(blk, local);
                if let Some(inv) = self.l1[c].invalidate(line) {
                    if inv.dirty != 0 {
                        absorb(&mut victim, &inv);
                        let bytes = inv.dirty_words() as usize * 4;
                        self.traffic
                            .add(TrafficCategory::Writeback, self.cfg.flits_for(bytes));
                    }
                }
                self.l1_state[c].remove(&line.0);
                self.traffic.add(TrafficCategory::Invalidation, 2);
            }
        }
        if self.cfg.is_hierarchical() {
            let l3b = self.cfg.topology.l3_bank(line.0);
            if victim.dirty != 0 {
                let bytes = victim.dirty.count_ones() as usize * 4;
                self.traffic
                    .add(TrafficCategory::L2L3, self.cfg.flits_for(bytes));
                let merged = self.l3[l3b].merge_words(line, &victim.data, victim.dirty);
                debug_assert!(merged, "L3 inclusive of L2");
            }
            if let Some(e) = self.l3_dir.get_mut(&line.0) {
                e.remove(blk);
                if e.is_empty() {
                    self.l3_dir.remove(&line.0);
                }
            }
        } else if victim.dirty != 0 {
            let bytes = victim.dirty.count_ones() as usize * 4;
            self.traffic
                .add(TrafficCategory::Memory, self.cfg.flits_for(bytes));
            self.mem.merge_words(line, &victim.data, victim.dirty);
        }
    }

    fn l3_evict(&mut self, mut victim: EvictedLine) {
        let line = victim.addr;
        if let Some(e) = self.l3_dir.remove(&line.0) {
            for blk in e.others(usize::MAX) {
                let (_, dropped) = self.drop_block(blk, line, S::L3_EVICT_KEEPS);
                if let Some(inv) = dropped {
                    absorb(&mut victim, &inv);
                }
            }
        }
        if victim.dirty != 0 {
            let bytes = victim.dirty.count_ones() as usize * 4;
            self.traffic
                .add(TrafficCategory::Memory, self.cfg.flits_for(bytes));
            self.mem.merge_words(line, &victim.data, victim.dirty);
        }
    }

    // ------------------------------------------------------------------
    // The read path
    // ------------------------------------------------------------------

    /// Coherent load. Returns the value and the access latency.
    pub fn read(&mut self, c: CoreId, w: WordAddr) -> (Word, u64) {
        let line = w.line();
        if self.l1_state_of(c, line).is_some() {
            // Every resident copy is current (MESI invalidates the others
            // on a write, Dragon updates them), so a hit is always safe.
            let v = self.l1[c.0]
                .read_word(line, w.index_in_line())
                .expect("state/cache sync");
            return (v, self.cfg.l1_rt);
        }
        // Forward from a local owner if one exists (three-hop); the owner
        // keeps a shared copy.
        let (blk, hb, lat) = self.fetch(c, line, Some(S::SHARED));
        let data = *self.l2[hb].view(line).expect("block readable").data;
        // Exclusive if no one else holds it anywhere; else shared.
        let local_sharers = self.l2_dir[blk]
            .get(&line.0)
            .map(|e| e.sharers)
            .unwrap_or(0);
        let exclusive_ok = if self.cfg.is_hierarchical() {
            let e = self.l3_dir.get(&line.0).expect("block recorded at L3");
            e.sharers == 1 << blk
        } else {
            true
        };
        let st = if local_sharers == 0 && exclusive_ok {
            S::EXCLUSIVE
        } else {
            S::SHARED
        };
        let local = self.local_idx(c);
        let entry = self.l2_dir[blk].entry(line.0).or_default();
        entry.add(local);
        if st == S::EXCLUSIVE {
            entry.owner = Some(local);
            // Record block-level exclusivity so a later remote request
            // recalls this block (an E copy may silently become M).
            if self.cfg.is_hierarchical() {
                self.l3_dir
                    .get_mut(&line.0)
                    .expect("block recorded at L3")
                    .owner = Some(blk);
            }
        }
        self.l1_fill(c, line, data, st);
        (data[w.index_in_line()], lat)
    }

    // ------------------------------------------------------------------
    // Simulator backdoors (no timing, no traffic)
    // ------------------------------------------------------------------

    /// Read the newest value of a word, wherever it lives: any L1, and
    /// the line's home L2 and L3 banks.
    pub fn peek_word(&self, w: WordAddr) -> Word {
        let line = w.line();
        let idx = w.index_in_line();
        // An exclusive (E/M) L1 copy is newest.
        for (c, states) in self.l1_state.iter().enumerate() {
            if states.get(&line.0).is_some_and(|st| st.is_exclusive()) {
                if let Some(v) = self.l1[c].view(line) {
                    return v.data[idx];
                }
            }
        }
        let topo = &self.cfg.topology;
        let l2 = topo.home_banks(line.0).map(|b| &self.l2[b]);
        let l3 = topo.home_l3_bank(line.0).map(|b| &self.l3[b]);
        // A dirty word in a home L2 bank is next, then in the L3 bank.
        for bank in l2.clone().chain(l3) {
            if let Some(v) = bank.view(line) {
                if v.dirty & (1 << idx) != 0 {
                    return v.data[idx];
                }
            }
        }
        // Any clean L2 copy equals the level below it, and memory is
        // stale only under a dirty L2/L3 copy, which the scans above
        // already caught.
        for bank in l2 {
            if let Some(v) = bank.view(line) {
                return v.data[idx];
            }
        }
        self.mem.read_word(w)
    }

    /// Write a word directly to memory, dropping every cached copy and
    /// directory entry. Before the first fill no cache holds anything,
    /// and only memory is written. For test setup and pre-run
    /// initialization.
    pub fn poke_word(&mut self, w: WordAddr, v: Word) {
        if self.filled {
            let line = w.line();
            for c in 0..self.l1.len() {
                self.l1[c].invalidate(line);
                self.l1_state[c].remove(&line.0);
            }
            for bank in self.l2.iter_mut().chain(&mut self.l3) {
                bank.invalidate(line);
            }
            for d in &mut self.l2_dir {
                d.remove(&line.0);
            }
            self.l3_dir.remove(&line.0);
        }
        self.mem.write_word(w, v);
    }

    /// The protocol-independent invariants: an owner implies exactly one
    /// sharer; every sharer bit corresponds to a resident L1 line and
    /// every resident line is listed; every stated line is cached, and
    /// only exclusive copies hold dirty words.
    pub(crate) fn check_directory(&self) -> Result<(), String> {
        for (blk, dir) in self.l2_dir.iter().enumerate() {
            for (laddr, e) in dir {
                if let Some(o) = e.owner {
                    if e.sharers != 1 << o {
                        return Err(format!(
                            "blk{blk} line {laddr}: owner {o} but sharers {:b}",
                            e.sharers
                        ));
                    }
                }
                for local in 0..self.cfg.cores_per_block() {
                    let c = self.core_of(blk, local);
                    let resident = self.l1_state[c].contains_key(laddr);
                    let listed = e.holds(local);
                    if resident != listed {
                        return Err(format!(
                            "blk{blk} line {laddr}: core {c} resident={resident} listed={listed}"
                        ));
                    }
                }
            }
        }
        // And the reverse: resident L1 lines are listed.
        for (c, states) in self.l1_state.iter().enumerate() {
            let blk = self.cfg.topology.block_of(c);
            for (laddr, st) in states {
                let listed = self.l2_dir[blk]
                    .get(laddr)
                    .map(|e| e.holds(self.local_idx(CoreId(c))))
                    .unwrap_or(false);
                if !listed {
                    return Err(format!("core {c} line {laddr} resident but unlisted"));
                }
                let view = self.l1[c]
                    .view(LineAddr(*laddr))
                    .ok_or_else(|| format!("core {c} line {laddr} stated but not cached"))?;
                if !st.is_exclusive() && view.dirty != 0 {
                    return Err(format!("core {c} line {laddr} shared but dirty"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DragonSystem, MesiSystem};
    use hic_sim::{SplitMix64, TopologyBuilder};

    /// What each protocol adds to the hierarchy: its write path and its
    /// invariants.
    trait Protocol {
        fn store(&mut self, c: CoreId, w: WordAddr, v: Word);
        fn invariants(&self) -> Result<(), String>;
    }

    impl Protocol for MesiSystem {
        fn store(&mut self, c: CoreId, w: WordAddr, v: Word) {
            self.write(c, w, v);
        }
        fn invariants(&self) -> Result<(), String> {
            self.check_invariants()
        }
    }

    impl Protocol for DragonSystem {
        fn store(&mut self, c: CoreId, w: WordAddr, v: Word) {
            self.write(c, w, v);
        }
        fn invariants(&self) -> Result<(), String> {
            self.check_invariants()
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

    /// `peek_word` over every L2 and L3 bank, wherever the line could
    /// be: the oracle the home-bank lookup is checked against.
    fn peek_every_bank<S: LineState>(m: &DirectoryHierarchy<S>, w: WordAddr) -> Word {
        let (line, idx) = (w.line(), w.index_in_line());
        let exclusive = m.l1_state.iter().enumerate().find_map(|(c, states)| {
            states.get(&line.0).filter(|st| st.is_exclusive())?;
            m.l1[c].view(line)
        });
        let dirty =
            m.l2.iter()
                .chain(&m.l3)
                .filter_map(|b| b.view(line).filter(|v| v.dirty & (1 << idx) != 0));
        let clean = m.l2.iter().filter_map(|b| b.view(line));
        exclusive
            .into_iter()
            .chain(dirty)
            .chain(clean)
            .map(|v| v.data[idx])
            .next()
            .unwrap_or_else(|| m.mem.read_word(w))
    }

    /// A word of one of 24 neighboring lines, or of one of 48 lines that
    /// share a set of every cache (12 per set, past every level's ways),
    /// so fills evict and recall at L1, L2 and L3.
    fn bank_word(rng: &mut SplitMix64) -> WordAddr {
        let line = if rng.below(2) == 0 {
            rng.below(24)
        } else {
            (1 + rng.below(12)) * 8192 + rng.below(4)
        };
        WordAddr(line * WORDS_PER_LINE as u64 + rng.below(WORDS_PER_LINE as u64))
    }

    fn check_peek_and_poke<S: LineState>(seed: u64)
    where
        DirectoryHierarchy<S>: Protocol,
    {
        let mut rng = SplitMix64::new(seed);
        for cfg in bank_shapes() {
            let cores = cfg.num_cores();
            for case in 0..8 {
                let mut m = DirectoryHierarchy::<S>::new(cfg);
                let mut written = std::collections::BTreeSet::new();
                for step in 0..150 {
                    let c = CoreId(rng.below(cores as u64) as usize);
                    let a = bank_word(&mut rng);
                    let v = rng.next_u32();
                    let ctx = format!("{} case {case} step {step}", cfg.topology.shape_label());
                    match rng.below(16) {
                        0..=6 => {
                            m.read(c, a);
                        }
                        7..=14 => {
                            m.store(c, a, v);
                            written.insert(a);
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
                            assert!(
                                m.l1_state.iter().all(|s| !s.contains_key(&line.0))
                                    && m.l2_dir.iter().all(|d| !d.contains_key(&line.0))
                                    && !m.l3_dir.contains_key(&line.0),
                                "{ctx}: a poke left a directory entry"
                            );
                            for r in 0..cores {
                                assert_eq!(m.read(CoreId(r), a).0, v, "{ctx}: core {r} read");
                            }
                        }
                    }
                    if let Err(e) = m.invariants() {
                        panic!("{ctx}: {e}");
                    }
                    for &x in &written {
                        assert_eq!(m.peek_word(x), peek_every_bank(&m, x), "{ctx}: {x:?}");
                    }
                }
            }
        }
    }

    fn poke_fresh<S: LineState>() {
        let mut m = DirectoryHierarchy::<S>::new(MachineConfig::inter_block());
        for i in 0..4096u64 {
            m.poke_word(WordAddr(i), i as Word * 3 + 1);
        }
        let caches = m.l1.iter().chain(&m.l2).chain(&m.l3);
        assert_eq!(caches.map(Cache::sets_materialized).sum::<usize>(), 0);
        assert!((0..4096u64).all(|i| m.peek_word(WordAddr(i)) == i as Word * 3 + 1));
    }

    #[test]
    fn poking_a_fresh_machine_materializes_no_cache_storage() {
        poke_fresh::<crate::Mesi>();
        poke_fresh::<crate::Dragon>();
    }

    #[test]
    fn peek_matches_every_bank_and_poke_drops_every_copy() {
        check_peek_and_poke::<crate::Mesi>(0x3E5B);
        check_peek_and_poke::<crate::Dragon>(0xD4A6);
    }
}
