//! Update-based Dragon coherence over the shared directory hierarchy —
//! the second citizen of the protocol zoo next to [`crate::MesiSystem`].
//! Only the write path lives here.
//!
//! Where MESI *invalidates* other copies on a write, Dragon *updates*
//! them: a store to a shared line broadcasts the written word to every
//! sharer, which patches its copy in place. Readers therefore never miss
//! on a line they already hold — the classic trade: updates spend
//! coherence-control bandwidth on every shared store to save the
//! invalidate-plus-refetch round trips MESI pays on every reader.
//!
//! States per L1 line (absent = invalid):
//!
//! * `E` / `M` — exclusive clean / exclusive dirty, exactly as in MESI
//!   (private lines are write-back; E upgrades to M silently).
//! * `Sm` — shared, this core performed the last broadcast write.
//! * `Sc` — shared clean copy, patched in place by other cores' updates.
//!
//! In the directory organization (no snooping bus), the shared levels
//! play the `Sm` role for data: a broadcast write deposits the word
//! *dirty* in the line's home L2 bank (and, when other blocks share the
//! line, writes through to the home L3 bank), so every L1 copy — the
//! writer's included — stays clean and byte-identical. The invariants:
//!
//! * all resident copies of a line hold identical words at all times;
//! * only E/M lines carry dirty words in an L1;
//! * `l3_dir` owner marks the one block whose L2 may be newer than L3
//!   (set on exclusive fills and on block-local broadcast writes).
//!
//! A broadcast write that finds no other sharer anywhere converts the
//! line back to `M` (the directory round discovered the line is private
//! again), restoring zero-cost private writes.
//!
//! Timing mirrors MESI: a round completes when the farthest target
//! acknowledges (max over fan-out legs) while traffic counts every
//! message. Update messages carry one word (2 flits) and are recorded
//! under the `Invalidation` category — the coherence-control column of
//! paper Figure 10 — so the incoherent-vs-MESI-vs-Dragon matrix compares
//! like with like.

use fxhash::FxHashMap;

use hic_mem::addr::WORDS_PER_LINE;
use hic_mem::{LineAddr, Word, WordAddr};
use hic_noc::TrafficCategory;
use hic_sim::CoreId;

use crate::hierarchy::{DirectoryHierarchy, LineState};

/// Per-L1-line Dragon state. Absent from the map = Invalid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dragon {
    /// Exclusive clean.
    E,
    /// Shared clean (kept current by update broadcasts).
    Sc,
    /// Shared, last writer (data authority is the home L2/L3 copy).
    Sm,
    /// Modified exclusive (write-back, as in MESI).
    M,
}

impl LineState for Dragon {
    const EXCLUSIVE: Dragon = Dragon::E;
    const SHARED: Dragon = Dragon::Sc;
    const L3_EVICT_KEEPS: Option<Dragon> = Some(Dragon::Sc);

    fn is_exclusive(self) -> bool {
        matches!(self, Dragon::E | Dragon::M)
    }
}

/// The update-based hardware-coherent memory system.
pub type DragonSystem = DirectoryHierarchy<Dragon>;

impl DragonSystem {
    /// Flits of one single-word update message.
    fn update_flits(&self) -> u64 {
        self.cfg.flits_for(self.cfg.word_bytes)
    }

    // ------------------------------------------------------------------
    // The update broadcast (Dragon's replacement for MESI's
    // invalidation round)
    // ------------------------------------------------------------------

    /// Broadcast the written word to every other copy of `line` and
    /// deposit it in the shared levels. Returns `(latency, had_sharers)`;
    /// with no other sharer anywhere the caller converts the line to `M`.
    fn update_others(&mut self, c: CoreId, line: LineAddr, idx: usize, v: Word) -> (u64, bool) {
        let topo = self.cfg.topology;
        let blk = topo.block_of(c.0);
        let local = self.local_idx(c);
        let hb = topo.home_bank(blk, line.0);
        let hb_tile = topo.bank_tile(hb);
        let mut lat = 0;
        let mut had_sharers = false;

        let mut one = [0u32; WORDS_PER_LINE];
        one[idx] = v;
        let mask = 1u16 << idx;

        // Local round: patch other L1 copies in this block in place.
        let targets = self.l2_dir[blk]
            .get(&line.0)
            .map(|e| e.others(local))
            .unwrap_or_default();
        let mut max_leg = 0;
        for &t in &targets {
            let c2 = self.core_of(blk, t);
            let hit = self.l1[c2].write_word(line, idx, v).is_some();
            debug_assert!(hit, "directory lists a sharer without the line");
            // Sharer copies stay clean: the home L2/L3 copy owns the
            // dirtiness (it plays the Sm role at the shared level).
            self.l1[c2].clean_words(line, mask);
            debug_assert!(matches!(
                self.l1_state[c2].get(&line.0),
                Some(Dragon::Sc | Dragon::Sm)
            ));
            self.l1_state[c2].insert(line.0, Dragon::Sc);
            self.traffic
                .add(TrafficCategory::Invalidation, self.update_flits());
            max_leg = max_leg.max(self.mesh.rt_latency(hb_tile, c2));
        }
        if !targets.is_empty() {
            had_sharers = true;
            lat = lat.max(max_leg);
        }

        // Remote round: patch other blocks' copies via the L3 directory.
        let remote: Vec<usize> = if self.cfg.is_hierarchical() {
            self.l3_dir
                .get(&line.0)
                .map(|e| e.others(blk))
                .unwrap_or_default()
        } else {
            Vec::new()
        };
        if !remote.is_empty() {
            had_sharers = true;
            let l3b = topo.l3_bank(line.0);
            let up = self.mesh.rt_latency_to_corner(hb_tile, l3b) + topo.l3_rt();
            // Cross-block sharing writes through to the L3 home bank,
            // which becomes the data authority; every L2 copy stays a
            // clean mirror.
            let merged = self.l3[l3b].merge_words(line, &one, mask);
            debug_assert!(merged, "L3 holds every cross-block-shared line");
            self.traffic.add(TrafficCategory::L2L3, self.update_flits());
            let mut max_leg = 0;
            for b in remote {
                let bhb = topo.home_bank(b, line.0);
                let bhb_tile = topo.bank_tile(bhb);
                let leg = self.mesh.rt_latency_to_corner(bhb_tile, l3b) + self.cfg.l2_rt;
                // Patch the remote L2 mirror...
                if self.l2[bhb].write_word(line, idx, v).is_some() {
                    self.l2[bhb].clean_words(line, mask);
                }
                // ...and that block's L1 copies.
                let locals = self.l2_dir[b]
                    .get(&line.0)
                    .map(|e| e.others(usize::MAX))
                    .unwrap_or_default();
                let mut fan = 0;
                for local2 in locals {
                    let c2 = self.core_of(b, local2);
                    let hit = self.l1[c2].write_word(line, idx, v).is_some();
                    debug_assert!(hit, "directory lists a sharer without the line");
                    self.l1[c2].clean_words(line, mask);
                    self.l1_state[c2].insert(line.0, Dragon::Sc);
                    self.traffic
                        .add(TrafficCategory::Invalidation, self.update_flits());
                    fan = fan.max(self.mesh.rt_latency(bhb_tile, c2));
                }
                self.traffic
                    .add(TrafficCategory::Invalidation, self.update_flits());
                max_leg = max_leg.max(leg + fan);
            }
            lat = lat.max(up + max_leg);
            // Every copy below L1 is current; no block is ahead of L3.
            if let Some(e) = self.l3_dir.get_mut(&line.0) {
                e.owner = None;
            }
            // The writer's own home L2 mirror is patched clean too (L3
            // owns the dirtiness in cross-block mode).
            if self.l2[hb].write_word(line, idx, v).is_some() {
                self.l2[hb].clean_words(line, mask);
            }
        } else {
            // Block-local sharing: the home L2 bank absorbs the word as
            // dirty and this block becomes the one L3 must recall from.
            let merged = self.l2[hb].merge_words(line, &one, mask);
            debug_assert!(merged, "home L2 holds every shared line of its block");
            self.traffic
                .add(TrafficCategory::Writeback, self.update_flits());
            if self.cfg.is_hierarchical() {
                if let Some(e) = self.l3_dir.get_mut(&line.0) {
                    e.owner = Some(blk);
                }
            }
        }
        (lat, had_sharers)
    }

    // ------------------------------------------------------------------
    // The write path
    // ------------------------------------------------------------------

    /// Coherent store. Returns the access latency.
    pub fn write(&mut self, c: CoreId, w: WordAddr, v: Word) -> u64 {
        let line = w.line();
        let idx = w.index_in_line();
        match self.l1_state_of(c, line) {
            Some(Dragon::M) => {
                self.l1[c.0].write_word(line, idx, v);
                self.cfg.l1_rt
            }
            Some(Dragon::E) => {
                // Silent E->M upgrade, exactly as in MESI.
                self.l1_state[c.0].insert(line.0, Dragon::M);
                self.l1[c.0].write_word(line, idx, v);
                self.cfg.l1_rt
            }
            Some(Dragon::Sc | Dragon::Sm) => {
                let (_, _, lat) = self.home_request(c, line);
                lat + self.shared_write(c, line, idx, v)
            }
            None => {
                // Write miss: fetch the line (a local owner stays resident
                // as Sc), then write under whatever sharing situation the
                // fetch found.
                let (blk, hb, lat) = self.fetch(c, line, Some(Dragon::Sc));
                let data = *self.l2[hb].view(line).expect("block readable").data;
                let local = self.local_idx(c);
                self.l2_dir[blk].entry(line.0).or_default().add(local);
                self.l1_fill(c, line, data, Dragon::Sc);
                lat + self.shared_write(c, line, idx, v)
            }
        }
    }

    /// A store to a line this core shares: patch the local copy, then
    /// broadcast. If the broadcast finds no other sharer (everyone
    /// evicted), convert to `M` — the Dragon Sm->M transition. Returns
    /// the broadcast latency.
    fn shared_write(&mut self, c: CoreId, line: LineAddr, idx: usize, v: Word) -> u64 {
        self.l1[c.0].write_word(line, idx, v);
        self.l1[c.0].clean_words(line, 1 << idx);
        let (lat, had_sharers) = self.update_others(c, line, idx, v);
        if had_sharers {
            self.l1_state[c.0].insert(line.0, Dragon::Sm);
        } else {
            // Nobody else holds it: the line is private after all.
            let blk = self.cfg.topology.block_of(c.0);
            let local = self.local_idx(c);
            self.l1_state[c.0].insert(line.0, Dragon::M);
            self.l1[c.0].write_word(line, idx, v); // redo, dirty
            self.l2_dir[blk]
                .get_mut(&line.0)
                .expect("the writer is listed")
                .owner = Some(local);
            if self.cfg.is_hierarchical() {
                self.l3_dir.entry(line.0).or_default().owner = Some(blk);
            }
        }
        lat
    }

    /// Protocol invariant check, used by property tests: MESI's checks
    /// (owner implies sole sharer, directories match L1 residency, dirty
    /// words only under E/M) and — Dragon's defining property — every
    /// resident copy of a line holds identical words.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.check_directory()?;
        let mut seen: FxHashMap<u64, [Word; WORDS_PER_LINE]> = FxHashMap::default();
        for (c, states) in self.l1_state.iter().enumerate() {
            for laddr in states.keys() {
                let data = *self.l1[c].view(LineAddr(*laddr)).expect("checked").data;
                if let Some(prev) = seen.get(laddr) {
                    if *prev != data {
                        return Err(format!("line {laddr} has diverged copies (core {c})"));
                    }
                } else {
                    seen.insert(*laddr, data);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hic_mem::Addr;
    use hic_sim::MachineConfig;

    fn flat() -> DragonSystem {
        DragonSystem::new(MachineConfig::intra_block())
    }

    fn hier() -> DragonSystem {
        DragonSystem::new(MachineConfig::inter_block())
    }

    fn w(byte: u64) -> WordAddr {
        Addr(byte).word()
    }

    #[test]
    fn cold_read_fetches_from_memory() {
        let mut m = flat();
        m.poke_word(w(0x1000), 77);
        let (v, lat) = m.read(CoreId(0), w(0x1000));
        assert_eq!(v, 77);
        assert!(lat > m.config().l1_rt);
        assert!(m.traffic.memory > 0);
        let (v2, lat2) = m.read(CoreId(0), w(0x1000));
        assert_eq!(v2, 77);
        assert_eq!(lat2, m.config().l1_rt);
        m.check_invariants().unwrap();
    }

    #[test]
    fn update_keeps_sharers_hitting() {
        let mut m = flat();
        m.poke_word(w(0x2000), 1);
        for c in [0, 1, 2] {
            assert_eq!(m.read(CoreId(c), w(0x2000)).0, 1);
        }
        let fills_before = m.traffic.linefill;
        m.write(CoreId(0), w(0x2000), 2);
        // The defining Dragon behavior: the other sharers still *hit*
        // and see the new value — no refetch, no linefill.
        for c in [1, 2] {
            let (v, lat) = m.read(CoreId(c), w(0x2000));
            assert_eq!(v, 2);
            assert_eq!(lat, m.config().l1_rt, "updated copy must still hit");
        }
        assert_eq!(m.traffic.linefill, fills_before, "updates avoid refills");
        m.check_invariants().unwrap();
    }

    #[test]
    fn exclusive_read_then_silent_upgrade() {
        let mut m = flat();
        m.poke_word(w(0x4000), 9);
        m.read(CoreId(3), w(0x4000));
        let inv_before = m.traffic.invalidation;
        let lat = m.write(CoreId(3), w(0x4000), 10);
        assert_eq!(lat, m.config().l1_rt, "E->M is silent");
        assert_eq!(m.traffic.invalidation, inv_before);
        assert_eq!(m.peek_word(w(0x4000)), 10);
    }

    #[test]
    fn sm_converts_to_m_when_sharers_evaporate() {
        let mut m = flat();
        m.poke_word(w(0x5000), 1);
        m.read(CoreId(0), w(0x5000));
        m.read(CoreId(1), w(0x5000));
        m.write(CoreId(0), w(0x5000), 2);
        assert_eq!(m.l1_state_of(CoreId(0), w(0x5000).line()), Some(Dragon::Sm));
        // Core 1's copy leaves (direct invalidate models its eviction).
        let line = w(0x5000).line();
        m.l1[1].invalidate(line);
        m.l1_state[1].remove(&line.0);
        if let Some(e) = m.l2_dir[0].get_mut(&line.0) {
            e.remove(1);
        }
        // Next shared write discovers it is alone and converts to M.
        m.write(CoreId(0), w(0x5000), 3);
        assert_eq!(m.l1_state_of(CoreId(0), w(0x5000).line()), Some(Dragon::M));
        // ...after which writes are L1-local again.
        let lat = m.write(CoreId(0), w(0x5000), 4);
        assert_eq!(lat, m.config().l1_rt);
        assert_eq!(m.peek_word(w(0x5000)), 4);
        m.check_invariants().unwrap();
    }

    #[test]
    fn false_sharing_ping_pong_updates_without_refills() {
        let mut m = flat();
        let a = w(0x6000);
        let b = WordAddr(a.0 + 1);
        m.write(CoreId(0), a, 1);
        m.write(CoreId(1), b, 2);
        let fills_once = m.traffic.linefill;
        for i in 0..10 {
            m.write(CoreId(0), a, i);
            m.write(CoreId(1), b, i);
        }
        // MESI would ping-pong ownership with a refill per write; Dragon
        // keeps both copies resident and only exchanges word updates.
        assert_eq!(m.traffic.linefill, fills_once);
        assert!(m.traffic.invalidation > 0, "updates are counted as control");
        assert_eq!(m.peek_word(a), 9);
        assert_eq!(m.peek_word(b), 9);
        m.check_invariants().unwrap();
    }

    #[test]
    fn cross_block_communication_in_hierarchical_machine() {
        let mut m = hier();
        m.write(CoreId(0), w(0x7000), 55);
        let (v, lat) = m.read(CoreId(31), w(0x7000));
        assert_eq!(v, 55, "recall through L3 must deliver the dirty data");
        assert!(lat > 0);
        assert!(m.traffic.l2l3 > 0);
        // A subsequent cross-block write updates the remote copy in place.
        m.write(CoreId(31), w(0x7000), 56);
        let (v, lat) = m.read(CoreId(0), w(0x7000));
        assert_eq!(v, 56, "block 0's copy must have been patched");
        assert_eq!(lat, m.config().l1_rt, "no refetch under Dragon");
        m.check_invariants().unwrap();
    }

    #[test]
    fn capacity_evictions_write_back_dirty_data() {
        let mut m = flat();
        let step = 128 * 64; // one L1 set apart in bytes
        for i in 0..8u64 {
            m.write(CoreId(0), w(i * step), i as Word + 1);
        }
        for i in 0..8u64 {
            assert_eq!(m.peek_word(w(i * step)), i as Word + 1);
        }
        assert!(m.traffic.writeback > 0);
        m.check_invariants().unwrap();
    }

    #[test]
    fn peek_finds_value_at_every_level() {
        let mut m = flat();
        m.poke_word(w(0x9000), 1);
        assert_eq!(m.peek_word(w(0x9000)), 1);
        m.write(CoreId(0), w(0x9000), 2);
        assert_eq!(m.peek_word(w(0x9000)), 2);
        m.read(CoreId(1), w(0x9000));
        assert_eq!(m.peek_word(w(0x9000)), 2);
        m.write(CoreId(1), w(0x9000), 3);
        assert_eq!(m.peek_word(w(0x9000)), 3);
    }
}
