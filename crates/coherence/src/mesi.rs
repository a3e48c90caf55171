//! MESI over the shared directory hierarchy: the paper's HCC baseline
//! (§VI: "a hierarchical full-mapped directory-based MESI protocol").
//! A store needs an exclusive copy, so a write invalidates every other
//! copy of the line at both directory levels; only the write path lives
//! here.

use hic_mem::{LineAddr, Word, WordAddr};
use hic_noc::TrafficCategory;
use hic_sim::CoreId;

use crate::hierarchy::{DirectoryHierarchy, LineState};

/// Per-L1-line MESI state. Absent from the map = Invalid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mesi {
    S,
    E,
    M,
}

impl LineState for Mesi {
    const EXCLUSIVE: Mesi = Mesi::E;
    const SHARED: Mesi = Mesi::S;
    const L3_EVICT_KEEPS: Option<Mesi> = None;

    fn is_exclusive(self) -> bool {
        matches!(self, Mesi::E | Mesi::M)
    }
}

/// The hardware-coherent memory system: full-map directory MESI, flat
/// (one block) or hierarchical (blocks + L3).
pub type MesiSystem = DirectoryHierarchy<Mesi>;

impl MesiSystem {
    /// Invalidate every copy of `line` other than requester `c`'s, at both
    /// directory levels. Returns the latency of the round (max fan-out leg).
    fn invalidate_others(&mut self, c: CoreId, line: LineAddr) -> u64 {
        let topo = self.cfg.topology;
        let blk = topo.block_of(c.0);
        let local = self.local_idx(c);
        let hb_tile = topo.bank_tile(topo.home_bank(blk, line.0));
        let mut lat = 0;

        // Local round: drop other L1 copies in this block.
        if let Some(e) = self.l2_dir[blk].get(&line.0) {
            let targets = e.others(local);
            let mut max_leg = 0;
            for &t in &targets {
                let c2 = self.core_of(blk, t);
                // Upgrades only happen when the requester holds S, so no
                // other copy can be dirty; RFOs pull the owner separately.
                self.l1[c2].invalidate(line);
                self.l1_state[c2].remove(&line.0);
                self.traffic.add(TrafficCategory::Invalidation, 2);
                max_leg = max_leg.max(self.mesh.rt_latency(hb_tile, c2));
            }
            if !targets.is_empty() {
                lat = lat.max(max_leg);
                let entry = self.l2_dir[blk]
                    .get_mut(&line.0)
                    .expect("the targets are listed");
                entry.sharers = 1 << local;
                entry.owner = None;
            }
        }

        // Remote round: drop other blocks' copies via the L3 directory.
        if self.cfg.is_hierarchical() {
            let remote: Vec<usize> = self
                .l3_dir
                .get(&line.0)
                .map(|e| e.others(blk))
                .unwrap_or_default();
            if !remote.is_empty() {
                let l3b = topo.l3_bank(line.0);
                let up = self.mesh.rt_latency_to_corner(hb_tile, l3b) + topo.l3_rt();
                let mut max_leg = 0;
                for b in remote {
                    let bhb_tile = topo.bank_tile(topo.home_bank(b, line.0));
                    let mut leg = self.mesh.rt_latency_to_corner(bhb_tile, l3b) + self.cfg.l2_rt;
                    // Pull any dirty owner inside that block first, then
                    // drop all its copies.
                    let (pull, dropped) = self.drop_block(b, line, None);
                    leg += pull;
                    if let Some(inv) = dropped.filter(|inv| inv.dirty != 0) {
                        self.l3[l3b].merge_words(line, &inv.data, inv.dirty);
                    }
                    max_leg = max_leg.max(leg);
                }
                lat = lat.max(up + max_leg);
                let e = self
                    .l3_dir
                    .get_mut(&line.0)
                    .expect("the remote blocks are listed");
                e.sharers = 1 << blk;
                e.owner = Some(blk);
            } else {
                // Even with no remote sharers, taking block ownership is a
                // directory update; piggybacked on the L2 round (no extra
                // latency), but the L3 entry must record it.
                let e = self.l3_dir.entry(line.0).or_default();
                e.owner = Some(blk);
                e.add(blk);
            }
        }
        lat
    }

    /// Coherent store. Returns the access latency.
    pub fn write(&mut self, c: CoreId, w: WordAddr, v: Word) -> u64 {
        let line = w.line();
        let idx = w.index_in_line();
        match self.l1_state_of(c, line) {
            Some(Mesi::M) => {
                self.l1[c.0].write_word(line, idx, v);
                self.cfg.l1_rt
            }
            Some(Mesi::E) => {
                // Silent E->M upgrade.
                self.l1_state[c.0].insert(line.0, Mesi::M);
                self.l1[c.0].write_word(line, idx, v);
                self.cfg.l1_rt
            }
            Some(Mesi::S) => {
                // Upgrade: invalidate all other copies.
                let (blk, _, mut lat) = self.home_request(c, line);
                lat += self.invalidate_others(c, line);
                let local = self.local_idx(c);
                self.l2_dir[blk]
                    .get_mut(&line.0)
                    .expect("the upgrading sharer is listed")
                    .owner = Some(local);
                self.l1_state[c.0].insert(line.0, Mesi::M);
                self.l1[c.0].write_word(line, idx, v);
                lat
            }
            None => {
                // Read-for-ownership: pull and drop any local owner, then
                // drop all other sharers.
                let (blk, hb, mut lat) = self.fetch(c, line, None);
                lat += self.invalidate_others(c, line);
                let data = *self.l2[hb].view(line).expect("block readable").data;
                let local = self.local_idx(c);
                let entry = self.l2_dir[blk].entry(line.0).or_default();
                entry.sharers = 1 << local;
                entry.owner = Some(local);
                if self.cfg.is_hierarchical() {
                    let e = self.l3_dir.entry(line.0).or_default();
                    e.add(blk);
                    e.owner = Some(blk);
                }
                self.l1_fill(c, line, data, Mesi::M);
                self.l1[c.0].write_word(line, idx, v);
                lat
            }
        }
    }

    /// Invariant check, used by property tests: an owner implies exactly
    /// one sharer, the directories list exactly the resident L1 lines,
    /// and only exclusive copies hold dirty words.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.check_directory()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hic_mem::Addr;
    use hic_sim::MachineConfig;

    fn flat() -> MesiSystem {
        MesiSystem::new(MachineConfig::intra_block())
    }

    fn hier() -> MesiSystem {
        MesiSystem::new(MachineConfig::inter_block())
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
        assert!(
            lat > m.config().l1_rt,
            "cold miss must cost more than a hit"
        );
        assert!(m.traffic.memory > 0);
        assert!(m.traffic.linefill > 0);
        // Second read hits.
        let (v2, lat2) = m.read(CoreId(0), w(0x1000));
        assert_eq!(v2, 77);
        assert_eq!(lat2, m.config().l1_rt);
        m.check_invariants().unwrap();
    }

    #[test]
    fn store_then_remote_load_forwards_fresh_value() {
        let mut m = flat();
        m.write(CoreId(0), w(0x2000), 123);
        let (v, _) = m.read(CoreId(5), w(0x2000));
        assert_eq!(v, 123, "MESI must forward the dirty copy");
        m.check_invariants().unwrap();
    }

    #[test]
    fn write_invalidates_sharers() {
        let mut m = flat();
        m.poke_word(w(0x3000), 1);
        // Three readers share the line.
        for c in [0, 1, 2] {
            let (v, _) = m.read(CoreId(c), w(0x3000));
            assert_eq!(v, 1);
        }
        let inv_before = m.traffic.invalidation;
        m.write(CoreId(0), w(0x3000), 2);
        assert!(
            m.traffic.invalidation > inv_before,
            "upgrade sends invalidations"
        );
        // The other cores re-read and see the new value.
        for c in [1, 2] {
            let (v, _) = m.read(CoreId(c), w(0x3000));
            assert_eq!(v, 2);
        }
        m.check_invariants().unwrap();
    }

    #[test]
    fn exclusive_read_then_silent_upgrade() {
        let mut m = flat();
        m.poke_word(w(0x4000), 9);
        m.read(CoreId(3), w(0x4000));
        let inv_before = m.traffic.invalidation;
        // Sole reader got E; the write upgrades silently.
        let lat = m.write(CoreId(3), w(0x4000), 10);
        assert_eq!(lat, m.config().l1_rt);
        assert_eq!(m.traffic.invalidation, inv_before);
        assert_eq!(m.peek_word(w(0x4000)), 10);
    }

    #[test]
    fn false_sharing_ping_pong_counts_invalidations() {
        let mut m = flat();
        // Two cores write different words of the same line repeatedly.
        let a = w(0x5000);
        let b = WordAddr(a.0 + 1);
        m.write(CoreId(0), a, 1);
        m.write(CoreId(1), b, 2);
        let inv_once = m.traffic.invalidation;
        assert!(inv_once > 0, "second writer must invalidate the first");
        for i in 0..10 {
            m.write(CoreId(0), a, i);
            m.write(CoreId(1), b, i);
        }
        assert!(
            m.traffic.invalidation > inv_once,
            "ping-pong keeps invalidating"
        );
        assert_eq!(m.peek_word(a), 9);
        assert_eq!(m.peek_word(b), 9);
        m.check_invariants().unwrap();
    }

    #[test]
    fn cross_block_communication_in_hierarchical_machine() {
        let mut m = hier();
        // Core 0 (block 0) writes; core 31 (block 3) reads.
        m.write(CoreId(0), w(0x6000), 55);
        let (v, lat) = m.read(CoreId(31), w(0x6000));
        assert_eq!(v, 55, "recall through L3 must deliver the dirty data");
        assert!(lat > 0);
        assert!(m.traffic.l2l3 > 0, "cross-block transfer moves data via L3");
        m.check_invariants().unwrap();
    }

    #[test]
    fn cross_block_write_invalidates_remote_block() {
        let mut m = hier();
        m.poke_word(w(0x7000), 5);
        m.read(CoreId(0), w(0x7000)); // block 0 caches it
        m.read(CoreId(8), w(0x7000)); // block 1 caches it
        m.write(CoreId(0), w(0x7000), 6);
        let (v, _) = m.read(CoreId(8), w(0x7000));
        assert_eq!(v, 6, "block 1 must have been invalidated and refetch");
        m.check_invariants().unwrap();
    }

    #[test]
    fn intra_block_read_in_hier_machine_does_not_touch_l3_dir_owner() {
        let mut m = hier();
        m.write(CoreId(1), w(0x8000), 3);
        let (v, _) = m.read(CoreId(2), w(0x8000)); // same block
        assert_eq!(v, 3);
        m.check_invariants().unwrap();
    }

    #[test]
    fn peek_finds_value_at_every_level() {
        let mut m = flat();
        // In memory only.
        m.poke_word(w(0x9000), 1);
        assert_eq!(m.peek_word(w(0x9000)), 1);
        // Dirty in an L1.
        m.write(CoreId(0), w(0x9000), 2);
        assert_eq!(m.peek_word(w(0x9000)), 2);
        // After a remote read pulls it into L2 (dirty there, owner gone).
        m.read(CoreId(1), w(0x9000));
        assert_eq!(m.peek_word(w(0x9000)), 2);
    }

    #[test]
    fn capacity_evictions_write_back_dirty_data() {
        let mut m = flat();
        // Write more lines mapping to one L1 set than its associativity.
        // L1: 128 sets, so lines 0, 128, 256, ... collide. 4 ways.
        let step = 128 * 64; // one set apart in bytes
        for i in 0..8u64 {
            m.write(CoreId(0), w(i * step), i as Word + 1);
        }
        // All values must survive (in L2 or memory).
        for i in 0..8u64 {
            assert_eq!(m.peek_word(w(i * step)), i as Word + 1);
        }
        assert!(m.traffic.writeback > 0);
        m.check_invariants().unwrap();
    }

    #[test]
    fn latency_scales_with_distance_to_home_bank() {
        let mut m = flat();
        // Line 0's home bank is bank 0 at tile 0. Core 0 is local; core 15
        // is 6 hops away.
        m.poke_word(w(0), 1);
        let (_, lat_local) = m.read(CoreId(0), w(0));
        let mut m2 = flat();
        m2.poke_word(w(0), 1);
        let (_, lat_remote) = m2.read(CoreId(15), w(0));
        assert!(
            lat_remote > lat_local,
            "remote bank access ({lat_remote}) must exceed local ({lat_local})"
        );
    }
}
