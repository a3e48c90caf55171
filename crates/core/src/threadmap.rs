//! The ThreadMap table (paper §V-B).
//!
//! Each block's L2 cache controller holds a small hardware table listing
//! the IDs of the threads mapped to run on that block. The runtime system
//! fills it when threads are spawned and assigned to processors; the
//! mapping may not change afterwards.
//!
//! Level-adaptive instructions consult it: `WB_CONS(addr, cons)` writes
//! back only to L2 if `cons` is local, else to L3; `INV_PROD(addr, prod)`
//! invalidates only the L1 if `prod` is local, else L1 and L2.
//! [`ThreadMap::wb_is_global`] / [`ThreadMap::inv_is_global`] are that
//! scope resolution for every WB/INV flavor; the incoherent machine and
//! `hic-lint`'s abstract interpreter both resolve scopes through them.

use hic_sim::{BlockId, ThreadId};

use crate::isa::{InvScope, WbScope};

/// Per-block thread-residency table.
#[derive(Debug, Clone, Default)]
pub struct ThreadMap {
    /// `threads[b]` = thread IDs mapped to block `b`, sorted.
    threads: Vec<Vec<ThreadId>>,
}

impl ThreadMap {
    /// An empty map for `blocks` blocks.
    pub fn new(blocks: usize) -> ThreadMap {
        ThreadMap {
            threads: vec![Vec::new(); blocks],
        }
    }

    /// The canonical mapping the runtime uses: thread `i` on core `i`,
    /// with `cores_per_block` consecutive cores per block.
    pub fn identity(blocks: usize, cores_per_block: usize) -> ThreadMap {
        let mut map = ThreadMap::new(blocks);
        for t in 0..blocks * cores_per_block {
            map.assign(ThreadId(t), BlockId(t / cores_per_block));
        }
        map
    }

    /// Record that `thread` runs on `block`. Called by the runtime at
    /// spawn time; a thread may appear in exactly one block.
    pub fn assign(&mut self, thread: ThreadId, block: BlockId) {
        assert!(
            self.block_of(thread).is_none(),
            "{thread} already mapped; the mapping may not change dynamically"
        );
        let list = &mut self.threads[block.0];
        match list.binary_search(&thread) {
            Ok(_) => {}
            Err(pos) => list.insert(pos, thread),
        }
    }

    /// Is `thread` mapped to `block`? This is the hardware check performed
    /// by WB_CONS / INV_PROD in the local L2 controller.
    pub fn is_local(&self, block: BlockId, thread: ThreadId) -> bool {
        self.threads[block.0].binary_search(&thread).is_ok()
    }

    /// The block a thread is mapped to, if any.
    pub fn block_of(&self, thread: ThreadId) -> Option<BlockId> {
        self.threads
            .iter()
            .position(|list| list.binary_search(&thread).is_ok())
            .map(BlockId)
    }

    /// Threads mapped to a block.
    pub fn threads_on(&self, block: BlockId) -> &[ThreadId] {
        &self.threads[block.0]
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.threads.len()
    }

    /// Does a WB of `scope` issued in block `issuer` reach the global
    /// level (L3)? A one-block machine has no level below its L2.
    pub fn wb_is_global(&self, issuer: BlockId, scope: WbScope) -> bool {
        match scope {
            WbScope::ToL2 => false,
            WbScope::ToL3 => self.num_blocks() > 1,
            WbScope::Cons(t) => self.num_blocks() > 1 && !self.is_local(issuer, t),
        }
    }

    /// Does an INV of `scope` issued in block `issuer` drop the block's
    /// L2 copies too (not only the issuer's L1)?
    pub fn inv_is_global(&self, issuer: BlockId, scope: InvScope) -> bool {
        match scope {
            InvScope::FromL1 => false,
            InvScope::FromL2 => self.num_blocks() > 1,
            InvScope::Prod(t) => self.num_blocks() > 1 && !self.is_local(issuer, t),
        }
    }

    /// Storage cost in bits: each block's table holds up to
    /// `entries_per_block` thread IDs of `thread_id_bits` each plus a
    /// valid bit.
    pub fn storage_bits(&self, entries_per_block: u64, thread_id_bits: u32) -> u64 {
        self.threads.len() as u64 * entries_per_block * (thread_id_bits as u64 + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_mapping_matches_blocks() {
        let m = ThreadMap::identity(4, 8);
        assert!(m.is_local(BlockId(0), ThreadId(0)));
        assert!(m.is_local(BlockId(0), ThreadId(7)));
        assert!(!m.is_local(BlockId(0), ThreadId(8)));
        assert!(m.is_local(BlockId(3), ThreadId(31)));
        assert_eq!(m.block_of(ThreadId(17)), Some(BlockId(2)));
    }

    #[test]
    fn custom_assignment() {
        let mut m = ThreadMap::new(2);
        m.assign(ThreadId(5), BlockId(1));
        assert!(m.is_local(BlockId(1), ThreadId(5)));
        assert!(!m.is_local(BlockId(0), ThreadId(5)));
        assert_eq!(m.block_of(ThreadId(5)), Some(BlockId(1)));
        assert_eq!(m.block_of(ThreadId(6)), None);
        assert_eq!(m.threads_on(BlockId(1)), &[ThreadId(5)]);
    }

    #[test]
    #[should_panic(expected = "already mapped")]
    fn remapping_a_thread_is_forbidden() {
        // §V-A: "such mapping will not be allowed to change dynamically".
        let mut m = ThreadMap::new(2);
        m.assign(ThreadId(1), BlockId(0));
        m.assign(ThreadId(1), BlockId(1));
    }

    #[test]
    fn scopes_resolve_through_the_map() {
        let m = ThreadMap::identity(4, 8);
        let b0 = BlockId(0);
        assert!(!m.wb_is_global(b0, WbScope::ToL2));
        assert!(m.wb_is_global(b0, WbScope::ToL3));
        assert!(!m.wb_is_global(b0, WbScope::Cons(ThreadId(7))));
        assert!(m.wb_is_global(b0, WbScope::Cons(ThreadId(8))));
        assert!(!m.inv_is_global(b0, InvScope::FromL1));
        assert!(m.inv_is_global(b0, InvScope::FromL2));
        assert!(!m.inv_is_global(BlockId(2), InvScope::Prod(ThreadId(16))));
        assert!(m.inv_is_global(BlockId(2), InvScope::Prod(ThreadId(15))));
        // One block: nothing is global.
        let flat = ThreadMap::identity(1, 16);
        assert!(!flat.wb_is_global(b0, WbScope::ToL3));
        assert!(!flat.inv_is_global(b0, InvScope::FromL2));
    }

    #[test]
    fn storage_cost() {
        let m = ThreadMap::new(4);
        // 4 blocks x 8 entries x (16-bit ID + valid) = 544 bits.
        assert_eq!(m.storage_bits(8, 16), 4 * 8 * 17);
    }
}
