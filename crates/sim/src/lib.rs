//! Simulation primitives shared by every layer of the hardware-incoherent
//! cache-hierarchy simulator.
//!
//! This crate holds the vocabulary types: simulated [`Cycle`] time, the
//! architecture configuration of the modeled machine ([`MachineConfig`],
//! paper Table III), the per-core stall ledger ([`StallLedger`], the five
//! categories of paper Figure 9), and small deterministic helpers,
//! including the workspace's one JSON value type ([`Json`]).
//!
//! Nothing here knows about caches or coherence; those live in `hic-mem`,
//! `hic-core`, and `hic-coherence`.

pub mod config;
pub mod json;
pub mod rng;
pub mod stats;

pub use config::{
    CacheGeometry, ConfigError, MachineConfig, SharedL3, Topology, TopologyBuilder, WORDS_PER_LINE,
    WORD_BYTES,
};
pub use json::Json;
pub use rng::SplitMix64;
pub use stats::{EngineStats, StallCategory, StallLedger};

/// Simulated time, measured in core clock cycles.
pub type Cycle = u64;

/// Identifier of a hardware core (0-based, dense).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreId(pub usize);

impl CoreId {
    /// The block (cluster) this core belongs to, given `cores_per_block`.
    #[inline]
    pub fn block(self, cores_per_block: usize) -> BlockId {
        BlockId(self.0 / cores_per_block)
    }
}

/// Identifier of a block (cluster of cores sharing an L2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub usize);

/// Identifier of a software thread. The runtime pins thread `i` to core `i`
/// (the paper assumes a one-to-one mapping with no migration, §IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(pub usize);

impl std::fmt::Display for CoreId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "core{}", self.0)
    }
}

impl std::fmt::Display for ThreadId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl std::fmt::Display for BlockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "blk{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_to_block_mapping() {
        assert_eq!(CoreId(0).block(8), BlockId(0));
        assert_eq!(CoreId(7).block(8), BlockId(0));
        assert_eq!(CoreId(8).block(8), BlockId(1));
        assert_eq!(CoreId(31).block(8), BlockId(3));
    }

    #[test]
    fn display_forms() {
        assert_eq!(CoreId(3).to_string(), "core3");
        assert_eq!(ThreadId(5).to_string(), "t5");
        assert_eq!(BlockId(1).to_string(), "blk1");
    }
}
