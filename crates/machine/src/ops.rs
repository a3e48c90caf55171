//! The operation vocabulary a simulated thread issues to its core.
//!
//! Applications never touch the memory system directly: they produce a
//! stream of [`Op`]s through the `ThreadCtx` API in `hic-runtime`, and the
//! machine executes each op at the core's current simulated time.

use hic_core::CohInstr;
use hic_mem::{Word, WordAddr};
use hic_sync::SyncId;

/// One operation issued by a simulated thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Load a word; the reply carries the value.
    Load(WordAddr),
    /// Store a word.
    Store(WordAddr, Word),
    /// Load a word uncacheably: served by the shared level (L2, or L3 on
    /// the multi-block machine) without allocating in the L1. The MPI
    /// library communicates through such accesses (§IV: "an on-chip
    /// uncacheable shared buffer").
    LoadUnc(WordAddr),
    /// Store a word uncacheably (see [`Op::LoadUnc`]).
    StoreUnc(WordAddr, Word),
    /// A coherence-management instruction (WB / INV flavor).
    Coh(CohInstr),
    /// Pure computation: advance this core's clock by `cycles`.
    Compute(u64),
    /// Arrive at a barrier; blocks until every participant arrives.
    BarrierArrive(SyncId),
    /// Request a lock; blocks until granted.
    LockAcquire(SyncId),
    /// Release a held lock.
    LockRelease(SyncId),
    /// Set a condition flag, releasing all waiters.
    FlagSet(SyncId),
    /// Clear a condition flag.
    FlagClear(SyncId),
    /// Wait until a condition flag is set.
    FlagWait(SyncId),
    /// Start MEB recording (entry of a tracked epoch, e.g. lock acquire
    /// under the B+M configurations).
    MebBegin,
    /// Start an IEB-governed epoch (replaces the up-front INV ALL under
    /// the B+I configurations).
    IebBegin,
    /// End the IEB-governed epoch.
    IebEnd,
    /// Declare the next accesses to a word intentionally racy (the
    /// runtime emits this ahead of `racy_store`/`racy_load` when the
    /// incoherence sanitizer is on). Zero cycles, no machine effect:
    /// it only exempts the word from sanitizer race/staleness reports.
    MarkRacy(WordAddr),
    /// The thread has finished.
    Finish,
}

impl Op {
    /// Does this op block the core until another core's action?
    pub fn is_blocking(&self) -> bool {
        matches!(
            self,
            Op::BarrierArrive(_) | Op::LockAcquire(_) | Op::FlagWait(_)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocking_classification() {
        assert!(Op::BarrierArrive(SyncId(0)).is_blocking());
        assert!(Op::LockAcquire(SyncId(0)).is_blocking());
        assert!(Op::FlagWait(SyncId(0)).is_blocking());
        assert!(!Op::LockRelease(SyncId(0)).is_blocking());
        assert!(!Op::Load(WordAddr(0)).is_blocking());
        assert!(!Op::Compute(5).is_blocking());
        assert!(!Op::Finish.is_blocking());
    }
}
