//! The operation vocabulary a simulated thread issues to its core.
//!
//! Applications never touch the memory system directly: they produce a
//! stream of [`Op`]s through the `ThreadCtx` API in `hic-runtime`, and the
//! machine executes each op at the core's current simulated time.
//!
//! Ops that return no value and never block ([`Op::is_batchable`]) may be
//! coalesced into one message by the runtime. Batching is purely a
//! host-side optimization: the engine still executes the members one at
//! a time in global simulated-time order, so cycle counts are identical
//! to sending each op individually — only the reply round-trips
//! disappear.

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

    /// May this op ride inside a batch message? True exactly for ops
    /// that return no value, never park the core, and don't end the
    /// thread — the issuing thread has nothing to wait for.
    pub fn is_batchable(&self) -> bool {
        matches!(
            self,
            Op::Store(..)
                | Op::StoreUnc(..)
                | Op::Compute(_)
                | Op::Coh(_)
                | Op::MebBegin
                | Op::IebBegin
                | Op::IebEnd
                | Op::MarkRacy(_)
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

    #[test]
    fn batchable_classification() {
        // Batchable: fire-and-forget ops.
        assert!(Op::Store(WordAddr(0), 1).is_batchable());
        assert!(Op::StoreUnc(WordAddr(0), 1).is_batchable());
        assert!(Op::Compute(5).is_batchable());
        assert!(Op::MebBegin.is_batchable());
        assert!(Op::IebBegin.is_batchable());
        assert!(Op::IebEnd.is_batchable());
        // Not batchable: value-returning, blocking, sync-visible, or
        // lifecycle ops.
        assert!(!Op::Load(WordAddr(0)).is_batchable());
        assert!(!Op::LoadUnc(WordAddr(0)).is_batchable());
        assert!(!Op::BarrierArrive(SyncId(0)).is_batchable());
        assert!(!Op::LockAcquire(SyncId(0)).is_batchable());
        assert!(!Op::LockRelease(SyncId(0)).is_batchable());
        assert!(!Op::FlagSet(SyncId(0)).is_batchable());
        assert!(!Op::FlagClear(SyncId(0)).is_batchable());
        assert!(!Op::FlagWait(SyncId(0)).is_batchable());
        assert!(!Op::Finish.is_batchable());
    }

    #[test]
    fn no_batchable_op_blocks() {
        let samples = [
            Op::Store(WordAddr(0), 1),
            Op::StoreUnc(WordAddr(0), 1),
            Op::Compute(5),
            Op::MebBegin,
            Op::IebBegin,
            Op::IebEnd,
        ];
        for op in samples {
            assert!(op.is_batchable() && !op.is_blocking(), "{op:?}");
        }
    }
}
