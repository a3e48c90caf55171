//! Instruction-reordering constraints (paper §III-C, Figure 3) and the
//! write-buffer model that enforces them.
//!
//! Required orders (neither compiler nor hardware may break them):
//!
//! * `INV(x) -> ld x` — a load must see the refreshed view;
//! * `st x -> WB(x)` — the writeback must post the value just stored.
//!
//! Desirable orders (kept for performance, e.g. spin loops):
//!
//! * `ld x -> INV(x)`, `WB(x) -> st x`, and both directions of
//!   `st x <-> INV(x)`.
//!
//! Free: loads may move across a WB to the same address in either
//! direction, because WB does not change the local line's value — and
//! moving a load *above* a WB acts as a prefetch.
//!
//! The [`WriteBuffer`] models the retirement path: stores, WBs, and INVs
//! are deposited in order; entries to the same address drain in order; a
//! load may bypass buffered WBs but never a buffered INV to its address.

use hic_mem::WordAddr;

/// Kind of access, for ordering-rule queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    Load,
    Store,
    Wb,
    Inv,
}

/// Strength of the ordering between two same-address accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OrderConstraint {
    /// Reordering would change program semantics: forbidden.
    Required,
    /// Reordering is legal but hurts performance or timeliness: retained.
    Desirable,
    /// Reordering is always allowed (and can even help, as a prefetch).
    Free,
}

impl OrderConstraint {
    /// May the hardware or compiler swap the two accesses?
    pub fn may_reorder(self) -> bool {
        matches!(self, OrderConstraint::Free)
    }
}

/// The ordering constraint for `first` program-order-before `second`,
/// both to the same address (Figure 3). Accesses to different addresses
/// are unconstrained by this mechanism.
pub fn constraint(first: AccessKind, second: AccessKind) -> OrderConstraint {
    use AccessKind::*;
    use OrderConstraint::*;
    match (first, second) {
        // Figure 3a.
        (Inv, Load) => Required,
        (Load, Inv) => Desirable,
        // Figure 3b.
        (Store, Wb) => Required,
        (Wb, Store) => Desirable,
        // Figure 3c.
        (Store, Inv) | (Inv, Store) => Desirable,
        // Figure 3d: loads move freely around WB.
        (Load, Wb) | (Wb, Load) => Free,
        // Plain data accesses: ordinary uniprocessor dependences.
        (Store, Store) | (Store, Load) | (Load, Store) => Required,
        (Load, Load) => Free,
        // WB/INV against each other: keep program order (they are both
        // drained through the write buffer like stores).
        (Wb, Wb) | (Inv, Inv) | (Wb, Inv) | (Inv, Wb) => Desirable,
    }
}

/// One entry sitting in the write buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferedOp {
    pub kind: AccessKind,
    pub addr: WordAddr,
    /// Monotone sequence number (program order).
    pub seq: u64,
}

/// Retirement-side write buffer (paper §III-C): stores, WB, and INV retire
/// into it like stores and drain in order per address. Loads consult it:
/// a load to `x` may bypass buffered `WB(x)` entries but must wait for a
/// buffered `INV(x)` (and sees the value of a buffered `st x`, i.e. store
/// forwarding).
#[derive(Debug, Clone, Default)]
pub struct WriteBuffer {
    entries: std::collections::VecDeque<BufferedOp>,
    next_seq: u64,
    capacity: usize,
}

/// What a load may do given the buffer contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadPath {
    /// No conflicting entry: the load proceeds to the cache.
    Proceed,
    /// A buffered store to the same address supplies the value.
    ForwardFromStore { seq: u64 },
    /// A buffered INV to the same address: the load must wait until the
    /// buffer drains past it.
    StallForInv { seq: u64 },
}

impl WriteBuffer {
    /// A buffer with the given capacity (entries).
    pub fn new(capacity: usize) -> WriteBuffer {
        assert!(capacity > 0);
        WriteBuffer {
            entries: Default::default(),
            next_seq: 0,
            capacity,
        }
    }

    /// Is the buffer full (the next store/WB/INV would stall at retire)?
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Deposit a store/WB/INV at retirement. Panics on loads (loads do not
    /// occupy the write buffer) and when full (callers must drain first).
    pub fn push(&mut self, kind: AccessKind, addr: WordAddr) -> u64 {
        assert!(kind != AccessKind::Load, "loads are not buffered");
        assert!(!self.is_full(), "write buffer overflow: drain before push");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.push_back(BufferedOp { kind, addr, seq });
        seq
    }

    /// Drain the oldest entry (it has been performed in the cache).
    pub fn pop(&mut self) -> Option<BufferedOp> {
        self.entries.pop_front()
    }

    /// Decide the path for a load to `addr` (Figure 3 semantics):
    /// the *youngest* same-address entry governs.
    pub fn load_path(&self, addr: WordAddr) -> LoadPath {
        for e in self.entries.iter().rev() {
            if e.addr != addr {
                continue;
            }
            match e.kind {
                AccessKind::Store => return LoadPath::ForwardFromStore { seq: e.seq },
                AccessKind::Inv => return LoadPath::StallForInv { seq: e.seq },
                AccessKind::Wb => continue, // loads bypass WB freely (Fig 3d)
                AccessKind::Load => unreachable!("loads are not buffered"),
            }
        }
        LoadPath::Proceed
    }

    /// Verify the drain respects per-address program order: entries to the
    /// same address have strictly increasing sequence numbers front to
    /// back. (Invariant check used by property tests.)
    pub fn per_address_fifo_holds(&self) -> bool {
        use std::collections::HashMap;
        let mut last: HashMap<u64, u64> = HashMap::new();
        for e in &self.entries {
            if let Some(&prev) = last.get(&e.addr.0) {
                if prev >= e.seq {
                    return false;
                }
            }
            last.insert(e.addr.0, e.seq);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use AccessKind::*;
    use OrderConstraint::*;

    #[test]
    fn figure3a_inv_then_load_is_required() {
        assert_eq!(constraint(Inv, Load), Required);
        assert!(!constraint(Inv, Load).may_reorder());
        assert_eq!(constraint(Load, Inv), Desirable);
    }

    #[test]
    fn figure3b_store_then_wb_is_required() {
        assert_eq!(constraint(Store, Wb), Required);
        assert_eq!(constraint(Wb, Store), Desirable);
    }

    #[test]
    fn figure3c_store_inv_both_desirable() {
        assert_eq!(constraint(Store, Inv), Desirable);
        assert_eq!(constraint(Inv, Store), Desirable);
    }

    #[test]
    fn figure3d_loads_move_freely_around_wb() {
        assert_eq!(constraint(Load, Wb), Free);
        assert_eq!(constraint(Wb, Load), Free);
        assert!(constraint(Wb, Load).may_reorder());
    }

    #[test]
    fn plain_dependences_are_required() {
        assert_eq!(constraint(Store, Load), Required);
        assert_eq!(constraint(Load, Store), Required);
        assert_eq!(constraint(Store, Store), Required);
        assert_eq!(constraint(Load, Load), Free);
    }

    #[test]
    fn load_bypasses_buffered_wb() {
        let mut wb = WriteBuffer::new(8);
        wb.push(Wb, WordAddr(10));
        assert_eq!(wb.load_path(WordAddr(10)), LoadPath::Proceed);
        assert_eq!(wb.load_path(WordAddr(11)), LoadPath::Proceed);
    }

    #[test]
    fn load_stalls_for_buffered_inv() {
        let mut wb = WriteBuffer::new(8);
        let seq = wb.push(Inv, WordAddr(10));
        assert_eq!(wb.load_path(WordAddr(10)), LoadPath::StallForInv { seq });
        // Different address unaffected.
        assert_eq!(wb.load_path(WordAddr(20)), LoadPath::Proceed);
        // Draining the INV unblocks.
        wb.pop();
        assert_eq!(wb.load_path(WordAddr(10)), LoadPath::Proceed);
    }

    #[test]
    fn load_forwards_from_buffered_store() {
        let mut wb = WriteBuffer::new(8);
        let seq = wb.push(Store, WordAddr(10));
        assert_eq!(
            wb.load_path(WordAddr(10)),
            LoadPath::ForwardFromStore { seq }
        );
    }

    #[test]
    fn youngest_same_address_entry_wins() {
        let mut wb = WriteBuffer::new(8);
        wb.push(Store, WordAddr(10));
        let inv_seq = wb.push(Inv, WordAddr(10));
        // INV is younger than the store: the load must observe the
        // refreshed view, not forward stale data.
        assert_eq!(
            wb.load_path(WordAddr(10)),
            LoadPath::StallForInv { seq: inv_seq }
        );
        // A WB younger still does not lift the store-forwarding of an even
        // younger store.
        let st_seq = wb.push(Store, WordAddr(10));
        wb.push(Wb, WordAddr(10));
        assert_eq!(
            wb.load_path(WordAddr(10)),
            LoadPath::ForwardFromStore { seq: st_seq }
        );
    }

    #[test]
    fn fifo_drain_preserves_per_address_order() {
        let mut wb = WriteBuffer::new(8);
        wb.push(Store, WordAddr(1));
        wb.push(Wb, WordAddr(1));
        wb.push(Store, WordAddr(2));
        assert!(wb.per_address_fifo_holds());
        let a = wb.pop().unwrap();
        let b = wb.pop().unwrap();
        assert!(a.seq < b.seq, "drain is oldest-first");
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn push_to_full_buffer_panics() {
        let mut wb = WriteBuffer::new(1);
        wb.push(Store, WordAddr(0));
        wb.push(Store, WordAddr(1));
    }

    #[test]
    #[should_panic(expected = "loads are not buffered")]
    fn pushing_a_load_panics() {
        WriteBuffer::new(2).push(Load, WordAddr(0));
    }
}
