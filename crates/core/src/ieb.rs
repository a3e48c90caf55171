//! The Invalidated Entry Buffer (IEB), paper §IV-B2.
//!
//! Instead of paying an up-front `INV ALL` at the start of a short epoch,
//! the epoch begins with *no* invalidation, and the IEB — a tiny
//! (4-entry), fast, exact buffer of line addresses — tracks lines that
//! have already been refreshed this epoch and therefore need no
//! invalidation on a future read.
//!
//! On every L1 read:
//!
//! * line address already in the IEB → normal read (fresh this epoch);
//! * read hits and the target word is dirty → normal read (this core
//!   wrote it; cannot be stale);
//! * otherwise: record the address in the IEB, invalidate the line if
//!   resident (first read this epoch), and fetch a fresh copy from the
//!   shared cache.
//!
//! The IEB is FIFO; an evicted entry costs at most one unnecessary
//! invalidation + miss if its line is read again (correctness is
//! unaffected).

use hic_mem::LineAddr;
use std::collections::VecDeque;

/// What the read path must do, as decided by the IEB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IebAction {
    /// Proceed as a normal cached read.
    Normal,
    /// First read of this line this epoch: invalidate the local copy (if
    /// any) and fetch fresh from the shared cache.
    RefreshFromShared,
}

/// Invalidated Entry Buffer state machine.
#[derive(Debug, Clone)]
pub struct Ieb {
    capacity: usize,
    entries: VecDeque<LineAddr>,
    active: bool,
    /// Unnecessary refreshes caused by capacity evictions (performance
    /// counter; the paper notes the IEB "sometimes overflows, becoming
    /// ineffective").
    evictions: u64,
}

impl Ieb {
    /// An IEB with the given capacity (4 in the paper).
    pub fn new(capacity: usize) -> Ieb {
        assert!(capacity > 0);
        Ieb {
            capacity,
            entries: VecDeque::with_capacity(capacity),
            active: false,
            evictions: 0,
        }
    }

    /// Begin a lazily-invalidated epoch: clear and activate.
    pub fn begin_epoch(&mut self) {
        self.entries.clear();
        self.active = true;
    }

    /// End the epoch: deactivate (reads go back to the normal path).
    pub fn end_epoch(&mut self) {
        self.active = false;
        self.entries.clear();
    }

    /// Is the IEB governing reads right now?
    pub fn active(&self) -> bool {
        self.active
    }

    /// Number of capacity evictions suffered so far (monotone counter).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Decide the path for a read of `line`. `word_dirty_on_hit` must be
    /// `true` iff the read hits in the L1 *and* the target word's dirty bit
    /// is set. Must only be called while active.
    pub fn on_read(&mut self, line: LineAddr, word_dirty_on_hit: bool) -> IebAction {
        debug_assert!(self.active, "IEB consulted while inactive");
        if self.entries.contains(&line) {
            return IebAction::Normal;
        }
        if word_dirty_on_hit {
            // Written by this core in the past: not stale, no action, and
            // per the paper "no special action is taken" — the line is not
            // recorded either.
            return IebAction::Normal;
        }
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
            self.evictions += 1;
        }
        self.entries.push_back(line);
        IebAction::RefreshFromShared
    }

    /// Storage cost in bits: each entry holds a full line address plus a
    /// valid bit (paper Table III: "4 entries. Size: 40b + 1b").
    pub fn storage_bits(&self, line_addr_bits: u32) -> u64 {
        self.capacity as u64 * (line_addr_bits as u64 + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_read_refreshes_second_is_normal() {
        let mut ieb = Ieb::new(4);
        ieb.begin_epoch();
        assert_eq!(
            ieb.on_read(LineAddr(10), false),
            IebAction::RefreshFromShared
        );
        assert_eq!(ieb.on_read(LineAddr(10), false), IebAction::Normal);
    }

    #[test]
    fn dirty_word_hit_needs_no_refresh() {
        let mut ieb = Ieb::new(4);
        ieb.begin_epoch();
        // The word was written by this core earlier: cannot be stale.
        assert_eq!(ieb.on_read(LineAddr(5), true), IebAction::Normal);
        // And the line was not recorded: a later clean-word read of the
        // same line still refreshes.
        assert_eq!(
            ieb.on_read(LineAddr(5), false),
            IebAction::RefreshFromShared
        );
    }

    #[test]
    fn fifo_eviction_causes_one_extra_refresh() {
        let mut ieb = Ieb::new(2);
        ieb.begin_epoch();
        assert_eq!(
            ieb.on_read(LineAddr(1), false),
            IebAction::RefreshFromShared
        );
        assert_eq!(
            ieb.on_read(LineAddr(2), false),
            IebAction::RefreshFromShared
        );
        // Line 3 evicts line 1.
        assert_eq!(
            ieb.on_read(LineAddr(3), false),
            IebAction::RefreshFromShared
        );
        assert_eq!(ieb.evictions(), 1);
        // Line 1 was evicted: unnecessary (but harmless) refresh.
        assert_eq!(
            ieb.on_read(LineAddr(1), false),
            IebAction::RefreshFromShared
        );
        // Line 3 is still held.
        assert_eq!(ieb.on_read(LineAddr(3), false), IebAction::Normal);
    }

    #[test]
    fn epoch_boundaries_clear_state() {
        let mut ieb = Ieb::new(4);
        ieb.begin_epoch();
        ieb.on_read(LineAddr(9), false);
        ieb.end_epoch();
        assert!(!ieb.active());
        ieb.begin_epoch();
        // Fresh epoch: line 9 must refresh again.
        assert_eq!(
            ieb.on_read(LineAddr(9), false),
            IebAction::RefreshFromShared
        );
    }

    #[test]
    fn storage_matches_table3() {
        let ieb = Ieb::new(4);
        // 4 entries x (40-bit line address + valid) = 164 bits.
        assert_eq!(ieb.storage_bits(40), 164);
    }
}
