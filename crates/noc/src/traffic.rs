//! Flit-level traffic accounting.
//!
//! Paper Figure 10 reports network traffic "in number of 128-bit flits",
//! broken into: traffic between the L2 cache and memory (*memory*), and
//! three L1<->L2 sources: *linefill* (read/write miss fills), *writeback*,
//! and *invalidations*. We add two bookkeeping categories the figure does
//! not plot: *sync* (synchronization request/response control flits) and
//! *l2l3* (L2<->L3 transfers in the inter-block machine), so the ledger is
//! complete for every machine.

/// Category of a network transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficCategory {
    /// L1<->L2 line fills on read/write misses.
    Linefill,
    /// L1->L2 writebacks (dirty words or whole lines).
    Writeback,
    /// Coherence invalidation requests and acknowledgements. Always zero
    /// in the incoherent machine — self-invalidation is cache-local.
    Invalidation,
    /// L2<->memory (or L3<->memory) transfers.
    Memory,
    /// L2<->L3 transfers (inter-block machine only).
    L2L3,
    /// Synchronization control messages.
    Sync,
}

impl TrafficCategory {
    /// The four categories plotted in paper Figure 10, in stack order.
    pub const FIG10: [TrafficCategory; 4] = [
        TrafficCategory::Memory,
        TrafficCategory::Linefill,
        TrafficCategory::Writeback,
        TrafficCategory::Invalidation,
    ];

    pub fn label(self) -> &'static str {
        match self {
            TrafficCategory::Linefill => "linefill",
            TrafficCategory::Writeback => "writeback",
            TrafficCategory::Invalidation => "invalidation",
            TrafficCategory::Memory => "memory",
            TrafficCategory::L2L3 => "l2-l3",
            TrafficCategory::Sync => "sync",
        }
    }
}

/// Running flit totals per category.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficLedger {
    pub linefill: u64,
    pub writeback: u64,
    pub invalidation: u64,
    pub memory: u64,
    pub l2l3: u64,
    pub sync: u64,
}

impl TrafficLedger {
    pub fn new() -> TrafficLedger {
        TrafficLedger::default()
    }

    /// Add `flits` to `cat`.
    #[inline]
    pub fn add(&mut self, cat: TrafficCategory, flits: u64) {
        match cat {
            TrafficCategory::Linefill => self.linefill += flits,
            TrafficCategory::Writeback => self.writeback += flits,
            TrafficCategory::Invalidation => self.invalidation += flits,
            TrafficCategory::Memory => self.memory += flits,
            TrafficCategory::L2L3 => self.l2l3 += flits,
            TrafficCategory::Sync => self.sync += flits,
        }
    }

    /// Flits recorded under `cat`.
    #[inline]
    pub fn get(&self, cat: TrafficCategory) -> u64 {
        match cat {
            TrafficCategory::Linefill => self.linefill,
            TrafficCategory::Writeback => self.writeback,
            TrafficCategory::Invalidation => self.invalidation,
            TrafficCategory::Memory => self.memory,
            TrafficCategory::L2L3 => self.l2l3,
            TrafficCategory::Sync => self.sync,
        }
    }

    /// Total across all categories.
    pub fn total(&self) -> u64 {
        self.linefill + self.writeback + self.invalidation + self.memory + self.l2l3 + self.sync
    }

    /// Total across only the Figure 10 categories (what the paper plots).
    pub fn fig10_total(&self) -> u64 {
        TrafficCategory::FIG10.iter().map(|&c| self.get(c)).sum()
    }

    /// Element-wise sum.
    pub fn merged(&self, o: &TrafficLedger) -> TrafficLedger {
        TrafficLedger {
            linefill: self.linefill + o.linefill,
            writeback: self.writeback + o.writeback,
            invalidation: self.invalidation + o.invalidation,
            memory: self.memory + o.memory,
            l2l3: self.l2l3 + o.l2l3,
            sync: self.sync + o.sync,
        }
    }
}

impl std::ops::AddAssign for TrafficLedger {
    fn add_assign(&mut self, rhs: Self) {
        *self = self.merged(&rhs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_get_total() {
        let mut t = TrafficLedger::new();
        t.add(TrafficCategory::Linefill, 5);
        t.add(TrafficCategory::Memory, 10);
        t.add(TrafficCategory::Sync, 2);
        assert_eq!(t.get(TrafficCategory::Linefill), 5);
        assert_eq!(t.total(), 17);
        // Sync is excluded from the Figure 10 view.
        assert_eq!(t.fig10_total(), 15);
    }

    #[test]
    fn merge_is_elementwise() {
        let mut a = TrafficLedger::new();
        a.add(TrafficCategory::Writeback, 3);
        let mut b = TrafficLedger::new();
        b.add(TrafficCategory::Writeback, 4);
        b.add(TrafficCategory::Invalidation, 1);
        a += b;
        assert_eq!(a.writeback, 7);
        assert_eq!(a.invalidation, 1);
    }

    #[test]
    fn fig10_categories_are_the_papers_four() {
        let labels: Vec<_> = TrafficCategory::FIG10.iter().map(|c| c.label()).collect();
        assert_eq!(
            labels,
            vec!["memory", "linefill", "writeback", "invalidation"]
        );
    }
}
