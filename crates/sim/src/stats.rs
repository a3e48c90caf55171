//! Per-core execution-time accounting.
//!
//! Paper Figure 9 breaks execution time into five categories: INV stall,
//! WB stall, lock stall, barrier stall, and "rest of the execution".
//! [`StallLedger`] accumulates those per core; ledgers from all cores are
//! merged to produce the figure's stacked bars.

use crate::Cycle;

/// One of the five execution-time categories of paper Figure 9.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallCategory {
    /// Time the core is stalled executing self-invalidation instructions.
    Inv,
    /// Time the core is stalled executing writeback instructions.
    Wb,
    /// Time spent waiting for lock acquires.
    Lock,
    /// Time spent waiting at barriers (mostly load imbalance).
    Barrier,
    /// Everything else: compute plus ordinary memory-access time.
    Rest,
}

impl StallCategory {
    /// All categories, in the order the paper's figure stacks them.
    pub const ALL: [StallCategory; 5] = [
        StallCategory::Inv,
        StallCategory::Wb,
        StallCategory::Lock,
        StallCategory::Barrier,
        StallCategory::Rest,
    ];

    /// Short label used by the figure harness.
    pub fn label(self) -> &'static str {
        match self {
            StallCategory::Inv => "INV stall",
            StallCategory::Wb => "WB stall",
            StallCategory::Lock => "lock stall",
            StallCategory::Barrier => "barrier stall",
            StallCategory::Rest => "rest",
        }
    }
}

/// Cycle totals per [`StallCategory`] for one core (or summed over cores).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallLedger {
    pub inv: Cycle,
    pub wb: Cycle,
    pub lock: Cycle,
    pub barrier: Cycle,
    pub rest: Cycle,
}

impl StallLedger {
    pub fn new() -> Self {
        Self::default()
    }

    /// Charge `cycles` to `cat`.
    #[inline]
    pub fn charge(&mut self, cat: StallCategory, cycles: Cycle) {
        match cat {
            StallCategory::Inv => self.inv += cycles,
            StallCategory::Wb => self.wb += cycles,
            StallCategory::Lock => self.lock += cycles,
            StallCategory::Barrier => self.barrier += cycles,
            StallCategory::Rest => self.rest += cycles,
        }
    }

    /// Cycles charged to `cat`.
    #[inline]
    pub fn get(&self, cat: StallCategory) -> Cycle {
        match cat {
            StallCategory::Inv => self.inv,
            StallCategory::Wb => self.wb,
            StallCategory::Lock => self.lock,
            StallCategory::Barrier => self.barrier,
            StallCategory::Rest => self.rest,
        }
    }

    /// Total cycles across all categories.
    pub fn total(&self) -> Cycle {
        self.inv + self.wb + self.lock + self.barrier + self.rest
    }

    /// Element-wise sum, used to merge per-core ledgers.
    pub fn merged(&self, other: &StallLedger) -> StallLedger {
        StallLedger {
            inv: self.inv + other.inv,
            wb: self.wb + other.wb,
            lock: self.lock + other.lock,
            barrier: self.barrier + other.barrier,
            rest: self.rest + other.rest,
        }
    }

    /// Each category as a fraction of `denom` (e.g. the HCC total for a
    /// normalized figure). Returns in [`StallCategory::ALL`] order.
    pub fn normalized(&self, denom: Cycle) -> [f64; 5] {
        let d = denom.max(1) as f64;
        [
            self.inv as f64 / d,
            self.wb as f64 / d,
            self.lock as f64 / d,
            self.barrier as f64 / d,
            self.rest as f64 / d,
        ]
    }
}

impl std::ops::AddAssign for StallLedger {
    fn add_assign(&mut self, rhs: Self) {
        *self = self.merged(&rhs);
    }
}

/// Host-side bookkeeping of the execution engine that drove a run.
///
/// These are **simulator** metrics, not simulated-machine metrics: they
/// describe how the runtime's executor scheduled the simulated cores'
/// tasks (inline ops, suspensions, wakeups), so they change with the
/// engine while `StallLedger` cycle counts must not. Every op is either
/// run without suspending (at the smallest `(time, core)` key, or
/// because it is private) or preceded by exactly one suspension, so
/// `shard_local_ops + round_trips == ops_executed`; under the `Linear`
/// oracle every op suspends and `shard_local_ops == 0`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Machine operations executed.
    pub ops_executed: u64,
    /// Equal to [`EngineStats::ops_executed`]: every op is handed to the
    /// machine on its own.
    pub messages: u64,
    /// Always 0: ops are never coalesced.
    pub batches: u64,
    /// Suspensions before an op: the issuing core yielded to the loop
    /// because another ready core's op came first and the op was not
    /// private.
    pub round_trips: u64,
    /// Wakeups delivered to parked cores.
    pub wakeups: u64,
    /// Maximum number of simultaneously parked cores observed.
    pub peak_parked: u64,
    /// Ops the issuing core ran without suspending: either its
    /// `(time, core)` key was the smallest, or the op was private (it
    /// touches only the core's own state, so it commutes with every
    /// other core's op).
    pub shard_local_ops: u64,
    /// Always 0: the executor is single-threaded and takes no lock.
    pub lock_waits: u64,
}

impl EngineStats {
    pub fn new() -> Self {
        Self::default()
    }

    /// Fraction of executed ops that ran inline, without a suspension
    /// (0.0 under the `Linear` oracle, which suspends before every op).
    pub fn round_trip_savings(&self) -> f64 {
        if self.ops_executed == 0 {
            return 0.0;
        }
        1.0 - self.round_trips as f64 / self.ops_executed as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_and_total() {
        let mut l = StallLedger::new();
        l.charge(StallCategory::Inv, 10);
        l.charge(StallCategory::Wb, 20);
        l.charge(StallCategory::Lock, 5);
        l.charge(StallCategory::Barrier, 7);
        l.charge(StallCategory::Rest, 100);
        assert_eq!(l.total(), 142);
        assert_eq!(l.get(StallCategory::Wb), 20);
    }

    #[test]
    fn merge_is_elementwise() {
        let mut a = StallLedger::new();
        a.charge(StallCategory::Inv, 1);
        let mut b = StallLedger::new();
        b.charge(StallCategory::Inv, 2);
        b.charge(StallCategory::Rest, 3);
        let m = a.merged(&b);
        assert_eq!(m.inv, 3);
        assert_eq!(m.rest, 3);
        a += b;
        assert_eq!(a, m);
    }

    #[test]
    fn normalized_fractions_sum_to_one() {
        let mut l = StallLedger::new();
        for (i, c) in StallCategory::ALL.iter().enumerate() {
            l.charge(*c, (i as u64 + 1) * 10);
        }
        let f = l.normalized(l.total());
        let sum: f64 = f.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalized_handles_zero_denominator() {
        let l = StallLedger::new();
        let f = l.normalized(0);
        assert!(f.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn round_trip_savings_bounds() {
        let mut e = EngineStats::new();
        assert_eq!(e.round_trip_savings(), 0.0, "empty engine saves nothing");
        e.ops_executed = 100;
        e.round_trips = 100;
        assert_eq!(e.round_trip_savings(), 0.0, "every op suspended");
        e.round_trips = 25;
        assert!((e.round_trip_savings() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn category_labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            StallCategory::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), 5);
    }
}
