//! Communication plans for programming model 2 (inter-block).
//!
//! The compiler analysis (`hic-analysis`) — or an inspector at runtime —
//! produces, for each thread and each epoch boundary, the list of regions
//! it must write back (with the consuming thread, when known) and the
//! regions it must self-invalidate (with the producing thread, when
//! known). [`Config::plan_wb`](crate::Config::plan_wb) /
//! [`Config::plan_inv`](crate::Config::plan_inv) translate the plan into
//! the right WB/INV flavor for the active configuration, for
//! `ThreadCtx` and `hic-lint` alike:
//!
//! * `Base` ignores the plan and uses global `WB ALL` / `INV ALL`;
//! * `Addr` uses the regions but always goes global (`WB_L3`, `INV_L2`);
//! * `Addr+L` uses `WB_CONS` / `INV_PROD` so the ThreadMap picks the level.

use hic_mem::Region;
use hic_sim::ThreadId;

/// One planned communication operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommOp {
    /// The data to move.
    pub region: Region,
    /// The peer thread (consumer for WBs, producer for INVs), when the
    /// analysis could identify it. `None` = unknown: the operation must be
    /// global regardless of configuration.
    pub peer: Option<ThreadId>,
}

impl CommOp {
    pub fn known(region: Region, peer: ThreadId) -> CommOp {
        CommOp {
            region,
            peer: Some(peer),
        }
    }

    pub fn unknown(region: Region) -> CommOp {
        CommOp { region, peer: None }
    }
}

/// The per-thread plan for one epoch boundary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EpochPlan {
    /// Data this thread produced that others will consume.
    pub wb: Vec<CommOp>,
    /// Data this thread will consume that others produced.
    pub inv: Vec<CommOp>,
}

impl EpochPlan {
    pub fn new() -> EpochPlan {
        EpochPlan::default()
    }

    pub fn with_wb(mut self, op: CommOp) -> EpochPlan {
        self.wb.push(op);
        self
    }

    pub fn with_inv(mut self, op: CommOp) -> EpochPlan {
        self.inv.push(op);
        self
    }

    pub fn is_empty(&self) -> bool {
        self.wb.is_empty() && self.inv.is_empty()
    }

    /// The plan with both halves run through [`coalesce_ops`]: same word
    /// coverage and per-word peer scopes, fewest ops.
    pub fn coalesced(&self) -> EpochPlan {
        EpochPlan {
            wb: coalesce_ops(&self.wb),
            inv: coalesce_ops(&self.inv),
        }
    }

    /// One half of the plan: the WB ops (`wb = true`) or the INV ops.
    pub fn side(&self, wb: bool) -> &[CommOp] {
        if wb {
            &self.wb
        } else {
            &self.inv
        }
    }

    fn side_mut(&mut self, wb: bool) -> &mut Vec<CommOp> {
        if wb {
            &mut self.wb
        } else {
            &mut self.inv
        }
    }

    // ------------------------------------------------------------------
    // Mutation helpers (fuzzing / fault-injection harnesses)
    //
    // `hic-fuzz` perturbs plans through these four operators — delete,
    // duplicate, widen, narrow — so that the same mutation applies
    // identically to a program's runnable closure and to its
    // `ProgramRecord` (both materialize their plans through one shared
    // description). They are deliberately total: out-of-range indices
    // return `false`/`None` instead of panicking, because a fuzzer's
    // mutation coordinates may outlive a shrunk plan.
    // ------------------------------------------------------------------

    /// Remove op `idx` of the given half. Returns the removed op, or
    /// `None` when the index is out of range.
    pub fn delete_op(&mut self, wb: bool, idx: usize) -> Option<CommOp> {
        let ops = self.side_mut(wb);
        if idx < ops.len() {
            Some(ops.remove(idx))
        } else {
            None
        }
    }

    /// Append an exact copy of op `idx` of the given half (a redundancy
    /// the verifier must tolerate and the optimizer should prune).
    pub fn duplicate_op(&mut self, wb: bool, idx: usize) -> bool {
        let ops = self.side_mut(wb);
        if let Some(op) = ops.get(idx).copied() {
            ops.push(op);
            true
        } else {
            false
        }
    }

    /// Grow op `idx`'s region by `front` words downward (saturating at
    /// address zero) and `back` words upward. Widening keeps a plan
    /// sufficient: it can only move *more* data.
    pub fn widen_op(&mut self, wb: bool, idx: usize, front: u64, back: u64) -> bool {
        let Some(op) = self.side_mut(wb).get_mut(idx) else {
            return false;
        };
        let front = front.min(op.region.start.0);
        op.region = Region::new(
            hic_mem::WordAddr(op.region.start.0 - front),
            op.region.words + front + back,
        );
        true
    }

    /// Shrink op `idx`'s region by `front` words from the start and
    /// `back` words from the end. Refuses mutations that would empty or
    /// invert the region (use [`EpochPlan::delete_op`] for removal), so a
    /// successful narrow always leaves a strict, non-empty sub-range —
    /// the uncovered remainder is what a soundness audit expects the
    /// analyses to flag.
    pub fn narrow_op(&mut self, wb: bool, idx: usize, front: u64, back: u64) -> bool {
        let Some(op) = self.side_mut(wb).get_mut(idx) else {
            return false;
        };
        if front + back == 0 || front + back >= op.region.words {
            return false;
        }
        op.region = Region::new(
            hic_mem::WordAddr(op.region.start.0 + front),
            op.region.words - front - back,
        );
        true
    }
}

/// Merge a list of planned operations into the minimal equivalent list:
/// ops with the same peer whose regions overlap or touch become one op
/// over the union range, exact same-peer duplicates collapse, and empty
/// regions vanish. Ops with *different* peers are never merged (the peer
/// selects the cache level under `Addr+L`), so per-word scope is
/// preserved exactly. The result is sorted by (region start, peer).
pub fn coalesce_ops(ops: &[CommOp]) -> Vec<CommOp> {
    let mut sorted: Vec<CommOp> = ops.iter().copied().filter(|o| o.region.words > 0).collect();
    // Group by peer, then by start address within the group.
    let key = |o: &CommOp| (o.peer.map_or(u64::MAX, |p| p.0 as u64), o.region.start.0);
    sorted.sort_by_key(key);
    let mut out: Vec<CommOp> = Vec::with_capacity(sorted.len());
    for op in sorted {
        match out.last_mut() {
            Some(last) if last.peer == op.peer && op.region.start.0 <= last.region.end().0 => {
                let end = last.region.end().0.max(op.region.end().0);
                last.region = Region::new(last.region.start, end - last.region.start.0);
            }
            _ => out.push(op),
        }
    }
    out.sort_by_key(|o| (o.region.start.0, o.peer.map_or(u64::MAX, |p| p.0 as u64)));
    out
}

/// Per-call-site plan substitutions computed by a static optimizer
/// (`hic-lint`). Entry `wb[t][k]` replaces the plan of thread `t`'s k-th
/// [`crate::ThreadCtx::plan_wb`] call (`inv[t][k]` its k-th `plan_inv`);
/// `None` keeps the plan the program passed. Install on the builder with
/// [`crate::ProgramBuilder::override_plans`] — the program text stays
/// untouched, only the issued WB/INV instructions change.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlanOverrides {
    pub wb: Vec<Vec<Option<EpochPlan>>>,
    pub inv: Vec<Vec<Option<EpochPlan>>>,
}

impl PlanOverrides {
    pub fn new(nthreads: usize) -> PlanOverrides {
        PlanOverrides {
            wb: vec![Vec::new(); nthreads],
            inv: vec![Vec::new(); nthreads],
        }
    }

    fn set(side: &mut Vec<Option<EpochPlan>>, site: usize, plan: EpochPlan) {
        if side.len() <= site {
            side.resize(site + 1, None);
        }
        side[site] = Some(plan);
    }

    /// Substitute thread `t`'s `site`-th `plan_wb` call.
    pub fn set_wb(&mut self, t: usize, site: usize, plan: EpochPlan) {
        Self::set(&mut self.wb[t], site, plan);
    }

    /// Substitute thread `t`'s `site`-th `plan_inv` call.
    pub fn set_inv(&mut self, t: usize, site: usize, plan: EpochPlan) {
        Self::set(&mut self.inv[t], site, plan);
    }

    pub fn wb_at(&self, t: usize, site: usize) -> Option<&EpochPlan> {
        self.wb.get(t)?.get(site)?.as_ref()
    }

    pub fn inv_at(&self, t: usize, site: usize) -> Option<&EpochPlan> {
        self.inv.get(t)?.get(site)?.as_ref()
    }

    /// True when no site is substituted at all.
    pub fn is_empty(&self) -> bool {
        let unset =
            |side: &[Vec<Option<EpochPlan>>]| side.iter().all(|v| v.iter().all(|p| p.is_none()));
        unset(&self.wb) && unset(&self.inv)
    }

    /// Number of substituted sites.
    pub fn num_overridden(&self) -> usize {
        let count = |side: &[Vec<Option<EpochPlan>>]| {
            side.iter()
                .map(|v| v.iter().filter(|p| p.is_some()).count())
                .sum::<usize>()
        };
        count(&self.wb) + count(&self.inv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hic_mem::WordAddr;

    #[test]
    fn builder_pattern() {
        let r = Region::new(WordAddr(0), 16);
        let p = EpochPlan::new()
            .with_wb(CommOp::known(r, ThreadId(1)))
            .with_inv(CommOp::unknown(r));
        assert_eq!(p.wb.len(), 1);
        assert_eq!(p.inv.len(), 1);
        assert_eq!(p.wb[0].peer, Some(ThreadId(1)));
        assert_eq!(p.inv[0].peer, None);
        assert!(!p.is_empty());
        assert!(EpochPlan::new().is_empty());
    }

    /// Per-word scopes of an op list, the naive way: for every word, the
    /// set of peer scopes some op covers it with.
    fn naive_scopes(
        ops: &[CommOp],
    ) -> std::collections::BTreeMap<u64, std::collections::BTreeSet<Option<u64>>> {
        let mut m: std::collections::BTreeMap<u64, std::collections::BTreeSet<Option<u64>>> =
            std::collections::BTreeMap::new();
        for op in ops {
            for w in op.region.start.0..op.region.end().0 {
                m.entry(w).or_default().insert(op.peer.map(|p| p.0 as u64));
            }
        }
        m
    }

    #[test]
    fn coalesce_preserves_per_word_scopes_and_is_minimal() {
        let mut rng = hic_sim::SplitMix64::new(0x0a1b2c3d);
        for _ in 0..500 {
            let n = (rng.next_u64() % 12) as usize;
            let ops: Vec<CommOp> = (0..n)
                .map(|_| {
                    let start = 64 + rng.next_u64() % 64;
                    let words = rng.next_u64() % 20; // empty regions allowed
                    let peer = match rng.next_u64() % 3 {
                        0 => None,
                        v => Some(ThreadId((v % 2) as usize)),
                    };
                    CommOp {
                        region: Region::new(WordAddr(start), words),
                        peer,
                    }
                })
                .collect();
            let out = coalesce_ops(&ops);
            // Same word coverage with the same per-word peer scopes.
            assert_eq!(naive_scopes(&ops), naive_scopes(&out), "{ops:?} -> {out:?}");
            // Minimal: no empty regions, no two same-peer ops that still
            // touch or overlap.
            assert!(out.iter().all(|o| o.region.words > 0));
            for a in 0..out.len() {
                for b in a + 1..out.len() {
                    let (x, y) = (&out[a], &out[b]);
                    if x.peer == y.peer {
                        let disjoint = x.region.end().0 < y.region.start.0
                            || y.region.end().0 < x.region.start.0;
                        assert!(disjoint, "mergeable ops survived: {out:?}");
                    }
                }
            }
            // Sorted by (start, peer).
            let mut sorted = out.clone();
            sorted.sort_by_key(|o| (o.region.start.0, o.peer.map_or(u64::MAX, |p| p.0 as u64)));
            assert_eq!(out, sorted);
        }
    }
}
