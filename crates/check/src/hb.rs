//! Happens-before: the ordering half of staleness checking.
//!
//! One [`HappensBefore`] holds the FastTrack vector clocks of every
//! thread and every release-side sync object, each thread's last
//! release and last acquire, and the rule that attributes a stale
//! ordered read to the producer or the consumer. The dynamic
//! [`Checker`](crate::Checker) drives it from the machine's sync events
//! and stamps them with the simulated cycle; `hic-lint`'s abstract
//! interpreter drives it from its run-to-block schedule and stamps them
//! with its sync-step counter. The two tools therefore order accesses and
//! attribute findings alike; they differ only in their memory models.

use fxhash::FxHashMap;
use hic_core::VectorClock;
use hic_sim::Cycle;

use crate::{FindingKind, SyncOp, SyncRef};

/// Vector clocks plus last release/acquire refs of one run.
#[derive(Debug)]
pub struct HappensBefore {
    clocks: Vec<VectorClock>,
    /// Per sync object (lock, flag): everything released through it.
    sync_clocks: FxHashMap<usize, VectorClock>,
    last_release: Vec<Option<SyncRef>>,
    last_acquire: Vec<Option<SyncRef>>,
}

impl HappensBefore {
    /// Fresh clocks for `nthreads` threads: nothing is ordered yet.
    pub fn new(nthreads: usize) -> HappensBefore {
        HappensBefore {
            clocks: (0..nthreads)
                .map(|t| VectorClock::thread(nthreads, t))
                .collect(),
            sync_clocks: FxHashMap::default(),
            last_release: vec![None; nthreads],
            last_acquire: vec![None; nthreads],
        }
    }

    /// Thread `t`'s own epoch: the stamp its writes carry now.
    #[inline]
    pub fn epoch(&self, t: usize) -> u32 {
        self.clocks[t].get(t)
    }

    /// Thread `t`'s view of thread `of`'s epoch.
    #[inline]
    pub fn view(&self, t: usize, of: usize) -> u32 {
        self.clocks[t].get(of)
    }

    /// Is `writer`'s write stamped `epoch` ordered before thread `t`'s
    /// next access?
    #[inline]
    pub fn ordered(&self, t: usize, writer: usize, epoch: u32) -> bool {
        self.clocks[t].covers(writer, epoch)
    }

    /// Barrier `id` released `participants` at `at`: each joins all the
    /// others' clocks, then starts a new epoch. A barrier is both a
    /// release (for pre-barrier writes) and an acquire (for post-barrier
    /// reads).
    pub fn barrier(&mut self, id: usize, participants: &[usize], at: Cycle) {
        let Some((&first, rest)) = participants.split_first() else {
            return;
        };
        let mut joined = self.clocks[first].clone();
        for &p in rest {
            joined.join(&self.clocks[p]);
        }
        let r = SyncRef {
            op: SyncOp::Barrier,
            id,
            at,
        };
        for &p in participants {
            self.clocks[p].clone_from(&joined);
            self.clocks[p].bump(p);
            self.last_release[p] = Some(r);
            self.last_acquire[p] = Some(r);
        }
    }

    /// Thread `t` released through sync object `id` (lock release, flag
    /// set) at `at`: the object absorbs `t`'s clock, `t` starts a new
    /// epoch.
    pub fn release(&mut self, t: usize, op: SyncOp, id: usize, at: Cycle) {
        let n = self.clocks.len();
        self.sync_clocks
            .entry(id)
            .or_insert_with(|| VectorClock::object(n))
            .join(&self.clocks[t]);
        self.clocks[t].bump(t);
        self.last_release[t] = Some(SyncRef { op, id, at });
    }

    /// Thread `t` acquired through sync object `id` (lock granted, flag
    /// wait satisfied) at `at`: it joins everything released there.
    pub fn acquire(&mut self, t: usize, op: SyncOp, id: usize, at: Cycle) {
        if let Some(sc) = self.sync_clocks.get(&id) {
            self.clocks[t].join(sc);
        }
        self.last_acquire[t] = Some(SyncRef { op, id, at });
    }

    /// Attribute an ordered read by `reader` that missed `writer`'s
    /// value. When the value `reached` the two threads' common cache
    /// level, the reader kept a stale private copy: missing INV, hinted
    /// at the reader's last acquire. Otherwise the value never got there:
    /// missing WB, hinted at the writer's last release.
    pub fn stale_read(
        &self,
        reader: usize,
        writer: usize,
        reached: bool,
    ) -> (FindingKind, Option<SyncRef>) {
        if reached {
            (FindingKind::MissingInv, self.last_acquire[reader])
        } else {
            (FindingKind::MissingWb, self.last_release[writer])
        }
    }
}
