//! The synchronization table.
//!
//! When a synchronization variable is declared, the shared-cache controller
//! allocates an entry in this table plus some storage in its local memory
//! (paper §III-D). Three primitives are provided: barriers, locks, and
//! condition flags.
//!
//! All decisions are deterministic: waiters are served in
//! (arrival-cycle, core-id) order, so equal simulations produce equal
//! grant schedules.

use hic_sim::{CoreId, Cycle};

/// Handle to a synchronization variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SyncId(pub usize);

/// A grant: `core` may resume at `at` (controller-local time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    pub core: CoreId,
    pub at: Cycle,
}

/// Errors from misusing the table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SyncError {
    /// The id names no allocated variable.
    Unknown(SyncId),
    /// The variable exists but is not of the requested kind.
    WrongKind(SyncId, &'static str),
    /// A lock release by a core that does not own the lock.
    NotOwner(SyncId, CoreId, Option<CoreId>),
    /// A core issued a second request while already parked.
    AlreadyWaiting(SyncId, CoreId),
}

impl std::fmt::Display for SyncError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SyncError::Unknown(id) => write!(f, "unknown sync variable {id:?}"),
            SyncError::WrongKind(id, k) => write!(f, "sync variable {id:?} is not a {k}"),
            SyncError::NotOwner(id, c, o) => {
                write!(f, "lock {id:?} released by {c}, but owner is {o:?}")
            }
            SyncError::AlreadyWaiting(id, c) => write!(f, "core {c} already waiting on {id:?}"),
        }
    }
}

impl std::error::Error for SyncError {}

/// One synchronization variable.
#[derive(Debug, Clone)]
pub enum SyncVar {
    Barrier {
        participants: usize,
        /// Cores arrived so far this episode, with their arrival times.
        arrived: Vec<(CoreId, Cycle)>,
        /// Completed episodes (for stats / tests).
        episodes: u64,
    },
    Lock {
        owner: Option<CoreId>,
        /// FIFO of waiting acquirers.
        queue: Vec<(CoreId, Cycle)>,
        acquisitions: u64,
    },
    Flag {
        set: bool,
        waiters: Vec<(CoreId, Cycle)>,
        sets: u64,
    },
}

/// The controller's synchronization table.
#[derive(Debug, Clone, Default)]
pub struct SyncController {
    vars: Vec<SyncVar>,
}

impl SyncController {
    pub fn new() -> SyncController {
        SyncController::default()
    }

    /// Declare a barrier over `participants` cores.
    pub fn alloc_barrier(&mut self, participants: usize) -> SyncId {
        assert!(participants > 0);
        self.vars.push(SyncVar::Barrier {
            participants,
            arrived: Vec::new(),
            episodes: 0,
        });
        SyncId(self.vars.len() - 1)
    }

    /// Declare a lock.
    pub fn alloc_lock(&mut self) -> SyncId {
        self.vars.push(SyncVar::Lock {
            owner: None,
            queue: Vec::new(),
            acquisitions: 0,
        });
        SyncId(self.vars.len() - 1)
    }

    /// Declare a condition flag (initially clear).
    pub fn alloc_flag(&mut self) -> SyncId {
        self.vars.push(SyncVar::Flag {
            set: false,
            waiters: Vec::new(),
            sets: 0,
        });
        SyncId(self.vars.len() - 1)
    }

    /// Number of variables in the table.
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    fn var(&mut self, id: SyncId) -> Result<&mut SyncVar, SyncError> {
        self.vars.get_mut(id.0).ok_or(SyncError::Unknown(id))
    }

    /// A core arrives at a barrier at `now`. Returns the grants if this
    /// arrival completes the episode (all participants released at the
    /// latest arrival time), or an empty vec if the core must wait.
    pub fn barrier_arrive(
        &mut self,
        id: SyncId,
        core: CoreId,
        now: Cycle,
    ) -> Result<Vec<Grant>, SyncError> {
        match self.var(id)? {
            SyncVar::Barrier {
                participants,
                arrived,
                episodes,
            } => {
                if arrived.iter().any(|&(c, _)| c == core) {
                    return Err(SyncError::AlreadyWaiting(id, core));
                }
                arrived.push((core, now));
                if arrived.len() == *participants {
                    let release = arrived.iter().map(|&(_, t)| t).max().unwrap_or(now);
                    let mut grants: Vec<Grant> = arrived
                        .drain(..)
                        .map(|(c, _)| Grant {
                            core: c,
                            at: release,
                        })
                        .collect();
                    grants.sort_by_key(|g| g.core);
                    *episodes += 1;
                    Ok(grants)
                } else {
                    Ok(Vec::new())
                }
            }
            _ => Err(SyncError::WrongKind(id, "barrier")),
        }
    }

    /// A core requests a lock at `now`. Returns the grant if the lock was
    /// free; otherwise the core queues (FIFO by arrival, core id breaking
    /// ties) and the grant arrives on a later release.
    pub fn lock_acquire(
        &mut self,
        id: SyncId,
        core: CoreId,
        now: Cycle,
    ) -> Result<Option<Grant>, SyncError> {
        match self.var(id)? {
            SyncVar::Lock {
                owner,
                queue,
                acquisitions,
            } => {
                if owner.is_none() && queue.is_empty() {
                    *owner = Some(core);
                    *acquisitions += 1;
                    Ok(Some(Grant { core, at: now }))
                } else {
                    if *owner == Some(core) || queue.iter().any(|&(c, _)| c == core) {
                        return Err(SyncError::AlreadyWaiting(id, core));
                    }
                    queue.push((core, now));
                    // Keep deterministic (arrival, core) order.
                    queue.sort_by_key(|&(c, t)| (t, c));
                    Ok(None)
                }
            }
            _ => Err(SyncError::WrongKind(id, "lock")),
        }
    }

    /// The owner releases the lock at `now`. Returns the grant for the next
    /// queued waiter, if any.
    pub fn lock_release(
        &mut self,
        id: SyncId,
        core: CoreId,
        now: Cycle,
    ) -> Result<Option<Grant>, SyncError> {
        match self.var(id)? {
            SyncVar::Lock {
                owner,
                queue,
                acquisitions,
            } => {
                if *owner != Some(core) {
                    return Err(SyncError::NotOwner(id, core, *owner));
                }
                if queue.is_empty() {
                    *owner = None;
                    Ok(None)
                } else {
                    let (next, req_t) = queue.remove(0);
                    *owner = Some(next);
                    *acquisitions += 1;
                    Ok(Some(Grant {
                        core: next,
                        at: now.max(req_t),
                    }))
                }
            }
            _ => Err(SyncError::WrongKind(id, "lock")),
        }
    }

    /// Set a condition flag at `now`. Returns grants releasing all waiters.
    pub fn flag_set(&mut self, id: SyncId, now: Cycle) -> Result<Vec<Grant>, SyncError> {
        match self.var(id)? {
            SyncVar::Flag { set, waiters, sets } => {
                *set = true;
                *sets += 1;
                let mut grants: Vec<Grant> = waiters
                    .drain(..)
                    .map(|(c, t)| Grant {
                        core: c,
                        at: now.max(t),
                    })
                    .collect();
                grants.sort_by_key(|g| g.core);
                Ok(grants)
            }
            _ => Err(SyncError::WrongKind(id, "flag")),
        }
    }

    /// Clear a condition flag (for reuse across phases).
    pub fn flag_clear(&mut self, id: SyncId) -> Result<(), SyncError> {
        match self.var(id)? {
            SyncVar::Flag { set, .. } => {
                *set = false;
                Ok(())
            }
            _ => Err(SyncError::WrongKind(id, "flag")),
        }
    }

    /// A core checks a flag at `now`. Grant immediately if set, else the
    /// core parks until `flag_set`.
    pub fn flag_wait(
        &mut self,
        id: SyncId,
        core: CoreId,
        now: Cycle,
    ) -> Result<Option<Grant>, SyncError> {
        match self.var(id)? {
            SyncVar::Flag { set, waiters, .. } => {
                if *set {
                    Ok(Some(Grant { core, at: now }))
                } else {
                    if waiters.iter().any(|&(c, _)| c == core) {
                        return Err(SyncError::AlreadyWaiting(id, core));
                    }
                    waiters.push((core, now));
                    Ok(None)
                }
            }
            _ => Err(SyncError::WrongKind(id, "flag")),
        }
    }

    /// Total completed barrier episodes / lock acquisitions / flag sets
    /// (stat hook for tests and traces).
    pub fn stats(&self, id: SyncId) -> u64 {
        match &self.vars[id.0] {
            SyncVar::Barrier { episodes, .. } => *episodes,
            SyncVar::Lock { acquisitions, .. } => *acquisitions,
            SyncVar::Flag { sets, .. } => *sets,
        }
    }

    /// Are any cores parked anywhere in the table? Used for deadlock
    /// detection in the simulator loop.
    pub fn has_waiters(&self) -> bool {
        self.vars.iter().any(|v| match v {
            SyncVar::Barrier { arrived, .. } => !arrived.is_empty(),
            SyncVar::Lock { queue, .. } => !queue.is_empty(),
            SyncVar::Flag { waiters, .. } => !waiters.is_empty(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barrier_releases_all_at_last_arrival() {
        let mut c = SyncController::new();
        let b = c.alloc_barrier(3);
        assert!(c.barrier_arrive(b, CoreId(0), 10).unwrap().is_empty());
        assert!(c.barrier_arrive(b, CoreId(1), 30).unwrap().is_empty());
        let grants = c.barrier_arrive(b, CoreId(2), 20).unwrap();
        assert_eq!(grants.len(), 3);
        assert!(
            grants.iter().all(|g| g.at == 30),
            "release at latest arrival"
        );
        assert_eq!(c.stats(b), 1);
    }

    #[test]
    fn barrier_is_reusable_across_episodes() {
        let mut c = SyncController::new();
        let b = c.alloc_barrier(2);
        c.barrier_arrive(b, CoreId(0), 1).unwrap();
        assert_eq!(c.barrier_arrive(b, CoreId(1), 2).unwrap().len(), 2);
        c.barrier_arrive(b, CoreId(1), 5).unwrap();
        let g = c.barrier_arrive(b, CoreId(0), 9).unwrap();
        assert_eq!(g.len(), 2);
        assert!(g.iter().all(|g| g.at == 9));
        assert_eq!(c.stats(b), 2);
    }

    #[test]
    fn double_barrier_arrival_is_an_error() {
        let mut c = SyncController::new();
        let b = c.alloc_barrier(2);
        c.barrier_arrive(b, CoreId(0), 1).unwrap();
        assert!(matches!(
            c.barrier_arrive(b, CoreId(0), 2),
            Err(SyncError::AlreadyWaiting(_, _))
        ));
    }

    #[test]
    fn free_lock_grants_immediately() {
        let mut c = SyncController::new();
        let l = c.alloc_lock();
        let g = c.lock_acquire(l, CoreId(3), 100).unwrap().unwrap();
        assert_eq!(
            g,
            Grant {
                core: CoreId(3),
                at: 100
            }
        );
    }

    #[test]
    fn contended_lock_grants_fifo_on_release() {
        let mut c = SyncController::new();
        let l = c.alloc_lock();
        c.lock_acquire(l, CoreId(0), 10).unwrap().unwrap();
        assert!(c.lock_acquire(l, CoreId(1), 20).unwrap().is_none());
        assert!(c.lock_acquire(l, CoreId(2), 15).unwrap().is_none());
        // Core 2 asked earlier; FIFO by arrival time.
        let g = c.lock_release(l, CoreId(0), 50).unwrap().unwrap();
        assert_eq!(g.core, CoreId(2));
        assert_eq!(g.at, 50);
        let g = c.lock_release(l, CoreId(2), 60).unwrap().unwrap();
        assert_eq!(g.core, CoreId(1));
        // Fully released.
        assert!(c.lock_release(l, CoreId(1), 70).unwrap().is_none());
        assert_eq!(c.stats(l), 3);
    }

    #[test]
    fn grant_time_never_precedes_request() {
        let mut c = SyncController::new();
        let l = c.alloc_lock();
        c.lock_acquire(l, CoreId(0), 10).unwrap();
        c.lock_acquire(l, CoreId(1), 100).unwrap();
        // Release before the waiter's own request time: grant at the
        // waiter's request time.
        let g = c.lock_release(l, CoreId(0), 40).unwrap().unwrap();
        assert_eq!(g.at, 100);
    }

    #[test]
    fn release_by_non_owner_is_an_error() {
        let mut c = SyncController::new();
        let l = c.alloc_lock();
        c.lock_acquire(l, CoreId(0), 1).unwrap();
        assert!(matches!(
            c.lock_release(l, CoreId(1), 2),
            Err(SyncError::NotOwner(_, _, Some(CoreId(0))))
        ));
    }

    #[test]
    fn equal_arrival_ties_break_by_core_id() {
        let mut c = SyncController::new();
        let l = c.alloc_lock();
        c.lock_acquire(l, CoreId(9), 0).unwrap();
        c.lock_acquire(l, CoreId(5), 7).unwrap();
        c.lock_acquire(l, CoreId(3), 7).unwrap();
        let g = c.lock_release(l, CoreId(9), 8).unwrap().unwrap();
        assert_eq!(g.core, CoreId(3));
    }

    #[test]
    fn flag_wait_parks_until_set() {
        let mut c = SyncController::new();
        let f = c.alloc_flag();
        assert!(c.flag_wait(f, CoreId(1), 10).unwrap().is_none());
        assert!(c.flag_wait(f, CoreId(2), 12).unwrap().is_none());
        let grants = c.flag_set(f, 30).unwrap();
        assert_eq!(grants.len(), 2);
        assert!(grants.iter().all(|g| g.at == 30));
        // Once set, waits sail through.
        let g = c.flag_wait(f, CoreId(3), 40).unwrap().unwrap();
        assert_eq!(g.at, 40);
        assert_eq!(c.stats(f), 1);
    }

    #[test]
    fn flag_clear_re_arms_the_flag() {
        let mut c = SyncController::new();
        let f = c.alloc_flag();
        c.flag_set(f, 1).unwrap();
        c.flag_clear(f).unwrap();
        assert!(c.flag_wait(f, CoreId(0), 2).unwrap().is_none());
    }

    #[test]
    fn kind_mismatch_is_an_error() {
        let mut c = SyncController::new();
        let b = c.alloc_barrier(2);
        let l = c.alloc_lock();
        assert!(matches!(
            c.lock_acquire(b, CoreId(0), 0),
            Err(SyncError::WrongKind(_, "lock"))
        ));
        assert!(matches!(
            c.flag_set(l, 0),
            Err(SyncError::WrongKind(_, "flag"))
        ));
        assert!(matches!(
            c.barrier_arrive(l, CoreId(0), 0),
            Err(SyncError::WrongKind(_, "barrier"))
        ));
    }

    #[test]
    fn unknown_id_is_an_error() {
        let mut c = SyncController::new();
        assert!(matches!(
            c.flag_set(SyncId(7), 0),
            Err(SyncError::Unknown(_))
        ));
    }

    #[test]
    fn has_waiters_tracks_parked_cores() {
        let mut c = SyncController::new();
        let b = c.alloc_barrier(2);
        assert!(!c.has_waiters());
        c.barrier_arrive(b, CoreId(0), 0).unwrap();
        assert!(c.has_waiters());
        c.barrier_arrive(b, CoreId(1), 0).unwrap();
        assert!(!c.has_waiters());
    }
}
