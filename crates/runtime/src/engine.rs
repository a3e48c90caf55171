//! The execution engine: conservative execution-driven scheduling of
//! simulated threads over one [`Machine`].
//!
//! Each simulated thread runs on an OS thread. The engine's scheduler
//! state (per-core op queues, local clocks, the machine) lives behind one
//! mutex, and the app threads drive it *cooperatively*: whenever a thread
//! queues ops it executes everything that is safe to execute — its own
//! ops and other cores' — instead of handing off to a dedicated engine
//! thread. Machine transitions happen in global simulated-time order:
//! the queued op with the smallest `(local time, core id)` runs first.
//!
//! # Conservative lookahead
//!
//! A core's local clock never moves backward, so a core that has not yet
//! queued its next op cannot act before its current clock. The engine
//! therefore executes the earliest queued op as soon as it precedes
//! `(time, id)` of **every op-less core** — it does not wait for those
//! cores to actually submit. This is the standard conservative
//! parallel-discrete-event rule, and it produces exactly the same
//! machine-transition sequence as the reference "wait for all cores,
//! then pick the minimum" loop: delayed submissions always order after
//! the op executed early.
//!
//! The next core is picked from binary heaps keyed by `(local time, core
//! id)` — O(log ncores) per op. The run heap has one entry per core with
//! queued ops, and such a core's clock only advances when it executes
//! (which pops the entry), so entries are never stale; the op-less heap
//! is cleaned and re-keyed lazily. Wakeups produced by synchronization
//! grants are delivered immediately after the op that granted them, and
//! each one wakes only the thread it targets (per-core condvars).
//!
//! Threads coalesce runs of fire-and-forget ops (stores, computes,
//! posted WB/INV — see `Op::is_batchable`) into batches of up to
//! `BATCH_CAP` (64) ops and queue them without waiting for replies; only a
//! value-returning or blocking op waits.
//!
//! # Local retirement
//!
//! In the paper's hierarchy an L1 hit, a compute burst, or an MEB/IEB
//! epoch marker touches only the issuing core's private L1/MEB/IEB; its
//! latency depends only on configuration and it moves no flit. Executing
//! such an op out of global key order is unobservable. When the machine
//! allows it (`Machine::supports_sharding`: an incoherent backend with no
//! sanitizer, no fault plan, and no trace ring) each core's
//! [`CoreSlice`] is checked out of the machine into a per-core slot owned
//! by the core's thread, and those ops retire in the thread without the
//! engine lock:
//!
//! * While a core has nothing queued, its thread holds the slice, retires
//!   local ops against it, and publishes its advancing clock in an
//!   atomic. The op-less heap re-keys such a core lazily from that clock.
//! * The first op that needs the shared hierarchy (a miss, WB/INV,
//!   synchronization, `Finish`) hands the slice back to the machine and
//!   queues that op and the rest of its batch, exactly as above.
//! * The slice returns to the thread once the core's queue is empty: at
//!   its next submission, at the latest when it takes an awaited reply.
//!
//! A queued op blocked only by a local core's clock arms that core's
//! `drive_at` threshold; the core's thread drives the engine once its
//! clock passes it. The driving thread stores the threshold before
//! re-reading the clock and the local thread publishes its clock before
//! reading the threshold (both `SeqCst`), so one of them always sees the
//! other and no wakeup is lost. The queued ops still execute in exactly the key
//! order above, and local ops charge only the `Rest` stall category
//! (merged into the machine's ledgers at teardown), so simulated results
//! are bit-identical to the oracle.
//!
//! # The oracle
//!
//! [`Scheduler::Linear`] is the reference every property test and the
//! golden pins compare against: an O(ncores) scan picks the next core,
//! every op goes through the queue, and every op is its own message.
//!
//! # Failure handling
//!
//! A run that cannot complete — deadlock, watchdog expiry (simulated-
//! cycle budget or host wall-clock), a fatal sanitizer finding under
//! `CheckMode::Strict`, or an unrecoverable injected fault — does not
//! abort the process. The engine latches the *first* [`RunError`], wakes
//! every blocked thread, and unwinds each app thread with a quiet
//! sentinel payload that the thread wrapper catches; the scope joins
//! normally and the error is returned alongside the stats, so a failed
//! run leaves the process fully reusable. If every unfinished core is
//! parked on synchronization the program has deadlocked, and the error
//! names each parked core's stall category (plus the recent operation
//! history when tracing is enabled).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, TryLockError};
use std::time::Instant;

use hic_machine::{CoreSlice, Exec, Machine, Op, RunError, RunStats};
use hic_mem::Word;
use hic_sim::{CoreId, Cycle, EngineStats, StallCategory, StallLedger};

use crate::ctx::{RtShared, ThreadCtx};

/// Unwind payload used to exit app threads once the run is dead. The
/// thread wrapper in [`run_threads`] catches it (and only it) so the
/// typed [`RunError`] — not a panic — is what reaches the caller.
pub(crate) struct EngineDead;

/// Suppress the default "thread panicked" stderr line for [`EngineDead`]
/// unwinds; every other payload still reaches the previous hook.
fn install_quiet_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<EngineDead>().is_none() {
                prev(info);
            }
        }));
    });
}

/// Most fire-and-forget ops a thread coalesces into one message.
pub(crate) const BATCH_CAP: usize = 64;

/// How many executed ops between host wall-clock watchdog checks.
const WALL_CHECK_PERIOD: u32 = 1024;

/// Which engine runs a program. Both produce bit-identical simulated
/// results; they differ only in host-side cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduler {
    /// The production engine: heap picker, batched messages, and local
    /// retirement of core-private ops whenever the machine allows it.
    #[default]
    Default,
    /// The reference oracle: a linear scan picks the next core, every op
    /// goes through the queue, one op per message.
    Linear,
}

impl Scheduler {
    /// Parse an engine name (`HIC_ENGINE`, the `engine=` key field):
    /// `default` or `linear`.
    pub fn parse(s: &str) -> Option<Scheduler> {
        let s = s.trim().to_ascii_lowercase();
        [Scheduler::Default, Scheduler::Linear]
            .into_iter()
            .find(|e| e.name() == s)
    }

    /// The canonical lower-case name [`Scheduler::parse`] accepts.
    pub fn name(self) -> &'static str {
        match self {
            Scheduler::Default => "default",
            Scheduler::Linear => "linear",
        }
    }

    /// Ops per batch message (0 = every op is sent on its own).
    pub(crate) fn batch_cap(self) -> usize {
        match self {
            Scheduler::Default => BATCH_CAP,
            Scheduler::Linear => 0,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CoreState {
    /// Queue empty: the thread has not yet queued its next op (it may be
    /// retiring local ops). Its clock bounds how early its future ops
    /// can be.
    NeedsOp,
    /// Has at least one queued op, not yet executed.
    HasOp,
    /// Blocked inside the machine on a synchronization grant.
    Parked,
    /// Thread finished.
    Done,
}

/// The scheduler state for one run: per-core op queues, local clocks,
/// and the [`EngineStats`] ledger, behind [`Engine`]'s mutex.
struct EngineCore {
    machine: Machine,
    /// Pick by linear scan (the oracle) instead of the heaps.
    linear: bool,
    state: Vec<CoreState>,
    /// Per-core local simulated time. For a core retiring ops locally
    /// this lags its published clock until the op-less heap re-keys it.
    time: Vec<Cycle>,
    /// Per-core op queue: `(op, needs_reply)`.
    queue: Vec<VecDeque<(Op, bool)>>,
    /// One entry per `HasOp` core, keyed by its current local time.
    /// Never stale.
    run_heap: BinaryHeap<Reverse<(Cycle, usize)>>,
    /// Entries for `NeedsOp` cores. Cleaned lazily: an entry is valid
    /// while its core is still `NeedsOp` at that exact time.
    idle_heap: BinaryHeap<Reverse<(Cycle, usize)>>,
    /// Unfinished cores whose queue is empty.
    needs_op: usize,
    /// Cores with queued ops.
    has_op: usize,
    /// Per-core reply slot, filled when the core's awaited op completes.
    reply: Vec<Option<Option<Word>>>,
    /// Per-core flag: the thread is blocked on its condvar.
    waiting: Vec<bool>,
    /// Cores whose reply was filled while their thread was blocked;
    /// drained into targeted notifications when the driver pauses.
    wake_list: Vec<usize>,
    /// The spawning thread is blocked waiting for completion.
    main_waiting: bool,
    done: usize,
    parked_now: u64,
    /// First fatal condition of the run (deadlock, hang, fatal finding,
    /// app-thread death); every blocked thread exits once it is set.
    dead: Option<RunError>,
    /// The core whose `drive_at` threshold is armed, and its value.
    armed: Option<(usize, Cycle)>,
    /// Watchdog: fail the run if any core's clock passes this budget.
    watchdog_cycles: Option<Cycle>,
    /// Watchdog: fail the run past this host-time deadline (checked
    /// every [`WALL_CHECK_PERIOD`] ops to keep the hot path cheap).
    deadline: Option<Instant>,
    ops_since_wall_check: u32,
    stats: EngineStats,
}

/// One core's state on the local path, owned by the core's thread.
#[derive(Default)]
struct Slot {
    /// The core's L1/MEB/IEB while its thread retires ops locally;
    /// `None` while the slice is attached to the machine.
    slice: Option<CoreSlice>,
    /// The core's clock while the thread holds the slice.
    time: Cycle,
    /// Stall cycles charged by local ops (always `Rest`); merged into
    /// the machine's per-core ledger at teardown.
    ledger: StallLedger,
    local_ops: u64,
    round_trips: u64,
    messages: u64,
    batches: u64,
    ops_since_wall_check: u32,
}

/// The lock-free side of local retirement (see the module docs).
struct Local {
    slots: Vec<Mutex<Slot>>,
    /// Per-core clock published by a thread retiring locally. Never
    /// ahead of the true clock, and never behind `EngineCore::time`
    /// while the thread holds its slice.
    published: Vec<AtomicU64>,
    /// Per-core threshold: a local thread whose clock reaches it drives
    /// the engine. `u64::MAX` unless the core blocks the earliest
    /// queued op.
    drive_at: Vec<AtomicU64>,
    /// L1 round-trip latency, the only timing local ops need.
    l1_rt: u64,
    watchdog_cycles: Option<Cycle>,
    deadline: Option<Instant>,
}

impl EngineCore {
    fn new(machine: Machine, shared: &RtShared, deadline: Option<Instant>) -> EngineCore {
        let nthreads = shared.nthreads;
        let linear = shared.scheduler == Scheduler::Linear;
        let mut idle_heap = BinaryHeap::with_capacity(nthreads + 4);
        if !linear {
            // Every core starts op-less at time 0.
            for c in 0..nthreads {
                idle_heap.push(Reverse((0, c)));
            }
        }
        EngineCore {
            machine,
            linear,
            state: vec![CoreState::NeedsOp; nthreads],
            time: vec![0; nthreads],
            queue: (0..nthreads).map(|_| VecDeque::new()).collect(),
            run_heap: BinaryHeap::with_capacity(nthreads),
            idle_heap,
            needs_op: nthreads,
            has_op: 0,
            reply: vec![None; nthreads],
            waiting: vec![false; nthreads],
            wake_list: Vec::with_capacity(nthreads),
            main_waiting: false,
            done: 0,
            parked_now: 0,
            dead: None,
            armed: None,
            watchdog_cycles: shared.watchdog_cycles,
            deadline,
            ops_since_wall_check: 0,
            stats: EngineStats::new(),
        }
    }

    /// Queue `ops` for core `c`; `awaited` marks them reply-carrying.
    fn enqueue(&mut self, c: usize, ops: impl Iterator<Item = Op>, awaited: bool) {
        debug_assert!(
            matches!(self.state[c], CoreState::NeedsOp | CoreState::HasOp),
            "parked or finished core submitted an op"
        );
        self.queue[c].extend(ops.map(|op| (op, awaited)));
        if self.state[c] == CoreState::NeedsOp && !self.queue[c].is_empty() {
            self.state[c] = CoreState::HasOp;
            self.needs_op -= 1;
            self.has_op += 1;
            if !self.linear {
                // The core's idle_heap entry goes stale and is dropped
                // lazily by `executable`.
                self.run_heap.push(Reverse((self.time[c], c)));
            }
        }
    }

    /// Mark core `c` op-less at its current clock.
    fn set_needs_op(&mut self, c: usize) {
        self.state[c] = CoreState::NeedsOp;
        self.needs_op += 1;
        if !self.linear {
            self.idle_heap.push(Reverse((self.time[c], c)));
        }
    }

    /// May the earliest queued op execute now? True iff some op is
    /// queued and it precedes the clock of every op-less core. With the
    /// local path on, a blocking core's published clock is re-read after
    /// arming its `drive_at` threshold.
    fn executable(&mut self, local: Option<&Local>) -> bool {
        if self.linear {
            let mut run: Option<(Cycle, usize)> = None;
            let mut idle: Option<(Cycle, usize)> = None;
            for c in 0..self.state.len() {
                let key = (self.time[c], c);
                match self.state[c] {
                    CoreState::HasOp if run.is_none_or(|m| key < m) => run = Some(key),
                    CoreState::NeedsOp if idle.is_none_or(|m| key < m) => idle = Some(key),
                    _ => {}
                }
            }
            return match (run, idle) {
                (None, _) => false,
                (Some(_), None) => true,
                (Some(r), Some(i)) => r < i,
            };
        }
        let Some(&Reverse(run)) = self.run_heap.peek() else {
            if let (Some(l), Some((a, _))) = (local, self.armed.take()) {
                l.drive_at[a].store(u64::MAX, SeqCst);
            }
            return false;
        };
        while let Some(&Reverse((t, c))) = self.idle_heap.peek() {
            if self.state[c] != CoreState::NeedsOp || self.time[c] != t {
                self.idle_heap.pop();
                continue;
            }
            if run < (t, c) {
                return true;
            }
            let Some(l) = local else {
                return false;
            };
            // Core c blocks the earliest queued op. Arm its threshold
            // first, then re-read its clock: either this load sees the
            // thread's advance, or the thread sees the threshold.
            if self.armed != Some((c, run.0)) {
                if let Some((a, _)) = self.armed.replace((c, run.0)) {
                    if a != c {
                        l.drive_at[a].store(u64::MAX, SeqCst);
                    }
                }
                l.drive_at[c].store(run.0, SeqCst);
            }
            let now = l.published[c].load(SeqCst);
            if now <= t {
                return false;
            }
            self.idle_heap.pop();
            self.time[c] = now;
            self.idle_heap.push(Reverse((now, c)));
        }
        true
    }

    /// The `HasOp` core with the smallest `(time, core)`.
    fn pick(&mut self) -> usize {
        if self.linear {
            return (0..self.state.len())
                .filter(|&c| self.state[c] == CoreState::HasOp)
                .min_by_key(|&c| (self.time[c], c))
                .expect("executable implies a HasOp core");
        }
        let Reverse((t, c)) = self.run_heap.pop().expect("executable implies a run entry");
        debug_assert_eq!(self.state[c], CoreState::HasOp, "stale run_heap entry");
        debug_assert_eq!(self.time[c], t, "run_heap entry out of date");
        c
    }

    /// Execute the globally earliest queued op and deliver any resulting
    /// wakeups into reply slots (queueing targeted notifications for
    /// blocked threads on `wake_list`).
    fn execute_one(&mut self) {
        let c = self.pick();
        let (op, needs_reply) = self.queue[c].pop_front().expect("HasOp implies queued op");
        match self.machine.execute(CoreId(c), &op, self.time[c]) {
            Exec::Done { value, end } => {
                self.stats.ops_executed += 1;
                self.time[c] = end;
                if matches!(op, Op::Finish) {
                    debug_assert!(self.queue[c].is_empty(), "ops queued after Finish");
                    self.state[c] = CoreState::Done;
                    self.has_op -= 1;
                    self.done += 1;
                } else {
                    if needs_reply {
                        self.stats.round_trips += 1;
                        debug_assert!(self.reply[c].is_none(), "unclaimed reply");
                        self.reply[c] = Some(value);
                        if self.waiting[c] {
                            self.wake_list.push(c);
                        }
                    }
                    if self.queue[c].is_empty() {
                        self.has_op -= 1;
                        self.set_needs_op(c);
                    } else if !self.linear {
                        self.run_heap.push(Reverse((end, c)));
                    }
                }
            }
            Exec::Parked => {
                // Blocking ops are never batched and always flush the
                // batch first, so a parking core has nothing queued.
                debug_assert!(
                    self.queue[c].is_empty(),
                    "batch queued behind a blocking op"
                );
                debug_assert!(needs_reply, "blocking ops are sent individually");
                self.stats.ops_executed += 1;
                self.state[c] = CoreState::Parked;
                self.has_op -= 1;
                self.parked_now += 1;
                self.stats.peak_parked = self.stats.peak_parked.max(self.parked_now);
            }
        }
        for wk in self.machine.take_wakeups() {
            let i = wk.core.0;
            debug_assert_eq!(self.state[i], CoreState::Parked);
            self.stats.wakeups += 1;
            self.parked_now -= 1;
            self.time[i] = wk.at;
            self.reply[i] = Some(None);
            if self.waiting[i] {
                self.wake_list.push(i);
            }
            self.set_needs_op(i);
        }
        // Under CheckMode::Strict the sanitizer latches the first finding
        // (and fault injection latches unrecoverable corruption); surface
        // it as the run's error so the program stops at the faulty access
        // instead of completing with bad data.
        if let Some(err) = self.machine.take_fatal() {
            self.latch(err);
        }
        if let Some(err) = over_budget(self.watchdog_cycles, c, self.time[c]) {
            self.latch(err);
        }
        if let Some(err) = wall_expired(self.deadline, &mut self.ops_since_wall_check) {
            self.latch(err);
        }
    }

    /// Record `err` as the run's error unless one is already latched.
    fn latch(&mut self, err: RunError) {
        if self.dead.is_none() {
            self.dead = Some(err);
        }
    }

    /// All unfinished cores are parked on synchronization: nothing can
    /// ever execute again.
    fn deadlocked(&self) -> bool {
        self.needs_op == 0 && self.has_op == 0 && self.done < self.state.len()
    }

    fn deadlock_error(&self) -> RunError {
        let parked: Vec<(usize, String)> = (0..self.state.len())
            .filter(|&c| self.state[c] == CoreState::Parked)
            .map(|c| {
                let cat = self
                    .machine
                    .parked_category(CoreId(c))
                    .map(|cat| cat.label())
                    .unwrap_or("?");
                (c, cat.to_string())
            })
            .collect();
        let trace_tail = if self.machine.trace().enabled() {
            self.machine.trace().render()
        } else {
            String::new()
        };
        RunError::Deadlock { parked, trace_tail }
    }
}

/// The simulated-cycle watchdog: core `c` reached `now`.
fn over_budget(limit: Option<Cycle>, c: usize, now: Cycle) -> Option<RunError> {
    let limit = limit?;
    (now > limit).then(|| RunError::Hang {
        detail: format!(
            "simulated-cycle budget exceeded: core{c} reached cycle {now} (budget {limit})"
        ),
    })
}

/// The host wall-clock watchdog, consulted every [`WALL_CHECK_PERIOD`]
/// calls.
fn wall_expired(deadline: Option<Instant>, ops: &mut u32) -> Option<RunError> {
    let deadline = deadline?;
    *ops += 1;
    if *ops < WALL_CHECK_PERIOD {
        return None;
    }
    *ops = 0;
    (Instant::now() >= deadline).then(|| RunError::Hang {
        detail: "host wall-clock watchdog expired before the run completed".to_string(),
    })
}

/// The engine shared by all thread contexts of one run.
pub(crate) struct Engine {
    core: Mutex<EngineCore>,
    /// One condvar per core: its thread blocks here awaiting a reply.
    cvs: Vec<Condvar>,
    /// The spawning thread blocks here awaiting completion.
    cv_main: Condvar,
    /// Lock-free mirror of `EngineCore::dead.is_some()`.
    dead: AtomicBool,
    /// Local retirement, when the scheduler and the machine allow it.
    local: Option<Local>,
}

impl Engine {
    fn new(mut machine: Machine, shared: &RtShared) -> Engine {
        let n = shared.nthreads;
        let deadline = shared
            .watchdog_wall_ms
            .map(|ms| Instant::now() + std::time::Duration::from_millis(ms));
        let local_path = shared.scheduler == Scheduler::Default && machine.supports_sharding();
        let local = local_path.then(|| Local {
            // Every core starts op-less, so every thread starts local.
            slots: (0..n)
                .map(|c| {
                    let slice = machine.detach_core(CoreId(c));
                    Mutex::new(Slot {
                        slice,
                        ..Slot::default()
                    })
                })
                .collect(),
            published: (0..n).map(|_| AtomicU64::new(0)).collect(),
            drive_at: (0..n).map(|_| AtomicU64::new(u64::MAX)).collect(),
            l1_rt: machine.config().l1_rt,
            watchdog_cycles: shared.watchdog_cycles,
            deadline,
        });
        Engine {
            core: Mutex::new(EngineCore::new(machine, shared, deadline)),
            cvs: (0..n).map(|_| Condvar::new()).collect(),
            cv_main: Condvar::new(),
            dead: AtomicBool::new(false),
            local,
        }
    }

    /// Lock the scheduler state, counting contention, and recovering
    /// from poisoning: teardown after an app-thread panic still needs to
    /// set the dead flag and wake sleepers so the thread scope can join.
    fn lock(&self) -> MutexGuard<'_, EngineCore> {
        match self.core.try_lock() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(e)) => e.into_inner(),
            Err(TryLockError::WouldBlock) => {
                let mut g = self.core.lock().unwrap_or_else(|e| e.into_inner());
                g.stats.lock_waits += 1;
                g
            }
        }
    }

    /// Execute queued ops in `(time, core)` order until none may run yet.
    fn drive(&self, g: &mut EngineCore) {
        while g.dead.is_none() && g.executable(self.local.as_ref()) {
            g.execute_one();
        }
        if g.dead.is_some() {
            self.dead.store(true, SeqCst);
        }
    }

    /// Deliver the targeted notifications queued by `execute_one`.
    fn flush_wakes(&self, g: &mut EngineCore) {
        while let Some(i) = g.wake_list.pop() {
            self.cvs[i].notify_all();
        }
        if g.main_waiting && (g.done == g.state.len() || g.dead.is_some()) {
            self.cv_main.notify_all();
        }
    }

    fn wake_everyone(&self, g: &mut EngineCore) {
        g.wake_list.clear();
        for cv in &self.cvs {
            cv.notify_all();
        }
        self.cv_main.notify_all();
    }

    /// Declare the run dead: latch the first error, wake every blocked
    /// thread, release the lock, and unwind the calling app thread with
    /// the quiet [`EngineDead`] sentinel (caught by its wrapper in
    /// [`run_threads`], so this is teardown, not a process abort).
    fn die(&self, mut g: MutexGuard<'_, EngineCore>, err: RunError) -> ! {
        g.latch(err);
        self.dead.store(true, SeqCst);
        self.wake_everyone(&mut g);
        drop(g);
        std::panic::panic_any(EngineDead);
    }

    /// Die with the error already latched (seen via the `dead` mirror).
    fn die_latched(&self) -> ! {
        let g = self.lock();
        let err = g.dead.clone().unwrap_or(RunError::ThreadDied {
            detail: "engine torn down before the run completed".to_string(),
        });
        self.die(g, err);
    }

    /// Queue a batch of fire-and-forget ops for core `c`, draining `ops`.
    pub(crate) fn post(&self, c: usize, ops: &mut Vec<Op>) {
        debug_assert!(!ops.is_empty(), "empty batch message");
        debug_assert!(
            ops.iter().all(Op::is_batchable),
            "non-batchable op in batch: {ops:?}"
        );
        self.submit(c, ops.drain(..), true, false);
    }

    /// Submit a reply-carrying op for core `c` and return its value once
    /// it has executed.
    pub(crate) fn call(&self, c: usize, op: Op) -> Option<Word> {
        self.submit(c, std::iter::once(op), false, true)
    }

    /// Queue core `c`'s `Finish`; the thread does not wait for it.
    pub(crate) fn finish(&self, c: usize) {
        self.submit(c, std::iter::once(Op::Finish), false, false);
    }

    /// One message from core `c`'s thread: retire what it can locally,
    /// queue the rest. `awaited` messages hold exactly one op.
    fn submit(
        &self,
        c: usize,
        mut ops: impl Iterator<Item = Op>,
        batch: bool,
        awaited: bool,
    ) -> Option<Word> {
        if self.dead.load(SeqCst) {
            self.die_latched();
        }
        let Some(local) = &self.local else {
            let mut g = self.lock();
            g.stats.messages += 1;
            g.stats.batches += u64::from(batch);
            return self.queue(g, c, ops, awaited, None);
        };
        let mut slot = local.slots[c].lock().unwrap_or_else(|e| e.into_inner());
        slot.messages += 1;
        slot.batches += u64::from(batch);
        if slot.slice.is_none() {
            let mut g = self.lock();
            if g.state[c] == CoreState::HasOp {
                return self.queue(g, c, ops, awaited, Some(&mut slot));
            }
            // The core's queue drained since its last message.
            reclaim(&mut g, c, &mut slot);
        }
        while let Some(op) = ops.next() {
            let slice = slot.slice.as_mut().expect("a local core holds its slice");
            let Some((value, lat)) = slice.try_execute(&op, local.l1_rt) else {
                // The op needs the shared hierarchy: hand the slice back
                // to the machine and queue it with the rest of the batch.
                let slice = slot.slice.take().expect("a local core holds its slice");
                let mut g = self.lock();
                g.machine.attach_core(CoreId(c), slice);
                g.time[c] = slot.time;
                return self.queue(
                    g,
                    c,
                    std::iter::once(op).chain(ops),
                    awaited,
                    Some(&mut slot),
                );
            };
            self.retire_local(local, c, &mut slot, lat);
            if awaited {
                slot.round_trips += 1;
                return value;
            }
        }
        None
    }

    /// Account one locally retired op of `lat` cycles, publish the new
    /// clock, and drive the engine if a queued op was waiting for it.
    fn retire_local(&self, local: &Local, c: usize, slot: &mut Slot, lat: Cycle) {
        slot.ledger.charge(StallCategory::Rest, lat);
        slot.time += lat;
        slot.local_ops += 1;
        let fatal = over_budget(local.watchdog_cycles, c, slot.time)
            .or_else(|| wall_expired(local.deadline, &mut slot.ops_since_wall_check));
        if let Some(err) = fatal {
            self.die(self.lock(), err);
        }
        if lat == 0 {
            return;
        }
        local.published[c].store(slot.time, SeqCst);
        if slot.time >= local.drive_at[c].load(SeqCst) {
            let mut g = self.lock();
            self.drive(&mut g);
            if let Some(err) = g.dead.clone() {
                self.die(g, err);
            }
            self.flush_wakes(&mut g);
        }
    }

    /// Queue `ops` for core `c` behind whatever it already has queued and
    /// drive the engine. An awaited op blocks until its reply; on the
    /// local path the thread then takes its slice back.
    fn queue(
        &self,
        mut g: MutexGuard<'_, EngineCore>,
        c: usize,
        ops: impl Iterator<Item = Op>,
        awaited: bool,
        mut slot: Option<&mut Slot>,
    ) -> Option<Word> {
        if let Some(err) = g.dead.clone() {
            self.die(g, err);
        }
        g.enqueue(c, ops, awaited);
        loop {
            self.drive(&mut g);
            // Check death *before* consuming a reply: when Strict
            // checking kills the run at this core's own faulty access,
            // the access has a reply, but the thread must die with it.
            if let Some(err) = g.dead.clone() {
                self.die(g, err);
            }
            let reply = if awaited { g.reply[c].take() } else { None };
            if let Some(r) = reply {
                if let Some(slot) = slot.as_deref_mut() {
                    reclaim(&mut g, c, slot);
                }
                self.flush_wakes(&mut g);
                return r;
            }
            self.flush_wakes(&mut g);
            if g.deadlocked() {
                let err = g.deadlock_error();
                self.die(g, err);
            }
            if !awaited {
                return None;
            }
            g.waiting[c] = true;
            g = self.cvs[c].wait(g).unwrap_or_else(|e| e.into_inner());
            g.waiting[c] = false;
        }
    }

    /// Block the spawning thread until every core has finished (returns
    /// `None`) or the run dies (returns the latched error, after waking
    /// every blocked app thread so the scope can join). The app threads
    /// do all the driving — the final `Finish` submission drains the
    /// remaining queues before its thread exits.
    fn await_completion(&self) -> Option<RunError> {
        let mut g = self.lock();
        loop {
            if let Some(err) = g.dead.clone() {
                self.wake_everyone(&mut g);
                return Some(err);
            }
            if g.done == g.state.len() {
                return None;
            }
            g.main_waiting = true;
            g = self.cv_main.wait(g).unwrap_or_else(|e| e.into_inner());
            g.main_waiting = false;
        }
    }

    /// Record that an app thread died without finishing, and wake every
    /// blocked thread so the run tears down instead of hanging.
    pub(crate) fn mark_dead(&self, err: RunError) {
        let mut g = self.lock();
        g.latch(err);
        self.dead.store(true, SeqCst);
        self.wake_everyone(&mut g);
    }

    /// Reattach every slice still held by a thread, merge the local
    /// ledgers and counters, and finish the machine.
    fn teardown(self, error: Option<RunError>) -> (Machine, RunStats, Option<RunError>) {
        let mut core = self.core.into_inner().unwrap_or_else(|e| e.into_inner());
        for (c, slot) in self.local.into_iter().flat_map(|l| l.slots).enumerate() {
            let slot = slot.into_inner().unwrap_or_else(|e| e.into_inner());
            if let Some(slice) = slot.slice {
                core.machine.attach_core(CoreId(c), slice);
            }
            core.machine.merge_ledger(CoreId(c), &slot.ledger);
            let s = &mut core.stats;
            s.ops_executed += slot.local_ops;
            s.shard_local_ops += slot.local_ops;
            s.round_trips += slot.round_trips;
            s.messages += slot.messages;
            s.batches += slot.batches;
        }
        let mut stats = if error.is_some() {
            core.machine.finish_after_failure()
        } else {
            core.machine.finish()
        };
        stats.engine = core.stats;
        (core.machine, stats, error)
    }
}

/// Hand core `c`'s slice back to its thread: the core has nothing
/// queued, so the machine no longer needs it.
fn reclaim(g: &mut EngineCore, c: usize, slot: &mut Slot) {
    debug_assert_eq!(g.state[c], CoreState::NeedsOp, "reclaim with ops queued");
    slot.slice = g.machine.detach_core(CoreId(c));
    slot.time = g.time[c];
}

/// Run `body` on `nthreads` simulated threads over `machine`.
/// Returns the machine (for result inspection), the run statistics, and
/// the [`RunError`] that killed the run, if any. Every app thread is
/// woken and joined before this returns — even on failure the process is
/// left reusable for further runs.
pub(crate) fn run_threads<F>(
    machine: Machine,
    shared: Arc<RtShared>,
    nthreads: usize,
    body: F,
) -> (Machine, RunStats, Option<RunError>)
where
    F: Fn(&ThreadCtx) + Send + Sync,
{
    assert!(nthreads >= 1);
    assert!(
        nthreads <= machine.config().num_cores(),
        "more threads ({nthreads}) than cores ({})",
        machine.config().num_cores()
    );

    install_quiet_hook();
    let engine = Arc::new(Engine::new(machine, &shared));
    let body = &body;
    let error = std::thread::scope(|scope| {
        for tid in 0..nthreads {
            let shared = Arc::clone(&shared);
            let engine = Arc::clone(&engine);
            scope.spawn(move || {
                let exit = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    let ctx = ThreadCtx::new(tid, engine, shared);
                    body(&ctx);
                    ctx.finish();
                }));
                if let Err(payload) = exit {
                    // EngineDead is the engine's own quiet teardown
                    // signal — swallow it so the scope joins cleanly.
                    // Anything else is a genuine app-thread panic: the
                    // ThreadCtx destructor already latched ThreadDied
                    // during the unwind (releasing the other threads),
                    // so re-raise it for the caller to see.
                    if !payload.is::<EngineDead>() {
                        std::panic::resume_unwind(payload);
                    }
                }
            });
        }
        // The spawning thread waits for completion; on death it returns
        // the latched error after waking every blocked app thread, so
        // the scope joins instead of hanging.
        engine.await_completion()
    });

    Arc::try_unwrap(engine)
        .ok()
        .expect("all thread contexts are dropped after the scope joins")
        .teardown(error)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Config, IntraConfig};
    use hic_mem::{Region, WordAddr};
    use hic_sim::MachineConfig;

    fn shared(
        nthreads: usize,
        cfg: Config,
        scheduler: Scheduler,
        watchdog_cycles: Option<Cycle>,
    ) -> Arc<RtShared> {
        Arc::new(RtShared {
            config: cfg,
            locks: Vec::new(),
            nthreads,
            scheduler,
            checking: false,
            overrides: None,
            watchdog_cycles,
            watchdog_wall_ms: None,
        })
    }

    fn harness(nthreads: usize, cfg: Config) -> (Machine, Arc<RtShared>) {
        let machine = if cfg.is_coherent() {
            Machine::coherent(MachineConfig::intra_block())
        } else {
            Machine::incoherent(MachineConfig::intra_block())
        };
        (machine, shared(nthreads, cfg, Scheduler::default(), None))
    }

    /// Four threads write, compute, and meet at a barrier.
    fn barrier_program(scheduler: Scheduler) -> RunStats {
        let mut machine = Machine::incoherent(MachineConfig::intra_block());
        let b = machine.alloc_barrier(4);
        let shared = shared(4, Config::Intra(IntraConfig::Base), scheduler, None);
        let (_, stats, err) = run_threads(machine, shared, 4, move |ctx| {
            let r = Region::new(WordAddr(16 * (1 + ctx.tid() as u64)), 4);
            for i in 0..4 {
                ctx.write(r, i, (ctx.tid() as u32 + 1) * 10 + i as u32);
            }
            ctx.compute(ctx.tid() as u64 * 13);
            ctx.barrier(crate::ctx::BarrierId(b));
        });
        assert!(err.is_none(), "{err:?}");
        stats
    }

    #[test]
    fn single_thread_store_load() {
        let (machine, shared) = harness(1, Config::Intra(IntraConfig::Base));
        let (machine, stats, err) = run_threads(machine, shared, 1, |ctx| {
            let r = Region::new(WordAddr(16), 4);
            ctx.write(r, 0, 7);
            assert_eq!(ctx.read(r, 0), 7);
            ctx.compute(100);
            // Post the value so a fresh reader (peek) sees it.
            ctx.coh(hic_core::CohInstr::wb_all());
        });
        assert!(err.is_none());
        assert!(stats.total_cycles >= 100);
        assert!(stats.engine.shard_local_ops > 0, "L1 hit retired locally");
        assert_eq!(machine.peek_word(WordAddr(16)), 7);
    }

    #[test]
    fn engines_are_deterministic_and_observationally_identical() {
        let a = barrier_program(Scheduler::Default);
        let b = barrier_program(Scheduler::Default);
        assert_eq!(
            a.total_cycles, b.total_cycles,
            "same program, same cycle count"
        );
        // The oracle sends every op on its own through the queue; the
        // default engine must not change simulated results at all...
        let o = barrier_program(Scheduler::Linear);
        assert_eq!(a.total_cycles, o.total_cycles);
        assert_eq!(a.ledgers, o.ledgers);
        assert_eq!(a.traffic, o.traffic);
        assert_eq!(a.engine.ops_executed, o.engine.ops_executed);
        // ...while actually saving host round-trips.
        assert!(a.engine.batches > 0, "default engine coalesced messages");
        assert!(a.engine.round_trips < o.engine.round_trips);
        assert_eq!(o.engine.batches, 0);
        assert_eq!(o.engine.shard_local_ops, 0);
    }

    #[test]
    fn engine_counts_wakeups_and_peak_parked() {
        let (machine, shared) = harness(4, Config::Intra(IntraConfig::Hcc));
        let mut m2 = machine;
        let b = m2.alloc_barrier(4);
        let (_, stats, _) = run_threads(m2, shared, 4, move |ctx| {
            ctx.compute(10 * (1 + ctx.tid() as u64));
            ctx.barrier_with(crate::ctx::BarrierId(b), crate::ctx::BarrierOpts::none());
        });
        // Three cores park at the barrier; the fourth arrival wakes them.
        assert_eq!(stats.engine.wakeups, 3);
        assert_eq!(stats.engine.peak_parked, 3);
        assert_eq!(stats.engine.shard_local_ops, 0, "coherent runs queue");
    }

    #[test]
    fn missing_barrier_arrival_is_detected() {
        let (mut machine, shared) = harness(2, Config::Intra(IntraConfig::Hcc));
        let b = machine.alloc_barrier(3); // 3 participants, only 2 threads!
        let (_, _, err) = run_threads(machine, shared, 2, move |ctx| {
            ctx.barrier_with(crate::ctx::BarrierId(b), crate::ctx::BarrierOpts::none());
        });
        let Some(RunError::Deadlock { parked, .. }) = err else {
            unreachable!("expected a deadlock error, got {err:?}");
        };
        assert_eq!(parked.len(), 2, "both cores parked: {parked:?}");
    }

    #[test]
    fn deadlock_error_names_stall_categories_and_trace() {
        let (mut machine, shared) = harness(2, Config::Intra(IntraConfig::Hcc));
        machine.enable_trace(32);
        let b = machine.alloc_barrier(3);
        let (_, _, err) = run_threads(machine, shared, 2, move |ctx| {
            ctx.compute(5);
            ctx.barrier_with(crate::ctx::BarrierId(b), crate::ctx::BarrierOpts::none());
        });
        let msg = err.expect("must deadlock").to_string();
        assert!(msg.contains("deadlock"), "{msg}");
        assert!(
            msg.contains("barrier stall"),
            "stall category missing: {msg}"
        );
        assert!(msg.contains("BarrierArrive"), "trace tail missing: {msg}");
    }

    #[test]
    fn cycle_watchdog_reports_hang() {
        // Computes retire locally on the incoherent machine, so this
        // exercises the local path's watchdog; the coherent run covers
        // the queued one.
        for cfg in [IntraConfig::Base, IntraConfig::Hcc] {
            let (machine, _) = harness(1, Config::Intra(cfg));
            let shared = shared(1, Config::Intra(cfg), Scheduler::default(), Some(50));
            let (_, _, err) = run_threads(machine, shared, 1, |ctx| {
                for _ in 0..100 {
                    ctx.compute(10);
                }
            });
            let Some(RunError::Hang { detail }) = err else {
                unreachable!("expected a hang error, got {err:?}");
            };
            assert!(detail.contains("budget"), "{detail}");
        }
    }
}
