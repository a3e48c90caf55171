//! The execution engine: conservative execution-driven scheduling of
//! simulated threads over one [`Machine`].
//!
//! Every simulated thread is a task — a boxed future polled with a no-op
//! waker — on one single-threaded executor. The engine's state (the
//! machine, per-core clocks, the set of ready cores) lives in one
//! `RefCell`; a task borrows it only inside one poll of an op, never
//! across an await. Machine transitions happen in global simulated-time
//! order: the ready core with the smallest `(local time, core id)` runs
//! its next op first. Private ops are the one exception (below).
//!
//! # The op future
//!
//! Every op a kernel awaits is one hand-written future, `OpFuture`; the
//! single-op data accessors of [`ThreadCtx`] return it as it is. Its
//! first poll flushes the deferred compute of [`ThreadCtx::tick`] as an
//! `Op::Compute` ahead of the op, then runs the op at once when the core
//! may (below), so an op that runs at once costs one synchronous call.
//! Otherwise the poll queues the core and returns `Pending`; the op runs
//! when the loop polls the core again. An op that parks the core
//! completes on the poll after its wakeup, and an op that latches the
//! run's error never completes. The future is lazy: nothing runs, and no
//! deferred compute is taken, before its first poll.
//!
//! # The loop
//!
//! A core's clock only advances when it executes an op, so a ready
//! core's key is exactly the time of its next op. A core about to issue
//! an op compares its own key with the smallest key in the ready heap.
//! If its key is smaller it is the global minimum: the core executes the
//! op on the machine inline and keeps running. If not, it offers the op
//! to the machine as a private op ([`Machine::try_private`]): an op that
//! touches only state no other core's op reads or writes, such as an L1
//! hit on the incoherent hierarchy or a `Compute` on any backend. A
//! private op commutes with every other core's op, so the machine runs it
//! at once, ahead of the global order, in the one lookup that decides
//! it, and the core keeps running. Otherwise the core yields. The loop
//! swaps its key into the heap's top, which it takes out in the same
//! sift (the yielding core's key is above the top, so the top is still
//! the minimum), and polls the core that held the top, which then
//! executes its op. A blocking op that parks the core (`Exec::Parked`)
//! suspends it until a synchronization grant's `Wakeup` pushes it back
//! at the resume time. Every op that is not private still runs at the
//! minimum key, in the order of the reference loop — wait for every
//! core's next op, then run the minimum — so every machine transition
//! another core can observe happens in that order by construction.
//! Nothing is private while a sanitizer, fault plan or trace is
//! installed: each observes the global op order.
//!
//! # The oracle
//!
//! [`Scheduler::Linear`] is the reference every property test and the
//! golden pins compare against: a linear scan over the ready cores picks
//! the next core, and every op goes through that pick — no core ever
//! runs an op inline, private or not.
//!
//! # Failure handling
//!
//! A run that cannot complete — deadlock, watchdog expiry (simulated-
//! cycle budget or host wall-clock), a fatal sanitizer finding under
//! `CheckMode::Strict`, or an unrecoverable injected fault — does not
//! abort the process. The op that latches the [`RunError`] never returns
//! to its kernel: the loop stops, drops every task, and returns the error
//! alongside the stats, so a failed run leaves the process reusable. If
//! the ready heap is empty while some core is unfinished, every such core
//! is parked on synchronization: the program has deadlocked, and the
//! error names each parked core's stall category (plus the recent
//! operation history when tracing is enabled). A kernel that panics
//! unwinds out of the run with its own payload.
//!
//! Both watchdogs run inside the execution of every op, inline and
//! private ops included, so a kernel that spins on an L1 hit (which
//! never suspends) still ends in [`RunError::Hang`]. When a private
//! spin runs ahead, the cycle watchdog names the first core over budget
//! in host order, which may differ from the core `Linear` names (the
//! first in `(time, core)` order); the error kind is the same. Neither
//! watchdog can stop a kernel that loops in host code without issuing
//! any op.

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::future::Future;
use std::marker::PhantomData;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

use hic_machine::{Exec, Machine, Op, RunError, RunStats};
use hic_mem::{word_to_f32, Word};
use hic_sim::{CoreId, Cycle, EngineStats};

use crate::ctx::{RtShared, ThreadCtx};

/// How many executed ops between host wall-clock watchdog checks.
const WALL_CHECK_PERIOD: u32 = 1024;

/// Which engine runs a program. Both produce bit-identical simulated
/// results; they differ only in host-side cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduler {
    /// The production engine: heap picker, and a core runs its op
    /// inline whenever it holds the smallest key or the op is private.
    #[default]
    Default,
    /// The reference oracle: a linear scan picks the next core, and
    /// every op goes through the pick.
    Linear,
}

impl Scheduler {
    /// Parse an engine name (the `engine=` key field): `default` or
    /// `linear`, the exact inverse of [`Scheduler::name`].
    pub fn parse(s: &str) -> Option<Scheduler> {
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
}

/// What executing one op means for the issuing core.
enum Step {
    /// The op completed with this value.
    Done(Option<Word>),
    /// The op parked the core until a wakeup.
    Parked,
    /// The op latched the run's fatal error.
    Dead,
}

/// The mutable state of one run, behind [`Engine`]'s `RefCell`.
struct State {
    machine: Machine,
    /// Pick by linear scan (the oracle), never inline.
    linear: bool,
    /// Per-core local simulated time.
    time: Vec<Cycle>,
    /// Ready cores by their [`key`] (the default scheduler).
    heap: BinaryHeap<Reverse<u128>>,
    /// The core that just yielded behind the heap top (the default
    /// scheduler), not yet in the heap: the loop swaps it in for the top.
    yielded: Option<usize>,
    /// Ready cores (the oracle's linear scan).
    ready: Vec<bool>,
    done: usize,
    parked_now: u64,
    /// The run's error, latched by the op that caused it.
    fatal: Option<RunError>,
    /// Watchdog: fail the run if any core's clock passes this budget.
    watchdog_cycles: Option<Cycle>,
    /// Watchdog: fail the run past this host-time deadline (checked
    /// every [`WALL_CHECK_PERIOD`] ops to keep the hot path cheap).
    deadline: Option<Instant>,
    ops_since_wall_check: u32,
    stats: EngineStats,
}

impl State {
    /// Mark core `c` ready to issue its next op at its current clock.
    fn push_ready(&mut self, c: usize) {
        if self.linear {
            self.ready[c] = true;
        } else {
            self.heap.push(Reverse(key(self.time[c], c)));
        }
    }

    /// Take the ready core with the smallest `(time, core)`. A core that
    /// just yielded enters the heap in the sift that takes the top out:
    /// it yielded because its key is above the top, so the top is still
    /// the smallest, and one sift replaces a push and a pop.
    fn pop_ready(&mut self) -> Option<usize> {
        if self.linear {
            let c = (0..self.ready.len())
                .filter(|&c| self.ready[c])
                .min_by_key(|&c| (self.time[c], c))?;
            self.ready[c] = false;
            return Some(c);
        }
        let Reverse(k) = match self.yielded.take() {
            Some(y) => {
                let mut top = self
                    .heap
                    .peek_mut()
                    .expect("a core yields only behind a ready core");
                debug_assert!(top.0 < key(self.time[y], y), "yielded below the top");
                std::mem::replace(&mut *top, Reverse(key(self.time[y], y)))
            }
            None => self.heap.pop()?,
        };
        let c = k as u64 as usize;
        debug_assert_eq!(key(self.time[c], c), k, "ready entry out of date");
        Some(c)
    }

    /// Run core `c`'s `op` at once if the core may, or queue the core and
    /// return `None`. Only the default engine runs an op at once: when
    /// the core holds the smallest key, or when the op is private
    /// ([`Machine::try_private`]: it commutes with every other core's
    /// op). A queued core is polled again when it is the one to run.
    fn run_or_queue(&mut self, c: usize, op: &Op) -> Option<Step> {
        if !self.linear {
            let now = self.time[c];
            let exec = if self
                .heap
                .peek()
                .is_none_or(|&Reverse(top)| key(now, c) < top)
            {
                Some(self.machine.execute(CoreId(c), op, now))
            } else {
                self.machine.try_private(CoreId(c), op, now)
            };
            if let Some(exec) = exec {
                self.stats.shard_local_ops += 1;
                return Some(self.settle(c, op, exec));
            }
        }
        self.stats.round_trips += 1;
        if self.linear {
            self.ready[c] = true;
        } else {
            self.yielded = Some(c);
        }
        None
    }

    /// Execute core `c`'s queued op at its clock.
    fn execute(&mut self, c: usize, op: &Op) -> Step {
        let exec = self.machine.execute(CoreId(c), op, self.time[c]);
        self.settle(c, op, exec)
    }

    /// Account core `c`'s executed op: advance its clock, push every core
    /// the op woke, and run the fatal-error checks and both watchdogs.
    fn settle(&mut self, c: usize, op: &Op, exec: Exec) -> Step {
        self.stats.ops_executed += 1;
        let step = match exec {
            Exec::Done { value, end } => {
                self.time[c] = end;
                self.done += usize::from(matches!(op, Op::Finish));
                Step::Done(value)
            }
            Exec::Parked => {
                self.parked_now += 1;
                self.stats.peak_parked = self.stats.peak_parked.max(self.parked_now);
                Step::Parked
            }
        };
        if self.machine.has_wakeups() {
            for wk in self.machine.take_wakeups() {
                let i = wk.core.0;
                self.stats.wakeups += 1;
                self.parked_now -= 1;
                self.time[i] = wk.at;
                self.push_ready(i);
            }
        }
        // Under CheckMode::Strict the sanitizer latches the first finding
        // (and fault injection latches unrecoverable corruption); surface
        // it as the run's error so the program stops at the faulty access
        // instead of completing with bad data.
        let fatal = self
            .machine
            .take_fatal()
            .or_else(|| over_budget(self.watchdog_cycles, c, self.time[c]))
            .or_else(|| wall_expired(self.deadline, &mut self.ops_since_wall_check));
        if fatal.is_some() {
            self.fatal = fatal;
            return Step::Dead;
        }
        step
    }

    /// The run's outcome once no core is ready: complete, or deadlocked
    /// with every unfinished core parked on synchronization.
    fn stalled(&self) -> Option<RunError> {
        if self.done == self.time.len() {
            return None;
        }
        let parked: Vec<(usize, String)> = (0..self.time.len())
            .filter_map(|c| {
                let cat = self.machine.parked_category(CoreId(c))?;
                Some((c, cat.label().to_string()))
            })
            .collect();
        let trace_tail = if self.machine.trace().enabled() {
            self.machine.trace().render()
        } else {
            String::new()
        };
        Some(RunError::Deadlock { parked, trace_tail })
    }
}

/// Core `c`'s place in the `(time, core)` order as one integer: the
/// ready heap's sifts compare it in two instructions, where a tuple
/// compares field by field.
#[inline]
fn key(time: Cycle, c: usize) -> u128 {
    u128::from(time) << 64 | c as u128
}

/// The simulated-cycle watchdog: core `c` reached `now`.
#[inline]
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
#[inline]
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

/// Where an [`OpFuture`] stands between polls.
#[derive(Clone, Copy)]
enum Stage {
    /// Not polled yet: the deferred compute is still the context's.
    Start,
    /// Queued with this many deferred compute cycles to run ahead of the
    /// op.
    Compute(u64),
    /// Queued: the op runs on the next poll.
    Queued,
    /// Parked by the op: the next poll, after a wakeup, completes it.
    Parked,
    /// The op latched the run's error: it never completes.
    Dead,
}

/// What an op's raw value becomes for the kernel that awaits it.
pub(crate) trait OpValue {
    fn from_value(value: Option<Word>) -> Self;
}

impl OpValue for () {
    #[inline]
    fn from_value(_: Option<Word>) {}
}

impl OpValue for Word {
    #[inline]
    fn from_value(value: Option<Word>) -> Word {
        value.expect("a load returns a value")
    }
}

impl OpValue for f32 {
    #[inline]
    fn from_value(value: Option<Word>) -> f32 {
        word_to_f32(Word::from_value(value))
    }
}

/// One op of one core, issued in program order: the future behind every
/// [`ThreadCtx`] operation. It is lazy: its first poll flushes the
/// context's deferred compute (as an `Op::Compute` ahead of the op) and
/// runs the op at once when the core may, else queues the core and
/// yields. A yielded core runs its op when the loop polls it next; a
/// parked one completes when a wakeup brings it back; an op that killed
/// the run never completes. `T` is what the op's value becomes.
#[must_use = "an op runs only when awaited"]
pub(crate) struct OpFuture<'a, T> {
    ctx: &'a ThreadCtx,
    op: Op,
    stage: Stage,
    value: PhantomData<fn() -> T>,
}

impl<'a, T> OpFuture<'a, T> {
    pub(crate) fn new(ctx: &'a ThreadCtx, op: Op) -> OpFuture<'a, T> {
        OpFuture {
            ctx,
            op,
            stage: Stage::Start,
            value: PhantomData,
        }
    }
}

impl<T: OpValue> Future for OpFuture<'_, T> {
    type Output = T;

    #[inline]
    fn poll(self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<T> {
        let f = Pin::get_mut(self);
        f.ctx
            .engine
            .poll_op(f.ctx.tid(), &f.ctx.pending_compute, &f.op, &mut f.stage)
            .map(T::from_value)
    }
}

/// One simulated thread's kernel, as a task.
type Task<'a> = Pin<Box<dyn Future<Output = ()> + 'a>>;

/// The engine shared by all thread contexts of one run.
pub(crate) struct Engine {
    pub(crate) shared: RtShared,
    state: RefCell<State>,
}

impl Engine {
    fn new(machine: Machine, shared: RtShared) -> Engine {
        let n = shared.nthreads;
        let mut state = State {
            machine,
            linear: shared.scheduler == Scheduler::Linear,
            time: vec![0; n],
            heap: BinaryHeap::with_capacity(n),
            yielded: None,
            ready: vec![false; n],
            done: 0,
            parked_now: 0,
            fatal: None,
            watchdog_cycles: shared.watchdog_cycles,
            deadline: shared
                .watchdog_wall_ms
                .map(|ms| Instant::now() + Duration::from_millis(ms)),
            ops_since_wall_check: 0,
            stats: EngineStats::new(),
        };
        // Every core starts ready at time 0.
        for c in 0..n {
            state.push_ready(c);
        }
        Engine {
            shared,
            state: RefCell::new(state),
        }
    }

    /// Poll core `c`'s `op` from `stage`; `deferred` is the context's
    /// deferred compute (see [`OpFuture`]).
    fn poll_op(
        &self,
        c: usize,
        deferred: &Cell<u64>,
        op: &Op,
        stage: &mut Stage,
    ) -> Poll<Option<Word>> {
        let mut s = self.state.borrow_mut();
        let step = match *stage {
            Stage::Start => match deferred.replace(0) {
                0 => s.run_or_queue(c, op),
                n => match s.run_or_queue(c, &Op::Compute(n)) {
                    Some(Step::Dead) => Some(Step::Dead),
                    Some(_) => s.run_or_queue(c, op),
                    None => {
                        *stage = Stage::Compute(n);
                        return Poll::Pending;
                    }
                },
            },
            Stage::Compute(n) => match s.execute(c, &Op::Compute(n)) {
                Step::Dead => Some(Step::Dead),
                _ => s.run_or_queue(c, op),
            },
            Stage::Queued => Some(s.execute(c, op)),
            Stage::Parked => return Poll::Ready(None),
            Stage::Dead => return Poll::Pending,
        };
        *stage = match step {
            Some(Step::Done(value)) => return Poll::Ready(value),
            Some(Step::Parked) => Stage::Parked,
            Some(Step::Dead) => Stage::Dead,
            None => Stage::Queued,
        };
        Poll::Pending
    }

    /// Poll the ready core with the smallest key until every core has
    /// finished (`None`) or the run fails.
    fn drive(&self, tasks: &mut [Task<'_>]) -> Option<RunError> {
        let mut cx = Context::from_waker(Waker::noop());
        loop {
            let next = {
                let mut s = self.state.borrow_mut();
                if let Some(err) = s.fatal.take() {
                    return Some(err);
                }
                s.pop_ready()
            };
            let Some(c) = next else {
                return self.state.borrow().stalled();
            };
            // A finished core is never ready again, so its completed
            // task is never polled twice.
            let _ = tasks[c].as_mut().poll(&mut cx);
        }
    }

    /// Finish the machine and attach the engine ledger.
    fn teardown(self, error: Option<RunError>) -> (Machine, RunStats, Option<RunError>) {
        let state = self.state.into_inner();
        let mut stats = if error.is_some() {
            state.machine.finish_after_failure()
        } else {
            state.machine.finish()
        };
        stats.engine = EngineStats {
            messages: state.stats.ops_executed,
            ..state.stats
        };
        (state.machine, stats, error)
    }
}

/// Run `body` as one task per simulated thread over `machine`. Returns
/// the machine (for result inspection), the run statistics, and the
/// [`RunError`] that killed the run, if any. Every task is dropped
/// before this returns, so a failed run leaves the process reusable.
pub(crate) fn run_tasks(
    machine: Machine,
    shared: RtShared,
    body: impl AsyncFn(&ThreadCtx),
) -> (Machine, RunStats, Option<RunError>) {
    let n = shared.nthreads;
    assert!(n >= 1);
    assert!(
        n <= machine.config().num_cores(),
        "more threads ({n}) than cores ({})",
        machine.config().num_cores()
    );
    let engine = Rc::new(Engine::new(machine, shared));
    let ctxs: Vec<ThreadCtx> = (0..n)
        .map(|tid| ThreadCtx::new(tid, Rc::clone(&engine)))
        .collect();
    let body = &body;
    let mut tasks: Vec<Task<'_>> = ctxs
        .iter()
        .map(|ctx| {
            Box::pin(async move {
                body(ctx).await;
                ctx.finish().await;
            }) as Task<'_>
        })
        .collect();
    let error = engine.drive(&mut tasks);
    drop(tasks);
    drop(ctxs);
    Rc::into_inner(engine)
        .expect("every task and context is dropped")
        .teardown(error)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Config, IntraConfig};
    use hic_core::{CohInstr, Target};
    use hic_mem::{Region, WordAddr};
    use hic_sim::MachineConfig;

    fn shared(
        nthreads: usize,
        cfg: Config,
        scheduler: Scheduler,
        watchdog_cycles: Option<Cycle>,
    ) -> RtShared {
        RtShared {
            config: cfg,
            locks: Vec::new(),
            nthreads,
            scheduler,
            checking: false,
            overrides: None,
            watchdog_cycles,
            watchdog_wall_ms: None,
        }
    }

    fn machine(cfg: Config) -> Machine {
        if cfg.is_coherent() {
            Machine::coherent(MachineConfig::intra_block())
        } else {
            Machine::incoherent(MachineConfig::intra_block())
        }
    }

    /// Every op is either run inline or preceded by one suspension, and
    /// the oracle never runs one inline.
    fn assert_ledger_invariant(e: &EngineStats, scheduler: Scheduler) {
        assert_eq!(e.shard_local_ops + e.round_trips, e.ops_executed, "{e:?}");
        assert_eq!(e.messages, e.ops_executed, "{e:?}");
        assert_eq!((e.batches, e.lock_waits), (0, 0), "{e:?}");
        if scheduler == Scheduler::Linear {
            assert_eq!(e.shard_local_ops, 0, "{e:?}");
        }
    }

    /// Four threads write, compute, and meet at a barrier.
    fn barrier_program(scheduler: Scheduler) -> RunStats {
        let mut machine = Machine::incoherent(MachineConfig::intra_block());
        let b = machine.alloc_barrier(4);
        let shared = shared(4, Config::Intra(IntraConfig::Base), scheduler, None);
        let (_, stats, err) = run_tasks(machine, shared, async move |ctx| {
            let r = Region::new(WordAddr(16 * (1 + ctx.tid() as u64)), 4);
            for i in 0..4 {
                ctx.write(r, i, (ctx.tid() as u32 + 1) * 10 + i as u32)
                    .await;
            }
            ctx.compute(ctx.tid() as u64 * 13).await;
            ctx.barrier(crate::ctx::BarrierId(b)).await;
        });
        assert!(err.is_none(), "{err:?}");
        assert_ledger_invariant(&stats.engine, scheduler);
        stats
    }

    #[test]
    fn single_thread_store_load() {
        let cfg = Config::Intra(IntraConfig::Base);
        let shared = shared(1, cfg, Scheduler::default(), None);
        let (machine, stats, err) = run_tasks(machine(cfg), shared, async |ctx| {
            let r = Region::new(WordAddr(16), 4);
            ctx.write(r, 0, 7).await;
            assert_eq!(ctx.read(r, 0).await, 7);
            ctx.compute(100).await;
            // Post the value so a fresh reader (peek) sees it.
            ctx.coh(hic_core::CohInstr::wb_all()).await;
        });
        assert!(err.is_none());
        assert!(stats.total_cycles >= 100);
        assert_eq!(
            stats.engine.shard_local_ops, stats.engine.ops_executed,
            "a lone core never waits for another"
        );
        assert_ledger_invariant(&stats.engine, Scheduler::Default);
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
        // The oracle suspends before every op; the default engine must
        // not change simulated results at all...
        let o = barrier_program(Scheduler::Linear);
        assert_eq!(a.total_cycles, o.total_cycles);
        assert_eq!(a.ledgers, o.ledgers);
        assert_eq!(a.traffic, o.traffic);
        assert_eq!(a.engine.ops_executed, o.engine.ops_executed);
        // ...while actually running ops inline.
        assert!(a.engine.shard_local_ops > 0, "default engine ran inline");
        assert!(a.engine.round_trips < o.engine.round_trips);
        assert_eq!(o.engine.round_trips, o.engine.ops_executed);
    }

    #[test]
    fn engine_counts_wakeups_and_peak_parked() {
        for scheduler in [Scheduler::Default, Scheduler::Linear] {
            let cfg = Config::Intra(IntraConfig::Hcc);
            let mut m = machine(cfg);
            let b = m.alloc_barrier(4);
            let (_, stats, _) = run_tasks(m, shared(4, cfg, scheduler, None), async |ctx| {
                ctx.compute(10 * (1 + ctx.tid() as u64)).await;
                ctx.barrier_with(crate::ctx::BarrierId(b), crate::ctx::BarrierOpts::none())
                    .await;
            });
            // Three cores park at the barrier; the fourth arrival wakes them.
            assert_eq!(stats.engine.wakeups, 3);
            assert_eq!(stats.engine.peak_parked, 3);
            assert_ledger_invariant(&stats.engine, scheduler);
            if scheduler == Scheduler::Default {
                assert!(stats.engine.shard_local_ops > 0, "coherent runs go inline");
            }
        }
    }

    #[test]
    fn missing_barrier_arrival_is_detected() {
        let cfg = Config::Intra(IntraConfig::Hcc);
        let mut m = machine(cfg);
        let b = m.alloc_barrier(3); // 3 participants, only 2 threads!
        let shared = shared(2, cfg, Scheduler::default(), None);
        let (_, _, err) = run_tasks(m, shared, async |ctx| {
            ctx.barrier_with(crate::ctx::BarrierId(b), crate::ctx::BarrierOpts::none())
                .await;
        });
        let Some(RunError::Deadlock { parked, .. }) = err else {
            unreachable!("expected a deadlock error, got {err:?}");
        };
        assert_eq!(parked.len(), 2, "both cores parked: {parked:?}");
    }

    #[test]
    fn deadlock_error_names_stall_categories_and_trace() {
        let cfg = Config::Intra(IntraConfig::Hcc);
        let mut m = machine(cfg);
        m.enable_trace(32);
        let b = m.alloc_barrier(3);
        let shared = shared(2, cfg, Scheduler::default(), None);
        let (_, _, err) = run_tasks(m, shared, async |ctx| {
            ctx.compute(5).await;
            ctx.barrier_with(crate::ctx::BarrierId(b), crate::ctx::BarrierOpts::none())
                .await;
        });
        let msg = err.expect("must deadlock").to_string();
        assert!(msg.contains("deadlock"), "{msg}");
        assert!(
            msg.contains("barrier stall"),
            "stall category missing: {msg}"
        );
        assert!(msg.contains("BarrierArrive"), "trace tail missing: {msg}");
    }

    /// Words on distinct lines. From cores 0 and 1 of the intra machine,
    /// a first access to A, X or Y misses to memory in 179 cycles; Z is
    /// never cached, so an `INV` of it takes 3 cycles.
    const A: WordAddr = WordAddr(16);
    const X: WordAddr = WordAddr(32);
    const Y: WordAddr = WordAddr(48);
    const Z: WordAddr = WordAddr(80);

    /// A core above the heap top runs its private ops (L1 hits, computes)
    /// without suspending, while its misses and its barrier still wait
    /// for the `(time, core)` order. Core 0 stores A (a miss), then
    /// issues six 3-cycle `INV`s of Z, which are global ops. Core 1
    /// stores X (a miss), loads it four times (hits), computes 5 cycles
    /// and loads Y (a miss). Both then meet at a barrier. Key by key:
    ///
    /// - Both stores run inline at the smallest key. Core 0's first
    ///   `INV` at (179, 0) suspends.
    /// - Core 1 sits above the heap top from (179, 1) on: its four hits
    ///   and its compute run at once. Its miss on Y at (192, 1)
    ///   suspends.
    /// - Core 0 runs `INV`s at 179–191 until the one at (194, 0)
    ///   suspends behind (192, 1). Core 1's miss ends at 371, and its
    ///   barrier at (371, 1) suspends behind (194, 0).
    /// - Core 0 finishes its `INV`s and arrives first; core 1's arrival
    ///   releases both. Core 0 resumes 4 cycles earlier (one hop closer
    ///   to the barrier's bank), so core 1's finish suspends once more.
    ///
    /// That is 5 suspensions out of 18 ops. Without the private rule,
    /// core 1's hits would suspend whenever core 0 is behind, and the
    /// two cores would leapfrog through 11.
    #[test]
    fn private_ops_above_the_heap_top_do_not_suspend() {
        let run = |scheduler| {
            let cfg = Config::Intra(IntraConfig::Base);
            let mut m = machine(cfg);
            let b = crate::ctx::BarrierId(m.alloc_barrier(2));
            let (_, stats, err) = run_tasks(m, shared(2, cfg, scheduler, None), async |ctx| {
                if ctx.tid() == 0 {
                    ctx.store(A, 1).await;
                    for _ in 0..6 {
                        ctx.coh(CohInstr::inv(Target::word(Z))).await;
                    }
                } else {
                    ctx.store(X, 2).await;
                    for _ in 0..4 {
                        assert_eq!(ctx.load(X).await, 2);
                    }
                    ctx.compute(5).await;
                    ctx.load(Y).await;
                }
                ctx.barrier_with(b, crate::ctx::BarrierOpts::none()).await;
            });
            assert!(err.is_none(), "{err:?}");
            assert_ledger_invariant(&stats.engine, scheduler);
            stats
        };
        let default = run(Scheduler::Default);
        let linear = run(Scheduler::Linear);
        assert_eq!(default.engine.ops_executed, 18);
        assert_eq!(
            (default.engine.round_trips, default.engine.shard_local_ops),
            (5, 13),
            "{:?}",
            default.engine
        );
        assert_eq!(linear.engine.round_trips, 18);
        assert_eq!(default.total_cycles, linear.total_cycles);
        assert_eq!(default.ledgers, linear.ledgers);
    }

    /// Every branch of an op's issue, against the oracle. Three threads
    /// each store to and reload a line of their own (private after the
    /// first miss), issue `WB ALL` (never private) and arrive at a
    /// barrier, which parks the first two arrivals until the third, with
    /// a `tick` deferred ahead of each of the three. Under `Default` the
    /// reloads and the later computes run privately above the heap top;
    /// under `Linear` every op queues; with a trace installed nothing is
    /// private, so a deferred compute above the heap top queues ahead of
    /// its op. All three runs agree on every simulated field; the pinned
    /// `(suspensions, inline ops)` tell the branches apart.
    #[test]
    fn op_issue_branches_match_the_oracle() {
        let run = |scheduler, trace: bool| {
            let cfg = Config::Intra(IntraConfig::Base);
            let mut m = machine(cfg);
            if trace {
                m.enable_trace(64);
            }
            let b = crate::ctx::BarrierId(m.alloc_barrier(3));
            let (_, stats, err) = run_tasks(m, shared(3, cfg, scheduler, None), async |ctx| {
                let t = ctx.tid() as u32;
                let own = WordAddr(16 * (8 + u64::from(t)));
                let tick = 5 + 3 * u64::from(t);
                ctx.tick(tick);
                ctx.store(own, 10 + t).await;
                assert_eq!(ctx.load(own).await, 10 + t);
                ctx.tick(tick);
                ctx.coh(CohInstr::wb_all()).await;
                ctx.tick(tick);
                ctx.barrier_with(b, crate::ctx::BarrierOpts::none()).await;
            });
            assert!(err.is_none(), "{err:?}");
            assert_ledger_invariant(&stats.engine, scheduler);
            stats
        };
        let simulated = |s: &RunStats| {
            (
                s.total_cycles,
                s.ledgers.clone(),
                s.traffic,
                s.counters,
                s.resilience,
                (
                    s.engine.ops_executed,
                    s.engine.wakeups,
                    s.engine.peak_parked,
                ),
            )
        };
        let default = run(Scheduler::Default, false);
        let linear = run(Scheduler::Linear, false);
        let traced = run(Scheduler::Default, true);
        assert_eq!(simulated(&default), simulated(&linear));
        assert_eq!(simulated(&traced), simulated(&linear));
        // Eight ops per thread: three computes, store, load, WB ALL,
        // arrival and finish.
        assert_eq!(linear.engine.ops_executed, 24);
        assert_eq!((linear.engine.wakeups, linear.engine.peak_parked), (2, 2));
        let split = |s: &RunStats| (s.engine.round_trips, s.engine.shard_local_ops);
        assert_eq!(split(&default), (10, 14), "default {:?}", default.engine);
        assert_eq!(split(&linear), (24, 0), "linear {:?}", linear.engine);
        assert_eq!(split(&traced), (12, 12), "traced {:?}", traced.engine);
    }

    #[test]
    fn cycle_watchdog_reports_hang() {
        for cfg in [IntraConfig::Base, IntraConfig::Hcc] {
            let cfg = Config::Intra(cfg);
            let shared = shared(1, cfg, Scheduler::default(), Some(50));
            let (_, _, err) = run_tasks(machine(cfg), shared, async |ctx| {
                for _ in 0..100 {
                    ctx.compute(10).await;
                }
            });
            let Some(RunError::Hang { detail }) = err else {
                unreachable!("expected a hang error, got {err:?}");
            };
            assert!(detail.contains("budget"), "{detail}");
        }
        // Core 0 spins on an L1 hit, a private op that never suspends,
        // while core 1 still holds the earlier key (0, 1). The budget
        // stops the spin on both engines; the loop bound only keeps a
        // broken watchdog from hanging the test.
        for scheduler in [Scheduler::Default, Scheduler::Linear] {
            let cfg = Config::Intra(IntraConfig::Base);
            let shared = shared(2, cfg, scheduler, Some(1000));
            let (_, _, err) = run_tasks(machine(cfg), shared, async |ctx| {
                if ctx.tid() == 0 {
                    ctx.store(X, 1).await;
                    for _ in 0..100_000 {
                        ctx.load(X).await;
                    }
                } else {
                    ctx.store(Y, 2).await;
                }
            });
            let Some(RunError::Hang { detail }) = err else {
                unreachable!("{scheduler:?}: expected a hang error, got {err:?}");
            };
            assert!(detail.contains("core0 reached"), "{detail}");
        }
    }

    /// The wall-clock watchdog counts private ops too: a spin on an L1
    /// hit that never suspends still ends in `Hang`. The loop bound only
    /// keeps a broken watchdog from hanging the test.
    #[test]
    fn wall_watchdog_stops_a_private_spin() {
        let cfg = Config::Intra(IntraConfig::Base);
        let shared = RtShared {
            watchdog_wall_ms: Some(20),
            ..shared(2, cfg, Scheduler::Default, None)
        };
        let (_, stats, err) = run_tasks(machine(cfg), shared, async |ctx| {
            if ctx.tid() == 0 {
                ctx.store(X, 1).await;
                for _ in 0..100_000_000u64 {
                    ctx.load(X).await;
                }
            } else {
                ctx.store(Y, 2).await;
            }
        });
        let Some(RunError::Hang { detail }) = err else {
            unreachable!("expected a hang error, got {err:?}");
        };
        assert!(detail.contains("wall-clock"), "{detail}");
        assert!(stats.engine.shard_local_ops > stats.engine.round_trips);
    }
}
