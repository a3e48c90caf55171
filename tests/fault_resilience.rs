//! Metamorphic resilience tests for the seeded fault-injection layer.
//!
//! The paper's correctness story is *timing-independent*: WB/INV
//! placement and synchronization ordering — not hardware timing — make a
//! race-free program correct. These tests exploit that as a metamorphic
//! oracle: any protocol-legal timing perturbation (link jitter, transient
//! slowdowns, dropped-and-retried flits, delayed sync acks) must leave
//! the readable memory of a race-free program bit-identical to the
//! unfaulted run, even though cycles and traffic move. Recoverable
//! bit flips must also preserve results (at the price of recovery
//! traffic), while unrecoverable corruption and liveness failures must
//! surface as typed [`RunError`]s that leave the process reusable.

use hic_runtime::{
    CheckMode, Config, FaultPlan, FaultSpec, IntraConfig, ProgramBuilder, RunError, RunOutcome,
    RunRequest, Scheduler,
};

const NT: usize = 4;
const WORDS: u64 = 256;

/// A sync-heavy, race-free workload: four rounds of produce / barrier /
/// consume-the-neighbor's-chunk, plus a lock-protected global
/// accumulator. Returns the outcome and a snapshot of every readable
/// word the program touched.
fn run_workload(configure: impl FnOnce(&mut ProgramBuilder)) -> (RunOutcome, Vec<u32>) {
    let mut p = ProgramBuilder::new(Config::Intra(IntraConfig::Base));
    configure(&mut p);
    let data = p.alloc_named("data", WORDS);
    let out = p.alloc_named("out", NT as u64 * 16);
    let total = p.alloc_named("total", 1);
    let bar = p.barrier_of(NT);
    let l = p.lock();
    let outcome = p.run_tasks(NT, async move |ctx| {
        let t = ctx.tid() as u64;
        let chunk = WORDS / NT as u64;
        for round in 0..4u64 {
            for i in 0..chunk {
                ctx.write(data, t * chunk + i, (round * 1000 + t * 100 + i) as u32)
                    .await;
            }
            ctx.barrier(bar).await;
            let src = ((t + 1) % NT as u64) * chunk;
            let mut sum = 0u32;
            for i in 0..chunk {
                sum = sum.wrapping_add(ctx.read(data, src + i).await);
            }
            ctx.write(out, t * 16 + round, sum).await;
            ctx.lock(l).await;
            let v = ctx.read(total, 0).await;
            ctx.write(total, 0, v.wrapping_add(sum)).await;
            ctx.unlock(l).await;
            ctx.barrier(bar).await;
        }
    });
    let mut snap = outcome.peek_all(data);
    snap.extend(outcome.peek_all(out));
    snap.extend(outcome.peek_all(total));
    (outcome, snap)
}

/// The headline metamorphic invariant: for ≥ 8 random timing-only fault
/// plans, readable memory is bit-identical to the unfaulted run. Timing
/// itself must actually move (otherwise the plans tested nothing).
#[test]
fn timing_only_fault_plans_leave_readable_memory_bit_identical() {
    let (base, base_snap) = run_workload(|_| {});
    assert!(base.result().is_ok());
    let mut cycles_moved = 0usize;
    let mut faults_fired = 0u64;
    for seed in 1..=8u64 {
        let plan = FaultPlan::timing_only(seed);
        let (faulted, snap) = run_workload(|p| {
            p.fault_plan(plan);
        });
        assert!(
            faulted.result().is_ok(),
            "timing-only plan seed={seed} killed the run: {:?}",
            faulted.result()
        );
        assert_eq!(
            snap, base_snap,
            "timing-only plan seed={seed} changed readable memory"
        );
        let r = faulted.stats().resilience;
        faults_fired += r.retries + r.delayed_acks;
        if faulted.stats().total_cycles != base.stats().total_cycles {
            cycles_moved += 1;
        }
    }
    assert!(
        cycles_moved > 0,
        "no plan changed the cycle count — the perturbations were inert"
    );
    assert!(
        faults_fired > 0,
        "no drop or ack delay ever fired across 8 seeds"
    );
}

/// Installing a plan with every amplitude at zero must be bit-identical
/// to installing nothing — cycles *and* traffic.
#[test]
fn zero_fault_plan_is_bit_identical_to_no_plan() {
    let (base, base_snap) = run_workload(|_| {});
    let (zeroed, snap) = run_workload(|p| {
        p.fault_plan(FaultPlan::zero(12345));
    });
    assert!(zeroed.result().is_ok());
    assert_eq!(snap, base_snap);
    assert_eq!(zeroed.stats().total_cycles, base.stats().total_cycles);
    assert_eq!(zeroed.stats().traffic, base.stats().traffic);
    assert_eq!(zeroed.stats().ledgers, base.stats().ledgers);
    assert!(zeroed.stats().resilience.is_zero());
    assert_eq!(zeroed.fault_plan(), Some(FaultPlan::zero(12345)));
    assert_eq!(base.fault_plan(), None);
}

/// Dropped flits are recovered by controller-side retry: results are
/// unchanged, and the retries are visible in the resilience ledger.
#[test]
fn dropped_flits_are_retried_and_results_unchanged() {
    let (_, base_snap) = run_workload(|_| {});
    let plan = FaultPlan {
        drop_period: 6,
        retry_timeout: 25,
        max_retries: 3,
        ..FaultPlan::zero(77)
    };
    let (faulted, snap) = run_workload(|p| {
        p.fault_plan(plan);
    });
    assert!(faulted.result().is_ok());
    assert_eq!(snap, base_snap, "retried transfers changed results");
    let r = faulted.stats().resilience;
    assert!(r.retries > 0, "a 1/6 drop rate never fired: {r:?}");
    assert!(r.retry_flits > 0);
    assert!(r.retry_cycles > 0);
}

/// Bit flips in clean lines are detected by parity and repaired by
/// refetch: results stay bit-identical (even under strict checking) and
/// the repair work is counted as recovery traffic.
#[test]
fn clean_line_bit_flips_recover_under_strict_checking() {
    let (_, base_snap) = run_workload(|_| {});
    let plan = FaultPlan {
        flip_period: 25,
        flip_dirty: false,
        ..FaultPlan::zero(31)
    };
    let (faulted, snap) = run_workload(|p| {
        p.fault_plan(plan);
        p.check_mode(CheckMode::Strict);
    });
    assert!(
        faulted.result().is_ok(),
        "clean-line flips must recover: {:?}",
        faulted.result()
    );
    assert_eq!(snap, base_snap, "a recovered flip leaked into results");
    let r = faulted.stats().resilience;
    assert!(r.bit_flips > 0, "no flip ever fired: {r:?}");
    assert_eq!(r.flips_recovered, r.bit_flips, "every clean flip recovers");
    assert!(r.recovery_flits > 0, "recovery refetch traffic not counted");
}

/// A flip landing in a dirty line destroys the only copy of the data:
/// the run must die with a typed error, never complete silently wrong.
#[test]
fn dirty_line_corruption_is_a_typed_fatal_error() {
    let mut p = ProgramBuilder::new(Config::Intra(IntraConfig::Base));
    p.fault_plan(FaultPlan {
        flip_period: 1,
        flip_dirty: true,
        ..FaultPlan::zero(9)
    });
    let data = p.alloc(16);
    let outcome = p.run_tasks(1, async move |ctx| {
        ctx.write(data, 0, 7).await;
        for _ in 0..64 {
            let _ = ctx.read(data, 0).await;
        }
    });
    let Err(RunError::CorruptDirtyLine { detail }) = outcome.result() else {
        unreachable!("expected dirty-line corruption, got {:?}", outcome.result());
    };
    assert_eq!(outcome.result().unwrap_err().kind(), "corrupt_dirty_line");
    assert!(detail.contains("parity"), "{detail}");
    assert!(detail.contains("dirty"), "{detail}");
}

/// A two-thread flag program that waits without a set deadlocks: the
/// error names both parked cores and their stall categories — and the
/// process stays fully usable for a subsequent clean run.
#[test]
fn flag_deadlock_returns_typed_error_and_process_stays_usable() {
    let mut p = ProgramBuilder::new(Config::Intra(IntraConfig::Base));
    let f0 = p.flag();
    let f1 = p.flag();
    let outcome = p.run_tasks(2, async move |ctx| {
        // Neither flag is ever set: both threads park forever.
        if ctx.tid() == 0 {
            ctx.flag_wait(f0).await;
        } else {
            ctx.flag_wait(f1).await;
        }
    });
    let Err(RunError::Deadlock { parked, .. }) = outcome.result() else {
        unreachable!("expected a deadlock, got {:?}", outcome.result());
    };
    assert_eq!(parked.len(), 2, "both cores must be reported: {parked:?}");
    let msg = outcome.result().unwrap_err().to_string();
    assert!(msg.contains("core0"), "{msg}");
    assert!(msg.contains("core1"), "{msg}");

    // The failed run was torn down gracefully: the same process must be
    // able to run a clean program to completion.
    let (clean, snap) = run_workload(|_| {});
    assert!(clean.result().is_ok());
    assert!(!snap.is_empty());
}

/// A kernel that panics is a bug in the program, not a run failure: the
/// panic unwinds out of the run with the kernel's own message, and the
/// process stays usable.
#[test]
fn kernel_panic_reaches_the_caller_with_its_own_message() {
    let mut p = ProgramBuilder::new(Config::Intra(IntraConfig::Base));
    let data = p.alloc(NT as u64);
    let bar = p.barrier_of(NT);
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        p.run_tasks(NT, async move |ctx| {
            ctx.write(data, ctx.tid() as u64, 1).await;
            if ctx.tid() == 1 {
                panic!("kernel bug on core 1");
            }
            ctx.barrier(bar).await;
        })
    }));
    let Err(payload) = run else {
        unreachable!("the kernel panic must reach the caller");
    };
    let msg = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
    assert_eq!(msg, Some("kernel bug on core 1"));

    let (clean, snap) = run_workload(|_| {});
    assert!(clean.result().is_ok());
    assert!(!snap.is_empty());
}

/// Like [`run_workload`], but each thread prefix-sums its own freshly
/// written chunk *before* the barrier — so reads land on locally-dirty
/// lines, the case only epoch-checkpoint rollback (not refetch) can
/// repair.
fn run_rmw_workload(configure: impl FnOnce(&mut ProgramBuilder)) -> (RunOutcome, Vec<u32>) {
    let mut p = ProgramBuilder::new(Config::Intra(IntraConfig::Base));
    configure(&mut p);
    let data = p.alloc_named("data", WORDS);
    let out = p.alloc_named("out", NT as u64 * 16);
    let bar = p.barrier_of(NT);
    let outcome = p.run_tasks(NT, async move |ctx| {
        let t = ctx.tid() as u64;
        let chunk = WORDS / NT as u64;
        for round in 0..4u64 {
            for i in 0..chunk {
                ctx.write(data, t * chunk + i, (round * 1000 + t * 100 + i) as u32)
                    .await;
            }
            // Read-after-write on the thread's own dirty lines.
            for i in 1..chunk {
                let prev = ctx.read(data, t * chunk + i - 1).await;
                let cur = ctx.read(data, t * chunk + i).await;
                ctx.write(data, t * chunk + i, prev.wrapping_add(cur)).await;
            }
            ctx.barrier(bar).await;
            let src = ((t + 1) % NT as u64) * chunk;
            let mut sum = 0u32;
            for i in 0..chunk {
                sum = sum.wrapping_add(ctx.read(data, src + i).await);
            }
            ctx.write(out, t * 16 + round, sum).await;
            ctx.barrier(bar).await;
        }
    });
    let mut snap = outcome.peek_all(data);
    snap.extend(outcome.peek_all(out));
    (outcome, snap)
}

/// The tentpole invariant: dirty-line corruption under a recovery plan
/// is repaired by checkpoint restore + replay — readable memory stays
/// bit-identical to the zero-fault run (even under strict checking),
/// rollbacks are counted, and no `CorruptDirtyLine` ever surfaces.
#[test]
fn corrupting_recoverable_plans_roll_back_and_preserve_results() {
    let (_, base_snap) = run_rmw_workload(|_| {});
    let mut total_rollbacks = 0u64;
    for seed in 1..=6u64 {
        let plan = FaultPlan::corrupting_recoverable(seed);
        let (faulted, snap) = run_rmw_workload(|p| {
            p.fault_plan(plan);
            p.check_mode(CheckMode::Strict);
        });
        assert!(
            faulted.result().is_ok(),
            "recovery plan seed={seed} killed the run: {:?}",
            faulted.result()
        );
        assert_eq!(
            snap, base_snap,
            "recovery plan seed={seed} changed readable memory"
        );
        let r = faulted.stats().resilience;
        total_rollbacks += r.rollbacks;
        assert!(
            r.checkpoint_words > 0,
            "seed={seed}: dirty lines were written but never checkpointed: {r:?}"
        );
        if r.rollbacks > 0 {
            assert!(r.rollback_cycles > 0, "seed={seed}: free rollbacks: {r:?}");
        }
    }
    assert!(
        total_rollbacks > 0,
        "no dirty-line flip ever fired across 6 seeds — the plans tested nothing"
    );
}

/// An aggressive custom recovery plan: every ~40th read flips a bit,
/// dirty lines included. The run must still complete bit-identical,
/// with a substantial rollback ledger. (At this rate the probability of
/// a second upset inside a replay window — `replayed/period²` per
/// rollback — is ~1%, so the seeded run below survives; the preceding
/// test pins the fatal that fires when it does not.)
#[test]
fn aggressive_recovery_plan_is_survived_with_counted_rollbacks() {
    let (_, base_snap) = run_rmw_workload(|_| {});
    let plan = FaultPlan {
        flip_period: 40,
        flip_dirty: true,
        recover: true,
        ..FaultPlan::zero(7)
    };
    let (faulted, snap) = run_rmw_workload(|p| {
        p.fault_plan(plan);
    });
    assert!(
        faulted.result().is_ok(),
        "aggressive recovery plan killed the run: {:?}",
        faulted.result()
    );
    assert_eq!(snap, base_snap);
    let r = faulted.stats().resilience;
    assert!(r.rollbacks > 0, "no rollback at a 1/20 flip rate: {r:?}");
    assert!(r.rollback_cycles > 0);
    assert!(r.checkpoint_words > 0);
}

/// Two corruptions in one epoch — a second upset striking the line
/// during its own rollback replay — still surfaces the typed fatal:
/// recovery narrows the fatal's reach, it does not hide real data loss.
#[test]
fn second_corruption_during_replay_is_still_a_typed_fatal() {
    let mut p = ProgramBuilder::new(Config::Intra(IntraConfig::Base));
    // flip_period == 1: the first dirty read both corrupts the line and
    // deterministically re-corrupts it during the replay window.
    p.fault_plan(FaultPlan {
        flip_period: 1,
        flip_dirty: true,
        recover: true,
        ..FaultPlan::zero(9)
    });
    let data = p.alloc(16);
    let outcome = p.run_tasks(1, async move |ctx| {
        ctx.write(data, 0, 7).await;
        for _ in 0..64 {
            let _ = ctx.read(data, 0).await;
        }
    });
    let Err(RunError::CorruptDirtyLine { detail }) = outcome.result() else {
        unreachable!("expected replay corruption, got {:?}", outcome.result());
    };
    assert!(detail.contains("second upset"), "{detail}");
    assert!(detail.contains("replay"), "{detail}");

    // The failed run tore down cleanly: the same process still recovers
    // a survivable plan afterwards.
    let (clean, snap) = run_rmw_workload(|p| {
        p.fault_plan(FaultPlan::corrupting_recoverable(1));
    });
    assert!(clean.result().is_ok());
    assert!(!snap.is_empty());
}

/// A recovery plan runs on the same path as a clean run: the default
/// engine still runs ops inline, completes, and stays bit-identical.
#[test]
fn sharded_engine_request_falls_back_under_recovery_plan() {
    let (base, base_snap) = run_rmw_workload(|p| {
        p.scheduler(Scheduler::Default);
    });
    assert!(
        base.stats().engine.shard_local_ops > 0,
        "a clean incoherent run runs ops inline"
    );
    let (faulted, snap) = run_rmw_workload(|p| {
        p.scheduler(Scheduler::Default);
        p.fault_plan(FaultPlan::corrupting_recoverable(3));
    });
    assert!(
        faulted.result().is_ok(),
        "recovery-plan run failed: {:?}",
        faulted.result()
    );
    assert!(faulted.stats().engine.shard_local_ops > 0);
    assert_eq!(snap, base_snap);
}

/// The metamorphic recovery suite over the paper's applications: under
/// the seeded `CorruptingRecover` plan every app still matches its host
/// reference (the zero-fault result) with zero `CorruptDirtyLine`
/// errors, and the suite as a whole performs rollbacks.
#[test]
fn app_suite_survives_corrupting_recoverable_plan() {
    use hic_apps::{inter_apps, intra_apps, Scale};
    use hic_runtime::InterConfig;

    let mut rollbacks = 0u64;
    let mut checkpoint_words = 0u64;
    let mut audit = |name: &str, r: hic_apps::AppRun| {
        assert!(
            r.error.is_none(),
            "{name} died under the recovery plan: {:?}",
            r.error
        );
        assert!(
            r.correct,
            "{name} diverged from host reference: {}",
            r.detail
        );
        rollbacks += r.stats.resilience.rollbacks;
        checkpoint_words += r.stats.resilience.checkpoint_words;
    };
    for app in intra_apps(Scale::Test) {
        let mut req = RunRequest::new(app.name(), Config::Intra(IntraConfig::BMI), Scale::Test);
        req.fault = Some(FaultSpec::CorruptingRecover { seed: 2026 });
        audit(app.name(), app.run_req(&req));
    }
    for app in inter_apps(Scale::Test) {
        let mut req = RunRequest::new(app.name(), Config::Inter(InterConfig::AddrL), Scale::Test);
        req.fault = Some(FaultSpec::CorruptingRecover { seed: 2026 });
        audit(app.name(), app.run_req(&req));
    }
    assert!(
        checkpoint_words > 0,
        "no app ever captured a checkpoint under the recovery plan"
    );
    assert!(
        rollbacks > 0,
        "no app ever rolled back under seed 2026 — the suite tested nothing"
    );
}

/// The simulated-cycle watchdog converts a runaway run into a typed
/// `Hang` instead of burning host time forever.
#[test]
fn watchdog_converts_runaway_run_into_hang_error() {
    let (outcome, _) = run_workload(|p| {
        p.watchdog_cycles(10);
    });
    let Err(RunError::Hang { detail }) = outcome.result() else {
        unreachable!("expected a hang, got {:?}", outcome.result());
    };
    assert!(detail.contains("budget"), "{detail}");
    assert_eq!(outcome.result().unwrap_err().kind(), "hang");
}
