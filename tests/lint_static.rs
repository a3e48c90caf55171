//! Static counterpart of `tests/check_sanitizer.rs`: every seeded
//! protocol bug the dynamic sanitizer flags at runtime must be proven by
//! `hic-lint` from the program's [`ProgramRecord`] alone — same finding
//! kind, same producer/consumer pair, and a word range containing every
//! faulty address the sanitizer observed — before a single cycle is
//! simulated. The unmodified shapes must lint clean.
//!
//! Each shape exists twice here, built from one shared plan source: a
//! dynamic run (exactly the check_sanitizer program, under
//! `CheckMode::Report`) and a record with the same epoch structure.

use hic_lint::lint;
use hic_mem::Region;
use hic_runtime::{
    CheckMode, CommOp, Config, EpochPlan, FindingKind, FlagOpts, InterConfig, IntraConfig,
    ProgramBuilder, ProgramRecord, RunOutcome,
};
use hic_sim::ThreadId;

/// Words per boundary line a thread exchanges with one neighbor.
const LINE: u64 = 16;
/// Words each thread owns: a left boundary line + a right boundary line.
const OWN: u64 = 2 * LINE;

/// What to sabotage in the Jacobi-shape program.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Seeded {
    Nothing,
    /// Producer `p` "forgets" the WB of its boundary toward consumer `c`.
    DropWb {
        p: usize,
        c: usize,
    },
    /// Consumer `c` "forgets" the INV of producer `p`'s boundary.
    DropInv {
        p: usize,
        c: usize,
    },
}

fn left_line(grid: Region, o: u64) -> Region {
    grid.slice(o * OWN, o * OWN + LINE)
}

fn right_line(grid: Region, o: u64) -> Region {
    grid.slice(o * OWN + LINE, o * OWN + OWN)
}

/// Thread `t`'s per-round WB/INV plans under the seeding — the single
/// plan source both the dynamic run and the record draw from, so the
/// two cannot drift.
fn round_plans(grid: Region, n: usize, t: usize, seeded: Seeded) -> (EpochPlan, EpochPlan) {
    let mut wb = EpochPlan::new();
    if t > 0 && seeded != (Seeded::DropWb { p: t, c: t - 1 }) {
        wb = wb.with_wb(CommOp::known(left_line(grid, t as u64), ThreadId(t - 1)));
    }
    if t + 1 < n && seeded != (Seeded::DropWb { p: t, c: t + 1 }) {
        wb = wb.with_wb(CommOp::known(right_line(grid, t as u64), ThreadId(t + 1)));
    }
    let mut inv = EpochPlan::new();
    if t > 0 && seeded != (Seeded::DropInv { p: t - 1, c: t }) {
        inv = inv.with_inv(CommOp::known(
            right_line(grid, t as u64 - 1),
            ThreadId(t - 1),
        ));
    }
    if t + 1 < n && seeded != (Seeded::DropInv { p: t + 1, c: t }) {
        inv = inv.with_inv(CommOp::known(
            left_line(grid, t as u64 + 1),
            ThreadId(t + 1),
        ));
    }
    (wb, inv)
}

/// The check_sanitizer Jacobi halo-exchange shape, run dynamically under
/// report-mode checking.
fn jacobi_dynamic(cfg: InterConfig, n: usize, rounds: usize, seeded: Seeded) -> RunOutcome {
    let mut p = ProgramBuilder::new(Config::Inter(cfg));
    p.check_mode(CheckMode::Report);
    let grid = p.alloc_named("grid", n as u64 * OWN);
    let bar = p.barrier_of(n);
    p.run_tasks(n, async move |ctx| {
        let t = ctx.tid();
        let base = t as u64 * OWN;
        // Warm copies of the neighbor lines this thread will read.
        if t > 0 {
            for i in 0..LINE {
                ctx.read(grid, (t as u64 - 1) * OWN + LINE + i).await;
            }
        }
        if t + 1 < n {
            for i in 0..LINE {
                ctx.read(grid, (t as u64 + 1) * OWN + i).await;
            }
        }
        ctx.plan_barrier(bar).await;
        let (wb, inv) = round_plans(grid, n, t, seeded);
        for r in 0..rounds {
            for i in 0..OWN {
                ctx.write(
                    grid,
                    base + i,
                    (r as u32 + 1) * 100_000 + t as u32 * 100 + i as u32,
                )
                .await;
            }
            ctx.plan_wb(&wb).await;
            ctx.plan_barrier(bar).await;
            ctx.plan_inv(&inv).await;
            if t > 0 {
                for i in 0..LINE {
                    ctx.read(grid, (t as u64 - 1) * OWN + LINE + i).await;
                }
            }
            if t + 1 < n {
                for i in 0..LINE {
                    ctx.read(grid, (t as u64 + 1) * OWN + i).await;
                }
            }
            ctx.plan_barrier(bar).await;
        }
    })
}

/// The same shape as a declarative record: region-summary reads/writes
/// instead of word loops, identical sync structure and plan call sites.
fn jacobi_record(
    cfg: InterConfig,
    n: usize,
    rounds: usize,
    seeded: Seeded,
) -> (ProgramRecord, Region) {
    let mut p = ProgramBuilder::new(Config::Inter(cfg));
    let grid = p.alloc_named("grid", n as u64 * OWN);
    let bar = p.barrier_of(n);
    let mut rec = p.record(n);
    for t in 0..n {
        let (wb, inv) = round_plans(grid, n, t, seeded);
        let mut th = rec.thread(t);
        if t > 0 {
            th.reads(right_line(grid, t as u64 - 1));
        }
        if t + 1 < n {
            th.reads(left_line(grid, t as u64 + 1));
        }
        th.plan_barrier(bar);
        for _ in 0..rounds {
            th.writes(grid.slice(t as u64 * OWN, t as u64 * OWN + OWN));
            th.plan_wb(&wb);
            th.plan_barrier(bar);
            th.plan_inv(&inv);
            if t > 0 {
                th.reads(right_line(grid, t as u64 - 1));
            }
            if t + 1 < n {
                th.reads(left_line(grid, t as u64 + 1));
            }
            th.plan_barrier(bar);
        }
    }
    (rec, grid)
}

const TASKS: u64 = 3;

/// The check_sanitizer flag-published task-queue shape (Figure 4d), run
/// dynamically under report-mode checking.
fn task_queue_dynamic(cfg: IntraConfig, raw_set: bool, raw_wait: bool) -> RunOutcome {
    let mut p = ProgramBuilder::new(Config::Intra(cfg));
    p.check_mode(CheckMode::Report);
    let payload = p.alloc_named("payload", TASKS * LINE);
    let flags: Vec<_> = (0..TASKS).map(|_| p.flag()).collect();
    let bar = p.barrier_of(2);
    let set_opts = if raw_set {
        FlagOpts::raw()
    } else {
        FlagOpts::annotated()
    };
    let wait_opts = if raw_wait {
        FlagOpts::raw()
    } else {
        FlagOpts::annotated()
    };
    p.run_tasks(2, async move |ctx| {
        if ctx.tid() == 1 {
            for i in 0..TASKS * LINE {
                ctx.read(payload, i).await;
            }
        }
        ctx.barrier_with(bar, hic_runtime::BarrierOpts::none())
            .await;
        if ctx.tid() == 0 {
            for task in 0..TASKS {
                for i in 0..LINE {
                    ctx.write(payload, task * LINE + i, (task * 1000 + i + 1) as u32)
                        .await;
                }
                ctx.flag_set_opts(flags[task as usize], set_opts).await;
            }
        } else {
            for task in 0..TASKS {
                ctx.flag_wait_opts(flags[task as usize], wait_opts).await;
                for i in 0..LINE {
                    ctx.read(payload, task * LINE + i).await;
                }
            }
        }
    })
}

/// The task-queue shape as a record.
fn task_queue_record(cfg: IntraConfig, raw_set: bool, raw_wait: bool) -> ProgramRecord {
    let mut p = ProgramBuilder::new(Config::Intra(cfg));
    let payload = p.alloc_named("payload", TASKS * LINE);
    let flags: Vec<_> = (0..TASKS).map(|_| p.flag()).collect();
    let bar = p.barrier_of(2);
    let mut rec = p.record(2);
    {
        let mut th = rec.thread(0);
        th.plan_barrier(bar);
        for task in 0..TASKS {
            th.writes(payload.slice(task * LINE, (task + 1) * LINE));
            th.flag_set(flags[task as usize], raw_set);
        }
    }
    {
        let mut th = rec.thread(1);
        th.reads(payload);
        th.plan_barrier(bar);
        for task in 0..TASKS {
            th.flag_wait(flags[task as usize], raw_wait);
            th.reads(payload.slice(task * LINE, (task + 1) * LINE));
        }
    }
    rec
}

/// Lint the record and require: a finding of `kind` naming exactly the
/// seeded producer/consumer pair, and a static explanation (same kind,
/// same pair, containing word range) for *every* finding the dynamic
/// sanitizer reported on the equivalent run.
fn assert_static_explains_dynamic(
    rec: &ProgramRecord,
    out: &RunOutcome,
    kind: FindingKind,
    producer: usize,
    consumer: usize,
) -> hic_lint::LintReport {
    let report = lint(rec);
    assert!(
        report.errors.is_empty(),
        "record errors: {:?}",
        report.errors
    );
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.kind == kind && f.producer.0 == producer && f.consumer.0 == consumer),
        "expected a static {kind:?} {producer} -> {consumer}; got:\n{}",
        report.render()
    );
    let diag = out.diagnostics();
    assert!(
        diag.count(kind) >= 1,
        "dynamic sanitizer was silent: {diag:?}"
    );
    for f in &diag.findings {
        assert!(
            report.covers(f),
            "dynamic finding has no static explanation: {f:?}\nstatic report:\n{}",
            report.render()
        );
    }
    report
}

// ---------------------------------------------------------------------
// Jacobi shape: seeded missing-WB / missing-INV bugs
// ---------------------------------------------------------------------

#[test]
fn jacobi_record_missing_wb_same_block_is_proven() {
    let seeded = Seeded::DropWb { p: 4, c: 5 };
    let out = jacobi_dynamic(InterConfig::Addr, 9, 2, seeded);
    let (rec, grid) = jacobi_record(InterConfig::Addr, 9, 2, seeded);
    let report = assert_static_explains_dynamic(&rec, &out, FindingKind::MissingWb, 4, 5);
    // The static range is exactly producer 4's right boundary line.
    let f = report
        .findings
        .iter()
        .find(|f| f.kind == FindingKind::MissingWb)
        .unwrap();
    let line = right_line(grid, 4);
    assert!(f.start.0 >= line.start.0, "{f:?}");
    assert!(f.start.0 + f.words <= line.start.0 + line.words, "{f:?}");
    let region = f.region.as_deref().unwrap_or_default();
    assert!(region.starts_with("grid["), "{region}");
    assert!(f.sync_hint.is_some(), "the producer's barrier is the hint");
}

#[test]
fn jacobi_record_missing_wb_cross_block_is_proven() {
    // Threads 7 (block 0) and 8 (block 1) are the cross-block pair.
    for cfg in [InterConfig::Addr, InterConfig::AddrL] {
        let seeded = Seeded::DropWb { p: 8, c: 7 };
        let out = jacobi_dynamic(cfg, 9, 2, seeded);
        let (rec, _) = jacobi_record(cfg, 9, 2, seeded);
        assert_static_explains_dynamic(&rec, &out, FindingKind::MissingWb, 8, 7);
    }
}

#[test]
fn jacobi_record_missing_inv_is_proven() {
    for (cfg, p, c) in [
        (InterConfig::Addr, 3, 4),  // same block
        (InterConfig::AddrL, 3, 4), // same block, level-adaptive
        (InterConfig::AddrL, 7, 8), // cross block
    ] {
        let seeded = Seeded::DropInv { p, c };
        let out = jacobi_dynamic(cfg, 9, 2, seeded);
        let (rec, _) = jacobi_record(cfg, 9, 2, seeded);
        assert_static_explains_dynamic(&rec, &out, FindingKind::MissingInv, p, c);
    }
}

#[test]
fn jacobi_record_unmodified_is_clean() {
    for cfg in [InterConfig::Base, InterConfig::Addr, InterConfig::AddrL] {
        let (rec, _) = jacobi_record(cfg, 9, 3, Seeded::Nothing);
        let report = lint(&rec);
        assert!(report.is_clean(), "{}:\n{}", cfg.name(), report.render());
        assert!(report.checks > 0, "the verifier did observe the reads");
    }
}

// ---------------------------------------------------------------------
// Task-queue shape: raw flag halves
// ---------------------------------------------------------------------

#[test]
fn task_queue_record_raw_set_is_missing_wb() {
    let out = task_queue_dynamic(IntraConfig::Base, true, false);
    let rec = task_queue_record(IntraConfig::Base, true, false);
    let report = assert_static_explains_dynamic(&rec, &out, FindingKind::MissingWb, 0, 1);
    let f = report
        .findings
        .iter()
        .find(|f| f.kind == FindingKind::MissingWb)
        .unwrap();
    let region = f.region.as_deref().unwrap_or_default();
    assert!(region.starts_with("payload["), "{region}");
    // The hint names the sync op that should have carried the WB.
    let hint = f.sync_hint.expect("flag-set hint");
    assert!(hint.to_string().contains("flag set"), "{hint}");
}

#[test]
fn task_queue_record_raw_wait_is_missing_inv() {
    let out = task_queue_dynamic(IntraConfig::Base, false, true);
    let rec = task_queue_record(IntraConfig::Base, false, true);
    let report = assert_static_explains_dynamic(&rec, &out, FindingKind::MissingInv, 0, 1);
    let f = report
        .findings
        .iter()
        .find(|f| f.kind == FindingKind::MissingInv)
        .unwrap();
    let hint = f.sync_hint.expect("flag-wait hint");
    assert!(hint.to_string().contains("flag wait"), "{hint}");
}

#[test]
fn task_queue_record_annotated_is_clean() {
    for cfg in IntraConfig::ALL {
        if cfg.is_coherent() {
            continue;
        }
        let rec = task_queue_record(cfg, false, false);
        let report = lint(&rec);
        assert!(report.is_clean(), "{}:\n{}", cfg.name(), report.render());
    }
}
