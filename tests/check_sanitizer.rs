//! End-to-end tests of the incoherence sanitizer (`hic-check`) through
//! the full runtime stack: seeded protocol bugs in the two communication
//! shapes the paper analyzes — barrier/plan epochs (Jacobi halo exchange,
//! §V) and flag-published task queues (Figure 4d) — must be flagged at
//! the first faulty access, with thread/address/epoch diagnostics; the
//! unmodified application suite must stay silent; and checking must not
//! perturb the simulated machine at all.

use hic_mem::Region;
use hic_runtime::{
    CheckMode, CommOp, Config, EpochPlan, FindingKind, FlagOpts, InterConfig, IntraConfig,
    ProgramBuilder, RunOutcome,
};

/// Words per boundary line a thread exchanges with one neighbor.
const LINE: u64 = 16;
/// Words each thread owns: a left boundary line + a right boundary line.
const OWN: u64 = 2 * LINE;

/// What to sabotage in the Jacobi-shape run.
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

/// A Jacobi-style halo exchange on the 4x8 inter-block machine: `n`
/// threads in a chain; each round every thread rewrites its two boundary
/// lines, write-backs each line to the matching neighbor, and after the
/// barrier invalidates + reads its neighbors' facing lines. `seeded`
/// removes exactly one WB or INV edge (in every round).
fn jacobi_shape(
    cfg: InterConfig,
    n: usize,
    rounds: usize,
    seeded: Seeded,
    mode: CheckMode,
) -> (RunOutcome, Region) {
    let mut p = ProgramBuilder::new(Config::Inter(cfg));
    p.check_mode(mode);
    let grid = p.alloc_named("grid", n as u64 * OWN);
    let bar = p.barrier_of(n);
    let out = p.run(n, move |ctx| {
        let t = ctx.tid();
        let base = t as u64 * OWN;
        // The line thread `o` shows to its left/right neighbor.
        let left_line = |o: u64| grid.slice(o * OWN, o * OWN + LINE);
        let right_line = |o: u64| grid.slice(o * OWN + LINE, o * OWN + OWN);

        // Warm copies of the neighbor lines this thread will read: the
        // per-round INV is what must keep them fresh.
        if t > 0 {
            for i in 0..LINE {
                ctx.read(grid, (t as u64 - 1) * OWN + LINE + i);
            }
        }
        if t + 1 < n {
            for i in 0..LINE {
                ctx.read(grid, (t as u64 + 1) * OWN + i);
            }
        }
        ctx.plan_barrier(bar);

        for r in 0..rounds {
            // Write phase: rewrite both boundary lines.
            for i in 0..OWN {
                ctx.write(
                    grid,
                    base + i,
                    (r as u32 + 1) * 100_000 + t as u32 * 100 + i as u32,
                );
            }
            let mut wb = EpochPlan::new();
            if t > 0 && seeded != (Seeded::DropWb { p: t, c: t - 1 }) {
                wb = wb.with_wb(CommOp::known(left_line(t as u64), ctx.thread(t - 1)));
            }
            if t + 1 < n && seeded != (Seeded::DropWb { p: t, c: t + 1 }) {
                wb = wb.with_wb(CommOp::known(right_line(t as u64), ctx.thread(t + 1)));
            }
            ctx.plan_wb(&wb);
            ctx.plan_barrier(bar);

            // Read phase: invalidate + read the facing neighbor lines.
            let mut inv = EpochPlan::new();
            if t > 0 && seeded != (Seeded::DropInv { p: t - 1, c: t }) {
                inv = inv.with_inv(CommOp::known(right_line(t as u64 - 1), ctx.thread(t - 1)));
            }
            if t + 1 < n && seeded != (Seeded::DropInv { p: t + 1, c: t }) {
                inv = inv.with_inv(CommOp::known(left_line(t as u64 + 1), ctx.thread(t + 1)));
            }
            ctx.plan_inv(&inv);
            if t > 0 {
                for i in 0..LINE {
                    ctx.read(grid, (t as u64 - 1) * OWN + LINE + i);
                }
            }
            if t + 1 < n {
                for i in 0..LINE {
                    ctx.read(grid, (t as u64 + 1) * OWN + i);
                }
            }
            ctx.plan_barrier(bar);
        }
    });
    (out, grid)
}

/// A task-queue shape (Figure 4d): the producer fills a task payload,
/// then publishes it through a flag; the consumer waits on the flag and
/// reads the payload. `raw_set`/`raw_wait` strip the WB / INV half of
/// the protocol from the respective side.
fn task_queue_shape(
    cfg: IntraConfig,
    raw_set: bool,
    raw_wait: bool,
    mode: CheckMode,
) -> (RunOutcome, Region) {
    const TASKS: u64 = 3;
    let mut p = ProgramBuilder::new(Config::Intra(cfg));
    p.check_mode(mode);
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
    let out = p.run(2, move |ctx| {
        if ctx.tid() == 1 {
            // Warm stale copies of every payload slot; the flag-side INV
            // must refresh them.
            for i in 0..TASKS * LINE {
                ctx.read(payload, i);
            }
        }
        // Order the warm-up without moving data (the sync protocol under
        // test is the flags').
        ctx.barrier_with(bar, hic_runtime::BarrierOpts::none());
        if ctx.tid() == 0 {
            for task in 0..TASKS {
                for i in 0..LINE {
                    ctx.write(payload, task * LINE + i, (task * 1000 + i + 1) as u32);
                }
                ctx.flag_set_opts(flags[task as usize], set_opts);
            }
        } else {
            for task in 0..TASKS {
                ctx.flag_wait_opts(flags[task as usize], wait_opts);
                for i in 0..LINE {
                    ctx.read(payload, task * LINE + i);
                }
            }
        }
    });
    (out, payload)
}

// ---------------------------------------------------------------------
// Seeded missing-WB / missing-INV bugs: Jacobi shape
// ---------------------------------------------------------------------

#[test]
fn jacobi_missing_wb_same_block_is_flagged() {
    let (out, grid) = jacobi_shape(
        InterConfig::Addr,
        9,
        2,
        Seeded::DropWb { p: 4, c: 5 },
        CheckMode::Report,
    );
    let diag = out.diagnostics();
    assert!(diag.count(FindingKind::MissingWb) >= 1, "{diag:?}");
    let f = diag
        .findings
        .iter()
        .find(|f| f.kind == FindingKind::MissingWb)
        .unwrap();
    assert_eq!(f.actor.0, 5, "the stale reader is the consumer");
    assert_eq!(f.writer.0, 4, "the delinquent writer is the producer");
    let region = f.region.as_deref().unwrap_or_default();
    assert!(region.starts_with("grid["), "{region}");
    // The faulty address lies in producer 4's right boundary line.
    let lo = grid.at(4 * OWN + LINE).0;
    let hi = grid.at(4 * OWN + OWN - 1).0;
    assert!(f.addr.0 >= lo && f.addr.0 <= hi, "{f:?}");
    assert!(f.write_epoch >= 1, "writer epoch recorded");
    assert!(f.at > 0, "faulty-access cycle recorded");
    assert!(f.observed != f.expected);
}

#[test]
fn jacobi_missing_wb_cross_block_is_flagged() {
    // Threads 7 (block 0) and 8 (block 1) are the cross-block pair.
    for cfg in [InterConfig::Addr, InterConfig::AddrL] {
        let (out, _) = jacobi_shape(cfg, 9, 2, Seeded::DropWb { p: 8, c: 7 }, CheckMode::Report);
        let diag = out.diagnostics();
        assert!(
            diag.count(FindingKind::MissingWb) >= 1,
            "{}: {diag:?}",
            cfg.name()
        );
        let f = diag
            .findings
            .iter()
            .find(|f| f.kind == FindingKind::MissingWb)
            .unwrap();
        assert_eq!((f.actor.0, f.writer.0), (7, 8), "{}", cfg.name());
    }
}

#[test]
fn jacobi_missing_inv_is_flagged() {
    for (cfg, p, c) in [
        (InterConfig::Addr, 3, 4),  // same block
        (InterConfig::AddrL, 3, 4), // same block, level-adaptive
        (InterConfig::AddrL, 7, 8), // cross block
    ] {
        let (out, _) = jacobi_shape(cfg, 9, 2, Seeded::DropInv { p, c }, CheckMode::Report);
        let diag = out.diagnostics();
        assert!(
            diag.count(FindingKind::MissingInv) >= 1,
            "{} p={p} c={c}: {diag:?}",
            cfg.name()
        );
        let f = diag
            .findings
            .iter()
            .find(|f| f.kind == FindingKind::MissingInv)
            .unwrap();
        assert_eq!((f.actor.0, f.writer.0), (c, p), "{}", cfg.name());
    }
}

#[test]
fn jacobi_unmodified_is_clean() {
    for cfg in [InterConfig::Addr, InterConfig::AddrL] {
        let (out, _) = jacobi_shape(cfg, 9, 3, Seeded::Nothing, CheckMode::Report);
        assert!(
            out.diagnostics().is_clean(),
            "{}: {:?}",
            cfg.name(),
            out.diagnostics()
        );
    }
}

// ---------------------------------------------------------------------
// Seeded bugs: task-queue shape
// ---------------------------------------------------------------------

#[test]
fn task_queue_raw_set_is_missing_wb() {
    let (out, payload) = task_queue_shape(IntraConfig::Base, true, false, CheckMode::Report);
    let diag = out.diagnostics();
    assert!(diag.count(FindingKind::MissingWb) >= 1, "{diag:?}");
    let f = diag
        .findings
        .iter()
        .find(|f| f.kind == FindingKind::MissingWb)
        .unwrap();
    assert_eq!((f.actor.0, f.writer.0), (1, 0));
    let region = f.region.as_deref().unwrap_or_default();
    assert!(region.starts_with("payload["), "{region}");
    assert!(f.addr.0 >= payload.at(0).0);
    // The hint names the sync operation that should have carried the WB.
    let hint = f.sync_hint.expect("flag-set hint");
    assert!(hint.to_string().contains("flag set"), "{hint}");
}

#[test]
fn task_queue_raw_wait_is_missing_inv() {
    let (out, _) = task_queue_shape(IntraConfig::Base, false, true, CheckMode::Report);
    let diag = out.diagnostics();
    assert!(diag.count(FindingKind::MissingInv) >= 1, "{diag:?}");
    let f = diag
        .findings
        .iter()
        .find(|f| f.kind == FindingKind::MissingInv)
        .unwrap();
    assert_eq!((f.actor.0, f.writer.0), (1, 0));
    let hint = f.sync_hint.expect("flag-wait hint");
    assert!(hint.to_string().contains("flag wait"), "{hint}");
}

#[test]
fn task_queue_annotated_is_clean() {
    for cfg in IntraConfig::ALL {
        if cfg.is_coherent() {
            continue;
        }
        let (out, _) = task_queue_shape(cfg, false, false, CheckMode::Report);
        assert!(
            out.diagnostics().is_clean(),
            "{}: {:?}",
            cfg.name(),
            out.diagnostics()
        );
    }
}

// ---------------------------------------------------------------------
// Strict mode aborts at the faulty access
// ---------------------------------------------------------------------

#[test]
fn strict_mode_aborts_with_a_rendered_diagnostic() {
    let (out, _) = task_queue_shape(IntraConfig::Base, true, false, CheckMode::Strict);
    let err = out
        .result()
        .expect_err("strict checking must abort the buggy run");
    assert_eq!(err.kind(), "check_fatal");
    let msg = err.to_string();
    assert!(msg.contains("incoherence detected"), "{msg}");
    assert!(msg.contains("stale read (missing WB)"), "{msg}");
}

// ---------------------------------------------------------------------
// Checking never perturbs the simulated machine
// ---------------------------------------------------------------------

#[test]
fn report_mode_is_cycle_identical_to_off() {
    let (off, _) = jacobi_shape(InterConfig::Addr, 9, 3, Seeded::Nothing, CheckMode::Off);
    let (rep, _) = jacobi_shape(InterConfig::Addr, 9, 3, Seeded::Nothing, CheckMode::Report);
    assert_eq!(off.stats().total_cycles, rep.stats().total_cycles);
    assert_eq!(off.traffic(), rep.traffic());
    assert_eq!(off.stats().counters, rep.stats().counters);
    assert_eq!(off.stats().ledgers, rep.stats().ledgers);

    let (off, _) = task_queue_shape(IntraConfig::BMI, false, false, CheckMode::Off);
    let (rep, _) = task_queue_shape(IntraConfig::BMI, false, false, CheckMode::Report);
    assert_eq!(off.stats().total_cycles, rep.stats().total_cycles);
    assert_eq!(off.traffic(), rep.traffic());
}

// ---------------------------------------------------------------------
// The unmodified application suite is silent under checking
// ---------------------------------------------------------------------

#[test]
fn app_suite_is_clean_under_report() {
    use hic_apps::{app_by_name, sweep_requests, Scale};
    use hic_runtime::Scheme;
    let checked = |scheme| {
        matches!(
            scheme,
            Scheme::Intra(IntraConfig::Base | IntraConfig::BMI)
                | Scheme::Inter(InterConfig::Addr | InterConfig::AddrL)
        )
    };
    for mut req in sweep_requests(Scale::Test)
        .into_iter()
        .filter(|r| checked(r.config.scheme()))
    {
        req.check = CheckMode::Report;
        let run = app_by_name(&req.app, req.scale)
            .expect("grid cells name suite apps")
            .run_req(&req);
        let cfg = req.config.name();
        assert!(run.correct, "{} broke under {cfg}", req.app);
        assert_eq!(run.diagnostics.mode, CheckMode::Report);
        assert!(
            run.diagnostics.is_clean(),
            "{} under {cfg}: {:?}",
            req.app,
            run.diagnostics
        );
    }
}
