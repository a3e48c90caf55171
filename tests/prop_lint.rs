//! Differential property tests for `hic-lint` against the dynamic
//! sanitizer, on the same random epoch programs as `tests/prop_check.rs`:
//!
//! * the static verifier flags a plan deletion **iff** the dynamic
//!   sanitizer trips on the equivalent run — same finding kind, same
//!   producer/consumer pair, and every dynamic finding inside a static
//!   range;
//! * the optimizer's minimized plans re-verify clean, run finding-free
//!   under strict checking, leave the simulated memory bit-identical,
//!   and strictly reduce WB/INV flit traffic.
//!
//! Randomized with the in-repo deterministic `SplitMix64` (fixed seeds)
//! so failures are reproducible.

use hic_apps::inter::cg::Cg;
use hic_apps::inter::jacobi::Jacobi;
use hic_apps::{App, Scale};
use hic_lint::{lint, optimize};
use hic_mem::Region;
use hic_runtime::{
    CheckMode, CommOp, Config, EpochPlan, FindingKind, InterConfig, PlanOverrides, ProgramBuilder,
    ProgramRecord, RunOutcome, RunRequest,
};
use hic_sim::{SplitMix64, ThreadId};

/// Threads in the program: blocks 0 (cores 0-7) and 1 (core 8), so the
/// random edges cover same-block and cross-block communication.
const N: usize = 9;
/// Words per thread-owned slice (one cache line).
const SLICE: u64 = 16;

/// One planned producer -> consumer transfer in one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Edge {
    p: usize,
    c: usize,
}

/// A random communication schedule: per round, a set of edges with
/// pairwise-distinct producers (so deleting one WB cannot be masked by
/// another WB of the same region in the same round).
fn random_schedule(rng: &mut SplitMix64) -> Vec<Vec<Edge>> {
    let rounds = 2 + (rng.next_u64() % 3) as usize; // 2..=4
    (0..rounds)
        .map(|_| {
            let mut edges: Vec<Edge> = Vec::new();
            let want = 1 + (rng.next_u64() % 5) as usize; // 1..=5
            while edges.len() < want {
                let p = (rng.next_u64() % N as u64) as usize;
                let c = (rng.next_u64() % N as u64) as usize;
                if p == c || edges.iter().any(|e| e.p == p) {
                    continue;
                }
                edges.push(Edge { p, c });
            }
            edges
        })
        .collect()
}

/// Deleted plan entry: (round, edge index, true = the WB half).
type Deletion = Option<(usize, usize, bool)>;

/// The schedule run dynamically under report-mode checking — the same
/// program as `tests/prop_check.rs`.
fn run_schedule(
    cfg: InterConfig,
    schedule: &[Vec<Edge>],
    deletion: Deletion,
) -> hic_runtime::Diagnostics {
    let schedule = schedule.to_vec();
    let mut p = ProgramBuilder::new(Config::Inter(cfg));
    p.check_mode(CheckMode::Report);
    let data = p.alloc_named("data", N as u64 * SLICE);
    let bar = p.barrier_of(N);
    let out = p.run(N, move |ctx| {
        let t = ctx.tid();
        let slice_of = |o: usize| data.slice(o as u64 * SLICE, (o as u64 + 1) * SLICE);
        for o in 0..N {
            if o != t {
                for i in 0..SLICE {
                    ctx.read(data, o as u64 * SLICE + i);
                }
            }
        }
        ctx.plan_barrier(bar);
        for (r, edges) in schedule.iter().enumerate() {
            for i in 0..SLICE {
                ctx.write(
                    data,
                    t as u64 * SLICE + i,
                    (r as u32 + 1) * 10_000 + t as u32 * 100 + i as u32,
                );
            }
            let mut wb = EpochPlan::new();
            for (ei, e) in edges.iter().enumerate() {
                if e.p == t && deletion != Some((r, ei, true)) {
                    wb = wb.with_wb(CommOp::known(slice_of(e.p), ctx.thread(e.c)));
                }
            }
            ctx.plan_wb(&wb);
            ctx.plan_barrier(bar);
            let mut inv = EpochPlan::new();
            for (ei, e) in edges.iter().enumerate() {
                if e.c == t && deletion != Some((r, ei, false)) {
                    inv = inv.with_inv(CommOp::known(slice_of(e.p), ctx.thread(e.p)));
                }
            }
            ctx.plan_inv(&inv);
            for e in edges.iter() {
                if e.c == t {
                    for i in 0..SLICE {
                        ctx.read(data, e.p as u64 * SLICE + i);
                    }
                }
            }
            ctx.plan_barrier(bar);
        }
    });
    out.diagnostics().clone()
}

/// The same schedule as a declarative record: region summaries instead
/// of word loops, identical sync structure and plan call sites.
fn schedule_record(cfg: InterConfig, schedule: &[Vec<Edge>], deletion: Deletion) -> ProgramRecord {
    let mut p = ProgramBuilder::new(Config::Inter(cfg));
    let data = p.alloc_named("data", N as u64 * SLICE);
    let bar = p.barrier_of(N);
    let mut rec = p.record(N);
    let slice_of = |o: usize| data.slice(o as u64 * SLICE, (o as u64 + 1) * SLICE);
    for t in 0..N {
        let mut th = rec.thread(t);
        for o in 0..N {
            if o != t {
                th.reads(slice_of(o));
            }
        }
        th.plan_barrier(bar);
        for (r, edges) in schedule.iter().enumerate() {
            th.writes(slice_of(t));
            let mut wb = EpochPlan::new();
            for (ei, e) in edges.iter().enumerate() {
                if e.p == t && deletion != Some((r, ei, true)) {
                    wb = wb.with_wb(CommOp::known(slice_of(e.p), ThreadId(e.c)));
                }
            }
            th.plan_wb(&wb);
            th.plan_barrier(bar);
            let mut inv = EpochPlan::new();
            for (ei, e) in edges.iter().enumerate() {
                if e.c == t && deletion != Some((r, ei, false)) {
                    inv = inv.with_inv(CommOp::known(slice_of(e.p), ThreadId(e.p)));
                }
            }
            th.plan_inv(&inv);
            for e in edges.iter() {
                if e.c == t {
                    th.reads(slice_of(e.p));
                }
            }
            th.plan_barrier(bar);
        }
    }
    rec
}

// ---------------------------------------------------------------------
// The static verifier agrees with the dynamic sanitizer
// ---------------------------------------------------------------------

#[test]
fn lint_flags_a_deletion_iff_the_sanitizer_trips() {
    let mut rng = SplitMix64::new(0x11C7_57A7);
    for case in 0..10 {
        let schedule = random_schedule(&mut rng);
        let cfg = if case % 2 == 0 {
            InterConfig::Addr
        } else {
            InterConfig::AddrL
        };

        // Unmodified plans: both sides silent.
        let diag = run_schedule(cfg, &schedule, None);
        let report = lint(&schedule_record(cfg, &schedule, None));
        assert!(diag.is_clean(), "case {case}: {diag:?}");
        assert!(
            report.is_clean(),
            "case {case} ({}) schedule {schedule:?}:\n{}",
            cfg.name(),
            report.render()
        );
        assert!(report.checks > 0, "the verifier did observe the reads");

        // One random deleted WB or INV: both sides flag the same edge,
        // and every dynamic finding lies inside a static range.
        let r = (rng.next_u64() % schedule.len() as u64) as usize;
        let ei = (rng.next_u64() % schedule[r].len() as u64) as usize;
        let drop_wb = rng.next_u64().is_multiple_of(2);
        let edge = schedule[r][ei];
        let deletion = Some((r, ei, drop_wb));
        let diag = run_schedule(cfg, &schedule, deletion);
        let report = lint(&schedule_record(cfg, &schedule, deletion));
        let expect = if drop_wb {
            FindingKind::MissingWb
        } else {
            FindingKind::MissingInv
        };
        assert!(
            diag.count(expect) >= 1,
            "case {case}: the sanitizer missed the deletion: {diag:?}"
        );
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.kind == expect && f.producer.0 == edge.p && f.consumer.0 == edge.c),
            "case {case} ({}) deleted {} of {edge:?} in round {r}; static report:\n{}",
            cfg.name(),
            if drop_wb { "WB" } else { "INV" },
            report.render()
        );
        for f in &diag.findings {
            assert!(
                report.covers(f),
                "case {case}: dynamic finding not statically explained: {f:?}\n{}",
                report.render()
            );
        }
    }
}

// ---------------------------------------------------------------------
// Minimized plans: bit-identical memory, strictly less WB/INV traffic
// ---------------------------------------------------------------------

/// A producer/consumer program with deliberate plan redundancy: the WB
/// plan writes `data` back twice and also writes back a `scratch` region
/// nobody ever reads; the INV plan invalidates `data` twice plus
/// `scratch`, of which the consumer holds no copy. Only one WB and one
/// INV of `data` do any work.
fn redundant_dynamic(cfg: InterConfig, overrides: Option<PlanOverrides>) -> (RunOutcome, Region) {
    let mut p = ProgramBuilder::new(Config::Inter(cfg));
    p.check_mode(CheckMode::Strict);
    let data = p.alloc_named("data", SLICE);
    let scratch = p.alloc_named("scratch", 4 * SLICE);
    let bar = p.barrier_of(2);
    if let Some(o) = overrides {
        p.override_plans(o);
    }
    let out = p.run(2, move |ctx| {
        let t = ctx.tid();
        if t == 1 {
            for i in 0..SLICE {
                ctx.read(data, i); // warm a (stale-to-be) copy
            }
        }
        ctx.plan_barrier(bar);
        if t == 0 {
            for i in 0..SLICE {
                ctx.write(data, i, 7000 + i as u32);
            }
            for i in 0..4 * SLICE {
                ctx.write(scratch, i, 9000 + i as u32);
            }
            ctx.plan_wb(
                &EpochPlan::new()
                    .with_wb(CommOp::unknown(data))
                    .with_wb(CommOp::unknown(data))
                    .with_wb(CommOp::unknown(scratch)),
            );
        } else {
            ctx.plan_wb(&EpochPlan::new());
        }
        ctx.plan_barrier(bar);
        if t == 1 {
            ctx.plan_inv(
                &EpochPlan::new()
                    .with_inv(CommOp::unknown(data))
                    .with_inv(CommOp::unknown(data))
                    .with_inv(CommOp::unknown(scratch)),
            );
            for i in 0..SLICE {
                ctx.read(data, i);
            }
        } else {
            ctx.plan_inv(&EpochPlan::new());
        }
        ctx.plan_barrier(bar);
    });
    (out, data)
}

/// The redundant program as a record, for the optimizer.
fn redundant_record(cfg: InterConfig) -> ProgramRecord {
    let mut p = ProgramBuilder::new(Config::Inter(cfg));
    let data = p.alloc_named("data", SLICE);
    let scratch = p.alloc_named("scratch", 4 * SLICE);
    let bar = p.barrier_of(2);
    let mut rec = p.record(2);
    {
        let mut th = rec.thread(0);
        th.plan_barrier(bar);
        th.writes(data);
        th.writes(scratch);
        th.plan_wb(
            &EpochPlan::new()
                .with_wb(CommOp::unknown(data))
                .with_wb(CommOp::unknown(data))
                .with_wb(CommOp::unknown(scratch)),
        );
        th.plan_barrier(bar);
        th.plan_inv(&EpochPlan::new());
        th.plan_barrier(bar);
    }
    {
        let mut th = rec.thread(1);
        th.reads(data);
        th.plan_barrier(bar);
        th.plan_wb(&EpochPlan::new());
        th.plan_barrier(bar);
        th.plan_inv(
            &EpochPlan::new()
                .with_inv(CommOp::unknown(data))
                .with_inv(CommOp::unknown(data))
                .with_inv(CommOp::unknown(scratch)),
        );
        th.reads(data);
        th.plan_barrier(bar);
    }
    rec
}

#[test]
fn minimized_plans_keep_memory_bit_identical_and_cut_flits() {
    for cfg in [InterConfig::Addr, InterConfig::AddrL] {
        let rec = redundant_record(cfg);
        let out = optimize(&rec);
        assert!(
            out.report.is_clean(),
            "{}:\n{}",
            cfg.name(),
            out.report.render()
        );
        assert!(
            out.reverify.is_clean(),
            "{}:\n{}",
            cfg.name(),
            out.reverify.render()
        );
        assert!(!out.stats.fallback);
        // 6 planned ops; only one WB and one INV of `data` survive.
        assert_eq!(out.stats.ops_before, 6, "{}", cfg.name());
        assert_eq!(out.stats.ops_after, 2, "{}: {:?}", cfg.name(), out.stats);
        assert_eq!(out.stats.pruned, 4, "{}: {:?}", cfg.name(), out.stats);

        // Both runs are under strict checking: a single stale read would
        // abort. The minimized plans must leave the readable memory
        // bit-identical and strictly reduce WB flit traffic (the pruned
        // scratch WB moved 4 dirty lines).
        let (base, data) = redundant_dynamic(cfg, None);
        let (opt, _) = redundant_dynamic(cfg, Some(out.overrides));
        assert!(opt.diagnostics().is_clean());
        assert_eq!(
            base.peek_all(data),
            opt.peek_all(data),
            "{}: minimized plans changed the result",
            cfg.name()
        );
        let (tb, to) = (base.traffic(), opt.traffic());
        assert!(
            to.writeback < tb.writeback,
            "{}: writeback flits {} !< {}",
            cfg.name(),
            to.writeback,
            tb.writeback
        );
        assert!(
            to.invalidation <= tb.invalidation,
            "{}: invalidation flits grew",
            cfg.name()
        );
    }
}

// ---------------------------------------------------------------------
// Optimized app plans: correct, finding-free, cheaper
// ---------------------------------------------------------------------

/// Record -> optimize -> re-run with the minimized plans installed at
/// the same call sites, under strict checking (any stale read aborts). The optimized run must still match the host reference,
/// execute strictly fewer WB/INV instructions, and never spend more
/// WB/INV flits. `expect_flit_cut` additionally requires a strict flit
/// reduction — true where the minimized plans drop or downgrade ops
/// that moved real data, false where everything pruned was already a
/// machine-level no-op (an INV of absent copies costs instructions and
/// plan-issue time, not flits).
fn check_optimized_app(app: &dyn App, config: Config, expect_flit_cut: bool) {
    let rec = app.record(config).expect("app has a recorded form");
    let out = optimize(&rec);
    assert!(
        out.report.is_clean(),
        "{} {}:\n{}",
        app.name(),
        config.name(),
        out.report.render()
    );
    assert!(out.reverify.is_clean());
    assert!(!out.stats.fallback);
    assert!(
        out.stats.ops_after < out.stats.ops_before,
        "{} {}: nothing optimized: {:?}",
        app.name(),
        config.name(),
        out.stats
    );

    let mut req = RunRequest::new(app.name(), config, app.scale());
    req.check = CheckMode::Strict;
    let base = app.run_req(&req);
    req.plan_overrides = Some(out.overrides);
    let opt = app.run_req(&req);
    assert!(
        base.correct,
        "{} {}: {}",
        app.name(),
        config.name(),
        base.detail
    );
    assert!(
        opt.correct,
        "{} {} with minimized plans: {}",
        app.name(),
        config.name(),
        opt.detail
    );
    assert!(opt.diagnostics.is_clean(), "{:?}", opt.diagnostics);

    let (cb, co) = (&base.stats.counters, &opt.stats.counters);
    let base_ops = cb.local_wbs + cb.global_wbs + cb.local_invs + cb.global_invs;
    let opt_ops = co.local_wbs + co.global_wbs + co.local_invs + co.global_invs;
    assert!(
        opt_ops < base_ops,
        "{} {}: executed WB/INV instructions {} !< {}",
        app.name(),
        config.name(),
        opt_ops,
        base_ops
    );

    let (tb, to) = (&base.stats.traffic, &opt.stats.traffic);
    assert!(
        to.writeback + to.invalidation <= tb.writeback + tb.invalidation,
        "{} {}: WB+INV flits grew: {} > {}",
        app.name(),
        config.name(),
        to.writeback + to.invalidation,
        tb.writeback + tb.invalidation
    );
    if expect_flit_cut {
        assert!(
            to.writeback + to.invalidation < tb.writeback + tb.invalidation,
            "{} {}: WB+INV flits {} !< {}",
            app.name(),
            config.name(),
            to.writeback + to.invalidation,
            tb.writeback + tb.invalidation
        );
    }
}

#[test]
fn optimized_jacobi_is_correct_clean_and_cheaper() {
    // Jacobi's prunable ops are the first-iteration INVs of halo rows no
    // thread has copies of yet: instruction and plan-issue savings, no
    // flits moved either way.
    for cfg in [InterConfig::Addr, InterConfig::AddrL] {
        check_optimized_app(&Jacobi::new(Scale::Test), Config::Inter(cfg), false);
    }
}

#[test]
fn optimized_cg_is_correct_clean_and_cheaper() {
    // Under Addr+L the optimizer downgrades CG's scalar INVs for
    // block-0 readers from global to block-local, a real flit cut.
    check_optimized_app(
        &Cg::new(Scale::Test),
        Config::Inter(InterConfig::AddrL),
        true,
    );
}
