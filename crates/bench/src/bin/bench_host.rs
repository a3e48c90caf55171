//! Host-performance regression benchmark.
//!
//! Runs the 71-cell paper grid on the host clock and writes
//! `BENCH_host.json` with suite wall-clock, sim-ops/sec, and the engine
//! ledger, so simulator performance is tracked PR over PR.
//!
//! Usage: `bench_host [--scale <scale>] [--baseline <secs>]
//!                    [--out <path>] [--micro] [--check] [--faults] [--lint]
//!                    [--geometry] [--parallel]`
//!
//! `--baseline` records a pre-change wall-clock (seconds) in the JSON and
//! computes the speedup against it; when omitted, the previous report at
//! `--out` (if any) supplies the baseline, so the trajectory is tracked
//! PR over PR without manual bookkeeping. `--micro` additionally runs the
//! micro-benchmarks from the in-repo harness and embeds their timings.
//! `--check` times the incoherent half of the suite with the incoherence
//! sanitizer off and in Report mode and records the overhead (the checked
//! sweep must stay finding-free). `--faults` times the incoherent half of
//! the suite clean and under the canned recoverable fault plan
//! (`FaultSpec::Recoverable`, seed 2026) and records retry counts, recovery traffic, and the
//! host-time overhead (the faulted sweep must stay correct). `--lint`
//! statically verifies and optimizes every recorded app with `hic-lint`,
//! records the verify / optimize host times, and simulates each app with
//! the original and the minimized plans to record the WB/INV traffic
//! deltas. `--geometry` runs the inter-block suite across the swept
//! topology grid (2x2x2 through 8x8x4) under the three protocol
//! families — incoherent Base, invalidation-based HCC (MESI), and
//! update-based Dragon — and records cycles plus per-category traffic
//! for every (shape, scheme, app) cell. `--parallel` sweeps the suite
//! under the `Linear` oracle and the default engine, interleaved,
//! asserting bit-identical simulated results on every sweep and
//! recording both engines' suite walls.

use std::process::ExitCode;

use hic_apps::Scale;
use hic_bench::cli::parse_scale;
use hic_bench::host::{
    run_check_overhead, run_fault_suite, run_geometry_matrix, run_lint_suite, run_parallel_suite,
    run_suite, to_json,
};
use hic_bench::{bench_with_setup, Timing};
use hic_runtime::{Config, IntraConfig, ProgramBuilder};
use hic_sim::Json;

fn micro_timings() -> Vec<Timing> {
    // A small, representative micro set: one communication-heavy kernel
    // under the baseline config, measured end to end.
    let cfg = IntraConfig::ALL[0];
    vec![bench_with_setup(
        "micro/flag_ping_pong_64",
        || (),
        move |()| {
            let mut p = ProgramBuilder::new(Config::Intra(cfg));
            let flag = p.flag();
            let bar = p.barrier_of(2);
            let data = p.alloc(16);
            p.run(2, move |ctx| {
                for round in 0..64u32 {
                    if ctx.tid() == 0 {
                        ctx.write(data, 0, round);
                        ctx.flag_set(flag);
                    } else {
                        ctx.flag_wait(flag);
                        ctx.read(data, 0);
                        ctx.flag_clear(flag);
                    }
                    ctx.barrier(bar);
                }
            })
        },
    )]
}

fn main() -> ExitCode {
    let mut baseline: Option<f64> = None;
    let mut out_path = "BENCH_host.json".to_string();
    let mut micro = false;
    let mut check = false;
    let mut faults = false;
    let mut lint = false;
    let mut geometry = false;
    let mut parallel = false;
    // Fixed seed for the canned fault plan: the sweep must be exactly
    // reproducible PR over PR.
    const FAULT_SEED: u64 = 2026;

    let argv: Vec<String> = std::env::args().skip(1).collect();
    let scale = parse_scale(&argv, Scale::Small);
    let mut args = argv.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                // Value already consumed by `parse_scale`.
                args.next();
            }
            "--baseline" => {
                baseline = match args.next().map(|v| v.parse::<f64>()) {
                    Some(Ok(v)) => Some(v),
                    _ => {
                        eprintln!("--baseline needs a number of seconds");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--out" => match args.next() {
                Some(p) => out_path = p,
                None => {
                    eprintln!("--out needs a path");
                    return ExitCode::FAILURE;
                }
            },
            "--micro" => micro = true,
            "--check" => check = true,
            "--faults" => faults = true,
            "--lint" => lint = true,
            "--geometry" => geometry = true,
            "--parallel" => parallel = true,
            other => {
                eprintln!("unknown argument {other:?}");
                eprintln!(
                    "usage: bench_host [--scale test|small|medium|large|paper] \
                     [--baseline <secs>] [--out <path>] [--micro] [--check] [--faults] \
                     [--lint] [--geometry] [--parallel]"
                );
                return ExitCode::FAILURE;
            }
        }
    }

    // Populate the baseline from the previous report at `--out` when not
    // given explicitly: the last recorded `wall_s` is exactly the
    // pre-change suite wall this run should be compared against.
    if baseline.is_none() {
        baseline = std::fs::read_to_string(&out_path)
            .ok()
            .and_then(|prev| Json::parse(&prev).ok()?.get("wall_s")?.as_f64());
    }

    let mut report = run_suite(scale);
    if micro {
        report.timings = micro_timings();
    }
    if check {
        report.check = Some(run_check_overhead(scale));
    }
    if faults {
        report.faults = Some(run_fault_suite(scale, FAULT_SEED));
    }
    if lint {
        report.lint = run_lint_suite(scale);
    }
    if geometry {
        report.geometry = run_geometry_matrix(scale);
    }
    if parallel {
        report.parallel = Some(run_parallel_suite(scale));
    }

    let wall = report.wall.as_secs_f64();
    println!(
        "suite --scale {}: {} runs, wall {:.3}s, {:.0} sim-ops/s, {} round-trips",
        report.scale,
        report.runs.len(),
        wall,
        report.sim_ops_per_sec(),
        report.total_round_trips(),
    );
    for r in &report.runs {
        println!(
            "  {:<16} {:<8} {:>9.3}s  {:>12} ops  {:>10} rt  {}",
            r.app,
            r.config,
            r.wall.as_secs_f64(),
            r.engine.ops_executed,
            r.engine.round_trips,
            if r.correct { "ok" } else { "FAIL" },
        );
    }
    if let Some(b) = baseline {
        println!("baseline {:.3}s -> speedup {:.2}x", b, b / wall.max(1e-9));
    }
    if let Some(c) = &report.check {
        println!(
            "sanitizer: {} word checks, {:.3}s off -> {:.3}s report ({:+.1}% host time), {}",
            c.checks,
            c.wall_off.as_secs_f64(),
            c.wall_report.as_secs_f64(),
            c.overhead_pct(),
            if c.clean { "clean" } else { "FINDINGS" },
        );
    }

    if let Some(fo) = &report.faults {
        println!(
            "faults (seed {}): {:.3}s clean -> {:.3}s faulted ({:+.1}% host time), \
             {} retries / {} retry flits, {} flips ({} recovered, {} recovery flits), \
             {} delayed acks, {}",
            fo.seed,
            fo.wall_clean.as_secs_f64(),
            fo.wall_faulted.as_secs_f64(),
            fo.overhead_pct(),
            fo.stats.retries,
            fo.stats.retry_flits,
            fo.stats.bit_flips,
            fo.stats.flips_recovered,
            fo.stats.recovery_flits,
            fo.stats.delayed_acks,
            if fo.correct {
                "correct"
            } else {
                "WRONG RESULTS"
            },
        );
        println!(
            "recovery (seed {}): {:.3}s clean -> {:.3}s corrupting+rollback \
             ({:+.1}% host time), {} rollbacks / {} rollback cycles, \
             {} checkpoint words, {}",
            fo.seed,
            fo.wall_clean.as_secs_f64(),
            fo.wall_recovered.as_secs_f64(),
            fo.recover_overhead_pct(),
            fo.recover_stats.rollbacks,
            fo.recover_stats.rollback_cycles,
            fo.recover_stats.checkpoint_words,
            if fo.recover_correct {
                "correct"
            } else {
                "WRONG RESULTS"
            },
        );
    }

    for l in &report.lint {
        println!(
            "lint: {:<8} {:<6} verify {:>7.3}ms opt {:>7.3}ms | plan ops {} -> {} \
             ({} pruned, {} downgraded) | WB+INV flits {} -> {} ({:+.1}%) | {}",
            l.app,
            l.config,
            l.verify.as_secs_f64() * 1e3,
            l.optimize.as_secs_f64() * 1e3,
            l.ops_before,
            l.ops_after,
            l.pruned,
            l.downgraded,
            l.flits_before,
            l.flits_after,
            -l.flit_savings_pct(),
            if l.clean && l.correct { "ok" } else { "FAIL" },
        );
    }

    if let Some(p) = &report.parallel {
        let walls = |ws: &[std::time::Duration]| {
            ws.iter()
                .map(|w| format!("{:.3}", w.as_secs_f64()))
                .collect::<Vec<_>>()
                .join(" ")
        };
        println!(
            "parallel: {} host cores, oracle [{}]s, default [{}]s, {:.2}x, {}",
            p.host_cores,
            walls(&p.oracle_walls),
            walls(&p.engine_walls),
            p.speedup(),
            if p.all_correct() {
                "every sweep bit-identical"
            } else {
                "ENGINE MISMATCH"
            },
        );
    }

    for g in &report.geometry {
        println!(
            "geometry: {:<8} {:<7} {:<8} {:>12} cycles | flits: {} fill, {} wb, {} inv, \
             {} mem, {} l2l3 | {}",
            g.shape,
            g.scheme,
            g.app,
            g.cycles,
            g.traffic.linefill,
            g.traffic.writeback,
            g.traffic.invalidation,
            g.traffic.memory,
            g.traffic.l2l3,
            if g.correct { "ok" } else { "FAIL" },
        );
    }

    let json = to_json(&report, baseline);
    if let Err(e) = std::fs::write(&out_path, format!("{json}\n")) {
        eprintln!("failed to write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out_path}");

    if !report.all_correct() {
        eprintln!("some runs produced incorrect results");
        return ExitCode::FAILURE;
    }
    if report.check.as_ref().is_some_and(|c| !c.clean) {
        eprintln!("the sanitizer flagged the unmodified suite");
        return ExitCode::FAILURE;
    }
    if report.faults.as_ref().is_some_and(|fo| !fo.correct) {
        eprintln!("a recoverable fault plan changed application results");
        return ExitCode::FAILURE;
    }
    if report.lint.iter().any(|l| !l.clean || !l.correct) {
        eprintln!("hic-lint flagged a record or a minimized run went wrong");
        return ExitCode::FAILURE;
    }
    if report.parallel.as_ref().is_some_and(|p| !p.all_correct()) {
        eprintln!("the default engine diverged from the linear oracle");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
