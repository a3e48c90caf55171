//! Host-performance regression benchmark.
//!
//! Runs the 71-cell paper grid on the host clock and writes
//! `BENCH_host.json` with suite wall-clock, sim-ops/sec, and the engine
//! ledger (per run: ops executed, ops run inline, suspensions — printed
//! as `rt` — and wakeups), so simulator performance is tracked PR over
//! PR.
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
use hic_bench::{bench, Timing};
use hic_machine::Machine;
use hic_runtime::{Config, InterConfig, IntraConfig, ProgramBuilder};
use hic_sim::{Json, MachineConfig, TopologyBuilder};

fn micro_timings() -> Vec<Timing> {
    // A small, representative micro set: one communication-heavy kernel
    // under the baseline config, measured end to end (its ops mostly
    // wait for the `(time, core)` order, so it times the yield path), one
    // kernel whose ops after the first misses are all L1 hits (it times
    // the path of ops that run at once), and the per-run fixed cost —
    // building the 4x8 inter-block machine, an empty run on a 2x2
    // machine, and a short run that first touches every L2 and L3 bank of
    // the 4x8 machine.
    let cfg = IntraConfig::ALL[0];
    let inter = MachineConfig::inter_block();
    let base = Config::Inter(InterConfig::Base);
    let two_by_two = base
        .with_topology(TopologyBuilder::new(2, 2).validate().expect("2x2 topology"))
        .expect("an inter-block scheme on a hierarchical topology");
    vec![
        bench("micro/flag_ping_pong_64", move || {
            let mut p = ProgramBuilder::new(Config::Intra(cfg));
            let flag = p.flag();
            let bar = p.barrier_of(2);
            let data = p.alloc(16);
            p.run_tasks(2, async move |ctx| {
                for round in 0..64u32 {
                    if ctx.tid() == 0 {
                        ctx.write(data, 0, round).await;
                        ctx.flag_set(flag).await;
                    } else {
                        ctx.flag_wait(flag).await;
                        ctx.read(data, 0).await;
                        ctx.flag_clear(flag).await;
                    }
                    ctx.barrier(bar).await;
                }
            })
        }),
        bench("micro/private_ops_1x16", || {
            // Thread t stores to 4 lines of its own, then loads each of
            // them 64 times: after the 4 misses every op is an L1 hit.
            let mut p = ProgramBuilder::new(Config::Intra(IntraConfig::Base));
            let data = p.alloc(16 * 4 * 16);
            p.run_tasks(16, async move |ctx| {
                let own = |k: u64| (ctx.tid() as u64 * 4 + k) * 16;
                for k in 0..4 {
                    ctx.write(data, own(k), k as u32).await;
                }
                for _ in 0..64 {
                    for k in 0..4 {
                        ctx.read(data, own(k)).await;
                    }
                }
            })
        }),
        bench("micro/build_inter32", || Machine::incoherent(inter)),
        bench("micro/empty_run_2x2", || {
            ProgramBuilder::new(two_by_two).run(two_by_two.num_threads(), |_| {})
        }),
        bench("micro/first_touch_inter32", move || {
            // Poke 256 lines, then thread t stores to lines t, t + 32, ...:
            // each block's threads reach all 8 of its L2 banks, and every
            // thread group of 4 all 4 L3 banks.
            let mut p = ProgramBuilder::new(base);
            let data = p.alloc(256 * 16);
            p.init_with(data, |i| i as u32);
            p.run_tasks(base.num_threads(), async move |ctx| {
                for k in 0..8u32 {
                    let line = (ctx.tid() as u64 + 32 * k as u64) * 16;
                    ctx.write(data, line, k).await;
                }
            })
        }),
    ]
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
        "suite --scale {}: {} runs, wall {:.3}s, {:.0} sim-ops/s, {} suspensions",
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
