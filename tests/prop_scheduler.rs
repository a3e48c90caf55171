//! Property tests for the engine: everything the default engine does
//! beyond the `Linear` oracle — the O(log n) heap picker, and running a
//! core's op inline while the core holds the smallest `(time, core)`
//! key — is a pure host-side optimization. For any program the default
//! engine must reproduce the oracle bit-for-bit: total cycles, stall
//! ledgers, traffic, the simulated op ledger, and readable memory. The
//! oracle suspends every core before every op and picks by linear scan.
//!
//! The generator (`tests/common/scripts.rs`) emits deadlock-free
//! programs by construction.
//!
//! Randomized with the deterministic in-repo `SplitMix64` (fixed seeds).

#[path = "common/scripts.rs"]
mod scripts;

use hic_machine::RunStats;
use hic_runtime::{CheckMode, Config, FaultPlan, IntraConfig, ProgramBuilder, Scheduler};
use hic_sim::{SplitMix64, TopologyBuilder};
use scripts::{gen_script, run_script, Action, Script, THREADS, WORDS};

/// Assert that two runs are observationally identical: simulated time,
/// stall ledgers, traffic categories, and the simulated part of the
/// engine ledger (suspensions and inline ops are host-side and
/// legitimately differ).
fn assert_same_sim(tag: &str, got: &RunStats, oracle: &RunStats) {
    assert_eq!(
        got.total_cycles, oracle.total_cycles,
        "{tag}: engine changed simulated time"
    );
    assert_eq!(
        got.ledgers, oracle.ledgers,
        "{tag}: engine changed stall ledgers"
    );
    assert_eq!(got.traffic, oracle.traffic, "{tag}: engine changed traffic");
    let sim = |s: &RunStats| {
        (
            s.engine.ops_executed,
            s.engine.wakeups,
            s.engine.peak_parked,
        )
    };
    assert_eq!(
        sim(got),
        sim(oracle),
        "{tag}: engine changed the simulated op ledger"
    );
}

/// Every op is run inline or preceded by one suspension; the oracle
/// never runs one inline.
fn assert_ledger(tag: &str, got: &RunStats, engine: Scheduler) {
    let e = &got.engine;
    assert_eq!(
        e.shard_local_ops + e.round_trips,
        e.ops_executed,
        "{tag}: {e:?}"
    );
    assert_eq!(e.messages, e.ops_executed, "{tag}: {e:?}");
    assert_eq!((e.batches, e.lock_waits), (0, 0), "{tag}: {e:?}");
    if engine == Scheduler::Linear {
        assert_eq!(e.shard_local_ops, 0, "{tag}: the oracle ran an op inline");
    }
}

/// The default engine and the oracle agree on every simulated quantity
/// and on readable memory for random programs on every intra config.
/// The default engine never suspends more often than the oracle, which
/// suspends before every op, and runs ops inline on these programs.
#[test]
fn schedulers_are_observationally_identical() {
    let mut rng = SplitMix64::new(0x5C4D);
    let mut inline_ops = 0;
    for case in 0..6 {
        let script = gen_script(&mut rng);
        for cfg in IntraConfig::ALL {
            let [linear, default] = [Scheduler::Linear, Scheduler::Default].map(|engine| {
                run_script(cfg, &script, |p| {
                    p.scheduler(engine);
                })
            });
            let tag = format!("case {case}, {}", cfg.name());
            assert_same_sim(&tag, &default.0, &linear.0);
            assert_eq!(default.1, linear.1, "{tag}: readable memory changed");
            assert_ledger(&tag, &linear.0, Scheduler::Linear);
            assert_ledger(&tag, &default.0, Scheduler::Default);
            assert!(
                default.0.engine.round_trips <= linear.0.engine.round_trips,
                "{tag}: the default engine suspended more often than the oracle"
            );
            inline_ops += default.0.engine.shard_local_ops;
        }
    }
    assert!(inline_ops > 0, "no op ever ran inline");
}

/// Running ops inline is a pure host-side optimization: on every intra
/// config, random programs give the oracle's simulated results and the
/// oracle's readable memory, and on every config — coherent ones
/// included — the inline path actually runs.
#[test]
fn sharded_engine_is_observationally_identical() {
    let mut rng = SplitMix64::new(0x5AAD);
    let mut local_ops = [0u64; IntraConfig::ALL.len()];
    for case in 0..6 {
        let script = gen_script(&mut rng);
        for (i, cfg) in IntraConfig::ALL.into_iter().enumerate() {
            let [linear, default] = [Scheduler::Linear, Scheduler::Default].map(|engine| {
                run_script(cfg, &script, |p| {
                    p.scheduler(engine);
                })
            });
            let tag = format!("case {case}, {}", cfg.name());
            assert_same_sim(&tag, &default.0, &linear.0);
            assert_eq!(default.1, linear.1, "{tag}: readable memory changed");
            local_ops[i] += default.0.engine.shard_local_ops;
        }
    }
    for (cfg, local) in IntraConfig::ALL.into_iter().zip(local_ops) {
        assert!(local > 0, "{}: no op ever ran inline", cfg.name());
    }
}

/// Run a script on an arbitrary topology/config pair (the flat 4-core
/// harness above hard-codes the paper's intra shape). Threads beyond the
/// script's width replay a rotated column so every core does work.
fn run_geom(config: Config, engine: Scheduler, script: &Script) -> RunStats {
    let mut p = ProgramBuilder::new(config);
    p.scheduler(engine);
    let nthreads = p.num_threads();
    let data = p.alloc(WORDS);
    let counter = p.alloc(1);
    let l = p.lock_occ(false);
    let bar = p.barrier_of(nthreads);
    let rounds = script.rounds.clone();
    let out = p.run_tasks(nthreads, async move |ctx| {
        for round in &rounds {
            for action in &round[ctx.tid() % THREADS] {
                match *action {
                    Action::Store { idx, val } => {
                        ctx.write(data, (idx + ctx.tid() as u64) % WORDS, val).await
                    }
                    Action::Load { idx } => {
                        ctx.read(data, (idx + ctx.tid() as u64) % WORDS).await;
                    }
                    Action::Compute { cycles } => ctx.compute(cycles).await,
                    Action::Critical { bumps } => {
                        ctx.lock(l).await;
                        let v = ctx.read(counter, 0).await;
                        ctx.write(counter, 0, v + bumps).await;
                        ctx.unlock(l).await;
                    }
                }
            }
            ctx.barrier(bar).await;
        }
    });
    out.stats().clone()
}

/// The engine is geometry-generic: a hierarchical 8x8x4 machine (8
/// blocks x 8 cores x 4 L2 banks — 64 cores, 64 tasks, a non-paper
/// shape) produces bit-identical results.
#[test]
fn sharded_engine_identical_on_8x8x4_inter_geometry() {
    use hic_runtime::InterConfig;
    let topo = TopologyBuilder::new(8, 8)
        .l2_banks_per_block(4)
        .validate()
        .expect("valid shape");
    let mut rng = SplitMix64::new(0x5AAF);
    for case in 0..2 {
        let script = gen_script(&mut rng);
        let config = Config::Inter(InterConfig::Addr)
            .with_topology(topo)
            .unwrap();
        let linear = run_geom(config, Scheduler::Linear, &script);
        let default = run_geom(config, Scheduler::Default, &script);
        assert_same_sim(&format!("8x8 inter, case {case}"), &default, &linear);
    }
}

/// Fault injection and the incoherence sanitizer observe the global
/// interleaving of *every* op. Both run on the same path as a clean
/// run: the default engine still runs ops inline in those modes and
/// matches the oracle.
#[test]
fn sharded_engine_falls_back_under_faults_and_checker() {
    let mut rng = SplitMix64::new(0x5AB0);
    let script = gen_script(&mut rng);
    for (tag, strict) in [("fault fallback", false), ("strict-check fallback", true)] {
        let [linear, default] = [Scheduler::Linear, Scheduler::Default].map(|engine| {
            run_script(IntraConfig::BMI, &script, |p| {
                p.scheduler(engine);
                if strict {
                    p.check_mode(CheckMode::Strict);
                } else {
                    // Timing-only perturbations, same seed on both engines.
                    p.fault_plan(FaultPlan::from_seed(2026));
                }
            })
        });
        assert_same_sim(tag, &default.0, &linear.0);
        assert_eq!(default.1, linear.1, "{tag}: readable memory changed");
        assert!(default.0.engine.shard_local_ops > 0, "{tag}");
    }
}

/// Readable memory is part of the observational contract too: final
/// per-word contents after the run must match the oracle.
#[test]
fn sharded_engine_preserves_readable_memory() {
    let mut rng = SplitMix64::new(0x5AB1);
    for case in 0..3 {
        let script = gen_script(&mut rng);
        let [linear, default] = [Scheduler::Linear, Scheduler::Default].map(|engine| {
            run_script(IntraConfig::BM, &script, |p| {
                p.scheduler(engine);
            })
        });
        assert_eq!(
            default.1, linear.1,
            "case {case}: default engine changed readable memory"
        );
    }
}
